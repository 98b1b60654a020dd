//! Pure invariant predicates: the verdicts the
//! [`InvariantChecker`](super::InvariantChecker) needs beyond a single
//! comparison.
//!
//! There is one sampler and two drivers. The checker reduces nodes to
//! plain observations and asks these functions whether they are legal;
//! the simulated cluster drives it every millisecond of virtual time, and
//! the `mc` model checker drives it on every transition of its
//! exhaustive small-scope search. Neither driver samples on its own, so
//! a rule changed here or in the checker changes for both.
//!
//! Numbering follows the module docs of [`super`]: 4 replier
//! immutability (§3.3), 6 exactly-one reply, 7 flow conservation,
//! 9 transfer-resume monotonicity. [`Mutation`] lets harness self-tests
//! break invariant 4 on purpose.

/// Deliberate single-predicate faults for harness self-tests.
///
/// The mutation smoke test (`tests/mc.rs`) needs to prove the
/// surrounding checker can actually *fail* — an exhaustive run that can
/// never report a violation proves nothing. Threading a `Mutation` value
/// into one predicate flips a legal observation into a reported violation
/// without touching the protocol under test. Production call sites pass [`Mutation::None`]; the knob is
/// a parameter (not a global) so parallel test binaries cannot interfere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mutation {
    /// No fault: every predicate gives its true verdict.
    #[default]
    None,
    /// Invert invariant 4's legal stamping step: report a fresh replier
    /// stamp — the first sighting of `Some` for a log slot, which §3.3
    /// explicitly permits — as a violation. Any execution that announces
    /// a single replicated request then exhibits a "counterexample".
    BreakReplierImmutability,
}

/// Outcome of one replier-immutability tracking step (invariant 4): what
/// the caller should do with its first-seen stamp for this log slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplierStep {
    /// Record `cur` as the new stamp (first sighting, a newer-term
    /// replacement entry, or the one legal `None -> Some` first stamp).
    Track,
    /// Stamp unchanged; nothing to record.
    Keep,
    /// The replier field of a stamped `(term, index)` entry changed —
    /// a §3.3 violation.
    Violation,
}

/// Invariant 4 — replier immutability (§3.3): once an entry carries a
/// replier, that field never changes for the lifetime of that
/// `(term, index)` entry.
///
/// `seen` is the first-observed `(term, replier)` stamp for this log slot
/// (`None` if unobserved); `cur` is the `(term, replier)` read now. A
/// term change means the slot's entry was replaced by uncommitted-suffix
/// truncation and is re-tracked from scratch; within a term the only
/// legal transition is `None -> Some` (the leader stamping at announce
/// time). Under [`Mutation::BreakReplierImmutability`] any legal fresh
/// stamp — a first sighting of `Some`, or the `None -> Some` step — is
/// *reported as the violation* instead, so harness tests can prove the
/// checker fires.
pub fn replier_step(
    seen: Option<(u64, Option<u32>)>,
    cur: (u64, Option<u32>),
    mutation: Mutation,
) -> ReplierStep {
    let Some((seen_term, seen_replier)) = seen else {
        // First sighting of this slot. A checker observing states
        // coarser than single protocol steps (the model checker's
        // action granularity, the simulator's 1ms sampling) sees most
        // stamps this way — entries appear already announced.
        return match (mutation, cur.1) {
            (Mutation::BreakReplierImmutability, Some(_)) => ReplierStep::Violation,
            _ => ReplierStep::Track,
        };
    };
    if seen_term != cur.0 {
        // Entry replaced by one from a newer term — track the
        // replacement from scratch.
        return ReplierStep::Track;
    }
    match (seen_replier, cur.1) {
        (Some(old), new) if new != Some(old) => ReplierStep::Violation,
        (None, Some(_)) => match mutation {
            // The one legal transition: first stamp.
            Mutation::None => ReplierStep::Track,
            Mutation::BreakReplierImmutability => ReplierStep::Violation,
        },
        _ => ReplierStep::Keep,
    }
}

/// Invariant 6 — exactly-one reply: is a *second* reply for an
/// already-answered request legal? Only when the same node re-answers at
/// a strictly higher incarnation (a restarted replier re-executing its
/// log); any other duplicate is a violation.
#[inline]
pub fn duplicate_reply_ok(first_node: u32, first_inc: u64, node: u32, inc: u64) -> bool {
    node == first_node && inc > first_inc
}

/// Invariant 9 — transfer-resume monotonicity: a node's cumulative
/// snapshot-chunk ack offset never regresses within one incarnation,
/// except a rewind to exactly 0 *before* the install — a legitimate
/// from-scratch failover to a competing serving peer. A partial rewind
/// (lost buffered chunks) or any rewind after `snapshot_installed`
/// (a regressed `applied` cursor) is a protocol bug.
#[inline]
pub fn transfer_resume_ok(high: u64, next: u64, installed: bool) -> bool {
    next >= high || (next == 0 && !installed)
}

/// Invariant 7 — flow-control slot conservation at the middlebox:
/// `admitted − (feedback − spurious) − reclaimed == in_flight`.
#[inline]
pub fn flow_conservation_ok(
    admitted: u64,
    feedback: u64,
    spurious: u64,
    reclaimed: u64,
    in_flight: u64,
) -> bool {
    admitted as i128 - (feedback as i128 - spurious as i128) - reclaimed as i128
        == in_flight as i128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replier_step_transitions() {
        // First sighting and newer-term replacement both re-track.
        assert_eq!(
            replier_step(None, (3, Some(1)), Mutation::None),
            ReplierStep::Track
        );
        assert_eq!(
            replier_step(Some((2, Some(1))), (3, Some(4)), Mutation::None),
            ReplierStep::Track
        );
        // The one legal same-term transition: first stamp.
        assert_eq!(
            replier_step(Some((3, None)), (3, Some(2)), Mutation::None),
            ReplierStep::Track
        );
        // Stamped replier must not change (even back to None).
        assert_eq!(
            replier_step(Some((3, Some(1))), (3, Some(2)), Mutation::None),
            ReplierStep::Violation
        );
        assert_eq!(
            replier_step(Some((3, Some(1))), (3, None), Mutation::None),
            ReplierStep::Violation
        );
        // Unchanged stamp: keep.
        assert_eq!(
            replier_step(Some((3, Some(1))), (3, Some(1)), Mutation::None),
            ReplierStep::Keep
        );
        // The mutation inverts the legal stamping step, whether it is
        // seen as a None -> Some transition or as a first sighting of an
        // already-stamped entry.
        assert_eq!(
            replier_step(
                Some((3, None)),
                (3, Some(2)),
                Mutation::BreakReplierImmutability
            ),
            ReplierStep::Violation
        );
        assert_eq!(
            replier_step(None, (3, Some(2)), Mutation::BreakReplierImmutability),
            ReplierStep::Violation
        );
        assert_eq!(
            replier_step(None, (3, None), Mutation::BreakReplierImmutability),
            ReplierStep::Track,
            "an unstamped first sighting is legal even under the mutation"
        );
        assert_eq!(
            replier_step(
                Some((3, Some(1))),
                (3, Some(1)),
                Mutation::BreakReplierImmutability
            ),
            ReplierStep::Keep
        );
    }

    #[test]
    fn transfer_resume_carve_out() {
        assert!(transfer_resume_ok(0, 4, false));
        assert!(transfer_resume_ok(4, 4, false));
        assert!(transfer_resume_ok(4, 0, false), "pre-install rewind to 0");
        assert!(!transfer_resume_ok(4, 2, false), "partial rewind");
        assert!(!transfer_resume_ok(4, 0, true), "rewind after install");
    }

    #[test]
    fn duplicate_reply_carve_out() {
        assert!(
            duplicate_reply_ok(2, 0, 2, 1),
            "same node, higher incarnation"
        );
        assert!(
            !duplicate_reply_ok(2, 0, 2, 0),
            "same node, same incarnation"
        );
        assert!(!duplicate_reply_ok(2, 0, 3, 1), "different node");
    }
}
