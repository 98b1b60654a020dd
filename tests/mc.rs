//! Model-checker harness tests: the debug-tractable slice of the `mc`
//! crate's guarantees.
//!
//! The full exhaustive runs (six presets, 2 744 622 states in total) live in
//! the CI `mc` job, which runs the release `mc_explore` binary and
//! compares the explored-state digest against `tests/mc_digest.txt`.
//! This file pins what must also hold under plain `cargo test`:
//!
//! * the `tiny` scope exhausts to a *pinned* state count (a silent
//!   shrink of the search space — a lost action, an over-eager state
//!   merge — fails here, not just in CI);
//! * the mutation smoke test: deliberately breaking one invariant
//!   predicate makes the checker produce a counterexample, and that
//!   counterexample round-trips through the `mc:` corpus format;
//! * every `mc:` seed committed to `tests/chaos_corpus.txt` replays
//!   with its recorded expectation (green, or violating at the final
//!   action for `+mut-` seeds);
//! * fingerprints keep mirror-image states apart: node ids are hashed
//!   as they are, with no renaming.

use mc::{explore, fingerprint, replay, CorpusSeed, Limits, McAction, ModelState, Scope};
use testbed::invariants::predicates::Mutation;

fn no_limits() -> Limits {
    Limits {
        max_states: 1_000_000,
    }
}

/// The `tiny` scope's exhaustive state count, pinned. If a model or
/// protocol change moves this number, re-measure *all* scope counts
/// (CI's digest will also fail) and update `tests/mc_digest.txt`
/// alongside this constant — the point is that the search space cannot
/// shrink silently.
const TINY_STATES: usize = 445;

#[test]
fn tiny_scope_exhausts_with_pinned_state_count() {
    let scope = Scope::tiny_scope();
    let report = explore(&scope, Mutation::None, no_limits());
    assert!(report.complete, "tiny scope must exhaust");
    assert!(
        report.violation.is_none(),
        "tiny scope must be violation-free: {:?}",
        report.violation.map(|v| v.violation)
    );
    assert_eq!(
        report.explored, TINY_STATES,
        "explored-state count drifted; see the pinning comment"
    );
}

/// Satellite: the mutation smoke test. Breaking invariant 4's predicate
/// (legal replier stamps are reported as violations) must yield a
/// counterexample within a bounded number of states, and that
/// counterexample must be a deterministic, replayable `mc:` corpus seed
/// that (a) violates at exactly its final action under the mutation and
/// (b) replays green without it — proving the checker, not the
/// protocol, produced the trace.
#[test]
fn mutation_smoke_produces_replayable_counterexample() {
    let scope = Scope::tiny_scope();
    let report = explore(&scope, Mutation::BreakReplierImmutability, no_limits());
    let cex = report
        .violation
        .expect("mutated predicate must produce a counterexample");
    assert!(
        report.explored <= TINY_STATES,
        "counterexample must surface within the bounded space"
    );
    // BFS finds a shortest trace: announcing the first command stamps a
    // replier, which the mutation flags — one action.
    assert_eq!(cex.trace, vec![McAction::ClientReq]);
    assert_eq!(cex.corpus_line(), "mc:tiny+mut-replier:q");

    // Round-trip through the corpus format.
    let seed = CorpusSeed::parse(&cex.corpus_line())
        .expect("an mc: line")
        .expect("parses");
    seed.verify().expect("mutation seed verifies");

    // The same trace is green without the mutation.
    replay(&scope, Mutation::None, &cex.trace)
        .expect("mutation counterexample replays clean without the mutation");

    // The human-readable rendering names the violated invariant and the
    // corpus line.
    let rendered = cex.render(&scope);
    assert!(rendered.contains("replier_immutable"), "{rendered}");
    assert!(rendered.contains("mc:tiny+mut-replier:q"), "{rendered}");
}

/// Every committed `mc:` corpus seed replays with its recorded
/// expectation, exactly like the chaos seeds replay their fault plans.
#[test]
fn committed_mc_corpus_seeds_verify() {
    let seeds = mc::parse_corpus(include_str!("chaos_corpus.txt")).expect("corpus parses");
    assert!(
        seeds.len() >= 3,
        "mc corpus unexpectedly small: {} seeds",
        seeds.len()
    );
    let mut mutated = 0;
    for seed in &seeds {
        seed.verify().unwrap_or_else(|e| {
            panic!("mc seed (scope {}) failed: {e}", seed.scope.name);
        });
        if seed.mutation != Mutation::None {
            mutated += 1;
        }
    }
    assert!(
        mutated >= 1,
        "corpus must pin at least one mutation counterexample"
    );
}

/// A greedy "always take the first enabled action" schedule of the tiny
/// scope runs to quiescence: the wires drain, the command is committed,
/// executed, and answered exactly once. Termination itself is the
/// assertion — a scheduling loop that never drains would spin past the
/// step bound.
#[test]
fn greedy_schedule_reaches_quiescence() {
    let scope = Scope::tiny_scope();
    let mut state = ModelState::init(&scope);
    let mut trace = Vec::new();
    for _ in 0..200 {
        // Skip the fault actions (Duplicate/Drop) so the greedy run is
        // the clean fast path; Deliver comes before them in canonical
        // order, ClientReq before everything.
        let Some(&act) = state
            .enabled(&scope)
            .iter()
            .find(|a| matches!(a, McAction::ClientReq | McAction::Deliver(_)))
        else {
            break;
        };
        let pre = state.clone();
        state.apply(&scope, act).expect("no violation");
        state
            .check_invariants(&pre, Mutation::None)
            .expect("no violation");
        trace.push(act);
    }
    assert_eq!(state.net().len(), 0, "wires must drain");
    assert_eq!(state.reply_count(), 1, "exactly one reply");
    // The recorded schedule is itself a valid green trace.
    replay(&scope, Mutation::None, &trace).expect("greedy trace replays green");
}

/// Fingerprints hash node ids as they are: in the `elect` scope both
/// candidates are configured identically, yet "node 0 ticked first" and
/// "node 1 ticked first" are distinct states, and one tick is distinct
/// from none.
#[test]
fn mirror_states_have_distinct_fingerprints() {
    let scope = Scope::elect_scope();
    let init = ModelState::init(&scope);
    let mut a = init.clone();
    let mut b = init.clone();
    a.apply(&scope, McAction::Tick(0)).unwrap();
    b.apply(&scope, McAction::Tick(1)).unwrap();
    assert_ne!(
        fingerprint(&a, &scope),
        fingerprint(&b, &scope),
        "mirror states are physically distinct"
    );
    assert_ne!(fingerprint(&init, &scope), fingerprint(&a, &scope));
}

/// Corpus-format hygiene: action tokens round-trip and malformed lines
/// are rejected with a diagnostic instead of a panic.
#[test]
fn corpus_format_round_trips_and_rejects_garbage() {
    for (tok, act) in [
        ("q", McAction::ClientReq),
        ("d3", McAction::Deliver(3)),
        ("u0", McAction::Duplicate(0)),
        ("x1", McAction::Drop(1)),
        ("t2", McAction::Tick(2)),
        ("c1", McAction::Crash(1)),
        ("r1", McAction::Restart(1)),
    ] {
        assert_eq!(McAction::parse(tok), Some(act));
        assert_eq!(act.to_string(), tok);
    }
    assert_eq!(McAction::parse("z9"), None);

    assert!(
        CorpusSeed::parse("47571").is_none(),
        "chaos seeds are not mc seeds"
    );
    assert!(CorpusSeed::parse("snap:55").is_none());
    assert!(CorpusSeed::parse("mc:default:q.d0")
        .expect("mc line")
        .is_ok());
    for bad in [
        "mc:nosuch:q",            // unknown scope
        "mc:default+mut-bogus:q", // unknown mutation
        "mc:default:zz",          // bad token
        "mc:default:",            // empty trace
        "mc:default",             // missing separator
        "mc:default:é1",          // multi-byte op
        "mc:default:t4294967296", // node id past u32
    ] {
        assert!(
            CorpusSeed::parse(bad).expect("mc line").is_err(),
            "{bad:?} must be rejected"
        );
    }
}
