//! Breadth-first exhaustive exploration with canonical-state dedup.
//!
//! The explorer runs BFS over [`ModelState`]s. Visited states are
//! remembered by a 128-bit fingerprint (two independently-seeded 64-bit
//! FxHash streams — a single 64-bit hash at ~10⁶ states leaves a small
//! but real chance of a collision silently pruning a reachable state);
//! the frontier holds full states so successors are generated from real
//! objects, never reconstructed. The fingerprint is canonical only where
//! the state is: the reordering window hashes as a set and node timers
//! relative to the node's clock (DESIGN.md §15.3); node ids are hashed as
//! they are, so mirror-image states are distinct.
//!
//! Counterexamples are reconstructed from parent pointers: each first
//! discovery records `(parent fingerprint, action)`, so a violating
//! state unwinds to the exact action trace from the initial state, which
//! replays deterministically (and is what `mc:` corpus lines hold).

use std::collections::VecDeque;
use std::hash::Hasher;

use fxhash::{FxHashMap, FxHasher};
use testbed::invariants::predicates::Mutation;

use crate::model::{McAction, ModelState};
use crate::scope::{Scope, N_NODES};

/// A 128-bit state fingerprint.
pub type Fp = u128;

/// Two independently-seeded hash streams presented as one `Hasher`.
struct Fp2 {
    a: FxHasher,
    b: FxHasher,
}

impl Fp2 {
    fn new() -> Fp2 {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0x9e37_79b9_7f4a_7c15);
        b.write_u64(0xc2b2_ae3d_27d4_eb4f);
        Fp2 { a, b }
    }
    fn finish(self) -> Fp {
        ((self.a.finish() as u128) << 64) | self.b.finish() as u128
    }
}

impl Hasher for Fp2 {
    fn finish(&self) -> u64 {
        self.a.finish()
    }
    fn write(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
    }
}

/// Fingerprints `state` under `scope`'s reordering window.
pub fn fingerprint(state: &ModelState, scope: &Scope) -> Fp {
    let mut h = Fp2::new();
    state.hash_state(&mut h, scope.reorder_window);
    h.finish()
}

/// A counterexample: the exact action trace from the initial state to a
/// violating one.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Scope the trace belongs to.
    pub scope_name: &'static str,
    /// Mutation active during the run (`None` for real violations).
    pub mutation: Mutation,
    /// Actions from the initial state; the last one triggers the
    /// violation.
    pub trace: Vec<McAction>,
    /// What broke, as reported at the point of detection.
    pub violation: String,
}

impl Counterexample {
    /// The replayable corpus form: `mc:<scope>[+mut-replier]:<actions>`.
    pub fn corpus_line(&self) -> String {
        let acts: Vec<String> = self.trace.iter().map(|a| a.to_string()).collect();
        let mutation = match self.mutation {
            Mutation::None => "",
            Mutation::BreakReplierImmutability => "+mut-replier",
        };
        format!("mc:{}{}:{}", self.scope_name, mutation, acts.join("."))
    }

    /// A human-readable rendering: each action annotated with the state
    /// it produces, obtained by replaying the trace.
    pub fn render(&self, scope: &Scope) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "counterexample in scope '{}' ({} actions): {}\n",
            self.scope_name,
            self.trace.len(),
            self.violation
        ));
        let mut state = ModelState::init(scope);
        out.push_str(&format!("  init: {}\n", state.describe()));
        for (i, &a) in self.trace.iter().enumerate() {
            let what = match a {
                McAction::Deliver(i) | McAction::Duplicate(i) | McAction::Drop(i) => {
                    format!("{a} [{}]", state.describe_env(i))
                }
                _ => a.to_string(),
            };
            let r = state.apply(scope, a);
            out.push_str(&format!("  {i:>3}. {what:<40} {}\n", state.describe()));
            if let Err(v) = r {
                out.push_str(&format!("  send-time violation: {v}\n"));
            }
        }
        out.push_str(&format!("  corpus: {}\n", self.corpus_line()));
        out
    }
}

/// Exploration limits beyond the scope's own budgets.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Stop (incomplete) after this many explored states.
    pub max_states: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_states: 20_000_000,
        }
    }
}

/// The result of one exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Scope explored.
    pub scope_name: &'static str,
    /// Unique states expanded (including the initial state).
    pub explored: usize,
    /// Transitions taken (successor generations).
    pub transitions: usize,
    /// Deepest BFS layer reached.
    pub max_depth: usize,
    /// Peak frontier size.
    pub peak_frontier: usize,
    /// True when the frontier drained without hitting `max_states`.
    pub complete: bool,
    /// The first violation found, if any (BFS order: a shortest trace).
    pub violation: Option<Counterexample>,
}

/// Exhaustively explores `scope` from its initial state.
pub fn explore(scope: &Scope, mutation: Mutation, limits: Limits) -> Report {
    let init = ModelState::init(scope);
    let init_fp = fingerprint(&init, scope);
    // fp -> (parent fp, action that reached it). The root maps to itself.
    let mut visited: FxHashMap<Fp, (Fp, McAction)> = FxHashMap::default();
    visited.insert(init_fp, (init_fp, McAction::ClientReq));
    let mut frontier: VecDeque<(ModelState, Fp, usize)> = VecDeque::new();
    frontier.push_back((init, init_fp, 0));

    let mut report = Report {
        scope_name: scope.name,
        explored: 0,
        transitions: 0,
        max_depth: 0,
        peak_frontier: 1,
        complete: false,
        violation: None,
    };

    let trace_to = |visited: &FxHashMap<Fp, (Fp, McAction)>, mut fp: Fp, last: McAction| {
        let mut acts = vec![last];
        while fp != init_fp {
            let &(parent, act) = visited.get(&fp).expect("visited chain");
            acts.push(act);
            fp = parent;
        }
        acts.reverse();
        acts
    };

    while let Some((state, fp, depth)) = frontier.pop_front() {
        report.explored += 1;
        report.max_depth = report.max_depth.max(depth);
        if report.explored.is_multiple_of(100_000) {
            eprintln!(
                "  .. explored={} depth={} frontier={} net={} [{}]",
                report.explored,
                depth,
                frontier.len(),
                state.net_len(),
                state.describe()
            );
        }
        if report.explored >= limits.max_states {
            return report; // incomplete
        }
        for action in state.enabled(scope) {
            report.transitions += 1;
            let mut next = state.clone();
            let send_verdict = next.apply(scope, action);
            let verdict = send_verdict.and_then(|()| next.check_invariants(&state, mutation));
            if let Err(v) = verdict {
                report.violation = Some(Counterexample {
                    scope_name: scope.name,
                    mutation,
                    trace: trace_to(&visited, fp, action),
                    violation: v.to_string(),
                });
                return report;
            }
            let nfp = fingerprint(&next, scope);
            if let std::collections::hash_map::Entry::Vacant(e) = visited.entry(nfp) {
                e.insert((fp, action));
                frontier.push_back((next, nfp, depth + 1));
                report.peak_frontier = report.peak_frontier.max(frontier.len() + 1);
            }
        }
    }
    report.complete = true;
    report
}

/// Replays a recorded action trace from the initial state of `scope`,
/// checking every invariant along the way. Returns the violation hit
/// (with the 0-based index of the offending action) or `Ok` when the
/// whole trace is clean.
pub fn replay(
    scope: &Scope,
    mutation: Mutation,
    trace: &[McAction],
) -> Result<(), (usize, String)> {
    let mut state = ModelState::init(scope);
    for (i, &a) in trace.iter().enumerate() {
        // A recorded trace replayed against a drifted model (or a
        // hand-mangled corpus line) can reference structure that no
        // longer exists; report that as a replay error, don't panic.
        let applicable = match a {
            McAction::Deliver(e) | McAction::Duplicate(e) | McAction::Drop(e) => {
                e < state.net_len()
            }
            McAction::Crash(n) | McAction::Tick(n) => state.is_alive(n),
            McAction::Restart(n) => !state.is_alive(n) && n < N_NODES,
            McAction::ClientReq => true,
        };
        if !applicable {
            return Err((
                i,
                format!("action {a} is not applicable in the replayed state"),
            ));
        }
        let pre = state.clone();
        state
            .apply(scope, a)
            .and_then(|()| state.check_invariants(&pre, mutation))
            .map_err(|v| (i, v.to_string()))?;
    }
    Ok(())
}
