//! One fault sweep: every randomized whole-cluster test case.
//!
//! A [`Case`] is one corpus line, `<family>:<seed>`. Its [`Family`] maps
//! the seed to a [`Shape`] — the cluster, its load, its fault schedule and
//! when the run reads the client-visible loss — as a pure function, so the
//! line alone replays the run event for event. [`Shape::run`] drives the
//! shape under the invariant checker (which includes exactly-one-reply)
//! and folds the trace into a [`TraceDigest`]; [`Shape::check`] then makes
//! the one check set every case gets:
//!
//! * a majority of servers is alive at the end;
//! * the live replicas are on one applied index and hold bit-identical
//!   service state;
//! * compaction ran, for the families that snapshot;
//! * responses never exceed requests, and latency percentiles are ordered;
//! * at most `episodes × B + slack(family)` replies were lost (§3.4).
//!
//! A failure panics with the case's corpus line, ready to paste into
//! `tests/chaos_corpus.txt`. A new fault primitive plugs in once, as a
//! [`Faults`] variant or a family.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

use hovercraft::PolicyKind;
use lancet::LatencyRecorder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{FaultCmd, FaultPlan, FaultPlanConfig, NodeId, SimDur, SimTime};

use crate::client::{ClientResults, RetryPolicy};
use crate::cluster::{Cluster, ClusterOpts};
use crate::digest::{DigestReport, TraceDigest};
use crate::server::ServerAgent;
use crate::setup::Setup;

/// How often [`run`] folds the trace into the digest.
const HARVEST: SimDur = SimDur::millis(1);

/// A family of randomized cases: one way of drawing a [`Shape`] from a
/// seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// 5-way HovercRaft/JBSQ at 25 kRPS with client retries, three fault
    /// episodes drawn for 210–460 ms.
    Plain,
    /// [`Family::Plain`] that snapshots every 64 applied entries (≈ every
    /// 2.5 ms at this load) and transfers state in 256-byte chunks: a node
    /// more than a couple of milliseconds behind must take the snapshot
    /// transfer path, which the faults then hit mid-stream. The chunks
    /// are small enough that a transfer takes several stop-and-wait round
    /// trips and large enough that it finishes inside one compaction
    /// period (the blob carries the covered-id set; byte-sized chunks
    /// would make transfers slower than compaction and livelock catch-up).
    Snap,
    /// A 3-way cluster at 20 kRPS with retries and one or two fault
    /// episodes drawn for 190–280 ms.
    Survivable,
    /// A 5-way cluster snapshotting every 16, 64 or 256 entries, a
    /// 120–240 ms measured window and one to three episodes up to the
    /// load's end.
    Horizon,
    /// 3-way HovercRaft++ at 80 kRPS with B of 8, 32 or 128 and one
    /// follower killed at 60–300 ms.
    FollowerDeath,
    /// No faults: any replicated setup, 3 or 5 nodes, 10–150 kRPS.
    Healthy,
}

/// Each family's corpus name and sweep seed stream (offset from
/// `CHAOS_SEED`, stride between cases).
const FAMILIES: [(Family, &str, u64, u64); 6] = [
    (Family::Plain, "plain", 0, 7919),
    (Family::Snap, "snap", 0x5eed_0000, 6007),
    (Family::Survivable, "survivable", 0x5afe_0000, 7919),
    (Family::Horizon, "horizon", 0x4071_0000, 7919),
    (Family::FollowerDeath, "follower-death", 0xdead_0000, 7919),
    (Family::Healthy, "healthy", 0x0e11_0000, 7919),
];

/// The setups the [`Family::Healthy`] family draws from.
pub const HEALTHY_SETUPS: [Setup; 4] = [
    Setup::Vanilla,
    Setup::Hovercraft(PolicyKind::Random),
    Setup::Hovercraft(PolicyKind::Jbsq),
    Setup::HovercraftPp(PolicyKind::Jbsq),
];

impl Family {
    fn row(self) -> (Family, &'static str, u64, u64) {
        FAMILIES[FAMILIES.iter().position(|r| r.0 == self).expect("listed")]
    }

    /// Lost replies allowed beyond `episodes × B`: requests in flight at
    /// the window edges or in a victim's execution window.
    fn slack(self) -> u64 {
        match self {
            Family::Plain | Family::Snap | Family::Survivable | Family::Horizon => 64,
            Family::FollowerDeath => 32,
            Family::Healthy => 8,
        }
    }

    /// The cases a sweep of this family runs: `CHAOS_CASES` of them
    /// (default `cases`), seeded from `CHAOS_SEED` (default `0xc0ffee`) on
    /// the family's own stream. Panics on a knob it cannot parse.
    pub fn sweep(self, cases: u64) -> Vec<Case> {
        let (_, _, offset, stride) = self.row();
        let knob = |name, default| {
            let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
            parse_u64(name, raw.as_deref(), default)
        };
        let cases = knob("CHAOS_CASES", cases);
        let base = knob("CHAOS_SEED", 0xc0ffee).wrapping_add(offset);
        (0..cases)
            .map(|i| Case::new(self, base.wrapping_add(i.wrapping_mul(stride))))
            .collect()
    }
}

/// One randomized case: a family and a seed, written `<family>:<seed>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    /// How the shape is drawn.
    pub family: Family,
    /// What it is drawn from (also the cluster and fault-plan seed).
    pub seed: u64,
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.family.row().1, self.seed)
    }
}

impl FromStr for Case {
    type Err = String;

    fn from_str(line: &str) -> Result<Case, String> {
        let (name, seed) = line
            .split_once(':')
            .ok_or_else(|| format!("{line:?}: expected <family>:<seed>"))?;
        let family = FAMILIES
            .iter()
            .find(|r| r.1 == name)
            .ok_or_else(|| format!("{line:?}: unknown family {name:?}"))?
            .0;
        let seed = seed
            .parse()
            .map_err(|_| format!("{line:?}: expected a decimal u64 seed"))?;
        Ok(Case::new(family, seed))
    }
}

/// What goes wrong in a run, drawn after the cluster settles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Faults {
    /// Nothing.
    None,
    /// A survivable [`FaultPlan`] of `episodes` episodes in `window`,
    /// drawn from the case's seed.
    Plan {
        /// When the first episode may start and the last must heal.
        window: (SimTime, SimTime),
        /// Sequential fault episodes.
        episodes: usize,
    },
    /// Fail-stop of the first server that is not the settled leader.
    KillFollower {
        /// When it dies.
        at: SimTime,
    },
}

impl Faults {
    /// Failures the loss budget allows B lost replies for.
    fn episodes(&self) -> usize {
        match *self {
            Faults::None => 0,
            Faults::Plan { episodes, .. } => episodes,
            Faults::KillFollower { .. } => 1,
        }
    }

    fn plan(&self, cluster: &Cluster, seed: u64) -> FaultPlan {
        match *self {
            Faults::None => FaultPlan::default(),
            Faults::Plan { window, episodes } => FaultPlan::generate(&FaultPlanConfig {
                nodes: cluster.servers.clone(),
                window_start: window.0,
                window_end: window.1,
                episodes,
                seed,
            }),
            Faults::KillFollower { at } => {
                let leader = cluster.leader().expect("settled leader");
                let node = *cluster
                    .servers
                    .iter()
                    .find(|&&s| s != leader)
                    .expect("a follower");
                FaultPlan {
                    events: vec![(at, FaultCmd::Kill { node })],
                }
            }
        }
    }
}

/// Everything a run does, as drawn for one [`Case`].
#[derive(Clone, Debug)]
pub struct Shape {
    /// The case it was drawn for; failures name it.
    pub case: Case,
    /// Cluster, load and seed.
    pub opts: ClusterOpts,
    /// The fault schedule.
    pub faults: Faults,
    /// Client results are read this long after the load ends.
    pub loss_at: SimDur,
    /// The run ends (after a drain) this long after the load ends.
    pub end: SimDur,
}

impl Case {
    /// The case `<family>:<seed>`.
    pub const fn new(family: Family, seed: u64) -> Case {
        Case { family, seed }
    }

    /// The shape this case runs: a pure function of the family and seed.
    pub fn shape(self) -> Shape {
        let ms = SimDur::millis;
        let at = |x| SimTime::ZERO + SimDur::millis(x);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let quick = |setup, n, rate| {
            let mut o = ClusterOpts::new(setup, n, rate);
            o.warmup = ms(40);
            o.bound = 64;
            o.retry = Some(RetryPolicy::default());
            o
        };
        let jbsq = Setup::Hovercraft(PolicyKind::Jbsq);
        let (mut opts, faults, loss_at, end) = match self.family {
            Family::Plain | Family::Snap => {
                let mut o = quick(jbsq, 5, 25_000.0);
                o.warmup = ms(50);
                o.measure = ms(300);
                if self.family == Family::Snap {
                    o.snapshot_interval = 64;
                    o.snap_chunk_bytes = 256;
                }
                let window = (at(210), at(460));
                let episodes = 3;
                (o, Faults::Plan { window, episodes }, ms(220), ms(220))
            }
            Family::Survivable => {
                let episodes = rng.gen_range(1..=2);
                let mut o = quick(jbsq, 3, 20_000.0);
                o.measure = ms(160);
                let window = (at(190), at(280));
                (o, Faults::Plan { window, episodes }, ms(220), ms(220))
            }
            Family::Horizon => {
                let mut o = quick(jbsq, 5, 20_000.0);
                o.snapshot_interval = [16, 64, 256][rng.gen_range(0..3usize)];
                o.measure = ms(rng.gen_range(120..240));
                o.snap_chunk_bytes = 256;
                let episodes = rng.gen_range(1..=3);
                let window = (at(190), o.load_end());
                (o, Faults::Plan { window, episodes }, ms(270), ms(270))
            }
            Family::FollowerDeath => {
                let mut o = ClusterOpts::new(Setup::HovercraftPp(PolicyKind::Jbsq), 3, 80_000.0);
                o.bound = [8, 32, 128][rng.gen_range(0..3usize)];
                o.warmup = ms(50);
                o.measure = ms(300);
                let kill = Faults::KillFollower {
                    at: at(rng.gen_range(60..300)),
                };
                (o, kill, ms(20), ms(120))
            }
            Family::Healthy => {
                let setup = HEALTHY_SETUPS[rng.gen_range(0..HEALTHY_SETUPS.len())];
                let n = [3, 5][rng.gen_range(0..2usize)];
                let mut o = ClusterOpts::new(setup, n, rng.gen_range(10_000.0..150_000.0));
                o.warmup = ms(30);
                o.measure = ms(100);
                (o, Faults::None, ms(20), ms(120))
            }
        };
        opts.seed = self.seed;
        Shape {
            case: self,
            opts,
            faults,
            loss_at,
            end,
        }
    }
}

/// One live server at the end of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replica {
    /// Its node id.
    pub node: NodeId,
    /// Its applied index.
    pub applied: u64,
    /// Snapshots it took (compaction ran).
    pub snapshots: u64,
    /// Its service snapshot.
    pub state: Vec<u8>,
}

/// The outcome of one run: everything a replay must reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The trace fingerprint and volume counters.
    pub digest: DigestReport,
    /// The fault schedule applied.
    pub plan: FaultPlan,
    /// Merged client results, read [`Shape::loss_at`] after the load.
    pub client: ClientResults,
    /// The live servers at the end.
    pub live: Vec<Replica>,
}

impl Shape {
    /// Settles the cluster, applies the fault schedule and runs to
    /// [`Shape::end`] under the invariant checker, folding the trace into
    /// a digest every `harvest`. Deterministic: the report is a pure
    /// function of the shape (the cadence only decides which events a
    /// burst can evict before they are folded in).
    pub fn run(&self, harvest: SimDur) -> Report {
        let mut cluster = Cluster::build(self.opts.clone());
        cluster.settle();
        let plan = self.faults.plan(&cluster, self.case.seed);
        cluster.sim.apply_fault_plan(&plan);
        let load_end = cluster.opts().load_end();
        let mut digest = TraceDigest::new();
        let mut advance = |cluster: &mut Cluster, to: SimTime| {
            while cluster.sim.now() < to {
                cluster.run_until_checked((cluster.sim.now() + harvest).min(to));
                digest.absorb(cluster.tracer());
            }
        };
        advance(&mut cluster, load_end + self.loss_at);
        let client = cluster.client_results();
        advance(&mut cluster, load_end + self.end);
        Report {
            digest: DigestReport {
                digest: digest.value(),
                events: digest.count(),
                total_recorded: cluster.tracer().total_recorded(),
                sim_events: cluster.sim.events_processed(),
            },
            plan,
            client,
            live: live(&cluster),
        }
    }

    /// The most replies a run may lose: `episodes × B + slack(family)`.
    fn loss_budget(&self) -> u64 {
        (self.faults.episodes() * self.opts.bound) as u64 + self.case.family.slack()
    }

    /// Runs the shape and makes every check (see the module docs),
    /// panicking with the case's corpus line on the first that fails —
    /// an invariant violation during the run included.
    pub fn check(&self) {
        let fail = |what: &str| -> ! {
            let o = &self.opts;
            panic!(
                "{}: {what}\n  shape: {:?} n={} {:.0} rps B={} snapshot_interval={}",
                self.case, o.setup, o.n, o.rate_rps, o.bound, o.snapshot_interval
            )
        };
        let r = catch_unwind(AssertUnwindSafe(|| self.run(HARVEST))).unwrap_or_else(|p| {
            let msg = p.downcast_ref::<String>().map(String::as_str);
            fail(
                msg.or(p.downcast_ref::<&str>().copied())
                    .unwrap_or("panicked"),
            )
        });
        let plan = &r.plan;
        if let Some(why) = disagreement(self.opts.n, &r.live) {
            fail(&format!("{why} after {plan:?}"));
        }
        let snapshots: u64 = r.live.iter().map(|s| s.snapshots).sum();
        if self.opts.snapshot_interval > 0 && snapshots == 0 {
            fail("compaction never ran");
        }
        let c = &r.client;
        let counts = format!(
            "sent {} responses {} nacks {}",
            c.sent, c.responses, c.nacks
        );
        if c.responses > c.sent {
            fail(&format!("more responses than requests: {counts}"));
        }
        let mut lat = LatencyRecorder::new();
        c.latencies.iter().for_each(|&l| lat.record(l));
        if lat.percentile(50.0) > lat.p99() {
            fail("p50 above p99");
        }
        let lost = c.sent.saturating_sub(c.responses + c.nacks);
        let budget = self.loss_budget();
        if lost > budget {
            fail(&format!(
                "lost {lost} replies > budget {budget} ({counts}) under {plan:?}"
            ));
        }
    }
}

/// Runs `case` (see [`Shape::run`]) harvesting the trace every 1 ms.
pub fn run(case: Case) -> Report {
    case.shape().run(HARVEST)
}

/// Runs `case` and makes every check (see [`Shape::check`]).
pub fn check(case: Case) {
    case.shape().check()
}

/// Runs `case` twice — the second time harvesting the trace every
/// `harvest` — and panics unless the two reports are identical; returns
/// the first.
pub fn replay(case: Case, harvest: SimDur) -> Report {
    let a = run(case);
    let b = case.shape().run(harvest);
    assert_eq!(a.digest, b.digest, "{case}: the trace diverged on replay");
    assert_eq!(a.plan, b.plan, "{case}: the fault plan diverged on replay");
    assert!(a == b, "{case}: clients or replicas diverged on replay");
    a
}

/// The live servers of `cluster`, in node order.
fn live(cluster: &Cluster) -> Vec<Replica> {
    let live = cluster.servers.iter().filter(|&&s| cluster.sim.is_alive(s));
    live.map(|&node| {
        let n = cluster.sim.agent::<ServerAgent>(node).node();
        Replica {
            node,
            applied: n.applied_index(),
            snapshots: n.stats().snapshots,
            state: n.service().snapshot().to_vec(),
        }
    })
    .collect()
}

/// Why the live replicas of an `n`-server cluster disagree — no majority
/// alive, two applied indices, or two service states (a replica that
/// rejoined by snapshot transfer must equal the ones that replayed the
/// log) — or `None`.
fn disagreement(n: u32, live: &[Replica]) -> Option<String> {
    let applied: Vec<(NodeId, u64)> = live.iter().map(|r| (r.node, r.applied)).collect();
    if live.len() * 2 <= n as usize {
        return Some(format!("no majority of {n} alive: {applied:?}"));
    }
    if live.windows(2).any(|w| w[0].applied != w[1].applied) {
        return Some(format!("live replicas diverged after drain: {applied:?}"));
    }
    let odd = live.iter().find(|r| r.state != live[0].state)?;
    Some(format!(
        "n{} state diverges from n{}",
        odd.node, live[0].node
    ))
}

/// Panics unless the live servers of `cluster` agree: a majority alive,
/// one applied index, bit-identical service state — the check every case
/// makes, for scripted scenarios.
pub fn assert_converged(cluster: &Cluster) {
    if let Some(why) = disagreement(cluster.opts().n, &live(cluster)) {
        panic!("{why}");
    }
}

/// Parses knob `name`'s value `raw` (`None`: unset, giving `default`) as
/// a decimal or `0x`-prefixed hex u64. Panics, naming the knob, on
/// anything else: a typo must not turn a 64-case sweep into 3 cases.
pub fn parse_u64(name: &str, raw: Option<&str>, default: u64) -> u64 {
    let Some(v) = raw else { return default };
    let t = v.trim();
    let parsed = t
        .strip_prefix("0x")
        .map_or_else(|| t.parse(), |hex| u64::from_str_radix(hex, 16));
    parsed.unwrap_or_else(|_| panic!("{name}={v:?}: expected a decimal or 0x-hex u64"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_lines_round_trip_and_reject_garbage() {
        for &(family, name, _, _) in &FAMILIES {
            let case = Case::new(family, 47571);
            assert_eq!(case.to_string(), format!("{name}:47571"));
            assert_eq!(case.to_string().parse(), Ok(case));
        }
        for bad in [
            "47571",
            "chaos:1",
            "plain:",
            "plain:x",
            "snap:-1",
            "mc:tiny:q",
        ] {
            assert!(bad.parse::<Case>().is_err(), "{bad:?} parsed");
        }
    }
}
