//! The four benchmark workloads: deployment, traffic mix, rate ladder and
//! windows. `README.md` records why each exists and which layer it loads.

use hovercraft::PolicyKind;
use simnet::{SimDur, SimTime};
use testbed::{ClusterOpts, ServiceKind, Setup, WorkloadKind};
use workload::{ServiceDist, SynthSpec, YcsbWorkload};

/// Open-loop Poisson clients per world.
pub const CLIENTS: u32 = 4;

/// The latency limit every rate is judged against: p99 ≤ 500 µs.
pub const SLO_NS: u64 = 500_000;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 24 B / 8 B, S = 1 µs, all writes, HovercRaft N = 5: ordering-bound.
    Small,
    /// 512 B / 6 kB, HovercRaft++ N = 3: byte-bound.
    Bulk,
    /// YCSB-E on the key-value store, HovercRaft++ N = 5: application-bound.
    Ycsbe,
    /// Leader kill and restart under flow control, HovercRaft++ N = 3.
    Failover,
}

/// How much virtual time a run covers. Virtual-time metrics depend on it,
/// so every number in `BENCHMARK.json` is taken at [`Scale::REFERENCE`];
/// the package's tests shrink it.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Measured window of a ladder point and phase length of a failover
    /// timeline, ms; `None` takes the workload's own.
    pub window_ms: Option<u64>,
    /// Failover timelines (distinct derived seeds) per run.
    pub timelines: usize,
    /// Fewest and most repeats of the host-time unit.
    pub repeats: (usize, usize),
}

impl Scale {
    /// The scale the benchmark's recorded numbers are taken at.
    pub const REFERENCE: Scale = Scale {
        window_ms: None,
        timelines: 20,
        repeats: (8, 40),
    };

    /// A short run for tests: `ms` measured windows, two timelines, one
    /// repeat.
    pub const fn smoke(ms: u64) -> Scale {
        Scale {
            window_ms: Some(ms),
            timelines: 2,
            repeats: (1, 1),
        }
    }
}

/// The fault schedule of one failover timeline.
#[derive(Clone, Copy, Debug)]
pub struct FailoverPlan {
    /// The leader is killed here.
    pub kill_at: SimTime,
    /// The killed node restarts here.
    pub restart_at: SimTime,
    /// The run (drain included) ends here.
    pub end: SimTime,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Small,
        Workload::Bulk,
        Workload::Ycsbe,
        Workload::Failover,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Small => "small",
            Workload::Bulk => "bulk",
            Workload::Ycsbe => "ycsbe",
            Workload::Failover => "failover",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rates of the ladder, kRPS, one world per rate. `failover`
    /// runs its single fixed rate.
    pub fn ladder_krps(self) -> &'static [u32] {
        match self {
            Workload::Small => &[200, 600, 800, 850, 875, 900, 950, 1000],
            Workload::Bulk => &[150, 300, 400, 450, 500, 550, 600],
            Workload::Ycsbe => &[30, 60, 80, 95, 105, 115, 125],
            Workload::Failover => &[165],
        }
    }

    /// The rate latency, host cost and every per-layer metric are taken at.
    pub fn mid_krps(self) -> u32 {
        match self {
            Workload::Small => 600,
            Workload::Bulk => 150,
            Workload::Ycsbe => 60,
            Workload::Failover => 165,
        }
    }

    /// Bounded-queue bound B (§3.4).
    pub fn bound(self) -> usize {
        match self {
            Workload::Small | Workload::Bulk => 128,
            Workload::Ycsbe => 64,
            Workload::Failover => 32,
        }
    }

    /// True for the workloads that sweep a rate ladder.
    pub fn is_ladder(self) -> bool {
        self != Workload::Failover
    }

    /// Measured window (ladder) or phase length (failover) at `scale`, ms.
    /// Warm-up is a fifth of the measured window.
    pub fn window_ms(self, scale: Scale) -> u64 {
        scale.window_ms.unwrap_or(match self {
            Workload::Small => 75,
            Workload::Bulk => 125,
            Workload::Ycsbe => 350,
            Workload::Failover => 60,
        })
    }

    /// Build options of one world of this workload at `rate_krps`.
    /// `setup` replaces the workload's own deployment for the single-node
    /// and vanilla-Raft baselines.
    pub fn opts(
        self,
        setup: Option<Setup>,
        rate_krps: u32,
        seed: u64,
        scale: Scale,
    ) -> ClusterOpts {
        let jbsq = PolicyKind::Jbsq;
        let (own, n) = match self {
            Workload::Small => (Setup::Hovercraft(jbsq), 5),
            Workload::Bulk => (Setup::HovercraftPp(jbsq), 3),
            Workload::Ycsbe => (Setup::HovercraftPp(jbsq), 5),
            Workload::Failover => (Setup::HovercraftPp(jbsq), 3),
        };
        let mut o = ClusterOpts::new(setup.unwrap_or(own), n, f64::from(rate_krps) * 1e3);
        o.clients = CLIENTS;
        o.seed = seed;
        o.bound = self.bound();
        let window = self.window_ms(scale);
        o.warmup = SimDur::millis(window / 5);
        o.measure = SimDur::millis(window);
        match self {
            Workload::Small => o.workload = WorkloadKind::Synth(SynthSpec::baseline()),
            Workload::Bulk => {
                o.workload = WorkloadKind::Synth(SynthSpec {
                    dist: ServiceDist::Fixed { ns: 1_000 },
                    req_size: 512,
                    reply_size: 6_000,
                    ro_fraction: 0.0,
                });
            }
            Workload::Ycsbe => {
                o.service = ServiceKind::Kv;
                o.workload = WorkloadKind::Ycsb {
                    workload: YcsbWorkload::E,
                    records: 10_000,
                };
            }
            Workload::Failover => {
                o.workload = WorkloadKind::Synth(SynthSpec {
                    dist: ServiceDist::Bimodal {
                        mean_ns: 10_000,
                        frac_long: 0.1,
                        mult: 10,
                    },
                    req_size: 24,
                    reply_size: 8,
                    ro_fraction: 0.75,
                });
                if o.setup.multicast_requests() {
                    o.flow_cap = Some(1_000);
                }
                // Three phases: healthy, one node down, rejoined. The
                // snapshot horizon keeps the ISSUE's ratio of 50 000
                // entries to a 1 s outage, so the restarted node is always
                // behind the compaction horizon and needs a state transfer.
                o.warmup = SimDur::ZERO;
                o.measure = SimDur::millis(3 * window);
                o.snapshot_interval = 50 * window;
            }
        }
        o
    }

    /// The fault schedule matching [`Workload::opts`] for `failover`.
    pub fn failover_plan(self, opts: &ClusterOpts, scale: Scale) -> FailoverPlan {
        let phase = SimDur::millis(self.window_ms(scale));
        FailoverPlan {
            kill_at: opts.load_start + phase,
            restart_at: opts.load_start + phase + phase,
            // Long enough for the slowest rejoin seen (75 ms after a 60 ms
            // outage) to finish after the load has stopped.
            end: opts.load_end() + SimDur::millis(100),
        }
    }

    /// Seed of failover timeline `i` of a run seeded `seed`.
    pub fn timeline_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(64).wrapping_add(i as u64)
    }
}
