//! Exploration scopes: the small, finite parameterizations of the
//! HovercRaft cluster the checker exhausts.
//!
//! A scope fixes everything that bounds the reachable state space: the
//! protocol mode, how many client commands enter the system, and the
//! budgets on ticks, duplications, drops, and crash–restarts. The model
//! timing constants are deliberately tiny logical numbers (an election
//! timeout of 10 "ns", a tick quantum of 5) — the sans-io core never
//! compares clocks across nodes, so only the *ratios* matter, and small
//! numbers keep relative-time fingerprints dense.
//!
//! The election jitter window is width-1 (`min = T`, `max = T + 1`), which
//! the raft layer special-cases to skip the rng draw entirely: model
//! fingerprints then do not depend on how many times a node reset its
//! election deadline, without changing behavior (production widths are
//! millions of ns wide).

use hovercraft::{HcConfig, Mode, PolicyKind};

/// Number of nodes in every scope (the smallest cluster with a
/// non-trivial quorum).
pub const N_NODES: u32 = 3;
/// Network address of the HC++ aggregator in `hcpp` scopes.
pub const AGG_ADDR: u32 = 10;
/// Source address all model client requests carry.
pub const CLIENT_ADDR: u32 = 20;
/// Logical time advanced by one `Tick` action. Equal to the election
/// timeout, so *every* candidate tick does protocol work — a tick that
/// only advances a clock would still split states (relative deadlines
/// shift) while adding no behavior.
pub const TICK_QUANTUM: u64 = 20;
/// Model election timeout (width-1 jitter window: no rng draws).
pub const ELECTION_TIMEOUT: u64 = 20;
/// Model heartbeat interval. Half a quantum (the raft config requires
/// it strictly below the election timeout): every leader tick sends a
/// heartbeat.
pub const HEARTBEAT_INTERVAL: u64 = 10;
/// "Never" for model purposes: pool GC, recovery retries, transfer
/// retries, and stall detection all stay quiescent — retries multiply
/// states without adding protocol behavior that deliveries, drops, and
/// duplications do not already exercise.
const NEVER: u64 = 1 << 40;

/// One finite exploration scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scope {
    /// Name used in reports and `mc:<scope>:` corpus lines.
    pub name: &'static str,
    /// Protocol variant under test.
    pub mode: Mode,
    /// Client commands injected (each one multicast to the whole group).
    pub client_reqs: u8,
    /// Nodes `0..candidates` have live election timers; the rest never
    /// time out (they still vote, replicate, and answer). Restricting
    /// who may *start* elections is the classic small-scope reduction
    /// for consensus models: contested elections get their own scope
    /// instead of multiplying every other scope's space.
    pub candidates: u8,
    /// Second client command is read-only (exercises §3.5 replier-only
    /// execution) instead of read-write.
    pub ro_second: bool,
    /// Run a deterministic election prologue before exploration: node 0
    /// is elected and the wires drained, FIFO, outside the explored
    /// space. Election interleavings themselves are the `elect` scope's
    /// job; scopes that target request/fault handling start from a
    /// stable leader so the two spaces do not multiply.
    pub pre_elect: bool,
    /// Reordering window: only the first `reorder_window` in-flight
    /// packets (in arrival order) can be delivered, duplicated, or
    /// dropped. Packets further back become schedulable as the queue
    /// drains. This is the scope's "bounded reordering" bound — the
    /// network may reorder arbitrarily *within* the window and not at
    /// all across it — and the main tractability lever: branching per
    /// state is capped by the window, not by the in-flight count.
    pub reorder_window: usize,
    /// Max `Tick` actions per node.
    pub tick_budget: u8,
    /// Max message duplications (whole run).
    pub dup_budget: u8,
    /// Max message drops (whole run).
    pub drop_budget: u8,
    /// Max crashes (whole run); each crashed node may restart once.
    pub crash_budget: u8,
    /// `HcConfig::snapshot_interval` (0 = snapshotting off).
    pub snapshot_interval: u64,
    /// `HcConfig::snap_chunk_bytes` — small enough to force multi-chunk
    /// transfers in `snap` scopes.
    pub snap_chunk_bytes: usize,
    /// Bounded-queue bound `B` (§3.4).
    pub bound: usize,
}

impl Scope {
    /// The scope explored by default in CI: plain HovercRaft, two client
    /// commands, one duplication, one drop, no crashes.
    pub fn default_scope() -> Scope {
        Scope {
            name: "default",
            mode: Mode::Hovercraft,
            client_reqs: 2,
            candidates: 1,
            ro_second: true,
            pre_elect: true,
            reorder_window: 2,
            tick_budget: 1,
            dup_budget: 1,
            drop_budget: 1,
            crash_budget: 0,
            snapshot_interval: 0,
            snap_chunk_bytes: 16 * 1024,
            bound: 2,
        }
    }

    /// Two contending candidates (split vote / re-election space), one
    /// client command, no message faults. The only scope that explores
    /// elections from cold — everything else starts pre-elected.
    pub fn elect_scope() -> Scope {
        Scope {
            name: "elect",
            mode: Mode::Hovercraft,
            client_reqs: 1,
            candidates: 2,
            ro_second: false,
            pre_elect: false,
            reorder_window: 2,
            tick_budget: 1,
            dup_budget: 0,
            drop_budget: 0,
            crash_budget: 0,
            snapshot_interval: 0,
            snap_chunk_bytes: 16 * 1024,
            bound: 2,
        }
    }

    /// One crash–restart, no message faults.
    pub fn crash_scope() -> Scope {
        Scope {
            name: "crash",
            mode: Mode::Hovercraft,
            client_reqs: 2,
            candidates: 1,
            ro_second: false,
            pre_elect: true,
            reorder_window: 2,
            tick_budget: 1,
            dup_budget: 0,
            drop_budget: 0,
            crash_budget: 1,
            snapshot_interval: 0,
            snap_chunk_bytes: 16 * 1024,
            bound: 2,
        }
    }

    /// Snapshot-every-entry plus one crash–restart: exercises compaction,
    /// durable-state recovery, and (via the tiny chunk size) chunked
    /// state transfer to a lagging rejoiner.
    pub fn snap_scope() -> Scope {
        Scope {
            name: "snap",
            mode: Mode::Hovercraft,
            client_reqs: 1,
            candidates: 1,
            ro_second: false,
            pre_elect: true,
            reorder_window: 2,
            tick_budget: 2,
            dup_budget: 0,
            drop_budget: 0,
            crash_budget: 1,
            snapshot_interval: 1,
            snap_chunk_bytes: 16,
            bound: 2,
        }
    }

    /// HovercRaft++ with the in-network aggregator in the loop.
    pub fn hcpp_scope() -> Scope {
        Scope {
            name: "hcpp",
            mode: Mode::HovercraftPp,
            client_reqs: 1,
            candidates: 1,
            ro_second: false,
            pre_elect: true,
            reorder_window: 2,
            tick_budget: 1,
            dup_budget: 1,
            drop_budget: 0,
            crash_budget: 0,
            snapshot_interval: 0,
            snap_chunk_bytes: 16 * 1024,
            bound: 2,
        }
    }

    /// A deliberately small scope (FIFO wire, one command, one
    /// duplication) for debug-mode unit tests and the mutation smoke
    /// test: it still drives the full propose → replicate → commit →
    /// execute → reply path, but exhausts in well under a second even
    /// unoptimized.
    pub fn tiny_scope() -> Scope {
        Scope {
            name: "tiny",
            mode: Mode::Hovercraft,
            client_reqs: 1,
            candidates: 1,
            ro_second: false,
            pre_elect: true,
            reorder_window: 1,
            tick_budget: 1,
            dup_budget: 1,
            drop_budget: 0,
            crash_budget: 0,
            snapshot_interval: 0,
            snap_chunk_bytes: 16 * 1024,
            bound: 2,
        }
    }

    /// All built-in scopes, in report order.
    pub fn all() -> Vec<Scope> {
        vec![
            Scope::default_scope(),
            Scope::elect_scope(),
            Scope::crash_scope(),
            Scope::snap_scope(),
            Scope::hcpp_scope(),
            Scope::tiny_scope(),
        ]
    }

    /// Looks a scope up by its corpus/report name.
    pub fn by_name(name: &str) -> Option<Scope> {
        Scope::all().into_iter().find(|s| s.name == name)
    }

    /// The node configuration for member `id` under this scope. Every
    /// node shares the same rng seed, which keeps the initial state
    /// symmetric under id renaming.
    pub fn cfg(&self, id: u32) -> HcConfig {
        let members: Vec<u32> = (0..N_NODES).collect();
        let mut rc = raft::Config::new(id, members);
        if id < self.candidates as u32 {
            rc.election_timeout_min = ELECTION_TIMEOUT;
            rc.election_timeout_max = ELECTION_TIMEOUT + 1; // width-1: no draws
        } else {
            // Non-candidates never time out (and the width-1 window
            // still skips the jitter draw).
            rc.election_timeout_min = NEVER;
            rc.election_timeout_max = NEVER + 1;
        }
        rc.heartbeat_interval = HEARTBEAT_INTERVAL;
        rc.seed = 0x6d63; // identical on every node: the pinned mc counts depend on it
        let mut cfg = HcConfig::new(rc, self.mode);
        cfg.bound = self.bound;
        cfg.policy = PolicyKind::Jbsq;
        cfg.gc_timeout_ns = NEVER;
        cfg.recovery_retry_ns = NEVER;
        cfg.stall_timeout_ns = NEVER;
        cfg.snapshot_interval = self.snapshot_interval;
        cfg.snap_chunk_bytes = self.snap_chunk_bytes;
        if self.mode == Mode::HovercraftPp {
            cfg.agg_addr = Some(AGG_ADDR);
        }
        cfg
    }
}
