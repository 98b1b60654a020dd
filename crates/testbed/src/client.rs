//! The load-generating client agent: an open-loop Poisson source with
//! Lancet-style latency accounting.
//!
//! A client models one Lancet generator machine: it fires requests at the
//! configured rate regardless of responses (open loop), matches responses
//! back to requests by the R2P2 3-tuple, and records per-request latency.
//! Several clients are typically deployed per experiment and their samples
//! merged, like the paper's multi-machine client pool.

use std::any::Any;

use bytes::Bytes;
use fxhash::{FxHashMap, FxHashSet};
use hovercraft::{OpKind, WireMsg};
use lancet::{LatencyRecorder, PoissonArrivals, WindowedSeries};
use r2p2::{ReqId, ReqIdAlloc};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::{Addr, Agent, Ctx, Packet, SimDur, SimTime, TimerId};
use workload::{SynthSpec, YcsbGen};

const BEGIN: u64 = 1;
const SEND: u64 = 2;
const RETRY_SCAN: u64 = 3;

/// How often a retrying client scans its outstanding set for overdue
/// requests. Half the base timeout keeps retransmission latency within
/// 1.5× the configured timeout.
const RETRY_SCAN_INTERVAL: SimDur = SimDur::micros(500);

/// Client-side retransmission policy (off by default — the open-loop
/// generators of the throughput experiments never retry). Retransmissions
/// reuse the original [`ReqId`], so servers can deduplicate and the
/// exactly-one-reply invariant is keyed per request, not per transmission.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Base response timeout before the first retransmission.
    pub timeout: SimDur,
    /// Cap on the exponential backoff between retransmissions.
    pub backoff_cap: SimDur,
    /// Total transmission attempts (initial send included) before the
    /// client gives the request up for lost.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDur::millis(1),
            backoff_cap: SimDur::millis(16),
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempts + 1`: `timeout · 2^(attempts-1)`,
    /// capped.
    fn backoff(&self, attempts: u32) -> u64 {
        let base = self.timeout.as_nanos();
        let shift = attempts.saturating_sub(1).min(32);
        base.saturating_mul(1u64 << shift)
            .min(self.backoff_cap.as_nanos())
    }
}

/// An in-flight request awaiting its response.
struct Pending {
    /// Original send time, ns (latency is measured from the first attempt).
    sent: u64,
    kind: OpKind,
    body: Bytes,
    /// Transmissions so far.
    attempts: u32,
    /// Virtual time of the next retransmission; `u64::MAX` when retries are
    /// disabled or exhausted.
    next_retry: u64,
}

/// What the client sends.
pub enum ClientWorkload {
    /// The synthetic microbenchmark service.
    Synth(SynthSpec),
    /// A YCSB operation stream.
    Ycsb(Box<YcsbGen>),
}

impl ClientWorkload {
    fn next(&mut self, rng: &mut SmallRng, arena: &mut bytes::ByteArena) -> (Bytes, bool) {
        match self {
            ClientWorkload::Synth(spec) => spec.sample_in(rng, arena),
            ClientWorkload::Ycsb(g) => {
                let op = g.next_op();
                (op.body, op.read_only)
            }
        }
    }
}

/// Counters and samples harvested after a run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClientResults {
    /// Requests sent after the measurement start.
    pub sent: u64,
    /// Responses received for measured requests.
    pub responses: u64,
    /// NACKs received (flow control sheds).
    pub nacks: u64,
    /// Retransmissions sent (measured requests, retrying clients only).
    pub retries: u64,
    /// Duplicate responses received for already-completed requests (a
    /// restarted replier may legitimately re-answer; the invariant checker
    /// verifies each duplicate against the replier's incarnation).
    pub duplicates: u64,
    /// Latency samples of measured requests, ns.
    pub latencies: Vec<u64>,
}

/// The open-loop client agent.
pub struct ClientAgent {
    target: Addr,
    rate_rps: f64,
    start_at: SimTime,
    end_at: SimTime,
    measure_from: SimTime,
    workload: ClientWorkload,
    seed: u64,
    arrivals: Option<PoissonArrivals>,
    rng: SmallRng,
    alloc: Option<ReqIdAlloc>,
    // Deterministic hasher: the retry scan iterates this map and resends
    // in iteration order, so the order must not vary across processes.
    outstanding: FxHashMap<ReqId, Pending>,
    retry: Option<RetryPolicy>,
    /// Requests already answered once (duplicate detection under retries).
    completed: FxHashSet<ReqId>,
    recorder: LatencyRecorder,
    /// Completion time series (1 s windows) — Figure 12's instrument.
    pub series: WindowedSeries,
    /// NACK time series.
    pub nack_series: WindowedSeries,
    results: ClientResults,
}

impl ClientAgent {
    /// Builds a client that starts loading at `start_at`, stops at
    /// `end_at`, and counts only requests sent at or after `measure_from`.
    pub fn new(
        target: Addr,
        rate_rps: f64,
        start_at: SimTime,
        end_at: SimTime,
        measure_from: SimTime,
        workload: ClientWorkload,
        seed: u64,
    ) -> ClientAgent {
        ClientAgent {
            target,
            rate_rps,
            start_at,
            end_at,
            measure_from,
            workload,
            seed,
            arrivals: None,
            rng: SmallRng::seed_from_u64(seed ^ 0xc11e),
            alloc: None,
            outstanding: FxHashMap::default(),
            retry: None,
            completed: FxHashSet::default(),
            recorder: LatencyRecorder::new(),
            series: WindowedSeries::new(1_000_000_000),
            nack_series: WindowedSeries::new(1_000_000_000),
            results: ClientResults::default(),
        }
    }

    /// Redirects future requests (e.g. to a newly elected leader).
    pub fn set_target(&mut self, target: Addr) {
        self.target = target;
    }

    /// Enables retransmission with capped exponential backoff. Call before
    /// the simulation starts.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Harvests results; call after the run (drains the latency samples).
    pub fn results(&mut self) -> ClientResults {
        let mut r = self.results.clone();
        r.latencies = self.recorder.take_samples();
        r
    }

    /// Requests still awaiting a response (lost replies under failures).
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    fn fire(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let now = ctx.now();
        if now >= self.end_at {
            return;
        }
        let alloc = self
            .alloc
            .get_or_insert_with(|| ReqIdAlloc::new(ctx.node_id(), 1000));
        let id = alloc.allocate();
        let (body, ro) = self.workload.next(&mut self.rng, ctx.arena());
        let kind = if ro {
            OpKind::ReadOnly
        } else {
            OpKind::ReadWrite
        };
        let msg = WireMsg::Request {
            id,
            kind,
            body: body.clone(),
        };
        let size = msg.wire_size();
        ctx.send(self.target, size, msg);
        let next_retry = match self.retry {
            Some(p) => now.as_nanos().saturating_add(p.timeout.as_nanos()),
            None => u64::MAX,
        };
        self.outstanding.insert(
            id,
            Pending {
                sent: now.as_nanos(),
                kind,
                body,
                attempts: 1,
                next_retry,
            },
        );
        if now >= self.measure_from {
            self.results.sent += 1;
        }
        // Arm the next arrival (a zero delay is fine: overdue arrivals of a
        // bursty schedule fire back-to-back at the current instant).
        let arr = self.arrivals.as_mut().expect("initialized at BEGIN");
        let next = arr.next_arrival();
        ctx.set_timer(SimDur::nanos(next.saturating_sub(now.as_nanos())), SEND);
    }

    /// Retransmits every overdue outstanding request (same `ReqId`, same
    /// payload), applying capped exponential backoff; requests out of
    /// attempts are abandoned (they stay in `outstanding` as losses).
    fn scan_retries(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let Some(policy) = self.retry else { return };
        let now = ctx.now();
        if now >= self.end_at {
            return; // the load window is over; let in-flight requests drain
        }
        let now_ns = now.as_nanos();
        let measure_from = self.measure_from.as_nanos();
        let target = self.target;
        let mut resend: Vec<(ReqId, OpKind, Bytes)> = Vec::new();
        for (&id, p) in self.outstanding.iter_mut() {
            if p.next_retry > now_ns {
                continue;
            }
            if p.attempts >= policy.max_attempts {
                p.next_retry = u64::MAX; // exhausted: give it up for lost
                continue;
            }
            p.attempts += 1;
            p.next_retry = now_ns.saturating_add(policy.backoff(p.attempts));
            if p.sent >= measure_from {
                self.results.retries += 1;
            }
            resend.push((id, p.kind, p.body.clone()));
        }
        for (id, kind, body) in resend {
            let msg = WireMsg::Request { id, kind, body };
            let size = msg.wire_size();
            ctx.send(target, size, msg);
        }
    }
}

impl Agent<WireMsg> for ClientAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let delay = self.start_at.since(ctx.now());
        ctx.set_timer(delay, BEGIN);
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Ctx<'_, WireMsg>) {
        match kind {
            BEGIN => {
                self.arrivals = Some(PoissonArrivals::new(
                    self.rate_rps,
                    ctx.now().as_nanos(),
                    self.seed,
                ));
                // Consume the first (immediate) arrival and fire.
                let _ = self.arrivals.as_mut().expect("just set").next_arrival();
                if self.retry.is_some() {
                    ctx.set_timer(RETRY_SCAN_INTERVAL, RETRY_SCAN);
                }
                self.fire(ctx);
            }
            SEND => self.fire(ctx),
            RETRY_SCAN => {
                self.scan_retries(ctx);
                if ctx.now() < self.end_at {
                    ctx.set_timer(RETRY_SCAN_INTERVAL, RETRY_SCAN);
                }
            }
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_packet(&mut self, pkt: Packet<WireMsg>, ctx: &mut Ctx<'_, WireMsg>) {
        let now = ctx.now();
        match pkt.payload {
            WireMsg::Response { id, .. } => {
                if let Some(p) = self.outstanding.remove(&id) {
                    let latency = now.as_nanos() - p.sent;
                    self.series.record(now.as_nanos(), latency);
                    if self.retry.is_some() {
                        self.completed.insert(id);
                    }
                    // Goodput accounting is bounded by the measured window
                    // on *both* ends: counting late completions of measured
                    // sends would let an overloaded system report goodput
                    // at its offered rate.
                    if p.sent >= self.measure_from.as_nanos() && now <= self.end_at {
                        self.results.responses += 1;
                        self.recorder.record(latency);
                    }
                } else if self.completed.contains(&id) {
                    // A second answer to a request we already completed —
                    // e.g. a restarted replier re-executing its log. Counted
                    // here; judged by the incarnation-aware checker.
                    self.results.duplicates += 1;
                }
            }
            WireMsg::Nack { id } => {
                match self.retry {
                    Some(policy) => {
                        // Shed by flow control: back off and retry the same
                        // request instead of abandoning it.
                        if let Some(p) = self.outstanding.get_mut(&id) {
                            self.nack_series.record(now.as_nanos(), 0);
                            p.next_retry = now
                                .as_nanos()
                                .saturating_add(policy.backoff(p.attempts.max(1)));
                            if p.sent >= self.measure_from.as_nanos() && now <= self.end_at {
                                self.results.nacks += 1;
                            }
                        }
                    }
                    None => {
                        if let Some(p) = self.outstanding.remove(&id) {
                            self.nack_series.record(now.as_nanos(), 0);
                            if p.sent >= self.measure_from.as_nanos() && now <= self.end_at {
                                self.results.nacks += 1;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
