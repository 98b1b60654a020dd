//! Metric definitions — the single list `BENCHMARK.json`, the JSON result
//! line, `selfcheck` and the README glossary all agree with — and the
//! result line itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock or counter a metric comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Domain {
    /// Simulated time: what the modelled cluster would take. Repeats
    /// exactly for a seed.
    Virtual,
    /// Host time or memory: what this implementation costs. Noisy.
    Host,
    /// A count made by the program. Repeats exactly for a seed.
    Count,
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse (0 for per-layer metrics, which have no bound).
    pub bound: f64,
    /// Time domain.
    pub domain: Domain,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    domain: Domain,
) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound,
        domain,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, domain: Domain) -> Def {
    e2e(name, unit, higher, 0.0, domain)
}

use Domain::{Count, Host, Virtual};

/// What a client of the replicated service — or a user of the simulator —
/// sees. Every workload reports every one of them.
pub const END_TO_END: &[Def] = &[
    e2e("slo_krps", "kRPS", true, 0.15, Virtual),
    e2e("mean_us", "us", false, 0.25, Virtual),
    e2e("p99_us", "us", false, 0.25, Virtual),
    e2e("answered_frac", "ratio", true, 0.08, Virtual),
    e2e("host_us_per_req", "us/req", false, 0.25, Host),
    e2e("peak_rss_mb", "MB", false, 0.2, Host),
    e2e("setup_s", "s", false, 0.25, Host),
];

/// Single-layer metrics, named by crate. A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // (a) host-time spans of the traced run
    layer("simnet.engine.self_us_per_req", "us/req", false, Host),
    layer("simnet.engine.events_per_req", "1/req", false, Count),
    layer("simnet.engine.self_ns_per_event", "ns", false, Host),
    layer("testbed.server.self_us_per_req", "us/req", false, Host),
    layer("testbed.server.calls_per_req", "1/req", false, Count),
    layer("testbed.server.leader_share", "ratio", false, Host),
    layer("service.exec_us_per_req", "us/req", false, Host),
    layer("service.execs_per_req", "1/req", false, Count),
    layer("testbed.client.self_us_per_req", "us/req", false, Host),
    layer("testbed.switch.self_us_per_req", "us/req", false, Host),
    layer("testbed.switch.pkts_per_req", "1/req", false, Count),
    layer("trace.overhead_ratio", "ratio", false, Host),
    // (b) exact counters of the traced run
    layer("simnet.sched_ops_per_req", "1/req", false, Count),
    layer("simnet.wheel_cascades_per_kevent", "1/kevent", false, Count),
    layer("simnet.tracer_locks_per_req", "1/req", false, Count),
    layer("simnet.trace_records_per_req", "1/req", false, Count),
    layer("bytes.allocs_per_req", "1/req", false, Count),
    layer("bytes.alloc_bytes_per_req", "B/req", false, Count),
    layer("bytes.arena_hit_ratio", "ratio", true, Count),
    layer("net.leader_rx_msgs_per_req", "1/req", false, Count),
    layer("net.leader_tx_msgs_per_req", "1/req", false, Count),
    layer("net.leader_tx_bytes_per_req", "B/req", false, Count),
    layer("net.max_follower_tx_bytes_per_req", "B/req", false, Count),
    layer("net.rx_dropped", "count", false, Count),
    layer("net.msgs.raft_per_req", "1/req", false, Count),
    layer("net.msgs.agg_commit_per_req", "1/req", false, Count),
    layer("net.msgs.feedback_per_req", "1/req", false, Count),
    layer("net.msgs.recovery_per_kreq", "1/kreq", false, Count),
    layer("core.reply_share_max", "ratio", false, Count),
    layer("core.ro_skipped_share", "ratio", true, Count),
    layer("core.recoveries_per_kreq", "1/kreq", false, Count),
    layer("core.apply_stalls_per_kreq", "1/kreq", false, Count),
    layer("core.agg.fanouts_per_req", "1/req", false, Count),
    layer("core.agg.commits_per_req", "1/req", false, Count),
    layer("core.fc.nack_share", "ratio", false, Count),
    layer("core.snap.installs", "count", false, Count),
    layer("core.snap.chunks_sent", "count", false, Count),
    // (c) virtual-time gauges, sampled every 1 ms of the traced run
    layer("core.replier_queue_depth_max", "count", false, Count),
    layer("core.pool_unordered_max", "count", false, Count),
    layer("core.fc.in_flight_max", "count", false, Count),
    layer("raft.follower_lag_max", "count", false, Count),
    layer("raft.commit_lag_max", "count", false, Count),
    layer("raft.elections", "count", false, Count),
    // (d) isolated drivers, ns per operation, min of 5
    layer("raft.commit_ns_per_entry", "ns", false, Host),
    layer("raft.steps_per_entry", "1/entry", false, Count),
    layer("r2p2.frame_ns_per_req", "ns", false, Host),
    layer("r2p2.frags_per_req", "1/req", false, Count),
    layer("kvstore.exec_ns_per_op", "ns", false, Host),
    layer("kvstore.scan_ns_per_op", "ns", false, Host),
    layer("kvstore.insert_ns_per_op", "ns", false, Host),
    layer("workload.synth.exec_ns_per_op", "ns", false, Host),
    layer("workload.gen_ns_per_req", "ns", false, Host),
    layer("simnet.engine.hop_ns", "ns", false, Host),
    layer("simnet.wheel.op_ns", "ns", false, Host),
    layer("simnet.tracer.record_ns", "ns", false, Host),
    layer("bytes.arena.alloc_ns", "ns", false, Host),
    layer("core.agg.pkt_ns", "ns", false, Host),
    layer("core.fc.pkt_ns", "ns", false, Host),
    layer("core.policy.pick_ns", "ns", false, Host),
    layer("core.pool.insert_order_ns", "ns", false, Host),
    layer("lancet.percentile_ns_per_sample", "ns", false, Host),
    // (e) the same traffic on the single-node and vanilla-Raft baselines
    layer("unrep.mean_us", "us", false, Virtual),
    layer("unrep.slo_krps", "kRPS", true, Virtual),
    layer("unrep.host_us_per_req", "us/req", false, Host),
    layer("vanilla.mean_us", "us", false, Virtual),
    layer("vanilla.host_us_per_req", "us/req", false, Host),
    layer("vanilla.leader_tx_bytes_per_req", "B/req", false, Count),
    // (f) the fault run, from one traced timeline
    layer("failover.gap_ms", "ms", false, Virtual),
    layer("failover.lost_replies", "count", false, Count),
    layer("failover.degraded_krps", "kRPS", true, Virtual),
    layer("failover.rejoin_ms", "ms", false, Virtual),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is not a defined metric or `value` is not finite:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undefined metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// The contract's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being every
/// one of `defs` in order (an unrecorded per-layer metric reads 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &Values,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values.get(d.name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}

/// Reads a line written by [`result_line`] back: `correct` and the value
/// of every metric. `None` if `line` is not such a line.
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.strip_prefix("{\"correct\": ")?.starts_with("true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut values = BTreeMap::new();
    // Each metric reads `"name": {"value": V, "unit": "u"}`.
    for part in metrics.split("\"}") {
        let Some((name, rest)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.rsplit('"').next()?;
        let value = rest.split(',').next()?.parse().ok()?;
        values.insert(name.to_string(), value);
    }
    Some((correct, values))
}

/// A table of `defs` and their values, one metric per line.
pub fn table(defs: &[Def], values: &Values) -> String {
    let mut s = String::new();
    for d in defs {
        if let Some(v) = values.get(d.name) {
            let _ = writeln!(s, "  {:<40} {:>16.4} {}", d.name, v, d.unit);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} defined twice", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for d in END_TO_END {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                d.name, d.unit, d.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                d.name, d.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
    }

    #[test]
    fn result_line_has_every_metric_in_order() {
        let mut v = Values::default();
        v.set("mean_us", 12.5);
        let line = result_line(true, 10, 0, END_TO_END, &v);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"mean_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(line.contains("\"slo_krps\": {\"value\": 0, \"unit\": \"kRPS\"}"));
        assert!(line.ends_with("}}"));
        let (correct, parsed) = parse_result_line(&line).expect("parses its own line");
        assert!(correct);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed["mean_us"], 12.5);
        assert_eq!(parsed["setup_s"], 0.0);
        assert!(parse_result_line("== small seed 1 ==").is_none());
    }
}
