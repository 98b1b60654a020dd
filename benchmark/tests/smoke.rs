//! Runs every workload end to end and per layer at 20 ms windows (a
//! library parameter, not a CLI switch) and checks what must hold at any
//! scale: every end-to-end metric is reported, every name a
//! run emits is one `BENCHMARK.json` lists (`Values::set` refuses others;
//! `metrics::tests` ties the list to the file), the traced world
//! reproduces the plain one, and the spans account for the traced wall.

use std::time::Duration;

use hcbench::layers::per_layer;
use hcbench::metrics::{END_TO_END, PER_LAYER};
use hcbench::run::end_to_end;
use hcbench::workloads::{Scale, Workload};

const SCALE: Scale = Scale::smoke(20);

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = end_to_end(w, 7, Duration::ZERO, SCALE);
        for d in END_TO_END {
            let v = r
                .values
                .get(d.name)
                .unwrap_or_else(|| panic!("{}: {} missing", w.name(), d.name));
            // 20 ms of Poisson arrivals can miss 0.98 x offered at the first
            // rate by chance; non-zero is pinned at the reference scale.
            assert!(
                v > 0.0 || d.name == "slo_krps",
                "{}: {} = {v}",
                w.name(),
                d.name
            );
        }
        assert!(
            r.attempted >= 1 && r.failed == 0,
            "{}: {} of {} failed",
            w.name(),
            r.failed,
            r.attempted
        );
        for c in &r.checks {
            // Where the SLO knee falls on the ladder depends on the window
            // length; it is pinned at the reference scale only.
            if c.name.contains("inside the ladder") {
                continue;
            }
            assert!(c.ok, "{}: {} ({})", w.name(), c.name, c.detail);
        }
    }
}

#[test]
fn traced_world_matches_the_plain_one_and_spans_close() {
    for w in Workload::ALL {
        let r = per_layer(w, 7, SCALE);
        assert_eq!(r.checks.len(), 2, "equivalence guard and span accounting");
        for c in &r.checks {
            assert!(c.ok, "{}: {} ({})", w.name(), c.name, c.detail);
        }
        for name in r.values.names() {
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "{name} is not a per-layer metric"
            );
        }
        for name in [
            "simnet.engine.self_us_per_req",
            "testbed.server.self_us_per_req",
            "trace.overhead_ratio",
        ] {
            assert!(
                r.values.get(name).is_some_and(|v| v > 0.0),
                "{}: {name}",
                w.name()
            );
        }
        assert_eq!(
            r.values.get("failover.gap_ms").is_some(),
            w == Workload::Failover
        );
    }
}
