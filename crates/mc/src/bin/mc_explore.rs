//! CI driver for the `mc` explicit-state model checker.
//!
//! ```text
//! mc_explore [--scope NAME|all] [--max-states N]
//!            [--mutation replier] [--dump-dir DIR] [--digest PATH]
//!            [--reqs N] [--ticks N] [--dup N] [--drop N] [--crash N] [--window N]
//! ```
//!
//! The budget flags override the selected scope's presets — they exist
//! for sizing experiments (the EXPERIMENTS.md state-count tables); CI
//! and the corpus always run the unmodified presets. A run with any
//! override refuses `--digest` (exit 3), and its counterexample bundle
//! lists the overrides instead of an `mc:` line, since that line would
//! replay under the unmodified preset.
//!
//! Explores each requested scope to exhaustion and prints one line per
//! run: explored-state count, transitions, depth, wall time, verdict.
//! On a violation the full counterexample bundle (human-readable trace
//! plus the replayable `mc:` corpus line) is written under `--dump-dir`
//! and the exit code is 1; an incomplete run (state cap hit) exits 2 so
//! CI cannot mistake a truncated pass for an exhaustive one.
//!
//! `--digest PATH` additionally writes one machine-stable line per
//! exhausted run — scope name, state, transition, and depth counts, no
//! timings — for CI to diff against the committed `tests/mc_digest.txt`:
//! the explored space cannot grow *or shrink* silently.

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use mc::{explore, Limits, Scope};
use testbed::invariants::predicates::Mutation;

fn main() -> ExitCode {
    let mut scopes: Vec<Scope> = vec![Scope::default_scope()];
    let mut limits = Limits::default();
    let mut mutation = Mutation::None;
    let mut dump_dir = String::from("target/mc-dumps");
    let mut digest_path: Option<String> = None;

    let mut overrides: Vec<(&str, u8)> = Vec::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            f @ ("--reqs" | "--ticks" | "--dup" | "--drop" | "--crash" | "--window") => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => overrides.push((f, n)),
                    None => {
                        eprintln!("{f} needs a small number");
                        return ExitCode::from(3);
                    }
                }
            }
            "--scope" => {
                i += 1;
                let name = args.get(i).map(String::as_str).unwrap_or("");
                if name == "all" {
                    scopes = Scope::all();
                } else if let Some(s) = Scope::by_name(name) {
                    scopes = vec![s];
                } else {
                    eprintln!("unknown scope {name:?}");
                    return ExitCode::from(3);
                }
            }
            "--max-states" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => limits.max_states = n,
                    None => {
                        eprintln!("--max-states needs a number");
                        return ExitCode::from(3);
                    }
                }
            }
            "--mutation" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("replier") => mutation = Mutation::BreakReplierImmutability,
                    other => {
                        eprintln!("unknown mutation {other:?} (try: replier)");
                        return ExitCode::from(3);
                    }
                }
            }
            "--dump-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => dump_dir = d.clone(),
                    None => {
                        eprintln!("--dump-dir needs a path");
                        return ExitCode::from(3);
                    }
                }
            }
            "--digest" => {
                i += 1;
                match args.get(i) {
                    Some(p) => digest_path = Some(p.clone()),
                    None => {
                        eprintln!("--digest needs a path");
                        return ExitCode::from(3);
                    }
                }
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(3);
            }
        }
        i += 1;
    }

    if !overrides.is_empty() && digest_path.is_some() {
        eprintln!("--digest pins the unmodified presets; it takes no budget overrides");
        return ExitCode::from(3);
    }
    let overridden: Vec<String> = overrides.iter().map(|(f, n)| format!("{f} {n}")).collect();

    let mut worst = ExitCode::SUCCESS;
    let mut digest = String::new();
    for mut scope in scopes {
        for &(flag, n) in &overrides {
            match flag {
                "--reqs" => scope.client_reqs = n,
                "--ticks" => scope.tick_budget = n,
                "--dup" => scope.dup_budget = n,
                "--drop" => scope.drop_budget = n,
                "--crash" => scope.crash_budget = n,
                "--window" => scope.reorder_window = n as usize,
                _ => unreachable!(),
            }
        }
        let start = Instant::now();
        let report = explore(&scope, mutation, limits);
        let secs = start.elapsed().as_secs_f64();
        let verdict = match (&report.violation, report.complete) {
            (Some(_), _) => "VIOLATION",
            (None, true) => "exhausted, no violations",
            (None, false) => "INCOMPLETE (state cap)",
        };
        println!(
            "scope={:<8} states={:>9} transitions={:>10} depth={:>3} \
             peak_frontier={:>8} wall={secs:>7.2}s  {verdict}",
            report.scope_name,
            report.explored,
            report.transitions,
            report.max_depth,
            report.peak_frontier,
        );
        if let Some(cex) = &report.violation {
            let rendered = cex.render(&scope);
            eprintln!("{rendered}");
            let replay = if overridden.is_empty() {
                format!(
                    "replay: add this line to tests/chaos_corpus.txt\n{}",
                    cex.corpus_line()
                )
            } else {
                format!(
                    "overrides: {} (no corpus line for a modified preset)",
                    overridden.join(" ")
                )
            };
            if let Err(e) = dump_bundle(&dump_dir, &scope, &rendered, &replay) {
                eprintln!("failed to write counterexample bundle: {e}");
            }
            worst = ExitCode::from(1);
        } else if !report.complete && worst == ExitCode::SUCCESS {
            worst = ExitCode::from(2);
        }
        if report.complete && report.violation.is_none() {
            // Timing-free, machine-stable: what CI diffs against
            // tests/mc_digest.txt.
            digest.push_str(&format!(
                "scope={} states={} transitions={} depth={}\n",
                report.scope_name, report.explored, report.transitions, report.max_depth,
            ));
        }
    }
    if let Some(path) = digest_path {
        if let Err(e) = std::fs::write(&path, &digest) {
            eprintln!("failed to write digest {path}: {e}");
            return ExitCode::from(3);
        }
    }
    worst
}

/// Writes `<dump_dir>/mc-<scope>.txt` with the rendered trace and how to
/// replay it (the artifact CI uploads on failure).
fn dump_bundle(dump_dir: &str, scope: &Scope, rendered: &str, replay: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dump_dir)?;
    let path = format!("{dump_dir}/mc-{}.txt", scope.name);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{rendered}")?;
    writeln!(f, "{replay}")?;
    eprintln!("counterexample bundle written to {path}");
    Ok(())
}
