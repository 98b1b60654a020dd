//! `hcbench` command line. Two forms:
//!
//! * the benchmark contract —
//!   `hcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` —
//!   prints detail, then one JSON result line last;
//! * subcommands for people: `run <workload>`, `trace <workload>`,
//!   `check`, `all`, `selfcheck` (see `README.md`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use hcbench::layers::{out_dir, per_layer};
use hcbench::metrics::{
    parse_result_line, result_line, table, Def, Domain, Values, END_TO_END, PER_LAYER,
};
use hcbench::run::{end_to_end, Check};
use hcbench::workloads::{Scale, Workload};

// Counts heap traffic for `bytes.allocs_per_req`; two thread-local
// increments per allocation, the same in every build that is compared.
#[global_allocator]
static ALLOC: simnet::CountingAlloc = simnet::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  hcbench --workload <small|bulk|ycsbe|failover> [--seed N] [--seconds S] [--trace 0|1]
  hcbench run <workload> | trace <workload> | check | all | selfcheck   [--seed N] [--seconds S]";

/// One measured (workload, trace) cell.
struct Outcome {
    defs: &'static [Def],
    values: Values,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
    fn line(&self) -> String {
        result_line(
            self.correct(),
            self.attempted,
            self.failed,
            self.defs,
            &self.values,
        )
    }
}

fn print_checks(checks: &[Check]) {
    for c in checks {
        println!(
            "  [{}] {} ({})",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
}

fn measure(w: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    println!(
        "== {} seed {seed} {} ==",
        w.name(),
        if trace { "per-layer" } else { "end-to-end" }
    );
    let outcome = if trace {
        let r = per_layer(w, seed, Scale::REFERENCE);
        print!("{}", r.report);
        Outcome {
            defs: PER_LAYER,
            values: r.values,
            attempted: r.attempted,
            failed: r.failed,
            checks: r.checks,
        }
    } else {
        let r = end_to_end(w, seed, Duration::from_secs(seconds), Scale::REFERENCE);
        print!("{}", r.report);
        Outcome {
            defs: END_TO_END,
            values: r.values,
            attempted: r.attempted,
            failed: r.failed,
            checks: r.checks,
        }
    };
    print!("{}", table(outcome.defs, &outcome.values));
    print_checks(&outcome.checks);
    outcome
}

/// One cell of `all`: a workload in one mode, measured by a child process
/// of its own — as the driver runs it — so peak RSS is the cell's alone.
struct Cell {
    key: String,
    defs: &'static [Def],
    line: String,
    correct: bool,
    values: BTreeMap<String, f64>,
}

fn child_cell(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Cell, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_arg = if trace { "1" } else { "0" };
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--trace", trace_arg])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (detail, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{detail}");
    let (correct, values) = parse_result_line(line).ok_or(format!(
        "{} trace {trace_arg}: no result line ({})",
        w.name(),
        out.status
    ))?;
    Ok(Cell {
        key: format!("{}/{trace_arg}", w.name()),
        defs: if trace { PER_LAYER } else { END_TO_END },
        line: line.to_string(),
        correct,
        values,
    })
}

/// Runs both modes on every workload, one child process per cell.
fn all(seed: u64, seconds: u64) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            cells.push(child_cell(w, seed, seconds, trace)?);
        }
    }
    Ok(cells)
}

fn write_all_json(cells: &[Cell]) {
    let mut s = String::from("{\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{}\": {}{sep}", c.key, c.line);
    }
    s.push_str("}\n");
    let path = out_dir().join("all.json");
    let _ = std::fs::create_dir_all(out_dir());
    match std::fs::write(&path, s) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Two full sets of the same code, compared metric by metric against the
/// benchmark's own bounds, then one set at the next seed.
fn selfcheck(seed: u64, seconds: u64) -> Result<bool, String> {
    let first = all(seed, seconds)?;
    let second = all(seed, seconds)?;
    let other = all(seed + 1, seconds)?;
    let mut ok = first.iter().chain(&second).chain(&other).all(|c| c.correct);
    println!(
        "== selfcheck: run 1 vs run 2 at seed {seed}; seed {} beside them ==",
        seed + 1
    );
    println!(
        "{:<12} {:<40} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict",
        "cell", "metric", "run 1", "run 2", "rel diff", "bound", "seed diff"
    );
    let rel = |p: f64, q: f64| {
        if p == q {
            0.0
        } else {
            (q - p).abs() / p.abs().max(f64::MIN_POSITIVE)
        }
    };
    for ((a, b), c) in first.iter().zip(&second).zip(&other) {
        for d in a.defs {
            let (x, y, z) = (a.values[d.name], b.values[d.name], c.values[d.name]);
            let diff = rel(x, y);
            // Virtual metrics and exact counters must repeat exactly; host
            // metrics must stay within their bound (per-layer host metrics
            // have none: they are not judged).
            let verdict = match d.domain {
                Domain::Virtual | Domain::Count => diff == 0.0,
                Domain::Host => d.bound == 0.0 || diff <= d.bound,
            };
            ok &= verdict;
            if !verdict || d.bound > 0.0 {
                println!(
                    "{:<12} {:<40} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}% {:>8.2}%  {}",
                    a.key,
                    d.name,
                    diff * 100.0,
                    d.bound * 100.0,
                    rel(x, z) * 100.0,
                    if verdict { "ok" } else { "FAILED" },
                );
            }
        }
    }
    Ok(ok)
}

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            // Kept below 2^32: `ClusterOpts` derives generator seeds by
            // multiplying the master seed.
            "--seed" => {
                a.seed = value("--seed")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seed: {e}"))?
                    % (1 << 32)
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn workload_named(name: Option<&String>) -> Result<Workload, String> {
    let name = name.ok_or("which workload?")?;
    Workload::parse(name).ok_or(format!("unknown workload {name}"))
}

fn run() -> Result<bool, String> {
    let a = parse_args()?;
    let command = a.positional.first().map(String::as_str);
    match command {
        // The contract: the result line is the last line of stdout, and
        // the exit code is 0 even when `correct` is false — the line says so.
        None => {
            let o = measure(
                workload_named(a.workload.as_ref())?,
                a.seed,
                a.seconds,
                a.trace,
            );
            println!("{}", o.line());
            Ok(true)
        }
        Some("run") | Some("trace") => {
            let o = measure(
                workload_named(a.positional.get(1))?,
                a.seed,
                a.seconds,
                command == Some("trace"),
            );
            println!("{}", o.line());
            Ok(o.correct())
        }
        Some("check") => {
            let mut ok = true;
            for w in Workload::ALL {
                // The shortest budget still runs the whole correctness pass.
                ok &= measure(w, a.seed, 0, false).correct();
                ok &= measure(w, a.seed, 0, true).correct();
            }
            Ok(ok)
        }
        Some("all") => {
            let cells = all(a.seed, a.seconds)?;
            write_all_json(&cells);
            Ok(cells.iter().all(|c| c.correct))
        }
        Some("selfcheck") => selfcheck(a.seed, a.seconds),
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hcbench: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("hcbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
