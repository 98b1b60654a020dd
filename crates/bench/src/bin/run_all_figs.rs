//! Suite driver: runs every figure/table of the suite, every world of
//! every figure on one shared set of worker threads, writing
//! `results/<name>.txt` per figure — byte-identical to a serial run — and
//! recording the suite's digest and wall-clock in `BENCH_sim.json`.
//!
//! Usage:
//!
//! ```text
//! run_all_figs [--results DIR | --stdout] [--bench-out PATH] [--compare-serial]
//!              [--list] [FIGURE ...]
//! ```
//!
//! * `HC_JOBS=N` sets the worker count (default and maximum: all cores;
//!   `1` = exact serial execution). `HC_FAST=1` shortens every figure (CI
//!   smoke).
//! * `--stdout` prints the figures' text to stdout instead of writing
//!   `DIR/<name>.txt` (the driver's own lines then go to stderr), so
//!   looking at one figure does not overwrite a committed result.
//! * `--compare-serial` also runs the whole suite with `HC_JOBS=1`
//!   semantics and fails unless every figure's output is **byte-identical**
//!   to the parallel run, recording both wall-times. The serial pass runs
//!   *first* so the measured parallel pass sees the same warmed process
//!   (page cache, heated allocator arenas) the serial pass enjoyed — with
//!   parallel first, serial inherits the warm-up for free and the
//!   comparison is biased against parallel.
//! * `--bench-out PATH` writes the `suite_*` keys (worker count, cores,
//!   figures, wall-clock and output digest per pass) to PATH as one flat
//!   JSON object, one pair per line, replacing the file.
//!
//! Exit status: `0` all green; `1` a figure failed (the shell wrapper
//! `run_figs.sh` forwards it) or serial and parallel outputs differ; `2`
//! bad usage.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::time::Instant;

use hovercraft_bench::figs;
use hovercraft_bench::sweep::{fnv1a64, try_render, Figure, Sweep};

/// Outcome of one figure render.
type FigResult = Result<String, String>;

/// Runs the given figures on `jobs` workers: each figure gets a thread
/// that only plans and renders, and every world any of them maps is one
/// job on the shared workers, so concurrent worlds never exceed `jobs`.
/// `jobs <= 1` is the exact serial path (no thread at all).
fn run_suite(figures: &[Figure], jobs: usize) -> Vec<FigResult> {
    if jobs <= 1 {
        return figures
            .iter()
            .map(|f| try_render(f, &Sweep::SERIAL))
            .collect();
    }
    pool::with_workers(jobs, |w| {
        std::thread::scope(|ts| {
            let planners: Vec<_> = figures
                .iter()
                .map(|f| ts.spawn(move || try_render(f, &Sweep::pooled(w))))
                .collect();
            planners
                .into_iter()
                .map(|h| h.join().expect("try_render catches the figure's panics"))
                .collect()
        })
    })
}

/// Combined FNV-1a digest over (name, output) of every figure, in suite
/// order — the fingerprint compared between serial and parallel runs.
fn suite_digest(figures: &[Figure], outputs: &[FigResult]) -> u64 {
    use std::fmt::Write as _;
    let mut blob = String::new();
    for (f, out) in figures.iter().zip(outputs) {
        let _ = write!(blob, "{}\0", f.name);
        match out {
            Ok(s) => blob.push_str(s),
            Err(e) => {
                let _ = write!(blob, "PANIC: {e}");
            }
        }
        blob.push('\0');
    }
    fnv1a64(blob.as_bytes())
}

fn usage() -> ! {
    eprintln!(
        "usage: run_all_figs [--results DIR | --stdout] [--bench-out PATH] [--compare-serial] \
         [--list] [FIGURE ...]"
    );
    std::process::exit(2);
}

fn main() {
    let mut results_dir = String::from("results");
    let mut bench_out: Option<String> = None;
    let mut compare_serial = false;
    let mut to_stdout = false;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--results" => results_dir = args.next().unwrap_or_else(|| usage()),
            "--bench-out" => bench_out = Some(args.next().unwrap_or_else(|| usage())),
            "--compare-serial" => compare_serial = true,
            "--stdout" => to_stdout = true,
            "--list" => {
                for f in figs::all() {
                    println!("{}", f.name);
                }
                return;
            }
            other if !other.starts_with('-') => names.push(other.to_string()),
            _ => usage(),
        }
    }
    let figures: Vec<Figure> = if names.is_empty() {
        figs::all()
    } else {
        names
            .iter()
            .map(|n| {
                figs::by_name(n).unwrap_or_else(|| {
                    eprintln!("unknown figure: {n} (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let fast = hovercraft_bench::fast();
    // With --stdout the figures own stdout; the driver's lines move aside.
    let say = |line: std::fmt::Arguments<'_>| {
        if to_stdout {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    let jobs = pool::default_jobs();
    let cores = pool::available_cores();
    say(format_args!(
        "== run_all_figs: {} figures, {jobs} workers on {cores} cores{} ==",
        figures.len(),
        if fast { ", HC_FAST=1" } else { "" }
    ));

    // Serial pass first (when requested) so the measured parallel pass
    // runs in an equally warm process — see the module docs.
    let mut serial: Option<(Vec<FigResult>, f64, u64)> = None;
    if compare_serial {
        say(format_args!(
            "-- serial pass (HC_JOBS=1 semantics) for byte-equality + speedup --"
        ));
        let t1 = Instant::now();
        let serial_outputs = run_suite(&figures, 1);
        let wall_ser = t1.elapsed().as_secs_f64();
        let digest_ser = suite_digest(&figures, &serial_outputs);
        say(format_args!(
            "serial wall-clock: {wall_ser:.2}s (digest {digest_ser:#018x})"
        ));
        serial = Some((serial_outputs, wall_ser, digest_ser));
    }

    let t0 = Instant::now();
    let outputs = run_suite(&figures, jobs);
    let wall_par = t0.elapsed().as_secs_f64();
    let digest_par = suite_digest(&figures, &outputs);

    if !to_stdout {
        std::fs::create_dir_all(&results_dir).expect("create results dir");
    }
    let mut failures: Vec<String> = Vec::new();
    for (f, out) in figures.iter().zip(&outputs) {
        let text = match out {
            Ok(s) => {
                say(format_args!("=== done {} ({} bytes) ===", f.name, s.len()));
                Cow::from(s)
            }
            Err(e) => {
                say(format_args!("=== FAILED {}: {e} ===", f.name));
                failures.push(f.name.to_string());
                Cow::from(format!("PANIC: {e}\n"))
            }
        };
        if to_stdout {
            print!("{text}");
        } else {
            std::fs::write(format!("{results_dir}/{}.txt", f.name), text.as_bytes())
                .expect("write figure output");
        }
    }
    say(format_args!(
        "suite wall-clock: {wall_par:.2}s with {jobs} workers (digest {digest_par:#018x})"
    ));

    if let Some((serial_outputs, wall_ser, digest_ser)) = &serial {
        for (f, (p, s)) in figures.iter().zip(outputs.iter().zip(serial_outputs)) {
            if p != s {
                failures.push(format!("{} (serial/parallel outputs differ)", f.name));
                say(format_args!(
                    "=== MISMATCH {}: serial and parallel outputs differ ===",
                    f.name
                ));
            }
        }
        say(format_args!(
            "serial {wall_ser:.2}s vs parallel {wall_par:.2}s — speedup {:.2}x",
            wall_ser / wall_par.max(1e-9)
        ));
        if *digest_ser != digest_par {
            failures.push("suite digest (serial vs parallel)".to_string());
        }
    }

    if let Some(path) = &bench_out {
        let mut pairs = vec![
            ("suite_jobs", jobs.to_string()),
            ("suite_cores", cores.to_string()),
            ("suite_figures", figures.len().to_string()),
            ("suite_fast", fast.to_string()),
            ("suite_wall_s_parallel", format!("{wall_par:.6}")),
            ("suite_output_digest", format!("\"{digest_par:#018x}\"")),
        ];
        if let Some((_, wall_ser, digest_ser)) = &serial {
            pairs.push(("suite_wall_s_serial", format!("{wall_ser:.6}")));
            pairs.push((
                "suite_output_digest_serial",
                format!("\"{digest_ser:#018x}\""),
            ));
        }
        let lines: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        std::fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n"))).expect("write bench json");
        say(format_args!("suite keys written to {path}"));
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    say(format_args!("ALL-FIGURES-DONE"));
}
