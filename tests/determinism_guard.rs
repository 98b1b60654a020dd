//! Determinism guard: pinned trace digests for fixed chaos-corpus seeds.
//!
//! The simulator's contract is that a run is a pure function of
//! `(topology, params, seed)`. The performance work on the engine hot path
//! (lazy tracing, arena scheduling, hashed-map swaps) is only sound if it
//! preserves that function *bit-exactly* — same events, same order, same
//! timestamps. This test pins the FNV-1a digest of the full structured
//! trace stream (plus raw volume counters) for a subset of the chaos
//! corpus, captured before the optimizations landed. Any engine change
//! that reorders, drops, or retimestamps even one protocol event flips a
//! digest and fails here.
//!
//! If a digest changes because of an *intentional* protocol change (not an
//! optimization), re-pin by pasting the `got` rows the failure message
//! prints over the matching rows of `PINNED` — and say why in the commit
//! message.

use simnet::SimDur;
use testbed::chaos::{self, Case, Family};
use testbed::DigestReport;

/// The digest report of case `plain:<seed>`.
fn plain(seed: u64) -> DigestReport {
    chaos::run(Case::new(Family::Plain, seed)).digest
}

/// (seed, digest, digested events, total recorded, engine events).
///
/// Captured on the deterministic-hash engine; every later engine change
/// must reproduce every value. (The pre-optimization engine could not pin
/// seeds 91/47571 at all: recovery paths iterated std `HashMap`s whose
/// per-process `RandomState` reordered retransmissions, so those digests
/// differed from process to process. The fixed-seed hasher swap makes the
/// whole corpus pinnable.) Seeds are drawn from `tests/chaos_corpus.txt`:
/// 1 exercises partition + restart + re-partition, 91 a minority-isolated
/// leader with a large catch-up backlog, 47571 back-to-back restarts with
/// a trace-ring-evicting re-execution burst. 777 is not in the corpus: it
/// is the seed whose digest was first pinned against the engine's original
/// binary-heap queue. All four rows were re-pinned when the leader began
/// shipping new entries once per RX batch (a protocol change).
const PINNED: &[(u64, DigestReport)] = &[
    (
        1,
        DigestReport {
            digest: 0x091c9d9926d16358,
            events: 293251,
            total_recorded: 293251,
            sim_events: 620463,
        },
    ),
    (
        91,
        DigestReport {
            digest: 0x30fe305d7ba40e5d,
            events: 281376,
            total_recorded: 281376,
            sim_events: 611559,
        },
    ),
    // Seed 47571's restart burst evicts ~1.5k events between 1 ms harvest
    // ticks, so `events < total_recorded` here — itself a pinned property.
    (
        47571,
        DigestReport {
            digest: 0x8fb44162600405aa,
            events: 328311,
            total_recorded: 329767,
            sim_events: 693673,
        },
    ),
    (
        777,
        DigestReport {
            digest: 0xc3613134f81dd34f,
            events: 278612,
            total_recorded: 278612,
            sim_events: 601457,
        },
    ),
];

/// One `PINNED` row as Rust source, ready to paste.
fn row(seed: u64, r: &DigestReport) -> String {
    format!(
        "    ({seed}, DigestReport {{ digest: {:#018x}, events: {}, total_recorded: {}, \
         sim_events: {} }}),",
        r.digest, r.events, r.total_recorded, r.sim_events
    )
}

#[test]
fn chaos_corpus_digests_are_pinned() {
    let mismatches: Vec<String> = PINNED
        .iter()
        .filter_map(|&(seed, expected)| {
            let got = plain(seed);
            (got != expected).then(|| {
                format!(
                    "seed {seed}:\n  expected\n{}\n  got\n{}",
                    row(seed, &expected),
                    row(seed, &got)
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "trace digests diverged from pinned baseline — the engine is no longer \
         bit-exact for these seeds:\n{}",
        mismatches.join("\n")
    );
}

/// The digest must be identical when harvested at a different cadence:
/// the fingerprint is a property of the run, not of the observer. Case
/// `plain:7` is harvested every 1 ms and every 5 ms; its ring evicts
/// nothing even at 5 ms, so both harvests see every event.
#[test]
fn digest_is_observer_independent() {
    let r = chaos::replay(Case::new(Family::Plain, 7), SimDur::millis(5));
    assert_eq!(
        r.digest.events, r.digest.total_recorded,
        "plain:7 evicted events between harvests; pick a quieter seed"
    );
}

/// Running the same seeds inline and on 1, 4, and 8 workers must produce
/// identical digest reports (digests *and* event counts): each job is a
/// self-contained single-threaded simulation, so the scheduler that
/// carried it must be unobservable in its output. This is the contract
/// the parallel figure suite and chaos sweeps rest on.
///
/// `with_workers` spawns the count it is given (the cap at cores belongs
/// to `pool::default_jobs`), so on a small machine the 4- and 8-worker
/// rows oversubscribe on purpose — maximum cross-thread interleaving
/// pressure, every worker count a genuinely different schedule.
#[test]
fn pool_execution_is_digest_invariant() {
    let seeds: Vec<u64> = PINNED.iter().map(|&(seed, _)| seed).collect();
    let inline: Vec<DigestReport> = seeds.iter().map(|&s| plain(s)).collect();
    for workers in [1usize, 4, 8] {
        let on_pool = pool::with_workers(workers, |w| w.map(seeds.clone(), plain));
        assert_eq!(
            inline, on_pool,
            "{workers}-worker pool changed a digest report — scheduling leaked \
             into simulation output"
        );
    }
}

/// Trace sequence numbers must be a stable, dense property of the run
/// itself — never of the lock, the buffering, or which thread drove the
/// world. Guards the tracer's internal locking against changes that
/// would reorder or re-number events (the digest tests above would
/// catch a reorder too, but this pins the *mechanism*: dense monotone
/// seqs under eviction, identical streams across threads, and correct
/// seq accounting when clones interleave appends).
#[test]
fn trace_sequences_are_stable_and_dense() {
    use simnet::{SimTime, Tracer};

    fn record(t: &Tracer, node: u32, kind: &'static str, key: u64) {
        fn none(_: &mut std::fmt::Formatter<'_>, _: u64, _: u64, _: u64) -> std::fmt::Result {
            Ok(())
        }
        t.record_lazy(SimTime::ZERO, node, kind, key, none, 0, 0, 0);
    }

    // Same recording pattern on different threads -> identical streams.
    let record_world = || {
        let t = Tracer::new(64);
        for i in 0..200u64 {
            record(&t, (i % 5) as u32, "ev", i);
        }
        let mut stream = Vec::new();
        t.for_each_since(0, |e| stream.push((e.seq, e.kind, e.key)));
        stream
    };
    let on_main = record_world();
    let on_worker = std::thread::spawn(record_world).join().unwrap();
    assert_eq!(
        on_main, on_worker,
        "recording thread leaked into the stream"
    );

    // Eviction keeps seqs dense and monotone: a 64-cap ring after 200
    // appends holds exactly seqs 136..=199.
    let seqs: Vec<u64> = on_main.iter().map(|&(s, _, _)| s).collect();
    assert_eq!(seqs.first(), Some(&136));
    assert_eq!(seqs.last(), Some(&199));
    for w in seqs.windows(2) {
        assert_eq!(w[1], w[0] + 1, "sequence gap inside the ring");
    }

    // Clones interleaving appends share one dense seq space, and an
    // incremental cursor over `for_each_since` sees each event once.
    let t = Tracer::new(1024);
    let t2 = t.clone();
    for i in 0..50u64 {
        if i % 2 == 0 {
            record(&t, 0, "a", i);
        } else {
            record(&t2, 1, "b", i);
        }
    }
    assert_eq!(t.total_recorded(), 50);
    let mut cursor = 0u64;
    let mut seen = Vec::new();
    while cursor < t.total_recorded() {
        t.for_each_since(cursor, |e| {
            if e.seq >= cursor {
                seen.push(e.seq);
            }
        });
        cursor = seen.last().map_or(0, |s| s + 1);
    }
    assert_eq!(seen, (0..50).collect::<Vec<u64>>());
}
