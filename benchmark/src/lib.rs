//! # hcbench — the repository's benchmark
//!
//! Measures what a client of the replicated µs-scale service sees
//! (virtual time: the rate sustained under the 500 µs p99 SLO, latency at
//! a fixed rate, failures) and what this implementation costs per
//! simulated request (host time), on four workloads; and, in a separate
//! traced run, where that cost sits layer by layer. `README.md` holds the
//! metric glossary, the reason for each workload and how the layers are
//! expected to move the end-to-end numbers.
//!
//! Everything is measured from outside the crates, through their public
//! APIs: [`assembly`] rebuilds the deployment of `testbed::Cluster::build`
//! with span-recording wrappers, and an equivalence guard fails the run if
//! the wrapped world ever behaves differently from the plain one.

#![warn(missing_docs)]

pub mod assembly;
pub mod drivers;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workloads;
