//! # workload — synthetic-service and YCSB workload generators
//!
//! Everything §7 of the HovercRaft paper throws at the system:
//!
//! * the **synthetic service** ([`SynthService`], [`SynthSpec`]) with
//!   configurable service time, request size, reply size, and read-only
//!   fraction — used by every microbenchmark (Figures 7–12);
//! * **service-time distributions** ([`ServiceDist`]): fixed, bimodal
//!   (10 % of requests 10× longer, Figure 11), exponential;
//! * **YCSB** ([`YcsbGen`]): the Cooper et al. cloud-serving benchmark,
//!   with workload **E** (95 % SCAN / 5 % INSERT over 1 kB records,
//!   threaded conversations) as the §7.5 headline plus A–D for ablations;
//! * the **zipfian** generators YCSB is built on ([`Zipfian`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dist;
mod synth;
mod ycsb;
mod zipf;

pub use dist::ServiceDist;
pub use synth::{decode_request, encode_request, SynthService, SynthSpec, SYNTH_MIN_BODY};
pub use ycsb::{key_of, RecordSpec, YcsbGen, YcsbOp, YcsbWorkload};
pub use zipf::{fnv_scramble, Zipfian};
