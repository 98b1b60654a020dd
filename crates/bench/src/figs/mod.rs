//! Figure renderers: each paper figure/table as a `fn(&Sweep) -> String`.
//!
//! Rendering into a `String` lets a parallel sweep merge per-job results
//! in input order and produce **byte-identical** reports to a serial run.
//! Each renderer flattens its experiment grid into one job list up front
//! (sequential phases only where a later grid genuinely depends on an
//! earlier measurement, e.g. the YCSB ladders), maps it under the
//! [`Sweep`](crate::sweep::Sweep) context, and formats afterwards.

pub mod ablation_bound;
pub mod ablation_loss;
pub mod ablation_mechanisms;
pub mod calibrate;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod ycsb_suite;

use crate::sweep::Figure;

/// Every figure/table of the suite, in the canonical run order (paper
/// figures first, then the extension suite and developer tools). The
/// order fixes the results layout and the suite output digest.
pub fn all() -> Vec<Figure> {
    vec![
        fig7::FIG,
        fig8::FIG,
        fig9::FIG,
        fig10::FIG,
        fig11::FIG,
        fig12::FIG,
        fig13::FIG,
        fig14::FIG,
        table1::FIG,
        ycsb_suite::FIG,
        ablation_bound::FIG,
        ablation_loss::FIG,
        ablation_mechanisms::FIG,
        calibrate::FIG,
    ]
}

/// Looks a figure up by its name.
pub fn by_name(name: &str) -> Option<Figure> {
    all().into_iter().find(|f| f.name == name)
}
