//! # tapioca-bench
//!
//! The harness that regenerates **every table and figure** of the
//! paper's evaluation (Sec. V). One binary per experiment:
//!
//! | binary | paper artifact | setup |
//! |---|---|---|
//! | `fig07` | Fig. 7 | IOR on 512 Mira nodes, baseline vs tuned, R/W |
//! | `fig08` | Fig. 8 | IOR on 512 Theta nodes, baseline vs tuned, R/W |
//! | `fig09` | Fig. 9 | microbenchmark, 1,024 Mira nodes, TAPIOCA vs MPI I/O |
//! | `fig10` | Fig. 10 | microbenchmark, 512 Theta nodes, TAPIOCA vs MPI I/O |
//! | `table1` | Table I | buffer:stripe ratio sweep on Theta |
//! | `fig11` | Fig. 11 | HACC-IO, 1,024 Mira nodes, AoS+SoA |
//! | `fig12` | Fig. 12 | HACC-IO, 4,096 Mira nodes, AoS+SoA |
//! | `fig13` | Fig. 13 | HACC-IO, 1,024 Theta nodes, AoS+SoA |
//! | `fig14` | Fig. 14 | HACC-IO, 2,048 Theta nodes, AoS+SoA |
//! | `ablation_pipeline` | — | double buffering on/off |
//! | `ablation_placement` | — | placement strategy comparison |
//! | `ablation_aggregators` | — | aggregator count sweep |
//!
//! Each binary prints CSV (one row per point, bandwidths in GiB/s) and a
//! `# SHAPE` footer stating the qualitative property the paper reports
//! and whether this run reproduces it. `EXPERIMENTS.md` records the
//! outcomes. Absolute numbers come from a simulator calibrated only with
//! the constants in `DESIGN.md`, so shapes — who wins, by what factor,
//! where gaps narrow — are the claim, not GB/s.

pub mod harness;
pub mod loc;

pub use harness::*;
