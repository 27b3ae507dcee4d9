//! Static aggregation-plan analysis.
//!
//! TAPIOCA's schedule is fully determined by `(TapiocaConfig,
//! topology, decomposition)`, so every safety property the dynamic
//! checker (`tapioca-check`) verifies after a run can be proven before
//! one: [`derive_symbolic`] expands the shared group plan into the
//! complete predicted event structure, and [`analyze`] runs the pass
//! catalogue over it, returning typed [`StaticViolation`]s with
//! witnesses. The conformance bridge in `tapioca-check::static_`
//! closes the loop by asserting every dynamic trace is a linearization
//! of this symbolic schedule.

pub mod passes;
pub mod symbolic;

pub use passes::{
    analyze, analyze_with_capacity, screen_candidate, StaticViolation,
};
pub use symbolic::{
    derive_symbolic, SymbolicCrash, SymbolicFlush, SymbolicGroup, SymbolicPartition,
    SymbolicPut, SymbolicRound, SymbolicSchedule, SymbolicSync, SyncKind,
};
