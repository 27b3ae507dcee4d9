//! Static aggregation-plan analysis.
//!
//! TAPIOCA's schedule is fully determined by `(TapiocaConfig,
//! topology, decomposition)`, so the user mistakes a config and a
//! declaration set can carry show before any executor runs:
//! [`derive_symbolic`] expands the shared group plan into the complete
//! predicted event structure, and [`analyze`] checks it for
//! overlapping writes, unreachable faults and a double buffer over the
//! tier capacity, returning typed [`StaticViolation`]s with witnesses.
//! The conformance bridge in `tapioca-check::static_` closes the loop
//! by asserting every dynamic trace is a linearization of this
//! symbolic schedule.

pub mod passes;
pub mod symbolic;

pub use passes::{analyze, check_capacity, StaticViolation};
pub use symbolic::{
    derive_symbolic, SymbolicCrash, SymbolicFlush, SymbolicGroup, SymbolicPartition,
    SymbolicPut, SymbolicRound, SymbolicSchedule, SymbolicSync, SyncKind,
};
