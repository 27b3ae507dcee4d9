//! # tapioca-netsim
//!
//! Flow-level discrete-event network/storage simulator.
//!
//! The TAPIOCA paper evaluates on 1,024-4,096 node allocations of Mira
//! and Theta — hardware we do not have. This crate provides the
//! substitute: a *flow-level* simulator in which every data transfer is a
//! flow over a route of directed links, and concurrent flows share link
//! capacity by **progressive max-min fairness** (waterfilling). Between
//! flow arrivals and completions the rate allocation is constant, so the
//! simulation advances event-by-event with exact arithmetic on flow
//! remainders.
//!
//! Flow-level simulation is the standard fidelity/speed compromise for
//! studying *relative* bandwidths of communication schedules: it captures
//! link contention, bottleneck shifts and pipelining overlap, while
//! abstracting packets and routing dynamics. This matches the paper's
//! claims we need to reproduce (who wins, by what factor, where the
//! crossovers are) rather than absolute GB/s.
//!
//! Entry point: [`Simulator`]. The driver in `tapioca::sim_exec` submits
//! aggregation-phase flows (rank -> aggregator) and I/O-phase flows
//! (aggregator -> storage) gated on dependencies derived from TAPIOCA's
//! fence semantics, and reads back completion times.

mod components;
pub mod engine;
pub mod fairshare;

pub use engine::{FlowId, FlowStatus, Simulator};
pub use fairshare::{max_min_rates, FlowDemand};

/// Simulated time, in seconds since simulation start.
pub type SimTime = f64;

/// Comparison slack for simulated times (1 picosecond).
pub const TIME_EPS: f64 = 1e-12;

/// Bytes remaining below which a flow is considered complete.
///
/// Completion events are computed as `remaining / rate`, so floating
/// point dust accumulates at roughly one ulp of the byte count per event
/// — well under 1e-3 bytes even for multi-GiB flows over thousands of
/// events. Anything below this threshold is zero.
pub const BYTE_EPS: f64 = 1e-3;

// Compile-time sanity: the epsilons must stay far below the scales they
// guard (event times in seconds, flow sizes in bytes).
const _: () = {
    assert!(TIME_EPS < 1e-9);
    assert!(BYTE_EPS < 1.0);
};
