//! # tapioca-mpi
//!
//! An in-process MPI-like runtime: ranks are OS threads inside one
//! process, communicators provide the collectives TAPIOCA needs
//! (barrier, allgather, allreduce with MINLOC, sub-communicators, and
//! the all-to-all exchange of the two-phase baseline), one-sided **RMA
//! windows** provide `put` with post/start/complete/wait (and `fence`)
//! synchronisation, and **shared files** provide positioned writes with
//! bounded retry, blocking or non-blocking. There is no point-to-point messaging: nothing
//! TAPIOCA runs needs it.
//!
//! This is the substitute for the paper's MPI substrate (MPICH2 on Mira,
//! Cray MPI on Theta): the TAPIOCA algorithm — Algorithm 3's double
//! buffering, the MINLOC aggregator election — runs on these primitives,
//! with real threads racing through real memory, so ordering bugs are
//! observable instead of simulated away.
//!
//! ## Semantics guaranteed
//!
//! * [`comm::Comm::barrier`] is a reusable generation barrier; all
//!   memory writes made by a rank before the barrier are visible to every
//!   rank after it (arrivals ordered by a mutex, the generation published
//!   with release/acquire ordering).
//! * [`rma::Window::post`] / [`rma::Window::start`] /
//!   [`rma::Window::complete`] / [`rma::Window::wait`] are MPI's
//!   generalized active-target calls: every `put` an origin issued before
//!   its `complete` is visible to the target once the target's `wait`
//!   returns, and only the ranks named in the post's group take part.
//! * [`rma::Window::fence`] closes an RMA epoch for *all* members: all
//!   `put`s issued before the fence are visible to every member after it
//!   returns — MPI_Win_fence semantics.
//! * [`file::SharedFile::write_retrying`] is a positioned write on the
//!   calling thread that returns once durable in the page cache; an
//!   aggregator writes its rounds with it. [`file::SharedFile::iwrite_at`]
//!   is the non-blocking variant, served by an I/O thread the file
//!   starts on its first call; [`file::IoHandle::wait_reclaim`] blocks
//!   until that write is durable.
//!
//! ## What is deliberately simplified
//!
//! * Transport is shared memory, not a NIC: bandwidth/latency modelling
//!   lives in `tapioca-netsim`, not here. This runtime answers "is the
//!   algorithm correct", the simulator answers "how fast is it at scale".
//! * `put` serializes per target buffer with a lock. MPI makes
//!   overlapping concurrent puts undefined; TAPIOCA's schedule only
//!   issues disjoint puts, so a lock costs correctness nothing.

//! ## Schedule perturbation
//!
//! [`runtime::Runtime::run_perturbed`] runs the same SPMD closure under
//! a seeded [`perturb::Perturber`]: every synchronization boundary may
//! yield, spin, or briefly sleep, pushing the ranks through different
//! interleavings. Combined with event tracing and the `tapioca-check`
//! protocol checker, this is a lightweight schedule-exploration harness
//! ("loom-lite") for the pipeline's ordering invariants.

pub mod comm;
pub mod fault;
pub mod file;
pub mod perturb;
pub mod rma;
pub mod runtime;
pub mod sync;

pub use comm::Comm;
pub use fault::{FaultHint, FaultPlan, FaultSpec, IoError, IoPolicy};
pub use file::{IoHandle, SharedFile};
pub use perturb::Perturber;
pub use rma::{RoundTag, Window};
pub use runtime::Runtime;

/// Lock a mutex, recovering from poisoning.
///
/// A poisoned lock means another rank's thread panicked while holding
/// it. The state protected by these mutexes is plain data with no
/// partial invariants held across a panic point (slot vectors, channel
/// ends, notification flags), so the guard is recovered instead of
/// cascading the abort into every other rank — the panicking rank
/// already takes the run down through the runtime's join.
pub(crate) fn lock_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rank index within a communicator (0-based, dense).
pub type Rank = usize;
