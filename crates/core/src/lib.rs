//! # tapioca
//!
//! A Rust reproduction of **TAPIOCA** (Topology-Aware Parallel I/O:
//! Collective Algorithm) from Tessier, Vishwanath & Jeannot,
//! *"TAPIOCA: An I/O Library for Optimized Topology-Aware Data
//! Aggregation on Large-Scale Supercomputers"*, IEEE CLUSTER 2017.
//!
//! TAPIOCA is a two-phase collective I/O library: application processes
//! declare their upcoming writes (`TAPIOCA_Init`), the library splits the
//! file into contiguous **partitions**, elects one **aggregator** per
//! partition with a topology-aware cost model, and then streams data
//! through the aggregators in buffer-sized **rounds** — filling one
//! pipeline buffer with one-sided puts while the other is flushed to
//! storage with non-blocking writes.
//!
//! This crate contains the library itself plus two interchangeable
//! execution backends:
//!
//! * **thread mode** ([`api::Session`]) — runs the algorithm for real on
//!   the in-process runtime of `tapioca-mpi` (threads, RMA windows,
//!   files); used to verify correctness end to end;
//! * **simulation mode** ([`sim_exec`]) — executes the *same schedule and
//!   placement* against the flow-level simulator of `tapioca-netsim` at
//!   the paper's scale (1,024-4,096 nodes, 16-65K ranks), which is how
//!   every figure and table of the evaluation is regenerated.
//!
//! ## Quick start (thread mode)
//!
//! ```
//! use tapioca::prelude::*;
//! use tapioca_mpi::{Runtime, SharedFile};
//!
//! let dir = std::env::temp_dir().join("tapioca-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join(format!("quick-{}", std::process::id()));
//!
//! let n = 4;
//! let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 64, ..Default::default() };
//! Runtime::run(n, |comm| {
//!     let file = SharedFile::open_shared(&comm, &path);
//!     let rank = comm.rank() as u64;
//!     // every rank writes 32 bytes at rank * 32
//!     let mut io = Session::builder(&comm, file)
//!         .declarations(vec![WriteDecl { offset: rank * 32, len: 32 }])
//!         .config(cfg.clone())
//!         .build()
//!         .unwrap();
//!     io.write(rank * 32, &vec![rank as u8; 32]).unwrap();
//!     io.finalize();
//! });
//! let bytes = std::fs::read(&path).unwrap();
//! assert_eq!(bytes.len(), 128);
//! assert!(bytes[32..64].iter().all(|&b| b == 1));
//! ```

pub mod aggregation;
pub mod analyze;
pub mod api;
pub mod autotune;
pub mod config;
pub mod error;
pub mod placement;
pub mod plan;
pub mod schedule;
pub mod sim_exec;
pub mod stats;

pub use api::{Session, SessionBuilder, WriteOutcome};
pub use config::TapiocaConfig;
pub use error::{Result, TapiocaError};
pub use placement::PlacementStrategy;
pub use schedule::{compute_schedule, Schedule, ScheduleParams, WriteDecl};
// Fault-injection vocabulary, re-exported from the runtime crate so
// simulation-only users need not name `tapioca_mpi` directly.
pub use tapioca_mpi::{FaultPlan, FaultSpec, IoPolicy};

/// One-stop imports for session users: `use tapioca::prelude::*;`
/// brings in the builder-based session API, its declaration/config
/// vocabulary, and the error types.
pub mod prelude {
    pub use crate::aggregation::IoStats;
    pub use crate::api::{Session, SessionBuilder, WriteOutcome};
    pub use crate::config::{ConfigBuilder, TapiocaConfig};
    pub use crate::error::{Result, TapiocaError};
    pub use crate::placement::PlacementStrategy;
    pub use crate::schedule::WriteDecl;
}
