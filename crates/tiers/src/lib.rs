//! # tapioca-tiers
//!
//! The paper's Sec. VI future work, implemented: *"We now plan to extend
//! this library to one-to-many data movements from one level of memory
//! hierarchy to another. For instance, one possibility is a method that
//! efficiently aggregates data from the DRAM on the MCDRAM on KNL in
//! order to move it to burst buffers in an optimized manner."*
//!
//! This crate extends the TAPIOCA model with a **memory/storage tier
//! hierarchy** on the Theta-style KNL nodes of the base library:
//!
//! * [`Tier`] — DRAM (192 GB, ~90 GB/s), MCDRAM (16 GB, ~400 GB/s,
//!   "high-bandwidth memory ... up to 400 GBps" per the paper's Sec.
//!   V-A2), node-local SSD burst buffer (128 GB, NVMe-class), and the
//!   global Lustre parallel filesystem;
//! * [`TieredConfig`] — where aggregation buffers live (DRAM vs MCDRAM)
//!   and where flushes land (directly on the PFS, or on the node-local
//!   burst buffer with an asynchronous drain to the PFS);
//! * [`sim::run_tiered_sim`] — the simulation executor: it lowers the
//!   plan of a `tapioca` `SimSession` (the same schedule, election and
//!   round DAG as the base executor) with per-(node, tier) service
//!   stations added to the flow simulator. For burst-buffer
//!   runs it reports both **time-to-safe** (all data on node-local
//!   flash; the application can resume computing) and **time-to-PFS**
//!   (the drain has finished).
//!
//! The headline behaviour, checked by `ablation_burst_buffer` in
//! `tapioca-bench`: burst-buffer staging collapses the *perceived*
//! checkpoint time by an order of magnitude while the end-to-end drain
//! time stays bounded by the same PFS service the direct write pays.

pub mod sim;
pub mod tier;

pub use sim::{run_tiered_sim, TieredReport};
pub use tier::{Destination, Tier, TierSpec, TieredConfig};
