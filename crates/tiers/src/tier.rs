//! Tier definitions and per-node constants for KNL-class nodes.

use tapioca_topology::GIB;

/// A level of the memory/storage hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Node DDR4 (192 GB on Theta's KNL nodes).
    Dram,
    /// On-package high-bandwidth memory (16 GB, "up to 400 GBps").
    Mcdram,
    /// Node-local SSD burst buffer (128 GB on Theta).
    NodeLocalSsd,
    /// The global parallel filesystem (Lustre).
    Pfs,
}

/// Bandwidth/capacity characteristics of a tier on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Which tier this describes.
    pub tier: Tier,
    /// Write bandwidth into the tier, bytes/s per node.
    pub write_bw: f64,
    /// Read bandwidth out of the tier, bytes/s per node.
    pub read_bw: f64,
    /// Capacity per node, bytes (`u64::MAX` for the PFS).
    pub capacity: u64,
    /// Whether the tier is private to a node (true for all but the PFS).
    pub node_local: bool,
}

impl TierSpec {
    /// Theta-like KNL defaults for a tier.
    ///
    /// DRAM and MCDRAM numbers follow the paper's hardware description;
    /// the SSD is modelled as 2017 NVMe-class flash (the paper states
    /// only its 128 GB capacity).
    pub fn knl_default(tier: Tier) -> TierSpec {
        match tier {
            Tier::Dram => TierSpec {
                tier,
                write_bw: 90.0 * GIB as f64,
                read_bw: 90.0 * GIB as f64,
                capacity: 192 * GIB,
                node_local: true,
            },
            Tier::Mcdram => TierSpec {
                tier,
                write_bw: 400.0 * GIB as f64,
                read_bw: 400.0 * GIB as f64,
                capacity: 16 * GIB,
                node_local: true,
            },
            Tier::NodeLocalSsd => TierSpec {
                tier,
                write_bw: 2.0 * GIB as f64,
                read_bw: 4.0 * GIB as f64,
                capacity: 128 * GIB,
                node_local: true,
            },
            Tier::Pfs => TierSpec {
                tier,
                write_bw: f64::INFINITY, // modelled by the Lustre stations
                read_bw: f64::INFINITY,
                capacity: u64::MAX,
                node_local: false,
            },
        }
    }
}

/// Where aggregated data lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// Flush straight to the parallel filesystem (the base library).
    DirectPfs,
    /// Stage on the aggregator's node-local burst buffer, then drain to
    /// the PFS asynchronously (the future-work one-to-many movement).
    BurstBufferThenDrain,
}

/// Tier-aware configuration layered on top of `TapiocaConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieredConfig {
    /// Tier hosting the aggregation pipeline buffers.
    pub buffer_tier: Tier,
    /// Flush destination.
    pub destination: Destination,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self { buffer_tier: Tier::Dram, destination: Destination::DirectPfs }
    }
}

impl TieredConfig {
    /// The paper's motivating configuration: MCDRAM aggregation buffers
    /// drained through the burst buffer.
    pub fn mcdram_burst_buffer() -> Self {
        Self { buffer_tier: Tier::Mcdram, destination: Destination::BurstBufferThenDrain }
    }

    /// Validate tier roles.
    ///
    /// # Errors
    /// A message if the buffer tier is not node-local addressable memory.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.buffer_tier, Tier::Dram | Tier::Mcdram) {
            return Err("aggregation buffers must live in addressable memory".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_constants_match_paper_hardware() {
        let dram = TierSpec::knl_default(Tier::Dram);
        assert_eq!(dram.capacity, 192 * GIB);
        let mcdram = TierSpec::knl_default(Tier::Mcdram);
        assert_eq!(mcdram.capacity, 16 * GIB);
        assert_eq!(mcdram.write_bw, 400.0 * GIB as f64);
        let ssd = TierSpec::knl_default(Tier::NodeLocalSsd);
        assert_eq!(ssd.capacity, 128 * GIB);
        assert!(ssd.node_local);
        assert!(!TierSpec::knl_default(Tier::Pfs).node_local);
    }

    #[test]
    fn mcdram_is_faster_than_dram() {
        assert!(
            TierSpec::knl_default(Tier::Mcdram).write_bw
                > TierSpec::knl_default(Tier::Dram).write_bw
        );
    }

    #[test]
    fn ssd_cannot_host_buffers() {
        let ssd = TieredConfig { buffer_tier: Tier::NodeLocalSsd, ..TieredConfig::default() };
        let err = ssd.validate().unwrap_err();
        assert!(err.contains("addressable memory"), "{err}");
    }

    #[test]
    fn default_matches_base_library() {
        let d = TieredConfig::default();
        assert_eq!(d.buffer_tier, Tier::Dram);
        assert_eq!(d.destination, Destination::DirectPfs);
    }
}
