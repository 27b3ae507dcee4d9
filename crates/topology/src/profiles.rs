//! Machine profiles for the two platforms of the paper's evaluation.
//!
//! All constants come from the paper (Sec. V-A, Figs. 4-6) or are
//! calibration anchors taken from the paper's own measured ceilings:
//!
//! * **Mira** (IBM BG/Q): 5D torus, 1.8 GB/s links, 16 PowerPC A2 cores
//!   per node, Psets of 128 nodes with 2 bridge nodes at 1.8 GB/s each to
//!   an I/O node, GPFS. Estimated peak 89.6 GB/s on 4,096 nodes
//!   (Sec. V-D1) => 2.8 GB/s effective per Pset of 128 nodes.
//! * **Theta** (Cray XC40): dragonfly of 9 groups x 96 Aries routers
//!   (16 x 6 all-to-all) x 4 KNL nodes; 14 GB/s electrical, 12.5 GB/s
//!   optical links; Lustre with 56 OSTs/OSSs behind LNET service nodes of
//!   unknown placement. Per-OST service anchors of 0.75 GB/s write and
//!   1.5 GB/s read put the tuned 48-OST raw ceilings at 36 / 72 GB/s;
//!   the paper's measured tuned-IOR ceilings (~10 GB/s write, ~36 GB/s
//!   read, Fig. 8) then emerge from MPI-IO's own unaligned-file-domain
//!   penalties rather than being baked into the disks.

use crate::dragonfly::{Dragonfly, DragonflyParams};
use crate::provider::{Fabric, Machine};
use crate::torus::{bgq_dims_for_nodes, PsetConfig, Torus};
use crate::GIB;

/// The two platforms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// IBM Blue Gene/Q "Mira" + GPFS.
    MiraBgq,
    /// Cray XC40 "Theta" + Lustre.
    ThetaXc40,
    /// Commodity fat-tree cluster + Lustre (portability target; not in
    /// the paper).
    GenericCluster,
}

/// Storage-side constants consumed by `tapioca-pfs` when building the
/// filesystem model for a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageProfile {
    /// GPFS behind BG/Q I/O nodes.
    Gpfs {
        /// Capacity of the ION link towards the SAN, bytes/s (4 GB/s).
        ion_link_bw: f64,
        /// Effective service bandwidth of the GPFS backend per ION,
        /// bytes/s (2.8 GB/s: 89.6 GB/s across 32 Psets).
        ion_service_bw: f64,
    },
    /// Lustre behind LNET service nodes.
    Lustre {
        /// Number of object storage targets on the machine (56 on Theta).
        total_osts: usize,
        /// Per-OST write service bandwidth anchor, bytes/s.
        ost_write_bw: f64,
        /// Per-OST read service bandwidth anchor, bytes/s.
        ost_read_bw: f64,
        /// Aggregate LNET forwarding bandwidth, bytes/s (7 LNET nodes per
        /// OSS over FDR InfiniBand; effectively not the bottleneck).
        lnet_bw: f64,
    },
}

/// Number of LNET gateway nodes modelled on a Lustre machine.
const LNET_GATEWAYS: usize = 8;

/// The fabric nodes hosting a Lustre machine's LNET gateways:
/// `LNET_GATEWAYS` (8) of them, fewer on a smaller machine, spread evenly
/// over `num_nodes`. Their real mapping on Theta is irregular and
/// undocumented; what matters is that the placement cost model cannot
/// see them while the simulator still routes through them.
pub fn lnet_gateway_nodes(num_nodes: usize) -> Vec<crate::NodeId> {
    let g = LNET_GATEWAYS.min(num_nodes);
    (0..g).map(|i| (i * num_nodes) / g + num_nodes / (2 * g)).collect()
}

/// A fully-specified machine: fabric + rank mapping + storage constants.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    /// Which platform this is.
    pub platform: Platform,
    /// Human-readable name for harness output.
    pub name: &'static str,
    /// The machine (fabric + rank mapping).
    pub machine: Machine,
    /// Storage-side constants.
    pub storage: StorageProfile,
}

/// Per-hop latency on the BG/Q torus, seconds.
pub const MIRA_HOP_LATENCY: f64 = 600e-9;
/// Per-hop latency on the Aries dragonfly, seconds.
pub const THETA_HOP_LATENCY: f64 = 400e-9;
/// BG/Q torus link bandwidth (paper: 1.8 GB/s theoretical).
pub const MIRA_LINK_BW: f64 = 1.8 * GIB as f64;
/// BG/Q bridge-node to I/O-node link bandwidth.
pub const MIRA_BRIDGE_BW: f64 = 1.8 * GIB as f64;
/// XC40 electrical link bandwidth (paper: 14 GB/s).
pub const THETA_ELECTRICAL_BW: f64 = 14.0 * GIB as f64;
/// XC40 optical bandwidth between a group pair, aggregate (several
/// 12.5 GB/s links; 4 modelled).
pub const THETA_OPTICAL_BW: f64 = 4.0 * 12.5 * GIB as f64;
/// KNL node injection bandwidth into its Aries router.
pub const THETA_INJECTION_BW: f64 = 14.0 * GIB as f64;

/// Build the Mira profile for a node count (must be a multiple of 128
/// with a known BG/Q shape: 512, 1024, 2048, 4096, ...).
///
/// # Panics
/// Panics if `nodes` has no BG/Q torus shape (see
/// [`crate::torus::bgq_dims_for_nodes`]).
pub fn mira_profile(nodes: usize, ranks_per_node: usize) -> MachineProfile {
    let dims = bgq_dims_for_nodes(nodes)
        .unwrap_or_else(|| panic!("no BG/Q torus shape for {nodes} nodes"));
    let torus = Torus::new(&dims, MIRA_LINK_BW, MIRA_HOP_LATENCY).with_psets(PsetConfig {
        nodes_per_pset: 128,
        bridge_nodes: 2,
        bridge_link_bw: MIRA_BRIDGE_BW,
    });
    MachineProfile {
        platform: Platform::MiraBgq,
        name: "Mira (IBM BG/Q + GPFS)",
        machine: Machine::new(Fabric::Torus(torus), ranks_per_node, 28.0 * GIB as f64),
        storage: StorageProfile::Gpfs {
            ion_link_bw: 4.0 * GIB as f64,
            ion_service_bw: 2.8 * GIB as f64,
        },
    }
}

/// Build the Theta profile for a node count.
///
/// The dragonfly shape is scaled down from the full machine (9 groups x
/// 96 routers x 4 nodes = 3,456 nodes) by filling whole groups first:
/// the smallest full-group configuration holding `nodes` is used, so
/// routing diversity matches a real allocation.
///
/// # Panics
/// Panics if `nodes` is not a multiple of 4 (nodes per router) or exceeds
/// the full machine.
pub fn theta_profile(nodes: usize, ranks_per_node: usize) -> MachineProfile {
    assert!(nodes.is_multiple_of(4), "Theta allocations are whole routers (4 nodes)");
    assert!(nodes <= 9 * 96 * 4, "Theta has 3,456 nodes");
    let routers = nodes / 4;
    // Fill whole groups of 96 routers (16 x 6); shrink the last partial
    // group by rows to stay rectangular.
    let groups = routers.div_ceil(96).max(2); // >= 2 groups keeps optical links in play
    let per_group = routers.div_ceil(groups);
    let cols = 16usize.min(per_group);
    let rows = per_group.div_ceil(cols).max(1);
    let fly = Dragonfly::new(DragonflyParams {
        groups,
        cols,
        rows,
        nodes_per_router: 4,
        injection_bw: THETA_INJECTION_BW,
        electrical_bw: THETA_ELECTRICAL_BW,
        optical_bw: THETA_OPTICAL_BW,
        hop_latency: THETA_HOP_LATENCY,
    });
    MachineProfile {
        platform: Platform::ThetaXc40,
        name: "Theta (Cray XC40 + Lustre)",
        machine: Machine::new(Fabric::Dragonfly(fly), ranks_per_node, 90.0 * GIB as f64),
        storage: StorageProfile::Lustre {
            total_osts: 56,
            ost_write_bw: 0.75 * GIB as f64,
            ost_read_bw: 1.5 * GIB as f64,
            lnet_bw: 56.0 * GIB as f64,
        },
    }
}

/// Build a generic commodity-cluster profile: a two-level fat-tree of
/// 32-node leaves with EDR-class links and a Lustre-style parallel
/// filesystem — a machine the paper never saw, for portability checks.
///
/// # Panics
/// Panics if `nodes` is not a multiple of 32.
pub fn cluster_profile(nodes: usize, ranks_per_node: usize) -> MachineProfile {
    use crate::fattree::{FatTree, FatTreeParams};
    assert!(nodes.is_multiple_of(32), "cluster leaves hold 32 nodes");
    let leaves = nodes / 32;
    let fat = FatTree::new(FatTreeParams {
        leaves,
        nodes_per_leaf: 32,
        spines: (leaves / 2).max(1),
        edge_bw: 12.0 * GIB as f64,
        uplink_bw: 24.0 * GIB as f64,
        hop_latency: 500e-9,
    });
    MachineProfile {
        platform: Platform::GenericCluster,
        name: "Generic cluster (fat-tree + Lustre)",
        machine: Machine::new(Fabric::FatTree(fat), ranks_per_node, 50.0 * GIB as f64),
        storage: StorageProfile::Lustre {
            total_osts: 32,
            ost_write_bw: 1.0 * GIB as f64,
            ost_read_bw: 2.0 * GIB as f64,
            lnet_bw: 40.0 * GIB as f64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::TopologyProvider;

    #[test]
    fn mira_512_matches_paper_setup() {
        let p = mira_profile(512, 16);
        assert_eq!(p.platform, Platform::MiraBgq);
        assert_eq!(p.machine.num_ranks(), 8192);
        let t = p.machine.fabric().as_torus().unwrap();
        assert_eq!(t.num_psets(), 4);
        assert_eq!(t.pset_config().unwrap().bridge_nodes, 2);
    }

    #[test]
    fn mira_4096_has_32_psets() {
        let p = mira_profile(4096, 16);
        let t = p.machine.fabric().as_torus().unwrap();
        assert_eq!(t.num_psets(), 32);
    }

    #[test]
    fn theta_512_covers_nodes() {
        let p = theta_profile(512, 16);
        assert!(p.machine.num_nodes() >= 512);
        assert_eq!(p.platform, Platform::ThetaXc40);
        let d = p.machine.fabric().as_dragonfly().unwrap();
        assert!(d.params().groups >= 2);
    }

    #[test]
    fn theta_full_machine() {
        let p = theta_profile(3456, 16);
        assert_eq!(p.machine.num_nodes(), 3456);
        let d = p.machine.fabric().as_dragonfly().unwrap();
        assert_eq!(d.params().groups, 9);
        assert_eq!(d.routers_per_group(), 96);
    }

    #[test]
    fn theta_io_is_opaque() {
        let p = theta_profile(128, 16);
        assert_eq!(p.machine.distance_to_io_node(0, 0), None);
    }

    #[test]
    #[should_panic(expected = "no BG/Q torus shape")]
    fn mira_rejects_odd_node_counts() {
        mira_profile(300, 16);
    }

    #[test]
    fn cluster_profile_is_fat_tree_with_known_io_distance() {
        let p = cluster_profile(128, 8);
        assert_eq!(p.platform, Platform::GenericCluster);
        assert_eq!(p.machine.num_nodes(), 128);
        assert!(p.machine.fabric().as_fattree().is_some());
        // unlike Theta, the cluster knows its storage distance: C2 active
        assert_eq!(p.machine.distance_to_io_node(0, 0), Some(4));
        assert!(p.machine.bandwidth_to_io_node(0, 0).is_some());
        assert_eq!(p.machine.rank_to_coordinates(9), vec![0, 1]);
        assert_eq!(p.machine.distance_between_ranks(0, 8 * 33), 4);
        assert_eq!(p.machine.distance_between_ranks(0, 8), 2);
    }
}
