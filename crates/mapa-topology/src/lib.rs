//! Multi-accelerator server topologies for MAPA.
//!
//! This crate is the hardware substrate of the reproduction: it encodes the
//! machines the paper evaluates (Fig. 1: Summit, DGX-1 P100, DGX-1 V100;
//! Fig. 17: Torus-2d and Cube-mesh 16-GPU designs) as link-labelled graphs, the
//! per-link peak bandwidths of Table 1, PCIe/NUMA socket domains used by the
//! Topo-aware baseline, the `nvidia-smi topo -m` matrix format as the
//! machine-readable entry point, and the mutable allocation state a
//! multi-tenant scheduler operates on.
//!
//! The central invariant, from §3.2 of the paper: *the hardware graph is
//! complete* — every GPU pair is labeled with the highest-bandwidth link
//! available between them, falling back to PCIe (12 GB/s) because a routed
//! path through the host always exists.
//!
//! # Example
//!
//! ```
//! use mapa_topology::{machines, LinkType};
//!
//! let dgx = machines::dgx1_v100();
//! assert_eq!(dgx.gpu_count(), 8);
//! // The paper's §2.2 worked example: allocation {GPU1, GPU2, GPU5}
//! // (1-indexed) spans one single NVLink, one double NVLink and one PCIe
//! // hop for an aggregated bandwidth of 87 GB/s.
//! assert_eq!(dgx.link_type(0, 1), LinkType::SingleNvLink2);
//! assert_eq!(dgx.link_type(0, 4), LinkType::DoubleNvLink2);
//! assert_eq!(dgx.link_type(1, 4), LinkType::Pcie);
//! let bw: f64 = [(0, 1), (0, 4), (1, 4)]
//!     .iter()
//!     .map(|&(a, b)| dgx.bandwidth(a, b))
//!     .sum();
//! assert_eq!(bw, 87.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fnv;
mod link;
pub mod machines;
pub mod parse;
mod state;
mod topology;
pub mod virt;

pub use fnv::{Fnv1a, WordHasher, WordMap};
pub use link::{LinkMix, LinkType};
pub use mapa_graph::BitSet;
pub use state::{AllocationError, HardwareState, JobId};
pub use topology::Topology;
pub use virt::{PartitionPlan, SliceBandwidth, SliceMap};
