//! Interconnect simulation — MAPA's substitute for running NCCL on a DGX.
//!
//! The paper measures *Effective Bandwidth* (EffBW) — "the peak achievable
//! bandwidth for a given allocation" — by running the NCCL all-reduce
//! microbenchmark on real hardware (§3.4.1). This crate reproduces that
//! measurement in simulation:
//!
//! * [`rings`] — NCCL-style ring construction: the NVLink bricks of an
//!   allocation form a multigraph, and the simulator packs edge-disjoint
//!   Hamiltonian rings, each bottlenecked by its slowest link;
//! * [`allreduce`] — ring and tree all-reduce time models with NCCL's
//!   size-based algorithm choice, an α–β (latency–bandwidth) cost per step
//!   so the size–bandwidth ramp matches the paper's Fig. 2a (links
//!   saturate only above ~10⁵–10⁶-byte transfers);
//! * [`effbw`] — the public "microbenchmark": effective bandwidth of a GPU
//!   allocation at a given (or saturating) transfer size.
//!
//! The single property MAPA depends on (per Fig. 11b of the paper): EffBW is
//! a *non-linear* function of the allocation's link mix `(x, y, z)` — not of
//! its aggregated bandwidth. The ring-packing model produces exactly that
//! behaviour: one PCIe hop in an otherwise fast ring caps the whole ring at
//! 12 GB/s.
//!
//! # Example
//!
//! ```
//! use mapa_topology::machines;
//! use mapa_interconnect::effbw;
//!
//! let dgx = machines::dgx1_v100();
//! // The paper's fragmented 3-GPU allocation {0,1,4} is PCIe-bound…
//! let frag = effbw::measure(&dgx, &[0, 1, 4]);
//! // …while the ideal allocation {0,2,3} sustains a full NVLink ring.
//! let ideal = effbw::measure(&dgx, &[0, 2, 3]);
//! assert!(ideal > 1.5 * frag);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allreduce;
pub mod effbw;
pub mod rings;
