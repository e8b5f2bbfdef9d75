//! Pattern-aware subgraph matching — MAPA's stand-in for Peregrine.
//!
//! The MAPA paper (§3.3) delegates its pattern-matching stage to the
//! Peregrine graph-mining system: given an application *pattern graph* `P`
//! and a server *hardware graph* `G`, produce every subgraph of `G`
//! isomorphic to `P`. This crate provides that contract natively:
//!
//! * [`vf2`] — a VF2-style backtracking matcher (the algorithm family the
//!   paper cites via Cordella et al. and VF3) with bitset candidate pruning;
//! * [`ullmann`] — Ullmann's bit-matrix algorithm, also cited by the paper,
//!   kept as an independently-implemented cross-check backend;
//! * [`symmetry`] — pattern automorphism detection and GraphZero-style
//!   symmetry-breaking constraints, Peregrine's key trick for enumerating
//!   each match exactly once per automorphism class;
//! * [`Matcher`] — the high-level façade selecting backend and dedup mode
//!   over one sequential enumeration;
//! * [`pool`] — the persistent [`WorkerPool`] that cluster parallel
//!   dispatch and campaigns run on (no matcher uses it).
//!
//! Matching semantics are *monomorphism*: every pattern edge must map to a
//! data-graph edge, extra data edges are allowed. That is exactly the
//! paper's setting — hardware graphs are complete (PCIe fallback), so any
//! injective placement is a valid match and scoring does the
//! discrimination. So `mapa-core`'s allocator ranks GPU sets and never calls
//! the matcher; `mapa::reproduce`'s matcher ablations and the oracle tests
//! of Greedy's set walk do.
//!
//! # Example
//!
//! ```
//! use mapa_graph::{Graph, PatternGraph};
//! use mapa_isomorph::{Matcher, MatchOptions};
//!
//! // 3-GPU ring pattern in a 4-GPU server where only some links exist.
//! let pattern = PatternGraph::ring(3);
//! let mut hw: Graph<f64> = Graph::new(4);
//! hw.add_edge(0, 1, 50.0).unwrap();
//! hw.add_edge(1, 2, 25.0).unwrap();
//! hw.add_edge(0, 2, 12.0).unwrap();
//! hw.add_edge(2, 3, 12.0).unwrap();
//!
//! let matches = Matcher::new(MatchOptions::default()).find(&pattern, &hw.to_pattern());
//! // Only {0,1,2} forms a triangle; one canonical embedding survives
//! // symmetry breaking (C3 has 6 automorphisms).
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].vertex_set(), vec![0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod embedding;
mod matcher;
mod order;
pub mod pool;
pub mod symmetry;
pub mod ullmann;
pub mod vf2;

pub use brute::brute_force_embeddings;
pub use embedding::Embedding;
pub use matcher::{Backend, DedupMode, MatchOptions, Matcher};
pub use order::SearchPlan;
pub use pool::{default_threads, WorkerPool};
