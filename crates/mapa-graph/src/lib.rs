//! Small labeled undirected graphs for the MAPA allocation framework.
//!
//! MAPA ([Ranganath et al., SC '21]) abstracts a multi-accelerator *server*
//! as a weighted hardware graph and a multi-accelerator *application* as a
//! small unweighted pattern graph. Both are tiny by graph-processing
//! standards (2–64 vertices), so this crate favours dense adjacency bitsets
//! and exact algorithms over asymptotic cleverness.
//!
//! The main types:
//!
//! * [`Graph`] — an undirected graph with per-edge weights of any `Copy`
//!   type. Machines label their direct links with a link type, pattern
//!   graphs use `()`.
//! * [`BitSet`] — a dynamic bitset used for adjacency rows and vertex sets.
//!
//! # Example
//!
//! ```
//! use mapa_graph::Graph;
//!
//! // A triangle with bandwidth-like weights.
//! let mut g: Graph<f64> = Graph::new(3);
//! g.add_edge(0, 1, 50.0).unwrap();
//! g.add_edge(1, 2, 25.0).unwrap();
//! g.add_edge(0, 2, 12.0).unwrap();
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.edges().map(|(_, _, w)| w).sum::<f64>(), 87.0);
//! ```
//!
//! [Ranganath et al., SC '21]: https://doi.org/10.1145/3458817.3480853

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod error;
mod graph;

pub use bitset::BitSet;
pub use error::GraphError;
pub use graph::{EdgeIter, Graph, NeighborIter, PatternGraph};
