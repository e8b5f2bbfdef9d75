//! Error type for graph construction and manipulation.

use std::fmt;

/// Errors produced by [`crate::Graph`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex index was `>=` the number of vertices.
    VertexOutOfRange {
        /// The offending index.
        vertex: usize,
        /// The number of vertices in the graph.
        len: usize,
    },
    /// A self-loop (`u == v`) was requested; MAPA graphs are simple.
    SelfLoop(usize),
    /// The edge already exists and duplicate insertion was not requested.
    DuplicateEdge(usize, usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, len } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {len} vertices"
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} not allowed"),
            GraphError::DuplicateEdge(u, v) => write!(f, "edge ({u}, {v}) already exists"),
        }
    }
}

impl std::error::Error for GraphError {}
