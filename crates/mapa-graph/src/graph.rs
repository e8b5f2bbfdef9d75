//! The core undirected weighted graph type.

use crate::{BitSet, GraphError};

/// An undirected simple graph with `Copy` edge weights.
///
/// Vertices are dense indices `0..n`. Adjacency is stored both as per-vertex
/// bitset rows (for O(words) intersection in the matcher) and as an `n × n`
/// weight matrix (graphs here are tiny, so density is the right trade).
///
/// Machines label their direct links with a link type; application
/// pattern graphs are [`PatternGraph`] (`Graph<()>`).
#[derive(Clone, PartialEq)]
pub struct Graph<W> {
    n: usize,
    adj: Vec<BitSet>,
    weights: Vec<Option<W>>, // row-major n × n, both triangles mirrored
    edge_count: usize,
}

/// Application-style pattern graph: edges carry no weight.
pub type PatternGraph = Graph<()>;

impl<W: Copy> Graph<W> {
    /// Creates a graph with `n` vertices and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: (0..n).map(|_| BitSet::new(n)).collect(),
            weights: vec![None; n * n],
            edge_count: 0,
        }
    }

    /// Builds the complete graph on `n` vertices with uniform weight `w`.
    #[must_use]
    pub fn complete(n: usize, w: W) -> Self {
        let mut g = Self::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v, w).expect("complete graph edges are valid");
            }
        }
        g
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Inserts the undirected edge `(u, v)` with weight `w`.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-loops, and duplicates.
    pub fn add_edge(&mut self, u: usize, v: usize, w: W) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if self.adj[u].contains(v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
        self.weights[u * self.n + v] = Some(w);
        self.weights[v * self.n + u] = Some(w);
        self.edge_count += 1;
        Ok(())
    }

    /// Tests whether edge `(u, v)` exists. Out-of-range vertices yield `false`.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && u != v && self.adj[u].contains(v)
    }

    /// The weight of edge `(u, v)` if it exists.
    #[must_use]
    pub fn weight(&self, u: usize, v: usize) -> Option<W> {
        if u < self.n && v < self.n {
            self.weights[u * self.n + v]
        } else {
            None
        }
    }

    /// Vertex degree.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].count()
    }

    /// The adjacency row of `u` as a bitset.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn adjacency_row(&self, u: usize) -> &BitSet {
        &self.adj[u]
    }

    /// Iterates over the neighbors of `u` in ascending order.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> NeighborIter<'_> {
        NeighborIter {
            inner: Box::new(self.adj[u].iter()),
        }
    }

    /// Iterates over all edges as `(u, v, w)` with `u < v`, ordered
    /// lexicographically.
    pub fn edges(&self) -> EdgeIter<'_, W> {
        EdgeIter {
            g: self,
            u: 0,
            v: 0,
        }
    }

    fn check_vertex(&self, v: usize) -> Result<(), GraphError> {
        if v < self.n {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                len: self.n,
            })
        }
    }
}

impl PatternGraph {
    /// A ring (cycle) pattern on `n` vertices. For `n == 2` this is a single
    /// edge; `n < 2` yields an edgeless graph.
    ///
    /// Matches the NCCL ring topology of the paper's Fig. 8 (left).
    #[must_use]
    pub fn ring(n: usize) -> Self {
        let mut g = Self::new(n);
        if n == 2 {
            g.add_edge(0, 1, ()).unwrap();
        } else if n > 2 {
            for i in 0..n {
                g.add_edge(i, (i + 1) % n, ()).unwrap();
            }
        }
        g
    }

    /// A balanced binary tree pattern on `n` vertices (vertex 0 is the
    /// root; vertex `i` links to parent `(i - 1) / 2`).
    ///
    /// Matches the NCCL tree topology of the paper's Fig. 8 (middle).
    #[must_use]
    pub fn binary_tree(n: usize) -> Self {
        let mut g = Self::new(n);
        for i in 1..n {
            g.add_edge(i, (i - 1) / 2, ()).unwrap();
        }
        g
    }

    /// A chain (path) pattern on `n` vertices.
    #[must_use]
    pub fn chain(n: usize) -> Self {
        let mut g = Self::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i, ()).unwrap();
        }
        g
    }

    /// A star pattern: vertex 0 connected to all others (parameter-server
    /// style communication).
    #[must_use]
    pub fn star(n: usize) -> Self {
        let mut g = Self::new(n);
        for i in 1..n {
            g.add_edge(0, i, ()).unwrap();
        }
        g
    }

    /// The complete pattern on `n` vertices (all-to-all communication).
    #[must_use]
    pub fn all_to_all(n: usize) -> Self {
        Self::complete(n, ())
    }

    /// Ring plus tree overlay — the paper's Fig. 8 (right): NCCL selects
    /// rings or trees by transfer size, so the union of both patterns is the
    /// conservative application topology.
    #[must_use]
    pub fn ring_tree(n: usize) -> Self {
        let mut g = Self::ring(n);
        for i in 1..n {
            let p = (i - 1) / 2;
            if !g.has_edge(i, p) {
                g.add_edge(i, p, ()).unwrap();
            }
        }
        g
    }
}

impl<W: Copy + std::fmt::Debug> std::fmt::Debug for Graph<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={}, edges=[", self.n, self.edge_count)?;
        for (i, (u, v, w)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({u},{v})={w:?}")?;
        }
        write!(f, "])")
    }
}

/// Iterator over the neighbors of a vertex. See [`Graph::neighbors`].
pub struct NeighborIter<'a> {
    inner: Box<dyn Iterator<Item = usize> + 'a>,
}

impl Iterator for NeighborIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.inner.next()
    }
}

/// Iterator over all edges `(u, v, w)` with `u < v`. See [`Graph::edges`].
pub struct EdgeIter<'a, W> {
    g: &'a Graph<W>,
    u: usize,
    v: usize,
}

impl<W: Copy> Iterator for EdgeIter<'_, W> {
    type Item = (usize, usize, W);

    fn next(&mut self) -> Option<(usize, usize, W)> {
        while self.u < self.g.n {
            self.v += 1;
            if self.v >= self.g.n {
                self.u += 1;
                self.v = self.u;
                continue;
            }
            if let Some(w) = self.g.weight(self.u, self.v) {
                return Some((self.u, self.v, w));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Graph<f64> {
        let mut g = Graph::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w).unwrap();
        }
        g
    }

    fn triangle() -> Graph<f64> {
        from_edges(3, &[(0, 1, 50.0), (1, 2, 25.0), (0, 2, 12.0)])
    }

    #[test]
    fn construction_and_queries() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.weight(1, 2), Some(25.0));
        assert_eq!(g.weight(2, 1), Some(25.0));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.edges().map(|(_, _, w)| w).sum::<f64>(), 87.0);
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let mut g: Graph<f64> = Graph::new(3);
        assert_eq!(g.add_edge(1, 1, 1.0), Err(GraphError::SelfLoop(1)));
        g.add_edge(0, 1, 1.0).unwrap();
        assert_eq!(g.add_edge(1, 0, 2.0), Err(GraphError::DuplicateEdge(1, 0)));
        assert_eq!(
            g.add_edge(0, 3, 2.0),
            Err(GraphError::VertexOutOfRange { vertex: 3, len: 3 })
        );
    }

    #[test]
    fn edge_iterator_is_sorted_upper_triangle() {
        let g = from_edges(4, &[(2, 3, 1.0), (0, 3, 2.0), (1, 0, 3.0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 3.0), (0, 3, 2.0), (2, 3, 1.0)]);
    }

    #[test]
    fn pattern_constructors_shapes() {
        assert_eq!(PatternGraph::ring(2).edge_count(), 1);
        assert_eq!(PatternGraph::ring(5).edge_count(), 5);
        assert_eq!(PatternGraph::chain(5).edge_count(), 4);
        assert_eq!(PatternGraph::binary_tree(5).edge_count(), 4);
        assert_eq!(PatternGraph::star(5).edge_count(), 4);
        assert_eq!(PatternGraph::all_to_all(5).edge_count(), 10);
        // Every vertex in a ring has degree 2.
        let r = PatternGraph::ring(6);
        assert!((0..6).all(|v| r.degree(v) == 2));
        // Ring-tree union has at least the ring edges.
        let rt = PatternGraph::ring_tree(5);
        assert!(rt.edge_count() >= 5);
        for i in 0..5 {
            assert!(rt.has_edge(i, (i + 1) % 5));
        }
    }

    #[test]
    fn ring_edge_cases() {
        assert_eq!(PatternGraph::ring(0).edge_count(), 0);
        assert_eq!(PatternGraph::ring(1).edge_count(), 0);
        // n=3 ring is a triangle, not a doubled edge.
        assert_eq!(PatternGraph::ring(3).edge_count(), 3);
    }

    proptest! {
        #[test]
        fn edge_count_matches_iterator(
            n in 1usize..12,
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
        ) {
            let mut g: Graph<f64> = Graph::new(n);
            for (u, v) in edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    let _ = g.add_edge(u, v, 1.0);
                }
            }
            prop_assert_eq!(g.edges().count(), g.edge_count());
            let degree_sum: usize = (0..n).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }
    }
}
