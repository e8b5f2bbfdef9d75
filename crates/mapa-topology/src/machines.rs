//! Constructors for the machines evaluated in the paper.
//!
//! * [`dgx1_v100`] — the paper's real-world testbed (Fig. 1c), an 8-GPU
//!   hybrid cube-mesh with single/double NVLink-v2 links. The link layout is
//!   validated against every worked example in the paper (§2.2's 87 vs
//!   125 GB/s fragmentation example and Fig. 2b's GPU-pair/link mapping).
//! * [`dgx1_p100`] — the Pascal predecessor (Fig. 1b): 4 NVLink-v1 bricks
//!   per GPU, quad cliques plus one cross link each.
//! * [`summit`] — one Summit node (Fig. 1a): two sockets × 3 GPUs, double
//!   NVLink-v2 triangles within a socket.
//! * [`dgx2`] — 16 GPUs behind NVSwitch: uniform all-to-all double NVLink.
//! * [`torus_2d`] / [`cube_mesh`] — the novel 16-GPU point-to-point
//!   topologies of §5 (Fig. 17).
//!
//! All constructors use 0-indexed GPUs; the paper's figures are 1-indexed.

use crate::{LinkType, Topology};
use mapa_graph::Graph;

use LinkType::{DoubleNvLink2, SingleNvLink1, SingleNvLink2};

/// DGX-1 with Volta V100 GPUs (Fig. 1c) — the paper's testbed.
///
/// Eight GPUs in two quads `{0..3}` and `{4..7}`, each GPU using its six
/// NVLink-v2 bricks as: three intra-quad links (one of them double) and one
/// inter-quad link. Pairs without NVLink (e.g. 1–4) fall back to PCIe
/// across the QPI bridge.
#[must_use]
pub fn dgx1_v100() -> Topology {
    let mut g = Graph::new(8);
    // Quad {0,1,2,3}.
    g.add_edge(0, 1, SingleNvLink2).unwrap();
    g.add_edge(0, 2, SingleNvLink2).unwrap();
    g.add_edge(0, 3, DoubleNvLink2).unwrap();
    g.add_edge(1, 2, DoubleNvLink2).unwrap();
    g.add_edge(1, 3, SingleNvLink2).unwrap();
    g.add_edge(2, 3, DoubleNvLink2).unwrap();
    // Quad {4,5,6,7} mirrors it.
    g.add_edge(4, 5, SingleNvLink2).unwrap();
    g.add_edge(4, 6, SingleNvLink2).unwrap();
    g.add_edge(4, 7, DoubleNvLink2).unwrap();
    g.add_edge(5, 6, DoubleNvLink2).unwrap();
    g.add_edge(5, 7, SingleNvLink2).unwrap();
    g.add_edge(6, 7, DoubleNvLink2).unwrap();
    // Inter-quad links close the hybrid cube-mesh.
    g.add_edge(0, 4, DoubleNvLink2).unwrap();
    g.add_edge(1, 5, DoubleNvLink2).unwrap();
    g.add_edge(2, 6, SingleNvLink2).unwrap();
    g.add_edge(3, 7, SingleNvLink2).unwrap();
    Topology::new("DGX-1 V100", g, vec![0, 0, 0, 0, 1, 1, 1, 1])
}

/// DGX-1 with Pascal P100 GPUs (Fig. 1b).
///
/// Pascal has four NVLink-v1 bricks per GPU: a full clique inside each quad
/// (three links) plus one link to the sibling GPU of the other quad.
#[must_use]
pub fn dgx1_p100() -> Topology {
    let mut g = Graph::new(8);
    for base in [0, 4] {
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(base + a, base + b, SingleNvLink1).unwrap();
            }
        }
    }
    for i in 0..4 {
        g.add_edge(i, i + 4, SingleNvLink1).unwrap();
    }
    Topology::new("DGX-1 P100", g, vec![0, 0, 0, 0, 1, 1, 1, 1])
}

/// One Summit node (Fig. 1a): 6 V100 GPUs on two POWER9 sockets.
///
/// Each socket hosts three GPUs connected pairwise by double NVLink-v2
/// (each V100 dedicates two of its six bricks to each of its two peers and
/// two to the CPU). Cross-socket GPU traffic crosses the X-bus and is
/// modeled as the PCIe-class fallback.
#[must_use]
pub fn summit() -> Topology {
    let mut g = Graph::new(6);
    for base in [0, 3] {
        g.add_edge(base, base + 1, DoubleNvLink2).unwrap();
        g.add_edge(base, base + 2, DoubleNvLink2).unwrap();
        g.add_edge(base + 1, base + 2, DoubleNvLink2).unwrap();
    }
    Topology::new("Summit", g, vec![0, 0, 0, 1, 1, 1])
}

/// DGX-2: 16 V100 GPUs behind NVSwitch.
///
/// NVSwitch gives every pair full NVLink bandwidth simultaneously; the
/// paper notes even this fabric has NUMA effects but treats it as uniform.
/// Modeled as all-to-all double NVLink-v2 across two 8-GPU baseboards.
#[must_use]
pub fn dgx2() -> Topology {
    let mut g = Graph::new(16);
    for a in 0..16 {
        for b in (a + 1)..16 {
            g.add_edge(a, b, DoubleNvLink2).unwrap();
        }
    }
    let sockets = (0..16).map(|g| g / 8).collect();
    Topology::new("DGX-2", g, sockets)
}

/// The 16-GPU 2-D torus of §5 (Fig. 17a).
///
/// GPUs form a 4×4 grid with wraparound. Row neighbors share double
/// NVLink-v2, column neighbors single NVLink-v2 — the figure's mix of both
/// link classes — and everything else rides PCIe. One CPU socket per row.
/// The links are [`torus`]`(4, 4, DoubleNvLink2, SingleNvLink2)`'s.
#[must_use]
pub fn torus_2d() -> Topology {
    let links = torus(4, 4, DoubleNvLink2, SingleNvLink2)
        .link_graph()
        .clone();
    let sockets = (0..16).map(|g| g / 4).collect();
    Topology::new("Torus-2d", links, sockets)
}

/// The 16-GPU cube-mesh of §5 (Fig. 17b).
///
/// Two DGX-1V-style hybrid cube-mesh boards (GPUs 0–7 and 8–15) joined by
/// four single-NVLink bridges on the first quad of each board. Deliberately
/// irregular — the paper uses it to show that greedy selection struggles as
/// non-uniformity grows.
#[must_use]
pub fn cube_mesh() -> Topology {
    let board = dgx1_v100();
    let mut g = Graph::new(16);
    for o in [0, 8] {
        for (a, b, link) in board.link_graph().edges() {
            g.add_edge(o + a, o + b, link).unwrap();
        }
    }
    for i in 0..4 {
        g.add_edge(i, i + 8, SingleNvLink2).unwrap();
    }
    let sockets = (0..16).map(|g| g / 4).collect();
    Topology::new("CubeMesh-16", g, sockets)
}

/// A general `rows × cols` 2-D torus with configurable link classes for
/// row and column neighbors. [`torus_2d`] is `torus(4, 4, double, single)`.
///
/// # Panics
/// Panics for degenerate shapes (`rows * cols < 2`, or a dimension of 2
/// where wraparound would duplicate an edge is handled by collapsing it).
#[must_use]
pub fn torus(rows: usize, cols: usize, row_link: LinkType, col_link: LinkType) -> Topology {
    assert!(rows * cols >= 2, "torus needs at least 2 GPUs");
    assert!(row_link != LinkType::Pcie && col_link != LinkType::Pcie);
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if cols > 1 {
                let right = id(r, (c + 1) % cols);
                if !g.has_edge(id(r, c), right) {
                    g.add_edge(id(r, c), right, row_link).unwrap();
                }
            }
            if rows > 1 {
                let down = id((r + 1) % rows, c);
                if !g.has_edge(id(r, c), down) {
                    g.add_edge(id(r, c), down, col_link).unwrap();
                }
            }
        }
    }
    let sockets = (0..rows * cols).map(|v| v / cols.max(1)).collect();
    Topology::new(format!("Torus-{rows}x{cols}"), g, sockets)
}

/// A `d`-dimensional hypercube (2^d GPUs) with a uniform link class —
/// another cost-effective point-to-point design in the spirit of §5.
///
/// # Panics
/// Panics for `d == 0` or `d > 6` (64 GPUs is the library's practical cap).
#[must_use]
pub fn hypercube(d: u32, link: LinkType) -> Topology {
    assert!((1..=6).contains(&d), "hypercube dimension must be 1..=6");
    assert!(link != LinkType::Pcie);
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for u in 0..n {
        for b in 0..d {
            let v = u ^ (1usize << b);
            if u < v {
                g.add_edge(u, v, link).unwrap();
            }
        }
    }
    let sockets = (0..n).map(|v| v / 4).collect();
    Topology::new(format!("Hypercube-{d}"), g, sockets)
}

/// A fully connected `n`-GPU machine with a uniform link type — useful as a
/// best-case baseline and for tests.
#[must_use]
pub fn fully_connected(n: usize, link: LinkType) -> Topology {
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(a, b, link).unwrap();
        }
    }
    Topology::new(format!("Uniform-{n}"), g, vec![0; n])
}

/// All paper machines keyed by canonical name, in evaluation order.
#[must_use]
pub fn all_machines() -> Vec<Topology> {
    vec![
        summit(),
        dgx1_p100(),
        dgx1_v100(),
        dgx2(),
        torus_2d(),
        cube_mesh(),
    ]
}

/// A paper machine by name, ignoring case and punctuation (`dgx-1-v100`,
/// `DGX-1 V100` and `dgx1v100` are the same machine).
#[must_use]
pub fn by_name(name: &str) -> Option<Topology> {
    let norm = |s: &str| {
        let letters = s.chars().filter(|c| c.is_alphanumeric());
        letters.collect::<String>().to_ascii_lowercase()
    };
    all_machines()
        .into_iter()
        .find(|m| norm(m.name()) == norm(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkType::Pcie;

    #[test]
    fn machines_resolve_by_name_ignoring_case_and_punctuation() {
        for spelling in ["dgx-1-v100", "DGX-1 V100", "dgx1v100"] {
            assert_eq!(by_name(spelling).unwrap().name(), "DGX-1 V100");
        }
        assert!(by_name("dgx-9").is_none());
    }

    #[test]
    fn dgx1_v100_matches_paper_worked_examples() {
        let t = dgx1_v100();
        // §2.2: allocation {1,2,5} (1-indexed) = {0,1,4}: 87 GB/s.
        let frag: f64 = [(0, 1), (0, 4), (1, 4)]
            .iter()
            .map(|&(a, b)| t.bandwidth(a, b))
            .sum();
        assert_eq!(frag, 87.0);
        // §2.2: ideal {1,3,4} (1-indexed) = {0,2,3}: 125 GB/s.
        let ideal: f64 = [(0, 2), (0, 3), (2, 3)]
            .iter()
            .map(|&(a, b)| t.bandwidth(a, b))
            .sum();
        assert_eq!(ideal, 125.0);
        // Fig. 2b: GPUs (1,5)->double, (1,2)->single, (1,6)->PCIe.
        assert_eq!(t.link_type(0, 4), DoubleNvLink2);
        assert_eq!(t.link_type(0, 1), SingleNvLink2);
        assert_eq!(t.link_type(0, 5), Pcie);
    }

    #[test]
    fn dgx1_v100_uses_six_bricks_per_gpu() {
        let t = dgx1_v100();
        for gpu in 0..8 {
            let bricks: usize = (0..8)
                .filter(|&o| o != gpu)
                .map(|o| match t.link_type(gpu, o) {
                    DoubleNvLink2 => 2,
                    SingleNvLink2 | SingleNvLink1 => 1,
                    Pcie => 0,
                })
                .sum();
            assert_eq!(bricks, 6, "GPU{gpu} must use exactly 6 NVLink-v2 bricks");
        }
    }

    #[test]
    fn dgx1_p100_uses_four_bricks_per_gpu() {
        let t = dgx1_p100();
        for gpu in 0..8 {
            let bricks = (0..8)
                .filter(|&o| o != gpu && t.link_type(gpu, o) == SingleNvLink1)
                .count();
            assert_eq!(bricks, 4, "GPU{gpu} must use exactly 4 NVLink-v1 bricks");
        }
        // All NVLinks are v1.
        assert!(t.link_graph().edges().all(|(_, _, l)| l == SingleNvLink1));
    }

    #[test]
    fn summit_is_two_double_nvlink_triangles() {
        let t = summit();
        assert_eq!(t.gpu_count(), 6);
        assert_eq!(t.link_graph().edge_count(), 6);
        assert_eq!(t.link_type(0, 1), DoubleNvLink2);
        assert_eq!(t.link_type(0, 3), Pcie);
        assert_eq!(t.socket_of(2), 0);
        assert_eq!(t.socket_of(3), 1);
    }

    #[test]
    fn dgx2_uniform_all_to_all() {
        let t = dgx2();
        assert_eq!(t.gpu_count(), 16);
        assert_eq!(t.link_graph().edge_count(), 120);
        assert!((0..16).all(|a| (0..16)
            .filter(|&b| b != a)
            .all(|b| t.link_type(a, b) == DoubleNvLink2)));
    }

    #[test]
    fn torus_2d_structure() {
        let t = torus_2d();
        assert_eq!(t.gpu_count(), 16);
        // 4x4 torus: 32 direct links (16 horizontal + 16 vertical).
        assert_eq!(t.link_graph().edge_count(), 32);
        // Row neighbor (0,1): double; column neighbor (0,4): single;
        // wraparound (0,3) row and (0,12) column exist; diagonal is PCIe.
        assert_eq!(t.link_type(0, 1), DoubleNvLink2);
        assert_eq!(t.link_type(0, 4), SingleNvLink2);
        assert_eq!(t.link_type(0, 3), DoubleNvLink2);
        assert_eq!(t.link_type(0, 12), SingleNvLink2);
        assert_eq!(t.link_type(0, 5), Pcie);
        // Every GPU has degree 4 in the direct-link graph.
        assert!((0..16).all(|v| t.link_graph().degree(v) == 4));
    }

    #[test]
    fn cube_mesh_structure() {
        let t = cube_mesh();
        assert_eq!(t.gpu_count(), 16);
        // Two boards of 16 links + 4 bridges.
        assert_eq!(t.link_graph().edge_count(), 36);
        // Bridge links exist only on the first quad.
        assert_eq!(t.link_type(0, 8), SingleNvLink2);
        assert_eq!(t.link_type(4, 12), Pcie);
        // Board-local structure mirrors DGX-1V.
        assert_eq!(t.link_type(8, 11), DoubleNvLink2);
    }

    #[test]
    fn complete_hardware_graphs_have_all_pairs() {
        for t in all_machines() {
            let n = t.gpu_count();
            let g = t.bandwidth_graph();
            assert_eq!(g.edge_count(), n * (n - 1) / 2, "{}", t.name());
        }
    }

    #[test]
    fn fully_connected_builder() {
        let t = fully_connected(5, DoubleNvLink2);
        assert_eq!(t.link_graph().edge_count(), 10);
        assert_eq!(t.total_bandwidth(), 10.0 * 50.0);
    }

    #[test]
    fn generic_torus_matches_builtin() {
        let generic = torus(4, 4, DoubleNvLink2, SingleNvLink2);
        let builtin = torus_2d();
        assert_eq!(generic.gpu_count(), builtin.gpu_count());
        for a in 0..16 {
            for b in (a + 1)..16 {
                assert_eq!(
                    generic.link_type(a, b),
                    builtin.link_type(a, b),
                    "({a},{b})"
                );
            }
        }
    }

    #[test]
    fn small_torus_shapes() {
        // 1x2 "torus" is a single link.
        let tiny = torus(1, 2, DoubleNvLink2, SingleNvLink2);
        assert_eq!(tiny.link_graph().edge_count(), 1);
        // 2x2: each dimension collapses the wraparound duplicate.
        let quad = torus(2, 2, DoubleNvLink2, SingleNvLink2);
        assert_eq!(quad.link_graph().edge_count(), 4);
        // 2x3: rows wrap (3 edges per row x 2) + columns collapse (3).
        let t23 = torus(2, 3, DoubleNvLink2, SingleNvLink2);
        assert_eq!(t23.link_graph().edge_count(), 2 * 3 + 3);
    }

    #[test]
    fn hypercube_structure() {
        let q3 = hypercube(3, SingleNvLink2);
        assert_eq!(q3.gpu_count(), 8);
        assert_eq!(q3.link_graph().edge_count(), 12); // d * 2^(d-1)
        assert!((0..8).all(|v| q3.link_graph().degree(v) == 3));
        // Antipodal vertices have no direct link.
        assert_eq!(q3.link_type(0, 7), Pcie);
        let q4 = hypercube(4, DoubleNvLink2);
        assert_eq!(q4.link_graph().edge_count(), 32);
    }

    #[test]
    #[should_panic(expected = "dimension must be")]
    fn oversized_hypercube_rejected() {
        let _ = hypercube(7, SingleNvLink2);
    }

    #[test]
    fn sixteen_gpu_graphs_have_120_plus_edges() {
        // §5.4 describes the 16-GPU hardware graphs as "120+ edges" — the
        // complete graph the matcher actually mines.
        for t in [torus_2d(), cube_mesh()] {
            assert!(t.bandwidth_graph().edge_count() >= 120, "{}", t.name());
        }
    }
}
