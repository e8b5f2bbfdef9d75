//! NCCL-style ring construction over an allocation's links.
//!
//! NCCL drives collective traffic over *channels*: edge-disjoint rings laid
//! onto the physical NVLink bricks. We model an allocation's connectivity
//! as a lane multigraph — a double NVLink contributes two 25 GB/s lanes, a
//! single NVLink one lane, and every GPU pair additionally owns one PCIe
//! path (12 GB/s) through the host — then greedily pack Hamiltonian rings:
//! each ring claims one lane per hop and is bottlenecked by its slowest
//! hop. Additional rings are only added while they can run entirely on
//! NVLink-class links; PCIe is never aggregated on top of NVLink rings
//! (matching NCCL's transport selection).
//!
//! # The search
//!
//! Each ring is the Hamiltonian cycle maximizing (bottleneck, then total)
//! bandwidth over the lanes still unclaimed. [`pack_rings`] finds it with a
//! depth-first branch-and-bound over vertex orders instead of listing all
//! `(n-1)!/2` cycles: a prefix `0, v₁, …, vₖ` carries its bottleneck and
//! total so far, and is abandoned as soon as no completion can *strictly*
//! beat the incumbent — its bottleneck is already lower, or equal with
//! `total + Σ (best lane into each vertex still to be entered)` not above
//! the incumbent's total. On a well-connected allocation the first
//! all-NVLink cycle found prunes almost everything after it.
//!
//! **The visiting order is part of the contract.** Many cycles tie on
//! (bottleneck, total); the winner is the *first* one in a fixed order —
//! vertex 0 first, the rest permuted by recursive swapping
//! (`for i in k..len { swap(k, i); recurse; swap(k, i) }`), mirror images
//! dropped by keeping the order whose second vertex is smaller than its
//! last. Which cycle wins decides which lanes the next ring finds, so
//! [`Ring::order`], the number of rings and therefore every simulated
//! execution time depend on it. Pruning only ever skips cycles that could
//! not have replaced the incumbent, so the result equals the
//! enumerate-everything packer kept as the test oracle in this module.
//!
//! # What pricing reads
//!
//! The all-reduce models ([`crate::allreduce`]) and everything priced
//! through them read each ring's [`RingRate`] — its bottleneck and whether
//! it is all-NVLink — and never its order or its cycle total. That lets
//! [`ring_rates`] skip a search whose answer it would not read:
//!
//! * When the NVLink lanes hold a Hamiltonian cycle, every optimal first
//!   ring is all-NVLink (bottleneck ≥ 20 GB/s > 12), so a search that
//!   allows only NVLink hops, in the same visiting order, returns the same
//!   first optimal cycle. Later rings are NVLink-only anyway.
//! * When they hold none, the first ring has a host hop and runs at
//!   12 GB/s, and no ring follows it: later rings use NVLink lanes only,
//!   over a subset of the same lanes.
//!
//! So both [`pack_rings`] and [`ring_rates`] search the NVLink lanes first.
//! Only [`pack_rings`], which reports [`Ring::order`], goes on to the
//! max-total host search for the order of that one 12 GB/s ring; its
//! rates stay the definition [`ring_rates`] must equal.
//!
//! # Packing once per link pattern
//!
//! The packing is a function of the allocation's ordered link-type matrix
//! alone, and a run sees few of them: `paper_server`'s 30 000 starts of 3
//! GPUs or more per repetition span 129 matrices, `cube16_server`'s 756
//! span 365. [`RingMemo`] keys rates by that matrix, so the simulator
//! searches once per pattern.

use mapa_topology::{LinkType, Topology};
use std::collections::HashMap;

/// Largest allocation [`pack_rings`] accepts. The search is exact and its
/// worst case (a PCIe-bound allocation, where little can be pruned) is
/// factorial in the allocation size; the paper's jobs are ≤ 9 GPUs.
pub const MAX_RING_GPUS: usize = 10;

/// Bandwidth of the host (PCIe) path every GPU pair owns.
const PCIE_GBPS: f64 = 12.0;

/// What pricing reads of a ring: its rate and its link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingRate {
    /// Bandwidth of the slowest hop in GB/s — the ring's sustained rate.
    pub bottleneck_gbps: f64,
    /// True when every hop rides NVLink.
    pub all_nvlink: bool,
}

/// The one ring a host-bound allocation gets: some hop rides PCIe, so the
/// ring runs at the host path's rate whatever its order.
const HOST_RING: RingRate = RingRate {
    bottleneck_gbps: PCIE_GBPS,
    all_nvlink: false,
};

/// A selected communication ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    /// Allocation-local vertex order; the ring closes back to the first.
    pub order: Vec<usize>,
    /// Bandwidth of the slowest hop in GB/s — the ring's sustained rate.
    pub bottleneck_gbps: f64,
    /// True when every hop rides NVLink.
    pub all_nvlink: bool,
}

/// The set of rings NCCL-style channel construction would pack onto an
/// allocation, with their bottleneck bandwidths.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSet {
    /// Rings, best first.
    pub rings: Vec<Ring>,
}

impl RingSet {
    /// The rings' rates, best first — all that pricing reads.
    #[must_use]
    pub fn rates(&self) -> Vec<RingRate> {
        self.rings
            .iter()
            .map(|r| RingRate {
                bottleneck_gbps: r.bottleneck_gbps,
                all_nvlink: r.all_nvlink,
            })
            .collect()
    }
}

/// The NVLink lanes a link of type `link` contributes, and the bandwidth of
/// each in GB/s; PCIe contributes none.
fn nvlink_lanes(link: LinkType) -> (u8, f64) {
    match link {
        LinkType::DoubleNvLink2 => (2, 25.0),
        LinkType::SingleNvLink2 => (1, 25.0),
        LinkType::SingleNvLink1 => (1, 20.0),
        LinkType::Pcie => (0, 0.0),
    }
}

/// Unclaimed NVLink lanes between allocation-local GPU pairs. A pair has
/// one link type, so "its best remaining lane" is a counter, not a scan.
/// The PCIe path needs no bookkeeping: only a host ring uses it, and no
/// ring follows one.
struct Lanes {
    n: usize,
    /// Unclaimed NVLink lanes per pair (symmetric).
    nvlink_left: [[u8; MAX_RING_GPUS]; MAX_RING_GPUS],
    /// Bandwidth of one NVLink lane of the pair, GB/s (symmetric).
    nvlink_gbps: [[f64; MAX_RING_GPUS]; MAX_RING_GPUS],
}

impl Lanes {
    fn build(topology: &Topology, gpus: &[usize]) -> Self {
        let n = gpus.len();
        let mut lanes = Lanes {
            n,
            nvlink_left: [[0; MAX_RING_GPUS]; MAX_RING_GPUS],
            nvlink_gbps: [[0.0; MAX_RING_GPUS]; MAX_RING_GPUS],
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let (count, gbps) = nvlink_lanes(topology.link_type(gpus[i], gpus[j]));
                lanes.nvlink_left[i][j] = count;
                lanes.nvlink_left[j][i] = count;
                lanes.nvlink_gbps[i][j] = gbps;
                lanes.nvlink_gbps[j][i] = gbps;
            }
        }
        lanes
    }

    /// Bandwidth of the best lane a ring may still take between `u` and
    /// `v`, and whether it is NVLink; `None` when NVLink is exhausted and
    /// the host path is not allowed.
    fn hop(&self, u: usize, v: usize, allow_pcie: bool) -> Option<(f64, bool)> {
        if self.nvlink_left[u][v] > 0 {
            Some((self.nvlink_gbps[u][v], true))
        } else if allow_pcie {
            Some((PCIE_GBPS, false))
        } else {
            None
        }
    }

    /// Removes the lanes the ring `order` rides on.
    fn claim(&mut self, order: &[usize]) {
        for (k, &u) in order.iter().enumerate() {
            let v = order[(k + 1) % order.len()];
            if self.nvlink_left[u][v] > 0 {
                self.nvlink_left[u][v] -= 1;
                self.nvlink_left[v][u] -= 1;
            }
        }
    }
}

/// What the search knows about a prefix `0, v₁, …, vₖ` of a vertex order.
#[derive(Clone, Copy)]
struct Prefix {
    bottleneck: f64,
    total: f64,
    all_nvlink: bool,
    /// Σ over the vertices still to be entered (vertex 0 included: the
    /// closing hop enters it) of the best lane into each — what the
    /// remaining hops can add to `total` at most. Lane bandwidths are
    /// whole GB/s, so the running difference is exact: 0 at a full cycle.
    headroom: f64,
}

/// The best complete cycle found so far.
#[derive(Clone, Copy)]
struct Incumbent {
    cycle: Prefix,
    /// Vertices `1..n` in ring order (vertex 0 leads implicitly).
    tail: [usize; MAX_RING_GPUS],
}

/// One branch-and-bound search for the best cycle over `lanes`.
struct Search<'a> {
    lanes: &'a Lanes,
    allow_pcie: bool,
    /// Vertices `1..n`, permuted in place by the recursive swaps.
    tail: [usize; MAX_RING_GPUS],
    len: usize,
    /// Best lane into each vertex from any other.
    best_into: [f64; MAX_RING_GPUS],
    incumbent: Option<Incumbent>,
}

impl<'a> Search<'a> {
    /// The first cycle, in visiting order, with the maximal (bottleneck,
    /// total) over the unclaimed lanes; `None` when no cycle is feasible.
    fn best_cycle(lanes: &'a Lanes, allow_pcie: bool) -> Option<Incumbent> {
        let n = lanes.n;
        let mut search = Search {
            lanes,
            allow_pcie,
            tail: [0; MAX_RING_GPUS],
            len: n - 1,
            best_into: [0.0; MAX_RING_GPUS],
            incumbent: None,
        };
        for v in 0..n {
            if v > 0 {
                search.tail[v - 1] = v;
            }
            search.best_into[v] = (0..n)
                .filter(|&u| u != v)
                .filter_map(|u| lanes.hop(u, v, allow_pcie))
                .map(|(gbps, _)| gbps)
                .fold(0.0, f64::max);
        }
        search.descend(
            0,
            Prefix {
                bottleneck: f64::INFINITY,
                total: 0.0,
                all_nvlink: true,
                headroom: search.best_into[..n].iter().sum(),
            },
        );
        search.incumbent
    }

    /// Tries every vertex still unplaced at position `k` of the tail, in
    /// swap order, below a prefix that ends in `tail[k - 1]` (or vertex 0).
    fn descend(&mut self, k: usize, prefix: Prefix) {
        let last = if k == 0 { 0 } else { self.tail[k - 1] };
        if k == self.len {
            // Close the ring. With no headroom left the prune rule is
            // exact, so whatever survives it is strictly better.
            if let Some(cycle) = self.extend(prefix, last, 0) {
                self.incumbent = Some(Incumbent {
                    cycle,
                    tail: self.tail,
                });
            }
            return;
        }
        for i in k..self.len {
            let v = self.tail[i];
            // A cycle and its mirror image are the same ring: keep the one
            // whose second vertex is smaller than its last.
            if k + 1 == self.len && self.tail[0] >= v {
                continue;
            }
            if let Some(next) = self.extend(prefix, last, v) {
                self.tail.swap(k, i);
                self.descend(k + 1, next);
                self.tail.swap(k, i);
            }
        }
    }

    /// `prefix` plus the hop `u → v`, or `None` when the hop has no lane
    /// or no completion of the longer prefix can strictly beat the
    /// incumbent on (bottleneck, then total).
    fn extend(&self, prefix: Prefix, u: usize, v: usize) -> Option<Prefix> {
        let (gbps, nvlink) = self.lanes.hop(u, v, self.allow_pcie)?;
        let next = Prefix {
            bottleneck: prefix.bottleneck.min(gbps),
            total: prefix.total + gbps,
            all_nvlink: prefix.all_nvlink && nvlink,
            headroom: prefix.headroom - self.best_into[v],
        };
        if let Some(Incumbent { cycle: best, .. }) = &self.incumbent {
            // A bottleneck only falls as hops are added, and the total can
            // grow by at most the headroom.
            if next.bottleneck < best.bottleneck
                || (next.bottleneck == best.bottleneck && next.total + next.headroom <= best.total)
            {
                return None;
            }
        }
        Some(next)
    }
}

/// Packs rings onto the allocation `gpus` of `topology`.
///
/// * `n == 0 | 1`: no rings (no inter-GPU traffic).
/// * `n == 2`: every NVLink lane of the pair is its own channel; PCIe is
///   used only when no NVLink exists.
/// * `n >= 3`: greedy Hamiltonian-ring packing — repeatedly take the cycle
///   maximizing (bottleneck, then total) bandwidth over the unclaimed
///   lanes, first in visiting order among equals (see the module docs),
///   claim its lanes, and continue while pure-NVLink rings remain. The
///   first ring may include PCIe hops (there must always be at least one
///   channel); later rings are searched over NVLink lanes only — a cycle
///   with a PCIe hop is bottlenecked at 12 GB/s, below any all-NVLink
///   cycle, and would end the packing if it won. So the NVLink lanes are
///   searched first, and the host path only when they hold no cycle.
///
/// # Panics
/// Panics if `gpus` has out-of-range or duplicate entries, or more than
/// [`MAX_RING_GPUS`] of them — callers reject such jobs where they enter
/// (the simulator does, with a typed error), so this is an invariant.
#[must_use]
pub fn pack_rings(topology: &Topology, gpus: &[usize]) -> RingSet {
    let mut rings = Vec::new();
    let host = pack(topology, gpus, |order, rate| {
        rings.push(Ring {
            order: order.to_vec(),
            bottleneck_gbps: rate.bottleneck_gbps,
            all_nvlink: rate.all_nvlink,
        });
    });
    if let Some(lanes) = host {
        let best = Search::best_cycle(&lanes, true).expect("the host path completes any cycle");
        let mut order = vec![0];
        order.extend_from_slice(&best.tail[..gpus.len() - 1]);
        rings.push(Ring {
            order,
            bottleneck_gbps: best.cycle.bottleneck,
            all_nvlink: best.cycle.all_nvlink,
        });
    }
    RingSet { rings }
}

/// The rates of [`pack_rings`]`(topology, gpus)`, in order, without
/// ordering a host ring: an allocation whose NVLink lanes hold no cycle
/// gets one ring at the host path's rate (see the module docs).
///
/// # Panics
/// Where [`pack_rings`] does.
#[must_use]
pub fn ring_rates(topology: &Topology, gpus: &[usize]) -> Vec<RingRate> {
    let mut rates = Vec::new();
    if pack(topology, gpus, |_, rate| rates.push(rate)).is_some() {
        rates.push(HOST_RING);
    }
    rates
}

/// Hands every NVLink channel of the allocation to `channel`, best first,
/// with its allocation-local order, and returns the lanes when a host ring
/// must follow — when there are 3 GPUs or more and their NVLink lanes hold
/// no cycle.
fn pack(
    topology: &Topology,
    gpus: &[usize],
    mut channel: impl FnMut(&[usize], RingRate),
) -> Option<Lanes> {
    let n = gpus.len();
    assert_ring_limit(n);
    if n < 2 {
        return None;
    }
    if n == 2 {
        let (channels, gbps) = nvlink_lanes(topology.link_type(gpus[0], gpus[1]));
        if channels == 0 {
            channel(&[0, 1], HOST_RING);
        }
        let rate = RingRate {
            bottleneck_gbps: gbps,
            all_nvlink: true,
        };
        for _ in 0..channels {
            channel(&[0, 1], rate);
        }
        return None;
    }
    let mut lanes = Lanes::build(topology, gpus);
    let mut order = [0; MAX_RING_GPUS];
    let mut found = false;
    while let Some(best) = Search::best_cycle(&lanes, false) {
        order[1..n].copy_from_slice(&best.tail[..n - 1]);
        lanes.claim(&order[..n]);
        found = true;
        let rate = RingRate {
            bottleneck_gbps: best.cycle.bottleneck,
            all_nvlink: true,
        };
        channel(&order[..n], rate);
    }
    (!found).then_some(lanes)
}

fn assert_ring_limit(n: usize) {
    assert!(
        n <= MAX_RING_GPUS,
        "exact ring packing supports at most {MAX_RING_GPUS} GPUs, got {n}"
    );
}

/// [`ring_rates`] results, memoised by the allocation's **ordered
/// link-type matrix** — one search per link pattern, not per job start.
///
/// The key is exact because the packing reads nothing else: `Lanes::build`
/// (and the `n == 2` branch) read only `link_type(gpus[i], gpus[j])` for
/// `i < j`, and the search speaks allocation-local indices. So two
/// allocations whose link types agree pair by pair, in order, pack to equal
/// rates. The key is that matrix: 2 bits per pair, row-major over `i < j`,
/// behind a leading 1 bit that fixes the pair count — at most 91 bits at
/// [`MAX_RING_GPUS`]. It names no GPU and no machine, so one entry serves
/// every set and every server with the same wiring, and it keeps the link
/// generation (an NVLink-v1 and an NVLink-v2 brick are different codes).
#[derive(Debug, Default)]
pub struct RingMemo {
    rates: HashMap<u128, Vec<RingRate>>,
}

impl RingMemo {
    /// `ring_rates(topology, gpus)`, searched only the first time its link
    /// pattern is seen.
    ///
    /// # Panics
    /// Where [`pack_rings`] does, hit or miss: more than [`MAX_RING_GPUS`]
    /// GPUs is refused before the key is built (from 12 GPUs on, the
    /// shifted key would silently collide), and `link_type` refuses an
    /// out-of-range or repeated GPU as its pair enters the key.
    pub fn rates(&mut self, topology: &Topology, gpus: &[usize]) -> &[RingRate] {
        assert_ring_limit(gpus.len());
        let mut key = 1u128;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                key = key << 2 | topology.link_type(a, b) as u128;
            }
        }
        self.rates
            .entry(key)
            .or_insert_with(|| ring_rates(topology, gpus))
    }
}

/// The pre-search packer — list every Hamiltonian cycle, score each against
/// a `Vec` of bricks, keep the first strictly better — kept verbatim as the
/// oracle [`pack_rings`] must equal, `order` included.
#[cfg(test)]
mod reference {
    use super::{Ring, RingSet};
    use mapa_topology::{LinkType, Topology};

    /// One brick (usable parallel lane) between a pair of allocation-local
    /// GPUs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Brick {
        /// Endpoint indices *within the allocation* (0..n), `a < b`.
        pub a: usize,
        /// Second endpoint.
        pub b: usize,
        /// Lane bandwidth in GB/s.
        pub bandwidth_gbps: f64,
        /// True for NVLink lanes, false for the PCIe fallback lane.
        pub nvlink: bool,
    }

    /// The brick multigraph of an allocation.
    #[derive(Debug, Clone)]
    pub struct BrickGraph {
        bricks: Vec<Brick>,
    }

    impl BrickGraph {
        /// Builds the brick multigraph for `gpus` (physical ids) on
        /// `topology`.
        pub fn build(topology: &Topology, gpus: &[usize]) -> Self {
            let n = gpus.len();
            let mut bricks = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    match topology.link_type(gpus[i], gpus[j]) {
                        LinkType::DoubleNvLink2 => {
                            for _ in 0..2 {
                                bricks.push(Brick {
                                    a: i,
                                    b: j,
                                    bandwidth_gbps: 25.0,
                                    nvlink: true,
                                });
                            }
                        }
                        LinkType::SingleNvLink2 => {
                            bricks.push(Brick {
                                a: i,
                                b: j,
                                bandwidth_gbps: 25.0,
                                nvlink: true,
                            });
                        }
                        LinkType::SingleNvLink1 => {
                            bricks.push(Brick {
                                a: i,
                                b: j,
                                bandwidth_gbps: 20.0,
                                nvlink: true,
                            });
                        }
                        LinkType::Pcie => {}
                    }
                    // The host path always exists, once per pair.
                    bricks.push(Brick {
                        a: i,
                        b: j,
                        bandwidth_gbps: 12.0,
                        nvlink: false,
                    });
                }
            }
            Self { bricks }
        }

        /// All remaining bricks.
        pub fn bricks(&self) -> &[Brick] {
            &self.bricks
        }

        /// Index of the best (highest-bandwidth) remaining brick between
        /// `a` and `b`, if any.
        fn best_brick(&self, a: usize, b: usize) -> Option<usize> {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            self.bricks
                .iter()
                .enumerate()
                .filter(|(_, brk)| brk.a == a && brk.b == b)
                .max_by(|(_, x), (_, y)| x.bandwidth_gbps.total_cmp(&y.bandwidth_gbps))
                .map(|(i, _)| i)
        }
    }

    pub fn pack_rings_reference(topology: &Topology, gpus: &[usize]) -> RingSet {
        let n = gpus.len();
        assert!(
            n <= 10,
            "exact ring packing supports at most 10 GPUs, got {n}"
        );
        if n < 2 {
            return RingSet { rings: vec![] };
        }

        let mut graph = BrickGraph::build(topology, gpus);

        if n == 2 {
            let nv: Vec<&Brick> = graph.bricks.iter().filter(|b| b.nvlink).collect();
            let rings = if nv.is_empty() {
                vec![Ring {
                    order: vec![0, 1],
                    bottleneck_gbps: 12.0,
                    all_nvlink: false,
                }]
            } else {
                nv.iter()
                    .map(|b| Ring {
                        order: vec![0, 1],
                        bottleneck_gbps: b.bandwidth_gbps,
                        all_nvlink: true,
                    })
                    .collect()
            };
            return RingSet { rings };
        }

        let cycles = hamiltonian_cycles(n);
        let mut rings = Vec::new();
        // (bottleneck, total, all_nvlink, cycle, brick indices) of the best
        // candidate ring in the current iteration.
        type Candidate<'a> = (f64, f64, bool, &'a Vec<usize>, Vec<usize>);
        loop {
            // Evaluate every cycle against the remaining bricks. A
            // Hamiltonian cycle on n >= 3 vertices visits each pair at most
            // once, so hops never compete for the same brick within one
            // cycle.
            let mut best: Option<Candidate<'_>> = None;
            for cycle in &cycles {
                let mut bricks_used = Vec::with_capacity(n);
                let mut bottleneck = f64::INFINITY;
                let mut total = 0.0;
                let mut all_nvlink = true;
                let mut feasible = true;
                for k in 0..n {
                    let (u, v) = (cycle[k], cycle[(k + 1) % n]);
                    match graph.best_brick(u, v) {
                        Some(idx) => {
                            let b = graph.bricks[idx];
                            bottleneck = bottleneck.min(b.bandwidth_gbps);
                            total += b.bandwidth_gbps;
                            all_nvlink &= b.nvlink;
                            bricks_used.push(idx);
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((bb, bt, _, _, _)) => {
                        bottleneck > *bb || (bottleneck == *bb && total > *bt)
                    }
                };
                if better {
                    best = Some((bottleneck, total, all_nvlink, cycle, bricks_used));
                }
            }

            let Some((bottleneck, _, all_nvlink, cycle, bricks_used)) = best else {
                break;
            };
            // After the first ring, only pure-NVLink channels are added.
            if !rings.is_empty() && !all_nvlink {
                break;
            }
            // Claim the bricks (remove from the multigraph, highest index
            // first).
            let mut idxs = bricks_used;
            idxs.sort_unstable_by(|a, b| b.cmp(a));
            for i in idxs {
                graph.bricks.swap_remove(i);
            }
            rings.push(Ring {
                order: cycle.clone(),
                bottleneck_gbps: bottleneck,
                all_nvlink,
            });
        }

        RingSet { rings }
    }

    /// All distinct Hamiltonian cycles on `n >= 3` labeled vertices, as
    /// vertex orders starting at 0 with second element < last (kills
    /// reflections): `(n-1)!/2` cycles.
    pub fn hamiltonian_cycles(n: usize) -> Vec<Vec<usize>> {
        assert!(n >= 3);
        let mut rest: Vec<usize> = (1..n).collect();
        let mut out = Vec::new();
        permute_collect(&mut rest, 0, &mut |perm| {
            if perm[0] < perm[n - 2] {
                let mut cycle = Vec::with_capacity(n);
                cycle.push(0);
                cycle.extend_from_slice(perm);
                out.push(cycle);
            }
        });
        out
    }

    fn permute_collect(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute_collect(v, k + 1, f);
            v.swap(k, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{hamiltonian_cycles, pack_rings_reference, BrickGraph};
    use super::*;
    use mapa_graph::Graph;
    use mapa_topology::machines;

    /// Aggregate sustained (bus) bandwidth: the sum of ring bottlenecks.
    fn total(rings: &RingSet) -> f64 {
        rings.rings.iter().map(|r| r.bottleneck_gbps).sum()
    }

    #[test]
    fn cycle_counts() {
        assert_eq!(hamiltonian_cycles(3).len(), 1);
        assert_eq!(hamiltonian_cycles(4).len(), 3);
        assert_eq!(hamiltonian_cycles(5).len(), 12);
        assert_eq!(hamiltonian_cycles(6).len(), 60);
    }

    #[test]
    fn two_gpu_channel_rules() {
        let dgx = machines::dgx1_v100();
        // Double NVLink pair (0,3): two 25 GB/s channels = 50.
        let d = pack_rings(&dgx, &[0, 3]);
        assert_eq!(d.rings.len(), 2);
        assert_eq!(total(&d), 50.0);
        // Single NVLink pair (0,1): one 25 GB/s channel.
        let s = pack_rings(&dgx, &[0, 1]);
        assert_eq!(total(&s), 25.0);
        // PCIe pair (0,5): the 12 GB/s fallback only.
        let p = pack_rings(&dgx, &[0, 5]);
        assert_eq!(total(&p), 12.0);
        assert!(!p.rings[0].all_nvlink);
    }

    #[test]
    fn fragmented_triple_is_pcie_bound() {
        // Paper §2.2: {0,1,4} needs PCIe between 1 and 4 — the single ring
        // through all three GPUs bottlenecks at 12 GB/s.
        let dgx = machines::dgx1_v100();
        let rs = pack_rings(&dgx, &[0, 1, 4]);
        assert_eq!(rs.rings.len(), 1);
        assert_eq!(rs.rings[0].bottleneck_gbps, 12.0);
    }

    #[test]
    fn ideal_triple_gets_nvlink_ring() {
        // Paper §2.2 ideal {0,2,3}: single NVLink 0-2 caps the ring at 25.
        let dgx = machines::dgx1_v100();
        let rs = pack_rings(&dgx, &[0, 2, 3]);
        assert!(rs.rings[0].all_nvlink);
        assert_eq!(rs.rings[0].bottleneck_gbps, 25.0);
        assert_eq!(total(&rs), 25.0);
    }

    #[test]
    fn quad_packs_two_nvlink_rings() {
        // Full quad {0,1,2,3} of DGX-1V: bricks allow two disjoint
        // all-NVLink Hamiltonian rings of bottleneck 25 each.
        let dgx = machines::dgx1_v100();
        let rs = pack_rings(&dgx, &[0, 1, 2, 3]);
        assert!(rs.rings.len() >= 2, "{rs:?}");
        assert!(rs.rings.iter().take(2).all(|r| r.all_nvlink));
        assert_eq!(total(&rs), 50.0);
    }

    #[test]
    fn summit_triple_all_double() {
        // Summit socket {0,1,2}: all pairs double NVLink → two rings of 25.
        let s = machines::summit();
        let rs = pack_rings(&s, &[0, 1, 2]);
        assert_eq!(rs.rings.len(), 2);
        assert_eq!(total(&rs), 50.0);
    }

    #[test]
    fn single_gpu_and_empty_have_no_rings() {
        let dgx = machines::dgx1_v100();
        assert!(pack_rings(&dgx, &[3]).rings.is_empty());
        assert!(pack_rings(&dgx, &[]).rings.is_empty());
    }

    #[test]
    fn brick_graph_counts() {
        let dgx = machines::dgx1_v100();
        // Pair (0,3) double: 2 NVLink bricks + 1 PCIe lane.
        let g = BrickGraph::build(&dgx, &[0, 3]);
        assert_eq!(g.bricks().len(), 3);
        assert_eq!(g.bricks().iter().filter(|b| b.nvlink).count(), 2);
        // Triangle {0,1,4}: (0,1) single + (0,4) double + (1,4) none
        //   = 3 NVLink bricks + 3 PCIe lanes.
        let t = BrickGraph::build(&dgx, &[0, 1, 4]);
        assert_eq!(t.bricks().iter().filter(|b| b.nvlink).count(), 3);
        assert_eq!(t.bricks().iter().filter(|b| !b.nvlink).count(), 3);
    }

    #[test]
    fn more_nvlink_never_hurts() {
        // Monotonicity: the ideal quad beats any fragmented 4-set.
        let dgx = machines::dgx1_v100();
        let ideal = total(&pack_rings(&dgx, &[0, 1, 2, 3]));
        let frag = total(&pack_rings(&dgx, &[0, 1, 4, 6]));
        assert!(ideal >= frag, "{ideal} < {frag}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Ring packing invariants over random allocations on the paper's
        /// machines: rings are Hamiltonian over the allocation, bottlenecks
        /// are at least PCIe-class, at most one ring uses PCIe, and total
        /// bus bandwidth never exceeds the allocation's brick capacity.
        #[test]
        fn packing_invariants(
            machine_idx in 0usize..3,
            pick in proptest::collection::vec(0usize..8, 2..6),
        ) {
            let machine = match machine_idx {
                0 => machines::dgx1_v100(),
                1 => machines::dgx1_p100(),
                _ => machines::summit(),
            };
            let n = machine.gpu_count();
            let mut gpus: Vec<usize> = vec![];
            for p in pick {
                let p = p % n;
                if !gpus.contains(&p) {
                    gpus.push(p);
                }
            }
            if gpus.len() < 2 {
                return Ok(());
            }
            let rs = pack_rings(&machine, &gpus);
            proptest::prop_assert!(!rs.rings.is_empty());
            let mut pcie_rings = 0;
            for ring in &rs.rings {
                let mut sorted = ring.order.clone();
                sorted.sort_unstable();
                proptest::prop_assert_eq!(sorted, (0..gpus.len()).collect::<Vec<_>>());
                proptest::prop_assert!(ring.bottleneck_gbps >= 12.0);
                if !ring.all_nvlink {
                    pcie_rings += 1;
                }
            }
            proptest::prop_assert!(pcie_rings <= 1, "only the first ring may ride PCIe");
            let capacity: f64 = BrickGraph::build(&machine, &gpus)
                .bricks()
                .iter()
                .map(|b| b.bandwidth_gbps)
                .sum();
            proptest::prop_assert!(total(&rs) <= capacity + 1e-9);
        }
    }

    #[test]
    fn rings_are_valid_permutations() {
        let dgx = machines::dgx1_v100();
        for gpus in [vec![0, 1, 2], vec![0, 1, 2, 3, 4], vec![2, 3, 5, 7]] {
            let rs = pack_rings(&dgx, &gpus);
            for ring in &rs.rings {
                let mut sorted = ring.order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..gpus.len()).collect::<Vec<_>>());
                assert!(ring.bottleneck_gbps >= 12.0);
            }
        }
    }

    /// Every `k`-subset of `0..n`, ascending, for `k` in `sizes`.
    fn subsets(n: usize, sizes: std::ops::RangeInclusive<usize>) -> Vec<Vec<usize>> {
        (0u32..1 << n)
            .filter(|mask| sizes.contains(&(mask.count_ones() as usize)))
            .map(|mask| (0..n).filter(|&g| mask >> g & 1 == 1).collect())
            .collect()
    }

    fn assert_matches_reference(machine: &Topology, gpus: &[usize]) {
        assert_eq!(
            pack_rings(machine, gpus),
            pack_rings_reference(machine, gpus),
            "{} {gpus:?}",
            machine.name()
        );
    }

    #[test]
    fn equals_reference_on_every_subset_of_the_paper_machines() {
        for machine in [
            machines::summit(),
            machines::dgx1_p100(),
            machines::dgx1_v100(),
        ] {
            for gpus in subsets(machine.gpu_count(), 2..=8) {
                assert_matches_reference(&machine, &gpus);
            }
        }
    }

    /// 5 000 seeded allocations of `machine`, in random GPU order (placements
    /// arrive unsorted). Sizes 2..=6 are equally likely, 7 half and 8 a
    /// sixth as likely as those: the reference costs ~(n-1)!·n³ per call, so
    /// a uniform draw would spend two unoptimized minutes on the 8-GPU
    /// samples alone.
    fn assert_matches_reference_on_sample(machine: &Topology) {
        // SplitMix64: the sample must be the same on every run.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = machine.gpu_count();
        for _ in 0..5_000 {
            let k = match (next() % 34) as usize {
                r @ 0..30 => 2 + r / 6,
                30..33 => 7,
                _ => 8,
            };
            // Partial Fisher–Yates: the first k entries are the allocation.
            let mut pool: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + (next() % (n - i) as u64) as usize;
                pool.swap(i, j);
            }
            assert_matches_reference(machine, &pool[..k]);
        }
    }

    #[test]
    fn equals_reference_on_sampled_dgx2_allocations() {
        assert_matches_reference_on_sample(&machines::dgx2());
    }

    #[test]
    fn equals_reference_on_sampled_torus_allocations() {
        assert_matches_reference_on_sample(&machines::torus_2d());
    }

    #[test]
    fn equals_reference_on_sampled_cube_mesh_allocations() {
        assert_matches_reference_on_sample(&machines::cube_mesh());
    }

    /// A machine whose pair `(a, b)`, in row-major order, has the link type
    /// `LinkType::all()[links[..]]`; the allocation is the whole machine.
    fn random_machine(n: usize, links: &[usize]) -> (Topology, Vec<usize>) {
        let mut graph = Graph::new(n);
        let mut link = links.iter();
        for a in 0..n {
            for b in (a + 1)..n {
                let kind = LinkType::all()[*link.next().expect("one draw per pair")];
                if kind != LinkType::Pcie {
                    graph.add_edge(a, b, kind).expect("each pair added once");
                }
            }
        }
        (Topology::new("random", graph, vec![0; n]), (0..n).collect())
    }

    // Random link graphs mixing all four link types: irregular lane counts
    // and 20-vs-25 GB/s ties are where a wrong prune or tie-break shows.
    // Two blocks because one 9-GPU reference call costs as much as a
    // thousand 6-GPU ones.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn equals_reference_on_random_small_link_graphs(
            n in 2usize..8,
            links in proptest::collection::vec(0usize..4, 21),
        ) {
            let (machine, gpus) = random_machine(n, &links);
            proptest::prop_assert_eq!(
                pack_rings(&machine, &gpus),
                pack_rings_reference(&machine, &gpus)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn equals_reference_on_random_large_link_graphs(
            n in 8usize..10,
            links in proptest::collection::vec(0usize..4, 36),
        ) {
            let (machine, gpus) = random_machine(n, &links);
            proptest::prop_assert_eq!(
                pack_rings(&machine, &gpus),
                pack_rings_reference(&machine, &gpus)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 10 GPUs, got 11")]
    fn more_than_max_ring_gpus_is_an_invariant_violation() {
        let gpus: Vec<usize> = (0..=MAX_RING_GPUS).collect();
        let _ = pack_rings(&machines::dgx2(), &gpus);
    }

    /// Every built-in machine, and a DGX-1 with two GPUs split into MIG
    /// slices.
    fn memo_machines() -> Vec<Topology> {
        let mut all = machines::all_machines();
        let mig = mapa_topology::PartitionPlan::new()
            .split(0, 4)
            .split(5, 2)
            .apply(&machines::dgx1_v100());
        all.push(mig);
        all
    }

    /// What pricing reads of [`pack_rings`]: each ring's bottleneck bits
    /// and link class, best first.
    fn priced(rates: &[RingRate]) -> Vec<(u64, bool)> {
        rates
            .iter()
            .map(|r| (r.bottleneck_gbps.to_bits(), r.all_nvlink))
            .collect()
    }

    fn packed_price(machine: &Topology, gpus: &[usize]) -> Vec<(u64, bool)> {
        priced(&pack_rings(machine, gpus).rates())
    }

    thread_local! {
        /// One memo for every case of the property below, across machines.
        static SHARED_MEMO: std::cell::RefCell<RingMemo> = std::cell::RefCell::default();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The memoised rates equal `pack_rings`' rates, ring by ring and
        /// bit for bit, whether the memo is cold (first sight of the
        /// pattern, or a hit left by another machine) or warm (asked
        /// again).
        #[test]
        fn ring_price_equals_pack_rings_on_every_machine(
            draws in proptest::collection::vec(
                (0usize..7, proptest::collection::vec(0usize..64, 0..11)),
                1..8,
            ),
        ) {
            let machines = memo_machines();
            for (machine, picks) in draws {
                let machine = &machines[machine % machines.len()];
                // Partial Fisher–Yates: distinct GPUs in random order.
                let n = machine.gpu_count();
                let mut pool: Vec<usize> = (0..n).collect();
                let k = picks.len().min(n);
                for (i, pick) in picks.iter().take(k).enumerate() {
                    pool.swap(i, i + pick % (n - i));
                }
                let gpus = &pool[..k];
                let expected = packed_price(machine, gpus);
                for pass in ["cold", "warm"] {
                    let rates =
                        SHARED_MEMO.with_borrow_mut(|memo| priced(memo.rates(machine, gpus)));
                    proptest::prop_assert_eq!(
                        &rates,
                        &expected,
                        "{} pass on {} {:?}",
                        pass,
                        machine.name(),
                        gpus
                    );
                }
            }
        }
    }

    /// Every 3- to 8-subset of the cube-mesh, the machine whose sets most
    /// often lack an NVLink ring: the unmemoised rates and a memo's, cold
    /// or warm, equal `pack_rings`' rates.
    #[test]
    fn ring_price_equals_pack_rings_on_every_cube_mesh_subset() {
        let cube_mesh = machines::cube_mesh();
        let mut memo = RingMemo::default();
        let (mut host_bound, mut multi_ring) = (0, 0);
        for gpus in subsets(cube_mesh.gpu_count(), 3..=8) {
            let expected = packed_price(&cube_mesh, &gpus);
            assert_eq!(priced(&ring_rates(&cube_mesh, &gpus)), expected, "{gpus:?}");
            assert_eq!(priced(memo.rates(&cube_mesh, &gpus)), expected, "{gpus:?}");
            host_bound += usize::from(!expected[0].1);
            multi_ring += usize::from(expected.len() > 1);
        }
        // Both branches of the shortcut are exercised.
        assert!(
            host_bound > 0 && multi_ring > 0,
            "{host_bound} {multi_ring}"
        );
    }

    #[test]
    #[should_panic(expected = "no self-links")]
    fn ring_memo_warm_hit_still_refuses_a_repeated_gpu() {
        // Warm the memo with the pattern [0, 1, 1] would have if a GPU's
        // pair with itself read as PCIe (as the diagonal of `pair_links`
        // does): link(0,1), link(0,1), then PCIe.
        let dgx = machines::dgx1_v100();
        let link = dgx.link_type(0, 1);
        let twin = (0..8)
            .flat_map(|a| (0..8).flat_map(move |b| (0..8).map(move |c| [a, b, c])))
            .find(|&[a, b, c]| {
                a != b
                    && a != c
                    && b != c
                    && dgx.link_type(a, b) == link
                    && dgx.link_type(a, c) == link
                    && dgx.link_type(b, c) == LinkType::Pcie
            })
            .expect("the DGX-1 has such a triple");
        let mut memo = RingMemo::default();
        let _ = memo.rates(&dgx, &twin);
        let _ = memo.rates(&dgx, &[0, 1, 1]);
    }

    /// Past [`MAX_RING_GPUS`] a key would shift its leading pairs out. Here
    /// the 12-GPU allocation's key, cut to 128 bits, is the key of its last
    /// ten GPUs: the pairs among them are PCIe, the 18 pairs before them
    /// too, then the one NVLink (GPU 1 – GPU 11) lands on the leading bit.
    #[test]
    #[should_panic(expected = "at most 10 GPUs, got 12")]
    fn ring_memo_warm_hit_still_refuses_more_than_max_ring_gpus() {
        let mut graph = Graph::new(12);
        graph
            .add_edge(1, 11, LinkType::SingleNvLink1)
            .expect("one edge");
        let machine = Topology::new("shifted", graph, vec![0; 12]);
        let gpus: Vec<usize> = (0..12).collect();
        let mut memo = RingMemo::default();
        let _ = memo.rates(&machine, &gpus[2..]);
        let _ = memo.rates(&machine, &gpus);
    }
}
