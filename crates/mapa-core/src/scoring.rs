//! Pattern scoring (paper §3.4–§3.5).
//!
//! Three scores rank a candidate match `M` of application pattern `P`:
//!
//! * **Aggregated Bandwidth** (Eq. 1): `Σ w(e)` over the hardware links the
//!   *application actually uses* — the images of `P`'s edges.
//! * **Predicted Effective Bandwidth** (Eq. 2): the regression model over
//!   the match's link mix `(x, y, z)`.
//! * **Preserved Bandwidth** (Eq. 3): `Σ w(e)` over the hardware graph that
//!   *remains* after deleting the matched vertices — what future jobs can
//!   still get.
//!
//! On MIG-partitioned machines a fourth term joins the ranking:
//! **co-residency pressure** ([`co_residency_pressure`]) — how many busy
//! slices already share the candidate vertices' physical GPUs. Slices on
//! one die contend for the same external links and memory bandwidth
//! (MoCA's framing), so policies subtract a pressure penalty from their
//! primary score, weighted heavier for SLO-tagged tenants
//! ([`pressure_penalty`]). On unpartitioned machines both terms are
//! exactly zero, leaving the paper's rankings bit-identical.
//!
//! Eq. 2, Eq. 3 and the pressure term are all sums over the vertices and
//! vertex pairs of the candidate set, so the built-in policies and
//! [`crate::MapaAllocator::score_allocation`] never build a graph to get
//! them: one `SetScorer` per decision tabulates the free part of the
//! machine and scores a set from its prefix in O(k). The free functions
//! below compute the same numbers from scratch; they stay for custom
//! policies and as the oracle the scorer is tested against.

use mapa_graph::{BitSet, Graph, PatternGraph, WeightedGraph};
use mapa_isomorph::Embedding;
use mapa_model::{corpus, EffBwModel};
use mapa_topology::{HardwareState, LinkMix, LinkType, Topology};
use mapa_workloads::JobSpec;

/// All scores for one candidate match, as used by the policies and logged
/// by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchScore {
    /// Eq. 1: aggregated bandwidth over used links (GB/s).
    pub aggregated_bw: f64,
    /// Eq. 2: predicted effective bandwidth from the link mix (GB/s).
    pub predicted_eff_bw: f64,
    /// Eq. 3: bandwidth remaining for future jobs after this allocation
    /// (GB/s), over the currently-free portion of the machine.
    pub preserved_bw: f64,
    /// The `(x, y, z)` link mix of the allocation (all pairs inside it).
    pub link_mix: LinkMix,
}

/// Eq. 1 — Aggregated Bandwidth: sum of hardware bandwidths over the
/// pattern's edges under `embedding` (pattern vertex `p` placed on
/// hardware vertex `embedding.image(p)`).
#[must_use]
pub fn aggregated_bandwidth(
    pattern: &PatternGraph,
    hardware: &WeightedGraph,
    embedding: &Embedding,
) -> f64 {
    embedding.mapped_edge_weight(pattern, hardware)
}

/// Eq. 2 — Predicted Effective Bandwidth of allocating `gpus`.
///
/// 1-GPU allocations have no inter-GPU traffic: scored 0.
///
/// The built-in policies no longer call this (a `SetScorer` memoizes the
/// model by link mix); it serves custom policies and the tests.
#[must_use]
pub fn predicted_effective_bandwidth(
    model: &EffBwModel,
    topology: &Topology,
    gpus: &[usize],
) -> f64 {
    if gpus.len() < 2 {
        return 0.0;
    }
    model.predict(&corpus::allocation_mix(topology, gpus))
}

/// Eq. 3 — Preserved Bandwidth: total link bandwidth of the hardware graph
/// induced by the *free* vertices that remain if `gpus` are allocated.
///
/// `free_graph` is the currently-available hardware graph (complete over
/// free GPUs) and `free_map` maps its vertex ids to physical GPU ids —
/// both as produced by `HardwareState::available_graph`.
///
/// Builds the induced graph of what remains, so it costs O(free²) and
/// allocates per call. The built-in policies and
/// [`crate::MapaAllocator::score_allocation`] no longer call it — a
/// `SetScorer` gets the same number from three running sums — and it
/// stays as the definition they are tested against.
///
/// # Panics
/// Panics if some `gpus` entry is not in `free_map` (allocating a busy
/// GPU is a state error upstream).
#[must_use]
pub fn preserved_bandwidth(free_graph: &WeightedGraph, free_map: &[usize], gpus: &[usize]) -> f64 {
    let mut removed = BitSet::new(free_graph.vertex_count());
    for &g in gpus {
        let local = free_map
            .iter()
            .position(|&phys| phys == g)
            .expect("allocated GPU must be free");
        removed.insert(local);
    }
    let (remaining, _) = free_graph.without_vertices(&removed);
    remaining.total_weight()
}

/// The complete graph over all GPUs as an unweighted pattern — the data
/// graph handed to the matcher (§3.2: hardware graphs are complete).
#[must_use]
pub fn matcher_data_graph(topology: &Topology) -> PatternGraph {
    Graph::complete(topology.gpu_count(), ())
}

/// Penalty in GB/s per busy co-resident slice for untagged jobs.
pub const PRESSURE_WEIGHT: f64 = 2.0;

/// Penalty in GB/s per busy co-resident slice for SLO-tagged jobs —
/// heavier, so placement spreads latency-critical tenants away from
/// saturated physical GPUs first.
pub const SLO_PRESSURE_WEIGHT: f64 = 6.0;

/// Co-residency / interference pressure of placing on `gpus`: the total
/// number of *busy* slices sharing a physical GPU with any candidate
/// vertex. Exactly `0.0` on unpartitioned machines, so the paper's
/// rankings are untouched there.
#[must_use]
pub fn co_residency_pressure(state: &HardwareState, gpus: &[usize]) -> f64 {
    gpus.iter().map(|&v| state.co_resident_busy(v) as f64).sum()
}

/// The pressure penalty a policy subtracts from its primary score:
/// [`co_residency_pressure`] weighted by [`SLO_PRESSURE_WEIGHT`] for
/// SLO-tagged jobs and [`PRESSURE_WEIGHT`] otherwise.
#[must_use]
pub fn pressure_penalty(job: &JobSpec, state: &HardwareState, gpus: &[usize]) -> f64 {
    pressure_weight(job) * co_residency_pressure(state, gpus)
}

/// GB/s charged to `job` per busy co-resident slice.
fn pressure_weight(job: &JobSpec) -> f64 {
    if job.has_slo() {
        SLO_PRESSURE_WEIGHT
    } else {
        PRESSURE_WEIGHT
    }
}

/// Which two-level score [`SetScorer::best_set`] maximises: the two
/// branches of the paper's Algorithm 1 and the EffBW-greedy ablation. Every
/// primary score is taken less the co-residency pressure penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ranking {
    /// Predicted EffBW, ties toward the most Preserved BW (sensitive jobs).
    EffBwThenPreserved,
    /// Preserved BW, ties toward the least Predicted EffBW (insensitive
    /// jobs).
    PreservedThenLeastEffBw,
    /// Predicted EffBW alone.
    EffBw,
}

/// Link types, as a table size: [`SetScorer`] counts links by
/// `LinkType as usize`.
const LINK_TYPES: usize = LinkType::all().len();

/// Scores candidate GPU sets of one decision without building a graph.
///
/// Built once per decision from the occupancy, over the machine's own
/// [`Topology::pair_links`] table: the free graph's total bandwidth `T`,
/// and per free vertex its bandwidth into all other free vertices
/// `deg_F(v)` and its busy co-residents. Eq. 2, Eq. 3 and the pressure
/// penalty are sums
/// over a set's vertices and pairs, so with `c[t]` the number of type-`t`
/// links inside `S`,
///
/// * `preserved(S) = T − Σ_{v∈S} deg_F(v) + Σ_t c[t]·bw(t)` (links with an
///   end in `S` leave the free graph; those with both ends there were
///   subtracted twice),
/// * `mix(S)` is `c` folded into `(x, y, z)`,
/// * `penalty(S) = weight · Σ_{v∈S} co-residents(v)`,
///
/// and adding one vertex to a prefix of `d` vertices updates all of it
/// with `d` table reads. The results equal the from-scratch functions of
/// this module bit for bit, not approximately: every bandwidth and both
/// pressure weights are small integers, so each sum is exact in `f64` in
/// any order, and the model sees the identical [`LinkMix`].
pub(crate) struct SetScorer<'a> {
    state: &'a HardwareState,
    model: &'a EffBwModel,
    /// Vertex count; `links` is the machine's `n × n` pair table, the
    /// per-vertex tables are `n` long, indexed by vertex id and meaningful
    /// for free vertices only.
    n: usize,
    /// Free vertices, ascending — eligible for the job or not: a slice a
    /// whole-GPU job may not use is still part of the free graph.
    free: Vec<usize>,
    links: &'a [LinkType],
    total: f64,
    degree: Vec<f64>,
    crowd: Vec<usize>,
    pressure_weight: f64,
}

/// The running sums of a vertex-set prefix.
#[derive(Clone, Copy, Default)]
struct Prefix {
    /// Links inside the prefix, by `LinkType as usize`.
    links: [usize; LINK_TYPES],
    /// `Σ deg_F(v)` over the prefix.
    degree: f64,
    /// `Σ co-residents(v)` over the prefix.
    crowd: usize,
}

impl<'a> SetScorer<'a> {
    /// Tabulates the free part of `state`'s machine for placing `job`
    /// (only its SLO tag is read: it selects the pressure weight).
    pub(crate) fn new(state: &'a HardwareState, model: &'a EffBwModel, job: &JobSpec) -> Self {
        let topology = state.topology();
        let n = topology.gpu_count();
        let free = state.free_gpus();
        let links = topology.pair_links();
        let mut degree = vec![0.0; n];
        let mut crowd = vec![0; n];
        let mut total = 0.0;
        for (i, &u) in free.iter().enumerate() {
            crowd[u] = state.co_resident_busy(u);
            for &v in &free[i + 1..] {
                let w = links[u * n + v].bandwidth_gbps();
                degree[u] += w;
                degree[v] += w;
                total += w;
            }
        }
        Self {
            state,
            model,
            n,
            free,
            links,
            total,
            degree,
            crowd,
            pressure_weight: pressure_weight(job),
        }
    }

    /// `prefix` plus the free vertex `v`, given the prefix's vertices.
    fn extend(&self, prefix: Prefix, members: &[usize], v: usize) -> Prefix {
        let mut next = prefix;
        next.degree += self.degree[v];
        next.crowd += self.crowd[v];
        for &u in members {
            next.links[self.links[u * self.n + v] as usize] += 1;
        }
        next
    }

    /// Eq. 3, the link mix and the pressure penalty of a whole set.
    fn finish(&self, set: Prefix) -> (f64, LinkMix, f64) {
        let mut mix = LinkMix::default();
        let mut inner = 0.0;
        for link in LinkType::all() {
            let count = set.links[link as usize];
            mix.add_many(link, count);
            inner += count as f64 * link.bandwidth_gbps();
        }
        (
            self.total - set.degree + inner,
            mix,
            self.pressure_weight * set.crowd as f64,
        )
    }

    /// Eq. 1 — Aggregated Bandwidth of the pattern `edges` under the
    /// assignment `gpus` (pattern vertex `p` on free GPU `gpus[p]`).
    ///
    /// An edgeless pattern (a 1-GPU job) scores `-0.0`, the empty `f64`
    /// sum, as [`aggregated_bandwidth`] does: the schedule digests hash
    /// this value's bits.
    pub(crate) fn aggregated_bandwidth(
        &self,
        edges: impl IntoIterator<Item = (usize, usize)>,
        gpus: &[usize],
    ) -> f64 {
        edges
            .into_iter()
            .map(|(p, q)| self.links[gpus[p] * self.n + gpus[q]].bandwidth_gbps())
            .sum()
    }

    /// [`pressure_penalty`] of placing on the free vertices `gpus`.
    pub(crate) fn pressure_penalty(&self, gpus: &[usize]) -> f64 {
        self.pressure_weight * gpus.iter().map(|&v| self.crowd[v]).sum::<usize>() as f64
    }

    /// All four scores of allocating `gpus` to a job with this `pattern`,
    /// Aggregated Bandwidth under the identity embedding onto `gpus`.
    ///
    /// # Panics
    /// Panics if some `gpus` entry is busy, out of range or listed twice.
    pub(crate) fn score(&self, pattern: &PatternGraph, gpus: &[usize]) -> MatchScore {
        let mut set = Prefix::default();
        for (i, &v) in gpus.iter().enumerate() {
            assert!(
                v < self.n && self.state.is_free(v),
                "allocated GPU must be free"
            );
            assert!(!gpus[..i].contains(&v), "GPU {v} allocated twice");
            set = self.extend(set, &gpus[..i], v);
        }
        let (preserved_bw, link_mix, _) = self.finish(set);
        MatchScore {
            aggregated_bw: self
                .aggregated_bandwidth(pattern.edges().map(|(p, q, ())| (p, q)), gpus),
            predicted_eff_bw: if gpus.len() < 2 {
                0.0
            } else {
                self.model.predict(&link_mix)
            },
            preserved_bw,
            link_mix,
        }
    }

    /// The `k`-subset of the free vertices passing `eligible` that
    /// maximises `ranking`, ties toward the lexicographically smallest
    /// set; `None` when there are fewer than `k` of them (or `k` is 0).
    ///
    /// A depth-first walk in lexicographic order, carrying the [`Prefix`]
    /// sums down: a step costs O(depth) and nothing is allocated per set.
    /// The first strictly better set wins, which is the tie-break.
    pub(crate) fn best_set(
        &self,
        ranking: Ranking,
        k: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let pool: Vec<usize> = self.free.iter().copied().filter(|&v| eligible(v)).collect();
        if k == 0 || k > pool.len() {
            return None;
        }
        let pairs = k * (k - 1) / 2;
        let mut walk = Walk {
            scorer: self,
            ranking,
            pool: &pool,
            chosen: vec![0; k],
            best: None,
            best_set: vec![0; k],
            memo_stride: pairs + 1,
            memo: vec![f64::NAN; (pairs + 1) * (pairs + 1)],
        };
        walk.descend(0, 0, Prefix::default());
        walk.best.map(|_| walk.best_set)
    }
}

/// The state of one [`SetScorer::best_set`] walk.
struct Walk<'a> {
    scorer: &'a SetScorer<'a>,
    ranking: Ranking,
    /// The candidate vertices, ascending.
    pool: &'a [usize],
    /// The current set; entries below the current depth are its prefix.
    chosen: Vec<usize>,
    best: Option<(f64, f64)>,
    best_set: Vec<usize>,
    /// `EffBwModel::predict` by `(x, y)` of the mix (`z` follows from the
    /// set size), NaN where not yet asked: many sets share a mix.
    memo: Vec<f64>,
    memo_stride: usize,
}

impl Walk<'_> {
    /// Visits every completion of the `depth`-vertex prefix in `chosen`
    /// (sums in `prefix`) that draws its next vertex from `pool[from..]`.
    fn descend(&mut self, depth: usize, from: usize, prefix: Prefix) {
        let k = self.chosen.len();
        // Leave room for the vertices still to come after this one.
        let until = self.pool.len() - (k - depth - 1);
        for i in from..until {
            let v = self.pool[i];
            let next = self.scorer.extend(prefix, &self.chosen[..depth], v);
            self.chosen[depth] = v;
            if depth + 1 == k {
                self.leaf(next);
            } else {
                self.descend(depth + 1, i + 1, next);
            }
        }
    }

    fn leaf(&mut self, set: Prefix) {
        let (preserved, mix, penalty) = self.scorer.finish(set);
        let eff_bw = if self.chosen.len() < 2 {
            0.0
        } else {
            let slot = &mut self.memo[mix.double_nvlink * self.memo_stride + mix.single_nvlink];
            if slot.is_nan() {
                *slot = self.scorer.model.predict(&mix);
            }
            *slot
        };
        let score = match self.ranking {
            Ranking::EffBwThenPreserved => (eff_bw - penalty, preserved),
            Ranking::PreservedThenLeastEffBw => (preserved - penalty, -eff_bw),
            Ranking::EffBw => (eff_bw - penalty, 0.0),
        };
        let better = match self.best {
            None => true,
            Some(best) => score.0 > best.0 || (score.0 == best.0 && score.1 > best.1),
        };
        if better {
            self.best = Some(score);
            self.best_set.copy_from_slice(&self.chosen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_graph::PatternGraph;
    use mapa_model::{corpus, EffBwModel};
    use mapa_topology::machines;

    fn dgx_model() -> EffBwModel {
        let dgx = machines::dgx1_v100();
        EffBwModel::fit(&corpus::build_corpus(&dgx, 2..=5)).unwrap()
    }

    #[test]
    fn fig10_aggregated_bandwidth_example() {
        // Fig. 10 / §2.2: a 3-GPU triangle on {GPU0, GPU1, GPU4}
        // aggregates 25 + 50 + 12 = 87 GB/s.
        let dgx = machines::dgx1_v100();
        let hw = dgx.bandwidth_graph();
        let pattern = PatternGraph::all_to_all(3);
        let e = Embedding::new(vec![0, 1, 4]);
        assert_eq!(aggregated_bandwidth(&pattern, &hw, &e), 87.0);
        // Ideal {0,2,3} = 125 GB/s.
        let ideal = Embedding::new(vec![0, 2, 3]);
        assert_eq!(aggregated_bandwidth(&pattern, &hw, &ideal), 125.0);
    }

    #[test]
    fn aggregated_bandwidth_depends_on_embedding_not_just_set() {
        // A chain 0-1-2 placed on {0,1,4}: orientation decides which two of
        // the three links are used.
        let dgx = machines::dgx1_v100();
        let hw = dgx.bandwidth_graph();
        let chain = PatternGraph::chain(3);
        // 0-1 (25) + 1-4 (12) = 37.
        let a = aggregated_bandwidth(&chain, &hw, &Embedding::new(vec![0, 1, 4]));
        // 1-0 (25) + 0-4 (50) = 75.
        let b = aggregated_bandwidth(&chain, &hw, &Embedding::new(vec![1, 0, 4]));
        assert_eq!(a, 37.0);
        assert_eq!(b, 75.0);
    }

    #[test]
    fn preserved_bandwidth_on_idle_machine() {
        // Fig. 10 (right): allocating {0,1,3} on DGX-1V leaves
        // {2,4,5,6,7}; preserved BW is that induced subgraph's weight.
        let dgx = machines::dgx1_v100();
        let free = dgx.bandwidth_graph();
        let map: Vec<usize> = (0..8).collect();
        let preserved = preserved_bandwidth(&free, &map, &[0, 1, 3]);
        // Induced {2,4,5,6,7}: NVLinks 2-6(25), 4-5(25), 4-6(25), 4-7(50),
        // 5-6(50), 5-7(25), 6-7(50) = 250; PCIe pairs: C(5,2)=10 pairs,
        // 3 PCIe (2-4, 2-5, 2-7) = 36. Total 286.
        assert_eq!(preserved, 286.0);
        // Allocating everything preserves nothing.
        assert_eq!(preserved_bandwidth(&free, &map, &map), 0.0);
        // Allocating nothing preserves the full graph.
        assert_eq!(preserved_bandwidth(&free, &map, &[]), free.total_weight());
    }

    #[test]
    fn preserved_bandwidth_respects_partial_occupancy() {
        // With GPUs 6,7 already busy, the free graph has 6 vertices;
        // allocating {0,1} preserves the induced {2,3,4,5} subgraph.
        let dgx = machines::dgx1_v100();
        let mut state = mapa_topology::HardwareState::new(dgx);
        state.allocate(99, &[6, 7]).unwrap();
        let (free, map) = state.available_graph();
        assert_eq!(map, vec![0, 1, 2, 3, 4, 5]);
        let p = preserved_bandwidth(&free, &map, &[0, 1]);
        // Induced {2,3,4,5}: NVLink 2-3 (50), 4-5 (25); PCIe ×4 = 48.
        assert_eq!(p, 123.0);
    }

    #[test]
    fn predicted_effbw_single_gpu_is_zero() {
        let dgx = machines::dgx1_v100();
        let model = dgx_model();
        assert_eq!(predicted_effective_bandwidth(&model, &dgx, &[3]), 0.0);
        assert!(predicted_effective_bandwidth(&model, &dgx, &[0, 3]) > 30.0);
    }

    #[test]
    #[should_panic(expected = "must be free")]
    fn preserved_bandwidth_rejects_busy_gpu() {
        let dgx = machines::dgx1_v100();
        let mut state = mapa_topology::HardwareState::new(dgx);
        state.allocate(1, &[0]).unwrap();
        let (free, map) = state.available_graph();
        let _ = preserved_bandwidth(&free, &map, &[0]);
    }

    #[test]
    fn link_speeds_and_pressure_weights_are_whole_numbers() {
        // `SetScorer` equals the from-scratch scores bit for bit only
        // because every term it adds is an integer, so `f64` sums are
        // exact whatever their order. A fractional link speed or pressure
        // weight must come with a fixed summation order shared by the
        // scorer and the functions it replaces.
        for link in LinkType::all() {
            assert_eq!(link.bandwidth_gbps().fract(), 0.0, "{link}");
        }
        assert_eq!(PRESSURE_WEIGHT.fract(), 0.0);
        assert_eq!(SLO_PRESSURE_WEIGHT.fract(), 0.0);
    }

    #[test]
    fn matcher_data_graph_is_complete() {
        let dgx = machines::dgx1_v100();
        let g = matcher_data_graph(&dgx);
        assert_eq!(g.vertex_count(), 8);
        assert_eq!(g.edge_count(), 28);
    }

    #[test]
    fn pressure_is_zero_on_unpartitioned_machines() {
        let dgx = machines::dgx1_v100();
        let mut state = mapa_topology::HardwareState::new(dgx);
        state.allocate(1, &[0, 1, 2]).unwrap();
        assert_eq!(co_residency_pressure(&state, &[3, 4]), 0.0);
        let job = mapa_workloads::JobSpec::new(
            1,
            mapa_workloads::GpuDemand::Slices(2),
            mapa_workloads::Workload::BertServing,
        )
        .with_slo(50.0);
        assert_eq!(pressure_penalty(&job, &state, &[3, 4]), 0.0);
    }

    #[test]
    fn pressure_counts_busy_co_residents_and_weights_slo() {
        use mapa_topology::PartitionPlan;
        use mapa_workloads::{GpuDemand, Workload};
        // GPU 0 → 4 slices (vertices 0..4), rest whole (4..=10).
        let topo = PartitionPlan::new()
            .split(0, 4)
            .apply(&machines::dgx1_v100());
        let mut state = mapa_topology::HardwareState::new(topo);
        state.allocate(1, &[0, 1]).unwrap();
        // Placing on free slices 2 and 3: each sees 2 busy co-residents.
        assert_eq!(co_residency_pressure(&state, &[2, 3]), 4.0);
        // A whole vertex sees none.
        assert_eq!(co_residency_pressure(&state, &[5]), 0.0);
        let plain = JobSpec::new(9, GpuDemand::Slices(2), Workload::ResNetServing);
        let tagged = plain.clone().with_slo(25.0);
        assert_eq!(pressure_penalty(&plain, &state, &[2, 3]), 8.0);
        assert_eq!(pressure_penalty(&tagged, &state, &[2, 3]), 24.0);
    }
}
