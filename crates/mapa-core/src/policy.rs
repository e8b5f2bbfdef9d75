//! Allocation policies (paper §3.5 and the §4 baselines).
//!
//! * [`BaselinePolicy`] — lowest free GPU ids, "how current GPU allocation
//!   \[is\] done in existing frameworks such as Nvidia Docker".
//! * [`TopoAwarePolicy`] — Amaral et al.'s recursive bi-partitioning:
//!   prefer allocations packed under one CPU socket / PCIe root.
//! * [`GreedyPolicy`] — MAPA matching + scoring, selecting the match with
//!   the highest *Aggregated* Bandwidth.
//! * [`PreservePolicy`] — the paper's Algorithm 1: bandwidth-sensitive jobs
//!   get the highest *Predicted Effective* Bandwidth match; insensitive
//!   jobs get the match that *preserves* the most bandwidth for the future.
//! * [`EffBwGreedyPolicy`] — ablation: highest Predicted EffBW for every
//!   job regardless of sensitivity.
//!
//! All policies are deterministic: score ties break toward the
//! lexicographically smallest GPU set.

use crate::scoring::{Ranking, SetScorer};
use mapa_model::EffBwModel;
use mapa_topology::{HardwareState, Topology};
use mapa_workloads::JobSpec;

/// Everything a policy may consult when placing a job.
pub struct PolicyContext<'a> {
    /// The machine.
    pub topology: &'a Topology,
    /// Current occupancy.
    pub state: &'a HardwareState,
    /// The Predicted-EffBW regression model.
    pub model: &'a EffBwModel,
    /// The decision's one [`SetScorer`], tabulated over `state` for the job
    /// being placed: the built-in MAPA policies rank candidates with it and
    /// the allocator scores the winner from the same tables.
    pub(crate) scorer: &'a SetScorer<'a>,
}

impl PolicyContext<'_> {
    /// Whether vertex `v` may host the job's demand: fractional
    /// ([`mapa_workloads::GpuDemand::Slices`]) demands may land on any
    /// vertex; whole-GPU demands never land on MIG slices. Identity on
    /// unpartitioned machines.
    #[must_use]
    pub fn demand_eligible(&self, job: &JobSpec, v: usize) -> bool {
        job.is_fractional() || self.topology.slice_map().is_none_or(|m| !m.is_slice(v))
    }

    /// Free vertices eligible for the job's demand, ascending. Equal to
    /// `state.free_gpus()` on unpartitioned machines.
    #[must_use]
    pub fn eligible_free(&self, job: &JobSpec) -> Vec<usize> {
        let free = self.state.free_gpus();
        if job.is_fractional() || !self.topology.is_partitioned() {
            return free;
        }
        free.into_iter()
            .filter(|&v| self.demand_eligible(job, v))
            .collect()
    }
}

/// A GPU-selection policy.
///
/// # Purity contract (allocation caching)
///
/// The allocation cache ([`crate::cache`]) memoizes selections keyed by
/// *(`topology`, GPU count, `bandwidth_sensitive`, demand kind, SLO-tagged,
/// free-GPU set)*. For cached and uncached paths to be equivalent, `select`
/// must be a deterministic function of exactly those inputs and the
/// allocator's own machine and model — it must not consult other
/// [`JobSpec`] fields (`id`, `workload`, `iterations`, the SLO *value*),
/// wall-clock time, or external state. Two policies with the same
/// [`AllocationPolicy::name`] must select alike, because the allocators of
/// a fleet that share a name, an equal machine and an equal model share
/// one decision table ([`crate::MapaAllocator::share_cache_with`]). A
/// policy that needs more inputs is still valid — run it with the cache
/// disabled (`AllocatorConfig::default()`, or `SimConfig { cached: false,
/// .. }` in the simulator, which otherwise caches by default).
pub trait AllocationPolicy: Send + Sync {
    /// Short name used in result tables ("baseline", "Preserve", …).
    fn name(&self) -> &'static str;

    /// Chooses physical GPUs for `job`, or `None` when the job cannot be
    /// placed right now. Implementations must only return free GPUs, and
    /// should honor the purity contract above (see trait docs) so the
    /// allocation cache stays sound.
    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>>;
}

/// The free vertex set maximising `ranking` for `job`, ties toward the
/// lexicographically smallest set.
///
/// The hardware graph is complete (§3.2), so every k-subset of eligible
/// free GPUs hosts every k-vertex pattern: the candidates are the
/// `C(free, k)` combinations, ranked by the context's [`SetScorer`]
/// (`None` when fewer than `k` eligible vertices are free).
fn best_set(job: &JobSpec, ctx: &PolicyContext<'_>, ranking: Ranking) -> Option<Vec<usize>> {
    ctx.scorer
        .best_set(ranking, job.num_gpus(), |v| ctx.demand_eligible(job, v))
}

/// The Nvidia-Docker-style baseline: the lowest-indexed free GPUs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselinePolicy;

impl AllocationPolicy for BaselinePolicy {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        let need = job.num_gpus();
        if need == 0 {
            return None;
        }
        let free = ctx.eligible_free(job);
        (free.len() >= need).then(|| free[..need].to_vec())
    }
}

/// Topology-aware recursive bi-partitioning (Amaral et al.): place the job
/// in the best-fitting socket (smallest free pool that still fits); when no
/// socket fits, span as few sockets as possible, fullest-socket first.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopoAwarePolicy;

impl AllocationPolicy for TopoAwarePolicy {
    fn name(&self) -> &'static str {
        "Topo-aware"
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        let need = job.num_gpus();
        if need == 0 || ctx.eligible_free(job).len() < need {
            return None;
        }
        let topo = ctx.topology;
        let mut per_socket: Vec<(usize, Vec<usize>)> = (0..topo.socket_count())
            .map(|s| {
                let free: Vec<usize> = topo
                    .gpus_in_socket(s)
                    .into_iter()
                    .filter(|&g| ctx.state.is_free(g) && ctx.demand_eligible(job, g))
                    .collect();
                (s, free)
            })
            .collect();

        // Best fit: the socket with the fewest free GPUs that still fits.
        if let Some((_, gpus)) = per_socket
            .iter()
            .filter(|(_, free)| free.len() >= need)
            .min_by_key(|(s, free)| (free.len(), *s))
        {
            return Some(gpus[..need].to_vec());
        }

        // Otherwise span sockets, taking from the fullest first to keep
        // the job on as few PCIe domains as possible.
        per_socket.sort_by(|(sa, fa), (sb, fb)| fb.len().cmp(&fa.len()).then(sa.cmp(sb)));
        let mut chosen = Vec::with_capacity(need);
        for (_, free) in &per_socket {
            for &g in free {
                if chosen.len() == need {
                    break;
                }
                chosen.push(g);
            }
        }
        (chosen.len() == need).then(|| {
            chosen.sort_unstable();
            chosen
        })
    }
}

/// MAPA with greedy Aggregated-Bandwidth selection (§4's "Greedy").
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPolicy;

impl AllocationPolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        best_set(job, ctx, Ranking::Aggregated(job.topology))
    }
}

/// The paper's Preserve policy (Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct PreservePolicy;

impl AllocationPolicy for PreservePolicy {
    fn name(&self) -> &'static str {
        "Preserve"
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        let ranking = if job.bandwidth_sensitive {
            // Primary: Predicted EffBW (Algorithm 1), less the co-residency
            // pressure penalty (zero on unpartitioned machines). Ties —
            // frequent, since many placements share a link mix — break
            // toward the one preserving the most bandwidth for later jobs.
            Ranking::EffBwThenPreserved
        } else {
            // Primary: Preserved BW (Algorithm 1), less the pressure
            // penalty. Ties break toward the placement consuming the least
            // effective bandwidth itself.
            Ranking::PreservedThenLeastEffBw
        };
        best_set(job, ctx, ranking)
    }
}

/// Ablation policy: Predicted-EffBW-greedy for *every* job (ignores the
/// sensitivity annotation). Isolates the contribution of bandwidth
/// preservation from the contribution of EffBW-based scoring.
#[derive(Debug, Clone, Copy, Default)]
pub struct EffBwGreedyPolicy;

impl AllocationPolicy for EffBwGreedyPolicy {
    fn name(&self) -> &'static str {
        "EffBW-greedy"
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        best_set(job, ctx, Ranking::EffBw)
    }
}

/// Names accepted by [`allocation_policy_by_name`], in documentation
/// order (canonical spellings; the lookup also accepts the common
/// unhyphenated variants).
pub const ALLOCATION_POLICY_NAMES: [&str; 5] = [
    "baseline",
    "topo-aware",
    "greedy",
    "preserve",
    "effbw-greedy",
];

/// Resolves an allocation policy from its CLI spelling (what
/// `mapa-sched --policy`, campaign grids, and the agent accept).
/// Case-insensitive; returns `None` for unknown names.
#[must_use]
pub fn allocation_policy_by_name(name: &str) -> Option<Box<dyn AllocationPolicy>> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" => Some(Box::new(BaselinePolicy)),
        "topo-aware" | "topoaware" => Some(Box::new(TopoAwarePolicy)),
        "greedy" => Some(Box::new(GreedyPolicy)),
        "preserve" | "preservation" => Some(Box::new(PreservePolicy)),
        "effbw-greedy" | "effbwgreedy" => Some(Box::new(EffBwGreedyPolicy)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appgraph;
    use crate::scoring::{self, MatchScore};
    use crate::MapaAllocator;
    use mapa_graph::{BitSet, Graph, PatternGraph};
    use mapa_isomorph::{Backend, DedupMode, Embedding, MatchOptions, Matcher};
    use mapa_model::{corpus, paper_coefficients};
    use mapa_topology::{machines, PartitionPlan};
    use mapa_workloads::{AppTopology, GpuDemand, Workload};
    use std::sync::OnceLock;

    /// Oracle: streams every candidate vertex set (ascending GPU lists) in
    /// lexicographic order — the walk `SetScorer::best_set` must reproduce.
    fn for_each_candidate_set(
        job: &JobSpec,
        ctx: &PolicyContext<'_>,
        mut visit: impl FnMut(&[usize]),
    ) {
        let k = job.num_gpus();
        let free = ctx.eligible_free(job);
        if k == 0 || k > free.len() {
            return;
        }
        let mut idx: Vec<usize> = (0..k).collect();
        let mut current: Vec<usize> = idx.iter().map(|&i| free[i]).collect();
        loop {
            visit(&current);
            // Advance to the next combination.
            let mut i = k;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                if idx[i] != i + free.len() - k {
                    break;
                }
            }
            idx[i] += 1;
            for j in (i + 1)..k {
                idx[j] = idx[j - 1] + 1;
            }
            for (slot, &i) in current.iter_mut().zip(&idx) {
                *slot = free[i];
            }
        }
    }

    /// Oracle: the vertex set maximizing a two-level score over the
    /// candidate-set stream, first strictly better set wins.
    fn argmax_set_by_score2(
        job: &JobSpec,
        ctx: &PolicyContext<'_>,
        mut score: impl FnMut(&[usize]) -> (f64, f64),
    ) -> Option<Vec<usize>> {
        let mut best: Option<((f64, f64), Vec<usize>)> = None;
        for_each_candidate_set(job, ctx, |set| {
            let s = score(set);
            let better = match &best {
                None => true,
                Some((bs, _)) => s.0 > bs.0 || (s.0 == bs.0 && s.1 > bs.1),
            };
            if better {
                best = Some((s, set.to_vec()));
            }
        });
        best.map(|(_, set)| set)
    }

    /// Oracle: what the set-scored policies selected before `SetScorer` —
    /// every candidate scored from scratch, Preserved BW by building the
    /// graph that remains.
    fn oracle_best_set(
        job: &JobSpec,
        ctx: &PolicyContext<'_>,
        ranking: Ranking,
    ) -> Option<Vec<usize>> {
        let (free_graph, free_map) = ctx.state.available_graph();
        let eff_bw =
            |gpus: &[usize]| scoring::predicted_effective_bandwidth(ctx.model, ctx.topology, gpus);
        let penalty = |gpus: &[usize]| scoring::pressure_penalty(job, ctx.state, gpus);
        let preserved = |gpus: &[usize]| scoring::preserved_bandwidth(&free_graph, &free_map, gpus);
        argmax_set_by_score2(job, ctx, |gpus| match ranking {
            Ranking::EffBwThenPreserved => (eff_bw(gpus) - penalty(gpus), preserved(gpus)),
            Ranking::PreservedThenLeastEffBw => (preserved(gpus) - penalty(gpus), -eff_bw(gpus)),
            Ranking::EffBw => (eff_bw(gpus) - penalty(gpus), 0.0),
            Ranking::Aggregated(_) => unreachable!("Greedy's oracle is `oracle_greedy`"),
        })
    }

    /// The matcher's frozen mask for `job` on `state`: busy vertices, plus
    /// slice vertices when the job wants whole GPUs.
    fn eligible_frozen(job: &JobSpec, state: &HardwareState) -> BitSet {
        let mut frozen = state.frozen_mask();
        if let (false, Some(m)) = (job.is_fractional(), state.topology().slice_map()) {
            for v in (0..m.vertex_count()).filter(|&v| m.is_slice(v)) {
                frozen.insert(v);
            }
        }
        frozen
    }

    /// Oracle: Greedy as it was before the set walk — every embedding of
    /// the job's pattern into the free eligible vertices streamed through
    /// `matcher`, scored by its Aggregated BW less the pressure penalty,
    /// score ties toward the lexicographically smallest GPU set.
    fn oracle_greedy(
        matcher: &Matcher,
        data_graph: &PatternGraph,
        job: &JobSpec,
        state: &HardwareState,
    ) -> Option<Vec<usize>> {
        if job.num_gpus() == 0 {
            return None;
        }
        let pattern = appgraph::job_pattern(job);
        let frozen = eligible_frozen(job, state);
        let topology = state.topology();
        let edges: Vec<(usize, usize)> = pattern.edges().map(|(p, q, ())| (p, q)).collect();
        let mut best: Option<(f64, Vec<usize>)> = None;
        matcher.for_each_with_frozen(&pattern, data_graph, Some(&frozen), &mut |m| {
            let aggregated: f64 = edges
                .iter()
                .map(|&(p, q)| topology.bandwidth(m[p], m[q]))
                .sum();
            let score = aggregated - scoring::pressure_penalty(job, state, m);
            let mut set = m.to_vec();
            set.sort_unstable();
            if best
                .as_ref()
                .is_none_or(|(b, bset)| score > *b || (score == *b && set < *bset))
            {
                best = Some((score, set));
            }
            true
        });
        best.map(|(_, set)| set)
    }

    /// Oracle: `MapaAllocator::score_allocation` as it was before
    /// `SetScorer` — `available_graph` plus three graph walks.
    fn oracle_score(allocator: &MapaAllocator, job: &JobSpec, gpus: &[usize]) -> MatchScore {
        let (free_graph, free_map) = allocator.state().available_graph();
        MatchScore {
            aggregated_bw: scoring::aggregated_bandwidth(
                &appgraph::job_pattern(job),
                &allocator.topology().bandwidth_graph(),
                &Embedding::new(gpus.to_vec()),
            ),
            predicted_eff_bw: scoring::predicted_effective_bandwidth(
                allocator.model(),
                allocator.topology(),
                gpus,
            ),
            preserved_bw: scoring::preserved_bandwidth(&free_graph, &free_map, gpus),
            link_mix: corpus::allocation_mix(allocator.topology(), gpus),
        }
    }

    const RANKINGS: [Ranking; 3] = [
        Ranking::EffBwThenPreserved,
        Ranking::PreservedThenLeastEffBw,
        Ranking::EffBw,
    ];

    /// The machines of the walk ≡ oracle grid, models fitted once: the six
    /// built-in servers and a DGX-1 V100 with GPU 0 in four MIG slices and
    /// GPU 1 in two (vertices 0..4 and 4..6; 6..12 are whole GPUs).
    fn grid_machines() -> &'static [Fixture] {
        static GRID: OnceLock<Vec<Fixture>> = OnceLock::new();
        GRID.get_or_init(|| {
            let mig = PartitionPlan::new().split(0, 4).split(1, 2);
            vec![
                Fixture::of(machines::summit()),
                Fixture::of(machines::dgx1_p100()),
                Fixture::of(machines::dgx1_v100()),
                Fixture::of(machines::dgx2()),
                Fixture::of(machines::torus_2d()),
                Fixture::of(machines::cube_mesh()),
                Fixture::of(mig.apply(&machines::dgx1_v100())),
            ]
        })
    }

    /// The vertices bit-set in `mask`, topped up from the highest vertex
    /// down until at most `max_free` are free (the oracle builds a graph
    /// per candidate set; this bounds the sets, not the walk).
    fn busy_vertices(n: usize, mask: u64, max_free: usize) -> Vec<usize> {
        let mut busy: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        for v in (0..n).rev() {
            if n - busy.len() <= max_free {
                break;
            }
            if !busy.contains(&v) {
                busy.push(v);
            }
        }
        busy
    }

    /// A `k`-vertex job of demand kind 0 = whole GPUs, 1 = slices,
    /// 2 = SLO-tagged slices.
    fn grid_job(k: usize, kind: usize) -> JobSpec {
        match kind {
            0 => job(k, false),
            1 => JobSpec::new(1, GpuDemand::Slices(k), Workload::ResNet50),
            _ => JobSpec::new(1, GpuDemand::Slices(k), Workload::BertServing).with_slo(25.0),
        }
    }

    const SHAPES: [AppTopology; 4] = [
        AppTopology::Ring,
        AppTopology::Tree,
        AppTopology::RingTree,
        AppTopology::AllToAll,
    ];

    /// Asserts, on `machine` with `busy` occupied, that every ranking's
    /// walk selects what the oracle selects for `spec`, and that
    /// `score_allocation` prices those selections (and the highest
    /// eligible set) as its old body did; up to 6 GPUs, also that Greedy
    /// selects what the embedding stream does, for every pattern shape.
    fn assert_walk_matches_oracle(machine: &Fixture, busy: &[usize], spec: &JobSpec) {
        let mut allocator = MapaAllocator::with_model(
            machine.topology.clone(),
            Box::new(PreservePolicy),
            machine.model.clone(),
        );
        for (i, &v) in busy.iter().enumerate() {
            allocator.adopt(100 + i as u64, &[v]).unwrap();
        }
        let scorer = SetScorer::new(allocator.state(), &machine.model, spec);
        let ctx = machine.ctx(allocator.state(), &scorer);
        let what = format!(
            "{} busy {busy:?} job {:?} slo {}",
            machine.topology.name(),
            spec.demand,
            spec.has_slo()
        );
        let eligible = ctx.eligible_free(spec);
        let mut sets = Vec::new();
        if let Some(from) = eligible.len().checked_sub(spec.num_gpus()) {
            sets.push(eligible[from..].to_vec());
        }
        for ranking in RANKINGS {
            let walked = best_set(spec, &ctx, ranking);
            assert_eq!(
                walked,
                oracle_best_set(spec, &ctx, ranking),
                "{ranking:?} on {what}"
            );
            sets.extend(walked);
        }
        if spec.num_gpus() <= 6 {
            for shape in SHAPES {
                let shaped = spec.clone().with_topology(shape);
                let scorer = SetScorer::new(allocator.state(), &machine.model, &shaped);
                let ctx = machine.ctx(allocator.state(), &scorer);
                let oracle = machine.oracle_greedy(&shaped, allocator.state());
                assert_eq!(
                    GreedyPolicy.select(&shaped, &ctx),
                    oracle,
                    "{shape} on {what}"
                );
            }
        }
        for gpus in &sets {
            let (score, oracle) = (
                allocator.score_allocation(spec, gpus),
                oracle_score(&allocator, spec, gpus),
            );
            assert_eq!(score, oracle, "score of {gpus:?} on {what}");
            // The schedule digests hash this one's bits (-0.0 for 1 GPU).
            assert_eq!(
                score.aggregated_bw.to_bits(),
                oracle.aggregated_bw.to_bits()
            );
        }
    }

    struct Fixture {
        topology: Topology,
        state: HardwareState,
        model: EffBwModel,
        /// Greedy's oracle enumerates embeddings with this matcher into the
        /// complete graph over every vertex.
        matcher: Matcher,
        data_graph: PatternGraph,
    }

    impl Fixture {
        fn dgx() -> Self {
            Self::of(machines::dgx1_v100())
        }

        fn of(topology: Topology) -> Self {
            let model = EffBwModel::fit(&corpus::build_corpus(&topology, 2..=5))
                .unwrap_or_else(|_| EffBwModel::from_coefficients(paper_coefficients()));
            Self {
                state: HardwareState::new(topology.clone()),
                data_graph: Graph::complete(topology.gpu_count(), ()),
                matcher: Matcher::default(),
                model,
                topology,
            }
        }

        /// The decision context `MapaAllocator::select_for` builds: this
        /// fixture's parts around a scorer tabulated over `state`.
        fn ctx<'a>(
            &'a self,
            state: &'a HardwareState,
            scorer: &'a SetScorer<'a>,
        ) -> PolicyContext<'a> {
            PolicyContext {
                topology: &self.topology,
                state,
                model: &self.model,
                scorer,
            }
        }

        /// `policy`'s selection for `job` on this fixture's occupancy.
        fn select<P: AllocationPolicy + ?Sized>(
            &self,
            policy: &P,
            job: &JobSpec,
        ) -> Option<Vec<usize>> {
            let scorer = SetScorer::new(&self.state, &self.model, job);
            policy.select(job, &self.ctx(&self.state, &scorer))
        }

        /// [`oracle_greedy`] with this fixture's matcher, on `state`.
        fn oracle_greedy(&self, job: &JobSpec, state: &HardwareState) -> Option<Vec<usize>> {
            oracle_greedy(&self.matcher, &self.data_graph, job, state)
        }
    }

    fn job(n: usize, sensitive: bool) -> JobSpec {
        let workload = if sensitive {
            Workload::Vgg16
        } else {
            Workload::GoogleNet
        };
        JobSpec::new(1, GpuDemand::Whole(n), workload)
            .with_bandwidth_sensitive(sensitive)
            .with_iterations(100)
    }

    #[test]
    fn baseline_takes_lowest_ids() {
        let mut f = Fixture::dgx();
        let got = f.select(&BaselinePolicy, &job(3, true)).unwrap();
        assert_eq!(got, vec![0, 1, 2]);
        f.state.allocate(9, &[0, 2]).unwrap();
        let got = f.select(&BaselinePolicy, &job(3, true)).unwrap();
        assert_eq!(got, vec![1, 3, 4]);
    }

    #[test]
    fn baseline_rejects_oversized() {
        let f = Fixture::dgx();
        assert!(f.select(&BaselinePolicy, &job(9, true)).is_none());
        assert!(f.select(&BaselinePolicy, &job(0, true)).is_none());
    }

    #[test]
    fn topo_aware_prefers_single_socket() {
        let mut f = Fixture::dgx();
        // Occupy 2 GPUs of socket 0; a 4-GPU job must go to socket 1.
        f.state.allocate(9, &[0, 1]).unwrap();
        let got = f.select(&TopoAwarePolicy, &job(4, true)).unwrap();
        assert_eq!(got, vec![4, 5, 6, 7]);
        // A 2-GPU job best-fits in socket 0's remaining pair.
        let got2 = f.select(&TopoAwarePolicy, &job(2, true)).unwrap();
        assert_eq!(got2, vec![2, 3]);
    }

    #[test]
    fn topo_aware_spans_sockets_when_needed() {
        let mut f = Fixture::dgx();
        f.state.allocate(9, &[0, 1, 4, 5]).unwrap();
        // 3 free in no single socket... each socket has 2 free; a 3-GPU
        // job must span.
        let got = f.select(&TopoAwarePolicy, &job(3, true)).unwrap();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&g| f.state.is_free(g)));
    }

    #[test]
    fn greedy_picks_max_aggregated_bandwidth() {
        let f = Fixture::dgx();
        // 2-GPU ring: the best pair by AggBW is any double-NVLink pair
        // (50); (0,3) is the lexicographically-first such pair.
        let got = f.select(&GreedyPolicy, &job(2, true)).unwrap();
        let bw = f.topology.bandwidth(got[0], got[1]);
        assert_eq!(bw, 50.0, "greedy must land on a double link, got {got:?}");
    }

    #[test]
    fn preserve_sensitive_maximizes_predicted_effbw() {
        let f = Fixture::dgx();
        let got = f.select(&PreservePolicy, &job(2, true)).unwrap();
        // Best predicted EffBW pair is a double-NVLink pair.
        assert_eq!(f.topology.bandwidth(got[0], got[1]), 50.0);
    }

    #[test]
    fn preserve_insensitive_maximizes_remaining_bandwidth() {
        // Eq. 3 semantics, checked against brute force: removing a pair
        // destroys all links incident to both GPUs minus their shared
        // link counted once — so the policy prefers pairs whose *mutual*
        // link is strong (it would be stranded anyway) and whose outward
        // links are weak.
        let f = Fixture::dgx();
        let got = f.select(&PreservePolicy, &job(2, false)).unwrap();
        let (free_graph, free_map) = f.state.available_graph();
        let chosen = scoring::preserved_bandwidth(&free_graph, &free_map, &got);
        let mut best = f64::NEG_INFINITY;
        for a in 0..8 {
            for b in (a + 1)..8 {
                best = best.max(scoring::preserved_bandwidth(
                    &free_graph,
                    &free_map,
                    &[a, b],
                ));
            }
        }
        assert_eq!(
            chosen, best,
            "policy choice {got:?} must attain the optimum"
        );
        // On DGX-1V the optimum is a double-NVLink pair: the 50 GB/s
        // mutual link is consumed "for free".
        assert_eq!(f.topology.bandwidth(got[0], got[1]), 50.0);
    }

    #[test]
    fn preserve_beats_greedy_for_followup_sensitive_job() {
        // The paper's core scenario: an insensitive job arrives first;
        // Preserve parks it on slow links so a later sensitive job still
        // finds fast ones. Greedy burns the fast links immediately.
        let jobs = [job(2, false), job(2, true)];

        let mut greedy_world = Fixture::dgx();
        let g1 = greedy_world.select(&GreedyPolicy, &jobs[0]).unwrap();
        greedy_world.state.allocate(1, &g1).unwrap();
        let g2 = greedy_world.select(&GreedyPolicy, &jobs[1]).unwrap();

        let mut preserve_world = Fixture::dgx();
        let p1 = preserve_world.select(&PreservePolicy, &jobs[0]).unwrap();
        preserve_world.state.allocate(1, &p1).unwrap();
        let p2 = preserve_world.select(&PreservePolicy, &jobs[1]).unwrap();

        let greedy_bw = greedy_world.topology.bandwidth(g2[0], g2[1]);
        let preserve_bw = preserve_world.topology.bandwidth(p2[0], p2[1]);
        assert!(
            preserve_bw >= greedy_bw,
            "preserve {preserve_bw} must not be worse than greedy {greedy_bw}"
        );
    }

    #[test]
    fn policies_only_return_free_gpus() {
        let mut f = Fixture::dgx();
        f.state.allocate(9, &[1, 3, 5]).unwrap();
        let policies: Vec<Box<dyn AllocationPolicy>> = vec![
            Box::new(BaselinePolicy),
            Box::new(TopoAwarePolicy),
            Box::new(GreedyPolicy),
            Box::new(PreservePolicy),
            Box::new(EffBwGreedyPolicy),
        ];
        for p in &policies {
            for n in 1..=5 {
                if let Some(gpus) = f.select(p.as_ref(), &job(n, true)) {
                    assert_eq!(gpus.len(), n, "{}", p.name());
                    assert!(
                        gpus.iter().all(|&g| f.state.is_free(g)),
                        "{} returned busy GPU: {gpus:?}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn single_gpu_jobs_always_placeable_until_full() {
        let mut f = Fixture::dgx();
        for i in 0..8 {
            let gpus = f.select(&PreservePolicy, &job(1, false)).unwrap();
            f.state.allocate(i, &gpus).unwrap();
        }
        assert!(f.select(&PreservePolicy, &job(1, false)).is_none());
    }

    #[test]
    fn candidate_set_stream_matches_matcher_dedup() {
        // On a complete data graph, the combination fast path must visit
        // exactly the vertex sets the matcher would find.
        let mut f = Fixture::dgx();
        f.state.allocate(9, &[2, 6]).unwrap();
        let spec = job(3, true);
        let scorer = SetScorer::new(&f.state, &f.model, &spec);
        let ctx = f.ctx(&f.state, &scorer);
        let mut streamed: Vec<Vec<usize>> = vec![];
        for_each_candidate_set(&spec, &ctx, |set| streamed.push(set.to_vec()));
        let frozen = eligible_frozen(&spec, &f.state);
        let mut via_matcher: Vec<Vec<usize>> = f
            .matcher
            .find_with_frozen(&appgraph::job_pattern(&spec), &f.data_graph, Some(&frozen))
            .into_iter()
            .map(|e| e.vertex_set())
            .collect();
        via_matcher.sort();
        via_matcher.dedup();
        let mut streamed_sorted = streamed.clone();
        streamed_sorted.sort();
        assert_eq!(streamed_sorted, via_matcher);
        // C(6,3) = 20 candidate sets with 2 GPUs busy.
        assert_eq!(streamed.len(), 20);
    }

    #[test]
    fn set_walk_matches_oracle_on_every_dgx1_occupancy() {
        let dgx = &grid_machines()[2];
        for mask in 0..1u64 << 8 {
            let busy = busy_vertices(8, mask, 8);
            for k in 1..=8 - busy.len() {
                assert_walk_matches_oracle(dgx, &busy, &job(k, true));
            }
        }
    }

    #[test]
    fn set_walk_counts_ineligible_free_slices_in_the_free_graph() {
        // A whole-GPU job may not land on the free slices, yet they are
        // part of the graph Eq. 3 sums: every slice inherits its GPU's
        // NVLinks, so a whole GPU wired to a split one strands one link
        // per free slice. Summing `deg_F` over the eligible vertices alone
        // misses those links and picks differently here.
        let mig = &grid_machines()[6];
        for k in 1..=4 {
            assert_walk_matches_oracle(mig, &[0, 4, 8], &grid_job(k, 0));
        }
    }

    /// DGX-1V with GPU 0 split into 4 MIG slices: vertices 0..4 are the
    /// slices, 4..11 the remaining whole GPUs.
    fn partitioned() -> Fixture {
        let plan = PartitionPlan::new().split(0, 4);
        Fixture::of(plan.apply(&machines::dgx1_v100()))
    }

    #[test]
    fn whole_jobs_never_land_on_slices() {
        let f = partitioned();
        let map = f.topology.slice_map().unwrap().clone();
        let policies: Vec<Box<dyn AllocationPolicy>> = vec![
            Box::new(BaselinePolicy),
            Box::new(TopoAwarePolicy),
            Box::new(GreedyPolicy),
            Box::new(PreservePolicy),
            Box::new(EffBwGreedyPolicy),
        ];
        for p in &policies {
            for n in 1..=4 {
                let gpus = f
                    .select(p.as_ref(), &job(n, true))
                    .unwrap_or_else(|| panic!("{} refused a {n}-GPU whole job", p.name()));
                assert!(
                    gpus.iter().all(|&v| !map.is_slice(v)),
                    "{} put a whole-GPU job on a slice: {gpus:?}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn fractional_jobs_may_use_slices() {
        let mut f = partitioned();
        // Occupy every whole GPU; only the four slices of phys 0 are free.
        f.state.allocate(9, &[4, 5, 6, 7, 8, 9, 10]).unwrap();
        let spec = JobSpec::new(1, GpuDemand::Slices(2), Workload::ResNet50);
        assert!(
            f.select(&PreservePolicy, &job(2, true)).is_none(),
            "whole jobs must not fall back to slices"
        );
        for p in [
            Box::new(GreedyPolicy) as Box<dyn AllocationPolicy>,
            Box::new(PreservePolicy),
        ] {
            let gpus = f.select(p.as_ref(), &spec).unwrap();
            assert_eq!(gpus.len(), 2, "{}", p.name());
            assert!(gpus.iter().all(|&v| v < 4), "{}: {gpus:?}", p.name());
        }
    }

    #[test]
    fn fractional_jobs_place_on_unpartitioned_machines() {
        let f = Fixture::dgx();
        let spec = JobSpec::new(1, GpuDemand::Slices(2), Workload::ResNet50);
        let gpus = f.select(&PreservePolicy, &spec).unwrap();
        assert_eq!(gpus.len(), 2);
    }

    #[test]
    fn slo_pressure_spreads_tenants_across_physical_gpus() {
        // Two split GPUs: vertices 0,1 = phys 0; 2,3 = phys 1. A busy slice
        // on phys 0 makes its sibling slice pay the co-residency penalty,
        // so an SLO-tagged single-slice tenant lands on phys 1 instead.
        let plan = PartitionPlan::new().split(0, 2).split(1, 2);
        let mut f = Fixture::of(plan.apply(&machines::dgx1_v100()));
        f.state.allocate(9, &[0]).unwrap();
        let spec = JobSpec::new(1, GpuDemand::Slices(1), Workload::BertServing).with_slo(25.0);
        let got = f.select(&GreedyPolicy, &spec).unwrap();
        assert_eq!(got, vec![2], "expected the quiet physical GPU, got {got:?}");
        assert_eq!(f.state.co_resident_busy(got[0]), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Under arbitrary occupancy every policy returns only free GPUs of
        /// the right count, or None — never a corrupt allocation.
        #[test]
        fn policies_sound_under_random_occupancy(
            busy in proptest::collection::vec(0usize..8, 0..6),
            n in 1usize..5,
            sensitive in proptest::prelude::any::<bool>(),
        ) {
            let mut f = Fixture::dgx();
            for (i, g) in busy.iter().enumerate() {
                let _ = f.state.allocate(100 + i as u64, &[*g]);
            }
            let spec = job(n, sensitive);
            let free = f.state.free_count();
            let policies: Vec<Box<dyn AllocationPolicy>> = vec![
                Box::new(BaselinePolicy),
                Box::new(TopoAwarePolicy),
                Box::new(GreedyPolicy),
                Box::new(PreservePolicy),
                Box::new(EffBwGreedyPolicy),
            ];
            for p in &policies {
                match f.select(p.as_ref(), &spec) {
                    Some(gpus) => {
                        proptest::prop_assert_eq!(gpus.len(), n, "{}", p.name());
                        proptest::prop_assert!(
                            gpus.iter().all(|&g| f.state.is_free(g)),
                            "{} returned busy GPU {:?}", p.name(), gpus
                        );
                        let mut sorted = gpus.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        proptest::prop_assert_eq!(sorted.len(), n, "{} duplicated", p.name());
                    }
                    None => proptest::prop_assert!(
                        free < n,
                        "{} refused although {} GPUs free for a {}-GPU job",
                        p.name(), free, n
                    ),
                }
            }
        }

        /// Greedy's choice is a function of the job and the occupancy, not
        /// of how embeddings are enumerated: the set walk selects what the
        /// embedding stream selects under every backend and dedup mode.
        #[test]
        fn greedy_choice_is_independent_of_enumeration(
            busy in proptest::collection::vec(0usize..8, 0..6),
            n in 1usize..6,
            shape in 0usize..4,
        ) {
            let mut f = Fixture::dgx();
            for (i, g) in busy.iter().enumerate() {
                let _ = f.state.allocate(100 + i as u64, &[*g]);
            }
            let topology = SHAPES[shape];
            let spec = job(n, true).with_topology(topology);
            let walked = f.select(&GreedyPolicy, &spec);
            for backend in [Backend::Vf2, Backend::Ullmann, Backend::BruteForce] {
                for dedup in [DedupMode::CanonicalOnly, DedupMode::AllMappings] {
                    f.matcher = Matcher::new(MatchOptions { backend, dedup });
                    proptest::prop_assert_eq!(
                        f.oracle_greedy(&spec, &f.state),
                        walked.clone(),
                        "{:?}/{:?} on {}", backend, dedup, topology
                    );
                }
            }
        }

        /// Preserve's sensitive branch attains the true maximum predicted
        /// EffBW over all free k-subsets (checked by brute force).
        #[test]
        fn preserve_sensitive_is_optimal(
            busy in proptest::collection::vec(0usize..8, 0..4),
            n in 2usize..4,
        ) {
            let mut f = Fixture::dgx();
            for (i, g) in busy.iter().enumerate() {
                let _ = f.state.allocate(100 + i as u64, &[*g]);
            }
            let spec = job(n, true);
            if f.state.free_count() < n {
                return Ok(());
            }
            let chosen = f.select(&PreservePolicy, &spec).unwrap();
            let chosen_score =
                scoring::predicted_effective_bandwidth(&f.model, &f.topology, &chosen);
            // Brute force over free subsets.
            let free = f.state.free_gpus();
            let mut best = f64::NEG_INFINITY;
            let m = free.len();
            for mask in 0u32..(1 << m) {
                if mask.count_ones() as usize != n {
                    continue;
                }
                let subset: Vec<usize> = (0..m)
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| free[i])
                    .collect();
                best = best.max(scoring::predicted_effective_bandwidth(
                    &f.model, &f.topology, &subset,
                ));
            }
            proptest::prop_assert!(
                (chosen_score - best).abs() < 1e-9,
                "chosen {} < optimal {}",
                chosen_score,
                best
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// The prefix walk selects exactly what scoring every candidate
        /// set from scratch selects, and `score_allocation` prices a set
        /// exactly as `available_graph` + three graph walks did: across
        /// machines (MIG-partitioned included), occupancies, sizes, demand
        /// kinds and rankings.
        #[test]
        fn set_walk_matches_oracle_on_random_occupancy(
            machine in 0usize..7,
            mask in proptest::prelude::any::<u64>(),
            k in 1usize..9,
            kind in 0usize..3,
        ) {
            let machine = &grid_machines()[machine];
            let busy = busy_vertices(machine.topology.gpu_count(), mask, 10);
            assert_walk_matches_oracle(machine, &busy, &grid_job(k, kind));
        }

        /// `score_allocation` walks each pattern's edges instead of
        /// building its graph, and prices every set — in any order, 1-GPU
        /// jobs (`-0.0`) included — to the bits of the graph-built score.
        #[test]
        fn score_allocation_equals_oracle_for_every_pattern(
            machine in 0usize..7,
            mask in proptest::prelude::any::<u64>(),
            k in 1usize..11,
            shape in 0usize..4,
            picks in proptest::collection::vec(0usize..64, 10),
        ) {
            let machine = &grid_machines()[machine];
            let busy = busy_vertices(machine.topology.gpu_count(), mask, 16);
            let mut allocator = MapaAllocator::with_model(
                machine.topology.clone(),
                Box::new(PreservePolicy),
                machine.model.clone(),
            );
            for (i, &v) in busy.iter().enumerate() {
                allocator.adopt(100 + i as u64, &[v]).unwrap();
            }
            // Partial Fisher–Yates over the free vertices: a random set in
            // random order.
            let mut free = allocator.state().free_gpus();
            let m = free.len();
            let k = k.min(m);
            for (i, pick) in picks.iter().take(k).enumerate() {
                free.swap(i, i + pick % (m - i));
            }
            let topology = SHAPES[shape];
            let spec = JobSpec::new(1, GpuDemand::Slices(k), Workload::ResNet50)
                .with_topology(topology);
            let gpus = &free[..k];
            let (score, oracle) = (
                allocator.score_allocation(&spec, gpus),
                oracle_score(&allocator, &spec, gpus),
            );
            proptest::prop_assert_eq!(&score, &oracle);
            let bits = |s: &MatchScore| {
                [s.aggregated_bw, s.predicted_eff_bw, s.preserved_bw].map(f64::to_bits)
            };
            proptest::prop_assert_eq!(
                bits(&score),
                bits(&oracle),
                "{} {} on {:?}",
                topology,
                machine.topology.name(),
                gpus
            );
        }
    }
}
