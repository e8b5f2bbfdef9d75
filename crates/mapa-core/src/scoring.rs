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
//! [`crate::MapaAllocator::score_allocation`] do not add them up per
//! candidate: one `SetScorer` per decision tabulates the free part of the
//! machine. It scores one given set from its prefix in O(k), and ranks
//! every candidate set of a size by a walk that scores a set in O(1),
//! bounds each prefix in O(1) and drops the prefixes that cannot win.
//! Eq. 1 of the chosen set is summed over the pattern's edge walk
//! ([`crate::appgraph::pattern_edges`]), so no pattern graph is built. Greedy ranks sets in the same walk, by Eq. 1 of each set's best
//! embedding, searched within the set: the hardware graph is complete
//! (§3.2), so no embedding into the machine is enumerated. The free
//! functions below compute Eq. 2, Eq. 3 and the pressure term from
//! scratch: custom policies may call them (`examples/custom_policy.rs`
//! ranks by [`predicted_effective_bandwidth`]), and the scorer is tested
//! against them. Eq. 1's pattern-graph definition is test code alone.

use crate::appgraph::pattern_edges;
use mapa_model::{corpus, EffBwModel, MixCeiling};
use mapa_topology::{HardwareState, LinkMix, LinkType, Topology};
use mapa_workloads::{AppTopology, JobSpec};

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

/// Eq. 3 — Preserved Bandwidth: the bandwidth among the GPUs of `state`
/// that stay free if `gpus` are allocated
/// ([`Topology::bandwidth_among`]).
///
/// Sums pair by pair in O(free²) and allocates per call. The built-in
/// policies and [`crate::MapaAllocator::score_allocation`] do not call it
/// — a `SetScorer` gets the same number from three running sums — and it
/// stays as the definition they are tested against.
///
/// # Panics
/// Panics if some `gpus` entry is busy or out of range (allocating a busy
/// GPU is a state error upstream).
#[must_use]
pub fn preserved_bandwidth(state: &HardwareState, gpus: &[usize]) -> f64 {
    for &g in gpus {
        assert!(state.is_free(g), "allocated GPU {g} must be free");
    }
    let mut remaining = state.free_gpus();
    remaining.retain(|g| !gpus.contains(g));
    state.topology().bandwidth_among(&remaining)
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
/// branches of the paper's Algorithm 1, the EffBW-greedy ablation and §4's
/// Greedy. Every primary score is taken less the co-residency pressure
/// penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ranking {
    /// Predicted EffBW, ties toward the most Preserved BW (sensitive jobs).
    EffBwThenPreserved,
    /// Preserved BW, ties toward the least Predicted EffBW (insensitive
    /// jobs).
    PreservedThenLeastEffBw,
    /// Predicted EffBW alone.
    EffBw,
    /// Aggregated BW (Eq. 1) of the set's best embedding of this pattern.
    Aggregated(AppTopology),
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
/// with `d` table reads ([`SetScorer::score`]); the walk of
/// [`SetScorer::best_set`] keeps per-depth link rows instead, so a set
/// costs one add. The results equal the from-scratch functions of this
/// module bit for bit, not approximately: every bandwidth and both
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

    /// `prefix` plus the free vertex `v`, given the prefix's vertices: the
    /// step of [`SetScorer::score`].
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
        (
            self.total - set.degree + bandwidth_of(&set.links),
            mix_of(&set.links),
            self.pressure_weight * set.crowd as f64,
        )
    }

    /// All four scores of allocating `gpus` to `job`, Aggregated Bandwidth
    /// under the identity embedding of its pattern onto `gpus` (pattern
    /// vertex `p` on `gpus[p]`), walked without building the pattern graph.
    /// An edgeless pattern (a 1-GPU job) aggregates `-0.0`, the empty `f64`
    /// sum, as Eq. 1's graph definition does: the schedule digests hash it.
    ///
    /// # Panics
    /// Panics if some `gpus` entry is busy, out of range or listed twice.
    pub(crate) fn score(&self, job: &JobSpec, gpus: &[usize]) -> MatchScore {
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
            aggregated_bw: pattern_edges(job.topology, job.num_gpus())
                .map(|(p, q)| self.links[gpus[p] * self.n + gpus[q]].bandwidth_gbps())
                .sum(),
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
    /// A depth-first walk over the `C(m, k)` subsets of the `m` candidates
    /// in lexicographic order, in which only a strictly better set replaces
    /// the incumbent: that is the tie-break. A set is scored in O(1) from
    /// per-depth link rows (see [`Walk`]), and an Aggregated set that may
    /// beat the incumbent is then searched ([`BestEmbedding`]). A walk with
    /// more than `4·m·k` sets also drops every prefix none of whose completions can beat
    /// the incumbent, ties included, and every prefix that holds a vertex
    /// but not its earlier interchangeable twin; see [`Walk::hopeless`]
    /// and [`Walk::may_take`]. Both keep the lexicographically first best
    /// set, so either walk selects the same set with the same score bits.
    ///
    /// # Panics
    /// Panics if `k` exceeds 362 and as many candidates are free: the
    /// walk counts a set's links of each type in 16 bits, and 363 vertices
    /// have 65 703 links.
    pub(crate) fn best_set(
        &self,
        ranking: Ranking,
        k: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let mut pool = Vec::with_capacity(self.free.len());
        pool.extend(self.free.iter().copied().filter(|&v| eligible(v)));
        let prune = k <= pool.len() && worth_pruning(pool.len(), k);
        self.walk(ranking, k, &pool, prune).map(|(set, _)| set)
    }

    /// The best `k`-subset of `pool` (ascending) under `ranking` and its
    /// score, walked with the bounds and the twin rule iff `prune`.
    fn walk(
        &self,
        ranking: Ranking,
        k: usize,
        pool: &[usize],
        prune: bool,
    ) -> Option<(Vec<usize>, (f64, f64))> {
        let m = pool.len();
        if k == 0 || k > m {
            return None;
        }
        let pairs = k * (k - 1) / 2;
        assert!(
            k <= MAX_WALK_SET,
            "a {k}-vertex set has {pairs} links, more than the 65 535 of one type \
             a set walk can count (at most {MAX_WALK_SET} vertices)"
        );
        // Every buffer of the walk in one allocation: the chosen and best
        // sets, the EffBW memo, the link rows, and with `prune` the tails,
        // the twin links and the taken flags.
        let search = match ranking {
            Ranking::Aggregated(pattern) => Some(BestEmbedding::new(self, pattern, k)),
            _ => None,
        };
        let memo = if search.is_none() && (pairs + 1) * (pairs + 1) <= MEMO_CELLS {
            (pairs + 1) * (pairs + 1)
        } else {
            0
        };
        let bounded = if prune { k * (m + 1) + 2 * m } else { 0 };
        let mut buffer = vec![0u64; 2 * k + memo + k * m + bounded];
        let (chosen, rest) = buffer.split_at_mut(k);
        let (best_set, rest) = rest.split_at_mut(k);
        let (memo, rest) = rest.split_at_mut(memo);
        let (rows, rest) = rest.split_at_mut(k * m);
        let (tails, rest) = rest.split_at_mut(if prune { k * (m + 1) } else { 0 });
        let (twins, taken) = rest.split_at_mut(if prune { m } else { 0 });
        let mut walk = Walk {
            scorer: self,
            ranking,
            pool,
            k,
            pairs,
            ceiling: None,
            tail_weight: 0.0,
            best: (f64::NEG_INFINITY, f64::NEG_INFINITY),
            search,
            chosen,
            best_set,
            memo,
            rows,
            tails,
            twins,
            taken,
        };
        if prune {
            walk.prepare_bounds();
            walk.descend::<true>(0, 0, Partial::default());
        } else {
            walk.descend::<false>(0, 0, Partial::default());
        }
        let best = walk.best;
        let set = walk.best_set.iter().map(|&v| v as usize).collect();
        Some((set, best))
    }
}

/// The largest set [`SetScorer::best_set`] ranks: its walk counts a set's
/// links of each type in a 16-bit lane, and `k` vertices have `k(k−1)/2`
/// links, 65 341 at `k = 362`.
const MAX_WALK_SET: usize = 362;

/// The largest EffBW memo a walk keeps, in cells: one per `(x, y)` of a
/// set's link mix, `(k(k−1)/2 + 1)²` of them, so sets of up to 23
/// vertices. Larger walks ask the model at every set.
const MEMO_CELLS: usize = 1 << 16;

/// Whether a walk over the `C(m, k)` subsets of `m` candidates, `k <= m`,
/// is big enough to pay for its bounds and twin links: more subsets than
/// `4·m·k`, about the cells those tables fill. `C(m, i)` is the ratio
/// of two running products, compared without a division. Rounding can
/// only tip a walk near the threshold to the other side, and both sides
/// select the same set.
fn worth_pruning(m: usize, k: usize) -> bool {
    let cells = (4 * m * k) as f64;
    let (mut above, mut below) = (1.0, 1.0);
    for i in 0..k.min(m - k) {
        above *= (m - i) as f64;
        below *= (i + 1) as f64;
        if above > cells * below {
            return true;
        }
    }
    false
}

/// One link of type `link`, as a count in its 16-bit lane.
fn lane(link: LinkType) -> u64 {
    1 << (16 * link as u32)
}

/// The per-type link counts packed by [`lane`].
fn unpack(lanes: u64) -> [usize; LINK_TYPES] {
    std::array::from_fn(|t| (lanes >> (16 * t)) as usize & 0xFFFF)
}

/// The bandwidth of `counts[t]` links of each type `t`.
fn bandwidth_of(counts: &[usize; LINK_TYPES]) -> f64 {
    LinkType::all()
        .into_iter()
        .map(|link| counts[link as usize] as f64 * link.bandwidth_gbps())
        .sum()
}

/// The `(x, y, z)` mix of `counts[t]` links of each type `t`.
fn mix_of(counts: &[usize; LINK_TYPES]) -> LinkMix {
    let mut mix = LinkMix::default();
    for link in LinkType::all() {
        mix.add_many(link, counts[link as usize]);
    }
    mix
}

/// The bandwidth of the `j` fastest of `counts[t]` links of each type `t`.
fn fastest(counts: &[usize; LINK_TYPES], j: usize) -> f64 {
    let mut left = j;
    let mut sum = 0.0;
    // `LinkType::all()` lists the slowest first.
    for link in LinkType::all().into_iter().rev() {
        let take = left.min(counts[link as usize]);
        sum += take as f64 * link.bandwidth_gbps();
        left -= take;
    }
    sum
}

/// The running sums of a [`Walk`]'s prefix.
#[derive(Clone, Copy, Default)]
struct Partial {
    /// Links inside the prefix, packed by [`lane`].
    lanes: u64,
    /// `Σ deg_F(v)` over the prefix.
    degree: f64,
    /// `Σ co-residents(v)` over the prefix.
    crowd: usize,
}

/// A pool index with no twin before it, in [`Walk::twins`].
const NO_TWIN: u64 = u64::MAX;

/// The state of one [`SetScorer::best_set`] walk over the `m` vertices of
/// `pool`.
///
/// **Link rows.** Row `d` of `rows` holds, for every pool vertex, its
/// links into the walk's `d`-vertex prefix, by type, packed by [`lane`].
/// Choosing `pool[i]` as the prefix's vertex `d` fills row `d + 1` for
/// every `j > i`, whatever depth `pool[j]` is later taken at, so a child's
/// links are its parent's plus one row entry: a set costs one add and an
/// unpack.
///
/// **Bounds.** With `T` the free graph's bandwidth, a prefix `P` of `d`
/// vertices that draws `r = k − d` more from `pool[i..]` preserves at most
/// `T − Σ_P deg_F − w·Σ_P crowd + w(P) + tail[d][i]`, where `tail[d][i]`
/// sums the `r` largest `h_d(v) = ½(top_d(v) + top_{k−1}(v)) − deg_F(v) −
/// w·crowd(v)` over `pool[i..]` and `top_j(v)` is the bandwidth of `v`'s
/// `j` fastest links into the free set: a drawn vertex brings at most its
/// `d` fastest links into `P` and, counting each link inside the draw
/// half at each end, half of its `k − 1` fastest links into the rest of the
/// set. Its Predicted EffBW is at most the model's [`MixCeiling`] at the
/// prefix's mix. Bandwidths are whole GB/s, so every bound is exact in
/// `f64` and compares with a score without rounding.
struct Walk<'w, 'a> {
    scorer: &'w SetScorer<'a>,
    ranking: Ranking,
    /// The candidate vertices, ascending.
    pool: &'w [usize],
    k: usize,
    /// `k(k−1)/2`, the links of a set.
    pairs: usize,
    /// The model's EffBW bound for `k`-vertex sets, when the walk prunes
    /// an EffBW-first ranking.
    ceiling: Option<&'w MixCeiling>,
    /// The `w` of the Preserved bound: the pressure weight when the
    /// Preserved BW is the primary score, which carries the penalty, and 0
    /// when it breaks ties, which does not.
    tail_weight: f64,
    /// The incumbent's score; `-∞` until the first set.
    best: (f64, f64),
    /// The per-set search of an [`Ranking::Aggregated`] walk.
    search: Option<BestEmbedding<'a>>,
    /// The current prefix's vertices.
    chosen: &'w mut [u64],
    /// The incumbent's vertices.
    best_set: &'w mut [u64],
    /// `EffBwModel::predict` by `x·(pairs + 1) + y` of the mix (`z`
    /// follows), as `!bits`: 0 where not yet asked. Empty when too large.
    memo: &'w mut [u64],
    /// `rows[d·m + j]`, `d < k`: the link rows.
    rows: &'w mut [u64],
    /// `tails[d·(m + 1) + i]`, `0 < d < k`: `tail[d][i]` as `f64` bits.
    tails: &'w mut [u64],
    /// Per pool index: the pool index of its nearest earlier twin with as
    /// many busy co-residents, or [`NO_TWIN`].
    twins: &'w mut [u64],
    /// Per pool index: 1 while it is in the prefix.
    taken: &'w mut [u64],
}

impl Walk<'_, '_> {
    /// Fetches the EffBW bound and fills the tails and the twin links.
    fn prepare_bounds(&mut self) {
        let scorer = self.scorer;
        match self.ranking {
            Ranking::EffBwThenPreserved | Ranking::EffBw => {
                self.ceiling = scorer.model.ceiling(self.k);
            }
            Ranking::PreservedThenLeastEffBw => self.tail_weight = scorer.pressure_weight,
            Ranking::Aggregated(_) => {}
        }
        if !matches!(self.ranking, Ranking::EffBw | Ranking::Aggregated(_)) {
            self.fill_tails();
        }
        let twins = scorer.state.topology().previous_twins();
        for (i, &v) in self.pool.iter().enumerate() {
            self.twins[i] = NO_TWIN;
            let mut twin = twins[v];
            while let Some(u) = twin {
                if let Ok(j) = self.pool.binary_search(&u) {
                    if scorer.crowd[u] == scorer.crowd[v] {
                        self.twins[i] = j as u64;
                        break;
                    }
                }
                twin = twins[u];
            }
        }
    }

    /// Fills `tails`, for the Preserved bound: `h_d` into row `d`, then
    /// each row, last index first, into the sum of its `k − d` largest
    /// entries from there on; `chosen` is scratch for the entries kept,
    /// largest first.
    fn fill_tails(&mut self) {
        let (k, m) = (self.k, self.pool.len());
        let scorer = self.scorer;
        let (n, links) = (scorer.n, scorer.links);
        let stride = m + 1;
        for (i, &v) in self.pool.iter().enumerate() {
            let mut counts = [0; LINK_TYPES];
            for &u in &scorer.free {
                if u != v {
                    counts[links[v * n + u] as usize] += 1;
                }
            }
            let own = scorer.degree[v] + self.tail_weight * scorer.crowd[v] as f64;
            let most = fastest(&counts, k - 1);
            for d in 1..k {
                let h = (fastest(&counts, d) + most) / 2.0 - own;
                self.tails[d * stride + i] = h.to_bits();
            }
        }
        for d in 1..k {
            let row = &mut self.tails[d * stride..(d + 1) * stride];
            let kept = &mut self.chosen[..k - d];
            let (mut held, mut sum) = (0, 0.0);
            row[m] = 0f64.to_bits();
            for i in (0..m).rev() {
                let h = f64::from_bits(row[i]);
                if held < kept.len() {
                    held += 1;
                } else if h > f64::from_bits(kept[held - 1]) {
                    sum -= f64::from_bits(kept[held - 1]);
                } else {
                    row[i] = sum.to_bits();
                    continue;
                }
                sum += h;
                let mut at = held - 1;
                while at > 0 && f64::from_bits(kept[at - 1]) < h {
                    kept[at] = kept[at - 1];
                    at -= 1;
                }
                kept[at] = h.to_bits();
                row[i] = sum.to_bits();
            }
        }
    }

    /// Visits every completion of the `depth`-vertex prefix in `chosen`
    /// (sums in `at`) that draws its next vertex from `pool[from..]`.
    fn descend<const PRUNE: bool>(&mut self, depth: usize, from: usize, at: Partial) {
        let (k, m) = (self.k, self.pool.len());
        let row = depth * m;
        if depth + 1 == k {
            for i in from..m {
                if !PRUNE || self.may_take(i) {
                    let set = self.with(at, row, i);
                    self.leaf(i, set);
                }
            }
            return;
        }
        // Leave room for the vertices still to come after this one.
        for i in from..m - (k - depth - 1) {
            if PRUNE && !self.may_take(i) {
                continue;
            }
            let next = self.with(at, row, i);
            if PRUNE && self.hopeless(depth + 1, i, next) {
                continue;
            }
            let v = self.pool[i];
            let (n, links) = (self.scorer.n, self.scorer.links);
            let (done, ahead) = self.rows.split_at_mut(row + m);
            for ((into, &was), &u) in ahead[i + 1..m]
                .iter_mut()
                .zip(&done[row + i + 1..])
                .zip(&self.pool[i + 1..])
            {
                *into = was + lane(links[v * n + u]);
            }
            self.chosen[depth] = v as u64;
            if PRUNE {
                self.taken[i] = 1;
            }
            self.descend::<PRUNE>(depth + 1, i + 1, next);
            if PRUNE {
                self.taken[i] = 0;
            }
        }
    }

    /// The prefix `at` plus `pool[i]`, whose links into it are in the row
    /// starting at `row`.
    fn with(&self, at: Partial, row: usize, i: usize) -> Partial {
        let v = self.pool[i];
        Partial {
            lanes: at.lanes + self.rows[row + i],
            degree: at.degree + self.scorer.degree[v],
            crowd: at.crowd + self.scorer.crowd[v],
        }
    }

    /// The twin rule: `pool[i]` may join the prefix only if its nearest
    /// earlier twin with as many busy co-residents already has. Swapping a
    /// set's vertex for an absent earlier twin keeps every score bit and
    /// gives a lexicographically smaller set, so the lexicographically
    /// first best set obeys the rule.
    fn may_take(&self, i: usize) -> bool {
        let twin = self.twins[i];
        twin == NO_TWIN || self.taken[twin as usize] == 1
    }

    /// Whether no completion of the `size`-vertex prefix `at`, whose last
    /// vertex is `pool[i]`, scores strictly above the incumbent. Every
    /// set the walk meets after the incumbent comes after it
    /// lexicographically, so it loses a tie: a bound equal to the
    /// incumbent's score drops the prefix too. The Least-EffBW tie-break
    /// has no bound, so that ranking drops only below the incumbent.
    fn hopeless(&self, size: usize, i: usize, at: Partial) -> bool {
        let counts = unpack(at.lanes);
        let preserved = || {
            let tail = self.tails[size * (self.pool.len() + 1) + i + 1];
            self.scorer.total - at.degree - self.tail_weight * at.crowd as f64
                + bandwidth_of(&counts)
                + f64::from_bits(tail)
        };
        let primary = match (self.ranking, self.ceiling) {
            (Ranking::PreservedThenLeastEffBw, _) => preserved(),
            (_, Some(ceiling)) => {
                ceiling.at_least(&mix_of(&counts)) - self.scorer.pressure_weight * at.crowd as f64
            }
            (_, None) => f64::INFINITY,
        };
        if primary != self.best.0 {
            return primary < self.best.0;
        }
        let secondary = match self.ranking {
            Ranking::EffBwThenPreserved => preserved(),
            Ranking::PreservedThenLeastEffBw => f64::INFINITY,
            Ranking::EffBw | Ranking::Aggregated(_) => 0.0,
        };
        secondary <= self.best.1
    }

    /// Scores the whole set `set`, whose last vertex is `pool[i]`, and
    /// keeps it if it beats the incumbent.
    fn leaf(&mut self, i: usize, set: Partial) {
        let counts = unpack(set.lanes);
        let preserved = self.scorer.total - set.degree + bandwidth_of(&counts);
        let penalty = self.scorer.pressure_weight * set.crowd as f64;
        let score = match self.ranking {
            Ranking::EffBwThenPreserved => (self.eff_bw(&counts) - penalty, preserved),
            Ranking::PreservedThenLeastEffBw => {
                let primary = preserved - penalty;
                if primary < self.best.0 {
                    return;
                }
                (primary, -self.eff_bw(&counts))
            }
            Ranking::EffBw => (self.eff_bw(&counts) - penalty, 0.0),
            Ranking::Aggregated(_) => {
                let search = self.search.as_mut().expect("an Aggregated walk searches");
                let set = self.chosen[..self.k - 1].iter().map(|&v| v as usize);
                match search.best(set.chain([self.pool[i]]), &counts, self.best.0 + penalty) {
                    Some(aggregated) => (aggregated - penalty, 0.0),
                    None => return,
                }
            }
        };
        if score.0 > self.best.0 || (score.0 == self.best.0 && score.1 > self.best.1) {
            self.best = score;
            let last = self.k - 1;
            self.best_set[..last].copy_from_slice(&self.chosen[..last]);
            self.best_set[last] = self.pool[i] as u64;
        }
    }

    /// Predicted EffBW of a whole set with `counts` links of each type.
    fn eff_bw(&mut self, counts: &[usize; LINK_TYPES]) -> f64 {
        if self.k < 2 {
            return 0.0;
        }
        let mix = mix_of(counts);
        let Some(slot) = self
            .memo
            .get_mut(mix.double_nvlink * (self.pairs + 1) + mix.single_nvlink)
        else {
            return self.scorer.model.predict(&mix);
        };
        if *slot == 0 {
            *slot = !self.scorer.model.predict(&mix).to_bits();
        }
        f64::from_bits(!*slot)
    }
}

/// Greedy's search within one set ([`Ranking::Aggregated`]): the highest
/// AggBW of an embedding of the pattern, by branch and bound over the set
/// vertex of each pattern vertex in turn. The `E` edges land on `E`
/// distinct links, so the unplaced edges add at most the fastest links
/// left unused, and an embedding at most the set's `E` fastest: its cap,
/// where the search stops. Turning or mirroring a ring keeps its AggBW, so
/// a ring puts vertex 0 on the set's first vertex and vertex 1 below `k − 1`.
struct BestEmbedding<'a> {
    links: &'a [LinkType],
    n: usize,
    /// Per pattern vertex, its neighbours below it.
    below: Vec<Vec<usize>>,
    ring: bool,
    /// The set, ascending, and the set vertex of each pattern vertex placed.
    set: Vec<usize>,
    at: Vec<usize>,
    /// The best AggBW so far, and the set's cap.
    found: f64,
    cap: f64,
}

impl<'a> BestEmbedding<'a> {
    fn new(scorer: &SetScorer<'a>, pattern: AppTopology, k: usize) -> Self {
        let mut below = vec![Vec::new(); k];
        for (p, q) in pattern_edges(pattern, k) {
            below[p.max(q)].push(p.min(q));
        }
        Self {
            links: scorer.links,
            n: scorer.n,
            below,
            ring: pattern == AppTopology::Ring && k >= 3,
            set: Vec::with_capacity(k),
            at: vec![0; k],
            found: 0.0,
            cap: 0.0,
        }
    }

    /// The highest AggBW of an embedding onto `set`, whose links number
    /// `counts` by type, if above `floor`.
    fn best(
        &mut self,
        set: impl Iterator<Item = usize>,
        counts: &[usize; LINK_TYPES],
        floor: f64,
    ) -> Option<f64> {
        let edges = self.below.iter().map(Vec::len).sum();
        self.cap = fastest(counts, edges);
        if self.cap <= floor {
            return None;
        }
        self.set.clear();
        self.set.extend(set);
        self.found = floor;
        self.place(0, 0.0, *counts, edges);
        (self.found > floor).then_some(self.found)
    }

    /// Places pattern vertex `p` and those above it, given the AggBW `sum`
    /// of the edges below `p`, the set's links `left` unused by them and
    /// the `todo` edges not placed; whether the cap was reached.
    fn place(&mut self, p: usize, sum: f64, left: [usize; LINK_TYPES], todo: usize) -> bool {
        let Some(below) = self.below.get(p) else {
            // The bound lets only a better embedding this far.
            self.found = sum;
            return sum == self.cap;
        };
        let todo = todo - below.len();
        for i in 0..self.set.len() {
            let v = self.set[i];
            let turned =
                self.ring && ((p == 0 && i > 0) || (p + 1 == self.at.len() && v < self.at[1]));
            if turned || self.at[..p].contains(&v) {
                continue;
            }
            let (mut sum, mut left) = (sum, left);
            for &q in &self.below[p] {
                let link = self.links[v * self.n + self.at[q]];
                sum += link.bandwidth_gbps();
                left[link as usize] -= 1;
            }
            if sum + fastest(&left, todo) > self.found {
                self.at[p] = v;
                if self.place(p + 1, sum, left, todo) {
                    return true;
                }
            }
        }
        false
    }
}

/// Eq. 1 — Aggregated Bandwidth: sum of hardware bandwidths over the
/// pattern's edges under `embedding` (pattern vertex `p` placed on
/// hardware vertex `embedding.image(p)`). The definition `SetScorer`'s
/// edge walk is tested against.
#[cfg(test)]
pub(crate) fn aggregated_bandwidth(
    pattern: &mapa_graph::PatternGraph,
    topology: &Topology,
    embedding: &mapa_isomorph::Embedding,
) -> f64 {
    pattern
        .edges()
        .map(|(u, v, ())| topology.bandwidth(embedding.image(u), embedding.image(v)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_graph::{Graph, PatternGraph};
    use mapa_isomorph::Embedding;
    use mapa_model::{corpus, EffBwModel};
    use mapa_topology::{machines, PartitionPlan};
    use mapa_workloads::{GpuDemand, Workload};
    use std::sync::OnceLock;

    fn dgx_model() -> EffBwModel {
        let dgx = machines::dgx1_v100();
        EffBwModel::fit(&corpus::build_corpus(&dgx, 2..=5)).unwrap()
    }

    /// The walk as it was before link rows and bounds: every `k`-subset of
    /// `pool` in lexicographic order, each scored from its prefix sums
    /// through [`SetScorer::extend`], the first strictly better set kept.
    struct Unpruned<'s, 'a> {
        scorer: &'s SetScorer<'a>,
        ranking: Ranking,
        k: usize,
        pool: &'s [usize],
        chosen: Vec<usize>,
        best: Option<(Vec<usize>, (f64, f64))>,
    }

    impl Unpruned<'_, '_> {
        fn walk(
            scorer: &SetScorer<'_>,
            ranking: Ranking,
            k: usize,
            pool: &[usize],
        ) -> Option<(Vec<usize>, (f64, f64))> {
            if k == 0 || k > pool.len() {
                return None;
            }
            let mut walk = Unpruned {
                scorer,
                ranking,
                k,
                pool,
                chosen: Vec::with_capacity(k),
                best: None,
            };
            walk.descend(0, Prefix::default());
            walk.best
        }

        fn descend(&mut self, from: usize, prefix: Prefix) {
            for i in from..self.pool.len() {
                let v = self.pool[i];
                let next = self.scorer.extend(prefix, &self.chosen, v);
                self.chosen.push(v);
                if self.chosen.len() < self.k {
                    self.descend(i + 1, next);
                } else {
                    let (preserved, mix, penalty) = self.scorer.finish(next);
                    let eff_bw = if self.k < 2 {
                        0.0
                    } else {
                        self.scorer.model.predict(&mix)
                    };
                    let score = match self.ranking {
                        Ranking::EffBwThenPreserved => (eff_bw - penalty, preserved),
                        Ranking::PreservedThenLeastEffBw => (preserved - penalty, -eff_bw),
                        Ranking::EffBw => (eff_bw - penalty, 0.0),
                        Ranking::Aggregated(_) => unreachable!("tested against the matcher"),
                    };
                    let better = self.best.as_ref().is_none_or(|(_, best)| {
                        score.0 > best.0 || (score.0 == best.0 && score.1 > best.1)
                    });
                    if better {
                        self.best = Some((self.chosen.clone(), score));
                    }
                }
                self.chosen.pop();
            }
        }
    }

    const RANKINGS: [Ranking; 3] = [
        Ranking::EffBwThenPreserved,
        Ranking::PreservedThenLeastEffBw,
        Ranking::EffBw,
    ];

    /// The machines of the pruned ≡ unpruned grid, each with its model:
    /// cube-mesh, torus-2d, DGX-2, DGX-1 V100 with GPU 0 in seven slices
    /// (vertices 0..7) and with GPU 0 in four and GPU 1 in two (0..4, 4..6).
    fn pruning_machines() -> &'static [(Topology, EffBwModel)] {
        static MACHINES: OnceLock<Vec<(Topology, EffBwModel)>> = OnceLock::new();
        MACHINES.get_or_init(|| {
            let dgx1 = machines::dgx1_v100();
            [
                machines::cube_mesh(),
                machines::torus_2d(),
                machines::dgx2(),
                PartitionPlan::new().split(0, 7).apply(&dgx1),
                PartitionPlan::new().split(0, 4).split(1, 2).apply(&dgx1),
            ]
            .into_iter()
            .map(|machine| {
                let model = EffBwModel::for_machine(&machine);
                (machine, model)
            })
            .collect()
        })
    }

    /// A `k`-vertex job of demand kind 0 = whole GPUs, 1 = slices,
    /// 2 = SLO-tagged slices.
    fn demand(k: usize, kind: usize) -> JobSpec {
        match kind {
            0 => JobSpec::new(1, GpuDemand::Whole(k), Workload::Vgg16),
            1 => JobSpec::new(1, GpuDemand::Slices(k), Workload::ResNet50),
            _ => JobSpec::new(1, GpuDemand::Slices(k), Workload::BertServing).with_slo(25.0),
        }
    }

    /// Asserts that the walk with its bounds and twin rule forced on, and
    /// the walk the size rule picks, select what the unpruned walk selects
    /// for `job` on `state`, with the same score bits, under every
    /// ranking.
    fn assert_pruned_walk_matches_unpruned(
        state: &HardwareState,
        model: &EffBwModel,
        job: &JobSpec,
    ) {
        let scorer = SetScorer::new(state, model, job);
        let topology = state.topology();
        let pool: Vec<usize> = state
            .free_gpus()
            .into_iter()
            .filter(|&v| job.is_fractional() || topology.slice_map().is_none_or(|m| !m.is_slice(v)))
            .collect();
        let k = job.num_gpus();
        let bits = |found: Option<(Vec<usize>, (f64, f64))>| {
            found.map(|(set, (a, b))| (set, a.to_bits(), b.to_bits()))
        };
        for ranking in RANKINGS {
            let want = bits(Unpruned::walk(&scorer, ranking, k, &pool));
            let what = format!("{ranking:?} k={k} on {} free {pool:?}", topology.name());
            assert_eq!(
                bits(scorer.walk(ranking, k, &pool, true)),
                want,
                "pruned, {what}"
            );
            assert_eq!(
                bits(scorer.walk(ranking, k, &pool, false)),
                want,
                "plain, {what}"
            );
            assert_eq!(
                scorer.best_set(ranking, k, |v| pool.contains(&v)),
                want.map(|(set, ..)| set),
                "best_set, {what}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The bounds, the tie rule and the twin rule keep the walk's
        /// selection and score bits: across cube-mesh, torus-2d, DGX-2 and
        /// two MIG-split DGX-1s, 0–16 free vertices (busy ones one job
        /// each, so slices see busy co-residents), sizes 1–8, every
        /// demand kind and every ranking.
        #[test]
        fn pruned_walk_matches_unpruned_walk(
            machine in 0usize..5,
            mask in proptest::prelude::any::<u64>(),
            k in 1usize..9,
            kind in 0usize..3,
        ) {
            let (topology, model) = &pruning_machines()[machine];
            let mut state = HardwareState::new(topology.clone());
            for v in (0..topology.gpu_count()).filter(|&v| mask >> v & 1 == 1) {
                state.allocate(100 + v as u64, &[v]).unwrap();
            }
            assert_pruned_walk_matches_unpruned(&state, model, &demand(k, kind));
        }
    }

    #[test]
    fn pruned_walk_skips_twins_on_a_split_dgx1() {
        // GPUs 0 and 1 in seven slices each (vertices 0..7 and 7..14, two
        // twin classes), 6 whole GPUs: `C(20, 8)` = 125 970 sets. Busy
        // slices 1 and 9 give some free slices a busy co-resident, so a
        // class splits by crowd.
        let machine = PartitionPlan::new()
            .split(0, 7)
            .split(1, 7)
            .apply(&machines::dgx1_v100());
        assert_eq!(machine.gpu_count(), 20);
        let model = EffBwModel::for_machine(&machine);
        for busy in [&[][..], &[1, 9], &[0, 1, 2, 3, 4, 5, 6]] {
            let mut state = HardwareState::new(machine.clone());
            for (job, &v) in busy.iter().enumerate() {
                state.allocate(100 + job as u64, &[v]).unwrap();
            }
            for kind in 0..3 {
                assert_pruned_walk_matches_unpruned(&state, &model, &demand(8, kind));
            }
        }
    }

    #[test]
    fn pruned_walk_splits_twins_by_crowd_on_a_split_dgx2() {
        // Every pair of a DGX-2 is a double NVLink, slices of one GPU
        // included, so with GPUs 0 and 1 in three slices each all 20
        // vertices are twins. Busy slice 0 gives slices 1 and 2 a busy
        // co-resident: they are no longer interchangeable with the rest,
        // and a twin rule blind to that misses the sets avoiding them.
        let machine = PartitionPlan::new()
            .split(0, 3)
            .split(1, 3)
            .apply(&machines::dgx2());
        assert_eq!(machine.previous_twins()[3], Some(2));
        let model = EffBwModel::for_machine(&machine);
        let mut state = HardwareState::new(machine);
        state.allocate(100, &[0]).unwrap();
        for kind in 0..3 {
            assert_pruned_walk_matches_unpruned(&state, &model, &demand(8, kind));
        }
    }

    /// An idle `n`-vertex machine whose every pair rides PCIe, the lowest
    /// lane of the walk's link counts.
    fn all_pcie(n: usize) -> HardwareState {
        HardwareState::new(Topology::new("pcie", Graph::new(n), vec![0; n]))
    }

    #[test]
    fn walk_counts_links_in_16_bits_up_to_362_vertices() {
        // 362 vertices have 65 341 PCIe links, which fit in a lane; one
        // more carried into the next lane would change the mix.
        let state = all_pcie(MAX_WALK_SET);
        let model = dgx_model();
        let job = demand(MAX_WALK_SET, 1);
        let scorer = SetScorer::new(&state, &model, &job);
        let all: Vec<usize> = (0..MAX_WALK_SET).collect();
        let want = scorer.score(&job, &all);
        assert_eq!(want.link_mix.pcie, 65_341);
        for ranking in RANKINGS {
            let (set, (primary, secondary)) =
                scorer.walk(ranking, MAX_WALK_SET, &all, false).unwrap();
            assert_eq!(set, all);
            let (eff_bw, preserved) = (want.predicted_eff_bw, want.preserved_bw);
            let expected = match ranking {
                Ranking::EffBwThenPreserved => (eff_bw, preserved),
                Ranking::PreservedThenLeastEffBw => (preserved, -eff_bw),
                Ranking::EffBw => (eff_bw, 0.0),
                Ranking::Aggregated(_) => unreachable!(),
            };
            assert_eq!(
                (primary.to_bits(), secondary.to_bits()),
                (expected.0.to_bits(), expected.1.to_bits()),
                "{ranking:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a 363-vertex set has 65703 links")]
    fn walk_refuses_sets_past_362_vertices() {
        let state = all_pcie(MAX_WALK_SET + 1);
        let model = dgx_model();
        let job = demand(MAX_WALK_SET + 1, 1);
        let scorer = SetScorer::new(&state, &model, &job);
        let _ = scorer.best_set(Ranking::EffBw, MAX_WALK_SET + 1, |_| true);
    }

    #[test]
    fn size_rule_prunes_walks_of_more_than_4mk_sets() {
        // C(10, 5) = 252 > 200; C(10, 4) = 210 > 160; C(9, 4) = 126 < 144.
        assert!(worth_pruning(10, 5) && worth_pruning(10, 4));
        assert!(!worth_pruning(9, 4));
        // Too few sets at either end of the range.
        assert!(!worth_pruning(16, 1) && !worth_pruning(16, 16) && !worth_pruning(16, 15));
        // C(64, 8) ≈ 4.4e9: no overflow on the way.
        assert!(worth_pruning(64, 8) && worth_pruning(400, 200));
    }

    #[test]
    fn fig10_aggregated_bandwidth_example() {
        // Fig. 10 / §2.2: a 3-GPU triangle on {GPU0, GPU1, GPU4}
        // aggregates 25 + 50 + 12 = 87 GB/s.
        let dgx = machines::dgx1_v100();
        let pattern = PatternGraph::all_to_all(3);
        let e = Embedding::new(vec![0, 1, 4]);
        assert_eq!(aggregated_bandwidth(&pattern, &dgx, &e), 87.0);
        // Ideal {0,2,3} = 125 GB/s.
        let ideal = Embedding::new(vec![0, 2, 3]);
        assert_eq!(aggregated_bandwidth(&pattern, &dgx, &ideal), 125.0);
    }

    #[test]
    fn aggregated_bandwidth_depends_on_embedding_not_just_set() {
        // A chain 0-1-2 placed on {0,1,4}: orientation decides which two of
        // the three links are used.
        let dgx = machines::dgx1_v100();
        let chain = PatternGraph::chain(3);
        // 0-1 (25) + 1-4 (12) = 37.
        let a = aggregated_bandwidth(&chain, &dgx, &Embedding::new(vec![0, 1, 4]));
        // 1-0 (25) + 0-4 (50) = 75.
        let b = aggregated_bandwidth(&chain, &dgx, &Embedding::new(vec![1, 0, 4]));
        assert_eq!(a, 37.0);
        assert_eq!(b, 75.0);
    }

    #[test]
    fn preserved_bandwidth_on_idle_machine() {
        // Fig. 10 (right): allocating {0,1,3} on DGX-1V leaves
        // {2,4,5,6,7}; preserved BW is the bandwidth among them.
        let state = HardwareState::new(machines::dgx1_v100());
        let all: Vec<usize> = (0..8).collect();
        let preserved = preserved_bandwidth(&state, &[0, 1, 3]);
        // Induced {2,4,5,6,7}: NVLinks 2-6(25), 4-5(25), 4-6(25), 4-7(50),
        // 5-6(50), 5-7(25), 6-7(50) = 250; PCIe pairs: C(5,2)=10 pairs,
        // 3 PCIe (2-4, 2-5, 2-7) = 36. Total 286.
        assert_eq!(preserved, 286.0);
        // Allocating everything preserves nothing, as a positive zero.
        assert_eq!(
            preserved_bandwidth(&state, &all).to_bits(),
            0.0f64.to_bits()
        );
        // Allocating nothing preserves the whole machine.
        assert_eq!(
            preserved_bandwidth(&state, &[]),
            state.topology().bandwidth_among(&all)
        );
    }

    #[test]
    fn preserved_bandwidth_respects_partial_occupancy() {
        // With GPUs 6,7 already busy, 6 GPUs are free; allocating {0,1}
        // preserves the bandwidth among {2,3,4,5}.
        let mut state = HardwareState::new(machines::dgx1_v100());
        state.allocate(99, &[6, 7]).unwrap();
        let p = preserved_bandwidth(&state, &[0, 1]);
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
        let mut state = HardwareState::new(machines::dgx1_v100());
        state.allocate(1, &[0]).unwrap();
        let _ = preserved_bandwidth(&state, &[0]);
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
