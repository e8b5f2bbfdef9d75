//! Ranking policies: the stage that picks a server before the server's
//! own `AllocationPolicy` picks GPUs. A [`Federation`](crate::Federation)
//! ranks its clusters with the same trait, each cluster seen as a pool of
//! units.
//!
//! Every policy is deterministic and *labeling-invariant*: the ranking
//! depends only on load/score state, never on incidental candidate
//! identity, and ties break toward the lowest id — the same
//! lexicographic convention the per-server policies use for GPU-set ties
//! (required for reproducible schedules and for the 1-shard ≡
//! single-server equivalence property).

use mapa_workloads::JobSpec;

/// What a [`ServerPolicy`] may consult about the candidates it ranks —
/// servers when a cluster ranks its shards, whole clusters when a
/// federation ranks its clusters — numbered `0..len()`.
///
/// Building one costs O(1) whatever the candidate count: it holds a
/// closure that reads a candidate's load only when a policy asks, so a
/// policy that never looks at load (round-robin, spillover) never touches
/// a candidate.
pub struct Candidates<'a> {
    len: usize,
    busy: &'a dyn Fn(usize) -> f64,
    scores: &'a [Option<f64>],
}

impl<'a> Candidates<'a> {
    /// `len` candidates whose busy fractions `busy` reads on demand (see
    /// [`Self::busy_fraction`]), with `scores[i]` as candidate `i`'s
    /// [`Self::selection_eff_bw`]. Pass no scores (`&[]`) when the policy
    /// does not [`ServerPolicy::needs_scores`].
    #[must_use]
    pub(crate) fn new(
        len: usize,
        busy: &'a dyn Fn(usize) -> f64,
        scores: &'a [Option<f64>],
    ) -> Self {
        Self { len, busy, scores }
    }

    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there is no candidate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Busy fraction of candidate `i`'s units, in `[0, 1]` (0 when it has
    /// none) — size-normalized, so heterogeneous candidates compare by
    /// relative load. A server's is its `HardwareState::busy_fraction`, a
    /// pool's is `(total − free) / total.max(1)`: the two agree bit for bit
    /// on the same free and total units.
    #[must_use]
    pub fn busy_fraction(&self, i: usize) -> f64 {
        (self.busy)(i)
    }

    /// Predicted EffBW of candidate `i`'s would-be placement for the job
    /// being ranked. `Some` only when the policy requested scores via
    /// [`ServerPolicy::needs_scores`] *and* the candidate can place the
    /// job right now; always `None` for a pool.
    #[must_use]
    pub fn selection_eff_bw(&self, i: usize) -> Option<f64> {
        self.scores.get(i).copied().flatten()
    }
}

/// Busy fraction of a pool with `free` of its `total` units idle:
/// `(total − free) / total.max(1)`, the same `f64` bits a server with
/// those counts reports.
#[must_use]
pub(crate) fn pool_busy_fraction(free: usize, total: usize) -> f64 {
    (total - free) as f64 / total.max(1) as f64
}

/// A server-selection policy, also the federation's cluster-selection one.
///
/// `rank` writes candidate ids in preference order; the cluster tries
/// each in turn until one accepts the job (a shard may refuse — it is
/// full, or the job exceeds its machine). A federation ranks its clusters
/// the same way, as pools. Implementations must be deterministic, must
/// not depend on candidate labeling beyond the final lowest-id
/// tie-break, and must include every candidate they are willing to use
/// (an omitted one is never tried for this job).
pub trait ServerPolicy: Send + Sync {
    /// Short name used in reports ("round-robin", "least-loaded", …).
    fn name(&self) -> &'static str;

    /// Whether `rank` consumes per-shard selection scores
    /// ([`Candidates::selection_eff_bw`]). Scores cost one policy peek per
    /// shard per decision (served by the allocation cache the shards of a
    /// machine type share), so they are computed only on request.
    fn needs_scores(&self) -> bool {
        false
    }

    /// Writes the preference order over `candidates` for `job` into
    /// `order`, replacing what it held. `order` is the caller's buffer,
    /// reused across calls so that ranking allocates nothing once it has
    /// grown to the candidate count. `seq` counts successful placements so
    /// far — the rotation state for stateless round-robin.
    fn rank(&self, job: &JobSpec, candidates: &Candidates<'_>, seq: u64, order: &mut Vec<usize>);
}

/// Replaces `order` with every candidate id, ascending: what the sorting
/// policies sort. Their comparators end on the id, so no two candidates
/// compare equal and an unstable sort, which allocates nothing, orders
/// them as a stable one would.
fn fill(order: &mut Vec<usize>, candidates: &Candidates<'_>) {
    order.clear();
    order.extend(0..candidates.len());
}

/// Names accepted by [`server_policy_by_name`], in documentation order.
pub const SERVER_POLICY_NAMES: [&str; 4] =
    ["round-robin", "least-loaded", "best-score", "pack-first"];

/// Resolves a server policy from its CLI name (case-insensitive).
#[must_use]
pub fn server_policy_by_name(name: &str) -> Option<Box<dyn ServerPolicy>> {
    match name.to_ascii_lowercase().as_str() {
        "round-robin" | "roundrobin" => Some(Box::new(RoundRobinPolicy)),
        "least-loaded" | "leastloaded" => Some(Box::new(LeastLoadedPolicy)),
        "best-score" | "bestscore" | "best-pattern-score" => Some(Box::new(BestScorePolicy)),
        "pack-first" | "packfirst" => Some(Box::new(PackFirstPolicy)),
        _ => None,
    }
}

/// Rotate through shards: placement `seq` starts its probe at shard
/// `seq mod N` and wraps. Ignores load entirely — the fairness baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPolicy;

impl ServerPolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn rank(&self, _job: &JobSpec, candidates: &Candidates<'_>, seq: u64, order: &mut Vec<usize>) {
        let n = candidates.len();
        order.clear();
        if n > 0 {
            let start = (seq % n as u64) as usize;
            order.extend((start..n).chain(0..start));
        }
    }
}

/// Prefer the shard with the smallest busy *fraction* (size-normalized,
/// so heterogeneous fleets balance by relative load, not absolute GPU
/// counts). Ties break toward the lowest shard id.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoadedPolicy;

impl ServerPolicy for LeastLoadedPolicy {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn rank(&self, _job: &JobSpec, candidates: &Candidates<'_>, _seq: u64, order: &mut Vec<usize>) {
        fill(order, candidates);
        order.sort_unstable_by(|&a, &b| {
            candidates
                .busy_fraction(a)
                .total_cmp(&candidates.busy_fraction(b))
                .then(a.cmp(&b))
        });
    }
}

/// Prefer the shard whose own allocation policy would place the job with
/// the highest Predicted EffBW *right now* — MAPA's scoring lifted to the
/// server-selection stage. Shards that cannot place the job fall to the
/// back (by ascending id).
///
/// Score ties break toward the shard with the smallest busy *fraction* —
/// normalized per machine size, so a heterogeneous fleet's tie goes to
/// the relatively idler machine, not whichever equal-scoring shard has
/// the lower id (raw-score tie-breaking systematically piled tied jobs
/// onto low-id shards regardless of how loaded they already were) — and
/// only then toward the lowest shard id.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestScorePolicy;

impl ServerPolicy for BestScorePolicy {
    fn name(&self) -> &'static str {
        "best-score"
    }

    fn needs_scores(&self) -> bool {
        true
    }

    fn rank(&self, _job: &JobSpec, candidates: &Candidates<'_>, _seq: u64, order: &mut Vec<usize>) {
        let c = candidates;
        fill(order, c);
        order.sort_unstable_by(
            |&a, &b| match (c.selection_eff_bw(a), c.selection_eff_bw(b)) {
                (Some(sa), Some(sb)) => sb
                    .total_cmp(&sa)
                    .then_with(|| c.busy_fraction(a).total_cmp(&c.busy_fraction(b)))
                    .then(a.cmp(&b)),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => a.cmp(&b),
            },
        );
    }
}

/// Bin-packing: prefer the *most* loaded shard that still has room, so
/// jobs consolidate onto few servers and whole machines stay free for
/// large arrivals (the anti-fragmentation counterpart of least-loaded).
/// Ties break toward the lowest shard id.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackFirstPolicy;

impl ServerPolicy for PackFirstPolicy {
    fn name(&self) -> &'static str {
        "pack-first"
    }

    fn rank(&self, _job: &JobSpec, candidates: &Candidates<'_>, _seq: u64, order: &mut Vec<usize>) {
        fill(order, candidates);
        order.sort_unstable_by(|&a, &b| {
            candidates
                .busy_fraction(b)
                .total_cmp(&candidates.busy_fraction(a))
                .then(a.cmp(&b))
        });
    }
}

/// First-fit: always prefer the lowest id; later candidates only
/// receive what earlier ones cannot take. The federation's baseline that
/// makes spillover observable — under it, `spillovers == 0` iff cluster
/// 0 absorbed everything. Not a `--server-policy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpilloverPolicy;

impl ServerPolicy for SpilloverPolicy {
    fn name(&self) -> &'static str {
        "spillover"
    }

    fn rank(&self, _job: &JobSpec, candidates: &Candidates<'_>, _seq: u64, order: &mut Vec<usize>) {
        fill(order, candidates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::{machines, HardwareState, PartitionPlan, Topology};
    use mapa_workloads::{GpuDemand, Workload};

    fn job(n: usize) -> JobSpec {
        JobSpec::new(1, GpuDemand::Whole(n), Workload::Vgg16).with_iterations(1)
    }

    /// Builds identical dgx1-v100 states with the given busy GPU counts.
    fn states(busy: &[usize]) -> Vec<(Topology, HardwareState)> {
        busy.iter()
            .map(|&b| {
                let t = machines::dgx1_v100();
                let mut s = HardwareState::new(t.clone());
                if b > 0 {
                    s.allocate(99, &(0..b).collect::<Vec<_>>()).unwrap();
                }
                (t, s)
            })
            .collect()
    }

    /// `p`'s ranking of the servers in `owned` with `scores` (missing
    /// entries are `None`), as a cluster builds its candidates.
    fn rank(
        p: &dyn ServerPolicy,
        owned: &[(Topology, HardwareState)],
        scores: &[Option<f64>],
        seq: u64,
    ) -> Vec<usize> {
        let busy = |i: usize| owned[i].1.busy_fraction();
        ranked(p, &Candidates::new(owned.len(), &busy, scores), seq)
    }

    /// `p`'s ranking of `candidates`, written into a buffer that still
    /// holds another order: `rank` must replace it.
    fn ranked(p: &dyn ServerPolicy, candidates: &Candidates<'_>, seq: u64) -> Vec<usize> {
        let mut order = vec![usize::MAX; 3];
        p.rank(&job(2), candidates, seq, &mut order);
        order
    }

    #[test]
    fn round_robin_rotates_with_seq_and_is_deterministic() {
        let owned = states(&[0, 0, 0]);
        let p = RoundRobinPolicy;
        assert_eq!(rank(&p, &owned, &[], 0), vec![0, 1, 2]);
        assert_eq!(rank(&p, &owned, &[], 1), vec![1, 2, 0]);
        assert_eq!(rank(&p, &owned, &[], 2), vec![2, 0, 1]);
        assert_eq!(rank(&p, &owned, &[], 3), vec![0, 1, 2], "wraps");
        // Repeated calls with the same seq agree (stateless).
        assert_eq!(rank(&p, &owned, &[], 7), rank(&p, &owned, &[], 7));
    }

    #[test]
    fn least_loaded_ties_break_toward_lowest_id() {
        // All idle → identity order (lexicographic convention).
        let owned = states(&[0, 0, 0]);
        let p = LeastLoadedPolicy;
        assert_eq!(rank(&p, &owned, &[None; 3], 0), vec![0, 1, 2]);
        // Shard 0 busiest → 1 and 2 tie, lowest id first.
        let owned = states(&[4, 2, 2]);
        assert_eq!(rank(&p, &owned, &[None; 3], 0), vec![1, 2, 0]);
    }

    #[test]
    fn least_loaded_is_labeling_invariant() {
        // Permuting which shard id carries which load permutes the
        // ranking identically: the decision follows the *state*, not the
        // label. (The same states under swapped ids produce the swapped
        // ranking.)
        let p = LeastLoadedPolicy;
        let fwd = states(&[6, 0, 3]);
        let rev = states(&[3, 0, 6]);
        let rank_fwd = rank(&p, &fwd, &[None; 3], 0);
        let rank_rev = rank(&p, &rev, &[None; 3], 0);
        // fwd loads (6,0,3) → order 1,2,0 ; rev loads (3,0,6) → 1,0,2.
        assert_eq!(rank_fwd, vec![1, 2, 0]);
        assert_eq!(rank_rev, vec![1, 0, 2]);
        // The permutation π = (0↔2) maps one ranking to the other.
        let mapped: Vec<usize> = rank_fwd.iter().map(|&s| [2, 1, 0][s]).collect();
        assert_eq!(mapped, rank_rev);
    }

    #[test]
    fn least_loaded_normalizes_by_machine_size() {
        // 4 busy of 16 (DGX-2, 25%) is *less* loaded than 4 busy of 8
        // (DGX-1, 50%) even though absolute busy counts are equal.
        let dgx2 = machines::dgx2();
        let mut s2 = HardwareState::new(dgx2.clone());
        s2.allocate(1, &[0, 1, 2, 3]).unwrap();
        let dgx1 = machines::dgx1_v100();
        let mut s1 = HardwareState::new(dgx1.clone());
        s1.allocate(1, &[0, 1, 2, 3]).unwrap();
        let owned = vec![(dgx1, s1), (dgx2, s2)];
        assert_eq!(
            rank(&LeastLoadedPolicy, &owned, &[None, None], 0),
            vec![1, 0]
        );
    }

    #[test]
    fn best_score_prefers_high_scores_and_breaks_ties_low_id() {
        let owned = states(&[0, 0, 0, 0]);
        let p = BestScorePolicy;
        assert!(p.needs_scores());
        // Scores: shard1 best, shards 0 and 3 tie (equal idle load →
        // lowest id), shard2 cannot place.
        let scores = [Some(40.0), Some(48.0), None, Some(40.0)];
        assert_eq!(rank(&p, &owned, &scores, 0), vec![1, 0, 3, 2]);
        // All equal (score and load) → identity order.
        assert_eq!(rank(&p, &owned, &[Some(40.0); 4], 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn best_score_ties_normalize_load_by_machine_size() {
        // Regression: a DGX-1 with 4 of 8 GPUs busy (50%) and a DGX-2
        // with 4 of 16 busy (25%) offer the same score. The raw tie-break
        // used to hand the job to shard 0 by id alone; the normalized
        // tie-break must prefer the *relatively* idler DGX-2 even though
        // both have 4 busy GPUs and the DGX-2 has the higher id.
        let dgx1 = machines::dgx1_v100();
        let mut s1 = HardwareState::new(dgx1.clone());
        s1.allocate(1, &[0, 1, 2, 3]).unwrap();
        let dgx2 = machines::dgx2();
        let mut s2 = HardwareState::new(dgx2.clone());
        s2.allocate(1, &[0, 1, 2, 3]).unwrap();
        let owned = vec![(dgx1, s1), (dgx2, s2)];
        let p = BestScorePolicy;
        assert_eq!(rank(&p, &owned, &[Some(48.0), Some(48.0)], 0), vec![1, 0]);
        // A genuinely better score still dominates any load difference.
        assert_eq!(rank(&p, &owned, &[Some(48.1), Some(48.0)], 0), vec![0, 1]);
        // Same machine size, same score → ascending busy fraction.
        let owned = states(&[6, 2, 4]);
        assert_eq!(rank(&p, &owned, &[Some(40.0); 3], 0), vec![1, 2, 0]);
    }

    #[test]
    fn pack_first_prefers_fullest_and_breaks_ties_low_id() {
        let p = PackFirstPolicy;
        let owned = states(&[2, 6, 2]);
        assert_eq!(rank(&p, &owned, &[None; 3], 0), vec![1, 0, 2]);
        // All idle → identity order.
        let owned = states(&[0, 0, 0]);
        assert_eq!(rank(&p, &owned, &[None; 3], 0), vec![0, 1, 2]);
    }

    const POLICIES: [&dyn ServerPolicy; 5] = [
        &RoundRobinPolicy,
        &LeastLoadedPolicy,
        &BestScorePolicy,
        &PackFirstPolicy,
        &SpilloverPolicy,
    ];

    /// Occupancy of `fleet[i % fleet.len()]` with the GPUs of `mask` busy.
    fn occupied(fleet: &[Topology], i: usize, mask: u64) -> HardwareState {
        let mut s = HardwareState::new(fleet[i % fleet.len()].clone());
        let n = s.topology().gpu_count();
        let busy: Vec<usize> = (0..n).filter(|g| mask >> g & 1 == 1).collect();
        if !busy.is_empty() {
            s.allocate(1, &busy).unwrap();
        }
        s
    }

    proptest::proptest! {
        /// One policy ranks a pool exactly as it ranks the server the
        /// pool summarises — the invariant that lets one trait rank both
        /// shards and clusters. Random occupancies of four machines, the
        /// same scores on both sides, all five policies.
        #[test]
        fn pools_rank_as_the_servers_they_summarise(
            masks in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..9),
            scores in proptest::collection::vec(0u8..4, 9),
            seq in 0u64..64,
        ) {
            let fleet = [
                machines::dgx1_v100(),
                machines::dgx2(),
                machines::summit(),
                machines::cube_mesh(),
            ];
            let states: Vec<HardwareState> = masks
                .iter()
                .enumerate()
                .map(|(i, &mask)| occupied(&fleet, i, mask))
                .collect();
            let scores: Vec<Option<f64>> = scores
                .iter()
                .map(|&s| (s > 0).then(|| f64::from(s) * 10.0))
                .collect();
            let server = |i: usize| states[i].busy_fraction();
            let pool = |i: usize| {
                pool_busy_fraction(states[i].free_count(), states[i].topology().gpu_count())
            };
            for i in 0..states.len() {
                assert_eq!(server(i).to_bits(), pool(i).to_bits());
            }
            let servers = Candidates::new(states.len(), &server, &scores);
            let pools = Candidates::new(states.len(), &pool, &scores);
            for p in POLICIES {
                assert_eq!(ranked(p, &servers, seq), ranked(p, &pools, seq), "{}", p.name());
            }
            // Least-loaded over pools keeps the cluster-ranking rule it
            // replaced: ascending (total − free) / total, a pool without
            // units idle, ties toward the lower id.
            let mut sizes: Vec<(usize, usize)> = states
                .iter()
                .map(|s| (s.free_count(), s.topology().gpu_count()))
                .collect();
            sizes.push((0, 0));
            let pool = |i: usize| pool_busy_fraction(sizes[i].0, sizes[i].1);
            let pools = Candidates::new(sizes.len(), &pool, &[]);
            let busy = |(free, total): (usize, usize)| {
                if total == 0 { 0.0 } else { (total - free) as f64 / total as f64 }
            };
            let mut expected: Vec<usize> = (0..sizes.len()).collect();
            expected.sort_by(|&a, &b| busy(sizes[a]).total_cmp(&busy(sizes[b])).then(a.cmp(&b)));
            assert_eq!(ranked(&LeastLoadedPolicy, &pools, seq), expected);
        }
    }

    /// The ranking as it was before candidates were read on demand: every
    /// candidate materialised as a view, each policy's order computed over
    /// the view slice. Kept only as the oracle the accessor rankings are
    /// checked against.
    mod oracle {
        use mapa_topology::HardwareState;

        /// One candidate, materialised.
        pub struct ShardView<'a> {
            pub load: Load<'a>,
            pub selection_eff_bw: Option<f64>,
        }

        /// Where a view's load comes from.
        pub enum Load<'a> {
            Server(&'a HardwareState),
            Pool { free: usize, total: usize },
        }

        impl ShardView<'_> {
            fn busy_fraction(&self) -> f64 {
                match self.load {
                    Load::Server(state) => state.busy_fraction(),
                    Load::Pool { free, total } => (total - free) as f64 / total.max(1) as f64,
                }
            }
        }

        /// The named policy's order over `shards`.
        pub fn rank(policy: &str, shards: &[ShardView<'_>], seq: u64) -> Vec<usize> {
            let mut ids: Vec<usize> = (0..shards.len()).collect();
            match policy {
                "round-robin" => {
                    let n = shards.len();
                    if n == 0 {
                        return vec![];
                    }
                    let start = (seq % n as u64) as usize;
                    return (0..n).map(|i| (start + i) % n).collect();
                }
                "least-loaded" => ids.sort_by(|&a, &b| {
                    shards[a]
                        .busy_fraction()
                        .total_cmp(&shards[b].busy_fraction())
                        .then(a.cmp(&b))
                }),
                "best-score" => ids.sort_by(|&a, &b| {
                    match (&shards[a].selection_eff_bw, &shards[b].selection_eff_bw) {
                        (Some(sa), Some(sb)) => sb
                            .total_cmp(sa)
                            .then_with(|| {
                                shards[a]
                                    .busy_fraction()
                                    .total_cmp(&shards[b].busy_fraction())
                            })
                            .then(a.cmp(&b)),
                        (Some(_), None) => std::cmp::Ordering::Less,
                        (None, Some(_)) => std::cmp::Ordering::Greater,
                        (None, None) => a.cmp(&b),
                    }
                }),
                "pack-first" => ids.sort_by(|&a, &b| {
                    shards[b]
                        .busy_fraction()
                        .total_cmp(&shards[a].busy_fraction())
                        .then(a.cmp(&b))
                }),
                "spillover" => {}
                other => panic!("no oracle for policy '{other}'"),
            }
            ids
        }
    }

    proptest::proptest! {
        /// Every policy ranks on-demand candidates exactly as the
        /// materialised oracle ranks the same candidates as views, each
        /// side handed scores only when the policy asks for them: servers
        /// of a heterogeneous fleet with MIG-split machines among them
        /// (idle, sparse, half and dense busy sets), and pools; scores
        /// `Some`, `None` and tied; every size from one candidate to past
        /// two 64-bit words; rotations at both ends of a wrap and at
        /// `u64::MAX`.
        #[test]
        fn accessor_rankings_match_the_materialised_oracle(
            n_idx in 0usize..6,
            masks in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), 0u8..4),
                130,
            ),
            scores in proptest::collection::vec(0u8..6, 130),
            pools in proptest::collection::vec((0usize..40, 0usize..40), 130),
        ) {
            let n = [1, 2, 7, 64, 65, 130][n_idx];
            let fleet = [
                machines::dgx1_v100(),
                PartitionPlan::new().split(0, 7).split(3, 3).apply(&machines::dgx1_v100()),
                machines::dgx2(),
                machines::summit(),
                PartitionPlan::new().split(5, 2).apply(&machines::dgx2()),
                machines::cube_mesh(),
            ];
            let states: Vec<HardwareState> = masks[..n]
                .iter()
                .enumerate()
                .map(|(i, &(a, b, density))| {
                    let mask = match density {
                        0 => 0,
                        1 => a & b,
                        2 => a,
                        _ => a | b,
                    };
                    occupied(&fleet, i, mask)
                })
                .collect();
            // 0 → None; 1 and 2 tie at one value; 3.. distinct.
            let scores: Vec<Option<f64>> = scores[..n]
                .iter()
                .map(|&s| match s {
                    0 => None,
                    1 | 2 => Some(40.0),
                    s => Some(f64::from(s) * 7.5),
                })
                .collect();
            // Pools with free ≤ total, some of them without units.
            let sizes: Vec<(usize, usize)> = pools[..n]
                .iter()
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            let server = |i: usize| states[i].busy_fraction();
            let pool = |i: usize| pool_busy_fraction(sizes[i].0, sizes[i].1);
            let pool_views: Vec<oracle::ShardView<'_>> = sizes
                .iter()
                .map(|&(free, total)| oracle::ShardView {
                    load: oracle::Load::Pool { free, total },
                    selection_eff_bw: None,
                })
                .collect();
            for p in POLICIES {
                let scored: &[Option<f64>] = if p.needs_scores() { &scores } else { &[] };
                let server_views: Vec<oracle::ShardView<'_>> = states
                    .iter()
                    .enumerate()
                    .map(|(i, s)| oracle::ShardView {
                        load: oracle::Load::Server(s),
                        selection_eff_bw: scored.get(i).copied().flatten(),
                    })
                    .collect();
                let servers = Candidates::new(n, &server, scored);
                let pooled = Candidates::new(n, &pool, &[]);
                for seq in [0, n as u64 - 1, n as u64, u64::MAX] {
                    proptest::prop_assert_eq!(
                        ranked(p, &servers, seq),
                        oracle::rank(p.name(), &server_views, seq),
                        "{} over servers, seq {}", p.name(), seq
                    );
                    proptest::prop_assert_eq!(
                        ranked(p, &pooled, seq),
                        oracle::rank(p.name(), &pool_views, seq),
                        "{} over pools, seq {}", p.name(), seq
                    );
                }
            }
        }
    }

    #[test]
    fn by_name_resolves_every_documented_policy() {
        for name in SERVER_POLICY_NAMES {
            let p = server_policy_by_name(name).expect(name);
            assert_eq!(p.name(), name);
        }
        assert!(server_policy_by_name("BEST-SCORE").is_some(), "case folds");
        assert!(server_policy_by_name("nope").is_none());
    }
}
