//! Ranking policies: the stage that picks a server before the server's
//! own `AllocationPolicy` picks GPUs. A [`Federation`](crate::Federation)
//! ranks its clusters with the same trait, over [`ShardView::pool`] views.
//!
//! Every policy is deterministic and *labeling-invariant*: the ranking
//! depends only on load/score state, never on incidental candidate
//! identity, and ties break toward the lowest id — the same
//! lexicographic convention the per-server policies use for GPU-set ties
//! (required for reproducible schedules and for the 1-shard ≡
//! single-server equivalence property).

use mapa_topology::HardwareState;
use mapa_workloads::JobSpec;

/// What a [`ServerPolicy`] may consult about one candidate: a server
/// when a cluster ranks its shards, a whole cluster when a federation
/// ranks its clusters.
pub struct ShardView<'a> {
    /// Candidate index: shard within the cluster, or cluster within the
    /// federation.
    pub id: usize,
    load: Load<'a>,
    /// Predicted EffBW of the shard's would-be placement for the job
    /// being ranked. `Some` only when the policy requested scores via
    /// [`ServerPolicy::needs_scores`] *and* the shard can place the job
    /// right now; always `None` for a pool.
    pub selection_eff_bw: Option<f64>,
}

/// Where a view's load comes from.
enum Load<'a> {
    /// A server's occupancy, borrowed: counted only if a policy asks.
    Server(&'a HardwareState),
    /// A pool's idle and total accelerator units.
    Pool { free: usize, total: usize },
}

impl<'a> ShardView<'a> {
    /// The view of one server in its current `state`.
    #[must_use]
    pub fn server(id: usize, state: &'a HardwareState, selection_eff_bw: Option<f64>) -> Self {
        Self {
            id,
            load: Load::Server(state),
            selection_eff_bw,
        }
    }

    /// The view of a pool of servers with `free` of its `total`
    /// accelerator units idle (never scored).
    #[must_use]
    pub fn pool(id: usize, free: usize, total: usize) -> Self {
        Self {
            id,
            load: Load::Pool { free, total },
            selection_eff_bw: None,
        }
    }

    /// Busy fraction of the candidate's units, in `[0, 1]` (0 when it has
    /// none) — size-normalized, so heterogeneous candidates compare by
    /// relative load. A pool's equals that of a server with the same
    /// free and total units, bit for bit.
    #[must_use]
    pub fn busy_fraction(&self) -> f64 {
        match self.load {
            Load::Server(state) => state.busy_fraction(),
            Load::Pool { free, total } => (total - free) as f64 / total.max(1) as f64,
        }
    }
}

/// A server-selection policy, also the federation's cluster-selection one.
///
/// `rank` returns shard ids in preference order; the cluster tries each
/// in turn until one accepts the job (a shard may refuse — it is full, or
/// the job exceeds its machine). A federation ranks its clusters the
/// same way, over pool views. Implementations must be deterministic,
/// must not depend on shard labeling beyond the final lowest-id
/// tie-break, and must include every shard they are willing to use (an
/// omitted shard is never tried for this job).
pub trait ServerPolicy: Send + Sync {
    /// Short name used in reports ("round-robin", "least-loaded", …).
    fn name(&self) -> &'static str;

    /// Whether `rank` consumes per-shard selection scores
    /// ([`ShardView::selection_eff_bw`]). Scores cost one policy peek per
    /// shard per decision (served by each shard's allocation cache), so
    /// they are computed only on request.
    fn needs_scores(&self) -> bool {
        false
    }

    /// Preference order over shards for `job`. `seq` counts successful
    /// placements so far — the rotation state for stateless round-robin.
    fn rank(&self, job: &JobSpec, shards: &[ShardView<'_>], seq: u64) -> Vec<usize>;
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

    fn rank(&self, _job: &JobSpec, shards: &[ShardView<'_>], seq: u64) -> Vec<usize> {
        let n = shards.len();
        if n == 0 {
            return vec![];
        }
        let start = (seq % n as u64) as usize;
        (0..n).map(|i| (start + i) % n).collect()
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

    fn rank(&self, _job: &JobSpec, shards: &[ShardView<'_>], _seq: u64) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..shards.len()).collect();
        ids.sort_by(|&a, &b| {
            shards[a]
                .busy_fraction()
                .total_cmp(&shards[b].busy_fraction())
                .then(a.cmp(&b))
        });
        ids
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

    fn rank(&self, _job: &JobSpec, shards: &[ShardView<'_>], _seq: u64) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..shards.len()).collect();
        ids.sort_by(
            |&a, &b| match (&shards[a].selection_eff_bw, &shards[b].selection_eff_bw) {
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
            },
        );
        ids
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

    fn rank(&self, _job: &JobSpec, shards: &[ShardView<'_>], _seq: u64) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..shards.len()).collect();
        ids.sort_by(|&a, &b| {
            shards[b]
                .busy_fraction()
                .total_cmp(&shards[a].busy_fraction())
                .then(a.cmp(&b))
        });
        ids
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

    fn rank(&self, _job: &JobSpec, shards: &[ShardView<'_>], _seq: u64) -> Vec<usize> {
        (0..shards.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::{machines, Topology};
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

    fn views<'a>(
        owned: &'a [(Topology, HardwareState)],
        scores: &[Option<f64>],
    ) -> Vec<ShardView<'a>> {
        owned
            .iter()
            .enumerate()
            .map(|(id, (_, s))| ShardView::server(id, s, scores.get(id).copied().flatten()))
            .collect()
    }

    #[test]
    fn round_robin_rotates_with_seq_and_is_deterministic() {
        let owned = states(&[0, 0, 0]);
        let v = views(&owned, &[None; 3]);
        let p = RoundRobinPolicy;
        assert_eq!(p.rank(&job(2), &v, 0), vec![0, 1, 2]);
        assert_eq!(p.rank(&job(2), &v, 1), vec![1, 2, 0]);
        assert_eq!(p.rank(&job(2), &v, 2), vec![2, 0, 1]);
        assert_eq!(p.rank(&job(2), &v, 3), vec![0, 1, 2], "wraps");
        // Repeated calls with the same seq agree (stateless).
        assert_eq!(p.rank(&job(2), &v, 7), p.rank(&job(2), &v, 7));
    }

    #[test]
    fn least_loaded_ties_break_toward_lowest_id() {
        // All idle → identity order (lexicographic convention).
        let owned = states(&[0, 0, 0]);
        let p = LeastLoadedPolicy;
        assert_eq!(
            p.rank(&job(2), &views(&owned, &[None; 3]), 0),
            vec![0, 1, 2]
        );
        // Shard 0 busiest → 1 and 2 tie, lowest id first.
        let owned = states(&[4, 2, 2]);
        assert_eq!(
            p.rank(&job(2), &views(&owned, &[None; 3]), 0),
            vec![1, 2, 0]
        );
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
        let rank_fwd = p.rank(&job(1), &views(&fwd, &[None; 3]), 0);
        let rank_rev = p.rank(&job(1), &views(&rev, &[None; 3]), 0);
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
        let v = views(&owned, &[None, None]);
        assert_eq!(LeastLoadedPolicy.rank(&job(2), &v, 0), vec![1, 0]);
    }

    #[test]
    fn best_score_prefers_high_scores_and_breaks_ties_low_id() {
        let owned = states(&[0, 0, 0, 0]);
        let p = BestScorePolicy;
        assert!(p.needs_scores());
        // Scores: shard1 best, shards 0 and 3 tie (equal idle load →
        // lowest id), shard2 cannot place.
        let v = views(&owned, &[Some(40.0), Some(48.0), None, Some(40.0)]);
        assert_eq!(p.rank(&job(2), &v, 0), vec![1, 0, 3, 2]);
        // All equal (score and load) → identity order.
        let v = views(&owned, &[Some(40.0); 4]);
        assert_eq!(p.rank(&job(2), &v, 0), vec![0, 1, 2, 3]);
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
        let v = views(&owned, &[Some(48.0), Some(48.0)]);
        assert_eq!(BestScorePolicy.rank(&job(2), &v, 0), vec![1, 0]);
        // A genuinely better score still dominates any load difference.
        let v = views(&owned, &[Some(48.1), Some(48.0)]);
        assert_eq!(BestScorePolicy.rank(&job(2), &v, 0), vec![0, 1]);
        // Same machine size, same score → ascending busy fraction.
        let owned = states(&[6, 2, 4]);
        let v = views(&owned, &[Some(40.0); 3]);
        assert_eq!(BestScorePolicy.rank(&job(2), &v, 0), vec![1, 2, 0]);
    }

    #[test]
    fn pack_first_prefers_fullest_and_breaks_ties_low_id() {
        let p = PackFirstPolicy;
        let owned = states(&[2, 6, 2]);
        assert_eq!(
            p.rank(&job(2), &views(&owned, &[None; 3]), 0),
            vec![1, 0, 2]
        );
        // All idle → identity order.
        let owned = states(&[0, 0, 0]);
        assert_eq!(
            p.rank(&job(2), &views(&owned, &[None; 3]), 0),
            vec![0, 1, 2]
        );
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
                .map(|(i, &mask)| {
                    let mut s = HardwareState::new(fleet[i % fleet.len()].clone());
                    let n = s.topology().gpu_count();
                    let busy: Vec<usize> = (0..n).filter(|g| mask >> g & 1 == 1).collect();
                    if !busy.is_empty() {
                        s.allocate(1, &busy).unwrap();
                    }
                    s
                })
                .collect();
            let score = |id: usize| (scores[id] > 0).then(|| f64::from(scores[id]) * 10.0);
            let servers: Vec<ShardView<'_>> = states
                .iter()
                .enumerate()
                .map(|(id, s)| ShardView::server(id, s, score(id)))
                .collect();
            let pools: Vec<ShardView<'_>> = states
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut v = ShardView::pool(id, s.free_count(), s.topology().gpu_count());
                    v.selection_eff_bw = score(id);
                    v
                })
                .collect();
            for (server, pool) in servers.iter().zip(&pools) {
                assert_eq!(server.busy_fraction().to_bits(), pool.busy_fraction().to_bits());
            }
            let policies: [&dyn ServerPolicy; 5] = [
                &RoundRobinPolicy,
                &LeastLoadedPolicy,
                &BestScorePolicy,
                &PackFirstPolicy,
                &SpilloverPolicy,
            ];
            for p in policies {
                assert_eq!(p.rank(&job(1), &servers, seq), p.rank(&job(1), &pools, seq), "{}", p.name());
            }
            // Least-loaded over pools keeps the cluster-ranking rule it
            // replaced: ascending (total − free) / total, a pool without
            // units idle, ties toward the lower id.
            let mut sizes: Vec<(usize, usize)> = states
                .iter()
                .map(|s| (s.free_count(), s.topology().gpu_count()))
                .collect();
            sizes.push((0, 0));
            let pools: Vec<ShardView<'_>> = sizes
                .iter()
                .enumerate()
                .map(|(id, &(free, total))| ShardView::pool(id, free, total))
                .collect();
            let busy = |(free, total): (usize, usize)| {
                if total == 0 { 0.0 } else { (total - free) as f64 / total as f64 }
            };
            let mut expected: Vec<usize> = (0..sizes.len()).collect();
            expected.sort_by(|&a, &b| busy(sizes[a]).total_cmp(&busy(sizes[b])).then(a.cmp(&b)));
            assert_eq!(LeastLoadedPolicy.rank(&job(1), &pools, seq), expected);
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
