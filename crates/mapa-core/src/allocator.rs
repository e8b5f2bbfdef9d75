//! The MAPA allocator engine: scoring + policy + state (§3.6).

use crate::cache::{AllocationCache, CacheStats, Decision};
use crate::policy::{AllocationPolicy, Capacity, PolicyContext};
use crate::preempt::PreemptionPolicy;
use crate::scoring::{MatchScore, SetScorer};
use mapa_model::EffBwModel;
use mapa_topology::{AllocationError, HardwareState, Topology, WordMap};
use mapa_workloads::JobSpec;
use std::collections::HashSet;
use std::fmt;
use std::time::{Duration, Instant};

/// A successful allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationOutcome {
    /// The job that was placed.
    pub job_id: u64,
    /// Physical GPUs assigned, ascending.
    pub gpus: Vec<usize>,
    /// Scores of the selected match (Eq. 1–3 + link mix).
    pub score: MatchScore,
    /// Wall-clock time the decision took — the §5.4 scheduling overhead.
    pub scheduling_overhead: Duration,
}

/// Allocator errors (distinct from "no capacity right now", which is a
/// normal `Ok(None)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocatorError {
    /// The job requests zero GPUs or more than the machine can ever give
    /// it ([`Capacity::fits`]).
    InvalidRequest {
        /// GPUs requested.
        requested: usize,
        /// The most GPUs the job's demand kind can get on the machine
        /// ([`Capacity::bound`]).
        machine: usize,
    },
    /// State-transition failure (duplicate job id, etc.).
    State(AllocationError),
}

impl fmt::Display for AllocatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocatorError::InvalidRequest { requested, machine } => {
                write!(
                    f,
                    "job requests {requested} GPUs on a {machine}-GPU machine"
                )
            }
            AllocatorError::State(e) => write!(f, "state error: {e}"),
        }
    }
}

impl std::error::Error for AllocatorError {}

impl From<AllocationError> for AllocatorError {
    fn from(e: AllocationError) -> Self {
        AllocatorError::State(e)
    }
}

/// Tunables of the allocation fast path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocatorConfig {
    /// Memoize decisions in an [`AllocationCache`]. Off by default so the
    /// uncached path stays the reference; the simulator turns it on (the
    /// property tests prove the two paths produce identical placements
    /// and bit-identical scores).
    pub cached: bool,
}

impl AllocatorConfig {
    /// Config with the allocation cache enabled: an entry is the whole
    /// decision — the GPU set and its [`MatchScore`] — so a hit runs
    /// neither the policy nor the scorer. Sound because the key pins
    /// everything both read (see [`crate::cache`]).
    #[must_use]
    pub fn cached() -> Self {
        Self { cached: true }
    }
}

/// The full MAPA stack for one machine: the Predicted-EffBW model (fitted
/// on this machine's own microbenchmark corpus, falling back to the
/// paper's Table 2 coefficients when the machine is too uniform to produce
/// enough unique link mixes), the selection policy, the allocation state,
/// and (optionally) the allocation-decision cache.
pub struct MapaAllocator {
    topology: Topology,
    state: HardwareState,
    model: EffBwModel,
    policy: Box<dyn AllocationPolicy>,
    cache: Option<AllocationCache>,
    /// Scheduling metadata of every active job — what preemption victim
    /// selection ranks on. Keyed by job id; maintained by
    /// `try_allocate`/`release`.
    active: WordMap<ActiveJob>,
    /// Monotonic allocation counter; `ActiveJob::seq` snapshots it so
    /// victim ordering can prefer the youngest allocation.
    alloc_seq: u64,
}

/// Metadata of one running job, recorded at allocation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActiveJob {
    priority: u8,
    bandwidth_sensitive: bool,
    /// Allocation order (younger = larger).
    seq: u64,
}

impl MapaAllocator {
    /// Builds an allocator, fitting the EffBW model on the machine's own
    /// 2–5-GPU allocation corpus (§3.4.3 protocol;
    /// [`EffBwModel::for_machine`]).
    #[must_use]
    pub fn new(topology: Topology, policy: Box<dyn AllocationPolicy>) -> Self {
        let model = EffBwModel::for_machine(&topology);
        Self::with_model(topology, policy, model)
    }

    /// Builds an allocator with an explicit model (e.g. the paper's
    /// Table 2 coefficients, or a model fitted on another machine).
    #[must_use]
    pub fn with_model(
        topology: Topology,
        policy: Box<dyn AllocationPolicy>,
        model: EffBwModel,
    ) -> Self {
        Self {
            state: HardwareState::new(topology.clone()),
            model,
            policy,
            topology,
            cache: None,
            active: WordMap::default(),
            alloc_seq: 0,
        }
    }

    /// Applies an [`AllocatorConfig`] (builder style).
    #[must_use]
    pub fn with_config(mut self, config: AllocatorConfig) -> Self {
        self.apply_config(&config);
        self
    }

    /// Applies an [`AllocatorConfig`] in place. Disabling the cache drops
    /// it (and its counters); enabling it when one is already active keeps
    /// the existing entries and counters.
    pub fn apply_config(&mut self, config: &AllocatorConfig) {
        if !config.cached {
            self.cache = None;
        } else if self.cache.is_none() {
            self.cache = Some(AllocationCache::default());
        }
    }

    /// Counters of the allocation cache, if enabled: this allocator's own
    /// lookups, insertions and evictions, also when its table is shared.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(AllocationCache::stats)
    }

    /// Makes this allocator read and write `other`'s decision table when
    /// both cache and decide alike: an equal machine (`Topology`'s `==`:
    /// name, links, sockets and slices), the same policy name (see the
    /// [`AllocationPolicy`] purity contract) and an equal model. Every
    /// decision either made is then a hit for the other. This allocator's
    /// counters are kept; its own entries go with its old table. Returns
    /// whether the tables are now one.
    pub fn share_cache_with(&mut self, other: &MapaAllocator) -> bool {
        let (Some(mine), Some(theirs)) = (self.cache.as_mut(), other.cache.as_ref()) else {
            return false;
        };
        let alike = self.policy.name() == other.policy.name()
            && self.model == other.model
            && self.topology == other.topology;
        if alike {
            mine.join(theirs);
        }
        alike
    }

    /// The machine this allocator manages.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current occupancy.
    #[must_use]
    pub fn state(&self) -> &HardwareState {
        &self.state
    }

    /// The Predicted-EffBW model in use.
    #[must_use]
    pub fn model(&self) -> &EffBwModel {
        &self.model
    }

    /// The active policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether `job` is worth a decision right now. A request for more
    /// GPUs than are free is refused by that comparison alone (a policy
    /// may only return free, distinct GPUs, so no policy could place it):
    /// nothing is hashed, looked up, counted or stored.
    fn has_room_for(&self, job: &JobSpec) -> Result<bool, AllocatorError> {
        let capacity = Capacity::of(&self.topology);
        if !capacity.fits(job) {
            return Err(AllocatorError::InvalidRequest {
                requested: job.num_gpus(),
                machine: capacity.bound(job),
            });
        }
        Ok(self.state.free_count() >= job.num_gpus())
    }

    /// What `read` makes of the decision for `job` against the current
    /// occupancy — the policy's selection and its scores — without
    /// touching state; the caller has checked [`Self::has_room_for`]. With
    /// the cache on this is get-or-compute, read in place: the policy and
    /// the scorer run on a miss only.
    fn decide<R>(&mut self, job: &JobSpec, read: impl FnOnce(&Decision) -> R) -> R {
        // One scorer per decision: the policy ranks candidates with it and
        // the winner is scored from the same tables — before any state
        // transition, since preserved BW is defined against the
        // pre-allocation free graph.
        let decide = || {
            let scorer = SetScorer::new(&self.state, &self.model, job);
            let ctx = PolicyContext {
                topology: &self.topology,
                state: &self.state,
                model: &self.model,
                scorer: &scorer,
            };
            self.policy.select(job, &ctx).map(|gpus| {
                let score = scorer.score(job, &gpus);
                (gpus, score)
            })
        };
        let Some(cache) = self.cache.as_mut() else {
            return read(&decide());
        };
        // Fast path: answer from the allocation cache when the exact
        // (pattern, sensitivity, demand kind, SLO tag, occupancy) decision
        // was already made — here or on any allocator sharing the table.
        cache.read_or_insert_with(job, self.state.busy_words(), decide, read)
    }

    /// What `read` makes of the placement `try_allocate` would make for
    /// `job` right now — `Some` selected GPU set and its scores, or `None`
    /// when the policy cannot place the job now — without transitioning
    /// state. The preview goes through the allocation cache exactly like a
    /// real allocation (same lookup, same hit and miss counts), so a
    /// cluster-level server-selection stage can score every shard's
    /// would-be placement cheaply and the winning shard's subsequent
    /// `try_allocate` is a guaranteed cache hit. A caller after the score
    /// or the feasibility alone reads the cached decision in place and
    /// copies nothing.
    ///
    /// # Errors
    /// [`AllocatorError::InvalidRequest`] for impossible requests.
    pub fn peek_with<R>(
        &mut self,
        job: &JobSpec,
        read: impl FnOnce(&Decision) -> R,
    ) -> Result<R, AllocatorError> {
        if !self.has_room_for(job)? {
            return Ok(read(&None));
        }
        Ok(self.decide(job, read))
    }

    /// Previews the placement `try_allocate` would make for `job` right
    /// now — the selected GPU set and its scores — as
    /// [`MapaAllocator::peek_with`] does, copied out.
    ///
    /// Returns `Ok(None)` when the policy cannot place the job right now.
    ///
    /// # Errors
    /// [`AllocatorError::InvalidRequest`] for impossible requests.
    pub fn peek(
        &mut self,
        job: &JobSpec,
    ) -> Result<Option<(Vec<usize>, MatchScore)>, AllocatorError> {
        self.peek_with(job, Clone::clone)
    }

    /// Attempts to place `job`. Returns `Ok(None)` when the machine lacks
    /// free GPUs for it right now (the caller should retry after a
    /// deallocation, as the FIFO queue of Fig. 14 does). The scheduling
    /// overhead times the decision: a request refused by the free-GPU
    /// count alone reads no clock.
    ///
    /// # Errors
    /// [`AllocatorError::InvalidRequest`] for impossible requests;
    /// [`AllocatorError::State`] if the job id is already active.
    pub fn try_allocate(
        &mut self,
        job: &JobSpec,
    ) -> Result<Option<AllocationOutcome>, AllocatorError> {
        if !self.has_room_for(job)? {
            return Ok(None);
        }
        let started = Instant::now();
        let Some((gpus, score)) = self.decide(job, Clone::clone) else {
            return Ok(None);
        };
        let scheduling_overhead = started.elapsed();
        self.state.allocate(job.id, &gpus)?;
        self.alloc_seq += 1;
        self.active.insert(
            job.id,
            ActiveJob {
                priority: job.priority,
                bandwidth_sensitive: job.bandwidth_sensitive,
                seq: self.alloc_seq,
            },
        );
        Ok(Some(AllocationOutcome {
            job_id: job.id,
            gpus,
            score,
            scheduling_overhead,
        }))
    }

    /// Adopts an allocation decided elsewhere: marks `gpus` as held by
    /// `job_id` without running policy selection. This is how an agent
    /// replays externally-known occupancy — on-disk leases, or GPUs a
    /// hardware probe observed busy under workloads the ledger does not
    /// know about — so that subsequent [`MapaAllocator::try_allocate`]
    /// calls decide against the machine's true state. Adopted jobs are
    /// ordinary active jobs afterwards (releasable, evictable) with
    /// priority 0 and no bandwidth-sensitivity annotation.
    ///
    /// # Errors
    /// [`AllocatorError::State`] if the id is already active or any GPU
    /// is out of range, duplicated, or busy. State is unchanged on error.
    pub fn adopt(&mut self, job_id: u64, gpus: &[usize]) -> Result<(), AllocatorError> {
        self.state.allocate(job_id, gpus)?;
        self.alloc_seq += 1;
        self.active.insert(
            job_id,
            ActiveJob {
                priority: 0,
                bandwidth_sensitive: false,
                seq: self.alloc_seq,
            },
        );
        Ok(())
    }

    /// Scores a hypothetical allocation of `gpus` to `job` against the
    /// current state, without allocating. Aggregated bandwidth uses the
    /// identity embedding of the pattern onto `gpus` as listed (a policy's
    /// choice is already canonicalised to its ascending vertex set);
    /// preserved bandwidth is defined against the current free graph.
    ///
    /// # Panics
    /// Panics (`"allocated GPU must be free"`) if some `gpus` entry is busy
    /// or out of range, and if one is listed twice.
    #[must_use]
    pub fn score_allocation(&self, job: &JobSpec, gpus: &[usize]) -> MatchScore {
        SetScorer::new(&self.state, &self.model, job).score(job, gpus)
    }

    /// Releases a finished job's GPUs (§3.6 deallocation).
    ///
    /// # Errors
    /// Fails when the job is not active.
    pub fn release(&mut self, job_id: u64) -> Result<Vec<usize>, AllocatorError> {
        let gpus = self.state.deallocate(job_id)?;
        self.active.remove(&job_id);
        Ok(gpus)
    }

    /// Plans a preemption that would make `job` placeable: the victim ids
    /// to evict, in eviction order, chosen per `policy` among active jobs
    /// with **strictly lower priority** than `job` and not in `shielded`
    /// (the caller's do-not-evict set: previously-preempted jobs, gang
    /// members). The plan is verified — victims are trially deallocated
    /// and the policy's [`MapaAllocator::peek`] re-run after each — and
    /// then **fully rolled back**: this method never changes occupancy.
    /// Commit a returned plan with [`MapaAllocator::evict`].
    ///
    /// Returns `None` when `policy` is [`PreemptionPolicy::None`], the
    /// request is impossible for this machine, or no eligible victim set
    /// unblocks the job. Returns `Some(vec![])` when the job is placeable
    /// without evictions (nothing to do).
    pub fn preemption_plan(
        &mut self,
        job: &JobSpec,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Option<Vec<u64>> {
        if !policy.enabled() || !Capacity::of(&self.topology).fits(job) {
            return None;
        }
        // Victim preference order: lowest priority first, then the
        // youngest allocation (least progress lost), then highest id.
        let mut candidates: Vec<(u64, ActiveJob)> = self
            .active
            .iter()
            .filter(|(id, meta)| {
                meta.priority < job.priority
                    && !shielded.contains(id)
                    && (policy != PreemptionPolicy::SensitivityAwareEvict
                        || !meta.bandwidth_sensitive)
            })
            .map(|(&id, &meta)| (id, meta))
            .collect();
        candidates.sort_by_key(|&(id, meta)| {
            (
                meta.priority,
                std::cmp::Reverse(meta.seq),
                std::cmp::Reverse(id),
            )
        });
        // Trial evictions with full rollback: deallocate victims one at a
        // time until the policy can place the job, remembering each
        // victim's GPUs so occupancy can be restored exactly.
        let placeable = |a: &mut Self| matches!(a.peek_with(job, Option::is_some), Ok(true));
        let mut evicted: Vec<(u64, Vec<usize>, ActiveJob)> = Vec::new();
        let mut plan = None;
        if placeable(self) {
            plan = Some(Vec::new());
        } else {
            for (id, meta) in candidates {
                let gpus = self.state.deallocate(id).expect("active job is allocated");
                self.active.remove(&id);
                evicted.push((id, gpus, meta));
                if placeable(self) {
                    plan = Some(evicted.iter().map(|(id, _, _)| *id).collect());
                    break;
                }
            }
        }
        // Roll back: re-allocate every trial victim on its exact GPUs and
        // restore its metadata (original allocation order included).
        for (id, gpus, meta) in evicted.into_iter().rev() {
            self.state
                .allocate(id, &gpus)
                .expect("rollback re-allocates freed GPUs");
            self.active.insert(id, meta);
        }
        plan
    }

    /// Commits a preemption plan: releases every victim's GPUs. The
    /// caller (the simulation engine) owns the rest of the contract —
    /// requeueing the victims, charging the checkpoint/restore penalty,
    /// and never evicting the same job twice.
    ///
    /// # Panics
    /// Panics if any victim is not an active job — plans must be applied
    /// to the state they were computed against.
    pub fn evict(&mut self, victims: &[u64]) {
        for &id in victims {
            self.release(id)
                .expect("preemption victim is an active job");
        }
    }
}

impl fmt::Debug for MapaAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapaAllocator")
            .field("topology", &self.topology.name())
            .field("policy", &self.policy.name())
            .field("free", &self.state.free_count())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BaselinePolicy, GreedyPolicy, PreservePolicy};
    use mapa_topology::machines;
    use mapa_workloads::Workload;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn job(id: u64, n: usize, sensitive: bool) -> JobSpec {
        JobSpec::new(id, mapa_workloads::GpuDemand::Whole(n), Workload::Vgg16)
            .with_bandwidth_sensitive(sensitive)
            .with_iterations(100)
    }

    #[test]
    fn allocate_release_cycle() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
        let out = a.try_allocate(&job(1, 3, true)).unwrap().unwrap();
        assert_eq!(out.gpus.len(), 3);
        assert_eq!(a.state().free_count(), 5);
        assert!(out.score.predicted_eff_bw > 0.0);
        let released = a.release(1).unwrap();
        assert_eq!(released, out.gpus);
        assert_eq!(a.state().free_count(), 8);
    }

    #[test]
    fn exhaustion_returns_none_not_error() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(BaselinePolicy));
        a.try_allocate(&job(1, 5, true)).unwrap().unwrap();
        a.try_allocate(&job(2, 3, true)).unwrap().unwrap();
        assert_eq!(a.try_allocate(&job(3, 1, true)).unwrap(), None);
        a.release(2).unwrap();
        assert!(a.try_allocate(&job(3, 1, true)).unwrap().is_some());
    }

    #[test]
    fn invalid_requests_are_errors() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(BaselinePolicy));
        assert!(matches!(
            a.try_allocate(&job(1, 0, true)),
            Err(AllocatorError::InvalidRequest { .. })
        ));
        assert!(matches!(
            a.try_allocate(&job(1, 9, true)),
            Err(AllocatorError::InvalidRequest { .. })
        ));
        a.try_allocate(&job(7, 2, true)).unwrap().unwrap();
        assert!(matches!(
            a.try_allocate(&job(7, 2, true)),
            Err(AllocatorError::State(AllocationError::JobExists(7)))
        ));
    }

    #[test]
    fn outcome_scores_are_consistent() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(GreedyPolicy));
        let out = a.try_allocate(&job(1, 2, true)).unwrap().unwrap();
        // Greedy 2-GPU ring lands on a double NVLink: AggBW 50.
        assert_eq!(out.score.aggregated_bw, 50.0);
        assert_eq!(out.score.link_mix.double_nvlink, 1);
        assert!(out.score.preserved_bw > 0.0);
        assert!(out.scheduling_overhead < Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "allocated GPU must be free")]
    fn score_allocation_rejects_busy_gpu() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(BaselinePolicy));
        a.adopt(1, &[0]).unwrap();
        let _ = a.score_allocation(&job(2, 2, true), &[0, 1]);
    }

    #[test]
    fn uniform_machine_falls_back_to_paper_model() {
        // DGX-2 has one unique link mix per job size — too few samples to
        // fit; construction must still succeed via Table 2 fallback.
        let a = MapaAllocator::new(machines::dgx2(), Box::new(PreservePolicy));
        let mix = mapa_topology::LinkMix {
            double_nvlink: 1,
            single_nvlink: 0,
            pcie: 0,
        };
        assert!(a.model().predict(&mix) > 0.0);
    }

    #[test]
    fn release_unknown_job_fails() {
        let mut a = MapaAllocator::new(machines::summit(), Box::new(BaselinePolicy));
        assert!(a.release(42).is_err());
    }

    #[test]
    fn cached_allocator_hits_on_recurring_states() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .with_config(AllocatorConfig::cached());
        // Same job shape against the idle machine, released in between:
        // the busy mask recurs, so reps 2.. are cache hits.
        let mut placements = Vec::new();
        for rep in 0..4u64 {
            let out = a.try_allocate(&job(rep + 1, 3, true)).unwrap().unwrap();
            placements.push(out.gpus.clone());
            a.release(rep + 1).unwrap();
        }
        assert!(placements.windows(2).all(|w| w[0] == w[1]));
        let stats = a.cache_stats().expect("cache enabled");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert!(stats.hit_rate() > 0.74);
    }

    /// Baseline's choice (the lowest free GPUs, whatever the pattern)
    /// with every `select` call counted.
    struct CountingPolicy(Arc<AtomicU64>);

    impl AllocationPolicy for CountingPolicy {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            BaselinePolicy.select(job, ctx)
        }
    }

    #[test]
    fn a_hit_returns_the_stored_decision_without_deciding_again() {
        use mapa_workloads::AppTopology;
        let selects = Arc::new(AtomicU64::new(0));
        let mut a = MapaAllocator::new(
            machines::dgx1_v100(),
            Box::new(CountingPolicy(selects.clone())),
        )
        .with_config(AllocatorConfig::cached());
        let calls = || selects.load(Ordering::Relaxed);
        // The policy runs (and the scorer with it, in `decide`'s one
        // closure) on the miss only; peek, allocate and a recurrence of
        // the state all answer from the entry.
        let ring = job(1, 4, true).with_topology(AppTopology::Ring);
        let (gpus, score) = a.peek(&ring).unwrap().expect("idle machine places");
        assert_eq!(calls(), 1);
        assert_eq!(score, a.score_allocation(&ring, &gpus));
        let out = a.try_allocate(&ring).unwrap().unwrap();
        a.release(1).unwrap();
        assert_eq!(a.peek(&ring).unwrap(), Some((gpus.clone(), score.clone())));
        assert_eq!((out.gpus, out.score), (gpus.clone(), score.clone()));
        assert_eq!(calls(), 1);
        // Same set, other pattern: the stored score depends on `topology`,
        // so this is a second entry with its own aggregated bandwidth.
        let clique = job(2, 4, true).with_topology(AppTopology::AllToAll);
        let (clique_gpus, clique_score) = a.peek(&clique).unwrap().unwrap();
        assert_eq!(clique_gpus, gpus);
        assert_eq!(clique_score, a.score_allocation(&clique, &gpus));
        assert_ne!(clique_score.aggregated_bw, score.aggregated_bw);
        // Same set, other occupancy: preserved bandwidth reads the free
        // graph, which the busy mask in the key fixes.
        a.adopt(9, &[6, 7]).unwrap();
        let (busier_gpus, busier_score) = a.peek(&ring).unwrap().unwrap();
        assert_eq!(busier_gpus, gpus);
        assert_eq!(busier_score, a.score_allocation(&ring, &gpus));
        assert_ne!(busier_score.preserved_bw, score.preserved_bw);
        assert_eq!(calls(), 3);
        let stats = a.cache_stats().unwrap();
        assert_eq!(
            (stats.hits, stats.misses, stats.insertions, stats.evictions),
            (2, 3, 3, 0)
        );
    }

    fn counting(machine: Topology, model: EffBwModel, selects: &Arc<AtomicU64>) -> MapaAllocator {
        MapaAllocator::with_model(machine, Box::new(CountingPolicy(selects.clone())), model)
            .with_config(AllocatorConfig::cached())
    }

    #[test]
    fn shared_table_answers_one_allocators_decision_on_another() {
        let selects = Arc::new(AtomicU64::new(0));
        let model = EffBwModel::for_machine(&machines::dgx1_v100());
        let mut first = counting(machines::dgx1_v100(), model.clone(), &selects);
        let mut second = counting(machines::dgx1_v100(), model, &selects);
        assert!(second.share_cache_with(&first));
        assert!(
            second.share_cache_with(&first),
            "joining again changes nothing"
        );
        let three = job(1, 3, true);
        let decided = first.peek(&three).unwrap();
        assert_eq!(second.peek(&three).unwrap(), decided);
        assert_eq!(selects.load(Ordering::Relaxed), 1, "decided once");
        // Per-allocator counters: hits + misses are each one's own lookups.
        second.try_allocate(&three).unwrap().unwrap();
        second.peek(&job(2, 2, false)).unwrap().unwrap();
        first.peek(&job(3, 2, false)).unwrap().unwrap();
        first.peek(&job(4, 9, false)).unwrap_err();
        let lookups = |a: &MapaAllocator| {
            let s = a.cache_stats().unwrap();
            (s.hits, s.misses, s.lookups())
        };
        assert_eq!(lookups(&first), (0, 2, 2));
        assert_eq!(lookups(&second), (2, 1, 3));
        assert_eq!(selects.load(Ordering::Relaxed), 3);
        assert_eq!(first.cache.as_ref().unwrap().len(), 3, "one table");
    }

    #[test]
    fn shared_table_needs_an_equal_machine_policy_name_and_model() {
        let selects = Arc::new(AtomicU64::new(0));
        let paper = EffBwModel::from_coefficients(mapa_model::paper_coefficients());
        let fitted = EffBwModel::for_machine(&machines::dgx1_v100());
        assert_ne!(paper, fitted);
        let mut base = counting(machines::dgx1_v100(), paper.clone(), &selects);
        // Another machine with the same GPU count, policy and model.
        let mut other_machine = counting(machines::dgx1_p100(), paper.clone(), &selects);
        // Another policy (same choice, another name).
        let mut other_policy = MapaAllocator::with_model(
            machines::dgx1_v100(),
            Box::new(BaselinePolicy),
            paper.clone(),
        )
        .with_config(AllocatorConfig::cached());
        let mut other_model = counting(machines::dgx1_v100(), fitted, &selects);
        // An uncached allocator joins nothing, and is joined by nothing.
        let mut uncached = MapaAllocator::with_model(
            machines::dgx1_v100(),
            Box::new(CountingPolicy(selects.clone())),
            paper.clone(),
        );
        let mut twin = counting(machines::dgx1_v100(), paper, &selects);
        assert!(!other_machine.share_cache_with(&base));
        assert!(!other_policy.share_cache_with(&base));
        assert!(!other_model.share_cache_with(&base));
        assert!(!uncached.share_cache_with(&base));
        assert!(!base.share_cache_with(&uncached));
        assert!(twin.share_cache_with(&base));
        // Each refused allocator decides for itself: a miss, never a hit
        // on `base`'s entry.
        let two = job(1, 2, true);
        base.peek(&two).unwrap().unwrap();
        for a in [&mut other_machine, &mut other_policy, &mut other_model] {
            a.peek(&two).unwrap().unwrap();
            assert_eq!(a.cache_stats().unwrap().misses, 1, "{a:?}");
        }
        twin.peek(&two).unwrap().unwrap();
        assert_eq!(twin.cache_stats().unwrap().hits, 1);
    }

    #[test]
    fn room_gate_refuses_an_oversized_request_without_a_lookup() {
        let selects = Arc::new(AtomicU64::new(0));
        let mut a = MapaAllocator::new(
            machines::dgx1_v100(),
            Box::new(CountingPolicy(selects.clone())),
        )
        .with_config(AllocatorConfig::cached());
        a.try_allocate(&job(1, 5, true)).unwrap().unwrap();
        let before = (a.cache_stats().unwrap(), a.cache.as_ref().unwrap().len());
        assert_eq!((before.0.lookups(), before.1), (1, 1));
        // 3 GPUs are free: 4..=8 are refused by the comparison alone, on
        // every entry point that decides.
        for n in 4..=8 {
            assert_eq!(a.peek(&job(2, n, true)).unwrap(), None);
            assert_eq!(a.try_allocate(&job(2, n, false)).unwrap(), None);
        }
        let shielded = HashSet::new();
        assert_eq!(
            a.preemption_plan(
                &pri_job(2, 4, true, 0),
                PreemptionPolicy::PriorityEvict,
                &shielded
            ),
            None,
            "no lower-priority victim: the plan is one refused peek"
        );
        assert_eq!(
            selects.load(Ordering::Relaxed),
            1,
            "select ran for job 1 only"
        );
        let after = (a.cache_stats().unwrap(), a.cache.as_ref().unwrap().len());
        assert_eq!(after, before, "refusals are not lookups, misses or entries");
        // An impossible request is still an error, not a refusal; and the
        // uncached allocator refuses the same way.
        assert!(matches!(
            a.peek(&job(2, 9, true)),
            Err(AllocatorError::InvalidRequest { .. })
        ));
        a.apply_config(&AllocatorConfig::default());
        assert_eq!(a.peek(&job(2, 4, true)).unwrap(), None);
        assert_eq!(selects.load(Ordering::Relaxed), 1);
        // Exactly the free count passes the gate.
        assert!(a.peek(&job(2, 3, true)).unwrap().is_some());
        assert_eq!(selects.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn room_gate_counts_vertices_so_a_whole_gpu_job_short_of_whole_gpus_reaches_the_policy() {
        use mapa_topology::PartitionPlan;
        // GPU 0 in four MIG slices (vertices 0..4), whole GPUs on 4..11.
        let machine = PartitionPlan::new()
            .split(0, 4)
            .apply(&machines::dgx1_v100());
        let selects = Arc::new(AtomicU64::new(0));
        let mut a = MapaAllocator::new(machine, Box::new(CountingPolicy(selects.clone())))
            .with_config(AllocatorConfig::cached());
        a.adopt(9, &[4, 5, 6, 7, 8, 9]).unwrap();
        // Five vertices are free — four slices and whole GPU 10 — so a
        // 2-GPU whole job passes the gate, and only the policy knows it has
        // one eligible vertex. Its `None` is the one negative entry left.
        assert_eq!(a.state().free_count(), 5);
        let whole = job(1, 2, true);
        assert_eq!(a.peek(&whole).unwrap(), None);
        assert_eq!(a.try_allocate(&whole).unwrap(), None);
        assert_eq!(
            selects.load(Ordering::Relaxed),
            1,
            "the second ask is a hit"
        );
        let stats = a.cache_stats().unwrap();
        assert_eq!(
            (stats.hits, stats.misses, stats.insertions),
            (1, 1, 1),
            "a declined decision is cached like a placement"
        );
        assert_eq!(a.cache.as_ref().unwrap().len(), 1);
        // The same two vertices as slices do place.
        let slices = JobSpec::new(2, mapa_workloads::GpuDemand::Slices(2), Workload::ResNet50);
        assert!(a.peek(&slices).unwrap().is_some());
        // Eight whole GPUs exceed the seven unsplit ones: refused before
        // the cache, whatever is free, though the machine has 11 vertices.
        a.release(9).unwrap();
        assert_eq!(
            a.peek(&job(3, 8, true)),
            Err(AllocatorError::InvalidRequest {
                requested: 8,
                machine: 7
            })
        );
        let shielded = HashSet::new();
        let evict = PreemptionPolicy::PriorityEvict;
        assert_eq!(a.preemption_plan(&job(3, 8, true), evict, &shielded), None);
        assert_eq!(a.cache_stats().unwrap().misses, 2, "no lookup for it");
    }

    #[test]
    fn release_rotates_cache_key_so_stale_hits_are_impossible() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .with_config(AllocatorConfig::cached());
        // Occupy GPUs so the state differs from idle, then place a job.
        let first = a.try_allocate(&job(1, 2, true)).unwrap().unwrap();
        let second = a.try_allocate(&job(2, 2, true)).unwrap().unwrap();
        assert_ne!(first.gpus, second.gpus, "states differ → keys differ");
        // After releasing job 1 the occupancy is new (job 2 still holds
        // its GPUs): the next identical request must be a miss, not a
        // stale idle-state hit that would hand out busy GPUs.
        a.release(1).unwrap();
        let third = a.try_allocate(&job(3, 2, true)).unwrap().unwrap();
        assert!(third.gpus.iter().all(|&g| !second.gpus.contains(&g)));
        let stats = a.cache_stats().unwrap();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn cached_and_uncached_paths_agree_with_interleaved_releases() {
        let mut cached = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .with_config(AllocatorConfig::cached());
        let mut plain = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
        let stream = [
            (1u64, 2usize, true),
            (2, 3, false),
            (3, 2, true), // same shape as job 1, different occupancy
            (4, 1, false),
        ];
        let mut held = Vec::new();
        for &(id, n, sensitive) in &stream {
            let a = cached.try_allocate(&job(id, n, sensitive)).unwrap();
            let b = plain.try_allocate(&job(id, n, sensitive)).unwrap();
            assert_eq!(
                a.as_ref().map(|o| &o.gpus),
                b.as_ref().map(|o| &o.gpus),
                "cached and uncached disagree on job {id}"
            );
            if a.is_some() {
                held.push(id);
            }
            if id == 2 {
                cached.release(1).unwrap();
                plain.release(1).unwrap();
                held.retain(|&j| j != 1);
            }
        }
        for id in held {
            assert_eq!(cached.release(id).unwrap(), plain.release(id).unwrap());
        }
    }

    #[test]
    fn peek_previews_without_state_transition() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .with_config(AllocatorConfig::cached());
        let j = job(1, 3, true);
        let (gpus, score) = a.peek(&j).unwrap().expect("idle machine places");
        assert_eq!(a.state().free_count(), 8, "peek must not allocate");
        assert!(score.predicted_eff_bw > 0.0);
        // The real allocation answers from the cache and picks the same
        // GPUs the preview promised.
        let out = a.try_allocate(&j).unwrap().unwrap();
        assert_eq!(out.gpus, gpus);
        assert_eq!(out.score, score);
        let stats = a.cache_stats().unwrap();
        assert_eq!(stats.hits, 1, "peek primed the cache for the allocation");
        // Once the machine is full for this size, peek reports None.
        a.try_allocate(&job(2, 5, true)).unwrap().unwrap();
        assert_eq!(a.peek(&job(3, 2, true)).unwrap(), None);
        assert!(matches!(
            a.peek(&job(4, 9, true)),
            Err(AllocatorError::InvalidRequest { .. })
        ));
    }

    fn pri_job(id: u64, n: usize, sensitive: bool, priority: u8) -> JobSpec {
        job(id, n, sensitive).with_priority(priority)
    }

    #[test]
    fn preemption_plan_picks_lowest_priority_youngest_victims() {
        use crate::preempt::PreemptionPolicy;
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
        a.try_allocate(&pri_job(1, 3, false, 0)).unwrap().unwrap();
        a.try_allocate(&pri_job(2, 3, false, 1)).unwrap().unwrap();
        a.try_allocate(&pri_job(3, 2, false, 0)).unwrap().unwrap();
        // A priority-2 job needing 4 GPUs: jobs 1 and 3 are priority-0
        // candidates; job 3 is younger, so it goes first, but alone frees
        // only 2 GPUs — job 1 follows.
        let plan = a
            .preemption_plan(
                &pri_job(9, 4, true, 2),
                PreemptionPolicy::PriorityEvict,
                &HashSet::new(),
            )
            .expect("two priority-0 victims suffice");
        assert_eq!(plan, vec![3, 1]);
        // Planning never changes occupancy.
        assert_eq!(a.state().free_count(), 0);
        assert!(a.active.contains_key(&1));
        // Committing does.
        a.evict(&plan);
        assert_eq!(a.state().free_count(), 5);
        assert!(!a.active.contains_key(&1));
        assert!(a.try_allocate(&pri_job(9, 4, true, 2)).unwrap().is_some());
    }

    #[test]
    fn preemption_respects_priority_shield_and_policy_off() {
        use crate::preempt::PreemptionPolicy;
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
        a.try_allocate(&pri_job(1, 5, false, 1)).unwrap().unwrap();
        a.try_allocate(&pri_job(2, 3, false, 0)).unwrap().unwrap();
        let urgent = pri_job(9, 6, true, 2);
        // Policy off → no plan, ever.
        assert_eq!(
            a.preemption_plan(&urgent, PreemptionPolicy::None, &HashSet::new()),
            None
        );
        // Evicting job 2 (3 GPUs) is not enough for 6 GPUs, and job 1
        // (priority 1 < 2) plus job 2 would be — but shield job 1 and the
        // plan must fail rather than evict a protected job.
        let shielded: HashSet<u64> = [1].into_iter().collect();
        assert_eq!(
            a.preemption_plan(&urgent, PreemptionPolicy::PriorityEvict, &shielded),
            None
        );
        assert_eq!(a.state().free_count(), 0, "failed plans roll back too");
        // Unshielded, both fall: lowest priority first.
        let plan = a
            .preemption_plan(&urgent, PreemptionPolicy::PriorityEvict, &HashSet::new())
            .unwrap();
        assert_eq!(plan, vec![2, 1]);
        // Equal priority is never preempted: a priority-1 arrival has
        // only job 2 (priority 0) as a candidate, which is not enough.
        assert!(a
            .preemption_plan(
                &pri_job(9, 6, true, 1),
                PreemptionPolicy::PriorityEvict,
                &HashSet::new()
            )
            .is_none());
    }

    #[test]
    fn sensitivity_aware_eviction_shields_sensitive_jobs() {
        use crate::preempt::PreemptionPolicy;
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
        a.try_allocate(&pri_job(1, 4, true, 0)).unwrap().unwrap();
        a.try_allocate(&pri_job(2, 4, false, 0)).unwrap().unwrap();
        let urgent = pri_job(9, 4, true, 1);
        // Sensitivity-aware: only the insensitive job 2 is a candidate.
        let plan = a
            .preemption_plan(
                &urgent,
                PreemptionPolicy::SensitivityAwareEvict,
                &HashSet::new(),
            )
            .unwrap();
        assert_eq!(plan, vec![2]);
        // An 8-GPU urgent job would need both; sensitivity-aware refuses.
        assert_eq!(
            a.preemption_plan(
                &pri_job(9, 8, true, 1),
                PreemptionPolicy::SensitivityAwareEvict,
                &HashSet::new()
            ),
            None
        );
        // Plain priority eviction would take both (job 2 younger, first).
        let both = a
            .preemption_plan(
                &pri_job(9, 8, true, 1),
                PreemptionPolicy::PriorityEvict,
                &HashSet::new(),
            )
            .unwrap();
        assert_eq!(both, vec![2, 1]);
    }

    #[test]
    fn placeable_job_needs_no_evictions() {
        use crate::preempt::PreemptionPolicy;
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy));
        a.try_allocate(&pri_job(1, 2, false, 0)).unwrap().unwrap();
        let plan = a
            .preemption_plan(
                &pri_job(9, 3, true, 1),
                PreemptionPolicy::PriorityEvict,
                &HashSet::new(),
            )
            .unwrap();
        assert!(plan.is_empty(), "room exists; nothing to evict");
    }

    #[test]
    fn config_toggling_drops_and_recreates_cache() {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), Box::new(BaselinePolicy));
        assert!(a.cache_stats().is_none());
        a.apply_config(&AllocatorConfig::cached());
        a.try_allocate(&job(1, 2, true)).unwrap().unwrap();
        assert_eq!(a.cache_stats().unwrap().misses, 1);
        // Re-applying the cached config keeps counters and entries.
        a.apply_config(&AllocatorConfig::cached());
        assert_eq!(a.cache_stats().unwrap().misses, 1);
        a.apply_config(&AllocatorConfig::default());
        assert!(a.cache_stats().is_none());
    }
}
