//! The sharded cluster: N per-server allocators behind one two-stage
//! placement pipeline (server selection, then GPU selection), with an
//! optional per-shard-queue dispatch layer (parallel decisions + job
//! migration) replacing the engine's global FIFO queue.

use crate::migrate::{MigrationPolicy, MigrationStats};
use crate::policy::{Candidates, ServerPolicy};
use mapa_core::cache::Decision;
use mapa_core::policy::AllocationPolicy;
use mapa_core::{
    AllocationOutcome, AllocatorError, CacheStats, Capacity, MapaAllocator, PreemptionPolicy,
};
use mapa_isomorph::WorkerPool;
use mapa_model::EffBwModel;
use mapa_sim::{
    DispatchReport, DispatchedJob, Eviction, PendingJob, Placement, SchedulerBackend, SimConfig,
};
use mapa_topology::{BitSet, Topology, WordMap};
use mapa_workloads::{JobGroup, JobSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound of each per-shard queue when queued dispatch is enabled
/// without an explicit depth: deep enough to keep every shard busy under
/// bursts, shallow enough that routing pressure surfaces as backlog
/// instead of hiding inside one shard's queue.
pub const DEFAULT_SHARD_QUEUE_DEPTH: usize = 16;

/// How the cluster evaluates best-score's selection peeks — every shard's
/// would-be placement of the job being ranked. Decision rounds of queued
/// dispatch run in place, shard after shard, in both modes.
///
/// The two modes are *bit-identical* in every schedule they produce
/// (`tests/dispatch_equivalence.rs` proves it by property test): each
/// peek reads and writes only its shard's allocator, each task writes
/// only its own chunk of the scores, and all cross-shard steps (routing,
/// decision rounds, migration) run serially in both modes — parallelism
/// changes wall-clock time, never the answer.
///
/// Library-only: no front end selects it. ROADMAP direction 2 deletes
/// `Parallel` in the `[benchmark]` change that drops the harness probe
/// building it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Evaluate shards one after another on the calling thread. Default.
    #[default]
    Sequential,
    /// Peek the shards in chunks, one per scoped worker of the cluster's
    /// [`WorkerPool`], each borrowing its chunk's shards and writing its
    /// chunk of the scores. Measured slower than `Sequential` (a peek
    /// costs less than starting a thread); kept as the other side of the
    /// equivalence proof.
    Parallel,
}

impl DispatchMode {
    /// Short name used in reports (the pinned `dispatch.mode` key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DispatchMode::Sequential => "sequential",
            DispatchMode::Parallel => "parallel",
        }
    }
}

/// Sets bit `i` of `set` to `on`.
fn assign(set: &mut BitSet, i: usize, on: bool) {
    let _ = if on { set.insert(i) } else { set.remove(i) };
}

/// The per-shard-queue state of queued dispatch: one bounded FIFO per
/// shard, a backlog for arrivals no eligible queue could hold, and the
/// per-queue high-water marks the report surfaces.
///
/// Three [`BitSet`] masks and a head-size table mirror the queues, so that
/// no pump or routing step dereferences a queue it has no business with
/// (a 64-shard fleet draining small jobs was ~14× *slower* than 1 shard
/// without the first two):
///
/// * `occupied` — bit `s` set ⇔ shard `s`'s queue is non-empty; pump-side
///   scans (blocked-head accounting, steal passes) walk only set bits.
/// * `room` — bit `s` set ⇔ shard `s`'s queue has a free slot. Routing's
///   "could any queue take this job?" pre-check walks its set bits: on a
///   backlogged fleet every queue is full, the mask is zero, and the
///   backlog head is refused without ranking or touching a shard.
/// * `head_gpus[s]` — GPUs the head of queue `s` asks for (0 when empty):
///   blocked-head accounting compares it with the pooled free GPUs
///   instead of following `occupied` queues to their front jobs.
/// * `ready` — bit `s` set ⇔ shard `s`'s head is worth (re)trying: a new
///   head was exposed, or the shard's capacity grew since the head last
///   failed to place. A failed head decision clears the bit — placement
///   feasibility depends only on the shard's free GPU set and shrinking
///   that set can never unblock a head, so skipping clean shards is
///   exact memoization, never an approximation (schedules stay
///   bit-identical; `tests/dispatch_equivalence.rs` pins this against
///   the pre-mask golden digests).
///
/// Two fleet mirrors sit beside these masks on the [`Cluster`], since they
/// follow the shards' occupancy rather than the queues: the free-GPU total
/// that blocked-head accounting compares `head_gpus` against, and the job
/// map that holds the shard of every live job.
#[derive(Debug)]
struct ShardQueues {
    depth: usize,
    /// Waiting jobs per shard, each with its full lifecycle state
    /// (submission time, preemption ledger).
    queues: Vec<VecDeque<PendingJob>>,
    /// Arrivals that found every eligible shard queue full, in arrival
    /// order. Drained back into shard queues as slots free up — jobs are
    /// never dropped.
    backlog: VecDeque<PendingJob>,
    max_depths: Vec<usize>,
    /// Non-empty-queue occupancy mask (see type docs).
    occupied: BitSet,
    /// Heads worth a placement retry (see type docs).
    ready: BitSet,
    /// Queues with a free slot (see type docs).
    room: BitSet,
    /// GPUs each queue's head asks for (see type docs).
    head_gpus: Vec<usize>,
}

impl ShardQueues {
    fn new(shards: usize, depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            queues: vec![VecDeque::new(); shards],
            backlog: VecDeque::new(),
            max_depths: vec![0; shards],
            occupied: BitSet::new(shards),
            ready: BitSet::new(shards),
            room: BitSet::full(shards),
            head_gpus: vec![0; shards],
        }
    }

    /// Re-derives shard `shard`'s `occupied` / `room` / `head_gpus`
    /// mirrors from its queue; every change to a queue ends here.
    fn resync(&mut self, shard: usize) {
        let queue = &self.queues[shard];
        let head = queue.front().map_or(0, |item| item.job.num_gpus());
        assign(&mut self.occupied, shard, !queue.is_empty());
        assign(&mut self.room, shard, queue.len() < self.depth);
        self.head_gpus[shard] = head;
    }

    fn push(&mut self, shard: usize, item: PendingJob) {
        if self.queues[shard].is_empty() {
            // A new head is exposed: this shard must be (re)tried.
            self.ready.insert(shard);
        }
        self.queues[shard].push_back(item);
        self.max_depths[shard] = self.max_depths[shard].max(self.queues[shard].len());
        self.resync(shard);
    }

    /// Removes the job at `idx` of shard `victim`'s queue (migration, or
    /// a placed head at `idx` 0).
    fn take_at(&mut self, victim: usize, idx: usize) -> Option<PendingJob> {
        let item = self.queues[victim].remove(idx);
        if item.is_some() {
            if idx == 0 {
                // The next head, if any, is exposed and has never been
                // tried against the shard's current state.
                assign(&mut self.ready, victim, !self.queues[victim].is_empty());
            }
            self.resync(victim);
        }
        item
    }

    /// Capacity on `shard` grew (release or eviction): its blocked head,
    /// if any, may fit now.
    fn note_capacity_freed(&mut self, shard: usize) {
        if self.occupied.contains(shard) {
            self.ready.insert(shard);
        }
    }

    /// Jobs waiting across every queue plus the backlog.
    fn waiting(&self) -> usize {
        debug_assert!(
            self.queues.iter().enumerate().all(|(s, q)| {
                self.occupied.contains(s) != q.is_empty()
                    && self.room.contains(s) == (q.len() < self.depth)
                    && self.head_gpus[s] == q.front().map_or(0, |item| item.job.num_gpus())
            }),
            "occupied / room masks and head sizes must mirror the shard queues"
        );
        self.queues.iter().map(VecDeque::len).sum::<usize>() + self.backlog.len()
    }
}

/// A fleet of multi-GPU servers scheduled as one system.
///
/// Each shard is a complete [`MapaAllocator`] — its own machine, its own
/// occupancy state, its own allocation-cache counters — so per-server
/// decisions are exactly the single-server engine's. What the cluster
/// adds:
///
/// * one **worker pool**: [`DispatchMode::Parallel`] runs best-score's
///   selection peeks on the scoped workers of one [`WorkerPool`], which
///   borrow the shards for one ranking and are joined before it ends;
/// * a **server-selection stage** ([`ServerPolicy`]) that ranks shards
///   per job; the cluster tries each ranked shard in turn, so a full (or
///   too-small) shard falls through to the next;
/// * one **Predicted-EffBW model per machine type**, fitted once and
///   cloned across same-named shards instead of refit per shard;
/// * one **decision table per (machine, policy, model)**: when caching is on
///   ([`SchedulerBackend::configure`]), the shards with an equal machine,
///   the same policy name and an equal model read and write one
///   allocation cache, so a decision one shard made is a hit on the next
///   (a federation joins its clusters' shards the same way);
/// * two **fleet mirrors** of the shards' occupancy, next to the queue
///   masks of queued dispatch: `free_gpus`, the free units summed over
///   every shard, and `live`, the shard each live job holds GPUs on. Every
///   placement commits through one helper and every release, eviction and
///   rollback goes through another, so both stay exact, and no per-event
///   path walks the shards: the free total, a duplicate-id check and a
///   load-blind ranking cost the same on 64 shards as on one.
///
/// `Cluster` implements [`SchedulerBackend`], so
/// [`mapa_sim::Engine::over`] drives it with the same dispatcher, FIFO
/// queue, and event loop as a single server.
pub struct Cluster {
    shards: Vec<MapaAllocator>,
    server_policy: Box<dyn ServerPolicy>,
    pool: Arc<WorkerPool>,
    /// Successful placements so far — the rotation state handed to
    /// stateless server policies on the global-queue path.
    placements: u64,
    dispatch: DispatchMode,
    migration: MigrationPolicy,
    /// `Some` when queued dispatch is enabled: per-shard bounded queues
    /// replace the engine's global FIFO queue.
    queues: Option<ShardQueues>,
    /// Jobs routed into shard queues so far — the rotation state handed
    /// to stateless server policies at admission time.
    admitted: u64,
    migration_stats: MigrationStats,
    /// Pump passes that left shard-queue heads blocked, and the subset
    /// where the fleet's pooled free GPUs would have fit the head.
    queue_blocks: u64,
    queue_frag_blocks: u64,
    /// Gangs waiting for all-or-nothing co-scheduling (queued-dispatch
    /// path only), in arrival order with their submission times. Gangs
    /// bypass the per-shard queues: every pump tries to reserve capacity
    /// for the backlog head atomically across shards, and gangs behind an
    /// unplaceable head wait (FIFO among gangs).
    gang_backlog: VecDeque<(JobGroup, f64)>,
    /// The largest job of each demand kind a shard can run; shards never
    /// change after construction.
    capacity: Capacity,
    /// Free units summed over every shard — kept in step by
    /// [`Self::commit`] and [`Self::release_on`], so
    /// [`SchedulerBackend::total_free_gpus`] is O(1).
    free_gpus: usize,
    /// The shard each live job holds GPUs on, kept in step by the same two
    /// helpers: a duplicate-id check is one lookup, not a walk over the
    /// shards.
    live: WordMap<usize>,
    /// The quiescence memo: the `(blocked, fragmentation-blocked)` head
    /// counts the last [`SchedulerBackend::pump`] ended on, while nothing
    /// that could change a pump's outcome has happened since. A pump
    /// always ends quiescent — its last round placed and moved nothing —
    /// so a second pump on the same queues and shards would dispatch
    /// nothing and count the same heads again; with the memo set, `pump`
    /// does exactly that in O(1). Cleared when a job enters a shard queue
    /// or an empty backlog, a gang is admitted, or a release, eviction or
    /// direct placement touches a shard; an arrival that only lengthens a
    /// non-empty backlog leaves it, since pumps look at the backlog's
    /// head alone.
    quiescent: Option<(u64, u64)>,
    /// The server policy's last ranking and the selection scores it read:
    /// buffers kept between rankings so that ranking allocates nothing.
    order: Vec<usize>,
    scores: Vec<Option<f64>>,
}

/// Shard decisions borrow allocators onto scoped worker threads in
/// [`DispatchMode::Parallel`]; this pins the `Send` bound so a non-Send
/// addition to the allocator stack fails here, not in a user's build.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<MapaAllocator>();
};

impl Cluster {
    /// Builds a (possibly heterogeneous) cluster over `machines`.
    /// `make_policy` supplies one allocation policy per shard, in shard
    /// order; `server_policy` is the cluster-level selection stage.
    ///
    /// # Panics
    /// Panics when `machines` is empty.
    #[must_use]
    pub fn new(
        machines: Vec<Topology>,
        make_policy: impl FnMut() -> Box<dyn AllocationPolicy>,
        server_policy: Box<dyn ServerPolicy>,
    ) -> Self {
        let mut models = HashMap::new();
        Self::with_shared_resources(
            machines,
            make_policy,
            server_policy,
            Arc::new(WorkerPool::with_default_threads()),
            &mut models,
        )
    }

    /// Builds a cluster on an existing worker pool, reusing (and
    /// extending) a cache of fitted EffBW models keyed by machine name.
    /// This is the campaign runner's per-cell context hoisting: a cell's
    /// replications rebuild fleet state from scratch each time, but the
    /// expensive immutable setup — the fitted regression model — is paid
    /// once per cell, not once per replication. [`Cluster::new`] is this
    /// with a pool of [`WorkerPool::with_default_threads`]
    /// workers and an empty model cache.
    ///
    /// # Panics
    /// Panics when `machines` is empty.
    #[must_use]
    pub fn with_shared_resources(
        machines: Vec<Topology>,
        mut make_policy: impl FnMut() -> Box<dyn AllocationPolicy>,
        server_policy: Box<dyn ServerPolicy>,
        pool: Arc<WorkerPool>,
        models: &mut HashMap<String, EffBwModel>,
    ) -> Self {
        assert!(!machines.is_empty(), "a cluster needs at least one server");
        // Fit the EffBW regression once per machine *type*; same-named
        // shards share the fitted model instead of rebuilding the
        // microbenchmark corpus N times.
        let shards: Vec<MapaAllocator> = machines
            .into_iter()
            .map(|machine| {
                let model = models
                    .entry(machine.name().to_string())
                    .or_insert_with(|| EffBwModel::for_machine(&machine))
                    .clone();
                MapaAllocator::with_model(machine, make_policy(), model)
            })
            .collect();
        let capacity = Capacity::of_fleet(shards.iter().map(MapaAllocator::topology));
        let free_gpus = shards.iter().map(|s| s.state().free_count()).sum();
        Self {
            shards,
            server_policy,
            pool,
            placements: 0,
            dispatch: DispatchMode::Sequential,
            migration: MigrationPolicy::None,
            queues: None,
            admitted: 0,
            migration_stats: MigrationStats::default(),
            queue_blocks: 0,
            queue_frag_blocks: 0,
            gang_backlog: VecDeque::new(),
            capacity,
            free_gpus,
            live: WordMap::default(),
            quiescent: None,
            order: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Sets how best-score's selection peeks are evaluated (builder
    /// style). [`DispatchMode::Parallel`] runs them concurrently on the
    /// cluster's worker pool; schedules are bit-identical to
    /// [`DispatchMode::Sequential`]. Kept for the benchmark harness's
    /// parallel-over-sequential probe until ROADMAP direction 2's
    /// `[benchmark]` change deletes both.
    #[must_use]
    pub fn with_dispatch(mut self, mode: DispatchMode) -> Self {
        self.dispatch = mode;
        self
    }

    /// Enables queued dispatch (builder style): every shard gets its own
    /// FIFO queue bounded at `depth` (clamped to at least 1), arrivals
    /// are routed to a queue by the server policy at admission, and each
    /// shard runs strict FIFO on its own queue — a slow shard stalls only
    /// its own backlog, not the fleet. Replaces the engine's global FIFO
    /// queue (the engine detects this via
    /// [`SchedulerBackend::manages_queues`]).
    #[must_use]
    pub fn with_shard_queues(mut self, depth: usize) -> Self {
        let shards = self.shards.len();
        self.queues = Some(ShardQueues::new(shards, depth));
        self.quiescent = None;
        self
    }

    /// Sets the migration policy (builder style). Migration moves
    /// *waiting* jobs between shard queues, so any policy other than
    /// [`MigrationPolicy::None`] requires queued dispatch — enabled here
    /// at [`DEFAULT_SHARD_QUEUE_DEPTH`] when not already configured.
    #[must_use]
    pub fn with_migration(mut self, policy: MigrationPolicy) -> Self {
        self.migration = policy;
        self.quiescent = None;
        if policy != MigrationPolicy::None && self.queues.is_none() {
            self = self.with_shard_queues(DEFAULT_SHARD_QUEUE_DEPTH);
        }
        self
    }

    /// Bound of each per-shard queue; `None` when the cluster runs on the
    /// engine's global FIFO queue.
    #[must_use]
    pub fn shard_queue_depth(&self) -> Option<usize> {
        self.queues.as_ref().map(|q| q.depth)
    }

    /// Migration counters so far.
    #[must_use]
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration_stats
    }

    /// Builds a homogeneous cluster: `servers` copies of `machine`.
    ///
    /// # Panics
    /// Panics when `servers` is 0.
    #[must_use]
    pub fn homogeneous(
        machine: Topology,
        servers: usize,
        make_policy: impl FnMut() -> Box<dyn AllocationPolicy>,
        server_policy: Box<dyn ServerPolicy>,
    ) -> Self {
        assert!(servers >= 1, "a cluster needs at least one server");
        Self::new(vec![machine; servers], make_policy, server_policy)
    }

    /// The allocator managing shard `id`.
    ///
    /// # Panics
    /// Panics on an invalid shard id.
    #[must_use]
    pub fn shard(&self, id: usize) -> &MapaAllocator {
        &self.shards[id]
    }

    /// The largest job of each demand kind a shard can run.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Every shard, in shard order, for the federation's table sharing.
    pub(crate) fn shards_mut(&mut self) -> &mut [MapaAllocator] {
        &mut self.shards
    }

    /// Writes every shard's selection score for `job` into `scores`, in
    /// shard order: the Predicted EffBW of the placement a peek finds, read
    /// from the cached decision in place, or `None` where the shard cannot
    /// place the job now (or ever: a heterogeneous fleet's smaller
    /// machine). Best-score's selection peeks are the one per-shard work
    /// the dispatch mode spreads: in [`DispatchMode::Parallel`] the pool's
    /// scoped workers *borrow* the shards — a peek reads and writes only
    /// its own allocator — in contiguous chunks of ⌈shards / pool
    /// threads⌉, one task per worker, each writing its chunk of `scores`.
    /// Scores and allocator end states are the sequential path's by
    /// construction.
    fn on_shards(&mut self, job: &JobSpec, scores: &mut Vec<Option<f64>>) {
        let score = |shard: &mut MapaAllocator| {
            let eff_bw = |d: &Decision| d.as_ref().map(|(_, score)| score.predicted_eff_bw);
            shard.peek_with(job, eff_bw).ok().flatten()
        };
        scores.clear();
        if self.dispatch == DispatchMode::Sequential {
            scores.extend(self.shards.iter_mut().map(score));
            return;
        }
        scores.resize(self.shards.len(), None);
        let chunk_size = self.shards.len().div_ceil(self.pool.threads()).max(1);
        let tasks: Vec<_> = self
            .shards
            .chunks_mut(chunk_size)
            .zip(scores.chunks_mut(chunk_size))
            .map(|(shards, out)| {
                move || {
                    for (shard, slot) in shards.iter_mut().zip(out) {
                        *slot = score(shard);
                    }
                }
            })
            .collect();
        self.pool.scatter(tasks);
    }

    /// Writes the shard ids for `job` in the server policy's preference
    /// order into `order`. Scores are peeked only when the policy asks for
    /// them, and a shard's load is read only when the policy looks at it.
    /// `seq` is the rotation state for stateless policies — placements so
    /// far on the global-queue path, admissions so far when routing into
    /// shard queues.
    fn rank_shards(&mut self, job: &JobSpec, seq: u64, order: &mut Vec<usize>) {
        let mut scores = std::mem::take(&mut self.scores);
        if self.server_policy.needs_scores() {
            self.on_shards(job, &mut scores);
        }
        let shards = &self.shards;
        let busy = |s: usize| shards[s].state().busy_fraction();
        let candidates = Candidates::new(shards.len(), &busy, &scores);
        self.server_policy.rank(job, &candidates, seq, order);
        self.scores = scores;
    }

    /// Picks the shard queue an arriving job should wait in: the first
    /// shard in the policy's preference order whose machine could ever
    /// host the job and whose queue has room. `None` when every eligible
    /// queue is full (the job then waits in the backlog).
    fn route_target(&mut self, job: &JobSpec) -> Option<usize> {
        let eligible = |shards: &[MapaAllocator], queues: &ShardQueues, s: usize| {
            queues.room.contains(s) && Capacity::of(shards[s].topology()).fits(job)
        };
        // Ranking can be expensive (best-score peeks every shard), and
        // the backlog retries routing after every event — bail out before
        // ranking when no eligible queue has room, since no preference
        // order could change the answer. On a backlogged fleet `room` is
        // empty and this touches no shard.
        let queues = self.queues.as_ref().expect("routing requires queues");
        if !queues
            .room
            .iter()
            .any(|s| eligible(&self.shards, queues, s))
        {
            return None;
        }
        let mut order = std::mem::take(&mut self.order);
        self.rank_shards(job, self.admitted, &mut order);
        let queues = self.queues.as_ref().expect("routing requires queues");
        let target = order
            .iter()
            .copied()
            .find(|&s| eligible(&self.shards, queues, s));
        self.order = order;
        target
    }

    /// Moves backlog jobs into shard queues while the backlog head has an
    /// eligible queue with room. Stops at the first unroutable job —
    /// later backlog jobs must not overtake it (arrival-order fairness).
    fn refill_from_backlog(&mut self) {
        loop {
            let Some(front) = self
                .queues
                .as_ref()
                .and_then(|q| q.backlog.front())
                .cloned()
            else {
                return;
            };
            let Some(target) = self.route_target(&front.job) else {
                return;
            };
            let queues = self.queues.as_mut().expect("routing requires queues");
            let item = queues.backlog.pop_front().expect("front observed above");
            queues.push(target, item);
            self.admitted += 1;
        }
    }

    /// One decision round: every *ready* shard examines its own queue
    /// head and places it if it fits *that shard* right now (strict
    /// per-shard FIFO), appending each placement to `placed`. Only shards
    /// on the `ready` mask are evaluated — a head that already failed
    /// against an unchanged shard would fail again (feasibility is
    /// monotone in the shard's free set), so the round costs O(ready
    /// shards), not O(all shards), with bit-identical outcomes. A cursor
    /// walks the mask in place in ascending shard order, in both dispatch
    /// modes, so the round is deterministic and copies nothing: a head a
    /// placement exposes sets its shard's bit behind the cursor and waits
    /// for the next round. Returns whether anything was placed.
    fn decision_round(&mut self, placed: &mut Vec<DispatchedJob>) -> bool {
        let before = placed.len();
        let mut cursor = 0;
        loop {
            let queues = self
                .queues
                .as_mut()
                .expect("decision rounds require queues");
            let Some(server) = queues.ready.next_from(cursor) else {
                break;
            };
            cursor = server + 1;
            let head = &queues.queues[server]
                .front()
                .expect("ready shards have a queue head")
                .job;
            let id = head.id;
            let outcome = match self.shards[server].try_allocate(head) {
                Ok(Some(outcome)) => outcome,
                Ok(None) => {
                    // Until the head changes or the shard's capacity grows,
                    // retrying it is pointless.
                    queues.ready.remove(server);
                    continue;
                }
                // Routing only queues jobs the machine could ever host, so
                // an error here is a duplicate active id: a caller bug,
                // surfaced as the global-queue path does.
                Err(e) => {
                    self.assert_not_active(id);
                    panic!("shard placement of job {id}: {e}")
                }
            };
            let item = queues
                .take_at(server, 0)
                .expect("outcome for a queued head");
            debug_assert_eq!(item.job.id, outcome.job_id);
            self.commit(server, &outcome);
            self.placements += 1;
            let overhead = outcome.scheduling_overhead;
            placed.push(DispatchedJob {
                pending: item,
                placement: placement(server, outcome, overhead),
            });
        }
        placed.len() > before
    }

    /// Panics when job id `job` is already active anywhere in the fleet —
    /// a caller bug. Per-shard states only know their own jobs, so without
    /// this fleet-wide check a duplicate id would silently double-place on
    /// whichever other shard the ranking probes first (the single-server
    /// backend surfaces the same input as an error).
    fn assert_not_active(&self, job: u64) {
        if let Some(&holder) = self.live.get(&job) {
            already_active(job, "shard", holder);
        }
    }

    /// Books `outcome`, just allocated on shard `server`, into the fleet
    /// mirrors — the one commit of every placement path (decision rounds,
    /// fleet-wide placement, gang members).
    ///
    /// # Panics
    /// Panics when the job is already live on another shard: two queued
    /// heads with one id must not both run.
    fn commit(&mut self, server: usize, outcome: &AllocationOutcome) {
        if let Some(holder) = self.live.insert(outcome.job_id, server) {
            already_active(outcome.job_id, "shard", holder);
        }
        self.free_gpus -= outcome.gpus.len();
    }

    /// Releases `job` from shard `server` and books it out of the fleet
    /// mirrors — the one release of every path (completion, eviction,
    /// gang rollback).
    fn release_on(&mut self, server: usize, job: u64) {
        let freed = self.shards[server]
            .release(job)
            .expect("running job is allocated on its shard");
        let holder = self.live.remove(&job);
        debug_assert_eq!(holder, Some(server), "job map must mirror the shards");
        self.free_gpus += freed.len();
        self.quiescent = None;
    }

    /// Takes back a placement just made — GPUs and rotation both — so a
    /// gang that fails to co-start leaves round-robin where it was.
    pub(crate) fn unplace(&mut self, server: usize, job: u64) {
        self.release_on(server, job);
        self.placements -= 1;
    }

    /// Tries `job` on shard `server` alone and commits it on success (a
    /// full shard answers `Ok(None)` without touching its state).
    fn allocate_on(
        &mut self,
        server: usize,
        job: &JobSpec,
    ) -> Result<Option<AllocationOutcome>, AllocatorError> {
        let outcome = self.shards[server].try_allocate(job)?;
        if let Some(outcome) = &outcome {
            self.commit(server, outcome);
        }
        Ok(outcome)
    }

    /// Places one job fleet-wide: rank the shards, then commit on the
    /// first one whose allocator accepts the job. Shared by
    /// [`SchedulerBackend::try_place`] and gang placement; it carries no
    /// global-queue-path assertions, so the queued path may use it too.
    fn place_fleetwide(&mut self, job: &JobSpec) -> Option<(usize, AllocationOutcome)> {
        let mut order = std::mem::take(&mut self.order);
        self.rank_shards(job, self.placements, &mut order);
        let mut placed = None;
        for &server in &order {
            debug_assert!(server < self.shards.len(), "policy ranked unknown shard");
            match self.allocate_on(server, job) {
                Ok(Some(outcome)) => {
                    self.placements += 1;
                    placed = Some((server, outcome));
                    break;
                }
                // Full right now, or impossible for this (smaller)
                // machine of a heterogeneous fleet: the next ranked shard
                // may still host it.
                Ok(None) | Err(AllocatorError::InvalidRequest { .. }) => {}
                // A state error (duplicate active job id) is a caller
                // bug; surface it like the single-server backend would
                // instead of silently double-placing the job elsewhere.
                Err(e @ AllocatorError::State(_)) => {
                    panic!("cluster placement of job {}: {e}", job.id)
                }
            }
        }
        self.order = order;
        placed
    }

    /// Tries to co-schedule the gang-backlog head(s): each gang is
    /// reserved atomically across shards via
    /// [`SchedulerBackend::try_place_gang`]; the first gang that cannot
    /// be satisfied blocks the ones behind it (FIFO among gangs). Appends
    /// the members placed to `placed`; returns whether there were any.
    fn launch_ready_gangs(&mut self, placed: &mut Vec<DispatchedJob>) -> bool {
        let before = placed.len();
        while let Some((gang, submitted_at)) = self.gang_backlog.pop_front() {
            let Some(placements) = self.try_place_gang(&gang.members) else {
                self.gang_backlog.push_front((gang, submitted_at));
                break;
            };
            for (member, placement) in gang.members.into_iter().zip(placements) {
                placed.push(DispatchedJob {
                    pending: PendingJob::gang_member(member, submitted_at, gang.id),
                    placement,
                });
            }
        }
        placed.len() > before
    }

    /// One migration pull for `thief` (a shard with an empty queue): take
    /// the oldest waiting job the thief could start *right now* — checked
    /// through [`MapaAllocator::peek`], so the subsequent placement is a
    /// guaranteed cache hit — from the deepest non-empty queue among
    /// `victims` (a mask; `None` = every queue; depth ties break toward
    /// the lowest victim id). Returns whether a job moved.
    fn pull_waiting_job(&mut self, thief: usize, victims: Option<&BitSet>) -> bool {
        let Some(queues) = self.queues.as_mut() else {
            return false;
        };
        if queues.occupied.contains(thief) {
            return false;
        }
        let victim = victims
            .unwrap_or(&queues.occupied)
            .iter()
            .filter(|&v| v != thief && queues.occupied.contains(v))
            .max_by_key(|&v| (queues.queues[v].len(), std::cmp::Reverse(v)));
        let Some(victim) = victim else { return false };
        // A job the thief can never run is refused by the peek itself.
        let thief_shard = &mut self.shards[thief];
        let Some(idx) = queues.queues[victim]
            .iter()
            .position(|item| matches!(thief_shard.peek_with(&item.job, Option::is_some), Ok(true)))
        else {
            return false;
        };
        let item = queues.take_at(victim, idx).expect("index found above");
        queues.push(thief, item);
        true
    }

    /// Steal-on-idle migration: every empty-queued shard (ascending id)
    /// attempts one pull. Victims are snapshotted at pass start — a queue
    /// an earlier thief just filled is not a victim this pass — so one
    /// logical migration can never chain across thieves (which would both
    /// over-count `jobs_stolen` and land the job on the *highest*-id idle
    /// shard instead of the lowest). Returns whether any job moved.
    fn steal_pass(&mut self) -> bool {
        let Some(queues) = self.queues.as_ref() else {
            return false;
        };
        // No victim (every queue empty) or no thief (every queue busy):
        // the occupancy mask answers in O(words) without a shard walk.
        let occupied = queues.occupied.count();
        if occupied == 0 || occupied == self.shards.len() {
            return false;
        }
        let victims = queues.occupied.clone();
        let mut moved = false;
        for thief in 0..self.shards.len() {
            if !victims.contains(thief) && self.pull_waiting_job(thief, Some(&victims)) {
                self.migration_stats.jobs_stolen += 1;
                moved = true;
            }
        }
        moved
    }

    /// Dispatch rounds until quiescence: placements expose new queue
    /// heads and free backlog slots; gang launches drain the gang
    /// backlog; migrations hand a placeable job to an idle shard (the
    /// next round starts it). Every round but the last either places or
    /// moves a job, so the loop terminates. Appends the jobs placed to
    /// `placed`.
    fn dispatch_rounds(&mut self, placed: &mut Vec<DispatchedJob>) {
        loop {
            self.refill_from_backlog();
            let round = self.decision_round(placed);
            let gangs = self.launch_ready_gangs(placed);
            let moved = match self.migration {
                MigrationPolicy::StealOnIdle => self.steal_pass(),
                MigrationPolicy::None | MigrationPolicy::RebalanceOnRelease => false,
            };
            if !round && !gangs && !moved {
                return;
            }
        }
    }

    /// Counts the queue heads (and the gang-backlog head) still blocked
    /// once a pump reached quiescence, and how many of them the fleet's
    /// pooled free GPUs would have fit.
    fn blocked_heads(&self) -> (u64, u64) {
        let queues = self.queues.as_ref().expect("accounting requires queues");
        let mut blocked = queues.occupied.count() as u64;
        let mut frag = 0u64;
        // Fragmentation accounting only matters when something is blocked.
        if blocked > 0 || !self.gang_backlog.is_empty() {
            let total_free = self.total_free_gpus();
            // A queued head asks for at least one unit and at most the
            // largest machine's vertices (routing and stealing ask the
            // capacity rule), so the pooled free GPUs fit no head or every
            // head at either end.
            frag = if total_free == 0 {
                0
            } else if total_free >= self.capacity.slices {
                blocked
            } else {
                queues
                    .occupied
                    .iter()
                    .filter(|&s| total_free >= queues.head_gpus[s])
                    .count() as u64
            };
            if let Some((gang, _)) = self.gang_backlog.front() {
                blocked += 1;
                if total_free >= gang.total_gpus() {
                    frag += 1;
                }
            }
        }
        (blocked, frag)
    }

    /// Evicts `plan` on shard `server` — the one eviction commit of both
    /// preemption paths. The eviction freed capacity there: without
    /// marking the shard's blocked head ready, the next pump would never
    /// retry it and a queued-path preemption would be wasted.
    fn evict_on(&mut self, server: usize, plan: Vec<u64>) -> Vec<Eviction> {
        for &job in &plan {
            self.release_on(server, job);
        }
        if let Some(queues) = self.queues.as_mut() {
            queues.note_capacity_freed(server);
        }
        plan.into_iter()
            .map(|job_id| Eviction { server, job_id })
            .collect()
    }
}

/// The panic of a placement that reuses the id of job `job`, still live on
/// the `tier` (shard or cluster) `holder`.
pub(crate) fn already_active(job: u64, tier: &str, holder: usize) -> ! {
    panic!("job {job} is already allocated on {tier} {holder}")
}

/// Joins every cached allocator of `shards` to the decision table of the
/// first earlier one that decides alike
/// ([`MapaAllocator::share_cache_with`]): one table per (machine, policy,
/// model) across a backend. [`SchedulerBackend::configure`] calls it after
/// switching caches on — a cluster over its shards, a federation over
/// every cluster's shards in global server order.
pub(crate) fn share_decision_tables<'a>(shards: impl IntoIterator<Item = &'a mut MapaAllocator>) {
    let mut firsts: Vec<&MapaAllocator> = Vec::new();
    for shard in shards {
        if !firsts.iter().any(|first| shard.share_cache_with(first)) {
            firsts.push(shard);
        }
    }
}

/// The engine's view of `outcome` committed on shard `server`, charged
/// `scheduling_overhead`.
fn placement(
    server: usize,
    outcome: AllocationOutcome,
    scheduling_overhead: Duration,
) -> Placement {
    Placement {
        server,
        gpus: outcome.gpus,
        score: outcome.score,
        scheduling_overhead,
    }
}

impl SchedulerBackend for Cluster {
    fn label(&self) -> String {
        // "4× DGX-1 V100" or "2× DGX-1 V100 + DGX-2": counts per machine
        // type, in first-appearance order.
        let mut order: Vec<&str> = Vec::new();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for shard in &self.shards {
            let name = shard.topology().name();
            if !counts.contains_key(name) {
                order.push(name);
            }
            *counts.entry(name).or_insert(0) += 1;
        }
        order
            .iter()
            .map(|name| {
                let c = counts[name];
                if c == 1 {
                    (*name).to_string()
                } else {
                    format!("{c}× {name}")
                }
            })
            .collect::<Vec<_>>()
            .join(" + ")
    }

    fn policy_label(&self) -> String {
        let mut names: Vec<&str> = self.shards.iter().map(MapaAllocator::policy_name).collect();
        names.dedup();
        let alloc = if names.len() == 1 { names[0] } else { "mixed" };
        format!("{}/{}", self.server_policy.name(), alloc)
    }

    fn server_count(&self) -> usize {
        self.shards.len()
    }

    fn server_topology(&self, server: usize) -> &Topology {
        self.shards[server].topology()
    }

    fn server_cache_stats(&self, server: usize) -> Option<CacheStats> {
        self.shards[server].cache_stats()
    }

    fn total_free_gpus(&self) -> usize {
        debug_assert_eq!(
            self.free_gpus,
            self.shards
                .iter()
                .map(|s| s.state().free_count())
                .sum::<usize>(),
            "fleet free count must mirror the shards"
        );
        self.free_gpus
    }

    fn configure(&mut self, config: &SimConfig) {
        for shard in &mut self.shards {
            mapa_sim::configure_allocator(shard, config);
        }
        share_decision_tables(&mut self.shards);
    }

    fn try_place(&mut self, job: &JobSpec) -> Option<Placement> {
        self.assert_not_active(job.id);
        debug_assert!(
            self.queues.is_none(),
            "try_place is the global-queue path; queued clusters dispatch via pump"
        );
        let started = Instant::now();
        self.quiescent = None;
        let (server, outcome) = self.place_fleetwide(job)?;
        // The cluster's decision includes the server-selection stage (and
        // any shards probed and refused).
        Some(placement(server, outcome, started.elapsed()))
    }

    fn release(&mut self, server: usize, job: u64) {
        self.release_on(server, job);
        // The shard's free set grew: its blocked queue head (if any) is
        // worth retrying on the next pump.
        if let Some(queues) = self.queues.as_mut() {
            queues.note_capacity_freed(server);
        }
        // Release-time rebalancing: the shard that just freed capacity
        // pulls a waiting job from the deepest queue if its own is empty;
        // the engine's post-event pump then places it. A single pull has
        // no chaining to guard against, so every other queue is a victim.
        if self.migration == MigrationPolicy::RebalanceOnRelease
            && self.pull_waiting_job(server, None)
        {
            self.migration_stats.jobs_rebalanced += 1;
        }
    }

    fn manages_queues(&self) -> bool {
        self.queues.is_some()
    }

    fn try_place_gang(&mut self, members: &[JobSpec]) -> Option<Vec<Placement>> {
        for member in members {
            self.assert_not_active(member.id);
        }
        // Cheap feasibility prefilter: the pooled free GPUs must fit the
        // whole gang before any per-member work is worth doing.
        let wanted: usize = members.iter().map(|m| m.num_gpus()).sum();
        if self.total_free_gpus() < wanted {
            return None;
        }
        self.quiescent = None;
        // Members are placed in order; if any member finds no shard,
        // every reservation made so far is rolled back — occupancy is
        // untouched on failure.
        let started = Instant::now();
        let mut placed: Vec<(usize, AllocationOutcome)> = Vec::new();
        for member in members {
            match self.place_fleetwide(member) {
                Some(p) => placed.push(p),
                None => {
                    for (member, &(server, _)) in members.iter().zip(&placed) {
                        self.unplace(server, member.id);
                    }
                    return None;
                }
            }
        }
        // The gang decision is atomic; every member carries the whole
        // reservation's overhead.
        let overhead = started.elapsed();
        let placements = placed.into_iter().map(|(s, o)| placement(s, o, overhead));
        Some(placements.collect())
    }

    fn preempt_for(
        &mut self,
        job: &JobSpec,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        // Global-queue path: the blocked head may be placed on any shard,
        // so plan on every shard and evict where it costs least (fewest
        // victims; ties toward the lowest shard id). Plans roll back, so
        // losing shards are untouched.
        let mut best: Option<(usize, Vec<u64>)> = None;
        for s in 0..self.shards.len() {
            if let Some(plan) = self.shards[s].preemption_plan(job, policy, shielded) {
                if !plan.is_empty() && best.as_ref().is_none_or(|(_, b)| plan.len() < b.len()) {
                    best = Some((s, plan));
                }
            }
        }
        best.map_or_else(Vec::new, |(server, plan)| self.evict_on(server, plan))
    }

    fn preempt_blocked(
        &mut self,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        // Queued path: preemption is shard-local. A blocked head waits in
        // one shard's queue and will be placed on that shard, so only
        // that shard's running jobs are candidate victims (pair with a
        // migration policy to escape a mis-routed head).
        // Evictions leave the queues as they are, so a cursor over the
        // `occupied` mask sees each blocked head once.
        let mut evictions = Vec::new();
        let mut cursor = 0;
        while let Some(queues) = self.queues.as_ref() {
            let Some(s) = queues.occupied.next_from(cursor) else {
                break;
            };
            cursor = s + 1;
            let head = queues.queues[s]
                .front()
                .expect("occupied queues have a head")
                .job
                .clone();
            if matches!(self.shards[s].peek_with(&head, Option::is_some), Ok(true)) {
                continue; // placeable already; the next pump starts it
            }
            if let Some(plan) = self.shards[s].preemption_plan(&head, policy, shielded) {
                if !plan.is_empty() {
                    evictions.extend(self.evict_on(s, plan));
                }
            }
        }
        evictions
    }

    fn admit(&mut self, item: PendingJob) {
        let queues = self
            .queues
            .as_mut()
            .expect("admit called on a cluster without shard queues");
        // Arrival-order fairness: while older jobs wait in the backlog, a
        // new arrival queues behind them instead of overtaking into a shard
        // queue, and changes nothing a pump looks at (see `quiescent`).
        // Behind an empty backlog, routing it is refilling the backlog.
        let backlogged = !queues.backlog.is_empty();
        queues.backlog.push_back(item);
        if !backlogged {
            self.quiescent = None;
            self.refill_from_backlog();
        }
    }

    fn admit_gang(&mut self, gang: JobGroup, submitted_at: f64) {
        assert!(
            self.queues.is_some(),
            "admit_gang called on a cluster without shard queues"
        );
        self.gang_backlog.push_back((gang, submitted_at));
        self.quiescent = None;
    }

    fn pump(&mut self, _now: f64) -> Vec<DispatchedJob> {
        if self.queues.is_none() {
            return Vec::new();
        }
        // With the memo set nothing happened since the last pump ended:
        // this one would place nothing and end on the same blocked heads.
        let mut placed = Vec::new();
        if self.quiescent.is_none() {
            self.dispatch_rounds(&mut placed);
            self.quiescent = Some(self.blocked_heads());
        }
        let (blocked, frag) = self.quiescent.expect("set above");
        self.queue_blocks += blocked;
        self.queue_frag_blocks += frag;
        placed
    }

    fn queued_jobs(&self) -> usize {
        let gang_members: usize = self.gang_backlog.iter().map(|(gang, _)| gang.len()).sum();
        self.queues.as_ref().map_or(0, ShardQueues::waiting) + gang_members
    }

    fn dispatch_report(&self) -> Option<DispatchReport> {
        Some(DispatchReport {
            mode: self.dispatch.name(),
            migration: self.migration.name(),
            shard_queue_depth: self.queues.as_ref().map_or(0, |q| q.depth),
            jobs_stolen: self.migration_stats.jobs_stolen,
            jobs_rebalanced: self.migration_stats.jobs_rebalanced,
            max_queue_depths: self
                .queues
                .as_ref()
                .map_or_else(Vec::new, |q| q.max_depths.clone()),
            dispatch_blocks: self.queue_blocks,
            fragmentation_blocks: self.queue_frag_blocks,
        })
    }
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shards.len())
            .field("server_policy", &self.server_policy.name())
            .field("placements", &self.placements)
            .field("dispatch", &self.dispatch.name())
            .field("migration", &self.migration.name())
            .field("shard_queue_depth", &self.shard_queue_depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestScorePolicy, LeastLoadedPolicy, PackFirstPolicy, RoundRobinPolicy};
    use mapa_core::policy::{BaselinePolicy, PreservePolicy};
    use mapa_core::scoring::MatchScore;
    use mapa_sim::{ArrivalProcess, Engine, SimConfig};
    use mapa_topology::machines;
    use mapa_workloads::{generator, GpuDemand, Workload};
    use proptest::prelude::*;

    fn job(id: u64, n: usize) -> JobSpec {
        JobSpec::new(id, mapa_workloads::GpuDemand::Whole(n), Workload::Vgg16).with_iterations(10)
    }

    fn fleet(n: usize, server_policy: Box<dyn ServerPolicy>) -> Cluster {
        Cluster::homogeneous(
            machines::dgx1_v100(),
            n,
            || Box::new(PreservePolicy),
            server_policy,
        )
    }

    #[test]
    fn round_robin_spreads_while_least_loaded_balances() {
        let mut rr = fleet(3, Box::new(RoundRobinPolicy));
        rr.configure(&SimConfig::default());
        for i in 0..6 {
            let p = rr.try_place(&job(i + 1, 2)).expect("fleet has room");
            assert_eq!(p.server, (i % 3) as usize, "rotation");
        }
        let mut ll = fleet(3, Box::new(LeastLoadedPolicy));
        ll.configure(&SimConfig::default());
        let servers: Vec<usize> = (0..6)
            .map(|i| ll.try_place(&job(i + 1, 2)).unwrap().server)
            .collect();
        assert_eq!(servers, vec![0, 1, 2, 0, 1, 2], "load-ordered with id ties");
    }

    #[test]
    fn pack_first_fills_a_shard_before_opening_the_next() {
        let mut c = fleet(3, Box::new(PackFirstPolicy));
        c.configure(&SimConfig::default());
        let servers: Vec<usize> = (0..5)
            .map(|i| c.try_place(&job(i + 1, 2)).unwrap().server)
            .collect();
        // 8-GPU shards: four 2-GPU jobs fill shard 0, the fifth opens 1.
        assert_eq!(servers, vec![0, 0, 0, 0, 1]);
        assert_eq!(c.total_free_gpus(), 3 * 8 - 5 * 2);
    }

    #[test]
    fn full_shards_fall_through_to_the_next_ranked() {
        let mut c = fleet(2, Box::new(PackFirstPolicy));
        c.configure(&SimConfig::default());
        c.try_place(&job(1, 8)).unwrap();
        // Shard 0 is full; a 5-GPU job must land on shard 1.
        assert_eq!(c.try_place(&job(2, 5)).unwrap().server, 1);
        // 4 free GPUs total (shard 1) but an 8-GPU job cannot run → None.
        assert!(c.try_place(&job(3, 8)).is_none());
        c.release(0, 1);
        assert_eq!(c.try_place(&job(3, 8)).unwrap().server, 0);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn duplicate_active_job_id_panics_instead_of_double_placing() {
        let mut c = fleet(2, Box::new(RoundRobinPolicy));
        c.configure(&SimConfig::default());
        c.try_place(&job(1, 2)).unwrap();
        // Same id again while job 1 still runs: must surface the state
        // error (as the single-server backend does), not place the job
        // on the other shard.
        let _ = c.try_place(&job(1, 2));
    }

    /// A head that a placement exposes waits for the next decision round,
    /// so a round places at most one job per shard, in shard order: one
    /// pump over two shards with two queued jobs each dispatches shard 0,
    /// shard 1, shard 0, shard 1 — not both of shard 0's jobs first.
    #[test]
    fn dispatch_round_defers_an_exposed_head_to_the_next_round() {
        let mut c = Cluster::homogeneous(
            machines::dgx1_v100(),
            2,
            || Box::new(BaselinePolicy),
            Box::new(RoundRobinPolicy),
        )
        .with_shard_queues(4);
        for id in 1..=4 {
            c.admit(PendingJob::new(job(id, 1), 0.0));
        }
        let placed = c.pump(0.0);
        let order: Vec<(u64, usize)> = placed
            .iter()
            .map(|d| (d.pending.job.id, d.placement.server))
            .collect();
        assert_eq!(order, [(1, 0), (2, 1), (3, 0), (4, 1)]);
    }

    #[test]
    #[should_panic(expected = "job 1 is already allocated on shard 0")]
    fn queued_path_refuses_a_duplicate_active_job_id() {
        use mapa_sim::Submission;
        // Both copies of job 1 head their own shard queue in the same
        // decision round; the second must not start beside the first.
        let c = Cluster::homogeneous(
            machines::dgx1_v100(),
            2,
            || Box::new(BaselinePolicy),
            Box::new(RoundRobinPolicy),
        )
        .with_shard_queues(4);
        let twin = || Submission::Job(JobSpec::new(1, GpuDemand::Whole(2), Workload::Vgg16));
        let _ = Engine::over(c).run_submissions(vec![twin(), twin()]);
    }

    /// Every stream that can never finish comes back as an `Err`, not a
    /// panic, on the engine's global FIFO and on per-shard queues alike.
    #[test]
    fn engine_returns_every_refusal_on_both_queue_protocols() {
        use mapa_core::PolicyContext;
        use mapa_sim::{JobRejection, Submission};
        use mapa_workloads::JobGroup;
        /// Places nothing, so a job that fits still waits at drain.
        struct Never;
        impl AllocationPolicy for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn select(&self, _: &JobSpec, _: &PolicyContext<'_>) -> Option<Vec<usize>> {
                None
            }
        }
        let fleet_of = |machine: &Topology,
                        queued: bool,
                        policy: fn() -> Box<dyn AllocationPolicy>| {
            let c = Cluster::homogeneous(machine.clone(), 2, policy, Box::new(RoundRobinPolicy));
            if queued {
                c.with_shard_queues(4)
            } else {
                c
            }
        };
        let jobs = |sizes: &[usize]| {
            let ids = (1..).zip(sizes);
            ids.map(|(id, &n)| Submission::Job(job(id, n))).collect()
        };
        let gang = JobGroup::new(4, (1..=3).map(|id| job(id, 5)).collect());
        let gang_stuck = JobRejection::Gang {
            gang: 4,
            jobs: vec![1, 2, 3],
            gpus: 15,
        };
        let poisson = SimConfig {
            arrivals: ArrivalProcess::Poisson {
                mean_gap: 1e308,
                seed: 1,
            },
            ..SimConfig::default()
        };
        let zero_gap = SimConfig {
            arrivals: ArrivalProcess::Poisson {
                mean_gap: 0.0,
                seed: 1,
            },
            ..SimConfig::default()
        };
        // GPU 0 split in two: 9 vertices, of which 7 are whole GPUs, so a
        // whole 9-GPU job is refused as it arrives.
        let split = mapa_topology::PartitionPlan::new()
            .split(0, 2)
            .apply(&machines::dgx1_v100());
        let (dgx1, dgx2) = (machines::dgx1_v100(), machines::dgx2());
        for queued in [false, true] {
            let run = |machine: &Topology, config: SimConfig, subs: Vec<Submission>| {
                let fleet = fleet_of(machine, queued, || Box::new(BaselinePolicy));
                let engine = Engine::over(fleet).with_config(config);
                engine.try_run_submissions(subs).unwrap_err()
            };
            let default = SimConfig::default;
            let cases = [
                (
                    run(&dgx1, default(), jobs(&[2, 9])),
                    JobRejection::ServerSize {
                        job: 2,
                        requested: 9,
                        max_gpus: 8,
                        unsplit: false,
                    },
                ),
                (
                    run(&dgx2, default(), jobs(&[12])),
                    JobRejection::RingLimit {
                        job: 1,
                        requested: 12,
                    },
                ),
                (
                    run(&dgx1, poisson.clone(), jobs(&[2])),
                    JobRejection::Arrivals(
                        "poisson mean gap too large: the last arrival time could overflow",
                    ),
                ),
                // A bad parameter is refused before any arrival.
                (
                    run(&dgx1, zero_gap.clone(), Vec::new()),
                    JobRejection::Arrivals("poisson mean gap must be positive and finite"),
                ),
                (
                    run(&dgx1, default(), vec![Submission::Gang(gang.clone())]),
                    gang_stuck.clone(),
                ),
                (
                    run(&split, default(), jobs(&[9])),
                    JobRejection::ServerSize {
                        job: 1,
                        requested: 9,
                        max_gpus: 7,
                        unsplit: true,
                    },
                ),
                (
                    Engine::over(fleet_of(&dgx1, queued, || Box::new(Never)))
                        .try_run_submissions(jobs(&[2]))
                        .unwrap_err(),
                    JobRejection::Unstarted {
                        job: (!queued).then_some(1),
                        waiting: 1,
                    },
                ),
            ];
            for (got, want) in cases {
                assert_eq!(got, want, "queued={queued}");
            }
        }
    }

    /// Per-shard `(hits, misses)` of a cached cluster.
    fn lookups(c: &Cluster) -> Vec<(u64, u64)> {
        (0..c.server_count())
            .map(|s| {
                let stats = c.server_cache_stats(s).expect("cached");
                (stats.hits, stats.misses)
            })
            .collect()
    }

    #[test]
    fn shared_table_spans_equal_shards_only() {
        // Both machine names map to one model, so the DGX-1 P100 shard
        // differs from the V100 shards by its machine alone, and shard 3
        // by its policy name alone.
        let paper = EffBwModel::from_coefficients(mapa_model::paper_coefficients());
        let (v100, p100) = (machines::dgx1_v100(), machines::dgx1_p100());
        let mut models: HashMap<String, EffBwModel> = [&v100, &p100]
            .map(|m| (m.name().to_string(), paper.clone()))
            .into();
        let mut made = 0;
        let mut c = Cluster::with_shared_resources(
            vec![v100.clone(), v100.clone(), p100, v100],
            || {
                made += 1;
                if made == 4 {
                    Box::new(BaselinePolicy) as Box<dyn AllocationPolicy>
                } else {
                    Box::new(PreservePolicy)
                }
            },
            Box::new(RoundRobinPolicy),
            Arc::new(WorkerPool::new(1)),
            &mut models,
        );
        c.configure(&SimConfig::default());
        // One shape on four idle shards, in rotation: shard 1 hits on
        // shard 0's decision; shards 2 and 3 must decide for themselves.
        for id in 1..=4 {
            assert_eq!(c.try_place(&job(id, 2)).unwrap().server, id as usize - 1);
        }
        assert_eq!(lookups(&c), vec![(0, 1), (1, 0), (0, 1), (0, 1)]);
        // Configuring again keeps the tables and the counters.
        c.configure(&SimConfig::default());
        for id in 1..=4 {
            c.release(id as usize - 1, id);
        }
        assert_eq!(c.try_place(&job(5, 2)).unwrap().server, 0);
        assert_eq!(lookups(&c), vec![(1, 1), (1, 0), (0, 1), (0, 1)]);
        // Uncached, no shard counts anything.
        c.configure(&SimConfig {
            cached: false,
            ..SimConfig::default()
        });
        assert!((0..4).all(|s| c.server_cache_stats(s).is_none()));
    }

    #[test]
    fn heterogeneous_fleet_routes_big_jobs_to_big_machines() {
        let mut c = Cluster::new(
            vec![machines::dgx1_v100(), machines::dgx2()],
            || Box::new(BaselinePolicy),
            Box::new(LeastLoadedPolicy),
        );
        c.configure(&SimConfig::default());
        assert_eq!(c.max_job_gpus(), 16);
        assert_eq!(c.label(), "DGX-1 V100 + DGX-2");
        // A 12-GPU job only fits the DGX-2, whatever the ranking says.
        let p = c.try_place(&job(1, 12)).expect("dgx2 hosts it");
        assert_eq!(p.server, 1);
        assert_eq!(p.gpus.len(), 12);
    }

    #[test]
    fn best_score_picks_the_shard_with_the_better_placement() {
        let mut c = fleet(2, Box::new(BestScorePolicy));
        c.configure(&SimConfig::default());
        // Degrade shard 0: occupy most of it so its best remaining 2-GPU
        // placement scores at or below shard 1's idle-machine best.
        for i in 0..3 {
            // Pin 2-GPU jobs onto shard 0 by filling it directly.
            let out = c.allocate_on(0, &job(100 + i, 2)).unwrap();
            assert!(out.is_some());
        }
        let p = c.try_place(&job(1, 2)).expect("room exists");
        // The idle shard offers at least as good a placement; with ties
        // broken by score-then-id the placement's score must equal the
        // cluster-wide best peek.
        let best_idle = c.shards[1].peek(&job(2, 2)).unwrap();
        if let Some((_, idle_score)) = best_idle {
            assert!(p.score.predicted_eff_bw >= idle_score.predicted_eff_bw - 1e-9);
        }
    }

    #[test]
    fn labels_summarize_fleet_and_policy_stack() {
        let c = fleet(4, Box::new(LeastLoadedPolicy));
        assert_eq!(c.label(), "4× DGX-1 V100");
        assert_eq!(c.policy_label(), "least-loaded/Preserve");
        let mixed = Cluster::new(
            vec![machines::dgx1_v100(), machines::summit()],
            || Box::new(BaselinePolicy),
            Box::new(RoundRobinPolicy),
        );
        assert_eq!(mixed.label(), "DGX-1 V100 + Summit");
        assert_eq!(mixed.policy_label(), "round-robin/baseline");
    }

    #[test]
    fn engine_drives_a_cluster_end_to_end_with_shard_stats() {
        let jobs = generator::paper_job_mix(7);
        let cluster = fleet(4, Box::new(LeastLoadedPolicy));
        let report = Engine::over(cluster).run(&jobs[..120]);
        assert_eq!(report.records.len(), 120);
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.topology_name, "4× DGX-1 V100");
        assert_eq!(report.policy_name, "least-loaded/Preserve");
        // Every shard did real work under least-loaded spreading.
        for s in &report.shards {
            assert!(s.jobs_completed > 0, "{s:?}");
            assert!(s.utilization > 0.0 && s.utilization <= 1.0 + 1e-9, "{s:?}");
        }
        let total: usize = report.shards.iter().map(|s| s.jobs_completed).sum();
        assert_eq!(total, 120);
        // Caching is on by default across shards and sees traffic.
        let cache = report.cache.expect("cluster shards cache by default");
        assert!(cache.lookups() > 0);
        // Records name valid shards and shard-local GPUs.
        for r in &report.records {
            assert!(r.server < 4);
            assert!(r.gpus.iter().all(|&g| g < 8));
        }
    }

    #[test]
    fn cluster_beats_one_server_on_makespan_under_load() {
        // 4 servers drain a batch at least ~2× faster than 1 server (the
        // bound is loose: FIFO order and job-shape packing cost some of
        // the ideal 4×).
        let jobs = generator::paper_job_mix(9);
        let single = Engine::over(fleet(1, Box::new(RoundRobinPolicy))).run(&jobs[..80]);
        let quad = Engine::over(fleet(4, Box::new(LeastLoadedPolicy))).run(&jobs[..80]);
        assert!(
            quad.makespan_seconds < single.makespan_seconds / 2.0,
            "4 shards {} vs 1 shard {}",
            quad.makespan_seconds,
            single.makespan_seconds
        );
    }

    #[test]
    fn cross_server_fragmentation_is_detected() {
        // Two half-full 8-GPU servers: 8 GPUs free in total, but an
        // 8-GPU job fits no single shard → the queue blocks and the
        // engine attributes it to fragmentation.
        let jobs = vec![job(1, 4), job(2, 4), job(3, 8).with_iterations(1)];
        let report = Engine::over(fleet(2, Box::new(LeastLoadedPolicy)))
            .with_config(SimConfig {
                arrivals: ArrivalProcess::Batch,
                ..SimConfig::default()
            })
            .run(&jobs);
        assert_eq!(report.records.len(), 3);
        assert!(report.queue.fragmentation_blocks > 0, "{:?}", report.queue);
        let j3 = report.records.iter().find(|r| r.job.id == 3).unwrap();
        assert!(j3.queue_wait_seconds > 0.0, "job 3 had to wait for a drain");
    }

    /// Placements, timings, and scores must agree (wall-clock scheduling
    /// overhead legitimately differs between dispatch modes).
    fn assert_same_schedule(a: &mapa_sim::SimReport, b: &mapa_sim::SimReport, context: &str) {
        assert_eq!(a.records.len(), b.records.len(), "{context}");
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.job.id, y.job.id, "{context}");
            assert_eq!(x.server, y.server, "{context}");
            assert_eq!(x.gpus, y.gpus, "{context}");
            assert_eq!(x.submitted_at, y.submitted_at, "{context}");
            assert_eq!(x.started_at, y.started_at, "{context}");
            assert_eq!(x.finished_at, y.finished_at, "{context}");
            assert_eq!(x.predicted_eff_bw, y.predicted_eff_bw, "{context}");
        }
        assert_eq!(a.makespan_seconds, b.makespan_seconds, "{context}");
    }

    /// A DGX-1 with GPU 0 split in two has 9 vertices but 7 unsplit GPUs:
    /// routing asks the capacity rule, so a whole 8-GPU job waits for the
    /// unsplit DGX-1, and both queue protocols run one schedule.
    #[test]
    fn capacity_rule_routes_whole_jobs_past_a_split_shard() {
        let split = mapa_topology::PartitionPlan::new()
            .split(0, 2)
            .apply(&machines::dgx1_v100());
        let fleet = || {
            Cluster::new(
                vec![split.clone(), machines::dgx1_v100()],
                || Box::new(BaselinePolicy),
                Box::new(LeastLoadedPolicy),
            )
        };
        assert_eq!(
            fleet().capacity(),
            Capacity {
                whole: 8,
                slices: 9
            }
        );
        let slices = |id, n| JobSpec::new(id, GpuDemand::Slices(n), Workload::ResNet50);
        let jobs = vec![
            job(1, 8),
            slices(2, 3).with_iterations(10),
            job(3, 4),
            slices(4, 2).with_iterations(10),
            job(5, 8),
            slices(6, 9).with_iterations(10),
        ];
        let global = Engine::over(fleet()).run(&jobs);
        let queued = Engine::over(fleet().with_shard_queues(4)).run(&jobs);
        assert_same_schedule(&global, &queued, "global vs queued");
        let on = |id: u64| {
            global
                .records
                .iter()
                .find(|r| r.job.id == id)
                .unwrap()
                .server
        };
        assert_eq!(
            [1, 5, 6].map(on),
            [1, 1, 0],
            "whole 8s wait for the unsplit server"
        );
    }

    #[test]
    fn queued_dispatch_completes_everything_and_reports_depths() {
        let jobs = generator::paper_job_mix(25);
        let cluster = fleet(3, Box::new(RoundRobinPolicy)).with_shard_queues(8);
        let report = Engine::over(cluster).run(&jobs[..90]);
        assert_eq!(report.records.len(), 90);
        let d = report.dispatch.as_ref().expect("cluster reports dispatch");
        assert_eq!(d.mode, "sequential");
        assert_eq!(d.migration, "none");
        assert_eq!(d.shard_queue_depth, 8);
        assert_eq!(d.max_queue_depths.len(), 3);
        assert!(d.max_queue_depths.iter().all(|&m| m <= 8), "{d:?}");
        assert!(d.max_queue_depths.iter().any(|&m| m > 0), "{d:?}");
        assert_eq!(d.jobs_stolen + d.jobs_rebalanced, 0);
        // Per-shard queue waits are accounted like global-queue waits.
        for r in &report.records {
            assert!(r.started_at >= r.submitted_at - 1e-9, "{r:?}");
        }
    }

    #[test]
    fn parallel_dispatch_replays_sequential_on_the_queued_path() {
        let jobs = generator::paper_job_mix(27);
        let seq = Engine::over(fleet(4, Box::new(LeastLoadedPolicy)).with_shard_queues(6))
            .run(&jobs[..80]);
        let par = Engine::over(
            fleet(4, Box::new(LeastLoadedPolicy))
                .with_shard_queues(6)
                .with_dispatch(DispatchMode::Parallel),
        )
        .run(&jobs[..80]);
        assert_same_schedule(&seq, &par, "queued path");
        assert_eq!(par.dispatch.as_ref().unwrap().mode, "parallel");
    }

    #[test]
    fn parallel_dispatch_replays_sequential_on_the_global_queue_path() {
        // Best-score peeks every shard per decision — the per-shard work
        // parallel dispatch spreads over the pool on the PR 3 path.
        let jobs = generator::paper_job_mix(29);
        let seq = Engine::over(fleet(3, Box::new(BestScorePolicy))).run(&jobs[..60]);
        let par =
            Engine::over(fleet(3, Box::new(BestScorePolicy)).with_dispatch(DispatchMode::Parallel))
                .run(&jobs[..60]);
        assert_same_schedule(&seq, &par, "global-queue path");
        assert_eq!(par.dispatch.as_ref().unwrap().shard_queue_depth, 0);
    }

    #[test]
    fn tiny_shard_queues_overflow_into_the_backlog_without_losing_jobs() {
        // Depth-1 queues under a 24-job burst: almost everything must
        // wait in the backlog, and still every job runs exactly once.
        let jobs: Vec<JobSpec> = (0..24).map(|i| job(i + 1, 4)).collect();
        let cluster = fleet(2, Box::new(LeastLoadedPolicy)).with_shard_queues(1);
        let report = Engine::over(cluster)
            .with_config(SimConfig {
                arrivals: ArrivalProcess::Batch,
                ..SimConfig::default()
            })
            .run(&jobs);
        assert_eq!(report.records.len(), 24);
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.job.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=24).collect::<Vec<_>>(), "no loss, no duplication");
        let d = report.dispatch.as_ref().unwrap();
        assert!(d.max_queue_depths.iter().all(|&m| m <= 1), "{d:?}");
    }

    #[test]
    fn steal_on_idle_moves_work_from_hot_to_idle_shards() {
        // Pack-first routing piles every arrival onto shard 0's queue;
        // shard 1 idles. Stealing must move waiting jobs over and beat
        // the no-migration makespan.
        let jobs: Vec<JobSpec> = (0..10).map(|i| job(i + 1, 8)).collect();
        let run = |migration: MigrationPolicy| {
            Engine::over(
                fleet(2, Box::new(PackFirstPolicy))
                    .with_shard_queues(16)
                    .with_migration(migration),
            )
            .run(&jobs)
        };
        let none = run(MigrationPolicy::None);
        let steal = run(MigrationPolicy::StealOnIdle);
        assert_eq!(none.dispatch.as_ref().unwrap().jobs_stolen, 0);
        let stolen = steal.dispatch.as_ref().unwrap().jobs_stolen;
        assert!(stolen > 0, "idle shard must steal");
        assert!(
            steal.makespan_seconds < none.makespan_seconds,
            "stealing {} must beat serial shard-0 drain {}",
            steal.makespan_seconds,
            none.makespan_seconds
        );
        // Both shards did work under stealing.
        assert!(steal.shards.iter().all(|s| s.jobs_completed > 0));
    }

    #[test]
    fn rebalance_on_release_pulls_waiting_jobs_to_freed_shards() {
        // Round-robin routing parks half the stream behind shard 0's
        // monster while shard 1 drains 1-iteration jobs. Each time shard
        // 1 releases with an empty queue it must pull a waiter over.
        let mut jobs = vec![job(1, 8).with_iterations(100_000)];
        for i in 0..9 {
            jobs.push(job(i + 2, 8).with_iterations(1));
        }
        let cluster = fleet(2, Box::new(RoundRobinPolicy))
            .with_shard_queues(16)
            .with_migration(MigrationPolicy::RebalanceOnRelease);
        let report = Engine::over(cluster).run(&jobs);
        assert_eq!(report.records.len(), 10);
        let d = report.dispatch.as_ref().unwrap();
        assert!(d.jobs_rebalanced > 0, "{d:?}");
        assert_eq!(d.jobs_stolen, 0);
        // Everything but the monster finishes before the monster does —
        // rebalancing kept shard 1 busy instead of idling it.
        let monster = report.records.iter().find(|r| r.job.id == 1).unwrap();
        for r in report.records.iter().filter(|r| r.job.id != 1) {
            assert!(r.finished_at < monster.finished_at, "{r:?}");
        }
    }

    #[test]
    fn steal_pass_does_not_chain_within_one_pass() {
        // Two idle thieves, one waiting job: exactly one steal may happen,
        // and the job must land on the *lowest*-id idle shard — a queue an
        // earlier thief just filled is not a victim for later thieves.
        let mut c = fleet(3, Box::new(RoundRobinPolicy)).with_shard_queues(4);
        c.configure(&SimConfig::default());
        c.queues
            .as_mut()
            .unwrap()
            .push(2, PendingJob::new(job(9, 2), 0.0));
        assert!(c.steal_pass());
        assert_eq!(c.migration_stats().jobs_stolen, 1, "one logical steal");
        let qs = c.queues.as_ref().unwrap();
        assert_eq!(qs.queues[0].len(), 1, "lowest-id idle shard wins");
        assert!(qs.queues[1].is_empty());
        assert!(qs.queues[2].is_empty());
        // A second pass may now move it again (fresh snapshot) — but only
        // if another shard is an eligible thief; shard 0 holds it, so
        // shards 1 and 2 see shard 0 as the victim and shard 1 wins.
        assert!(c.steal_pass());
        assert_eq!(c.migration_stats().jobs_stolen, 2);
        let qs = c.queues.as_ref().unwrap();
        assert_eq!(qs.queues[1].len(), 1);
    }

    #[test]
    fn with_migration_auto_enables_shard_queues() {
        let c = fleet(2, Box::new(RoundRobinPolicy)).with_migration(MigrationPolicy::StealOnIdle);
        assert_eq!(c.shard_queue_depth(), Some(DEFAULT_SHARD_QUEUE_DEPTH));
        assert!(c.manages_queues());
        // Explicit depth is preserved.
        let c = fleet(2, Box::new(RoundRobinPolicy))
            .with_shard_queues(4)
            .with_migration(MigrationPolicy::RebalanceOnRelease);
        assert_eq!(c.shard_queue_depth(), Some(4));
        // No migration, no queues: the PR 3 global-queue path.
        let c = fleet(2, Box::new(RoundRobinPolicy)).with_migration(MigrationPolicy::None);
        assert_eq!(c.shard_queue_depth(), None);
        assert!(!c.manages_queues());
    }

    #[test]
    fn a_slow_shard_stalls_only_its_own_queue() {
        // Shard 0 hosts one enormous job; round-robin routes the rest
        // alternately. Without migration, shard 1's stream must keep
        // flowing while shard 0's queue waits behind the long job —
        // per-shard FIFO, not global head-of-line blocking.
        let mut jobs = vec![job(1, 8).with_iterations(100_000)];
        for i in 0..6 {
            jobs.push(job(i + 2, 8).with_iterations(1));
        }
        let cluster = fleet(2, Box::new(RoundRobinPolicy)).with_shard_queues(16);
        let report = Engine::over(cluster).run(&jobs);
        // Jobs routed to shard 1 (every second arrival) finish while the
        // shard-0 monster still runs.
        let monster = report.records.iter().find(|r| r.job.id == 1).unwrap();
        let shard1: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.server == 1 && r.job.id != 1)
            .collect();
        assert!(shard1.len() >= 3, "round-robin fed shard 1");
        for r in &shard1 {
            assert!(
                r.finished_at < monster.finished_at,
                "shard 1 job {} must not wait for shard 0's monster",
                r.job.id
            );
        }
        // Shard 0's queued jobs do wait for the monster.
        let stalled = report
            .records
            .iter()
            .filter(|r| r.server == 0 && r.job.id != 1)
            .count();
        assert!(stalled > 0, "some jobs queued behind the monster");
    }

    fn pri_job(id: u64, n: usize, iters: u64, priority: u8) -> JobSpec {
        job(id, n).with_iterations(iters).with_priority(priority)
    }

    #[test]
    fn gang_placement_is_atomic_across_shards() {
        use mapa_sim::Submission;
        use mapa_workloads::JobGroup;
        // Two 8-GPU shards. A holder occupies shard picked first; a gang
        // of two 8-GPU members needs BOTH shards — it must wait for the
        // holder even though one whole shard sits idle, then co-start.
        let holder = pri_job(1, 8, 100, 0);
        let gang = JobGroup::new(5, vec![pri_job(2, 8, 10, 0), pri_job(3, 8, 10, 0)]);
        let cluster = fleet(2, Box::new(LeastLoadedPolicy)).with_shard_queues(8);
        let report = Engine::over(cluster)
            .run_submissions(vec![Submission::Job(holder), Submission::Gang(gang)]);
        assert_eq!(report.records.len(), 3);
        let j1 = report.records.iter().find(|r| r.job.id == 1).unwrap();
        let j2 = report.records.iter().find(|r| r.job.id == 2).unwrap();
        let j3 = report.records.iter().find(|r| r.job.id == 3).unwrap();
        assert_eq!(j2.started_at, j3.started_at, "gang co-starts");
        assert_eq!(j2.started_at, j1.finished_at, "waited for both shards");
        assert_ne!(j2.server, j3.server, "members spread across shards");
        assert_eq!(j2.gang, Some(5));
        assert_eq!(report.gangs.gangs_dispatched, 1);
        assert_eq!(report.gangs.members_dispatched, 2);
        assert!(report.gangs.max_wait_seconds > 0.0);
    }

    #[test]
    fn failed_gang_reservation_rolls_back_every_member() {
        let mut c = fleet(2, Box::new(LeastLoadedPolicy));
        c.configure(&SimConfig::default());
        // Shard 1 full: a 2×8-GPU gang cannot be satisfied. The first
        // member would fit shard 0 — the rollback must return it.
        c.allocate_on(1, &job(99, 8)).unwrap().unwrap();
        let members = [pri_job(1, 8, 10, 0), pri_job(2, 8, 10, 0)];
        assert!(c.try_place_gang(&members).is_none());
        assert_eq!(c.shards[0].state().free_count(), 8, "rollback freed it");
        assert_eq!(c.total_free_gpus(), 8);
        // Rotation state is untouched by a failed reservation, and the
        // gang succeeds once capacity exists.
        c.release(1, 99);
        let placements = c.try_place_gang(&members).expect("both shards idle");
        assert_eq!(placements.len(), 2);
        assert_ne!(placements[0].server, placements[1].server);
    }

    #[test]
    fn global_path_preemption_picks_the_cheapest_shard() {
        use mapa_core::PreemptionPolicy;
        let mut c = fleet(2, Box::new(PackFirstPolicy));
        c.configure(&SimConfig::default());
        // Shard 0 holds two 4-GPU priority-0 jobs; shard 1 one 8-GPU
        // priority-0 job. An urgent 8-GPU arrival can be satisfied by one
        // eviction on shard 1 or two on shard 0 — it must take shard 1.
        c.allocate_on(0, &pri_job(1, 4, 10, 0)).unwrap().unwrap();
        c.allocate_on(0, &pri_job(2, 4, 10, 0)).unwrap().unwrap();
        c.allocate_on(1, &pri_job(3, 8, 10, 0)).unwrap().unwrap();
        let urgent = pri_job(9, 8, 10, 2);
        assert!(c.try_place(&urgent).is_none(), "fleet is full");
        let evictions = c.preempt_for(&urgent, PreemptionPolicy::PriorityEvict, &HashSet::new());
        assert_eq!(evictions.len(), 1, "fewest-evictions shard wins");
        assert_eq!(evictions[0].server, 1);
        assert_eq!(evictions[0].job_id, 3);
        // The vacated shard now hosts the urgent job.
        let p = c.try_place(&urgent).expect("eviction freed shard 1");
        assert_eq!(p.server, 1);
    }

    #[test]
    fn queued_path_preemption_is_shard_local() {
        use mapa_core::PreemptionPolicy;
        use mapa_sim::Submission;
        // Round-robin routing: priority-0 monsters land on shards 0 and
        // 1; the urgent whole-shard job is routed to shard 0's queue.
        // Shard-local preemption may only evict shard 0's monster — the
        // shard 1 monster is equally low-priority but on the wrong shard.
        let subs = vec![
            Submission::Job(pri_job(1, 8, 100_000, 0)), // shard 0 monster
            Submission::Job(pri_job(2, 8, 100_000, 0)), // shard 1 monster
            Submission::Job(pri_job(3, 8, 10, 1)),      // urgent, shard 0 queue
        ];
        let cluster = fleet(2, Box::new(RoundRobinPolicy)).with_shard_queues(8);
        let config = SimConfig {
            preemption: PreemptionPolicy::PriorityEvict,
            ..SimConfig::default()
        };
        let report = Engine::over(cluster)
            .with_config(config)
            .run_submissions(subs);
        assert_eq!(report.records.len(), 3);
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.job.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3], "no loss, no duplication");
        assert_eq!(report.preemption.jobs_preempted, 1);
        let j1 = report.records.iter().find(|r| r.job.id == 1).unwrap();
        let j2 = report.records.iter().find(|r| r.job.id == 2).unwrap();
        let j3 = report.records.iter().find(|r| r.job.id == 3).unwrap();
        assert_eq!(j1.preemptions, 1, "the routed shard's monster fell");
        assert_eq!(j2.preemptions, 0, "the other shard's monster survived");
        assert_eq!(j3.started_at, 0.0, "urgent job started immediately");
        assert_eq!(j3.server, 0, "placed on the shard it preempted");
    }

    impl Cluster {
        /// Forgets the quiescence memo, so the next pump walks its rounds
        /// in full — the oracle the memo is tested against.
        fn forget_quiescence(&mut self) {
            self.quiescent = None;
        }
    }

    /// The semantic half of a pump's output (`scheduling_overhead` is
    /// wall-clock).
    fn dispatched(jobs: &[DispatchedJob]) -> Vec<(&PendingJob, usize, &[usize], &MatchScore)> {
        jobs.iter()
            .map(|d| {
                let p = &d.placement;
                (&d.pending, p.server, p.gpus.as_slice(), &p.score)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Two identical clusters take the same random backend calls, two
        /// pumps after each; one of them forgets its quiescence memo before
        /// every pump and so walks every round in full. The second pump
        /// dispatches nothing and counts the first one's blocked heads
        /// again. Depth-2 queues overflow into the backlog, and on DGX-1 +
        /// DGX-2 + DGX-1 a queue with room is not a queue that can host the
        /// job.
        #[test]
        fn dispatch_pump_memo_replays_the_full_pump(
            steal in any::<bool>(),
            server_policy_idx in 0usize..4,
            ops in proptest::collection::vec((0usize..7, 0usize..16, 0usize..16), 1..60),
        ) {
            let build = || {
                let server_policy = crate::policy::server_policy_by_name(
                    crate::policy::SERVER_POLICY_NAMES[server_policy_idx],
                )
                .expect("listed name");
                let mut c = Cluster::new(
                    vec![machines::dgx1_v100(), machines::dgx2(), machines::dgx1_v100()],
                    || Box::new(BaselinePolicy),
                    server_policy,
                )
                .with_shard_queues(2)
                .with_migration(if steal {
                    MigrationPolicy::StealOnIdle
                } else {
                    MigrationPolicy::RebalanceOnRelease
                });
                c.configure(&SimConfig::default());
                c
            };
            let (mut memo, mut full) = (build(), build());
            let mut running: Vec<(usize, JobSpec)> = Vec::new();
            let mut next_id = 0u64;
            let mut fresh = |gpus: usize, priority: usize| {
                next_id += 1;
                pri_job(next_id, gpus, 10, priority as u8)
            };
            for (kind, a, b) in ops {
                match kind {
                    // Up to 12 GPUs: only the DGX-2 can ever host those.
                    0..=2 => {
                        let item = PendingJob::new(fresh(1 + a % 12, b % 3), 0.0);
                        memo.admit(item.clone());
                        full.admit(item);
                    }
                    3 => {
                        let gang = JobGroup::new(
                            1000 + a as u64,
                            vec![fresh(1 + a % 8, 0), fresh(1 + b % 8, 0)],
                        );
                        memo.admit_gang(gang.clone(), 0.0);
                        full.admit_gang(gang, 0.0);
                    }
                    4 | 5 if !running.is_empty() => {
                        let (server, job) = running.remove(a % running.len());
                        memo.release(server, job.id);
                        full.release(server, job.id);
                    }
                    6 => {
                        let shielded = HashSet::new();
                        let evicted = memo.preempt_blocked(PreemptionPolicy::PriorityEvict, &shielded);
                        prop_assert_eq!(
                            &evicted,
                            &full.preempt_blocked(PreemptionPolicy::PriorityEvict, &shielded)
                        );
                        // Victims go back to the queues, as the engine does.
                        for e in evicted {
                            let at = running
                                .iter()
                                .position(|(_, job)| job.id == e.job_id)
                                .expect("victims were running");
                            let item = PendingJob::new(running.remove(at).1, 0.0);
                            memo.admit(item.clone());
                            full.admit(item);
                        }
                    }
                    // A release with nothing running: no call this step.
                    _ => {}
                }
                let blocks = |c: &Cluster| (c.queue_blocks, c.queue_frag_blocks);
                let before = blocks(&memo);
                full.forget_quiescence();
                let (placed, oracle) = (memo.pump(0.0), full.pump(0.0));
                prop_assert_eq!(dispatched(&placed), dispatched(&oracle));
                running.extend(placed.into_iter().map(|d| (d.placement.server, d.pending.job)));
                let once = blocks(&memo);
                full.forget_quiescence();
                prop_assert!(memo.pump(0.0).is_empty() && full.pump(0.0).is_empty());
                let twice = blocks(&memo);
                prop_assert_eq!(
                    (twice.0 - once.0, twice.1 - once.1),
                    (once.0 - before.0, once.1 - before.1)
                );
                prop_assert_eq!(memo.queued_jobs(), full.queued_jobs());
                prop_assert_eq!(memo.total_free_gpus(), full.total_free_gpus());
                prop_assert_eq!(memo.dispatch_report(), full.dispatch_report());
            }
        }
    }

    /// Asserts the fleet mirrors against the shards, in any build: the
    /// free total against the shards' sum, and the job map against the
    /// shard that holds each job id in `ids` (every id a run has used).
    fn assert_mirrors(c: &Cluster, ids: std::ops::RangeInclusive<u64>) {
        let free: usize = c.shards.iter().map(|s| s.state().free_count()).sum();
        assert_eq!(c.total_free_gpus(), free, "fleet free count");
        let mut held = WordMap::default();
        for id in ids {
            for (s, shard) in c.shards.iter().enumerate() {
                if shard.state().gpus_of(id).is_some() {
                    assert_eq!(held.insert(id, s), None, "job {id} on two shards");
                }
            }
        }
        assert_eq!(c.live, held, "job map");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random backend calls on either dispatch path — every server
        /// policy, every migration policy on the queued path, preemption
        /// off or priority-evict, gangs that place and gangs that roll
        /// back, single and batched releases — with the fleet mirrors
        /// checked against the shards after every call. DGX-1 + DGX-2 +
        /// DGX-1, so some jobs fit one machine only.
        #[test]
        fn fleet_mirrors_follow_the_shards(
            queued in any::<bool>(),
            server_policy_idx in 0usize..4,
            migration_idx in 0usize..3,
            preempt in any::<bool>(),
            ops in proptest::collection::vec((0usize..8, 0usize..16, 0usize..16), 1..60),
        ) {
            let server_policy = crate::policy::server_policy_by_name(
                crate::policy::SERVER_POLICY_NAMES[server_policy_idx],
            )
            .expect("listed name");
            let mut c = Cluster::new(
                vec![machines::dgx1_v100(), machines::dgx2(), machines::dgx1_v100()],
                || Box::new(BaselinePolicy),
                server_policy,
            );
            if queued {
                let migration = [
                    MigrationPolicy::None,
                    MigrationPolicy::StealOnIdle,
                    MigrationPolicy::RebalanceOnRelease,
                ][migration_idx];
                c = c.with_shard_queues(2).with_migration(migration);
            }
            c.configure(&SimConfig::default());
            let policy = if preempt {
                PreemptionPolicy::PriorityEvict
            } else {
                PreemptionPolicy::None
            };
            let shielded = HashSet::new();
            let mut running: Vec<(usize, JobSpec)> = Vec::new();
            let next_id = std::cell::Cell::new(0u64);
            let fresh = |gpus: usize, priority: usize| {
                next_id.set(next_id.get() + 1);
                pri_job(next_id.get(), gpus, 10, priority as u8)
            };
            let ids = || 1..=next_id.get();
            for (kind, a, b) in ops {
                match kind {
                    // Up to 12 GPUs: only the DGX-2 can ever host those.
                    0..=2 => {
                        let job = fresh(1 + a % 12, b % 3);
                        if queued {
                            c.admit(PendingJob::new(job, 0.0));
                        } else if let Some(p) = c.try_place(&job) {
                            running.push((p.server, job));
                        }
                    }
                    3 => {
                        let members = vec![fresh(1 + a % 8, 0), fresh(1 + b % 8, 0)];
                        if queued {
                            c.admit_gang(JobGroup::new(1000 + a as u64, members), 0.0);
                        } else if let Some(placements) = c.try_place_gang(&members) {
                            let servers = placements.into_iter().map(|p| p.server);
                            running.extend(servers.zip(members));
                        }
                    }
                    4 | 5 if !running.is_empty() => {
                        let (server, job) = running.remove(a % running.len());
                        c.release(server, job.id);
                    }
                    6 => {
                        let evicted = if queued {
                            c.preempt_blocked(policy, &shielded)
                        } else {
                            let urgent = fresh(1 + a % 12, 2);
                            let evicted = match c.try_place(&urgent) {
                                Some(p) => {
                                    running.push((p.server, urgent.clone()));
                                    Vec::new()
                                }
                                None => c.preempt_for(&urgent, policy, &shielded),
                            };
                            assert_mirrors(&c, ids());
                            if !evicted.is_empty() {
                                if let Some(p) = c.try_place(&urgent) {
                                    running.push((p.server, urgent));
                                }
                            }
                            evicted
                        };
                        // Victims go back to the queues, as the engine does.
                        for e in evicted {
                            let at = running
                                .iter()
                                .position(|(_, job)| job.id == e.job_id)
                                .expect("victims were running");
                            let (_, victim) = running.remove(at);
                            if queued {
                                c.admit(PendingJob::new(victim, 0.0));
                            }
                        }
                    }
                    // The engine batches releases only while nothing waits.
                    7 if !running.is_empty() && c.queued_jobs() == 0 => {
                        let batch: Vec<(usize, u64)> = running
                            .drain(..(1 + a % 3).min(running.len()))
                            .map(|(server, job)| (server, job.id))
                            .collect();
                        c.release_batch(&batch);
                    }
                    _ => {}
                }
                assert_mirrors(&c, ids());
                if queued {
                    let placed = c.pump(0.0);
                    running.extend(placed.into_iter().map(|d| (d.placement.server, d.pending.job)));
                    assert_mirrors(&c, ids());
                }
            }
        }
    }

    #[test]
    fn burst_arrivals_spread_across_the_fleet() {
        let jobs: Vec<JobSpec> = (0..12).map(|i| job(i + 1, 4)).collect();
        let report = Engine::over(fleet(4, Box::new(LeastLoadedPolicy)))
            .with_config(SimConfig {
                arrivals: ArrivalProcess::Bursts {
                    size: 6,
                    gap: 10_000.0,
                },
                ..SimConfig::default()
            })
            .run(&jobs);
        // Each 6-job burst of 4-GPU jobs needs 24 GPUs — less than the
        // fleet's 32 — so every burst starts immediately, spread over
        // shards (least-loaded: two jobs per shard per burst at most).
        for r in &report.records {
            assert_eq!(r.queue_wait_seconds, 0.0, "{r:?}");
        }
        for s in &report.shards {
            assert!(s.jobs_completed >= 2, "{s:?}");
        }
    }
}
