//! Memoization of allocation decisions: one memo table per (machine,
//! policy, model) per backend.
//!
//! Within one [`crate::MapaAllocator`] (one machine, one policy, one
//! model) a policy's selection is a pure function of five inputs: the job's
//! pattern — [`crate::appgraph::pattern_edges`] is deterministic in
//! `(AppTopology, size)`, so that pair *is* the pattern —, its
//! bandwidth-sensitivity flag, its demand kind (whole GPUs vs MIG slices —
//! they see different eligible vertices on partitioned machines), whether
//! it carries an SLO tag (the pressure penalty weighs tagged jobs harder),
//! and the current free-GPU set. Multi-tenant traffic repeats those inputs
//! constantly — the paper's job mix draws from four pattern shapes and
//! eight sizes, and a machine that empties returns to a previously-seen
//! occupancy — so [`AllocationCache`] memoizes the whole [`Decision`] —
//! the selected GPU set *and* its [`MatchScore`] — under a key of
//! those values as they are.
//!
//! **One table per (machine, policy, model) per backend.** The same five
//! inputs on an equal machine, under a policy of the same name and an
//! equal model, give the same decision on every server of a fleet, so an
//! [`AllocationCache`] is a *handle*: the entries sit in one table behind
//! an `Arc<Mutex<…>>` that every such allocator of a backend reads and
//! writes ([`crate::MapaAllocator::share_cache_with`]; the simulator's
//! backends join their servers when they switch caching on), and a
//! decision one server made is a hit on the next. The [`CacheStats`] stay
//! in the handle: each allocator counts its own lookups, and the
//! insertions and evictions its inserts caused. A table holds at most its
//! capacity times the number of handles reading it, so a shared table
//! never holds fewer decisions than private ones would have.
//!
//! **A hit builds no key.** A lookup hashes the job's five small fields
//! and the state's busy words ([`mapa_topology::HardwareState::busy_words`],
//! read in place) into one word, finds that word's chain and compares each
//! entry's fields and words exactly, so a hit is one lock, one probe and a
//! read of the stored decision in place — a copy only for a caller that
//! keeps it: neither the policy nor the scorer runs. A miss copies the busy
//! words once, into its entry. A miss decides while holding the lock, so
//! one table makes each decision once even when shards decide on several
//! threads (`mapa-cluster`'s parallel dispatch); which shard takes a key's
//! miss then follows thread timing, so the per-shard split of hits and
//! misses may vary between such runs, while decisions and (as long as
//! nothing is evicted) the totals do not.
//!
//! **Soundness.** The busy words are the *exact* busy set and the other
//! fields are the job's own, so equal keys mean the same labelled pattern
//! asked of the same state: a deterministic policy selects the same GPUs,
//! and entries never go stale — "invalidation" is allocate/release
//! rewriting the busy mask, which simply rotates the key. The scores are
//! pinned by the same key: aggregated bandwidth reads the pattern
//! (`(AppTopology, size)`) on the chosen set, the link mix and Predicted
//! EffBW read the chosen set and the allocator's fixed model, and
//! preserved bandwidth reads the free graph, which the busy words fix (the
//! SLO pressure term steers selection but is not part of [`MatchScore`]).
//! A previously-seen state recurring is exactly when a hit is both safe
//! and valuable. Two shapes that happen to be isomorphic (a 3-ring and a
//! 3-clique) are two entries.
//!
//! **Negative entries.** A request for more vertices than are free never
//! gets here: [`crate::MapaAllocator`] refuses it by comparing two integers
//! before a lookup, so it is neither a lookup (the hit/miss counters
//! count only decisions that needed one) nor an entry. The one `None` still
//! memoized, on the same grounds as a placement, is a policy declining
//! although enough vertices are free: a whole-GPU job on a partitioned
//! machine whose free vertices are mostly MIG slices.
//!
//! **Hashing vs equality.** A key hashes as one word — the FNV-1a of the
//! busy words mixed with the five small fields — and the table is a
//! [`WordMap`] on that word (its hasher's doc states which tables may be
//! one: keys the program makes qualify, and these come from the
//! allocators' own occupancy states). Each word holds a chain of entries,
//! oldest first; equality is the exact comparison of fields and busy
//! words, so two keys sharing a word cost a step along the chain and
//! never share an entry.

use crate::scoring::MatchScore;
use mapa_topology::{Fnv1a, WordMap};
use mapa_workloads::{AppTopology, JobSpec};
use std::collections::hash_map::Entry as Slot;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Maximum number of cached decisions per handle reading a table (FIFO
/// eviction beyond it).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// One memoized allocation decision: the selected GPUs (ascending) with
/// the scores [`crate::MapaAllocator::score_allocation`] gave them in the
/// keyed state, or `None` when the policy declined.
pub type Decision = Option<(Vec<usize>, MatchScore)>;

/// What selection reads of a [`JobSpec`]: the job's part of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    topology: AppTopology,
    num_gpus: usize,
    bandwidth_sensitive: bool,
    fractional: bool,
    slo_tagged: bool,
}

impl Shape {
    fn of(job: &JobSpec) -> Self {
        Self {
            topology: job.topology,
            num_gpus: job.num_gpus(),
            bandwidth_sensitive: job.bandwidth_sensitive,
            fractional: job.is_fractional(),
            slo_tagged: job.has_slo(),
        }
    }

    /// The hash word of this shape in the state whose busy mask is
    /// `busy`: the FNV-1a of the busy words, and the small fields packed
    /// into one word, spread over all 64 bits by an odd multiplier.
    fn hash_word(self, busy: &[u64]) -> u64 {
        let mut h = Fnv1a::default();
        for &w in busy {
            h.write_u64(w);
        }
        let small = (self.num_gpus as u64) << 5
            | (self.topology as u64) << 3
            | u64::from(self.bandwidth_sensitive) << 2
            | u64::from(self.fractional) << 1
            | u64::from(self.slo_tagged);
        h.finish() ^ small.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Hit/miss/eviction counters of one [`AllocationCache`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to the policy.
    pub misses: u64,
    /// Entries this handle stored.
    pub insertions: u64,
    /// Entries dropped to respect the capacity bound by this handle's
    /// inserts.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache; 0 when none happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// One stored decision with the exact key it was made for, and the next
/// (younger) entry whose key hashes to the same word.
#[derive(Debug)]
struct Entry {
    shape: Shape,
    busy: Box<[u64]>,
    decision: Decision,
    next: Option<Box<Entry>>,
}

/// The decisions every handle of one table reads, chained by hash word,
/// and the word of every entry in insertion order.
#[derive(Debug)]
struct Table {
    entries: WordMap<Entry>,
    order: VecDeque<u64>,
    /// Entries allowed per handle reading the table.
    capacity: usize,
}

impl Table {
    /// The decision stored for `(shape, busy)` on `word`'s chain,
    /// counting a hit or a miss into `stats`.
    fn get(
        &self,
        word: u64,
        shape: Shape,
        busy: &[u64],
        stats: &mut CacheStats,
    ) -> Option<&Decision> {
        let mut entry = self.entries.get(&word);
        while let Some(e) = entry {
            if e.shape == shape && *e.busy == *busy {
                stats.hits += 1;
                return Some(&e.decision);
            }
            entry = e.next.as_deref();
        }
        stats.misses += 1;
        None
    }

    /// Stores a decision for `(shape, busy)`, which [`Table::get`] just
    /// missed, at the tail of `word`'s chain; evicts the oldest entries
    /// beyond `capacity` per handle of the `handles` reading the table.
    /// Counts into `stats`.
    fn insert(
        &mut self,
        word: u64,
        shape: Shape,
        busy: &[u64],
        decision: Decision,
        handles: usize,
        stats: &mut CacheStats,
    ) {
        let entry = Entry {
            shape,
            busy: busy.into(),
            decision,
            next: None,
        };
        match self.entries.entry(word) {
            Slot::Vacant(slot) => {
                slot.insert(entry);
            }
            Slot::Occupied(slot) => {
                let mut tail = &mut slot.into_mut().next;
                while let Some(next) = tail {
                    tail = &mut next.next;
                }
                *tail = Some(Box::new(entry));
            }
        }
        self.order.push_back(word);
        stats.insertions += 1;
        while self.order.len() > self.capacity.saturating_mul(handles) {
            // The oldest entry heads its word's chain: every older entry
            // on that word was evicted before it.
            let oldest = self.order.pop_front().expect("the table is over capacity");
            let head = self
                .entries
                .remove(&oldest)
                .expect("a queued word has a chain");
            if let Some(next) = head.next {
                self.entries.insert(oldest, *next);
            }
            stats.evictions += 1;
        }
    }
}

fn lock(table: &Mutex<Table>) -> MutexGuard<'_, Table> {
    table
        .lock()
        .expect("no thread panics while it holds a decision table")
}

/// A handle on a bounded memo table from a decision's key to the
/// [`Decision`] made there (`None` = the policy declined although enough
/// vertices were free; also memoized), with this handle's own
/// [`CacheStats`].
///
/// A new handle has a table of its own; [`AllocationCache::join`] points it
/// at another handle's table. A table holds at most its capacity times the
/// number of handles reading it. There is no `Clone`, so a table is only
/// ever shared by joining it.
#[derive(Debug)]
pub struct AllocationCache {
    table: Arc<Mutex<Table>>,
    stats: CacheStats,
}

impl AllocationCache {
    /// Creates a handle on a table of its own, bounded to `capacity`
    /// entries per handle reading it (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let table = Table {
            entries: WordMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        };
        Self {
            table: Arc::new(Mutex::new(table)),
            stats: CacheStats::default(),
        }
    }

    /// Reads and writes `other`'s table from now on, with this handle's
    /// counters kept. The table this handle read until now goes with its
    /// last handle.
    pub fn join(&mut self, other: &AllocationCache) {
        self.table = Arc::clone(&other.table);
    }

    /// What `read` makes of the decision for placing `job` in the state
    /// whose busy mask is `busy`: the stored one on a hit (one lock, one
    /// probe, read in place — `Clone::clone` takes a copy out, a caller
    /// after a score or feasibility alone copies nothing); on a miss
    /// `decide`'s, read and then stored with a copy of `busy`. The table
    /// stays locked while `decide` and `read` run, so a table makes each
    /// decision once, whichever of its handles asks first.
    pub fn read_or_insert_with<R>(
        &mut self,
        job: &JobSpec,
        busy: &[u64],
        decide: impl FnOnce() -> Decision,
        read: impl FnOnce(&Decision) -> R,
    ) -> R {
        let shape = Shape::of(job);
        let word = shape.hash_word(busy);
        let mut table = lock(&self.table);
        if let Some(hit) = table.get(word, shape, busy, &mut self.stats) {
            return read(hit);
        }
        let decision = decide();
        let answer = read(&decision);
        let handles = Arc::strong_count(&self.table);
        table.insert(word, shape, busy, decision, handles, &mut self.stats);
        answer
    }

    /// Current counters of this handle.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries in the table, over every handle reading it.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.table).order.len()
    }

    /// True when the table holds no decision.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for AllocationCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::machines;
    use mapa_topology::HardwareState;
    use mapa_workloads::Workload;

    fn job(n: usize, topology: AppTopology, sensitive: bool) -> JobSpec {
        JobSpec::new(1, mapa_workloads::GpuDemand::Whole(n), Workload::Vgg16)
            .with_topology(topology)
            .with_bandwidth_sensitive(sensitive)
            .with_iterations(1)
    }

    /// A stored decision on `gpus`; these table tests never read the score.
    fn placed(gpus: Vec<usize>) -> Decision {
        let score = MatchScore {
            aggregated_bw: 0.0,
            predicted_eff_bw: 0.0,
            preserved_bw: 0.0,
            link_mix: mapa_topology::LinkMix::default(),
        };
        Some((gpus, score))
    }

    /// A lookup that must miss: `decide` is called, and its `decision` is
    /// stored.
    fn miss(cache: &mut AllocationCache, job: &JobSpec, busy: &[u64], decision: Decision) {
        let mut called = false;
        cache.read_or_insert_with(
            job,
            busy,
            || {
                called = true;
                decision
            },
            |_| (),
        );
        assert!(called, "a miss calls decide");
    }

    /// A lookup that must hit: `decide` is never called; returns the stored
    /// decision.
    fn hit(cache: &mut AllocationCache, job: &JobSpec, busy: &[u64]) -> Decision {
        let never = || panic!("a hit never calls decide");
        cache.read_or_insert_with(job, busy, never, Clone::clone)
    }

    #[test]
    fn hit_after_insert_and_signature_recurrence() {
        let mut cache = AllocationCache::default();
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(3, AppTopology::Ring, true);
        let idle = state.busy_words().to_vec();
        miss(&mut cache, &spec, &idle, placed(vec![0, 1, 2]));

        // The same machine state recurs after an allocate/release cycle.
        state.allocate(9, &[4, 5]).unwrap();
        state.deallocate(9).unwrap();
        assert_eq!(state.busy_words(), idle, "recurring state, same words");
        assert_eq!(
            hit(&mut cache, &spec, state.busy_words()),
            placed(vec![0, 1, 2])
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn mutation_rotates_the_key() {
        let mut cache = AllocationCache::default();
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(2, AppTopology::Ring, true);
        let idle = state.busy_words().to_vec();
        miss(&mut cache, &spec, &idle, placed(vec![0, 3]));
        state.allocate(1, &[0, 3]).unwrap();
        assert_ne!(state.busy_words(), idle, "allocation must rotate the key");
        miss(&mut cache, &spec, state.busy_words(), None);
    }

    #[test]
    fn key_distinguishes_sensitivity_machine_and_shape() {
        let mut cache = AllocationCache::default();
        let state = HardwareState::new(machines::dgx1_v100());
        let busy = state.busy_words();
        miss(&mut cache, &job(3, AppTopology::Ring, true), busy, None);
        miss(&mut cache, &job(3, AppTopology::Ring, false), busy, None);
        miss(&mut cache, &job(4, AppTopology::Ring, true), busy, None);
        // The key is the labelled pattern: ring(3) ≡ all_to_all(3) as
        // graphs, but they are two keys.
        miss(&mut cache, &job(3, AppTopology::AllToAll, true), busy, None);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn key_distinguishes_demand_kind_and_slo_tag() {
        let mut cache = AllocationCache::default();
        let state = HardwareState::new(machines::dgx1_v100());
        let busy = state.busy_words();
        miss(&mut cache, &job(3, AppTopology::Ring, true), busy, None);
        // Whole and slice demands see different eligible vertices.
        let mut slices = job(3, AppTopology::Ring, true);
        slices.demand = mapa_workloads::GpuDemand::Slices(3);
        miss(&mut cache, &slices, busy, None);
        // An SLO tag changes the pressure weight.
        let tagged = job(3, AppTopology::Ring, true).with_slo(25.0);
        miss(&mut cache, &tagged, busy, placed(vec![5, 6, 7]));
        // The SLO *value* is not part of the key — selection ignores it.
        let tagged_other = job(3, AppTopology::Ring, true).with_slo(90.0);
        assert_eq!(hit(&mut cache, &tagged_other, busy), placed(vec![5, 6, 7]));
    }

    /// The exact key of placing `job` in `state`, and its hash word.
    fn key(job: &JobSpec, state: &HardwareState) -> (u64, Shape, Vec<u64>) {
        let shape = Shape::of(job);
        let busy = state.busy_words();
        (shape.hash_word(busy), shape, busy.to_vec())
    }

    /// `cache`'s lookup of `(shape, busy)` on the chain of `word`.
    fn find(
        cache: &mut AllocationCache,
        word: u64,
        shape: Shape,
        busy: &[u64],
    ) -> Option<Decision> {
        lock(&cache.table)
            .get(word, shape, busy, &mut cache.stats)
            .cloned()
    }

    /// Stores `decision` for `(shape, busy)` on the chain of `word`, with
    /// as many handles counted as read the table.
    fn store(
        cache: &mut AllocationCache,
        word: u64,
        shape: Shape,
        busy: &[u64],
        decision: Decision,
    ) {
        let handles = Arc::strong_count(&cache.table);
        lock(&cache.table).insert(word, shape, busy, decision, handles, &mut cache.stats);
    }

    #[test]
    fn hash_is_one_word_that_follows_every_field_and_equality_stays_exact() {
        let mut state = HardwareState::new(machines::dgx1_v100());
        state.allocate(1, &[0, 3]).unwrap();
        let base_job = job(3, AppTopology::Ring, true);
        let base = key(&base_job, &state);
        // Equal keys — rebuilt from a recurrence of the state — hash equal.
        let mut again = state.clone();
        again.allocate(2, &[5]).unwrap();
        again.deallocate(2).unwrap();
        assert_eq!(base, key(&base_job, &again));
        // Each small field, and one occupancy bit, makes another key; the
        // packing keeps them apart in the hash word too.
        let mut slices = base_job.clone();
        slices.demand = mapa_workloads::GpuDemand::Slices(3);
        again.allocate(2, &[5]).unwrap();
        let flipped = [
            key(&job(4, AppTopology::Ring, true), &state),
            key(&job(3, AppTopology::Tree, true), &state),
            key(&job(3, AppTopology::Ring, false), &state),
            key(&slices, &state),
            key(&base_job.clone().with_slo(25.0), &state),
            key(&base_job, &again),
        ];
        for (i, (word, shape, busy)) in flipped.iter().enumerate() {
            assert_ne!((base.1, &base.2), (*shape, busy), "flip {i}");
            assert_ne!(base.0, *word, "flip {i}");
        }
        // Two unequal keys on one hash word are two entries, each with its
        // own decision: a collision costs a step along the chain, never an
        // answer.
        let (word, shape, busy) = &base;
        let mut cache = AllocationCache::default();
        store(&mut cache, *word, *shape, busy, placed(vec![1, 2, 4]));
        for (i, (_, shape, busy)) in flipped.iter().enumerate() {
            assert!(
                find(&mut cache, *word, *shape, busy).is_none(),
                "collision {i} must not hit"
            );
            store(&mut cache, *word, *shape, busy, placed(vec![i]));
        }
        assert_eq!(cache.len(), 1 + flipped.len());
        assert_eq!(
            find(&mut cache, *word, *shape, busy),
            Some(placed(vec![1, 2, 4]))
        );
        for (i, (_, shape, busy)) in flipped.iter().enumerate() {
            assert_eq!(find(&mut cache, *word, *shape, busy), Some(placed(vec![i])));
        }
    }

    #[test]
    fn capacity_is_enforced_fifo() {
        let mut cache = AllocationCache::new(2);
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(1, AppTopology::Ring, true);
        let mut keys = Vec::new();
        for g in 0..3usize {
            state.allocate(100 + g as u64, &[g]).unwrap();
            miss(&mut cache, &spec, state.busy_words(), placed(vec![g + 1]));
            keys.push(key(&spec, &state));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(hit(&mut cache, &spec, &keys[2].2), placed(vec![3]));
        // The oldest entry was evicted.
        miss(&mut cache, &spec, &keys[0].2, None);
        // Through a chain too: three keys forced onto one word leave in
        // the order they came.
        let mut chained = AllocationCache::new(2);
        for (i, (_, shape, busy)) in keys.iter().enumerate() {
            store(&mut chained, 7, *shape, busy, placed(vec![i]));
        }
        assert_eq!((chained.len(), chained.stats().evictions), (2, 1));
        let (_, shape, busy) = &keys[0];
        assert_eq!(find(&mut chained, 7, *shape, busy), None);
        for (i, (_, shape, busy)) in keys.iter().enumerate().skip(1) {
            assert_eq!(find(&mut chained, 7, *shape, busy), Some(placed(vec![i])));
        }
    }

    #[test]
    fn default_capacity_evicts_the_oldest_key() {
        let mut cache = AllocationCache::default();
        // Keys are plain values: one per job size on one occupancy.
        let idle = HardwareState::new(machines::dgx2());
        let idle = idle.busy_words();
        let size = |i: usize| job(1 + i, AppTopology::Ring, true);
        for i in 0..=DEFAULT_CACHE_CAPACITY {
            miss(&mut cache, &size(i), idle, None);
        }
        assert_eq!(cache.len(), DEFAULT_CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, 1);
        hit(&mut cache, &size(1), idle);
        hit(&mut cache, &size(DEFAULT_CACHE_CAPACITY), idle);
        // The oldest entry was evicted.
        miss(&mut cache, &size(0), idle, None);
    }

    #[test]
    fn shared_table_decision_made_through_one_handle_is_a_hit_through_another() {
        let state = HardwareState::new(machines::dgx1_v100());
        let idle = state.busy_words();
        let spec = job(3, AppTopology::Ring, true);
        let mut first = AllocationCache::default();
        let mut second = AllocationCache::default();
        second.join(&first);
        let decided =
            first.read_or_insert_with(&spec, idle, || placed(vec![0, 1, 2]), Clone::clone);
        let answered =
            second.read_or_insert_with(&spec, idle, || unreachable!("a hit"), Clone::clone);
        assert_eq!(answered, decided);
        assert_eq!(hit(&mut second, &spec, idle), placed(vec![0, 1, 2]));
        // Each handle counts its own lookups and the insertions it made.
        let counts = |c: &AllocationCache| {
            let s = c.stats();
            (s.hits, s.misses, s.insertions, s.evictions)
        };
        assert_eq!(counts(&first), (0, 1, 1, 0));
        assert_eq!(counts(&second), (2, 0, 0, 0));
        assert_eq!((first.len(), second.len()), (1, 1), "one table");
        // An unjoined handle keeps a table of its own.
        let mut alone = AllocationCache::default();
        assert!(alone.is_empty());
        miss(&mut alone, &spec, idle, None);
    }

    #[test]
    fn shared_table_evicts_only_past_handles_times_capacity() {
        let idle = HardwareState::new(machines::dgx2());
        let idle = idle.busy_words();
        let size = |i: usize| job(1 + i, AppTopology::Ring, true);
        let mut first = AllocationCache::new(2);
        let mut second = AllocationCache::new(2);
        let mut third = AllocationCache::new(2);
        second.join(&first);
        third.join(&first);
        // Three handles read the table: it holds 3 × 2 entries before the
        // first eviction, whichever handle inserts.
        for i in 0..6 {
            miss(
                [&mut first, &mut second, &mut third][i % 3],
                &size(i),
                idle,
                None,
            );
        }
        assert_eq!(first.len(), 6);
        let evictions = |c: &AllocationCache| c.stats().evictions;
        assert_eq!(
            evictions(&first) + evictions(&second) + evictions(&third),
            0
        );
        miss(&mut second, &size(6), idle, None);
        assert_eq!((first.len(), evictions(&second)), (6, 1));
        // The six entries are sizes 1..=6: the oldest was evicted.
        for i in 1..=6 {
            hit(&mut first, &size(i), idle);
        }
        // A handle that leaves shrinks the bound; the next insert evicts
        // down to it.
        drop(third);
        miss(&mut first, &size(7), idle, None);
        assert_eq!((first.len(), evictions(&first)), (4, 3));
        hit(&mut second, &size(4), idle);
        miss(&mut second, &size(3), idle, None);
    }

    fn cached_preserve(machine: mapa_topology::Topology) -> crate::MapaAllocator {
        crate::MapaAllocator::new(machine, Box::new(crate::policy::PreservePolicy))
            .with_config(crate::AllocatorConfig::cached())
    }

    #[test]
    fn isomorphic_shapes_are_two_entries_with_one_placement() {
        let mut a = cached_preserve(machines::dgx1_v100());
        let ring = a
            .peek(&job(3, AppTopology::Ring, true))
            .unwrap()
            .expect("an idle machine places");
        let clique = a
            .peek(&job(3, AppTopology::AllToAll, true))
            .unwrap()
            .expect("an idle machine places");
        assert_eq!(ring.0, clique.0, "ring(3) ≡ all_to_all(3) as graphs");
        let stats = a.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 2, 2));
    }

    #[test]
    fn twelve_gpu_job_on_dgx2_is_cached_like_any_other() {
        let mut a = cached_preserve(machines::dgx2());
        let spec = job(12, AppTopology::Ring, true);
        let first = a.try_allocate(&spec).unwrap().expect("16 GPUs are free");
        a.release(spec.id).unwrap();
        let again = a.try_allocate(&spec).unwrap().expect("16 GPUs are free");
        assert_eq!(first.gpus, again.gpus);
        let stats = a.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn negative_results_are_cached() {
        let mut cache = AllocationCache::default();
        let state = HardwareState::new(machines::summit());
        let spec = job(4, AppTopology::Ring, true);
        miss(&mut cache, &spec, state.busy_words(), None);
        assert_eq!(hit(&mut cache, &spec, state.busy_words()), None);
    }

    #[test]
    fn stats_hit_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 0,
        };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// What a table must do, naively: every entry in a `Vec`, oldest first,
    /// found by comparing word, shape and busy words.
    type FifoModel = Vec<(u64, Shape, Vec<u64>, Decision)>;

    proptest::proptest! {
        /// Lookups and inserts on a few hash words — so unequal keys chain
        /// on one word and evictions go through chains — through one or two
        /// handles at capacity 1–4: the table answers, counts and evicts as
        /// the FIFO model does, step by step.
        #[test]
        fn cache_table_matches_a_fifo_model_under_collisions(
            capacity in 1usize..5,
            handles in 1usize..3,
            ops in proptest::collection::vec(
                (0usize..2, 0u64..3, 0usize..6, proptest::prelude::any::<bool>()),
                1..60,
            ),
        ) {
            let mut caches: Vec<AllocationCache> =
                (0..handles).map(|_| AllocationCache::new(capacity)).collect();
            let (first, rest) = caches.split_first_mut().expect("one handle at least");
            for cache in rest {
                cache.join(first);
            }
            let busy_masks: [&[u64]; 2] = [&[1], &[1, 0]];
            let mut model = FifoModel::new();
            let mut model_stats = vec![CacheStats::default(); handles];
            for (step, (handle, word, k, insert)) in ops.into_iter().enumerate() {
                let h = handle % handles;
                let shape = Shape::of(&job(1 + k % 3, AppTopology::Ring, true));
                let busy = busy_masks[k / 3];
                let decision = placed(vec![step]);

                let got = find(&mut caches[h], word, shape, busy);
                if got.is_none() && insert {
                    store(&mut caches[h], word, shape, busy, decision.clone());
                }

                let stats = &mut model_stats[h];
                let stored = model
                    .iter()
                    .find(|(w, s, b, _)| (*w, *s, &b[..]) == (word, shape, busy));
                let expected = stored.map(|entry| entry.3.clone());
                if expected.is_some() {
                    stats.hits += 1;
                } else {
                    stats.misses += 1;
                    if insert {
                        model.push((word, shape, busy.to_vec(), decision));
                        stats.insertions += 1;
                        while model.len() > capacity * handles {
                            model.remove(0);
                            stats.evictions += 1;
                        }
                    }
                }

                proptest::prop_assert_eq!(got, expected, "step {}", step);
                proptest::prop_assert_eq!(caches[h].stats(), model_stats[h], "step {}", step);
                proptest::prop_assert_eq!(caches[h].len(), model.len(), "step {}", step);
            }
        }
    }
}
