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
//! **A hit builds no key.** A lookup probes with a borrowed view — the
//! job's five small fields and a reference to the occupancy signature —
//! hashed to the owned key's word and compared field by field (the
//! `Borrow<dyn KeyView>` pattern), so a hit is one lock, one probe and a
//! read of the stored decision in place — a copy only for a caller that
//! keeps it: neither the policy nor the scorer runs, and the signature is
//! not copied. Only a miss builds the owned key, for
//! its insert. A miss decides while holding the lock, so one table makes
//! each decision once even when shards decide on several threads
//! (`mapa-cluster`'s parallel dispatch); which shard takes a key's miss
//! then follows thread timing, so the per-shard split of hits and misses
//! may vary between such runs, while decisions and (as long as nothing is
//! evicted) the totals do not.
//!
//! **Soundness.** The occupancy signature is the *exact* busy set (see
//! [`OccupancySignature`]) and the other fields are the job's own, so
//! equal keys mean the same labelled pattern asked of the same state: a
//! deterministic policy selects the same GPUs, and entries never go stale —
//! "invalidation" is the signature changing under allocate/release, which
//! simply rotates the key. The scores are pinned by the same key:
//! aggregated bandwidth reads the pattern (`(AppTopology, size)`) on the
//! chosen set, the link mix and Predicted EffBW read the chosen set and the
//! allocator's fixed model, and preserved bandwidth reads the free graph,
//! which *is* the signature (the SLO pressure term steers selection but is
//! not part of [`MatchScore`]). A previously-seen state recurring is
//! exactly when a hit is both safe and valuable. Two shapes that happen to
//! be isomorphic (a 3-ring and a 3-clique) are two entries.
//!
//! **Negative entries.** A request for more vertices than are free never
//! gets here: [`crate::MapaAllocator`] refuses it by comparing two integers
//! before a lookup, so it is neither a lookup (the hit/miss counters
//! count only decisions that needed one) nor an entry. The one `None` still
//! memoized, on the same grounds as a placement, is a policy declining
//! although enough vertices are free: a whole-GPU job on a partitioned
//! machine whose free vertices are mostly MIG slices.
//!
//! **Hashing vs equality.** A key hashes as one word — the signature's own
//! FNV-1a fingerprint (maintained by `HardwareState`) mixed with the five
//! small fields — and the table's hasher passes it through. Equality stays
//! the exact comparison over the busy words, so two keys sharing a word
//! cost an extra probe and never share an entry. Keys come from the
//! allocators' own occupancy states, not from outside input, so SipHash's
//! collision resistance buys nothing.

use crate::scoring::MatchScore;
use mapa_topology::OccupancySignature;
use mapa_workloads::{AppTopology, JobSpec};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
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

    /// The hash word of this shape in the state `signature`: the small
    /// fields packed into one word, spread over all 64 bits by an odd
    /// multiplier before meeting the fingerprint.
    fn hash_word(self, signature: &OccupancySignature) -> u64 {
        let small = (self.num_gpus as u64) << 5
            | (self.topology as u64) << 3
            | u64::from(self.bandwidth_sensitive) << 2
            | u64::from(self.fractional) << 1
            | u64::from(self.slo_tagged);
        signature.fingerprint() ^ small.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// The full identity of one allocation decision on one (machine, policy,
/// model): what a table stores, built on a miss only.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    /// What [`Hash`] writes; a function of the fields below.
    hash_word: u64,
    shape: Shape,
    signature: OccupancySignature,
}

impl CacheKey {
    /// The key for placing `job` in the state identified by `signature`.
    fn new(job: &JobSpec, signature: OccupancySignature) -> Self {
        let shape = Shape::of(job);
        Self {
            hash_word: shape.hash_word(&signature),
            shape,
            signature,
        }
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash_word);
    }
}

/// A [`CacheKey`] that borrows its signature: what a lookup probes with.
struct KeyRef<'a> {
    hash_word: u64,
    shape: Shape,
    signature: &'a OccupancySignature,
}

impl<'a> KeyRef<'a> {
    fn new(job: &JobSpec, signature: &'a OccupancySignature) -> Self {
        let shape = Shape::of(job);
        Self {
            hash_word: shape.hash_word(signature),
            shape,
            signature,
        }
    }
}

/// An owned or a borrowed key, seen alike. The table's keys borrow as
/// `dyn KeyView`, so a [`KeyRef`] finds its entry without a [`CacheKey`]
/// being built; hash and equality agree with [`CacheKey`]'s own.
trait KeyView {
    fn parts(&self) -> (u64, Shape, &OccupancySignature);
}

impl KeyView for CacheKey {
    fn parts(&self) -> (u64, Shape, &OccupancySignature) {
        (self.hash_word, self.shape, &self.signature)
    }
}

impl KeyView for KeyRef<'_> {
    fn parts(&self) -> (u64, Shape, &OccupancySignature) {
        (self.hash_word, self.shape, self.signature)
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.parts().0);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyView + '_ {}

/// The table's hasher: the one word a key writes, as it is.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a cache key hashes as one u64");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        self.0
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

/// The decisions every handle of one table reads, and their insertion
/// order.
#[derive(Debug)]
struct Table {
    entries: HashMap<CacheKey, Decision, BuildHasherDefault<WordHasher>>,
    order: VecDeque<CacheKey>,
    /// Entries allowed per handle reading the table.
    capacity: usize,
}

impl Table {
    /// The decision stored under `key`, counting a hit or a miss into
    /// `stats`.
    fn get(&self, key: &dyn KeyView, stats: &mut CacheStats) -> Option<&Decision> {
        let hit = self.entries.get(key);
        if hit.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        hit
    }

    /// Stores a decision, evicting the oldest entries beyond `capacity`
    /// per handle of the `handles` reading the table; counts into `stats`.
    fn insert(
        &mut self,
        key: CacheKey,
        decision: Decision,
        handles: usize,
        stats: &mut CacheStats,
    ) {
        if self.entries.insert(key.clone(), decision).is_none() {
            self.order.push_back(key);
            stats.insertions += 1;
            while self.entries.len() > self.capacity.saturating_mul(handles) {
                let oldest = self.order.pop_front().expect("every entry is queued");
                self.entries.remove(&oldest);
                stats.evictions += 1;
            }
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
            entries: HashMap::default(),
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
    /// `signature`: the stored one on a hit (one lock, one probe, read in
    /// place — `Clone::clone` takes a copy out, a caller after a score or
    /// feasibility alone copies nothing); on a miss `decide`'s, read and
    /// then stored under a key built then. The table stays locked while
    /// `decide` and `read` run, so a table makes each decision once,
    /// whichever of its handles asks first.
    pub fn read_or_insert_with<R>(
        &mut self,
        job: &JobSpec,
        signature: &OccupancySignature,
        decide: impl FnOnce() -> Decision,
        read: impl FnOnce(&Decision) -> R,
    ) -> R {
        let mut table = lock(&self.table);
        if let Some(hit) = table.get(&KeyRef::new(job, signature), &mut self.stats) {
            return read(hit);
        }
        let decision = decide();
        let answer = read(&decision);
        let key = CacheKey::new(job, signature.clone());
        let handles = Arc::strong_count(&self.table);
        table.insert(key, decision, handles, &mut self.stats);
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
        lock(&self.table).entries.len()
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
    fn miss(
        cache: &mut AllocationCache,
        job: &JobSpec,
        signature: &OccupancySignature,
        decision: Decision,
    ) {
        let mut called = false;
        cache.read_or_insert_with(
            job,
            signature,
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
    fn hit(cache: &mut AllocationCache, job: &JobSpec, signature: &OccupancySignature) -> Decision {
        let never = || panic!("a hit never calls decide");
        cache.read_or_insert_with(job, signature, never, Clone::clone)
    }

    #[test]
    fn hit_after_insert_and_signature_recurrence() {
        let mut cache = AllocationCache::default();
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(3, AppTopology::Ring, true);

        let k1 = CacheKey::new(&spec, state.occupancy_signature().clone());
        miss(
            &mut cache,
            &spec,
            state.occupancy_signature(),
            placed(vec![0, 1, 2]),
        );

        // The same machine state recurs after an allocate/release cycle.
        state.allocate(9, &[4, 5]).unwrap();
        state.deallocate(9).unwrap();
        let k2 = CacheKey::new(&spec, state.occupancy_signature().clone());
        assert_eq!(k1, k2, "recurring state rebuilds the same key");
        assert_eq!(
            hit(&mut cache, &spec, state.occupancy_signature()),
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
        let idle = CacheKey::new(&spec, state.occupancy_signature().clone());
        miss(
            &mut cache,
            &spec,
            state.occupancy_signature(),
            placed(vec![0, 3]),
        );
        state.allocate(1, &[0, 3]).unwrap();
        let busy = CacheKey::new(&spec, state.occupancy_signature().clone());
        assert_ne!(idle, busy, "allocation must invalidate (rotate) the key");
        miss(&mut cache, &spec, state.occupancy_signature(), None);
    }

    #[test]
    fn key_distinguishes_sensitivity_machine_and_shape() {
        let state = HardwareState::new(machines::dgx1_v100());
        let sig = state.occupancy_signature();
        let base = CacheKey::new(&job(3, AppTopology::Ring, true), sig.clone());
        let insensitive = CacheKey::new(&job(3, AppTopology::Ring, false), sig.clone());
        let other_shape = CacheKey::new(&job(4, AppTopology::Ring, true), sig.clone());
        assert_ne!(base, insensitive);
        assert_ne!(base, other_shape);
        // The key is the labelled pattern: ring(3) ≡ all_to_all(3) as
        // graphs, but they are two keys.
        let triangle = CacheKey::new(&job(3, AppTopology::AllToAll, true), sig.clone());
        assert_ne!(base, triangle);
    }

    #[test]
    fn key_distinguishes_demand_kind_and_slo_tag() {
        let state = HardwareState::new(machines::dgx1_v100());
        let sig = state.occupancy_signature();
        let whole = CacheKey::new(&job(3, AppTopology::Ring, true), sig.clone());
        let mut slices = job(3, AppTopology::Ring, true);
        slices.demand = mapa_workloads::GpuDemand::Slices(3);
        let fractional = CacheKey::new(&slices, sig.clone());
        assert_ne!(
            whole, fractional,
            "whole and slice demands see different eligible vertices"
        );
        let tagged = CacheKey::new(&job(3, AppTopology::Ring, true).with_slo(25.0), sig.clone());
        assert_ne!(whole, tagged, "SLO tag changes the pressure weight");
        // The SLO *value* is not part of the key — selection ignores it.
        let tagged_other =
            CacheKey::new(&job(3, AppTopology::Ring, true).with_slo(90.0), sig.clone());
        assert_eq!(tagged, tagged_other);
    }

    impl CacheKey {
        /// This key on another hash word, so that two unequal keys can be
        /// made to collide.
        fn with_hash_word(mut self, word: u64) -> Self {
            self.hash_word = word;
            self
        }
    }

    /// The borrowed view a lookup of `key` probes with.
    fn view(key: &CacheKey) -> KeyRef<'_> {
        KeyRef {
            hash_word: key.hash_word,
            shape: key.shape,
            signature: &key.signature,
        }
    }

    /// `cache`'s lookup of `key` as its borrowed view.
    fn find(cache: &mut AllocationCache, key: &CacheKey) -> Option<Decision> {
        lock(&cache.table)
            .get(&view(key), &mut cache.stats)
            .cloned()
    }

    /// Stores `decision` under `key` as it is, hash word included.
    fn store(cache: &mut AllocationCache, key: CacheKey, decision: Decision) {
        lock(&cache.table).insert(key, decision, 1, &mut cache.stats);
    }

    fn hash_of(key: &(impl Hash + ?Sized)) -> u64 {
        let mut hasher = WordHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn hash_is_one_word_that_follows_every_field_and_equality_stays_exact() {
        let mut state = HardwareState::new(machines::dgx1_v100());
        state.allocate(1, &[0, 3]).unwrap();
        let base_job = job(3, AppTopology::Ring, true);
        let base = CacheKey::new(&base_job, state.occupancy_signature().clone());
        // Equal keys — rebuilt from a recurrence of the state — hash equal,
        // and so does the borrowed view a lookup builds instead.
        let mut again = state.clone();
        again.allocate(2, &[5]).unwrap();
        again.deallocate(2).unwrap();
        let rebuilt = CacheKey::new(&base_job, again.occupancy_signature().clone());
        assert_eq!(base, rebuilt);
        assert_eq!(hash_of(&base), hash_of(&rebuilt));
        let probe = KeyRef::new(&base_job, again.occupancy_signature());
        assert_eq!(hash_of(&base), hash_of(&probe as &dyn KeyView));
        assert!(&probe as &dyn KeyView == base.borrow());
        // Each small field, and one occupancy bit, makes another key; the
        // packing keeps them apart in the hash word too.
        let mut slices = base_job.clone();
        slices.demand = mapa_workloads::GpuDemand::Slices(3);
        again.allocate(2, &[5]).unwrap();
        let here = |job: &JobSpec| CacheKey::new(job, state.occupancy_signature().clone());
        let flipped = [
            here(&job(4, AppTopology::Ring, true)),
            here(&job(3, AppTopology::Tree, true)),
            here(&job(3, AppTopology::Ring, false)),
            here(&slices),
            here(&base_job.clone().with_slo(25.0)),
            CacheKey::new(&base_job, again.occupancy_signature().clone()),
        ];
        for (i, key) in flipped.iter().enumerate() {
            assert_ne!(&base, key, "flip {i}");
            assert_ne!(hash_of(&base), hash_of(key), "flip {i}");
        }
        // Two unequal keys on one hash word are two entries, each with its
        // own decision: a collision costs a probe, never an answer.
        let word = hash_of(&base);
        let colliding = flipped.map(|key| key.with_hash_word(word));
        let mut cache = AllocationCache::default();
        store(&mut cache, base.clone(), placed(vec![1, 2, 4]));
        for (i, key) in colliding.iter().enumerate() {
            assert_eq!(hash_of(key), word);
            assert!(
                find(&mut cache, key).is_none(),
                "collision {i} must not hit"
            );
            store(&mut cache, key.clone(), placed(vec![i]));
        }
        assert_eq!(cache.len(), 1 + colliding.len());
        assert_eq!(find(&mut cache, &base), Some(placed(vec![1, 2, 4])));
        for (i, key) in colliding.iter().enumerate() {
            assert_eq!(find(&mut cache, key), Some(placed(vec![i])));
        }
    }

    #[test]
    fn capacity_is_enforced_fifo() {
        let mut cache = AllocationCache::new(2);
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(1, AppTopology::Ring, true);
        let mut signatures = Vec::new();
        for g in 0..3usize {
            state.allocate(100 + g as u64, &[g]).unwrap();
            miss(
                &mut cache,
                &spec,
                state.occupancy_signature(),
                placed(vec![g + 1]),
            );
            signatures.push(state.occupancy_signature().clone());
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(hit(&mut cache, &spec, &signatures[2]), placed(vec![3]));
        // The oldest entry was evicted.
        miss(&mut cache, &spec, &signatures[0], None);
    }

    #[test]
    fn default_capacity_evicts_the_oldest_key() {
        let mut cache = AllocationCache::default();
        // Keys are plain values: one per job size on one occupancy.
        let idle = HardwareState::new(machines::dgx2());
        let idle = idle.occupancy_signature();
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
        let idle = state.occupancy_signature();
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
        let idle = idle.occupancy_signature();
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
        miss(&mut cache, &spec, state.occupancy_signature(), None);
        assert_eq!(hit(&mut cache, &spec, state.occupancy_signature()), None);
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
}
