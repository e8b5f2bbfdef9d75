//! Memoization of allocation decisions — a plain memo table.
//!
//! Within one [`crate::MapaAllocator`] (one machine, one policy, one
//! model) a policy's selection is a pure function of five inputs: the job's
//! pattern — [`crate::appgraph::build_pattern`] is deterministic in
//! `(AppTopology, size)`, so that pair *is* the pattern —, its
//! bandwidth-sensitivity flag, its demand kind (whole GPUs vs MIG slices —
//! they see different eligible vertices on partitioned machines), whether
//! it carries an SLO tag (the pressure penalty weighs tagged jobs harder),
//! and the current free-GPU set. Multi-tenant traffic repeats those inputs
//! constantly — the paper's job mix draws from four pattern shapes and
//! eight sizes, and a machine that empties returns to a previously-seen
//! occupancy — so [`AllocationCache`] memoizes the whole [`Decision`] —
//! the selected GPU set *and* its [`MatchScore`] — under [`CacheKey`],
//! those values as they are. A hit is one hash lookup and one `Vec` clone:
//! neither the policy nor the scorer runs.
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
//! before a key is built, so it is neither a lookup (the hit/miss counters
//! count only decisions that needed one) nor an entry. The one `None` still
//! memoized, on the same grounds as a placement, is a policy declining
//! although enough vertices are free: a whole-GPU job on a partitioned
//! machine whose free vertices are mostly MIG slices.
//!
//! **Hashing vs equality.** A key hashes as one word — the signature's own
//! FNV-1a fingerprint (maintained by `HardwareState`) mixed with the five
//! small fields — computed in [`CacheKey::new`] and passed through by the
//! table's hasher. Equality stays the derived comparison over the exact
//! busy words, so two keys sharing a word cost an extra probe and never
//! share an entry. Keys come from the allocator's own occupancy states,
//! not from outside input, so SipHash's collision resistance buys nothing.

use crate::scoring::MatchScore;
use mapa_topology::OccupancySignature;
use mapa_workloads::{AppTopology, JobSpec};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Maximum number of cached decisions (FIFO eviction beyond it).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// One memoized allocation decision: the selected GPUs (ascending) with
/// the scores [`crate::MapaAllocator::score_allocation`] gave them in the
/// keyed state, or `None` when the policy declined.
pub type Decision = Option<(Vec<usize>, MatchScore)>;

/// The full identity of one allocation decision on one allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// What [`Hash`] writes; a function of the fields below.
    hash_word: u64,
    topology: AppTopology,
    num_gpus: usize,
    bandwidth_sensitive: bool,
    fractional: bool,
    slo_tagged: bool,
    signature: OccupancySignature,
}

impl CacheKey {
    /// The key for placing `job` in the state identified by `signature`.
    #[must_use]
    pub fn new(job: &JobSpec, signature: OccupancySignature) -> Self {
        let (fractional, slo_tagged) = (job.is_fractional(), job.has_slo());
        // The small fields packed into one word, spread over all 64 bits by
        // an odd multiplier before meeting the fingerprint.
        let small = (job.num_gpus() as u64) << 5
            | (job.topology as u64) << 3
            | u64::from(job.bandwidth_sensitive) << 2
            | u64::from(fractional) << 1
            | u64::from(slo_tagged);
        Self {
            hash_word: signature.fingerprint() ^ small.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            topology: job.topology,
            num_gpus: job.num_gpus(),
            bandwidth_sensitive: job.bandwidth_sensitive,
            fractional,
            slo_tagged,
            signature,
        }
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash_word);
    }
}

/// The table's hasher: the one word a [`CacheKey`] writes, as it is.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a CacheKey hashes as one u64");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hit/miss/eviction counters of an [`AllocationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the policy.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries dropped to respect the capacity bound.
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

/// A bounded memo table from [`CacheKey`] to the [`Decision`] made there
/// (`None` = the policy declined although enough vertices were free; also
/// memoized).
#[derive(Debug, Clone)]
pub struct AllocationCache {
    entries: HashMap<CacheKey, Decision, BuildHasherDefault<WordHasher>>,
    order: VecDeque<CacheKey>,
    capacity: usize,
    stats: CacheStats,
}

impl AllocationCache {
    /// Creates a cache bounded to `capacity` entries (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a decision, counting a hit or miss.
    #[must_use]
    pub fn get(&mut self, key: &CacheKey) -> Option<&Decision> {
        match self.entries.get(key) {
            Some(hit) => {
                self.stats.hits += 1;
                Some(hit)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a decision, evicting the oldest entry beyond capacity.
    pub fn insert(&mut self, key: CacheKey, decision: Decision) {
        if self.entries.insert(key.clone(), decision).is_none() {
            self.order.push_back(key);
            self.stats.insertions += 1;
            if self.entries.len() > self.capacity {
                let oldest = self.order.pop_front().expect("every entry is queued");
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no decision is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    #[test]
    fn hit_after_insert_and_signature_recurrence() {
        let mut cache = AllocationCache::default();
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(3, AppTopology::Ring, true);

        let k1 = CacheKey::new(&spec, state.occupancy_signature());
        assert!(cache.get(&k1).is_none());
        cache.insert(k1.clone(), placed(vec![0, 1, 2]));

        // The same machine state recurs after an allocate/release cycle.
        state.allocate(9, &[4, 5]).unwrap();
        state.deallocate(9).unwrap();
        let k2 = CacheKey::new(&spec, state.occupancy_signature());
        assert_eq!(k1, k2, "recurring state rebuilds the same key");
        assert_eq!(cache.get(&k2), Some(&placed(vec![0, 1, 2])));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn mutation_rotates_the_key() {
        let mut cache = AllocationCache::default();
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(2, AppTopology::Ring, true);
        let idle = CacheKey::new(&spec, state.occupancy_signature());
        cache.insert(idle.clone(), placed(vec![0, 3]));
        state.allocate(1, &[0, 3]).unwrap();
        let busy = CacheKey::new(&spec, state.occupancy_signature());
        assert_ne!(idle, busy, "allocation must invalidate (rotate) the key");
        assert!(cache.get(&busy).is_none());
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
        let triangle = CacheKey::new(&job(3, AppTopology::AllToAll, true), sig);
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
        let tagged_other = CacheKey::new(&job(3, AppTopology::Ring, true).with_slo(90.0), sig);
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

    fn hash_of(key: &CacheKey) -> u64 {
        let mut hasher = WordHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn hash_is_one_word_that_follows_every_field_and_equality_stays_exact() {
        let mut state = HardwareState::new(machines::dgx1_v100());
        state.allocate(1, &[0, 3]).unwrap();
        let base_job = job(3, AppTopology::Ring, true);
        let base = CacheKey::new(&base_job, state.occupancy_signature());
        // Equal keys — rebuilt from a recurrence of the state — hash equal.
        let mut again = state.clone();
        again.allocate(2, &[5]).unwrap();
        again.deallocate(2).unwrap();
        let rebuilt = CacheKey::new(&base_job, again.occupancy_signature());
        assert_eq!(base, rebuilt);
        assert_eq!(hash_of(&base), hash_of(&rebuilt));
        // Each small field, and one occupancy bit, makes another key; the
        // packing keeps them apart in the hash word too.
        let mut slices = base_job.clone();
        slices.demand = mapa_workloads::GpuDemand::Slices(3);
        again.allocate(2, &[5]).unwrap();
        let here = |job: &JobSpec| CacheKey::new(job, state.occupancy_signature());
        let flipped = [
            here(&job(4, AppTopology::Ring, true)),
            here(&job(3, AppTopology::Tree, true)),
            here(&job(3, AppTopology::Ring, false)),
            here(&slices),
            here(&base_job.clone().with_slo(25.0)),
            CacheKey::new(&base_job, again.occupancy_signature()),
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
        cache.insert(base.clone(), placed(vec![1, 2, 4]));
        for (i, key) in colliding.iter().enumerate() {
            assert_eq!(hash_of(key), word);
            assert!(cache.get(key).is_none(), "collision {i} must not hit");
            cache.insert(key.clone(), placed(vec![i]));
        }
        assert_eq!(cache.len(), 1 + colliding.len());
        assert_eq!(cache.get(&base), Some(&placed(vec![1, 2, 4])));
        for (i, key) in colliding.iter().enumerate() {
            assert_eq!(cache.get(key), Some(&placed(vec![i])));
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
            let k = CacheKey::new(&spec, state.occupancy_signature());
            cache.insert(k.clone(), placed(vec![g + 1]));
            keys.push(k);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&keys[0]).is_none(), "oldest entry evicted");
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn default_capacity_evicts_the_oldest_key() {
        let mut cache = AllocationCache::default();
        // Keys are plain values: one per job size on one occupancy.
        let idle = HardwareState::new(machines::dgx2()).occupancy_signature();
        let key = |i: usize| CacheKey::new(&job(1 + i, AppTopology::Ring, true), idle.clone());
        for i in 0..=DEFAULT_CACHE_CAPACITY {
            cache.insert(key(i), None);
        }
        assert_eq!(cache.len(), DEFAULT_CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key(0)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(DEFAULT_CACHE_CAPACITY)).is_some());
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
        let k = CacheKey::new(&spec, state.occupancy_signature());
        cache.insert(k.clone(), None);
        assert_eq!(cache.get(&k), Some(&None));
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
