//! Memoization of allocation decisions — the canonical-state cache.
//!
//! A policy's selection is a pure function of six inputs: the job's
//! pattern (up to isomorphism), its bandwidth-sensitivity flag, its demand
//! kind (whole GPUs vs MIG slices — they see different eligible vertices
//! on partitioned machines), whether it carries an SLO tag (the pressure
//! penalty weighs tagged jobs harder), the machine, and the current
//! free-GPU set. Multi-tenant traffic repeats those inputs constantly —
//! the paper's job mix draws from four pattern shapes and eight sizes, and
//! a machine that empties returns to a previously-seen occupancy — so
//! [`AllocationCache`] memoizes the selected placement under the key
//! `(pattern canonical code, sensitivity, fractional, SLO-tagged,
//! machine id, occupancy signature)`.
//!
//! **Soundness.** The occupancy signature is the *exact* busy set (see
//! [`OccupancySignature`]), the canonical code identifies the pattern's
//! isomorphism class, and every built-in policy breaks score ties toward
//! the lexicographically smallest GPU set — so equal keys imply identical
//! selections and entries never go stale: "invalidation" is the signature
//! changing under allocate/release, which simply rotates the key. A
//! previously-seen state recurring is exactly when a hit is both safe and
//! valuable. Negative results (`None`, "cannot place right now") are
//! cached on the same grounds.
//!
//! Canonical codes are brute-force over vertex permutations, so they are
//! computed once per `(AppTopology, size)` shape and memoized internally;
//! patterns above [`MAX_CANONICAL_VERTICES`] report no key and bypass the
//! cache entirely.

use mapa_graph::canonical::{canonical_code, CanonicalCode, MAX_CANONICAL_VERTICES};
use mapa_topology::OccupancySignature;
use mapa_workloads::{AppTopology, JobSpec};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Default maximum number of cached decisions (FIFO eviction beyond it).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The full identity of one allocation decision. The pattern code and
/// machine id are `Arc`-shared with the cache's internal memo tables, so
/// building a key on the hot path allocates only the (tiny) occupancy
/// signature it is handed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pattern: Arc<CanonicalCode>,
    bandwidth_sensitive: bool,
    fractional: bool,
    slo_tagged: bool,
    machine: Arc<str>,
    signature: OccupancySignature,
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

/// A bounded memo table from [`CacheKey`] to the selected placement
/// (`None` = the policy declined; also memoized).
#[derive(Debug, Clone)]
pub struct AllocationCache {
    entries: HashMap<CacheKey, Option<Vec<usize>>>,
    order: VecDeque<CacheKey>,
    capacity: usize,
    stats: CacheStats,
    /// Canonical codes memoized per pattern shape: `build_pattern` is
    /// deterministic in `(AppTopology, size)`, so the brute-force
    /// canonicalisation runs once per shape, not once per job.
    pattern_codes: HashMap<(AppTopology, usize), Arc<CanonicalCode>>,
    /// Interned machine names, so keys share one allocation per machine.
    machine_ids: HashMap<String, Arc<str>>,
}

impl AllocationCache {
    /// Creates a cache bounded to `capacity` entries (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
            pattern_codes: HashMap::new(),
            machine_ids: HashMap::new(),
        }
    }

    /// Rebounds the cache to `capacity` entries (clamped to ≥ 1),
    /// evicting oldest-first immediately if it now holds too many.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.entries.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
    }

    /// Builds the cache key for placing `job` on `machine` in the state
    /// identified by `signature`. Returns `None` when the job's pattern is
    /// too large to canonicalise — such jobs bypass the cache (and are
    /// counted in neither hits nor misses).
    #[must_use]
    pub fn key_for(
        &mut self,
        job: &JobSpec,
        machine: &str,
        signature: OccupancySignature,
    ) -> Option<CacheKey> {
        if job.num_gpus() > MAX_CANONICAL_VERTICES {
            return None;
        }
        let pattern = Arc::clone(
            self.pattern_codes
                .entry((job.topology, job.num_gpus()))
                .or_insert_with(|| {
                    Arc::new(canonical_code(&crate::appgraph::build_pattern(
                        job.topology,
                        job.num_gpus(),
                    )))
                }),
        );
        let machine = match self.machine_ids.get(machine) {
            Some(id) => Arc::clone(id),
            None => {
                let id: Arc<str> = Arc::from(machine);
                self.machine_ids
                    .insert(machine.to_string(), Arc::clone(&id));
                id
            }
        };
        Some(CacheKey {
            pattern,
            bandwidth_sensitive: job.bandwidth_sensitive,
            fractional: job.is_fractional(),
            slo_tagged: job.has_slo(),
            machine,
            signature,
        })
    }

    /// Looks up a decision, counting a hit or miss.
    #[must_use]
    pub fn get(&mut self, key: &CacheKey) -> Option<&Option<Vec<usize>>> {
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
    pub fn insert(&mut self, key: CacheKey, placement: Option<Vec<usize>>) {
        if self.entries.insert(key.clone(), placement).is_none() {
            self.order.push_back(key);
            self.stats.insertions += 1;
            while self.entries.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&oldest);
                    self.stats.evictions += 1;
                } else {
                    break;
                }
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

    /// The capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
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

    #[test]
    fn hit_after_insert_and_signature_recurrence() {
        let mut cache = AllocationCache::default();
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(3, AppTopology::Ring, true);

        let k1 = cache
            .key_for(&spec, "dgx", state.occupancy_signature())
            .unwrap();
        assert!(cache.get(&k1).is_none());
        cache.insert(k1.clone(), Some(vec![0, 1, 2]));

        // The same machine state recurs after an allocate/release cycle.
        state.allocate(9, &[4, 5]).unwrap();
        state.deallocate(9).unwrap();
        let k2 = cache
            .key_for(&spec, "dgx", state.occupancy_signature())
            .unwrap();
        assert_eq!(k1, k2, "recurring state rebuilds the same key");
        assert_eq!(cache.get(&k2), Some(&Some(vec![0, 1, 2])));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn mutation_rotates_the_key() {
        let mut cache = AllocationCache::default();
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(2, AppTopology::Ring, true);
        let idle = cache
            .key_for(&spec, "dgx", state.occupancy_signature())
            .unwrap();
        cache.insert(idle.clone(), Some(vec![0, 3]));
        state.allocate(1, &[0, 3]).unwrap();
        let busy = cache
            .key_for(&spec, "dgx", state.occupancy_signature())
            .unwrap();
        assert_ne!(idle, busy, "allocation must invalidate (rotate) the key");
        assert!(cache.get(&busy).is_none());
    }

    #[test]
    fn key_distinguishes_sensitivity_machine_and_shape() {
        let mut cache = AllocationCache::default();
        let state = HardwareState::new(machines::dgx1_v100());
        let sig = state.occupancy_signature();
        let base = cache
            .key_for(&job(3, AppTopology::Ring, true), "dgx", sig.clone())
            .unwrap();
        let insensitive = cache
            .key_for(&job(3, AppTopology::Ring, false), "dgx", sig.clone())
            .unwrap();
        let other_machine = cache
            .key_for(&job(3, AppTopology::Ring, true), "summit", sig.clone())
            .unwrap();
        let other_shape = cache
            .key_for(&job(4, AppTopology::Ring, true), "dgx", sig.clone())
            .unwrap();
        assert_ne!(base, insensitive);
        assert_ne!(base, other_machine);
        assert_ne!(base, other_shape);
        // Isomorphic shapes share a key: ring(3) ≡ all_to_all(3).
        let triangle = cache
            .key_for(&job(3, AppTopology::AllToAll, true), "dgx", sig)
            .unwrap();
        assert_eq!(base, triangle);
    }

    #[test]
    fn key_distinguishes_demand_kind_and_slo_tag() {
        let mut cache = AllocationCache::default();
        let state = HardwareState::new(machines::dgx1_v100());
        let sig = state.occupancy_signature();
        let whole = cache
            .key_for(&job(3, AppTopology::Ring, true), "dgx", sig.clone())
            .unwrap();
        let mut slices = job(3, AppTopology::Ring, true);
        slices.demand = mapa_workloads::GpuDemand::Slices(3);
        let fractional = cache.key_for(&slices, "dgx", sig.clone()).unwrap();
        assert_ne!(
            whole, fractional,
            "whole and slice demands see different eligible vertices"
        );
        let tagged = cache
            .key_for(
                &job(3, AppTopology::Ring, true).with_slo(25.0),
                "dgx",
                sig.clone(),
            )
            .unwrap();
        assert_ne!(whole, tagged, "SLO tag changes the pressure weight");
        // The SLO *value* is not part of the key — selection ignores it.
        let tagged_other = cache
            .key_for(&job(3, AppTopology::Ring, true).with_slo(90.0), "dgx", sig)
            .unwrap();
        assert_eq!(tagged, tagged_other);
    }

    #[test]
    fn oversized_patterns_bypass() {
        let mut cache = AllocationCache::default();
        let state = HardwareState::new(machines::torus_2d());
        let spec = job(MAX_CANONICAL_VERTICES + 1, AppTopology::Ring, true);
        assert!(cache
            .key_for(&spec, "torus", state.occupancy_signature())
            .is_none());
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn capacity_is_enforced_fifo() {
        let mut cache = AllocationCache::new(2);
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(1, AppTopology::Ring, true);
        let mut keys = Vec::new();
        for g in 0..3usize {
            state.allocate(100 + g as u64, &[g]).unwrap();
            let k = cache
                .key_for(&spec, "dgx", state.occupancy_signature())
                .unwrap();
            cache.insert(k.clone(), Some(vec![g + 1]));
            keys.push(k);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&keys[0]).is_none(), "oldest entry evicted");
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn set_capacity_rebounds_and_trims() {
        let mut cache = AllocationCache::new(8);
        let mut state = HardwareState::new(machines::dgx1_v100());
        let spec = job(1, AppTopology::Ring, true);
        for g in 0..4usize {
            state.allocate(100 + g as u64, &[g]).unwrap();
            let k = cache
                .key_for(&spec, "dgx", state.occupancy_signature())
                .unwrap();
            cache.insert(k, Some(vec![g + 4]));
        }
        assert_eq!(cache.len(), 4);
        cache.set_capacity(2);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.len(), 2, "oldest entries trimmed immediately");
        assert_eq!(cache.stats().evictions, 2);
        cache.set_capacity(0);
        assert_eq!(cache.capacity(), 1, "capacity clamps to at least 1");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn negative_results_are_cached() {
        let mut cache = AllocationCache::default();
        let state = HardwareState::new(machines::summit());
        let spec = job(4, AppTopology::Ring, true);
        let k = cache
            .key_for(&spec, "summit", state.occupancy_signature())
            .unwrap();
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
