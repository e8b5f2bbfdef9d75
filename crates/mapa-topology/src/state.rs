//! Mutable allocation state over a hardware topology.
//!
//! §3.6 of the paper: "The hardware graph G is updated whenever there is an
//! allocation (a job is scheduled) and a deallocation (a job is finished)."
//! [`HardwareState`] tracks which GPUs belong to which running job and
//! keeps the busy mask the allocation cache keys on; the free GPUs it
//! lists are what Preserved Bandwidth sums over.

use crate::{Topology, WordMap};
use mapa_graph::BitSet;
use std::collections::hash_map::Entry;
use std::fmt;

/// Identifier of a scheduled job (assigned by the caller).
pub type JobId = u64;

/// Errors from allocation state transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// A requested GPU is already assigned to another job.
    GpuBusy {
        /// The GPU index that was requested twice.
        gpu: usize,
        /// The job currently holding it.
        held_by: JobId,
    },
    /// A requested GPU index exceeds the machine size.
    GpuOutOfRange {
        /// The offending index.
        gpu: usize,
        /// The machine's GPU count.
        count: usize,
    },
    /// The same GPU appears twice in one request.
    DuplicateGpu(usize),
    /// The job id is already active.
    JobExists(JobId),
    /// The job id is not active.
    UnknownJob(JobId),
    /// An empty GPU set was requested.
    EmptyAllocation,
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::GpuBusy { gpu, held_by } => {
                write!(f, "GPU {gpu} is already held by job {held_by}")
            }
            AllocationError::GpuOutOfRange { gpu, count } => {
                write!(f, "GPU {gpu} out of range for {count}-GPU machine")
            }
            AllocationError::DuplicateGpu(g) => write!(f, "GPU {g} requested twice"),
            AllocationError::JobExists(j) => write!(f, "job {j} is already allocated"),
            AllocationError::UnknownJob(j) => write!(f, "job {j} is not allocated"),
            AllocationError::EmptyAllocation => write!(f, "allocation must use at least one GPU"),
        }
    }
}

impl std::error::Error for AllocationError {}

/// Tracks GPU occupancy for a machine across job allocations/deallocations.
#[derive(Debug, Clone)]
pub struct HardwareState {
    topology: Topology,
    owner: Vec<Option<JobId>>,
    jobs: WordMap<Vec<usize>>,
    /// Busy-GPU mask, maintained incrementally (never rescanned).
    busy: BitSet,
}

impl HardwareState {
    /// Creates an all-free state over `topology`.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        let n = topology.gpu_count();
        Self {
            topology,
            owner: vec![None; n],
            jobs: WordMap::default(),
            busy: BitSet::new(n),
        }
    }

    /// The underlying machine.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of currently free GPUs.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.topology.gpu_count() - self.busy.count()
    }

    /// The busy-GPU mask's words, read in place: the exact identity of
    /// the current free/busy set (job ids do not enter it), and what the
    /// allocation cache keys a decision on. Allocate and release rotate
    /// them; a refused transition leaves them as they were.
    #[must_use]
    pub fn busy_words(&self) -> &[u64] {
        self.busy.as_words()
    }

    /// Number of currently busy GPUs.
    #[must_use]
    pub fn busy_count(&self) -> usize {
        self.topology.gpu_count() - self.free_count()
    }

    /// Fraction of the machine's GPUs currently busy, in `[0, 1]` — the
    /// size-normalized load metric cluster server-selection policies
    /// compare across (possibly heterogeneous) machines.
    #[must_use]
    pub fn busy_fraction(&self) -> f64 {
        self.busy_count() as f64 / self.topology.gpu_count().max(1) as f64
    }

    /// True when no job holds any GPU.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Whether `gpu` is free.
    ///
    /// # Panics
    /// Panics if `gpu` is out of range.
    #[must_use]
    pub fn is_free(&self, gpu: usize) -> bool {
        self.owner[gpu].is_none()
    }

    /// The GPUs held by `job`, ascending; `None` if the job is unknown.
    #[must_use]
    pub fn gpus_of(&self, job: JobId) -> Option<&[usize]> {
        self.jobs.get(&job).map(Vec::as_slice)
    }

    /// Free GPU indices, ascending.
    #[must_use]
    pub fn free_gpus(&self) -> Vec<usize> {
        let mut free = Vec::with_capacity(self.free_count());
        free.extend((0..self.owner.len()).filter(|&g| self.is_free(g)));
        free
    }

    /// The physical GPU vertex `v` lives on. Identity on unpartitioned
    /// machines; the slice→physical map on machines built by a
    /// [`crate::virt::PartitionPlan`].
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn physical_of(&self, v: usize) -> usize {
        assert!(v < self.topology.gpu_count(), "vertex {v} out of range");
        self.topology.slice_map().map_or(v, |m| m.physical_of(v))
    }

    /// How many *busy* vertices co-reside with `v` on its physical GPU,
    /// excluding `v` itself. Always 0 on unpartitioned machines — the
    /// allocator's co-residency pressure term reads exactly this.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn co_resident_busy(&self, v: usize) -> usize {
        assert!(v < self.topology.gpu_count(), "vertex {v} out of range");
        match self.topology.slice_map() {
            Some(m) => m
                .vertices_of(m.physical_of(v))
                .filter(|&w| w != v && !self.is_free(w))
                .count(),
            None => 0,
        }
    }

    /// Assigns `gpus` to `job`.
    ///
    /// # Errors
    /// Fails (without mutating state) if the job exists, the set is empty,
    /// any GPU is out of range, duplicated, or busy.
    pub fn allocate(&mut self, job: JobId, gpus: &[usize]) -> Result<(), AllocationError> {
        let Entry::Vacant(slot) = self.jobs.entry(job) else {
            return Err(AllocationError::JobExists(job));
        };
        if gpus.is_empty() {
            return Err(AllocationError::EmptyAllocation);
        }
        // `busy` is the seen-set: a GPU already in it is either held
        // (it has an owner) or listed earlier in `gpus`. A refused list
        // clears the bits it set, so `busy` ends as it began.
        let n = self.topology.gpu_count();
        for (i, &g) in gpus.iter().enumerate() {
            let fault = if g >= n {
                Some(AllocationError::GpuOutOfRange { gpu: g, count: n })
            } else if self.busy.insert(g) {
                None
            } else if let Some(holder) = self.owner[g] {
                Some(AllocationError::GpuBusy {
                    gpu: g,
                    held_by: holder,
                })
            } else {
                Some(AllocationError::DuplicateGpu(g))
            };
            if let Some(fault) = fault {
                for &set in &gpus[..i] {
                    self.busy.remove(set);
                }
                return Err(fault);
            }
        }
        let mut sorted: Vec<usize> = gpus.to_vec();
        sorted.sort_unstable();
        for &g in &sorted {
            self.owner[g] = Some(job);
        }
        slot.insert(sorted);
        Ok(())
    }

    /// Releases all GPUs held by `job`, returning them.
    ///
    /// # Errors
    /// Fails if the job is not active.
    pub fn deallocate(&mut self, job: JobId) -> Result<Vec<usize>, AllocationError> {
        let gpus = self
            .jobs
            .remove(&job)
            .ok_or(AllocationError::UnknownJob(job))?;
        for &g in &gpus {
            debug_assert_eq!(self.owner[g], Some(job));
            self.owner[g] = None;
            self.busy.remove(g);
        }
        Ok(gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;
    use proptest::prelude::*;

    fn state() -> HardwareState {
        HardwareState::new(machines::dgx1_v100())
    }

    #[test]
    fn busy_fraction_tracks_occupancy() {
        let mut s = state();
        assert_eq!(s.busy_fraction(), 0.0);
        s.allocate(1, &[0, 1, 2, 3]).unwrap();
        assert!((s.busy_fraction() - 0.5).abs() < 1e-12);
        s.deallocate(1).unwrap();
        assert_eq!(s.busy_fraction(), 0.0);
    }

    #[test]
    fn fresh_state_is_idle() {
        let s = state();
        assert!(s.is_idle());
        assert_eq!(s.free_count(), 8);
        assert_eq!(s.busy_count(), 0);
        assert_eq!(s.free_gpus(), (0..8).collect::<Vec<_>>());
        assert!(s.busy_words().iter().all(|&w| w == 0));
    }

    #[test]
    fn allocate_and_deallocate_roundtrip() {
        let mut s = state();
        s.allocate(1, &[2, 0, 3]).unwrap();
        assert_eq!(s.gpus_of(1), Some(&[0, 2, 3][..]));
        assert_eq!(s.owner[2], Some(1));
        assert!(s.is_free(1));
        assert_eq!(s.free_count(), 5);
        assert_eq!(s.busy.to_vec(), vec![0, 2, 3]);

        let released = s.deallocate(1).unwrap();
        assert_eq!(released, vec![0, 2, 3]);
        assert!(s.is_idle());
        assert_eq!(s.free_count(), 8);
    }

    #[test]
    fn conflicting_allocation_rejected_atomically() {
        let mut s = state();
        s.allocate(1, &[0, 1]).unwrap();
        // Second job requests a busy GPU — nothing must change.
        let err = s.allocate(2, &[3, 1]).unwrap_err();
        assert_eq!(err, AllocationError::GpuBusy { gpu: 1, held_by: 1 });
        assert!(s.is_free(3), "failed allocation must not hold GPU 3");
        assert_eq!(s.jobs.len(), 1);
    }

    #[test]
    fn error_cases() {
        let mut s = state();
        assert_eq!(s.allocate(1, &[]), Err(AllocationError::EmptyAllocation));
        assert_eq!(
            s.allocate(1, &[9]),
            Err(AllocationError::GpuOutOfRange { gpu: 9, count: 8 })
        );
        assert_eq!(
            s.allocate(1, &[4, 4]),
            Err(AllocationError::DuplicateGpu(4))
        );
        s.allocate(1, &[4]).unwrap();
        assert_eq!(s.allocate(1, &[5]), Err(AllocationError::JobExists(1)));
        assert_eq!(s.deallocate(7), Err(AllocationError::UnknownJob(7)));
    }

    #[test]
    fn available_graph_shrinks_and_recovers() {
        // The bandwidth among the free GPUs: Preserved BW of allocating
        // nothing.
        let free_bw = |s: &HardwareState| s.topology().bandwidth_among(&s.free_gpus());
        let mut s = state();
        let full_bw = free_bw(&s);
        s.allocate(1, &[0, 3]).unwrap();
        assert_eq!(s.free_gpus(), vec![1, 2, 4, 5, 6, 7]);
        assert!(free_bw(&s) < full_bw);
        s.deallocate(1).unwrap();
        assert_eq!(free_bw(&s), full_bw);
    }

    #[test]
    fn multiple_tenants_coexist() {
        let mut s = state();
        s.allocate(10, &[0, 1]).unwrap();
        s.allocate(11, &[2, 3, 4]).unwrap();
        s.allocate(12, &[7]).unwrap();
        assert_eq!(s.jobs.len(), 3);
        assert_eq!(s.free_gpus(), vec![5, 6]);
        s.deallocate(11).unwrap();
        assert_eq!(s.free_gpus(), vec![2, 3, 4, 5, 6]);
        assert_eq!(s.owner[0], Some(10));
    }

    #[test]
    fn failed_transitions_leave_the_signature_untouched() {
        let mut s = state();
        s.allocate(1, &[0, 1]).unwrap();
        let words = s.busy_words().to_vec();
        assert!(s.allocate(2, &[1]).is_err());
        assert!(s.deallocate(9).is_err());
        assert_eq!(s.busy_words(), words);
    }

    #[test]
    fn signature_identifies_the_free_set_exactly() {
        let mut a = state();
        let mut b = state();
        let idle = a.busy_words().to_vec();
        assert_eq!(idle, b.busy_words(), "idle states agree");

        // Same free *count*, different free *sets* → different words.
        a.allocate(1, &[0, 1]).unwrap();
        b.allocate(1, &[6, 7]).unwrap();
        assert_ne!(a.busy_words(), b.busy_words());
        assert_eq!(a.free_count(), b.free_count());

        // Job identity does not matter, only the occupied set does.
        let mut c = state();
        c.allocate(42, &[1, 0]).unwrap();
        assert_eq!(a.busy_words(), c.busy_words());

        // Releasing returns the state to previously-seen words — the
        // recurrence an allocation cache keys on.
        a.deallocate(1).unwrap();
        assert_eq!(a.busy_words(), idle);
    }

    #[test]
    fn slice_queries_on_unpartitioned_machines_are_identity() {
        let mut s = state();
        s.allocate(1, &[0, 1]).unwrap();
        for v in 0..8 {
            assert_eq!(s.physical_of(v), v);
            assert_eq!(s.co_resident_busy(v), 0);
        }
    }

    #[test]
    fn slice_queries_track_co_residency() {
        use crate::virt::PartitionPlan;
        // GPU 0 → 3 slices (vertices 0,1,2), the rest whole (3..=9).
        let topo = PartitionPlan::new()
            .split(0, 3)
            .apply(&machines::dgx1_v100());
        let mut s = HardwareState::new(topo);
        assert_eq!(s.physical_of(2), 0);
        assert_eq!(s.physical_of(3), 1);

        s.allocate(1, &[0]).unwrap();
        s.allocate(2, &[2, 3]).unwrap();
        // Vertex 1 is free but sees two busy co-resident slices.
        assert_eq!(s.co_resident_busy(1), 2);
        assert_eq!(s.co_resident_busy(0), 1, "excludes itself");
        assert_eq!(s.co_resident_busy(3), 0, "whole GPUs have no co-residents");

        s.deallocate(2).unwrap();
        assert_eq!(s.co_resident_busy(1), 1);
    }

    proptest! {
        /// Alternating random allocations and deallocations never corrupt
        /// the owner map: at every step each GPU is held by at most one job
        /// and job records agree with the owner table.
        #[test]
        fn occupancy_invariants_hold(ops in proptest::collection::vec(
            (0u64..6, proptest::collection::vec(0usize..8, 1..4), any::<bool>()), 1..40)
        ) {
            let mut s = state();
            for (job, gpus, dealloc) in ops {
                if dealloc {
                    let _ = s.deallocate(job);
                } else {
                    let _ = s.allocate(job, &gpus);
                }
                // Invariants.
                let mut counted = 0;
                for g in 0..8 {
                    if let Some(j) = s.owner[g] {
                        counted += 1;
                        prop_assert!(s.gpus_of(j).unwrap().contains(&g));
                    }
                }
                let job_total: usize = (0..6).filter_map(|j| s.gpus_of(j).map(<[usize]>::len)).sum();
                prop_assert_eq!(counted, job_total);
                prop_assert_eq!(s.free_count() + s.busy_count(), 8);
                // The incrementally-maintained busy mask agrees with the
                // owner table (the rescans it replaced).
                let owner_busy: Vec<usize> =
                    (0..8).filter(|&g| s.owner[g].is_some()).collect();
                let owner_busy = BitSet::from_indices(8, &owner_busy);
                prop_assert_eq!(s.busy_words(), owner_busy.as_words());
            }
        }

        /// Hostile GPU lists — out-of-range, repeated and busy GPUs, alone
        /// and mixed — never panic `allocate`. A refusal names the first
        /// fault in input order (checked against a fresh seen-set, the
        /// rule's reference), and leaves the busy mask and every owner as
        /// they were: the in-place seen-set rolls back.
        #[test]
        fn allocate_never_panics_on_token_soup(
            held in proptest::collection::vec(0usize..8, 0..6),
            soup in proptest::collection::vec(0usize..11, 0..10),
        ) {
            let mut s = state();
            for (job, &g) in held.iter().enumerate() {
                let _ = s.allocate(100 + job as u64, &[g]);
            }
            let expected = first_fault(&s, &soup);
            let (busy, owner) = (s.busy.clone(), s.owner.clone());
            match s.allocate(1, &soup) {
                Ok(()) => {
                    prop_assert_eq!(expected, None, "{:?} over {:?}", soup, held);
                    let mut sorted = soup.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(s.gpus_of(1), Some(&sorted[..]));
                    let owner_busy: Vec<usize> =
                        (0..8).filter(|&g| s.owner[g].is_some()).collect();
                    let owner_busy = BitSet::from_indices(8, &owner_busy);
                    prop_assert_eq!(s.busy_words(), owner_busy.as_words());
                }
                Err(e) => {
                    prop_assert_eq!(Some(e), expected, "{:?} over {:?}", soup, held);
                    prop_assert_eq!(&s.busy, &busy);
                    prop_assert_eq!(&s.owner, &owner);
                    prop_assert_eq!(s.gpus_of(1), None);
                }
            }
        }
    }

    /// The first fault of allocating `gpus` to a new job on `s`, in input
    /// order, found with a fresh seen-set: the refusal rule `allocate`
    /// keeps.
    fn first_fault(s: &HardwareState, gpus: &[usize]) -> Option<AllocationError> {
        if gpus.is_empty() {
            return Some(AllocationError::EmptyAllocation);
        }
        let n = s.topology().gpu_count();
        let mut seen = BitSet::new(n);
        gpus.iter().find_map(|&g| {
            if g >= n {
                Some(AllocationError::GpuOutOfRange { gpu: g, count: n })
            } else if !seen.insert(g) {
                Some(AllocationError::DuplicateGpu(g))
            } else {
                s.owner[g].map(|holder| AllocationError::GpuBusy {
                    gpu: g,
                    held_by: holder,
                })
            }
        })
    }
}
