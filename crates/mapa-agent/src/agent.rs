//! The agent: probe → map → decide → actuate, under the state lock.
//!
//! [`Agent`] closes the sim-to-production loop. Each operation takes
//! the exclusive [`crate::StateDir`] lock, probes the machine through
//! the injected [`GpuProbe`], maps the snapshot onto a machine
//! description ([`crate::machine_from_snapshot`]), replays the on-disk
//! ledger *and* the probe-observed occupancy into a fresh
//! [`MapaAllocator`], and only then decides. Actuation is nothing more
//! than an atomic ledger write plus a `CUDA_VISIBLE_DEVICES` string —
//! the agent never touches driver state, so every failure path (probe
//! fault, corrupt ledger, unplaceable request) rolls back to exactly
//! the pre-call state by releasing the lock and writing nothing.
//!
//! Idle detection is threshold-based ([`IDLE_MAX_UTILIZATION_PCT`],
//! [`IDLE_MAX_MEMORY_MIB`]) and deliberately conservative about
//! processes: a *live* pid resident on a GPU keeps it occupied even at 0%
//! utilization (a ghost — think a wedged trainer holding its arena), while
//! a *dead* pid in the probe's process list (a stale accounting entry) is
//! disregarded and its memory discounted.

use crate::ledger::{Lease, Ledger, StateDir};
use crate::map::{machine_from_snapshot, MachineDescription};
use crate::probe::{GpuInfo, GpuProbe, ProbeError};
use mapa_core::scoring::MatchScore;
use mapa_core::{allocation_policy_by_name, AllocatorError, MapaAllocator};
use mapa_workloads::{GpuDemand, JobSpec, Workload};
use std::collections::BTreeSet;
use std::fmt;

/// Synthetic job-id base for GPUs occupied by workloads the ledger does
/// not know about (probe-observed busy devices). Far above any lease id
/// a ledger generation counter will ever reach.
const EXTERNAL_BLOCKER_BASE: u64 = 1 << 62;

/// Agent failures. Every variant leaves the state directory exactly as
/// the failing call found it.
#[derive(Debug)]
pub enum AgentError {
    /// Filesystem trouble inside the state directory.
    StateIo {
        /// State directory path.
        path: String,
        /// What failed.
        message: String,
    },
    /// The ledger exists but cannot be proven intact — truncated,
    /// corrupted, or structurally inconsistent. The agent fails closed.
    LedgerCorrupt {
        /// Ledger path.
        path: String,
        /// What the parser refused.
        reason: String,
    },
    /// The agent lock stayed held by a live process past the timeout.
    LockTimeout {
        /// Lock path.
        path: String,
        /// Holder pid, when the lockfile named one.
        holder: Option<u32>,
    },
    /// The probe failed.
    Probe(ProbeError),
    /// The allocator rejected the request outright (impossible demand).
    Allocator(String),
    /// The machine cannot host the request right now.
    Unplaceable {
        /// GPUs requested.
        requested: usize,
        /// GPUs currently free (unleased and probe-idle).
        free: usize,
    },
    /// No lease with this id exists in the ledger.
    UnknownLease(u64),
    /// No allocation policy with this name exists.
    UnknownPolicy(String),
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::StateIo { path, message } => {
                write!(f, "state directory {path}: {message}")
            }
            AgentError::LedgerCorrupt { path, reason } => write!(
                f,
                "ledger {path} is corrupt ({reason}); refusing to act on it — \
                 repair or remove the file to reset agent state"
            ),
            AgentError::LockTimeout { path, holder } => match holder {
                Some(pid) => write!(f, "agent lock {path} held by live pid {pid}"),
                None => write!(f, "agent lock {path} held past timeout"),
            },
            AgentError::Probe(e) => write!(f, "{e}"),
            AgentError::Allocator(m) => write!(f, "allocator rejected request: {m}"),
            AgentError::Unplaceable { requested, free } => write!(
                f,
                "cannot place {requested} GPU(s) now: {free} free on this machine"
            ),
            AgentError::UnknownLease(id) => write!(f, "no lease {id} in the ledger"),
            AgentError::UnknownPolicy(name) => write!(
                f,
                "unknown allocation policy '{name}' \
                 (try: baseline, topo-aware, greedy, preserve, effbw-greedy)"
            ),
        }
    }
}

impl std::error::Error for AgentError {}

impl From<ProbeError> for AgentError {
    fn from(e: ProbeError) -> Self {
        AgentError::Probe(e)
    }
}

impl From<AllocatorError> for AgentError {
    fn from(e: AllocatorError) -> Self {
        AgentError::Allocator(e.to_string())
    }
}

/// Utilization at or below this percentage is idle noise: real drivers
/// report occasional blips on completely free devices, so exact zero is
/// the wrong test. Processes are handled separately and more strictly —
/// see [`assess_occupancy`].
pub const IDLE_MAX_UTILIZATION_PCT: u32 = 5;

/// Unattributed used memory at or below this many MiB is idle noise
/// (driver reservations, display buffers).
pub const IDLE_MAX_MEMORY_MIB: u64 = 256;

/// Why a GPU is (or is not) allocatable, from the probe's evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Occupancy {
    /// Allocatable: nothing live on the device beyond idle noise.
    Idle,
    /// Compute utilization above the idle threshold.
    Utilized {
        /// Observed utilization, percent.
        pct: u32,
    },
    /// A live process is resident — even at 0% utilization the device
    /// is occupied (the ghost-process case).
    GhostProcess {
        /// The resident live pid.
        pid: u32,
        /// Memory it holds, MiB.
        memory_mib: u64,
    },
    /// No live process, utilization idle, but unattributed memory above
    /// the threshold — something opaque holds the device.
    MemoryHeld {
        /// Unattributed used memory, MiB.
        mib: u64,
    },
}

impl Occupancy {
    /// Whether the device is allocatable.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        matches!(self, Occupancy::Idle)
    }
}

/// Classifies one GPU's occupancy from probe evidence (see the
/// [module docs](self) for the ghost/stale distinction). `alive`
/// decides pid liveness; dead residents are discounted entirely.
pub fn assess_occupancy(gpu: &GpuInfo, alive: impl Fn(u32) -> bool) -> Occupancy {
    if gpu.utilization_pct > IDLE_MAX_UTILIZATION_PCT {
        return Occupancy::Utilized {
            pct: gpu.utilization_pct,
        };
    }
    let mut dead_mib = 0;
    let mut ghost = None;
    for p in &gpu.processes {
        if alive(p.pid) {
            let g = ghost.get_or_insert((p.pid, 0));
            g.1 += p.memory_mib;
        } else {
            dead_mib += p.memory_mib;
        }
    }
    if let Some((pid, memory_mib)) = ghost {
        return Occupancy::GhostProcess { pid, memory_mib };
    }
    let unattributed = gpu.memory_used_mib.saturating_sub(dead_mib);
    if unattributed > IDLE_MAX_MEMORY_MIB {
        return Occupancy::MemoryHeld { mib: unattributed };
    }
    Occupancy::Idle
}

/// One allocation request: how many whole GPUs, under which workload
/// annotation (the policies read its bandwidth sensitivity), tagged how.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocateRequest {
    /// Whole GPUs requested.
    pub gpus: usize,
    /// Workload annotation carried into the [`JobSpec`].
    pub workload: Workload,
    /// Free-form lease tag (newlines are replaced on write).
    pub tag: String,
}

impl AllocateRequest {
    /// A request for `gpus` whole GPUs with the paper's most
    /// bandwidth-sensitive workload annotation and an empty tag.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            gpus,
            workload: Workload::Vgg16,
            tag: String::new(),
        }
    }

    /// Sets the lease tag (builder style).
    #[must_use]
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// The exact [`JobSpec`] the agent hands the allocator for this
    /// request under lease id `id`. Public so differential tests can
    /// drive a reference [`MapaAllocator`] with the identical job.
    #[must_use]
    pub fn to_job(&self, id: u64) -> JobSpec {
        JobSpec::new(id, GpuDemand::Whole(self.gpus), self.workload)
    }
}

/// A granted placement: the lease plus everything needed to actuate.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Lease id recorded in the ledger (release with it).
    pub lease_id: u64,
    /// Granted GPU indices, ascending.
    pub gpus: Vec<usize>,
    /// Ready-to-export device mask, e.g. `"0,2,3"`.
    pub cuda_visible_devices: String,
    /// Allocation policy that chose the set.
    pub policy: String,
    /// The machine description the decision was made against.
    pub machine: MachineDescription,
    /// The paper's match scores for the chosen set.
    pub score: MatchScore,
}

/// Per-GPU line of a [`StatusReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpuStatus {
    /// Device index.
    pub index: usize,
    /// Lease holding this device, if any.
    pub leased_by: Option<u64>,
    /// Probe-evidence occupancy classification.
    pub occupancy: Occupancy,
}

impl GpuStatus {
    /// Allocatable: unleased and probe-idle.
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.leased_by.is_none() && self.occupancy.is_idle()
    }
}

/// What [`Agent::status`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// Probe backend name.
    pub source: String,
    /// Probed hostname.
    pub hostname: String,
    /// Machine description (matched or synthesized).
    pub machine: MachineDescription,
    /// Per-GPU state, ascending by index.
    pub gpus: Vec<GpuStatus>,
    /// Live leases from the ledger.
    pub leases: Vec<Lease>,
}

impl StatusReport {
    /// Indices of allocatable GPUs.
    #[must_use]
    pub fn free_gpus(&self) -> Vec<usize> {
        self.gpus
            .iter()
            .filter(|g| g.is_free())
            .map(|g| g.index)
            .collect()
    }
}

/// The actuation front end: one probe, one state directory, one policy.
pub struct Agent<P: GpuProbe> {
    probe: P,
    state: StateDir,
    policy: String,
}

impl<P: GpuProbe> Agent<P> {
    /// An agent over `probe` coordinating through `state`, with the
    /// effbw-greedy policy (the paper's strongest) and default idle
    /// thresholds.
    #[must_use]
    pub fn new(probe: P, state: StateDir) -> Self {
        Self {
            probe,
            state,
            policy: "effbw-greedy".to_string(),
        }
    }

    /// Selects the allocation policy by name (builder style).
    ///
    /// # Errors
    /// [`AgentError::UnknownPolicy`] for names
    /// [`allocation_policy_by_name`] rejects.
    pub fn with_policy(mut self, name: &str) -> Result<Self, AgentError> {
        if allocation_policy_by_name(name).is_none() {
            return Err(AgentError::UnknownPolicy(name.to_string()));
        }
        self.policy = name.to_string();
        Ok(self)
    }

    /// The coordination directory (reclaim counters live here).
    #[must_use]
    pub fn state_dir(&self) -> &StateDir {
        &self.state
    }

    /// The active policy name.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        &self.policy
    }

    fn fresh_allocator(&self, machine: &MachineDescription) -> MapaAllocator {
        let policy =
            allocation_policy_by_name(&self.policy).expect("policy name validated in with_policy");
        MapaAllocator::new(machine.topology.clone(), policy)
    }

    /// Probes the machine and maps it, without locking or reading the
    /// ledger (the `probe` subcommand).
    ///
    /// # Errors
    /// Probe and mapping failures.
    pub fn probe_machine(
        &mut self,
    ) -> Result<(crate::probe::ProbeSnapshot, MachineDescription), AgentError> {
        let snapshot = self.probe.snapshot()?;
        let machine = machine_from_snapshot(&snapshot)?;
        Ok((snapshot, machine))
    }

    /// Replays ledger leases (dead-pid leases pruned) and probe-observed
    /// busy GPUs into a fresh allocator. Returns the allocator and the
    /// pruned ledger.
    fn occupancy_view(
        &self,
        machine: &MachineDescription,
        snapshot: &crate::probe::ProbeSnapshot,
        mut ledger: Ledger,
    ) -> Result<(MapaAllocator, Ledger), AgentError> {
        ledger.leases.retain(|l| self.state.pid_alive(l.pid));
        let mut allocator = self.fresh_allocator(machine);
        let n = machine.topology.gpu_count();
        let mut leased = BTreeSet::new();
        for lease in &ledger.leases {
            // Leases can outlive a machine reshape (e.g. a GPU drained
            // out); drop any that no longer fit instead of failing the
            // whole view.
            if lease.gpus.iter().any(|&g| g >= n) {
                continue;
            }
            allocator.adopt(lease.id, &lease.gpus)?;
            leased.extend(lease.gpus.iter().copied());
        }
        for gpu in &snapshot.gpus {
            if gpu.index >= n || leased.contains(&gpu.index) {
                continue;
            }
            let occ = assess_occupancy(gpu, |pid| self.state.pid_alive(pid));
            if !occ.is_idle() {
                allocator.adopt(EXTERNAL_BLOCKER_BASE + gpu.index as u64, &[gpu.index])?;
            }
        }
        Ok((allocator, ledger))
    }

    /// Probes, decides, and (on success) records a lease — the
    /// `allocate` subcommand. Any failure before the final atomic
    /// ledger write leaves the state directory untouched and the lock
    /// released.
    ///
    /// # Errors
    /// Lock, probe, ledger, and placement failures; see [`AgentError`].
    pub fn allocate(&mut self, request: &AllocateRequest) -> Result<Placement, AgentError> {
        let guard = self.state.lock()?;
        // The guard's Drop releases the lock on every early return
        // below — a probe fault mid-allocate must not wedge the dir.
        let snapshot = self.probe.snapshot()?;
        let machine = machine_from_snapshot(&snapshot)?;
        let ledger = self.state.read_ledger(&guard)?;
        let (mut allocator, mut ledger) = self.occupancy_view(&machine, &snapshot, ledger)?;

        let lease_id = ledger.generation + 1;
        let job = request.to_job(lease_id);
        let outcome = allocator
            .try_allocate(&job)?
            .ok_or_else(|| AgentError::Unplaceable {
                requested: request.gpus,
                free: allocator.state().free_count(),
            })?;

        ledger.generation = lease_id;
        ledger.leases.push(Lease {
            id: lease_id,
            pid: self.state.pid(),
            created_unix: StateDir::now_unix(),
            gpus: outcome.gpus.clone(),
            tag: request.tag.replace(['\n', '\r'], " "),
        });
        self.state.write_ledger(&guard, &ledger)?;
        drop(guard);

        let cuda_visible_devices = outcome
            .gpus
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        Ok(Placement {
            lease_id,
            gpus: outcome.gpus,
            cuda_visible_devices,
            policy: self.policy.clone(),
            machine,
            score: outcome.score,
        })
    }

    /// Reports machine, ledger, and per-GPU occupancy — the `status`
    /// subcommand. Read-only: the ledger on disk is not modified (dead
    /// leases are *reported* with their recorded pids, not pruned).
    ///
    /// # Errors
    /// Lock, probe, and ledger failures.
    pub fn status(&mut self) -> Result<StatusReport, AgentError> {
        let guard = self.state.lock()?;
        let snapshot = self.probe.snapshot()?;
        let machine = machine_from_snapshot(&snapshot)?;
        let ledger = self.state.read_ledger(&guard)?;
        drop(guard);

        let gpus = snapshot
            .gpus
            .iter()
            .map(|g| GpuStatus {
                index: g.index,
                leased_by: ledger.lease_of_gpu(g.index).map(|l| l.id),
                occupancy: assess_occupancy(g, |pid| self.state.pid_alive(pid)),
            })
            .collect();
        Ok(StatusReport {
            source: self.probe.source(),
            hostname: snapshot.hostname,
            machine,
            gpus,
            leases: ledger.leases,
        })
    }

    /// Drops lease `lease_id` from the ledger, returning its GPUs — the
    /// `release` subcommand.
    ///
    /// # Errors
    /// [`AgentError::UnknownLease`] when no such lease exists; lock and
    /// ledger failures.
    pub fn release(&mut self, lease_id: u64) -> Result<Vec<usize>, AgentError> {
        let guard = self.state.lock()?;
        let mut ledger = self.state.read_ledger(&guard)?;
        let at = ledger
            .leases
            .iter()
            .position(|l| l.id == lease_id)
            .ok_or(AgentError::UnknownLease(lease_id))?;
        let lease = ledger.leases.remove(at);
        ledger.generation += 1;
        self.state.write_ledger(&guard, &ledger)?;
        Ok(lease.gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake::FakeProbe;
    use crate::probe::ProcessInfo;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mapa-agent-agent-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn gpu_with(util: u32, used_mib: u64, processes: Vec<ProcessInfo>) -> GpuInfo {
        GpuInfo {
            index: 0,
            model: "Tesla V100-SXM2-16GB".into(),
            memory_total_mib: 16_160,
            memory_used_mib: used_mib,
            utilization_pct: util,
            numa_node: Some(0),
            processes,
        }
    }

    #[test]
    fn occupancy_classification_covers_the_ghost_and_stale_cases() {
        let alive = |pid: u32| pid == 42;

        // Clean device: idle.
        assert!(assess_occupancy(&gpu_with(0, 0, vec![]), alive).is_idle());
        // Driver noise under thresholds: still idle.
        assert!(assess_occupancy(&gpu_with(3, 200, vec![]), alive).is_idle());
        // Busy compute: utilized.
        assert_eq!(
            assess_occupancy(&gpu_with(90, 4000, vec![]), alive),
            Occupancy::Utilized { pct: 90 }
        );
        // Ghost: live pid holding memory at 0% utilization — occupied.
        let ghost = gpu_with(
            0,
            4000,
            vec![ProcessInfo {
                pid: 42,
                memory_mib: 4000,
            }],
        );
        assert_eq!(
            assess_occupancy(&ghost, alive),
            Occupancy::GhostProcess {
                pid: 42,
                memory_mib: 4000
            }
        );
        // Stale accounting entry: dead pid, memory discounted — idle.
        let stale = gpu_with(
            0,
            4000,
            vec![ProcessInfo {
                pid: 666,
                memory_mib: 4000,
            }],
        );
        assert!(assess_occupancy(&stale, alive).is_idle());
        // Unattributed memory above threshold: held.
        assert_eq!(
            assess_occupancy(&gpu_with(0, 9000, vec![]), alive),
            Occupancy::MemoryHeld { mib: 9000 }
        );
    }

    #[test]
    fn allocate_status_release_round_trip() {
        let dir = tmpdir("round-trip");
        let state = StateDir::new(&dir).unwrap();
        let mut agent = Agent::new(FakeProbe::dgx1_v100(), state);

        let placement = agent
            .allocate(&AllocateRequest::new(2).with_tag("train"))
            .unwrap();
        assert_eq!(placement.gpus.len(), 2);
        assert_eq!(
            placement.machine.matched_profile.as_deref(),
            Some("DGX-1 V100")
        );
        assert_eq!(
            placement.cuda_visible_devices,
            placement
                .gpus
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );

        let status = agent.status().unwrap();
        assert_eq!(status.leases.len(), 1);
        assert_eq!(status.leases[0].tag, "train");
        assert_eq!(status.free_gpus().len(), 6);
        for g in &placement.gpus {
            assert_eq!(status.gpus[*g].leased_by, Some(placement.lease_id));
        }

        let released = agent.release(placement.lease_id).unwrap();
        assert_eq!(released, placement.gpus);
        assert_eq!(agent.status().unwrap().free_gpus().len(), 8);
        assert!(matches!(
            agent.release(placement.lease_id),
            Err(AgentError::UnknownLease(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_observed_busy_gpus_are_not_allocated() {
        let dir = tmpdir("busy");
        // GPUs 0 and 1 busy (one utilized, one ghost): a 7-GPU request
        // cannot fit; a 6-GPU one lands on the remaining devices.
        let probe = FakeProbe::dgx1_v100()
            .with_utilization(0, 80)
            .with_process(1, 4242, 2000);
        let alive: crate::ledger::LivenessFn = Arc::new(|pid| pid == 4242 || pid == 7777);
        let state = StateDir::new(&dir)
            .unwrap()
            .with_pid(7777)
            .with_liveness(alive);
        let mut agent = Agent::new(probe, state);

        match agent.allocate(&AllocateRequest::new(7)) {
            Err(AgentError::Unplaceable {
                requested: 7,
                free: 6,
            }) => {}
            other => panic!("expected Unplaceable, got {other:?}"),
        }
        let placement = agent.allocate(&AllocateRequest::new(6)).unwrap();
        assert!(!placement.gpus.contains(&0));
        assert!(!placement.gpus.contains(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_fault_mid_allocate_rolls_back_the_lock_and_ledger() {
        let dir = tmpdir("fault");
        let state = StateDir::new(&dir).unwrap();
        let probe = FakeProbe::dgx1_v100().fail_on_snapshot(2);
        let mut agent = Agent::new(probe, state);

        let first = agent.allocate(&AllocateRequest::new(1)).unwrap();
        let err = agent.allocate(&AllocateRequest::new(1)).unwrap_err();
        assert!(
            matches!(err, AgentError::Probe(ProbeError::Injected(_))),
            "{err}"
        );
        // Lock released, ledger unchanged: the next call proceeds and
        // sees exactly one prior lease.
        let status = agent.status().unwrap();
        assert_eq!(status.leases.len(), 1);
        assert_eq!(status.leases[0].id, first.lease_id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_pid_leases_are_pruned_from_the_allocation_view() {
        let dir = tmpdir("dead-lease");
        let alive: crate::ledger::LivenessFn = Arc::new(|pid| pid == 1000);
        let mk_state = |pid: u32| {
            StateDir::new(&dir)
                .unwrap()
                .with_pid(pid)
                .with_liveness(alive.clone())
        };
        // A "crashed" agent (pid 600, dead per the registry) leased 4.
        let mut crashed = Agent::new(FakeProbe::dgx1_v100(), mk_state(600));
        let p = crashed.allocate(&AllocateRequest::new(4)).unwrap();
        // A live agent can still place 8: the dead lease is pruned.
        let mut live = Agent::new(FakeProbe::dgx1_v100(), mk_state(1000));
        let placement = live.allocate(&AllocateRequest::new(8)).unwrap();
        assert_eq!(placement.gpus, (0..8).collect::<Vec<_>>());
        // The written ledger no longer carries the dead lease.
        let status = live.status().unwrap();
        assert_eq!(status.leases.len(), 1);
        assert!(status.leases.iter().all(|l| l.id != p.lease_id));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
