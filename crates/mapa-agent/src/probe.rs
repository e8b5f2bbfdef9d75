//! The hardware probe seam: what the agent knows about a physical box.
//!
//! Everything downstream of the agent — topology mapping, idle
//! detection, allocation, actuation — consumes one [`ProbeSnapshot`]
//! produced by a [`GpuProbe`] implementation. The trait is the whole
//! point: the production probe shells out to `nvidia-smi`
//! ([`crate::SmiProbe`]) while tests and CI drive the identical code
//! path through the deterministic, fault-injectable
//! [`crate::FakeProbe`]. No behavior of the agent is reachable only
//! with real hardware.

use std::fmt;

/// One process resident on a GPU, as NVML-style accounting reports it.
///
/// The probe reports *residency* (the process holds GPU memory), not
/// health: the pid may be long dead (a stale accounting entry the agent
/// must disregard) or alive but idle (a *ghost* — memory held at 0%
/// utilization — which must keep the GPU non-idle).
/// [`crate::assess_occupancy`] draws that line, with pid liveness injected
/// so tests can model crashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Process id on the host.
    pub pid: u32,
    /// GPU memory the process holds, MiB.
    pub memory_mib: u64,
}

/// Everything the probe learned about one GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuInfo {
    /// Device index, as `nvidia-smi` numbers it (PCI bus order).
    pub index: usize,
    /// Marketing model string, e.g. `Tesla V100-SXM2-16GB`. The mapper
    /// uses it to pick the NVLink generation (`P100` ⇒ v1, else v2).
    pub model: String,
    /// Total device memory, MiB.
    pub memory_total_mib: u64,
    /// Device memory in use, MiB (all residents combined).
    pub memory_used_mib: u64,
    /// Instantaneous compute utilization, percent.
    pub utilization_pct: u32,
    /// NUMA node / CPU socket affinity when the probe knows it.
    pub numa_node: Option<usize>,
    /// Compute processes resident on the device.
    pub processes: Vec<ProcessInfo>,
}

/// One probe pass over a machine: per-GPU details plus the inter-GPU
/// NVLink brick matrix (`bricks[a][b]` = bonded NVLink bricks between
/// devices `a` and `b`; 0 = PCIe-class path only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSnapshot {
    /// Hostname the snapshot was taken on (diagnostic only).
    pub hostname: String,
    /// Per-device details, ascending by [`GpuInfo::index`].
    pub gpus: Vec<GpuInfo>,
    /// Symmetric NVLink brick-count matrix with a zero diagonal.
    pub nvlink_bricks: Vec<Vec<u8>>,
}

impl ProbeSnapshot {
    /// Number of devices in the snapshot.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Structural sanity of a snapshot: devices indexed `0..n` in
    /// order, and a square, symmetric, zero-diagonal brick matrix.
    /// The mapper refuses malformed snapshots instead of guessing.
    ///
    /// # Errors
    /// [`ProbeError::Malformed`] naming the first problem found.
    pub fn validate(&self) -> Result<(), ProbeError> {
        let n = self.gpus.len();
        if n == 0 {
            return Err(ProbeError::Malformed("snapshot has no GPUs".into()));
        }
        for (i, gpu) in self.gpus.iter().enumerate() {
            if gpu.index != i {
                return Err(ProbeError::Malformed(format!(
                    "GPU at position {i} reports index {}",
                    gpu.index
                )));
            }
        }
        if self.nvlink_bricks.len() != n {
            return Err(ProbeError::Malformed(format!(
                "brick matrix has {} rows for {n} GPUs",
                self.nvlink_bricks.len()
            )));
        }
        for (i, row) in self.nvlink_bricks.iter().enumerate() {
            if row.len() != n {
                return Err(ProbeError::Malformed(format!(
                    "brick matrix row {i} has {} cells for {n} GPUs",
                    row.len()
                )));
            }
            if row[i] != 0 {
                return Err(ProbeError::Malformed(format!(
                    "brick matrix diagonal [{i}][{i}] is {}, expected 0",
                    row[i]
                )));
            }
            for (j, &b) in row.iter().enumerate().skip(i + 1) {
                if b != self.nvlink_bricks[j][i] {
                    return Err(ProbeError::Malformed(format!(
                        "brick matrix asymmetric at [{i}][{j}]"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Probe failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// No probe backend on this host (e.g. `nvidia-smi` not installed).
    /// The message says what was tried and suggests the fake probe.
    Unavailable(String),
    /// The backend answered but its output could not be understood.
    Malformed(String),
    /// A fault injected by [`crate::FakeProbe`] for testing.
    Injected(String),
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Unavailable(m) => write!(f, "probe unavailable: {m}"),
            ProbeError::Malformed(m) => write!(f, "probe output malformed: {m}"),
            ProbeError::Injected(m) => write!(f, "injected probe fault: {m}"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// A source of [`ProbeSnapshot`]s.
///
/// `snapshot` takes `&mut self` so implementations can count calls
/// (fault injection) or cache handles (a future NVML binding).
pub trait GpuProbe {
    /// Short backend name for reports (`"fake:DGX-1 V100"`, `"nvidia-smi"`).
    fn source(&self) -> String;

    /// Takes one probe pass over the machine.
    ///
    /// # Errors
    /// Any [`ProbeError`]; the agent treats a failure mid-operation as
    /// grounds to roll back (locks released, no ledger mutation).
    fn snapshot(&mut self) -> Result<ProbeSnapshot, ProbeError>;
}

/// A boxed probe is a probe, so a front end can pick its backend at run
/// time (`Agent<Box<dyn GpuProbe>>`).
impl<P: GpuProbe + ?Sized> GpuProbe for Box<P> {
    fn source(&self) -> String {
        (**self).source()
    }

    fn snapshot(&mut self) -> Result<ProbeSnapshot, ProbeError> {
        (**self).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(i: usize) -> GpuInfo {
        GpuInfo {
            index: i,
            model: "Test GPU".into(),
            memory_total_mib: 16000,
            memory_used_mib: 0,
            utilization_pct: 0,
            numa_node: None,
            processes: Vec::new(),
        }
    }

    #[test]
    fn validate_accepts_well_formed_snapshots() {
        let snap = ProbeSnapshot {
            hostname: "host".into(),
            gpus: vec![gpu(0), gpu(1)],
            nvlink_bricks: vec![vec![0, 2], vec![2, 0]],
        };
        assert!(snap.validate().is_ok());
    }

    #[test]
    fn validate_rejects_structural_problems() {
        let empty = ProbeSnapshot {
            hostname: "h".into(),
            gpus: vec![],
            nvlink_bricks: vec![],
        };
        assert!(matches!(empty.validate(), Err(ProbeError::Malformed(_))));

        let misindexed = ProbeSnapshot {
            hostname: "h".into(),
            gpus: vec![gpu(0), gpu(2)],
            nvlink_bricks: vec![vec![0, 1], vec![1, 0]],
        };
        assert!(misindexed.validate().is_err());

        let ragged = ProbeSnapshot {
            hostname: "h".into(),
            gpus: vec![gpu(0), gpu(1)],
            nvlink_bricks: vec![vec![0, 1], vec![1]],
        };
        assert!(ragged.validate().is_err());

        let asymmetric = ProbeSnapshot {
            hostname: "h".into(),
            gpus: vec![gpu(0), gpu(1)],
            nvlink_bricks: vec![vec![0, 1], vec![2, 0]],
        };
        assert!(asymmetric.validate().is_err());

        let diagonal = ProbeSnapshot {
            hostname: "h".into(),
            gpus: vec![gpu(0), gpu(1)],
            nvlink_bricks: vec![vec![1, 1], vec![1, 0]],
        };
        assert!(diagonal.validate().is_err());
    }
}
