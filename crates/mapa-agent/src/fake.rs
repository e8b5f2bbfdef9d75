//! A deterministic, fault-injectable [`GpuProbe`] for tests and CI.
//!
//! [`FakeProbe`] renders the snapshot a healthy `nvidia-smi` would
//! produce for any [`Topology`] (brick counts from the link classes,
//! NUMA nodes from the socket map), then lets tests perturb it:
//! busy GPUs, ghost processes, stale process entries, and snapshot
//! calls that fail on demand. Every agent behavior — including the
//! failure modes — is pinned offline through this type.

use crate::probe::{GpuInfo, GpuProbe, ProbeError, ProbeSnapshot, ProcessInfo};
use mapa_topology::{machines, LinkType, Topology};

/// Deterministic probe that replays a configurable snapshot.
#[derive(Debug, Clone)]
pub struct FakeProbe {
    label: String,
    snapshot: ProbeSnapshot,
    calls: u64,
    fail_on_calls: Vec<u64>,
}

impl FakeProbe {
    /// A probe that reports `machine` with every GPU idle: brick counts
    /// derived from the machine's link classes (double ⇒ 2, single ⇒ 1,
    /// PCIe ⇒ 0) and NUMA nodes from its socket map.
    #[must_use]
    pub fn from_machine(machine: &Topology, model: &str, memory_total_mib: u64) -> Self {
        let n = machine.gpu_count();
        let gpus = (0..n)
            .map(|i| GpuInfo {
                index: i,
                model: model.to_string(),
                memory_total_mib,
                memory_used_mib: 0,
                utilization_pct: 0,
                numa_node: Some(machine.socket_of(i)),
                processes: Vec::new(),
            })
            .collect();
        let mut bricks = vec![vec![0u8; n]; n];
        for (a, row) in bricks.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                if a == b {
                    continue;
                }
                *cell = match machine.link_type(a, b) {
                    LinkType::DoubleNvLink2 => 2,
                    LinkType::SingleNvLink2 | LinkType::SingleNvLink1 => 1,
                    LinkType::Pcie => 0,
                };
            }
        }
        Self {
            label: machine.name().to_string(),
            snapshot: ProbeSnapshot {
                hostname: format!("fake-{}", slug(machine.name())),
                gpus,
                nvlink_bricks: bricks,
            },
            calls: 0,
            fail_on_calls: Vec::new(),
        }
    }

    /// The paper's testbed: a healthy 8-GPU DGX-1 V100.
    #[must_use]
    pub fn dgx1_v100() -> Self {
        Self::from_machine(&machines::dgx1_v100(), "Tesla V100-SXM2-16GB", 16_160)
    }

    /// Sets GPU `gpu`'s compute utilization (a busy device).
    ///
    /// # Panics
    /// Panics if `gpu` is out of range.
    #[must_use]
    pub fn with_utilization(mut self, gpu: usize, pct: u32) -> Self {
        self.snapshot.gpus[gpu].utilization_pct = pct;
        self
    }

    /// Sets GPU `gpu`'s used memory without attributing it to a process
    /// (driver-held memory).
    ///
    /// # Panics
    /// Panics if `gpu` is out of range.
    #[must_use]
    pub fn with_memory_used(mut self, gpu: usize, mib: u64) -> Self {
        self.snapshot.gpus[gpu].memory_used_mib = mib;
        self
    }

    /// Adds a resident compute process on GPU `gpu` and charges its
    /// memory to the device. Combine with [`FakeProbe::with_utilization`]
    /// for an actively-computing tenant; without it, the process is a
    /// *ghost* — memory held at 0% utilization — which the agent must
    /// still treat as occupying the GPU.
    ///
    /// # Panics
    /// Panics if `gpu` is out of range.
    #[must_use]
    pub fn with_process(mut self, gpu: usize, pid: u32, memory_mib: u64) -> Self {
        let g = &mut self.snapshot.gpus[gpu];
        g.processes.push(ProcessInfo { pid, memory_mib });
        g.memory_used_mib += memory_mib;
        self
    }

    /// Makes the `nth` call to [`GpuProbe::snapshot`] (1-based) fail
    /// with [`ProbeError::Injected`]. May be called repeatedly to fail
    /// several calls; other calls succeed.
    #[must_use]
    pub fn fail_on_snapshot(mut self, nth: u64) -> Self {
        self.fail_on_calls.push(nth);
        self
    }

    /// How many times [`GpuProbe::snapshot`] has been called.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl GpuProbe for FakeProbe {
    fn source(&self) -> String {
        format!("fake:{}", self.label)
    }

    fn snapshot(&mut self) -> Result<ProbeSnapshot, ProbeError> {
        self.calls += 1;
        if self.fail_on_calls.contains(&self.calls) {
            return Err(ProbeError::Injected(format!(
                "snapshot call {} configured to fail",
                self.calls
            )));
        }
        Ok(self.snapshot.clone())
    }
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx_fake_renders_the_testbed_brick_matrix() {
        let mut probe = FakeProbe::dgx1_v100();
        let snap = probe.snapshot().unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.gpu_count(), 8);
        // Fig. 1c worked pairs: 0-3 double, 0-1 single, 0-5 PCIe.
        assert_eq!(snap.nvlink_bricks[0][3], 2);
        assert_eq!(snap.nvlink_bricks[0][1], 1);
        assert_eq!(snap.nvlink_bricks[0][5], 0);
        // NUMA split mirrors the two quads.
        assert_eq!(snap.gpus[0].numa_node, Some(0));
        assert_eq!(snap.gpus[7].numa_node, Some(1));
    }

    #[test]
    fn fault_injection_fails_exactly_the_configured_calls() {
        let mut probe = FakeProbe::dgx1_v100().fail_on_snapshot(2);
        assert!(probe.snapshot().is_ok());
        assert!(matches!(probe.snapshot(), Err(ProbeError::Injected(_))));
        assert!(probe.snapshot().is_ok());
        assert_eq!(probe.calls(), 3);
    }

    #[test]
    fn perturbations_accumulate() {
        let mut probe = FakeProbe::dgx1_v100()
            .with_utilization(1, 85)
            .with_process(1, 4242, 2000)
            .with_process(3, 99, 512)
            .with_memory_used(5, 300);
        let snap = probe.snapshot().unwrap();
        assert_eq!(snap.gpus[1].utilization_pct, 85);
        assert_eq!(snap.gpus[1].memory_used_mib, 2000);
        assert_eq!(snap.gpus[1].processes.len(), 1);
        // GPU 3: ghost shape — memory held, zero utilization.
        assert_eq!(snap.gpus[3].utilization_pct, 0);
        assert_eq!(snap.gpus[3].memory_used_mib, 512);
        assert_eq!(snap.gpus[5].memory_used_mib, 300);
        assert!(snap.gpus[5].processes.is_empty());
    }
}
