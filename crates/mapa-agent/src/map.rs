//! Probe snapshot → `mapa-topology` machine description.
//!
//! The mapper turns the NVLink brick matrix of a [`ProbeSnapshot`] into
//! a [`Topology`] the allocator can mine. Brick counts map onto the
//! paper's link classes through [`topology_from_bricks`] (the NVLink
//! generation from the GPU model string: `P100` on every GPU ⇒ v1,
//! anything newer ⇒ v2 — the two generations the link-bandwidth table
//! distinguishes), sockets come from the probed NUMA nodes, and the
//! result is matched structurally against every built-in machine profile.
//! A match adopts the built-in description wholesale (name, sockets,
//! links), so an agent on a real DGX-1 V100 places jobs with *exactly* the
//! machine description the simulator and the paper's evaluation use;
//! anything else gets a synthesized description named after the host.

use crate::probe::{ProbeError, ProbeSnapshot};
use mapa_topology::parse::{topology_from_bricks, NvlinkGeneration};
use mapa_topology::{machines, Topology};

/// A machine description derived from one probe snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDescription {
    /// The machine the allocator will mine.
    pub topology: Topology,
    /// Name of the built-in profile this machine matched structurally,
    /// if any (e.g. `"DGX-1 V100"`); `None` for synthesized machines.
    pub matched_profile: Option<String>,
}

impl MachineDescription {
    /// Whether the description was synthesized (no profile matched).
    #[must_use]
    pub fn is_synthesized(&self) -> bool {
        self.matched_profile.is_none()
    }
}

/// Maps a snapshot onto a machine description (see module docs).
///
/// # Errors
/// [`ProbeError::Malformed`] when the snapshot fails
/// [`ProbeSnapshot::validate`].
pub fn machine_from_snapshot(snapshot: &ProbeSnapshot) -> Result<MachineDescription, ProbeError> {
    snapshot.validate()?;
    let n = snapshot.gpu_count();
    let pascal = snapshot
        .gpus
        .iter()
        .all(|g| g.model.to_ascii_uppercase().contains("P100"));
    let generation = if pascal {
        NvlinkGeneration::V1
    } else {
        NvlinkGeneration::V2
    };

    // Sockets: probed NUMA nodes, renumbered densely in first-seen
    // order; unknown affinity collapses to one socket.
    let sockets = if snapshot.gpus.iter().all(|g| g.numa_node.is_some()) {
        dense_ranks(
            &snapshot
                .gpus
                .iter()
                .map(|g| g.numa_node.expect("checked above"))
                .collect::<Vec<_>>(),
        )
    } else {
        vec![0; n]
    };

    let probed = topology_from_bricks(
        format!("{}-{}gpu", snapshot.hostname, n),
        &snapshot.nvlink_bricks,
        sockets,
        generation,
    );
    for profile in machines::all_machines() {
        if structurally_equal(&probed, &profile) {
            return Ok(MachineDescription {
                matched_profile: Some(profile.name().to_string()),
                topology: profile,
            });
        }
    }
    Ok(MachineDescription {
        topology: probed,
        matched_profile: None,
    })
}

/// Structural identity under the identity vertex labeling: same device
/// count, identical link class for every pair, and the same socket
/// partition (up to socket renaming).
#[must_use]
pub fn structurally_equal(a: &Topology, b: &Topology) -> bool {
    let n = a.gpu_count();
    if n != b.gpu_count() {
        return false;
    }
    for x in 0..n {
        for y in (x + 1)..n {
            if a.link_type(x, y) != b.link_type(x, y) {
                return false;
            }
        }
    }
    let sa = dense_ranks(&(0..n).map(|g| a.socket_of(g)).collect::<Vec<_>>());
    let sb = dense_ranks(&(0..n).map(|g| b.socket_of(g)).collect::<Vec<_>>());
    sa == sb
}

/// Renumbers values densely in first-seen order: `[7, 7, 3, 7]` → `[0, 0, 1, 0]`.
fn dense_ranks(values: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::new();
    values
        .iter()
        .map(|&v| {
            if let Some(r) = order.iter().position(|&o| o == v) {
                r
            } else {
                order.push(v);
                order.len() - 1
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake::FakeProbe;
    use crate::probe::GpuProbe;
    use mapa_graph::Graph;
    use mapa_topology::LinkType;

    #[test]
    fn every_builtin_profile_round_trips_through_its_fake() {
        for machine in machines::all_machines() {
            let model = if machine.name().contains("P100") {
                "Tesla P100-SXM2-16GB"
            } else {
                "Tesla V100-SXM2-16GB"
            };
            let mut probe = FakeProbe::from_machine(&machine, model, 16_160);
            let desc = machine_from_snapshot(&probe.snapshot().unwrap()).unwrap();
            assert_eq!(
                desc.matched_profile.as_deref(),
                Some(machine.name()),
                "profile {} must match itself",
                machine.name()
            );
            assert_eq!(desc.topology, machine);
        }
    }

    #[test]
    fn unknown_fabrics_synthesize_with_probed_structure() {
        // A 4-GPU ring is none of the paper's machines.
        let mut links = Graph::new(4);
        for i in 0..4 {
            links
                .add_edge(i, (i + 1) % 4, LinkType::DoubleNvLink2)
                .unwrap();
        }
        let ring = Topology::new("ring4", links, vec![0, 0, 1, 1]);
        let mut probe = FakeProbe::from_machine(&ring, "Custom GPU", 8_000);
        let desc = machine_from_snapshot(&probe.snapshot().unwrap()).unwrap();
        assert!(desc.is_synthesized());
        assert_eq!(desc.topology.gpu_count(), 4);
        assert_eq!(desc.topology.link_type(0, 1), LinkType::DoubleNvLink2);
        assert_eq!(desc.topology.link_type(0, 2), LinkType::Pcie);
        assert_eq!(desc.topology.socket_of(2), 1);
        assert!(desc.topology.name().starts_with("fake-ring4-"));
    }

    #[test]
    fn pascal_models_map_single_bricks_to_nvlink_v1() {
        let mut probe =
            FakeProbe::from_machine(&machines::dgx1_p100(), "Tesla P100-SXM2-16GB", 16_280);
        let desc = machine_from_snapshot(&probe.snapshot().unwrap()).unwrap();
        assert_eq!(desc.matched_profile.as_deref(), Some("DGX-1 P100"));
        assert_eq!(desc.topology.link_type(0, 1), LinkType::SingleNvLink1);
    }

    #[test]
    fn socket_partition_compares_up_to_renaming() {
        let base = machines::summit();
        let renamed = Topology::new(
            "Summit-renamed",
            base.link_graph().clone(),
            vec![5, 5, 5, 2, 2, 2],
        );
        assert!(structurally_equal(&base, &renamed));
        let split = Topology::new(
            "Summit-split",
            base.link_graph().clone(),
            vec![0, 0, 1, 1, 2, 2],
        );
        assert!(!structurally_equal(&base, &split));
    }
}
