//! The paper's quantitative claims: every band of the reproduction table
//! (`mapa::reproduce`, what `mapa-sched reproduce` prints) must hold.

use mapa::prelude::*;
use mapa::reproduce::{self, ARTEFACTS};

#[test]
fn every_band_of_the_reproduction_table_holds() {
    let rows = reproduce::rows(&[]).expect("no ids to mistype");
    for artefact in &ARTEFACTS {
        let (id, title) = (artefact.id, artefact.title);
        assert!(
            rows.iter().any(|r| r.artefact == id),
            "{id} ({title}) has no row"
        );
    }
    let banded = rows.iter().filter(|r| r.band.is_some()).count();
    assert!(banded >= 25, "only {banded} rows carry a band");
    let failed: Vec<String> = rows
        .iter()
        .filter(|r| r.status() == "FAIL")
        .map(ToString::to_string)
        .collect();
    assert!(
        failed.is_empty(),
        "outside their band:\n{}",
        failed.join("\n")
    );
}

/// The §3.5 motivation scenario: Preserve leaves a sensitive job at least
/// as well off as Greedy does after an insensitive job was placed first.
#[test]
fn preservation_protects_future_sensitive_jobs() {
    let job = |id, workload, sensitive| {
        JobSpec::new(id, GpuDemand::Whole(2), workload)
            .with_topology(AppTopology::Ring)
            .with_bandwidth_sensitive(sensitive)
            .with_iterations(1)
    };
    let run = |policy: Box<dyn AllocationPolicy>| {
        let mut a = MapaAllocator::new(machines::dgx1_v100(), policy);
        a.try_allocate(&job(1, Workload::GoogleNet, false))
            .unwrap()
            .unwrap();
        let placed = a
            .try_allocate(&job(2, Workload::Vgg16, true))
            .unwrap()
            .unwrap();
        placed.score.predicted_eff_bw
    };
    let (greedy, preserve) = (run(Box::new(GreedyPolicy)), run(Box::new(PreservePolicy)));
    assert!(preserve >= greedy, "preserve {preserve} vs greedy {greedy}");
}
