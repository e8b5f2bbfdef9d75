//! One description of the fleet a run schedules onto, and the one place
//! it is turned into a backend and driven.
//!
//! `mapa-sched simulate` fills a [`RunSpec`] from its flags; a campaign
//! [`GridCell`](crate::campaign::GridCell) produces one per cell. The
//! spec resolves its names, validates itself, builds the
//! [`SingleServer`], [`Cluster`] or [`Federation`] its fields call for,
//! and runs the engine over it. A stream that can never finish comes back
//! as the engine's error ([`Engine::try_run_submissions`]).

use crate::cli::choose;
use mapa_cluster::{
    federation_policy_by_name, migration_policy_by_name, server_policy_by_name, Cluster,
    Federation, MigrationPolicy, ServerPolicy, FEDERATION_POLICY_NAMES, MIGRATION_POLICY_NAMES,
    SERVER_POLICY_NAMES,
};
use mapa_core::policy::{allocation_policy_by_name, AllocationPolicy};
use mapa_core::{MapaAllocator, ALLOCATION_POLICY_NAMES};
use mapa_isomorph::WorkerPool;
use mapa_model::EffBwModel;
use mapa_sim::{Engine, SchedulerBackend, SimConfig, SimReport, SingleServer, Submission};
use mapa_topology::{PartitionPlan, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// What every fleet built in one process can share: the worker pool, and
/// the Predicted-EffBW models fitted so far (keyed by machine
/// name — a partitioned machine's name encodes its plan). A campaign
/// cell builds a fresh fleet per replication but fits no model twice.
#[derive(Clone)]
pub struct Shared {
    /// The pool campaigns run their cells on. Every cluster takes it too,
    /// though a spec's clusters always dispatch sequentially; ROADMAP
    /// direction 2 drops that parameter.
    pub pool: Arc<WorkerPool>,
    /// Fitted models, extended by every fleet built.
    pub models: HashMap<String, EffBwModel>,
}

impl Shared {
    /// No models fitted yet, on `pool`.
    #[must_use]
    pub fn new(pool: Arc<WorkerPool>) -> Self {
        let models = HashMap::new();
        Self { pool, models }
    }

    /// `machine`'s model, fitted the first time it is asked for.
    pub fn model(&mut self, machine: &Topology) -> EffBwModel {
        let fit = || EffBwModel::for_machine(machine);
        let model = self.models.entry(machine.name().to_string());
        model.or_insert_with(fit).clone()
    }
}

/// The fleet of one run; the fields are `simulate`'s fleet flags. The
/// tier follows from them: more than one cluster, a federation policy or
/// a quota makes a [`Federation`] (a 1-cluster federation is valid —
/// quotas and tenant accounting still apply); otherwise more than one
/// server or any other cluster-layer field makes a [`Cluster`] (a
/// 1-server cluster is valid too); otherwise the paper's [`SingleServer`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The machine every server runs.
    pub machine: Topology,
    /// MIG-style plan applied to every server, `None` for whole GPUs.
    pub partition: Option<PartitionPlan>,
    /// Per-server allocation policy name.
    pub alloc_policy: String,
    /// Server-selection policy name (default `least-loaded`).
    pub server_policy: Option<String>,
    /// Cluster-selection policy name (default `spillover`).
    pub federation_policy: Option<String>,
    /// Servers per cluster.
    pub servers: usize,
    /// Clusters in the federation.
    pub clusters: usize,
    /// Migration policy name (default `none`); any other policy implies
    /// per-shard queues.
    pub migration: Option<String>,
    /// Bound of the per-shard queues that replace the global FIFO.
    pub shard_queue_depth: Option<usize>,
    /// Concurrent accelerator units every tenant is capped at.
    pub quota_gpus: Option<usize>,
}

impl RunSpec {
    /// One `machine` under `alloc_policy`, nothing else set.
    #[must_use]
    pub fn new(machine: Topology, alloc_policy: &str) -> Self {
        Self {
            machine,
            partition: None,
            alloc_policy: alloc_policy.to_string(),
            server_policy: None,
            federation_policy: None,
            servers: 1,
            clusters: 1,
            migration: None,
            shard_queue_depth: None,
            quota_gpus: None,
        }
    }

    fn alloc(&self) -> Result<Box<dyn AllocationPolicy>, String> {
        let (name, names) = (&self.alloc_policy, &ALLOCATION_POLICY_NAMES);
        choose("allocation policy", name, allocation_policy_by_name, names)
    }

    fn server(&self) -> Result<Box<dyn ServerPolicy>, String> {
        let name = self.server_policy.as_deref().unwrap_or("least-loaded");
        choose(
            "server policy",
            name,
            server_policy_by_name,
            &SERVER_POLICY_NAMES,
        )
    }

    fn federation(&self) -> Result<Box<dyn ServerPolicy>, String> {
        let name = self.federation_policy.as_deref().unwrap_or("spillover");
        let names = &FEDERATION_POLICY_NAMES;
        choose("federation policy", name, federation_policy_by_name, names)
    }

    fn migration(&self) -> Result<MigrationPolicy, String> {
        let name = self.migration.as_deref().unwrap_or("none");
        let names = &MIGRATION_POLICY_NAMES;
        choose("migration policy", name, migration_policy_by_name, names)
    }

    /// Whether jobs wait in per-shard queues (strict FIFO per shard)
    /// rather than the engine's global FIFO.
    #[must_use]
    pub fn queued(&self) -> bool {
        self.shard_queue_depth.is_some() || self.migration() != Ok(MigrationPolicy::None)
    }

    /// Checks the counts, the names and the partition plan.
    ///
    /// # Errors
    /// The first count below 1, unknown name (with the known ones), or
    /// split the machine cannot hold.
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            ("servers", Some(self.servers)),
            ("clusters", Some(self.clusters)),
            ("shard-queue-depth", self.shard_queue_depth),
            ("quota-gpus", self.quota_gpus),
        ];
        if let Some((what, _)) = counts.iter().find(|(_, n)| *n == Some(0)) {
            return Err(format!("{what} must be at least 1"));
        }
        self.alloc()?;
        self.server()?;
        self.federation()?;
        self.migration()?;
        let Some(plan) = &self.partition else {
            return Ok(());
        };
        let (n, name) = (self.machine.gpu_count(), self.machine.name());
        if plan.is_empty() {
            return Err("an empty partition plan: leave it out to keep every GPU whole".into());
        }
        match plan.splits().find(|&(gpu, _)| gpu >= n) {
            Some((gpu, _)) => Err(format!(
                "partition plan '{plan}' splits GPU {gpu}, but '{name}' has only {n} GPUs"
            )),
            None => Ok(()),
        }
    }

    /// The machine each server runs: [`RunSpec::machine`] with the plan
    /// applied, slices as first-class vertices.
    ///
    /// # Panics
    /// On a plan [`RunSpec::validate`] refuses.
    #[must_use]
    pub fn topology(&self) -> Topology {
        let whole = || self.machine.clone();
        self.partition
            .as_ref()
            .map_or_else(whole, |p| p.apply(&self.machine))
    }

    fn cluster(&self, machine: &Topology, shared: &mut Shared) -> Result<Cluster, String> {
        let mut cluster = Cluster::with_shared_resources(
            vec![machine.clone(); self.servers],
            || self.alloc().expect("validated by build"),
            self.server()?,
            Arc::clone(&shared.pool),
            &mut shared.models,
        );
        if let Some(depth) = self.shard_queue_depth {
            cluster = cluster.with_shard_queues(depth);
        }
        Ok(cluster.with_migration(self.migration()?))
    }

    /// Builds the fleet — the one place a backend is constructed — and
    /// runs `submissions` on it to completion. Whatever models the fleet's
    /// machines needed are in `shared` afterwards.
    ///
    /// # Errors
    /// [`RunSpec::validate`]'s, or the engine's
    /// [`JobRejection`](mapa_sim::JobRejection) of a stream that can never
    /// finish.
    pub fn run(
        &self,
        shared: &mut Shared,
        config: SimConfig,
        submissions: impl IntoIterator<Item = Submission>,
    ) -> Result<SimReport, String> {
        fn drive<B: SchedulerBackend>(
            backend: B,
            config: SimConfig,
            submissions: impl IntoIterator<Item = Submission>,
        ) -> Result<SimReport, String> {
            let engine = Engine::over(backend).with_config(config);
            let report = engine.try_run_submissions(submissions);
            report.map_err(|rejection| rejection.to_string())
        }
        self.validate()?;
        let machine = self.topology();
        let federated =
            self.clusters > 1 || self.federation_policy.is_some() || self.quota_gpus.is_some();
        let clustered = self.servers > 1
            || self.server_policy.is_some()
            || self.migration.is_some()
            || self.shard_queue_depth.is_some();
        if federated {
            let members = (0..self.clusters).map(|_| self.cluster(&machine, shared));
            let members = members.collect::<Result<Vec<_>, _>>()?;
            let federation = Federation::new(members, self.federation()?);
            let federation = match self.quota_gpus {
                Some(quota) => federation.with_default_quota(quota),
                None => federation,
            };
            drive(federation, config, submissions)
        } else if clustered {
            drive(self.cluster(&machine, shared)?, config, submissions)
        } else {
            let model = shared.model(&machine);
            let allocator = MapaAllocator::with_model(machine, self.alloc()?, model);
            drive(SingleServer::from_allocator(allocator), config, submissions)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::machines;
    use mapa_workloads::{GpuDemand, JobGroup, JobSpec, Workload};

    fn shared() -> Shared {
        Shared::new(Arc::new(WorkerPool::new(1)))
    }

    #[test]
    fn validate_refuses_zero_counts_unknown_names_and_bad_plans() {
        let base = RunSpec::new(machines::dgx1_v100(), "preserve");
        base.validate().unwrap();
        let refusal = |spec: RunSpec| spec.validate().unwrap_err();
        let servers = RunSpec {
            servers: 0,
            ..base.clone()
        };
        assert_eq!(refusal(servers), "servers must be at least 1");
        let quota = RunSpec {
            quota_gpus: Some(0),
            ..base.clone()
        };
        assert_eq!(refusal(quota), "quota-gpus must be at least 1");
        assert_eq!(
            refusal(RunSpec::new(machines::dgx1_v100(), "nope")),
            "unknown allocation policy 'nope' (choose from: baseline | topo-aware | greedy | \
             preserve | effbw-greedy)"
        );
        let migration = RunSpec {
            migration: Some("nope".into()),
            ..base.clone()
        };
        assert!(refusal(migration).contains("choose from: none | steal-on-idle"));
        let plan = RunSpec {
            partition: Some(PartitionPlan::new().split(9, 2)),
            ..base
        };
        assert!(refusal(plan).contains("only 8 GPUs"));
    }

    #[test]
    fn run_refuses_what_the_fleet_can_never_run() {
        let job = |id, gpus| JobSpec::new(id, GpuDemand::Whole(gpus), Workload::Gmm);
        let spec = RunSpec {
            servers: 2,
            ..RunSpec::new(machines::dgx1_v100(), "baseline")
        };
        let subs = |jobs: Vec<JobSpec>| jobs.into_iter().map(Submission::Job).collect::<Vec<_>>();
        let (mut fitted, config) = (shared(), SimConfig::default);
        spec.run(&mut fitted, config(), subs(vec![job(1, 8)]))
            .unwrap();
        let too_big = spec.run(&mut fitted, config(), subs(vec![job(1, 9)]));
        assert_eq!(
            too_big.unwrap_err(),
            "job 1 requests 9 GPUs on a 8-GPU machine"
        );
        // Splitting GPU 0 leaves 7 whole GPUs, though the machine has 9
        // vertices: the engine refuses the job as it arrives.
        let split = RunSpec {
            partition: Some(PartitionPlan::new().split(0, 2)),
            ..spec.clone()
        };
        let sliced = split.run(&mut fitted, config(), subs(vec![job(1, 8)]));
        assert_eq!(
            sliced.unwrap_err(),
            "job 1 requests 8 whole GPUs on a machine with 7 unsplit GPUs"
        );
        // 15 GPUs fit the pooled 16, but no two 5-GPU members share a
        // server: the run refuses the gang once the fleet falls idle.
        let gang = vec![Submission::Gang(JobGroup::new(
            1,
            vec![job(1, 5), job(2, 5), job(3, 5)],
        ))];
        let stuck = spec.run(&mut fitted, config(), gang.clone()).unwrap_err();
        assert!(
            stuck.starts_with("gang 1 (jobs [1, 2, 3], 15 GPUs total) cannot be co-scheduled"),
            "{stuck}"
        );
        let three = RunSpec {
            servers: 3,
            quota_gpus: Some(4),
            ..spec
        };
        let report = three.run(&mut fitted, config(), gang).unwrap();
        assert_eq!(report.gangs.gangs_dispatched, 1);
        // A single server takes its model from `Shared` too.
        let mut single = shared();
        let spec = RunSpec::new(machines::dgx1_v100(), "baseline");
        spec.run(&mut single, config(), subs(vec![job(1, 8)]))
            .unwrap();
        assert_eq!(single.models.keys().collect::<Vec<_>>(), ["DGX-1 V100"]);
    }
}
