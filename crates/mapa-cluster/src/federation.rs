//! The federation tier: N [`Cluster`]s (regions/cells) behind one
//! cross-cluster router, with per-tenant quotas and dominant-resource
//! fairness enforced at admission.
//!
//! A cluster is to a federation exactly what a shard is to a cluster: the
//! [`SchedulerBackend`] pattern reused one level up. The same
//! [`ServerPolicy`] a cluster ranks its shards with ranks the clusters per
//! decision, each cluster a pool of units whose busy fraction is read from
//! its O(1) free count (first-fit spillover, round-robin, least-loaded);
//! the chosen cluster then runs its own server-selection and GPU-selection
//! stages untouched. The federation
//! adds only the routing and the quota gate. Because it adds no
//! parallelism of its own — every cross-cluster step is serial, and each
//! inner cluster's sequential ≡ parallel contract is already proven — a
//! federated schedule is bit-identical at any worker thread count, and a
//! 1-cluster federation replays the bare cluster's schedules bit for bit
//! (`tests/federation.rs` pins both).
//!
//! Multi-tenancy follows the admission-control shape of the multi-tenant
//! inference literature (MoCA-style adaptive admission, DRF fairness):
//!
//! * **Quotas** — each tenant may hold at most `quota` accelerator units
//!   (queued-in-cluster + running) at once. Over-quota work is *held at
//!   the federation gate*, never handed to a cluster. A single job (or
//!   gang) larger than its tenant's quota is admitted only when the
//!   tenant holds nothing — a concurrency cap must not deadlock the
//!   engine's "all jobs eventually run" contract.
//! * **DRF at admission** — held jobs and gangs wait in one arrival-order
//!   queue of [`QueueItem`]s and re-enter in ascending order of the owning
//!   tenant's *dominant share* (its largest per-dimension fraction of
//!   federation capacity, whole GPUs and MIG slices counted separately; a
//!   gang takes its members' largest), earliest arrival first on a tie.
//!   The least-served tenant always re-enters first.
//! * **Spillover** — when the policy's first-choice cluster cannot take a
//!   job (saturated on the global path, less free capacity than the
//!   demand on the queued path), the job routes to the next ranked
//!   cluster and the `spillovers` counter and the receiving cluster's
//!   `spill_ins` count it — per job, so a spilled gang counts each member
//!   in both. Under [`SpilloverPolicy`] this makes the invariant
//!   testable: no spillover ever happens while cluster 0 has room.
//! * **Gangs** — on the queued path a gang is *pinned*: routed whole, as a
//!   job is, to one cluster that can ever host it (one that no cluster
//!   can host stays queued at the federation, and the engine names it
//!   when the run drains). On the global path the
//!   federation first tries to pin (each ranked cluster's atomic
//!   peek-then-commit [`Cluster::try_place_gang`]), then falls back to
//!   *spanning* members across clusters via the generic two-phase commit
//!   (place members one at a time; on the first refusal roll occupancy,
//!   routing counters and tenant peaks back).

use crate::cluster::{already_active, share_decision_tables, Cluster};
use crate::policy::{
    pool_busy_fraction, Candidates, LeastLoadedPolicy, RoundRobinPolicy, ServerPolicy,
    SpilloverPolicy,
};
use mapa_core::PreemptionPolicy;
use mapa_sim::{
    DispatchReport, DispatchedJob, Eviction, FedClusterStats, FedTenantStats, FederationReport,
    PendingJob, Placement, QueueItem, SchedulerBackend, SimConfig,
};
use mapa_topology::Topology;
use mapa_workloads::{JobGroup, JobSpec};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Names accepted by [`federation_policy_by_name`], in documentation
/// order.
pub const FEDERATION_POLICY_NAMES: [&str; 3] = ["spillover", "round-robin", "least-loaded"];

/// Resolves a cluster-selection policy from its CLI name
/// (case-insensitive): one of the [`ServerPolicy`] structs, ranking
/// clusters over pool views.
#[must_use]
pub fn federation_policy_by_name(name: &str) -> Option<Box<dyn ServerPolicy>> {
    match name.to_ascii_lowercase().as_str() {
        "spillover" | "first-fit" => Some(Box::new(SpilloverPolicy)),
        "round-robin" | "roundrobin" => Some(Box::new(RoundRobinPolicy)),
        "least-loaded" | "leastloaded" => Some(Box::new(LeastLoadedPolicy)),
        _ => None,
    }
}

/// Per-tenant usage ledger: what the tenant currently holds (split by
/// demand dimension for the DRF share), its high-water mark, and how
/// often its admissions were deferred by quota.
#[derive(Debug, Clone, Copy, Default)]
struct TenantUsage {
    whole_in_use: usize,
    slices_in_use: usize,
    peak: usize,
    quota_holds: u64,
}

impl TenantUsage {
    fn in_use(&self) -> usize {
        self.whole_in_use + self.slices_in_use
    }
}

/// What a routed, unsettled job holds: the cluster it went to and the
/// charge its tenant carries for it.
#[derive(Debug, Clone, Copy)]
struct Charge {
    cluster: usize,
    tenant: Option<u64>,
    units: usize,
    fractional: bool,
}

/// N clusters behind one [`ServerPolicy`], with per-tenant quotas and
/// DRF re-admission. Implements [`SchedulerBackend`] by delegation:
/// servers are numbered federation-wide (cluster 0's shards first), and
/// every placement, release, and eviction is translated between global
/// and cluster-local indices.
pub struct Federation {
    clusters: Vec<Cluster>,
    policy: Box<dyn ServerPolicy>,
    /// Global index of each cluster's first server.
    offsets: Vec<usize>,
    /// Accelerator units per cluster (static).
    gpu_counts: Vec<usize>,
    /// Unsplit GPUs per cluster (static): what its whole-GPU jobs may pool.
    unsplit_counts: Vec<usize>,
    total_gpus: usize,
    default_quota: Option<usize>,
    tenants: BTreeMap<u64, TenantUsage>,
    /// Every routed, unsettled job by id: a duplicate id is refused
    /// against it before anything is placed or queued.
    ledger: HashMap<u64, Charge>,
    /// Job (or gang-lead) ids whose quota hold has been counted, so a
    /// retried `try_place` does not re-count the same deferral.
    quota_blocked: HashSet<u64>,
    /// Quota-deferred jobs and gangs, in arrival order: items are only
    /// pushed at the back or removed.
    held: VecDeque<QueueItem>,
    /// Jobs of queued-path items no cluster can ever host: they wait
    /// forever.
    stranded_jobs: usize,
    /// Jobs placed (global path) or routed into clusters (queued path;
    /// the engine drives exactly one of the two) — rotation seq.
    routed: u64,
    spillovers: u64,
    gangs_pinned: u64,
    gangs_spanned: u64,
    jobs_routed: Vec<u64>,
    spill_ins: Vec<u64>,
    /// The last ranking of the clusters, kept between rankings so that
    /// ranking allocates nothing.
    order: Vec<usize>,
}

impl Federation {
    /// Builds a federation over `clusters` routed by `policy`.
    ///
    /// # Panics
    /// Panics when `clusters` is empty, the clusters disagree on queue
    /// management (all must run shard queues, or none — the engine picks
    /// one dispatch path for the whole backend), or `policy` needs
    /// selection scores (the federation never peeks a cluster).
    #[must_use]
    pub fn new(clusters: Vec<Cluster>, policy: Box<dyn ServerPolicy>) -> Self {
        assert!(
            !clusters.is_empty(),
            "a federation needs at least one cluster"
        );
        assert!(
            !policy.needs_scores(),
            "cluster-selection policy '{}' needs scores the federation does not compute",
            policy.name()
        );
        let queued = clusters[0].manages_queues();
        assert!(
            clusters.iter().all(|c| c.manages_queues() == queued),
            "all federated clusters must agree on queue management"
        );
        let mut offsets = Vec::with_capacity(clusters.len());
        let mut gpu_counts = Vec::with_capacity(clusters.len());
        let mut unsplit_counts = Vec::with_capacity(clusters.len());
        let mut next = 0;
        for c in &clusters {
            offsets.push(next);
            next += c.server_count();
            let servers = || (0..c.server_count()).map(|s| c.server_topology(s));
            gpu_counts.push(servers().map(Topology::gpu_count).sum());
            unsplit_counts.push(servers().map(Topology::unsplit_gpu_count).sum());
        }
        let total_gpus = gpu_counts.iter().sum();
        let n = clusters.len();
        Self {
            clusters,
            policy,
            offsets,
            gpu_counts,
            unsplit_counts,
            total_gpus,
            default_quota: None,
            tenants: BTreeMap::new(),
            ledger: HashMap::new(),
            quota_blocked: HashSet::new(),
            held: VecDeque::new(),
            stranded_jobs: 0,
            routed: 0,
            spillovers: 0,
            gangs_pinned: 0,
            gangs_spanned: 0,
            jobs_routed: vec![0; n],
            spill_ins: vec![0; n],
            order: Vec::new(),
        }
    }

    /// Sets the quota every tenant gets: at most `gpus` accelerator units
    /// held concurrently (builder style).
    #[must_use]
    pub fn with_default_quota(mut self, gpus: usize) -> Self {
        self.default_quota = Some(gpus);
        self
    }

    /// The cluster at `id` (panics on an invalid index).
    #[must_use]
    pub fn cluster(&self, id: usize) -> &Cluster {
        &self.clusters[id]
    }

    /// Jobs routed away from the policy's first choice so far.
    #[must_use]
    pub fn spillovers(&self) -> u64 {
        self.spillovers
    }

    /// Accelerator units `tenant` currently holds (queued-in-cluster +
    /// running). The quota-conservation invariant the property tests pin:
    /// this never exceeds the tenant's quota, except for a single job or
    /// gang admitted alone under the anti-deadlock valve.
    #[must_use]
    pub fn tenant_gpus_in_use(&self, tenant: u64) -> usize {
        self.tenants.get(&tenant).map_or(0, TenantUsage::in_use)
    }

    /// Busy fraction of cluster `c`, seen as a pool of its units.
    fn busy_fraction(&self, c: usize) -> f64 {
        pool_busy_fraction(self.clusters[c].total_free_gpus(), self.gpu_counts[c])
    }

    /// Global server index `server` as (owning cluster, index within it).
    fn local(&self, server: usize) -> (usize, usize) {
        let c = self.offsets.partition_point(|&first| first <= server) - 1;
        (c, server - self.offsets[c])
    }

    /// The lowest-numbered tenant that admitting `members` (one job, or a
    /// gang together) would put over quota, if any. Untenanted and
    /// unquota'd work always fits; a tenant holding nothing may exceed its
    /// quota with one admission (anti-deadlock valve — see module docs).
    fn quota_violation(&self, members: &[JobSpec]) -> Option<u64> {
        let quota = self.default_quota?;
        members
            .iter()
            .filter_map(|m| m.tenant)
            .filter(|&t| {
                let used = self.tenant_gpus_in_use(t);
                let need: usize = members
                    .iter()
                    .filter(|m| m.tenant == Some(t))
                    .map(JobSpec::num_gpus)
                    .sum();
                used + need > quota && used != 0
            })
            .min()
    }

    /// DRF dominant share: the tenant's largest per-dimension fraction of
    /// federation capacity (whole GPUs and MIG slices counted as separate
    /// dimensions).
    fn dominant_share(&self, tenant: u64) -> f64 {
        let Some(u) = self.tenants.get(&tenant) else {
            return 0.0;
        };
        let capacity = self.total_gpus.max(1) as f64;
        (u.whole_in_use as f64 / capacity).max(u.slices_in_use as f64 / capacity)
    }

    fn charge(&mut self, c: Charge) {
        let Some(t) = c.tenant else { return };
        let u = self.tenants.entry(t).or_default();
        if c.fractional {
            u.slices_in_use += c.units;
        } else {
            u.whole_in_use += c.units;
        }
        u.peak = u.peak.max(u.in_use());
    }

    fn uncharge(&mut self, c: Charge) {
        let Some(t) = c.tenant else { return };
        let u = self.tenants.entry(t).or_default();
        if c.fractional {
            u.slices_in_use -= c.units;
        } else {
            u.whole_in_use -= c.units;
        }
    }

    /// Settles a job that left the clusters (finished or evicted):
    /// removes its ledger entry and returns its charge.
    fn settle(&mut self, job: u64) {
        if let Some(c) = self.ledger.remove(&job) {
            self.uncharge(c);
        }
    }

    /// Panics when a member of `members` reuses the id of a job still
    /// routed to a cluster — two copies must not both run.
    fn assert_not_routed(&self, members: &[JobSpec]) {
        for m in members {
            if let Some(c) = self.ledger.get(&m.id) {
                already_active(m.id, "cluster", c.cluster);
            }
        }
    }

    /// Counts one quota deferral for `marker` (a job or gang-lead id),
    /// once — retried attempts on the same blocked item do not re-count.
    fn note_quota_hold(&mut self, tenant: u64, marker: u64) {
        if self.quota_blocked.insert(marker) {
            self.tenants.entry(tenant).or_default().quota_holds += 1;
        }
    }

    /// Books `members` (one job, or a gang together) as routed to
    /// cluster `c`: one spillover per member when `c` is not the
    /// policy's `first` choice, the rotation counter, the quota-hold
    /// marker (the lead's id) cleared, and every member charged to its
    /// tenant.
    fn book_routed(&mut self, c: usize, first: usize, members: &[JobSpec]) {
        let n = members.len() as u64;
        if c != first {
            self.spillovers += n;
            self.spill_ins[c] += n;
        }
        self.jobs_routed[c] += n;
        self.routed += n;
        self.quota_blocked.remove(&members[0].id);
        for m in members {
            let charge = Charge {
                cluster: c,
                tenant: m.tenant,
                units: m.num_gpus(),
                fractional: m.is_fractional(),
            };
            self.charge(charge);
            self.ledger.insert(m.id, charge);
        }
    }

    /// Global-path placement past the quota gate: the gang spanning path
    /// pre-checks the whole gang and must not be re-gated member by member
    /// (a gang admitted under the anti-deadlock valve would otherwise
    /// wedge halfway through).
    fn place(&mut self, job: &JobSpec) -> Option<Placement> {
        let mut feasible = std::mem::take(&mut self.order);
        self.ranked(std::slice::from_ref(job), &mut feasible);
        let mut placed = None;
        for &c in &feasible {
            if let Some(mut p) = self.clusters[c].try_place(job) {
                p.server += self.offsets[c];
                self.book_routed(c, feasible[0], std::slice::from_ref(job));
                placed = Some(p);
                break;
            }
        }
        self.order = feasible;
        placed
    }

    /// Writes the policy's ranking for the lead of `members` into `order`,
    /// keeping the clusters that can host every member
    /// ([`mapa_core::Capacity::fits`]).
    fn ranked(&self, members: &[JobSpec], order: &mut Vec<usize>) {
        order.clear();
        let Some(lead) = members.first() else {
            return;
        };
        let busy = |c: usize| self.busy_fraction(c);
        let candidates = Candidates::new(self.clusters.len(), &busy, &[]);
        self.policy.rank(lead, &candidates, self.routed, order);
        order.retain(|&c| {
            let capacity = self.clusters[c].capacity();
            members.iter().all(|m| capacity.fits(m))
        });
    }

    /// Admits `item` at the federation gate: holds it when a member's
    /// tenant is over quota, routes it otherwise.
    fn enter(&mut self, item: QueueItem) {
        let members = item.members();
        if let Some(t) = self.quota_violation(members) {
            self.note_quota_hold(t, members[0].id);
            self.held.push_back(item);
        } else {
            self.route(item);
        }
    }

    /// Queued-path routing: hands `item` whole to the first ranked cluster
    /// with free room for it, else to the first that can ever host it, and
    /// charges its tenants. A cluster can ever host an item when each
    /// member fits one of its servers and the cluster's pooled units hold
    /// them all: every unit for the total, the unsplit GPUs for the whole-GPU
    /// members. A spillover here is a routing heuristic, since
    /// placement happens later inside the cluster. An item no cluster can
    /// ever host stays in `queued_jobs` for good, so the engine names it
    /// when the run drains.
    ///
    /// # Panics
    /// Panics when a member's id is still routed (a duplicate active job).
    fn route(&mut self, item: QueueItem) {
        let members = item.members();
        self.assert_not_routed(members);
        let total = item.gpus();
        let whole: usize = members
            .iter()
            .filter(|m| !m.is_fractional())
            .map(JobSpec::num_gpus)
            .sum();
        let mut feasible = std::mem::take(&mut self.order);
        self.ranked(members, &mut feasible);
        feasible.retain(|&c| self.gpu_counts[c] >= total && self.unsplit_counts[c] >= whole);
        let choice = feasible.first().map(|&first| {
            let roomy = feasible
                .iter()
                .copied()
                .find(|&c| self.clusters[c].total_free_gpus() >= total);
            (first, roomy.unwrap_or(first))
        });
        self.order = feasible;
        let Some((first, pick)) = choice else {
            self.stranded_jobs += item.job_count();
            return;
        };
        self.book_routed(pick, first, members);
        match item {
            QueueItem::Job(pending) => self.clusters[pick].admit(pending),
            QueueItem::Gang { gang, submitted_at } => {
                self.gangs_pinned += 1;
                self.clusters[pick].admit_gang(gang, submitted_at);
            }
        }
    }

    /// Re-admits held work in DRF order: route the admissible item whose
    /// tenants' largest dominant share is lowest (the earliest on a tie),
    /// recompute shares, repeat until nothing held fits. Recomputing after
    /// every admission is what makes this dominant-resource *fair* rather
    /// than merely FIFO-under-quota.
    fn drain_held(&mut self) {
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (i, item) in self.held.iter().enumerate() {
                let members = item.members();
                if self.quota_violation(members).is_some() {
                    continue;
                }
                let share = members
                    .iter()
                    .filter_map(|m| m.tenant)
                    .map(|t| self.dominant_share(t))
                    .fold(0.0, f64::max);
                if best.is_none_or(|(s, _)| share < s) {
                    best = Some((share, i));
                }
            }
            let Some((_, i)) = best else { break };
            let item = self.held.remove(i).expect("index from enumerate");
            self.route(item);
        }
    }
}

impl SchedulerBackend for Federation {
    fn label(&self) -> String {
        let inner: Vec<String> = self.clusters.iter().map(SchedulerBackend::label).collect();
        format!(
            "{}-cluster federation [{}]",
            self.clusters.len(),
            inner.join("; ")
        )
    }

    fn policy_label(&self) -> String {
        format!("{}/{}", self.policy.name(), self.clusters[0].policy_label())
    }

    fn server_count(&self) -> usize {
        self.clusters.iter().map(Cluster::server_count).sum()
    }

    fn server_topology(&self, server: usize) -> &Topology {
        let (c, local) = self.local(server);
        self.clusters[c].server_topology(local)
    }

    fn server_cache_stats(&self, server: usize) -> Option<mapa_core::CacheStats> {
        let (c, local) = self.local(server);
        self.clusters[c].server_cache_stats(local)
    }

    fn total_free_gpus(&self) -> usize {
        self.clusters.iter().map(Cluster::total_free_gpus).sum()
    }

    fn configure(&mut self, config: &SimConfig) {
        for c in &mut self.clusters {
            c.configure(config);
        }
        share_decision_tables(self.clusters.iter_mut().flat_map(Cluster::shards_mut));
    }

    fn try_place(&mut self, job: &JobSpec) -> Option<Placement> {
        self.assert_not_routed(std::slice::from_ref(job));
        if let Some(t) = self.quota_violation(std::slice::from_ref(job)) {
            self.note_quota_hold(t, job.id);
            return None;
        }
        self.place(job)
    }

    fn release(&mut self, server: usize, job: u64) {
        let (c, local) = self.local(server);
        self.clusters[c].release(local, job);
        self.settle(job);
    }

    fn try_place_gang(&mut self, members: &[JobSpec]) -> Option<Vec<Placement>> {
        self.assert_not_routed(members);
        let marker = members.first().map_or(u64::MAX, |m| m.id);
        if let Some(t) = self.quota_violation(members) {
            self.note_quota_hold(t, marker);
            return None;
        }
        let total: usize = members.iter().map(JobSpec::num_gpus).sum();
        let mut feasible = std::mem::take(&mut self.order);
        self.ranked(members, &mut feasible);
        // Pinned attempt: each ranked cluster's own atomic gang path.
        let mut pinned = None;
        for &c in &feasible {
            if self.clusters[c].total_free_gpus() < total {
                continue;
            }
            if let Some(mut placements) = self.clusters[c].try_place_gang(members) {
                for p in &mut placements {
                    p.server += self.offsets[c];
                }
                self.book_routed(c, feasible[0], members);
                self.gangs_pinned += 1;
                pinned = Some(placements);
                break;
            }
        }
        let hosted = !feasible.is_empty();
        self.order = feasible;
        if !hosted || pinned.is_some() {
            return pinned;
        }
        // Spanning fallback: generic two-phase commit across clusters —
        // place members one at a time (quota pre-checked gang-wide
        // above), roll everything back on the first refusal. Routing
        // counters and tenant peaks are committed only on success.
        let snapshot = (
            self.spillovers,
            self.spill_ins.clone(),
            self.jobs_routed.clone(),
            self.routed,
            self.tenants.clone(),
        );
        let mut placed: Vec<Placement> = Vec::new();
        for (idx, job) in members.iter().enumerate() {
            match self.place(job) {
                Some(p) => placed.push(p),
                None => {
                    for (m, p) in members[..idx].iter().zip(&placed) {
                        let (c, local) = self.local(p.server);
                        self.clusters[c].unplace(local, m.id);
                        self.settle(m.id);
                    }
                    (
                        self.spillovers,
                        self.spill_ins,
                        self.jobs_routed,
                        self.routed,
                        self.tenants,
                    ) = snapshot;
                    return None;
                }
            }
        }
        let distinct: HashSet<usize> = placed.iter().map(|p| self.local(p.server).0).collect();
        if distinct.len() > 1 {
            self.gangs_spanned += 1;
        } else {
            self.gangs_pinned += 1;
        }
        self.quota_blocked.remove(&marker);
        Some(placed)
    }

    fn preempt_for(
        &mut self,
        job: &JobSpec,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        // A quota-blocked job is short of *permission*, not capacity —
        // eviction cannot help it.
        if self.quota_violation(std::slice::from_ref(job)).is_some() {
            return Vec::new();
        }
        let mut order = std::mem::take(&mut self.order);
        self.ranked(std::slice::from_ref(job), &mut order);
        let mut evictions = Vec::new();
        for &c in &order {
            evictions = self.clusters[c].preempt_for(job, policy, shielded);
            if !evictions.is_empty() {
                for e in &mut evictions {
                    self.settle(e.job_id);
                    e.server += self.offsets[c];
                }
                break;
            }
        }
        self.order = order;
        evictions
    }

    fn preempt_blocked(
        &mut self,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        let mut out = Vec::new();
        for c in 0..self.clusters.len() {
            let offset = self.offsets[c];
            for mut e in self.clusters[c].preempt_blocked(policy, shielded) {
                self.settle(e.job_id);
                e.server += offset;
                out.push(e);
            }
        }
        out
    }

    fn manages_queues(&self) -> bool {
        self.clusters[0].manages_queues()
    }

    fn admit(&mut self, pending: PendingJob) {
        self.enter(QueueItem::Job(pending));
    }

    fn admit_gang(&mut self, gang: JobGroup, submitted_at: f64) {
        self.enter(QueueItem::Gang { gang, submitted_at });
    }

    fn pump(&mut self, now: f64) -> Vec<DispatchedJob> {
        // Quota capacity may have been freed since the last pump: DRF
        // re-admission first, then every cluster drains in index order.
        self.drain_held();
        let mut out = Vec::new();
        for c in 0..self.clusters.len() {
            let offset = self.offsets[c];
            for mut d in self.clusters[c].pump(now) {
                d.placement.server += offset;
                out.push(d);
            }
        }
        out
    }

    fn queued_jobs(&self) -> usize {
        let inner: usize = self.clusters.iter().map(Cluster::queued_jobs).sum();
        let held: usize = self.held.iter().map(QueueItem::job_count).sum();
        inner + held + self.stranded_jobs
    }

    fn dispatch_report(&self) -> Option<DispatchReport> {
        let mut reports = self.clusters.iter().filter_map(Cluster::dispatch_report);
        let mut merged = reports.next()?;
        for r in reports {
            merged.jobs_stolen += r.jobs_stolen;
            merged.jobs_rebalanced += r.jobs_rebalanced;
            merged.max_queue_depths.extend(r.max_queue_depths);
            merged.dispatch_blocks += r.dispatch_blocks;
            merged.fragmentation_blocks += r.fragmentation_blocks;
        }
        Some(merged)
    }

    fn federation_report(&self) -> Option<FederationReport> {
        Some(FederationReport {
            policy: self.policy.name(),
            spillovers: self.spillovers,
            quota_holds: self.tenants.values().map(|t| t.quota_holds).sum(),
            gangs_pinned: self.gangs_pinned,
            gangs_spanned: self.gangs_spanned,
            clusters: self
                .clusters
                .iter()
                .enumerate()
                .map(|(i, c)| FedClusterStats {
                    cluster: i,
                    label: c.label(),
                    first_server: self.offsets[i],
                    servers: c.server_count(),
                    gpu_count: self.gpu_counts[i],
                    jobs_routed: self.jobs_routed[i],
                    spill_ins: self.spill_ins[i],
                    jobs_completed: 0,
                    gpu_seconds: 0.0,
                })
                .collect(),
            tenants: self
                .tenants
                .iter()
                .map(|(&tenant, u)| FedTenantStats {
                    tenant,
                    quota_gpus: self.default_quota,
                    peak_gpus: u.peak,
                    quota_holds: u.quota_holds,
                    jobs_completed: 0,
                    gpu_seconds: 0.0,
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_core::policy::{AllocationPolicy, PreservePolicy};
    use mapa_sim::{Engine, Submission};
    use mapa_topology::machines;
    use mapa_workloads::{generator, GpuDemand, Workload};

    fn cluster(shards: usize) -> Cluster {
        Cluster::homogeneous(
            machines::dgx1_v100(),
            shards,
            || Box::new(PreservePolicy),
            Box::new(LeastLoadedPolicy),
        )
    }

    fn federation(n: usize, shards: usize, policy: Box<dyn ServerPolicy>) -> Federation {
        Federation::new((0..n).map(|_| cluster(shards)).collect(), policy)
    }

    #[test]
    fn views_expose_capacity_and_load() {
        let mut fed = federation(2, 2, Box::new(SpilloverPolicy));
        let busy = |c: usize| fed.busy_fraction(c);
        let views = Candidates::new(fed.clusters.len(), &busy, &[]);
        assert_eq!(views.len(), 2);
        assert_eq!(views.busy_fraction(1), 0.0);
        assert_eq!(views.busy_fraction(0), 0.0);
        assert_eq!(views.selection_eff_bw(0), None);
        // A pool's load is its cluster's free count over its units.
        let p = fed.try_place(&job(1, None, 4)).expect("room on cluster 0");
        assert_eq!(fed.busy_fraction(0), 4.0 / 16.0);
        assert_eq!(fed.busy_fraction(1), 0.0);
        fed.release(p.server, 1);
        assert_eq!(fed.server_count(), 4);
        assert_eq!(fed.max_job_gpus(), 8);
        assert_eq!(fed.total_free_gpus(), 32);
    }

    #[test]
    fn policy_names_resolve() {
        for name in FEDERATION_POLICY_NAMES {
            let p = federation_policy_by_name(name).expect(name);
            assert_eq!(p.name(), name);
        }
        assert!(federation_policy_by_name("SPILLOVER").is_some());
        assert!(federation_policy_by_name("nope").is_none());
    }

    #[test]
    fn round_robin_rotates_and_least_loaded_sorts() {
        let fed = federation(3, 1, Box::new(SpilloverPolicy));
        let busy = |c: usize| fed.busy_fraction(c);
        let views = Candidates::new(fed.clusters.len(), &busy, &[]);
        // One buffer throughout: each ranking replaces the last.
        let mut order = Vec::new();
        RoundRobinPolicy.rank(&job(1, None, 2), &views, 0, &mut order);
        assert_eq!(order, [0, 1, 2]);
        RoundRobinPolicy.rank(&job(1, None, 2), &views, 2, &mut order);
        assert_eq!(order, [2, 0, 1]);
        LeastLoadedPolicy.rank(&job(1, None, 2), &views, 0, &mut order);
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "needs scores")]
    fn score_needing_policies_are_refused() {
        let _ = federation(2, 1, Box::new(crate::BestScorePolicy));
    }

    fn job(id: u64, tenant: Option<u64>, gpus: usize) -> JobSpec {
        let mut j = JobSpec::new(id, GpuDemand::Whole(gpus), Workload::Vgg16).with_iterations(1);
        j.tenant = tenant;
        j
    }

    #[test]
    fn global_indexing_round_trips_across_clusters() {
        let mut fed = federation(2, 2, Box::new(SpilloverPolicy));
        assert_eq!(fed.local(0), (0, 0));
        assert_eq!(fed.local(1), (0, 1));
        assert_eq!(fed.local(2), (1, 0));
        assert_eq!(fed.local(3), (1, 1));
        // Fill cluster 0 (2 shards × 8 GPUs), then the next job spills.
        for id in 0..4 {
            let p = fed.try_place(&job(id, None, 4)).expect("room in cluster 0");
            assert!(p.server < 2, "first-fit stays in cluster 0");
        }
        assert_eq!(fed.spillovers(), 0);
        let p = fed
            .try_place(&job(99, None, 4))
            .expect("cluster 1 has room");
        assert!(p.server >= 2, "spilled into cluster 1");
        assert_eq!(fed.spillovers(), 1);
        // Release through the global index reaches the right shard.
        fed.release(p.server, 99);
        assert_eq!(fed.total_free_gpus(), 16);
    }

    #[test]
    fn quota_blocks_and_releases_unblock() {
        let mut fed = federation(2, 1, Box::new(SpilloverPolicy)).with_default_quota(4);
        let p0 = fed.try_place(&job(1, Some(7), 3)).expect("under quota");
        assert_eq!(fed.tenant_gpus_in_use(7), 3);
        // 3 + 3 > 4 → deferred, and the hold is counted exactly once.
        assert!(fed.try_place(&job(2, Some(7), 3)).is_none());
        assert!(fed.try_place(&job(2, Some(7), 3)).is_none());
        let report = fed.federation_report().unwrap();
        assert_eq!(report.quota_holds, 1, "retries do not re-count");
        // Another tenant is unaffected.
        assert!(fed.try_place(&job(3, Some(8), 3)).is_some());
        // Release frees the quota; the job now fits.
        fed.release(p0.server, 1);
        assert_eq!(fed.tenant_gpus_in_use(7), 0);
        assert!(fed.try_place(&job(2, Some(7), 3)).is_some());
    }

    #[test]
    fn oversized_job_admitted_only_alone() {
        let mut fed = federation(1, 1, Box::new(SpilloverPolicy)).with_default_quota(2);
        // 5 > quota 2, but the tenant holds nothing → the valve admits it.
        let p = fed.try_place(&job(1, Some(3), 5)).expect("valve admits");
        // Holding 5, even a 1-GPU job is over quota.
        assert!(fed.try_place(&job(2, Some(3), 1)).is_none());
        fed.release(p.server, 1);
        assert!(fed.try_place(&job(2, Some(3), 1)).is_some());
    }

    #[test]
    fn gang_quota_checked_gang_wide() {
        let mut fed = federation(2, 1, Box::new(SpilloverPolicy)).with_default_quota(4);
        let members = vec![job(1, Some(5), 3), job(2, Some(5), 3)];
        // 6 > 4 with nothing held → valve admits the gang whole.
        let ps = fed
            .try_place_gang(&members)
            .expect("valve admits gangs too");
        assert_eq!(ps.len(), 2);
        assert_eq!(fed.tenant_gpus_in_use(5), 6);
        // Now the tenant is over; a second gang is refused.
        let more = vec![job(3, Some(5), 1)];
        assert!(fed.try_place_gang(&more).is_none());
    }

    #[test]
    fn gangs_pin_when_possible_and_span_when_not() {
        // Each cluster is one 8-GPU server; after the 6-GPU pinned gang
        // a 2+8 gang fits nowhere whole but spans (2 on cluster 0's
        // remainder, 8 on idle cluster 1).
        let mut fed = federation(2, 1, Box::new(SpilloverPolicy));
        let pinned = vec![job(1, None, 3), job(2, None, 3)];
        fed.try_place_gang(&pinned)
            .expect("6 GPUs pin on cluster 0");
        let spanning = vec![job(3, None, 2), job(4, None, 8)];
        let ps = fed.try_place_gang(&spanning).expect("spans both clusters");
        let clusters: HashSet<usize> = ps.iter().map(|p| fed.local(p.server).0).collect();
        assert_eq!(clusters.len(), 2, "members landed on both clusters");
        let report = fed.federation_report().unwrap();
        assert_eq!(report.gangs_pinned, 1);
        assert_eq!(report.gangs_spanned, 1);
    }

    #[test]
    fn spanning_rollback_restores_counters_and_occupancy() {
        let mut fed = federation(2, 1, Box::new(SpilloverPolicy));
        // 3 members × 6 GPUs = 18 > 16 total: must fail after placing 2.
        let doomed = vec![job(1, None, 6), job(2, None, 6), job(3, None, 6)];
        assert!(fed.try_place_gang(&doomed).is_none());
        assert_eq!(fed.total_free_gpus(), 16, "occupancy rolled back");
        let report = fed.federation_report().unwrap();
        assert_eq!(report.spillovers, 0, "counters rolled back");
        assert_eq!(report.clusters[0].jobs_routed, 0);
        assert_eq!(report.gangs_pinned + report.gangs_spanned, 0);
    }

    #[test]
    fn spanning_gang_rollback_leaves_no_phantom_tenant_peak() {
        let mut fed = federation(2, 1, Box::new(SpilloverPolicy));
        // 3 × 6 GPUs of tenant 5: the span books 12 GPUs, then fails.
        let doomed: Vec<JobSpec> = (1..=3).map(|id| job(id, Some(5), 6)).collect();
        assert!(fed.try_place_gang(&doomed).is_none());
        assert_eq!(fed.tenant_gpus_in_use(5), 0);
        let report = fed.federation_report().unwrap();
        assert!(
            report.tenants.is_empty(),
            "no tenant row for a gang that never ran: {:?}",
            report.tenants
        );
        // A tenant that really holds GPUs keeps its real peak.
        fed.try_place(&job(4, Some(5), 2))
            .expect("room on cluster 0");
        assert!(fed.try_place_gang(&doomed).is_none());
        let report = fed.federation_report().unwrap();
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.tenants[0].peak_gpus, 2, "not the span's 14");
        assert_eq!(fed.tenant_gpus_in_use(5), 2);
    }

    /// Re-admission order on a share tie between a held gang and a held
    /// job, submitted in `gang_first` order or the mirror one. Returns the
    /// clusters the gang and the job start on. Round-robin routes the
    /// first re-admitted item by rotation 2 (cluster 0) and the second by
    /// rotation 4 after a gang or 3 after a job, so the clusters tell the
    /// order.
    fn tie_break_clusters(gang_first: bool) -> (usize, usize) {
        let clusters = vec![
            cluster(1).with_shard_queues(8),
            cluster(1).with_shard_queues(8),
        ];
        let mut fed = Federation::new(clusters, Box::new(RoundRobinPolicy)).with_default_quota(4);
        // Tenants 1 and 2 fill their quotas, one cluster each.
        fed.admit(PendingJob::new(job(1, Some(1), 4), 0.0));
        fed.admit(PendingJob::new(job(2, Some(2), 4), 0.0));
        let gang = JobGroup::new(1, vec![job(3, Some(1), 1), job(4, Some(1), 1)]);
        let single = PendingJob::new(job(5, Some(2), 2), 0.0);
        if gang_first {
            fed.admit_gang(gang, 0.0);
            fed.admit(single);
        } else {
            fed.admit(single);
            fed.admit_gang(gang, 0.0);
        }
        let started = fed.pump(0.0);
        assert_eq!(started.len(), 2, "the gang and the job are held");
        for d in started {
            fed.release(d.placement.server, d.pending.job.id);
        }
        // Both tenants now hold nothing: equal dominant shares.
        let next = fed.pump(0.0);
        assert_eq!(next.len(), 3, "both held items re-admitted and started");
        let cluster_of = |id: u64| {
            let d = next.iter().find(|d| d.pending.job.id == id).unwrap();
            fed.local(d.placement.server).0
        };
        assert_eq!(cluster_of(3), cluster_of(4), "the gang is pinned");
        (cluster_of(3), cluster_of(5))
    }

    #[test]
    fn drf_share_ties_go_to_the_earlier_arrival_across_gangs_and_jobs() {
        assert_eq!(tie_break_clusters(true), (0, 0), "gang first, then job");
        assert_eq!(tie_break_clusters(false), (1, 0), "job first, then gang");
    }

    #[test]
    fn queued_path_routes_admits_and_pumps_with_drf_order() {
        let clusters = vec![
            cluster(1).with_shard_queues(8),
            cluster(1).with_shard_queues(8),
        ];
        let mut fed = Federation::new(clusters, Box::new(SpilloverPolicy)).with_default_quota(8);
        assert!(fed.manages_queues());
        // Tenant 1 takes 6 of its 8-GPU quota, tenant 2 takes 2 of its
        // own; both route to cluster 0 and start on the first pump.
        fed.admit(PendingJob::new(job(1, Some(1), 6), 0.0));
        fed.admit(PendingJob::new(job(2, Some(2), 2), 0.0));
        // Both tenants go over: two held jobs.
        fed.admit(PendingJob::new(job(3, Some(1), 4), 0.0));
        fed.admit(PendingJob::new(job(4, Some(2), 7), 0.0));
        assert_eq!(fed.queued_jobs(), 4, "2 in clusters, 2 held");
        let started = fed.pump(0.0);
        assert_eq!(started.len(), 2, "held jobs stay held while quota is full");
        let server_of = |id: u64| {
            started
                .iter()
                .find(|d| d.pending.job.id == id)
                .expect("started on the first pump")
                .placement
                .server
        };
        // Tenant 1 finishes → its quota frees → DRF re-admits *its* held
        // job (share fell to 0; tenant 2 is still over for a 7-GPU ask).
        fed.release(server_of(1), 1);
        let next = fed.pump(0.0);
        assert_eq!(next.len(), 1, "only the freed tenant drains");
        assert_eq!(next[0].pending.job.id, 3);
        // Tenant 2 frees next; its held job re-admits even though tenant
        // 1's job arrived first, and spills to cluster 1 for room.
        fed.release(server_of(2), 2);
        let last = fed.pump(0.0);
        assert_eq!(last.len(), 1, "held jobs re-admitted after release");
        assert_eq!(last[0].pending.job.id, 4);
        assert_eq!(fed.local(last[0].placement.server).0, 1, "spilled over");
        assert_eq!(fed.queued_jobs(), 0);
        let report = fed.federation_report().unwrap();
        assert_eq!(report.quota_holds, 2);
        assert_eq!(report.spillovers, 1);
    }

    #[test]
    fn single_cluster_federation_matches_bare_cluster_end_to_end() {
        // The unit-level smoke of the tests/federation.rs golden suite.
        let jobs = generator::paper_job_mix(5);
        let bare = Engine::over(cluster(3)).run(&jobs[..30]);
        let fed = Engine::over(Federation::new(vec![cluster(3)], Box::new(SpilloverPolicy)))
            .run(&jobs[..30]);
        assert_eq!(
            mapa_sim::digest::schedule_digest(&bare),
            mapa_sim::digest::schedule_digest(&fed),
            "1-cluster federation replays the bare cluster bit-for-bit"
        );
        assert!(fed.federation.is_some());
        assert!(bare.federation.is_none());
    }

    #[test]
    fn engine_enriches_per_cluster_and_per_tenant_counters() {
        let mut jobs: Vec<JobSpec> = generator::paper_job_mix(6)[..20].to_vec();
        mapa_workloads::assign_tenants(&mut jobs, 3);
        let report =
            Engine::over(federation(2, 2, Box::new(SpilloverPolicy)).with_default_quota(12))
                .run(&jobs);
        let fed = report.federation.as_ref().expect("federated run");
        let total_completed: usize = fed.clusters.iter().map(|c| c.jobs_completed).sum();
        assert_eq!(total_completed, 20, "every record maps to a cluster");
        let tenant_completed: usize = fed.tenants.iter().map(|t| t.jobs_completed).sum();
        assert_eq!(tenant_completed, 20, "every record maps to a tenant");
        for t in &fed.tenants {
            assert_eq!(t.quota_gpus, Some(12));
            assert!(t.peak_gpus <= 12, "quota conserved: {}", t.peak_gpus);
        }
        assert!(fed.clusters.iter().all(|c| c.gpu_count == 16));
    }

    #[test]
    fn shared_table_spans_the_clusters_of_a_federation() {
        let mut fed = federation(2, 2, Box::new(RoundRobinPolicy));
        fed.configure(&SimConfig::default());
        // Cluster 0 decides a shape on an idle DGX-1; cluster 1's idle
        // DGX-1 answers the same shape from that entry.
        assert_eq!(fed.try_place(&job(1, None, 3)).unwrap().server, 0);
        assert_eq!(fed.try_place(&job(2, None, 3)).unwrap().server, 2);
        let counts = |fed: &Federation, s: usize| {
            let stats = fed.server_cache_stats(s).expect("cached");
            (stats.hits, stats.misses)
        };
        assert_eq!((counts(&fed, 0), counts(&fed, 2)), ((0, 1), (1, 0)));
        let total = fed.cache_stats().unwrap();
        assert_eq!((total.hits, total.misses, total.insertions), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "job 1 is already allocated on cluster 0")]
    fn federation_refuses_a_duplicate_active_job_id_on_the_global_path() {
        let mut fed = federation(2, 1, Box::new(LeastLoadedPolicy));
        fed.configure(&SimConfig::default());
        fed.try_place(&job(1, None, 4)).expect("room on cluster 0");
        // Cluster 1 is idle, and would take the copy.
        let _ = fed.try_place(&job(1, None, 4));
    }

    #[test]
    #[should_panic(expected = "job 1 is already allocated on cluster 0")]
    fn federation_refuses_a_duplicate_active_job_id_on_the_queued_path() {
        let member = || cluster(1).with_shard_queues(4);
        let fed = Federation::new(vec![member(), member()], Box::new(SpilloverPolicy));
        let _ = Engine::over(fed).run(&[job(1, None, 8), job(1, None, 8)]);
    }

    /// Two clusters that differ only in GPU 0 of their one DGX-1 being
    /// split: ranking keeps a cluster only if it can host every member,
    /// so a whole 8-GPU job goes to the unsplit cluster on both paths.
    #[test]
    fn capacity_rule_ranks_only_clusters_that_can_host_the_job() {
        let split = mapa_topology::PartitionPlan::new()
            .split(0, 2)
            .apply(&machines::dgx1_v100());
        let member = |machine: &Topology| {
            let policy = || Box::new(PreservePolicy) as Box<dyn AllocationPolicy>;
            Cluster::new(vec![machine.clone()], policy, Box::new(LeastLoadedPolicy))
        };
        let fed = |queued: bool| {
            let clusters = [split.clone(), machines::dgx1_v100()].map(|m| {
                let c = member(&m);
                if queued {
                    c.with_shard_queues(4)
                } else {
                    c
                }
            });
            Federation::new(clusters.into(), Box::new(SpilloverPolicy))
        };
        let slices = |id, n| JobSpec::new(id, GpuDemand::Slices(n), Workload::ResNet50);
        let jobs = [
            job(1, None, 8),
            slices(2, 3).with_iterations(10),
            job(3, None, 4),
            job(4, None, 8),
            slices(5, 9).with_iterations(10),
        ];
        let schedule = |queued: bool| {
            let report = Engine::over(fed(queued)).run(&jobs);
            let rows = report.records.iter();
            let rows = rows.map(|r| (r.job.id, r.server, r.gpus.clone(), r.started_at));
            rows.collect::<Vec<_>>()
        };
        let global = schedule(false);
        assert_eq!(global, schedule(true));
        let server = |id: u64| global.iter().find(|r| r.0 == id).unwrap().1;
        assert_eq!([1, 4, 5].map(server), [1, 1, 0], "{global:?}");
    }

    /// A gang of two whole 4-GPU jobs fits each DGX-1 of `[DGX-1 with GPU 0
    /// split in two, DGX-1]` member by member, and the split cluster's 9
    /// vertices cover its 8 GPUs, but only 7 of them are unsplit GPUs: the
    /// queued path pins it to the unsplit cluster, as the global path
    /// places it, instead of to a cluster that can never co-start it.
    #[test]
    fn capacity_rule_pins_a_whole_gang_where_the_unsplit_gpus_hold_it() {
        let split = mapa_topology::PartitionPlan::new()
            .split(0, 2)
            .apply(&machines::dgx1_v100());
        let fed = |queued: bool| {
            let clusters = [split.clone(), machines::dgx1_v100()].map(|m| {
                let policy = || Box::new(PreservePolicy) as Box<dyn AllocationPolicy>;
                let c = Cluster::new(vec![m], policy, Box::new(LeastLoadedPolicy));
                if queued {
                    c.with_shard_queues(4)
                } else {
                    c
                }
            });
            Federation::new(clusters.into(), Box::new(SpilloverPolicy))
        };
        for queued in [false, true] {
            let gang = JobGroup::new(1, vec![job(1, None, 4), job(2, None, 4)]);
            let report = Engine::over(fed(queued))
                .try_run_submissions([Submission::Gang(gang)])
                .unwrap_or_else(|e| panic!("queued: {queued}: {e}"));
            let servers: Vec<usize> = report.records.iter().map(|r| r.server).collect();
            assert_eq!(servers, [1, 1], "queued: {queued}");
        }
    }

    #[test]
    fn federation_refuses_a_job_no_cluster_can_host_by_name() {
        let member = || cluster(2).with_shard_queues(4);
        let fed = || Federation::new(vec![member(), member()], Box::new(SpilloverPolicy));
        // The engine refuses this job as it arrives.
        let rejection = Engine::over(fed())
            .try_run_submissions([Submission::Job(job(1, None, 9))])
            .unwrap_err();
        assert!(
            rejection
                .to_string()
                .starts_with("job 1 requests 9 GPUs on a 8-GPU machine"),
            "{rejection}"
        );
        // A library caller admitting directly finds it queued for good:
        // no cluster takes it, and nothing is charged for it.
        let mut fed = fed();
        fed.admit(PendingJob::new(job(1, None, 9), 0.0));
        assert_eq!(fed.queued_jobs(), 1);
        assert!(fed.pump(0.0).is_empty());
        assert_eq!(fed.queued_jobs(), 1);
        assert_eq!(fed.federation_report().unwrap().clusters[0].jobs_routed, 0);
    }
}
