//! Span tracing from outside the program: wrappers around the two public
//! seams — [`SchedulerBackend`] and [`AllocationPolicy`] — that time every
//! call and forward it unchanged. Nothing inside the repo's crates is
//! instrumented; the nesting `policy.select` ⊂ `backend.*` ⊂ `engine.run`
//! falls out of who calls whom.
//!
//! Counters are always aggregated per span kind. Raw spans are kept in
//! memory for the first [`RAW_SPAN_CAP`] and written as JSON lines when
//! the run ends.

use mapa::core::policy::{AllocationPolicy, PolicyContext};
use mapa::core::{CacheStats, PreemptionPolicy};
use mapa::sim::{
    DispatchReport, DispatchedJob, Eviction, FederationReport, PendingJob, Placement,
    SchedulerBackend, SimConfig,
};
use mapa::topology::Topology;
use mapa::workloads::{JobGroup, JobSpec};
use std::collections::HashSet;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Raw spans retained per run; later spans only feed the counters.
pub const RAW_SPAN_CAP: usize = 50_000;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EngineRun,
    TryPlace,
    TryPlaceGang,
    Admit,
    AdmitGang,
    Pump,
    Release,
    ReleaseBatch,
    PreemptFor,
    PreemptBlocked,
    PolicySelect,
    /// `MapaAllocator::try_allocate` driven directly (`alloc_churn`).
    TryAllocate,
    /// `MapaAllocator::release` driven directly (`alloc_churn`).
    AllocRelease,
}

impl Kind {
    /// Number of kinds (`AllocRelease` is the last variant).
    const COUNT: usize = Kind::AllocRelease as usize + 1;

    /// The nine `SchedulerBackend` methods that get a span.
    pub const BACKEND: [Kind; 9] = [
        Kind::TryPlace,
        Kind::TryPlaceGang,
        Kind::Admit,
        Kind::AdmitGang,
        Kind::Pump,
        Kind::Release,
        Kind::ReleaseBatch,
        Kind::PreemptFor,
        Kind::PreemptBlocked,
    ];

    /// Span name in the trace file; for backend kinds also the `<m>` of
    /// the `backend.<m>.*` metrics.
    pub fn name(self) -> &'static str {
        match self {
            Kind::EngineRun => "engine.run",
            Kind::TryPlace => "backend.try_place",
            Kind::TryPlaceGang => "backend.try_place_gang",
            Kind::Admit => "backend.admit",
            Kind::AdmitGang => "backend.admit_gang",
            Kind::Pump => "backend.pump",
            Kind::Release => "backend.release",
            Kind::ReleaseBatch => "backend.release_batch",
            Kind::PreemptFor => "backend.preempt_for",
            Kind::PreemptBlocked => "backend.preempt_blocked",
            Kind::PolicySelect => "policy.select",
            Kind::TryAllocate => "allocator.try_allocate",
            Kind::AllocRelease => "allocator.release",
        }
    }
}

/// Aggregated counters of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of (duration − time covered by child spans).
    pub self_ns: u64,
    /// Useful outcomes: placements made (`try_place`, `try_place_gang`,
    /// `try_allocate`), jobs dispatched (`pump`), victims evicted
    /// (`preempt_*`), selections that returned GPUs (`policy.select`).
    pub useful: u64,
    /// Calls that produced nothing (`useful` did not move).
    pub empty: u64,
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    id: u32,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    job: Option<u64>,
}

struct Open {
    id: u32,
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    job: Option<u64>,
}

struct State {
    open: Vec<Open>,
    next_id: u32,
    spans: Vec<RawSpan>,
    counters: [Counters; Kind::COUNT],
}

/// The shared span sink. One per traced run; the backend wrapper and every
/// policy wrapper hold the same `Arc`.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            state: Mutex::new(State {
                open: Vec::new(),
                next_id: 0,
                spans: Vec::new(),
                counters: [Counters::default(); Kind::COUNT],
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a traced call panicked while holding the tracer")
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn enter(&self, kind: Kind, job: Option<u64>) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.open.push(Open {
            id,
            kind,
            start_ns,
            child_ns: 0,
            job,
        });
    }

    /// Closes the innermost open span, which must be of `kind`, crediting
    /// `useful` outcomes to it.
    pub fn exit(&self, kind: Kind, useful: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        let span = st.open.pop().expect("exit without a matching enter");
        assert_eq!(span.kind, kind, "spans must nest");
        let duration = end_ns - span.start_ns;
        let parent = st.open.last_mut().map(|p| {
            p.child_ns += duration;
            p.id
        });
        let c = &mut st.counters[kind as usize];
        c.calls += 1;
        c.busy_ns += duration;
        c.self_ns += duration - span.child_ns.min(duration);
        c.useful += useful;
        c.empty += u64::from(useful == 0);
        if st.spans.len() < RAW_SPAN_CAP {
            st.spans.push(RawSpan {
                id: span.id,
                kind,
                start_ns: span.start_ns,
                end_ns,
                parent,
                job: span.job,
            });
        }
    }

    /// Times `f` under a span of `kind`; `useful` maps its result to the
    /// number of useful outcomes.
    pub fn span<T>(
        &self,
        kind: Kind,
        job: Option<u64>,
        f: impl FnOnce() -> T,
        useful: impl FnOnce(&T) -> u64,
    ) -> T {
        self.enter(kind, job);
        let out = f();
        self.exit(kind, useful(&out));
        out
    }

    pub fn counters(&self, kind: Kind) -> Counters {
        self.lock().counters[kind as usize]
    }

    /// Writes the retained raw spans as JSON lines
    /// `{"id", "name", "start_ns", "end_ns", "parent", "job"}` in closing
    /// order (children before their parent); ids count spans in opening
    /// order and `parent` is the id of the enclosing span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let st = self.lock();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &st.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                s.id,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.job),
            )?;
        }
        out.flush()?;
        Ok(st.spans.len())
    }
}

/// Forwards every [`SchedulerBackend`] method to `inner`, with a span
/// around the nine that do scheduling work. The defaulted methods are
/// forwarded too — `manages_queues` above all, or the engine would drive
/// the wrapped backend through the wrong protocol.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B: SchedulerBackend> TracedBackend<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<B: SchedulerBackend> SchedulerBackend for TracedBackend<B> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn policy_label(&self) -> String {
        self.inner.policy_label()
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn server_topology(&self, server: usize) -> &Topology {
        self.inner.server_topology(server)
    }

    fn server_cache_stats(&self, server: usize) -> Option<CacheStats> {
        self.inner.server_cache_stats(server)
    }

    fn max_job_gpus(&self) -> usize {
        self.inner.max_job_gpus()
    }

    fn total_free_gpus(&self) -> usize {
        self.inner.total_free_gpus()
    }

    fn configure(&mut self, config: &SimConfig) {
        self.inner.configure(config);
    }

    fn try_place(&mut self, job: &JobSpec) -> Option<Placement> {
        let inner = &mut self.inner;
        self.tracer.span(
            Kind::TryPlace,
            Some(job.id),
            || inner.try_place(job),
            |p| u64::from(p.is_some()),
        )
    }

    fn release(&mut self, server: usize, job: u64) {
        let inner = &mut self.inner;
        self.tracer.span(
            Kind::Release,
            Some(job),
            || inner.release(server, job),
            |()| 1,
        );
    }

    fn release_batch(&mut self, released: &[(usize, u64)]) {
        let inner = &mut self.inner;
        self.tracer.span(
            Kind::ReleaseBatch,
            None,
            || inner.release_batch(released),
            |()| released.len() as u64,
        );
    }

    fn try_place_gang(&mut self, members: &[JobSpec]) -> Option<Vec<Placement>> {
        let inner = &mut self.inner;
        self.tracer.span(
            Kind::TryPlaceGang,
            members.first().map(|m| m.id),
            || inner.try_place_gang(members),
            |p| p.as_ref().map_or(0, |p| p.len() as u64),
        )
    }

    fn preempt_for(
        &mut self,
        job: &JobSpec,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        let inner = &mut self.inner;
        self.tracer.span(
            Kind::PreemptFor,
            Some(job.id),
            || inner.preempt_for(job, policy, shielded),
            |e| e.len() as u64,
        )
    }

    fn preempt_blocked(
        &mut self,
        policy: PreemptionPolicy,
        shielded: &HashSet<u64>,
    ) -> Vec<Eviction> {
        let inner = &mut self.inner;
        self.tracer.span(
            Kind::PreemptBlocked,
            None,
            || inner.preempt_blocked(policy, shielded),
            |e| e.len() as u64,
        )
    }

    fn manages_queues(&self) -> bool {
        self.inner.manages_queues()
    }

    fn admit(&mut self, pending: PendingJob) {
        let inner = &mut self.inner;
        let id = pending.job.id;
        self.tracer
            .span(Kind::Admit, Some(id), || inner.admit(pending), |()| 1);
    }

    fn admit_gang(&mut self, gang: JobGroup, submitted_at: f64) {
        let inner = &mut self.inner;
        let members = gang.len() as u64;
        self.tracer.span(
            Kind::AdmitGang,
            gang.members.first().map(|m| m.id),
            || inner.admit_gang(gang, submitted_at),
            |()| members,
        );
    }

    fn pump(&mut self, now: f64) -> Vec<DispatchedJob> {
        let inner = &mut self.inner;
        self.tracer
            .span(Kind::Pump, None, || inner.pump(now), |d| d.len() as u64)
    }

    fn queued_jobs(&self) -> usize {
        self.inner.queued_jobs()
    }

    fn dispatch_report(&self) -> Option<DispatchReport> {
        self.inner.dispatch_report()
    }

    fn federation_report(&self) -> Option<FederationReport> {
        self.inner.federation_report()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// Forwards an [`AllocationPolicy`] — `name()` included, so reports and
/// labels are unchanged — with a span around `select`.
pub struct TracedPolicy {
    inner: Box<dyn AllocationPolicy>,
    tracer: Arc<Tracer>,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn AllocationPolicy>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl AllocationPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&self, job: &JobSpec, ctx: &PolicyContext<'_>) -> Option<Vec<usize>> {
        self.tracer.span(
            Kind::PolicySelect,
            Some(job.id),
            || self.inner.select(job, ctx),
            |s| u64::from(s.is_some()),
        )
    }
}

/// `policy`, wrapped when a tracer is given.
pub fn maybe_traced(
    policy: Box<dyn AllocationPolicy>,
    tracer: Option<&Arc<Tracer>>,
) -> Box<dyn AllocationPolicy> {
    match tracer {
        Some(t) => Box::new(TracedPolicy::new(policy, Arc::clone(t))),
        None => policy,
    }
}

/// `f` under a span of `kind` when a tracer is given, bare otherwise.
pub fn maybe_span<T>(
    tracer: Option<&Arc<Tracer>>,
    kind: Kind,
    job: Option<u64>,
    f: impl FnOnce() -> T,
    useful: impl FnOnce(&T) -> u64,
) -> T {
    match tracer {
        Some(t) => t.span(kind, job, f, useful),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_recorded() {
        let t = Tracer::new();
        t.enter(Kind::EngineRun, None);
        t.enter(Kind::Pump, None);
        t.enter(Kind::PolicySelect, Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(Kind::PolicySelect, 1);
        t.exit(Kind::Pump, 0);
        t.exit(Kind::EngineRun, 0);

        let run = t.counters(Kind::EngineRun);
        let pump = t.counters(Kind::Pump);
        let select = t.counters(Kind::PolicySelect);
        assert_eq!((run.calls, pump.calls, select.calls), (1, 1, 1));
        assert_eq!(select.self_ns, select.busy_ns);
        assert_eq!(pump.self_ns, pump.busy_ns - select.busy_ns);
        assert_eq!(run.self_ns, run.busy_ns - pump.busy_ns);
        assert_eq!((select.useful, select.empty), (1, 0));
        assert_eq!((pump.useful, pump.empty), (0, 1));

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        let path = dir.join("trace.jsonl");
        assert_eq!(t.write_jsonl(&path).unwrap(), 3);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        // Closing order: select (id 2), pump (id 1), run (id 0).
        let first = mapa::report::parse_json(lines[0]).unwrap();
        assert_eq!(first.get("id").unwrap().as_f64(), Some(2.0));
        assert_eq!(first.get("name").unwrap().as_str(), Some("policy.select"));
        assert_eq!(first.get("job").unwrap().as_f64(), Some(7.0));
        assert_eq!(first.get("parent").unwrap().as_f64(), Some(1.0));
        let last = mapa::report::parse_json(lines[2]).unwrap();
        assert_eq!(last.get("name").unwrap().as_str(), Some("engine.run"));
        assert_eq!(last.get("parent"), Some(&mapa::report::Json::Null));
    }
}
