//! The coordinator: admission, the runner loop, durable state, and the
//! shared cross-job cache.
//!
//! One [`Coordinator`] owns a state directory:
//!
//! ```text
//! <state-dir>/
//!   queue.json          # QueueSnapshot — every job ever admitted
//!   cache.bin           # the shared MeasurementCache snapshot
//!   reports/job-<id>.json   # merged MatrixReport per completed job
//! ```
//!
//! Every mutation persists through the store's temp + rename idiom
//! before the verb answers, so a crash at any instant loses at most the
//! frame being processed; [`Coordinator::open`] reloads the snapshot
//! and re-queues whatever was mid-flight (the state machine's adopt
//! edge).
//!
//! The shared cache is the service's reason to exist as a *daemon*
//! rather than a loop around `hmpt-fleet run`: each job executes
//! against a private cache seeded from the shared one
//! ([`hmpt_core::store::fold`]), and its delta is folded back after the
//! merge — so two jobs whose scenario matrices overlap (the PR 4
//! boundary-cell case) simulate their shared cells exactly once,
//! service-lifetime-wide. The effect is visible in
//! [`JobStats`]: a re-submission of a measured spec reports
//! `simulated_cells == 0`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hmpt_core::cache::MeasurementCache;
use hmpt_core::exec::available_workers;
use hmpt_core::scenario::{MatrixReport, ShardReport};
use hmpt_core::store;
use hmpt_fleet::matrix::{run_matrix_sharded, MatrixConfig};
use hmpt_fleet::spec::{CampaignSpec, Resolved, ResolvedMatrix};
use serde::Value;

use crate::queue::{JobQueue, QueueConfig, QueueError, QueueSnapshot};
use crate::state::{JobRecord, JobState, JobStats};
use crate::wire::{ErrorKind, StatusView};

/// How the daemon is shaped. `workers` sizes each job's campaign-block
/// pool — a throughput knob only, results are bit-identical at any
/// value.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    pub state_dir: PathBuf,
    /// Campaign-block pool size per job; 0 means one per available CPU.
    pub workers: usize,
    /// Max live (queued + mid-flight) jobs per tenant.
    pub tenant_quota: usize,
    /// LRU bound applied to the shared cache before each save.
    pub cache_max_records: Option<u64>,
}

impl CoordinatorConfig {
    /// A config with the default quota and auto worker count.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        CoordinatorConfig {
            state_dir: state_dir.into(),
            workers: 0,
            tenant_quota: QueueConfig::default().tenant_quota,
            cache_max_records: None,
        }
    }
}

/// Why the coordinator refused a verb. Each variant maps onto one wire
/// [`ErrorKind`], so the server can answer typed errors without string
/// matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submission failed to parse, resolve, or suit the service.
    BadSpec(String),
    /// The tenant is at its live-job quota.
    Quota {
        tenant: String,
        quota: usize,
    },
    UnknownJob(u64),
    /// The job exists but the verb does not apply in its state.
    WrongState {
        job: u64,
        state: JobState,
    },
    /// The service is draining and takes no new work.
    Draining,
    /// State-dir I/O or another coordinator-side failure.
    Internal(String),
}

impl ServeError {
    /// The wire error kind this refusal travels as.
    pub fn kind(&self) -> ErrorKind {
        match self {
            ServeError::BadSpec(_) => ErrorKind::BadSpec,
            ServeError::Quota { .. } => ErrorKind::QuotaExceeded,
            ServeError::UnknownJob(_) => ErrorKind::UnknownJob,
            ServeError::WrongState { .. } => ErrorKind::WrongState,
            ServeError::Draining => ErrorKind::Draining,
            ServeError::Internal(_) => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadSpec(e) => write!(f, "bad spec: {e}"),
            ServeError::Quota { tenant, quota } => {
                write!(f, "tenant `{tenant}` is at its quota of {quota} live jobs")
            }
            ServeError::UnknownJob(job) => write!(f, "no job {job}"),
            ServeError::WrongState { job, state } => write!(f, "job {job} is {state}"),
            ServeError::Draining => write!(f, "service is draining; no new work accepted"),
            ServeError::Internal(e) => write!(f, "internal: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueueError> for ServeError {
    fn from(e: QueueError) -> Self {
        match e {
            QueueError::QuotaExceeded { tenant, quota } => ServeError::Quota { tenant, quota },
            QueueError::UnknownJob(job) => ServeError::UnknownJob(job),
            QueueError::WrongState { job, state } => ServeError::WrongState { job, state },
        }
    }
}

struct Inner {
    queue: JobQueue,
    draining: bool,
    /// Submission instants for the `serve.queue_wait` span; in-memory
    /// only — an adopted job's wait clock restarts at reopen.
    enqueued_at: BTreeMap<u64, Instant>,
}

/// The service core. All verbs are `&self` and thread-safe; the runner
/// loop ([`Coordinator::run`]) executes jobs one at a time while
/// connection threads admit and answer concurrently.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    inner: Mutex<Inner>,
    work: Condvar,
    cache: MeasurementCache,
}

/// Write `bytes` to `path` through a same-directory temp file + rename
/// — the store's atomicity idiom, reused for queue snapshots and
/// reports so a crash never leaves a half-written JSON document.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Intern a per-tenant counter name: `hmpt_obs` counters key on
/// `&'static str`, so each distinct tenant leaks its name once.
fn tenant_counter(tenant: &str) -> hmpt_obs::Counter {
    static NAMES: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES.lock().unwrap();
    let name = names
        .entry(tenant.to_string())
        .or_insert_with(|| &*Box::leak(format!("serve.tenant.{tenant}").into_boxed_str()));
    hmpt_obs::counter(name)
}

fn tenant_ok(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Coordinator {
    /// Open (or create) a state directory and adopt whatever it holds:
    /// the queue snapshot is reloaded, mid-flight jobs are re-queued,
    /// and the shared cache is preloaded from its snapshot. Unreadable
    /// snapshots are a cold start with a warning, not a refusal to
    /// serve — matching the fleet's cache-preload contract.
    pub fn open(cfg: CoordinatorConfig) -> Result<Coordinator, ServeError> {
        std::fs::create_dir_all(cfg.state_dir.join("reports")).map_err(|e| {
            ServeError::Internal(format!("create {}: {e}", cfg.state_dir.display()))
        })?;

        let mut queue = JobQueue::new(QueueConfig { tenant_quota: cfg.tenant_quota });
        let queue_path = cfg.state_dir.join("queue.json");
        if queue_path.exists() {
            let text = std::fs::read_to_string(&queue_path)
                .map_err(|e| ServeError::Internal(format!("{}: {e}", queue_path.display())))?;
            match serde_json::from_str::<QueueSnapshot>(&text) {
                Ok(snapshot) => {
                    queue =
                        JobQueue::restore(snapshot, QueueConfig { tenant_quota: cfg.tenant_quota });
                    let adopted = queue.adopt_all();
                    if adopted > 0 {
                        hmpt_obs::info(
                            "serve.adopt",
                            format!("re-queued {adopted} job(s) interrupted mid-flight"),
                        );
                    }
                }
                Err(e) => {
                    hmpt_obs::warn(
                        "serve.state",
                        format!(
                            "ignoring unreadable queue snapshot {} (cold start): {e}",
                            queue_path.display()
                        ),
                    );
                }
            }
        }

        let cache = MeasurementCache::new();
        let cache_path = cfg.state_dir.join("cache.bin");
        if cache_path.exists() {
            match store::load_into(&cache, &cache_path) {
                Ok(report) => {
                    if report.skipped > 0 || report.truncated {
                        hmpt_obs::warn(
                            "serve.cache",
                            format!(
                                "shared cache {} partially recovered ({} loaded, {} skipped{})",
                                cache_path.display(),
                                report.loaded,
                                report.skipped,
                                if report.truncated { ", truncated" } else { "" }
                            ),
                        );
                    }
                }
                Err(e) => {
                    hmpt_obs::warn(
                        "serve.cache",
                        format!("ignoring shared cache {} (cold start): {e}", cache_path.display()),
                    );
                }
            }
        }

        hmpt_obs::gauge("queue.depth").set(queue.depth() as u64);
        Ok(Coordinator {
            cfg,
            inner: Mutex::new(Inner { queue, draining: false, enqueued_at: BTreeMap::new() }),
            work: Condvar::new(),
            cache,
        })
    }

    /// Cells currently in the shared cross-job cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Admit a campaign: validate the spec, gate on the tenant quota,
    /// persist the queue, wake the runner. Returns the job id and the
    /// spec fingerprint the merged report will carry.
    pub fn submit(
        &self,
        tenant: &str,
        priority: i64,
        spec_text: &str,
    ) -> Result<(u64, String), ServeError> {
        if !tenant_ok(tenant) {
            return Err(ServeError::BadSpec(format!(
                "tenant `{tenant}` is not a name (1–64 chars of [A-Za-z0-9._-])"
            )));
        }
        let spec =
            CampaignSpec::parse(spec_text).map_err(|e| ServeError::BadSpec(e.to_string()))?;
        let fingerprint =
            spec.fingerprint().map_err(|e| ServeError::BadSpec(e.to_string()))?.to_string();
        match spec.resolve().map_err(|e| ServeError::BadSpec(e.to_string()))? {
            Resolved::Batch(_) => {
                return Err(ServeError::BadSpec(
                    "the service executes matrix-mode specs; run batch specs directly".into(),
                ))
            }
            Resolved::Matrix(m) => {
                if m.shard.is_some() {
                    return Err(ServeError::BadSpec(
                        "the service owns sharding; submit the spec without a `shard` axis".into(),
                    ));
                }
            }
        }

        let mut inner = self.inner.lock().unwrap();
        if inner.draining {
            return Err(ServeError::Draining);
        }
        let id =
            inner.queue.submit(tenant, priority, spec_text.to_string(), fingerprint.clone())?;
        inner.enqueued_at.insert(id, Instant::now());
        hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
        hmpt_obs::counter("job.queued").incr();
        tenant_counter(tenant).incr();
        if let Err(e) = self.persist_queue(&inner) {
            // Roll the admission back: an unpersisted job would silently
            // vanish on restart, which is worse than a typed refusal.
            let _ = inner.queue.cancel(id);
            inner.enqueued_at.remove(&id);
            hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
            return Err(e);
        }
        self.work.notify_all();
        Ok((id, fingerprint))
    }

    /// Status of one job (typed error if unknown) or of everything.
    pub fn status(&self, job: Option<u64>) -> Result<StatusView, ServeError> {
        let inner = self.inner.lock().unwrap();
        if let Some(id) = job {
            if inner.queue.get(id).is_none() {
                return Err(ServeError::UnknownJob(id));
            }
        }
        Ok(StatusView {
            jobs: inner.queue.statuses(job),
            queue_depth: inner.queue.depth() as u64,
            draining: inner.draining,
        })
    }

    /// The merged `MatrixReport` of a completed job, as parsed JSON.
    pub fn report(&self, job: u64) -> Result<Value, ServeError> {
        {
            let inner = self.inner.lock().unwrap();
            let record = inner.queue.get(job).ok_or(ServeError::UnknownJob(job))?;
            if record.state != JobState::Completed {
                return Err(ServeError::WrongState { job, state: record.state });
            }
        }
        let path = self.report_path(job);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ServeError::Internal(format!("{}: {e}", path.display())))?;
        serde_json::parse(&text)
            .map_err(|e| ServeError::Internal(format!("{}: {e}", path.display())))
    }

    /// Cancel a queued job (running work is never interrupted).
    pub fn cancel(&self, job: u64) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        inner.queue.cancel(job)?;
        inner.enqueued_at.remove(&job);
        hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
        hmpt_obs::counter("job.cancelled").incr();
        self.persist_queue(&inner)
    }

    /// Stop accepting work. The running job (if any) finishes; queued
    /// jobs stay persisted for the next `open` to adopt. Returns the
    /// (queued, running) counts at the instant the drain took effect.
    pub fn drain(&self) -> (u64, u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.draining = true;
        let counts = (inner.queue.depth() as u64, inner.queue.running() as u64);
        self.work.notify_all();
        counts
    }

    /// Is the service draining?
    pub fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// The runner loop: claim → execute → merge → fold → persist, one
    /// job at a time, until drained. Blocks; the daemon calls this on
    /// its main thread while the TCP server answers on its own.
    pub fn run(&self) {
        loop {
            let claim = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if inner.draining {
                        break None;
                    }
                    if let Some(id) = inner.queue.next_runnable() {
                        break Some(id);
                    }
                    let (guard, _) =
                        self.work.wait_timeout(inner, Duration::from_millis(200)).unwrap();
                    inner = guard;
                }
            };
            match claim {
                Some(id) => self.execute(id),
                None => break,
            }
        }
        // Drained: one final atomic persist of queue + cache, then the
        // caller may exit. Queued jobs survive for the next open().
        let inner = self.inner.lock().unwrap();
        let queued = inner.queue.depth();
        let persist = self.persist_queue(&inner);
        drop(inner);
        self.persist_cache();
        match persist {
            Ok(()) => hmpt_obs::info(
                "serve.drain",
                format!("drained; {queued} queued job(s) persisted for the next start"),
            ),
            Err(e) => hmpt_obs::warn("serve.drain", format!("drained, but: {e}")),
        }
    }

    /// Execute at most one queued job (the test/tool-facing step of
    /// [`Coordinator::run`]). Returns whether a job ran.
    pub fn run_one(&self) -> bool {
        let claim = {
            let inner = self.inner.lock().unwrap();
            if inner.draining {
                None
            } else {
                inner.queue.next_runnable()
            }
        };
        match claim {
            Some(id) => {
                self.execute(id);
                true
            }
            None => false,
        }
    }

    /// Run queued jobs until the queue is idle.
    pub fn run_until_idle(&self) {
        while self.run_one() {}
    }

    // -- internals ---------------------------------------------------------

    fn report_path(&self, job: u64) -> PathBuf {
        self.cfg.state_dir.join("reports").join(format!("job-{job}.json"))
    }

    fn persist_queue(&self, inner: &Inner) -> Result<(), ServeError> {
        let snapshot = inner.queue.snapshot();
        let json = serde_json::to_string_pretty(&snapshot)
            .map_err(|e| ServeError::Internal(format!("serialize queue snapshot: {e}")))?;
        let path = self.cfg.state_dir.join("queue.json");
        write_atomic(&path, json.as_bytes())
            .map_err(|e| ServeError::Internal(format!("{}: {e}", path.display())))
    }

    fn persist_cache(&self) {
        if let Some(max) = self.cfg.cache_max_records {
            self.cache.compact(max as usize);
        }
        let path = self.cfg.state_dir.join("cache.bin");
        if let Err(e) = store::save(&self.cache, &path) {
            hmpt_obs::warn(
                "serve.cache",
                format!("shared cache not saved: {}: {e}", path.display()),
            );
        }
    }

    /// One job, end to end. State transitions persist as they happen,
    /// so a crash anywhere inside re-queues the job on the next open.
    fn execute(&self, id: u64) {
        let record = {
            let mut inner = self.inner.lock().unwrap();
            let Some(record) = inner.queue.get_mut(id) else { return };
            if record.transition(JobState::Running).is_err() {
                return; // cancelled between claim and lock
            }
            let record = record.clone();
            if let Some(enqueued) = inner.enqueued_at.remove(&id) {
                hmpt_obs::record_span(
                    "serve.queue_wait",
                    Some(format!("job {id}")),
                    enqueued.elapsed(),
                );
            }
            hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
            hmpt_obs::counter("job.running").incr();
            if let Err(e) = self.persist_queue(&inner) {
                hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
            }
            record
        };

        let started = Instant::now();
        let _job = hmpt_obs::span_with("serve.job", || format!("job {id} {}", record.tenant));
        let simulated = self.simulate(&record);
        let (shard, job_cache) = match simulated {
            Ok(pair) => pair,
            Err(message) => return self.finish_failed(id, message),
        };

        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(record) = inner.queue.get_mut(id) {
                let _ = record.transition(JobState::Merging);
            }
            if let Err(e) = self.persist_queue(&inner) {
                hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
            }
        }

        let merge_started = Instant::now();
        let merged = {
            let _m = hmpt_obs::span_with("serve.merge", || format!("job {id}"));
            self.merge_and_fold(&record, shard, &job_cache)
        };
        let report = match merged {
            Ok(report) => report,
            Err(message) => return self.finish_failed(id, message),
        };
        let merge_s = merge_started.elapsed().as_secs_f64();

        let json = serde_json::to_string_pretty(&report).expect("matrix reports always serialize");
        if let Err(e) = write_atomic(&self.report_path(id), json.as_bytes()) {
            return self.finish_failed(id, format!("write report: {e}"));
        }

        let stats = JobStats {
            scenarios: report.stats.scenarios as u64,
            planned_cells: report.stats.planned_cells,
            executed_cells: report.stats.executed_cells,
            simulated_cells: report.stats.cache.misses,
            cells_skipped: report.stats.cache.hits,
            wall_s: started.elapsed().as_secs_f64(),
            merge_s,
        };
        let mut inner = self.inner.lock().unwrap();
        if let Some(record) = inner.queue.get_mut(id) {
            let _ = record.transition(JobState::Completed);
            record.stats = Some(stats);
        }
        hmpt_obs::counter("job.merged").incr();
        if let Err(e) = self.persist_queue(&inner) {
            hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
        }
    }

    /// Resolve the job's spec and run its whole matrix as one range
    /// through the campaign-block pool, against a private cache seeded
    /// from the shared one.
    fn simulate(&self, record: &JobRecord) -> Result<(ShardReport, Arc<MeasurementCache>), String> {
        let resolved = CampaignSpec::parse(&record.spec)
            .and_then(|spec| spec.resolve())
            .map_err(|e| e.to_string())?;
        let ResolvedMatrix { matrix, config, verify, .. } = match resolved {
            Resolved::Matrix(m) => m,
            Resolved::Batch(_) => return Err("batch spec reached the runner".into()),
        };

        let job_cache = Arc::new(MeasurementCache::new());
        let seeded = store::fold(&job_cache, &self.cache);
        if seeded.loaded > 0 {
            hmpt_obs::info(
                "serve.fold",
                format!("job {}: seeded {} cells from the shared cache", record.id, seeded.loaded),
            );
        }

        let workers = match self.cfg.workers {
            0 => available_workers(),
            n => n,
        };
        let whole = matrix.shard(0, 1);
        let config = MatrixConfig { workers, ..config };
        let report = run_matrix_sharded(&matrix, &config, whole, Arc::clone(&job_cache))
            .map_err(|e| e.to_string())?;
        if verify {
            // The spec asked for the bit-identity audit: re-run serial
            // and uncached, exactly like the offline shard path.
            let vcfg = MatrixConfig { workers: 1, cache_enabled: false, ..config };
            let other =
                run_matrix_sharded(&matrix, &vcfg, whole, Arc::new(MeasurementCache::new()))
                    .map_err(|e| format!("verify re-run: {e}"))?;
            if !report.bit_identical(&other) {
                return Err("diverged from the serial-uncached re-run".into());
            }
        }
        Ok((report, job_cache))
    }

    /// Fingerprint-validate the job's report and assemble it, then fold
    /// the job's cache delta into the shared cache and persist it.
    fn merge_and_fold(
        &self,
        record: &JobRecord,
        shard: ShardReport,
        job_cache: &MeasurementCache,
    ) -> Result<MatrixReport, String> {
        if shard.matrix_fingerprint != record.fingerprint {
            return Err(format!(
                "job fingerprint {} does not match the spec fingerprint {}",
                shard.matrix_fingerprint, record.fingerprint
            ));
        }
        let mut report = MatrixReport::merge(&[shard]).map_err(|e| e.to_string())?;
        report.spec_fingerprint = Some(record.fingerprint.clone());
        if !report.capacity_ok() {
            return Err("scenario exceeds machine capacity".into());
        }
        let folded = store::fold(&self.cache, job_cache);
        hmpt_obs::info(
            "serve.fold",
            format!("job {}: folded {} cells into the shared cache", record.id, folded.loaded),
        );
        self.persist_cache();
        Ok(report)
    }

    fn finish_failed(&self, id: u64, message: String) {
        hmpt_obs::warn("serve.job", format!("job {id} failed: {message}"));
        let mut inner = self.inner.lock().unwrap();
        if let Some(record) = inner.queue.get_mut(id) {
            let _ = record.transition(JobState::Failed);
            record.error = Some(message);
        }
        hmpt_obs::counter("job.failed").incr();
        if let Err(e) = self.persist_queue(&inner) {
            hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
        }
    }
}
