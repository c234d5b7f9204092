//! Untraced work: per-workload preparation (inputs and references,
//! outside every timed window) and one timed iteration.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hmpt_core::driver::Analysis;
use hmpt_core::scenario::MatrixReport;
use hmpt_fleet::api::{self, BatchOutcome, Request, Response};
use hmpt_fleet::spec::{CacheSection, CampaignSpec, ExecutionSection, Resolved};
use hmpt_served::{Client, Coordinator, CoordinatorConfig, JobState, Server};
use serde::Value;

use crate::{cpu_now, inputs, json_list, json_object, Workload};

/// How often a served tenant polls `Status` while its job runs — far
/// below a job's tens of milliseconds, so turnaround measures the
/// service and not the poller.
pub const POLL: Duration = Duration::from_millis(2);

/// A served job that takes longer than this (jobs take tens of
/// milliseconds) fails its iteration instead of hanging it.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

pub fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse a spec document into a request: the per-request set-up, under
/// the harness span the traced run charges to `fleet.spec`.
pub fn request(text: &str) -> Result<Request, String> {
    let _span = hmpt_obs::span("spec.parse");
    let spec = CampaignSpec::parse(text).map_err(|e| e.to_string())?;
    Request::from_spec(spec).map_err(|e| e.to_string())
}

/// What `api::execute` does with a spec document before its first
/// campaign: parse, fingerprint and resolve it.
pub fn resolve(text: &str) -> Result<Resolved, String> {
    let spec = CampaignSpec::parse(text).map_err(|e| e.to_string())?;
    spec.fingerprint().map_err(|e| e.to_string())?;
    spec.resolve().map_err(|e| e.to_string())
}

/// Parse a spec document and execute it through the one request API.
pub fn execute_text(text: &str) -> Result<Response, String> {
    api::execute(&request(text)?).map_err(|e| e.to_string())
}

pub fn matrix_of(response: Response) -> Result<MatrixReport, String> {
    match response {
        Response::Matrix(outcome) => match outcome.save_error {
            None => Ok(outcome.report),
            Some(e) => Err(format!("cache snapshot not saved: {e}")),
        },
        other => Err(format!("expected a matrix response, got {other:?}")),
    }
}

pub fn batch_of(response: Response) -> Result<BatchOutcome, String> {
    match response {
        Response::Batch(outcome) => Ok(outcome),
        other => Err(format!("expected a batch response, got {other:?}")),
    }
}

/// `spec` run serial, uncached and unverified — the reference every
/// other execution strategy must reproduce bit for bit.
fn serial_uncached(spec: &CampaignSpec) -> CampaignSpec {
    let mut spec = spec.clone();
    spec.execution = Some(ExecutionSection {
        serial: Some(true),
        verify: Some(false),
        compare: None,
        online: None,
        ..spec.execution.unwrap_or_default()
    });
    if spec.mode.as_deref() == Some("batch") {
        let exec = spec.execution.as_mut().expect("set above");
        exec.verify = None;
        exec.compare = Some(false);
        exec.online = Some(false);
    }
    spec.cache = Some(CacheSection { enabled: Some(false), ..Default::default() });
    spec
}

/// One batch request's results as a digest.
pub fn batch_digest(outcome: &BatchOutcome) -> String {
    digest(outcome.report.reports.iter().map(|r| &r.analysis))
}

/// Analyses as a digest: every campaign measurement and Table II
/// quantity, by float bits.
pub fn digest<'a>(analyses: impl IntoIterator<Item = &'a Analysis>) -> String {
    let mut h = Fnv::default();
    for a in analyses {
        h.eat(a.workload.as_bytes());
        for m in &a.campaign.measurements {
            h.eat(&m.config.0.to_le_bytes());
            h.eat(&m.mean_s.to_bits().to_le_bytes());
            h.eat(&m.std_s.to_bits().to_le_bytes());
        }
        let t = &a.table2;
        for x in [t.max_speedup, t.hbm_only_speedup, t.usage_90_pct] {
            h.eat(&x.to_bits().to_le_bytes());
        }
        h.eat(&t.best_config.0.to_le_bytes());
        h.eat(&t.config_90.0.to_le_bytes());
    }
    format!("{:016x}", h.0)
}

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Write the workload's inputs and the check references into `dir`.
/// Nothing here is timed.
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Result<String, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match workload {
        Workload::ZooCold => {
            let spec = inputs::zoo_cold(seed);
            write(&dir.join("spec.toml"), &spec.to_toml())?;
            let reference = matrix_of(execute_text(&serial_uncached(&spec).to_toml())?)?;
            write(&dir.join("ref.json"), &to_json(&reference)?)?;
        }
        Workload::Table2Batch => {
            let mut digests = Vec::new();
            for (i, spec) in inputs::table2(seed).iter().enumerate() {
                write(&dir.join(format!("t2-{i}.toml")), &spec.to_toml())?;
                let outcome = batch_of(execute_text(&serial_uncached(spec).to_toml())?)?;
                digests.push(batch_digest(&outcome));
            }
            write(&dir.join("ref.txt"), &digests.join("\n"))?;
        }
        Workload::ServedTenants => {
            let (pool, streams) = inputs::served(seed);
            for (i, spec) in pool.iter().enumerate() {
                let text = spec.to_toml();
                write(&dir.join(format!("pool-{i}.toml")), &text)?;
                let reference = matrix_of(execute_text(&text)?)?;
                let rows = rows_text(&serde_json::to_value(&reference.scenarios));
                write(&dir.join(format!("ref-{i}.txt")), &rows)?;
            }
            let lines: Vec<String> = streams
                .iter()
                .map(|s| s.iter().map(usize::to_string).collect::<Vec<_>>().join(" "))
                .collect();
            write(&dir.join("streams.txt"), &lines.join("\n"))?;
        }
    }
    Ok(json_object(&[("ok", "true".into())]))
}

/// The set-up step repeats the workload's set-up at least
/// [`SETUP_MIN_REPEATS`] times and for at least [`SETUP_SECONDS`]. A
/// served set-up stops after [`SERVED_MAX_REPEATS`]: every daemon start
/// leaves a detached accept thread and its listener behind.
const SETUP_MIN_REPEATS: usize = 20;
const SETUP_SECONDS: f64 = 0.5;
const SERVED_MAX_REPEATS: usize = 200;

/// Time the workload's own set-up — what it does once before its first
/// timed operation — over many repeats; prints the median as `setup_s`.
///
/// - zoo-cold and table2-batch: read each request's spec and
///   [`resolve`] it.
/// - served-tenants: `Daemon::start` on an empty state directory
///   (`Coordinator::open`, the loopback bind, the runner thread). The
///   drain that stops it again is not timed.
pub fn setup(workload: Workload, dir: &Path) -> Result<String, String> {
    let max_repeats = match workload {
        Workload::ServedTenants => SERVED_MAX_REPEATS,
        _ => usize::MAX,
    };
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < max_repeats && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        times.push(match workload {
            Workload::ZooCold => {
                let t = Instant::now();
                resolve(&read(&dir.join("spec.toml"))?)?;
                t.elapsed().as_secs_f64()
            }
            Workload::Table2Batch => {
                let t = Instant::now();
                for i in 0..inputs::table2(0).len() {
                    resolve(&read(&dir.join(format!("t2-{i}.toml")))?)?;
                }
                t.elapsed().as_secs_f64()
            }
            Workload::ServedTenants => {
                // The state directory is the operator's: it exists, empty,
                // before the daemon starts. Creating it is not timed.
                let state_dir = dir.join("setup-state");
                let _ = fs::remove_dir_all(&state_dir);
                fs::create_dir(&state_dir).map_err(|e| format!("{}: {e}", state_dir.display()))?;
                let t = Instant::now();
                let daemon = Daemon::start(&state_dir)?;
                let elapsed = t.elapsed().as_secs_f64();
                daemon.stop()?;
                elapsed
            }
        });
    }
    let _ = fs::remove_dir_all(dir.join("setup-state"));
    times.sort_by(f64::total_cmp);
    Ok(json_object(&[
        ("setup_s", format!("{:e}", times[times.len() / 2])),
        ("repeats", times.len().to_string()),
    ]))
}

/// Scenario rows as compact JSON text, through the generic value so
/// that a report read off the wire and one built in-process render
/// alike.
pub fn rows_text(rows: &Value) -> String {
    serde_json::to_string(rows).expect("JSON values always serialize")
}

pub fn to_json(report: &MatrixReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| e.to_string())
}

/// What one iteration measured. Failed operations leave no output,
/// which the check counts.
#[derive(Default)]
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per-operation latency: one entry per request (in-process
    /// workloads) or per job (served).
    pub turnarounds: Vec<f64>,
    /// For the traced run: cells the requests planned, and the compare
    /// pass's serial plus parallel time (table2-batch).
    pub planned_cells: u64,
    pub compare_s: f64,
}

impl Measured {
    pub fn to_json(&self) -> String {
        json_object(&[
            ("wall_s", format!("{:e}", self.wall_s)),
            ("cpu_s", format!("{:e}", self.cpu_s)),
            ("turnarounds", json_list(&self.turnarounds)),
        ])
    }
}

/// One timed iteration; its outputs land in `dir/out-<k>.*` for the
/// check.
pub fn iterate(workload: Workload, dir: &Path, k: &str) -> Result<String, String> {
    let measured = match workload {
        Workload::ZooCold => matrix_iteration(dir, k)?,
        Workload::Table2Batch => table2_iteration(dir, k)?,
        Workload::ServedTenants => served_iteration(dir, k, |_| {})?.0,
    };
    Ok(measured.to_json())
}

pub fn matrix_iteration(dir: &Path, k: &str) -> Result<Measured, String> {
    let (t0, c0) = (Instant::now(), cpu_now());
    let mut m = Measured::default();
    let text = read(&dir.join("spec.toml"))?;
    let t_req = Instant::now();
    let response = execute_text(&text).and_then(matrix_of);
    m.turnarounds.push(t_req.elapsed().as_secs_f64());
    match response {
        Ok(report) => {
            m.planned_cells = report.stats.planned_cells;
            write(&dir.join(format!("out-{k}.json")), &to_json(&report)?)?
        }
        Err(e) => eprintln!("hmpt-ledger: matrix request failed: {e}"),
    }
    m.wall_s = t0.elapsed().as_secs_f64();
    m.cpu_s = cpu_now() - c0;
    Ok(m)
}

pub fn table2_iteration(dir: &Path, k: &str) -> Result<Measured, String> {
    let (t0, c0) = (Instant::now(), cpu_now());
    let mut m = Measured::default();
    let mut lines = Vec::new();
    for i in 0..inputs::table2(0).len() {
        let text = read(&dir.join(format!("t2-{i}.toml")))?;
        let t_req = Instant::now();
        let response = execute_text(&text).and_then(batch_of);
        m.turnarounds.push(t_req.elapsed().as_secs_f64());
        match response {
            // The compare pass exists only when it found the parallel
            // campaigns bit-identical to the serial ones.
            Ok(outcome) => {
                m.planned_cells += outcome.report.stats.planned_cells;
                if let Some(c) = &outcome.comparison {
                    m.compare_s += c.serial_s + c.parallel_s;
                }
                lines.push(format!("{} {}", batch_digest(&outcome), outcome.comparison.is_some()))
            }
            Err(e) => {
                eprintln!("hmpt-ledger: batch request {i} failed: {e}");
                lines.push("failed false".into());
            }
        }
    }
    write(&dir.join(format!("out-{k}.txt")), &lines.join("\n"))?;
    m.wall_s = t0.elapsed().as_secs_f64();
    m.cpu_s = cpu_now() - c0;
    Ok(m)
}

/// One finished served job, as its tenant saw it.
pub struct JobSeen {
    pub pool: usize,
    pub job: u64,
    pub turnaround_s: f64,
    /// Submit → `Submitted` ack.
    pub ack_s: f64,
    /// Submit → first terminal `Status`.
    pub done_s: f64,
    /// The `Report` round trip.
    pub report_s: f64,
    pub report: Option<Value>,
}

/// A running in-process daemon: coordinator, TCP front door on
/// loopback, and the runner thread.
pub struct Daemon {
    pub coordinator: Arc<Coordinator>,
    pub addr: std::net::SocketAddr,
    runner: thread::JoinHandle<()>,
}

impl Daemon {
    /// Start a daemon on `state_dir`, which must not hold an earlier
    /// daemon's state.
    pub fn start(state_dir: &Path) -> Result<Daemon, String> {
        let coordinator = Arc::new(
            Coordinator::open(CoordinatorConfig::new(state_dir)).map_err(|e| e.to_string())?,
        );
        let server = Server::start(Arc::clone(&coordinator), "127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?;
        let runner = {
            let coordinator = Arc::clone(&coordinator);
            thread::spawn(move || coordinator.run())
        };
        Ok(Daemon { coordinator, addr: server.addr(), runner })
    }

    /// Drain and wait for the runner to finish. The drain is an
    /// in-process call: a client connection per stop would leave a
    /// socket in TIME_WAIT, and the set-up step's hundreds of them slow
    /// every later loopback bind on the host.
    pub fn stop(self) -> Result<(), String> {
        self.coordinator.drain();
        self.runner.join().map_err(|_| "runner thread panicked".to_string())
    }
}

pub fn read_streams(dir: &Path) -> Result<(Vec<String>, Vec<Vec<usize>>), String> {
    let streams: Vec<Vec<usize>> = read(&dir.join("streams.txt"))?
        .lines()
        .map(|l| l.split_whitespace().map(|x| x.parse().map_err(|_| "bad streams.txt")).collect())
        .collect::<Result<_, _>>()?;
    let pool_len = streams.iter().flatten().max().map_or(0, |m| m + 1);
    let pool = (0..pool_len)
        .map(|i| read(&dir.join(format!("pool-{i}.toml"))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((pool, streams))
}

/// One closed-loop tenant: submit, poll `Status` every [`POLL`] until
/// the job is terminal, fetch the report, repeat.
fn tenant(
    addr: std::net::SocketAddr,
    name: &str,
    pool: &[String],
    stream: &[usize],
) -> Result<Vec<JobSeen>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut seen = Vec::with_capacity(stream.len());
    for &p in stream {
        let t = Instant::now();
        let (job, _) = client.submit(name, 0, &pool[p]).map_err(|e| e.to_string())?;
        let ack_s = t.elapsed().as_secs_f64();
        let state = loop {
            let view = client.status(Some(job)).map_err(|e| e.to_string())?;
            let state = view.jobs.first().map(|s| s.state).ok_or("empty status view")?;
            if state.is_terminal() {
                break state;
            }
            if t.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {job} still {} after {JOB_TIMEOUT:?}", state.as_str()));
            }
            thread::sleep(POLL);
        };
        let done_s = t.elapsed().as_secs_f64();
        let report = if state == JobState::Completed {
            Some(client.report(job).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let turnaround_s = t.elapsed().as_secs_f64();
        seen.push(JobSeen {
            pool: p,
            job,
            turnaround_s,
            ack_s,
            done_s,
            report_s: turnaround_s - done_s,
            report,
        });
    }
    Ok(seen)
}

/// One served job stream over a fresh daemon. `inspect` sees the
/// daemon after the stream and before it drains (the traced run reads
/// its statistics there).
pub fn served_iteration(
    dir: &Path,
    k: &str,
    inspect: impl FnOnce(&Daemon),
) -> Result<(Measured, Vec<JobSeen>), String> {
    let (pool, streams) = read_streams(dir)?;
    let state_dir = dir.join(format!("state-{k}"));
    let _ = fs::remove_dir_all(&state_dir);
    let daemon = Daemon::start(&state_dir)?;
    let (t0, c0) = (Instant::now(), cpu_now());
    let results: Vec<Result<Vec<JobSeen>, String>> = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(inputs::TENANTS)
            .map(|(stream, name)| {
                let pool = &pool;
                let addr = daemon.addr;
                scope.spawn(move || tenant(addr, name, pool, stream))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("tenant thread panicked".into())))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_now() - c0;
    if let Some(Err(e)) = results.iter().find(|r| r.is_err()) {
        // A stuck job would block the drain; the process exit ends the
        // daemon's threads instead.
        return Err(e.clone());
    }
    inspect(&daemon);
    daemon.stop()?;

    let mut jobs = Vec::new();
    for result in results {
        jobs.extend(result?);
    }
    let m = Measured {
        wall_s,
        cpu_s,
        turnarounds: jobs.iter().map(|j| j.turnaround_s).collect(),
        ..Measured::default()
    };
    // One line per job: its pool index, then its rows as compact JSON.
    let outputs: Vec<String> = jobs
        .iter()
        .map(|j| {
            let rows = j.report.as_ref().and_then(|r| r.get("scenarios"));
            format!("{}\t{}", j.pool, rows.map_or(String::new(), rows_text))
        })
        .collect();
    write(&dir.join(format!("out-{k}.txt")), &outputs.join("\n"))?;
    let _ = fs::remove_dir_all(&state_dir);
    Ok((m, jobs))
}
