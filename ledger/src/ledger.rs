//! The traced run: one iteration of the workload through the program's
//! real entry points — the same calls the timed iterations make — with
//! the program's own `hmpt_obs` spans and counters recorded in memory.
//! The spans are written as JSONL when the iteration ends.
//!
//! Harness-side timing covers only what no program span covers: the
//! `spec.parse` span around `CampaignSpec::parse` in every iteration,
//! and, timed on their own after the iteration over the same inputs,
//! spec resolution, the zoo's machine builds and the served
//! coordinator's per-job `store::fold`.
//!
//! Self time per layer is a wall-clock ledger. On each thread the
//! innermost open span of a layer is the one working — unless it forked
//! a pool and waits for it (see [`FORKS`]). At each instant the working
//! threads share the instant equally. So the layers' self times add up
//! to the time during which at least one thread worked inside a span,
//! and `ledger.coverage` is that sum's share of the iteration's wall
//! time, which is measured separately.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hmpt_core::cache::MeasurementCache;
use hmpt_core::store;
use hmpt_fleet::spec::Resolved;
use hmpt_obs::{Collector, SpanRecord};
use hmpt_served::wire::{self, WireResponse};
use hmpt_served::Client;

use crate::work::{self, read, write, Measured};
use crate::{json_object, Workload};

/// The layers, each with the metric reporting its self time and the
/// spans (program spans, and the harness's `spec.parse`) it owns. Spans
/// of no layer — `serve.accept` (a connection's idle life) and
/// `serve.queue_wait` (a wait, recorded after the fact) — are not work.
const LAYERS: [(&str, &str, &[&str]); 11] = [
    ("fleet.spec", "self.fleet.spec_s", &["spec.parse"]),
    ("fleet.api", "self.fleet.api_s", &["api.matrix", "api.batch"]),
    ("fleet.matrix", "self.fleet.matrix_s", &["matrix.range"]),
    ("fleet.service", "self.fleet.service_s", &["fleet.batch", "fleet.job"]),
    ("core.driver", "self.core.driver_s", &["job.profile", "job.assemble"]),
    ("core.campaign", "self.core.campaign_s", &["job.plan"]),
    ("core.exec", "self.core.exec_s", &["job.campaign"]),
    ("core.online", "self.core.online_s", &["job.online"]),
    ("core.store", "self.core.store_s", &["store.save", "store.load", "store.merge"]),
    ("sim.kernel", "self.sim.kernel_s", &["exec.cell"]),
    ("served.coordinator", "self.served.coordinator_s", &["serve.job", "serve.merge"]),
];

/// Spans that hand work to a pool of fresh threads and wait for it,
/// each with the span that opens one unit of that work. A pool thread
/// starts with no open span, so a unit's span has no parent. While such
/// units run inside the forking span's interval on other threads, the
/// forking span is waiting, not working.
const FORKS: [(&str, &str); 5] = [
    ("fleet.batch", "fleet.job"),
    ("job.campaign", "exec.cell"),
    ("job.online", "exec.cell"),
    ("api.batch", "exec.cell"),
    ("serve.job", "matrix.range"),
];

/// Every other per-layer metric, with its unit (`trace.overhead_s` is
/// the runner's). A workload that never reaches a layer reports 0.
const METRICS: [(&str, &str); 31] = [
    ("spec.resolve_s", "s"),
    ("zoo.build_s", "s"),
    ("driver.profile_s", "s"),
    ("driver.profiles", "count"),
    ("campaign.plan_s", "s"),
    ("campaign.cells_planned", "count"),
    ("sim.cells_simulated", "count"),
    ("sim.cell_s", "s"),
    ("sim.ns_per_cell", "ns"),
    ("exec.pools", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.entries", "count"),
    ("store.save_s", "s"),
    ("store.save_bytes", "bytes"),
    ("store.fold_s", "s"),
    ("api.verify_s", "s"),
    ("service.compare_s", "s"),
    ("online.check_s", "s"),
    ("wire.report_frame_bytes", "bytes"),
    ("wire.codec_s", "s"),
    ("wire.ping_rtt_s", "s"),
    ("queue.submit_ack_p50_s", "s"),
    ("queue.snapshot_bytes", "bytes"),
    ("coordinator.queue_wait_p50_s", "s"),
    ("coordinator.job_wall_p50_s", "s"),
    ("coordinator.merge_p50_s", "s"),
    ("worker.shards_s", "s"),
    ("ledger.coverage", "ratio"),
    ("ledger.unattributed_s", "s"),
];

/// Keeps every closed span in memory.
#[derive(Default)]
struct Recorder(Mutex<Vec<SpanRecord>>);

impl Collector for Recorder {
    fn span(&self, record: &SpanRecord) {
        self.0.lock().unwrap().push(record.clone());
    }
}

/// Run `f` with span recording on; returns its result, the spans, and
/// the counters and gauges at its end.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>, BTreeMap<&'static str, u64>) {
    let recorder = Arc::new(Recorder::default());
    let quiet = Arc::new(hmpt_obs::StderrCollector { quiet: true });
    let sinks: Vec<Arc<dyn Collector>> = vec![recorder.clone(), quiet.clone()];
    hmpt_obs::install(Arc::new(hmpt_obs::Fanout::new(sinks)), true);
    let out = f();
    let mut metrics: BTreeMap<&'static str, u64> = hmpt_obs::counters().into_iter().collect();
    metrics.extend(hmpt_obs::gauges());
    hmpt_obs::install(quiet, false);
    let spans = std::mem::take(&mut *recorder.0.lock().unwrap());
    (out, spans, metrics)
}

/// A span's interval in nanoseconds since the telemetry epoch.
fn interval(s: &SpanRecord) -> (u64, u64) {
    let start = s.start_us * 1000;
    (start, start + s.dur_ns)
}

fn layer_of(name: &str) -> Option<usize> {
    LAYERS.iter().position(|(_, _, names)| names.contains(&name))
}

/// Per layer, wall-clock seconds: see the module docs.
fn self_times(spans: &[SpanRecord]) -> [f64; LAYERS.len()] {
    // Pool units by span name, sorted by start: (start, end, thread).
    let mut units: BTreeMap<&str, Vec<(u64, u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        if FORKS.iter().any(|(_, unit)| *unit == s.name) {
            let (a, b) = interval(s);
            units.entry(s.name).or_default().push((a, b, s.thread));
        }
    }
    for v in units.values_mut() {
        v.sort_unstable();
    }
    // The time a forking span waits: the union of its units' intervals.
    // Starts are in whole microseconds, so ends may overshoot by < 1 µs.
    let waits = |s: &SpanRecord, (a, b): (u64, u64)| -> Vec<(u64, u64)> {
        let Some(unit) = FORKS.iter().find(|(fork, _)| *fork == s.name).map(|(_, u)| u) else {
            return Vec::new();
        };
        let Some(list) = units.get(unit) else { return Vec::new() };
        let from = list.partition_point(|u| u.0 < a);
        let mut union: Vec<(u64, u64)> = Vec::new();
        for &(ua, ub, thread) in list[from..].iter().take_while(|u| u.0 <= b) {
            if thread == s.thread || ub > b + 1000 {
                continue;
            }
            match union.last_mut() {
                Some(last) if ua <= last.1 => last.1 = last.1.max(ub),
                _ => union.push((ua, ub)),
            }
        }
        union
    };

    // Working segments, thread by thread: the innermost open span,
    // minus its waits.
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans.iter().filter(|s| layer_of(s.name).is_some()) {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut events: Vec<(u64, i8, usize)> = Vec::new();
    for list in by_thread.values_mut() {
        list.sort_by_key(|s| (interval(s).0, std::cmp::Reverse(interval(s).1)));
        let mut innermost: Vec<(u64, u64, &SpanRecord)> = Vec::new();
        let mut stack: Vec<(u64, &SpanRecord)> = Vec::new();
        let mut cursor = 0;
        for s in list.iter() {
            let (a, b) = interval(s);
            while let Some(&(end, top)) = stack.last() {
                if end > a {
                    break;
                }
                innermost.push((cursor, end, top));
                cursor = end;
                stack.pop();
            }
            if let Some(&(_, top)) = stack.last() {
                innermost.push((cursor, a, top));
            }
            cursor = a;
            stack.push((stack.last().map_or(b, |&(end, _)| b.min(end)), s));
        }
        while let Some((end, top)) = stack.pop() {
            innermost.push((cursor, end, top));
            cursor = end;
        }
        let mut wait_cache: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for (a, b, s) in innermost.into_iter().filter(|(a, b, _)| b > a) {
            let layer = layer_of(s.name).expect("filtered above");
            let wait = wait_cache.entry(s.id).or_insert_with(|| waits(s, interval(s)));
            let mut cursor = a;
            for &(wa, wb) in wait.iter().filter(|w| w.1 > a && w.0 < b) {
                if wa > cursor {
                    events.extend([(cursor, 1, layer), (wa, -1, layer)]);
                }
                cursor = cursor.max(wb);
            }
            if b > cursor {
                events.extend([(cursor, 1, layer), (b, -1, layer)]);
            }
        }
    }

    // Share each instant among the threads working in it.
    events.sort_unstable();
    let mut selfs = [0.0; LAYERS.len()];
    let mut active = [0i64; LAYERS.len()];
    let (mut working, mut last) = (0i64, 0u64);
    for (t, delta, layer) in events {
        if working > 0 {
            let share = (t - last) as f64 * 1e-9 / working as f64;
            for (s, &n) in selfs.iter_mut().zip(&active) {
                *s += share * n as f64;
            }
        }
        active[layer] += i64::from(delta);
        working += i64::from(delta);
        last = t;
    }
    selfs
}

/// Inclusive time and count of every span called `name`.
fn total(spans: &[SpanRecord], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.dur_ns as f64 * 1e-9, n + 1))
}

/// The verify re-runs of `api::execute`'s matrix path: every
/// `matrix.range` under an `api.matrix` but the first (the main run).
fn verify_s(spans: &[SpanRecord]) -> f64 {
    let mut under: BTreeMap<u64, Vec<&SpanRecord>> =
        spans.iter().filter(|s| s.name == "api.matrix").map(|s| (s.id, Vec::new())).collect();
    for s in spans.iter().filter(|s| s.name == "matrix.range") {
        if let Some(ranges) = s.parent.and_then(|p| under.get_mut(&p)) {
            ranges.push(s);
        }
    }
    under
        .values_mut()
        .map(|ranges| {
            ranges.sort_by_key(|s| s.start_us);
            ranges.iter().skip(1).map(|s| s.dur_ns as f64 * 1e-9).sum::<f64>()
        })
        .sum()
}

/// The spans in the program's `--trace-out` JSONL schema, less the
/// per-cell `exec.cell` spans (hundreds of thousands per iteration;
/// the metrics summarize them).
fn write_spans(path: &Path, spans: &[SpanRecord]) -> Result<(), String> {
    let mut text = String::new();
    for s in spans.iter().filter(|s| s.name != "exec.cell") {
        let detail = s
            .detail
            .as_deref()
            .map_or("null".to_string(), |d| format!("\"{}\"", hmpt_obs::escape_json(d)));
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text += &format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"detail\":{detail},\"id\":{},\"parent\":{parent},\
             \"thread\":{},\"t_us\":{},\"dur_ns\":{}}}\n",
            s.name, s.id, s.thread, s.start_us, s.dur_ns
        );
    }
    write(path, &text)
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// Harness-side timings of calls inside `api::execute` that no program
/// span covers, taken over the iteration's request texts: resolving
/// each spec (parse, fingerprint, resolve), and building each matrix
/// scenario's machine once.
fn resolve_and_build(texts: &[String]) -> Result<(f64, f64), String> {
    let (mut resolve_s, mut build_s) = (0.0, 0.0);
    for text in texts {
        let t = Instant::now();
        let resolved = work::resolve(text)?;
        resolve_s += t.elapsed().as_secs_f64();
        if let Resolved::Matrix(m) = resolved {
            for scenario in m.matrix.scenarios() {
                let t = Instant::now();
                scenario.build_machine().map_err(|e| e.to_string())?;
                build_s += t.elapsed().as_secs_f64();
            }
        }
    }
    Ok((resolve_s, build_s))
}

/// A traced iteration's metric values, by name.
#[derive(Default)]
struct Table(BTreeMap<&'static str, f64>);

impl Table {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(METRICS.iter().any(|(n, _)| *n == name), "unlisted metric {name}");
        self.0.insert(name, value);
    }

    /// Every listed metric and every layer's self time, each with its
    /// unit; metrics never set read 0.
    fn to_json(&self, selfs: &[f64; LAYERS.len()]) -> String {
        let fields: Vec<String> = METRICS
            .iter()
            .map(|&(name, unit)| (name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .chain(LAYERS.iter().zip(selfs).map(|(&(_, name, _), &v)| (name, v, "s")))
            // `+ 0.0` turns an empty sum's -0 into 0.
            .map(|(name, v, unit)| format!("\"{name}\":[{:e},\"{unit}\"]", v + 0.0))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// What the traced served run reads off the live daemon after the
/// stream, before it drains.
struct Inspected {
    stats: BTreeMap<u64, hmpt_served::JobStats>,
    cache_entries: usize,
    queue_bytes: u64,
    ping_rtt_s: f64,
    frame_bytes: Vec<f64>,
    codec_s: f64,
}

fn inspect(daemon: &work::Daemon, dir: &Path, k: &str) -> Result<Inspected, String> {
    let state = dir.join(format!("state-{k}"));
    // Kept for the store.fold timing after the iteration.
    fs::copy(state.join("cache.bin"), dir.join(format!("fold-{k}.bin")))
        .map_err(|e| format!("copy the shared cache snapshot: {e}"))?;
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let rtts = (0..32)
        .map(|_| {
            let t = Instant::now();
            client.ping().map(|()| t.elapsed().as_secs_f64())
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let view = client.status(None).map_err(|e| e.to_string())?;
    let stats: BTreeMap<u64, hmpt_served::JobStats> =
        view.jobs.iter().filter_map(|s| s.stats.map(|st| (s.job, st))).collect();
    // The Report frames the tenants received, re-encoded and decoded:
    // the wire's serialization cost per job.
    let mut frame_bytes = Vec::new();
    let mut codec_s = 0.0;
    for &job in stats.keys() {
        let report = client.report(job).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let frame = wire::encode_response(job, &WireResponse::Report { job, report });
        wire::decode_response(frame.trim_end().as_bytes()).map_err(|m| format!("{:?}", m.error))?;
        codec_s += t.elapsed().as_secs_f64();
        frame_bytes.push(frame.len() as f64);
    }
    Ok(Inspected {
        stats,
        cache_entries: daemon.coordinator.cache_len(),
        queue_bytes: file_len(&state.join("queue.json")),
        ping_rtt_s: median(rtts),
        frame_bytes,
        codec_s,
    })
}

/// One `store::fold` of the stream's final shared cache into an empty
/// job cache — the seeding every served job starts with, at its
/// largest. Median of five.
fn fold_s(snapshot: &Path) -> Result<f64, String> {
    let (shared, _) = store::load(snapshot).map_err(|e| e.to_string())?;
    let times = (0..5)
        .map(|_| {
            let t = Instant::now();
            store::fold(&MeasurementCache::new(), &shared);
            t.elapsed().as_secs_f64()
        })
        .collect();
    Ok(median(times))
}

/// One JSONL line per served job: what its tenant saw, and the daemon's
/// own statistics. `simulated_cells` and `cells_skipped` depend on how
/// the concurrent shards interleave, so they are recorded, not gated.
fn write_jobs(
    path: &Path,
    jobs: &[work::JobSeen],
    stats: &BTreeMap<u64, hmpt_served::JobStats>,
) -> Result<(), String> {
    let mut text = String::new();
    for j in jobs {
        let Some(s) = stats.get(&j.job) else { continue };
        text += &format!(
            "{{\"job\":{},\"pool\":{},\"turnaround_s\":{:e},\"ack_s\":{:e},\"done_s\":{:e},\
             \"report_s\":{:e},\"wall_s\":{:e},\"merge_s\":{:e},\"simulated_cells\":{},\
             \"cells_skipped\":{}}}\n",
            j.job,
            j.pool,
            j.turnaround_s,
            j.ack_s,
            j.done_s,
            j.report_s,
            s.wall_s,
            s.merge_s,
            s.simulated_cells,
            s.cells_skipped
        );
    }
    write(path, &text)
}

/// One traced iteration; prints its wall time and every per-layer
/// metric (zero where the workload never reaches a layer).
pub fn traced(workload: Workload, dir: &Path, k: &str) -> Result<String, String> {
    let mut inspected = None;
    let (measured, spans, counters) = recorded(|| match workload {
        Workload::ZooCold => work::matrix_iteration(dir, k).map(|m| (m, Vec::new())),
        Workload::Table2Batch => work::table2_iteration(dir, k).map(|m| (m, Vec::new())),
        Workload::ServedTenants => work::served_iteration(dir, k, |daemon| {
            inspected = Some(inspect(daemon, dir, k));
        }),
    });
    let (measured, jobs): (Measured, Vec<work::JobSeen>) = measured?;
    write_spans(&dir.join(format!("trace-{k}.jsonl")), &spans)?;

    let texts: Vec<String> = match workload {
        Workload::ZooCold => vec![read(&dir.join("spec.toml"))?],
        Workload::Table2Batch => (0..crate::inputs::table2(0).len())
            .map(|i| read(&dir.join(format!("t2-{i}.toml"))))
            .collect::<Result<_, _>>()?,
        Workload::ServedTenants => {
            let (pool, streams) = work::read_streams(dir)?;
            streams.iter().flatten().map(|&p| pool[p].clone()).collect()
        }
    };
    let (resolve_s, build_s) = resolve_and_build(&texts)?;

    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let selfs = self_times(&spans);
    let attributed: f64 = selfs.iter().sum();
    let (cell_s, cells) = total(&spans, "exec.cell");
    let (hits, misses) = (counter("cache.hit"), counter("cache.miss"));
    let mut t = Table::default();
    t.set("spec.resolve_s", resolve_s);
    t.set("zoo.build_s", build_s);
    let (profile_s, profiles) = total(&spans, "job.profile");
    t.set("driver.profile_s", profile_s);
    t.set("driver.profiles", profiles as f64);
    t.set("campaign.plan_s", total(&spans, "job.plan").0);
    t.set("campaign.cells_planned", measured.planned_cells as f64);
    t.set("sim.cells_simulated", cells as f64);
    t.set("sim.cell_s", cell_s);
    t.set("sim.ns_per_cell", cell_s * 1e9 / cells.max(1) as f64);
    t.set("exec.pools", counter("exec.parallel.batches"));
    t.set("cache.hits", hits);
    t.set("cache.misses", misses);
    t.set("cache.hit_rate", hits / (hits + misses).max(1.0));
    t.set("cache.entries", counter("cache.entries"));
    t.set("store.save_s", total(&spans, "store.save").0);
    t.set("store.save_bytes", counter("store.bytes_written"));
    t.set("api.verify_s", verify_s(&spans));
    t.set("service.compare_s", measured.compare_s);
    t.set("online.check_s", total(&spans, "job.online").0);
    t.set("ledger.coverage", attributed / measured.wall_s);
    t.set("ledger.unattributed_s", measured.wall_s - attributed);

    if workload == Workload::ServedTenants {
        let inspected = inspected.expect("inspect runs before the daemon stops")?;
        let snapshot = dir.join(format!("fold-{k}.bin"));
        t.set("store.fold_s", fold_s(&snapshot)?);
        let _ = fs::remove_file(&snapshot);
        write_jobs(&dir.join(format!("jobs-{k}.jsonl")), &jobs, &inspected.stats)?;
        let stats: Vec<&hmpt_served::JobStats> = inspected.stats.values().collect();
        t.set("campaign.cells_planned", stats.iter().map(|s| s.planned_cells).sum::<u64>() as f64);
        t.set("cache.entries", inspected.cache_entries as f64);
        t.set("wire.report_frame_bytes", median(inspected.frame_bytes));
        t.set("wire.codec_s", inspected.codec_s);
        t.set("wire.ping_rtt_s", inspected.ping_rtt_s);
        t.set("queue.submit_ack_p50_s", median(jobs.iter().map(|j| j.ack_s).collect()));
        t.set("queue.snapshot_bytes", inspected.queue_bytes as f64);
        let waits = spans.iter().filter(|s| s.name == "serve.queue_wait");
        t.set(
            "coordinator.queue_wait_p50_s",
            median(waits.map(|s| s.dur_ns as f64 * 1e-9).collect()),
        );
        t.set("coordinator.job_wall_p50_s", median(stats.iter().map(|s| s.wall_s).collect()));
        t.set("coordinator.merge_p50_s", median(stats.iter().map(|s| s.merge_s).collect()));
        let shards = spans.iter().filter(|s| s.name == "matrix.range" && s.parent.is_none());
        t.set("worker.shards_s", shards.map(|s| s.dur_ns as f64 * 1e-9).sum());
    }
    Ok(json_object(&[("wall_s", format!("{:e}", measured.wall_s)), ("metrics", t.to_json(&selfs))]))
}
