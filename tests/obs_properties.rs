//! The zero-perturbation contract of `hmpt_obs`, property-tested:
//! running any campaign with telemetry recording (spans + counters +
//! a JSONL trace sink) produces byte-identical results to running it
//! with telemetry off — across serial and pooled batches, cached or not,
//! including the on-disk cache snapshot — and the trace a run emits is
//! schema-valid JSONL.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one lock and tears the collector back down before releasing it.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use hmpt_fleet::{Fleet, FleetConfig, TuningJob};
use hmpt_obs::JsonlCollector;
use hmpt_repro::core::measure::CampaignConfig;
use hmpt_repro::sim::machine::MachineBuilder;
use hmpt_repro::sim::noise::NoiseModel;
use hmpt_repro::sim::stream::Direction;
use hmpt_repro::workloads::model::{Phase, StreamSpec, WorkloadSpec};
use proptest::prelude::*;
use serde::Value;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An in-memory `Write` target the test can read back after the
/// collector is torn down.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("traces are UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `f` with telemetry fully off (the baseline every traced run is
/// compared against).
fn untraced<R>(f: impl FnOnce() -> R) -> R {
    hmpt_obs::reset();
    f()
}

/// Run `f` with recording on and a JSONL sink, returning the result and
/// the trace text. Telemetry is torn down before returning.
fn traced<R>(f: impl FnOnce() -> R) -> (R, String) {
    let buf = SharedBuf::default();
    hmpt_obs::install(Arc::new(JsonlCollector::from_writer(Box::new(buf.clone()))), true);
    let result = f();
    hmpt_obs::flush();
    hmpt_obs::reset();
    (result, buf.contents())
}

/// A random small workload (same generator family as
/// `tests/fleet_properties.rs`).
fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    let alloc_count = 2usize..5;
    alloc_count
        .prop_flat_map(|n| {
            let sizes = prop::collection::vec(1u64..8, n);
            let phases = prop::collection::vec(
                (prop::collection::vec((0..n, 1u64..12, 0..3u8), 1..3), prop::option::of(1u64..40)),
                1..3,
            );
            (Just(n), sizes, phases)
        })
        .prop_map(|(_n, sizes, phases)| {
            let mut w = WorkloadSpec::new("synthetic", "./synthetic.x");
            let idx: Vec<usize> = sizes
                .iter()
                .enumerate()
                .map(|(i, &gb)| w.alloc(&format!("a{i}"), gb * 1_000_000_000))
                .collect();
            for (pi, (streams, floor)) in phases.into_iter().enumerate() {
                let specs: Vec<StreamSpec> = streams
                    .into_iter()
                    .map(|(a, gb, dir)| {
                        let dir = match dir {
                            0 => Direction::Read,
                            1 => Direction::Write,
                            _ => Direction::ReadWrite,
                        };
                        StreamSpec::seq(idx[a], gb * 1_000_000_000, dir)
                    })
                    .collect();
                let mut phase = Phase::new(&format!("p{pi}"), specs);
                if let Some(gf) = floor {
                    phase = phase.flops(gf as f64 * 1e9).compute_cap(1.0);
                }
                w.push_phase(phase);
            }
            w
        })
}

fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig { runs_per_config: 2, noise: NoiseModel::default(), base_seed: seed }
}

/// The result bytes of one fleet run: every analysis field rendered
/// with exact float bits, plus the deterministic cache totals.
/// Wall-clock fields are the only thing deliberately excluded.
fn result_bytes(report: &hmpt_fleet::JobReport) -> String {
    use std::fmt::Write as _;
    let a = &report.analysis;
    let mut s = String::new();
    let _ = write!(
        s,
        "planned={} executed={} best={:?} max={:x} hbm_only={:x} usage={:x}",
        a.campaign.planned_runs,
        a.campaign.executed_runs,
        a.table2.best_config,
        a.table2.max_speedup.to_bits(),
        a.table2.hbm_only_speedup.to_bits(),
        a.table2.usage_90_pct.to_bits(),
    );
    for m in &a.campaign.measurements {
        let _ = write!(
            s,
            "|{:?}:{:x}:{:x}:{:x}",
            m.config,
            m.mean_s.to_bits(),
            m.std_s.to_bits(),
            m.hbm_fraction.to_bits()
        );
    }
    for e in &a.estimator.single {
        let _ = write!(s, "|{:x}", e.to_bits());
    }
    let _ = write!(s, "|hits={} misses={}", report.cache.hits, report.cache.misses);
    s
}

/// Every trace line is a JSON object of a known record type with the
/// fields the schema promises.
fn assert_schema_valid(trace: &str) -> Result<(), proptest::TestCaseError> {
    prop_assert!(!trace.is_empty(), "a recorded run emits at least its flush");
    for (i, line) in trace.lines().enumerate() {
        let value: Value = serde_json::parse(line).map_err(|e| {
            proptest::TestCaseError::fail(format!("trace line {}: {e}: {line}", i + 1))
        })?;
        match value.get("type").and_then(Value::as_str) {
            Some("span") => {
                prop_assert!(value.get("name").and_then(Value::as_str).is_some(), "{line}");
                prop_assert!(value.get("dur_ns").and_then(Value::as_u64).is_some(), "{line}");
                prop_assert!(value.get("id").and_then(Value::as_u64).is_some(), "{line}");
                prop_assert!(value.get("thread").and_then(Value::as_u64).is_some(), "{line}");
            }
            Some("event") => {
                prop_assert!(value.get("level").and_then(Value::as_str).is_some(), "{line}");
                prop_assert!(value.get("msg").and_then(Value::as_str).is_some(), "{line}");
            }
            Some("counter") | Some("gauge") => {
                prop_assert!(value.get("name").and_then(Value::as_str).is_some(), "{line}");
                prop_assert!(value.get("value").and_then(Value::as_u64).is_some(), "{line}");
            }
            other => prop_assert!(false, "unknown record type {other:?}: {line}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tracing a run changes nothing: for random workloads, serial and
    /// pooled batches, cached or not, the traced result is
    /// byte-identical to the untraced one, and the trace itself is
    /// schema-valid. The batch's two jobs sit on different machines, so
    /// a pool of 3 runs them concurrently.
    #[test]
    fn tracing_never_changes_result_bytes(
        spec in arb_workload(),
        seed in 0u64..1000,
    ) {
        let _guard = exclusive();
        let slower = MachineBuilder::xeon_max().with_hbm_bw_factor(0.5).build();
        let jobs = [
            TuningJob::new(spec.clone()).with_campaign(campaign(seed)),
            TuningJob::new(spec.clone()).with_campaign(campaign(seed)).with_machine(slower),
        ];
        for (workers, cache_enabled) in [(1, false), (3, false), (1, true), (3, true)] {
            let run = || {
                let fleet = Fleet::new(FleetConfig {
                    workers,
                    cache_enabled,
                    online_check: false,
                    ..FleetConfig::default()
                });
                let report = fleet.run(&jobs).expect("run");
                report.reports.iter().map(result_bytes).collect::<Vec<_>>()
            };
            let baseline = untraced(run);
            let (traced_bytes, trace) = traced(run);
            prop_assert!(
                baseline == traced_bytes,
                "telemetry perturbed workers={} cache={}",
                workers,
                cache_enabled
            );
            assert_schema_valid(&trace)?;
        }
    }

    /// The persistent cache snapshot a traced run saves is byte-for-byte
    /// the file an untraced run saves.
    #[test]
    fn tracing_never_changes_snapshot_bytes(
        spec in arb_workload(),
        seed in 0u64..1000,
    ) {
        let _guard = exclusive();
        let dir = std::env::temp_dir();
        let untraced_path = dir.join(format!("hmpt-obs-test-{}-a.bin", std::process::id()));
        let traced_path = dir.join(format!("hmpt-obs-test-{}-b.bin", std::process::id()));
        let run = |path: &std::path::Path| {
            let job = TuningJob::new(spec.clone()).with_campaign(campaign(seed));
            let fleet = Fleet::new(FleetConfig {
                online_check: false,
                cache_path: Some(path.to_path_buf()),
                ..FleetConfig::default()
            });
            fleet.run(std::slice::from_ref(&job)).expect("run");
        };
        untraced(|| run(&untraced_path));
        let ((), _trace) = traced(|| run(&traced_path));
        let a = std::fs::read(&untraced_path).expect("untraced snapshot");
        let b = std::fs::read(&traced_path).expect("traced snapshot");
        let _ = std::fs::remove_file(&untraced_path);
        let _ = std::fs::remove_file(&traced_path);
        prop_assert!(a == b, "telemetry perturbed the cache snapshot");
    }
}

/// The trace of a real cached run carries the spans and counters the
/// fleet promises: per-cell simulate spans, job/batch spans, and cache
/// hit/miss totals that add up to the planned cells.
#[test]
fn trace_contents_match_the_run() {
    let _guard = exclusive();
    let mut spec = WorkloadSpec::new("tiny", "./tiny.x");
    let a = spec.alloc("a", 2_000_000_000);
    spec.push_phase(Phase::new("p0", vec![StreamSpec::seq(a, 4_000_000_000, Direction::Read)]));
    let run = || {
        let job = TuningJob::new(spec.clone()).with_campaign(campaign(7));
        let fleet = Fleet::new(FleetConfig { online_check: false, ..FleetConfig::default() });
        // Twice over one fleet: the second pass is all cache hits.
        fleet.run_job(&job).expect("cold");
        fleet.run_job(&job).expect("warm")
    };
    let (warm, trace) = traced(run);
    assert!(warm.cache.hits > 0, "warm pass hit the cache: {:?}", warm.cache);

    let mut cell_spans = 0u64;
    let mut job_spans = 0u64;
    let mut hit_total = None;
    let mut miss_total = None;
    for line in trace.lines() {
        let v: Value = serde_json::parse(line).expect("valid JSONL");
        let name = v.get("name").and_then(Value::as_str).unwrap_or_default();
        match v.get("type").and_then(Value::as_str) {
            Some("span") if name == "exec.cell" => cell_spans += 1,
            Some("span") if name == "fleet.job" => job_spans += 1,
            Some("counter") if name == "cache.hit" => {
                hit_total = v.get("value").and_then(Value::as_u64)
            }
            Some("counter") if name == "cache.miss" => {
                miss_total = v.get("value").and_then(Value::as_u64)
            }
            _ => {}
        }
    }
    // Simulate spans count actual simulations: the cold pass's misses,
    // and nothing for the warm pass's hits.
    assert_eq!(Some(cell_spans), miss_total, "one exec.cell span per simulated cell");
    assert_eq!(job_spans, 2, "one fleet.job span per run_job");
    assert_eq!(hit_total, Some(warm.cache.hits), "hit counter matches the report");
}
