//! Scenario-matrix bench: cross-platform matrix throughput with a cold
//! versus warmed measurement cache, quantifying how much of a matrix's
//! cost the cross-scenario cell dedup removes (budget rows of one
//! machine × workload share every campaign cell), plus the default
//! auto-sized campaign-block pool (`matrix_cold_cache`, one block per
//! machine × workload) against a one-worker pool.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use hmpt_fleet::{
    run_matrix, run_matrix_with_cache, MatrixConfig, MeasurementCache, ScenarioMatrix,
};
use hmpt_sim::units::gib;
use hmpt_sim::zoo::Zoo;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let zoo = Zoo::parse("xeon-max,hbm-flat,small-hbm").expect("zoo");
    // Eight-group workloads (256-configuration campaigns), so campaign
    // cells — the part the cache dedups — dominate per-scenario cost.
    let workloads = vec![hmpt_workloads::npb::sp::workload(), hmpt_workloads::npb::lu::workload()];
    let matrix =
        ScenarioMatrix::new(zoo, workloads).with_budgets(vec![None, Some(gib(16)), Some(gib(8))]);
    let cfg = MatrixConfig::default();

    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);

    // Cold: a fresh cache per run — only the within-matrix dedup
    // (budget rows sharing campaigns) applies.
    g.bench_function("matrix_cold_cache", |b| {
        b.iter(|| black_box(run_matrix(black_box(&matrix), &cfg).expect("matrix")))
    });

    // No cache at all: every budget row re-simulates its campaign —
    // the baseline the content-addressed cache is measured against.
    let uncached = MatrixConfig { cache_enabled: false, ..cfg };
    g.bench_function("matrix_no_cache", |b| {
        b.iter(|| black_box(run_matrix(black_box(&matrix), &uncached).expect("matrix")))
    });

    // Warm: a persistent cache answers every campaign cell of every
    // subsequent run — the steady state of a long-lived fleet.
    let cache = Arc::new(MeasurementCache::new());
    run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).expect("warm-up");
    g.bench_function("matrix_warm_cache", |b| {
        b.iter(|| {
            black_box(
                run_matrix_with_cache(black_box(&matrix), &cfg, Arc::clone(&cache))
                    .expect("matrix"),
            )
        })
    });

    // Persistent-store round trip: serialize the warmed cache to
    // snapshot bytes and load them back into a fresh cache — the
    // disk-less core of `--cache-file`.
    g.bench_function("store_roundtrip", |b| {
        b.iter(|| {
            let (bytes, _) = hmpt_fleet::store::to_bytes(&cache);
            let fresh = MeasurementCache::new();
            hmpt_fleet::store::from_bytes(black_box(&bytes), &fresh).expect("load");
            black_box(fresh.len())
        })
    });

    // Warm start from a snapshot: what a cold process pays to inherit
    // the cache (deserialize + run everything as hits) versus
    // re-simulating — the number the sharded CI's warm-start assertion
    // rides on.
    let (snapshot, _) = hmpt_fleet::store::to_bytes(&cache);
    g.bench_function("matrix_warm_from_snapshot", |b| {
        b.iter(|| {
            let fresh = Arc::new(MeasurementCache::new());
            hmpt_fleet::store::from_bytes(&snapshot, &fresh).expect("load");
            black_box(run_matrix_with_cache(black_box(&matrix), &cfg, fresh).expect("matrix"))
        })
    });

    // The same cold matrix on a one-worker pool: what the default
    // auto-sized campaign-block pool is measured against.
    let serial = MatrixConfig { workers: 1, ..cfg };
    g.bench_function("matrix_cold_cache_serial", |b| {
        b.iter(|| black_box(run_matrix(black_box(&matrix), &serial).expect("matrix")))
    });
    g.finish();

    let stats = cache.stats();
    println!(
        "scenario cache after bench: {} entries, {} hits / {} misses (hit-rate {:.1}%)",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
