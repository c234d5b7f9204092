//! Property tests for the scenario subsystem: matrix enumeration is
//! lazy, deterministic, and duplicate-free for arbitrary axes; matrix
//! execution is bit-identical across serial, parallel, and cached
//! strategies; the shared measurement cache dedups campaign cells
//! whenever two scenarios share a machine fingerprint; any shard
//! partition merged back is bit-identical to the unsharded run (and a
//! run against a saved cache snapshot executes zero new cells); and the
//! Xeon Max preset rows still land in the paper's Table II bands.

use std::sync::Arc;

use hmpt_fleet::{
    run_matrix, run_matrix_sharded, run_matrix_with_cache, store, MatrixConfig, MatrixReport,
    MeasurementCache, ScenarioMatrix, ShardReport,
};
use hmpt_repro::core::campaign::RepPolicy;
use hmpt_repro::core::measure::CampaignConfig;
use hmpt_repro::sim::noise::NoiseModel;
use hmpt_repro::sim::stream::Direction;
use hmpt_repro::sim::units::gib;
use hmpt_repro::sim::zoo::{Axis, Preset, Zoo, ZooEntry};
use hmpt_repro::workloads::model::{Phase, StreamSpec, WorkloadSpec};
use proptest::prelude::*;

/// A random small workload (same generator family as
/// `tests/fleet_properties.rs`): 2–5 allocations, 1–3 phases of
/// sequential traffic.
fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (2usize..5)
        .prop_flat_map(|n| {
            let sizes = prop::collection::vec(1u64..6, n);
            let phases =
                prop::collection::vec(prop::collection::vec((0..n, 1u64..10, 0..3u8), 1..4), 1..3);
            (sizes, phases)
        })
        .prop_map(|(sizes, phases)| {
            let mut w = WorkloadSpec::new("synthetic", "./synthetic.x");
            let idx: Vec<usize> = sizes
                .iter()
                .enumerate()
                .map(|(i, &gb)| w.alloc(&format!("a{i}"), gb * 1_000_000_000))
                .collect();
            for (pi, streams) in phases.into_iter().enumerate() {
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
                w.push_phase(Phase::new(&format!("p{pi}"), specs));
            }
            w
        })
}

/// A random zoo entry: any preset, with up to two axis transforms.
fn arb_zoo_entry() -> impl Strategy<Value = ZooEntry> {
    let preset = (0usize..Preset::ALL.len()).prop_map(|i| Preset::ALL[i]);
    let axis = (0..3u8, 1u32..8).prop_map(|(kind, scaled)| {
        let f = scaled as f64 / 4.0; // 0.25 .. 1.75, never zero
        match kind {
            0 => Axis::ScaleHbmBw(f),
            1 => Axis::ScaleHbmCapacity(f),
            _ => Axis::ScaleLatencyGap(f),
        }
    });
    (preset, prop::collection::vec(axis, 0..3)).prop_map(|(preset, axes)| {
        axes.into_iter().fold(ZooEntry::preset(preset), |e, a| e.with_axis(a))
    })
}

/// Arbitrary matrix axes (enumeration only — workloads are named
/// placeholders, nothing is executed).
fn arb_matrix() -> impl Strategy<Value = ScenarioMatrix> {
    let entries = prop::collection::vec(arb_zoo_entry(), 1..4);
    let n_workloads = 1usize..4;
    let budgets = prop::collection::vec(prop::option::of(1u64..64), 1..4);
    let n_policies = 1usize..3;
    let noise = prop::collection::vec(0u32..20, 1..3);
    (entries, n_workloads, budgets, n_policies, noise).prop_map(
        |(entries, n_workloads, budgets, n_policies, noise)| {
            let workloads = (0..n_workloads)
                .map(|i| {
                    let mut w = WorkloadSpec::new(&format!("w{i}"), "./w.x");
                    let a = w.alloc("a", gib(1));
                    w.push_phase(Phase::new(
                        "p",
                        vec![StreamSpec::seq(a, gib(1), Direction::Read)],
                    ));
                    w
                })
                .collect();
            let policies =
                [RepPolicy::Fixed, RepPolicy::confidence(0.02, 3)][..n_policies].to_vec();
            ScenarioMatrix::new(Zoo::new(entries), workloads)
                .with_budgets(budgets.into_iter().map(|b| b.map(gib)).collect())
                .with_rep_policies(policies)
                .with_noise_cvs(noise.into_iter().map(|n| n as f64 * 1e-3).collect())
        },
    )
}

fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig { runs_per_config: 2, noise: NoiseModel::default(), base_seed: seed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Enumeration covers exactly the axis product: deterministic
    /// order, every coordinate tuple exactly once, and O(1) indexed
    /// access agreeing with the lazy iterator.
    #[test]
    fn enumeration_is_deterministic_and_duplicate_free(matrix in arb_matrix()) {
        let expected = matrix.machines().len()
            * matrix.workloads().len()
            * matrix.budgets().len()
            * matrix.rep_policies().len()
            * matrix.noise_cvs().len();
        prop_assert_eq!(matrix.len(), expected);

        let mut seen = std::collections::HashSet::new();
        let mut count = 0usize;
        for (i, s) in matrix.scenarios().enumerate() {
            prop_assert_eq!(s.index, i);
            let c = s.coords;
            prop_assert!(
                seen.insert((c.machine, c.workload, c.noise, c.policy, c.budget)),
                "coords repeated at {}", i
            );
            // Indexed decode agrees with the iterator.
            let direct = matrix.scenario(i);
            prop_assert_eq!(direct.coords, s.coords);
            prop_assert_eq!(&direct.entry, &s.entry);
            prop_assert_eq!(&direct.workload.name, &s.workload.name);
            prop_assert_eq!(direct.budget, s.budget);
            prop_assert_eq!(direct.rep_policy, s.rep_policy);
            prop_assert_eq!(
                direct.campaign.noise.cv.to_bits(),
                s.campaign.noise.cv.to_bits()
            );
            count += 1;
        }
        prop_assert_eq!(count, matrix.len());
        // A second enumeration replays the first exactly.
        let replay: Vec<usize> = matrix.scenarios().map(|s| s.index).collect();
        prop_assert_eq!(replay, (0..matrix.len()).collect::<Vec<_>>());
    }

    /// For any axes and any shard count, the shards tile the index
    /// space: contiguous, disjoint, complete, balanced within one.
    #[test]
    fn shards_partition_any_matrix_exactly(matrix in arb_matrix(), total in 1usize..=8) {
        let shards: Vec<_> = (0..total).map(|k| matrix.shard(k, total)).collect();
        prop_assert_eq!(shards[0].start, 0);
        prop_assert_eq!(shards[total - 1].end, matrix.len());
        for w in shards.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        prop_assert_eq!(sizes.iter().sum::<usize>(), matrix.len());
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "balanced within one scenario: {:?}", sizes);
        // The matrix fingerprint is what merge trusts: stable across
        // calls, and not shared with a differently-shaped matrix.
        prop_assert_eq!(matrix.fingerprint(), matrix.fingerprint());
        let grown = matrix.clone().with_budgets(
            matrix.budgets().iter().copied().chain([Some(gib(512))]).collect(),
        );
        prop_assert!(matrix.fingerprint() != grown.fingerprint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Matrix execution is bit-identical across serial, job-parallel,
    /// and cached strategies for random workloads, seeds, budgets, and
    /// worker counts.
    #[test]
    fn matrix_execution_is_bit_identical_serial_parallel_cached(
        spec in arb_workload(),
        seed in 0u64..1000,
        budget_gib in 1u64..32,
        workers in 2usize..5,
    ) {
        let zoo = Zoo::new(vec![
            ZooEntry::preset(Preset::XeonMaxSnc4),
            ZooEntry::preset(Preset::XeonMaxSnc4).with_axis(Axis::ScaleHbmBw(0.5)),
        ]);
        let matrix = ScenarioMatrix::new(zoo, vec![spec])
            .with_budgets(vec![None, Some(gib(budget_gib))])
            .with_campaign(campaign(seed));

        let serial = run_matrix(&matrix, &MatrixConfig {
            workers: 1,
            cache_enabled: false,
            ..MatrixConfig::default()
        }).unwrap();
        let parallel = run_matrix(&matrix, &MatrixConfig {
            workers,
            cache_enabled: false,
            ..MatrixConfig::default()
        }).unwrap();
        let cached = run_matrix(&matrix, &MatrixConfig {
            workers,
            cache_enabled: true,
            ..MatrixConfig::default()
        }).unwrap();
        let cached_serial = run_matrix(&matrix, &MatrixConfig {
            workers: 1,
            cache_enabled: true,
            ..MatrixConfig::default()
        }).unwrap();

        prop_assert!(serial.bit_identical(&parallel), "parallel diverged from serial");
        prop_assert!(serial.bit_identical(&cached), "cached diverged from serial");
        prop_assert!(serial.capacity_ok());
        // Accounting is deterministic too: cache hits, misses and
        // entries do not depend on the pool size.
        prop_assert_eq!(cached.stats.cache, cached_serial.stats.cache);
        // A warmed cache answers the whole matrix with zero new runs.
        let cache = Arc::new(MeasurementCache::new());
        let cfg = MatrixConfig { workers: 1, ..MatrixConfig::default() };
        let cold = run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).unwrap();
        let warm = run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).unwrap();
        prop_assert!(cold.bit_identical(&warm));
        prop_assert_eq!(warm.stats.cache.misses, 0);
    }

    /// Two scenarios sharing a machine fingerprint (same machine ×
    /// workload campaign under two HBM budgets) dedup through the
    /// shared cache: the second costs zero simulated runs.
    #[test]
    fn shared_machine_fingerprint_yields_cache_hits(
        spec in arb_workload(),
        seed in 0u64..1000,
    ) {
        let matrix = ScenarioMatrix::new(
            Zoo::new(vec![ZooEntry::preset(Preset::XeonMaxSnc4)]),
            vec![spec],
        )
        .with_budgets(vec![None, Some(gib(8))])
        .with_campaign(campaign(seed));

        let report = run_matrix(&matrix, &MatrixConfig {
            workers: 1,
            ..MatrixConfig::default()
        }).unwrap();
        prop_assert_eq!(report.scenarios.len(), 2);
        prop_assert_eq!(
            &report.scenarios[0].machine_fingerprint,
            &report.scenarios[1].machine_fingerprint
        );
        prop_assert!(report.stats.cache.hit_rate() > 0.0, "stats: {:?}", report.stats.cache);
        // Budget rows need the identical campaign: hits == misses.
        prop_assert_eq!(report.stats.cache.hits, report.stats.cache.misses);
    }

    /// The acceptance property: for arbitrary axes and any shard count
    /// `n ≤ 8`, merging the `n` shard reports (each run in its own
    /// process-private cache) is bit-identical to the unsharded
    /// `run_matrix` — rows, re-derived views, and stats modulo cache
    /// counters — and a second run against a saved cache snapshot
    /// executes zero new cells.
    #[test]
    fn sharded_merge_and_snapshot_warm_start_match_unsharded(
        spec in arb_workload(),
        seed in 0u64..1000,
        budget_gib in 1u64..32,
        total in 1usize..=8,
        with_noise_axis in any::<bool>(),
    ) {
        let zoo = Zoo::new(vec![
            ZooEntry::preset(Preset::XeonMaxSnc4),
            ZooEntry::preset(Preset::XeonMaxSnc4).with_axis(Axis::ScaleHbmBw(0.5)),
        ]);
        let mut matrix = ScenarioMatrix::new(zoo, vec![spec])
            .with_budgets(vec![None, Some(gib(budget_gib))])
            .with_rep_policies(vec![RepPolicy::Fixed, RepPolicy::confidence(0.02, 2)])
            .with_campaign(campaign(seed));
        if with_noise_axis {
            matrix = matrix.with_noise_cvs(vec![0.008, 0.0]);
        }
        let cfg = MatrixConfig::default();
        let full = run_matrix(&matrix, &cfg).unwrap();

        // Shard with independent caches — the cross-process case.
        let shards: Vec<ShardReport> = (0..total)
            .map(|k| {
                run_matrix_sharded(
                    &matrix,
                    &cfg,
                    matrix.shard(k, total),
                    Arc::new(MeasurementCache::new()),
                )
                .unwrap()
            })
            .collect();
        let merged = MatrixReport::merge(&shards).unwrap();
        prop_assert!(full.bit_identical(&merged), "{} shards diverged", total);
        // Stats match modulo cache counters (cells shared across a
        // shard boundary are simulated once per shard).
        prop_assert_eq!(full.stats.scenarios, merged.stats.scenarios);
        prop_assert_eq!(full.stats.planned_cells, merged.stats.planned_cells);
        prop_assert_eq!(full.stats.executed_cells, merged.stats.executed_cells);
        // The views re-derived from the union of rows are the
        // unsharded views, field for field.
        prop_assert_eq!(
            serde_json::to_string(&full.bw_curves).unwrap(),
            serde_json::to_string(&merged.bw_curves).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&full.frontiers).unwrap(),
            serde_json::to_string(&merged.frontiers).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&full.resident_groups).unwrap(),
            serde_json::to_string(&merged.resident_groups).unwrap()
        );

        // Warm start: a run against the saved snapshot of a previous
        // run's cache executes zero new cells.
        let cache = Arc::new(MeasurementCache::new());
        let cold = run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).unwrap();
        let (snapshot, _) = store::to_bytes(&cache);
        let warm_cache = Arc::new(MeasurementCache::new());
        store::from_bytes(&snapshot, &warm_cache).unwrap();
        let warm = run_matrix_with_cache(&matrix, &cfg, warm_cache).unwrap();
        prop_assert_eq!(warm.stats.cache.misses, 0);
        prop_assert!(cold.bit_identical(&warm));
        prop_assert!(full.bit_identical(&warm));
    }
}

/// The acceptance check: a zoo matrix containing the Xeon Max preset
/// still reproduces the paper's Table II bands on that machine, and its
/// rows are bit-identical to the plain driver's analysis.
#[test]
fn xeon_max_scenario_rows_stay_in_table2_bands() {
    let zoo = Zoo::parse("xeon-max,hbm-flat,small-hbm").unwrap();
    let matrix = ScenarioMatrix::new(
        zoo,
        vec![
            hmpt_repro::workloads::npb::mg::workload(),
            hmpt_repro::workloads::npb::is::workload(),
        ],
    )
    .with_budgets(vec![None, Some(gib(16))]);
    let report = run_matrix(&matrix, &MatrixConfig::default()).unwrap();
    assert_eq!(report.scenarios.len(), 12);

    // Paper bands: mg 2.27 / 69.6 %, is 2.21 / 60.0 %.
    let bands = [("mg.D", 2.27, 69.6), ("is.Cx4", 2.21, 60.0)];
    for (name, max, usage) in bands {
        let row = report
            .scenarios
            .iter()
            .find(|r| r.machine == "xeon-max" && r.workload == name && r.budget_bytes.is_none())
            .expect("xeon-max row present");
        assert!((row.max_speedup - max).abs() < 0.1, "{name}: {}", row.max_speedup);
        assert!((row.usage_90_pct - usage).abs() < 3.0, "{name}: {}", row.usage_90_pct);
    }

    // And the scenario row is bitwise the plain driver's result.
    let spec = hmpt_repro::workloads::npb::mg::workload();
    let plain =
        hmpt_repro::core::driver::Driver::new(hmpt_repro::machine()).analyze(&spec).unwrap();
    let row = report
        .scenarios
        .iter()
        .find(|r| r.machine == "xeon-max" && r.workload == "mg.D" && r.budget_bytes.is_none())
        .unwrap();
    assert_eq!(row.max_speedup.to_bits(), plain.table2.max_speedup.to_bits());
    assert_eq!(row.usage_90_pct.to_bits(), plain.table2.usage_90_pct.to_bits());
}
