//! Scenario-matrix execution: the bridge between the lazy
//! [`ScenarioMatrix`] IR and the fleet's executor/cache stack.
//!
//! [`run_matrix`] splits the matrix into *campaign blocks*
//! ([`ScenarioMatrix::blocks`]): the contiguous runs of scenarios that
//! share a (machine, workload) pair. Budget, policy and noise are the
//! matrix's inner axes, so every scenario whose cells can share a cache
//! key sits in one block, and no two blocks share a key. The blocks run
//! on **one** work-stealing pool per range — the matrix's only level of
//! parallelism. Inside a block, scenarios run in order and their
//! campaign cells run serially over the shared [`MeasurementCache`]:
//! the second budget of a (machine, workload) pair re-asks the same
//! campaign and is answered without new simulated runs. Because blocks
//! are key-disjoint, cache hits and misses are a pure function of the
//! matrix and the cache contents, whatever the pool size.
//!
//! Pool size and caching never change a row's bits (property-tested in
//! `tests/scenario_properties.rs` and re-checked at runtime by the
//! API's verification passes).
//!
//! The same machinery executes a *shard*: [`run_matrix_sharded`] runs
//! one index range of the matrix (see [`ScenarioMatrix::shard`]) and
//! emits a [`ShardReport`]; `MatrixReport::merge` reassembles a
//! partition's shard reports into the full report, bit-identical to an
//! unsharded [`run_matrix`]. Combined with an on-disk cache snapshot
//! (`hmpt_core::store`), this turns a matrix into a distributable
//! campaign: N processes, N shard files, one merge.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use hmpt_core::error::TunerError;
use hmpt_core::exec::{ExecutorKind, ParallelExecutor, RunExecutor};
use hmpt_core::grouping::GroupingConfig;
use hmpt_core::scenario::{
    MatrixReport, MatrixStats, ScenarioMatrix, ScenarioRow, ShardReport, ShardSpec,
};
use hmpt_sim::fingerprint::Fingerprint;
use hmpt_sim::machine::Machine;

use crate::cache::MeasurementCache;
use crate::service::{Fleet, FleetConfig, TuningJob};

/// How a scenario matrix is executed.
#[derive(Debug, Clone, Copy)]
pub struct MatrixConfig {
    /// Campaign blocks run concurrently (`1` = serial, `0` = auto-size
    /// to the host). Affects wall time only, never results or cache
    /// accounting.
    pub workers: usize,
    /// Consult the shared content-addressed cache per cell.
    pub cache_enabled: bool,
    pub grouping: GroupingConfig,
    /// Seed of each scenario's profiling run.
    pub profile_seed: u64,
    /// Evaluate campaign cells through the batched cold-path kernel
    /// (default true; bit-identical by contract, so — like the pool
    /// size — deliberately excluded from [`Self::bits_fingerprint`]).
    pub fast_path: bool,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            workers: 0,
            cache_enabled: true,
            grouping: GroupingConfig::default(),
            profile_seed: 7,
            fast_path: true,
        }
    }
}

impl MatrixConfig {
    /// Content fingerprint of the execution settings that determine row
    /// *bits*: the profiling seed and the grouping parameters. Pool size
    /// and caching are deliberately excluded — bit-identity across those
    /// is the subsystem's core invariant, so they may legitimately
    /// differ between shards.
    ///
    /// [`ShardReport::matrix_fingerprint`] is
    /// `matrix.fingerprint().combine(cfg.bits_fingerprint().raw())`,
    /// and `CampaignSpec::fingerprint` reproduces the same value for a
    /// matrix-mode spec — which is what lets a spec file act as the
    /// merge-validation artifact CI passes between shard jobs.
    pub fn bits_fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.grouping).combine(self.profile_seed)
    }

    /// The per-scenario pipeline: cells run serially inside a block
    /// (the pool is at block level), no online check.
    fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            executor: ExecutorKind::Serial,
            grouping: self.grouping,
            profile_seed: self.profile_seed,
            online_check: false,
            cache_enabled: self.cache_enabled,
            job_workers: 1,
            fast_path: self.fast_path,
            ..FleetConfig::default()
        }
    }
}

/// Execute a scenario matrix over a fresh shared cache.
pub fn run_matrix(matrix: &ScenarioMatrix, cfg: &MatrixConfig) -> Result<MatrixReport, TunerError> {
    run_matrix_with_cache(matrix, cfg, Arc::new(MeasurementCache::new()))
}

/// Execute a scenario matrix over an existing cache (warm-start: a
/// matrix sharing machines with an earlier run answers those campaigns
/// without new simulated runs).
pub fn run_matrix_with_cache(
    matrix: &ScenarioMatrix,
    cfg: &MatrixConfig,
    cache: Arc<MeasurementCache>,
) -> Result<MatrixReport, TunerError> {
    let (rows, stats) = run_matrix_range(matrix, cfg, cache, 0..matrix.len())?;
    Ok(MatrixReport::assemble(rows, stats))
}

/// Execute one shard of a matrix (see [`ScenarioMatrix::shard`]) over
/// an existing cache, producing the [`ShardReport`] that
/// `MatrixReport::merge` reassembles. Rows are bit-identical to the
/// same scenarios' rows in an unsharded run — a scenario's result
/// depends only on its own campaign, never on which process decoded
/// its index.
///
/// The report's `matrix_fingerprint` combines the matrix-axes
/// fingerprint with the execution settings that determine row bits
/// (profiling seed, grouping), so shards run under inconsistent
/// configurations refuse to merge.
pub fn run_matrix_sharded(
    matrix: &ScenarioMatrix,
    cfg: &MatrixConfig,
    shard: ShardSpec,
    cache: Arc<MeasurementCache>,
) -> Result<ShardReport, TunerError> {
    let (rows, stats) = run_matrix_range(matrix, cfg, cache, shard.range())?;
    Ok(ShardReport {
        shard: shard.shard,
        total_shards: shard.total,
        matrix_fingerprint: matrix.fingerprint().combine(cfg.bits_fingerprint().raw()).to_string(),
        rows,
        stats,
    })
}

/// One finished block: its rows plus planned and executed cell counts.
type BlockOutcome = (Vec<ScenarioRow>, u64, u64);

/// The shared range runner: `range`'s campaign blocks on one pool of
/// `cfg.workers`, each block's scenarios in order over `cache`.
fn run_matrix_range(
    matrix: &ScenarioMatrix,
    cfg: &MatrixConfig,
    cache: Arc<MeasurementCache>,
    range: Range<usize>,
) -> Result<(Vec<ScenarioRow>, MatrixStats), TunerError> {
    assert!(range.end <= matrix.len(), "range {range:?} exceeds matrix len {}", matrix.len());
    let _range_span =
        hmpt_obs::span_with("matrix.range", || format!("{}..{}", range.start, range.end));
    let t0 = Instant::now();
    let before = cache.stats();
    let fleet = Fleet::with_cache(cfg.fleet_config(), cache);
    let blocks: Vec<Range<usize>> = matrix.blocks(range.clone()).collect();
    let outcomes = ParallelExecutor::with_workers(cfg.workers)
        .run(blocks.len(), |b| run_block(&fleet, matrix, blocks[b].clone()));

    let mut rows: Vec<ScenarioRow> = Vec::with_capacity(range.len());
    let (mut planned, mut executed) = (0u64, 0u64);
    // The first failing block in index order wins.
    for outcome in outcomes {
        let (block_rows, p, e) = outcome?;
        rows.extend(block_rows);
        planned += p;
        executed += e;
    }
    if cfg.cache_enabled {
        hmpt_obs::gauge("cache.entries").set(fleet.cache().len() as u64);
    }

    let wall_s = t0.elapsed().as_secs_f64();
    let stats = MatrixStats {
        scenarios: rows.len(),
        planned_cells: planned,
        executed_cells: executed,
        cache: fleet.cache().stats().since(&before),
        wall_s,
        scenarios_per_s: if wall_s > 0.0 { rows.len() as f64 / wall_s } else { 0.0 },
    };
    Ok((rows, stats))
}

/// Run one campaign block: its scenarios in index order, each through
/// the fleet's per-job pipeline with serial cells. Every scenario of a
/// block shares its machine, which is built once.
fn run_block(
    fleet: &Fleet,
    matrix: &ScenarioMatrix,
    block: Range<usize>,
) -> Result<BlockOutcome, TunerError> {
    let mut rows = Vec::with_capacity(block.len());
    let (mut planned, mut executed) = (0u64, 0u64);
    let mut machine: Option<Machine> = None;
    for i in block {
        let s = matrix.scenario(i);
        let machine = match &machine {
            Some(m) => m.clone(),
            None => machine.insert(s.build_machine()?).clone(),
        };
        let job = TuningJob {
            // Per-scenario telemetry label: the `fleet.job` span of
            // scenario #i reads "#i machine·workload".
            label: Some(format!("#{} {}·{}", s.index, s.entry.name, s.workload.name)),
            spec: s.workload.clone(),
            machine,
            campaign: s.campaign,
            rep_policy: Some(s.rep_policy),
        };
        let report = fleet.run_job(&job)?;
        planned += report.analysis.campaign.planned_runs as u64;
        executed += report.analysis.campaign.executed_runs as u64;
        rows.push(ScenarioRow::build(&s, &job.machine, &report.analysis));
    }
    Ok((rows, planned, executed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_core::campaign::RepPolicy;
    use hmpt_core::measure::CampaignConfig;
    use hmpt_sim::units::gib;
    use hmpt_sim::zoo::Zoo;

    fn tiny_matrix() -> ScenarioMatrix {
        let zoo = Zoo::parse("xeon-max,hbm-flat").unwrap();
        ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()])
            .with_budgets(vec![None, Some(gib(16))])
    }

    #[test]
    fn matrix_runs_and_budget_rows_share_campaign_cells() {
        let report = run_matrix(&tiny_matrix(), &MatrixConfig::default()).unwrap();
        assert_eq!(report.scenarios.len(), 4);
        // Each machine's second budget re-asks the same campaign: half
        // the executed cells are answered by the cache.
        assert!(report.stats.cache.hits > 0, "stats: {:?}", report.stats.cache);
        assert_eq!(report.stats.cache.hits, report.stats.cache.misses);
        assert!(report.capacity_ok());
        // Budgeted rows respect their budget.
        let budgeted: Vec<_> =
            report.scenarios.iter().filter(|r| r.budget_bytes.is_some()).collect();
        assert_eq!(budgeted.len(), 2);
        for row in budgeted {
            assert!(row.budgeted.hbm_bytes <= gib(16));
            assert!(row.budgeted.slowdown_vs_best >= 1.0);
        }
    }

    #[test]
    fn execution_strategy_never_changes_row_bits() {
        let matrix = tiny_matrix();
        // The baseline also forces the naive per-cell kernel, so this
        // doubles as a fleet-level check of the fast path's bit-identity.
        let serial = run_matrix(
            &matrix,
            &MatrixConfig {
                workers: 1,
                cache_enabled: false,
                fast_path: false,
                ..MatrixConfig::default()
            },
        )
        .unwrap();
        let parallel = run_matrix(
            &matrix,
            &MatrixConfig { workers: 4, cache_enabled: false, ..MatrixConfig::default() },
        )
        .unwrap();
        let cached =
            run_matrix(&matrix, &MatrixConfig { workers: 4, ..MatrixConfig::default() }).unwrap();
        assert!(serial.bit_identical(&parallel), "parallel diverged");
        assert!(serial.bit_identical(&cached), "cached diverged");
        assert_eq!(serial.stats.cache.hits + serial.stats.cache.misses, 0, "cache was off");
    }

    #[test]
    fn warm_cache_answers_a_whole_matrix() {
        let matrix = tiny_matrix();
        let cfg = MatrixConfig::default();
        let cache = Arc::new(MeasurementCache::new());
        let cold = run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).unwrap();
        let warm = run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).unwrap();
        assert!(cold.bit_identical(&warm));
        assert_eq!(warm.stats.cache.misses, 0, "everything cached: {:?}", warm.stats.cache);
    }

    #[test]
    fn cross_machine_views_cover_the_zoo() {
        let report = run_matrix(&tiny_matrix(), &MatrixConfig::default()).unwrap();
        assert_eq!(report.bw_curves.len(), 1, "one curve per workload");
        assert_eq!(report.bw_curves[0].points.len(), 2, "one point per machine");
        assert_eq!(report.frontiers.len(), 2, "one frontier per (machine, workload)");
        for frontier in &report.frontiers {
            assert_eq!(frontier.points.len(), 2, "one point per budget");
        }
        assert_eq!(report.resident_groups.len(), 1);
        assert!(
            !report.resident_groups[0].groups.is_empty(),
            "mg's hot groups stay resident on both machines"
        );
    }

    #[test]
    fn rep_policy_axis_changes_cost_not_correctness() {
        let zoo = Zoo::parse("xeon-max").unwrap();
        let matrix = ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()])
            .with_rep_policies(vec![RepPolicy::Fixed, RepPolicy::confidence(0.02, 3)])
            .with_campaign(CampaignConfig::default());
        let report = run_matrix(&matrix, &MatrixConfig::default()).unwrap();
        assert_eq!(report.scenarios.len(), 2);
        let fixed = &report.scenarios[0];
        let adaptive = &report.scenarios[1];
        assert_eq!(fixed.planned_cells, adaptive.planned_cells);
        assert!(adaptive.executed_cells < fixed.executed_cells);
        assert!((fixed.max_speedup - adaptive.max_speedup).abs() < 0.05);
    }

    #[test]
    fn sharded_run_merges_bit_identical_to_unsharded() {
        let matrix = tiny_matrix();
        let cfg = MatrixConfig::default();
        let full = run_matrix(&matrix, &cfg).unwrap();
        for total in [1, 2, 3, 4] {
            // Each shard in its own fresh cache — the cross-process case.
            let shards: Vec<_> = (0..total)
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
            assert!(full.bit_identical(&merged), "{total} shards diverged");
            assert_eq!(full.stats.planned_cells, merged.stats.planned_cells);
            assert_eq!(full.stats.executed_cells, merged.stats.executed_cells);
            assert_eq!(full.bw_curves.len(), merged.bw_curves.len());
            assert_eq!(full.frontiers.len(), merged.frontiers.len());
        }
    }

    #[test]
    fn shards_over_a_shared_cache_still_dedup() {
        let matrix = tiny_matrix();
        let cfg = MatrixConfig::default();
        let cache = Arc::new(MeasurementCache::new());
        let a = run_matrix_sharded(&matrix, &cfg, matrix.shard(0, 2), Arc::clone(&cache)).unwrap();
        let b = run_matrix_sharded(&matrix, &cfg, matrix.shard(1, 2), Arc::clone(&cache)).unwrap();
        // Shard 0 = xeon-max × two budgets, shard 1 = hbm-flat × two
        // budgets: each shard dedups its budget pair internally.
        assert!(a.stats.cache.hits > 0);
        assert!(b.stats.cache.hits > 0);
        let merged = MatrixReport::merge(&[a, b]).unwrap();
        assert!(run_matrix(&matrix, &cfg).unwrap().bit_identical(&merged));
    }

    #[test]
    fn shards_with_different_execution_settings_refuse_to_merge() {
        let matrix = tiny_matrix();
        let a = run_matrix_sharded(
            &matrix,
            &MatrixConfig::default(),
            matrix.shard(0, 2),
            Arc::new(MeasurementCache::new()),
        )
        .unwrap();
        // Same matrix, different profiling seed: row bits differ, so
        // the combined fingerprint must refuse the merge.
        let b = run_matrix_sharded(
            &matrix,
            &MatrixConfig { profile_seed: 9, ..MatrixConfig::default() },
            matrix.shard(1, 2),
            Arc::new(MeasurementCache::new()),
        )
        .unwrap();
        assert!(matches!(
            MatrixReport::merge(&[a, b]),
            Err(hmpt_core::scenario::MergeError::MatrixMismatch { .. })
        ));
    }

    #[test]
    fn shards_of_different_matrices_refuse_to_merge() {
        let cfg = MatrixConfig::default();
        let a = tiny_matrix();
        let b = tiny_matrix().with_budgets(vec![None]);
        let sa =
            run_matrix_sharded(&a, &cfg, a.shard(0, 2), Arc::new(MeasurementCache::new())).unwrap();
        let sb =
            run_matrix_sharded(&b, &cfg, b.shard(1, 2), Arc::new(MeasurementCache::new())).unwrap();
        assert!(matches!(
            MatrixReport::merge(&[sa, sb]),
            Err(hmpt_core::scenario::MergeError::MatrixMismatch { .. })
        ));
    }

    #[test]
    fn invalid_zoo_entry_fails_the_run_with_its_name() {
        let zoo = hmpt_sim::zoo::scale_hbm_bw(hmpt_sim::zoo::Preset::XeonMaxSnc4, &[1.0, 0.0]);
        let matrix = ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()]);
        let err = run_matrix(&matrix, &MatrixConfig::default()).unwrap_err();
        assert!(matches!(err, TunerError::InvalidMachine { .. }), "{err}");
        assert!(err.to_string().contains("hbm-bw:0"));
    }
}
