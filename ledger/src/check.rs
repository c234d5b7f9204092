//! Output checks, run after the timed iterations. Every operation of
//! every iteration is checked; a failed check is a failed operation.

use std::path::Path;

use hmpt_core::scenario::MatrixReport;
use hmpt_report::CampaignRecord;

use crate::work::read;
use crate::{json_object, Workload};

/// The pinned zoo baseline (CI's zero-tolerance gate input).
const BASELINE: &str = include_str!("../../baselines/zoo-baseline.json");

/// The placement flips CI's gate allowlists: cxl-far scenarios whose
/// tight budgets spill to the CXL tier since the N-pool model.
const ALLOWED_FLIPS: [&str; 3] = [
    "cxl-far·mg.D cv=0.008 reps=fixed×3 budget=17179869184B",
    "cxl-far·mg.D cv=0.008 reps=fixed×3 budget=8589934592B",
    "cxl-far·bt.D cv=0.008 reps=fixed×3 budget=8589934592B",
];

fn parse_report(text: &str) -> Result<MatrixReport, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Rows equal the pinned baseline: every Table II quantity and the
/// unconstrained placement exactly, the budgeted placement too except
/// on the allowlisted flips.
fn matches_baseline(report: &MatrixReport) -> Result<(), String> {
    let base: CampaignRecord = serde_json::from_str(BASELINE).map_err(|e| e.to_string())?;
    let mut head = CampaignRecord::new("zoo");
    head.absorb_matrix(report);
    if head.scenarios.len() != base.scenarios.len() {
        return Err(format!(
            "{} rows, baseline has {}",
            head.scenarios.len(),
            base.scenarios.len()
        ));
    }
    for row in &head.scenarios {
        let b = base
            .scenarios
            .iter()
            .find(|b| b.key == row.key)
            .ok_or_else(|| format!("{}: not in the baseline", row.key))?;
        let same = row.max_speedup.to_bits() == b.max_speedup.to_bits()
            && row.hbm_only_speedup.to_bits() == b.hbm_only_speedup.to_bits()
            && row.usage_90_pct.to_bits() == b.usage_90_pct.to_bits()
            && row.best_groups == b.best_groups;
        let same_budgeted = row.budgeted_config == b.budgeted_config
            && row.budgeted_speedup.to_bits() == b.budgeted_speedup.to_bits();
        if !same || !(same_budgeted || ALLOWED_FLIPS.contains(&row.key.as_str())) {
            return Err(format!("{}: differs from the baseline", row.key));
        }
    }
    Ok(())
}

/// Tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("hmpt-ledger: check failed: {what}: {e}");
        }
    }
}

fn same_rows(out: &MatrixReport, reference: &MatrixReport) -> Result<(), String> {
    if out.bit_identical(reference) {
        Ok(())
    } else {
        Err("rows differ from the serial uncached reference".into())
    }
}

pub fn check(workload: Workload, seed: u64, dir: &Path, ks: &[String]) -> Result<String, String> {
    let mut tally = Tally::default();
    match workload {
        Workload::ZooCold => {
            let reference = parse_report(&read(&dir.join("ref.json"))?)?;
            if seed == 0 {
                tally.record("reference vs baseline", matches_baseline(&reference));
            }
            for k in ks {
                let result = read(&dir.join(format!("out-{k}.json")))
                    .and_then(|t| parse_report(&t))
                    .and_then(|out| {
                        same_rows(&out, &reference)?;
                        if seed == 0 {
                            matches_baseline(&out)?;
                        }
                        Ok(())
                    });
                tally.record(&format!("iteration {k}"), result);
            }
        }
        Workload::Table2Batch => {
            let reference: Vec<String> =
                read(&dir.join("ref.txt"))?.lines().map(String::from).collect();
            for k in ks {
                let out = read(&dir.join(format!("out-{k}.txt"))).unwrap_or_default();
                let lines: Vec<&str> = out.lines().collect();
                for (i, want) in reference.iter().enumerate() {
                    let result = match lines.get(i).map(|l| l.split_once(' ')) {
                        Some(Some((digest, "true"))) if digest == want => Ok(()),
                        Some(Some((_, "true"))) => {
                            Err("campaigns differ from the reference".into())
                        }
                        Some(Some(_)) => Err("no bit-identical compare pass".into()),
                        _ => Err("no output".into()),
                    };
                    tally.record(&format!("iteration {k} machine {i}"), result);
                }
            }
        }
        Workload::ServedTenants => {
            let (pool, streams) = crate::work::read_streams(dir)?;
            let references = (0..pool.len())
                .map(|i| read(&dir.join(format!("ref-{i}.txt"))))
                .collect::<Result<Vec<_>, _>>()?;
            let planned: usize = streams.iter().map(Vec::len).sum();
            for k in ks {
                let out = read(&dir.join(format!("out-{k}.txt"))).unwrap_or_default();
                let jobs: Vec<&str> = out.lines().collect();
                for job in &jobs {
                    tally.record(&format!("iteration {k} job"), served_job(job, &references));
                }
                for _ in jobs.len()..planned {
                    tally.record(&format!("iteration {k} job"), Err("never finished".into()));
                }
            }
        }
    }
    Ok(json_object(&[
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
    ]))
}

/// A served report's rows equal those of the same spec run through
/// `api::execute`. Floats print from their bits, so equal text is
/// equal bits.
fn served_job(line: &str, references: &[String]) -> Result<(), String> {
    let (pool, rows) = line.split_once('\t').ok_or("malformed output line")?;
    let pool: usize = pool.parse().map_err(|_| "bad pool index")?;
    let reference = references.get(pool).ok_or("pool index out of range")?;
    match rows {
        "" => Err("job did not complete".into()),
        rows if rows == reference => Ok(()),
        _ => Err("rows differ from the api::execute run of the same spec".into()),
    }
}
