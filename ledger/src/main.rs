//! `hmpt-ledger` — the worker half of the benchmark. `run.py` drives
//! it; each subcommand is one child process and prints one JSON object
//! on stdout:
//!
//! ```text
//! hmpt-ledger prepare <workload> <seed> <dir>   inputs + references
//! hmpt-ledger setup   <workload> <dir>          the workload's set-up, timed
//! hmpt-ledger iter    <workload> <dir> <k>      one timed iteration
//! hmpt-ledger trace   <workload> <dir> <k>      one traced iteration
//! hmpt-ledger check   <workload> <seed> <dir> <k>...   output checks
//! ```
//!
//! Every timed interval is host time (`Instant`) and process CPU time
//! (`CLOCK_PROCESS_CPUTIME_ID`, all threads). Simulated results are
//! never timed, only compared bit for bit.

mod check;
mod inputs;
mod ledger;
mod work;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZooCold,
    ServedTenants,
    Table2Batch,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "zoo-cold" => Workload::ZooCold,
            "served-tenants" => Workload::ServedTenants,
            "table2-batch" => Workload::Table2Batch,
            _ => return None,
        })
    }
}

/// Process CPU time (user + sys, every thread), seconds.
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Render a flat JSON object from already-encoded values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
    format!("[{}]", items.join(","))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hmpt-ledger prepare <workload> <seed> <dir>\n\
         \x20      hmpt-ledger setup <workload> <dir>\n\
         \x20      hmpt-ledger iter|trace <workload> <dir> <k>\n\
         \x20      hmpt-ledger check <workload> <seed> <dir> <k>..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        return usage();
    }
    let Some(workload) = Workload::parse(&args[1]) else {
        eprintln!("hmpt-ledger: unknown workload `{}`", args[1]);
        return ExitCode::from(2);
    };
    // The CLI's quiet mode: warnings print, progress events do not.
    hmpt_obs::install(Arc::new(hmpt_obs::StderrCollector { quiet: true }), false);
    let result = match (args[0].as_str(), &args[2..]) {
        ("prepare", [seed, dir]) => match seed.parse() {
            Ok(seed) => work::prepare(workload, seed, Path::new(dir)),
            Err(_) => return usage(),
        },
        ("setup", [dir]) => work::setup(workload, Path::new(dir)),
        ("iter", [dir, k]) => work::iterate(workload, Path::new(dir), k),
        ("trace", [dir, k]) => ledger::traced(workload, Path::new(dir), k),
        ("check", [seed, dir, ks @ ..]) if !ks.is_empty() => match seed.parse() {
            Ok(seed) => check::check(workload, seed, Path::new(dir), ks),
            Err(_) => return usage(),
        },
        _ => return usage(),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hmpt-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
