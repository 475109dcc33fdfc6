//! The repository benchmark.  Usage (from the repository root):
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload browsing|ordering|scan --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets the deployment up several times (reporting the median
//! `setup_s`), sends the workload's generated operations from one client in
//! a closed loop, checks the answers and prints every end-to-end metric.
//! `--trace 1` runs the same operations split into the public calls of each
//! layer, prints the per-layer metrics and writes the span file.  Either way
//! the last stdout line is one JSON object; any failed operation or check
//! makes the command exit non-zero.  See README.md.

mod checks;
mod setup;
mod stats;
mod trace;
mod workload;

use setup::{setup, Deployment};
use stats::{median, Latencies, Report};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::{generate, Kind, Op, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal measuring time; sets the fixed operation count.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(flag, value);
    }
    let get = |flag: &str| {
        values
            .get(flag)
            .ok_or_else(|| format!("missing {flag}"))
            .map(String::as_str)
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.clamp(1, 600),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload browsing|ordering|scan --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        run_end_to_end(&args)
    };
    match outcome {
        Ok(outcome) => {
            outcome
                .report
                .print(outcome.failed == 0, outcome.attempted, outcome.failed);
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations or checks failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run prints.
pub struct Outcome {
    /// Metrics in report order.
    pub report: Report,
    /// Operations attempted (checks add to `failed`, not to this).
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
}

/// Wall and sim latency samples of one pass over the operations.
#[derive(Default)]
struct Pass {
    /// Read wall times (ms).
    reads: Latencies,
    /// Write wall times (ms).
    writes: Latencies,
    /// Read sim times (ms).
    sim_reads: Latencies,
    /// Write sim times (ms).
    sim_writes: Latencies,
    /// Operations that returned an error.
    errors: u64,
    /// Checks that failed.
    check_failures: u64,
}

impl Pass {
    /// Operations per second of time spent inside the system's calls.
    fn throughput(&self) -> f64 {
        let ops = (self.reads.len() + self.writes.len()) as f64;
        ops / ((self.reads.sum() + self.writes.sum()) / 1_000.0).max(f64::MIN_POSITIVE)
    }

    fn record_failure(&mut self, what: &str, op: &Op, error: impl std::fmt::Display) {
        self.check_failures += 1;
        eprintln!("check failed: {what} {} {:?}: {error}", op.label, op.params);
    }
}

/// Parses each distinct statement once (for checks and the traced run).
pub fn parsed_statements(ops: &[Op]) -> Result<BTreeMap<&'static str, sql::Statement>, String> {
    let mut parsed = BTreeMap::new();
    for op in ops {
        if !parsed.contains_key(op.sql) {
            let statement =
                sql::parse_statement(op.sql).map_err(|e| format!("{}: {e}", op.label))?;
            parsed.insert(op.sql, statement);
        }
    }
    Ok(parsed)
}

/// Runs the warm-up operations (one of each statement) before timing, so
/// the plan cache is warm and first-use costs are paid, as for a
/// long-running client.
pub fn warm_up(system: &synergy::SynergySystem, warm_up: &[Op]) -> Result<(), String> {
    for op in warm_up {
        system
            .execute_sql(op.sql, &op.params)
            .map_err(|e| format!("warm-up {}: {e}", op.label))?;
    }
    Ok(())
}

/// The base-table join's row count for the `scan` workload's Q2.
fn scan_join_rows(system: &synergy::SynergySystem) -> Result<usize, String> {
    let statement = sql::parse_statement(workload::SCAN_Q2).map_err(|e| e.to_string())?;
    Ok(system
        .executor()
        .execute(&statement, &[])
        .map_err(|e| format!("base join: {e}"))?
        .len())
}

/// Sends every operation through `SynergySystem::execute_sql`, timing each
/// call in wall and sim time.  `scan` results are checked against the
/// join's row count (`scan_rows`: the count before the first operation;
/// each insert adds one row).  Sampled reads are checked against the base
/// tables between operations.
fn run_pass(deployment: &Deployment, ops: &[Op], scan_rows: Option<usize>) -> Result<Pass, String> {
    let system = &deployment.system;
    let clock = system.cluster().clock().clone();
    let parsed = parsed_statements(ops)?;
    let mut expected_scan_rows = scan_rows;
    let mut pass = Pass::default();
    for op in ops {
        let sim_start = clock.now();
        let start = Instant::now();
        let result = system.execute_sql(op.sql, &op.params);
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let sim_ms = clock.now().duration_since(sim_start).as_millis_f64();
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                pass.errors += 1;
                eprintln!("operation failed: {} {:?}: {e}", op.label, op.params);
                continue;
            }
        };
        match op.kind {
            Kind::Write => {
                pass.writes.push(wall_ms);
                pass.sim_writes.push(sim_ms);
                if let Some(rows) = &mut expected_scan_rows {
                    *rows += result.rows_affected;
                }
            }
            Kind::Read => {
                pass.reads.push(wall_ms);
                pass.sim_reads.push(sim_ms);
                if let Some(rows) = expected_scan_rows {
                    if result.len() != rows {
                        pass.record_failure(
                            "scan row count",
                            op,
                            format!("{} rows, join has {rows}", result.len()),
                        );
                    }
                }
                if op.check {
                    if let Err(e) =
                        checks::read_matches_base(system, &parsed[op.sql], &op.params, &result)
                    {
                        pass.record_failure("read vs base join", op, e);
                    }
                }
            }
        }
    }
    if let Some(expected) = expected_scan_rows {
        let joined = scan_join_rows(system)?;
        if joined != expected {
            pass.check_failures += 1;
            eprintln!(
                "check failed: base join has {joined} rows after the run, expected {expected}"
            );
        }
    }
    Ok(pass)
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1_024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".to_string())
}

/// Total stored bytes over the stored bytes of the base relations.
fn storage_amplification(deployment: &Deployment) -> f64 {
    let metrics = deployment.system.cluster().metrics();
    let base: u64 = deployment
        .base_tables
        .iter()
        .filter_map(|table| metrics.tables.get(table))
        .map(|t| t.bytes)
        .sum();
    metrics.total_bytes() as f64 / base.max(1) as f64
}

fn latency_metrics(report: &mut Report, name: &str, unit: &'static str, samples: &Latencies) {
    let (p50, tail, pct) = samples.summary();
    let n = samples.len();
    report.note(&format!("{name}_p50_ms"), p50, unit, format!("p50 of {n}"));
    report.note(
        &format!("{name}_tail_ms"),
        tail,
        unit,
        format!("p{pct} of {n}"),
    );
}

fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    // The timed phase runs on the first deployment, in a fresh process
    // heap; the further set-ups only time `setup_s`.
    let deployment = setup(args.workload, args.seed)?;
    let mut setup_times = vec![deployment.times.total()];
    let inputs = generate(
        args.workload,
        &deployment.keys,
        args.seed,
        args.workload.op_count(args.seconds),
    );
    let ops = inputs.ops;
    warm_up(&deployment.system, &inputs.warm_up)?;
    let scan_rows = match args.workload {
        Workload::Scan => Some(scan_join_rows(&deployment.system)?),
        _ => None,
    };
    let pass = run_pass(&deployment, &ops, scan_rows)?;
    let peak_rss = peak_rss_mib()?;
    let amplification = storage_amplification(&deployment);
    let view_mismatches = checks::views_match_recompute(&deployment.system)?;
    drop(deployment);
    for _ in 1..SETUP_REPS {
        setup_times.push(setup(args.workload, args.seed)?.times.total());
    }

    let attempted = ops.len() as u64;
    let failed = pass.errors + pass.check_failures + view_mismatches as u64;
    let mut report = Report::default();
    report.note(
        "throughput_ops_s",
        pass.throughput(),
        "1/s",
        format!("{} ops, 1 client, closed loop", ops.len()),
    );
    latency_metrics(&mut report, "read", "ms", &pass.reads);
    latency_metrics(&mut report, "write", "ms", &pass.writes);
    // Simulated milliseconds of the cost model, not wall time.
    latency_metrics(&mut report, "sim_read", "sim_ms", &pass.sim_reads);
    latency_metrics(&mut report, "sim_write", "sim_ms", &pass.sim_writes);
    report.note(
        "setup_s",
        median(&setup_times),
        "s",
        format!("median of {SETUP_REPS} set-ups: {setup_times:.3?}"),
    );
    report.add("storage_amplification", amplification, "ratio");
    report.add("peak_rss_mib", peak_rss, "MiB");
    // Always 0 when the run passes, so it is a report line, not a JSON
    // metric; the JSON result carries it as `failed` over `attempted`.
    println!(
        "{:<40} {:>16.6} {:<6} {failed} of {attempted}: errors {}, read/scan checks {}, views {view_mismatches}",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        pass.errors,
        pass.check_failures,
    );
    Ok(Outcome {
        report,
        attempted,
        failed,
    })
}
