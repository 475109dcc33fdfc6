//! `report` — regenerates every table and figure of the paper's evaluation
//! and prints them in the same layout.
//!
//! ```text
//! cargo run --release -p bench --bin report -- all
//! cargo run --release -p bench --bin report -- fig12 --customers 500 --reps 10
//! cargo run --release -p bench --bin report -- all --json
//! ```
//!
//! The artifacts are the entries of [`bench::FIGURES`]: `table1`, `fig10`,
//! `fig_par`, `fig11`, `fig13`, `comparison_matrix`, `fig12`, `fig14`,
//! `table2`, `table3`, `fig_writes`, `fig_faults`, `fig_availability`,
//! `fig_partial`, `ablation`; `all` runs every entry in that order.
//!
//! `--threads N` runs the fig10 measurements with N region-parallel workers
//! (`fig_par` always sweeps its own 1/2/4/8 axis); `--out PATH` redirects
//! the `--json` report; `--explain` additionally dumps the Q1/Q2 plan
//! trees, baseline vs view-rewritten, showing the Synergy rewrite rule
//! firing inside the planner.  `--help` prints the usage and the artifact
//! names; an unknown artifact or flag prints them and exits with status 2.
//!
//! With `--json`, the run additionally writes `BENCH_report.json` containing,
//! per figure, both the **simulated** milliseconds of the cost model (the
//! paper's metric) and the **wall-clock** milliseconds this process spent
//! producing the figure (the reproduction's own perf trajectory).

use bench::json::Json;
use bench::figure::Output;
use bench::{Ctx, Figure, DEFAULT_CUSTOMERS, DEFAULT_REPS, EXPLAIN, FIGURES};

struct Options {
    artifact: String,
    customers: u64,
    reps: u64,
    /// Region-parallel worker count for the fig10 measurements (fig_par
    /// sweeps its own axis regardless).
    threads: usize,
    json: bool,
    /// Dump the Q1/Q2 plan trees (baseline vs view-rewritten).
    explain: bool,
    out: String,
}

/// The usage text: flags plus every artifact name of [`bench::FIGURES`].
fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    format!(
        "usage: report [ARTIFACT] [--customers N] [--reps N] [--threads N] [--json] [--out PATH] [--explain]\n\
         artifacts: all {}\n",
        names.join(" ")
    )
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut options = Options {
        artifact: "all".to_string(),
        customers: DEFAULT_CUSTOMERS,
        reps: DEFAULT_REPS,
        threads: 1,
        json: false,
        explain: false,
        out: "BENCH_report.json".to_string(),
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} takes a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg} takes a number, got {text:?}"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--customers" => options.customers = number(value()?)?,
            "--reps" => options.reps = number(value()?)?,
            "--threads" => options.threads = (number(value()?)? as usize).max(1),
            "--out" => options.out = value()?,
            "--json" => options.json = true,
            "--explain" => options.explain = true,
            name if !name.starts_with('-') => {
                if name != "all" && !FIGURES.iter().any(|f| f.name == name) {
                    return Err(format!("unknown artifact {name}"));
                }
                options.artifact = name.to_string();
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(options))
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Some(options)) => options,
        Ok(None) => {
            print!("{}", usage());
            return;
        }
        Err(message) => {
            eprint!("report: {message}\n{}", usage());
            std::process::exit(2);
        }
    };
    let artifact = options.artifact.as_str();
    println!("== Synergy reproduction report ==");
    println!(
        "scale: {} customers ({} items, {} orders), {} repetitions per measurement, {} thread(s)",
        options.customers,
        options.customers * 10,
        options.customers * 10,
        options.reps,
        options.threads
    );
    println!("all response times are simulated milliseconds (cost model: crates/simclock/src/cost.rs)\n");

    // A figure runs when asked for, or when a figure asked for needs it;
    // the needed ones run first, and every figure prints in table order.
    let asked = |f: &Figure| artifact == "all" || f.name == artifact;
    let needed = |f: &Figure| FIGURES.iter().any(|g| asked(g) && g.needs.contains(&f.name));
    let explain = options.explain.then_some(&EXPLAIN);
    let selected: Vec<&Figure> = explain.into_iter().chain(FIGURES.iter().filter(|f| asked(f) || needed(f))).collect();
    let ctx = Ctx::new(options.customers, options.reps, options.threads);
    let mut ran: Vec<Option<Output>> = selected.iter().map(|f| needed(f).then(|| f.produce(&ctx))).collect();
    let mut figures: Vec<(String, Json)> = Vec::new();
    for (figure, ran) in selected.iter().zip(&mut ran) {
        let output = ran.take().unwrap_or_else(|| figure.produce(&ctx));
        print!("{}", output.to_text());
        if figure.json {
            figures.push((figure.name.to_string(), output.to_json()));
        }
    }

    if options.json {
        // Schema 2: adds the top-level `threads` field (the fig10 worker
        // count) so `bench_diff` can insist on like-for-like comparisons.
        let doc = Json::obj([
            ("schema_version", Json::Int(2)),
            ("artifact", Json::str(artifact)),
            ("customers", Json::Int(options.customers as i64)),
            ("reps", Json::Int(options.reps as i64)),
            ("threads", Json::Int(options.threads as i64)),
            ("figures", Json::Obj(figures)),
        ]);
        let path = options.out.as_str();
        std::fs::write(path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
