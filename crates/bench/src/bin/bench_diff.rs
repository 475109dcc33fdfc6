//! `bench_diff` — checks a fresh `BENCH_report.json` against the committed
//! reference with the gate table of [`bench::gates`].
//!
//! ```text
//! cargo run --release -p bench --bin bench_diff -- BENCH_report_tiny.json BENCH_report.json
//! ```
//!
//! Prints the per-figure wall-clock deltas and every gate's outcome, also
//! appended as Markdown to `$GITHUB_STEP_SUMMARY` when set.  Exits 1 when
//! any gate fails and 2 when the reports cannot be compared (different
//! thread counts, or not a report).

use bench::gates::evaluate;
use bench::json::Json;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <committed-report.json> <fresh-report.json>");
        std::process::exit(2);
    };
    let verdict = evaluate(&load(old_path), &load(new_path)).unwrap_or_else(|refusal| {
        eprintln!("{old_path} vs {new_path}: {refusal}");
        std::process::exit(2);
    });
    let summary = format!("### Bench gates ({old_path} → {new_path})\n\n{}", verdict.summary);
    println!("{summary}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut file) = std::fs::OpenOptions::new().append(true).create(true).open(path) {
            let _ = file.write_all(summary.as_bytes());
        }
    }
    if !verdict.failures.is_empty() {
        eprintln!("bench regression in: {}", verdict.failures.join(", "));
        std::process::exit(1);
    }
    println!("no bench regressions beyond the gates.");
}
