//! A TPC-W bookstore session on the Synergy system, compared against the
//! Baseline (no views, MVCC) system — the workload the paper's introduction
//! motivates: product browsing, best sellers, order display and checkout
//! writes over a horizontally scaled NoSQL store.
//!
//! ```text
//! cargo run --release --example tpcw_bookstore
//! ```

use tpcw::queries::join_queries;
use tpcw::systems::{build_system, SystemKind};
use tpcw::writes::write_statements;
use tpcw::{TpcwDataset, TpcwScale};

fn main() {
    let scale = TpcwScale::new(200);
    println!(
        "generating the TPC-W dataset: {} customers, {} items, {} orders ...",
        scale.customers,
        scale.items(),
        scale.orders()
    );
    let dataset = TpcwDataset::generate(scale);

    println!("standing up Synergy and Baseline over the same data ...\n");
    let synergy = build_system(SystemKind::Synergy, &dataset);
    let baseline = build_system(SystemKind::Baseline, &dataset);

    println!("{:<6} {:<55} {:>14} {:>14}", "query", "description", "Synergy (ms)", "Baseline (ms)");
    for query in join_queries() {
        let params = query.params(scale, 1);
        let statement = query.statement();
        let synergy_outcome = synergy.execute(&statement, &params).expect("synergy runs");
        let baseline_outcome = baseline.execute(&statement, &params).expect("baseline runs");
        println!(
            "{:<6} {:<55} {:>14.1} {:>14.1}",
            query.id,
            query.description,
            synergy_outcome.elapsed.as_millis_f64(),
            baseline_outcome.elapsed.as_millis_f64()
        );
    }

    println!("\ncheckout path (write statements):");
    println!("{:<6} {:<40} {:>14} {:>14}", "write", "description", "Synergy (ms)", "Baseline (ms)");
    for write in write_statements() {
        let params = write.params(scale, 7);
        let statement = write.statement();
        let synergy_outcome = synergy.execute(&statement, &params).expect("synergy runs");
        let baseline_outcome = baseline.execute(&statement, &params).expect("baseline runs");
        println!(
            "{:<6} {:<40} {:>14.1} {:>14.1}",
            write.id,
            write.description,
            synergy_outcome.elapsed.as_millis_f64(),
            baseline_outcome.elapsed.as_millis_f64()
        );
    }

    println!(
        "\ndatabase sizes: Synergy {:.1} MiB (base tables + views + view-indexes), Baseline {:.1} MiB",
        synergy.database_size_bytes() as f64 / (1024.0 * 1024.0),
        baseline.database_size_bytes() as f64 / (1024.0 * 1024.0),
    );
    println!("(all times are simulated milliseconds from the cluster cost model — see crates/simclock/src/cost.rs)");
}
