//! Smoke tests for the experiment harness: run the report pipeline's entry
//! points at tiny scale so CI exercises the same code paths as the Criterion
//! benches and the `report` binary, in seconds instead of minutes.

use bench::{
    ablation_lock_granularity, comparison_matrix, fig10_limit, fig10_micro, fig11_lock_overhead,
    fig13_mechanisms, fig_par, table1_qualitative, table3_sizes,
};

#[test]
fn fig10_micro_runs_and_views_beat_joins() {
    let rows = fig10_micro(&[25], 2, 1);
    assert_eq!(rows.len(), 2, "one row per micro query");
    for row in rows.rows() {
        let query = row.str("query");
        assert!(row.num("view_sim_ms") > 0.0, "{query}: view scan measured");
        assert!(row.num("join_sim_ms") > 0.0, "{query}: join measured");
        // The paper's central micro-result: scanning the materialized view is
        // faster than the client-side join at every scale.
        let speedup = row.num("sim_speedup");
        assert!(speedup > 1.0, "{query}: view scan should beat the join (speedup {speedup})");
    }
}

#[test]
fn fig10_limit_companion_is_o_of_k() {
    let rows = fig10_limit(&[25, 50], 10, 1, 1);
    assert_eq!(rows.len(), 2);
    for row in rows.rows() {
        assert_eq!(row.num("store_rows_scanned"), 10.0, "{} customers", row.num("customers"));
    }
}

#[test]
fn fig10_micro_parallel_sim_times_only_improve() {
    // Answer equivalence across thread counts is asserted row-for-row at
    // the lower layers (query par_exec tests, tpcw micro tests); this
    // checks the harness-level invariant that sim time can only improve
    // under the max-of-workers merge rule.
    let serial = fig10_micro(&[25], 1, 1);
    let parallel = fig10_micro(&[25], 1, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.rows().zip(parallel.rows()) {
        assert_eq!(s.str("query"), p.str("query"));
        assert!(p.num("view_sim_ms") <= s.num("view_sim_ms") + 1e-9);
        assert!(p.num("join_sim_ms") <= s.num("join_sim_ms") + 1e-9);
    }
}

#[test]
fn fig_par_sweep_runs_at_tiny_scale() {
    let rows = fig_par(25, &[1, 2], 1);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.row(0).num("threads"), 1.0);
    assert!(rows.rows().all(|r| r.num("view_sim_ms") > 0.0 && r.num("join_sim_ms") > 0.0));
    assert!(rows.row(1).num("join_sim_ms") <= rows.row(0).num("join_sim_ms"));
}

#[test]
fn fig11_lock_overhead_grows_with_lock_count() {
    let rows = fig11_lock_overhead(&[1, 8], 2);
    assert_eq!(rows.len(), 2);
    let (one, eight) = (rows.row(0).num("sim_ms"), rows.row(1).num("sim_ms"));
    assert!(eight > one, "locking 8 rows must cost more than locking 1 ({eight} vs {one})");
}

#[test]
fn comparison_matrix_and_table3_at_tiny_scale() {
    // Backs Fig. 12, Fig. 14, Table II and Table III.
    let matrix = comparison_matrix(20, 1);
    assert_eq!(matrix.statements.len(), 24, "11 joins + 13 writes");
    assert!(matrix.systems.len() >= 4, "all evaluated systems present");

    // Table II: every HBase-backed system supports the full statement set.
    for system in ["Synergy", "MVCC-A", "MVCC-UA", "Baseline"] {
        let total = matrix
            .total_ms(system)
            .unwrap_or_else(|| panic!("{system} should support every statement"));
        assert!(total > 0.0);
    }

    // The headline result: Synergy's full benchmark is faster than Baseline's.
    let synergy = matrix.total_ms("Synergy").unwrap();
    let baseline = matrix.total_ms("Baseline").unwrap();
    assert!(
        synergy < baseline,
        "Synergy ({synergy} ms) should beat Baseline ({baseline} ms)"
    );

    // Table III: sizes derive from the same matrix; views cost extra space.
    let sizes = table3_sizes(&matrix);
    assert!(!sizes.is_empty());
    let relative = |name: &str| {
        sizes
            .find("system", name)
            .map(|r| r.num("relative_to_baseline"))
            .unwrap_or_else(|| panic!("{name} missing from Table III"))
    };
    assert!((relative("Baseline") - 1.0).abs() < 1e-9);
    assert!(
        relative("Synergy") > 1.0,
        "materialized views must add storage over Baseline"
    );
}

#[test]
fn ablation_single_lock_beats_per_row_locks() {
    let rows = ablation_lock_granularity(&[1, 16]);
    assert_eq!(rows.len(), 2);
    let many = rows.row(1);
    let (single, per_row) = (many.num("single_lock_sim_ms"), many.num("per_row_locks_sim_ms"));
    assert!(
        single < per_row,
        "one hierarchical lock ({single} ms) must be cheaper than {} row locks ({per_row} ms)",
        many.num("rows_touched")
    );
}

#[test]
fn qualitative_tables_are_populated() {
    assert!(!table1_qualitative().is_empty());
    assert!(!fig13_mechanisms().is_empty());
}

#[test]
fn report_cli_prints_usage_and_rejects_unknown_names() {
    let report = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .expect("report binary runs")
    };
    let help = report(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&help.stdout);
    for figure in bench::FIGURES {
        assert!(usage.contains(figure.name), "usage lists {}", figure.name);
    }
    // A typo must fail loudly, before running anything.
    for args in [&["fig99"][..], &["fig10", "--bogus"], &["fig10", "--reps"]] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran nothing");
        assert!(String::from_utf8_lossy(&out.stderr).contains("artifacts: all"));
    }
}
