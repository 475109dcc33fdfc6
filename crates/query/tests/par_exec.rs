//! Parallel-executor equivalence: the same statements evaluated at
//! `threads` ∈ {2, 4} must return exactly the rows (order included) the
//! serial executor returns — across every access path of the decoded scan
//! source (multi-region full scans, key ranges, covered and non-covered
//! index scans), partitioned hash joins, residual filters, top-k and
//! aggregation.

use nosql_store::{Cluster, ClusterConfig};
use query::{baseline, ColumnType, Executor};
use relational::{Index, Relation, Row, Schema};
use sql::parse_statement;

/// A two-table database big enough to split into several regions (small
/// region threshold), so the parallel scan actually partitions work.
fn executor(threads: usize) -> Executor {
    let schema = Schema::new()
        .with_relation(
            Relation::new("Customer")
                .attributes(["c_id", "c_name", "c_group"])
                .primary_key(["c_id"])
                .build(),
        )
        .with_relation(
            Relation::new("Orders")
                .attributes(["o_id", "o_c_id", "o_total"])
                .primary_key(["o_id"])
                .foreign_key("o_c_id", "Customer", "c_id")
                .build(),
        )
        // Keyed on o_c_id ++ o_id: covers o_id and o_c_id, not o_total.
        .with_index(Index::new(
            "Orders_by_customer",
            "Orders",
            ["o_c_id"],
            ["o_c_id"],
        ));
    let catalog = baseline::baseline_catalog_with_types(&schema, &|_, column| match column {
        "c_id" | "o_id" | "o_c_id" => Some(ColumnType::Int),
        "o_total" => Some(ColumnType::Float),
        _ => Some(ColumnType::Str),
    });
    let cluster = Cluster::new(ClusterConfig {
        region_split_bytes: 4_000,
        ..ClusterConfig::default()
    });
    baseline::create_tables(&cluster, &catalog).unwrap();
    let exec = Executor::new(cluster, catalog).with_threads(threads);

    let customers: Vec<Row> = (1..=300i64)
        .map(|c_id| {
            Row::new()
                .with("c_id", c_id)
                .with("c_name", format!("Customer{c_id:04}"))
                .with("c_group", format!("g{}", c_id % 7))
        })
        .collect();
    exec.bulk_load_rows("Customer", &customers).unwrap();
    let orders: Vec<Row> = (1..=900i64)
        .map(|o_id| {
            Row::new()
                .with("o_id", o_id)
                .with("o_c_id", (o_id - 1) % 300 + 1)
                .with("o_total", o_id as f64 * 0.75)
        })
        .collect();
    exec.bulk_load_rows("Orders", &orders).unwrap();
    exec
}

const QUERIES: &[&str] = &[
    // Multi-region full scan.
    "SELECT * FROM Orders",
    // Partitioned hash join.
    "SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id",
    // Join + single-alias filter + projection.
    "SELECT c.c_name, o.o_total FROM Customer AS c, Orders AS o \
     WHERE c.c_id = o.o_c_id AND o.o_total > 300",
    // Parallel top-k over the join (distinct sort keys).
    "SELECT o.o_id, o.o_total FROM Customer AS c, Orders AS o \
     WHERE c.c_id = o.o_c_id ORDER BY o.o_total DESC LIMIT 9",
    // Single-table top-k.
    "SELECT * FROM Orders ORDER BY o_total LIMIT 7",
    // Store-level LIMIT pushdown (stays serial by design).
    "SELECT * FROM Orders LIMIT 10",
    // Aggregation over the parallel scan.
    "SELECT c_group, COUNT(*) FROM Customer GROUP BY c_group",
    // Key-range scan (bounds of equal decimal width clamp the walk).
    "SELECT * FROM Orders WHERE o_id >= 100 AND o_id <= 499",
    // Covered index scan.
    "SELECT o_id FROM Orders WHERE o_c_id = 17",
    // Non-covered index scan: index entries, then a Get per base row.
    "SELECT * FROM Orders WHERE o_c_id = 17",
];

#[test]
fn parallel_results_equal_serial_results_row_for_row() {
    let serial = executor(1);
    assert!(
        serial.cluster().metrics().tables["Orders"].regions > 1,
        "Orders must span regions for the fan-out to engage"
    );
    for threads in [2usize, 4] {
        let parallel = executor(threads);
        for sql_text in QUERIES {
            let statement = parse_statement(sql_text).unwrap();
            let expected = serial.execute(&statement, &[]).unwrap();
            let actual = parallel.execute(&statement, &[]).unwrap();
            assert_eq!(
                expected.rows, actual.rows,
                "threads={threads}, query: {sql_text}"
            );
        }
    }
}

#[test]
fn the_queries_cover_every_scan_access_path() {
    let exec = executor(2);
    let plans: String = QUERIES
        .iter()
        .map(|sql_text| exec.explain_sql(sql_text).unwrap())
        .collect();
    for access in ["access=full", "access=key-range", "access=index"] {
        assert!(plans.contains(access), "no query plans {access}:\n{plans}");
    }
}

#[test]
fn join_with_bare_limit_keeps_streaming_early_termination() {
    // A bare LIMIT over a join must stay on the lazily-pulled serial join
    // even at threads > 1: materializing the probe side would scan all 300
    // customers (1 200 store rows total) instead of one cursor page.
    let parallel = executor(4);
    let statement = parse_statement(
        "SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id LIMIT 5",
    )
    .unwrap();
    let before = parallel.cluster().metrics().ops;
    let result = parallel.execute(&statement, &[]).unwrap();
    assert_eq!(result.rows.len(), 5);
    let delta = parallel.cluster().metrics().ops.delta_since(&before);
    assert!(
        delta.scanned_rows < 1_200,
        "probe side must stop early ({} rows scanned)",
        delta.scanned_rows
    );
}

#[test]
fn parallel_execution_cuts_simulated_join_time() {
    let serial = executor(1);
    let parallel = executor(4);
    let statement =
        parse_statement("SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id")
            .unwrap();
    let (_, serial_sim) = serial
        .cluster()
        .clock()
        .measure(|| serial.execute(&statement, &[]).unwrap());
    let (_, parallel_sim) = parallel
        .cluster()
        .clock()
        .measure(|| parallel.execute(&statement, &[]).unwrap());
    assert!(
        parallel_sim < serial_sim,
        "multi-region scan + partitioned probe must merge to less sim time \
         (parallel={parallel_sim} serial={serial_sim})"
    );
}
