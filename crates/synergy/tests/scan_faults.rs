//! A scan the store cannot finish must fail, never pass a truncated result
//! off as complete.  Under injected transient page faults with no retry
//! policy, a full-table SELECT and a view recompute each return either an
//! error or every row — at one and at two workers.

use nosql_store::{Cluster, ClusterConfig, FaultPlan};
use query::{ColumnType, QueryError};
use relational::{company, Row};
use sql::parse_workload;
use synergy::{SynergyConfig, SynergySystem};

const EMPLOYEES: i64 = 3_000;

fn company_types(_relation: &str, column: &str) -> Option<ColumnType> {
    matches!(
        column,
        "AID"
            | "EID"
            | "E_DNo"
            | "EHome_AID"
            | "EOffice_AID"
            | "DNo"
            | "PNo"
            | "P_DNo"
            | "WO_EID"
            | "WO_PNo"
            | "Hours"
            | "Zip"
    )
    .then_some(ColumnType::Int)
}

/// A Company deployment with `EMPLOYEES` employees and addresses, on a
/// cluster that fails one store page in five and never retries.
fn system(threads: usize, faulty: bool) -> SynergySystem {
    let config = ClusterConfig {
        fault_plan: faulty.then(|| FaultPlan::new(7).with_transients(0.2)),
        retry: None,
        ..ClusterConfig::default()
    };
    let workload =
        parse_workload(company::company_workload_sql().iter().map(String::as_str)).unwrap();
    let system = SynergySystem::build(
        Cluster::new(config),
        SynergyConfig::new(
            company::company_schema(),
            workload,
            company::company_roots(),
            &company_types,
        )
        .with_threads(threads),
    )
    .unwrap();
    let addresses: Vec<Row> = (1..=EMPLOYEES)
        .map(|aid| {
            Row::new()
                .with("AID", aid)
                .with("City", "N")
                .with("Zip", aid)
        })
        .collect();
    system.bulk_load("Address", &addresses).unwrap();
    system
        .bulk_load(
            "Department",
            &[Row::new().with("DNo", 1).with("DName", "D1")],
        )
        .unwrap();
    let employees: Vec<Row> = (1..=EMPLOYEES)
        .map(|eid| {
            Row::new()
                .with("EID", eid)
                .with("EName", format!("E{eid}"))
                .with("EHome_AID", eid)
                .with("EOffice_AID", 1)
                .with("E_DNo", 1)
        })
        .collect();
    system.bulk_load("Employee", &employees).unwrap();
    system
        .bulk_load(
            "Project",
            &[Row::new()
                .with("PNo", 1)
                .with("PName", "P1")
                .with("P_DNo", 1)],
        )
        .unwrap();
    let works_on: Vec<Row> = (1..=EMPLOYEES)
        .map(|eid| {
            Row::new()
                .with("WO_EID", eid)
                .with("WO_PNo", 1)
                .with("Hours", eid % 40)
        })
        .collect();
    system.bulk_load("Works_On", &works_on).unwrap();
    system
}

#[test]
fn a_failed_scan_is_an_error_never_a_short_result() {
    for threads in [1, 2] {
        let healthy = system(threads, false);
        let faulty = system(threads, true);
        let mut errors = 0;
        for _ in 0..5 {
            match faulty.executor().execute_sql("SELECT * FROM Employee", &[]) {
                Ok(result) => assert_eq!(
                    result.len(),
                    EMPLOYEES as usize,
                    "threads={threads}: a SELECT returned a truncated scan as success"
                ),
                Err(QueryError::Store(_)) => errors += 1,
                Err(other) => panic!("threads={threads}: unexpected error {other}"),
            }
            for view in &faulty.selection().views {
                let expected = healthy.recompute_view_rows(view).unwrap().len();
                assert!(expected > 0, "the healthy recompute has rows to lose");
                match faulty.recompute_view_rows(view) {
                    Ok(rows) => assert_eq!(
                        rows.len(),
                        expected,
                        "threads={threads}: {} recomputed from a truncated scan",
                        view.table_name()
                    ),
                    Err(_) => errors += 1,
                }
            }
        }
        assert!(
            errors > 0,
            "threads={threads}: the fault plan must fail some scans"
        );
    }
}
