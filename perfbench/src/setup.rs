//! Stands a Synergy deployment up through its public API: generate the
//! data, build the system, bulk-load, materialize the selected views and
//! major-compact — each stage timed, since `setup_s` is their sum.

use crate::workload::{KeySpace, Workload, SCAN_ITEMS, SCAN_Q2};
use nosql_store::{Cluster, ClusterConfig};
use relational::Row;
use std::time::Instant;
use synergy::{SynergyConfig, SynergySystem};
use tpcw::datagen::{TpcwDataset, TpcwScale};

/// Customers in every workload's dataset.
pub const CUSTOMERS: u64 = 500;

/// Wall seconds of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data generation (`TpcwDataset::generate`, or the micro rows).
    pub datagen: f64,
    /// `SynergySystem::build`: view selection, rewriting, table creation.
    pub build: f64,
    /// `SynergySystem::bulk_load` of every relation.
    pub load: f64,
    /// `SynergySystem::materialize_views`.
    pub materialize: f64,
    /// `Cluster::major_compact_all`.
    pub compact: f64,
}

impl SetupTimes {
    /// The whole set-up, in seconds.
    pub fn total(&self) -> f64 {
        self.datagen + self.build + self.load + self.materialize + self.compact
    }
}

/// A loaded deployment ready for the timed phase.
pub struct Deployment {
    /// The system under test.
    pub system: SynergySystem,
    /// Key ranges the workload generator draws from.
    pub keys: KeySpace,
    /// Names of the base-relation tables (for storage amplification).
    pub base_tables: Vec<String>,
    /// How long each stage took.
    pub times: SetupTimes,
}

/// Base rows per relation, in load order.
type Tables = Vec<(String, Vec<Row>)>;

/// Builds and loads the deployment `workload` runs against; the data is a
/// function of `seed`.
pub fn setup(workload: Workload, seed: u64) -> Result<Deployment, String> {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let (tables, keys) = match workload {
        Workload::Scan => micro_tables(seed),
        _ => tpcw_tables(seed),
    };
    times.datagen = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let config = match workload {
        Workload::Scan => SynergyConfig::new(
            tpcw::micro::micro_schema(),
            tpcw::micro::micro_queries(),
            vec!["Customer".to_string()],
            &tpcw::micro::micro_types,
        ),
        _ => SynergyConfig::new(
            tpcw::schema::tpcw_schema(),
            tpcw::writes::full_workload(),
            tpcw::schema::tpcw_roots(),
            &tpcw::schema::tpcw_types,
        ),
    }
    .with_threads(workload.threads());
    let system = SynergySystem::build(Cluster::new(ClusterConfig::default()), config)
        .map_err(|e| format!("build: {e}"))?;
    times.build = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for (relation, rows) in &tables {
        system
            .bulk_load(relation, rows)
            .map_err(|e| format!("load {relation}: {e}"))?;
    }
    times.load = start.elapsed().as_secs_f64();

    let start = Instant::now();
    system
        .materialize_views()
        .map_err(|e| format!("materialize: {e}"))?;
    times.materialize = start.elapsed().as_secs_f64();

    let start = Instant::now();
    system.cluster().major_compact_all();
    times.compact = start.elapsed().as_secs_f64();

    let base_tables = tables
        .iter()
        .filter_map(|(relation, _)| system.catalog().table_ci(relation))
        .map(|def| def.name.clone())
        .collect();
    Ok(Deployment {
        system,
        keys,
        base_tables,
        times,
    })
}

fn tpcw_tables(seed: u64) -> (Tables, KeySpace) {
    let scale = TpcwScale {
        customers: CUSTOMERS,
        seed,
    };
    let mut dataset = TpcwDataset::generate(scale);
    let cart_lines = dataset
        .rows("Shopping_cart_line")
        .iter()
        .filter_map(|row| {
            Some((
                row.get("scl_sc_id")?.as_int()?,
                row.get("scl_i_id")?.as_int()?,
            ))
        })
        .collect();
    let keys = KeySpace {
        customers: scale.customers as i64,
        items: scale.items() as i64,
        orders: scale.orders() as i64,
        addresses: scale.addresses() as i64,
        carts: scale.shopping_carts() as i64,
        cart_lines,
    };
    let tables = TpcwDataset::load_order()
        .iter()
        .map(|&relation| {
            let rows = dataset.tables.remove(relation).unwrap_or_default();
            (relation.to_string(), rows)
        })
        .collect();
    (tables, keys)
}

/// The §IX-B micro-benchmark data: `CUSTOMERS` customers, ten orders each,
/// ten order lines per order (1:10 cardinalities, 50 000 Q2 view rows).
/// Cell contents are drawn from `seed`; the cardinalities are fixed.
fn micro_tables(seed: u64) -> (Tables, KeySpace) {
    let mut rng = crate::workload::Rng::new(seed, 0x5CA1);
    let customers = CUSTOMERS as i64;
    let customer_rows: Vec<Row> = (1..=customers)
        .map(|c_id| {
            Row::new()
                .with("c_id", c_id)
                .with("c_uname", format!("UNAME{c_id:08}"))
                .with("c_fname", format!("First{}", rng.below(1 << 20)))
                .with("c_lname", format!("Last{}", rng.below(1 << 20)))
                .with("c_discount", rng.below(50) as f64 / 100.0)
        })
        .collect();
    let mut order_rows = Vec::with_capacity(customers as usize * 10);
    let mut line_rows = Vec::with_capacity(customers as usize * 100);
    let mut o_id = 0i64;
    for c_id in 1..=customers {
        for _ in 0..10 {
            o_id += 1;
            order_rows.push(
                Row::new()
                    .with("o_id", o_id)
                    .with("o_c_id", c_id)
                    .with(
                        "o_date",
                        format!("2017-{:02}-{:02}", rng.key(12), rng.key(28)),
                    )
                    .with("o_total", 20.0 + rng.below(40_000) as f64 / 100.0),
            );
            for ol_id in 1..=10i64 {
                line_rows.push(
                    Row::new()
                        .with("ol_o_id", o_id)
                        .with("ol_id", ol_id)
                        .with("ol_i_id", rng.key(SCAN_ITEMS))
                        .with("ol_qty", rng.key(5)),
                );
            }
        }
    }
    let keys = KeySpace {
        customers,
        items: SCAN_ITEMS,
        orders: o_id,
        addresses: 0,
        carts: 0,
        cart_lines: Vec::new(),
    };
    let tables = vec![
        ("Customer".to_string(), customer_rows),
        ("Orders".to_string(), order_rows),
        ("Order_line".to_string(), line_rows),
    ];
    (tables, keys)
}

/// The store table holding the view that answers the workload's Q2 (the
/// table `store.walk_us` walks and `store.regions` counts).
pub fn q2_view_table(workload: Workload, system: &SynergySystem) -> Option<String> {
    let sql = match workload {
        Workload::Scan => SCAN_Q2,
        _ => tpcw::join_queries().into_iter().find(|q| q.id == "Q2")?.sql,
    };
    let statement = sql::parse_statement(sql).ok()?;
    let sql::Statement::Select(select) = system.rewrite(&statement) else {
        return None;
    };
    select
        .from
        .iter()
        .filter_map(|table| system.catalog().table_ci(&table.table))
        .find(|def| def.kind == query::TableKind::View)
        .map(|def| def.name.clone())
}
