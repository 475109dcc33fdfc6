//! Correctness checks, all run outside the timed window.
//!
//! * A seeded sample of reads is re-answered from the base tables through
//!   `executor().execute` (no view rewrite) and compared as row multisets.
//! * After the timed phase every selected view must equal
//!   `SynergySystem::recompute_view_rows`, again as row multisets.
//! * `scan` results must have as many rows as the base-table join.

use query::QueryResult;
use relational::Row;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use synergy::SynergySystem;

/// An order-insensitive fingerprint of a row multiset: one hash per row
/// over its sorted `(attribute, value)` pairs, the hashes sorted.
/// Attributes are compared without their qualifier: a view-answered row
/// names its columns after the view, the base-table join after the query's
/// aliases, and attribute names are unique across the schema.
pub type Multiset = Vec<u64>;

/// Fingerprints `rows` as a multiset.
pub fn multiset<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Multiset {
    let mut hashes: Vec<u64> = rows.into_iter().map(row_hash).collect();
    hashes.sort_unstable();
    hashes
}

fn row_hash(row: &Row) -> u64 {
    let mut cells: Vec<(&str, String)> = row
        .iter()
        .map(|(a, v)| (a.rsplit('.').next().unwrap_or(a), v.encode()))
        .collect();
    cells.sort();
    let mut hasher = DefaultHasher::new();
    cells.hash(&mut hasher);
    hasher.finish()
}

/// Re-answers a read from the base tables and compares it with `result`.
pub fn read_matches_base(
    system: &SynergySystem,
    statement: &sql::Statement,
    params: &[relational::Value],
    result: &QueryResult,
) -> Result<(), String> {
    let base = system
        .executor()
        .execute(statement, params)
        .map_err(|e| format!("base-table join failed: {e}"))?;
    if multiset(&base.rows) == multiset(&result.rows) {
        Ok(())
    } else {
        Err(format!(
            "{} rows through Synergy, {} through the base tables",
            result.rows.len(),
            base.rows.len()
        ))
    }
}

/// Checks every selected view against its recomputation from the base
/// tables; returns the number of views that differ (each reported).
pub fn views_match_recompute(system: &SynergySystem) -> Result<usize, String> {
    let mut mismatched = 0;
    for view in &system.selection().views {
        let table = view.table_name();
        let def = system
            .catalog()
            .table(&table)
            .ok_or_else(|| format!("view table {table} missing from the catalog"))?;
        let stored = system
            .cluster()
            .scan(&table, nosql_store::ops::Scan::all())
            .map_err(|e| format!("scan {table}: {e}"))?;
        let stored: Vec<Row> = stored.iter().map(|row| def.decode_row(row)).collect();
        let expected = system
            .recompute_view_rows(view)
            .map_err(|e| format!("recompute {table}: {e}"))?;
        if multiset(&stored) != multiset(&expected) {
            eprintln!(
                "check failed: view {table} holds {} rows, its join gives {}",
                stored.len(),
                expected.len()
            );
            mismatched += 1;
        }
    }
    Ok(mismatched)
}
