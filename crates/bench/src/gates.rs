//! The `bench_diff` gates as data: `GATES` lists every check a fresh
//! `BENCH_report.json` must pass against the committed reference, and
//! [`evaluate`] runs them.  Four kinds of check cover every gate: a floor
//! or ceiling, a ratio to the committed value, an exact value, and sim
//! identity.  Which values are wall-clock timings and which are
//! deterministic sim measurements is not listed here: it comes from the
//! column kinds the figures' schemas declare (`figure::Kind`).

use crate::figure::{Col, Kind, Shape};
use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Below this many customers a gate's `small_scale` bound applies: the
/// zipfian streams then touch most of the key universe.
pub(crate) const FULL_SCALE_CUSTOMERS: f64 = 200.0;

/// A row filter of an [`At::Cell`] gate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Is {
    Label(&'static str),
    Num(f64),
    AtLeast(f64),
}

/// Which values a gate reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum At {
    /// Every figure-level wall-kind field of every committed figure; a
    /// committed figure or field missing from the fresh report fails.
    WallFields,
    /// Every sim-kind value of every figure both reports carry.
    SimValues,
    /// `column` of the fresh report's `figure` (skipped when absent): of
    /// the figure itself when `part` is empty, else of every row of `part`
    /// matching all `rows` filters, at least one of which must match.
    Cell {
        figure: &'static str,
        part: &'static str,
        rows: &'static [(&'static str, Is)],
        column: &'static str,
    },
}

/// What a gate requires of the values it reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Check {
    Floor(f64),
    Ceiling(f64),
    Exact(f64),
    /// Fails when fresh > committed × `ratio` **and** fresh − committed >
    /// `slack`.
    AtMostCommitted { ratio: f64, slack: f64 },
    /// Fails when fresh × `ratio` < committed.
    AtLeastCommitted { ratio: f64 },
    /// Bit-identical to committed when both ran at the same customers and
    /// repetitions.
    Identical,
}

/// One gate; `small_scale` replaces a floor or ceiling bound below
/// [`FULL_SCALE_CUSTOMERS`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gate {
    at: At,
    check: Check,
    small_scale: Option<f64>,
}

const fn gate(at: At, check: Check) -> Gate {
    Gate { at, check, small_scale: None }
}

const fn cell(figure: &'static str, part: &'static str, rows: &'static [(&'static str, Is)], column: &'static str, check: Check) -> Gate {
    gate(At::Cell { figure, part, rows, column }, check)
}

impl Gate {
    const fn small_scale(self, bound: f64) -> Gate {
        Gate { small_scale: Some(bound), ..self }
    }
}

const ALL: &[(&str, Is)] = &[];
const BACKOFF: (&str, Is) = ("retry", Is::Label("backoff"));
const RF1: &[(&str, Is)] = &[("replication_factor", Is::Num(1.0))];
const RF2_UP: &[(&str, Is)] = &[("replication_factor", Is::AtLeast(2.0))];
const BUDGET_10PCT_ZIPF_1_1: &[(&str, Is)] = &[("budget_label", Is::Label("10%")), ("zipf_s", Is::Num(1.1))];

/// Every gate `bench_diff` applies.
pub(crate) const GATES: &[Gate] = &[
    // No figure may slow down by more than 2x *and* 250 ms (the floor keeps
    // runner-speed noise on sub-second figures out).
    gate(At::WallFields, Check::AtMostCommitted { ratio: 2.0, slack: 250.0 }),
    gate(At::SimValues, Check::Identical),
    // Delta maintenance reads ≥ 10x fewer store rows per write than scan
    // maintenance, a 256-write single-key burst flushes at ≤ 2x one write's
    // flush, and the delta path's cost per write holds.
    cell("fig_writes", "", ALL, "rows_ratio", Check::Floor(10.0)),
    cell("fig_writes", "bursts", &[("burst", Is::Num(256.0))], "ratio_vs_single", Check::Ceiling(2.0)),
    cell("fig_writes", "rows", &[("mode", Is::Label("delta"))], "sim_ms_per_write", Check::AtMostCommitted { ratio: 1.25, slack: 0.0 }),
    // The fault hook may not tax the healthy path, retries hold goodput at
    // 1% faults, and crash recovery loses nothing and leaves nothing dirty.
    cell("fig_faults", "rows", &[BACKOFF, ("fault_rate", Is::Num(0.0))], "goodput_ops_per_sim_sec", Check::AtLeastCommitted { ratio: 1.25 }),
    cell("fig_faults", "rows", &[BACKOFF, ("fault_rate", Is::Num(0.01))], "goodput_vs_no_fault", Check::Floor(0.9)),
    cell("fig_faults", "recovery", ALL, "lost_acked_synced_writes", Check::Exact(0.0)),
    cell("fig_faults", "recovery", ALL, "dirty_view_rows_after_recovery", Check::Exact(0.0)),
    // No acked write is lost at any RF; RF = 1 keeps replication disarmed;
    // RF ≥ 2 fails over and rides through the crash windows.
    cell("fig_availability", "rows", ALL, "acked_writes_lost", Check::Exact(0.0)),
    cell("fig_availability", "rows", RF1, "failovers", Check::Exact(0.0)),
    cell("fig_availability", "rows", RF1, "records_shipped", Check::Exact(0.0)),
    cell("fig_availability", "rows", RF2_UP, "window_over_steady", Check::Floor(0.7)),
    cell("fig_availability", "rows", RF2_UP, "failovers", Check::Floor(1.0)),
    // A 10% view budget under zipf 1.1 answers most keyed reads from
    // residency with an order of magnitude less storage, without taxing
    // hot keys.
    cell("fig_partial", "rows", BUDGET_10PCT_ZIPF_1_1, "hit_rate", Check::Floor(0.90)).small_scale(0.85),
    cell("fig_partial", "rows", BUDGET_10PCT_ZIPF_1_1, "rows_x_vs_full", Check::Floor(10.0)).small_scale(6.0),
    cell("fig_partial", "rows", BUDGET_10PCT_ZIPF_1_1, "bytes_x_vs_full", Check::Floor(10.0)).small_scale(8.0),
    cell("fig_partial", "rows", BUDGET_10PCT_ZIPF_1_1, "q1k_hot_p95_x_vs_full", Check::Ceiling(1.25)),
];

/// The outcome of [`evaluate`]: a Markdown summary with one line per
/// check, the failed checks (none = pass), and how many sim values the
/// identity gate compared.
#[derive(Debug, Default)]
pub struct Verdict {
    pub summary: String,
    pub failures: Vec<String>,
    pub sim_compared: usize,
}

/// Runs `GATES` on a fresh report against the committed one.  Errors
/// when the two cannot be compared: different thread counts (reports
/// without the field ran at 1), or no `figures` object.
pub fn evaluate(committed: &Json, fresh: &Json) -> Result<Verdict, String> {
    let threads = |doc: &Json| doc.get("threads").and_then(Json::as_f64).unwrap_or(1.0) as u64;
    if threads(committed) != threads(fresh) {
        return Err(format!(
            "refusing to diff across thread counts ({} vs {}): compare like-for-like reports",
            threads(committed),
            threads(fresh)
        ));
    }
    let (Some(old @ Json::Obj(old_figures)), Some(new)) = (committed.get("figures"), fresh.get("figures")) else {
        return Err("both reports must carry a top-level \"figures\" object".into());
    };
    let mut v = Verdict::default();
    let customers = fresh.get("customers").and_then(Json::as_f64).unwrap_or(0.0);
    let same_scale = ["customers", "reps"].iter().all(|k| committed.get(k) == fresh.get(k));
    for gate in GATES {
        let check = match (gate.check, gate.small_scale) {
            (Check::Floor(_), Some(b)) if customers < FULL_SCALE_CUSTOMERS => Check::Floor(b),
            (Check::Ceiling(_), Some(b)) if customers < FULL_SCALE_CUSTOMERS => Check::Ceiling(b),
            (check, _) => check,
        };
        match gate.at {
            At::WallFields => {
                for (name, before) in old_figures {
                    let Some(after) = new.get(name) else {
                        v.failures.push(format!("{name} (missing from fresh report)"));
                        continue;
                    };
                    let parts = crate::figure_named(name).map_or(&[][..], |f| f.parts);
                    let fields = parts.iter().filter(|p| p.shape == Shape::Fields).flat_map(|p| p.cols);
                    for col in fields.filter(|c| c.kind == Kind::Wall) {
                        if let Some(c) = before.get(col.name).and_then(Json::as_f64) {
                            let x = after.get(col.name).and_then(Json::as_f64);
                            apply(check, &format!("{name}.{}", col.name), Some(c), x, &mut v);
                        }
                    }
                }
            }
            At::SimValues if same_scale => sim_identity(old, new, &mut v),
            At::SimValues => {
                let _ = writeln!(v.summary, "- sim identity: skipped (reports ran at different scales)");
            }
            At::Cell { figure, part, rows, column } => {
                let Some(after) = new.get(figure) else { continue };
                let fresh_values = select(after, part, rows, column);
                if fresh_values.is_empty() {
                    v.failures.push(format!("{figure}.{part}: no row matches {rows:?}"));
                }
                let before = old.get(figure).map(|f| select(f, part, rows, column)).unwrap_or_default();
                for (path, x) in fresh_values {
                    let c = before.iter().find(|(p, _)| *p == path).and_then(|(_, c)| *c);
                    apply(check, &format!("{figure}{path}"), c, x, &mut v);
                }
            }
        }
    }
    Ok(v)
}

/// The `column` values an [`At::Cell`] gate reads, each with its path.
fn select(figure: &Json, part: &str, rows: &[(&str, Is)], column: &str) -> Vec<(String, Option<f64>)> {
    let value = |row: &Json| row.get(column).and_then(Json::as_f64);
    let matches = |row: &Json| {
        rows.iter().all(|(col, is)| match (is, row.get(col)) {
            (Is::Label(label), Some(Json::Str(s))) => s == label,
            (Is::Num(x), Some(v)) => v.as_f64() == Some(*x),
            (Is::AtLeast(x), Some(v)) => v.as_f64().is_some_and(|v| v >= *x),
            _ => false,
        })
    };
    match figure.get(part) {
        _ if part.is_empty() => vec![(format!(".{column}"), value(figure))],
        Some(Json::Arr(items)) => (items.iter().enumerate())
            .filter(|(_, row)| matches(row))
            .map(|(i, row)| (format!(".{part}[{i}].{column}"), value(row)))
            .collect(),
        Some(record) => vec![(format!(".{part}.{column}"), value(record))],
        None => Vec::new(),
    }
}

/// Checks one fresh value `x` (with its committed counterpart `c`).
fn apply(check: Check, label: &str, c: Option<f64>, x: Option<f64>, v: &mut Verdict) {
    let Some(x) = x else {
        v.failures.push(format!("{label} (missing from fresh report)"));
        return;
    };
    let (failed, bound) = match (check, c) {
        (Check::Floor(b), _) => (x.is_nan() || x < b, format!("≥ {b}")),
        (Check::Ceiling(b), _) => (x.is_nan() || x > b, format!("≤ {b}")),
        (Check::Exact(b), _) => (x != b, format!("= {b}")),
        (Check::AtMostCommitted { ratio, slack }, Some(c)) => {
            (x / c.max(f64::EPSILON) > ratio && x - c > slack, format!("≤ {ratio}x committed {c:.3} or + {slack}"))
        }
        (Check::AtLeastCommitted { ratio }, Some(c)) => (x * ratio < c, format!("≥ committed {c:.3} / {ratio}")),
        (_, _) => (false, "no committed value".into()),
    };
    let _ = writeln!(v.summary, "- {label} = {x:.3} (gate {bound}){}", if failed { " ⚠️" } else { "" });
    if failed {
        v.failures.push(format!("{label} = {x:.3} violates {bound}"));
    }
}

/// Compares every sim-kind value of the figures both reports carry.
fn sim_identity(old: &Json, new: &Json, v: &mut Verdict) {
    let Json::Obj(new_figures) = new else { return };
    let mut drifted = 0;
    for (name, after) in new_figures {
        let (Some(before), Some(figure)) = (old.get(name), crate::figure_named(name)) else { continue };
        let mut values: BTreeMap<String, [Option<u64>; 2]> = BTreeMap::new();
        for (side, fragment) in [before, after].into_iter().enumerate() {
            for (path, x) in values_of_kind(figure, fragment, Kind::Sim) {
                values.entry(path).or_default()[side] = x.map(f64::to_bits);
            }
        }
        for (path, [c, x]) in values {
            v.sim_compared += 1;
            if c != x {
                drifted += 1;
                let [c, x] = [c, x].map(|bits| bits.map(f64::from_bits));
                v.failures.push(format!("sim identity: {name}{path} {c:?} → {x:?}"));
            }
        }
    }
    let marker = if drifted == 0 { "" } else { " ⚠️" };
    let _ = writeln!(v.summary, "- sim identity: {} deterministic sim values compared, {drifted} drifted{marker}", v.sim_compared);
}

/// Every value of `kind` in a figure's JSON fragment, with its path.
pub(crate) fn values_of_kind(figure: &crate::Figure, fragment: &Json, kind: Kind) -> Vec<(String, Option<f64>)> {
    fn walk(cols: &[Col], obj: &Json, path: &str, kind: Kind, out: &mut Vec<(String, Option<f64>)>) {
        for col in cols {
            match obj.get(col.name) {
                Some(Json::Arr(items)) if !col.sub.is_empty() => {
                    for (i, item) in items.iter().enumerate() {
                        walk(col.sub, item, &format!("{path}.{}[{i}]", col.name), kind, out);
                    }
                }
                value if col.kind == kind => out.push((format!("{path}.{}", col.name), value.and_then(Json::as_f64))),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    for part in figure.parts {
        match (part.shape, fragment.get(part.key)) {
            (Shape::Fields, _) => walk(part.cols, fragment, "", kind, &mut out),
            (Shape::Record, Some(record)) => walk(part.cols, record, &format!(".{}", part.key), kind, &mut out),
            (Shape::Rows, Some(Json::Arr(rows))) => {
                for (i, row) in rows.iter().enumerate() {
                    walk(part.cols, row, &format!(".{}[{i}]", part.key), kind, &mut out);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Json {
        Json::parse(include_str!("../../../BENCH_report_tiny.json")).expect("committed tiny report parses")
    }

    /// The node at `path` (object keys, array indices) of a report.
    fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |node, key| match node {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect("key present").1,
            Json::Arr(items) => &mut items[key.parse::<usize>().expect("array index")],
            _ => panic!("{key}: not a container"),
        })
    }

    fn failures(fresh: &Json) -> Vec<String> {
        evaluate(&tiny(), fresh).expect("comparable reports").failures
    }

    /// Asserts some failure of `fresh` starts with `gate`.
    fn assert_fails(fresh: &Json, gate: &str) {
        let failures = failures(fresh);
        assert!(failures.iter().any(|f| f.starts_with(gate)), "expected {gate} to fail, got {failures:?}");
    }

    #[test]
    fn committed_tiny_report_passes_every_gate_against_itself() {
        let verdict = evaluate(&tiny(), &tiny()).expect("comparable reports");
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        assert!(verdict.sim_compared >= 54, "only {} sim values compared", verdict.sim_compared);
        assert!(verdict.summary.contains(" deterministic sim values compared, 0 drifted"));
    }

    #[test]
    fn rows_ratio_below_ten_fails_its_floor() {
        let mut fresh = tiny();
        *at(&mut fresh, &["figures", "fig_writes", "rows_ratio"]) = Json::Num(9.9);
        assert_fails(&fresh, "fig_writes.rows_ratio");
    }

    #[test]
    fn partial_hit_rate_just_under_its_tier_fails_at_both_scales() {
        let cell = |key| ["figures", "fig_partial", "rows", "4", key];
        assert_eq!(at(&mut tiny(), &cell("budget_label")), &Json::str("10%"));
        assert_eq!(at(&mut tiny(), &cell("zipf_s")), &Json::Num(1.1));
        for (customers, floor) in [(40, 0.85), (200, 0.90)] {
            let mut fresh = tiny();
            *at(&mut fresh, &["customers"]) = Json::Int(customers);
            *at(&mut fresh, &cell("hit_rate")) = Json::Num(floor - 1e-9);
            assert_fails(&fresh, "fig_partial.rows[4].hit_rate");
            // Exactly at the tier's floor passes.
            *at(&mut fresh, &cell("hit_rate")) = Json::Num(floor);
            let failures = failures(&fresh);
            assert!(!failures.iter().any(|f| f.starts_with("fig_partial.rows[4].hit_rate")), "{failures:?}");
        }
    }

    #[test]
    fn one_ulp_of_sim_drift_fails_the_identity_gate() {
        let mut fresh = tiny();
        let cell = at(&mut fresh, &["figures", "fig10", "rows", "0", "view_sim_ms"]);
        *cell = Json::Num(f64::from_bits(cell.as_f64().expect("a number").to_bits() + 1));
        assert_fails(&fresh, "sim identity: fig10.rows[0].view_sim_ms");
    }

    #[test]
    fn a_vanished_figure_fails() {
        let mut fresh = tiny();
        let Json::Obj(figures) = at(&mut fresh, &["figures"]) else { panic!("figures object") };
        figures.retain(|(k, _)| k != "fig_writes");
        assert_fails(&fresh, "fig_writes (missing from fresh report)");
    }

    #[test]
    fn a_different_thread_count_is_refused() {
        let mut fresh = tiny();
        *at(&mut fresh, &["threads"]) = Json::Int(4);
        let refusal = evaluate(&tiny(), &fresh).expect_err("cross-thread diff refused");
        assert!(refusal.contains("thread counts"), "{refusal}");
    }

    #[test]
    fn wall_kinds_are_the_keys_a_reader_redacts() {
        // Every key containing `wall`, plus fig10's wall-derived
        // prepared-statement timings.
        let doc = tiny();
        let Some(Json::Obj(figures)) = doc.get("figures") else { panic!("figures object") };
        let (mut declared, mut named) = (Vec::new(), Vec::new());
        for (name, fragment) in figures {
            let figure = crate::figure_named(name).expect("every committed figure is registered");
            let paths = |kind| values_of_kind(figure, fragment, kind).into_iter().map(|(p, _)| format!("{name}{p}"));
            declared.extend(paths(Kind::Wall));
            named.extend([Kind::Exact, Kind::Sim, Kind::Wall].into_iter().flat_map(paths).filter(|p| {
                let key = p.rsplit('.').next().unwrap_or_default();
                let prepared = ["oneshot_us_per_exec", "prepared_us_per_exec", "prepared_speedup"];
                key.contains("wall") || (p.starts_with("fig10.prepared_rows") && prepared.contains(&key))
            }));
        }
        declared.sort();
        named.sort();
        assert_eq!(declared, named);
        assert!(declared.len() > 40, "{declared:?}");
    }
}
