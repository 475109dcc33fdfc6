//! Phase 4 of the query pipeline: the **physical plan** and its execution.
//!
//! A [`PhysicalPlan`] is the compiled, cacheable form of one SELECT: every
//! name resolved to interned [`Symbol`]s, every planning decision (access
//! paths, join order, pushdowns, each scan's and join's worker width)
//! frozen, and parameters left as slots.  Executing it
//! ([`Executor::execute_plan`]) substitutes fresh parameter values into the
//! condition templates and drives the same pull-based [`RowStream`]
//! operator pipeline the executor has always used: scan → projected decode
//! → filter → hash joins (build side materialized, probe side streamed) →
//! residual filter → aggregate / top-k / take → project.
//!
//! Every operator is one piece of code at every width: the planner's width
//! is data the operator runs with, never a choice between operators.
//! Because the plan only freezes decisions the pre-planner executor made
//! deterministically per statement, executing a plan charges **exactly**
//! the simulated costs of the old single-shot path — pinned by the
//! committed `BENCH_report.json` sim figures.

use crate::bind::{
    eq_filter_row, eq_filter_values, range_filter_bounds, BoundCondition, BoundOperand,
    PlannedCondition,
};
use crate::catalog::TableDef;
use crate::executor::{AccessPath, Executor};
use crate::plan::LogicalPlan;
use crate::result::{QueryError, QueryResult};
use crate::stream::{collect_stream, top_k, DecodeCtx, Residency, RowStream, ScanRows};
use nosql_store::ops::Scan;
use relational::{encode_key, Row, Symbol, Value, KEY_DELIMITER};
use sql::AggregateFunction;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap}; // lint-allow(determinism): join build tables below are probe-only

/// How the rows of one alias are decoded into relational rows: the output
/// symbols (qualified under the alias for multi-table statements) and the
/// projection mask, resolved once at plan time.
#[derive(Debug, Clone)]
pub(crate) struct DecodeSpec {
    /// Alias-qualified output symbols, indexed by the table's column order
    /// (`None` for single-table statements, which decode bare names).
    pub qual_syms: Option<Vec<Symbol>>,
    /// Projection mask over the table's columns (`None` = decode all).
    pub mask: Option<Vec<bool>>,
}

impl DecodeSpec {
    /// The executable form of this spec over `def`.
    fn ctx<'a>(&'a self, def: &'a TableDef) -> DecodeCtx<'a> {
        DecodeCtx {
            def,
            qual_syms: self.qual_syms.as_deref(),
            mask: self.mask.as_deref(),
        }
    }
}

/// Access details for an [`AccessPath::IndexScan`] alias.
#[derive(Debug, Clone)]
pub(crate) struct IndexAccess {
    /// The index table's definition (shared with the catalog).
    pub def: std::sync::Arc<TableDef>,
    /// True when the index covers every needed column (no base-table
    /// lookups required).
    pub covered: bool,
    /// Decode spec against the index table (used when covered).
    pub decode: DecodeSpec,
}

/// Everything the physical phase needs to open one alias's row stream.
#[derive(Debug, Clone)]
pub(crate) struct AliasAccess {
    /// The chosen access path.
    pub path: AccessPath,
    /// Decode spec against the base table.
    pub decode: DecodeSpec,
    /// Present when `path` is an index scan.
    pub index: Option<IndexAccess>,
    /// Region-parallel scan workers (1 = the serial cursor).
    pub width: usize,
    /// Row limit pushed into the store scan (0 = none).
    pub store_limit: usize,
}

/// One hash-join step: which alias joins in, on which conditions, with the
/// join-key symbols pre-resolved for both sides.
#[derive(Debug, Clone)]
pub(crate) struct JoinStep {
    /// Index of the newly joined alias (the build side).
    pub alias: usize,
    /// Indices of the equi-join conditions this step enforces.
    pub cond_idxs: Vec<usize>,
    /// Join-key symbols on the probe (already-joined) side.
    pub left_syms: Vec<Symbol>,
    /// Join-key symbols on the build side (alias-qualified).
    pub right_syms: Vec<Symbol>,
    /// Hash partitions and probe workers (1 = streamed probe).
    pub width: usize,
}

/// One resolved select item of an aggregate/GROUP BY output row.
#[derive(Debug, Clone)]
pub(crate) enum ItemPlan {
    Aggregate {
        function: AggregateFunction,
        argument: Option<Symbol>,
        name: Symbol,
    },
    Column {
        lookup: Symbol,
        out: Symbol,
        alias: Option<Symbol>,
    },
    Wildcard,
}

/// The aggregate/GROUP BY sub-plan: grouping symbols (qualified + bare
/// output forms) and the resolved select items.
#[derive(Debug, Clone)]
pub(crate) struct GroupPlan {
    /// `(qualified, bare)` output symbols per GROUP BY column.
    pub group_syms: Vec<(Symbol, Symbol)>,
    /// Resolved select items.
    pub items: Vec<ItemPlan>,
}

/// The compiled form of one SELECT: bound, optimized, parameter slots open.
///
/// Built by the optimizer (see [`crate::Session`] and
/// [`Executor::plan_select`]), executed any number of times with fresh
/// positional parameters via [`Executor::execute_plan`], and rendered as a
/// stable plan tree via [`PhysicalPlan::explain`].
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// `(alias, table definition)` per FROM entry, statement order
    /// (definitions shared with the catalog the plan was compiled from).
    pub(crate) aliases: Vec<(String, std::sync::Arc<TableDef>)>,
    /// Resolved WHERE conjuncts with open parameter slots.
    pub(crate) conditions: Vec<PlannedCondition>,
    /// Per alias: indices of its single-alias filter conditions.
    pub(crate) single_alias: Vec<Vec<usize>>,
    /// Index of the starting (probe-side) alias.
    pub(crate) start: usize,
    /// Hash-join steps in execution order.
    pub(crate) join_steps: Vec<JoinStep>,
    /// Indices of residual conditions evaluated after all joins.
    pub(crate) residual: Vec<usize>,
    /// Per-alias access decisions (same order as `aliases`).
    pub(crate) access: Vec<AliasAccess>,
    /// The statement's `LIMIT k`, if any.
    pub(crate) limit: Option<usize>,
    /// The aggregate/GROUP BY sub-plan, when the statement aggregates.
    pub(crate) group: Option<GroupPlan>,
    /// Resolved ORDER BY keys (`(symbol, descending)`).
    pub(crate) order_keys: Vec<(Symbol, bool)>,
    /// Final projection as `(lookup, output)` symbol pairs (`None` =
    /// identity: wildcard or aggregate output).
    pub(crate) project: Option<Vec<(Symbol, Symbol)>>,
    /// Worker count the plan was compiled for (1 = serial pipeline).
    pub(crate) threads: usize,
    /// The logical plan this physical plan was compiled from (EXPLAIN).
    pub(crate) logical: LogicalPlan,
    /// Catalog version at plan time; plan caches treat a mismatch as stale.
    pub(crate) catalog_version: u64,
}

impl PhysicalPlan {
    /// Renders the stable, indented plan tree — the `EXPLAIN` text.
    pub fn explain(&self) -> String {
        self.logical.render()
    }

    /// The logical plan this physical plan was compiled from.
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// The catalog version this plan was compiled against.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// The worker count the plan was compiled for (1 = serial pipeline).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// A hash-join key; the single-condition case (all of TPC-W's joins)
/// carries the value inline instead of allocating a per-row vector.  Keys
/// own their values so the build map can outlive the probe stream's
/// borrows; TPC-W join keys are integers, so the clone is a copy.
#[derive(Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    One(Value),
    Many(Vec<Value>),
}

impl JoinKey {
    /// Extracts the join key of `row`; `None` if any key column is absent.
    fn of(row: &Row, syms: &[Symbol]) -> Option<JoinKey> {
        match syms {
            [sym] => row.get_interned(sym).cloned().map(JoinKey::One),
            _ => syms
                .iter()
                .map(|sym| row.get_interned(sym).cloned())
                .collect::<Option<Vec<Value>>>()
                .map(JoinKey::Many),
        }
    }
}

/// One hash partition of a join's build side: join key → build-row
/// indices, ascending, so each key's matches keep build-row order.
// lint-allow(determinism): probe-only hash table; output order follows the probe side, never this map
type JoinTable = HashMap<JoinKey, Vec<usize>>;

/// The build side of one hash join: the newly joined alias's rows, frozen,
/// hashed into one [`JoinTable`] per partition (none for a cross join,
/// which matches every build row).
struct JoinBuild<'a> {
    rows: Vec<Row>,
    tables: Vec<JoinTable>,
    left_syms: &'a [Symbol],
}

impl JoinBuild<'_> {
    /// Emits probe row `l` joined with each build row it matches, in build
    /// order.  Both halves are frozen, so every emitted row shares them as
    /// `Arc` slices ([`Row::join_concat`]) instead of deep-cloning entries.
    fn probe(&self, mut l: Row, mut emit: impl FnMut(Row)) {
        l.freeze();
        if self.tables.is_empty() {
            self.rows.iter().for_each(|r| emit(l.join_concat(r)));
            return;
        }
        let Some(key) = JoinKey::of(&l, self.left_syms) else {
            return;
        };
        if let Some(matches) = self.tables[partition_of(&key, self.tables.len())].get(&key) {
            matches
                .iter()
                .for_each(|&i| emit(l.join_concat(&self.rows[i])));
        }
    }
}

impl Executor {
    /// Executes a compiled plan with positional parameters.  A statement
    /// whose streamed scans observe a dirty marker restarts (the
    /// read-committed protocol of paper §VIII-C), exactly as the one-shot
    /// path always has.
    pub fn execute_plan(
        &self,
        plan: &PhysicalPlan,
        params: &[Value],
    ) -> Result<QueryResult, QueryError> {
        let mut attempts = 0;
        loop {
            match self.run_plan(plan, params) {
                Err(QueryError::DirtyRestart) => {
                    attempts += 1;
                    if attempts > self.dirty_retry_limit() {
                        return Err(QueryError::DirtyReadRetriesExhausted);
                    }
                    // Give the in-flight update a chance to finish.
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// One execution attempt: bind parameters into the condition templates,
    /// then drive the operator pipeline the plan describes.
    fn run_plan(&self, plan: &PhysicalPlan, params: &[Value]) -> Result<QueryResult, QueryError> {
        let bound: Vec<BoundCondition> = plan
            .conditions
            .iter()
            .map(|c| c.bind(params))
            .collect::<Result<_, _>>()?;

        let meter = Residency::default();

        // Source: the start alias's scan/get stream.
        let mut stream = self.alias_stream(plan, plan.start, &bound)?;

        // Hash joins: each step materializes its build side (the newly
        // joined alias) and runs the probe side through it.
        for step in &plan.join_steps {
            let right_stream = self.alias_stream(plan, step.alias, &bound)?;
            let right_rows = collect_stream(right_stream, &meter)?;
            stream = self.hash_join(stream, right_rows, step, &meter)?;
        }

        if !plan.residual.is_empty() {
            let residual: Vec<&BoundCondition> =
                plan.residual.iter().map(|&i| &bound[i]).collect();
            stream = Box::new(stream.filter(move |row| match row {
                Ok(row) => residual.iter().all(|c| evaluate_condition(row, c)),
                Err(_) => true,
            }));
        }

        let rows: Vec<Row> = if let Some(group) = &plan.group {
            // Aggregation needs the whole input; ORDER BY + LIMIT then act
            // on the (small) per-group output.
            let input = collect_stream(stream, &meter)?;
            let mut rows = apply_group_and_aggregates(group, input);
            if !plan.order_keys.is_empty() {
                let cmp = order_comparator(&plan.order_keys);
                rows.sort_by(|a, b| cmp(a, b));
            }
            if let Some(limit) = plan.limit {
                rows.truncate(limit);
            }
            rows
        } else if !plan.order_keys.is_empty() {
            let cmp = order_comparator(&plan.order_keys);
            match plan.limit {
                // Bounded top-k heap: k rows resident instead of the full
                // input.
                Some(limit) => top_k(stream, limit, cmp, &meter)?,
                None => {
                    let mut rows = collect_stream(stream, &meter)?;
                    rows.sort_by(|a, b| cmp(a, b));
                    rows
                }
            }
        } else if let Some(limit) = plan.limit {
            // Plain LIMIT: stop pulling the pipeline after `limit` rows.
            // The bound is checked *before* each pull — pulling one row past
            // the limit could fetch (and charge) a whole extra store page.
            let mut rows = Vec::with_capacity(limit.min(1_024));
            while rows.len() < limit {
                let Some(row) = stream.next() else { break };
                rows.push(row?);
                meter.add(1);
            }
            rows
        } else {
            collect_stream(stream, &meter)?
        };

        let rows = project_rows(&plan.project, rows);
        self.cluster()
            .clock()
            .charge(self.cluster().cost_model().client_result_cost(rows.len() as u64));
        Ok(QueryResult::with_rows(rows).with_peak_rows_resident(meter.peak()))
    }

    /// Opens the stream of one alias's rows following the plan's access
    /// decision: a point Get, or the decoded scan source at the alias's
    /// planned width and store limit, filtered by the alias's single-alias
    /// conditions.  A dirty marker observed anywhere in the stream surfaces
    /// as [`QueryError::DirtyRestart`], which restarts the whole statement.
    fn alias_stream<'a>(
        &'a self,
        plan: &'a PhysicalPlan,
        ai: usize,
        bound: &[BoundCondition],
    ) -> Result<RowStream<'a>, QueryError> {
        let (_, def) = &plan.aliases[ai];
        let access = &plan.access[ai];
        let eq_filters = eq_filter_values(&plan.conditions, bound, &plan.single_alias[ai]);
        let ctx = access.decode.ctx(def);

        let base: RowStream<'a> = match &access.path {
            AccessPath::KeyGet => {
                let row = self.get_decoded(ctx, def.encode_row_key(&eq_filter_row(&eq_filters)))?;
                Box::new(row.into_iter().map(Ok))
            }
            AccessPath::KeyPrefixScan => {
                let key_row = eq_filter_row(&eq_filters);
                // Use as many leading key components as are bound.
                let n_bound = def
                    .key
                    .iter()
                    .take_while(|k| eq_filters.contains_key(*k))
                    .count();
                let mut prefix = def.encode_key_prefix(&key_row, n_bound);
                if n_bound < def.key.len() {
                    // Close the last bound component so that e.g. "42"
                    // does not also match keys starting with "420".
                    prefix.push(KEY_DELIMITER);
                }
                self.decoded_scan(ctx, Scan::prefix(prefix), access)?
            }
            AccessPath::IndexScan { .. } => {
                let index = access
                    .index
                    .as_ref()
                    // lint-allow(panic-freedom): planner sets `index` for every IndexScan it emits
                    .expect("index access carries its index table definition");
                let index_def = &index.def;
                let filter_value = eq_filters
                    .get(&index_def.key[0])
                    .cloned()
                    .unwrap_or(Value::Null);
                let mut prefix = encode_key([&filter_value]);
                if index_def.key.len() > 1 {
                    // Match only complete values of the indexed column.
                    prefix.push(KEY_DELIMITER);
                }
                if index.covered {
                    self.decoded_scan(index.decode.ctx(index_def), Scan::prefix(prefix), access)?
                } else {
                    // Stream the index entries (decoded bare: they only feed
                    // key encoding) and look up each base row by primary key
                    // as it is pulled.
                    let entries =
                        self.decoded_scan(DecodeCtx::bare(index_def), Scan::prefix(prefix), access)?;
                    Box::new(
                        entries
                            .map(move |entry| self.get_decoded(ctx, ctx.def.encode_row_key(&entry?)))
                            .filter_map(Result::transpose),
                    )
                }
            }
            AccessPath::KeyRangeScan => {
                // The planner froze the *shape* (both-sided range filters
                // on `key[0]`); the concrete `[lo, hi]` envelope comes from
                // the bound parameter values per execution.  When the
                // encoded bounds are order-safe the store walk is clamped
                // to them; otherwise the walk degrades to a full scan —
                // either way the single-alias stream filters below re-check
                // every row, so the clamp is purely a cost optimization.
                let bounds = range_filter_bounds(
                    &plan.conditions,
                    bound,
                    &plan.single_alias[ai],
                    &def.key[0],
                );
                let scan = match bounds.as_ref().and_then(|(lo, hi)| range_scan_bounds(lo, hi)) {
                    Some((start, stop)) => Scan::range(start, stop),
                    None => Scan::all(),
                };
                self.decoded_scan(ctx, scan, access)?
            }
            AccessPath::FullScan => self.decoded_scan(ctx, Scan::all(), access)?,
        };

        // Apply every single-alias filter (equality and range) on the
        // stream; residual multi-alias conditions are applied after joins.
        if plan.single_alias[ai].is_empty() {
            return Ok(base);
        }
        let conds: Vec<BoundCondition> = plan.single_alias[ai]
            .iter()
            .map(|&i| bound[i].clone())
            .collect();
        Ok(Box::new(base.filter(move |row| match row {
            Ok(row) => conds.iter().all(|c| {
                let left = row.get_interned(&c.left_sym);
                match (&c.right, left) {
                    (BoundOperand::Value(v), Some(l)) => c.op.evaluate(l, v),
                    _ => false,
                }
            }),
            Err(_) => true,
        })))
    }

    /// Point-gets `key` from `ctx`'s table and decodes the row; a dirty
    /// marker surfaces as [`QueryError::DirtyRestart`].
    fn get_decoded(&self, ctx: DecodeCtx<'_>, key: String) -> Result<Option<Row>, QueryError> {
        self.cluster()
            .get(&ctx.def.name, self.bounded_get(key))?
            .map(|stored| ctx.decode(&stored, self.dirty_protection()))
            .transpose()
    }

    /// Opens the decoded scan source over `ctx`'s table for one alias: the
    /// alias's store limit and the decode projection pushed into `scan`,
    /// the executor's snapshot bound applied, run at the alias's width.
    fn decoded_scan<'a>(
        &self,
        ctx: DecodeCtx<'a>,
        scan: Scan,
        access: &AliasAccess,
    ) -> Result<RowStream<'a>, QueryError> {
        let scan = scan
            .with_limit(access.store_limit)
            .with_columns(self.scan_projection(ctx.def, ctx.mask));
        Ok(Box::new(ScanRows::open(
            self.cluster(),
            ctx,
            self.bounded_scan(scan),
            access.width,
            self.dirty_protection(),
        )?))
    }

    /// Client-side hash join of one plan step.  The build side (`right`,
    /// the newly joined alias) is materialized, frozen and hashed into
    /// `step.width` partitions; it charges shuffle cost per build row.
    ///
    /// The probe side then runs one of two drivers over the same
    /// [`JoinBuild::probe`]:
    ///
    /// * **width 1 — streamed**: probe rows pull through one at a time, so
    ///   the intermediate result is never buffered; each charges shuffle +
    ///   probe cost, and a LIMIT that stops pulling charges strictly less.
    /// * **width > 1 — chunked**: the probe side is materialized (metered
    ///   through `meter`, since the rows really are resident), chunked
    ///   contiguously, and each chunk probes on its own worker.  Shuffle +
    ///   probe cost charges for the largest chunk only (the parallel merge
    ///   rule: workers probe concurrently).
    ///
    /// Chunk outputs concatenate in probe order and partitions keep
    /// build-row order per key, so both drivers emit identical rows in
    /// identical order.
    fn hash_join<'a>(
        &'a self,
        left: RowStream<'a>,
        mut right: Vec<Row>,
        step: &'a JoinStep,
        meter: &Residency,
    ) -> Result<RowStream<'a>, QueryError> {
        let model = self.cluster().cost_model();
        self.cluster()
            .clock()
            .charge(model.shuffle_cost(right.len() as u64));
        for row in &mut right {
            row.freeze();
        }
        let tables = if step.cond_idxs.is_empty() {
            Vec::new()
        } else {
            build_tables(&right, &step.right_syms, step.width)
        };
        let build = JoinBuild {
            rows: right,
            tables,
            left_syms: &step.left_syms,
        };

        if step.width == 1 {
            // A cross join (rare; only when the workload really asks for
            // it) ships each probe row but probes no table.
            let per_row = if build.tables.is_empty() {
                model.shuffle_cost(1)
            } else {
                model.shuffle_cost(1) + model.probe_cost(1)
            };
            return Ok(Box::new(left.flat_map(
                move |l| -> Vec<Result<Row, QueryError>> {
                    let mut out = Vec::new();
                    match l {
                        Err(e) => out.push(Err(e)),
                        Ok(l) => {
                            self.cluster().clock().charge(per_row);
                            build.probe(l, |row| out.push(Ok(row)));
                        }
                    }
                    out
                },
            )));
        }

        let probe = collect_stream(left, meter)?;
        let ranges = pool::chunk_ranges(probe.len(), step.width);
        let largest_chunk = ranges.iter().map(std::ops::Range::len).max().unwrap_or(0) as u64;
        self.cluster()
            .clock()
            .charge(model.shuffle_cost(largest_chunk) + model.probe_cost(largest_chunk));
        let build = &build;
        let outputs: Vec<Vec<Row>> = pool::map_chunked(probe, step.width, |chunk| {
            let mut out = Vec::new();
            for l in chunk {
                build.probe(l, |row| out.push(row));
            }
            out
        });
        Ok(Box::new(outputs.into_iter().flatten().map(Ok)))
    }
}

// ----------------------------------------------------------------------
// Helpers (free functions so they are easy to unit test)
// ----------------------------------------------------------------------

/// Hashes the build rows on their join key into `width` partition tables.
/// Width 1 builds the single table directly (no key is hashed just to pick
/// partition 0); wider builds partition in one serial pass, then build the
/// per-partition tables on the pool.
fn build_tables(rows: &[Row], syms: &[Symbol], width: usize) -> Vec<JoinTable> {
    let keyed = rows
        .iter()
        .enumerate()
        .filter_map(|(i, row)| JoinKey::of(row, syms).map(|key| (key, i)));
    if width == 1 {
        return vec![join_table(keyed)];
    }
    let mut partitions: Vec<Vec<(JoinKey, usize)>> = vec![Vec::new(); width];
    for (key, i) in keyed {
        partitions[partition_of(&key, width)].push((key, i));
    }
    pool::map(partitions, width, join_table)
}

fn join_table(entries: impl IntoIterator<Item = (JoinKey, usize)>) -> JoinTable {
    let entries = entries.into_iter();
    let mut table = JoinTable::with_capacity(entries.size_hint().1.unwrap_or(0));
    for (key, i) in entries {
        table.entry(key).or_default().push(i);
    }
    table
}

/// The hash partition a join key belongs to (0 for a single partition,
/// without hashing).  `DefaultHasher::new()` is deterministic (fixed keys),
/// so build and probe agree — and repeated runs partition identically,
/// keeping parallel sim figures reproducible.
fn partition_of(key: &JoinKey, parts: usize) -> usize {
    if parts <= 1 {
        return 0;
    }
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % parts as u64) as usize
}

/// Store-scan bounds `[start, stop)` covering every key whose leading
/// component lies in the inclusive value interval `[lo, hi]`, or `None`
/// when encoded keys do not sort like the values over that interval
/// (integers encode as plain decimal, so unequal digit widths or negative
/// values break lexicographic order).  `stop` appends a byte just above
/// [`KEY_DELIMITER`] so composite keys sharing the `hi` leading component
/// stay inside the window while the next distinct value stays out.
fn range_scan_bounds(lo: &Value, hi: &Value) -> Option<(String, String)> {
    let safe = lo == hi
        || match (lo, hi) {
            (Value::Str(a), Value::Str(b)) => a <= b,
            (Value::Int(a), Value::Int(b)) => {
                *a >= 0 && *b >= *a && decimal_width(*a) == decimal_width(*b)
            }
            _ => false,
        };
    if !safe {
        return None;
    }
    let start = encode_key([lo]);
    let mut stop = encode_key([hi]);
    stop.push(RANGE_STOP_SENTINEL);
    Some((start, stop))
}

/// One code point above [`KEY_DELIMITER`] and below every encodable value
/// byte: appended to an encoded leading component it upper-bounds all of
/// that component's composite keys.
const RANGE_STOP_SENTINEL: char = '\u{2}';

fn decimal_width(v: i64) -> usize {
    v.to_string().len()
}

/// Evaluates any bound condition against a joined row (used for residual
/// predicates).  Conditions whose columns are absent evaluate to true so that
/// filters already applied during the per-alias fetch are not re-applied
/// against rows that legitimately dropped reserved columns.
fn evaluate_condition(row: &Row, c: &BoundCondition) -> bool {
    let Some(left) = row.get_interned(&c.left_sym) else {
        return true;
    };
    match &c.right {
        BoundOperand::Value(v) => c.op.evaluate(left, v),
        BoundOperand::Column(sym) => match row.get_interned(sym) {
            Some(r) => c.op.evaluate(left, r),
            None => true,
        },
    }
}

/// Evaluates the aggregate/GROUP BY sub-plan over the joined input rows.
fn apply_group_and_aggregates(plan: &GroupPlan, rows: Vec<Row>) -> Vec<Row> {
    // Group rows by the GROUP BY key (a single group when absent).
    let mut groups: BTreeMap<Vec<Value>, Vec<Row>> = BTreeMap::new();
    for row in rows {
        let key: Vec<Value> = plan
            .group_syms
            .iter()
            .map(|(sym, _)| row.get_interned(sym).cloned().unwrap_or(Value::Null))
            .collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && plan.group_syms.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    let mut out = Vec::new();
    for (key, members) in groups {
        let mut row = Row::new();
        for (i, (qualified, bare)) in plan.group_syms.iter().enumerate() {
            row.set_interned(qualified.clone(), key[i].clone());
            row.set_interned(bare.clone(), key[i].clone());
        }
        for item in &plan.items {
            match item {
                ItemPlan::Aggregate {
                    function,
                    argument,
                    name,
                } => {
                    let value = compute_aggregate(*function, argument.as_ref(), &members);
                    row.set_interned(name.clone(), value);
                }
                ItemPlan::Column { lookup, out, alias } => {
                    let value = members
                        .first()
                        .and_then(|m| m.get_interned(lookup))
                        .cloned()
                        .unwrap_or(Value::Null);
                    row.set_interned(out.clone(), value.clone());
                    if let Some(a) = alias {
                        row.set_interned(a.clone(), value);
                    }
                }
                ItemPlan::Wildcard => {
                    if let Some(first) = members.first() {
                        for (sym, v) in first.iter_interned() {
                            row.set_interned(sym.clone(), v.clone());
                        }
                    }
                }
            }
        }
        out.push(row);
    }
    out
}

fn compute_aggregate(
    function: AggregateFunction,
    argument: Option<&Symbol>,
    members: &[Row],
) -> Value {
    let values: Vec<&Value> = match argument {
        None => return Value::Int(members.len() as i64),
        Some(sym) => members
            .iter()
            .filter_map(|m| m.get_interned(sym))
            .filter(|v| !v.is_null())
            .collect(),
    };
    match function {
        AggregateFunction::Count => Value::Int(values.len() as i64),
        AggregateFunction::Sum => {
            let sum: f64 = values.iter().filter_map(|v| v.as_float()).sum();
            if values.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(sum as i64)
            } else {
                Value::Float(sum)
            }
        }
        AggregateFunction::Avg => {
            if values.is_empty() {
                Value::Null
            } else {
                let sum: f64 = values.iter().filter_map(|v| v.as_float()).sum();
                Value::Float(sum / values.len() as f64)
            }
        }
        AggregateFunction::Min => values.iter().min().copied().cloned().unwrap_or(Value::Null),
        AggregateFunction::Max => values.iter().max().copied().cloned().unwrap_or(Value::Null),
    }
}

/// The ORDER BY comparator over the plan's resolved sort keys; shared by
/// the full sort and the bounded top-k operators.
fn order_comparator(keys: &[(Symbol, bool)]) -> impl Fn(&Row, &Row) -> Ordering {
    let keys = keys.to_vec();
    move |a: &Row, b: &Row| {
        for (sym, descending) in &keys {
            let av = a.get_interned(sym);
            let bv = b.get_interned(sym);
            let ord = match (av, bv) {
                (Some(a), Some(b)) => a.cmp(b),
                (Some(a), None) => a.cmp(&Value::Null),
                (None, Some(b)) => Value::Null.cmp(b),
                (None, None) => Ordering::Equal,
            };
            let ord = if *descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Applies the plan's final projection (`None` = identity).
fn project_rows(project: &Option<Vec<(Symbol, Symbol)>>, rows: Vec<Row>) -> Vec<Row> {
    let Some(cols) = project else {
        return rows;
    };
    rows.into_iter()
        .map(|row| {
            let mut out = Row::with_capacity(cols.len());
            for (lookup, name) in cols {
                let value = row.get_interned(lookup).cloned().unwrap_or(Value::Null);
                out.set_interned(name.clone(), value);
            }
            out
        })
        .collect()
}
