//! The traced run (`--trace 1`): the end-to-end run's operations on the same
//! data, every even-numbered one split into the public calls `execute_sql`
//! makes — parse, then for a read `flush_maintenance` →
//! `Session::prepare_statement` → `PreparedStatement::execute`, for a write
//! `SynergySystem::execute` — with a span around every call.  Odd-numbered
//! operations go through `execute_sql` untraced, so traced and untraced
//! operations share the data, the heap and the host's speed of the moment,
//! and their cost ratio is the tracing overhead.  Counter snapshots are
//! taken around every operation, outside its timing.  Nothing inside the
//! program is instrumented.
//!
//! Spans stay in memory and are written to
//! `out/spans-<workload>-<seed>.jsonl` under the benchmark's directory when
//! the run ends.

use crate::setup::{q2_view_table, setup, Deployment};
use crate::stats::{median, percentile, tail_percentile, Report};
use crate::workload::{generate, Kind, Op};
use crate::{checks, parsed_statements, warm_up, Args, Outcome};
use nosql_store::OpCounters;
use query::{QueryError, QueryResult};
use relational::Value;
use simclock::{SimClock, SimInstant};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use synergy::{SynergySystem, TxnError};

/// Walks of Q2's view table timed for `store.walk_us`.
const WALKS: usize = 5;

/// One span: a call into a layer's public function.
struct Span {
    op: Option<usize>,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    sim_start: SimInstant,
    sim_ns: u64,
}

/// In-memory span recorder sharing one wall origin and the cluster clock.
struct Tracer {
    origin: Instant,
    clock: SimClock,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(clock: SimClock) -> Tracer {
        Tracer {
            origin: Instant::now(),
            clock,
            spans: Vec::new(),
        }
    }

    fn open(&mut self, op: Option<usize>, name: &'static str, parent: Option<usize>) -> usize {
        let sim_start = self.clock.now();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            sim_start,
            sim_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its wall duration in µs.
    fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let sim_ns = self
            .clock
            .now()
            .duration_since(self.spans[id].sim_start)
            .as_nanos();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.sim_ns = sim_ns;
        (end_ns - span.start_ns) as f64 / 1_000.0
    }

    /// Runs `f` inside a span; returns its value and wall duration in µs.
    fn span<T>(
        &mut self,
        op: Option<usize>,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(op, name, parent);
        let value = f();
        (value, self.close(id))
    }

    /// Records a span measured elsewhere (the set-up stages).
    fn record(&mut self, name: &'static str, parent: Option<usize>, start_ns: u64, secs: f64) {
        let sim_start = self.clock.now();
        self.spans.push(Span {
            op: None,
            name,
            parent,
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            sim_start,
            sim_ns: 0,
        });
    }

    fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            // Writing into a String cannot fail.
            let _ = writeln!(
                text,
                "{{\"op\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"sim_ns\": {}}}",
                opt(s.op),
                s.name,
                opt(s.parent),
                s.start_ns,
                s.end_ns,
                s.sim_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Per-layer counters summed over the pass.  Times cover the traced
/// operations, counts cover every operation.
#[derive(Default)]
struct Layers {
    reads: u64,
    writes: u64,
    parse_us: Vec<f64>,
    flush_us: Vec<f64>,
    prepare_us: Vec<f64>,
    execute_us: Vec<f64>,
    plan_write_us: Vec<f64>,
    /// Wall µs per operation, by statement, for traced and untraced ops.
    traced_us: BTreeMap<&'static str, Vec<f64>>,
    untraced_us: BTreeMap<&'static str, Vec<f64>>,
    cache_hits: u64,
    cache_lookups: u64,
    peak_rows_resident: usize,
    rows_returned: u64,
    view_reads: u64,
    dirty_fallbacks: u64,
    read_ops: OpCounters,
    write_ops: OpCounters,
    wal_records: u64,
    view_rows_touched: u64,
    deltas: u64,
    failed: u64,
}

fn add(total: &mut OpCounters, delta: &OpCounters) {
    total.gets += delta.gets;
    total.puts += delta.puts;
    total.deletes += delta.deletes;
    total.increments += delta.increments;
    total.check_and_puts += delta.check_and_puts;
    total.scans += delta.scans;
    total.scanned_rows += delta.scanned_rows;
    total.scanned_bytes += delta.scanned_bytes;
}

fn wal_records(system: &SynergySystem) -> u64 {
    let servers = nosql_store::ClusterConfig::default().region_servers;
    (0..servers)
        .map(|s| system.cluster().wal(s).next_sequence())
        .sum()
}

/// One read through the split path: flush → prepare → execute, falling back
/// to the base-table plan on exhausted dirty-read restarts as `execute`
/// does.
fn split_read(
    system: &SynergySystem,
    tracer: &mut Tracer,
    op_id: usize,
    parent: usize,
    statement: &sql::Statement,
    params: &[Value],
    layers: &mut Layers,
) -> Result<QueryResult, TxnError> {
    let (flushed, us) = tracer.span(Some(op_id), "synergy.flush", Some(parent), || {
        system.flush_maintenance()
    });
    layers.flush_us.push(us);
    flushed?;
    let cache = system.plan_cache_stats();
    let (prepared, us) = tracer.span(Some(op_id), "query.prepare", Some(parent), || {
        system.session().prepare_statement(statement)
    });
    layers.prepare_us.push(us);
    let after = system.plan_cache_stats();
    layers.cache_hits += after.hits - cache.hits;
    layers.cache_lookups += (after.hits + after.misses) - (cache.hits + cache.misses);
    let (result, us) = tracer.span(Some(op_id), "query.execute", Some(parent), || {
        prepared.and_then(|p| p.execute(params))
    });
    layers.execute_us.push(us);
    match result {
        Err(QueryError::DirtyReadRetriesExhausted) => {
            layers.dirty_fallbacks += 1;
            let (result, _) = tracer.span(Some(op_id), "query.fallback", Some(parent), || {
                system.executor().execute(statement, params)
            });
            Ok(result?)
        }
        other => Ok(other?),
    }
}

/// One traced operation; returns its result and wall µs.
fn traced_op(
    system: &SynergySystem,
    tracer: &mut Tracer,
    op_id: usize,
    op: &Op,
    layers: &mut Layers,
) -> (Result<QueryResult, TxnError>, f64) {
    let root = tracer.open(Some(op_id), op.label, None);
    let (statement, us) = tracer.span(Some(op_id), "sql.parse", Some(root), || {
        sql::parse_statement(op.sql)
    });
    layers.parse_us.push(us);
    let result = match statement {
        Err(e) => Err(TxnError::Unsupported(e.to_string())),
        Ok(statement) => match op.kind {
            Kind::Read => split_read(system, tracer, op_id, root, &statement, &op.params, layers),
            Kind::Write => {
                tracer
                    .span(Some(op_id), "synergy.write", Some(root), || {
                        system.execute(&statement, &op.params)
                    })
                    .0
            }
        },
    };
    (result, tracer.close(root))
}

/// Runs every operation, tracing the even-numbered ones.
fn pass(deployment: &Deployment, ops: &[Op], tracer: &mut Tracer) -> Result<Layers, String> {
    let system = &deployment.system;
    let parsed = parsed_statements(ops)?;
    let mut layers = Layers::default();
    for (op_id, op) in ops.iter().enumerate() {
        let statement = &parsed[op.sql];
        let before = system.cluster().metrics().ops;
        let (wal_before, maint_before) = (wal_records(system), system.maintenance_stats());
        let traced = op_id % 2 == 0;
        let (result, us) = if traced {
            traced_op(system, tracer, op_id, op, &mut layers)
        } else {
            let start = Instant::now();
            let result = system.execute_sql(op.sql, &op.params);
            (result, start.elapsed().as_secs_f64() * 1e6)
        };
        let delta = system.cluster().metrics().ops.delta_since(&before);
        let per_statement = if traced {
            &mut layers.traced_us
        } else {
            &mut layers.untraced_us
        };
        per_statement.entry(op.label).or_default().push(us);

        let result = match result {
            Ok(result) => result,
            Err(e) => {
                layers.failed += 1;
                eprintln!("operation failed: {} {:?}: {e}", op.label, op.params);
                continue;
            }
        };
        match op.kind {
            Kind::Read => {
                layers.reads += 1;
                add(&mut layers.read_ops, &delta);
                layers.peak_rows_resident =
                    layers.peak_rows_resident.max(result.peak_rows_resident);
                layers.rows_returned += result.len() as u64;
                if system.rewrite(statement) != *statement {
                    layers.view_reads += 1;
                }
                if traced {
                    // Reads leave the data unchanged, so `execute_sql` on the
                    // same state must return the split path's rows.
                    let direct = system
                        .execute_sql(op.sql, &op.params)
                        .map_err(|e| e.to_string())
                        .map(|direct| checks::multiset(&direct.rows));
                    if direct != Ok(checks::multiset(&result.rows)) {
                        layers.failed += 1;
                        eprintln!(
                            "check failed: split path and execute_sql disagree on {} {:?}",
                            op.label, op.params
                        );
                    }
                }
            }
            Kind::Write => {
                layers.writes += 1;
                add(&mut layers.write_ops, &delta);
                layers.wal_records += wal_records(system) - wal_before;
                let after = system.maintenance_stats();
                layers.view_rows_touched +=
                    after.view_rows_touched - maint_before.view_rows_touched;
                layers.deltas += after.deltas_propagated - maint_before.deltas_propagated;
                if traced {
                    // Planning is timed as its own call, outside the op span.
                    let (_, us) = tracer.span(Some(op_id), "synergy.plan_write", None, || {
                        system.plan_write(statement)
                    });
                    layers.plan_write_us.push(us);
                }
            }
        }
    }
    Ok(layers)
}

/// Traced over untraced wall time, each statement's median weighted by how
/// often it ran, so the two halves' slightly different mixes cancel.
fn overhead_ratio(layers: &Layers) -> f64 {
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (label, times) in &layers.traced_us {
        if let Some(other) = layers.untraced_us.get(label) {
            let weight = (times.len() + other.len()) as f64;
            traced += weight * median(times);
            untraced += weight * median(other);
        }
    }
    traced / untraced.max(f64::MIN_POSITIVE)
}

fn throughput(per_statement: &BTreeMap<&'static str, Vec<f64>>) -> f64 {
    let ops: usize = per_statement.values().map(Vec::len).sum();
    let busy_s: f64 = per_statement.values().flatten().sum::<f64>() / 1e6;
    ops as f64 / busy_s.max(f64::MIN_POSITIVE)
}

fn per(numerator: u64, denominator: u64) -> f64 {
    numerator as f64 / denominator.max(1) as f64
}

/// The `--trace 1` run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    // The tracer's clock is rebound to the deployment's cluster clock once
    // it exists; set-up spans carry no sim time.
    let mut tracer = Tracer::new(SimClock::new());
    let deployment = setup(args.workload, args.seed)?;
    tracer.clock = deployment.system.cluster().clock().clone();
    let times = deployment.times;
    // Set-up spans, laid end to end from the measured stage times.
    tracer.record("setup", None, 0, times.total());
    let mut at = 0.0;
    for (name, secs) in [
        ("setup.datagen", times.datagen),
        ("setup.build", times.build),
        ("setup.load", times.load),
        ("setup.materialize", times.materialize),
        ("setup.compact", times.compact),
    ] {
        tracer.record(name, Some(0), (at * 1e9) as u64, secs);
        at += secs;
    }

    let system = &deployment.system;
    let inputs = generate(
        args.workload,
        &deployment.keys,
        args.seed,
        args.workload.op_count(args.seconds),
    );
    let ops = &inputs.ops;
    warm_up(system, &inputs.warm_up)?;

    let bytes_before = system.database_size_bytes();
    let retries_before = system.cluster().fault_stats().retries;
    let relational_interned = relational::intern::interned_count();
    let store_interned = nosql_store::intern::interned_name_count();
    let layers = pass(&deployment, ops, &mut tracer)?;
    let relational_growth = relational::intern::interned_count() - relational_interned;
    let store_growth = nosql_store::intern::interned_name_count() - store_interned;
    let bytes_per_write = per(
        system.database_size_bytes().saturating_sub(bytes_before),
        layers.writes,
    );
    let retries = system.cluster().fault_stats().retries - retries_before;
    let fallbacks = layers.dirty_fallbacks + system.dirty_fallbacks();

    let view = q2_view_table(args.workload, system).ok_or("Q2 is not answered from a view")?;
    let regions = system
        .cluster()
        .metrics()
        .tables
        .get(&view)
        .map_or(0, |t| t.regions);
    let mut walks = Vec::with_capacity(WALKS);
    for _ in 0..WALKS {
        let (rows, us) = tracer.span(None, "store.walk", None, || {
            system.cluster().scan(&view, nosql_store::ops::Scan::all())
        });
        std::hint::black_box(rows.map_err(|e| format!("walk {view}: {e}"))?);
        walks.push(us);
    }
    let failed = layers.failed + checks::views_match_recompute(system)? as u64;

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    tracer.write_jsonl(&path)?;

    let mut report = Report::default();
    for (name, secs) in [
        ("setup.datagen_s", times.datagen),
        ("setup.build_s", times.build),
        ("setup.load_s", times.load),
        ("setup.materialize_s", times.materialize),
        ("setup.compact_s", times.compact),
    ] {
        report.add(name, secs, "s");
    }
    report.add("sql.parse_us", median(&layers.parse_us), "us");
    report.add("synergy.flush_us", median(&layers.flush_us), "us");
    report.add("query.prepare_us", median(&layers.prepare_us), "us");
    let mut execute = layers.execute_us.clone();
    execute.sort_by(f64::total_cmp);
    let tail = tail_percentile(execute.len());
    report.add("query.execute_p50_us", percentile(&execute, 50.0), "us");
    report.note(
        "query.execute_tail_us",
        percentile(&execute, tail),
        "us",
        format!("p{tail} of {}", execute.len()),
    );
    report.add(
        "query.plan_cache_hit_ratio",
        per(layers.cache_hits, layers.cache_lookups),
        "ratio",
    );
    report.add(
        "query.peak_rows_resident",
        layers.peak_rows_resident as f64,
        "rows",
    );
    let r = &layers.read_ops;
    report.add(
        "query.rows_examined_per_row",
        per(r.gets + r.scanned_rows, layers.rows_returned),
        "ratio",
    );
    report.add(
        "synergy.view_read_ratio",
        per(layers.view_reads, layers.reads),
        "ratio",
    );
    report.add("synergy.plan_write_us", median(&layers.plan_write_us), "us");
    report.add(
        "synergy.maint.view_rows_per_write",
        per(layers.view_rows_touched, layers.writes),
        "rows",
    );
    report.add(
        "synergy.maint.deltas_per_write",
        per(layers.deltas, layers.writes),
        "count",
    );
    report.add("synergy.dirty_fallbacks", fallbacks as f64, "count");
    report.add("store.read.gets_per_op", per(r.gets, layers.reads), "count");
    report.add(
        "store.read.scans_per_op",
        per(r.scans, layers.reads),
        "count",
    );
    report.add(
        "store.read.rows_scanned_per_op",
        per(r.scanned_rows, layers.reads),
        "rows",
    );
    report.add(
        "store.read.bytes_scanned_per_op",
        per(r.scanned_bytes, layers.reads),
        "B",
    );
    let w = &layers.write_ops;
    report.add(
        "store.write.puts_per_op",
        per(w.puts, layers.writes),
        "count",
    );
    report.add(
        "store.write.deletes_per_op",
        per(w.deletes, layers.writes),
        "count",
    );
    report.add(
        "store.write.check_and_puts_per_op",
        per(w.check_and_puts, layers.writes),
        "count",
    );
    report.add(
        "store.write.gets_per_op",
        per(w.gets, layers.writes),
        "count",
    );
    report.add(
        "store.write.rows_scanned_per_op",
        per(w.scanned_rows, layers.writes),
        "rows",
    );
    report.add(
        "store.wal.records_per_write",
        per(layers.wal_records, layers.writes),
        "count",
    );
    report.note(
        "store.walk_us",
        median(&walks),
        "us",
        format!("median of {WALKS} walks of {view}"),
    );
    report.add("store.regions", regions as f64, "count");
    report.add("store.bytes_per_write", bytes_per_write, "B");
    report.add("store.retries", retries as f64, "count");
    report.add(
        "relational.interned_growth",
        relational_growth as f64,
        "count",
    );
    report.add("store.interned_growth", store_growth as f64, "count");
    report.note(
        "trace.overhead_ratio",
        overhead_ratio(&layers),
        "ratio",
        format!(
            "traced {:.1} ops/s vs untraced {:.1} ops/s",
            throughput(&layers.traced_us),
            throughput(&layers.untraced_us)
        ),
    );
    println!("# spans written to {}", path.display());
    Ok(Outcome {
        report,
        attempted: ops.len() as u64,
        failed,
    })
}
