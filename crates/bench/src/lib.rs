//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§IX).
//!
//! [`FIGURES`] is the registry: one entry per artifact of the `report`
//! binary, each with the inputs it needs and a run function that returns
//! typed rows under one column schema (see [`mod@figure`]).  That schema alone
//! renders the text table and the `BENCH_report.json` fragment, and its
//! column kinds tell the `bench_diff` gates (see [`gates`]) which values
//! are deterministic sim measurements and which are wall-clock timings.
//! The measurement functions (`fig10_micro`, `fig11_lock_overhead`, ...)
//! are public so tests and the Criterion benches under `benches/` run the
//! same code at their own scales.
//!
//! All response times are **simulated milliseconds** from the shared cost
//! model (its calibration is explained in `crates/simclock/src/cost.rs`);
//! the paper's absolute numbers came from an EC2 cluster, so only the
//! *shape* (orderings, approximate ratios, crossovers) is expected to match.

pub mod figure;
pub mod gates;
pub mod json;

use figure::{exact, row, sim, wall, Col, Fmt, Output, Schema, Shape, Table, Value, WALL};
use nosql_store::{Cluster, ClusterConfig};
use simclock::{SimDuration, Summary};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use synergy::LockManager;
use tpcw::micro::MicroBench;
use tpcw::queries::join_queries;
use tpcw::systems::{build_system, EvaluatedSystem, SystemKind};
use tpcw::writes::write_statements;
use tpcw::{TpcwDataset, TpcwScale};

/// Default number of repetitions per measurement (the paper uses 10).
pub const DEFAULT_REPS: u64 = 10;

/// Default database scale for the TPC-W experiments (number of customers).
/// The paper loads 1 M customers on an 8-node EC2 cluster; the default here
/// keeps the full evaluation runnable in minutes on a laptop while keeping
/// the paper's ratios (items = 10×, orders = 10×, 3 lines per order).
pub const DEFAULT_CUSTOMERS: u64 = 500;

// ---------------------------------------------------------------------
// The figure registry
// ---------------------------------------------------------------------

/// The inputs a figure run may read: the scale, the repetitions, the
/// fig10 worker count, and the comparison matrix shared by fig12, fig14,
/// table2 and table3 (built on first use).
pub struct Ctx {
    /// Number of customers.
    pub customers: u64,
    /// Repetitions per measurement.
    pub reps: u64,
    /// Region-parallel workers of the fig10 measurements.
    pub threads: usize,
    matrix: OnceLock<ComparisonMatrix>,
}

impl Ctx {
    /// A context at the given scale.
    pub fn new(customers: u64, reps: u64, threads: usize) -> Ctx {
        Ctx { customers, reps, threads, matrix: OnceLock::new() }
    }

    /// The shared comparison matrix, built on first use.
    pub fn matrix(&self) -> &ComparisonMatrix {
        self.matrix.get_or_init(|| comparison_matrix(self.customers, self.reps))
    }
}

/// One artifact of the report: its name (on the command line and as the
/// JSON key), whether it writes a JSON fragment (the qualitative tables are
/// text only), the figures that must run before it (the matrix build, timed
/// under its own name), the schemas of the parts its run returns, in order,
/// and the run itself.
pub struct Figure {
    pub name: &'static str,
    pub json: bool,
    pub needs: &'static [&'static str],
    pub(crate) parts: &'static [&'static Schema],
    run: fn(&Ctx) -> Output,
}

impl Figure {
    const fn new(name: &'static str, parts: &'static [&'static Schema], run: fn(&Ctx) -> Output) -> Figure {
        Figure { name, json: true, needs: &[], parts, run }
    }

    const fn text_only(self) -> Figure {
        Figure { json: false, ..self }
    }

    const fn on_matrix(self) -> Figure {
        Figure { needs: &["comparison_matrix"], ..self }
    }

    /// Runs the figure, checking that it returned its declared parts.
    pub fn produce(&self, ctx: &Ctx) -> Output {
        let output = (self.run)(ctx);
        let parts = output.parts.iter().map(|t| t.schema);
        assert!(parts.eq(self.parts.iter().copied()), "{}: parts differ from the declared schemas", self.name);
        output
    }
}

/// Dumps the Q1/Q2 plan trees, baseline vs view-rewritten (`report
/// --explain`, not part of `all`).
pub const EXPLAIN: Figure = Figure::new("explain", &[&EXPLAIN_QUERIES], run_explain);

/// Every artifact of the report, in `all` order.
pub const FIGURES: &[Figure] = &[
    Figure::new("table1", &[&TABLE1], |_| table1_qualitative().into()).text_only(),
    Figure::new("fig10", &[&WALL, &FIG10_ROWS, &FIG10_PREPARED_ROWS, &LIMIT_WALL, &FIG10_LIMIT_ROWS], run_fig10),
    // At the largest fig10 scale, where the view spans several regions.
    Figure::new("fig_par", &[&WALL, &FIG_PAR_ROWS], |ctx| {
        timed(|| fig_par(fig10_scales(ctx.customers)[2], &FIG_PAR_THREADS, ctx.reps))
    }),
    Figure::new("fig11", &[&WALL, &FIG11_ROWS], |ctx| timed(|| fig11_lock_overhead(&[10, 100, 1000], ctx.reps))),
    Figure::new("fig13", &[&FIG13], |_| fig13_mechanisms().into()).text_only(),
    Figure::new("comparison_matrix", &[&WALL], |ctx| {
        timed(|| {
            ctx.matrix();
            Output::default()
        })
    }),
    Figure::new("fig12", &[&FIG12], |ctx| matrix_figure(ctx.matrix(), &FIG12, 'Q')).on_matrix(),
    Figure::new("fig14", &[&FIG14], |ctx| matrix_figure(ctx.matrix(), &FIG14, 'W')).on_matrix(),
    Figure::new("table2", &[&TABLE2], |ctx| table2_totals(ctx.matrix()).into()).on_matrix(),
    Figure::new("table3", &[&TABLE3], |ctx| table3_sizes(ctx.matrix()).into()).on_matrix(),
    Figure::new("fig_writes", &[&WALL, &FIG_WRITES_RATIO, &FIG_WRITES_ROWS, &FIG_WRITES_BURST_ROWS], |ctx| {
        timed(|| fig_writes(ctx.customers, FIG_WRITES_COUNT, ctx.threads))
    }),
    // Recovery is scale-independent: the smallest fig10 scale suffices.
    Figure::new("fig_faults", &[&WALL, &FIG_FAULTS_ROWS, &FIG_FAULTS_RECOVERY], |ctx| {
        timed(|| fig_faults(fig10_scales(ctx.customers)[0], FIG_FAULTS_OPS))
    }),
    Figure::new("fig_availability", &[&WALL, &FIG_AVAILABILITY_SETUP, &FIG_AVAILABILITY_ROWS], |_| {
        timed(|| fig_availability(FIG_AVAILABILITY_OPS))
    }),
    Figure::new("fig_partial", &[&WALL, &FIG_PARTIAL_SETUP, &FIG_PARTIAL_BASELINES, &FIG_PARTIAL_ROWS], |ctx| {
        timed(|| fig_partial(ctx.customers))
    }),
    Figure::new("ablation", &[&WALL, &ABLATION], |_| timed(|| ablation_lock_granularity(&[1, 10, 100, 1000]))),
];

/// The registry entry named `name` ([`FIGURES`] or [`EXPLAIN`]).
pub(crate) fn figure_named(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().chain([&EXPLAIN]).find(|f| f.name == name)
}

/// Runs `f` under a figure-level `wall_ms`, followed by what it returned.
fn timed<T: Into<Output>>(f: impl FnOnce() -> T) -> Output {
    let mut out = Output::default();
    let inner: Output = out.timed(&WALL, f).into();
    out.parts.extend(inner.parts);
    out
}

/// The customer scales of the Figure 10 sweep (the paper scales ×10 per
/// step; the sweep here is ×4 anchored at a laptop-friendly base).
fn fig10_scales(customers: u64) -> [u64; 3] {
    let base = (customers / 4).clamp(25, 250);
    [base, base * 4, base * 16]
}

// ---------------------------------------------------------------------
// EXPLAIN: the micro-benchmark plan trees
// ---------------------------------------------------------------------

const EXPLAIN_QUERIES: Schema = Schema::rows(
    "queries",
    "EXPLAIN: micro-benchmark plan trees (baseline vs view-rewritten)",
    &[exact("query", "", Fmt::Plain), exact("baseline", "", Fmt::Plain), exact("synergy", "", Fmt::Plain)],
    "",
);

/// Plan trees for the micro queries at the smallest fig10 scale: the plan
/// shape is scale-independent, so the cheapest deployment suffices to show
/// the view-rewrite rule firing inside the planner.
fn run_explain(ctx: &Ctx) -> Output {
    let bench = MicroBench::build_with_threads(fig10_scales(ctx.customers)[0], ctx.threads)
        .expect("micro benchmark builds");
    let mut out = Output::default();
    let mut table = Table::new(&EXPLAIN_QUERIES);
    for query_index in 0..2 {
        let e = bench.explain(query_index).expect("plans render");
        for (label, plan) in [
            ("join algorithm (base tables)", &e.baseline),
            ("Synergy read path (view rewrite as a planner rule)", &e.synergy),
        ] {
            out.notes.push(format!("{} — {label}:", e.query));
            out.notes.extend(plan.lines().map(|line| format!("    {line}")));
        }
        table.push(row![e.query, e.baseline, e.synergy]);
    }
    out.parts.push(table);
    out
}

// ---------------------------------------------------------------------
// Figure 10: micro-benchmark (view scan vs join algorithm)
// ---------------------------------------------------------------------

/// The `k` of the Figure 10 LIMIT companion query.
const FIG10_LIMIT_K: usize = 50;

/// Executions per timed loop of the fig10 prepared-statement companion.
const FIG10_PREPARED_EXECS: u64 = 500;

/// The LIMIT companion's own wall time, kept out of `fig10.wall_ms` so that
/// figure stays comparable across report versions.
const LIMIT_WALL: Schema = Schema::fields("", &[wall("limit_wall_ms", "", Fmt::Plain)], "");

const FIG10_ROWS: Schema = Schema::rows(
    "rows",
    "Figure 10: micro-benchmark, view scan vs join algorithm",
    &[
        exact("query", "query", Fmt::Plain),
        exact("customers", "customers", Fmt::Plain),
        sim("view_sim_ms", "view scan (ms)", Fmt::Dec(1)),
        sim("join_sim_ms", "join algo (ms)", Fmt::Dec(1)),
        wall("view_wall_ms", "view wall (ms)", Fmt::Dec(2)),
        wall("join_wall_ms", "join wall (ms)", Fmt::Dec(2)),
        sim("sim_speedup", "speedup", Fmt::Times(1)),
        wall("wall_speedup", "", Fmt::Plain),
        sim("view_peak_rows_resident", "", Fmt::Plain),
        sim("join_peak_rows_resident", "", Fmt::Plain),
        sim("plan_cache_hits", "", Fmt::Plain),
    ],
    "(paper: view scan 6x / 11.7x faster than the join at 50k customers)",
);

/// A point lookup through the one-shot path (all pipeline phases per call)
/// vs a prepared statement (plan compiled once).  The timings are wall
/// clock only — both paths charge identical simulated cost.
const FIG10_PREPARED_ROWS: Schema = Schema::rows(
    "prepared_rows",
    "Figure 10 companion: prepared statements vs one-shot (point lookup)",
    &[
        exact("customers", "customers", Fmt::Plain),
        exact("executions", "executions", Fmt::Plain),
        wall("oneshot_us_per_exec", "one-shot (us)", Fmt::Dec(2)),
        wall("prepared_us_per_exec", "prepared (us)", Fmt::Dec(2)),
        wall("prepared_speedup", "speedup", Fmt::Times(2)),
        sim("session_plan_cache_hits", "session hits", Fmt::Plain),
        sim("session_plan_cache_misses", "session misses", Fmt::Plain),
    ],
    "(prepared = one compiled plan re-executed; one-shot re-runs parse/bind/plan per call)",
);

const FIG10_LIMIT_ROWS: Schema = Schema::rows(
    "limit_rows",
    "Figure 10 companion: Q1 view scan with LIMIT (streaming pushdown)",
    &[
        exact("customers", "customers", Fmt::Plain),
        exact("limit", "limit", Fmt::Plain),
        sim("store_rows_scanned", "store rows scanned", Fmt::Plain),
        sim("peak_rows_resident", "peak rows resident", Fmt::Plain),
        sim("view_sim_ms", "view scan (ms)", Fmt::Dec(2)),
        wall("view_wall_ms", "wall (ms)", Fmt::Dec(2)),
    ],
    "(store rows scanned must stay at the limit while the database grows)",
);

fn run_fig10(ctx: &Ctx) -> Output {
    let scales = fig10_scales(ctx.customers);
    let mut out = Output::default();
    let (rows, prepared) = out.timed(&WALL, || {
        fig10_micro_with_prepared(&scales, ctx.reps, ctx.threads, FIG10_PREPARED_EXECS)
    });
    out.parts.push(rows);
    out.parts.push(prepared);
    let limit = out.timed(&LIMIT_WALL, || fig10_limit(&scales, FIG10_LIMIT_K, ctx.reps, ctx.threads));
    out.parts.push(limit);
    out
}

/// Runs the §IX-B micro-benchmark for every scale in `customer_scales`,
/// with region-parallel execution at `threads` workers (1 = the serial
/// pipeline; sim figures at 1 thread are byte-identical to earlier report
/// versions).
pub fn fig10_micro(customer_scales: &[u64], reps: u64, threads: usize) -> Table {
    fig10_micro_with_prepared(customer_scales, reps, threads, 0).0
}

/// [`fig10_micro`] plus the prepared-statement companion: after each
/// scale's view/join measurements, the prepared-vs-one-shot point-lookup
/// loops run `prepared_execs` executions each on the same deployment
/// (0 = skip, keeping the companion free for callers that only want the
/// classic figure).
pub fn fig10_micro_with_prepared(
    customer_scales: &[u64],
    reps: u64,
    threads: usize,
    prepared_execs: u64,
) -> (Table, Table) {
    let mut rows = Table::new(&FIG10_ROWS);
    let mut prepared = Table::new(&FIG10_PREPARED_ROWS);
    for &customers in customer_scales {
        let bench =
            MicroBench::build_with_threads(customers, threads).expect("micro benchmark builds");
        for query_index in 0..2 {
            let hits_before = bench.system().plan_cache_stats().hits;
            let ([view, join, view_wall, join_wall], peaks) = view_vs_join(&bench, query_index, reps);
            let plan_cache_hits = bench.system().plan_cache_stats().hits - hits_before;
            let speedup = join.mean / view.mean.max(f64::EPSILON);
            rows.push(row![
                if query_index == 0 { "Q1" } else { "Q2" },
                customers,
                view,
                join,
                view_wall.mean,
                join_wall.mean,
                speedup,
                join_wall.mean / view_wall.mean.max(f64::EPSILON),
                peaks[0],
                peaks[1],
                plan_cache_hits,
            ]);
        }
        if prepared_execs > 0 {
            let m = bench
                .measure_prepared(prepared_execs)
                .expect("prepared comparison succeeds");
            prepared.push(row![
                customers,
                m.executions,
                m.oneshot_us_per_exec(),
                m.prepared_us_per_exec(),
                m.speedup(),
                m.cache_stats.hits,
                m.cache_stats.misses,
            ]);
        }
    }
    (rows, prepared)
}

/// `reps` measurements of micro query `query_index` through both strategies:
/// view-scan and join summaries in sim then wall milliseconds, and each
/// strategy's peak rows resident.
fn view_vs_join(bench: &MicroBench, query_index: usize, reps: u64) -> ([Summary; 4], [u64; 2]) {
    let mut samples: [Vec<f64>; 4] = Default::default();
    let mut peaks = [0u64; 2];
    for _ in 0..reps {
        let m = bench.measure(query_index).expect("measurement succeeds");
        let wall_ms = |d: std::time::Duration| d.as_secs_f64() * 1_000.0;
        let values = [m.view_scan.as_millis_f64(), m.join_algorithm.as_millis_f64(), wall_ms(m.view_scan_wall), wall_ms(m.join_wall)];
        for (samples, value) in samples.iter_mut().zip(values) {
            samples.push(value);
        }
        peaks = [peaks[0].max(m.view_peak_rows as u64), peaks[1].max(m.join_peak_rows as u64)];
    }
    (samples.map(|s| Summary::of(&s)), peaks)
}

/// Runs the LIMIT-bearing micro-query at every scale: demonstrates that the
/// streaming pipeline makes `LIMIT k` response independent of database size
/// (store rows scanned stays at `k` while the database grows).
pub fn fig10_limit(customer_scales: &[u64], limit: usize, reps: u64, threads: usize) -> Table {
    let mut rows = Table::new(&FIG10_LIMIT_ROWS);
    for &customers in customer_scales {
        let bench =
            MicroBench::build_with_threads(customers, threads).expect("micro benchmark builds");
        let mut sim_samples = Vec::new();
        let mut wall_samples = Vec::new();
        let mut store_rows_scanned = 0u64;
        let mut peak_rows_resident = 0u64;
        for _ in 0..reps {
            let m = bench.measure_limit(limit).expect("limit measurement succeeds");
            sim_samples.push(m.view_scan.as_millis_f64());
            wall_samples.push(m.view_scan_wall.as_secs_f64() * 1_000.0);
            store_rows_scanned = store_rows_scanned.max(m.store_rows_scanned);
            peak_rows_resident = peak_rows_resident.max(m.peak_rows_resident as u64);
        }
        rows.push(row![
            customers,
            limit,
            store_rows_scanned,
            peak_rows_resident,
            Summary::of(&sim_samples).mean,
            Summary::of(&wall_samples).mean,
        ]);
    }
    rows
}

// ---------------------------------------------------------------------
// fig_par: region-parallel execution sweep (the --threads axis)
// ---------------------------------------------------------------------

/// The thread counts the fig_par sweep measures.
const FIG_PAR_THREADS: [usize; 4] = [1, 2, 4, 8];

const FIG_PAR_ROWS: Schema = Schema::rows(
    "rows",
    "fig_par: region-parallel execution sweep (Q2, deepest micro join)",
    &[
        exact("threads", "threads", Fmt::Plain),
        exact("customers", "customers", Fmt::Plain),
        sim("view_sim_ms", "view sim (ms)", Fmt::Dec(1)),
        sim("join_sim_ms", "join sim (ms)", Fmt::Dec(1)),
        wall("view_wall_ms", "view wall (ms)", Fmt::Dec(2)),
        wall("join_wall_ms", "join wall (ms)", Fmt::Dec(2)),
        sim("sim_speedup", "", Fmt::Plain),
        wall("wall_speedup", "", Fmt::Plain),
        sim("view_sim_x_vs_serial", "sim x vs 1t", Fmt::Times(2)),
        wall("view_wall_x_vs_serial", "wall x vs 1t", Fmt::Times(2)),
    ],
    "(per-worker sim deltas merge as max; threads=1 equals the serial pipeline)",
);

/// Sweeps the micro-benchmark's Q2 (Customer ⋈ Orders ⋈ Order_line) across
/// `threads_axis`, measuring both strategies at each width.  The first axis
/// entry is the baseline for the `*_x_vs_serial` ratios (callers pass 1
/// first).  Sim figures are deterministic at every width — per-worker clock
/// deltas merge as `max`, independent of OS scheduling.
pub fn fig_par(customers: u64, threads_axis: &[usize], reps: u64) -> Table {
    let mut rows = Table::new(&FIG_PAR_ROWS);
    let mut base_sim = f64::NAN;
    let mut base_wall = f64::NAN;
    for &threads in threads_axis {
        let bench =
            MicroBench::build_with_threads(customers, threads).expect("micro benchmark builds");
        let (summaries, _) = view_vs_join(&bench, 1, reps);
        let [view, join, view_wall, join_wall] = summaries.map(|s| s.mean);
        if rows.is_empty() {
            base_sim = view;
            base_wall = view_wall;
        }
        rows.push(row![
            threads,
            customers,
            view,
            join,
            view_wall,
            join_wall,
            join / view.max(f64::EPSILON),
            join_wall / view_wall.max(f64::EPSILON),
            base_sim / view.max(f64::EPSILON),
            base_wall / view_wall.max(f64::EPSILON),
        ]);
    }
    rows
}

// ---------------------------------------------------------------------
// fig_writes: delta-dataflow view maintenance vs scan-based maintenance
// ---------------------------------------------------------------------

/// Updates per maintenance mode in the report's fig_writes comparison.
const FIG_WRITES_COUNT: u64 = 20;

/// The burst sizes of the coalescing sweep.
pub const FIG_WRITES_BURSTS: [u64; 3] = [1, 16, 256];

/// The figure's headline: how many fewer store rows per write the delta
/// path reads than scan-based maintenance.
const FIG_WRITES_RATIO: Schema = Schema::fields(
    "fig_writes: delta-dataflow vs scan-based view maintenance",
    &[sim("rows_ratio", "store rows scanned, scan / delta", Fmt::Times(1))],
    "(delta probes maintenance indexes instead of scanning views)",
);

const FIG_WRITES_ROWS: Schema = Schema::rows(
    "rows",
    "",
    &[
        exact("mode", "mode", Fmt::Plain),
        exact("customers", "customers", Fmt::Plain),
        exact("writes", "writes", Fmt::Plain),
        sim("sim_ms_per_write", "sim ms/write", Fmt::Dec(2)),
        wall("wall_writes_per_sec", "writes/sec", Fmt::Dec(0)),
        sim("store_rows_scanned_per_write", "rows scanned/wr", Fmt::Dec(1)),
        sim("view_rows_touched_per_write", "view rows/wr", Fmt::Dec(1)),
    ],
    "",
);

/// `burst` consecutive updates of one Customer row through a capacity-256
/// write batch, flushed once (coalesced) vs after every write.
const FIG_WRITES_BURST_ROWS: Schema = Schema::rows(
    "bursts",
    "",
    &[
        exact("burst", "burst", Fmt::Plain),
        sim("coalesced_flush_sim_ms", "coalesced flush (ms)", Fmt::Dec(2)),
        sim("uncoalesced_flush_sim_ms", "uncoalesced flush (ms)", Fmt::Dec(2)),
        sim("coalesced_merges", "merges", Fmt::Plain),
        sim("ratio_vs_single", "ratio vs 1-write", Fmt::Times(2)),
    ],
    "(single-key bursts coalesce in the write batch: one flush ≈ one write's maintenance)",
);

/// Runs the write-heavy maintenance figure on the micro-benchmark schema:
/// `writes` W13-shaped Customer updates through delta-dataflow maintenance
/// and through the legacy scan path, then the single-key coalescing burst
/// sweep.  All sim figures are deterministic at `threads = 1`.
pub fn fig_writes(customers: u64, writes: u64, threads: usize) -> Output {
    use relational::Value;
    use sql::parse_statement;

    let update = parse_statement(
        "UPDATE Customer SET c_fname = ?, c_lname = ? WHERE c_id = ?",
    )
    .expect("fig_writes update parses");
    let params = |i: u64, c_id: i64| {
        vec![
            Value::str(format!("First{i}u")),
            Value::str(format!("Last{i}u")),
            Value::Int(c_id),
        ]
    };

    let mut rows = Table::new(&FIG_WRITES_ROWS);
    for (mode, delta) in [("delta", true), ("scan", false)] {
        let bench = MicroBench::build_with_maintenance(customers, threads, delta, 1)
            .expect("micro benchmark builds");
        let system = bench.system();
        let clock = system.cluster().clock().clone();
        let ops_before = system.cluster().metrics().ops;
        let touched_before = system.maintenance_stats().view_rows_touched;
        let sim_start = clock.now();
        let wall_start = std::time::Instant::now();
        for i in 0..writes {
            let c_id = (i as i64 % customers.max(1) as i64) + 1;
            system
                .execute(&update, &params(i, c_id))
                .expect("maintenance write succeeds");
        }
        let wall_secs = wall_start.elapsed().as_secs_f64();
        let sim_ms = (clock.now() - sim_start).as_millis_f64();
        let ops = system.cluster().metrics().ops.delta_since(&ops_before);
        let touched = system.maintenance_stats().view_rows_touched - touched_before;
        let per_write = writes.max(1) as f64;
        rows.push(row![
            mode,
            customers,
            writes,
            sim_ms / per_write,
            per_write / wall_secs.max(f64::EPSILON),
            ops.scanned_rows as f64 / per_write,
            touched as f64 / per_write,
        ]);
    }
    let scanned_of = |mode: &str| {
        rows.find("mode", mode)
            .map_or(f64::NAN, |r| r.num("store_rows_scanned_per_write"))
    };
    let rows_ratio = scanned_of("scan") / scanned_of("delta").max(f64::EPSILON);

    // Coalescing sweep: every burst hammers one key through a large write
    // batch.  The buffer merges consecutive updates of the same base key,
    // so the deferred flush does one write's worth of view maintenance no
    // matter how long the burst was.
    let bench = MicroBench::build_with_maintenance(customers, threads, true, 256)
        .expect("buffered micro benchmark builds");
    let system = bench.system();
    let clock = system.cluster().clock().clone();
    let mut bursts = Table::new(&FIG_WRITES_BURST_ROWS);
    let mut single_flush_sim = f64::NAN;
    for burst in FIG_WRITES_BURSTS {
        let merges_before = system.maintenance_stats().coalesced_merges;
        for i in 0..burst {
            system
                .execute(&update, &params(i, 1))
                .expect("buffered write succeeds");
        }
        let (flushed, flush_sim) = clock.measure(|| system.flush_maintenance());
        flushed.expect("flush succeeds");
        let coalesced_flush_sim_ms = flush_sim.as_millis_f64();
        let coalesced_merges = system.maintenance_stats().coalesced_merges - merges_before;

        let mut uncoalesced_flush_sim_ms = 0.0;
        for i in 0..burst {
            system
                .execute(&update, &params(i, 1))
                .expect("buffered write succeeds");
            let (flushed, flush_sim) = clock.measure(|| system.flush_maintenance());
            flushed.expect("flush succeeds");
            uncoalesced_flush_sim_ms += flush_sim.as_millis_f64();
        }

        if burst == FIG_WRITES_BURSTS[0] {
            single_flush_sim = coalesced_flush_sim_ms;
        }
        bursts.push(row![
            burst,
            coalesced_flush_sim_ms,
            uncoalesced_flush_sim_ms,
            coalesced_merges,
            coalesced_flush_sim_ms / single_flush_sim.max(f64::EPSILON),
        ]);
    }
    let mut out = Output::default();
    out.fields(&FIG_WRITES_RATIO, row![rows_ratio]);
    out.parts.push(rows);
    out.parts.push(bursts);
    out
}

// ---------------------------------------------------------------------
// fig_faults: fault injection × retry policy — goodput, latency, recovery
// ---------------------------------------------------------------------

/// Injected-fault probabilities of the goodput sweep: the chance a charged
/// op draws a *failing* fault (split evenly between RPC timeouts and
/// transient server errors; slow-region spikes ride along at the same
/// rate).
pub const FIG_FAULTS_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Ops per cell of the fault sweep.
pub const FIG_FAULTS_OPS: u64 = 600;

/// Seed of the sweep's fault and retry RNGs — the determinism contract is
/// that the same seed and fault plan reproduce the same figures exactly.
pub const FIG_FAULTS_SEED: u64 = 0x5EED_FA17;

const FIG_FAULTS_ROWS: Schema = Schema::rows(
    "rows",
    "fig_faults: injected faults × retry policy, and crash recovery",
    &[
        exact("retry", "retry", Fmt::Plain),
        exact("fault_rate", "faults", Fmt::Pct(1)),
        exact("ops", "ops", Fmt::Plain),
        sim("ok_ops", "ok", Fmt::Plain),
        sim("goodput_ops_per_sim_sec", "goodput/sim-s", Fmt::Dec(1)),
        sim("p95_sim_ms", "p95 sim ms", Fmt::Dec(2)),
        sim("injected_op_faults", "injected", Fmt::Plain),
        sim("slowdowns", "", Fmt::Plain),
        sim("retries", "retries", Fmt::Plain),
        sim("giveups", "giveups", Fmt::Plain),
        sim("goodput_vs_no_fault", "vs no-fault", Fmt::Times(3)),
    ],
    "",
);

/// The mid-transaction crash (interrupted after step 5, the worst case —
/// views updated but still marked dirty) followed by
/// `SynergySystem::recover`.
const FIG_FAULTS_RECOVERY: Schema = Schema { shape: Shape::Record, ..Schema::rows(
    "recovery",
    "fig_faults: mid-transaction crash, then recovery",
    &[
        exact("interrupted_step", "txn interrupted after step", Fmt::Plain),
        sim("dirty_fallbacks", "dirty-read fallbacks", Fmt::Plain),
        sim("recovery_sim_ms", "crash + recover (sim ms)", Fmt::Dec(1)),
        sim("replayed_entries", "WAL records replayed", Fmt::Plain),
        sim("locks_reclaimed", "locks reclaimed", Fmt::Plain),
        sim("view_rows_rolled_forward", "view rows rolled forward", Fmt::Plain),
        sim("lost_acked_synced_writes", "lost acked-synced writes", Fmt::Plain),
        sim("dirty_view_rows_after_recovery", "dirty views left", Fmt::Plain),
    ],
    "(same seed + same fault plan => byte-identical figures; gates: zero losses, zero dirty views)",
)};

/// What one run of the store-level fault workload did.
#[derive(Debug, Clone)]
pub struct FaultWorkloadOutcome {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that succeeded (after retries, where enabled).
    pub ok_ops: u64,
    /// Simulated time the workload loop consumed.
    pub sim_elapsed: SimDuration,
    /// 95th-percentile simulated latency of successful ops (ms).
    pub p95_sim_ms: f64,
    /// Injected-fault and retry counters of the run.
    pub stats: nosql_store::FaultStats,
    /// Replication counters of the run (all zero at the default
    /// `replication_factor` of 1).
    pub replication: nosql_store::ReplicationStats,
}

impl FaultWorkloadOutcome {
    /// Successful ops per simulated second.
    pub fn goodput_per_sim_sec(&self) -> f64 {
        self.ok_ops as f64 / self.sim_elapsed.as_millis_f64().max(f64::EPSILON) * 1_000.0
    }
}

/// Runs the store-level workload of the fault figures (see
/// [`run_fault_workload_rf`]) on a cluster built from `config`.  `on_op`
/// sees each op's index, start instant (sim ns), sim latency and success;
/// returns the cluster and the loop's sim time.
fn store_workload(
    config: ClusterConfig,
    ops: u64,
    mut on_op: impl FnMut(u64, u64, SimDuration, bool),
) -> (Cluster, SimDuration) {
    use nosql_store::ops::{Get, Put, Scan};

    let cluster = Cluster::new(config);
    cluster
        .create_table(nosql_store::TableSchema::new("t").with_family("cf"))
        .expect("workload table");
    cluster
        .bulk_load(
            "t",
            (0..128u64).map(|i| Put::new(format!("k{i:04}")).with("cf", "v", vec![b'x'; 64])),
        )
        .expect("preload");
    cluster.checkpoint();

    let clock = cluster.clock().clone();
    let start = clock.now();
    for i in 0..ops {
        let key = workload_key(i);
        let op_start = clock.now();
        let ok = match i % 4 {
            0 | 2 => cluster.put("t", Put::new(key).with("cf", "v", workload_value(i))).is_ok(),
            1 => cluster.get("t", Get::new(key)).is_ok(),
            _ => cluster
                .scan("t", Scan::range(key, format!("k{:04}", (i * 17) % 128 + 8)))
                .is_ok(),
        };
        on_op(i, op_start.as_nanos(), clock.now() - op_start, ok);
    }
    let elapsed = clock.now() - start;
    (cluster, elapsed)
}

/// The key op `i` of [`store_workload`] touches.
fn workload_key(i: u64) -> String {
    format!("k{:04}", (i * 17) % 128)
}

/// The value op `i` of [`store_workload`] writes (ops 0 and 2 mod 4).
fn workload_value(i: u64) -> Vec<u8> {
    format!("v{i}").into_bytes()
}

/// Runs the deterministic store-level workload — a table of 128 rows
/// preloaded through `bulk_load` (charged but never faulted, so every run
/// starts from identical state), then `ops` ops of a fixed put / get / put /
/// short-scan mix — under the given fault plan and retry policy at
/// replication factor `rf` (1 = the unreplicated legacy configuration).
pub fn run_fault_workload_rf(
    plan: Option<nosql_store::FaultPlan>,
    retry: Option<nosql_store::RetryPolicy>,
    ops: u64,
    rf: usize,
) -> FaultWorkloadOutcome {
    let config = ClusterConfig { fault_plan: plan, retry, replication_factor: rf, ..ClusterConfig::default() };
    let mut ok_ops = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(ops as usize);
    let (cluster, sim_elapsed) = store_workload(config, ops, |_, _, latency, ok| {
        if ok {
            ok_ops += 1;
            latencies.push(latency.as_millis_f64());
        }
    });
    FaultWorkloadOutcome {
        ops,
        ok_ops,
        sim_elapsed,
        p95_sim_ms: percentile(&mut latencies, 95),
        stats: cluster.fault_stats(),
        replication: cluster.replication_stats(),
    }
}

/// Runs the fault figure: the store-level goodput sweep across
/// [`FIG_FAULTS_RATES`] × {no-retry, backoff-retry}, then the Synergy
/// mid-transaction crash-recovery demonstration at `customers` scale.
/// Everything is seeded and single-threaded, so the whole figure is
/// deterministic — the same seed reproduces it byte-identically.
pub fn fig_faults(customers: u64, ops: u64) -> Output {
    use nosql_store::{FaultPlan, RetryPolicy};

    let mut rows = Table::new(&FIG_FAULTS_ROWS);
    for (retry_name, retry) in [
        ("none", Some(RetryPolicy::no_retries())),
        ("backoff", Some(RetryPolicy::default())),
    ] {
        let mut no_fault_goodput = f64::NAN;
        for rate in FIG_FAULTS_RATES {
            let plan = (rate > 0.0).then(|| {
                FaultPlan::new(FIG_FAULTS_SEED)
                    .with_timeouts(rate / 2.0)
                    .with_transients(rate / 2.0)
                    .with_slow_regions(rate, SimDuration::from_millis(10))
            });
            let outcome = run_fault_workload_rf(plan, retry.clone(), ops, 1);
            let goodput = outcome.goodput_per_sim_sec();
            if rate == 0.0 {
                no_fault_goodput = goodput;
            }
            rows.push(row![
                retry_name,
                rate,
                outcome.ops,
                outcome.ok_ops,
                goodput,
                outcome.p95_sim_ms,
                outcome.stats.injected_op_faults(),
                outcome.stats.slowdowns,
                outcome.stats.retries,
                outcome.stats.giveups,
                goodput / no_fault_goodput.max(f64::EPSILON),
            ]);
        }
    }
    let mut out = Output::from(rows);
    out.fields(&FIG_FAULTS_RECOVERY, fig_faults_recovery(customers));
    out
}

/// The crash-recovery demonstration half of the figure: interrupt the
/// 6-step update transaction after step 5 (base and views updated, dirty
/// markers still set, lock still held by the dead client), serve a read
/// through graceful degradation, crash the cluster, recover, and verify
/// that no acked-synced write was lost and no view stayed dirty.
fn fig_faults_recovery(customers: u64) -> Vec<Value> {
    use relational::Value;
    use sql::parse_statement;

    let bench = MicroBench::build(customers).expect("micro benchmark builds");
    let system = bench.system();
    // Bulk loads are volatile until a checkpoint (the memstore-flush
    // durability boundary); everything after it rides the synced WAL.
    system.cluster().checkpoint();

    let update = parse_statement("UPDATE Customer SET c_fname = ?, c_lname = ? WHERE c_id = ?")
        .expect("update parses");
    let probe = &tpcw::micro::micro_queries()[0];

    system.transaction_layer().inject_interrupt_after_step(5);
    system
        .execute(&update, &[Value::str("Faulted"), Value::str("Faulted"), Value::Int(1)])
        .expect_err("interrupted transaction fails");

    // Graceful degradation: the view-rewritten plan keeps hitting dirty
    // markers, so the session falls back to the baseline (view-free) plan.
    let degraded = system.execute(probe, &[]).expect("degraded read succeeds");
    let probe_len = degraded.len();
    let dirty_fallbacks = system.dirty_fallbacks();

    let counts_before: Vec<(String, u64)> = system
        .cluster()
        .list_tables()
        .into_iter()
        .map(|t| {
            let n = system.cluster().row_count(&t).unwrap_or(0);
            (t, n)
        })
        .collect();

    let clock = system.cluster().clock().clone();
    system.cluster().crash();
    let (report, recovery_sim) = clock.measure(|| system.recover());
    let report = report.expect("recovery succeeds");

    // Zero lost acked-synced writes: every table keeps its row count and
    // the interrupted update's base write (acked + synced before the
    // crash) survived replay.
    let mut lost = 0u64;
    for (table, before) in &counts_before {
        let after = system.cluster().row_count(table).unwrap_or(0);
        lost += before.saturating_sub(after);
    }
    let check = parse_statement("SELECT * FROM Customer WHERE c_id = ?").expect("check parses");
    let survived = system
        .execute(&check, &[Value::Int(1)])
        .expect("post-recovery read succeeds");
    if survived.rows.first().and_then(|r| r.get("c_fname"))
        != Some(&Value::str("Faulted"))
    {
        lost += 1;
    }

    // Zero permanently-dirty views, and the healed read path answers the
    // probe without falling back.
    let mut dirty_left = 0u64;
    for view in &system.selection().views {
        let table = view.table_name();
        for row in system
            .cluster()
            .scan(&table, nosql_store::ops::Scan::all())
            .expect("view scan succeeds")
        {
            if row.value(query::FAMILY, query::DIRTY_MARKER) == Some(b"1".as_slice()) {
                dirty_left += 1;
            }
        }
    }
    let healed = system.execute(probe, &[]).expect("healed read succeeds");
    if healed.dirty_fallbacks != 0 || healed.len() != probe_len {
        dirty_left += 1;
    }

    row![
        5u64,
        dirty_fallbacks,
        recovery_sim.as_millis_f64(),
        report.cluster.replayed_entries,
        report.locks_reclaimed,
        report.view_rows_rolled_forward,
        lost,
        dirty_left,
    ]
}

// ---------------------------------------------------------------------
// fig_availability: replication factor × availability through crash windows
// ---------------------------------------------------------------------

/// Replication factors the availability sweep compares.  RF = 1 is the
/// legacy unreplicated deployment; its figures are byte-identical to every
/// earlier report (the sim-identity gate covers them).
pub const FIG_AVAILABILITY_RFS: [usize; 3] = [1, 2, 3];

/// Ops per replication factor of the availability sweep.
pub const FIG_AVAILABILITY_OPS: u64 = 600;

/// Region servers of the availability deployment — enough that a crash
/// takes out only a slice of the key space.
pub const FIG_AVAILABILITY_SERVERS: usize = 5;

/// Number of scheduled region-server crashes the run rides through.
pub const FIG_AVAILABILITY_CRASHES: usize = 6;

/// Mean time to repair: how long each crashed server stays down (sim ms).
pub const FIG_AVAILABILITY_MTTR_MS: u64 = 50;

/// Seed of the availability sweep's fault RNG (crash times are scheduled,
/// not drawn, but the plan carries a seed like every other).
pub const FIG_AVAILABILITY_SEED: u64 = 0xA7A1_1AB1;

const FIG_AVAILABILITY_SETUP: Schema = Schema::fields(
    "fig_availability: replication factor × availability through crash windows",
    &[
        exact("crashes", "scheduled crashes", Fmt::Plain),
        exact("mttr_ms", "MTTR (sim ms)", Fmt::Dec(0)),
        exact("servers", "region servers", Fmt::Plain),
    ],
    "(wal_sync_interval 1: every acked write is synced)",
);

const FIG_AVAILABILITY_ROWS: Schema = Schema::rows(
    "rows",
    "",
    &[
        exact("replication_factor", "rf", Fmt::Plain),
        exact("ops", "ops", Fmt::Plain),
        sim("ok_ops", "ok", Fmt::Plain),
        sim("window_ops", "window", Fmt::Plain),
        sim("window_ok_ops", "window ok", Fmt::Plain),
        sim("steady_goodput_ops_per_sim_sec", "steady gp/s", Fmt::Dec(1)),
        sim("window_goodput_ops_per_sim_sec", "window gp/s", Fmt::Dec(1)),
        sim("window_over_steady", "win/steady", Fmt::Times(3)),
        sim("steady_p95_sim_ms", "steady p95", Fmt::Dec(2)),
        sim("window_p95_sim_ms", "window p95", Fmt::Dec(2)),
        sim("acked_writes_lost", "lost", Fmt::Plain),
        sim("failovers", "failover", Fmt::Plain),
        sim("catchup_replays", "", Fmt::Plain),
        sim("records_shipped", "shipped", Fmt::Plain),
        sim("unavailable_rejections", "", Fmt::Plain),
        sim("giveups", "", Fmt::Plain),
        sim("sim_elapsed_ms", "", Fmt::Plain),
    ],
    "(gates: RF>=2 rides through windows at >=0.7x steady goodput with zero acked-write loss; \
     RF=1 figures are covered by the sim-identity gate)",
);

/// The scheduled crash plan: one crash every 400 sim ms, victims rotating
/// round-robin over the servers, each down for the MTTR.
fn fig_availability_plan() -> (nosql_store::FaultPlan, Vec<SimDuration>) {
    let times: Vec<SimDuration> = (1..=FIG_AVAILABILITY_CRASHES)
        .map(|i| SimDuration::from_millis(400 * i as u64))
        .collect();
    let plan = nosql_store::FaultPlan::new(FIG_AVAILABILITY_SEED).with_crashes(
        times.clone(),
        SimDuration::from_millis(FIG_AVAILABILITY_MTTR_MS),
    );
    (plan, times)
}

/// Runs the fixed availability workload — the fig_faults op mix with
/// `wal_sync_interval = 1` (every acked write synced) over 5 region
/// servers — through the scheduled crash plan at one replication factor,
/// bucketing every op by whether it started inside a crash window.
fn availability_row(rf: usize, ops: u64) -> Vec<Value> {
    let (plan, crash_times) = fig_availability_plan();
    let mttr = SimDuration::from_millis(FIG_AVAILABILITY_MTTR_MS);
    let config = ClusterConfig {
        region_servers: FIG_AVAILABILITY_SERVERS,
        wal_sync_interval: 1,
        replication_factor: rf,
        fault_plan: Some(plan),
        retry: Some(nosql_store::RetryPolicy::default()),
        ..ClusterConfig::default()
    };
    // Crash times are absolute simulated instants (durations since the
    // epoch); an op is "in window" if it starts inside any [t, t + MTTR).
    let in_window = |at_nanos: u64| {
        crash_times
            .iter()
            .any(|&t| at_nanos >= t.as_nanos() && at_nanos < (t + mttr).as_nanos())
    };

    let mut ok_ops = 0u64;
    let mut window_ops = 0u64;
    let mut window_ok = 0u64;
    // Latency samples and elapsed time per bucket, plus the last acked
    // value of every key written, for the post-run durability audit.
    let mut steady_lat: Vec<f64> = Vec::new();
    let mut window_lat: Vec<f64> = Vec::new();
    let mut steady_time = SimDuration::ZERO;
    let mut window_time = SimDuration::ZERO;
    let mut last_acked: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let (cluster, sim_elapsed) = store_workload(config, ops, |i, at, elapsed, ok| {
        if ok {
            ok_ops += 1;
            if matches!(i % 4, 0 | 2) {
                last_acked.insert(workload_key(i), workload_value(i));
            }
        }
        if in_window(at) {
            window_ops += 1;
            window_time += elapsed;
            if ok {
                window_ok += 1;
                window_lat.push(elapsed.as_millis_f64());
            }
        } else {
            steady_time += elapsed;
            if ok {
                steady_lat.push(elapsed.as_millis_f64());
            }
        }
    });
    let clock = cluster.clock().clone();

    // Settle: wait out the last crash window so every victim has rejoined,
    // then audit that every acked write is still readable.  (The audit's
    // gets are uncharged for the goodput figures above.)
    let last_window_end = crash_times
        .last()
        .map(|&t| t + mttr)
        .unwrap_or(SimDuration::ZERO);
    let now_nanos = clock.now().as_nanos();
    if now_nanos < last_window_end.as_nanos() {
        clock.charge(SimDuration::from_nanos(
            last_window_end.as_nanos() - now_nanos + 1,
        ));
    }
    let mut lost = 0u64;
    for (key, value) in &last_acked {
        let survived = cluster
            .get("t", nosql_store::ops::Get::new(key.clone()))
            .ok()
            .flatten()
            .and_then(|row| row.value("cf", "v").map(|v| v == &value[..]))
            .unwrap_or(false);
        if !survived {
            lost += 1;
        }
    }

    let goodput = |ok: u64, time: SimDuration| -> f64 {
        ok as f64 / time.as_millis_f64().max(f64::EPSILON) * 1_000.0
    };
    let steady_goodput = goodput(ok_ops - window_ok, steady_time);
    let window_goodput = goodput(window_ok, window_time);
    let stats = cluster.fault_stats();
    let replication = cluster.replication_stats();
    row![
        rf,
        ops,
        ok_ops,
        window_ops,
        window_ok,
        steady_goodput,
        window_goodput,
        window_goodput / steady_goodput.max(f64::EPSILON),
        percentile(&mut steady_lat, 95),
        percentile(&mut window_lat, 95),
        lost,
        replication.failovers,
        replication.catchup_replays,
        replication.records_shipped,
        stats.unavailable_rejections,
        stats.giveups,
        sim_elapsed.as_millis_f64(),
    ]
}

/// The availability figure: the same crash schedule at RF ∈ {1, 2, 3}.
/// Without replication a crash makes the victim's regions unavailable for
/// the whole MTTR; with RF ≥ 2 each crash fails over and clients ride
/// through the window at steady-state goodput, losing nothing.
pub fn fig_availability(ops: u64) -> Output {
    let mut rows = Table::new(&FIG_AVAILABILITY_ROWS);
    for rf in FIG_AVAILABILITY_RFS {
        rows.push(availability_row(rf, ops));
    }
    let mut out = Output::default();
    out.fields(
        &FIG_AVAILABILITY_SETUP,
        row![FIG_AVAILABILITY_CRASHES, FIG_AVAILABILITY_MTTR_MS as f64, FIG_AVAILABILITY_SERVERS],
    );
    out.parts.push(rows);
    out
}

// ---------------------------------------------------------------------
// fig_partial: partial view materialization under zipfian skew
// ---------------------------------------------------------------------

/// Seed of the fig_partial zipfian key streams (per-cell streams derive
/// from it by XORing in the skew's bit pattern, so every cell of one skew
/// draws the identical key sequence).
pub const FIG_PARTIAL_SEED: u64 = 0x5EED_2A87;

/// The skew axis: zipf exponents from mild to strongly skewed.
pub const FIG_PARTIAL_SKEWS: [f64; 3] = [0.8, 1.1, 1.4];

/// The budget axis: view-byte budgets as fractions of the full
/// materialization footprint.
pub const FIG_PARTIAL_BUDGET_FRACS: [f64; 3] = [0.05, 0.10, 0.25];

const FIG_PARTIAL_SETUP: Schema = Schema::fields(
    "fig_partial: partial view materialization under zipfian skew",
    &[
        exact("customers", "", Fmt::Plain),
        exact("order_keys", "key universe (orders)", Fmt::Plain),
        exact("warmup_ops", "warm-up ops per cell", Fmt::Plain),
        exact("measured_ops", "measured ops per cell", Fmt::Plain),
        exact("hot_rank", "hot keys up to rank", Fmt::Plain),
    ],
    "(mix: 90% Q1K / 2% Q2K / 8% writes)",
);

/// One fully-materialized baseline per skew (the footprint is
/// skew-independent, but the latencies draw that skew's key stream).
const FIG_PARTIAL_BASELINES: Schema = Schema::rows(
    "baselines",
    "",
    &[
        exact("zipf_s", "zipf s", Fmt::Dec(1)),
        sim("materialized_rows", "", Fmt::Plain),
        sim("materialized_bytes", "", Fmt::Plain),
        sim("view_store_rows", "full rows", Fmt::Plain),
        sim("view_store_bytes", "full bytes", Fmt::Mib),
        sim("q1k_p50_sim_ms", "Q1K p50", Fmt::Dec(3)),
        sim("q1k_p95_sim_ms", "Q1K p95", Fmt::Dec(3)),
        sim("q1k_hot_p95_sim_ms", "Q1K hot p95", Fmt::Dec(3)),
        sim("q2k_p50_sim_ms", "", Fmt::Plain),
        sim("q2k_p95_sim_ms", "Q2K p95", Fmt::Dec(3)),
    ],
    "",
);

const FIG_PARTIAL_ROWS: Schema = Schema::rows(
    "rows",
    "",
    &[
        exact("zipf_s", "zipf s", Fmt::Dec(1)),
        exact("budget_label", "budget", Fmt::Plain),
        exact("budget_bytes", "", Fmt::Plain),
        sim("hits", "", Fmt::Plain),
        sim("misses", "", Fmt::Plain),
        sim("hit_rate", "hit rate", Fmt::Pct(1)),
        sim("upqueries", "upq", Fmt::Plain),
        sim("evicted_keys", "evict", Fmt::Plain),
        sim("annihilated", "annihil", Fmt::Plain),
        sim("deferred", "", Fmt::Plain),
        sim("bypasses", "", Fmt::Plain),
        sim("resident_keys", "", Fmt::Plain),
        sim("resident_rows", "", Fmt::Plain),
        sim("resident_bytes", "", Fmt::Plain),
        sim("view_store_rows", "rows", Fmt::Plain),
        sim("view_store_bytes", "", Fmt::Plain),
        sim("rows_x_vs_full", "rows x", Fmt::Times(1)),
        sim("bytes_x_vs_full", "bytes x", Fmt::Times(1)),
        sim("q1k_p50_sim_ms", "", Fmt::Plain),
        sim("q1k_p95_sim_ms", "Q1K p95", Fmt::Dec(3)),
        sim("q1k_hot_p95_sim_ms", "hot p95", Fmt::Dec(3)),
        sim("q2k_p50_sim_ms", "", Fmt::Plain),
        sim("q2k_p95_sim_ms", "", Fmt::Plain),
        sim("q1k_hot_p95_x_vs_full", "hot p95 x", Fmt::Times(2)),
        sim("view_tables", "resident view tables", Fmt::Plain).nested(&[
            exact("table", "", Fmt::Plain),
            sim("resident_rows", "rows", Fmt::Plain),
            sim("resident_bytes", "", Fmt::Mib),
        ]),
    ],
    "(rows x / bytes x = full-materialization footprint over this cell's resident slice)",
);

/// Simulated latencies of one measured window, split by query and by key
/// temperature.
#[derive(Debug, Default)]
struct PartialLatencies {
    q1k: Vec<f64>,
    q1k_hot: Vec<f64>,
    q2k: Vec<f64>,
}

impl PartialLatencies {
    /// Q1K p50/p95, hot-key Q1K p95, Q2K p50/p95.
    fn percentiles(&mut self) -> [f64; 5] {
        [
            percentile(&mut self.q1k, 50),
            percentile(&mut self.q1k, 95),
            percentile(&mut self.q1k_hot, 95),
            percentile(&mut self.q2k, 50),
            percentile(&mut self.q2k, 95),
        ]
    }
}

/// Sorts in place and returns the `pct`-th percentile (0.0 when empty).
fn percentile(samples: &mut [f64], pct: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[(samples.len() * pct / 100).min(samples.len() - 1)]
}

/// Runs `ops` operations of the fig_partial mix — 90% Q1K, 2% Q2K, 8%
/// order-total updates, every key drawn from `zipf` — recording simulated
/// latencies of the reads when `record` is given (warm-up passes None).
fn run_partial_mix(
    bench: &MicroBench,
    zipf: &mut tpcw::zipf::Zipf,
    hot_rank: u64,
    ops: u64,
    mut record: Option<&mut PartialLatencies>,
) {
    use relational::Value;
    use sql::parse_statement;

    let queries = tpcw::micro::partial_queries();
    let (q1k, q2k) = (&queries[2], &queries[3]);
    let update = parse_statement("UPDATE Orders SET o_total = ? WHERE o_id = ?")
        .expect("fig_partial update parses");
    let system = bench.system();
    let clock = system.cluster().clock().clone();
    for i in 0..ops {
        let rank = zipf.sample();
        let key = Value::Int(rank as i64);
        match i % 50 {
            7 | 19 | 32 | 44 => {
                system
                    .execute(&update, &[Value::Float(100.0 + (i % 97) as f64), key])
                    .expect("fig_partial write succeeds");
            }
            3 => {
                let (result, sim) =
                    clock.measure(|| system.execute(q2k, std::slice::from_ref(&key)));
                result.expect("fig_partial Q2K succeeds");
                if let Some(latencies) = record.as_deref_mut() {
                    latencies.q2k.push(sim.as_millis_f64());
                }
            }
            _ => {
                let (result, sim) =
                    clock.measure(|| system.execute(q1k, std::slice::from_ref(&key)));
                result.expect("fig_partial Q1K succeeds");
                if let Some(latencies) = record.as_deref_mut() {
                    latencies.q1k.push(sim.as_millis_f64());
                    if rank <= hot_rank {
                        latencies.q1k_hot.push(sim.as_millis_f64());
                    }
                }
            }
        }
    }
}

/// Sums the stored `V_*` tables of a deployment: `(rows, bytes, per-table)`.
/// Compacts first so the figures count live rows, not the tombstones and
/// overwritten versions that demand-fill/evict churn leaves behind.
fn view_store_footprint(bench: &MicroBench) -> (u64, u64, Vec<(String, u64, u64)>) {
    bench.system().cluster().major_compact_all();
    let metrics = bench.system().cluster().metrics();
    let tables = metrics.resident_where(|name| name.starts_with("V_"));
    let rows = tables.iter().map(|(_, r, _)| r).sum();
    let bytes = tables.iter().map(|(_, _, b)| b).sum();
    (rows, bytes, tables)
}

/// Runs the partial-materialization figure at the default skew and budget
/// axes (plus one unbounded-budget cell at s = 1.1): per cell, a partial
/// deployment is demand-filled by the zipfian mix, warmed to its residency
/// steady state, then measured for hit rate, footprint and latency against
/// the same-skew fully-materialized baseline.  Single-threaded and seeded,
/// so every sim number is deterministic.
pub fn fig_partial(customers: u64) -> Output {
    fig_partial_with(customers, &FIG_PARTIAL_SKEWS, &FIG_PARTIAL_BUDGET_FRACS)
}

/// [`fig_partial`] with explicit skew and budget axes (tests shrink both).
pub fn fig_partial_with(customers: u64, skews: &[f64], fracs: &[f64]) -> Output {
    let order_keys = customers * 10;
    let warmup_ops = order_keys * 4;
    let measured_ops = order_keys * 2;
    let hot_rank = (order_keys / 100).max(8);
    // A deployment (`budget` None = full materialization) warmed by the
    // zipf-`s` mix, then measured: its latencies and the residency counters
    // before the measured window.
    let run = |s: f64, budget: Option<u64>| {
        let bench = MicroBench::build_partial(customers, 1, budget).expect("partial deployment builds");
        let mut zipf = tpcw::zipf::Zipf::new(order_keys, s, FIG_PARTIAL_SEED ^ s.to_bits());
        run_partial_mix(&bench, &mut zipf, hot_rank, warmup_ops, None);
        let before = bench.system().residency_snapshot();
        let mut latencies = PartialLatencies::default();
        run_partial_mix(&bench, &mut zipf, hot_rank, measured_ops, Some(&mut latencies));
        (bench, latencies, before)
    };

    let mut baselines = Table::new(&FIG_PARTIAL_BASELINES);
    for &s in skews {
        let (bench, mut latencies, _) = run(s, None);
        let (view_store_rows, view_store_bytes, _) = view_store_footprint(&bench);
        let [q1k_p50, q1k_p95, q1k_hot_p95, q2k_p50, q2k_p95] = latencies.percentiles();
        baselines.push(row![
            s,
            bench.materialized().rows,
            bench.materialized().bytes,
            view_store_rows,
            view_store_bytes,
            q1k_p50,
            q1k_p95,
            q1k_hot_p95,
            q2k_p50,
            q2k_p95,
        ]);
    }
    let full_bytes = baselines.row(0).num("materialized_bytes");

    let mut cells: Vec<(f64, u64, String)> = Vec::new();
    for &s in skews {
        for &frac in fracs {
            let budget = (full_bytes * frac) as u64;
            cells.push((s, budget, format!("{:.0}%", frac * 100.0)));
        }
    }
    // The unbounded cell: no evictions, residency bounded only by demand —
    // the demand-fill half of the design isolated from the budget half.
    let unbounded_s = if skews.contains(&1.1) { 1.1 } else { skews[0] };
    cells.push((unbounded_s, u64::MAX, "unbounded".to_string()));

    let mut rows = Table::new(&FIG_PARTIAL_ROWS);
    for (s, budget_bytes, budget_label) in cells {
        let baseline = baselines
            .rows()
            .find(|b| b.num("zipf_s") == s)
            .expect("every cell skew has a baseline");
        let (bench, mut latencies, before) = run(s, Some(budget_bytes));
        let before = before.expect("partial deployment has a residency map");
        let after = bench.system().residency_snapshot().expect("residency map");

        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let (view_store_rows, view_store_bytes, view_tables) = view_store_footprint(&bench);
        let [q1k_p50, q1k_p95, q1k_hot_p95, q2k_p50, q2k_p95] = latencies.percentiles();
        rows.push(row![
            s,
            budget_label,
            budget_bytes,
            hits,
            misses,
            hits as f64 / ((hits + misses) as f64).max(1.0),
            after.upqueries - before.upqueries,
            after.evicted_keys - before.evicted_keys,
            after.annihilated - before.annihilated,
            after.deferred - before.deferred,
            after.bypasses - before.bypasses,
            after.resident_keys,
            after.resident_rows,
            after.resident_bytes,
            view_store_rows,
            view_store_bytes,
            baseline.num("view_store_rows") / (view_store_rows as f64).max(1.0),
            baseline.num("view_store_bytes") / (view_store_bytes as f64).max(1.0),
            q1k_p50,
            q1k_p95,
            q1k_hot_p95,
            q2k_p50,
            q2k_p95,
            q1k_hot_p95 / baseline.num("q1k_hot_p95_sim_ms").max(f64::EPSILON),
            Value::Rows(view_tables.into_iter().map(|(t, r, b)| row![t, r, b]).collect()),
        ]);
    }

    let mut out = Output::default();
    out.fields(
        &FIG_PARTIAL_SETUP,
        row![customers, order_keys, warmup_ops, measured_ops, hot_rank],
    );
    out.parts.push(baselines);
    out.parts.push(rows);
    out
}

// ---------------------------------------------------------------------
// Figure 11: two-phase row-locking overhead
// ---------------------------------------------------------------------

const FIG11_ROWS: Schema = Schema::rows(
    "rows",
    "Figure 11: two-phase row locking overhead",
    &[
        exact("locks", "locks", Fmt::Plain),
        sim("sim_ms", "overhead (ms)", Fmt::Dec(1)),
        wall("wall_ms", "wall (ms)", Fmt::Dec(2)),
    ],
    "(paper: 342 / 571 / 2182 ms for 10 / 100 / 1000 locks)",
);

/// Measures the overhead of acquiring and releasing `n` row locks through a
/// lock table in the NoSQL store (the paper's §IX-C experiment).
pub fn fig11_lock_overhead(lock_counts: &[u64], reps: u64) -> Table {
    let mut rows = Table::new(&FIG11_ROWS);
    for &locks in lock_counts {
        let mut samples = Vec::new();
        let mut wall_samples = Vec::new();
        for _ in 0..reps {
            let (cluster, manager) = lock_table("bench", locks);
            let clock = cluster.clock().clone();
            let start = clock.now();
            let wall_start = std::time::Instant::now();
            lock_each(&manager, "bench", 0..locks);
            samples.push((clock.now() - start).as_millis_f64());
            wall_samples.push(wall_start.elapsed().as_secs_f64() * 1_000.0);
        }
        rows.push(row![locks, Summary::of(&samples), Summary::of(&wall_samples).mean]);
    }
    rows
}

/// A fresh cluster with lock table `table` holding entries `0..keys`.
fn lock_table(table: &str, keys: u64) -> (Cluster, LockManager) {
    let cluster = Cluster::new(ClusterConfig::default());
    let manager = LockManager::new(cluster.clone());
    manager.create_lock_table(table).expect("lock table");
    for key in 0..keys {
        manager.ensure_entry(table, &key.to_string()).expect("entry");
    }
    (cluster, manager)
}

/// Acquires one uncontended lock per key, then releases them all.
fn lock_each(manager: &LockManager, table: &str, keys: std::ops::Range<u64>) {
    let acquire = |key: u64| manager.acquire(table, &key.to_string()).expect("acquire").expect("uncontended");
    let guards: Vec<_> = keys.map(acquire).collect();
    for guard in guards {
        manager.release(guard).expect("release");
    }
}

// ---------------------------------------------------------------------
// Figures 12 & 14 and Tables II & III: the five-system TPC-W comparison
// ---------------------------------------------------------------------

/// Response time of one statement on one system (or `None` if unsupported).
pub type CellMs = Option<Summary>;

/// The full per-statement, per-system measurement matrix.
#[derive(Debug, Clone, Default)]
pub struct ComparisonMatrix {
    /// Statement ids in presentation order (Q1..Q11 then W1..W13).
    pub statements: Vec<String>,
    /// System names in presentation order.
    pub systems: Vec<String>,
    /// `cells[statement][system]` → summary of simulated ms.
    pub cells: BTreeMap<String, BTreeMap<String, CellMs>>,
    /// Total stored bytes per system (for Table III).
    pub database_bytes: BTreeMap<String, u64>,
}

impl ComparisonMatrix {
    /// Mean response time of a statement on a system, if supported.
    pub fn mean_ms(&self, statement: &str, system: &str) -> Option<f64> {
        self.cell(statement, system).map(|s| s.mean)
    }

    fn cell(&self, statement: &str, system: &str) -> Option<&Summary> {
        self.cells.get(statement)?.get(system)?.as_ref()
    }

    /// Ratio of the two systems' average response times over the statements
    /// matching `filter` that both systems support (the paper's "on average
    /// X times faster" numbers compare the per-system averages).
    pub fn mean_ratio(
        &self,
        numerator: &str,
        denominator: &str,
        filter: impl Fn(&str) -> bool,
    ) -> Option<f64> {
        let mut numerator_total = 0.0;
        let mut denominator_total = 0.0;
        let mut count = 0;
        for statement in self.statements.iter().filter(|s| filter(s)) {
            if let (Some(n), Some(d)) = (
                self.mean_ms(statement, numerator),
                self.mean_ms(statement, denominator),
            ) {
                numerator_total += n;
                denominator_total += d;
                count += 1;
            }
        }
        if count == 0 || denominator_total <= 0.0 {
            None
        } else {
            Some(numerator_total / denominator_total)
        }
    }

    /// Sum of the mean response times of every statement on one system
    /// (Table II), `None` if the system does not support every statement.
    pub fn total_ms(&self, system: &str) -> Option<f64> {
        let mut total = 0.0;
        for statement in &self.statements {
            total += self.mean_ms(statement, system)?;
        }
        Some(total)
    }
}

/// Runs every join query (Fig. 12) and every write statement (Fig. 14) the
/// requested number of repetitions on all five systems and returns the
/// measurement matrix used by Figures 12/14 and Tables II/III.
pub fn comparison_matrix(customers: u64, reps: u64) -> ComparisonMatrix {
    let scale = TpcwScale::new(customers);
    let dataset = TpcwDataset::generate(scale);
    let systems: Vec<Box<dyn EvaluatedSystem>> = SystemKind::all()
        .iter()
        .map(|kind| build_system(*kind, &dataset))
        .collect();

    let mut matrix = ComparisonMatrix {
        systems: systems.iter().map(|s| s.name().to_string()).collect(),
        ..ComparisonMatrix::default()
    };
    for system in &systems {
        matrix
            .database_bytes
            .insert(system.name().to_string(), system.database_size_bytes());
    }

    // Join queries Q1..Q11, then write statements W1..W13.
    type ParamsFn = Box<dyn Fn(u64) -> Vec<relational::Value>>;
    let statements = join_queries()
        .into_iter()
        .map(|q| (q.id, q.statement(), Box::new(move |rep| q.params(scale, rep)) as ParamsFn))
        .chain(write_statements().into_iter().map(|w| {
            (w.id, w.statement(), Box::new(move |rep| w.params(scale, rep)) as ParamsFn)
        }));
    for (id, statement, params) in statements {
        matrix.statements.push(id.to_string());
        let row = matrix.cells.entry(id.to_string()).or_default();
        for system in &systems {
            let mut samples = Vec::new();
            let mut unsupported = false;
            for rep in 0..reps {
                match system.execute(&statement, &params(rep)) {
                    Ok(outcome) => samples.push(outcome.elapsed.as_millis_f64()),
                    Err(_) => {
                        unsupported = true;
                        break;
                    }
                }
            }
            let cell = if unsupported { None } else { Some(Summary::of(&samples)) };
            row.insert(system.name().to_string(), cell);
        }
    }
    matrix
}

/// The matrix columns of Figures 12 and 14: one per evaluated system, in
/// `SystemKind::all()` order.
const MATRIX_COLS: &[Col] = &[
    exact("statement", "stmt", Fmt::Plain),
    sim("VoltDB_sim_ms", "VoltDB", Fmt::Dec(1)),
    sim("Synergy_sim_ms", "Synergy", Fmt::Dec(1)),
    sim("MVCC-A_sim_ms", "MVCC-A", Fmt::Dec(1)),
    sim("MVCC-UA_sim_ms", "MVCC-UA", Fmt::Dec(1)),
    sim("Baseline_sim_ms", "Baseline", Fmt::Dec(1)),
];

const FIG12: Schema = Schema::rows(
    "rows",
    "Figure 12: TPC-W join query response times",
    MATRIX_COLS,
    "  (X = statement not supported by that system)",
);

const FIG14: Schema = Schema::rows(
    "rows",
    "Figure 14: TPC-W write statement response times",
    MATRIX_COLS,
    "  (X = statement not supported by that system)",
);

/// Figure 12 (`prefix` 'Q', joins) or 14 ('W', writes): the matrix rows of
/// those statements plus the paper's mean-ratio comparisons.
fn matrix_figure(matrix: &ComparisonMatrix, schema: &'static Schema, prefix: char) -> Output {
    let mut table = Table::new(schema);
    for statement in matrix.statements.iter().filter(|s| s.starts_with(prefix)) {
        let mut row = row![statement.as_str()];
        for col in &schema.cols[1..] {
            let system = col.name.trim_end_matches("_sim_ms");
            row.push(matrix.cell(statement, system).cloned().into());
        }
        table.push(row);
    }
    let mut out = Output::from(table);
    let (label, paper, paper_voltdb) = if prefix == 'Q' {
        ("joins", "19.5x / 6.2x / 28.2x", "11x, supported queries only")
    } else {
        ("writes", "9x / 8.6x / 8.6x", "9.4x")
    };
    let of_kind = |s: &str| s.starts_with(prefix);
    for other in ["MVCC-UA", "MVCC-A", "Baseline"] {
        if let Some(ratio) = matrix.mean_ratio(other, "Synergy", of_kind) {
            out.notes.push(format!(
                "  {label}: {other} / Synergy mean ratio = {ratio:.1}x (paper: {paper})"
            ));
        }
    }
    if let Some(ratio) = matrix.mean_ratio("Synergy", "VoltDB", of_kind) {
        out.notes.push(format!(
            "  {label}: Synergy / VoltDB mean ratio = {ratio:.1}x (paper: {paper_voltdb})"
        ));
    }
    out
}

const TABLE2: Schema = Schema::rows(
    "rows",
    "Table II: sum of response times of all TPC-W statements",
    &[exact("system", "system", Fmt::Plain), sim("total_sim_ms", "total (sim seconds)", Fmt::Secs(2))],
    "(paper: Synergy 33.7 s, MVCC-A 77.4 s, MVCC-UA 132.4 s, Baseline 173.4 s; VoltDB excluded)",
);

/// Table II: every statement's mean summed per HBase-backed system
/// (VoltDB does not support every statement).
pub fn table2_totals(matrix: &ComparisonMatrix) -> Table {
    let mut rows = Table::new(&TABLE2);
    for system in ["Synergy", "MVCC-A", "MVCC-UA", "Baseline"] {
        rows.push(row![system, matrix.total_ms(system)]);
    }
    rows
}

const TABLE3: Schema = Schema::rows(
    "rows",
    "Table III: database sizes",
    &[
        exact("system", "system", Fmt::Plain),
        sim("bytes", "size", Fmt::Mib),
        sim("relative_to_baseline", "relative to Baseline", Fmt::Times(2)),
    ],
    "(paper @1M customers: VoltDB 31.8, Synergy 92, MVCC-A 91.8, MVCC-UA 45.7, Baseline 43.8 GB)",
);

/// Derives Table III (database sizes) from a comparison matrix.
pub fn table3_sizes(matrix: &ComparisonMatrix) -> Table {
    let baseline = *matrix.database_bytes.get("Baseline").unwrap_or(&1).max(&1) as f64;
    let mut rows = Table::new(&TABLE3);
    for name in ["VoltDB", "Synergy", "MVCC-A", "MVCC-UA", "Baseline"] {
        if let Some(&bytes) = matrix.database_bytes.get(name) {
            rows.push(row![name, bytes, bytes as f64 / baseline]);
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

const ABLATION: Schema = Schema::rows(
    "rows",
    "Ablation: single hierarchical lock vs per-row locks",
    &[
        exact("rows_touched", "rows touched", Fmt::Plain),
        sim("single_lock_sim_ms", "single lock (ms)", Fmt::Dec(1)),
        sim("per_row_locks_sim_ms", "per-row locks (ms)", Fmt::Dec(1)),
    ],
    "",
);

/// Quantifies the benefit of the single hierarchical lock (paper §III-2):
/// lock acquisition/release cost as a function of how many rows a write
/// transaction would otherwise have to lock.
pub fn ablation_lock_granularity(rows_touched: &[u64]) -> Table {
    let mut out = Table::new(&ABLATION);
    for &rows in rows_touched {
        let (cluster, manager) = lock_table("ablation", rows.max(1));
        let clock = cluster.clock().clone();
        // One hierarchical lock, then one lock per touched row.
        let start = clock.now();
        lock_each(&manager, "ablation", 0..1);
        let single_lock_ms = (clock.now() - start).as_millis_f64();
        let start = clock.now();
        lock_each(&manager, "ablation", 0..rows);
        let per_row_locks_ms = (clock.now() - start).as_millis_f64();

        out.push(row![rows, single_lock_ms, per_row_locks_ms]);
    }
    out
}

// ---------------------------------------------------------------------
// Qualitative tables
// ---------------------------------------------------------------------

const TABLE1: Schema = Schema::rows(
    "rows",
    "Table I: qualitative comparison",
    &[
        exact("system", "System", Fmt::Plain),
        exact("scalability", "Scalability", Fmt::Plain),
        exact("expressiveness", "Query expressiveness", Fmt::Plain),
        exact("transactions", "Transaction support", Fmt::Plain),
        exact("disk", "Disk utilization", Fmt::Plain),
    ],
    "",
);

/// The qualitative comparison of Table I.
pub fn table1_qualitative() -> Table {
    let mut rows = Table::new(&TABLE1);
    for row in [
        ["NoSQL (HBase)", "Linear scale out", "SQL", "ACID, snapshot isolation (MVCC)", "Higher than NewSQL"],
        [
            "NewSQL (VoltDB)",
            "Linear scale out",
            "SQL with joins limited to partition keys",
            "ACID, serializable isolation",
            "Lowest",
        ],
        [
            "Synergy",
            "Linear scale out",
            "SQL with views limited to key/foreign-key joins",
            "ACID, read-committed isolation",
            "Highest",
        ],
    ] {
        rows.push(row.map(Value::from).to_vec());
    }
    rows
}

const FIG13: Schema = Schema::rows(
    "rows",
    "Figure 13: mechanisms per evaluated system",
    &[
        exact("system", "system", Fmt::Plain),
        exact("view_selection", "view selection", Fmt::Plain),
        exact("concurrency", "concurrency control", Fmt::Plain),
    ],
    "",
);

/// The mechanism matrix of Figure 13, one row per evaluated system.
pub fn fig13_mechanisms() -> Table {
    let mut rows = Table::new(&FIG13);
    for kind in SystemKind::all() {
        rows.push(row![kind.name(), kind.view_mechanism(), kind.concurrency_mechanism()]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sim-kind values of a figure's output, as bits: what a re-run
    /// must reproduce exactly.
    fn sim_bits(figure: &str, out: impl Into<Output>) -> Vec<(String, Option<u64>)> {
        let figure = figure_named(figure).expect("registered figure");
        let values = gates::values_of_kind(figure, &out.into().to_json(), figure::Kind::Sim);
        values.into_iter().map(|(path, v)| (path, v.map(f64::to_bits))).collect()
    }

    #[test]
    fn fig_availability_replication_rides_through_crash_windows() {
        let output = fig_availability(FIG_AVAILABILITY_OPS);
        let rows = output.part("rows");
        assert_eq!(rows.len(), FIG_AVAILABILITY_RFS.len());
        for row in rows.rows() {
            let rf = row.num("replication_factor");
            assert!(row.num("window_ops") > 0.0, "rf={rf}: the run never entered a crash window: {row:?}");
            assert_eq!(row.num("acked_writes_lost"), 0.0, "rf={rf}: acked writes lost");
            if rf == 1.0 {
                assert_eq!(row.num("failovers"), 0.0);
                assert_eq!(row.num("records_shipped"), 0.0);
            } else {
                assert!(row.num("failovers") >= 1.0, "rf={rf}: {row:?}");
                assert!(
                    row.num("window_over_steady") >= 0.7,
                    "rf={rf}: in-window goodput collapsed: {row:?}"
                );
            }
        }
        // The headline contrast: replication keeps in-window goodput near
        // steady state, while RF = 1 clients stall on the MTTR.
        let (rf1, rf2) = (rows.row(0), rows.row(1));
        assert!(
            rf1.num("window_over_steady") < rf2.num("window_over_steady"),
            "rf1 {rf1:?} vs rf2 {rf2:?}"
        );
        // Determinism: the sweep reproduces itself exactly.
        let again = availability_row(2, FIG_AVAILABILITY_OPS);
        assert_eq!(again, rows.rows[1]);
    }

    #[test]
    fn fig11_overhead_grows_with_lock_count() {
        let rows = fig11_lock_overhead(&[10, 100], 2);
        assert_eq!(rows.len(), 2);
        assert!(rows.row(1).num("sim_ms") > rows.row(0).num("sim_ms") * 5.0);
    }

    #[test]
    fn ablation_shows_single_lock_is_cheaper() {
        let rows = ablation_lock_granularity(&[50]);
        assert!(rows.row(0).num("per_row_locks_sim_ms") > rows.row(0).num("single_lock_sim_ms") * 10.0);
    }

    #[test]
    fn fig10_speedup_is_positive_and_grows_with_join_depth() {
        let rows = fig10_micro(&[30], 2, 1);
        assert_eq!(rows.len(), 2);
        assert!(rows.rows().all(|r| r.num("sim_speedup") > 1.0));
        assert!(rows
            .rows()
            .all(|r| r.num("view_peak_rows_resident") > 0.0 && r.num("join_peak_rows_resident") > 0.0));
    }

    #[test]
    fn fig10_limit_scan_rows_are_scale_independent() {
        let rows = fig10_limit(&[25, 100], 8, 1, 1);
        assert_eq!(rows.len(), 2);
        assert!(rows.rows().all(|r| r.num("store_rows_scanned") == 8.0));
        assert_eq!(rows.row(0).num("store_rows_scanned"), rows.row(1).num("store_rows_scanned"));
    }

    #[test]
    fn fig_par_sweep_is_deterministic_in_sim_and_beats_serial_joins() {
        let rows = fig_par(30, &[1, 2, 4], 2);
        assert_eq!(rows.len(), 3);
        assert!((rows.row(0).num("view_sim_x_vs_serial") - 1.0).abs() < 1e-9);
        // The partitioned join's sim time improves with workers even when
        // the tables are single-region at this tiny scale.
        assert!(rows.row(2).num("join_sim_ms") < rows.row(0).num("join_sim_ms"));
        // Re-running the sweep reproduces the sim figures exactly.
        assert_eq!(sim_bits("fig_par", rows), sim_bits("fig_par", fig_par(30, &[1, 2, 4], 2)));
    }

    #[test]
    fn fig_writes_delta_beats_scan_and_coalescing_bounds_bursts() {
        let out = fig_writes(40, 8, 1);
        let rows = out.part("rows");
        assert_eq!(rows.len(), 2);
        // The delta path must read at least an order of magnitude fewer
        // store rows per write than scan-based maintenance.
        let rows_ratio = out.field("rows_ratio").num();
        assert!(rows_ratio >= 10.0, "rows_ratio = {rows_ratio}");
        let delta = rows.find("mode", "delta").unwrap();
        let scan = rows.find("mode", "scan").unwrap();
        assert!(delta.num("view_rows_touched_per_write") > 0.0);
        assert_eq!(
            delta.num("view_rows_touched_per_write"),
            scan.num("view_rows_touched_per_write"),
            "both maintenance strategies rewrite the same view rows"
        );
        // Coalescing must bound the single-key burst: the flush after 256
        // buffered writes costs no more than twice the flush after one.
        let b256 = out.part("bursts").rows().find(|b| b.num("burst") == 256.0).unwrap();
        let ratio = b256.num("ratio_vs_single");
        assert!(ratio <= 2.0, "ratio = {ratio}");
        assert_eq!(b256.num("coalesced_merges"), 255.0, "every repeat write merges");
        assert!(b256.num("coalesced_flush_sim_ms") * 10.0 < b256.num("uncoalesced_flush_sim_ms"));
        // Sim figures are deterministic, and the delta path's cost per
        // write is database-size independent (it probes maintenance
        // indexes instead of scanning views), so at 4x the customers the
        // delta cost is unchanged while the scan path has grown past it.
        let larger = fig_writes(160, 4, 1);
        let delta_l = larger.part("rows").find("mode", "delta").unwrap().num("sim_ms_per_write");
        let scan_l = larger.part("rows").find("mode", "scan").unwrap().num("sim_ms_per_write");
        let delta_cost = delta.num("sim_ms_per_write");
        // (not bit-identical: scanned key bytes grow a little with id
        // widths, but the cost must stay flat to well under a percent)
        assert!(
            (delta_l - delta_cost).abs() < delta_cost * 1e-3,
            "delta maintenance cost must not grow with database size: {delta_cost} vs {delta_l}"
        );
        assert!(delta_l < scan_l, "delta {delta_l} !< scan {scan_l}");
    }

    #[test]
    fn fig_faults_retries_preserve_goodput_and_recovery_loses_nothing() {
        let out = fig_faults(30, 200);
        let rows = out.part("rows");
        assert_eq!(rows.len(), FIG_FAULTS_RATES.len() * 2);
        let cell = |retry: &str, rate: f64| {
            rows.rows().find(|r| r.str("retry") == retry && r.num("fault_rate") == rate).unwrap()
        };
        // Faults actually fire at the 1% point, and retries absorb them:
        // goodput stays within 10% of no-fault while no op is given up on.
        let faulted = cell("backoff", 0.01);
        assert!(faulted.num("injected_op_faults") > 0.0);
        assert_eq!(faulted.num("giveups"), 0.0);
        assert_eq!(faulted.num("ok_ops"), faulted.num("ops"));
        let vs_no_fault = faulted.num("goodput_vs_no_fault");
        assert!(vs_no_fault > 0.9, "1% faults cost more than 10% goodput: {vs_no_fault}");
        // Without retries the same fault rate loses ops outright.
        let unprotected = cell("none", 0.05);
        assert!(unprotected.num("giveups") > 0.0);
        assert!(unprotected.num("ok_ops") < unprotected.num("ops"));
        // The crash-recovery demonstration: degradation served the read,
        // recovery lost nothing and left no view dirty.
        let recovery = out.part("recovery").row(0);
        assert!(recovery.num("dirty_fallbacks") >= 1.0);
        assert!(recovery.num("locks_reclaimed") >= 1.0);
        assert!(recovery.num("view_rows_rolled_forward") > 0.0);
        assert_eq!(recovery.num("lost_acked_synced_writes"), 0.0);
        assert_eq!(recovery.num("dirty_view_rows_after_recovery"), 0.0);
        assert!(recovery.num("recovery_sim_ms") > 0.0);
        // Determinism: the same seed reproduces the figure byte-for-byte.
        assert_eq!(sim_bits("fig_faults", out), sim_bits("fig_faults", fig_faults(30, 200)));
    }

    #[test]
    fn fig_partial_bounds_footprint_and_stays_deterministic() {
        let out = fig_partial_with(20, &[1.2], &[0.10]);
        assert_eq!(out.part("baselines").len(), 1);
        let rows = out.part("rows");
        assert_eq!(rows.len(), 2, "one budget cell plus the unbounded cell");
        let full = out.part("baselines").row(0);
        assert!(full.num("view_store_rows") > 0.0 && full.num("view_store_bytes") > 0.0);

        let cell = rows.find("budget_label", "10%").unwrap();
        // The budget binds: the stored view slice is a fraction of full
        // materialization, demand-filled by upqueries and kept under the
        // budget by eviction.
        assert!(cell.num("upqueries") > 0.0);
        assert!(cell.num("evicted_keys") > 0.0, "a 10% budget must evict under zipf");
        let bytes_x = cell.num("bytes_x_vs_full");
        assert!(bytes_x > 2.0, "bytes_x = {bytes_x}");
        let hit_rate = cell.num("hit_rate");
        assert!(hit_rate > 0.5, "hit rate = {hit_rate}");
        assert!(matches!(cell.get("view_tables"), Value::Rows(tables) if !tables.is_empty()));
        // Writes to evicted keys are annihilated rather than maintained.
        assert!(cell.num("annihilated") > 0.0);

        // The unbounded cell never evicts and serves the steady state
        // entirely from residency.
        let unbounded = rows.find("budget_label", "unbounded").unwrap();
        assert_eq!(unbounded.num("evicted_keys"), 0.0);
        assert!(unbounded.num("hit_rate") >= hit_rate);
        assert!(unbounded.num("view_store_bytes") <= full.num("view_store_bytes"));

        // Same seed, same figures — bit-for-bit.
        let again = fig_partial_with(20, &[1.2], &[0.10]);
        assert_eq!(sim_bits("fig_partial", out), sim_bits("fig_partial", again));
    }

    #[test]
    fn qualitative_tables_have_expected_shape() {
        assert_eq!(table1_qualitative().len(), 3);
        assert_eq!(fig13_mechanisms().len(), 5);
    }

    #[test]
    fn matrix_columns_follow_the_evaluated_systems() {
        let systems: Vec<&str> = MATRIX_COLS[1..].iter().map(|c| c.head).collect();
        let kinds: Vec<&str> = SystemKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(systems, kinds);
    }
}
