//! Ablation benches for two of Synergy's design choices: the cost of the
//! offline view-generation pipeline and of lock granularity.

use bench::ablation_lock_granularity;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use synergy::selection::select_views;
use synergy::viewgen::generate_candidate_views;
use tpcw::schema::{tpcw_roots, tpcw_schema};
use tpcw::writes::full_workload;

fn ablations(c: &mut Criterion) {
    let schema = tpcw_schema();
    let workload = full_workload();
    let roots = tpcw_roots();

    let mut group = c.benchmark_group("ablation");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    group.bench_function("candidate_view_generation/tpcw", |b| {
        b.iter(|| black_box(generate_candidate_views(&schema, &workload, &roots)))
    });
    let candidates = generate_candidate_views(&schema, &workload, &roots);
    group.bench_function("view_selection_and_rewrite/tpcw", |b| {
        b.iter(|| black_box(select_views(&schema, &candidates, &workload)))
    });
    group.bench_function("lock_granularity/100_rows", |b| {
        b.iter(|| black_box(ablation_lock_granularity(&[100])))
    });
    group.finish();
}

criterion_group!(benches, ablations);
criterion_main!(benches);
