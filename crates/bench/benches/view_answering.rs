//! Experiment E-T4 (figure C2): answering queries from materialized views vs
//! direct evaluation, over growing documents.
//!
//! This is the paper's motivating application (caching, Section 1). Planning
//! (rewritability decisions) is document-size independent; evaluation from a
//! pre-filtered view beats a full-document scan by a factor that grows with
//! the selectivity of the view. Both phases are measured separately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use xpv_core::{RewriteAnswer, RewritePlanner};
use xpv_engine::MaterializedView;
use xpv_model::FlatTree;
use xpv_semantics::{evaluate, evaluate_flat};
use xpv_workload::{site_catalog, site_doc};

fn view_vs_direct(c: &mut Criterion) {
    let planner = RewritePlanner::without_fallback();
    let catalog = site_catalog();
    let mut group = c.benchmark_group("view_answering_site");
    for scale in [4usize, 8, 16, 32] {
        let doc = site_doc(scale, scale, 7);
        group.throughput(Throughput::Elements(doc.len() as u64));

        // Materialize the "items" view and pre-plan the rewriting for the
        // catalog's item_names query (planning is done once; the cache would
        // amortize it identically).
        let view_def = catalog.views[0].1.clone();
        let flat = FlatTree::freeze(&doc);
        let view = MaterializedView::materialize("items", view_def.clone(), &flat);
        let query = catalog
            .queries
            .iter()
            .find(|(n, _)| *n == "item_listitems")
            .map(|(_, q)| q.clone())
            .expect("catalog query");
        let rewriting = match planner.decide(&query, &view_def) {
            RewriteAnswer::Rewriting(rw) => rw.pattern().clone(),
            other => panic!("expected rewriting for the bench query, got {other:?}"),
        };
        // Correctness anchor (the `Tree` evaluator is the oracle).
        assert_eq!(view.apply_virtual(&rewriting, &flat), evaluate(&query, &doc));

        // Both arms run the flat matcher on the same frozen document.
        group.bench_with_input(BenchmarkId::new("direct", doc.len()), &flat, |b, flat| {
            b.iter(|| evaluate_flat(black_box(&query), flat))
        });
        group.bench_with_input(
            BenchmarkId::new("via_view", doc.len()),
            &(&view, &flat),
            |b, (view, flat)| b.iter(|| view.apply_virtual(black_box(&rewriting), flat)),
        );
    }
    group.finish();
}

fn planning_latency(c: &mut Criterion) {
    // Planning is independent of the document: decide every catalog query
    // against every catalog view.
    let planner = RewritePlanner::without_fallback();
    let catalog = site_catalog();
    c.bench_function("plan_site_catalog", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (_, q) in &catalog.queries {
                for (_, v) in &catalog.views {
                    if v.depth() <= q.depth() {
                        hits += usize::from(matches!(
                            planner.decide(black_box(q), v),
                            RewriteAnswer::Rewriting(_)
                        ));
                    }
                }
            }
            hits
        })
    });
}

fn materialization(c: &mut Criterion) {
    let catalog = site_catalog();
    let mut group = c.benchmark_group("materialize_views");
    for scale in [8usize, 16] {
        let doc = site_doc(scale, scale, 7);
        let flat = FlatTree::freeze(&doc);
        group.bench_with_input(BenchmarkId::from_parameter(doc.len()), &flat, |b, flat| {
            b.iter(|| {
                catalog
                    .views
                    .iter()
                    .map(|(n, v)| MaterializedView::materialize(*n, v.clone(), flat).len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, view_vs_direct, planning_latency, materialization);
criterion_main!(benches);
