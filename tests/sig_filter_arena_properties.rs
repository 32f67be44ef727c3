//! Properties of the two serve-hot-loop optimizations, checked against
//! oracles: the plan-miss signature filter (a rejected candidate provably
//! admits no equivalent rewriting, so every `Direct` route is one the full
//! planner confirms) and the answer arena (`answer_batch_refs` returns the
//! nodes and routes of the owned-`Vec` `answer_batch`, and both equal the
//! `Tree` evaluator's answers, including on multi-view intersection
//! routes).

mod common;

use std::collections::HashSet;

use xpath_views::model::AnswerArena;
use xpath_views::pattern::{QuerySignature, ViewSignature};
use xpath_views::prelude::*;
use xpath_views::semantics::evaluate;
use xpath_views::workload::{
    bib_catalog, catalog_zipf_stream, derived_view_pool, site_catalog, site_doc,
    site_intersect_catalog, Fragment,
};

use common::instance_from_seed;

/// Filter soundness over generated pairs: whenever the signature check
/// rejects a (query, view) pair, the full unfiltered planner — oracle,
/// fallback and all — must agree that no equivalent rewriting exists.
/// (The converse is not claimed: the filter is a cheap necessary
/// condition, not a decision procedure.)
#[test]
fn signature_reject_implies_no_rewriting() {
    let planner = RewritePlanner::default();
    let fragments =
        [Fragment::Full, Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch];
    let mut pairs = 0usize;
    let mut rejected = 0usize;
    for seed in 0..160u64 {
        for &frag in &fragments {
            // Correlated instances (view derived from the query) plus the
            // crossed pair from the next seed — the crossed ones are where
            // rejections actually fire.
            let (q, v) = instance_from_seed(seed, frag);
            let (_, v2) = instance_from_seed(seed ^ 0xA5A5, frag);
            for view in [&v, &v2] {
                pairs += 1;
                let qsig = QuerySignature::of(&q);
                if !qsig.admits(&ViewSignature::of(view)) {
                    rejected += 1;
                    assert!(
                        !matches!(planner.decide(&q, view), RewriteAnswer::Rewriting(_)),
                        "signature filter rejected a rewritable pair:\n  P = {q}\n  V = {view}"
                    );
                }
            }
        }
    }
    assert!(pairs >= 500, "want 500+ generated pairs, got {pairs}");
    assert!(rejected >= 50, "filter never fired ({rejected}/{pairs}) — the test is vacuous");
}

/// The plan-miss regime: a pool of views derived from a *foreign* catalog
/// as well as the queried one, so most candidates are label-mask-rejected;
/// then the overlapping-view catalog alone, whose joint queries only
/// intersection routes serve. With the memo on and off, every answer
/// equals the `Tree` evaluator's, every `Direct` route is one the full
/// planner confirms (no pool view admits an equivalent rewriting — the
/// filter hid nothing), and every `ViaView` route's view does admit one.
#[test]
fn filter_is_invisible_on_the_derived_pool() {
    let doc = site_doc(6, 6, 5);
    let overlap = site_intersect_catalog();
    let overlap_views: Vec<(String, Pattern)> =
        overlap.views.iter().map(|(n, d)| (n.to_string(), d.clone())).collect();
    let derived = derived_view_pool(&[&site_catalog(), &bib_catalog()], 3, 7);
    let mut stream = catalog_zipf_stream(&site_catalog(), 60, 0x21F);
    stream.extend(catalog_zipf_stream(&overlap, 20, 0x220));
    // The derived pool's depth-0 `site` views serve every `site/…` query;
    // these start elsewhere, so some of them route direct.
    for q in ["auction//item", "catalog/item[price]/name", "*//keyword", "*/regions/*"] {
        stream.push(parse_xpath(q).expect("parses"));
    }
    let planner = RewritePlanner::default();
    let mut kinds: HashSet<&str> = HashSet::new();
    for pool in [&derived, &overlap_views] {
        for memo in [true, false] {
            let cache = ShardedViewCache::new(doc.clone()).with_shards(2);
            cache.set_memo_enabled(memo);
            for (name, def) in pool {
                cache.add_view(name, def.clone());
            }
            let answers = cache.answer_batch(&stream);
            let mut checked: HashSet<String> = HashSet::new();
            for (a, q) in answers.iter().zip(&stream) {
                assert_eq!(a.nodes, evaluate(q, &doc), "wrong answer for {q} (memo={memo})");
                if !checked.insert(q.to_string()) {
                    continue;
                }
                match &a.route {
                    Route::Direct => {
                        kinds.insert("direct");
                        for (name, def) in pool {
                            assert!(
                                !matches!(planner.decide(q, def), RewriteAnswer::Rewriting(_)),
                                "{q} routed direct, but view {name} = {def} rewrites it"
                            );
                        }
                    }
                    Route::ViaView { view, .. } => {
                        kinds.insert("view");
                        let def = &pool.iter().find(|(n, _)| n == view).expect("pool view").1;
                        assert!(
                            matches!(planner.decide(q, def), RewriteAnswer::Rewriting(_)),
                            "{q} routed via {view}, which admits no rewriting"
                        );
                    }
                    Route::Intersect { .. } => {
                        kinds.insert("intersect");
                    }
                }
            }
            assert!(cache.stats().sig_rejects > 0, "every pool must trigger rejections");
        }
    }
    assert_eq!(kinds.len(), 3, "the runs must cover every route kind, got {kinds:?}");
}

/// Arena answers equal owned-`Vec` answers — and the `Tree` evaluator's —
/// across the ablations that remain (plan memo on/off × intersection
/// routes on/off) over the overlapping-view catalog, whose hot queries
/// only multi-view **intersection** routes can serve.
#[test]
fn arena_answers_match_owned_answers_across_ablations() {
    let doc = site_doc(6, 6, 5);
    let catalog = site_intersect_catalog();
    let stream = catalog_zipf_stream(&catalog, 48, 0x51);
    for memo in [true, false] {
        for intersect in [true, false] {
            let cache = ShardedViewCache::new(doc.clone()).with_shards(2);
            cache.set_memo_enabled(memo);
            cache.set_intersect_enabled(intersect);
            for (name, def) in &catalog.views {
                cache.add_view(name, def.clone());
            }
            let owned = cache.answer_batch(&stream);
            let mut arena = AnswerArena::new();
            let refs = cache.answer_batch_refs(&stream, &mut arena);
            assert_eq!(
                owned.iter().any(|a| matches!(a.route, Route::Intersect { .. })),
                intersect,
                "intersection routes must appear exactly when enabled"
            );
            assert_eq!(owned.len(), refs.len());
            for ((o, r), q) in owned.iter().zip(&refs).zip(&stream) {
                let arm = format!("memo={memo}, intersect={intersect}");
                assert_eq!(
                    o.nodes.as_slice(),
                    arena.get(r.nodes),
                    "arena nodes diverge ({arm}) for {q}"
                );
                assert_eq!(&o.route, r.route.as_ref(), "arena route diverges ({arm}) for {q}");
                assert_eq!(o.nodes, evaluate(q, &doc), "wrong answer ({arm}) for {q}");
            }
        }
    }
}

/// Fan-out sharing: a batch of one query repeated K times stores the node
/// run **once** in the arena; every duplicate answer is a handle to the
/// same storage.
#[test]
fn arena_fanout_shares_storage() {
    let catalog = site_catalog();
    let cache = ShardedViewCache::new(site_doc(6, 6, 5)).with_shards(2);
    for (name, def) in &catalog.views {
        cache.add_view(name, def.clone());
    }
    let q = catalog.queries[0].1.clone();
    let batch: Vec<Pattern> = std::iter::repeat_with(|| q.clone()).take(64).collect();
    let mut arena = AnswerArena::new();
    let refs = cache.answer_batch_refs(&batch, &mut arena);
    let first = refs[0].nodes;
    assert!(refs.iter().all(|r| r.nodes == first), "duplicates must share one run");
    assert_eq!(arena.node_count(), first.len(), "arena must hold exactly one copy of the run");
    let direct = cache.answer_batch(&batch);
    assert_eq!(direct[0].nodes.as_slice(), arena.get(first));
}
