//! End-to-end correctness of the view-answering engine: every cache answer
//! must equal direct evaluation, on scenario documents and on random ones,
//! regardless of the route taken.

mod common;

use xpath_views::engine::{answer_value_set, Route};
use xpath_views::model::FlatTree;
use xpath_views::prelude::*;
use xpath_views::workload::{bib_catalog, bib_doc, site_catalog, site_doc, Fragment};

use common::{instance_from_seed, tree_from_seed};

#[test]
fn site_catalog_cache_equals_direct() {
    let doc = site_doc(5, 7, 3);
    let catalog = site_catalog();
    let mut cache = ViewCache::new(doc);
    for (name, def) in &catalog.views {
        cache.add_view(name, def.clone());
    }
    let mut hits = 0;
    for (name, q) in &catalog.queries {
        let ans = cache.answer(q);
        assert_eq!(ans.nodes, cache.answer_direct(q), "mismatch for {name}");
        if matches!(ans.route, Route::ViaView { .. }) {
            hits += 1;
        }
    }
    assert!(hits >= 4, "expected most catalog queries to hit views, got {hits}");
}

#[test]
fn bib_catalog_cache_equals_direct() {
    let doc = bib_doc(25, 9);
    let catalog = bib_catalog();
    let mut cache = ViewCache::new(doc);
    for (name, def) in &catalog.views {
        cache.add_view(name, def.clone());
    }
    for (name, q) in &catalog.queries {
        let ans = cache.answer(q);
        assert_eq!(ans.nodes, cache.answer_direct(q), "mismatch for {name}");
    }
}

#[test]
fn random_views_and_queries_agree_with_direct() {
    // Derived (query, view) instances: when a rewriting exists the answer
    // comes from the view; either way it must equal direct evaluation.
    for seed in 0..30u64 {
        let (q, v) = instance_from_seed(seed * 11 + 2, Fragment::Full);
        let doc = tree_from_seed(seed, 40);
        let mut cache = ViewCache::new(doc);
        cache.add_view("v", v);
        let ans = cache.answer(&q);
        assert_eq!(ans.nodes, cache.answer_direct(&q), "seed {seed}");
    }
}

#[test]
fn materialized_and_virtual_agree_by_value() {
    for seed in 0..20u64 {
        let (q, v) = instance_from_seed(seed * 17 + 3, Fragment::Full);
        let doc = tree_from_seed(seed ^ 0xF0F0, 40);
        let planner = xpath_views::rewrite::RewritePlanner::without_fallback();
        if let RewriteAnswer::Rewriting(rw) = planner.decide(&q, &v) {
            let flat = FlatTree::freeze(&doc);
            let view = MaterializedView::materialize("v", v, &flat);
            let virt = view.apply_virtual(rw.pattern(), &flat);
            let mat = view.apply_materialized(rw.pattern(), &doc);
            let mut mat_keys: Vec<String> =
                mat.iter().map(xpath_views::model::Tree::canonical_key).collect();
            mat_keys.sort();
            mat_keys.dedup();
            assert_eq!(answer_value_set(&doc, &virt), mat_keys, "value mismatch for seed {seed}");
        }
    }
}

#[test]
fn cache_view_results_match_definition_semantics() {
    // The materialized node set is exactly evaluate(def, doc).
    let doc = site_doc(3, 5, 1);
    let def = parse_xpath("site//item[bids]").unwrap();
    let view = MaterializedView::materialize("hot", def.clone(), &FlatTree::freeze(&doc));
    assert_eq!(view.nodes(), evaluate(&def, &doc).as_slice());
    // And the by-value copies built on demand are the source subtrees: the
    // identity rewriting returns one copy per distinct answer value.
    let copies = view.apply_materialized(&parse_xpath("item").unwrap(), &doc);
    let mut copy_keys: Vec<String> = copies.iter().map(Tree::canonical_key).collect();
    copy_keys.sort();
    assert_eq!(copy_keys, answer_value_set(&doc, view.nodes()));
    assert!(!copies.is_empty());
}
