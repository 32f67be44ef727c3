//! Correctness of incremental view maintenance under document updates.
//!
//! The contract of `xpv-maintain` (and the engine's `apply_edits` above it)
//! is that incrementality is *invisible* in the state: after any edit
//! stream, incrementally patched answer sets equal a from-scratch
//! re-materialization — per view, by node identity *and* by value — and
//! plan-memo routes whose participants were untouched keep serving
//! byte-identical answers with zero re-planning. An 8-thread stress case
//! interleaves `apply_edits` with `answer` and checks every observed answer
//! against a serial replay of the same batches (snapshot consistency: no
//! torn document/view pairings).

mod common;

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use xpath_views::engine::{
    answer_value_set, Edit, MaterializedView, Route, ShardedViewCache, ViewCache,
};
use xpath_views::maintain::{maintain_views, MaintainMode};
use xpath_views::model::FlatTree;
use xpath_views::prelude::*;
use xpath_views::workload::{
    catalog_zipf_stream, edit_batches, edit_stream, edit_stream_clustered, site_catalog, site_doc,
    EditLocality, EditMix, Fragment,
};

use common::{pattern_from_seed, tree_from_seed};

/// Three deterministic view definitions for a seed, in the shared
/// tree/pattern label universe.
fn defs_from_seed(seed: u64) -> Vec<Pattern> {
    (0..3).map(|i| pattern_from_seed(seed.wrapping_add(i * 7919), Fragment::Full)).collect()
}

fn mix_from_seed(seed: u64) -> EditMix {
    match seed % 4 {
        0 => EditMix::default(),
        1 => EditMix::new(1, 0, 0),
        2 => EditMix::new(0, 1, 1),
        _ => EditMix::new(1, 1, 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for random documents, view pools, and edit
    /// streams, incremental maintenance ≡ full re-materialization — same
    /// final document, same answer sets (by node id), same value sets.
    #[test]
    fn incremental_equals_full_rematerialization(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let doc = tree_from_seed(tseed, 32);
        let defs = defs_from_seed(vseed);
        let def_refs: Vec<&Pattern> = defs.iter().collect();
        let edits = edit_stream(&doc, 24, mix_from_seed(eseed), eseed);

        let mut doc_inc = doc.clone();
        let mut ans_inc: Vec<Vec<NodeId>> =
            defs.iter().map(|d| evaluate(d, &doc_inc)).collect();
        let (deltas, stats) = maintain_views(
            &mut doc_inc, &def_refs, &mut ans_inc, &edits, MaintainMode::Incremental,
        ).expect("generated streams are valid");
        prop_assert_eq!(stats.edits_applied, edits.len() as u64);

        let mut doc_full = doc.clone();
        let mut ans_full: Vec<Vec<NodeId>> =
            defs.iter().map(|d| evaluate(d, &doc_full)).collect();
        maintain_views(
            &mut doc_full, &def_refs, &mut ans_full, &edits, MaintainMode::FullRecompute,
        ).expect("same stream is valid");

        prop_assert_eq!(
            doc_inc.canonical_key(), doc_full.canonical_key(),
            "both modes must produce the same document"
        );
        for (i, def) in defs.iter().enumerate() {
            // Node-identity equality against a fresh evaluation…
            prop_assert_eq!(
                &ans_inc[i], &evaluate(def, &doc_inc),
                "incremental diverged from recomputation for view {}", def
            );
            prop_assert_eq!(&ans_inc[i], &ans_full[i], "modes disagree for view {}", def);
            // …and value equality of the answer sets.
            prop_assert_eq!(
                answer_value_set(&doc_inc, &ans_inc[i]),
                answer_value_set(&doc_full, &ans_full[i])
            );
            // The deltas must reconcile the old set into the new one.
            let d = &deltas[i];
            for n in &d.added {
                prop_assert!(ans_inc[i].binary_search(n).is_ok());
            }
            for n in &d.removed {
                prop_assert!(ans_inc[i].binary_search(n).is_err());
            }
        }
    }

    /// Batch coalescing is invisible in the state: for random documents,
    /// view pools, and edit batches, the coalesced maintainer produces the
    /// same document, the same answer sets (node identity and value sets),
    /// and deltas that reconcile identically to both the legacy per-edit
    /// path and full re-materialization.
    #[test]
    fn coalesced_equals_per_edit_and_full(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let doc = tree_from_seed(tseed, 32);
        let defs = defs_from_seed(vseed);
        let def_refs: Vec<&Pattern> = defs.iter().collect();
        let edits = edit_stream(&doc, 24, mix_from_seed(eseed), eseed);

        let run = |mode: MaintainMode| {
            let mut d = doc.clone();
            let mut ans: Vec<Vec<NodeId>> =
                defs.iter().map(|def| evaluate(def, &d)).collect();
            let (deltas, stats) =
                maintain_views(&mut d, &def_refs, &mut ans, &edits, mode)
                    .expect("generated streams are valid");
            (d, ans, deltas, stats)
        };
        let (doc_co, ans_co, deltas_co, stats_co) = run(MaintainMode::Coalesced);
        let (doc_pe, ans_pe, deltas_pe, _) = run(MaintainMode::Incremental);
        let (doc_fu, ans_fu, _, _) = run(MaintainMode::FullRecompute);

        prop_assert_eq!(stats_co.edits_applied, edits.len() as u64);
        // A batch can never cost more region scans than its pre-merge
        // root count — coalescing only removes work.
        prop_assert!(stats_co.regions_scanned <= stats_co.regions_before_merge);
        prop_assert_eq!(doc_co.canonical_key(), doc_pe.canonical_key());
        prop_assert_eq!(doc_co.canonical_key(), doc_fu.canonical_key());
        for (i, def) in defs.iter().enumerate() {
            prop_assert_eq!(
                &ans_co[i], &evaluate(def, &doc_co),
                "coalesced diverged from recomputation for view {}", def
            );
            prop_assert_eq!(&ans_co[i], &ans_pe[i], "coalesced vs per-edit for view {}", def);
            prop_assert_eq!(&ans_co[i], &ans_fu[i], "coalesced vs full for view {}", def);
            prop_assert_eq!(
                answer_value_set(&doc_co, &ans_co[i]),
                answer_value_set(&doc_pe, &ans_pe[i])
            );
            // The two incremental modes must agree delta-for-delta, so
            // materialized representations patch identically either way.
            prop_assert_eq!(&deltas_co[i].added, &deltas_pe[i].added);
            prop_assert_eq!(&deltas_co[i].removed, &deltas_pe[i].removed);
        }
    }

    /// Views patched with the coalesced maintainer's node sets equal a
    /// fresh `Tree`-evaluator run on the post-batch tree, by node identity
    /// and by value.
    #[test]
    fn coalesced_materialized_copies_match_fresh(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        check_patched_views_match_fresh(tseed, vseed, eseed, MaintainMode::Coalesced)?;
    }

    /// The same contract for views patched with the per-edit incremental
    /// maintainer's node sets.
    #[test]
    fn materialized_copies_match_fresh_materialization(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        check_patched_views_match_fresh(tseed, vseed, eseed, MaintainMode::Incremental)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `add_view` materializes with the flat matcher on the snapshot's
    /// frozen document: every stored node set equals the `Tree`
    /// evaluator's answer on the cached document, after registration and
    /// after each batch of a random edit stream.
    #[test]
    fn flat_materialization_matches_tree_oracle(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let doc = tree_from_seed(tseed, 32);
        let defs = defs_from_seed(vseed);
        let edits = edit_stream(&doc, 12, mix_from_seed(eseed), eseed);
        let cache = ShardedViewCache::new(doc);
        for (i, def) in defs.iter().enumerate() {
            cache.add_view(&format!("v{i}"), def.clone());
        }
        check_pool_against_tree_oracle(&cache, &defs, "add_view")?;
        for batch in edit_batches(&edits, 3) {
            cache.apply_edits(&batch).expect("valid stream");
            check_pool_against_tree_oracle(&cache, &defs, "apply_edits")?;
        }
    }
}

/// `views_snapshot()[i].nodes() == evaluate(defs[i], cache.document())`
/// for every registered view.
fn check_pool_against_tree_oracle(
    cache: &ShardedViewCache,
    defs: &[Pattern],
    after: &str,
) -> Result<(), TestCaseError> {
    let doc = cache.document();
    let views = cache.views_snapshot();
    prop_assert_eq!(views.len(), defs.len());
    for (view, def) in views.iter().zip(defs) {
        let want = evaluate(def, &doc);
        prop_assert_eq!(
            view.nodes(),
            want.as_slice(),
            "view {} diverged from the Tree evaluator after {}",
            def,
            after
        );
    }
    Ok(())
}

/// Materializes three seeded views, maintains them through a 16-edit
/// stream in `mode`, patches each with `apply_delta`, and compares every
/// patched view against `evaluate(def, &edited_doc)`: the same nodes, and
/// the same value set under `answer_value_set`.
fn check_patched_views_match_fresh(
    tseed: u64,
    vseed: u64,
    eseed: u64,
    mode: MaintainMode,
) -> Result<(), TestCaseError> {
    let doc = tree_from_seed(tseed, 28);
    let defs = defs_from_seed(vseed);
    let def_refs: Vec<&Pattern> = defs.iter().collect();
    let edits = edit_stream(&doc, 16, mix_from_seed(eseed), eseed);

    let flat = FlatTree::freeze(&doc);
    let views: Vec<MaterializedView> = defs
        .iter()
        .enumerate()
        .map(|(i, d)| MaterializedView::materialize(format!("v{i}"), d.clone(), &flat))
        .collect();
    let mut edited = doc.clone();
    let mut answers: Vec<Vec<NodeId>> = views.iter().map(|v| v.nodes().to_vec()).collect();
    maintain_views(&mut edited, &def_refs, &mut answers, &edits, mode).expect("valid stream");
    for ((view, ans), def) in views.iter().zip(answers).zip(&defs) {
        let patched = view.apply_delta(ans);
        let fresh = evaluate(def, &edited);
        prop_assert_eq!(patched.nodes(), fresh.as_slice(), "{:?} nodes diverged for {}", mode, def);
        prop_assert_eq!(
            answer_value_set(&edited, patched.nodes()),
            answer_value_set(&edited, &fresh),
            "{:?} values diverged for view {}",
            mode,
            def
        );
    }
    Ok(())
}

/// Engine-level: after edits, every cached answer equals direct evaluation,
/// and routes whose participants were untouched survive — counter-asserted
/// via plan-memo hits and the flat coNP counter.
#[test]
fn surviving_routes_answer_byte_identically_after_edits() {
    let doc = site_doc(10, 10, 7);
    let cache = ShardedViewCache::new(doc.clone());
    for (name, def) in site_catalog().views {
        cache.add_view(name, def);
    }
    let queries: Vec<(&str, Pattern)> = site_catalog().queries;
    for (_, q) in &queries {
        let _ = cache.answer(q); // warm every route
    }

    // Apply the stream in batches. After every batch each query must stay
    // byte-identical to direct evaluation, and at least one route must
    // survive each batch (the `categories` query routes `Direct`, and
    // `Direct` routes survive document edits outright).
    let edits = edit_stream(&doc, 120, EditMix::new(1, 0, 0), 0xA11);
    for batch in edit_batches(&edits, 6) {
        let hits_before = cache.stats().plan_memo_hits;
        cache.apply_edits(&batch).expect("valid batch");
        for (name, q) in &queries {
            let ans = cache.answer(q);
            assert_eq!(ans.nodes, cache.answer_direct(q), "query {name} diverged after edits");
        }
        let hits_after = cache.stats().plan_memo_hits;
        assert!(
            hits_after > hits_before,
            "every batch must leave at least one route serving from the memo"
        );
    }
    let s = cache.stats();
    assert_eq!(s.updates_applied, 120);
    assert!(s.views_refreshed_incrementally > 0, "some views must have been patched");
    assert!(
        s.plan_memo_invalidations > 0,
        "an insert-heavy stream over the hot views must drop some routes"
    );

    // Once the stream has quiesced, every route is memoized again: a full
    // query pass performs zero planner misses and zero fresh coNP work.
    for (_, q) in &queries {
        let _ = cache.answer(q);
    }
    let misses = cache.stats().plan_memo_misses;
    let runs_before = cache.stats().oracle_canonical_runs;
    for (name, q) in &queries {
        let ans = cache.answer(q);
        assert_eq!(ans.nodes, cache.answer_direct(q), "query {name} wrong after quiesce");
    }
    let after = cache.stats();
    assert_eq!(after.plan_memo_misses, misses, "quiesced traffic must be all memo hits");
    assert_eq!(
        after.oracle_canonical_runs, runs_before,
        "surviving and re-planned routes alike serve with zero canonical-model calls"
    );
}

/// Route-level invalidation is participant-aware: an edit that changes one
/// view's answers drops that view's routes and keeps the others.
#[test]
fn participant_aware_invalidation_keeps_unrelated_routes() {
    let cache = ShardedViewCache::new(site_doc(6, 6, 7));
    cache.add_view("items", parse_xpath("site/region/item").unwrap());
    cache.add_view("categories", parse_xpath("site/categories/category").unwrap());
    let via_items = parse_xpath("site/region/item/name").unwrap();
    let via_cats = parse_xpath("site/categories/category/name").unwrap();
    assert!(matches!(cache.answer(&via_items).route, Route::ViaView { .. }));
    assert!(matches!(cache.answer(&via_cats).route, Route::ViaView { .. }));
    let invalidations = cache.stats().plan_memo_invalidations;

    // Graft a new item: only the `items` view changes.
    let snap = cache.document();
    let region = snap
        .children(snap.root())
        .iter()
        .copied()
        .find(|&n| snap.label(n).name() == "region")
        .expect("site has regions");
    let graft = {
        let mut t = xpath_views::model::Tree::new(xpath_views::model::Label::new("item"));
        let root = t.root();
        t.add_child(root, xpath_views::model::Label::new("name"));
        t
    };
    let report =
        cache.apply_edits(&[Edit::InsertSubtree { parent: region, subtree: graft }]).unwrap();
    assert_eq!(report.views_changed, 1);
    assert_eq!(report.routes_dropped, 1, "only the items route depends on the changed view");
    assert_eq!(cache.stats().plan_memo_invalidations, invalidations + 1);

    // The categories route is still memoized; the items query replans and
    // picks up the grown answer set.
    let runs = cache.stats().oracle_canonical_runs;
    assert!(matches!(cache.answer(&via_cats).route, Route::ViaView { .. }));
    assert_eq!(cache.stats().oracle_canonical_runs, runs, "untouched route re-plans nothing");
    let ans = cache.answer(&via_items);
    assert_eq!(ans.nodes, cache.answer_direct(&via_items));
}

/// The single-threaded wrapper exposes the same update path.
#[test]
fn view_cache_wrapper_applies_edits() {
    let mut cache = ViewCache::new(site_doc(4, 4, 7));
    cache.add_view("items", parse_xpath("site/region/item").unwrap());
    let q = parse_xpath("site/region/item/name").unwrap();
    let before = cache.answer(&q).nodes.len();
    let region = {
        let doc = cache.document();
        doc.children(doc.root())
            .iter()
            .copied()
            .find(|&n| doc.label(n).name() == "region")
            .expect("site has regions")
    };
    let graft = {
        let mut t = xpath_views::model::Tree::new(xpath_views::model::Label::new("item"));
        let root = t.root();
        t.add_child(root, xpath_views::model::Label::new("name"));
        t
    };
    let report = cache
        .apply_edits(&[Edit::InsertSubtree { parent: region, subtree: graft }])
        .expect("valid edit");
    assert_eq!(report.edits_applied, 1);
    assert_eq!(cache.doc_version(), 1);
    assert_eq!(cache.answer(&q).nodes.len(), before + 1);
    assert_eq!(cache.answer(&q).nodes, cache.answer_direct(&q));
    assert_eq!(
        cache.views()[0].nodes().len(),
        cache.answer_direct(&parse_xpath("site/region/item").unwrap()).len()
    );
}

/// The cache's region fan-out (one scoped thread per core, at most one
/// per merged region) is schedule-invariant: refreshing a bursty
/// clustered stream, every view's stored answers equal the serial
/// `maintain_views(.., Coalesced)` replay of the same batches, and every
/// probe answers exactly. Width 1 against width 8 on one batch is pinned
/// by the engine's `region_fanout_width_does_not_change_results`.
#[test]
fn parallel_region_refresh_matches_serial() {
    let doc = site_doc(10, 10, 7);
    let catalog = site_catalog();
    let probes: Vec<Pattern> = catalog_zipf_stream(&catalog, 24, 0xFA17);
    let cache = ShardedViewCache::new(doc.clone());
    for (name, def) in catalog.views.iter() {
        cache.add_view(name, def.clone());
    }
    for q in &probes {
        let _ = cache.answer(q); // warm the memo
    }
    let defs: Vec<&Pattern> = catalog.views.iter().map(|(_, d)| d).collect();
    let mut serial_doc = doc.clone();
    let mut serial: Vec<Vec<NodeId>> = defs.iter().map(|d| evaluate(d, &doc)).collect();

    // A bursty clustered stream — many edits under few hot subtrees — is
    // exactly the regime that produces multi-region batches to fan out.
    let edits =
        edit_stream_clustered(&doc, 160, EditMix::default(), EditLocality::new(4, 90), 0x5EED);
    for batch in edit_batches(&edits, 8) {
        let report = cache.apply_edits(&batch).expect("valid batch");
        let (deltas, _) =
            maintain_views(&mut serial_doc, &defs, &mut serial, &batch, MaintainMode::Coalesced)
                .expect("valid batch");
        let changed = deltas.iter().filter(|d| d.answers_changed()).count();
        assert_eq!(report.views_changed, changed, "fan-out changed the set of changed views");
        for (view, want) in cache.views_snapshot().iter().zip(&serial) {
            assert_eq!(view.nodes(), &want[..], "view {} diverged from serial", view.name());
        }
        for q in &probes {
            assert_eq!(cache.answer(q).nodes, evaluate(q, &serial_doc), "wrong answer for {q}");
        }
    }
    // On a multi-core host the fan-out actually ran multi-region batches.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores > 1 {
        let stats = cache.stats().maintain;
        assert!(stats.parallel_tasks > 0, "bursty stream produced no fanned-out batches");
    }
}

/// 8-thread stress: one updater applies edit batches while 7 readers
/// answer concurrently. Every observed answer must equal the answer of
/// *some* serial-replay version (snapshot consistency — a torn
/// document/view pairing would produce an answer matching no version), and
/// the final state must match the last version exactly.
#[test]
fn concurrent_updates_and_answers_match_serial_replay() {
    const READERS: usize = 7;
    let doc = site_doc(8, 8, 7);
    let catalog = site_catalog();
    let probes: Vec<Pattern> =
        catalog_zipf_stream(&catalog, 24, 0xF00D).into_iter().collect::<Vec<_>>();
    let edits = edit_stream(&doc, 80, EditMix::default(), 0xBEEF);
    let batches = edit_batches(&edits, 8);

    // Serial replay: per probe query, the answer set at every version.
    let mut replay = ViewCache::new(doc.clone());
    for (name, def) in catalog.views.iter() {
        replay.add_view(name, def.clone());
    }
    let mut versions: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(batches.len() + 1);
    versions.push(probes.iter().map(|q| replay.answer_direct(q)).collect());
    for batch in &batches {
        replay.apply_edits(batch).expect("valid batch");
        versions.push(probes.iter().map(|q| replay.answer_direct(q)).collect());
    }
    let admissible: Vec<HashSet<Vec<NodeId>>> =
        (0..probes.len()).map(|qi| versions.iter().map(|v| v[qi].clone()).collect()).collect();

    // Concurrent run.
    let cache = Arc::new(ShardedViewCache::new(doc).with_shards(8));
    for (name, def) in catalog.views.iter() {
        cache.add_view(name, def.clone());
    }
    std::thread::scope(|scope| {
        let updater = {
            let cache = Arc::clone(&cache);
            let batches = batches.clone();
            scope.spawn(move || {
                for batch in &batches {
                    cache.apply_edits(batch).expect("valid batch");
                }
            })
        };
        for r in 0..READERS {
            let cache = Arc::clone(&cache);
            let probes = &probes;
            let admissible = &admissible;
            scope.spawn(move || {
                for round in 0..12 {
                    for (qi, q) in probes.iter().enumerate() {
                        let ans = cache.answer(q);
                        assert!(
                            admissible[qi].contains(&ans.nodes),
                            "reader {r} round {round}: answer for {q} matches no \
                             serial-replay version (torn snapshot?)"
                        );
                    }
                }
            });
        }
        updater.join().expect("updater thread");
    });

    // Quiesced: the final state equals the last serial version.
    let last = versions.last().expect("at least one version");
    for (qi, q) in probes.iter().enumerate() {
        assert_eq!(&cache.answer(q).nodes, &last[qi], "final state diverged for {q}");
        assert_eq!(cache.answer(q).nodes, cache.answer_direct(q));
    }
    assert_eq!(cache.doc_version(), batches.len() as u64);
}
