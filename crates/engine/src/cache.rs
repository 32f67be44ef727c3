//! A rewriting-based view cache: the application the paper motivates.
//!
//! The introduction of the paper criticizes caching systems (\[3, 5, 13, 18\])
//! for using *incomplete* algorithms when answering queries from cached
//! XPath views. [`ViewCache`] is the complete counterpart: for each incoming
//! query it consults the [`xpv_core::RewritePlanner`]; whenever an
//! *equivalent* rewriting over some cached view exists, the answer is
//! computed from the view (virtually — no subtree copies). When no single
//! view suffices, the **intersection planner** (`xpv-intersect`) looks for
//! a small view subset whose node-set intersection serves the query jointly
//! ([`Route::Intersect`]); only then does the query run directly against
//! the document. Soundness is inherited from the planner: a rewriting is
//! only used after `R ◦ V ≡ P` (or `R ◦ M ≡ P` over the intersection
//! pattern `M`) has been verified.
//!
//! Since the serving path was sharded, `ViewCache` is a **thin
//! single-threaded wrapper over one shard** of the concurrent
//! [`ShardedViewCache`]: identical planning, plan memo, statistics, and
//! answers, with the familiar `&mut self` API and no locking overhead
//! beyond one uncontended shard. Use `ShardedViewCache`
//! (or the [`AsyncCacheServer`](crate::AsyncCacheServer) worker pool) when
//! multiple threads must answer concurrently.
//!
//! ## Amortization under repeated traffic
//!
//! The cache plans through one long-lived [`xpv_core::PlanningSession`], so
//! containment verdicts and homomorphism witnesses are shared across *all*
//! queries, and keeps a **plan memo** keyed by interned query keys
//! ([`xpv_pattern::PatternKey`]): the second arrival of a query (or of any
//! sibling-reordered isomorph) skips planning entirely — zero
//! canonical-model containment calls, observable via
//! [`CacheStats::plan_memo_hits`] and the flat
//! [`CacheStats::oracle_canonical_runs`] counter. Registering a new view
//! invalidates only the plan-memo entries whose plan depends on the grown
//! pool (`Direct` routes; see the [`shard`](crate::shard) module docs),
//! while the oracle's containment verdicts — which depend only on the
//! pattern pair — survive.
//!
//! [`ViewCache::answer_batch`] answers a workload slice in one pass over
//! this machinery, planning duplicated queries once and fanning the answer
//! out; [`ViewCache::set_memo_enabled`] is the ablation knob that turns all
//! memo levels off for before/after measurements.

use std::sync::Arc;

use xpv_core::RewritePlanner;
use xpv_intersect::IntersectConfig;
use xpv_maintain::{Edit, EditError};
use xpv_model::{AnswerArena, NodeId, Tree};
use xpv_pattern::Pattern;

pub use crate::shard::{CacheAnswer, CacheAnswerRef, CacheStats, ChoicePolicy, Route};
use crate::shard::{ShardedViewCache, UpdateReport, ViewPool};
use crate::view::MaterializedView;

/// A set of materialized views over a single document, with rewriting-based
/// query answering, a long-lived planning session, and a per-query plan
/// memo (see the module docs for the amortization story).
#[derive(Debug)]
pub struct ViewCache {
    inner: ShardedViewCache,
    /// Mirror of the inner view pool so [`ViewCache::views`] can hand out a
    /// plain slice (the concurrent pool lives behind a lock).
    views_mirror: ViewPool,
    /// Mirror of the inner document so [`ViewCache::document`] can hand out
    /// a plain reference (refreshed after every `apply_edits`).
    doc_mirror: Arc<Tree>,
}

impl ViewCache {
    /// Creates an empty cache over `doc` with the default planner.
    pub fn new(doc: Tree) -> ViewCache {
        Self::with_planner(doc, RewritePlanner::default())
    }

    /// Creates an empty cache with a custom planner configuration.
    pub fn with_planner(doc: Tree, planner: RewritePlanner) -> ViewCache {
        let inner = ShardedViewCache::with_planner(doc, planner).with_shards(1);
        let views_mirror = inner.views_snapshot();
        let doc_mirror = inner.document();
        ViewCache { inner, views_mirror, doc_mirror }
    }

    /// Sets the view-selection policy (builder style). Invalidates the plan
    /// memo: routes chosen under the previous policy are stale.
    pub fn with_policy(mut self, policy: ChoicePolicy) -> ViewCache {
        self.inner.set_policy(policy);
        self
    }

    /// Sets the intersection-planner budget (builder style).
    pub fn with_intersect_config(mut self, cfg: IntersectConfig) -> ViewCache {
        self.inner = self.inner.with_intersect_config(cfg);
        self
    }

    /// Enables or disables multi-view **intersection routes**; see
    /// [`ShardedViewCache::set_intersect_enabled`] for the memo effects.
    pub fn set_intersect_enabled(&mut self, enabled: bool) {
        self.inner.set_intersect_enabled(enabled);
    }

    /// Whether intersection routes are planned.
    pub fn intersect_enabled(&self) -> bool {
        self.inner.intersect_enabled()
    }

    /// Enables or disables **all** memoization — the plan memo and the
    /// session oracle's verdict/homomorphism memos (the ablation knob that
    /// measures what sharing buys); disabling clears every memo so a
    /// re-enable starts cold.
    pub fn set_memo_enabled(&mut self, enabled: bool) {
        self.inner.set_memo_enabled(enabled);
    }

    /// Whether memoization is active.
    pub fn memo_enabled(&self) -> bool {
        self.inner.memo_enabled()
    }

    /// The cached document (current state; refreshed by
    /// [`ViewCache::apply_edits`]).
    pub fn document(&self) -> &Tree {
        &self.doc_mirror
    }

    /// Applies a transactional batch of document edits, incrementally
    /// refreshing every registered view and invalidating only the plan-memo
    /// routes whose participants' answers actually changed — see
    /// [`ShardedViewCache::apply_edits`]. On error the cache is unchanged.
    pub fn apply_edits(&mut self, edits: &[Edit]) -> Result<UpdateReport, EditError> {
        let report = self.inner.apply_edits(edits)?;
        self.views_mirror = self.inner.views_snapshot();
        self.doc_mirror = self.inner.document();
        Ok(report)
    }

    /// The number of successful [`ViewCache::apply_edits`] batches so far.
    pub fn doc_version(&self) -> u64 {
        self.inner.doc_version()
    }

    /// The concurrent cache this wrapper drives (one shard). Useful for
    /// promoting a configured single-threaded cache to shared serving.
    pub fn into_sharded(self) -> ShardedViewCache {
        self.inner
    }

    /// Materializes `def` over the document and registers it under `name`.
    /// Returns the number of answers materialized.
    ///
    /// Invalidates only the plan-memo entries whose plan depends on the
    /// grown view pool (a new view may serve queries that previously routed
    /// `Direct`; memoized view routes survive). The oracle's containment
    /// verdicts are unaffected (they depend only on the pattern pair).
    ///
    /// # Panics
    ///
    /// Panics if a view with the same name is already registered.
    pub fn add_view(&mut self, name: &str, def: Pattern) -> usize {
        let n = self.inner.add_view(name, def);
        self.views_mirror = self.inner.views_snapshot();
        n
    }

    /// Deregisters the view named `name` (returns `false` when absent).
    /// `Direct` routes survive; routes whose participants are touched by
    /// the removal are selectively invalidated (see
    /// [`ShardedViewCache::remove_view`]).
    pub fn remove_view(&mut self, name: &str) -> bool {
        let removed = self.inner.remove_view(name);
        if removed {
            self.views_mirror = self.inner.views_snapshot();
        }
        removed
    }

    /// Replaces the view named `name` with a fresh materialization of
    /// `def`, invalidating every memoized route that depended on the old
    /// view (single-view *and* intersection routes). Returns the number of
    /// answers materialized.
    ///
    /// # Panics
    ///
    /// Panics if no view named `name` is registered.
    pub fn replace_view(&mut self, name: &str, def: Pattern) -> usize {
        let n = self.inner.replace_view(name, def);
        self.views_mirror = self.inner.views_snapshot();
        n
    }

    /// The registered views.
    pub fn views(&self) -> &[Arc<MaterializedView>] {
        &self.views_mirror
    }

    /// Lifetime statistics (the oracle counters are folded in live).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Answers `query`, preferring an equivalent rewriting over any
    /// registered view and falling back to direct evaluation. Which view
    /// wins when several apply is governed by the [`ChoicePolicy`].
    ///
    /// From its second occurrence on, a query's route is served from the
    /// plan memo: no planner call and **zero** canonical-model containment
    /// calls ([`CacheStats::plan_memo_hits`] counts these).
    pub fn answer(&mut self, query: &Pattern) -> CacheAnswer {
        self.inner.answer(query)
    }

    /// Answers a whole workload slice in one pass. Queries repeated within
    /// the batch (and sibling-reordered isomorphs) are planned **and
    /// evaluated** once — repeat positions receive a fan-out clone of the
    /// first occurrence's answer; answers come back in input order.
    pub fn answer_batch(&mut self, queries: &[Pattern]) -> Vec<CacheAnswer> {
        self.inner.answer_batch(queries)
    }

    /// [`ViewCache::answer_batch`] through the zero-allocation arena lane:
    /// node runs land in the caller's [`AnswerArena`] (cleared first) and
    /// each answer carries an 8-byte handle instead of an owned `Vec` (see
    /// [`ShardedViewCache::answer_batch_refs`]).
    pub fn answer_batch_refs(
        &mut self,
        queries: &[Pattern],
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        self.inner.answer_batch_refs(queries, arena)
    }

    /// Answers `query` by direct evaluation on the `Tree` reference
    /// evaluator (the oracle the test suites compare against).
    pub fn answer_direct(&self, query: &Pattern) -> Vec<NodeId> {
        self.inner.answer_direct(query)
    }

    /// A **partial** answer from the views when no equivalent rewriting
    /// exists: uses a *contained* rewriting (`R ∘ V ⊑ P`, the sound half of
    /// the paper's open problem 3), so every returned node is a genuine
    /// answer of `query`, but some answers may be missing. Returns `None`
    /// when no view yields even a contained rewriting.
    ///
    /// The `complete` flag is `true` only when the rewriting is equivalent
    /// (in which case this behaves like [`ViewCache::answer`]).
    pub fn answer_partial(&mut self, query: &Pattern) -> Option<(Vec<NodeId>, bool)> {
        self.inner.answer_partial(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn doc() -> Tree {
        TreeBuilder::root("site", |b| {
            for _ in 0..3 {
                b.child("region", |b| {
                    b.child("item", |b| {
                        b.leaf("name");
                        b.child("desc", |b| {
                            b.leaf("keyword");
                        });
                    });
                    b.child("item", |b| {
                        b.leaf("name");
                    });
                });
            }
        })
    }

    #[test]
    fn view_hit_produces_correct_answer() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let direct = cache.answer_direct(&q);
        let ans = cache.answer(&q);
        assert_eq!(ans.nodes, direct);
        match ans.route {
            Route::ViaView { view, .. } => assert_eq!(view, "items"),
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(cache.stats().view_hits, 1);
    }

    #[test]
    fn miss_falls_back_to_direct() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("names", pat("site/region/item/name"));
        // Query output lies above the view output: no rewriting can exist.
        let q = pat("site/region/item[name]");
        let ans = cache.answer(&q);
        assert_eq!(ans.route, Route::Direct);
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        assert_eq!(cache.stats().direct, 1);
    }

    #[test]
    fn first_usable_view_wins() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("regions", pat("site/region"));
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item[desc/keyword]/name");
        let ans = cache.answer(&q);
        match &ans.route {
            Route::ViaView { view, .. } => assert_eq!(view, "regions"),
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(ans.nodes, cache.answer_direct(&q));
    }

    #[test]
    fn multiple_queries_accumulate_stats() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q1 = pat("site/region/item/name");
        let q2 = pat("site//keyword");
        let _ = cache.answer(&q1);
        let _ = cache.answer(&q2);
        let s = cache.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.view_hits + s.direct, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate view name")]
    fn duplicate_view_names_rejected() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("v", pat("site/region"));
        cache.add_view("v", pat("site/region/item"));
    }

    #[test]
    fn smallest_view_policy_prefers_selective_views() {
        let mut cache = ViewCache::new(doc()).with_policy(ChoicePolicy::SmallestView);
        // Both views admit a rewriting for the query; `items` is smaller
        // than `regions`' subtree count? regions = 3, items = 6 — regions is
        // the smaller view by answer count.
        cache.add_view("regions", pat("site/region"));
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let ans = cache.answer(&q);
        match &ans.route {
            Route::ViaView { view, .. } => assert_eq!(view, "regions"),
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(ans.nodes, cache.answer_direct(&q));
    }

    #[test]
    fn partial_answers_are_sound_subsets() {
        let mut cache = ViewCache::new(doc());
        // The view only covers items with a desc branch — queries over all
        // items cannot be answered equivalently.
        cache.add_view("desc_items", pat("site/region/item[desc]"));
        let q = pat("site/region/item/name");
        assert_eq!(cache.answer(&q).route, Route::Direct);
        let (partial, complete) = cache.answer_partial(&q).expect("contained rewriting exists");
        assert!(!complete);
        let full = cache.answer_direct(&q);
        assert!(partial.iter().all(|n| full.contains(n)));
        assert!(partial.len() < full.len(), "view genuinely covers a subset");
        assert!(!partial.is_empty());
    }

    #[test]
    fn partial_answer_reports_complete_when_equivalent() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let (nodes, complete) = cache.answer_partial(&q).expect("equivalent exists");
        assert!(complete);
        assert_eq!(nodes, cache.answer_direct(&q));
    }

    #[test]
    fn repeated_queries_hit_the_plan_memo_with_zero_conp_work() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");

        let first = cache.answer(&q);
        let after_first = cache.stats();
        assert_eq!(after_first.plan_memo_hits, 0);
        assert_eq!(after_first.plan_memo_misses, 1);

        let second = cache.answer(&q);
        let after_second = cache.stats();
        assert_eq!(after_second.plan_memo_hits, 1, "second occurrence must memo-hit");
        assert_eq!(
            after_second.oracle_canonical_runs, after_first.oracle_canonical_runs,
            "repeat answer must perform zero canonical-model containment calls"
        );
        assert_eq!(after_second.oracle_models_checked, after_first.oracle_models_checked);
        assert_eq!(first.nodes, second.nodes);
        assert_eq!(first.route, second.route);

        // A sibling-reordered isomorph of a seen query also memo-hits.
        let mut cache2 = ViewCache::new(doc());
        cache2.add_view("items", pat("site/region/item"));
        let _ = cache2.answer(&pat("site/region[item]/item[name][desc]/name"));
        let runs = cache2.stats().oracle_canonical_runs;
        let _ = cache2.answer(&pat("site/region[item]/item[desc][name]/name"));
        assert_eq!(cache2.stats().plan_memo_hits, 1);
        assert_eq!(cache2.stats().oracle_canonical_runs, runs);
    }

    #[test]
    fn memo_disabled_replans_every_time() {
        let mut cache = ViewCache::new(doc());
        cache.set_memo_enabled(false);
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let _ = cache.answer(&q);
        let runs_first = cache.stats().oracle_canonical_runs;
        let _ = cache.answer(&q);
        let s = cache.stats();
        assert_eq!(s.plan_memo_hits, 0);
        assert_eq!(s.plan_memo_misses, 2);
        assert!(
            s.oracle_canonical_runs >= runs_first,
            "no-memo cache repeats its containment work"
        );
    }

    #[test]
    fn add_view_invalidates_plan_memo() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("names", pat("site/region/item/name"));
        // No usable view: route memoized as Direct.
        let q = pat("site/region/item");
        assert_eq!(cache.answer(&q).route, Route::Direct);
        // The new view must be picked up despite the memoized Direct route.
        cache.add_view("items", pat("site/region/item"));
        match cache.answer(&q).route {
            Route::ViaView { view, .. } => assert_eq!(view, "items"),
            other => panic!("expected the fresh view to serve, got {other:?}"),
        }
    }

    #[test]
    fn policy_change_invalidates_memoized_routes() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("regions", pat("site/region"));
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        // FirstMatch memoizes the "regions" route.
        match cache.answer(&q).route {
            Route::ViaView { view, .. } => assert_eq!(view, "regions"),
            other => panic!("expected view hit, got {other:?}"),
        }
        // Switching policy must not serve the stale FirstMatch route.
        let mut cache = cache.with_policy(ChoicePolicy::SmallestView);
        match cache.answer(&q).route {
            Route::ViaView { view, .. } => {
                assert_eq!(view, "regions", "regions is the smaller view here");
            }
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(cache.stats().plan_memo_misses, 2, "route re-planned after policy change");
    }

    #[test]
    fn partial_answers_keep_stats_consistent() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("desc_items", pat("site/region/item[desc]"));
        let q = pat("site/region/item/name");
        let _ = cache.answer_partial(&q);
        let s = cache.stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.plan_memo_hits + s.plan_memo_misses, s.queries);
        assert_eq!(s.view_hits, 0, "contained rewriting is not an equivalent view hit");
    }

    #[test]
    fn batch_answers_match_singles_and_amortize() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let qs = vec![
            pat("site/region/item/name"),
            pat("site//keyword"),
            pat("site/region/item/name"),
            pat("site/region/item/name"),
            pat("site//keyword"),
        ];
        let answers = cache.answer_batch(&qs);
        assert_eq!(answers.len(), qs.len());
        for (q, a) in qs.iter().zip(&answers) {
            assert_eq!(a.nodes, cache.answer_direct(q), "batch answer wrong for {q}");
        }
        let s = cache.stats();
        assert_eq!(s.queries, 5);
        assert_eq!(s.plan_memo_misses, 2, "two distinct queries planned once each");
        assert_eq!(s.plan_memo_hits, 3);
        assert_eq!(s.batch_dedup_hits, 3, "all three repeats fanned out without a lookup");
    }

    #[test]
    fn deep_descendant_query_via_descendant_view() {
        let mut cache = ViewCache::new(doc());
        cache.add_view("all_items", pat("site//item"));
        let q = pat("site//item/desc/keyword");
        let ans = cache.answer(&q);
        match &ans.route {
            Route::ViaView { view, rewriting } => {
                assert_eq!(view, "all_items");
                assert_eq!(rewriting, "item/desc/keyword");
            }
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        assert_eq!(ans.nodes.len(), 3);
    }

    #[test]
    fn views_accessor_mirrors_registrations() {
        let mut cache = ViewCache::new(doc());
        assert!(cache.views().is_empty());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("names", pat("site/region/item/name"));
        let names: Vec<&str> = cache.views().iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["items", "names"]);
        // Removal and replacement keep the mirror in sync.
        assert!(cache.remove_view("items"));
        assert!(!cache.remove_view("items"));
        cache.replace_view("names", pat("site//name"));
        let names: Vec<&str> = cache.views().iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["names"]);
    }

    #[test]
    fn intersection_route_through_the_single_threaded_wrapper() {
        // Items carry incomparable optional branches (bids / shipping), so
        // neither view subsumes the other and only their intersection
        // serves the joint query.
        let t = TreeBuilder::root("site", |b| {
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                });
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("shipping");
                });
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                    b.leaf("shipping");
                });
            });
        });
        let mut cache = ViewCache::new(t);
        cache.add_view("bid_names", pat("site/region/item[bids]/name"));
        cache.add_view("ship_names", pat("site/region/item[shipping]/name"));
        let q = pat("site/region/item[bids][shipping]/name");
        let ans = cache.answer(&q);
        assert!(
            matches!(ans.route, Route::Intersect { .. }),
            "expected an intersection route, got {:?}",
            ans.route
        );
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        assert!(cache.intersect_enabled());
        assert_eq!(cache.stats().intersect_hits, 1);
        // The ablation knob flows through the wrapper.
        cache.set_intersect_enabled(false);
        assert_eq!(cache.answer(&q).route, Route::Direct);
    }
}
