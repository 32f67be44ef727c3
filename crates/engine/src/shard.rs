//! The sharded, concurrent core of the view cache.
//!
//! [`ShardedViewCache`] is the shared-state engine behind both the
//! single-threaded [`ViewCache`](crate::ViewCache) wrapper (one shard) and
//! the [`AsyncCacheServer`](crate::AsyncCacheServer) worker pool (many
//! threads over one cache). Every serving method takes **`&self`**:
//!
//! * the **view pool** is a copy-on-write snapshot
//!   (`RwLock<Arc<[Arc<MaterializedView>]>>`): answering threads clone the
//!   `Arc` and never block behind [`ShardedViewCache::add_view`]; pool
//!   entries are shared between snapshots, so growing, shrinking or
//!   refreshing the pool copies pointers, never views;
//! * the **plan memo** is partitioned into `N` lock shards keyed by the
//!   query's structural fingerprint; a repeated query takes a shared read
//!   lock on its shard, bumps an atomic recency tick, and shares its
//!   memoized route (a refcount bump, no allocation) — no write lock on
//!   the hot path;
//! * all counters are atomics, aggregated into a [`CacheStats`] snapshot on
//!   demand;
//! * planning flows through one shared [`PlanningSession`] (the
//!   concurrency-safe containment oracle underneath), so every containment
//!   verdict is pooled across all threads and all shards.
//!
//! ## Multi-view intersection routes
//!
//! When no single view rewrites a query, the planner falls through to the
//! **intersection planner** (`xpv-intersect`): a small subset of views whose
//! node-set intersection supports a verified compensation serves the query
//! jointly ([`Route::Intersect`]). The route evaluates the compensation
//! anchored on the `NodeId` intersection of the participants' virtual
//! results — byte-identical to direct evaluation, since only *equivalent*
//! compensations are routed. [`ShardedViewCache::set_intersect_enabled`] is
//! the ablation knob.
//!
//! ## Document updates
//!
//! The cache is not a read-only snapshot: [`ShardedViewCache::apply_edits`]
//! applies a transactional batch of tree edits (`xpv_maintain::Edit`),
//! bumps the document version, and **incrementally refreshes** every
//! registered view from the edits' affected regions (ancestor spine +
//! touched subtree) instead of re-materializing the world — see the
//! `xpv-maintain` crate for the correctness argument. The document and the
//! view pool live in one copy-on-write `StateSnapshot` behind a single
//! lock, so answering threads always see a *consistent* (document, views)
//! pair, never an edited document with stale views or vice versa.
//!
//! ## Memo lifecycle
//!
//! The memo is **bounded** (per-shard LRU over a configurable total entry
//! cap, [`ShardedViewCache::with_memo_cap`]) and **selectively
//! invalidated**: each entry records the stable [`ViewId`]s its plan
//! depends on (`PlanDep`), and [`ShardedViewCache::add_view`] only drops
//! entries whose plan actually depends on the grown pool — a `Direct` route
//! (which asserted "no registered view rewrites this query"), an
//! `Intersect` route (chosen only after that same failed whole-pool scan),
//! or any route chosen by a whole-pool scan
//! ([`ChoicePolicy::SmallestView`]). Routes found by
//! [`ChoicePolicy::FirstMatch`] stopped at the first usable view; appending
//! a view cannot change them, so they survive registration.
//! [`ShardedViewCache::remove_view`] (now `&self`, like `add_view`, thanks
//! to the stable ids) is the mirror image: `Direct` routes survive
//! (shrinking the pool cannot create a rewriting), and only routes whose
//! participant set contains the removed id — plus whole-pool-scan choices —
//! are dropped, so replacing a participant of an `Intersect` route always
//! invalidates that route. [`ShardedViewCache::apply_edits`] is
//! **participant-aware** in the same way: it drops exactly the routes whose
//! participants' answer sets the batch changed; `Direct` routes and
//! untouched view/intersection routes survive document edits outright.
//!
//! The cap bounds the plan memo only. Planning also feeds the session's
//! containment oracle, whose pattern interner and verdict/homomorphism
//! memos are append-only and grow with every distinct query whatever the
//! cap: on ad-hoc traffic (the benchmark's `cold_plan` shape, every query
//! new, 38 views, all routes `Direct`) one distinct query leaves ≈340 B and
//! one heap block behind: its plan-memo slot (a few words for a `Direct`
//! route) plus, in the oracle, its interned canonical code, hash-table
//! slot, and verdicts. Bounding the oracle is not done yet.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use xpv_core::{contained_rewriting_in, PlanningSession, RewriteAnswer, RewritePlanner};
use xpv_intersect::{
    answer_intersection_virtual_flat, intersect_node_sets, plan_intersection_contained_in,
    plan_intersection_sig, IntersectConfig,
};
use xpv_maintain::{
    apply_region_results, coalesce_plan, finalize_deltas, prepare_batch, Edit, EditError,
    MaintainStats, RegionTask, ViewDelta,
};
use xpv_model::{AnswerArena, AnswerRef, BitSet, FlatTree, NodeId, Tree};
use xpv_obs::{Heartbeat, Histogram, MetricsSnapshot, Phase, Registry, Span};
use xpv_pattern::{Pattern, PatternKey, QuerySignature, ViewSignature};
use xpv_semantics::{evaluate, region_answers_flat, BatchEval};

use crate::view::MaterializedView;

/// Default number of plan-memo lock shards.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// A **stable** view identity: survives pool growth and shrinkage (unlike a
/// pool index), which is what lets plan-memo routes name their participants
/// and lets `remove_view`/`replace_view` take `&self`. Ids are never
/// reused within one cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ViewId(u64);

impl ViewId {
    /// The raw id value (diagnostic display only).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The registered views, in pool order. Entries are shared between
/// snapshots: a writer builds a new slice of pointers and allocates a new
/// entry only for a view whose answer set it changed.
pub type ViewPool = Arc<[Arc<MaterializedView>]>;

/// One **consistent** document + view-pool state. Readers clone the three
/// `Arc`s under a brief read lock and then work lock-free; writers swap in
/// a new snapshot (copy-on-write), so an answering thread can never observe
/// a document from one version paired with views from another — the
/// torn-read hazard `apply_edits` would otherwise introduce.
#[derive(Clone, Debug)]
struct StateSnapshot {
    doc: Arc<Tree>,
    views: ViewPool,
    /// Stable id of each pool entry, parallel to `views`.
    ids: Arc<Vec<ViewId>>,
    /// Precomputed [`ViewSignature`] of each pool entry, parallel to
    /// `views` — the word-sized necessary-condition facts the plan-miss
    /// fast path checks before paying a containment decision. Signatures
    /// are derived from view *definitions* only, so document edits never
    /// touch them; `add_view`/`remove_view` rebuild the vector alongside
    /// the pool.
    sigs: Arc<Vec<ViewSignature>>,
    /// The frozen struct-of-arrays form of `doc` (see
    /// [`xpv_model::FlatTree`]): built once per document swap, *before* the
    /// snapshot is published, so the flat matcher always runs against the
    /// exact document of its snapshot — freezing is what makes the flat
    /// path torn-read-free under concurrent `apply_edits`.
    flat: Arc<FlatTree>,
}

impl StateSnapshot {
    /// Resolves a stable id to its current pool index, trying the memoized
    /// `hint` first (O(1) while the pool is unchanged).
    fn resolve(&self, id: ViewId, hint: usize) -> Option<usize> {
        if self.ids.get(hint) == Some(&id) {
            return Some(hint);
        }
        self.ids.iter().position(|&x| x == id)
    }

    /// The current pool indices of an intersection route's participants,
    /// `None` when any of them is gone.
    fn resolve_all(&self, plan: &IntersectPlan) -> Option<Vec<usize>> {
        plan.ids.iter().zip(&plan.hints).map(|(&id, &hint)| self.resolve(id, hint)).collect()
    }
}

/// How the cache picks among several usable views.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ChoicePolicy {
    /// The first registered view that admits a rewriting (lowest planning
    /// cost: planning stops at the first hit).
    #[default]
    FirstMatch,
    /// Among all views admitting a rewriting, the one with the smallest
    /// materialized result (lowest evaluation cost; plans against every
    /// view).
    SmallestView,
}

/// How a query was answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Answered from the named view through the given rewriting.
    ViaView {
        /// Name of the view used.
        view: String,
        /// The rewriting `R` that was applied to the view result.
        rewriting: String,
    },
    /// Answered from the node-set **intersection** of several views through
    /// a compensation pattern (no single view sufficed).
    Intersect {
        /// Names of the participating views, in pool order.
        views: Vec<String>,
        /// The compensation applied to the intersection.
        compensation: String,
    },
    /// Answered by evaluating the query directly on the document.
    Direct,
}

/// What one [`ShardedViewCache::apply_edits`] batch did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Edits applied by this batch.
    pub edits_applied: usize,
    /// The document version after the batch.
    pub doc_version: u64,
    /// Views the batch touched at all: their answer set changed, or an
    /// answer's subtree content changed in place (a non-empty
    /// `ViewDelta`).
    pub views_refreshed: usize,
    /// Views whose answer **sets** changed (the routes depending on these
    /// were invalidated).
    pub views_changed: usize,
    /// Plan-memo routes dropped by the participant-aware sweep.
    pub routes_dropped: u64,
    /// Counters from the maintainer (regions scanned, label skips, …).
    pub maintain: MaintainStats,
}

/// A cache answer: the output nodes plus provenance.
#[derive(Clone, Debug)]
pub struct CacheAnswer {
    /// Output nodes in the cached document.
    pub nodes: Vec<NodeId>,
    /// How the answer was produced.
    pub route: Route,
    /// Time spent deciding rewritability (planning only; zero for answers
    /// fanned out by batch deduplication).
    pub planning: Duration,
    /// Time spent evaluating (view-based or direct; zero for fanned-out
    /// duplicates).
    pub evaluation: Duration,
}

/// A cache answer whose nodes live in a caller-supplied [`AnswerArena`]
/// — the zero-allocation sibling of [`CacheAnswer`] returned by
/// [`ShardedViewCache::answer_batch_refs`]. The route is shared behind an
/// `Arc`, so batch fan-out of a repeated query copies a handle and bumps
/// a refcount instead of cloning node vectors and route strings.
#[derive(Clone, Debug)]
pub struct CacheAnswerRef {
    /// Handle to the output nodes in the arena the batch call filled.
    pub nodes: AnswerRef,
    /// How the answer was produced (shared across fan-out duplicates).
    pub route: Arc<Route>,
    /// Time spent deciding rewritability (zero for fanned-out duplicates).
    pub planning: Duration,
    /// Time spent evaluating (zero for fanned-out duplicates).
    pub evaluation: Duration,
}

/// Aggregate statistics over the cache's lifetime.
///
/// `queries == plan_memo_hits + plan_memo_misses` holds across
/// [`ShardedViewCache::answer`], [`ShardedViewCache::answer_batch`] and
/// [`ShardedViewCache::answer_partial`]; duplicates deduplicated inside one
/// batch count as `plan_memo_hits` (their route was served without a
/// planner call) and additionally as `batch_dedup_hits`. Fully-answered
/// queries split as `view_hits + intersect_hits + direct`; partial answers
/// served through a *contained* (non-equivalent) rewriting count toward
/// `queries` but toward none of the three.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Queries answered (full and partial).
    pub queries: u64,
    /// Queries answered from a view through an equivalent rewriting.
    pub view_hits: u64,
    /// Queries answered from a multi-view intersection through an
    /// equivalent compensation.
    pub intersect_hits: u64,
    /// Queries answered by direct evaluation.
    pub direct: u64,
    /// Plans that produced an intersection route (each memoized route
    /// counts once; `intersect_hits / intersect_routes` is the fan-out).
    pub intersect_routes: u64,
    /// View subsets the intersection planner examined across all plans.
    pub intersect_candidates_tried: u64,
    /// Total participants across planned intersection routes
    /// (`/ intersect_routes` = average arity).
    pub intersect_participants: u64,
    /// Candidate views the signature filter rejected before any oracle
    /// call (plan misses only; see `xpv_pattern::signature`). Together
    /// with [`CacheStats::sig_passes`] this measures the plan-miss fast
    /// path: `sig_rejects / (sig_rejects + sig_passes)` is the fraction
    /// of pool candidates dismissed with word ops.
    pub sig_rejects: u64,
    /// Candidate views that survived the signature filter and went to the
    /// planner's containment machinery.
    pub sig_passes: u64,
    /// Queries whose route came straight from the plan memo (no planner
    /// call, zero containment tests). Includes batch-deduplicated repeats.
    pub plan_memo_hits: u64,
    /// Queries that had to be planned.
    pub plan_memo_misses: u64,
    /// Repeats answered by fan-out inside a single `answer_batch` call
    /// (also counted in `plan_memo_hits`).
    pub batch_dedup_hits: u64,
    /// Plan-memo entries evicted by the LRU bound.
    pub plan_memo_evictions: u64,
    /// Plan-memo entries dropped by selective `add_view` / policy
    /// invalidation.
    pub plan_memo_invalidations: u64,
    /// Containment verdicts the session oracle served from its memo.
    pub oracle_memo_hits: u64,
    /// Canonical-model loops (coNP containment work) run so far. Flat
    /// between two answers ⇔ the second answer did zero canonical-model
    /// containment work.
    pub oracle_canonical_runs: u64,
    /// Canonical models enumerated inside those loops.
    pub oracle_models_checked: u64,
    /// Document edits applied through `apply_edits` over the cache's
    /// lifetime.
    pub updates_applied: u64,
    /// Views whose answers were refreshed **incrementally** (affected-region
    /// maintenance, not full re-materialization) across all updates.
    pub views_refreshed_incrementally: u64,
    /// Snapshot reads that found the state `RwLock` held (by a writer's
    /// pointer swap) and had to block. The ROADMAP names this lock as a
    /// suspected bottleneck under write-heavy mixes; a rising stall count
    /// under load is the signal it has become real.
    pub snapshot_read_stalls: u64,
    /// Lifetime maintenance counters summed over every `apply_edits` batch
    /// (per-phase timings, coalescing sizes, fan-out widths — see
    /// [`MaintainStats`]).
    pub maintain: MaintainStats,
}

impl CacheStats {
    /// The canonical counter enumeration for the cache's **own** scalar
    /// fields: one `(name, value)` pair per field, in declaration order.
    /// The observability registry exposes these under `xpv_cache_*`, and
    /// `Display` renders the same list — one naming authority, so the
    /// rendered line and the exposition can never drift (see the
    /// `xpv-obs` crate docs).
    ///
    /// The three `oracle_*` fields are mirrors of the session oracle's
    /// counters kept for API compatibility; the registry exposition emits
    /// those numbers only under `xpv_oracle_*` (no counter reaches the
    /// snapshot under two names), which is why
    /// [`ShardedViewCache::metrics_snapshot`] skips the `oracle_` prefix
    /// here. The nested [`CacheStats::maintain`] block enumerates through
    /// its own [`MaintainStats::visit`].
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("queries", self.queries);
        f("view_hits", self.view_hits);
        f("intersect_hits", self.intersect_hits);
        f("direct", self.direct);
        f("intersect_routes", self.intersect_routes);
        f("intersect_candidates_tried", self.intersect_candidates_tried);
        f("intersect_participants", self.intersect_participants);
        f("sig_rejects", self.sig_rejects);
        f("sig_passes", self.sig_passes);
        f("plan_memo_hits", self.plan_memo_hits);
        f("plan_memo_misses", self.plan_memo_misses);
        f("batch_dedup_hits", self.batch_dedup_hits);
        f("plan_memo_evictions", self.plan_memo_evictions);
        f("plan_memo_invalidations", self.plan_memo_invalidations);
        f("oracle_memo_hits", self.oracle_memo_hits);
        f("oracle_canonical_runs", self.oracle_canonical_runs);
        f("oracle_models_checked", self.oracle_models_checked);
        f("updates_applied", self.updates_applied);
        f("views_refreshed_incrementally", self.views_refreshed_incrementally);
        f("snapshot_read_stalls", self.snapshot_read_stalls);
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))?;
        write!(f, " maintain: {}", self.maintain)
    }
}

/// A memoized routing decision for one query key. Routes reference views by
/// **stable id** (plus a pool-index hint for O(1) resolution), so they stay
/// meaningful while the pool grows, shrinks, or is refreshed in place; a
/// route whose id no longer resolves degrades soundly to direct evaluation.
///
/// Payloads sit behind `Arc`s: a memo hit clones a pointer, never a
/// pattern, and a `Direct` entry costs one word.
#[derive(Clone, Debug)]
enum PlannedRoute {
    /// Serve from one view through a rewriting.
    ViaView(Arc<ViewPlan>),
    /// Serve from the node-set intersection of several views through a
    /// compensation.
    Intersect(Arc<IntersectPlan>),
    /// No registered view (or view intersection) admits an equivalent
    /// rewriting.
    Direct,
}

/// The payload of [`PlannedRoute::ViaView`].
#[derive(Debug)]
struct ViewPlan {
    /// Stable id of the view, and its pool index when planned.
    id: ViewId,
    hint: usize,
    rewriting: Pattern,
    /// The provenance answers report, rendered once at plan time: a view's
    /// name never changes under its id (`replace_view` issues a new id).
    route: Arc<Route>,
}

/// The payload of [`PlannedRoute::Intersect`].
#[derive(Debug)]
struct IntersectPlan {
    /// Stable ids of the participants in pool order (shared with the
    /// entry's [`PlanDep::Intersect`]), and their pool indices when planned.
    ids: Arc<[ViewId]>,
    hints: Vec<usize>,
    compensation: Pattern,
    /// Rendered once at plan time; removals never reorder the surviving
    /// participants, so their names keep this order.
    route: Arc<Route>,
}

/// What a memoized plan depends on — the invalidation granularity of
/// [`ShardedViewCache::add_view`], [`ShardedViewCache::remove_view`], and
/// [`ShardedViewCache::apply_edits`]. Participants are stable
/// [`ViewId`]s, so unrelated pool changes never touch a route.
#[derive(Clone, Debug, PartialEq, Eq)]
enum PlanDep {
    /// A [`ChoicePolicy::FirstMatch`] commitment to one view: views before
    /// it failed for pattern-level (data-independent) reasons and views
    /// appended later cannot become "first", so only removing the chosen
    /// view itself — or changing its *answers* under document edits —
    /// invalidates the route.
    Chosen(ViewId),
    /// A route only a *whole-pool scan* justifies (a
    /// [`ChoicePolicy::SmallestView`] choice ranks views by answer count):
    /// any append, removal, or answer-set change invalidates it.
    WholePool,
    /// The plan asserted "no view rewrites this query" (a `Direct` route):
    /// a new view can break the assertion; removals and document edits
    /// never can (rewritability is decided on patterns, not data).
    NoUsableView,
    /// The plan intersects exactly these views, *after* a failed whole-pool
    /// single-view scan: any append invalidates it (a single-view route may
    /// become available), as does removing — or editing the answers of —
    /// any participant.
    Intersect(Arc<[ViewId]>),
}

/// One plan-memo entry.
#[derive(Debug)]
struct MemoEntry {
    route: PlannedRoute,
    dep: PlanDep,
    /// Recency tick for LRU eviction; atomic so read-locked memo hits can
    /// refresh it.
    last_used: AtomicU64,
}

/// Per-shard atomic counters (aggregated into [`CacheStats`]).
#[derive(Debug, Default)]
struct ShardStats {
    queries: AtomicU64,
    view_hits: AtomicU64,
    intersect_hits: AtomicU64,
    direct: AtomicU64,
    plan_memo_hits: AtomicU64,
    plan_memo_misses: AtomicU64,
    batch_dedup_hits: AtomicU64,
    plan_memo_evictions: AtomicU64,
    plan_memo_invalidations: AtomicU64,
    intersect_routes: AtomicU64,
    intersect_candidates_tried: AtomicU64,
    intersect_participants: AtomicU64,
    sig_rejects: AtomicU64,
    sig_passes: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheShard {
    memo: RwLock<HashMap<PatternKey, MemoEntry>>,
    stats: ShardStats,
    /// Plan-time win counts per view (how often a `FirstMatch` plan on
    /// this shard chose the view): the hit-rate-ordered index the miss
    /// path sorts filter survivors by, so the common winner pays the
    /// first containment decision. Keyed by stable id — pool churn never
    /// misattributes a win.
    wins: std::sync::Mutex<HashMap<ViewId, u64>>,
}

#[inline]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Scans every merged region task against the post-batch freeze
/// (masked word-parallel matching, one `(answers, live-subtree mask)` pair
/// per task) across at most `width` scoped threads. Static striping —
/// worker `w` owns tasks `w, w+W, w+2W, …` — and results indexed by task,
/// so the output is in task order whatever the schedule. Returns the
/// width actually used: `1` (serial, no thread spawned) when `width` or
/// the task count is below two.
fn scan_regions(
    tasks: &[RegionTask],
    defs: &[&Pattern],
    flat: &FlatTree,
    width: usize,
) -> (Vec<(Vec<NodeId>, BitSet)>, usize) {
    let scan = |task: &RegionTask| region_answers_flat(defs[task.view], flat, task.root);
    let width = width.min(tasks.len());
    if width < 2 {
        return (tasks.iter().map(scan).collect(), 1);
    }
    let mut slots: Vec<Option<(Vec<NodeId>, BitSet)>> = (0..tasks.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..width)
            .map(|w| {
                s.spawn(move || {
                    (w..tasks.len())
                        .step_by(width)
                        .map(|i| (i, scan(&tasks[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("region worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    (slots.into_iter().map(|o| o.expect("every task scanned")).collect(), width)
}

/// The coalesced maintenance pipeline: apply the whole batch, freeze the
/// post-batch flat snapshot **once** (shared between the region scans and
/// the snapshot swap), diff spines against the pre-batch tree `t0`, fan
/// the disjoint merged regions across at most `width` scoped threads
/// ([`scan_regions`]), and patch answers deterministically — the outcome
/// is schedule- and width-invariant.
fn maintain_coalesced(
    t0: &Tree,
    doc: &mut Tree,
    defs: &[&Pattern],
    answers: &mut [Vec<NodeId>],
    edits: &[Edit],
    width: usize,
) -> Result<(Vec<ViewDelta>, MaintainStats, Arc<FlatTree>), EditError> {
    let saved: Vec<Vec<NodeId>> = answers.to_vec();

    let t = Instant::now();
    let prep = prepare_batch(doc, edits)?;
    let apply_us = t.elapsed().as_micros() as u64;

    let t = Instant::now();
    let new_flat = Arc::new(FlatTree::freeze(doc));
    let freeze_us = t.elapsed().as_micros() as u64;

    let t = Instant::now();
    let mut plan = coalesce_plan(t0, doc, defs, &prep);
    let tasks = plan.region_tasks();
    plan.stats.coalesce_us = t.elapsed().as_micros() as u64;
    plan.stats.apply_us = apply_us;
    plan.stats.freeze_us = freeze_us;
    plan.stats.freeze_reused = 1;

    let t = Instant::now();
    let (results, used) = scan_regions(&tasks, defs, &new_flat, width);
    if used > 1 {
        plan.stats.parallel_tasks = tasks.len() as u64;
        plan.stats.parallel_width = used as u64;
    }
    plan.stats.scan_us = t.elapsed().as_micros() as u64;

    let t = Instant::now();
    let mut stats = plan.stats;
    apply_region_results(doc, defs, answers, &plan, &tasks, &results, &mut stats);
    let deltas = finalize_deltas(doc, &saved, answers, &plan.retag, &mut stats);
    stats.patch_us = t.elapsed().as_micros() as u64;
    Ok((deltas, stats, new_flat))
}

/// The cache's observability handles: its private metric [`Registry`]
/// plus the pre-resolved latency histograms the hot paths record into
/// (resolved once at construction — answering never touches the registry
/// table). The serving front-end shares this registry for its own phase
/// histograms, so one snapshot covers the whole request path.
#[derive(Debug)]
pub(crate) struct CacheObs {
    pub registry: Arc<Registry>,
    /// Per-query routing time (plan-memo lookup or planner call), µs.
    pub plan_us: Arc<Histogram>,
    /// Planner time on plan-memo **misses** only, µs — the latency the
    /// signature fast path attacks (memo hits never record here, so the
    /// distribution is not diluted by cheap lookups).
    pub plan_miss_us: Arc<Histogram>,
    /// Per-query evaluation time, µs.
    pub eval_us: Arc<Histogram>,
    /// Whole `answer_batch` wall time, µs.
    pub batch_us: Arc<Histogram>,
    /// Admission wait (credit window / executor queue) per served batch,
    /// µs — recorded by the serving front-end.
    pub admission_us: Arc<Histogram>,
    /// Response-frame encoding time per served batch, µs (wire only).
    pub encode_us: Arc<Histogram>,
    /// Response-frame socket write time, µs (wire only).
    pub flush_us: Arc<Histogram>,
    /// Per-`apply_edits`-batch maintenance phase times, µs (the
    /// distribution behind the lifetime sums in
    /// [`MaintainStats`]'s `*_us` counters).
    pub maintain_apply_us: Arc<Histogram>,
    pub maintain_freeze_us: Arc<Histogram>,
    pub maintain_coalesce_us: Arc<Histogram>,
    pub maintain_scan_us: Arc<Histogram>,
    pub maintain_patch_us: Arc<Histogram>,
    /// Liveness heartbeat around each `apply_edits` batch: in-flight
    /// while a batch holds the write gate, one beat per completed batch.
    /// The watchdog's `maintain` stall rule reads these gauges.
    pub hb_maintain: Heartbeat,
}

impl CacheObs {
    fn new() -> CacheObs {
        let registry = Arc::new(Registry::new());
        CacheObs {
            plan_us: registry.histogram("xpv_phase_plan_us"),
            plan_miss_us: registry.histogram("xpv_phase_plan_miss_us"),
            eval_us: registry.histogram("xpv_phase_eval_us"),
            batch_us: registry.histogram("xpv_phase_batch_us"),
            admission_us: registry.histogram("xpv_phase_admission_us"),
            encode_us: registry.histogram("xpv_phase_encode_us"),
            flush_us: registry.histogram("xpv_phase_flush_us"),
            maintain_apply_us: registry.histogram("xpv_phase_maintain_apply_us"),
            maintain_freeze_us: registry.histogram("xpv_phase_maintain_freeze_us"),
            maintain_coalesce_us: registry.histogram("xpv_phase_maintain_coalesce_us"),
            maintain_scan_us: registry.histogram("xpv_phase_maintain_scan_us"),
            maintain_patch_us: registry.histogram("xpv_phase_maintain_patch_us"),
            hb_maintain: Heartbeat::new(&registry, "maintain"),
            registry,
        }
    }
}

/// A set of materialized views over a single document with **concurrent**
/// rewriting-based query answering: the serving methods take `&self`, so
/// any number of worker threads can answer through one shared cache (see
/// the module docs for the sharding and invalidation design).
///
/// Results are deterministic: a multi-threaded cache returns exactly the
/// nodes and routes the single-threaded [`ViewCache`](crate::ViewCache)
/// returns for the same document, views, and queries.
#[derive(Debug)]
pub struct ShardedViewCache {
    /// The consistent document + view-pool state (see [`StateSnapshot`]).
    state: RwLock<StateSnapshot>,
    /// Serializes state **writers** (`add_view`, `remove_view`,
    /// `apply_edits`): the gate holder is the only mutator, so it can
    /// snapshot, do expensive work (materialization, incremental
    /// maintenance) on clones off-lock, and take the state write lock only
    /// for the pointer swap — readers block for the swap, never for the
    /// work.
    write_gate: std::sync::Mutex<()>,
    session: PlanningSession,
    policy: ChoicePolicy,
    memo_enabled: AtomicBool,
    /// Whether multi-view intersection routes are planned (ablation knob).
    intersect_enabled: AtomicBool,
    /// Budget knobs handed to the intersection planner.
    intersect_cfg: IntersectConfig,
    shards: Box<[CacheShard]>,
    /// Total memo entry bound (`usize::MAX` = unbounded).
    memo_cap: usize,
    /// Live total of memo entries across shards; every map mutation updates
    /// it under the owning shard's write lock, so the [`memo_cap`] bound is
    /// enforced globally, not per shard.
    memo_entries: AtomicU64,
    /// Bumped by every pool or document mutation (after the state swap,
    /// before the invalidation sweep); guards in-flight plans from
    /// memoizing a route computed against the previous state after the
    /// sweep already ran.
    views_version: AtomicU64,
    /// Global recency clock for LRU eviction.
    tick: AtomicU64,
    /// Allocator for stable [`ViewId`]s (never reused).
    next_view_id: AtomicU64,
    /// Bumped by every successful [`ShardedViewCache::apply_edits`] batch.
    doc_version: AtomicU64,
    /// Lifetime maintenance counters (summed per batch under the write
    /// gate; surfaced through [`CacheStats::maintain`]).
    maintain_totals: std::sync::Mutex<MaintainStats>,
    /// Lifetime total of edits applied.
    updates_applied: AtomicU64,
    /// Lifetime total of views refreshed via the incremental path.
    views_refreshed_incrementally: AtomicU64,
    /// Snapshot reads that could not take the state lock immediately (a
    /// writer was swapping pointers) — see
    /// [`CacheStats::snapshot_read_stalls`].
    snapshot_read_stalls: AtomicU64,
    /// Test-only fault injection: microseconds each `apply_edits` batch
    /// sleeps while holding the write gate (0 = disabled). Lets the
    /// watchdog integration tests manufacture a wedged maintenance pass.
    maintain_pause_us: AtomicU64,
    /// The provenance of every direct answer, shared rather than allocated
    /// per answer.
    direct_route: Arc<Route>,
    /// Latency histograms + the metric registry (see [`CacheObs`]).
    pub(crate) obs: CacheObs,
}

impl ShardedViewCache {
    /// Creates an empty cache over `doc` with the default planner, the
    /// default shard count, and an unbounded memo.
    pub fn new(doc: Tree) -> ShardedViewCache {
        Self::with_planner(doc, RewritePlanner::default())
    }

    /// Creates an empty cache with a custom planner configuration.
    pub fn with_planner(doc: Tree, planner: RewritePlanner) -> ShardedViewCache {
        let flat = Arc::new(FlatTree::freeze(&doc));
        ShardedViewCache {
            state: RwLock::new(StateSnapshot {
                doc: Arc::new(doc),
                views: Arc::new([]),
                ids: Arc::new(Vec::new()),
                sigs: Arc::new(Vec::new()),
                flat,
            }),
            write_gate: std::sync::Mutex::new(()),
            session: PlanningSession::new(planner),
            policy: ChoicePolicy::default(),
            memo_enabled: AtomicBool::new(true),
            intersect_enabled: AtomicBool::new(true),
            intersect_cfg: IntersectConfig::default(),
            shards: (0..DEFAULT_CACHE_SHARDS).map(|_| CacheShard::default()).collect(),
            memo_cap: usize::MAX,
            memo_entries: AtomicU64::new(0),
            views_version: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            next_view_id: AtomicU64::new(0),
            doc_version: AtomicU64::new(0),
            maintain_totals: std::sync::Mutex::new(MaintainStats::default()),
            updates_applied: AtomicU64::new(0),
            views_refreshed_incrementally: AtomicU64::new(0),
            snapshot_read_stalls: AtomicU64::new(0),
            maintain_pause_us: AtomicU64::new(0),
            direct_route: Arc::new(Route::Direct),
            obs: CacheObs::new(),
        }
    }

    /// Sets the plan-memo shard count (builder style, rounded up to a power
    /// of two, minimum 1). Call before sharing the cache across threads.
    pub fn with_shards(mut self, shards: usize) -> ShardedViewCache {
        let n = shards.max(1).next_power_of_two();
        self.shards = (0..n).map(|_| CacheShard::default()).collect();
        self
    }

    /// Bounds the plan memo to at most `cap` entries in total (builder
    /// style; `0` means unbounded). The bound is **global** across shards
    /// — a live atomic entry count gates every insert — with
    /// least-recently-used eviction inside the inserting shard. A full memo
    /// whose inserting shard happens to be empty skips memoizing that route
    /// rather than exceed the bound.
    ///
    /// The cap does not bound the cache's memory: the session oracle's
    /// interner and verdict memos still grow with every distinct query
    /// (≈340 B per query on ad-hoc traffic; see the module docs' "Memo
    /// lifecycle").
    pub fn with_memo_cap(mut self, cap: usize) -> ShardedViewCache {
        self.memo_cap = if cap == 0 { usize::MAX } else { cap };
        self
    }

    /// Sets the view-selection policy. Invalidates the whole plan memo:
    /// routes chosen under the previous policy are stale.
    pub fn set_policy(&mut self, policy: ChoicePolicy) {
        self.policy = policy;
        for shard in self.shards.iter() {
            let mut memo = shard.memo.write().expect("plan memo poisoned");
            self.memo_entries.fetch_sub(memo.len() as u64, Ordering::Relaxed);
            memo.clear();
        }
    }

    /// The view-selection policy in effect.
    pub fn policy(&self) -> ChoicePolicy {
        self.policy
    }

    /// Number of plan-memo shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total plan-memo entries currently held across all shards.
    pub fn plan_memo_len(&self) -> usize {
        self.shards.iter().map(|s| s.memo.read().expect("plan memo poisoned").len()).sum()
    }

    /// The route the plan memo holds for `query` (or any isomorph), without
    /// planning, counting a query, refreshing its recency, or interning
    /// anything: `None` when the query has not been planned, or its entry
    /// was evicted or invalidated. The returned route is the one memo hits
    /// share, so the lookup allocates nothing.
    pub fn memoized_route(&self, query: &Pattern) -> Option<Arc<Route>> {
        let (key, fp) = self.session.oracle().lookup_fingerprinted(query)?;
        let memo = self.shard_for(fp).memo.read().expect("plan memo poisoned");
        Some(match &memo.get(&key)?.route {
            PlannedRoute::ViaView(plan) => Arc::clone(&plan.route),
            PlannedRoute::Intersect(plan) => Arc::clone(&plan.route),
            PlannedRoute::Direct => Arc::clone(&self.direct_route),
        })
    }

    /// The total memo entry bound (`usize::MAX` when unbounded).
    pub fn memo_cap(&self) -> usize {
        self.memo_cap
    }

    /// Enables or disables **all** memoization — the plan memo and the
    /// session oracle's verdict/homomorphism memos (the ablation knob that
    /// measures what sharing buys); disabling clears every memo so a
    /// re-enable starts cold.
    pub fn set_memo_enabled(&self, enabled: bool) {
        self.memo_enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            for shard in self.shards.iter() {
                let mut memo = shard.memo.write().expect("plan memo poisoned");
                self.memo_entries.fetch_sub(memo.len() as u64, Ordering::Relaxed);
                memo.clear();
            }
        }
        self.session.oracle().set_memo_enabled(enabled);
    }

    /// Whether memoization is active.
    pub fn memo_enabled(&self) -> bool {
        self.memo_enabled.load(Ordering::Relaxed)
    }

    /// Sets the intersection-planner budget (builder style): largest subset
    /// size and subsets examined per query.
    pub fn with_intersect_config(mut self, cfg: IntersectConfig) -> ShardedViewCache {
        self.intersect_cfg = cfg;
        self
    }

    /// Enables or disables **multi-view intersection routes**. Memoized
    /// routes that the flip invalidates are dropped: disabling removes
    /// `Intersect` routes, enabling removes `Direct` routes (which asserted
    /// "nothing serves this query" while intersections were off).
    pub fn set_intersect_enabled(&self, enabled: bool) {
        let was = self.intersect_enabled.swap(enabled, Ordering::Relaxed);
        if was == enabled {
            return;
        }
        self.views_version.fetch_add(1, Ordering::Release);
        // Single-view routes (Chosen and WholePool) are unaffected either
        // way: the single-view scan runs *before* intersection planning, so
        // the toggle can never change a route a single view justified.
        self.sweep_memo(|dep| match dep {
            PlanDep::Intersect(_) => !enabled,
            PlanDep::NoUsableView => enabled,
            PlanDep::Chosen(_) | PlanDep::WholePool => false,
        });
    }

    /// Whether intersection routes are planned.
    pub fn intersect_enabled(&self) -> bool {
        self.intersect_enabled.load(Ordering::Relaxed)
    }

    /// Drops every memo entry whose [`PlanDep`] matches `stale`, updating
    /// the live entry count and the invalidation counters. Returns the
    /// number of routes dropped.
    fn sweep_memo(&self, stale: impl Fn(&PlanDep) -> bool) -> u64 {
        let mut total = 0u64;
        for shard in self.shards.iter() {
            let mut memo = shard.memo.write().expect("plan memo poisoned");
            let before = memo.len();
            memo.retain(|_, entry| !stale(&entry.dep));
            let dropped = (before - memo.len()) as u64;
            self.memo_entries.fetch_sub(dropped, Ordering::Relaxed);
            shard.stats.plan_memo_invalidations.fetch_add(dropped, Ordering::Relaxed);
            total += dropped;
        }
        total
    }

    /// Takes the state read lock, counting a
    /// [`CacheStats::snapshot_read_stalls`] when the uncontended fast path
    /// fails (a writer holds the lock for its pointer swap).
    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, StateSnapshot> {
        match self.state.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.snapshot_read_stalls.fetch_add(1, Ordering::Relaxed);
                self.state.read().expect("cache state poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cache state poisoned"),
        }
    }

    /// A snapshot of the cached document (copy-on-write: cheap `Arc` clone;
    /// [`ShardedViewCache::apply_edits`] swaps in edited documents, so
    /// holders see a stable state rather than a live reference).
    pub fn document(&self) -> Arc<Tree> {
        Arc::clone(&self.read_state().doc)
    }

    /// The number of successful [`ShardedViewCache::apply_edits`] batches
    /// applied so far.
    pub fn doc_version(&self) -> u64 {
        self.doc_version.load(Ordering::Relaxed)
    }

    /// The shared planning session (oracle stats, interner size).
    pub fn session(&self) -> &PlanningSession {
        &self.session
    }

    /// One consistent document + views snapshot (cheap `Arc` clones, never
    /// blocks answering threads for long).
    fn snapshot(&self) -> StateSnapshot {
        self.read_state().clone()
    }

    /// A snapshot of the registered views (copy-on-write: cheap `Arc`
    /// clone, never blocks answering threads).
    pub fn views_snapshot(&self) -> ViewPool {
        Arc::clone(&self.read_state().views)
    }

    /// Materializes `def` over the document and registers it under `name`.
    /// Returns the number of answers materialized.
    ///
    /// The view's node set is computed by the flat matcher on the
    /// snapshot's frozen document; the existing pool entries are shared
    /// into the grown pool, not copied.
    ///
    /// Selectively invalidates the plan memo: only entries whose plan
    /// depends on the grown pool — `Direct` routes and whole-pool-scan
    /// routes — are dropped; `FirstMatch` view routes survive (see the
    /// module docs). The oracle's containment verdicts are always kept
    /// (they depend only on the pattern pair).
    ///
    /// # Panics
    ///
    /// Panics if a view with the same name is already registered.
    pub fn add_view(&self, name: &str, def: Pattern) -> usize {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        // Materialize against a snapshot off-lock (the gate keeps the state
        // from moving beneath us); readers only wait for the swap.
        let snap = self.snapshot();
        assert!(snap.views.iter().all(|v| v.name() != name), "duplicate view name {name:?}");
        let sig = ViewSignature::of(&def);
        let view = Arc::new(MaterializedView::materialize(name, def, &snap.flat));
        let n = view.len();
        let grown: ViewPool = snap.views.iter().cloned().chain([view]).collect();
        let mut ids = Vec::with_capacity(snap.ids.len() + 1);
        ids.extend(snap.ids.iter().copied());
        ids.push(ViewId(self.next_view_id.fetch_add(1, Ordering::Relaxed)));
        let mut sigs = Vec::with_capacity(snap.sigs.len() + 1);
        sigs.extend(snap.sigs.iter().copied());
        sigs.push(sig);
        {
            let mut state = self.state.write().expect("cache state poisoned");
            state.views = grown;
            state.ids = Arc::new(ids);
            state.sigs = Arc::new(sigs);
        }
        // Version bump strictly before the sweep: an in-flight plan either
        // sees the bump (and skips memoizing) or inserts before the sweep
        // (and is caught by it) — stale routes never outlive this call.
        self.views_version.fetch_add(1, Ordering::Release);
        self.sweep_memo(|dep| {
            matches!(dep, PlanDep::WholePool | PlanDep::NoUsableView | PlanDep::Intersect(_))
        });
        n
    }

    /// Deregisters the view named `name`, returning `false` when no such
    /// view exists. Takes **`&self`**, like [`ShardedViewCache::add_view`]:
    /// memoized routes reference views by stable [`ViewId`], so removal
    /// shifts no meaning — in-flight answers finish on their snapshot, and
    /// a route whose id stops resolving degrades to direct evaluation
    /// (sound, since routed answers equal direct answers by construction).
    ///
    /// Selectively invalidates the plan memo: `Direct` routes survive
    /// (shrinking the pool cannot create a rewriting), as does every route
    /// whose participants don't include the removed view; only routes that
    /// committed to the removed view — plus whole-pool-scan choices, which
    /// ranked it against the others — are dropped and re-plan on their next
    /// arrival.
    pub fn remove_view(&self, name: &str) -> bool {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let snap = self.snapshot();
        let Some(idx) = snap.views.iter().position(|v| v.name() == name) else {
            return false;
        };
        let mut shrunk = snap.views.to_vec();
        shrunk.remove(idx);
        let mut ids: Vec<ViewId> = snap.ids.iter().copied().collect();
        let removed_id = ids.remove(idx);
        let mut sigs: Vec<ViewSignature> = snap.sigs.iter().copied().collect();
        sigs.remove(idx);
        {
            let mut state = self.state.write().expect("cache state poisoned");
            state.views = shrunk.into();
            state.ids = Arc::new(ids);
            state.sigs = Arc::new(sigs);
        }
        self.views_version.fetch_add(1, Ordering::Release);
        self.sweep_memo(|dep| match dep {
            PlanDep::Chosen(id) => *id == removed_id,
            PlanDep::WholePool => true,
            PlanDep::NoUsableView => false,
            PlanDep::Intersect(parts) => parts.contains(&removed_id),
        });
        true
    }

    /// Replaces the view named `name` with a fresh materialization of
    /// `def` — the cache-maintenance form of "the upstream view definition
    /// changed". Equivalent to [`ShardedViewCache::remove_view`] followed
    /// by [`ShardedViewCache::add_view`] (the replacement lands at the end
    /// of the pool under a **fresh** id), so every route depending on the
    /// old view is invalidated. Returns the number of answers materialized.
    /// For document-driven refreshes that keep definitions intact, use
    /// [`ShardedViewCache::apply_edits`] instead — it patches answers
    /// incrementally and preserves untouched routes.
    ///
    /// # Panics
    ///
    /// Panics if no view named `name` is registered.
    pub fn replace_view(&self, name: &str, def: Pattern) -> usize {
        assert!(self.remove_view(name), "replace_view: no view named {name:?}");
        self.add_view(name, def)
    }

    /// Applies a batch of document edits **transactionally** and keeps every
    /// registered view's node set exact: each view is re-evaluated only
    /// against the batch's affected regions (the ancestor spine plus the
    /// touched subtree — see `xpv_maintain`) and its answer set is patched
    /// by bitset diff. Only views whose answer set changed get a new pool
    /// entry; the rest are shared into the new snapshot.
    ///
    /// Readers are never blocked behind the refresh: the whole maintenance
    /// run — edit application, region re-evaluation, view patching — works
    /// on clones **outside** the state lock (writers serialize on a
    /// dedicated gate), and the state lock is taken only to swap the new
    /// `(document, views)` pair in whole. Queries arriving mid-update keep
    /// answering from the previous copy-on-write snapshot, and no query
    /// ever observes a document from one version paired with views from
    /// another.
    ///
    /// Plan-memo invalidation is **participant-aware**: only routes whose
    /// participating views' answer sets actually changed are dropped
    /// (plus whole-pool-scan routes, whose size ranking any change can
    /// reorder). `Direct` routes and untouched `ViaView`/`Intersect` routes
    /// survive and keep serving with zero re-planning — rewritability is
    /// decided on patterns, not data, so surviving routes stay exact over
    /// the refreshed views.
    ///
    /// On error (an edit targeting a dead node, or deleting the root) the
    /// shared document and every view are left exactly as they were.
    pub fn apply_edits(&self, edits: &[Edit]) -> Result<UpdateReport, EditError> {
        let mut span = Span::begin("cache.update");
        // Serialize writers on the gate; the gate holder is the only
        // mutator, so the snapshot below cannot go stale beneath us while
        // we maintain clones of it off-lock.
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        // In flight from here; the guard beats when the batch completes
        // (any exit path, including errors). A batch wedged past the
        // watchdog's stall window fires the `maintain` stall rule.
        let _hb = self.obs.hb_maintain.begin();
        let pause_us = self.maintain_pause_us.load(Ordering::Relaxed);
        if pause_us > 0 {
            std::thread::sleep(Duration::from_micros(pause_us));
        }
        let snap = self.snapshot();

        let mut doc = (*snap.doc).clone();
        let defs: Vec<&Pattern> = snap.views.iter().map(|v| v.definition()).collect();
        let mut answers: Vec<Vec<NodeId>> = snap.views.iter().map(|v| v.nodes().to_vec()).collect();
        // The post-batch freeze happens *before* maintenance and drives the
        // flat region scans; the same snapshot is published by the swap
        // below. Region scans fan out one thread per core at most.
        let width = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let (deltas, maintain, new_flat) =
            maintain_coalesced(&snap.doc, &mut doc, &defs, &mut answers, edits, width)?;
        drop(defs);

        let refreshed = deltas.iter().filter(|d| !d.is_empty()).count();
        let mut changed: Vec<ViewId> = Vec::new();
        let mut pool = Vec::with_capacity(snap.views.len());
        for ((view, nodes), (delta, &id)) in
            snap.views.iter().zip(answers).zip(deltas.iter().zip(snap.ids.iter()))
        {
            if delta.answers_changed() {
                changed.push(id);
                pool.push(Arc::new(view.apply_delta(nodes)));
            } else {
                pool.push(Arc::clone(view));
            }
        }
        // Publication: readers that observe the new document always
        // observe its matching flat snapshot (frozen above, with this
        // batch's tombstones masked out).
        let new_doc = Arc::new(doc);
        {
            // The only work under the state lock is the pointer swap:
            // readers block for the `Arc` stores, never for maintenance.
            let mut state = self.state.write().expect("cache state poisoned");
            state.doc = new_doc;
            state.views = pool.into();
            state.flat = new_flat;
        }
        let doc_version = self.doc_version.fetch_add(1, Ordering::Relaxed) + 1;
        self.updates_applied.fetch_add(edits.len() as u64, Ordering::Relaxed);
        self.maintain_totals.lock().expect("maintain totals poisoned").add(&maintain);
        // Per-batch phase distributions (the histograms behind the
        // lifetime sums above), plus a sampled maintenance span carrying
        // the same externally-timed phases.
        self.obs.maintain_apply_us.record(maintain.apply_us);
        self.obs.maintain_freeze_us.record(maintain.freeze_us);
        self.obs.maintain_coalesce_us.record(maintain.coalesce_us);
        self.obs.maintain_scan_us.record(maintain.scan_us);
        self.obs.maintain_patch_us.record(maintain.patch_us);
        if span.is_enabled() {
            span.mark_us(Phase::Apply, maintain.apply_us);
            span.mark_us(Phase::Freeze, maintain.freeze_us);
            span.mark_us(Phase::Coalesce, maintain.coalesce_us);
            span.mark_us(Phase::Scan, maintain.scan_us);
            span.mark_us(Phase::Patch, maintain.patch_us);
        }
        span.finish();
        self.views_refreshed_incrementally.fetch_add(refreshed as u64, Ordering::Relaxed);
        // State swapped; now invalidate. Version bump strictly before the
        // sweep, mirroring `add_view`: in-flight plans from the old state
        // either skip memoizing or are caught by the sweep.
        self.views_version.fetch_add(1, Ordering::Release);
        let routes_dropped = if changed.is_empty() {
            0
        } else {
            self.sweep_memo(|dep| match dep {
                PlanDep::Chosen(id) => changed.contains(id),
                PlanDep::WholePool => true,
                PlanDep::NoUsableView => false,
                PlanDep::Intersect(parts) => parts.iter().any(|p| changed.contains(p)),
            })
        };
        Ok(UpdateReport {
            edits_applied: edits.len(),
            doc_version,
            views_refreshed: refreshed,
            views_changed: changed.len(),
            routes_dropped,
            maintain,
        })
    }

    /// Lifetime statistics, aggregated across shards (the oracle counters
    /// are folded in live).
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for shard in self.shards.iter() {
            s.queries += shard.stats.queries.load(Ordering::Relaxed);
            s.view_hits += shard.stats.view_hits.load(Ordering::Relaxed);
            s.intersect_hits += shard.stats.intersect_hits.load(Ordering::Relaxed);
            s.direct += shard.stats.direct.load(Ordering::Relaxed);
            s.plan_memo_hits += shard.stats.plan_memo_hits.load(Ordering::Relaxed);
            s.plan_memo_misses += shard.stats.plan_memo_misses.load(Ordering::Relaxed);
            s.batch_dedup_hits += shard.stats.batch_dedup_hits.load(Ordering::Relaxed);
            s.plan_memo_evictions += shard.stats.plan_memo_evictions.load(Ordering::Relaxed);
            s.plan_memo_invalidations +=
                shard.stats.plan_memo_invalidations.load(Ordering::Relaxed);
            s.intersect_routes += shard.stats.intersect_routes.load(Ordering::Relaxed);
            s.intersect_candidates_tried +=
                shard.stats.intersect_candidates_tried.load(Ordering::Relaxed);
            s.intersect_participants += shard.stats.intersect_participants.load(Ordering::Relaxed);
            s.sig_rejects += shard.stats.sig_rejects.load(Ordering::Relaxed);
            s.sig_passes += shard.stats.sig_passes.load(Ordering::Relaxed);
        }
        let oracle = self.session.oracle().stats();
        s.oracle_memo_hits = oracle.verdict_memo_hits;
        s.oracle_canonical_runs = oracle.canonical_runs;
        s.oracle_models_checked = oracle.models_checked;
        s.updates_applied = self.updates_applied.load(Ordering::Relaxed);
        s.views_refreshed_incrementally =
            self.views_refreshed_incrementally.load(Ordering::Relaxed);
        s.snapshot_read_stalls = self.snapshot_read_stalls.load(Ordering::Relaxed);
        s.maintain = *self.maintain_totals.lock().expect("maintain totals poisoned");
        s
    }

    /// The cache's metric [`Registry`] (latency histograms live here).
    /// Benchmarks hold histogram handles from it and diff snapshots
    /// around a run; the serving front-end records its own phase
    /// histograms into the same registry.
    pub fn obs_registry(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Fault injection for watchdog tests: every subsequent
    /// [`ShardedViewCache::apply_edits`] batch sleeps for `pause` while
    /// holding the write gate (with the maintenance heartbeat in flight),
    /// simulating a wedged maintenance pass. Pass `Duration::ZERO` to
    /// disable. Not part of the public API contract.
    #[doc(hidden)]
    pub fn inject_maintain_pause_for_tests(&self, pause: Duration) {
        self.maintain_pause_us.store(pause.as_micros() as u64, Ordering::Relaxed);
    }

    /// Every cache-side metric as one sorted [`MetricsSnapshot`]:
    /// the registry's latency histograms plus the `xpv_oracle_*`,
    /// `xpv_cache_*`, and `xpv_maintain_*` counter families (each
    /// enumerated by its stats struct's canonical `visit`, so the
    /// snapshot, the wire frame, and the `Display` impls share one
    /// naming authority). The `oracle_*` mirror fields of [`CacheStats`]
    /// are skipped here — those numbers are already present under
    /// `xpv_oracle_*`, and no counter reaches the snapshot under two
    /// names.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        self.session.oracle().stats().visit(&mut |name, v| {
            snap.push_counter(format!("xpv_oracle_{name}"), v);
        });
        let stats = self.stats();
        stats.visit(&mut |name, v| {
            if !name.starts_with("oracle_") {
                snap.push_counter(format!("xpv_cache_{name}"), v);
            }
        });
        stats.maintain.visit(&mut |name, v| {
            snap.push_counter(format!("xpv_maintain_{name}"), v);
        });
        snap.sort();
        snap
    }

    #[inline]
    fn shard_for(&self, fingerprint: u64) -> &CacheShard {
        &self.shards[(fingerprint as usize) & (self.shards.len() - 1)]
    }

    /// Picks the route for `query` (already interned to `key` / `fp`),
    /// consulting (and feeding) this shard's plan memo. Returns the route
    /// plus the shard that accounted the lookup.
    fn route_for(&self, query: &Pattern, key: PatternKey, fp: u64) -> (PlannedRoute, &CacheShard) {
        let shard = self.shard_for(fp);
        let memo = self.memo_enabled();
        if memo {
            let map = shard.memo.read().expect("plan memo poisoned");
            if let Some(entry) = map.get(&key) {
                entry.last_used.store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                bump(&shard.stats.plan_memo_hits);
                return (entry.route.clone(), shard);
            }
        }
        bump(&shard.stats.plan_memo_misses);
        // Load the version strictly *before* taking the snapshot we plan
        // against: any mutation (add/remove/apply_edits) completing after
        // this load bumps the version, so the memo insert below is skipped
        // — a route planned against a pre-mutation snapshot can never be
        // memoized after the invalidation sweep and survive it. (Planning
        // deliberately takes its own snapshot rather than reusing the
        // caller's, which may predate the version load.)
        let planned_at = self.views_version.load(Ordering::Acquire);
        let plan_snap = self.snapshot();
        let miss_start = Instant::now();
        let (route, dep) = self.plan(query, shard, &plan_snap);
        self.obs.plan_miss_us.record_duration(miss_start.elapsed());
        if memo {
            let mut map = shard.memo.write().expect("plan memo poisoned");
            if self.views_version.load(Ordering::Acquire) == planned_at && !map.contains_key(&key) {
                // Reserve a slot against the global bound; on overflow,
                // evict this shard's LRU entry instead (net zero), or skip
                // memoizing when the shard is empty — the total entry count
                // never exceeds `memo_cap`.
                let has_slot = {
                    let reserved = self.memo_entries.fetch_add(1, Ordering::Relaxed);
                    if (reserved as usize) < self.memo_cap {
                        true
                    } else {
                        self.memo_entries.fetch_sub(1, Ordering::Relaxed);
                        // LRU eviction: drop the stalest entry. Linear scan
                        // — capped memos are small, and this path only runs
                        // on misses against a saturated memo.
                        let stale = map
                            .iter()
                            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                            .map(|(&k, _)| k);
                        // Evict-and-replace is net zero entries, so the
                        // counter stays untouched.
                        match stale {
                            Some(stale) => {
                                map.remove(&stale);
                                bump(&shard.stats.plan_memo_evictions);
                                true
                            }
                            None => false,
                        }
                    }
                };
                if has_slot {
                    map.insert(
                        key,
                        MemoEntry {
                            route: route.clone(),
                            dep,
                            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
                        },
                    );
                }
            }
        }
        (route, shard)
    }

    /// Plans `query` against the snapshot's view pool (no memo
    /// involvement): the single-view scan first, then — when no view
    /// suffices and intersections are enabled — the multi-view intersection
    /// planner.
    ///
    /// The scan is the **plan-miss fast path**: the query's
    /// [`QuerySignature`] is computed once, every pool candidate is first
    /// checked against its precomputed [`ViewSignature`] (a few word ops;
    /// rejected candidates provably admit no equivalent rewriting and
    /// never reach the containment oracle), and the survivors are tried
    /// in this shard's hit-rate order so a `FirstMatch` plan usually pays
    /// exactly one containment decision. Filtered-out candidates can never
    /// produce a rewriting, so the filter changes which decisions are paid,
    /// never the chosen route.
    fn plan(
        &self,
        query: &Pattern,
        shard: &CacheShard,
        snap: &StateSnapshot,
    ) -> (PlannedRoute, PlanDep) {
        let views = &snap.views;
        let qsig = QuerySignature::of(query);
        let mut order: Vec<usize> =
            (0..views.len()).filter(|&i| qsig.admits(&snap.sigs[i])).collect();
        let rejected = (views.len() - order.len()) as u64;
        shard.stats.sig_rejects.fetch_add(rejected, Ordering::Relaxed);
        shard.stats.sig_passes.fetch_add(order.len() as u64, Ordering::Relaxed);
        // Winner-first try order (stable sort, pool order breaks ties):
        // under `FirstMatch` the historically winning view is decided
        // first, so a recurring miss pattern costs one oracle call instead
        // of a prefix scan. `SmallestView` ranks every survivor anyway.
        if self.policy == ChoicePolicy::FirstMatch && order.len() > 1 {
            let wins = shard.wins.lock().expect("win index poisoned");
            if !wins.is_empty() {
                order.sort_by_key(|&i| {
                    std::cmp::Reverse(wins.get(&snap.ids[i]).copied().unwrap_or(0))
                });
            }
        }
        let mut chosen: Option<(usize, Pattern)> = None;
        for &i in &order {
            let view = &views[i];
            if let RewriteAnswer::Rewriting(rw) = self.session.decide(query, view.definition()) {
                let better = match (&chosen, self.policy) {
                    (None, _) => true,
                    (Some(_), ChoicePolicy::FirstMatch) => false,
                    (Some((j, _)), ChoicePolicy::SmallestView) => view.len() < views[*j].len(),
                };
                if better {
                    chosen = Some((i, rw.pattern().clone()));
                }
                if self.policy == ChoicePolicy::FirstMatch {
                    break;
                }
            }
        }
        if let Some((index, rewriting)) = chosen {
            let dep = match self.policy {
                // The route is justified by the chosen view alone (its
                // rewriting was verified pairwise), so it depends on that
                // view's presence and answers — not on the scan order that
                // found it.
                ChoicePolicy::FirstMatch => {
                    *shard
                        .wins
                        .lock()
                        .expect("win index poisoned")
                        .entry(snap.ids[index])
                        .or_insert(0) += 1;
                    PlanDep::Chosen(snap.ids[index])
                }
                ChoicePolicy::SmallestView => PlanDep::WholePool,
            };
            let route = Arc::new(Route::ViaView {
                view: views[index].name().to_string(),
                rewriting: rewriting.to_string(),
            });
            let plan = ViewPlan { id: snap.ids[index], hint: index, rewriting, route };
            return (PlannedRoute::ViaView(Arc::new(plan)), dep);
        }
        // No single view rewrites the query: try a multi-view intersection.
        if self.intersect_enabled() && views.len() >= 2 {
            let pool: Vec<&Pattern> = views.iter().map(|v| v.definition()).collect();
            let (answer, istats) = plan_intersection_sig(
                &self.session,
                query,
                &pool,
                Some((&qsig, snap.sigs.as_slice())),
                &self.intersect_cfg,
            );
            shard
                .stats
                .intersect_candidates_tried
                .fetch_add(istats.candidates_tried, Ordering::Relaxed);
            if let Some(answer) = answer {
                debug_assert!(answer.equivalent, "only equivalent compensations are routed");
                bump(&shard.stats.intersect_routes);
                shard
                    .stats
                    .intersect_participants
                    .fetch_add(answer.views.len() as u64, Ordering::Relaxed);
                let ids: Arc<[ViewId]> = answer.views.iter().map(|&i| snap.ids[i]).collect();
                let route = Arc::new(Route::Intersect {
                    views: answer.views.iter().map(|&i| views[i].name().to_string()).collect(),
                    compensation: answer.compensation.to_string(),
                });
                let plan = IntersectPlan {
                    ids: Arc::clone(&ids),
                    hints: answer.views,
                    compensation: answer.compensation,
                    route,
                };
                return (PlannedRoute::Intersect(Arc::new(plan)), PlanDep::Intersect(ids));
            }
        }
        (PlannedRoute::Direct, PlanDep::NoUsableView)
    }

    /// Executes a planned route against the snapshot through the batch's
    /// fused [`BatchEval`], draining the output bitset straight into
    /// `arena`, and returns the answer handle plus provenance. A route
    /// whose stable ids no longer resolve in the snapshot (its views were
    /// removed after the route was fetched) degrades to direct evaluation
    /// — always sound, since routed answers equal direct answers by
    /// construction.
    fn execute(
        &self,
        query: &Pattern,
        route: &PlannedRoute,
        shard: &CacheShard,
        snap: &StateSnapshot,
        batch: &mut BatchEval<'_>,
        arena: &mut AnswerArena,
    ) -> (AnswerRef, Arc<Route>) {
        match route {
            PlannedRoute::ViaView(plan) => {
                if let Some(index) = snap.resolve(plan.id, plan.hint) {
                    bump(&shard.stats.view_hits);
                    let view_nodes = snap.views[index].nodes();
                    let nodes = batch.evaluate_anchored_into(&plan.rewriting, view_nodes, arena);
                    return (nodes, Arc::clone(&plan.route));
                }
            }
            PlannedRoute::Intersect(plan) => {
                if let Some(indices) = snap.resolve_all(plan) {
                    bump(&shard.stats.intersect_hits);
                    let sets: Vec<&[NodeId]> =
                        indices.iter().map(|&i| snap.views[i].nodes()).collect();
                    let anchors = intersect_node_sets(snap.doc.arena_len(), &sets);
                    let nodes = batch.evaluate_anchored_into(&plan.compensation, &anchors, arena);
                    return (nodes, Arc::clone(&plan.route));
                }
            }
            PlannedRoute::Direct => {}
        }
        bump(&shard.stats.direct);
        (batch.evaluate_into(query, arena), Arc::clone(&self.direct_route))
    }

    /// Answers `query`, preferring an equivalent rewriting over any
    /// registered view and falling back to direct evaluation. Which view
    /// wins when several apply is governed by the [`ChoicePolicy`].
    ///
    /// From its second occurrence on, a query's route is served from the
    /// plan memo under a shared read lock: no planner call and **zero**
    /// canonical-model containment calls
    /// ([`CacheStats::plan_memo_hits`] counts these).
    ///
    /// An owned-`Vec` convenience over [`ShardedViewCache::answer_batch`]
    /// (a batch of one).
    pub fn answer(&self, query: &Pattern) -> CacheAnswer {
        self.answer_batch(std::slice::from_ref(query)).pop().expect("one answer per query")
    }

    /// Routes and executes one query against the batch's snapshot and
    /// fused evaluator, writing its nodes into `arena`.
    fn answer_on(
        &self,
        query: &Pattern,
        key: PatternKey,
        fp: u64,
        snap: &StateSnapshot,
        batch: &mut BatchEval<'_>,
        arena: &mut AnswerArena,
    ) -> CacheAnswerRef {
        let plan_start = Instant::now();
        let (route, shard) = self.route_for(query, key, fp);
        bump(&shard.stats.queries);
        let planning = plan_start.elapsed();

        let eval_start = Instant::now();
        let (nodes, route) = self.execute(query, &route, shard, snap, batch, arena);
        let evaluation = eval_start.elapsed();
        self.obs.plan_us.record_duration(planning);
        self.obs.eval_us.record_duration(evaluation);
        CacheAnswerRef { nodes, route, planning, evaluation }
    }

    /// Answers a whole workload slice in one pass; answers come back in
    /// input order. An owned-`Vec` convenience that copies each answer's
    /// nodes out of [`ShardedViewCache::answer_batch_refs`] — same routes,
    /// nodes, and counter effects.
    ///
    /// While memoization is enabled, queries repeated **within the batch**
    /// (including sibling-reordered isomorphs) are answered once and fanned
    /// out: the repeat positions receive the first occurrence's nodes and
    /// route (with zeroed timings) without re-running even the plan-memo
    /// lookup. Fan-outs count as [`CacheStats::plan_memo_hits`] and
    /// [`CacheStats::batch_dedup_hits`]. With the memo disabled
    /// ([`ShardedViewCache::set_memo_enabled`]) every position replans, so
    /// the ablation baseline measures genuinely unshared work.
    pub fn answer_batch(&self, queries: &[Pattern]) -> Vec<CacheAnswer> {
        let mut arena = AnswerArena::new();
        let answers = self.answer_batch_refs(queries, &mut arena);
        answers
            .into_iter()
            .map(|a| CacheAnswer {
                nodes: arena.get(a.nodes).to_vec(),
                route: Arc::unwrap_or_clone(a.route),
                planning: a.planning,
                evaluation: a.evaluation,
            })
            .collect()
    }

    /// [`ShardedViewCache::answer_batch`] through the **arena lane**: the
    /// answers' node runs are bump-allocated into the caller's `arena`
    /// (cleared first), and each [`CacheAnswerRef`] holds an 8-byte handle
    /// plus an `Arc`'d route. On the memoized hot path — route from the
    /// plan memo, fused flat evaluation — an answer touches the heap only
    /// through the arena's amortized growth; batch-deduplicated repeats
    /// share the first occurrence's run outright (the handle is `Copy`),
    /// so fan-out allocates nothing at all.
    pub fn answer_batch_refs(
        &self,
        queries: &[Pattern],
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        let mut span = Span::begin("cache.batch");
        let answers = self.answer_batch_refs_spanned(queries, &mut span, arena);
        span.finish();
        answers
    }

    /// [`ShardedViewCache::answer_batch_refs`] with a caller-owned trace
    /// [`Span`]: the batch's aggregate plan and eval phase times are
    /// marked onto `span` (when it is enabled), letting a serving
    /// front-end thread one request-lifecycle span through admission,
    /// routing, evaluation, encoding, and flush. The batch-level latency
    /// histograms record regardless of the span.
    pub fn answer_batch_refs_spanned(
        &self,
        queries: &[Pattern],
        span: &mut Span,
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        let batch_start = Instant::now();
        let answers = self.answer_batch_refs_inner(queries, arena);
        self.obs.batch_us.record_duration(batch_start.elapsed());
        if span.is_enabled() {
            let plan: Duration = answers.iter().map(|a| a.planning).sum();
            let eval: Duration = answers.iter().map(|a| a.evaluation).sum();
            span.mark_us(Phase::Plan, plan.as_micros() as u64);
            span.mark_us(Phase::Eval, eval.as_micros() as u64);
        }
        answers
    }

    fn answer_batch_refs_inner(
        &self,
        queries: &[Pattern],
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        arena.clear();
        // One consistent snapshot serves the whole batch, and one fused
        // evaluator shares scratch buffers and sub-match tables across
        // every evaluated position.
        let snap = self.snapshot();
        let mut fused = BatchEval::new(&snap.flat);
        if !self.memo_enabled() {
            // Ablation baseline: every position replans and re-evaluates.
            return queries
                .iter()
                .map(|q| {
                    let (key, fp) = self.session.oracle().intern_fingerprinted(q);
                    self.answer_on(q, key, fp, &snap, &mut fused, arena)
                })
                .collect();
        }
        let mut answers: Vec<CacheAnswerRef> = Vec::with_capacity(queries.len());
        let mut first_seen: HashMap<PatternKey, usize> = HashMap::new();
        for (i, query) in queries.iter().enumerate() {
            let (key, fp) = self.session.oracle().intern_fingerprinted(query);
            match first_seen.get(&key) {
                Some(&j) => {
                    let original = &answers[j];
                    let fanned = CacheAnswerRef {
                        nodes: original.nodes,
                        route: Arc::clone(&original.route),
                        planning: Duration::ZERO,
                        evaluation: Duration::ZERO,
                    };
                    let shard = self.shard_for(fp);
                    bump(&shard.stats.queries);
                    bump(&shard.stats.plan_memo_hits);
                    bump(&shard.stats.batch_dedup_hits);
                    match *fanned.route {
                        Route::ViaView { .. } => bump(&shard.stats.view_hits),
                        Route::Intersect { .. } => bump(&shard.stats.intersect_hits),
                        Route::Direct => bump(&shard.stats.direct),
                    }
                    answers.push(fanned);
                }
                None => {
                    first_seen.insert(key, i);
                    answers.push(self.answer_on(query, key, fp, &snap, &mut fused, arena));
                }
            }
        }
        answers
    }

    /// Answers `query` by direct evaluation on the `Tree` reference
    /// evaluator (the oracle the test suites compare against).
    pub fn answer_direct(&self, query: &Pattern) -> Vec<NodeId> {
        evaluate(query, &self.document())
    }

    /// A **partial** answer from the views when no equivalent rewriting
    /// exists: uses a *contained* rewriting (`R ∘ V ⊑ P`, the sound half of
    /// the paper's open problem 3), so every returned node is a genuine
    /// answer of `query`, but some answers may be missing. Returns `None`
    /// when no view yields even a contained rewriting.
    ///
    /// The `complete` flag is `true` only when the rewriting is equivalent
    /// (in which case this behaves like [`ShardedViewCache::answer`]).
    pub fn answer_partial(&self, query: &Pattern) -> Option<(Vec<NodeId>, bool)> {
        // Equivalent rewriting first (shares the plan memo with `answer`).
        let snap = self.snapshot();
        let (key, fp) = self.session.oracle().intern_fingerprinted(query);
        let (route, shard) = self.route_for(query, key, fp);
        bump(&shard.stats.queries);
        let views = &snap.views;
        match route {
            PlannedRoute::ViaView(plan) => {
                if let Some(index) = snap.resolve(plan.id, plan.hint) {
                    bump(&shard.stats.view_hits);
                    return Some((views[index].apply_virtual(&plan.rewriting, &snap.flat), true));
                }
            }
            PlannedRoute::Intersect(plan) => {
                if let Some(indices) = snap.resolve_all(&plan) {
                    bump(&shard.stats.intersect_hits);
                    let sets: Vec<&[NodeId]> = indices.iter().map(|&i| views[i].nodes()).collect();
                    return Some((
                        answer_intersection_virtual_flat(&snap.flat, &sets, &plan.compensation),
                        true,
                    ));
                }
            }
            PlannedRoute::Direct => {}
        }
        // Contained rewriting: pick the view yielding the most answers.
        let mut best: Option<Vec<NodeId>> = None;
        for view in views.iter() {
            if let Some(r) = contained_rewriting_in(self.session.oracle(), query, view.definition())
            {
                let nodes = view.apply_virtual(&r, &snap.flat);
                if best.as_ref().is_none_or(|b| nodes.len() > b.len()) {
                    best = Some(nodes);
                }
            }
        }
        // A contained *intersection* can recover more answers than any
        // single view's contained rewriting (it imposes fewer spurious
        // constraints): take it when it wins on size.
        if self.intersect_enabled() && views.len() >= 2 {
            let pool: Vec<&Pattern> = views.iter().map(|v| v.definition()).collect();
            let (answer, _) =
                plan_intersection_contained_in(&self.session, query, &pool, &self.intersect_cfg);
            if let Some(answer) = answer {
                let sets: Vec<&[NodeId]> = answer.views.iter().map(|&i| views[i].nodes()).collect();
                let nodes =
                    answer_intersection_virtual_flat(&snap.flat, &sets, &answer.compensation);
                if answer.equivalent {
                    // Possible only when the route memo predates the pool or
                    // ablation state; the answer is complete regardless.
                    return Some((nodes, true));
                }
                if best.as_ref().is_none_or(|b| nodes.len() > b.len()) {
                    best = Some(nodes);
                }
            }
        }
        best.map(|nodes| (nodes, false))
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
    fn concurrent_answers_match_serial_answers() {
        let cache = ShardedViewCache::new(doc()).with_shards(4);
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("names", pat("site/region/item/name"));
        let queries: Vec<Pattern> = [
            "site/region/item/name",
            "site//keyword",
            "site/region/item[desc]/name",
            "site/region/item",
        ]
        .iter()
        .map(|s| pat(s))
        .collect();
        let expected: Vec<Vec<NodeId>> = queries.iter().map(|q| cache.answer_direct(q)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        for (q, want) in queries.iter().zip(&expected) {
                            assert_eq!(&cache.answer(q).nodes, want, "wrong answer for {q}");
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.queries, 4 * 5 * queries.len() as u64);
        assert_eq!(s.queries, s.plan_memo_hits + s.plan_memo_misses);
        assert!(s.plan_memo_hits > 0);
    }

    #[test]
    fn add_view_keeps_first_match_routes() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("names", pat("site/region/item/name"));
        let via_view = pat("site/region/item/name");
        let direct = pat("site/region/item");
        assert!(matches!(cache.answer(&via_view).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        assert_eq!(cache.plan_memo_len(), 2);

        let runs_before = cache.stats().oracle_canonical_runs;
        cache.add_view("items", pat("site/region/item"));

        // Only the Direct entry was invalidated.
        assert_eq!(cache.plan_memo_len(), 1);
        assert_eq!(cache.stats().plan_memo_invalidations, 1);

        // The surviving ViaView route serves from the memo: zero coNP work.
        assert!(matches!(cache.answer(&via_view).route, Route::ViaView { .. }));
        assert_eq!(cache.stats().oracle_canonical_runs, runs_before);
        // The Direct query replans and picks up the new view.
        match cache.answer(&direct).route {
            Route::ViaView { view, .. } => assert_eq!(view, "items"),
            other => panic!("expected the fresh view to serve, got {other:?}"),
        }
    }

    #[test]
    fn memo_cap_bounds_entries_and_evicts_lru() {
        let cache = ShardedViewCache::new(doc()).with_shards(1).with_memo_cap(2);
        cache.add_view("items", pat("site/region/item"));
        let queries = ["site/region/item/name", "site//keyword", "site/region/item", "site//name"];
        for q in queries {
            let _ = cache.answer(&pat(q));
            assert!(cache.plan_memo_len() <= 2, "cap must hold after every insert");
        }
        let s = cache.stats();
        assert_eq!(s.plan_memo_evictions, 2);
        assert_eq!(s.plan_memo_misses, 4);
        // The memo still answers correctly after evictions.
        let q = pat("site/region/item/name");
        assert_eq!(cache.answer(&q).nodes, cache.answer_direct(&q));
    }

    #[test]
    fn smallest_view_routes_invalidate_on_add_view() {
        // set_policy needs exclusive access — configure before sharing.
        let mut cache = ShardedViewCache::new(doc());
        cache.set_policy(ChoicePolicy::SmallestView);
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        assert!(matches!(cache.answer(&q).route, Route::ViaView { .. }));
        assert_eq!(cache.plan_memo_len(), 1);
        // A whole-pool scan depends on every view: the entry must drop.
        cache.add_view("regions", pat("site/region"));
        assert_eq!(cache.plan_memo_len(), 0);
        match cache.answer(&q).route {
            Route::ViaView { view, .. } => {
                assert_eq!(view, "regions", "regions is the smaller view")
            }
            other => panic!("expected view hit, got {other:?}"),
        }
    }

    #[test]
    fn batch_dedup_fans_out_identical_queries() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let batch = vec![q.clone(), q.clone(), q.clone()];
        let answers = cache.answer_batch(&batch);
        assert_eq!(answers.len(), 3);
        for a in &answers {
            assert_eq!(a.nodes, answers[0].nodes);
            assert_eq!(a.route, answers[0].route);
        }
        let s = cache.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.plan_memo_misses, 1, "planned exactly once");
        assert_eq!(s.batch_dedup_hits, 2);
        assert_eq!(s.plan_memo_hits, 2);
        assert_eq!(s.view_hits, 3, "every position counts toward its route");
    }

    #[test]
    fn memo_disabled_batches_do_not_dedupe() {
        // The ablation baseline must measure unshared work: with the memo
        // off, in-batch repeats replan instead of fanning out.
        let cache = ShardedViewCache::new(doc());
        cache.set_memo_enabled(false);
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let answers = cache.answer_batch(&[q.clone(), q.clone(), q.clone()]);
        assert_eq!(answers.len(), 3);
        for a in &answers {
            assert_eq!(a.nodes, answers[0].nodes);
        }
        let s = cache.stats();
        assert_eq!(s.batch_dedup_hits, 0);
        assert_eq!(s.plan_memo_hits, 0);
        assert_eq!(s.plan_memo_misses, 3, "every repeat must replan without the memo");
    }

    #[test]
    fn stats_display_is_one_line() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let _ = cache.answer(&pat("site/region/item/name"));
        let line = cache.stats().to_string();
        assert!(line.contains("queries"), "got: {line}");
        assert!(line.contains("intersect"), "got: {line}");
        assert!(!line.contains('\n'));
    }

    /// A document where bids-only, shipping-only and bids+shipping items
    /// coexist, so the intersection is a strict subset of each view.
    fn overlap_doc() -> Tree {
        TreeBuilder::root("site", |b| {
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
        })
    }

    fn overlap_cache() -> ShardedViewCache {
        let cache = ShardedViewCache::new(overlap_doc()).with_shards(4);
        cache.add_view("bid_names", pat("site/region/item[bids]/name"));
        cache.add_view("ship_names", pat("site/region/item[shipping]/name"));
        cache
    }

    #[test]
    fn jointly_sufficient_views_serve_via_intersection() {
        let cache = overlap_cache();
        let q = pat("site/region/item[bids][shipping]/name");
        let ans = cache.answer(&q);
        match &ans.route {
            Route::Intersect { views, compensation } => {
                assert_eq!(views, &["bid_names", "ship_names"]);
                assert_eq!(compensation, "name");
            }
            other => panic!("expected an intersection route, got {other:?}"),
        }
        assert_eq!(ans.nodes, cache.answer_direct(&q), "intersection answer must be exact");
        assert_eq!(ans.nodes.len(), 1);
        let s = cache.stats();
        assert_eq!(s.intersect_hits, 1);
        assert_eq!(s.intersect_routes, 1);
        assert_eq!(s.intersect_participants, 2);
        assert!(s.intersect_candidates_tried >= 1);
    }

    #[test]
    fn intersection_routes_are_memoized_with_zero_conp_work() {
        let cache = overlap_cache();
        let q = pat("site/region/item[bids][shipping]/name");
        let first = cache.answer(&q);
        let runs = cache.stats().oracle_canonical_runs;
        let second = cache.answer(&q);
        assert_eq!(second.nodes, first.nodes);
        assert_eq!(second.route, first.route);
        let s = cache.stats();
        assert_eq!(s.plan_memo_hits, 1, "second ask must come from the plan memo");
        assert_eq!(
            s.oracle_canonical_runs, runs,
            "second ask must run zero canonical-model containment calls"
        );
        assert_eq!(s.intersect_routes, 1, "the route was planned exactly once");
    }

    #[test]
    fn disabling_intersections_falls_back_to_direct() {
        let cache = overlap_cache();
        cache.set_intersect_enabled(false);
        let q = pat("site/region/item[bids][shipping]/name");
        let ans = cache.answer(&q);
        assert_eq!(ans.route, Route::Direct);
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        assert_eq!(cache.stats().intersect_routes, 0);
        // Re-enabling drops the memoized Direct route and finds the
        // intersection again.
        cache.set_intersect_enabled(true);
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
    }

    #[test]
    fn intersect_toggle_leaves_single_view_routes_alone() {
        // A WholePool (SmallestView) route is justified by the single-view
        // scan, which runs before intersection planning: flipping the
        // intersect knob must not drop it.
        let mut cache = ShardedViewCache::new(doc());
        cache.set_policy(ChoicePolicy::SmallestView);
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        assert!(matches!(cache.answer(&q).route, Route::ViaView { .. }));
        let runs = cache.stats().oracle_canonical_runs;
        cache.set_intersect_enabled(false);
        cache.set_intersect_enabled(true);
        assert!(matches!(cache.answer(&q).route, Route::ViaView { .. }));
        assert_eq!(cache.stats().oracle_canonical_runs, runs, "route must serve from the memo");
        assert_eq!(cache.stats().plan_memo_invalidations, 0);
    }

    #[test]
    fn replacing_a_participant_invalidates_the_intersection_route() {
        let cache = overlap_cache();
        let q = pat("site/region/item[bids][shipping]/name");
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
        let invalidations_before = cache.stats().plan_memo_invalidations;

        // Replace one participant with a view that no longer covers the
        // query: the memoized route must not survive.
        cache.replace_view("ship_names", pat("site/region/item[shipping]/bids"));
        assert!(
            cache.stats().plan_memo_invalidations > invalidations_before,
            "the intersection route must be dropped"
        );
        let ans = cache.answer(&q);
        assert_eq!(ans.nodes, cache.answer_direct(&q), "re-planned answer stays correct");
        assert_eq!(ans.route, Route::Direct, "the replaced view no longer supports the route");

        // Replacing it back restores the intersection route.
        cache.replace_view("ship_names", pat("site/region/item[shipping]/name"));
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
    }

    #[test]
    fn remove_view_keeps_direct_and_untouched_routes() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("names", pat("site/region/item/name"));
        let via_first = pat("site/region/item[desc]/name"); // FirstMatch hit on "items"
                                                            // Output above every view's output: no rewriting can exist.
        let direct = pat("site/region[item]");
        assert!(matches!(cache.answer(&via_first).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        let runs = cache.stats().oracle_canonical_runs;

        // Removing the *later* view touches neither memoized route.
        assert!(cache.remove_view("names"));
        assert!(matches!(cache.answer(&via_first).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        assert_eq!(cache.stats().oracle_canonical_runs, runs, "both served from the memo");

        // Removing the committed view drops its route; Direct still
        // survives (a smaller pool cannot create a rewriting).
        assert!(cache.remove_view("items"));
        assert_eq!(cache.answer(&via_first).route, Route::Direct);
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        assert!(!cache.remove_view("items"), "double removal reports false");
    }

    #[test]
    fn apply_edits_refreshes_views_and_keeps_untouched_routes() {
        use xpv_maintain::Edit;
        use xpv_model::TreeBuilder as TB;

        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("keywords", pat("site//keyword"));
        let via_items = pat("site/region/item/name");
        let via_keywords = pat("site//keyword");
        let direct = pat("site/region[item]");
        assert!(matches!(cache.answer(&via_items).route, Route::ViaView { .. }));
        assert!(matches!(cache.answer(&via_keywords).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        let runs = cache.stats().oracle_canonical_runs;

        // Graft one more item (with a name) into the first region: only the
        // `items` view's answers change.
        let snap = cache.document();
        let region = snap.children(snap.root())[0];
        let graft = TB::root("item", |b| {
            b.leaf("name");
        });
        let report = cache
            .apply_edits(&[Edit::InsertSubtree { parent: region, subtree: graft }])
            .expect("valid edit");
        assert_eq!(report.edits_applied, 1);
        assert_eq!(report.doc_version, 1);
        assert_eq!(report.views_changed, 1, "only `items` gained answers");
        assert!(report.routes_dropped >= 1, "the items route must drop");

        // Both queries still answer exactly; the keyword route survived the
        // update (zero coNP work), the items route re-planned.
        let ans = cache.answer(&via_items);
        assert_eq!(ans.nodes, cache.answer_direct(&via_items));
        assert!(matches!(ans.route, Route::ViaView { .. }));
        let ans = cache.answer(&via_keywords);
        assert_eq!(ans.nodes, cache.answer_direct(&via_keywords));
        assert_eq!(cache.stats().oracle_canonical_runs, runs, "survivors replan nothing");
        assert_eq!(cache.answer(&direct).route, Route::Direct, "Direct routes survive edits");

        let s = cache.stats();
        assert_eq!(s.updates_applied, 1);
        assert_eq!(s.views_refreshed_incrementally, 1);
    }

    /// Edits under two different regions of [`doc`]: a deletion in the
    /// second and a graft in the third, plus a relabel of the second.
    fn scattered_edits(d: &Tree) -> Vec<xpv_maintain::Edit> {
        use xpv_maintain::Edit;
        let regions = d.children(d.root());
        let graft = TreeBuilder::root("item", |b| {
            b.leaf("name");
        });
        vec![
            Edit::DeleteSubtree { node: d.children(regions[1])[0] },
            Edit::Relabel { node: regions[1], label: xpv_model::Label::new("region") },
            Edit::InsertSubtree { parent: regions[2], subtree: graft },
        ]
    }

    #[test]
    fn apply_edits_matches_full_recompute() {
        use xpv_maintain::{maintain_views, MaintainMode};

        let cache = ShardedViewCache::new(doc());
        let defs = [pat("site/region/item"), pat("site/region/item/name"), pat("site//keyword")];
        for (i, def) in defs.iter().enumerate() {
            cache.add_view(&format!("v{i}"), def.clone());
        }
        let edits = scattered_edits(&cache.document());
        // The oracle: re-evaluate every view over the whole edited tree.
        let mut oracle_doc = (*cache.document()).clone();
        let def_refs: Vec<&Pattern> = defs.iter().collect();
        let mut want: Vec<Vec<NodeId>> = defs.iter().map(|d| evaluate(d, &oracle_doc)).collect();
        maintain_views(&mut oracle_doc, &def_refs, &mut want, &edits, MaintainMode::FullRecompute)
            .expect("valid");

        let report = cache.apply_edits(&edits).expect("valid");
        assert!(report.views_changed > 0);
        for (view, want) in cache.views_snapshot().iter().zip(&want) {
            assert_eq!(view.nodes(), &want[..], "view {} diverged", view.name());
        }
        for q in ["site/region/item/name", "site//keyword", "site/region/item", "site//name"] {
            let q = pat(q);
            assert_eq!(cache.answer(&q).nodes, evaluate(&q, &oracle_doc), "{q}");
        }
    }

    #[test]
    fn region_fanout_width_does_not_change_results() {
        use xpv_maintain::{maintain_views, MaintainMode};

        let t0 = doc();
        let edits = scattered_edits(&t0);
        let defs = [pat("site/region/item"), pat("site/region/item/name")];
        let def_refs: Vec<&Pattern> = defs.iter().collect();
        let fresh = || -> Vec<Vec<NodeId>> { defs.iter().map(|d| evaluate(d, &t0)).collect() };

        let mut oracle_doc = t0.clone();
        let mut want = fresh();
        maintain_views(&mut oracle_doc, &def_refs, &mut want, &edits, MaintainMode::FullRecompute)
            .expect("valid");

        for width in [1, 8] {
            let mut d = t0.clone();
            let mut answers = fresh();
            let (_, stats, flat) =
                maintain_coalesced(&t0, &mut d, &def_refs, &mut answers, &edits, width)
                    .expect("valid");
            assert_eq!(answers, want, "width {width} diverged from full recompute");
            assert_eq!(d.canonical_key(), oracle_doc.canonical_key());
            assert_eq!(flat.arena_len(), d.arena_len());
            if width == 1 {
                assert_eq!(stats.parallel_width, 0, "width 1 runs serially");
            } else {
                assert!(stats.parallel_tasks >= 2, "the batch must span several regions");
                assert_eq!(stats.parallel_width, stats.parallel_tasks.min(8));
            }
        }
    }

    #[test]
    fn invalid_edit_batches_leave_the_cache_untouched() {
        use xpv_maintain::Edit;

        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let before = cache.answer(&q).nodes;
        let key = cache.document().canonical_key();
        let err = cache.apply_edits(&[Edit::DeleteSubtree { node: NodeId(u32::MAX) }]).unwrap_err();
        assert!(matches!(err, xpv_maintain::EditError::NotLive { .. }));
        assert_eq!(cache.document().canonical_key(), key);
        assert_eq!(cache.doc_version(), 0);
        assert_eq!(cache.answer(&q).nodes, before);
        assert_eq!(cache.stats().updates_applied, 0);
    }

    #[test]
    fn pool_entries_are_shared_between_snapshots() {
        use xpv_maintain::Edit;

        let cache = ShardedViewCache::new(doc());
        cache.add_view("a", pat("site/region/item"));
        let before = cache.views_snapshot();
        cache.add_view("b", pat("site//keyword"));
        let grown = cache.views_snapshot();
        assert!(std::ptr::eq(before[0].nodes(), grown[0].nodes()), "add_view copied view a");

        // A keyword grafted under an item changes b's answer set and only
        // the content of one of a's answers: b gets a new entry, a keeps
        // its entry.
        let d = cache.document();
        let item = d.children(d.children(d.root())[0])[1];
        let graft = TreeBuilder::root("keyword", |_| {});
        let report =
            cache.apply_edits(&[Edit::InsertSubtree { parent: item, subtree: graft }]).unwrap();
        assert_eq!((report.views_changed, report.views_refreshed), (1, 2));
        let edited = cache.views_snapshot();
        assert!(Arc::ptr_eq(&grown[0], &edited[0]), "apply_edits copied unchanged view a");
        assert!(!Arc::ptr_eq(&grown[1], &edited[1]));
        assert_eq!(edited[1].len(), grown[1].len() + 1);
        assert_eq!(edited[1].nodes(), evaluate(&pat("site//keyword"), &cache.document()));

        assert!(cache.remove_view("a"));
        assert!(Arc::ptr_eq(&edited[1], &cache.views_snapshot()[0]), "remove_view copied b");
    }

    #[test]
    fn partial_answers_can_use_contained_intersections() {
        // Both views impose [bids] on the *region*: the intersection is
        // contained in the query's answers but not equivalent.
        let t = TreeBuilder::root("site", |b| {
            b.child("region", |b| {
                b.leaf("bids");
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("x");
                    b.leaf("y");
                });
            });
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("x");
                    b.leaf("y");
                });
            });
        });
        let cache = ShardedViewCache::new(t);
        cache.add_view("vx", pat("site/region[bids]/item[x]/name"));
        cache.add_view("vy", pat("site/region[bids]/item[y]/name"));
        let q = pat("site/region/item[x][y]/name");
        assert_eq!(cache.answer(&q).route, Route::Direct, "no equivalent route exists");
        let (partial, complete) = cache.answer_partial(&q).expect("contained intersection");
        assert!(!complete);
        let full = cache.answer_direct(&q);
        assert!(partial.iter().all(|n| full.contains(n)), "partial answers must be sound");
        assert_eq!(partial.len(), 1, "only the bids-region item is recovered");
        assert_eq!(full.len(), 2);
    }
}
