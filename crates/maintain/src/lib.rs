//! # xpv-maintain — incremental view maintenance under document updates
//!
//! The `xpath-views` caches materialize view answers once and serve queries
//! from them; this crate is what lets the cached document **change** without
//! rebuilding the world. It provides:
//!
//! * the **edit log** ([`Edit`], [`apply_edits`]) — insert-subtree /
//!   delete-subtree / relabel mutations applied transactionally to
//!   `xpv_model::Tree`, with `NodeId`s stable across unrelated edits
//!   (removal tombstones arena slots, insertion appends);
//! * the **batch-coalesced maintainer** ([`maintain_views`] in its default
//!   [`MaintainMode::Coalesced`]) — it applies the whole batch first, diffs
//!   each view's spine predicates between the pre- and post-batch trees in
//!   one pass, **merges overlapping and nested regions** ([`coalesce`]),
//!   and re-evaluates each view only against the few surviving disjoint
//!   regions, provably matching a from-scratch re-materialization; a burst
//!   of k edits under one hot subtree costs one region scan per view
//!   instead of k;
//! * the **per-edit maintainer** ([`MaintainMode::Incremental`]) — one
//!   affected-region scan per (view, edit) pair — and the
//!   [`MaintainMode::FullRecompute`] rebuild-the-world mode, kept as the
//!   oracles the property suites check the coalesced path against.
//!
//! ## Why the affected region suffices
//!
//! Decompose a view pattern into its selection spine `u_0 … u_k` and, per
//! spine node, a predicate `B_i(v)` ("`v` matches `u_i`'s test and all of
//! `u_i`'s branches match below `v`"). Membership factors through the spine:
//! `n ∈ P(t)` iff some axis-respecting chain `root = v_0, …, v_k = n` has
//! `B_i(v_i)` for all `i`. Each `B_i(v)` reads only `label(v)` and
//! `subtree(v)`.
//!
//! An edit anchored at `e` (the deepest surviving node whose subtree
//! content changed) leaves `subtree(v)` untouched for every `v` that is
//! neither an ancestor of `e` nor inside the edited subtree. For a
//! candidate `n` **outside** the edited subtree, the ancestors of `n`
//! whose `B` values could have changed are exactly the common ancestors of
//! `n` and `e` — nodes on the spine `root → e`. Hence:
//!
//! * if no spine node's `B`-vector changed, only the edited subtree needs
//!   re-evaluation;
//! * otherwise the subtree of the **highest** changed spine node (which
//!   contains the edited subtree) is re-evaluated — in the worst case the
//!   whole document, exactly when a predicate visible from the root
//!   flipped and the whole answer set may genuinely move.
//!
//! ## Why merged regions suffice for a whole batch
//!
//! The coalesced path compares `B`-vectors **once**, between the pre-batch
//! tree `t0` and the post-batch tree `t1`, along every edit's recorded
//! anchor spine (ancestor paths of surviving nodes never move, so a spine
//! recorded mid-batch is also the `t1` path). Any `t1`-live node whose `B`
//! values differ lies on some affected edit's spine (its subtree or label
//! changed across that edit) or inside an inserted subtree — nodes new in
//! `t1` compare against the all-false vector and are flagged the moment
//! they host anything, and surviving `inserted_root`s are taken as region
//! roots outright. The region root set is then **merged**: a root with a
//! proper ancestor in the set collapses into it, and edits whose highest
//! changed spine node coincides dedup to one root, leaving pairwise
//! disjoint subtrees whose union contains every node with a changed `B`
//! value — so answers outside the union kept their whole chain intact and
//! answers inside are recomputed exactly. The full argument, including why
//! label-skipped edits contribute nothing to the telescoped `t0 → t1`
//! difference, lives in [`coalesce`]'s module docs. Disjointness is also
//! what makes the region scans embarrassingly parallel: the engine fans
//! them across scoped threads and combines results in `(view, region
//! root)` order, so answers, deltas, and counters are schedule-invariant.
//!
//! The restricted evaluation ([`region_answers`]) runs the same
//! spine-reachability dynamic program a full evaluation would, but only
//! down one subtree, with branch matching memoized. Answers outside the
//! region are kept verbatim (minus tombstoned nodes); answers inside are
//! replaced by the fresh region results — a bitset diff. Surviving answers
//! that lie on an edit's ancestor spine are reported as *retagged*: their
//! content changed even though their membership did not. The engine stores
//! each view as its node set only, so a retag leaves the stored view as it
//! is (it counts toward `UpdateReport::views_refreshed`); by-value copies
//! (`MaterializedView::apply_materialized`) are built on demand from the
//! current document and so always read the new content.
//!
//! The property suite (`tests/maintain_properties.rs`) checks incremental ≡
//! full re-materialization on randomized documents, view pools, and edit
//! streams, and the engine's update path is stress-tested against serial
//! replay.

pub mod coalesce;
pub mod edit;
pub mod refresh;
pub mod region;

pub use coalesce::{
    apply_region_results, coalesce_plan, merge_regions, prepare_batch, scan_regions_serial,
    BatchAnchor, CoalescedPlan, PreparedBatch, RegionTask, ViewDisposition,
};
pub use edit::{apply_edit, apply_edits, validate_edit, AppliedEdit, Edit, EditError};
pub use refresh::{finalize_deltas, maintain_views, MaintainMode, MaintainStats, ViewDelta};
pub use region::{region_answers, spine_to, SpineInfo, SubMatcher, MAX_TRACKED_DEPTH};
