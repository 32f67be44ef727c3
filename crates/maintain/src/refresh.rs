//! The incremental maintainer: apply an edit batch and patch every view's
//! answer set so it equals a from-scratch re-materialization.
//!
//! [`maintain_views`] is the entry point. The default
//! [`MaintainMode::Coalesced`] applies the whole batch first and refreshes
//! each view from its merged region set (see [`crate::coalesce`]); the
//! legacy [`MaintainMode::Incremental`] path below interleaves application
//! and patching. Per edit, the legacy path:
//!
//! 1. computes the edit's **anchor** (deepest surviving node whose subtree
//!    content changes) and the ancestor spine `root → anchor`;
//! 2. records, for every view, the `B`-vectors along that spine on the
//!    *pre-edit* tree (see [`crate::region`] for the decomposition);
//! 3. applies the edit (transactionally, with rollback on invalid edits);
//! 4. recomputes the spine `B`-vectors and picks the **highest** changed
//!    spine node; the re-evaluation region is its subtree (or just the
//!    inserted subtree when nothing on the spine changed);
//! 5. re-runs the restricted evaluation over that region only and patches
//!    the view's answer vector: answers outside the region are provably
//!    unchanged, answers inside are replaced by the fresh region results
//!    (a bitset diff), tombstoned answers are dropped.
//!
//! Views whose label set is disjoint from the labels an edit touched (and
//! that use no wildcard) are skipped outright — the common case under a
//! Zipf-skewed edit stream. Either way the maintainer reports which
//! surviving answers had their subtree **content** changed (the edit point
//! lies inside their subtree), so a holder of by-value copies knows exactly
//! which copies went stale.

use std::collections::HashSet;

use xpv_model::{BitSet, NodeId, Tree};
use xpv_pattern::Pattern;
use xpv_semantics::evaluate;

use crate::edit::{apply_edits, validate_edit, AppliedEdit, Edit, EditError};
use crate::region::{region_answers, spine_to, SpineInfo, SubMatcher};

/// How [`maintain_views`] refreshes the answer sets. The serving cache
/// runs the coalesced pipeline; the other two modes are the reference
/// oracles the property suites compare it against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaintainMode {
    /// Apply the whole batch first, then patch each view from its merged,
    /// deduplicated region set (see [`crate::coalesce`]) — the default.
    #[default]
    Coalesced,
    /// The per-edit path: patch each view from each edit's affected
    /// region, one scan per (view, edit) pair.
    Incremental,
    /// Re-evaluate every view over the whole document after the batch —
    /// the rebuild-the-world baseline.
    FullRecompute,
}

/// The net change to one view's answers over a maintained batch.
#[derive(Clone, Debug, Default)]
pub struct ViewDelta {
    /// Answer nodes dropped by the batch (ascending).
    pub removed: Vec<NodeId>,
    /// Answer nodes gained by the batch (ascending).
    pub added: Vec<NodeId>,
    /// Surviving answer nodes whose subtree **content** changed (ascending):
    /// their node identity is intact, but by-value copies are stale.
    pub retagged: Vec<NodeId>,
}

impl ViewDelta {
    /// `true` when the batch left the view's answers *and* their contents
    /// untouched.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty() && self.retagged.is_empty()
    }

    /// `true` when the answer **set** changed (content-only refreshes do
    /// not count) — the condition under which plan-memo routes that depend
    /// on this view are invalidated.
    pub fn answers_changed(&self) -> bool {
        !self.removed.is_empty() || !self.added.is_empty()
    }
}

/// Counters describing one maintained batch (aggregated by the engine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Edits applied.
    pub edits_applied: u64,
    /// (view, edit) pairs examined.
    pub view_edit_checks: u64,
    /// Pairs dismissed by the label-disjointness fast path.
    pub label_skips: u64,
    /// Pairs whose spine scan proved the answer set unchanged (no region
    /// re-evaluation at all, beyond dropping tombstoned answers).
    pub spine_clean: u64,
    /// Region re-evaluations run.
    pub regions_scanned: u64,
    /// Nodes visited across all region re-evaluations.
    pub region_nodes: u64,
    /// Whole-document re-evaluations (`FullRecompute` mode, or a spine too
    /// deep for the reachability mask).
    pub full_recomputes: u64,
    /// Answer nodes added across all views.
    pub answers_added: u64,
    /// Answer nodes removed across all views.
    pub answers_removed: u64,
    /// Per-(view, edit) region roots before coalescing merged them.
    pub regions_before_merge: u64,
    /// Region scans the merge eliminated (`regions_before_merge` minus the
    /// scans actually run) — what the per-edit path would have paid extra.
    pub scans_saved: u64,
    /// Batches whose maintenance reused the snapshot-swap `FlatTree` freeze
    /// (the engine's shared-freeze path).
    pub freeze_reused: u64,
    /// Region scans dispatched to the parallel fan-out.
    pub parallel_tasks: u64,
    /// Widest worker fan-out used (aggregates as a maximum).
    pub parallel_width: u64,
    /// Microseconds applying edits (`prepare_batch`).
    pub apply_us: u64,
    /// Microseconds freezing the post-batch `FlatTree`.
    pub freeze_us: u64,
    /// Microseconds diffing spines and merging regions (`coalesce_plan`).
    pub coalesce_us: u64,
    /// Microseconds scanning regions (serial or parallel, wall-clock).
    pub scan_us: u64,
    /// Microseconds patching answer sets and finalizing deltas.
    pub patch_us: u64,
}

impl MaintainStats {
    /// Field-wise sum, used by the engine's lifetime aggregation.
    pub fn add(&mut self, other: &MaintainStats) {
        self.edits_applied += other.edits_applied;
        self.view_edit_checks += other.view_edit_checks;
        self.label_skips += other.label_skips;
        self.spine_clean += other.spine_clean;
        self.regions_scanned += other.regions_scanned;
        self.region_nodes += other.region_nodes;
        self.full_recomputes += other.full_recomputes;
        self.answers_added += other.answers_added;
        self.answers_removed += other.answers_removed;
        self.regions_before_merge += other.regions_before_merge;
        self.scans_saved += other.scans_saved;
        self.freeze_reused += other.freeze_reused;
        self.parallel_tasks += other.parallel_tasks;
        self.parallel_width = self.parallel_width.max(other.parallel_width);
        self.apply_us += other.apply_us;
        self.freeze_us += other.freeze_us;
        self.coalesce_us += other.coalesce_us;
        self.scan_us += other.scan_us;
        self.patch_us += other.patch_us;
    }

    /// The canonical counter enumeration: one `(name, value)` pair per
    /// field, in declaration order. The observability registry exposes
    /// these under `xpv_maintain_*`, and `Display` renders the same list
    /// — one naming authority, so the rendered line and the exposition
    /// can never drift (see the `xpv-obs` crate docs). Note
    /// `parallel_width` aggregates as a maximum, not a sum.
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("edits_applied", self.edits_applied);
        f("view_edit_checks", self.view_edit_checks);
        f("label_skips", self.label_skips);
        f("spine_clean", self.spine_clean);
        f("regions_scanned", self.regions_scanned);
        f("region_nodes", self.region_nodes);
        f("full_recomputes", self.full_recomputes);
        f("answers_added", self.answers_added);
        f("answers_removed", self.answers_removed);
        f("regions_before_merge", self.regions_before_merge);
        f("scans_saved", self.scans_saved);
        f("freeze_reused", self.freeze_reused);
        f("parallel_tasks", self.parallel_tasks);
        f("parallel_width", self.parallel_width);
        f("apply_us", self.apply_us);
        f("freeze_us", self.freeze_us);
        f("coalesce_us", self.coalesce_us);
        f("scan_us", self.scan_us);
        f("patch_us", self.patch_us);
    }
}

impl std::fmt::Display for MaintainStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))
    }
}

/// Applies `edits` to `doc` and keeps every `answers[i]` equal to
/// `evaluate(defs[i], doc)` throughout, patching incrementally (or fully,
/// per `mode`). Returns one cumulative [`ViewDelta`] per view plus the
/// batch counters.
///
/// **Transactional**: on an invalid edit the document and every answer set
/// are restored to their pre-batch state and the error names the offending
/// batch position.
///
/// `defs.len()` must equal `answers.len()`, each `answers[i]` must be the
/// ascending answer set of `defs[i]` on the incoming document (as
/// `xpv_semantics::evaluate` produces).
pub fn maintain_views(
    doc: &mut Tree,
    defs: &[&Pattern],
    answers: &mut [Vec<NodeId>],
    edits: &[Edit],
    mode: MaintainMode,
) -> Result<(Vec<ViewDelta>, MaintainStats), EditError> {
    assert_eq!(defs.len(), answers.len(), "one answer set per view definition");
    let mut stats = MaintainStats::default();
    let saved: Vec<Vec<NodeId>> = answers.to_vec();

    if mode == MaintainMode::FullRecompute {
        apply_edits(doc, edits)?;
        stats.edits_applied = edits.len() as u64;
        for (def, ans) in defs.iter().zip(answers.iter_mut()) {
            stats.view_edit_checks += 1;
            stats.full_recomputes += 1;
            *ans = evaluate(def, doc);
        }
        // The baseline treats every survivor's content as changed: retag
        // all survivors.
        let retag_all: Vec<HashSet<NodeId>> =
            answers.iter().map(|a| a.iter().copied().collect()).collect();
        let deltas = finish_deltas(doc, &saved, answers, |i| retag_all[i].clone());
        count_delta_stats(&deltas, &mut stats);
        return Ok((deltas, stats));
    }

    if mode == MaintainMode::Coalesced {
        // Batch-coalesced path: apply everything, diff spines t0 → t1 once,
        // scan the merged regions (serially here; the engine swaps in the
        // flat matcher and a thread fan-out for the same plan).
        let t0 = doc.clone();
        let prep = crate::coalesce::prepare_batch(doc, edits)?;
        let plan = crate::coalesce::coalesce_plan(&t0, doc, defs, &prep);
        let tasks = plan.region_tasks();
        let results = crate::coalesce::scan_regions_serial(doc, defs, &plan, &tasks);
        let mut stats = plan.stats;
        crate::coalesce::apply_region_results(
            doc, defs, answers, &plan, &tasks, &results, &mut stats,
        );
        let deltas = finish_deltas(doc, &saved, answers, |_| plan.retag.clone());
        count_delta_stats(&deltas, &mut stats);
        return Ok((deltas, stats));
    }

    let infos: Vec<SpineInfo> = defs.iter().map(|d| SpineInfo::new(d)).collect();
    let mut retagged: Vec<HashSet<NodeId>> = vec![HashSet::new(); defs.len()];
    let mut applied: Vec<AppliedEdit> = Vec::with_capacity(edits.len());

    for (idx, edit) in edits.iter().enumerate() {
        if let Err(e) = validate_edit(doc, edit, idx) {
            // Roll back: restore the document (reverse order) and the
            // answer sets.
            rollback(doc, &applied);
            for (ans, old) in answers.iter_mut().zip(saved.iter()) {
                *ans = old.clone();
            }
            return Err(e);
        }

        let anchor = edit.anchor(doc).expect("validated edits have an anchor");
        let spine = spine_to(doc, anchor);

        // Pre-edit B-vectors along the spine, per view (skipping views the
        // edit provably cannot affect). The touched labels are only fully
        // known post-application for inserts/deletes, but they can be read
        // off the edit itself pre-application.
        let touched = touched_labels_of(doc, edit);
        let mut old_b: Vec<Option<Vec<u64>>> = Vec::with_capacity(defs.len());
        for (def, info) in defs.iter().zip(&infos) {
            stats.view_edit_checks += 1;
            if info.unaffected_by_labels(&touched) {
                stats.label_skips += 1;
                old_b.push(None);
                continue;
            }
            if !info.trackable() {
                old_b.push(None);
                continue;
            }
            let mut m = SubMatcher::new(def, doc);
            old_b.push(Some(spine.iter().map(|&a| m.b_vector(info, a)).collect()));
        }

        let receipt = crate::edit::apply_edit(doc, edit).expect("validated edit applies");
        stats.edits_applied += 1;
        let inserted_root = match &receipt {
            AppliedEdit::Inserted { root, .. } => Some(*root),
            _ => None,
        };

        for (v, (def, info)) in defs.iter().zip(&infos).enumerate() {
            let Some(old_vec) = &old_b[v] else {
                if info.unaffected_by_labels(&touched) {
                    // Provably unchanged answer set; only materialized
                    // content along the spine may be stale.
                    retag_spine(&spine, &mut retagged[v]);
                    continue;
                }
                // Untrackable spine: fall back to a full re-evaluation.
                stats.full_recomputes += 1;
                answers[v] = evaluate(def, doc);
                retag_spine(&spine, &mut retagged[v]);
                continue;
            };

            let mut m = SubMatcher::new(def, doc);
            let mut dirty: Option<NodeId> = None;
            for (i, &a) in spine.iter().enumerate() {
                if m.b_vector(info, a) != old_vec[i] {
                    dirty = Some(a);
                    break; // highest changed spine node wins
                }
            }
            let region_root = dirty.or(inserted_root);

            match region_root {
                None => {
                    // No spine change and nothing inserted: the answer set
                    // can only have lost tombstoned nodes.
                    stats.spine_clean += 1;
                    if matches!(receipt, AppliedEdit::Deleted { .. }) {
                        answers[v].retain(|&n| doc.is_alive(n));
                    }
                }
                Some(root) => {
                    let (fresh, region) = region_answers(info, doc, root, &mut m);
                    stats.regions_scanned += 1;
                    stats.region_nodes += region.count() as u64;
                    let mut next: Vec<NodeId> = answers[v]
                        .iter()
                        .copied()
                        .filter(|&n| doc.is_alive(n) && !region.contains(n.index()))
                        .collect();
                    next.extend(fresh);
                    next.sort();
                    answers[v] = next;
                }
            }
            retag_spine(&spine, &mut retagged[v]);
        }

        applied.push(receipt);
    }

    let deltas = finish_deltas(doc, &saved, answers, |i| retagged[i].clone());
    count_delta_stats(&deltas, &mut stats);
    Ok((deltas, stats))
}

/// Collects the labels an edit touches, readable pre-application.
fn touched_labels_of(doc: &Tree, edit: &Edit) -> Vec<xpv_model::Label> {
    match edit {
        Edit::InsertSubtree { subtree, .. } => subtree.label_set(),
        Edit::DeleteSubtree { node } => {
            let mut ls: Vec<xpv_model::Label> =
                doc.descendants_inclusive(*node).into_iter().map(|n| doc.label(n)).collect();
            ls.sort();
            ls.dedup();
            ls
        }
        Edit::Relabel { node, label } => {
            let mut ls = vec![doc.label(*node), *label];
            ls.sort();
            ls.dedup();
            ls
        }
    }
}

/// Marks every spine node as content-stale. Unconditional on purpose: a
/// node may not be an answer *right now* yet still end the batch as a
/// surviving answer with edited content (drop out, get edited, re-enter
/// across edits of one batch), so membership is only checked once at the
/// end — [`finish_deltas`] filters the marks down to nodes that are
/// answers both before and after the batch.
fn retag_spine(spine: &[NodeId], retagged: &mut HashSet<NodeId>) {
    retagged.extend(spine.iter().copied());
}

fn rollback(doc: &mut Tree, applied: &[AppliedEdit]) {
    for receipt in applied.iter().rev() {
        crate::edit::undo(doc, receipt);
    }
}

/// Engine-facing delta finalizer for externally driven coalesced
/// maintenance: diffs saved vs final answers, filters the shared retag set
/// per view, and folds the added/removed counts into `stats`. Produces
/// exactly what [`maintain_views`] would for the same answers.
pub fn finalize_deltas(
    doc: &Tree,
    saved: &[Vec<NodeId>],
    finals: &[Vec<NodeId>],
    retag: &HashSet<NodeId>,
    stats: &mut MaintainStats,
) -> Vec<ViewDelta> {
    let deltas = finish_deltas(doc, saved, finals, |_| retag.clone());
    count_delta_stats(&deltas, stats);
    deltas
}

/// Builds the per-view cumulative deltas by diffing the saved initial
/// answers against the final ones (a bitset diff over the final arena).
fn finish_deltas(
    doc: &Tree,
    saved: &[Vec<NodeId>],
    finals: &[Vec<NodeId>],
    retagged_of: impl Fn(usize) -> HashSet<NodeId>,
) -> Vec<ViewDelta> {
    saved
        .iter()
        .zip(finals)
        .enumerate()
        .map(|(i, (old, new))| {
            let cap = doc.arena_len();
            let mut old_set = BitSet::new(cap);
            for &n in old {
                old_set.insert(n.index());
            }
            let mut new_set = BitSet::new(cap);
            for &n in new {
                new_set.insert(n.index());
            }
            let removed: Vec<NodeId> =
                old.iter().copied().filter(|&n| !new_set.contains(n.index())).collect();
            let added: Vec<NodeId> =
                new.iter().copied().filter(|&n| !old_set.contains(n.index())).collect();
            let retag = retagged_of(i);
            let mut retagged: Vec<NodeId> = new
                .iter()
                .copied()
                .filter(|&n| old_set.contains(n.index()) && retag.contains(&n))
                .collect();
            retagged.sort();
            ViewDelta { removed, added, retagged }
        })
        .collect()
}

fn count_delta_stats(deltas: &[ViewDelta], stats: &mut MaintainStats) {
    for d in deltas {
        stats.answers_added += d.added.len() as u64;
        stats.answers_removed += d.removed.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::{Label, TreeBuilder};
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn doc() -> Tree {
        TreeBuilder::root("site", |b| {
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                });
                b.child("item", |b| {
                    b.leaf("name");
                });
            });
        })
    }

    fn item_graft() -> Tree {
        TreeBuilder::root("item", |b| {
            b.leaf("name");
            b.leaf("bids");
        })
    }

    /// Runs a batch through the incremental maintainer and asserts every
    /// view equals a fresh evaluation afterwards.
    fn check(doc0: &Tree, defs: &[&Pattern], edits: &[Edit]) -> (Tree, Vec<ViewDelta>) {
        let mut t = doc0.clone();
        let mut answers: Vec<Vec<NodeId>> = defs.iter().map(|d| evaluate(d, &t)).collect();
        let (deltas, _) =
            maintain_views(&mut t, defs, &mut answers, edits, MaintainMode::Incremental)
                .expect("valid batch");
        for (def, ans) in defs.iter().zip(&answers) {
            assert_eq!(ans, &evaluate(def, &t), "view {def} diverged from full recompute");
        }
        (t, deltas)
    }

    #[test]
    fn insert_extends_answers() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q1 = pat("site/region/item/name");
        let q2 = pat("site/region/item[bids]/name");
        let (t2, deltas) = check(
            &t,
            &[&q1, &q2],
            &[Edit::InsertSubtree { parent: region, subtree: item_graft() }],
        );
        assert_eq!(deltas[0].added.len(), 1);
        assert_eq!(deltas[1].added.len(), 1);
        assert!(deltas[0].removed.is_empty());
        assert_eq!(evaluate(&q1, &t2).len(), 3);
    }

    #[test]
    fn delete_shrinks_answers_and_flips_predicates() {
        let t = doc();
        let region = t.children(t.root())[0];
        let first_item = t.children(region)[0];
        let bids = t.children(first_item)[1];
        assert_eq!(t.label(bids).name(), "bids");
        let q = pat("site/region/item[bids]/name");
        // Deleting the bids leaf flips B at the *item* (an ancestor):
        // the name under it must drop out of the predicate view.
        let (_, deltas) = check(&t, &[&q], &[Edit::DeleteSubtree { node: bids }]);
        assert_eq!(deltas[0].removed.len(), 1);
        assert!(deltas[0].added.is_empty());
    }

    #[test]
    fn relabel_moves_membership_both_ways() {
        let t = doc();
        let region = t.children(t.root())[0];
        let second_item = t.children(region)[1];
        let q = pat("site/region/item/name");
        let (_, deltas) = check(
            &t,
            &[&q],
            &[
                Edit::Relabel { node: second_item, label: Label::new("lot") },
                Edit::Relabel { node: second_item, label: Label::new("item") },
            ],
        );
        // Net effect of the two relabels is zero.
        assert!(deltas[0].added.is_empty() && deltas[0].removed.is_empty());
    }

    #[test]
    fn label_disjoint_edits_skip_reevaluation() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q = pat("site/region/item/name");
        let mut t2 = t.clone();
        let mut answers = vec![evaluate(&q, &t2)];
        let graft = TreeBuilder::root("comment", |b| {
            b.leaf("text");
        });
        let (deltas, stats) = maintain_views(
            &mut t2,
            &[&q],
            &mut answers,
            &[Edit::InsertSubtree { parent: region, subtree: graft }],
            MaintainMode::Incremental,
        )
        .expect("valid");
        assert_eq!(stats.label_skips, 1);
        assert_eq!(stats.regions_scanned, 0);
        assert!(!deltas[0].answers_changed());
        assert_eq!(answers[0], evaluate(&q, &t2));
    }

    #[test]
    fn deep_edits_retag_ancestor_answers() {
        let t = doc();
        let region = t.children(t.root())[0];
        let first_item = t.children(region)[0];
        // The items view materializes subtrees; adding a leaf *inside* an
        // answer's subtree keeps the answer but stales its copy.
        let q = pat("site/region/item");
        let graft = TreeBuilder::root("shipping", |_| {});
        let (_, deltas) =
            check(&t, &[&q], &[Edit::InsertSubtree { parent: first_item, subtree: graft }]);
        assert!(!deltas[0].answers_changed());
        assert_eq!(deltas[0].retagged, vec![first_item]);
    }

    /// An answer can drop out, have its content edited, and re-enter
    /// within one batch: it must come back **retagged** so materialized
    /// copies are rebuilt (regression: membership-gated retagging missed
    /// this and left a stale copy behind an empty delta).
    #[test]
    fn reentering_answers_with_edited_content_are_retagged() {
        let t = TreeBuilder::root("site", |b| {
            b.leaf("flag");
            b.child("item", |b| {
                b.leaf("name");
            });
        });
        let flag = t.children(t.root())[0];
        let item = t.children(t.root())[1];
        let q = pat("site[flag]/item");
        let mut doc = t.clone();
        let mut answers = vec![evaluate(&q, &doc)];
        assert_eq!(answers[0], vec![item]);
        let batch = [
            // 1: the item stops being an answer (flag gone)…
            Edit::DeleteSubtree { node: flag },
            // 2: …its content changes while it is not an answer…
            Edit::InsertSubtree { parent: item, subtree: TreeBuilder::root("extra", |_| {}) },
            // 3: …and it re-enters when the flag returns.
            Edit::InsertSubtree { parent: t.root(), subtree: TreeBuilder::root("flag", |_| {}) },
        ];
        let (deltas, _) =
            maintain_views(&mut doc, &[&q], &mut answers, &batch, MaintainMode::Incremental)
                .expect("valid batch");
        assert_eq!(answers[0], evaluate(&q, &doc));
        assert_eq!(answers[0], vec![item], "same surviving answer node");
        assert_eq!(
            deltas[0].retagged,
            vec![item],
            "the re-entering answer's content changed: its copy must refresh"
        );
    }

    #[test]
    fn invalid_batch_restores_doc_and_answers() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q = pat("site/region/item/name");
        let mut t2 = t.clone();
        let before = evaluate(&q, &t2);
        let mut answers = vec![before.clone()];
        let err = maintain_views(
            &mut t2,
            &[&q],
            &mut answers,
            &[
                Edit::InsertSubtree { parent: region, subtree: item_graft() },
                Edit::DeleteSubtree { node: NodeId(9999) },
            ],
            MaintainMode::Incremental,
        )
        .unwrap_err();
        assert!(matches!(err, EditError::NotLive { edit_index: 1, .. }));
        assert_eq!(t2.canonical_key(), t.canonical_key());
        assert_eq!(answers[0], before);
    }

    #[test]
    fn full_recompute_mode_agrees_with_incremental() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q1 = pat("site/region/item[bids]/name");
        let q2 = pat("site//name");
        let edits = vec![
            Edit::InsertSubtree { parent: region, subtree: item_graft() },
            Edit::DeleteSubtree { node: t.children(region)[1] },
        ];
        let mut ti = t.clone();
        let mut ai = vec![evaluate(&q1, &ti), evaluate(&q2, &ti)];
        maintain_views(&mut ti, &[&q1, &q2], &mut ai, &edits, MaintainMode::Incremental)
            .expect("valid");
        let mut tf = t.clone();
        let mut af = vec![evaluate(&q1, &tf), evaluate(&q2, &tf)];
        maintain_views(&mut tf, &[&q1, &q2], &mut af, &edits, MaintainMode::FullRecompute)
            .expect("valid");
        assert_eq!(ai, af, "both modes converge to the same answers");
        assert_eq!(ti.canonical_key(), tf.canonical_key());
    }
}
