//! Batch coalescing: turn k edits into few disjoint re-evaluation regions.
//!
//! The per-edit maintainer (see [`crate::refresh`]) interleaves edit
//! application with view patching: for every edit it records pre-edit
//! `B`-vectors, applies, diffs, and scans one region per (view, edit) pair.
//! A bursty batch — many edits under one hot subtree — pays k nearly
//! identical region scans per view. This module reorders the work:
//!
//! 1. [`prepare_batch`] applies the **whole batch first** (transactionality
//!    is unchanged: undo receipts roll back on an invalid edit), recording
//!    each edit's anchor spine, touched labels, and inserted root;
//! 2. [`coalesce_plan`] compares, per view, the spine `B`-vectors between
//!    the **pre-batch** tree `t0` and the **post-batch** tree `t1` in one
//!    pass, collects one region root per affected edit, and
//!    [merges](merge_regions) nested roots — a region contained in another
//!    collapses into it, and edits sharing a changed ancestor spine node
//!    collapse to the highest such node — so k edits under one hot subtree
//!    cost **one** region scan per view;
//! 3. the caller scans each surviving `(view, region)` task (serially, via
//!    the flat matcher, or fanned across threads — regions are disjoint by
//!    construction, so the tasks are independent) and
//!    [`apply_region_results`] patches the answer sets.
//!
//! ## Why the cumulative `t0` → `t1` comparison is sound
//!
//! Fix a view with spine `u_0 … u_k` and per-position predicates `B_i(v)`
//! (node test plus branch witnesses below `v`; each `B_i(v)` reads only
//! `label(v)` and `subtree(v)` — see [`crate::region`]). Membership in
//! `P(t1)` factors through chains of live-`t1` nodes, so it is determined
//! by the `B` values of nodes **alive in `t1`**. Consider any such node `v`
//! whose `B`-vector differs between `t0` and `t1` (treating a node that did
//! not exist in `t0` as having the all-false vector — it hosted nothing):
//!
//! * Edits whose touched labels are disjoint from a wildcard-free view's
//!   labels change **no** `B` value of that view (inserted/removed/relabeled
//!   nodes can never be witness images, and no other node's label or
//!   ancestor relations move), so the `t0 → t1` difference at `v`
//!   telescopes over the view's *affected* edits only.
//! * If `v` existed in `t0`, some affected edit `j` changed `subtree(v)` or
//!   `label(v)` across its application, which makes `v` an ancestor-or-self
//!   of edit `j`'s anchor — i.e. `v` lies on `j`'s **recorded spine** and is
//!   compared directly (ancestor paths of surviving nodes never change, so
//!   the spine recorded mid-batch is the `t1` path too).
//! * If `v` is new in `t1`, it lies inside some inserted subtree. Either a
//!   compared ancestor's `B` changed (that region contains `v`), or the
//!   insert's surviving `inserted_root` is taken as a region root, or `v`
//!   sits on a later affected edit's spine where the all-false-`t0` rule
//!   flags it the moment its `t1` vector is non-zero. In every case the
//!   chosen region (the subtree of the highest flagged node) contains every
//!   answer whose chain runs through `v`, because hosting `u_i` at `v`
//!   places the output image inside `subtree(v)`.
//!
//! Nodes dead in `t1` need no comparison: they cannot host chain images,
//! and tombstoned answers are dropped by the liveness filter during
//! patching. Answers outside every merged region therefore kept their
//! entire chain's `B` values, and answers inside are recomputed exactly —
//! the patched set equals full re-materialization, which the property suite
//! (`tests/maintain_properties.rs`) checks against the per-edit maintainer
//! *and* a from-scratch evaluation on randomized batches.

use std::collections::HashSet;

use xpv_model::{BitSet, NodeId, Tree};
use xpv_pattern::Pattern;
use xpv_semantics::evaluate;

use crate::edit::{undo, validate_edit, AppliedEdit, Edit, EditError};
use crate::refresh::MaintainStats;
use crate::region::{region_answers, spine_to, SpineInfo, SubMatcher};

/// What [`prepare_batch`] records about one applied edit: everything the
/// coalescer needs without re-reading mid-batch tree states.
#[derive(Clone, Debug)]
pub struct BatchAnchor {
    /// Root-first ancestor path to the edit's anchor (the deepest surviving
    /// node whose subtree content changed), recorded at application time.
    /// Ancestor paths of surviving nodes are stable, so this is also the
    /// post-batch path; nodes deleted by later edits are skipped when read.
    pub spine: Vec<NodeId>,
    /// For inserts, the id of the grafted subtree's root.
    pub inserted_root: Option<NodeId>,
    /// Sorted, deduplicated labels the edit touched (the label-disjointness
    /// fast-path input).
    pub touched: Vec<xpv_model::Label>,
}

/// A whole batch applied up front: receipts (for the engine's delta
/// accounting) plus per-edit anchors (for the coalescer).
#[derive(Clone, Debug)]
pub struct PreparedBatch {
    /// Application receipts, in batch order.
    pub receipts: Vec<AppliedEdit>,
    /// One anchor record per edit, in batch order.
    pub anchors: Vec<BatchAnchor>,
}

/// Validates and applies the whole batch to `doc`, recording anchors.
/// **Transactional**: on an invalid edit every applied edit is undone (in
/// reverse) and the error names the offending batch position.
pub fn prepare_batch(doc: &mut Tree, edits: &[Edit]) -> Result<PreparedBatch, EditError> {
    let mut receipts: Vec<AppliedEdit> = Vec::with_capacity(edits.len());
    let mut anchors: Vec<BatchAnchor> = Vec::with_capacity(edits.len());
    for (idx, edit) in edits.iter().enumerate() {
        if let Err(e) = validate_edit(doc, edit, idx) {
            for receipt in receipts.iter().rev() {
                undo(doc, receipt);
            }
            return Err(e);
        }
        let anchor = edit.anchor(doc).expect("validated edits have an anchor");
        let spine = spine_to(doc, anchor);
        let receipt = crate::edit::apply_edit(doc, edit).expect("validated edit applies");
        let inserted_root = match &receipt {
            AppliedEdit::Inserted { root, .. } => Some(*root),
            _ => None,
        };
        anchors.push(BatchAnchor { spine, inserted_root, touched: receipt.touched_labels() });
        receipts.push(receipt);
    }
    Ok(PreparedBatch { receipts, anchors })
}

/// How one view is refreshed after coalescing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewDisposition {
    /// Every edit was label-disjoint: the answer set is provably untouched
    /// (no liveness filter needed — a deleted answer's label would have
    /// intersected the view's).
    Clean,
    /// Some edits were relevant but no spine `B`-vector changed and no
    /// inserted subtree survived: only tombstoned answers can have dropped.
    SpineClean,
    /// The spine is too deep for the reachability mask: re-evaluate the
    /// whole document once for the batch (the per-edit path pays this per
    /// edit).
    Full,
    /// Re-scan exactly these merged region roots (ascending, disjoint
    /// subtrees).
    Regions(Vec<NodeId>),
}

/// The coalesced refresh plan for one batch: per-view dispositions, the
/// shared content-retag set, and the partially filled batch counters.
#[derive(Clone, Debug)]
pub struct CoalescedPlan {
    /// One disposition per view, in `defs` order.
    pub dispositions: Vec<ViewDisposition>,
    /// The per-view spine decompositions (reusable by the region scanner).
    pub infos: Vec<SpineInfo>,
    /// Live nodes on some edit's spine: surviving answers in here had their
    /// subtree **content** changed (reported as `ViewDelta::retagged`; a
    /// by-value copy taken before the batch is stale).
    /// Identical for every view (the per-edit maintainer marks every spine
    /// into every view's set too; membership is filtered per view at delta
    /// time).
    pub retag: HashSet<NodeId>,
    /// Counters filled so far (`edits_applied`, `view_edit_checks`,
    /// `label_skips`, `spine_clean`, `regions_before_merge`); the scan /
    /// patch phases add the rest.
    pub stats: MaintainStats,
}

/// One independent scan: re-evaluate view `view` inside `subtree(root)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionTask {
    /// Index into the plan's `defs`/`dispositions`.
    pub view: usize,
    /// The merged region's root (a live post-batch node).
    pub root: NodeId,
}

impl CoalescedPlan {
    /// All region scans of the plan, ordered by `(view, root)` — the
    /// deterministic order results are combined in regardless of execution
    /// schedule.
    pub fn region_tasks(&self) -> Vec<RegionTask> {
        let mut out = Vec::new();
        for (view, d) in self.dispositions.iter().enumerate() {
            if let ViewDisposition::Regions(roots) = d {
                out.extend(roots.iter().map(|&root| RegionTask { view, root }));
            }
        }
        out
    }
}

/// Computes the coalesced refresh plan by diffing spine `B`-vectors between
/// the pre-batch tree `t0` and the post-batch tree `t1` (see the module
/// docs for the correctness argument). One `SubMatcher` per (view, side)
/// is shared across the whole batch, so overlapping spines of a bursty
/// batch amortize their branch matching.
pub fn coalesce_plan(
    t0: &Tree,
    t1: &Tree,
    defs: &[&Pattern],
    prep: &PreparedBatch,
) -> CoalescedPlan {
    let infos: Vec<SpineInfo> = defs.iter().map(|d| SpineInfo::new(d)).collect();
    let mut stats =
        MaintainStats { edits_applied: prep.receipts.len() as u64, ..MaintainStats::default() };

    let mut retag: HashSet<NodeId> = HashSet::new();
    for a in &prep.anchors {
        retag.extend(a.spine.iter().copied().filter(|&n| t1.is_alive(n)));
    }

    let t0_bound = t0.arena_len();
    let mut dispositions = Vec::with_capacity(defs.len());
    for (def, info) in defs.iter().zip(&infos) {
        stats.view_edit_checks += prep.anchors.len() as u64;
        let affected: Vec<&BatchAnchor> = prep
            .anchors
            .iter()
            .filter(|a| {
                if info.unaffected_by_labels(&a.touched) {
                    stats.label_skips += 1;
                    false
                } else {
                    true
                }
            })
            .collect();
        if affected.is_empty() {
            dispositions.push(ViewDisposition::Clean);
            continue;
        }
        if !info.trackable() {
            dispositions.push(ViewDisposition::Full);
            continue;
        }

        let mut m0 = SubMatcher::new(def, t0);
        let mut m1 = SubMatcher::new(def, t1);
        let mut roots: Vec<NodeId> = Vec::new();
        for a in affected {
            // Highest spine node whose B-vector changed wins; nodes new in
            // t1 compare against the all-false vector (they hosted nothing
            // in t0), nodes dead in t1 host nothing now and are skipped.
            let mut dirty: Option<NodeId> = None;
            for &v in &a.spine {
                if !t1.is_alive(v) {
                    continue;
                }
                let b1 = m1.b_vector(info, v);
                let b0 = if v.index() < t0_bound { m0.b_vector(info, v) } else { 0 };
                if b0 != b1 {
                    dirty = Some(v);
                    break;
                }
            }
            let region = dirty.or(a.inserted_root.filter(|&r| t1.is_alive(r)));
            if let Some(r) = region {
                roots.push(r);
            }
        }

        if roots.is_empty() {
            stats.spine_clean += 1;
            dispositions.push(ViewDisposition::SpineClean);
        } else {
            stats.regions_before_merge += roots.len() as u64;
            dispositions.push(ViewDisposition::Regions(merge_regions(t1, roots)));
        }
    }

    CoalescedPlan { dispositions, infos, retag, stats }
}

/// Merges region roots: drops every root with a proper ancestor in the set
/// (its subtree is contained in the ancestor's), returning the survivors
/// ascending — deterministic and pairwise disjoint. Roots that were chosen
/// as "highest changed spine node" for several edits collapse here too:
/// they dedup to one entry.
pub fn merge_regions(t: &Tree, mut roots: Vec<NodeId>) -> Vec<NodeId> {
    roots.sort();
    roots.dedup();
    let set: HashSet<NodeId> = roots.iter().copied().collect();
    roots
        .into_iter()
        .filter(|&r| {
            let mut cur = t.parent(r);
            while let Some(p) = cur {
                if set.contains(&p) {
                    return false;
                }
                cur = t.parent(p);
            }
            true
        })
        .collect()
}

/// Patches every answer set from its disposition and the per-task region
/// results (`results[i]` is the answer/mask pair of `tasks[i]`, produced by
/// either `region_answers` or `xpv_semantics::region_answers_flat`).
/// Schedule-invariant: tasks arrive in `(view, root)` order and regions of
/// one view are disjoint, so the patched set is independent of how the
/// scans were executed.
pub fn apply_region_results(
    t1: &Tree,
    defs: &[&Pattern],
    answers: &mut [Vec<NodeId>],
    plan: &CoalescedPlan,
    tasks: &[RegionTask],
    results: &[(Vec<NodeId>, BitSet)],
    stats: &mut MaintainStats,
) {
    assert_eq!(tasks.len(), results.len(), "one result per region task");
    for (v, d) in plan.dispositions.iter().enumerate() {
        match d {
            ViewDisposition::Clean | ViewDisposition::Regions(_) => {}
            ViewDisposition::SpineClean => answers[v].retain(|&n| t1.is_alive(n)),
            ViewDisposition::Full => {
                stats.full_recomputes += 1;
                answers[v] = evaluate(defs[v], t1);
            }
        }
    }

    // Group the task results by view (tasks are view-major) and patch:
    // keep old answers that are alive and outside every region, splice in
    // the fresh region answers. Inserted slots sit at the arena's end, so
    // region id ranges interleave — the union must be re-sorted.
    let mut idx = 0;
    while idx < tasks.len() {
        let v = tasks[idx].view;
        let mut end = idx;
        let mut mask = BitSet::new(t1.arena_len());
        let mut fresh: Vec<NodeId> = Vec::new();
        while end < tasks.len() && tasks[end].view == v {
            let (found, region) = &results[end];
            stats.regions_scanned += 1;
            stats.region_nodes += region.count() as u64;
            fresh.extend_from_slice(found);
            mask.union_with(region);
            end += 1;
        }
        let mut next: Vec<NodeId> = answers[v]
            .iter()
            .copied()
            .filter(|&n| t1.is_alive(n) && !mask.contains(n.index()))
            .collect();
        next.extend(fresh);
        next.sort();
        answers[v] = next;
        idx = end;
    }
    stats.scans_saved += stats.regions_before_merge.saturating_sub(stats.regions_scanned);
}

/// Runs the serial `Tree`-path coalesced scan for `plan` (one memoizing
/// matcher per view, reused across its regions). The engine substitutes the
/// flat matcher and a thread fan-out for this loop; the property suite pins
/// all three to the same answers.
pub fn scan_regions_serial(
    t1: &Tree,
    defs: &[&Pattern],
    plan: &CoalescedPlan,
    tasks: &[RegionTask],
) -> Vec<(Vec<NodeId>, BitSet)> {
    let mut results = Vec::with_capacity(tasks.len());
    let mut current: Option<(usize, SubMatcher<'_>)> = None;
    for task in tasks {
        if current.as_ref().map(|(v, _)| *v) != Some(task.view) {
            current = Some((task.view, SubMatcher::new(defs[task.view], t1)));
        }
        let (_, m) = current.as_mut().expect("matcher installed above");
        results.push(region_answers(&plan.infos[task.view], t1, task.root, m));
    }
    results
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
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                });
                b.child("item", |b| {
                    b.leaf("name");
                });
            });
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                });
            });
        })
    }

    #[test]
    fn nested_regions_merge_into_ancestors() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let item = t.children(r0)[0];
        let name = t.children(item)[0];
        let r1 = t.children(t.root())[1];
        let merged = merge_regions(&t, vec![name, item, r1, item]);
        assert_eq!(merged, vec![item, r1], "nested + duplicate roots collapse");
        assert_eq!(merge_regions(&t, vec![t.root(), item]), vec![t.root()]);
        assert_eq!(merge_regions(&t, vec![]), vec![]);
    }

    #[test]
    fn bursty_batch_coalesces_to_one_region_per_view() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let item = t.children(r0)[0];
        let graft = || {
            TreeBuilder::root("item", |b| {
                b.leaf("name");
                b.leaf("bids");
            })
        };
        // Three inserts under one hot subtree; the first flips the
        // `[comment]` predicate at the shared spine node r0, so every
        // edit's dirty scan lands on r0 and the roots dedup to one region.
        let edits = vec![
            Edit::InsertSubtree { parent: r0, subtree: TreeBuilder::root("comment", |_| {}) },
            Edit::InsertSubtree { parent: r0, subtree: graft() },
            Edit::InsertSubtree { parent: item, subtree: graft() },
        ];
        let t0 = t.clone();
        let mut t1 = t.clone();
        let q = pat("site/region[comment]/item/name");
        let prep = prepare_batch(&mut t1, &edits).expect("valid batch");
        let plan = coalesce_plan(&t0, &t1, &[&q], &prep);
        assert_eq!(plan.stats.regions_before_merge, 3);
        let tasks = plan.region_tasks();
        assert_eq!(tasks.len(), 1, "three hot-subtree edits collapse to one scan");
        assert_eq!(tasks[0].root, r0, "the shared dirty spine node hosts the merged region");
        // And the coalesced scan reproduces a fresh evaluation.
        let mut answers = vec![evaluate(&q, &t0)];
        let results = scan_regions_serial(&t1, &[&q], &plan, &tasks);
        let mut stats = plan.stats;
        apply_region_results(&t1, &[&q], &mut answers, &plan, &tasks, &results, &mut stats);
        assert_eq!(answers[0], evaluate(&q, &t1));
        assert_eq!(stats.scans_saved, 2);
    }

    #[test]
    fn label_disjoint_batches_are_clean() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let edits = vec![Edit::InsertSubtree {
            parent: r0,
            subtree: TreeBuilder::root("comment", |b| {
                b.leaf("text");
            }),
        }];
        let t0 = t.clone();
        let mut t1 = t.clone();
        let q = pat("site/region/item/name");
        let prep = prepare_batch(&mut t1, &edits).expect("valid");
        let plan = coalesce_plan(&t0, &t1, &[&q], &prep);
        assert_eq!(plan.dispositions[0], ViewDisposition::Clean);
        assert_eq!(plan.stats.label_skips, 1);
        assert!(plan.region_tasks().is_empty());
    }

    #[test]
    fn prepare_batch_rolls_back_on_invalid_edit() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let mut t1 = t.clone();
        let err = prepare_batch(
            &mut t1,
            &[
                Edit::InsertSubtree { parent: r0, subtree: TreeBuilder::root("x", |_| {}) },
                Edit::DeleteSubtree { node: NodeId(9999) },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, EditError::NotLive { edit_index: 1, .. }));
        assert_eq!(t1.canonical_key(), t.canonical_key());
    }

    /// A node inserted by one (label-skipped) edit and made view-relevant by
    /// a later relabel: only the cumulative all-false-in-`t0` rule catches
    /// it — the regression the module-doc argument hinges on.
    #[test]
    fn relabel_inside_inserted_subtree_is_detected() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let q = pat("site//name");
        let t0 = t.clone();
        let mut t1 = t.clone();
        // Edit 0 inserts a view-irrelevant subtree; edit 1 relabels its leaf
        // to a view label.
        let prep = prepare_batch(
            &mut t1,
            &[Edit::InsertSubtree {
                parent: r0,
                subtree: TreeBuilder::root("comment", |b| {
                    b.leaf("text");
                }),
            }],
        )
        .expect("valid");
        let inserted = prep.anchors[0].inserted_root.expect("insert receipt");
        let leaf = t1.children(inserted)[0];
        let prep2 = prepare_batch(
            &mut t1,
            &[Edit::Relabel { node: leaf, label: xpv_model::Label::new("name") }],
        )
        .expect("valid");
        // Coalesce BOTH batches' anchors against the original t0.
        let prep_all = PreparedBatch {
            receipts: prep.receipts.into_iter().chain(prep2.receipts).collect(),
            anchors: prep.anchors.into_iter().chain(prep2.anchors).collect(),
        };
        let plan = coalesce_plan(&t0, &t1, &[&q], &prep_all);
        let tasks = plan.region_tasks();
        let mut answers = vec![evaluate(&q, &t0)];
        let results = scan_regions_serial(&t1, &[&q], &plan, &tasks);
        let mut stats = plan.stats;
        apply_region_results(&t1, &[&q], &mut answers, &plan, &tasks, &results, &mut stats);
        assert_eq!(answers[0], evaluate(&q, &t1), "new name inside inserted subtree found");
        assert!(answers[0].contains(&leaf));
    }
}
