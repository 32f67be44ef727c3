//! Affected-region computation: which part of the document an edit can
//! influence, for one view pattern.
//!
//! ## The decomposition
//!
//! Write the view's selection path as `u_0 … u_k` (root to output) and, for
//! each spine node `u_i`, let `B_i(v)` hold when the document node `v`
//! satisfies `u_i`'s node test **and** every non-spine branch hanging off
//! `u_i` matches below `v` (child branches at children of `v`, descendant
//! branches at proper descendants). Then
//!
//! > `n ∈ P(t)`  ⇔  there are `v_0 = root(t), v_1, …, v_k = n` respecting
//! > the spine axes with `B_i(v_i)` for all `i`.
//!
//! Each `B_i(v)` depends only on `label(v)` and the subtree below `v`. This
//! is what bounds the re-evaluation region of an edit anchored at `e` (the
//! deepest surviving node whose subtree content changed):
//!
//! * for a node `v` that is neither an ancestor of `e` nor inside the
//!   edited subtree, `subtree(v)` is untouched, so every `B_i(v)` is
//!   unchanged;
//! * hence for an answer candidate `n` outside the edited subtree, the
//!   `B` values along its ancestor path can only have changed at **common
//!   ancestors of `n` and `e`** — nodes on the spine `root → e`;
//! * so if no spine node changed any `B_i`, memberships outside the edited
//!   subtree are unchanged, and the region to re-evaluate is exactly the
//!   edited subtree; otherwise it is the subtree of the **highest** spine
//!   node whose `B`-vector changed (which contains the edited subtree).
//!
//! [`SubMatcher`] computes the `B`-vectors along the spine (memoized branch
//! matching), and [`region_answers`] runs the spine-reachability dynamic
//! program over one region subtree — the restricted evaluation whose
//! results patch the stored answer set. With the region chosen as above the
//! patched set is **equal to full recomputation**; `tests/
//! maintain_properties.rs` checks this against `xpv_semantics::evaluate`
//! on randomized documents, views, and edit streams.

use std::collections::HashMap;

use xpv_model::{BitSet, NodeId, Tree};
use xpv_pattern::{Axis, PatId, Pattern};

/// Spine positions are tracked in a `u64` reachability mask; deeper
/// patterns fall back to full recomputation (sound, never observed in
/// practice).
pub const MAX_TRACKED_DEPTH: usize = 63;

/// The per-view pattern decomposition: selection spine plus the non-spine
/// branches hanging off each spine node. Built once per view and reused
/// across edits.
#[derive(Clone, Debug)]
pub struct SpineInfo {
    /// The selection path `u_0 … u_k`.
    spine: Vec<PatId>,
    /// `axes[i]` is the axis of the spine edge entering `u_i` (`i ≥ 1`;
    /// entry 0 is a meaningless placeholder).
    axes: Vec<Axis>,
    /// For each spine position, the non-spine children of `u_i`.
    branches: Vec<Vec<PatId>>,
    /// Whether any node test is the wildcard (disables the label fast path).
    has_wildcard: bool,
    /// Sorted concrete labels used by the pattern.
    labels: Vec<xpv_model::Label>,
}

impl SpineInfo {
    /// Decomposes `p` into spine and branches.
    pub fn new(p: &Pattern) -> SpineInfo {
        let spine = p.selection_path();
        let axes = spine
            .iter()
            .enumerate()
            .map(|(i, &u)| if i == 0 { Axis::Child } else { p.axis(u) })
            .collect();
        let branches = spine
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let next = spine.get(i + 1).copied();
                p.children(u).iter().copied().filter(|&c| Some(c) != next).collect()
            })
            .collect();
        SpineInfo {
            spine,
            axes,
            branches,
            has_wildcard: p.node_ids().any(|n| p.test(n).is_wildcard()),
            labels: p.label_set(),
        }
    }

    /// Number of spine edges (`k`).
    pub fn depth(&self) -> usize {
        self.spine.len() - 1
    }

    /// `true` when the reachability mask can track every spine position.
    pub fn trackable(&self) -> bool {
        self.depth() <= MAX_TRACKED_DEPTH
    }

    /// The label-disjointness fast path: a pattern without wildcards whose
    /// label set is disjoint from every label an edit touched cannot change
    /// its answer set — touched nodes can never be embedding images, and
    /// the edit alters neither labels nor ancestor relations of any other
    /// node.
    pub fn unaffected_by_labels(&self, touched: &[xpv_model::Label]) -> bool {
        !self.has_wildcard && touched.iter().all(|l| self.labels.binary_search(l).is_err())
    }
}

/// Memoizing subtree matcher for one (pattern, tree-state) pair. Both memo
/// tables key on raw ids, so a matcher must not outlive the tree state it
/// was built against — the maintainer constructs one per (view, edit) side.
pub struct SubMatcher<'a> {
    p: &'a Pattern,
    t: &'a Tree,
    /// `(pattern node, tree node) →` does the pattern subtree match here?
    node_memo: HashMap<(u32, u32), bool>,
    /// `(pattern node, tree node) →` does it match at a proper descendant?
    desc_memo: HashMap<(u32, u32), bool>,
}

impl<'a> SubMatcher<'a> {
    /// A fresh matcher over the current tree state.
    pub fn new(p: &'a Pattern, t: &'a Tree) -> SubMatcher<'a> {
        SubMatcher { p, t, node_memo: HashMap::new(), desc_memo: HashMap::new() }
    }

    /// Does the pattern subtree rooted at `q` embed with `q ↦ w`?
    fn matches_at(&mut self, q: PatId, w: NodeId) -> bool {
        if let Some(&v) = self.node_memo.get(&(q.0, w.0)) {
            return v;
        }
        // Copying the `&'a` field out lets the children slice (lifetime
        // `'a`, not `self`'s) outlive the `&mut self` recursion — no
        // per-node clone of the child list.
        let p = self.p;
        let ok = p.test(q).matches(self.t.label(w))
            && p.children(q).iter().all(|&c| self.witness_below(c, w));
        self.node_memo.insert((q.0, w.0), ok);
        ok
    }

    /// Does the pattern subtree at `c` match at a child (child axis) or
    /// proper descendant (descendant axis) of `v`?
    fn witness_below(&mut self, c: PatId, v: NodeId) -> bool {
        match self.p.axis(c) {
            Axis::Child => {
                let t = self.t;
                t.children(v).iter().any(|&w| self.matches_at(c, w))
            }
            Axis::Descendant => self.desc_witness(c, v),
        }
    }

    fn desc_witness(&mut self, c: PatId, v: NodeId) -> bool {
        if let Some(&hit) = self.desc_memo.get(&(c.0, v.0)) {
            return hit;
        }
        let t = self.t;
        let hit = t.children(v).iter().any(|&w| self.matches_at(c, w) || self.desc_witness(c, w));
        self.desc_memo.insert((c.0, v.0), hit);
        hit
    }

    /// `B_i(v)`: node test of the `i`-th spine node plus all its branches.
    pub fn b_holds(&mut self, info: &SpineInfo, i: usize, v: NodeId) -> bool {
        self.p.test(info.spine[i]).matches(self.t.label(v))
            && info.branches[i].iter().all(|&c| self.witness_below(c, v))
    }

    /// The full `B`-vector at `v` as a bitmask over spine positions.
    pub fn b_vector(&mut self, info: &SpineInfo, v: NodeId) -> u64 {
        let mut mask = 0u64;
        for i in 0..info.spine.len() {
            if self.b_holds(info, i, v) {
                mask |= 1 << i;
            }
        }
        mask
    }
}

/// The root-first ancestor path `root → n`, inclusive.
pub fn spine_to(t: &Tree, n: NodeId) -> Vec<NodeId> {
    let mut path = vec![n];
    let mut cur = n;
    while let Some(p) = t.parent(cur) {
        path.push(p);
        cur = p;
    }
    path.reverse();
    path
}

/// Restricted evaluation: the view's answers **inside `subtree(region_root)`**
/// on the current tree, plus a bitset marking the scanned region (sized by
/// `arena_len`). Runs the spine-reachability DP: reach masks flow from the
/// root down the path to `region_root` and then through the region subtree;
/// a node is an answer iff bit `k` of its reach mask is set.
pub fn region_answers(
    info: &SpineInfo,
    t: &Tree,
    region_root: NodeId,
    matcher: &mut SubMatcher<'_>,
) -> (Vec<NodeId>, BitSet) {
    debug_assert!(info.trackable());
    let k = info.depth();
    let mut region = BitSet::new(t.arena_len());
    let mut found: Vec<NodeId> = Vec::new();

    // Walk the path root → region_root, computing reach and the union of
    // ancestor reach masks (for descendant spine edges).
    let path = spine_to(t, region_root);
    let mut reach_here = 0u64;
    let mut anc_union = 0u64;
    for (step, &v) in path.iter().enumerate() {
        let (r, a) = if step == 0 {
            // Only the document root can host u_0 (strong embeddings).
            (if matcher.b_holds(info, 0, v) { 1u64 } else { 0 }, 0u64)
        } else {
            let a = anc_union | reach_here;
            (step_reach(info, v, reach_here, a, matcher), a)
        };
        reach_here = r;
        anc_union = a;
    }

    // DFS through the region subtree.
    let mut stack: Vec<(NodeId, u64, u64)> = vec![(region_root, reach_here, anc_union)];
    while let Some((v, reach, anc)) = stack.pop() {
        region.insert(v.index());
        if reach & (1 << k) != 0 {
            found.push(v);
        }
        let below_anc = anc | reach;
        for &c in t.children(v) {
            let r = step_reach(info, c, reach, below_anc, matcher);
            stack.push((c, r, below_anc));
        }
    }
    found.sort();
    (found, region)
}

/// One downward step of the reachability DP: the reach mask of `v` given
/// its parent's mask and the union over its proper ancestors.
fn step_reach(
    info: &SpineInfo,
    v: NodeId,
    parent_reach: u64,
    anc_union: u64,
    matcher: &mut SubMatcher<'_>,
) -> u64 {
    let mut r = 0u64;
    for i in 1..info.spine.len() {
        let prev_ok = match info.axes[i] {
            Axis::Child => parent_reach & (1 << (i - 1)) != 0,
            Axis::Descendant => anc_union & (1 << (i - 1)) != 0,
        };
        if prev_ok && matcher.b_holds(info, i, v) {
            r |= 1 << i;
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;
    use xpv_pattern::parse_xpath;
    use xpv_semantics::evaluate;

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

    /// Region evaluation rooted at the document root is exactly full
    /// evaluation, for a mix of axes, wildcards, and branches.
    #[test]
    fn whole_tree_region_matches_evaluate() {
        let t = doc();
        for q in [
            "site/region/item/name",
            "site//name",
            "site/region/item[bids]/name",
            "site//*",
            "site/region/item[bids]",
            "*//item/name",
            "site",
        ] {
            let p = pat(q);
            let info = SpineInfo::new(&p);
            let mut m = SubMatcher::new(&p, &t);
            let (found, region) = region_answers(&info, &t, t.root(), &mut m);
            assert_eq!(found, evaluate(&p, &t), "query {q}");
            assert_eq!(region.count(), t.len(), "{q} scans the whole tree");
        }
    }

    /// A region rooted below the root returns exactly the global answers
    /// that fall inside it.
    #[test]
    fn subtree_region_matches_restriction() {
        let t = doc();
        let region_root = t.children(t.children(t.root())[0])[0]; // first item
        for q in ["site/region/item/name", "site//name", "site/region/item[bids]/name"] {
            let p = pat(q);
            let info = SpineInfo::new(&p);
            let mut m = SubMatcher::new(&p, &t);
            let (found, region) = region_answers(&info, &t, region_root, &mut m);
            let global = evaluate(&p, &t);
            let expected: Vec<NodeId> =
                global.into_iter().filter(|n| region.contains(n.index())).collect();
            assert_eq!(found, expected, "query {q}");
        }
    }

    #[test]
    fn label_fast_path_requires_no_wildcards() {
        let with_star = SpineInfo::new(&pat("site//*"));
        assert!(!with_star.unaffected_by_labels(&[xpv_model::Label::new("zzz")]));
        let plain = SpineInfo::new(&pat("site/region/item"));
        assert!(plain.unaffected_by_labels(&[xpv_model::Label::new("zzz")]));
        assert!(!plain.unaffected_by_labels(&[xpv_model::Label::new("item")]));
    }
}
