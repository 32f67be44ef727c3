//! Structural operations on patterns.
//!
//! This module implements every pattern-level construction the paper uses:
//!
//! * the *k-sub-pattern* `P≥k` and the *k-upper-pattern* `P≤k` (Section 3.1),
//!   together with their strict variants `P>k`, `P<k`;
//! * root-edge relaxation `Q_r//` (Section 4);
//! * pattern combination `P1 k⇒ P2` (Section 3.1);
//! * pattern composition `R ◦ V` (Section 2.3) — the algebraic heart of
//!   view-based rewriting, with the glb label merge and the empty pattern `Υ`
//!   modeled as `None`;
//! * the `l`-extension `Q^{+l}` and output lifting `Q^{j→}` (Section 5.3);
//! * the prefix construction `l//Q` (Section 5.2).
//!
//! All operations are persistent: they return fresh patterns and never mutate
//! their inputs.

use crate::pattern::{Axis, NodeTest, PatId, Pattern};

impl Pattern {
    /// Copies this pattern, optionally skipping the subtree rooted at
    /// `exclude`. Returns the copy and the old→new id map (excluded nodes do
    /// not appear in the map). The output marker is **not** transferred;
    /// callers position it themselves.
    fn copy_excluding(&self, exclude: Option<PatId>) -> (Pattern, Vec<(PatId, PatId)>) {
        assert_ne!(exclude, Some(self.root()), "cannot exclude the root");
        let mut out = Pattern::single(self.test(self.root()));
        let mut map = vec![(self.root(), out.root())];
        let mut stack = vec![(self.root(), out.root())];
        while let Some((old, new)) = stack.pop() {
            for &c in self.children(old) {
                if Some(c) == exclude {
                    continue;
                }
                let nc = out.add_child(new, self.axis(c), self.test(c));
                map.push((c, nc));
                stack.push((c, nc));
            }
        }
        (out, map)
    }

    fn mapped(map: &[(PatId, PatId)], old: PatId) -> PatId {
        map.iter()
            .find(|(o, _)| *o == old)
            .map(|(_, n)| *n)
            .expect("node must be present in the copy")
    }

    /// The *k-sub-pattern* `P≥k`: the subtree of `P` rooted at the k-node,
    /// keeping `P`'s output node (Section 3.1).
    ///
    /// # Panics
    ///
    /// Panics if `k > depth()`.
    pub fn sub_pattern_geq(&self, k: usize) -> Pattern {
        let k_node = self.k_node(k);
        let mut out = Pattern::single(self.test(k_node));
        let mut map = vec![(k_node, out.root())];
        let children: Vec<PatId> = self.children(k_node).to_vec();
        for c in children {
            let dst_root = out.root();
            self.copy_subtree_into(c, &mut out, dst_root, self.axis(c), &mut map);
        }
        let new_out = Self::mapped(&map, self.output());
        out.set_output(new_out);
        out
    }

    /// The strict variant `P>k`, defined as `P≥(k+1)` (Section 3.1).
    pub fn sub_pattern_gt(&self, k: usize) -> Pattern {
        self.sub_pattern_geq(k + 1)
    }

    /// The *k-upper-pattern* `P≤k`: `P` with the subtree rooted at the
    /// (k+1)-node pruned; the output node becomes the k-node (Section 3.1).
    /// For `k = depth()` this is `P` itself.
    pub fn upper_pattern_leq(&self, k: usize) -> Pattern {
        let d = self.depth();
        assert!(k <= d, "k={k} exceeds pattern depth {d}");
        let exclude = if k < d { Some(self.k_node(k + 1)) } else { None };
        let (mut out, map) = self.copy_excluding(exclude);
        let new_out = Self::mapped(&map, self.k_node(k));
        out.set_output(new_out);
        out
    }

    /// The strict variant `P<k`, defined as `P≤(k-1)` (Section 3.1).
    pub fn upper_pattern_lt(&self, k: usize) -> Pattern {
        assert!(k >= 1, "P<k requires k >= 1");
        self.upper_pattern_leq(k - 1)
    }

    /// Root-edge relaxation `Q_r//` (Section 4): every edge emanating from
    /// the root becomes a descendant edge. `Q ⊑ Q_r//` always holds.
    pub fn relax_root_edges(&self) -> Pattern {
        let mut out = self.clone();
        let kids: Vec<PatId> = out.children(out.root()).to_vec();
        for c in kids {
            out.set_axis(c, Axis::Descendant);
        }
        out
    }

    /// Pattern combination `P1 k⇒ P2` (Section 3.1): a descendant edge is
    /// introduced from the k-node of `self` to the root of `other`; the
    /// result keeps `self`'s root and takes `other`'s output node.
    pub fn combine(&self, k: usize, other: &Pattern) -> Pattern {
        let (mut out, map) = self.copy_excluding(None);
        let at = Self::mapped(&map, self.k_node(k));
        let mut omap = Vec::new();
        other.copy_subtree_into(other.root(), &mut out, at, Axis::Descendant, &mut omap);
        let new_out = Self::mapped(&omap, other.output());
        out.set_output(new_out);
        out
    }

    /// The `l`-extension `Q^{+l}` (Section 5.3): the output node gets a new
    /// child with test `new_test`; every *other* leaf gets a new wildcard
    /// child. All new edges are child edges.
    pub fn extend(&self, new_test: NodeTest) -> Pattern {
        let mut out = self.clone();
        let leaves: Vec<PatId> = out.node_ids().filter(|&n| out.is_leaf(n)).collect();
        for leaf in leaves {
            if leaf != out.output() {
                out.add_child(leaf, Axis::Child, NodeTest::Wildcard);
            }
        }
        let o = out.output();
        out.add_child(o, Axis::Child, new_test);
        out
    }

    /// Output lifting `Q^{j→}` (Section 5.3): the same pattern with the
    /// output node moved to the j-node. `Q^{d→} = Q`.
    pub fn lift_output(&self, j: usize) -> Pattern {
        let mut out = self.clone();
        let target = out.k_node(j);
        out.set_output(target);
        out
    }

    /// Returns the pattern with the subtree rooted at `n` removed. Used by
    /// the redundancy-elimination pass in `xpv-semantics` (cf. the paper's
    /// discussion of non-redundancy, after \[10\]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is the root or lies on the selection path (removing it
    /// would not leave a pattern with the same output node).
    pub fn without_subtree(&self, n: PatId) -> Pattern {
        assert!(!self.selection_path().contains(&n), "cannot remove a selection-path node");
        let (mut out, map) = self.copy_excluding(Some(n));
        let new_out = Self::mapped(&map, self.output());
        out.set_output(new_out);
        out
    }

    /// Removes duplicate sibling subtrees (same axis, isomorphic subtree):
    /// a purely syntactic, always equivalence-preserving reduction — two
    /// identical sibling branches impose identical constraints.
    pub fn dedup_sibling_branches(&self) -> Pattern {
        let mut out = self.clone();
        loop {
            let mut victim: Option<PatId> = None;
            let selection = out.selection_path();
            'outer: for n in out.node_ids() {
                let kids = out.children(n);
                for (i, &a) in kids.iter().enumerate() {
                    for &b in &kids[i + 1..] {
                        if selection.contains(&b) {
                            continue;
                        }
                        // A subtree's code starts with its incoming axis.
                        if out.canonical_code_at(a) == out.canonical_code_at(b) {
                            victim = Some(b);
                            break 'outer;
                        }
                    }
                }
            }
            match victim {
                Some(v) => out = out.without_subtree(v),
                None => return out,
            }
        }
    }

    /// The prefix construction `l//Q` (Section 5.2): a new root with test
    /// `root_test` is connected to `Q`'s root by a descendant edge; the
    /// output node is `Q`'s.
    pub fn prefix_descendant(root_test: NodeTest, q: &Pattern) -> Pattern {
        let mut out = Pattern::single(root_test);
        let mut map = Vec::new();
        let dst_root = out.root();
        q.copy_subtree_into(q.root(), &mut out, dst_root, Axis::Descendant, &mut map);
        let new_out = Self::mapped(&map, q.output());
        out.set_output(new_out);
        out
    }
}

/// Pattern composition `R ◦ V` (Section 2.3).
///
/// The output node of `V` and the root of `R` are merged into one node
/// carrying the glb of their tests; the children of the merged node are those
/// of both. The result has `V`'s root and `R`'s output node (the merged node
/// itself when `root(R) = out(R)`).
///
/// Returns `None` for the empty pattern `Υ` (glb clash `⋄`): applying `Υ` to
/// any tree yields the empty result.
pub fn compose(r: &Pattern, v: &Pattern) -> Option<Pattern> {
    let merged_test = NodeTest::glb(r.test(r.root()), v.test(v.output()))?;
    let (mut out, vmap) = v.copy_excluding(None);
    let merged = Pattern::mapped(&vmap, v.output());
    out.set_test(merged, merged_test);
    let mut rmap = vec![(r.root(), merged)];
    let r_kids: Vec<PatId> = r.children(r.root()).to_vec();
    for c in r_kids {
        r.copy_subtree_into(c, &mut out, merged, r.axis(c), &mut rmap);
    }
    let new_out = Pattern::mapped(&rmap, r.output());
    out.set_output(new_out);
    Some(out)
}

/// Iterated composition `R ◦ V1 ◦ V2 ◦ …` (left-associated onto the view
/// chain). Propagates `Υ`.
pub fn compose_chain(r: &Pattern, views: &[&Pattern]) -> Option<Pattern> {
    let mut acc = r.clone();
    for v in views {
        acc = compose(&acc, v)?;
    }
    Some(acc)
}

/// The **exact intersection pattern** of several patterns: a single pattern
/// `M` with `M(t) = P1(t) ∩ … ∩ Pn(t)` (as output-*node* sets) on **every**
/// document `t`, when one exists in the fragment.
///
/// In general the intersection of tree-pattern answer sets is only
/// expressible as a DAG pattern (Cautis, Deutsch, Ileana & Onose,
/// *Rewriting XPath Queries using View Intersections*). This function
/// handles the tree-expressible case, where the selection paths of all
/// participants are forced to map onto the *same* document nodes for any
/// shared output node:
///
/// * all patterns have the same selection depth `k`;
/// * in every pattern, each selection edge **below the root edge** is a
///   child edge (the root edge may be `/` or `//` per pattern — the root is
///   pinned to the document root, and child edges pin every deeper
///   selection node to a fixed ancestor of the output node);
/// * the node tests along the selection paths are glb-compatible.
///
/// Under those conditions `M` is the node-wise glb of the selection paths —
/// the root edge is `/` if *any* participant uses `/`, else `//` — carrying
/// every predicate branch of every participant at the corresponding
/// selection node (duplicates removed). An embedding of `M` restricts to an
/// embedding of each `Pi` (so `M(t) ⊆ ∩ Pi(t)`), and conversely any output
/// node in every `Pi(t)` satisfies all of `M`'s constraints on the forced
/// selection mapping (so `∩ Pi(t) ⊆ M(t)`).
///
/// Returns `None` when the patterns do not meet the shape conditions *or*
/// when a glb clash makes the intersection empty on every document (the
/// empty pattern `Υ` is not a value of [`Pattern`]); callers that need to
/// distinguish the two cases can test the clash separately via
/// [`NodeTest::glb`].
pub fn intersect_patterns(patterns: &[&Pattern]) -> Option<Pattern> {
    let (first, rest) = patterns.split_first()?;
    if rest.is_empty() {
        return Some((*first).clone());
    }
    let k = first.depth();
    for p in patterns {
        if p.depth() != k {
            return None;
        }
        // Every selection edge below the root edge must be a child edge,
        // otherwise the selection mapping is not forced by the output node.
        if p.selection_axes().iter().skip(1).any(|&a| a != Axis::Child) {
            return None;
        }
    }

    // glb-merge the selection spines.
    let mut tests: Vec<NodeTest> = first.selection_path().iter().map(|&n| first.test(n)).collect();
    for p in rest {
        for (j, &n) in p.selection_path().iter().enumerate() {
            tests[j] = NodeTest::glb(tests[j], p.test(n))?;
        }
    }
    let root_axis =
        if patterns.iter().any(|p| k >= 1 && p.axis(p.selection_path()[1]) == Axis::Child) {
            Axis::Child
        } else {
            Axis::Descendant
        };

    // Build the spine, then hang every participant's predicate branches at
    // the corresponding spine node.
    let mut out = Pattern::single(tests[0]);
    let mut spine = vec![out.root()];
    for (j, &test) in tests.iter().enumerate().skip(1) {
        let axis = if j == 1 { root_axis } else { Axis::Child };
        let prev = spine[j - 1];
        spine.push(out.add_child(prev, axis, test));
    }
    out.set_output(spine[k]);
    for p in patterns {
        let path = p.selection_path();
        for (j, &sel) in path.iter().enumerate() {
            for &c in p.children(sel) {
                if j + 1 < path.len() && c == path[j + 1] {
                    continue; // the selection child is the spine itself
                }
                let mut map = Vec::new();
                p.copy_subtree_into(c, &mut out, spine[j], p.axis(c), &mut map);
            }
        }
    }
    // Identical branches contributed by different participants collapse.
    Some(out.dedup_sibling_branches())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("test pattern parses")
    }

    #[test]
    fn sub_pattern_geq_basic() {
        let p = pat("a[b]//c[e]/d");
        // depth 2, selection path a,c,d
        assert_eq!(p.depth(), 2);
        let p1 = p.sub_pattern_geq(1);
        assert_eq!(p1.to_string(), "c[e]/d");
        assert_eq!(p1.depth(), 1);
        let p2 = p.sub_pattern_geq(2);
        assert_eq!(p2.to_string(), "d");
        let p0 = p.sub_pattern_geq(0);
        assert!(p0.structurally_eq(&p));
    }

    #[test]
    fn upper_pattern_leq_prunes_only_selection_branch() {
        let p = pat("a[b]//c[e]/d");
        let up1 = p.upper_pattern_leq(1);
        // The d-subtree goes; the e-branch of c stays; output becomes c.
        assert_eq!(up1.to_string(), "a[b]//c[e]");
        assert_eq!(up1.depth(), 1);
        let up0 = p.upper_pattern_leq(0);
        assert_eq!(up0.to_string(), "a[b]");
        assert_eq!(up0.depth(), 0);
        let up2 = p.upper_pattern_leq(2);
        assert!(up2.structurally_eq(&p));
    }

    #[test]
    fn strict_variants_alias() {
        let p = pat("a/b/c/d");
        assert!(p.sub_pattern_gt(1).structurally_eq(&p.sub_pattern_geq(2)));
        assert!(p.upper_pattern_lt(2).structurally_eq(&p.upper_pattern_leq(1)));
    }

    #[test]
    fn relax_root_edges_only_touches_root() {
        let p = pat("a[b]/c/d");
        let r = p.relax_root_edges();
        assert_eq!(r.to_string(), "a[.//b]//c/d");
        // Deeper edges unchanged.
        let c = r.k_node(1);
        let d = r.k_node(2);
        assert_eq!(r.axis(c), Axis::Descendant);
        assert_eq!(r.axis(d), Axis::Child);
    }

    #[test]
    fn combine_reconstructs_pattern_with_descendant_entry() {
        // If a descendant edge enters the k-node, P<k (k-1)=> P>=k equals P.
        let p = pat("a/b//c/d");
        let upper = p.upper_pattern_lt(2); // a/b
        let lower = p.sub_pattern_geq(2); // c/d
        let rebuilt = upper.combine(1, &lower);
        assert!(rebuilt.structurally_eq(&p));
    }

    #[test]
    fn compose_merges_with_glb() {
        // Figure 1 setting: out(V) and root(R) both wildcard => merged node *.
        let v = pat("a[b]/*");
        let r = pat("*//e[d]");
        let rv = compose(&r, &v).expect("compatible");
        assert_eq!(rv.to_string(), "a[b]/*//e[d]");
        assert_eq!(rv.depth(), 2);

        // Label on one side wins.
        let v2 = pat("a/x");
        let r2 = pat("*//e");
        assert_eq!(compose(&r2, &v2).expect("ok").to_string(), "a/x//e");
        let r3 = pat("x//e");
        assert_eq!(compose(&r3, &v2).expect("ok").to_string(), "a/x//e");
    }

    #[test]
    fn compose_clash_is_empty_pattern() {
        let v = pat("a/x");
        let r = pat("y//e");
        assert!(compose(&r, &v).is_none());
    }

    #[test]
    fn compose_single_node_rewriting() {
        // root(R) = out(R): the merged node is the output of R◦V.
        let v = pat("a//b/*");
        let r = pat("e");
        let rv = compose(&r, &v).expect("ok");
        assert_eq!(rv.to_string(), "a//b/e");
        assert_eq!(rv.output(), rv.k_node(2));
    }

    #[test]
    fn compose_keeps_children_of_both_sides() {
        let v = pat("a/*[w]");
        let r = pat("*[x]//y");
        let rv = compose(&r, &v).expect("ok");
        // Merged node has branches w (from V) and x (from R) and the selection
        // child y (from R).
        let merged = rv.k_node(1);
        assert_eq!(rv.children(merged).len(), 3);
        assert_eq!(rv.depth(), 2);
    }

    #[test]
    fn compose_chain_folds() {
        let v1 = pat("a/*");
        let v2 = pat("*/b");
        let r = pat("*//c");
        let direct = compose(&compose(&r, &v2).expect("ok"), &v1).expect("ok");
        let chained = compose_chain(&r, &[&v2, &v1]).expect("ok");
        assert!(direct.structurally_eq(&chained));
    }

    #[test]
    fn extend_adds_children_per_paper() {
        // out is internal: out gets the l-child, every leaf gets a *-child.
        let p = pat("a[b]/c/d"); // leaves: b, d(=out)
        let e = p.extend(NodeTest::label("mu_label"));
        // b (leaf, not out) gains a * child; d gains the mu_label child only.
        // The output node stays d, so the new child prints as a predicate.
        assert_eq!(e.to_string(), "a[b/*]/c/d[mu_label]");

        // out is a leaf: only the l-child is added to it.
        let p2 = pat("a/b");
        let e2 = p2.extend(NodeTest::Wildcard);
        assert_eq!(e2.to_string(), "a/b[*]");
    }

    #[test]
    fn extend_output_stays_put() {
        let p = pat("a/b");
        let e = p.extend(NodeTest::label("mu2"));
        // Output is still the b node, not the new child.
        assert_eq!(e.depth(), 1);
        assert_eq!(e.test(e.output()), NodeTest::label("b"));
    }

    #[test]
    fn lift_output_moves_selection() {
        let p = pat("a/b/c/d");
        let l2 = p.lift_output(2);
        assert_eq!(l2.depth(), 2);
        assert_eq!(l2.test(l2.output()), NodeTest::label("c"));
        // Lifting to d (the depth) is the identity.
        assert!(p.lift_output(3).structurally_eq(&p));
        // The pruned-away part is NOT pruned: lifting keeps all nodes.
        assert_eq!(l2.len(), 4);
    }

    #[test]
    fn prefix_descendant_builds_star_slashslash() {
        let q = pat("b[c]/d");
        let p = Pattern::prefix_descendant(NodeTest::Wildcard, &q);
        assert_eq!(p.to_string(), "*//b[c]/d");
        assert_eq!(p.depth(), q.depth() + 1);
    }

    #[test]
    fn without_subtree_removes_branch() {
        let p = pat("a[b/c][d]//e");
        let b = p.children(p.root())[0];
        let smaller = p.without_subtree(b);
        assert_eq!(smaller.to_string(), "a[d]//e");
        assert_eq!(smaller.len(), p.len() - 2);
    }

    #[test]
    #[should_panic(expected = "selection-path")]
    fn without_subtree_rejects_selection_nodes() {
        let p = pat("a/b/c");
        let b = p.k_node(1);
        let _ = p.without_subtree(b);
    }

    #[test]
    fn dedup_sibling_branches_removes_twins() {
        let p = pat("a[b][b]/c");
        let d = p.dedup_sibling_branches();
        assert_eq!(d.to_string(), "a[b]/c");
        // Deep twins too.
        let p2 = pat("a[x[y]][x[y]][x[z]]/c");
        let d2 = p2.dedup_sibling_branches();
        assert_eq!(d2.len(), p2.len() - 2);
        // Different axes are not twins.
        let p3 = pat("a[b][.//b]/c");
        assert_eq!(p3.dedup_sibling_branches().len(), p3.len());
    }

    #[test]
    fn dedup_preserves_selection_branch() {
        // The selection child is never removed even if a twin branch exists.
        let p = pat("a[b]/b");
        let d = p.dedup_sibling_branches();
        assert_eq!(d.depth(), 1);
        // The branch b and the selection b are NOT twins (output marker).
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn intersect_patterns_merges_spines_and_predicates() {
        let v1 = pat("site/region/item[bids]/name");
        let v2 = pat("site/region/item[shipping]/name");
        let m = intersect_patterns(&[&v1, &v2]).expect("merges");
        assert_eq!(m.to_string(), "site/region/item[bids][shipping]/name");
        assert_eq!(m.depth(), 3);
        // Identical predicate branches collapse.
        let m2 = intersect_patterns(&[&v1, &v1]).expect("merges");
        assert!(m2.structurally_eq(&v1));
    }

    #[test]
    fn intersect_patterns_glbs_tests_and_root_axis() {
        // Wildcards resolve to the concrete label; a `/` root edge wins
        // over `//`.
        let v1 = pat("a//*[x]/c");
        let v2 = pat("a/b[y]/c");
        let m = intersect_patterns(&[&v1, &v2]).expect("merges");
        assert_eq!(m.to_string(), "a/b[x][y]/c");
        // All-descendant root edges stay descendant.
        let m2 = intersect_patterns(&[&pat("a//b[x]/c"), &pat("a//b[y]/c")]).expect("merges");
        assert_eq!(m2.to_string(), "a//b[x][y]/c");
    }

    #[test]
    fn intersect_patterns_rejects_unforced_shapes() {
        // Depth mismatch.
        assert!(intersect_patterns(&[&pat("a/b/c"), &pat("a/c")]).is_none());
        // A descendant edge below the root edge leaves the selection mapping
        // unforced.
        assert!(intersect_patterns(&[&pat("a/b//c"), &pat("a/b/c")]).is_none());
        // glb clash on a spine node: the intersection is empty on every
        // document.
        assert!(intersect_patterns(&[&pat("a/b/c"), &pat("a/d/c")]).is_none());
        // Empty input.
        assert!(intersect_patterns(&[]).is_none());
    }

    #[test]
    fn intersect_patterns_singleton_and_depth_zero() {
        let v = pat("a[b]//c");
        assert!(intersect_patterns(&[&v]).expect("singleton").structurally_eq(&v));
        let m = intersect_patterns(&[&pat("a[x]"), &pat("a[y]")]).expect("depth-0 merge");
        assert_eq!(m.to_string(), "a[x][y]");
        assert_eq!(m.depth(), 0);
    }

    #[test]
    fn intersect_patterns_keeps_predicates_below_output() {
        let v1 = pat("a/b[c/d]");
        let v2 = pat("a/b[e]");
        let m = intersect_patterns(&[&v1, &v2]).expect("merges");
        assert_eq!(m.to_string(), "a/b[c/d][e]");
    }

    #[test]
    fn ops_do_not_mutate_inputs() {
        let p = pat("a[b]//c/d");
        let before = p.canonical_key();
        let _ = p.sub_pattern_geq(1);
        let _ = p.upper_pattern_leq(1);
        let _ = p.relax_root_edges();
        let _ = p.extend(NodeTest::Wildcard);
        let _ = p.lift_output(0);
        let q = pat("x/y");
        let _ = p.combine(1, &q);
        let _ = compose(&q, &p);
        assert_eq!(p.canonical_key(), before);
    }
}
