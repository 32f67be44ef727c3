//! Evaluating a compensation over the intersection of materialized views.
//!
//! Two representations, as for a single view:
//!
//! * **virtual** — each view is an output-*node* set over the shared
//!   document (the one form `xpv_engine::MaterializedView` stores); the
//!   intersection is a [`BitSet`] AND over `NodeId`s and the compensation
//!   is evaluated *anchored* at the surviving nodes (never copies data);
//! * **materialized** — each view is a set of independent subtree copies
//!   (what `MaterializedView::apply_materialized` builds on demand); copies
//!   have no node identity, so the intersection is by value (canonical
//!   keys) and answers are compared by value.

use std::collections::HashSet;

use xpv_model::{BitSet, FlatTree, NodeId, Tree};
use xpv_pattern::Pattern;
use xpv_semantics::{evaluate, evaluate_anchored, evaluate_anchored_flat};

/// The node-set intersection `∩ sets[i]` over a document with `capacity`
/// nodes, ascending. Returns the empty set when `sets` is empty.
pub fn intersect_node_sets(capacity: usize, sets: &[&[NodeId]]) -> Vec<NodeId> {
    let Some((first, rest)) = sets.split_first() else {
        return Vec::new();
    };
    let mut acc = BitSet::new(capacity);
    for &n in first.iter() {
        acc.insert(n.index());
    }
    let mut other = BitSet::new(capacity);
    for set in rest {
        other.clear();
        for &n in set.iter() {
            other.insert(n.index());
        }
        // Word-parallel any-common-bit test: disjoint participants empty
        // the whole intersection, so stop before scanning further sets.
        if !acc.intersects(&other) {
            return Vec::new();
        }
        acc.intersect_with(&other);
    }
    acc.iter().map(|i| NodeId(i as u32)).collect()
}

/// Evaluates `compensation` anchored on the node-set intersection of the
/// views' virtual answers: `R(V1(t) ∩ … ∩ Vn(t))` as output nodes of `doc`.
///
/// When the compensation came from an *equivalent* intersection plan this
/// returns exactly the query's direct answers (byte-identical, same order);
/// for a *contained* plan it returns a sound subset.
pub fn answer_intersection_virtual(
    doc: &Tree,
    sets: &[&[NodeId]],
    compensation: &Pattern,
) -> Vec<NodeId> {
    // Capacity is the raw arena bound: edited documents keep tombstoned
    // slots, so `arena_len` ≥ every stored `NodeId` index.
    let anchors = intersect_node_sets(doc.arena_len(), sets);
    evaluate_anchored(compensation, doc, &anchors)
}

/// [`answer_intersection_virtual`] against a frozen [`FlatTree`] snapshot:
/// the anchors come from the same word-parallel node-set intersection and
/// the compensation runs through the flat matcher. Byte-identical to the
/// `Tree` path (the flat matcher is equivalence-tested against it).
pub fn answer_intersection_virtual_flat(
    ft: &FlatTree,
    sets: &[&[NodeId]],
    compensation: &Pattern,
) -> Vec<NodeId> {
    let anchors = intersect_node_sets(ft.arena_len(), sets);
    evaluate_anchored_flat(compensation, ft, &anchors)
}

/// The by-value intersection of materialized view results: the trees of
/// `sets[0]` whose canonical key occurs in every other set, deduplicated by
/// key (subtree copies carry no node identity, so value equality is the
/// only meaningful intersection).
pub fn intersect_trees_by_key<'a>(sets: &[&'a [Tree]]) -> Vec<&'a Tree> {
    let Some((first, rest)) = sets.split_first() else {
        return Vec::new();
    };
    let keyed: Vec<HashSet<String>> =
        rest.iter().map(|set| set.iter().map(Tree::canonical_key).collect()).collect();
    let mut seen: HashSet<String> = HashSet::new();
    first
        .iter()
        .filter(|t| {
            let key = t.canonical_key();
            keyed.iter().all(|s| s.contains(&key)) && seen.insert(key)
        })
        .collect()
}

/// Evaluates `compensation` over the **materialized** intersection: the
/// compensation runs inside each surviving subtree copy and the output
/// subtrees come back deduplicated by value.
pub fn answer_intersection_materialized(sets: &[&[Tree]], compensation: &Pattern) -> Vec<Tree> {
    let mut out: Vec<Tree> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for u in intersect_trees_by_key(sets) {
        for o in evaluate(compensation, u) {
            let (sub, _) = u.subtree(o);
            if seen.insert(sub.canonical_key()) {
                out.push(sub);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    /// Three items: one with bids only, one with shipping only, one with
    /// both.
    fn doc() -> Tree {
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

    #[test]
    fn node_intersection_is_exact_and_ordered() {
        let t = doc();
        let v1 = evaluate(&pat("site/region/item[bids]/name"), &t);
        let v2 = evaluate(&pat("site/region/item[shipping]/name"), &t);
        let both = intersect_node_sets(t.len(), &[&v1, &v2]);
        let direct = evaluate(&pat("site/region/item[bids][shipping]/name"), &t);
        assert_eq!(both, direct);
        assert_eq!(both.len(), 1);
        // Empty input and disjoint sets.
        assert!(intersect_node_sets(t.len(), &[]).is_empty());
        let names = evaluate(&pat("site/region/item/name"), &t);
        let bids = evaluate(&pat("site/region/item/bids"), &t);
        assert!(intersect_node_sets(t.len(), &[&names, &bids]).is_empty());
    }

    #[test]
    fn virtual_answer_matches_direct_evaluation() {
        let t = doc();
        let v1 = evaluate(&pat("site/region/item[bids]/name"), &t);
        let v2 = evaluate(&pat("site/region/item[shipping]/name"), &t);
        let ans = answer_intersection_virtual(&t, &[&v1, &v2], &pat("name"));
        assert_eq!(ans, evaluate(&pat("site/region/item[bids][shipping]/name"), &t));
    }

    #[test]
    fn flat_virtual_answer_matches_tree_path() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        let v1 = evaluate(&pat("site/region/item[bids]/name"), &t);
        let v2 = evaluate(&pat("site/region/item[shipping]/name"), &t);
        assert_eq!(
            answer_intersection_virtual_flat(&ft, &[&v1, &v2], &pat("name")),
            answer_intersection_virtual(&t, &[&v1, &v2], &pat("name"))
        );
        // Disjoint participants: the early-exit path yields empty on both.
        let bids = evaluate(&pat("site/region/item/bids"), &t);
        assert!(answer_intersection_virtual_flat(&ft, &[&v1, &bids], &pat("name")).is_empty());
    }

    #[test]
    fn materialized_intersection_works_by_value() {
        let t = doc();
        let trees = |p: &str| -> Vec<Tree> {
            evaluate(&pat(p), &t).into_iter().map(|n| t.subtree(n).0).collect()
        };
        let v1 = trees("site/region/item[bids]");
        let v2 = trees("site/region/item[shipping]");
        let both = intersect_trees_by_key(&[&v1, &v2]);
        assert_eq!(both.len(), 1, "only the bids+shipping item survives by value");
        let names = answer_intersection_materialized(&[&v1, &v2], &pat("item/name"));
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].label(names[0].root()).name(), "name");
        // Empty inputs.
        assert!(intersect_trees_by_key(&[]).is_empty());
        assert!(answer_intersection_materialized(&[], &pat("item/name")).is_empty());
    }
}
