//! Materialized views over XML documents.
//!
//! A materialized view (Section 2.4) is the precomputed result `V(t)` of
//! applying a view pattern to a document. The one stored form is the
//! **virtual** one: the output-node set of `V` on `t`, computed by the flat
//! matcher on the document's frozen [`FlatTree`] and keeping node
//! identities. A rewriting `R` is then evaluated *anchored* at those nodes,
//! which is exactly `R(V(t))` by Proposition 2.4 and never copies data.
//!
//! The **materialized** form — independent subtree copies, what a cache
//! shipping results across a wire would hold — is built on demand by
//! [`MaterializedView::apply_materialized`] from the stored nodes. Answers
//! computed that way are compared by value (canonical keys), since copies
//! have no node identity in the source document.
//!
//! Both forms are tested to agree with direct evaluation whenever the
//! planner hands us an equivalent rewriting.

use std::collections::HashSet;

use xpv_model::{FlatTree, NodeId, Tree};
use xpv_pattern::Pattern;
use xpv_semantics::{evaluate, evaluate_anchored_flat, evaluate_flat};

/// The precomputed result of a view over one document: its output nodes.
#[derive(Clone, Debug)]
pub struct MaterializedView {
    name: String,
    def: Pattern,
    nodes: Vec<NodeId>,
}

impl MaterializedView {
    /// Evaluates `def` over the frozen document `doc` and stores the
    /// answer node set. Callers holding a [`Tree`] freeze it first
    /// ([`FlatTree::freeze`]).
    pub fn materialize(name: impl Into<String>, def: Pattern, doc: &FlatTree) -> MaterializedView {
        let nodes = evaluate_flat(&def, doc);
        MaterializedView { name: name.into(), def, nodes }
    }

    /// The view's name (cache key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The view definition `V`.
    pub fn definition(&self) -> &Pattern {
        &self.def
    }

    /// `V(t)` as output nodes of the source document, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of answers in the view.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the view result is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The view after an incremental-maintenance delta: same name and
    /// definition, with the answer set replaced by `new_nodes` (the
    /// maintainer's patched, ascending set).
    pub fn apply_delta(&self, new_nodes: Vec<NodeId>) -> MaterializedView {
        MaterializedView { name: self.name.clone(), def: self.def.clone(), nodes: new_nodes }
    }

    /// Applies a rewriting to the view **virtually**: `R(V(t))` as output
    /// nodes of the source document (Proposition 2.4's right-hand side),
    /// evaluated by the flat matcher anchored at the stored nodes.
    pub fn apply_virtual(&self, r: &Pattern, doc: &FlatTree) -> Vec<NodeId> {
        evaluate_anchored_flat(r, doc, &self.nodes)
    }

    /// Applies a rewriting to **materialized** copies of the view's
    /// answers, built on demand from `doc`: `R(V(t))` as a set of result
    /// trees, deduplicated by value.
    pub fn apply_materialized(&self, r: &Pattern, doc: &Tree) -> Vec<Tree> {
        let mut out: Vec<Tree> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for &n in &self.nodes {
            let (copy, _) = doc.subtree(n);
            for o in evaluate(r, &copy) {
                let (sub, _) = copy.subtree(o);
                if seen.insert(sub.canonical_key()) {
                    out.push(sub);
                }
            }
        }
        out
    }
}

/// Normalizes a node-set answer over `doc` to a deduplicated value set
/// (canonical keys), for comparing virtual and materialized answers.
pub fn answer_value_set(doc: &Tree, nodes: &[NodeId]) -> Vec<String> {
    let mut keys: Vec<String> = Vec::with_capacity(nodes.len());
    for &n in nodes {
        let mut key = String::new();
        doc.canonical_key_into(n, &mut key);
        keys.push(key);
    }
    keys.sort();
    keys.dedup();
    keys
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
        TreeBuilder::root("lib", |b| {
            b.child("shelf", |b| {
                b.child("book", |b| {
                    b.leaf("title");
                    b.leaf("author");
                });
                b.child("book", |b| {
                    b.leaf("title");
                });
            });
            b.child("shelf", |b| {
                b.child("box", |b| {
                    b.child("book", |b| {
                        b.leaf("title");
                        b.leaf("author");
                    });
                });
            });
        })
    }

    fn frozen(d: &Tree) -> FlatTree {
        FlatTree::freeze(d)
    }

    #[test]
    fn materialization_counts() {
        let d = doc();
        let v = MaterializedView::materialize("books", pat("lib//book"), &frozen(&d));
        assert_eq!(v.len(), 3);
        assert_eq!(v.nodes(), evaluate(&pat("lib//book"), &d).as_slice());
        assert!(!v.is_empty());
        assert_eq!(v.name(), "books");
    }

    #[test]
    fn virtual_application_matches_direct() {
        let d = doc();
        let ft = frozen(&d);
        let v = MaterializedView::materialize("books", pat("lib//book"), &ft);
        // R = book/title applied to the view = lib//book/title directly.
        let via_view = v.apply_virtual(&pat("book/title"), &ft);
        let direct = evaluate(&pat("lib//book/title"), &d);
        assert_eq!(via_view, direct);
        assert_eq!(via_view.len(), 3);
    }

    #[test]
    fn materialized_application_matches_by_value() {
        let d = doc();
        let ft = frozen(&d);
        let v = MaterializedView::materialize("books", pat("lib//book"), &ft);
        let r = pat("book[author]/title");
        let via_nodes = v.apply_virtual(&r, &ft);
        let via_trees = v.apply_materialized(&r, &d);
        let mut tree_keys: Vec<String> = via_trees.iter().map(Tree::canonical_key).collect();
        tree_keys.sort();
        assert_eq!(answer_value_set(&d, &via_nodes), tree_keys);
    }

    #[test]
    fn empty_view_yields_empty_answers() {
        let d = doc();
        let ft = frozen(&d);
        let v = MaterializedView::materialize("none", pat("lib/book"), &ft);
        assert!(v.is_empty());
        assert!(v.apply_virtual(&pat("book/title"), &ft).is_empty());
        assert!(v.apply_materialized(&pat("book/title"), &d).is_empty());
    }

    #[test]
    fn apply_delta_takes_the_patched_node_set() {
        let mut d = doc();
        let v = MaterializedView::materialize("books", pat("lib//book"), &frozen(&d));
        assert_eq!(v.len(), 3);
        let old_first = v.nodes()[0];

        // Simulate a maintainer outcome: a new book appended under the
        // first shelf, and the first book's content edited in place (a
        // retag: membership unchanged).
        let shelf = d.children(d.root())[0];
        let extra = TreeBuilder::root("book", |b| {
            b.leaf("title");
        });
        let new_book = d.attach_tree(shelf, &extra);
        d.add_child(old_first, xpv_model::Label::new("isbn"));
        let mut new_nodes: Vec<NodeId> = v.nodes().to_vec();
        new_nodes.push(new_book);
        new_nodes.sort();
        let patched = v.apply_delta(new_nodes);
        assert_eq!(patched.len(), 4);
        assert_eq!(patched.name(), "books");
        assert_eq!(patched.definition().to_string(), v.definition().to_string());
        // The patched set equals a fresh materialization by node identity,
        // and the retagged answer's new content is what on-demand copies
        // see.
        let fresh = MaterializedView::materialize("books", pat("lib//book"), &frozen(&d));
        assert_eq!(patched.nodes(), fresh.nodes());
        assert_eq!(patched.nodes(), evaluate(&pat("lib//book"), &d).as_slice());
        let isbn = patched.apply_materialized(&pat("book/isbn"), &d);
        assert_eq!(isbn.len(), 1);
        assert_eq!(v.len(), 3, "the source view is left as it was");
    }

    #[test]
    fn view_with_branch_condition() {
        let d = doc();
        let ft = frozen(&d);
        // Books having an author.
        let v = MaterializedView::materialize("authored", pat("lib//book[author]"), &ft);
        assert_eq!(v.len(), 2);
        let titles = v.apply_virtual(&pat("book/title"), &ft);
        assert_eq!(titles.len(), 2);
    }
}
