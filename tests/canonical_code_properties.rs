//! The packed canonical code behind pattern interning, checked against the
//! string `canonical_key` as the oracle.
//!
//! * Shuffling sibling order at every node must not change a pattern's
//!   interned key (nor its code fingerprint).
//! * A single edit — flipping an edge axis, changing a label, turning a
//!   label into `*` or back, moving the output node — must change the key
//!   exactly when it changes the `canonical_key`. Edits on symmetric
//!   siblings can leave the pattern isomorphic; then both must stay equal.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpath_views::model::Label;
use xpath_views::pattern::{
    code_fingerprint, parse_xpath, Axis, NodeTest, PatId, Pattern, PatternInterner,
};
use xpath_views::workload::{Fragment, PatternGen, PatternGenConfig};

/// A branchy random pattern: few labels, so isomorphic sibling subtrees
/// (ties in the canonical sort) are common.
fn branchy_pattern(seed: u64) -> Pattern {
    let cfg = PatternGenConfig {
        depth: (1, 4),
        branch_prob: 0.8,
        max_branch_size: 4,
        label_count: 3,
        fragment: Fragment::Full,
        ..Default::default()
    };
    PatternGen::new(cfg, seed).pattern()
}

/// A copy of `p` with the children of every node in a random order.
fn shuffled(p: &Pattern, rng: &mut StdRng) -> Pattern {
    fn copy(p: &Pattern, n: PatId, dst: &mut Pattern, at: PatId, rng: &mut StdRng) {
        let mut kids = p.children(n).to_vec();
        for i in (1..kids.len()).rev() {
            kids.swap(i, rng.gen_range(0..=i));
        }
        for c in kids {
            let id = dst.add_child(at, p.axis(c), p.test(c));
            if c == p.output() {
                dst.set_output(id);
            }
            copy(p, c, dst, id, rng);
        }
    }
    let mut out = Pattern::single(p.test(p.root()));
    let root = out.root();
    if p.output() == p.root() {
        out.set_output(root);
    }
    copy(p, p.root(), &mut out, root, rng);
    out
}

/// Every single-edit mutant of `p` that the property covers.
fn mutants(p: &Pattern) -> Vec<(String, Pattern)> {
    let other = Label::new("l_other");
    let mut out = Vec::new();
    for n in p.node_ids() {
        if p.parent(n).is_some() {
            let mut m = p.clone();
            let flipped = match p.axis(n) {
                Axis::Child => Axis::Descendant,
                Axis::Descendant => Axis::Child,
            };
            m.set_axis(n, flipped);
            out.push((format!("axis flip at {n:?}"), m));
        }
        let mut m = p.clone();
        m.set_test(n, NodeTest::Label(other));
        out.push((format!("label change at {n:?}"), m));
        let mut m = p.clone();
        let swapped = match p.test(n) {
            NodeTest::Wildcard => NodeTest::Label(Label::new("l0")),
            NodeTest::Label(_) => NodeTest::Wildcard,
        };
        m.set_test(n, swapped);
        out.push((format!("label/* swap at {n:?}"), m));
        if n != p.output() {
            let mut m = p.clone();
            m.set_output(n);
            out.push((format!("output moved to {n:?}"), m));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sibling order never reaches the interned key.
    #[test]
    fn sibling_shuffles_intern_to_the_same_key(seed in any::<u64>()) {
        let p = branchy_pattern(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut interner = PatternInterner::new();
        let key = interner.intern(&p);
        for _ in 0..4 {
            let q = shuffled(&p, &mut rng);
            prop_assert_eq!(q.canonical_key(), p.canonical_key(), "shuffle broke the oracle");
            prop_assert_eq!(interner.intern(&q), key, "{} vs shuffled {}", p, q);
            prop_assert_eq!(
                code_fingerprint(&q.canonical_code()),
                code_fingerprint(&p.canonical_code())
            );
            prop_assert!(q.structurally_eq(&p));
        }
        prop_assert_eq!(interner.len(), 1);
    }

    /// A single edit changes the interned key exactly when it changes the
    /// string canonical key.
    #[test]
    fn single_edits_change_the_key_iff_the_canonical_key_changes(seed in any::<u64>()) {
        let p = branchy_pattern(seed);
        let mut interner = PatternInterner::new();
        let key = interner.intern(&p);
        let oracle_key = p.canonical_key();
        for (edit, m) in mutants(&p) {
            let same_by_oracle = m.canonical_key() == oracle_key;
            let same_by_code = interner.intern(&m) == key;
            prop_assert_eq!(
                same_by_code, same_by_oracle,
                "{}: {} -> {} (code says same: {})", edit, p, m, same_by_code
            );
            prop_assert_eq!(m.structurally_eq(&p), same_by_oracle, "{}: structurally_eq", edit);
        }
    }
}

/// The mutant generator reaches both outcomes: edits that leave a pattern
/// isomorphic (a symmetric sibling) and edits that do not.
#[test]
fn mutants_cover_isomorphic_and_distinct_edits() {
    let p = parse_xpath("a[b]/b").expect("parses");
    let key = p.canonical_key();
    let ms = mutants(&p);
    assert!(ms.iter().any(|(_, m)| m.canonical_key() == key), "moving the output onto a twin");
    assert!(ms.iter().any(|(_, m)| m.canonical_key() != key));

    let ms = mutants(&parse_xpath("a[b][b]/c").expect("parses"));
    let twin_flips = ms
        .iter()
        .filter(|(e, _)| e.starts_with("axis flip"))
        .map(|(_, m)| m.canonical_key())
        .collect::<Vec<_>>();
    // Flipping either `b` gives the same pattern up to isomorphism.
    assert_eq!(twin_flips[0], twin_flips[1]);
}
