//! Structural hashing, canonical codes, and interning of patterns.
//!
//! The containment oracle (`xpv_semantics::ContainmentOracle`) memoizes
//! verdicts across calls, which requires patterns to act as cheap hashable
//! keys. Three ingredients provide that:
//!
//! * [`Pattern::canonical_code`] — the pattern packed into a `[u32]` word
//!   string, canonical under **unordered isomorphism**: two patterns have
//!   equal codes exactly when [`Pattern::structurally_eq`] holds (same
//!   shape, node tests, edge axes and output node, sibling order ignored).
//!   Two words per node, in pre-order with every node's children sorted by
//!   their own codes:
//!   1. the node test: the label id ([`xpv_model::Label::id`], never 0),
//!      or `0` for `*`;
//!   2. `axis | output << 1 | nchildren << 2`, where `axis` is 1 for a
//!      descendant incoming edge (0 for a child edge and for the root) and
//!      `output` is 1 on the output node only.
//!
//!   The child count makes the pre-order string decodable, so equal codes
//!   rebuild equal trees; sorting children by code makes isomorphs
//!   serialize identically (the AHU tree-canonization argument).
//! * [`Pattern::fingerprint_at`] — a 64-bit structural hash of any
//!   subtree with the same invariance; the fused batch evaluator keys its
//!   shared sub-match tables with it.
//! * [`PatternInterner`] — deduplicates patterns by canonical code and
//!   hands out dense [`PatternKey`] ids. Interning the same pattern (or any
//!   sibling-reordered isomorph) twice returns the same key, so downstream
//!   memo tables key on `(PatternKey, PatternKey)` pairs instead of
//!   re-hashing whole trees.
//!
//! ## Memory
//!
//! The interner keeps exactly one heap block per distinct pattern — its
//! boxed code, `8 · |nodes|` bytes — plus one hash-table slot; it keeps no
//! [`Pattern`], so a key cannot be turned back into a pattern. It is
//! append-only: keys stay valid for the life of the interner, which is what
//! lets a long-lived view cache reuse plans across queries, and it also
//! means the interner grows with every distinct pattern it sees. A serving
//! cache's plan-memo cap does not bound it. On ad-hoc
//! `<spine>[pred]*/<output>` queries of 15 nodes on average, one distinct
//! query leaves ≈160 B and one heap block in the interner
//! (`tests/intern_footprint.rs` bounds it at 320 B and two blocks).

use std::cell::Cell;
use std::collections::HashMap;

use crate::pattern::{Axis, NodeTest, PatId, Pattern};

/// A dense handle to an interned pattern (see [`PatternInterner`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PatternKey(u32);

impl PatternKey {
    /// The dense index: keys are issued 0, 1, 2, … in interning order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Pattern {
    /// A 64-bit structural hash of the subtree rooted at `n`, stable under
    /// sibling reordering (isomorphic subtrees hash equally) and including
    /// the output marker when the output node lies inside the subtree.
    ///
    /// Computed bottom-up with sorted child digests, in `O(n log n)`.
    pub fn fingerprint_at(&self, n: PatId) -> u64 {
        fn mix(mut h: u64, v: u64) -> u64 {
            // splitmix64-style avalanche of the running digest.
            h ^= v;
            h = h.wrapping_mul(0xFF51AFD7ED558CCD);
            h ^= h >> 33;
            h = h.wrapping_mul(0xC4CEB9FE1A85EC53);
            h ^ (h >> 33)
        }
        fn rec(p: &Pattern, n: PatId, out: PatId) -> u64 {
            let mut h: u64 = match p.test(n) {
                NodeTest::Wildcard => 0x9E3779B97F4A7C15,
                NodeTest::Label(l) => mix(0xA076_1D64_78BD_642F, l.id() as u64),
            };
            if n == out {
                h = mix(h, 0x2545F4914F6CDD1D);
            }
            let mut child_digests: Vec<u64> = p
                .children(n)
                .iter()
                .map(|&c| {
                    let axis_salt = match p.axis(c) {
                        Axis::Child => 0x94D0_49BB_1331_11EB,
                        Axis::Descendant => 0xBF58_476D_1CE4_E5B9,
                    };
                    mix(axis_salt, rec(p, c, out))
                })
                .collect();
            // Sorting makes the digest order-independent, matching the
            // unordered semantics of sibling branches.
            child_digests.sort_unstable();
            for d in child_digests {
                h = mix(h, d);
            }
            h
        }
        rec(self, n, self.output())
    }
}

/// Bit of a code's second node word: the incoming edge is a descendant edge.
const CODE_DESCENDANT: u32 = 1;
/// Bit of a code's second node word: the node is the output node.
const CODE_OUTPUT: u32 = 1 << 1;
/// Shift of the child count in a code's second node word.
const CODE_NCHILDREN_SHIFT: u32 = 2;

/// Reusable buffers for building canonical codes: the code itself, the
/// child spans being sorted (a stack shared by every recursion level), and
/// a copy buffer for reordering them.
#[derive(Default)]
struct CodeScratch {
    words: Vec<u32>,
    spans: Vec<(usize, usize)>,
    tmp: Vec<u32>,
}

thread_local! {
    /// Per-thread code buffers, so looking up an already-interned pattern
    /// allocates nothing once the buffers have grown.
    static CODE_SCRATCH: Cell<CodeScratch> = Cell::new(CodeScratch::default());
}

impl Pattern {
    /// The canonical code of the pattern (see the [module docs](self)):
    /// `p.canonical_code() == q.canonical_code()` exactly when
    /// `p.structurally_eq(&q)`.
    ///
    /// ```
    /// use xpv_pattern::parse_xpath;
    /// let p = parse_xpath("a[b][c//d]/e").unwrap();
    /// let q = parse_xpath("a[c//d][b]/e").unwrap();
    /// assert_eq!(p.canonical_code(), q.canonical_code());
    /// assert_eq!(p.canonical_code().len(), 2 * p.len());
    /// ```
    pub fn canonical_code(&self) -> Box<[u32]> {
        self.canonical_code_at(self.root())
    }

    /// The canonical code of the subtree rooted at `n`. Its first node word
    /// pair carries the axis of the edge entering `n`, and the output bit
    /// appears only when the output node lies inside the subtree.
    pub(crate) fn canonical_code_at(&self, n: PatId) -> Box<[u32]> {
        self.with_code_at(n, |code| Box::from(code))
    }

    /// Calls `f` with [`Pattern::canonical_code`] built in a per-thread
    /// buffer: no allocation once the buffer has grown to the pattern's
    /// size. The interning hot path looks codes up through this.
    pub fn with_canonical_code<R>(&self, f: impl FnOnce(&[u32]) -> R) -> R {
        self.with_code_at(self.root(), f)
    }

    fn with_code_at<R>(&self, n: PatId, f: impl FnOnce(&[u32]) -> R) -> R {
        // Taken out of the cell rather than borrowed, so a nested call
        // (from `f`) simply starts from fresh buffers.
        let mut scratch = CODE_SCRATCH.take();
        scratch.words.clear();
        encode(self, n, &mut scratch);
        let out = f(&scratch.words);
        CODE_SCRATCH.set(scratch);
        out
    }
}

/// Appends the canonical code of the subtree at `n` to `s.words`.
fn encode(p: &Pattern, n: PatId, s: &mut CodeScratch) {
    let test = match p.test(n) {
        NodeTest::Wildcard => 0,
        NodeTest::Label(l) => l.id(),
    };
    let children = p.children(n);
    let nchildren = u32::try_from(children.len())
        .ok()
        .filter(|&c| c < 1 << (32 - CODE_NCHILDREN_SHIFT))
        .expect("pattern node has too many children for its canonical code");
    let mut shape = nchildren << CODE_NCHILDREN_SHIFT;
    if p.parent(n).is_some() && p.axis(n) == Axis::Descendant {
        shape |= CODE_DESCENDANT;
    }
    if n == p.output() {
        shape |= CODE_OUTPUT;
    }
    s.words.push(test);
    s.words.push(shape);
    if children.len() < 2 {
        if let Some(&c) = children.first() {
            encode(p, c, s);
        }
        return;
    }
    // Encode the children one after another, then put their spans in code
    // order — the sorting that makes sibling order irrelevant.
    let mark = s.spans.len();
    let first = s.words.len();
    for &c in children {
        let start = s.words.len();
        encode(p, c, s);
        s.spans.push((start, s.words.len()));
    }
    let CodeScratch { words, spans, tmp } = s;
    let kids = &mut spans[mark..];
    let span = |&(a, b): &(usize, usize)| &words[a..b];
    if !kids.windows(2).all(|w| span(&w[0]) <= span(&w[1])) {
        kids.sort_unstable_by(|x, y| span(x).cmp(span(y)));
        tmp.clear();
        tmp.extend_from_slice(&words[first..]);
        words.truncate(first);
        for &(a, b) in kids.iter() {
            words.extend_from_slice(&tmp[a - first..b - first]);
        }
    }
    spans.truncate(mark);
}

/// A 64-bit hash of a canonical code (splitmix64-style mixing, unkeyed):
/// equal codes — isomorphic patterns — hash equally in every process.
/// Callers that shard work by query use it; the interner's own table uses
/// the standard keyed hasher.
pub fn code_fingerprint(code: &[u32]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15 ^ code.len() as u64;
    for &w in code {
        h ^= w as u64;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// An append-only set of patterns up to isomorphism, keyed by canonical
/// code (see the [module docs](self) for what it keeps per pattern).
///
/// ```
/// use xpv_pattern::{parse_xpath, PatternInterner};
/// let mut interner = PatternInterner::new();
/// let k1 = interner.intern(&parse_xpath("a[b][c]/d").unwrap());
/// let k2 = interner.intern(&parse_xpath("a[c][b]/d").unwrap()); // reordered siblings
/// assert_eq!(k1, k2);
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct PatternInterner {
    keys: HashMap<Box<[u32]>, PatternKey>,
}

impl PatternInterner {
    /// An empty interner.
    pub fn new() -> PatternInterner {
        PatternInterner::default()
    }

    /// Interns `p`, returning the key of its structural equivalence class.
    pub fn intern(&mut self, p: &Pattern) -> PatternKey {
        p.with_canonical_code(|code| {
            self.lookup_code(code).unwrap_or_else(|| self.intern_code(code))
        })
    }

    /// Read-only lookup of the pattern with canonical code `code`; `None`
    /// when it has not been interned yet. Unlike
    /// [`PatternInterner::intern_code`] this takes `&self`, so a concurrent
    /// wrapper (the containment oracle's `RwLock`-guarded interner) can
    /// serve the hot repeated-query path under a shared read lock and only
    /// upgrade to a write lock on genuinely new patterns.
    pub fn lookup_code(&self, code: &[u32]) -> Option<PatternKey> {
        self.keys.get(code).copied()
    }

    /// Interns the pattern with canonical code `code` (as built by
    /// [`Pattern::canonical_code`]); a new class stores one boxed copy of
    /// the code. Meant for codes that [`PatternInterner::lookup_code`]
    /// just missed: the box is made before the table is probed (one hash
    /// per insert), and dropped again if the code is present after all.
    pub fn intern_code(&mut self, code: &[u32]) -> PatternKey {
        let next = PatternKey(u32::try_from(self.keys.len()).expect("pattern interner exhausted"));
        *self.keys.entry(Box::from(code)).or_insert(next)
    }

    /// Number of distinct structural classes interned.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_xpath;
    use xpv_model::Label;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    #[test]
    fn fingerprint_ignores_sibling_order() {
        let p1 = pat("a[b][c//d]/e");
        let p2 = pat("a[c//d][b]/e");
        assert!(p1.structurally_eq(&p2));
        assert_eq!(p1.fingerprint_at(p1.root()), p2.fingerprint_at(p2.root()));
    }

    #[test]
    fn fingerprint_distinguishes_axes_tests_and_output() {
        let fp = |s: &str| {
            let p = pat(s);
            p.fingerprint_at(p.root())
        };
        assert_ne!(fp("a/b"), fp("a//b"));
        assert_ne!(fp("a/b"), fp("a/*"));
        assert_ne!(fp("a/b"), fp("a[b]"));
    }

    #[test]
    fn interner_dedups_isomorphs() {
        let mut i = PatternInterner::new();
        let k1 = i.intern(&pat("a[b][c]/d"));
        let k2 = i.intern(&pat("a[c][b]/d"));
        let k3 = i.intern(&pat("a[b]/d"));
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn code_lookup_agrees_with_intern() {
        let mut i = PatternInterner::new();
        let p = pat("a[b][c]/d");
        let code = p.canonical_code();
        assert_eq!(i.lookup_code(&code), None);
        let k = i.intern_code(&code);
        assert_eq!(i.lookup_code(&code), Some(k));
        assert_eq!(i.intern(&p), k);
        // A sibling-reordered isomorph shares code and key.
        let iso = pat("a[c][b]/d");
        assert_eq!(i.lookup_code(&iso.canonical_code()), Some(k));
        assert_eq!(code_fingerprint(&code), code_fingerprint(&iso.canonical_code()));
    }

    #[test]
    fn keys_are_stable_across_growth() {
        let mut i = PatternInterner::new();
        let k1 = i.intern(&pat("a"));
        for s in ["a/b", "a//b", "a[x]/y", "q//r[s]"] {
            i.intern(&pat(s));
        }
        assert_eq!(i.intern(&pat("a")), k1);
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn code_layout_is_two_words_per_node_in_canonical_preorder() {
        let (a, b, c) = (Label::new("a").id(), Label::new("b").id(), Label::new("c").id());
        // Root `a` (output, two children), then its children in code order.
        let code = pat("a[c][b//*]").canonical_code();
        let (bw, cw) = if b < c { (0, 4) } else { (2, 0) };
        let mut want = [a, CODE_OUTPUT | 2 << CODE_NCHILDREN_SHIFT, 0, 0, 0, 0, 0, 0];
        want[2 + bw..2 + bw + 4].copy_from_slice(&[
            b,
            1 << CODE_NCHILDREN_SHIFT,
            0,
            CODE_DESCENDANT,
        ]);
        want[2 + cw..2 + cw + 2].copy_from_slice(&[c, 0]);
        assert_eq!(&*code, &want[..]);
    }

    #[test]
    fn code_distinguishes_axes_tests_and_output() {
        let code = |s: &str| pat(s).canonical_code();
        assert_ne!(code("a/b"), code("a//b"));
        assert_ne!(code("a/b"), code("a/*"));
        assert_ne!(code("a/b"), code("a[b]"));
        assert_eq!(code("a[b][c//d]/e"), code("a[c//d][b]/e"));
        // Nested reorderings sort at every level.
        assert_eq!(code("a[b[x][y]][b[y][x]/z]"), code("a[b[y][x]/z][b[x][y]]"));
    }

    #[test]
    fn nested_code_calls_do_not_share_buffers() {
        let (p, q) = (pat("a[b][c]"), pat("x//y[z]"));
        let (outer, inner) = p.with_canonical_code(|pc| {
            let inner = q.with_canonical_code(|qc| qc.to_vec());
            (pc.to_vec(), inner)
        });
        assert_eq!(&outer[..], &*p.canonical_code());
        assert_eq!(&inner[..], &*q.canonical_code());
    }
}
