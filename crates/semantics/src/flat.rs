//! Word-parallel evaluation over [`FlatTree`] snapshots.
//!
//! The reference matcher ([`crate::embed::sub_match_sets`]) seeds every
//! pattern node's candidate set by scanning all tree nodes and calling
//! `test.matches`, and computes child-edge witnesses by walking per-node
//! child `Vec`s. This module re-derives the same bottom-up dynamic program
//! against the frozen struct-of-arrays form:
//!
//! * **seeding** reads the per-label posting bitset (wildcard = live mask)
//!   — a `memcpy`, not a scan; a label absent from the document empties the
//!   set without touching the tree;
//! * **`Child` witnesses** iterate only the set bits of the child's
//!   sub-match set and mark each bit's parent slot — `O(|set|)` instead of
//!   `O(n · avg-degree)`;
//! * **`Descendant` witnesses** climb from each set bit toward the root,
//!   stopping at the first already-marked ancestor — the classic union-of-
//!   ancestor-paths sweep, `O(n)` amortized per edge;
//! * **branch conjunctions** fold with word-level
//!   [`BitSet::intersect_with`].
//!
//! The reference path stays untouched as the oracle; the equivalence suite
//! (`tests/eval_flat_properties.rs`) checks the two agree bit-for-bit,
//! including on post-edit tombstoned trees.
//!
//! ## Scratch reuse and fused batches
//!
//! Every query over an `n`-slot document wants `|P|` arena-width bitsets.
//! [`EvalScratch`] recycles those buffers; the free-standing entry points
//! ([`evaluate_flat`], [`evaluate_anchored_flat`]) draw them from a
//! thread-local pool keyed by the current capacity, so steady-state serving
//! allocates nothing per query. [`BatchEval`] additionally shares completed
//! sub-match sets *across* the queries of one batch, keyed by the same
//! structural fingerprints the `PatternInterner` dedups with
//! ([`xpv_pattern::Pattern::fingerprint_at`]): two queries that contain the
//! same pattern subtree (`catalog//item[price]` as a branch of one query
//! and the spine of another) compute its table once per snapshot.

use std::cell::RefCell;
use std::collections::HashMap;

use xpv_model::{AnswerArena, AnswerRef, BitSet, FlatTree, NodeId, NO_PARENT};
use xpv_pattern::{Axis, NodeTest, PatId, Pattern};

/// A recycling pool of arena-width [`BitSet`] buffers.
///
/// All buffers share one capacity (the `arena_len` of the snapshot being
/// evaluated).
#[derive(Debug)]
pub struct EvalScratch {
    free: Vec<BitSet>,
    capacity: usize,
}

/// Upper bound on pooled buffers; beyond this, returned buffers are dropped
/// (a pattern has at most a handful of nodes, so the bound is generous).
const MAX_POOLED: usize = 64;

impl EvalScratch {
    /// An empty pool for bitsets of capacity `capacity`.
    pub fn new(capacity: usize) -> EvalScratch {
        EvalScratch { free: Vec::new(), capacity }
    }

    /// Takes an empty bitset from the pool (or allocates one).
    fn take(&mut self) -> BitSet {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => BitSet::new(self.capacity),
        }
    }

    /// Returns a buffer to the pool.
    fn put(&mut self, b: BitSet) {
        if self.free.len() < MAX_POOLED && b.capacity() == self.capacity {
            self.free.push(b);
        }
    }

    /// Returns a whole sub-match table to the pool.
    fn put_all(&mut self, sets: Vec<BitSet>) {
        for b in sets {
            self.put(b);
        }
    }
}

thread_local! {
    /// Per-thread buffer pool for the free-standing entry points. Keyed by a
    /// single capacity: an edit batch grows `arena_len`, at which point the
    /// stale buffers are dropped and the pool refills at the new width.
    static TL_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::new(0));
}

/// Runs `f` with this thread's pooled scratch, resized to `capacity`.
fn with_tl_scratch<R>(capacity: usize, f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    TL_SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        if s.capacity != capacity {
            *s = EvalScratch::new(capacity);
        }
        f(&mut s)
    })
}

/// The flat-tree counterpart of [`crate::embed::sub_match_sets`]: for every
/// pattern node `p`, the set of live slots `n` such that the pattern
/// subtree rooted at `p` embeds with `p ↦ n`. Produces bit-identical tables
/// (the reference path only ever sets live bits, and so does this one).
pub fn sub_match_sets_flat(
    p: &Pattern,
    ft: &FlatTree,
    pin: Option<(PatId, NodeId)>,
) -> Vec<BitSet> {
    let mut scratch = EvalScratch::new(ft.arena_len());
    sub_match_sets_into(p, ft, pin, &mut scratch)
}

fn sub_match_sets_into(
    p: &Pattern,
    ft: &FlatTree,
    pin: Option<(PatId, NodeId)>,
    scratch: &mut EvalScratch,
) -> Vec<BitSet> {
    let mut sub: Vec<BitSet> = (0..p.len()).map(|_| scratch.take()).collect();
    for pi in (0..p.len()).rev() {
        let pid = PatId(pi as u32);
        seed_node(p, ft, pid, &mut sub[pi]);
        fold_children(p, ft, pid, &mut sub, scratch);
        if let Some((pin_p, pin_n)) = pin {
            if pin_p == pid {
                let keep = sub[pi].contains(pin_n.index());
                sub[pi].clear();
                if keep {
                    sub[pi].insert(pin_n.index());
                }
            }
        }
    }
    sub
}

/// Seeds `out` with the candidate slots for pattern node `pid`: the label's
/// posting bitset, or the live mask for a wildcard.
fn seed_node(p: &Pattern, ft: &FlatTree, pid: PatId, out: &mut BitSet) {
    match p.test(pid) {
        NodeTest::Wildcard => out.copy_from(ft.live_mask()),
        NodeTest::Label(l) => match ft.posting(l) {
            Some(posting) => out.copy_from(posting),
            None => out.clear(),
        },
    }
}

/// The witness set of one pattern edge into `c`: the slots that have a
/// member of `sub_c` as a child (`Child` axis) or proper descendant
/// (`Descendant` axis). The caller returns the buffer to the scratch pool.
fn edge_witness(
    p: &Pattern,
    ft: &FlatTree,
    c: PatId,
    sub_c: &BitSet,
    scratch: &mut EvalScratch,
) -> BitSet {
    let mut ok = scratch.take();
    match p.axis(c) {
        Axis::Child => {
            // ok = { parent(m) : m ∈ sub_c } — visit only set bits.
            for m in sub_c.iter() {
                let par = ft.parent(m);
                if par != NO_PARENT {
                    ok.insert(par as usize);
                }
            }
        }
        Axis::Descendant => {
            // ok = proper ancestors of sub_c; each climb stops at the
            // first slot already marked by an earlier climb.
            for m in sub_c.iter() {
                let mut cur = ft.parent(m);
                while cur != NO_PARENT && !ok.contains(cur as usize) {
                    ok.insert(cur as usize);
                    cur = ft.parent(cur as usize);
                }
            }
        }
    }
    ok
}

/// Intersects `sub[pid]` with the witness set of each child edge. Children
/// occupy higher arena indices than their parent, so `sub[c]` is final.
fn fold_children(
    p: &Pattern,
    ft: &FlatTree,
    pid: PatId,
    sub: &mut [BitSet],
    scratch: &mut EvalScratch,
) {
    let pi = pid.index();
    for &c in p.children(pid) {
        if sub[pi].is_empty() {
            break;
        }
        let ok = edge_witness(p, ft, c, &sub[c.index()], scratch);
        sub[pi].intersect_with(&ok);
        scratch.put(ok);
    }
}

/// Flat-tree selection propagation: given the slots the pattern root may
/// map to, returns the exact output-slot set. Mirrors the reference
/// `propagate_selection`.
fn propagate_selection_flat(
    p: &Pattern,
    ft: &FlatTree,
    sub: &[BitSet],
    mut current: BitSet,
    scratch: &mut EvalScratch,
) -> BitSet {
    let path = p.selection_path();
    current.intersect_with(&sub[path[0].index()]);
    for &next in &path[1..] {
        if current.is_empty() {
            break;
        }
        let mut reach = scratch.take();
        match p.axis(next) {
            Axis::Child => {
                for m in sub[next.index()].iter() {
                    let par = ft.parent(m);
                    if par != NO_PARENT && current.contains(par as usize) {
                        reach.insert(m);
                    }
                }
            }
            Axis::Descendant => {
                // Forward sweep: a slot is strictly under `current` iff its
                // parent is in `current` or already under it (parents
                // precede children in slot order).
                for i in 0..ft.arena_len() {
                    let par = ft.parent(i);
                    if par != NO_PARENT
                        && (current.contains(par as usize) || reach.contains(par as usize))
                    {
                        reach.insert(i);
                    }
                }
                reach.intersect_with(&sub[next.index()]);
            }
        }
        scratch.put(current);
        current = reach;
    }
    current
}

fn collect_nodes(set: &BitSet) -> Vec<NodeId> {
    set.iter().map(|i| NodeId(i as u32)).collect()
}

/// Flat-tree `P(t)` — same output as [`crate::embed::evaluate`] on the
/// frozen tree, drawing buffers from the thread-local pool.
pub fn evaluate_flat(p: &Pattern, ft: &FlatTree) -> Vec<NodeId> {
    with_tl_scratch(ft.arena_len(), |scratch| {
        let sub = sub_match_sets_into(p, ft, None, scratch);
        let mut roots = scratch.take();
        roots.insert(ft.root().index());
        let out = propagate_selection_flat(p, ft, &sub, roots, scratch);
        let nodes = collect_nodes(&out);
        scratch.put(out);
        scratch.put_all(sub);
        nodes
    })
}

/// Flat-tree anchored evaluation `⋃_n p(t↓n)` — same output as
/// [`crate::embed::evaluate_anchored`] on the frozen tree. Tombstoned
/// anchors contribute nothing (their live bit is cleared at freeze time).
pub fn evaluate_anchored_flat(p: &Pattern, ft: &FlatTree, anchors: &[NodeId]) -> Vec<NodeId> {
    with_tl_scratch(ft.arena_len(), |scratch| {
        let sub = sub_match_sets_into(p, ft, None, scratch);
        let mut roots = scratch.take();
        for &n in anchors {
            if ft.is_alive(n.index()) {
                roots.insert(n.index());
            }
        }
        let out = propagate_selection_flat(p, ft, &sub, roots, scratch);
        let nodes = collect_nodes(&out);
        scratch.put(out);
        scratch.put_all(sub);
        nodes
    })
}

/// Does `test` accept slot `i`? (Dead slots carry label id `0`, which no
/// live label ever has, so they fail both arms.)
#[inline]
fn test_matches_flat(test: NodeTest, ft: &FlatTree, i: usize) -> bool {
    match test {
        NodeTest::Wildcard => ft.is_alive(i),
        NodeTest::Label(l) => ft.label_id(i) == l.id(),
    }
}

/// Memoizing lazy subtree matcher over a [`FlatTree`] — the flat twin of
/// the maintainer's `SubMatcher`, used for the handful of *path* nodes of a
/// region evaluation (the proper ancestors of the region root), where
/// building full word-parallel tables would defeat the point of the
/// restriction.
struct FlatSubMatcher<'a> {
    p: &'a Pattern,
    ft: &'a FlatTree,
    node_memo: HashMap<(u32, u32), bool>,
    desc_memo: HashMap<(u32, u32), bool>,
}

impl<'a> FlatSubMatcher<'a> {
    fn new(p: &'a Pattern, ft: &'a FlatTree) -> FlatSubMatcher<'a> {
        FlatSubMatcher { p, ft, node_memo: HashMap::new(), desc_memo: HashMap::new() }
    }

    /// Does the pattern subtree rooted at `q` embed with `q ↦ slot w`?
    fn matches_at(&mut self, q: PatId, w: usize) -> bool {
        if let Some(&v) = self.node_memo.get(&(q.0, w as u32)) {
            return v;
        }
        let (p, ft) = (self.p, self.ft);
        let ok = test_matches_flat(p.test(q), ft, w)
            && p.children(q).iter().all(|&c| self.witness_below(c, w));
        self.node_memo.insert((q.0, w as u32), ok);
        ok
    }

    fn witness_below(&mut self, c: PatId, v: usize) -> bool {
        let ft = self.ft;
        match self.p.axis(c) {
            Axis::Child => ft.children(v).iter().any(|&w| self.matches_at(c, w as usize)),
            Axis::Descendant => self.desc_witness(c, v),
        }
    }

    fn desc_witness(&mut self, c: PatId, v: usize) -> bool {
        if let Some(&hit) = self.desc_memo.get(&(c.0, v as u32)) {
            return hit;
        }
        let ft = self.ft;
        let hit = ft
            .children(v)
            .iter()
            .any(|&w| self.matches_at(c, w as usize) || self.desc_witness(c, w as usize));
        self.desc_memo.insert((c.0, v as u32), hit);
        hit
    }

    /// `B_i(v)` for the spine decomposition: node test plus every non-spine
    /// branch hanging off spine position `i`.
    fn b_holds(&mut self, spine: &FlatSpine, i: usize, v: usize) -> bool {
        test_matches_flat(self.p.test(spine.nodes[i]), self.ft, v)
            && spine.branches[i].iter().all(|&c| self.witness_below(c, v))
    }
}

/// The selection-spine decomposition of a pattern (spine nodes, the axis
/// entering each, and the non-spine branches hanging off each) — the shape
/// the region-restricted evaluation walks. Mirrors the maintainer's
/// `SpineInfo`, rebuilt here so `xpv-semantics` stays dependency-free.
struct FlatSpine {
    nodes: Vec<PatId>,
    axes: Vec<Axis>,
    branches: Vec<Vec<PatId>>,
}

impl FlatSpine {
    fn new(p: &Pattern) -> FlatSpine {
        let nodes = p.selection_path();
        let axes = nodes
            .iter()
            .enumerate()
            .map(|(i, &u)| if i == 0 { Axis::Child } else { p.axis(u) })
            .collect();
        let branches = nodes
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let next = nodes.get(i + 1).copied();
                p.children(u).iter().copied().filter(|&c| Some(c) != next).collect()
            })
            .collect();
        FlatSpine { nodes, axes, branches }
    }
}

/// Region-restricted word-parallel evaluation: the answers of `p` that lie
/// **inside `subtree(region_root)`** on the frozen snapshot, plus the
/// region's subtree mask. Output-identical to the maintainer's `Tree`-path
/// `region_answers` (the property-test oracle), but runs the flat matcher:
///
/// * branch sub-match tables are seeded from **postings intersected with
///   the region's subtree mask** — sound because any embedding that places
///   a spine node inside the region places that node's whole pattern
///   subtree inside it too (regions are subtree-closed), so masked tables
///   are exact for in-region images;
/// * the **path part** (proper ancestors of the region root, whose branch
///   witnesses may live outside the region) uses the lazy memoized
///   `FlatSubMatcher` instead — `O(depth)` nodes, not `O(n)`;
/// * the in-region reachability sweep is run per spine position with
///   word-level set operations, exploiting the parents-precede-children
///   slot order for the `Descendant` closure.
///
/// `region_root` must be a live slot. Patterns whose spine exceeds the
/// 63-position reach mask fall back to a full flat evaluation filtered to
/// the region (sound; never observed in practice).
pub fn region_answers_flat(
    p: &Pattern,
    ft: &FlatTree,
    region_root: NodeId,
) -> (Vec<NodeId>, BitSet) {
    debug_assert!(ft.is_alive(region_root.index()), "region roots are live");
    let mask = ft.subtree_mask(region_root.index());
    let spine = FlatSpine::new(p);
    let k = spine.nodes.len() - 1;
    if k > 63 {
        let found = evaluate_flat(p, ft).into_iter().filter(|n| mask.contains(n.index())).collect();
        return (found, mask);
    }
    let root = ft.root().index();
    let rr = region_root.index();

    let found = with_tl_scratch(ft.arena_len(), |scratch| {
        // Masked sub-match tables: for every pattern node, the in-region
        // slots where its pattern subtree embeds (exact within the region —
        // see above). Only branch subtrees are read below, but the bottom-up
        // sweep computes all nodes in one pass.
        let mut sub: Vec<BitSet> = (0..p.len()).map(|_| scratch.take()).collect();
        for pi in (0..p.len()).rev() {
            let pid = PatId(pi as u32);
            seed_node(p, ft, pid, &mut sub[pi]);
            sub[pi].intersect_with(&mask);
            fold_children(p, ft, pid, &mut sub, scratch);
        }

        // B-sets per spine position, in-region: node test ∩ mask ∩ the
        // witness set of every non-spine branch.
        let mut bm: Vec<BitSet> = Vec::with_capacity(k + 1);
        for i in 0..=k {
            let mut b = scratch.take();
            seed_node(p, ft, spine.nodes[i], &mut b);
            b.intersect_with(&mask);
            for &c in &spine.branches[i] {
                if b.is_empty() {
                    break;
                }
                let ok = edge_witness(p, ft, c, &sub[c.index()], scratch);
                b.intersect_with(&ok);
                scratch.put(ok);
            }
            bm.push(b);
        }
        scratch.put_all(sub);

        // Path walk over the proper ancestors of the region root (outside
        // the region, lazy matcher): reach mask and ancestor-union at the
        // region root's parent.
        let mut lazy = FlatSubMatcher::new(p, ft);
        let mut path: Vec<usize> = Vec::new();
        let mut cur = ft.parent(rr);
        while cur != NO_PARENT {
            path.push(cur as usize);
            cur = ft.parent(cur as usize);
        }
        path.reverse();
        let mut reach_parent = 0u64;
        let mut anc_parent = 0u64;
        for (step, &v) in path.iter().enumerate() {
            if step == 0 {
                // Only the document root can host u_0 (strong embeddings).
                reach_parent = if lazy.b_holds(&spine, 0, v) { 1 } else { 0 };
            } else {
                let anc = anc_parent | reach_parent;
                let mut r = 0u64;
                for i in 1..=k {
                    let prev_ok = match spine.axes[i] {
                        Axis::Child => reach_parent & (1 << (i - 1)) != 0,
                        Axis::Descendant => anc & (1 << (i - 1)) != 0,
                    };
                    if prev_ok && lazy.b_holds(&spine, i, v) {
                        r |= 1 << i;
                    }
                }
                anc_parent = anc;
                reach_parent = r;
            }
        }
        let outside = anc_parent | reach_parent;

        // In-region reachability, one set per spine position. `r_prev`
        // holds the valid in-region images of position i-1.
        let mut r_prev = scratch.take();
        if rr == root && bm[0].contains(root) {
            r_prev.insert(root);
        }
        // `i` walks spine positions, indexing `bm`, `spine.axes`, and the
        // reach bit masks in lockstep — a range loop is the clear shape.
        #[allow(clippy::needless_range_loop)]
        for i in 1..=k {
            let mut cur_set = scratch.take();
            match spine.axes[i] {
                Axis::Child => {
                    // Entering the region from the path: u_{i-1} at the
                    // region root's parent puts u_i exactly at the root.
                    if reach_parent & (1 << (i - 1)) != 0 && bm[i].contains(rr) {
                        cur_set.insert(rr);
                    }
                    for m in bm[i].iter() {
                        let par = ft.parent(m);
                        if par != NO_PARENT && r_prev.contains(par as usize) {
                            cur_set.insert(m);
                        }
                    }
                }
                Axis::Descendant => {
                    if outside & (1 << (i - 1)) != 0 {
                        // Some outside ancestor hosts u_{i-1}: every region
                        // slot is a proper descendant of it.
                        cur_set.copy_from(&bm[i]);
                    } else {
                        // Strict-descendant closure of r_prev within the
                        // region: forward sweep in slot order (parents
                        // precede children).
                        let mut below = scratch.take();
                        for m in mask.iter() {
                            let par = ft.parent(m);
                            if par != NO_PARENT
                                && (r_prev.contains(par as usize) || below.contains(par as usize))
                            {
                                below.insert(m);
                            }
                        }
                        cur_set.copy_from(&bm[i]);
                        cur_set.intersect_with(&below);
                        scratch.put(below);
                    }
                }
            }
            scratch.put(r_prev);
            r_prev = cur_set;
        }
        let found = collect_nodes(&r_prev);
        scratch.put(r_prev);
        scratch.put_all(bm);
        found
    });
    (found, mask)
}

/// A fused evaluator for one batch of queries against one snapshot.
///
/// Beyond the scratch pool, it keeps every completed sub-match set of the
/// batch keyed by the structural fingerprint of its pattern subtree
/// ([`Pattern::fingerprint_at`] — the same hashes the `PatternInterner`
/// dedups by, stable under sibling reordering), so queries sharing interned
/// pattern nodes compute each shared table once.
pub struct BatchEval<'t> {
    ft: &'t FlatTree,
    scratch: EvalScratch,
    tables: HashMap<u64, BitSet>,
    shared_hits: u64,
}

impl<'t> BatchEval<'t> {
    /// A fused evaluator bound to the snapshot `ft`.
    pub fn new(ft: &'t FlatTree) -> BatchEval<'t> {
        BatchEval {
            ft,
            scratch: EvalScratch::new(ft.arena_len()),
            tables: HashMap::new(),
            shared_hits: 0,
        }
    }

    /// How many sub-match sets were served from the shared table cache.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// The snapshot this evaluator is bound to.
    pub fn flat(&self) -> &FlatTree {
        self.ft
    }

    /// Sub-match table with cross-query sharing (unpinned only — pinning
    /// would poison the shared cache).
    fn sub_tables(&mut self, p: &Pattern) -> Vec<BitSet> {
        let mut sub: Vec<BitSet> = (0..p.len()).map(|_| self.scratch.take()).collect();
        for pi in (0..p.len()).rev() {
            let pid = PatId(pi as u32);
            let fp = p.fingerprint_at(pid);
            if let Some(cached) = self.tables.get(&fp) {
                self.shared_hits += 1;
                sub[pi].copy_from(cached);
                continue;
            }
            seed_node(p, self.ft, pid, &mut sub[pi]);
            fold_children(p, self.ft, pid, &mut sub, &mut self.scratch);
            self.tables.insert(fp, sub[pi].clone());
        }
        sub
    }

    /// `P(t)` against the bound snapshot — identical output to
    /// [`evaluate_flat`] (and to the reference [`crate::embed::evaluate`]).
    pub fn evaluate(&mut self, p: &Pattern) -> Vec<NodeId> {
        let out = self.output_set(p, None);
        let nodes = collect_nodes(&out);
        self.scratch.put(out);
        nodes
    }

    /// Anchored evaluation against the bound snapshot — identical output to
    /// [`evaluate_anchored_flat`].
    pub fn evaluate_anchored(&mut self, p: &Pattern, anchors: &[NodeId]) -> Vec<NodeId> {
        let out = self.output_set(p, Some(anchors));
        let nodes = collect_nodes(&out);
        self.scratch.put(out);
        nodes
    }

    /// [`BatchEval::evaluate`] writing the answer into `arena` instead of
    /// allocating a `Vec` — the run's nodes are identical.
    pub fn evaluate_into(&mut self, p: &Pattern, arena: &mut AnswerArena) -> AnswerRef {
        let out = self.output_set(p, None);
        let r = arena.push_run(out.iter().map(|i| NodeId(i as u32)));
        self.scratch.put(out);
        r
    }

    /// [`BatchEval::evaluate_anchored`] writing into `arena`.
    pub fn evaluate_anchored_into(
        &mut self,
        p: &Pattern,
        anchors: &[NodeId],
        arena: &mut AnswerArena,
    ) -> AnswerRef {
        let out = self.output_set(p, Some(anchors));
        let r = arena.push_run(out.iter().map(|i| NodeId(i as u32)));
        self.scratch.put(out);
        r
    }

    /// The output node set of `p` over the snapshot (`anchors == None`
    /// means "from the document root"); the caller returns the set to the
    /// scratch pool after reading it out.
    fn output_set(&mut self, p: &Pattern, anchors: Option<&[NodeId]>) -> BitSet {
        let mut roots = self.scratch.take();
        match anchors {
            None => {
                roots.insert(self.ft.root().index());
            }
            Some(anchors) => {
                for &n in anchors {
                    if self.ft.is_alive(n.index()) {
                        roots.insert(n.index());
                    }
                }
            }
        }
        let sub = self.sub_tables(p);
        let out = propagate_selection_flat(p, self.ft, &sub, roots, &mut self.scratch);
        self.scratch.put_all(sub);
        out
    }
}

/// Evaluates a whole batch in one fused pass (one [`BatchEval`]) and
/// returns per-query outputs in order.
pub fn evaluate_batch_flat(ft: &FlatTree, queries: &[&Pattern]) -> Vec<Vec<NodeId>> {
    let mut batch = BatchEval::new(ft);
    queries.iter().map(|p| batch.evaluate(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{evaluate, evaluate_anchored, sub_match_sets};
    use xpv_model::{Tree, TreeBuilder};
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn doc() -> Tree {
        TreeBuilder::root("a", |t| {
            t.child("b", |t| {
                t.child("c", |t| {
                    t.leaf("d");
                });
            });
            t.child("c", |t| {
                t.leaf("d");
            });
        })
    }

    const QUERIES: &[&str] = &[
        "a/c/d",
        "a//d",
        "a/*",
        "a//c[d]",
        "a/b/c[d]",
        "a//c[x]",
        "b//d",
        "a[b]//d",
        "a[b[c]][c/d]//d",
        "*/*/*",
        "*//*",
        "a",
        "*",
        "a//*",
    ];

    #[test]
    fn flat_tables_match_reference() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            let p = pat(q);
            assert_eq!(sub_match_sets_flat(&p, &ft, None), sub_match_sets(&p, &t, None), "{q}");
        }
    }

    #[test]
    fn flat_evaluate_matches_reference() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            let p = pat(q);
            assert_eq!(evaluate_flat(&p, &ft), evaluate(&p, &t), "{q}");
        }
    }

    #[test]
    fn flat_anchored_matches_reference() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        let cs = evaluate(&pat("a//c"), &t);
        assert_eq!(
            evaluate_anchored_flat(&pat("c/d"), &ft, &cs),
            evaluate_anchored(&pat("c/d"), &t, &cs)
        );
        assert!(evaluate_anchored_flat(&pat("c/d"), &ft, &[]).is_empty());
    }

    #[test]
    fn flat_handles_tombstones() {
        let mut t = doc();
        let b = t.children(t.root())[0];
        t.remove_subtree(b);
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            let p = pat(q);
            assert_eq!(evaluate_flat(&p, &ft), evaluate(&p, &t), "{q} after edit");
            assert_eq!(sub_match_sets_flat(&p, &ft, None), sub_match_sets(&p, &t, None), "{q}");
        }
        // Tombstoned anchors contribute nothing, matching the reference.
        let r = evaluate_anchored_flat(&pat("b//d"), &ft, &[b]);
        assert_eq!(r, evaluate_anchored(&pat("b//d"), &t, &[b]));
        assert!(r.is_empty());
    }

    #[test]
    fn region_answers_match_global_restriction() {
        // For every live region root: region answers = global answers that
        // lie inside the subtree (the same equivalence the maintainer's
        // `Tree`-path oracle pins, here for the flat matcher).
        let t = doc();
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            let p = pat(q);
            let global = evaluate_flat(&p, &ft);
            for n in t.node_ids() {
                let (found, mask) = region_answers_flat(&p, &ft, n);
                let expect: Vec<NodeId> =
                    global.iter().copied().filter(|m| mask.contains(m.index())).collect();
                assert_eq!(found, expect, "{q} at region {n:?}");
                assert_eq!(mask, ft.subtree_mask(n.index()), "{q} mask at {n:?}");
            }
        }
    }

    #[test]
    fn region_answers_handle_tombstones() {
        let mut t = doc();
        let b = t.children(t.root())[0];
        t.remove_subtree(b);
        t.add_child(t.root(), xpv_model::Label::new("c"));
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            let p = pat(q);
            let global = evaluate_flat(&p, &ft);
            for n in t.node_ids() {
                let (found, mask) = region_answers_flat(&p, &ft, n);
                let expect: Vec<NodeId> =
                    global.iter().copied().filter(|m| mask.contains(m.index())).collect();
                assert_eq!(found, expect, "{q} at region {n:?} after edits");
            }
        }
    }

    #[test]
    fn pinning_matches_reference() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        let p = pat("a//d");
        for n in t.node_ids() {
            assert_eq!(
                sub_match_sets_flat(&p, &ft, Some((p.output(), n))),
                sub_match_sets(&p, &t, Some((p.output(), n))),
                "pin at {n:?}"
            );
        }
    }

    #[test]
    fn batch_matches_per_query_and_shares_tables() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        let pats: Vec<Pattern> = QUERIES.iter().map(|q| pat(q)).collect();
        let refs: Vec<&Pattern> = pats.iter().collect();
        let mut batch = BatchEval::new(&ft);
        for p in &refs {
            assert_eq!(batch.evaluate(p), evaluate(p, &t));
        }
        // Shared subtrees (a//d appears alone and inside a[b]//d's spine
        // suffix, the repeated single-node patterns, …) must hit the cache.
        assert!(batch.shared_hits() > 0, "expected cross-query table sharing");
        // And the convenience wrapper agrees.
        let outs = evaluate_batch_flat(&ft, &refs);
        for (p, out) in refs.iter().zip(&outs) {
            assert_eq!(*out, evaluate(p, &t));
        }
    }
}
