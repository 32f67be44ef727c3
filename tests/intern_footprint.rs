//! Memory footprint of what the planner keeps per distinct query.
//!
//! * Interning a distinct `<spine>[pred]*/<output>` query (the ad-hoc
//!   planning traffic shape) leaves at most two live heap blocks and 320
//!   bytes in the containment oracle: one boxed canonical code plus its
//!   share of the hash table — no `Pattern` clone.
//! * A plan-memo hit shares the memoized route: fetching a `ViaView`
//!   route from the memo allocates nothing, and every answer served from
//!   it carries the same `Arc<Route>`.
//!
//! Allocation counts are deterministic, so neither check depends on
//! timing. The counting `#[global_allocator]` keeps per-thread tallies, so
//! the test harness's own threads cannot disturb a measurement; it lives
//! in its own integration binary because a global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use xpath_views::model::AnswerArena;
use xpath_views::prelude::*;
use xpath_views::workload::site_doc;

/// Counts allocations and live heap on the allocating thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(cell: &'static std::thread::LocalKey<Cell<i64>>, delta: i64) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = cell.try_with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add(&LIVE_BLOCKS, 1);
        add(&LIVE_BYTES, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&LIVE_BLOCKS, -1);
        add(&LIVE_BYTES, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add(&LIVE_BYTES, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, live blocks, live bytes)` of the current thread so far.
fn tally() -> (u64, i64, i64) {
    (ALLOCS.with(Cell::get), LIVE_BLOCKS.with(Cell::get), LIVE_BYTES.with(Cell::get))
}

const SPINES: [&str; 4] = ["site/region/item", "site//item", "site/region/*/item", "site/*/item"];
const PREDICATES: [&str; 12] = [
    "name",
    "description",
    "description/parlist",
    "description//listitem",
    "bids",
    "bids/bid",
    "bids/bid/bidder",
    "bids//price",
    "shipping",
    "shipping/cost",
    "*/bid",
    "location",
];
const OUTPUTS: [&str; 5] =
    ["name", "description/parlist/listitem", "bids/bid", "bids//price", "shipping/cost"];

/// Member `j` of a universe of 4 · 2¹² · 5 distinct
/// `<spine>[pred]*/<output>` queries, visited with a stride coprime to its
/// size so consecutive members differ in every part.
fn cold_query(j: u64) -> Pattern {
    let size = (SPINES.len() * OUTPUTS.len()) as u64 * (1 << PREDICATES.len());
    let mut x = (j * 7919 + 13) % size;
    let output = OUTPUTS[(x % OUTPUTS.len() as u64) as usize];
    x /= OUTPUTS.len() as u64;
    let mut text = SPINES[(x % SPINES.len() as u64) as usize].to_string();
    x /= SPINES.len() as u64;
    for (bit, pred) in PREDICATES.iter().enumerate() {
        if x >> bit & 1 == 1 {
            text.push('[');
            text.push_str(pred);
            text.push(']');
        }
    }
    text.push('/');
    text.push_str(output);
    parse_xpath(&text).expect("well-formed query")
}

#[test]
fn interning_keeps_one_block_and_a_few_hundred_bytes_per_distinct_query() {
    const N: usize = 10_000;
    let queries: Vec<Pattern> = (0..N as u64).map(cold_query).collect();
    let oracle = ContainmentOracle::new();
    // Warm the per-thread code buffers on the largest query shape.
    let widest = queries.iter().max_by_key(|q| q.len()).expect("queries");
    oracle.intern(widest);
    let base = oracle.interned_patterns();

    let (_, blocks0, bytes0) = tally();
    for q in &queries {
        oracle.intern_fingerprinted(q);
    }
    let (_, blocks1, bytes1) = tally();

    assert_eq!(oracle.interned_patterns() - base, N - 1, "the queries are distinct");
    let nodes: usize = queries.iter().map(Pattern::len).sum();
    let blocks = (blocks1 - blocks0) as f64 / N as f64;
    let bytes = (bytes1 - bytes0) as f64 / N as f64;
    println!(
        "per distinct query: {blocks:.2} live blocks, {bytes:.0} live bytes \
         ({:.1} pattern nodes on average)",
        nodes as f64 / N as f64
    );
    assert!(blocks <= 2.0, "{blocks:.2} live heap blocks per interned query (bound 2)");
    assert!(bytes <= 320.0, "{bytes:.0} live bytes per interned query (bound 320)");
}

#[test]
fn plan_memo_hits_share_the_route_without_allocating() {
    let cache = ShardedViewCache::new(site_doc(4, 4, 1));
    cache.add_view("items", parse_xpath("site/region/item").expect("view"));
    let via_view = parse_xpath("site/region/item[shipping]/name").expect("query");
    let direct = parse_xpath("site/categories/category/name").expect("query");
    let mut arena = AnswerArena::new();

    assert!(cache.memoized_route(&via_view).is_none(), "nothing planned yet");
    let first = cache.answer_batch_refs(&[via_view.clone(), direct.clone()], &mut arena);
    assert!(matches!(*first[0].route, Route::ViaView { .. }), "got {:?}", first[0].route);
    assert_eq!(*first[1].route, Route::Direct);

    for (i, q) in [&via_view, &direct].into_iter().enumerate() {
        cache.memoized_route(q).expect("memoized"); // warm the code buffers
        let (allocs0, ..) = tally();
        let route = cache.memoized_route(q).expect("memoized");
        let (allocs1, ..) = tally();
        assert_eq!(allocs1 - allocs0, 0, "fetching the memoized route of {q} allocated");
        assert!(Arc::ptr_eq(&route, &first[i].route), "{q}: the memo holds the served route");
    }

    // Later answers served from the memo carry the very same route.
    let before = cache.stats();
    let again = cache.answer_batch_refs(&[via_view, direct], &mut arena);
    assert_eq!(cache.stats().plan_memo_hits - before.plan_memo_hits, 2);
    for (a, b) in again.iter().zip(&first) {
        assert!(Arc::ptr_eq(&a.route, &b.route), "memo hit rebuilt its route: {:?}", a.route);
    }
}
