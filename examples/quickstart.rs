//! Quickstart: rewrite a query over a materialized view and verify the
//! answer on a document.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xpath_views::model::FlatTree;
use xpath_views::prelude::*;

fn main() {
    // A document: a tiny library.
    let doc = parse_xml(
        "<lib>\
           <shelf><book><title/><author/></book><book><title/></book></shelf>\
           <shelf><box><book><title/><author/></book></box></shelf>\
         </lib>",
    )
    .expect("well-formed XML");

    // The view that has been materialized, and a new query.
    let view = parse_xpath("lib//book").expect("view parses");
    let query = parse_xpath("lib//book[author]/title").expect("query parses");

    // 1. Decide rewritability.
    let planner = RewritePlanner::default();
    let rewriting = match planner.decide(&query, &view) {
        RewriteAnswer::Rewriting(rw) => {
            println!("rewriting found: R = {}", rw.pattern());
            println!("  method:    {:?}", rw.method);
            if let Some(cond) = &rw.condition {
                println!("  condition: {cond} ({})", cond.source());
            }
            rw.pattern().clone()
        }
        RewriteAnswer::NoRewriting(reason) => {
            panic!("no rewriting: {reason:?}");
        }
        RewriteAnswer::Unknown(info) => {
            panic!("planner could not decide: {info:?}");
        }
    };

    // 2. The algebra behind it: R ∘ V ≡ P (Proposition 2.4 makes this the
    //    same as "applying R to the view result answers P").
    let composed = compose(&rewriting, &view).expect("composition is nonempty");
    assert!(equivalent(&composed, &query));
    println!("verified:  R ∘ V = {composed}  ≡  P = {query}");

    // 3. Materialize the view and answer the query from it.
    //    A view stores its answer nodes, computed on the frozen document.
    let flat = FlatTree::freeze(&doc);
    let materialized = MaterializedView::materialize("books", view, &flat);
    println!("view 'books' materialized: {} answer node(s)", materialized.len());
    let via_view = materialized.apply_virtual(&rewriting, &flat);
    let direct = evaluate(&query, &doc);
    assert_eq!(via_view, direct);
    println!(
        "query answered from the view: {} node(s), identical to direct evaluation",
        via_view.len()
    );
    for n in &via_view {
        println!("  answer subtree: {}", to_xml(&doc.subtree(*n).0));
    }
}
