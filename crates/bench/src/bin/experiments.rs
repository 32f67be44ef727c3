//! Regenerates every table of EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p xpv-bench --bin experiments [--quick]`
//!
//! Tables:
//! * **T1** — completeness audit: planner vs brute-force oracle on the
//!   per-condition catalog and on random instances (agreement must be 100%).
//! * **T2** — planner vs brute-force latency (the "two containment tests vs
//!   double exponential" claim).
//! * **T3** — candidate-completeness search (the paper's open question 2):
//!   random certificate-free instances; a brute-force rewriting where both
//!   natural candidates fail would be a counterexample.
//! * **C1** — containment latency by fragment and size; hom-gap and
//!   coNP-stress series.
//! * **C2** — view-based answering vs direct evaluation over growing
//!   documents.
//! * **T4** — ablations: hom fast-path hit rate; expansion-bound padding
//!   agreement and cost.

use std::time::{Duration, Instant};

use xpv_bench::{condition_catalog, instance_batch, pat};
use xpv_core::{
    brute_force_rewrite, BruteForceConfig, BruteForceOutcome, RewriteAnswer, RewritePlanner,
};
use xpv_engine::MaterializedView;
use xpv_model::FlatTree;
use xpv_pattern::compose;
use xpv_semantics::{
    contained, contained_with, equivalent, evaluate, evaluate_flat, expansion_bound,
    ContainmentOptions,
};
use xpv_workload::{
    conp_stress_instance, hom_gap_instance, no_condition_instance, site_catalog, site_doc, Fragment,
};

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn mean_micros(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|d| d.as_secs_f64() * 1e6).sum::<f64>() / samples.len() as f64
}

/// The brute-force oracle's three verdicts for the audit.
enum Oracle {
    Found,
    NoneUpTo(usize),
    Inconclusive,
}

fn oracle_verdict(
    p: &xpv_pattern::Pattern,
    v: &xpv_pattern::Pattern,
    bf: &BruteForceConfig,
) -> Oracle {
    if v.depth() > p.depth() {
        return Oracle::NoneUpTo(usize::MAX);
    }
    match brute_force_rewrite(p, v, bf) {
        BruteForceOutcome::Found(..) => Oracle::Found,
        BruteForceOutcome::Exhausted(_) => Oracle::NoneUpTo(bf.max_nodes),
        BruteForceOutcome::GateClosed(_) => Oracle::NoneUpTo(usize::MAX),
        BruteForceOutcome::BudgetExceeded(_) => Oracle::Inconclusive,
    }
}

/// Audits one instance: returns (rewrite, no_rw, unknown, disagree, oracle_open).
fn audit_instance(
    planner: &RewritePlanner,
    bf: &BruteForceConfig,
    p: &xpv_pattern::Pattern,
    v: &xpv_pattern::Pattern,
) -> (u32, u32, u32, u32, u32) {
    let ans = planner.decide(p, v);
    match ans {
        RewriteAnswer::Rewriting(r) => {
            // Soundness is checked unconditionally: R ∘ V ≡ P.
            let rv = compose(r.pattern(), v).expect("verified rewriting composes");
            assert!(equivalent(&rv, p), "planner returned a wrong rewriting");
            // The oracle disagrees only if it *exhausted* a space that
            // includes the found rewriting's size.
            let disagree = match oracle_verdict(p, v, bf) {
                Oracle::NoneUpTo(cap) if r.pattern().len() <= cap => 1,
                _ => 0,
            };
            (1, 0, 0, disagree, 0)
        }
        RewriteAnswer::NoRewriting(_) => {
            let disagree = match oracle_verdict(p, v, bf) {
                Oracle::Found => 1,
                _ => 0,
            };
            (0, 1, 0, disagree, 0)
        }
        RewriteAnswer::Unknown(_) => {
            let open = match oracle_verdict(p, v, bf) {
                Oracle::Inconclusive => 1,
                _ => 0,
            };
            (0, 0, 1, 0, open)
        }
    }
}

fn table_t1(quick: bool) {
    println!("\n== T1: completeness audit (planner vs brute-force oracle) ==");
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "class", "instances", "rewrite", "no-rw", "unknown", "disagree"
    );
    let planner = RewritePlanner::without_fallback();
    let bf = BruteForceConfig { max_nodes: 7, max_tested: 20_000, ..Default::default() };

    let mut disagreements_total = 0u32;
    for (name, p, v) in condition_catalog() {
        let (rw, no_rw, unknown, disagree, _) = audit_instance(&planner, &bf, &p, &v);
        disagreements_total += disagree;
        println!("{name:<28} {:>9} {rw:>9} {no_rw:>9} {unknown:>9} {disagree:>10}", 1);
    }

    let per_class = if quick { 40 } else { 150 };
    for (name, fragment) in [
        ("random XP{//,[]}", Fragment::NoWildcard),
        ("random XP{[],*}", Fragment::NoDescendant),
        ("random XP{//,*}", Fragment::NoBranch),
        ("random XP{//,[],*}", Fragment::Full),
    ] {
        let batch = instance_batch(fragment, 3, per_class, 0x5EED);
        let (mut rw, mut no_rw, mut unknown, mut disagree) = (0u32, 0u32, 0u32, 0u32);
        for (p, v) in &batch {
            let (a, b, c, d, _) = audit_instance(&planner, &bf, p, v);
            rw += a;
            no_rw += b;
            unknown += c;
            disagree += d;
        }
        disagreements_total += disagree;
        println!("{name:<28} {:>9} {rw:>9} {no_rw:>9} {unknown:>9} {disagree:>10}", batch.len());
    }
    println!("TOTAL disagreements: {disagreements_total} (expected: 0)");
}

fn table_t2(quick: bool) {
    println!("\n== T2: planner vs brute force latency (µs, mean) ==");
    println!("{:<8} {:>14} {:>14} {:>10}", "depth", "planner", "bruteforce", "ratio");
    let planner = RewritePlanner::without_fallback();
    // The brute force is budget-capped, so its timings are a LOWER bound on
    // the full Proposition 3.4 cost; the ratio only grows without the cap.
    let bf = BruteForceConfig { max_nodes: 6, max_tested: 2_000, ..Default::default() };
    let reps = if quick { 1 } else { 3 };
    for depth in [2usize, 3, 4] {
        let batch = instance_batch(Fragment::Full, depth, 8, 0xBEEF + depth as u64);
        let mut tp = Vec::new();
        let mut tb = Vec::new();
        for _ in 0..reps {
            for (p, v) in &batch {
                let (_, d) = time(|| planner.decide(p, v));
                tp.push(d);
                if v.depth() <= p.depth() {
                    let (_, d) = time(|| brute_force_rewrite(p, v, &bf));
                    tb.push(d);
                }
            }
        }
        let (mp, mb) = (mean_micros(&tp), mean_micros(&tb));
        println!("{depth:<8} {mp:>14.1} {mb:>14.1} {:>10.1}x", mb / mp.max(1e-9));
    }
}

fn table_t3(quick: bool) {
    println!("\n== T3: candidate-completeness search (open question 2) ==");
    let planner = RewritePlanner::without_fallback();
    let bf = BruteForceConfig { max_nodes: 7, max_tested: 80_000, ..Default::default() };
    let per_seg = if quick { 1 } else { 2 };
    let mut counterexamples = 0u32;
    let mut searched = 0u32;

    // Structured certificate-free family.
    for segments in 1..=per_seg {
        let (p, v) = no_condition_instance(segments);
        searched += 1;
        let planner_ans = planner.decide(&p, &v);
        if let RewriteAnswer::Unknown(_) = planner_ans {
            if let BruteForceOutcome::Found(r, _) = brute_force_rewrite(&p, &v, &bf) {
                counterexamples += 1;
                println!("  COUNTEREXAMPLE: P={p} V={v} R={r}");
            }
        }
    }

    // Random certificate-free instances: wildcard- and branch-heavy shapes
    // dodge the stability/GNF certificates far more often.
    let n_random = if quick { 60 } else { 300 };
    let cfg = xpv_workload::PatternGenConfig {
        depth: (3, 4),
        wildcard_prob: 0.85,
        branch_prob: 0.8,
        descendant_prob: 0.5,
        ..Default::default()
    };
    let mut g = xpv_workload::PatternGen::new(cfg, 0xD15C);
    let batch: Vec<_> = (0..n_random).map(|_| g.instance()).collect();
    for (p, v) in &batch {
        if v.depth() > p.depth() {
            continue;
        }
        if let (RewriteAnswer::Unknown(_), _) =
            RewritePlanner::without_fallback().decide_with_stats(p, v)
        {
            searched += 1;
            if let BruteForceOutcome::Found(r, _) = brute_force_rewrite(p, v, &bf) {
                // A brute-force hit alone is not a counterexample — only if
                // both natural candidates fail (Unknown already implies the
                // candidates failed in the planner).
                counterexamples += 1;
                println!("  COUNTEREXAMPLE: P={p} V={v} R={r}");
            }
        }
    }
    println!(
        "certificate-free instances searched: {searched}; rewritings beyond the natural \
         candidates found: {counterexamples} (paper conjectures 0)"
    );
}

fn table_c1(quick: bool) {
    println!("\n== C1: containment latency by fragment (µs, mean over batch) ==");
    println!("{:<14} {:>7} {:>12} {:>12}", "fragment", "depth", "time", "hom-hit%");
    let reps = if quick { 2 } else { 5 };
    for (name, fragment) in [
        ("XP{//,[]}", Fragment::NoWildcard),
        ("XP{[],*}", Fragment::NoDescendant),
        ("XP{//,*}", Fragment::NoBranch),
        ("XP{//,[],*}", Fragment::Full),
    ] {
        for depth in [2usize, 4, 6] {
            let batch = xpv_bench::containment_batch(fragment, depth, 16, 0xC0FFEE + depth as u64);
            let mut samples = Vec::new();
            let mut hom_hits = 0u32;
            let mut total = 0u32;
            for _ in 0..reps {
                for (p1, p2) in &batch {
                    let (out, d) = time(|| contained_with(p1, p2, &ContainmentOptions::default()));
                    samples.push(d);
                    total += 1;
                    hom_hits += u32::from(out.via_homomorphism);
                }
            }
            println!(
                "{name:<14} {depth:>7} {:>10.1}µs {:>11.0}%",
                mean_micros(&samples),
                100.0 * f64::from(hom_hits) / f64::from(total.max(1))
            );
        }
    }

    println!("\n-- C1b: hom-gap family (canonical loop forced) --");
    for n in 1..=4usize {
        let (p1, p2) = hom_gap_instance(n);
        let (out, d) = time(|| contained_with(&p1, &p2, &ContainmentOptions::default()));
        assert!(out.holds && !out.via_homomorphism);
        println!(
            "  n={n}: {:>8.1}µs  models={}  ({p1} ⊑ {p2})",
            d.as_secs_f64() * 1e6,
            out.models_checked
        );
    }

    println!("\n-- C1c: coNP stress (hom fast path disabled) --");
    let m_max = if quick { 3 } else { 4 };
    let opts = ContainmentOptions { hom_fast_path: false, bound_override: None };
    for m in 1..=m_max {
        let (p1, p2) = conp_stress_instance(m, 2);
        let (out, d) = time(|| contained_with(&p1, &p2, &opts));
        println!(
            "  m={m}: {:>10.1}µs  models={}  holds={}",
            d.as_secs_f64() * 1e6,
            out.models_checked,
            out.holds
        );
    }
}

fn table_c2(quick: bool) {
    println!("\n== C2: view-based answering vs direct evaluation (site docs) ==");
    println!(
        "{:<8} {:>9} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "scale", "doc-nodes", "view-size", "direct", "virtual", "material.", "spd(virt)"
    );
    let planner = RewritePlanner::without_fallback();
    let catalog = site_catalog();
    let scales: &[usize] = if quick { &[4, 8, 16] } else { &[4, 8, 16, 32, 64] };
    for &scale in scales {
        let doc = site_doc(scale, scale, 7);
        // Selective view: the bids (a small slice of the document).
        let view_def = pat("site//bid");
        let flat = FlatTree::freeze(&doc);
        let view = MaterializedView::materialize("bids", view_def.clone(), &flat);
        let (_, query) =
            catalog.queries.iter().find(|(n, _)| *n == "bid_prices").expect("catalog query");
        let rewriting = match planner.decide(query, &view_def) {
            RewriteAnswer::Rewriting(rw) => rw.pattern().clone(),
            other => panic!("expected rewriting, got {other:?}"),
        };
        // Correctness: virtual equals direct (node identity); materialized
        // equals both by value.
        let direct_answer = evaluate(query, &doc);
        assert_eq!(view.apply_virtual(&rewriting, &flat), direct_answer);
        assert_eq!(
            view.apply_materialized(&rewriting, &doc).len(),
            xpv_engine::answer_value_set(&doc, &direct_answer).len()
        );

        let reps = if quick { 5 } else { 20 };
        let (mut td, mut tv, mut tm) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let (_, d) = time(|| evaluate_flat(query, &flat));
            td.push(d);
            let (_, d) = time(|| view.apply_virtual(&rewriting, &flat));
            tv.push(d);
            let (_, d) = time(|| view.apply_materialized(&rewriting, &doc));
            tm.push(d);
        }
        let view_size: usize =
            view.nodes().iter().map(|&n| doc.descendants_inclusive(n).len()).sum();
        let (md, mv, mm) = (mean_micros(&td), mean_micros(&tv), mean_micros(&tm));
        println!(
            "{scale:<8} {:>9} {view_size:>10} {md:>10.1}µs {mv:>10.1}µs {mm:>8.1}µs {:>9.2}x",
            doc.len(),
            md / mv.max(1e-9)
        );
    }
}

fn table_t4(quick: bool) {
    println!("\n== T4: ablations ==");
    let batch =
        xpv_bench::containment_batch(Fragment::Full, 4, if quick { 12 } else { 24 }, 0xFEED);

    // (a) hom fast path.
    let on = ContainmentOptions { hom_fast_path: true, bound_override: None };
    let off = ContainmentOptions { hom_fast_path: false, bound_override: None };
    let (hits, t_on) = time(|| {
        batch.iter().filter(|(p1, p2)| contained_with(p1, p2, &on).via_homomorphism).count()
    });
    let (_, t_off) =
        time(|| batch.iter().filter(|(p1, p2)| contained_with(p1, p2, &off).holds).count());
    println!(
        "hom fast path: hit {}/{} checks; total {:.1}µs (on) vs {:.1}µs (off)",
        hits,
        batch.len(),
        t_on.as_secs_f64() * 1e6,
        t_off.as_secs_f64() * 1e6
    );

    // (b) expansion bound padding: answers must agree; cost grows.
    let mut mismatches = 0usize;
    let mut times = Vec::new();
    for pad in [0usize, 2] {
        let (answers, d) = time(|| {
            batch
                .iter()
                .map(|(p1, p2)| {
                    let opts = ContainmentOptions {
                        hom_fast_path: false,
                        bound_override: Some(expansion_bound(p2) + pad),
                    };
                    contained_with(p1, p2, &opts).holds
                })
                .collect::<Vec<bool>>()
        });
        times.push((pad, d, answers));
    }
    let base = times[0].2.clone();
    for (pad, d, answers) in &times {
        mismatches += answers.iter().zip(&base).filter(|(a, b)| a != b).count();
        println!(
            "bound B+{pad}: {:.1}µs for {} checks (agreement with B+0: {})",
            d.as_secs_f64() * 1e6,
            answers.len(),
            answers.iter().zip(&base).filter(|(a, b)| a == b).count()
        );
    }
    println!("bound-padding mismatches: {mismatches} (expected 0)");

    // (c) the role of the gates: on *independent* (query, view) pairs, how
    // many instances the depth/label gates settle without any containment
    // test. (On derived views the gates never fire — the view is built to be
    // compatible.)
    let instances =
        xpv_bench::independent_batch(Fragment::Full, 4, if quick { 60 } else { 200 }, 0xA11);
    let planner = RewritePlanner::without_fallback();
    let mut gated = 0usize;
    for (p, v) in &instances {
        let (ans, stats) = planner.decide_with_stats(p, v);
        if matches!(ans, RewriteAnswer::NoRewriting(_))
            && stats.candidate_tests.equivalence_tests == 0
        {
            gated += 1;
        }
    }
    println!(
        "gates settle {gated}/{} independent instances with zero equivalence tests",
        instances.len()
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "xpath-views experiments (seeded, deterministic){}",
        if quick { " [quick]" } else { "" }
    );
    // Correctness anchor for the figures before any table.
    let f1 = xpv_core::figure1();
    let rv = compose(&f1.r, &f1.v).expect("composes");
    assert!(equivalent(&rv, &f1.p));
    assert!(contained(&rv, &f1.p) && contained(&f1.p, &rv));

    table_t1(quick);
    table_t2(quick);
    table_t3(quick);
    table_c1(quick);
    table_c2(quick);
    table_t4(quick);
    println!("\nall tables regenerated; disagreement counters above must read 0");
}
