//! Layer probes: each layer's public entry point timed from outside on
//! the workload's own inputs.
//!
//! Every ratio against direct evaluation divides by the *flat* direct
//! evaluators (`evaluate_flat`, or fused `BatchEval` with the batch's
//! duplicates removed before timing) on the same snapshot and batches,
//! never by the `Tree` walker behind `answer_direct`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use xpv_core::{PlanningSession, RewriteAnswer, RewritePlanner};
use xpv_engine::ShardedViewCache;
use xpv_intersect::{plan_intersection_sig, IntersectConfig};
use xpv_model::{AnswerArena, FlatTree};
use xpv_pattern::{Pattern, QuerySignature, ViewSignature};
use xpv_semantics::{evaluate_flat, BatchEval, ContainmentOracle};

use crate::inputs::Inputs;
use crate::stats::{median, Samples};

/// Replayed batches the evaluation probes run over, at most.
const PROBE_BATCHES: usize = 1000;
/// Distinct queries the planning probes run over, at most.
const PROBE_QUERIES: usize = 100;

#[derive(Default)]
pub struct ProbeOut {
    pub freeze_us: f64,
    pub flat_direct_us_per_query: f64,
    pub fused_direct_us_per_query: f64,
    pub engine_us_per_query: f64,
    pub intern_us_per_query: f64,
    pub signature_us: f64,
    pub decide_us: Samples,
    pub rewrite_found_share: f64,
    pub intersect_plan_us: Samples,
}

/// Runs every probe over the first [`PROBE_BATCHES`] of `batches` (the
/// replayed batch indices) on the workload's initial document.
pub fn run(inputs: &Inputs, batches: &[u64]) -> ProbeOut {
    let mut out = ProbeOut::default();
    let batches: Vec<Vec<Pattern>> =
        batches.iter().take(PROBE_BATCHES).map(|&b| inputs.queries.batch(b)).collect();
    let queries: usize = batches.iter().map(Vec::len).sum();
    let per_query = |d: Duration| d.as_secs_f64() * 1e6 / queries.max(1) as f64;

    let mut freezes = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        black_box(FlatTree::freeze(&inputs.doc));
        freezes.push(started.elapsed().as_secs_f64() * 1e6);
    }
    out.freeze_us = median(&freezes);
    let flat = FlatTree::freeze(&inputs.doc);

    let started = Instant::now();
    for q in batches.iter().flatten() {
        black_box(evaluate_flat(q, &flat));
    }
    out.flat_direct_us_per_query = per_query(started.elapsed());

    // Fused direct evaluation gets the batch deduplication for free: the
    // repeats are found before the clock starts.
    let unique: Vec<Vec<&Pattern>> = batches
        .iter()
        .map(|b| {
            let mut seen = HashMap::new();
            b.iter().filter(|q| seen.insert(q.to_string(), ()).is_none()).collect()
        })
        .collect();
    let mut arena = AnswerArena::new();
    let mut fused = Duration::ZERO;
    for batch in &unique {
        arena.clear();
        let started = Instant::now();
        let mut eval = BatchEval::new(&flat);
        for q in batch {
            black_box(eval.evaluate_into(q, &mut arena));
        }
        fused += started.elapsed();
    }
    out.fused_direct_us_per_query = per_query(fused);

    // The serving engine on the same snapshot and batches, memo warmed by
    // one untimed pass.
    let cache = ShardedViewCache::new(inputs.doc.clone());
    for (name, def) in &inputs.views {
        cache.add_view(name, def.clone());
    }
    for b in &batches {
        black_box(cache.answer_batch_refs(b, &mut arena));
    }
    let mut engine = Duration::ZERO;
    for b in &batches {
        let started = Instant::now();
        black_box(cache.answer_batch_refs(b, &mut arena));
        engine += started.elapsed();
    }
    out.engine_us_per_query = per_query(engine);

    let oracle = ContainmentOracle::new();
    let started = Instant::now();
    for q in batches.iter().flatten() {
        black_box(oracle.intern_fingerprinted(q));
    }
    out.intern_us_per_query = per_query(started.elapsed());

    // Planning probes over the distinct queries of the probed batches.
    let mut seen = HashMap::new();
    let distinct: Vec<&Pattern> = batches
        .iter()
        .flatten()
        .filter(|q| seen.insert(q.to_string(), ()).is_none())
        .take(PROBE_QUERIES)
        .collect();
    const SIG_REPS: u32 = 20;
    let started = Instant::now();
    for _ in 0..SIG_REPS {
        for q in &distinct {
            black_box(QuerySignature::of(q));
        }
    }
    out.signature_us =
        started.elapsed().as_secs_f64() * 1e6 / (SIG_REPS as usize * distinct.len().max(1)) as f64;

    let pool: Vec<&Pattern> = inputs.views.iter().map(|(_, v)| v).collect();
    let view_sigs: Vec<ViewSignature> = pool.iter().map(|v| ViewSignature::of(v)).collect();
    let session = PlanningSession::new(RewritePlanner::default());
    let (mut pairs, mut found) = (0u64, 0u64);
    for q in &distinct {
        let qsig = QuerySignature::of(q);
        for (v, vsig) in pool.iter().zip(&view_sigs) {
            if !qsig.admits(vsig) {
                continue;
            }
            let started = Instant::now();
            let answer = session.decide(q, v);
            out.decide_us.push(started.elapsed().as_secs_f64() * 1e6);
            pairs += 1;
            found += matches!(answer, RewriteAnswer::Rewriting(_)) as u64;
        }
    }
    out.rewrite_found_share = crate::stats::share(found, pairs);

    let session = PlanningSession::new(RewritePlanner::default());
    let cfg = IntersectConfig::default();
    for q in &distinct {
        let qsig = QuerySignature::of(q);
        let started = Instant::now();
        black_box(plan_intersection_sig(&session, q, &pool, Some((&qsig, &view_sigs)), &cfg));
        out.intersect_plan_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    out
}
