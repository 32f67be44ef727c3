//! The per-layer metrics of a traced run, by workspace crate.
//!
//! Sources: the traced wire phase (client samples, and server counters
//! read through `stats()` / `metrics_snapshot()` at the window's start
//! and end), its in-process replay, the layer probes, and the span
//! summary. A metric whose layer does no work on the workload (say
//! `maintain.*` on `hot_read`) reads 0.

use crate::probes::ProbeOut;
use crate::replay::{ReplayOut, ROUTES};
use crate::stats::{share, Metrics, Samples};
use crate::trace::Row;
use crate::wire::PhaseResult;

pub struct Sources<'a> {
    pub phase: &'a PhaseResult,
    /// Queries per second of the untraced reference phase, and of the
    /// traced phase over the same stretch of its window.
    pub untraced_qps: f64,
    pub traced_qps: f64,
    pub replay: &'a ReplayOut,
    pub probes: &'a ProbeOut,
    pub rows: &'a [Row],
}

/// A percentile as a metric: 0 when the sample has none, and `worst`
/// when it lands on a failed request.
fn pct(v: Option<f64>, worst: f64) -> f64 {
    match v {
        Some(v) if v.is_infinite() => worst,
        Some(v) => v,
        None => 0.0,
    }
}

/// Median of samples that hold no failures (0 when empty).
fn p50(s: &Samples) -> f64 {
    pct(s.p50(), 0.0)
}

/// [`Samples::tail`] of samples that hold no failures (0 when none).
fn tail(s: &Samples) -> f64 {
    pct(s.tail().map(|(_, v)| v), 0.0)
}

pub fn metrics(src: &Sources) -> Metrics {
    let (phase, r, p) = (src.phase, src.replay, src.probes);
    let (before, after) = &phase.counters[0];
    let (c0, c1) = (&before.cache, &after.cache);
    let queries = c1.queries - c0.queries;
    let misses = c1.plan_memo_misses - c0.plan_memo_misses;
    let rq = r.queries.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let edit_batches = r.edit_batches.max(1) as f64;
    let mut m = Metrics::default();

    // engine
    let batch_p50 = p50(&r.batch_us);
    m.put("engine.batch_us", batch_p50, "us");
    m.put("engine.plan_us_per_query", us(r.plan_ns) / rq, "us");
    for (k, route) in ROUTES.iter().enumerate() {
        m.put(format!("engine.eval_us_per_query.{route}"), us(r.eval_ns[k]) / rq, "us");
    }
    let attributed = r.plan_ns + r.eval_ns.iter().sum::<u64>();
    m.put("engine.unattributed_us_per_query", us(r.batch_ns.saturating_sub(attributed)) / rq, "us");
    m.put(
        "engine.memo_hit_share",
        share(c1.plan_memo_hits - c0.plan_memo_hits, queries),
        "fraction",
    );
    m.put(
        "engine.dedup_share",
        share(c1.batch_dedup_hits - c0.batch_dedup_hits, queries),
        "fraction",
    );
    for (route, hits) in ROUTES.iter().zip([
        c1.view_hits - c0.view_hits,
        c1.intersect_hits - c0.intersect_hits,
        c1.direct - c0.direct,
    ]) {
        m.put(format!("engine.route_share.{route}"), share(hits, queries), "fraction");
    }
    m.put("engine.apply_edits_p50_us", p50(&r.apply_us), "us");
    m.put("engine.apply_edits_tail_us", tail(&r.apply_us), "us");
    let dropped: u64 = phase.acks.iter().map(|(_, a)| a.routes_dropped).sum();
    m.put(
        "engine.routes_dropped_per_edit_batch",
        dropped as f64 / phase.acks.len().max(1) as f64,
        "count",
    );
    // Equal to 1 − memo_hit_share; named for what it shows on read_write,
    // where every plan-memo miss after warm-up is a route dropped by an edit.
    m.put("engine.replan_share_under_writes", share(misses, queries), "fraction");
    m.put(
        "engine.view_speedup_vs_fused_direct",
        p.fused_direct_us_per_query / p.engine_us_per_query,
        "ratio",
    );
    m.put(
        "engine.view_speedup_vs_flat_direct",
        p.flat_direct_us_per_query / p.engine_us_per_query,
        "ratio",
    );

    // core
    m.put("core.decide_us", p50(&p.decide_us), "us");
    m.put("core.rewrite_found_share", p.rewrite_found_share, "fraction");

    // semantics
    let (o0, o1) = (&before.oracle, &after.oracle);
    m.put(
        "semantics.oracle_canonical_runs_per_miss",
        share(o1.canonical_runs - o0.canonical_runs, misses),
        "count",
    );
    let verdicts = (o1.verdict_memo_hits + o1.verdict_memo_misses)
        - (o0.verdict_memo_hits + o0.verdict_memo_misses);
    m.put(
        "semantics.oracle_memo_hit_share",
        share(o1.verdict_memo_hits - o0.verdict_memo_hits, verdicts),
        "fraction",
    );
    m.put("semantics.flat_direct_us_per_query", p.flat_direct_us_per_query, "us");
    m.put("semantics.fused_direct_us_per_query", p.fused_direct_us_per_query, "us");
    m.put("semantics.intern_us_per_query", p.intern_us_per_query, "us");

    // pattern
    let rejects = c1.sig_rejects - c0.sig_rejects;
    m.put(
        "pattern.sig_reject_share",
        share(rejects, rejects + c1.sig_passes - c0.sig_passes),
        "fraction",
    );
    m.put("pattern.signature_us", p.signature_us, "us");

    // intersect
    let tried = c1.intersect_candidates_tried - c0.intersect_candidates_tried;
    m.put("intersect.plan_us", p50(&p.intersect_plan_us), "us");
    m.put(
        "intersect.routes_per_miss",
        share(c1.intersect_routes - c0.intersect_routes, misses),
        "fraction",
    );
    m.put("intersect.candidates_per_miss", share(tried, misses), "count");

    // maintain (per replayed edit batch)
    let mt = &r.maintain;
    m.put("maintain.apply_us", mt.apply_us as f64 / edit_batches, "us");
    m.put("maintain.coalesce_us", mt.coalesce_us as f64 / edit_batches, "us");
    m.put("maintain.scan_us", mt.scan_us as f64 / edit_batches, "us");
    m.put("maintain.patch_us", mt.patch_us as f64 / edit_batches, "us");
    m.put("maintain.regions_scanned_per_batch", mt.regions_scanned as f64 / edit_batches, "count");
    m.put("maintain.region_nodes_per_batch", mt.region_nodes as f64 / edit_batches, "count");
    m.put("maintain.label_skip_share", share(mt.label_skips, mt.view_edit_checks), "fraction");
    m.put("maintain.full_recomputes", mt.full_recomputes as f64, "count");

    // model
    m.put("model.freeze_us", mt.freeze_us as f64 / edit_batches, "us");
    m.put("model.freeze_direct_us", p.freeze_us, "us");
    m.put("model.doc_nodes_start", before.doc_nodes as f64, "count");
    m.put("model.doc_nodes_end", after.doc_nodes as f64, "count");

    // net
    let worst = phase.window.as_secs_f64() * 1e6;
    let rtt = &phase.batch_rtt_us;
    let replayed = r.batches.len().max(1) as f64;
    m.put("net.rtt_minus_engine_us", pct(rtt.p50(), worst) - batch_p50, "us");
    m.put("net.encode_us_per_batch", us(r.encode_ns) / replayed, "us");
    m.put("net.decode_us_per_batch", us(r.decode_ns) / replayed, "us");
    m.put("net.answer_bytes_per_query", r.answer_bytes as f64 / rq, "bytes");
    m.put("net.credit_stalls", (after.credit_stalls - before.credit_stalls) as f64, "count");

    // load: the traced phase's client-side figures, and the run's validity
    m.put("load.qps", phase.qps(), "queries/s");
    m.put("load.batch_p50_us", pct(rtt.p50(), worst), "us");
    m.put("load.batch_p99_us", pct(rtt.tail().map(|(_, v)| v), worst), "us");
    m.put("load.edit_p50_us", pct(phase.edit_us.p50(), worst), "us");
    m.put("load.edit_tail_us", pct(phase.edit_us.tail().map(|(_, v)| v), worst), "us");
    m.put("load.writer_late_tail_us", tail(&phase.writer_late_us), "us");
    m.put("load.error_rate", share(phase.failed(), phase.attempted()), "fraction");
    m.put(
        "load.trace_overhead_pct",
        (src.untraced_qps - src.traced_qps) / src.untraced_qps * 100.0,
        "%",
    );

    // self time per replayed batch, by span
    for (root, per, prefix) in [
        ("replay.batch", replayed, "trace.self_us_per_batch"),
        ("replay.edit", edit_batches, "trace.self_us_per_edit_batch"),
    ] {
        for name in SELF_ROWS.iter().filter(|(rt, _)| *rt == root).map(|(_, n)| n) {
            let ns = src
                .rows
                .iter()
                .find(|row| row.root == root && row.name == *name)
                .map_or(0, |row| row.self_ns);
            m.put(format!("{prefix}.{name}"), us(ns) / per, "us");
        }
    }
    m
}

/// The spans and parts whose self time is reported, by root.
pub const SELF_ROWS: [(&str, &str); 18] = [
    ("replay.batch", "replay.batch"),
    ("replay.batch", "net.decode_request"),
    ("replay.batch", "engine.answer_batch_refs"),
    ("replay.batch", "engine.plan"),
    ("replay.batch", "engine.eval.view"),
    ("replay.batch", "engine.eval.intersect"),
    ("replay.batch", "engine.eval.direct"),
    ("replay.batch", "net.encode_answers"),
    ("replay.batch", "net.decode_answers"),
    ("replay.edit", "net.decode_request"),
    ("replay.edit", "engine.apply_edits"),
    ("replay.edit", "maintain.apply"),
    ("replay.edit", "model.freeze"),
    ("replay.edit", "maintain.coalesce"),
    ("replay.edit", "maintain.scan"),
    ("replay.edit", "maintain.patch"),
    ("replay.edit", "net.encode_ack"),
    ("replay.edit", "replay.edit"),
];
