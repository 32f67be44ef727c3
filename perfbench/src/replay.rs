//! In-process replay of a traced wire phase.
//!
//! The batches the wire phase sent are replayed in send order on an
//! identically built cache, with a span around each public call the
//! server makes for them: `net.decode_request` → the engine call →
//! `net.encode_answers` (plus the client's `net.decode_answers`) under one
//! `replay.batch`, and `net.decode_request` → `engine.apply_edits` →
//! `net.encode_ack` under one `replay.edit`. Warm-up batches run untraced
//! to bring the plan memo to the state the timed window started from.
//! Timed query batches are thinned to at most [`REPLAY_BATCHES`] (every
//! k-th, evenly over the window); every acked edit batch is replayed.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpv_engine::{Route, ShardedViewCache};
use xpv_maintain::{Edit, MaintainStats};
use xpv_model::AnswerArena;
use xpv_net::{AnswersEncoder, Msg, WireRouteRef, WireUpdateReport};
use xpv_pattern::Pattern;

use crate::inputs::Inputs;
use crate::stats::Samples;
use crate::trace::Trace;
use crate::wire::ClientSpan;

/// Timed query batches replayed at most.
pub const REPLAY_BATCHES: u64 = 4000;

/// Route kinds, in metric order.
pub const ROUTES: [&str; 3] = ["view", "intersect", "direct"];

#[derive(Default)]
pub struct ReplayOut {
    /// Batch indices of the replayed timed batches.
    pub batches: Vec<u64>,
    pub queries: u64,
    /// `answer_batch_refs` per replayed batch.
    pub batch_us: Samples,
    pub batch_ns: u64,
    pub plan_ns: u64,
    pub eval_ns: [u64; 3],
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub answer_bytes: u64,
    /// `apply_edits` per replayed edit batch.
    pub apply_us: Samples,
    pub maintain: MaintainStats,
    pub edit_batches: u64,
}

pub fn replay(
    inputs: &Inputs,
    spans: &[ClientSpan],
    trace: &mut Trace,
) -> Result<ReplayOut, String> {
    let cache = ShardedViewCache::new(inputs.doc.clone());
    for (name, def) in &inputs.views {
        cache.add_view(name, def.clone());
    }
    let timed = spans.iter().filter(|s| s.ok && s.timed && s.name == "client.batch").count() as u64;
    let keep_every = timed.div_ceil(REPLAY_BATCHES).max(1);
    let mut out = ReplayOut::default();
    let mut arena = AnswerArena::new();
    let mut timed_seen = 0u64;
    for s in spans.iter().filter(|s| s.ok) {
        match s.name {
            "client.batch" if !s.timed => {
                black_box(cache.answer_batch_refs(&inputs.queries.batch(s.batch), &mut arena));
            }
            "client.batch" => {
                timed_seen += 1;
                if (timed_seen - 1).is_multiple_of(keep_every) {
                    query_batch(&cache, inputs, s, trace, &mut arena, &mut out);
                }
            }
            "client.edit" => {
                edit_batch(&cache, &inputs.edits[s.batch as usize], s, trace, &mut out)?
            }
            other => unreachable!("client span {other}"),
        }
    }
    Ok(out)
}

fn query_batch(
    cache: &ShardedViewCache,
    inputs: &Inputs,
    s: &ClientSpan,
    trace: &mut Trace,
    arena: &mut AnswerArena,
    out: &mut ReplayOut,
) {
    let id = s.request & 0xFFFF_FFFF;
    let body = Msg::QueryBatch {
        id,
        tenant: "replay".to_string(),
        queries: inputs.queries.batch(s.batch),
    }
    .encode();
    let root = trace.open("replay.batch", None, s.request);

    let span = trace.open("net.decode_request", Some(root), s.request);
    let queries: Vec<Pattern> = match Msg::decode(&body) {
        Ok(Msg::QueryBatch { queries, .. }) => queries,
        other => unreachable!("a QueryBatch frame decodes to itself, not {other:?}"),
    };
    trace.close(span);

    let started = Instant::now();
    let answers = cache.answer_batch_refs(&queries, arena);
    let took = started.elapsed();
    let span =
        trace.span("engine.answer_batch_refs", started, started + took, Some(root), s.request);
    let mut eval = [Duration::ZERO; 3];
    let mut plan = Duration::ZERO;
    for a in &answers {
        plan += a.planning;
        eval[route_kind(&a.route)] += a.evaluation;
    }
    trace.part(span, "engine.plan", plan);
    for (k, d) in eval.iter().enumerate() {
        trace.part(
            span,
            ["engine.eval.view", "engine.eval.intersect", "engine.eval.direct"][k],
            *d,
        );
    }

    let started = Instant::now();
    let mut enc = AnswersEncoder::new(id);
    for a in &answers {
        enc.answer(route_ref(&a.route), arena.get(a.nodes));
    }
    let frame = enc.finish();
    let encoded = started.elapsed();
    trace.span("net.encode_answers", started, started + encoded, Some(root), s.request);

    let started = Instant::now();
    black_box(Msg::decode(&frame).expect("an Answers frame decodes"));
    let decoded = started.elapsed();
    trace.span("net.decode_answers", started, started + decoded, Some(root), s.request);
    trace.close(root);

    out.batches.push(s.batch);
    out.queries += queries.len() as u64;
    out.batch_us.push(took.as_secs_f64() * 1e6);
    out.batch_ns += took.as_nanos() as u64;
    out.plan_ns += plan.as_nanos() as u64;
    for (k, d) in eval.iter().enumerate() {
        out.eval_ns[k] += d.as_nanos() as u64;
    }
    out.encode_ns += encoded.as_nanos() as u64;
    out.decode_ns += decoded.as_nanos() as u64;
    out.answer_bytes += frame.len() as u64;
}

fn edit_batch(
    cache: &ShardedViewCache,
    edits: &[Edit],
    s: &ClientSpan,
    trace: &mut Trace,
    out: &mut ReplayOut,
) -> Result<(), String> {
    let id = s.request & 0xFFFF_FFFF;
    let body = Msg::EditBatch { id, tenant: "replay".to_string(), edits: edits.to_vec() }.encode();
    let root = trace.open("replay.edit", None, s.request);

    let span = trace.open("net.decode_request", Some(root), s.request);
    let edits: Vec<Edit> = match Msg::decode(&body) {
        Ok(Msg::EditBatch { edits, .. }) => edits,
        other => unreachable!("an EditBatch frame decodes to itself, not {other:?}"),
    };
    trace.close(span);

    let started = Instant::now();
    let report = cache
        .apply_edits(&edits)
        .map_err(|e| format!("replayed edit batch {} failed: {e}", s.batch))?;
    let took = started.elapsed();
    let span = trace.span("engine.apply_edits", started, started + took, Some(root), s.request);
    let m = &report.maintain;
    for (name, us) in [
        ("maintain.apply", m.apply_us),
        ("model.freeze", m.freeze_us),
        ("maintain.coalesce", m.coalesce_us),
        ("maintain.scan", m.scan_us),
        ("maintain.patch", m.patch_us),
    ] {
        trace.part(span, name, Duration::from_micros(us));
    }

    let span = trace.open("net.encode_ack", Some(root), s.request);
    let ack = WireUpdateReport {
        edits_applied: report.edits_applied as u64,
        doc_version: report.doc_version,
        views_refreshed: report.views_refreshed as u64,
        views_changed: report.views_changed as u64,
        routes_dropped: report.routes_dropped,
    };
    black_box(Msg::EditAck { id, report: ack }.encode());
    trace.close(span);
    trace.close(root);

    out.apply_us.push(took.as_secs_f64() * 1e6);
    out.maintain.add(m);
    out.edit_batches += 1;
    Ok(())
}

/// Index into [`ROUTES`].
fn route_kind(route: &Arc<Route>) -> usize {
    match **route {
        Route::ViaView { .. } => 0,
        Route::Intersect { .. } => 1,
        Route::Direct => 2,
    }
}

fn route_ref(route: &Route) -> WireRouteRef<'_> {
    match route {
        Route::Direct => WireRouteRef::Direct,
        Route::ViaView { view, rewriting } => WireRouteRef::ViaView { view, rewriting },
        Route::Intersect { views, compensation } => WireRouteRef::Intersect { views, compensation },
    }
}
