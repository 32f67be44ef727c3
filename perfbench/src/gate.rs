//! The correctness gate run at the end of every run.
//!
//! Every distinct query the run sent is asked again over the wire and its
//! node set compared with `evaluate_flat` on the document the server
//! holds; a seeded sample is also compared with the `Tree` reference
//! evaluator. On `read_write` the acked edit batches are replayed on a
//! local `Tree`, which must serialize exactly like the served document,
//! and the acked `doc_version`s must rise by one per batch.

use std::collections::VecDeque;
use std::ops::Range;

use xpv_model::{to_xml, FlatTree, NodeId, Tree};
use xpv_net::Response;
use xpv_net::WireUpdateReport;
use xpv_pattern::Pattern;
use xpv_semantics::{evaluate, evaluate_flat};

use crate::inputs::{Inputs, BATCH, PIPELINE};
use crate::wire::Served;

/// Queries compared with the `Tree` reference evaluator, at most.
const TREE_SAMPLE: usize = 64;

/// What the gate checked.
#[derive(Default)]
pub struct GateReport {
    pub queries_checked: usize,
    pub tree_checked: usize,
    pub edit_batches_replayed: usize,
}

impl GateReport {
    pub fn add(&mut self, other: GateReport) {
        self.queries_checked += other.queries_checked;
        self.tree_checked += other.tree_checked;
        self.edit_batches_replayed += other.edit_batches_replayed;
    }
}

pub fn check(
    served: &Served,
    inputs: &Inputs,
    batches: Range<u64>,
    acks: &[(usize, WireUpdateReport)],
    seed: u64,
) -> Result<GateReport, String> {
    let doc = served.server.cache().document();
    let mut edit_batches_replayed = 0;
    if !inputs.edits.is_empty() {
        let mut local = inputs.doc.clone();
        for (i, (k, report)) in acks.iter().enumerate() {
            if report.doc_version != i as u64 + 1 {
                return Err(format!(
                    "edit batch {k}: acked doc_version {} where {} was due",
                    report.doc_version,
                    i + 1
                ));
            }
            xpv_maintain::apply_edits(&mut local, &inputs.edits[*k])
                .map_err(|e| format!("acked edit batch {k} does not replay locally: {e}"))?;
        }
        edit_batches_replayed = acks.len();
        if to_xml(&local) != to_xml(&doc) {
            return Err(
                "served document differs from the local replay of the acked edits".to_string()
            );
        }
    }

    let flat = FlatTree::freeze(&doc);
    let distinct = inputs.queries.distinct_in(batches);
    let n = distinct.end - distinct.start;
    let stride = n.div_ceil(TREE_SAMPLE as u64).max(1);
    let sampled = |j: u64| (j - distinct.start) % stride == seed % stride;
    // Two connections, each checking half of the distinct queries.
    let mid = distinct.start + n / 2;
    let halves = [distinct.start..mid, mid..distinct.end];
    let tree_checked = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|half| {
                let (flat, doc, sampled) = (&flat, &doc, &sampled);
                scope.spawn(move || check_queries(served, inputs, half, flat, doc, sampled))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gate thread panicked"))
            .sum::<Result<usize, String>>()
    })?;
    Ok(GateReport { queries_checked: n as usize, tree_checked, edit_batches_replayed })
}

/// Asks the distinct queries `range` over one connection, pipelined like
/// the readers' traffic, and compares each answer with `evaluate_flat`
/// (and, where `sampled`, with the `Tree` evaluator). Returns how many
/// were compared with the `Tree` evaluator.
fn check_queries(
    served: &Served,
    inputs: &Inputs,
    range: Range<u64>,
    flat: &FlatTree,
    doc: &Tree,
    sampled: &(dyn Fn(u64) -> bool + Sync),
) -> Result<usize, String> {
    let mut client = served.connect().map_err(|e| format!("gate connection: {e}"))?;
    let mut in_flight: VecDeque<(u64, u64, Vec<Pattern>)> = VecDeque::new();
    let mut next = range.start;
    let mut tree_checked = 0;
    while next < range.end || !in_flight.is_empty() {
        if next < range.end && in_flight.len() < PIPELINE {
            let chunk: Vec<Pattern> = (next..range.end.min(next + BATCH as u64))
                .map(|j| inputs.queries.distinct_query(j))
                .collect();
            let id = client.send_queries("gate", &chunk).map_err(|e| format!("gate send: {e}"))?;
            in_flight.push_back((id, next, chunk));
            next += BATCH as u64;
            continue;
        }
        let (id, chunk_start, chunk) = in_flight.pop_front().expect("a batch is in flight");
        let answers = match client.recv_for(id) {
            Ok(Response::Answers { answers, .. }) => answers,
            Ok(other) => return Err(format!("gate batch answered by {other:?}")),
            Err(e) => return Err(format!("gate receive: {e}")),
        };
        if answers.len() != chunk.len() {
            return Err(format!("{} answers for {} queries", answers.len(), chunk.len()));
        }
        for (j, (q, a)) in (chunk_start..).zip(chunk.iter().zip(&answers)) {
            let got = sorted(a.nodes.clone());
            if got != sorted(evaluate_flat(q, flat)) {
                return Err(format!("{q}: served answer differs from evaluate_flat"));
            }
            if sampled(j) {
                tree_checked += 1;
                if got != sorted(evaluate(q, doc)) {
                    return Err(format!("{q}: served answer differs from the Tree evaluator"));
                }
            }
        }
    }
    let _ = client.goodbye();
    Ok(tree_checked)
}

fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
    v.sort_unstable();
    v
}
