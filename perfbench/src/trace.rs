//! In-memory spans and the self-time summarizer.
//!
//! A span is `(name, start, end, parent, request)`; spans of one query or
//! edit batch share the request id. Some work is timed inside the
//! program and reported as a duration only (`CacheAnswerRef::planning`,
//! `UpdateReport::maintain`); such a duration is kept as a *part* of the
//! span whose call returned it. A span's self time is its duration minus
//! the time its child spans cover and minus its parts. For
//! `engine.answer_batch_refs` that remainder is the `unattributed`
//! residue: batch time not covered by planning or evaluation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A duration the program measured inside span `parent`.
pub struct Part {
    pub name: &'static str,
    pub parent: usize,
    pub ns: u64,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub parts: Vec<Part>,
}

/// Self time of every span or part of one name under one kind of root.
pub struct Row {
    pub root: &'static str,
    pub name: &'static str,
    pub count: u64,
    pub self_ns: u64,
}

impl Trace {
    /// A trace whose clock starts at `epoch` (no span may start earlier).
    pub fn new(epoch: Instant) -> Trace {
        Trace { epoch, spans: Vec::new(), parts: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Trace::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.span(name, now, now, parent, request)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    pub fn part(&mut self, parent: usize, name: &'static str, d: Duration) {
        self.parts.push(Part { name, parent, ns: d.as_nanos() as u64 });
    }

    /// Self time per (root name, span or part name), in first-seen order.
    pub fn self_times(&self) -> Vec<Row> {
        let n = self.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut part_ns = vec![0u64; n];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        for p in &self.parts {
            part_ns[p.parent] += p.ns;
        }
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            self.spans[i].name
        };
        let mut order: Vec<(&'static str, &'static str)> = Vec::new();
        let mut rows: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
        let mut add = |root, name, ns| {
            let e = rows.entry((root, name)).or_insert_with(|| {
                order.push((root, name));
                (0, 0)
            });
            e.0 += 1;
            e.1 += ns;
        };
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(s, children[i].iter().map(|&c| &self.spans[c]));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered + part_ns[i]);
            add(root_of(i), s.name, own);
        }
        for p in &self.parts {
            add(root_of(p.parent), p.name, p.ns);
        }
        order
            .into_iter()
            .map(|(root, name)| {
                let (count, self_ns) = rows[&(root, name)];
                Row { root, name, count, self_ns }
            })
            .collect()
    }

    /// Writes every span and part, one per line, tab-separated:
    /// `span id name start_ns end_ns parent request` or
    /// `part - name - ns parent -`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(64 * (self.spans.len() + self.parts.len()));
        out.push_str("kind\tid\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{i}\t{}\t{}\t{}\t{parent}\t{:#x}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        for p in &self.parts {
            let _ = writeln!(out, "part\t-\t{}\t-\t{}\t{}\t-", p.name, p.ns, p.parent);
        }
        std::fs::write(path, out)
    }
}

/// Time within `s` covered by the union of its children's intervals.
fn covered_ns<'a>(s: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_parts() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Trace::new(epoch);
        let root = t.span("replay.batch", at(0), at(100), None, 1);
        let engine = t.span("engine.answer_batch_refs", at(10), at(70), Some(root), 1);
        t.span("net.encode_answers", at(60), at(90), Some(root), 1);
        t.part(engine, "engine.plan", Duration::from_micros(20));
        let rows = t.self_times();
        let get = |name| rows.iter().find(|r| r.name == name).map(|r| r.self_ns / 1000);
        // Root: 100 - union([10,70],[60,90]) = 100 - 80.
        assert_eq!(get("replay.batch"), Some(20));
        assert_eq!(get("engine.answer_batch_refs"), Some(40));
        assert_eq!(get("engine.plan"), Some(20));
        assert_eq!(get("net.encode_answers"), Some(30));
        assert!(rows.iter().all(|r| r.root == "replay.batch"));
    }
}
