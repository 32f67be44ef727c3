//! The server under test and the clients that drive it over a Unix
//! socket.
//!
//! Readers are closed loop: each connection keeps [`PIPELINE`] query
//! batches in flight and sends the next one when an answer arrives. The
//! `read_write` writer is open loop: edit batch `k` is due at
//! `t0 + k / EDIT_RATE` whatever happened before, and its latency runs
//! from that due time, so a stall also charges the batches it delayed.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpv_engine::{AsyncCacheServer, CacheStats, ShardedViewCache};
use xpv_net::{Response, WireClient, WireUpdateReport};
use xpv_obs::SampleValue;

use crate::inputs::{Inputs, BATCH, EDIT_RATE, PIPELINE, WORKERS};
use crate::stats::Samples;

/// A running server and the socket it listens on.
pub struct Served {
    pub server: AsyncCacheServer,
    pub sock: PathBuf,
}

impl Served {
    /// Builds the cache, materializes every view, starts the server and
    /// its Unix listener, and connects one client. Returns the server,
    /// that client, and the set-up time: everything from
    /// `ShardedViewCache::new` until the server has accepted the client
    /// and answered its handshake (input generation excluded).
    pub fn start(inputs: &Inputs, sock: &Path) -> io::Result<(Served, WireClient, Duration)> {
        let _ = std::fs::remove_file(sock);
        let doc = inputs.doc.clone();
        let views = inputs.views.clone();
        let started = Instant::now();
        let cache = ShardedViewCache::new(doc);
        for (name, def) in views {
            cache.add_view(&name, def);
        }
        let server = AsyncCacheServer::start(Arc::new(cache), WORKERS);
        server.listen_unix(sock)?;
        let client = WireClient::connect_unix(sock)?;
        let setup = started.elapsed();
        Ok((Served { server, sock: sock.to_path_buf() }, client, setup))
    }

    pub fn connect(&self) -> io::Result<WireClient> {
        WireClient::connect_unix(&self.sock)
    }

    /// Server-side counters read through the public API.
    pub fn counters(&self) -> ServerCounters {
        let snap = self.server.metrics_snapshot();
        let credit_stalls = match snap.get("xpv_net_credit_stalls").map(|s| &s.value) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0,
        };
        ServerCounters {
            cache: self.server.cache().stats(),
            oracle: self.server.cache().session().oracle().stats(),
            credit_stalls,
            doc_nodes: self.server.cache().document().len(),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// The server's lifetime counters at one instant.
#[derive(Clone)]
pub struct ServerCounters {
    pub cache: CacheStats,
    pub oracle: xpv_semantics::OracleStats,
    pub credit_stalls: u64,
    pub doc_nodes: usize,
}

/// One client-side span: a query batch from `send_queries` until its
/// `Answers` frame arrived, or an edit batch from its due time until its
/// `EditAck`.
#[derive(Clone, Copy, Debug)]
pub struct ClientSpan {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// `connection << 32 | request id`, shared with the replay spans of
    /// the same batch.
    pub request: u64,
    /// Query batch index, or edit batch index for `client.edit`.
    pub batch: u64,
    /// Sent inside the timed window (not warm-up).
    pub timed: bool,
    pub ok: bool,
}

/// What one load phase observed.
#[derive(Default)]
pub struct PhaseResult {
    /// Start of the timed window.
    pub t0: Option<Instant>,
    pub window: Duration,
    /// Round trips of query batches sent inside the window.
    pub batch_rtt_us: Samples,
    /// Queries whose answers arrived inside the window.
    pub answered: u64,
    pub batch_attempts: u64,
    pub batch_failures: u64,
    /// Edit latency from each batch's due time to its ack.
    pub edit_us: Samples,
    /// How late the open-loop writer sent each batch.
    pub writer_late_us: Samples,
    pub edit_attempts: u64,
    pub edit_failures: u64,
    /// Acked edit batches in ack order: (batch index, report).
    pub acks: Vec<(usize, WireUpdateReport)>,
    /// Query batch indices `first_batch..batches_issued` were all sent.
    pub first_batch: u64,
    pub batches_issued: u64,
    /// Server counters at the start and end of the window, per server the
    /// window ran on.
    pub counters: Vec<(ServerCounters, ServerCounters)>,
    /// Every client span, warm-up included (empty unless traced).
    pub spans: Vec<ClientSpan>,
}

impl PhaseResult {
    /// Queries answered inside the window, per second.
    pub fn qps(&self) -> f64 {
        self.answered as f64 / self.window.as_secs_f64()
    }

    /// Queries per second answered in the first `span` of the window,
    /// from the client spans (traced phases only).
    pub fn qps_in_first(&self, span: Duration) -> f64 {
        let t0 = self.t0.expect("window started");
        let batches = self
            .spans
            .iter()
            .filter(|s| s.ok && s.name == "client.batch" && s.end >= t0 && s.end <= t0 + span)
            .count();
        (batches * BATCH) as f64 / span.as_secs_f64()
    }

    /// Joins consecutive phases, each on its own server, into one window.
    pub fn concat(phases: Vec<PhaseResult>) -> PhaseResult {
        let mut out = PhaseResult::default();
        for p in phases {
            if out.t0.is_none() {
                out.t0 = p.t0;
                out.first_batch = p.first_batch;
            }
            out.answered += p.answered;
            out.window += p.window;
            out.batch_rtt_us.extend(&p.batch_rtt_us);
            out.batch_attempts += p.batch_attempts;
            out.batch_failures += p.batch_failures;
            out.edit_us.extend(&p.edit_us);
            out.writer_late_us.extend(&p.writer_late_us);
            out.edit_attempts += p.edit_attempts;
            out.edit_failures += p.edit_failures;
            out.acks.extend(p.acks);
            out.batches_issued = p.batches_issued;
            out.counters.extend(p.counters);
            out.spans.extend(p.spans);
        }
        out
    }

    pub fn attempted(&self) -> u64 {
        self.batch_attempts + self.edit_attempts
    }

    pub fn failed(&self) -> u64 {
        self.batch_failures + self.edit_failures
    }
}

/// What one load phase sends, on one server.
pub struct Plan {
    /// Query batches are numbered from here.
    pub first_batch: u64,
    /// Unrecorded reader traffic before the window.
    pub warmup: Duration,
    /// The timed window, at most.
    pub window: Duration,
    /// Query batches (warm-up included) after which the readers stop and
    /// the window ends early.
    pub budget: Option<u64>,
    pub traced: bool,
}

/// Drives `served` through `plan`, with `first` as reader 0's connection.
pub fn run_phase(
    served: &Served,
    first: WireClient,
    inputs: &Inputs,
    plan: &Plan,
) -> io::Result<PhaseResult> {
    let Plan { first_batch, warmup, window, budget, traced } = *plan;
    let readers = inputs.workload.readers();
    let mut clients = vec![first];
    for _ in 1..readers {
        clients.push(served.connect()?);
    }
    let writer_client = if inputs.edits.is_empty() { None } else { Some(served.connect()?) };
    let next_batch = AtomicU64::new(first_batch);
    let limit = budget.map_or(u64::MAX, |b| first_batch + b);
    let start = Instant::now();
    let t0 = start + warmup;
    let end = t0 + window;
    let mut result = PhaseResult { t0: Some(t0), window, first_batch, ..PhaseResult::default() };
    let mut last_answer = t0;
    std::thread::scope(|scope| {
        let reader_handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let next_batch = &next_batch;
                scope.spawn(move || {
                    Reader { served, inputs, conn, t0, end, limit, traced }.run(client, next_batch)
                })
            })
            .collect();
        let writer_handle = writer_client.map(|client| {
            scope.spawn(move || {
                Writer { served, inputs, conn: readers, t0, end, traced }.run(client)
            })
        });
        sleep_until(t0);
        let before = served.counters();
        for handle in reader_handles {
            let r = handle.join().expect("reader thread panicked");
            result.batch_rtt_us.extend(&r.rtt_us);
            result.answered += r.answered;
            last_answer = last_answer.max(r.last_answer.unwrap_or(t0));
            result.batch_attempts += r.attempts;
            result.batch_failures += r.failures;
            result.spans.extend(r.spans);
        }
        if let Some(handle) = writer_handle {
            let w = handle.join().expect("writer thread panicked");
            result.edit_us = w.edit_us;
            result.writer_late_us = w.late_us;
            result.edit_attempts = w.attempts;
            result.edit_failures = w.failures;
            result.acks = w.acks;
            result.spans.extend(w.spans);
        }
        result.counters.push((before, served.counters()));
    });
    result.batches_issued = next_batch.load(Ordering::SeqCst).min(limit);
    if result.batches_issued == limit {
        // The budget ended the window: it lasted until the last answer.
        result.window = window.min((last_answer - t0).max(Duration::from_millis(1)));
    }
    result.spans.sort_by_key(|s| s.start);
    Ok(result)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Reconnects after an io error, retrying until `end`.
fn reconnect(served: &Served, end: Instant) -> Option<WireClient> {
    while Instant::now() < end {
        if let Ok(client) = served.connect() {
            return Some(client);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    None
}

struct Reader<'a> {
    served: &'a Served,
    inputs: &'a Inputs,
    conn: usize,
    t0: Instant,
    end: Instant,
    /// First batch index not to send.
    limit: u64,
    traced: bool,
}

#[derive(Default)]
struct ReaderOut {
    rtt_us: Samples,
    /// Queries answered inside the window, and when the last answer came.
    answered: u64,
    last_answer: Option<Instant>,
    attempts: u64,
    failures: u64,
    spans: Vec<ClientSpan>,
}

struct InFlight {
    id: u64,
    sent: Instant,
    batch: u64,
}

impl Reader<'_> {
    fn run(&self, client: WireClient, next_batch: &AtomicU64) -> ReaderOut {
        let tenant = format!("reader-{}", self.conn);
        let mut out = ReaderOut::default();
        let mut client = Some(client);
        let mut in_flight: Vec<InFlight> = Vec::with_capacity(PIPELINE);
        while let Some(c) = client.as_mut() {
            let mut broken = false;
            while in_flight.len() < PIPELINE && Instant::now() < self.end {
                let batch = next_batch.fetch_add(1, Ordering::SeqCst);
                if batch >= self.limit {
                    break;
                }
                let queries = self.inputs.queries.batch(batch);
                let sent = Instant::now();
                match c.send_queries(&tenant, &queries) {
                    Ok(id) => in_flight.push(InFlight { id, sent, batch }),
                    Err(_) => {
                        self.fail(&mut out, sent, batch, 0);
                        broken = true;
                        break;
                    }
                }
            }
            if !broken {
                if in_flight.is_empty() {
                    break;
                }
                match c.recv() {
                    Ok(response) => {
                        let now = Instant::now();
                        // A response to nothing we sent means the stream
                        // is out of sync: drop the connection.
                        match in_flight.iter().position(|f| f.id == response.id()) {
                            None => broken = true,
                            Some(pos) => {
                                let f = in_flight.swap_remove(pos);
                                match response {
                                    Response::Answers { answers, .. } => {
                                        self.ok(&mut out, &f, now, answers.len() as u64);
                                    }
                                    _ => self.fail(&mut out, f.sent, f.batch, f.id),
                                }
                            }
                        }
                    }
                    Err(_) => broken = true,
                }
            }
            if broken {
                for f in in_flight.drain(..) {
                    self.fail(&mut out, f.sent, f.batch, f.id);
                }
                client = reconnect(self.served, self.end);
            }
        }
        if let Some(c) = client {
            let _ = c.goodbye();
        }
        out
    }

    fn request(&self, id: u64) -> u64 {
        (self.conn as u64) << 32 | id
    }

    fn ok(&self, out: &mut ReaderOut, f: &InFlight, now: Instant, answered: u64) {
        let timed = f.sent >= self.t0;
        let rtt_us = (now - f.sent).as_secs_f64() * 1e6;
        if timed {
            out.attempts += 1;
            out.rtt_us.push(rtt_us);
        }
        if now >= self.t0 && now < self.end {
            out.answered += answered;
        }
        out.last_answer = Some(now);
        if self.traced {
            out.spans.push(ClientSpan {
                name: "client.batch",
                start: f.sent,
                end: now,
                request: self.request(f.id),
                batch: f.batch,
                timed,
                ok: true,
            });
        }
    }

    fn fail(&self, out: &mut ReaderOut, sent: Instant, batch: u64, id: u64) {
        let timed = sent >= self.t0;
        if timed {
            out.attempts += 1;
            out.failures += 1;
            out.rtt_us.push_failed();
        }
        if self.traced {
            out.spans.push(ClientSpan {
                name: "client.batch",
                start: sent,
                end: Instant::now(),
                request: self.request(id),
                batch,
                timed,
                ok: false,
            });
        }
    }
}

struct Writer<'a> {
    served: &'a Served,
    inputs: &'a Inputs,
    conn: usize,
    t0: Instant,
    end: Instant,
    traced: bool,
}

#[derive(Default)]
struct WriterOut {
    edit_us: Samples,
    late_us: Samples,
    attempts: u64,
    failures: u64,
    acks: Vec<(usize, WireUpdateReport)>,
    spans: Vec<ClientSpan>,
}

impl Writer<'_> {
    fn run(&self, client: WireClient) -> WriterOut {
        let mut out = WriterOut::default();
        let mut client = Some(client);
        let period = Duration::from_nanos(1_000_000_000 / EDIT_RATE);
        for (k, batch) in self.inputs.edits.iter().enumerate() {
            let due = self.t0 + period * k as u32;
            if due >= self.end {
                break;
            }
            sleep_until(due);
            out.attempts += 1;
            out.late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
            let Some(c) = client.as_mut() else {
                out.failures += 1;
                out.edit_us.push_failed();
                client = reconnect(self.served, self.end);
                continue;
            };
            let outcome = c.apply_edits("writer", batch);
            let now = Instant::now();
            let ok = match outcome {
                Ok(Ok(report)) => {
                    out.acks.push((k, report));
                    out.edit_us.push((now - due).as_secs_f64() * 1e6);
                    true
                }
                Ok(Err(_rejected)) => false,
                Err(_io) => {
                    client = reconnect(self.served, self.end);
                    false
                }
            };
            if !ok {
                out.failures += 1;
                out.edit_us.push_failed();
            }
            if self.traced {
                out.spans.push(ClientSpan {
                    name: "client.edit",
                    start: due,
                    end: now,
                    request: (self.conn as u64) << 32 | k as u64,
                    batch: k as u64,
                    timed: true,
                    ok,
                });
            }
        }
        if let Some(c) = client {
            let _ = c.goodbye();
        }
        out
    }
}
