//! Server-side wire-level traffic counters.
//!
//! [`WireCounters`] is the transport's contribution to the observability
//! story: one set of plain relaxed [`AtomicU64`]s counting frames, bytes,
//! credit stalls, and oversized-response rejections. The async server
//! holds one instance per listener scope (all connections of one
//! [`AsyncCacheServer`](../../xpv_engine) share it) and bumps the
//! counters from its reader loop and writer task; `xpv-engine` exposes
//! the snapshot under the `xpv_net_*` metric family in both the text
//! exposition and the `StatsV2Resp` wire frame.
//!
//! The type lives here (not in `xpv-obs`) because the fields are the wire
//! protocol's vocabulary — what counts as a frame, when a credit stall
//! happens — and because plain atomics are all the transport needs: no
//! name lookups, no striping (the reader/writer tasks of one connection
//! are the only writers of the hot fields, and cross-connection
//! contention on a `fetch_add` is cheaper than an Arc-map probe).

use std::sync::atomic::{AtomicU64, Ordering};

/// Lifetime wire-traffic counters for one server (all connections).
///
/// All increments are `Relaxed`; [`WireCountersSnapshot::visit`] is the canonical
/// name enumeration (prefixed `xpv_net_` by the exposition layer).
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Request frames decoded off client sockets.
    pub frames_in: AtomicU64,
    /// Response frames handed to socket writers.
    pub frames_out: AtomicU64,
    /// Frame-body bytes read (excluding the 4-byte length prefixes).
    pub bytes_in: AtomicU64,
    /// Frame-body bytes written (excluding the length prefixes).
    pub bytes_out: AtomicU64,
    /// Reads that found the connection's credit window exhausted and had
    /// to wait for a response to free a permit — the per-connection
    /// backpressure signal for sizing the credit window.
    pub credit_stalls: AtomicU64,
    /// Responses dropped for exceeding the frame-size cap and downgraded
    /// to `Rejected` (see `MAX_FRAME`).
    pub oversized_rejections: AtomicU64,
}

/// A point-in-time copy of [`WireCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCountersSnapshot {
    pub frames_in: u64,
    pub frames_out: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub credit_stalls: u64,
    pub oversized_rejections: u64,
}

impl WireCounters {
    /// Fresh zeroed counters.
    pub fn new() -> WireCounters {
        WireCounters::default()
    }

    /// Accounts one decoded request frame of `body_len` body bytes.
    pub fn frame_in(&self, body_len: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(body_len as u64, Ordering::Relaxed);
    }

    /// Accounts one response frame of `body_len` body bytes.
    pub fn frame_out(&self, body_len: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(body_len as u64, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> WireCountersSnapshot {
        WireCountersSnapshot {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            credit_stalls: self.credit_stalls.load(Ordering::Relaxed),
            oversized_rejections: self.oversized_rejections.load(Ordering::Relaxed),
        }
    }
}

impl WireCountersSnapshot {
    /// The canonical counter enumeration, in declaration order — the
    /// exposition layer prefixes each name with `xpv_net_`.
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("frames_in", self.frames_in);
        f("frames_out", self.frames_out);
        f("bytes_in", self.bytes_in);
        f("bytes_out", self.bytes_out);
        f("credit_stalls", self.credit_stalls);
        f("oversized_rejections", self.oversized_rejections);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_bytes_accumulate() {
        let c = WireCounters::new();
        c.frame_in(10);
        c.frame_in(20);
        c.frame_out(100);
        c.credit_stalls.fetch_add(1, Ordering::Relaxed);
        c.oversized_rejections.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.frames_in, 2);
        assert_eq!(s.bytes_in, 30);
        assert_eq!(s.frames_out, 1);
        assert_eq!(s.bytes_out, 100);
        assert_eq!(s.credit_stalls, 1);
        assert_eq!(s.oversized_rejections, 2);
    }

    #[test]
    fn visit_enumerates_every_field_once() {
        let c = WireCounters::new();
        c.frame_in(1);
        let mut names = Vec::new();
        c.snapshot().visit(&mut |name, _| names.push(name));
        assert_eq!(
            names,
            vec![
                "frames_in",
                "frames_out",
                "bytes_in",
                "bytes_out",
                "credit_stalls",
                "oversized_rejections"
            ]
        );
    }
}
