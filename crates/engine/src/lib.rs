//! # xpv-engine — answering XPath queries using materialized views
//!
//! The application layer of the `xpath-views` workspace (Afrati et al.,
//! EDBT 2009 reproduction): materialize view patterns over XML documents
//! ([`MaterializedView`]) and answer queries from them whenever the
//! [`xpv_core::RewritePlanner`] certifies an equivalent rewriting. A view
//! stores one form of `V(t)`, its output-node set, computed by the flat
//! matcher on the frozen document; by-value subtree copies are built on
//! demand from those nodes. Proposition 2.4 — `R ◦ V (t) = R(V(t))` — is
//! the correctness contract the tests enforce end to end.
//!
//! ## Architecture: shard → cache → serve
//!
//! The serving path is built for shared-state concurrency, in three layers:
//!
//! * [`ShardedViewCache`] (**[`shard`]**) — the concurrent core. One
//!   document, a copy-on-write view pool, and a plan memo partitioned into
//!   lock shards by query fingerprint; every serving method takes `&self`.
//!   Planning flows through one shared [`xpv_core::PlanningSession`] whose
//!   containment oracle is itself sharded and `&self`-safe, so all threads
//!   pool all coNP work, and plan misses dismiss most pool candidates by
//!   view signature before any oracle call. Queries no single view can
//!   answer are routed through **multi-view intersections**
//!   (`xpv-intersect`, [`Route::Intersect`]): a small view subset whose
//!   node-set intersection supports a verified compensation serves them
//!   jointly. Every route evaluates through one fused flat evaluator per
//!   batch and writes its nodes into a caller-supplied
//!   [`xpv_model::AnswerArena`] ([`ShardedViewCache::answer_batch_refs`]);
//!   `answer` and `answer_batch` are owned-`Vec` conveniences over it.
//!   Document edits ([`ShardedViewCache::apply_edits`]) are maintained as
//!   one coalesced batch whose disjoint regions fan out across at most one
//!   thread per core. The memo is LRU-bounded
//!   ([`ShardedViewCache::with_memo_cap`]); `add_view` invalidates only the
//!   entries whose plan depends on the grown pool, and `remove_view` /
//!   `replace_view` only those whose participants the removal touches —
//!   answers are byte-identical to the single-threaded cache on any
//!   schedule. The remaining runtime knobs (`set_memo_enabled`,
//!   `set_intersect_enabled`, `set_policy`) change what is planned or
//!   shared, never the answers.
//! * [`ViewCache`] (**[`cache`]**) — the familiar single-threaded API, now
//!   a thin wrapper over one shard: same planning, memo, stats, and
//!   answers, with `&mut self` ergonomics and no cross-thread traffic.
//! * [`AsyncCacheServer`] (**[`aserve`]**) — the service front-end: any
//!   number of wire-protocol connections (TCP / Unix-domain, via the
//!   `xpv-net` reactor) plus the blocking in-process transport
//!   ([`AsyncCacheServer::submit`]), multiplexed onto a fixed CPU worker
//!   pool over one shared `ShardedViewCache`. Idle connections are
//!   suspended tasks, not pinned threads; admission is credit-based per
//!   connection (see the `xpv-net` crate docs for the wire protocol and
//!   backpressure spec) and bounded by `max_pending` in process;
//!   per-tenant accounting ([`TenantStats`]) and graceful drain are built
//!   in.
//!
//! Pick the innermost layer that fits: library callers embedding a cache in
//! one thread use `ViewCache`; multi-threaded embedders share a
//! `ShardedViewCache`; services, in-process or networked, front it with
//! `AsyncCacheServer`.
//!
//! ## Observability
//!
//! Every layer reports through the `xpv-obs` registry (see that crate's
//! docs for the metric naming scheme and trace-sampling semantics):
//! [`ShardedViewCache::metrics_snapshot`] exposes the cache-side families
//! (`xpv_oracle_*`, `xpv_cache_*`, `xpv_maintain_*`, `xpv_phase_*_us`),
//! [`AsyncCacheServer::metrics_snapshot`] adds the serving families
//! (`xpv_tenant_*`, `xpv_net_*`, `xpv_server_*`), and the **[`obs`]**
//! module converts snapshots to and from the wire's `StatsV2Resp` form.
//! The server also runs the `xpv-obs` history sampler and health
//! watchdog by default ([`ObsConfig`]): per-metric time-series rings
//! served over `HistoryReq`, heartbeat stall rules over the maintenance
//! and flush paths, and a flight-recorder `DebugDumpReq` bundling
//! metrics + history + alerts + drained traces (the full metric
//! catalogue lives in `docs/METRICS.md`).

pub mod aserve;
pub mod cache;
pub mod obs;
pub mod shard;
pub mod tenants;
pub mod view;

pub use aserve::{
    AsyncCacheServer, BatchRejected, BatchTicket, ObsConfig, DEFAULT_CONN_WINDOW,
    DEFAULT_MAX_PENDING,
};
pub use cache::ViewCache;
pub use obs::{metrics_from_wire, wire_alerts, wire_history, wire_metrics, wire_traces};
pub use shard::{
    CacheAnswer, CacheAnswerRef, CacheStats, ChoicePolicy, Route, ShardedViewCache, UpdateReport,
    ViewId, DEFAULT_CACHE_SHARDS,
};
pub use tenants::TenantStats;
pub use view::{answer_value_set, MaterializedView};
// Re-exported so embedders can tune the intersection planner without a
// direct `xpv-intersect` dependency.
pub use xpv_intersect::IntersectConfig;
// Re-exported so embedders can drive document updates without a direct
// `xpv-maintain` dependency.
pub use xpv_maintain::{Edit, EditError, MaintainStats};
