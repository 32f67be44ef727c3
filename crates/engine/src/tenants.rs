//! Per-tenant accounting for the serving front-end.
//!
//! Every batch that reaches the
//! [`AsyncCacheServer`](crate::AsyncCacheServer) — over the in-process
//! transport or a socket connection — is submitted on behalf of a
//! **tenant** (any string id), and `TenantRegistry`
//! accumulates that tenant's lifetime counters. The registry is **sharded
//! and atomic**: tenants hash onto `RwLock<HashMap>` shards whose values
//! are `Arc`s of plain atomic counters, so the steady-state accounting
//! path is a shared read lock plus relaxed atomic adds — no serialization
//! point across workers.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::shard::{CacheAnswer, CacheAnswerRef, Route};

/// Number of tenant-stats lock shards.
const TENANT_SHARDS: usize = 16;

/// Per-tenant serving counters (a point-in-time snapshot; the live
/// counters are sharded atomics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Batches answered for this tenant.
    pub batches: u64,
    /// Individual queries answered (sum of batch lengths).
    pub queries: u64,
    /// Queries answered from a view through an equivalent rewriting.
    pub view_hits: u64,
    /// Queries answered from a multi-view intersection.
    pub intersect_hits: u64,
    /// Queries answered by direct evaluation.
    pub direct: u64,
    /// Document edits this tenant applied through the server.
    pub updates_applied: u64,
    /// Views incrementally refreshed on behalf of this tenant's updates.
    pub views_refreshed_incrementally: u64,
    /// Submissions that had to wait for admission — the in-process window
    /// was full, so the submitting thread blocked until a batch completed.
    /// The contention signal for sizing `max_pending` and the worker pool.
    pub admission_waits: u64,
}

impl TenantStats {
    /// The canonical counter enumeration: one `(name, value)` pair per
    /// field, in declaration order. The observability registry exposes
    /// these under `xpv_tenant_*{tenant="id"}`, and `Display` renders the
    /// same list — one naming authority, so the rendered line and the
    /// exposition can never drift (see the `xpv-obs` crate docs).
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("batches", self.batches);
        f("queries", self.queries);
        f("view_hits", self.view_hits);
        f("intersect_hits", self.intersect_hits);
        f("direct", self.direct);
        f("updates_applied", self.updates_applied);
        f("views_refreshed_incrementally", self.views_refreshed_incrementally);
        f("admission_waits", self.admission_waits);
    }
}

impl std::fmt::Display for TenantStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))
    }
}

/// The live, lock-free per-tenant counters behind [`TenantStats`].
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub batches: AtomicU64,
    pub queries: AtomicU64,
    pub view_hits: AtomicU64,
    pub intersect_hits: AtomicU64,
    pub direct: AtomicU64,
    pub updates_applied: AtomicU64,
    pub views_refreshed_incrementally: AtomicU64,
    pub admission_waits: AtomicU64,
}

impl TenantCounters {
    pub fn snapshot(&self) -> TenantStats {
        TenantStats {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            view_hits: self.view_hits.load(Ordering::Relaxed),
            intersect_hits: self.intersect_hits.load(Ordering::Relaxed),
            direct: self.direct.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            views_refreshed_incrementally: self
                .views_refreshed_incrementally
                .load(Ordering::Relaxed),
            admission_waits: self.admission_waits.load(Ordering::Relaxed),
        }
    }
}

/// One lock shard of the tenant-counter map.
type TenantShard = RwLock<HashMap<String, Arc<TenantCounters>>>;

/// The sharded tenant-counter table.
#[derive(Debug)]
pub(crate) struct TenantRegistry {
    shards: Box<[TenantShard]>,
}

impl TenantRegistry {
    pub fn new() -> TenantRegistry {
        TenantRegistry { shards: (0..TENANT_SHARDS).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn shard(&self, tenant: &str) -> &TenantShard {
        let mut hasher = DefaultHasher::new();
        tenant.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// The live counters for `tenant`, creating them on first sight. The
    /// common path is a shared read lock + relaxed atomic adds (a write
    /// lock is taken only on a tenant's first appearance).
    pub fn counters(&self, tenant: &str) -> Arc<TenantCounters> {
        let shard = self.shard(tenant);
        if let Some(counters) = shard.read().expect("tenant stats poisoned").get(tenant) {
            return Arc::clone(counters);
        }
        let mut map = shard.write().expect("tenant stats poisoned");
        Arc::clone(map.entry(tenant.to_string()).or_default())
    }

    /// Accounts one answered batch to `tenant`.
    pub fn account_batch(&self, tenant: &str, answers: &[CacheAnswer]) {
        self.account_routes(tenant, answers.len(), answers.iter().map(|a| &a.route));
    }

    /// [`TenantRegistry::account_batch`] for the arena answer lane.
    pub fn account_batch_refs(&self, tenant: &str, answers: &[CacheAnswerRef]) {
        self.account_routes(tenant, answers.len(), answers.iter().map(|a| a.route.as_ref()));
    }

    fn account_routes<'a>(
        &self,
        tenant: &str,
        queries: usize,
        routes: impl Iterator<Item = &'a Route>,
    ) {
        let counters = self.counters(tenant);
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters.queries.fetch_add(queries as u64, Ordering::Relaxed);
        for route in routes {
            match route {
                Route::ViaView { .. } => counters.view_hits.fetch_add(1, Ordering::Relaxed),
                Route::Intersect { .. } => counters.intersect_hits.fetch_add(1, Ordering::Relaxed),
                Route::Direct => counters.direct.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    /// This tenant's lifetime counters (`None` before its first batch).
    pub fn get(&self, tenant: &str) -> Option<TenantStats> {
        let shard = self.shard(tenant);
        let map = shard.read().expect("tenant stats poisoned");
        map.get(tenant).map(|c| c.snapshot())
    }

    /// All tenants with their counters, sorted by tenant id.
    pub fn all(&self) -> Vec<(String, TenantStats)> {
        let mut all: Vec<(String, TenantStats)> = Vec::new();
        for shard in self.shards.iter() {
            let map = shard.read().expect("tenant stats poisoned");
            all.extend(map.iter().map(|(k, v)| (k.clone(), v.snapshot())));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}
