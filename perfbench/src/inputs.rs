//! Seeded inputs of the three workloads.
//!
//! Everything a run sends is a pure function of `(workload, seed,
//! seconds)`: the document, the view pool, the query batches (batch `i`
//! always holds the same queries) and the edit batches. The server only
//! ever receives the generated inputs.

use std::ops::Range;
use std::time::Duration;

use xpv_maintain::Edit;
use xpv_model::Tree;
use xpv_pattern::{parse_xpath, Pattern};
use xpv_workload::edits::{edit_stream_clustered, EditLocality, EditMix};
use xpv_workload::scenarios::{
    bib_catalog, derived_view_pool, site_catalog, site_doc, site_intersect_catalog,
};
use xpv_workload::zipf::zipf_indices;

/// Queries per query batch, on every workload.
pub const BATCH: usize = 16;
/// Batches each reader connection keeps in flight.
pub const PIPELINE: usize = 4;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Open-loop edit batches per second on `read_write`.
pub const EDIT_RATE: u64 = 50;
/// Edits per edit batch on `read_write`.
pub const EDITS_PER_BATCH: usize = 20;
/// Seed of the `cold_plan` view pool.
const POOL_SEED: u64 = 0x51E;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ColdPlan,
    ReadWrite,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot_read" => Some(Workload::HotRead),
            "cold_plan" => Some(Workload::ColdPlan),
            "read_write" => Some(Workload::ReadWrite),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ColdPlan => "cold_plan",
            Workload::ReadWrite => "read_write",
        }
    }

    /// Query batches one server answers before the next fresh one takes
    /// over (`None`: one server for the whole window). The `cold_plan`
    /// server's plan memo and containment oracle grow with every distinct
    /// query, so each of its servers answers a fixed number of batches:
    /// every server starts cold, and peak memory measures that fixed
    /// amount of planning however fast the window goes.
    pub fn batches_per_server(self) -> Option<u64> {
        match self {
            Workload::ColdPlan => Some(4000),
            _ => None,
        }
    }

    /// Unrecorded reader traffic before each server's part of the window:
    /// long enough on the repeated-query workloads for the plan memo to
    /// fill, short on `cold_plan`, whose memo is meant to stay cold.
    pub fn warmup(self) -> Duration {
        match self {
            Workload::ColdPlan => Duration::from_millis(250),
            _ => Duration::from_millis(1000),
        }
    }

    /// Closed-loop reader connections.
    pub fn readers(self) -> usize {
        match self {
            Workload::ReadWrite => 1,
            _ => 2,
        }
    }
}

/// Everything one workload sends, generated before any timing starts.
pub struct Inputs {
    pub workload: Workload,
    pub doc: Tree,
    pub views: Vec<(String, Pattern)>,
    pub queries: QuerySource,
    /// Edit batches in send order (empty except on `read_write`).
    pub edits: Vec<Vec<Edit>>,
}

impl Inputs {
    /// Generates the inputs for a run measuring `seconds` seconds (the
    /// edit stream covers exactly that many seconds of the open loop).
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        match workload {
            Workload::HotRead | Workload::ReadWrite => {
                let doc = site_doc(40, 40, seed);
                let catalog = site_intersect_catalog();
                let views = catalog.views.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
                let distinct: Vec<Pattern> =
                    catalog.queries.iter().map(|(_, q)| q.clone()).collect();
                let stream = zipf_indices(distinct.len(), 1 << 16, seed ^ 0x5A17);
                let edits = if workload == Workload::ReadWrite {
                    let batches = (EDIT_RATE * seconds) as usize;
                    let stream = edit_stream_clustered(
                        &doc,
                        batches * EDITS_PER_BATCH,
                        EditMix::new(50, 25, 25),
                        EditLocality::new(4, 90),
                        seed ^ 0xED17,
                    );
                    stream.chunks(EDITS_PER_BATCH).map(|c| c.to_vec()).collect()
                } else {
                    Vec::new()
                };
                Inputs {
                    workload,
                    doc,
                    views,
                    queries: QuerySource::Zipf { distinct, stream },
                    edits,
                }
            }
            Workload::ColdPlan => {
                let doc = site_doc(12, 12, seed);
                // The pool is part of the workload's definition, so its seed
                // is fixed; `seed` varies the document and the query stream.
                // Root-only views (`site`, `bib`) are left out: one of them
                // rewrites every query after a single decision, and planning
                // would never search the pool or reach the intersect planner.
                let mut views: Vec<(String, Pattern)> =
                    derived_view_pool(&[&site_catalog()], 1, POOL_SEED);
                views.extend(derived_view_pool(&[&bib_catalog()], 9, POOL_SEED + 1));
                views.retain(|(_, v)| v.len() > 1);
                views.extend(
                    site_intersect_catalog().views.iter().map(|(n, v)| (n.to_string(), v.clone())),
                );
                Inputs {
                    workload,
                    doc,
                    views,
                    queries: QuerySource::Cold(ColdSpace::new(seed)),
                    edits: Vec::new(),
                }
            }
        }
    }
}

/// Where query batch `i` comes from.
pub enum QuerySource {
    /// A Zipf stream over a small catalog: batch `i` is the `i`-th run of
    /// [`BATCH`] indices, wrapping around the pre-drawn stream.
    Zipf { distinct: Vec<Pattern>, stream: Vec<usize> },
    /// Distinct ad-hoc queries drawn without replacement from a large
    /// space (see [`ColdSpace`]).
    Cold(ColdSpace),
}

impl QuerySource {
    pub fn batch(&self, i: u64) -> Vec<Pattern> {
        match self {
            QuerySource::Zipf { distinct, stream } => {
                let start = (i as usize * BATCH) % stream.len();
                stream[start..start + BATCH].iter().map(|&k| distinct[k].clone()).collect()
            }
            QuerySource::Cold(space) => {
                (0..BATCH as u64).map(|k| space.query(i * BATCH as u64 + k)).collect()
            }
        }
    }

    /// Indices (for [`QuerySource::distinct_query`]) of the distinct
    /// queries that the batches in `batches` hold.
    pub fn distinct_in(&self, batches: Range<u64>) -> Range<u64> {
        match self {
            QuerySource::Zipf { distinct, .. } => 0..distinct.len() as u64,
            QuerySource::Cold(space) => {
                let start = batches.start * BATCH as u64;
                start..(batches.end * BATCH as u64).min(start + space.size())
            }
        }
    }

    /// Distinct query `j` of [`QuerySource::distinct_in`].
    pub fn distinct_query(&self, j: u64) -> Pattern {
        match self {
            QuerySource::Zipf { distinct, .. } => distinct[j as usize].clone(),
            QuerySource::Cold(space) => space.query(j),
        }
    }

    /// Size of the query universe the stream draws from.
    pub fn universe(&self) -> u64 {
        match self {
            QuerySource::Zipf { distinct, .. } => distinct.len() as u64,
            QuerySource::Cold(space) => space.size(),
        }
    }
}

const SPINES: [&str; 4] = ["site/region/item", "site//item", "site/*/item", "site/region/*"];

const BRANCHES: [&str; 15] = [
    "name",
    "description",
    "description/parlist",
    "description/parlist/listitem",
    "description//listitem",
    "bids",
    "bids/bid",
    "bids/bid/bidder",
    "bids/*/bidder",
    "bids/bid/price",
    "bids//price",
    "shipping",
    "shipping/cost",
    "*/bid",
    ".//cost",
];

const OUTPUTS: [&str; 7] = [
    "name",
    "description",
    "description/parlist/listitem",
    "bids/bid",
    "bids/bid/bidder",
    "bids//price",
    "shipping/cost",
];

/// The `cold_plan` query universe, `<spine>[branch]*/<output>`: every
/// spine × every subset of predicate branches × every output, i.e.
/// 4 · 2¹⁵ · 7 = 917 504 structurally distinct queries. Query `j` of the
/// stream is universe member `(a·j + b) mod size` for seeded `a` coprime
/// to the size, so the first `size` queries of the stream are pairwise
/// distinct and need no memory to draw.
pub struct ColdSpace {
    a: u64,
    b: u64,
}

impl ColdSpace {
    fn new(seed: u64) -> ColdSpace {
        let size = universe_size();
        let mut a = (splitmix(seed) % size) | 1;
        while gcd(a, size) != 1 {
            a += 2;
        }
        ColdSpace { a, b: splitmix(seed ^ 0xC01D) % size }
    }

    pub fn size(&self) -> u64 {
        universe_size()
    }

    /// Query `j` of the stream (distinct for `j < size`).
    pub fn query(&self, j: u64) -> Pattern {
        let size = self.size();
        let mut x = ((self.a as u128 * (j % size) as u128 + self.b as u128) % size as u128) as u64;
        let output = OUTPUTS[(x % OUTPUTS.len() as u64) as usize];
        x /= OUTPUTS.len() as u64;
        let spine = SPINES[(x % SPINES.len() as u64) as usize];
        x /= SPINES.len() as u64;
        let mut text = spine.to_string();
        for (bit, branch) in BRANCHES.iter().enumerate() {
            if x >> bit & 1 == 1 {
                text.push('[');
                text.push_str(branch);
                text.push(']');
            }
        }
        text.push('/');
        text.push_str(output);
        parse_xpath(&text).expect("cold_plan queries are well-formed")
    }
}

fn universe_size() -> u64 {
    ((SPINES.len() * OUTPUTS.len()) as u64) << BRANCHES.len()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_stream_is_distinct_and_seeded() {
        let space = ColdSpace::new(7);
        let texts: HashSet<String> = (0..5000).map(|j| space.query(j).to_string()).collect();
        assert_eq!(texts.len(), 5000);
        let other = ColdSpace::new(8);
        assert_ne!(space.query(0).to_string(), other.query(0).to_string());
        assert_eq!(space.query(3).to_string(), ColdSpace::new(7).query(3).to_string());
    }
}
