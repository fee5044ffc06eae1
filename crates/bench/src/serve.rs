//! The `repro serve` load driver: replays a seeded query trace against
//! the h2serve daemon over real HTTP/2 connections, sharded across the
//! persistent scan pool.
//!
//! Architecture (mirrors the sharded scan driver of `scan.rs`):
//!
//! 1. Finalized records load once through the validated
//!    [`h2campaign::load_finalized`] path into a shared read-only
//!    [`ServeIndex`].
//! 2. The full query trace is generated up front from the seed — a pure
//!    function of `(records, seed, count)`, independent of worker count.
//! 3. Each query is assigned its home shard by site-rank hash
//!    ([`h2serve::shard_of`] via [`Query::shard`]); worker `w` owns
//!    shard `w` outright: its queries, its LRU render cache, its
//!    long-lived client connection. Shared-nothing, so no locks are
//!    contended and per-shard cache eviction stays deterministic.
//! 4. Workers drive queries through [`h2scope::ProbeConn`] — request
//!    HEADERS encoded by h2hpack, framed by h2wire, multiplexed by
//!    h2conn, answered by the [`h2serve::QueryHandler`] installed in
//!    [`h2server::H2Server`] via the target's handler hook — and write
//!    `(status, body, latency)` into trace-ordered [`Slots`].
//!
//! Responses are therefore byte-identical at any worker count, with the
//! cache on or off, and with hostile clients interleaved: every response
//! is a pure function of the loaded records and the query, and attack
//! connections are separate pipes against separate server instances.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use h2attack::{run as run_attack, AttackVector};
use h2campaign::LoadError;
use h2obs::Obs;
use h2scope::{HandlerHook, ProbeConn, Target};
use h2serve::{generate_trace, Query, QueryCache, QueryHandler, ServeIndex};
use h2server::{ServerProfile, SiteSpec};
use h2wire::{Frame, Settings};
use netsim::time::SimDuration;

use crate::sched::{ScanPool, Slots};

/// Queries served per client connection before it is torn down and a
/// fresh one established (exercising the buffer pool's lease/reclaim
/// cycle the way a long-lived daemon with connection churn would).
const CONN_BATCH: usize = 1024;

/// In hostile mode, a slow-read / rapid-reset client is interleaved
/// after every this-many queries on each shard.
const HOSTILE_EVERY: usize = 256;

/// Configuration for one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Finalized campaign records to load and serve.
    pub records: Vec<PathBuf>,
    /// Worker shards.
    pub workers: usize,
    /// Queries in the seeded trace.
    pub queries: u64,
    /// Trace seed.
    pub seed: u64,
    /// Enable the per-shard LRU render cache.
    pub cache: bool,
    /// Interleave h2attack slow-read / rapid-reset clients with the
    /// query trace.
    pub hostile: bool,
    /// Observability handle (`Obs::off()` keeps the run bit-identical
    /// to an uninstrumented one).
    pub obs: Obs,
}

impl ServeConfig {
    /// A baseline config over `records`: 1 worker, 4096 queries, cache
    /// on, no hostiles, metrics off.
    pub fn new(records: Vec<PathBuf>) -> ServeConfig {
        ServeConfig {
            records,
            workers: 1,
            queries: 4096,
            seed: 0x5e12e,
            cache: true,
            hostile: false,
            obs: Obs::off(),
        }
    }
}

/// One answered query, in trace order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// `:status` of the response.
    pub status: String,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Virtual time from request sent to response complete, in ns.
    pub latency_ns: u64,
}

/// One hostile engagement interleaved with the trace.
#[derive(Debug, Clone)]
pub struct HostileOutcome {
    /// The vector that ran.
    pub vector: &'static str,
    /// Whether the daemon defended itself (non-ignore reaction).
    pub defended: bool,
}

/// Everything a serve run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-query results in trace order.
    pub responses: Vec<QueryResult>,
    /// FNV-1a digest over every `(status, body)` in trace order — the
    /// value the determinism suite compares across worker counts.
    pub digest: u64,
    /// Cache hits summed over all shards.
    pub cache_hits: u64,
    /// Cache misses summed over all shards.
    pub cache_misses: u64,
    /// Hostile engagements run (empty unless hostile mode).
    pub hostiles: Vec<HostileOutcome>,
}

impl ServeOutcome {
    /// p50/p99 of the per-query virtual latencies, in nanoseconds.
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut lat: Vec<u64> = self.responses.iter().map(|r| r.latency_ns).collect();
        lat.sort_unstable();
        let pick = |p: usize| -> u64 {
            if lat.is_empty() {
                return 0;
            }
            let idx = (lat.len().saturating_sub(1)) * p / 100;
            lat[idx]
        };
        (pick(50), pick(99))
    }
}

/// The server profile the daemon runs: nghttpd's defenses (SETTINGS
/// rate limit, CONTINUATION cap, header-list limit) plus a stall
/// timeout and a much tighter RST window, because a public query
/// service faces both rapid-reset and slow-read clients — no single
/// profile in the paper's testbed carries both defenses. Benign query
/// traffic never sends RST_STREAM and never stalls, so neither bound
/// can touch a well-behaved client.
pub fn serve_profile() -> ServerProfile {
    let mut profile = ServerProfile::nghttpd();
    profile.name = "h2serve".to_string();
    profile.behavior.server_name = "h2serve/0.1".to_string();
    profile.behavior.stall_timeout = Some(SimDuration::from_secs(30));
    profile.behavior.rst_rate_limit = Some(32);
    profile
}

/// Extracts `(status, body)` for `stream` from a fetch's frames.
fn response_for(stream: u32, frames: &[h2scope::TimedFrame]) -> (String, Vec<u8>) {
    let mut status = String::new();
    let mut body = Vec::new();
    for tf in frames {
        match &tf.frame {
            Frame::Headers(h) if h.stream_id.value() == stream => {
                if let Some(headers) = &tf.headers {
                    if let Some(s) = headers.iter().find(|h| h.name == ":status") {
                        status = s.value.clone();
                    }
                }
            }
            Frame::Data(d) if d.stream_id.value() == stream => {
                body.extend_from_slice(&d.data);
            }
            _ => {}
        }
    }
    (status, body)
}

/// FNV-1a over every response, in trace order.
fn digest_responses(responses: &[QueryResult]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1_0000_01b3);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x1_0000_01b3);
    };
    for r in responses {
        eat(r.status.as_bytes());
        eat(&r.body);
    }
    hash
}

/// Drives one worker shard: its partition of the trace, serially, over
/// long-lived connections against its own server instances.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    worker: usize,
    queries: &[(usize, Query)],
    target: &Target,
    cache: &Arc<Mutex<QueryCache>>,
    slots: &Slots<QueryResult>,
    hostile: bool,
    obs: &Obs,
    hostiles: &Mutex<Vec<HostileOutcome>>,
) {
    if queries.is_empty() {
        return;
    }
    let mut conn = ProbeConn::establish(target, Settings::new(), (worker as u64) << 32);
    let mut stream = 1u32;
    for (k, (seq, query)) in queries.iter().enumerate() {
        if hostile && k > 0 && k.is_multiple_of(HOSTILE_EVERY) {
            // Alternate the two vectors; each attack runs on its own
            // connection (its own pipe + server instance), so the query
            // connection — and every response byte — is untouched.
            let vector = if (k / HOSTILE_EVERY).is_multiple_of(2) {
                AttackVector::SlowRead
            } else {
                AttackVector::RapidReset
            };
            let report = run_attack(vector, target, (worker as u64) << 24 | k as u64);
            hostiles.lock().expect("hostile log").push(HostileOutcome {
                vector: match vector {
                    AttackVector::SlowRead => "slow_read",
                    _ => "rapid_reset",
                },
                defended: report.defended,
            });
        }
        if k > 0 && k.is_multiple_of(CONN_BATCH) {
            // Replacing the ProbeConn drops the old one, reclaiming its
            // buffer pool to the worker thread; the new establish leases
            // the warmed pool straight back.
            let conn_seed = ((worker as u64) << 32) | (k / CONN_BATCH) as u64;
            conn = ProbeConn::establish(target, Settings::new(), conn_seed);
            stream = 1;
        }
        let path = query.path();
        // This shard runs serially, so exactly one query executes between
        // the two hit-counter probes: a bump means *this* query hit.
        let hits_before = cache.lock().expect("shard cache").hits();
        let t0 = conn.now();
        let (frames, done) = conn.fetch(stream, &path);
        let (status, body) = response_for(stream, &frames);
        stream += 2;
        let latency_ns = (done - t0).as_nanos();
        let hit = cache.lock().expect("shard cache").hits() > hits_before;
        obs.query_served(hit, body.len() as u64, latency_ns);
        slots.put(
            *seq,
            QueryResult {
                status,
                body,
                latency_ns,
            },
        );
    }
}

/// Loads the records, replays the seeded trace across `workers` shards,
/// and collects every response in trace order.
///
/// # Errors
///
/// [`LoadError`] when any record is unreadable, unfinalized, torn or
/// checksum-corrupt (distinct exit codes per class).
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeOutcome, LoadError> {
    let index = Arc::new(ServeIndex::load(&cfg.records)?);
    let trace = generate_trace(&index, cfg.seed, cfg.queries);
    let mut pool = ScanPool::new(cfg.workers.max(1));
    Ok(run_on_pool(cfg, index, trace, &mut pool))
}

/// The innermost driver: reuses an existing pool (perfbench and the
/// scaling test keep one pool alive across samples so per-sample cost is
/// the serve work, not thread spawning).
pub fn run_on_pool(
    cfg: &ServeConfig,
    index: Arc<ServeIndex>,
    trace: Vec<Query>,
    pool: &mut ScanPool,
) -> ServeOutcome {
    let workers = pool.threads();
    // Pre-partition the trace: worker w owns every query whose home
    // shard is w. Ownership is by content hash, not position, so the
    // same query always lands in the same shard's cache.
    let mut partitions: Vec<Vec<(usize, Query)>> = (0..workers).map(|_| Vec::new()).collect();
    for (seq, query) in trace.into_iter().enumerate() {
        let shard = query.shard(workers);
        partitions[shard].push((seq, query));
    }
    let total: usize = partitions.iter().map(Vec::len).sum();

    let caches: Vec<Arc<Mutex<QueryCache>>> = (0..workers)
        .map(|_| Arc::new(Mutex::new(QueryCache::new(256, cfg.cache))))
        .collect();
    let slots = Arc::new(Slots::<QueryResult>::new(total));
    let hostiles = Arc::new(Mutex::new(Vec::new()));
    let partitions = Arc::new(partitions);

    let profile = Arc::new(serve_profile());
    let site = Arc::new(SiteSpec::benchmark());

    {
        let cfg = cfg.clone();
        let index = Arc::clone(&index);
        let caches = caches.clone();
        let slots = Arc::clone(&slots);
        let hostiles = Arc::clone(&hostiles);
        let partitions = Arc::clone(&partitions);
        pool.broadcast(move |w| {
            let Some(queries) = partitions.get(w) else {
                return;
            };
            let Some(cache) = caches.get(w) else {
                return;
            };
            let obs = cfg.obs.worker_shard();
            let hook_index = Arc::clone(&index);
            let hook_cache = Arc::clone(cache);
            let mut target = Target::testbed(Arc::clone(&profile), Arc::clone(&site));
            target.seed = cfg.seed ^ 0x5e12e ^ w as u64;
            target.obs = obs.clone();
            target.handler = Some(HandlerHook::new(move || {
                Box::new(QueryHandler::new(
                    Arc::clone(&hook_index),
                    Arc::clone(&hook_cache),
                ))
            }));
            run_shard(
                w,
                queries,
                &target,
                cache,
                &slots,
                cfg.hostile,
                &obs,
                &hostiles,
            );
        });
    }

    let responses = Arc::into_inner(slots)
        .expect("workers done with slots")
        .into_vec();
    let digest = digest_responses(&responses);
    let (cache_hits, cache_misses) = caches.iter().fold((0, 0), |(h, m), c| {
        let c = c.lock().expect("shard cache");
        (h + c.hits(), m + c.misses())
    });
    let hostiles = Arc::into_inner(hostiles)
        .expect("workers done with hostile log")
        .into_inner()
        .expect("hostile log");
    ServeOutcome {
        responses,
        digest,
        cache_hits,
        cache_misses,
        hostiles,
    }
}
