//! The `serve` workload: a seeded query trace over two finalized campaign
//! records (one per experiment), answered over long-lived HTTP/2
//! connections, one per shard.
//!
//! The records are written once per run, untimed, through the recording
//! path. The untraced passes call `serve::run_on_pool`. The traced passes
//! replay each shard's queries through `ProbeConn::fetch` against the
//! same `QueryHandler` set-up, with a span around each fetch, and must
//! return the same responses.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use h2campaign::load_finalized;
use h2fault::FaultProfile;
use h2obs::Obs;
use h2ready_bench::scan::RecordedScan;
use h2ready_bench::sched::{ScanPool, Slots};
use h2ready_bench::serve::{self, serve_profile, QueryResult, ServeConfig};
use h2scope::{HandlerHook, ProbeConn, Target, TimedFrame};
use h2serve::{generate_trace, Query, QueryCache, QueryHandler, ServeIndex};
use h2server::{RequestHandler, SiteSpec};
use h2wire::{Frame, Settings};
use webpop::{ExperimentSpec, Population};

use crate::layers::{self, HeaderSample, LayerInputs};
use crate::metrics::Metrics;
use crate::spans::{SpanLog, Trace, NO_PARENT};
use crate::stats::{self, Fnv};
use crate::workload::{Config, LayerCtx, Outputs, SetupParts, Size, Workload, BROKEN, WORKERS};

/// Worker threads of the serving pool. `serve::run_on_pool` pins each
/// shard's queries to one worker, so with two workers on a two-CPU host a
/// pass lasts as long as the slower CPU takes and any other runnable
/// thread stalls one shard. One worker leaves a CPU spare and makes a
/// pass's wall time its CPU time.
pub const SERVE_WORKERS: usize = 1;

/// Queries per connection before it is replaced (as `repro serve` does).
const CONN_BATCH: usize = 1024;
/// Entries in each shard's render cache (the `repro serve` default).
const CACHE_CAPACITY: usize = 256;

/// Query classes, by the span and metric suffix they report under.
const KINDS: [&str; 4] = ["site", "table", "diff", "miss"];

/// Writes the two finalized records the workload serves (untimed): the
/// Jul-2016 and Jan-2017 campaigns, through `ScanPool::scan_recorded`.
pub fn write_records(size: Size, work: &std::path::Path) -> Result<Vec<PathBuf>, String> {
    let scale = match size {
        Size::Full => 0.02,
        Size::Tiny => 0.001,
    };
    // Untimed: the scan pool's worker count, to keep the run short.
    let mut pool = ScanPool::new(WORKERS);
    let mut paths = Vec::new();
    for (k, spec) in ExperimentSpec::both().into_iter().enumerate() {
        let path = work.join(format!("serve-{k}.rec"));
        let population = Population::new(spec, scale);
        match pool.scan_recorded(
            &population,
            FaultProfile::none(),
            0,
            &Obs::off(),
            &path,
            false,
            None,
        ) {
            Ok(RecordedScan::Complete { .. }) => paths.push(path),
            Ok(RecordedScan::Killed { .. }) => return Err("record campaign stopped early".into()),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
    }
    Ok(paths)
}

/// The class of `query` against `index`: a site lookup the index cannot
/// answer is a miss (expected 404).
fn kind_of(index: &ServeIndex, query: &Query) -> usize {
    match query {
        Query::Site {
            campaign,
            authority,
        } => {
            let found = index
                .campaign(*campaign)
                .and_then(|c| c.site_line(authority))
                .is_some();
            if found {
                0
            } else {
                3
            }
        }
        Query::Table { .. } => 1,
        Query::Diff { .. } => 2,
    }
}

fn span_of(kind: usize) -> &'static str {
    [
        "h2scope.fetch.site",
        "h2scope.fetch.table",
        "h2scope.fetch.diff",
        "h2scope.fetch.miss",
    ][kind]
}

/// A query's output unit: its status and body, or [`BROKEN`] when the
/// status is not the one the class expects (200, or 404 for a miss).
fn response_hash(kind: usize, status: &str, body: &[u8]) -> u64 {
    let expected = if kind == 3 { "404" } else { "200" };
    if status != expected {
        return BROKEN;
    }
    Fnv::default().eat(status.as_bytes()).eat(body).finish()
}

/// `(status, body)` of `stream` among a fetch's frames.
fn response_for(stream: u32, frames: &[TimedFrame]) -> (String, Vec<u8>) {
    let mut status = String::new();
    let mut body = Vec::new();
    for tf in frames {
        match &tf.frame {
            Frame::Headers(h) if h.stream_id.value() == stream => {
                if let Some(s) = tf
                    .headers
                    .as_ref()
                    .and_then(|hs| hs.iter().find(|h| h.name == ":status"))
                {
                    status = s.value.clone();
                }
            }
            Frame::Data(d) if d.stream_id.value() == stream => body.extend_from_slice(&d.data),
            _ => {}
        }
    }
    (status, body)
}

/// A shard's serving target: the daemon's profile with a query handler
/// over `index` caching into `cache`.
fn shard_target(
    index: &Arc<ServeIndex>,
    cache: &Arc<Mutex<QueryCache>>,
    seed: u64,
    worker: usize,
) -> Target {
    let mut target = Target::testbed(Arc::new(serve_profile()), Arc::new(SiteSpec::benchmark()));
    target.seed = seed ^ 0x5e12e ^ worker as u64;
    let (index, cache) = (Arc::clone(index), Arc::clone(cache));
    target.handler = Some(HandlerHook::new(move || {
        Box::new(QueryHandler::new(Arc::clone(&index), Arc::clone(&cache)))
    }));
    target
}

/// The query daemon under a seeded trace.
#[derive(Debug)]
pub struct Serve {
    cfg: ServeConfig,
    index: Arc<ServeIndex>,
    trace: Vec<Query>,
    kinds: Vec<usize>,
    pool: ScanPool,
    next_trace: Option<Vec<Query>>,
    last: Vec<QueryResult>,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Serve {
    /// Loads the records, builds the index, generates the trace and
    /// spawns the pool (the timed set-up).
    pub fn setup(cfg: &Config, records: &[PathBuf]) -> Result<(Serve, SetupParts), String> {
        let queries = match cfg.size {
            Size::Full => 65_536,
            Size::Tiny => 512,
        };
        let t = Instant::now();
        let mut stored = Vec::with_capacity(records.len());
        for path in records {
            stored.push(load_finalized(path).map_err(|e| e.to_string())?);
        }
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let index = Arc::new(ServeIndex::from_records(stored));
        let index_ms = t.elapsed().as_secs_f64() * 1e3;
        let trace = generate_trace(&index, cfg.seed, queries);
        let pool = ScanPool::new(SERVE_WORKERS);
        let serve = Serve {
            cfg: ServeConfig {
                records: records.to_vec(),
                workers: SERVE_WORKERS,
                queries,
                seed: cfg.seed,
                cache: true,
                hostile: false,
                obs: Obs::off(),
            },
            index,
            trace,
            kinds: Vec::new(),
            pool,
            next_trace: None,
            last: Vec::new(),
            cache_hits: 0,
            cache_lookups: 0,
        };
        Ok((
            serve,
            SetupParts {
                load_ms,
                index_ms,
                ..SetupParts::default()
            },
        ))
    }

    /// Query classes in trace order (computed on first use, outside the
    /// timed set-up).
    fn kinds(&mut self) -> &[usize] {
        if self.kinds.len() != self.trace.len() {
            self.kinds = self.trace.iter().map(|q| kind_of(&self.index, q)).collect();
        }
        &self.kinds
    }

    fn run(&mut self, obs: &Obs) {
        let trace = self.next_trace.take().unwrap_or_else(|| self.trace.clone());
        let mut cfg = self.cfg.clone();
        cfg.obs = obs.clone();
        let outcome = serve::run_on_pool(&cfg, Arc::clone(&self.index), trace, &mut self.pool);
        self.last = outcome.responses;
    }
}

impl Workload for Serve {
    fn op(&self) -> &'static str {
        "lookup"
    }

    fn ops(&self) -> u64 {
        self.trace.len() as u64
    }

    fn ops_per_unit(&self) -> u64 {
        1
    }

    fn pool(&self) -> &ScanPool {
        &self.pool
    }

    fn inputs_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for q in &self.trace {
            h.eat(q.path().as_bytes());
        }
        h.finish()
    }

    fn describe(&self) -> Vec<String> {
        let sites: Vec<String> = (0..self.index.len())
            .filter_map(|i| self.index.campaign(i))
            .map(|c| c.sites().to_string())
            .collect();
        let kinds: Vec<usize> = self.trace.iter().map(|q| kind_of(&self.index, q)).collect();
        let share = |k: usize| {
            100.0
                * stats::ratio(
                    kinds.iter().filter(|&&x| x == k).count() as f64,
                    kinds.len() as f64,
                )
        };
        vec![
            format!("records {} with sites per record {}", self.index.len(), sites.join(", ")),
            format!(
                "queries {}: site {:.1}%, miss {:.1}%, table {:.1}%, diff {:.1}%; shards {}, connections churned every {CONN_BATCH}, cache on",
                self.trace.len(),
                share(0),
                share(3),
                share(1),
                share(2),
                self.pool.threads()
            ),
        ]
    }

    fn pass(&mut self) {
        self.run(&Obs::off());
    }

    fn outputs(&mut self) -> Outputs {
        let responses = std::mem::take(&mut self.last);
        let kinds = self.kinds().to_vec();
        let units = responses
            .iter()
            .zip(&kinds)
            .map(|(r, &k)| response_hash(k, &r.status, &r.body))
            .collect();
        // The next pass gets its own copy of the trace, made here so the
        // copy stays out of the timed region.
        self.next_trace = Some(self.trace.clone());
        Outputs { units }
    }

    fn counted_pass(&mut self, obs: &Obs) -> Outputs {
        self.run(obs);
        self.outputs()
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Outputs {
        let clock = trace.clock();
        let workers = self.pool.threads();
        let kinds = self.kinds().to_vec();
        let mut partitions: Vec<Vec<(usize, Query)>> = vec![Vec::new(); workers];
        for (seq, query) in self.trace.iter().enumerate() {
            partitions[query.shard(workers)].push((seq, query.clone()));
        }
        let caches: Vec<Arc<Mutex<QueryCache>>> = (0..workers)
            .map(|_| Arc::new(Mutex::new(QueryCache::new(CACHE_CAPACITY, true))))
            .collect();
        let slots: Arc<Slots<u64>> = Arc::new(Slots::new(self.trace.len()));
        let sink: Arc<Mutex<Vec<SpanLog>>> = Arc::default();
        let shared = Arc::new((partitions, caches.clone(), Arc::clone(&self.index), kinds));
        let seed = self.cfg.seed;
        {
            let (slots, sink) = (Arc::clone(&slots), Arc::clone(&sink));
            self.pool.broadcast(move |w| {
                let (partitions, caches, index, kinds) = &*shared;
                let mut log = SpanLog::new(clock, w);
                let (Some(queries), Some(cache)) = (partitions.get(w), caches.get(w)) else {
                    return;
                };
                let target = shard_target(index, cache, seed, w);
                let mut conn = None;
                let mut stream = 1u32;
                for (k, (seq, query)) in queries.iter().enumerate() {
                    let op = log.open("serve.query", *seq as u64, NO_PARENT);
                    if k % CONN_BATCH == 0 {
                        let conn_seed = ((w as u64) << 32) | (k / CONN_BATCH) as u64;
                        conn = Some(log.timed("h2scope.establish", *seq as u64, op, || {
                            ProbeConn::establish(&target, Settings::new(), conn_seed)
                        }));
                        stream = 1;
                    }
                    let conn = conn.as_mut().expect("connection established above");
                    let kind = kinds[*seq];
                    let path = query.path();
                    let (frames, _) =
                        log.timed(span_of(kind), *seq as u64, op, || conn.fetch(stream, &path));
                    let (status, body) = response_for(stream, &frames);
                    stream += 2;
                    log.close(op);
                    slots.put(*seq, response_hash(kind, &status, &body));
                }
                sink.lock().expect("span sink").push(log);
            });
        }
        for log in std::mem::take(&mut *sink.lock().expect("span sink")) {
            trace.absorb(log);
        }
        (self.cache_hits, self.cache_lookups) = caches.iter().fold((0, 0), |(h, n), c| {
            let c = c.lock().expect("shard cache");
            (h + c.hits(), n + c.hits() + c.misses())
        });
        Outputs {
            units: Arc::into_inner(slots)
                .expect("broadcast finished")
                .into_vec(),
        }
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut Metrics) {
        let by = ctx.trace.by_name();
        for (k, kind) in KINDS.iter().enumerate() {
            let s = by.get(span_of(k)).cloned().unwrap_or_default();
            out.set(&format!("h2scope.fetch_us.{kind}.p50"), s.pct_us(50.0));
            out.set(&format!("h2scope.fetch_us.{kind}.p99"), s.pct_us(99.0));
        }
        out.set(
            "h2serve.cache_hit_ratio",
            stats::ratio(self.cache_hits as f64, self.cache_lookups as f64),
        );
        out.set("h2serve.cache_lookups", self.cache_lookups as f64);

        // RequestHandler::handle called from outside, per class, on one
        // shard's handler (cache on, as the daemon runs).
        let cache = Arc::new(Mutex::new(QueryCache::new(CACHE_CAPACITY, true)));
        let mut handler = QueryHandler::new(Arc::clone(&self.index), Arc::clone(&cache));
        let kinds = self.kinds().to_vec();
        let mut handle_ns = [const { Vec::new() }; 4];
        for (query, &kind) in self.trace.iter().zip(&kinds).take(8_192) {
            let path = query.path();
            let t = Instant::now();
            let response = handler.handle(&path);
            handle_ns[kind].push(t.elapsed().as_nanos() as f64);
            std::hint::black_box(response);
        }
        for (k, kind) in KINDS.iter().enumerate() {
            out.set(
                &format!("h2serve.handle_us.{kind}"),
                stats::mean(&handle_ns[k]) / 1e3,
            );
        }

        let shard_cache = Arc::new(Mutex::new(QueryCache::new(CACHE_CAPACITY, true)));
        let target = shard_target(&self.index, &shard_cache, self.cfg.seed, 0);
        let mut sample_paths = Vec::new();
        for k in 0..KINDS.len() {
            if let Some(pos) = kinds.iter().position(|&x| x == k) {
                sample_paths.push(self.trace[pos].path());
            }
        }
        let headers = HeaderSample::fetch(&target, &sample_paths);
        let small = sample_paths
            .first()
            .cloned()
            .unwrap_or_else(|| "/".to_string());
        let big = Query::Table { campaign: 0 }.path();
        layers::measure(
            &LayerInputs {
                data_frame: layers::mean_data_frame(ctx.snapshot),
                headers: &headers,
                targets: std::slice::from_ref(&target),
                server: (&target, &small, &big),
            },
            out,
        );
        let mut terms = layers::common_terms(out, 0.0);
        let n = kinds.len().max(1) as f64;
        let handle: f64 = (0..KINDS.len())
            .map(|k| {
                kinds.iter().filter(|&&x| x == k).count() as f64 / n
                    * out.get(&format!("h2serve.handle_us.{}", KINDS[k]))
            })
            .sum();
        terms.push(("h2serve.handle", handle));
        layers::attribute(&terms, ctx, out);
    }
}
