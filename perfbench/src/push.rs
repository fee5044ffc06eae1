//! The `push-study` workload: dependency-graph page loads over RTT band ×
//! bandwidth × the four push policies.
//!
//! The untraced passes call `push_study::run_on`. The traced passes load
//! the same grid cell by cell through `Population::site` and
//! `pageload::page_load_with`, with a span around each call, and must
//! rebuild the same cells and the same report JSON.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use h2fault::splitmix64;
use h2obs::Obs;
use h2ready_bench::push_study::{
    self, cell_link, sampled_sites, Cell, PolicyOutcome, StudyOptions, StudyReport, BANDWIDTHS,
    RTT_BANDS,
};
use h2ready_bench::sched::{ScanPool, Slots, WorkQueue};
use h2scope::pageload::{page_load_with, LoadOptions};
use h2scope::Target;
use h2server::PushPolicy;
use webpop::{ExperimentSpec, Population};

use crate::layers::{self, HeaderSample, LayerInputs};
use crate::metrics::Metrics;
use crate::spans::{Clock, SpanLog, Trace, NO_PARENT};
use crate::stats::{self, Fnv};
use crate::workload::{Config, LayerCtx, Outputs, SetupParts, Size, Workload, BROKEN, WORKERS};

/// Span name of one policy's page loads.
fn load_span(policy: PushPolicy) -> &'static str {
    match policy {
        PushPolicy::None => "h2scope.page_load.push-none",
        PushPolicy::All => "h2scope.page_load.push-all",
        PushPolicy::CriticalPath => "h2scope.page_load.push-critical-path",
        PushPolicy::OverPush => "h2scope.page_load.over-push",
    }
}

/// A cell's output unit: every field of every policy outcome.
fn cell_hash(cell: &Cell) -> u64 {
    let complete = cell.policies.len() == PushPolicy::ALL_POLICIES.len()
        && cell
            .policies
            .iter()
            .zip(PushPolicy::ALL_POLICIES)
            .all(|(o, p)| o.policy == p);
    if !complete {
        return BROKEN;
    }
    let mut h = Fnv::default();
    h.eat_u64(cell.site)
        .eat(cell.family.code().as_bytes())
        .eat_u64(cell.rtt as u64)
        .eat_u64(cell.bw as u64)
        .eat_u64(cell.objects)
        .eat_u64(cell.weight);
    for o in &cell.policies {
        h.eat(o.policy.name().as_bytes())
            .eat_u64(o.stalled as u64)
            .eat_u64(o.promised as u64)
            .eat_u64(o.delivered as u64);
        for plt in &o.plt_ms {
            h.eat_u64(plt.to_bits());
        }
    }
    h.finish()
}

/// Cell hashes plus, as the last unit, the digest of the report JSON.
fn report_units(report: &StudyReport) -> Outputs {
    let mut units: Vec<u64> = report.cells.iter().map(cell_hash).collect();
    units.push(
        Fnv::default()
            .eat(push_study::render_json(report).as_bytes())
            .finish(),
    );
    Outputs { units }
}

/// Load counts a traced pass saw, for the pageload metrics.
#[derive(Debug, Clone, Copy, Default)]
struct LoadCounts {
    loads: u64,
    complete: u64,
    objects: u64,
    promised: u64,
    delivered: u64,
}

/// The push QoE sweep.
#[derive(Debug)]
pub struct Push {
    options: StudyOptions,
    population: Population,
    sites: Vec<u64>,
    pool: ScanPool,
    last: Option<StudyReport>,
    counts: LoadCounts,
}

impl Push {
    /// Builds the study population and spawns the pool (the timed set-up).
    pub fn setup(cfg: &Config) -> (Push, SetupParts) {
        // 11,520 loads either way; spreading them over 160 sites rather
        // than `repro push-study`'s 48 × 10 keeps the per-load cost from
        // hinging on which few sites a seed happens to sample.
        let (max_sites, loads) = match cfg.size {
            Size::Full => (160, 3),
            Size::Tiny => (3, 1),
        };
        let options = StudyOptions {
            scale: 0.02,
            seed: cfg.seed,
            loads,
            max_sites,
            threads: WORKERS,
        };
        let t = Instant::now();
        // The study's own population: Jan 2017, master seed perturbed by
        // the study seed (as `push_study` builds it).
        let mut spec = ExperimentSpec::second();
        spec.seed ^= options.seed;
        let population = Population::new(spec, options.scale);
        let population_ms = t.elapsed().as_secs_f64() * 1e3;
        let sites = sampled_sites(&options, &population);
        let push = Push {
            options,
            population,
            sites,
            pool: ScanPool::new(WORKERS),
            last: None,
            counts: LoadCounts::default(),
        };
        (
            push,
            SetupParts {
                population_ms,
                ..SetupParts::default()
            },
        )
    }

    fn cells(&self) -> usize {
        self.sites.len() * RTT_BANDS.len() * BANDWIDTHS.len()
    }

    /// The grid through `page_load_with`, on the pool, with spans and
    /// (when `obs` is on) h2obs counts.
    fn decomposed(&mut self, obs: &Obs, trace: &mut Trace) -> Outputs {
        let clock = trace.clock();
        let links = RTT_BANDS.len() * BANDWIDTHS.len();
        let total = self.cells();
        let queue = Arc::new(WorkQueue::new(total as u64, self.pool.threads()));
        let slots: Arc<Slots<(Cell, LoadCounts)>> = Arc::new(Slots::new(total));
        let sink: Arc<Mutex<Vec<SpanLog>>> = Arc::default();
        let shared = Arc::new((
            self.population.clone(),
            self.sites.clone(),
            self.options.clone(),
        ));
        let obs = obs.clone();
        {
            let (queue, slots, sink) = (Arc::clone(&queue), Arc::clone(&slots), Arc::clone(&sink));
            self.pool.broadcast(move |worker| {
                let (population, sites, options) = &*shared;
                let obs = obs.worker_shard();
                let mut log = SpanLog::new(clock, worker);
                while let Some(range) = queue.claim() {
                    for item in range {
                        let site = sites[item as usize / links];
                        let link = item as usize % links;
                        let (rtt, bw) = (link / BANDWIDTHS.len(), link % BANDWIDTHS.len());
                        let op = log.open("push.cell", item, NO_PARENT);
                        let sample = log.timed("webpop.site", item, op, || population.site(site));
                        let mut counts = LoadCounts::default();
                        let mut cell = Cell {
                            site,
                            family: sample.family,
                            rtt,
                            bw,
                            objects: 0,
                            weight: 0,
                            policies: Vec::with_capacity(PushPolicy::ALL_POLICIES.len()),
                        };
                        for (pi, &policy) in PushPolicy::ALL_POLICIES.iter().enumerate() {
                            let mut profile = (*sample.profile).clone();
                            profile.behavior.push = policy != PushPolicy::None;
                            profile.behavior.push_policy = policy;
                            let profile = Arc::new(profile);
                            let mut outcome = PolicyOutcome {
                                policy,
                                plt_ms: Vec::with_capacity(options.loads),
                                stalled: 0,
                                promised: 0,
                                delivered: 0,
                            };
                            for load in 0..options.loads {
                                let seed = splitmix64(
                                    options.seed
                                        ^ site.wrapping_mul(0x9e37_79b9)
                                        ^ ((rtt as u64) << 48)
                                        ^ ((bw as u64) << 40)
                                        ^ ((pi as u64) << 32)
                                        ^ load as u64,
                                );
                                let mut target =
                                    Target::testbed(Arc::clone(&profile), Arc::clone(&sample.site));
                                target.link = cell_link(rtt, bw);
                                target.seed = seed;
                                target.obs = obs.clone();
                                let result = log.timed(load_span(policy), item, op, || {
                                    page_load_with(
                                        &target,
                                        &LoadOptions {
                                            enable_push: true,
                                            seed,
                                            refuse: &[],
                                        },
                                    )
                                });
                                counts.loads += 1;
                                if result.complete() {
                                    counts.complete += 1;
                                    counts.objects += result.objects as u64;
                                    outcome.plt_ms.push(result.load_time.as_millis_f64());
                                    if policy == PushPolicy::None {
                                        cell.objects = result.objects as u64;
                                        cell.weight = result.bytes;
                                    }
                                } else {
                                    outcome.stalled += 1;
                                }
                                outcome.promised += result.promised;
                                outcome.delivered += result.pushed_assets;
                                counts.promised += result.promised as u64;
                                counts.delivered += result.pushed_assets as u64;
                            }
                            cell.policies.push(outcome);
                        }
                        log.close(op);
                        slots.put(item as usize, (cell, counts));
                    }
                }
                sink.lock().expect("span sink").push(log);
            });
        }
        for log in std::mem::take(&mut *sink.lock().expect("span sink")) {
            trace.absorb(log);
        }
        let done = Arc::into_inner(slots)
            .expect("broadcast finished")
            .into_vec();
        let mut counts = LoadCounts::default();
        let mut cells = Vec::with_capacity(done.len());
        for (cell, c) in done {
            counts.loads += c.loads;
            counts.complete += c.complete;
            counts.objects += c.objects;
            counts.promised += c.promised;
            counts.delivered += c.delivered;
            cells.push(cell);
        }
        self.counts = counts;
        report_units(&StudyReport {
            options: self.options.clone(),
            cells,
        })
    }
}

impl Workload for Push {
    fn op(&self) -> &'static str {
        "load"
    }

    fn ops(&self) -> u64 {
        (self.cells() * PushPolicy::ALL_POLICIES.len() * self.options.loads) as u64
    }

    fn ops_per_unit(&self) -> u64 {
        (PushPolicy::ALL_POLICIES.len() * self.options.loads) as u64
    }

    fn pool(&self) -> &ScanPool {
        &self.pool
    }

    fn inputs_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.eat_u64(self.population.spec().seed);
        for &site in &self.sites {
            let sample = self.population.site(site);
            h.eat_u64(site).eat(sample.family.code().as_bytes());
            for path in sample.site.resources.keys() {
                h.eat(path.as_bytes());
            }
        }
        h.finish()
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "cells {} ({} sites x {} RTT bands x {} bandwidths), {} policies x {} loads per cell, scale {}",
            self.cells(),
            self.sites.len(),
            RTT_BANDS.len(),
            BANDWIDTHS.len(),
            PushPolicy::ALL_POLICIES.len(),
            self.options.loads,
            self.options.scale
        )]
    }

    fn pass(&mut self) {
        self.last = Some(push_study::run_on(&self.options, &mut self.pool));
    }

    fn outputs(&mut self) -> Outputs {
        self.last
            .take()
            .map(|r| report_units(&r))
            .unwrap_or_default()
    }

    /// `run_on` takes no observability handle, so the counts come from
    /// the decomposed grid with h2obs on (observation never changes a
    /// load's outcome).
    fn counted_pass(&mut self, obs: &Obs) -> Outputs {
        self.decomposed(obs, &mut Trace::new(Clock::new(Instant::now(), false)))
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Outputs {
        self.decomposed(&Obs::off(), trace)
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut Metrics) {
        let by = ctx.trace.by_name();
        let loads: usize = PushPolicy::ALL_POLICIES
            .iter()
            .map(|&p| by.get(load_span(p)).map_or(0, |s| s.count()))
            .sum();
        let cells = by.get("push.cell").map_or(0, |s| s.count());
        if let Some(s) = by.get("webpop.site") {
            out.set("webpop.site_us", s.mean_us());
        }
        for &p in &PushPolicy::ALL_POLICIES {
            let s = by.get(load_span(p)).cloned().unwrap_or_default();
            out.set(&format!("h2scope.page_load_us.{}", p.name()), s.mean_us());
        }
        let c = self.counts;
        out.set(
            "pageload.objects_per_load",
            stats::ratio(c.objects as f64, c.complete as f64),
        );
        out.set(
            "pageload.stalled_share",
            stats::ratio((c.loads - c.complete) as f64, c.loads as f64),
        );
        out.set(
            "pageload.push_delivered_per_promised",
            stats::ratio(c.delivered as f64, c.promised as f64),
        );

        let first = self.population.site(self.sites[0]);
        let mut target = Target::testbed(Arc::clone(&first.profile), Arc::clone(&first.site));
        target.link = cell_link(0, 1);
        let paths: Vec<String> = first.site.resources.keys().take(16).cloned().collect();
        let biggest = first
            .site
            .resources
            .values()
            .max_by_key(|r| r.body.len())
            .map_or_else(|| "/".to_string(), |r| r.path.clone());
        let headers = HeaderSample::fetch(&target, &paths);
        let targets: Vec<Target> = self
            .sites
            .iter()
            .take(32)
            .map(|&s| {
                let sample = self.population.site(s);
                let mut t = Target::testbed(Arc::clone(&sample.profile), Arc::clone(&sample.site));
                t.link = cell_link(0, 1);
                t
            })
            .collect();
        layers::measure(
            &LayerInputs {
                data_frame: layers::mean_data_frame(ctx.snapshot),
                headers: &headers,
                targets: &targets,
                server: (&target, "/", &biggest),
            },
            out,
        );
        let sites_per_op = stats::ratio(cells as f64, loads as f64);
        layers::attribute(&layers::common_terms(out, sites_per_op), ctx, out);
    }
}
