//! The `scan` and `scan-flaky` workloads: the H2Scope campaign over the
//! Jan-2017 population, clean and under the `flaky` fault profile.
//!
//! The untraced passes call `ScanPool::scan_faulted_with_obs` (clean) and
//! `ScanPool::scan_recorded` (flaky, into a campaign record). The traced
//! passes redo the same work on the same pool through the layers' public
//! functions: `Population::site`, each h2scope probe, the resilient retry
//! loop, the fault plan and the record writer, with a span around every
//! call. Both must produce the same rows.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use h2campaign::{load_finalized, CampaignMeta, CampaignRow, RecordWriter};
use h2fault::{splitmix64, FaultPlan, FaultProfile};
use h2obs::Obs;
use h2ready_bench::scan::{RecordedScan, ScanRecord};
use h2ready_bench::sched::{ScanPool, Slots, WorkQueue};
use h2scope::probes::{flow_control, hpack, negotiation, priority, push, settings};
use h2scope::{survey_with_retries, H2Scope, ProbeOutcome, ProbeStats, SiteReport, Target};
use webpop::{ExperimentSpec, Population, SiteSample};

use crate::layers::{self, HeaderSample, LayerInputs};
use crate::metrics::Metrics;
use crate::spans::{SpanLog, Trace, NO_PARENT};
use crate::stats::{self, Fnv};
use crate::workload::{Config, LayerCtx, Outputs, SetupParts, Size, Workload, BROKEN, WORKERS};

/// Population scale of the measured configuration (4,250 sites).
const FULL_SCALE: f64 = 0.05;
/// Population scale of the smoke configuration.
const TINY_SCALE: f64 = 0.001;

/// The seeded Jan-2017 population: the workload seed perturbs the
/// generator's master seed, so every seed is a different draw from the
/// same calibrated marginals.
pub fn population(size: Size, seed: u64) -> Population {
    let mut spec = ExperimentSpec::second();
    spec.seed ^= splitmix64(seed);
    let scale = match size {
        Size::Full => FULL_SCALE,
        Size::Tiny => TINY_SCALE,
    };
    Population::new(spec, scale)
}

/// A site's output unit: the hash of its campaign-record line.
pub fn row_hash(row: &CampaignRow) -> u64 {
    Fnv::default().eat(row.encode().as_bytes()).finish()
}

fn record_hash(record: &ScanRecord) -> u64 {
    row_hash(&CampaignRow {
        index: record.index,
        family: record.family,
        report: record.report.clone(),
    })
}

/// Surveys one site exactly as `H2Scope::survey` does, with a span
/// around every probe call.
fn traced_survey(
    log: &mut SpanLog,
    op: u64,
    parent: u32,
    scope: &H2Scope,
    target: &Target,
) -> SiteReport {
    let survey = log.open("h2scope.survey", op, parent);
    let negotiation = log.timed("h2scope.probe.negotiation", op, survey, || {
        negotiation::probe(target)
    });
    let report = |negotiation, server_name, headers_received, settings| SiteReport {
        authority: target.site.authority.clone(),
        negotiation,
        server_name,
        headers_received,
        settings,
        flow_control: None,
        priority: None,
        push: None,
        hpack: None,
        probe: ProbeStats::default(),
    };
    if !negotiation.h2() {
        log.close(survey);
        return report(negotiation, None, false, Default::default());
    }
    let settings = log.timed("h2scope.probe.settings", op, survey, || {
        settings::probe(target)
    });
    let probe = log.timed("h2scope.probe.headers", op, survey, || {
        h2scope::report::headers_probe(target)
    });
    if !probe.headers_received {
        log.close(survey);
        return report(negotiation, probe.server, false, settings);
    }
    let mut out = report(negotiation, probe.server, true, settings);
    out.flow_control = Some(log.timed("h2scope.probe.flow_control", op, survey, || {
        flow_control::probe(target)
    }));
    out.priority = Some(log.timed("h2scope.probe.priority", op, survey, || {
        priority::algorithm1(target)
    }));
    out.push = Some(log.timed("h2scope.probe.push", op, survey, || {
        push::probe(target, &["/"])
    }));
    let h = scope.config().hpack_requests;
    out.hpack = Some(log.timed("h2scope.probe.hpack", op, survey, || {
        hpack::probe(target, h)
    }));
    log.close(survey);
    out
}

/// Collects the span logs workers deposit at the end of a broadcast.
type LogSink = Arc<Mutex<Vec<SpanLog>>>;

fn drain_logs(sink: &LogSink, trace: &mut Trace) {
    let logs = std::mem::take(&mut *sink.lock().expect("span sink"));
    for log in logs {
        trace.absorb(log);
    }
}

/// Timings shared by both scan workloads' layer metrics.
fn scan_layer_inputs(population: &Population, ctx: &LayerCtx<'_>, out: &mut Metrics) {
    let sites: Vec<SiteSample> = (0..population.headers_count().min(32))
        .map(|i| population.site(i))
        .collect();
    let targets: Vec<Target> = sites.iter().map(SiteSample::target).collect();
    let Some(first) = targets.first() else {
        return;
    };
    let headers = HeaderSample::fetch(first, &["/".to_string(), "/big/1".to_string()]);
    layers::measure(
        &LayerInputs {
            data_frame: layers::mean_data_frame(ctx.snapshot),
            headers: &headers,
            targets: &targets,
            server: (first, "/", "/big/1"),
        },
        out,
    );
}

/// Probe span names and the metric suffix each reports under.
const PROBES: [(&str, &str); 7] = [
    ("h2scope.probe.negotiation", "negotiation"),
    ("h2scope.probe.settings", "settings"),
    ("h2scope.probe.headers", "headers"),
    ("h2scope.probe.flow_control", "flow_control"),
    ("h2scope.probe.priority", "priority"),
    ("h2scope.probe.push", "push"),
    ("h2scope.probe.hpack", "hpack"),
];

/// The clean campaign.
#[derive(Debug)]
pub struct Scan {
    population: Population,
    seed: u64,
    pool: ScanPool,
    last: Vec<ScanRecord>,
}

impl Scan {
    /// Builds the population and spawns the pool (the timed set-up).
    pub fn setup(cfg: &Config) -> (Scan, SetupParts) {
        let t = Instant::now();
        let population = population(cfg.size, cfg.seed);
        let population_ms = t.elapsed().as_secs_f64() * 1e3;
        let scan = Scan {
            population,
            seed: cfg.seed,
            pool: ScanPool::new(WORKERS),
            last: Vec::new(),
        };
        (
            scan,
            SetupParts {
                population_ms,
                ..SetupParts::default()
            },
        )
    }
}

impl Workload for Scan {
    fn op(&self) -> &'static str {
        "site"
    }

    fn ops(&self) -> u64 {
        self.population.h2_count()
    }

    fn ops_per_unit(&self) -> u64 {
        1
    }

    fn pool(&self) -> &ScanPool {
        &self.pool
    }

    fn inputs_digest(&self) -> u64 {
        CampaignMeta::describe(&self.population, "none", self.seed).population
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "sites {} (headers-returning {}), experiment {}, scale {}",
            self.population.h2_count(),
            self.population.headers_count(),
            self.population.spec().label,
            self.population.scale()
        )]
    }

    fn pass(&mut self) {
        self.last = self.pool.scan_faulted_with_obs(
            &self.population,
            FaultProfile::none(),
            self.seed,
            &Obs::off(),
        );
    }

    fn outputs(&mut self) -> Outputs {
        let records = std::mem::take(&mut self.last);
        let units = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if r.index == i as u64 {
                    record_hash(r)
                } else {
                    BROKEN
                }
            })
            .collect();
        Outputs { units }
    }

    fn counted_pass(&mut self, obs: &Obs) -> Outputs {
        self.last =
            self.pool
                .scan_faulted_with_obs(&self.population, FaultProfile::none(), self.seed, obs);
        self.outputs()
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Outputs {
        let clock = trace.clock();
        let total = self.population.h2_count();
        let queue = Arc::new(WorkQueue::new(total, self.pool.threads()));
        let slots = Arc::new(Slots::new(total as usize));
        let sink: LogSink = Arc::default();
        let population = Arc::new(self.population.clone());
        {
            let (queue, slots, sink) = (Arc::clone(&queue), Arc::clone(&slots), Arc::clone(&sink));
            self.pool.broadcast(move |worker| {
                let scope = H2Scope::new();
                let mut log = SpanLog::new(clock, worker);
                while let Some(range) = queue.claim() {
                    for i in range {
                        let op = log.open("scan.site", i, NO_PARENT);
                        let site = log.timed("webpop.site", i, op, || population.site(i));
                        let report = traced_survey(&mut log, i, op, &scope, &site.target());
                        log.close(op);
                        let row = CampaignRow {
                            index: i,
                            family: site.family,
                            report,
                        };
                        slots.put(i as usize, row_hash(&row));
                    }
                }
                sink.lock().expect("span sink").push(log);
            });
        }
        drain_logs(&sink, trace);
        let units = Arc::into_inner(slots)
            .expect("broadcast finished")
            .into_vec();
        Outputs { units }
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut Metrics) {
        let by = ctx.trace.by_name();
        let sites = by.get("scan.site").map_or(0, |s| s.count()) as f64;
        if let Some(s) = by.get("webpop.site") {
            out.set("webpop.site_us", s.mean_us());
        }
        for (span, suffix) in PROBES {
            let s = by.get(span).cloned().unwrap_or_default();
            out.set(&format!("h2scope.probe_us.{suffix}"), s.mean_us());
            out.set(
                &format!("h2scope.probe_calls_per_site.{suffix}"),
                stats::ratio(s.count() as f64, sites),
            );
        }
        if let Some(s) = by.get("h2scope.survey") {
            out.set("h2scope.survey_us.p50", s.pct_us(50.0));
            out.set("h2scope.survey_us.p99", s.pct_us(99.0));
        }
        scan_layer_inputs(&self.population, ctx, out);
        layers::attribute(&layers::common_terms(out, 1.0), ctx, out);
    }
}

/// The campaign under the `flaky` fault profile, written to a record.
#[derive(Debug)]
pub struct Flaky {
    population: Population,
    seed: u64,
    pool: ScanPool,
    record: PathBuf,
    traced_record: PathBuf,
    /// Resilience accounting of the last traced pass, by site.
    traced_stats: Vec<ProbeStats>,
}

impl Flaky {
    /// Builds the population and spawns the pool (the timed set-up).
    pub fn setup(cfg: &Config) -> (Flaky, SetupParts) {
        let t = Instant::now();
        let population = population(cfg.size, cfg.seed);
        let population_ms = t.elapsed().as_secs_f64() * 1e3;
        let flaky = Flaky {
            population,
            seed: cfg.seed,
            pool: ScanPool::new(WORKERS),
            record: cfg.work.join("scan-flaky.rec"),
            traced_record: cfg.work.join("scan-flaky-traced.rec"),
            traced_stats: Vec::new(),
        };
        (
            flaky,
            SetupParts {
                population_ms,
                ..SetupParts::default()
            },
        )
    }

    fn profile() -> FaultProfile {
        FaultProfile::flaky()
    }

    fn recorded(&mut self, obs: &Obs) -> bool {
        let outcome = self.pool.scan_recorded(
            &self.population,
            Flaky::profile(),
            self.seed,
            obs,
            &self.record,
            false,
            None,
        );
        matches!(outcome, Ok(RecordedScan::Complete { .. }))
    }
}

impl Workload for Flaky {
    fn op(&self) -> &'static str {
        "site"
    }

    fn ops(&self) -> u64 {
        self.population.h2_count()
    }

    fn ops_per_unit(&self) -> u64 {
        1
    }

    fn pool(&self) -> &ScanPool {
        &self.pool
    }

    fn inputs_digest(&self) -> u64 {
        let meta = CampaignMeta::describe(&self.population, Flaky::profile().name, self.seed);
        Fnv::default()
            .eat_u64(meta.population)
            .eat_u64(self.seed)
            .finish()
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "sites {} (headers-returning {}), experiment {}, scale {}, faults {} seed {}",
            self.population.h2_count(),
            self.population.headers_count(),
            self.population.spec().label,
            self.population.scale(),
            Flaky::profile().name,
            self.seed
        )]
    }

    fn pass(&mut self) {
        // A failed campaign leaves no finalized record, which `outputs`
        // reports as every row missing.
        let _ = self.recorded(&Obs::off());
    }

    /// Reloads the record through the validated loader: it must be
    /// finalized, with one row per site in index order.
    fn outputs(&mut self) -> Outputs {
        let Ok(stored) = load_finalized(&self.record) else {
            return Outputs::default();
        };
        let _ = std::fs::remove_file(&self.record);
        let units = stored
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                if row.index == i as u64 {
                    row_hash(row)
                } else {
                    BROKEN
                }
            })
            .collect();
        Outputs { units }
    }

    fn counted_pass(&mut self, obs: &Obs) -> Outputs {
        let _ = self.recorded(obs);
        self.outputs()
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Outputs {
        let clock = trace.clock();
        let profile = Flaky::profile();
        let meta = CampaignMeta::describe(&self.population, profile.name, self.seed);
        let Ok(writer) = RecordWriter::create(&self.traced_record, &meta) else {
            return Outputs::default();
        };
        let total = self.population.h2_count();
        let queue = Arc::new(WorkQueue::new(total, self.pool.threads()));
        let slots: Arc<Slots<CampaignRow>> = Arc::new(Slots::new(total as usize));
        let sink: LogSink = Arc::default();
        let shared = Arc::new((
            self.population.clone(),
            FaultPlan::new(profile, self.seed),
            writer,
        ));
        let seed = self.seed;
        {
            let (queue, slots, sink) = (Arc::clone(&queue), Arc::clone(&slots), Arc::clone(&sink));
            self.pool.broadcast(move |worker| {
                let (population, plan, writer) = &*shared;
                let scope = H2Scope::new();
                let mut log = SpanLog::new(clock, worker);
                while let Some(range) = queue.claim() {
                    for i in range {
                        let op = log.open("scan.site", i, NO_PARENT);
                        let site = log.timed("webpop.site", i, op, || population.site(i));
                        let survey = log.open("h2scope.survey_with_retries", i, op);
                        let mut attempt_span: Option<u32> = None;
                        let report = survey_with_retries(
                            &scope,
                            plan.profile().retry,
                            splitmix64(seed ^ site.index),
                            |attempt| {
                                if let Some(id) = attempt_span.take() {
                                    log.close(id);
                                }
                                let injection = log.timed("h2fault.injection", i, survey, || {
                                    plan.injection(site.index, attempt)
                                });
                                let mut target = site.target();
                                target.link = injection.impairment.apply(target.link);
                                target.pipe_faults = injection.impairment.pipe_faults();
                                target.patience = Some(plan.profile().deadline);
                                target.seed ^= injection.seed_salt;
                                if !injection.byzantine.is_noop() {
                                    Arc::make_mut(&mut target.profile).behavior.byzantine =
                                        Some(injection.byzantine);
                                }
                                attempt_span = Some(log.open("h2scope.attempt", i, survey));
                                target
                            },
                        );
                        if let Some(id) = attempt_span {
                            log.close(id);
                        }
                        log.close(survey);
                        let row = CampaignRow {
                            index: i,
                            family: site.family,
                            report,
                        };
                        log.timed("h2campaign.append", i, op, || writer.append(&row))
                            .expect("campaign record append");
                        log.close(op);
                        slots.put(i as usize, row);
                    }
                }
                sink.lock().expect("span sink").push(log);
            });
        }
        drain_logs(&sink, trace);
        let rows = Arc::into_inner(slots)
            .expect("broadcast finished")
            .into_vec();
        let mut log = SpanLog::new(clock, WORKERS);
        let finalized = log.timed("h2campaign.finalize", total, NO_PARENT, || {
            h2campaign::finalize(&self.traced_record, &meta, &rows)
        });
        trace.absorb(log);
        let _ = std::fs::remove_file(&self.traced_record);
        if finalized.is_err() {
            return Outputs::default();
        }
        self.traced_stats = rows.iter().map(|r| r.report.probe).collect();
        Outputs {
            units: rows.iter().map(row_hash).collect(),
        }
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut Metrics) {
        let by = ctx.trace.by_name();
        let mean_us = |name: &str| by.get(name).map_or(0.0, |s| s.mean_us());
        out.set("webpop.site_us", mean_us("webpop.site"));
        out.set("h2scope.attempt_us", mean_us("h2scope.attempt"));
        out.set("h2fault.injection_us", mean_us("h2fault.injection"));
        out.set("h2campaign.append_us", mean_us("h2campaign.append"));
        out.set(
            "h2campaign.finalize_ms",
            mean_us("h2campaign.finalize") / 1e3,
        );
        let sites = self.traced_stats.len() as f64;
        let attempts: f64 = self
            .traced_stats
            .iter()
            .map(|s| f64::from(s.attempts))
            .sum();
        let count =
            |o: ProbeOutcome| self.traced_stats.iter().filter(|s| s.outcome == o).count() as f64;
        out.set("h2scope.attempts_per_site", stats::ratio(attempts, sites));
        out.set(
            "h2scope.useful_attempt_ratio",
            stats::ratio(count(ProbeOutcome::Ok), attempts),
        );
        out.set(
            "h2scope.gave_up_share",
            stats::ratio(count(ProbeOutcome::GaveUpAfterRetries), sites),
        );
        scan_layer_inputs(&self.population, ctx, out);
        let mut terms = layers::common_terms(out, 1.0);
        terms.push((
            "h2fault.injection",
            out.get("h2fault.injection_us") * out.get("h2scope.attempts_per_site"),
        ));
        terms.push(("h2campaign.append", out.get("h2campaign.append_us")));
        terms.push((
            "h2campaign.finalize",
            out.get("h2campaign.finalize_ms") * 1e3 / ctx.ops.max(1) as f64,
        ));
        layers::attribute(&terms, ctx, out);
    }
}
