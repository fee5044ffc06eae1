//! The workload interface and the closed-loop runner every workload
//! shares: repeated set-up, a traced reference pass, warm-up, then timed
//! passes through the program's own entry points until the run's time is
//! up, each checked unit by unit against the reference.

use std::path::PathBuf;
use std::time::Instant;

use h2obs::{CampaignSnapshot, Obs};
use h2ready_bench::cputime::thread_cpu_ns;
use h2ready_bench::sched::ScanPool;

use crate::metrics::Metrics;
use crate::spans::Trace;
use crate::stats;

/// Worker threads of the scan and push-study pools: one per CPU of a
/// two-CPU host. Their work queues rebalance when one CPU is slowed.
pub const WORKERS: usize = 2;

/// Unit hash that marks an output the pass itself found missing or wrong.
pub const BROKEN: u64 = 0;

/// Input sizes: `full` is what the benchmark measures, `tiny` is for the
/// smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Seconds-long configuration for smoke tests.
    Tiny,
}

/// Everything a workload's constructor needs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input size.
    pub size: Size,
    /// Workload seed: perturbs the population, fault plan or query trace.
    pub seed: u64,
    /// Scratch directory inside the checkout, removed at the end.
    pub work: PathBuf,
}

/// Per-unit output hashes in canonical order (sites, cells or queries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outputs {
    /// One hash per unit; [`BROKEN`] where the pass's own check failed.
    pub units: Vec<u64>,
}

impl Outputs {
    /// Units that are missing, broken, or disagree with `reference`.
    pub fn failed_units(&self, reference: &Outputs) -> u64 {
        let len = self.units.len().max(reference.units.len());
        (0..len)
            .filter(|&i| {
                let got = self.units.get(i);
                got.is_none() || got == Some(&BROKEN) || got != reference.units.get(i)
            })
            .count() as u64
    }

    /// Digest of the whole output.
    pub fn digest(&self) -> u64 {
        stats::digest(&self.units)
    }
}

/// Set-up time split by layer, in milliseconds (0 where not part of
/// this workload's set-up).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    /// `Population::new`.
    pub population_ms: f64,
    /// `h2campaign::load_finalized` over every record.
    pub load_ms: f64,
    /// `ServeIndex::from_records`.
    pub index_ms: f64,
}

/// One workload, set up and ready.
pub trait Workload {
    /// What one operation is: `site`, `load` or `lookup`.
    fn op(&self) -> &'static str;
    /// Operations in one pass.
    fn ops(&self) -> u64;
    /// Operations per output unit.
    fn ops_per_unit(&self) -> u64;
    /// The persistent worker pool.
    fn pool(&self) -> &ScanPool;
    /// Digest of the generated inputs (changes with the seed).
    fn inputs_digest(&self) -> u64;
    /// Human-readable facts about the inputs.
    fn describe(&self) -> Vec<String>;
    /// One untraced pass through the program's entry point. Only this
    /// call is timed; its output is kept for [`Workload::outputs`].
    fn pass(&mut self);
    /// Checks and hashes the last [`Workload::pass`]'s output.
    fn outputs(&mut self) -> Outputs;
    /// The entry point again with an enabled observability handle, for
    /// the h2obs operation counts.
    fn counted_pass(&mut self, obs: &Obs) -> Outputs;
    /// The traced decomposition: the same work through the layers'
    /// public functions, each call recorded as a span.
    fn traced_pass(&mut self, trace: &mut Trace) -> Outputs;
    /// Workload-specific per-layer metrics: span aggregates, layer
    /// micro-timings at this workload's sizes, and the attribution terms.
    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut Metrics);
}

/// What the runner hands to [`Workload::layer_metrics`].
#[derive(Debug)]
pub struct LayerCtx<'a> {
    /// Every span of the traced passes.
    pub trace: &'a Trace,
    /// h2obs snapshot of one counted pass.
    pub snapshot: &'a CampaignSnapshot,
    /// Operations in one pass.
    pub ops: u64,
    /// Untraced CPU per op (µs), the attribution denominator.
    pub cpu_us_per_op: f64,
}

/// One timed pass's measurements.
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Worker plus main thread CPU, nanoseconds.
    pub cpu_ns: u64,
    /// Slowest worker's CPU, nanoseconds.
    pub critical_ns: u64,
    /// Slowest worker's CPU over the mean worker's.
    pub imbalance: f64,
}

/// Times `run` on the main thread and reads the pool's per-worker CPU.
pub fn timed<W: Workload + ?Sized>(w: &mut W, run: impl FnOnce(&mut W)) -> PassTiming {
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    run(w);
    let wall_s = t0.elapsed().as_secs_f64();
    let main_ns = thread_cpu_ns().saturating_sub(cpu0);
    let workers = w.pool().worker_cpu_ns();
    let sum: u64 = workers.iter().sum();
    let critical_ns = w.pool().critical_path_ns();
    let mean = sum as f64 / workers.len().max(1) as f64;
    PassTiming {
        wall_s,
        cpu_ns: sum + main_ns,
        critical_ns,
        imbalance: stats::ratio(critical_ns as f64, mean),
    }
}
