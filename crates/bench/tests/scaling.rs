//! Scaling gate for the persistent worker pool: at 8 workers the
//! critical path of a scan or a serve replay must be at least 1.5×
//! shorter than at 1 worker.
//!
//! The clock is [`ScanPool::critical_path_ns`], the maximum per-worker
//! thread CPU time of one job. That is the wall time the job would take
//! with enough free cores, so the gate holds on a 1- or 2-core host where
//! wall clock cannot show parallel speedup. It still fails when the work
//! stops partitioning: serialization, load imbalance or spin contention.
//!
//! Response-byte equality across worker counts is not checked here;
//! `serve_determinism.rs` owns that contract.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use h2campaign::{finalize, CampaignMeta, CampaignRow, RecordWriter};
use h2fault::FaultProfile;
use h2obs::Obs;
use h2ready_bench::sched::ScanPool;
use h2ready_bench::serve::{run_on_pool, ServeConfig};
use h2serve::{generate_trace, Query, ServeIndex};
use webpop::{ExperimentSpec, Population};

/// The gated ratio of 8-worker over 1-worker critical-path throughput.
const MIN_SPEEDUP: f64 = 1.5;

/// Timed runs per worker count; the median is compared.
const SAMPLES: usize = 3;

/// Fault-plan seed of the flaky scan.
const FAULT_SEED: u64 = 0xbe_ac47;

/// Query-trace seed of the serve replay.
const TRACE_SEED: u64 = 0x5e12e;

/// Queries per serve replay.
const QUERIES: u64 = 1000;

/// Median critical path of `run` on a fresh `workers`-thread pool, after
/// one untimed warm-up run that pays the first-touch costs.
fn critical_path_ns(workers: usize, mut run: impl FnMut(&mut ScanPool)) -> u64 {
    let mut pool = ScanPool::new(workers);
    run(&mut pool);
    let mut samples: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            run(&mut pool);
            pool.critical_path_ns()
        })
        .collect();
    samples.sort_unstable();
    samples[SAMPLES / 2]
}

/// Asserts that 8 workers cut `run`'s critical path by [`MIN_SPEEDUP`].
fn assert_scales(name: &str, mut run: impl FnMut(&mut ScanPool)) {
    let one = critical_path_ns(1, &mut run);
    let eight = critical_path_ns(8, &mut run);
    assert!(eight > 0, "{name}: 8-worker critical path measured as zero");
    let speedup = one as f64 / eight as f64;
    assert!(
        speedup >= MIN_SPEEDUP,
        "{name}: 8-worker critical path {eight} ns is only {speedup:.2}x the \
         1-worker {one} ns; the gate is {MIN_SPEEDUP}x"
    );
}

/// The 105-site Jul-2016 population.
fn population() -> Population {
    Population::new(ExperimentSpec::first(), 0.002)
}

#[test]
fn plain_scan_scales_to_eight_workers() {
    let population = population();
    assert_scales("scan plain", |pool| {
        let records = pool.scan(&population);
        assert_eq!(records.len() as u64, population.h2_count());
    });
}

#[test]
fn flaky_scan_scales_to_eight_workers() {
    let population = population();
    assert_scales("scan flaky", |pool| {
        let records =
            pool.scan_faulted_with_obs(&population, FaultProfile::flaky(), FAULT_SEED, &Obs::off());
        assert_eq!(records.len() as u64, population.h2_count());
    });
}

/// Writes one finalized record of `take` surveyed sites starting at h2
/// site `skip`.
fn write_record(path: &Path, label: &str, skip: u64, take: u64) {
    let population = Population::new(ExperimentSpec::first(), 0.0005);
    let scope = h2scope::H2Scope::new();
    let end = (skip + take).min(population.h2_count());
    let rows: Vec<CampaignRow> = (skip.min(end)..end)
        .map(|i| {
            let site = population.site(i);
            CampaignRow {
                index: i,
                family: site.family,
                report: scope.survey(&site.target()),
            }
        })
        .collect();
    let mut meta = CampaignMeta::describe(&population, "none", 0);
    meta.label = label.to_string();
    meta.sites = rows.len() as u64;
    RecordWriter::create(path, &meta).expect("create record");
    finalize(path, &meta, &rows).expect("finalize record");
}

/// Two overlapping finalized records, their index and one query trace,
/// built once per test process.
fn serve_fixture() -> &'static (Vec<PathBuf>, Arc<ServeIndex>, Vec<Query>) {
    static FIXTURE: OnceLock<(Vec<PathBuf>, Arc<ServeIndex>, Vec<Query>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("h2serve-scaling-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("fixture dir");
        let records = vec![dir.join("jul-2016.h2c"), dir.join("jan-2017.h2c")];
        write_record(&records[0], "jul-2016", 0, 6);
        write_record(&records[1], "jan-2017", 2, 6);
        let index = Arc::new(ServeIndex::load(&records).expect("fixture records load"));
        let trace = generate_trace(&index, TRACE_SEED, QUERIES);
        (records, index, trace)
    })
}

fn assert_serve_scales(name: &str, cache: bool) {
    let (records, index, trace) = serve_fixture();
    let mut cfg = ServeConfig::new(records.clone());
    cfg.cache = cache;
    assert_scales(name, |pool| {
        let outcome = run_on_pool(&cfg, Arc::clone(index), trace.clone(), pool);
        assert_eq!(outcome.responses.len(), trace.len());
    });
}

#[test]
fn cached_serve_scales_to_eight_workers() {
    assert_serve_scales("serve cached", true);
}

#[test]
fn uncached_serve_scales_to_eight_workers() {
    assert_serve_scales("serve uncached", false);
}
