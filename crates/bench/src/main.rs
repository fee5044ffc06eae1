//! `repro` — regenerates every table and figure of "Are HTTP/2 Servers
//! Ready Yet?" (ICDCS 2017) against the simulated testbed and population.
//!
//! ```text
//! repro [COMMAND] [--scale S] [--exp 1|2|both] [--threads N] [--loads L]
//!                 [--faults PROFILE] [--seed N]
//!
//! COMMANDS
//!   table3       Table III  testbed characterization matrix
//!   concurrency  §V-A       MAX_CONCURRENT_STREAMS enforcement
//!   ablation     §III-C     naive ordering check vs Algorithm 1
//!   trend        future wk  simulated monthly adoption series
//!   adoption     §V-B1      NPN/ALPN/HEADERS adoption counts
//!   table4       Table IV   server families
//!   table5       Table V    SETTINGS_INITIAL_WINDOW_SIZE
//!   table6       Table VI   SETTINGS_MAX_FRAME_SIZE
//!   table7       Table VII  SETTINGS_MAX_HEADER_LIST_SIZE
//!   fig2         Figure 2   MAX_CONCURRENT_STREAMS CDF
//!   flowcontrol  §V-D       flow-control aggregates
//!   priority     §V-E       priority aggregates
//!   push         §V-F       push adoption
//!   fig3         Figure 3   page-load time with/without push
//!   fig4         Figure 4/5 HPACK ratio CDFs per family
//!   fig6         Figure 6   RTT by four estimators
//!   all          everything above (default)
//!   diff A B     longitudinal diff of two finalized campaign records
//!                (regenerates the Jul. 2016 → Jan. 2017 comparison from
//!                disk alone — no rescan)
//!   serve R...   load finalized campaign records into a sharded
//!                in-memory index and answer a seeded query trace over
//!                real HTTP/2 connections (site lookups, table
//!                regeneration, longitudinal diffs); prints the response
//!                digest, cache and latency summary
//!   abuse        §VI        mixed benign+attack campaign: robustness
//!                matrix, per-vector defense counts, detector confusion
//!                matrix; writes ABUSE_campaign.json (schema h2attack-v1)
//!   push-study   §V-F++     population-scale push QoE sweep: RTT band ×
//!                bandwidth × push policy over dependency-graph page
//!                loads; per-policy load-time distributions and the
//!                help-vs-hurt breakdown; writes PUSH_campaign.json
//!                (schema h2push-study-v1)
//!
//! SERVE DAEMON
//!   --queries N        queries in the seeded trace (default 4096)
//!   --no-cache         disable the per-shard LRU render cache (the
//!                      response digest is identical either way)
//!   --hostile          interleave h2attack slow-read / rapid-reset
//!                      clients with the query trace
//!
//! RECORD EXIT CODES (diff and serve)
//!   2  unreadable record (I/O error, garbled line, meta mismatch)
//!   4  unfinalized record (no end| trailer; finish with --resume)
//!   5  torn tail (crashed mid-append; resumable)
//!   6  checksum mismatch (rows corrupted after finalization)
//!
//! ABUSE CAMPAIGNS
//!   --vectors A,B,...  restrict the attack rotation (names: rapid-reset,
//!                      continuation-flood, slow-read, slow-post,
//!                      settings-flood, table-thrash, priority-churn;
//!                      default all)
//!   --mix B:A          benign:attack traffic shares (default 3:1)
//!
//! PUSH STUDY
//!   --sites N          cap on stride-sampled sites (default 48)
//!   --loads L          page loads per (site, link, policy) cell
//!                      (default 10, shared with fig3)
//!
//! FAULT CAMPAIGNS
//!   --faults PROFILE   scan under impairments: none, lossy, jittery,
//!                      flaky, byzantine, chaos (default none)
//!   --seed N           campaign seed; same seed replays the exact same
//!                      faults at any thread count (default 0)
//!
//! CAMPAIGN RECORDS
//!   --record PATH      persist every scanned site to an append-only
//!                      campaign record as it finishes; a completed
//!                      campaign finalizes the record (canonical order +
//!                      checksum trailer). With --exp both the experiment
//!                      name is inserted before the extension.
//!   --resume PATH      validate a partial record against this campaign,
//!                      preload its rows and scan only the missing sites;
//!                      the finalized record is byte-identical to an
//!                      uninterrupted run at any thread count
//!   --kill-after N     (testing) simulate a crash: stop appending after
//!                      N durable rows and exit with status 3, leaving
//!                      the partial record behind for --resume
//!
//! OBSERVABILITY
//!   --metrics          record campaign metrics (frame counters, wire
//!                      bytes, latency histograms); prints a table after
//!                      the experiments and writes OBS_campaign.json.
//!                      Everything above the metrics table stays
//!                      byte-identical to a --metrics-less run.
//!   --trace-sites N    additionally keep frame-level event traces for
//!                      the first N sites of each experiment (default 0)
//!   --out-dir DIR      route OBS_campaign.json and relative --record /
//!                      --resume / diff paths into DIR (created if absent)
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use h2fault::{FaultProfile, KillPoint};
use h2obs::Obs;
use h2ready_bench::scan::RecordedScan;
use h2ready_bench::sched::ScanPool;
use h2ready_bench::{abuse, figures, push_study, scan, serve, tables, wild};
use webpop::{ExperimentSpec, Population};

struct Options {
    command: String,
    command_args: Vec<String>,
    scale: f64,
    experiments: Vec<ExperimentSpec>,
    threads: usize,
    loads: usize,
    faults: FaultProfile,
    seed: u64,
    metrics: bool,
    trace_sites: u64,
    queries: u64,
    no_cache: bool,
    hostile: bool,
    vectors: Vec<h2attack::AttackVector>,
    mix: (u64, u64),
    sites: usize,
    record: Option<PathBuf>,
    resume: Option<PathBuf>,
    kill_after: Option<u64>,
    out_dir: Option<PathBuf>,
}

/// Parses a numeric flag's value, or exits 2 with `usage` when the value
/// is missing, malformed or rejected by `valid`.
fn numeric<T: std::str::FromStr>(
    value: Option<String>,
    valid: impl Fn(&T) -> bool,
    usage: &str,
) -> T {
    value
        .and_then(|v| v.parse().ok())
        .filter(valid)
        .unwrap_or_else(|| {
            eprintln!("{usage}");
            std::process::exit(2);
        })
}

fn parse_args() -> Options {
    let mut positionals: Vec<String> = Vec::new();
    let mut scale = 0.02;
    let mut experiments = vec![ExperimentSpec::first(), ExperimentSpec::second()];
    let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut loads = 10;
    let mut faults = FaultProfile::none();
    let mut seed = 0u64;
    let mut metrics = false;
    let mut trace_sites = 0u64;
    let mut queries = 4096u64;
    let mut no_cache = false;
    let mut hostile = false;
    let mut vectors = h2attack::AttackVector::ALL.to_vec();
    let mut mix = (3u64, 1u64);
    let mut sites = 48usize;
    let mut record: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut kill_after: Option<u64> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = numeric(
                    args.next(),
                    |s: &f64| *s > 0.0 && *s <= 1.0,
                    "--scale needs a number in (0, 1]",
                );
            }
            "--exp" => match args.next().as_deref() {
                Some("1") => experiments = vec![ExperimentSpec::first()],
                Some("2") => experiments = vec![ExperimentSpec::second()],
                Some("both") | None => {}
                Some(other) => {
                    eprintln!("unknown experiment {other}; use 1, 2 or both");
                    std::process::exit(2);
                }
            },
            "--threads" => {
                threads = numeric(
                    args.next(),
                    |&n: &usize| n > 0,
                    "--threads needs a positive integer",
                );
            }
            "--loads" => {
                loads = numeric(
                    args.next(),
                    |_: &usize| true,
                    "--loads needs an unsigned integer",
                );
            }
            "--faults" => {
                let name = args.next().unwrap_or_default();
                faults = FaultProfile::parse(&name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown fault profile {name:?}; known profiles: {}",
                        FaultProfile::names().join(", ")
                    );
                    std::process::exit(2);
                });
            }
            "--seed" => {
                seed = numeric(
                    args.next(),
                    |_: &u64| true,
                    "--seed needs an unsigned integer",
                );
            }
            "--metrics" => metrics = true,
            "--trace-sites" => {
                trace_sites = numeric(
                    args.next(),
                    |_: &u64| true,
                    "--trace-sites needs an unsigned integer",
                );
                metrics = true;
            }
            "--queries" => {
                queries = numeric(
                    args.next(),
                    |_: &u64| true,
                    "--queries needs an unsigned integer",
                );
            }
            "--no-cache" => no_cache = true,
            "--hostile" => hostile = true,
            "--vectors" => {
                let list = args.next().unwrap_or_default();
                vectors = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|name| {
                        h2attack::AttackVector::parse(name.trim()).unwrap_or_else(|| {
                            eprintln!(
                                "unknown attack vector {name:?}; known vectors: {}",
                                h2attack::AttackVector::ALL
                                    .iter()
                                    .map(|v| v.name())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            );
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if vectors.is_empty() {
                    eprintln!("--vectors needs at least one vector name");
                    std::process::exit(2);
                }
            }
            "--mix" => {
                let spec = args.next().unwrap_or_default();
                let parsed = spec
                    .split_once(':')
                    .and_then(|(b, a)| Some((b.trim().parse().ok()?, a.trim().parse().ok()?)));
                mix = match parsed {
                    Some((b, a)) if b + a > 0 => (b, a),
                    _ => {
                        eprintln!("--mix needs BENIGN:ATTACK shares, e.g. 3:1");
                        std::process::exit(2);
                    }
                };
            }
            "--sites" => {
                sites = numeric(
                    args.next(),
                    |&n: &usize| n > 0,
                    "--sites needs a positive site count",
                );
            }
            "--record" => {
                record = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--record needs a file path");
                    std::process::exit(2);
                })));
            }
            "--resume" => {
                resume = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--resume needs a file path");
                    std::process::exit(2);
                })));
            }
            "--kill-after" => {
                kill_after = Some(numeric(
                    args.next(),
                    |_: &u64| true,
                    "--kill-after needs an unsigned row count",
                ));
            }
            "--out-dir" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out-dir needs a directory path");
                    std::process::exit(2);
                })));
            }
            "--help" | "-h" => {
                println!("see crate docs: repro [COMMAND] [--scale S] [--exp 1|2|both] [--threads N] [--loads L] [--faults PROFILE] [--seed N] [--metrics] [--trace-sites N] [--record PATH | --resume PATH] [--kill-after N] [--out-dir DIR] | repro diff A B | repro serve R... [--queries N] [--no-cache] [--hostile] | repro abuse [--vectors A,B] [--mix B:A]");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => positionals.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if record.is_some() && resume.is_some() {
        eprintln!("--record and --resume are mutually exclusive; --resume already appends to (and finalizes) its record");
        std::process::exit(2);
    }
    if kill_after.is_some() && record.is_none() && resume.is_none() {
        eprintln!("--kill-after only makes sense with --record or --resume (it crashes a persisted campaign)");
        std::process::exit(2);
    }
    let mut positionals = positionals.into_iter();
    Options {
        command: positionals.next().unwrap_or_else(|| "all".to_string()),
        command_args: positionals.collect(),
        scale,
        experiments,
        threads,
        loads,
        faults,
        seed,
        metrics,
        trace_sites,
        queries,
        no_cache,
        hostile,
        vectors,
        mix,
        sites,
        record,
        resume,
        kill_after,
        out_dir,
    }
}

/// Routes a relative path through `--out-dir` (absolute paths and runs
/// without `--out-dir` are untouched).
fn resolve(out_dir: Option<&Path>, path: &Path) -> PathBuf {
    match out_dir {
        Some(dir) if path.is_relative() => dir.join(path),
        _ => path.to_path_buf(),
    }
}

/// The record path for one experiment: with a single experiment the
/// user's path is used as-is; with several, the experiment name is
/// inserted before the extension so each campaign gets its own record.
fn per_experiment_path(base: &Path, spec_name: &str, multi: bool) -> PathBuf {
    if !multi {
        return base.to_path_buf();
    }
    match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => base.with_extension(format!("{spec_name}.{ext}")),
        None => base.with_extension(spec_name),
    }
}

/// `repro diff A B`: regenerate the longitudinal comparison from two
/// finalized campaign records, no rescan.
fn run_diff(options: &Options) -> ! {
    let [a, b] = match options.command_args.as_slice() {
        [a, b] => [a, b],
        other => {
            eprintln!("diff needs exactly two record paths, got {}", other.len());
            std::process::exit(2);
        }
    };
    let out_dir = options.out_dir.as_deref();
    let mut stored = Vec::new();
    for path in [a, b] {
        let path = resolve(out_dir, Path::new(path));
        // The same validated disk→memory path the serve index uses:
        // distinct exit codes per failure class, one-line diagnosis.
        match h2campaign::load_finalized(&path) {
            Ok(record) => stored.push(record),
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(err.exit_code());
            }
        }
    }
    let diff = h2campaign::diff_records(&stored[0], &stored[1]);
    print!("{}", h2campaign::render_diff(&diff));
    std::process::exit(0);
}

/// `repro serve R...`: load finalized records into the sharded index and
/// replay a seeded query trace over real HTTP/2 connections.
fn run_serve(options: &Options) -> ! {
    if options.command_args.is_empty() {
        eprintln!("serve needs at least one finalized record path");
        std::process::exit(2);
    }
    let out_dir = options.out_dir.as_deref();
    let obs = if options.metrics {
        Obs::campaign(0)
    } else {
        Obs::off()
    };
    let mut cfg = serve::ServeConfig::new(
        options
            .command_args
            .iter()
            .map(|p| resolve(out_dir, Path::new(p)))
            .collect(),
    );
    cfg.workers = options.threads;
    cfg.queries = options.queries;
    cfg.seed = options.seed;
    cfg.cache = !options.no_cache;
    cfg.hostile = options.hostile;
    cfg.obs = obs.clone();
    println!(
        "repro: command=serve records={} workers={} queries={} seed={} cache={} hostile={}\n",
        cfg.records.len(),
        cfg.workers,
        cfg.queries,
        cfg.seed,
        cfg.cache,
        cfg.hostile
    );
    let started = Instant::now();
    let outcome = match serve::run_serve(&cfg) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(err.exit_code());
        }
    };
    let ok = outcome
        .responses
        .iter()
        .filter(|r| r.status == "200")
        .count();
    let (p50, p99) = outcome.latency_percentiles();
    println!(
        "serve: {} queries answered ({ok} ok, {} not-found)",
        outcome.responses.len(),
        outcome.responses.len() - ok
    );
    println!(
        "serve: cache hits {} misses {}; virtual latency p50 {p50}ns p99 {p99}ns",
        outcome.cache_hits, outcome.cache_misses
    );
    println!("serve: response digest {:016x}", outcome.digest);
    if !outcome.hostiles.is_empty() {
        let defended = outcome.hostiles.iter().filter(|h| h.defended).count();
        println!(
            "serve: {} hostile engagements interleaved, {defended} defended",
            outcome.hostiles.len()
        );
    }
    eprintln!(
        "[serve] answered {} queries in {:.1}s",
        outcome.responses.len(),
        started.elapsed().as_secs_f64()
    );
    if let Some(snapshot) = obs.snapshot() {
        println!("{}", h2obs::render_table(&snapshot));
    }
    std::process::exit(0);
}

/// `repro abuse`: the §VI mixed benign+attack campaign — robustness
/// matrix, per-vector defense counts, detector confusion matrix, plus
/// the machine-readable `ABUSE_campaign.json`.
fn run_abuse(options: &Options) -> ! {
    let abuse_options = abuse::AbuseOptions {
        vectors: options.vectors.clone(),
        benign_share: options.mix.0,
        attack_share: options.mix.1,
        seed: options.seed,
        scale: options.scale,
        threads: options.threads,
    };
    println!(
        "repro: command=abuse scale={} threads={} seed={} mix={}:{}\n",
        abuse_options.scale,
        abuse_options.threads,
        abuse_options.seed,
        abuse_options.benign_share,
        abuse_options.attack_share
    );
    let started = Instant::now();
    let campaign = abuse::run_campaign(&abuse_options);
    eprintln!(
        "[abuse] ran {} connections in {:.1}s",
        campaign.outcomes.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", abuse::render_report(&campaign));
    let path = resolve(options.out_dir.as_deref(), Path::new("ABUSE_campaign.json"));
    match std::fs::write(&path, abuse::render_json(&abuse_options, &campaign)) {
        Ok(()) => eprintln!("[abuse] wrote {}", path.display()),
        Err(err) => {
            eprintln!("[abuse] failed to write {}: {err}", path.display());
            std::process::exit(2);
        }
    }
    std::process::exit(0);
}

/// `repro push-study`: the population-scale push QoE sweep — per-policy
/// page-load-time distributions, the help-vs-hurt breakdown, plus the
/// machine-readable `PUSH_campaign.json`.
fn run_push_study(options: &Options) -> ! {
    let study_options = push_study::StudyOptions {
        scale: options.scale,
        seed: options.seed,
        loads: options.loads,
        max_sites: options.sites,
        threads: options.threads,
    };
    println!(
        "repro: command=push-study scale={} threads={} seed={} sites={} loads={}\n",
        study_options.scale,
        study_options.threads,
        study_options.seed,
        study_options.max_sites,
        study_options.loads
    );
    let started = Instant::now();
    let report = push_study::run(&study_options);
    eprintln!(
        "[push-study] ran {} cells in {:.1}s",
        report.cells.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", push_study::render_report(&report));
    let path = resolve(options.out_dir.as_deref(), Path::new("PUSH_campaign.json"));
    match std::fs::write(&path, push_study::render_json(&report)) {
        Ok(()) => eprintln!("[push-study] wrote {}", path.display()),
        Err(err) => {
            eprintln!("[push-study] failed to write {}: {err}", path.display());
            std::process::exit(2);
        }
    }
    std::process::exit(0);
}

fn needs_scan(command: &str) -> bool {
    matches!(
        command,
        "all"
            | "adoption"
            | "table4"
            | "table5"
            | "table6"
            | "table7"
            | "fig2"
            | "flowcontrol"
            | "priority"
            | "push"
            | "fig4"
            | "fig5"
    )
}

fn main() {
    let options = parse_args();
    let command = options.command.as_str();
    if let Some(dir) = &options.out_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out-dir {}: {err}", dir.display());
            std::process::exit(2);
        }
    }
    if command == "diff" {
        run_diff(&options);
    }
    if command == "serve" {
        run_serve(&options);
    }
    if command == "abuse" {
        run_abuse(&options);
    }
    if command == "push-study" {
        run_push_study(&options);
    }
    println!(
        "repro: command={command} scale={} threads={}\n",
        options.scale, options.threads
    );

    if matches!(command, "table3" | "all") {
        println!("{}", tables::table3());
    }
    if matches!(command, "concurrency" | "all") {
        println!("{}", tables::concurrency_experiment());
    }
    if matches!(command, "ablation" | "all") {
        println!("{}", tables::priority_ablation());
    }
    if command == "trend" {
        println!("{}", wild::trend(options.scale, options.threads));
    }

    let obs = if options.metrics {
        Obs::campaign(options.trace_sites)
    } else {
        Obs::off()
    };

    let record_base = options.record.as_deref().or(options.resume.as_deref());
    for spec in &options.experiments {
        let population = Population::new(spec.clone(), options.scale);
        let records = if needs_scan(command) || record_base.is_some() {
            let started = Instant::now();
            let mut pool = ScanPool::new(options.threads);
            let records = if let Some(base) = record_base {
                let path = resolve(
                    options.out_dir.as_deref(),
                    &per_experiment_path(base, spec.name, options.experiments.len() > 1),
                );
                let outcome = pool.scan_recorded(
                    &population,
                    options.faults,
                    options.seed,
                    &obs,
                    &path,
                    options.resume.is_some(),
                    options.kill_after.map(KillPoint::after),
                );
                match outcome {
                    Ok(RecordedScan::Complete { records, resumed }) => {
                        if resumed > 0 {
                            eprintln!(
                                "[{}] resumed {resumed} sites from {}",
                                spec.name,
                                path.display()
                            );
                        }
                        eprintln!("[{}] finalized record {}", spec.name, path.display());
                        records
                    }
                    Ok(RecordedScan::Killed { rows }) => {
                        eprintln!(
                            "[{}] simulated crash: {rows} durable rows left in partial record {}",
                            spec.name,
                            path.display()
                        );
                        std::process::exit(3);
                    }
                    Err(err) => {
                        eprintln!("[{}] campaign record error: {err}", spec.name);
                        std::process::exit(2);
                    }
                }
            } else {
                pool.scan_faulted_with_obs(&population, options.faults, options.seed, &obs)
            };
            eprintln!(
                "[{}] scanned {} h2 sites in {:.1}s",
                spec.name,
                records.len(),
                started.elapsed().as_secs_f64()
            );
            if !options.faults.is_none() {
                println!(
                    "[{} faults={} seed={}]\n{}",
                    spec.name,
                    options.faults.name,
                    options.seed,
                    scan::fault_summary(&records)
                );
            }
            records
        } else {
            Vec::new()
        };

        if matches!(command, "adoption" | "all") {
            println!("{}", wild::adoption(&records, &population));
        }
        if matches!(command, "table4" | "all") {
            println!("{}", wild::table4(&records, &population));
        }
        if matches!(command, "table5" | "all") {
            println!("{}", wild::table5(&records, &population));
        }
        if matches!(command, "table6" | "all") {
            println!("{}", wild::table6(&records, &population));
        }
        if matches!(command, "table7" | "all") {
            println!("{}", wild::table7(&records, &population));
        }
        if matches!(command, "fig2" | "all") {
            println!("{}", wild::fig2(&records, &population));
        }
        if matches!(command, "flowcontrol" | "all") {
            println!("{}", wild::flow_control(&records, &population));
        }
        if matches!(command, "priority" | "all") {
            println!("{}", wild::priority(&records, &population));
        }
        if matches!(command, "push" | "all") {
            println!("{}", wild::push_adoption(&records, &population));
        }
        if matches!(command, "fig4" | "fig5" | "all") {
            println!("{}", wild::hpack_figure(&records, &population));
        }
        if matches!(command, "fig3" | "all") {
            println!("{}", figures::fig3(&population, options.loads));
        }
        if matches!(command, "fig6" | "all") {
            println!("{}", figures::fig6(&population, 60, 10));
        }
    }

    // The metrics table is the last stdout section, below the marker, so
    // consumers can strip it and diff the experiment output byte-for-byte
    // against a --metrics-less run.
    if let Some(snapshot) = obs.snapshot() {
        println!("{}", h2obs::render_table(&snapshot));
        let path = resolve(options.out_dir.as_deref(), Path::new("OBS_campaign.json"));
        match std::fs::write(&path, h2obs::render_json(&snapshot)) {
            Ok(()) => eprintln!("[obs] wrote {}", path.display()),
            Err(err) => eprintln!("[obs] failed to write {}: {err}", path.display()),
        }
    }
}
