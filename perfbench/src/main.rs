//! `perfbench` — the wall-clock benchmark of the reproduction.
//!
//! ```text
//! perfbench --workload scan|scan-flaky|push-study|serve|all --seed N
//!           --seconds S --trace 0|1 [--size full|tiny] [--corrupt-reference]
//! perfbench --list-metrics
//! ```
//!
//! Each workload runs closed-loop on a persistent `ScanPool` (two workers,
//! one for `serve`) through the entry points a `repro` user runs,
//! entirely in-process (netsim simulation, no sockets). A run sets up
//! several times (the median is `setup_s`), computes a traced reference
//! pass (which also warms the pool), then repeats timed passes for
//! `--seconds`, checking every pass's output unit by unit against the
//! reference. `--trace 1` adds traced passes and layer micro-timings and
//! prints the per-layer metrics instead of the end-to-end ones. The last
//! line of standard output is the JSON result.

mod host;
mod layers;
mod metrics;
mod push;
mod scan;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use h2obs::Obs;

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::spans::{Clock, Trace};
use crate::workload::{
    timed, Config, LayerCtx, Outputs, PassTiming, SetupParts, Size, Workload, WORKERS,
};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["scan", "scan-flaky", "push-study", "serve"];

/// Timed passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-ups a run times at least, and the time after which it stops. A
/// set-up of tens of microseconds (a thread spawn) repeated for a whole
/// second gives a median that moves far less from run to run than one
/// taken over its first hundred repetitions.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(1000);
/// Timed traced passes whose spans are kept (besides the reference).
const KEPT_TRACED_PASSES: usize = 2;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    corrupt_reference: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt-reference]\n       perfbench --list-metrics",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--size" => {
                args.size = match value().as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage(),
                }
            }
            "--corrupt-reference" => args.corrupt_reference = true,
            "--list-metrics" => {
                list_metrics();
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

fn list_metrics() {
    for d in END_TO_END {
        println!("end_to_end {:<44} {:<8}", d.name, d.unit);
    }
    for d in PER_LAYER {
        println!(
            "per_layer  {:<44} {:<8} should move {}",
            d.name, d.unit, d.moves
        );
    }
}

/// Where runs keep scratch files and span dumps: the build directory
/// (`CARGO_TARGET_DIR`, else the package's `target`).
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.workload == "all" {
        return run_all(&args);
    }
    let work = target_dir().join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks one pass's output against the reference and adds its attempted
/// and failed operations to `tally`.
fn check(w: &dyn Workload, got: &Outputs, reference: &Outputs, tally: &mut (u64, u64)) {
    let failed = (got.failed_units(reference) * w.ops_per_unit()).min(w.ops());
    tally.0 += w.ops();
    tally.1 += failed;
}

fn setup(
    args: &Args,
    cfg: &Config,
    records: &[PathBuf],
) -> Result<(Box<dyn Workload>, SetupParts), String> {
    Ok(match args.workload.as_str() {
        "scan" => {
            let (w, p) = scan::Scan::setup(cfg);
            (Box::new(w), p)
        }
        "scan-flaky" => {
            let (w, p) = scan::Flaky::setup(cfg);
            (Box::new(w), p)
        }
        "push-study" => {
            let (w, p) = push::Push::setup(cfg);
            (Box::new(w), p)
        }
        _ => {
            let (w, p) = serve::Serve::setup(cfg, records)?;
            (Box::new(w), p)
        }
    })
}

/// Runs one workload; `Ok(correct)` once the result line is printed.
fn run(args: &Args, work: &Path) -> Result<bool, String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} size={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size
    );
    let workers = if args.workload == "serve" {
        serve::SERVE_WORKERS
    } else {
        WORKERS
    };
    for (k, v) in host::fingerprint(workers) {
        println!("host {k} {v}");
    }
    let cfg = Config {
        size: args.size,
        seed: args.seed,
        work: work.to_path_buf(),
    };
    let records = if args.workload == "serve" {
        serve::write_records(args.size, work)?
    } else {
        Vec::new()
    };

    // Set-up, repeated; the last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut parts = Vec::new();
    let setup_start = Instant::now();
    let mut w = loop {
        let t = Instant::now();
        let (w, p) = setup(args, &cfg, &records)?;
        setup_s.push(t.elapsed().as_secs_f64());
        parts.push(p);
        if setup_s.len() >= MIN_SETUPS && setup_start.elapsed() >= SETUP_BUDGET {
            break w;
        }
        drop(w);
    };
    let w: &mut dyn Workload = w.as_mut();
    for line in w.describe() {
        println!("input {line}");
    }
    println!("digest inputs {:016x}", w.inputs_digest());

    // Reference: the traced decomposition, which also warms the pool's
    // workers (their buffer pools and body caches) before any timing.
    let epoch = Instant::now();
    let mut trace = Trace::new(Clock::new(epoch, args.trace));
    let mut reference = w.traced_pass(&mut trace);
    println!("digest reference {:016x}", reference.digest());
    if args.corrupt_reference {
        match reference.units.first_mut() {
            Some(u) => *u ^= 1,
            None => reference.units.push(1),
        }
    }
    let ops = w.ops();
    let mut tally = (0u64, 0u64);

    let snapshot = if args.trace {
        let obs = Obs::campaign(0);
        let counted = w.counted_pass(&obs);
        check(w, &counted, &reference, &mut tally);
        obs.snapshot()
    } else {
        None
    };

    let mut untraced: Vec<PassTiming> = Vec::new();
    let mut traced: Vec<PassTiming> = Vec::new();
    let mut last_digest = 0;
    let start = Instant::now();
    // A pass starts only if it is expected to end within the run, so a
    // run measures `--seconds` rather than up to one pass more.
    let mut longest_round = 0.0f64;
    while untraced.len() < MIN_PASSES
        || start.elapsed().as_secs_f64() + longest_round <= args.seconds
    {
        let round = Instant::now();
        let t = timed(w, |w| w.pass());
        println!(
            "pass {} wall_s {:.4} cpu_us_per_op {:.3} imbalance {:.3}",
            untraced.len(),
            t.wall_s,
            t.cpu_ns as f64 / ops.max(1) as f64 / 1e3,
            t.imbalance
        );
        untraced.push(t);
        let out = w.outputs();
        last_digest = out.digest();
        check(w, &out, &reference, &mut tally);
        if args.trace {
            // Later traced passes still record (their cost is the
            // overhead measured) but drop their spans to bound memory.
            let mut spare = Trace::new(trace.clock());
            let sink = if traced.len() < KEPT_TRACED_PASSES {
                &mut trace
            } else {
                &mut spare
            };
            let mut out = Outputs::default();
            traced.push(timed(w, |w| out = w.traced_pass(sink)));
            check(w, &out, &reference, &mut tally);
        }
        longest_round = longest_round.max(round.elapsed().as_secs_f64());
    }
    println!("digest pass {last_digest:016x}");

    let median = |f: &dyn Fn(&PassTiming) -> f64, v: &[PassTiming]| {
        stats::median(&v.iter().map(f).collect::<Vec<_>>())
    };
    let ops_f = ops.max(1) as f64;
    let cpu_us_per_op = median(&|p| p.cpu_ns as f64 / ops_f / 1e3, &untraced);
    let ops_per_s = median(&|p| ops_f / p.wall_s, &untraced);
    let (attempted, failed) = tally;
    let failed_share = stats::ratio(failed as f64, attempted as f64);
    let correct = failed == 0 && attempted > 0;

    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setup_s));
    m.set("ops_per_s", ops_per_s);
    m.set("cpu_us_per_op", cpu_us_per_op);
    m.set("peak_rss_mb", host::peak_rss_mib());

    let op = w.op();
    println!(
        "passes {} timed of {ops} {op}s each, setups {}",
        untraced.len(),
        setup_s.len()
    );
    for line in m.lines(END_TO_END) {
        println!("{line}");
    }
    println!("{:<44} {ops_per_s:>16.6} 1/s", format!("{op}s_per_s"));
    println!(
        "{:<44} {failed_share:>16.6} ratio ({failed} of {attempted} {op}s)",
        "failed_share"
    );

    let mut layer = Metrics::default();
    if let Some(snapshot) = &snapshot {
        layer.set(
            "sched.critical_path_ms",
            median(&|p| p.critical_ns as f64 / 1e6, &untraced),
        );
        layer.set("sched.imbalance", median(&|p| p.imbalance, &untraced));
        let part =
            |f: fn(&SetupParts) -> f64| stats::median(&parts.iter().map(f).collect::<Vec<_>>());
        for (name, value) in [
            ("webpop.population_ms", part(|p| p.population_ms)),
            ("h2campaign.load_ms", part(|p| p.load_ms)),
            ("h2serve.index_ms", part(|p| p.index_ms)),
        ] {
            if value > 0.0 {
                layer.set(name, value);
            }
        }
        layers::obs_counts(snapshot, ops, &mut layer);
        let traced_cpu = median(&|p| p.cpu_ns as f64 / ops_f / 1e3, &traced);
        layer.set(
            "trace.overhead_share",
            stats::ratio(traced_cpu, cpu_us_per_op) - 1.0,
        );
        let ctx = LayerCtx {
            trace: &trace,
            snapshot,
            ops,
            cpu_us_per_op,
        };
        w.layer_metrics(&ctx, &mut layer);
        for (name, s) in trace.by_name() {
            println!(
                "span {name:<40} count {:>8} mean_us {:>12.3} self_ms {:>12.3}",
                s.count(),
                s.mean_us(),
                s.self_ns / 1e6
            );
        }
        for line in layer.lines(PER_LAYER) {
            println!("{line}");
        }
        let dump = target_dir().join("perfbench-spans");
        let path = dump.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match std::fs::create_dir_all(&dump).and_then(|()| trace.write_tsv(&path)) {
            Ok(()) => println!("spans {} written to {}", trace.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }

    let json = if args.trace {
        layer.json(PER_LAYER)
    } else {
        m.json(END_TO_END)
    };
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &json)
    );
    Ok(correct)
}

/// `--workload all`: each workload in its own process (so peak memory is
/// per workload), outputs forwarded, one combined result line.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args([
                "--size",
                if args.size == Size::Tiny {
                    "tiny"
                } else {
                    "full"
                },
            ]);
        if args.corrupt_reference {
            cmd.arg("--corrupt-reference");
        }
        let output = match cmd.stderr(Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: running {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let field = |key: &str| {
            last.split(&format!("\"{key}\": ")).nth(1).and_then(|rest| {
                rest.split([',', '}'])
                    .next()
                    .map(str::trim)
                    .map(str::to_string)
            })
        };
        correct &= output.status.success() && field("correct").as_deref() == Some("true");
        attempted += field("attempted").and_then(|v| v.parse().ok()).unwrap_or(0);
        failed += field("failed").and_then(|v| v.parse().ok()).unwrap_or(1);
        if let Some((_, m)) = last.split_once("\"metrics\": ") {
            metrics.push(format!("\"{name}\": {}", m.strip_suffix('}').unwrap_or(m)));
        }
    }
    let json = format!("{{{}}}", metrics.join(", "));
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &json)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
