//! Smoke tests of the benchmark command at tiny sizes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["scan", "scan-flaky", "push-study", "serve"];

struct Run {
    ok: bool,
    stdout: String,
}

impl Run {
    fn last(&self) -> &str {
        self.stdout.lines().last().unwrap_or_default()
    }

    /// `metric → (value, unit)` from the result line.
    fn metrics(&self) -> BTreeMap<String, (f64, String)> {
        let last = self.last();
        let body = last.split_once("\"metrics\": {").expect("metrics object").1;
        let mut out = BTreeMap::new();
        for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
            let (value, unit) = rest.split_once(", \"unit\": \"").expect("unit");
            out.insert(
                name.trim_start_matches('"').to_string(),
                (
                    value.parse().expect("number"),
                    unit.trim_end_matches('"').to_string(),
                ),
            );
        }
        out
    }

    fn field(&self, key: &str) -> String {
        let rest = self
            .last()
            .split_once(&format!("\"{key}\": "))
            .expect("field")
            .1;
        rest.split([',', '}'])
            .next()
            .unwrap_or_default()
            .to_string()
    }

    /// The value printed on the `digest <name>` line.
    fn digest(&self, name: &str) -> String {
        let prefix = format!("digest {name} ");
        self.stdout
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .expect("digest line")
            .to_string()
    }
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let target = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("run perfbench");
    Run {
        ok: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

/// The catalogue as `--list-metrics` prints it: `(set, name, unit)`.
fn catalogue() -> Vec<(String, String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--list-metrics")
        .output()
        .expect("list metrics");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| {
            let mut parts = l.split_whitespace();
            let set = parts.next().unwrap_or_default().to_string();
            let name = parts.next().unwrap_or_default().to_string();
            let unit = parts.next().unwrap_or_default().to_string();
            (set, name, unit)
        })
        .collect()
}

/// Per-layer metrics each workload exercises, which must read nonzero.
fn exercised(workload: &str) -> Vec<&'static str> {
    let mut common = vec![
        "netsim.connect_us",
        "netsim.conns_per_op",
        "netsim.bytes_to_client_per_op",
        "netsim.bytes_to_server_per_op",
        "h2wire.frames_per_op.data",
        "h2wire.frames_per_op.headers",
        "h2wire.frames_per_op.control",
        "h2wire.encode_ns_per_kib",
        "h2wire.decode_ns_per_kib",
        "h2wire.control_frame_ns",
        "h2hpack.blocks_per_op",
        "h2hpack.encode_ns_per_block",
        "h2hpack.decode_ns_per_block",
        "h2hpack.huffman_decode_mib_s",
        "h2server.request_us.small",
        "h2server.request_us.big_body",
        "h2conn.priority_op_ns",
        "h2conn.window_op_ns",
        "sched.critical_path_ms",
        "sched.imbalance",
        "attribution.explained_share",
    ];
    common.extend(match workload {
        "scan" => vec![
            "webpop.population_ms",
            "webpop.site_us",
            "h2scope.probe_us.negotiation",
            "h2scope.probe_us.settings",
            "h2scope.probe_us.headers",
            "h2scope.probe_us.flow_control",
            "h2scope.probe_us.priority",
            "h2scope.probe_us.push",
            "h2scope.probe_us.hpack",
            "h2scope.probe_calls_per_site.negotiation",
            "h2scope.probe_calls_per_site.hpack",
            "h2scope.survey_us.p50",
            "h2scope.survey_us.p99",
        ],
        "scan-flaky" => vec![
            "webpop.population_ms",
            "webpop.site_us",
            "h2scope.attempts_per_site",
            "h2scope.attempt_us",
            "h2scope.useful_attempt_ratio",
            "h2scope.gave_up_share",
            "h2fault.injection_us",
            "h2campaign.append_us",
            "h2campaign.finalize_ms",
        ],
        "push-study" => vec![
            "webpop.population_ms",
            "webpop.site_us",
            "h2scope.page_load_us.push-none",
            "h2scope.page_load_us.push-all",
            "h2scope.page_load_us.push-critical-path",
            "h2scope.page_load_us.over-push",
            "pageload.objects_per_load",
        ],
        _ => vec![
            "h2scope.fetch_us.site.p50",
            "h2scope.fetch_us.site.p99",
            "h2scope.fetch_us.table.p50",
            "h2scope.fetch_us.diff.p50",
            "h2scope.fetch_us.miss.p50",
            "h2serve.handle_us.site",
            "h2serve.handle_us.table",
            "h2serve.handle_us.diff",
            "h2serve.handle_us.miss",
            "h2serve.cache_hit_ratio",
            "h2serve.cache_lookups",
            "h2serve.index_ms",
            "h2campaign.load_ms",
        ],
    });
    common
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let catalogue = catalogue();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let run = run(workload, 7, trace, &[]);
            assert!(run.ok, "{workload} trace={trace} failed:\n{}", run.stdout);
            assert_eq!(run.field("correct"), "true");
            assert_eq!(run.field("failed"), "0");
            let metrics = run.metrics();
            let set = if trace { "per_layer" } else { "end_to_end" };
            let expected: Vec<_> = catalogue.iter().filter(|(s, _, _)| s == set).collect();
            assert_eq!(metrics.len(), expected.len(), "{workload}: {set} count");
            for (_, name, unit) in expected {
                let (value, got_unit) = &metrics[name];
                assert_eq!(got_unit, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name}");
                if !trace {
                    assert!(*value > 0.0, "{workload}: {name} reads 0");
                }
            }
            if trace {
                for name in exercised(workload) {
                    assert!(metrics[name].0 > 0.0, "{workload}: {name} reads 0");
                }
                assert!(metrics.contains_key("trace.overhead_share"));
            } else {
                assert!(
                    run.stdout.contains("failed_share"),
                    "{workload}: failed_share line"
                );
                assert!(
                    run.stdout.contains("_per_s "),
                    "{workload}: throughput line"
                );
            }
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    for workload in WORKLOADS {
        let a = run(workload, 1, false, &[]);
        let b = run(workload, 2, false, &[]);
        assert!(a.ok && b.ok, "{workload}");
        assert_ne!(a.digest("inputs"), b.digest("inputs"), "{workload}: inputs");
        assert_ne!(
            a.digest("reference"),
            b.digest("reference"),
            "{workload}: outputs"
        );
    }
}

#[test]
fn the_same_seed_reproduces_every_digest_and_count() {
    let deterministic = [
        "netsim.conns_per_op",
        "netsim.bytes_to_client_per_op",
        "netsim.bytes_to_server_per_op",
        "h2wire.frames_per_op.data",
        "h2wire.frames_per_op.headers",
        "h2wire.frames_per_op.control",
        "h2hpack.blocks_per_op",
        "h2scope.probe_calls_per_site.flow_control",
        "h2scope.attempts_per_site",
        "h2scope.useful_attempt_ratio",
        "h2scope.gave_up_share",
        "pageload.objects_per_load",
        "pageload.push_delivered_per_promised",
        "pageload.stalled_share",
        "h2serve.cache_hit_ratio",
        "h2serve.cache_lookups",
    ];
    for workload in WORKLOADS {
        let a = run(workload, 3, true, &[]);
        let b = run(workload, 3, true, &[]);
        assert!(a.ok && b.ok, "{workload}");
        for name in ["inputs", "reference", "pass"] {
            assert_eq!(a.digest(name), b.digest(name), "{workload}: digest {name}");
        }
        assert_eq!(
            a.digest("reference"),
            a.digest("pass"),
            "{workload}: traced vs untraced"
        );
        let (ma, mb) = (a.metrics(), b.metrics());
        for name in deterministic {
            assert_eq!(
                ma[name].0.to_bits(),
                mb[name].0.to_bits(),
                "{workload}: {name}"
            );
        }
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for workload in WORKLOADS {
        let run = run(workload, 5, false, &["--corrupt-reference"]);
        assert!(!run.ok, "{workload}: must exit nonzero");
        assert_eq!(run.field("correct"), "false", "{workload}");
        let failed: u64 = run.field("failed").parse().expect("failed count");
        assert!(failed > 0, "{workload}: failed_share must be above zero");
        let share = run
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("failed_share"))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .expect("failed_share line");
        assert!(share > 0.0, "{workload}");
    }
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    for (set, name, unit) in catalogue() {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks {set} {name} [{unit}]"
        );
    }
    let declared = json.matches("\"unit\": ").count();
    assert_eq!(
        declared,
        catalogue().len(),
        "BENCHMARK.json declares extra metrics"
    );
}
