//! The metric catalogue (names, units, and which end-to-end metric each
//! per-layer metric should move on which workload) and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// What it should move, and where (per-layer metrics only).
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef { name, unit, moves }
}

/// End-to-end metrics, printed by every untraced run. The throughput is
/// sites/s on `scan` and `scan-flaky`, loads/s on `push-study` and
/// lookups/s on `serve`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", ""),
    m("ops_per_s", "1/s", ""),
    m("cpu_us_per_op", "us", ""),
    m("peak_rss_mb", "MiB", ""),
];

const SCAN_TPUT: &str = "ops_per_s on scan";
const SERVE_TPUT: &str = "ops_per_s on serve";
const PUSH_TPUT: &str = "ops_per_s on push-study";
const FLAKY_TPUT: &str = "ops_per_s on scan-flaky";

/// Per-layer metrics, printed by every traced run (0 where the workload
/// does not exercise the layer).
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "sched.critical_path_ms",
        "ms",
        "ops_per_s on scan and push-study",
    ),
    m(
        "sched.imbalance",
        "ratio",
        "ops_per_s on scan and push-study",
    ),
    m(
        "webpop.population_ms",
        "ms",
        "setup_s on scan, scan-flaky and push-study",
    ),
    m(
        "webpop.site_us",
        "us",
        "ops_per_s on scan; about 0 on serve",
    ),
    m("h2scope.probe_us.negotiation", "us", SCAN_TPUT),
    m("h2scope.probe_us.settings", "us", SCAN_TPUT),
    m("h2scope.probe_us.headers", "us", SCAN_TPUT),
    m("h2scope.probe_us.flow_control", "us", SCAN_TPUT),
    m("h2scope.probe_us.priority", "us", SCAN_TPUT),
    m("h2scope.probe_us.push", "us", SCAN_TPUT),
    m("h2scope.probe_us.hpack", "us", SCAN_TPUT),
    m(
        "h2scope.probe_calls_per_site.negotiation",
        "count",
        SCAN_TPUT,
    ),
    m("h2scope.probe_calls_per_site.settings", "count", SCAN_TPUT),
    m("h2scope.probe_calls_per_site.headers", "count", SCAN_TPUT),
    m(
        "h2scope.probe_calls_per_site.flow_control",
        "count",
        SCAN_TPUT,
    ),
    m("h2scope.probe_calls_per_site.priority", "count", SCAN_TPUT),
    m("h2scope.probe_calls_per_site.push", "count", SCAN_TPUT),
    m("h2scope.probe_calls_per_site.hpack", "count", SCAN_TPUT),
    m("h2scope.survey_us.p50", "us", SCAN_TPUT),
    m("h2scope.survey_us.p99", "us", SCAN_TPUT),
    m(
        "h2scope.attempts_per_site",
        "count",
        "ops_per_s on scan-flaky; 0 on scan",
    ),
    m(
        "h2scope.attempt_us",
        "us",
        "ops_per_s on scan-flaky; 0 on scan",
    ),
    m(
        "h2scope.useful_attempt_ratio",
        "ratio",
        "ops_per_s on scan-flaky; 0 on scan",
    ),
    m(
        "h2scope.gave_up_share",
        "ratio",
        "ops_per_s on scan-flaky; 0 on scan",
    ),
    m(
        "h2fault.injection_us",
        "us",
        "ops_per_s on scan-flaky; 0 on scan",
    ),
    m("h2scope.page_load_us.push-none", "us", PUSH_TPUT),
    m("h2scope.page_load_us.push-all", "us", PUSH_TPUT),
    m("h2scope.page_load_us.push-critical-path", "us", PUSH_TPUT),
    m("h2scope.page_load_us.over-push", "us", PUSH_TPUT),
    m("pageload.objects_per_load", "count", PUSH_TPUT),
    m("pageload.push_delivered_per_promised", "ratio", PUSH_TPUT),
    m("pageload.stalled_share", "ratio", PUSH_TPUT),
    m("h2scope.fetch_us.site.p50", "us", SERVE_TPUT),
    m("h2scope.fetch_us.site.p99", "us", SERVE_TPUT),
    m("h2scope.fetch_us.table.p50", "us", SERVE_TPUT),
    m("h2scope.fetch_us.table.p99", "us", SERVE_TPUT),
    m("h2scope.fetch_us.diff.p50", "us", SERVE_TPUT),
    m("h2scope.fetch_us.diff.p99", "us", SERVE_TPUT),
    m("h2scope.fetch_us.miss.p50", "us", SERVE_TPUT),
    m("h2scope.fetch_us.miss.p99", "us", SERVE_TPUT),
    m("h2serve.handle_us.site", "us", SERVE_TPUT),
    m("h2serve.handle_us.table", "us", SERVE_TPUT),
    m("h2serve.handle_us.diff", "us", SERVE_TPUT),
    m("h2serve.handle_us.miss", "us", SERVE_TPUT),
    m("h2serve.cache_hit_ratio", "ratio", SERVE_TPUT),
    m(
        "h2serve.cache_lookups",
        "count",
        "base of h2serve.cache_hit_ratio",
    ),
    m("h2serve.index_ms", "ms", "setup_s on serve"),
    m("h2campaign.load_ms", "ms", "setup_s on serve"),
    m("h2campaign.append_us", "us", FLAKY_TPUT),
    m("h2campaign.finalize_ms", "ms", FLAKY_TPUT),
    m("netsim.connect_us", "us", SCAN_TPUT),
    m(
        "netsim.conns_per_op",
        "count",
        "ops_per_s; largest on scan, smallest on serve",
    ),
    m(
        "netsim.bytes_to_client_per_op",
        "B",
        "ops_per_s; largest on scan, smallest on serve",
    ),
    m(
        "netsim.bytes_to_server_per_op",
        "B",
        "ops_per_s; largest on scan, smallest on serve",
    ),
    m("h2wire.frames_per_op.data", "count", SCAN_TPUT),
    m("h2wire.frames_per_op.headers", "count", SERVE_TPUT),
    m("h2wire.frames_per_op.control", "count", SCAN_TPUT),
    m(
        "h2wire.encode_ns_per_kib",
        "ns/KiB",
        "ops_per_s on scan; flat on serve",
    ),
    m(
        "h2wire.decode_ns_per_kib",
        "ns/KiB",
        "ops_per_s on scan; flat on serve",
    ),
    m("h2wire.control_frame_ns", "ns", SCAN_TPUT),
    m(
        "h2hpack.blocks_per_op",
        "count",
        "ops_per_s on serve and push-study",
    ),
    m(
        "h2hpack.encode_ns_per_block",
        "ns",
        "ops_per_s on serve and push-study",
    ),
    m(
        "h2hpack.decode_ns_per_block",
        "ns",
        "ops_per_s on serve and push-study",
    ),
    m(
        "h2hpack.huffman_decode_mib_s",
        "MiB/s",
        "ops_per_s on serve and push-study",
    ),
    m("h2server.request_us.small", "us", SERVE_TPUT),
    m("h2server.request_us.big_body", "us", SCAN_TPUT),
    m("h2conn.priority_op_ns", "ns", SCAN_TPUT),
    m("h2conn.window_op_ns", "ns", SCAN_TPUT),
    m(
        "attribution.explained_share",
        "ratio",
        "share of cpu_us_per_op the layer costs explain",
    ),
    m(
        "trace.overhead_share",
        "ratio",
        "traced over untraced cpu per op, minus 1",
    ),
];

/// Looks a metric up in either catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: every printed metric must
    /// be one `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(def.name, value);
    }

    /// The value recorded under `name`, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `name value unit` lines for every metric of `set` that was
    /// recorded.
    pub fn lines(&self, set: &[MetricDef]) -> Vec<String> {
        set.iter()
            .filter_map(|d| {
                self.values
                    .get(d.name)
                    .map(|v| format!("{:<44} {v:>16.6} {}", d.name, d.unit))
            })
            .collect()
    }

    /// The JSON `metrics` object over every metric of `set`; absent
    /// per-layer metrics print as 0 (the workload does not exercise the
    /// layer).
    pub fn json(&self, set: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, d) in set.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(self.get(d.name)),
                d.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn json_prints_every_metric_of_the_set() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.25);
        let json = metrics.json(END_TO_END);
        for d in END_TO_END {
            assert!(json.contains(&format!("\"{}\"", d.name)));
        }
        assert!(json.contains("\"value\": 0.25"));
    }
}
