//! The population-scale push QoE study (`repro push-study`).
//!
//! The paper's Figure 3 compares page-load time with push on and off
//! for the 15 push-enabled sites it found in the wild. This module
//! asks the follow-up question at population scale: *which push policy
//! helps, and where?* Every sampled site of the synthetic population
//! is loaded through the dependency-aware pageload model under a grid
//! of RTT bands × access bandwidths × push policies, and each policy's
//! page-load-time distribution is compared against the `push-none`
//! baseline — broken down by RTT band, page weight, and object count,
//! which is where push's help-vs-hurt boundary lives.
//!
//! Work is distributed over the sharded [`ScanPool`]: workers claim
//! grid cells (one site × one link) through the scan driver's worker
//! loop (`ScanPool::map_indexed`), and every per-load
//! connection seed is a pure function of `(campaign seed, site, link,
//! policy, load)` — so the report (and `PUSH_campaign.json`) is
//! byte-identical at any thread count, the same contract as
//! [`crate::scan`].
//!
//! Loads that stall (mute servers, broken exchanges) are *counted*,
//! never averaged into the load-time statistics — a stalled load has
//! no page-load time.

use std::fmt::Write as _;
use std::sync::Arc;

use h2fault::splitmix64;
use h2scope::pageload::{page_load_with, LoadOptions, PageLoad};
use h2scope::Target;
use h2server::PushPolicy;
use netsim::time::SimDuration;
use netsim::LinkSpec;
use webpop::{ExperimentSpec, Family, Population};

use crate::sched::ScanPool;
use crate::stats::{mean, quantile};

/// The RTT bands of the sweep: `(label, round-trip ms)`.
pub const RTT_BANDS: [(&str, u64); 3] = [("lan", 1), ("metro", 20), ("wan", 120)];

/// The access-bandwidth legs of the sweep: `(label, bits per second)`.
pub const BANDWIDTHS: [(&str, u64); 2] = [("dsl", 1_500_000), ("cable", 10_000_000)];

/// A policy's mean load-time delta must clear this many milliseconds
/// (either way) before a cell counts as helped or hurt.
const DELTA_FLOOR_MS: f64 = 1.0;

/// Configuration for one push study.
#[derive(Debug, Clone)]
pub struct StudyOptions {
    /// Population scale factor (shared with `repro` scans).
    pub scale: f64,
    /// Campaign seed: same seed, same study, at any thread count.
    pub seed: u64,
    /// Page loads per (site, link, policy) cell.
    pub loads: usize,
    /// Upper bound on sampled sites (stride-sampled over the ranked
    /// population so every family and the mute tail stay represented).
    pub max_sites: usize,
    /// Worker threads.
    pub threads: usize,
}

impl Default for StudyOptions {
    fn default() -> StudyOptions {
        StudyOptions {
            scale: 0.02,
            seed: 0,
            loads: 3,
            max_sites: 48,
            threads: 4,
        }
    }
}

/// One policy's outcomes within a cell.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy.
    pub policy: PushPolicy,
    /// Load times of *complete* loads, milliseconds, in load order.
    pub plt_ms: Vec<f64>,
    /// Loads that ended [`h2scope::pageload::LoadOutcome::Stalled`].
    pub stalled: usize,
    /// PUSH_PROMISE frames across all loads.
    pub promised: usize,
    /// Pushed streams that delivered a complete body across all loads.
    pub delivered: usize,
}

impl PolicyOutcome {
    fn mean_plt(&self) -> Option<f64> {
        (!self.plt_ms.is_empty()).then(|| mean(&self.plt_ms))
    }
}

/// One grid cell: one site loaded over one link under every policy.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Site index within the population.
    pub site: u64,
    /// The site's server family.
    pub family: Family,
    /// Index into [`RTT_BANDS`].
    pub rtt: usize,
    /// Index into [`BANDWIDTHS`].
    pub bw: usize,
    /// Objects a complete baseline load delivers (0 if none completed).
    pub objects: u64,
    /// Page weight: body octets of a complete baseline load.
    pub weight: u64,
    /// Outcomes in [`PushPolicy::ALL_POLICIES`] order.
    pub policies: Vec<PolicyOutcome>,
}

impl Cell {
    fn outcome(&self, policy: PushPolicy) -> &PolicyOutcome {
        self.policies
            .iter()
            .find(|p| p.policy == policy)
            .expect("every cell carries every policy")
    }
}

/// A finished study.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// The options that produced it.
    pub options: StudyOptions,
    /// Every grid cell, in (site, rtt, bandwidth) order.
    pub cells: Vec<Cell>,
}

/// How a policy's mean load time moved against the baseline in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Helped,
    Hurt,
    Neutral,
}

fn verdict(delta_ms: f64) -> Verdict {
    if delta_ms <= -DELTA_FLOOR_MS {
        Verdict::Helped
    } else if delta_ms >= DELTA_FLOOR_MS {
        Verdict::Hurt
    } else {
        Verdict::Neutral
    }
}

/// helped/hurt/neutral counts for one (policy, band) pair.
#[derive(Debug, Clone, Default)]
pub struct BreakRow {
    /// Cells where the policy beat the baseline by ≥ the floor.
    pub helped: usize,
    /// Cells where the policy lost to the baseline by ≥ the floor.
    pub hurt: usize,
    /// Cells inside the floor.
    pub neutral: usize,
}

impl BreakRow {
    fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Helped => self.helped += 1,
            Verdict::Hurt => self.hurt += 1,
            Verdict::Neutral => self.neutral += 1,
        }
    }
}

/// The link of one grid cell.
pub fn cell_link(rtt: usize, bw: usize) -> LinkSpec {
    LinkSpec {
        delay: SimDuration::from_micros(RTT_BANDS[rtt].1 * 1_000 / 2),
        jitter: SimDuration::ZERO,
        bandwidth_bps: Some(BANDWIDTHS[bw].1),
        loss: 0.0,
        retransmit_penalty: SimDuration::from_millis(200),
    }
}

/// The site indices a study at these options samples.
pub fn sampled_sites(options: &StudyOptions, population: &Population) -> Vec<u64> {
    let total = population.h2_count();
    let stride = (total / options.max_sites.max(1) as u64).max(1);
    (0..total)
        .step_by(stride as usize)
        .take(options.max_sites)
        .collect()
}

fn study_population(options: &StudyOptions) -> Population {
    // The Jan-2017 experiment (more push deployment); the study seed
    // perturbs the population only when explicitly nonzero, so the
    // default study samples the same sites every other command sees.
    let mut spec = ExperimentSpec::second();
    spec.seed ^= options.seed;
    Population::new(spec, options.scale)
}

/// Runs one cell: every policy × every load over one (site, link).
fn run_cell(
    population: &Population,
    options: &StudyOptions,
    site: u64,
    rtt: usize,
    bw: usize,
) -> Cell {
    let sample = population.site(site);
    let mut policies = Vec::with_capacity(PushPolicy::ALL_POLICIES.len());
    let mut objects = 0u64;
    let mut weight = 0u64;
    for (pi, &policy) in PushPolicy::ALL_POLICIES.iter().enumerate() {
        let mut profile = (*sample.profile).clone();
        // The study compares policies, so every non-mute server is made
        // push-capable; `push-none` is the baseline.
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
            let target = Target {
                profile: Arc::clone(&profile),
                site: Arc::clone(&sample.site),
                link: cell_link(rtt, bw),
                seed,
                pipe_faults: netsim::PipeFaults::none(),
                patience: None,
                fault_log: h2scope::FaultLog::default(),
                obs: h2scope::Obs::off(),
                handler: None,
            };
            let result: PageLoad = page_load_with(
                &target,
                &LoadOptions {
                    enable_push: true,
                    seed,
                    refuse: &[],
                },
            );
            if result.complete() {
                outcome.plt_ms.push(result.load_time.as_millis_f64());
                if policy == PushPolicy::None {
                    objects = result.objects as u64;
                    weight = result.bytes;
                }
            } else {
                outcome.stalled += 1;
            }
            outcome.promised += result.promised;
            outcome.delivered += result.pushed_assets;
        }
        policies.push(outcome);
    }
    Cell {
        site,
        family: sample.family,
        rtt,
        bw,
        objects,
        weight,
        policies,
    }
}

/// Runs the study on `pool`'s workers, returning cells in grid order.
pub fn run_on(options: &StudyOptions, pool: &mut ScanPool) -> StudyReport {
    let population = study_population(options);
    let sites = sampled_sites(options, &population);
    let links = RTT_BANDS.len() * BANDWIDTHS.len();
    let total = sites.len() * links;
    let study = options.clone();
    let cells = pool.map_indexed(
        total as u64,
        || (),
        move |_, item| {
            let site = sites[item as usize / links];
            let link = item as usize % links;
            let (rtt, bw) = (link / BANDWIDTHS.len(), link % BANDWIDTHS.len());
            run_cell(&population, &study, site, rtt, bw)
        },
    );
    StudyReport {
        options: options.clone(),
        cells,
    }
}

/// Runs the study on a fresh pool of `options.threads` workers.
pub fn run(options: &StudyOptions) -> StudyReport {
    let mut pool = ScanPool::new(options.threads);
    run_on(options, &mut pool)
}

/// Tercile split points over the positive values of `key` across
/// cells with a complete baseline (the breakdown denominators).
fn terciles(cells: &[Cell], key: impl Fn(&Cell) -> u64) -> (u64, u64) {
    let mut values: Vec<u64> = cells
        .iter()
        .filter(|c| baseline_mean(c).is_some())
        .map(&key)
        .collect();
    values.sort_unstable();
    if values.is_empty() {
        return (0, 0);
    }
    let at = |q: f64| values[((values.len() - 1) as f64 * q) as usize];
    (at(1.0 / 3.0), at(2.0 / 3.0))
}

fn baseline_mean(cell: &Cell) -> Option<f64> {
    cell.outcome(PushPolicy::None).mean_plt()
}

/// The per-policy aggregate rows of the report.
#[derive(Debug, Clone)]
pub struct PolicySummary {
    /// The policy.
    pub policy: PushPolicy,
    /// Complete loads across all cells.
    pub samples: usize,
    /// Stalled loads across all cells.
    pub stalled: usize,
    /// PUSH_PROMISE frames across all cells.
    pub promised: usize,
    /// Delivered pushes across all cells.
    pub delivered: usize,
    /// Load-time distribution over complete loads, ms.
    pub mean_ms: f64,
    /// 10th percentile, ms.
    pub p10_ms: f64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
}

/// Aggregates each policy's load-time distribution over the study.
pub fn policy_summaries(report: &StudyReport) -> Vec<PolicySummary> {
    PushPolicy::ALL_POLICIES
        .iter()
        .map(|&policy| {
            let mut plts = Vec::new();
            let mut stalled = 0;
            let mut promised = 0;
            let mut delivered = 0;
            for cell in &report.cells {
                let o = cell.outcome(policy);
                plts.extend_from_slice(&o.plt_ms);
                stalled += o.stalled;
                promised += o.promised;
                delivered += o.delivered;
            }
            PolicySummary {
                policy,
                samples: plts.len(),
                stalled,
                promised,
                delivered,
                mean_ms: if plts.is_empty() { 0.0 } else { mean(&plts) },
                p10_ms: quantile(&plts, 0.10),
                p50_ms: quantile(&plts, 0.50),
                p90_ms: quantile(&plts, 0.90),
            }
        })
        .collect()
}

/// One dimension of the help/hurt breakdown.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Dimension name ("rtt", "weight", "objects").
    pub dimension: &'static str,
    /// Band labels along the dimension.
    pub bands: Vec<String>,
    /// `rows[policy][band]` for the three pushing policies
    /// (policy order: push-all, push-critical-path, over-push).
    pub rows: Vec<(PushPolicy, Vec<BreakRow>)>,
}

/// The pushing policies (everything but the baseline).
fn pushing_policies() -> Vec<PushPolicy> {
    PushPolicy::ALL_POLICIES
        .iter()
        .copied()
        .filter(|&p| p != PushPolicy::None)
        .collect()
}

/// Classifies every cell × pushing-policy pair against the baseline
/// along one banding function.
fn breakdown_by(
    report: &StudyReport,
    dimension: &'static str,
    bands: Vec<String>,
    band_of: impl Fn(&Cell) -> usize,
) -> Breakdown {
    let mut rows: Vec<(PushPolicy, Vec<BreakRow>)> = pushing_policies()
        .into_iter()
        .map(|p| (p, vec![BreakRow::default(); bands.len()]))
        .collect();
    for cell in &report.cells {
        let Some(base) = baseline_mean(cell) else {
            continue; // no completed baseline load: nothing to compare
        };
        let band = band_of(cell);
        for (policy, counts) in &mut rows {
            let Some(mean_ms) = cell.outcome(*policy).mean_plt() else {
                // The policy stalled every load where the baseline
                // completed: that is a hurt, not a missing sample.
                counts[band].add(Verdict::Hurt);
                continue;
            };
            counts[band].add(verdict(mean_ms - base));
        }
    }
    Breakdown {
        dimension,
        bands,
        rows,
    }
}

/// The three breakdowns: by RTT band, page weight, and object count.
pub fn breakdowns(report: &StudyReport) -> Vec<Breakdown> {
    let (w1, w2) = terciles(&report.cells, |c| c.weight);
    let (o1, o2) = terciles(&report.cells, |c| c.objects);
    let tercile = move |v: u64, lo: u64, hi: u64| {
        if v <= lo {
            0
        } else if v <= hi {
            1
        } else {
            2
        }
    };
    vec![
        breakdown_by(
            report,
            "rtt",
            RTT_BANDS.iter().map(|(l, _)| (*l).to_string()).collect(),
            |c| c.rtt,
        ),
        breakdown_by(
            report,
            "weight",
            vec![format!("<={w1}B"), format!("<={w2}B"), format!(">{w2}B")],
            move |c| tercile(c.weight, w1, w2),
        ),
        breakdown_by(
            report,
            "objects",
            vec![
                format!("<={o1}obj"),
                format!("<={o2}obj"),
                format!(">{o2}obj"),
            ],
            move |c| tercile(c.objects, o1, o2),
        ),
    ]
}

/// Renders the human-readable study report.
pub fn render_report(report: &StudyReport) -> String {
    let mut out = String::new();
    let links = RTT_BANDS.len() * BANDWIDTHS.len();
    let _ = writeln!(
        out,
        "PUSH QOE STUDY  ({} sites x {links} links x {} policies, {} loads each)",
        report.cells.len() / links,
        PushPolicy::ALL_POLICIES.len(),
        report.options.loads
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "  {:<19} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "policy", "loads", "stalled", "mean ms", "p10 ms", "p50 ms", "p90 ms"
    );
    for s in policy_summaries(report) {
        let _ = writeln!(
            out,
            "  {:<19} {:>7} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            s.policy.name(),
            s.samples,
            s.stalled,
            s.mean_ms,
            s.p10_ms,
            s.p50_ms,
            s.p90_ms
        );
    }
    for b in breakdowns(report) {
        out.push('\n');
        let _ = writeln!(out, "  help/hurt vs push-none, by {}", b.dimension);
        let header: Vec<String> = b.bands.iter().map(|l| format!("{l:>16}")).collect();
        let _ = writeln!(out, "  {:<19}{}", "policy", header.join(""));
        for (policy, counts) in &b.rows {
            let cells: Vec<String> = counts
                .iter()
                .map(|c| {
                    format!(
                        "{:>16}",
                        format!("+{}/-{}/={}", c.helped, c.hurt, c.neutral)
                    )
                })
                .collect();
            let _ = writeln!(out, "  {:<19}{}", policy.name(), cells.join(""));
        }
    }
    out.push('\n');
    out.push_str("  (+helped  -hurt  =neutral; a cell is one site on one link,\n");
    out.push_str("   compared by mean load time over complete loads)\n");
    out
}

/// Renders the machine-readable `PUSH_campaign.json` (schema
/// `h2push-study-v1`). Key order is fixed and every value derives from
/// `(options, cells)`, so the file is byte-identical at any thread
/// count.
pub fn render_json(report: &StudyReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"h2push-study-v1\",\n");
    let _ = writeln!(out, "  \"seed\": {},", report.options.seed);
    let _ = writeln!(out, "  \"scale\": {},", report.options.scale);
    let _ = writeln!(out, "  \"loads\": {},", report.options.loads);
    let links = RTT_BANDS.len() * BANDWIDTHS.len();
    let _ = writeln!(out, "  \"sites\": {},", report.cells.len() / links);
    let _ = writeln!(out, "  \"cells\": {},", report.cells.len());
    let rtts: Vec<String> = RTT_BANDS
        .iter()
        .map(|(l, ms)| format!("{{\"band\":\"{l}\",\"rtt_ms\":{ms}}}"))
        .collect();
    let _ = writeln!(out, "  \"rtt_bands\": [{}],", rtts.join(","));
    let bws: Vec<String> = BANDWIDTHS
        .iter()
        .map(|(l, bps)| format!("{{\"leg\":\"{l}\",\"bps\":{bps}}}"))
        .collect();
    let _ = writeln!(out, "  \"bandwidths\": [{}],", bws.join(","));
    out.push_str("  \"policies\": [\n");
    let summaries = policy_summaries(report);
    for (i, s) in summaries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"policy\":\"{}\",\"loads\":{},\"stalled\":{},\"promised\":{},\"delivered\":{},\"mean_ms\":{:.3},\"p10_ms\":{:.3},\"p50_ms\":{:.3},\"p90_ms\":{:.3}}}",
            s.policy.name(),
            s.samples,
            s.stalled,
            s.promised,
            s.delivered,
            s.mean_ms,
            s.p10_ms,
            s.p50_ms,
            s.p90_ms
        );
        out.push_str(if i + 1 < summaries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"breakdowns\": [\n");
    let all = breakdowns(report);
    for (bi, b) in all.iter().enumerate() {
        let _ = writeln!(out, "    {{\"dimension\":\"{}\",\"rows\":[", b.dimension);
        let mut rows = Vec::new();
        for (policy, counts) in &b.rows {
            for (band, c) in b.bands.iter().zip(counts) {
                rows.push(format!(
                    "      {{\"policy\":\"{}\",\"band\":\"{}\",\"helped\":{},\"hurt\":{},\"neutral\":{}}}",
                    policy.name(),
                    band,
                    c.helped,
                    c.hurt,
                    c.neutral
                ));
            }
        }
        let _ = writeln!(out, "{}", rows.join(",\n"));
        out.push_str("    ]}");
        out.push_str(if bi + 1 < all.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StudyOptions {
        StudyOptions {
            scale: 0.002,
            seed: 0,
            loads: 1,
            max_sites: 6,
            threads: 2,
        }
    }

    #[test]
    fn study_covers_the_grid_in_order() {
        let report = run(&tiny());
        let links = RTT_BANDS.len() * BANDWIDTHS.len();
        assert_eq!(report.cells.len(), 6 * links);
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.rtt, (i % links) / BANDWIDTHS.len());
            assert_eq!(cell.bw, i % BANDWIDTHS.len());
            assert_eq!(cell.policies.len(), 4);
        }
    }

    #[test]
    fn pushing_policies_promise_where_the_baseline_does_not() {
        let report = run(&tiny());
        let summaries = policy_summaries(&report);
        assert_eq!(summaries[0].policy, PushPolicy::None);
        assert_eq!(summaries[0].promised, 0);
        let all = &summaries[1];
        assert_eq!(all.policy, PushPolicy::All);
        assert!(all.promised > 0, "push-all promises level-1 children");
        assert!(all.delivered <= all.promised);
    }

    #[test]
    fn json_carries_every_policy_and_breakdown() {
        let report = run(&tiny());
        let json = render_json(&report);
        assert!(json.contains("\"schema\": \"h2push-study-v1\""));
        for policy in PushPolicy::ALL_POLICIES {
            assert!(json.contains(&format!("\"policy\":\"{}\"", policy.name())));
        }
        for dim in ["rtt", "weight", "objects"] {
            assert!(json.contains(&format!("\"dimension\":\"{dim}\"")));
        }
    }
}
