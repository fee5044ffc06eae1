//! Wild-scan generators: adoption (§V-B), Table IV, Tables V–VII, Figure
//! 2, the §V-D flow-control aggregates and the §V-E priority aggregates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use h2scope::probes::flow_control::SmallWindowOutcome;
use h2scope::{ProbeOutcome, ProbeStats, Reaction};
use webpop::Population;

use crate::scan::{headers_records, ScanRecord};
use crate::sched::ScanPool;
use crate::stats::{apportion, fmt_count, spark_cdf};

/// Scales one *independent* measured count back up to paper scale for
/// side-by-side comparison. Only for counters that don't share a column
/// total (adoption funnels, standalone aggregates) — rows that partition
/// a total go through [`upscaled_rows`], which keeps the column sum
/// exact.
fn upscaled(count: usize, scale: f64) -> u64 {
    (count as f64 / scale).round() as u64
}

/// Upscales a group of rows that partition (a subset of) `total` sites.
/// Independent per-row rounding lets the upscaled rows drift from the
/// upscaled total at scale < 1 (each row rounds on its own); instead the
/// rows — plus an implicit remainder row covering the sites the table
/// doesn't print — are apportioned against `upscaled(total)` by largest
/// remainder ([`apportion`]), so printed rows + unprinted remainder sum
/// exactly to the upscaled column total at every scale.
fn upscaled_rows(counts: &[u64], total: u64, scale: f64) -> Vec<u64> {
    let listed: u64 = counts.iter().sum();
    debug_assert!(listed <= total, "rows exceed their column total");
    let mut with_remainder = counts.to_vec();
    with_remainder.push(total.saturating_sub(listed));
    let mut shares = apportion(&with_remainder, upscaled(total as usize, scale));
    shares.pop();
    shares
}

/// Future work made runnable: a monthly adoption-trend series between
/// the two campaigns, each month a freshly generated and scanned
/// population (the paper: "we will perform regular scanning on popular
/// web sites to characterize how HTTP/2 and its features are adopted").
pub fn trend(scale: f64, threads: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Adoption trend — simulated monthly scans, Jul. 2016 → Jan. 2017"
    )
    .unwrap();
    writeln!(
        out,
        "  {:<8}{:>10}{:>10}{:>10}{:>12}{:>12}",
        "month", "NPN", "ALPN", "HEADERS", "prio(last)", "push sites"
    )
    .unwrap();
    let mut pool = ScanPool::new(threads);
    for (month, spec) in webpop::monthly_series().into_iter().enumerate() {
        let population = Population::new(spec, scale);
        let records = pool.scan(&population);
        let npn = records
            .iter()
            .filter(|r| r.report.negotiation.npn_h2)
            .count();
        let alpn = records
            .iter()
            .filter(|r| r.report.negotiation.alpn_h2)
            .count();
        let headers = records.iter().filter(|r| r.report.headers_received).count();
        let prio = records
            .iter()
            .filter(|r| r.report.priority.as_ref().is_some_and(|p| p.by_last_frame))
            .count();
        let push = records
            .iter()
            .filter(|r| r.report.push.as_ref().is_some_and(|p| p.supported))
            .count();
        writeln!(
            out,
            "  {:<8}{:>10}{:>10}{:>10}{:>12}{:>12}",
            format!("+{month}mo"),
            fmt_count(upscaled(npn, scale)),
            fmt_count(upscaled(alpn, scale)),
            fmt_count(upscaled(headers, scale)),
            fmt_count(upscaled(prio, scale)),
            push,
        )
        .unwrap();
    }
    writeln!(
        out,
        "  (paper endpoints: NPN 49,334 → 78,714; HEADERS 44,390 → 64,299)"
    )
    .unwrap();
    out
}

/// §V-B1: ALPN/NPN adoption counts.
pub fn adoption(records: &[ScanRecord], population: &Population) -> String {
    let spec = population.spec();
    let scale = population.scale();
    let npn = records
        .iter()
        .filter(|r| r.report.negotiation.npn_h2)
        .count();
    let alpn = records
        .iter()
        .filter(|r| r.report.negotiation.alpn_h2)
        .count();
    let headers = records.iter().filter(|r| r.report.headers_received).count();
    let mut out = String::new();
    writeln!(out, "§V-B1 — Adoption ({}; scale {scale})", spec.label).unwrap();
    for (name, measured, paper) in [
        ("NPN h2 sites", npn, spec.npn_sites),
        ("ALPN h2 sites", alpn, spec.alpn_sites),
        ("HEADERS-returning sites", headers, spec.headers_sites),
    ] {
        writeln!(
            out,
            "  {name:<26} measured {:>9}  (paper-scale est. {:>9}, paper {:>9})",
            fmt_count(measured as u64),
            fmt_count(upscaled(measured, scale)),
            fmt_count(paper)
        )
        .unwrap();
    }
    out
}

/// §V-B2 / Table IV: server families by `server` response header.
pub fn table4(records: &[ScanRecord], population: &Population) -> String {
    let scale = population.scale();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for record in headers_records(records) {
        let name = record
            .report
            .server_name
            .clone()
            .unwrap_or_else(|| "(no server header)".to_string());
        // Collapse versioned names into families the way the paper's
        // table does.
        let family = if name.starts_with("nginx") {
            "Nginx".to_string()
        } else if name.starts_with("Tengine/Aserver") {
            "Tengine/Aserver".to_string()
        } else if name.starts_with("Tengine") {
            "Tengine".to_string()
        } else if name.starts_with("LiteSpeed") {
            "Litespeed".to_string()
        } else if name.starts_with("IdeaWebServer") {
            "IdeaWebServer/v0.80".to_string()
        } else {
            name
        };
        *counts.entry(family).or_default() += 1;
    }
    let distinct = counts.len();
    let headers_total: u64 = counts.values().map(|&c| c as u64).sum();
    let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let paper: &[(&str, u64, u64)] = &[
        ("Litespeed", 12_637, 13_626),
        ("Nginx", 11_293, 27_394),
        ("GSE", 9_928, 9_929),
        ("Tengine", 2_535, 674),
        ("cloudflare-nginx", 1_197, 1_766),
        ("IdeaWebServer/v0.80", 1_128, 1_261),
        ("Tengine/Aserver", 0, 2_620),
    ];
    let second = population.spec().second;
    let mut out = String::new();
    writeln!(
        out,
        "TABLE IV — Top server families ({}; {} distinct names seen, paper {})",
        population.spec().label,
        distinct,
        if second { 345 } else { 223 }
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22}{:>10}{:>14}{:>10}",
        "Server", "measured", "paper-scale", "paper"
    )
    .unwrap();
    // The listed families are disjoint slices of the headers-returning
    // sites, so their paper-scale column is apportioned against the
    // upscaled headers total rather than rounded row by row.
    let measured_rows: Vec<u64> = paper
        .iter()
        .map(|(name, _, _)| {
            rows.iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, c)| *c as u64)
        })
        .collect();
    let scaled_rows = upscaled_rows(&measured_rows, headers_total, scale);
    for (((name, exp1, exp2), measured), scaled) in
        paper.iter().zip(&measured_rows).zip(scaled_rows)
    {
        let paper_count = if second { *exp2 } else { *exp1 };
        writeln!(
            out,
            "  {:<22}{:>10}{:>14}{:>10}",
            name,
            fmt_count(*measured),
            fmt_count(scaled),
            fmt_count(paper_count)
        )
        .unwrap();
    }
    out
}

/// A generic SETTINGS distribution table (Tables V–VII).
fn settings_table(
    title: &str,
    records: &[ScanRecord],
    population: &Population,
    paper_rows: &[(Option<u32>, u64, u64)],
    extract: impl Fn(&ScanRecord) -> Option<u32>,
    render_value: impl Fn(Option<u32>) -> String,
) -> String {
    let scale = population.scale();
    let second = population.spec().second;
    let mut counts: BTreeMap<Option<u32>, usize> = BTreeMap::new();
    for record in headers_records(records) {
        *counts.entry(extract(record)).or_default() += 1;
    }
    let mut out = String::new();
    writeln!(out, "{title} ({})", population.spec().label).unwrap();
    writeln!(
        out,
        "  {:<16}{:>10}{:>14}{:>10}",
        "Value", "measured", "paper-scale", "paper"
    )
    .unwrap();
    // Each listed value is a distinct key, so the rows partition (a
    // subset of) the headers-returning sites: apportion the paper-scale
    // column so it stays consistent with the upscaled total.
    let total: u64 = counts.values().map(|&c| c as u64).sum();
    let measured_rows: Vec<u64> = paper_rows
        .iter()
        .map(|(value, _, _)| counts.get(value).copied().unwrap_or(0) as u64)
        .collect();
    let scaled_rows = upscaled_rows(&measured_rows, total, scale);
    for (((value, exp1, exp2), measured), scaled) in
        paper_rows.iter().zip(&measured_rows).zip(scaled_rows)
    {
        let paper_count = if second { *exp2 } else { *exp1 };
        writeln!(
            out,
            "  {:<16}{:>10}{:>14}{:>10}",
            render_value(*value),
            fmt_count(*measured),
            fmt_count(scaled),
            fmt_count(paper_count)
        )
        .unwrap();
    }
    out
}

/// Table V: `SETTINGS_INITIAL_WINDOW_SIZE` distribution.
pub fn table5(records: &[ScanRecord], population: &Population) -> String {
    let rows: Vec<(Option<u32>, u64, u64)> = webpop::marginals::INITIAL_WINDOW_SIZE
        .iter()
        .map(|vc| (vc.value, vc.exp1, vc.exp2))
        .collect();
    settings_table(
        "TABLE V — SETTINGS_INITIAL_WINDOW_SIZE",
        records,
        population,
        &rows,
        |r| r.report.settings.initial_window_size,
        |v| v.map_or("NULL".to_string(), |x| fmt_count(u64::from(x))),
    )
}

/// Table VI: `SETTINGS_MAX_FRAME_SIZE` distribution.
pub fn table6(records: &[ScanRecord], population: &Population) -> String {
    let rows: Vec<(Option<u32>, u64, u64)> = webpop::marginals::MAX_FRAME_SIZE
        .iter()
        .map(|vc| (vc.value, vc.exp1, vc.exp2))
        .collect();
    settings_table(
        "TABLE VI — SETTINGS_MAX_FRAME_SIZE",
        records,
        population,
        &rows,
        |r| r.report.settings.max_frame_size,
        |v| v.map_or("NULL".to_string(), |x| fmt_count(u64::from(x))),
    )
}

/// Table VII: `SETTINGS_MAX_HEADER_LIST_SIZE` distribution.
pub fn table7(records: &[ScanRecord], population: &Population) -> String {
    let rows: Vec<(Option<u32>, u64, u64)> = webpop::marginals::MAX_HEADER_LIST_SIZE
        .iter()
        .map(|vc| {
            let value = vc.value.map(|v| {
                if v == webpop::marginals::UNLIMITED {
                    u32::MAX
                } else {
                    v
                }
            });
            (value, vc.exp1, vc.exp2)
        })
        .collect();
    settings_table(
        "TABLE VII — SETTINGS_MAX_HEADER_LIST_SIZE",
        records,
        population,
        &rows,
        |r| r.report.settings.max_header_list_size,
        |v| match v {
            None => "NULL".to_string(),
            Some(u32::MAX) => "unlimited".to_string(),
            Some(x) => fmt_count(u64::from(x)),
        },
    )
}

/// Figure 2: CDF of `SETTINGS_MAX_CONCURRENT_STREAMS`.
pub fn fig2(records: &[ScanRecord], population: &Population) -> String {
    let samples: Vec<f64> = headers_records(records)
        .iter()
        .filter_map(|r| r.report.settings.max_concurrent_streams)
        .map(f64::from)
        .collect();
    let ticks: Vec<f64> = [
        1.0, 3.0, 10.0, 30.0, 100.0, 128.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 100_000.0,
    ]
    .to_vec();
    let mut out = String::new();
    writeln!(
        out,
        "FIGURE 2 — CDF of SETTINGS_MAX_CONCURRENT_STREAMS ({})",
        population.spec().label
    )
    .unwrap();
    for (x, f) in crate::stats::cdf_points(&samples, &ticks) {
        writeln!(out, "  x = {:>9}   F(x) = {:.3}", fmt_count(x as u64), f).unwrap();
    }
    writeln!(out, "  sparkline: {}", spark_cdf(&samples, &ticks)).unwrap();
    let below_100 = crate::stats::cdf_at(&samples, 99.0);
    writeln!(
        out,
        "  majority >= 100: {} (paper: \"the majority of web sites use a value >= 100\")",
        below_100 < 0.5
    )
    .unwrap();
    out
}

/// §V-D: the four flow-control aggregates.
pub fn flow_control(records: &[ScanRecord], population: &Population) -> String {
    let spec = population.spec();
    let scale = population.scale();
    let with_headers = headers_records(records);
    let mut out = String::new();
    writeln!(out, "§V-D — Flow control in the wild ({})", spec.label).unwrap();

    // V-D1: small window outcomes.
    let mut one_byte = 0;
    let mut zero_len = 0;
    let mut no_resp = 0;
    for r in &with_headers {
        match r.report.flow_control.as_ref().map(|fc| fc.small_window) {
            Some(SmallWindowOutcome::OneByteData) => one_byte += 1,
            Some(SmallWindowOutcome::ZeroLenData) => zero_len += 1,
            Some(SmallWindowOutcome::NoResponse | SmallWindowOutcome::HeadersOnly) => no_resp += 1,
            _ => {}
        }
    }
    writeln!(out, "  [V-D1] SETTINGS_INITIAL_WINDOW_SIZE = 1:").unwrap();
    let d1_scaled = upscaled_rows(
        &[one_byte, zero_len, no_resp],
        with_headers.len() as u64,
        scale,
    );
    for ((label, measured, paper), scaled) in [
        ("1-byte DATA", one_byte, spec.small_window_one_byte),
        ("zero-length DATA", zero_len, spec.small_window_zero_len),
        ("no response", no_resp, spec.small_window_no_response),
    ]
    .into_iter()
    .zip(d1_scaled)
    {
        writeln!(
            out,
            "    {label:<18} measured {:>8}  paper-scale {:>9}  paper {:>9}",
            fmt_count(measured),
            fmt_count(scaled),
            fmt_count(paper)
        )
        .unwrap();
    }
    // Under a fault campaign, break the "no response" row down by how it
    // was established: a probe that actually waited out its deadline
    // (timeout-derived) vs a server quirk observed on a healthy link
    // (quirk-derived). Absent faults every probe carries default stats
    // and this section — like the campaign itself — is byte-identical to
    // the pre-fault pipeline.
    let faulted = records
        .iter()
        .any(|r| r.report.probe != ProbeStats::default());
    if faulted {
        let timeout_derived = with_headers
            .iter()
            .filter(|r| {
                matches!(
                    r.report.flow_control.as_ref().map(|fc| fc.small_window),
                    Some(SmallWindowOutcome::NoResponse | SmallWindowOutcome::HeadersOnly)
                ) && matches!(
                    r.report.probe.outcome,
                    ProbeOutcome::Timeout | ProbeOutcome::GaveUpAfterRetries
                )
            })
            .count();
        // A timeout-derived row is by construction also a no-response
        // row, so the subtraction cannot underflow — but the previous
        // `saturating_sub` would have silently printed "0 quirk-derived"
        // if that invariant ever broke, hiding the accounting bug.
        // Surface it in the report instead.
        match no_resp.checked_sub(timeout_derived as u64) {
            Some(quirk_derived) => writeln!(
                out,
                "    no-response rows: {timeout_derived} timeout-derived (deadline expired), {quirk_derived} quirk-derived"
            )
            .unwrap(),
            None => writeln!(
                out,
                "    ACCOUNTING ERROR: {timeout_derived} timeout-derived rows exceed the {no_resp} no-response rows observed"
            )
            .unwrap(),
        }
    }

    // V-D2: HEADERS at a zero window.
    let compliant = with_headers
        .iter()
        .filter(|r| {
            r.report
                .flow_control
                .as_ref()
                .is_some_and(|fc| fc.headers_at_zero_window)
        })
        .count();
    writeln!(
        out,
        "  [V-D2] HEADERS under zero window: measured {:>8}  paper-scale {:>9}  paper {:>9}",
        fmt_count(compliant as u64),
        fmt_count(upscaled(compliant, scale)),
        fmt_count(spec.headers_at_zero_window)
    )
    .unwrap();

    // V-D3: zero window update reactions.
    let mut rst = 0;
    let mut goaway = 0;
    let mut debug = 0;
    let mut ignored = 0;
    for r in &with_headers {
        match r
            .report
            .flow_control
            .as_ref()
            .map(|fc| fc.zero_update_stream)
        {
            Some(Reaction::RstStream) => rst += 1,
            Some(Reaction::Goaway) => goaway += 1,
            Some(Reaction::GoawayWithDebug) => debug += 1,
            Some(Reaction::Ignored) => ignored += 1,
            None => {}
        }
    }
    writeln!(out, "  [V-D3] zero WINDOW_UPDATE on a stream:").unwrap();
    let d3_scaled = upscaled_rows(
        &[rst, ignored, goaway, debug],
        with_headers.len() as u64,
        scale,
    );
    for ((label, measured, paper), scaled) in [
        ("RST_STREAM", rst, spec.zero_update_stream.rst),
        ("ignored", ignored, spec.zero_update_stream.ignored),
        ("GOAWAY", goaway, spec.zero_update_stream.goaway),
        (
            "GOAWAY + debug",
            debug,
            spec.zero_update_stream.goaway_debug,
        ),
    ]
    .into_iter()
    .zip(d3_scaled)
    {
        writeln!(
            out,
            "    {label:<18} measured {:>8}  paper-scale {:>9}  paper {:>9}",
            fmt_count(measured),
            fmt_count(scaled),
            fmt_count(paper)
        )
        .unwrap();
    }
    let conn_goaway = with_headers
        .iter()
        .filter(|r| {
            r.report.flow_control.as_ref().is_some_and(|fc| {
                matches!(
                    fc.zero_update_conn,
                    Reaction::Goaway | Reaction::GoawayWithDebug
                )
            })
        })
        .count();
    writeln!(
        out,
        "    connection scope: {} GOAWAY of {} (paper: \"nearly all\")",
        fmt_count(conn_goaway as u64),
        fmt_count(with_headers.len() as u64)
    )
    .unwrap();

    // V-D4: large window update reactions.
    let large_conn = with_headers
        .iter()
        .filter(|r| {
            r.report.flow_control.as_ref().is_some_and(|fc| {
                matches!(
                    fc.large_update_conn,
                    Reaction::Goaway | Reaction::GoawayWithDebug
                )
            })
        })
        .count();
    let large_stream = with_headers
        .iter()
        .filter(|r| {
            r.report
                .flow_control
                .as_ref()
                .is_some_and(|fc| fc.large_update_stream == Reaction::RstStream)
        })
        .count();
    writeln!(out, "  [V-D4] window increment overflowing 2^31-1:").unwrap();
    for (label, measured, paper) in [
        (
            "connection GOAWAY",
            large_conn,
            spec.large_update_conn_goaway,
        ),
        (
            "stream RST_STREAM",
            large_stream,
            spec.large_update_stream_rst,
        ),
    ] {
        writeln!(
            out,
            "    {label:<18} measured {:>8}  paper-scale {:>9}  paper {:>9}",
            fmt_count(measured as u64),
            fmt_count(upscaled(measured, scale)),
            fmt_count(paper)
        )
        .unwrap();
    }
    out
}

/// §V-E: priority orderings and self-dependency reactions.
pub fn priority(records: &[ScanRecord], population: &Population) -> String {
    let spec = population.spec();
    let scale = population.scale();
    let with_headers = headers_records(records);
    let mut by_last = 0;
    let mut by_first = 0;
    let mut by_both = 0;
    let mut self_rst = 0;
    let mut self_goaway = 0;
    let mut self_ignore = 0;
    for r in &with_headers {
        if let Some(p) = &r.report.priority {
            if p.by_last_frame {
                by_last += 1;
            }
            if p.by_first_frame {
                by_first += 1;
            }
            if p.by_both {
                by_both += 1;
            }
            match p.self_dependency {
                Reaction::RstStream => self_rst += 1,
                Reaction::Goaway | Reaction::GoawayWithDebug => self_goaway += 1,
                Reaction::Ignored => self_ignore += 1,
            }
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "§V-E — Priority mechanism in the wild ({})",
        spec.label
    )
    .unwrap();
    for (label, measured, paper) in [
        ("last-DATA-frame rule", by_last, spec.priority_by_last),
        ("first-DATA-frame rule", by_first, spec.priority_by_first),
        ("both rules", by_both, spec.priority_by_both),
    ] {
        writeln!(
            out,
            "  {label:<22} measured {:>7}  paper-scale {:>8}  paper {:>8}",
            fmt_count(measured),
            fmt_count(upscaled(measured as usize, scale)),
            fmt_count(paper)
        )
        .unwrap();
    }
    writeln!(out, "  self-dependent stream reactions:").unwrap();
    let self_scaled = upscaled_rows(
        &[self_rst, self_goaway, self_ignore],
        with_headers.len() as u64,
        scale,
    );
    for ((label, measured, paper), scaled) in [
        ("RST_STREAM", self_rst, spec.self_dependency.rst),
        ("GOAWAY", self_goaway, spec.self_dependency.goaway),
        ("ignored", self_ignore, spec.self_dependency.ignored),
    ]
    .into_iter()
    .zip(self_scaled)
    {
        writeln!(
            out,
            "    {label:<20} measured {:>7}  paper-scale {:>8}  paper {:>8}",
            fmt_count(measured),
            fmt_count(scaled),
            fmt_count(paper)
        )
        .unwrap();
    }
    out
}

/// §V-F (counts only; Figure 3 timing lives in `figures`).
pub fn push_adoption(records: &[ScanRecord], population: &Population) -> String {
    let spec = population.spec();
    let with_headers = headers_records(records);
    let push_sites: Vec<&&ScanRecord> = with_headers
        .iter()
        .filter(|r| r.report.push.as_ref().is_some_and(|p| p.supported))
        .collect();
    let mut out = String::new();
    writeln!(out, "§V-F — Server push in the wild ({})", spec.label).unwrap();
    writeln!(
        out,
        "  sites pushing on the front page: measured {} (paper {} at full scale)",
        push_sites.len(),
        spec.push_sites
    )
    .unwrap();
    for record in push_sites.iter().take(20) {
        let push = record.report.push.as_ref().expect("filtered");
        writeln!(
            out,
            "    {:<34} {} promised objects, {} pushed octets",
            record.report.authority,
            push.promised_paths.len(),
            fmt_count(push.pushed_octets)
        )
        .unwrap();
    }
    out
}

/// Figures 4/5: HPACK compression ratio CDFs for the top five families.
pub fn hpack_figure(records: &[ScanRecord], population: &Population) -> String {
    use webpop::Family;
    let spec = population.spec();
    let figure = if spec.second { "FIGURE 5" } else { "FIGURE 4" };
    let mut out = String::new();
    writeln!(
        out,
        "{figure} — HPACK compression ratio CDFs by server family ({})",
        spec.label
    )
    .unwrap();
    let families = [
        (Family::Gse, "GSE"),
        (Family::Nginx, "nginx"),
        (Family::Tengine, "Tengine"),
        (Family::Litespeed, "litespeed"),
        (Family::IdeaWeb, "ideaweb"),
    ];
    let ticks: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let mut kept_total = 0usize;
    for (family, label) in families {
        let mut ratios: Vec<f64> = Vec::new();
        let mut filtered = 0usize;
        for r in headers_records(records) {
            if r.family != family {
                continue;
            }
            if let Some(h) = &r.report.hpack {
                if h.filtered() {
                    filtered += 1; // the paper's r > 1 cookie filter
                } else {
                    ratios.push(h.ratio);
                }
            }
        }
        kept_total += ratios.len();
        if ratios.is_empty() {
            writeln!(out, "  {label:<10} (no sites at this scale)").unwrap();
            continue;
        }
        writeln!(
            out,
            "  {label:<10} n={:<5} filtered(r>1)={:<4} median={:.3}  P(r<0.3)={:.2}  P(r=1)={:.2}  cdf {}",
            ratios.len(),
            filtered,
            crate::stats::quantile(&ratios, 0.5),
            crate::stats::cdf_at(&ratios, 0.3),
            ratios.iter().filter(|&&r| (r - 1.0).abs() < 1e-9).count() as f64
                / ratios.len() as f64,
            spark_cdf(&ratios, &ticks),
        )
        .unwrap();
    }
    writeln!(
        out,
        "  kept sites across families: {} (paper kept {} of all families)",
        fmt_count(kept_total as u64),
        fmt_count(spec.hpack_sites_kept)
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpop::ExperimentSpec;

    /// Scales exercised by the consistency tests: the paper's own 1.0
    /// plus the fractional scales where independent per-row rounding
    /// used to drift from the rounded column total.
    const SCALES: [f64; 7] = [1.0, 0.5, 0.25, 0.1, 0.04, 0.01, 0.003];

    /// First number after `key` on the first line of `text` containing
    /// `marker`, with thousands separators stripped.
    fn num_after(text: &str, marker: &str, key: &str) -> u64 {
        let line = text
            .lines()
            .find(|l| l.contains(marker))
            .unwrap_or_else(|| panic!("no line matching {marker:?}"));
        let rest = line.split(key).nth(1).unwrap_or_else(|| {
            panic!("no {key:?} on line {line:?}");
        });
        let token = rest.split_whitespace().next().expect("value after key");
        token.replace(',', "").parse().expect("numeric token")
    }

    /// Every value in the table's paper-scale column, in row order.
    fn scaled_column(table: &str) -> Vec<u64> {
        table
            .lines()
            .skip(2) // title + column header
            .filter_map(|l| {
                let mut fields = l.split_whitespace().rev();
                let _paper = fields.next()?;
                Some(fields.next()?.replace(',', "").parse().expect("count"))
            })
            .collect()
    }

    #[test]
    fn upscaled_rows_sum_exactly_when_rows_partition_the_total() {
        let counts = [317u64, 204, 96, 83];
        let total: u64 = counts.iter().sum();
        for scale in SCALES {
            let shares = upscaled_rows(&counts, total, scale);
            assert_eq!(
                shares.iter().sum::<u64>(),
                upscaled(total as usize, scale),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn upscaled_rows_leave_room_for_the_unlisted_remainder() {
        let counts = [317u64, 204, 96];
        let total = 700u64; // 83 sites not listed by the table
        for scale in SCALES {
            let shares = upscaled_rows(&counts, total, scale);
            let listed: u64 = shares.iter().sum();
            let column_total = upscaled(total as usize, scale);
            assert!(listed <= column_total, "scale {scale}");
            // The implicit remainder row absorbs exactly the rest.
            let full = upscaled_rows(&[317, 204, 96, 83], total, scale);
            assert_eq!(full.iter().sum::<u64>(), column_total, "scale {scale}");
            // Apportionment stays within one unit of naive rounding.
            for (share, &count) in shares.iter().zip(&counts) {
                let naive = upscaled(count as usize, scale);
                assert!(share.abs_diff(naive) <= 1, "scale {scale}");
            }
        }
    }

    #[test]
    fn settings_table_scaled_column_sums_to_the_upscaled_headers_total() {
        // Table V's rows cover every generated value, so its paper-scale
        // column must sum to the upscaled headers total exactly — the
        // consistency independent per-row rounding could not guarantee.
        for scale in [0.05, 0.01, 0.003] {
            let population = Population::new(ExperimentSpec::first(), scale);
            let records = ScanPool::new(2).scan(&population);
            let headers = headers_records(&records).len();
            let column = scaled_column(&table5(&records, &population));
            assert_eq!(
                column.iter().sum::<u64>(),
                upscaled(headers, scale),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn faulted_no_response_split_accounts_for_every_row() {
        let population = Population::new(ExperimentSpec::first(), 0.01);
        let records = ScanPool::new(2).scan_faulted_with_obs(
            &population,
            h2fault::FaultProfile::flaky(),
            7,
            &h2obs::Obs::off(),
        );
        let report = flow_control(&records, &population);
        assert!(
            !report.contains("ACCOUNTING ERROR"),
            "timeout-derived rows exceeded observed no-response rows:\n{report}"
        );
        assert!(
            report.contains("no-response rows:"),
            "faulted split missing"
        );
        let no_resp = num_after(&report, "no response", "measured");
        let timeout_derived = num_after(&report, "no-response rows:", "no-response rows:");
        let quirk_derived = num_after(&report, "no-response rows:", "(deadline expired),");
        assert_eq!(timeout_derived + quirk_derived, no_resp);
    }
}
