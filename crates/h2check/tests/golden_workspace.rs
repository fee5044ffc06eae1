//! Golden snapshot of the full `--workspace` run, plus pinned
//! cross-validation counts so silent registry shrinkage (a drift check
//! covering fewer quirks/probes/transitions than before) fails loudly.
//!
//! When a legitimate change shifts the waiver tallies, regenerate with:
//! `cargo run -p h2check -- --workspace > crates/h2check/tests/golden_workspace.txt`

use h2check::workspace::{repo_root, run_workspace};

const GOLDEN: &str = include_str!("golden_workspace.txt");

#[test]
fn workspace_run_matches_golden_snapshot() {
    let report = run_workspace(&repo_root());
    let rendered = report.render();
    assert_eq!(
        rendered, GOLDEN,
        "workspace report drifted from the golden snapshot; \
         if intentional, regenerate golden_workspace.txt"
    );
}

#[test]
fn workspace_passes_with_deny_warnings() {
    let report = run_workspace(&repo_root());
    assert!(!report.failed(true), "{}", report.render());
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 0);
}

/// Regression pins for the cross-validation coverage itself: the spec
/// tables must keep covering every transition, quirk, probe and
/// dynamic-behavior comparison. A drop in any of these numbers means a
/// registry entry was removed without its drift check noticing.
#[test]
fn cross_validation_counts_are_pinned() {
    let report = run_workspace(&repo_root());
    let drift = report.drift.join("\n");
    for expected in [
        "§5.1 transitions: 56/56",
        "§5.1 capabilities: 7/7",
        "§5.1 receive legality: 7/7",
        "§6 frame rules: 10/10",
        "§7 error taxonomy: 9/9",
        "settings bounds: 10/10 boundary probes, 7/7 profile announcements",
        "quirk registry: 32/32",
        "probe registry: 24/24",
        "dynamic quirks: 105/105",
        "hpack §A static table: 61/61",
        "hpack §B huffman: 257/257 codes canonical, 256/256 codewords decode, EOS rejected",
        "hpack §5.1 integers: 16/16 boundaries round-trip, 2/2 overflows refused, \
         2/2 truncations detected",
        "hpack §4.1 entry sizes: 8/8",
        "hpack §4.3 eviction: 7/7",
        "hpack §6.3 size updates: 5/5",
        "atomics registry: 64/64 ordering uses sanctioned, 24/24 declarations registered \
         (0 stale rows)",
    ] {
        assert!(
            drift.contains(expected),
            "missing pinned drift line `{expected}` in:\n{drift}"
        );
    }
}
