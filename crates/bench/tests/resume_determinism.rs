//! The campaign record's crash-safety contract, end to end: a scan that
//! is killed at an arbitrary point and resumed — possibly at a different
//! thread count — finalizes a record byte-identical to an uninterrupted
//! run. Rows depend only on `(population, index)` and the finalized
//! bytes only on `(meta, row set)`, so nothing about scheduling, crash
//! timing or worker count may leak into the record.

use std::path::{Path, PathBuf};

use h2fault::{FaultProfile, KillPoint};
use h2obs::Obs;
use h2ready_bench::scan::{self, RecordedScan};
use h2ready_bench::sched::ScanPool;
use webpop::{ExperimentSpec, Population};

const SCALE: f64 = 0.004;
const SEED: u64 = 11;

fn population() -> Population {
    Population::new(ExperimentSpec::first(), SCALE)
}

/// A collision-free scratch path inside the build's temp dir.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("h2ready-resume-{}-{tag}.h2c", std::process::id()))
}

fn record_uninterrupted(path: &Path, threads: usize) -> Vec<scan::ScanRecord> {
    let outcome = ScanPool::new(threads)
        .scan_recorded(
            &population(),
            FaultProfile::flaky(),
            SEED,
            &Obs::off(),
            path,
            false,
            None,
        )
        .expect("recorded scan");
    match outcome {
        RecordedScan::Complete { records, resumed } => {
            assert_eq!(resumed, 0, "fresh run resumed nothing");
            records
        }
        RecordedScan::Killed { .. } => panic!("no kill point was set"),
    }
}

#[test]
fn killed_and_resumed_records_are_byte_identical_to_uninterrupted() {
    let golden_path = scratch("golden");
    record_uninterrupted(&golden_path, 1);
    let golden = std::fs::read(&golden_path).expect("golden bytes");

    let total = population().h2_count();
    // Three seeded kill points (early / middle / last-but-one), each
    // killed at one thread count and resumed at another.
    for (k, kill) in KillPoint::seeded(total, SEED).into_iter().enumerate() {
        for (kill_threads, resume_threads) in [(1, 4), (4, 1)] {
            let path = scratch(&format!("kill{k}-t{kill_threads}"));
            let outcome = ScanPool::new(kill_threads)
                .scan_recorded(
                    &population(),
                    FaultProfile::flaky(),
                    SEED,
                    &Obs::off(),
                    &path,
                    false,
                    Some(kill),
                )
                .expect("killed scan");
            let rows = match outcome {
                RecordedScan::Killed { rows } => rows,
                RecordedScan::Complete { .. } => panic!("kill point did not fire"),
            };
            assert!(rows >= kill.after_rows, "durable rows reach the kill point");
            // In-flight sites (at most one per extra worker) may still
            // land after the kill fires; only a kill point with enough
            // headroom is guaranteed to leave work behind.
            assert!(rows <= total);
            if kill.after_rows + kill_threads as u64 <= total {
                assert!(rows < total, "the crash left work behind");
            }

            let resumed_outcome = ScanPool::new(resume_threads)
                .scan_recorded(
                    &population(),
                    FaultProfile::flaky(),
                    SEED,
                    &Obs::off(),
                    &path,
                    true,
                    None,
                )
                .expect("resumed scan");
            let (records, resumed) = match resumed_outcome {
                RecordedScan::Complete { records, resumed } => (records, resumed),
                RecordedScan::Killed { .. } => panic!("resume had no kill point"),
            };
            assert!(
                resumed >= kill.after_rows,
                "rows were preloaded, not rescanned"
            );
            assert_eq!(records.len() as u64, total);

            let resumed_bytes = std::fs::read(&path).expect("resumed bytes");
            assert_eq!(
                resumed_bytes, golden,
                "kill point {k} at {kill_threads}→{resume_threads} threads diverged"
            );
            std::fs::remove_file(&path).ok();
        }
    }
    std::fs::remove_file(&golden_path).ok();
}

#[test]
fn recorded_scan_returns_the_same_records_as_the_plain_scan() {
    let path = scratch("parity");
    let recorded = record_uninterrupted(&path, 4);
    let plain = ScanPool::new(2).scan_faulted_with_obs(
        &population(),
        FaultProfile::flaky(),
        SEED,
        &Obs::off(),
    );
    assert_eq!(recorded.len(), plain.len());
    for (a, b) in recorded.iter().zip(&plain) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.family, b.family);
        assert_eq!(a.report, b.report);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_a_finalized_record_is_a_no_op() {
    let path = scratch("noop");
    record_uninterrupted(&path, 2);
    let before = std::fs::read(&path).expect("finalized bytes");
    let obs = Obs::campaign(0);
    let outcome = ScanPool::new(3)
        .scan_recorded(
            &population(),
            FaultProfile::flaky(),
            SEED,
            &obs,
            &path,
            true,
            None,
        )
        .expect("resume of finalized record");
    let RecordedScan::Complete { records, resumed } = outcome else {
        panic!("no kill point was set");
    };
    assert_eq!(resumed, population().h2_count());
    assert_eq!(records.len() as u64, resumed);
    assert_eq!(obs.snapshot().expect("on").sites_resumed, resumed);
    assert_eq!(
        std::fs::read(&path).expect("bytes"),
        before,
        "record untouched"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_scan_is_byte_identical_to_single_thread_for_every_campaign_kind() {
    // The sharding contract, pinned at the byte level: per-worker
    // simulators, RNG streams, obs shards and buffer pools may never
    // leak into what a campaign produces. Every campaign kind the
    // engine supports is compared against its single-thread run.
    let population = population();
    let serialize = |records: &[scan::ScanRecord]| {
        h2scope::storage::write_reports(records.iter().map(|r| &r.report))
    };

    let plain_1t = serialize(&ScanPool::new(1).scan(&population));
    for threads in [2, 8, 16] {
        assert_eq!(
            plain_1t,
            serialize(&ScanPool::new(threads).scan(&population)),
            "plain scan diverged at {threads} threads"
        );
    }

    let faulted_1t = serialize(&ScanPool::new(1).scan_faulted_with_obs(
        &population,
        FaultProfile::flaky(),
        SEED,
        &Obs::off(),
    ));
    for threads in [2, 8, 16] {
        assert_eq!(
            faulted_1t,
            serialize(&ScanPool::new(threads).scan_faulted_with_obs(
                &population,
                FaultProfile::flaky(),
                SEED,
                &Obs::off()
            )),
            "faulted scan diverged at {threads} threads"
        );
    }

    let golden_path = scratch("shard-golden");
    record_uninterrupted(&golden_path, 1);
    let recorded_1t = std::fs::read(&golden_path).expect("golden bytes");
    for threads in [2, 8, 16] {
        let path = scratch(&format!("shard-{threads}t"));
        record_uninterrupted(&path, threads);
        assert_eq!(
            recorded_1t,
            std::fs::read(&path).expect("sharded bytes"),
            "recorded campaign diverged at {threads} threads"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&golden_path).ok();
}

#[test]
fn a_reused_pool_records_kills_and_resumes_byte_identically() {
    // The persistent-pool contract: workers that already ran other
    // campaigns (warmed thread-local buffer pools, consumed RNG
    // streams, dirty scratch state) must record and resume exactly like
    // freshly spawned single-thread workers.
    let golden_path = scratch("pool-golden");
    record_uninterrupted(&golden_path, 1);
    let golden = std::fs::read(&golden_path).expect("golden bytes");

    let population = population();
    let mut pool = ScanPool::new(3);
    // Dirty the pool with unrelated campaigns first.
    pool.scan(&population);
    pool.scan_faulted_with_obs(
        &population,
        FaultProfile::flaky(),
        SEED ^ 0xdead,
        &Obs::off(),
    );

    let kill = KillPoint::seeded(population.h2_count(), SEED)[1];
    let path = scratch("pool-reuse");
    let outcome = pool
        .scan_recorded(
            &population,
            FaultProfile::flaky(),
            SEED,
            &Obs::off(),
            &path,
            false,
            Some(kill),
        )
        .expect("killed scan");
    assert!(
        matches!(outcome, RecordedScan::Killed { .. }),
        "kill point did not fire"
    );

    // Resume on the SAME pool the crash happened on.
    let resumed = pool
        .scan_recorded(
            &population,
            FaultProfile::flaky(),
            SEED,
            &Obs::off(),
            &path,
            true,
            None,
        )
        .expect("resumed scan");
    let RecordedScan::Complete { records, resumed } = resumed else {
        panic!("resume had no kill point");
    };
    assert!(resumed >= kill.after_rows);
    assert_eq!(records.len() as u64, population.h2_count());
    assert_eq!(
        std::fs::read(&path).expect("resumed bytes"),
        golden,
        "pool reuse across record→resume diverged from a fresh run"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&golden_path).ok();
}

#[test]
fn resume_refuses_a_record_from_a_different_campaign() {
    let path = scratch("mismatch");
    record_uninterrupted(&path, 2);
    let err = ScanPool::new(2)
        .scan_recorded(
            &population(),
            FaultProfile::flaky(),
            SEED + 1, // different campaign seed
            &Obs::off(),
            &path,
            true,
            None,
        )
        .expect_err("seed mismatch must be rejected");
    assert!(err.to_string().contains("seed"), "unhelpful error: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn diff_of_stored_records_matches_the_in_memory_campaign() {
    let path_a = scratch("diff-a");
    let path_b = scratch("diff-b");
    let records_a = record_uninterrupted(&path_a, 2);
    let outcome = ScanPool::new(2)
        .scan_recorded(
            &Population::new(ExperimentSpec::second(), SCALE),
            FaultProfile::flaky(),
            SEED,
            &Obs::off(),
            &path_b,
            false,
            None,
        )
        .expect("recorded scan");
    let RecordedScan::Complete {
        records: records_b, ..
    } = outcome
    else {
        panic!("no kill point was set");
    };

    let a = h2campaign::read(&path_a).expect("stored a");
    let b = h2campaign::read(&path_b).expect("stored b");
    let diff = h2campaign::diff_records(&a, &b);
    let npn = |records: &[scan::ScanRecord]| {
        records
            .iter()
            .filter(|r| r.report.negotiation.npn_h2)
            .count() as u64
    };
    let adoption = diff
        .adoption
        .iter()
        .find(|d| d.name == "NPN h2")
        .expect("NPN row");
    assert_eq!(adoption.a, npn(&records_a), "stored diff vs in-memory scan");
    assert_eq!(adoption.b, npn(&records_b));
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}
