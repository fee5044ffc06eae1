//! Parallel scan driver: surveys a whole synthetic population with a
//! thread pool, the reproduction of the paper's §IV-B scanning loop
//! ("we construct a thread pool with configurable number of threads, each
//! of which will test a web site").
//!
//! Every scan variant — plain, faulted, recorded, resumed — runs through
//! one worker loop, `ScanPool::map_indexed`, on a [`ScanPool`] of
//! persistent workers (a recorded scan maps over its to-do list: every
//! site, or the sites a partial record lacks). Each worker is a shared-nothing
//! simulator shard: it owns its [`H2Scope`] scratch state, an
//! [`Obs::worker_shard`] counter registry, and (per connection) a
//! private netsim event loop, touching shared state only to claim the
//! next chunk of site indices and to deposit finished records into
//! index-addressed [`Slots`]. Because every record depends only on
//! `(population, index, fault plan, seed)` — never on which worker ran
//! it or when — all outputs are byte-identical at any thread count.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use h2campaign::{CampaignMeta, CampaignRow, RecordError, RecordWriter};
use h2fault::{splitmix64, FaultPlan, FaultProfile, KillPoint};
use h2obs::Obs;
use h2scope::{survey_with_retries, H2Scope, ProbeOutcome, SiteReport};
use netsim::time::SimDuration;
use webpop::{Population, SiteSample};

use crate::sched::{ScanPool, Slots, WorkQueue};

/// One scanned site: its index, its generated family (ground truth, so
/// family-conditioned figures don't have to re-parse server strings) and
/// what H2Scope measured — exactly the row a campaign record persists.
pub type ScanRecord = CampaignRow;

impl ScanPool {
    /// The one worker loop every pooled job runs on — scans, recorded
    /// scans, the push study and abuse campaigns. Each worker builds its
    /// private state once with `init`, claims adaptively-sized chunks of
    /// `0..total` from a shared [`WorkQueue`], and deposits `work(&state,
    /// i)` into index-addressed [`Slots`]; the results come back in
    /// index order.
    pub(crate) fn map_indexed<S, T>(
        &mut self,
        total: u64,
        init: impl Fn() -> S + Send + Sync + 'static,
        work: impl Fn(&S, u64) -> T + Send + Sync + 'static,
    ) -> Vec<T>
    where
        T: Send + Sync + 'static,
    {
        let queue = WorkQueue::new(total, self.threads());
        let slots = Arc::new(Slots::new(total as usize));
        let shared = Arc::clone(&slots);
        self.broadcast(move |_worker| {
            let state = init();
            while let Some(range) = queue.claim() {
                for i in range {
                    shared.put(i as usize, work(&state, i));
                }
            }
        });
        Arc::into_inner(slots)
            .expect("broadcast returns only after every job dropped its state")
            .into_vec()
    }

    /// Scans every h2 site of the population on this pool's workers,
    /// returning records in index order.
    pub fn scan(&mut self, population: &Population) -> Vec<ScanRecord> {
        self.scan_faulted_with_obs(population, FaultProfile::none(), 0, &Obs::off())
    }

    /// Scans the population under a fault profile: every site's probes
    /// run against an impaired link (and possibly a byzantine server)
    /// derived deterministically from `(seed, site index, attempt)`, with
    /// deadlines and retry/backoff from the profile. With the `none`
    /// profile this is exactly [`ScanPool::scan`].
    ///
    /// Per-site metrics and (for sites under the `--trace-sites` limit)
    /// frame-level traces go to `obs`, each worker recording through its
    /// own [`Obs::worker_shard`]; with `Obs::off()` nothing is recorded.
    /// All of a site's retry attempts share one per-site context, so
    /// retry telemetry and trace events accumulate across attempts.
    pub fn scan_faulted_with_obs(
        &mut self,
        population: &Population,
        profile: FaultProfile,
        seed: u64,
        obs: &Obs,
    ) -> Vec<ScanRecord> {
        let plan = (!profile.is_none()).then(|| FaultPlan::new(profile, seed));
        let population = population.clone();
        self.map_indexed(
            population.h2_count(),
            scan_worker(obs),
            move |(scope_tool, obs), i| {
                scan_one(scope_tool, &population, i, plan.as_ref(), seed, obs)
            },
        )
    }

    /// [`ScanPool::scan_faulted_with_obs`] with persistence: every
    /// finished site is appended (and flushed) to the campaign record at
    /// `path` before the worker moves on, so a killed process loses at
    /// most its in-flight sites. With `resume`, a partial record at
    /// `path` is validated against this campaign's configuration, its
    /// rows are preloaded, and only the missing sites are scanned. Either
    /// way a completed campaign finalizes the record into canonical index
    /// order — which is why a resumed campaign's final record is
    /// byte-identical to an uninterrupted one at any thread count: rows
    /// depend only on `(population, index)` and the final bytes only on
    /// `(meta, row set)`.
    ///
    /// # Errors
    ///
    /// [`RecordError`] on I/O failure, a malformed record, or a resume
    /// against a record from a different campaign configuration.
    #[allow(clippy::too_many_arguments)] // the CLI's one call site names them all
    pub fn scan_recorded(
        &mut self,
        population: &Population,
        profile: FaultProfile,
        seed: u64,
        obs: &Obs,
        path: &Path,
        resume: bool,
        kill: Option<KillPoint>,
    ) -> Result<RecordedScan, RecordError> {
        let total = population.h2_count();
        let meta = CampaignMeta::describe(population, profile.name, seed);

        let mut preloaded: Vec<CampaignRow> = Vec::new();
        if resume {
            let stored = h2campaign::read(path)?;
            meta.ensure_matches(&stored.meta)?;
            if stored.finalized {
                // Nothing to do — surface the stored campaign unchanged.
                obs.sites_resumed(stored.rows.len() as u64);
                return Ok(RecordedScan::Complete {
                    records: stored.rows,
                    resumed: total,
                });
            }
            preloaded = stored.rows;
        }
        let resumed = preloaded.len() as u64;
        obs.sites_resumed(resumed);
        let writer = if resume {
            RecordWriter::append_to(path, resumed)?
        } else {
            RecordWriter::create(path, &meta)?
        };
        // `read` returns rows sorted, unique and in range, so the to-do
        // list is their complement in index order.
        let mut present = vec![false; total as usize];
        for row in &preloaded {
            present[row.index as usize] = true;
        }
        let todo: Vec<u64> = (0..total).filter(|&i| !present[i as usize]).collect();

        let plan = (!profile.is_none()).then(|| FaultPlan::new(profile, seed));
        let population = population.clone();
        let killed = AtomicBool::new(false);
        let kill_after = kill.map(|k| k.after_rows);
        let scanned = self.map_indexed(
            todo.len() as u64,
            scan_worker(obs),
            move |(scope_tool, obs), position| {
                if killed.load(Ordering::Relaxed) {
                    return None;
                }
                let i = todo[position as usize];
                let row = scan_one(scope_tool, &population, i, plan.as_ref(), seed, obs);
                // A record that cannot persist its rows has lost its
                // crash-safety contract; stop the campaign.
                let written = writer.append(&row).expect("campaign record append");
                if kill_after.is_some_and(|k| written >= k) {
                    killed.store(true, Ordering::Relaxed);
                }
                Some(row)
            },
        );
        // Appends return the running row count, so the kill point fired
        // exactly when this run appended and the journal reached it.
        let appended = scanned.iter().flatten().count() as u64;
        let rows = resumed + appended;
        if appended > 0 && kill_after.is_some_and(|k| rows >= k) {
            return Ok(RecordedScan::Killed { rows });
        }
        let mut preloaded = preloaded.into_iter();
        let mut scanned = scanned.into_iter().flatten();
        let records: Vec<ScanRecord> = present
            .iter()
            .filter_map(|&p| if p { preloaded.next() } else { scanned.next() })
            .collect();
        h2campaign::finalize(path, &meta, &records)?;
        Ok(RecordedScan::Complete { records, resumed })
    }
}

/// A scan worker's private state: its [`H2Scope`] scratch and its
/// [`Obs::worker_shard`].
fn scan_worker(obs: &Obs) -> impl Fn() -> (H2Scope, Obs) + Send + Sync + 'static {
    let obs = obs.clone();
    move || (H2Scope::new(), obs.worker_shard())
}

/// Surveys one site through the single code path every scan variant
/// shares — in-memory, recorded, and resumed campaigns must produce
/// identical reports, so there is exactly one place that builds targets.
fn survey_one(
    scope_tool: &H2Scope,
    site: &SiteSample,
    plan: Option<&FaultPlan>,
    seed: u64,
    site_obs: &Obs,
) -> SiteReport {
    let Some(plan) = plan else {
        let mut target = site.target();
        target.obs = site_obs.clone();
        return scope_tool.survey(&target);
    };
    survey_with_retries(
        scope_tool,
        plan.profile().retry,
        splitmix64(seed ^ site.index),
        |attempt| {
            let injection = plan.injection(site.index, attempt);
            let mut target = site.target();
            target.obs = site_obs.clone();
            target.link = injection.impairment.apply(target.link);
            target.pipe_faults = injection.impairment.pipe_faults();
            target.patience = Some(plan.profile().deadline);
            target.seed ^= injection.seed_salt;
            if !injection.byzantine.is_noop() {
                // The rare byzantine attempt is the one place a target's
                // shared profile is customized; `make_mut` clones only
                // then, keeping clean attempts at pointer-bump cost.
                std::sync::Arc::make_mut(&mut target.profile)
                    .behavior
                    .byzantine = Some(injection.byzantine);
            }
            target
        },
    )
}

/// Scans site `i` end to end: survey (clean or faulted), per-site obs
/// bookkeeping, record assembly.
fn scan_one(
    scope_tool: &H2Scope,
    population: &Population,
    i: u64,
    plan: Option<&FaultPlan>,
    seed: u64,
    obs: &Obs,
) -> ScanRecord {
    let site = population.site(i);
    let site_obs = obs.for_site(i);
    let report = survey_one(scope_tool, &site, plan, seed, &site_obs);
    site_obs.finish_site();
    ScanRecord {
        index: i,
        family: site.family,
        report,
    }
}

/// Records restricted to HEADERS-returning sites (the denominator of every
/// follow-up analysis).
pub fn headers_records(records: &[ScanRecord]) -> Vec<&ScanRecord> {
    records
        .iter()
        .filter(|r| r.report.headers_received)
        .collect()
}

/// How a recorded scan ([`ScanPool::scan_recorded`]) ended.
#[derive(Debug)]
pub enum RecordedScan {
    /// The campaign completed and the record on disk was finalized.
    Complete {
        /// All records, in index order.
        records: Vec<ScanRecord>,
        /// Sites preloaded from a partial record instead of scanned.
        resumed: u64,
    },
    /// A [`KillPoint`] fired: the journal holds `rows` durable rows and
    /// no `end|` trailer — the on-disk state of a crashed campaign.
    Killed {
        /// Rows persisted before the simulated crash.
        rows: u64,
    },
}

/// The scan report's resilience section: outcome histogram plus
/// retry/backoff accounting (printed by `repro` for faulted campaigns).
pub fn fault_summary(records: &[ScanRecord]) -> String {
    let mut counts = [0usize; 5];
    let mut attempts = 0u64;
    let mut retried = 0usize;
    let mut backoff = SimDuration::ZERO;
    for record in records {
        let stats = &record.report.probe;
        let slot = match stats.outcome {
            ProbeOutcome::Ok => 0,
            ProbeOutcome::Timeout => 1,
            ProbeOutcome::ConnReset => 2,
            ProbeOutcome::Malformed => 3,
            ProbeOutcome::GaveUpAfterRetries => 4,
        };
        counts[slot] += 1;
        attempts += u64::from(stats.attempts);
        if stats.attempts > 1 {
            retried += 1;
        }
        backoff = backoff + stats.backoff;
    }
    let mut out = String::new();
    out.push_str("Scan resilience\n");
    out.push_str(&format!("  sites scanned      {}\n", records.len()));
    out.push_str(&format!("  ok                 {}\n", counts[0]));
    out.push_str(&format!("  timeout            {}\n", counts[1]));
    out.push_str(&format!("  conn-reset         {}\n", counts[2]));
    out.push_str(&format!("  malformed          {}\n", counts[3]));
    out.push_str(&format!("  gave-up-after-retries {}\n", counts[4]));
    out.push_str(&format!(
        "  attempts           {attempts} total, {retried} sites retried\n"
    ));
    out.push_str(&format!(
        "  backoff spent      {:.1} s simulated\n",
        backoff.as_millis_f64() / 1_000.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpop::ExperimentSpec;

    fn plain(population: &Population, threads: usize) -> Vec<ScanRecord> {
        ScanPool::new(threads).scan(population)
    }

    fn faulted(
        population: &Population,
        threads: usize,
        profile: FaultProfile,
        seed: u64,
    ) -> Vec<ScanRecord> {
        ScanPool::new(threads).scan_faulted_with_obs(population, profile, seed, &Obs::off())
    }

    #[test]
    fn scan_covers_the_population_in_order() {
        let population = Population::new(ExperimentSpec::first(), 0.001);
        let records = plain(&population, 4);
        assert_eq!(records.len() as u64, population.h2_count());
        assert!(records.windows(2).all(|w| w[0].index < w[1].index));
        let with_headers = headers_records(&records);
        // 0.1% scale: 44 of 52 sites return headers.
        assert_eq!(with_headers.len() as u64, population.headers_count());
    }

    #[test]
    fn scan_is_deterministic_across_thread_counts() {
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let a = plain(&population, 1);
        let b = plain(&population, 7);
        let c = plain(&population, 16);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), c.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.report, y.report);
            assert_eq!(x.report, z.report, "16 threads diverged");
        }
    }

    #[test]
    fn reused_pool_matches_fresh_pools() {
        // A persistent pool run back-to-back (the benchmark's steady
        // state) must produce exactly what transient pools produce —
        // worker reuse cannot leak state between campaigns.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let fresh_plain = plain(&population, 4);
        let fresh_faulted = faulted(&population, 4, FaultProfile::flaky(), 0xfa17);
        let mut pool = ScanPool::new(4);
        for _round in 0..2 {
            let plain = pool.scan(&population);
            let faulted =
                pool.scan_faulted_with_obs(&population, FaultProfile::flaky(), 0xfa17, &Obs::off());
            assert_eq!(plain.len(), fresh_plain.len());
            for (x, y) in plain.iter().zip(&fresh_plain) {
                assert_eq!(x.report, y.report);
            }
            for (x, y) in faulted.iter().zip(&fresh_faulted) {
                assert_eq!(x.report, y.report);
            }
        }
    }

    #[test]
    fn faulted_scan_is_byte_identical_across_thread_counts() {
        // A loss+jitter+drop campaign must replay exactly at any thread
        // count: faults derive from (seed, site, attempt), never from
        // scheduling.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let profile = FaultProfile::flaky();
        let a = faulted(&population, 1, profile, 0xfa17);
        let b = faulted(&population, 4, profile, 0xfa17);
        let c = faulted(&population, 8, profile, 0xfa17);
        let d = faulted(&population, 16, profile, 0xfa17);
        let serialize = |records: &[ScanRecord]| {
            h2scope::storage::write_reports(records.iter().map(|r| &r.report))
        };
        let (sa, sb, sc, sd) = (serialize(&a), serialize(&b), serialize(&c), serialize(&d));
        assert_eq!(sa, sb, "1 vs 4 threads");
        assert_eq!(sb, sc, "4 vs 8 threads");
        assert_eq!(sc, sd, "8 vs 16 threads");
        // The campaign actually exercised the impairments: some probes
        // resolved to degraded outcomes, and some sites burned retries.
        assert!(
            a.iter().any(|r| r.report.probe.outcome != ProbeOutcome::Ok),
            "flaky profile should degrade some sites"
        );
        assert!(a.iter().any(|r| r.report.probe.attempts > 1));
    }

    #[test]
    fn faulted_scan_with_none_profile_matches_plain_scan() {
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let plain = plain(&population, 4);
        let faultless = faulted(&population, 4, FaultProfile::none(), 99);
        assert_eq!(plain.len(), faultless.len());
        for (x, y) in plain.iter().zip(&faultless) {
            assert_eq!(x.report, y.report);
        }
    }

    #[test]
    fn faulted_campaign_seeds_change_the_outcome_mix() {
        // Retries mask most injected faults, so the outcome enum alone can
        // coincide; the serialized records (attempts, backoff, outcomes)
        // must still differ between seeds.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let profile = FaultProfile::flaky();
        let a = faulted(&population, 4, profile, 1);
        let b = faulted(&population, 4, profile, 2);
        let serialize = |records: &[ScanRecord]| {
            h2scope::storage::write_reports(records.iter().map(|r| &r.report))
        };
        assert_ne!(
            serialize(&a),
            serialize(&b),
            "different seeds, different faults"
        );
    }

    #[test]
    fn metrics_recording_does_not_perturb_the_records() {
        // The tentpole's contract: --metrics is observation only. The
        // serialized reports of an instrumented scan must be byte-identical
        // to the uninstrumented baseline.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let serialize = |records: &[ScanRecord]| {
            h2scope::storage::write_reports(records.iter().map(|r| &r.report))
        };
        let plain = serialize(&plain(&population, 4));
        let obs = Obs::campaign(2);
        let observed = serialize(&ScanPool::new(4).scan_faulted_with_obs(
            &population,
            FaultProfile::none(),
            0,
            &obs,
        ));
        assert_eq!(plain, observed, "plain scan perturbed by metrics");
        let faulted = serialize(&faulted(&population, 4, FaultProfile::flaky(), 7));
        let obs = Obs::campaign(2);
        let observed = serialize(&ScanPool::new(4).scan_faulted_with_obs(
            &population,
            FaultProfile::flaky(),
            7,
            &obs,
        ));
        assert_eq!(faulted, observed, "faulted scan perturbed by metrics");
    }

    #[test]
    fn obs_snapshot_is_identical_across_thread_counts() {
        // Counters are order-independent sums folded across per-worker
        // shards, and traces are flushed as per-site batches, so the
        // whole rendered snapshot — table and JSON — must not depend on
        // worker scheduling or shard count.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let run = |threads: usize| {
            let obs = Obs::campaign(3);
            ScanPool::new(threads).scan_faulted_with_obs(
                &population,
                FaultProfile::flaky(),
                7,
                &obs,
            );
            let snap = obs.snapshot().expect("campaign obs snapshots");
            (h2obs::render_table(&snap), h2obs::render_json(&snap))
        };
        let (table1, json1) = run(1);
        let (table8, json8) = run(8);
        let (table16, json16) = run(16);
        assert_eq!(table1, table8);
        assert_eq!(json1, json8);
        assert_eq!(table8, table16);
        assert_eq!(json8, json16);
        assert!(json1.contains("\"schema\": \"h2obs-campaign-v2\""));
    }

    #[test]
    fn fault_summary_reports_the_taxonomy() {
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let records = faulted(&population, 4, FaultProfile::flaky(), 0xfa17);
        let summary = fault_summary(&records);
        assert!(summary.contains("gave-up-after-retries"));
        assert!(summary.contains("sites retried"));
        assert!(summary.contains(&format!("sites scanned      {}", records.len())));
    }
}
