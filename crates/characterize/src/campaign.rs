//! Multi-board campaign runner: one crash-resilient [`Harness`] per die on
//! a work-stealing task queue.
//!
//! The paper characterizes four independent boards (Table I); a campaign
//! runs each board's sweep as one job. Jobs are pulled from a shared
//! atomic cursor by the crate's scoped-thread pool (`parallel::fan_out`)
//! — dynamic scheduling,
//! because sweep costs differ wildly across platforms (the VC707's BRAM
//! pool is 7× the ZC702's) — and results land in slots indexed by job
//! position, so the merged output is **bit-identical** to running the same
//! jobs sequentially, regardless of scheduling.
//!
//! With a shared checkpoint directory every job checkpoints exactly like a
//! standalone harness (same fingerprint guard, same atomic writes): a
//! campaign killed mid-flight resumes every unfinished board from its file
//! and still produces the sequential baseline's bytes.

use crate::guardband::GuardbandReport;
use crate::harness::{Harness, HarnessError, RecoveryPolicy};
use crate::json::Json;
use crate::parallel::fan_out;
use crate::record::{req_str, req_u64, schema, RecordError, SweepOutcome, SweepRecord};
use crate::store::CheckpointStore;
use crate::sweep::SweepConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use uvf_fpga::{Board, PlatformKind};
use uvf_trace::Tracer;

/// One board's sweep within a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignJob {
    pub kind: PlatformKind,
    /// Die identity; `None` uses the platform's default die.
    pub chip_seed: Option<u64>,
    pub cfg: SweepConfig,
}

impl CampaignJob {
    #[must_use]
    pub fn new(kind: PlatformKind, cfg: SweepConfig) -> CampaignJob {
        CampaignJob {
            kind,
            chip_seed: None,
            cfg,
        }
    }

    /// The board this job sweeps (die identity included).
    #[must_use]
    pub fn board(&self) -> Board {
        let platform = self.kind.descriptor();
        match self.chip_seed {
            Some(seed) => Board::with_chip_seed(platform, seed),
            None => Board::new(platform),
        }
    }

    /// The effective die seed (platform default when unset).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.chip_seed
            .unwrap_or(self.kind.descriptor().default_chip_seed)
    }

    /// Wire form (campaign server → worker).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("platform", Json::Str(self.kind.to_string()))];
        if let Some(seed) = self.chip_seed {
            fields.push(("chip_seed", Json::UInt(seed)));
        }
        fields.push(("cfg", self.cfg.to_json()));
        Json::obj(fields)
    }

    /// Inverse of [`CampaignJob::to_json`].
    pub fn from_json(v: &Json) -> Result<CampaignJob, RecordError> {
        Ok(CampaignJob {
            kind: req_str(v, "platform")?
                .parse()
                .map_err(|_| schema("unknown platform"))?,
            chip_seed: match v.get("chip_seed") {
                None => None,
                Some(seed) => Some(seed.as_u64().ok_or_else(|| schema("chip_seed not a u64"))?),
            },
            cfg: SweepConfig::from_json(v.get("cfg").ok_or_else(|| schema("cfg missing"))?)?,
        })
    }

    /// Checkpoint filename of this job inside the campaign directory:
    /// unique per (platform, rail, pattern, die), stable across resumes.
    #[must_use]
    pub fn checkpoint_name(&self) -> String {
        format!(
            "{}_{}_{}_{:016x}.json",
            self.kind,
            self.cfg.rail,
            self.cfg.pattern,
            self.seed(),
        )
    }
}

/// Result of one job, in job order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEntry {
    pub job: CampaignJob,
    pub outcome: SweepOutcome,
    pub record: SweepRecord,
    pub report: GuardbandReport,
    /// Simulated milliseconds this board's sweep took.
    pub sim_ms: u64,
}

/// One job's line in a [`CampaignManifest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    pub platform: PlatformKind,
    pub chip_seed: u64,
    /// The record's configuration fingerprint (checkpoint guard).
    pub fingerprint: u64,
    pub outcome: SweepOutcome,
    /// Simulated milliseconds the job's sweep took.
    pub sim_ms: u64,
    /// FNV-1a over the record's canonical JSON ([`SweepRecord::content_hash`]).
    pub record_hash: u64,
}

/// The deterministic campaign summary: per-job identity, outcome,
/// simulated duration and record content hash — and nothing that depends
/// on wall clocks, worker count, or scheduling. This is the document the
/// distributed path is required to reproduce **byte-for-byte** against
/// the in-process [`Campaign`], which makes "the cluster computed the
/// same science" a single string comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignManifest {
    pub entries: Vec<ManifestEntry>,
}

impl CampaignManifest {
    #[must_use]
    pub fn from_entries(entries: &[CampaignEntry]) -> CampaignManifest {
        CampaignManifest {
            entries: entries
                .iter()
                .map(|e| ManifestEntry {
                    platform: e.record.platform,
                    chip_seed: e.record.chip_seed,
                    fingerprint: e.record.fingerprint(),
                    outcome: e.outcome,
                    sim_ms: e.sim_ms,
                    record_hash: e.record.content_hash(),
                })
                .collect(),
        }
    }

    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "jobs",
            Json::Arr(
                self.entries
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("platform", Json::Str(e.platform.to_string())),
                            ("chip_seed", Json::UInt(e.chip_seed)),
                            ("fingerprint", Json::UInt(e.fingerprint)),
                            ("outcome", outcome_to_json(e.outcome)),
                            ("sim_ms", Json::UInt(e.sim_ms)),
                            ("record_hash", Json::UInt(e.record_hash)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    pub fn parse(text: &str) -> Result<CampaignManifest, RecordError> {
        let v = Json::parse(text)?;
        let entries = v
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema("jobs missing"))?
            .iter()
            .map(|e| {
                Ok(ManifestEntry {
                    platform: req_str(e, "platform")?
                        .parse()
                        .map_err(|_| schema("unknown platform"))?,
                    chip_seed: req_u64(e, "chip_seed")?,
                    fingerprint: req_u64(e, "fingerprint")?,
                    outcome: outcome_from_json(
                        e.get("outcome").ok_or_else(|| schema("outcome missing"))?,
                    )?,
                    sim_ms: req_u64(e, "sim_ms")?,
                    record_hash: req_u64(e, "record_hash")?,
                })
            })
            .collect::<Result<Vec<_>, RecordError>>()?;
        Ok(CampaignManifest { entries })
    }
}

fn outcome_to_json(outcome: SweepOutcome) -> Json {
    match outcome {
        SweepOutcome::InProgress => Json::obj(vec![("kind", Json::Str("in_progress".into()))]),
        SweepOutcome::CrashFound { vcrash_mv } => Json::obj(vec![
            ("kind", Json::Str("crash_found".into())),
            ("vcrash_mv", Json::UInt(u64::from(vcrash_mv))),
        ]),
        SweepOutcome::FloorReached => Json::obj(vec![("kind", Json::Str("floor_reached".into()))]),
    }
}

fn outcome_from_json(v: &Json) -> Result<SweepOutcome, RecordError> {
    Ok(match req_str(v, "kind")? {
        "in_progress" => SweepOutcome::InProgress,
        "crash_found" => SweepOutcome::CrashFound {
            vcrash_mv: v
                .get("vcrash_mv")
                .and_then(Json::as_u32)
                .ok_or_else(|| schema("vcrash_mv missing"))?,
        },
        "floor_reached" => SweepOutcome::FloorReached,
        other => return Err(schema(&format!("unknown outcome kind {other}"))),
    })
}

/// A set of independent board sweeps executed by a worker pool.
#[derive(Debug, Clone)]
pub struct Campaign {
    jobs: Vec<CampaignJob>,
    policy: RecoveryPolicy,
    checkpoint_dir: Option<PathBuf>,
    /// Passive observability shared by the pool and inherited by every
    /// job's harness. With multiple board threads the interleaving of
    /// *campaign-level* events follows the (nondeterministic) scheduler;
    /// each job's own event sub-stream stays deterministic.
    tracer: Tracer,
}

impl Campaign {
    #[must_use]
    pub fn new(policy: RecoveryPolicy) -> Campaign {
        Campaign {
            jobs: Vec::new(),
            policy,
            checkpoint_dir: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; every job's harness inherits it. Results are
    /// bit-identical with or without one.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Campaign {
        self.tracer = tracer;
        self
    }

    /// The paper's Table-I setup: the same sweep on all four boards.
    #[must_use]
    pub fn all_platforms(cfg: SweepConfig, policy: RecoveryPolicy) -> Campaign {
        let mut campaign = Campaign::new(policy);
        for kind in PlatformKind::ALL {
            campaign.push(CampaignJob::new(kind, cfg));
        }
        campaign
    }

    pub fn push(&mut self, job: CampaignJob) -> &mut Campaign {
        self.jobs.push(job);
        self
    }

    #[must_use]
    pub fn jobs(&self) -> &[CampaignJob] {
        &self.jobs
    }

    /// Checkpoint every job into `dir` (created on run). A rerun after a
    /// kill resumes each unfinished board from its file.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// One job's full lifecycle: claim → sweep → done, with progress/ETA
    /// after completion. `done` counts finished jobs across the pool.
    fn run_job(
        &self,
        idx: usize,
        job: &CampaignJob,
        done: &AtomicUsize,
    ) -> Result<CampaignEntry, HarnessError> {
        self.tracer.instant(
            "job_claimed",
            vec![
                ("job", idx.into()),
                ("platform", job.kind.to_string().into()),
                ("jobs_total", self.jobs.len().into()),
            ],
        );
        let mut harness =
            Harness::new(job.board(), job.cfg, self.policy)?.with_tracer(self.tracer.clone());
        if let Some(dir) = &self.checkpoint_dir {
            let path = dir.join(job.checkpoint_name());
            // A torn or corrupt checkpoint (host crash mid-write) is
            // discarded so the job resweeps from scratch, instead of
            // failing the whole campaign on a parse error.
            if CheckpointStore::discard_if_corrupt(&path)? {
                self.tracer.counter("checkpoints_discarded", 1);
                self.tracer.instant(
                    "checkpoint_discarded",
                    vec![
                        ("job", idx.into()),
                        ("platform", job.kind.to_string().into()),
                    ],
                );
            }
            harness = harness.with_checkpoint_path(path)?;
        }
        let result = harness.run();
        let jobs_done = done.fetch_add(1, Ordering::Relaxed) + 1;
        match result {
            Ok(outcome) => {
                self.tracer.counter("jobs_done", 1);
                self.tracer.instant(
                    "job_done",
                    vec![
                        ("job", idx.into()),
                        ("platform", job.kind.to_string().into()),
                        ("sim_ms", harness.clock_ms().into()),
                        ("jobs_done", jobs_done.into()),
                        ("jobs_total", self.jobs.len().into()),
                    ],
                );
                let record = harness.record().clone();
                Ok(CampaignEntry {
                    job: *job,
                    outcome,
                    record: record.clone(),
                    report: GuardbandReport::from_record(&record),
                    sim_ms: harness.clock_ms(),
                })
            }
            Err(e) => {
                self.tracer.counter("jobs_failed", 1);
                self.tracer.instant(
                    "job_failed",
                    vec![
                        ("job", idx.into()),
                        ("platform", job.kind.to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                );
                Err(e)
            }
        }
    }

    fn ensure_checkpoint_dir(&self) -> Result<(), HarnessError> {
        if let Some(dir) = &self.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                HarnessError::Config(format!(
                    "cannot create checkpoint dir {}: {e}",
                    dir.display()
                ))
            })?;
        }
        Ok(())
    }

    /// Run every job on this thread, in job order: the baseline the
    /// parallel path is required to reproduce byte-for-byte.
    pub fn run_sequential(&self) -> Result<Vec<CampaignEntry>, HarnessError> {
        self.ensure_checkpoint_dir()?;
        let _span = self.tracer.span_with(
            "campaign",
            vec![("jobs", self.jobs.len().into()), ("workers", 1usize.into())],
        );
        let done = AtomicUsize::new(0);
        self.jobs
            .iter()
            .enumerate()
            .map(|(idx, job)| self.run_job(idx, job, &done))
            .collect()
    }

    /// Run the jobs on `board_threads` workers stealing from a shared
    /// queue. Results are merged in job order; each entry is bit-identical
    /// to what [`Campaign::run_sequential`] produces for that job.
    pub fn run(&self, board_threads: usize) -> Result<Vec<CampaignEntry>, HarnessError> {
        let workers = board_threads.min(self.jobs.len()).max(1);
        if workers == 1 {
            return self.run_sequential();
        }
        self.ensure_checkpoint_dir()?;
        let _span = self.tracer.span_with(
            "campaign",
            vec![
                ("jobs", self.jobs.len().into()),
                ("workers", workers.into()),
            ],
        );
        let done = AtomicUsize::new(0);
        // Work stealing: each idle worker claims the next unclaimed job, so
        // a slow VC707 sweep never blocks the three cheaper boards behind it.
        fan_out(self.jobs.len(), workers, |idx| {
            self.run_job(idx, &self.jobs[idx], &done)
        })
        .into_iter()
        .collect()
    }

    #[must_use]
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::{Millivolts, Rail};

    fn short_campaign() -> Campaign {
        let mut campaign = Campaign::new(RecoveryPolicy::default());
        for kind in PlatformKind::ALL {
            let cfg = SweepConfig::builder(Rail::Vccbram)
                .runs(2)
                .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
                .build();
            campaign.push(CampaignJob::new(kind, cfg));
        }
        campaign
    }

    #[test]
    fn campaign_discovers_all_landmarks() {
        let entries = short_campaign().run(4).unwrap();
        assert_eq!(entries.len(), 4);
        for entry in &entries {
            let platform = entry.job.kind.descriptor();
            assert_eq!(entry.report.vmin, Some(platform.vccbram.vmin));
            assert_eq!(entry.report.vcrash, Some(platform.vccbram.vcrash));
        }
    }

    #[test]
    fn parallel_campaign_matches_sequential_bytes() {
        let campaign = short_campaign();
        let sequential = campaign.run_sequential().unwrap();
        for threads in [2, 4, 16] {
            let parallel = campaign.run(threads).unwrap();
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    s.record.to_json_string(),
                    p.record.to_json_string(),
                    "{:?} with {threads} board threads",
                    s.job.kind
                );
                assert_eq!(s.sim_ms, p.sim_ms);
            }
        }
    }

    #[test]
    fn checkpointed_campaign_resumes_to_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("uvf-campaign-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let campaign = short_campaign().with_checkpoint_dir(&dir);
        let first = campaign.run(4).unwrap();
        // Rerun: every job resumes from its finished checkpoint.
        let second = campaign.run(4).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.record.to_json_string(), b.record.to_json_string());
        }
        let baseline = short_campaign().run_sequential().unwrap();
        for (a, b) in first.iter().zip(&baseline) {
            assert_eq!(a.record.to_json_string(), b.record.to_json_string());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_and_policy_roundtrip_through_wire_json() {
        let mut job = CampaignJob::new(
            PlatformKind::Vc707,
            SweepConfig::builder(Rail::Vccbram).runs(5).build(),
        );
        let back = CampaignJob::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
        job.chip_seed = Some(0xabcd);
        let back = CampaignJob::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
        assert_eq!(back.to_json().to_string(), job.to_json().to_string());

        let policy = RecoveryPolicy::default();
        let back = RecoveryPolicy::from_json(&policy.to_json()).unwrap();
        assert_eq!(back, policy);
    }

    #[test]
    fn manifest_is_deterministic_and_roundtrips() {
        let campaign = short_campaign();
        let sequential = CampaignManifest::from_entries(&campaign.run_sequential().unwrap());
        let parallel = CampaignManifest::from_entries(&campaign.run(4).unwrap());
        assert_eq!(
            sequential.to_json_string(),
            parallel.to_json_string(),
            "manifest is schedule-independent"
        );
        let text = sequential.to_json_string();
        let back = CampaignManifest::parse(&text).unwrap();
        assert_eq!(back, sequential);
        assert_eq!(back.to_json_string(), text, "byte-stable");
        assert_eq!(back.entries.len(), 4);
        assert!(back
            .entries
            .iter()
            .all(|e| matches!(e.outcome, SweepOutcome::CrashFound { .. })));
    }

    #[test]
    fn corrupt_campaign_checkpoint_is_discarded_and_reswept() {
        let dir = std::env::temp_dir().join(format!("uvf-campaign-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let campaign = short_campaign().with_checkpoint_dir(&dir);
        let baseline = campaign.run_sequential().unwrap();
        // Truncate one finished checkpoint to a torn prefix.
        let victim = dir.join(campaign.jobs()[1].checkpoint_name());
        let bytes = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 3]).unwrap();
        let rerun = campaign.run_sequential().unwrap();
        for (a, b) in baseline.iter().zip(&rerun) {
            assert_eq!(a.record.to_json_string(), b.record.to_json_string());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_checkpoint_names_are_unique_and_stable() {
        let campaign = short_campaign();
        let mut names: Vec<String> = campaign
            .jobs()
            .iter()
            .map(CampaignJob::checkpoint_name)
            .collect();
        assert_eq!(names[0], campaign.jobs()[0].checkpoint_name());
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
