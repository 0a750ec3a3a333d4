//! `fleet_characterization`: the paper's §III–IV board characterization.
//!
//! Part one is a Listing-1 VCCBRAM campaign (100 runs per level, nominal
//! down to the crash boundary) over the 4 platforms × seed-chosen dies,
//! run through `Campaign::run(nproc)`. It sweeps more distinct dies than
//! `FvmCache::DEFAULT_MODEL_CAPACITY`, so every die is built cold on every
//! pass. Part two is a census of the 4 default dies: Table II stability
//! runs and Fig. 4 pattern runs through `Probe::sample_with_threads`,
//! Fig. 5 clustering with the location χ² battery, the Fig. 8 thermal
//! campaign and the storage-level ECC ladder census.
//!
//! Chosen because almost all of its time goes to die generation, ladder
//! kernels, the harness and campaign pool, the per-scan thread fan-out and
//! `stats`; it runs no NN at all, so every NN optimization must leave it
//! unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use uvf_accel::{ecc_ladder_census, EccCensusLevel};
use uvf_characterize::prelude::{
    cluster_brams, BramClusters, Campaign, CampaignEntry, CampaignJob, CampaignManifest,
    GuardbandReport, Harness, LocationStats, Probe, RecoveryPolicy, SweepConfig, ThermalCampaign,
    ThermalReport,
};
use uvf_characterize::FvmCache;
use uvf_faults::ecc::{self, EccStats};
use uvf_faults::{FaultModel, ReadCondition};
use uvf_fpga::eccmode::{self, ECC_CODEWORDS_PER_BRAM, ECC_WORDS_PER_BRAM};
use uvf_fpga::seedmix::mix;
use uvf_fpga::{
    Board, BramId, DataPattern, Platform, PlatformKind, Rail, BRAM_ROWS, DEFAULT_TEMPERATURE_C,
};
use uvf_stats::{select_k, Chi2};

use crate::mitigation_ladder::ladder;
use crate::recorder::Recorder;
use crate::workload::{fnv1a, Checks, Env, Work, Workload};

/// Fig. 5 k-means settings `repro fig5` and `stats_landmarks.rs` use.
const MAX_K: usize = 6;
const CLUSTER_SEED: u64 = 5;
/// ECC census ladder: 10 mV steps from `Vmin + 50 mV` down to `Vcrash`.
const ECC_START_ABOVE_VMIN_MV: u32 = 50;

/// Input sizes; `tiny` only for the smoke tests.
struct Sizes {
    /// Seed-chosen dies per platform besides the default die.
    extra_dies: u64,
    runs_per_level: u32,
    table2_runs: u32,
    pattern_runs: u32,
    thermal_runs: u32,
    ecc_step_mv: u32,
}

fn sizes(env: &Env) -> Sizes {
    if env.tiny {
        Sizes {
            extra_dies: 1,
            runs_per_level: 2,
            table2_runs: 3,
            pattern_runs: 2,
            thermal_runs: 2,
            ecc_step_mv: 20,
        }
    } else {
        Sizes {
            extra_dies: 4,
            runs_per_level: 100,
            table2_runs: 100,
            pattern_runs: 20,
            thermal_runs: 10,
            ecc_step_mv: 10,
        }
    }
}

pub struct Fleet;

/// The 4 default dies the census reuses, in `PlatformKind::ALL` order.
pub struct Dies(Vec<FaultModel>);

#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// `CampaignManifest` JSON: per-job identity, outcome, simulated time
    /// and record content hash.
    pub manifest: String,
    pub reports: Vec<GuardbandReport>,
    pub sweep: SweepTotals,
    pub census: Census,
}

/// Census results of the 4 default dies.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Census {
    /// Table II fault counts per platform and run.
    pub stability: Vec<Vec<u64>>,
    /// Fig. 4 fault counts per data pattern and run (VC707).
    pub patterns: Vec<Vec<u64>>,
    pub clusters: Vec<BramClusters>,
    /// Location χ² battery per platform: BRAM, die column, die row,
    /// within-BRAM row, within-BRAM bit.
    pub location: Vec<[Option<Chi2>; 5]>,
    pub thermal: Vec<ThermalReport>,
    pub ecc: Vec<Vec<EccCensusLevel>>,
}

/// Campaign totals over every job.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SweepTotals {
    pub levels: u64,
    pub runs: u64,
    pub crash_events: u64,
    pub power_cycles: u64,
    pub sim_ms: u64,
    /// Simulated BRAM megabits the sweeps read.
    pub mbit: f64,
}

fn jobs(env: &Env) -> Vec<CampaignJob> {
    let s = sizes(env);
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(s.runs_per_level)
        .build();
    let mut jobs = Vec::new();
    for (k, kind) in PlatformKind::ALL.into_iter().enumerate() {
        jobs.push(CampaignJob::new(kind, cfg));
        for i in 0..s.extra_dies {
            let seed = if i == 0 {
                env.seeds.chip
            } else {
                mix(&[env.seeds.chip, k as u64, i])
            };
            jobs.push(CampaignJob {
                chip_seed: Some(seed),
                ..CampaignJob::new(kind, cfg)
            });
        }
    }
    jobs
}

fn totals(entries: &[CampaignEntry]) -> SweepTotals {
    let mut t = SweepTotals::default();
    for e in entries {
        let die_mbit = e.job.kind.descriptor().total_mbit();
        t.levels += e.record.levels.len() as u64;
        let runs: u64 = e.record.levels.iter().map(|l| l.runs.len() as u64).sum();
        t.runs += runs;
        t.crash_events += e.record.crash_events.len() as u64;
        t.power_cycles += u64::from(e.record.power_cycles);
        t.sim_ms += e.sim_ms;
        t.mbit += runs as f64 * die_mbit;
    }
    t
}

fn output(entries: &[CampaignEntry], census: Census) -> Output {
    Output {
        manifest: CampaignManifest::from_entries(entries).to_json_string(),
        reports: entries.iter().map(|e| e.report).collect(),
        sweep: totals(entries),
        census,
    }
}

fn chi2_battery(stats: &LocationStats) -> [Option<Chi2>; 5] {
    [
        stats.bram_uniformity(),
        stats.grid_column_uniformity(),
        stats.grid_row_uniformity(),
        stats.cell_row_uniformity(),
        stats.cell_bit_uniformity(),
    ]
}

fn thermal_campaign(kind: PlatformKind, env: &Env) -> ThermalCampaign {
    ThermalCampaign {
        runs_per_point: sizes(env).thermal_runs,
        threads: env.threads,
        ..ThermalCampaign::new(kind)
    }
}

fn ecc_census(kind: PlatformKind, env: &Env) -> Vec<EccCensusLevel> {
    ecc_ladder_census(
        kind,
        kind.descriptor().default_chip_seed,
        DEFAULT_TEMPERATURE_C,
        env.seeds.run,
        sizes(env).ecc_step_mv,
        ECC_START_ABOVE_VMIN_MV,
    )
}

/// `runs` probe samples at `Vcrash` on an armed board, one span each.
fn probe_runs(
    board: &Board,
    model: &FaultModel,
    cfg: &SweepConfig,
    threads: usize,
    rec: &Recorder,
) -> Result<Vec<u64>, String> {
    let vcrash = model.platform().vccbram.vcrash;
    (0..cfg.runs_per_level)
        .map(|run| {
            rec.span("characterize.probe_sample", || {
                Probe::Bram.sample_with_threads(board, model, cfg, vcrash, run, threads)
            })
            .map_err(|e| format!("sample: {e:?}"))
        })
        .collect()
}

/// The census part of a pass. `rec` is disabled on the untraced path; both
/// paths call the same functions except where the traced path composes an
/// entry point itself (k-means selection, ECC census).
fn census(env: &Env, dies: &Dies, rec: &Recorder) -> Result<Census, String> {
    let mut out = Census::default();
    let s = sizes(env);
    let traced = rec.enabled();
    let arm = |board: &mut Board, pattern: DataPattern| {
        rec.span("fpga.board", || Probe::Bram.arm(board, pattern))
            .map_err(|e| format!("arm: {e:?}"))
    };
    for model in &dies.0 {
        let p = *model.platform();
        let mut board = rec.span("fpga.board", || Board::new(p));
        let cfg = SweepConfig::quick(Rail::Vccbram, s.table2_runs);
        arm(&mut board, cfg.pattern)?;
        out.stability
            .push(probe_runs(&board, model, &cfg, env.threads, rec)?);
    }
    let vc707 = &dies.0[PlatformKind::ALL
        .iter()
        .position(|k| *k == PlatformKind::Vc707)
        .expect("VC707 is a Table I platform")];
    let mut board = rec.span("fpga.board", || Board::new(*vc707.platform()));
    for pattern in DataPattern::ALL {
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .pattern(pattern)
            .runs(s.pattern_runs)
            .build();
        arm(&mut board, pattern)?;
        out.patterns
            .push(probe_runs(&board, vc707, &cfg, env.threads, rec)?);
    }
    for model in &dies.0 {
        let vcrash = model.platform().vccbram.vcrash;
        let map = rec.span("faults.variation_map", || model.variation_map(vcrash));
        let clusters = if traced {
            rec.span("stats.kmeans", || {
                let points: Vec<f64> = map.counts().iter().map(|&c| f64::from(c)).collect();
                select_k(&points, MAX_K, CLUSTER_SEED).map(|sel| BramClusters {
                    platform: map.platform(),
                    chip_seed: map.chip_seed(),
                    v_ref_mv: map.v_ref().0,
                    k: sel.best.k,
                    centroids: sel.best.centroids,
                    assignments: sel.best.assignments,
                    sizes: sel.best.sizes,
                    silhouette: sel.silhouette,
                    scores: sel.scores,
                })
            })
        } else {
            cluster_brams(&map, MAX_K, CLUSTER_SEED)
        };
        out.clusters.push(
            clusters.ok_or_else(|| format!("{}: census too small to cluster", map.platform()))?,
        );
        let stats = rec.span("characterize.location_census", || {
            LocationStats::census(model, vcrash)
        });
        out.location
            .push(rec.span("stats.chi2", || chi2_battery(&stats)));
    }
    for kind in PlatformKind::ALL {
        let report = rec
            .span("characterize.thermal", || {
                thermal_campaign(kind, env).run(&uvf_characterize::Tracer::disabled())
            })
            .map_err(|e| format!("{kind}: thermal campaign: {e:?}"))?;
        out.thermal.push(report);
    }
    for kind in PlatformKind::ALL {
        out.ecc.push(if traced {
            traced_ecc_census(kind, env, rec)
        } else {
            ecc_census(kind, env)
        });
    }
    Ok(out)
}

/// `ecc_ladder_census` composed from the `faults` layer's public functions:
/// every BRAM of the die holds all-ones codewords and each level corrupts
/// and decodes them.
fn traced_ecc_census(kind: PlatformKind, env: &Env, rec: &Recorder) -> Vec<EccCensusLevel> {
    let p = Platform::new(kind);
    let model = rec.span("faults.model_build", || {
        FaultModel::with_chip_seed(p, kind.descriptor().default_chip_seed)
    });
    rec.count("faults.weak_cells", model.total_weak_cells() as f64);
    let mut clean = [0u16; BRAM_ROWS];
    let coded = ecc::encode(u64::MAX);
    for cw in 0..ECC_CODEWORDS_PER_BRAM {
        eccmode::store_codeword(&mut clean, cw, coded.data, coded.parity);
    }
    let mbits = (p.bram_count * ECC_CODEWORDS_PER_BRAM * 72) as f64 / (1u64 << 20) as f64;
    let rail = p.rail(Rail::Vccbram);
    let levels = ladder(
        rail.vmin.0 + ECC_START_ABOVE_VMIN_MV,
        rail.vcrash.0,
        sizes(env).ecc_step_mv,
    );
    let mut scratch = [0u16; BRAM_ROWS];
    let mut sink = Vec::with_capacity(ECC_WORDS_PER_BRAM);
    levels
        .into_iter()
        .map(|v| {
            let stats = rec.span("faults.ecc", || {
                let res = model.resolve(&ReadCondition {
                    v,
                    temperature_c: DEFAULT_TEMPERATURE_C,
                    run_seed: env.seeds.run,
                });
                let mut stats = EccStats::default();
                for b in 0..p.bram_count as u32 {
                    let mask = model.fault_mask(BramId(b), &res);
                    if mask.is_clean() {
                        stats.words += ECC_CODEWORDS_PER_BRAM as u64;
                        continue;
                    }
                    sink.clear();
                    let batch = ecc::corrupt_and_decode(
                        &mask,
                        &clean,
                        ECC_CODEWORDS_PER_BRAM,
                        &mut scratch,
                        &mut sink,
                    );
                    stats.merge(&batch);
                }
                stats
            });
            rec.count("faults.ecc.words", stats.words as f64);
            rec.count("faults.ecc.corrected", stats.corrected as f64);
            rec.count("faults.ecc.escaped", stats.escaped() as f64);
            rec.count(
                "faults.ecc.faulty_words",
                (stats.corrected + stats.escaped()) as f64,
            );
            EccCensusLevel {
                v_mv: v.0,
                stats,
                mbits,
            }
        })
        .collect()
}

/// `Campaign::run` composed from `FvmCache::model` and `Harness::run`, on a
/// pool of `threads` workers pulling jobs in order, as the campaign does.
fn traced_campaign(env: &Env, rec: &Recorder) -> Result<Vec<CampaignEntry>, String> {
    let jobs = jobs(env);
    let workers = env.threads.min(jobs.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CampaignEntry, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    rec.span("characterize.campaign", || {
        let parent = Recorder::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(idx) else {
                        return;
                    };
                    let started = Instant::now();
                    let result = traced_job(job, rec, parent);
                    rec.count(
                        "characterize.campaign.job_busy_s",
                        started.elapsed().as_secs_f64(),
                    );
                    *slots[idx].lock().expect("campaign slot poisoned") = Some(result);
                });
            }
        });
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("campaign slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

fn traced_job(
    job: &CampaignJob,
    rec: &Recorder,
    parent: Option<u64>,
) -> Result<CampaignEntry, String> {
    let platform = job.kind.descriptor();
    let model = rec.span_under(parent, "faults.model_build", || {
        FvmCache::global().model(platform, job.seed())
    });
    rec.count("faults.weak_cells", model.total_weak_cells() as f64);
    let board = rec.span_under(parent, "fpga.board", || job.board());
    rec.span_under(parent, "characterize.sweep", || {
        let mut harness = Harness::new(board, job.cfg, RecoveryPolicy::default())
            .map_err(|e| format!("{}: {e}", job.kind))?;
        let outcome = harness.run().map_err(|e| format!("{}: {e}", job.kind))?;
        let record = harness.record().clone();
        Ok(CampaignEntry {
            job: *job,
            outcome,
            report: GuardbandReport::from_record(&record),
            record,
            sim_ms: harness.clock_ms(),
        })
    })
}

impl Workload for Fleet {
    const NAME: &'static str = "fleet_characterization";
    type Fixture = Dies;
    type Output = Output;

    fn setup(_env: &Env, rec: &Recorder) -> Dies {
        Dies(
            PlatformKind::ALL
                .iter()
                .map(|k| rec.span("faults.model_build", || FaultModel::new(k.descriptor())))
                .collect(),
        )
    }

    fn fixture_digest(dies: &Dies) -> u64 {
        let cells: Vec<u8> = dies
            .0
            .iter()
            .flat_map(|m| (m.total_weak_cells() as u64).to_le_bytes())
            .collect();
        fnv1a(&cells)
    }

    fn run(env: &Env, dies: &Dies) -> Result<Output, String> {
        let mut campaign = Campaign::new(RecoveryPolicy::default());
        for job in jobs(env) {
            campaign.push(job);
        }
        let entries = campaign
            .run(env.threads)
            .map_err(|e| format!("campaign: {e}"))?;
        Ok(output(&entries, census(env, dies, &Recorder::disabled())?))
    }

    fn run_traced(env: &Env, dies: &Dies, rec: &Recorder) -> Result<Output, String> {
        let entries = traced_campaign(env, rec)?;
        let out = output(&entries, census(env, dies, rec)?);
        rec.count("characterize.sweep.levels", out.sweep.levels as f64);
        rec.count("characterize.sweep.runs", out.sweep.runs as f64);
        rec.count("characterize.crash_events", out.sweep.crash_events as f64);
        rec.count("characterize.power_cycles", out.sweep.power_cycles as f64);
        Ok(out)
    }

    fn check(env: &Env, out: &Output, checks: &mut Checks) {
        let jobs = jobs(env);
        checks.check(out.reports.len() == jobs.len(), || {
            format!("{} reports for {} jobs", out.reports.len(), jobs.len())
        });
        for (job, report) in jobs.iter().zip(&out.reports) {
            if job.chip_seed.is_none() {
                let table1 = job.kind.descriptor().vccbram;
                checks.check(
                    report.vmin == Some(table1.vmin) && report.vcrash == Some(table1.vcrash),
                    || {
                        format!(
                            "{} default die: guardband {:?}/{:?}, Table I {}/{}",
                            job.kind, report.vmin, report.vcrash, table1.vmin, table1.vcrash
                        )
                    },
                );
            }
        }
        let bits = |kind: PlatformKind| kind.descriptor().total_bits() as f64;
        for (kind, counts) in PlatformKind::ALL.iter().zip(&out.census.stability) {
            for &c in counts {
                checks.rate(c as f64 / bits(*kind), || {
                    format!("{kind} Table II fault rate")
                });
            }
        }
        for counts in &out.census.patterns {
            for &c in counts {
                checks.rate(c as f64 / bits(PlatformKind::Vc707), || {
                    "VC707 pattern fault rate".into()
                });
            }
        }
        for report in &out.census.thermal {
            for p in &report.points {
                checks.rate(p.median_faults / bits(report.platform), || {
                    format!("{} fault rate at {} °C", report.platform, p.temperature_c)
                });
            }
        }
        for (kind, levels) in PlatformKind::ALL.iter().zip(&out.census.ecc) {
            for l in levels {
                let s = l.stats;
                let verdicts = s.corrected + s.detected + s.miscorrected;
                checks.check(verdicts <= s.raw_flips.min(s.words), || {
                    format!("{kind} ECC census at {} mV: verdicts {verdicts} exceed faulty words ({s:?})", l.v_mv)
                });
            }
        }
    }

    fn work(_env: &Env, _dies: &Dies, out: &Output) -> Work {
        let c = &out.census;
        // (platform, probe runs) of every census probe batch.
        let mut runs: Vec<(PlatformKind, u64)> = PlatformKind::ALL
            .iter()
            .zip(&c.stability)
            .map(|(&k, r)| (k, r.len() as u64))
            .collect();
        runs.extend(
            c.patterns
                .iter()
                .map(|r| (PlatformKind::Vc707, r.len() as u64)),
        );
        runs.extend(c.thermal.iter().map(|r| {
            (
                r.platform,
                r.points.len() as u64 * u64::from(r.runs_per_point),
            )
        }));
        let census_mbit: f64 = runs
            .iter()
            .map(|&(k, n)| n as f64 * k.descriptor().total_mbit())
            .sum();
        let ecc_levels: u64 = c.ecc.iter().map(|l| l.len() as u64).sum();
        Work {
            ops: out.reports.len() as u64
                + runs.iter().map(|&(_, n)| n).sum::<u64>()
                + ecc_levels
                + c.clusters.len() as u64
                + c.location.len() as u64,
            sim_mbit: out.sweep.mbit + census_mbit,
            inferences: 0,
            sim_board_s: out.sweep.sim_ms as f64 / 1e3,
        }
    }

    fn describe(env: &Env, _dies: &Dies) -> String {
        let s = sizes(env);
        format!(
            "{} campaign jobs (4 platforms x {} dies, Listing-1, {} runs/level) on {} board \
             threads; census of the 4 default dies: Table II {} runs, Fig. 4 {} runs x {} \
             patterns, Fig. 8 {} runs/point, ECC ladder step {} mV; probe scans on {} threads",
            jobs(env).len(),
            1 + s.extra_dies,
            s.runs_per_level,
            env.threads,
            s.table2_runs,
            s.pattern_runs,
            DataPattern::ALL.len(),
            s.thermal_runs,
            s.ecc_step_mv,
            env.threads,
        )
    }
}
