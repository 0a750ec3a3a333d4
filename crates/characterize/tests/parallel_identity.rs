//! Property tests for the parallel sweep engine: fanning work over
//! threads must never change a single byte of output.
//!
//! Two layers, each checked on all four Table-I platforms:
//!
//! * probe level — [`Probe::sample_with_threads`] equals [`Probe::sample`]
//!   for every thread count, voltage and run index tried,
//! * campaign level — the work-stealing multi-board runner reproduces
//!   `run_sequential`'s bytes, including the on-disk checkpoint files and
//!   their resume fingerprints.

use uvf_characterize::{Campaign, CampaignJob, Probe, RecoveryPolicy, SweepConfig};
use uvf_faults::FaultModel;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};

/// A short ladder ending in the crash, like the campaign tests use: cheap
/// but still covers safe, critical and crash levels.
fn short_cfg(kind: PlatformKind, runs_per_level: u32) -> SweepConfig {
    SweepConfig::builder(Rail::Vccbram)
        .runs(runs_per_level)
        .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
        .build()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uvf-par-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn parallel_probe_sample_equals_sequential_on_all_platforms() {
    for kind in PlatformKind::ALL {
        let platform = kind.descriptor();
        let model = FaultModel::new(platform);
        let cfg = SweepConfig::quick(Rail::Vccbram, 3);
        let mut board = Board::new(platform);
        Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
        let vmin = platform.vccbram.vmin;
        let vcrash = platform.vccbram.vcrash;
        let voltages = [
            Millivolts::NOMINAL,
            Millivolts(vmin.0 + 10),
            vmin,
            Millivolts(vcrash.0 + 10),
            vcrash,
        ];
        for v in voltages {
            for run in 0..3 {
                let sequential = Probe::Bram.sample(&board, &model, &cfg, v, run).unwrap();
                for threads in [2, 3, 5, 8, 64] {
                    let parallel = Probe::Bram
                        .sample_with_threads(&board, &model, &cfg, v, run, threads)
                        .unwrap();
                    assert_eq!(
                        parallel, sequential,
                        "{kind:?} at {v} run {run} with {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_campaign_matches_sequential_bytes_and_checkpoints() {
    let build = |dir: &std::path::Path| {
        let mut campaign = Campaign::new(RecoveryPolicy::default()).with_checkpoint_dir(dir);
        for kind in PlatformKind::ALL {
            campaign.push(CampaignJob::new(kind, short_cfg(kind, 2)));
        }
        campaign
    };
    let seq_dir = scratch_dir("seq");
    let par_dir = scratch_dir("par");

    let sequential = build(&seq_dir).run_sequential().unwrap();
    let campaign = build(&par_dir);
    let parallel = campaign.run(4).unwrap();

    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.job.kind, p.job.kind);
        assert_eq!(
            s.record.to_json_string(),
            p.record.to_json_string(),
            "{:?}: parallel campaign record drifted",
            s.job.kind
        );
        assert_eq!(s.record.fingerprint(), p.record.fingerprint());
        assert_eq!(s.outcome, p.outcome);
        assert_eq!(s.sim_ms, p.sim_ms);

        // The on-disk checkpoints — fingerprint line included — must be the
        // same bytes, so either directory can resume the other's campaign.
        let name = s.job.checkpoint_name();
        let seq_cp = std::fs::read_to_string(seq_dir.join(&name)).unwrap();
        let par_cp = std::fs::read_to_string(par_dir.join(&name)).unwrap();
        assert_eq!(seq_cp, par_cp, "{name}: checkpoint bytes differ");
    }

    // Cross-resume: rerun the parallel campaign on the *sequential* run's
    // checkpoint directory; every job must resume to identical bytes.
    let resumed = build(&seq_dir).run(4).unwrap();
    for (s, r) in sequential.iter().zip(&resumed) {
        assert_eq!(s.record.to_json_string(), r.record.to_json_string());
    }

    std::fs::remove_dir_all(&seq_dir).ok();
    std::fs::remove_dir_all(&par_dir).ok();
}
