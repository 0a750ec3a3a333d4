//! The harness counts BRAM faults through the ladder kernel (one batched
//! scan per level); [`Probe::sample`] is the independent per-run oracle.
//! Every `RunRecord` of a full-ladder sweep must equal the oracle at that
//! `(v, run)` on every platform, and checkpointed or budget-paused resumes
//! must reproduce the uninterrupted sweep's bytes.

use uvf_characterize::prelude::*;
use uvf_characterize::record::Checkpoint;
use uvf_faults::FaultModel;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};

fn listing1_cfg() -> SweepConfig {
    // The full Listing-1 ladder shape (1000 mV down to the crash) with a
    // reduced run count per level so four platforms stay test-sized; the
    // level structure — the thing the ladder kernel exploits — is intact.
    SweepConfig::builder(Rail::Vccbram).runs(3).build()
}

/// Assert every run of `record` against an independent per-run probe scan
/// on a freshly built model of the same die. Returns the runs checked.
fn assert_matches_probe(kind: PlatformKind, cfg: &SweepConfig, record: &SweepRecord) -> usize {
    let platform = kind.descriptor();
    let model = FaultModel::new(platform);
    let mut board = Board::new(platform);
    Probe::Bram.arm(&mut board, cfg.pattern).unwrap();
    let mut checked = 0;
    for level in &record.levels {
        let v = Millivolts(level.v_mv);
        for r in &level.runs {
            let oracle = Probe::Bram.sample(&board, &model, cfg, v, r.run).unwrap();
            assert_eq!(r.faults, oracle, "{kind:?} at {v} run {}", r.run);
            checked += 1;
        }
    }
    checked
}

#[test]
fn ladder_engine_is_bit_identical_on_all_platforms() {
    let cfg = listing1_cfg();
    for kind in PlatformKind::ALL {
        let mut h = Harness::new(
            Board::new(kind.descriptor()),
            cfg,
            RecoveryPolicy::default(),
        )
        .unwrap();
        h.run().unwrap();
        let record = h.record();
        assert!(record.vmin().is_some(), "{kind:?}: sweep found no faults");
        let checked = assert_matches_probe(kind, &cfg, record);
        assert!(
            checked >= record.levels.len(),
            "{kind:?}: only {checked} runs"
        );
    }
}

#[test]
fn ladder_engine_checkpoint_bytes_match_the_per_run_path() {
    let kind = PlatformKind::Zc702;
    let cfg = listing1_cfg();
    let dir = std::env::temp_dir().join(format!("uvf_ladder_identity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let harness = |path: &std::path::Path| {
        Harness::new(
            Board::new(kind.descriptor()),
            cfg,
            RecoveryPolicy::default(),
        )
        .unwrap()
        .with_checkpoint_path(path)
        .unwrap()
    };

    let straight = dir.join("straight.json");
    harness(&straight).run().unwrap();

    // Pause mid-sweep, then resume in a fresh harness from the checkpoint
    // — the crash-recovery path the fleet exercises.
    let resumed = dir.join("resumed.json");
    let status = harness(&resumed).run_budgeted(7).unwrap();
    assert_eq!(status, HarnessStatus::Paused { runs_done: 7 });
    harness(&resumed).run().unwrap();

    let bytes = std::fs::read(&straight).unwrap();
    assert_eq!(
        bytes,
        std::fs::read(&resumed).unwrap(),
        "paused+resumed checkpoint bytes diverged from the uninterrupted sweep"
    );
    let record = Checkpoint::load(&straight).unwrap().record;
    assert_matches_probe(kind, &cfg, &record);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_ladder_sweep_matches_uninterrupted() {
    let kind = PlatformKind::Kc705A;
    let cfg = SweepConfig::builder(Rail::Vccbram)
        .runs(4)
        .start(Millivolts(kind.descriptor().vccbram.vmin.0 + 20))
        .build();
    let mut straight = Harness::new(
        Board::new(kind.descriptor()),
        cfg,
        RecoveryPolicy::default(),
    )
    .unwrap();
    straight.run().unwrap();
    let mut chunked = Harness::new(
        Board::new(kind.descriptor()),
        cfg,
        RecoveryPolicy::default(),
    )
    .unwrap();
    while let HarnessStatus::Paused { .. } = chunked.run_budgeted(3).unwrap() {}
    assert_eq!(
        straight.record().to_json_string(),
        chunked.record().to_json_string(),
        "budget-paused ladder sweep must replay identically"
    );
}
