//! Guardband discovery: turn a finished sweep into the paper's landmarks.
//!
//! The experimentally discovered `Vmin` (highest level with faults) and
//! `Vcrash` (lowest operational level) are read straight out of a
//! [`SweepRecord`]; [`discover`] runs the whole pipeline — board, fault
//! model, crash-resilient harness — for one platform/rail.

use crate::harness::{Harness, HarnessError, RecoveryPolicy};
use crate::record::SweepRecord;
use crate::sweep::SweepConfig;
use std::fmt;
use uvf_fpga::{Board, Millivolts, PlatformKind, Rail};

/// Summary of one platform/rail guardband discovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardbandReport {
    pub platform: PlatformKind,
    pub rail: Rail,
    /// Highest level at which faults were observed (`None`: no faults seen).
    pub vmin: Option<Millivolts>,
    /// Lowest operational level (`None`: floor reached without a crash).
    pub vcrash: Option<Millivolts>,
    /// Voltage guardband as a fraction of nominal, from the measured `vmin`.
    pub guardband_fraction: Option<f64>,
    /// Median fault rate at `vcrash` in the paper's unit.
    pub median_faults_per_mbit_at_vcrash: Option<f64>,
    /// Recoveries the harness performed to get this answer.
    pub power_cycles: u32,
    pub crash_events: usize,
}

impl GuardbandReport {
    /// Derive the report from a finished (or partial) sweep record.
    #[must_use]
    pub fn from_record(record: &SweepRecord) -> GuardbandReport {
        let total_mbit = record.platform.descriptor().total_mbit();
        let vcrash = record.vcrash();
        let rate_at_vcrash = vcrash.and_then(|vc| {
            record
                .levels
                .iter()
                .find(|l| l.v_mv == vc.0)
                .map(|l| l.median_faults_per_mbit(total_mbit))
        });
        GuardbandReport {
            platform: record.platform,
            rail: record.rail,
            vmin: record.vmin(),
            vcrash,
            guardband_fraction: record.guardband_fraction(),
            median_faults_per_mbit_at_vcrash: rate_at_vcrash,
            power_cycles: record.power_cycles,
            crash_events: record.crash_events.len(),
        }
    }
}

impl fmt::Display for GuardbandReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_mv = |v: Option<Millivolts>| match v {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        write!(
            f,
            "{} {}: Vmin {} Vcrash {} guardband {} ({} crash events, {} power cycles)",
            self.platform,
            self.rail,
            fmt_mv(self.vmin),
            fmt_mv(self.vcrash),
            match self.guardband_fraction {
                Some(g) => format!("{:.0} %", g * 100.0),
                None => "-".to_string(),
            },
            self.crash_events,
            self.power_cycles,
        )
    }
}

/// Run a full guardband sweep for one platform and return the report plus
/// the underlying record.
pub fn discover(
    kind: PlatformKind,
    cfg: SweepConfig,
    policy: RecoveryPolicy,
) -> Result<(GuardbandReport, SweepRecord), HarnessError> {
    let board = Board::new(kind.descriptor());
    let mut harness = Harness::new(board, cfg, policy)?;
    harness.run()?;
    let record = harness.record().clone();
    Ok((GuardbandReport::from_record(&record), record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_matches_design_landmarks_for_zc702() {
        let platform = PlatformKind::Zc702.descriptor();
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(2)
            .start(Millivolts(platform.vccbram.vmin.0 + 20))
            .build();
        let (report, record) =
            discover(PlatformKind::Zc702, cfg, RecoveryPolicy::default()).unwrap();
        assert_eq!(report.vmin, Some(platform.vccbram.vmin));
        assert_eq!(report.vcrash, Some(platform.vccbram.vcrash));
        assert!(report.crash_events > 0, "no induced crash was survived");
        assert!(record.power_cycles > 0);
        assert!(report.median_faults_per_mbit_at_vcrash.unwrap() > 0.0);
    }

    #[test]
    fn report_renders_human_readable() {
        let platform = PlatformKind::Zc702.descriptor();
        let cfg = SweepConfig::builder(Rail::Vccbram)
            .runs(1)
            .start(Millivolts(platform.vccbram.vcrash.0 + 10))
            .build();
        let (report, _) = discover(PlatformKind::Zc702, cfg, RecoveryPolicy::default()).unwrap();
        let line = report.to_string();
        assert!(line.contains("zc702"), "{line}");
        assert!(line.contains("vccbram"), "{line}");
    }
}
