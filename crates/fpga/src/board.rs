//! The board: chip + regulator + crash semantics.
//!
//! This is the simulation's stand-in for the physical failure mode that
//! makes undervolting experiments hard: driving a rail below its crash
//! boundary does not return an error — the command is acknowledged, the
//! supply collapses, and the board silently stops answering. The harness in
//! `uvf-characterize` only learns about it the way the real setup does:
//! a read stops returning data and a watchdog expires.

use crate::bram::{Bram, BramId, DataPattern};
use crate::error::{BoardError, PmbusError};
use crate::floorplan::Floorplan;
use crate::platform::{Platform, BRAM_ROWS};
use crate::pmbus::{PmbusCommand, PmbusResponse};
use crate::power::RailDraw;
use crate::regulator::Regulator;
use crate::seedmix;
use crate::voltage::{Millivolts, Rail};
use std::sync::Arc;

/// Liveness of the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoardState {
    Operational,
    /// Hung: only [`Board::power_cycle`] recovers it.
    Crashed {
        rail: Rail,
        at: Millivolts,
    },
}

/// Ambient/default die temperature in °C.
pub const DEFAULT_TEMPERATURE_C: f64 = 25.0;

#[derive(Debug, Clone)]
pub struct Board {
    platform: Platform,
    chip_seed: u64,
    floorplan: Floorplan,
    regulator: Regulator,
    brams: Vec<Bram>,
    temperature_c: f64,
    state: BoardState,
    /// Width of the probabilistic crash band above the crash boundary, in
    /// mV. 0 (default) models the paper's bench: crashes are deterministic
    /// at the boundary. >0 models the "more noisy and harsh environments"
    /// caveat of Section II-B: supply droop can collapse the board while it
    /// operates *near* (but above) the boundary.
    noise_band_mv: u32,
    power_cycles: u32,
    /// Electrical-draw model answering `READ_POUT` (none attached by
    /// default; the characterization stack attaches one per platform).
    power_model: Option<Arc<dyn RailDraw>>,
}

impl Board {
    #[must_use]
    pub fn new(platform: Platform) -> Board {
        let chip_seed = platform.default_chip_seed;
        Board::with_chip_seed(platform, chip_seed)
    }

    /// A board around a specific die. Two boards with the same platform and
    /// chip seed are the *same silicon* and must behave identically.
    #[must_use]
    pub fn with_chip_seed(platform: Platform, chip_seed: u64) -> Board {
        Board {
            platform,
            chip_seed,
            floorplan: Floorplan::new(platform.bram_count),
            regulator: Regulator::at_nominal(),
            brams: (0..platform.bram_count).map(|_| Bram::new()).collect(),
            temperature_c: DEFAULT_TEMPERATURE_C,
            state: BoardState::Operational,
            noise_band_mv: 0,
            power_cycles: 0,
            power_model: None,
        }
    }

    /// Attach (or replace) the electrical-draw model behind `READ_POUT`
    /// and [`Board::rail_power_uw`].
    pub fn attach_power_model(&mut self, model: Arc<dyn RailDraw>) {
        self.power_model = Some(model);
    }

    /// Modeled draw of `rail` at its current setpoint and die temperature,
    /// in microwatts. `None` without an attached model. Host-side
    /// bookkeeping like [`Board::rail_mv`] — the experiment driver itself
    /// goes through `READ_POUT`.
    #[must_use]
    pub fn rail_power_uw(&self, rail: Rail) -> Option<u64> {
        self.power_model
            .as_ref()
            .map(|m| m.rail_uw(rail, self.regulator.vout(rail), self.temperature_c))
    }

    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    #[must_use]
    pub fn state(&self) -> BoardState {
        self.state
    }

    #[must_use]
    pub fn is_crashed(&self) -> bool {
        matches!(self.state, BoardState::Crashed { .. })
    }

    /// How many times this board has been power-cycled (telemetry).
    #[must_use]
    pub fn power_cycles(&self) -> u32 {
        self.power_cycles
    }

    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Heat-chamber control (Fig. 8 experiments).
    pub fn set_temperature_c(&mut self, t: f64) {
        self.temperature_c = t;
    }

    #[must_use]
    pub fn noise_band_mv(&self) -> u32 {
        self.noise_band_mv
    }

    /// Configure the noisy-environment crash band (see field docs).
    pub fn set_noise_band_mv(&mut self, band: u32) {
        self.noise_band_mv = band;
    }

    /// Current programmed voltage of a rail, bypassing PMBus (host-side
    /// bookkeeping; the experiment driver itself uses `READ_VOUT`).
    #[must_use]
    pub fn rail_mv(&self, rail: Rail) -> Millivolts {
        self.regulator.vout(rail)
    }

    fn crash(&mut self, rail: Rail, at: Millivolts) {
        self.state = BoardState::Crashed { rail, at };
    }

    fn crashed_error(&self) -> Option<BoardError> {
        match self.state {
            BoardState::Crashed { rail, at } => Some(BoardError::Crashed { rail, at }),
            BoardState::Operational => None,
        }
    }

    /// Execute a PMBus transaction.
    ///
    /// A hung board answers nothing: every command fails with
    /// [`PmbusError::NoResponse`] until the board is power-cycled.
    pub fn pmbus(&mut self, cmd: PmbusCommand) -> Result<PmbusResponse, PmbusError> {
        if self.is_crashed() {
            return Err(PmbusError::NoResponse);
        }
        match cmd {
            PmbusCommand::VoutCommand { rail, v } => {
                if rail == Rail::Vccaux {
                    // The study never touches VCCAUX; the bring-up scripts
                    // don't either. Model the page as absent.
                    return Err(PmbusError::UnknownPage { rail });
                }
                // The regulator programs the voltage first; range errors are
                // polite NAK-like failures that leave the board alive.
                let snapped = match self.regulator.set_vout(rail, v) {
                    Ok(s) => s,
                    Err(BoardError::VoltageOutOfRange { .. }) => {
                        return Err(PmbusError::UnsupportedCommand {
                            command: "VOUT_COMMAND out of range",
                        });
                    }
                    Err(_) => {
                        return Err(PmbusError::UnsupportedCommand {
                            command: "VOUT_COMMAND",
                        });
                    }
                };
                // A lethal setting is still ACKed — the supply collapses
                // *after* the command completes. The caller only finds out
                // when the next data access times out.
                if self.platform.rail(rail).region(snapped) == crate::voltage::VoltageRegion::Crash
                {
                    self.crash(rail, snapped);
                }
                Ok(PmbusResponse::Ack)
            }
            PmbusCommand::ReadVout { rail } => Ok(PmbusResponse::Vout(self.regulator.vout(rail))),
            PmbusCommand::ReadTemperature2 => Ok(PmbusResponse::TemperatureC(self.temperature_c)),
            PmbusCommand::ReadPout { rail } => match self.rail_power_uw(rail) {
                Some(uw) => Ok(PmbusResponse::PowerUw(uw)),
                None => Err(PmbusError::UnsupportedCommand {
                    command: "READ_POUT: no power model attached",
                }),
            },
            PmbusCommand::ClearFaults => Ok(PmbusResponse::Ack),
        }
    }

    /// Convenience wrapper over `VOUT_COMMAND` returning board-level errors.
    pub fn set_rail_mv(&mut self, rail: Rail, v: Millivolts) -> Result<Millivolts, BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        let snapped = self.regulator.set_vout(rail, v)?;
        if self.platform.rail(rail).region(snapped) == crate::voltage::VoltageRegion::Crash {
            self.crash(rail, snapped);
        }
        Ok(snapped)
    }

    /// Supply-noise stress roll for one experiment run.
    ///
    /// With a non-zero noise band, operating a rail at `v` within
    /// `[vcrash, vcrash + band)` collapses the board with a probability that
    /// rises towards the boundary. The roll is a pure function of
    /// `(chip_seed, rail, v, run, attempt)`, so an interrupted-and-resumed
    /// sweep replays the *same* crashes at the same logical positions — the
    /// checkpoint-resume bit-identity property depends on this.
    ///
    /// Returns `true` if this roll took the board down.
    pub fn apply_supply_noise(&mut self, rail: Rail, run: u32, attempt: u32) -> bool {
        if self.noise_band_mv == 0 || self.is_crashed() {
            return false;
        }
        let v = self.regulator.vout(rail);
        let lm = self.platform.rail(rail);
        let band = self.noise_band_mv;
        if v < lm.vcrash || v.0 >= lm.vcrash.0 + band {
            return false;
        }
        // Linear-in-voltage margin, squared: p -> 1 at the boundary,
        // p -> 0 at the top of the band.
        let margin = f64::from(v.0 - lm.vcrash.0) / f64::from(band);
        let p = (1.0 - margin) * (1.0 - margin);
        let roll = seedmix::unit_f64(seedmix::mix(&[
            self.chip_seed,
            rail as u64,
            u64::from(v.0),
            u64::from(run),
            u64::from(attempt),
            0x5e15_ec0d, // domain tag: supply-noise rolls
        ]));
        if roll < p {
            self.crash(rail, v);
            true
        } else {
            false
        }
    }

    /// Write `pattern` into every BRAM (host-side JTAG/ICAP access path).
    pub fn write_pattern(&mut self, pattern: DataPattern) -> Result<(), BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        for (i, bram) in self.brams.iter_mut().enumerate() {
            bram.fill_pattern(BramId(i as u32), pattern);
        }
        Ok(())
    }

    /// Write one word (used by later crates to load NN weights).
    pub fn write_row(&mut self, bram: BramId, row: u32, value: u16) -> Result<(), BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        let b = self
            .brams
            .get_mut(bram.0 as usize)
            .ok_or(BoardError::AddressOutOfRange { bram: bram.0, row })?;
        if !b.set_word(row as usize, value) {
            return Err(BoardError::AddressOutOfRange { bram: bram.0, row });
        }
        Ok(())
    }

    /// Read the *stored* word at an address.
    ///
    /// On a hung board the access never completes — callers get the typed
    /// crash error and are expected to translate it into a watchdog timeout
    /// (see `uvf_characterize::harness::Watchdog`). Undervolting corruption
    /// of the returned value is applied by `uvf-faults` at a higher layer:
    /// weak cells belong to the die model, not to the stored data.
    pub fn read_row(&self, bram: BramId, row: u32) -> Result<u16, BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        self.brams
            .get(bram.0 as usize)
            .and_then(|b| b.word(row as usize))
            .ok_or(BoardError::AddressOutOfRange { bram: bram.0, row })
    }

    /// Bulk read of one whole BRAM image — the NN weight-fetch path of
    /// `uvf-accel`, equivalent to 1024 [`Board::read_row`] calls with one
    /// liveness check. Same semantics: the *stored* words come back; the
    /// fault model corrupts them at a higher layer.
    pub fn read_bram(&self, bram: BramId) -> Result<&[u16; BRAM_ROWS], BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        self.brams
            .get(bram.0 as usize)
            .map(Bram::words)
            .ok_or(BoardError::AddressOutOfRange {
                bram: bram.0,
                row: 0,
            })
    }

    /// Deterministic logic self-test for `VCCINT` sweeps.
    ///
    /// Placeholder for the future `faults::logic` datapath model (ROADMAP):
    /// returns the number of failing test vectors at the current `VCCINT`
    /// setting — zero above the rail's `vmin`, exponentially growing below
    /// it. Enough to drive Fig.-1 guardband discovery on the internal rail.
    pub fn logic_selftest(&self) -> Result<u32, BoardError> {
        if let Some(e) = self.crashed_error() {
            return Err(e);
        }
        let lm = self.platform.rail(Rail::Vccint);
        let v = self.regulator.vout(Rail::Vccint);
        if v > lm.vmin {
            return Ok(0);
        }
        let deficit_steps = (lm.vmin.0 - v.0) / 10;
        Ok(1u32 << deficit_steps.min(16))
    }

    /// Power-cycle the board: the one recovery path from a hang.
    ///
    /// Restores every rail to nominal, clears all BRAM contents (volatile
    /// memory loses state), returns the board to `Operational`, and leaves
    /// the die — chip seed, temperature chamber setting — untouched.
    pub fn power_cycle(&mut self) {
        self.regulator.reset_to_nominal();
        for bram in &mut self.brams {
            bram.clear();
        }
        self.state = BoardState::Operational;
        self.power_cycles = self.power_cycles.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformKind;

    fn vc707() -> Board {
        Board::new(PlatformKind::Vc707.descriptor())
    }

    #[test]
    fn lethal_vout_is_acked_then_board_hangs() {
        let mut b = vc707();
        // 0.53 V is below the VC707 VCCBRAM crash boundary of 0.54 V.
        let resp = b.pmbus(PmbusCommand::VoutCommand {
            rail: Rail::Vccbram,
            v: Millivolts(530),
        });
        assert_eq!(resp, Ok(PmbusResponse::Ack), "lethal set is still ACKed");
        assert!(b.is_crashed());
        // ... and now the bus is silent.
        let read = b.pmbus(PmbusCommand::ReadVout {
            rail: Rail::Vccbram,
        });
        assert_eq!(read, Err(PmbusError::NoResponse));
        assert!(matches!(
            b.read_row(BramId(0), 0),
            Err(BoardError::Crashed { .. })
        ));
    }

    #[test]
    fn bulk_read_matches_row_reads_and_respects_crash() {
        let mut b = vc707();
        b.write_pattern(DataPattern::Random50).unwrap();
        let image = b.read_bram(BramId(5)).unwrap();
        for row in [0u32, 1, 511, 1023] {
            assert_eq!(image[row as usize], b.read_row(BramId(5), row).unwrap());
        }
        assert!(matches!(
            b.read_bram(BramId(u32::MAX)),
            Err(BoardError::AddressOutOfRange { .. })
        ));
        b.set_rail_mv(Rail::Vccbram, Millivolts(500)).ok();
        assert!(matches!(
            b.read_bram(BramId(0)),
            Err(BoardError::Crashed { .. })
        ));
    }

    #[test]
    fn vcrash_itself_is_operational() {
        let mut b = vc707();
        b.set_rail_mv(Rail::Vccbram, Millivolts(540)).unwrap();
        assert!(!b.is_crashed(), "Vcrash is the last *operational* voltage");
        assert!(b.read_row(BramId(0), 0).is_ok());
    }

    #[test]
    fn power_cycle_recovers_and_clears() {
        let mut b = vc707();
        b.write_pattern(DataPattern::AllOnes).unwrap();
        b.set_rail_mv(Rail::Vccbram, Millivolts(500)).ok();
        assert!(b.is_crashed());
        b.power_cycle();
        assert_eq!(b.state(), BoardState::Operational);
        assert_eq!(b.rail_mv(Rail::Vccbram), Millivolts::NOMINAL);
        assert_eq!(b.read_row(BramId(3), 17).unwrap(), 0, "contents cleared");
        assert_eq!(b.power_cycles(), 1);
    }

    #[test]
    fn noise_band_rolls_are_deterministic() {
        let mut a = vc707();
        let mut b = vc707();
        for board in [&mut a, &mut b] {
            board.set_noise_band_mv(30);
            board.set_rail_mv(Rail::Vccbram, Millivolts(550)).unwrap();
        }
        for run in 0..200 {
            assert_eq!(
                a.apply_supply_noise(Rail::Vccbram, run, 0),
                b.apply_supply_noise(Rail::Vccbram, run, 0)
            );
            if a.is_crashed() {
                a.power_cycle();
                b.power_cycle();
                for board in [&mut a, &mut b] {
                    board.set_rail_mv(Rail::Vccbram, Millivolts(550)).unwrap();
                }
            }
        }
    }

    #[test]
    fn noise_band_never_fires_outside_band_or_when_disabled() {
        let mut b = vc707();
        b.set_rail_mv(Rail::Vccbram, Millivolts(560)).unwrap();
        for run in 0..100 {
            assert!(
                !b.apply_supply_noise(Rail::Vccbram, run, 0),
                "band disabled"
            );
        }
        b.set_noise_band_mv(10);
        b.set_rail_mv(Rail::Vccbram, Millivolts(600)).unwrap();
        for run in 0..100 {
            assert!(!b.apply_supply_noise(Rail::Vccbram, run, 0), "above band");
        }
    }

    #[test]
    fn read_pout_answers_through_the_attached_model() {
        #[derive(Debug)]
        struct Flat;
        impl crate::power::RailDraw for Flat {
            fn rail_uw(&self, _rail: Rail, v: Millivolts, _t: f64) -> u64 {
                u64::from(v.0) * 1000
            }
        }
        let mut b = vc707();
        let cmd = PmbusCommand::ReadPout {
            rail: Rail::Vccbram,
        };
        assert!(
            matches!(b.pmbus(cmd), Err(PmbusError::UnsupportedCommand { .. })),
            "no model attached yet"
        );
        assert_eq!(b.rail_power_uw(Rail::Vccbram), None);
        b.attach_power_model(std::sync::Arc::new(Flat));
        assert_eq!(b.pmbus(cmd).unwrap().pout_uw().unwrap(), 1_000_000);
        b.set_rail_mv(Rail::Vccbram, Millivolts(610)).unwrap();
        assert_eq!(b.rail_power_uw(Rail::Vccbram), Some(610_000));
        // A hung board answers nothing, READ_POUT included.
        b.set_rail_mv(Rail::Vccbram, Millivolts(500)).ok();
        assert_eq!(b.pmbus(cmd), Err(PmbusError::NoResponse));
    }

    #[test]
    fn logic_selftest_onsets_at_vccint_vmin() {
        let mut b = vc707();
        let vmin = b.platform().rail(Rail::Vccint).vmin;
        b.set_rail_mv(Rail::Vccint, Millivolts(vmin.0 + 10))
            .unwrap();
        assert_eq!(b.logic_selftest().unwrap(), 0);
        b.set_rail_mv(Rail::Vccint, vmin).unwrap();
        assert!(b.logic_selftest().unwrap() > 0);
    }
}
