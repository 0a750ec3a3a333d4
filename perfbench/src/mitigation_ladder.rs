//! `mitigation_ladder`: the small 784-128-10 network (400 KB of weights,
//! cache-resident). The pass runs the Fig. 12 voltage–accuracy–power sweep
//! and then the none/ECC/ICBP/ECC+ICBP shoot-out with the ladder ending at
//! `Vcrash` (`descend_below_vcrash_mv = 0`).
//!
//! Chosen because inference is spread over about 70 short evaluations,
//! half of the shoot-out curves go through `load_ecc`/`read_back_ecc` and
//! SECDED decode, and each entry point builds its own VC707 die and
//! samples the power model per rung. It uses `faults` by reading and
//! decoding stored words, where the fleet workload counts faults down a
//! ladder: a change that helps one use and costs the other shows here.

use uvf_accel::{
    mitigation_shootout, voltage_accuracy_power_sweep, LayerFaults, MappedNetwork, Mitigation,
    MitigationCurve, MitigationPoint, MitigationShootout, ParetoConfig, ParetoPoint, ParetoSweep,
    Placement, ShootoutConfig,
};
use uvf_faults::{FaultModel, ReadCondition};
use uvf_fpga::{Board, Millivolts, Platform, Rail, BRAM_BITS, BRAM_ROWS, ECC_WORDS_PER_BRAM};
use uvf_power::{knee_of_frontier, pareto_frontier, ChipPowerModel};

use crate::nnfix::{digest, train_fixture, Evaluator, NetFixture};
use crate::recorder::Recorder;
use crate::workload::{Checks, Env, Work, Workload};

/// Cold die, as `repro fig12` and `repro mitigation` evaluate.
const EVAL_TEMPERATURE_C: f64 = 0.0;
const LAYOUT: [usize; 3] = [784, 128, 10];
/// The epochs `repro --quick` trains this fixture for.
const EPOCHS: usize = 8;
const TINY_LAYOUT: [usize; 3] = [784, 16, 10];

pub struct MitigationLadder;

#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub sweep: ParetoSweep,
    pub shootout: MitigationShootout,
}

fn pareto_config(env: &Env) -> ParetoConfig {
    ParetoConfig::vc707_default(env.seeds.chip, env.seeds.run, EVAL_TEMPERATURE_C)
}

fn shootout_config(env: &Env, fx: &NetFixture) -> ShootoutConfig {
    ShootoutConfig {
        descend_below_vcrash_mv: 0,
        ..ShootoutConfig::vc707_default(
            env.seeds.chip,
            env.seeds.run,
            EVAL_TEMPERATURE_C,
            fx.weights.len() - 1,
        )
    }
}

/// `from` down to `floor` in `step` decrements, both ends inclusive — the
/// ladder the Pareto sweep, the shoot-out and the ECC census walk.
pub fn ladder(from: u32, floor: u32, step: u32) -> Vec<Millivolts> {
    let mut rungs = Vec::new();
    let mut v = from;
    while v >= floor {
        rungs.push(Millivolts(v));
        v = match v.checked_sub(step.max(1)) {
            Some(next) => next,
            None => break,
        };
    }
    rungs
}

/// The Fig. 12 sweep composed from the layers' public functions.
fn traced_sweep(
    cfg: &ParetoConfig,
    fx: &NetFixture,
    rec: &Recorder,
    ev: &mut Evaluator,
) -> Result<ParetoSweep, String> {
    let platform = Platform::new(cfg.platform);
    let mut board = rec.span("fpga.board", || {
        Board::with_chip_seed(platform, cfg.chip_seed)
    });
    let model = rec.span("faults.model_build", || {
        FaultModel::with_chip_seed(platform, cfg.chip_seed)
    });
    rec.count("faults.weak_cells", model.total_weak_cells() as f64);
    let power = rec.span("power.model", || ChipPowerModel::for_platform(cfg.platform));
    let placement = rec.span("accel.placement", || Placement::contiguous(&fx.weights));
    let mapped = rec
        .span("accel.load", || {
            MappedNetwork::load(&mut board, &fx.qnet, placement)
        })
        .map_err(|e| format!("load: {e:?}"))?;
    let rail = platform.rail(Rail::Vccbram);
    let levels = std::iter::once((Millivolts::NOMINAL, false)).chain(
        ladder(
            rail.vmin.0 + cfg.start_above_vmin_mv,
            rail.vcrash.0,
            cfg.step_mv,
        )
        .into_iter()
        .map(|v| (v, true)),
    );
    let mut points = Vec::new();
    for (v, undervolted) in levels {
        let cond = undervolted.then(|| {
            rec.span("faults.resolve", || {
                model.resolve(&ReadCondition {
                    v,
                    temperature_c: cfg.temperature_c,
                    run_seed: cfg.run_seed,
                })
            })
        });
        let net = rec
            .span("accel.read_back", || {
                mapped.read_back(&board, &model, cond.as_ref(), LayerFaults::All)
            })
            .map_err(|e| format!("read back: {e:?}"))?;
        rec.count("accel.read_back.words", fx.qnet.weight_count() as f64);
        let rail_uw = rec.span("power.sample", || {
            power.sample(Rail::Vccbram, v, cfg.temperature_c).total_uw()
        });
        points.push(ParetoPoint {
            v_mv: v.0,
            rail_uw,
            error: ev.eval(rec, net, &fx.data.test),
        });
    }
    let (frontier, knee) = rec.span("power.pareto", || {
        let objectives: Vec<(f64, f64)> =
            points.iter().map(|p| (p.rail_uw as f64, p.error)).collect();
        let frontier = pareto_frontier(&objectives);
        let knee = knee_of_frontier(&objectives, &frontier);
        (frontier, knee)
    });
    Ok(ParetoSweep {
        points,
        frontier,
        knee: knee.ok_or("empty Pareto frontier")?,
    })
}

/// The shoot-out composed from the layers' public functions.
fn traced_shootout(
    cfg: &ShootoutConfig,
    fx: &NetFixture,
    rec: &Recorder,
    ev: &mut Evaluator,
) -> Result<MitigationShootout, String> {
    let platform = Platform::new(cfg.platform);
    let model = rec.span("faults.model_build", || {
        FaultModel::with_chip_seed(platform, cfg.chip_seed)
    });
    rec.count("faults.weak_cells", model.total_weak_cells() as f64);
    let rail = platform.rail(Rail::Vccbram);
    let fvm = rec.span("faults.variation_map", || model.variation_map(rail.vcrash));
    let rungs = ladder(
        rail.vmin.0 + cfg.start_above_vmin_mv,
        rail.vcrash.0.saturating_sub(cfg.descend_below_vcrash_mv),
        cfg.step_mv,
    );
    let words = fx.qnet.weight_count() as f64;
    let mut curves = Vec::with_capacity(Mitigation::ALL.len());
    for m in Mitigation::ALL {
        let capacity = if m.uses_ecc() {
            ECC_WORDS_PER_BRAM
        } else {
            BRAM_ROWS
        };
        let placement = rec.span("accel.placement", || {
            if m.uses_icbp() {
                Placement::icbp_with_capacity(&fx.weights, &fvm, cfg.protected_layer, capacity)
            } else {
                Placement::contiguous_with_capacity(&fx.weights, capacity)
            }
        });
        let mut board = rec.span("fpga.board", || {
            Board::with_chip_seed(platform, cfg.chip_seed)
        });
        let mapped = rec
            .span("accel.load", || {
                if m.uses_ecc() {
                    MappedNetwork::load_ecc(&mut board, &fx.qnet, placement)
                } else {
                    MappedNetwork::load(&mut board, &fx.qnet, placement)
                }
            })
            .map_err(|e| format!("{m} load: {e:?}"))?;
        let read = |cond: Option<&uvf_faults::ResolvedCondition>| {
            rec.count("accel.read_back.words", words);
            if m.uses_ecc() {
                let (net, stats) = rec
                    .span("accel.read_back_ecc", || {
                        mapped.read_back_ecc(&board, &model, cond, LayerFaults::All)
                    })
                    .map_err(|e| format!("{m} read back: {e:?}"))?;
                Ok((net, Some(stats)))
            } else {
                rec.span("accel.read_back", || {
                    mapped.read_back(&board, &model, cond, LayerFaults::All)
                })
                .map(|net| (net, None))
                .map_err(|e| format!("{m} read back: {e:?}"))
            }
        };
        let (nominal, _) = read(None)?;
        let nominal_error = ev.eval(rec, nominal, &fx.data.test);
        let mut points = Vec::with_capacity(rungs.len());
        for &v in &rungs {
            let cond = rec.span("faults.resolve", || {
                model.resolve(&ReadCondition {
                    v,
                    temperature_c: cfg.temperature_c,
                    run_seed: cfg.run_seed,
                })
            });
            let (net, ecc) = read(Some(&cond))?;
            if let Some(s) = ecc {
                rec.count("faults.ecc.words", s.words as f64);
                rec.count("faults.ecc.corrected", s.corrected as f64);
                rec.count("faults.ecc.escaped", s.escaped() as f64);
                rec.count(
                    "faults.ecc.faulty_words",
                    (s.corrected + s.escaped()) as f64,
                );
            }
            points.push(MitigationPoint {
                v_mv: v.0,
                error: ev.eval(rec, net, &fx.data.test),
                ecc,
            });
        }
        curves.push(MitigationCurve {
            mitigation: m,
            nominal_error,
            points,
        });
    }
    Ok(MitigationShootout {
        config: *cfg,
        curves,
    })
}

impl Workload for MitigationLadder {
    const NAME: &'static str = "mitigation_ladder";
    type Fixture = NetFixture;
    type Output = Output;

    fn setup(env: &Env, rec: &Recorder) -> NetFixture {
        if env.tiny {
            train_fixture(&TINY_LAYOUT, 1, env.seeds.net, rec)
        } else {
            train_fixture(&LAYOUT, EPOCHS, env.seeds.net, rec)
        }
    }

    fn fixture_digest(fx: &NetFixture) -> u64 {
        digest(&fx.qnet)
    }

    fn run(env: &Env, fx: &NetFixture) -> Result<Output, String> {
        let sweep =
            voltage_accuracy_power_sweep(&pareto_config(env), &fx.qnet, &fx.weights, &fx.data)
                .map_err(|e| format!("pareto sweep: {e:?}"))?;
        let shootout =
            mitigation_shootout(&shootout_config(env, fx), &fx.qnet, &fx.weights, &fx.data)
                .map_err(|e| format!("shoot-out: {e:?}"))?;
        Ok(Output { sweep, shootout })
    }

    fn run_traced(env: &Env, fx: &NetFixture, rec: &Recorder) -> Result<Output, String> {
        let mut ev = Evaluator::default();
        let sweep = traced_sweep(&pareto_config(env), fx, rec, &mut ev)?;
        let shootout = traced_shootout(&shootout_config(env, fx), fx, rec, &mut ev)?;
        Ok(Output { sweep, shootout })
    }

    fn check(_env: &Env, out: &Output, checks: &mut Checks) {
        for p in &out.sweep.points {
            checks.rate(p.error, || format!("Pareto error at {} mV", p.v_mv));
        }
        checks.check(out.sweep.knee < out.sweep.points.len(), || {
            format!("knee index {} out of range", out.sweep.knee)
        });
        for curve in &out.shootout.curves {
            let m = curve.mitigation;
            checks.rate(curve.nominal_error, || format!("{m} nominal error"));
            for p in &curve.points {
                checks.rate(p.error, || format!("{m} error at {} mV", p.v_mv));
                checks.check(p.ecc.is_some() == m.uses_ecc(), || {
                    format!(
                        "{m} at {} mV: ECC tallies present = {}",
                        p.v_mv,
                        p.ecc.is_some()
                    )
                });
                if let Some(s) = p.ecc {
                    let verdicts = s.corrected + s.detected + s.miscorrected;
                    checks.check(verdicts <= s.raw_flips.min(s.words), || {
                        format!(
                            "{m} at {} mV: ECC verdicts {verdicts} exceed faulty words ({s:?})",
                            p.v_mv
                        )
                    });
                }
            }
        }
    }

    fn work(_env: &Env, fx: &NetFixture, out: &Output) -> Work {
        let raw = Placement::contiguous(&fx.weights).total_brams() as f64;
        let ecc = Placement::contiguous_with_capacity(&fx.weights, ECC_WORDS_PER_BRAM).total_brams()
            as f64;
        let sweep_evals = out.sweep.points.len() as f64;
        let mut evaluations = sweep_evals;
        let mut brams_read = sweep_evals * raw;
        for c in &out.shootout.curves {
            let reads = 1.0 + c.points.len() as f64;
            evaluations += reads;
            brams_read += reads * if c.mitigation.uses_ecc() { ecc } else { raw };
        }
        Work {
            ops: evaluations as u64,
            sim_mbit: brams_read * BRAM_BITS as f64 / 1e6,
            inferences: evaluations as u64 * fx.data.test.len() as u64,
            sim_board_s: 0.0,
        }
    }

    fn describe(env: &Env, fx: &NetFixture) -> String {
        format!(
            "net of {} layers ({} weights), {} test samples, VC707 chip {} from Vmin+50 mV to \
             Vcrash, {EVAL_TEMPERATURE_C} °C, run seed {}; inference single-threaded",
            fx.weights.len(),
            fx.qnet.weight_count(),
            fx.data.test.len(),
            env.seeds.chip,
            env.seeds.run,
        )
    }
}
