//! `layer_isolation`: the paper-scale 784-1024-512-256-128-10 network,
//! mapped contiguously on VC707 at the seed's chip. The pass runs the
//! Fig. 13 per-layer vulnerability sweep at `Vcrash`, then reads back and
//! evaluates the ICBP remap of the dominant layer (Fig. 14).
//!
//! Chosen because about 90 % of its time is f32 inference over a 6 MB
//! weight set (larger than L2), and most of its evaluations fault a single
//! layer, so the prefix before that layer is unchanged: prefix caching and
//! integer GEMM show here.

use uvf_accel::{layer_vulnerability, LayerFaults, MappedNetwork, Placement, VulnerabilityReport};
use uvf_faults::{FaultModel, ReadCondition, ResolvedCondition};
use uvf_fpga::{Board, Platform, PlatformKind, BRAM_BITS};
use uvf_nn::MNIST_LAYOUT;

use crate::nnfix::{digest, train_fixture, Evaluator, NetFixture};
use crate::recorder::Recorder;
use crate::workload::{Checks, Env, Work, Workload};

/// Fig. 13/14 evaluate on a cold die (worst-case inverse thermal
/// dependence), as `repro` does.
const EVAL_TEMPERATURE_C: f64 = 0.0;
/// Set-up trains briefly: the accuracy reached is not a reported figure.
const EPOCHS: usize = 1;
const TINY_LAYOUT: [usize; 4] = [784, 32, 16, 10];

pub struct LayerIsolation;

#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub report: VulnerabilityReport,
    pub dominant: usize,
    pub icbp_error: f64,
}

fn condition(model: &FaultModel, env: &Env) -> ResolvedCondition {
    model.resolve(&ReadCondition {
        v: model.platform().vccbram.vcrash,
        temperature_c: EVAL_TEMPERATURE_C,
        run_seed: env.seeds.run,
    })
}

impl Workload for LayerIsolation {
    const NAME: &'static str = "layer_isolation";
    type Fixture = NetFixture;
    type Output = Output;

    fn setup(env: &Env, rec: &Recorder) -> NetFixture {
        let layout: &[usize] = if env.tiny {
            &TINY_LAYOUT
        } else {
            &MNIST_LAYOUT
        };
        train_fixture(layout, EPOCHS, env.seeds.net, rec)
    }

    fn fixture_digest(fx: &NetFixture) -> u64 {
        digest(&fx.qnet)
    }

    fn run(env: &Env, fx: &NetFixture) -> Result<Output, String> {
        let platform = Platform::new(PlatformKind::Vc707);
        let chip = env.seeds.chip;
        let mut board = Board::with_chip_seed(platform, chip);
        let model = FaultModel::with_chip_seed(platform, chip);
        let cond = condition(&model, env);
        let mapped = MappedNetwork::load(&mut board, &fx.qnet, Placement::contiguous(&fx.weights))
            .map_err(|e| format!("load: {e:?}"))?;
        let report = layer_vulnerability(&mapped, &board, &model, &cond, &fx.data.test)
            .map_err(|e| format!("vulnerability: {e:?}"))?;
        let dominant = report.dominant_layer();
        let fvm = model.variation_map(cond.condition().v);
        let mut board2 = Board::with_chip_seed(platform, chip);
        let remapped = MappedNetwork::load(
            &mut board2,
            &fx.qnet,
            Placement::icbp(&fx.weights, &fvm, dominant),
        )
        .map_err(|e| format!("icbp load: {e:?}"))?;
        let icbp_error = remapped
            .read_back(&board2, &model, Some(&cond), LayerFaults::All)
            .map_err(|e| format!("icbp read: {e:?}"))?
            .error_on(&fx.data.test);
        Ok(Output {
            report,
            dominant,
            icbp_error,
        })
    }

    fn run_traced(env: &Env, fx: &NetFixture, rec: &Recorder) -> Result<Output, String> {
        let platform = Platform::new(PlatformKind::Vc707);
        let chip = env.seeds.chip;
        let test = &fx.data.test;
        let words = fx.qnet.weight_count() as f64;
        let mut board = rec.span("fpga.board", || Board::with_chip_seed(platform, chip));
        let model = rec.span("faults.model_build", || {
            FaultModel::with_chip_seed(platform, chip)
        });
        rec.count("faults.weak_cells", model.total_weak_cells() as f64);
        let cond = rec.span("faults.resolve", || condition(&model, env));
        let placement = rec.span("accel.placement", || Placement::contiguous(&fx.weights));
        let mapped = rec
            .span("accel.load", || {
                MappedNetwork::load(&mut board, &fx.qnet, placement)
            })
            .map_err(|e| format!("load: {e:?}"))?;

        let mut ev = Evaluator::default();
        let mut evaluate = |mapped: &MappedNetwork<'_>,
                            board: &Board,
                            cond: Option<&ResolvedCondition>,
                            faults: LayerFaults|
         -> Result<f64, String> {
            let net = rec
                .span("accel.read_back", || {
                    mapped.read_back(board, &model, cond, faults)
                })
                .map_err(|e| format!("read back: {e:?}"))?;
            rec.count("accel.read_back.words", words);
            Ok(ev.eval(rec, net, test))
        };
        let baseline = evaluate(&mapped, &board, None, LayerFaults::All)?;
        let degraded = evaluate(&mapped, &board, Some(&cond), LayerFaults::All)?;
        let per_layer = (0..fx.weights.len())
            .map(|l| evaluate(&mapped, &board, Some(&cond), LayerFaults::Only(l)))
            .collect::<Result<Vec<_>, _>>()?;
        let report = VulnerabilityReport {
            baseline,
            degraded,
            per_layer,
        };
        let dominant = report.dominant_layer();

        let fvm = rec.span("faults.variation_map", || {
            model.variation_map(cond.condition().v)
        });
        let icbp = rec.span("accel.placement", || {
            Placement::icbp(&fx.weights, &fvm, dominant)
        });
        let mut board2 = rec.span("fpga.board", || Board::with_chip_seed(platform, chip));
        let remapped = rec
            .span("accel.load", || {
                MappedNetwork::load(&mut board2, &fx.qnet, icbp)
            })
            .map_err(|e| format!("icbp load: {e:?}"))?;
        let icbp_error = evaluate(&remapped, &board2, Some(&cond), LayerFaults::All)?;
        Ok(Output {
            report,
            dominant,
            icbp_error,
        })
    }

    fn check(_env: &Env, out: &Output, checks: &mut Checks) {
        let r = &out.report;
        checks.rate(r.baseline, || "baseline error".into());
        checks.rate(r.degraded, || "degraded error".into());
        for (l, &e) in r.per_layer.iter().enumerate() {
            checks.rate(e, || format!("layer {l} isolated error"));
        }
        checks.rate(out.icbp_error, || "ICBP error".into());
        checks.check(out.dominant < r.per_layer.len(), || {
            format!("dominant layer {} out of range", out.dominant)
        });
    }

    fn work(_env: &Env, fx: &NetFixture, out: &Output) -> Work {
        // Baseline, all-layers, one per isolated layer, then ICBP.
        let evaluations = out.report.per_layer.len() as u64 + 3;
        let brams = Placement::contiguous(&fx.weights).total_brams() as f64;
        Work {
            ops: evaluations,
            sim_mbit: evaluations as f64 * brams * BRAM_BITS as f64 / 1e6,
            inferences: evaluations * fx.data.test.len() as u64,
            sim_board_s: 0.0,
        }
    }

    fn describe(env: &Env, fx: &NetFixture) -> String {
        let shape: Vec<String> = std::iter::once(fx.qnet.layers()[0].weights.cols())
            .chain(fx.qnet.layers().iter().map(|l| l.weights.rows()))
            .map(|d| d.to_string())
            .collect();
        format!(
            "net {} ({} weights, {EPOCHS} epoch), {} test samples, VC707 chip {} at Vcrash, \
             {EVAL_TEMPERATURE_C} °C, run seed {}; inference single-threaded",
            shape.join("-"),
            fx.qnet.weight_count(),
            fx.data.test.len(),
            env.seeds.chip,
            env.seeds.run,
        )
    }
}
