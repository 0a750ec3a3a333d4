//! The trained-network fixture the NN workloads share, and the traced
//! evaluation step that measures inference and how much of each evaluated
//! network is unchanged from the nominal weights.

use uvf_nn::{train, Dataset, DatasetKind, Mlp, QNetwork, SyntheticData, TrainConfig};

use crate::recorder::Recorder;
use crate::workload::fnv1a;

/// A trained, quantized network and the data it is evaluated on.
pub struct NetFixture {
    pub data: SyntheticData,
    pub qnet: QNetwork,
    /// Weights per layer (the placement input).
    pub weights: Vec<usize>,
}

/// Generate the MNIST-like set and train `layout` on it for `epochs`, with
/// the trainer settings `repro` uses for its fixtures.
#[must_use]
pub fn train_fixture(layout: &[usize], epochs: usize, net_seed: u64, rec: &Recorder) -> NetFixture {
    let data = rec.span("nn.dataset", || DatasetKind::MnistLike.generate(net_seed));
    let mut net = rec.span("nn.init", || Mlp::new(layout, net_seed));
    rec.span("nn.train", || {
        train(
            &mut net,
            &data.train,
            &TrainConfig {
                epochs,
                learning_rate: 0.02,
                momentum: 0.5,
                lr_decay: 0.8,
                shuffle_seed: net_seed,
            },
        );
    });
    rec.count("nn.train.epochs", epochs as f64);
    let qnet = rec.span("nn.quantize", || QNetwork::from_mlp(&net));
    let weights = qnet.layers().iter().map(|l| l.weights.len()).collect();
    NetFixture {
        data,
        qnet,
        weights,
    }
}

/// Digest of the quantized network: codes, scales and biases.
#[must_use]
pub fn digest(qnet: &QNetwork) -> u64 {
    let mut bytes = Vec::new();
    for l in qnet.layers() {
        bytes.extend(l.weights.codes().iter().flat_map(|c| c.to_le_bytes()));
        bytes.extend(l.weights.scale().to_le_bytes());
        bytes.extend(l.bias.iter().flat_map(|b| b.to_le_bytes()));
    }
    fnv1a(&bytes)
}

/// Multiply-accumulates of one forward pass per layer.
#[must_use]
pub fn layer_macs(net: &Mlp) -> Vec<u64> {
    net.layers()
        .iter()
        .map(|l| (l.in_dim() * l.out_dim()) as u64)
        .collect()
}

/// Traced evaluation: classifies the test split inside an `nn.eval` span
/// and compares each evaluated network with the first one of the pass
/// (always a clean read-back, i.e. the nominal weights).
#[derive(Default)]
pub struct Evaluator {
    nominal: Option<Mlp>,
}

impl Evaluator {
    pub fn eval(&mut self, rec: &Recorder, net: Mlp, data: &Dataset) -> f64 {
        let error = rec.span("nn.eval", || net.error_on(data));
        let samples = data.len() as u64;
        let macs = layer_macs(&net);
        rec.count("nn.eval.samples", samples as f64);
        rec.count("nn.eval.macs", (macs.iter().sum::<u64>() * samples) as f64);
        let nominal = self.nominal.get_or_insert_with(|| net.clone());
        let first_changed = net
            .layers()
            .iter()
            .zip(nominal.layers())
            .position(|(a, b)| a != b);
        let prefix = first_changed.unwrap_or(macs.len());
        if first_changed.is_none() {
            rec.count("nn.eval.unchanged_nets", 1.0);
        }
        rec.count(
            "nn.eval.prefix_macs",
            (macs[..prefix].iter().sum::<u64>() * samples) as f64,
        );
        error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluator_measures_the_unchanged_prefix() {
        let data = DatasetKind::MnistLike.generate(3);
        let net = Mlp::new(&[784, 8, 4, 10], 3);
        let macs = layer_macs(&net);
        assert_eq!(macs, vec![784 * 8, 8 * 4, 4 * 10]);
        let rec = Recorder::new();
        let mut ev = Evaluator::default();
        let e0 = ev.eval(&rec, net.clone(), &data.test);
        assert!((0.0..=1.0).contains(&e0));
        // Corrupt the middle layer: the first layer's MACs stay a prefix.
        let mut changed = net.clone();
        changed.layers_mut()[1].b[0] += 1.0;
        ev.eval(&rec, changed, &data.test);
        let n = data.test.len() as f64;
        assert_eq!(rec.counter("nn.eval.unchanged_nets"), 1.0);
        assert_eq!(
            rec.counter("nn.eval.prefix_macs"),
            (macs.iter().sum::<u64>() + macs[0]) as f64 * n
        );
        assert_eq!(rec.counter("nn.eval.samples"), 2.0 * n);
        assert_eq!(rec.spans().len(), 2);
    }
}
