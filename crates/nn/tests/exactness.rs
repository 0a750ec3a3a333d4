//! Bit-exactness of the fast evaluation paths against their scalar
//! definitions: the sample-lane `Mlp::error_on` against a `predict` loop,
//! the row-blocked `Matrix::matvec_into` against a one-row-at-a-time dot
//! product, and training (which runs through `matvec_into`) against
//! digests of the networks it produced before either kernel existed.

use uvf_nn::{train, Dataset, DatasetKind, Dense, Matrix, Mlp, QNetwork, TrainConfig, QMAX};

/// The definition `error_on` must reproduce: one `predict` per sample.
fn predict_loop_error(net: &Mlp, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let wrong = (0..data.len())
        .filter(|&i| net.predict(data.input(i)) != data.label(i) as usize)
        .count();
    wrong as f64 / data.len() as f64
}

fn assert_exact(net: &Mlp, data: &Dataset, what: &str) {
    assert_eq!(
        net.error_on(data).to_bits(),
        predict_loop_error(net, data).to_bits(),
        "{what}: {} samples",
        data.len()
    );
}

/// The first `n` samples of `data`, cycling when `n` exceeds its length.
fn take(data: &Dataset, n: usize) -> Dataset {
    let mut inputs = Vec::with_capacity(n * data.input_dim());
    let mut labels = Vec::with_capacity(n);
    for i in (0..data.len()).cycle().take(n) {
        inputs.extend_from_slice(data.input(i));
        labels.push(data.label(i));
    }
    Dataset::from_parts(data.input_dim(), data.classes(), inputs, labels)
}

/// Small deterministic generator with a wide spread of magnitudes, so a
/// reordered f32 sum would round differently.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let unit = (self.0 >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        let exponent = ((self.0 >> 32) % 12) as i32 - 6;
        unit * 2f32.powi(exponent)
    }

    fn vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next()).collect()
    }
}

fn trained_mnist(layout: &[usize], epochs: usize, seed: u64) -> (Mlp, Dataset) {
    let data = DatasetKind::MnistLike.generate(seed);
    let mut net = Mlp::new(layout, seed);
    train(
        &mut net,
        &data.train,
        &TrainConfig {
            epochs,
            learning_rate: 0.02,
            momentum: 0.5,
            lr_decay: 0.8,
            shuffle_seed: seed,
        },
    );
    (net, data.test)
}

#[test]
fn error_on_equals_the_predict_loop_for_every_tile_shape() {
    let (trained, test) = trained_mnist(&[784, 32, 10], 1, 3);
    assert_eq!(test.len(), 625);
    let nets = [
        ("trained 784-32-10", trained),
        ("one layer 784-10", Mlp::new(&[784, 10], 4)),
        ("odd widths 784-13-9-10", Mlp::new(&[784, 13, 9, 10], 5)),
        ("odd widths 784-33-17-10", Mlp::new(&[784, 33, 17, 10], 6)),
    ];
    for (what, net) in &nets {
        for n in [0, 1, 3, 4, 5, 15, 16, 17, 625] {
            assert_exact(net, &take(&test, n), what);
        }
    }
}

#[test]
fn error_on_breaks_argmax_ties_like_predict() {
    // Output rows 2 and 6 are identical, so those logits tie exactly on
    // every input; an all-zero input ties every logit at its bias, and
    // equal biases tie all ten. First-wins must pick the lower index.
    let hidden = Dense::init(20, 12, 1, 0);
    let mut out = Dense::init(12, 10, 1, 1);
    let row2 = out.w.row(2).to_vec();
    out.w.row_mut(6).copy_from_slice(&row2);
    let net = Mlp::from_layers(vec![hidden, out]);

    let mut rng = Lcg(7);
    let n = 37;
    let mut inputs = rng.vec(n * 20);
    inputs[..3 * 20].fill(0.0);
    let labels: Vec<u8> = (0..n).map(|i| (i % 10) as u8).collect();
    let data = Dataset::from_parts(20, 10, inputs, labels);
    assert_exact(&net, &data, "tied rows");

    let zero = Mlp::from_layers(vec![Dense::from_parts(
        Matrix::zeros(10, 20),
        vec![0.0; 10],
    )]);
    // Every logit is 0.0, so both paths predict class 0 everywhere.
    assert_eq!(zero.error_on(&data), predict_loop_error(&zero, &data));
    assert_eq!(zero.error_on(&data), 33.0 / 37.0);
}

#[test]
fn error_on_is_exact_on_corrupted_read_backs() {
    let (net, test) = trained_mnist(&[784, 24, 10], 1, 9);
    let q = QNetwork::from_mlp(&net);
    // Every 13th stored weight driven to ±QMAX codes, the worst a
    // sign-magnitude word can read back.
    let weights = q
        .layers()
        .iter()
        .map(|l| {
            let mut w = l.weights.dequantize();
            let cols = w.cols();
            for i in (0..w.rows() * cols).step_by(13) {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                w.set(i / cols, i % cols, sign * QMAX as f32 * l.weights.scale());
            }
            w
        })
        .collect();
    let corrupted = q.rebuild_with_weights(weights);
    assert_ne!(corrupted, q.to_mlp());
    for n in [17, 625] {
        assert_exact(&corrupted, &take(&test, n), "±QMAX corruption");
    }

    // Weights large enough to overflow to ±inf and NaN logits.
    let mut huge = corrupted.clone();
    for l in huge.layers_mut() {
        let scaled: Vec<f32> = l.w.data().iter().map(|w| w * 1e30).collect();
        l.w = Matrix::from_vec(l.w.rows(), l.w.cols(), scaled);
    }
    assert_exact(&huge, &test, "overflowing weights");
}

#[test]
fn matvec_into_equals_a_scalar_dot_product_bit_for_bit() {
    let mut rng = Lcg(11);
    for rows in 1..=17 {
        for cols in [0, 1, 7, 33, 100] {
            let m = Matrix::from_vec(rows, cols, rng.vec(rows * cols));
            let x = rng.vec(cols);
            let mut out = vec![f32::NAN; rows];
            m.matvec_into(&x, &mut out);
            for (r, &o) in out.iter().enumerate() {
                let mut acc = 0.0f32;
                for (w, v) in m.row(r).iter().zip(&x) {
                    acc += w * v;
                }
                assert_eq!(o.to_bits(), acc.to_bits(), "{rows}x{cols} row {r}");
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Codes, scale and biases of every layer.
fn digest(q: &QNetwork) -> u64 {
    let mut bytes = Vec::new();
    for l in q.layers() {
        bytes.extend(l.weights.codes().iter().flat_map(|c| c.to_le_bytes()));
        bytes.extend(l.weights.scale().to_le_bytes());
        bytes.extend(l.bias.iter().flat_map(|b| b.to_le_bytes()));
    }
    fnv1a(&bytes)
}

/// Training runs every forward pass through `matvec_into`; these digests
/// were recorded with the one-row-at-a-time kernel, so any change to its
/// summation order shows up here.
#[test]
fn trained_networks_are_pinned_bit_for_bit() {
    let (mnist, _) = trained_mnist(&[784, 32, 10], 2, 5);
    assert_eq!(digest(&QNetwork::from_mlp(&mnist)), 0xf3ab_aae0_be6f_0b14);

    let data = DatasetKind::ForestLike.generate(11);
    let mut forest = Mlp::new(&[54, 32, 7], 11);
    train(
        &mut forest,
        &data.train,
        &TrainConfig {
            epochs: 10,
            lr_decay: 0.8,
            ..TrainConfig::default()
        },
    );
    assert_eq!(digest(&QNetwork::from_mlp(&forest)), 0x40a3_c139_69c7_6eed);
    assert_eq!(forest.error_on(&data.test), 0.04);
}
