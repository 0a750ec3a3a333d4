//! The paper's fully-connected inference network (§V-A, Fig. 8): a chain
//! of dense layers with ReLU between them and raw logits at the output.
//! The MNIST topology is 784-1024-512-256-128-10 — 1,492,224 weights,
//! which is what makes the BRAM mapping study interesting.
//!
//! Weights are initialized with seedmix-keyed He draws (Box–Muller over
//! two independent hashes), so a given `(layout, seed)` always produces
//! the same network, bit for bit.

use crate::datasets::Dataset;
use crate::tensor::Matrix;
use uvf_fpga::seedmix::{mix, unit_f64};

const TAG_INIT: u64 = 0x0011_e7a1;

/// Samples [`Mlp::error_on`] carries side by side through each layer:
/// one 128-bit vector, so every output row is a single add chain, as in
/// [`Mlp::predict`], four samples wide. Wider tiles give each row several
/// independent chains; they run faster on an idle core, but their speed
/// then moves with whatever else shares the core's execution units,
/// while one chain per row leaves those units mostly free and keeps
/// evaluation time steady.
const LANES: usize = 4;

/// The paper's MNIST accelerator topology.
pub const MNIST_LAYOUT: [usize; 6] = [784, 1024, 512, 256, 128, 10];

/// One dense layer: `out = w · x + b`, with `w` stored `out_dim × in_dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    pub w: Matrix,
    pub b: Vec<f32>,
}

impl Dense {
    /// He-initialized layer, deterministic in `(seed, layer_index)`.
    #[must_use]
    pub fn init(in_dim: usize, out_dim: usize, seed: u64, layer: usize) -> Dense {
        let std = (2.0 / in_dim as f64).sqrt();
        let mut data = Vec::with_capacity(in_dim * out_dim);
        for i in 0..in_dim * out_dim {
            data.push((std * gauss(seed, layer as u64, i as u64)) as f32);
        }
        Dense {
            w: Matrix::from_vec(out_dim, in_dim, data),
            b: vec![0.0; out_dim],
        }
    }

    /// Rebuild a layer from explicit parts — how `uvf-accel` reconstructs
    /// the net after reading (possibly corrupted) weights back out of
    /// simulated BRAM.
    ///
    /// # Panics
    /// If `b.len()` does not match the weight row count.
    #[must_use]
    pub fn from_parts(w: Matrix, b: Vec<f32>) -> Dense {
        assert_eq!(b.len(), w.rows(), "bias/weight shape mismatch");
        Dense { w, b }
    }

    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// `out = w · x + b`.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        self.w.matvec_into(x, out);
        for (o, &bi) in out.iter_mut().zip(&self.b) {
            *o += bi;
        }
    }

    /// [`Dense::forward_into`] for [`LANES`] samples at once, inputs and
    /// outputs k-major (`x[k * LANES + s]`), optionally followed by ReLU.
    /// Per lane this is the same operation sequence as `forward_into`:
    /// `acc = 0; acc += w[k] * x[k]` for `k` in order, then `acc + b`.
    fn forward_lanes(&self, x: &[f32], out: &mut [f32], relu: bool) {
        let (x, _) = x.as_chunks::<LANES>();
        let (out, _) = out.as_chunks_mut::<LANES>();
        for (r, (o, &b)) in out.iter_mut().zip(&self.b).enumerate() {
            let mut acc = [0.0f32; LANES];
            for (&w, xk) in self.w.row(r).iter().zip(x) {
                for (a, &v) in acc.iter_mut().zip(xk) {
                    *a += w * v;
                }
            }
            for (o, a) in o.iter_mut().zip(acc) {
                let v = a + b;
                *o = if relu { v.max(0.0) } else { v };
            }
        }
    }
}

/// A standard-normal draw keyed entirely through seedmix (Box–Muller on
/// two independent unit draws). `u1` is nudged away from zero so the log
/// is finite.
fn gauss(seed: u64, layer: u64, i: u64) -> f64 {
    let h1 = mix(&[seed, TAG_INIT, layer, i, 1]);
    let h2 = mix(&[seed, TAG_INIT, layer, i, 2]);
    let u1 = unit_f64(h1).max(1e-12);
    let u2 = unit_f64(h2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A multi-layer perceptron: ReLU between layers, raw logits out.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Deterministic He-initialized network for the given layer sizes
    /// (`layout[0]` inputs … `layout[last]` logits).
    ///
    /// # Panics
    /// If `layout` has fewer than two entries.
    #[must_use]
    pub fn new(layout: &[usize], seed: u64) -> Mlp {
        assert!(layout.len() >= 2, "need at least input and output sizes");
        let layers = layout
            .windows(2)
            .enumerate()
            .map(|(l, w)| Dense::init(w[0], w[1], seed, l))
            .collect();
        Mlp { layers }
    }

    /// Assemble from prebuilt layers (the corrupted-readback path).
    ///
    /// # Panics
    /// If consecutive layer shapes do not chain.
    #[must_use]
    pub fn from_layers(layers: Vec<Dense>) -> Mlp {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "layer shapes must chain"
            );
        }
        Mlp { layers }
    }

    #[must_use]
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    #[must_use]
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Total weight count (biases excluded — they stay on-chip in flip
    /// flops in the paper's design, not in BRAM).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.data().len()).sum()
    }

    /// Forward pass returning the output logits.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for (l, layer) in self.layers.iter().enumerate() {
            let mut next = vec![0.0f32; layer.out_dim()];
            layer.forward_into(&cur, &mut next);
            if l + 1 < self.layers.len() {
                for v in &mut next {
                    *v = v.max(0.0);
                }
            }
            cur = next;
        }
        cur
    }

    /// Argmax class prediction (ties break to the lowest index, so the
    /// result is deterministic even under heavy corruption).
    #[must_use]
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.forward(x))
    }

    /// Classification error rate on a dataset, in `[0, 1]`.
    ///
    /// Counts exactly the samples a [`Mlp::predict`] loop gets wrong, but
    /// evaluates the split in tiles of four samples stored k-major
    /// (`x[k][s]`): each output runs `acc[s] += w[r][k] * x[k][s]` across
    /// the sample lanes `s` with `k` in order, then `+ b`, the hidden-layer
    /// ReLU and the first-wins argmax. Vectorizing across samples rather
    /// than along `k` leaves every sample's f32 operations — the same
    /// products, summed in the same order — untouched, so the count is
    /// bit-identical (Rust never contracts `a * b + c` into a fused
    /// multiply-add). Padding lanes of the last tile are never counted.
    ///
    /// # Panics
    /// If the dataset's input width is not the network's.
    #[must_use]
    pub fn error_on(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        assert_eq!(data.input_dim(), self.in_dim(), "input length");
        let widest = self
            .layers
            .iter()
            .map(Dense::out_dim)
            .fold(self.in_dim(), usize::max);
        let mut cur = vec![0.0f32; widest * LANES];
        let mut next = vec![0.0f32; widest * LANES];
        let out_dim = self.out_dim();
        let mut wrong = 0usize;
        for start in (0..data.len()).step_by(LANES) {
            let n = LANES.min(data.len() - start);
            self.forward_tile(data, start..start + n, &mut cur, &mut next);
            for s in 0..n {
                let mut best = 0;
                for i in 1..out_dim {
                    if cur[i * LANES + s] > cur[best * LANES + s] {
                        best = i;
                    }
                }
                if best != data.label(start + s) as usize {
                    wrong += 1;
                }
            }
        }
        wrong as f64 / data.len() as f64
    }

    /// Pack the samples `tile` of `data` k-major into `cur` (zero padding
    /// up to [`LANES`]) and run every layer over them, leaving the logits
    /// k-major in `cur`. Both buffers hold the widest layer × `LANES`.
    fn forward_tile(
        &self,
        data: &Dataset,
        tile: std::ops::Range<usize>,
        cur: &mut Vec<f32>,
        next: &mut Vec<f32>,
    ) {
        let x = &mut cur[..self.in_dim() * LANES];
        x.fill(0.0);
        for (s, i) in tile.enumerate() {
            for (xk, &v) in x.chunks_exact_mut(LANES).zip(data.input(i)) {
                xk[s] = v;
            }
        }
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward_lanes(
                &cur[..layer.in_dim() * LANES],
                &mut next[..layer.out_dim() * LANES],
                l + 1 < self.layers.len(),
            );
            std::mem::swap(cur, next);
        }
    }
}

/// Index of the largest value, first occurrence wins.
#[must_use]
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic_and_scaled() {
        let a = Mlp::new(&[20, 10, 4], 9);
        let b = Mlp::new(&[20, 10, 4], 9);
        assert_eq!(a, b);
        let c = Mlp::new(&[20, 10, 4], 10);
        assert_ne!(a, c);
        // He std for fan-in 20 is ~0.316; the extreme draw should be a
        // small multiple of that, not orders of magnitude off.
        let m = a.layers()[0].w.max_abs();
        assert!(m > 0.1 && m < 2.0, "max_abs {m}");
    }

    #[test]
    fn forward_shapes_chain_and_relu_clamps() {
        let net = Mlp::new(&[5, 3, 2], 1);
        let out = net.forward(&[1.0, -1.0, 0.5, 0.0, 2.0]);
        assert_eq!(out.len(), 2);
        assert_eq!(net.weight_count(), 5 * 3 + 3 * 2);
    }

    #[test]
    fn from_layers_rejects_mismatched_chain() {
        let l0 = Dense::init(4, 3, 0, 0);
        let l1 = Dense::init(3, 2, 0, 1);
        let net = Mlp::from_layers(vec![l0.clone(), l1]);
        assert_eq!(net.in_dim(), 4);
        assert_eq!(net.out_dim(), 2);
        let bad = std::panic::catch_unwind(|| {
            Mlp::from_layers(vec![l0.clone(), Dense::init(4, 2, 0, 1)])
        });
        assert!(bad.is_err());
    }

    #[test]
    fn lane_logits_equal_forward_bit_for_bit() {
        // Logits, not just predictions: any change to a sample's summation
        // order would show in the low bits here.
        let net = Mlp::new(&[37, 19, 11, 10], 3);
        let n = 23;
        let inputs: Vec<f32> = (0..n * 37)
            .map(|i| gauss(5, 0, i as u64) as f32 * 2f32.powi(i as i32 % 9 - 4))
            .collect();
        let labels = vec![0u8; n];
        let data = Dataset::from_parts(37, 10, inputs, labels);
        let mut cur = vec![0.0f32; 37 * LANES];
        let mut next = vec![0.0f32; 37 * LANES];
        for start in (0..n).step_by(LANES) {
            let end = n.min(start + LANES);
            net.forward_tile(&data, start..end, &mut cur, &mut next);
            for (s, i) in (start..end).enumerate() {
                for (c, want) in net.forward(data.input(i)).iter().enumerate() {
                    assert_eq!(cur[c * LANES + s].to_bits(), want.to_bits(), "sample {i}");
                }
            }
        }
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 1);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }
}
