//! Minimal dense matrix type for the fully-connected study.
//!
//! The paper's accelerator is a chain of matrix–vector products; nothing
//! fancier is needed, so this is a row-major `Vec<f32>` with exactly the
//! operations the forward/backward passes use. Being in-tree (no BLAS, no
//! ndarray) keeps the workspace std-only and the arithmetic bit-stable
//! across runs — the determinism contract of the whole simulator.
//!
//! f32 addition does not associate, so every output here is one serial
//! sum over `k` in index order. [`Matrix::matvec_into`] gains its speed by
//! running several rows' sums side by side, never by splitting one sum;
//! batched inference over many samples lives in [`crate::Mlp::error_on`],
//! which keeps the same per-sample order across sample lanes.

/// Rows [`Matrix::matvec_into`] accumulates side by side.
const ROW_BLOCK: usize = 8;

/// Row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an existing row-major buffer (`data.len() == rows * cols`).
    ///
    /// # Panics
    /// If the buffer length does not match the shape.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice (the per-output weight vector).
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Largest absolute entry (the quantization scale basis).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// `out = self · x` (matrix–vector product), `x.len() == cols`.
    ///
    /// Rows go eight at a time, each with its own accumulator summed over
    /// `k` in order, so every output is the same serial f32 chain as a
    /// one-row-at-a-time loop — bit for bit — while the block gives the
    /// CPU independent add chains to overlap.
    ///
    /// # Panics
    /// If the shapes do not line up.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "input length");
        assert_eq!(out.len(), self.rows, "output length");
        // Rows re-sliced to `x.len()` so the compiler can drop the bounds
        // checks on `row[k]`.
        let mut rows = (0..self.rows).map(|r| &self.row(r)[..x.len()]);
        let mut outs = out.chunks_exact_mut(ROW_BLOCK);
        for o in &mut outs {
            let block: [&[f32]; ROW_BLOCK] =
                std::array::from_fn(|_| rows.next().expect("one weight row per output"));
            let mut acc = [0.0f32; ROW_BLOCK];
            for (k, &v) in x.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&block) {
                    *a += row[k] * v;
                }
            }
            o.copy_from_slice(&acc);
        }
        for (o, row) in outs.into_remainder().iter_mut().zip(rows) {
            let mut acc = 0.0f32;
            for (w, v) in row.iter().zip(x) {
                acc += w * v;
            }
            *o = acc;
        }
    }

    /// Rank-1 update `self += alpha · d ⊗ x` (the SGD weight step).
    pub fn rank1_add(&mut self, alpha: f32, d: &[f32], x: &[f32]) {
        assert_eq!(d.len(), self.rows, "delta length");
        assert_eq!(x.len(), self.cols, "input length");
        for (r, &dr) in d.iter().enumerate() {
            let a = alpha * dr;
            if a == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, v) in row.iter_mut().zip(x) {
                *w += a * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = [0.0f32; 2];
        m.matvec_into(&[1.0, 0.5, -1.0], &mut out);
        assert_eq!(out, [1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn rank1_update_touches_every_entry_once() {
        let mut m = Matrix::zeros(2, 2);
        m.rank1_add(0.5, &[1.0, -2.0], &[3.0, 4.0]);
        assert_eq!(m.data(), &[1.5, 2.0, -3.0, -4.0]);
    }

    #[test]
    fn max_abs_sees_negative_extremes() {
        let m = Matrix::from_vec(1, 3, vec![0.25, -4.0, 1.0]);
        assert_eq!(m.max_abs(), 4.0);
    }
}
