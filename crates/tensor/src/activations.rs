//! Activation functions and their derivatives, plus row-wise softmax.
//!
//! Derivatives are expressed in terms of the *activation output* (the
//! usual trick: σ' = σ(1−σ), tanh' = 1−tanh²) so backward passes can
//! reuse the forward buffers.

use crate::timing::{scope, Kernel};
use crate::{kernels, Matrix};

/// Numerically-safe logistic sigmoid.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Matrix {
    /// Elementwise sigmoid, allocating.
    pub fn sigmoid(&self) -> Matrix {
        self.map(sigmoid_scalar)
    }

    /// Elementwise tanh, allocating.
    pub fn tanh(&self) -> Matrix {
        self.map(f32::tanh)
    }

    /// Elementwise ReLU, allocating.
    pub fn relu(&self) -> Matrix {
        self.map(|v| v.max(0.0))
    }

    /// Derivative of sigmoid given its *output* `s`: `s ⊙ (1 − s)`.
    pub fn sigmoid_deriv_from_output(&self) -> Matrix {
        self.map(|s| s * (1.0 - s))
    }

    /// Derivative of tanh given its *output* `t`: `1 − t²`.
    pub fn tanh_deriv_from_output(&self) -> Matrix {
        self.map(|t| 1.0 - t * t)
    }

    /// Derivative mask of ReLU given its *input* `x`: `1[x > 0]`.
    pub fn relu_deriv_from_input(&self) -> Matrix {
        self.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Row-wise softmax with the max-subtraction trick.
    ///
    /// Each row of the result sums to 1 (rows of all `-inf` are not
    /// supported; masked attention uses a large negative finite value).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax.
    ///
    /// Per row: a laned max reduction ([`kernels::row_max`]; which
    /// zero it returns for a `±0.0` row is fixed, and output-safe
    /// anyway since `x − (+0.0)` and `x − (−0.0)` are bit-equal), a
    /// scalar exp pass accumulating the normalizer in the fixed 8-lane
    /// structure, then a vectorized scale. The exp stays scalar in
    /// every build — there is no bit-exact vector exp — so SIMD-on and
    /// SIMD-off outputs are identical.
    pub fn softmax_rows_inplace(&mut self) {
        let c = self.cols();
        if c == 0 {
            return;
        }
        let _t = scope(Kernel::Softmax);
        for row in self.as_mut_slice().chunks_exact_mut(c) {
            let max = kernels::row_max(row);
            let mut acc = [0.0f32; 8];
            let main = c - c % 8;
            for chunk in row[..main].chunks_exact_mut(8) {
                for (l, v) in chunk.iter_mut().enumerate() {
                    *v = (*v - max).exp();
                    acc[l] += *v;
                }
            }
            let mut tail = 0.0;
            for v in row[main..].iter_mut() {
                *v = (*v - max).exp();
                tail += *v;
            }
            let lanes =
                ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
            let inv = 1.0 / (lanes + tail);
            kernels::scale(row, inv);
        }
    }

    /// Backward of row-wise softmax: given softmax output `y` (= self)
    /// and upstream gradient `dy`, returns
    /// `dx = y ⊙ (dy − rowsum(dy ⊙ y))`.
    pub fn softmax_rows_backward(&self, upstream: &Matrix) -> Matrix {
        assert_eq!(self.shape(), upstream.shape(), "softmax backward shape");
        let c = self.cols();
        let mut out = Matrix::zeros(self.rows(), c);
        for r in 0..self.rows() {
            let y = self.row(r);
            let dy = upstream.row(r);
            let dot: f32 = y.iter().zip(dy).map(|(a, b)| a * b).sum();
            for (o, (yv, dyv)) in out.row_mut(r).iter_mut().zip(y.iter().zip(dy)) {
                *o = yv * (dyv - dot);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_extremes() {
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid_scalar(10.0) + sigmoid_scalar(-10.0) - 1.0).abs() < 1e-6);
        // Large magnitudes must not produce NaN.
        assert!(sigmoid_scalar(100.0).is_finite());
        assert!(sigmoid_scalar(-100.0).is_finite());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits get larger probability.
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_shift_invariance() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![1001., 1002., 1003.]);
        let sa = a.softmax_rows();
        let sb = b.softmax_rows();
        for (x, y) in sa.as_slice().iter().zip(sb.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_finite_difference() {
        // Check the analytic Jacobian-vector product against finite
        // differences at a random-ish point.
        let x = Matrix::from_vec(1, 4, vec![0.3, -0.7, 1.1, 0.0]);
        let dy = Matrix::from_vec(1, 4, vec![0.5, -0.2, 0.1, 0.9]);
        let y = x.softmax_rows();
        let dx = y.softmax_rows_backward(&dy);
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.set(0, i, x.get(0, i) + eps);
            let mut xm = x.clone();
            xm.set(0, i, x.get(0, i) - eps);
            let fp = xp.softmax_rows().dot_flat(&dy);
            let fm = xm.softmax_rows().dot_flat(&dy);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.get(0, i)).abs() < 1e-3,
                "component {}: numeric {} analytic {}",
                i,
                num,
                dx.get(0, i)
            );
        }
    }

    #[test]
    fn derivative_helpers() {
        let x = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let s = x.sigmoid();
        let ds = s.sigmoid_deriv_from_output();
        for i in 0..3 {
            let sv = s.get(0, i);
            assert!((ds.get(0, i) - sv * (1.0 - sv)).abs() < 1e-7);
        }
        let t = x.tanh();
        let dt = t.tanh_deriv_from_output();
        for i in 0..3 {
            let tv = t.get(0, i);
            assert!((dt.get(0, i) - (1.0 - tv * tv)).abs() < 1e-7);
        }
        assert_eq!(x.relu().as_slice(), &[0.0, 0.0, 2.0]);
        assert_eq!(x.relu_deriv_from_input().as_slice(), &[0.0, 0.0, 1.0]);
    }
}
