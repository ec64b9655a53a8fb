//! Affine layer `Y = X·Wᵀ + b` with manual backward.
//!
//! Weights are stored `out × in` (PyTorch convention) so the forward
//! uses the fused `matmul_transpose_b` kernel.
//!
//! Layers that read the **same input** (attention's K and V) run as a
//! group: [`Linear::forward_fused`] / [`Linear::backward_fused`]
//! project through all weight panels in one pass over the input and
//! form all weight gradients in one `Aᵀ·B`, with the parameters left
//! where the [`ParamSet`] keeps them. A lone layer is the group of one,
//! so there is a single forward and a single backward body.

use crate::param::ParamSet;
use disttgl_tensor::{kernels, Matrix};
use rand::Rng;
use std::borrow::Borrow;

/// A linear (affine) layer. Parameters live in an external [`ParamSet`];
/// the struct holds only their indices, so model structs stay `Clone`-free
/// and cheap while the flat gradient layout stays deterministic.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    w: usize,
    b: usize,
    in_dim: usize,
    out_dim: usize,
}

/// Saved forward activations needed by the backward pass. `M` is how
/// the input is held: a caller that is done with its input hands the
/// `Matrix` over, one that is not lends `&Matrix` — neither is copied.
pub struct LinearCache<M = Matrix> {
    /// The forward input `X` (batch × in_dim).
    pub input: M,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weight and zero bias,
    /// registering both in `params` under `name.w` / `name.b`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = params.register(
            &format!("{name}.w"),
            Matrix::xavier_uniform(out_dim, in_dim, rng),
        );
        let b = params.register(&format!("{name}.b"), Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass: returns `X·Wᵀ + b` and the cache for backward,
    /// which keeps `x` itself (see [`LinearCache`]).
    ///
    /// # Panics
    /// Panics if `x.cols() != in_dim`.
    pub fn forward<M: Borrow<Matrix>>(&self, params: &ParamSet, x: M) -> (Matrix, LinearCache<M>) {
        let y = Self::forward_fused([*self], params, x.borrow(), |_| true);
        (y, LinearCache { input: x })
    }

    /// Inference-only forward.
    pub fn infer(&self, params: &ParamSet, x: &Matrix) -> Matrix {
        self.forward(params, x).0
    }

    /// Backward pass: accumulates `dW += dYᵀ·X`, `db += Σ_rows dY` and
    /// returns `dX = dY·W`.
    pub fn backward<M: Borrow<Matrix>>(
        &self,
        params: &mut ParamSet,
        cache: &LinearCache<M>,
        dy: &Matrix,
    ) -> Matrix {
        Self::backward_fused([*self], params, cache.input.borrow(), dy, self.in_dim)
    }

    /// Forward of `layers` sharing the input `x`:
    /// `[X·W₀ᵀ + b₀ ‖ X·W₁ᵀ + b₁ ‖ …]` for the rows `keep_row` selects
    /// (the others stay zero — callers that mask rows never read them).
    /// Column block `i` is bit-identical to `layers[i]` run alone.
    ///
    /// # Panics
    /// Panics if `x.cols()` differs from a layer's `in_dim`.
    pub(crate) fn forward_fused<const L: usize>(
        layers: [Linear; L],
        params: &ParamSet,
        x: &Matrix,
        keep_row: impl Fn(usize) -> bool + Sync,
    ) -> Matrix {
        for l in &layers {
            assert_eq!(x.cols(), l.in_dim, "Linear::forward: input width");
        }
        let mut y = x.matmul_transpose_b_panels(layers.map(|l| &params.get(l.w).w), &keep_row);
        let width = y.cols();
        for (r, row) in y.as_mut_slice().chunks_exact_mut(width.max(1)).enumerate() {
            if keep_row(r) {
                let mut at = 0;
                for l in &layers {
                    kernels::add(&mut row[at..at + l.out_dim], params.get(l.b).w.as_slice());
                    at += l.out_dim;
                }
            }
        }
        y
    }

    /// Backward of [`Linear::forward_fused`] from `dy = [dY₀ ‖ dY₁ ‖ …]`:
    /// every layer's `dW`/`db` from one `dyᵀ·x` and one column sum, and
    /// the leading `grad_cols` columns of the summed input gradient
    /// `Σᵢ dYᵢ·Wᵢ` (the columns behind them are data to the caller, so
    /// they are not computed). Each term is its own ascending-`k` chain
    /// and terms are added in layer order: bit-identical to running the
    /// layers' backward passes one by one, adding their outputs and
    /// slicing.
    pub(crate) fn backward_fused<const L: usize>(
        layers: [Linear; L],
        params: &mut ParamSet,
        x: &Matrix,
        dy: &Matrix,
        grad_cols: usize,
    ) -> Matrix {
        let width: usize = layers.iter().map(|l| l.out_dim).sum();
        assert_eq!(dy.cols(), width, "Linear::backward: grad width");
        let dw = dy.matmul_transpose_a(x);
        let db = dy.sum_rows();
        let mut dx = Matrix::default();
        let mut at = 0;
        for (i, l) in layers.iter().enumerate() {
            let cols = at..at + l.out_dim;
            kernels::add(
                params.get_mut(l.w).g.as_mut_slice(),
                &dw.as_slice()[at * l.in_dim..cols.end * l.in_dim],
            );
            kernels::add(
                params.get_mut(l.b).g.as_mut_slice(),
                &db.as_slice()[cols.clone()],
            );
            let term = dy.matmul_cols(cols.clone(), &params.get(l.w).w, grad_cols);
            if i == 0 {
                dx = term;
            } else {
                dx.add_assign(&term);
            }
            at = cols.end;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disttgl_tensor::seeded_rng;

    /// Finite-difference gradient check of the full layer.
    #[test]
    fn gradient_check_weights_and_input() {
        let mut rng = seeded_rng(11);
        let mut ps = ParamSet::new();
        let layer = Linear::new(&mut ps, "l", 3, 2, &mut rng);
        let x = Matrix::uniform(4, 3, 1.0, &mut rng);
        // Loss = sum of outputs (upstream gradient of ones).
        let (y, cache) = layer.forward(&ps, &x);
        let ones = Matrix::full(y.rows(), y.cols(), 1.0);
        let dx = layer.backward(&mut ps, &cache, &ones);

        let eps = 1e-3;
        // Check dW numerically.
        let widx = ps.index_of("l.w").unwrap();
        for r in 0..2 {
            for c in 0..3 {
                let orig = ps.get(widx).w.get(r, c);
                ps.get_mut(widx).w.set(r, c, orig + eps);
                let fp = layer.infer(&ps, &x).sum();
                ps.get_mut(widx).w.set(r, c, orig - eps);
                let fm = layer.infer(&ps, &x).sum();
                ps.get_mut(widx).w.set(r, c, orig);
                let num = (fp - fm) / (2.0 * eps);
                let ana = ps.get(widx).g.get(r, c);
                assert!((num - ana).abs() < 1e-2, "dW[{r},{c}]: {num} vs {ana}");
            }
        }
        // Check dX numerically.
        for r in 0..4 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let num = (layer.infer(&ps, &xp).sum() - layer.infer(&ps, &xm).sum()) / (2.0 * eps);
                let ana = dx.get(r, c);
                assert!((num - ana).abs() < 1e-2, "dX[{r},{c}]: {num} vs {ana}");
            }
        }
    }

    #[test]
    fn bias_gradient_is_row_count() {
        let mut rng = seeded_rng(5);
        let mut ps = ParamSet::new();
        let layer = Linear::new(&mut ps, "l", 2, 2, &mut rng);
        let x = Matrix::zeros(7, 2);
        let (y, cache) = layer.forward(&ps, &x);
        let ones = Matrix::full(y.rows(), y.cols(), 1.0);
        layer.backward(&mut ps, &cache, &ones);
        let bidx = ps.index_of("l.b").unwrap();
        // d(sum)/db_j = batch size.
        assert!(ps
            .get(bidx)
            .g
            .as_slice()
            .iter()
            .all(|&v| (v - 7.0).abs() < 1e-6));
    }

    #[test]
    fn forward_matches_infer() {
        let mut rng = seeded_rng(9);
        let mut ps = ParamSet::new();
        let layer = Linear::new(&mut ps, "l", 5, 3, &mut rng);
        let x = Matrix::uniform(2, 5, 2.0, &mut rng);
        let (y, _) = layer.forward(&ps, &x);
        assert_eq!(y, layer.infer(&ps, &x));
        assert_eq!(y.shape(), (2, 3));
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = seeded_rng(13);
        let mut ps = ParamSet::new();
        let layer = Linear::new(&mut ps, "l", 2, 1, &mut rng);
        let x = Matrix::full(1, 2, 1.0);
        let dy = Matrix::full(1, 1, 1.0);
        let (_, cache) = layer.forward(&ps, &x);
        layer.backward(&mut ps, &cache, &dy);
        let g1 = ps.get(0).g.clone();
        layer.backward(&mut ps, &cache, &dy);
        let g2 = ps.get(0).g.clone();
        assert_eq!(g2, g1.scaled(2.0));
    }
}
