//! Decoder heads.
//!
//! * [`EdgePredictor`] — 2-layer MLP on `{h_src || h_dst}` producing a
//!   link logit; the self-supervised temporal-link-prediction head used
//!   on Wikipedia/Reddit/MOOC/Flights (paper §4).
//! * [`EdgeClassifier`] — 2-layer MLP producing `C` logits for the
//!   multi-label dynamic edge classification task on GDELT (56-class /
//!   6-label, paper §4 dataset list).

use crate::linear::{Linear, LinearCache};
use crate::param::ParamSet;
use disttgl_tensor::Matrix;
use rand::Rng;

/// Two-layer MLP link decoder: `logit = W2·ReLU(W1·{h_src||h_dst}+b1)+b2`.
#[derive(Clone, Copy, Debug)]
pub struct EdgePredictor {
    l1: Linear,
    l2: Linear,
}

/// Saved activations for the decoder backward passes.
pub struct PredictorCache {
    c1: LinearCache,
    c2: LinearCache,
    /// Pre-activation of the hidden layer (for the ReLU mask).
    z1: Matrix,
}

impl EdgePredictor {
    /// `emb_dim` is the width of one node embedding; the input is the
    /// concatenation of two.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        emb_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let l1 = Linear::new(params, &format!("{name}.l1"), 2 * emb_dim, hidden, rng);
        let l2 = Linear::new(params, &format!("{name}.l2"), hidden, 1, rng);
        Self { l1, l2 }
    }

    /// Forward: `src`/`dst` are `B × emb_dim`; returns `B × 1` logits.
    pub fn forward(
        &self,
        params: &ParamSet,
        src: &Matrix,
        dst: &Matrix,
    ) -> (Matrix, PredictorCache) {
        let (z1, c1) = self.l1.forward(params, Matrix::hcat(&[src, dst]));
        let (logits, c2) = self.l2.forward(params, z1.relu());
        (logits, PredictorCache { c1, c2, z1 })
    }

    /// Inference-only forward.
    pub fn infer(&self, params: &ParamSet, src: &Matrix, dst: &Matrix) -> Matrix {
        let x = Matrix::hcat(&[src, dst]);
        self.l2.infer(params, &self.l1.infer(params, &x).relu())
    }

    /// Backward from `B × 1` logit gradients; returns `(d_src, d_dst)`.
    pub fn backward(
        &self,
        params: &mut ParamSet,
        cache: &PredictorCache,
        dlogits: &Matrix,
    ) -> (Matrix, Matrix) {
        let da1 = self.l2.backward(params, &cache.c2, dlogits);
        let dz1 = da1.hadamard(&cache.z1.relu_deriv_from_input());
        let dx = self.l1.backward(params, &cache.c1, &dz1);
        let half = dx.cols() / 2;
        (dx.slice_cols(0, half), dx.slice_cols(half, dx.cols()))
    }
}

/// Two-layer MLP multi-label classifier over edge embeddings
/// `{h_src || h_dst}` → `C` logits.
#[derive(Clone, Copy, Debug)]
pub struct EdgeClassifier {
    l1: Linear,
    l2: Linear,
    num_classes: usize,
}

impl EdgeClassifier {
    /// Builds the head; input is `{h_src || h_dst}`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        emb_dim: usize,
        hidden: usize,
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let l1 = Linear::new(params, &format!("{name}.l1"), 2 * emb_dim, hidden, rng);
        let l2 = Linear::new(params, &format!("{name}.l2"), hidden, num_classes, rng);
        Self {
            l1,
            l2,
            num_classes,
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Forward: returns `B × C` logits.
    pub fn forward(
        &self,
        params: &ParamSet,
        src: &Matrix,
        dst: &Matrix,
    ) -> (Matrix, PredictorCache) {
        let (z1, c1) = self.l1.forward(params, Matrix::hcat(&[src, dst]));
        let (logits, c2) = self.l2.forward(params, z1.relu());
        (logits, PredictorCache { c1, c2, z1 })
    }

    /// Inference-only forward.
    pub fn infer(&self, params: &ParamSet, src: &Matrix, dst: &Matrix) -> Matrix {
        let x = Matrix::hcat(&[src, dst]);
        self.l2.infer(params, &self.l1.infer(params, &x).relu())
    }

    /// Backward from `B × C` logit gradients; returns `(d_src, d_dst)`.
    pub fn backward(
        &self,
        params: &mut ParamSet,
        cache: &PredictorCache,
        dlogits: &Matrix,
    ) -> (Matrix, Matrix) {
        let da1 = self.l2.backward(params, &cache.c2, dlogits);
        let dz1 = da1.hadamard(&cache.z1.relu_deriv_from_input());
        let dx = self.l1.backward(params, &cache.c1, &dz1);
        let half = dx.cols() / 2;
        (dx.slice_cols(0, half), dx.slice_cols(half, dx.cols()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disttgl_tensor::seeded_rng;

    #[test]
    fn predictor_shapes() {
        let mut rng = seeded_rng(41);
        let mut ps = ParamSet::new();
        let pred = EdgePredictor::new(&mut ps, "p", 6, 8, &mut rng);
        let src = Matrix::uniform(5, 6, 1.0, &mut rng);
        let dst = Matrix::uniform(5, 6, 1.0, &mut rng);
        let (logits, _) = pred.forward(&ps, &src, &dst);
        assert_eq!(logits.shape(), (5, 1));
        assert_eq!(logits, pred.infer(&ps, &src, &dst));
    }

    #[test]
    fn predictor_gradient_check() {
        let mut rng = seeded_rng(43);
        let mut ps = ParamSet::new();
        let pred = EdgePredictor::new(&mut ps, "p", 3, 4, &mut rng);
        let src = Matrix::uniform(2, 3, 1.0, &mut rng);
        let dst = Matrix::uniform(2, 3, 1.0, &mut rng);
        let (logits, cache) = pred.forward(&ps, &src, &dst);
        let up = Matrix::full(logits.rows(), 1, 1.0);
        ps.zero_grads();
        let (dsrc, ddst) = pred.backward(&mut ps, &cache, &up);

        let eps = 1e-2;
        let loss = |p: &ParamSet, s: &Matrix, d: &Matrix| pred.infer(p, s, d).sum();
        for idx in 0..ps.len() {
            let (rows, cols) = ps.get(idx).w.shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = ps.get(idx).w.get(r, c);
                    ps.get_mut(idx).w.set(r, c, orig + eps);
                    let fp = loss(&ps, &src, &dst);
                    ps.get_mut(idx).w.set(r, c, orig - eps);
                    let fm = loss(&ps, &src, &dst);
                    ps.get_mut(idx).w.set(r, c, orig);
                    let num = (fp - fm) / (2.0 * eps);
                    let ana = ps.get(idx).g.get(r, c);
                    assert!(
                        (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                        "{} [{r},{c}]: {num} vs {ana}",
                        ps.name(idx)
                    );
                }
            }
        }
        for r in 0..2 {
            for c in 0..3 {
                let mut sp = src.clone();
                sp.set(r, c, src.get(r, c) + eps);
                let mut sm = src.clone();
                sm.set(r, c, src.get(r, c) - eps);
                let num = (loss(&ps, &sp, &dst) - loss(&ps, &sm, &dst)) / (2.0 * eps);
                assert!(
                    (num - dsrc.get(r, c)).abs() < 3e-2 * (1.0 + num.abs()),
                    "dsrc[{r},{c}]"
                );
                let mut dp = dst.clone();
                dp.set(r, c, dst.get(r, c) + eps);
                let mut dm = dst.clone();
                dm.set(r, c, dst.get(r, c) - eps);
                let num = (loss(&ps, &src, &dp) - loss(&ps, &src, &dm)) / (2.0 * eps);
                assert!(
                    (num - ddst.get(r, c)).abs() < 3e-2 * (1.0 + num.abs()),
                    "ddst[{r},{c}]"
                );
            }
        }
    }

    #[test]
    fn classifier_shapes_and_grad_smoke() {
        let mut rng = seeded_rng(47);
        let mut ps = ParamSet::new();
        let clf = EdgeClassifier::new(&mut ps, "c", 4, 8, 7, &mut rng);
        assert_eq!(clf.num_classes(), 7);
        let src = Matrix::uniform(3, 4, 1.0, &mut rng);
        let dst = Matrix::uniform(3, 4, 1.0, &mut rng);
        let (logits, cache) = clf.forward(&ps, &src, &dst);
        assert_eq!(logits.shape(), (3, 7));
        let up = Matrix::full(3, 7, 0.5);
        let (dsrc, ddst) = clf.backward(&mut ps, &cache, &up);
        assert_eq!(dsrc.shape(), (3, 4));
        assert_eq!(ddst.shape(), (3, 4));
        assert!(!ps.flatten_grads().iter().all(|&v| v == 0.0));
    }
}
