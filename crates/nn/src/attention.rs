//! Single-layer temporal graph attention — Eq. 4–7 of the paper.
//!
//! ```text
//! q  = Wq·{s_v || Φ(0)} + bq                         (per root)
//! K  = Wk·{S_w || E_vw || Φ(Δt)} + bk                (per neighbor)
//! V  = Wv·{S_w || E_vw || Φ(Δt)} + bv
//! h_v = softmax(q·Kᵀ / sqrt(|N_v|)) · V
//! ```
//!
//! The layer is batched with a **fixed neighbor slot count** `N` per
//! root (TGN-attn samples the 10 most recent neighbors); roots with
//! fewer neighbors mask the empty slots (score −1e9 → weight ≈ 0) and
//! the scale factor uses the *actual* neighbor count, matching the
//! paper's `sqrt(|N_v|)`. Roots with zero neighbors output zeros.
//!
//! The slot count is a *shape*, not a parameter: the weights only see
//! `q_dim`/`kv_dim` rows. [`TemporalAttention::forward_slots`] therefore
//! accepts the slot count per call, which is what lets one layer of an
//! L-layer embedding stack attend over every hop depth (whose fanouts
//! differ) with shared weights; [`TemporalAttention::forward`] keeps
//! the fixed-`n_slots` signature for single-hop callers.

use crate::linear::Linear;
use crate::param::ParamSet;
use disttgl_tensor::timing::{scope, Kernel};
use disttgl_tensor::{kernels, Matrix};
use rand::Rng;
use std::borrow::Borrow;

/// Temporal attention layer. `q_dim = d_mem + d_time`,
/// `kv_dim = d_mem + d_edge + d_time`, output width `d_head`.
#[derive(Clone, Copy, Debug)]
pub struct TemporalAttention {
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    n_slots: usize,
    d_head: usize,
    /// Leading feature columns that receive a gradient; `None` = all.
    grad_cols: Option<usize>,
}

/// Forward state for the backward pass. `M` is how the two feature
/// inputs are held — moved in (`Matrix`) or lent (`&Matrix`), never
/// copied; see [`crate::LinearCache`].
pub struct AttentionCache<M = Matrix> {
    q_feat: M,
    kv_feat: M,
    q: Matrix,
    /// `[K ‖ V]`, `(B·N) × 2·d_head`: row `b·N + s` holds slot `s`'s key
    /// in the leading `d_head` columns and its value in the trailing
    /// ones. Rows of masked slots are never projected (they stay zero)
    /// and never read.
    kv: Matrix,
    /// Post-softmax attention weights, `B × N`.
    attn: Matrix,
    /// Actual neighbor count per root.
    counts: Vec<usize>,
    /// Slot count of this forward call (may differ from the layer's
    /// default when attending over another hop's frontier).
    n_slots: usize,
}

impl TemporalAttention {
    /// Registers Wq/Wk/Wv (+biases) in `params`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        q_dim: usize,
        kv_dim: usize,
        d_head: usize,
        n_slots: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n_slots >= 1, "attention needs at least one neighbor slot");
        let w_q = Linear::new(params, &format!("{name}.wq"), q_dim, d_head, rng);
        let w_k = Linear::new(params, &format!("{name}.wk"), kv_dim, d_head, rng);
        let w_v = Linear::new(params, &format!("{name}.wv"), kv_dim, d_head, rng);
        Self {
            w_q,
            w_k,
            w_v,
            n_slots,
            d_head,
            grad_cols: None,
        }
    }

    /// Declares that only the leading `cols` columns of `q_feat` and of
    /// `kv_feat` — the node states — are differentiable; the edge
    /// features and (unless the time encoder is learnable) `Φ` columns
    /// behind them are data. [`TemporalAttention::backward`] then
    /// returns `B × cols` / `(B·N) × cols` gradients, bit-identical to
    /// the leading columns of the full ones, without computing the rest.
    ///
    /// # Panics
    /// Panics if either feature width is below `cols`.
    pub fn with_input_grad_cols(mut self, cols: usize) -> Self {
        assert!(
            cols <= self.w_q.in_dim().min(self.w_k.in_dim()),
            "attention: gradient window {cols}"
        );
        self.grad_cols = Some(cols);
        self
    }

    /// Neighbor slots per root.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Output width.
    pub fn d_head(&self) -> usize {
        self.d_head
    }

    /// Forward pass.
    ///
    /// * `q_feat` — `B × q_dim` root features `{s_v || Φ(0)}`;
    /// * `kv_feat` — `(B·N) × kv_dim` neighbor features, root-major
    ///   (root b's slots occupy rows `b·N .. (b+1)·N`);
    /// * `counts[b]` — number of valid slots for root `b` (valid slots
    ///   must be the *first* `counts[b]` of the block).
    ///
    /// Returns `B × d_head` embeddings and the backward cache, which
    /// keeps the two inputs as given (owned or borrowed).
    pub fn forward<M: Borrow<Matrix>>(
        &self,
        params: &ParamSet,
        q_feat: M,
        kv_feat: M,
        counts: &[usize],
    ) -> (Matrix, AttentionCache<M>) {
        self.forward_slots(params, q_feat, kv_feat, counts, self.n_slots)
    }

    /// [`TemporalAttention::forward`] with an explicit slot count —
    /// the multi-hop entry point (`kv_feat` has `B · n_slots` rows).
    /// Identical math; the cache remembers the slot count so
    /// [`TemporalAttention::backward`] needs no extra argument.
    pub fn forward_slots<M: Borrow<Matrix>>(
        &self,
        params: &ParamSet,
        q_feat: M,
        kv_feat: M,
        counts: &[usize],
        n_slots: usize,
    ) -> (Matrix, AttentionCache<M>) {
        let d = self.d_head;
        let b = q_feat.borrow().rows();
        assert_eq!(counts.len(), b, "attention: counts length");
        assert_eq!(kv_feat.borrow().rows(), b * n_slots, "attention: kv rows");

        let q = self.w_q.infer(params, q_feat.borrow());
        // K and V in one pass over `kv_feat`, valid slots only.
        let kv = Linear::forward_fused([self.w_k, self.w_v], params, kv_feat.borrow(), |r| {
            r % n_slots < counts[r / n_slots]
        });

        // Scores with per-root scaling and masking: each score is a
        // laned q·k dot (the masked-slot structure makes this a
        // block-sparse `q · Kᵀ`, attributed to matmul time).
        let mut scores = Matrix::zeros(b, n_slots);
        {
            let _t = scope(Kernel::Matmul);
            for (bi, &count) in counts.iter().enumerate() {
                let cnt = count.min(n_slots);
                let scale = if cnt > 0 {
                    1.0 / (cnt as f32).sqrt()
                } else {
                    0.0
                };
                let q_row = q.row(bi);
                for s in 0..n_slots {
                    let val = if s < cnt {
                        kernels::dot(q_row, &kv.row(bi * n_slots + s)[..d]) * scale
                    } else {
                        -1e9
                    };
                    scores.set(bi, s, val);
                }
            }
        }
        let attn = scores.softmax_rows();

        // h = attn · V (per root block), zeroed for isolated roots.
        let mut h = Matrix::zeros(b, d);
        {
            let _t = scope(Kernel::Matmul);
            for (bi, &count) in counts.iter().enumerate() {
                let out = h.row_mut(bi);
                for s in 0..count.min(n_slots) {
                    kernels::axpy(out, attn.get(bi, s), &kv.row(bi * n_slots + s)[d..]);
                }
            }
        }

        let cache = AttentionCache {
            q_feat,
            kv_feat,
            q,
            kv,
            attn,
            counts: counts.to_vec(),
            n_slots,
        };
        (h, cache)
    }

    /// Inference-only forward: the one forward over borrowed inputs,
    /// its cache (no copies of anything) dropped.
    pub fn infer(
        &self,
        params: &ParamSet,
        q_feat: &Matrix,
        kv_feat: &Matrix,
        counts: &[usize],
    ) -> Matrix {
        self.forward(params, q_feat, kv_feat, counts).0
    }

    /// Backward pass: accumulates Wq/Wk/Wv gradients and returns
    /// `(dq_feat, dkv_feat)` over the differentiable input columns
    /// (all of them unless [`TemporalAttention::with_input_grad_cols`]
    /// narrowed the window).
    pub fn backward<M: Borrow<Matrix>>(
        &self,
        params: &mut ParamSet,
        cache: &AttentionCache<M>,
        dh: &Matrix,
    ) -> (Matrix, Matrix) {
        let b = dh.rows();
        let n = cache.n_slots;
        let d = self.d_head;
        assert_eq!(dh.cols(), d, "attention backward: width");

        // `[dK ‖ dV]`, laid out like `cache.kv`.
        let mut dkv = Matrix::zeros(b * n, 2 * d);
        let mut d_attn = Matrix::zeros(b, n);
        for bi in 0..b {
            let dh_row = dh.row(bi);
            for s in 0..cache.counts[bi].min(n) {
                d_attn.set(bi, s, kernels::dot(dh_row, &cache.kv.row(bi * n + s)[d..]));
                let w = cache.attn.get(bi, s);
                kernels::axpy(&mut dkv.row_mut(bi * n + s)[d..], w, dh_row);
            }
        }

        // Softmax backward then undo the score scaling.
        let d_scores = cache.attn.softmax_rows_backward(&d_attn);
        let mut dq = Matrix::zeros(b, d);
        for bi in 0..b {
            let cnt = cache.counts[bi].min(n);
            if cnt == 0 {
                continue;
            }
            let scale = 1.0 / (cnt as f32).sqrt();
            for s in 0..cnt {
                let ds = d_scores.get(bi, s) * scale;
                kernels::axpy(dq.row_mut(bi), ds, &cache.kv.row(bi * n + s)[..d]);
                kernels::axpy(&mut dkv.row_mut(bi * n + s)[..d], ds, cache.q.row(bi));
            }
        }

        let (q_feat, kv_feat) = (cache.q_feat.borrow(), cache.kv_feat.borrow());
        let q_cols = self.grad_cols.unwrap_or(q_feat.cols());
        let kv_cols = self.grad_cols.unwrap_or(kv_feat.cols());
        let dq_feat = Linear::backward_fused([self.w_q], params, q_feat, &dq, q_cols);
        let dkv_feat = Linear::backward_fused([self.w_k, self.w_v], params, kv_feat, &dkv, kv_cols);
        (dq_feat, dkv_feat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disttgl_tensor::seeded_rng;

    fn setup(
        q_dim: usize,
        kv_dim: usize,
        d_head: usize,
        n: usize,
        b: usize,
    ) -> (ParamSet, TemporalAttention, Matrix, Matrix) {
        let mut rng = seeded_rng(31);
        let mut ps = ParamSet::new();
        let att = TemporalAttention::new(&mut ps, "att", q_dim, kv_dim, d_head, n, &mut rng);
        let qf = Matrix::uniform(b, q_dim, 1.0, &mut rng);
        let kvf = Matrix::uniform(b * n, kv_dim, 1.0, &mut rng);
        (ps, att, qf, kvf)
    }

    #[test]
    fn shapes_and_isolated_roots() {
        let (ps, att, qf, kvf) = setup(4, 6, 5, 3, 3);
        let counts = vec![3, 0, 2];
        let (h, _) = att.forward(&ps, &qf, &kvf, &counts);
        assert_eq!(h.shape(), (3, 5));
        // Isolated root -> zero embedding.
        assert!(h.row(1).iter().all(|&v| v == 0.0));
        assert!(h.row(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn attention_weights_ignore_masked_slots() {
        let (ps, att, qf, kvf) = setup(4, 6, 5, 4, 1);
        let (_, cache) = att.forward(&ps, &qf, &kvf, &[2]);
        // Valid slots carry essentially all mass.
        let valid: f32 = cache.attn.row(0)[..2].iter().sum();
        assert!(valid > 0.999, "valid mass {}", valid);
    }

    #[test]
    fn single_neighbor_gets_full_weight() {
        let (ps, att, qf, kvf) = setup(3, 5, 4, 3, 1);
        let (h, cache) = att.forward(&ps, &qf, &kvf, &[1]);
        assert!((cache.attn.get(0, 0) - 1.0).abs() < 1e-5);
        // Output equals V of the single neighbor.
        for (hv, vv) in h.row(0).iter().zip(&cache.kv.row(0)[4..]) {
            assert!((hv - vv).abs() < 1e-5);
        }
    }

    /// Finite-difference check for all weights and both inputs.
    #[test]
    fn gradient_check_full() {
        let (mut ps, att, qf, kvf) = setup(3, 4, 3, 2, 2);
        let counts = vec![2, 1];
        let (h, cache) = att.forward(&ps, &qf, &kvf, &counts);
        let up = Matrix::from_fn(h.rows(), h.cols(), |r, c| 0.3 + 0.1 * (r + c) as f32);
        ps.zero_grads();
        let (dqf, dkvf) = att.backward(&mut ps, &cache, &up);

        let eps = 1e-2;
        let loss =
            |p: &ParamSet, q: &Matrix, kv: &Matrix| att.infer(p, q, kv, &counts).dot_flat(&up);

        for idx in 0..ps.len() {
            let (rows, cols) = ps.get(idx).w.shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = ps.get(idx).w.get(r, c);
                    ps.get_mut(idx).w.set(r, c, orig + eps);
                    let fp = loss(&ps, &qf, &kvf);
                    ps.get_mut(idx).w.set(r, c, orig - eps);
                    let fm = loss(&ps, &qf, &kvf);
                    ps.get_mut(idx).w.set(r, c, orig);
                    let num = (fp - fm) / (2.0 * eps);
                    let ana = ps.get(idx).g.get(r, c);
                    assert!(
                        (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                        "param {} [{r},{c}]: {num} vs {ana}",
                        ps.name(idx)
                    );
                }
            }
        }
        for r in 0..qf.rows() {
            for c in 0..qf.cols() {
                let mut p = qf.clone();
                p.set(r, c, qf.get(r, c) + eps);
                let mut m = qf.clone();
                m.set(r, c, qf.get(r, c) - eps);
                let num = (loss(&ps, &p, &kvf) - loss(&ps, &m, &kvf)) / (2.0 * eps);
                assert!(
                    (num - dqf.get(r, c)).abs() < 3e-2 * (1.0 + num.abs()),
                    "dqf[{r},{c}]: {num} vs {}",
                    dqf.get(r, c)
                );
            }
        }
        for r in 0..kvf.rows() {
            for c in 0..kvf.cols() {
                let mut p = kvf.clone();
                p.set(r, c, kvf.get(r, c) + eps);
                let mut m = kvf.clone();
                m.set(r, c, kvf.get(r, c) - eps);
                let num = (loss(&ps, &qf, &p) - loss(&ps, &qf, &m)) / (2.0 * eps);
                assert!(
                    (num - dkvf.get(r, c)).abs() < 3e-2 * (1.0 + num.abs()),
                    "dkvf[{r},{c}]: {num} vs {}",
                    dkvf.get(r, c)
                );
            }
        }
    }

    /// The layer as it was before K‖V fusion, row masking and gradient
    /// windows: three lone projections over every row, full-width input
    /// gradients, `dV·Wv + dK·Wk` formed from two full matrices. Returns
    /// `(h, dq_feat, dkv_feat)` and leaves the weight gradients in `ps`.
    fn unfused_reference(
        ps: &mut ParamSet,
        [w_q, w_k, w_v]: [Linear; 3],
        qf: &Matrix,
        kvf: &Matrix,
        counts: &[usize],
        n: usize,
        dh: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let (b, d) = (qf.rows(), w_q.out_dim());
        let (q, q_cache) = w_q.forward(ps, qf);
        let (k, k_cache) = w_k.forward(ps, kvf);
        let (v, v_cache) = w_v.forward(ps, kvf);
        let mut scores = Matrix::full(b, n, -1e9);
        for (bi, &count) in counts.iter().enumerate() {
            let cnt = count.min(n);
            for s in 0..cnt {
                let dot = kernels::dot(q.row(bi), k.row(bi * n + s));
                scores.set(bi, s, dot * (1.0 / (cnt as f32).sqrt()));
            }
        }
        let attn = scores.softmax_rows();
        let mut h = Matrix::zeros(b, d);
        let mut d_attn = Matrix::zeros(b, n);
        let mut dv = Matrix::zeros(b * n, d);
        for (bi, &count) in counts.iter().enumerate() {
            for s in 0..count.min(n) {
                kernels::axpy(h.row_mut(bi), attn.get(bi, s), v.row(bi * n + s));
                d_attn.set(bi, s, kernels::dot(dh.row(bi), v.row(bi * n + s)));
                kernels::axpy(dv.row_mut(bi * n + s), attn.get(bi, s), dh.row(bi));
            }
        }
        let d_scores = attn.softmax_rows_backward(&d_attn);
        let mut dq = Matrix::zeros(b, d);
        let mut dk = Matrix::zeros(b * n, d);
        for (bi, &count) in counts.iter().enumerate() {
            let cnt = count.min(n);
            for s in 0..cnt {
                let ds = d_scores.get(bi, s) * (1.0 / (cnt as f32).sqrt());
                kernels::axpy(dq.row_mut(bi), ds, k.row(bi * n + s));
                kernels::axpy(dk.row_mut(bi * n + s), ds, q.row(bi));
            }
        }
        let dq_feat = w_q.backward(ps, &q_cache, &dq);
        let dk_feat = w_k.backward(ps, &k_cache, &dk);
        let mut dkv_feat = w_v.backward(ps, &v_cache, &dv);
        dkv_feat.add_assign(&dk_feat);
        (h, dq_feat, dkv_feat)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Fusion, row masking and the gradient window are free: the fused
    /// layer reproduces the unfused one bit for bit — output, every
    /// dW/db (Wq, Wk and Wv), and the input gradients, of which a
    /// windowed layer returns exactly the leading columns. The full
    /// window (what a learnable time encoder gets) still carries the
    /// identical Φ-column gradients behind the state columns.
    #[test]
    fn fused_windowed_backward_matches_unfused_full_backward() {
        let (q_dim, kv_dim, d, n, b) = (7, 13, 6, 4, 5);
        let counts = vec![4, 0, 2, 1, 3];
        let (ps, att, qf, kvf) = setup(q_dim, kv_dim, d, n, b);
        let dh = Matrix::from_fn(b, d, |r, c| 0.3 - 0.17 * (r as f32) + 0.05 * (c * c) as f32);

        // Same seed, same registration order ⇒ the same weights.
        let mut rng = seeded_rng(31);
        let mut ref_ps = ParamSet::new();
        let lone = [("wq", q_dim), ("wk", kv_dim), ("wv", kv_dim)]
            .map(|(name, dim)| Linear::new(&mut ref_ps, &format!("att.{name}"), dim, d, &mut rng));
        assert_eq!(ref_ps.flatten_weights(), ps.flatten_weights());
        let (h_ref, dq_ref, dkv_ref) =
            unfused_reference(&mut ref_ps, lone, &qf, &kvf, &counts, n, &dh);
        let grads_ref: Vec<u32> = ref_ps.flatten_grads().iter().map(|g| g.to_bits()).collect();
        assert!(grads_ref.iter().any(|&g| g != 0));

        for window in [None, Some(3), Some(0)] {
            let mut ps = ParamSet::new();
            let mut rng = seeded_rng(31);
            let mut att2 = TemporalAttention::new(&mut ps, "att", q_dim, kv_dim, d, n, &mut rng);
            if let Some(cols) = window {
                att2 = att2.with_input_grad_cols(cols);
            }
            let (h, cache) = att2.forward(&ps, &qf, &kvf, &counts);
            assert_eq!(bits(&h), bits(&h_ref), "h, window {window:?}");
            assert_eq!(bits(&h), bits(&att.infer(&ps, &qf, &kvf, &counts)));
            let (dqf, dkvf) = att2.backward(&mut ps, &cache, &dh);
            let grads: Vec<u32> = ps.flatten_grads().iter().map(|g| g.to_bits()).collect();
            assert_eq!(grads, grads_ref, "dW/db, window {window:?}");
            let (wq, wkv) = window.map_or((q_dim, kv_dim), |c| (c, c));
            assert_eq!(dqf.shape(), (b, wq));
            assert_eq!(dkvf.shape(), (b * n, wkv));
            assert_eq!(
                bits(&dqf),
                bits(&dq_ref.slice_cols(0, wq)),
                "dq, window {window:?}"
            );
            assert_eq!(
                bits(&dkvf),
                bits(&dkv_ref.slice_cols(0, wkv)),
                "dkv, window {window:?}"
            );
        }
    }

    #[test]
    fn masked_slots_get_no_gradient() {
        let (mut ps, att, qf, kvf) = setup(3, 4, 3, 3, 1);
        let (h, cache) = att.forward(&ps, &qf, &kvf, &[1]);
        let up = Matrix::full(h.rows(), h.cols(), 1.0);
        let (_, dkvf) = att.backward(&mut ps, &cache, &up);
        // Slots 1 and 2 are masked; their feature gradients must be ~0.
        assert!(dkvf.row(1).iter().all(|v| v.abs() < 1e-6));
        assert!(dkvf.row(2).iter().all(|v| v.abs() < 1e-6));
        assert!(dkvf.row(0).iter().any(|v| v.abs() > 1e-6));
    }
}
