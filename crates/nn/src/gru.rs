//! GRU cell — the `UPDT` function of Eq. 3 in the paper.
//!
//! `s_u = UPDT(s_u, m_u)` where the mail `m_u` is the input and the node
//! memory `s_u` is the hidden state. Matching TGN-attn, gradients do
//! **not** flow back through time, nor into the fetched mail: the
//! backward pass accumulates the cell's weight and bias gradients and
//! computes no gradient w.r.t. either input.
//!
//! Gate equations (PyTorch `GRUCell` convention):
//! ```text
//! r  = σ(x·Wirᵀ + bir + h·Whrᵀ + bhr)
//! z  = σ(x·Wizᵀ + biz + h·Whzᵀ + bhz)
//! n  = tanh(x·Winᵀ + bin + r ⊙ (h·Whnᵀ + bhn))
//! h' = (1 − z) ⊙ n + z ⊙ h
//! ```

use crate::param::ParamSet;
use disttgl_tensor::timing::{scope, Kernel};
use disttgl_tensor::{kernels, Matrix};
use rand::Rng;

/// GRU cell parameter indices within a [`ParamSet`].
#[derive(Clone, Copy, Debug)]
pub struct GruCell {
    w_ir: usize,
    w_iz: usize,
    w_in: usize,
    w_hr: usize,
    w_hz: usize,
    w_hn: usize,
    b_ir: usize,
    b_iz: usize,
    b_in: usize,
    b_hr: usize,
    b_hz: usize,
    b_hn: usize,
    input_dim: usize,
    hidden_dim: usize,
}

/// Forward activations saved for the backward pass.
///
/// Reusable: [`GruCell::forward_into`] resizes every buffer in place,
/// so a long-lived cache (the trainer's scratch arena) makes the GRU
/// step allocation-free after warm-up.
#[derive(Default)]
pub struct GruCache {
    x: Matrix,
    h: Matrix,
    r: Matrix,
    z: Matrix,
    n: Matrix,
    /// `a = h·Whnᵀ + bhn`, the candidate's hidden-side pre-activation.
    a: Matrix,
    /// Gate-assembly scratch, not read by the backward pass.
    tmp: Matrix,
}

impl GruCell {
    /// Registers all 6 weight matrices and 6 biases (PyTorch
    /// `1/sqrt(hidden)` uniform init).
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut wi = |p: &mut ParamSet, gate: &str| {
            p.register(
                &format!("{name}.w_i{gate}"),
                Matrix::gru_uniform(hidden_dim, input_dim, hidden_dim, rng),
            )
        };
        let w_ir = wi(params, "r");
        let w_iz = wi(params, "z");
        let w_in = wi(params, "n");
        let mut wh = |p: &mut ParamSet, gate: &str| {
            p.register(
                &format!("{name}.w_h{gate}"),
                Matrix::gru_uniform(hidden_dim, hidden_dim, hidden_dim, rng),
            )
        };
        let w_hr = wh(params, "r");
        let w_hz = wh(params, "z");
        let w_hn = wh(params, "n");
        let b = |p: &mut ParamSet, which: &str| {
            p.register(&format!("{name}.b_{which}"), Matrix::zeros(1, hidden_dim))
        };
        let b_ir = b(params, "ir");
        let b_iz = b(params, "iz");
        let b_in = b(params, "in");
        let b_hr = b(params, "hr");
        let b_hz = b(params, "hz");
        let b_hn = b(params, "hn");
        Self {
            w_ir,
            w_iz,
            w_in,
            w_hr,
            w_hz,
            w_hn,
            b_ir,
            b_iz,
            b_in,
            b_hr,
            b_hz,
            b_hn,
            input_dim,
            hidden_dim,
        }
    }

    /// Mail (input) width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Node-memory (hidden) width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Forward step: returns `(h', cache)`.
    ///
    /// # Panics
    /// Panics on input/hidden width mismatch.
    pub fn forward(&self, params: &ParamSet, x: &Matrix, h: &Matrix) -> (Matrix, GruCache) {
        let mut cache = GruCache::default();
        let mut h_new = Matrix::default();
        self.forward_into(params, x, h, &mut cache, &mut h_new);
        (h_new, cache)
    }

    /// Fused forward step writing every gate into the preallocated
    /// `cache` buffers and the output into `h_new` (all resized in
    /// place). With a persistent cache this is allocation-free after
    /// the first call, and it is bit-identical to [`GruCell::forward`]
    /// — the same multiply/add/activation sequence per element, only
    /// the storage is reused.
    ///
    /// # Panics
    /// Panics on input/hidden width mismatch.
    pub fn forward_into(
        &self,
        params: &ParamSet,
        x: &Matrix,
        h: &Matrix,
        cache: &mut GruCache,
        h_new: &mut Matrix,
    ) {
        assert_eq!(x.rows(), h.rows(), "GruCell: batch mismatch");
        cache.x.copy_from(x);
        cache.h.copy_from(h);
        self.compute_from_cache(params, cache, h_new);
    }

    /// [`GruCell::forward_into`] over the contiguous row range `rows`
    /// of larger `x`/`h` blocks — the view-based entry point: the input
    /// copy the cache needs anyway doubles as the readout split, so a
    /// part of a shared gathered block feeds the GRU without an
    /// intermediate per-part readout copy. Bit-identical to slicing
    /// first and calling [`GruCell::forward_into`].
    ///
    /// # Panics
    /// Panics on width mismatch or an out-of-range row span.
    pub fn forward_rows_into(
        &self,
        params: &ParamSet,
        x: &Matrix,
        h: &Matrix,
        rows: std::ops::Range<usize>,
        cache: &mut GruCache,
        h_new: &mut Matrix,
    ) {
        assert_eq!(x.rows(), h.rows(), "GruCell: batch mismatch");
        cache.x.copy_rows_from(x, rows.clone());
        cache.h.copy_rows_from(h, rows);
        self.compute_from_cache(params, cache, h_new);
    }

    /// Shared fused-forward body: gates from the already-filled
    /// `cache.x`/`cache.h` copies (same values as the caller's inputs,
    /// so the arithmetic — and therefore every output bit — matches
    /// the pre-refactor path that read the inputs directly).
    fn compute_from_cache(&self, params: &ParamSet, cache: &mut GruCache, h_new: &mut Matrix) {
        // The GRU scope wraps the whole cell, gate matmuls included,
        // so `gru_secs` is the full memory-update cost (it overlaps
        // `matmul_secs`; the kinds are attributions, not a partition).
        let _t = scope(Kernel::Gru);
        let GruCache {
            x,
            h,
            r,
            z,
            n,
            a,
            tmp,
        } = cache;
        let (x, h) = (&*x, &*h);
        assert_eq!(x.cols(), self.input_dim, "GruCell: input width");
        assert_eq!(h.cols(), self.hidden_dim, "GruCell: hidden width");

        // r = σ(x·Wirᵀ + bir + h·Whrᵀ + bhr), gates assembled in place.
        fn assemble_gate(
            params: &ParamSet,
            x: &Matrix,
            h: &Matrix,
            (wi, bi, wh, bh): (usize, usize, usize, usize),
            tmp: &mut Matrix,
            out: &mut Matrix,
        ) {
            x.matmul_transpose_b_into(&params.get(wi).w, out);
            out.add_row_broadcast(&params.get(bi).w);
            h.matmul_transpose_b_into(&params.get(wh).w, tmp);
            tmp.add_row_broadcast(&params.get(bh).w);
            out.add_assign(tmp);
        }
        let r_ids = (self.w_ir, self.b_ir, self.w_hr, self.b_hr);
        let z_ids = (self.w_iz, self.b_iz, self.w_hz, self.b_hz);
        assemble_gate(params, x, h, r_ids, tmp, r);
        assemble_gate(params, x, h, z_ids, tmp, z);
        r.map_inplace(disttgl_tensor::sigmoid_scalar);
        z.map_inplace(disttgl_tensor::sigmoid_scalar);

        // a = h·Whnᵀ + bhn; n = tanh(x·Winᵀ + bin + r ⊙ a).
        h.matmul_transpose_b_into(&params.get(self.w_hn).w, a);
        a.add_row_broadcast(&params.get(self.b_hn).w);
        x.matmul_transpose_b_into(&params.get(self.w_in).w, n);
        n.add_row_broadcast(&params.get(self.b_in).w);
        kernels::gru_candidate(n.as_mut_slice(), r.as_slice(), a.as_slice());
        n.map_inplace(f32::tanh);

        // h' = (1 − z) ⊙ n + z ⊙ h, fused per element in the same
        // operation order as the allocating path: n − z·n + z·h.
        h_new.resize_for_overwrite(n.rows(), n.cols());
        kernels::gru_combine(
            h_new.as_mut_slice(),
            n.as_slice(),
            z.as_slice(),
            h.as_slice(),
        );
    }

    /// Inference-only forward (drops the cache).
    pub fn infer(&self, params: &ParamSet, x: &Matrix, h: &Matrix) -> Matrix {
        self.forward(params, x, h).0
    }

    /// Backward step: accumulates the weight and bias gradients. The
    /// gradients w.r.t. the mail input and the incoming memory are not
    /// computed — the no-BPTT rule of M-TGNN training stops gradients
    /// at the fetched memory and mails.
    pub fn backward(&self, params: &mut ParamSet, cache: &GruCache, dh_new: &Matrix) {
        let GruCache {
            x, h, r, z, n, a, ..
        } = cache;

        // h' = (1 − z) ⊙ n + z ⊙ h
        let dz = dh_new.hadamard(&h.sub(n));
        let dn = dh_new.hadamard(&z.map(|v| 1.0 - v));

        // Through tanh: n = tanh(n_pre)
        let dn_pre = dn.hadamard(&n.tanh_deriv_from_output());
        // n_pre = x·Winᵀ + bin + r ⊙ a
        let dr = dn_pre.hadamard(a);
        let da = dn_pre.hadamard(r);
        // Through sigmoids.
        let dr_pre = dr.hadamard(&r.sigmoid_deriv_from_output());
        let dz_pre = dz.hadamard(&z.sigmoid_deriv_from_output());

        // dW = dpreᵀ·input, db = Σ_rows dpre.
        let acc = |p: &mut ParamSet, dpre: &Matrix, wi: usize, bi: usize, inp: &Matrix| {
            let dw = dpre.matmul_transpose_a(inp);
            p.get_mut(wi).g.add_assign(&dw);
            let db = dpre.sum_rows();
            p.get_mut(bi).g.add_assign(&db);
        };

        acc(params, &dr_pre, self.w_ir, self.b_ir, x);
        acc(params, &dz_pre, self.w_iz, self.b_iz, x);
        acc(params, &dn_pre, self.w_in, self.b_in, x);

        acc(params, &dr_pre, self.w_hr, self.b_hr, h);
        acc(params, &dz_pre, self.w_hz, self.b_hz, h);
        acc(params, &da, self.w_hn, self.b_hn, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disttgl_tensor::seeded_rng;

    fn setup(input: usize, hidden: usize, batch: usize) -> (ParamSet, GruCell, Matrix, Matrix) {
        let mut rng = seeded_rng(21);
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, "gru", input, hidden, &mut rng);
        let x = Matrix::uniform(batch, input, 1.0, &mut rng);
        let h = Matrix::uniform(batch, hidden, 1.0, &mut rng);
        (ps, cell, x, h)
    }

    #[test]
    fn output_shape_and_range() {
        let (ps, cell, x, h) = setup(5, 3, 4);
        let (h2, _) = cell.forward(&ps, &x, &h);
        assert_eq!(h2.shape(), (4, 3));
        // h' is a convex combination of tanh output and previous h, so
        // it is bounded by max(|h|, 1).
        let bound = h.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs())) + 1e-5;
        assert!(h2.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn zero_update_gate_keeps_candidate() {
        // With z forced towards 0 (large negative bias), h' ≈ n.
        let (mut ps, cell, x, h) = setup(4, 3, 2);
        let biz = ps.index_of("gru.b_iz").unwrap();
        ps.get_mut(biz).w.fill(-50.0);
        let (h2, cache) = cell.forward(&ps, &x, &h);
        for (hv, nv) in h2.as_slice().iter().zip(cache.n.as_slice()) {
            assert!((hv - nv).abs() < 1e-4);
        }
    }

    #[test]
    fn full_update_gate_keeps_memory() {
        // With z forced towards 1, h' ≈ h (memory passes through).
        let (mut ps, cell, x, h) = setup(4, 3, 2);
        let biz = ps.index_of("gru.b_iz").unwrap();
        ps.get_mut(biz).w.fill(50.0);
        let (h2, _) = cell.forward(&ps, &x, &h);
        for (h2v, hv) in h2.as_slice().iter().zip(h.as_slice()) {
            assert!((h2v - hv).abs() < 1e-4);
        }
    }

    /// Finite-difference check of every weight and bias gradient.
    #[test]
    fn gradient_check_full() {
        let (mut ps, cell, x, h) = setup(3, 2, 2);
        let (y, cache) = cell.forward(&ps, &x, &h);
        let ones = Matrix::full(y.rows(), y.cols(), 1.0);
        ps.zero_grads();
        cell.backward(&mut ps, &cache, &ones);

        let eps = 1e-2;
        let loss = |p: &ParamSet, xx: &Matrix, hh: &Matrix| cell.infer(p, xx, hh).sum();

        // All registered parameters.
        for idx in 0..ps.len() {
            let (rows, cols) = ps.get(idx).w.shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = ps.get(idx).w.get(r, c);
                    ps.get_mut(idx).w.set(r, c, orig + eps);
                    let fp = loss(&ps, &x, &h);
                    ps.get_mut(idx).w.set(r, c, orig - eps);
                    let fm = loss(&ps, &x, &h);
                    ps.get_mut(idx).w.set(r, c, orig);
                    let num = (fp - fm) / (2.0 * eps);
                    let ana = ps.get(idx).g.get(r, c);
                    assert!(
                        (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                        "param {} [{r},{c}]: numeric {num} vs analytic {ana}",
                        ps.name(idx)
                    );
                }
            }
        }
    }

    /// The view-based entry point must equal slicing first — same
    /// bits, since both feed identical values through the same fused
    /// body.
    #[test]
    fn forward_rows_into_matches_sliced_forward() {
        let (ps, cell, x, h) = setup(4, 3, 6);
        let (expect, _) = cell.forward(&ps, &x.slice_rows(1, 5), &h.slice_rows(1, 5));
        let mut cache = GruCache::default();
        let mut out = Matrix::default();
        cell.forward_rows_into(&ps, &x, &h, 1..5, &mut cache, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn deterministic_given_seed() {
        let (ps1, cell1, x1, h1) = setup(4, 3, 2);
        let (ps2, cell2, x2, h2) = setup(4, 3, 2);
        assert_eq!(x1, x2);
        assert_eq!(cell1.infer(&ps1, &x1, &h1), cell2.infer(&ps2, &x2, &h2));
    }
}
