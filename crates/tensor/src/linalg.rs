//! Matrix multiplication and transposition kernels.
//!
//! Three matmul variants cover everything the hand-written backward
//! passes need without materializing transposes:
//!
//! * `matmul` — `C = A · B` (backward w.r.t. inputs), with
//!   [`Matrix::matmul_cols`] as its windowed form: a column range of
//!   `A` against the leading columns of `B`
//! * `matmul_transpose_b` — `C = A · Bᵀ` (every forward projection),
//!   with [`Matrix::matmul_transpose_b_panels`] as its fused form:
//!   several `B` panels in one pass over `A`, selected rows only
//! * `matmul_transpose_a` — `C = Aᵀ · B` (backward w.r.t. weights)
//!
//! Each variant is **one body** in [`crate::kernels`] with a scalar and
//! a whole-GEMM AVX2 twin, dispatched once per product:
//! `gemm_tb` (a laned dot per output element) drives the `Bᵀ` family,
//! `gemm_axpy` (an ascending-`k`, zero-skipping axpy chain per output
//! element) drives `matmul` and
//! `matmul_transpose_a`. Register tiles, cache blocks, panel fusion,
//! row selection and column windows decide which elements are computed
//! and when — never the order an element is accumulated in — so none
//! of them changes a bit of the result (see the crate-level
//! determinism contract).
//!
//! Each body sees a contiguous block of output rows, so a large product
//! is split by rows across [`crate::par`]'s pool up to the calling
//! thread's intra-op budget. In this workspace a "GPU" is one trainer
//! *thread*; the budget is owned by the executor, which hands out only
//! the cores its concurrently computing trainers leave free, so the
//! multi-trainer scaling experiments are not contaminated by intra-op
//! fan-out (on a 2-core host each lane of a 2-lane run keeps budget 1).

use crate::timing::{scope, Kernel};
use crate::{kernels, Matrix};
use std::ops::Range;

impl Matrix {
    /// `self · other`.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_cols(0..self.cols(), other, other.cols())
    }

    /// `self[:, a_cols] · other[:, ..out_cols]` — [`Matrix::matmul`] on
    /// a column range of the left operand and an output-column window
    /// of the right one, without copying either out. Each element is
    /// bit-identical to the same element of the full product of the
    /// copied-out blocks: a backward pass whose caller keeps only the
    /// leading input-gradient columns computes only those.
    ///
    /// # Panics
    /// Panics if `a_cols` exceeds `self`, `a_cols.len() != other.rows()`
    /// or `out_cols > other.cols()`.
    pub fn matmul_cols(&self, a_cols: Range<usize>, other: &Matrix, out_cols: usize) -> Matrix {
        assert!(
            a_cols.start <= a_cols.end && a_cols.end <= self.cols(),
            "matmul: columns {a_cols:?} out of {}",
            self.cols()
        );
        assert!(
            a_cols.len() == other.rows() && out_cols <= other.cols(),
            "matmul: {}x{} · {}x{} (window {out_cols})",
            self.rows(),
            a_cols.len(),
            other.rows(),
            other.cols()
        );
        let _t = scope(Kernel::Matmul);
        let mut out = Matrix::zeros(self.rows(), out_cols);
        let at = kernels::Strides {
            origin: a_cols.start,
            row: self.cols(),
            step: 1,
        };
        kernels::gemm_axpy(
            self.as_slice(),
            at,
            self.rows(),
            a_cols.len(),
            other.as_slice(),
            other.cols(),
            out_cols,
            out.as_mut_slice(),
        );
        out
    }

    /// `self · otherᵀ` without materializing the transpose.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        self.matmul_transpose_b_panels([other], |_| true)
    }

    /// `[self·P₀ᵀ ‖ self·P₁ᵀ ‖ …]` for the rows `keep_row` selects, zero
    /// elsewhere: the panels (weight matrices sharing this input) are
    /// read in place and `self` is streamed once for all of them. Each
    /// kept element is bit-identical to the same element of
    /// `self.matmul_transpose_b(Pᵢ)`.
    ///
    /// # Panics
    /// Panics if a panel's width differs from `self.cols()`.
    pub fn matmul_transpose_b_panels<const P: usize>(
        &self,
        panels: [&Matrix; P],
        keep_row: impl Fn(usize) -> bool + Sync,
    ) -> Matrix {
        let n = panels.iter().map(|p| p.rows()).sum();
        let mut out = Matrix::zeros(self.rows(), n);
        self.project_into(panels, keep_row, &mut out);
        out
    }

    /// Shared body of the `A · Bᵀ` entry points; `out` is already
    /// `self.rows() × Σ panel rows`.
    fn project_into<const P: usize>(
        &self,
        panels: [&Matrix; P],
        keep_row: impl Fn(usize) -> bool + Sync,
        out: &mut Matrix,
    ) {
        let k = self.cols();
        for p in panels {
            assert_eq!(
                k,
                p.cols(),
                "matmul_transpose_b: inner dims {k} vs {}",
                p.cols()
            );
        }
        let _t = scope(Kernel::Matmul);
        if k == 0 {
            // Every dot is over nothing.
            out.zero();
            return;
        }
        let panels = panels.map(Matrix::as_slice);
        kernels::gemm_tb(self.as_slice(), k, &panels, keep_row, out.as_mut_slice());
    }

    /// `self · otherᵀ` with the plain serial-reduction dot product —
    /// the pre-optimization kernel, kept as the correctness reference
    /// for the laned [`Matrix::matmul_transpose_b`] and for
    /// kernel-level A/B benchmarks; results differ from the laned
    /// kernel only by f32 summation order.
    pub fn matmul_transpose_b_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_transpose_b_serial: inner dims {} vs {}",
            self.cols(),
            other.cols()
        );
        let (k, n) = (self.cols(), other.rows());
        let mut out = Matrix::zeros(self.rows(), n);
        if k == 0 {
            return out;
        }
        let rows = self.as_slice().chunks_exact(k);
        for (a_row, out_row) in rows.zip(out.as_mut_slice().chunks_exact_mut(n.max(1))) {
            for (o, b_row) in out_row.iter_mut().zip(other.as_slice().chunks_exact(k)) {
                *o = kernels::dot_serial(a_row, b_row);
            }
        }
        out
    }

    /// `self · otherᵀ` written into a caller-owned buffer (resized in
    /// place) — the fused-GRU path uses this to keep gate
    /// pre-activations in persistent scratch instead of allocating six
    /// fresh matrices per step. Numerically identical to
    /// [`Matrix::matmul_transpose_b`].
    ///
    /// # Panics
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        out.resize_for_overwrite(self.rows(), other.rows());
        self.project_into([other], |_| true, out);
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_transpose_a(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_transpose_a: inner dims {} vs {}",
            self.rows(),
            other.rows()
        );
        let _t = scope(Kernel::Matmul);
        let (k, m, n) = (self.rows(), self.cols(), other.cols());
        let mut out = Matrix::zeros(m, n);
        let at = kernels::Strides {
            origin: 0,
            row: 1,
            step: m,
        };
        kernels::gemm_axpy(
            self.as_slice(),
            at,
            m,
            k,
            other.as_slice(),
            n,
            n,
            out.as_mut_slice(),
        );
        out
    }

    /// Materialized transpose. Rarely needed — prefer the fused
    /// `matmul_transpose_*` kernels.
    pub fn transpose(&self) -> Matrix {
        let (r, c) = self.shape();
        let mut out = Matrix::zeros(c, r);
        for i in 0..r {
            for j in 0..c {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_2x3_3x2() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_b_matches_explicit() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 1., 0., 1., 0., 2., 2., 2., 1., 1., 1.]);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_a_matches_explicit() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &[1., 0., 1., 0., 0., 1., 0., 1., 2., 2., 2., 2.]);
        assert_eq!(a.matmul_transpose_a(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn blocked_matmul_bit_matches_ascending_k_reference() {
        // Shapes that straddle the KC/JC tile boundaries with
        // non-integer data: cache tiling and SIMD dispatch must not
        // move a single bit relative to the plain ascending-k loop.
        for (mm, kk, nn) in [(3, 5, 7), (17, 70, 130), (9, 64, 512), (33, 129, 520)] {
            let a = Matrix::from_fn(mm, kk, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.731 - 4.4);
            let b = Matrix::from_fn(kk, nn, |r, c| ((r * 17 + c * 5) % 11) as f32 * 0.573 - 2.9);
            let fast = a.matmul(&b);
            let mut reference = Matrix::zeros(mm, nn);
            for i in 0..mm {
                for k2 in 0..kk {
                    let av = a.get(i, k2);
                    if av != 0.0 {
                        for j in 0..nn {
                            let cur = reference.get(i, j);
                            reference.set(i, j, cur + av * b.get(k2, j));
                        }
                    }
                }
            }
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{mm}x{kk}x{nn}");
            }
        }
    }

    #[test]
    fn large_matmul_parallel_path_matches_sequential() {
        // 517 × 300 · 300 × 260 — several row, step and column blocks
        // of the one `gemm_axpy` body, an odd row count, non-integer
        // data: two threads give the one-thread bits.
        let (m, k, n) = (517, 300, 260);
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.731 - 4.4);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 5) % 11) as f32 * 0.573 - 2.9);
        let bt = b.transpose();
        let products = || {
            [
                a.matmul(&b),
                a.matmul_transpose_b(&bt),
                a.matmul_transpose_a(&a),
            ]
            .map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let sequential = crate::par::with_budget(1, products);
        assert!(crate::par::with_budget(2, products) == sequential);
    }

    #[test]
    fn laned_dot_matches_serial_sum() {
        // Exercise every tail length around the 8-lane boundary with
        // integer-valued data (exact in f32 regardless of order).
        for len in 0..40 {
            let a: Vec<f32> = (0..len).map(|i| (i % 7) as f32 - 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i % 5) as f32 - 2.0).collect();
            let serial: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(kernels::dot(&a, &b), serial, "len {len}");
        }
    }

    #[test]
    fn laned_kernel_matches_serial_reference() {
        // Integer-valued data: exact in f32 under any summation order.
        let a = Matrix::from_fn(7, 37, |r, c| ((r * 13 + c * 5) % 9) as f32 - 4.0);
        let b = Matrix::from_fn(5, 37, |r, c| ((r * 11 + c * 3) % 7) as f32 - 3.0);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul_transpose_b_serial(&b));
    }

    #[test]
    fn transpose_b_into_matches_allocating() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 1., 0., 1., 0., 2., 2., 2., 1., 1., 1.]);
        let mut out = Matrix::full(1, 1, 9.0); // wrong shape on purpose
        a.matmul_transpose_b_into(&b, &mut out);
        assert_eq!(out, a.matmul_transpose_b(&b));
        // Buffer reuse across differently shaped calls.
        let c = m(1, 3, &[1., 1., 1.]);
        c.matmul_transpose_b_into(&b, &mut out);
        assert_eq!(out, c.matmul_transpose_b(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dim_mismatch_panics() {
        m(2, 3, &[0.; 6]).matmul(&m(2, 2, &[0.; 4]));
    }
}
