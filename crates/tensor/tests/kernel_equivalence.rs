//! Property-based bit-identity suite for the hardware-width kernels.
//!
//! The kernel dispatchers promise bit-identical results to their laned
//! scalar references for *any* input — including remainder lanes
//! (lengths not divisible by 8). These tests compare the dispatched
//! path (AVX2 when detected, scalar otherwise) against the
//! always-scalar reference directly, so they are meaningful on every
//! host: under `DISTTGL_SIMD=0` or without AVX2 both sides take the
//! same path and the suite checks the scalar build against the plain
//! references; with AVX2 it is the real cross-path check.
//!
//! The references for the elementwise kernels are written out as plain
//! loops here (not calls back into the crate) so a reordering bug in
//! the shared scalar body cannot hide itself.
//!
//! The row-split cases run every GEMM entry point under intra-op
//! budgets 2 and 3 against budget 1, on both paths: which thread
//! computes an element must never change it.

use disttgl_tensor::bf16::{bf16_decode, bf16_encode};
use disttgl_tensor::{kernels, par, Matrix};
use proptest::prelude::*;

/// Strategy: a vector whose length lands on interesting lane
/// boundaries — empty, sub-lane, exact multiples, and remainders.
fn lanes_vec() -> impl Strategy<Value = Vec<f32>> {
    (0usize..70).prop_flat_map(|len| proptest::collection::vec(-100.0f32..100.0, len))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Seeded `r × c` matrix in `[-1, 1)` in which about two entries in
/// seven are an exact zero, half of them `-0.0` — the values the GEMM
/// zero-skip branches on.
fn zero_laced(r: usize, c: usize, seed: u32) -> Matrix {
    let v = (0..r * c)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8;
            match h % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => (h as f32 / 8388608.0) - 1.0,
            }
        })
        .collect();
    Matrix::from_vec(r, c, v)
}

/// Runs `f` on the scalar path and on the dispatched one (AVX2 where
/// detected; scalar again under `DISTTGL_SIMD=0` or without AVX2).
fn on_both_paths(
    mut f: impl FnMut(&str) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    kernels::force_scalar(true);
    let scalar = f("scalar");
    kernels::force_scalar(false);
    scalar?;
    f("dispatched")
}

/// `out[r][j] += Σ_s a(r, s) · b[s][j]` the way the contract defines
/// it: ascending `s`, multiply then add, zero multipliers skipped.
fn axpy_chain_reference(
    rows: usize,
    steps: usize,
    w: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * w];
    for r in 0..rows {
        for s in 0..steps {
            let av = a(r, s);
            if av != 0.0 {
                for j in 0..w {
                    out[r * w + j] += av * b(s, j);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dispatched dot ≡ laned scalar dot, bit for bit, any length.
    #[test]
    fn dot_matches_scalar_reference(a in lanes_vec()) {
        let b: Vec<f32> = a.iter().map(|&x| x * 0.731 - 2.0).collect();
        prop_assert_eq!(
            kernels::dot(&a, &b).to_bits(),
            kernels::dot_scalar(&a, &b).to_bits()
        );
    }

    /// Row max matches its scalar reference.
    #[test]
    fn reductions_match_scalar_reference(a in lanes_vec()) {
        prop_assert_eq!(
            kernels::row_max(&a).to_bits(),
            kernels::row_max_scalar(&a).to_bits()
        );
    }

    /// Elementwise kernels ≡ plain per-element loops (no cross-element
    /// data flow ⇒ bit-identical at any vector width).
    #[test]
    fn elementwise_match_plain_loops(x in lanes_vec(), alpha in -4.0f32..4.0) {
        let y: Vec<f32> = x.iter().map(|&v| v * 0.517 + 1.0).collect();

        let mut out = y.clone();
        kernels::axpy(&mut out, alpha, &x);
        let mut reference = y.clone();
        for (o, &v) in reference.iter_mut().zip(&x) {
            *o += alpha * v;
        }
        prop_assert_eq!(bits(&out), bits(&reference), "axpy");

        let mut out = y.clone();
        kernels::add(&mut out, &x);
        let mut reference = y.clone();
        for (o, &v) in reference.iter_mut().zip(&x) {
            *o += v;
        }
        prop_assert_eq!(bits(&out), bits(&reference), "add");

        let mut out = y.clone();
        kernels::scale(&mut out, alpha);
        let mut reference = y.clone();
        for o in reference.iter_mut() {
            *o *= alpha;
        }
        prop_assert_eq!(bits(&out), bits(&reference), "scale");

        let mut out = y.clone();
        kernels::gru_candidate(&mut out, &x, &y);
        let mut reference = y.clone();
        for ((n, &r), &a) in reference.iter_mut().zip(&x).zip(&y) {
            *n += r * a;
        }
        prop_assert_eq!(bits(&out), bits(&reference), "gru_candidate");

        let z: Vec<f32> = x.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect();
        let mut out = vec![0.0f32; x.len()];
        kernels::gru_combine(&mut out, &y, &z, &x);
        let mut reference = vec![0.0f32; x.len()];
        for (((o, &n), &zv), &h) in reference.iter_mut().zip(&y).zip(&z).zip(&x) {
            *o = (n - zv * n) + zv * h;
        }
        prop_assert_eq!(bits(&out), bits(&reference), "gru_combine");
    }

    /// The blocked/tiled matmul is bit-equal to the naive ascending-k
    /// triple loop for arbitrary (m, k, n) — the tiling only reorders
    /// *which rows* are computed when, never the per-element
    /// accumulation order.
    #[test]
    fn blocked_matmul_matches_ascending_k(
        m in 1usize..6, k in 1usize..80, n in 1usize..70, seed in 0u32..1000
    ) {
        let gen = |r: usize, c: usize, salt: u32| {
            let v: Vec<f32> = (0..r * c)
                .map(|i| {
                    let h = (i as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(seed ^ salt);
                    ((h >> 8) as f32 / 8388608.0) - 1.0
                })
                .collect();
            Matrix::from_vec(r, c, v)
        };
        let a = gen(m, k, 0xa);
        let b = gen(k, n, 0xb);
        let fast = a.matmul(&b);
        let mut reference = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                let av = a.get(i, kk);
                if av != 0.0 {
                    for j in 0..n {
                        let cur = reference.get(i, j);
                        reference.set(i, j, cur + av * b.get(kk, j));
                    }
                }
            }
        }
        for i in 0..m {
            prop_assert_eq!(bits(fast.row(i)), bits(reference.row(i)), "row {}", i);
        }
    }

    /// `A · Bᵀ` (register-tiled `gemm_tb`) ≡ scalar dot per element.
    #[test]
    fn matmul_transpose_b_matches_scalar_dots(
        m in 1usize..6, k in 1usize..80, n in 1usize..10
    ) {
        let gen = |r: usize, c: usize, salt: f32| {
            let v: Vec<f32> = (0..r * c).map(|i| ((i as f32) * salt).sin()).collect();
            Matrix::from_vec(r, c, v)
        };
        let a = gen(m, k, 0.37);
        let b = gen(n, k, 0.71);
        let fast = a.matmul_transpose_b(&b);
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    fast.get(i, j).to_bits(),
                    kernels::dot_scalar(a.row(i), b.row(j)).to_bits(),
                    "({}, {})", i, j
                );
            }
        }
    }

    /// The fused, row-masked, register-tiled `A · [P₀; P₁]ᵀ` ≡ one
    /// scalar laned dot per kept element and an untouched zero per
    /// masked one — over odd `m`, `n % 4 ≠ 0`, `k % 8 ≠ 0`, `k < 8`,
    /// empty panels, all-padding and zero-count blocks.
    #[test]
    fn fused_masked_transpose_b_matches_scalar_dots(
        n_slots in 1usize..5,
        counts in proptest::collection::vec(0usize..6, 0..5),
        k in 1usize..30,
        n0 in 0usize..7,
        n1 in 0usize..7,
        seed in 0u32..1000
    ) {
        let m = counts.len() * n_slots;
        let a = zero_laced(m, k, seed);
        let p0 = zero_laced(n0, k, seed ^ 0x5bd1);
        let p1 = zero_laced(n1, k, seed ^ 0x9e37);
        let keep = |r: usize| r % n_slots < counts[r / n_slots];
        on_both_paths(|path| {
            let fused = a.matmul_transpose_b_panels([&p0, &p1], keep);
            prop_assert_eq!(fused.shape(), (m, n0 + n1));
            for r in 0..m {
                let b_rows = p0.rows_iter().chain(p1.rows_iter());
                for (j, b_row) in b_rows.enumerate() {
                    let want = if keep(r) { kernels::dot_scalar(a.row(r), b_row) } else { 0.0 };
                    prop_assert_eq!(
                        fused.get(r, j).to_bits(), want.to_bits(), "{} ({}, {})", path, r, j
                    );
                }
            }
            // One panel, every row: the plain entry point, same body.
            let plain = a.matmul_transpose_b(&p0);
            for r in 0..m {
                for (j, b_row) in p0.rows_iter().enumerate() {
                    prop_assert_eq!(
                        plain.get(r, j).to_bits(),
                        kernels::dot_scalar(a.row(r), b_row).to_bits(),
                        "{} plain ({}, {})", path, r, j
                    );
                }
            }
            Ok(())
        })?;
    }

    /// The tiled, step-blocked `Aᵀ · B` ≡ the ascending-`k` axpy chain
    /// per element, zero skip included: a step whose multipliers are
    /// all `±0.0` (a padded row's gradient) must not even read its `B`
    /// row, here poisoned with infinities. Odd `m`, `m % 4 ≠ 0`,
    /// `n % 16 ≠ 0`, `n % 8 ≠ 0`, empty operands.
    #[test]
    fn tiled_transpose_a_matches_axpy_chain(
        kk in 0usize..40, m in 0usize..11, n in 0usize..37, seed in 0u32..1000
    ) {
        let mut a = zero_laced(kk, m, seed);
        let mut b = zero_laced(kk, n, seed ^ 0x7f4a);
        for s in (0..kk).filter(|s| (s + seed as usize).is_multiple_of(5)) {
            for (i, v) in a.row_mut(s).iter_mut().enumerate() {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            b.row_mut(s).fill(f32::INFINITY);
        }
        let want = axpy_chain_reference(m, kk, n, |r, s| a.get(s, r), |s, j| b.get(s, j));
        prop_assert!(want.iter().all(|v| v.is_finite()));
        on_both_paths(|path| {
            let got = a.matmul_transpose_a(&b);
            prop_assert_eq!(got.shape(), (m, n));
            prop_assert_eq!(bits(got.as_slice()), bits(&want), "{}", path);
            Ok(())
        })?;
    }

    /// A column range of `A` times an output-column window of `B` ≡ the
    /// same elements of the full product of the copied-out blocks.
    #[test]
    fn windowed_matmul_matches_full_product_columns(
        m in 0usize..7, k in 1usize..20, n in 1usize..37,
        from in 0usize..20, len in 0usize..20, window in 0usize..37,
        seed in 0u32..1000
    ) {
        let (from, window) = (from % k, window % (n + 1));
        let len = len % (k - from + 1);
        let a = zero_laced(m, k, seed);
        let b = zero_laced(len, n, seed ^ 0x3c6e);
        let want = axpy_chain_reference(
            m, len, window, |r, s| a.get(r, from + s), |s, j| b.get(s, j),
        );
        on_both_paths(|path| {
            let got = a.matmul_cols(from..from + len, &b, window);
            prop_assert_eq!(got.shape(), (m, window));
            prop_assert_eq!(bits(got.as_slice()), bits(&want), "{}", path);
            Ok(())
        })?;
    }

    /// Intra-op budgets 1, 2 and 3 give bit-identical products from
    /// every GEMM entry point, masked rows and all-masked blocks
    /// included. Sizes straddle the split threshold, and row counts are
    /// odd, below one 4-row part, or fewer than the threads.
    #[test]
    fn row_split_products_match_unsplit(
        m in 1usize..40,
        k in 1usize..70,
        madds in (par::SPLIT_MADDS / 2)..(par::SPLIT_MADDS * 2),
        n_slots in 1usize..4,
        seed in 0u32..1000
    ) {
        let n = (madds / (m * k)).max(1);
        let from = k / 3;
        let a = zero_laced(m, k, seed);
        let at = zero_laced(k, m, seed ^ 0x11);
        let b = zero_laced(k, n, seed ^ 0x22);
        let b_cols = zero_laced(k - from, n, seed ^ 0x33);
        let bt = zero_laced(n, k, seed ^ 0x44);
        let p1 = zero_laced(3, k, seed ^ 0x55);
        let counts: Vec<usize> = (0..m.div_ceil(n_slots))
            .map(|i| (i * 7 + seed as usize) % (n_slots + 1))
            .collect();
        let keep = |r: usize| r % n_slots < counts[r / n_slots];
        let products = || {
            [
                a.matmul(&b),
                a.matmul_cols(from..k, &b_cols, n / 2 + 1),
                at.matmul_transpose_a(&b),
                a.matmul_transpose_b(&bt),
                a.matmul_transpose_b_panels([&bt, &p1], keep),
            ]
            .map(|p| bits(p.as_slice()))
        };
        on_both_paths(|path| {
            let unsplit = par::with_budget(1, products);
            for budget in [2, 3] {
                let split = par::with_budget(budget, products);
                prop_assert!(split == unsplit, "{} budget {}", path, budget);
            }
            Ok(())
        })?;
    }

    /// bf16 round-trip keeps every normal value within 2⁻⁸ relative
    /// error (half a bf16 ULP with round-to-nearest-even).
    #[test]
    fn bf16_round_trip_error_bounded(v in -1.0e30f32..1.0e30) {
        let rt = bf16_decode(bf16_encode(v));
        if v != 0.0 && v.is_normal() {
            let rel = ((rt - v) / v).abs();
            prop_assert!(rel <= 2.0f32.powi(-8), "{} -> {} rel {}", v, rt, rel);
        }
    }

    /// Re-quantizing a quantized value is the identity (the property
    /// that makes f32 checkpoints of bf16 stores lossless).
    #[test]
    fn bf16_double_round_trip_stable(b in 0u16..=u16::MAX) {
        let v = bf16_decode(b);
        if !v.is_nan() {
            prop_assert_eq!(bf16_encode(v), b);
        }
    }
}

/// Shapes past one row block (256), one step block (128) and several
/// column tiles of the axpy-chain GEMM: resuming an element's chain
/// across blocks must not reorder it.
#[test]
fn blocked_axpy_gemm_matches_chain_across_blocks() {
    for (rows, steps, w) in [(5, 300, 37), (600, 9, 20), (261, 130, 220)] {
        let a = zero_laced(rows, steps, 11);
        let b = zero_laced(steps, w + 3, 12);
        let want = axpy_chain_reference(rows, steps, w, |r, s| a.get(r, s), |s, j| b.get(s, j));
        let at = a.transpose();
        for scalar in [true, false] {
            kernels::force_scalar(scalar);
            let nn = a.matmul_cols(0..steps, &b, w);
            let ta = at.matmul_transpose_a(&b);
            kernels::force_scalar(false);
            assert_eq!(bits(nn.as_slice()), bits(&want), "A·B {rows}x{steps}x{w}");
            for r in 0..rows {
                assert_eq!(
                    bits(&ta.row(r)[..w]),
                    bits(&want[r * w..(r + 1) * w]),
                    "Aᵀ·B row {r}"
                );
            }
        }
    }
}

/// Four threads, each with budget 2, run large products at once: they
/// contend for the one posted-product slot, so some post to the pool
/// while others run their parts inline. Every product must come out
/// with the unsplit bits, and nothing may hang.
#[test]
fn concurrent_budgeted_products_are_exact() {
    let a = zero_laced(301, 220, 21);
    let b = zero_laced(64, 220, 22);
    let products =
        || [a.matmul_transpose_b(&b), b.matmul(&a.transpose())].map(|p| bits(p.as_slice()));
    let want = par::with_budget(1, products);
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                start.wait();
                par::with_budget(2, || {
                    for _ in 0..25 {
                        assert!(products() == want, "a concurrent split product differs");
                    }
                });
            });
        }
    });
}
