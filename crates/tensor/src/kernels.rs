//! Hardware-width inner kernels with a fixed-reduction-order contract.
//!
//! Every kernel runs on one of two paths, chosen per call by
//! [`simd_active`]: the baseline build, or an AVX2 build on an x86-64
//! CPU that has it. The two paths are **bit-identical by
//! construction**:
//!
//! * `row_max`, `axpy`, `add`, `scale` and the fused GRU maps have
//!   **one body** each, written as laned scalar Rust. The declaring
//!   macro compiles that body twice: once for the baseline target and
//!   once inside a safe `#[target_feature(enable = "avx2")]` fn, where
//!   the compiler vectorizes it. The elementwise kernels have no
//!   cross-element data flow, so any vector width gives the same bits
//!   per element. `row_max` keeps eight fixed lanes, a fixed fold and
//!   a serial tail, and its compare-select max has one answer for
//!   every operand pair, the sign of zero included. Rust never
//!   contracts a multiply and an add into an FMA, so both builds round
//!   twice. Measured against the hand-written intrinsic bodies they
//!   replace (one core, best of 7, lengths 32 to 65 536), the AVX2
//!   build of each body took 0.46–1.18× the intrinsic time.
//! * `dot` and the whole-GEMM bodies (`gemm_tb`, `gemm_axpy`) keep
//!   hand-written AVX2 bodies in `avx2`, each for a measured gap noted
//!   at its definition. Their reductions use eight fixed accumulator
//!   lanes: lane `l` of the `__m256` accumulator holds exactly the
//!   partial sum the scalar path keeps in `acc[l]`, chunks are
//!   consumed in the same order, the remainder tail is the same serial
//!   loop, and the final lane fold is the same fixed tree
//!   `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`. They multiply then add
//!   (`vmulps` + `vaddps`), never `vfmaddps`: a fused multiply-add
//!   rounds once where the scalar path rounds twice.
//! * the GEMM bodies give every output element its own reduction of
//!   one of two kinds — a laned dot, or an ascending-`k` chain of axpy
//!   updates — so register tiles, cache blocks, fused panels, row
//!   selections and column windows choose *which* elements are
//!   computed and when, never how one is summed.
//!
//! Because of this, the path taken (missing CPU support, [`force_scalar`],
//! or `DISTTGL_SIMD=0`) never changes a training trajectory — the
//! equivalence suites that compare executors bit-for-bit hold under
//! every dispatch outcome.

/// Runtime override: when `true`, every kernel takes the scalar path
/// even on a CPU with AVX2. Used by benchmarks and the bit-identity
/// proptests to A/B the two paths in one process.
#[cfg(target_arch = "x86_64")]
static FORCE_SCALAR: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Forces (or un-forces) the scalar kernel path at runtime.
///
/// A no-op when the target is not x86-64 (the scalar path is all there
/// is). Takes effect for kernel calls that start after this call
/// returns; intended for A/B benchmarking and tests, not for
/// concurrent toggling mid-kernel.
pub fn force_scalar(on: bool) {
    #[cfg(target_arch = "x86_64")]
    FORCE_SCALAR.store(on, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = on;
}

/// Whether the next kernel call will take the AVX2 path.
///
/// Requires all of: an x86-64 target, a CPU with AVX2 (detected once
/// at first use), `DISTTGL_SIMD` not set to `0`/`off`/`false` (read
/// once), and no [`force_scalar`] override.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::Ordering;
        static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let compiled = *ENABLED.get_or_init(|| {
            let env_off = std::env::var("DISTTGL_SIMD")
                .map(|v| matches!(v.trim(), "0" | "off" | "false"))
                .unwrap_or(false);
            !env_off && std::arch::is_x86_feature_detected!("avx2")
        });
        compiled && !FORCE_SCALAR.load(Ordering::Relaxed)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Declares kernels that have one body and two builds. Each
/// `pub fn name(args) -> ret { body }` expands to the public `name`,
/// holding an `#[inline(always)]` copy of `body` (so each build below
/// compiles it afresh for its own target features), a safe AVX2 build
/// of it on x86-64, and the dispatch between the two.
macro_rules! one_body {
    ($(
        $(#[$attr:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block
    )*) => {$(
        $(#[$attr])*
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if simd_active() {
                // SAFETY: a safe `#[target_feature]` fn requires only
                // that the CPU has the feature, and `simd_active()`
                // verified AVX2 support at runtime.
                return unsafe { avx2($($arg),*) };
            }
            body($($arg),*)
        }
    )*};
}

// ---------------------------------------------------------------------------
// Reduction kernels (fixed 8-lane order)
// ---------------------------------------------------------------------------

/// Dot product with eight independent accumulator lanes.
///
/// A plain `zip().map().sum()` reduction is a single serial FP-add
/// chain that LLVM must not reorder, so it runs at add-latency speed.
/// Splitting the sum across eight fixed lanes breaks the dependency
/// chain (and maps 1:1 onto a `__m256` register) while staying fully
/// deterministic — the lane structure, not the data, decides the
/// summation order. This is the workhorse of every `x·Wᵀ` in the
/// model, which dominates training compute.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active()` verified AVX2 support at runtime; the
        // lengths were just checked equal.
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// The laned scalar dot — public so benchmarks and equivalence tests
/// can pin the reference path regardless of dispatch state.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let main = a.len() - a.len() % 8;
    for (ca, cb) in a[..main].chunks_exact(8).zip(b[..main].chunks_exact(8)) {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            *acc_l += ca[l] * cb[l];
        }
    }
    fold8(acc) + dot_serial(&a[main..], &b[main..])
}

/// Plain serial-reduction dot — the pre-optimization numerics, kept
/// as the correctness reference for kernel A/B tests and for the
/// scalar remainder tails (both paths share this exact loop).
#[inline]
pub fn dot_serial(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The body of [`row_max`], built for the caller's target: the scalar
/// reference the dispatched path is compared against.
///
/// Eight lanes, a fixed lane fold and a serial tail. Each max is the
/// compare-select `if x > y { x } else { y }`, which is what `vmaxps`
/// computes: on a tie (`+0.0` against `-0.0`) it returns `y`. The
/// operand order of every step is fixed (the new element is `y` in the
/// lanes, the running max is `y` in the tail), so a row that mixes
/// `+0.0` and `-0.0` gets the same zero on every path. With `f32::max`
/// the sign of zero would be unspecified, and the AVX2 build ran
/// 1.7–3.9× slower because LLVM lowers `max` to a NaN-aware blend.
/// Returns `f32::NEG_INFINITY` for an empty slice. NaN inputs are
/// unsupported (callers mask with large negative finite values, never
/// NaN).
#[inline(always)]
pub fn row_max_scalar(a: &[f32]) -> f32 {
    let max = |x: f32, y: f32| if x > y { x } else { y };
    let mut acc = [f32::NEG_INFINITY; 8];
    let main = a.len() - a.len() % 8;
    for ca in a[..main].chunks_exact(8) {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            *acc_l = max(*acc_l, ca[l]);
        }
    }
    let lanes = max(
        max(max(acc[0], acc[4]), max(acc[1], acc[5])),
        max(max(acc[2], acc[6]), max(acc[3], acc[7])),
    );
    a[main..].iter().fold(lanes, |m, &v| max(v, m))
}

one_body! {
    /// Maximum element; see [`row_max_scalar`] for the lane structure
    /// and the sign of zero. Softmax, the only caller, subtracts it
    /// from the row.
    pub fn row_max(a: &[f32]) -> f32 {
        row_max_scalar(a)
    }

    // -----------------------------------------------------------------------
    // Elementwise kernels (bit-identical at any vector width)
    // -----------------------------------------------------------------------

    /// `out[i] += alpha * x[i]` — the axpy inner kernel shared by the
    /// blocked `matmul` / `matmul_transpose_a` bodies and the optimizer.
    pub fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
        debug_assert_eq!(out.len(), x.len());
        for (o, &v) in out.iter_mut().zip(x) {
            *o += alpha * v;
        }
    }

    /// `out[i] += x[i]`.
    pub fn add(out: &mut [f32], x: &[f32]) {
        debug_assert_eq!(out.len(), x.len());
        for (o, &v) in out.iter_mut().zip(x) {
            *o += v;
        }
    }

    /// `out[i] *= alpha`.
    pub fn scale(out: &mut [f32], alpha: f32) {
        for o in out.iter_mut() {
            *o *= alpha;
        }
    }

    /// Fused GRU candidate pre-activation: `n[i] += r[i] * a[i]`
    /// (reset gate ⊙ recurrent contribution).
    pub fn gru_candidate(n: &mut [f32], r: &[f32], a: &[f32]) {
        debug_assert_eq!(n.len(), r.len());
        debug_assert_eq!(n.len(), a.len());
        for ((nv, &rv), &av) in n.iter_mut().zip(r).zip(a) {
            *nv += rv * av;
        }
    }

    /// Fused GRU output combine: `o[i] = (n[i] - z[i]*n[i]) + z[i]*h[i]`.
    pub fn gru_combine(o: &mut [f32], n: &[f32], z: &[f32], h: &[f32]) {
        debug_assert_eq!(o.len(), n.len());
        debug_assert_eq!(o.len(), z.len());
        debug_assert_eq!(o.len(), h.len());
        for (((ov, &nv), &zv), &hv) in o.iter_mut().zip(n).zip(z).zip(h) {
            *ov = (nv - zv * nv) + zv * hv;
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-GEMM bodies (one dispatch per product, tiles inlined)
// ---------------------------------------------------------------------------

/// `A · [P₀; P₁; …]ᵀ` over the rows of `A` that `keep_row` selects:
/// `out[r] = [a[r]·P₀ᵀ ‖ a[r]·P₁ᵀ ‖ …]`, rows not kept are left as
/// they are. `a` is row-major `m × k`; each panel is a row-major
/// `nₚ × k` block, so several weight matrices that share an input are
/// projected in one pass over `a` without being concatenated.
///
/// Every output element is exactly [`dot`] of its `(a row, panel row)`
/// pair — its own eight lanes, chunk order, fold and serial tail — so
/// the register tile (two `a` rows share each panel-row load), the
/// panel fusion, the row selection and the row split across threads
/// ([`crate::par`]) cannot move a bit.
///
/// # Panics
/// Panics if `k == 0`, a length is not a multiple of `k`, or `out` is
/// not `m × Σnₚ`.
pub(crate) fn gemm_tb(
    a: &[f32],
    k: usize,
    panels: &[&[f32]],
    keep_row: impl Fn(usize) -> bool + Sync,
    out: &mut [f32],
) {
    assert!(
        k > 0 && a.len().is_multiple_of(k),
        "gemm_tb: a is not m × {k}"
    );
    assert!(
        panels.iter().all(|p| p.len().is_multiple_of(k)),
        "gemm_tb: panel is not n × {k}"
    );
    let n: usize = panels.iter().map(|p| p.len() / k).sum();
    let m = a.len() / k;
    assert_eq!(out.len(), m * n, "gemm_tb: out is not m × {n}");
    crate::par::split_rows(out, m, m * k * n, |part, out| {
        let a = &a[part.start * k..part.end * k];
        let keep_row = |r| keep_row(part.start + r);
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            // SAFETY: `simd_active()` verified AVX2 support at runtime;
            // the asserts above establish the shapes the body indexes
            // by, and a row part keeps them.
            unsafe { avx2::gemm_tb(a, k, panels, keep_row, out) };
            return;
        }
        let rows = a.chunks_exact(k).zip(out.chunks_exact_mut(n.max(1)));
        for (r, (a_row, out_row)) in rows.enumerate() {
            if keep_row(r) {
                let b_rows = panels.iter().flat_map(|p| p.chunks_exact(k));
                for (o, b_row) in out_row.iter_mut().zip(b_rows) {
                    *o = dot_scalar(a_row, b_row);
                }
            }
        }
    });
}

/// Where the left operand of [`gemm_axpy`] keeps the multiplier of
/// output row `r` at reduction step `s`: `a[origin + r·row + s·step]`.
/// `{origin: 0, row: 1, step: m}` reads a `steps × m` matrix transposed
/// (`Aᵀ·B`); `{origin: c, row: lda, step: 1}` reads columns `c..` of a
/// `rows × lda` matrix (`A[:, c..]·B`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Strides {
    /// Index of the `(r, s) = (0, 0)` multiplier.
    pub origin: usize,
    /// Distance between consecutive output rows.
    pub row: usize,
    /// Distance between consecutive reduction steps.
    pub step: usize,
}

/// The axpy-chain GEMM behind `A·B` and `Aᵀ·B`:
/// `out[r][j] += a(r, s) · b[s][j]` for `j < w`, summed over
/// `s = 0..steps` **in ascending `s`**, skipping every `a(r, s)` that
/// equals zero (either sign) — per output element the same chain of
/// multiply-then-add updates [`axpy`] builds one row at a time. `out`
/// is row-major `rows × w` and is accumulated into; `b` holds `steps`
/// rows `ldb` apart, of which the leading `w` columns are read (an
/// output-column window costs nothing and moves no bit: columns never
/// mix).
///
/// The AVX2 body keeps a 4 × 16 tile of `out` in registers across a
/// block of steps; tiling, blocking and the row split across threads
/// ([`crate::par`]) only decide *when* and *where* an element's next
/// update happens, never its order.
///
/// # Panics
/// Panics if `w > ldb`, `out` is not `rows × w`, or `a`/`b` are too
/// short for the shape.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_axpy(
    a: &[f32],
    at: Strides,
    rows: usize,
    steps: usize,
    b: &[f32],
    ldb: usize,
    w: usize,
    out: &mut [f32],
) {
    assert_eq!(out.len(), rows * w, "gemm_axpy: out is not {rows} × {w}");
    if rows == 0 || steps == 0 || w == 0 {
        return;
    }
    assert!(w <= ldb, "gemm_axpy: window {w} wider than b rows {ldb}");
    assert!(
        (steps - 1) * ldb + w <= b.len(),
        "gemm_axpy: b shorter than {steps} rows"
    );
    assert!(
        at.origin + (rows - 1) * at.row + (steps - 1) * at.step < a.len(),
        "gemm_axpy: a shorter than {rows} × {steps}"
    );
    crate::par::split_rows(out, rows, rows * steps * w, |part, out| {
        let at = Strides {
            origin: at.origin + part.start * at.row,
            ..at
        };
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            // SAFETY: `simd_active()` verified AVX2 support at runtime;
            // the asserts above bound every index the body forms, and
            // a row part shifted to its first row stays inside them.
            unsafe { avx2::gemm_axpy(a, at, part.len(), steps, b, ldb, w, out) };
            return;
        }
        for (r, out_row) in out.chunks_exact_mut(w).enumerate() {
            for s in 0..steps {
                let av = a[at.origin + r * at.row + s * at.step];
                if av != 0.0 {
                    for (o, &bv) in out_row.iter_mut().zip(&b[s * ldb..s * ldb + w]) {
                        *o += av * bv;
                    }
                }
            }
        }
    });
}

/// The fixed lane-fold tree shared by every 8-lane reduction:
/// `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`. This exact shape is what
/// the AVX2 horizontal reduction reproduces with one 128-bit add and
/// two shuffles.
#[inline]
fn fold8(acc: [f32; 8]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

// ---------------------------------------------------------------------------
// AVX2 bodies of dot and the GEMMs
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Hand-written AVX2 bodies of `dot` and the two GEMMs, kept where
    //! the compiled scalar body measured slower. Each function mirrors
    //! its scalar reference lane-for-lane; see the module docs for the
    //! bit-identity argument. All functions require AVX2 (checked by
    //! the dispatchers before calling).

    use std::arch::x86_64::*;

    /// Folds a `__m256` of 8 lanes with the exact scalar tree
    /// `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold8_avx(acc: __m256) -> f32 {
        // s = [l0+l4, l1+l5, l2+l6, l3+l7]
        let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        // t = [s0+s1, _, s2+s3, _]
        let t = _mm_add_ps(s, _mm_movehdup_ps(s));
        // (s0+s1) + (s2+s3)
        _mm_cvtss_f32(_mm_add_ss(t, _mm_movehl_ps(t, t)))
    }

    /// The `R × C` register tile of the dot family: every `a[r]·b[c]`
    /// over `k` elements, each in its own accumulator register — the
    /// tile shares *loads* (one of each `a` and `b` chunk per step),
    /// never sums, so each result is the lone dot of its pair.
    ///
    /// # Safety
    /// Requires AVX2; every pointer must be valid for `k` reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_tile<const R: usize, const C: usize>(
        a: [*const f32; R],
        b: [*const f32; C],
        k: usize,
    ) -> [[f32; C]; R] {
        let main = k - k % 8;
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        let mut i = 0;
        while i < main {
            let va = a.map(|p| _mm256_loadu_ps(p.add(i)));
            for c in 0..C {
                let vb = _mm256_loadu_ps(b[c].add(i));
                for r in 0..R {
                    // mul + add, NOT fmadd: fused rounding would
                    // diverge from the scalar lanes.
                    acc[r][c] = _mm256_add_ps(acc[r][c], _mm256_mul_ps(va[r], vb));
                }
            }
            i += 8;
        }
        let tail = |p: *const f32| std::slice::from_raw_parts(p.add(main), k - main);
        let mut out = [[0.0f32; C]; R];
        for r in 0..R {
            for c in 0..C {
                out[r][c] = fold8_avx(acc[r][c]) + super::dot_serial(tail(a[r]), tail(b[c]));
            }
        }
        out
    }

    /// Kept as an intrinsic: the laned scalar body built for AVX2 ran
    /// 1.3–2.9× slower at every length tried (32 to 65 536).
    ///
    /// # Safety
    /// Requires AVX2 and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        dot_tile([a.as_ptr()], [b.as_ptr()], a.len())[0][0]
    }

    /// AVX2 body of [`super::gemm_tb`]: kept rows are taken two at a
    /// time so each panel-row chunk is loaded once for both. Kept as an
    /// intrinsic: the laned body built for AVX2, with the same tile,
    /// ran 1.21–1.28× slower at 12 000 × 220 (best of 25, one core).
    ///
    /// # Safety
    /// Requires AVX2, `k > 0`, `a.len()` and every panel length a
    /// multiple of `k`, and `out.len() == (a.len() / k) · Σ(panel rows)`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tb(
        a: &[f32],
        k: usize,
        panels: &[&[f32]],
        keep_row: impl Fn(usize) -> bool,
        out: &mut [f32],
    ) {
        let n: usize = panels.iter().map(|p| p.len() / k).sum();
        let (pa, po) = (a.as_ptr(), out.as_mut_ptr());
        let mut held = None;
        for r in (0..a.len() / k).filter(|&r| keep_row(r)) {
            match held.take() {
                None => held = Some(r),
                Some(r0) => tb_rows(
                    [pa.add(r0 * k), pa.add(r * k)],
                    k,
                    panels,
                    [po.add(r0 * n), po.add(r * n)],
                ),
            }
        }
        if let Some(r0) = held {
            tb_rows([pa.add(r0 * k)], k, panels, [po.add(r0 * n)]);
        }
    }

    /// `R` rows of `A · [panels]ᵀ`, four panel rows per tile.
    ///
    /// # Safety
    /// Requires AVX2; each `a[r]` valid for `k` reads, each `out[r]`
    /// for `Σ(panel rows)` writes, panel lengths multiples of `k`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tb_rows<const R: usize>(
        a: [*const f32; R],
        k: usize,
        panels: &[&[f32]],
        out: [*mut f32; R],
    ) {
        let mut col = 0;
        for p in panels {
            let (pb, np) = (p.as_ptr(), p.len() / k);
            let mut j = 0;
            while j + 4 <= np {
                let b = [0, 1, 2, 3].map(|c| pb.add((j + c) * k));
                let tile = dot_tile(a, b, k);
                for r in 0..R {
                    out[r]
                        .add(col + j)
                        .copy_from_nonoverlapping(tile[r].as_ptr(), 4);
                }
                j += 4;
            }
            while j < np {
                let tile = dot_tile(a, [pb.add(j * k)], k);
                for r in 0..R {
                    *out[r].add(col + j) = tile[r][0];
                }
                j += 1;
            }
            col += np;
        }
    }

    /// Steps per block of [`gemm_axpy`]: the `KC × w` slab of `b` and
    /// the matching multipliers stay in L2 while every tile sweeps them.
    const KC: usize = 128;
    /// Output rows per block of [`gemm_axpy`] — bounds the multipliers
    /// re-read by successive column tiles.
    const MC: usize = 256;

    /// Signature shared by every instance of [`axpy_tile`].
    type AxpyTile =
        unsafe fn(*const f32, super::Strides, *const f32, usize, usize, *mut f32, usize, __m256i);

    /// AVX2 body of [`super::gemm_axpy`]: row block → step block →
    /// 16-column tile → 4-row tile, so an element's chain is resumed
    /// (load, extend, store) once per step block, in ascending order.
    /// Kept as an intrinsic: the laned body built for AVX2 ran
    /// 1.40–1.51× slower on `A·B` and 1.40–1.43× on `Aᵀ·B` at
    /// 12 000 × 220 (best of 25, one core).
    ///
    /// # Safety
    /// Requires AVX2 and the shape conditions [`super::gemm_axpy`]
    /// asserts (`w <= ldb`, `out.len() == rows · w`, `a` and `b` long
    /// enough for `rows`/`steps`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_axpy(
        a: &[f32],
        at: super::Strides,
        rows: usize,
        steps: usize,
        b: &[f32],
        ldb: usize,
        w: usize,
        out: &mut [f32],
    ) {
        let (pa, pb, po) = (a.as_ptr().add(at.origin), b.as_ptr(), out.as_mut_ptr());
        // Lanes of the last, partial vector of a row (all eight when
        // `w` is a multiple of 8 — then no tile is masked).
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((w % 8) as i32), lane);
        for r0 in (0..rows).step_by(MC) {
            let r1 = (r0 + MC).min(rows);
            for s0 in (0..steps).step_by(KC) {
                let len = KC.min(steps - s0);
                let mut j = 0;
                while j < w {
                    let cols = (w - j).min(16);
                    // One or two vectors per tile row, the last masked
                    // when the row ends inside it.
                    let (tile4, tile1): (AxpyTile, AxpyTile) = match cols {
                        16 => (axpy_tile::<4, 2, false>, axpy_tile::<1, 2, false>),
                        9.. => (axpy_tile::<4, 2, true>, axpy_tile::<1, 2, true>),
                        8 => (axpy_tile::<4, 1, false>, axpy_tile::<1, 1, false>),
                        _ => (axpy_tile::<4, 1, true>, axpy_tile::<1, 1, true>),
                    };
                    let mut r = r0;
                    while r < r1 {
                        let (tile, tall) = if r + 4 <= r1 { (tile4, 4) } else { (tile1, 1) };
                        let ta = pa.add(r * at.row + s0 * at.step);
                        let tb = pb.add(s0 * ldb + j);
                        tile(ta, at, tb, ldb, len, po.add(r * w + j), w, mask);
                        r += tall;
                    }
                    j += cols;
                }
            }
        }
    }

    /// One `R × 8C` tile of [`gemm_axpy`] extended by `len` steps; `a`,
    /// `b`, `out` are already advanced to the tile's first multiplier,
    /// `b` element and output element. With `MASKED` the tile's last
    /// vector covers only the lanes `mask` selects (the row tail); the
    /// other lanes are neither read nor written, and lanes never mix,
    /// so the selected ones hold exactly what a full vector would.
    ///
    /// # Safety
    /// Requires AVX2; `a` valid at `r·at.row + s·at.step`, `b` at
    /// `s·ldb + ..8C` and `out` at `r·ldo + ..8C` (selected lanes only)
    /// for `r < R`, `s < len`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    unsafe fn axpy_tile<const R: usize, const C: usize, const MASKED: bool>(
        a: *const f32,
        at: super::Strides,
        b: *const f32,
        ldb: usize,
        len: usize,
        out: *mut f32,
        ldo: usize,
        mask: __m256i,
    ) {
        let load = |p: *const f32, c: usize| {
            if MASKED && c == C - 1 {
                _mm256_maskload_ps(p.add(8 * c), mask)
            } else {
                _mm256_loadu_ps(p.add(8 * c))
            }
        };
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        for r in 0..R {
            for c in 0..C {
                acc[r][c] = load(out.add(r * ldo), c);
            }
        }
        for s in 0..len {
            let mut vb = [_mm256_setzero_ps(); C];
            for c in 0..C {
                vb[c] = load(b.add(s * ldb), c);
            }
            for r in 0..R {
                let av = *a.add(r * at.row + s * at.step);
                // The zero skip is part of the numerics (`0 · inf`
                // would poison the chain), exactly as in the scalar
                // body.
                if av != 0.0 {
                    let va = _mm256_set1_ps(av);
                    for c in 0..C {
                        acc[r][c] = _mm256_add_ps(acc[r][c], _mm256_mul_ps(va, vb[c]));
                    }
                }
            }
        }
        for r in 0..R {
            for c in 0..C {
                let p = out.add(r * ldo + 8 * c);
                if MASKED && c == C - 1 {
                    _mm256_maskstore_ps(p, mask, acc[r][c]);
                } else {
                    _mm256_storeu_ps(p, acc[r][c]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(len: usize, salt: u32) -> Vec<f32> {
        // Deterministic non-integer data with varied magnitudes.
        (0..len)
            .map(|i| {
                let x = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 8) as f32;
                (x / 65536.0 - 128.0) * 1.001
            })
            .collect()
    }

    /// Runs `f` with SIMD forced off, then (if available) on, and
    /// checks both results agree bit-for-bit.
    fn both_paths<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        force_scalar(true);
        let scalar = f();
        force_scalar(false);
        let dispatched = f();
        assert_eq!(scalar, dispatched, "scalar vs dispatched mismatch");
    }

    #[test]
    fn dot_bit_identical_across_paths_and_tails() {
        for len in [0, 1, 5, 7, 8, 9, 15, 16, 17, 48, 60, 200, 211, 212] {
            let a = vals(len, 1);
            let b = vals(len, 2);
            both_paths(|| dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn reductions_bit_identical_across_paths() {
        for len in [0, 1, 7, 8, 9, 31, 100] {
            let a = vals(len, 5);
            if len > 0 {
                both_paths(|| row_max(&a).to_bits());
            }
        }
    }

    #[test]
    fn elementwise_bit_identical_across_paths() {
        for len in [0, 1, 7, 8, 9, 31, 100] {
            let x = vals(len, 6);
            let y = vals(len, 7);
            let z = vals(len, 8);
            both_paths(|| {
                let mut o = vals(len, 9);
                axpy(&mut o, 0.37, &x);
                add(&mut o, &y);
                scale(&mut o, 1.25);
                gru_candidate(&mut o, &x, &y);
                let mut c = vec![0.0f32; len];
                // Sigmoid-squash one operand so z is in gate range.
                let zg: Vec<f32> = z.iter().map(|&v| crate::sigmoid_scalar(v)).collect();
                gru_combine(&mut c, &o, &zg, &x);
                (
                    o.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                )
            });
        }
    }

    #[test]
    fn row_max_finds_maximum() {
        let mut a = vals(37, 11);
        a[19] = 1.0e9;
        force_scalar(false);
        assert_eq!(row_max(&a), 1.0e9);
        assert_eq!(row_max_scalar(&a), 1.0e9);
        assert_eq!(row_max(&[]), f32::NEG_INFINITY);
    }

    /// Rows of `+0.0`/`-0.0` only: every sign pattern of every length
    /// up to 17 (a full 10-element row among them — eight lanes and a
    /// two-element tail). Both paths must pick the same zero, and it
    /// must be the one `vmaxps` picks.
    #[test]
    fn row_max_sign_of_zero_is_path_independent() {
        let vmaxps = |x: f32, y: f32| if x > y { x } else { y };
        for len in 0..=17usize {
            let rows: Vec<Vec<f32>> = (0..1u32 << len)
                .map(|p| {
                    (0..len)
                        .map(|i| if p >> i & 1 == 1 { -0.0 } else { 0.0 })
                        .collect()
                })
                .collect();
            let run = || {
                rows.iter()
                    .map(|a| row_max(a).to_bits())
                    .collect::<Vec<_>>()
            };
            force_scalar(true);
            let scalar = run();
            force_scalar(false);
            let dispatched = run();
            for ((a, s), d) in rows.iter().zip(&scalar).zip(&dispatched) {
                // `_mm256_max_ps` per lane, the `_mm_max_ps` fold, then
                // `vmaxps(v, running)` over the tail.
                let main = len - len % 8;
                let mut acc = [f32::NEG_INFINITY; 8];
                for c in a[..main].chunks_exact(8) {
                    for (acc_l, &v) in acc.iter_mut().zip(c) {
                        *acc_l = vmaxps(*acc_l, v);
                    }
                }
                let s4: Vec<f32> = (0..4).map(|l| vmaxps(acc[l], acc[l + 4])).collect();
                let lanes = vmaxps(vmaxps(s4[0], s4[1]), vmaxps(s4[2], s4[3]));
                let want = a[main..].iter().fold(lanes, |m, &v| vmaxps(v, m)).to_bits();
                assert_eq!((*s, *d), (want, want), "row {a:?}");
            }
        }
    }
}
