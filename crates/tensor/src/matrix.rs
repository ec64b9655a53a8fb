//! Core dense row-major matrix type.

use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` matrix.
///
/// This is the only tensor type in the workspace: vectors are `1 × n`
/// or `n × 1` matrices, and batched node states are `batch × dim`
/// matrices. Storage is one contiguous allocation, so row slices are
/// plain `&[f32]` and kernels can use `chunks_exact` without
/// indirection.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix where entry `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair, convenient for shape assertions.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {} out of {}", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {} out of {}", r, self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Overwrites every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Resets to all zeros (buffer-reuse idiom for gradient accumulators).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes the buffer in place to `rows × cols` and zeroes every
    /// element, keeping the allocation when capacity suffices (the
    /// scratch-arena idiom: hot loops `resize` a persistent buffer
    /// instead of re-running `Matrix::zeros`).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// [`Matrix::resize`] without the zero-fill: element values are
    /// **unspecified** (stale or zero) and the caller must overwrite
    /// every one. For kernels that write the full output — matmuls,
    /// gathers — this skips a redundant memset on the hot path.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites `self` with `src`'s shape and contents, reusing the
    /// existing allocation when possible (a non-allocating `clone_from`
    /// for scratch buffers).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Overwrites `self` with the contiguous row range
    /// `rows.start..rows.end` of `src`, reusing the allocation — the
    /// view-materialization primitive for kernels that consume a
    /// sub-block of a larger gathered matrix without an intermediate
    /// per-part copy.
    ///
    /// # Panics
    /// Panics if the range exceeds `src`'s rows.
    pub fn copy_rows_from(&mut self, src: &Matrix, rows: std::ops::Range<usize>) {
        assert!(
            rows.start <= rows.end && rows.end <= src.rows,
            "copy_rows_from: range {}..{} out of {}",
            rows.start,
            rows.end,
            src.rows
        );
        let c = src.cols;
        self.rows = rows.end - rows.start;
        self.cols = c;
        self.data.clear();
        self.data
            .extend_from_slice(&src.data[rows.start * c..rows.end * c]);
    }

    /// Reinterprets the matrix with a new shape without copying.
    ///
    /// # Panics
    /// Panics if `rows * cols` differs from the current element count.
    pub fn reshape(self, rows: usize, cols: usize) -> Self {
        assert_eq!(self.data.len(), rows * cols, "reshape: size mismatch");
        Self {
            rows,
            cols,
            data: self.data,
        }
    }

    /// True if any element is NaN or infinite — used by training-loop
    /// invariant checks and failure-injection tests.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn row_accessors() {
        let mut m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.get(1, 0), 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let r = m.reshape(3, 2);
        assert_eq!(r.shape(), (3, 2));
        assert_eq!(r.get(2, 1), 6.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn reshape_size_mismatch_panics() {
        Matrix::zeros(2, 3).reshape(4, 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        Matrix::from_vec(2, 2, vec![0.0; 5]);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_non_finite());
        m.set(1, 1, f32::NAN);
        assert!(m.has_non_finite());
    }

    #[test]
    fn resize_zeroes_and_reshapes_in_place() {
        let mut m = Matrix::full(2, 3, 7.0);
        let cap = m.as_slice().len();
        m.resize(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.len(), cap);
        m.resize(1, 1);
        assert_eq!(m.shape(), (1, 1));
        m.resize(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn resize_for_overwrite_sets_shape_without_clearing() {
        let mut m = Matrix::full(2, 3, 7.0);
        m.resize_for_overwrite(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.len(), 6);
        // Contents are unspecified; only shape and length are promised.
        m.resize_for_overwrite(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.len(), 16);
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let mut dst = Matrix::full(1, 9, 5.0);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn zero_resets_in_place() {
        let mut m = Matrix::full(2, 2, 3.5);
        m.zero();
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }
}
