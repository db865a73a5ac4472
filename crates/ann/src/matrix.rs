//! A minimal row-major `f32` matrix with the product kernels backprop
//! needs.
//!
//! The matrices involved here are tiny (the paper's net is 9 × 64 × 42),
//! so the kernels favour clarity and cache-friendly i-k-j loop order over
//! blocking or SIMD intrinsics; the compiler auto-vectorizes the inner
//! loops.

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds from row slices (all rows must share a length).
    ///
    /// # Panics
    ///
    /// Panics on ragged input or zero rows.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Copies the given rows into a new matrix (used for minibatching).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Reshapes in place to `rows × cols`, reusing the backing buffer.
    ///
    /// Existing contents are unspecified afterwards (the kernels that use
    /// this overwrite every element). Grows the buffer only when the new
    /// shape needs more capacity than any earlier shape did, so a warm
    /// scratch matrix resizes without allocating.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self × b` — shapes `[m,k] × [k,n] → [m,n]` — written into `out`,
    /// reusing `out`'s buffer: the one forward kernel, used for training
    /// and inference alike.
    ///
    /// Walks `b` row-by-row and accumulates `a[i,k] · b[k,·]` into the
    /// output row, so every output element receives its terms in
    /// ascending-`k` order. Whenever `b` is finite this is bit-identical
    /// to the naive i-k-j loop that skips `a == 0.0` terms (common after
    /// ReLU): for finite weights such a term is a signed zero, and a
    /// `+0.0`-initialized IEEE-754 accumulator is unchanged bit-for-bit by
    /// adding `±0.0`. The inner loop has no per-element branch and runs
    /// across the contiguous output row, so the compiler vectorizes it.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, b.cols);
        out.resize(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            out_row.fill(0.0);
            for (kk, &a) in a_row.iter().enumerate() {
                let b_row = &b.data[kk * n..(kk + 1) * n];
                for (o, &w) in out_row.iter_mut().zip(b_row) {
                    *o += a * w;
                }
            }
        }
    }

    /// `selfᵀ × other` — shapes `[k,m]ᵀ × [k,n] → [m,n]` without
    /// materializing the transpose. This is the weight-gradient kernel
    /// (`xᵀ × delta`).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let a_row = self.row(kk);
            let b_row = other.row(kk);
            for (i, &a) in a_row.iter().enumerate().take(m) {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self × otherᵀ` — shapes `[m,k] × [n,k]ᵀ → [m,n]` without
    /// materializing the transpose. This is the delta-propagation kernel
    /// (`delta × wᵀ`).
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, _k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate().take(n) {
                let b_row = other.row(j);
                *o = a_row.iter().zip(b_row.iter()).map(|(&a, &b)| a * b).sum();
            }
        }
        out
    }

    /// Adds `row` to every row of `self` (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for i in 0..self.rows {
            for (v, &b) in self.row_mut(i).iter_mut().zip(row.iter()) {
                *v += b;
            }
        }
    }

    /// Sums each column into a vector (bias-gradient kernel).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng, RngCore, SimRng};

    /// `a × b` through the kernel into a fresh matrix.
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(b, &mut out);
        out
    }

    fn approx(a: &Matrix, b: &Matrix, eps: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= eps)
    }

    #[test]
    fn constructors_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        let z = Matrix::zeros(2, 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f32);
        assert_eq!(f.get(1, 1), 11.0);
    }

    #[test]
    #[should_panic(expected = "shape/data length mismatch")]
    fn from_vec_validates_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_validates_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.column_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn scale_multiplies_elements() {
        let mut m = Matrix::from_rows(&[&[1.0, -2.0]]);
        m.scale(0.5);
        assert_eq!(m.as_slice(), &[0.5, -1.0]);
    }

    #[test]
    fn gather_rows_copies_selected() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g, Matrix::from_rows(&[&[3.0], &[1.0], &[3.0]]));
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut impl RngCore) -> Matrix {
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-3.0f32..3.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// t_matmul(a, b) equals transpose(a).matmul(b).
    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = SimRng::seed_from_u64(301);
        for _ in 0..64 {
            let a = random_matrix(4, 3, &mut rng);
            let b = random_matrix(4, 5, &mut rng);
            let at = Matrix::from_fn(3, 4, |i, j| a.get(j, i));
            assert!(approx(&a.t_matmul(&b), &matmul(&at, &b), 1e-4));
        }
    }

    /// matmul_t(a, b) equals a.matmul(transpose(b)).
    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = SimRng::seed_from_u64(302);
        for _ in 0..64 {
            let a = random_matrix(4, 3, &mut rng);
            let b = random_matrix(5, 3, &mut rng);
            let bt = Matrix::from_fn(3, 5, |i, j| b.get(j, i));
            assert!(approx(&a.matmul_t(&b), &matmul(&a, &bt), 1e-4));
        }
    }

    /// The kernel must be **bit-identical** to the naive i-k-j loop with
    /// the `a == 0.0` skip — training determinism and every trained
    /// weight depend on it. Random shapes with ReLU-style zeros on both
    /// sides, through one warm output buffer reused across shapes.
    #[test]
    fn matmul_is_bit_identical_to_naive_reference() {
        fn naive(a: &Matrix, b: &Matrix) -> Matrix {
            let (m, k, n) = (a.rows(), a.cols(), b.cols());
            let mut out = Matrix::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    let av = a.get(i, kk);
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out.set(i, j, out.get(i, j) + av * b.get(kk, j));
                    }
                }
            }
            out
        }
        let mut rng = SimRng::seed_from_u64(304);
        let mut out = Matrix::zeros(0, 0);
        for _ in 0..64 {
            let m = rng.gen_range(1usize..9);
            let k = rng.gen_range(1usize..9);
            let n = rng.gen_range(1usize..11);
            let sparse = |rng: &mut SimRng| {
                if rng.gen_range(0u32..3) == 0 {
                    0.0
                } else {
                    rng.gen_range(-3.0f32..3.0)
                }
            };
            let a = Matrix::from_vec(m, k, (0..m * k).map(|_| sparse(&mut rng)).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|_| sparse(&mut rng)).collect());
            a.matmul_into(&b, &mut out);
            let reference = naive(&a, &b);
            assert_eq!(
                (out.rows(), out.cols()),
                (reference.rows(), reference.cols())
            );
            for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul drifted from reference");
            }
        }
    }

    /// (a·b)·c == a·(b·c) within float tolerance.
    #[test]
    fn matmul_associative() {
        let mut rng = SimRng::seed_from_u64(303);
        for _ in 0..64 {
            let a = random_matrix(2, 3, &mut rng);
            let b = random_matrix(3, 4, &mut rng);
            let c = random_matrix(4, 2, &mut rng);
            let l = matmul(&matmul(&a, &b), &c);
            let r = matmul(&a, &matmul(&b, &c));
            assert!(approx(&l, &r, 1e-3));
        }
    }
}
