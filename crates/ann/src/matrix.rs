//! A minimal row-major `f32` matrix with the product kernels backprop
//! needs.
//!
//! The three products — forward `x · w`, weight gradient `xᵀ · δ` and
//! delta propagation `δ · wᵀ` — share one register-tiled GEMM core
//! (`gemm`). The matrices are tiny (the paper's net is 9 × 64 × 42, in
//! batches of 32), so the core blocks for registers, not caches: a 4 × 8
//! tile of accumulators stays live across the whole inner dimension, and
//! the compiler vectorizes the tile without intrinsics. Every output
//! element still sums its terms in ascending order from a fixed start,
//! so each product is bit-identical to a plain per-element loop.

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
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
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
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Copies the given rows into a new matrix (used for minibatching).
    pub(crate) fn gather_rows(&self, indices: &[usize]) -> Matrix {
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
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self × b` — shapes `[m,k] × [k,n] → [m,n]` — written into `out`,
    /// reusing `out`'s buffer: the one forward kernel, used for training
    /// and inference alike.
    ///
    /// Every output element starts from `+0.0` and receives its terms in
    /// ascending-`k` order (see [`gemm`]). Whenever `b` is finite this is
    /// bit-identical to the naive i-k-j loop that skips `a == 0.0` terms
    /// (common after ReLU): for finite weights such a term is a signed
    /// zero, and a `+0.0`-initialized IEEE-754 accumulator is unchanged
    /// bit-for-bit by adding `±0.0`.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub(crate) fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        out.resize(self.rows, b.cols);
        let shape = (self.rows, self.cols, b.cols);
        gemm(
            &self.data,
            (self.cols, 1),
            &b.data,
            shape,
            0.0,
            &mut out.data,
        );
    }

    /// `selfᵀ × b` — shapes `[k,m]ᵀ × [k,n] → [m,n]` without
    /// materializing the transpose. This is the weight-gradient kernel
    /// (`xᵀ × delta`); every element starts from `+0.0`.
    pub(crate) fn t_matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, b.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, b.cols);
        let shape = (self.cols, self.rows, b.cols);
        gemm(
            &self.data,
            (1, self.cols),
            &b.data,
            shape,
            0.0,
            &mut out.data,
        );
        out
    }

    /// `self × bᵀ` — shapes `[m,k] × [n,k]ᵀ → [m,n]`, through a
    /// transposed copy of `b` (one `[n,k]` pass, small beside the
    /// product). This is the delta-propagation kernel (`delta × wᵀ`);
    /// every element starts from [`SUM_START`], so it equals an
    /// `Iterator::sum` dot product bit for bit.
    pub(crate) fn matmul_t(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.cols, "matmul_t shape mismatch");
        let bt = Matrix::from_fn(b.cols, b.rows, |i, j| b.get(j, i));
        let mut out = Matrix::zeros(self.rows, b.rows);
        let shape = (self.rows, self.cols, b.rows);
        gemm(
            &self.data,
            (self.cols, 1),
            &bt.data,
            shape,
            SUM_START,
            &mut out.data,
        );
        out
    }

    /// Adds `row` to every row of `self` (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub(crate) fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for i in 0..self.rows {
            for (v, &b) in self.row_mut(i).iter_mut().zip(row.iter()) {
                *v += b;
            }
        }
    }

    /// Sums each column into a vector (bias-gradient kernel).
    pub(crate) fn column_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i).iter()) {
                *o += v;
            }
        }
        out
    }
}

/// Rows of one accumulator tile.
const MR: usize = 4;
/// Columns of one accumulator tile.
const NR: usize = 8;

/// The value `Iterator::sum` folds an `f32` dot product from in current
/// std (`-0.0`, so that a sum of only `-0.0` terms stays `-0.0`).
const SUM_START: f32 = -0.0;

/// The GEMM core behind all three products:
/// `out[i,j] = init + Σ_k a(i,k) · b[k,j]` for shape `(m, k, n)`, where
/// `a(i,k) = a[i·rs + k·cs]` and `b` and `out` are row-major `[k,n]` and
/// `[m,n]`.
///
/// Rows go in panels of four. Each 4 × 8 block of a panel is one tile of
/// accumulators that stays in registers across the whole `k` loop: a
/// loaded 8-wide `b` row segment feeds four output rows, and an `a`
/// element feeds eight columns. The panel's last `n mod 8` columns run
/// as a scalar tail. The last `m mod 4` rows — among them every
/// single-row product, such as one online decision — run as a plain
/// axpy loop over their row, which does no more multiply-adds than
/// they need. Nothing is copied or allocated.
///
/// Every output element still starts from `init` and adds its `k` terms
/// one at a time in ascending `k`, each a separate multiply and add, so
/// the result is bit-identical to the plain per-element loop however
/// the tiles fall.
fn gemm(
    a: &[f32],
    (rs, cs): (usize, usize),
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    init: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if n == 0 {
        return;
    }
    let full_m = m - m % MR;
    let full_n = n - n % NR;
    for i0 in (0..full_m).step_by(MR) {
        let starts: [usize; MR] = std::array::from_fn(|r| (i0 + r) * rs);
        let a_cols = (0..k).map(|kk| starts.map(|s| a[s + kk * cs]));
        for j0 in (0..full_n).step_by(NR) {
            let b_rows = (0..k).map(|kk| {
                <&[f32; NR]>::try_from(&b[kk * n + j0..kk * n + j0 + NR]).expect("NR-wide")
            });
            let acc = tile(a_cols.clone(), b_rows, init);
            for (r, acc_row) in acc.iter().enumerate() {
                let at = (i0 + r) * n + j0;
                out[at..at + NR].copy_from_slice(acc_row);
            }
        }
        for i in i0..i0 + MR {
            for j in full_n..n {
                let mut acc = init;
                for kk in 0..k {
                    acc += a[i * rs + kk * cs] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
    }
    for i in full_m..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        out_row.fill(init);
        for (kk, b_row) in b.chunks_exact(n).enumerate() {
            let av = a[i * rs + kk * cs];
            for (o, &w) in out_row.iter_mut().zip(b_row) {
                *o += av * w;
            }
        }
    }
}

/// One 4 × 8 tile: `acc[r][c] = init + Σ_k a_cols[k][r] · b_rows[k][c]`,
/// terms in ascending `k`. Constant bounds let the compiler unroll the
/// tile and keep its 32 accumulators in vector registers.
#[inline(always)]
fn tile<'b>(
    a_cols: impl Iterator<Item = [f32; MR]>,
    b_rows: impl Iterator<Item = &'b [f32; NR]>,
    init: f32,
) -> [[f32; NR]; MR] {
    let mut acc = [[init; NR]; MR];
    for (a, b) in a_cols.zip(b_rows) {
        for r in 0..MR {
            for c in 0..NR {
                acc[r][c] += a[r] * b[c];
            }
        }
    }
    acc
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

    /// The pre-tiling forward loop (i-k-j, axpy into a `+0.0` row) with
    /// the `a == 0.0` skip that [`Matrix::matmul_into`]'s doc argues
    /// changes no bit for finite `b`, so one reference checks both.
    fn old_matmul(a: &Matrix, b: &Matrix) -> Matrix {
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

    /// The pre-tiling weight-gradient loop: k-i-j, skipping `a == 0.0`.
    fn old_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, m, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            for i in 0..m {
                let av = a.get(kk, i);
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

    /// The pre-tiling delta-propagation loop: one `Iterator::sum` dot
    /// product per element.
    fn old_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum()
        })
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (idx, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what} drifted at {idx}: {x} vs {y}"
            );
        }
    }

    /// A matrix mixing ordinary values, ReLU zeros of both signs and
    /// subnormals of both signs, with some rows entirely `±0.0`.
    fn awkward_matrix(rows: usize, cols: usize, rng: &mut SimRng) -> Matrix {
        let mut m = Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0u32..8) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => {
                let sign = if rng.gen_range(0u32..2) == 0 {
                    1.0
                } else {
                    -1.0
                };
                sign * f32::from_bits(rng.gen_range(1u32..0x0080_0000))
            }
            _ => rng.gen_range(-3.0f32..3.0),
        });
        for i in 0..rows {
            match rng.gen_range(0u32..8) {
                0 => m.row_mut(i).fill(0.0),
                1 => m.row_mut(i).fill(-0.0),
                _ => {}
            }
        }
        m
    }

    /// All three products through the tiled core are **bit-identical**
    /// to the loops they replaced, on random shapes from 1 to 70 per
    /// side (every tile-edge combination) and awkward values.
    #[test]
    fn products_are_bit_identical_to_the_pre_tiling_loops() {
        let mut rng = SimRng::seed_from_u64(305);
        let mut out = Matrix::zeros(0, 0);
        for _ in 0..48 {
            let m = rng.gen_range(1usize..71);
            let k = rng.gen_range(1usize..71);
            let n = rng.gen_range(1usize..71);
            let a = awkward_matrix(m, k, &mut rng);
            let b = awkward_matrix(k, n, &mut rng);
            a.matmul_into(&b, &mut out);
            assert_bits_eq(&out, &old_matmul(&a, &b), "matmul_into");
            let at = awkward_matrix(k, m, &mut rng);
            assert_bits_eq(&at.t_matmul(&b), &old_t_matmul(&at, &b), "t_matmul");
            let bn = awkward_matrix(n, k, &mut rng);
            assert_bits_eq(&a.matmul_t(&bn), &old_matmul_t(&a, &bn), "matmul_t");
        }
    }

    /// Empty inner or output dimensions neither panic nor leave a
    /// stale element behind.
    #[test]
    fn products_handle_empty_dimensions() {
        let mut out = Matrix::from_fn(2, 2, |_, _| 9.0);
        Matrix::zeros(5, 0).matmul_into(&Matrix::zeros(0, 3), &mut out);
        assert_eq!(out, Matrix::zeros(5, 3));
        Matrix::zeros(5, 2).matmul_into(&Matrix::zeros(2, 0), &mut out);
        assert_eq!(out, Matrix::zeros(5, 0));
        assert_eq!(
            Matrix::zeros(0, 5).t_matmul(&Matrix::zeros(0, 3)),
            Matrix::zeros(5, 3)
        );
    }

    /// The delta-propagation product starts where `Iterator::sum` does:
    /// a row of only `-0.0` products sums to `-0.0`.
    #[test]
    fn matmul_t_starts_where_iterator_sum_does() {
        assert_eq!(
            SUM_START.to_bits(),
            std::iter::empty::<f32>().sum::<f32>().to_bits()
        );
        let a = Matrix::from_fn(5, 9, |_, _| -0.0);
        let b = Matrix::from_fn(11, 9, |i, j| (i + j + 1) as f32);
        let got = a.matmul_t(&b);
        assert!(got
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_bits_eq(&got, &old_matmul_t(&a, &b), "matmul_t");
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
