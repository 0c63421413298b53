//! The dense [`Matrix`] used for weights, distances and successors.

use core::fmt;
use core::ops::{Index, IndexMut};

use crate::NodeId;

/// A dense row-major `n x n`-capable matrix (rows and columns may differ).
///
/// All-pairs shortest path data is inherently dense — the Floyd–Warshall
/// variant in the paper fills every entry — so a flat `Vec` beats any
/// sparse representation here.
///
/// Indexing by `(NodeId, NodeId)` is provided so that routing code reads
/// like the pseudo-code in the paper: `dist[(i, j)]`.
///
/// # Examples
///
/// ```
/// use etx_graph::{Matrix, NodeId};
///
/// let mut m = Matrix::filled(2, 2, 0.0f64);
/// m[(NodeId::new(0), NodeId::new(1))] = 2.5;
/// assert_eq!(m[(NodeId::new(0), NodeId::new(1))], 2.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T> Default for Matrix<T> {
    /// An empty `0 x 0` matrix (grow it with [`Matrix::reset`]).
    fn default() -> Self {
        Matrix { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl<T: Clone> Matrix<T> {
    /// Creates a `rows x cols` matrix with every entry set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix { rows, cols, data: vec![fill; len] }
    }
}

impl<T: Clone> Matrix<T> {
    /// Resizes to `rows x cols` with every entry set to `fill`, reusing
    /// the existing allocation whenever it is large enough.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn reset(&mut self, rows: usize, cols: usize, fill: T) {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(len, fill);
    }

    /// Copies dimensions and entries from `other`, reusing the existing
    /// allocation whenever it is large enough.
    pub fn copy_from(&mut self, other: &Matrix<T>) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clone_from(&other.data);
    }
}

impl<T> Matrix<T> {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrowing accessor; `None` when out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            self.data.get(row * self.cols + col)
        } else {
            None
        }
    }

    /// Mutable accessor; `None` when out of bounds.
    pub fn get_mut(&mut self, row: usize, col: usize) -> Option<&mut T> {
        if row < self.rows && col < self.cols {
            self.data.get_mut(row * self.cols + col)
        } else {
            None
        }
    }

    /// Iterates over a row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> impl Iterator<Item = &T> + '_ {
        assert!(row < self.rows, "row {row} out of bounds ({} rows)", self.rows);
        self.data[row * self.cols..(row + 1) * self.cols].iter()
    }

    /// Borrows one row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row_slice(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of bounds ({} rows)", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows one row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_slice_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row {row} out of bounds ({} rows)", self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Splits the matrix into disjoint mutable blocks of up to
    /// `rows_per_chunk` consecutive rows — the handoff used to compute
    /// independent all-pairs rows on separate threads.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_chunk` is zero.
    pub fn row_chunks_mut(&mut self, rows_per_chunk: usize) -> impl Iterator<Item = &mut [T]> {
        assert!(rows_per_chunk > 0, "rows_per_chunk must be non-zero");
        self.data.chunks_mut(rows_per_chunk * self.cols.max(1))
    }

    /// The full row-major backing slice (`rows * cols` entries) — the
    /// contiguous plane view that gather loops and SoA exporters stream
    /// over without per-row bookkeeping.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The full row-major backing slice, mutably — for kernels that
    /// split it into disjoint row slices.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterates over all `(row, col, &value)` triples in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        self.data.iter().enumerate().map(move |(k, v)| (k / self.cols, k % self.cols, v))
    }

    /// Applies `f` to every element, producing a new matrix.
    #[must_use]
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Matrix<U> {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(f).collect() }
    }

    /// Consumes the matrix and returns the row-major data.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(row < self.rows && col < self.cols, "matrix index ({row},{col}) out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(row < self.rows && col < self.cols, "matrix index ({row},{col}) out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl<T> Index<(NodeId, NodeId)> for Matrix<T> {
    type Output = T;
    fn index(&self, (row, col): (NodeId, NodeId)) -> &T {
        &self[(row.index(), col.index())]
    }
}

impl<T> IndexMut<(NodeId, NodeId)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (NodeId, NodeId)) -> &mut T {
        &mut self[(row.index(), col.index())]
    }
}

impl<T: fmt::Display> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_indexing() {
        let mut m = Matrix::filled(2, 3, 0i32);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m[(1, 2)] = 9;
        assert_eq!(m[(1, 2)], 9);
        assert_eq!(m[(0, 0)], 0);
        assert_eq!(m.get(1, 2), Some(&9));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 3), None);
        *m.get_mut(0, 1).unwrap() = 4;
        assert_eq!(m[(0, 1)], 4);
    }

    #[test]
    fn node_id_indexing() {
        let mut m = Matrix::filled(2, 2, 0.0f64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        m[(a, b)] = 1.5;
        assert_eq!(m[(a, b)], 1.5);
    }

    #[test]
    fn from_vec_row_major() {
        let m = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(m[(0, 0)], 1);
        assert_eq!(m[(0, 1)], 2);
        assert_eq!(m[(1, 0)], 3);
        assert_eq!(m[(1, 1)], 4);
        assert_eq!(m.clone().into_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let m = Matrix::filled(2, 2, 0);
        let _ = m[(2, 0)];
    }

    #[test]
    fn row_iteration() {
        let m = Matrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let row1: Vec<_> = m.row(1).copied().collect();
        assert_eq!(row1, vec![4, 5, 6]);
    }

    #[test]
    fn entries_iteration() {
        let m = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let all: Vec<_> = m.entries().map(|(r, c, v)| (r, c, *v)).collect();
        assert_eq!(all, vec![(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]);
    }

    #[test]
    fn map_preserves_shape() {
        let m = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let d = m.map(|v| *v as f64 * 0.5);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d.rows(), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let s = m.to_string();
        assert!(s.contains('1') && s.contains('4'));
    }
}
