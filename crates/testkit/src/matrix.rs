//! The dense reference solver: a row-major matrix with Gaussian
//! elimination and partial pivoting.
//!
//! The shipped solvers factor their nodal systems with
//! [`rcs_numeric::SparseSymbolic`], whose elimination schedule replays
//! these loops; tests solve the same systems here and compare.

use rcs_numeric::NumericError;

/// A dense row-major `rows x cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use rcs_testkit::Matrix;
///
/// let mut a = Matrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// assert_eq!(a.solve(&[2.0, 8.0])?, vec![1.0, 2.0]);
/// # Ok::<(), rcs_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect())
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// The matrix is consumed logically (a working copy is made), so `self`
    /// can be reused.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for a non-square matrix
    /// or wrong-length `b`, and [`NumericError::SingularMatrix`] if a pivot
    /// collapses below `1e-300`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(NumericError::DimensionMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // partial pivot
            let mut pivot_row = col;
            let mut pivot_mag = a[col * n + col].abs();
            for r in (col + 1)..n {
                let mag = a[r * n + col].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(NumericError::SingularMatrix { pivot: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for c in (col + 1)..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // back substitution
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in (col + 1)..n {
                acc -= a[col * n + c] * x[c];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    /// Random diagonally dominant matrix: always solvable, well
    /// conditioned.
    fn dominant_matrix(n: usize, seed: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = seed[k % seed.len()] % 1.0;
                    m[(i, j)] = v;
                    row_sum += v.abs();
                    k += 1;
                }
            }
            m[(i, i)] = row_sum + 1.0 + seed[k % seed.len()].abs() % 3.0;
            k += 1;
        }
        m
    }

    /// solve() really solves: A * x equals b to high precision.
    #[test]
    fn solve_satisfies_the_system() {
        check("solve_satisfies_the_system", |g| {
            let n = g.draw(1usize..12);
            let seed = g.vec_f64(-10.0..10.0, 16);
            let b_seed = g.vec_f64(-100.0..100.0, 12);
            let a = dominant_matrix(n, &seed);
            let b: Vec<f64> = (0..n).map(|i| b_seed[i % b_seed.len()]).collect();
            let x = a.solve(&b).unwrap();
            let back = a.mul_vec(&x).unwrap();
            let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (got, want) in back.iter().zip(&b) {
                assert!((got - want).abs() < 1e-9 * scale, "{got} vs {want}");
            }
        });
    }

    /// Solving with a scaled RHS scales the solution (linearity).
    #[test]
    fn solve_is_linear() {
        check("solve_is_linear", |g| {
            let n = g.draw(1usize..10);
            let seed = g.vec_f64(-10.0..10.0, 16);
            let k = g.draw(0.1..50.0f64);
            let a = dominant_matrix(n, &seed);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).sin()).collect();
            let x1 = a.solve(&b).unwrap();
            let b2: Vec<f64> = b.iter().map(|v| v * k).collect();
            let x2 = a.solve(&b2).unwrap();
            for (u, v) in x1.iter().zip(&x2) {
                assert!((v - u * k).abs() < 1e-8 * k.max(1.0) * u.abs().max(1.0));
            }
        });
    }

    #[test]
    fn solves_hand_checked_3x3() {
        let mut a = Matrix::zeros(3, 3);
        let vals = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]];
        for (i, row) in vals.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                a[(i, j)] = *v;
            }
        }
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        // classic example: x = 2, y = 3, z = -1
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let b = Matrix::zeros(2, 2);
        assert!(matches!(
            b.solve(&[1.0]),
            Err(NumericError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn mul_vec_round_trip() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = ((i * 3 + j) as f64).sin() + if i == j { 4.0 } else { 0.0 };
            }
        }
        let x = [1.0, -2.0, 0.5];
        let b = a.mul_vec(&x).unwrap();
        let back = a.solve(&b).unwrap();
        for (got, want) in back.iter().zip(x.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "matrix index out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
