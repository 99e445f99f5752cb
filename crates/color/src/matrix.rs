//! Minimal 3-vector / 3×3-matrix linear algebra.
//!
//! Color space conversions between RGB-with-primaries and CIE XYZ are 3×3
//! linear maps; solving tri-LED drive levels for a target chromaticity is a
//! 3×3 linear solve. This module provides exactly the operations needed,
//! with `f64` throughout so conversions are deterministic across platforms.

/// A column 3-vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3(pub [f64; 3]);

impl Vec3 {
    /// Construct from components.
    pub const fn new(a: f64, b: f64, c: f64) -> Self {
        Vec3([a, b, c])
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3([0.0; 3]);

    /// Component-wise addition.
    pub fn add(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }

    /// Scalar multiplication.
    pub fn scale(self, s: f64) -> Vec3 {
        Vec3([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.0[0] * o.0[0] + self.0[1] * o.0[1] + self.0[2] * o.0[2]
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// `true` if every component is finite.
    pub fn is_finite(self) -> bool {
        self.0.iter().all(|c| c.is_finite())
    }

    /// Largest absolute component difference to `o`.
    pub fn max_abs_diff(self, o: Vec3) -> f64 {
        self.0
            .iter()
            .zip(o.0.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// A 3×3 matrix in row-major order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3(pub [[f64; 3]; 3]);

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);

    /// Build a matrix whose *columns* are the given vectors.
    ///
    /// This is the natural constructor for primary matrices: the columns are
    /// the XYZ coordinates of the R, G and B primaries.
    pub fn from_columns(c0: Vec3, c1: Vec3, c2: Vec3) -> Mat3 {
        Mat3([
            [c0.0[0], c1.0[0], c2.0[0]],
            [c0.0[1], c1.0[1], c2.0[1]],
            [c0.0[2], c1.0[2], c2.0[2]],
        ])
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        let m = &self.0;
        Vec3([
            m[0][0] * v.0[0] + m[0][1] * v.0[1] + m[0][2] * v.0[2],
            m[1][0] * v.0[0] + m[1][1] * v.0[1] + m[1][2] * v.0[2],
            m[2][0] * v.0[0] + m[2][1] * v.0[1] + m[2][2] * v.0[2],
        ])
    }

    /// Matrix–matrix product `self * o`.
    pub fn mul_mat(&self, o: &Mat3) -> Mat3 {
        let mut r = [[0.0; 3]; 3];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.0[i][k] * o.0[k][j]).sum();
            }
        }
        Mat3(r)
    }

    /// Multiply every entry by a scalar.
    pub fn scale(&self, s: f64) -> Mat3 {
        let mut r = self.0;
        for row in r.iter_mut() {
            for cell in row.iter_mut() {
                *cell *= s;
            }
        }
        Mat3(r)
    }

    /// Scale each *column* by the corresponding component of `d`
    /// (i.e. `self * diag(d)`).
    pub fn scale_columns(&self, d: Vec3) -> Mat3 {
        let mut r = self.0;
        for row in r.iter_mut() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell *= d.0[j];
            }
        }
        Mat3(r)
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let m = &self.0;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Inverse via the adjugate. Returns `None` when the matrix is singular
    /// (determinant magnitude below `1e-12`), e.g. degenerate LED primaries.
    pub fn inverse(&self) -> Option<Mat3> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let m = &self.0;
        let inv_det = 1.0 / d;
        let cof = |a: f64, b: f64, c: f64, e: f64| (a * e - b * c) * inv_det;
        Some(Mat3([
            [
                cof(m[1][1], m[1][2], m[2][1], m[2][2]),
                cof(m[0][2], m[0][1], m[2][2], m[2][1]),
                cof(m[0][1], m[0][2], m[1][1], m[1][2]),
            ],
            [
                cof(m[1][2], m[1][0], m[2][2], m[2][0]),
                cof(m[0][0], m[0][2], m[2][0], m[2][2]),
                cof(m[0][2], m[0][0], m[1][2], m[1][0]),
            ],
            [
                cof(m[1][0], m[1][1], m[2][0], m[2][1]),
                cof(m[0][1], m[0][0], m[2][1], m[2][0]),
                cof(m[0][0], m[0][1], m[1][0], m[1][1]),
            ],
        ]))
    }

    /// Solve `self * x = b` for `x`.
    pub fn solve(&self, b: Vec3) -> Option<Vec3> {
        Some(self.inverse()?.mul_vec(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let v = Vec3::new(1.0, -2.5, 3.75);
        assert_eq!(Mat3::IDENTITY.mul_vec(v), v);
        let m = Mat3([[2.0, 1.0, 0.5], [0.0, 3.0, 1.0], [1.0, 0.0, 1.0]]);
        assert_eq!(Mat3::IDENTITY.mul_mat(&m), m);
        assert_eq!(m.mul_mat(&Mat3::IDENTITY), m);
    }

    #[test]
    fn inverse_round_trips() {
        let m = Mat3([[2.0, 1.0, 0.5], [0.0, 3.0, 1.0], [1.0, 0.0, 1.0]]);
        let inv = m.inverse().expect("nonsingular");
        let prod = m.mul_mat(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.0[i][j] - expect).abs() < 1e-12, "{prod:?}");
            }
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat3([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]]);
        assert!(m.inverse().is_none());
        assert!(m.solve(Vec3::new(1.0, 1.0, 1.0)).is_none());
    }

    #[test]
    fn solve_matches_manual_solution() {
        let m = Mat3([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]]);
        let x = m.solve(Vec3::new(6.0, 4.0, 2.0)).unwrap();
        assert!(x.max_abs_diff(Vec3::new(2.0, 2.0, 0.5)) < 1e-12);
    }

    #[test]
    fn det_of_column_matrix() {
        let m = Mat3::from_columns(
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
        );
        assert_eq!(m.det(), 6.0);
    }

    #[test]
    fn scale_columns_is_diag_product() {
        let m = Mat3([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        let d = Vec3::new(2.0, 3.0, 4.0);
        let s = m.scale_columns(d);
        assert_eq!(s.0[0], [2.0, 6.0, 12.0]);
        assert_eq!(s.0[2], [14.0, 24.0, 36.0]);
    }

    #[test]
    fn vector_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a.add(b), Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a.scale(2.0), Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(a.dot(b), 4.0 - 10.0 + 18.0);
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-15);
    }
}
