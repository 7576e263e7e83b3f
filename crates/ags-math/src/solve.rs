//! Small dense linear solvers with `f64` accumulation.
//!
//! The Gauss–Newton steps inside the trackers produce 6×6 normal equations
//! `(JᵀJ + λI) δ = Jᵀr`. These systems are tiny but can be poorly conditioned,
//! so the solvers here accumulate in `f64` regardless of the `f32` interface.

/// Error returned when a linear system cannot be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is singular (or not positive definite for Cholesky).
    Singular,
    /// Inputs had inconsistent dimensions.
    DimensionMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular or not positive definite"),
            SolveError::DimensionMismatch => write!(f, "inconsistent matrix dimensions"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves `A x = b` for symmetric positive definite `A` (row-major, `n*n`)
/// using Cholesky decomposition.
///
/// # Errors
///
/// Returns [`SolveError::Singular`] when `A` is not positive definite and
/// [`SolveError::DimensionMismatch`] when slice lengths disagree.
pub fn solve_spd(a: &[f32], b: &[f32], n: usize) -> Result<Vec<f32>, SolveError> {
    if a.len() != n * n || b.len() != n {
        return Err(SolveError::DimensionMismatch);
    }
    // Cholesky factorisation A = L Lᵀ in f64.
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j] as f64;
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(SolveError::Singular);
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    // Forward substitution: L y = b.
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut sum = b[i] as f64;
        for k in 0..i {
            sum -= l[i * n + k] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    Ok(x.into_iter().map(|v| v as f32).collect())
}

/// Accumulator for normal equations `JᵀJ δ = Jᵀr` of a fixed dimension.
///
/// Rows are added one at a time; [`NormalEquations::solve`] applies
/// Levenberg-Marquardt damping before solving.
#[derive(Debug, Clone)]
pub struct NormalEquations {
    n: usize,
    jtj: Vec<f64>,
    jtr: Vec<f64>,
    rows: usize,
    residual_sq: f64,
}

impl NormalEquations {
    /// Creates an empty system of dimension `n`.
    pub fn new(n: usize) -> Self {
        Self { n, jtj: vec![0.0; n * n], jtr: vec![0.0; n], rows: 0, residual_sq: 0.0 }
    }

    /// Adds one residual row with Jacobian `jac` (length `n`), residual `r`
    /// and weight `w`.
    ///
    /// # Panics
    ///
    /// Panics when `jac.len() != n`.
    pub fn add_row(&mut self, jac: &[f32], r: f32, w: f32) {
        assert_eq!(jac.len(), self.n, "jacobian row length mismatch");
        let wd = w as f64;
        let rd = r as f64;
        for i in 0..self.n {
            let ji = jac[i] as f64;
            self.jtr[i] += wd * ji * rd;
            for (j, &jj) in jac.iter().enumerate().take(self.n).skip(i) {
                self.jtj[i * self.n + j] += wd * ji * jj as f64;
            }
        }
        self.rows += 1;
        self.residual_sq += wd * rd * rd;
    }

    /// Number of accumulated rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sum of weighted squared residuals.
    pub fn residual_sq(&self) -> f64 {
        self.residual_sq
    }

    /// Resets the accumulator to an empty system.
    pub fn clear(&mut self) {
        self.jtj.iter_mut().for_each(|v| *v = 0.0);
        self.jtr.iter_mut().for_each(|v| *v = 0.0);
        self.rows = 0;
        self.residual_sq = 0.0;
    }

    /// Solves `(JᵀJ + λ diag(JᵀJ)) δ = Jᵀr`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when the damped system is still not
    /// positive definite (e.g. no rows were added).
    pub fn solve(&self, lambda: f32) -> Result<Vec<f32>, SolveError> {
        let n = self.n;
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i..n {
                let v = self.jtj[i * n + j] as f32;
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        for i in 0..n {
            let d = a[i * n + i];
            // Marquardt scaling with an absolute floor keeps ill-observed
            // directions bounded instead of exploding.
            a[i * n + i] = d + lambda * d.max(1e-6);
        }
        let b: Vec<f32> = self.jtr.iter().map(|&v| v as f32).collect();
        solve_spd(&a, &b, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_solves_known_system() {
        // A = [[4, 1], [1, 3]], b = [1, 2] -> x = [1/11, 7/11]
        let a = [4.0, 1.0, 1.0, 3.0];
        let b = [1.0, 2.0];
        let x = solve_spd(&a, &b, 2).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-5);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-5);
    }

    #[test]
    fn spd_rejects_indefinite() {
        let a = [1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(solve_spd(&a, &[1.0, 1.0], 2), Err(SolveError::Singular));
    }

    #[test]
    fn spd_rejects_bad_dims() {
        assert_eq!(solve_spd(&[1.0], &[1.0, 2.0], 2), Err(SolveError::DimensionMismatch));
    }

    #[test]
    fn normal_equations_recover_line_fit() {
        // Fit y = 2x + 1 from noiseless samples: delta should solve exactly.
        let mut ne = NormalEquations::new(2);
        for i in 0..10 {
            let x = i as f32 * 0.5;
            let y = 2.0 * x + 1.0;
            ne.add_row(&[x, 1.0], y, 1.0);
        }
        assert_eq!(ne.rows(), 10);
        let sol = ne.solve(0.0).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-4);
        assert!((sol[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normal_equations_empty_is_singular() {
        let ne = NormalEquations::new(3);
        assert!(ne.solve(0.0).is_err());
    }

    #[test]
    fn damping_shrinks_step() {
        let mut ne = NormalEquations::new(1);
        ne.add_row(&[1.0], 1.0, 1.0);
        let undamped = ne.solve(0.0).unwrap()[0];
        let damped = ne.solve(1.0).unwrap()[0];
        assert!(damped.abs() < undamped.abs());
    }

    #[test]
    fn weights_scale_influence() {
        let mut ne = NormalEquations::new(1);
        // Two conflicting observations; the heavier one dominates.
        ne.add_row(&[1.0], 1.0, 10.0);
        ne.add_row(&[1.0], 0.0, 1.0);
        let x = ne.solve(0.0).unwrap()[0];
        assert!(x > 0.8 && x < 1.0);
    }
}
