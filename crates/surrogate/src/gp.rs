//! Gaussian-process regression with marginal-likelihood hyperparameter
//! fitting.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::Rng;

use crate::kernel::{Kernel, KernelKind};
use crate::linalg::{LinalgError, Matrix};

/// Errors from Gaussian-process fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpError {
    /// No training data was supplied.
    EmptyTrainingSet,
    /// Input feature vectors had inconsistent dimension.
    DimensionMismatch {
        /// Expected feature dimension.
        expected: usize,
        /// Offending dimension.
        got: usize,
    },
    /// The kernel matrix could not be factorized even at maximum jitter.
    Factorization(LinalgError),
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::EmptyTrainingSet => write!(f, "empty training set"),
            GpError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {got}"
                )
            }
            GpError::Factorization(e) => write!(f, "kernel factorization failed: {e}"),
        }
    }
}

impl std::error::Error for GpError {}

/// Identity of one Cholesky factor lineage: every from-scratch
/// factorization takes a fresh value, row appends keep it. Values are
/// drawn from a process-wide counter and a clone draws its own, so two
/// GPs never share one — a [`PredictionMemo`] cannot be replayed against
/// a factor it was not solved on.
#[derive(Debug)]
struct FactorGeneration(u64);

impl FactorGeneration {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        FactorGeneration(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for FactorGeneration {
    /// A clone may grow its factor differently from the original.
    fn clone(&self) -> Self {
        FactorGeneration::fresh()
    }
}

/// A Gaussian-process regressor over `[0, 1]^d` features.
///
/// Targets are standardized internally (zero mean, unit variance), and
/// kernel hyperparameters (length scale, signal variance, noise) are
/// selected by random multi-start search maximizing the log marginal
/// likelihood — cheap, dependency-free, and entirely adequate for the
/// few-hundred-point training sets a co-optimization run produces.
///
/// The Cholesky factor `L` changes in two ways only: appended rows
/// ([`GaussianProcess::fit_incremental`], [`GaussianProcess::hallucinate`])
/// leave its leading block bit-for-bit untouched, while a from-scratch
/// rebuild (any fit, or the jitter-ladder fallback of an append) replaces
/// it and starts a new factor generation. [`PredictionMemo`] relies on
/// exactly this: it keeps its solve across appends and restarts it from
/// zero after a rebuild.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kind: KernelKind,
    dim: usize,
    kernel: Kernel,
    noise: f64,
    x: Vec<Vec<f64>>,
    /// Standardized targets (including hallucinated ones).
    y_norm: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    chol: Option<Matrix>,
    alpha: Vec<f64>,
    generation: FactorGeneration,
}

/// One candidate's memoized prediction state for
/// [`GaussianProcess::predict_with`]: the kernel row `k(x_i, x)` and the
/// forward solve `v = L⁻¹k` over the training points seen so far, tagged
/// with the factor generation they were solved against. Whether the memo
/// is still valid is the GP's decision, not the caller's.
#[derive(Debug, Clone)]
pub struct PredictionMemo<'a> {
    x: &'a [f64],
    row: Vec<f64>,
    v: Vec<f64>,
    generation: u64,
}

impl<'a> PredictionMemo<'a> {
    /// An empty memo for predictions at `x`.
    pub fn new(x: &'a [f64]) -> Self {
        PredictionMemo {
            x,
            row: Vec::new(),
            v: Vec::new(),
            generation: 0,
        }
    }
}

impl GaussianProcess {
    /// Creates an unfitted GP for `dim`-dimensional features.
    pub fn new(kind: KernelKind, dim: usize) -> Self {
        GaussianProcess {
            kind,
            dim,
            kernel: Kernel::new(kind, 0.3, 1.0),
            noise: 1e-4,
            x: Vec::new(),
            y_norm: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
            chol: None,
            alpha: Vec::new(),
            generation: FactorGeneration::fresh(),
        }
    }

    /// Number of training points currently absorbed.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the GP has no training data.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Kernel currently in use (hyperparameters readable through its
    /// accessors) — what a checkpoint needs to reproduce this fit.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Observation-noise/jitter level of the current factorization.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    fn standardize(&mut self, ys: &[f64]) {
        let n = ys.len() as f64;
        self.y_mean = ys.iter().sum::<f64>() / n;
        let var = ys.iter().map(|y| (y - self.y_mean).powi(2)).sum::<f64>() / n;
        self.y_std = var.sqrt().max(1e-12);
        self.y_norm = ys.iter().map(|y| (y - self.y_mean) / self.y_std).collect();
    }

    /// Full factorization of the current `(x, kernel, noise)` state with
    /// jitter escalation, recomputing `alpha` against `y_norm`. On success
    /// the factor starts a new generation (invalidating every
    /// [`PredictionMemo`]); on failure nothing but `x`/`y_norm` (which the
    /// caller set) differs from before the call.
    fn refactor(&mut self) -> Result<(), GpError> {
        let mut jitter = self.noise;
        for _ in 0..8 {
            let k = self.kernel_matrix(&self.kernel, jitter);
            match k.cholesky() {
                Ok(l) => {
                    let mut alpha = l.solve_lower(&self.y_norm);
                    alpha = l.solve_lower_transpose(&alpha);
                    self.chol = Some(l);
                    self.alpha = alpha;
                    self.noise = jitter;
                    self.generation = FactorGeneration::fresh();
                    return Ok(());
                }
                Err(_) => jitter = (jitter * 10.0).max(1e-8),
            }
        }
        Err(GpError::Factorization(LinalgError::NotPositiveDefinite {
            pivot: 0,
        }))
    }

    fn validate(&self, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
        if xs.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        if let Some(bad) = xs.iter().find(|x| x.len() != self.dim) {
            return Err(GpError::DimensionMismatch {
                expected: self.dim,
                got: bad.len(),
            });
        }
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        Ok(())
    }

    fn kernel_matrix(&self, kernel: &Kernel, noise: f64) -> Matrix {
        let n = self.x.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.eval(&self.x[i], &self.x[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += noise;
        }
        k
    }

    fn log_marginal(&self, kernel: &Kernel, noise: f64, y: &[f64]) -> Option<f64> {
        let k = self.kernel_matrix(kernel, noise);
        let l = k.cholesky().ok()?;
        let mut alpha = l.solve_lower(y);
        alpha = l.solve_lower_transpose(&alpha);
        let fit: f64 = y.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let n = y.len() as f64;
        Some(-0.5 * fit - 0.5 * l.cholesky_log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln())
    }

    /// Fits the GP to `(xs, ys)`, selecting hyperparameters by random
    /// multi-start maximum marginal likelihood.
    ///
    /// # Errors
    ///
    /// Returns an error when `xs` is empty, dimensions mismatch, or no
    /// hyperparameter setting yields a factorizable kernel matrix.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> Result<(), GpError> {
        self.validate(xs, ys)?;
        self.x = xs.to_vec();
        self.standardize(ys);
        let y_norm = self.y_norm.clone();

        // Multi-start hyperparameter search.
        let mut best: Option<(f64, Kernel, f64)> = None;
        let consider = |ls: f64, var: f64, noise: f64, gp: &GaussianProcess| {
            let kernel = Kernel::new(gp.kind, ls, var);
            gp.log_marginal(&kernel, noise, &y_norm)
                .map(|lml| (lml, kernel, noise))
        };
        // Deterministic coarse grid plus random refinement.
        let mut candidates: Vec<(f64, f64, f64)> = Vec::new();
        for &ls in &[0.05, 0.1, 0.2, 0.4, 0.8, 1.6] {
            for &noise in &[1e-6, 1e-4, 1e-2] {
                candidates.push((ls, 1.0, noise));
            }
        }
        for _ in 0..24 {
            let ls = 10f64.powf(rng.gen_range(-1.6..0.4));
            let var = 10f64.powf(rng.gen_range(-0.5..0.7));
            let noise = 10f64.powf(rng.gen_range(-6.0..-1.0));
            candidates.push((ls, var, noise));
        }
        for (ls, var, noise) in candidates {
            if let Some(cand) = consider(ls, var, noise, self) {
                if best.as_ref().is_none_or(|(b, _, _)| cand.0 > *b) {
                    best = Some(cand);
                }
            }
        }
        let (_, kernel, noise) =
            best.ok_or(GpError::Factorization(LinalgError::NotPositiveDefinite {
                pivot: 0,
            }))?;
        self.kernel = kernel;
        self.noise = noise;

        // Final factorization with jitter escalation for numerical safety.
        self.refactor()
    }

    /// Fits the GP to `(xs, ys)` with **fixed** hyperparameters,
    /// consuming no randomness: no marginal-likelihood search runs, only
    /// target standardization and one factorization through the same
    /// jitter-escalation ladder as [`GaussianProcess::fit`].
    ///
    /// Together with [`GaussianProcess::fit_incremental`] this makes
    /// surrogate updates reproducible across checkpoint/resume: a
    /// resumed run rebuilds the factor from the stored hyperparameters
    /// and lands bit-identical to the incrementally grown one (row
    /// appends use exactly the scratch factorization's operation order).
    ///
    /// # Errors
    ///
    /// Returns an error when `xs` is empty, dimensions mismatch, or the
    /// kernel matrix cannot be factorized even at maximum jitter.
    pub fn fit_with_hypers(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        length_scale: f64,
        variance: f64,
        noise: f64,
    ) -> Result<(), GpError> {
        self.validate(xs, ys)?;
        self.x = xs.to_vec();
        self.standardize(ys);
        self.kernel = Kernel::new(self.kind, length_scale, variance);
        self.noise = noise;
        self.refactor()
    }

    /// Extends an already-fitted GP with additional trailing samples
    /// without re-selecting hyperparameters and without consuming
    /// randomness. The Cholesky factor grows by one appended row per new
    /// point (O(n²) instead of O(n³) per sample); targets are
    /// re-standardized and `alpha` recomputed against the full vector
    /// (they are cheap and depend on the scalarization weights, which
    /// change every call).
    ///
    /// `xs[..self.len()]` must be the points already absorbed, in order.
    /// If a row append hits a non-positive pivot, the factor is rebuilt
    /// from scratch through the jitter ladder — exactly what a
    /// from-scratch [`GaussianProcess::fit_with_hypers`] at the same
    /// hyperparameters would do, so both paths stay bit-identical.
    ///
    /// # Errors
    ///
    /// Returns an error when `xs` is empty, dimensions mismatch, or the
    /// extended kernel matrix cannot be factorized even at maximum
    /// jitter.
    pub fn fit_incremental(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
        self.validate(xs, ys)?;
        let n0 = self.x.len();
        assert!(
            xs.len() >= n0,
            "fit_incremental cannot shrink the training set"
        );
        let (ls, var) = (self.kernel.length_scale(), self.kernel.variance());

        let mut factor = self.chol.take();
        let mut appended = factor.as_ref().is_some_and(|l| l.rows() == n0);
        if appended {
            let l = factor.as_mut().expect("factor present on append path");
            for x in &xs[n0..] {
                let kx: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(x, xi)).collect();
                let d = self.kernel.eval(x, x) + self.noise;
                if l.cholesky_append_row(&kx, d).is_err() {
                    appended = false;
                    break;
                }
                self.x.push(x.clone());
            }
        }
        if appended {
            self.standardize(ys);
            let l = factor.as_ref().expect("factor present on append path");
            let mut alpha = l.solve_lower(&self.y_norm);
            alpha = l.solve_lower_transpose(&alpha);
            self.chol = factor;
            self.alpha = alpha;
            Ok(())
        } else {
            // Non-positive pivot (or no factor yet): a from-scratch
            // ladder at the stored hyperparameters, as a resumed run
            // would perform.
            self.fit_with_hypers(xs, ys, ls, var, self.noise)
        }
    }

    /// Posterior mean and variance at `x` (in original target units).
    ///
    /// For an unfitted GP returns the prior `(0, kernel variance)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_with(&mut PredictionMemo::new(x))
    }

    /// [`GaussianProcess::predict`] at the memo's point, reusing and
    /// extending the memo's kernel row and forward solve: only training
    /// points appended since the memo was last used are evaluated and
    /// solved for (O(n) instead of O(n²)), unless the factor was rebuilt
    /// in between, in which case the memo starts over. Bitwise identical
    /// to a fresh `predict` either way.
    ///
    /// # Panics
    ///
    /// Panics if the memo's point does not have `self.dim()` entries.
    pub fn predict_with(&self, memo: &mut PredictionMemo<'_>) -> (f64, f64) {
        let x = memo.x;
        assert_eq!(x.len(), self.dim, "prediction dimension mismatch");
        let Some(l) = &self.chol else {
            return (
                self.y_mean,
                self.kernel.variance() * self.y_std * self.y_std,
            );
        };
        if memo.generation != self.generation.0 {
            memo.row.clear();
            memo.v.clear();
            memo.generation = self.generation.0;
        }
        for xi in &self.x[memo.row.len()..] {
            memo.row.push(self.kernel.eval(xi, x));
        }
        l.solve_lower_extend(&memo.row, &mut memo.v);
        let mean_norm: f64 = memo.row.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let var_norm = (self.kernel.eval(x, x) + self.noise
            - memo.v.iter().map(|u| u * u).sum::<f64>())
        .max(0.0);
        (
            mean_norm * self.y_std + self.y_mean,
            var_norm * self.y_std * self.y_std,
        )
    }

    /// Adds a hallucinated observation (kriging believer) without
    /// refitting hyperparameters. Used for batch acquisition.
    ///
    /// Grows the existing Cholesky factor by one appended row (O(n²));
    /// the append uses the scratch factorization's exact operation
    /// order, so the grown factor is bit-identical to the full
    /// refactorization this method used to perform. Falls back to the
    /// full jitter ladder when there is no factor yet or the extension
    /// is not positive definite; only that fallback starts a new factor
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns an error if the augmented kernel matrix cannot be
    /// factorized. The GP is then left exactly as before the call.
    pub fn hallucinate(&mut self, x: Vec<f64>, y: f64) -> Result<(), GpError> {
        if x.len() != self.dim {
            return Err(GpError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        let appended = match self.chol.as_mut() {
            Some(l) if l.rows() == self.x.len() => {
                let kx: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(&x, xi)).collect();
                let d = self.kernel.eval(&x, &x) + self.noise;
                l.cholesky_append_row(&kx, d).is_ok()
            }
            _ => false,
        };
        self.x.push(x);
        self.y_norm.push((y - self.y_mean) / self.y_std);
        if appended {
            let l = self.chol.as_ref().expect("factor present on append path");
            let mut alpha = l.solve_lower(&self.y_norm);
            alpha = l.solve_lower_transpose(&alpha);
            self.alpha = alpha;
            return Ok(());
        }
        self.refactor().map_err(|_| {
            // A failed append and a failed ladder both leave the factor,
            // alpha and noise untouched: dropping the point restores the
            // pre-call state.
            self.x.pop();
            self.y_norm.pop();
            GpError::Factorization(LinalgError::NotPositiveDefinite {
                pivot: self.x.len(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn interpolates_training_points() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 0.15, "mean {m} vs {y}");
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs = vec![vec![0.4], vec![0.5], vec![0.6]];
        let ys = vec![1.0, 1.1, 0.9];
        let mut gp = GaussianProcess::new(KernelKind::SquaredExponential, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (_, v_near) = gp.predict(&[0.5]);
        let (_, v_far) = gp.predict(&[0.0]);
        assert!(v_far > v_near);
    }

    #[test]
    fn empty_fit_errors() {
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 2);
        assert_eq!(gp.fit(&[], &[], &mut rng()), Err(GpError::EmptyTrainingSet));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 2);
        let err = gp.fit(&[vec![0.1]], &[1.0], &mut rng()).unwrap_err();
        assert!(matches!(
            err,
            GpError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn prior_prediction_before_fit() {
        let gp = GaussianProcess::new(KernelKind::Matern52, 3);
        let (m, v) = gp.predict(&[0.1, 0.2, 0.3]);
        assert_eq!(m, 0.0);
        assert!(v > 0.0);
        assert!(gp.is_empty());
    }

    #[test]
    fn constant_targets_do_not_blow_up() {
        let xs = vec![vec![0.1], vec![0.5], vec![0.9]];
        let ys = vec![2.0, 2.0, 2.0];
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (m, v) = gp.predict(&[0.3]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!(v.is_finite());
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.2]];
        let ys = vec![1.0, 1.0, 1.0, 0.0];
        let mut gp = GaussianProcess::new(KernelKind::SquaredExponential, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.3);
    }

    #[test]
    fn hallucination_shifts_posterior() {
        let xs = vec![vec![0.2], vec![0.8]];
        let ys = vec![1.0, 1.0];
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (_, v_before) = gp.predict(&[0.5]);
        gp.hallucinate(vec![0.5], 1.0).unwrap();
        let (_, v_after) = gp.predict(&[0.5]);
        assert!(v_after < v_before, "hallucination should reduce variance");
    }

    #[test]
    fn failed_hallucination_leaves_gp_unchanged() {
        let xs = vec![vec![0.2], vec![0.8]];
        let ys = vec![1.0, 0.0];
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let before = gp.predict(&[0.5]);
        let err = gp.hallucinate(vec![f64::NAN], 0.0).unwrap_err();
        assert_eq!(
            err,
            GpError::Factorization(LinalgError::NotPositiveDefinite { pivot: 2 })
        );
        assert_eq!(gp.len(), 2);
        let after = gp.predict(&[0.5]);
        assert_eq!(before.0.to_bits(), after.0.to_bits());
        assert_eq!(before.1.to_bits(), after.1.to_bits());
        gp.hallucinate(vec![0.5], 0.5).unwrap();
        assert_eq!(gp.len(), 3);
    }
}
