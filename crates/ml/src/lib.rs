//! From-scratch machine-learning toolkit for the AutoPower reproduction.
//!
//! The paper uses two model families: linear regression with L2 regularisation (ridge)
//! for the register-count and gating-rate sub-models, and XGBoost for the activity-,
//! variation- and baseline models.  The Rust ML ecosystem is thin and the problems are
//! tiny (tens of samples, tens of features), so this crate implements both from scratch:
//!
//! * [`Matrix`] — small dense linear algebra with a symmetric-positive-definite solver,
//! * [`RidgeRegression`] — exact closed-form ridge regression with feature standardisation,
//! * [`RegressionTree`] — CART regression trees with second-order (XGBoost-style) leaf
//!   weights,
//! * [`GradientBoosting`] — gradient-boosted trees with shrinkage, subsampling and L2
//!   leaf regularisation (a faithful small-scale XGBoost stand-in),
//! * [`metrics`] — MAPE, R², Pearson correlation, RMSE: the figures of merit the paper
//!   reports,
//! * [`Regressor`] — the common trait the power models program against.
//!
//! Everything is deterministic: the only stochastic element (row/column subsampling in
//! boosting) uses an explicit seed.
//!
//! # Example
//!
//! ```
//! use autopower_ml::{GradientBoosting, Regressor, RidgeRegression};
//!
//! let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i * i) as f64]).collect();
//! let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 0.5).collect();
//!
//! let mut ridge = RidgeRegression::new(1e-3);
//! ridge.fit(&x, &y).unwrap();
//! assert!((ridge.predict(&[10.0, 100.0]) - 30.5).abs() < 0.2);
//!
//! let mut gbdt = GradientBoosting::default();
//! gbdt.fit(&x, &y).unwrap();
//! assert!(gbdt.predict(&[10.0, 100.0]) > 20.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod flat;
mod gbdt;
mod linear;
mod matrix;
pub mod metrics;
mod multi;
pub mod parallel;
mod tree;

pub use dataset::{Dataset, Standardizer};
pub use error::FitError;
pub use flat::FlatForest;
pub use gbdt::{GbdtParams, GradientBoosting};
pub use linear::RidgeRegression;
pub use matrix::Matrix;
pub use multi::fit_multi_output;
pub use tree::{RegressionTree, TreeParams};

/// A regression model that can be fitted on a feature matrix and queried row by row.
///
/// The power models in `autopower` program against this trait so that the choice of
/// sub-model (ridge vs. boosted trees) stays a one-line decision, as in the paper.
pub trait Regressor {
    /// Fits the model to rows `x` (one inner `Vec` per sample) and targets `y`.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the data is empty, ragged, or contains non-finite values.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError>;

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a successful [`Regressor::fit`] or with
    /// a row of the wrong width.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predicts the targets of many rows.
    fn predict_batch(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|row| self.predict(row)).collect()
    }
}

/// Validates a training set: non-empty, rectangular, finite, and `x.len() == y.len()`.
pub(crate) fn validate_training_set(x: &[Vec<f64>], y: &[f64]) -> Result<usize, FitError> {
    if x.is_empty() || y.is_empty() {
        return Err(FitError::EmptyTrainingSet);
    }
    if x.len() != y.len() {
        return Err(FitError::LengthMismatch {
            rows: x.len(),
            targets: y.len(),
        });
    }
    let width = x[0].len();
    if width == 0 {
        return Err(FitError::EmptyTrainingSet);
    }
    for row in x {
        if row.len() != width {
            return Err(FitError::RaggedRows);
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(FitError::NonFiniteValue);
        }
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(FitError::NonFiniteValue);
    }
    Ok(width)
}

/// Validates a flat-matrix training set: `x.rows() == y.len()` and every
/// value finite.  Rectangularity and non-emptiness are structural [`Matrix`]
/// invariants, so only the data itself needs checking.
pub(crate) fn validate_matrix_training_set(x: &Matrix, y: &[f64]) -> Result<usize, FitError> {
    if x.rows() != y.len() {
        return Err(FitError::LengthMismatch {
            rows: x.rows(),
            targets: y.len(),
        });
    }
    for i in 0..x.rows() {
        if x.row(i).iter().any(|v| !v.is_finite()) {
            return Err(FitError::NonFiniteValue);
        }
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(FitError::NonFiniteValue);
    }
    Ok(x.cols())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_inputs() {
        assert!(matches!(
            validate_training_set(&[], &[]),
            Err(FitError::EmptyTrainingSet)
        ));
        assert!(matches!(
            validate_training_set(&[vec![1.0]], &[1.0, 2.0]),
            Err(FitError::LengthMismatch { .. })
        ));
        assert!(matches!(
            validate_training_set(&[vec![1.0, 2.0], vec![1.0]], &[1.0, 2.0]),
            Err(FitError::RaggedRows)
        ));
        assert!(matches!(
            validate_training_set(&[vec![f64::NAN]], &[1.0]),
            Err(FitError::NonFiniteValue)
        ));
        assert_eq!(validate_training_set(&[vec![1.0, 2.0]], &[3.0]).unwrap(), 2);
    }
}
