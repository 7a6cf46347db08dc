//! Feature-matrix utilities: dataset assembly and standardisation.

use crate::error::FitError;
use crate::validate_training_set;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// A named feature matrix plus targets, built incrementally.
///
/// The power models assemble many small datasets (one per component / SRAM position /
/// sub-model); this helper keeps the feature names attached so that printed diagnostics
/// and ablations can refer to features by name.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names.
    pub fn new<I, S>(feature_names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            feature_names: feature_names.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the feature-name count.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "feature row width must match the declared names"
        );
        self.rows.push(features);
        self.targets.push(target);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Validates the dataset and returns `(rows, targets)` for fitting.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the dataset is empty or malformed.
    pub fn as_training_set(&self) -> Result<(&[Vec<f64>], &[f64]), FitError> {
        validate_training_set(&self.rows, &self.targets)?;
        Ok((&self.rows, &self.targets))
    }
}

/// Per-feature standardisation (zero mean, unit variance) fitted on training data.
///
/// Ridge regression on raw hardware parameters would be dominated by the largest-valued
/// parameter; standardising first keeps the L2 penalty meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits the standardiser on training rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot standardise an empty set");
        let width = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == width), "ragged rows");
        let n = rows.len() as f64;
        let means: Vec<f64> = (0..width)
            .map(|j| rows.iter().map(|r| r[j]).sum::<f64>() / n)
            .collect();
        let stds: Vec<f64> = (0..width)
            .map(|j| {
                let var = rows
                    .iter()
                    .map(|r| (r[j] - means[j]) * (r[j] - means[j]))
                    .sum::<f64>()
                    / n;
                // Constant features keep a unit scale so they standardise to zero.
                if var.sqrt() < 1e-12 {
                    1.0
                } else {
                    var.sqrt()
                }
            })
            .collect();
        Self { means, stds }
    }

    /// Transforms one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted width.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "row width mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// The dot product of the transformed `row` with `weights`: each
    /// `(v - m) / s` times its weight, summed in index order — the bits of
    /// `transform_row(row)` dotted with `weights`, without allocating the
    /// transformed row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted width.
    pub fn transform_dot(&self, row: &[f64], weights: &[f64]) -> f64 {
        assert_eq!(row.len(), self.means.len(), "row width mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .zip(weights)
            .map(|((v, (m, s)), w)| (v - m) / s * w)
            .sum()
    }

    /// Transforms many rows.
    pub fn transform(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform_row(r)).collect()
    }

    /// Number of features this standardiser was fitted on.
    pub fn width(&self) -> usize {
        self.means.len()
    }
}

impl Codec for Standardizer {
    fn encode(&self, w: &mut Writer) {
        w.begin("standardizer");
        w.f64_seq("means", &self.means);
        w.f64_seq("stds", &self.stds);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("standardizer")?;
        let means = r.f64_seq("means")?;
        let stds = r.f64_seq("stds")?;
        r.end()?;
        if means.len() != stds.len() {
            return Err(CodecError::new(
                r.line(),
                format!(
                    "standardizer has {} means but {} stds",
                    means.len(),
                    stds.len()
                ),
            ));
        }
        Ok(Self { means, stds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_accumulates_and_validates() {
        let mut d = Dataset::new(["a", "b"]);
        assert!(d.is_empty());
        d.push(vec![1.0, 2.0], 3.0);
        d.push(vec![4.0, 5.0], 9.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.feature_names(), &["a".to_string(), "b".to_string()]);
        let (x, y) = d.as_training_set().unwrap();
        assert_eq!(x.len(), 2);
        assert_eq!(y, &[3.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn wrong_width_rejected() {
        let mut d = Dataset::new(["a", "b"]);
        d.push(vec![1.0], 3.0);
    }

    #[test]
    fn empty_dataset_is_a_fit_error() {
        let d = Dataset::new(["a"]);
        assert!(d.as_training_set().is_err());
    }

    #[test]
    fn standardizer_centres_and_scales() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = Standardizer::fit(&rows);
        let t = s.transform(&rows);
        // First column: mean 3, std sqrt(8/3).
        let col0: Vec<f64> = t.iter().map(|r| r[0]).collect();
        assert!((col0.iter().sum::<f64>()).abs() < 1e-12);
        // Constant column maps to exactly zero.
        assert!(t.iter().all(|r| r[1].abs() < 1e-12));
        assert_eq!(s.width(), 2);
    }

    #[test]
    fn transform_is_affine_and_invertible_in_spirit() {
        let rows = vec![vec![2.0], vec![4.0], vec![6.0], vec![8.0]];
        let s = Standardizer::fit(&rows);
        let a = s.transform_row(&[2.0])[0];
        let b = s.transform_row(&[8.0])[0];
        assert!(a < 0.0 && b > 0.0);
        assert!((a + b).abs() < 1e-12, "symmetric around the mean");
    }
}
