//! Ridge regression (linear model with L2 regularisation).

use crate::dataset::Standardizer;
use crate::error::FitError;
use crate::matrix::Matrix;
use crate::{validate_training_set, Regressor};
use serde::codec::{Codec, CodecError, Reader, Writer};

/// Linear regression with an L2 penalty on the coefficients, solved in closed form.
///
/// This is the model the paper uses for the register-count and gating-rate sub-models
/// ("we adopt the linear model with L2 normalization as our ML model"): the correlation
/// is simple and only a handful of samples are available, so a regularised linear model
/// is both sufficient and robust.
///
/// Features are standardised internally; the intercept is not penalised.
#[derive(Debug, Clone)]
pub struct RidgeRegression {
    /// L2 penalty strength.
    alpha: f64,
    standardizer: Option<Standardizer>,
    coefficients: Vec<f64>,
    intercept: f64,
}

impl RidgeRegression {
    /// Creates an unfitted ridge model with penalty `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or non-finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be non-negative"
        );
        Self {
            alpha,
            standardizer: None,
            coefficients: Vec::new(),
            intercept: 0.0,
        }
    }

    /// The L2 penalty strength.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The fitted coefficients in standardised feature space (empty before fitting).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Whether the model has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.standardizer.is_some()
    }
}

impl Default for RidgeRegression {
    /// A lightly-regularised model suitable for the few-shot setting (`alpha = 1e-2`).
    fn default() -> Self {
        Self::new(1e-2)
    }
}

impl Codec for RidgeRegression {
    fn encode(&self, w: &mut Writer) {
        w.begin("ridge");
        w.f64("alpha", self.alpha);
        w.f64("intercept", self.intercept);
        w.f64_seq("coefficients", &self.coefficients);
        w.bool("fitted", self.standardizer.is_some());
        if let Some(s) = &self.standardizer {
            s.encode(w);
        }
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("ridge")?;
        let alpha = r.f64("alpha")?;
        let intercept = r.f64("intercept")?;
        let coefficients = r.f64_seq("coefficients")?;
        let standardizer = if r.bool("fitted")? {
            Some(Standardizer::decode(r)?)
        } else {
            None
        };
        r.end()?;
        Ok(Self {
            alpha,
            standardizer,
            coefficients,
            intercept,
        })
    }
}

impl Regressor for RidgeRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError> {
        let width = validate_training_set(x, y)?;
        let standardizer = Standardizer::fit(x);
        let xs = standardizer.transform(x);
        let n = xs.len() as f64;

        // Centre the targets so the intercept absorbs the mean and is not penalised.
        let y_mean = y.iter().sum::<f64>() / n;
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // Normal equations on standardised features: (X^T X + alpha I) w = X^T y.
        let xm = Matrix::from_rows(&xs);
        let xt = xm.transpose();
        let mut gram = xt.matmul(&xm);
        gram.add_diagonal(self.alpha.max(1e-9));
        let rhs = xt.matvec(&yc);
        let coefficients = gram.solve(&rhs).ok_or(FitError::SingularSystem)?;

        debug_assert_eq!(coefficients.len(), width);
        self.standardizer = Some(standardizer);
        self.coefficients = coefficients;
        self.intercept = y_mean;
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let standardizer = self
            .standardizer
            .as_ref()
            .expect("predict called before fit");
        self.intercept + standardizer.transform_dot(x, &self.coefficients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recovers_a_linear_relationship() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, (30 - i) as f64, 7.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - 0.5 * r[1] + 3.0).collect();
        let mut m = RidgeRegression::new(1e-4);
        m.fit(&x, &y).unwrap();
        for (row, target) in x.iter().zip(&y) {
            assert!((m.predict(row) - target).abs() < 1e-3);
        }
    }

    #[test]
    fn two_sample_few_shot_fit_is_exact_on_proportional_data() {
        // The paper's few-shot regime: two known configurations. A proportional target
        // must be interpolated exactly and extrapolate in the right direction.
        let x = vec![vec![4.0, 1.0], vec![8.0, 5.0]];
        let y = vec![400.0, 1200.0];
        let mut m = RidgeRegression::new(1e-6);
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[4.0, 1.0]) - 400.0).abs() < 1.0);
        assert!((m.predict(&[8.0, 5.0]) - 1200.0).abs() < 1.0);
        let mid = m.predict(&[6.0, 3.0]);
        assert!(mid > 400.0 && mid < 1200.0);
    }

    #[test]
    fn stronger_regularisation_shrinks_coefficients() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 5.0 * r[0]).collect();
        let mut weak = RidgeRegression::new(1e-6);
        let mut strong = RidgeRegression::new(100.0);
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        assert!(strong.coefficients()[0].abs() < weak.coefficients()[0].abs());
    }

    #[test]
    fn constant_features_do_not_break_the_solver() {
        let x = vec![vec![1.0, 3.0], vec![1.0, 5.0], vec![1.0, 9.0]];
        let y = vec![6.0, 10.0, 18.0];
        let mut m = RidgeRegression::default();
        m.fit(&x, &y).unwrap();
        assert!(m.is_fitted());
        assert!((m.predict(&[1.0, 7.0]) - 14.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "predict called before fit")]
    fn predict_before_fit_panics() {
        let m = RidgeRegression::default();
        let _ = m.predict(&[1.0]);
    }

    #[test]
    fn rejects_bad_training_data() {
        let mut m = RidgeRegression::default();
        assert!(m.fit(&[], &[]).is_err());
        assert!(m
            .fit(&[vec![1.0], vec![f64::INFINITY]], &[1.0, 2.0])
            .is_err());
    }

    proptest! {
        /// Predictions are finite for any finite query after fitting on a small random set.
        #[test]
        fn predictions_are_finite(
            xs in proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, 3), 3..12),
            q in proptest::collection::vec(-100.0f64..100.0, 3)
        ) {
            let y: Vec<f64> = xs.iter().map(|r| r.iter().sum::<f64>()).collect();
            let mut m = RidgeRegression::default();
            m.fit(&xs, &y).unwrap();
            prop_assert!(m.predict(&q).is_finite());
        }

        /// The fused standardise-and-dot predict reproduces the bits of the
        /// formula it replaced: standardise the row with `transform_row`,
        /// then sum `v * c` in index order.
        #[test]
        fn predict_matches_the_transform_row_formula_bit_for_bit(
            xs in proptest::collection::vec(proptest::collection::vec(-1e3f64..1e3, 5), 2..10),
            y in proptest::collection::vec(-1e3f64..1e3, 10),
            q in proptest::collection::vec(-1e4f64..1e4, 5),
            alpha in 0.0f64..10.0,
        ) {
            let mut m = RidgeRegression::new(alpha);
            m.fit(&xs, &y[..xs.len()]).unwrap();
            let standardized = m.standardizer.as_ref().unwrap().transform_row(&q);
            let oracle = m.intercept
                + standardized
                    .iter()
                    .zip(&m.coefficients)
                    .map(|(v, c)| v * c)
                    .sum::<f64>();
            prop_assert_eq!(m.predict(&q).to_bits(), oracle.to_bits());
        }
    }
}
