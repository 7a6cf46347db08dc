//! Multi-output gradient boosting: one model per target series, all fitted
//! over a single shared feature matrix.
//!
//! The surrogate layer predicts many event rates from one configuration
//! feature vector.  Rather than a single multi-output tree model, it fits one
//! independent [`GradientBoosting`] per target — the targets span orders of
//! magnitude and want independent tree structure — but assembles the feature
//! matrix exactly once and reuses it across every fit.

use crate::error::FitError;
use crate::gbdt::{GbdtParams, GradientBoosting};
use crate::matrix::Matrix;
use crate::parallel::{available_threads, parallel_map};

/// Fits one [`GradientBoosting`] model per target series over the shared
/// feature matrix `x`.
///
/// `targets[k]` is the whole target column of output `k`; every column must
/// hold one value per row of `x`.  Each output trains with `params`, except
/// that the subsampling seed is offset by the output index so subsampled fits
/// (when `subsample < 1`) decorrelate across outputs while staying fully
/// deterministic.
///
/// The fits are independent, so they run in parallel on every available
/// core ([`available_threads`]) and are collected in output order: the
/// models are bit-identical for any core count.
///
/// # Errors
///
/// Returns [`FitError::EmptyTrainingSet`] when `targets` is empty, and
/// the per-output fit error of the lowest failing output otherwise.
pub fn fit_multi_output(
    params: &GbdtParams,
    x: &Matrix,
    targets: &[Vec<f64>],
) -> Result<Vec<GradientBoosting>, FitError> {
    if targets.is_empty() {
        return Err(FitError::EmptyTrainingSet);
    }
    parallel_map(available_threads(), targets.len(), |k| {
        let mut model = GradientBoosting::new(GbdtParams {
            seed: params.seed.wrapping_add(k as u64),
            ..*params
        });
        model.fit_matrix(x, &targets[k])?;
        Ok(model)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_matrix() -> (Matrix, Vec<Vec<f64>>) {
        let rows = 40;
        let mut data = Vec::with_capacity(rows * 2);
        let mut t0 = Vec::with_capacity(rows);
        let mut t1 = Vec::with_capacity(rows);
        for i in 0..rows {
            let a = i as f64;
            let b = ((i * 7) % rows) as f64;
            data.extend([a, b]);
            t0.push(2.0 * a + 1.0);
            t1.push(0.5 * b - 3.0);
        }
        (Matrix::from_flat(rows, 2, data), vec![t0, t1])
    }

    #[test]
    fn fits_one_model_per_target_over_one_matrix() {
        let (x, targets) = shared_matrix();
        let models = fit_multi_output(&GbdtParams::default(), &x, &targets).unwrap();
        assert_eq!(models.len(), 2);
        assert!((models[0].forest().predict_row(&[10.0, 0.0]) - 21.0).abs() < 2.0);
        assert!((models[1].forest().predict_row(&[0.0, 20.0]) - 7.0).abs() < 2.0);
    }

    #[test]
    fn parallel_fits_equal_serial_fits_in_output_order() {
        use serde::codec::{Codec, Writer};
        let (x, base) = shared_matrix();
        let targets: Vec<Vec<f64>> = (0..7)
            .map(|k| base[k % 2].iter().map(|y| y * (k + 1) as f64).collect())
            .collect();
        let params = GbdtParams {
            subsample: 0.7,
            ..GbdtParams::default()
        };
        let encode = |model: &GradientBoosting| {
            let mut w = Writer::new();
            model.encode(&mut w);
            w.finish()
        };
        let models = fit_multi_output(&params, &x, &targets).unwrap();
        for (k, (model, y)) in models.iter().zip(&targets).enumerate() {
            let mut serial = GradientBoosting::new(GbdtParams {
                seed: params.seed + k as u64,
                ..params
            });
            serial.fit_matrix(&x, y).unwrap();
            assert_eq!(encode(model), encode(&serial), "output {k}");
        }
    }

    #[test]
    fn empty_target_list_is_refused() {
        let (x, _) = shared_matrix();
        assert_eq!(
            fit_multi_output(&GbdtParams::default(), &x, &[]).unwrap_err(),
            FitError::EmptyTrainingSet
        );
    }

    #[test]
    fn mismatched_target_length_propagates() {
        let (x, _) = shared_matrix();
        let err = fit_multi_output(&GbdtParams::default(), &x, &[vec![1.0; 3]]).unwrap_err();
        assert!(matches!(err, FitError::LengthMismatch { .. }));
    }

    #[test]
    fn deterministic_under_subsampling_with_decorrelated_seeds() {
        let (x, targets) = shared_matrix();
        let params = GbdtParams {
            subsample: 0.8,
            ..GbdtParams::default()
        };
        let a = fit_multi_output(&params, &x, &targets).unwrap();
        let b = fit_multi_output(&params, &x, &targets).unwrap();
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(
                ma.forest().predict_row(&[5.0, 5.0]),
                mb.forest().predict_row(&[5.0, 5.0])
            );
        }
        // Per-output seed offset: the two outputs do not share a seed.
        assert_ne!(a[0].params().seed, a[1].params().seed);
    }
}
