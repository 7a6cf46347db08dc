//! Gradient-boosted regression trees (a small, faithful XGBoost stand-in).

use crate::error::FitError;
use crate::flat::FlatForest;
use crate::matrix::Matrix;
use crate::tree::{RegressionTree, Shape, TreeParams};
use crate::{validate_matrix_training_set, validate_training_set, Regressor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::codec::{parse_u64, Codec, CodecError, Reader, Writer};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Hyper-parameters of the gradient-boosting model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// L2 regularisation on leaf weights.
    pub lambda: f64,
    /// Minimum gain to split.
    pub gamma: f64,
    /// Row subsampling fraction per round (1.0 disables subsampling).
    pub subsample: f64,
    /// Column subsampling fraction per round (1.0 disables subsampling).
    pub colsample: f64,
    /// Seed of the subsampling RNG.
    pub seed: u64,
}

impl Default for GbdtParams {
    /// Defaults tuned for the paper's regime: few samples (tens), few features (tens).
    fn default() -> Self {
        Self {
            n_estimators: 120,
            learning_rate: 0.08,
            max_depth: 3,
            min_child_weight: 1.0,
            lambda: 1.0,
            gamma: 0.0,
            subsample: 1.0,
            colsample: 1.0,
            seed: 7,
        }
    }
}

impl GbdtParams {
    /// Checks the hyper-parameters: the one check behind [`GradientBoosting`]'s
    /// fit and its decoder.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::InvalidParams`] if a fraction is outside `(0, 1]`,
    /// the round count is zero or a regulariser is negative (or NaN).
    pub fn validate(&self) -> Result<(), FitError> {
        let fraction = |v: f64| v > 0.0 && v <= 1.0;
        let reason = if self.n_estimators == 0 {
            "need at least one boosting round"
        } else if !fraction(self.learning_rate) {
            "learning rate must be in (0, 1]"
        } else if !fraction(self.subsample) {
            "subsample must be in (0, 1]"
        } else if !fraction(self.colsample) {
            "colsample must be in (0, 1]"
        } else if !(self.lambda >= 0.0 && self.gamma >= 0.0) {
            "regularisers must be non-negative"
        } else {
            return Ok(());
        };
        Err(FitError::InvalidParams(reason))
    }

    /// The hyper-parameters every tree of the ensemble is fitted with.
    fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth,
            min_child_weight: self.min_child_weight,
            lambda: self.lambda,
            gamma: self.gamma,
        }
    }
}

/// Gradient-boosted trees with squared-error objective.
///
/// This is the stand-in for XGBoost, which the paper uses for the effective-active-rate,
/// SRAM-activity, register-activity and combinational-variation sub-models as well as
/// for the McPAT-Calib baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    params: GbdtParams,
    base_score: f64,
    /// The fit/serde representation: one boxed-node tree per boosting round.
    trees: Vec<RegressionTree>,
    /// The inference representation, compiled from `trees` at fit and decode
    /// time (empty while unfitted).  Never serialized — `trees` is canonical.
    flat: FlatForest,
}

impl GradientBoosting {
    /// Creates an unfitted model.  The hyper-parameters are checked when it
    /// is fitted ([`GbdtParams::validate`]).
    pub fn new(params: GbdtParams) -> Self {
        Self {
            params,
            base_score: 0.0,
            trees: Vec::new(),
            flat: FlatForest::default(),
        }
    }

    /// The hyper-parameters.
    pub fn params(&self) -> &GbdtParams {
        &self.params
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Whether the model has been fitted.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty() || self.base_score != 0.0
    }

    /// The compiled flat forest serving this model's predictions.
    ///
    /// Use [`FlatForest::predict_into`] for batched scoring of a whole
    /// feature matrix.
    pub fn forest(&self) -> &FlatForest {
        &self.flat
    }

    /// Fits on a flat row-major feature matrix (the allocation-friendly twin
    /// of [`Regressor::fit`]).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the hyper-parameters are invalid, or the data
    /// is empty, non-finite, or the target length does not match.
    pub fn fit_matrix(&mut self, x: &Matrix, y: &[f64]) -> Result<(), FitError> {
        self.params.validate()?;
        let width = validate_matrix_training_set(x, y)?;
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        self.base_score = y.iter().sum::<f64>() / n as f64;
        self.trees.clear();
        self.flat = FlatForest::default();
        let mut predictions = vec![self.base_score; n];

        let tree_params = self.params.tree_params();

        let all_rows: Vec<usize> = (0..n).collect();
        let all_cols: Vec<usize> = (0..width).collect();
        let row_sample = ((n as f64 * self.params.subsample).ceil() as usize).clamp(1, n);
        let col_sample = ((width as f64 * self.params.colsample).ceil() as usize).clamp(1, width);

        // Hoisted per-round buffers: gradients are overwritten in place,
        // hessians are the constant 1 of squared loss, and the subsample
        // scratch vectors are reshuffled instead of recloned.
        let mut gradients = vec![0.0; n];
        let hessians = vec![1.0; n];
        let mut row_scratch = all_rows.clone();
        let mut col_scratch = all_cols.clone();
        let mut tree_scratch = crate::tree::FitScratch::new();

        // Without row subsampling every round trains on the same rows in the
        // same order, so the per-feature pre-sort can be hoisted out of the
        // boosting loop entirely: sort once, hand every tree a copy.  (Row
        // subsampling changes the row set *and* the stable-tie order, so those
        // runs keep the per-tree sort.)
        let master_sorted: Option<Vec<usize>> = (row_sample == n).then(|| {
            let mut master = vec![0usize; width * n];
            for feature in 0..width {
                let seg = &mut master[feature * n..(feature + 1) * n];
                seg.copy_from_slice(&all_rows);
                seg.sort_by(|&a, &b| {
                    x.at(a, feature)
                        .partial_cmp(&x.at(b, feature))
                        .expect("finite features")
                });
            }
            master
        });

        for _ in 0..self.params.n_estimators {
            // Squared loss: gradient = prediction - target, hessian = 1.
            for (g, (p, t)) in gradients.iter_mut().zip(predictions.iter().zip(y)) {
                *g = p - t;
            }

            let rows: &[usize] = if row_sample == n {
                &all_rows
            } else {
                row_scratch.copy_from_slice(&all_rows);
                row_scratch.shuffle(&mut rng);
                &row_scratch[..row_sample]
            };
            let cols: &[usize] = if col_sample == width {
                &all_cols
            } else {
                col_scratch.copy_from_slice(&all_cols);
                col_scratch.shuffle(&mut rng);
                &col_scratch[..col_sample]
            };

            let mut tree = RegressionTree::new(tree_params);
            tree.fit_gradients_scratch(
                x,
                &gradients,
                &hessians,
                rows,
                cols,
                master_sorted.as_deref(),
                &mut tree_scratch,
            )?;
            for (i, prediction) in predictions.iter_mut().enumerate() {
                *prediction += self.params.learning_rate * tree.predict(x.row(i));
            }
            self.trees.push(tree);
        }
        self.flat = FlatForest::compile(self.base_score, self.params.learning_rate, &self.trees);
        Ok(())
    }

    /// The recursive reference prediction over the boxed-node trees.
    ///
    /// [`Regressor::predict`] serves from the compiled [`FlatForest`]; this
    /// path is retained as the bit-parity oracle the flat traversal is tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful fit.
    pub fn predict_recursive(&self, x: &[f64]) -> f64 {
        assert!(
            self.is_fitted(),
            "predict called before fit on the boosting model"
        );
        self.base_score
            + self
                .trees
                .iter()
                .map(|t| self.params.learning_rate * t.predict(x))
                .sum::<f64>()
    }
}

impl Default for GradientBoosting {
    fn default() -> Self {
        Self::new(GbdtParams::default())
    }
}

impl Codec for GbdtParams {
    fn encode(&self, w: &mut Writer) {
        w.begin("gbdt-params");
        w.u64("n_estimators", self.n_estimators as u64);
        w.f64("learning_rate", self.learning_rate);
        w.u64("max_depth", self.max_depth as u64);
        w.f64("min_child_weight", self.min_child_weight);
        w.f64("lambda", self.lambda);
        w.f64("gamma", self.gamma);
        w.f64("subsample", self.subsample);
        w.f64("colsample", self.colsample);
        w.u64("seed", self.seed);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("gbdt-params")?;
        let params = Self {
            n_estimators: r.u64("n_estimators")? as usize,
            learning_rate: r.f64("learning_rate")?,
            max_depth: r.u64("max_depth")? as usize,
            min_child_weight: r.f64("min_child_weight")?,
            lambda: r.f64("lambda")?,
            gamma: r.f64("gamma")?,
            subsample: r.f64("subsample")?,
            colsample: r.f64("colsample")?,
            seed: r.u64("seed")?,
        };
        r.end()?;
        params.validate().map_err(|e| {
            CodecError::new(
                r.line(),
                format!("gbdt-params fail hyper-parameter validation: {e}"),
            )
        })?;
        Ok(params)
    }
}

/// The saved form (format version 2) writes each distinct tree shape of the
/// forest once and every tree as its shape index plus its leaf weights:
///
/// ```text
/// gbdt {
///   gbdt-params { ... }
///   base_score 3FE0000000000000 ; 0.5
///   n_features 2
///   shapes {
///     len 2
///     s 1:3FF8000000000000,L,L
///     s L
///   }
///   trees {
///     len 3
///     t 0/BFB999999999999A,3FB999999999999A
///     t 1/3F847AE147AE147B
///     t 0/BF847AE147AE147B,3F847AE147AE147B
///   }
/// }
/// ```
///
/// A shape line lists the nodes in preorder, a split as
/// `feature:threshold-bits` and a leaf as `L`; a tree line lists its leaf
/// weights in the order of its shape's `L`s.  Shapes are numbered in order
/// of first use, so the text is canonical.  Every tree of a forest is fitted
/// with the forest's tree parameters on its `n_features` features, so that
/// is all a tree needs besides its shape and its leaves; decoding rebuilds
/// exactly the fitted trees.  Few-shot forests repeat a handful of shapes
/// (the fast-trained AutoPower model has ~1,000 shapes in 12,480 trees),
/// which keeps the file small and its read cheap.
impl Codec for GradientBoosting {
    fn encode(&self, w: &mut Writer) {
        w.begin("gbdt");
        self.params.encode(w);
        w.f64("base_score", self.base_score);
        let n_features = self.trees.first().map_or(0, RegressionTree::n_features);
        w.u64("n_features", n_features as u64);
        let mut shapes: Vec<String> = Vec::new();
        let mut known: HashMap<String, usize> = HashMap::new();
        let mut tree_shapes = Vec::with_capacity(self.trees.len());
        let mut line = String::new();
        for tree in &self.trees {
            line.clear();
            tree.push_shape(&mut line);
            let id = match known.get(&line) {
                Some(&id) => id,
                None => {
                    known.insert(line.clone(), shapes.len());
                    shapes.push(line.clone());
                    shapes.len() - 1
                }
            };
            tree_shapes.push(id);
        }
        w.begin_list("shapes", shapes.len());
        for shape in &shapes {
            w.str("s", shape);
        }
        w.end();
        w.begin_list("trees", self.trees.len());
        for (tree, id) in self.trees.iter().zip(tree_shapes) {
            line.clear();
            write!(line, "{id}/").expect("writing to a String cannot fail");
            tree.push_leaves(&mut line);
            w.str("t", &line);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("gbdt")?;
        let params = GbdtParams::decode(r)?;
        let base_score = r.f64("base_score")?;
        let n_features = r.u64("n_features")? as usize;
        let tree_params = params.tree_params();
        let len = r.begin_list("shapes")?;
        let mut shapes = Vec::with_capacity(len);
        for _ in 0..len {
            let text = r.str("s")?;
            let shape = Shape::parse(text, n_features)
                .map_err(|e| CodecError::new(r.line(), format!("field 's': {e}")))?;
            shapes.push(shape);
        }
        r.end()?;
        let len = r.begin_list("trees")?;
        let mut trees = Vec::with_capacity(len);
        for _ in 0..len {
            let text = r.str("t")?;
            let tree = tree_line(text, &shapes, tree_params, n_features)
                .map_err(|e| CodecError::new(r.line(), format!("field 't': {e}")))?;
            trees.push(tree);
        }
        r.end()?;
        r.end()?;
        // Loaded models serve predictions from the same compiled flat path as
        // freshly trained ones: cold-starting from a file inherits the batched
        // inference layout for free.
        let flat = FlatForest::compile(base_score, params.learning_rate, &trees);
        Ok(Self {
            params,
            base_score,
            trees,
            flat,
        })
    }
}

/// Reads one `shape/leaves` tree line against the forest's `shapes`.
fn tree_line(
    text: &str,
    shapes: &[Shape],
    params: TreeParams,
    n_features: usize,
) -> Result<RegressionTree, String> {
    let (id, leaves) = text
        .split_once('/')
        .ok_or_else(|| format!("expected 'shape/leaves', found '{text}'"))?;
    let shape = match parse_u64(id) {
        Some(id) => usize::try_from(id)
            .ok()
            .and_then(|id| shapes.get(id))
            .ok_or_else(|| format!("shape index {id} out of range ({} shapes)", shapes.len()))?,
        None => return Err(format!("malformed integer '{id}'")),
    };
    shape.tree(leaves, params, n_features)
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError> {
        validate_training_set(x, y)?;
        self.fit_matrix(&Matrix::from_rows(x), y)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        assert!(
            self.is_fitted(),
            "predict called before fit on the boosting model"
        );
        self.flat.predict_row(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn nonlinear_target(r: &[f64]) -> f64 {
        3.0 * r[0] + (r[1] * 0.5).sin() * 10.0 + if r[0] > 5.0 { 8.0 } else { 0.0 }
    }

    #[test]
    fn fits_a_nonlinear_function_well_in_sample() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 12) as f64, (i / 12) as f64 * 2.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| nonlinear_target(r)).collect();
        let mut m = GradientBoosting::default();
        m.fit(&x, &y).unwrap();
        let pred = m.predict_batch(&x);
        let r2 = metrics::r_squared(&y, &pred);
        assert!(r2 > 0.97, "in-sample R2 {r2}");
    }

    #[test]
    fn generalises_on_held_out_grid_points() {
        let train: Vec<Vec<f64>> = (0..80)
            .filter(|i| i % 5 != 0)
            .map(|i| vec![(i % 16) as f64, (i / 16) as f64])
            .collect();
        let test: Vec<Vec<f64>> = (0..80)
            .filter(|i| i % 5 == 0)
            .map(|i| vec![(i % 16) as f64, (i / 16) as f64])
            .collect();
        let y_train: Vec<f64> = train.iter().map(|r| nonlinear_target(r)).collect();
        let y_test: Vec<f64> = test.iter().map(|r| nonlinear_target(r)).collect();
        let mut m = GradientBoosting::default();
        m.fit(&train, &y_train).unwrap();
        let pred = m.predict_batch(&test);
        assert!(metrics::r_squared(&y_test, &pred) > 0.8);
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 3 % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[1]).collect();
        let mut a = GradientBoosting::default();
        let mut b = GradientBoosting::default();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for row in &x {
            assert_eq!(a.predict(row), b.predict(row));
        }
        // With subsampling enabled, different seeds generally give different predictions.
        let subsampled = |seed: u64| {
            let mut m = GradientBoosting::new(GbdtParams {
                subsample: 0.6,
                colsample: 0.6,
                seed,
                ..GbdtParams::default()
            });
            m.fit(&x, &y).unwrap();
            m
        };
        let c = subsampled(99);
        let d = subsampled(100);
        let differs = x
            .iter()
            .any(|row| (c.predict(row) - d.predict(row)).abs() > 1e-12);
        assert!(differs);
    }

    #[test]
    fn handles_tiny_few_shot_datasets() {
        // 16 samples (2 configurations x 8 workloads) is the paper's smallest regime.
        let x: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![(i % 2) as f64 * 4.0, i as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 1.0 + 0.2 * r[0] + 0.05 * r[1]).collect();
        let mut m = GradientBoosting::default();
        m.fit(&x, &y).unwrap();
        let pred = m.predict_batch(&x);
        assert!(metrics::mape(&y, &pred) < 0.05);
    }

    #[test]
    fn constant_target_predicts_the_constant() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![4.2; 10];
        let mut m = GradientBoosting::default();
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[100.0]) - 4.2).abs() < 1e-6);
    }

    #[test]
    fn invalid_params_rejected() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![1.0; 10];
        let mut m = GradientBoosting::new(GbdtParams {
            learning_rate: 0.0,
            ..GbdtParams::default()
        });
        assert_eq!(
            m.fit(&x, &y),
            Err(FitError::InvalidParams("learning rate must be in (0, 1]"))
        );
        assert!(!m.is_fitted());
    }

    #[test]
    fn decoding_rebuilds_every_fitted_tree() {
        // Subsampled rounds grow varied shapes; a depth-0 forest is all
        // bare leaves.
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 7 % 11) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[1] - r[2]).collect();
        for (max_depth, subsample) in [(4, 0.6), (0, 1.0)] {
            let mut m = GradientBoosting::new(GbdtParams {
                max_depth,
                subsample,
                ..GbdtParams::default()
            });
            m.fit(&x, &y).unwrap();
            let mut w = Writer::new();
            m.encode(&mut w);
            let text = w.finish();
            let decoded = GradientBoosting::decode(&mut Reader::new(&text)).unwrap();
            // Trees (parameters, nodes, feature count) and compiled forest.
            assert_eq!(decoded, m);
            let mut w = Writer::new();
            decoded.encode(&mut w);
            assert_eq!(w.finish(), text);
        }
    }

    #[test]
    fn fit_error_propagates() {
        let mut m = GradientBoosting::default();
        assert!(m.fit(&[], &[]).is_err());
    }
}
