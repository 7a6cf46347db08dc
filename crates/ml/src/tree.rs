//! CART regression trees with XGBoost-style second-order leaf weights.
//!
//! Training uses the classic pre-sorted layout: the row indices are sorted
//! once per feature per `fit_gradients` call, then *stably partitioned* down
//! the tree, so each node's split scan is a linear walk instead of a fresh
//! `O(n log n)` sort per node per feature.  Stability is what keeps the result
//! bit-identical to the historical per-node sort: a stable sort by feature
//! value (ties keeping caller row order) followed by stable partitions yields
//! exactly the per-node visiting order the old code produced, so every split
//! gain, threshold and leaf weight comes out with the same bits.

use crate::error::FitError;
use crate::matrix::Matrix;
use serde::codec::{parse_f64_bits, parse_u64, push_bits};
use std::fmt::Write as _;

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth of the tree (a depth of 0 is a single leaf).
    pub max_depth: usize,
    /// Minimum sum of hessians (= sample count for squared loss) required in each child.
    pub min_child_weight: f64,
    /// L2 regularisation on leaf weights (the `lambda` of XGBoost).
    pub lambda: f64,
    /// Minimum loss reduction required to make a split (the `gamma` of XGBoost).
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 3,
            min_child_weight: 1.0,
            lambda: 1.0,
            gamma: 0.0,
        }
    }
}

/// One node of a fitted tree.  A tree keeps its nodes in preorder, so a
/// split's left child is the node right after it and only the right child's
/// index is stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: u32,
        threshold: f64,
        /// Index of the right child (`x[feature] > threshold`, or NaN).
        right: u32,
    },
}

/// A regression tree fitted on gradients/hessians (XGBoost-style).
///
/// For squared loss the gradient of sample `i` is `prediction_i - target_i` and the
/// hessian is 1, in which case the tree fits the residuals with mean-valued leaves
/// shrunk by `lambda`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    params: TreeParams,
    /// The fitted nodes in preorder (empty before fitting).
    nodes: Vec<Node>,
    n_features: usize,
}

/// Reusable buffers of the pre-sorted tree builder.
///
/// A boosting loop fits hundreds of trees back to back; handing the same
/// scratch to every [`RegressionTree::fit_gradients_scratch`] call means tree
/// construction allocates nothing after the first round.
#[derive(Debug, Default)]
pub(crate) struct FitScratch {
    /// The node's rows in caller order; segment `[lo, hi)` per node.
    rows: Vec<usize>,
    /// `features.len()` stacked row lists of length `rows.len()` each:
    /// `sorted[fi * n + k]` walks feature `features[fi]` ascending (ties keep
    /// caller order — the stability that pins bit-identical splits).
    sorted: Vec<usize>,
    /// Reused right-half buffer for the stable in-place partition.
    partition: Vec<usize>,
    /// The tree under construction, in preorder; copied out once built.
    nodes: Vec<Node>,
}

impl FitScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// The pre-sorted training state: row lists partitioned down the tree.
///
/// `rows` keeps the node's rows in caller order (the order gradient/hessian
/// sums accumulate in); `sorted` stacks one pre-sorted copy per candidate
/// feature.  Both are partitioned *in place* per split, so building a tree
/// allocates nothing beyond the (reusable) scratch buffers.
struct Builder<'a> {
    params: TreeParams,
    x: &'a Matrix,
    gradients: &'a [f64],
    hessians: &'a [f64],
    features: &'a [usize],
    /// See [`FitScratch::rows`].
    rows: &'a mut [usize],
    /// See [`FitScratch::sorted`].
    sorted: &'a mut [usize],
    /// See [`FitScratch::partition`].
    scratch: &'a mut Vec<usize>,
    /// See [`FitScratch::nodes`].
    nodes: &'a mut Vec<Node>,
}

/// Points the split at `nodes[at]` at the node about to be appended: its
/// right child, once the left subtree is complete.
fn set_right(nodes: &mut [Node], at: usize) {
    let next = u32::try_from(nodes.len()).expect("tree exceeds u32 indices");
    if let Node::Split { right, .. } = &mut nodes[at] {
        *right = next;
    }
}

/// Stably partitions `seg` by `x[row][feature] <= threshold` (matching rows
/// first, caller order preserved on both sides) and returns the match count.
fn stable_partition(
    seg: &mut [usize],
    scratch: &mut Vec<usize>,
    x: &Matrix,
    feature: usize,
    threshold: f64,
) -> usize {
    scratch.clear();
    let mut nl = 0;
    for k in 0..seg.len() {
        let i = seg[k];
        if x.at(i, feature) <= threshold {
            seg[nl] = i;
            nl += 1;
        } else {
            scratch.push(i);
        }
    }
    seg[nl..].copy_from_slice(scratch);
    nl
}

impl Builder<'_> {
    fn leaf_weight(&self, grad_sum: f64, hess_sum: f64) -> f64 {
        -grad_sum / (hess_sum + self.params.lambda)
    }

    fn gain(&self, gl: f64, hl: f64, gr: f64, hr: f64) -> f64 {
        let lambda = self.params.lambda;
        let score = |g: f64, h: f64| g * g / (h + lambda);
        0.5 * (score(gl, hl) + score(gr, hr) - score(gl + gr, hl + hr)) - self.params.gamma
    }

    /// Appends the subtree of rows `[lo, hi)` to `nodes`, in preorder.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) {
        let mut grad_sum = 0.0;
        let mut hess_sum = 0.0;
        for &i in &self.rows[lo..hi] {
            grad_sum += self.gradients[i];
            hess_sum += self.hessians[i];
        }
        if depth >= self.params.max_depth || hi - lo < 2 {
            self.nodes.push(Node::Leaf {
                weight: self.leaf_weight(grad_sum, hess_sum),
            });
            return;
        }

        let n = self.rows.len();
        let x = self.x;
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for (fi, &feature) in self.features.iter().enumerate() {
            // Walk this node's rows in ascending feature order — the
            // pre-sorted list, no per-node sort.
            let order = &self.sorted[fi * n + lo..fi * n + hi];
            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in 0..order.len() - 1 {
                let i = order[w];
                gl += self.gradients[i];
                hl += self.hessians[i];
                let gr = grad_sum - gl;
                let hr = hess_sum - hl;
                // Do not split between identical feature values.
                if x.at(order[w], feature) == x.at(order[w + 1], feature) {
                    continue;
                }
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                let gain = self.gain(gl, hl, gr, hr);
                if gain > best.map_or(0.0, |b| b.0) + 1e-12 {
                    let threshold = 0.5 * (x.at(order[w], feature) + x.at(order[w + 1], feature));
                    best = Some((gain, feature, threshold));
                }
            }
        }

        match best {
            None => self.nodes.push(Node::Leaf {
                weight: self.leaf_weight(grad_sum, hess_sum),
            }),
            Some((_, feature, threshold)) => {
                let nl = self.partition(lo, hi, feature, threshold);
                let at = self.nodes.len();
                self.nodes.push(Node::Split {
                    feature: u32::try_from(feature).expect("feature index fits u32"),
                    threshold,
                    right: 0,
                });
                self.build(lo, lo + nl, depth + 1);
                set_right(self.nodes, at);
                self.build(lo + nl, hi, depth + 1);
            }
        }
    }

    /// Partitions every row list of segment `[lo, hi)` by the chosen split.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let n = self.rows.len();
        let x = self.x;
        let nl = stable_partition(&mut self.rows[lo..hi], self.scratch, x, feature, threshold);
        for fi in 0..self.features.len() {
            let seg = &mut self.sorted[fi * n + lo..fi * n + hi];
            let nl_sorted = stable_partition(seg, self.scratch, x, feature, threshold);
            debug_assert_eq!(nl, nl_sorted, "partitions must agree across row lists");
        }
        nl
    }
}

impl RegressionTree {
    /// Creates an unfitted tree.
    pub fn new(params: TreeParams) -> Self {
        Self {
            params,
            nodes: Vec::new(),
            n_features: 0,
        }
    }

    /// A fitted tree with the given preorder nodes, for tests that need
    /// exact thresholds.
    #[cfg(test)]
    pub(crate) fn from_nodes(nodes: Vec<Node>, n_features: usize) -> Self {
        Self {
            params: TreeParams::default(),
            nodes,
            n_features,
        }
    }

    /// Fits the tree to gradients and hessians on the given rows.
    ///
    /// `rows` indexes into `x`; the caller controls subsampling by passing a subset.
    ///
    /// # Errors
    ///
    /// Returns an error if the data is malformed.
    pub fn fit_gradients(
        &mut self,
        x: &Matrix,
        gradients: &[f64],
        hessians: &[f64],
        rows: &[usize],
        features: &[usize],
    ) -> Result<(), FitError> {
        crate::validate_matrix_training_set(x, gradients)?;
        self.fit_gradients_unchecked(x, gradients, hessians, rows, features)
    }

    /// The validated fit path: skips the `O(rows × cols)` finiteness scan so a
    /// boosting loop can validate its inputs once and fit many trees.
    pub(crate) fn fit_gradients_unchecked(
        &mut self,
        x: &Matrix,
        gradients: &[f64],
        hessians: &[f64],
        rows: &[usize],
        features: &[usize],
    ) -> Result<(), FitError> {
        self.fit_gradients_scratch(
            x,
            gradients,
            hessians,
            rows,
            features,
            None,
            &mut FitScratch::new(),
        )
    }

    /// The fully hoisted fit path a boosting loop drives: reuses `scratch`
    /// across trees, and — when `presorted` is given — skips the per-tree sort
    /// entirely.
    ///
    /// `presorted` stacks one stably pre-sorted copy of `rows` per feature
    /// *index* (`presorted[f * rows.len()..]` for feature `f`, ties in `rows`
    /// order).  It is only valid when every tree of the loop trains on the
    /// same `rows` in the same order (no row subsampling).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit_gradients_scratch(
        &mut self,
        x: &Matrix,
        gradients: &[f64],
        hessians: &[f64],
        rows: &[usize],
        features: &[usize],
        presorted: Option<&[usize]>,
        scratch: &mut FitScratch,
    ) -> Result<(), FitError> {
        if gradients.len() != hessians.len() {
            return Err(FitError::LengthMismatch {
                rows: gradients.len(),
                targets: hessians.len(),
            });
        }
        if rows.is_empty() || features.is_empty() {
            return Err(FitError::EmptyTrainingSet);
        }
        let n = rows.len();
        scratch.rows.clear();
        scratch.rows.extend_from_slice(rows);
        scratch.sorted.clear();
        scratch.sorted.resize(features.len() * n, 0);
        match presorted {
            // One copy per feature from the master order (sorted once by the
            // caller for the whole boosting run).
            Some(master) => {
                for (fi, &feature) in features.iter().enumerate() {
                    scratch.sorted[fi * n..(fi + 1) * n]
                        .copy_from_slice(&master[feature * n..(feature + 1) * n]);
                }
            }
            // Pre-sort once per feature (stable: ties keep caller row order);
            // the builder partitions these lists down the tree instead of
            // re-sorting per node.
            None => {
                for (fi, &feature) in features.iter().enumerate() {
                    let seg = &mut scratch.sorted[fi * n..(fi + 1) * n];
                    seg.copy_from_slice(rows);
                    seg.sort_by(|&a, &b| {
                        x.at(a, feature)
                            .partial_cmp(&x.at(b, feature))
                            .expect("finite features")
                    });
                }
            }
        }
        let mut builder = Builder {
            params: self.params,
            x,
            gradients,
            hessians,
            features,
            rows: &mut scratch.rows,
            sorted: &mut scratch.sorted,
            scratch: &mut scratch.partition,
            nodes: &mut scratch.nodes,
        };
        builder.nodes.clear();
        builder.build(0, n, 0);
        self.n_features = x.cols();
        self.nodes = scratch.nodes.clone();
        Ok(())
    }

    /// Convenience wrapper: fits the tree directly on residual targets (gradient = -y,
    /// hessian = 1), i.e. a plain CART with shrunk leaves.
    ///
    /// # Errors
    ///
    /// Returns an error if the data is malformed.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), FitError> {
        crate::validate_training_set(x, y)?;
        let matrix = Matrix::from_rows(x);
        let gradients: Vec<f64> = y.iter().map(|v| -v).collect();
        let hessians = vec![1.0; y.len()];
        let rows: Vec<usize> = (0..matrix.rows()).collect();
        let features: Vec<usize> = (0..matrix.cols()).collect();
        self.fit_gradients_unchecked(&matrix, &gradients, &hessians, &rows, &features)
    }

    /// Predicts the leaf weight for one row.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful fit.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "predict called before fit");
        let mut i = 0;
        loop {
            match self.nodes[i] {
                Node::Leaf { weight } => return weight,
                Node::Split {
                    feature,
                    threshold,
                    right,
                } => {
                    i = if x[feature as usize] <= threshold {
                        i + 1
                    } else {
                        right as usize
                    };
                }
            }
        }
    }

    /// Number of leaves of the fitted tree (0 before fitting).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|node| matches!(node, Node::Leaf { .. }))
            .count()
    }

    /// The fitted nodes in preorder (empty before fitting), for the
    /// flat-forest compiler.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

// --- the saved form: a tree as its shape plus its leaves -----------------
//
// A fitted tree is exactly its shape (the preorder split features,
// thresholds and node layout) plus its leaf weights; its `TreeParams` and
// `n_features` are its forest's.  The forest codec
// ([`GradientBoosting`](crate::GradientBoosting)) writes each distinct shape
// once and every tree as a shape index plus its leaves, so these are text
// tokens rather than scopes.

/// Deepest split nesting a decoded shape may carry.  Fitted trees are
/// single-digit deep ([`TreeParams::max_depth`]); the bound only exists so a
/// corrupted or crafted file fails with an error instead of overflowing the
/// stack through unbounded recursion.
const MAX_DECODE_DEPTH: usize = 64;

/// A tree shape read back from [`RegressionTree::push_shape`]'s text: the
/// nodes of every tree of that shape, leaf weights still zero.
#[derive(Debug)]
pub(crate) struct Shape {
    /// The nodes in preorder; a complete tree.
    nodes: Vec<Node>,
    /// How many of the nodes are leaves.
    leaves: usize,
}

impl RegressionTree {
    /// Number of features the tree was fitted on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Appends the tree's shape: its nodes in preorder, comma-separated, a
    /// split as `feature:threshold` (the threshold's 16 hex digits of
    /// IEEE-754 bits) and a leaf as `L`.  Trees with the same shape text
    /// send every row to the same leaf slot.
    pub(crate) fn push_shape(&self, out: &mut String) {
        let mut separator = "";
        for node in &self.nodes {
            out.push_str(separator);
            separator = ",";
            match *node {
                Node::Leaf { .. } => out.push('L'),
                Node::Split {
                    feature, threshold, ..
                } => {
                    write!(out, "{feature}:").expect("writing to a String cannot fail");
                    push_bits(out, threshold);
                }
            }
        }
    }

    /// Appends the tree's leaf weights in preorder (the order of the `L`s
    /// of its shape), comma-separated, each as 16 hex digits of its bits.
    pub(crate) fn push_leaves(&self, out: &mut String) {
        let mut separator = "";
        for node in &self.nodes {
            if let Node::Leaf { weight } = *node {
                out.push_str(separator);
                separator = ",";
                push_bits(out, weight);
            }
        }
    }
}

impl Shape {
    /// Reads a [`RegressionTree::push_shape`] token whose splits may read
    /// features `0..n_features`.
    ///
    /// # Errors
    ///
    /// Returns the reason the text is not such a shape: a malformed entry,
    /// feature or threshold, a feature out of range, nesting deeper than
    /// [`MAX_DECODE_DEPTH`] splits, or entries missing or left over.
    pub(crate) fn parse(text: &str, n_features: usize) -> Result<Self, String> {
        let mut shape = Self {
            nodes: Vec::new(),
            leaves: 0,
        };
        let mut entries = text.split(',');
        shape.parse_node(&mut entries, 0, n_features)?;
        match entries.next() {
            None => Ok(shape),
            Some(entry) => Err(format!("entry '{entry}' after a complete tree")),
        }
    }

    fn parse_node<'a>(
        &mut self,
        entries: &mut impl Iterator<Item = &'a str>,
        depth: usize,
        n_features: usize,
    ) -> Result<(), String> {
        if depth > MAX_DECODE_DEPTH {
            return Err(format!("tree nests deeper than {MAX_DECODE_DEPTH} splits"));
        }
        let entry = entries
            .next()
            .ok_or("shape ends before its tree is complete")?;
        if entry == "L" {
            self.nodes.push(Node::Leaf { weight: 0.0 });
            self.leaves += 1;
            return Ok(());
        }
        let (feature, threshold) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry '{entry}'"))?;
        let feature = match parse_u64(feature) {
            Some(f) if f < n_features as u64 => {
                u32::try_from(f).map_err(|_| format!("split feature {f} exceeds u32"))?
            }
            Some(f) => {
                return Err(format!(
                    "split feature {f} out of range ({n_features} features)"
                ))
            }
            None => return Err(format!("malformed integer '{feature}'")),
        };
        let threshold =
            parse_f64_bits(threshold).ok_or_else(|| format!("malformed bits '{threshold}'"))?;
        let at = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            threshold,
            right: 0,
        });
        self.parse_node(entries, depth + 1, n_features)?;
        set_right(&mut self.nodes, at);
        self.parse_node(entries, depth + 1, n_features)
    }

    /// The tree of this shape whose leaf weights are the
    /// [`RegressionTree::push_leaves`] token `leaves`, fitted with `params`
    /// on `n_features` features.
    ///
    /// # Errors
    ///
    /// Returns the reason `leaves` does not fit the shape: another number of
    /// weights than the shape has leaves, or a malformed weight.
    pub(crate) fn tree(
        &self,
        leaves: &str,
        params: TreeParams,
        n_features: usize,
    ) -> Result<RegressionTree, String> {
        // Every weight is 16 hex digits and the separators single commas, so
        // a well-formed token is read at fixed offsets; any other text is
        // explained by `leaf_error`.
        let mut nodes = self.nodes.clone();
        let well_formed = leaves.len() + 1 == 17 * self.leaves && {
            let mut at = 0;
            nodes.iter_mut().all(|node| match node {
                Node::Leaf { weight } => {
                    let parsed = leaves.get(at..at + 16).and_then(parse_f64_bits);
                    let separated = matches!(leaves.as_bytes().get(at + 16), None | Some(b','));
                    at += 17;
                    parsed.map(|w| *weight = w).is_some() && separated
                }
                Node::Split { .. } => true,
            })
        };
        if !well_formed {
            return Err(self.leaf_error(leaves));
        }
        Ok(RegressionTree {
            params,
            nodes,
            n_features,
        })
    }

    /// Why `leaves` is not this shape's leaf weights: their count, or the
    /// first malformed weight.
    fn leaf_error(&self, leaves: &str) -> String {
        let count = leaves.split(',').count();
        if count != self.leaves {
            return format!(
                "{count} leaf weights for a shape with {} leaves",
                self.leaves
            );
        }
        let token = leaves
            .split(',')
            .find(|token| parse_f64_bits(token).is_none())
            .unwrap_or(leaves);
        format!("malformed bits '{token}'")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_tree_predicts_shrunk_mean() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![10.0, 20.0, 30.0];
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 0,
            lambda: 0.0,
            ..TreeParams::default()
        });
        t.fit(&x, &y).unwrap();
        assert_eq!(t.leaf_count(), 1);
        assert!((t.predict(&[5.0]) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn splits_a_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 2,
            lambda: 0.0,
            ..TreeParams::default()
        });
        t.fit(&x, &y).unwrap();
        assert!((t.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[15.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 2,
            lambda: 0.0,
            ..TreeParams::default()
        });
        t.fit(&x, &y).unwrap();
        assert!(t.leaf_count() <= 4);
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0.0, 0.0, 0.0, 100.0];
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 4,
            min_child_weight: 2.0,
            lambda: 0.0,
            ..TreeParams::default()
        });
        t.fit(&x, &y).unwrap();
        // The outlier cannot be isolated into its own leaf (child weight 1 < 2).
        assert!(t.predict(&[3.0]) < 100.0);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 0 is noise-free signal, feature 1 is a constant.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 42.0]).collect();
        let y: Vec<f64> = (0..30).map(|i| if i < 15 { -2.0 } else { 2.0 }).collect();
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 1,
            lambda: 0.0,
            ..TreeParams::default()
        });
        t.fit(&x, &y).unwrap();
        assert_eq!(t.leaf_count(), 2);
        assert!(t.predict(&[0.0, 42.0]) < 0.0);
        assert!(t.predict(&[29.0, 42.0]) > 0.0);
    }

    #[test]
    fn empty_row_selection_is_an_error() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        let g = vec![1.0];
        let h = vec![1.0];
        let mut t = RegressionTree::new(TreeParams::default());
        assert!(t.fit_gradients(&x, &g, &h, &[], &[0]).is_err());
    }

    #[test]
    fn subset_rows_and_features_fit_only_the_selection() {
        // Rows 0..4 carry the signal on feature 1; rows 4..8 would flip it.
        let x = Matrix::from_rows(
            &(0..8)
                .map(|i| vec![99.0, i as f64])
                .collect::<Vec<Vec<f64>>>(),
        );
        let g: Vec<f64> = (0..8).map(|i| if i < 2 { 1.0 } else { -1.0 }).collect();
        let h = vec![1.0; 8];
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 2,
            lambda: 0.0,
            ..TreeParams::default()
        });
        t.fit_gradients(&x, &g, &h, &[0, 1, 2, 3], &[1]).unwrap();
        // Only rows 0..4 were seen: the split separates {0,1} from {2,3}.
        assert!(t.predict(&[99.0, 0.0]) < 0.0);
        assert!(t.predict(&[99.0, 3.0]) > 0.0);
    }
}
