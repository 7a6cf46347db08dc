//! Flat-forest inference: a fitted boosting ensemble compiled into its
//! distinct tree *shapes* plus one leaf table per tree.
//!
//! A tree's shape is everything that decides which leaf a row reaches: the
//! split features, the split thresholds and the node layout.  The leaf
//! weights are not part of it.  Few-shot fits reuse shapes heavily: a
//! boosting round over six training rows can only pick among a handful of
//! thresholds, so round after round grows the same splits with new leaf
//! weights (the trained AutoPower model has ~1,000 distinct shapes in
//! ~12,500 trees).  A [`FlatForest`] therefore stores
//!
//! * every distinct shape once, preorder in one packed 16-byte-node array
//!   (split feature, threshold and right-child index per node; the left child
//!   is implicitly the next node), and
//! * per tree, in boosting order, its shape index and its leaf weights
//!   already multiplied by the learning rate, in the shape's leaf-slot order.
//!
//! To score a row, each shape is walked **once** to find its leaf slot; then
//! every tree adds `leaves[slot of its shape]` to the accumulator, trees in
//! boosting order.
//!
//! # Why the result is bit-identical to the recursive ensemble
//!
//! * The leaf a tree reaches depends only on its shape (the compare
//!   `x[feature] <= threshold` sends NaN right in both walks), so the shared
//!   walk picks exactly the leaf the tree's own walk would.
//! * `learning_rate · leaf` is one IEEE-754 multiplication either way;
//!   computing it at compile time gives the same bits as computing it per
//!   row.
//! * The accumulator adds the same terms in the same (boosting) order as
//!   `base_score + Σ learning_rate · leaf`.
//!
//! Trees whose leaves are all `±0.0` are dropped at compile time (see
//! [`all_leaves_zero`]), which is also a bitwise no-op.  The parity
//! proptests below and `tests/training_parity.rs` pin all of this against
//! [`GradientBoosting::predict_recursive`](crate::GradientBoosting::predict_recursive).
//!
//! # Region tables
//!
//! A forest's prediction is piecewise constant: it depends on a row only
//! through which side of each split threshold every used feature falls.
//! With feature `f`'s distinct thresholds sorted as `t_0 < … < t_{k-1}`,
//! the row's interval index on `f` is the number of thresholds `t` with
//! `!(x_f <= t)`; it picks one of the `k_f + 1` intervals `(-∞, t_0]`,
//! `(t_0, t_1]`, …, `(t_{k-1}, +∞)`.  The intervals of all used features
//! form a grid of `Π (k_f + 1)` cells, and every row in one cell reaches
//! the same leaf in every tree.  Few-shot fits (the power sub-models train
//! on six rows) pick among a handful of thresholds, so their grids are
//! small: the fast-trained AutoPower model's 104 forests hold 4,287 cells
//! in all.  [`FlatForest::compile`] therefore tabulates each forest whose
//! grid has at most [`MAX_REGION_CELLS`] cells, and scoring a row becomes
//! one branch-free threshold count per used feature plus one `f64` load.
//! Larger grids (the surrogate's forests, fitted on many rows) keep the
//! shape walk.
//!
//! Each cell's entry is the shape walk's own result on one representative
//! row of the cell, so its bits are the walk's by construction:
//!
//! * interval `i < k` is represented by `x_f = t_i`, which meets every split
//!   `x_f <= t_j` exactly as any row of `(t_{i-1}, t_i]` does;
//! * the last interval is represented by NaN, which goes right at every
//!   split exactly as any `x_f > t_{k-1}` does — and a NaN feature in a
//!   scored row counts `k` thresholds, so it lands in that same cell;
//! * thresholds are deduplicated by value, so `-0.0` and `+0.0` share one
//!   interval boundary: `x <= -0.0` and `x <= +0.0` agree for every `x`.
//!
//! Features no split reads are `0.0` in the representative rows; only the
//! always-left padding splits (see [`push_node`]) read them.

use crate::matrix::Matrix;
use crate::tree::{Node, RegressionTree};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::select_unpredictable;

/// Depth of the subtree at `nodes[i]` of a preorder tree (a bare leaf has
/// depth 0).
fn node_depth(nodes: &[Node], i: usize) -> u32 {
    match nodes[i] {
        Node::Leaf { .. } => 0,
        Node::Split { right, .. } => {
            1 + node_depth(nodes, i + 1).max(node_depth(nodes, right as usize))
        }
    }
}

/// Whether every leaf of the tree is exactly `±0.0`.
///
/// Such a tree contributes `learning_rate · ±0.0 = ±0.0` to every
/// prediction, and adding `±0.0` to the leaf-sum accumulator is a bitwise
/// no-op: the accumulator starts at `+0.0` and IEEE-754 round-to-nearest
/// addition can never produce `-0.0` from a `+0.0` starting point (exact
/// cancellation yields `+0.0`), so the accumulator is never `-0.0` and
/// `acc + ±0.0` returns `acc` bit for bit.  Boosting drives residuals to
/// exactly zero on the few-shot training sets this crate targets, so late
/// rounds routinely emit these all-zero trees — skipping them is pure saved
/// work, pinned bit-identical by the flat-vs-recursive parity tests.
fn all_leaves_zero(nodes: &[Node]) -> bool {
    nodes.iter().all(|node| match node {
        Node::Leaf { weight } => *weight == 0.0,
        Node::Split { .. } => true,
    })
}

/// Sentinel in [`FlatNode::feature`] marking a leaf node (its `right` slot
/// then holds the leaf slot number).
const LEAF: u32 = u32::MAX;

/// One packed shape node: 16 bytes, preorder layout (left child at
/// `index + 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    /// Split feature index; [`LEAF`] marks a leaf.
    feature: u32,
    /// Right-child node index (`x[feature] > threshold`), or the leaf slot
    /// number on leaves.
    right: u32,
    /// Split threshold (unused on leaves).
    threshold: f64,
}

/// The shape-dedup key of a tree node.  A preorder node list with its leaves
/// marked determines the tree, so the keys of a tree's nodes identify its
/// shape, and with it the padded shape [`push_node`] lays out.  Thresholds
/// compare bit-exactly, so `-0.0` and `+0.0` stay distinct shapes
/// (conservative; they route rows identically).
fn shape_key(node: &Node) -> [u64; 2] {
    match *node {
        Node::Leaf { .. } => [u64::MAX, 0],
        Node::Split {
            feature, threshold, ..
        } => [u64::from(feature), threshold.to_bits()],
    }
}

/// One boosting round: which shape it walks and where its leaves start.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TreeRef {
    /// Index into [`FlatForest::shapes`].
    shape: u32,
    /// Offset of this tree's scaled leaf weights in [`FlatForest::leaves`].
    leaves: u32,
}

/// Rows [`FlatForest::predict_into`] scores together.  Each lane keeps its
/// leaf sum in a register and the lanes' walks and sums are independent, so
/// their loads and additions overlap instead of queueing behind one
/// dependency chain.
const LANES: usize = 8;

thread_local! {
    /// Leaf-slot scratch reused by every predict call on this thread.  It
    /// only grows, so a call neither allocates nor zero-fills once the
    /// thread has scored its largest forest.
    static SLOTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Most cells a [`RegionTable`] may hold (32 KiB of `f64`).  Forests with a
/// larger threshold grid keep the shape walk.
const MAX_REGION_CELLS: usize = 4096;

/// One used feature's axis of a [`RegionTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Axis {
    /// The feature the axis reads.
    feature: u32,
    /// This feature's sorted, value-distinct thresholds:
    /// `RegionTable::thresholds[start..end]`.
    start: u32,
    end: u32,
    /// Cell-index step of one interval along this axis.
    stride: u32,
}

/// A forest tabulated over its threshold grid (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
struct RegionTable {
    /// Used features in ascending order; the first axis varies fastest.
    axes: Vec<Axis>,
    /// Every axis's thresholds, axis after axis.
    thresholds: Vec<f64>,
    /// The prediction of every cell, indexed by the mixed-radix sum of the
    /// row's interval indices.
    cells: Vec<f64>,
}

impl RegionTable {
    /// The thresholds of `axis`.
    fn thresholds(&self, axis: &Axis) -> &[f64] {
        &self.thresholds[axis.start as usize..axis.end as usize]
    }

    /// Looks up the cell `x` falls in.  A feature's interval index is the
    /// count of its thresholds `t` with `!(x_f <= t)`: the ones strictly
    /// below `x_f`, or all of them for NaN.
    #[inline]
    fn lookup(&self, x: &[f64]) -> f64 {
        let mut cell = 0;
        for axis in &self.axes {
            let value = x[axis.feature as usize];
            let interval: usize = self
                .thresholds(axis)
                .iter()
                .map(|&t| 1 - usize::from(value <= t))
                .sum();
            cell += interval * axis.stride as usize;
        }
        self.cells[cell]
    }
}

/// A boosted ensemble compiled for shape-shared, allocation-light inference.
///
/// Compiled by [`GradientBoosting`](crate::GradientBoosting) at fit and decode
/// time; obtain one via
/// [`GradientBoosting::forest`](crate::GradientBoosting::forest).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatForest {
    base_score: f64,
    /// Every distinct shape's nodes, preorder, shapes back to back.  Every
    /// root-to-leaf path is padded to exactly `depth` steps.
    nodes: Vec<FlatNode>,
    /// Root node index of each distinct shape, in order of first use.
    shapes: Vec<u32>,
    /// The trees that contribute, in boosting order.
    trees: Vec<TreeRef>,
    /// `learning_rate · weight` of every tree's leaves, tree after tree, each
    /// tree's block in its shape's leaf-slot order.
    leaves: Vec<f64>,
    /// Depth of the deepest tree (0 = every tree is a bare leaf): the fixed
    /// step count of every shape walk.
    depth: u32,
    /// The forest tabulated over its threshold grid, when the grid has at
    /// most [`MAX_REGION_CELLS`] cells; scoring then skips the shape walk.
    regions: Option<RegionTable>,
}

impl FlatForest {
    /// Compiles a fitted ensemble into shared shapes and per-tree leaves.
    ///
    /// Unfitted trees are skipped (an ensemble mid-`fit` has none); an empty
    /// tree list yields a forest that predicts `base_score` everywhere.
    pub(crate) fn compile(base_score: f64, learning_rate: f64, trees: &[RegressionTree]) -> Self {
        // All-zero trees are bitwise no-ops (see `all_leaves_zero`): dropping
        // them here removes them from every predict path without changing a
        // single output bit.
        let live: Vec<&[Node]> = trees
            .iter()
            .map(RegressionTree::nodes)
            .filter(|nodes| !nodes.is_empty() && !all_leaves_zero(nodes))
            .collect();
        let mut forest = Self {
            base_score,
            depth: live
                .iter()
                .map(|nodes| node_depth(nodes, 0))
                .max()
                .unwrap_or(0),
            ..Self::default()
        };
        let mut known: HashMap<Vec<u64>, u32> = HashMap::new();
        let (mut shape, mut key, mut splits) = (Vec::new(), Vec::new(), Vec::new());
        for nodes in live {
            let leaves = index(forest.leaves.len());
            key.clear();
            key.extend(nodes.iter().flat_map(shape_key));
            let shape_id = match known.get(key.as_slice()) {
                Some(&id) => {
                    // Leaf slots are numbered in preorder, padded or not.
                    forest
                        .leaves
                        .extend(nodes.iter().filter_map(|node| match node {
                            Node::Leaf { weight } => Some(learning_rate * weight),
                            Node::Split { .. } => None,
                        }));
                    id
                }
                None => {
                    shape.clear();
                    push_node(
                        nodes,
                        0,
                        forest.depth,
                        learning_rate,
                        &mut shape,
                        &mut 0,
                        &mut forest.leaves,
                        &mut splits,
                    );
                    let id = index(forest.shapes.len());
                    let base = index(forest.nodes.len());
                    forest.shapes.push(base);
                    forest
                        .nodes
                        .extend(shape.iter().map(|&node| match node.feature {
                            LEAF => node,
                            _ => FlatNode {
                                right: node.right + base,
                                ..node
                            },
                        }));
                    known.insert(key.clone(), id);
                    id
                }
            };
            forest.trees.push(TreeRef {
                shape: shape_id,
                leaves,
            });
        }
        forest.regions = forest.region_table(splits);
        forest
    }

    /// Tabulates the compiled forest over the grid of its split thresholds
    /// (`splits` holds every distinct shape's split features and
    /// thresholds), or `None` when the grid has more than
    /// [`MAX_REGION_CELLS`] cells.
    fn region_table(&self, mut splits: Vec<(u32, f64)>) -> Option<RegionTable> {
        // A NaN threshold sends every row right; no representative row could
        // stand for an interval below it.  Training never produces one.
        if splits.iter().any(|(_, t)| t.is_nan()) {
            return None;
        }
        splits.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        // `==` merges `-0.0` and `+0.0`: every split routes them alike.
        splits.dedup_by(|a, b| a == b);
        let mut table = RegionTable::default();
        let mut cells = 1;
        for axis in splits.chunk_by(|a, b| a.0 == b.0) {
            let start = index(table.thresholds.len());
            table.thresholds.extend(axis.iter().map(|&(_, t)| t));
            table.axes.push(Axis {
                feature: axis[0].0,
                start,
                end: index(table.thresholds.len()),
                stride: index(cells),
            });
            cells = (axis.len() + 1)
                .checked_mul(cells)
                .filter(|&cells| cells <= MAX_REGION_CELLS)?;
        }
        // One representative row per cell.  Padding splits read feature 0,
        // so a row has at least one entry.
        let width = table
            .axes
            .last()
            .map_or(1, |axis| axis.feature as usize + 1);
        let mut rows = vec![0.0; cells * width];
        for (cell, row) in rows.chunks_exact_mut(width).enumerate() {
            for axis in &table.axes {
                let thresholds = table.thresholds(axis);
                let interval = cell / axis.stride as usize % (thresholds.len() + 1);
                row[axis.feature as usize] = thresholds.get(interval).copied().unwrap_or(f64::NAN);
            }
        }
        // `self` has no table yet, so this scores the rows by the shape walk.
        self.predict_into(&Matrix::from_flat(cells, width, rows), &mut table.cells);
        Some(table)
    }

    /// Number of trees the forest sums (all-zero no-op trees are dropped at
    /// compile time, so this can be less than the fitted ensemble's
    /// boosting-round count).
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Number of distinct tree shapes, i.e. walks per scored row when the
    /// forest has no region table.
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// Number of cells in the forest's region table, or `None` when its
    /// threshold grid exceeds the cap and rows are scored by the shape walk.
    pub fn region_cells(&self) -> Option<usize> {
        self.regions.as_ref().map(|table| table.cells.len())
    }

    /// Writes, for every shape and lane `l`, the leaf slot the shape routes
    /// `rows[l]` to into `slots[shape * N + l]`.
    ///
    /// Every path is padded to `depth` steps, so a walk is a fixed count of
    /// conditional moves with no leaf-reached check.  The step is a
    /// [`select_unpredictable`]: split outcomes are data-dependent, and a
    /// branch on them mispredicts often enough to triple the walk's cost.
    /// [`FlatForest::score`] calls this with a literal depth for the depths
    /// the models use, so the inlined step loop unrolls.
    #[inline(always)]
    fn walk_shapes<const N: usize>(&self, depth: u32, rows: [&[f64]; N], slots: &mut [u32]) {
        let nodes = &self.nodes[..];
        for (&root, shape_slots) in self.shapes.iter().zip(slots.chunks_exact_mut(N)) {
            for (slot, x) in shape_slots.iter_mut().zip(rows) {
                let mut i = root as usize;
                for _ in 0..depth {
                    let node = nodes[i];
                    i = select_unpredictable(
                        x[node.feature as usize] <= node.threshold,
                        i + 1,
                        node.right as usize,
                    );
                }
                *slot = nodes[i].right;
            }
        }
    }

    /// Predicts `N` rows: walks every shape once per row, then adds every
    /// tree's leaf in boosting order.  `slots` is `shape_count() × N` entries
    /// of scratch.
    #[inline(always)]
    fn score<const N: usize>(&self, rows: [&[f64]; N], slots: &mut [u32]) -> [f64; N] {
        match self.depth {
            1 => self.walk_shapes(1, rows, slots),
            2 => self.walk_shapes(2, rows, slots),
            3 => self.walk_shapes(3, rows, slots),
            4 => self.walk_shapes(4, rows, slots),
            depth => self.walk_shapes(depth, rows, slots),
        }
        let mut acc = [0.0; N];
        for tree in &self.trees {
            let base = tree.leaves as usize;
            let tree_slots = &slots[tree.shape as usize * N..][..N];
            for (acc, &slot) in acc.iter_mut().zip(tree_slots) {
                *acc += self.leaves[base + slot as usize];
            }
        }
        acc.map(|sum| self.base_score + sum)
    }

    /// Runs `f` with `len` entries of leaf-slot scratch.  The walk writes
    /// every entry it reads, so stale contents never leak into a result.
    fn with_slots<T>(len: usize, f: impl FnOnce(&mut [u32]) -> T) -> T {
        SLOTS.with_borrow_mut(|slots| {
            if slots.len() < len {
                slots.resize(len, 0);
            }
            f(&mut slots[..len])
        })
    }

    /// Predicts one row: `base_score + Σ learning_rate · leaf`, trees in
    /// boosting order (bit-identical to the recursive ensemble), looked up
    /// in the region table when the forest has one.
    pub fn predict_row(&self, x: &[f64]) -> f64 {
        if let Some(table) = &self.regions {
            return table.lookup(x);
        }
        let [y] = Self::with_slots(self.shapes.len(), |slots| self.score([x], slots));
        y
    }

    /// Batched prediction: scores every row of `x` into `out` (cleared
    /// first).
    ///
    /// Rows are looked up in the region table, or scored eight at a time
    /// through the same shape walk and leaf sums as
    /// [`FlatForest::predict_row`], so every output is bit-identical to it.
    pub fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        out.clear();
        if let Some(table) = &self.regions {
            out.extend((0..x.rows()).map(|r| table.lookup(x.row(r))));
            return;
        }
        out.resize(x.rows(), 0.0);
        Self::with_slots(self.shapes.len() * LANES, |slots| {
            let mut lanes = out.chunks_exact_mut(LANES);
            for (g, group) in lanes.by_ref().enumerate() {
                let rows = std::array::from_fn(|l| x.row(g * LANES + l));
                group.copy_from_slice(&self.score::<LANES>(rows, slots));
            }
            let tail = lanes.into_remainder();
            let first = x.rows() - tail.len();
            for (r, y) in (first..).zip(tail) {
                [*y] = self.score([x.row(r)], &mut slots[..self.shapes.len()]);
            }
        });
    }
}

/// Converts a table length to the `u32` index the packed layout stores.
fn index(len: usize) -> u32 {
    u32::try_from(len).expect("forest exceeds u32 indices")
}

/// Flattens the subtree at `nodes[i]` into `shape` (indices relative to the
/// shape's root) with `levels` walk steps left to spend, numbering leaves in
/// preorder from `*slots`, appending `learning_rate · weight` per leaf to
/// `leaves` and every real split's feature and threshold to `splits` (the
/// region table's grid; padding splits are not recorded).
///
/// A leaf reached with steps to spare gets a chain of pass-through splits
/// above it — `x[0] <= +∞` always descends left, and the stored right child
/// aliases the left so even a NaN probe converges — so every root-to-leaf
/// path takes exactly the forest's depth in steps.  The padded shape reaches
/// the same leaf as the original tree for every input.
#[allow(clippy::too_many_arguments)]
fn push_node(
    nodes: &[Node],
    i: usize,
    levels: u32,
    learning_rate: f64,
    shape: &mut Vec<FlatNode>,
    slots: &mut u32,
    leaves: &mut Vec<f64>,
    splits: &mut Vec<(u32, f64)>,
) {
    let idx = index(shape.len());
    match nodes[i] {
        Node::Leaf { .. } if levels > 0 => {
            shape.push(FlatNode {
                feature: 0,
                right: idx + 1,
                threshold: f64::INFINITY,
            });
            push_node(
                nodes,
                i,
                levels - 1,
                learning_rate,
                shape,
                slots,
                leaves,
                splits,
            );
        }
        Node::Leaf { weight } => {
            shape.push(FlatNode {
                feature: LEAF,
                right: *slots,
                threshold: 0.0,
            });
            *slots += 1;
            leaves.push(learning_rate * weight);
        }
        Node::Split {
            feature,
            threshold,
            right,
        } => {
            shape.push(FlatNode {
                feature,
                right: 0,
                threshold,
            });
            splits.push((feature, threshold));
            // Preorder: the left subtree directly follows its parent, so only
            // the right-child index needs storing.
            push_node(
                nodes,
                i + 1,
                levels - 1,
                learning_rate,
                shape,
                slots,
                leaves,
                splits,
            );
            shape[idx as usize].right = index(shape.len());
            push_node(
                nodes,
                right as usize,
                levels - 1,
                learning_rate,
                shape,
                slots,
                leaves,
                splits,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::{GbdtParams, GradientBoosting};
    use crate::Regressor;
    use proptest::prelude::*;

    fn fitted(rows: usize, seed: u64, subsample: f64) -> (GradientBoosting, Vec<Vec<f64>>) {
        let x: Vec<Vec<f64>> = (0..rows)
            .map(|i| vec![i as f64, ((i * 7 + 3) % 11) as f64, (i % 4) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 0.5 + r[1] * r[2]).collect();
        let mut m = GradientBoosting::new(GbdtParams {
            n_estimators: 25,
            subsample,
            colsample: subsample,
            seed,
            ..GbdtParams::default()
        });
        m.fit(&x, &y).unwrap();
        (m, x)
    }

    #[test]
    fn flat_predictions_match_recursive_bit_for_bit() {
        for subsample in [1.0, 0.7] {
            let (m, x) = fitted(40, 9, subsample);
            for row in &x {
                assert_eq!(m.predict(row).to_bits(), m.predict_recursive(row).to_bits());
            }
        }
    }

    #[test]
    fn batched_predictions_match_row_by_row_bit_for_bit() {
        // 200 rows crosses the row-block boundary several times and leaves a
        // partial last block.
        let (m, x) = fitted(200, 3, 1.0);
        let matrix = Matrix::from_rows(&x);
        let mut out = Vec::new();
        m.forest().predict_into(&matrix, &mut out);
        assert_eq!(out.len(), x.len());
        for (row, got) in x.iter().zip(&out) {
            assert_eq!(got.to_bits(), m.forest().predict_row(row).to_bits());
        }
    }

    #[test]
    fn compiled_forest_mirrors_the_tree_list() {
        let (m, _) = fitted(30, 1, 1.0);
        assert_eq!(m.forest().tree_count(), m.tree_count());
        assert!((1..=m.tree_count()).contains(&m.forest().shape_count()));
    }

    #[test]
    fn bare_leaf_forests_score_empty_rows() {
        let x = vec![vec![1.0]; 4];
        let mut m = GradientBoosting::new(GbdtParams {
            n_estimators: 5,
            max_depth: 0,
            ..GbdtParams::default()
        });
        m.fit(&x, &[1.0, 2.0, 3.0, 4.5]).unwrap();
        assert!(m.forest().shape_count() <= 1);
        assert_eq!(
            m.forest().predict_row(&[]).to_bits(),
            m.predict_recursive(&[]).to_bits()
        );
    }

    /// The same forest with its region table removed: scores every row by
    /// the shape walk.
    fn shape_walk(forest: &FlatForest) -> FlatForest {
        FlatForest {
            regions: None,
            ..forest.clone()
        }
    }

    fn split(feature: u32, threshold: f64, right: u32) -> Node {
        Node::Split {
            feature,
            threshold,
            right,
        }
    }

    fn leaf(weight: f64) -> Node {
        Node::Leaf { weight }
    }

    #[test]
    fn signed_zero_thresholds_share_one_interval_boundary() {
        let trees = [
            vec![split(0, -0.0, 2), leaf(1.0), leaf(2.0)],
            vec![
                split(0, 0.0, 2),
                leaf(4.0),
                split(1, -1.5, 4),
                leaf(8.0),
                leaf(16.0),
            ],
        ]
        .map(|nodes| RegressionTree::from_nodes(nodes, 2));
        let forest = FlatForest::compile(0.25, 0.5, &trees);
        let table = forest
            .regions
            .as_ref()
            .expect("a two-tree forest is tabulated");
        // Feature 0 has one boundary (at zero), feature 1 one (at -1.5).
        assert_eq!(table.thresholds.len(), 2);
        assert_eq!(forest.region_cells(), Some(4));
        let walk = shape_walk(&forest);
        let zero = f64::from_bits(1);
        for x0 in [-zero, -0.0, 0.0, zero, f64::NAN] {
            for x1 in [-2.0, -1.5, 0.0, f64::NAN] {
                let row = [x0, x1];
                let expected: f64 = trees.iter().map(|t| 0.5 * t.predict(&row)).sum();
                assert_eq!(
                    forest.predict_row(&row).to_bits(),
                    (0.25 + expected).to_bits()
                );
                assert_eq!(
                    forest.predict_row(&row).to_bits(),
                    walk.predict_row(&row).to_bits()
                );
            }
        }
    }

    #[test]
    fn forests_above_the_cell_cap_keep_the_shape_walk() {
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64, ((i * 37) % 200) as f64, ((i * 91) % 200) as f64])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (r[0] * 0.1).sin() + r[1] * r[2] * 1e-3)
            .collect();
        let mut m = GradientBoosting::new(GbdtParams {
            n_estimators: 60,
            max_depth: 4,
            ..GbdtParams::default()
        });
        m.fit(&x, &y).unwrap();
        let forest = m.forest();
        assert_eq!(forest.region_cells(), None);
        let mut batched = Vec::new();
        forest.predict_into(&Matrix::from_rows(&x), &mut batched);
        for (row, got) in x.iter().zip(&batched) {
            let recursive = m.predict_recursive(row).to_bits();
            assert_eq!(forest.predict_row(row).to_bits(), recursive);
            assert_eq!(got.to_bits(), recursive);
        }
    }

    proptest! {
        /// Flat inference is bit-identical to the recursive reference across
        /// randomly shaped, randomly subsampled fitted forests.
        #[test]
        fn flat_matches_recursive_on_random_forests(
            seed in 0u64..1000,
            n_estimators in 1usize..30,
            max_depth in 1usize..5,
            subsample in 0.4f64..1.0,
            raw in proptest::collection::vec(-50.0f64..50.0, 24..120),
        ) {
            let x: Vec<Vec<f64>> = raw.chunks_exact(3).map(<[f64]>::to_vec).collect();
            let y: Vec<f64> = x.iter().map(|r| r[0] - 2.0 * r[1] + r[2] * r[2] * 0.1).collect();
            let mut m = GradientBoosting::new(GbdtParams {
                n_estimators,
                max_depth,
                subsample,
                colsample: subsample,
                seed,
                ..GbdtParams::default()
            });
            m.fit(&x, &y).unwrap();
            let matrix = Matrix::from_rows(&x);
            let mut batched = Vec::new();
            m.forest().predict_into(&matrix, &mut batched);
            for (i, row) in x.iter().enumerate() {
                let flat = m.predict(row);
                let recursive = m.predict_recursive(row);
                prop_assert_eq!(flat.to_bits(), recursive.to_bits());
                prop_assert_eq!(batched[i].to_bits(), recursive.to_bits());
            }
        }

        /// The few-shot regime the power model trains in: 6 rows and 120
        /// boosting rounds reuse a handful of thresholds, so many trees share
        /// a shape and the forest is tabulated.  The region table, the shape
        /// walk (batched and per row) and the recursive ensemble agree bit for
        /// bit on the training rows and on probes: random values, NaN, ±0,
        /// ±∞, every threshold exactly and the floats on either side of it.
        #[test]
        fn shared_shapes_match_recursive_on_few_shot_fits(
            max_depth in 1usize..5,
            raw in proptest::collection::vec(-50.0f64..50.0, 18),
            values in proptest::collection::vec(-60.0f64..60.0, 48),
            picks in proptest::collection::vec(0usize..1024, 48),
            kinds in proptest::collection::vec(0u8..10, 48),
        ) {
            let x: Vec<Vec<f64>> = raw.chunks_exact(3).map(<[f64]>::to_vec).collect();
            let y: Vec<f64> = x.iter().map(|r| r[0] * 1.5 - r[1] + r[2] * r[0] * 0.05).collect();
            let mut m = GradientBoosting::new(GbdtParams {
                n_estimators: 120,
                max_depth,
                ..GbdtParams::default()
            });
            m.fit(&x, &y).unwrap();
            let forest = m.forest();
            prop_assert!(
                forest.shape_count() < forest.tree_count(),
                "{} shapes for {} trees: sharing not exercised",
                forest.shape_count(),
                forest.tree_count()
            );
            let table = forest.regions.as_ref();
            prop_assert!(table.is_some(), "a six-row fit is tabulated");
            let thresholds = &table.unwrap().thresholds;
            let probes: Vec<f64> = values
                .iter()
                .zip(picks.iter().zip(&kinds))
                .map(|(&value, (&pick, &kind))| {
                    let t = thresholds[pick % thresholds.len()];
                    match kind {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => 0.0,
                        3 => f64::INFINITY,
                        4 => f64::NEG_INFINITY,
                        5 => t,
                        6 => t.next_up(),
                        7 => t.next_down(),
                        _ => value,
                    }
                })
                .collect();
            let rows: Vec<Vec<f64>> = x
                .iter()
                .cloned()
                .chain(probes.chunks_exact(3).map(<[f64]>::to_vec))
                .collect();
            let walk = shape_walk(forest);
            let matrix = Matrix::from_rows(&rows);
            let (mut batched, mut walked) = (Vec::new(), Vec::new());
            forest.predict_into(&matrix, &mut batched);
            walk.predict_into(&matrix, &mut walked);
            prop_assert_eq!(batched.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                let recursive = m.predict_recursive(row).to_bits();
                prop_assert_eq!(forest.predict_row(row).to_bits(), recursive);
                prop_assert_eq!(walk.predict_row(row).to_bits(), recursive);
                prop_assert_eq!(batched[i].to_bits(), recursive);
                prop_assert_eq!(walked[i].to_bits(), recursive);
            }
        }
    }
}
