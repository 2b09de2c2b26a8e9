//! Gradient-boosted regression trees with quantile uncertainty.
//!
//! skopt's GBRT surrogate estimates uncertainty by training three boosted
//! ensembles at the 0.16, 0.50, and 0.84 quantiles (±1σ of a normal) and
//! taking `std = (q84 − q16) / 2`. We implement quantile boosting directly:
//! shallow CART trees fitted to the quantile-loss pseudo-residuals, with
//! the leaf values replaced by the in-leaf residual quantile (the classic
//! "line search" step of gradient boosting).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tree::{DecisionTree, TreeConfig};
use crate::{validate_training_set, Prediction, Surrogate, SurrogateError};

/// Configuration of the boosted ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbrtConfig {
    /// Boosting rounds per quantile model.
    pub n_estimators: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Depth of each weak learner.
    pub max_depth: usize,
    /// Warm-start [`Surrogate::fit_update`]: when the training set grew
    /// by exactly one row since the previous fit, reuse the previous
    /// ensemble's first ¾ of the trees and re-boost only the tail on the
    /// extended data, instead of rebuilding all three quantile models
    /// from scratch. Early trees capture the coarse response surface and
    /// barely move when one trial is appended; the refreshed tail
    /// absorbs the new information. Any other update (first fit, resized
    /// or edited training set — e.g. when the BO loop's normalizers
    /// shift) falls back to a full refit automatically.
    pub warm_start: bool,
    /// With `warm_start`, rebuild the full ensemble from scratch on
    /// every `warm_refit_every`-th update anyway (mirroring
    /// `GpConfig::refit_every`): kept trees slowly drift away from the
    /// grown training set, and a periodic full boost re-syncs them so
    /// the approximation error cannot compound across a whole BO run.
    pub warm_refit_every: usize,
}

impl Default for GbrtConfig {
    fn default() -> Self {
        Self {
            n_estimators: 80,
            learning_rate: 0.1,
            max_depth: 3,
            warm_start: true,
            warm_refit_every: 4,
        }
    }
}

/// One boosted quantile model: an initial constant plus scaled trees whose
/// leaf "means" hold the in-leaf residual quantile.
#[derive(Debug, Clone)]
struct QuantileModel {
    tau: f64,
    init: f64,
    trees: Vec<DecisionTree>,
    learning_rate: f64,
}

impl QuantileModel {
    fn fit(x: &[Vec<f64>], y: &[f64], tau: f64, config: &GbrtConfig, rng: &mut StdRng) -> Self {
        let init = quantile(y, tau);
        let mut model = Self {
            tau,
            init,
            trees: Vec::with_capacity(config.n_estimators),
            learning_rate: config.learning_rate,
        };
        let mut pred: Vec<f64> = vec![init; y.len()];
        model.boost(x, y, &mut pred, config.n_estimators, config, rng);
        model
    }

    /// Appends `rounds` boosted trees, continuing from the running
    /// predictions `pred` (which it keeps up to date).
    fn boost(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        pred: &mut [f64],
        rounds: usize,
        config: &GbrtConfig,
        rng: &mut StdRng,
    ) {
        let tau = self.tau;
        let tree_config = TreeConfig {
            max_depth: Some(config.max_depth),
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        for _ in 0..rounds {
            // Quantile-loss pseudo-residuals: tau above, tau-1 below.
            let grad: Vec<f64> = y
                .iter()
                .zip(pred.iter())
                .map(|(yi, fi)| if yi > fi { tau } else { tau - 1.0 })
                .collect();
            // Grow the structure on the gradient, then re-value the leaves
            // with the tau-quantile of the actual residuals routed to them.
            let structure = DecisionTree::fit(x, &grad, &tree_config, rng);
            let tree = revalue_leaves(&structure, x, y, pred, tau);
            for (i, xi) in x.iter().enumerate() {
                pred[i] += config.learning_rate * tree.predict_mean(xi);
            }
            self.trees.push(tree);
        }
    }

    /// Warm refit after one appended sample: keep the first `keep`
    /// trees (fitted on the old data — their structure barely moves for
    /// a one-row extension), replay their predictions over the extended
    /// training set, and re-boost only the remaining rounds.
    fn warm_refit(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        keep: usize,
        config: &GbrtConfig,
        rng: &mut StdRng,
    ) {
        self.trees.truncate(keep);
        let mut pred: Vec<f64> = x
            .iter()
            .map(|xi| {
                self.init
                    + self.learning_rate
                        * self.trees.iter().map(|t| t.predict_mean(xi)).sum::<f64>()
            })
            .collect();
        let rounds = config.n_estimators.saturating_sub(self.trees.len());
        self.boost(x, y, &mut pred, rounds, config, rng);
    }

    fn predict(&self, point: &[f64]) -> f64 {
        self.init
            + self.learning_rate
                * self
                    .trees
                    .iter()
                    .map(|t| t.predict_mean(point))
                    .sum::<f64>()
    }
}

/// Rebuilds a tree with the same structure whose leaves hold the
/// tau-quantile of `y - pred` among the samples each leaf receives.
///
/// We keep this simple by refitting a tree on per-sample leaf targets: every
/// sample's target becomes its leaf's residual quantile, and a deep exact
/// tree reproduces the partition.
fn revalue_leaves(
    structure: &DecisionTree,
    x: &[Vec<f64>],
    y: &[f64],
    pred: &[f64],
    tau: f64,
) -> DecisionTree {
    use std::collections::HashMap;
    // Group samples by the leaf they fall into (keyed by leaf stats bits,
    // which uniquely identify a leaf in practice since means differ; to be
    // exact we key by a path-id computed from comparisons).
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, xi) in x.iter().enumerate() {
        groups
            .entry(leaf_path_id(structure, xi))
            .or_default()
            .push(i);
    }
    let mut targets = vec![0.0; x.len()];
    for idx in groups.values() {
        let residuals: Vec<f64> = idx.iter().map(|&i| y[i] - pred[i]).collect();
        let q = quantile(&residuals, tau);
        for &i in idx {
            targets[i] = q;
        }
    }
    // A deterministic exact tree on the piecewise-constant targets
    // reproduces the partition (or a refinement of it, which predicts the
    // same values).
    let mut rng = StdRng::seed_from_u64(0);
    DecisionTree::fit(x, &targets, &TreeConfig::default(), &mut rng)
}

/// Stable id of the leaf a point falls into (sequence of branch choices).
fn leaf_path_id(tree: &DecisionTree, point: &[f64]) -> u64 {
    // The public API exposes only leaf stats; combine them into a key.
    // Collisions would merge leaves with bit-identical (mean, var, count),
    // which predict identically anyway.
    let stats = tree.leaf_stats(point);
    let mut h = stats.mean.to_bits() ^ stats.var.to_bits().rotate_left(17);
    h ^= (stats.count as u64).rotate_left(33);
    h
}

fn quantile(values: &[f64], tau: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = tau.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The GBRT surrogate: three quantile ensembles (0.16 / 0.50 / 0.84).
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    config: GbrtConfig,
    seed: u64,
    models: Option<[QuantileModel; 3]>,
    dim: usize,
    /// The training set of the last fit, kept to detect the
    /// one-row-appended case [`GbrtConfig::warm_start`] accelerates.
    train: Option<(Vec<Vec<f64>>, Vec<f64>)>,
    /// Consecutive warm updates since the last full boost.
    warm_streak: usize,
}

impl GradientBoosting {
    /// Creates an unfitted GBRT surrogate.
    pub fn new(config: GbrtConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            models: None,
            dim: 0,
            train: None,
            warm_streak: 0,
        }
    }

    /// Whether a [`Surrogate::fit_update`] with `(x, y)` can take the
    /// warm path: a previous fit exists and exactly one row was appended
    /// to an otherwise untouched training set.
    fn appended_one_row(&self, x: &[Vec<f64>], y: &[f64]) -> bool {
        let Some((px, py)) = self.train.as_ref() else {
            return false;
        };
        self.models.is_some()
            && x.len() == px.len() + 1
            && y.len() == py.len() + 1
            && x.last().is_some_and(|row| row.len() == self.dim)
            && x[..px.len()] == px[..]
            && y[..py.len()] == py[..]
    }

    /// skopt-flavoured defaults (80 rounds, depth 3, lr 0.1).
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(GbrtConfig::default(), seed)
    }
}

impl Surrogate for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> crate::Result<()> {
        self.dim = validate_training_set(x, y)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let q16 = QuantileModel::fit(x, y, 0.16, &self.config, &mut rng);
        let q50 = QuantileModel::fit(x, y, 0.50, &self.config, &mut rng);
        let q84 = QuantileModel::fit(x, y, 0.84, &self.config, &mut rng);
        self.models = Some([q16, q50, q84]);
        self.train = Some((x.to_vec(), y.to_vec()));
        // A full boost re-syncs everything: the warm cadence restarts.
        self.warm_streak = 0;
        Ok(())
    }

    /// Warm-start refit (see `GbrtConfig::warm_start`): when exactly
    /// one trial was appended since the last fit, each quantile model
    /// keeps its first ¾ trees and re-boosts only the tail on the
    /// extended data — ~4× less tree fitting per BO step. Every other
    /// shape of update falls back to the plain reseed-and-refit, so the
    /// result is always a deterministic function of the call sequence.
    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> crate::Result<()> {
        let warm = self.config.warm_start
            && self.warm_streak + 1 < self.config.warm_refit_every.max(1)
            && self.appended_one_row(x, y);
        if !warm {
            self.warm_streak = 0;
            self.reseed(step_seed);
            return self.fit(x, y);
        }
        validate_training_set(x, y)?;
        let keep = (self.config.n_estimators * 3) / 4;
        let mut rng = StdRng::seed_from_u64(step_seed);
        let models = self.models.as_mut().expect("checked by appended_one_row");
        for model in models.iter_mut() {
            model.warm_refit(x, y, keep, &self.config, &mut rng);
        }
        self.warm_streak += 1;
        self.seed = step_seed;
        self.train = Some((x.to_vec(), y.to_vec()));
        Ok(())
    }

    fn predict(&self, point: &[f64]) -> crate::Result<Prediction> {
        let models = self.models.as_ref().ok_or(SurrogateError::NotFitted)?;
        if point.len() != self.dim {
            return Err(SurrogateError::DimensionMismatch {
                expected: format!("point of dimension {}", self.dim),
                found: format!("point of dimension {}", point.len()),
            });
        }
        let lo = models[0].predict(point);
        let mid = models[1].predict(point);
        let hi = models[2].predict(point);
        debug_assert_eq!(models[0].tau, 0.16);
        debug_assert_eq!(models[2].tau, 0.84);
        Ok(Prediction {
            mean: mid,
            std: ((hi - lo) / 2.0).max(0.0),
        })
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn name(&self) -> &'static str {
        "GBRT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        (x, y)
    }

    #[test]
    fn fits_a_linear_trend() {
        let (x, y) = line_data();
        let mut gbrt = GradientBoosting::with_defaults(1);
        gbrt.fit(&x, &y).unwrap();
        let p = gbrt.predict(&[0.5]).unwrap();
        assert!((p.mean - 2.5).abs() < 0.4, "mean {}", p.mean);
    }

    #[test]
    fn quantile_helper_matches_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn uncertainty_reflects_noise_spread() {
        // Heteroscedastic data: noisy right half.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64 / 39.0;
            x.push(vec![v]);
            let noise = if v > 0.5 {
                if i % 2 == 0 {
                    2.0
                } else {
                    -2.0
                }
            } else {
                0.0
            };
            y.push(v + noise);
        }
        let mut gbrt = GradientBoosting::with_defaults(2);
        gbrt.fit(&x, &y).unwrap();
        let calm = gbrt.predict(&[0.2]).unwrap();
        let noisy = gbrt.predict(&[0.8]).unwrap();
        assert!(noisy.std > calm.std, "{} vs {}", noisy.std, calm.std);
    }

    #[test]
    fn errors_before_fit_and_on_bad_dim() {
        let gbrt = GradientBoosting::with_defaults(0);
        assert_eq!(gbrt.predict(&[0.0]).unwrap_err(), SurrogateError::NotFitted);
        let (x, y) = line_data();
        let mut gbrt = gbrt;
        gbrt.fit(&x, &y).unwrap();
        assert!(matches!(
            gbrt.predict(&[]),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn warm_update_replays_identically() {
        let (x, y) = line_data();
        let run = || {
            let mut m = GradientBoosting::with_defaults(3);
            m.fit(&x[..20], &y[..20]).unwrap();
            for k in 21..=30 {
                m.fit_update(&x[..k], &y[..k], 50 + k as u64).unwrap();
            }
            m.predict(&[0.37]).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_update_tracks_full_refit_accuracy() {
        let (x, y) = line_data();
        let drive = |config: GbrtConfig| {
            let mut m = GradientBoosting::new(config, 3);
            m.fit(&x[..20], &y[..20]).unwrap();
            for k in 21..=30 {
                m.fit_update(&x[..k], &y[..k], k as u64).unwrap();
            }
            m
        };
        let warm = drive(GbrtConfig::default());
        let cold = drive(GbrtConfig {
            warm_start: false,
            ..GbrtConfig::default()
        });
        for q in [0.1, 0.5, 0.9] {
            let pw = warm.predict(&[q]).unwrap();
            let pc = cold.predict(&[q]).unwrap();
            let truth = 3.0 * q + 1.0;
            assert!((pw.mean - truth).abs() < 0.5, "warm {} at {q}", pw.mean);
            assert!(
                (pw.mean - pc.mean).abs() < 0.5,
                "warm {} vs cold {} at {q}",
                pw.mean,
                pc.mean
            );
        }
    }

    #[test]
    fn non_append_updates_fall_back_to_a_full_refit() {
        let (x, y) = line_data();
        // Warm-start off: fit_update is exactly reseed + fit.
        let mut off = GradientBoosting::new(
            GbrtConfig {
                warm_start: false,
                ..GbrtConfig::default()
            },
            1,
        );
        off.fit(&x[..10], &y[..10]).unwrap();
        off.fit_update(&x, &y, 99).unwrap();
        let mut fresh = GradientBoosting::with_defaults(99);
        fresh.fit(&x, &y).unwrap();
        assert_eq!(off.predict(&[0.3]).unwrap(), fresh.predict(&[0.3]).unwrap());
        // Warm-start on, but the update appends 20 rows: not the
        // one-row-appended shape, so it falls back to the same full
        // refit bit for bit.
        let mut on = GradientBoosting::with_defaults(1);
        on.fit(&x[..10], &y[..10]).unwrap();
        on.fit_update(&x, &y, 99).unwrap();
        assert_eq!(on.predict(&[0.3]).unwrap(), fresh.predict(&[0.3]).unwrap());
        // An edited prefix (shifted target) also falls back.
        let mut edited = GradientBoosting::with_defaults(1);
        edited.fit(&x[..29], &y[..29]).unwrap();
        let mut y2 = y.clone();
        y2[0] += 0.5;
        edited.fit_update(&x, &y2, 99).unwrap();
        let mut fresh2 = GradientBoosting::with_defaults(99);
        fresh2.fit(&x, &y2).unwrap();
        assert_eq!(
            edited.predict(&[0.3]).unwrap(),
            fresh2.predict(&[0.3]).unwrap()
        );
    }

    #[test]
    fn seeded_fits_are_reproducible() {
        let (x, y) = line_data();
        let mut a = GradientBoosting::with_defaults(5);
        let mut b = GradientBoosting::with_defaults(5);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&[0.4]).unwrap(), b.predict(&[0.4]).unwrap());
    }
}
