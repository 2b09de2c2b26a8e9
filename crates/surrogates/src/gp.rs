//! Gaussian-process regression with a Matérn-5/2 ARD kernel.
//!
//! The paper's best-performing surrogate (§5.2, §5.5). The implementation
//! follows the standard exact-inference recipe (Rasmussen & Williams ch. 2):
//! standardize the targets, factorize `K + σ_n² I` with Cholesky, and pick
//! kernel hyperparameters by maximizing a leave-one-out score over a
//! seeded random search (a gradient-free stand-in for skopt's L-BFGS
//! restarts that keeps the crate dependency-free).
//!
//! # The incremental hot path
//!
//! A BO loop refits the GP after every trial, and the training set almost
//! always grows by exactly one row. [`GaussianProcess`] therefore keeps
//! its previous fit around and [`Surrogate::fit_update`] takes three
//! tiers, fastest first:
//!
//! 1. **alpha-only** — same features, new targets (a failed trial or a
//!    re-normalized objective): reuse the kernel factor, re-solve for
//!    `α` in O(n²);
//! 2. **append-one** — the feature matrix extends the previous one by one
//!    row under an unchanged normalization: extend the Cholesky factor
//!    with [`freedom_linalg::Cholesky::append_row`] in O(n²),
//!    bit-identically to refactorizing from scratch, and keep the
//!    previous hyperparameters;
//! 3. **full** — every [`GpConfig::refit_every`]-th update, or whenever
//!    the cached state does not match (first fit, sliced search space,
//!    normalization shift): run the full candidate search, warm-started
//!    with the previous fit's hyperparameters as an extra candidate.
//!
//! [`Surrogate::fit`] always takes the full path and resets the schedule,
//! so one-shot users see the original from-scratch behavior.
//!
//! # The search workspace
//!
//! A full search scores about a hundred candidates — the fixed ones, the
//! random draws, and two coordinate-ascent passes of four moves per
//! hyperparameter. Each score is the LOO likelihood of one kernel
//! factorization plus the log-prior. One `Search` workspace per search
//! holds every buffer those scores need (kernel, factor, forward solve,
//! `α`, triangular inverse, `K⁻¹` diagonal), so scoring a candidate
//! allocates nothing, and it skips work a candidate shares with the one
//! before it. Every shortcut is exact, so the winner and its factor are
//! bit for bit what rebuilding everything per candidate would give:
//!
//! - the pairwise differences `x_i[d] − x_j[d]` are computed once; the
//!   per-dimension terms `(diff / l_d)²` are cached under the bits of
//!   `l_d`, so a lengthscale move recomputes one dimension;
//! - a pair's Matérn value is recomputed — its terms re-added in
//!   dimension order, as before — only when one of its terms changed
//!   bits, so a move on a one-hot dimension skips every pair that agrees
//!   in it (`(0 / l)²` is 0 under any lengthscale);
//! - signal and noise moves leave every lengthscale's bits alone and
//!   reuse the pairs' Matérn values unchanged;
//! - the diagonal is `σ_f² + σ_n² + floor` directly: `matern52(0)` is
//!   exactly 1, so `σ_f² · matern52(0)` is `σ_f²`;
//! - the prior's `ln` terms are cached under the hyperparameter bits;
//! - a refine move the clamp maps back onto the incumbent's value is not
//!   scored: it would tie, and only a strict improvement is kept;
//! - the winner's factor and `α` are the buffers it was scored in,
//!   swapped aside whenever a candidate takes the lead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use freedom_linalg::{cholesky_into, Cholesky, Matrix};

use crate::{validate_training_set, Prediction, Surrogate, SurrogateError};

/// Tuning knobs for the GP fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Number of random hyperparameter candidates scored by the LOO
    /// likelihood (the default candidate is always included).
    pub candidates: usize,
    /// Fixed observation-noise floor added to the kernel diagonal.
    pub noise_floor: f64,
    /// Coordinate-ascent refinement passes over the best candidate.
    pub refine_passes: usize,
    /// Model `ln y` instead of `y` when every target is positive.
    ///
    /// Execution times and costs are positive and compose
    /// multiplicatively (`time ≈ work / share / speed`), which is additive
    /// in log space — exactly what a stationary kernel captures well. The
    /// predictive distribution is mapped back through the log-normal
    /// moments.
    pub log_targets: bool,
    /// How often [`Surrogate::fit_update`] runs the full hyperparameter
    /// search: every `refit_every`-th update (1 = always). In between,
    /// updates reuse the previous hyperparameters and extend the Cholesky
    /// factor incrementally.
    pub refit_every: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self {
            candidates: 40,
            noise_floor: 1e-6,
            refine_passes: 2,
            log_targets: true,
            refit_every: 4,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Hyperparams {
    /// One ARD lengthscale per (normalized) feature dimension.
    lengthscales: Vec<f64>,
    /// Kernel signal variance σ_f².
    signal_var: f64,
    /// Observation noise variance σ_n².
    noise_var: f64,
}

#[derive(Debug, Clone)]
struct Fitted {
    /// Normalized feature matrix (n × d), the kernel's input.
    x: Matrix,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// Standardized targets, stored so the marginal likelihood never has
    /// to reconstruct them through an O(n²·d) kernel rebuild.
    y_std_targets: Vec<f64>,
    hp: Hyperparams,
    y_mean: f64,
    y_std: f64,
    feat_lo: Vec<f64>,
    feat_span: Vec<f64>,
    /// Whether targets were modelled in log space.
    log_space: bool,
}

/// Cached batched-prediction state for a fixed candidate set.
///
/// The BO loop predicts the same candidate encodings at every step while
/// the training set grows by one row. `k_star[i][j] = k(pᵢ, xⱼ)` and
/// `v = L⁻¹ k_star` per candidate depend only on the hyperparameters and
/// the training rows — both frozen along the incremental tiers — and
/// forward substitution is row-incremental, so appending a training row
/// just appends one column to each. Re-deriving a column from scratch
/// produces the same bits, which keeps cached and uncached predictions
/// identical.
#[derive(Debug, Clone)]
struct BatchCache {
    /// The raw candidate encodings this cache was built for.
    points: Vec<Vec<f64>>,
    /// Normalized candidates (m × d).
    p_norm: Matrix,
    /// Cross-kernel matrix (m × n).
    k_star: Matrix,
    /// Forward-substitution solves `L⁻¹ k_star` per candidate (m × n).
    v: Matrix,
    /// Training rows covered by the cached columns.
    n: usize,
    /// Hyperparameter generation the columns were computed under.
    generation: u64,
}

/// Exact GP regressor; see the module docs.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    config: GpConfig,
    seed: u64,
    fitted: Option<Fitted>,
    /// Incremental updates since the last full hyperparameter search.
    fits_since_full: usize,
    /// Bumped on every full fit; invalidates [`BatchCache`] columns.
    generation: u64,
    batch_cache: Option<BatchCache>,
}

/// Target preprocessing shared by every fit path.
struct Targets {
    y_standardized: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    log_space: bool,
}

impl GaussianProcess {
    /// Creates an unfitted GP.
    pub fn new(config: GpConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            fitted: None,
            fits_since_full: 0,
            generation: 0,
            batch_cache: None,
        }
    }

    /// Log marginal likelihood of the current fit (diagnostic).
    pub fn log_marginal_likelihood(&self) -> Option<f64> {
        let f = self.fitted.as_ref()?;
        Some(Self::mll(&f.chol, &f.alpha, &f.y_std_targets))
    }

    /// Incremental updates absorbed since the last full candidate search
    /// (diagnostic; 0 right after [`Surrogate::fit`]).
    pub fn fits_since_full(&self) -> usize {
        self.fits_since_full
    }

    fn matern52(r: f64) -> f64 {
        let s5r = 5.0_f64.sqrt() * r;
        (1.0 + s5r + 5.0 * r * r / 3.0) * (-s5r).exp()
    }

    fn scaled_distance(hp: &Hyperparams, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .zip(&hp.lengthscales)
            .map(|((&x, &y), &l)| ((x - y) / l).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    fn kernel_value(hp: &Hyperparams, a: &[f64], b: &[f64]) -> f64 {
        hp.signal_var * Self::matern52(Self::scaled_distance(hp, a, b))
    }

    /// The noisy kernel diagonal entry `k(x, x) + σ_n² + floor`. The
    /// incremental append uses it; since `matern52(0)` is exactly 1 it
    /// equals the [`Search`] diagonal `σ_f² + σ_n² + floor` bit for bit,
    /// which keeps an appended factor identical to a full one.
    fn kernel_diag(hp: &Hyperparams, row: &[f64], noise_floor: f64) -> f64 {
        Self::kernel_value(hp, row, row) + hp.noise_var + noise_floor
    }

    fn mll(chol: &Cholesky, alpha: &[f64], y: &[f64]) -> f64 {
        let n = y.len() as f64;
        let fit_term: f64 = y.iter().zip(alpha).map(|(yi, ai)| yi * ai).sum();
        -0.5 * fit_term - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// One term of the weak log-normal prior over the hyperparameters,
    /// centred on the normalized-feature defaults: the log-prior is
    /// `0 − term(l₀) − … − term(l_d) − term(σ_f²) − term_noise(σ_n²)`,
    /// subtracted in that order. Pure maximum likelihood occasionally
    /// prefers a degenerate fit (tiny lengthscale + tiny noise) whose
    /// extrapolations are wild; the prior makes selection MAP-flavoured
    /// without forbidding extreme values when the data really supports
    /// them.
    fn prior_term(value: f64, noise: bool) -> f64 {
        // σ = ln(10): one decade of lengthscale costs 0.5 nats.
        let sigma2 = std::f64::consts::LN_10.powi(2);
        if noise {
            // Noise prior centred on 1e-3 of the (standardized) signal.
            (value.ln() - (1e-3f64).ln()).powi(2) / (2.0 * sigma2 * 4.0)
        } else {
            value.ln().powi(2) / (2.0 * sigma2)
        }
    }

    /// Leave-one-out predictive log-likelihood (Rasmussen & Williams,
    /// Eq. 5.10–5.12): `μ₋ᵢ = yᵢ − αᵢ/K⁻¹ᵢᵢ`, `σ₋ᵢ² = 1/K⁻¹ᵢᵢ`, from
    /// `α = K⁻¹y` and the diagonal `kinv` of `K⁻¹`.
    ///
    /// Selecting hyperparameters by LOO rather than marginal likelihood is
    /// markedly more robust when the kernel is misspecified — which these
    /// performance surfaces guarantee — because it scores *predictions*,
    /// not data fit. The `K⁻¹` diagonal comes from one O(n³/6) triangular
    /// inversion ([`Cholesky::inv_diag_into`]) instead of n basis solves.
    fn loo_log_likelihood(kinv: &[f64], alpha: &[f64]) -> Option<f64> {
        let n = alpha.len() as f64;
        let mut score = -0.5 * n * (2.0 * std::f64::consts::PI).ln();
        for (a, kii) in alpha.iter().zip(kinv) {
            if *kii <= 0.0 {
                return None;
            }
            score += 0.5 * kii.ln() - 0.5 * a * a / kii;
        }
        Some(score)
    }

    /// Per-dimension median of pairwise absolute distances — the standard
    /// lengthscale initialization for stationary kernels. Dimensions with
    /// no spread fall back to 1.0.
    fn median_heuristic(x: &Matrix, dim: usize) -> Vec<f64> {
        (0..dim)
            .map(|d| {
                let mut dists = Vec::new();
                for i in 0..x.rows() {
                    for j in (i + 1)..x.rows() {
                        let delta = (x.row(i)[d] - x.row(j)[d]).abs();
                        if delta > 1e-12 {
                            dists.push(delta);
                        }
                    }
                }
                if dists.is_empty() {
                    return 1.0;
                }
                dists.sort_by(f64::total_cmp);
                dists[dists.len() / 2].clamp(0.05, 10.0)
            })
            .collect()
    }

    fn normalize_features(x: &[Vec<f64>], dim: usize) -> (Matrix, Vec<f64>, Vec<f64>) {
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for row in x {
            for d in 0..dim {
                lo[d] = lo[d].min(row[d]);
                hi[d] = hi[d].max(row[d]);
            }
        }
        let span: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| if h - l > 1e-12 { h - l } else { 1.0 })
            .collect();
        let mut normed = Matrix::zeros(x.len(), dim);
        for (r, row) in x.iter().enumerate() {
            let out = normed.row_mut(r);
            for (d, &v) in row.iter().enumerate() {
                out[d] = (v - lo[d]) / span[d];
            }
        }
        (normed, lo, span)
    }

    /// Optionally log-transform, then standardize the targets.
    fn prepare_targets(&self, y: &[f64]) -> Targets {
        let log_space = self.config.log_targets && y.iter().all(|&v| v > 0.0);
        let y_work: Vec<f64> = if log_space {
            y.iter().map(|v| v.ln()).collect()
        } else {
            y.to_vec()
        };
        let y_mean = y_work.iter().sum::<f64>() / y_work.len() as f64;
        let y_var = y_work.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / y_work.len() as f64;
        let y_std = if y_var.sqrt() > 1e-12 {
            y_var.sqrt()
        } else {
            1.0
        };
        let y_standardized = y_work.iter().map(|v| (v - y_mean) / y_std).collect();
        Targets {
            y_standardized,
            y_mean,
            y_std,
            log_space,
        }
    }

    /// The full candidate search + refinement, optionally warm-started
    /// with the previous fit's hyperparameters as an extra candidate.
    /// Every candidate is scored through one [`Search`] workspace.
    fn full_fit(
        &mut self,
        x_norm: Matrix,
        feat_lo: Vec<f64>,
        feat_span: Vec<f64>,
        targets: Targets,
        warm: Option<Hyperparams>,
    ) -> crate::Result<()> {
        let dim = x_norm.cols();
        let mut search = Search::new(&x_norm, &targets.y_standardized, self.config.noise_floor);

        // Candidate 0 is a sensible default, candidate 1 the classic
        // median-distance heuristic (robust when random draws all land
        // badly), candidate 2 the previous fit's winner when warm; the
        // rest are random draws in log space. The best LOO score wins.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let fixed: Vec<Hyperparams> = [
            Some(Hyperparams {
                lengthscales: vec![1.0; dim],
                signal_var: 1.0,
                noise_var: 1e-4,
            }),
            Some(Hyperparams {
                lengthscales: Self::median_heuristic(&x_norm, dim),
                signal_var: 1.0,
                noise_var: 1e-4,
            }),
            warm.filter(|hp| hp.lengthscales.len() == dim),
        ]
        .into_iter()
        .flatten()
        .collect();
        let mut cand = fixed[0].clone();
        let mut best_hp = fixed[0].clone();
        let mut best_score: Option<f64> = None;
        for c in 0..(fixed.len() + self.config.candidates) {
            if c < fixed.len() {
                cand.copy_from(&fixed[c]);
            } else {
                for l in &mut cand.lengthscales {
                    *l = 10f64.powf(rng.gen_range(-1.0..1.0));
                }
                cand.signal_var = 10f64.powf(rng.gen_range(-0.5..0.5));
                cand.noise_var = 10f64.powf(rng.gen_range(-6.0..-1.0));
            }
            if let Some(score) = search.score(&cand) {
                if best_score.is_none_or(|b| score > b) {
                    best_hp.copy_from(&cand);
                    best_score = Some(score);
                    search.keep();
                }
            }
        }
        let mut best_score = best_score.ok_or(SurrogateError::Linalg(
            freedom_linalg::LinalgError::NotPositiveDefinite,
        ))?;

        // Coordinate ascent on the LOO score around the winner — one-at-
        // a-time multiplicative moves on every hyperparameter, kept when
        // the score strictly improves: a cheap, deterministic stand-in
        // for skopt's L-BFGS restarts. A move the clamp maps back onto
        // the incumbent's value would score a tie, which `>` never
        // accepts, so it is skipped unscored.
        for _ in 0..self.config.refine_passes {
            for p in 0..dim + 2 {
                for f in [0.25, 0.5, 2.0, 4.0] {
                    cand.copy_from(&best_hp);
                    let (value, lo, hi) = if p < dim {
                        (&mut cand.lengthscales[p], 1e-2, 1e2)
                    } else if p == dim {
                        (&mut cand.signal_var, 1e-3, 1e3)
                    } else {
                        (&mut cand.noise_var, 1e-9, 1.0)
                    };
                    let moved = (*value * f).clamp(lo, hi);
                    if moved.to_bits() == value.to_bits() {
                        continue;
                    }
                    *value = moved;
                    if let Some(score) = search.score(&cand) {
                        if score > best_score {
                            best_hp.copy_from(&cand);
                            best_score = score;
                            search.keep();
                        }
                    }
                }
            }
        }
        let (chol, alpha) = search.into_best();
        self.fitted = Some(Fitted {
            x: x_norm,
            chol,
            alpha,
            y_std_targets: targets.y_standardized,
            hp: best_hp,
            y_mean: targets.y_mean,
            y_std: targets.y_std,
            feat_lo,
            feat_span,
            log_space: targets.log_space,
        });
        self.fits_since_full = 0;
        self.generation = self.generation.wrapping_add(1);
        self.batch_cache = None;
        Ok(())
    }

    /// Maps one candidate's summary statistics to a [`Prediction`]; the
    /// single shared tail of every prediction path, cached or not.
    fn finish_prediction(f: &Fitted, mean_std_space: f64, v_sq_sum: f64) -> Prediction {
        let k_ss = f.hp.signal_var; // k(p, p) for a stationary kernel
        let var = (k_ss - v_sq_sum).max(0.0);
        let mu = mean_std_space * f.y_std + f.y_mean;
        let sigma2 = var * f.y_std * f.y_std;
        if f.log_space {
            // Log-normal moments, with the exponent clamped so a wildly
            // uncertain extrapolation cannot overflow.
            let s2 = sigma2.min(10.0);
            let mean = (mu + s2 / 2.0).min(700.0).exp();
            let std = mean * (s2.exp_m1()).max(0.0).sqrt();
            Prediction { mean, std }
        } else {
            Prediction {
                mean: mu,
                std: sigma2.sqrt(),
            }
        }
    }

    /// Whether `x_norm`'s leading rows are bit-identical to the previous
    /// fit's feature matrix under the same normalization.
    fn extends_previous(prev: &Fitted, x_norm: &Matrix, lo: &[f64], span: &[f64]) -> bool {
        let (n_prev, dim) = (prev.x.rows(), prev.x.cols());
        x_norm.cols() == dim
            && x_norm.rows() >= n_prev
            && prev.feat_lo == lo
            && prev.feat_span == span
            && x_norm.as_slice()[..n_prev * dim] == *prev.x.as_slice()
    }
}

impl Hyperparams {
    /// Overwrites `self` with `other` in place (same dimension), so the
    /// search's candidate and incumbent buffers never reallocate.
    fn copy_from(&mut self, other: &Hyperparams) {
        self.lengthscales.copy_from_slice(&other.lengthscales);
        self.signal_var = other.signal_var;
        self.noise_var = other.noise_var;
    }
}

/// One full hyperparameter search's workspace: scores candidates with
/// exactly the arithmetic of building the kernel matrix, factorizing it,
/// solving for `α` and inverting the diagonal from scratch, but without
/// allocating per candidate and without redoing work a refine move
/// leaves unchanged (see the module docs for why each reuse is exact).
struct Search<'a> {
    n: usize,
    dim: usize,
    y: &'a [f64],
    noise_floor: f64,
    /// Pairwise feature differences `x_i[d] − x_j[d]` for `j < i`,
    /// pair-major (`p·dim + d`, pairs in `kernel` fill order).
    diffs: Vec<f64>,
    /// Scaled terms `((x_i[d] − x_j[d]) / l_d)²`, dimension-major
    /// (`d·pairs + p`).
    scaled: Vec<f64>,
    /// The lengthscale bits each dimension's scaled terms were computed
    /// under (`None` = never computed).
    scaled_for: Vec<Option<u64>>,
    /// Matérn-5/2 value of every pair under the lengthscales recorded in
    /// `scaled_for`, except where `dirty`.
    matern: Vec<f64>,
    /// Pairs with a scaled term whose bits changed since their Matérn
    /// value was computed.
    dirty: Vec<bool>,
    /// Prior terms keyed by hyperparameter bits: lengthscales, σ_f², σ_n².
    prior: Vec<Option<(u64, f64)>>,
    k: Matrix,
    chol: Cholesky,
    fwd: Vec<f64>,
    alpha: Vec<f64>,
    w: Vec<f64>,
    kinv: Vec<f64>,
    /// Factor and `α` of the best candidate [`Search::keep`] saw.
    best_chol: Cholesky,
    best_alpha: Vec<f64>,
}

impl<'a> Search<'a> {
    fn new(x: &Matrix, y: &'a [f64], noise_floor: f64) -> Self {
        let (n, dim) = (x.rows(), x.cols());
        let pairs = n * n.saturating_sub(1) / 2;
        let mut diffs = Vec::with_capacity(pairs * dim);
        for i in 0..n {
            for j in 0..i {
                diffs.extend(x.row(i).iter().zip(x.row(j)).map(|(a, b)| a - b));
            }
        }
        Self {
            n,
            dim,
            y,
            noise_floor,
            diffs,
            scaled: vec![0.0; dim * pairs],
            scaled_for: vec![None; dim],
            matern: vec![0.0; pairs],
            dirty: vec![true; pairs],
            prior: vec![None; dim + 2],
            k: Matrix::zeros(n, n),
            chol: Cholesky::default(),
            fwd: vec![0.0; n],
            alpha: vec![0.0; n],
            w: vec![0.0; n * n],
            kinv: vec![0.0; n],
            best_chol: Cholesky::default(),
            best_alpha: vec![0.0; n],
        }
    }

    /// Fills `k` with `K + (σ_n² + floor) I` for `hp`. Only dimensions
    /// whose lengthscale changed since the last call are rescaled, and
    /// only pairs with a scaled term whose bits changed get a new
    /// Matérn value — a pair that does not differ in a dimension keeps
    /// its `(0 / l)² = 0` term under every lengthscale.
    fn kernel(&mut self, hp: &Hyperparams) {
        let (n, dim, pairs) = (self.n, self.dim, self.matern.len());
        for (d, &l) in hp.lengthscales.iter().enumerate() {
            if self.scaled_for[d] == Some(l.to_bits()) {
                continue;
            }
            let scaled = &mut self.scaled[d * pairs..(d + 1) * pairs];
            let diffs = self.diffs.iter().skip(d).step_by(dim);
            for ((s, diff), dirty) in scaled.iter_mut().zip(diffs).zip(&mut self.dirty) {
                let term = (diff / l).powi(2);
                if term.to_bits() != s.to_bits() {
                    *s = term;
                    *dirty = true;
                }
            }
            self.scaled_for[d] = Some(l.to_bits());
        }
        for (p, (m, dirty)) in self.matern.iter_mut().zip(&mut self.dirty).enumerate() {
            if std::mem::take(dirty) {
                let r2: f64 = (0..dim).map(|d| self.scaled[d * pairs + p]).sum();
                *m = GaussianProcess::matern52(r2.sqrt());
            }
        }
        let diag = hp.signal_var + hp.noise_var + self.noise_floor;
        let k = self.k.as_mut_slice();
        let mut pair = self.matern.iter();
        for i in 0..n {
            for j in 0..i {
                let v = hp.signal_var * pair.next().expect("one value per pair");
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
            k[i * n + i] = diag;
        }
    }

    /// The log-prior of `hp` from cached terms.
    fn log_prior(&mut self, hp: &Hyperparams) -> f64 {
        let noise = self.dim + 1;
        let values = hp
            .lengthscales
            .iter()
            .chain([&hp.signal_var, &hp.noise_var]);
        let mut lp = 0.0;
        for (t, (&v, slot)) in values.zip(&mut self.prior).enumerate() {
            let term = match *slot {
                Some((bits, term)) if bits == v.to_bits() => term,
                _ => {
                    let term = GaussianProcess::prior_term(v, t == noise);
                    *slot = Some((v.to_bits(), term));
                    term
                }
            };
            lp -= term;
        }
        lp
    }

    /// LOO score plus log-prior of `hp`; `None` when the kernel is not
    /// positive definite even with jitter, or the score is not finite.
    /// Leaves the candidate's factor and `α` in the workspace for
    /// [`Search::keep`].
    fn score(&mut self, hp: &Hyperparams) -> Option<f64> {
        self.kernel(hp);
        cholesky_into(&self.k, 0.0, &mut self.chol).ok()?;
        self.chol
            .solve_into(self.y, &mut self.fwd, &mut self.alpha)
            .ok()?;
        self.chol.inv_diag_into(&mut self.w, &mut self.kinv).ok()?;
        let score =
            GaussianProcess::loo_log_likelihood(&self.kinv, &self.alpha)? + self.log_prior(hp);
        score.is_finite().then_some(score)
    }

    /// Records the last scored candidate as the best (a buffer swap).
    fn keep(&mut self) {
        std::mem::swap(&mut self.chol, &mut self.best_chol);
        std::mem::swap(&mut self.alpha, &mut self.best_alpha);
    }

    /// The kept candidate's factor and `α`.
    fn into_best(self) -> (Cholesky, Vec<f64>) {
        (self.best_chol, self.best_alpha)
    }
}

impl Surrogate for GaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> crate::Result<()> {
        let dim = validate_training_set(x, y)?;
        let targets = self.prepare_targets(y);
        let (x_norm, feat_lo, feat_span) = Self::normalize_features(x, dim);
        self.full_fit(x_norm, feat_lo, feat_span, targets, None)
    }

    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> crate::Result<()> {
        self.seed = step_seed;
        let dim = validate_training_set(x, y)?;
        let targets = self.prepare_targets(y);
        let (x_norm, feat_lo, feat_span) = Self::normalize_features(x, dim);

        let due_full = self
            .fitted
            .as_ref()
            .map(|_| self.fits_since_full + 1 >= self.config.refit_every.max(1))
            .unwrap_or(true);
        if !due_full {
            let prev = self.fitted.as_ref().expect("checked above");
            if Self::extends_previous(prev, &x_norm, &feat_lo, &feat_span) {
                let n_prev = prev.x.rows();
                let n_new = x_norm.rows();
                if n_new == n_prev {
                    // Tier 1: same features, new targets — re-solve alpha.
                    let alpha = prev.chol.solve(&targets.y_standardized)?;
                    let f = self.fitted.as_mut().expect("checked above");
                    f.alpha = alpha;
                    f.y_std_targets = targets.y_standardized;
                    f.y_mean = targets.y_mean;
                    f.y_std = targets.y_std;
                    f.log_space = targets.log_space;
                    self.fits_since_full += 1;
                    return Ok(());
                }
                if n_new == n_prev + 1 {
                    // Tier 2: one appended trial — extend the factor.
                    let new_row = x_norm.row(n_prev);
                    let mut a_row: Vec<f64> = (0..n_prev)
                        .map(|i| Self::kernel_value(&prev.hp, new_row, prev.x.row(i)))
                        .collect();
                    a_row.push(Self::kernel_diag(
                        &prev.hp,
                        new_row,
                        self.config.noise_floor,
                    ));
                    let mut chol = prev.chol.clone();
                    if chol.append_row(&a_row).is_ok() {
                        let alpha = chol.solve(&targets.y_standardized)?;
                        let f = self.fitted.as_mut().expect("checked above");
                        f.x = x_norm;
                        f.chol = chol;
                        f.alpha = alpha;
                        f.y_std_targets = targets.y_standardized;
                        f.y_mean = targets.y_mean;
                        f.y_std = targets.y_std;
                        f.log_space = targets.log_space;
                        self.fits_since_full += 1;
                        return Ok(());
                    }
                    // Not positive definite at the cached jitter: fall
                    // through to the full search.
                }
            }
        }

        // Tier 3: scheduled or unavoidable full search, warm-started.
        let warm = self.fitted.as_ref().map(|f| f.hp.clone());
        self.full_fit(x_norm, feat_lo, feat_span, targets, warm)
    }

    fn predict(&self, point: &[f64]) -> crate::Result<Prediction> {
        let mut out = self.predict_batch(std::slice::from_ref(&point.to_vec()))?;
        Ok(out.pop().expect("one point in, one prediction out"))
    }

    fn predict_batch(&self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        let f = self.fitted.as_ref().ok_or(SurrogateError::NotFitted)?;
        let dim = f.feat_lo.len();
        if let Some(p) = points.iter().find(|p| p.len() != dim) {
            return Err(SurrogateError::DimensionMismatch {
                expected: format!("points of dimension {dim}"),
                found: format!("point of dimension {}", p.len()),
            });
        }
        let n = f.x.rows();
        let m = points.len();
        // One K* cross-kernel matrix for the whole batch, then one batched
        // forward-substitution pass. Per-point arithmetic matches the
        // incremental path in `predict_batch_mut` bit for bit.
        let mut p = vec![0.0; dim];
        let mut k_star = Matrix::zeros(m, n);
        for (r, point) in points.iter().enumerate() {
            for (d, &raw) in point.iter().enumerate() {
                p[d] = (raw - f.feat_lo[d]) / f.feat_span[d];
            }
            let row = k_star.row_mut(r);
            for (i, k) in row.iter_mut().enumerate() {
                *k = Self::kernel_value(&f.hp, &p, f.x.row(i));
            }
        }
        let v = f.chol.solve_lower_multi(&k_star)?;
        Ok((0..m)
            .map(|r| {
                let mean_std_space: f64 =
                    k_star.row(r).iter().zip(&f.alpha).map(|(k, a)| k * a).sum();
                let v_sq_sum = v.row(r).iter().map(|vi| vi * vi).sum::<f64>();
                Self::finish_prediction(f, mean_std_space, v_sq_sum)
            })
            .collect())
    }

    fn predict_batch_mut(&mut self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        let Some(f) = self.fitted.as_ref() else {
            return Err(SurrogateError::NotFitted);
        };
        let dim = f.feat_lo.len();
        if let Some(p) = points.iter().find(|p| p.len() != dim) {
            return Err(SurrogateError::DimensionMismatch {
                expected: format!("points of dimension {dim}"),
                found: format!("point of dimension {}", p.len()),
            });
        }
        let n = f.x.rows();
        let m = points.len();

        // Reuse cached columns when they were computed under the current
        // hyperparameters for a training prefix of the current rows and
        // the exact same candidate set.
        let reusable = self
            .batch_cache
            .as_ref()
            .is_some_and(|c| c.generation == self.generation && c.n <= n && c.points == points);
        let mut cache = if reusable {
            self.batch_cache.take().expect("checked reusable")
        } else {
            let mut p_norm = Matrix::zeros(m, dim);
            for (r, point) in points.iter().enumerate() {
                let row = p_norm.row_mut(r);
                for (d, &raw) in point.iter().enumerate() {
                    row[d] = (raw - f.feat_lo[d]) / f.feat_span[d];
                }
            }
            BatchCache {
                points: points.to_vec(),
                p_norm,
                k_star: Matrix::zeros(m, n),
                v: Matrix::zeros(m, n),
                n: 0,
                generation: self.generation,
            }
        };

        // Grow K* and V out to n columns. Continuing forward substitution
        // from column `cache.n` performs exactly the arithmetic a full
        // solve would, so cached and fresh predictions agree bit for bit.
        if cache.n < n {
            let mut k_star = Matrix::zeros(m, n);
            let mut v = Matrix::zeros(m, n);
            let l = f.chol.factor().as_slice();
            for i in 0..m {
                k_star.row_mut(i)[..cache.n].copy_from_slice(&cache.k_star.row(i)[..cache.n]);
                v.row_mut(i)[..cache.n].copy_from_slice(&cache.v.row(i)[..cache.n]);
                for j in cache.n..n {
                    let k = Self::kernel_value(&f.hp, cache.p_norm.row(i), f.x.row(j));
                    k_star.row_mut(i)[j] = k;
                    // Same accumulation order as `solve_lower_into`
                    // (one dot product, subtracted once) so the result
                    // rounds identically.
                    let vi = v.row_mut(i);
                    let mut s = 0.0;
                    for (ljk, vk) in l[j * n..j * n + j].iter().zip(&vi[..j]) {
                        s += ljk * vk;
                    }
                    vi[j] = (k - s) / l[j * n + j];
                }
            }
            cache.k_star = k_star;
            cache.v = v;
            cache.n = n;
        }

        let predictions = (0..m)
            .map(|i| {
                let k_star = cache.k_star.row(i);
                let mean_std_space: f64 = k_star.iter().zip(&f.alpha).map(|(k, a)| k * a).sum();
                let v_sq_sum = cache.v.row(i).iter().map(|vi| vi * vi).sum::<f64>();
                Self::finish_prediction(f, mean_std_space, v_sq_sum)
            })
            .collect();
        self.batch_cache = Some(cache);
        Ok(predictions)
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn name(&self) -> &'static str {
        "GP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freedom_linalg::cholesky;
    use proptest::prelude::*;

    /// The direct scoring path the [`Search`] workspace must reproduce
    /// bit for bit: build the whole kernel matrix (diagonal through
    /// `matern52(0)`), factorize it with the jitter ladder, solve for
    /// `α`, invert the diagonal, then LOO plus the uncached log-prior.
    fn reference_kernel_matrix(hp: &Hyperparams, x: &Matrix, noise_floor: f64) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = GaussianProcess::kernel_value(hp, x.row(i), x.row(j));
                k.set(i, j, v);
                k.set(j, i, v);
            }
            k.set(i, i, k.get(i, i) + hp.noise_var + noise_floor);
        }
        k
    }

    fn reference_log_prior(hp: &Hyperparams) -> f64 {
        let sigma2 = std::f64::consts::LN_10.powi(2);
        let mut lp = 0.0;
        for &l in &hp.lengthscales {
            lp -= l.ln().powi(2) / (2.0 * sigma2);
        }
        lp -= hp.signal_var.ln().powi(2) / (2.0 * sigma2);
        lp -= (hp.noise_var.ln() - (1e-3f64).ln()).powi(2) / (2.0 * sigma2 * 4.0);
        lp
    }

    fn reference_score(
        hp: &Hyperparams,
        x: &Matrix,
        y: &[f64],
        noise_floor: f64,
    ) -> Option<(Cholesky, Vec<f64>, f64)> {
        let k = reference_kernel_matrix(hp, x, noise_floor);
        let chol = cholesky(&k, 0.0).ok()?;
        let alpha = chol.solve(y).ok()?;
        let score = GaussianProcess::loo_log_likelihood(&chol.inv_diag(), &alpha)?
            + reference_log_prior(hp);
        score.is_finite().then_some((chol, alpha, score))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Scores `hps` in order through one workspace and through the
    /// reference, asserting identical `Option<f64>` bits (and identical
    /// factor and `α` bits on success). Returns how many candidates
    /// needed jitter and how many failed.
    fn assert_search_matches_reference(
        x: &Matrix,
        y: &[f64],
        noise_floor: f64,
        hps: &[Hyperparams],
    ) -> (usize, usize) {
        let mut search = Search::new(x, y, noise_floor);
        let (mut jittered, mut failed) = (0, 0);
        for (c, hp) in hps.iter().enumerate() {
            let got = search.score(hp);
            let want = reference_score(hp, x, y, noise_floor);
            assert_eq!(
                got.map(f64::to_bits),
                want.as_ref().map(|w| w.2.to_bits()),
                "candidate {c} {hp:?} on {}×{}",
                x.rows(),
                x.cols()
            );
            match want {
                Some((chol, alpha, _)) => {
                    assert_eq!(
                        bits(search.chol.factor().as_slice()),
                        bits(chol.factor().as_slice())
                    );
                    assert_eq!(
                        search.chol.jitter_used().to_bits(),
                        chol.jitter_used().to_bits()
                    );
                    assert_eq!(bits(&search.alpha), bits(&alpha));
                    jittered += usize::from(chol.jitter_used() > 0.0);
                }
                None => failed += 1,
            }
        }
        (jittered, failed)
    }

    /// A random normalized training set with `dups` duplicated rows, and
    /// a candidate sequence shaped like a search: random draws, single-
    /// lengthscale refine moves, signal and noise moves, revisits of
    /// earlier candidates, near-noiseless candidates (jitter ladder) and
    /// invalid ones (non-PD).
    fn search_case(
        n: usize,
        dim: usize,
        dups: usize,
        seed: u64,
    ) -> (Matrix, Vec<f64>, Vec<Hyperparams>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, dim);
        for i in 0..n {
            if i > 0 && i <= dups {
                let src = x.row(rng.gen_range(0..i)).to_vec();
                x.row_mut(i).copy_from_slice(&src);
            } else {
                for v in x.row_mut(i) {
                    *v = rng.gen_range(0.0..1.0);
                }
            }
        }
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut hps: Vec<Hyperparams> = Vec::new();
        for step in 0..24 {
            let mut hp = match hps.last() {
                Some(prev) if step % 6 != 0 => prev.clone(),
                _ => Hyperparams {
                    lengthscales: (0..dim)
                        .map(|_| 10f64.powf(rng.gen_range(-1.0..1.0)))
                        .collect(),
                    signal_var: 10f64.powf(rng.gen_range(-0.5..0.5)),
                    noise_var: 10f64.powf(rng.gen_range(-6.0..-1.0)),
                },
            };
            let f: f64 = [0.25, 0.5, 2.0, 4.0][rng.gen_range(0..4usize)];
            match step % 6 {
                1 | 2 => {
                    let d = rng.gen_range(0..dim);
                    hp.lengthscales[d] = (hp.lengthscales[d] * f).clamp(1e-2, 1e2);
                }
                3 => hp.signal_var = (hp.signal_var * f).clamp(1e-3, 1e3),
                4 if step == 10 => hp.noise_var = 1e-300,
                4 if step == 16 => hp.lengthscales[0] = 0.0,
                4 if step == 22 => hp.signal_var = -1.0,
                4 => hp.noise_var = (hp.noise_var * f).clamp(1e-9, 1.0),
                _ if step > 6 => hp = hps[rng.gen_range(0..hps.len())].clone(),
                _ => {}
            }
            hps.push(hp);
        }
        (x, y, hps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn search_scores_match_the_direct_path_bit_for_bit(
            n in 1usize..13,
            dim in 1usize..9,
            dups in 0usize..4,
            floor in prop::sample::select(vec![0.0, 1e-6]),
            seed in 0u64..1_000_000,
        ) {
            let (x, y, hps) = search_case(n, dim, dups, seed);
            assert_search_matches_reference(&x, &y, floor, &hps);
        }
    }

    /// The equivalence property reaches both rare branches: candidates
    /// that only factorize with jitter, and candidates that fail.
    #[test]
    fn search_equivalence_covers_jitter_and_failures() {
        let (mut jittered, mut failed) = (0, 0);
        for seed in 0..24 {
            let (x, y, hps) = search_case(8, 3, 3, seed);
            let (j, f) = assert_search_matches_reference(&x, &y, 0.0, &hps);
            jittered += j;
            failed += f;
        }
        assert!(jittered > 0, "no candidate exercised the jitter ladder");
        assert!(failed > 0, "no candidate failed to factorize");
    }

    /// A fixed `fit` plus three `fit_update`s — incremental and full
    /// tiers, warm-started searches included — predicts these exact
    /// bits; any change to the search's arithmetic shows up here.
    #[test]
    fn fit_update_chain_predictions_are_pinned() {
        let rows = |n: usize| -> (Vec<Vec<f64>>, Vec<f64>) {
            let x: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let t = i as f64;
                    vec![
                        (t * 0.37).sin() * 2.0 + 3.0,
                        (t * 0.61).cos() + 1.5,
                        (t * 1.3) % 2.7,
                    ]
                })
                .collect();
            let y = x
                .iter()
                .map(|r| 1.0 + r[0] * 0.3 + (r[1] * r[2]).sin().abs())
                .collect();
            (x, y)
        };
        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 2,
                ..GpConfig::default()
            },
            17,
        );
        let (x, y) = rows(6);
        gp.fit(&x, &y).unwrap();
        for (k, n) in [7usize, 8, 10].into_iter().enumerate() {
            let (x, y) = rows(n);
            gp.fit_update(&x, &y, 100 + k as u64).unwrap();
        }
        assert_eq!(gp.fits_since_full(), 0, "the chain ends on a full search");
        let queries: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                let t = i as f64 * 0.9 + 0.2;
                vec![2.0 + t, 1.0 + t * 0.3, t]
            })
            .collect();
        let got: Vec<(u64, u64)> = gp
            .predict_batch(&queries)
            .unwrap()
            .iter()
            .map(|p| (p.mean.to_bits(), p.std.to_bits()))
            .collect();
        assert_eq!(
            got,
            [
                (0x40086d5a7708788b, 0x3fc513eab2266d2d),
                (0x400a95ce5d468d1d, 0x3fcf5acabc2cecbb),
                (0x4004ebe558f4452e, 0x3fc154916341ae19),
                (0x400b16e9e27f971b, 0x3fb59b378340f1c3),
            ]
        );
    }

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid_1d(12);
        let y: Vec<f64> = x.iter().map(|r| (4.0 * r[0]).sin() + 2.0).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 3);
        gp.fit(&x, &y).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let p = gp.predict(xi).unwrap();
            assert!((p.mean - yi).abs() < 0.05, "at {xi:?}: {} vs {yi}", p.mean);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 3);
        gp.fit(&x, &y).unwrap();
        let near = gp.predict(&[0.5]).unwrap();
        let far = gp.predict(&[3.0]).unwrap();
        assert!(far.std > near.std);
    }

    #[test]
    fn recovers_smooth_function_between_points() {
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).cos()).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 9);
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.4321]).unwrap();
        assert!((p.mean - (3.0 * 0.4321f64).cos()).abs() < 0.05);
    }

    #[test]
    fn errors_before_fit_and_on_bad_dimension() {
        let gp = GaussianProcess::new(GpConfig::default(), 1);
        assert_eq!(gp.predict(&[0.0]).unwrap_err(), SurrogateError::NotFitted);
        let mut gp = gp;
        gp.fit(&grid_1d(5), &[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(matches!(
            gp.predict(&[0.0, 0.0]),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn handles_constant_targets() {
        let x = grid_1d(6);
        let y = vec![5.0; 6];
        let mut gp = GaussianProcess::new(GpConfig::default(), 1);
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.3]).unwrap();
        assert!((p.mean - 5.0).abs() < 1e-6);
    }

    #[test]
    fn handles_multidimensional_ard() {
        // y depends only on dim 0; ARD should still fit fine.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..6 {
            for j in 0..4 {
                x.push(vec![i as f64 / 5.0, j as f64 / 3.0]);
                y.push((i as f64 / 5.0) * 10.0);
            }
        }
        let mut gp = GaussianProcess::new(GpConfig::default(), 5);
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.5, 0.2]).unwrap();
        assert!((p.mean - 5.0).abs() < 0.5, "mean {}", p.mean);
    }

    #[test]
    fn mll_is_finite_after_fit() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|r| r[0].exp()).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 2);
        assert!(gp.log_marginal_likelihood().is_none());
        gp.fit(&x, &y).unwrap();
        assert!(gp.log_marginal_likelihood().unwrap().is_finite());
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        let x = grid_1d(14);
        let y: Vec<f64> = x.iter().map(|r| (5.0 * r[0]).sin() + 3.0).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 4);
        gp.fit(&x, &y).unwrap();
        let queries: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 13.0 - 0.5]).collect();
        let batch = gp.predict_batch(&queries).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            let single = gp.predict(q).unwrap();
            assert_eq!(single.mean.to_bits(), b.mean.to_bits());
            assert_eq!(single.std.to_bits(), b.std.to_bits());
        }
    }

    /// The append-one tier must reproduce exactly what a from-scratch
    /// factorization at the same hyperparameters would compute.
    #[test]
    fn incremental_update_matches_scratch_factorization() {
        let full_x = grid_1d(16);
        let full_y: Vec<f64> = full_x.iter().map(|r| (2.0 * r[0]).exp()).collect();
        // Normalization is stable for a prefix of an evenly spread grid
        // only if min/max are already covered; use a prefix that includes
        // both ends so lo/span stay fixed as rows are appended.
        let mut order: Vec<usize> = vec![0, 15];
        order.extend(1..15);
        let x_of =
            |k: usize| -> Vec<Vec<f64>> { order[..k].iter().map(|&i| full_x[i].clone()).collect() };
        let y_of = |k: usize| -> Vec<f64> { order[..k].iter().map(|&i| full_y[i]).collect() };

        let mut warm = GaussianProcess::new(
            GpConfig {
                refit_every: 100, // never re-search within this test
                ..GpConfig::default()
            },
            7,
        );
        warm.fit(&x_of(10), &y_of(10)).unwrap();
        for k in 11..=16 {
            warm.fit_update(&x_of(k), &y_of(k), 1000 + k as u64)
                .unwrap();
            assert_eq!(warm.fits_since_full(), k - 10, "append tier not taken");

            // From scratch at the same hyperparameters: rebuild the kernel
            // and factor it; both the factor and alpha must match bit for
            // bit (append_row is row-by-row Cholesky's own recurrence).
            let f = warm.fitted.as_ref().unwrap();
            let k_mat = reference_kernel_matrix(&f.hp, &f.x, warm.config.noise_floor);
            let scratch = cholesky(&k_mat, 0.0).unwrap();
            assert_eq!(
                scratch.factor().as_slice(),
                f.chol.factor().as_slice(),
                "factor diverged at n = {k}"
            );
            let scratch_alpha = scratch.solve(&f.y_std_targets).unwrap();
            assert_eq!(scratch_alpha, f.alpha, "alpha diverged at n = {k}");
        }
    }

    /// The cross-kernel cache must never change a prediction: cached
    /// batched calls agree bit-for-bit with uncached ones at every
    /// incremental step, including right after cache-extending appends.
    #[test]
    fn cached_batch_predictions_match_uncached_across_updates() {
        let full_x = grid_1d(16);
        let full_y: Vec<f64> = full_x.iter().map(|r| (2.5 * r[0]).sin() + 2.0).collect();
        let mut order: Vec<usize> = vec![0, 15];
        order.extend(1..15);
        let x_of =
            |k: usize| -> Vec<Vec<f64>> { order[..k].iter().map(|&i| full_x[i].clone()).collect() };
        let y_of = |k: usize| -> Vec<f64> { order[..k].iter().map(|&i| full_y[i]).collect() };
        let queries: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();

        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 3, // exercise both warm and full paths
                ..GpConfig::default()
            },
            5,
        );
        gp.fit(&x_of(10), &y_of(10)).unwrap();
        for k in 10..=16 {
            if k > 10 {
                gp.fit_update(&x_of(k), &y_of(k), k as u64).unwrap();
            }
            let cached = gp.predict_batch_mut(&queries).unwrap();
            let cached_again = gp.predict_batch_mut(&queries).unwrap();
            let uncached = gp.predict_batch(&queries).unwrap();
            for ((a, b), c) in cached.iter().zip(&cached_again).zip(&uncached) {
                assert_eq!(a.mean.to_bits(), c.mean.to_bits(), "n = {k}");
                assert_eq!(a.std.to_bits(), c.std.to_bits(), "n = {k}");
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "n = {k} (re-read)");
            }
        }
        // A different candidate set invalidates and rebuilds cleanly.
        let other: Vec<Vec<f64>> = (0..5).map(|i| vec![0.1 * i as f64]).collect();
        let fresh = gp.predict_batch_mut(&other).unwrap();
        let expect = gp.predict_batch(&other).unwrap();
        for (a, b) in fresh.iter().zip(&expect) {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        }
    }

    #[test]
    fn alpha_only_tier_handles_changed_targets() {
        let x = grid_1d(9);
        let y: Vec<f64> = x.iter().map(|r| r[0] + 1.0).collect();
        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 100,
                ..GpConfig::default()
            },
            3,
        );
        gp.fit(&x, &y).unwrap();
        let y2: Vec<f64> = y.iter().map(|v| v * 2.0).collect();
        gp.fit_update(&x, &y2, 77).unwrap();
        assert_eq!(gp.fits_since_full(), 1);
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 3.0).abs() < 0.3, "mean {}", p.mean);
    }

    #[test]
    fn refit_schedule_triggers_full_search() {
        let x = grid_1d(12);
        let y: Vec<f64> = x.iter().map(|r| r[0] * 3.0 + 1.0).collect();
        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 2,
                ..GpConfig::default()
            },
            3,
        );
        gp.fit(&x[..8], &y[..8]).unwrap();
        // Use prefixes whose normalization cannot drift: rows 0..8 span
        // [0, 7/11] and appended rows extend the max, so every update
        // breaks the cache *or* hits the schedule; either way fit_update
        // must stay usable and correct.
        for k in 9..=12 {
            gp.fit_update(&x[..k], &y[..k], k as u64).unwrap();
            let p = gp.predict(&[0.5]).unwrap();
            assert!((p.mean - 2.5).abs() < 0.5, "n = {k}: mean {}", p.mean);
        }
    }

    #[test]
    fn fit_resets_the_incremental_schedule() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 100,
                ..GpConfig::default()
            },
            1,
        );
        gp.fit(&x, &y).unwrap();
        gp.fit_update(&x, &y, 5).unwrap();
        assert_eq!(gp.fits_since_full(), 1);
        gp.fit(&x, &y).unwrap();
        assert_eq!(gp.fits_since_full(), 0);
    }
}
