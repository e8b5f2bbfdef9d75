//! Fitting and evaluating the Predicted-EffBW model.

use crate::corpus::{self, Sample};
use crate::features::{self, NUM_FEATURES};
use crate::metrics;
use mapa_topology::{LinkMix, Topology};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors from model fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer samples than features — the system is underdetermined.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Minimum required (the feature count).
        need: usize,
    },
    /// The normal equations `AᵀA + λI` are singular to working precision
    /// (no pivot above 1e-12). The ridge `λ` keeps a merely rank-deficient
    /// corpus clear of this.
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { got, need } => {
                write!(f, "need at least {need} samples to fit, got {got}")
            }
            FitError::Singular => write!(f, "normal equations are singular to working precision"),
        }
    }
}

impl std::error::Error for FitError {}

/// The largest allocation size [`EffBwModel::ceiling`] tabulates: a
/// ceiling over `k` GPUs holds about `(k²/2)³/6` cells, 302 621 (2.4 MB)
/// at `k = 16`.
const CEILING_MAX_GPUS: usize = 16;

/// The Eq. 2 effective-bandwidth predictor.
#[derive(Clone)]
pub struct EffBwModel {
    theta: [f64; NUM_FEATURES],
    /// [`EffBwModel::ceiling`] per allocation size, each built the first
    /// time it is asked for. Clones share the tables.
    ceilings: Arc<[OnceLock<MixCeiling>]>,
}

/// Two models are equal when their coefficients are, whatever either has
/// tabulated.
impl PartialEq for EffBwModel {
    fn eq(&self, other: &Self) -> bool {
        self.theta == other.theta
    }
}

impl fmt::Debug for EffBwModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EffBwModel")
            .field("theta", &self.theta)
            .finish()
    }
}

impl EffBwModel {
    /// Wraps an explicit coefficient vector (e.g.
    /// [`crate::paper_coefficients`]).
    #[must_use]
    pub fn from_coefficients(theta: [f64; NUM_FEATURES]) -> Self {
        Self {
            theta,
            ceilings: (0..=CEILING_MAX_GPUS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The model a machine's allocator scores with: fitted on the
    /// machine's own 2–5-GPU allocation corpus (§3.4.3 protocol), or the
    /// paper's Table 2 coefficients when that corpus cannot be fitted.
    /// The corpus walks every `k`-GPU allocation in place and measures one
    /// per link mix, so its cost grows as `C(n, 5)`: 4 368 allocations on
    /// a 16-GPU machine, ~1.3·10⁸ on a DGX-2 split into 112 MIG slices.
    #[must_use]
    pub fn for_machine(machine: &Topology) -> Self {
        let max_fit = machine.gpu_count().min(5);
        Self::fit(&corpus::build_corpus(machine, 2..=max_fit))
            .unwrap_or_else(|_| Self::from_coefficients(crate::paper_coefficients()))
    }

    /// Fits θ by least squares over the Eq. 2 features, the paper's
    /// "non-linear polynomial regression" (the model is linear in θ): one
    /// 14×14 normal-equation solve `(AᵀA + λI)·θ = Aᵀb`, where row `k` of
    /// `A` is sample `k`'s feature expansion and `b` its bandwidth.
    ///
    /// A tiny ridge term `λ = 1e-6` guards against collinear corpora; its
    /// effect on predictions is far below measurement noise.
    ///
    /// # Errors
    /// Fails with fewer samples than features or on a singular system.
    pub fn fit(samples: &[Sample]) -> Result<Self, FitError> {
        if samples.len() < NUM_FEATURES {
            return Err(FitError::TooFewSamples {
                got: samples.len(),
                need: NUM_FEATURES,
            });
        }
        let rows: Vec<[f64; NUM_FEATURES]> =
            samples.iter().map(|s| features::expand(&s.mix)).collect();
        let mut ata = [[0.0; NUM_FEATURES]; NUM_FEATURES];
        for row in &rows {
            for (ata_i, &a_i) in ata.iter_mut().zip(row) {
                for (cell, &a_j) in ata_i.iter_mut().zip(row) {
                    *cell += a_i * a_j;
                }
            }
        }
        for (i, ata_i) in ata.iter_mut().enumerate() {
            ata_i[i] += 1e-6;
        }
        let atb = std::array::from_fn(|i| {
            rows.iter()
                .zip(samples)
                .map(|(row, s)| row[i] * s.eff_bw_gbps)
                .sum()
        });
        Ok(Self::from_coefficients(solve(ata, atb)?))
    }

    /// The fitted coefficients θ₁…θ₁₄.
    #[must_use]
    pub fn coefficients(&self) -> &[f64; NUM_FEATURES] {
        &self.theta
    }

    /// Predicted effective bandwidth (GB/s) for a link mix. Clamped at 0
    /// from below — the regression is unconstrained but bandwidth is not.
    #[must_use]
    pub fn predict(&self, mix: &LinkMix) -> f64 {
        features::predict_with(&self.theta, mix).max(0.0)
    }

    /// The [`MixCeiling`] of `k`-GPU allocations, built the first time it
    /// is asked for; `None` for `k < 2` (no links) and for `k` above 16,
    /// whose tables would outgrow what they save.
    #[must_use]
    pub fn ceiling(&self, k: usize) -> Option<&MixCeiling> {
        let slot = self.ceilings.get(k).filter(|_| k >= 2)?;
        Some(slot.get_or_init(|| MixCeiling::new(self, k * (k - 1) / 2)))
    }

    /// Evaluates the model on a sample set, returning
    /// `(mean relative error, RMSE, MAE, Pearson r)` — the quartet the
    /// paper reports for Fig. 12.
    #[must_use]
    pub fn evaluate(&self, samples: &[Sample]) -> ModelQuality {
        let predicted: Vec<f64> = samples.iter().map(|s| self.predict(&s.mix)).collect();
        let actual: Vec<f64> = samples.iter().map(|s| s.eff_bw_gbps).collect();
        ModelQuality {
            relative_error: metrics::mean_relative_error(&predicted, &actual),
            rmse: metrics::rmse(&predicted, &actual),
            mae: metrics::mae(&predicted, &actual),
            pearson_r: metrics::pearson(&predicted, &actual),
        }
    }
}

/// The largest [`EffBwModel::predict`] over the mixes of one allocation
/// size that hold at least given numbers of links of each class: what a
/// walk over GPU sets that has fixed only some of a set's links needs to
/// bound the rest.
///
/// A `k`-GPU allocation has `s = k(k−1)/2` links. The table holds one cell
/// per `(x, y, z)` with `x + y + z ≤ s`; a full mix's cell is its
/// prediction, bit for bit, and any other cell is the largest of the three
/// it reaches by adding one link.
pub struct MixCeiling {
    links: usize,
    /// `start[x]`: the first cell with `x` double NVLinks. After it come
    /// the `(y, z)` with `y + z ≤ s − x`, `y` major.
    start: Box<[usize]>,
    cells: Box<[f64]>,
}

impl MixCeiling {
    fn new(model: &EffBwModel, links: usize) -> Self {
        let mut start = Vec::with_capacity(links + 1);
        let mut len = 0;
        for x in 0..=links {
            start.push(len);
            let rest = links - x;
            len += (rest + 1) * (rest + 2) / 2;
        }
        let mut table = Self {
            links,
            start: start.into(),
            cells: vec![0.0; len].into(),
        };
        for x in (0..=links).rev() {
            for y in (0..=links - x).rev() {
                for z in (0..=links - x - y).rev() {
                    let value = if x + y + z == links {
                        model.predict(&LinkMix {
                            double_nvlink: x,
                            single_nvlink: y,
                            pcie: z,
                        })
                    } else {
                        table
                            .cell(x + 1, y, z)
                            .max(table.cell(x, y + 1, z))
                            .max(table.cell(x, y, z + 1))
                    };
                    let at = table.index(x, y, z);
                    table.cells[at] = value;
                }
            }
        }
        table
    }

    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        let rest = self.links - x;
        self.start[x] + y * (2 * rest + 3 - y) / 2 + z
    }

    fn cell(&self, x: usize, y: usize, z: usize) -> f64 {
        self.cells[self.index(x, y, z)]
    }

    /// The largest prediction over the full mixes with at least `mix`'s
    /// links of each class.
    ///
    /// # Panics
    /// Panics if `mix` holds more links than an allocation of this size.
    #[must_use]
    pub fn at_least(&self, mix: &LinkMix) -> f64 {
        assert!(
            mix.total() <= self.links,
            "mix {mix:?} exceeds {} links",
            self.links
        );
        self.cell(mix.double_nvlink, mix.single_nvlink, mix.pcie)
    }
}

/// Solves `a·x = b` by Gaussian elimination with partial pivoting: the
/// pivot is the largest `|a|` at or below the diagonal (the last such row
/// on a tie), and back-substitution runs from the last column down.
fn solve(
    mut a: [[f64; NUM_FEATURES]; NUM_FEATURES],
    mut x: [f64; NUM_FEATURES],
) -> Result<[f64; NUM_FEATURES], FitError> {
    for col in 0..NUM_FEATURES {
        let pivot_row = (col..NUM_FEATURES)
            .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
            .expect("non-empty range");
        if a[pivot_row][col].abs() < 1e-12 {
            return Err(FitError::Singular);
        }
        a.swap(col, pivot_row);
        x.swap(col, pivot_row);
        let (above, below) = a.split_at_mut(col + 1);
        let (x_above, x_below) = x.split_at_mut(col + 1);
        let pivot_eq = &above[col];
        for (eq, x_row) in below.iter_mut().zip(x_below) {
            let factor = eq[col] / pivot_eq[col];
            if factor == 0.0 {
                continue;
            }
            for (cell, &p) in eq[col..].iter_mut().zip(&pivot_eq[col..]) {
                *cell -= factor * p;
            }
            *x_row -= factor * x_above[col];
        }
    }
    for col in (0..NUM_FEATURES).rev() {
        x[col] /= a[col][col];
        let (x_above, x_col) = x.split_at_mut(col);
        for (x_row, eq) in x_above.iter_mut().zip(&a) {
            *x_row -= eq[col] * x_col[0];
        }
    }
    Ok(x)
}

/// Prediction-quality summary (paper Fig. 12 reports the first three).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelQuality {
    /// Mean relative error.
    pub relative_error: f64,
    /// Root-mean-square error (GB/s).
    pub rmse: f64,
    /// Mean absolute error (GB/s).
    pub mae: f64,
    /// Pearson correlation between predicted and actual.
    pub pearson_r: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{build_corpus, build_full_corpus};
    use mapa_topology::{machines, PartitionPlan};
    use proptest::prelude::*;

    /// `a` with `a[i][j] = 1` wherever `(i, j)` is listed, 0 elsewhere.
    fn sparse(
        ones: impl IntoIterator<Item = (usize, usize)>,
    ) -> [[f64; NUM_FEATURES]; NUM_FEATURES] {
        let mut a = [[0.0; NUM_FEATURES]; NUM_FEATURES];
        for (i, j) in ones {
            a[i][j] = 1.0;
        }
        a
    }

    /// A diagonally dominant (hence nonsingular) system drawn from `seed`.
    fn diagonally_dominant(
        seed: &[f64],
    ) -> ([[f64; NUM_FEATURES]; NUM_FEATURES], [f64; NUM_FEATURES]) {
        let n = NUM_FEATURES;
        let mut a = [[0.0; NUM_FEATURES]; NUM_FEATURES];
        for (i, row) in a.iter_mut().enumerate() {
            row.copy_from_slice(&seed[i * n..(i + 1) * n]);
            row[i] = 0.0;
            row[i] = row.iter().map(|v| v.abs()).sum::<f64>() + 1.0;
        }
        (a, std::array::from_fn(|i| seed[n * n + i]))
    }

    proptest! {
        #[test]
        fn solve_then_multiply_roundtrips(
            seed in proptest::collection::vec(-5.0f64..5.0, NUM_FEATURES * (NUM_FEATURES + 1)),
        ) {
            let (a, b) = diagonally_dominant(&seed);
            let x = solve(a, b).unwrap();
            for (row, want) in a.iter().zip(b) {
                let got: f64 = row.iter().zip(&x).map(|(r, x)| r * x).sum();
                prop_assert!((got - want).abs() < 1e-8, "{got} vs {want}");
            }
        }
    }

    #[test]
    fn solve_swaps_rows_past_a_zero_leading_entry() {
        // Rows 0 and 1 of the identity swapped: column 0 pivots on row 1.
        let a = sparse((2..NUM_FEATURES).map(|i| (i, i)).chain([(0, 1), (1, 0)]));
        let b = std::array::from_fn(|i| i as f64 + 1.0);
        let mut want = b;
        want.swap(0, 1);
        assert_eq!(solve(a, b), Ok(want));
    }

    #[test]
    fn solve_refuses_a_zero_column() {
        let a = sparse((1..NUM_FEATURES).map(|i| (i, i)));
        assert_eq!(solve(a, [1.0; NUM_FEATURES]), Err(FitError::Singular));
    }

    #[test]
    fn fit_recovers_the_coefficients_behind_a_noise_free_corpus() {
        let want = crate::paper_coefficients();
        let mut samples = build_corpus(&machines::dgx1_v100(), 2..=5);
        assert_eq!(samples.len(), 26);
        for s in &mut samples {
            s.eff_bw_gbps = features::predict_with(&want, &s.mix);
        }
        let got = EffBwModel::fit(&samples).unwrap();
        // The 26 mixes pin θ only loosely along some directions, so the
        // ridge pulls those coefficients by up to ~0.3 %; the bandwidths
        // themselves come back within 0.01 GB/s.
        for (g, w) in got.coefficients().iter().zip(&want) {
            assert!((g - w).abs() < 0.01 * w.abs(), "{g} vs {w}");
        }
        for s in &samples {
            let err = features::predict_with(got.coefficients(), &s.mix) - s.eff_bw_gbps;
            assert!(err.abs() < 0.01, "{:?}: off by {err} GB/s", s.mix);
        }
    }

    #[test]
    fn ridge_solves_a_rank_deficient_corpus() {
        let one = build_corpus(&machines::dgx1_v100(), 3..=3).remove(0);
        let copies = vec![one; NUM_FEATURES];
        assert!(EffBwModel::fit(&copies).is_ok());
    }

    #[test]
    fn per_machine_coefficients_are_pinned() {
        let mig = PartitionPlan::new().split(0, 7).split(1, 3);
        let pins: [(Topology, [u64; NUM_FEATURES]); 4] = [
            (
                machines::dgx1_v100(),
                [
                    0xc029da16f81223bd,
                    0xc014f39b3406cd9a,
                    0xc0122abcc64ba8a8,
                    0xc0401c56dcf7b656,
                    0x403dda74576ee7d1,
                    0x404a94b9d2764cc3,
                    0x401b8bc9d8abff1b,
                    0x4010c722d25facfd,
                    0x40156ed14b85322a,
                    0x4023129511d6e750,
                    0xc03e0d81beb6ebd1,
                    0x4023ce5784a1cf61,
                    0xc0061bfcdd724366,
                    0x401369e439d99b90,
                ],
            ),
            (
                machines::torus_2d(),
                [
                    0x401edb394a748f6f,
                    0x40147ff9c71abd2a,
                    0x3ffc65f8d7a5c74e,
                    0xc0413853793f7e9d,
                    0xc00d14c6ffecbb7d,
                    0x4033a505161391c2,
                    0xc0038a8f36ebdf3a,
                    0xbfe313ef9bcf4773,
                    0xbff56dd7515e6139,
                    0x403e8ad1dc06f12a,
                    0x401791558306e9df,
                    0x4037415c39b0e75b,
                    0x3fda9ee9831c98ec,
                    0xc037b5f0929e5790,
                ],
            ),
            (
                machines::cube_mesh(),
                [
                    0xc0100a4f283a8394,
                    0x4014f5752782d525,
                    0x3ffaedf5909b9674,
                    0xc04703d2575d513a,
                    0x402dc55f84d9275a,
                    0x4039070b9e342430,
                    0x3ff1a66c946f0791,
                    0xbfdda372735780dc,
                    0x3fd0d25d6c9d5cdc,
                    0x40386f505a35ec29,
                    0xc0019a209d439ee7,
                    0x403e583c003ba2b9,
                    0xbfba6ed5dfd26b40,
                    0xc035a95de1575808,
                ],
            ),
            (
                mig.apply(&machines::dgx1_v100()),
                [
                    0x40130c07ee01768f,
                    0x400978ff60dcc308,
                    0x400f1b4563aeb8b6,
                    0xc03b36094e64641d,
                    0xc02d1c3ebed31231,
                    0x4035a6da9151defc,
                    0xbfdcb53073bcbe13,
                    0xbff644306945a3d6,
                    0xbff8bd464666948a,
                    0x403f51262aa2953e,
                    0x401ed27e2a2246dc,
                    0x4031a4567887aab0,
                    0x3fde28d58aeeee22,
                    0xc035a0254e011abe,
                ],
            ),
        ];
        for (machine, want) in pins {
            let got = EffBwModel::for_machine(&machine)
                .coefficients()
                .map(f64::to_bits);
            assert_eq!(got, want, "{}", machine.name());
        }
    }

    #[test]
    fn fit_on_dgx_corpus_is_accurate() {
        let dgx = machines::dgx1_v100();
        let corpus = build_corpus(&dgx, 2..=5);
        let model = EffBwModel::fit(&corpus).unwrap();
        let q = model.evaluate(&corpus);
        // The paper reports RelErr 0.0709 on its own 31-sample corpus; our
        // simulated corpus is noise-free, so the fit should be at least
        // comparable.
        assert!(q.relative_error < 0.25, "relative error {q:?}");
        assert!(q.pearson_r > 0.9, "correlation {q:?}");
    }

    #[test]
    fn model_generalizes_to_all_allocations() {
        // Fit on the 26 unique mixes, evaluate on every 2–5-GPU allocation
        // (Fig. 12's "generalizes well even when the number of GPUs in a
        // job varies").
        let dgx = machines::dgx1_v100();
        let train = build_corpus(&dgx, 2..=5);
        let test = build_full_corpus(&dgx, 2..=5);
        let model = EffBwModel::fit(&train).unwrap();
        let q = model.evaluate(&test);
        assert!(q.pearson_r > 0.85, "generalization correlation {q:?}");
    }

    #[test]
    fn predictions_track_link_class_order() {
        let dgx = machines::dgx1_v100();
        let model = EffBwModel::fit(&build_corpus(&dgx, 2..=5)).unwrap();
        let d = model.predict(&LinkMix {
            double_nvlink: 1,
            single_nvlink: 0,
            pcie: 0,
        });
        let s = model.predict(&LinkMix {
            double_nvlink: 0,
            single_nvlink: 1,
            pcie: 0,
        });
        let p = model.predict(&LinkMix {
            double_nvlink: 0,
            single_nvlink: 0,
            pcie: 1,
        });
        assert!(d > s && s > p, "{d} {s} {p}");
    }

    #[test]
    fn too_few_samples_rejected() {
        let dgx = machines::dgx1_v100();
        let corpus = build_corpus(&dgx, 2..=2);
        // 2-GPU allocations on DGX-1V yield only 3 unique mixes.
        assert!(matches!(
            EffBwModel::fit(&corpus),
            Err(FitError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn predictions_never_negative() {
        let model = EffBwModel::from_coefficients(crate::paper_coefficients());
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    let mix = LinkMix {
                        double_nvlink: x,
                        single_nvlink: y,
                        pcie: z,
                    };
                    assert!(model.predict(&mix) >= 0.0, "({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn from_coefficients_roundtrip() {
        let theta = crate::paper_coefficients();
        let model = EffBwModel::from_coefficients(theta);
        assert_eq!(model.coefficients(), &theta);
    }

    #[test]
    fn ceiling_is_the_best_prediction_over_every_dominating_mix() {
        let model = EffBwModel::for_machine(&machines::dgx1_v100());
        assert!(model.ceiling(1).is_none() && model.ceiling(17).is_none());
        let mix = |x, y, z| LinkMix {
            double_nvlink: x,
            single_nvlink: y,
            pcie: z,
        };
        for k in 2..=6 {
            let links = k * (k - 1) / 2;
            let ceiling = model.ceiling(k).unwrap();
            for x in 0..=links {
                for y in 0..=links - x {
                    for z in 0..=links - x - y {
                        let mut best = f64::NEG_INFINITY;
                        for a in x..=links {
                            for b in y..=links - a {
                                if links - a - b >= z {
                                    best = best.max(model.predict(&mix(a, b, links - a - b)));
                                }
                            }
                        }
                        let got = ceiling.at_least(&mix(x, y, z));
                        assert_eq!(got.to_bits(), best.to_bits(), "k={k} ({x},{y},{z})");
                    }
                }
            }
        }
        // Clones read the table the original built; equality ignores it.
        let clone = model.clone();
        assert!(std::ptr::eq(
            model.ceiling(4).unwrap(),
            clone.ceiling(4).unwrap()
        ));
        assert_eq!(clone, EffBwModel::from_coefficients(*model.coefficients()));
    }
}
