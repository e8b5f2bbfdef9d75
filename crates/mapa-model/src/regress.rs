//! Fitting and evaluating the Predicted-EffBW model.

use crate::corpus::{self, Sample};
use crate::features::{self, NUM_FEATURES};
use crate::linalg::{self, LinalgError, Matrix};
use crate::metrics;
use mapa_topology::{LinkMix, Topology};
use std::fmt;

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
    /// The normal equations could not be solved.
    Linalg(LinalgError),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { got, need } => {
                write!(f, "need at least {need} samples to fit, got {got}")
            }
            FitError::Linalg(e) => write!(f, "normal equations failed: {e}"),
        }
    }
}

impl std::error::Error for FitError {}

/// The Eq. 2 effective-bandwidth predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct EffBwModel {
    theta: [f64; NUM_FEATURES],
}

impl EffBwModel {
    /// Wraps an explicit coefficient vector (e.g.
    /// [`crate::paper_coefficients`]).
    #[must_use]
    pub fn from_coefficients(theta: [f64; NUM_FEATURES]) -> Self {
        Self { theta }
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
    /// "non-linear polynomial regression" (the model is linear in θ).
    ///
    /// A tiny ridge term (1e-6) guards against collinear corpora; its
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
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| features::expand(&s.mix).to_vec())
            .collect();
        let a = Matrix::from_rows(&rows);
        let b: Vec<f64> = samples.iter().map(|s| s.eff_bw_gbps).collect();
        let theta_vec = linalg::least_squares(&a, &b, 1e-6).map_err(FitError::Linalg)?;
        let mut theta = [0.0; NUM_FEATURES];
        theta.copy_from_slice(&theta_vec);
        Ok(Self { theta })
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
    use mapa_topology::machines;

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
}
