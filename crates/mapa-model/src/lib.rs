//! Predicted Effective Bandwidth — the paper's Eq. 2 regression model.
//!
//! §3.4.3 of the paper: effective bandwidth "cannot be trivially obtained
//! given an allocation without microbenchmarking", so MAPA predicts it from
//! the allocation's link mix `(x, y, z)` (double NVLinks, single NVLinks,
//! PCIe links) via a polynomial regression with 14 non-linear features and
//! coefficients θ₁…θ₁₄ (Table 2).
//!
//! This crate provides:
//!
//! * [`features`] — the exact Eq. 2 feature expansion;
//! * [`EffBwModel`] — fit (via OLS over the features, exactly the paper's
//!   "non-linear polynomial regression", one 14×14 normal-equation solve)
//!   and predict;
//! * [`paper_coefficients`] — the published Table 2 θ values, the
//!   fallback of [`EffBwModel::for_machine`] where a corpus cannot be fit;
//! * [`corpus`] — the training-set protocol of §3.4.3: enumerate 2–5-GPU
//!   allocations on a machine, deduplicate by unique `(x, y, z)`, and
//!   measure EffBW with the simulated microbenchmark (26 samples on
//!   DGX-1V, against the paper's 31);
//! * [`metrics`] — RMSE, MAE, mean relative error, Pearson correlation.
//!
//! # Example
//!
//! ```
//! use mapa_model::{corpus, EffBwModel};
//! use mapa_topology::{machines, LinkMix};
//!
//! let dgx = machines::dgx1_v100();
//! let samples = corpus::build_corpus(&dgx, 2..=5);
//! let model = EffBwModel::fit(&samples).unwrap();
//! // A pure double-NVLink pair should predict near 50 GB/s.
//! let mix = LinkMix { double_nvlink: 1, single_nvlink: 0, pcie: 0 };
//! let pred = model.predict(&mix);
//! assert!((pred - 50.0).abs() < 10.0, "prediction {pred}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod features;
pub mod metrics;
mod paper;
mod regress;

pub use paper::paper_coefficients;
pub use regress::{EffBwModel, FitError, MixCeiling};
