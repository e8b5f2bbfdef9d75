//! Message-size distributions (the paper's Fig. 5a CDFs).
//!
//! Fig. 5a plots, per network, the cumulative distribution of collective
//! message sizes. We model each network's distribution as log-normal around
//! its calibrated mean message size with a spread typical of layer-wise
//! gradient synchronization (layers span ~3 orders of magnitude), and
//! expose the CDF analytically.

use crate::network::Workload;

/// Log-standard-deviation (in ln-bytes) of the per-layer message sizes.
/// Gradient tensors across CNN layers commonly span ~2–3 decades.
const SIGMA_LN: f64 = 1.6;

/// The CDF of message sizes for `workload`, evaluated at `bytes`.
///
/// A log-normal CDF with median at the workload's calibrated average
/// message size: `Φ((ln s − ln μ) / σ)`.
#[must_use]
pub fn message_size_cdf(workload: Workload, bytes: f64) -> f64 {
    if bytes <= 0.0 {
        return 0.0;
    }
    let mu_ln = workload.model().avg_message_bytes.ln();
    let z = (bytes.ln() - mu_ln) / SIGMA_LN;
    standard_normal_cdf(z)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (7.1.26), accurate to ~1.5e-7 — plenty for plotting CDFs.
#[must_use]
pub fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        for w in Workload::cnns() {
            // 10²–10⁹·⁷⁵ bytes, four geometric steps per decade.
            let curve: Vec<f64> = (8..40)
                .map(|step| message_size_cdf(w, 10f64.powf(f64::from(step) / 4.0)))
                .collect();
            for p in &curve {
                assert!((0.0..=1.0).contains(p), "{w}: {p}");
            }
            for pair in curve.windows(2) {
                assert!(pair[1] >= pair[0] - 1e-12, "{w}");
            }
        }
    }

    #[test]
    fn median_sits_at_average_message_size() {
        for w in Workload::cnns() {
            let mu = w.model().avg_message_bytes;
            let cdf = message_size_cdf(w, mu);
            assert!((cdf - 0.5).abs() < 1e-6, "{w}: CDF({mu}) = {cdf}");
        }
    }

    #[test]
    fn googlenet_is_left_of_vgg() {
        // Fig. 5a: GoogleNet's messages are smaller — at any size its CDF
        // is at least VGG's.
        for exp in 2..9 {
            let s = 10f64.powi(exp);
            assert!(
                message_size_cdf(Workload::GoogleNet, s)
                    >= message_size_cdf(Workload::Vgg16, s) - 1e-12
            );
        }
    }

    #[test]
    fn large_message_networks_cross_1e5_late() {
        // "data size has to be larger than 1e5 to make use of the
        // high-speed links": the sensitive large-message networks still
        // have most of their traffic above 1e5.
        for w in [Workload::Vgg16, Workload::AlexNet, Workload::CaffeNet] {
            assert!(message_size_cdf(w, 1e5) < 0.5, "{w}");
        }
        assert!(message_size_cdf(Workload::GoogleNet, 1e5) > 0.5);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(standard_normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn zero_size_has_zero_mass() {
        assert_eq!(message_size_cdf(Workload::Vgg16, 0.0), 0.0);
        assert_eq!(message_size_cdf(Workload::Vgg16, -5.0), 0.0);
    }
}
