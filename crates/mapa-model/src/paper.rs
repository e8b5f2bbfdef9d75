//! The published Table 2 coefficients.

use crate::features::NUM_FEATURES;

/// The θ₁…θ₁₄ values of the paper's Table 2, fitted by the authors on 31
/// unique-(x, y, z) NCCL all-reduce measurements from their DGX-1 V100.
///
/// [`crate::EffBwModel::for_machine`] falls back to them when a machine's
/// corpus has too few link mixes to fit (DGX-2 and Summit do).
#[must_use]
pub fn paper_coefficients() -> [f64; NUM_FEATURES] {
    [
        16.396,  // θ1  · x
        4.536,   // θ2  · y
        1.556,   // θ3  · z
        -20.694, // θ4  / (x+1)
        -9.467,  // θ5  / (y+1)
        7.615,   // θ6  / (z+1)
        -7.973,  // θ7  · xy
        12.733,  // θ8  · yz
        -4.195,  // θ9  · zx
        -8.413,  // θ10 / (xy+1)
        62.851,  // θ11 / (yz+1)
        27.418,  // θ12 / (zx+1)
        -5.114,  // θ13 · xyz
        -46.973, // θ14 / (xyz+1)
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::predict_with;
    use mapa_topology::LinkMix;

    #[test]
    fn paper_model_predicts_sane_link_class_values() {
        let theta = paper_coefficients();
        // One double NVLink (a 2-GPU double allocation).
        let double = predict_with(
            &theta,
            &LinkMix {
                double_nvlink: 1,
                single_nvlink: 0,
                pcie: 0,
            },
        );
        // One single NVLink.
        let single = predict_with(
            &theta,
            &LinkMix {
                double_nvlink: 0,
                single_nvlink: 1,
                pcie: 0,
            },
        );
        // One PCIe hop.
        let pcie = predict_with(
            &theta,
            &LinkMix {
                double_nvlink: 0,
                single_nvlink: 0,
                pcie: 1,
            },
        );
        // The paper's model orders the three link classes correctly.
        assert!(double > single, "{double} vs {single}");
        assert!(single > pcie, "{single} vs {pcie}");
        // And stays in the plausible 0–80 GB/s EffBW range of Fig. 12.
        for v in [double, single, pcie] {
            assert!(v > 0.0 && v < 80.0, "{v}");
        }
    }

    #[test]
    fn exact_table2_values() {
        let t = paper_coefficients();
        assert_eq!(t[0], 16.396);
        assert_eq!(t[7], 12.733);
        assert_eq!(t[13], -46.973);
        assert_eq!(t.len(), 14);
    }
}
