//! Inter-accelerator link types and their peak bandwidths (paper Table 1).

use std::fmt;

/// The kinds of inter-GPU links found in the paper's machines.
///
/// Peak bandwidths come straight from Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkType {
    /// PCIe Gen3 x16, possibly traversing the CPU/QPI: 12 GB/s.
    ///
    /// This is the universal fallback — any two GPUs can always communicate
    /// through the host.
    Pcie,
    /// One NVLink-v1 brick (Pascal generation): 20 GB/s.
    SingleNvLink1,
    /// One NVLink-v2 brick (Volta generation): 25 GB/s.
    SingleNvLink2,
    /// Two bonded NVLink-v2 bricks: 50 GB/s.
    DoubleNvLink2,
}

impl LinkType {
    /// Peak unidirectional bandwidth in GB/s (Table 1).
    #[must_use]
    pub fn bandwidth_gbps(self) -> f64 {
        match self {
            LinkType::Pcie => 12.0,
            LinkType::SingleNvLink1 => 20.0,
            LinkType::SingleNvLink2 => 25.0,
            LinkType::DoubleNvLink2 => 50.0,
        }
    }

    /// All link types, slowest first.
    #[must_use]
    pub const fn all() -> [LinkType; 4] {
        [
            LinkType::Pcie,
            LinkType::SingleNvLink1,
            LinkType::SingleNvLink2,
            LinkType::DoubleNvLink2,
        ]
    }
}

impl fmt::Display for LinkType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkType::Pcie => "PCIe",
            LinkType::SingleNvLink1 => "NVLink-v1",
            LinkType::SingleNvLink2 => "NVLink-v2",
            LinkType::DoubleNvLink2 => "2xNVLink-v2",
        };
        f.write_str(s)
    }
}

/// Counts of link types in an allocation — the `(x, y, z)` triple of the
/// paper's effective-bandwidth regression (Eq. 2): `x` double NVLinks,
/// `y` single NVLinks (either generation), `z` PCIe links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkMix {
    /// Number of double NVLink-v2 links (`x`).
    pub double_nvlink: usize,
    /// Number of single NVLink links, v1 or v2 (`y`).
    pub single_nvlink: usize,
    /// Number of PCIe hops (`z`).
    pub pcie: usize,
}

impl LinkMix {
    /// Accumulates one link into the mix.
    pub fn add(&mut self, link: LinkType) {
        self.add_many(link, 1);
    }

    /// Accumulates `count` links of one type into the mix.
    pub fn add_many(&mut self, link: LinkType, count: usize) {
        match link {
            LinkType::DoubleNvLink2 => self.double_nvlink += count,
            LinkType::SingleNvLink1 | LinkType::SingleNvLink2 => self.single_nvlink += count,
            LinkType::Pcie => self.pcie += count,
        }
    }

    /// Builds a mix from an iterator of links.
    #[must_use]
    pub fn from_links(links: impl IntoIterator<Item = LinkType>) -> Self {
        let mut mix = Self::default();
        for l in links {
            mix.add(l);
        }
        mix
    }

    /// Total number of links counted.
    #[must_use]
    pub fn total(&self) -> usize {
        self.double_nvlink + self.single_nvlink + self.pcie
    }

    /// The `(x, y, z)` triple as floats, for feeding the regression model.
    #[must_use]
    pub fn xyz(&self) -> (f64, f64, f64) {
        (
            self.double_nvlink as f64,
            self.single_nvlink as f64,
            self.pcie as f64,
        )
    }
}

/// Counts both mixes' links: the mix of two disjoint sets of GPU pairs.
impl std::ops::Add for LinkMix {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            double_nvlink: self.double_nvlink + other.double_nvlink,
            single_nvlink: self.single_nvlink + other.single_nvlink,
            pcie: self.pcie + other.pcie,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_bandwidths() {
        // Exact values from Table 1 of the paper.
        assert_eq!(LinkType::SingleNvLink1.bandwidth_gbps(), 20.0);
        assert_eq!(LinkType::SingleNvLink2.bandwidth_gbps(), 25.0);
        assert_eq!(LinkType::DoubleNvLink2.bandwidth_gbps(), 50.0);
        assert_eq!(LinkType::Pcie.bandwidth_gbps(), 12.0);
    }

    #[test]
    fn ordering_matches_bandwidth() {
        let mut all = LinkType::all();
        all.sort();
        let bws: Vec<f64> = all.iter().map(|l| l.bandwidth_gbps()).collect();
        assert!(bws.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_strings() {
        assert_eq!(LinkType::Pcie.to_string(), "PCIe");
        assert_eq!(LinkType::DoubleNvLink2.to_string(), "2xNVLink-v2");
    }

    #[test]
    fn link_mix_accumulates_both_nvlink_generations_as_single() {
        let mix = LinkMix::from_links([
            LinkType::DoubleNvLink2,
            LinkType::SingleNvLink1,
            LinkType::SingleNvLink2,
            LinkType::Pcie,
            LinkType::Pcie,
        ]);
        assert_eq!(mix.double_nvlink, 1);
        assert_eq!(mix.single_nvlink, 2);
        assert_eq!(mix.pcie, 2);
        assert_eq!(mix.total(), 5);
        assert_eq!(mix.xyz(), (1.0, 2.0, 2.0));
    }

    #[test]
    fn empty_mix() {
        let mix = LinkMix::default();
        assert_eq!(mix.total(), 0);
        assert_eq!(mix.xyz(), (0.0, 0.0, 0.0));
    }
}
