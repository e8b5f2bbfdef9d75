//! Virtualized accelerators — the paper's §3.2/§3.3 extension sketch.
//!
//! "A potential solution to address this is to label the vertices … with
//! the amount of physical resources available", and for many-to-one
//! mapping, "representing virtual GPUs as separate nodes in the hardware
//! graph". This module implements the second idea for Nvidia MIG-style
//! hardware partitioning: a physical GPU is replaced by `k` virtual GPU
//! vertices. Each slice inherits the physical GPU's external links (they
//! *share* the physical NVLink — the pessimistic alternative of dividing
//! bandwidth per slice is selectable), and slices of the same GPU talk
//! through on-die memory, modeled as the fastest link class.
//!
//! The entry point is [`PartitionPlan`]: declare which GPUs split into how
//! many slices, then [`PartitionPlan::apply`] it to a machine to get a
//! [`Topology`] whose [`SliceMap`] ([`Topology::slice_map`]) names every
//! slice's physical GPU. The map travels inside the topology itself, so
//! allocators and schedulers downstream see slice structure without
//! extra plumbing.
//!
//! Static link interference is still out of scope exactly as the paper
//! leaves it; *dynamic* co-residency pressure is scored by the allocator
//! (see `mapa-core`), which reads the [`SliceMap`] embedded here.

use crate::{LinkType, Topology};
use mapa_graph::Graph;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a slice shares its physical GPU's external links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceBandwidth {
    /// Each slice sees the full physical link (optimistic; fine when
    /// co-resident slices rarely communicate simultaneously).
    Shared,
    /// External links are degraded one class per extra slice
    /// (pessimistic static partitioning): double → single → PCIe.
    Degraded,
}

/// Slice↔physical mapping of a partitioned machine.
///
/// Vertices of a partitioned [`Topology`] are slices (or whole GPUs, for
/// physical GPUs the plan left alone); this type answers which physical
/// GPU each vertex lives on and how many slices each physical GPU was cut
/// into. Slices of one GPU always occupy consecutive vertex ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceMap {
    /// Per vertex: the physical GPU it lives on.
    phys_of: Vec<usize>,
    /// Per physical GPU: how many slices it was cut into (1 = whole).
    slice_count: Vec<usize>,
    /// Per physical GPU: its first vertex id.
    first_vertex: Vec<usize>,
}

impl SliceMap {
    fn new(phys_of: Vec<usize>, slice_count: Vec<usize>) -> Self {
        let mut first_vertex = Vec::with_capacity(slice_count.len());
        let mut next = 0;
        for &c in &slice_count {
            first_vertex.push(next);
            next += c;
        }
        debug_assert_eq!(next, phys_of.len());
        Self {
            phys_of,
            slice_count,
            first_vertex,
        }
    }

    /// Number of vertices (slices + whole GPUs).
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.phys_of.len()
    }

    /// Number of physical GPUs.
    #[must_use]
    pub fn physical_count(&self) -> usize {
        self.slice_count.len()
    }

    /// The physical GPU vertex `v` lives on.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn physical_of(&self, v: usize) -> usize {
        self.phys_of[v]
    }

    /// How many slices physical GPU `phys` was cut into (1 = whole).
    ///
    /// # Panics
    /// Panics if `phys` is out of range.
    #[must_use]
    pub fn slices_of(&self, phys: usize) -> usize {
        self.slice_count[phys]
    }

    /// The vertex ids living on physical GPU `phys` (consecutive).
    ///
    /// # Panics
    /// Panics if `phys` is out of range.
    #[must_use]
    pub fn vertices_of(&self, phys: usize) -> std::ops::Range<usize> {
        let first = self.first_vertex[phys];
        first..first + self.slice_count[phys]
    }

    /// Whether vertex `v` is a slice of a partitioned GPU (as opposed to
    /// a whole GPU the plan left alone).
    #[must_use]
    pub fn is_slice(&self, v: usize) -> bool {
        self.slice_count[self.phys_of[v]] > 1
    }
}

/// A declarative multi-GPU partition plan: which physical GPUs split into
/// how many slices, and how slices share external links.
///
/// ```
/// use mapa_topology::virt::{PartitionPlan, SliceBandwidth};
/// use mapa_topology::machines;
///
/// let virt = PartitionPlan::new()
///     .split(0, 7)
///     .split(3, 2)
///     .apply(&machines::dgx1_v100());
/// assert_eq!(virt.gpu_count(), 8 + 6 + 1);
/// assert_eq!(virt.unsplit_gpu_count(), 6);
/// assert_eq!(virt.slice_map().unwrap().slices_of(0), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionPlan {
    splits: BTreeMap<usize, usize>,
    degraded: bool,
}

impl PartitionPlan {
    /// An empty plan (no GPU split, links shared).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the slice-bandwidth mode for the whole plan (default
    /// [`SliceBandwidth::Shared`]).
    #[must_use]
    pub fn with_bandwidth(mut self, bandwidth: SliceBandwidth) -> Self {
        self.degraded = bandwidth == SliceBandwidth::Degraded;
        self
    }

    /// Splits physical GPU `gpu` into `slices` slices. Splitting the same
    /// GPU twice keeps the last value; `slices = 1` removes the split.
    ///
    /// # Panics
    /// Panics if `slices` is 0 or exceeds 7 (MIG's hardware limit).
    #[must_use]
    pub fn split(mut self, gpu: usize, slices: usize) -> Self {
        assert!(
            (1..=7).contains(&slices),
            "MIG supports 1..=7 slices, got {slices}"
        );
        if slices == 1 {
            self.splits.remove(&gpu);
        } else {
            self.splits.insert(gpu, slices);
        }
        self
    }

    /// Whether the plan splits nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    /// The slice-bandwidth mode.
    #[must_use]
    pub fn bandwidth(&self) -> SliceBandwidth {
        if self.degraded {
            SliceBandwidth::Degraded
        } else {
            SliceBandwidth::Shared
        }
    }

    /// The `(gpu, slices)` pairs, ascending by GPU.
    pub fn splits(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.splits.iter().map(|(&g, &s)| (g, s))
    }

    /// Parses the CLI spelling `"gpu:slices,gpu:slices,..."` (e.g.
    /// `"0:7,3:2"`), optionally suffixed with `";degraded"` for
    /// [`SliceBandwidth::Degraded`].
    ///
    /// # Errors
    /// Returns a human-readable message for malformed input, including a
    /// GPU listed twice.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (body, mode) = match s.split_once(';') {
            Some((body, mode)) => (body, Some(mode.trim())),
            None => (s, None),
        };
        let mut plan = PartitionPlan::new();
        match mode {
            None => {}
            Some(m) if m.eq_ignore_ascii_case("shared") => {}
            Some(m) if m.eq_ignore_ascii_case("degraded") => {
                plan = plan.with_bandwidth(SliceBandwidth::Degraded);
            }
            Some(m) => return Err(format!("unknown slice-bandwidth mode '{m}'")),
        }
        let mut seen = BTreeSet::new();
        for part in body.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (gpu, slices) = part
                .split_once(':')
                .ok_or_else(|| format!("expected gpu:slices, got '{part}'"))?;
            let gpu: usize = gpu
                .trim()
                .parse()
                .map_err(|_| format!("bad GPU index '{gpu}'"))?;
            let slices: usize = slices
                .trim()
                .parse()
                .map_err(|_| format!("bad slice count '{slices}'"))?;
            if !(1..=7).contains(&slices) {
                return Err(format!("MIG supports 1..=7 slices, got {slices}"));
            }
            if !seen.insert(gpu) {
                return Err(format!("GPU {gpu} is split twice"));
            }
            plan = plan.split(gpu, slices);
        }
        Ok(plan)
    }

    /// Canonical spelling, parseable by [`PartitionPlan::parse`].
    #[must_use]
    pub fn label(&self) -> String {
        let body = self
            .splits
            .iter()
            .map(|(g, s)| format!("{g}:{s}"))
            .collect::<Vec<_>>()
            .join(",");
        if self.degraded {
            format!("{body};degraded")
        } else {
            body
        }
    }

    /// Applies the plan to a machine, expanding each split GPU in place
    /// into consecutive slice vertices; the result carries its
    /// [`SliceMap`]. Physical GPUs keep their relative order; the virtual
    /// machine's name encodes the plan (so model caches keyed by machine
    /// name never confuse two plans).
    ///
    /// # Panics
    /// Panics if any split GPU is out of range, or if `topology` is
    /// already partitioned.
    #[must_use]
    pub fn apply(&self, topology: &Topology) -> Topology {
        assert!(
            topology.slice_map().is_none(),
            "topology '{}' is already partitioned",
            topology.name()
        );
        let n_old = topology.gpu_count();
        for &gpu in self.splits.keys() {
            assert!(gpu < n_old, "GPU {gpu} out of range");
        }

        let copies = |old: usize| -> usize { self.splits.get(&old).copied().unwrap_or(1) };
        // old vertex -> first new vertex id.
        let mut new_id = Vec::with_capacity(n_old);
        let mut phys_of = Vec::new();
        let mut slice_count = Vec::with_capacity(n_old);
        for old in 0..n_old {
            new_id.push(phys_of.len());
            let c = copies(old);
            slice_count.push(c);
            for _ in 0..c {
                phys_of.push(old);
            }
        }
        let n_new = phys_of.len();

        let degrade = |l: LinkType| -> Option<LinkType> {
            match l {
                LinkType::DoubleNvLink2 => Some(LinkType::SingleNvLink2),
                LinkType::SingleNvLink2 | LinkType::SingleNvLink1 => None, // PCIe fallback
                LinkType::Pcie => None,
            }
        };

        let mut g: Graph<LinkType> = Graph::new(n_new);
        for (a, b, link) in topology.link_graph().edges() {
            // A link is degraded when either endpoint is actually sliced.
            let effective = if self.degraded && (copies(a) > 1 || copies(b) > 1) {
                degrade(link)
            } else {
                Some(link)
            };
            if let Some(l) = effective {
                for ta in new_id[a]..new_id[a] + copies(a) {
                    for tb in new_id[b]..new_id[b] + copies(b) {
                        g.add_edge(ta, tb, l).expect("expansion edges valid");
                    }
                }
            }
        }
        // On-die links among slices of the same GPU.
        for (old, &base) in new_id.iter().enumerate() {
            for i in 0..copies(old) {
                for j in (i + 1)..copies(old) {
                    g.add_edge(base + i, base + j, LinkType::DoubleNvLink2)
                        .expect("intra-GPU links valid");
                }
            }
        }

        let sockets = phys_of.iter().map(|&p| topology.socket_of(p)).collect();
        let name = format!("{}+MIG({})", topology.name(), self.label());
        let map = SliceMap::new(phys_of, slice_count);
        Topology::new(name, g, sockets).with_slice_map(map)
    }
}

impl fmt::Display for PartitionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    /// Single-GPU split through the supported [`PartitionPlan`] entry
    /// point, unpacked into the `(topology, phys-of-vertex)` pair the
    /// assertions below inspect.
    fn split_one(
        topology: &Topology,
        gpu: usize,
        slices: usize,
        bandwidth: SliceBandwidth,
    ) -> (Topology, Vec<usize>) {
        let virt = PartitionPlan::new()
            .with_bandwidth(bandwidth)
            .split(gpu, slices)
            .apply(topology);
        let map = virt.slice_map().unwrap();
        let phys = (0..map.vertex_count())
            .map(|v| map.physical_of(v))
            .collect();
        (virt, phys)
    }

    #[test]
    fn partition_expands_vertex_count() {
        let dgx = machines::dgx1_v100();
        let (virt, phys) = split_one(&dgx, 3, 3, SliceBandwidth::Shared);
        assert_eq!(virt.gpu_count(), 10);
        assert_eq!(phys.len(), 10);
        // Slices 3,4,5 live on physical GPU 3.
        assert_eq!(&phys[3..6], &[3, 3, 3]);
        assert_eq!(phys[6], 4, "later GPUs shift up");
    }

    #[test]
    fn slices_inherit_external_links_when_shared() {
        let dgx = machines::dgx1_v100();
        let (virt, _) = split_one(&dgx, 0, 2, SliceBandwidth::Shared);
        // Physical 0-3 was double NVLink; both slices (0 and 1) keep it to
        // new id of 3, which is 3 + 1 = 4.
        assert_eq!(virt.link_type(0, 4), LinkType::DoubleNvLink2);
        assert_eq!(virt.link_type(1, 4), LinkType::DoubleNvLink2);
        // Slices talk on-die at the fastest class.
        assert_eq!(virt.link_type(0, 1), LinkType::DoubleNvLink2);
    }

    #[test]
    fn degraded_mode_steps_links_down() {
        let dgx = machines::dgx1_v100();
        let (virt, _) = split_one(&dgx, 0, 2, SliceBandwidth::Degraded);
        // double (0-3) degrades to single for each slice.
        assert_eq!(virt.link_type(0, 4), LinkType::SingleNvLink2);
        // single (0-1, new id 2) degrades to the PCIe fallback.
        assert_eq!(virt.link_type(0, 2), LinkType::Pcie);
        // Intra-GPU stays fast.
        assert_eq!(virt.link_type(0, 1), LinkType::DoubleNvLink2);
    }

    #[test]
    fn single_slice_is_identity() {
        let dgx = machines::dgx1_v100();
        let (virt, phys) = split_one(&dgx, 2, 1, SliceBandwidth::Degraded);
        assert_eq!(virt.gpu_count(), 8);
        assert_eq!(phys, (0..8).collect::<Vec<_>>());
        for a in 0..8 {
            for b in (a + 1)..8 {
                assert_eq!(virt.link_type(a, b), dgx.link_type(a, b));
            }
        }
    }

    #[test]
    fn sockets_are_inherited() {
        let dgx = machines::dgx1_v100();
        let (virt, phys) = split_one(&dgx, 5, 4, SliceBandwidth::Shared);
        for (v, &p) in phys.iter().enumerate() {
            assert_eq!(virt.socket_of(v), dgx.socket_of(p));
        }
    }

    #[test]
    fn mig_machine_schedules_jobs_end_to_end() {
        // The virtual topology plugs into the normal matcher/policy path:
        // verify every pair of its vertices has a bandwidth.
        let dgx = machines::dgx1_v100();
        let (virt, _) = split_one(&dgx, 0, 7, SliceBandwidth::Shared);
        assert_eq!(virt.gpu_count(), 14);
        for a in 0..14 {
            for b in (a + 1)..14 {
                assert!(virt.bandwidth(a, b) > 0.0, "({a}, {b})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "MIG supports")]
    fn too_many_slices_rejected() {
        let _ = PartitionPlan::new().split(0, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_gpu_rejected() {
        let _ = PartitionPlan::new()
            .split(8, 2)
            .apply(&machines::dgx1_v100());
    }

    #[test]
    fn one_split_plan_expands_in_place() {
        // A single-GPU split (what the removed `partition_gpu` shim
        // wrapped): GPU 3 expands into 4 consecutive vertices, all other
        // GPUs keep relative order, under both bandwidth modes.
        let dgx = machines::dgx1_v100();
        for bw in [SliceBandwidth::Shared, SliceBandwidth::Degraded] {
            let (topo, phys) = split_one(&dgx, 3, 4, bw);
            assert_eq!(topo.gpu_count(), 11);
            assert_eq!(&phys[..3], &[0, 1, 2]);
            assert_eq!(&phys[3..7], &[3, 3, 3, 3]);
            assert_eq!(&phys[7..], &[4, 5, 6, 7]);
        }
    }

    #[test]
    fn multi_gpu_plan_expands_every_split() {
        let dgx = machines::dgx1_v100();
        let virt = PartitionPlan::new().split(0, 7).split(3, 2).apply(&dgx);
        let map = virt.slice_map().unwrap();
        assert_eq!(virt.gpu_count(), 7 + 2 + 6);
        assert_eq!(map.vertex_count(), 15);
        assert_eq!(map.physical_count(), 8);
        assert_eq!(map.slices_of(0), 7);
        assert_eq!(map.slices_of(3), 2);
        assert_eq!(map.slices_of(1), 1);
        assert_eq!(map.vertices_of(0), 0..7);
        // Physical 1 follows GPU 0's seven slices.
        assert_eq!(map.vertices_of(1), 7..8);
        assert_eq!(map.vertices_of(3), 9..11);
        assert!(map.is_slice(0) && map.is_slice(9));
        assert!(!map.is_slice(7), "unsplit GPUs are whole vertices");
        assert!(virt.is_partitioned());
    }

    #[test]
    fn plan_name_encodes_the_plan() {
        let dgx = machines::dgx1_v100();
        let shared = PartitionPlan::new().split(0, 7).split(3, 2).apply(&dgx);
        assert_eq!(shared.name(), "DGX-1 V100+MIG(0:7,3:2)");
        let degraded = PartitionPlan::new()
            .with_bandwidth(SliceBandwidth::Degraded)
            .split(0, 2)
            .apply(&dgx);
        assert_eq!(degraded.name(), "DGX-1 V100+MIG(0:2;degraded)");
    }

    #[test]
    fn plan_parse_roundtrip() {
        for text in ["0:7,3:2", "0:2;degraded", "5:4"] {
            let plan = PartitionPlan::parse(text).unwrap();
            assert_eq!(plan.label(), text);
            assert_eq!(PartitionPlan::parse(&plan.label()).unwrap(), plan);
        }
        assert!(PartitionPlan::parse("0:8").is_err());
        assert!(PartitionPlan::parse("0-7").is_err());
        assert!(PartitionPlan::parse("x:2").is_err());
        assert!(PartitionPlan::parse("0:2;sideways").is_err());
        assert!(PartitionPlan::parse("").unwrap().is_empty());
        // `shared` is the explicit spelling of the default.
        assert_eq!(
            PartitionPlan::parse("0:2;shared").unwrap(),
            PartitionPlan::parse("0:2").unwrap()
        );
    }

    #[test]
    fn plan_parse_refuses_a_gpu_listed_twice() {
        for text in ["0:7,0:2", "0:7,0:1", "0:2, 0:2;degraded"] {
            let error = PartitionPlan::parse(text).unwrap_err();
            assert_eq!(error, "GPU 0 is split twice", "{text}");
        }
        assert_eq!(PartitionPlan::parse("0:7,1:2").unwrap().label(), "0:7,1:2");
    }

    #[test]
    #[should_panic(expected = "already partitioned")]
    fn double_partition_rejected() {
        let once = PartitionPlan::new()
            .split(0, 2)
            .apply(&machines::dgx1_v100());
        let _ = PartitionPlan::new().split(1, 2).apply(&once);
    }

    /// The `--partition` vocabulary, valid and not.
    const PLAN_TOKENS: &[&str] = &[
        "0",
        "1",
        "3",
        "7",
        "8",
        "-1",
        "18446744073709551616",
        ":",
        ",",
        ";",
        " ",
        "degraded",
        "Degraded",
        "shared",
        "x",
        "",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Soup of plan tokens never panics the parser: it returns a plan,
        /// which reads back from its own label, or an error message.
        #[test]
        fn parse_never_panics_on_token_soup(
            tokens in proptest::collection::vec(0usize..PLAN_TOKENS.len(), 0..24),
        ) {
            let input: String = tokens.iter().map(|&t| PLAN_TOKENS[t]).collect();
            match PartitionPlan::parse(&input) {
                Ok(plan) => proptest::prop_assert_eq!(
                    PartitionPlan::parse(&plan.label()),
                    Ok(plan),
                    "{:?}",
                    input
                ),
                Err(message) => proptest::prop_assert!(!message.is_empty(), "{:?}", input),
            }
        }
    }
}
