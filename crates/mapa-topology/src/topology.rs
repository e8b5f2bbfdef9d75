//! The [`Topology`] type: a named machine with GPUs, direct links, and
//! socket domains.

use crate::virt::SliceMap;
use crate::{LinkMix, LinkType};
use mapa_graph::Graph;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// A multi-GPU server topology.
///
/// Stores only *direct* (NVLink) links explicitly; every other GPU pair
/// implicitly communicates over PCIe at 12 GB/s, per §3.2 of the paper, so
/// every pair has a [`Topology::bandwidth`] and the hardware graph the
/// paper scores is complete.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    links: Graph<LinkType>,
    /// `link_type` of every ordered pair, row-major `n × n`, derived from
    /// `links` (the diagonal reads PCIe and means nothing).
    pair_links: Vec<LinkType>,
    sockets: Vec<usize>,
    /// Present iff this machine came out of a
    /// [`crate::virt::PartitionPlan`]: which physical GPU each vertex
    /// lives on. `None` for ordinary machines.
    slices: Option<SliceMap>,
    /// Vertices that are not MIG slices: every vertex of an ordinary
    /// machine.
    unsplit: usize,
    /// [`Topology::ideal_aggregate_bandwidth`] per `k`, each worked out the
    /// first time it is asked for. Clones share the table: every server of
    /// a homogeneous fleet reads one.
    ideal_bandwidth: Arc<[OnceLock<f64>]>,
    /// [`Topology::previous_twins`], worked out the first time it is asked
    /// for and shared by clones like `ideal_bandwidth`.
    previous_twins: Arc<OnceLock<Box<[Option<usize>]>>>,
}

/// Two machines are equal when they describe the same hardware, whatever
/// either has memoised about it.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.links == other.links
            && self.sockets == other.sockets
            && self.slices == other.slices
    }
}

impl Topology {
    /// Creates a topology from a direct-link graph and a per-GPU socket id.
    ///
    /// # Panics
    /// Panics if `sockets.len()` differs from the vertex count, or if any
    /// explicit link is labeled [`LinkType::Pcie`] (PCIe is the implicit
    /// fallback, never an explicit link).
    #[must_use]
    pub fn new(name: impl Into<String>, links: Graph<LinkType>, sockets: Vec<usize>) -> Self {
        assert_eq!(
            sockets.len(),
            links.vertex_count(),
            "one socket id per GPU required"
        );
        assert!(
            links.edges().all(|(_, _, l)| l != LinkType::Pcie),
            "PCIe is the implicit fallback; do not add explicit PCIe links"
        );
        let n = links.vertex_count();
        let mut pair_links = vec![LinkType::Pcie; n * n];
        for (a, b, link) in links.edges() {
            pair_links[a * n + b] = link;
            pair_links[b * n + a] = link;
        }
        Self {
            name: name.into(),
            links,
            pair_links,
            sockets,
            slices: None,
            unsplit: n,
            ideal_bandwidth: (0..=n).map(|_| OnceLock::new()).collect(),
            previous_twins: Arc::default(),
        }
    }

    /// Attaches a slice↔physical map (partition-plan expansion only).
    ///
    /// # Panics
    /// Panics if the map's vertex count disagrees with the topology's.
    pub(crate) fn with_slice_map(mut self, map: SliceMap) -> Self {
        assert_eq!(
            map.vertex_count(),
            self.gpu_count(),
            "slice map must cover every vertex"
        );
        self.unsplit = (0..map.vertex_count())
            .filter(|&v| !map.is_slice(v))
            .count();
        self.slices = Some(map);
        self
    }

    /// The slice↔physical map, when this machine is the expansion of a
    /// [`crate::virt::PartitionPlan`]; `None` for ordinary machines.
    #[must_use]
    pub fn slice_map(&self) -> Option<&SliceMap> {
        self.slices.as_ref()
    }

    /// Whether any physical GPU of this machine is split into slices.
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        self.unsplit < self.gpu_count()
    }

    /// The machine's name (e.g. `"DGX-1 V100"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of GPUs.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        self.links.vertex_count()
    }

    /// Number of unsplit GPUs: the vertices that are not MIG slices, all
    /// of them on an unpartitioned machine.
    #[must_use]
    pub fn unsplit_gpu_count(&self) -> usize {
        self.unsplit
    }

    /// The socket (PCIe root / CPU domain) a GPU belongs to.
    ///
    /// # Panics
    /// Panics if `gpu` is out of range.
    #[must_use]
    pub fn socket_of(&self, gpu: usize) -> usize {
        self.sockets[gpu]
    }

    /// Number of distinct sockets.
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.sockets.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// GPUs belonging to `socket`, ascending.
    #[must_use]
    pub fn gpus_in_socket(&self, socket: usize) -> Vec<usize> {
        (0..self.gpu_count())
            .filter(|&g| self.sockets[g] == socket)
            .collect()
    }

    /// The best link between two GPUs; PCIe when no direct link exists.
    ///
    /// # Panics
    /// Panics if either index is out of range or `a == b`.
    #[must_use]
    pub fn link_type(&self, a: usize, b: usize) -> LinkType {
        assert!(
            a < self.gpu_count() && b < self.gpu_count(),
            "GPU out of range"
        );
        assert_ne!(a, b, "no self-links");
        self.links.weight(a, b).unwrap_or(LinkType::Pcie)
    }

    /// [`Topology::link_type`] of every ordered pair as one dense table:
    /// entry `a * gpu_count() + b` is the best link between `a` and `b`,
    /// for scoring loops that read many pairs and have checked their
    /// indices. The diagonal holds PCIe and is not a link.
    #[must_use]
    pub fn pair_links(&self) -> &[LinkType] {
        &self.pair_links
    }

    /// Peak bandwidth between two GPUs in GB/s.
    ///
    /// # Panics
    /// Panics if either index is out of range or `a == b`.
    #[must_use]
    pub fn bandwidth(&self, a: usize, b: usize) -> f64 {
        self.link_type(a, b).bandwidth_gbps()
    }

    /// The direct-link (NVLink-only) graph.
    #[must_use]
    pub fn link_graph(&self) -> &Graph<LinkType> {
        &self.links
    }

    /// Counts the link-type mix over a set of GPU pairs (the `(x, y, z)` of
    /// the paper's Eq. 2).
    #[must_use]
    pub fn link_mix<'a>(&self, pairs: impl IntoIterator<Item = &'a (usize, usize)>) -> LinkMix {
        LinkMix::from_links(pairs.into_iter().map(|&(a, b)| self.link_type(a, b)))
    }

    /// Sum of peak bandwidths over every pair of the distinct `gpus`: the
    /// aggregate bandwidth of an allocation, and, over the free GPUs, what
    /// a machine has left (the paper's Eq. 3). `+0.0` for fewer than two.
    #[must_use]
    pub fn bandwidth_among(&self, gpus: &[usize]) -> f64 {
        let mut total = 0.0;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                total += self.bandwidth(a, b);
            }
        }
        total
    }

    /// The best [`Topology::bandwidth_among`] of any `k` GPUs of an idle
    /// machine — the denominator of the paper's Fig. 4 quality ratio.
    /// Returns 0 for `k < 2` (no links to aggregate) and for `k` above the
    /// GPU count (no such allocation). Computed once per `k` and machine by
    /// a branch-and-bound search that drops every prefix no completion of
    /// which can beat the best set found so far: 338 prefixes for `k = 8`
    /// on the 16-GPU cube-mesh instead of all 12 870 subsets.
    #[must_use]
    pub fn ideal_aggregate_bandwidth(&self, k: usize) -> f64 {
        if k < 2 || k > self.gpu_count() {
            return 0.0;
        }
        *self.ideal_bandwidth[k].get_or_init(|| IdealSearch::new(self, k).best())
    }

    /// Each vertex's nearest twin below it: entry `v` is the largest
    /// `u < v` whose link to every vertex other than `u` and `v` is `v`'s
    /// link to it, or `None`. Twins are interchangeable in any score that
    /// reads only links: the slices of one MIG GPU are twins, and so is
    /// every GPU of a DGX-2. The relation is transitive, so following the
    /// entries from `v` visits its whole class below `v`, nearest first.
    /// Worked out once per machine, by comparing each vertex's row of
    /// [`Topology::pair_links`] with the last member of each class so far.
    #[must_use]
    pub fn previous_twins(&self) -> &[Option<usize>] {
        self.previous_twins.get_or_init(|| {
            let n = self.gpu_count();
            let row = |v: usize| &self.pair_links[v * n..(v + 1) * n];
            let twins = |u: usize, v: usize| {
                let (a, b) = (row(u), row(v));
                (0..n).all(|w| w == u || w == v || a[w] == b[w])
            };
            // The last vertex of each class seen so far.
            let mut last: Vec<usize> = Vec::new();
            (0..n)
                .map(|v| match last.iter_mut().find(|u| twins(**u, v)) {
                    Some(u) => Some(std::mem::replace(u, v)),
                    None => {
                        last.push(v);
                        None
                    }
                })
                .collect()
        })
    }

    /// Graphviz DOT rendering of the direct links, each labelled with its
    /// bandwidth in GB/s (PCIe pairs omitted for readability). The graph
    /// id is the machine name with every character other than an
    /// alphanumeric or `_` turned into `_` (`G` for an empty name), so a
    /// machine read from a file, which is named after its path, still
    /// yields a valid id.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let id: String = self
            .name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let mut out = format!("graph {} {{\n", if id.is_empty() { "G" } else { &id });
        for g in 0..self.gpu_count() {
            let _ = writeln!(out, "  n{g} [label=\"GPU{g}\"];");
        }
        for (a, b, link) in self.links.edges() {
            let _ = writeln!(out, "  n{a} -- n{b} [label=\"{}\"];", link.bandwidth_gbps());
        }
        out.push_str("}\n");
        out
    }
}

/// The search behind [`Topology::ideal_aggregate_bandwidth`]: depth-first
/// over the `k`-subsets of the machine in lexicographic order; the first
/// set reached is the first incumbent. Link bandwidths are whole GB/s, so
/// every pair sum and half-sum below is exact in whatever order it is added
/// up, and the bound test compares exact values.
struct IdealSearch<'a> {
    pair_links: &'a [LinkType],
    n: usize,
    k: usize,
    /// `half_fastest[g * k + j]`: half the sum of GPU `g`'s `j` fastest
    /// links, for `j < k`.
    half_fastest: Vec<f64>,
    /// `into[d * n + c]`: the bandwidth between GPU `c` and the first `d`
    /// chosen GPUs, for `d < k`.
    into: Vec<f64>,
    /// Scratch for [`IdealSearch::bound`].
    reach: Vec<f64>,
    /// The best pair sum found so far.
    best: f64,
}

impl<'a> IdealSearch<'a> {
    /// A search for `k` GPUs of `topology`, `2 <= k <= gpu_count()`.
    fn new(topology: &'a Topology, k: usize) -> Self {
        let n = topology.gpu_count();
        let mut search = Self {
            pair_links: &topology.pair_links,
            n,
            k,
            half_fastest: Vec::with_capacity(n * k),
            into: vec![0.0; k * n],
            reach: Vec::with_capacity(n),
            best: 0.0,
        };
        let mut row = Vec::with_capacity(n);
        for g in 0..n {
            row.clear();
            row.extend((0..n).filter(|&b| b != g).map(|b| search.bandwidth(g, b)));
            row.sort_unstable_by(|a, b| b.total_cmp(a));
            let mut sum = 0.0;
            search.half_fastest.push(0.0);
            for &bw in &row[..k - 1] {
                sum += bw;
                search.half_fastest.push(sum / 2.0);
            }
        }
        search
    }

    /// Peak bandwidth between two distinct GPUs.
    fn bandwidth(&self, a: usize, b: usize) -> f64 {
        self.pair_links[a * self.n + b].bandwidth_gbps()
    }

    /// The best pair sum of any `k` GPUs.
    fn best(mut self) -> f64 {
        self.extend(0, 0, 0.0);
        self.best
    }

    /// Completes the first `d` chosen GPUs, whose pair sum is `within`,
    /// with `k - d` GPUs drawn from `next..n`.
    fn extend(&mut self, d: usize, next: usize, within: f64) {
        let (n, r) = (self.n, self.k - d);
        let row = d * n;
        if r == 1 {
            for c in next..n {
                self.best = self.best.max(within + self.into[row + c]);
            }
            return;
        }
        if within + self.bound(d, next, r) <= self.best {
            return;
        }
        for c in next..=n - r {
            for x in c + 1..n {
                self.into[row + n + x] = self.into[row + x] + self.bandwidth(c, x);
            }
            self.extend(d + 1, c + 1, within + self.into[row + c]);
        }
    }

    /// An upper bound on what `r` more GPUs from `next..n` add to the
    /// first `d` chosen: each brings its bandwidth into those, plus at most
    /// half of its `r - 1` fastest links to the others drawn. The bound is
    /// the `r` largest of those amounts.
    fn bound(&mut self, d: usize, next: usize, r: usize) -> f64 {
        let (n, k) = (self.n, self.k);
        let (into, half_fastest) = (&self.into[d * n..], &self.half_fastest);
        self.reach.clear();
        self.reach
            .extend((next..n).map(|c| into[c] + half_fastest[c * k + r - 1]));
        let (top, nth, _) = self
            .reach
            .select_nth_unstable_by(r - 1, |a, b| b.total_cmp(a));
        top.iter().sum::<f64>() + *nth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        let mut links = Graph::new(4);
        links.add_edge(0, 1, LinkType::DoubleNvLink2).unwrap();
        links.add_edge(2, 3, LinkType::SingleNvLink2).unwrap();
        Topology::new("tiny", links, vec![0, 0, 1, 1])
    }

    #[test]
    fn pcie_fallback_for_unlinked_pairs() {
        let t = tiny();
        assert_eq!(t.link_type(0, 1), LinkType::DoubleNvLink2);
        assert_eq!(t.link_type(0, 2), LinkType::Pcie);
        assert_eq!(t.bandwidth(1, 3), 12.0);
        assert_eq!(t.bandwidth(0, 1), 50.0);
    }

    #[test]
    fn bandwidth_among_sums_every_pair() {
        let t = tiny();
        assert_eq!(t.bandwidth_among(&[0, 1, 2, 3]), 50.0 + 25.0 + 4.0 * 12.0);
        assert_eq!(t.bandwidth_among(&[3, 0]), 12.0);
        assert_eq!(t.bandwidth_among(&[1]), 0.0);
    }

    #[test]
    fn pair_links_agree_with_link_type_on_every_ordered_pair() {
        let mut topologies = crate::machines::all_machines();
        let plan = crate::virt::PartitionPlan::new().split(0, 4).split(5, 2);
        topologies.push(plan.apply(&crate::machines::dgx1_v100()));
        topologies.push(tiny());
        for t in &topologies {
            let n = t.gpu_count();
            assert_eq!(t.pair_links().len(), n * n, "{}", t.name());
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    assert_eq!(
                        t.pair_links()[a * n + b],
                        t.link_type(a, b),
                        "{} pair ({a}, {b})",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn ideal_bandwidth_memo_is_shared_by_clones_and_left_out_of_equality() {
        let machine = crate::machines::dgx1_v100();
        let clone = machine.clone();
        assert!(Arc::ptr_eq(
            &machine.ideal_bandwidth,
            &clone.ideal_bandwidth
        ));
        assert_eq!(machine.ideal_aggregate_bandwidth(3), 125.0);
        // The clone answers from the entry the original filled.
        assert_eq!(clone.ideal_bandwidth[3].get(), Some(&125.0));
        assert_eq!(clone.ideal_aggregate_bandwidth(3), 125.0);
        assert_eq!(machine.ideal_aggregate_bandwidth(1), 0.0);
        assert_eq!(machine.ideal_aggregate_bandwidth(9), 0.0);

        let fresh = crate::machines::dgx1_v100();
        assert!(fresh.ideal_bandwidth.iter().all(|k| k.get().is_none()));
        assert_eq!(
            fresh, machine,
            "a filled memo does not make a machine differ"
        );
        assert_ne!(fresh, tiny());
    }

    #[test]
    fn twins_are_the_slices_of_one_gpu_and_every_dgx2_gpu() {
        // DGX-2: every GPU pair is one double NVLink through the switch.
        let dgx2 = crate::machines::dgx2();
        let chain: Vec<Option<usize>> = (0..16usize).map(|v| v.checked_sub(1)).collect();
        assert_eq!(dgx2.previous_twins(), chain.as_slice());
        // DGX-1 V100: no two GPUs see the same links.
        assert!(crate::machines::dgx1_v100()
            .previous_twins()
            .iter()
            .all(Option::is_none));
        // GPU 0 in 4 slices (vertices 0..4) and GPU 1 in 2 (4..6): each
        // slice's twins are its GPU's other slices; whole GPUs have none.
        let split = crate::virt::PartitionPlan::new()
            .split(0, 4)
            .split(1, 2)
            .apply(&crate::machines::dgx1_v100());
        let mut want = vec![None, Some(0), Some(1), Some(2), None, Some(4)];
        want.resize(split.gpu_count(), None);
        assert_eq!(split.previous_twins(), want.as_slice());
        // Clones share the memo, which equality ignores.
        let clone = split.clone();
        assert!(Arc::ptr_eq(&split.previous_twins, &clone.previous_twins));
        assert_eq!(
            tiny().previous_twins(),
            [None, Some(0), None, Some(2)].as_slice(),
            "a pair joined only to each other is a pair of twins"
        );
    }

    #[test]
    fn ideal_of_the_fully_split_dgx2_is_every_pair_at_double_nvlink() {
        // 112 slices, every pair 50 GB/s: `C(112, 10)` is ~4.7e13 subsets,
        // which only a bounded search can rank.
        let plan = (0..16).fold(crate::virt::PartitionPlan::new(), |plan, g| {
            plan.split(g, 7)
        });
        let machine = plan.apply(&crate::machines::dgx2());
        assert_eq!(machine.gpu_count(), 112);
        for k in 2..=10 {
            let pairs = (k * (k - 1) / 2) as f64;
            assert_eq!(machine.ideal_aggregate_bandwidth(k), 50.0 * pairs, "k={k}");
        }
    }

    #[test]
    fn socket_queries() {
        let t = tiny();
        assert_eq!(t.socket_count(), 2);
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.gpus_in_socket(1), vec![2, 3]);
    }

    #[test]
    fn link_mix_over_pairs() {
        let t = tiny();
        let mix = t.link_mix(&[(0, 1), (0, 2), (2, 3)]);
        assert_eq!(mix.double_nvlink, 1);
        assert_eq!(mix.single_nvlink, 1);
        assert_eq!(mix.pcie, 1);
    }

    #[test]
    #[should_panic(expected = "implicit fallback")]
    fn explicit_pcie_link_rejected() {
        let mut links = Graph::new(2);
        links.add_edge(0, 1, LinkType::Pcie).unwrap();
        let _ = Topology::new("bad", links, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "no self-links")]
    fn self_link_query_panics() {
        let _ = tiny().link_type(1, 1);
    }

    #[test]
    fn dot_output_mentions_gpus() {
        // PCIe pairs are not rendered.
        assert_eq!(
            tiny().to_dot(),
            "graph tiny {\n  n0 [label=\"GPU0\"];\n  n1 [label=\"GPU1\"];\n  \
             n2 [label=\"GPU2\"];\n  n3 [label=\"GPU3\"];\n  \
             n0 -- n1 [label=\"50\"];\n  n2 -- n3 [label=\"25\"];\n}\n"
        );
    }

    #[test]
    fn dot_id_is_the_sanitised_name() {
        let named = |name: &str| Topology::new(name, Graph::new(0), vec![]).to_dot();
        assert_eq!(named("dgx 1"), "graph dgx_1 {\n}\n");
        assert_eq!(
            named("/tmp/my\"box\\x.txt"),
            "graph _tmp_my_box_x_txt {\n}\n"
        );
        assert_eq!(named(""), "graph G {\n}\n");
    }
}
