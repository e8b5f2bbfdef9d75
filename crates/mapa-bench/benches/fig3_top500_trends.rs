//! Fig. 3 — Top500 accelerator and interconnect trends (survey data).
//!
//! Fig. 3 motivates the work with two survey trends over 2017–2021: (a) the
//! number of Top500 systems with accelerators, split GPU vs other, and (b)
//! the share of those GPU systems with *heterogeneous* interconnects. The
//! figure is survey data, not something a simulator can regenerate, so the
//! values read off the published bar charts (the paper provides no table)
//! are embedded here.

use mapa_bench::banner;

/// The 2017–2021 trend distilled from Fig. 3 of the paper, one row per
/// year: (year, Top500 systems with GPU accelerators, with non-GPU
/// accelerators, % of the GPU systems with heterogeneous interconnects).
const TOP500_TREND: [(u32, u32, u32, f64); 5] = [
    (2017, 84, 18, 25.0),
    (2018, 98, 12, 40.0),
    (2019, 125, 10, 55.0),
    (2020, 140, 8, 70.0),
    (2021, 150, 7, 80.0),
];

fn main() {
    banner(
        "Fig. 3: Top500 accelerator-system trends (embedded survey data)",
        "paper Fig. 3(a)/(b)",
    );
    println!(
        "{:>6} {:>14} {:>16} {:>22}",
        "year", "GPU systems", "other accel.", "heterog. interconn. %"
    );
    // The asserts check the figure's message instead of stating it in prose.
    for (year, gpu, other, heterogeneous_pct) in TOP500_TREND {
        println!("{year:>6} {gpu:>14} {other:>16} {heterogeneous_pct:>22.0}");
        assert!(gpu > other, "GPUs dominate");
    }
    for w in TOP500_TREND.windows(2) {
        assert!(w[1].1 >= w[0].1, "GPU systems grow every year");
        assert!(w[1].3 >= w[0].3, "so does the heterogeneous share");
    }
    assert!(TOP500_TREND[4].3 > 50.0);
    println!(
        "\nshape check: accelerator systems grow every year, GPUs dominate, \
         and heterogeneous interconnects pass 50% — the paper's motivation. \
         (Static data distilled from the published figure.)"
    );
}
