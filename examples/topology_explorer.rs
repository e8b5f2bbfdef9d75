//! Topology explorer: inspect every built-in machine, export DOT, parse an
//! `nvidia-smi topo -m` matrix, and compare fragmentation behaviour.
//!
//! Run with: `cargo run --release --example topology_explorer [--dot NAME]`

use mapa::core::fragmentation;
use mapa::model::corpus;
use mapa::prelude::*;
use mapa::topology::parse::{self, NvlinkGeneration};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--dot" {
        let Some(machine) = machines::by_name(&args[2]) else {
            eprintln!("unknown machine '{}'", args[2]);
            std::process::exit(1);
        };
        print!("{}", machine.to_dot());
        return;
    }

    println!("Built-in machines:\n");
    for machine in machines::all_machines() {
        let n = machine.gpu_count();
        let links = machine.link_graph().edge_count();
        println!(
            "== {} — {} GPUs, {} NVLink links, {} sockets",
            machine.name(),
            n,
            links,
            machine.socket_count()
        );
        // Fragmentation potential: spread of 3-GPU allocation qualities.
        let k = 3.min(n);
        let qualities: Vec<f64> = corpus::combinations(n, k)
            .into_iter()
            .map(|c| fragmentation::allocation_quality(&machine, &c))
            .collect();
        let s = stats::summarize(&qualities);
        println!(
            "   {k}-GPU allocation quality (BW/BW_ideal): min {:.2}  p25 {:.2}  median {:.2}  max {:.2}",
            s.min, s.p25, s.p50, s.max
        );
        println!(
            "   total machine bandwidth {:.0} GB/s\n",
            machine.bandwidth_among(&(0..n).collect::<Vec<_>>())
        );
    }

    // Demonstrate the nvidia-smi entry point: round-trip the DGX through
    // the matrix format, as a user with real hardware would feed MAPA.
    println!("Parsing an nvidia-smi style matrix:");
    let dgx = machines::dgx1_v100();
    let matrix = parse::to_topology_matrix(&dgx);
    println!("{matrix}");
    let parsed = parse::parse_topology_matrix(&matrix, "my-dgx", NvlinkGeneration::V2)
        .expect("rendered matrix parses");
    println!(
        "parsed '{}' with {} GPUs; link (0,3) = {}",
        parsed.name(),
        parsed.gpu_count(),
        parsed.link_type(0, 3)
    );
}
