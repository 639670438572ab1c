//! Plan-quality experiment (extension beyond the paper's figures):
//! how far do restricted or heuristic strategies fall from the optimal
//! bushy plan that DPccp guarantees?
//!
//! Sweeps random workloads across query-graph densities and reports, for
//! each strategy, the distribution of `cost(strategy) / cost(optimal)`:
//!
//! * optimal left-deep (Selinger space, exact DP);
//! * IKKBZ (polynomial; falls back to left-deep DP on cyclic graphs —
//!   reported only where the graph is a tree);
//! * IDP with small block sizes;
//! * seeded simulated annealing;
//! * GOO greedy.
//!
//! Usage: `cargo run --release -p joinopt-bench --bin quality [--trials T] [--n N]`

use joinopt_core::greedy::Goo;
use joinopt_core::{DpCcp, DpSizeLeftDeep, Idp, IkkBz, JoinOrderer, SimulatedAnnealing};
use joinopt_cost::{workload, Cout};

use joinopt_bench::{write_results, MetaSidecar, Table};

struct Stats {
    ratios: Vec<f64>,
}

impl Stats {
    fn new() -> Stats {
        Stats { ratios: Vec::new() }
    }

    fn push(&mut self, ratio: f64) {
        self.ratios.push(ratio);
    }

    fn row(&mut self, label: &str, density: f64) -> Vec<String> {
        self.ratios
            .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q = |p: f64| -> f64 {
            if self.ratios.is_empty() {
                f64::NAN
            } else {
                self.ratios[((self.ratios.len() - 1) as f64 * p) as usize]
            }
        };
        vec![
            label.to_string(),
            format!("{density:.1}"),
            self.ratios.len().to_string(),
            format!("{:.3}", q(0.5)),
            format!("{:.3}", q(0.9)),
            format!("{:.3}", q(1.0)),
        ]
    }
}

fn main() {
    let mut trials: u64 = 100;
    let mut n: usize = 10;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                i += 1;
                trials = args[i].parse().expect("--trials takes an integer");
            }
            "--n" => {
                i += 1;
                n = args[i].parse().expect("--n takes an integer");
            }
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }

    println!(
        "plan quality vs optimal bushy (DPccp), {trials} random workloads per density, n = {n}\n"
    );
    let mut table = Table::new(vec!["strategy", "density", "cases", "median", "p90", "max"]);
    // Workload seeds are derived as `seed * 7 + 1`; the sidecar records
    // the sweep configuration so the ratios are reproducible.
    let mut meta = MetaSidecar::new("quality", 1, None);
    meta.push(format!(
        "{{\"event\":\"config\",\"trials\":{trials},\"n\":{n}}}"
    ));
    for density in [0.0, 0.3, 0.6] {
        let mut leftdeep = Stats::new();
        let mut ikkbz = Stats::new();
        let mut idp3 = Stats::new();
        let mut idp6 = Stats::new();
        let mut sa = Stats::new();
        let mut goo = Stats::new();
        for seed in 0..trials {
            let w = workload::random_workload(n, density, seed * 7 + 1);
            let optimal = DpCcp
                .optimize(&w.graph, &w.catalog, &Cout)
                .expect("valid workload")
                .cost;
            let record = |stats: &mut Stats, cost: f64| {
                stats.push(cost / optimal);
            };
            record(
                &mut leftdeep,
                DpSizeLeftDeep
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .expect("valid")
                    .cost,
            );
            if let Ok(r) = IkkBz.optimize(&w.graph, &w.catalog, &Cout) {
                record(&mut ikkbz, r.cost);
            }
            record(
                &mut idp3,
                Idp::with_block_size(3)
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .expect("valid")
                    .cost,
            );
            record(
                &mut idp6,
                Idp::with_block_size(6)
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .expect("valid")
                    .cost,
            );
            record(
                &mut sa,
                SimulatedAnnealing::with_seed(seed)
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .expect("valid")
                    .cost,
            );
            record(
                &mut goo,
                Goo.optimize(&w.graph, &w.catalog, &Cout)
                    .expect("valid")
                    .cost,
            );
        }
        for (label, stats) in [
            ("left-deep (exact)", &mut leftdeep),
            ("IKKBZ (trees only)", &mut ikkbz),
            ("IDP k=3", &mut idp3),
            ("IDP k=6", &mut idp6),
            ("sim. annealing", &mut sa),
            ("GOO greedy", &mut goo),
        ] {
            let row = stats.row(label, density);
            // Empty distributions (e.g. IKKBZ with no tree-shaped
            // graphs) quantize to NaN, which JSON cannot carry.
            fn json_num(s: &str) -> &str {
                if s == "NaN" {
                    "null"
                } else {
                    s
                }
            }
            meta.push(format!(
                "{{\"event\":\"row\",\"strategy\":\"{}\",\"density\":{},\"cases\":{},\
                 \"median\":{},\"p90\":{},\"max\":{}}}",
                row[0],
                row[1],
                row[2],
                json_num(&row[3]),
                json_num(&row[4]),
                json_num(&row[5])
            ));
            table.row(row);
        }
    }
    println!("{}", table.render());
    match write_results("quality.csv", &table.to_csv()) {
        Ok(path) => {
            println!("wrote {}", path.display());
            match meta.write_next_to(&path) {
                Ok(meta_path) => println!("wrote {}", meta_path.display()),
                Err(e) => eprintln!("could not write run metadata: {e}"),
            }
        }
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    println!(
        "(ratios: 1.000 = matched the bushy optimum; IKKBZ rows cover tree-shaped graphs only)"
    );
}
