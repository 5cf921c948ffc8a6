//! Figure 8 — sensitivity to NVRAM latency: absolute TPS for RBTree-Rand
//! (8a) and BTree-Rand (8b) with the NVRAM latency set to x1..x9 the DRAM
//! latency.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;

use crate::json::Json;
use crate::quick_mode;
use crate::{
    attach_latency, cell_json, env_setup, latency_rows, print_matrix, BenchReport, CellSpec,
    EngineKind, MatrixRunner, SspConfig, WorkloadKind,
};

const MULTS: [f64; 5] = [1.0, 3.0, 5.0, 7.0, 9.0];
const FIGURES: [(WorkloadKind, &str); 2] = [
    (
        WorkloadKind::RbTreeRand,
        "Figure 8a: RBTree TPS vs NVRAM latency (multiples of DRAM latency)",
    ),
    (
        WorkloadKind::BTreeRand,
        "Figure 8b: BTree TPS vs NVRAM latency (multiples of DRAM latency)",
    ),
];

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let ssp_cfg = SspConfig::default();
    let (run_cfg, scale) = env_setup(1);

    let mut specs = Vec::new();
    for (wkind, _) in FIGURES {
        for mult in MULTS {
            let cfg = MachineConfig::default()
                .with_cores(1)
                .with_nvram_latency_multiplier(mult);
            for ekind in EngineKind::PAPER {
                specs.push(CellSpec::new(ekind, wkind, &cfg, &ssp_cfg, scale, &run_cfg));
            }
        }
    }
    let results = runner.run(&specs);

    let mut report = BenchReport::new("fig8_nvram_latency", quick_mode());
    let mut cells = Vec::new();
    let mut it = results.iter();
    for (_, label) in FIGURES {
        let mut rows = Vec::new();
        for mult in MULTS {
            let row: Vec<String> = EngineKind::PAPER
                .iter()
                .map(|_| {
                    let r = it.next().expect("one result per spec");
                    let mut cell = cell_json(1, r);
                    cell.set("nvram_latency_multiplier", Json::F64(mult));
                    cells.push(cell);
                    format!("{:.0}", r.tps / 1000.0)
                })
                .collect();
            rows.push((format!("x{mult:.0}"), row));
        }
        print_matrix(label, &["UNDO kTPS", "REDO kTPS", "SSP kTPS"], &rows);
    }
    println!("\npaper shape: all designs degrade with latency but the SSP/REDO gap");
    println!("widens (1.1x -> 1.8x on BTree); at x1 REDO-LOG can edge out SSP");
    println!("(~8% on RBTree) because cheap persists hide redo's data write-back");

    report.sim("cells", Json::Arr(cells));
    attach_latency(
        &mut report,
        "Figure 8: txn latency percentiles (cycles)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}
