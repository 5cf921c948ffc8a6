//! Figure 7 — total NVRAM writes.
//!
//! 7a: total NVRAM line writes normalised to UNDO-LOG (lower is better).
//! 7b: breakdown of SSP's writes into data / metadata journaling /
//!     consolidation / checkpointing percentages.
//!
//! The 21 cells are the same grid Figures 5a and 6 run — inside
//! `bench_all` they cost nothing (result memo).

use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_simulator::stats::WriteClass;

use crate::json::Json;
use crate::quick_mode;
use crate::{
    attach_latency, cell_json, env_setup, fmt_ratio, latency_rows, print_matrix, BenchReport,
    CellSpec, EngineKind, MatrixRunner, SspConfig, WorkloadKind,
};

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let cfg = MachineConfig::default().with_cores(1);
    let ssp_cfg = SspConfig::default();
    let (run_cfg, scale) = env_setup(1);

    let mut specs = Vec::new();
    for wkind in WorkloadKind::MICRO {
        for ekind in EngineKind::PAPER {
            specs.push(CellSpec::new(ekind, wkind, &cfg, &ssp_cfg, scale, &run_cfg));
        }
    }
    let results = runner.run(&specs);

    let mut report = BenchReport::new("fig7_nvram_writes", quick_mode());
    let mut cells = Vec::new();
    let mut rows7a = Vec::new();
    let mut rows7b = Vec::new();
    for (wi, wkind) in WorkloadKind::MICRO.iter().enumerate() {
        let row: Vec<&crate::RunResult> = (0..EngineKind::PAPER.len())
            .map(|ei| &results[wi * EngineKind::PAPER.len() + ei])
            .collect();
        for r in &row {
            cells.push(cell_json(1, r));
        }
        let base = (row[0].nvram_writes() as f64).max(1.0);
        rows7a.push((
            wkind.name().to_string(),
            row.iter()
                .map(|r| fmt_ratio(r.nvram_writes() as f64 / base))
                .collect(),
        ));

        let ssp = row[2]; // EngineKind::PAPER[2] == Ssp
        let total = ssp.nvram_writes().max(1) as f64;
        let pct =
            |class: WriteClass| format!("{:.0}%", 100.0 * ssp.writes_of(class) as f64 / total);
        rows7b.push((
            wkind.name().to_string(),
            vec![
                pct(WriteClass::Data),
                pct(WriteClass::MetaJournal),
                pct(WriteClass::Consolidation),
                pct(WriteClass::Checkpoint),
            ],
        ));
    }
    print_matrix(
        "Figure 7a: NVRAM writes normalised to UNDO-LOG (lower is better)",
        &["UNDO-LOG", "REDO-LOG", "SSP"],
        &rows7a,
    );
    print_matrix(
        "Figure 7b: breakdown of SSP NVRAM writes",
        &["Data", "Journaling", "Consolid.", "Checkpoint"],
        &rows7b,
    );
    println!("\npaper shape: SSP saves ~45% vs UNDO and ~28% vs REDO on average;");
    println!("zipfian saves more (56%/42%) than random (43%/23%); consolidation");
    println!("dominates only under SPS (poor locality -> premature consolidation)");

    report.sim("cells", Json::Arr(cells));
    attach_latency(
        &mut report,
        "Figure 7: txn latency percentiles (cycles)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}
