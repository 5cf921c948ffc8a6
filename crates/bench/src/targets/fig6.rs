//! Figure 6 — logging writes (the recovery-enabling NVRAM writes: log
//! entries for the logging designs, metadata-journal records for SSP),
//! normalised to UNDO-LOG. Lower is better.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;

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

    let specs: Vec<CellSpec> = WorkloadKind::MICRO
        .iter()
        .flat_map(|&wkind| {
            EngineKind::PAPER
                .iter()
                .map(move |&ekind| (ekind, wkind))
                .collect::<Vec<_>>()
        })
        .map(|(ekind, wkind)| CellSpec::new(ekind, wkind, &cfg, &ssp_cfg, scale, &run_cfg))
        .collect();
    let results = runner.run(&specs);

    let mut report = BenchReport::new("fig6_logging_writes", quick_mode());
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for (wi, wkind) in WorkloadKind::MICRO.iter().enumerate() {
        let logging: Vec<f64> = (0..EngineKind::PAPER.len())
            .map(|ei| {
                let i = wi * EngineKind::PAPER.len() + ei;
                cells.push(cell_json(1, &results[i]));
                results[i].logging_writes() as f64
            })
            .collect();
        let base = logging[0].max(1.0);
        rows.push((
            wkind.name().to_string(),
            logging.iter().map(|l| fmt_ratio(l / base)).collect(),
        ));
    }
    print_matrix(
        "Figure 6: logging writes normalised to UNDO-LOG (lower is better)",
        &["UNDO-LOG", "REDO-LOG", "SSP"],
        &rows,
    );
    println!("\npaper shape: SSP cuts logging writes ~7.6x vs UNDO and ~4.7x vs REDO;");
    println!("BTree-Rand nearly eliminates them (spatial locality within pages)");

    report.sim("cells", Json::Arr(cells));
    attach_latency(
        &mut report,
        "Figure 6: txn latency percentiles (cycles)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}
