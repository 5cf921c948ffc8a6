//! Tables 4 and 5 — the real workloads (Memcached, Vacation): SSP's
//! throughput improvement over the logging designs (Table 4) and its
//! NVRAM write-traffic saving (Table 5), plus the consolidation share of
//! SSP's writes that Section 5.4 quotes (15% / 31%).
//!
//! "Four clients" in the paper: four simulated cores hitting ONE shared
//! service (one LRU cache / one reservation DB), so these cells run on
//! the legacy shared-machine driver — disjoint shards would turn it into
//! four independent quarter-size services.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_simulator::stats::WriteClass;

use crate::json::Json;
use crate::quick_mode;
use crate::{
    attach_latency, cell_json, env_setup, latency_rows, print_matrix, BenchReport, CellSpec,
    EngineKind, MatrixRunner, SspConfig, WorkloadKind,
};

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let cfg = MachineConfig::default().with_cores(4);
    let ssp_cfg = SspConfig::default();
    let (run_cfg, scale) = env_setup(4);

    let mut specs = Vec::new();
    for wkind in WorkloadKind::REAL {
        for ekind in EngineKind::PAPER {
            specs.push(
                CellSpec::new(ekind, wkind, &cfg, &ssp_cfg, scale, &run_cfg).shared_machine(),
            );
        }
    }
    let results = runner.run(&specs);

    let mut report = BenchReport::new("table4_real_workloads", quick_mode());
    let mut cells = Vec::new();
    let mut rows4 = Vec::new();
    let mut rows5 = Vec::new();
    let mut rows_breakdown = Vec::new();
    for (wi, wkind) in WorkloadKind::REAL.iter().enumerate() {
        let row: Vec<&crate::RunResult> = (0..EngineKind::PAPER.len())
            .map(|ei| &results[wi * EngineKind::PAPER.len() + ei])
            .collect();
        for r in &row {
            cells.push(cell_json(run_cfg.threads, r));
        }
        let tps: Vec<f64> = row.iter().map(|r| r.tps).collect();
        let writes: Vec<f64> = row.iter().map(|r| r.nvram_writes() as f64).collect();
        rows4.push((
            wkind.name().to_string(),
            vec![
                format!("{:+.0}%", 100.0 * (tps[2] / tps[0] - 1.0)),
                format!("{:+.0}%", 100.0 * (tps[2] / tps[1] - 1.0)),
            ],
        ));
        rows5.push((
            wkind.name().to_string(),
            vec![
                format!("{:.0}%", 100.0 * (1.0 - writes[2] / writes[0])),
                format!("{:.0}%", 100.0 * (1.0 - writes[2] / writes[1])),
            ],
        ));
        let ssp = row[2];
        let total = ssp.nvram_writes().max(1) as f64;
        rows_breakdown.push((
            wkind.name().to_string(),
            vec![format!(
                "{:.0}%",
                100.0 * ssp.writes_of(WriteClass::Consolidation) as f64 / total
            )],
        ));
    }
    print_matrix(
        "Table 4: SSP throughput improvement over the logging designs",
        &["vs UNDO-LOG", "vs REDO-LOG"],
        &rows4,
    );
    print_matrix(
        "Table 5: SSP NVRAM write-traffic saving",
        &["vs UNDO-LOG", "vs REDO-LOG"],
        &rows5,
    );
    print_matrix(
        "Section 5.4: consolidation share of SSP's NVRAM writes",
        &["Consolidation"],
        &rows_breakdown,
    );
    println!("\npaper: Table 4 Memcached +75%/+35%, Vacation +27%/+13%;");
    println!("       Table 5 Memcached 49%/46%, Vacation 38%/17%;");
    println!("       consolidation share 15% (Memcached) and 31% (Vacation)");

    report.sim("cells", Json::Arr(cells));
    attach_latency(
        &mut report,
        "Tables 4/5: txn latency percentiles (cycles)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}
