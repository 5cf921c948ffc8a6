//! Table 3 — write-set characterisation: average cache lines modified /
//! average pages modified / maximum pages modified per transaction, for
//! all nine workloads.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;

use crate::json::Json;
use crate::quick_mode;
use crate::{
    attach_latency, cell_json, env_setup, latency_rows, print_matrix, BenchReport, CellSpec,
    EngineKind, MatrixRunner, SspConfig, WorkloadKind,
};

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let cfg = MachineConfig::default().with_cores(1);
    let ssp_cfg = SspConfig::default();
    let (run_cfg, scale) = env_setup(1);

    let specs: Vec<CellSpec> = WorkloadKind::ALL
        .iter()
        .map(|&wkind| CellSpec::new(EngineKind::Ssp, wkind, &cfg, &ssp_cfg, scale, &run_cfg))
        .collect();
    let results = runner.run(&specs);

    let mut report = BenchReport::new("table3_writeset", quick_mode());
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for (wkind, r) in WorkloadKind::ALL.iter().zip(&results) {
        cells.push(cell_json(1, r));
        let s = &r.txn_stats;
        rows.push((
            wkind.name().to_string(),
            vec![format!(
                "{:.0}/{:.0}/{}",
                s.avg_lines_per_txn().round(),
                s.avg_pages_per_txn().round(),
                s.pages_written_max
            )],
        ));
    }
    print_matrix(
        "Table 3: write set (avg lines / avg pages / max pages per txn)",
        &["WriteSet"],
        &rows,
    );
    println!("\npaper: BTree-Rand 10/6/21  RBTree-Rand 12/3/13  Hash-Rand 3/3/4  SPS 2/2/2");
    println!(
        "       BTree-Zipf 6/4/15   RBTree-Zipf 5/2/6    Hash-Zipf 3/3/4  Memcached 3/2/35  Vacation 4/3/9"
    );

    report.sim("cells", Json::Arr(cells));
    attach_latency(
        &mut report,
        "Table 3: txn latency percentiles (cycles)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}
