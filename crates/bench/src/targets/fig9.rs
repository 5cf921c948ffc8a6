//! Figure 9 — sensitivity to the SSP-cache access latency: SSP's speedup
//! over REDO-LOG with the metadata access latency fixed at 20..180 cycles
//! (the paper sweeps from L3-like to DRAM-like latencies).
//!
//! The REDO baseline ignores the SSP config, so its seven cells share
//! warm state (and, inside `bench_all`, memoized results) with the other
//! single-thread figures.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;

use crate::json::Json;
use crate::quick_mode;
use crate::{
    attach_latency, cell_json, env_setup, fmt_ratio, latency_rows, print_matrix, BenchReport,
    CellSpec, EngineKind, MatrixRunner, SspConfig, WorkloadKind,
};

const LATENCIES: [u64; 5] = [20, 60, 100, 140, 180];

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let cfg = MachineConfig::default().with_cores(1);
    let (run_cfg, scale) = env_setup(1);
    let base_ssp_cfg = SspConfig::default();

    // REDO-LOG baseline TPS per workload (independent of SSP-cache
    // latency), then SSP at each latency.
    let mut specs = Vec::new();
    for wkind in WorkloadKind::MICRO {
        specs.push(CellSpec::new(
            EngineKind::Redo,
            wkind,
            &cfg,
            &base_ssp_cfg,
            scale,
            &run_cfg,
        ));
    }
    for wkind in WorkloadKind::MICRO {
        for lat in LATENCIES {
            let ssp_cfg = SspConfig {
                meta_latency_override: Some(lat),
                ..SspConfig::default()
            };
            specs.push(CellSpec::new(
                EngineKind::Ssp,
                wkind,
                &cfg,
                &ssp_cfg,
                scale,
                &run_cfg,
            ));
        }
    }
    let results = runner.run(&specs);

    let mut report = BenchReport::new("fig9_sspcache_latency", quick_mode());
    let mut cells = Vec::new();
    let redo_tps: Vec<f64> = results[..WorkloadKind::MICRO.len()]
        .iter()
        .map(|r| {
            cells.push(cell_json(1, r));
            r.tps
        })
        .collect();

    let mut rows = Vec::new();
    let mut it = results[WorkloadKind::MICRO.len()..].iter();
    for (wi, wkind) in WorkloadKind::MICRO.iter().enumerate() {
        let row: Vec<String> = LATENCIES
            .iter()
            .map(|&lat| {
                let r = it.next().expect("one result per spec");
                let mut cell = cell_json(1, r);
                cell.set("meta_latency", Json::U64(lat));
                cells.push(cell);
                fmt_ratio(r.tps / redo_tps[wi])
            })
            .collect();
        rows.push((wkind.name().to_string(), row));
    }
    print_matrix(
        "Figure 9: SSP speedup over REDO-LOG vs SSP-cache latency (cycles)",
        &["20cy", "60cy", "100cy", "140cy", "180cy"],
        &rows,
    );
    println!("\npaper shape: moderate linear decrease with latency for most");
    println!("workloads; SPS and Hash-Rand are most sensitive (frequent TLB");
    println!("misses re-fetch SSP metadata); zipfian less sensitive than random");

    report.sim("cells", Json::Arr(cells));
    attach_latency(
        &mut report,
        "Figure 9: txn latency percentiles (cycles)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}
