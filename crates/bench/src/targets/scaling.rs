//! Thread scaling — throughput of the three engines as the worker count
//! grows 1 → 2 → 4 → 8, on one tree and one pointer-chasing workload.
//!
//! Every multi-thread cell runs on *real* host threads (one machine shard
//! per worker). To report **parallelism and nothing else**, each N-thread
//! cell is normalised against a baseline that runs the *same* total
//! transaction count on the *same* per-shard machine slice and workload
//! scale, but with a single worker — so per-transaction cost is identical
//! and the ratio isolates the speedup from running N shards concurrently:
//!
//! * **sim** — simulated TPS ratio (wall-clock = max cycles over the
//!   shards). Deterministic per seed; disjoint shards make this ~N by
//!   construction, so deviations flag scheduler/merge regressions.
//! * **host** — real wall-clock speedup of the measured phase. This is
//!   the curve the ROADMAP's scaling work is judged by; it saturates at
//!   the host's core count (printed below), so on a single-core
//!   container every value is ~1.
//!
//! These cells run [`MatrixRunner::run_exclusive`] — host speedup curves
//! are meaningless if pool neighbours compete for the same cores.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_workloads::runner::RunConfig;

use crate::json::Json;
use crate::quick_mode;
use crate::{
    attach_latency, env_setup, fmt_ratio, print_matrix, BenchReport, CellSpec, EngineKind,
    LatencyStats, MatrixRunner, SspConfig, WorkloadKind,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::BTreeRand, WorkloadKind::Sps];

fn sweep(
    runner: &MatrixRunner,
    wkind: WorkloadKind,
    sim_out: &mut Vec<Json>,
    lat_out: &mut Vec<(String, LatencyStats)>,
) {
    let ssp_cfg = SspConfig::default();
    let mut rows = Vec::new();
    for ekind in EngineKind::PAPER {
        let mut sim_cells = Vec::new();
        let mut host_cells = Vec::new();
        for threads in THREADS {
            if threads == 1 {
                // Cell and baseline would be the identical configuration,
                // so the ratio is 1 by construction — skip both runs.
                sim_cells.push(fmt_ratio(1.0));
                host_cells.push(fmt_ratio(1.0));
                continue;
            }
            let cfg = MachineConfig::default().with_cores(threads);
            let (run_cfg, scale) = env_setup(threads);
            let cell = CellSpec::new(ekind, wkind, &cfg, &ssp_cfg, scale, &run_cfg);
            // Parallelism-only baseline: one worker, but the *same*
            // machine slice and workload scale as each of the N shards
            // above, running the same total transaction count serially —
            // forced onto the sharded driver so its RNG streams (and so
            // its per-transaction cost) match the N-worker cells.
            let base = CellSpec::new(
                ekind,
                wkind,
                &cfg.shard_slice(threads),
                &ssp_cfg,
                scale.per_shard(threads),
                &RunConfig {
                    threads: 1,
                    ..run_cfg.clone()
                },
            )
            .sharded();
            let outs = runner.run_exclusive(&[cell, base]);
            let sim_ratio = outs[0].result.tps / outs[1].result.tps;
            let host_ratio = outs[1].host_elapsed.as_secs_f64()
                / outs[0].host_elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
            sim_cells.push(fmt_ratio(sim_ratio));
            host_cells.push(fmt_ratio(host_ratio));
            lat_out.push((
                format!("{}/{}/x{threads}", ekind.name(), wkind.name()),
                outs[0].result.latency.clone(),
            ));

            let mut point = Json::obj();
            point.set("engine", Json::Str(ekind.name().to_string()));
            point.set("workload", Json::Str(wkind.name().to_string()));
            point.set("threads", Json::U64(threads as u64));
            point.set(
                "cell_elapsed_cycles",
                Json::U64(outs[0].result.elapsed_cycles),
            );
            point.set(
                "base_elapsed_cycles",
                Json::U64(outs[1].result.elapsed_cycles),
            );
            point.set("sim_speedup", Json::F64(sim_ratio));
            sim_out.push(point);
        }
        rows.push((format!("{} sim", ekind.name()), sim_cells));
        rows.push((format!("{} host", ekind.name()), host_cells));
    }
    print_matrix(
        &format!(
            "Thread scaling ({}): TPS vs same-scale 1-worker baseline",
            wkind.name()
        ),
        &["1", "2", "4", "8"],
        &rows,
    );
}

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let mut sim_points = Vec::new();
    let mut lat_rows = Vec::new();
    for wkind in WORKLOADS {
        sweep(runner, wkind, &mut sim_points, &mut lat_rows);
    }
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nhost parallelism: {host_cores} core(s) — the host curve saturates there");
    println!("paper shape: Fig 5b — contention on the shared L3 and NVRAM");
    println!("banks keeps scaling sub-linear; SSP keeps its lead at 4 threads");

    let mut report = BenchReport::new("scaling_threads", quick_mode());
    report.sim("points", Json::Arr(sim_points));
    attach_latency(
        &mut report,
        "Thread scaling: txn latency percentiles (cycles)",
        &lat_rows,
    );
    report.host("parallelism", Json::U64(host_cores as u64));
    report.host_wall(t0.elapsed());
    report
}
