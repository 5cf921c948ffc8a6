//! Figure 5b (contention) — cost per transaction as 1 → 8 clients share
//! one memory-channel group, against the partitioned reference.
//!
//! Every client is a machine shard of constant size (an eighth of the
//! Table 2 machine: one core, 1.5 MiB of L3, 8 DRAM + 4 NVRAM banks) that
//! runs a constant per-client transaction count over its own working set;
//! only the *interconnect* differs between the two sweeps:
//!
//! * **shared** — all clients' memory traffic is merged through one
//!   channel group with the full Table 2 bank counts (64 DRAM /
//!   32 NVRAM), under fair, bounded bank arbitration plus the shared-LLC
//!   and coherence actors ([`InterconnectConfig::shared_hierarchy`]).
//!   Adding clients adds queueing: cycles per transaction must rise
//!   monotonically — and stay *bounded* (the per-shard in-flight cap
//!   keeps eight clients within 10x of one, a bound [`crate::gates`]
//!   checks on every report; the unfair FIFO controller it replaced
//!   collapsed ~16x over the 4 → 8 step alone).
//! * **partitioned** — each client owns a private group sized like its
//!   bank slice (8 DRAM / 4 NVRAM). A client's traffic never meets
//!   another's, so the curve stays flat as clients are added — this is
//!   the hardware-scales-with-clients reference the shared curve is read
//!   against.

use std::time::Instant;

use ssp_simulator::config::{InterconnectConfig, MachineConfig};
use ssp_workloads::runner::{ExecMode, RunConfig};

use crate::json::Json;
use crate::{
    attach_latency, latency_rows, print_matrix, quick_mode, BenchReport, CellSpec, EngineKind,
    MatrixRunner, RunResult, Scale, SspConfig, WorkloadKind,
};

const CLIENTS: [usize; 4] = [1, 2, 4, 8];

fn specs_for(
    interconnect: &InterconnectConfig,
    txns_per_client: u64,
    scale: Scale,
) -> Vec<CellSpec> {
    // A constant per-client machine slice (1/8 of Table 2), so the only
    // thing that changes along the sweep is how many clients exist.
    let mut client_cfg = MachineConfig::default().shard_slice(8);
    client_cfg.interconnect = *interconnect;
    let ssp_cfg = SspConfig::default();
    CLIENTS
        .iter()
        .map(|&clients| {
            let run_cfg = RunConfig {
                txns: txns_per_client * clients as u64,
                warmup: 50 * clients as u64,
                threads: clients,
                seed: 0x55d0_2019,
                mode: ExecMode::Threaded,
            };
            CellSpec::new(
                EngineKind::Ssp,
                WorkloadKind::Sps,
                &client_cfg,
                &ssp_cfg,
                scale,
                &run_cfg,
            )
            .sharded()
            .per_worker()
        })
        .collect()
}

/// One sweep's report points, one per client count.
fn series(mode: &str, results: &[RunResult], txns_per_client: u64) -> Vec<Json> {
    CLIENTS
        .iter()
        .zip(results)
        .map(|(&clients, r)| {
            let rows = r.stats.bankq_row_hits + r.stats.bankq_row_misses;
            let row_hit_rate = if rows == 0 {
                0.0
            } else {
                r.stats.bankq_row_hits as f64 / rows as f64
            };
            let mut obj = Json::obj();
            obj.set("mode", Json::Str(mode.to_string()));
            obj.set("clients", Json::U64(clients as u64));
            // Wall-clock is the slowest client; each runs
            // `txns_per_client`, so this is cycles per transaction on the
            // contended critical path.
            obj.set(
                "cycles_per_txn",
                Json::U64(r.elapsed_cycles / txns_per_client),
            );
            obj.set("bankq_delay_cycles", Json::U64(r.stats.bankq_delay_cycles));
            obj.set("bankq_conflicts", Json::U64(r.stats.bankq_conflicts));
            obj.set("row_hit_rate", Json::F64(row_hit_rate));
            obj.set("port_stall_cycles", Json::U64(r.stats.bankq_stall_cycles));
            obj.set("llc_extra_misses", Json::U64(r.stats.llc_extra_misses));
            obj.set(
                "coh_invalidations",
                Json::U64(r.stats.coh_cross_invalidations),
            );
            obj
        })
        .collect()
}

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let quick = quick_mode();
    // Per-client working set: 8192 elements = 64 KiB = 32 NVRAM rows, so
    // one client's traffic spreads across the whole 32-bank shared pool
    // and contention grows smoothly with every added client (a tiny
    // array parks each client on a handful of banks and the 2-client
    // point reads as noise instead).
    let scale = Scale {
        sps_elems: 8_192,
        ..Scale::SMOKE
    };
    let txns_per_client = if quick { 150 } else { 600 };

    let mut specs = specs_for(
        &InterconnectConfig::shared_hierarchy(),
        txns_per_client,
        scale,
    );
    // The partitioned reference gets the same per-client bank budget the
    // 8-way shared slice grants (64/8 DRAM, 32/8 NVRAM), private.
    specs.extend(specs_for(
        &InterconnectConfig::partitioned(64 / 8, 32 / 8),
        txns_per_client,
        scale,
    ));
    let results = runner.run(&specs);
    let shared = series("shared", &results[..CLIENTS.len()], txns_per_client);
    let partitioned = series("partitioned", &results[CLIENTS.len()..], txns_per_client);

    // One table row: `keys` of every point, joined with '+'.
    let row = |label: &str, points: &[Json], keys: &[&str]| -> (String, Vec<String>) {
        let cell = |p: &Json| -> String {
            let value = |k: &&str| match p.get(k) {
                Some(Json::U64(v)) => v.to_string(),
                _ => "-".to_string(),
            };
            keys.iter().map(value).collect::<Vec<_>>().join("+")
        };
        (label.to_string(), points.iter().map(cell).collect())
    };
    print_matrix(
        "Figure 5b (contention): SSP/SPS cycles per txn vs clients",
        &["1", "2", "4", "8"],
        &[
            row("shared cyc/txn", &shared, &["cycles_per_txn"]),
            row("shared q-delay", &shared, &["bankq_delay_cycles"]),
            row("shared stall", &shared, &["port_stall_cycles"]),
            row(
                "shared llc+coh",
                &shared,
                &["llc_extra_misses", "coh_invalidations"],
            ),
            row("part. cyc/txn", &partitioned, &["cycles_per_txn"]),
            row("part. q-delay", &partitioned, &["bankq_delay_cycles"]),
        ],
    );
    println!("\npaper shape: clients contending for one channel group pay a");
    println!("monotonically growing — and, under fair bounded arbitration,");
    println!("bounded — per-txn cost (queueing at the shared banks, shared-LLC");
    println!("capacity and cross-shard coherence); per-client (partitioned)");
    println!("channel groups stay flat — the gap is the contention penalty");
    println!("Fig 5b's multi-client bars fold into throughput");

    let mut report = BenchReport::new("fig5b_contention", quick);
    report.sim("engine", Json::Str("SSP".into()));
    report.sim("workload", Json::Str("SPS".into()));
    report.sim("txns_per_client", Json::U64(txns_per_client));
    report.sim("series", Json::Arr([shared, partitioned].concat()));
    attach_latency(
        &mut report,
        "Figure 5b: txn latency percentiles (cycles; shared sweep first)",
        &latency_rows(&specs, &results),
    );
    report.host_wall(t0.elapsed());
    report
}
