//! Recovery-time benchmark — the paper's motivation for checkpointing
//! (Section 4.1.2): "to limit the growth of the journaling space and also
//! to bound the recovery time".
//!
//! Simulated recovery work and host-side latency are reported
//! *separately*: the simulated columns (journal state, records replayed
//! by recovery) come from the engine's own accounting — those are
//! deterministic and exact-gated — while the host column is wall-clock
//! time of a *pre-warmed* recovery: the first crash+recover cycle after a
//! run pays one-time host allocation costs (page-frame maps, journal
//! buffers) and is reported on its own as "cold" so allocator noise never
//! pollutes the steady-state number. Cells run
//! [`MatrixRunner::run_exclusive`] for the same reason.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;

use crate::json::Json;
use crate::quick_mode;
use crate::{
    attach_latency, env_setup, latency_rows, print_matrix, BenchReport, CellSpec, EngineKind,
    MatrixRunner, SspConfig, WorkloadKind,
};

/// Warm recovery repetitions; the minimum is reported (host-noise floor).
const WARM_REPS: usize = 5;

const THRESHOLDS: [u64; 4] = [8 * 1024, 64 * 1024, 512 * 1024, 4 * 1024 * 1024];

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let cfg = MachineConfig::default().with_cores(1);
    let (run_cfg, scale) = env_setup(1);

    let specs: Vec<CellSpec> = THRESHOLDS
        .iter()
        .map(|&threshold| {
            let ssp_cfg = SspConfig {
                checkpoint_threshold_bytes: threshold,
                ..SspConfig::default()
            };
            CellSpec::new(
                EngineKind::Ssp,
                WorkloadKind::HashRand,
                &cfg,
                &ssp_cfg,
                scale,
                &run_cfg,
            )
        })
        .collect();
    let outs = runner.run_exclusive(&specs);
    let lat_rows = latency_rows(&specs, outs.iter().map(|o| &o.result));

    let mut sim_rows = Vec::new();
    let mut host_rows = Vec::new();
    let mut rows = Vec::new();
    for (&threshold, out) in THRESHOLDS.iter().zip(outs) {
        let mut engine = out.engines.into_iter().next().expect("one engine");
        let (live_bytes, run_checkpoints) = {
            let ssp = engine.as_ssp().expect("SSP cell");
            // Snapshot now: every crash+recover cycle below ends in a
            // checkpoint of its own and would inflate the run-phase count.
            (ssp.journal_live_bytes(), ssp.checkpoints())
        };

        // The real post-run recovery: replays the live journal. Its host
        // time is reported as "cold" (it also pays the one-time
        // allocation cost); the *simulated* replay work is the records
        // count, which is host-independent.
        engine.crash();
        let t = Instant::now();
        engine.recover();
        let cold_us = t.elapsed().as_micros();
        let (replayed, replayed_bytes) = {
            let ssp = engine.as_ssp().expect("SSP cell");
            (
                ssp.last_recovery_replayed(),
                ssp.last_recovery_replayed_bytes(),
            )
        };

        // Warm host latency: allocations are pre-warmed by the cold
        // recovery above, and recovery checkpoints the journal, so these
        // repetitions replay nothing — the minimum over them is the
        // replay-free, allocation-free recovery floor (persistent slot
        // scan + page-table rebuild).
        let warm_us = (0..WARM_REPS)
            .map(|_| {
                engine.crash();
                let t = Instant::now();
                engine.recover();
                t.elapsed().as_micros()
            })
            .min()
            .unwrap();

        rows.push((
            format!("{} KiB", threshold / 1024),
            vec![
                format!("{run_checkpoints}"),
                format!("{live_bytes} B"),
                format!("{replayed}"),
                format!("{replayed_bytes} B"),
                format!("{warm_us} us"),
                format!("{cold_us} us"),
            ],
        ));
        let mut sim = Json::obj();
        sim.set("checkpoint_threshold_bytes", Json::U64(threshold));
        sim.set("run_checkpoints", Json::U64(run_checkpoints));
        sim.set("journal_live_bytes", Json::U64(live_bytes));
        sim.set("records_replayed", Json::U64(replayed));
        sim.set("replayed_journal_bytes", Json::U64(replayed_bytes));
        sim.set("run_elapsed_cycles", Json::U64(out.result.elapsed_cycles));
        sim_rows.push(sim);
        let mut host = Json::obj();
        host.set("checkpoint_threshold_bytes", Json::U64(threshold));
        host.set("warm_us", Json::U64(warm_us as u64));
        host.set("cold_us", Json::U64(cold_us as u64));
        host_rows.push(host);
    }
    print_matrix(
        "Recovery vs checkpoint threshold (Hash-Rand)",
        &[
            "checkpoints",
            "live journal",
            "replayed",
            "replayed B",
            "host (warm)",
            "host (cold)",
        ],
        &rows,
    );
    println!("\nsmaller thresholds keep the journal short: less replay work at");
    println!("recovery, at the cost of more frequent checkpoint writes.");
    println!("\"host (cold)\" includes one-time allocation cost and is kept out");
    println!("of the warm steady-state column by construction");

    let mut report = BenchReport::new("recovery_time", quick_mode());
    report.sim("rows", Json::Arr(sim_rows));
    attach_latency(
        &mut report,
        "Recovery cells: txn latency percentiles (cycles)",
        &lat_rows,
    );
    report.host("rows", Json::Arr(host_rows));
    report.host_wall(t0.elapsed());
    report
}
