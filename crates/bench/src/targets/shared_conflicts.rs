//! Shared-heap conflict sweep: clients × conflict dial over ONE
//! versioned store, reporting throughput *and* abort-rate curves.
//!
//! This is the multi-client counterpart of the partitioned scaling
//! figures: `run_shared` puts every client on the same logical array
//! (the `ConflictSps` shared region) with optimistic concurrency, so
//! contention produces real aborts and retries instead of being sliced
//! away. The sweep crosses client count (1/2/4/8) with the conflict
//! dial (the fraction of transactions touching the shared region) and
//! records, per cell, the committed throughput and the OCC outcome
//! counters.
//!
//! A second family repeats the sweep under the paper's 80/15 hot-spot
//! skew. [`crate::gates`] checks the report when it is written, so CI
//! fails loudly rather than baking a bad number into a baseline:
//!
//! 1. **No false conflicts** — at dial 0 the working sets are
//!    line-disjoint by construction and the abort count must be exactly
//!    zero at every client count.
//! 2. **Real conflicts** — at the high-dial, 8-client corner the abort
//!    count must be nonzero (the validator actually fires), under both
//!    distributions, and the abort rate never falls as clients are added.
//! 3. **Bounded shared-mode overhead** — at dial 0 the shared driver's
//!    cycles/txn must stay within 1.5× of the partitioned
//!    (`run_parallel`) driver on the *same* workload: speculation +
//!    epoch validation may not silently wreck the uncontended path.
//!
//! The cells run pooled on the [`MatrixRunner`], each through [`agree`]:
//! threaded, repeated and sequential runs must match bit-for-bit (the
//! shared-heap determinism contract). Everything under `sim` is integer,
//! deterministic simulated state, exact-gated by `bench_diff`.

use std::time::Instant;

use ssp_core::engine::Ssp;
use ssp_core::SspConfig;
use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;
use ssp_workloads::conflict::ConflictSps;
use ssp_workloads::dist::KeyDist;
use ssp_workloads::runner::{run_parallel, ExecMode, RunConfig};
use ssp_workloads::shared::{run_shared, SharedHeapConfig, SharedRun};

use super::fold_fingerprints;
use crate::json::Json;
use crate::{agree, print_matrix, quick_mode, BenchReport, MatrixRunner};

/// Clients sweeping the x-axis (mirrors the paper's multi-client
/// figures).
const CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// Conflict dial in basis points (0 = partitioned, 9000 = 90% of
/// transactions on the shared region).
const DIALS_BP: [u64; 3] = [0, 5_000, 9_000];

/// Shared-region / per-client private-region sizes in elements.
const SHARED_ELEMS: u64 = 256;
const PRIVATE_ELEMS: u64 = 256;

fn run_cfg(threads: usize, quick: bool) -> RunConfig {
    RunConfig {
        txns: if quick { 240 } else { 2_000 },
        warmup: if quick { 40 } else { 200 },
        threads,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    }
}

/// Key distribution over the shared region: uniform, or the paper's skew
/// (80% of shared-region accesses hit 15% of keys).
fn shared_keys(zipf: bool) -> KeyDist {
    if zipf {
        KeyDist::paper_zipf(SHARED_ELEMS)
    } else {
        KeyDist::uniform(SHARED_ELEMS)
    }
}

fn shared_cell(
    clients: usize,
    dial_bp: u64,
    zipf: bool,
    mode: ExecMode,
    quick: bool,
) -> SharedRun<Ssp> {
    let shard = MachineConfig::default().shard_slice(clients.max(2));
    let dial = dial_bp as f64 / 10_000.0;
    let mut cfg = run_cfg(clients, quick);
    cfg.mode = mode;
    run_shared(
        move |_| Ssp::new(shard.clone(), SspConfig::default()),
        move |w| {
            ConflictSps::new(
                SHARED_ELEMS,
                PRIVATE_ELEMS,
                clients,
                w,
                dial,
                shared_keys(zipf),
            )
        },
        &cfg,
        &SharedHeapConfig::default(),
    )
}

/// The partitioned reference: the same dial-0 workload under
/// `run_parallel` (each worker swaps inside its own private slice on
/// its own shard — no speculation, no validation).
fn partitioned_cell(clients: usize, quick: bool) -> u64 {
    let shard = MachineConfig::default().shard_slice(clients.max(2));
    let cfg = run_cfg(clients, quick);
    let run = run_parallel(
        move |_| Ssp::new(shard.clone(), SspConfig::default()),
        move |w| ConflictSps::uniform(SHARED_ELEMS, PRIVATE_ELEMS, clients, w, 0.0),
        &cfg,
    );
    run.result.elapsed_cycles / run.result.txns.max(1)
}

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let quick = quick_mode();

    let partitioned = runner.map(&CLIENTS, |&clients| partitioned_cell(clients, quick));
    // The uniform family, then the skewed one at nonzero dials only (dial
    // 0 never touches the shared region, so skew is moot there). Skewed
    // rows come after the uniform ones and carry a `dist` key instead of
    // the partitioned reference.
    let mut cells = Vec::new();
    for zipf in [false, true] {
        for (ci, clients) in CLIENTS.into_iter().enumerate() {
            for dial_bp in DIALS_BP {
                if !zipf || dial_bp > 0 {
                    cells.push((zipf, ci, clients, dial_bp));
                }
            }
        }
    }
    let (rows, sim_rows): (Vec<_>, Vec<_>) = runner
        .map(&cells, |&(zipf, ci, clients, dial_bp)| {
            let suffix = if zipf { " zipf" } else { "" };
            let mut run = agree(
                &format!("x{clients} d{dial_bp}{suffix}"),
                |mode| shared_cell(clients, dial_bp, zipf, mode, quick),
                |r| (r.result.clone(), r.shared),
            );
            let s = run.shared;
            let cycles_per_txn = run.result.elapsed_cycles / run.result.txns.max(1);
            // Basis points of validated intents that aborted: integer,
            // exact, and scale-free for the gate.
            let abort_rate_bp = (s.aborted * 10_000).checked_div(s.validated).unwrap_or(0);
            // Committed NVRAM state only: crash + recover each shard first,
            // like the equivalence suite.
            let fingerprint = fold_fingerprints(run.shards.iter_mut().map(|s| {
                s.engine.crash_and_recover();
                s.engine.machine().nvram_fingerprint()
            }));
            let row = (
                format!("x{clients} dial {:.2}{suffix}", dial_bp as f64 / 10_000.0),
                vec![
                    format!("{}", s.committed),
                    format!("{}", s.aborted),
                    format!("{:.1}%", abort_rate_bp as f64 / 100.0),
                    format!("{}", s.retries),
                    format!("{}", s.max_attempt),
                    format!("{cycles_per_txn}"),
                ],
            );
            let mut sim = Json::obj();
            sim.set("clients", Json::U64(clients as u64));
            sim.set("conflict_bp", Json::U64(dial_bp));
            if zipf {
                sim.set("dist", Json::Str("paper_zipf".to_string()));
            }
            sim.set("txns", Json::U64(run.result.txns));
            sim.set("committed", Json::U64(s.committed));
            sim.set("aborted", Json::U64(s.aborted));
            sim.set("validated", Json::U64(s.validated));
            sim.set("conflicts", Json::U64(s.conflicts));
            sim.set("cascades", Json::U64(s.cascades));
            sim.set("retries", Json::U64(s.retries));
            sim.set("backoff_cycles", Json::U64(s.backoff_cycles));
            sim.set("max_attempt", Json::U64(s.max_attempt));
            sim.set("abort_rate_bp", Json::U64(abort_rate_bp));
            sim.set("elapsed_cycles", Json::U64(run.result.elapsed_cycles));
            sim.set("cycles_per_txn", Json::U64(cycles_per_txn));
            sim.set("tps_milli", Json::U64((run.result.tps * 1_000.0) as u64));
            if !zipf {
                sim.set("partitioned_cycles_per_txn", Json::U64(partitioned[ci]));
            }
            sim.set("fingerprint", Json::U64(fingerprint));
            (row, sim)
        })
        .into_iter()
        .unzip();

    print_matrix(
        "Shared-heap conflicts (ConflictSPS, SSP): clients x dial",
        &[
            "committed",
            "aborted",
            "abort rate",
            "retries",
            "max att",
            "cyc/txn",
        ],
        &rows,
    );
    println!("\nevery cell is run threaded twice and sequentially once; all three");
    println!("runs must match bit-for-bit including abort counts; dial 0 must");
    println!("abort nothing and stay within 1.5x of the partitioned driver");

    let mut report = BenchReport::new("shared_conflicts", quick);
    report.sim("rows", Json::Arr(sim_rows));
    report.host_wall(t0.elapsed());
    report
}
