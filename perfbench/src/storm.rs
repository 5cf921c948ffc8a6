//! `storm`: `run_storm` on every engine under a site-based, re-armed
//! crash schedule, each cut followed by recovery and oracle verification.

use std::time::Instant;

use ssp_bench::{make_engine, make_workload, EngineKind, Scale, SspConfig, WorkloadKind};
use ssp_simulator::config::MachineConfig;
use ssp_simulator::fault::FaultSite;
use ssp_workloads::runner::{ExecMode, RunConfig};
use ssp_workloads::storm::{run_storm, StormPoint, StormSchedule};

use crate::decor::{build, TimedWorkload};
use crate::round::*;
use crate::trace::{Kind, Traces};

/// Transactions per engine (both shards together).
const TXNS: u64 = 4_000;
/// Transactions between two site cuts.
const SPACING: u32 = 24;
/// The cycle-delta cut, in virtual cycles after arming.
const CYCLE_CUT: u64 = 60_000;

/// Cut at the commit path before the commit mark (must drop), after it
/// (must keep), then at a cycle delta, and around again; every first
/// recovery is itself cut.
fn schedule() -> StormSchedule {
    StormSchedule {
        points: vec![
            StormPoint::AtSite {
                site: FaultSite::CommitData,
                hits: SPACING,
            },
            StormPoint::AtSite {
                site: FaultSite::CommitMark,
                hits: SPACING,
            },
            StormPoint::AfterCycles(CYCLE_CUT),
        ],
        crash_during_recovery: true,
        rearm: true,
    }
}

/// `CommitMark` cuts among a shard's first `storms` cuts (point 1 of
/// every three).
fn commit_mark_cuts(storms: u64) -> u64 {
    (storms + 1) / 3
}

/// Runs one round: one storm run per engine.
pub fn round(seed: u64, tracing: bool) -> Round {
    let mut r = Round::default();
    let epoch = Instant::now();
    let scale = Scale::DEFAULT.per_shard(SHARDS);
    let ssp_cfg = SspConfig::default();
    let shard_cfgs: Vec<MachineConfig> = (0..SHARDS)
        .map(|w| MachineConfig::default().shard_slice_for(SHARDS, w))
        .collect();
    let cfg = RunConfig {
        txns: TXNS,
        warmup: 0,
        threads: SHARDS,
        seed,
        mode: ExecMode::Threaded,
    };
    let mut executed = 0u64;
    let mut cuts_total = 0u64;
    for &engine in &ENGINES {
        let e = short(engine);
        let traces = Traces::new(SHARDS, epoch, tracing);
        let t0 = Instant::now();
        let storm = run_storm(
            |w| {
                build(&traces.shards[w], || {
                    make_engine(engine, &shard_cfgs[w], &ssp_cfg)
                })
            },
            |w| TimedWorkload::new(make_workload(WorkloadKind::Sps, scale), &traces.shards[w]),
            &cfg,
            &schedule(),
        );
        let call = Call {
            traces,
            t0,
            t1: Instant::now(),
        };
        let t = storm.totals();
        let committed = t.txns - t.torn_txns;
        r.setup_s += call.setup_s();
        r.measure_s += call.run_s();
        r.attempted += t.txns;
        r.failed += t.lost_txns;
        r.committed += committed;
        executed += t.txns;
        cuts_total += t.storms;
        r.check(t.lost_txns == 0, || {
            format!(
                "storm {}: {} committed transactions lost",
                engine.name(),
                t.lost_txns
            )
        });
        let commit_frac = ratio((t.txns - t.storms) as f64, t.txns as f64);
        r.check(commit_frac > 0.0, || {
            format!(
                "storm {}: no transaction committed between cuts",
                engine.name()
            )
        });
        let mark_cuts: u64 = storm
            .shards
            .iter()
            .map(|s| commit_mark_cuts(s.storms))
            .sum();
        let cuts = t.storms as f64;
        r.layer_exact.extend([
            (format!("storm.{e}.commit_frac"), commit_frac),
            (
                format!("storm.{e}.kept_frac"),
                ratio(t.kept_torn_txns as f64, mark_cuts as f64),
            ),
            (
                format!("storm.{e}.recovery_nvram_reads_per_cut"),
                ratio(t.recovery_nvram_reads as f64, cuts),
            ),
            (
                format!("storm.{e}.recovery_nvram_writes_per_cut"),
                ratio(t.recovery_nvram_writes as f64, cuts),
            ),
        ]);

        let stats = call.traces.run_stats();
        r.sim_accesses += accesses(&stats);
        let cycles: u64 = storm.shards.iter().map(|s| s.elapsed_cycles).sum();
        let mut lat = call.traces.latencies();
        r.layer_exact
            .extend(sim_layer(e, &stats, t.txns, cycles, &mut lat.clone()));
        if engine == EngineKind::Ssp {
            // A closed loop: a request arrives when its transaction begins.
            let mean = mean(&lat);
            r.exact = vec![
                ("ssp_cycles_per_txn".into(), mean),
                (
                    "ssp_nvram_writes_per_txn".into(),
                    ratio(stats.nvram_writes_total() as f64, committed as f64),
                ),
                ("ssp_txn_p50_cycles".into(), percentile(&mut lat, 50.0)),
                ("ssp_txn_p99_cycles".into(), percentile(&mut lat, 99.0)),
                ("sojourn_mean_cycles".into(), mean),
            ];
            r.layer_exact
                .push(("sim.ssp.latency_samples".into(), lat.len() as f64));
        }

        if tracing {
            let aggs = call.traces.run_aggs();
            r.layer_host.extend(engine_layer(e, &aggs, t.txns));
            r.layer_host.push((
                format!("engine.{e}.recover_us_per_cut"),
                ratio(aggs[Kind::Recover as usize].total_ns as f64 / 1e3, cuts),
            ));
            let own = call.window_ns().saturating_sub(call.traces.top_run_ns());
            r.absorb(&aggs, own);
            r.keep_spans(e, &call.traces);
        }
    }
    r.exact.push((
        "goodput_frac".into(),
        ratio(r.committed as f64, executed as f64),
    ));
    if tracing {
        let cuts = cuts_total as f64;
        let verify_us = r.aggs[Kind::Verify as usize].total_ns as f64 / 1e3;
        let body_ns = r.aggs[Kind::RunTxn as usize].self_ns as f64;
        r.layer_host.extend([
            ("oracle.verify_us_per_cut".into(), ratio(verify_us, cuts)),
            (
                "storm.driver_self_us_per_cut".into(),
                ratio(r.driver_ns as f64 / 1e3, cuts),
            ),
            ("storm.cuts_per_s".into(), ratio(cuts, r.measure_s)),
            (
                "workloads.body_self_ns_per_txn".into(),
                ratio(body_ns, executed as f64),
            ),
        ]);
    }
    r
}
