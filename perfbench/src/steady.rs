//! `steady`: the partitioned closed-loop path (`warm_parallel` then
//! `run_measured`), every engine over two structures, no interconnect.

use std::time::Instant;

use ssp_bench::{make_engine, make_workload, EngineKind, Scale, SspConfig, WorkloadKind};
use ssp_simulator::config::MachineConfig;
use ssp_simulator::stats::MachineStats;
use ssp_workloads::runner::{warm_parallel, ExecMode, RunConfig};

use crate::decor::{build, TimedWorkload};
use crate::round::*;
use crate::trace::{self, Kind, Traces};

/// B+-tree-Zipf per shard: 128 Ki keys, half pre-loaded. The tree walk
/// misses the 64-entry DTLB but fits the 6 MiB L3 slice.
const BTREE: Scale = Scale {
    keys: 128 * 1024,
    initial: 64 * 1024,
    ..Scale::DEFAULT
};

/// SPS per shard: 1 Mi 8-byte elements (8 MiB), beyond the L3 slice.
const SPS: Scale = Scale {
    sps_elems: 1024 * 1024,
    ..Scale::DEFAULT
};

const STRUCTURES: [(WorkloadKind, Scale); 2] =
    [(WorkloadKind::BTreeZipf, BTREE), (WorkloadKind::Sps, SPS)];

/// Measured transactions per cell (both shards together).
const TXNS: u64 = 100_000;
/// Warm-up transactions per cell.
const WARMUP: u64 = 4_000;

/// Per-engine accumulators over its two cells.
#[derive(Default)]
struct EngineSum {
    stats: MachineStats,
    txns: u64,
    cycles: u64,
    lat: Vec<u64>,
    run: [trace::Agg; trace::KINDS],
}

/// Runs one round: eight cells, each warmed then measured.
pub fn round(seed: u64, tracing: bool) -> Round {
    let mut r = Round::default();
    let epoch = Instant::now();
    let mut sums: Vec<EngineSum> = ENGINES.iter().map(|_| EngineSum::default()).collect();
    let ssp_cfg = SspConfig::default();
    let shard_cfgs: Vec<MachineConfig> = (0..SHARDS)
        .map(|w| MachineConfig::default().shard_slice_for(SHARDS, w))
        .collect();
    for (ei, &engine) in ENGINES.iter().enumerate() {
        for &(kind, scale) in &STRUCTURES {
            let cfg = RunConfig {
                txns: TXNS,
                warmup: WARMUP,
                threads: SHARDS,
                seed,
                mode: ExecMode::Threaded,
            };
            let traces = Traces::new(SHARDS, epoch, tracing);
            trace::set_setup_phase(true);
            let t0 = Instant::now();
            let warm = warm_parallel(
                |w| {
                    build(&traces.shards[w], || {
                        make_engine(engine, &shard_cfgs[w], &ssp_cfg)
                    })
                },
                |w| TimedWorkload::new(make_workload(kind, scale), &traces.shards[w]),
                &cfg,
            );
            r.setup_s += t0.elapsed().as_secs_f64();
            trace::set_setup_phase(false);
            let run = warm.run_measured(TXNS, ExecMode::Threaded);
            let res = &run.result;
            r.measure_s += run.host_elapsed.as_secs_f64();
            let run_host_ns = run.host_elapsed.as_nanos() as u64;
            r.attempted += TXNS;
            let committed = res.txn_stats.committed;
            r.failed += TXNS.saturating_sub(committed);
            r.check(committed == TXNS, || {
                format!(
                    "steady {} {}: committed {committed} of {TXNS}",
                    engine.name(),
                    kind.name()
                )
            });
            r.committed += committed;
            r.sim_accesses += accesses(&res.stats);

            let s = &mut sums[ei];
            s.stats.merge(&res.stats);
            s.txns += committed;
            s.cycles += run.shards.iter().map(|sh| sh.elapsed_cycles).sum::<u64>();
            drop(run);
            s.lat.extend(traces.latencies());
            if tracing {
                let aggs = traces.run_aggs();
                for (a, b) in s.run.iter_mut().zip(&aggs) {
                    a.add(b);
                }
                // Every shard thread spends the whole measured phase in
                // the driver; what the wrapped calls leave uncovered is
                // the driver's own time.
                let window = SHARDS as u64 * run_host_ns;
                r.absorb(&aggs, window.saturating_sub(traces.top_run_ns()));
                r.keep_spans(&format!("{} {}", short(engine), kind.name()), &traces);
            }
        }
    }

    for (s, &engine) in sums.iter_mut().zip(&ENGINES) {
        r.layer_exact.extend(sim_layer(
            short(engine),
            &s.stats,
            s.txns,
            s.cycles,
            &mut s.lat,
        ));
        if tracing {
            r.layer_host
                .extend(engine_layer(short(engine), &s.run, s.txns));
        }
        if engine == EngineKind::Ssp {
            // A closed loop: a request arrives when its transaction begins.
            let mean = mean(&s.lat);
            r.exact = vec![
                ("ssp_cycles_per_txn".into(), mean),
                (
                    "ssp_nvram_writes_per_txn".into(),
                    ratio(s.stats.nvram_writes_total() as f64, s.txns as f64),
                ),
                ("ssp_txn_p50_cycles".into(), percentile(&mut s.lat, 50.0)),
                ("ssp_txn_p99_cycles".into(), percentile(&mut s.lat, 99.0)),
                ("sojourn_mean_cycles".into(), mean),
            ];
            r.layer_exact
                .push(("sim.ssp.latency_samples".into(), s.lat.len() as f64));
        }
    }
    r.exact.push((
        "goodput_frac".into(),
        ratio(r.committed as f64, r.attempted as f64),
    ));
    if tracing {
        let c = r.committed as f64;
        let body = r.aggs[Kind::RunTxn as usize].self_ns as f64;
        r.layer_host.extend([
            ("workloads.body_self_ns_per_txn".into(), ratio(body, c)),
            (
                "runner.driver_self_ns_per_txn".into(),
                ratio(r.driver_ns as f64, c),
            ),
        ]);
    }
    r
}
