//! `shared`: `run_shared`, two clients on SSP over one versioned heap
//! (`ConflictSps` at conflict dial 0.5), with the shared-hierarchy
//! interconnect.

use std::time::Instant;

use ssp_bench::{make_engine, EngineKind, SspConfig};
use ssp_simulator::config::{InterconnectConfig, MachineConfig};
use ssp_workloads::conflict::ConflictSps;
use ssp_workloads::dist::KeyDist;
use ssp_workloads::runner::{ExecMode, RunConfig};
use ssp_workloads::shared::{run_shared, SharedHeapConfig};

use crate::decor::{build, TimedWorkload};
use crate::round::*;
use crate::trace::{Kind, Traces};

/// Committed transactions per round (both clients together).
const TXNS: u64 = 300_000;
/// Elements of the region both clients swap in.
const SHARED_ELEMS: u64 = 1_024;
/// Elements of each client's private slice.
const PRIVATE_ELEMS: u64 = 4_096;
/// Probability a transaction swaps inside the shared region.
const DIAL: f64 = 0.5;

/// Runs one round: one shared-heap run.
pub fn round(seed: u64, tracing: bool) -> Round {
    let mut r = Round::default();
    let epoch = Instant::now();
    let ssp_cfg = SspConfig::default();
    let shard_cfgs: Vec<MachineConfig> = (0..SHARDS)
        .map(|w| {
            let mut c = MachineConfig::default().shard_slice_for(SHARDS, w);
            c.interconnect = InterconnectConfig::shared_hierarchy();
            c
        })
        .collect();
    let cfg = RunConfig {
        txns: TXNS,
        warmup: 0,
        threads: SHARDS,
        seed,
        mode: ExecMode::Threaded,
    };
    let traces = Traces::new(SHARDS, epoch, tracing);
    let t0 = Instant::now();
    let run = run_shared(
        |w| {
            build(&traces.shards[w], || {
                make_engine(EngineKind::Ssp, &shard_cfgs[w], &ssp_cfg)
            })
        },
        |w| {
            let dist = KeyDist::uniform(SHARED_ELEMS);
            let inner = ConflictSps::new(SHARED_ELEMS, PRIVATE_ELEMS, SHARDS, w, DIAL, dist);
            TimedWorkload::new(inner, &traces.shards[w])
        },
        &cfg,
        &SharedHeapConfig::default(),
    );
    let cycles: u64 = run.shards.iter().map(|s| s.elapsed_cycles).sum();
    let (res, occ) = (&run.result, run.shared);
    let host_elapsed = run.host_elapsed;
    let stats = res.stats.clone();
    let latency = res.latency.txn.clone();
    drop(run);
    let call = Call {
        traces,
        t0,
        t1: Instant::now(),
    };

    let committed = occ.committed;
    r.setup_s = call.setup_s();
    r.measure_s = host_elapsed.as_secs_f64();
    r.committed = committed;
    r.sim_accesses = accesses(&stats);
    r.attempted = TXNS;
    r.failed = TXNS.saturating_sub(committed);
    r.check(committed == TXNS, || {
        format!("shared: committed {committed} of {TXNS}")
    });
    r.check(occ.validated == occ.committed + occ.aborted, || {
        format!(
            "shared: validated {} != committed + aborted {occ:?}",
            occ.validated
        )
    });

    let c = committed as f64;
    let mut lat = call.traces.latencies();
    r.layer_exact.extend(sim_layer(
        "ssp",
        &stats,
        committed,
        cycles,
        &mut lat.clone(),
    ));
    r.layer_exact
        .push(("sim.ssp.latency_samples".into(), lat.len() as f64));
    r.layer_exact.extend([
        (
            "occ.abort_frac".into(),
            ratio(occ.aborted as f64, occ.validated as f64),
        ),
        (
            "occ.conflicts_per_txn".into(),
            ratio(occ.conflicts as f64, c),
        ),
        ("occ.cascades_per_txn".into(), ratio(occ.cascades as f64, c)),
        (
            "occ.backoff_cycles_per_txn".into(),
            ratio(occ.backoff_cycles as f64, c),
        ),
        (
            "interconnect.bankq_delay_per_txn".into(),
            ratio(stats.bankq_delay_cycles as f64, c),
        ),
        (
            "interconnect.bankq_stall_per_txn".into(),
            ratio(stats.bankq_stall_cycles as f64, c),
        ),
        (
            "interconnect.llc_extra_miss_per_txn".into(),
            ratio(stats.llc_extra_misses as f64, c),
        ),
        (
            "interconnect.coh_cross_inval_per_txn".into(),
            ratio(stats.coh_cross_invalidations as f64, c),
        ),
    ]);
    r.exact = vec![
        ("ssp_cycles_per_txn".into(), mean(&lat)),
        (
            "ssp_nvram_writes_per_txn".into(),
            ratio(stats.nvram_writes_total() as f64, c),
        ),
        ("ssp_txn_p50_cycles".into(), percentile(&mut lat, 50.0)),
        ("ssp_txn_p99_cycles".into(), percentile(&mut lat, 99.0)),
        (
            "sojourn_mean_cycles".into(),
            ratio(latency.sum as f64, latency.count as f64),
        ),
        (
            "goodput_frac".into(),
            ratio(occ.committed as f64, occ.validated as f64),
        ),
    ];

    if tracing {
        let aggs = call.traces.run_aggs();
        let own = call.window_ns().saturating_sub(call.traces.top_run_ns());
        r.layer_host.extend(engine_layer("ssp", &aggs, committed));
        r.layer_host.extend([
            (
                "workloads.body_self_ns_per_txn".into(),
                ratio(aggs[Kind::RunTxn as usize].self_ns as f64, c),
            ),
            ("shared.driver_self_ns_per_txn".into(), ratio(own as f64, c)),
        ]);
        r.absorb(&aggs, own);
        r.keep_spans("ssp ConflictSPS", &call.traces);
    }
    r
}
