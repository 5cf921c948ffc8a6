//! `service`: `run_service`, an open loop in virtual time on SSP over
//! B+-tree-Zipf: bursty arrivals just below the saturation knee,
//! deadline-aware admission, group commit of 4, periodic power cuts.

use std::time::Instant;

use ssp_bench::{make_engine, make_workload, EngineKind, Scale, SspConfig, WorkloadKind};
use ssp_simulator::config::MachineConfig;
use ssp_workloads::runner::{ExecMode, RunConfig};
use ssp_workloads::service::{run_service, AdmissionPolicy, ArrivalShape, ServiceConfig};
use ssp_workloads::storm::StormSchedule;

use crate::decor::{build, TimedWorkload};
use crate::round::*;
use crate::trace::{Kind, Traces};

/// Arrivals per round (both shards together).
const ARRIVALS: u64 = 100_000;

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        shape: ArrivalShape::Bursty { burst: 8 },
        period_cycles: 1_600,
        queue_capacity: 64,
        admission: AdmissionPolicy::DeadlineShed,
        deadline_cycles: 200_000,
        group: 4,
        storm: Some(StormSchedule::every_cycles(400_000)),
        ..ServiceConfig::default()
    }
}

/// Runs one round: one service run.
pub fn round(seed: u64, tracing: bool) -> Round {
    let mut r = Round::default();
    let epoch = Instant::now();
    let ssp_cfg = SspConfig::default();
    let scale = Scale::DEFAULT.per_shard(SHARDS);
    let shard_cfgs: Vec<MachineConfig> = (0..SHARDS)
        .map(|w| MachineConfig::default().shard_slice_for(SHARDS, w))
        .collect();
    let cfg = RunConfig {
        txns: ARRIVALS,
        warmup: 0,
        threads: SHARDS,
        seed,
        mode: ExecMode::Threaded,
    };
    let traces = Traces::new(SHARDS, epoch, tracing);
    let t0 = Instant::now();
    let run = run_service(
        |w| {
            build(&traces.shards[w], || {
                make_engine(EngineKind::Ssp, &shard_cfgs[w], &ssp_cfg)
            })
        },
        |w| {
            TimedWorkload::new(
                make_workload(WorkloadKind::BTreeZipf, scale),
                &traces.shards[w],
            )
        },
        &cfg,
        &service_cfg(),
    );
    let (res, s) = (&run.result, run.service);
    let host_elapsed = run.host_elapsed;
    let stats = res.stats.clone();
    let sojourn = res.latency.txn.clone();
    drop(run);
    let call = Call {
        traces,
        t0,
        t1: Instant::now(),
    };

    r.setup_s = call.setup_s();
    r.measure_s = host_elapsed.as_secs_f64();
    r.committed = s.served;
    r.sim_accesses = accesses(&stats);
    r.attempted = s.arrivals;
    r.failed = s.shed + s.expired + s.lost;
    r.check(s.conserves(), || {
        format!("service: counters do not conserve: {s:?}")
    });
    r.check(s.in_queue == 0, || {
        format!("service: {} requests left queued", s.in_queue)
    });
    r.check(s.lost == 0, || {
        format!("service: {} committed requests lost", s.lost)
    });
    r.check(s.arrivals == ARRIVALS, || {
        format!("service: {} arrivals of {ARRIVALS}", s.arrivals)
    });

    let served = s.served as f64;
    let arrivals = s.arrivals as f64;
    let mut lat = call.traces.latencies();
    let busy: u64 = lat.iter().sum();
    r.layer_exact
        .extend(sim_layer("ssp", &stats, s.served, busy, &mut lat.clone()));
    r.layer_exact
        .push(("sim.ssp.latency_samples".into(), lat.len() as f64));
    r.layer_exact.extend([
        (
            "service.shed_admission_frac".into(),
            ratio(s.shed_admission as f64, arrivals),
        ),
        (
            "service.shed_retry_frac".into(),
            ratio(s.shed_retry as f64, arrivals),
        ),
        (
            "service.expired_frac".into(),
            ratio(s.expired as f64, arrivals),
        ),
        (
            "service.retried_frac".into(),
            ratio(s.retried as f64, arrivals),
        ),
        (
            "service.requests_per_group".into(),
            ratio(served, s.groups as f64),
        ),
        (
            "service.unavailability_cycles_per_cut".into(),
            ratio(s.unavailability_cycles as f64, s.storms as f64),
        ),
        ("service.queue_peak".into(), s.queue_peak as f64),
    ]);
    r.exact = vec![
        ("ssp_cycles_per_txn".into(), ratio(busy as f64, served)),
        (
            "ssp_nvram_writes_per_txn".into(),
            ratio(stats.nvram_writes_total() as f64, served),
        ),
        ("ssp_txn_p50_cycles".into(), percentile(&mut lat, 50.0)),
        ("ssp_txn_p99_cycles".into(), percentile(&mut lat, 99.0)),
        (
            "sojourn_mean_cycles".into(),
            ratio(sojourn.sum as f64, sojourn.count as f64),
        ),
        ("goodput_frac".into(), ratio(served, arrivals)),
    ];

    if tracing {
        let aggs = call.traces.run_aggs();
        let own = call.window_ns().saturating_sub(call.traces.top_run_ns());
        let cuts = s.storms as f64;
        r.layer_host.extend(engine_layer("ssp", &aggs, s.served));
        r.layer_host.extend([
            (
                "engine.ssp.recover_us_per_cut".into(),
                ratio(aggs[Kind::Recover as usize].total_ns as f64 / 1e3, cuts),
            ),
            (
                "oracle.verify_us_per_cut".into(),
                ratio(aggs[Kind::Verify as usize].total_ns as f64 / 1e3, cuts),
            ),
            (
                "workloads.body_self_ns_per_txn".into(),
                ratio(aggs[Kind::RunTxn as usize].self_ns as f64, served),
            ),
            (
                "service.driver_self_ns_per_request".into(),
                ratio(own as f64, arrivals),
            ),
        ]);
        r.absorb(&aggs, own);
        r.keep_spans("ssp BTree-Zipf", &call.traces);
    }
    r
}
