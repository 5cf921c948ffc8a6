//! Service-mode benchmark: the always-on front end under overload,
//! group commit, and recovery-under-fire.
//!
//! Three cell families over [`run_service`]:
//!
//! 1. **Overload sweep** (SSP): arrival period × admission policy at
//!    group size 1. Dialing the arrival rate up must push the shed rate
//!    up *monotonically* for every policy.
//! 2. **Group-commit sweep**: engine × group size {1, 4, 16} at a
//!    moderate rate. Batching requests into one engine transaction must
//!    cut group commits and journal flushes vs group size 1 (the latter
//!    for every engine that journals at all) — the measured group-commit
//!    amortization.
//! 3. **Recovery-under-fire**: engine × a periodic storm schedule with
//!    group commit on. Every cell must report storms > 0 and a non-zero
//!    unavailability window.
//!
//! Those family checks, and zero committed-request loss in every cell,
//! are [`crate::gates`] checks over the emitted rows. The cells run
//! pooled on the [`MatrixRunner`], each through [`agree`]: threaded,
//! repeated and sequential runs must match bit-for-bit (service counters,
//! latency histograms, drain curves, NVRAM fingerprints), and each run
//! must conserve shed/served/expired exactly and drain its queues.
//! Everything under `sim` is integer, deterministic simulated state,
//! exact-gated by `bench_diff`.

use std::time::Instant;

use ssp_simulator::config::MachineConfig;
use ssp_workloads::service::{run_service, AdmissionPolicy, ServiceConfig, ServiceRun};
use ssp_workloads::storm::StormSchedule;
use ssp_workloads::{ExecMode, RunConfig};

use super::fold_fingerprints;
use crate::json::Json;
use crate::{
    agree, make_engine, make_workload, print_matrix, quick_mode, BenchReport, BoxedEngine,
    EngineKind, MatrixRunner, Scale, SspConfig, WorkloadKind,
};

const ENGINES: [EngineKind; 4] = [
    EngineKind::Undo,
    EngineKind::Redo,
    EngineKind::Ssp,
    EngineKind::Shadow,
];

/// Clients (= shards) in every cell.
const CLIENTS: usize = 2;

/// Arrival periods of the overload sweep, hot to cold (cycles between
/// arrivals per shard; smaller = hotter).
const OVERLOAD_PERIODS: [u64; 3] = [150, 600, 6_000];

/// Group sizes of the group-commit sweep.
const GROUP_SIZES: [usize; 3] = [1, 4, 16];

fn run_cfg(quick: bool) -> RunConfig {
    RunConfig {
        txns: if quick { 240 } else { 2_000 },
        warmup: if quick { 40 } else { 200 },
        threads: CLIENTS,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    }
}

fn policy_name(p: AdmissionPolicy) -> &'static str {
    match p {
        AdmissionPolicy::DropTail => "drop_tail",
        AdmissionPolicy::DeadlineShed => "deadline_shed",
        AdmissionPolicy::Backpressure { .. } => "backpressure",
    }
}

/// One service cell through [`agree`], plus the run-level checks the
/// emitted JSON cannot express: exact conservation and a drained queue.
fn service_cell(
    engine: EngineKind,
    svc: &ServiceConfig,
    quick: bool,
    label: &str,
) -> ServiceRun<BoxedEngine> {
    let shard = MachineConfig::default().shard_slice(CLIENTS);
    let ssp_cfg = SspConfig::default();
    let scale = Scale::SMOKE.per_shard(CLIENTS);
    let run = agree(
        label,
        |mode| {
            let mut cfg = run_cfg(quick);
            cfg.mode = mode;
            run_service(
                |_w| make_engine(engine, &shard, &ssp_cfg),
                |_w| make_workload(WorkloadKind::Sps, scale),
                &cfg,
                svc,
            )
        },
        |r| {
            let shards: Vec<_> = r
                .shards
                .iter()
                .map(|s| (s.service, s.latency.clone(), s.curve.clone(), s.fingerprint))
                .collect();
            (r.result.clone(), r.service, shards)
        },
    );
    let s = run.service;
    assert!(s.conserves(), "{label}: accounting must conserve: {s:?}");
    assert_eq!(s.in_queue, 0, "{label}: the run must drain: {s:?}");
    run
}

fn cell_json(
    family: &str,
    engine: EngineKind,
    svc: &ServiceConfig,
    run: &ServiceRun<BoxedEngine>,
) -> Json {
    let s = &run.service;
    let mut sim = Json::obj();
    sim.set("family", Json::Str(family.to_string()));
    sim.set("engine", Json::Str(engine.name().to_string()));
    sim.set("period_cycles", Json::U64(svc.period_cycles));
    sim.set("policy", Json::Str(policy_name(svc.admission).to_string()));
    sim.set("group", Json::U64(svc.group as u64));
    sim.set("arrivals", Json::U64(s.arrivals));
    sim.set("admitted", Json::U64(s.admitted));
    sim.set("served", Json::U64(s.served));
    sim.set("shed", Json::U64(s.shed));
    sim.set("shed_admission", Json::U64(s.shed_admission));
    sim.set("shed_retry", Json::U64(s.shed_retry));
    sim.set("expired", Json::U64(s.expired));
    sim.set("retried", Json::U64(s.retried));
    sim.set("groups", Json::U64(s.groups));
    sim.set("storms", Json::U64(s.storms));
    sim.set("torn_dropped", Json::U64(s.torn_dropped));
    sim.set("torn_kept", Json::U64(s.torn_kept));
    sim.set("lost", Json::U64(s.lost));
    sim.set("unavailability_cycles", Json::U64(s.unavailability_cycles));
    sim.set("queue_peak", Json::U64(s.queue_peak));
    sim.set("shed_rate_bp", Json::U64(s.shed_rate_bp()));
    sim.set("journal_writes", Json::U64(run.result.logging_writes()));
    sim.set(
        "nvram_writes",
        Json::U64(run.result.stats.nvram_writes_total()),
    );
    sim.set("elapsed_cycles", Json::U64(run.result.elapsed_cycles));
    sim.set(
        "cycles_per_served",
        Json::U64(run.result.elapsed_cycles / s.served.max(1)),
    );
    sim.set(
        "p99_sojourn",
        Json::U64(run.result.latency.txn.percentile(99)),
    );
    sim.set(
        "fingerprint",
        Json::U64(fold_fingerprints(run.shards.iter().map(|s| s.fingerprint))),
    );
    sim
}

/// Runs the target and returns its report.
pub fn run(runner: &MatrixRunner) -> BenchReport {
    let t0 = Instant::now();
    let quick = quick_mode();

    let mut cells = Vec::new();
    // Family 1: overload sweep (SSP), arrival period × admission policy,
    // cold to hot, so monotonicity reads as "shed rate never drops as the
    // rate dials up".
    for policy in [
        AdmissionPolicy::DropTail,
        AdmissionPolicy::DeadlineShed,
        AdmissionPolicy::Backpressure { threshold: 16 },
    ] {
        for &period in OVERLOAD_PERIODS.iter().rev() {
            let svc = ServiceConfig {
                period_cycles: period,
                admission: policy,
                group: 1,
                queue_capacity: 32,
                deadline_cycles: 20_000,
                ..ServiceConfig::default()
            };
            let name = format!("{} p{period}", policy_name(policy));
            cells.push(("overload", EngineKind::Ssp, svc, name));
        }
    }
    // Family 2: group-commit sweep, engine × group size.
    for engine in ENGINES {
        for group in GROUP_SIZES {
            let svc = ServiceConfig {
                period_cycles: 600,
                group,
                ..ServiceConfig::default()
            };
            cells.push(("group", engine, svc, format!("{} g{group}", engine.name())));
        }
    }
    // Family 3: recovery-under-fire, engine × periodic storms with group
    // commit on.
    for engine in ENGINES {
        let svc = ServiceConfig {
            period_cycles: 600,
            group: 4,
            storm: Some(StormSchedule::every_cycles(40_000)),
            ..ServiceConfig::default()
        };
        cells.push(("recovery", engine, svc, format!("{} storm", engine.name())));
    }

    let (rows, sim_rows): (Vec<_>, Vec<_>) = runner
        .map(&cells, |(family, engine, svc, name)| {
            let run = service_cell(*engine, svc, quick, &format!("{family} {name}"));
            let (s, r) = (run.service, &run.result);
            let row = match *family {
                "overload" => vec![
                    format!("{}", s.arrivals),
                    format!("{}", s.served),
                    format!("{}", s.shed),
                    format!("{}", s.expired),
                    format!("{:.1}%", s.shed_rate_bp() as f64 / 100.0),
                    format!("{}", s.queue_peak),
                ],
                "group" => vec![
                    format!("{}", s.arrivals),
                    format!("{}", s.served),
                    format!("{}", s.groups),
                    format!("{}", r.logging_writes()),
                    format!("{}", r.stats.nvram_writes_total()),
                    format!("{}", r.elapsed_cycles / s.served.max(1)),
                ],
                _ => vec![
                    format!("{}", s.storms),
                    format!("{}", s.served),
                    format!("{}", s.shed + s.expired),
                    format!("{}", s.retried),
                    format!("{}", s.lost),
                    format!("{}", s.unavailability_cycles),
                ],
            };
            ((name.clone(), row), cell_json(family, *engine, svc, &run))
        })
        .into_iter()
        .unzip();

    print_matrix(
        "Service overload (SPS): family cells",
        &[
            "arr/storm",
            "served",
            "shed/+exp",
            "grp/retr",
            "jrnl/lost",
            "tail",
        ],
        &rows,
    );
    println!("\nevery cell is run threaded twice and sequentially once; all three");
    println!("must match bit-for-bit including shed counts, drain curves and");
    println!("fingerprints; shed rate is gated monotone in arrival rate, group");
    println!("commit must cut journal flushes, and storms must lose nothing");

    let mut report = BenchReport::new("service_overload", quick);
    report.sim("rows", Json::Arr(sim_rows));
    report.host_wall(t0.elapsed());
    report
}
