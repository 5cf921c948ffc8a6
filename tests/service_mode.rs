//! The determinism contract of service mode: an always-on open-loop
//! front end with admission control, deadlines, retries, group commit
//! and scheduled power cuts must be *bit-identical* across
//! [`ExecMode::Threaded`], the sequential reference, and repeated runs —
//! served/shed/expired/retried counters, latency histograms, drain
//! curves and NVRAM fingerprints included — for every engine.
//!
//! Also covered: exact accounting conservation under overload
//! (`arrivals == served + shed + expired + in_queue` at drain) and the
//! zero-loss recovery-under-fire contract (storms trip mid-service, the
//! outage is visible as a non-zero unavailability window, and no
//! committed request is ever lost).
//!
//! The per-engine threaded == sequential == repeats cases honor
//! `SSP_TEST_THREADS` (the CI matrix sets 1/2/4/8) and default to 2
//! workers.

mod common;

use common::DropCommit;
use ssp::baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::config::MachineConfig;
use ssp::txn::engine::TxnEngine;
use ssp::workloads::runner::{ExecMode, RunConfig};
use ssp::workloads::service::{run_service, AdmissionPolicy, ServiceConfig, ServiceRun};
use ssp::workloads::storm::StormSchedule;
use ssp::workloads::{KeyDist, Sps};
use ssp::SspConfig;

const REPEATS: usize = 5;
const THREADS: usize = 2;

/// Worker count of the per-engine equivalence cases.
fn threads() -> usize {
    std::env::var("SSP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(THREADS)
}

fn cfg(mode: ExecMode, threads: usize) -> RunConfig {
    RunConfig {
        txns: 160,
        warmup: 16,
        threads,
        seed: 0x5EA7_1CE5,
        mode,
    }
}

fn service_run<E: TxnEngine>(
    mk: &(impl Fn(MachineConfig) -> E + Sync),
    mode: ExecMode,
    svc: &ServiceConfig,
) -> ServiceRun<E> {
    service_run_n(mk, mode, svc, THREADS)
}

fn service_run_n<E: TxnEngine>(
    mk: &(impl Fn(MachineConfig) -> E + Sync),
    mode: ExecMode,
    svc: &ServiceConfig,
    threads: usize,
) -> ServiceRun<E> {
    let shard = MachineConfig::default().shard_slice(threads);
    run_service(
        move |_| mk(shard.clone()),
        |_| Sps::new(512, KeyDist::uniform(512)),
        &cfg(mode, threads),
        svc,
    )
}

fn assert_runs_match<E: TxnEngine>(a: &ServiceRun<E>, b: &ServiceRun<E>, what: &str) {
    assert_eq!(a.result, b.result, "{what}: merged counters diverged");
    assert_eq!(a.service, b.service, "{what}: service counters diverged");
    for (x, y) in a.shards.iter().zip(&b.shards) {
        assert_eq!(x.service, y.service, "{what}: shard {} service", x.worker);
        assert_eq!(x.latency, y.latency, "{what}: shard {} latency", x.worker);
        assert_eq!(x.curve, y.curve, "{what}: shard {} drain curve", x.worker);
        assert_eq!(
            x.fingerprint, y.fingerprint,
            "{what}: shard {} NVRAM fingerprint",
            x.worker
        );
        assert_eq!(
            x.elapsed_cycles, y.elapsed_cycles,
            "{what}: shard {} simulated cycles",
            x.worker
        );
    }
}

/// Threaded == sequential reference == `REPEATS` threaded runs, with a
/// moderately loaded front end (some queueing, group commit on).
fn assert_engine_equivalence<E: TxnEngine>(mk: impl Fn(MachineConfig) -> E + Sync) {
    let svc = ServiceConfig {
        period_cycles: 600,
        ..ServiceConfig::default()
    };
    let n = threads();
    let reference = service_run_n(&mk, ExecMode::Sequential, &svc, n);
    assert!(reference.service.conserves(), "{:?}", reference.service);
    for rep in 0..REPEATS {
        let threaded = service_run_n(&mk, ExecMode::Threaded, &svc, n);
        assert_runs_match(&threaded, &reference, &format!("rep {rep}"));
    }
}

#[test]
fn ssp_service_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(|cfg| Ssp::new(cfg, SspConfig::default()));
}

#[test]
fn undo_service_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(UndoLog::new);
}

#[test]
fn redo_service_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(RedoLog::new);
}

#[test]
fn shadow_service_threaded_equals_sequential_and_repeats() {
    assert_engine_equivalence(ShadowPaging::new);
}

/// Under real overload (hot arrivals, small queue, tight deadline) the
/// front end must shed — and the accounting must still conserve exactly
/// at drain: arrivals == served + shed + expired + in_queue, with
/// in_queue == 0 once drained and shed split exactly into its admission
/// and retry components.
#[test]
fn overload_sheds_and_conserves_exactly() {
    let svc = ServiceConfig {
        period_cycles: 40,
        queue_capacity: 8,
        deadline_cycles: 4_000,
        group: 1,
        ..ServiceConfig::default()
    };
    let run = service_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        &svc,
    );
    let s = run.service;
    assert!(s.shed > 0, "an overloaded front end must shed: {s:?}");
    assert!(s.conserves(), "accounting must conserve: {s:?}");
    assert_eq!(s.in_queue, 0, "the run must drain: {s:?}");
    assert_eq!(
        s.shed,
        s.shed_admission + s.shed_retry,
        "shed must split exactly: {s:?}"
    );
    assert_eq!(s.arrivals, 160, "open-loop arrivals are fixed by config");
    // The sequential reference sheds identically.
    let seq = service_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Sequential,
        &svc,
    );
    assert_runs_match(&run, &seq, "overload");
}

/// Deadline-aware shedding refuses work it cannot finish in time; the
/// depth-threshold policy caps the queue below its configured threshold.
#[test]
fn admission_policies_bound_the_queue() {
    let svc = ServiceConfig {
        period_cycles: 150,
        queue_capacity: 32,
        deadline_cycles: 20_000,
        admission: AdmissionPolicy::Backpressure { threshold: 16 },
        group: 1,
        ..ServiceConfig::default()
    };
    let run = service_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        &svc,
    );
    let s = run.service;
    assert!(s.conserves(), "{s:?}");
    assert!(
        s.queue_peak <= 16,
        "backpressure must cap the queue at its threshold: {s:?}"
    );
    assert!(s.shed > 0, "a capped queue under overload must shed: {s:?}");
}

/// Recovery-under-fire: power cuts land on a periodic schedule while
/// the open-loop generator keeps producing arrivals. Storms must trip,
/// the outage must be visible as a non-zero unavailability window,
/// accounting must conserve — and no committed request may be lost.
/// The whole dance stays bit-identical threaded == sequential.
fn assert_recovery_under_fire<E: TxnEngine>(mk: impl Fn(MachineConfig) -> E + Sync) {
    let svc = ServiceConfig {
        period_cycles: 600,
        storm: Some(StormSchedule::every_cycles(30_000)),
        ..ServiceConfig::default()
    };
    let threaded = service_run(&mk, ExecMode::Threaded, &svc);
    let s = threaded.service;
    assert!(s.storms > 0, "the schedule never tripped: {s:?}");
    assert!(
        s.unavailability_cycles > 0,
        "recovery must cost a visible outage window: {s:?}"
    );
    assert_eq!(s.lost, 0, "zero-loss violated under fire: {s:?}");
    assert!(s.conserves(), "accounting must conserve under fire: {s:?}");
    let sequential = service_run(&mk, ExecMode::Sequential, &svc);
    assert_runs_match(&threaded, &sequential, "under fire");
}

#[test]
fn ssp_recovery_under_fire_loses_nothing() {
    assert_recovery_under_fire(|cfg| Ssp::new(cfg, SspConfig::default()));
}

#[test]
fn undo_recovery_under_fire_loses_nothing() {
    assert_recovery_under_fire(UndoLog::new);
}

#[test]
fn redo_recovery_under_fire_loses_nothing() {
    assert_recovery_under_fire(RedoLog::new);
}

#[test]
fn shadow_recovery_under_fire_loses_nothing() {
    assert_recovery_under_fire(ShadowPaging::new);
}

/// Group commit amortizes the journal: batching 8 requests per engine
/// transaction must flush fewer groups *and* write less journal traffic
/// than one-request-per-transaction at the same arrival rate.
#[test]
fn group_commit_amortizes_journal_traffic() {
    let mk = |group| ServiceConfig {
        period_cycles: 600,
        group,
        ..ServiceConfig::default()
    };
    let single = service_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        &mk(1),
    );
    let batched = service_run(
        &|cfg| Ssp::new(cfg, SspConfig::default()),
        ExecMode::Threaded,
        &mk(8),
    );
    assert!(
        batched.service.groups < single.service.groups,
        "batching must issue fewer group commits: {} vs {}",
        batched.service.groups,
        single.service.groups
    );
    assert!(
        batched.result.logging_writes() < single.result.logging_writes(),
        "group commit must amortize journal flushes: {} vs {}",
        batched.result.logging_writes(),
        single.result.logging_writes()
    );
}

/// Mutation check of the oracle: an engine that silently turns its 40th
/// commit (a group commit) into an abort loses requests the front end
/// saw served, and service mode must report it; the same run over the
/// honest engine loses nothing.
#[test]
fn a_dropped_group_commit_is_reported_as_lost() {
    let svc = ServiceConfig {
        period_cycles: 600,
        storm: Some(StormSchedule::every_cycles(30_000)),
        ..ServiceConfig::default()
    };
    let lost = |nth: Option<u64>| {
        let mk = |cfg| DropCommit::new(Ssp::new(cfg, SspConfig::default()), nth);
        service_run(&mk, ExecMode::Threaded, &svc).service.lost
    };
    assert!(lost(Some(40)) > 0, "the oracle missed a dropped commit");
    assert_eq!(lost(None), 0);
}
