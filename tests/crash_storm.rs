//! The crash-storm harness end to end: scheduled power cuts under real
//! workload traffic, oracle-verified recovery, and the determinism
//! contract — bit-identical reports across threaded, sequential and
//! repeated runs for a fixed seed + crash schedule.
//!
//! The threaded == sequential cases honor `SSP_TEST_THREADS` (the CI
//! matrix sets 1/2/4/8) and default to 2 workers.

mod common;

use common::DropCommit;
use ssp::baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::config::{InterconnectConfig, MachineConfig};
use ssp::simulator::fault::FaultSite;
use ssp::workloads::runner::{ExecMode, RunConfig};
use ssp::workloads::storm::{run_storm, StormPoint, StormRun, StormSchedule};
use ssp::workloads::{KeyDist, Sps};
use ssp::SspConfig;

const THREADS: usize = 2;

/// Worker count of the threaded == sequential cases.
fn threads() -> usize {
    std::env::var("SSP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(THREADS)
}

fn cfg(mode: ExecMode) -> RunConfig {
    cfg_n(mode, THREADS)
}

fn cfg_n(mode: ExecMode, threads: usize) -> RunConfig {
    RunConfig {
        txns: 160,
        warmup: 0,
        threads,
        seed: 0x5702_2019,
        mode,
    }
}

fn storm_ssp(mode: ExecMode, schedule: &StormSchedule) -> StormRun {
    storm_ssp_n(mode, schedule, THREADS)
}

fn storm_ssp_n(mode: ExecMode, schedule: &StormSchedule, threads: usize) -> StormRun {
    run_storm(
        |_| {
            Ssp::new(
                MachineConfig::default().shard_slice(threads),
                SspConfig::default(),
            )
        },
        |_| Sps::new(256, KeyDist::uniform(256)),
        &cfg_n(mode, threads),
        schedule,
    )
}

/// Storm the same engine many times in a row — including cutting every
/// first recovery short — and require zero data loss throughout.
#[test]
fn repeated_storms_never_lose_committed_data() {
    let schedule = StormSchedule {
        points: vec![StormPoint::AfterCycles(6_000)],
        crash_during_recovery: true,
        rearm: true,
    };
    let run = storm_ssp(ExecMode::Threaded, &schedule);
    let t = run.totals();
    assert!(t.storms >= 4, "want a real storm series, got {t:?}");
    assert_eq!(t.torn_recoveries, t.storms, "every first recovery was cut");
    assert_eq!(t.lost_txns, 0, "{t:?}");
}

/// The determinism contract: threaded == sequential == every repeat,
/// down to each shard's counters and NVRAM fingerprint.
#[test]
fn storm_reports_identical_across_modes_and_repeats() {
    let schedule = StormSchedule {
        points: vec![
            StormPoint::AfterCycles(5_000),
            StormPoint::AtSite {
                site: FaultSite::CommitData,
                hits: 7,
            },
            StormPoint::AtSite {
                site: FaultSite::CommitMark,
                hits: 11,
            },
        ],
        crash_during_recovery: true,
        rearm: true,
    };
    let n = threads();
    let reference = storm_ssp_n(ExecMode::Threaded, &schedule, n);
    assert!(reference.totals().storms > 0);
    for _ in 0..5 {
        let repeat = storm_ssp_n(ExecMode::Threaded, &schedule, n);
        assert_eq!(reference.shards, repeat.shards, "threaded repeat drifted");
    }
    for _ in 0..5 {
        let seq = storm_ssp_n(ExecMode::Sequential, &schedule, n);
        assert_eq!(reference.shards, seq.shards, "sequential run drifted");
    }
}

/// Every engine survives the same periodic storm with zero loss.
#[test]
fn all_engines_survive_a_storm_series() {
    let schedule = StormSchedule::every_cycles(8_000);
    let c = cfg(ExecMode::Threaded);
    let mk_workload = |_| Sps::new(256, KeyDist::uniform(256));
    let mcfg = || MachineConfig::default().shard_slice(THREADS);

    let runs: Vec<(&str, StormRun)> = vec![
        (
            "SSP",
            run_storm(
                |_| Ssp::new(mcfg(), SspConfig::default()),
                mk_workload,
                &c,
                &schedule,
            ),
        ),
        (
            "UNDO",
            run_storm(|_| UndoLog::new(mcfg()), mk_workload, &c, &schedule),
        ),
        (
            "REDO",
            run_storm(|_| RedoLog::new(mcfg()), mk_workload, &c, &schedule),
        ),
        (
            "SHADOW",
            run_storm(|_| ShadowPaging::new(mcfg()), mk_workload, &c, &schedule),
        ),
    ];
    for (name, run) in runs {
        let t = run.totals();
        assert!(t.storms > 0, "{name}: no storm tripped ({t:?})");
        assert_eq!(t.lost_txns, 0, "{name} lost committed data: {t:?}");
    }
}

/// SSP consolidation cut mid-drain: force constant consolidation with a
/// tiny TLB and cut inside the drain.
#[test]
fn ssp_survives_a_cut_during_consolidation() {
    let schedule = StormSchedule {
        points: vec![StormPoint::AtSite {
            site: FaultSite::Consolidation,
            hits: 3,
        }],
        crash_during_recovery: false,
        rearm: true,
    };
    let run = run_storm(
        |_| {
            let mcfg = MachineConfig {
                dtlb_entries: 4,
                ..MachineConfig::default().shard_slice(THREADS)
            };
            Ssp::new(mcfg, SspConfig::default())
        },
        |_| Sps::new(4096, KeyDist::uniform(4096)),
        &cfg(ExecMode::Threaded),
        &schedule,
    );
    let t = run.totals();
    assert!(t.storms > 0, "consolidation cut never tripped: {t:?}");
    assert_eq!(t.lost_txns, 0, "{t:?}");
}

/// Interconnect epoch storms: the whole machine loses power at the same
/// epoch boundary on every shard, recovers, and the run completes with
/// zero loss — identically in both execution modes.
#[test]
fn epoch_boundary_storm_is_machine_wide_and_deterministic() {
    let schedule = StormSchedule {
        points: vec![StormPoint::AtSite {
            site: FaultSite::EpochBoundary,
            hits: 2,
        }],
        crash_during_recovery: false,
        rearm: true,
    };
    let threads = threads();
    let mk_engine = |_| {
        let mut mcfg = MachineConfig::default().shard_slice(threads);
        mcfg.interconnect = InterconnectConfig::shared();
        mcfg.interconnect.epoch_cycles = 10_000;
        Ssp::new(mcfg, SspConfig::default())
    };
    let mk_workload = |_| Sps::new(256, KeyDist::uniform(256));
    let threaded = run_storm(
        mk_engine,
        mk_workload,
        &cfg_n(ExecMode::Threaded, threads),
        &schedule,
    );
    let t = threaded.totals();
    assert!(t.storms > 0, "no epoch cut tripped: {t:?}");
    assert_eq!(
        t.storms % threads as u64,
        0,
        "a cut must take down every shard together: {t:?}"
    );
    assert_eq!(
        t.torn_txns + t.kept_torn_txns,
        0,
        "boundary cuts land between transactions"
    );
    assert_eq!(t.lost_txns, 0, "{t:?}");

    let sequential = run_storm(
        mk_engine,
        mk_workload,
        &cfg_n(ExecMode::Sequential, threads),
        &schedule,
    );
    assert_eq!(
        threaded.shards, sequential.shards,
        "epoch storm modes diverged"
    );
}

/// Epoch storms under the shared-LLC and coherence actors: the epoch
/// merge drains every shard's L3-probe stream and charges shared-LLC
/// capacity misses and cross-shard invalidations, so with a shared LLC
/// far too small for the shards the storm runs slower than under fair
/// banks alone — identically in both execution modes, with zero loss.
#[test]
fn epoch_storm_charges_shared_llc_and_coherence_delay() {
    let schedule = StormSchedule {
        points: vec![StormPoint::AtSite {
            site: FaultSite::EpochBoundary,
            hits: 2,
        }],
        crash_during_recovery: false,
        rearm: true,
    };
    // The cross-shard actors need at least two shards to contend.
    let threads = threads().max(2);
    let storm = |interconnect: InterconnectConfig, mode: ExecMode| {
        run_storm(
            move |_| {
                let mut mcfg = MachineConfig::default().shard_slice(threads);
                mcfg.interconnect = interconnect;
                mcfg.interconnect.epoch_cycles = 10_000;
                mcfg.interconnect.llc_sets = 8;
                mcfg.interconnect.llc_ways = 2;
                Ssp::new(mcfg, SspConfig::default())
            },
            |_| Sps::new(256, KeyDist::uniform(256)),
            &cfg_n(mode, threads),
            &schedule,
        )
    };
    let fair = storm(InterconnectConfig::shared_fair(), ExecMode::Threaded).totals();
    let hierarchy = storm(InterconnectConfig::shared_hierarchy(), ExecMode::Threaded);
    let t = hierarchy.totals();
    assert!(t.storms > 0, "no epoch cut tripped: {t:?}");
    assert_eq!(t.lost_txns, 0, "{t:?}");
    assert!(
        t.elapsed_cycles > fair.elapsed_cycles,
        "shared-LLC/coherence delay never charged: {} vs fair banks alone {}",
        t.elapsed_cycles,
        fair.elapsed_cycles
    );
    let sequential = storm(InterconnectConfig::shared_hierarchy(), ExecMode::Sequential);
    assert_eq!(
        hierarchy.shards, sequential.shards,
        "epoch storm modes diverged"
    );
}

/// After any storm series, the recovered engines keep doing useful work:
/// fingerprints are nonzero and distinct across shards (each shard holds
/// its own data), and recovery did real NVRAM traffic.
#[test]
fn storm_reports_carry_recovery_metrics() {
    let schedule = StormSchedule::every_cycles(6_000);
    let run = storm_ssp(ExecMode::Sequential, &schedule);
    for shard in &run.shards {
        assert!(shard.storms > 0, "{shard:?}");
        assert!(shard.fingerprint != 0, "{shard:?}");
        assert!(
            shard.recovery_nvram_reads + shard.recovery_nvram_writes > 0,
            "{shard:?}"
        );
        assert!(shard.recovery_cycles_est > 0, "{shard:?}");
        assert!(shard.elapsed_cycles > 0, "{shard:?}");
    }
}

/// Mutation check of the oracle: an engine that silently turns its 40th
/// commit into an abort loses a transaction the driver saw commit, and
/// the storm driver must report it; the same run over the honest engine
/// loses nothing.
#[test]
fn a_dropped_commit_is_reported_as_lost() {
    let lost = |nth: Option<u64>| {
        run_storm(
            |_| {
                let mcfg = MachineConfig::default().shard_slice(THREADS);
                DropCommit::new(Ssp::new(mcfg, SspConfig::default()), nth)
            },
            |_| Sps::new(256, KeyDist::uniform(256)),
            &cfg(ExecMode::Threaded),
            &StormSchedule::every_cycles(8_000),
        )
        .totals()
        .lost_txns
    };
    assert!(lost(Some(40)) > 0, "the oracle missed a dropped commit");
    assert_eq!(lost(None), 0);
}
