//! The matrix runner's determinism contract: pooled execution over any
//! number of host threads, with the engine cache and result memo on or
//! off, is **bit-identical** to per-cell sequential execution with cold
//! engines — merged counters and per-shard NVRAM fingerprints included.
//! The same discipline `tests/threaded_equivalence.rs` applies to shards
//! within one cell, lifted to whole cells within one matrix.

use ssp_bench::{
    make_engine, make_workload, CellSpec, EngineKind, MatrixRunner, Scale, SspConfig, WorkloadKind,
};
use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;
use ssp_workloads::runner::{run, run_parallel, ExecMode, RunConfig, RunResult};

fn run_cfg(threads: usize, mode: ExecMode) -> RunConfig {
    RunConfig {
        txns: 60,
        warmup: 12,
        threads,
        seed: 0x2019,
        mode,
    }
}

/// A grid covering both drivers, all thread counts under test, duplicate
/// cells (memo pressure) and warm-prefix sharing (engine-cache pressure).
fn grid(mode: ExecMode) -> Vec<CellSpec> {
    let cfg = MachineConfig::default().with_cores(4);
    let ssp = SspConfig::default();
    let mut specs = Vec::new();
    for ekind in [EngineKind::Ssp, EngineKind::Undo, EngineKind::Redo] {
        for threads in [1usize, 2, 4] {
            for wkind in [WorkloadKind::Sps, WorkloadKind::BTreeZipf] {
                specs.push(CellSpec::new(
                    ekind,
                    wkind,
                    &cfg,
                    &ssp,
                    Scale::SMOKE,
                    &run_cfg(threads, mode),
                ));
            }
        }
    }
    // Duplicates exercise the result memo; a shared-machine cell and a
    // forced-sharded one cover the remaining drivers.
    specs.push(specs[0].clone());
    specs.push(specs[7].clone());
    specs.push(
        CellSpec::new(
            EngineKind::Ssp,
            WorkloadKind::Memcached,
            &cfg,
            &ssp,
            Scale::SMOKE,
            &run_cfg(4, mode),
        )
        .shared_machine(),
    );
    specs.push(
        CellSpec::new(
            EngineKind::Undo,
            WorkloadKind::Sps,
            &cfg.shard_slice(4),
            &ssp,
            Scale::SMOKE,
            &run_cfg(1, mode),
        )
        .sharded(),
    );
    specs
}

/// The reference: every cell cold, sequential, on the calling thread.
fn reference(specs: &[CellSpec]) -> Vec<RunResult> {
    let cold = MatrixRunner::with_pool(1).without_cache();
    cold.run(specs)
}

#[test]
fn pooled_cached_matches_cold_sequential() {
    let specs = grid(ExecMode::Threaded);
    let expected = reference(&specs);
    for pool in [1usize, 2, 4] {
        let runner = MatrixRunner::with_pool(pool);
        let got = runner.run(&specs);
        assert_eq!(got, expected, "pool={pool} cached");
        // Same runner again: now everything is memoized.
        let again = runner.run(&specs);
        assert_eq!(again, expected, "pool={pool} memoized");
    }
}

#[test]
fn pooled_uncached_matches_cold_sequential() {
    let specs = grid(ExecMode::Threaded);
    let expected = reference(&specs);
    let runner = MatrixRunner::with_pool(4).without_cache();
    assert_eq!(runner.run(&specs), expected, "pool=4 uncached");
}

#[test]
fn sequential_exec_mode_matches_threaded() {
    // ExecMode is a per-cell knob: the sharded driver's sequential
    // reference schedule must produce the identical results through the
    // matrix runner too.
    let threaded = MatrixRunner::with_pool(2).run(&grid(ExecMode::Threaded));
    let sequential = MatrixRunner::with_pool(1)
        .without_cache()
        .run(&grid(ExecMode::Sequential));
    assert_eq!(threaded, sequential);
}

#[test]
fn warm_restored_engines_match_cold_engines_bitwise() {
    // Two identical run_full batches: the second restores warm snapshots
    // where the first warmed cold (within-batch duplicates). Results AND
    // per-shard NVRAM fingerprints must be bit-identical.
    let cfg = MachineConfig::default().with_cores(4);
    let ssp = SspConfig::default();
    let mut specs = Vec::new();
    for threads in [1usize, 2, 4] {
        // Same warm prefix per thread count, twice: the duplicate's warm
        // state is a restored clone of the first's snapshot.
        for _rep in 0..2 {
            specs.push(CellSpec::new(
                EngineKind::Ssp,
                WorkloadKind::Sps,
                &cfg,
                &ssp,
                Scale::SMOKE,
                &run_cfg(threads, ExecMode::Threaded),
            ));
        }
    }
    let cached = MatrixRunner::with_pool(1);
    let cold = MatrixRunner::with_pool(1).without_cache();
    let warm_outs = cached.run_full(&specs);
    let cold_outs = cold.run_full(&specs);
    let (_, warm_hits, _) = cached.cache_stats();
    assert!(warm_hits >= 3, "each duplicate restores a snapshot");
    let (_, cold_hits, _) = cold.cache_stats();
    assert_eq!(cold_hits, 0);

    for (i, (w, c)) in warm_outs.iter().zip(&cold_outs).enumerate() {
        assert_eq!(w.result, c.result, "cell {i}");
        assert_eq!(w.engines.len(), c.engines.len(), "cell {i}");
        for (shard, (we, ce)) in w.engines.iter().zip(&c.engines).enumerate() {
            assert_eq!(
                we.machine().nvram_fingerprint(),
                ce.machine().nvram_fingerprint(),
                "cell {i} shard {shard}: persistent state must not depend on warm reuse"
            );
            assert_eq!(we.txn_stats(), ce.txn_stats(), "cell {i} shard {shard}");
        }
    }
}

/// An auto-routed cell driven straight through the `ssp-workloads`
/// drivers, bypassing `MatrixRunner`: `threads > 1` or an enabled
/// interconnect runs the sharded driver over per-worker machine slices and
/// per-shard scales, anything else the single-machine driver.
fn direct_driver_call(spec: &CellSpec) -> RunResult {
    let rc = &spec.run_cfg;
    if rc.threads > 1 || spec.cfg.interconnect.enabled {
        let scale = if rc.threads > 1 {
            spec.scale.per_shard(rc.threads)
        } else {
            spec.scale
        };
        let cfgs: Vec<MachineConfig> = (0..rc.threads)
            .map(|w| spec.cfg.shard_slice_for(rc.threads, w))
            .collect();
        return run_parallel(
            |w| make_engine(spec.engine, &cfgs[w], &spec.ssp_cfg),
            |_w| make_workload(spec.workload, scale),
            rc,
        )
        .result;
    }
    let mut engine = make_engine(spec.engine, &spec.cfg, &spec.ssp_cfg);
    run(
        &mut engine,
        make_workload(spec.workload, spec.scale).as_mut(),
        rc,
    )
}

#[test]
fn matrix_cells_match_direct_driver_calls() {
    // The runner's routing must reproduce direct driver calls exactly for
    // auto-routed cells — the figures may not shift.
    let cfg = MachineConfig::default().with_cores(2);
    let ssp = SspConfig::default();
    let mut specs = Vec::new();
    for ekind in EngineKind::PAPER {
        for threads in [1usize, 2] {
            specs.push(CellSpec::new(
                ekind,
                WorkloadKind::HashRand,
                &cfg,
                &ssp,
                Scale::SMOKE,
                &run_cfg(threads, ExecMode::Threaded),
            ));
        }
    }
    let results = MatrixRunner::with_pool(2).run(&specs);
    for (spec, got) in specs.iter().zip(&results) {
        let direct = direct_driver_call(spec);
        assert_eq!(got, &direct, "{:?}/{:?}", spec.engine, spec.workload);
    }
}

#[test]
fn warm_reuse_across_different_measured_lengths() {
    // The warm key deliberately excludes the measured transaction count:
    // one warm snapshot must serve cells that differ only in measured
    // length — and each must still run ITS OWN count, not the donor's.
    let cfg = MachineConfig::default().with_cores(4);
    let ssp = SspConfig::default();
    let mut specs = Vec::new();
    for threads in [1usize, 4] {
        for txns in [24u64, 96] {
            specs.push(CellSpec::new(
                EngineKind::Ssp,
                WorkloadKind::Sps,
                &cfg,
                &ssp,
                Scale::SMOKE,
                &RunConfig {
                    txns,
                    ..run_cfg(threads, ExecMode::Threaded)
                },
            ));
        }
    }
    let cached = MatrixRunner::with_pool(1);
    let got = cached.run(&specs);
    let (_, warm_hits, _) = cached.cache_stats();
    assert!(warm_hits >= 2, "each txns variant restores its warm twin");
    let expected = reference(&specs);
    for (spec, (g, e)) in specs.iter().zip(got.iter().zip(&expected)) {
        assert_eq!(g.txn_stats.committed, spec.run_cfg.txns, "own count runs");
        assert_eq!(
            g, e,
            "threads={} txns={}",
            spec.run_cfg.threads, spec.run_cfg.txns
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let specs = grid(ExecMode::Threaded);
    let a = MatrixRunner::with_pool(3).run(&specs);
    let b = MatrixRunner::with_pool(3).run(&specs);
    assert_eq!(a, b);
}
