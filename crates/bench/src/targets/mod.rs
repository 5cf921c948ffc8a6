//! The ported bench targets: every figure/table of the paper's Section 5
//! as a library function over one shared [`MatrixRunner`].
//!
//! Each target builds its cell grid, hands it to the runner (pooled
//! across host threads, deduplicated against cells other targets already
//! ran), prints the same plain-text tables the standalone bench binaries
//! always printed, and returns a [`BenchReport`] for the unified
//! `BENCH_<name>.json` pipeline. The thin `benches/*.rs` wrappers call
//! exactly one of these; the `bench_all` binary calls them all against a
//! single runner so warm engines and memoized cells flow across targets.

use crate::{BenchReport, MatrixRunner};

pub mod ablations;
pub mod crash_storm;
pub mod fig5;
pub mod fig5b;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod recovery;
pub mod scaling;
pub mod service_overload;
pub mod shared_conflicts;
pub mod table3;
pub mod table4;

/// Order-dependent fold of per-shard NVRAM fingerprints into one cell
/// fingerprint.
fn fold_fingerprints(shards: impl IntoIterator<Item = u64>) -> u64 {
    shards
        .into_iter()
        .fold(0u64, |acc, f| acc.rotate_left(17) ^ f)
}

/// Runs every ported target against `runner` and writes each report
/// (which checks its [`crate::gates`]). Returns the reports in run order.
pub fn run_all(runner: &MatrixRunner) -> Vec<BenchReport> {
    let targets: [fn(&MatrixRunner) -> BenchReport; 14] = [
        fig5::run,
        fig6::run,
        fig7::run,
        fig8::run,
        fig9::run,
        table3::run,
        table4::run,
        fig5b::run,
        ablations::run,
        scaling::run,
        recovery::run,
        crash_storm::run,
        shared_conflicts::run,
        service_overload::run,
    ];
    targets
        .iter()
        .map(|target| {
            let report = target(runner);
            report.write();
            report
        })
        .collect()
}
