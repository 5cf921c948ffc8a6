//! # ssp-bench — the evaluation harness
//!
//! One `harness = false` bench target per table and figure of the paper's
//! Section 5, so `cargo bench --workspace` regenerates the whole
//! evaluation. This library holds the shared plumbing: engine and workload
//! factories, the run matrix, and plain-text table/series printers.

#![warn(missing_docs)]

pub mod gates;
pub mod json;
pub mod matrix;
pub mod report;
pub mod targets;
pub mod trace;

pub use matrix::{AnyEngine, CellDriver, CellOut, CellSpec, MatrixRunner};
pub use report::{
    cell_json, diff_reports, hist_json, latency_json, latency_section, BenchReport, DiffReport,
    LATENCY_COLUMNS, SCHEMA_VERSION,
};
pub use ssp_simulator::obs::{LatencyStats, ObsConfig};

use ssp_baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp_core::engine::Ssp;
pub use ssp_core::SspConfig;
use ssp_simulator::config::MachineConfig;
use ssp_txn::engine::TxnEngine;
pub use ssp_workloads::runner::{ExecMode, ParallelRun, RunConfig, RunResult, Workload};

use ssp_workloads::{
    BTreeWorkload, HashWorkload, KeyDist, MemcachedWorkload, RbTreeWorkload, Sps, VacationWorkload,
};

/// The engines under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Hardware undo logging.
    Undo,
    /// Hardware redo logging (DHTM-like).
    Redo,
    /// Shadow Sub-Paging.
    Ssp,
    /// Conventional page-granularity shadow paging (ablation).
    Shadow,
}

impl EngineKind {
    /// The three designs compared throughout Section 5.
    pub const PAPER: [EngineKind; 3] = [EngineKind::Undo, EngineKind::Redo, EngineKind::Ssp];

    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Undo => "UNDO-LOG",
            EngineKind::Redo => "REDO-LOG",
            EngineKind::Ssp => "SSP",
            EngineKind::Shadow => "SHADOW",
        }
    }
}

/// A boxed engine (the factories erase the concrete type).
pub type BoxedEngine = Box<dyn TxnEngine>;

/// Builds an engine over `cfg` (SSP additionally takes `ssp_cfg`).
pub fn make_engine(kind: EngineKind, cfg: &MachineConfig, ssp_cfg: &SspConfig) -> BoxedEngine {
    match kind {
        EngineKind::Undo => Box::new(UndoLog::new(cfg.clone())),
        EngineKind::Redo => Box::new(RedoLog::new(cfg.clone())),
        EngineKind::Ssp => Box::new(Ssp::new(cfg.clone(), ssp_cfg.clone())),
        EngineKind::Shadow => Box::new(ShadowPaging::new(cfg.clone())),
    }
}

/// The nine evaluated workloads (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// B+-tree, uniform keys.
    BTreeRand,
    /// Red-black tree, uniform keys.
    RbTreeRand,
    /// Hashtable, uniform keys.
    HashRand,
    /// Array swaps.
    Sps,
    /// B+-tree, zipfian keys.
    BTreeZipf,
    /// Red-black tree, zipfian keys.
    RbTreeZipf,
    /// Hashtable, zipfian keys.
    HashZipf,
    /// Memcached-like KV cache, memslap mix.
    Memcached,
    /// Vacation-like OLTP emulation.
    Vacation,
}

impl WorkloadKind {
    /// The seven microbenchmarks of Figures 5–7.
    pub const MICRO: [WorkloadKind; 7] = [
        WorkloadKind::BTreeRand,
        WorkloadKind::RbTreeRand,
        WorkloadKind::HashRand,
        WorkloadKind::Sps,
        WorkloadKind::BTreeZipf,
        WorkloadKind::RbTreeZipf,
        WorkloadKind::HashZipf,
    ];

    /// The two real workloads of Tables 4 and 5.
    pub const REAL: [WorkloadKind; 2] = [WorkloadKind::Memcached, WorkloadKind::Vacation];

    /// All nine workloads.
    pub const ALL: [WorkloadKind; 9] = [
        WorkloadKind::BTreeRand,
        WorkloadKind::RbTreeRand,
        WorkloadKind::HashRand,
        WorkloadKind::Sps,
        WorkloadKind::BTreeZipf,
        WorkloadKind::RbTreeZipf,
        WorkloadKind::HashZipf,
        WorkloadKind::Memcached,
        WorkloadKind::Vacation,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::BTreeRand => "BTree-Rand",
            WorkloadKind::RbTreeRand => "RBTree-Rand",
            WorkloadKind::HashRand => "Hash-Rand",
            WorkloadKind::Sps => "SPS",
            WorkloadKind::BTreeZipf => "BTree-Zipf",
            WorkloadKind::RbTreeZipf => "RBTree-Zipf",
            WorkloadKind::HashZipf => "Hash-Zipf",
            WorkloadKind::Memcached => "Memcached",
            WorkloadKind::Vacation => "Vacation",
        }
    }
}

/// Benchmark scale: key-space sizes chosen so the working set far exceeds
/// the 64-entry DTLB (consolidation pressure) while keeping simulation
/// time reasonable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Key-space size for the tree/hash microbenchmarks.
    pub keys: u64,
    /// Pre-loaded pairs.
    pub initial: u64,
    /// SPS array elements.
    pub sps_elems: u64,
    /// KV-cache capacity.
    pub kv_capacity: u64,
    /// Vacation rows per table.
    pub vacation_rows: u64,
}

impl Scale {
    /// The default evaluation scale.
    pub const DEFAULT: Scale = Scale {
        keys: 16_384,
        initial: 8_192,
        sps_elems: 65_536,
        kv_capacity: 4_096,
        vacation_rows: 2_048,
    };

    /// A small scale for smoke tests.
    pub const SMOKE: Scale = Scale {
        keys: 512,
        initial: 256,
        sps_elems: 1_024,
        kv_capacity: 128,
        vacation_rows: 128,
    };

    /// The per-worker share of this scale for a `threads`-way sharded run:
    /// each worker operates its own partition of the total working set, so
    /// the summed footprint stays constant as the thread count grows (the
    /// paper's fixed-size multi-threaded setup).
    pub fn per_shard(self, threads: usize) -> Scale {
        let d = |x: u64| (x / threads as u64).max(16);
        Scale {
            keys: d(self.keys),
            initial: d(self.initial),
            sps_elems: d(self.sps_elems),
            kv_capacity: d(self.kv_capacity),
            vacation_rows: d(self.vacation_rows),
        }
    }
}

/// Builds a workload at the given scale.
pub fn make_workload(kind: WorkloadKind, scale: Scale) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::BTreeRand => Box::new(BTreeWorkload::new(
            KeyDist::uniform(scale.keys),
            scale.initial,
        )),
        WorkloadKind::RbTreeRand => Box::new(RbTreeWorkload::new(
            KeyDist::uniform(scale.keys),
            scale.initial,
        )),
        WorkloadKind::HashRand => Box::new(HashWorkload::new(
            KeyDist::uniform(scale.keys),
            scale.initial,
        )),
        WorkloadKind::Sps => Box::new(Sps::new(scale.sps_elems, KeyDist::uniform(scale.sps_elems))),
        WorkloadKind::BTreeZipf => Box::new(BTreeWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.initial,
        )),
        WorkloadKind::RbTreeZipf => Box::new(RbTreeWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.initial,
        )),
        WorkloadKind::HashZipf => Box::new(HashWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.initial,
        )),
        WorkloadKind::Memcached => Box::new(MemcachedWorkload::new(
            KeyDist::paper_zipf(scale.keys),
            scale.kv_capacity,
        )),
        WorkloadKind::Vacation => Box::new(VacationWorkload::new(scale.vacation_rows, 4)),
    }
}

/// Whether quick (smoke-scale) mode is on: `SSP_BENCH_QUICK` set to
/// anything but the empty string or `0`.
pub fn quick_mode() -> bool {
    quick_flag(std::env::var("SSP_BENCH_QUICK").ok().as_deref())
}

fn quick_flag(value: Option<&str>) -> bool {
    !matches!(value, None | Some("" | "0"))
}

/// Selects run parameters and scale from the environment: 4,000 measured
/// transactions after 500 warm-up ones at [`Scale::DEFAULT`], or a tenth of
/// that at [`Scale::SMOKE`] in quick mode (CI smoke runs).
pub fn env_setup(threads: usize) -> (RunConfig, Scale) {
    let quick = quick_mode();
    let run_cfg = RunConfig {
        txns: if quick { 400 } else { 4_000 },
        warmup: if quick { 50 } else { 500 },
        threads,
        seed: 0x55d0_2019,
        mode: ExecMode::Threaded,
    };
    (run_cfg, if quick { Scale::SMOKE } else { Scale::DEFAULT })
}

/// The one determinism check for cells driven outside [`MatrixRunner`]:
/// runs `cell` threaded, threaded again, then sequentially, asserts the
/// projection `key` is equal across the three runs (threaded == repeat ==
/// sequential, bit for bit) and returns the first threaded run.
pub fn agree<R, K: PartialEq + std::fmt::Debug>(
    label: &str,
    cell: impl Fn(ExecMode) -> R,
    key: impl Fn(&R) -> K,
) -> R {
    let first = cell(ExecMode::Threaded);
    let expected = key(&first);
    for (what, mode) in [
        ("threaded repeat", ExecMode::Threaded),
        ("sequential run", ExecMode::Sequential),
    ] {
        assert_eq!(
            key(&cell(mode)),
            expected,
            "{label}: {what} diverged from the first threaded run"
        );
    }
    first
}

/// Prints a table: rows = workloads, columns = engines, formatted values.
pub fn print_matrix(title: &str, columns: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n== {title} ==");
    print!("{:<14}", "");
    for c in columns {
        print!("{c:>14}");
    }
    println!();
    for (name, cells) in rows {
        print!("{name:<14}");
        for cell in cells {
            print!("{cell:>14}");
        }
        println!();
    }
}

/// Formats a ratio to two decimals.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Prints the per-cell transaction-latency percentile table and attaches
/// the same summaries to `report` under `host.latency` (warn-only in
/// `bench_diff` — see [`latency_json`]).
pub fn attach_latency(report: &mut BenchReport, title: &str, rows: &[(String, LatencyStats)]) {
    if rows.is_empty() {
        return;
    }
    let (obj, table) = latency_section(rows);
    report.host("latency", obj);
    print_matrix(title, &LATENCY_COLUMNS, &table);
}

/// Labelled latency rows for a spec/result grid, one per cell. The index
/// prefix keeps labels unique when a sweep repeats (engine, workload,
/// threads) tuples with different machine or engine configs.
pub fn latency_rows<'a>(
    specs: &[CellSpec],
    results: impl IntoIterator<Item = &'a RunResult>,
) -> Vec<(String, LatencyStats)> {
    specs
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (s, r))| {
            (
                format!(
                    "{i:02}:{}/{}/x{}",
                    s.engine.name(),
                    s.workload.name(),
                    s.run_cfg.threads
                ),
                r.latency.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(
        engines: &[EngineKind],
        workloads: &[WorkloadKind],
        run_cfg: &RunConfig,
    ) -> Vec<RunResult> {
        let cfg = MachineConfig::default().with_cores(1);
        let ssp_cfg = SspConfig::default();
        let mut specs = Vec::new();
        for &e in engines {
            for &w in workloads {
                specs.push(CellSpec::new(e, w, &cfg, &ssp_cfg, Scale::SMOKE, run_cfg));
            }
        }
        MatrixRunner::with_pool(2).run(&specs)
    }

    #[test]
    fn factories_produce_every_cell() {
        let run_cfg = RunConfig {
            txns: 20,
            warmup: 5,
            threads: 1,
            seed: 1,
            mode: ExecMode::Threaded,
        };
        for r in cells(&EngineKind::PAPER, &[WorkloadKind::Sps], &run_cfg) {
            assert_eq!(r.txn_stats.committed, 20, "{}", r.engine);
            assert!(r.tps > 0.0);
        }
    }

    #[test]
    fn all_workloads_run_under_ssp() {
        let run_cfg = RunConfig {
            txns: 10,
            warmup: 2,
            threads: 1,
            seed: 2,
            mode: ExecMode::Threaded,
        };
        for r in cells(&[EngineKind::Ssp], &WorkloadKind::ALL, &run_cfg) {
            assert_eq!(r.txn_stats.committed, 10, "{}", r.workload);
        }
    }

    #[test]
    fn quick_flag_treats_unset_empty_and_zero_as_off() {
        assert!(!quick_flag(None));
        assert!(!quick_flag(Some("")));
        assert!(!quick_flag(Some("0")));
        assert!(quick_flag(Some("1")));
        assert!(quick_flag(Some("yes")));
    }

    #[test]
    #[should_panic(expected = "sequential run diverged")]
    fn agree_catches_a_mode_dependent_cell() {
        agree("unit", |mode| mode == ExecMode::Sequential, |&r| r);
    }

    #[test]
    fn engine_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            EngineKind::PAPER.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
