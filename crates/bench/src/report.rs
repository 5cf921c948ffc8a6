//! The unified `BENCH_<name>.json` pipeline: every bench target emits one
//! schema-versioned report, and [`diff_reports`] is the exact oracle the
//! CI perf-regression gate (`bench_diff`) runs over them.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "fig6_logging_writes",
//!   "quick": true,
//!   "sim":  { ... },
//!   "host": { ... }
//! }
//! ```
//!
//! Everything under `"sim"` is **deterministic simulated state** (cycle
//! counters, NVRAM write classes, transaction statistics): the same
//! binary at the same quick/full mode produces byte-identical `sim`
//! sections on every host, so the gate compares them *exactly* — any
//! deviation is a perf or counter regression, not noise. Everything under
//! `"host"` is wall-clock measurement of the real machine and is
//! compared warn-only (drift > [`HOST_DRIFT_WARN`] is reported but never
//! fails the gate).

use std::path::PathBuf;
use std::time::Duration;

use crate::json::Json;
use ssp_simulator::obs::{LatencyHistogram, LatencyStats};
use ssp_workloads::runner::RunResult;

/// Version of the `BENCH_*.json` schema this emitter writes. Bump on any
/// structural change and re-baseline (`benches/baselines/`).
pub const SCHEMA_VERSION: u64 = 1;

/// Host wall-clock drift ratio above which `bench_diff` warns.
pub const HOST_DRIFT_WARN: f64 = 1.2;

/// One bench target's report, accumulated while the target runs and
/// written as `BENCH_<name>.json` when done.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    quick: bool,
    sim: Json,
    host: Json,
}

impl BenchReport {
    /// Starts a report for bench target `name` in quick or full mode.
    pub fn new(name: &str, quick: bool) -> Self {
        Self {
            name: name.to_string(),
            quick,
            sim: Json::obj(),
            host: Json::obj(),
        }
    }

    /// The target name (`BENCH_<name>.json`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a deterministic entry (exact-gated by `bench_diff`).
    pub fn sim(&mut self, key: &str, value: Json) -> &mut Self {
        self.sim.set(key, value);
        self
    }

    /// Appends a host-side entry (warn-only in `bench_diff`).
    pub fn host(&mut self, key: &str, value: Json) -> &mut Self {
        self.host.set(key, value);
        self
    }

    /// Records the target's host wall-clock under the key the gate's
    /// drift warning looks for.
    pub fn host_wall(&mut self, elapsed: Duration) -> &mut Self {
        self.host("wall_ms", Json::F64(elapsed.as_secs_f64() * 1e3))
    }

    /// The full document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("schema_version", Json::U64(SCHEMA_VERSION));
        doc.set("bench", Json::Str(self.name.clone()));
        doc.set("quick", Json::Bool(self.quick));
        doc.set("sim", self.sim.clone());
        doc.set("host", self.host.clone());
        doc
    }

    /// Writes `BENCH_<name>.json` into `$SSP_BENCH_JSON_DIR` (default:
    /// the current directory) and returns the path written. Write errors
    /// are printed, not fatal — a read-only filesystem must not kill a
    /// bench. Then checks the report against its [`crate::gates`] entry
    /// and panics listing every violation, so a bench whose numbers break
    /// a gate fails loudly (with its JSON on disk for inspection).
    pub fn write(&self) -> Option<PathBuf> {
        let dir = std::env::var("SSP_BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
        let path = PathBuf::from(dir).join(format!("BENCH_{}.json", self.name));
        let written = match std::fs::write(&path, self.to_json().render()) {
            Ok(()) => {
                println!("\nwrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("\ncould not write {}: {e}", path.display());
                None
            }
        };
        let violations = crate::gates::check(&self.name, &self.sim);
        assert!(
            violations.is_empty(),
            "BENCH_{}.json breaks its gates:\n  {}",
            self.name,
            violations.join("\n  ")
        );
        written
    }
}

/// The standard per-cell payload: every deterministic counter of one
/// [`RunResult`], so committed baselines gate the full counter surface of
/// a cell, not just its headline number.
pub fn cell_json(threads: usize, r: &RunResult) -> Json {
    use ssp_simulator::stats::WriteClass;
    let mut cell = Json::obj();
    cell.set("engine", Json::Str(r.engine.clone()));
    cell.set("workload", Json::Str(r.workload.clone()));
    cell.set("threads", Json::U64(threads as u64));
    cell.set("txns", Json::U64(r.txns));
    cell.set("elapsed_cycles", Json::U64(r.elapsed_cycles));
    cell.set("tps", Json::F64(r.tps));
    cell.set("committed", Json::U64(r.txn_stats.committed));
    cell.set("aborted", Json::U64(r.txn_stats.aborted));
    cell.set("fallbacks", Json::U64(r.txn_stats.fallbacks));
    cell.set("stores", Json::U64(r.txn_stats.stores));
    cell.set("loads", Json::U64(r.txn_stats.loads));
    cell.set(
        "lines_written_sum",
        Json::U64(r.txn_stats.lines_written_sum),
    );
    cell.set(
        "pages_written_sum",
        Json::U64(r.txn_stats.pages_written_sum),
    );
    cell.set(
        "pages_written_max",
        Json::U64(r.txn_stats.pages_written_max),
    );
    let mut writes = Json::obj();
    for class in WriteClass::ALL {
        writes.set(&class.to_string(), Json::U64(r.stats.nvram_writes(class)));
    }
    cell.set("nvram_writes", writes);
    cell.set("nvram_reads", Json::U64(r.stats.nvram_reads));
    cell.set("dram_writes", Json::U64(r.stats.dram_writes));
    cell.set("dram_reads", Json::U64(r.stats.dram_reads));
    cell.set("tlb_misses", Json::U64(r.stats.tlb_misses));
    cell.set("bankq_delay_cycles", Json::U64(r.stats.bankq_delay_cycles));
    cell.set("bankq_conflicts", Json::U64(r.stats.bankq_conflicts));
    cell.set("bankq_row_hits", Json::U64(r.stats.bankq_row_hits));
    cell.set("bankq_row_misses", Json::U64(r.stats.bankq_row_misses));
    cell
}

/// Percentile summary of one latency histogram: `{count, mean, p50, p95,
/// p99, max}`, all in simulated cycles.
///
/// Latency summaries are emitted under the **`host`** section of the
/// reports. The histograms themselves are deterministic simulated state,
/// but keeping them out of `sim` lets the observability layer land (and
/// evolve) without invalidating every committed baseline; `bench_diff`
/// surfaces them as a warn-only delta table instead.
pub fn hist_json(h: &LatencyHistogram) -> Json {
    let mut o = Json::obj();
    o.set("count", Json::U64(h.count));
    o.set("mean", Json::U64(h.mean()));
    o.set("p50", Json::U64(h.percentile(50)));
    o.set("p95", Json::U64(h.percentile(95)));
    o.set("p99", Json::U64(h.percentile(99)));
    o.set("max", Json::U64(h.max));
    o
}

/// Per-phase latency summary of one run: `{txn, begin, exec, commit}`,
/// each a [`hist_json`] object.
pub fn latency_json(l: &LatencyStats) -> Json {
    let mut o = Json::obj();
    o.set("txn", hist_json(&l.txn));
    o.set("begin", hist_json(&l.begin));
    o.set("exec", hist_json(&l.exec));
    o.set("commit", hist_json(&l.commit));
    o
}

/// Builds the `host.latency` object from labelled per-cell latency stats
/// and the matching printable table rows (columns: p50, p95, p99, max,
/// mean of the whole-transaction histogram, in cycles).
pub fn latency_section(rows: &[(String, LatencyStats)]) -> (Json, Vec<(String, Vec<String>)>) {
    let mut obj = Json::obj();
    let mut table = Vec::with_capacity(rows.len());
    for (label, l) in rows {
        obj.set(label, latency_json(l));
        let t = &l.txn;
        table.push((
            label.clone(),
            vec![
                t.percentile(50).to_string(),
                t.percentile(95).to_string(),
                t.percentile(99).to_string(),
                t.max.to_string(),
                t.mean().to_string(),
            ],
        ));
    }
    (obj, table)
}

/// Column headers matching [`latency_section`]'s table rows.
pub const LATENCY_COLUMNS: [&str; 5] = ["p50", "p95", "p99", "max", "mean"];

/// Outcome of comparing one fresh report against its committed baseline.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Exact mismatches in the gated sections — any entry fails the gate.
    pub mismatches: Vec<String>,
    /// Host-side drift above [`HOST_DRIFT_WARN`] — reported, never fatal.
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// Whether the gate passes (warnings allowed).
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compares a fresh report against its baseline: `schema_version`,
/// `bench`, `quick` and the whole `sim` subtree must match exactly; the
/// `host.wall_ms` ratio beyond [`HOST_DRIFT_WARN`] in either direction
/// becomes a warning.
pub fn diff_reports(baseline: &Json, fresh: &Json) -> DiffReport {
    let mut out = DiffReport::default();
    for key in ["schema_version", "bench", "quick"] {
        diff_value(
            key,
            baseline.get(key).unwrap_or(&Json::Null),
            fresh.get(key).unwrap_or(&Json::Null),
            &mut out.mismatches,
        );
    }
    diff_value(
        "sim",
        baseline.get("sim").unwrap_or(&Json::Null),
        fresh.get("sim").unwrap_or(&Json::Null),
        &mut out.mismatches,
    );

    let wall = |doc: &Json| {
        doc.get("host")
            .and_then(|h| h.get("wall_ms"))
            .and_then(Json::as_f64)
    };
    if let (Some(base), Some(new)) = (wall(baseline), wall(fresh)) {
        if base > 0.0 && new > 0.0 {
            let ratio = new / base;
            if !(1.0 / HOST_DRIFT_WARN..=HOST_DRIFT_WARN).contains(&ratio) {
                out.warnings.push(format!(
                    "host wall-clock drifted {ratio:.2}x (baseline {base:.1} ms, fresh {new:.1} ms) \
                     — warn-only, host timing is outside the determinism contract"
                ));
            }
        }
    }
    out
}

const MAX_MISMATCHES: usize = 50;

fn diff_value(path: &str, base: &Json, fresh: &Json, out: &mut Vec<String>) {
    if out.len() >= MAX_MISMATCHES {
        return;
    }
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            for (k, bv) in b {
                match fresh.get(k) {
                    Some(fv) => diff_value(&format!("{path}.{k}"), bv, fv, out),
                    None => out.push(format!("{path}.{k}: missing from fresh report")),
                }
            }
            for (k, _) in f {
                if base.get(k).is_none() {
                    out.push(format!("{path}.{k}: not in baseline"));
                }
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                out.push(format!(
                    "{path}: length {} in baseline, {} in fresh",
                    b.len(),
                    f.len()
                ));
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                diff_value(&format!("{path}[{i}]"), bv, fv, out);
            }
        }
        (b, f) => {
            if b != f {
                out.push(format!("{path}: baseline {b:?} != fresh {f:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        let mut r = BenchReport::new("unit", true);
        r.sim("cycles", Json::U64(1234));
        r.sim("cells", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        r.host_wall(Duration::from_millis(100));
        r
    }

    #[test]
    fn identical_reports_pass() {
        let d = diff_reports(&report().to_json(), &report().to_json());
        assert!(d.passed());
        assert!(d.warnings.is_empty());
    }

    #[test]
    fn sim_counter_mismatch_fails() {
        let base = report().to_json();
        let mut fresh = report();
        fresh.sim = Json::obj();
        fresh.sim("cycles", Json::U64(1235));
        fresh.sim("cells", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        let d = diff_reports(&base, &fresh.to_json());
        assert!(!d.passed());
        assert!(d.mismatches[0].contains("sim.cycles"), "{:?}", d.mismatches);
    }

    #[test]
    fn host_drift_only_warns() {
        let base = report().to_json();
        let mut fresh = report();
        fresh.host = Json::obj();
        fresh.host_wall(Duration::from_millis(300));
        let d = diff_reports(&base, &fresh.to_json());
        assert!(d.passed());
        assert_eq!(d.warnings.len(), 1);
    }

    #[test]
    fn quick_mode_mismatch_fails() {
        let base = report().to_json();
        let fresh = BenchReport::new("unit", false);
        let d = diff_reports(&base, &fresh.to_json());
        assert!(!d.passed());
    }

    #[test]
    fn array_length_change_fails() {
        let base = report().to_json();
        let mut fresh = BenchReport::new("unit", true);
        fresh.sim("cycles", Json::U64(1234));
        fresh.sim("cells", Json::Arr(vec![Json::U64(1)]));
        fresh.host_wall(Duration::from_millis(100));
        let d = diff_reports(&base, &fresh.to_json());
        assert!(!d.passed());
        assert!(d.mismatches[0].contains("length"));
    }
}
