//! Metric names, units and output formatting.

use std::fmt::Write as _;

use crate::round::Round;
use crate::trace::Kind;

const ENGINES: [&str; 4] = ["undo", "redo", "ssp", "shadow"];

/// End-to-end metrics, in output order.
pub fn e2e_names() -> Vec<String> {
    [
        "txn_per_s",
        "setup_s",
        "peak_rss_mib",
        "sim_access_per_s",
        "ssp_cycles_per_txn",
        "ssp_nvram_writes_per_txn",
        "ssp_txn_p50_cycles",
        "ssp_txn_p99_cycles",
        "sojourn_mean_cycles",
        "goodput_frac",
    ]
    .map(String::from)
    .to_vec()
}

/// Per-layer metrics, in output order.
pub fn layer_names() -> Vec<String> {
    let mut v: Vec<String> = Vec::new();
    for e in ENGINES {
        for op in ["begin", "load", "store", "commit"] {
            v.push(format!("engine.{e}.{op}_ns_per_txn"));
        }
        v.push(format!("engine.{e}.recover_us_per_cut"));
    }
    for e in ENGINES {
        for m in [
            "l1_hits_per_txn",
            "l2_hits_per_txn",
            "l3_hits_per_txn",
            "mem_accesses_per_txn",
            "tlb_misses_per_txn",
            "nvram_reads_per_txn",
            "nvram_writes.data_per_txn",
            "nvram_writes.log_per_txn",
            "nvram_writes.journal_per_txn",
            "nvram_writes.consolidation_per_txn",
            "nvram_writes.checkpoint_per_txn",
            "nvram_writes.page_copy_per_txn",
            "row_hit_frac",
            "cycles_per_txn",
            "txn_p99_cycles",
        ] {
            v.push(format!("sim.{e}.{m}"));
        }
    }
    v.push("sim.ssp.latency_samples".into());
    v.push("workloads.body_self_ns_per_txn".into());
    v.push("runner.driver_self_ns_per_txn".into());
    v.push("oracle.verify_us_per_cut".into());
    v.push("storm.driver_self_us_per_cut".into());
    v.push("storm.cuts_per_s".into());
    for e in ENGINES {
        for m in [
            "commit_frac",
            "kept_frac",
            "recovery_nvram_reads_per_cut",
            "recovery_nvram_writes_per_cut",
        ] {
            v.push(format!("storm.{e}.{m}"));
        }
    }
    for m in [
        "shared.driver_self_ns_per_txn",
        "occ.abort_frac",
        "occ.conflicts_per_txn",
        "occ.cascades_per_txn",
        "occ.backoff_cycles_per_txn",
        "interconnect.bankq_delay_per_txn",
        "interconnect.bankq_stall_per_txn",
        "interconnect.llc_extra_miss_per_txn",
        "interconnect.coh_cross_inval_per_txn",
        "service.driver_self_ns_per_request",
        "service.shed_admission_frac",
        "service.shed_retry_frac",
        "service.expired_frac",
        "service.retried_frac",
        "service.requests_per_group",
        "service.unavailability_cycles_per_cut",
        "service.queue_peak",
        "trace.overhead_frac",
        "trace.wrapped_frac",
    ] {
        v.push(m.into());
    }
    v
}

/// The unit of a metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "peak_rss_mib" => "MiB",
        "interconnect.bankq_delay_per_txn" | "interconnect.bankq_stall_per_txn" => "cycles",
        _ if name.ends_with("_ns_per_txn") || name.ends_with("_ns_per_request") => "ns",
        _ if name.ends_with("_us_per_cut") => "us",
        _ if name.ends_with("_frac") => "frac",
        _ if name.ends_with("_per_s") => "1/s",
        _ if name.ends_with("cycles_per_txn")
            || name.ends_with("_cycles")
            || name.ends_with("cycles_per_cut") =>
        {
            "cycles"
        }
        _ => "count",
    }
}

/// A number as JSON, with every digit of its shortest exact form.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A traced round's self time per span kind, then the drivers' (ns).
/// The entries add up to the round's traced host time.
pub fn self_table(r: &Round) -> Vec<(&'static str, u64)> {
    let mut t: Vec<_> = Kind::ALL
        .iter()
        .map(|&k| (k.name(), r.aggs[k as usize].self_ns))
        .collect();
    t.push(("driver", r.driver_ns));
    t
}

/// Writes a traced round's span sums and counts, its driver self time
/// and its recorded spans as JSON.
pub fn write_trace(path: &str, workload: &str, r: &Round) -> std::io::Result<()> {
    let mut s = String::new();
    let _ = write!(s, "{{\"workload\": \"{workload}\", \"layers\": {{");
    for (i, k) in Kind::ALL.iter().enumerate() {
        let a = r.aggs[*k as usize];
        let _ = write!(
            s,
            "{}\"{}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if i > 0 { ", " } else { "" },
            k.name(),
            a.count,
            a.total_ns,
            a.self_ns
        );
    }
    let _ = write!(
        s,
        "}},\n\"driver_self_ns\": {},\n\"spans\": [\n",
        r.driver_ns
    );
    for (i, (cell, shard, sp)) in r.spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{}{{\"cell\": \"{cell}\", \"shard\": {shard}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"txn\": {}}}",
            if i > 0 { "," } else { "" },
            sp.kind.name(),
            sp.start_ns,
            sp.end_ns,
            sp.txn
        );
    }
    s.push_str("]}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}
