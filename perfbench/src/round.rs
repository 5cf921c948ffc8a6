//! What one round of a workload measures, and the helpers the four
//! workload modules share to compute it.

use std::time::Instant;

use ssp_bench::EngineKind;
use ssp_simulator::stats::{MachineStats, WriteClass};

use crate::trace::{lock, Agg, Kind, SpanRec, Traces, KINDS};

/// The engines, in report order.
pub const ENGINES: [EngineKind; 4] = [
    EngineKind::Undo,
    EngineKind::Redo,
    EngineKind::Ssp,
    EngineKind::Shadow,
];

/// Short engine name used in metric names.
pub fn short(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Undo => "undo",
        EngineKind::Redo => "redo",
        EngineKind::Ssp => "ssp",
        EngineKind::Shadow => "shadow",
    }
}

/// Worker shards (= host threads) every driver runs.
pub const SHARDS: usize = 2;

/// One round: a complete, fixed-size pass of the workload.
#[derive(Debug, Default)]
pub struct Round {
    /// Host seconds of engine build, workload set-up and warm-up.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub measure_s: f64,
    /// Committed transactions (served requests) in the measured phase.
    pub committed: u64,
    /// Simulated memory accesses (L1+L2+L3 hits + memory) measured.
    pub sim_accesses: u64,
    /// Operations attempted (transactions requested, arrivals).
    pub attempted: u64,
    /// Operations that failed (lost, shed, expired, not committed).
    pub failed: u64,
    /// Output checks that failed, described.
    pub broken: Vec<String>,
    /// Exact end-to-end metrics (simulated; identical for a seed).
    pub exact: Vec<(String, f64)>,
    /// Exact per-layer metrics.
    pub layer_exact: Vec<(String, f64)>,
    /// Host-time per-layer metrics (traced rounds only).
    pub layer_host: Vec<(String, f64)>,
    /// Run-phase span sums per kind (traced rounds only).
    pub aggs: [Agg; KINDS],
    /// Driver self time: run-phase host time of the shard threads not
    /// inside any span, ns (traced rounds only).
    pub driver_ns: u64,
    /// Recorded spans (cell label, shard, span), traced rounds only.
    pub spans: Vec<(String, usize, SpanRec)>,
}

impl Round {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    /// Adds one driver call's span sums and driver self time.
    pub fn absorb(&mut self, aggs: &[Agg; KINDS], driver_ns: u64) {
        for (a, b) in self.aggs.iter_mut().zip(aggs) {
            a.add(b);
        }
        self.driver_ns += driver_ns;
    }

    /// Keeps the recorded span prefix of one driver call for the trace
    /// file, up to [`ROUND_SPANS`] per round.
    pub fn keep_spans(&mut self, cell: &str, traces: &Traces) {
        for (w, shard) in traces.shards.iter().enumerate() {
            let t = lock(shard);
            let room = ROUND_SPANS.saturating_sub(self.spans.len());
            self.spans.extend(
                t.prefix
                    .iter()
                    .take(room)
                    .map(|sp| (cell.to_string(), w, *sp)),
            );
        }
    }
}

/// Spans written to the trace file per round.
const ROUND_SPANS: usize = 16_384;

/// Simulated accesses: every cache-level hit plus memory accesses.
pub fn accesses(s: &MachineStats) -> u64 {
    s.l1_hits + s.l2_hits + s.l3_hits + s.mem_accesses
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Exact nearest-rank percentile of `samples` (sorted in place).
pub fn percentile(samples: &mut [u64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((pct / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1] as f64
}

/// Mean of exact samples (0 when empty).
pub fn mean(samples: &[u64]) -> f64 {
    ratio(samples.iter().sum::<u64>() as f64, samples.len() as f64)
}

/// Median of host measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The exact `sim.<e>.*` layer metrics of one engine from its counters
/// over `txns` transactions, its cycle total and its exact latencies.
pub fn sim_layer(
    e: &str,
    s: &MachineStats,
    txns: u64,
    cycles: u64,
    lat: &mut [u64],
) -> Vec<(String, f64)> {
    let t = txns as f64;
    let per = |v: u64| ratio(v as f64, t);
    let mut out = vec![
        ("l1_hits_per_txn", per(s.l1_hits)),
        ("l2_hits_per_txn", per(s.l2_hits)),
        ("l3_hits_per_txn", per(s.l3_hits)),
        ("mem_accesses_per_txn", per(s.mem_accesses)),
        ("tlb_misses_per_txn", per(s.tlb_misses)),
        ("nvram_reads_per_txn", per(s.nvram_reads)),
    ];
    for (name, class) in [
        ("nvram_writes.data_per_txn", WriteClass::Data),
        ("nvram_writes.log_per_txn", WriteClass::Log),
        ("nvram_writes.journal_per_txn", WriteClass::MetaJournal),
        (
            "nvram_writes.consolidation_per_txn",
            WriteClass::Consolidation,
        ),
        ("nvram_writes.checkpoint_per_txn", WriteClass::Checkpoint),
        ("nvram_writes.page_copy_per_txn", WriteClass::PageCopy),
    ] {
        out.push((name, per(s.nvram_writes(class))));
    }
    out.push((
        "row_hit_frac",
        ratio(s.row_hits as f64, (s.row_hits + s.row_misses) as f64),
    ));
    out.push(("cycles_per_txn", per(cycles)));
    out.push(("txn_p99_cycles", percentile(lat, 99.0)));
    out.into_iter()
        .map(|(k, v)| (format!("sim.{e}.{k}"), v))
        .collect()
}

/// Engine host-time layer metrics of one engine, ns per transaction.
pub fn engine_layer(e: &str, run: &[Agg; KINDS], txns: u64) -> Vec<(String, f64)> {
    let per = |k: Kind| ratio(run[k as usize].total_ns as f64, txns as f64);
    vec![
        (format!("engine.{e}.begin_ns_per_txn"), per(Kind::Begin)),
        (format!("engine.{e}.load_ns_per_txn"), per(Kind::Load)),
        (format!("engine.{e}.store_ns_per_txn"), per(Kind::Store)),
        (format!("engine.{e}.commit_ns_per_txn"), per(Kind::Commit)),
    ]
}

/// Traces of one driver call plus the instants that bound it.
pub struct Call {
    /// The call's per-shard traces.
    pub traces: Traces,
    /// When the call started.
    pub t0: Instant,
    /// When the call returned.
    pub t1: Instant,
}

impl Call {
    /// Host seconds from the call's start to the last shard's set-up end
    /// (engine build plus workload set-up, shards in parallel).
    pub fn setup_s(&self) -> f64 {
        let end = self.traces.setup_end().unwrap_or(self.t0);
        end.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Host seconds from the last set-up end to the call's return.
    pub fn run_s(&self) -> f64 {
        let start = self.traces.setup_end().unwrap_or(self.t0);
        self.t1.saturating_duration_since(start).as_secs_f64()
    }

    /// Per-shard run windows (set-up end to return), summed, in ns: the
    /// host time the shards' threads spent in the driver's run phase.
    pub fn window_ns(&self) -> u64 {
        self.traces
            .shards
            .iter()
            .map(|s| {
                let start = lock(s).setup_end.unwrap_or(self.t0);
                self.t1.saturating_duration_since(start).as_nanos() as u64
            })
            .sum()
    }
}
