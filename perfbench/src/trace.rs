//! Span recording at the layer boundaries the decorators wrap.
//!
//! Each machine shard owns one [`ShardTrace`], shared by that shard's
//! engine decorator and workload decorator. A span carries its kind,
//! start, end, parent and the id of the transaction it belongs to.
//! Sums and counts are kept for the whole run; full spans only for a
//! bounded prefix. Nothing is written out until the benchmark ends.
//!
//! With tracing off only the set-up spans (engine build, workload
//! set-up: a handful per shard) are timed, so the untraced run pays one
//! branch per engine call and nothing else.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ssp_simulator::stats::MachineStats;

/// The boundaries a span can wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The engine factory (`make_engine`).
    Build,
    /// `Workload::setup`.
    Setup,
    /// `Workload::run_txn` (the transaction body).
    RunTxn,
    /// `TxnEngine::begin`.
    Begin,
    /// `TxnEngine::load` issued by a transaction body.
    Load,
    /// `TxnEngine::store`.
    Store,
    /// `TxnEngine::commit`.
    Commit,
    /// `TxnEngine::abort`.
    Abort,
    /// `TxnEngine::crash`.
    Crash,
    /// `TxnEngine::recover`.
    Recover,
    /// `TxnEngine::load` issued outside a transaction after a recovery:
    /// the oracle reading the recovered state back.
    Verify,
    /// `TxnEngine::map_new_page`.
    MapPage,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 12;

impl Kind {
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; KINDS] = [
        Kind::Build,
        Kind::Setup,
        Kind::RunTxn,
        Kind::Begin,
        Kind::Load,
        Kind::Store,
        Kind::Commit,
        Kind::Abort,
        Kind::Crash,
        Kind::Recover,
        Kind::Verify,
        Kind::MapPage,
    ];

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Build => "engine.build",
            Kind::Setup => "workload.setup",
            Kind::RunTxn => "workload.run_txn",
            Kind::Begin => "engine.begin",
            Kind::Load => "engine.load",
            Kind::Store => "engine.store",
            Kind::Commit => "engine.commit",
            Kind::Abort => "engine.abort",
            Kind::Crash => "engine.crash",
            Kind::Recover => "engine.recover",
            Kind::Verify => "oracle.verify_load",
            Kind::MapPage => "engine.map_new_page",
        }
    }
}

/// While set, every span counts as set-up (the `steady` workload sets it
/// around `warm_parallel`, whose warm-up transactions are not measured).
static SETUP_PHASE: AtomicBool = AtomicBool::new(false);

/// Marks the start or end of a set-up phase driven from outside.
pub fn set_setup_phase(on: bool) {
    SETUP_PHASE.store(on, Ordering::SeqCst);
}

/// Sum, count and self time of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans (ns).
    pub self_ns: u64,
}

impl Agg {
    /// Adds another sum in.
    pub fn add(&mut self, o: &Agg) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }
}

/// One recorded span of the bounded prefix.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// What the span wraps.
    pub kind: Kind,
    /// Start, ns since the benchmark's epoch.
    pub start_ns: u64,
    /// End, ns since the benchmark's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the prefix, if it was recorded.
    pub parent: Option<u32>,
    /// Transaction id shared by a transaction's spans (per shard).
    pub txn: u64,
}

/// Full spans kept per shard.
const PREFIX_SPANS: usize = 2048;

struct Open {
    kind: Kind,
    start: Instant,
    child_ns: u64,
    setup: bool,
    rec: Option<u32>,
}

/// Everything one shard records. Only run-phase spans are summed, so
/// per-transaction figures cover the measured work alone.
pub struct ShardTrace {
    epoch: Instant,
    tracing: bool,
    stack: Vec<Open>,
    txn: u64,
    /// Run-phase sums per kind (set-up is not measured).
    pub run: [Agg; KINDS],
    /// Summed duration of run-phase spans with no parent (ns).
    pub top_run_ns: u64,
    /// Bounded prefix of full spans.
    pub prefix: Vec<SpanRec>,
    /// End of the shard's last `Workload::setup`.
    pub setup_end: Option<Instant>,
    /// Machine counters when set-up ended.
    pub stats_setup: Option<MachineStats>,
    /// Machine counters when the engine decorator was dropped.
    pub stats_end: Option<MachineStats>,
    /// Exact begin → commit cycles of each transaction that committed
    /// in the run phase with power on.
    pub lat: Vec<u64>,
}

impl ShardTrace {
    fn new(epoch: Instant, tracing: bool) -> Self {
        Self {
            epoch,
            tracing,
            stack: Vec::new(),
            txn: 0,
            run: [Agg::default(); KINDS],
            top_run_ns: 0,
            prefix: Vec::new(),
            setup_end: None,
            stats_setup: None,
            stats_end: None,
            lat: Vec::new(),
        }
    }

    /// Whether per-call spans are recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Whether the innermost open span (or the global flag) is set-up.
    pub fn in_setup(&self) -> bool {
        SETUP_PHASE.load(Ordering::Relaxed) || self.stack.last().is_some_and(|o| o.setup)
    }

    /// Starts a new transaction id (spans opened from now on carry it).
    pub fn next_txn(&mut self) {
        self.txn += 1;
    }

    /// Opens a span around a call that may contain other spans.
    pub fn enter(&mut self, kind: Kind) {
        let start = Instant::now();
        let setup = matches!(kind, Kind::Build | Kind::Setup) || self.in_setup();
        let rec = self.record(kind, start, setup);
        self.stack.push(Open {
            kind,
            start,
            child_ns: 0,
            setup,
            rec,
        });
    }

    /// Closes the innermost span.
    pub fn exit(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span exit without enter");
        if open.kind == Kind::Setup {
            self.setup_end = Some(end);
        }
        self.close(open, end);
    }

    /// Records a finished span that contains no other span (an engine
    /// call). Set-up is not measured, so its engine calls are dropped.
    pub fn leaf(&mut self, kind: Kind, start: Instant, end: Instant) {
        if self.in_setup() {
            return;
        }
        let rec = self.record(kind, start, false);
        let open = Open {
            kind,
            start,
            child_ns: 0,
            setup: false,
            rec,
        };
        self.close(open, end);
    }

    /// Adds a span to the bounded prefix, if there is room.
    fn record(&mut self, kind: Kind, start: Instant, setup: bool) -> Option<u32> {
        // Of set-up, only the outer spans are kept.
        let inner_setup = setup && !matches!(kind, Kind::Build | Kind::Setup);
        if inner_setup || self.prefix.len() >= PREFIX_SPANS {
            return None;
        }
        self.prefix.push(SpanRec {
            kind,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().and_then(|o| o.rec),
            txn: self.txn,
        });
        Some((self.prefix.len() - 1) as u32)
    }

    fn close(&mut self, open: Open, end: Instant) {
        let dur = (end - open.start).as_nanos() as u64;
        if !open.setup {
            let agg = &mut self.run[open.kind as usize];
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(open.child_ns);
        }
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None if !open.setup => self.top_run_ns += dur,
            None => {}
        }
        if let Some(i) = open.rec {
            self.prefix[i as usize].end_ns = (end - self.epoch).as_nanos() as u64;
        }
    }
}

/// A shard's trace, shared by its two decorators.
pub type Shared = Arc<Mutex<ShardTrace>>;

/// Locks a shard's trace.
pub fn lock(t: &Shared) -> MutexGuard<'_, ShardTrace> {
    t.lock()
        .expect("a decorator panicked while holding its shard trace")
}

/// The traces of one driver call: one per shard, created before the call
/// so the factories of worker `w` can hand both decorators `shards[w]`.
pub struct Traces {
    /// Per-shard traces, worker-index order.
    pub shards: Vec<Shared>,
}

impl Traces {
    /// Fresh traces for `n` shards.
    pub fn new(n: usize, epoch: Instant, tracing: bool) -> Self {
        Self {
            shards: (0..n)
                .map(|_| Arc::new(Mutex::new(ShardTrace::new(epoch, tracing))))
                .collect(),
        }
    }

    /// Run-phase sums per kind over all shards.
    pub fn run_aggs(&self) -> [Agg; KINDS] {
        let mut out = [Agg::default(); KINDS];
        for s in &self.shards {
            let s = lock(s);
            for (o, a) in out.iter_mut().zip(&s.run) {
                o.add(a);
            }
        }
        out
    }

    /// Summed duration of top-level run-phase spans over all shards (ns).
    pub fn top_run_ns(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).top_run_ns).sum()
    }

    /// Latest set-up end over all shards.
    pub fn setup_end(&self) -> Option<Instant> {
        self.shards.iter().filter_map(|s| lock(s).setup_end).max()
    }

    /// Machine counters from set-up end to engine drop, summed over
    /// shards.
    pub fn run_stats(&self) -> MachineStats {
        let mut total = MachineStats::new();
        for s in &self.shards {
            let s = lock(s);
            if let (Some(a), Some(b)) = (&s.stats_setup, &s.stats_end) {
                total.merge(&b.diff(a));
            }
        }
        total
    }

    /// Every shard's exact transaction latencies, in worker order.
    pub fn latencies(&self) -> Vec<u64> {
        self.shards
            .iter()
            .flat_map(|s| lock(s).lat.clone())
            .collect()
    }
}
