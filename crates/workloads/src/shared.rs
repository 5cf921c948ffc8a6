//! The shared-heap driver: N clients, **one** versioned store, real
//! conflicts — resolved deterministically.
//!
//! [`run_parallel`](crate::runner::run_parallel) gives every worker a
//! disjoint key partition, so its transactions never conflict. This
//! driver instead runs every worker's transactions against one logical
//! [`VersionedHeap`] with optimistic concurrency control:
//!
//! 1. **Speculate.** Between epoch boundaries each worker runs its
//!    transactions against an immutable heap *snapshot* (Arc-shared
//!    copy-on-write pages pin the epoch version). Loads go through the
//!    worker's own engine first — paying honest cache/memory timing on
//!    its machine shard — and the returned bytes are then overridden
//!    from (write buffer → own epoch overlay → heap snapshot). Stores
//!    are buffered; nothing touches shared state mid-epoch.
//! 2. **Validate.** At the epoch boundary every worker deposits its
//!    [`CommitIntent`]s (read/write line sets, buffered bytes, the local
//!    virtual time each transaction finished at). One barrier leader
//!    orders all intents by (time, worker index, submission index) and
//!    validates them first-committer-wins against the published line
//!    versions ([`ssp_txn::occ::validate_epoch`]); winners' writes are
//!    published into the next heap version. The computation is a pure
//!    function of the deposited streams, so threaded and sequential
//!    execution resolve bit-identically.
//! 3. **Publish / retry.** Each worker then *replays* its winning
//!    transactions as real engine transactions on its own shard
//!    (begin, sorted line stores, commit) — commit-time page
//!    publication pays the engine's genuine persistence cost and lands
//!    in the shard's NVRAM, so fingerprints stay deterministic. Losers
//!    are re-executed in the next epoch from their saved RNG state,
//!    after a deterministic bounded-exponential backoff is charged to
//!    the worker's clock.
//!
//! The three steps are the step, merge and absorb of the crate's epoch
//! kernel. When the machine config enables the interconnect, the same
//! merge also arbitrates the memory-event streams and charges
//! bank/LLC/coherence contention exactly like
//! [`run_parallel`](crate::runner::run_parallel).
//!
//! # Requirements on workloads
//!
//! * `setup` must be identical for every worker (it seeds the shared
//!   heap once and warms every local shard the same way); all pages are
//!   mapped in `setup` — `map_new_page` is not available mid-run.
//! * `run_txn` must be *replayable*: a pure function of (engine reads,
//!   RNG). The driver re-runs aborted transactions from a saved RNG
//!   snapshot.
//!
//! [`ConflictSps`](crate::conflict::ConflictSps) is the canonical
//! conflict-dial workload for this driver.

use std::collections::VecDeque;
use std::time::Duration;

use fxhash::FxHashMap;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssp_simulator::addr::{VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::fault::{CrashPoint, FaultSite};
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::{LatencyStats, ObsKind};
use ssp_simulator::stats::MachineStats;
use ssp_txn::engine::{line_spans, TxnEngine, TxnStats};
use ssp_txn::occ::{
    validate_epoch, BackoffPolicy, CommitIntent, LineWrite, SpecTxn, Verdict, VersionedHeap,
};

use crate::drive::{drive, fan_out, Board, IcMerge, Merge, Shard};
use crate::runner::{
    worker_seed, worker_share, ExecMode, MeasureBase, RunConfig, RunResult, Workload, SHARD_CORE,
};
use crate::storm::{CutVerdict, OracleEngine};

/// Knobs of the shared-heap mode (the conflict *rate* is a workload
/// knob — see [`ConflictSps`](crate::conflict::ConflictSps)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedHeapConfig {
    /// Epoch length in cycles when the interconnect is disabled (an
    /// enabled interconnect's `epoch_cycles` takes precedence so commit
    /// intents and memory streams share one boundary).
    pub epoch_cycles: u64,
    /// Deterministic backoff charged before each retry.
    pub backoff: BackoffPolicy,
}

impl Default for SharedHeapConfig {
    fn default() -> Self {
        Self {
            epoch_cycles: 50_000,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// OCC outcome counters of a shared-heap run (per shard, and merged in
/// worker order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Commit intents submitted to validation.
    pub validated: u64,
    /// Intents that won and were published.
    pub committed: u64,
    /// Intents that lost (conflicts + cascades); each is retried.
    pub aborted: u64,
    /// Losses to a real published-line conflict.
    pub conflicts: u64,
    /// Losses cascaded from an earlier same-worker loss in the epoch.
    pub cascades: u64,
    /// Re-executions after an abort (equals `aborted` once a run
    /// drains).
    pub retries: u64,
    /// Total backoff cycles charged to the shard clocks.
    pub backoff_cycles: u64,
    /// High-water attempt count any transaction needed (0 = first try).
    pub max_attempt: u64,
}

impl SharedStats {
    /// Folds another shard's counters in (worker-index order in the
    /// drivers, so merged results are schedule-independent).
    pub fn merge(&mut self, o: &SharedStats) {
        self.validated += o.validated;
        self.committed += o.committed;
        self.aborted += o.aborted;
        self.conflicts += o.conflicts;
        self.cascades += o.cascades;
        self.retries += o.retries;
        self.backoff_cycles += o.backoff_cycles;
        self.max_attempt = self.max_attempt.max(o.max_attempt);
    }

    /// Aborted fraction of all validated intents.
    pub fn abort_rate(&self) -> f64 {
        if self.validated == 0 {
            0.0
        } else {
            self.aborted as f64 / self.validated as f64
        }
    }
}

/// One worker's share of a shared-heap run.
#[derive(Debug)]
pub struct SharedShardRun<E> {
    /// The worker's engine, for inspection (fingerprints, recovery).
    pub engine: E,
    /// Worker index.
    pub worker: usize,
    /// Measured transactions this worker committed.
    pub txns: u64,
    /// Measured-phase cycles on this worker's core.
    pub elapsed_cycles: u64,
    /// Measured-phase machine counters.
    pub stats: MachineStats,
    /// Measured-phase transaction statistics (OCC aborts folded into
    /// `aborted`).
    pub txn_stats: TxnStats,
    /// Measured-phase latency histograms.
    pub latency: LatencyStats,
    /// Measured-phase OCC counters.
    pub shared: SharedStats,
}

/// Result of a [`run_shared`] run.
#[derive(Debug)]
pub struct SharedRun<E> {
    /// Merged measurements (deterministic across modes and repeats).
    pub result: RunResult,
    /// Merged OCC counters.
    pub shared: SharedStats,
    /// Per-worker results in worker-index order.
    pub shards: Vec<SharedShardRun<E>>,
    /// Host wall-clock of the measured phase (not deterministic).
    pub host_elapsed: Duration,
}

impl<E> SharedRun<E> {
    /// Measured transactions per host second.
    pub fn host_tps(&self) -> f64 {
        let secs = self.host_elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.result.txns as f64 / secs
        }
    }
}

/// Speculative engine view handed to `Workload::run_txn`: loads pay the
/// local engine's timing, bytes resolve write-buffer → epoch overlay →
/// heap snapshot, stores are buffered into the read/write sets.
struct SpecView<'a, E> {
    inner: &'a mut E,
    heap: &'a VersionedHeap,
    overlay: &'a FxHashMap<u64, LineWrite>,
    txn: &'a mut SpecTxn,
}

impl<E: TxnEngine> TxnEngine for SpecView<'_, E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn machine(&self) -> &Machine {
        self.inner.machine()
    }
    fn machine_mut(&mut self) -> &mut Machine {
        self.inner.machine_mut()
    }
    fn map_new_page(&mut self, _core: CoreId) -> Vpn {
        panic!("shared-heap workloads must map every page during setup");
    }
    fn begin(&mut self, _core: CoreId) {
        panic!("the shared-heap driver manages transaction boundaries");
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        // Honest timing through the local hierarchy; the *bytes* are then
        // overridden from the logical shared heap wherever it has the
        // page (local engine content can be stale — other workers'
        // commits never replay into this shard).
        self.inner.load(core, addr, buf);
        self.heap.read_into(addr, buf);
        for span in line_spans(addr, buf.len()) {
            if let Some(w) = self.overlay.get(&span.addr.line_base().raw()) {
                w.apply_to(addr, buf);
            }
        }
        self.txn.apply_overlay(addr, buf);
        self.txn.record_read(addr, buf.len());
    }
    fn store(&mut self, _core: CoreId, addr: VirtAddr, data: &[u8]) {
        // Buffered in the core's (volatile) write set; the cost is paid
        // at publication, when the winning intent replays through the
        // real engine.
        self.txn.buffer_store(addr, data);
    }
    fn commit(&mut self, _core: CoreId) {
        panic!("the shared-heap driver manages transaction boundaries");
    }
    fn abort(&mut self, _core: CoreId) {
        panic!("the shared-heap driver manages transaction boundaries");
    }
    fn crash(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn recover(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// Setup-capture view: forwards everything to the inner engine (setup
/// runs real transactions on every shard) and mirrors each store into
/// the heap's seed state.
struct CaptureView<'a, E> {
    inner: &'a mut E,
    heap: &'a mut VersionedHeap,
}

impl<E: TxnEngine> TxnEngine for CaptureView<'_, E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn machine(&self) -> &Machine {
        self.inner.machine()
    }
    fn machine_mut(&mut self) -> &mut Machine {
        self.inner.machine_mut()
    }
    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        self.inner.map_new_page(core)
    }
    fn begin(&mut self, core: CoreId) {
        self.inner.begin(core)
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        self.inner.load(core, addr, buf)
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        self.heap.seed_store(addr, data);
        self.inner.store(core, addr, data)
    }
    fn commit(&mut self, core: CoreId) {
        self.inner.commit(core)
    }
    fn abort(&mut self, _core: CoreId) {
        panic!("setup transactions must not abort (the heap seed already absorbed their stores)");
    }
    fn crash(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn recover(&mut self) {
        panic!("crashes are driven by the harness, not workloads");
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// One shard's OCC payload: its epoch's intents in, the verdicts and the
/// next heap snapshot back.
#[derive(Default)]
struct OccSlot {
    intents: Vec<CommitIntent>,
    verdicts: Vec<Verdict>,
    heap: VersionedHeap,
}

/// The OCC merge: optional interconnect arbitration, then
/// first-committer-wins validation of every shard's intents against the
/// canonical heap, publishing the winners into its next version.
struct OccMerge {
    heap: VersionedHeap,
    ic: Option<IcMerge>,
    epoch: u64,
}

impl Merge<OccSlot> for OccMerge {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn arbitrates(&self) -> bool {
        self.ic.is_some()
    }

    fn merge(&mut self, board: &mut Board<OccSlot>, cut: bool) -> bool {
        if let Some(ic) = &mut self.ic {
            ic.merge(board, cut);
        }
        let intents: Vec<Vec<CommitIntent>> = board
            .x
            .iter_mut()
            .map(|slot| std::mem::take(&mut slot.intents))
            .collect();
        let verdicts = validate_epoch(&mut self.heap, &intents);
        let settled = verdicts.iter().flatten().all(|v| *v == Verdict::Won);
        for ((slot, intents), verdicts) in board.x.iter_mut().zip(intents).zip(verdicts) {
            slot.intents = intents;
            slot.verdicts = verdicts;
            slot.heap = self.heap.clone();
        }
        settled
    }
}

/// Per-worker driver state.
struct SharedWorker<E, W> {
    /// Oracle-wrapped so the crash probe can check publications; plain
    /// runs never turn recording on.
    engine: OracleEngine<E>,
    workload: W,
    rng: SmallRng,
    lat: LatencyStats,
    /// This worker's heap snapshot (refreshed at every boundary).
    heap: VersionedHeap,
    /// Own speculative writes of the current epoch, by line.
    overlay: FxHashMap<u64, LineWrite>,
    spec: SpecTxn,
    /// Intents of the current epoch, in submission order.
    pending_intents: Vec<CommitIntent>,
    /// (pre-run RNG state, attempt) aligned with `pending_intents`.
    pending_meta: Vec<(SmallRng, u32)>,
    /// Aborted transactions to re-run, FIFO, before any fresh work.
    retries: VecDeque<(SmallRng, u32)>,
    /// Fresh transactions not yet started.
    fresh: u64,
    shared: SharedStats,
    /// Power cuts during publication replays (crash probe only).
    cuts: SharedCrashReport,
    backoff: BackoffPolicy,
    base: MeasureBase,
    w: usize,
}

impl<E: TxnEngine, W: Workload> SharedWorker<E, W> {
    /// Builds the worker and runs workload setup through the capture
    /// view: the local shard gets its real persistent state (identical on
    /// every worker) and the heap gets the seed bytes.
    fn new(
        engine: E,
        mut workload: W,
        cfg: &RunConfig,
        shared_cfg: &SharedHeapConfig,
        w: usize,
    ) -> Self {
        let mut engine = OracleEngine::new(engine);
        let mut heap = VersionedHeap::new();
        workload.setup(
            &mut CaptureView {
                inner: &mut engine,
                heap: &mut heap,
            },
            SHARD_CORE,
        );
        engine.machine_mut().discard_mem_events();
        Self {
            engine,
            workload,
            rng: SmallRng::seed_from_u64(worker_seed(cfg.seed, w)),
            lat: LatencyStats::default(),
            heap,
            overlay: FxHashMap::default(),
            spec: SpecTxn::new(),
            pending_intents: Vec::new(),
            pending_meta: Vec::new(),
            retries: VecDeque::new(),
            fresh: 0,
            shared: SharedStats::default(),
            cuts: SharedCrashReport::default(),
            backoff: shared_cfg.backoff,
            base: MeasureBase::default(),
            w,
        }
    }

    fn outstanding(&self) -> u64 {
        self.fresh + self.retries.len() as u64
    }

    /// Speculates until the local clock reaches `target` or no work is
    /// left: retries first (after their backoff charge), then fresh
    /// transactions off the main RNG stream.
    fn run_epoch(&mut self, target: u64) {
        debug_assert!(self.pending_intents.is_empty());
        self.overlay.clear();
        while self.engine.machine().cycles(SHARD_CORE) < target {
            let (mut run_rng, attempt) = if let Some((rng, attempt)) = self.retries.pop_front() {
                let delay = self.backoff.delay(attempt);
                self.engine.machine_mut().add_cycles(SHARD_CORE, delay);
                self.engine
                    .machine_mut()
                    .obs_record(ObsKind::OccRetry, delay);
                self.shared.retries += 1;
                self.shared.backoff_cycles += delay;
                (rng, attempt)
            } else if self.fresh > 0 {
                self.fresh -= 1;
                (self.rng.clone(), 0)
            } else {
                break;
            };
            let rng_before = run_rng.clone();
            let c1 = self.engine.machine().cycles(SHARD_CORE);
            {
                let mut view = SpecView {
                    inner: &mut self.engine,
                    heap: &self.heap,
                    overlay: &self.overlay,
                    txn: &mut self.spec,
                };
                self.workload.run_txn(&mut view, SHARD_CORE, &mut run_rng);
            }
            let c2 = self.engine.machine().cycles(SHARD_CORE);
            if attempt == 0 {
                // Fresh transactions advance the main stream; retries run
                // off their saved snapshot and must not.
                self.rng = run_rng;
            }
            let seq = self.pending_intents.len() as u64;
            let intent =
                self.spec
                    .take_intent(c2, self.w as u32, seq, attempt, self.heap.seq(), c2 - c1);
            for lw in &intent.writes {
                self.overlay
                    .entry(lw.line)
                    .and_modify(|e| e.merge(lw))
                    .or_insert(*lw);
            }
            self.pending_intents.push(intent);
            self.pending_meta.push((rng_before, attempt));
        }
    }

    /// Publishes one winning intent through the real engine: begin, the
    /// sorted buffered line writes, commit — the commit-time page
    /// publication that makes the shard pay honest persistence cost.
    fn replay(&mut self, intent: &CommitIntent) {
        let m0 = self.engine.machine().cycles(SHARD_CORE);
        self.engine.begin(SHARD_CORE);
        let m1 = self.engine.machine().cycles(SHARD_CORE);
        replay_stores(&mut self.engine, intent);
        self.engine.commit(SHARD_CORE);
        let m2 = self.engine.machine().cycles(SHARD_CORE);
        self.lat.begin.record(m1 - m0);
        self.lat.exec.record(intent.exec_cycles);
        self.lat.commit.record(m2 - m1);
        self.lat.txn.record(intent.exec_cycles + (m2 - m0));
    }

    /// Applies one epoch's verdicts: replays winners in submission order,
    /// queues losers for retry. Every publication is polled for a power
    /// cut, which is resolved against the oracle like a crash-storm cut;
    /// returns whether one reset the shard's clock.
    fn resolve(&mut self, verdicts: &[Verdict], intents: Vec<CommitIntent>) -> bool {
        let meta = std::mem::take(&mut self.pending_meta);
        debug_assert_eq!(verdicts.len(), intents.len());
        let mut cut = false;
        for ((verdict, intent), (rng_before, attempt)) in verdicts.iter().zip(intents).zip(meta) {
            self.shared.validated += 1;
            if *verdict == Verdict::Won {
                self.shared.committed += 1;
                self.shared.max_attempt = self.shared.max_attempt.max(attempt as u64);
                self.engine
                    .machine_mut()
                    .obs_record(ObsKind::OccValidate, attempt as u64);
                self.replay(&intent);
                if self.engine.machine().power_lost() {
                    self.cuts.storms += 1;
                    match self.engine.resolve_cut(false, false).verdict {
                        CutVerdict::Dropped => self.cuts.torn_dropped += 1,
                        CutVerdict::Kept => self.cuts.torn_kept += 1,
                        CutVerdict::Lost => self.cuts.lost += 1,
                    }
                    cut = true;
                }
                continue;
            }
            self.shared.aborted += 1;
            if *verdict == Verdict::Conflict {
                self.shared.conflicts += 1;
            } else {
                self.shared.cascades += 1;
            }
            self.engine
                .machine_mut()
                .obs_record(ObsKind::OccAbort, attempt as u64 + 1);
            self.retries.push_back((rng_before, attempt + 1));
        }
        cut
    }

    fn finish(mut self) -> SharedShardRun<E> {
        let (stats, mut txn_stats) = self.base.since(&self.engine);
        let elapsed_cycles = self.engine.machine().cycles(SHARD_CORE) - self.base.cycles;
        // The engine only ever sees winning replays; OCC aborts are the
        // shared-heap mode's aborts and fold into the same counter.
        txn_stats.aborted += self.shared.aborted;
        self.engine.machine_mut().discard_mem_events();
        SharedShardRun {
            worker: self.w,
            txns: self.shared.committed,
            elapsed_cycles,
            stats,
            txn_stats,
            latency: self.lat,
            shared: self.shared,
            engine: self.engine.into_inner(),
        }
    }
}

impl<E: TxnEngine, W: Workload> Shard<OccSlot> for SharedWorker<E, W> {
    fn machine(&mut self) -> &mut Machine {
        self.engine.machine_mut()
    }

    fn step(&mut self, until: u64) -> bool {
        self.run_epoch(until);
        self.outstanding() > 0
    }

    fn deposit(&mut self, x: &mut OccSlot) {
        x.intents = std::mem::take(&mut self.pending_intents);
    }

    fn absorb(&mut self, x: &mut OccSlot) -> bool {
        self.heap = std::mem::take(&mut x.heap);
        let verdicts = std::mem::take(&mut x.verdicts);
        self.resolve(&verdicts, std::mem::take(&mut x.intents))
    }
}

/// Builds and sets up the workers, and the OCC merge every phase of the
/// run shares.
fn start<E: TxnEngine, W: Workload>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    shared_cfg: &SharedHeapConfig,
) -> (Vec<SharedWorker<E, W>>, OccMerge) {
    let workers = fan_out(cfg.mode, cfg.threads, |w| {
        SharedWorker::new(mk_engine(w), mk_workload(w), cfg, shared_cfg, w)
    });
    // Setups are identical on every worker, so worker 0's seed heap is
    // *the* heap. An enabled interconnect's boundary takes precedence, so
    // commit intents and memory streams share one rendezvous.
    let arbiter = workers[0].engine.machine().config();
    let ic = arbiter.interconnect.enabled.then(|| IcMerge::new(arbiter));
    let merge = OccMerge {
        heap: workers[0].heap.clone(),
        epoch: ic
            .as_ref()
            .map_or(shared_cfg.epoch_cycles.max(1), Merge::<OccSlot>::epoch),
        ic,
    };
    (workers, merge)
}

/// One phase: every worker drains its share of `txns` fresh transactions
/// plus every retry, then goes to `finish`.
fn phase<E: TxnEngine, W: Workload, T: Send>(
    mode: ExecMode,
    mut workers: Vec<SharedWorker<E, W>>,
    txns: u64,
    merge: &mut OccMerge,
    finish: impl Fn(SharedWorker<E, W>) -> T + Sync,
) -> (Vec<T>, Duration) {
    let n = workers.len();
    for (w, worker) in workers.iter_mut().enumerate() {
        worker.fresh = worker_share(txns, n, w);
    }
    drive(mode, workers, merge, finish)
}

/// Runs a shared-heap OCC run over `cfg.threads` workers (see the module
/// docs for the protocol and determinism contract): a warm-up phase of
/// the full epoch protocol, then the measured phase from clean
/// baselines.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or a worker thread panics.
pub fn run_shared<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    shared_cfg: &SharedHeapConfig,
) -> SharedRun<E>
where
    E: TxnEngine,
    W: Workload,
{
    let (workers, mut merge) = start(mk_engine, mk_workload, cfg, shared_cfg);
    let (workers, _) = phase(cfg.mode, workers, cfg.warmup, &mut merge, |mut worker| {
        worker.base = MeasureBase::take(&worker.engine);
        worker.lat.reset();
        worker.shared = SharedStats::default();
        worker
    });
    let workload = workers[0].workload.name();
    let (shards, host_elapsed) = phase(
        cfg.mode,
        workers,
        cfg.txns,
        &mut merge,
        SharedWorker::finish,
    );
    let mut shared = SharedStats::default();
    for shard in &shards {
        shared.merge(&shard.shared);
    }
    let result = RunResult::fold(
        &shards[0].engine,
        workload,
        shards
            .iter()
            .map(|s| (s.txns, s.elapsed_cycles, &s.stats, &s.txn_stats, &s.latency)),
    );
    SharedRun {
        result,
        shared,
        shards,
        host_elapsed,
    }
}

fn replay_stores<E: TxnEngine>(engine: &mut E, intent: &CommitIntent) {
    for (addr, bytes) in intent.writes.iter().flat_map(LineWrite::runs) {
        engine.store(SHARD_CORE, VirtAddr::new(addr), bytes);
    }
}

/// Report of a [`run_shared_crash_probe`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCrashReport {
    /// Power cuts that tripped (each during a publication replay).
    pub storms: u64,
    /// Cut transactions the engine rolled back on recovery.
    pub torn_dropped: u64,
    /// Cut transactions whose commit mark beat the freeze.
    pub torn_kept: u64,
    /// Committed transactions lost or corrupted — must be 0.
    pub lost: u64,
    /// Transactions committed over the whole run.
    pub committed: u64,
    /// OCC aborts over the whole run.
    pub aborted: u64,
}

impl SharedCrashReport {
    /// Folds another shard's probe report in (all counters are sums).
    fn merge(&mut self, o: &SharedCrashReport) {
        self.storms += o.storms;
        self.torn_dropped += o.torn_dropped;
        self.torn_kept += o.torn_kept;
        self.lost += o.lost;
        self.committed += o.committed;
        self.aborted += o.aborted;
    }
}

/// Shared-heap run with a scheduled power cut landing inside a
/// publication replay (validation/publication is the only phase that
/// touches the engines' commit paths, so an
/// [`FaultSite::CommitData`]/[`FaultSite::CommitMark`] cut cuts
/// publication mid-flight). The victim shard crashes, recovers, and is
/// checked against the masked-line [`Oracle`](ssp_txn::Oracle): the cut
/// transaction must be *either* wholly dropped or wholly kept, and no
/// other committed transaction may be disturbed — the same zero-loss
/// contract the crash-storm harness enforces. The warm-up and measured
/// transactions run as one phase, and every shard's durable state is
/// checked against its oracle at the end.
///
/// Runs in both execution modes with bit-identical reports. Requires the
/// interconnect disabled.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero, `victim` is out of range, a worker
/// thread panics, or the interconnect is enabled.
pub fn run_shared_crash_probe<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    shared_cfg: &SharedHeapConfig,
    victim: usize,
    site: FaultSite,
    hits: u32,
) -> SharedCrashReport
where
    E: TxnEngine,
    W: Workload,
{
    assert!(victim < cfg.threads, "victim worker out of range");
    let (mut workers, mut merge) = start(mk_engine, mk_workload, cfg, shared_cfg);
    assert!(
        merge.ic.is_none(),
        "the crash probe requires the interconnect disabled"
    );
    for worker in &mut workers {
        worker.engine.set_recording(true);
    }
    workers[victim]
        .engine
        .machine_mut()
        .arm_crash(CrashPoint::AtSite { site, hits });
    let (reports, _) = phase(
        cfg.mode,
        workers,
        cfg.warmup + cfg.txns,
        &mut merge,
        |mut worker| {
            let (_, _, verified) = worker.engine.quiesce();
            SharedCrashReport {
                lost: worker.cuts.lost + u64::from(!verified),
                committed: worker.shared.committed,
                aborted: worker.shared.aborted,
                ..worker.cuts
            }
        },
    );
    let mut report = SharedCrashReport::default();
    for r in &reports {
        report.merge(r);
    }
    report
}
