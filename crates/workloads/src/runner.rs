//! The workload drivers: the legacy single-machine round-robin driver and
//! the sharded multi-threaded driver that collect the measurements every
//! figure and table is built from.
//!
//! [`run_parallel`] shards the simulated machine per worker: worker `w`
//! owns a full engine instance over a [`shard
//! slice`](ssp_simulator::config::MachineConfig::shard_slice) of the
//! machine (its core plus a 1/N bank of the shared LLC and memory
//! channels) and a disjoint partition of the workload. Its measured phase
//! is one independent epoch of the driver kernel, or — when the shards'
//! machine config enables
//! [`InterconnectConfig`](ssp_simulator::config::InterconnectConfig) — a
//! stepped phase whose epoch merge runs every shard's memory-event stream
//! through one shared [`Interconnect`](ssp_simulator::interconnect::Interconnect)
//! and charges each shard's cross-shard queueing delay back to its clock
//! (`docs/ARCHITECTURE.md`, "Threading model"). Per-worker statistics are
//! merged in worker-index order and the run's wall-clock is the maximum
//! per-shard cycle count, exactly as [`Machine::elapsed_cycles`] defines
//! it for a shared machine.
//!
//! # Determinism contract
//!
//! Every worker derives its own [`SmallRng`] stream from
//! (`cfg.seed`, worker index), so for a fixed [`RunConfig`] the merged
//! [`RunResult`] counters and every shard's persistent state are
//! **bit-identical across repeated runs, host schedules and execution
//! modes** (`tests/threaded_equivalence.rs`,
//! `tests/interconnect_contention.rs`). Only the host-time measurements
//! ([`ParallelRun::host_elapsed`]) are outside the contract.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::LatencyStats;
use ssp_simulator::stats::{MachineStats, WriteClass};
use ssp_txn::engine::{TxnEngine, TxnStats};

use crate::drive::{drive, fan_out, IcMerge, Merge, NoMerge, Shard};

/// A benchmark program driving a [`TxnEngine`].
///
/// Workloads are `Send + Sync` plain owned data: the threaded driver
/// moves one instance into each worker thread, and the factories clone
/// shared prototypes from inside those threads.
pub trait Workload: Send + Sync {
    /// Display name ("BTree", "SPS", ...).
    fn name(&self) -> &'static str;

    /// Builds the initial persistent state (own transactions inside).
    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId);

    /// Executes the body of one transaction (the driver wraps it in
    /// `begin`/`commit`).
    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng);

    /// Deep-copies the workload. Matrix harnesses build one *prototype*
    /// per (workload kind, scale) and clone it per cell and per worker, so
    /// distributions and layout parameters are derived once.
    fn clone_box(&self) -> Box<dyn Workload>;

    /// Forgets all engine-bound state (addresses handed out by an earlier
    /// [`setup`](Workload::setup)) so the instance can be reused against a
    /// fresh engine.
    fn reset(&mut self);
}

impl Clone for Box<dyn Workload> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// Boxed workloads are workloads, so the type-erased factories in
// `ssp-bench` can feed the generic parallel driver.
impl<T: Workload + ?Sized> Workload for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        (**self).setup(engine, core)
    }
    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
        (**self).run_txn(engine, core, rng)
    }
    fn clone_box(&self) -> Box<dyn Workload> {
        (**self).clone_box()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

/// How the sharded drivers execute the per-worker schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One real `std::thread` per worker (the default).
    #[default]
    Threaded,
    /// The reference schedule: the identical per-worker work on the
    /// calling thread, epoch by epoch, each epoch's shards in worker
    /// order. An independent phase is a single epoch, so its shards run
    /// one after another. Used by the equivalence tests to pin the
    /// determinism contract.
    Sequential,
}

/// Driver parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Measured transactions (split across the workers).
    pub txns: u64,
    /// Warm-up transactions excluded from the counters.
    pub warmup: u64,
    /// Worker threads ([`run`]: simulated cores on the one machine, must
    /// not exceed its core count; [`run_parallel`]: machine shards).
    pub threads: usize,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
    /// Threaded or sequential-reference execution (the sharded drivers;
    /// [`run`] ignores it).
    pub mode: ExecMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            txns: 2000,
            warmup: 200,
            threads: 1,
            seed: 0x55d0_2019,
            mode: ExecMode::Threaded,
        }
    }
}

/// Measurements of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Measured transactions.
    pub txns: u64,
    /// Wall-clock of the measured phase in cycles (max over cores).
    pub elapsed_cycles: u64,
    /// Transactions per second at the configured clock.
    pub tps: f64,
    /// Machine counters for the measured phase.
    pub stats: MachineStats,
    /// Transaction statistics for the measured phase.
    pub txn_stats: TxnStats,
    /// Per-transaction and per-phase latency histograms of the measured
    /// phase (cycles; merged across workers in worker-index order).
    pub latency: LatencyStats,
}

impl RunResult {
    /// Total NVRAM line writes in the measured phase.
    pub fn nvram_writes(&self) -> u64 {
        self.stats.nvram_writes_total()
    }

    /// Logging writes (log + metadata journal) in the measured phase.
    pub fn logging_writes(&self) -> u64 {
        self.stats.logging_writes()
    }

    /// NVRAM writes of one class.
    pub fn writes_of(&self, class: WriteClass) -> u64 {
        self.stats.nvram_writes(class)
    }
}

/// One worker's share of a [`run_parallel`] run, in worker-index order.
#[derive(Debug)]
pub struct ShardRun<E> {
    /// The worker's engine (and machine shard), returned for inspection —
    /// recovery counters, NVRAM fingerprints, capacity accounting.
    pub engine: E,
    /// The workload's display name.
    pub workload: &'static str,
    /// Worker index.
    pub worker: usize,
    /// Measured transactions executed by this worker.
    pub txns: u64,
    /// Measured-phase cycles on this worker's core.
    pub elapsed_cycles: u64,
    /// Measured-phase machine counters of this shard.
    pub stats: MachineStats,
    /// Measured-phase transaction statistics of this shard.
    pub txn_stats: TxnStats,
    /// Measured-phase latency histograms of this shard.
    pub latency: LatencyStats,
}

/// Result of a [`run_parallel`] run: the deterministic merged measurements
/// plus the per-worker shards.
#[derive(Debug)]
pub struct ParallelRun<E> {
    /// Merged measurements (deterministic; see the determinism contract).
    pub result: RunResult,
    /// Per-worker results in worker-index order.
    pub shards: Vec<ShardRun<E>>,
    /// Host wall-clock time of the measured phase. **Not** covered by the
    /// determinism contract — this is the real-time speedup benches
    /// measure.
    pub host_elapsed: Duration,
}

impl<E> ParallelRun<E> {
    /// Measured transactions per host second (the real-time throughput).
    pub fn host_tps(&self) -> f64 {
        let secs = self.host_elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.result.txns as f64 / secs
        }
    }
}

/// The RNG seed of worker `w` — a splitmix64 step keeps the per-worker
/// streams decorrelated even for adjacent run seeds.
pub fn worker_seed(seed: u64, worker: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(worker as u64 + 1))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker `w`'s share of `total` transactions (remainder to low workers).
pub fn worker_share(total: u64, workers: usize, w: usize) -> u64 {
    total / workers as u64 + u64::from((w as u64) < total % workers as u64)
}

pub(crate) const SHARD_CORE: CoreId = CoreId::new(0);

/// A shard's counters when its measured phase starts.
#[derive(Debug, Clone, Default)]
pub(crate) struct MeasureBase {
    stats: MachineStats,
    txn: TxnStats,
    /// The core clock (meaningful until a crash resets it).
    pub(crate) cycles: u64,
}

impl MeasureBase {
    pub(crate) fn take(engine: &impl TxnEngine) -> Self {
        Self {
            stats: engine.machine().stats().clone(),
            txn: engine.txn_stats().clone(),
            cycles: engine.machine().cycles(SHARD_CORE),
        }
    }

    /// The machine and transaction counters accrued since the snapshot.
    pub(crate) fn since(&self, engine: &impl TxnEngine) -> (MachineStats, TxnStats) {
        (
            engine.machine().stats().diff(&self.stats),
            engine.txn_stats().diff(&self.txn),
        )
    }
}

impl RunResult {
    /// Folds per-shard `(txns, elapsed cycles, stats, txn stats,
    /// latency)` in worker order into one result: counters and histograms
    /// add up, the wall-clock is the slowest shard's, and throughput is
    /// taken at `engine`'s clock.
    pub(crate) fn fold<'a>(
        engine: &impl TxnEngine,
        workload: &str,
        shards: impl IntoIterator<Item = (u64, u64, &'a MachineStats, &'a TxnStats, &'a LatencyStats)>,
    ) -> Self {
        let mut r = RunResult {
            engine: engine.name().to_string(),
            workload: workload.to_string(),
            txns: 0,
            elapsed_cycles: 0,
            tps: 0.0,
            stats: MachineStats::new(),
            txn_stats: TxnStats::default(),
            latency: LatencyStats::default(),
        };
        for (txns, elapsed, stats, txn_stats, latency) in shards {
            r.txns += txns;
            r.elapsed_cycles = r.elapsed_cycles.max(elapsed);
            r.stats.merge(stats);
            r.txn_stats.merge(txn_stats);
            r.latency.merge(latency);
        }
        if r.elapsed_cycles > 0 {
            let freq_hz = engine.machine().config().freq_ghz * 1e9;
            r.tps = r.txns as f64 / (r.elapsed_cycles as f64 / freq_hz);
        }
        r
    }
}

/// Per-worker driver state for the sharded run.
#[derive(Clone)]
struct Worker<E, W> {
    engine: E,
    workload: W,
    rng: SmallRng,
    txns: u64,
    /// Measured transactions not yet run.
    left: u64,
    /// Drop the event log after every transaction: nothing arbitrates it.
    discard: bool,
    /// Latency histograms; recorded by every transaction, reset at the
    /// start of the measured phase so warm-up samples are excluded.
    lat: LatencyStats,
    base: MeasureBase,
    w: usize,
}

impl<E: TxnEngine, W: Workload> Worker<E, W> {
    fn new(engine: E, workload: W, seed: u64, w: usize) -> Self {
        Self {
            engine,
            workload,
            rng: SmallRng::seed_from_u64(worker_seed(seed, w)),
            txns: 0,
            left: 0,
            discard: true,
            lat: LatencyStats::default(),
            base: MeasureBase::default(),
            w,
        }
    }

    fn one_txn(&mut self) {
        // The phase boundaries read the shard's (virtual) clock only —
        // recording latency never touches the simulated state, so the
        // histograms are exact and deterministic in every execution mode.
        let c0 = self.engine.machine().cycles(SHARD_CORE);
        self.engine.begin(SHARD_CORE);
        let c1 = self.engine.machine().cycles(SHARD_CORE);
        self.workload
            .run_txn(&mut self.engine, SHARD_CORE, &mut self.rng);
        let c2 = self.engine.machine().cycles(SHARD_CORE);
        self.engine.commit(SHARD_CORE);
        let c3 = self.engine.machine().cycles(SHARD_CORE);
        self.lat.begin.record(c1 - c0);
        self.lat.exec.record(c2 - c1);
        self.lat.commit.record(c3 - c2);
        self.lat.txn.record(c3 - c0);
    }

    /// Setup plus `warmup` transactions, then snapshot the measurement
    /// baselines.
    fn prepare(&mut self, warmup: u64) {
        self.workload.setup(&mut self.engine, SHARD_CORE);
        for _ in 0..warmup {
            self.one_txn();
        }
        // Setup and warm-up run uncontended: their recorded events are
        // discarded so epoch arbitration covers the measured phase only.
        self.engine.machine_mut().discard_mem_events();
        self.base = MeasureBase::take(&self.engine);
    }

    fn finish(self) -> ShardRun<E> {
        let (stats, txn_stats) = self.base.since(&self.engine);
        let elapsed_cycles = self.engine.machine().cycles(SHARD_CORE) - self.base.cycles;
        ShardRun {
            workload: self.workload.name(),
            worker: self.w,
            txns: self.txns,
            elapsed_cycles,
            stats,
            txn_stats,
            latency: self.lat,
            engine: self.engine,
        }
    }
}

impl<E: TxnEngine, W: Workload> Shard<()> for Worker<E, W> {
    fn machine(&mut self) -> &mut Machine {
        self.engine.machine_mut()
    }

    fn step(&mut self, until: u64) -> bool {
        while self.left > 0 && self.engine.machine().cycles(SHARD_CORE) < until {
            self.one_txn();
            self.left -= 1;
            if self.discard {
                // Free for a disabled shard; keeps the log of an
                // (unsupported) enabled-while-run-disabled shard from
                // growing without bound.
                self.engine.machine_mut().discard_mem_events();
            }
        }
        self.left > 0
    }
}

/// A warmed sharded run, snapshotted right before the measured phase:
/// every worker holds its engine after workload setup + warm-up, its RNG
/// mid-stream, and its measurement baselines.
///
/// This is the unit the bench harness's engine cache stores: cloning a
/// `WarmParallel` yields an independent replica, and running the measured
/// phase on a restored clone is **bit-identical** to a from-scratch
/// [`run_parallel`] with the same `RunConfig` — warm state is a pure
/// function of (factories, seed, warm-up count, thread count), never of
/// host scheduling or of how many clones ran before.
#[derive(Clone)]
pub struct WarmParallel<E, W> {
    workers: Vec<Worker<E, W>>,
}

/// Builds and warms `cfg.threads` workers: each constructs its engine and
/// workload from the factories, runs setup plus its warm-up share, and
/// snapshots the measurement baselines. In [`ExecMode::Threaded`] the
/// factories and warm-up run *inside* each worker's thread (construction
/// cost is parallel); [`ExecMode::Sequential`] warms on the calling
/// thread. Both produce bit-identical warm state — workers never interact
/// before the measured phase.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or a worker thread panics.
pub fn warm_parallel<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
) -> WarmParallel<E, W>
where
    E: TxnEngine,
    W: Workload,
{
    let workers = fan_out(cfg.mode, cfg.threads, |w| {
        let mut worker = Worker::new(mk_engine(w), mk_workload(w), cfg.seed, w);
        worker.prepare(worker_share(cfg.warmup, cfg.threads, w));
        worker
    });
    WarmParallel { workers }
}

impl<E: TxnEngine, W: Workload> WarmParallel<E, W> {
    /// Runs `txns` measured transactions ([`worker_share`]-split across
    /// the workers, like [`run_parallel`]) on this warm state and merges
    /// the per-worker measurements deterministically (see the module docs
    /// for the threading model and determinism contract). Taking the
    /// count here — rather than freezing it at warm time — is what lets
    /// one warm snapshot serve cells that differ only in measured length.
    /// Consumes the warm state; clone first to keep a restorable
    /// snapshot.
    pub fn run_measured(self, txns: u64, mode: ExecMode) -> ParallelRun<E> {
        let mut workers = self.workers;
        let threads = workers.len();
        // Every interconnect decision of the run — whether epochs run at
        // all, the epoch length, and the controller's banks and service
        // times — derives from worker 0's config in *both* execution
        // modes. Shards are expected to share the knobs; routing
        // everything through worker 0's copy means a mixed-configuration
        // factory can neither strand part of the team at the epoch
        // barrier nor make the arbitration depend on which thread happens
        // to win a barrier leadership (an enabled shard in a disabled run
        // merely has its event log discarded per transaction).
        let arbiter = workers[0].engine.machine().config().clone();
        for (w, worker) in workers.iter_mut().enumerate() {
            worker.txns = worker_share(txns, threads, w);
            worker.left = worker.txns;
            worker.discard = !arbiter.interconnect.enabled;
            // Warm-up transactions recorded latency samples; the measured
            // phase starts from empty histograms.
            worker.lat.reset();
        }
        let mut merge: Box<dyn Merge<()>> = if arbiter.interconnect.enabled {
            Box::new(IcMerge::new(&arbiter))
        } else {
            Box::new(NoMerge)
        };
        let (shards, host_elapsed) = drive(mode, workers, &mut *merge, Worker::finish);
        let result = RunResult::fold(
            &shards[0].engine,
            shards[0].workload,
            shards
                .iter()
                .map(|s| (s.txns, s.elapsed_cycles, &s.stats, &s.txn_stats, &s.latency)),
        );
        ParallelRun {
            result,
            shards,
            host_elapsed,
        }
    }
}

/// Runs `cfg.threads` machine shards, each built by the factories for its
/// worker index, and merges the per-worker measurements deterministically
/// (see the module docs for the threading model and determinism contract).
/// Equivalent to [`warm_parallel`] followed by
/// [`WarmParallel::run_measured`] — the warm/measure split exists so the
/// bench harness can snapshot and restore warm state across matrix cells.
///
/// `mk_engine(w)`/`mk_workload(w)` are called once per worker, *inside*
/// that worker's thread in [`ExecMode::Threaded`], so construction cost is
/// parallel too. The factories receive the worker index so callers can
/// partition key spaces or vary shard configurations.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or a worker thread panics.
pub fn run_parallel<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
) -> ParallelRun<E>
where
    E: TxnEngine,
    W: Workload,
{
    warm_parallel(mk_engine, mk_workload, cfg).run_measured(cfg.txns, cfg.mode)
}

/// Runs `workload` on `engine`: setup, warm-up, then the measured phase —
/// the **legacy schedule**: transactions interleaved round-robin across
/// `cfg.threads` simulated cores of the *one shared machine*, on the
/// calling thread. Isolation is by construction (one transaction runs at
/// a time, matching the paper's lock-based isolation assumption).
///
/// The single-machine figures (6–9, tables) keep using this driver; the
/// scaling curves use [`run_parallel`], whose shards execute on real
/// threads. `cfg.mode` is ignored here.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero or exceeds the machine's core count,
/// or if the machine enables the cross-shard interconnect (only
/// [`run_parallel`] drains and arbitrates its event streams).
pub fn run<E: TxnEngine>(
    engine: &mut E,
    workload: &mut dyn Workload,
    cfg: &RunConfig,
) -> RunResult {
    let mut rng = single_check_and_seed(engine, cfg);
    let base = single_warm(engine, workload, cfg, &mut rng);
    single_measured(engine, workload, cfg.threads, cfg.txns, &mut rng, &base)
}

/// Measurement baselines of the legacy driver, snapshotted after warm-up.
#[derive(Debug, Clone)]
struct SingleBase {
    stats: MachineStats,
    txn: TxnStats,
    cycles: Vec<u64>,
}

fn single_check_and_seed<E: TxnEngine>(engine: &E, cfg: &RunConfig) -> SmallRng {
    assert!(cfg.threads >= 1, "at least one thread");
    assert!(
        cfg.threads <= engine.machine().config().cores,
        "more threads than simulated cores"
    );
    // The legacy driver has no epoch loop to drain the event log the
    // machine records when the interconnect is on — a long run would
    // just grow it unboundedly with no contention effect. Cross-shard
    // contention needs the sharded driver.
    assert!(
        !engine.machine().config().interconnect.enabled,
        "the cross-shard interconnect requires run_parallel"
    );
    SmallRng::seed_from_u64(cfg.seed)
}

/// Setup + warm-up of the legacy driver; returns the baselines that
/// exclude both from the measurement.
fn single_warm<E: TxnEngine>(
    engine: &mut E,
    workload: &mut dyn Workload,
    cfg: &RunConfig,
    rng: &mut SmallRng,
) -> SingleBase {
    workload.setup(engine, CoreId::new(0));
    for i in 0..cfg.warmup {
        let core = CoreId::new((i % cfg.threads as u64) as usize);
        engine.begin(core);
        workload.run_txn(engine, core, rng);
        engine.commit(core);
    }
    SingleBase {
        stats: engine.machine().stats().clone(),
        txn: engine.txn_stats().clone(),
        cycles: (0..cfg.threads)
            .map(|c| engine.machine().cycles(CoreId::new(c)))
            .collect(),
    }
}

/// The measured phase of the legacy driver.
fn single_measured<E: TxnEngine>(
    engine: &mut E,
    workload: &mut dyn Workload,
    threads: usize,
    txns: u64,
    rng: &mut SmallRng,
    base: &SingleBase,
) -> RunResult {
    let mut latency = LatencyStats::default();
    for i in 0..txns {
        let core = CoreId::new((i % threads as u64) as usize);
        let c0 = engine.machine().cycles(core);
        engine.begin(core);
        let c1 = engine.machine().cycles(core);
        workload.run_txn(engine, core, rng);
        let c2 = engine.machine().cycles(core);
        engine.commit(core);
        let c3 = engine.machine().cycles(core);
        latency.begin.record(c1 - c0);
        latency.exec.record(c2 - c1);
        latency.commit.record(c3 - c2);
        latency.txn.record(c3 - c0);
    }

    let stats = engine.machine().stats().diff(&base.stats);
    let txn_stats = engine.txn_stats().diff(&base.txn);
    let elapsed = (0..threads)
        .map(|c| engine.machine().cycles(CoreId::new(c)) - base.cycles[c])
        .max()
        .unwrap_or(0);
    RunResult::fold(
        &*engine,
        workload.name(),
        [(txns, elapsed, &stats, &txn_stats, &latency)],
    )
}

/// A warmed legacy-driver cell, snapshotted right before the measured
/// phase: the engine after workload setup + warm-up, the RNG mid-stream,
/// and the measurement baselines. The single-machine counterpart of
/// [`WarmParallel`] — cloning yields an independent replica, and a
/// restored clone's measured phase is bit-identical to a from-scratch
/// [`run`] with the same `RunConfig`.
#[derive(Clone)]
pub struct WarmSingle<E> {
    engine: E,
    workload: Box<dyn Workload>,
    rng: SmallRng,
    threads: usize,
    base: SingleBase,
}

/// One finished legacy-driver cell: the merged measurements plus the
/// engine (for post-run probes — recovery counters, journal state) and
/// the host wall-clock of the measured phase.
pub struct SingleRun<E> {
    /// Merged measurements (deterministic).
    pub result: RunResult,
    /// The engine after the measured phase.
    pub engine: E,
    /// Host wall-clock of the measured phase (not deterministic).
    pub host_elapsed: Duration,
}

/// Warms an owned engine + workload for the legacy single-machine driver:
/// setup, `cfg.warmup` transactions round-robin over `cfg.threads`
/// simulated cores, then the baseline snapshot. See [`run`] for the
/// driver's semantics and panics.
pub fn warm_single<E: TxnEngine>(
    mut engine: E,
    mut workload: Box<dyn Workload>,
    cfg: &RunConfig,
) -> WarmSingle<E> {
    let mut rng = single_check_and_seed(&engine, cfg);
    let base = single_warm(&mut engine, workload.as_mut(), cfg, &mut rng);
    WarmSingle {
        engine,
        workload,
        rng,
        threads: cfg.threads,
        base,
    }
}

impl<E: TxnEngine> WarmSingle<E> {
    /// Runs `txns` measured transactions on this warm state. Consumes the
    /// warm state; clone first to keep a restorable snapshot.
    pub fn run_measured(mut self, txns: u64) -> SingleRun<E> {
        let t0 = Instant::now();
        let result = single_measured(
            &mut self.engine,
            self.workload.as_mut(),
            self.threads,
            txns,
            &mut self.rng,
            &self.base,
        );
        let host_elapsed = t0.elapsed();
        SingleRun {
            result,
            engine: self.engine,
            host_elapsed,
        }
    }
}

// Type-checked at compile time: machines, engines, workloads and results
// all cross thread boundaries.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<RunResult>();
    assert_send::<Box<dyn TxnEngine>>();
    assert_send::<Box<dyn Workload>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDist;
    use crate::sps::Sps;
    use ssp_baselines::UndoLog;
    use ssp_core::engine::Ssp;
    use ssp_core::SspConfig;
    use ssp_simulator::config::MachineConfig;

    fn small_cfg() -> RunConfig {
        RunConfig {
            txns: 100,
            warmup: 20,
            threads: 1,
            seed: 7,
            mode: ExecMode::Threaded,
        }
    }

    fn parallel_sps(cfg: &RunConfig) -> ParallelRun<Ssp> {
        let shard = MachineConfig::default().shard_slice(cfg.threads);
        run_parallel(
            move |_| Ssp::new(shard.clone(), SspConfig::default()),
            |_| Sps::new(1024, KeyDist::uniform(1024)),
            cfg,
        )
    }

    #[test]
    fn run_produces_sane_measurements() {
        let mut e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w = Sps::new(1024, KeyDist::uniform(1024));
        let r = run(&mut e, &mut w, &small_cfg());
        assert_eq!(r.txns, 100);
        assert_eq!(r.txn_stats.committed, 100);
        assert!(r.elapsed_cycles > 0);
        assert!(r.tps > 0.0);
        assert!(r.nvram_writes() > 0);
        assert_eq!(r.engine, "SSP");
        assert_eq!(r.workload, "SPS");
    }

    #[test]
    fn warmup_is_excluded() {
        let mut e1 = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w1 = Sps::new(1024, KeyDist::uniform(1024));
        let r_with = run(
            &mut e1,
            &mut w1,
            &RunConfig {
                warmup: 200,
                ..small_cfg()
            },
        );
        // Measured committed count is exactly txns regardless of warmup.
        assert_eq!(r_with.txn_stats.committed, 100);
    }

    #[test]
    fn multi_thread_run_uses_multiple_cores() {
        let mut e = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w = Sps::new(4096, KeyDist::uniform(4096));
        let cfg = RunConfig {
            threads: 4,
            ..small_cfg()
        };
        let r = run(&mut e, &mut w, &cfg);
        assert_eq!(r.txn_stats.committed, 100);
        // Four cores split the work: wall-clock under 4 threads should be
        // well below a single core running everything.
        let mut e1 = Ssp::new(MachineConfig::default(), SspConfig::default());
        let mut w1 = Sps::new(4096, KeyDist::uniform(4096));
        let r1 = run(&mut e1, &mut w1, &small_cfg());
        assert!(r.elapsed_cycles < r1.elapsed_cycles);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mk = || {
            let mut e = UndoLog::new(MachineConfig::default());
            let mut w = Sps::new(512, KeyDist::paper_zipf(512));
            run(&mut e, &mut w, &small_cfg())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.nvram_writes(), b.nvram_writes());
    }

    #[test]
    #[should_panic(expected = "more threads than simulated cores")]
    fn too_many_threads_panics() {
        let mut e = Ssp::new(MachineConfig::default().with_cores(1), SspConfig::default());
        let mut w = Sps::new(64, KeyDist::uniform(64));
        run(
            &mut e,
            &mut w,
            &RunConfig {
                threads: 2,
                ..small_cfg()
            },
        );
    }

    #[test]
    fn worker_share_splits_exactly() {
        let total: u64 = (0..3).map(|w| worker_share(10, 3, w)).sum();
        assert_eq!(total, 10);
        assert_eq!(worker_share(10, 3, 0), 4);
        assert_eq!(worker_share(10, 3, 2), 3);
        assert_eq!(worker_share(2, 4, 3), 0);
    }

    #[test]
    fn worker_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..16).map(|w| worker_seed(42, w)).collect();
        assert_eq!(seeds.len(), 16);
        // And differ from the raw run seed.
        assert!(!seeds.contains(&42));
    }

    #[test]
    fn parallel_run_commits_all_transactions() {
        let cfg = RunConfig {
            threads: 4,
            ..small_cfg()
        };
        let p = parallel_sps(&cfg);
        assert_eq!(p.result.txn_stats.committed, 100);
        assert_eq!(p.shards.len(), 4);
        let per_shard: u64 = p.shards.iter().map(|s| s.txn_stats.committed).sum();
        assert_eq!(per_shard, 100);
        assert!(p.result.elapsed_cycles > 0);
        assert!(p.host_elapsed > Duration::ZERO);
        assert!(p.host_tps() > 0.0);
        assert_eq!(p.result.engine, "SSP");
        assert_eq!(p.result.workload, "SPS");
    }

    #[test]
    fn parallel_wall_clock_is_max_over_shards() {
        let cfg = RunConfig {
            threads: 2,
            ..small_cfg()
        };
        let p = parallel_sps(&cfg);
        let max = p.shards.iter().map(|s| s.elapsed_cycles).max().unwrap();
        assert_eq!(p.result.elapsed_cycles, max);
    }

    fn contended_sps(cfg: &RunConfig) -> ParallelRun<Ssp> {
        let mut shard = MachineConfig::default().shard_slice(cfg.threads);
        shard.interconnect = ssp_simulator::config::InterconnectConfig::shared();
        shard.interconnect.epoch_cycles = 20_000;
        run_parallel(
            move |_| Ssp::new(shard.clone(), SspConfig::default()),
            |_| Sps::new(1024, KeyDist::uniform(1024)),
            cfg,
        )
    }

    #[test]
    fn interconnect_run_commits_everything_and_charges_delay() {
        let cfg = RunConfig {
            threads: 4,
            ..small_cfg()
        };
        let p = contended_sps(&cfg);
        assert_eq!(p.result.txn_stats.committed, 100);
        assert!(
            p.result.stats.bankq_row_hits + p.result.stats.bankq_row_misses > 0,
            "every measured access must pass through the controller"
        );
        assert!(
            p.result.stats.bankq_delay_cycles > 0,
            "four shards on one channel group must queue"
        );
        // The disabled run records nothing.
        let baseline = parallel_sps(&cfg);
        assert_eq!(baseline.result.stats.bankq_delay_cycles, 0);
        assert_eq!(baseline.result.stats.bankq_row_misses, 0);
        // Contention can only slow the merged wall-clock down.
        assert!(p.result.elapsed_cycles > baseline.result.elapsed_cycles);
    }

    #[test]
    fn interconnect_threaded_matches_sequential() {
        let threaded = contended_sps(&RunConfig {
            threads: 3,
            ..small_cfg()
        });
        let sequential = contended_sps(&RunConfig {
            threads: 3,
            mode: ExecMode::Sequential,
            ..small_cfg()
        });
        assert_eq!(threaded.result, sequential.result);
        for (t, s) in threaded.shards.iter().zip(&sequential.shards) {
            assert_eq!(t.stats, s.stats);
            assert_eq!(t.elapsed_cycles, s.elapsed_cycles);
        }
    }

    #[test]
    #[should_panic(expected = "requires run_parallel")]
    fn legacy_run_rejects_interconnect_machines() {
        let cfg = MachineConfig {
            interconnect: ssp_simulator::config::InterconnectConfig::shared(),
            ..MachineConfig::default()
        };
        let mut e = Ssp::new(cfg, SspConfig::default());
        let mut w = Sps::new(64, KeyDist::uniform(64));
        run(&mut e, &mut w, &small_cfg());
    }

    #[test]
    fn mixed_interconnect_factories_follow_worker_zero() {
        // Worker 0 disabled, worker 1 enabled: the run must neither
        // deadlock nor arbitrate (worker 0's flag wins), and the odd
        // shard's event log is discarded as it goes.
        let plain = MachineConfig::default().shard_slice(2);
        let mut contended = plain.clone();
        contended.interconnect = ssp_simulator::config::InterconnectConfig::shared();
        let cfg = RunConfig {
            threads: 2,
            ..small_cfg()
        };
        let p = run_parallel(
            move |w| {
                let shard = if w == 0 {
                    plain.clone()
                } else {
                    contended.clone()
                };
                Ssp::new(shard, SspConfig::default())
            },
            |_| Sps::new(1024, KeyDist::uniform(1024)),
            &cfg,
        );
        assert_eq!(p.result.txn_stats.committed, 100);
        assert_eq!(p.result.stats.bankq_row_misses, 0, "no arbitration ran");
    }

    /// A workload whose `run_txn` panics after a few transactions — for
    /// asserting that worker panics fail the run instead of deadlocking
    /// the barriers.
    #[derive(Debug, Clone)]
    struct PanicBomb {
        fuse: u64,
        inner: Sps,
    }

    impl Workload for PanicBomb {
        fn name(&self) -> &'static str {
            "PanicBomb"
        }
        fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
            self.inner.setup(engine, core)
        }
        fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
            assert!(self.fuse > 0, "boom");
            self.fuse -= 1;
            self.inner.run_txn(engine, core, rng)
        }
        fn clone_box(&self) -> Box<dyn Workload> {
            Box::new(self.clone())
        }
        fn reset(&mut self) {
            self.inner.reset()
        }
    }

    #[test]
    #[should_panic]
    fn panicking_worker_fails_the_run_instead_of_hanging() {
        // Worker 1 blows up mid-epoch; the poisoning barriers must wake
        // everyone (including the coordinator) so the panic propagates
        // out of run_parallel rather than deadlocking the rendezvous.
        let mut shard = MachineConfig::default().shard_slice(3);
        shard.interconnect = ssp_simulator::config::InterconnectConfig::shared();
        shard.interconnect.epoch_cycles = 5_000;
        run_parallel(
            move |_| Ssp::new(shard.clone(), SspConfig::default()),
            |w| PanicBomb {
                // Survives warm-up (20/3 ≈ 7 txns) on every worker, then
                // detonates early in worker 1's measured phase.
                fuse: if w == 1 { 12 } else { u64::MAX },
                inner: Sps::new(1024, KeyDist::uniform(1024)),
            },
            &RunConfig {
                threads: 3,
                ..small_cfg()
            },
        );
    }

    /// Three shards whose worker 1 detonates after `fuse` transactions.
    fn bombs(fuse: u64) -> impl Fn(usize) -> PanicBomb + Sync {
        move |w| PanicBomb {
            fuse: if w == 1 { fuse } else { u64::MAX },
            inner: Sps::new(1024, KeyDist::uniform(1024)),
        }
    }

    fn three_shards(_: usize) -> Ssp {
        Ssp::new(
            MachineConfig::default().shard_slice(3),
            SspConfig::default(),
        )
    }

    #[test]
    #[should_panic]
    fn panic_during_warm_up_fails_the_run_instead_of_hanging() {
        // Worker 1 blows up inside its warm-up (20/3 ≈ 7 txns), while the
        // others finish building.
        run_parallel(
            three_shards,
            bombs(3),
            &RunConfig {
                threads: 3,
                ..small_cfg()
            },
        );
    }

    #[test]
    #[should_panic]
    fn panicking_storm_worker_fails_the_run_instead_of_hanging() {
        // The independent phase: the surviving workers finish their
        // share and park at the phase's rendezvous.
        crate::storm::run_storm(
            three_shards,
            bombs(12),
            &RunConfig {
                threads: 3,
                ..small_cfg()
            },
            &crate::storm::StormSchedule::every_cycles(20_000),
        );
    }

    #[test]
    #[should_panic]
    fn panicking_shared_worker_fails_the_run_instead_of_hanging() {
        // The OCC epoch phase: worker 1 dies mid-speculation while the
        // others wait for the epoch merge.
        crate::shared::run_shared(
            three_shards,
            bombs(12),
            &RunConfig {
                threads: 3,
                ..small_cfg()
            },
            &crate::shared::SharedHeapConfig {
                epoch_cycles: 5_000,
                ..Default::default()
            },
        );
    }

    #[test]
    fn workload_reset_allows_reuse_on_a_fresh_engine() {
        let mut w = Sps::new(256, KeyDist::uniform(256));
        let mut e1 = Ssp::new(MachineConfig::default(), SspConfig::default());
        w.setup(&mut e1, CoreId::new(0));
        let mut clone = w.clone_box();
        clone.reset();
        // A reset clone must rebuild its bindings against the new engine
        // rather than dereferencing the old one's addresses.
        let mut e2 = Ssp::new(MachineConfig::default(), SspConfig::default());
        clone.setup(&mut e2, CoreId::new(0));
        let mut rng = SmallRng::seed_from_u64(9);
        e2.begin(CoreId::new(0));
        clone.run_txn(&mut e2, CoreId::new(0), &mut rng);
        e2.commit(CoreId::new(0));
        assert!(e2.txn_stats().committed > 0);
    }

    #[test]
    fn threaded_matches_sequential_reference() {
        let threaded = parallel_sps(&RunConfig {
            threads: 3,
            ..small_cfg()
        });
        let sequential = parallel_sps(&RunConfig {
            threads: 3,
            mode: ExecMode::Sequential,
            ..small_cfg()
        });
        assert_eq!(threaded.result, sequential.result);
        for (t, s) in threaded.shards.iter().zip(&sequential.shards) {
            assert_eq!(t.stats, s.stats);
            assert_eq!(t.elapsed_cycles, s.elapsed_cycles);
            assert_eq!(
                t.engine.machine().nvram_fingerprint(),
                s.engine.machine().nvram_fingerprint()
            );
        }
    }
}
