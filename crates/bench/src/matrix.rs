//! The parallel bench-matrix runner.
//!
//! [`MatrixRunner`] executes a grid of [`CellSpec`]s — (engine × workload
//! × machine config × run config) cells — over a pool of host threads,
//! with two deterministic caches layered underneath:
//!
//! * a **result memo**: two cells with the same full key are one
//!   simulation; the second returns the memoized [`RunResult`] (the
//!   Figure 5a / 6 / 7 matrices are literally the same 21 cells printed
//!   three ways);
//! * an **engine cache**: cells sharing the same *warm prefix* (engine
//!   kind, machine + SSP config, workload, scale, warm-up, seed, thread
//!   count) restore a cloned warm-state snapshot
//!   ([`WarmSingle`]/[`WarmParallel`]) instead of re-running setup and
//!   warm-up from scratch. Interest counting keeps memory bounded: a
//!   snapshot is only stored while later cells in the submitted batches
//!   still want it, and is dropped with its last consumer.
//!
//! # Determinism contract
//!
//! Pool scheduling, memo hits and warm-cache hits are **invisible in the
//! results**: a pooled run over any number of host threads, with caches
//! on or off, is bit-identical to executing every cell one at a time on
//! the calling thread with cold engines — the same discipline
//! [`run_parallel`](ssp_workloads::runner::run_parallel) applies to its
//! shards, locked in by `crates/bench/tests/matrix_equivalence.rs`. Only
//! host wall-clock measurements are outside the contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ssp_baselines::{RedoLog, ShadowPaging, UndoLog};
use ssp_core::engine::Ssp;
use ssp_core::SspConfig;
use ssp_simulator::addr::{VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::config::MachineConfig;
use ssp_simulator::machine::Machine;
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_workloads::runner::{
    warm_parallel, warm_single, RunConfig, RunResult, SingleRun, WarmParallel, WarmSingle, Workload,
};

use crate::{make_workload, EngineKind, Scale, WorkloadKind};

/// A concrete, cloneable engine — the snapshot unit of the engine cache.
/// (Boxed `dyn TxnEngine` cannot be cloned; the matrix runner knows the
/// four kinds anyway.)
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one per cell; cloneability, not size, is the point
pub enum AnyEngine {
    /// Hardware undo logging.
    Undo(UndoLog),
    /// Hardware redo logging.
    Redo(RedoLog),
    /// Shadow Sub-Paging.
    Ssp(Ssp),
    /// Conventional page-granularity shadow paging.
    Shadow(ShadowPaging),
}

macro_rules! delegate {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            AnyEngine::Undo($e) => $body,
            AnyEngine::Redo($e) => $body,
            AnyEngine::Ssp($e) => $body,
            AnyEngine::Shadow($e) => $body,
        }
    };
}

impl AnyEngine {
    /// Builds an engine of `kind` (SSP additionally takes `ssp_cfg`).
    pub fn build(kind: EngineKind, cfg: &MachineConfig, ssp_cfg: &SspConfig) -> AnyEngine {
        match kind {
            EngineKind::Undo => AnyEngine::Undo(UndoLog::new(cfg.clone())),
            EngineKind::Redo => AnyEngine::Redo(RedoLog::new(cfg.clone())),
            EngineKind::Ssp => AnyEngine::Ssp(Ssp::new(cfg.clone(), ssp_cfg.clone())),
            EngineKind::Shadow => AnyEngine::Shadow(ShadowPaging::new(cfg.clone())),
        }
    }

    /// The SSP engine inside, for SSP-specific probes (journal state,
    /// checkpoint counts, consolidation accounting).
    pub fn as_ssp(&self) -> Option<&Ssp> {
        match self {
            AnyEngine::Ssp(e) => Some(e),
            _ => None,
        }
    }

    /// Mutable access to the SSP engine inside.
    pub fn as_ssp_mut(&mut self) -> Option<&mut Ssp> {
        match self {
            AnyEngine::Ssp(e) => Some(e),
            _ => None,
        }
    }
}

impl TxnEngine for AnyEngine {
    fn name(&self) -> &'static str {
        delegate!(self, e => e.name())
    }
    fn machine(&self) -> &Machine {
        delegate!(self, e => e.machine())
    }
    fn machine_mut(&mut self) -> &mut Machine {
        delegate!(self, e => e.machine_mut())
    }
    fn map_new_page(&mut self, core: CoreId) -> Vpn {
        delegate!(self, e => e.map_new_page(core))
    }
    fn begin(&mut self, core: CoreId) {
        delegate!(self, e => e.begin(core))
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        delegate!(self, e => e.load(core, addr, buf))
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        delegate!(self, e => e.store(core, addr, data))
    }
    fn commit(&mut self, core: CoreId) {
        delegate!(self, e => e.commit(core))
    }
    fn abort(&mut self, core: CoreId) {
        delegate!(self, e => e.abort(core))
    }
    fn crash(&mut self) {
        delegate!(self, e => e.crash())
    }
    fn recover(&mut self) {
        delegate!(self, e => e.recover())
    }
    fn in_txn(&self, core: CoreId) -> bool {
        delegate!(self, e => e.in_txn(core))
    }
    fn txn_stats(&self) -> &TxnStats {
        delegate!(self, e => e.txn_stats())
    }
}

/// Which driver a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDriver {
    /// `threads > 1` or an enabled interconnect selects the sharded
    /// driver, everything else the legacy single-machine driver.
    Auto,
    /// Force the legacy shared-machine driver with `run_cfg.threads`
    /// simulated cores on *one* machine and *one* workload instance
    /// (Tables 4/5: four clients against one shared service).
    SharedMachine,
    /// Force the sharded driver even for one worker without an
    /// interconnect — the thread-scaling baselines need the sharded
    /// driver's per-worker RNG streams at `threads = 1` so their
    /// per-transaction cost matches the N-worker cells exactly.
    Sharded,
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Engine under test.
    pub engine: EngineKind,
    /// Workload.
    pub workload: WorkloadKind,
    /// Machine configuration (the *parent* machine; the sharded driver
    /// slices it per worker).
    pub cfg: MachineConfig,
    /// SSP configuration (ignored — and excluded from the cache keys — by
    /// non-SSP engines).
    pub ssp_cfg: SspConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Driver parameters.
    pub run_cfg: RunConfig,
    /// Driver selection.
    pub driver: CellDriver,
    /// When true, `cfg` and `scale` already describe one worker: the
    /// sharded driver hands every worker a copy of `cfg` instead of
    /// slicing it ([`MachineConfig::shard_slice_for`]) and does not apply
    /// [`Scale::per_shard`] — the contention sweeps give each client a
    /// constant machine slice and working set while the *interconnect*
    /// varies.
    pub per_worker: bool,
}

impl CellSpec {
    /// A cell with the default ([`CellDriver::Auto`]) routing.
    pub fn new(
        engine: EngineKind,
        workload: WorkloadKind,
        cfg: &MachineConfig,
        ssp_cfg: &SspConfig,
        scale: Scale,
        run_cfg: &RunConfig,
    ) -> Self {
        Self {
            engine,
            workload,
            cfg: cfg.clone(),
            ssp_cfg: ssp_cfg.clone(),
            scale,
            run_cfg: run_cfg.clone(),
            driver: CellDriver::Auto,
            per_worker: false,
        }
    }

    /// Routes this cell to the legacy shared-machine driver.
    pub fn shared_machine(mut self) -> Self {
        self.driver = CellDriver::SharedMachine;
        self
    }

    /// Forces the sharded driver (see [`CellDriver::Sharded`]).
    pub fn sharded(mut self) -> Self {
        self.driver = CellDriver::Sharded;
        self
    }

    /// Marks `cfg` and `scale` as already-per-worker (sharded driver
    /// only).
    pub fn per_worker(mut self) -> Self {
        self.per_worker = true;
        self
    }

    /// Whether the cell runs on the sharded driver (otherwise on the
    /// one-machine driver, with `run_cfg.threads` cores on one machine).
    fn sharded_driver(&self) -> bool {
        match self.driver {
            CellDriver::SharedMachine => false,
            CellDriver::Sharded => true,
            CellDriver::Auto => self.run_cfg.threads > 1 || self.cfg.interconnect.enabled,
        }
    }

    /// The scale each engine/workload instance actually runs at. One
    /// worker keeps `scale` as is: `per_shard(1)` is the identity except
    /// for its >= 16 floor, which would inflate tiny custom scales.
    fn effective_scale(&self) -> Scale {
        if self.sharded_driver() && !self.per_worker && self.run_cfg.threads > 1 {
            self.scale.per_shard(self.run_cfg.threads)
        } else {
            self.scale
        }
    }

    /// Cache key of the warm prefix (everything that determines the
    /// snapshotted state: driver, engine kind + configs, workload +
    /// effective scale, warm-up count, seed, thread count — but *not* the
    /// measured transaction count or the execution mode, which only shape
    /// the measured phase). Configs are folded in via their `Debug` form:
    /// derived `Debug` covers every field, and equal keys therefore mean
    /// equal warm state under the determinism contract.
    fn warm_key(&self) -> String {
        // Non-SSP engines never read the SSP config, so cells differing
        // only there share one warm state (Figure 9's REDO baseline).
        let ssp_gate = (self.engine == EngineKind::Ssp).then_some(&self.ssp_cfg);
        format!(
            "sharded{}|{:?}|{:?}|cfg{:?}|perworker{}|ssp{:?}|scale{:?}|warmup{}|seed{:#x}|threads{}",
            self.sharded_driver(),
            self.engine,
            self.workload,
            self.cfg,
            self.per_worker,
            ssp_gate,
            self.effective_scale(),
            self.run_cfg.warmup,
            self.run_cfg.seed,
            self.run_cfg.threads,
        )
    }

    /// Cache key of the full cell (warm prefix + measured length).
    fn cell_key(&self) -> String {
        format!("{}|txns{}", self.warm_key(), self.run_cfg.txns)
    }
}

/// One executed cell: the deterministic result plus the engines (one per
/// shard; exactly one for the single/shared drivers) and the host
/// wall-clock of the measured phase.
pub struct CellOut {
    /// Merged measurements (deterministic).
    pub result: RunResult,
    /// Post-run engines in worker order — empty on a result-memo hit
    /// ([`MatrixRunner::run`] never returns engines).
    pub engines: Vec<AnyEngine>,
    /// Host wall-clock of the measured phase (zero on a memo hit).
    pub host_elapsed: Duration,
}

#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
enum WarmAny {
    Single(WarmSingle<AnyEngine>),
    Parallel(WarmParallel<AnyEngine, Box<dyn Workload>>),
}

#[derive(Default)]
struct WarmStore {
    /// Outstanding requests per warm key, registered batch-wide up front.
    interest: HashMap<String, usize>,
    /// Warm snapshots kept only while interest remains.
    snapshots: HashMap<String, WarmAny>,
}

/// The pooled matrix executor. See the module docs.
pub struct MatrixRunner {
    pool: usize,
    cache_enabled: bool,
    results: Mutex<HashMap<String, RunResult>>,
    warm: Mutex<WarmStore>,
    memo_hits: AtomicU64,
    warm_hits: AtomicU64,
    cold_builds: AtomicU64,
}

impl Default for MatrixRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl MatrixRunner {
    /// A runner with the default pool: `SSP_BENCH_HOST_THREADS` if set,
    /// otherwise the host's available parallelism.
    pub fn new() -> Self {
        let pool = std::env::var("SSP_BENCH_HOST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self::with_pool(pool)
    }

    /// A runner with an explicit host-thread pool size.
    pub fn with_pool(pool: usize) -> Self {
        assert!(pool >= 1, "at least one pool thread");
        Self {
            pool,
            cache_enabled: true,
            results: Mutex::new(HashMap::new()),
            warm: Mutex::new(WarmStore::default()),
            memo_hits: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            cold_builds: AtomicU64::new(0),
        }
    }

    /// Disables the engine cache and the result memo (every cell runs
    /// cold) — the reference configuration of the determinism tests.
    pub fn without_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// The pool size.
    pub fn pool_threads(&self) -> usize {
        self.pool
    }

    /// `(result-memo hits, warm-snapshot hits, cold warm-ups)` so far.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.warm_hits.load(Ordering::Relaxed),
            self.cold_builds.load(Ordering::Relaxed),
        )
    }

    /// One line for bench footers: pool size and cache effectiveness.
    pub fn stats_line(&self) -> String {
        let (memo, warm, cold) = self.cache_stats();
        format!(
            "host pool: {} thread(s); cells memoized: {memo}, warm restores: {warm}, cold warm-ups: {cold}",
            self.pool
        )
    }

    /// Runs every cell and returns the results in spec order. Pooled,
    /// memoized, warm-cached — and bit-identical to cold sequential
    /// per-cell execution (the determinism contract above).
    pub fn run(&self, specs: &[CellSpec]) -> Vec<RunResult> {
        self.run_pooled(specs, false)
            .into_iter()
            .map(|c| c.result)
            .collect()
    }

    /// [`MatrixRunner::run`], returning the post-run engines and host
    /// timing per cell. Skips the result memo (a memoized result has no
    /// engines to hand back) but still restores warm snapshots.
    pub fn run_full(&self, specs: &[CellSpec]) -> Vec<CellOut> {
        self.run_pooled(specs, true)
    }

    /// Runs cells one at a time on the calling thread, bypassing the pool
    /// and the result memo — for targets whose *host* timing is the
    /// measurement (thread-scaling curves, recovery latency): cells must
    /// not compete with pool neighbours for cores.
    pub fn run_exclusive(&self, specs: &[CellSpec]) -> Vec<CellOut> {
        self.register_interest(specs);
        specs.iter().map(|s| self.exec(s, true)).collect()
    }

    fn register_interest(&self, specs: &[CellSpec]) {
        if !self.cache_enabled {
            return;
        }
        let mut store = self.warm.lock().expect("warm store");
        for spec in specs {
            *store.interest.entry(spec.warm_key()).or_default() += 1;
        }
    }

    /// Applies `f` to every item over the host-thread pool and returns the
    /// results in item order — the one pooled entry point: spec grids run
    /// through it, and so do targets whose cells are not [`CellSpec`]s
    /// (crash storms, the shared heap, service mode). Items are handed out
    /// in order; scheduling never shows in the results.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let workers = self.pool.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    *slots[i].lock().expect("result slot") = Some(f(item));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every item ran")
            })
            .collect()
    }

    fn run_pooled(&self, specs: &[CellSpec], want_engines: bool) -> Vec<CellOut> {
        self.register_interest(specs);
        self.map(specs, |s| self.exec(s, want_engines))
    }

    fn exec(&self, spec: &CellSpec, want_engines: bool) -> CellOut {
        let cell_key = spec.cell_key();
        if self.cache_enabled && !want_engines {
            let memoized = self
                .results
                .lock()
                .expect("result memo")
                .get(&cell_key)
                .cloned();
            if let Some(result) = memoized {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                self.release_interest(&spec.warm_key());
                return CellOut {
                    result,
                    engines: Vec::new(),
                    host_elapsed: Duration::ZERO,
                };
            }
        }

        let warm = self.obtain_warm(spec);
        let out = match warm {
            WarmAny::Single(w) => {
                let SingleRun {
                    result,
                    engine,
                    host_elapsed,
                } = w.run_measured(spec.run_cfg.txns);
                CellOut {
                    result,
                    engines: vec![engine],
                    host_elapsed,
                }
            }
            WarmAny::Parallel(w) => {
                let p = w.run_measured(spec.run_cfg.txns, spec.run_cfg.mode);
                CellOut {
                    result: p.result,
                    engines: p.shards.into_iter().map(|s| s.engine).collect(),
                    host_elapsed: p.host_elapsed,
                }
            }
        };
        if self.cache_enabled {
            self.results
                .lock()
                .expect("result memo")
                .insert(cell_key, out.result.clone());
        }
        out
    }

    /// Hands out warm state for `spec`: a restored snapshot when the
    /// engine cache holds one, a cold warm-up otherwise. The snapshot is
    /// stored only while other registered cells still share the warm key
    /// (interest counting), so the cache never outgrows the batch.
    fn obtain_warm(&self, spec: &CellSpec) -> WarmAny {
        let warm_key = spec.warm_key();
        if self.cache_enabled {
            let store = self.warm.lock().expect("warm store");
            if let Some(snapshot) = store.snapshots.get(&warm_key) {
                let restored = snapshot.clone();
                drop(store);
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                self.release_interest(&warm_key);
                return restored;
            }
        }
        self.cold_builds.fetch_add(1, Ordering::Relaxed);
        let built = self.build_warm(spec);
        if self.cache_enabled {
            let mut store = self.warm.lock().expect("warm store");
            let remaining = match store.interest.get_mut(&warm_key) {
                Some(n) => {
                    *n = n.saturating_sub(1);
                    *n
                }
                None => 0,
            };
            if remaining > 0 {
                store.snapshots.insert(warm_key, built.clone());
            } else {
                // Concurrent cold builds of the same key race the hit
                // check above: an earlier racer may have stored a
                // snapshot after this cell's interest was already the
                // last one. The final decrementer sweeps it out so no
                // zero-interest snapshot outlives the batch.
                store.snapshots.remove(&warm_key);
            }
        }
        built
    }

    fn release_interest(&self, warm_key: &str) {
        if !self.cache_enabled {
            return;
        }
        let mut store = self.warm.lock().expect("warm store");
        if let Some(n) = store.interest.get_mut(warm_key) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                store.snapshots.remove(warm_key);
            }
        }
    }

    /// Cold warm-up of one cell: engines and workloads are built fresh
    /// (on each worker's own thread for the sharded driver).
    fn build_warm(&self, spec: &CellSpec) -> WarmAny {
        let (kind, scale) = (spec.workload, spec.effective_scale());
        if !spec.sharded_driver() {
            let engine = AnyEngine::build(spec.engine, &spec.cfg, &spec.ssp_cfg);
            return WarmAny::Single(warm_single(
                engine,
                make_workload(kind, scale),
                &spec.run_cfg,
            ));
        }
        let threads = spec.run_cfg.threads;
        let shard_cfgs: Vec<MachineConfig> = if spec.per_worker {
            vec![spec.cfg.clone(); threads]
        } else {
            (0..threads)
                .map(|w| spec.cfg.shard_slice_for(threads, w))
                .collect()
        };
        let (engine, ssp_cfg) = (spec.engine, spec.ssp_cfg.clone());
        WarmAny::Parallel(warm_parallel(
            move |w| AnyEngine::build(engine, &shard_cfgs[w], &ssp_cfg),
            move |_w| make_workload(kind, scale),
            &spec.run_cfg,
        ))
    }
}

// The runner is shared by reference across its pool threads.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<MatrixRunner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env_setup;
    use ssp_workloads::runner::ExecMode;

    fn small_run(threads: usize) -> RunConfig {
        RunConfig {
            txns: 30,
            warmup: 6,
            threads,
            seed: 11,
            mode: ExecMode::Threaded,
        }
    }

    fn grid() -> Vec<CellSpec> {
        let cfg = MachineConfig::default().with_cores(2);
        let ssp = SspConfig::default();
        let mut specs = Vec::new();
        for ekind in [EngineKind::Ssp, EngineKind::Undo] {
            for threads in [1usize, 2] {
                specs.push(CellSpec::new(
                    ekind,
                    WorkloadKind::Sps,
                    &cfg,
                    &ssp,
                    Scale::SMOKE,
                    &small_run(threads),
                ));
            }
        }
        // A duplicate cell: exercises the result memo.
        specs.push(specs[0].clone());
        specs
    }

    #[test]
    fn pooled_matches_direct_per_cell_execution() {
        let specs = grid();
        let runner = MatrixRunner::with_pool(4);
        let pooled = runner.run(&specs);
        let cold = MatrixRunner::with_pool(1).without_cache();
        for (spec, got) in specs.iter().zip(&pooled) {
            assert_eq!(got, &cold.run(std::slice::from_ref(spec))[0]);
        }
        // A second pass over the same grid is served from the result memo
        // (the first pass may race its duplicate cell across pool
        // threads, so only the re-run is a deterministic memo assertion).
        let again = runner.run(&specs);
        assert_eq!(again, pooled);
        let (memo, _, _) = runner.cache_stats();
        assert!(
            memo >= specs.len() as u64,
            "the second pass must hit the memo"
        );
    }

    #[test]
    fn warm_cache_interest_is_bounded() {
        let specs = grid();
        let runner = MatrixRunner::with_pool(1);
        let _ = runner.run(&specs);
        let store = runner.warm.lock().unwrap();
        assert!(
            store.snapshots.is_empty(),
            "all snapshots dropped once their last consumer ran"
        );
    }

    #[test]
    fn env_setup_quick_matches_default_shape() {
        // Both modes produce a config the runner accepts.
        let (run_cfg, scale) = env_setup(1);
        assert!(run_cfg.txns > 0);
        assert!(scale.keys > 0);
    }
}
