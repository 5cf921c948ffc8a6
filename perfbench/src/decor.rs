//! Timing decorators handed to the drivers through their factories.
//!
//! [`TimedEngine`] wraps a [`TxnEngine`] and [`TimedWorkload`] wraps a
//! [`Workload`]; both forward every call unchanged, so the simulated
//! machine sees exactly the call sequence it would see without them.
//! They read only the host clock and the shard's virtual cycle clock,
//! which recording never advances.

use std::time::Instant;

use rand::rngs::SmallRng;
use ssp_simulator::addr::{VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::machine::Machine;
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_workloads::runner::Workload;

use crate::trace::{lock, Kind, Shared};

/// Runs the engine call `f` inside a span of `kind` when tracing is on.
/// Engine calls contain no other span, so one lock records the span.
fn span<R>(trace: &Shared, on: bool, kind: Kind, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    lock(trace).leaf(kind, start, end);
    r
}

/// Builds an engine inside a [`Kind::Build`] span (timed in every run:
/// it is part of `setup_s`).
pub fn build<E: TxnEngine>(trace: &Shared, make: impl FnOnce() -> E) -> TimedEngine<E> {
    lock(trace).enter(Kind::Build);
    let inner = make();
    lock(trace).exit();
    TimedEngine::new(inner, trace.clone())
}

/// Engine decorator: per-call spans when tracing, exact begin → commit
/// virtual latency always.
pub struct TimedEngine<E: TxnEngine> {
    inner: E,
    trace: Shared,
    tracing: bool,
    /// Virtual clock at the open transaction's `begin`.
    begun_at: u64,
    /// Set by `recover()`, cleared by `begin()`: loads outside a
    /// transaction in between are the oracle's read-back.
    recovered: bool,
}

impl<E: TxnEngine> TimedEngine<E> {
    fn new(inner: E, trace: Shared) -> Self {
        let tracing = lock(&trace).tracing();
        Self {
            inner,
            trace,
            tracing,
            begun_at: 0,
            recovered: false,
        }
    }
}

impl<E: TxnEngine> Drop for TimedEngine<E> {
    fn drop(&mut self) {
        // Drop must not panic: skip the snapshot if a panicking thread
        // poisoned the trace.
        if let Ok(mut t) = self.trace.lock() {
            t.stats_end = Some(self.inner.machine().stats().clone());
        }
    }
}

impl<E: TxnEngine> TxnEngine for TimedEngine<E> {
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
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, Kind::MapPage, || {
            inner.map_new_page(core)
        })
    }
    fn begin(&mut self, core: CoreId) {
        self.recovered = false;
        if self.tracing {
            lock(&self.trace).next_txn();
        }
        self.begun_at = self.inner.machine().cycles(core);
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, Kind::Begin, || inner.begin(core));
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        let kind = if self.recovered && !self.inner.in_txn(core) {
            Kind::Verify
        } else {
            Kind::Load
        };
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, kind, || {
            inner.load(core, addr, buf)
        });
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, Kind::Store, || {
            inner.store(core, addr, data)
        });
    }
    fn commit(&mut self, core: CoreId) {
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, Kind::Commit, || {
            inner.commit(core)
        });
        let m = self.inner.machine();
        // A transaction the power cut tore is not a committed sample.
        if !m.power_lost() {
            let cycles = m.cycles(core) - self.begun_at;
            let mut t = lock(&self.trace);
            if !t.in_setup() {
                t.lat.push(cycles);
            }
        }
    }
    fn abort(&mut self, core: CoreId) {
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, Kind::Abort, || inner.abort(core));
    }
    fn crash(&mut self) {
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, Kind::Crash, || inner.crash());
    }
    fn recover(&mut self) {
        let inner = &mut self.inner;
        span(&self.trace, self.tracing, Kind::Recover, || inner.recover());
        self.recovered = true;
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// Workload decorator: spans around `setup` (always) and `run_txn`
/// (when tracing); snapshots the machine counters when set-up ends.
#[derive(Clone)]
pub struct TimedWorkload<W> {
    inner: W,
    trace: Shared,
    tracing: bool,
}

impl<W: Workload> TimedWorkload<W> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: W, trace: &Shared) -> Self {
        let tracing = lock(trace).tracing();
        Self {
            inner,
            trace: trace.clone(),
            tracing,
        }
    }
}

impl<W: Workload + Clone + 'static> Workload for TimedWorkload<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn setup(&mut self, engine: &mut dyn TxnEngine, core: CoreId) {
        lock(&self.trace).enter(Kind::Setup);
        self.inner.setup(engine, core);
        let mut t = lock(&self.trace);
        t.exit();
        t.stats_setup = Some(engine.machine().stats().clone());
    }
    fn run_txn(&mut self, engine: &mut dyn TxnEngine, core: CoreId, rng: &mut SmallRng) {
        if !self.tracing {
            return self.inner.run_txn(engine, core, rng);
        }
        {
            let mut t = lock(&self.trace);
            // A body run outside an engine transaction (shared-heap
            // speculation) starts its own transaction id.
            if !engine.in_txn(core) {
                t.next_txn();
            }
            t.enter(Kind::RunTxn);
        }
        self.inner.run_txn(engine, core, rng);
        lock(&self.trace).exit();
    }
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
}
