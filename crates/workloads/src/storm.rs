//! The crash-storm driver: scheduled power cuts under full workload
//! traffic, with oracle-verified recovery after every storm.
//!
//! A *storm* is one scheduled power cut plus the crash/recovery/verify
//! sequence it forces. The driver arms [`CrashPoint`]s from a
//! [`StormSchedule`] — virtual-time deltas or named engine fault sites —
//! runs the real workloads over sharded engines exactly like
//! [`runner::run_parallel`](crate::runner::run_parallel), and after every
//! cut replays recovery and checks the shard against an [`Oracle`] of
//! masked cache lines. All simulated counters, data-loss verdicts and NVRAM
//! fingerprints are bit-identical across execution modes and repeated
//! runs for a fixed seed + schedule.
//!
//! # Torn-transaction resolution
//!
//! The driver polls [`Machine::power_lost`] after every transaction, so a
//! cut always lands *inside* the transaction just executed (its commit
//! returned obliviously over frozen memory). Whether that transaction
//! survived depends on whether the engine's commit mark became durable
//! before the freeze — the engines guarantee it is all-or-nothing. The
//! driver therefore checks two oracle candidates, *torn-dropped* (the
//! committed lines) and *torn-kept* (those plus the torn transaction's
//! lines), and accepts whichever matches the recovered state. A
//! transaction matching neither, or any earlier committed transaction
//! missing, counts as **data loss** ([`StormShardReport::lost_txns`],
//! which must be zero for every engine). The shared-heap crash probe and
//! service mode resolve their cuts the same way, through the same code.
//!
//! # Crash during recovery
//!
//! With [`StormSchedule::crash_during_recovery`] set, every storm arms a
//! [`FaultSite::Recovery`] cut *between* `crash()` and `recover()`: the
//! first recovery reads its persistent state and is then itself cut short
//! (its writes are dropped), and a second, clean crash + recovery must
//! still restore the exact committed prefix — recovery must be idempotent.
//!
//! # Interconnect epoch storms
//!
//! When worker 0's shard enables the cross-shard interconnect, cuts are
//! restricted to [`FaultSite::EpochBoundary`]: every shard arms the same
//! schedule, the epoch charge lands exactly once per epoch per shard, so
//! the power fails on *all* shards at the same epoch boundary (a
//! machine-wide cut). All shards recover, and the interconnect merge
//! drops its controller — post-crash local clocks restart at zero, so the
//! merged event streams stay monotonic. Mid-epoch cuts are not combined
//! with the interconnect model.
//!
//! [`Machine::power_lost`]: ssp_simulator::machine::Machine::power_lost

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssp_simulator::addr::{VirtAddr, Vpn};
use ssp_simulator::cache::CoreId;
use ssp_simulator::fault::{CrashPoint, FaultSite};
use ssp_simulator::machine::Machine;
use ssp_simulator::obs::ObsEvent;
use ssp_txn::engine::{TxnEngine, TxnStats};
use ssp_txn::history::Oracle;

use crate::drive::{drive, fan_out, IcMerge, Merge, NoMerge, Shard};
use crate::runner::{worker_seed, worker_share, RunConfig, Workload, SHARD_CORE};

/// One scheduled cut, relative to the moment it is armed.
///
/// Crashing resets the machine's cycle clock to zero, so absolute cycle
/// targets would be meaningless across storms; [`AfterCycles`] is a
/// *delta* from the clock at arm time (start of the run or end of the
/// previous storm's verification).
///
/// [`AfterCycles`]: StormPoint::AfterCycles
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormPoint {
    /// Cut the power once the shard has executed this many further
    /// cycles.
    AfterCycles(u64),
    /// Cut the power at the `hits`-th pass of an engine fault site
    /// (1-based), counted from arm time.
    AtSite {
        /// The engine hook to cut at.
        site: FaultSite,
        /// Which pass of the hook cuts (1-based).
        hits: u32,
    },
}

/// A crash schedule for one storm run (the default one never cuts).
#[derive(Debug, Clone, Default)]
pub struct StormSchedule {
    /// The cuts, armed in order; each fires once, then the next is armed
    /// after the storm's recovery has been verified.
    pub points: Vec<StormPoint>,
    /// Additionally cut every storm's *first* recovery short at
    /// [`FaultSite::Recovery`], forcing a second, clean recovery.
    pub crash_during_recovery: bool,
    /// After the last point, wrap around and keep arming from the first —
    /// a periodic storm ("crash density") instead of a finite list.
    pub rearm: bool,
}

impl StormSchedule {
    /// A periodic schedule: cut every `period` cycles, forever.
    pub fn every_cycles(period: u64) -> Self {
        Self {
            points: vec![StormPoint::AfterCycles(period)],
            crash_during_recovery: false,
            rearm: true,
        }
    }

    /// A one-shot schedule cutting at the given site pass.
    pub fn once_at(site: FaultSite, hits: u32) -> Self {
        Self {
            points: vec![StormPoint::AtSite { site, hits }],
            crash_during_recovery: false,
            rearm: false,
        }
    }

    /// Arms point `next` (wrapping with [`rearm`](Self::rearm)) on
    /// `machine`, translating a cycle delta against the shard's clock; a
    /// no-op once a one-shot schedule is spent.
    pub(crate) fn arm_next(&self, next: usize, machine: &mut Machine) {
        let n = self.points.len();
        let idx = if self.rearm && n > 0 { next % n } else { next };
        let Some(&point) = self.points.get(idx) else {
            return;
        };
        machine.arm_crash(match point {
            StormPoint::AfterCycles(delta) => {
                CrashPoint::AtCycle(machine.cycles(SHARD_CORE) + delta)
            }
            StormPoint::AtSite { site, hits } => CrashPoint::AtSite { site, hits },
        });
    }
}

/// What happened on one shard over a whole storm run. Every field is
/// simulated state — bit-identical across execution modes and repeats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StormShardReport {
    /// Worker index.
    pub worker: usize,
    /// Transactions executed (torn ones included).
    pub txns: u64,
    /// Power cuts that tripped (each followed by recovery + verify).
    pub storms: u64,
    /// Transactions whose cut landed before the commit mark was durable —
    /// correctly rolled back by recovery.
    pub torn_txns: u64,
    /// Cut transactions whose commit mark survived — correctly kept.
    pub kept_torn_txns: u64,
    /// First recoveries that were themselves cut short (only with
    /// [`StormSchedule::crash_during_recovery`]).
    pub torn_recoveries: u64,
    /// Committed transactions missing or corrupted after a recovery.
    /// **Must be zero for every engine** — the paper's durability claim.
    pub lost_txns: u64,
    /// NVRAM line reads performed by recovery (summed over storms).
    pub recovery_nvram_reads: u64,
    /// NVRAM line writes performed by recovery (summed over storms).
    pub recovery_nvram_writes: u64,
    /// Estimated recovery latency in cycles: NVRAM reads and writes at
    /// the configured device latencies (summed over storms).
    pub recovery_cycles_est: u64,
    /// Workload cycles executed across all power segments (the clock
    /// resets at each crash; this accumulates the segments).
    pub elapsed_cycles: u64,
    /// NVRAM fingerprint of the final durable state (taken at the final
    /// power-off, before the last recovery).
    pub fingerprint: u64,
    /// Crash flight recorder: the last [`ObsConfig::flight_tail`] ring
    /// events preceding the most recent power cut, drained at the cut
    /// instant (before volatile state is discarded). Empty unless the
    /// shard's [`ObsConfig`] enables the event ring. Events are stamped
    /// with virtual time, so the tail is bit-identical across execution
    /// modes and repeats.
    ///
    /// [`ObsConfig`]: ssp_simulator::obs::ObsConfig
    /// [`ObsConfig::flight_tail`]: ssp_simulator::obs::ObsConfig::flight_tail
    pub flight_tail: Vec<ObsEvent>,
}

impl StormShardReport {
    fn merge(&mut self, o: &StormShardReport) {
        self.txns += o.txns;
        self.storms += o.storms;
        self.torn_txns += o.torn_txns;
        self.kept_torn_txns += o.kept_torn_txns;
        self.torn_recoveries += o.torn_recoveries;
        self.lost_txns += o.lost_txns;
        self.recovery_nvram_reads += o.recovery_nvram_reads;
        self.recovery_nvram_writes += o.recovery_nvram_writes;
        self.recovery_cycles_est += o.recovery_cycles_est;
        self.elapsed_cycles = self.elapsed_cycles.max(o.elapsed_cycles);
        self.flight_tail.extend_from_slice(&o.flight_tail);
    }

    /// Counts one recovery pass's NVRAM traffic and latency estimate.
    fn add_pass(&mut self, pass: RecoveryPass) {
        self.recovery_nvram_reads += pass.nvram_reads;
        self.recovery_nvram_writes += pass.nvram_writes;
        self.recovery_cycles_est += pass.est_cycles;
    }
}

/// Result of a storm run: per-shard reports in worker order.
#[derive(Debug, Clone)]
pub struct StormRun {
    /// Per-shard reports, worker-index order.
    pub shards: Vec<StormShardReport>,
}

impl StormRun {
    /// Sums the shard counters (elapsed is the max — wall-clock).
    pub fn totals(&self) -> StormShardReport {
        let mut t = StormShardReport::default();
        for s in &self.shards {
            t.merge(s);
        }
        t
    }

    /// Order-dependent fold of the shard fingerprints — one number that
    /// changes if any shard's final durable state changes.
    pub fn combined_fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in &self.shards {
            for b in s.fingerprint.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }
}

/// Which oracle candidate the recovered state matched after a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CutVerdict {
    /// The in-flight transaction was rolled back.
    Dropped,
    /// The in-flight transaction's commit mark beat the freeze.
    Kept,
    /// Neither: committed data is missing or corrupted.
    Lost,
}

/// One `recover()` pass: its NVRAM traffic, the latency that traffic
/// implies at the configured device latencies, and the core clock after
/// it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveryPass {
    pub(crate) nvram_reads: u64,
    pub(crate) nvram_writes: u64,
    pub(crate) est_cycles: u64,
    pub(crate) clock: u64,
}

/// A power cut, resolved.
#[derive(Debug, Clone)]
pub(crate) struct Cut {
    pub(crate) verdict: CutVerdict,
    /// The recovery passes: one, or two if the first was itself cut.
    pub(crate) passes: Vec<RecoveryPass>,
}

/// A [`TxnEngine`] wrapper that mirrors every store into an [`Oracle`]
/// while recording is on, and folds a transaction in when its commit
/// returns with the power on. The storm, shared-heap and service drivers
/// wrap each shard's engine so workloads need no oracle plumbing of
/// their own.
#[derive(Debug, Clone)]
pub(crate) struct OracleEngine<E> {
    inner: E,
    oracle: Oracle,
    recording: bool,
}

impl<E: TxnEngine> OracleEngine<E> {
    /// Wraps `inner`; recording starts **off** (workload setup is not
    /// oracle-checked — it runs before any cut can be armed).
    pub(crate) fn new(inner: E) -> Self {
        Self {
            inner,
            oracle: Oracle::new(),
            recording: false,
        }
    }

    /// Turns store recording on or off.
    pub(crate) fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Unwraps.
    pub(crate) fn into_inner(self) -> E {
        self.inner
    }

    /// Resolves a power cut that froze memory with a transaction in
    /// flight: crash, recover — with `cut_recovery`, the first recovery
    /// is itself cut at [`FaultSite::Recovery`] and a second, clean pass
    /// must succeed from the same NVRAM image — then check the two
    /// candidates, transaction dropped (the committed lines) and kept
    /// (plus its pending lines), and fold the pending lines in if kept.
    /// With `charge`, each pass's latency estimate is added to the core
    /// clock (`recover()` itself does not advance it).
    pub(crate) fn resolve_cut(&mut self, cut_recovery: bool, charge: bool) -> Cut {
        let torn = self.oracle.take_pending(SHARD_CORE);
        self.oracle.on_crash();
        self.crash();
        if cut_recovery {
            self.machine_mut().arm_crash(CrashPoint::AtSite {
                site: FaultSite::Recovery,
                hits: 1,
            });
        }
        let mut passes = vec![self.recover_pass(charge)];
        if self.machine().power_lost() {
            self.crash();
            passes.push(self.recover_pass(charge));
        }
        // Both candidates passing means the cut transaction's effect is
        // indistinguishable (e.g. it rewrote identical bytes): dropped.
        // Neither passing is data loss; the run continues from the
        // conservative candidate.
        let (oracle, inner) = (&mut self.oracle, &mut self.inner);
        let verdict = if oracle.verify(inner, SHARD_CORE).is_ok() {
            CutVerdict::Dropped
        } else if oracle.verify_with(inner, SHARD_CORE, &torn).is_ok() {
            oracle.commit_lines(&torn);
            CutVerdict::Kept
        } else {
            CutVerdict::Lost
        };
        Cut { verdict, passes }
    }

    /// The final quiesce: disarm, power off, fingerprint the durable
    /// image, recover, and verify the oracle one last time. Returns the
    /// fingerprint, the recovery pass, and whether verification passed.
    pub(crate) fn quiesce(&mut self) -> (u64, RecoveryPass, bool) {
        self.machine_mut().disarm_crash();
        self.crash();
        self.oracle.on_crash();
        let fingerprint = self.machine().nvram_fingerprint();
        let pass = self.recover_pass(false);
        let ok = self.oracle.verify(&mut self.inner, SHARD_CORE).is_ok();
        (fingerprint, pass, ok)
    }

    fn recover_pass(&mut self, charge: bool) -> RecoveryPass {
        let before = self.machine().stats().clone();
        self.recover();
        let d = self.machine().stats().diff(&before);
        let cfg = self.machine().config();
        let est_cycles = d.nvram_reads * cfg.ns_to_cycles(cfg.nvram.read_ns)
            + d.nvram_writes_total() * cfg.ns_to_cycles(cfg.nvram.write_ns);
        if charge {
            self.machine_mut().add_cycles(SHARD_CORE, est_cycles);
        }
        RecoveryPass {
            nvram_reads: d.nvram_reads,
            nvram_writes: d.nvram_writes_total(),
            est_cycles,
            clock: self.machine().cycles(SHARD_CORE),
        }
    }
}

impl<E: TxnEngine> TxnEngine for OracleEngine<E> {
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
        self.inner.begin(core);
    }
    fn load(&mut self, core: CoreId, addr: VirtAddr, buf: &mut [u8]) {
        self.inner.load(core, addr, buf);
    }
    fn store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        if self.recording {
            self.oracle.record_store(core, addr, data);
        }
        self.inner.store(core, addr, data);
    }
    fn commit(&mut self, core: CoreId) {
        self.inner.commit(core);
        if !self.inner.machine().power_lost() {
            self.oracle.on_commit(core);
        }
    }
    fn abort(&mut self, core: CoreId) {
        self.oracle.on_abort(core);
        self.inner.abort(core);
    }
    fn crash(&mut self) {
        self.inner.crash();
    }
    fn recover(&mut self) {
        self.inner.recover();
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}

/// One shard of a storm run: engine (oracle-wrapped), workload, RNG,
/// schedule cursor, and the accumulating report.
struct StormWorker<E, W> {
    engine: OracleEngine<E>,
    workload: W,
    rng: SmallRng,
    schedule: StormSchedule,
    /// Index of the next schedule point to arm.
    next_point: usize,
    /// Transactions not yet run.
    left: u64,
    /// Cycle count at the start of the current power segment (the clock
    /// resets at each crash; elapsed accumulates segments).
    seg_base: u64,
    report: StormShardReport,
}

impl<E: TxnEngine, W: Workload> StormWorker<E, W> {
    /// Workload setup (not oracle-checked, no cuts armed), then arm the
    /// first point.
    fn new(engine: E, workload: W, cfg: &RunConfig, schedule: &StormSchedule, w: usize) -> Self {
        let mut worker = Self {
            engine: OracleEngine::new(engine),
            workload,
            rng: SmallRng::seed_from_u64(worker_seed(cfg.seed, w)),
            schedule: schedule.clone(),
            next_point: 0,
            left: worker_share(cfg.txns, cfg.threads, w),
            seg_base: 0,
            report: StormShardReport {
                worker: w,
                ..StormShardReport::default()
            },
        };
        worker.workload.setup(&mut worker.engine, SHARD_CORE);
        worker.engine.set_recording(true);
        worker.seg_base = worker.engine.machine().cycles(SHARD_CORE);
        worker.schedule.arm_next(0, worker.engine.machine_mut());
        worker
    }

    /// Runs one transaction and, if the power failed inside it, the full
    /// storm sequence.
    fn storm_txn(&mut self) {
        self.engine.begin(SHARD_CORE);
        self.workload
            .run_txn(&mut self.engine, SHARD_CORE, &mut self.rng);
        self.engine.commit(SHARD_CORE);
        self.report.txns += 1;
        if self.engine.machine().power_lost() {
            self.storm_recover(true);
        }
    }

    /// Crash + recover + verify after a power cut, then arm the next
    /// point. `torn_txn` says a transaction was in flight when the cut
    /// landed (false for epoch-boundary cuts, which land between
    /// transactions).
    fn storm_recover(&mut self, torn_txn: bool) {
        let now = self.engine.machine().cycles(SHARD_CORE);
        self.report.elapsed_cycles += now - self.seg_base.min(now);
        // Flight recorder: drain the tail of the event ring at the cut
        // instant. Replace-latest semantics — the report carries the tail
        // of the *most recent* storm on this shard.
        if self.engine.machine().obs().enabled() {
            let n = self.engine.machine().config().obs.flight_tail;
            self.report.flight_tail = self.engine.machine().obs().tail(n);
        }
        let cut = self
            .engine
            .resolve_cut(self.schedule.crash_during_recovery, false);
        self.report.storms += 1;
        self.report.torn_recoveries += cut.passes.len() as u64 - 1;
        cut.passes.iter().for_each(|&p| self.report.add_pass(p));
        match cut.verdict {
            CutVerdict::Dropped => self.report.torn_txns += u64::from(torn_txn),
            CutVerdict::Kept => self.report.kept_torn_txns += u64::from(torn_txn),
            CutVerdict::Lost => self.report.lost_txns += 1,
        }
        self.seg_base = self.engine.machine().cycles(SHARD_CORE);
        self.next_point += 1;
        self.schedule
            .arm_next(self.next_point, self.engine.machine_mut());
    }

    fn finish(mut self) -> StormShardReport {
        let now = self.engine.machine().cycles(SHARD_CORE);
        self.report.elapsed_cycles += now - self.seg_base.min(now);
        let (fingerprint, pass, ok) = self.engine.quiesce();
        self.report.fingerprint = fingerprint;
        self.report.add_pass(pass);
        self.report.lost_txns += u64::from(!ok);
        self.report
    }
}

impl<E: TxnEngine, W: Workload> Shard<()> for StormWorker<E, W> {
    fn machine(&mut self) -> &mut Machine {
        self.engine.machine_mut()
    }

    fn step(&mut self, until: u64) -> bool {
        while self.left > 0 && self.engine.machine().cycles(SHARD_CORE) < until {
            self.storm_txn();
            self.left -= 1;
        }
        self.left > 0
    }

    /// Epoch storms cut where the epoch charge lands. Identical schedules
    /// and one charge per epoch per shard: either every shard tripped at
    /// this boundary or none did.
    fn absorb(&mut self, _: &mut ()) -> bool {
        let cut = self.engine.machine().power_lost();
        if cut {
            self.storm_recover(false);
            self.engine.machine_mut().discard_mem_events();
        }
        cut
    }
}

/// Runs a crash storm over `cfg.threads` engine shards under the given
/// workload and schedule.
///
/// With the interconnect disabled (worker 0's config decides, as in
/// [`run_parallel`](crate::runner::run_parallel)) the shards are
/// independent and cut wherever the schedule says. With it enabled the
/// shards run in interconnect epochs and the schedule must consist of
/// [`FaultSite::EpochBoundary`] site points: every shard arms the same
/// schedule, so the power fails machine-wide at one boundary, all shards
/// crash, recover and verify, and the controller restarts empty.
///
/// # Panics
///
/// Panics if `cfg.threads` is zero, a worker thread panics, or the
/// interconnect is enabled and the schedule contains
/// non-[`FaultSite::EpochBoundary`] points.
pub fn run_storm<E, W>(
    mk_engine: impl Fn(usize) -> E + Sync,
    mk_workload: impl Fn(usize) -> W + Sync,
    cfg: &RunConfig,
    schedule: &StormSchedule,
) -> StormRun
where
    E: TxnEngine,
    W: Workload,
{
    let workers = fan_out(cfg.mode, cfg.threads, |w| {
        StormWorker::new(mk_engine(w), mk_workload(w), cfg, schedule, w)
    });
    let arbiter = workers[0].engine.machine().config().clone();
    let mut merge: Box<dyn Merge<()>> = if arbiter.interconnect.enabled {
        assert!(
            schedule.points.iter().all(|p| matches!(
                p,
                StormPoint::AtSite {
                    site: FaultSite::EpochBoundary,
                    ..
                }
            )),
            "epoch storms cut at epoch boundaries only"
        );
        Box::new(IcMerge::new(&arbiter))
    } else {
        Box::new(NoMerge)
    };
    let (shards, _) = drive(cfg.mode, workers, &mut *merge, StormWorker::finish);
    StormRun { shards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDist;
    use crate::runner::ExecMode;
    use crate::sps::Sps;
    use ssp_core::engine::Ssp;
    use ssp_core::SspConfig;
    use ssp_simulator::config::MachineConfig;

    fn small_cfg(mode: ExecMode, threads: usize) -> RunConfig {
        RunConfig {
            txns: 120,
            warmup: 0,
            threads,
            seed: 0x0057_0411,
            mode,
        }
    }

    fn run(mode: ExecMode, schedule: &StormSchedule) -> StormRun {
        let cfg = small_cfg(mode, 2);
        run_storm(
            |_| {
                Ssp::new(
                    MachineConfig::default().shard_slice(2),
                    SspConfig::default(),
                )
            },
            |_| Sps::new(256, KeyDist::uniform(256)),
            &cfg,
            schedule,
        )
    }

    #[test]
    fn periodic_storm_trips_and_loses_nothing() {
        let schedule = StormSchedule::every_cycles(5_000);
        let run = run(ExecMode::Threaded, &schedule);
        let t = run.totals();
        assert!(t.storms > 0, "no storm tripped: {t:?}");
        assert_eq!(t.lost_txns, 0, "{t:?}");
        assert!(t.recovery_nvram_reads + t.recovery_nvram_writes > 0);
        assert!(t.recovery_cycles_est > 0);
    }

    #[test]
    fn threaded_and_sequential_storms_are_bit_identical() {
        let schedule = StormSchedule::every_cycles(7_000);
        let a = run(ExecMode::Threaded, &schedule);
        let b = run(ExecMode::Sequential, &schedule);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.combined_fingerprint(), b.combined_fingerprint());
    }

    #[test]
    fn commit_mark_cut_keeps_the_transaction() {
        let schedule = StormSchedule::once_at(FaultSite::CommitMark, 40);
        let run = run(ExecMode::Sequential, &schedule);
        let t = run.totals();
        assert_eq!(t.storms, 2); // one per shard
        assert_eq!(t.kept_torn_txns, 2);
        assert_eq!(t.torn_txns, 0);
        assert_eq!(t.lost_txns, 0);
    }

    #[test]
    fn commit_data_cut_rolls_the_transaction_back() {
        let schedule = StormSchedule::once_at(FaultSite::CommitData, 40);
        let run = run(ExecMode::Sequential, &schedule);
        let t = run.totals();
        assert_eq!(t.storms, 2);
        assert_eq!(t.torn_txns, 2);
        assert_eq!(t.kept_torn_txns, 0);
        assert_eq!(t.lost_txns, 0);
    }

    #[test]
    fn flight_recorder_captures_tail_at_the_cut() {
        use ssp_simulator::obs::{ObsConfig, ObsKind};
        let schedule = StormSchedule::once_at(FaultSite::CommitData, 40);
        let mk_engine = |w: usize| {
            let mut mc = MachineConfig::default().shard_slice_for(2, w);
            mc.obs = ObsConfig::tracing();
            mc.obs.worker = w as u32;
            Ssp::new(mc, SspConfig::default())
        };
        let mk_workload = |_| Sps::new(256, KeyDist::uniform(256));
        let a = run_storm(
            mk_engine,
            mk_workload,
            &small_cfg(ExecMode::Sequential, 2),
            &schedule,
        );
        for s in &a.shards {
            assert!(!s.flight_tail.is_empty(), "shard {} tail empty", s.worker);
            assert!(
                s.flight_tail.iter().any(|e| e.kind == ObsKind::Fault),
                "shard {} tail lacks the fault event: {:?}",
                s.worker,
                s.flight_tail
            );
            assert!(s.flight_tail.iter().all(|e| e.worker == s.worker as u32));
        }
        let b = run_storm(
            mk_engine,
            mk_workload,
            &small_cfg(ExecMode::Threaded, 2),
            &schedule,
        );
        assert_eq!(a.shards, b.shards, "flight tails must be mode-invariant");
    }

    #[test]
    fn crash_during_recovery_still_recovers() {
        let schedule = StormSchedule {
            points: vec![StormPoint::AfterCycles(9_000)],
            crash_during_recovery: true,
            rearm: true,
        };
        let run = run(ExecMode::Threaded, &schedule);
        let t = run.totals();
        assert!(t.storms > 0);
        assert_eq!(t.torn_recoveries, t.storms, "every first recovery cut");
        assert_eq!(t.lost_txns, 0);
    }
}
