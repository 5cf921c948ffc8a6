//! The driver kernel: every multi-shard run in this crate is built from
//! two entry points, and all threading and rendezvous live here.
//!
//! * [`fan_out`] builds the shards — construction, workload setup and
//!   warm-up. In [`ExecMode::Threaded`] each shard's closure runs inside
//!   its own worker thread, so construction cost is parallel.
//! * [`drive`] runs one stepped phase over built [`Shard`]s. Every epoch
//!   each shard *steps* its virtual clock to the epoch bound, *deposits*
//!   into its slot of a shared [`Board`], one [`Merge`] runs over all the
//!   slots on the barrier leader, and each shard *absorbs* its reply
//!   before its bound moves one epoch on. The phase ends after the first
//!   epoch that left no shard with work and that the merge settled.
//!
//! There are three merges: [`NoMerge`], [`IcMerge`] (the cross-shard
//! memory interconnect) and the shared heap's OCC validation
//! (`shared::OccMerge`, which optionally arbitrates too). An independent
//! phase — shards that share nothing — is one epoch of [`UNBOUNDED`]
//! length under [`NoMerge`].
//!
//! Threaded and sequential execution run the same step, deposit, merge
//! and absorb code in the same per-shard order; only the interleaving of
//! different shards differs, and shards touch nothing of each other's
//! outside the merge, whose inputs are all shard-local virtual state in
//! worker order. Determinism follows from that structure rather than from
//! each driver being careful.

use std::mem;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ssp_simulator::config::MachineConfig;
use ssp_simulator::interconnect::{EpochCharge, Interconnect, LlcEvent, MemEvent};
use ssp_simulator::machine::Machine;

use crate::runner::{ExecMode, SHARD_CORE};

/// The epoch length of an independent phase: a single epoch that no
/// clock ever reaches.
const UNBOUNDED: u64 = u64::MAX;

/// One shard of a phase, as the kernel steps it. `X` is the merge's
/// per-shard payload: filled by [`deposit`](Shard::deposit), replaced by
/// the leader's reply, taken in by [`absorb`](Shard::absorb).
pub(crate) trait Shard<X>: Send {
    /// The shard's machine: its clock, event streams and epoch charges.
    fn machine(&mut self) -> &mut Machine;

    /// Runs until the shard's clock reaches `until` or its work runs out;
    /// returns whether work is left.
    fn step(&mut self, until: u64) -> bool;

    /// Fills this epoch's payload.
    fn deposit(&mut self, _x: &mut X) {}

    /// Takes in the leader's reply, after the kernel applied the shard's
    /// interconnect charge. Returns `true` if a power cut reset the
    /// shard's clock; its epoch ladder then restarts from the recovered
    /// clock.
    fn absorb(&mut self, _x: &mut X) -> bool {
        false
    }
}

/// Every shard's deposit of one epoch, in worker order — what a merge
/// sees. Slots persist across epochs: buffers are swapped in and out, so
/// the event streams ping-pong instead of being reallocated.
pub(crate) struct Board<X> {
    /// Memory-event streams (filled only under an arbitrating merge).
    pub(crate) mem: Vec<Vec<MemEvent>>,
    /// Shared-LLC probe streams.
    pub(crate) llc: Vec<Vec<LlcEvent>>,
    /// Interconnect charges, the arbitrating merge's reply.
    pub(crate) charges: Vec<EpochCharge>,
    /// Merge payloads.
    pub(crate) x: Vec<X>,
    arbitrates: bool,
    /// Some shard has work left.
    more: bool,
    /// Some shard lost power since the previous merge.
    cut: bool,
    done: bool,
}

impl<X> Board<X> {
    /// Runs `merge` over the deposits and decides whether the phase ends.
    fn settle<M: Merge<X> + ?Sized>(&mut self, merge: &mut M) {
        let cut = mem::take(&mut self.cut);
        let settled = merge.merge(self, cut);
        self.done = !mem::take(&mut self.more) && settled;
    }
}

/// The policy run once per epoch over all deposits, on one thread.
pub(crate) trait Merge<X>: Send {
    /// The epoch length in cycles of each shard's own clock:
    /// [`UNBOUNDED`] unless the merge needs the shards to meet.
    fn epoch(&self) -> u64 {
        UNBOUNDED
    }

    /// Whether the merge consumes the shards' memory-event streams and
    /// replies with interconnect charges; otherwise the streams are
    /// discarded.
    fn arbitrates(&self) -> bool {
        false
    }

    /// Merges one epoch. `cut` says some shard lost power since the
    /// previous merge. Returns whether the epoch settled every shard.
    fn merge(&mut self, board: &mut Board<X>, cut: bool) -> bool;
}

/// The merge of an independent phase: there is nothing to merge.
pub(crate) struct NoMerge;

impl<X> Merge<X> for NoMerge {
    fn merge(&mut self, _board: &mut Board<X>, _cut: bool) -> bool {
        true
    }
}

/// The interconnect merge: every shard's streams go through one shared
/// [`Interconnect`] in `(local time, worker index)` order, and each
/// shard's cross-shard delay comes back as its charge.
pub(crate) struct IcMerge {
    cfg: MachineConfig,
    ic: Option<Interconnect>,
}

impl IcMerge {
    /// Arbitrates with `cfg`'s controller. Every driver passes worker 0's
    /// config, so no barrier leader's own config can decide anything.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            ic: None,
        }
    }
}

impl<X> Merge<X> for IcMerge {
    fn epoch(&self) -> u64 {
        self.cfg.interconnect.epoch_cycles.max(1)
    }

    fn arbitrates(&self) -> bool {
        true
    }

    fn merge(&mut self, board: &mut Board<X>, cut: bool) -> bool {
        if cut {
            // Power cycled machine-wide: the controller's queues are gone
            // too, and the recovered clocks restart near zero.
            self.ic = None;
        }
        let (cfg, shards) = (&self.cfg, board.mem.len());
        let ic = self
            .ic
            .get_or_insert_with(|| Interconnect::new(cfg, shards));
        board.charges = ic.arbitrate_epoch(&board.mem, &board.llc);
        true
    }
}

/// One shard's cursor through a phase: its epoch bound and its payload
/// buffer.
struct Lane<S, X> {
    shard: S,
    w: usize,
    until: u64,
    x: X,
    cut: bool,
}

impl<S: Shard<X>, X> Lane<S, X> {
    /// Steps to the bound and fills the payload; returns whether work is
    /// left.
    fn step(&mut self) -> bool {
        let more = self.shard.step(self.until);
        self.shard.deposit(&mut self.x);
        more
    }

    /// Moves the epoch's streams and payload into the shard's slot.
    fn deposit(&mut self, board: &mut Board<X>, more: bool) {
        let machine = self.shard.machine();
        if board.arbitrates {
            machine.take_mem_events_into(&mut board.mem[self.w]);
            machine.take_llc_events_into(&mut board.llc[self.w]);
        } else {
            machine.discard_mem_events();
        }
        mem::swap(&mut self.x, &mut board.x[self.w]);
        board.more |= more;
        board.cut |= mem::take(&mut self.cut);
    }

    /// Picks up the reply and applies the interconnect charge; returns
    /// whether the phase is over.
    fn collect(&mut self, board: &mut Board<X>) -> bool {
        mem::swap(&mut self.x, &mut board.x[self.w]);
        if board.arbitrates {
            self.shard
                .machine()
                .apply_epoch_charge(SHARD_CORE, &board.charges[self.w]);
        }
        board.done
    }

    /// Absorbs the reply and moves the bound one epoch on — from the
    /// recovered clock if a power cut reset it.
    fn absorb(&mut self, epoch: u64) {
        self.cut = self.shard.absorb(&mut self.x);
        let from = if self.cut {
            self.shard.machine().cycles(SHARD_CORE)
        } else {
            self.until
        };
        self.until = from.saturating_add(epoch);
    }
}

/// Builds `n` shards, `f(w)` for worker `w`, in worker order. In
/// [`ExecMode::Threaded`] each call runs inside its own worker thread;
/// [`ExecMode::Sequential`] calls them in order on the calling thread.
/// Shards never interact while being built, so both produce the same
/// shards.
///
/// # Panics
///
/// Panics if `n` is zero or any call panics.
pub(crate) fn fan_out<T: Send>(mode: ExecMode, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(n >= 1, "at least one worker");
    match mode {
        ExecMode::Sequential => (0..n).map(f).collect(),
        ExecMode::Threaded => std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..n).map(|w| scope.spawn(move || f(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked while building"))
                .collect()
        }),
    }
}

/// Runs one phase over `shards`, with `merge` settling every epoch (see
/// the module docs), then hands each shard to `finish` — inside its worker's thread
/// in threaded mode, so a shard's closing work stays where its memory
/// lives. Returns the finished shards in worker order and the host time
/// of the phase proper: in threaded mode it is bracketed by a rendezvous
/// with every worker, so thread start-up and `finish` stay outside it.
///
/// # Panics
///
/// Panics if a shard, the merge or `finish` panics; in threaded mode the
/// poisoned rendezvous wakes every other worker, so the run fails instead
/// of hanging.
pub(crate) fn drive<S, X, M, T>(
    mode: ExecMode,
    shards: Vec<S>,
    merge: &mut M,
    finish: impl Fn(S) -> T + Sync,
) -> (Vec<T>, Duration)
where
    S: Shard<X>,
    X: Default + Send,
    M: Merge<X> + ?Sized,
    T: Send,
{
    let (n, epoch) = (shards.len(), merge.epoch());
    let mut board = Board {
        mem: vec![Vec::new(); n],
        llc: vec![Vec::new(); n],
        charges: vec![EpochCharge::default(); n],
        x: (0..n).map(|_| X::default()).collect(),
        arbitrates: merge.arbitrates(),
        more: false,
        cut: false,
        done: false,
    };
    let mut lanes: Vec<Lane<S, X>> = shards
        .into_iter()
        .enumerate()
        .map(|(w, mut shard)| Lane {
            until: shard.machine().cycles(SHARD_CORE).saturating_add(epoch),
            shard,
            w,
            x: X::default(),
            cut: false,
        })
        .collect();
    if mode == ExecMode::Sequential {
        let t0 = Instant::now();
        while !board.done {
            for lane in &mut lanes {
                let more = lane.step();
                lane.deposit(&mut board, more);
            }
            board.settle(merge);
            for lane in &mut lanes {
                lane.collect(&mut board);
                lane.absorb(epoch);
            }
        }
        let host_elapsed = t0.elapsed();
        return (
            lanes.into_iter().map(|l| finish(l.shard)).collect(),
            host_elapsed,
        );
    }

    // `epoch` among the workers around every merge, `bracket` between
    // the workers and the coordinator around the whole phase.
    let barriers = [PoisonBarrier::new(n), PoisonBarrier::new(n + 1)];
    let [epoch_barrier, bracket] = &barriers;
    let state = Mutex::new((board, merge));
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|mut lane| {
                let (barriers, state, finish) = (&barriers, &state, &finish);
                scope.spawn(move || {
                    let _poison = PoisonOnPanic(barriers);
                    bracket.wait();
                    loop {
                        let more = lane.step();
                        lane.deposit(&mut lock(state).0, more);
                        if epoch_barrier.wait() {
                            let (board, merge) = &mut *lock(state);
                            board.settle(*merge);
                        }
                        epoch_barrier.wait();
                        let done = lane.collect(&mut lock(state).0);
                        lane.absorb(epoch);
                        if done {
                            break;
                        }
                    }
                    bracket.wait();
                    finish(lane.shard)
                })
            })
            .collect();
        bracket.wait();
        let t0 = Instant::now();
        bracket.wait();
        let host_elapsed = t0.elapsed();
        let shards = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (shards, host_elapsed)
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a peer worker thread panicked")
}

/// Poisons the phase's barriers if the owning thread unwinds, so a panic
/// in any worker fails the whole run loudly instead of deadlocking the
/// others.
struct PoisonOnPanic<'a>(&'a [PoisonBarrier; 2]);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.iter().for_each(PoisonBarrier::poison);
        }
    }
}

/// A reusable rendezvous like [`std::sync::Barrier`], except that a
/// panicking participant can [`poison`](PoisonBarrier::poison) it: every
/// parked or future waiter panics instead of staying parked forever. An
/// epoch phase rendezvouses hundreds of times per run, so without
/// poisoning a single engine panic inside one worker would hang the
/// other workers (and the coordinator) — in CI a job timeout with the
/// original panic message never surfaced.
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    /// Recovers the state even if a panic inside `wait` poisoned the
    /// mutex — the barrier's own `poisoned` flag is the source of truth.
    fn state(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until `n` participants arrive; returns `true` for exactly
    /// one of them (the leader).
    ///
    /// # Panics
    ///
    /// Panics if the barrier was poisoned (before or while waiting).
    fn wait(&self) -> bool {
        let mut st = self.state();
        assert!(!st.poisoned, "a peer worker thread panicked");
        let generation = st.generation;
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            return true;
        }
        while st.generation == generation && !st.poisoned {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        assert!(!st.poisoned, "a peer worker thread panicked");
        false
    }

    fn poison(&self) {
        self.state().poisoned = true;
        self.cv.notify_all();
    }
}
