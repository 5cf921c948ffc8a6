//! Optimistic concurrency control over one shared, versioned heap.
//!
//! The partitioned drivers in `ssp-workloads` give every worker a
//! disjoint key range, so transactions never conflict. This module is
//! the substrate for the *shared-heap* execution mode: N clients run
//! speculatively against one logical byte heap, buffer their writes,
//! and submit **commit intents** that a deterministic validator orders
//! by (local virtual time, worker index, submission index) and resolves
//! first-committer-wins at epoch boundaries.
//!
//! The design mirrors SSP's own shadow sub-paging shape: a published
//! page version is immutable — readers pin the epoch snapshot via
//! reference-counted copy-on-write pages ([`VersionedHeap`]) while the
//! validator batches the winners' line writes into the next version.
//! Everything here is host-level bookkeeping: simulated timing stays in
//! the per-worker engines, which replay winning intents as real
//! transactions (see `ssp_workloads::shared`).

use std::sync::Arc;

use fxhash::{FxHashMap, FxHashSet};
use ssp_simulator::addr::{VirtAddr, LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};

use crate::engine::line_spans;

/// One copy-on-write page of the versioned heap: the logical bytes plus
/// one version (commit sequence number) per cache line.
#[derive(Debug, Clone)]
pub struct HeapPage {
    /// The page's logical bytes (`PAGE_SIZE` of them).
    bytes: Box<[u8]>,
    /// Commit sequence of the last writer of each line (0 = seed state).
    line_ver: Box<[u64]>,
}

impl HeapPage {
    fn zeroed() -> Self {
        Self {
            bytes: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            line_ver: vec![0u64; LINES_PER_PAGE].into_boxed_slice(),
        }
    }
}

/// The shared, versioned byte heap.
///
/// Pages are held behind [`Arc`]s: cloning the heap clones only the page
/// *table*, so a worker's epoch snapshot pins every page version it can
/// see while the validator publishes new versions copy-on-write
/// (`Arc::make_mut`). `seq` is the global commit sequence number — each
/// validated intent bumps it and stamps the lines it wrote.
#[derive(Debug, Clone, Default)]
pub struct VersionedHeap {
    pages: FxHashMap<u64, Arc<HeapPage>>,
    seq: u64,
}

impl VersionedHeap {
    /// An empty heap at sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current global commit sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of pages the heap has materialised.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Version of the line containing `line_base` (0 if the page was
    /// never materialised).
    pub fn line_version(&self, line_base: u64) -> u64 {
        let addr = VirtAddr::new(line_base);
        match self.pages.get(&addr.vpn().raw()) {
            Some(page) => page.line_ver[addr.page_offset() / LINE_SIZE],
            None => 0,
        }
    }

    /// Seed write used while capturing workload setup: stores `data` at
    /// `addr` without bumping any version (the seed state is version 0,
    /// visible to every snapshot).
    pub fn seed_store(&mut self, addr: VirtAddr, data: &[u8]) {
        for span in line_spans(addr, data.len()) {
            let page = Arc::make_mut(
                self.pages
                    .entry(span.addr.vpn().raw())
                    .or_insert_with(|| Arc::new(HeapPage::zeroed())),
            );
            let off = span.addr.page_offset();
            page.bytes[off..off + span.len]
                .copy_from_slice(&data[span.buf_offset..span.buf_offset + span.len]);
        }
    }

    /// Copies the heap's bytes for `[addr, addr + buf.len())` into `buf`
    /// wherever the covering page is materialised; bytes on absent pages
    /// are left untouched (the caller keeps its fallback content there).
    pub fn read_into(&self, addr: VirtAddr, buf: &mut [u8]) {
        for span in line_spans(addr, buf.len()) {
            if let Some(page) = self.pages.get(&span.addr.vpn().raw()) {
                let off = span.addr.page_offset();
                buf[span.buf_offset..span.buf_offset + span.len]
                    .copy_from_slice(&page.bytes[off..off + span.len]);
            }
        }
    }

    /// Publishes one winning intent: applies its masked line writes
    /// copy-on-write, bumps the commit sequence, and stamps every
    /// written line with it. Returns the intent's commit sequence.
    pub fn publish(&mut self, intent: &CommitIntent) -> u64 {
        self.seq += 1;
        for w in &intent.writes {
            let addr = VirtAddr::new(w.line);
            let page = Arc::make_mut(
                self.pages
                    .entry(addr.vpn().raw())
                    .or_insert_with(|| Arc::new(HeapPage::zeroed())),
            );
            let base = addr.page_offset();
            for i in 0..LINE_SIZE {
                if w.mask & (1u64 << i) != 0 {
                    page.bytes[base + i] = w.data[i];
                }
            }
            page.line_ver[base / LINE_SIZE] = self.seq;
        }
        self.seq
    }
}

/// The buffered bytes of one speculatively written cache line: data plus
/// a per-byte mask (bit `i` set means byte `i` was written).
#[derive(Debug, Clone, Copy)]
pub struct LineWrite {
    /// Line base address (raw).
    pub line: u64,
    /// The 64 buffered bytes (unmasked positions are zero).
    pub data: [u8; LINE_SIZE],
    /// Per-byte write mask.
    pub mask: u64,
}

impl LineWrite {
    fn empty(line: u64) -> Self {
        Self {
            line,
            data: [0; LINE_SIZE],
            mask: 0,
        }
    }

    /// Merges `other`'s masked bytes over this line (later writes win).
    pub fn merge(&mut self, other: &LineWrite) {
        debug_assert_eq!(self.line, other.line);
        for i in 0..LINE_SIZE {
            if other.mask & (1u64 << i) != 0 {
                self.data[i] = other.data[i];
            }
        }
        self.mask |= other.mask;
    }

    /// The maximal runs of masked bytes in ascending order, each as its
    /// start address and bytes.
    pub fn runs(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let lo = mask.trailing_zeros() as usize;
            let len = (mask >> lo).trailing_ones() as usize;
            mask &= !((u64::MAX >> (64 - len)) << lo);
            Some((self.line + lo as u64, &self.data[lo..lo + len]))
        })
    }

    /// Applies this line's masked bytes over `buf` where it overlaps
    /// `[addr, addr + buf.len())`.
    pub fn apply_to(&self, addr: VirtAddr, buf: &mut [u8]) {
        for span in line_spans(addr, buf.len()) {
            if span.addr.line_base().raw() != self.line {
                continue;
            }
            let off = span.addr.line_offset();
            for i in 0..span.len {
                if self.mask & (1u64 << (off + i)) != 0 {
                    buf[span.buf_offset + i] = self.data[off + i];
                }
            }
        }
    }
}

/// Read/write sets plus the write buffer of one in-flight speculative
/// transaction. Reused across transactions (take/clear keep capacity).
#[derive(Debug, Clone, Default)]
pub struct SpecTxn {
    reads: FxHashSet<u64>,
    writes: FxHashMap<u64, LineWrite>,
}

impl SpecTxn {
    /// An empty speculative transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a load of `[addr, addr + len)` in the read set.
    pub fn record_read(&mut self, addr: VirtAddr, len: usize) {
        for span in line_spans(addr, len) {
            self.reads.insert(span.addr.line_base().raw());
        }
    }

    /// Buffers a store of `data` at `addr` (and records the lines in the
    /// write set).
    pub fn buffer_store(&mut self, addr: VirtAddr, data: &[u8]) {
        for span in line_spans(addr, data.len()) {
            let line = span.addr.line_base().raw();
            let buf = self
                .writes
                .entry(line)
                .or_insert_with(|| LineWrite::empty(line));
            let off = span.addr.line_offset();
            for i in 0..span.len {
                buf.data[off + i] = data[span.buf_offset + i];
                buf.mask |= 1u64 << (off + i);
            }
        }
    }

    /// Overrides `buf` with this transaction's own buffered bytes where
    /// they overlap `[addr, addr + buf.len())` (read-your-own-writes).
    pub fn apply_overlay(&self, addr: VirtAddr, buf: &mut [u8]) {
        for span in line_spans(addr, buf.len()) {
            if let Some(w) = self.writes.get(&span.addr.line_base().raw()) {
                w.apply_to(addr, buf);
            }
        }
    }

    /// Whether the transaction wrote anything.
    pub fn has_writes(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Drains the write buffer into masked lines sorted by line base,
    /// keeping the map's capacity for the next transaction. Sorting here
    /// is the determinism contract's usual "order hash state before it
    /// leaves the worker" step.
    pub fn take_writes(&mut self) -> Vec<LineWrite> {
        let mut writes: Vec<LineWrite> = self.writes.drain().map(|(_, w)| w).collect();
        writes.sort_unstable_by_key(|w| w.line);
        writes
    }

    /// Drains the sets into a sorted [`CommitIntent`] stamped with the
    /// caller's metadata, keeping the hash-set capacity for the next
    /// transaction.
    #[allow(clippy::too_many_arguments)]
    pub fn take_intent(
        &mut self,
        time: u64,
        worker: u32,
        seq: u64,
        attempt: u32,
        snapshot_seq: u64,
        exec_cycles: u64,
    ) -> CommitIntent {
        let mut reads: Vec<u64> = self.reads.drain().collect();
        reads.sort_unstable();
        CommitIntent {
            time,
            worker,
            seq,
            attempt,
            snapshot_seq,
            exec_cycles,
            reads,
            writes: self.take_writes(),
        }
    }
}

/// One transaction's bid for commit, deposited at the epoch boundary.
#[derive(Debug, Clone)]
pub struct CommitIntent {
    /// The submitting worker's local virtual time when the speculative
    /// body finished — the primary validation-order key.
    pub time: u64,
    /// Worker index (tie-break after `time`).
    pub worker: u32,
    /// Submission index within the worker's epoch (final tie-break; a
    /// worker can finish several transactions at the same virtual time).
    pub seq: u64,
    /// 0 for a first attempt, +1 per retry.
    pub attempt: u32,
    /// Heap sequence of the snapshot the transaction read from.
    pub snapshot_seq: u64,
    /// Cycles the speculative body took (latency accounting).
    pub exec_cycles: u64,
    /// Sorted line bases read.
    pub reads: Vec<u64>,
    /// Sorted buffered line writes.
    pub writes: Vec<LineWrite>,
}

/// Why an intent lost validation (or `Won`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The intent validated and its writes were published.
    Won,
    /// A line it read or wrote was published after its snapshot.
    Conflict,
    /// An earlier intent of the *same worker* lost this epoch, so this
    /// one may have read the loser's overlay — cascaded abort.
    Cascade,
}

/// Validates one epoch's intents against `heap`, first-committer-wins.
///
/// `per_worker[w]` holds worker `w`'s intents in submission order. The
/// global validation order is (time, worker, seq) — a pure function of
/// the deposited streams, so threaded and sequential drivers resolve
/// identically. An intent wins iff every line it read or wrote either
/// still carries a version ≤ its snapshot, or was last published *this
/// epoch* by an earlier winner of the same worker (workers read their
/// own epoch overlay, so their intra-epoch chains are consistent).
/// Losing poisons the rest of the worker's epoch (cascade): later
/// intents may have read the loser's overlay.
///
/// Returns one verdict per intent, in `per_worker` shape. The globally
/// first intent of an epoch always wins, so every epoch with work makes
/// progress (no livelock).
pub fn validate_epoch(
    heap: &mut VersionedHeap,
    per_worker: &[Vec<CommitIntent>],
) -> Vec<Vec<Verdict>> {
    let mut order: Vec<(u64, u32, u64)> = Vec::new();
    for (w, intents) in per_worker.iter().enumerate() {
        for intent in intents {
            debug_assert_eq!(intent.worker as usize, w);
            order.push((intent.time, intent.worker, intent.seq));
        }
    }
    order.sort_unstable();

    let mut verdicts: Vec<Vec<Verdict>> = per_worker
        .iter()
        .map(|v| vec![Verdict::Won; v.len()])
        .collect();
    // Last intra-epoch publisher of each line, by worker index.
    let mut epoch_writer: FxHashMap<u64, u32> = FxHashMap::default();
    let mut poisoned = vec![false; per_worker.len()];

    for (_, w, seq) in order {
        let intent = &per_worker[w as usize][seq as usize];
        let verdict = if poisoned[w as usize] {
            Verdict::Cascade
        } else {
            let line_ok = |line: &u64| {
                heap.line_version(*line) <= intent.snapshot_seq
                    || epoch_writer.get(line) == Some(&w)
            };
            if intent.reads.iter().all(line_ok) && intent.writes.iter().all(|lw| line_ok(&lw.line))
            {
                Verdict::Won
            } else {
                Verdict::Conflict
            }
        };
        if verdict == Verdict::Won {
            heap.publish(intent);
            for lw in &intent.writes {
                epoch_writer.insert(lw.line, w);
            }
        } else {
            poisoned[w as usize] = true;
        }
        verdicts[w as usize][seq as usize] = verdict;
    }
    verdicts
}

/// Deterministic bounded-exponential backoff charged (in simulated
/// cycles) to a worker's clock before it re-runs an aborted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Cycles charged before the first retry.
    pub base_cycles: u64,
    /// The delay doubles per attempt up to `base << max_shift`.
    pub max_shift: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_cycles: 256,
            max_shift: 6,
        }
    }
}

impl BackoffPolicy {
    /// Delay before retry number `attempt` (1-based: the first retry is
    /// `attempt == 1`).
    pub fn delay(&self, attempt: u32) -> u64 {
        self.base_cycles << attempt.saturating_sub(1).min(self.max_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intent(
        time: u64,
        worker: u32,
        seq: u64,
        snap: u64,
        reads: &[u64],
        writes: &[u64],
    ) -> CommitIntent {
        CommitIntent {
            time,
            worker,
            seq,
            attempt: 0,
            snapshot_seq: snap,
            exec_cycles: 0,
            reads: reads.to_vec(),
            writes: writes
                .iter()
                .map(|&l| LineWrite {
                    line: l,
                    data: [1; LINE_SIZE],
                    mask: u64::MAX,
                })
                .collect(),
        }
    }

    #[test]
    fn seed_and_read_round_trip() {
        let mut heap = VersionedHeap::new();
        heap.seed_store(VirtAddr::new(100), b"hello");
        let mut buf = [0xffu8; 8];
        heap.read_into(VirtAddr::new(98), &mut buf);
        assert_eq!(&buf, b"\0\0hello\0");
        assert_eq!(heap.seq(), 0);
        assert_eq!(heap.line_version(64), 0);
    }

    #[test]
    fn spec_txn_read_your_own_writes() {
        let mut txn = SpecTxn::new();
        txn.buffer_store(VirtAddr::new(60), b"abcdefgh"); // crosses a line
        let mut buf = [0u8; 8];
        txn.apply_overlay(VirtAddr::new(60), &mut buf);
        assert_eq!(&buf, b"abcdefgh");
        let i = txn.take_intent(10, 0, 0, 0, 0, 5);
        assert_eq!(i.writes.len(), 2);
        assert!(i.writes[0].line < i.writes[1].line);
        assert!(!txn.has_writes());
    }

    #[test]
    fn first_committer_wins_later_conflicts_abort() {
        let mut heap = VersionedHeap::new();
        let a = intent(5, 0, 0, 0, &[0], &[0]);
        let b = intent(7, 1, 0, 0, &[0], &[64]); // read-write conflict with a
        let verdicts = validate_epoch(&mut heap, &[vec![a], vec![b]]);
        assert_eq!(verdicts[0][0], Verdict::Won);
        assert_eq!(verdicts[1][0], Verdict::Conflict);
        assert_eq!(heap.seq(), 1);
        assert_eq!(heap.line_version(0), 1);
    }

    #[test]
    fn validation_order_is_time_then_worker() {
        let mut heap = VersionedHeap::new();
        // Worker 1 finished earlier in virtual time: it wins.
        let a = intent(9, 0, 0, 0, &[0], &[0]);
        let b = intent(3, 1, 0, 0, &[0], &[0]);
        let verdicts = validate_epoch(&mut heap, &[vec![a], vec![b]]);
        assert_eq!(verdicts[0][0], Verdict::Conflict);
        assert_eq!(verdicts[1][0], Verdict::Won);
    }

    #[test]
    fn own_epoch_chain_stays_valid_and_losses_cascade() {
        let mut heap = VersionedHeap::new();
        // Worker 0 chains two writes to the same line: both win (it read
        // its own overlay). Worker 1 conflicts on the first and its
        // second intent cascades even though it touches a fresh line.
        let a0 = intent(1, 0, 0, 0, &[0], &[0]);
        let a1 = intent(4, 0, 1, 0, &[0], &[0]);
        let b0 = intent(2, 1, 0, 0, &[0], &[128]);
        let b1 = intent(6, 1, 1, 0, &[256], &[256]);
        let verdicts = validate_epoch(&mut heap, &[vec![a0, a1], vec![b0, b1]]);
        assert_eq!(verdicts[0], [Verdict::Won, Verdict::Won]);
        assert_eq!(verdicts[1], [Verdict::Conflict, Verdict::Cascade]);
    }

    #[test]
    fn publish_is_copy_on_write() {
        let mut heap = VersionedHeap::new();
        heap.seed_store(VirtAddr::new(0), &[7u8; 64]);
        let snapshot = heap.clone();
        heap.publish(&intent(1, 0, 0, 0, &[], &[0]));
        let mut old = [0u8; 4];
        snapshot.read_into(VirtAddr::new(0), &mut old);
        assert_eq!(old, [7u8; 4]);
        let mut new = [0u8; 4];
        heap.read_into(VirtAddr::new(0), &mut new);
        assert_eq!(new, [1u8; 4]);
        assert_eq!(snapshot.seq(), 0);
        assert_eq!(heap.seq(), 1);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = BackoffPolicy {
            base_cycles: 100,
            max_shift: 3,
        };
        assert_eq!(p.delay(1), 100);
        assert_eq!(p.delay(2), 200);
        assert_eq!(p.delay(4), 800);
        assert_eq!(p.delay(40), 800);
    }
}
