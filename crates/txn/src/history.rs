//! The crash-testing oracle.
//!
//! [`Oracle`] mirrors the *committed* contents of the persistent heap as
//! masked cache lines. Tests record every store alongside the engine, fold
//! them in at commit, and after an injected crash + recovery compare what
//! the engine reads against the oracle: committed transactions must be
//! fully visible, uncommitted ones fully invisible.
//!
//! A transaction torn by a power cut is either dropped or kept, and the
//! oracle cannot know which: [`Oracle::take_pending`] hands the torn
//! transaction's lines out, [`Oracle::verify`] checks the "dropped"
//! candidate, [`Oracle::verify_with`] the "kept" one (committed state plus
//! those lines), and [`Oracle::commit_lines`] folds them in once kept.

use std::collections::{BTreeMap, HashMap};

use ssp_simulator::addr::{VirtAddr, PAGE_SIZE};
use ssp_simulator::cache::CoreId;

use crate::engine::TxnEngine;
use crate::occ::{LineWrite, SpecTxn};

/// A model of committed persistent state at cache-line granularity.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// Committed lines by line base; a line's mask marks the bytes that
    /// were ever committed (unmasked bytes are zero).
    committed: BTreeMap<u64, LineWrite>,
    /// Each core's open transaction's stores, later stores winning.
    pending: HashMap<usize, SpecTxn>,
}

/// A divergence between the engine and the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Address of the first mismatching byte.
    pub addr: VirtAddr,
    /// The oracle's expected value.
    pub expected: u8,
    /// What the engine read.
    pub actual: u8,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at {}: expected {:#04x}, engine read {:#04x}",
            self.addr, self.expected, self.actual
        )
    }
}

impl std::error::Error for Divergence {}

impl Oracle {
    /// Creates an empty oracle (all bytes zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store issued by `core`'s open transaction.
    pub fn record_store(&mut self, core: CoreId, addr: VirtAddr, data: &[u8]) {
        self.pending
            .entry(core.index())
            .or_default()
            .buffer_store(addr, data);
    }

    /// Folds `core`'s pending stores into committed state.
    pub fn on_commit(&mut self, core: CoreId) {
        let lines = self.take_pending(core);
        self.commit_lines(&lines);
    }

    /// Discards `core`'s pending stores.
    pub fn on_abort(&mut self, core: CoreId) {
        self.pending.remove(&core.index());
    }

    /// Discards all in-flight stores (a crash).
    pub fn on_crash(&mut self) {
        self.pending.clear();
    }

    /// Removes `core`'s pending stores and returns them as masked lines
    /// in ascending line order — the delta a torn transaction would add.
    pub fn take_pending(&mut self, core: CoreId) -> Vec<LineWrite> {
        self.pending
            .get_mut(&core.index())
            .map_or_else(Vec::new, SpecTxn::take_writes)
    }

    /// Folds masked `lines` into committed state (later lines win).
    pub fn commit_lines(&mut self, lines: &[LineWrite]) {
        for w in lines {
            self.committed
                .entry(w.line)
                .and_modify(|c| c.merge(w))
                .or_insert(*w);
        }
    }

    /// The committed value of a byte (0 if never written).
    pub fn committed_byte(&self, addr: VirtAddr) -> u8 {
        self.committed
            .get(&addr.line_base().raw())
            .map_or(0, |l| l.data[addr.line_offset()])
    }

    /// Number of distinct committed bytes tracked.
    pub fn committed_len(&self) -> usize {
        self.committed
            .values()
            .map(|l| l.mask.count_ones() as usize)
            .sum()
    }

    /// Compares every committed byte against what `engine` reads. Returns
    /// the first divergence, if any.
    ///
    /// The loads are part of the contract, because they warm the caches
    /// and TLB the engine runs on afterwards: one load per maximal run of
    /// committed bytes, split at page boundaries, in ascending address
    /// order, stopping after the first run that holds a divergence.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] describing the first mismatching byte.
    pub fn verify(&self, engine: &mut dyn TxnEngine, core: CoreId) -> Result<(), Divergence> {
        self.verify_with(engine, core, &[])
    }

    /// [`verify`](Self::verify) as if `delta` had been committed: `delta`
    /// holds masked lines in ascending line order, one per line (as
    /// [`take_pending`](Self::take_pending) returns them), and its bytes
    /// override committed ones. Committed state itself is not touched.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] describing the first mismatching byte.
    pub fn verify_with(
        &self,
        engine: &mut dyn TxnEngine,
        core: CoreId,
        delta: &[LineWrite],
    ) -> Result<(), Divergence> {
        let mut base = self.committed.values().peekable();
        let mut delta = delta.iter().peekable();
        let mut run = Run::default();
        loop {
            let next = match (base.peek(), delta.peek()) {
                (Some(b), Some(d)) if d.line < b.line => delta.next(),
                (Some(_), _) => base.next(),
                _ => delta.next(),
            };
            let Some(mut line) = next.copied() else {
                return run.check(engine, core);
            };
            if let Some(d) = delta.next_if(|d| d.line == line.line) {
                line.merge(d);
            }
            for (addr, bytes) in line.runs() {
                if addr != run.start + run.expected.len() as u64 {
                    run.check(engine, core)?;
                    run.start = addr;
                }
                run.expected.extend_from_slice(bytes);
            }
        }
    }
}

/// One maximal run of committed bytes being assembled by
/// [`Oracle::verify_with`], with the read-back buffer reused across runs.
#[derive(Default)]
struct Run {
    start: u64,
    expected: Vec<u8>,
    actual: Vec<u8>,
}

impl Run {
    /// Loads the run page by page (`TxnEngine::load` splits lines itself
    /// but cannot span pages), compares it, and empties it.
    fn check(&mut self, engine: &mut dyn TxnEngine, core: CoreId) -> Result<(), Divergence> {
        let len = self.expected.len();
        self.actual.clear();
        self.actual.resize(len, 0);
        let mut off = 0;
        while off < len {
            let addr = VirtAddr::new(self.start + off as u64);
            let chunk = (PAGE_SIZE - addr.page_offset()).min(len - off);
            engine.load(core, addr, &mut self.actual[off..off + chunk]);
            off += chunk;
        }
        let mut pairs = self.expected.iter().zip(&self.actual);
        if let Some(i) = pairs.position(|(e, a)| e != a) {
            return Err(Divergence {
                addr: VirtAddr::new(self.start + i as u64),
                expected: self.expected[i],
                actual: self.actual[i],
            });
        }
        self.expected.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TxnStats;
    use ssp_simulator::addr::Vpn;
    use ssp_simulator::machine::Machine;

    const C0: CoreId = CoreId::new(0);
    const C1: CoreId = CoreId::new(1);

    /// A byte map posing as an engine: loads read it (absent bytes are
    /// zero) and are logged as `(addr, len)`; verification calls nothing
    /// else.
    #[derive(Default)]
    struct LoadLog {
        bytes: HashMap<u64, u8>,
        loads: Vec<(u64, usize)>,
        stats: TxnStats,
    }

    impl LoadLog {
        /// An engine already holding the bytes `oracle` committed.
        fn holding(oracle: &Oracle) -> Self {
            let mut e = Self::default();
            for l in oracle.committed.values() {
                e.put(l);
            }
            e
        }

        fn put(&mut self, l: &LineWrite) {
            for i in (0..64).filter(|i| l.mask >> i & 1 != 0) {
                self.bytes.insert(l.line + i, l.data[i as usize]);
            }
        }
    }

    impl TxnEngine for LoadLog {
        fn name(&self) -> &'static str {
            "LOAD-LOG"
        }
        fn machine(&self) -> &Machine {
            unreachable!("verification only loads")
        }
        fn machine_mut(&mut self) -> &mut Machine {
            unreachable!("verification only loads")
        }
        fn map_new_page(&mut self, _: CoreId) -> Vpn {
            unreachable!("verification only loads")
        }
        fn begin(&mut self, _: CoreId) {}
        fn load(&mut self, _: CoreId, addr: VirtAddr, buf: &mut [u8]) {
            self.loads.push((addr.raw(), buf.len()));
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self
                    .bytes
                    .get(&(addr.raw() + i as u64))
                    .copied()
                    .unwrap_or(0);
            }
        }
        fn store(&mut self, _: CoreId, addr: VirtAddr, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                self.bytes.insert(addr.raw() + i as u64, b);
            }
        }
        fn commit(&mut self, _: CoreId) {}
        fn abort(&mut self, _: CoreId) {}
        fn crash(&mut self) {}
        fn recover(&mut self) {}
        fn in_txn(&self, _: CoreId) -> bool {
            false
        }
        fn txn_stats(&self) -> &TxnStats {
            &self.stats
        }
    }

    fn committed(stores: &[(u64, &[u8])]) -> Oracle {
        let mut o = Oracle::new();
        for &(addr, data) in stores {
            o.record_store(C0, VirtAddr::new(addr), data);
        }
        o.on_commit(C0);
        o
    }

    #[test]
    fn commit_applies_pending_in_order() {
        let mut o = Oracle::new();
        o.record_store(C0, VirtAddr::new(100), &[1, 2]);
        o.record_store(C0, VirtAddr::new(101), &[9]);
        o.on_commit(C0);
        assert_eq!(o.committed_byte(VirtAddr::new(100)), 1);
        assert_eq!(o.committed_byte(VirtAddr::new(101)), 9); // later wins
    }

    #[test]
    fn abort_discards_pending() {
        let mut o = Oracle::new();
        o.record_store(C0, VirtAddr::new(50), &[7]);
        o.on_abort(C0);
        assert_eq!(o.committed_byte(VirtAddr::new(50)), 0);
    }

    #[test]
    fn cores_are_independent() {
        let mut o = Oracle::new();
        o.record_store(C0, VirtAddr::new(10), &[1]);
        o.record_store(C1, VirtAddr::new(20), &[2]);
        o.on_commit(C0);
        o.on_crash();
        assert_eq!(o.committed_byte(VirtAddr::new(10)), 1);
        assert_eq!(o.committed_byte(VirtAddr::new(20)), 0);
    }

    #[test]
    fn unwritten_bytes_default_to_zero() {
        let o = Oracle::new();
        assert_eq!(o.committed_byte(VirtAddr::new(12345)), 0);
        assert_eq!(o.committed_len(), 0);
    }

    #[test]
    fn later_stores_win_across_a_line_boundary() {
        let mut o = committed(&[(60, &[1; 8]), (62, &[2; 4])]);
        let bytes = |o: &Oracle| {
            (58..70)
                .map(|a| o.committed_byte(VirtAddr::new(a)))
                .collect::<Vec<_>>()
        };
        assert_eq!(bytes(&o), [0, 0, 1, 1, 2, 2, 2, 2, 1, 1, 0, 0]);
        // A later transaction overwrites part of the straddle again.
        o.record_store(C0, VirtAddr::new(63), &[3, 3]);
        o.on_commit(C0);
        assert_eq!(bytes(&o), [0, 0, 1, 1, 2, 3, 3, 2, 1, 1, 0, 0]);
    }

    #[test]
    fn committed_len_counts_distinct_bytes() {
        let mut o = committed(&[(60, &[1; 8]), (62, &[2; 4]), (200, &[0; 3])]);
        assert_eq!(o.committed_len(), 11); // zero-valued bytes count too
        o.record_store(C0, VirtAddr::new(66), &[4; 4]); // 2 of 4 are new
        o.on_commit(C0);
        assert_eq!(o.committed_len(), 13);
    }

    #[test]
    fn a_missing_committed_byte_is_the_exact_divergence() {
        let o = committed(&[(100, &[1, 2, 3, 4])]);
        let mut e = LoadLog::holding(&o);
        assert_eq!(o.verify(&mut e, C0), Ok(()));
        e.bytes.remove(&102);
        assert_eq!(
            o.verify(&mut e, C0),
            Err(Divergence {
                addr: VirtAddr::new(102),
                expected: 3,
                actual: 0,
            })
        );
    }

    #[test]
    fn kept_and_dropped_candidates_each_match_their_own_state() {
        let mut o = committed(&[(100, &[1; 4])]);
        o.record_store(C0, VirtAddr::new(102), &[9; 70]); // torn, straddles
        let torn = o.take_pending(C0);
        assert_eq!(torn.len(), 2);
        let mut dropped = LoadLog::holding(&o);
        let mut kept = LoadLog::holding(&o);
        torn.iter().for_each(|l| kept.put(l));

        assert_eq!(o.verify(&mut dropped, C0), Ok(()));
        assert_eq!(o.verify_with(&mut kept, C0, &torn), Ok(()));
        let fail = o.verify(&mut kept, C0).unwrap_err();
        assert_eq!((fail.addr.raw(), fail.expected, fail.actual), (102, 1, 9));
        let fail = o.verify_with(&mut dropped, C0, &torn).unwrap_err();
        assert_eq!((fail.addr.raw(), fail.expected, fail.actual), (102, 9, 1));

        // Keeping folds the delta in; plain verify now agrees with `kept`.
        o.commit_lines(&torn);
        assert_eq!(o.verify(&mut kept, C0), Ok(()));
        assert_eq!(o.committed_len(), 72);
    }

    #[test]
    fn verify_loads_one_run_at_a_time_clipped_at_pages() {
        let page = PAGE_SIZE as u64;
        let o = committed(&[
            (3 * page + 6, &[5; 8]), // abuts the run spanning pages
            (60, &[1; 8]),           // straddles a line
            (100, &[2; 10]),         // two stores, one run
            (110, &[3; 10]),
            (page - 6, &[4; 10]),                    // straddles a page
            (2 * page - 2, &vec![6; PAGE_SIZE + 8]), // spans three pages
        ]);
        let mut e = LoadLog::holding(&o);
        assert_eq!(o.verify(&mut e, C0), Ok(()));
        assert_eq!(
            e.loads,
            [
                (60, 8),
                (100, 20),
                (page - 6, 6),
                (page, 4),
                (2 * page - 2, 2),
                (2 * page, PAGE_SIZE),
                (3 * page, 6 + 8),
            ]
        );

        // A divergence stops the sweep after its run, all chunks loaded.
        e.loads.clear();
        e.bytes.insert(page - 5, 0);
        assert!(o.verify(&mut e, C0).is_err());
        assert_eq!(e.loads, [(60, 8), (100, 20), (page - 6, 6), (page, 4)]);
    }
}
