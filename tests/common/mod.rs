//! Helpers shared by the integration suites.

use ssp::simulator::addr::{VirtAddr, Vpn};
use ssp::simulator::cache::CoreId;
use ssp::simulator::machine::Machine;
use ssp::txn::engine::{TxnEngine, TxnStats};

/// A deliberately broken engine for mutation tests: its `nth` `commit`
/// (1-based, set-up commits included) silently aborts instead, so a
/// transaction its caller saw commit never becomes durable. With `nth`
/// `None` it forwards every call unchanged.
pub struct DropCommit<E> {
    inner: E,
    nth: Option<u64>,
    commits: u64,
}

impl<E> DropCommit<E> {
    /// Wraps `inner`, dropping its `nth` commit (`None`: none).
    pub fn new(inner: E, nth: Option<u64>) -> Self {
        Self {
            inner,
            nth,
            commits: 0,
        }
    }
}

impl<E: TxnEngine> TxnEngine for DropCommit<E> {
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
        self.inner.store(core, addr, data)
    }
    fn commit(&mut self, core: CoreId) {
        self.commits += 1;
        if self.nth == Some(self.commits) {
            self.inner.abort(core)
        } else {
            self.inner.commit(core)
        }
    }
    fn abort(&mut self, core: CoreId) {
        self.inner.abort(core)
    }
    fn crash(&mut self) {
        self.inner.crash()
    }
    fn recover(&mut self) {
        self.inner.recover()
    }
    fn in_txn(&self, core: CoreId) -> bool {
        self.inner.in_txn(core)
    }
    fn txn_stats(&self) -> &TxnStats {
        self.inner.txn_stats()
    }
}
