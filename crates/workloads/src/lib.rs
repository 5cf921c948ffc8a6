//! # ssp-workloads — the paper's benchmark programs
//!
//! Persistent data structures built on the transactional interface, the
//! key distributions of Section 5.1, and the driver that measures them:
//!
//! * [`btree`] — persistent B+-tree (BTree-Rand / BTree-Zipf)
//! * [`rbtree`] — persistent red-black tree (RBTree-Rand / RBTree-Zipf)
//! * [`hash`] — persistent chained hashtable (Hash-Rand / Hash-Zipf)
//! * [`sps`] — array element swaps (SPS)
//! * [`kvcache`] — memcached-like LRU cache + memslap-style generator
//! * [`vacation`] — STAMP-Vacation-like reservation OLTP emulation
//! * [`dist`] — uniform and "80% of updates to 15% of keys" skew
//! * [`runner`] — the drivers: the sharded `std::thread` driver
//!   ([`runner::run_parallel`]) and the legacy single-machine round-robin
//!   driver ([`runner::run`]), both producing [`runner::RunResult`]
//! * [`storm`] — the crash-storm driver: scheduled power cuts under full
//!   traffic (machine-wide at epoch boundaries when the interconnect is
//!   on), oracle-verified recovery after every storm, identical in both
//!   execution modes
//! * [`shared`] — the shared-heap driver: N clients against ONE
//!   versioned store, optimistic concurrency with deterministic
//!   epoch-boundary conflict resolution ([`shared::run_shared`])
//! * [`conflict`] — the conflict-dial workload ([`conflict::ConflictSps`]):
//!   SPS swaps over a shared region + per-worker private slices
//! * [`service`] — the service-mode driver ([`service::run_service`]):
//!   open-loop arrivals, bounded queues, admission control, deadlines
//!   with bounded retry, group commit, and recovery-under-fire

#![warn(missing_docs)]

pub mod btree;
pub mod conflict;
pub mod dist;
mod drive;
pub mod hash;
pub mod kvcache;
pub mod rbtree;
pub mod runner;
pub mod service;
pub mod shared;
pub mod sps;
pub mod storm;
pub mod vacation;

pub use btree::{BTree, BTreeWorkload};
pub use conflict::ConflictSps;
pub use dist::KeyDist;
pub use hash::{HashTable, HashWorkload};
pub use kvcache::{KvCache, MemcachedWorkload};
pub use rbtree::{RbTree, RbTreeWorkload};
pub use runner::{
    run, run_parallel, ExecMode, ParallelRun, RunConfig, RunResult, ShardRun, Workload,
};
pub use service::{
    run_service, AdmissionPolicy, ArrivalShape, DrainPoint, ServiceConfig, ServiceRun,
    ServiceShardRun, ServiceStats,
};
pub use shared::{
    run_shared, run_shared_crash_probe, SharedCrashReport, SharedHeapConfig, SharedRun,
    SharedShardRun, SharedStats,
};
pub use sps::Sps;
pub use storm::{run_storm, StormPoint, StormRun, StormSchedule, StormShardReport};
pub use vacation::VacationWorkload;
