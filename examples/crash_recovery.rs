//! Crash-consistency torture demo: random transactions, random crash
//! points, oracle verification — across all three engines.
//!
//! Each round runs a few transactions against a persistent array, records
//! every store in the oracle, crashes at a random point, runs
//! recovery, and checks that the engine's state equals the oracle's
//! committed state (committed transactions fully present, in-flight ones
//! fully absent).
//!
//! Run with: `cargo run --release --example crash_recovery`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssp::baselines::{RedoLog, UndoLog};
use ssp::core::engine::Ssp;
use ssp::simulator::addr::VirtAddr;
use ssp::simulator::cache::CoreId;
use ssp::simulator::config::MachineConfig;
use ssp::txn::engine::TxnEngine;
use ssp::txn::history::Oracle;
use ssp::SspConfig;

const PAGES: u64 = 8;
const ROUNDS: usize = 30;

fn torture<E: TxnEngine>(engine: &mut E, seed: u64) -> u64 {
    let core = CoreId::new(0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::new();
    let pages: Vec<VirtAddr> = (0..PAGES)
        .map(|_| engine.map_new_page(core).base())
        .collect();
    let mut crashes = 0;

    for round in 0..ROUNDS {
        let txns_this_round = rng.gen_range(1..5);
        // The crash lands inside one of the transactions of this round.
        let crash_in = rng.gen_range(0..txns_this_round + 1);
        for t in 0..txns_this_round {
            engine.begin(core);
            let stores = rng.gen_range(1..8);
            let crash_at = if t == crash_in {
                Some(rng.gen_range(0..stores + 1))
            } else {
                None
            };
            let mut crashed = false;
            for s in 0..stores {
                if crash_at == Some(s) {
                    crashed = true;
                    break;
                }
                let page = pages[rng.gen_range(0..PAGES as usize)];
                let addr = page.add(rng.gen_range(0..512u64) * 8);
                let value = rng.gen::<u64>().to_le_bytes();
                engine.store(core, addr, &value);
                oracle.record_store(core, addr, &value);
            }
            if crashed || crash_at == Some(stores) {
                engine.crash_and_recover();
                oracle.on_crash();
                crashes += 1;
                break;
            }
            engine.commit(core);
            oracle.on_commit(core);
        }
        oracle
            .verify(engine, core)
            .unwrap_or_else(|d| panic!("round {round}: {d}"));
    }
    crashes
}

fn main() {
    let cfg = MachineConfig::default();

    let mut ssp = Ssp::new(cfg.clone(), SspConfig::default());
    let c = torture(&mut ssp, 1);
    println!("SSP:      {ROUNDS} rounds, {c} injected crashes — all states verified");

    let mut undo = UndoLog::new(cfg.clone());
    let c = torture(&mut undo, 2);
    println!("UNDO-LOG: {ROUNDS} rounds, {c} injected crashes — all states verified");

    let mut redo = RedoLog::new(cfg);
    let c = torture(&mut redo, 3);
    println!("REDO-LOG: {ROUNDS} rounds, {c} injected crashes — all states verified");

    println!("\nevery committed transaction survived; every torn one vanished");
}
