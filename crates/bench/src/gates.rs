//! The bench gate table: the one place where the report-level checks of
//! the bench targets live.
//!
//! Each gated target maps to one check over its report's `sim` section
//! that returns the violations it finds, each prefixed with the id of the
//! check that tripped. [`BenchReport::write`](crate::BenchReport::write)
//! runs the table on every report it writes. Checks that cannot be read
//! from the JSON (threaded == sequential agreement, exact service
//! conservation, drained queues) stay where the run happens.

use std::collections::BTreeMap;

use crate::json::Json;

/// A gate: one target's check over its report's `sim` section; returns
/// the violations (empty = pass).
pub type Gate = fn(&Json) -> Vec<String>;

/// Target name → gate. Targets not listed here have no report-level gate.
pub const GATES: [(&str, Gate); 4] = [
    ("fig5b_contention", fig5b_contention),
    ("shared_conflicts", shared_conflicts),
    ("service_overload", service_overload),
    ("crash_storm", crash_storm),
];

/// Runs `bench`'s gate (if it has one) over its report's `sim` section.
pub fn check(bench: &str, sim: &Json) -> Vec<String> {
    GATES
        .iter()
        .filter(|(name, _)| *name == bench)
        .flat_map(|(_, gate)| gate(sim))
        .collect()
}

fn rows<'a>(sim: &'a Json, key: &str) -> &'a [Json] {
    match sim.get(key) {
        Some(Json::Arr(rows)) => rows,
        _ => &[],
    }
}

fn num(row: &Json, key: &str) -> u64 {
    match row.get(key) {
        Some(Json::U64(v)) => *v,
        other => panic!("gate field {key:?} is not an unsigned integer: {other:?}"),
    }
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("")
}

/// `rows` grouped by the value of `key`, in key order.
fn group_by<'a>(rows: &[&'a Json], key: &str) -> BTreeMap<&'a str, Vec<&'a Json>> {
    let mut groups = BTreeMap::<_, Vec<_>>::new();
    for &r in rows {
        groups.entry(text(r, key)).or_default().push(r);
    }
    groups
}

fn falls(values: &[u64]) -> bool {
    values.windows(2).any(|w| w[0] > w[1])
}

/// Collects a violation per failed requirement.
#[derive(Default)]
struct Violations(Vec<String>);

impl Violations {
    fn require(&mut self, holds: bool, violation: impl FnOnce() -> String) {
        if !holds {
            self.0.push(violation());
        }
    }
}

/// Fair, bounded bank arbitration keeps the most-contended shared point
/// within 10x of the uncontended one (the unfair FIFO controller it
/// replaced collapsed ~16x over the 4 → 8 step alone).
fn fig5b_contention(sim: &Json) -> Vec<String> {
    let mut shared: Vec<(u64, u64)> = rows(sim, "series")
        .iter()
        .filter(|p| text(p, "mode") == "shared")
        .map(|p| (num(p, "clients"), num(p, "cycles_per_txn")))
        .collect();
    shared.sort_unstable();
    let (Some(&(c1, p1)), Some(&(cn, pn))) = (shared.first(), shared.last()) else {
        return vec!["saturation: no shared series".into()];
    };
    let mut v = Violations::default();
    v.require(pn <= 10 * p1, || {
        format!("saturation: {cn}-client point {pn} cycles/txn is over 10x the {c1}-client {p1}")
    });
    v.0
}

fn shared_conflicts(sim: &Json) -> Vec<String> {
    let mut v = Violations::default();
    let all: Vec<&Json> = rows(sim, "rows").iter().collect();
    let cell = |r: &Json| format!("x{} d{}", num(r, "clients"), num(r, "conflict_bp"));
    for &r in &all {
        let (committed, txns) = (num(r, "committed"), num(r, "txns"));
        v.require(committed == txns, || {
            format!("committed: {} committed {committed} of {txns}", cell(r))
        });
    }
    let (zipf, uniform): (Vec<&Json>, Vec<&Json>) = all
        .into_iter()
        .partition(|r| text(r, "dist") == "paper_zipf");
    // Dial 0: line-disjoint working sets never abort, and speculation plus
    // epoch validation stay within 1.5x of the partitioned driver.
    for &r in uniform.iter().filter(|r| num(r, "conflict_bp") == 0) {
        let aborted = num(r, "aborted");
        v.require(aborted == 0, || {
            format!("dial0_aborts: {} aborted {aborted}", cell(r))
        });
        let (cpt, part) = (
            num(r, "cycles_per_txn"),
            num(r, "partitioned_cycles_per_txn"),
        );
        v.require(num(r, "clients") == 1 || cpt <= part * 3 / 2, || {
            format!(
                "dial0_overhead: {} costs {cpt} cycles/txn, over 1.5x the partitioned {part}",
                cell(r)
            )
        });
    }
    // The most-clients, highest-dial corner: the validator fires under
    // both distributions, and the abort rate never falls with clients.
    for (rs, id) in [(&uniform, "high_corner"), (&zipf, "zipf_corner")] {
        let corner = rs
            .iter()
            .max_by_key(|r| (num(r, "clients"), num(r, "conflict_bp")));
        v.require(corner.is_some_and(|r| num(r, "aborted") > 0), || {
            format!(
                "{id}: {} aborted nothing",
                corner.map_or("no rows".into(), |r| cell(r))
            )
        });
    }
    let high = uniform.iter().map(|r| num(r, "conflict_bp")).max();
    let mut at_high: Vec<(u64, u64)> = uniform
        .iter()
        .filter(|r| Some(num(r, "conflict_bp")) == high)
        .map(|r| (num(r, "clients"), num(r, "abort_rate_bp")))
        .collect();
    at_high.sort_unstable();
    let rates: Vec<u64> = at_high.iter().map(|&(_, rate)| rate).collect();
    v.require(!falls(&rates), || {
        format!("abort_monotone: abort rate (bp) by clients {at_high:?} falls at the high dial")
    });
    v.0
}

fn service_overload(sim: &Json) -> Vec<String> {
    let mut v = Violations::default();
    let all: Vec<&Json> = rows(sim, "rows").iter().collect();
    let families = group_by(&all, "family");
    let family = |f: &str| families.get(f).map_or(&[][..], Vec::as_slice);
    for r in &all {
        let lost = num(r, "lost");
        v.require(lost == 0, || {
            format!(
                "lost: {} {} lost {lost} committed requests",
                text(r, "family"),
                text(r, "engine")
            )
        });
    }
    // Overload: per policy, cold to hot, the shed rate never falls, and
    // the hottest cell sheds.
    for (policy, mut cells) in group_by(family("overload"), "policy") {
        cells.sort_by_key(|r| std::cmp::Reverse(num(r, "period_cycles")));
        let rates: Vec<u64> = cells.iter().map(|r| num(r, "shed_rate_bp")).collect();
        v.require(!falls(&rates), || {
            format!("shed_monotone: {policy} shed bp cold->hot {rates:?} falls")
        });
        v.require(rates.last() != Some(&0), || {
            format!("hottest_sheds: {policy}: the hottest cell never shed")
        });
    }
    // Group commit: per engine, every group > 1 issues fewer group commits
    // than group 1, and fewer journal writes if group 1 journals at all.
    for (engine, cells) in group_by(family("group"), "engine") {
        let Some(base) = cells.iter().find(|r| num(r, "group") == 1) else {
            v.0.push(format!("group_commits: {engine} has no group-1 cell"));
            continue;
        };
        let (base_groups, base_journal) = (num(base, "groups"), num(base, "journal_writes"));
        for r in cells.iter().filter(|r| num(r, "group") > 1) {
            let (g, groups, journal) =
                (num(r, "group"), num(r, "groups"), num(r, "journal_writes"));
            v.require(groups < base_groups, || {
                format!(
                    "group_commits: {engine} g{g} issues {groups} group commits, g1 {base_groups}"
                )
            });
            v.require(base_journal == 0 || journal < base_journal, || {
                format!("group_journal: {engine} g{g} issues {journal} journal writes, g1 {base_journal}")
            });
        }
    }
    // Recovery under fire: every cell trips storms and reports the outage.
    for r in family("recovery") {
        let engine = text(r, "engine");
        v.require(num(r, "storms") > 0, || {
            format!("recovery_storms: {engine} tripped no storm")
        });
        v.require(num(r, "unavailability_cycles") > 0, || {
            format!("recovery_unavailable: {engine} reports no outage")
        });
    }
    v.0
}

/// No engine loses a committed transaction across any storm.
fn crash_storm(sim: &Json) -> Vec<String> {
    let mut v = Violations::default();
    for r in rows(sim, "rows") {
        let lost = num(r, "lost_txns");
        v.require(lost == 0, || {
            format!(
                "lost: {} p{} x{} lost {lost} committed transactions",
                text(r, "engine"),
                num(r, "storm_period_cycles"),
                num(r, "threads")
            )
        });
    }
    v.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(bench: &str) -> Json {
        let path = format!(
            "{}/benches/baselines/BENCH_{bench}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("committed baseline");
        let doc = Json::parse(&text).expect("valid JSON");
        doc.get("sim").expect("sim section").clone()
    }

    #[test]
    fn every_committed_baseline_passes_the_table() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/baselines");
        let mut gated = 0;
        for entry in std::fs::read_dir(dir).expect("baselines dir") {
            let name = entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8");
            let Some(bench) = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            let violations = check(bench, &baseline(bench));
            assert!(violations.is_empty(), "{name}: {violations:?}");
            gated += usize::from(GATES.iter().any(|(g, _)| *g == bench));
        }
        assert_eq!(gated, GATES.len(), "every gated target has a baseline");
    }

    /// The first row of `sim[key]` whose fields equal `want`.
    fn row<'a>(sim: &'a mut Json, key: &str, want: &[(&str, &str)]) -> &'a mut Json {
        let Json::Obj(pairs) = sim else {
            panic!("sim is not an object")
        };
        let Some((_, Json::Arr(rows))) = pairs.iter_mut().find(|(k, _)| k == key) else {
            panic!("no {key} array")
        };
        let matches = |r: &Json| {
            want.iter().all(|(k, v)| match r.get(k) {
                Some(Json::U64(n)) => n.to_string() == *v,
                Some(Json::Str(s)) => s == v,
                _ => false,
            })
        };
        rows.iter_mut().find(|r| matches(r)).expect("row present")
    }

    fn put(row: &mut Json, key: &str, value: u64) {
        let Json::Obj(pairs) = row else {
            panic!("row is not an object")
        };
        let slot = pairs.iter_mut().find(|(k, _)| k == key).expect("field");
        slot.1 = Json::U64(value);
    }

    /// `edit(sim, past)` moves one value exactly to its bound
    /// (`past == false`, which must pass) or one step past it (which must
    /// trip exactly the check `id`).
    fn bound(bench: &str, id: &str, edit: impl Fn(&mut Json, bool)) {
        for past in [false, true] {
            let mut sim = baseline(bench);
            edit(&mut sim, past);
            let violations = check(bench, &sim);
            if past {
                assert_eq!(violations.len(), 1, "{bench}/{id}: {violations:?}");
                assert!(
                    violations[0].starts_with(&format!("{id}:")),
                    "{violations:?}"
                );
            } else {
                assert!(
                    violations.is_empty(),
                    "{bench}/{id} at bound: {violations:?}"
                );
            }
        }
    }

    #[test]
    fn fig5b_saturation_bound() {
        bound("fig5b_contention", "saturation", |sim, past| {
            let p1 = num(
                row(sim, "series", &[("mode", "shared"), ("clients", "1")]),
                "cycles_per_txn",
            );
            let p8 = row(sim, "series", &[("mode", "shared"), ("clients", "8")]);
            put(p8, "cycles_per_txn", 10 * p1 + u64::from(past));
        });
    }

    #[test]
    fn shared_conflicts_bounds() {
        let uniform = |c: &'static str, d: &'static str| [("clients", c), ("conflict_bp", d)];
        let zipf = [
            ("dist", "paper_zipf"),
            ("clients", "8"),
            ("conflict_bp", "9000"),
        ];
        bound("shared_conflicts", "committed", |sim, past| {
            let r = row(sim, "rows", &uniform("4", "5000"));
            let txns = num(r, "txns");
            put(r, "committed", txns - u64::from(past));
        });
        bound("shared_conflicts", "dial0_aborts", |sim, past| {
            put(
                row(sim, "rows", &uniform("2", "0")),
                "aborted",
                u64::from(past),
            );
        });
        bound("shared_conflicts", "dial0_overhead", |sim, past| {
            // The one-client row is exempt: it has nothing to contend with.
            put(
                row(sim, "rows", &uniform("1", "0")),
                "cycles_per_txn",
                u64::MAX,
            );
            let r = row(sim, "rows", &uniform("2", "0"));
            let part = num(r, "partitioned_cycles_per_txn");
            put(r, "cycles_per_txn", part * 3 / 2 + u64::from(past));
        });
        bound("shared_conflicts", "high_corner", |sim, past| {
            put(
                row(sim, "rows", &uniform("8", "9000")),
                "aborted",
                u64::from(!past),
            );
        });
        bound("shared_conflicts", "zipf_corner", |sim, past| {
            put(row(sim, "rows", &zipf), "aborted", u64::from(!past));
        });
        bound("shared_conflicts", "abort_monotone", |sim, past| {
            let top = num(row(sim, "rows", &uniform("8", "9000")), "abort_rate_bp");
            let r = row(sim, "rows", &uniform("4", "9000"));
            put(r, "abort_rate_bp", top + u64::from(past));
        });
    }

    #[test]
    fn service_overload_bounds() {
        let over = |p: &'static str| {
            [
                ("family", "overload"),
                ("policy", "drop_tail"),
                ("period_cycles", p),
            ]
        };
        let group =
            |e: &'static str, g: &'static str| [("family", "group"), ("engine", e), ("group", g)];
        let recovery = [("family", "recovery"), ("engine", "SSP")];
        bound("service_overload", "shed_monotone", |sim, past| {
            let hot = num(row(sim, "rows", &over("150")), "shed_rate_bp");
            put(
                row(sim, "rows", &over("600")),
                "shed_rate_bp",
                hot + u64::from(past),
            );
        });
        bound("service_overload", "hottest_sheds", |sim, past| {
            // The cooler drop-tail cells shed nothing in the baseline.
            put(
                row(sim, "rows", &over("150")),
                "shed_rate_bp",
                u64::from(!past),
            );
        });
        bound("service_overload", "group_commits", |sim, past| {
            let g1 = num(row(sim, "rows", &group("SSP", "1")), "groups");
            put(
                row(sim, "rows", &group("SSP", "4")),
                "groups",
                g1 - 1 + u64::from(past),
            );
        });
        bound("service_overload", "group_journal", |sim, past| {
            let g1 = num(row(sim, "rows", &group("SSP", "1")), "journal_writes");
            let r = row(sim, "rows", &group("SSP", "16"));
            put(r, "journal_writes", g1 - 1 + u64::from(past));
        });
        bound("service_overload", "recovery_storms", |sim, past| {
            put(row(sim, "rows", &recovery), "storms", u64::from(!past));
        });
        bound("service_overload", "recovery_unavailable", |sim, past| {
            put(
                row(sim, "rows", &recovery),
                "unavailability_cycles",
                u64::from(!past),
            );
        });
        bound("service_overload", "lost", |sim, past| {
            put(row(sim, "rows", &over("600")), "lost", u64::from(past));
        });
    }

    #[test]
    fn service_journal_check_skips_engines_that_do_not_journal() {
        let mut sim = baseline("service_overload");
        let group = |g: &'static str| [("family", "group"), ("engine", "SSP"), ("group", g)];
        for g in ["1", "4", "16"] {
            put(row(&mut sim, "rows", &group(g)), "journal_writes", 0);
        }
        assert!(check("service_overload", &sim).is_empty());
    }

    #[test]
    fn crash_storm_loss_bound() {
        bound("crash_storm", "lost", |sim, past| {
            put(
                row(sim, "rows", &[("engine", "SSP")]),
                "lost_txns",
                u64::from(past),
            );
        });
    }

    #[test]
    fn ungated_targets_pass_anything() {
        assert!(check("fig6_logging_writes", &Json::obj()).is_empty());
    }
}
