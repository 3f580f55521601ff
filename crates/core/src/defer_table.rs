//! The defer table: each node's slice of the network-wide conflict map.
//!
//! A node `u`'s defer table holds entries of two shapes (§3.1):
//!
//! * `(v : x → ∗)` — added by **update rule 1** when `u` appears as the
//!   *source* in receiver `v`'s interferer list: sending to `v` while `x`
//!   transmits to anyone loses too many packets, so defer.
//! * `(∗ : x → v)` — added by **update rule 2** when `u` appears as the
//!   *interferer* in `v`'s list for source `x`: transmitting to *anyone*
//!   while `x → v` is in progress destroys `v`'s reception, so defer.
//!
//! Before a transmission to `v`, the node scans the ongoing-transmission
//! list; a conflict exists if any ongoing `p → q` matches **defer pattern
//! 1** `(∗ : p → q)` or **defer pattern 2** `(v : p → ∗)` (§3.2).
//!
//! Entries carry an expiry (refreshed by each broadcast that re-asserts
//! them) and, for the §3.5 extension, the bit-rate they were learned at.

use std::collections::BTreeMap;

use cmap_phy::Rate;
use cmap_sim::persist;
use cmap_sim::time::Time;
use cmap_wire::MacAddr;

/// One defer-table entry.
///
/// `Ord` so the table can live in a `BTreeMap`, whose order is
/// seed-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeferEntry {
    /// `(dest : src → ∗)`: defer transmissions to `dest` while `src` is
    /// transmitting to anyone (update rule 1 / defer pattern 2).
    DestWhileSrcAny {
        /// Our destination that suffers.
        dest: MacAddr,
        /// The interfering transmitter.
        src: MacAddr,
    },
    /// `(∗ : src → dst)`: defer all transmissions while `src → dst` is in
    /// progress (update rule 2 / defer pattern 1).
    AnyWhilePair {
        /// The protected transmission's source.
        src: MacAddr,
        /// The protected transmission's destination.
        dst: MacAddr,
    },
}

persist!(enum DeferEntry {
    0 => DestWhileSrcAny { dest, src },
    1 => AnyWhilePair { src, dst },
});

/// A node's defer table with per-entry expiry and rate annotation.
#[derive(Debug, Default)]
pub struct DeferTable {
    entries: BTreeMap<DeferEntry, EntryMeta>,
}

persist!(struct DeferTable { entries });

#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    expires: Time,
    rate: Rate,
}

persist!(struct EntryMeta { expires, rate });

impl DeferTable {
    /// Empty table.
    pub fn new() -> DeferTable {
        DeferTable::default()
    }

    /// Number of live entries at time `now`.
    pub fn len_at(&self, now: Time) -> usize {
        self.entries.values().filter(|m| m.expires > now).count()
    }

    /// Insert or refresh an entry, valid until `expires`. `rate` is the
    /// bit-rate annotation of the conflict observation (§3.5).
    pub(crate) fn insert(&mut self, entry: DeferEntry, expires: Time, rate: Rate) {
        let meta = self
            .entries
            .entry(entry)
            .or_insert(EntryMeta { expires, rate });
        if expires > meta.expires {
            meta.expires = expires;
        }
        meta.rate = rate;
    }

    /// Apply **update rule 1**: we (`me`) are the source in `(me, q)` of
    /// receiver `r`'s interferer list — add `(r : q → ∗)`.
    pub fn apply_rule1(&mut self, r: MacAddr, q: MacAddr, rate: Rate, expires: Time) {
        self.insert(
            DeferEntry::DestWhileSrcAny { dest: r, src: q },
            expires,
            rate,
        );
    }

    /// Apply **update rule 2**: we are the interferer in `(q, me)` of `r`'s
    /// list — add `(∗ : q → r)`.
    pub fn apply_rule2(&mut self, r: MacAddr, q: MacAddr, rate: Rate, expires: Time) {
        self.insert(DeferEntry::AnyWhilePair { src: q, dst: r }, expires, rate);
    }

    /// Would a transmission to `dest` conflict with ongoing `p → q`?
    /// Checks defer pattern 1 `(∗ : p → q)` and pattern 2 `(dest : p → ∗)`.
    ///
    /// When `rate_filter` is `Some`, only entries annotated with that rate
    /// match (the §3.5 rate-aware mode).
    pub fn must_defer(
        &self,
        dest: MacAddr,
        p: MacAddr,
        q: MacAddr,
        now: Time,
        rate_filter: Option<Rate>,
    ) -> bool {
        let live = |e: &DeferEntry| {
            self.entries
                .get(e)
                .is_some_and(|m| m.expires > now && rate_filter.is_none_or(|r| m.rate == r))
        };
        live(&DeferEntry::AnyWhilePair { src: p, dst: q })
            || live(&DeferEntry::DestWhileSrcAny { dest, src: p })
    }

    /// Drop expired entries (called opportunistically). Returns how many
    /// were evicted, for the `cmap.expired_evicted` accounting.
    pub(crate) fn prune(&mut self, now: Time) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, m| m.expires > now);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    /// The worked example of §3.1 / Fig 4: receiver v's interferer list
    /// contains (u, x). u applies rule 1, x applies rule 2.
    #[test]
    fn figure4_worked_example() {
        let (u, v, x, y, z) = (a(1), a(2), a(3), a(4), a(5));
        let rate = Rate::R6;

        // At node u: rule 1 gives (v : x -> *).
        let mut du = DeferTable::new();
        du.apply_rule1(v, x, rate, 100);
        // u must defer sending to v while x -> y is ongoing...
        assert!(du.must_defer(v, x, y, 0, None));
        // ...and while x sends to anyone else.
        assert!(du.must_defer(v, x, z, 0, None));
        // But u may send to z while x transmits (rule 2 does not apply at u).
        assert!(!du.must_defer(z, x, y, 0, None));
        // And u need not defer to unrelated transmissions.
        assert!(!du.must_defer(v, y, z, 0, None));

        // At node x: rule 2 gives (* : u -> v).
        let mut dx = DeferTable::new();
        dx.apply_rule2(v, u, rate, 100);
        // x must defer to u -> v no matter whom x wants to reach...
        assert!(dx.must_defer(y, u, v, 0, None));
        assert!(dx.must_defer(z, u, v, 0, None));
        // ...but not while u transmits to some other node z.
        assert!(!dx.must_defer(y, u, z, 0, None));
    }

    #[test]
    fn entries_expire_and_prune() {
        let mut d = DeferTable::new();
        d.apply_rule1(a(1), a(2), Rate::R6, 50);
        assert!(d.must_defer(a(1), a(2), a(9), 49, None));
        assert!(!d.must_defer(a(1), a(2), a(9), 50, None));
        assert_eq!(d.len_at(49), 1);
        assert_eq!(d.len_at(50), 0);
        assert_eq!(d.prune(60), 1);
        assert_eq!(d.prune(60), 0, "second prune finds nothing");
        assert!(d.entries.is_empty());
    }

    #[test]
    fn refresh_extends_expiry() {
        let mut d = DeferTable::new();
        d.apply_rule1(a(1), a(2), Rate::R6, 50);
        d.apply_rule1(a(1), a(2), Rate::R6, 200);
        assert!(d.must_defer(a(1), a(2), a(9), 100, None));
        // Re-inserting with an *earlier* expiry must not shorten life.
        d.apply_rule1(a(1), a(2), Rate::R6, 10);
        assert!(d.must_defer(a(1), a(2), a(9), 100, None));
    }

    #[test]
    fn rate_aware_matching() {
        let mut d = DeferTable::new();
        d.apply_rule2(a(1), a(2), Rate::R6, 100);
        // Rate-agnostic lookup matches.
        assert!(d.must_defer(a(9), a(2), a(1), 0, None));
        // Rate-aware: only the annotated rate matches.
        assert!(d.must_defer(a(9), a(2), a(1), 0, Some(Rate::R6)));
        assert!(!d.must_defer(a(9), a(2), a(1), 0, Some(Rate::R18)));
    }

    #[test]
    fn empty_table_never_defers() {
        let d = DeferTable::new();
        assert!(!d.must_defer(a(1), a(2), a(3), 0, None));
        assert_eq!(d.len_at(0), 0);
    }
}
