//! The ongoing-transmissions list (§3.2).
//!
//! Every CMAP node runs promiscuously and tracks which virtual packets are
//! currently on the air around it, "using the source, destination, and
//! transmission time fields of the packet header to add and expire entries".
//! Headers announce a transmission's remaining duration; trailers end it
//! early; overheard data packets (which also carry source/destination)
//! refresh an entry conservatively when the header was missed.

use cmap_phy::Rate;
use cmap_sim::persist;
use cmap_sim::time::Time;
use cmap_wire::MacAddr;

/// One transmission currently believed to be in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OngoingEntry {
    /// Transmitting node.
    pub src: MacAddr,
    /// Intended receiver.
    pub dst: MacAddr,
    /// When the transmission is expected to end.
    pub until: Time,
    /// Bit-rate of the data packets (from the §3.5 annotation).
    pub rate: Rate,
}

persist!(struct OngoingEntry { src, dst, until, rate });

/// The set of transmissions in progress within hearing range. Insertion
/// order is part of the deterministic (and checkpointed) state.
#[derive(Debug, Default)]
pub struct OngoingList {
    entries: Vec<OngoingEntry>,
}

persist!(struct OngoingList { entries });

impl OngoingList {
    /// Empty list.
    pub fn new() -> OngoingList {
        OngoingList::default()
    }

    /// A header announced `src → dst` lasting until `until`.
    pub fn note_header(&mut self, src: MacAddr, dst: MacAddr, until: Time, rate: Rate) {
        match self.entries.iter_mut().find(|e| e.src == src) {
            Some(e) => {
                e.dst = dst;
                e.until = e.until.max(until);
                e.rate = rate;
            }
            None => self.entries.push(OngoingEntry {
                src,
                dst,
                until,
                rate,
            }),
        }
    }

    /// A trailer marked the end of `src`'s transmission.
    pub fn note_trailer(&mut self, src: MacAddr, now: Time) {
        self.entries.retain(|e| !(e.src == src && e.until >= now));
    }

    /// An overheard data packet from `src → dst`: keep the entry alive for
    /// at least `guard` past now (covers a missed header).
    pub fn note_data(&mut self, src: MacAddr, dst: MacAddr, now: Time, guard: Time, rate: Rate) {
        let until = now + guard;
        match self.entries.iter_mut().find(|e| e.src == src) {
            Some(e) => {
                e.dst = dst;
                e.until = e.until.max(until);
            }
            None => self.entries.push(OngoingEntry {
                src,
                dst,
                until,
                rate,
            }),
        }
    }

    /// Remove entries that have expired. Returns how many were evicted.
    pub fn prune(&mut self, now: Time) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.until > now);
        before - self.entries.len()
    }

    /// Live entries at `now`.
    pub fn iter_at(&self, now: Time) -> impl Iterator<Item = &OngoingEntry> {
        self.entries.iter().filter(move |e| e.until > now)
    }

    /// Is `node` currently the source or destination of any transmission?
    pub fn involves(&self, node: MacAddr, now: Time) -> Option<&OngoingEntry> {
        self.iter_at(now).find(|e| e.src == node || e.dst == node)
    }

    /// Latest expected end among live entries (for tests/diagnostics).
    pub fn latest_end(&self, now: Time) -> Option<Time> {
        self.iter_at(now).map(|e| e.until).max()
    }

    /// Number of live entries.
    pub fn len_at(&self, now: Time) -> usize {
        self.iter_at(now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    #[test]
    fn header_then_expiry() {
        let mut o = OngoingList::new();
        o.note_header(a(1), a(2), 1000, Rate::R6);
        assert_eq!(o.len_at(0), 1);
        assert_eq!(o.len_at(999), 1);
        assert_eq!(o.len_at(1000), 0);
        assert!(o.involves(a(1), 500).is_some());
        assert!(o.involves(a(2), 500).is_some());
        assert!(o.involves(a(3), 500).is_none());
    }

    #[test]
    fn trailer_ends_early() {
        let mut o = OngoingList::new();
        o.note_header(a(1), a(2), 10_000, Rate::R6);
        o.note_trailer(a(1), 4_000);
        assert_eq!(o.len_at(5_000), 0);
    }

    #[test]
    fn data_refreshes_missed_header() {
        let mut o = OngoingList::new();
        o.note_data(a(1), a(2), 100, 500, Rate::R6);
        assert_eq!(o.len_at(400), 1);
        // Subsequent data keeps pushing the horizon.
        o.note_data(a(1), a(2), 550, 500, Rate::R6);
        assert_eq!(o.len_at(700), 1);
        assert_eq!(o.len_at(1100), 0);
    }

    #[test]
    fn one_entry_per_source() {
        let mut o = OngoingList::new();
        o.note_header(a(1), a(2), 1000, Rate::R6);
        o.note_header(a(1), a(3), 2000, Rate::R6);
        assert_eq!(o.len_at(0), 1);
        let e = o.iter_at(0).next().unwrap();
        assert_eq!(e.dst, a(3));
        assert_eq!(e.until, 2000);
    }

    #[test]
    fn prune_discards_dead_entries() {
        let mut o = OngoingList::new();
        o.note_header(a(1), a(2), 10, Rate::R6);
        o.note_header(a(3), a(4), 1000, Rate::R6);
        assert_eq!(o.prune(500), 1);
        assert_eq!(o.entries.len(), 1);
        assert_eq!(o.latest_end(0), Some(1000));
    }
}
