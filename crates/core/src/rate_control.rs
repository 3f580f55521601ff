//! Bit-rate adaptation over the conflict map (§3.5).
//!
//! The paper's experiments fix a network-wide rate, but §3.5 sketches the
//! extension: *"online bit-rate adaptation algorithms can benefit from
//! using the information in the conflict map in choosing the best rate at
//! which to transmit."* [`ThroughputRate`] is that extension, a
//! sample-rate-style adapter: it tracks an EWMA delivery ratio per
//! (destination, rate) from the per-rate feedback the windowed ACKs
//! provide, picks the rate maximising `bit-rate × delivery`, and spends a
//! small fraction of virtual packets probing the neighbouring rates so
//! estimates stay fresh. A [`CmapMac`](crate::CmapMac) without one sends
//! at `CmapConfig::data_rate`, the paper's evaluation setting (§5.1/§5.8).
//!
//! Combined with `CmapConfig::rate_aware`, defer-table entries are
//! annotated and matched by rate, realising the §3.5 design: a sender may
//! find that 18 Mbit/s conflicts with an ongoing transmission while
//! 6 Mbit/s coexists, and the controller then faces exactly the trade the
//! paper describes — transmit slower now, or defer and transmit faster
//! later.

use std::collections::BTreeMap;

use cmap_phy::Rate;
use cmap_sim::{ckpt, persist};
use cmap_wire::MacAddr;
use rand::rngs::SmallRng;
use rand::Rng;

/// EWMA weight of new observations.
const ALPHA: f64 = 0.25;

/// Fraction of choices spent probing a neighbouring rate.
const PROBE_PROB: f64 = 0.1;

/// EWMA delivery estimate for one (destination, rate) cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    delivery: f64,
    samples: u64,
}

persist!(struct Cell { delivery, samples });

impl Default for Cell {
    fn default() -> Cell {
        // Optimistic prior so untried rates get sampled.
        Cell {
            delivery: 1.0,
            samples: 0,
        }
    }
}

/// Throughput-maximising adapter with neighbour probing.
#[derive(Debug)]
pub struct ThroughputRate {
    cells: BTreeMap<(MacAddr, Rate), Cell>,
    /// Rates the adapter may use (ordered subset of [`Rate::ALL`]).
    ladder: Vec<Rate>,
}

impl ThroughputRate {
    /// Adapter over the given rate ladder (e.g. the 6/12/18 Mbit/s set of
    /// §5.8, or all eight 802.11a rates).
    pub fn new(ladder: Vec<Rate>) -> ThroughputRate {
        assert!(!ladder.is_empty());
        ThroughputRate {
            cells: BTreeMap::new(),
            ladder,
        }
    }

    /// All eight 802.11a rates.
    pub fn full_ladder() -> ThroughputRate {
        ThroughputRate::new(Rate::ALL.to_vec())
    }

    /// Current delivery estimate for a cell (1.0 optimistic prior).
    pub(crate) fn delivery_estimate(&self, dst: MacAddr, rate: Rate) -> f64 {
        self.cells.get(&(dst, rate)).map_or(1.0, |c| c.delivery)
    }

    /// Effective-throughput score. The delivery term enters *squared*: a
    /// lost packet costs its airtime again on retransmission and, worse,
    /// risks a `τ`-scale window stall (§3.3), so raw `rate × delivery`
    /// badly overvalues lossy rungs. The quadratic penalty approximates
    /// that cost and makes the adapter prefer a clean slower rate over a
    /// leaky faster one — the same shape SampleRate's expected-transmission-
    /// time metric produces.
    fn score(&self, dst: MacAddr, rate: Rate) -> f64 {
        let d = self.delivery_estimate(dst, rate);
        rate.bits_per_sec() as f64 * d * d
    }

    fn best(&self, dst: MacAddr) -> Rate {
        *self
            .ladder
            .iter()
            .max_by(|&&a, &&b| self.score(dst, a).total_cmp(&self.score(dst, b)))
            .expect("non-empty ladder")
    }

    /// Rate for the next virtual packet to `dst`.
    pub(crate) fn choose(&mut self, dst: MacAddr, rng: &mut SmallRng) -> Rate {
        let best = self.best(dst);
        if rng.gen_bool(PROBE_PROB) {
            // Probe an adjacent ladder rung so the estimates don't go
            // stale — but not rungs that have *converged to dead* (several
            // samples, throughput far below the incumbent): every probe of
            // a dead rate costs a whole lost virtual packet, and the
            // resulting receiver-reported loss would also trip the §3.4
            // backoff.
            let idx = self.ladder.iter().position(|&r| r == best).expect("best");
            let best_score = self.score(dst, best);
            let candidates: Vec<Rate> = [idx.checked_sub(1), Some(idx + 1)]
                .into_iter()
                .flatten()
                .filter_map(|i| self.ladder.get(i).copied())
                .filter(|&r| {
                    let cell = self.cells.get(&(dst, r));
                    match cell {
                        None => true, // unknown: worth a look
                        Some(c) => c.samples < 3 || self.score(dst, r) > 0.5 * best_score,
                    }
                })
                .collect();
            if !candidates.is_empty() {
                return candidates[rng.gen_range(0..candidates.len())];
            }
        }
        best
    }

    /// Of the data packets sent to `dst` at `rate`, `acked` were eventually
    /// acknowledged and `lost` were given up on (repacked for
    /// retransmission).
    pub(crate) fn feedback(&mut self, dst: MacAddr, rate: Rate, acked: usize, lost: usize) {
        let total = acked + lost;
        if total == 0 {
            return;
        }
        let observed = acked as f64 / total as f64;
        let cell = self.cells.entry((dst, rate)).or_default();
        if cell.samples == 0 {
            cell.delivery = observed;
        } else {
            cell.delivery = (1.0 - ALPHA) * cell.delivery + ALPHA * observed;
        }
        cell.samples += 1;
    }

    /// Append the delivery estimates as a nested checkpoint blob.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        ckpt::write_blob(out, |w| w.put(&self.cells));
    }

    /// Restore [`ThroughputRate::save_state`] bytes.
    pub(crate) fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.cells = ckpt::read_blob(bytes, |r| r.get())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_sim::rng::stream_rng;

    fn dst() -> MacAddr {
        MacAddr::from_node_index(9)
    }

    #[test]
    fn adapter_climbs_to_the_best_clean_rate() {
        let mut rc = ThroughputRate::new(vec![Rate::R6, Rate::R12, Rate::R18]);
        let mut rng = stream_rng(2, 0);
        // Perfect delivery everywhere: it must settle on 18 Mbit/s.
        for _ in 0..50 {
            let r = rc.choose(dst(), &mut rng);
            rc.feedback(dst(), r, 32, 0);
        }
        assert_eq!(rc.best(dst()), Rate::R18);
    }

    #[test]
    fn adapter_backs_off_from_a_lossy_rate() {
        let mut rc = ThroughputRate::new(vec![Rate::R6, Rate::R12, Rate::R18]);
        let mut rng = stream_rng(3, 0);
        for _ in 0..120 {
            let r = rc.choose(dst(), &mut rng);
            // 18 Mbit/s loses 90% of packets; 12 Mbit/s loses 20%; 6 clean.
            let (acked, lost) = match r {
                Rate::R18 => (3, 29),
                Rate::R12 => (26, 6),
                _ => (32, 0),
            };
            rc.feedback(dst(), r, acked, lost);
        }
        // Throughput: 18*0.1 = 1.8 < 12*0.8 = 9.6 > 6*1.0 = 6.
        assert_eq!(rc.best(dst()), Rate::R12);
        assert!(rc.delivery_estimate(dst(), Rate::R18) < 0.3);
    }

    #[test]
    fn estimates_are_per_destination() {
        let mut rc = ThroughputRate::new(vec![Rate::R6, Rate::R54]);
        let other = MacAddr::from_node_index(7);
        for _ in 0..30 {
            rc.feedback(dst(), Rate::R54, 0, 32); // dead to dst
            rc.feedback(other, Rate::R54, 32, 0); // clean to other
        }
        assert_eq!(rc.best(dst()), Rate::R6);
        assert_eq!(rc.best(other), Rate::R54);
    }

    #[test]
    fn probing_visits_neighbours() {
        let mut rc = ThroughputRate::new(vec![Rate::R6, Rate::R12, Rate::R18]);
        let mut rng = stream_rng(4, 0);
        for _ in 0..40 {
            let r = rc.choose(dst(), &mut rng);
            rc.feedback(dst(), r, 32, 0);
        }
        // Best is 18; over many draws some probes at 12 must occur.
        let mut probed = false;
        for _ in 0..200 {
            if rc.choose(dst(), &mut rng) == Rate::R12 {
                probed = true;
                break;
            }
        }
        assert!(probed, "never probed the lower neighbour");
    }
}
