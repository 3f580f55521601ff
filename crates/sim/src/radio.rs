//! Per-node radio state: a half-duplex PHY state machine, stored
//! struct-of-arrays across all nodes.
//!
//! The radio layer tracks every frame currently impinging on each node (for
//! energy accounting), holds at most one *lock* per node (the frame actually
//! being decoded), and implements preamble capture. It deliberately knows
//! nothing about frame contents — the world layer attaches meanings; radios
//! only see powers and times.
//!
//! Locking rules (modelled on commodity 802.11 hardware, cf. §2.1/§6 of the
//! paper):
//! * An **idle** radio attempts to lock every arriving frame; the attempt
//!   succeeds with the preamble/SIGNAL decode probability at the SINR at
//!   arrival time.
//! * A **locked** radio treats later arrivals as interference, except that a
//!   much stronger frame steals the lock: within the current lock's
//!   preamble+SIGNAL window this is *preamble capture*
//!   (`capture_margin_db`), after it *message-in-message capture*
//!   (`mim_margin_db`) — the OFDM receiver restarting on a much louder
//!   preamble, which Atheros-era hardware does and the paper's exposed
//!   terminals rely on for ACK delivery.
//! * A **transmitting** radio is deaf: arrivals are tracked for energy only.
//!
//! # Layout
//!
//! [`RadioBank`] keeps one array per field instead of one struct per node.
//! The carrier-sense hot path — [`RadioBank::busy`] runs on every MAC
//! dispatch and every `check_channel_edge` iteration — reads exactly two
//! dense arrays (a packed state byte and the running energy total), so
//! sweeps over many nodes touch a handful of cache lines instead of one
//! scattered `Radio` struct per node. The cold per-node state (lock
//! records, impinging-frame lists, recycled profile buffers) lives in its
//! own arrays that only reception events touch. The per-node energy total
//! is maintained incrementally (add on frame start, subtract on frame end,
//! snap to exactly `0.0` whenever the impinging set empties so float
//! residue cannot accumulate) — `busy` no longer sums the impinging list.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use crate::config::PhyLinear;
use crate::event::TxId;
use crate::persist;
use crate::time::Time;
use cmap_phy::{gate, preamble_success_prob, DrawGate, PLCP_PREAMBLE_NS, PLCP_SIG_NS};

/// Coarse radio state exposed to MACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioPhase {
    /// Neither transmitting nor locked onto a frame.
    Idle,
    /// Locked onto an incoming frame.
    Receiving,
    /// Transmitting.
    Transmitting,
}

/// One frame currently impinging on a node.
#[derive(Debug, Clone, Copy)]
struct Incoming {
    tx_id: TxId,
    power_mw: f64,
}

persist!(struct Incoming { tx_id, power_mw });

/// The frame currently being decoded at a node.
#[derive(Debug, Clone)]
pub(crate) struct RxLock {
    pub tx_id: TxId,
    pub lock_time: Time,
    pub signal_mw: f64,
    /// Piecewise-constant interference (mW, excluding the locked signal)
    /// as `(change_time, level_after)`, starting with the level at lock.
    pub interference: Vec<(Time, f64)>,
}

persist!(struct RxLock { tx_id, lock_time, signal_mw, interference });

/// What happened when a frame arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// Radio locked onto the new frame.
    Locked,
    /// New frame stole the lock from a weaker frame still in its preamble.
    Captured { displaced: TxId },
    /// Frame is interference only (no lock, or lock attempt failed).
    Interference,
}

/// Completed reception of a locked frame, to be graded by the world.
#[derive(Debug, Clone)]
pub(crate) struct RxCompletion {
    pub tx_id: TxId,
    pub lock_time: Time,
    pub signal_mw: f64,
    /// Interference profile during the lock (see [`RxLock::interference`]).
    pub interference: Vec<(Time, f64)>,
}

/// Packed per-node state bits (the `state` hot array).
mod flag {
    /// Powered off or wedged by fault injection.
    pub const DISABLED: u8 = 1 << 0;
    /// A transmission is in progress.
    pub const TX: u8 = 1 << 1;
    /// A reception lock is held.
    pub const LOCKED: u8 = 1 << 2;
    /// Cached busy flag for edge-triggered carrier notifications.
    pub const LAST_BUSY: u8 = 1 << 3;
    /// Any bit that makes the channel read busy regardless of energy.
    pub const ANY_BUSY: u8 = DISABLED | TX | LOCKED;
}

/// Largest relative gap between a node's running energy total and a fresh
/// re-sum of its impinging frames the watchdog accepts: 4·10⁻⁶ dB, ~200×
/// the worst drift measured in a benchmark workload (DESIGN.md §7.5).
const ENERGY_DRIFT_BOUND: f64 = 1e-6;

/// All radios of a world, one array per field (struct-of-arrays).
#[derive(Debug)]
pub(crate) struct RadioBank {
    // Hot arrays: the only state `busy`/`phase` touch.
    /// Packed [`flag`] bits per node.
    state: Vec<u8>,
    /// Running sum of impinging frame powers in mW per node, maintained
    /// incrementally and snapped to `0.0` when the impinging set empties.
    energy_total: Vec<f64>,

    // Cold arrays: touched only by reception/transmission events.
    /// Frames currently impinging on each node.
    incoming: Vec<Vec<Incoming>>,
    /// The reception lock, if [`flag::LOCKED`] is set.
    lock: Vec<Option<RxLock>>,
    /// Receptions aborted because the MAC started transmitting over them.
    aborted_rx: Vec<u64>,
    /// Recycled interference-profile buffers: the next lock reuses the
    /// capacity of the last completed (or dropped) one instead of
    /// allocating per reception.
    spare_profile: Vec<Vec<(Time, f64)>>,

    /// Brackets of the lock probability (shared, immutable).
    gate: &'static DrawGate,
    /// Lock draws the bracket settled, and those that needed
    /// [`preamble_success_prob`]: host-side counts, in no artifact.
    pub lock_draws: (u64, u64),
}

impl RadioBank {
    /// A bank of `n` idle radios.
    pub fn new(n: usize) -> RadioBank {
        RadioBank {
            state: vec![0; n],
            energy_total: vec![0.0; n],
            incoming: (0..n).map(|_| Vec::new()).collect(),
            lock: (0..n).map(|_| None).collect(),
            aborted_rx: vec![0; n],
            spare_profile: (0..n).map(|_| Vec::new()).collect(),
            gate: DrawGate::shared(),
            lock_draws: (0, 0),
        }
    }

    /// One lock attempt at `sinr`: the draw `gen_bool(p)` makes, compared
    /// with `p = preamble_success_prob(sinr)` — which is only evaluated
    /// when the draw falls inside the SINR cell's bracket of it.
    fn draw_lock(&mut self, sinr: f64, rng: &mut SmallRng) -> bool {
        let unit: f64 = rng.gen();
        let exact = || unit < preamble_success_prob(sinr).clamp(0.0, 1.0);
        match self
            .gate
            .lock_bracket(sinr)
            .and_then(|b| gate::decide(b, unit))
        {
            Some(locked) => {
                self.lock_draws.0 += 1;
                debug_assert_eq!(
                    locked,
                    exact(),
                    "lock bracket at sinr {sinr:e}, draw {unit:e}"
                );
                locked
            }
            None => {
                self.lock_draws.1 += 1;
                exact()
            }
        }
    }

    /// Number of radios in the bank.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// A profile buffer seeded with the level at lock time, reusing the
    /// node's spare buffer capacity when one is parked.
    fn fresh_profile(&mut self, node: usize, at: Time, level: f64) -> Vec<(Time, f64)> {
        let mut buf = std::mem::take(&mut self.spare_profile[node]);
        buf.clear();
        buf.push((at, level));
        buf
    }

    /// Park a used interference buffer for the node's next lock (keeps the
    /// larger capacity when two race back).
    pub(crate) fn recycle_profile(&mut self, node: usize, mut buf: Vec<(Time, f64)>) {
        buf.clear();
        if buf.capacity() > self.spare_profile[node].capacity() {
            self.spare_profile[node] = buf;
        }
    }

    fn set_lock(&mut self, node: usize, lock: RxLock) {
        self.lock[node] = Some(lock);
        self.state[node] |= flag::LOCKED;
    }

    fn take_lock(&mut self, node: usize) -> Option<RxLock> {
        self.state[node] &= !flag::LOCKED;
        self.lock[node].take()
    }

    /// Current coarse phase.
    pub fn phase(&self, node: usize) -> RadioPhase {
        let s = self.state[node];
        if s & flag::TX != 0 {
            RadioPhase::Transmitting
        } else if s & flag::LOCKED != 0 {
            RadioPhase::Receiving
        } else {
            RadioPhase::Idle
        }
    }

    /// Sum of impinging frame powers in mW, optionally excluding one frame.
    /// The no-exclusion reading is the maintained running total; exclusion
    /// re-sums the (short) impinging list so interference levels written to
    /// profiles stay exactly `0.0` when nothing else is on the air.
    pub fn energy_mw(&self, node: usize, exclude: Option<TxId>) -> f64 {
        match exclude {
            None => self.energy_total[node],
            Some(id) => self.incoming[node]
                .iter()
                .filter(|f| f.tx_id != id)
                .map(|f| f.power_mw)
                .sum(),
        }
    }

    /// 802.11-style clear-channel assessment: busy while transmitting,
    /// locked onto any frame, or when raw in-band energy exceeds the
    /// preamble-detection threshold (which sits well below decode
    /// sensitivity — carrier sense hears further than data carries).
    /// A disabled radio also reads busy: a wedged front-end cannot report
    /// a clear channel, and the busy -> idle edge at recovery is what
    /// wakes carrier-waiting MACs back up.
    pub fn busy(&self, node: usize, phy: &PhyLinear) -> bool {
        self.state[node] & flag::ANY_BUSY != 0 || self.energy_total[node] >= phy.cca_busy_mw
    }

    /// The cached busy flag for edge-triggered carrier notifications.
    pub fn last_busy(&self, node: usize) -> bool {
        self.state[node] & flag::LAST_BUSY != 0
    }

    /// Update the cached busy flag.
    pub fn set_last_busy(&mut self, node: usize, busy: bool) {
        if busy {
            self.state[node] |= flag::LAST_BUSY;
        } else {
            self.state[node] &= !flag::LAST_BUSY;
        }
    }

    /// Receptions aborted at `node` because its MAC transmitted over them.
    #[cfg(test)]
    pub fn aborted_rx(&self, node: usize) -> u64 {
        self.aborted_rx[node]
    }

    /// True while powered off or wedged by fault injection.
    pub fn is_disabled(&self, node: usize) -> bool {
        self.state[node] & flag::DISABLED != 0
    }

    /// Fault injection: the radio goes deaf mid-whatever. Any reception in
    /// progress is lost and tracked energies are forgotten (frames still on
    /// the air when the radio recovers are not heard). A transmission
    /// already started keeps its [`flag::TX`] marker — the energy is
    /// physically committed and `end_tx` still fires. Returns `true` if a
    /// locked reception was dropped.
    pub fn power_off(&mut self, node: usize) -> bool {
        self.state[node] |= flag::DISABLED;
        self.incoming[node].clear();
        self.energy_total[node] = 0.0;
        match self.take_lock(node) {
            Some(lock) => {
                self.recycle_profile(node, lock.interference);
                true
            }
            None => false,
        }
    }

    /// Fault injection: the radio comes back. Caller re-checks carrier
    /// edges so MACs observe the busy -> idle recovery transition.
    pub fn power_on(&mut self, node: usize) {
        self.state[node] &= !flag::DISABLED;
    }

    /// Watchdog: structural invariants that must hold between events.
    /// Half-duplex (never locked while transmitting), no reception
    /// surviving a power-off, and the hot arrays agreeing with the cold
    /// state they summarise.
    pub fn invariants_ok(&self, node: usize) -> bool {
        let s = self.state[node];
        let lock_flag_ok = (s & flag::LOCKED != 0) == self.lock[node].is_some();
        // An empty impinging set must read exactly zero energy (the snap in
        // `frame_end`); bit compare, as this is an exact-representation
        // invariant, not a numeric tolerance. A set that never empties
        // never snaps: there the total is held to a fresh re-sum.
        let energy_ok = if self.incoming[node].is_empty() {
            self.energy_total[node].to_bits() == 0
        } else {
            let resum: f64 = self.incoming[node].iter().map(|f| f.power_mw).sum();
            (self.energy_total[node] - resum).abs() <= ENERGY_DRIFT_BOUND * resum
        };
        lock_flag_ok && energy_ok && (s & flag::LOCKED == 0 || s & (flag::TX | flag::DISABLED) == 0)
    }

    /// True if the radio is locked on the given transmission.
    pub fn locked_on(&self, node: usize, tx_id: TxId) -> bool {
        self.lock[node].as_ref().is_some_and(|l| l.tx_id == tx_id)
    }

    /// A new frame's energy arrives at `node`. Returns whether it got the
    /// lock.
    pub fn frame_start(
        &mut self,
        node: usize,
        tx_id: TxId,
        power_mw: f64,
        now: Time,
        phy: &PhyLinear,
        rng: &mut SmallRng,
    ) -> LockOutcome {
        if self.is_disabled(node) {
            // Deaf: the energy is not even tracked (the matching frame_end
            // finds nothing to remove).
            return LockOutcome::Interference;
        }
        let noise = phy.noise_mw;
        // Interference the new frame would see: everything already here.
        let interference_for_new = self.energy_total[node];
        self.incoming[node].push(Incoming { tx_id, power_mw });
        self.energy_total[node] += power_mw;

        if self.state[node] & flag::TX != 0 {
            return LockOutcome::Interference;
        }

        let preamble_window = PLCP_PREAMBLE_NS + PLCP_SIG_NS;
        let Some((lock_time, lock_signal, lock_tx_id)) = self.lock[node]
            .as_ref()
            .map(|l| (l.lock_time, l.signal_mw, l.tx_id))
        else {
            // Idle: attempt to lock the new frame.
            if power_mw >= phy.sensitivity_mw {
                let sinr = power_mw / (noise + interference_for_new);
                if self.draw_lock(sinr, rng) {
                    let interference = self.fresh_profile(node, now, interference_for_new);
                    self.set_lock(
                        node,
                        RxLock {
                            tx_id,
                            lock_time: now,
                            signal_mw: power_mw,
                            interference,
                        },
                    );
                    return LockOutcome::Locked;
                }
            }
            return LockOutcome::Interference;
        };

        let in_preamble = now < lock_time + preamble_window;
        let capture_ratio = if in_preamble {
            phy.capture_ratio
        } else {
            phy.mim_ratio
        };
        if capture_ratio.is_some_and(|ratio| power_mw > lock_signal * ratio) {
            // The displaced frame keeps radiating: it is interference for
            // the new lock.
            let interference_for_new = self.energy_mw(node, Some(tx_id));
            let sinr = power_mw / (noise + interference_for_new);
            if self.draw_lock(sinr, rng) {
                // The displaced lock's buffer feeds the new one.
                if let Some(old) = self.take_lock(node) {
                    self.recycle_profile(node, old.interference);
                }
                let interference = self.fresh_profile(node, now, interference_for_new);
                self.set_lock(
                    node,
                    RxLock {
                        tx_id,
                        lock_time: now,
                        signal_mw: power_mw,
                        interference,
                    },
                );
                return LockOutcome::Captured {
                    displaced: lock_tx_id,
                };
            }
        }
        // Plain interference for the existing lock.
        let level = self.energy_mw(node, Some(lock_tx_id));
        if let Some(lock) = &mut self.lock[node] {
            lock.interference.push((now, level));
        }
        LockOutcome::Interference
    }

    /// A frame's energy leaves `node`. If it was the locked frame, the
    /// completed reception is returned for grading.
    pub fn frame_end(&mut self, node: usize, tx_id: TxId, now: Time) -> Option<RxCompletion> {
        if let Some(pos) = self.incoming[node].iter().position(|f| f.tx_id == tx_id) {
            let gone = self.incoming[node].swap_remove(pos);
            if self.incoming[node].is_empty() {
                // Snap the running total so float residue from the
                // add/remove churn cannot masquerade as channel energy.
                self.energy_total[node] = 0.0;
            } else {
                self.energy_total[node] -= gone.power_mw;
            }
        }
        if self.locked_on(node, tx_id) {
            let lock = self.take_lock(node).expect("checked");
            return Some(RxCompletion {
                tx_id: lock.tx_id,
                lock_time: lock.lock_time,
                signal_mw: lock.signal_mw,
                interference: lock.interference,
            });
        }
        // Interference level dropped for an ongoing lock.
        if let Some(lock_tx) = self.lock[node].as_ref().map(|l| l.tx_id) {
            let level = self.energy_mw(node, Some(lock_tx));
            if let Some(lock) = &mut self.lock[node] {
                lock.interference.push((now, level));
            }
        }
        None
    }

    /// The MAC starts transmitting. Any reception in progress is aborted
    /// (MadWifi-with-CS-disabled behaviour); the caller has already checked
    /// the abort policy. Returns `false` — refusing the transmission — on a
    /// half-duplex violation (already transmitting), which the world records
    /// as a watchdog violation instead of panicking.
    #[must_use]
    pub fn begin_tx(&mut self, node: usize, _tx_id: TxId) -> bool {
        if self.state[node] & flag::TX != 0 {
            debug_assert!(false, "begin_tx while transmitting");
            return false;
        }
        if let Some(lock) = self.take_lock(node) {
            self.recycle_profile(node, lock.interference);
            self.aborted_rx[node] += 1;
        }
        self.state[node] |= flag::TX;
        true
    }

    /// The transmission finished. Returns `false` if the radio was not
    /// transmitting (a state-machine violation the world records).
    pub fn end_tx(&mut self, node: usize) -> bool {
        let was = self.state[node] & flag::TX != 0;
        debug_assert!(was, "end_tx while not transmitting");
        self.state[node] &= !flag::TX;
        was
    }
}

/// The bank is struct-of-arrays in memory but one record per node on the
/// wire, so the two directions walk the columns by hand. `spare_profile`
/// is skipped on purpose: parked buffer capacity is an allocation
/// optimisation with no effect on any simulated outcome.
impl Persist for RadioBank {
    fn save(&self, w: &mut CkptWriter) {
        w.len(self.len());
        for n in 0..self.len() {
            w.put(&self.state[n]);
            w.put(&self.energy_total[n]);
            w.put(&self.incoming[n]);
            w.put(&self.lock[n]);
            w.put(&self.aborted_rx[n]);
        }
    }

    fn load(r: &mut CkptReader<'_>) -> Result<RadioBank, CkptError> {
        // `count` has already held the length against the bytes left.
        let n = r.count::<(u8, f64, Vec<Incoming>, Option<RxLock>, u64)>()?;
        let mut bank = RadioBank::new(n);
        for node in 0..n {
            bank.state[node] = r.get()?;
            bank.energy_total[node] = r.get()?;
            bank.incoming[node] = r.get()?;
            bank.lock[node] = r.get()?;
            if (bank.state[node] & flag::LOCKED != 0) != bank.lock[node].is_some() {
                return Err(CkptError::Malformed(format!(
                    "radio {node} lock flag disagrees with lock record"
                )));
            }
            bank.aborted_rx[node] = r.get()?;
        }
        Ok(bank)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;
    use crate::config::PhyConfig;
    use crate::rng::stream_rng;
    use cmap_phy::dbm_to_mw;

    fn phy() -> PhyLinear {
        PhyLinear::new(&PhyConfig::default())
    }

    fn mw(dbm: f64) -> f64 {
        dbm_to_mw(dbm)
    }

    /// A one-radio bank: the unit under test in most cases below.
    fn bank() -> RadioBank {
        RadioBank::new(1)
    }

    #[test]
    fn strong_lone_frame_locks() {
        let mut r = bank();
        let mut rng = stream_rng(1, 1);
        let out = r.frame_start(0, 1, mw(-60.0), 0, &phy(), &mut rng);
        assert_eq!(out, LockOutcome::Locked);
        assert_eq!(r.phase(0), RadioPhase::Receiving);
        let done = r.frame_end(0, 1, 1000).expect("completion");
        assert_eq!(done.tx_id, 1);
        assert_eq!(r.phase(0), RadioPhase::Idle);
    }

    #[test]
    fn frame_below_sensitivity_never_locks() {
        let mut r = bank();
        let mut rng = stream_rng(1, 2);
        let out = r.frame_start(0, 1, mw(-100.0), 0, &phy(), &mut rng);
        assert_eq!(out, LockOutcome::Interference);
        assert!(r.frame_end(0, 1, 1000).is_none());
    }

    #[test]
    fn second_frame_is_interference_and_profiled() {
        let mut r = bank();
        let mut rng = stream_rng(1, 3);
        assert_eq!(
            r.frame_start(0, 1, mw(-60.0), 0, &phy(), &mut rng),
            LockOutcome::Locked
        );
        // Weak late frame: interference, logged in the profile.
        assert_eq!(
            r.frame_start(0, 2, mw(-80.0), 50_000, &phy(), &mut rng),
            LockOutcome::Interference
        );
        let _ = r.frame_end(0, 2, 60_000);
        let done = r.frame_end(0, 1, 100_000).unwrap();
        // Profile: lock-time level 0, rise at 50 us, fall at 60 us.
        assert_eq!(done.interference.len(), 3);
        assert_eq!(done.interference[0], (0, 0.0));
        assert!((done.interference[1].1 - mw(-80.0)).abs() < 1e-12);
        assert_eq!(done.interference[2].1, 0.0);
    }

    #[test]
    fn preamble_capture_steals_lock() {
        let mut r = bank();
        let mut rng = stream_rng(1, 4);
        assert_eq!(
            r.frame_start(0, 1, mw(-80.0), 0, &phy(), &mut rng),
            LockOutcome::Locked
        );
        // 15 dB stronger frame inside the 20 us preamble window.
        let out = r.frame_start(0, 2, mw(-65.0), 10_000, &phy(), &mut rng);
        assert_eq!(out, LockOutcome::Captured { displaced: 1 });
        assert!(r.locked_on(0, 2));
        // Frame 1 ending is now mere interference relief.
        assert!(r.frame_end(0, 1, 20_000).is_none());
        assert!(r.frame_end(0, 2, 50_000).is_some());
    }

    #[test]
    fn mim_capture_steals_lock_after_preamble() {
        let mut r = bank();
        let mut rng = stream_rng(1, 5);
        assert_eq!(
            r.frame_start(0, 1, mw(-80.0), 0, &phy(), &mut rng),
            LockOutcome::Locked
        );
        // 25 dB stronger frame arriving mid-payload restarts reception.
        let out = r.frame_start(0, 2, mw(-55.0), 30_000, &phy(), &mut rng);
        assert_eq!(out, LockOutcome::Captured { displaced: 1 });
        assert!(r.locked_on(0, 2));
    }

    #[test]
    fn no_mim_capture_when_disabled() {
        let cfg = PhyLinear::new(&PhyConfig {
            mim_capture: false,
            ..PhyConfig::default()
        });
        let mut r = bank();
        let mut rng = stream_rng(1, 5);
        assert_eq!(
            r.frame_start(0, 1, mw(-80.0), 0, &cfg, &mut rng),
            LockOutcome::Locked
        );
        let out = r.frame_start(0, 2, mw(-55.0), 30_000, &cfg, &mut rng);
        assert_eq!(out, LockOutcome::Interference);
        assert!(r.locked_on(0, 1));
    }

    #[test]
    fn weak_latecomer_never_mim_captures() {
        let mut r = bank();
        let mut rng = stream_rng(1, 15);
        assert_eq!(
            r.frame_start(0, 1, mw(-60.0), 0, &phy(), &mut rng),
            LockOutcome::Locked
        );
        // Only 5 dB stronger: below the 10 dB MIM margin.
        let out = r.frame_start(0, 2, mw(-55.0), 30_000, &phy(), &mut rng);
        assert_eq!(out, LockOutcome::Interference);
        assert!(r.locked_on(0, 1));
    }

    #[test]
    fn capture_disabled_by_config() {
        let cfg = PhyLinear::new(&PhyConfig {
            preamble_capture: false,
            ..PhyConfig::default()
        });
        let mut r = bank();
        let mut rng = stream_rng(1, 6);
        assert_eq!(
            r.frame_start(0, 1, mw(-80.0), 0, &cfg, &mut rng),
            LockOutcome::Locked
        );
        assert_eq!(
            r.frame_start(0, 2, mw(-50.0), 5_000, &cfg, &mut rng),
            LockOutcome::Interference
        );
    }

    #[test]
    fn transmitting_radio_is_deaf() {
        let mut r = bank();
        let mut rng = stream_rng(1, 7);
        assert!(r.begin_tx(0, 99));
        assert_eq!(r.phase(0), RadioPhase::Transmitting);
        assert_eq!(
            r.frame_start(0, 1, mw(-50.0), 0, &phy(), &mut rng),
            LockOutcome::Interference
        );
        r.end_tx(0);
        assert_eq!(r.phase(0), RadioPhase::Idle);
        // The mid-air frame is not locked retroactively.
        assert!(r.frame_end(0, 1, 1_000).is_none());
    }

    #[test]
    fn begin_tx_aborts_reception() {
        let mut r = bank();
        let mut rng = stream_rng(1, 8);
        assert_eq!(
            r.frame_start(0, 1, mw(-60.0), 0, &phy(), &mut rng),
            LockOutcome::Locked
        );
        assert!(r.begin_tx(0, 50));
        assert_eq!(r.aborted_rx(0), 1);
        assert!(r.frame_end(0, 1, 10_000).is_none());
    }

    #[test]
    fn interference_profile_spans_capture() {
        // After a MIM capture, the new lock's profile starts with the
        // displaced frame's power as interference.
        let mut r = bank();
        let mut rng = stream_rng(1, 20);
        assert_eq!(
            r.frame_start(0, 1, mw(-80.0), 0, &phy(), &mut rng),
            LockOutcome::Locked
        );
        assert_eq!(
            r.frame_start(0, 2, mw(-55.0), 40_000, &phy(), &mut rng),
            LockOutcome::Captured { displaced: 1 }
        );
        // Frame 1 ends mid-way through frame 2's reception.
        assert!(r.frame_end(0, 1, 60_000).is_none());
        let done = r.frame_end(0, 2, 100_000).expect("frame 2 completes");
        assert_eq!(done.lock_time, 40_000);
        // Profile: starts at -80 dBm interference, drops to 0 at 60 us.
        assert_eq!(done.interference.len(), 2);
        assert!((done.interference[0].1 - mw(-80.0)).abs() < 1e-12);
        assert_eq!(done.interference[1], (60_000, 0.0));
    }

    #[test]
    fn energy_sums_and_excludes() {
        let mut r = bank();
        let mut rng = stream_rng(1, 21);
        r.frame_start(0, 1, mw(-70.0), 0, &phy(), &mut rng);
        r.frame_start(0, 2, mw(-70.0), 10, &phy(), &mut rng);
        let total = r.energy_mw(0, None);
        assert!((total - 2.0 * mw(-70.0)).abs() < 1e-15);
        assert!((r.energy_mw(0, Some(1)) - mw(-70.0)).abs() < 1e-15);
        r.frame_end(0, 1, 100);
        r.frame_end(0, 2, 100);
        assert_eq!(r.energy_mw(0, None), 0.0);
    }

    #[test]
    fn incremental_energy_total_snaps_back_to_zero() {
        // Regression guard for the running-total layout: removing frames in
        // a different order than they arrived must still leave exactly zero
        // once the air clears (the empty-set snap), and the total must track
        // the live sum in between.
        let mut r = bank();
        let mut rng = stream_rng(1, 23);
        for (id, dbm) in [(1u64, -63.0), (2, -71.0), (3, -88.0)] {
            r.frame_start(0, id, mw(dbm), id, &phy(), &mut rng);
        }
        r.frame_end(0, 2, 100);
        let expect: f64 = r.energy_mw(0, Some(u64::MAX));
        assert!((r.energy_mw(0, None) - expect).abs() <= 1e-12 * expect);
        r.frame_end(0, 3, 101);
        r.frame_end(0, 1, 102);
        assert_eq!(r.energy_mw(0, None), 0.0);
        assert!(!r.busy(0, &phy()));
    }

    #[test]
    fn running_energy_total_stays_within_the_audited_bound_under_churn() {
        // A saturated cell: 20 000 arrivals and as many departures over a
        // set of 2..=48 frames that never empties, so the zero snap never
        // fires, with powers spread over the 70 dB between the delivery
        // floor and a next-door transmitter. The audit must hold at every
        // step, with room to spare.
        use rand::Rng;
        let mut r = bank();
        let mut rng = stream_rng(1, 24);
        let mut on_air: Vec<TxId> = Vec::new();
        let (mut next_id, mut removed, mut worst) = (0u64, 0u32, 0.0f64);
        while removed < 20_000 {
            if on_air.len() < 2 || (on_air.len() < 48 && rng.gen_bool(0.5)) {
                let dbm = -105.0 + 70.0 * rng.gen::<f64>();
                r.frame_start(0, next_id, mw(dbm), next_id, &phy(), &mut rng);
                on_air.push(next_id);
                next_id += 1;
            } else {
                let gone = on_air.swap_remove(rng.gen_range(0..on_air.len()));
                r.frame_end(0, gone, next_id);
                removed += 1;
            }
            assert!(r.invariants_ok(0), "after {removed} removals");
            let resum = r.energy_mw(0, Some(TxId::MAX));
            worst = worst.max((r.energy_mw(0, None) - resum).abs() / resum);
        }
        assert!(worst > 0.0, "churn this long leaves float residue");
        assert!(worst < ENERGY_DRIFT_BOUND / 5.0, "worst drift {worst:e}");
        // And the audit does see a total that has walked off its set.
        r.energy_total[0] *= 1.0 + 10.0 * ENERGY_DRIFT_BOUND;
        assert!(!r.invariants_ok(0));
    }

    #[test]
    fn aborted_rx_counter_increments() {
        let mut r = bank();
        let mut rng = stream_rng(1, 22);
        for tx in 0..3u64 {
            r.frame_start(0, tx, mw(-60.0), tx, &phy(), &mut rng);
            assert!(r.begin_tx(0, 100 + tx));
            assert!(r.end_tx(0));
            r.frame_end(0, tx, 50);
        }
        assert_eq!(r.aborted_rx(0), 3);
    }

    #[test]
    fn power_off_drops_lock_and_deafens() {
        let mut r = bank();
        let cfg = phy();
        let mut rng = stream_rng(1, 30);
        assert_eq!(
            r.frame_start(0, 1, mw(-60.0), 0, &cfg, &mut rng),
            LockOutcome::Locked
        );
        assert!(r.power_off(0)); // a lock was dropped
        assert!(r.is_disabled(0));
        assert!(r.busy(0, &cfg)); // wedged radio reads busy
        assert!(r.invariants_ok(0));
        // Deaf: new frames are not even tracked.
        assert_eq!(
            r.frame_start(0, 2, mw(-50.0), 10_000, &cfg, &mut rng),
            LockOutcome::Interference
        );
        assert_eq!(r.energy_mw(0, None), 0.0);
        // The dropped frame's end finds nothing.
        assert!(r.frame_end(0, 1, 20_000).is_none());
        assert!(r.frame_end(0, 2, 30_000).is_none());
        r.power_on(0);
        assert_eq!(r.phase(0), RadioPhase::Idle);
        assert!(!r.busy(0, &cfg));
    }

    #[test]
    fn nodes_in_a_bank_are_independent() {
        // SoA regression guard: state changes at one index never leak into
        // a neighbour's arrays.
        let mut r = RadioBank::new(3);
        let cfg = phy();
        let mut rng = stream_rng(1, 41);
        assert_eq!(
            r.frame_start(1, 7, mw(-60.0), 0, &cfg, &mut rng),
            LockOutcome::Locked
        );
        assert!(r.begin_tx(2, 9));
        r.power_off(0);
        assert_eq!(r.phase(0), RadioPhase::Idle);
        assert_eq!(r.phase(1), RadioPhase::Receiving);
        assert_eq!(r.phase(2), RadioPhase::Transmitting);
        assert!(r.is_disabled(0) && !r.is_disabled(1) && !r.is_disabled(2));
        assert_eq!(r.energy_mw(0, None), 0.0);
        assert!(r.energy_mw(1, None) > 0.0);
        for n in 0..3 {
            assert!(r.invariants_ok(n), "node {n}");
        }
        assert!(r.end_tx(2));
        assert!(r.frame_end(1, 7, 1000).is_some());
        r.power_on(0);
        assert!(!r.busy(0, &cfg) && !r.busy(1, &cfg) && !r.busy(2, &cfg));
    }

    /// Property (ISSUE 3 satellite): however a power-off/lockup interleaves
    /// with receptions and a transmission, the radio returns to `Idle` with
    /// zero tracked energy and intact invariants once every frame has ended
    /// — no orphaned reservations survive the outage.
    mod power_off_property {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Step {
            Start(u64, f64),
            End(u64),
            BeginTx,
            EndTx,
            PowerOff,
            PowerOn,
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn always_returns_to_idle(
                frames in prop::collection::vec(
                    (-90.0f64..-50.0, 0u64..100_000, 1_000u64..200_000),
                    1..12,
                ),
                cut in 0u64..250_000,
                do_tx in any::<bool>(),
                tx_at in 0u64..150_000,
                seed in any::<u64>(),
            ) {
                let cfg = phy();
                let mut rng = stream_rng(seed, 1);
                let mut steps: Vec<(u64, u8, Step)> = Vec::new();
                for (id, &(dbm, start, len)) in frames.iter().enumerate() {
                    let id = id as u64;
                    steps.push((start, 2, Step::Start(id, mw(dbm))));
                    steps.push((start + len, 0, Step::End(id)));
                }
                if do_tx {
                    steps.push((tx_at, 3, Step::BeginTx));
                    steps.push((tx_at + 50_000, 1, Step::EndTx));
                }
                steps.push((cut, 4, Step::PowerOff));
                steps.push((cut + 60_000, 5, Step::PowerOn));
                // Deterministic order: time, then a fixed kind rank.
                steps.sort_by_key(|&(t, rank, _)| (t, rank));

                let mut r = RadioBank::new(1);
                let mut tx_live = false;
                for &(t, _, step) in &steps {
                    match step {
                        Step::Start(id, p) => {
                            let _ = r.frame_start(0, id, p, t, &cfg, &mut rng);
                        }
                        Step::End(id) => {
                            let _ = r.frame_end(0, id, t);
                        }
                        // Mirror the world: no tx attempt on a dead radio.
                        Step::BeginTx => {
                            if !r.is_disabled(0) && r.begin_tx(0, 1000) {
                                tx_live = true;
                            }
                        }
                        Step::EndTx => {
                            if tx_live {
                                prop_assert!(r.end_tx(0));
                                tx_live = false;
                            }
                        }
                        Step::PowerOff => {
                            let _ = r.power_off(0);
                            prop_assert_eq!(r.energy_mw(0, None), 0.0);
                        }
                        Step::PowerOn => r.power_on(0),
                    }
                    prop_assert!(r.invariants_ok(0), "invariants at t={}", t);
                }
                prop_assert!(!tx_live);
                prop_assert_eq!(r.phase(0), RadioPhase::Idle);
                prop_assert_eq!(r.energy_mw(0, None), 0.0);
                prop_assert!(!r.busy(0, &cfg));
            }
        }
    }

    #[test]
    fn recycled_profile_buffer_feeds_next_lock_cleanly() {
        let mut r = bank();
        let mut rng = stream_rng(1, 40);
        assert_eq!(
            r.frame_start(0, 1, mw(-60.0), 0, &phy(), &mut rng),
            LockOutcome::Locked
        );
        // Grow the profile with some interference churn.
        for k in 0..8u64 {
            r.frame_start(0, 10 + k, mw(-85.0), 100 + k, &phy(), &mut rng);
            r.frame_end(0, 10 + k, 200 + k);
        }
        let done = r.frame_end(0, 1, 1000).unwrap();
        let grown = done.interference.capacity();
        assert!(grown >= 17);
        r.recycle_profile(0, done.interference);
        // The next lock starts from a clean single-entry profile but reuses
        // the parked capacity.
        assert_eq!(
            r.frame_start(0, 2, mw(-60.0), 2000, &phy(), &mut rng),
            LockOutcome::Locked
        );
        let done2 = r.frame_end(0, 2, 3000).unwrap();
        assert_eq!(done2.interference.as_slice(), &[(2000, 0.0)]);
        assert_eq!(done2.interference.capacity(), grown);
    }

    #[test]
    fn busy_tracks_phase_and_energy() {
        let mut r = bank();
        let cfg = phy();
        let mut rng = stream_rng(1, 9);
        assert!(!r.busy(0, &cfg));
        // A strong but unlockable situation: transmitting + loud frame.
        assert!(r.begin_tx(0, 1));
        assert!(r.busy(0, &cfg));
        r.frame_start(0, 2, mw(-50.0), 0, &cfg, &mut rng);
        r.end_tx(0);
        // -50 dBm exceeds the -62 dBm ED threshold even without a lock.
        assert!(r.busy(0, &cfg));
        r.frame_end(0, 2, 100);
        assert!(!r.busy(0, &cfg));
    }
}
