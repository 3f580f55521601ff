//! Per-node radio state: a half-duplex PHY state machine, stored
//! struct-of-arrays across all nodes.
//!
//! The radio layer keeps the total power impinging on each node (for
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
//!   (`CAPTURE_MARGIN_DB`), after it *message-in-message capture*
//!   (`MIM_MARGIN_DB`, if `PhyConfig::mim_capture`) — the OFDM receiver
//!   restarting on a much louder preamble, which Atheros-era hardware does
//!   and the paper's exposed terminals rely on for ACK delivery.
//! * A **transmitting** radio is deaf: arrivals are tracked for energy only.
//!
//! # Layout
//!
//! [`RadioBank`] keeps one array per field instead of one struct per node.
//! The carrier-sense hot path — [`RadioBank::busy`] runs on every MAC
//! dispatch and every `check_channel_edge` iteration — reads exactly two
//! dense arrays (a packed state byte and the energy total), so sweeps over
//! many nodes touch a handful of cache lines instead of one scattered
//! `Radio` struct per node. The cold per-node lock records live in their
//! own array that only reception events touch, and every lock's
//! interference profile in one list arena per bank ([`Lists`]). The energy
//! total is an exact count of 2⁻¹⁰⁰ mW ([`fixed_mw`]): a frame's start
//! adds its power and its end subtracts the same count, so the total is
//! the exact sum of what is on the air (DESIGN.md §9.3).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::arena::{List, Lists};
use crate::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use crate::config::PhyLinear;
use crate::event::TxId;
use crate::time::Time;
use cmap_phy::{gate, preamble_success_prob, PLCP_PREAMBLE_NS, PLCP_SIG_NS};

/// The largest power held, 2⁷ mW (+21 dBm): with fewer than 2²⁰ frames on
/// the air (one per pool slot), a total stays below 2¹²⁷. A louder arrival
/// is held at it and counted as a `watchdog.radio_state` violation.
pub(crate) const FIXED_MAX: u128 = 1 << 107;

/// `mw` as a count of 2⁻¹⁰⁰ mW: `(mw · 2¹⁰⁰) as u128` below the
/// [`FIXED_MAX`] cap, in bit operations (the compiler's `as` is a library
/// call). What truncation cuts, under -300 dBm, is far below the noise.
#[inline(always)]
pub(crate) fn fixed_mw(mw: f64) -> u128 {
    let bits = mw.to_bits();
    // mw = mant · 2^(exp − 1075), so the count is mant · 2^(exp − 975). A
    // set sign bit lifts `exp` past 2047: every negative counts 0.
    let exp = (bits >> 52) as i32;
    let mant = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
    match exp - 975 {
        shift @ 0..=54 => mant << shift,
        shift @ -52..=-1 => mant >> -shift,
        55..=1072 => FIXED_MAX,
        _ => 0,
    }
}

/// A count of 2⁻¹⁰⁰ mW as the nearest `f64` mW (ties to even, as `fixed
/// as f64` rounds), in bit operations; 0 is exactly `0.0`.
#[inline(always)]
pub(crate) fn mw_of(fixed: u128) -> f64 {
    if fixed == 0 {
        return 0.0;
    }
    let lz = fixed.leading_zeros();
    let top = fixed << lz;
    let mant = (top >> 75) as u64;
    // The 75 bits rounded off, top-aligned against one half.
    let (rest, half) = (top << 53, 1u128 << 127);
    let up = rest > half || (rest == half && mant & 1 == 1);
    // The leading bit is worth 2^(27 − lz): biased exponent 1050 − lz.
    let exp = u64::from(1050 - lz);
    f64::from_bits(((exp - 1) << 52) + mant + u64::from(up))
}

/// Coarse radio state exposed to MACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RadioPhase {
    /// Neither transmitting nor locked onto a frame.
    Idle,
    /// Locked onto an incoming frame.
    Receiving,
    /// Transmitting.
    Transmitting,
}

/// The frame currently being decoded at a node; the world grades it when
/// it completes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RxLock {
    pub(crate) tx_id: TxId,
    pub(crate) lock_time: Time,
    pub(crate) signal_mw: f64,
    /// `fixed_mw(signal_mw)`, derived again on restore.
    pub(crate) signal: u128,
    /// Piecewise-constant interference (mW, excluding the locked signal)
    /// as `(change_time, level_after)`, starting with the level at lock:
    /// a list in the bank's arena, read by [`RadioBank::profile`].
    pub(crate) profile: List,
}

/// What happened when a frame arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockOutcome {
    /// Radio locked onto the new frame.
    Locked,
    /// New frame stole the lock from a weaker frame still in its preamble.
    Captured { displaced: TxId },
    /// Frame is interference only (no lock, or lock attempt failed).
    Interference,
}

/// Packed per-node state bits (the `state` hot array).
mod flag {
    /// Powered off or wedged by fault injection.
    pub(super) const DISABLED: u8 = 1 << 0;
    /// A transmission is in progress.
    pub(super) const TX: u8 = 1 << 1;
    /// A reception lock is held.
    pub(super) const LOCKED: u8 = 1 << 2;
    /// Cached busy flag for edge-triggered carrier notifications.
    pub(super) const LAST_BUSY: u8 = 1 << 3;
    /// The node's MAC takes carrier edges (`Mac::wants_channel_edges`):
    /// derived from the MAC, so kept out of the checkpoint image.
    pub(super) const WATCH: u8 = 1 << 4;
    /// Any bit that makes the channel read busy regardless of energy.
    pub(super) const ANY_BUSY: u8 = DISABLED | TX | LOCKED;
}

/// All radios of a world, one array per field (struct-of-arrays).
#[derive(Debug)]
pub(crate) struct RadioBank {
    // Hot arrays: the only state `busy`/`phase` touch.
    /// Packed [`flag`] bits per node.
    state: Vec<u8>,
    /// Exact sum of the powers impinging on each node, in 2⁻¹⁰⁰ mW.
    energy: Vec<u128>,

    // Cold arrays: touched only by reception/transmission events.
    /// The reception lock, if [`flag::LOCKED`] is set.
    lock: Vec<Option<RxLock>>,
    /// Every lock's interference profile, completed ones until graded. A
    /// lock that is dropped, displaced or graded releases its list.
    profiles: Lists<(Time, f64)>,

    /// Brackets of the lock probability (shared, immutable).
    gate: &'static gate::DrawGate,
    /// Lock draws the bracket settled, and those that needed
    /// [`preamble_success_prob`]: host-side counts, in no artifact.
    pub(crate) lock_draws: (u64, u64),
}

impl RadioBank {
    /// A bank of `n` idle radios.
    pub(crate) fn new(n: usize) -> RadioBank {
        RadioBank {
            state: vec![0; n],
            energy: vec![0; n],
            lock: (0..n).map(|_| None).collect(),
            profiles: Lists::default(),
            gate: gate::DrawGate::shared(),
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
    pub(crate) fn len(&self) -> usize {
        self.state.len()
    }

    /// A lock's interference profile, oldest entry first: a held lock's, or
    /// a completed one's until [`RadioBank::release_profile`].
    pub(crate) fn profile(&self, lock: &RxLock) -> impl Iterator<Item = (Time, f64)> + Clone + '_ {
        self.profiles.iter(lock.profile).copied()
    }

    /// Give a graded lock's profile back to the arena.
    pub(crate) fn release_profile(&mut self, lock: RxLock) {
        self.profiles.release(lock.profile);
    }

    fn take_lock(&mut self, node: usize) -> Option<RxLock> {
        self.state[node] &= !flag::LOCKED;
        self.lock[node].take()
    }

    /// Drop the lock, if any, and its profile; `true` if there was one.
    fn drop_lock(&mut self, node: usize) -> bool {
        let lock = self.take_lock(node);
        lock.map(|l| self.release_profile(l)).is_some()
    }

    /// Current coarse phase.
    pub(crate) fn phase(&self, node: usize) -> RadioPhase {
        let s = self.state[node];
        if s & flag::TX != 0 {
            RadioPhase::Transmitting
        } else if s & flag::LOCKED != 0 {
            RadioPhase::Receiving
        } else {
            RadioPhase::Idle
        }
    }

    /// The exact sum of the powers impinging on `node`, in 2⁻¹⁰⁰ mW.
    pub(crate) fn energy(&self, node: usize) -> u128 {
        self.energy[node]
    }

    /// 802.11-style clear-channel assessment: busy while transmitting,
    /// locked onto any frame, or when raw in-band energy exceeds the
    /// preamble-detection threshold (which sits well below decode
    /// sensitivity — carrier sense hears further than data carries).
    /// A disabled radio also reads busy: a wedged front-end cannot report
    /// a clear channel, and the busy -> idle edge at recovery is what
    /// wakes carrier-waiting MACs back up.
    pub(crate) fn busy(&self, node: usize, phy: &PhyLinear) -> bool {
        self.state[node] & flag::ANY_BUSY != 0 || self.energy[node] >= phy.cca_busy
    }

    /// The cached busy flag for edge-triggered carrier notifications.
    pub(crate) fn last_busy(&self, node: usize) -> bool {
        self.state[node] & flag::LAST_BUSY != 0
    }

    /// Update the cached busy flag.
    pub(crate) fn set_last_busy(&mut self, node: usize, busy: bool) {
        if busy {
            self.state[node] |= flag::LAST_BUSY;
        } else {
            self.state[node] &= !flag::LAST_BUSY;
        }
    }

    /// Whether the node's MAC takes carrier edges.
    pub(crate) fn watches_edges(&self, node: usize) -> bool {
        self.state[node] & flag::WATCH != 0
    }

    /// Record the MAC's [`Mac::wants_channel_edges`] answer.
    ///
    /// [`Mac::wants_channel_edges`]: crate::Mac::wants_channel_edges
    pub(crate) fn set_watches_edges(&mut self, node: usize, watch: bool) {
        if watch {
            self.state[node] |= flag::WATCH;
        } else {
            self.state[node] &= !flag::WATCH;
        }
    }

    /// True while powered off or wedged by fault injection.
    pub(crate) fn is_disabled(&self, node: usize) -> bool {
        self.state[node] & flag::DISABLED != 0
    }

    /// Fault injection: the radio goes deaf mid-whatever. Any reception in
    /// progress is lost and the energy total forgotten (frames still on
    /// the air when the radio recovers are not heard; the world zeroes
    /// their held powers, so their ends subtract nothing). A transmission
    /// already started keeps its [`flag::TX`] marker — the energy is
    /// physically committed and `end_tx` still fires. Returns `true` if a
    /// locked reception was dropped.
    pub(crate) fn power_off(&mut self, node: usize) -> bool {
        self.state[node] |= flag::DISABLED;
        self.energy[node] = 0;
        self.drop_lock(node)
    }

    /// Fault injection: the radio comes back. Caller re-checks carrier
    /// edges so MACs observe the busy -> idle recovery transition.
    pub(crate) fn power_on(&mut self, node: usize) {
        self.state[node] &= !flag::DISABLED;
    }

    /// Watchdog: structural invariants that must hold between events.
    /// Half-duplex (never locked while transmitting), no reception
    /// surviving a power-off, and the lock flag agreeing with the lock
    /// record. (The world holds the energy total to its receptions.)
    pub(crate) fn invariants_ok(&self, node: usize) -> bool {
        let s = self.state[node];
        let lock_flag_ok = (s & flag::LOCKED != 0) == self.lock[node].is_some();
        lock_flag_ok && (s & flag::LOCKED == 0 || s & (flag::TX | flag::DISABLED) == 0)
    }

    /// True if the radio is locked on the given transmission.
    pub(crate) fn locked_on(&self, node: usize, tx_id: TxId) -> bool {
        self.lock[node].as_ref().is_some_and(|l| l.tx_id == tx_id)
    }

    /// A new frame's energy arrives at `node`. Returns whether it got the
    /// lock, and the power the radio now holds for it in 2⁻¹⁰⁰ mW — 0 at a
    /// disabled radio — which the frame's [`RadioBank::frame_end`] takes.
    pub(crate) fn frame_start(
        &mut self,
        node: usize,
        tx_id: TxId,
        power_mw: f64,
        now: Time,
        phy: &PhyLinear,
        rng: &mut SmallRng,
    ) -> (LockOutcome, u128) {
        if self.is_disabled(node) {
            // Deaf: the energy is not even tracked.
            return (LockOutcome::Interference, 0);
        }
        let power = fixed_mw(power_mw);
        // Interference the new frame would see: everything already here.
        let before = self.energy[node];
        self.energy[node] += power;

        if self.state[node] & flag::TX != 0 {
            return (LockOutcome::Interference, power);
        }

        let preamble_window = PLCP_PREAMBLE_NS + PLCP_SIG_NS;
        let Some((lock_time, lock_signal, displaced)) = self.lock[node]
            .as_ref()
            .map(|l| (l.lock_time, l.signal_mw, l.tx_id))
        else {
            // Idle: attempt to lock the new frame.
            if power_mw >= phy.sensitivity_mw {
                let level = mw_of(before);
                if self.draw_lock(power_mw / (phy.noise_mw + level), rng) {
                    self.lock_new(node, tx_id, (power_mw, power), now, level);
                    return (LockOutcome::Locked, power);
                }
            }
            return (LockOutcome::Interference, power);
        };

        let in_preamble = now < lock_time + preamble_window;
        let capture_ratio = if in_preamble {
            Some(phy.capture_ratio)
        } else {
            phy.mim_ratio
        };
        if capture_ratio.is_some_and(|ratio| power_mw > lock_signal * ratio) {
            // The displaced frame keeps radiating: it is interference for
            // the new lock.
            let level = mw_of(before);
            if self.draw_lock(power_mw / (phy.noise_mw + level), rng) {
                // The displaced lock's slots feed the new one.
                self.drop_lock(node);
                self.lock_new(node, tx_id, (power_mw, power), now, level);
                return (LockOutcome::Captured { displaced }, power);
            }
        }
        // Plain interference for the existing lock.
        self.profile_level(node, now);
        (LockOutcome::Interference, power)
    }

    /// Lock onto `tx_id` at `(mW, count)`, its profile seeded with `level`.
    fn lock_new(&mut self, node: usize, tx_id: TxId, signal: (f64, u128), now: Time, level: f64) {
        let mut profile = List::default();
        self.profiles.push_back(&mut profile, (now, level));
        self.lock[node] = Some(RxLock {
            tx_id,
            lock_time: now,
            signal_mw: signal.0,
            signal: signal.1,
            profile,
        });
        self.state[node] |= flag::LOCKED;
    }

    /// Append the lock's interference level at `now` to its profile: all
    /// on the air but the locked frame, exactly `0.0` when nothing else is.
    fn profile_level(&mut self, node: usize, now: Time) {
        let energy = self.energy[node];
        if let Some(lock) = &mut self.lock[node] {
            let level = mw_of(energy.saturating_sub(lock.signal));
            self.profiles.push_back(&mut lock.profile, (now, level));
        }
    }

    /// A frame's energy, `heard` as its `frame_start` returned it, leaves
    /// `node`. Returns the completed lock if it was this frame's, its
    /// profile held until [`RadioBank::release_profile`], and `false` if
    /// `heard` exceeded the total (corrupt; it then reads 0).
    pub(crate) fn frame_end(
        &mut self,
        node: usize,
        tx_id: TxId,
        heard: u128,
        now: Time,
    ) -> (Option<RxLock>, bool) {
        let left = self.energy[node].checked_sub(heard);
        self.energy[node] = left.unwrap_or(0);
        if self.state[node] & flag::LOCKED != 0 {
            if self.locked_on(node, tx_id) {
                return (self.take_lock(node), left.is_some());
            }
            // Interference level dropped for an ongoing lock.
            self.profile_level(node, now);
        }
        (None, left.is_some())
    }

    /// The MAC starts transmitting. Any reception in progress is aborted
    /// (MadWifi-with-CS-disabled behaviour); the caller has already checked
    /// the abort policy. Returns `false` — refusing the transmission — on a
    /// half-duplex violation (already transmitting), which the world records
    /// as a watchdog violation instead of panicking.
    #[must_use]
    pub(crate) fn begin_tx(&mut self, node: usize, _tx_id: TxId) -> bool {
        if self.state[node] & flag::TX != 0 {
            debug_assert!(false, "begin_tx while transmitting");
            return false;
        }
        self.drop_lock(node);
        self.state[node] |= flag::TX;
        true
    }

    /// The transmission finished. Returns `false` if the radio was not
    /// transmitting (a state-machine violation the world records).
    pub(crate) fn end_tx(&mut self, node: usize) -> bool {
        let was = self.state[node] & flag::TX != 0;
        debug_assert!(was, "end_tx while not transmitting");
        self.state[node] &= !flag::TX;
        was
    }
}

/// The bank is struct-of-arrays in memory but one record per node on the
/// wire: state, energy, then the lock as an `Option` of its fields and
/// its profile's entry sequence, each lock's entries read straight into
/// the arena, whose slots for every lock are reserved at once. The free slots are an allocation detail with no effect on
/// any simulated outcome, and so is [`flag::WATCH`], which the world
/// derives again from the restored MACs. The world holds each restored
/// total to the receptions it restores.
impl Persist for RadioBank {
    fn save(&self, w: &mut CkptWriter) {
        w.len(self.len());
        for n in 0..self.len() {
            w.put(&(self.state[n] & !flag::WATCH));
            w.put(&self.energy[n]);
            w.put(&self.lock[n].is_some());
            if let Some(l) = &self.lock[n] {
                w.put(&(l.tx_id, l.lock_time, l.signal_mw));
                self.profiles.save(l.profile, w);
            }
        }
    }

    fn load(r: &mut CkptReader<'_>) -> Result<RadioBank, CkptError> {
        // `count` has already held the length against the bytes left.
        let n = r.count::<(u8, u128, bool)>()?;
        let mut bank = RadioBank::new(n);
        bank.profiles.reserve_ahead(r, |r| {
            (0..n).try_fold(0, |slots, _| {
                let (_, _, locked) = r.get::<(u8, u128, bool)>()?;
                if !locked {
                    return Ok(slots);
                }
                r.get::<(TxId, Time, f64)>()?;
                Ok(slots + Lists::<(Time, f64)>::skip(r)?)
            })
        });
        for node in 0..n {
            bank.state[node] = r.get::<u8>()? & !flag::WATCH;
            bank.energy[node] = r.get()?;
            if r.get()? {
                let (tx_id, lock_time, signal_mw) = r.get()?;
                let profile = bank.profiles.load(r)?;
                bank.lock[node] = Some(RxLock {
                    tx_id,
                    lock_time,
                    signal_mw,
                    signal: fixed_mw(signal_mw),
                    profile,
                });
            }
            if (bank.state[node] & flag::LOCKED != 0) != bank.lock[node].is_some() {
                return Err(CkptError::Malformed(format!(
                    "radio {node} lock flag disagrees with lock record"
                )));
            }
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

    /// A completed lock's profile entries, oldest first.
    type Profiled = Vec<(Time, f64)>;

    /// A one-radio bank: the unit under test in most cases below.
    fn bank() -> Bank {
        Bank::new(1)
    }

    /// A bank with the world's half of the bookkeeping: the power each
    /// frame's start returned, held until its end and zeroed by a
    /// power-off, as `sim::pool` holds it.
    struct Bank {
        radios: RadioBank,
        held: Vec<(usize, TxId, u128)>,
    }

    impl Bank {
        fn new(n: usize) -> Bank {
            Bank {
                radios: RadioBank::new(n),
                held: Vec::new(),
            }
        }

        fn frame_start(
            &mut self,
            node: usize,
            id: TxId,
            power_mw: f64,
            now: Time,
            phy: &PhyLinear,
            rng: &mut SmallRng,
        ) -> LockOutcome {
            let (outcome, heard) = self.radios.frame_start(node, id, power_mw, now, phy, rng);
            self.held.push((node, id, heard));
            outcome
        }

        /// The completed lock, if any, with its profile, which goes back
        /// to the arena as grading would give it.
        fn frame_end(&mut self, node: usize, id: TxId, now: Time) -> Option<(RxLock, Profiled)> {
            let at = self.held.iter().position(|h| (h.0, h.1) == (node, id));
            let (_, _, heard) = self.held.swap_remove(at.expect("a started frame"));
            let (done, held) = self.radios.frame_end(node, id, heard, now);
            assert!(held, "frame {id} ended past the total");
            done.map(|lock| {
                let profile = self.radios.profile(&lock).collect();
                self.radios.release_profile(lock);
                (lock, profile)
            })
        }

        fn power_off(&mut self, node: usize) -> bool {
            for h in self.held.iter_mut().filter(|h| h.0 == node) {
                h.2 = 0;
            }
            self.radios.power_off(node)
        }

        /// The total in mW, checked equal to the sum of the held powers.
        fn energy_mw(&self, node: usize) -> f64 {
            let on_air = self.held.iter().filter(|h| h.0 == node);
            let sum: u128 = on_air.map(|h| h.2).sum();
            assert_eq!(self.radios.energy(node), sum);
            mw_of(sum)
        }
    }

    impl std::ops::Deref for Bank {
        type Target = RadioBank;
        fn deref(&self) -> &RadioBank {
            &self.radios
        }
    }

    impl std::ops::DerefMut for Bank {
        fn deref_mut(&mut self) -> &mut RadioBank {
            &mut self.radios
        }
    }

    #[test]
    fn strong_lone_frame_locks() {
        let mut r = bank();
        let mut rng = stream_rng(1, 1);
        let out = r.frame_start(0, 1, mw(-60.0), 0, &phy(), &mut rng);
        assert_eq!(out, LockOutcome::Locked);
        assert_eq!(r.phase(0), RadioPhase::Receiving);
        let (done, _) = r.frame_end(0, 1, 1000).expect("completion");
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
        let (_, profile) = r.frame_end(0, 1, 100_000).unwrap();
        // Profile: lock-time level 0, rise at 50 us, fall at 60 us.
        assert_eq!(profile.len(), 3);
        assert_eq!(profile[0], (0, 0.0));
        assert!((profile[1].1 - mw(-80.0)).abs() < 1e-12);
        assert_eq!(profile[2].1, 0.0);
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
        assert!(!r.locked_on(0, 1));
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
        let (done, profile) = r.frame_end(0, 2, 100_000).expect("frame 2 completes");
        assert_eq!(done.lock_time, 40_000);
        // Profile: starts at -80 dBm interference, drops to 0 at 60 us.
        assert_eq!(profile.len(), 2);
        assert!((profile[0].1 - mw(-80.0)).abs() < 1e-12);
        assert_eq!(profile[1], (60_000, 0.0));
    }

    #[test]
    fn energy_sums_exactly_and_clears_to_zero() {
        let mut r = bank();
        let mut rng = stream_rng(1, 21);
        r.frame_start(0, 1, mw(-70.0), 0, &phy(), &mut rng);
        r.frame_start(0, 2, mw(-70.0), 10, &phy(), &mut rng);
        assert_eq!(r.energy(0), 2 * fixed_mw(mw(-70.0)));
        assert_eq!(r.energy_mw(0), 2.0 * mw(-70.0));
        r.frame_end(0, 1, 100);
        r.frame_end(0, 2, 100);
        assert_eq!(r.energy(0), 0);
        assert_eq!(r.energy_mw(0).to_bits(), 0);
    }

    #[test]
    fn an_end_past_the_total_reads_zero_and_says_so() {
        let mut r = bank();
        let mut rng = stream_rng(1, 26);
        r.frame_start(0, 1, mw(-70.0), 0, &phy(), &mut rng);
        let total = r.energy(0);
        let (done, held) = r.radios.frame_end(0, 2, total + 1, 10);
        assert!(done.is_none() && !held);
        assert_eq!(r.radios.energy(0), 0);
    }

    #[test]
    fn conversions_are_the_compilers_casts() {
        let scale = 2f64.powi(100);
        assert_eq!((fixed_mw(0.0), mw_of(0).to_bits()), (0, 0));
        for k in -100..7 {
            let p = 2f64.powi(k);
            assert_eq!(fixed_mw(p), 1 << (k + 100));
            assert_eq!(mw_of(1 << (k + 100)), p);
        }
        let mut rng = stream_rng(1, 25);
        for _ in 0..200_000 {
            // -330 to +20 dBm, and counts of every width.
            let p = 10f64.powf(rng.gen_range(-33.0..2.0));
            assert_eq!(fixed_mw(p), (p * scale) as u128, "{p:e} mW");
            let wide = u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>());
            let fixed = wide >> rng.gen_range(0u32..128);
            assert_eq!(mw_of(fixed), fixed as f64 / scale, "{fixed:#x}");
        }
        // Past the cap, and anything negative.
        assert_eq!(fixed_mw(128.0), FIXED_MAX);
        assert_eq!(fixed_mw(f64::INFINITY), FIXED_MAX);
        assert_eq!((fixed_mw(-1.0), fixed_mw(-0.0)), (0, 0));
    }

    #[test]
    fn energy_returns_exactly_to_zero_after_long_churn() {
        // A saturated cell: 20 000 arrivals and as many departures over a
        // set of 2..=48 frames that only empties at the end, with powers
        // spread over the 70 dB between the delivery floor and a
        // next-door transmitter. The total is the exact sum at every step.
        let mut r = bank();
        let mut rng = stream_rng(1, 24);
        let mut on_air: Vec<TxId> = Vec::new();
        let (mut next_id, mut removed) = (0u64, 0u32);
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
            assert!(
                r.energy_mw(0) > 0.0 && r.invariants_ok(0),
                "after {removed}"
            );
        }
        for gone in on_air {
            r.frame_end(0, gone, next_id);
        }
        assert_eq!(r.energy(0), 0);
        assert!(!r.busy(0, &phy()));
    }

    mod arrival_order_property {
        use super::*;
        use proptest::prelude::*;
        use rand::seq::SliceRandom;

        /// Start every frame in one order, end some in another, then the
        /// rest: the bits of the total at each stage.
        fn stages(powers: &[f64], ended: usize, seed: u64) -> [u128; 3] {
            let (cfg, mut rng) = (phy(), stream_rng(seed, 2));
            let mut ids: Vec<TxId> = (0..powers.len() as TxId).collect();
            let mut r = bank();
            ids.shuffle(&mut rng);
            for &id in &ids {
                r.frame_start(0, id, powers[id as usize], id, &cfg, &mut rng);
            }
            let all = r.energy(0);
            // The first `ended` frames end, in a shuffled order.
            let (mut first, mut rest): (Vec<TxId>, Vec<TxId>) =
                (0..powers.len() as TxId).partition(|&id| (id as usize) < ended);
            first.shuffle(&mut rng);
            rest.shuffle(&mut rng);
            for id in first {
                r.frame_end(0, id, 1_000);
            }
            let some = r.energy(0);
            for id in rest {
                r.frame_end(0, id, 2_000);
            }
            [all, some, r.energy(0)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn any_order_gives_the_same_bits_and_clears_to_zero(
                powers in prop::collection::vec(-150.0f64..-20.0, 1..32),
                cut in any::<prop::sample::Index>(),
                seeds in any::<[u64; 2]>(),
            ) {
                let powers: Vec<f64> = powers.into_iter().map(mw).collect();
                let ended = cut.index(powers.len() + 1);
                let one = stages(&powers, ended, seeds[0]);
                prop_assert_eq!(one, stages(&powers, ended, seeds[1]));
                prop_assert_eq!(one[2], 0);
                let live: u128 = powers[ended..].iter().map(|&p| fixed_mw(p)).sum();
                prop_assert_eq!(one[1], live);
            }
        }
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
        assert_eq!(r.energy_mw(0), 0.0);
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
        let mut r = Bank::new(3);
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
        assert_eq!(r.energy_mw(0), 0.0);
        assert!(r.energy_mw(1) > 0.0);
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

                let mut r = Bank::new(1);
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
                            prop_assert_eq!(r.energy_mw(0), 0.0);
                        }
                        Step::PowerOn => r.power_on(0),
                    }
                    prop_assert!(r.invariants_ok(0), "invariants at t={}", t);
                }
                prop_assert!(!tx_live);
                prop_assert_eq!(r.phase(0), RadioPhase::Idle);
                prop_assert_eq!(r.energy_mw(0), 0.0);
                prop_assert!(!r.busy(0, &cfg));
            }
        }
    }

    impl RadioBank {
        /// Slots on the free list plus slots in live lists, against the
        /// arena's length: a slot in neither leaked.
        fn accounted_slots(&self) -> (usize, usize) {
            let live: usize = self.lock.iter().flatten().map(|l| l.profile.len()).sum();
            (self.profiles.free_slots() + live, self.profiles.slots())
        }
    }

    /// Lock, overlap and complete, again and again on three radios — one
    /// lock graded, one aborted by a transmission, one displaced by a
    /// capture: the arena stays at the first cycle's high-water mark.
    #[test]
    fn profile_slots_stay_at_their_first_high_water_mark() {
        let (mut r, cfg, mut rng) = (Bank::new(3), phy(), stream_rng(1, 42));
        let mut high_water = None;
        for cycle in 0..10u64 {
            let (t, id) = (cycle * 1_000_000, cycle * 1_000);
            for node in 0..3 {
                let out = r.frame_start(node, id + node as u64, mw(-50.0), t, &cfg, &mut rng);
                assert_eq!(out, LockOutcome::Locked);
            }
            let out = r.frame_start(2, id + 3, mw(-30.0), t + 10, &cfg, &mut rng);
            assert_eq!(out, LockOutcome::Captured { displaced: id + 2 });
            for k in 0..8 {
                for node in 0..3 {
                    let weak = id + 10 + 3 * k + node as u64;
                    r.frame_start(node, weak, mw(-85.0), t + 100 + k, &cfg, &mut rng);
                    r.frame_end(node, weak, t + 200 + k);
                }
            }
            assert_eq!(
                r.frame_end(0, id, t + 1_000).map(|(_, p)| p.len()),
                Some(17)
            );
            assert!(r.begin_tx(1, id + 999) && r.end_tx(1));
            assert!(r.frame_end(1, id + 1, t + 1_000).is_none());
            assert!(r.frame_end(2, id + 2, t + 1_000).is_none());
            assert_eq!(
                r.frame_end(2, id + 3, t + 2_000).map(|(_, p)| p.len()),
                Some(18)
            );
            let used = r.profiles.slots();
            assert!(
                used <= *high_water.get_or_insert(used),
                "cycle {cycle}: {used} slots"
            );
            assert_eq!(r.accounted_slots(), (used, used), "cycle {cycle}");
        }
        // 3 first entries, the displaced one's slot reused by the capture,
        // then 16 overlap entries on each lock.
        assert_eq!(high_water, Some(51));
    }

    /// The bank the arena replaced, one profile `Vec` per lock, kept as its
    /// oracle: the same locking rules with each lock draw decided by the
    /// exact formula, and the image `persist!` wrote for `Option<RxLock>`.
    mod arena_oracle {
        use super::*;
        use crate::persist;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Default)]
        struct VecLock {
            tx_id: TxId,
            lock_time: Time,
            signal_mw: f64,
            signal: u128,
            interference: Vec<(Time, f64)>,
        }

        persist!(struct VecLock { tx_id, lock_time, signal_mw, interference } ..VecLock::default());

        struct VecBank {
            state: Vec<u8>,
            energy: Vec<u128>,
            lock: Vec<Option<VecLock>>,
        }

        impl VecBank {
            fn new(n: usize) -> VecBank {
                VecBank {
                    state: vec![0; n],
                    energy: vec![0; n],
                    lock: vec![None; n],
                }
            }

            fn phase(&self, node: usize) -> RadioPhase {
                match self.state[node] {
                    s if s & flag::TX != 0 => RadioPhase::Transmitting,
                    s if s & flag::LOCKED != 0 => RadioPhase::Receiving,
                    _ => RadioPhase::Idle,
                }
            }

            fn invariants_ok(&self, node: usize) -> bool {
                let s = self.state[node];
                let lock_flag_ok = (s & flag::LOCKED != 0) == self.lock[node].is_some();
                lock_flag_ok && (s & flag::LOCKED == 0 || s & (flag::TX | flag::DISABLED) == 0)
            }

            fn take_lock(&mut self, node: usize) -> Option<VecLock> {
                self.state[node] &= !flag::LOCKED;
                self.lock[node].take()
            }

            fn frame_start(
                &mut self,
                (node, tx_id, power_mw, now): (usize, TxId, f64, Time),
                phy: &PhyLinear,
                rng: &mut SmallRng,
            ) -> (LockOutcome, u128) {
                if self.state[node] & flag::DISABLED != 0 {
                    return (LockOutcome::Interference, 0);
                }
                let power = fixed_mw(power_mw);
                let before = self.energy[node];
                self.energy[node] += power;
                if self.state[node] & flag::TX != 0 {
                    return (LockOutcome::Interference, power);
                }
                let level = mw_of(before);
                let p = preamble_success_prob(power_mw / (phy.noise_mw + level));
                let mut draw = || rng.gen::<f64>() < p.clamp(0.0, 1.0);
                let outcome = match self.lock[node].as_ref() {
                    None if power_mw >= phy.sensitivity_mw && draw() => LockOutcome::Locked,
                    None => return (LockOutcome::Interference, power),
                    Some(l) => {
                        let ratio = if now < l.lock_time + PLCP_PREAMBLE_NS + PLCP_SIG_NS {
                            Some(phy.capture_ratio)
                        } else {
                            phy.mim_ratio
                        };
                        let displaced = l.tx_id;
                        if !(ratio.is_some_and(|ratio| power_mw > l.signal_mw * ratio) && draw()) {
                            self.profile_level(node, now);
                            return (LockOutcome::Interference, power);
                        }
                        LockOutcome::Captured { displaced }
                    }
                };
                self.lock[node] = Some(VecLock {
                    tx_id,
                    lock_time: now,
                    signal_mw: power_mw,
                    signal: power,
                    interference: vec![(now, level)],
                });
                self.state[node] |= flag::LOCKED;
                (outcome, power)
            }

            fn profile_level(&mut self, node: usize, now: Time) {
                let energy = self.energy[node];
                if let Some(l) = &mut self.lock[node] {
                    let level = mw_of(energy.saturating_sub(l.signal));
                    l.interference.push((now, level));
                }
            }

            fn frame_end(
                &mut self,
                node: usize,
                tx_id: TxId,
                heard: u128,
                now: Time,
            ) -> Option<VecLock> {
                let left = self.energy[node].checked_sub(heard);
                self.energy[node] = left.unwrap_or(0);
                if self.lock[node].as_ref().is_some_and(|l| l.tx_id == tx_id) {
                    return self.take_lock(node);
                }
                self.profile_level(node, now);
                None
            }
        }

        impl Persist for VecBank {
            fn save(&self, w: &mut CkptWriter) {
                w.len(self.state.len());
                for n in 0..self.state.len() {
                    w.put(&self.state[n]);
                    w.put(&self.energy[n]);
                    w.put(&self.lock[n]);
                }
            }

            fn load(_: &mut CkptReader<'_>) -> Result<VecBank, CkptError> {
                unreachable!("the oracle is only written")
            }
        }

        fn image<T: Persist>(v: &T) -> Vec<u8> {
            let mut w = CkptWriter::new();
            w.put(v);
            w.finish()
        }

        #[derive(Debug, Clone, Copy)]
        enum Step {
            Start(f64),
            End(prop::sample::Index),
            BeginTx,
            EndTx,
            PowerOff,
            PowerOn,
        }

        /// Arrivals and ends six and five times as often as the rest.
        fn step() -> impl Strategy<Value = Step> {
            let parts = (0u8..16, -95.0f64..-35.0, any::<prop::sample::Index>());
            parts.prop_map(|(kind, dbm, pick)| match kind {
                0..=5 => Step::Start(dbm),
                6..=10 => Step::End(pick),
                11 => Step::BeginTx,
                12 => Step::EndTx,
                13 => Step::PowerOff,
                _ => Step::PowerOn,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random arrivals, ends, captures, transmissions and outages
            /// on three radios, 0–25 µs apart so that captures land in and
            /// after the preamble: after every step both banks hold the
            /// same phases, totals and invariants, complete the same
            /// profiles to the bit and write the same checkpoint bytes,
            /// the arena's image loads back to itself, and every slot is
            /// free or in a live list.
            #[test]
            fn arena_matches_one_vec_per_lock(
                steps in prop::collection::vec((0usize..3, 0u64..25_000, step()), 1..300),
                seed in any::<u64>(),
            ) {
                let cfg = phy();
                let (mut arena, mut oracle) = (Bank::new(3), VecBank::new(3));
                let (mut rng, mut oracle_rng) = (stream_rng(seed, 3), stream_rng(seed, 3));
                let (mut now, mut next_id) = (0, 0);
                for &(node, dt, step) in &steps {
                    now += dt;
                    match step {
                        Step::Start(dbm) => {
                            let (power, id) = (mw(dbm), next_id);
                            next_id += 1;
                            let out = arena.frame_start(node, id, power, now, &cfg, &mut rng);
                            let heard = arena.held.last().map(|h| h.2);
                            let want = oracle.frame_start((node, id, power, now), &cfg, &mut oracle_rng);
                            prop_assert_eq!((out, heard), (want.0, Some(want.1)));
                        }
                        Step::End(pick) => {
                            let ours: Vec<TxId> =
                                arena.held.iter().filter(|h| h.0 == node).map(|h| h.1).collect();
                            if ours.is_empty() {
                                continue;
                            }
                            let id = ours[pick.index(ours.len())];
                            let heard = arena.held.iter().find(|h| h.1 == id).map_or(0, |h| h.2);
                            let done = arena.frame_end(node, id, now);
                            let want = oracle.frame_end(node, id, heard, now);
                            let bits = |p: &[(Time, f64)]| -> Vec<(Time, u64)> {
                                p.iter().map(|&(t, l)| (t, l.to_bits())).collect()
                            };
                            prop_assert_eq!(
                                done.map(|(l, p)| (l.tx_id, l.lock_time, l.signal_mw.to_bits(), bits(&p))),
                                want.map(|l| (l.tx_id, l.lock_time, l.signal_mw.to_bits(), bits(&l.interference)))
                            );
                        }
                        Step::BeginTx if arena.phase(node) != RadioPhase::Transmitting
                            && !arena.is_disabled(node) =>
                        {
                            prop_assert!(arena.begin_tx(node, TxId::MAX));
                            oracle.take_lock(node);
                            oracle.state[node] |= flag::TX;
                        }
                        Step::EndTx if arena.phase(node) == RadioPhase::Transmitting => {
                            prop_assert!(arena.end_tx(node));
                            oracle.state[node] &= !flag::TX;
                        }
                        Step::PowerOff => {
                            let dropped = oracle.take_lock(node).is_some();
                            (oracle.state[node], oracle.energy[node]) = (oracle.state[node] | flag::DISABLED, 0);
                            prop_assert_eq!(arena.power_off(node), dropped);
                        }
                        Step::PowerOn => {
                            arena.power_on(node);
                            oracle.state[node] &= !flag::DISABLED;
                        }
                        Step::BeginTx | Step::EndTx => continue,
                    }
                    for n in 0..3 {
                        prop_assert_eq!(arena.phase(n), oracle.phase(n));
                        prop_assert_eq!(arena.energy(n), oracle.energy[n]);
                        prop_assert!(arena.invariants_ok(n) && oracle.invariants_ok(n));
                    }
                    let bytes = image(&arena.radios);
                    prop_assert_eq!(&bytes, &image(&oracle));
                    let back: RadioBank = CkptReader::new(&bytes).unwrap().get().unwrap();
                    prop_assert_eq!(&image(&back), &bytes);
                    let (accounted, slots) = arena.accounted_slots();
                    prop_assert_eq!(accounted, slots);
                }
            }
        }
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
