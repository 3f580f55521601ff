//! CMAP protocol constants (§3, §4.2).

use cmap_phy::Rate;
use cmap_sim::time::{bits_duration, millis, Time};

/// Configuration of one [`CmapMac`](crate::CmapMac). Defaults are the
/// paper's implementation values (§4.2).
#[derive(Debug, Clone)]
pub struct CmapConfig {
    /// Data packets per virtual packet (`N_vpkt` = 32, §4.1).
    pub n_vpkt: usize,
    /// Send window in virtual packets (`N_window` = 8, §3.3).
    pub n_window: usize,
    /// Wait after a deferred-to transmission ends before re-checking
    /// (`t_deferwait` = 5 ms, §4.2).
    pub t_deferwait: Time,
    /// How long to wait for an ACK after a virtual packet (`t_ackwait` =
    /// 5 ms, §4.2).
    pub t_ackwait: Time,
    /// Mean receiver-side turnaround between trailer reception and the ACK
    /// transmission — the software-MAC latency of the prototype (§4.1
    /// measured 0.5–5 ms). Also the single-link calibration knob (§4.2):
    /// ~4 ms brings CMAP's one-link throughput level with 802.11's. The
    /// actual delay is drawn uniformly within ±`sw_jitter` of this.
    pub ack_turnaround: Time,
    /// Software-MAC timing jitter: each ACK turnaround and each
    /// virtual-packet start is dithered by a uniform draw of this scale.
    /// The prototype's Click/MadWifi path had 0.5–5 ms of it (§4.1); it
    /// matters — without it two saturated senders phase-lock, and an
    /// exposed sender can sit in a regime where *every* ACK collides with
    /// the other sender's data, defeating the windowed ACK protocol.
    pub sw_jitter: Time,
    /// Loss-rate threshold above which a receiver declares interference
    /// (`l_interf` = 0.5, §3.1).
    pub l_interf: f64,
    /// Loss-rate threshold above which a sender backs off (`l_backoff` =
    /// 0.5, §3.4).
    pub l_backoff: f64,
    /// Initial nonzero contention window (`CW_start` = 5 ms: the 802.11
    /// value scaled by `N_vpkt`, §4.2).
    pub cw_start: Time,
    /// Maximum contention window (`CW_max` = 320 ms, §4.2).
    pub cw_max: Time,
    /// Minimum overlapped-packet samples before a receiver will judge a
    /// `(source, interferer)` pair.
    pub interferer_min_samples: u64,
    /// Period between interferer-list broadcasts.
    pub broadcast_period: Time,
    /// Lifetime of an interferer-list entry without re-confirmation (§3.1:
    /// "entries in the interferer list are timed out periodically to
    /// accommodate changing channel conditions and interference patterns").
    /// A few broadcast periods: long enough to keep a genuine conflict
    /// deferred, short enough that a stale entry (e.g. from a start-up
    /// burst) costs only seconds of lost concurrency before the sender
    /// probes again.
    pub interferer_timeout: Time,
    /// Lifetime of a defer-table entry without refresh by a new broadcast.
    pub defer_entry_timeout: Time,
    /// Bit-rate for data packets.
    pub data_rate: Rate,
    /// Bit-rate for headers, trailers, ACKs and interferer lists (always the
    /// base rate, §5.8).
    pub control_rate: Rate,
    /// Annotate/match defer state by bit-rate (§3.5 extension). With a
    /// single network-wide rate (the paper's experiments) this is moot.
    pub rate_aware: bool,
    /// Piggyback the interferer list on ACKs (§3.1 allows riding on control
    /// messages). ACKs arrive during the sender's `t_ackwait` — one of the
    /// few windows a saturated sender's radio is listening — so this is how
    /// defer tables converge under load.
    pub il_in_acks: bool,
    /// Transmit trailers (default). Disabling them is the ablation Fig 16
    /// motivates: receivers must then finalise a virtual packet (and send
    /// its ACK) off a timer armed by the header alone, so a lost header
    /// means a lost ACK opportunity and no backward activity window for
    /// interference attribution.
    pub send_trailers: bool,
    /// Run the §3.4 loss-rate backoff (default). Disabling it is the
    /// hidden-terminal ablation: without backoff, senders that cannot hear
    /// each other blast continuously and losses persist (§5.5's motivation).
    pub backoff_enabled: bool,
    /// Fall back to plain carrier sense when the conflict map looks stale
    /// (§4's safety argument: "when the conflict map is inaccurate, CMAP
    /// falls back to carrier sense"). Active only while *both* hold:
    /// at least [`CmapConfig::csma_fallback_after`] consecutive ACK
    /// timeouts, and no interferer-list information applied for
    /// [`CmapConfig::map_stale_after`].
    pub fallback_csma: bool,
    /// Consecutive ACK timeouts before the stale-map fallback may engage.
    pub csma_fallback_after: u32,
    /// Conflict-map staleness horizon: how long without applying any
    /// interferer-list entry (broadcast or ACK-piggybacked) before the map
    /// is considered stale for the CSMA fallback.
    pub map_stale_after: Time,
    /// Maximum number of times a data packet is repacked for
    /// retransmission before the sender gives up on it (surfaced as the
    /// `cmap.rtx_give_up` counter). Unbounded retransmission of packets to
    /// a crashed receiver would otherwise occupy the send window forever.
    pub max_rtx_rounds: u32,
    /// Upper bound on a single defer wait. The ongoing list can hold
    /// optimistic end times for transmissions whose sender died mid-burst;
    /// without a clamp a deferring node would sleep on a ghost.
    pub max_defer_wait: Time,
    /// Evict per-sender receive state (reassembly bitmaps, ACK bases) for
    /// peers not heard from in this long.
    pub peer_state_timeout: Time,
}

impl Default for CmapConfig {
    fn default() -> CmapConfig {
        CmapConfig {
            n_vpkt: 32,
            n_window: 8,
            t_deferwait: millis(5),
            t_ackwait: millis(5),
            ack_turnaround: millis(4),
            sw_jitter: millis(2),
            l_interf: 0.5,
            l_backoff: 0.5,
            cw_start: millis(5),
            cw_max: millis(320),
            interferer_min_samples: 12,
            broadcast_period: millis(1000),
            interferer_timeout: millis(4_000),
            defer_entry_timeout: millis(5_000),
            data_rate: Rate::R6,
            control_rate: Rate::BASE,
            rate_aware: false,
            il_in_acks: true,
            send_trailers: true,
            backoff_enabled: true,
            fallback_csma: true,
            csma_fallback_after: 3,
            map_stale_after: millis(5_000),
            max_rtx_rounds: 8,
            max_defer_wait: millis(100),
            peer_state_timeout: millis(30_000),
        }
    }
}

impl CmapConfig {
    /// Same configuration at a different data rate (control stays at base).
    pub fn at_rate(mut self, rate: Rate) -> CmapConfig {
        self.data_rate = rate;
        self
    }

    /// CMAP with a stop-and-wait window (`N_window` = 1) — the "CMAP,
    /// win=1" ablation of Fig 12.
    pub fn stop_and_wait(mut self) -> CmapConfig {
        self.n_window = 1;
        self
    }

    /// CMAP without trailers (ablation; see [`CmapConfig::send_trailers`]).
    pub fn without_trailers(mut self) -> CmapConfig {
        self.send_trailers = false;
        self
    }

    /// CMAP without the loss-rate backoff (ablation; see
    /// [`CmapConfig::backoff_enabled`]).
    pub fn without_backoff(mut self) -> CmapConfig {
        self.backoff_enabled = false;
        self
    }

    /// Maximum retransmission timeout: the airtime of a full window of data
    /// (`τ_max = N_window · N_vpkt · packet bits / link rate`, §3.3).
    pub(crate) fn tau_max(&self, payload_len: usize) -> Time {
        let bits = (self.n_window * self.n_vpkt * payload_len * 8) as u64;
        bits_duration(bits, self.data_rate.bits_per_sec())
    }

    /// Minimum retransmission timeout (`τ_min = τ_max / 2`, §3.3).
    pub(crate) fn tau_min(&self, payload_len: usize) -> Time {
        self.tau_max(payload_len) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CmapConfig::default();
        assert_eq!(c.n_vpkt, 32);
        assert_eq!(c.n_window, 8);
        assert_eq!(c.t_deferwait, millis(5));
        assert_eq!(c.t_ackwait, millis(5));
        assert_eq!(c.cw_start, millis(5));
        assert_eq!(c.cw_max, millis(320));
        assert!((c.l_interf - 0.5).abs() < 1e-12);
        assert!((c.l_backoff - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tau_formula() {
        let c = CmapConfig::default();
        // 8 * 32 * 1400 * 8 bits at 6 Mbit/s ~ 478 ms.
        let tmax = c.tau_max(1400);
        assert!((tmax as i64 - 477_866_667).abs() < 10, "{tmax}");
        assert_eq!(c.tau_min(1400), tmax / 2);
    }

    #[test]
    fn degradation_knobs_default_sane() {
        let c = CmapConfig::default();
        assert!(c.fallback_csma);
        assert!(c.csma_fallback_after >= 1);
        assert!(c.map_stale_after >= c.defer_entry_timeout);
        assert!(c.max_rtx_rounds >= 2);
        assert!(c.max_defer_wait >= c.t_deferwait);
        assert!(c.peer_state_timeout > c.map_stale_after);
    }

    #[test]
    fn builders() {
        let c = CmapConfig::default().at_rate(Rate::R18).stop_and_wait();
        assert_eq!(c.data_rate, Rate::R18);
        assert_eq!(c.control_rate, Rate::R6);
        assert_eq!(c.n_window, 1);
    }
}
