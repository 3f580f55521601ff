//! DCF configuration.

use cmap_phy::Rate;
use cmap_sim::time::{micros, Time};

use crate::timing;

/// Configuration of one [`DcfMac`](crate::DcfMac) instance.
#[derive(Debug, Clone)]
pub struct DcfConfig {
    /// Physical + virtual carrier sense. The paper's "CS off" baselines
    /// disable this: senders skip DIFS deferral, ignore CCA and NAV, and
    /// only space transmissions by their (post-)backoff.
    pub carrier_sense: bool,
    /// Link-layer ACKs and retransmissions. Disabled for the "no acks"
    /// baselines (§5.2, §5.4): frames are sent once, fire-and-forget.
    pub acks: bool,
    /// Bit-rate for data frames.
    pub rate: Rate,
    /// Bit-rate for ACK control frames (the base rate, like real cards).
    pub(crate) ack_rate: Rate,
    /// Minimum contention window in slots.
    pub(crate) cw_min: u32,
    /// Maximum contention window in slots.
    pub(crate) cw_max: u32,
    /// Retransmission attempts before a frame is dropped.
    pub(crate) retry_limit: u32,
    /// Post-backoff between consecutive frames even without loss feedback
    /// (real hardware always runs a CW_min backoff after a transmission).
    pub(crate) post_backoff: bool,
    /// How long after a data frame's end to wait for the ACK before
    /// declaring a timeout.
    pub(crate) ack_timeout_ns: Time,
    /// Use EIFS instead of DIFS after an undecodable reception (802.11's
    /// protection for the ACK exchange the station may have missed).
    pub(crate) eifs: bool,
}

impl Default for DcfConfig {
    fn default() -> DcfConfig {
        DcfConfig {
            carrier_sense: true,
            acks: true,
            rate: Rate::R6,
            ack_rate: Rate::BASE,
            cw_min: timing::CW_MIN,
            cw_max: timing::CW_MAX,
            retry_limit: timing::RETRY_LIMIT,
            post_backoff: true,
            // SIFS + ACK airtime at the base rate (~44 us) + PHY slack.
            ack_timeout_ns: timing::SIFS_NS + micros(44) + micros(15),
            eifs: true,
        }
    }
}

impl DcfConfig {
    /// The paper's "status quo": carrier sense on, ACKs on.
    pub fn status_quo() -> DcfConfig {
        DcfConfig::default()
    }

    /// Carrier sense disabled, ACKs enabled ("CS off, acks").
    pub fn cs_off_acks() -> DcfConfig {
        DcfConfig {
            carrier_sense: false,
            ..DcfConfig::default()
        }
    }

    /// Carrier sense and ACKs disabled ("CS off, no acks") — continuous
    /// blasting, used to probe raw concurrency (§5.2, §5.4).
    pub fn cs_off_no_acks() -> DcfConfig {
        DcfConfig {
            carrier_sense: false,
            acks: false,
            ..DcfConfig::default()
        }
    }

    /// Same config at a different data rate.
    pub fn at_rate(mut self, rate: Rate) -> DcfConfig {
        self.rate = rate;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_flip_the_right_switches() {
        let sq = DcfConfig::status_quo();
        assert!(sq.carrier_sense && sq.acks);
        let ca = DcfConfig::cs_off_acks();
        assert!(!ca.carrier_sense && ca.acks);
        let cn = DcfConfig::cs_off_no_acks();
        assert!(!cn.carrier_sense && !cn.acks);
    }

    #[test]
    fn rate_builder() {
        let c = DcfConfig::status_quo().at_rate(Rate::R18);
        assert_eq!(c.rate, Rate::R18);
        assert_eq!(c.ack_rate, Rate::R6);
    }

    #[test]
    fn ack_timeout_covers_sifs_plus_ack() {
        let c = DcfConfig::default();
        // ACK frame: 14 bytes at 6 Mbit/s = 20 us PLCP + 6 symbols = 44 us.
        let ack_air = Rate::R6.frame_airtime_ns(cmap_wire::dot11::ACK_LEN);
        assert!(c.ack_timeout_ns >= timing::SIFS_NS + ack_air);
    }
}
