//! DCF configuration.

use cmap_phy::Rate;

/// Configuration of one [`DcfMac`](crate::DcfMac) instance: the switches
/// the paper's baselines flip, and the data rate. Everything else is a
/// [`timing`](crate::timing) constant.
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
}

impl DcfConfig {
    /// The paper's "status quo": carrier sense on, ACKs on.
    pub fn status_quo() -> DcfConfig {
        DcfConfig {
            carrier_sense: true,
            acks: true,
            rate: Rate::R6,
        }
    }

    /// Carrier sense disabled, ACKs enabled ("CS off, acks").
    pub fn cs_off_acks() -> DcfConfig {
        DcfConfig {
            carrier_sense: false,
            acks: true,
            rate: Rate::R6,
        }
    }

    /// Carrier sense and ACKs disabled ("CS off, no acks") — continuous
    /// blasting, used to probe raw concurrency (§5.2, §5.4).
    pub fn cs_off_no_acks() -> DcfConfig {
        DcfConfig {
            carrier_sense: false,
            acks: false,
            rate: Rate::R6,
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
    }
}
