//! The protocol line-up of §5.

use cmap_core::{CmapConfig, CmapMac};
use cmap_mac80211::{DcfConfig, DcfMac};
use cmap_phy::Rate;
use cmap_sim::World;

/// A link-layer protocol configuration installable on every node of a world.
#[derive(Debug, Clone)]
pub enum Protocol {
    /// 802.11 DCF in some configuration.
    Dcf(DcfConfig),
    /// CMAP in some configuration.
    Cmap(CmapConfig),
}

impl Protocol {
    /// "CS, acks" — the status quo.
    pub fn cs_on() -> Protocol {
        Protocol::Dcf(DcfConfig::status_quo())
    }

    /// "CS off, acks".
    pub(crate) fn cs_off_acks() -> Protocol {
        Protocol::Dcf(DcfConfig::cs_off_acks())
    }

    /// "CS off, no acks" — continuous blasting.
    pub(crate) fn cs_off_no_acks() -> Protocol {
        Protocol::Dcf(DcfConfig::cs_off_no_acks())
    }

    /// CMAP with the paper's parameters.
    pub fn cmap() -> Protocol {
        Protocol::Cmap(CmapConfig::default())
    }

    /// "CMAP, win=1" — the stop-and-wait ablation of Fig 12.
    pub(crate) fn cmap_win1() -> Protocol {
        Protocol::Cmap(CmapConfig::default().stop_and_wait())
    }

    /// The same protocol with its data rate changed (§5.8).
    pub(crate) fn at_rate(self, rate: Rate) -> Protocol {
        match self {
            Protocol::Dcf(cfg) => Protocol::Dcf(cfg.at_rate(rate)),
            Protocol::Cmap(cfg) => Protocol::Cmap(cfg.at_rate(rate)),
        }
    }

    /// Figure-legend label.
    pub fn label(&self) -> String {
        match self {
            Protocol::Dcf(cfg) => match (cfg.carrier_sense, cfg.acks) {
                (true, true) => "CS, acks".into(),
                (true, false) => "CS, no acks".into(),
                (false, true) => "CS off, acks".into(),
                (false, false) => "CS off, no acks".into(),
            },
            Protocol::Cmap(cfg) if cfg.n_window == 1 => "CMAP, win=1".into(),
            Protocol::Cmap(_) => "CMAP".into(),
        }
    }

    /// Install this protocol's MAC on every node of `world`.
    pub fn install(&self, world: &mut World) {
        for node in 0..world.node_count() {
            match self {
                Protocol::Dcf(cfg) => world.set_mac(node, Box::new(DcfMac::new(cfg.clone()))),
                Protocol::Cmap(cfg) => world.set_mac(node, Box::new(CmapMac::new(cfg.clone()))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figures() {
        assert_eq!(Protocol::cs_on().label(), "CS, acks");
        assert_eq!(Protocol::cs_off_acks().label(), "CS off, acks");
        assert_eq!(Protocol::cs_off_no_acks().label(), "CS off, no acks");
        assert_eq!(Protocol::cmap().label(), "CMAP");
        assert_eq!(Protocol::cmap_win1().label(), "CMAP, win=1");
    }

    #[test]
    fn rate_builder_applies() {
        assert!(matches!(
            Protocol::cmap().at_rate(Rate::R18),
            Protocol::Cmap(cfg) if cfg.data_rate == Rate::R18
        ));
        assert!(matches!(
            Protocol::cs_on().at_rate(Rate::R12),
            Protocol::Dcf(cfg) if cfg.rate == Rate::R12
        ));
    }
}
