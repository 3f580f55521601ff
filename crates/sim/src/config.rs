//! Radio/PHY configuration shared by every node in a world.

/// Physical-layer configuration for a simulated world.
///
/// Defaults are calibrated to a commodity 5 GHz 802.11a card (Atheros
/// AR5212-class, as in the paper's testbed).
#[derive(Debug, Clone)]
pub struct PhyConfig {
    /// Transmit power in dBm (fixed network-wide; the paper assumes all
    /// sources always transmit at the same power level, note 2).
    pub tx_power_dbm: f64,
    /// Receiver noise floor in dBm (thermal + noise figure).
    pub noise_floor_dbm: f64,
    /// Minimum RSS for a receiver to even attempt preamble lock.
    pub sensitivity_dbm: f64,
    /// Energy-detect carrier-sense threshold in dBm: the medium reads busy
    /// when total received energy exceeds this, even without a decodable
    /// preamble (802.11 CCA-ED; only DCF consults it).
    pub ed_threshold_dbm: f64,
    /// Preamble-detection carrier-sense threshold in dBm. Real CCA asserts
    /// busy on training-sequence correlation well below the level needed to
    /// *decode* a frame — this is why carrier sense reaches 1.5–3x the data
    /// range and is "too conservative" (the paper's premise). The radio
    /// reports busy when total in-band energy exceeds this even without a
    /// lock. Only DCF consults CCA; CMAP ignores it by design.
    pub cs_detect_dbm: f64,
    /// Preamble capture: a frame arriving while another frame's
    /// preamble/SIGNAL is still being received steals the lock if it is at
    /// least this many dB stronger.
    pub capture_margin_db: f64,
    /// Enable preamble capture at all.
    pub preamble_capture: bool,
    /// Message-in-message capture: a frame arriving *after* the locked
    /// frame's preamble window still steals the lock if it is at least
    /// `mim_margin_db` stronger (the OFDM receiver restarts on the louder
    /// preamble). Atheros-era hardware does this, and the paper's exposed
    /// terminals depend on it: the ACK from R must punch through at S while
    /// S's radio is chewing on ES's (much weaker) transmission.
    pub mim_capture: bool,
    /// Strength margin for message-in-message capture, in dB.
    pub mim_margin_db: f64,
    /// Standard deviation (dB) of the per-frame, per-receiver lognormal
    /// fading applied on top of the frozen link gain. Softens the otherwise
    /// knife-edge PER-vs-SINR curve the way real multipath does.
    pub fading_sigma_db: f64,
    /// Probability that a frame instead experiences an *upfade* burst:
    /// fading drawn as `N(fading_boost_db, fading_sigma_db)`. Models the
    /// occasional constructive multipath/temporal alignment that gives
    /// far-away pairs trace connectivity — the paper's testbed has a large
    /// population of links with PRR barely above zero (§5.1).
    pub fading_boost_prob: f64,
    /// Mean of the upfade component in dB.
    pub fading_boost_db: f64,
    /// If true (default, matching MadWifi with carrier sense disabled), a
    /// node that starts transmitting while mid-reception aborts that
    /// reception. If false, `transmit` fails while receiving.
    pub abort_rx_on_tx: bool,
    /// Frames arriving below this RSS are not even generated as events at
    /// the receiver (they would change the noise level by well under a dB).
    pub delivery_floor_dbm: f64,
}

impl Default for PhyConfig {
    fn default() -> PhyConfig {
        PhyConfig {
            tx_power_dbm: 15.0,
            noise_floor_dbm: cmap_phy::NOISE_FLOOR_DBM,
            sensitivity_dbm: -95.0,
            ed_threshold_dbm: -62.0,
            cs_detect_dbm: -98.0,
            capture_margin_db: 10.0,
            preamble_capture: true,
            mim_capture: true,
            mim_margin_db: 10.0,
            fading_sigma_db: 2.0,
            fading_boost_prob: 0.08,
            fading_boost_db: 18.0,
            abort_rx_on_tx: true,
            delivery_floor_dbm: -105.0,
        }
    }
}

impl PhyConfig {
    /// Noise floor in linear milliwatts.
    pub fn noise_mw(&self) -> f64 {
        cmap_phy::dbm_to_mw(self.noise_floor_dbm)
    }
}

/// The linear-domain constants the per-event radio paths compare against.
/// Derived once per world: each is a `powf` of configuration, and carrier
/// sense alone reads one on every MAC dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhyLinear {
    /// Noise floor in mW.
    pub(crate) noise_mw: f64,
    /// Minimum power in mW for a lock attempt.
    pub(crate) sensitivity_mw: f64,
    /// In-band energy at which CCA reads busy, in 2⁻¹⁰⁰ mW (as the radio
    /// totals it): the lower of the preamble-detection and
    /// energy-detection thresholds.
    pub(crate) cca_busy: u128,
    /// Power ratio over the locked frame that steals the lock inside its
    /// preamble window; `None` when preamble capture is off.
    pub(crate) capture_ratio: Option<f64>,
    /// The same after the preamble window; `None` when MIM capture is off.
    pub(crate) mim_ratio: Option<f64>,
}

impl PhyLinear {
    /// Convert `phy`'s dB figures once. Run digests depend on the exact
    /// bits, so a change of formula here is a change of every artifact.
    pub(crate) fn new(phy: &PhyConfig) -> PhyLinear {
        use crate::radio::fixed_mw;
        use cmap_phy::{db_to_ratio, dbm_to_mw};
        PhyLinear {
            noise_mw: phy.noise_mw(),
            sensitivity_mw: dbm_to_mw(phy.sensitivity_dbm),
            cca_busy: fixed_mw(dbm_to_mw(phy.cs_detect_dbm.min(phy.ed_threshold_dbm))),
            capture_ratio: phy
                .preamble_capture
                .then(|| db_to_ratio(phy.capture_margin_db)),
            mim_ratio: phy.mim_capture.then(|| db_to_ratio(phy.mim_margin_db)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_internally_consistent() {
        let c = PhyConfig::default();
        assert!(c.delivery_floor_dbm < c.sensitivity_dbm);
        assert!(c.sensitivity_dbm < c.ed_threshold_dbm);
        assert!(c.cs_detect_dbm < c.sensitivity_dbm);
        assert!(c.delivery_floor_dbm < c.cs_detect_dbm);
        assert!(c.noise_floor_dbm < c.sensitivity_dbm + 5.0);
        assert!(c.capture_margin_db > 0.0);
    }
}
