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
    /// Message-in-message capture: a frame arriving *after* the locked
    /// frame's preamble window still steals the lock if it is at least
    /// `MIM_MARGIN_DB` (10 dB) stronger (the OFDM receiver restarts on the
    /// louder preamble). Atheros-era hardware does this, and the paper's
    /// exposed terminals depend on it: the ACK from R must punch through at
    /// S while S's radio is chewing on ES's (much weaker) transmission.
    pub mim_capture: bool,
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
}

impl Default for PhyConfig {
    fn default() -> PhyConfig {
        DEFAULT
    }
}

/// [`PhyConfig::default`], as a constant the orderings below can read.
const DEFAULT: PhyConfig = PhyConfig {
    tx_power_dbm: 15.0,
    noise_floor_dbm: cmap_phy::NOISE_FLOOR_DBM,
    sensitivity_dbm: -95.0,
    mim_capture: true,
    fading_sigma_db: 2.0,
    fading_boost_prob: 0.08,
    fading_boost_db: 18.0,
};

/// Energy-detect carrier-sense threshold in dBm: the medium reads busy
/// when total received energy exceeds this, even without a decodable
/// preamble (802.11 CCA-ED; only DCF consults it).
pub(crate) const ED_THRESHOLD_DBM: f64 = -62.0;

/// Preamble-detection carrier-sense threshold in dBm. Real CCA asserts
/// busy on training-sequence correlation well below the level needed to
/// *decode* a frame — this is why carrier sense reaches 1.5–3x the data
/// range and is "too conservative" (the paper's premise). The radio
/// reports busy when total in-band energy exceeds this even without a
/// lock. Only DCF consults CCA; CMAP ignores it by design.
pub(crate) const CS_DETECT_DBM: f64 = -98.0;

/// Preamble capture: a frame arriving while another frame's
/// preamble/SIGNAL is still being received steals the lock if it is at
/// least this many dB stronger.
pub(crate) const CAPTURE_MARGIN_DB: f64 = 10.0;

/// Strength margin for message-in-message capture, in dB.
pub(crate) const MIM_MARGIN_DB: f64 = 10.0;

/// Frames arriving below this RSS are not even generated as events at
/// the receiver (they would change the noise level by well under a dB).
pub const DELIVERY_FLOOR_DBM: f64 = -105.0;

// The default's levels, from the delivery floor up: nothing sensed goes
// undelivered, preamble detection fires below the lock threshold and
// energy detection above it, and the noise floor sits under a lock.
const _: () = assert!(DELIVERY_FLOOR_DBM < CS_DETECT_DBM);
const _: () = assert!(CS_DETECT_DBM < DEFAULT.sensitivity_dbm);
const _: () = assert!(DEFAULT.sensitivity_dbm < ED_THRESHOLD_DBM);
const _: () = assert!(DEFAULT.noise_floor_dbm < DEFAULT.sensitivity_dbm + 5.0);
const _: () = assert!(CAPTURE_MARGIN_DB > 0.0);

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
    /// preamble window.
    pub(crate) capture_ratio: f64,
    /// The same after the preamble window; `None` when MIM capture is off.
    pub(crate) mim_ratio: Option<f64>,
}

impl PhyLinear {
    /// Convert the dB figures once. Run digests depend on the exact
    /// bits, so a change of formula here is a change of every artifact.
    pub(crate) fn new(phy: &PhyConfig) -> PhyLinear {
        use crate::radio::fixed_mw;
        use cmap_phy::{db_to_ratio, dbm_to_mw};
        PhyLinear {
            noise_mw: phy.noise_mw(),
            sensitivity_mw: dbm_to_mw(phy.sensitivity_dbm),
            cca_busy: fixed_mw(dbm_to_mw(CS_DETECT_DBM.min(ED_THRESHOLD_DBM))),
            capture_ratio: db_to_ratio(CAPTURE_MARGIN_DB),
            mim_ratio: phy.mim_capture.then(|| db_to_ratio(MIM_MARGIN_DB)),
        }
    }
}
