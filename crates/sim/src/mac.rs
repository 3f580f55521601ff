//! The MAC-protocol interface: how link layers plug into the simulator.
//!
//! A [`Mac`] instance runs at each node. The world invokes its callbacks for
//! timer fires, frame receptions, transmission completions and carrier
//! transitions; the MAC responds through the [`NodeCtx`] handle — setting
//! timers, starting transmissions, pulling application packets and
//! delivering received ones. All `NodeCtx` mutations are applied after the
//! callback returns, in order, at the current simulation time.

use rand::rngs::SmallRng;

use crate::app::{AppPacket, NodeApp};
use crate::event::TxId;
use crate::pool::FramePool;
use crate::radio::RadioPhase;
use crate::stats::Stats;
use crate::time::Time;
use crate::world::{Flow, NodeId};
use cmap_phy::Rate;
use cmap_wire::{FrameView, MacAddr};

/// Metadata for a successfully decoded frame.
#[derive(Debug, Clone, Copy)]
pub struct RxInfo {
    /// Received signal power (post-fading) in milliwatts.
    pub signal_mw: f64,
    /// When the radio locked onto the frame.
    pub start: Time,
    /// When the frame ended (== now in the callback).
    pub end: Time,
    /// Bit-rate the frame was sent at.
    pub rate: Rate,
}

/// Metadata for a frame the radio locked onto but failed to decode — the MAC
/// knows *something* collided or faded out, and when, but not its contents.
#[derive(Debug, Clone, Copy)]
pub struct RxErrorInfo {
    /// When the radio locked onto the doomed frame.
    pub start: Time,
    /// When it ended.
    pub end: Time,
    /// Its received signal power in milliwatts.
    pub signal_mw: f64,
}

/// A link-layer protocol instance at one node.
///
/// Implementations: `cmap_core::CmapMac` (the paper's contribution) and
/// `cmap_mac80211::DcfMac` (the 802.11 baseline). All callbacks default to
/// no-ops except [`Mac::on_start`], which every protocol needs to bootstrap.
pub trait Mac {
    /// Called once when the world starts; set initial timers here.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>);

    /// The node crashed and came back (fault injection): volatile protocol
    /// state is gone. Implementations must reset to a clean boot state *and
    /// keep ignoring stale timer tokens from before the crash* (timers
    /// scheduled pre-crash may still fire afterwards). The default restarts
    /// via [`Mac::on_start`], which suits stateless MACs.
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.on_start(ctx);
    }

    /// A timer set via [`NodeCtx::set_timer`] fired. Late or superseded
    /// timers are delivered too — MACs ignore stale tokens.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}

    /// A frame was received and decoded. Frames are delivered promiscuously
    /// (check `frame.dst()` yourself) as zero-copy [`FrameView`]s over the
    /// pooled wire bytes, borrowed for the call: copy out the fields (or
    /// [`FrameView::bytes`]) a MAC needs to keep.
    fn on_rx_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: &FrameView<'_>, _info: RxInfo) {}

    /// The radio locked onto a frame but the payload failed to decode.
    fn on_rx_error(&mut self, _ctx: &mut NodeCtx<'_>, _err: RxErrorInfo) {}

    /// Our own transmission just finished.
    fn on_tx_done(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// The clear-channel assessment changed (edge-triggered). Delivered
    /// only while [`Mac::wants_channel_edges`] answers `true`.
    fn on_channel_state(&mut self, _ctx: &mut NodeCtx<'_>, _busy: bool) {}

    /// Whether [`Mac::on_channel_state`] should be called on the next CCA
    /// edge. The world reads the answer once after every callback, after
    /// [`World::set_mac`](crate::World::set_mac) and after a restore, and
    /// skips the call while it is `false`; so a MAC must answer `true` in
    /// every state in which that callback can act.
    fn wants_channel_edges(&self) -> bool {
        true
    }

    /// A new application packet became available at this node (e.g. a relay
    /// queue went non-empty). Saturated sources never trigger this — they
    /// always have data.
    fn on_packet_queued(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// Introspection hook for tests and experiment harnesses.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Append this MAC's dynamic protocol state to a `cmap-ckpt/v8`
    /// checkpoint blob. Paired with [`Mac::load_state`]; the world frames
    /// the blob, so implementations just write fields in a fixed order.
    /// The default writes nothing, which is correct for stateless MACs
    /// (e.g. `NullMac`).
    fn save_state(&self, _out: &mut Vec<u8>) {}

    /// Restore the state written by [`Mac::save_state`] into a
    /// freshly-configured instance of the same MAC. The default accepts
    /// only an empty blob — a non-empty blob reaching a stateless MAC
    /// means the checkpoint was taken with a different protocol stack.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} bytes of MAC state for a MAC that saves none",
                bytes.len()
            ))
        }
    }
}

/// A MAC that never transmits; installed at nodes that only overhear.
#[derive(Debug, Default)]
pub(crate) struct NullMac;

impl Mac for NullMac {
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
    fn wants_channel_edges(&self) -> bool {
        false
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Deferred operations collected during a callback.
#[derive(Debug)]
pub(crate) enum Op {
    Timer { at: Time, token: u64 },
    StartTx { tx_id: TxId, rate: Rate },
    Deliver { flow: u16, flow_seq: u32 },
}

/// The MAC's handle onto its node and the world, valid for one callback.
pub struct NodeCtx<'a> {
    pub(crate) node: NodeId,
    pub(crate) now: Time,
    pub(crate) phase: RadioPhase,
    pub(crate) busy: bool,
    pub(crate) mac_addr: MacAddr,
    pub(crate) abort_rx_on_tx: bool,
    pub(crate) tx_requested: bool,
    /// False while the radio is disabled by fault injection (lockup):
    /// transmit attempts fail, mirroring a wedged front-end.
    pub(crate) radio_ok: bool,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) pool: &'a mut FramePool,
    pub(crate) app: &'a mut NodeApp,
    pub(crate) flows: &'a mut [Flow],
    pub(crate) stats: &'a mut Stats,
    pub(crate) ops: &'a mut Vec<Op>,
}

impl NodeCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// This node's index.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's link-layer address.
    pub fn mac_addr(&self) -> MacAddr {
        self.mac_addr
    }

    /// Clear-channel assessment at callback entry (physical carrier sense:
    /// locked, transmitting, or energy above the ED threshold).
    pub fn carrier_busy(&self) -> bool {
        self.busy
    }

    /// This node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Runtime statistics sink.
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// Emit a structured trace event at the current simulation time. One
    /// branch and no work when tracing is disabled; protocol decision
    /// points call this unconditionally.
    #[inline]
    pub fn trace(&mut self, ev: cmap_obs::TraceEvent) {
        self.stats.emit(self.now, ev);
    }

    /// Whether structured tracing is enabled (lets callers skip building
    /// costly event payloads; the typed events themselves are all `Copy`).
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.stats.trace_enabled()
    }

    /// Arrange for [`Mac::on_timer`] with `token` after `delay` ns.
    ///
    /// There is no cancellation: supersede timers by versioning the token
    /// and ignoring stale ones.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.ops.push(Op::Timer {
            at: self.now + delay,
            token,
        });
    }

    /// Start a transmission at `rate`, composing the frame directly into a
    /// recycled pool buffer — the allocation-free hot path. `fill` receives
    /// the (stale-content) buffer and must leave it holding exactly one
    /// complete wire frame; the `cmap_wire::view::compose` helpers do this
    /// (clear, write fields in place, append CRC).
    ///
    /// Returns `false` (and calls nothing, claims nothing) if the radio is
    /// already transmitting, if a transmission was already requested in
    /// this callback, if the radio is disabled by fault injection, or if
    /// the radio is mid-reception and the PHY is configured not to abort
    /// receptions. On success the radio transmits immediately;
    /// [`Mac::on_tx_done`] fires when the frame leaves the air.
    pub fn transmit_with(&mut self, rate: Rate, fill: impl FnOnce(&mut Vec<u8>)) -> bool {
        if self.tx_requested || self.phase == RadioPhase::Transmitting || !self.radio_ok {
            return false;
        }
        if self.phase == RadioPhase::Receiving && !self.abort_rx_on_tx {
            return false;
        }
        self.tx_requested = true;
        let tx_id = self.pool.alloc();
        fill(self.pool.buf_mut(tx_id));
        self.ops.push(Op::StartTx { tx_id, rate });
        true
    }

    /// Hand a received data packet to the node's higher layer. The world
    /// records delivery statistics (with duplicate suppression) and feeds
    /// relay flows.
    pub fn deliver(&mut self, flow: u16, flow_seq: u32) {
        self.ops.push(Op::Deliver { flow, flow_seq });
    }

    /// Pull the next application packet (round-robin across this node's
    /// flows), or `None` if all queues are idle.
    pub fn app_pop(&mut self) -> Option<AppPacket> {
        self.app.pop(self.flows)
    }

    /// Pull the next application packet destined specifically to `dst`
    /// (used by CMAP to fill a virtual packet for one destination).
    pub fn app_pop_to(&mut self, dst: NodeId) -> Option<AppPacket> {
        self.app.pop_to(self.flows, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NodeCtx behaviour is exercised end-to-end by the world tests; here we
    // only pin the pure parts.

    #[test]
    fn null_mac_is_inert() {
        let mut m = NullMac;
        // as_any gives back the same object.
        assert!(m.as_any().downcast_ref::<NullMac>().is_some());
        assert!(!m.wants_channel_edges());
        let _ = &mut m;
    }
}
