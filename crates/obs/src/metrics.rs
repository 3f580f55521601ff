//! Typed metric registries.
//!
//! Every counter and gauge the harness records is declared here, once, with
//! its stable dotted name. The enums are dense (`id as usize` indexes a flat
//! array in `cmap_sim::Stats`) and the names are `'static`.
//!
//! Adding a metric is a one-line edit to the relevant `define_*!` block;
//! the name must keep the `layer.event` dotted convention because report
//! consumers and the `watchdog.*` prefix filter rely on it.

macro_rules! define_ids {
    ($(#[$meta:meta])* $vis:vis enum $ty:ident { $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Number of declared ids (the dense index space).
            pub const COUNT: usize = [$($name),+].len();

            /// Every id, in declaration order.
            pub const ALL: [$ty; Self::COUNT] = [$($ty::$variant),+];

            /// The id's stable dotted name.
            #[inline]
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// Dense index for array-backed storage.
            #[inline]
            pub const fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

define_ids! {
    /// Registry of every run counter. Grouped by the layer that bumps it:
    /// `sim.*` engine, `stats.*` bookkeeping, `watchdog.*` invariant
    /// violations, `fault.*` injected faults, `dcf.*` the 802.11 baseline
    /// MAC, `cmap.*` the paper's MAC.
    pub enum CounterId {
        // Engine (crates/sim).
        /// Transmissions started.
        SimTx => "sim.tx",
        /// Frames decoded successfully.
        SimRxOk => "sim.rx_ok",
        /// Locked frames that failed to decode.
        SimRxFail => "sim.rx_fail",
        /// Clean preamble locks.
        SimLock => "sim.lock",
        /// Message-in-message captures.
        SimCapture => "sim.capture",
        /// Deliveries naming a flow the world does not know.
        SimUnknownFlow => "sim.unknown_flow",
        /// Deliveries at a node that is not the flow's destination.
        SimMisdelivered => "sim.misdelivered",
        // PHY hot path (crates/phy table, bumped by crates/sim).
        /// Interference segments graded (one per segment of each completed
        /// reception's payload span), whether or not the draw needed the
        /// BER table read.
        PhyBerTableLookup => "phy.ber_table_lookup",
        // Scheduler (crates/sim): read by `benchmark/` for `event.cascades_per_kevent`.
        /// Never bumped (the queue is one heap); retires with that metric in a `benchmark` PR.
        SimSchedCascades => "sim.sched_cascades",
        // Statistics bookkeeping (crates/sim).
        /// Per-seq vpkt flag entries evicted to honour the cap.
        StatsVpktEvicted => "stats.vpkt_evicted",
        // Invariant watchdog (crates/sim).
        /// Events observed out of time order.
        WatchdogTimeRegress => "watchdog.time_regress",
        /// Radio state-machine invariant failures.
        WatchdogRadioState => "watchdog.radio_state",
        /// Refused transmit while already transmitting.
        WatchdogHalfDuplex => "watchdog.half_duplex",
        /// Live nodes with data but no MAC activity in the window.
        WatchdogStalled => "watchdog.stalled",
        // Fault injection (crates/sim).
        /// Receptions dropped because the radio went down mid-frame.
        FaultRxDropped => "fault.rx_dropped",
        /// Node churn: power-off actions.
        FaultNodeDown => "fault.node_down",
        /// Node churn: power-on actions.
        FaultNodeUp => "fault.node_up",
        /// Radio lockup starts.
        FaultLockup => "fault.lockup",
        /// Radio lockup recoveries.
        FaultLockupEnd => "fault.lockup_end",
        /// Decoded frames corrupted by injection (late CRC escape).
        FaultCorrupted => "fault.corrupted",
        /// Frames delivered twice by injection.
        FaultDupDelivered => "fault.dup_delivered",
        /// MAC callbacks swallowed while the node was down.
        FaultDispatchSuppressed => "fault.dispatch_suppressed",
        /// Transmissions blocked by a disabled radio at apply time.
        FaultTxBlocked => "fault.tx_blocked",
        // 802.11 DCF baseline (crates/mac80211).
        /// Data frames transmitted.
        DcfTxData => "dcf.tx_data",
        /// ACK timeouts.
        DcfAckTimeout => "dcf.ack_timeout",
        /// Frames dropped at the retry limit.
        DcfDrop => "dcf.drop",
        /// Retransmissions.
        DcfRetx => "dcf.retx",
        /// ACKs received for the outstanding frame.
        DcfAckOk => "dcf.ack_ok",
        /// Restarts after a crash.
        DcfRestart => "dcf.restart",
        /// ACKs transmitted.
        DcfAckTx => "dcf.ack_tx",
        /// ACK transmissions the radio refused.
        DcfAckTxBlocked => "dcf.ack_tx_blocked",
        /// `on_tx_done` with nothing outstanding.
        DcfUnexpectedTxDone => "dcf.unexpected_tx_done",
        /// EIFS deferrals after an undecodable frame.
        DcfEifs => "dcf.eifs",
        // CMAP (crates/core).
        /// Window full with nothing repacked: retransmission stall.
        CmapRtxStall => "cmap.rtx_stall",
        /// Virtual packets retransmitted.
        CmapRtxVpkt => "cmap.rtx_vpkt",
        /// Transmission decisions that deferred (§3.2).
        CmapDefer => "cmap.defer",
        /// Defer decisions taken while the conservative CSMA fallback was
        /// active (stale conflict map).
        CmapCsmaFallback => "cmap.csma_fallback",
        /// Virtual packets started on the air.
        CmapTxVpkt => "cmap.tx_vpkt",
        /// Virtual-packet starts the radio refused.
        CmapTxBlocked => "cmap.tx_blocked",
        /// Virtual packets aborted mid-burst.
        CmapVpktAbort => "cmap.vpkt_abort",
        /// Retransmitted virtual packets completed.
        CmapRtxVpktDone => "cmap.rtx_vpkt_done",
        /// Contention-window increases from reported loss (Fig 7).
        CmapCwIncrease => "cmap.cw_increase",
        /// ACKs received.
        CmapAckRx => "cmap.ack_rx",
        /// Data packets newly acknowledged.
        CmapPktsAcked => "cmap.pkts_acked",
        /// Receiver-side sender-reboot detections.
        CmapPeerReset => "cmap.peer_reset",
        /// Duplicate finalizations suppressed.
        CmapDupFinalize => "cmap.dup_finalize",
        /// ACK transmissions the radio refused.
        CmapAckBlocked => "cmap.ack_blocked",
        /// ACKs transmitted.
        CmapAckTx => "cmap.ack_tx",
        /// Conflict-map entries evicted by TTL.
        CmapExpiredEvicted => "cmap.expired_evicted",
        /// Peer state entries evicted by TTL.
        CmapPeerEvicted => "cmap.peer_evicted",
        /// Interferer-list broadcasts sent.
        CmapIlBroadcast => "cmap.il_broadcast",
        /// Interferer-list broadcasts the radio refused.
        CmapIlBlocked => "cmap.il_blocked",
        /// Restarts after a crash.
        CmapRestart => "cmap.restart",
        /// ACK timeouts.
        CmapAckTimeout => "cmap.ack_timeout",
        /// Data packets requeued for retransmission.
        CmapRtxPkt => "cmap.rtx_pkt",
        /// Data packets abandoned at the retransmission bound.
        CmapRtxGiveUp => "cmap.rtx_give_up",
        /// `on_tx_done` with nothing outstanding.
        CmapUnexpectedTxDone => "cmap.unexpected_tx_done",
    }
}

define_ids! {
    /// Registry of every gauge (last-write-wins level readings, recorded at
    /// deterministic points of the run so snapshots stay comparable).
    pub enum GaugeId {
        /// Transmission records still held when the run clock stopped.
        SimInflightTx => "sim.inflight_tx",
        /// Events still pending in the scheduler when the run clock stopped.
        SimSchedPending => "sim.sched_pending",
        /// Largest scheduler occupancy (pending events) the run reached.
        SimSchedMaxOccupancy => "sim.sched_max_occupancy",
        /// Trace records dropped by the ring buffer (0 when tracing is off).
        TraceDropped => "trace.dropped",
        /// Frame-pool slots still claimed when the run clock stopped
        /// (mirrors `sim.inflight_tx`; must drain to ~0 at quiesce).
        PoolFramesLive => "pool.frames_live",
        /// Frame-pool slot recycle events (frees) over the whole run.
        PoolRecycled => "pool.recycled",
        /// Most frame-pool slots claimed at once over the whole run.
        PoolHighWater => "pool.high_water",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.idx(), i);
        }
        assert_eq!(CounterId::ALL.len(), CounterId::COUNT);
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|id| id.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|id| id.name()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.contains('.'), "metric `{n}` must be layer.event dotted");
        }
    }

    #[test]
    fn watchdog_group_is_prefix_filterable() {
        let watchdog: Vec<&str> = CounterId::ALL
            .iter()
            .map(|id| id.name())
            .filter(|n| n.starts_with("watchdog."))
            .collect();
        assert_eq!(watchdog.len(), 4);
    }
}
