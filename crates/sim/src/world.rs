//! The world: nodes, medium, event loop, and MAC dispatch.
//!
//! A [`World`] wires together a [`Medium`], one radio + RNG + app state
//! per node, and one [`Mac`] per node, then runs the event queue. All MAC
//! side effects go through [`NodeCtx`] and are applied in order when the
//! callback returns, so the engine never hands out two mutable views of the
//! same state.
//!
//! A transmission reaches its N receivers as N `FrameStart` and N
//! `FrameEnd` events, and ends with its own `TxEnd`: `1 + 2·N` events,
//! which fall due in one order — every `FrameStart`, the `TxEnd`, every
//! `FrameEnd`, each kind in the medium's arrival order — and so queue as
//! one stream. `start_tx` reserves their sequence numbers and queues the
//! first; handling one steps the cursor in the pool slot and hands the
//! stream's next event to the run loop, which offers it to
//! [`Scheduler::next`]. The keys are those filing every event eagerly
//! would use, so the event handled next is always the one a queue holding
//! them all would pop.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::app::NodeApp;
use crate::ckpt::{CkptError, CkptReader, CkptWriter, Persist};
use crate::config::{PhyConfig, PhyLinear};
use crate::event::{Due, Event, Scheduler, TxId};
use crate::faults::{FaultAction, FaultPlan, FaultState, WatchdogConfig};
use crate::mac::{Mac, NodeCtx, NullMac, Op, RxErrorInfo, RxInfo};
use crate::medium::Medium;
use crate::persist;
use crate::pool::{index_of, FramePool, LiveTx};
use crate::radio::{LockOutcome, RadioBank, RadioPhase, RxLock, FIXED_MAX};
use crate::rng::stream_rng;
use crate::stats::Stats;
use crate::time::Time;
use cmap_obs::{CounterId, GaugeId, TraceEvent, TraceSink};
use cmap_phy::{db_to_ratio, fading, gate, BerTable, Rate, PLCP_PREAMBLE_NS, PLCP_SIG_NS};
use cmap_wire::{FrameKind, FrameView, MacAddr};

pub use crate::node::NodeId;

/// How a flow generates packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Always has the next packet ready (backlogged sender, §5.1).
    Saturated,
    /// Forwards packets delivered by `upstream` at this flow's source node
    /// (two-hop mesh dissemination, §5.7).
    Relay {
        /// The flow whose deliveries feed this one.
        upstream: u16,
    },
}

/// One unidirectional application flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Flow index (== position in the world's flow table).
    pub id: u16,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Application payload bytes per packet.
    pub payload_len: usize,
    /// Packet generation behaviour.
    pub(crate) kind: FlowKind,
    pub(crate) next_seq: u32,
}

/// The CCA edges `World::check_channel_edge` hands a node's MAC in one
/// call. A callback moves the reading only by starting a transmission, and
/// `start_tx` records that reading itself, so one edge settles it; debug
/// builds assert that it settled within this bound rather than drop a
/// further edge unseen.
const CCA_SETTLE_ROUNDS: usize = 4;

/// A complete simulated network.
pub struct World {
    phy: PhyConfig,
    /// `phy`'s thresholds in the linear domain, for the per-event paths.
    phy_linear: PhyLinear,
    /// `phy`'s fading fields, validated, and the per-arrival multiplier
    /// they imply as an inverse-CDF table.
    fading: fading::FadingTable,
    time: Time,
    sched: Scheduler,
    medium: Medium,
    radios: RadioBank,
    rngs: Vec<SmallRng>,
    macs: Vec<Option<Box<dyn Mac>>>,
    apps: Vec<NodeApp>,
    flows: Vec<Flow>,
    /// In-flight transmissions: pooled wire-byte buffers addressed by
    /// `TxId` (generation ‖ slot index), recycled when the air clears.
    pool: FramePool,
    stats: Stats,
    started: bool,
    seed: u64,
    /// Installed fault plan runtime state, if any.
    faults: Option<Box<FaultState>>,
    watchdog: WatchdogConfig,
    /// Recycled op buffers for MAC dispatch (dispatch can nest).
    ops_pool: Vec<Vec<Op>>,
    /// Each node's live receptions summed (audit and restore), reused.
    energy_sums: Vec<u128>,
    /// Shared per-process BER interpolation table for the grading hot path
    /// (immutable sampling of a pure function — cannot couple runs).
    ber_table: &'static BerTable,
    /// Table lookups performed while grading receptions.
    ber_lookups: u64,
    /// Lookups already published to the counter (the run_until tail syncs
    /// the delta, so partial runs stay consistent).
    synced_lookups: u64,
    /// Brackets of the decode probability (shared, immutable).
    gate: &'static gate::DrawGate,
    /// Decode draws the bracket settled, and those that needed
    /// [`grade_reception`]: host-side counts, in no artifact.
    decode_draws: (u64, u64),
    /// CCA edges seen, and those offered to a watching MAC: host-side
    /// counts, in no artifact.
    channel_edges: (u64, u64),
}

/// How many reception draws their bracket settled (`*_decided`) and how
/// many fell inside it and evaluated the exact probability (`*_exact`),
/// per gate ([`World::bracket_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BracketCounts {
    /// Preamble-lock draws settled without `preamble_success_prob`.
    pub lock_decided: u64,
    /// Preamble-lock draws that evaluated it.
    pub lock_exact: u64,
    /// Payload-decode draws settled without grading the profile.
    pub decode_decided: u64,
    /// Payload-decode draws that graded it.
    pub decode_exact: u64,
}

/// Step-by-step [`World`] construction: medium, PHY and seed. (A fault
/// plan and tracing are switched on on the built world, with
/// [`World::install_faults`] and [`World::enable_trace`].)
///
/// ```
/// use cmap_sim::{MediumBuilder, PhyConfig, World};
/// let phy = PhyConfig::default();
/// let medium = MediumBuilder::new(&phy).uniform(2, -70.0).build();
/// let mut world = World::builder().medium(medium).phy(phy).seed(42).build();
/// world.add_flow(0, 1, 1400);
/// ```
#[derive(Default)]
pub struct WorldBuilder {
    medium: Option<Medium>,
    phy: Option<PhyConfig>,
    seed: u64,
}

impl WorldBuilder {
    /// The propagation medium (required). Build one with
    /// [`MediumBuilder`](crate::MediumBuilder).
    pub fn medium(mut self, medium: Medium) -> Self {
        self.medium = Some(medium);
        self
    }

    /// PHY configuration; defaults to [`PhyConfig::default`].
    pub fn phy(mut self, phy: PhyConfig) -> Self {
        self.phy = Some(phy);
        self
    }

    /// Seed for every deterministic random stream (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the world. Panics when no medium was supplied.
    pub fn build(self) -> World {
        let medium = self.medium.expect("WorldBuilder: no medium configured");
        let phy = self.phy.unwrap_or_default();
        World::construct(medium, phy, self.seed)
    }
}

impl World {
    /// Start building a world (see [`WorldBuilder`]).
    pub fn builder() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// Build a world over `medium`; every node starts with a [`NullMac`].
    fn construct(medium: Medium, phy: PhyConfig, seed: u64) -> World {
        let n = medium.len();
        let fading = fading::FadingTable::new(
            phy.fading_sigma_db,
            phy.fading_boost_prob,
            phy.fading_boost_db,
        )
        .expect("PhyConfig's fading fields are valid");
        World {
            phy_linear: PhyLinear::new(&phy),
            fading,
            phy,
            time: 0,
            sched: Scheduler::new(),
            radios: RadioBank::new(n),
            rngs: (0..n).map(|i| stream_rng(seed, i as u64 + 1)).collect(),
            macs: (0..n)
                .map(|_| Some(Box::new(NullMac) as Box<dyn Mac>))
                .collect(),
            apps: (0..n).map(|_| NodeApp::default()).collect(),
            flows: Vec::new(),
            pool: FramePool::new(),
            stats: Stats::default(),
            medium,
            started: false,
            seed,
            faults: None,
            watchdog: WatchdogConfig::default(),
            ops_pool: Vec::new(),
            energy_sums: Vec::new(),
            ber_table: BerTable::shared(),
            ber_lookups: 0,
            synced_lookups: 0,
            gate: gate::DrawGate::shared(),
            decode_draws: (0, 0),
            channel_edges: (0, 0),
        }
    }

    /// Install a fault plan (and arm the invariant watchdog). Must be
    /// called before the first [`World::run_until`] starts the world. All
    /// fault randomness derives from the world seed via dedicated streams,
    /// so the per-node RNG streams — and therefore any fault-free parts of
    /// the run — are unperturbed.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        assert!(!self.started, "install_faults after start");
        self.faults = Some(Box::new(FaultState::new(
            plan,
            self.seed,
            self.medium.len(),
        )));
    }

    /// Transmissions whose pool slots are still held (in-flight frames).
    /// Must drain to ~zero when the air clears; the chaos soak asserts this.
    pub fn inflight_tx_count(&self) -> usize {
        self.pool.live()
    }

    /// Frame-pool slot recycle events (frees) so far.
    pub fn pool_recycled(&self) -> u64 {
        self.pool.recycled()
    }

    /// Most frame-pool slots ever claimed at once.
    pub fn pool_high_water(&self) -> usize {
        self.pool.high_water()
    }

    /// Total invariant-watchdog violations recorded so far (all
    /// `watchdog.*` counters summed). Zero on a healthy run, faults or not.
    pub fn watchdog_violations(&self) -> u64 {
        self.stats
            .counters_sorted()
            .iter()
            .filter(|(name, _)| name.starts_with("watchdog."))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.radios.len()
    }

    /// Install the MAC protocol for `node`. Must be called before the
    /// first [`World::run_until`] starts the world.
    pub fn set_mac(&mut self, node: impl Into<NodeId>, mac: Box<dyn Mac>) {
        assert!(!self.started, "set_mac after start");
        let node = node.into().index();
        self.radios
            .set_watches_edges(node, mac.wants_channel_edges());
        self.macs[node] = Some(mac);
    }

    /// Borrow a node's MAC for inspection (tests, experiment harnesses).
    pub fn mac_ref(&self, node: impl Into<NodeId>) -> &dyn Mac {
        self.macs[node.into().index()]
            .as_deref()
            .expect("mac taken during callback")
    }

    /// Declare a saturated flow; returns its id.
    pub fn add_flow(
        &mut self,
        src: impl Into<NodeId>,
        dst: impl Into<NodeId>,
        payload_len: usize,
    ) -> u16 {
        self.add_flow_kind(src.into(), dst.into(), payload_len, FlowKind::Saturated)
    }

    /// Declare a relay flow forwarding `upstream`'s deliveries from `src` on
    /// to `dst`; returns its id.
    pub fn add_relay_flow(
        &mut self,
        src: impl Into<NodeId>,
        dst: impl Into<NodeId>,
        payload_len: usize,
        upstream: u16,
    ) -> u16 {
        let (src, dst) = (src.into(), dst.into());
        assert_eq!(
            self.flows[upstream as usize].dst, src,
            "relay must start where the upstream flow ends"
        );
        self.add_flow_kind(src, dst, payload_len, FlowKind::Relay { upstream })
    }

    fn add_flow_kind(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload_len: usize,
        kind: FlowKind,
    ) -> u16 {
        assert!(!self.started, "add_flow after start");
        assert!(src.index() < self.node_count() && dst.index() < self.node_count());
        assert_ne!(src, dst);
        assert!(
            payload_len <= cmap_wire::view::compose::MAX_PAYLOAD_LEN,
            "payload_len {payload_len} exceeds the data frames' u16 length field (at most 65,535 bytes)"
        );
        let id = u16::try_from(self.flows.len()).expect("too many flows");
        self.flows.push(Flow {
            id,
            src,
            dst,
            payload_len,
            kind,
            next_seq: 0,
        });
        self.apps[src.index()].add_source(id, &kind);
        id
    }

    /// Flow descriptor by id.
    pub fn flow(&self, id: u16) -> &Flow {
        &self.flows[id as usize]
    }

    /// All flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The medium (for RSS queries in experiment harnesses).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Collected statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.sched.processed()
    }

    /// Deterministic per-event-kind dispatch counts (`(kind_name, count)`),
    /// which `benchmark/` reports as `sim.events.*`. A fixed-size array
    /// (no allocation).
    pub fn event_counts(&self) -> [(&'static str, u64); Event::KIND_COUNT] {
        let by_kind = self.sched.processed_by_kind();
        std::array::from_fn(|i| (Event::KIND_NAMES[i], by_kind[i]))
    }

    /// Interference segments graded so far (`phy.ber_table_lookup`): one
    /// per segment of every completed reception's payload span, whether or
    /// not the BER table had to be read to settle the draw.
    pub fn ber_lookups(&self) -> u64 {
        self.ber_lookups
    }

    /// Draws settled by their bracket against draws that evaluated the
    /// exact probability, since this world was built or restored. Plain
    /// host-side counters: in no statistic, digest or checkpoint.
    pub fn bracket_counts(&self) -> BracketCounts {
        let ((lock_decided, lock_exact), (decode_decided, decode_exact)) =
            (self.radios.lock_draws, self.decode_draws);
        BracketCounts {
            lock_decided,
            lock_exact,
            decode_decided,
            decode_exact,
        }
    }

    /// CCA edges seen at every node, and those offered to a MAC whose
    /// [`Mac::wants_channel_edges`] was `true` (the rest skip the callback),
    /// since this world was built or restored. Plain host-side counters: in
    /// no statistic, digest or checkpoint.
    pub fn channel_edges(&self) -> (u64, u64) {
        self.channel_edges
    }

    /// Enable structured tracing: protocol/engine decision points are
    /// recorded into a ring buffer of at most `capacity` records. Tracing
    /// observes the run without perturbing it — enabling it changes no
    /// behavioural statistics.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.stats.enable_trace(capacity);
    }

    /// Detach the trace sink (if tracing was enabled) for dumping.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.stats.take_trace()
    }

    /// Call every MAC's `on_start`. Idempotent guard: panics on double start.
    pub(crate) fn start(&mut self) {
        assert!(!self.started, "world already started");
        self.started = true;
        self.stats.ensure_flows(self.flows.len());
        // Fault actions and watchdog audits are only scheduled when a plan
        // is installed, so clean runs see an unchanged event stream.
        if let Some(f) = self.faults.as_deref() {
            for (idx, &(at, _)) in f.actions.iter().enumerate() {
                self.sched.schedule(at, Event::Fault { idx: idx as u32 });
            }
            self.sched
                .schedule(self.watchdog.audit_period, Event::Audit);
        }
        for i in 0..self.node_count() {
            let node = NodeId::new(i);
            self.dispatch(node, |mac, ctx| mac.on_start(ctx));
            self.check_channel_edge(node);
        }
    }

    /// Run the event loop until simulation time `t` (inclusive of events at
    /// `t`). Starts the world if not yet started.
    pub fn run_until(&mut self, t: Time) {
        if !self.started {
            self.start();
        }
        // Handling a stream's event yields the stream's next one, which
        // more often than not is the next event.
        let mut carry = None;
        while let Some(due) = self.sched.next(carry.take(), t) {
            let (Due::Event(at, _) | Due::Stream { at, .. }) = due;
            if at < self.time {
                // Event-time monotonicity violation: the watchdog records
                // it and the clock holds instead of running backwards.
                self.stats.bump(CounterId::WatchdogTimeRegress);
            } else {
                self.time = at;
            }
            match due {
                // The world files only timers, faults and audits; a transmission's events queue as its stream
                Due::Event(_, ev) => self.handle_event(ev),
                Due::Stream { slot, .. } => carry = self.handle_stream(slot),
            }
        }
        if t >= self.time {
            self.time = t;
        } else {
            // Caller asked to run *backwards* (or an event regression held
            // the clock past `t`): record it and hold, never rewind.
            self.stats.bump(CounterId::WatchdogTimeRegress);
        }
        // Publish the hot-path delta since the last sync as a deterministic
        // counter for reports.
        let look_d = self.ber_lookups - self.synced_lookups;
        self.synced_lookups = self.ber_lookups;
        if look_d > 0 {
            self.stats.add(CounterId::PhyBerTableLookup, look_d);
        }
        // Level readings at the (deterministic) stop point.
        self.stats
            .set_gauge(GaugeId::SimInflightTx, self.pool.live() as u64);
        self.stats
            .set_gauge(GaugeId::PoolFramesLive, self.pool.live() as u64);
        self.stats
            .set_gauge(GaugeId::PoolRecycled, self.pool.recycled());
        self.stats
            .set_gauge(GaugeId::PoolHighWater, self.pool.high_water() as u64);
        self.stats
            .set_gauge(GaugeId::SimSchedPending, self.sched.len() as u64);
        self.stats
            .set_gauge(GaugeId::SimSchedMaxOccupancy, self.sched.max_occupancy());
        let dropped = self.stats.trace().map_or(0, |tr| tr.dropped());
        self.stats.set_gauge(GaugeId::TraceDropped, dropped);
    }

    /// Handle one filed event.
    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Timer { node, token } => {
                self.dispatch(node, |mac, ctx| mac.on_timer(ctx, token));
                self.check_channel_edge(node);
            }
            Event::Fault { idx } => self.handle_fault(idx),
            Event::Audit => self.handle_audit(),
            Event::TxEnd { .. } | Event::FrameStart { .. } | Event::FrameEnd { .. } => {
                unreachable!("{ev:?} filed outside its transmission's stream")
            }
        }
    }

    /// Handle the next event of the stream in pool slot `slot`, and return
    /// the one after it as the run loop's carry: its key as
    /// [`World::start_tx`] reserved it, and whether it is of the kind just
    /// handled.
    fn handle_stream(&mut self, slot: usize) -> Option<(Time, u64, bool)> {
        let (tx_id, s) = self.pool.advance(slot);
        let row = self.medium.arrivals(s.node);
        let (f, j) = (row.len(), s.cursor as usize);
        let next = s
            .key(row, j + 1)
            .map(|(at, seq)| (at, seq, j + 1 != f && j != f));
        if j < f {
            let (src, link) = (s.node, row[j]);
            let rx = link.rx;
            self.sched.count_stream(&Event::FrameStart { rx, tx_id });
            let base_mw = match self.faults.as_deref_mut() {
                Some(f) => link.rss_mw * db_to_ratio(f.link_offset_db(src, rx, self.time)),
                None => link.rss_mw,
            };
            let rng = &mut self.rngs[rx.index()];
            let mut power_mw = base_mw;
            if self.fading.boost_prob() > 0.0 && rng.gen_bool(self.fading.boost_prob()) {
                power_mw *= self.fading.boost_ratio();
            }
            if self.fading.draws() {
                power_mw *= self.fading.mult(rng.gen::<u64>());
            }
            let (outcome, heard) = self.radios.frame_start(
                rx.index(),
                tx_id,
                power_mw,
                self.time,
                &self.phy_linear,
                &mut self.rngs[rx.index()],
            );
            self.pool.powers(tx_id).push(heard);
            if heard == FIXED_MAX {
                self.stats.bump(CounterId::WatchdogRadioState);
            }
            match outcome {
                LockOutcome::Locked => self.stats.bump(CounterId::SimLock),
                LockOutcome::Captured { .. } => self.stats.bump(CounterId::SimCapture),
                LockOutcome::Interference => {}
            }
            self.check_channel_edge(rx);
        } else if j == f {
            let node = s.node;
            self.sched.count_stream(&Event::TxEnd { node, tx_id });
            if !self.radios.end_tx(node.index()) {
                self.stats.bump(CounterId::WatchdogRadioState);
            }
            self.pool.release(tx_id);
            self.dispatch(node, |mac, ctx| mac.on_tx_done(ctx));
            self.check_channel_edge(node);
        } else {
            let rx = row[j - f - 1].rx;
            self.sched.count_stream(&Event::FrameEnd { rx, tx_id });
            let heard = self.pool.powers(tx_id)[j - f - 1];
            let (completion, held) = self.radios.frame_end(rx.index(), tx_id, heard, self.time);
            if !held {
                self.stats.bump(CounterId::WatchdogRadioState);
            }
            if let Some(completion) = completion {
                self.grade_and_deliver(rx, completion);
            }
            self.pool.release(tx_id);
            self.check_channel_edge(rx);
        }
        next
    }

    fn handle_fault(&mut self, idx: u32) {
        let f = self.faults.as_deref().expect("fault event without plan");
        let (_, action) = f.actions[idx as usize];
        match action {
            FaultAction::NodeDown(node) => {
                self.power_off(node);
                self.faults.as_deref_mut().expect("checked").node_up[node.index()] = false;
                self.stats.bump(CounterId::FaultNodeDown);
                self.trace_fault("node_down", node);
            }
            FaultAction::NodeUp(node) => {
                self.radios.power_on(node.index());
                let f = self.faults.as_deref_mut().expect("checked");
                f.node_up[node.index()] = true;
                f.last_dispatch[node.index()] = self.time;
                self.stats.bump(CounterId::FaultNodeUp);
                self.trace_fault("node_up", node);
                self.dispatch(node, |mac, ctx| mac.on_restart(ctx));
                self.check_channel_edge(node);
            }
            FaultAction::LockupStart(node) => {
                self.power_off(node);
                self.stats.bump(CounterId::FaultLockup);
                self.trace_fault("lockup", node);
                // The MAC keeps running and observes carrier stuck busy.
                self.check_channel_edge(node);
            }
            FaultAction::LockupEnd(node) => {
                self.radios.power_on(node.index());
                self.stats.bump(CounterId::FaultLockupEnd);
                self.trace_fault("lockup_end", node);
                // Busy -> idle recovery edge wakes carrier-waiting MACs.
                self.check_channel_edge(node);
            }
        }
    }

    /// `node`'s radio goes deaf, its lock, total and held powers forgotten.
    fn power_off(&mut self, node: NodeId) {
        if self.radios.power_off(node.index()) {
            self.stats.bump(CounterId::FaultRxDropped);
        }
        let forget = |rx, power: &mut u128| *power = if rx == node { 0 } else { *power };
        self.pool.receptions(&mut self.medium, forget);
    }

    fn trace_fault(&mut self, kind: &'static str, node: NodeId) {
        if self.stats.trace_enabled() {
            self.stats.emit(
                self.time,
                TraceEvent::FaultInjected {
                    kind,
                    node: u32::try_from(node.index()).unwrap_or(u32::MAX),
                },
            );
        }
    }

    /// Sum each node's live receptions (each ≤ 2¹⁰⁷, < 2²⁰ of them).
    fn sum_receptions(&mut self) {
        let sums = &mut self.energy_sums;
        sums.clear();
        sums.resize(self.radios.len(), 0);
        let add = |rx: NodeId, power: &mut u128| sums[rx.index()] += *power;
        self.pool.receptions(&mut self.medium, add);
    }

    fn handle_audit(&mut self) {
        self.sum_receptions();
        for node in 0..self.node_count() {
            let held = self.energy_sums[node] == self.radios.energy(node);
            if !held || !self.radios.invariants_ok(node) {
                self.stats.bump(CounterId::WatchdogRadioState);
            }
        }
        // MAC liveness: an up node with pending data must have had *some*
        // callback within the window (the longest legitimate quiet period —
        // CMAP's retransmission wait — tops out near 0.5 s).
        let mut stalled = 0u64;
        if let Some(f) = self.faults.as_deref() {
            for node in 0..self.node_count() {
                if f.node_up[node]
                    && self.time.saturating_sub(f.last_dispatch[node])
                        > self.watchdog.liveness_window
                    && self.apps[node].has_data(&self.flows)
                {
                    stalled += 1;
                }
            }
        }
        if stalled > 0 {
            self.stats.add(CounterId::WatchdogStalled, stalled);
        }
        self.sched
            .schedule(self.time + self.watchdog.audit_period, Event::Audit);
    }

    fn grade_and_deliver(&mut self, rx: NodeId, c: RxLock) {
        let rate = self.pool.rate_of(c.tx_id);
        let wire_len = self.pool.wire_len(c.tx_id);
        // The draw `gen_bool(p_success)` makes, taken first: the profile
        // is only graded when it falls inside the bracket around p_success.
        let unit: f64 = self.rngs[rx.index()].gen();
        let (settled, segments) = decode_decision(
            &c,
            self.time,
            rate,
            wire_len,
            &self.phy_linear,
            self.gate,
            unit,
        );
        self.ber_lookups += segments;
        let exact = || {
            let (p_success, graded) = grade_reception(
                &c,
                self.time,
                rate,
                wire_len,
                &self.phy_linear,
                self.ber_table,
            );
            debug_assert_eq!(graded, segments);
            unit < p_success.clamp(0.0, 1.0)
        };
        let decoded = match settled {
            Some(decoded) => {
                self.decode_draws.0 += 1;
                debug_assert_eq!(decoded, exact(), "decode bracket, draw {unit:e}: {c:?}");
                decoded
            }
            None => {
                self.decode_draws.1 += 1;
                exact()
            }
        };
        // Fault injection: a decoded frame may be corrupted (CRC escape
        // caught late) or delivered twice (duplication). Draws come from a
        // dedicated stream and only when the plan asks, so fault-free runs
        // consume no extra randomness.
        let corrupted = decoded
            && match self.faults.as_deref_mut() {
                Some(f) if f.plan.corrupt_prob > 0.0 => f.corrupt_rng.gen_bool(f.plan.corrupt_prob),
                _ => false,
            };
        if corrupted {
            self.stats.bump(CounterId::FaultCorrupted);
        }
        if decoded && !corrupted {
            self.stats.bump(CounterId::SimRxOk);
            let info = RxInfo {
                signal_mw: c.signal_mw,
                start: c.lock_time,
                end: self.time,
                rate,
            };
            // Move the bytes out of the slot for the duration of the
            // callback: the MAC may itself claim a pool slot (e.g. to
            // compose an ACK), which must not alias the frame it is
            // reading. The slot stays live, so its index cannot be reused.
            let buf = self.pool.take_buf(c.tx_id);
            let view = FrameView::parse(&buf).expect("pool frames are engine-composed");
            self.dispatch(rx, |mac, ctx| mac.on_rx_frame(ctx, &view, info));
            let duplicated = match self.faults.as_deref_mut() {
                Some(f) if f.plan.dup_frame_prob > 0.0 => {
                    f.corrupt_rng.gen_bool(f.plan.dup_frame_prob)
                }
                _ => false,
            };
            if duplicated {
                self.stats.bump(CounterId::FaultDupDelivered);
                self.dispatch(rx, |mac, ctx| mac.on_rx_frame(ctx, &view, info));
            }
            self.pool.put_buf(c.tx_id, buf);
        } else {
            self.stats.bump(CounterId::SimRxFail);
            let err = RxErrorInfo {
                start: c.lock_time,
                end: self.time,
                signal_mw: c.signal_mw,
            };
            self.dispatch(rx, |mac, ctx| mac.on_rx_error(ctx, err));
        }
        // The interference profile buffer goes back to the radio for the
        // next lock — grading is the hottest allocation site otherwise.
        self.radios.recycle_profile(rx.index(), c.interference);
    }

    /// Run `f` against `node`'s MAC with a fresh context, then apply the
    /// operations it queued.
    fn dispatch<F: FnOnce(&mut dyn Mac, &mut NodeCtx<'_>)>(&mut self, node: NodeId, f: F) {
        if !self.admit(node) {
            return;
        }
        let mut mac = self.macs[node.index()].take().expect("mac reentrancy");
        let mut ops: Vec<Op> = self.ops_pool.pop().unwrap_or_default();
        {
            let mut ctx = NodeCtx {
                node,
                now: self.time,
                phase: self.radios.phase(node.index()),
                busy: self.radios.busy(node.index(), &self.phy_linear),
                mac_addr: MacAddr::from_node_index(node.index() as u16),
                abort_rx_on_tx: self.phy.abort_rx_on_tx,
                tx_requested: false,
                radio_ok: !self.radios.is_disabled(node.index()),
                rng: &mut self.rngs[node.index()],
                pool: &mut self.pool,
                app: &mut self.apps[node.index()],
                flows: &mut self.flows,
                stats: &mut self.stats,
                ops: &mut ops,
            };
            f(&mut *mac, &mut ctx);
        }
        // A MAC's state changes only inside a callback.
        self.radios
            .set_watches_edges(node.index(), mac.wants_channel_edges());
        self.macs[node.index()] = Some(mac);
        self.apply_ops(node, &mut ops);
        ops.clear();
        self.ops_pool.push(ops);
    }

    /// The fault bookkeeping of a dispatch, also done for a skipped CCA
    /// edge: `true` if the node is up, its liveness stamped. A crashed
    /// node's MAC gets no callbacks; pending timers from before the crash
    /// are swallowed here.
    fn admit(&mut self, node: NodeId) -> bool {
        if let Some(fs) = self.faults.as_deref_mut() {
            if !fs.node_up[node.index()] {
                self.stats.bump(CounterId::FaultDispatchSuppressed);
                return false;
            }
            fs.last_dispatch[node.index()] = self.time;
        }
        true
    }

    fn apply_ops(&mut self, node: NodeId, ops: &mut [Op]) {
        // Transmissions first: a deliver below may recursively wake a relay
        // MAC at this same node, and the radio must already reflect the
        // transmission this callback requested (e.g. an ACK) so the relay's
        // transmit attempt fails cleanly instead of double-transmitting.
        for op in ops.iter() {
            if let Op::Timer { at, token } = op {
                // Clock-skew fault: this node's timer delays stretch by its
                // configured ppm (frame timing is unaffected — skew models
                // the MAC's oscillator, not the medium).
                let at = match self.faults.as_deref() {
                    Some(f) => self.time + f.skew_delay(node, at.saturating_sub(self.time)),
                    None => *at,
                };
                self.sched.schedule(
                    at,
                    Event::Timer {
                        node,
                        token: *token,
                    },
                );
            }
        }
        for op in ops.iter() {
            if let Op::StartTx { tx_id, rate } = op {
                self.start_tx(node, *tx_id, *rate);
            }
        }
        for op in ops.iter() {
            if let Op::Deliver { flow, flow_seq } = op {
                self.handle_deliver(node, *flow, *flow_seq);
            }
        }
    }

    fn start_tx(&mut self, node: NodeId, tx_id: TxId, rate: Rate) {
        if self.radios.is_disabled(node.index()) {
            // `NodeCtx::transmit_with` already gates on this; belt-and-braces
            // so a fault landing between callback and apply can't raise a
            // dead node's antenna.
            self.stats.bump(CounterId::FaultTxBlocked);
            self.pool.free_unsent(tx_id);
            return;
        }
        debug_assert!(
            self.radios.phase(node.index()) != RadioPhase::Transmitting,
            "start_tx while transmitting"
        );
        // The MAC already composed the wire bytes into the pool slot;
        // debug builds check every transmitted frame the way a hostile
        // one would be (structure and CRC).
        debug_assert!(
            FrameView::parse_checked(self.pool.buf(tx_id)).is_ok(),
            "composed frame fails the checked parser"
        );
        let wire_len = self.pool.wire_len(tx_id);
        let airtime = rate.frame_airtime_ns(wire_len);
        if !self.radios.begin_tx(node.index(), tx_id) {
            // Half-duplex violation: refuse the transmission and record it
            // rather than corrupting the radio state machine.
            self.stats.bump(CounterId::WatchdogHalfDuplex);
            self.pool.free_unsent(tx_id);
            return;
        }
        // No notification for our own busy edge: the MAC knows it started
        // transmitting. Keep the cached flag consistent so the TxEnd edge
        // (busy -> idle) is seen.
        let busy = self.radios.busy(node.index(), &self.phy_linear);
        self.radios.set_last_busy(node.index(), busy);

        let end = self.time + airtime;
        // The sequence numbers filing everything now would hand out: our
        // own TxEnd, then a FrameStart/FrameEnd pair per `reachable`
        // position. The stream queues under its first event's.
        let row = self.medium.arrivals(node);
        let fanout = row.len() as u32;
        let seq0 = self.sched.reserve(1 + 2 * u64::from(fanout));
        // One release per receiver FrameEnd plus one for our own TxEnd —
        // the record drains exactly when the air is clear everywhere.
        let stream = self
            .pool
            .arm(tx_id, node, rate, (self.time, end), seq0, 1 + fanout);
        let (at, seq) = stream.key(row, 0).expect("every stream has a TxEnd");
        let entries = if fanout > 0 { 3 } else { 1 };
        self.sched.start_stream(at, seq, index_of(tx_id), entries);
        if self.stats.trace_enabled() {
            let kind = FrameKind::from_u8(self.pool.buf(tx_id)[0])
                .expect("composed frame has a valid tag");
            self.stats.emit(
                self.time,
                TraceEvent::TxStart {
                    node: u32::try_from(node.index()).unwrap_or(u32::MAX),
                    kind: frame_kind_tag(kind),
                    bytes: u32::try_from(wire_len).unwrap_or(u32::MAX),
                    rate_mbps: u32::try_from(rate.bits_per_sec() / 1_000_000).unwrap_or(u32::MAX),
                },
            );
        }
        self.stats.bump(CounterId::SimTx);
    }

    fn handle_deliver(&mut self, node: NodeId, flow: u16, seq: u32) {
        if flow as usize >= self.flows.len() {
            self.stats.bump(CounterId::SimUnknownFlow);
            return;
        }
        if self.flows[flow as usize].dst != node {
            self.stats.bump(CounterId::SimMisdelivered);
            return;
        }
        if !self.stats.record_delivery(flow, seq, self.time) {
            return; // duplicate: don't re-feed relays
        }
        let relay_ids: Vec<u16> = self
            .flows
            .iter()
            .filter(|g| {
                g.src == node && matches!(g.kind, FlowKind::Relay { upstream } if upstream == flow)
            })
            .map(|g| g.id)
            .collect();
        let mut wake = false;
        for rid in relay_ids {
            if self.apps[node.index()].push_relay(rid, seq) {
                wake = true;
            }
        }
        if wake {
            self.dispatch(node, |mac, ctx| mac.on_packet_queued(ctx));
            self.check_channel_edge(node);
        }
    }

    /// Fire `on_channel_state` edges until the node's CCA stabilises. An
    /// edge the MAC does not watch gets only `admit`'s bookkeeping, and no
    /// callback ran that could move the reading.
    fn check_channel_edge(&mut self, node: NodeId) {
        let n = node.index();
        for _ in 0..CCA_SETTLE_ROUNDS {
            let busy = self.radios.busy(n, &self.phy_linear);
            if busy == self.radios.last_busy(n) {
                return;
            }
            self.radios.set_last_busy(n, busy);
            self.channel_edges.0 += 1;
            if !self.radios.watches_edges(n) {
                self.admit(node);
                return;
            }
            self.channel_edges.1 += 1;
            self.dispatch(node, |mac, ctx| mac.on_channel_state(ctx, busy));
        }
        debug_assert_eq!(
            self.radios.busy(n, &self.phy_linear),
            self.radios.last_busy(n),
            "node {n}'s CCA reading did not settle within {CCA_SETTLE_ROUNDS} edges"
        );
    }

    // ---- cmap-ckpt/v8 ---------------------------------------------------

    /// Serialize the complete mid-run state to the versioned `cmap-ckpt/v8`
    /// format: simulation clock, pending events, radio bank, RNG
    /// stream positions, MAC protocol state, in-flight transmissions,
    /// statistics, and fault-plan cursors. Restoring the bytes via
    /// [`World::restore`] into an identically-configured world continues
    /// the run **byte-identically** to never having stopped.
    ///
    /// Only callable between [`World::run_until`] calls on a started world;
    /// configuration (medium, PHY, flows, MAC types, fault plan, watchdog)
    /// is *not* captured — the restoring process rebuilds it and the
    /// checkpoint validates that it matches.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CkptError> {
        if !self.started {
            return Err(CkptError::Mismatch(
                "checkpoint of a world that never started".to_string(),
            ));
        }
        // The trace sink is outside the versioned format, and silently
        // dropping it would break the byte-identity contract.
        if self.stats.trace_enabled() {
            return Err(CkptError::Mismatch(
                "stats with an attached trace sink cannot be checkpointed".to_string(),
            ));
        }
        let mut w = CkptWriter::new();
        // Configuration echo, validated on restore. The medium's
        // structural fingerprint makes a checkpoint refuse a world
        // whose propagation engine or link set differs from the one it
        // was taken under.
        w.put(&self.seed);
        w.put(&self.node_count());
        w.put(&self.flows);
        w.put(&(self.watchdog.audit_period, self.watchdog.liveness_window));
        w.put(&self.medium.fingerprint());
        w.put(&self.fault_plan());
        // Dynamic engine state. The pool's high water is its slot-array
        // length, so restore rebuilds an identically-shaped free list.
        w.put(&self.time);
        w.put(&(self.pool.high_water(), self.pool.recycled()));
        w.put(&self.ber_lookups);
        // The filed events; each transmission's are its record's cursor.
        w.put(&self.sched);
        w.put(&self.radios);
        // One record per node and no count: the echo carried it.
        for rng in &self.rngs {
            w.put(rng);
        }
        for app in &self.apps {
            w.put(app);
        }
        // A sequence in slot order, written as the pool yields it.
        w.len(self.pool.live());
        for tx in self.pool.live_txs() {
            w.put(&tx);
        }
        w.put(&self.stats);
        if let Some(f) = self.faults.as_deref() {
            f.ckpt_save(&mut w);
        }
        // Per-MAC protocol state, length-framed so each MAC only sees its
        // own blob.
        let mut blob = Vec::new();
        for (node, mac) in self.macs.iter().enumerate() {
            blob.clear();
            mac.as_deref()
                .unwrap_or_else(|| panic!("mac {node} taken during checkpoint"))
                .save_state(&mut blob);
            w.bytes(&blob);
        }
        Ok(w.finish())
    }

    /// Refuse filed events this world cannot run: a transmission's (those
    /// are its stream's), a timer for no node, a fault the plan lacks.
    fn check_filed(&self) -> Result<(), CkptError> {
        let actions = self.faults.as_deref().map_or(0, |f| f.actions.len());
        let runnable = |ev: &Event| match *ev {
            Event::Timer { node, .. } => node.index() < self.node_count(),
            Event::Fault { idx } => (idx as usize) < actions,
            Event::Audit => true,
            Event::TxEnd { .. } | Event::FrameStart { .. } | Event::FrameEnd { .. } => false,
        };
        match self.sched.filed_events().find(|ev| !runnable(ev)) {
            Some(ev) => Err(CkptError::Malformed(format!("filed event {ev:?}"))),
            None => Ok(()),
        }
    }

    /// Queue each restored transmission under its next event's key, as
    /// the entries a queue filing its `TxEnd`, next `FrameStart` and next
    /// `FrameEnd` would hold, and hold each radio's `TX` flag to them: set
    /// exactly while its node has one `TxEnd` pending.
    fn requeue_streams(&mut self) -> Result<(), CkptError> {
        let mut sending = vec![0; self.node_count()];
        self.sched.reserve_streams(self.pool.live());
        for (tx_id, s) in self.pool.streams() {
            let row = self.medium.arrivals(s.node);
            let (f, c) = (row.len(), s.cursor as usize);
            let (at, seq) = s.key(row, c).expect("a restored cursor names an event");
            let entries = usize::from(c < f) + usize::from(c <= f) + usize::from(f > 0);
            self.sched.start_stream(at, seq, index_of(tx_id), entries);
            sending[s.node.index()] += usize::from(c <= f);
        }
        let transmitting = |node| usize::from(self.radios.phase(node) == RadioPhase::Transmitting);
        match (0..sending.len()).find(|&node| sending[node] != transmitting(node)) {
            Some(node) => Err(CkptError::Malformed(format!(
                "radio {node}: transmit flag beside {} pending TxEnds",
                sending[node]
            ))),
            None => Ok(()),
        }
    }

    /// The installed fault plan (the config echo's view).
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.as_deref().map(|f| f.plan.clone())
    }

    /// Restore a [`World::checkpoint`] into this world, which must be
    /// configured identically (same medium/PHY/seed, same flows, same MAC
    /// types, same fault plan and watchdog) and **not yet started**. On
    /// success the world is mid-run exactly as the checkpointed one was;
    /// continue with [`World::run_until`], which does not start it again:
    /// the restored queue already carries every pending event.
    ///
    /// On error the world may be partially overwritten and must be
    /// discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        if self.started {
            return Err(CkptError::Mismatch(
                "restore into an already-started world".to_string(),
            ));
        }
        let mut r = CkptReader::new(bytes)?;
        // The configuration echo is compared against this world, not
        // loaded into it: only a flow's sequence cursor is dynamic.
        echo(&mut r, "seed", &self.seed)?;
        echo(&mut r, "node count", &self.node_count())?;
        let flows: Vec<Flow> = r.get()?;
        if flows.len() != self.flows.len() {
            return Err(CkptError::Mismatch(format!(
                "checkpoint has {} flows, world has {}",
                flows.len(),
                self.flows.len()
            )));
        }
        for (ours, saved) in self.flows.iter_mut().zip(flows) {
            if (
                saved.id,
                saved.src,
                saved.dst,
                saved.payload_len,
                saved.kind,
            ) != (ours.id, ours.src, ours.dst, ours.payload_len, ours.kind)
            {
                return Err(CkptError::Mismatch(format!(
                    "flow {} configuration differs from checkpoint",
                    ours.id
                )));
            }
            ours.next_seq = saved.next_seq;
        }
        echo(
            &mut r,
            "watchdog configuration",
            &(self.watchdog.audit_period, self.watchdog.liveness_window),
        )?;
        echo(&mut r, "medium fingerprint", &self.medium.fingerprint())?;
        echo(&mut r, "fault plan", &self.fault_plan())?;
        self.time = r.get()?;
        let (pool_high_water, pool_recycled) = r.get()?;
        self.ber_lookups = r.get()?;
        // A checkpoint is taken where `run_until` published every lookup.
        self.synced_lookups = self.ber_lookups;
        self.sched = r.get()?;
        self.check_filed()?;
        self.radios = r.get()?;
        if self.radios.len() != self.node_count() {
            return Err(CkptError::Mismatch(format!(
                "checkpoint has {} radios, world has {}",
                self.radios.len(),
                self.node_count()
            )));
        }
        for rng in &mut self.rngs {
            *rng = r.get()?;
        }
        for app in &mut self.apps {
            app.restore(r.get()?)?;
        }
        let live: Vec<LiveTx<'_>> = r.get()?;
        let (nodes, medium) = (self.node_count(), &self.medium);
        // Every key a stream will take was reserved before the image's
        // next sequence number.
        let next_seq = self.sched.reserve(0);
        let fanout = |tx: &LiveTx<'_>| {
            let f = (tx.node.index() < nodes).then(|| medium.reachable(tx.node).len())?;
            (tx.seq0.saturating_add(2 * f as u64) < next_seq).then_some(f as u32)
        };
        self.pool = FramePool::restore(pool_high_water, pool_recycled, live, fanout)?;
        self.requeue_streams()?;
        self.sum_receptions();
        if let Some(node) = (0..nodes).find(|&n| self.energy_sums[n] != self.radios.energy(n)) {
            return Err(CkptError::Malformed(format!(
                "radio {node}: energy off its receptions"
            )));
        }
        self.stats = r.get()?;
        if let Some(f) = self.faults.as_deref_mut() {
            f.ckpt_load(&mut r)?;
        }
        for node in 0..self.node_count() {
            let blob = r.bytes()?;
            let mac = self.macs[node]
                .as_deref_mut()
                .unwrap_or_else(|| panic!("mac {node} taken during restore"));
            mac.load_state(blob)
                .map_err(|e| CkptError::Mismatch(format!("node {node} MAC state: {e}")))?;
            self.radios
                .set_watches_edges(node, mac.wants_channel_edges());
        }
        r.expect_end()?;
        // Mid-run: `start` must never fire again (the restored queue
        // already carries the fault schedule, audits and MAC timers).
        self.started = true;
        self.stats.ensure_flows(self.flows.len());
        Ok(())
    }
}

persist!(enum FlowKind { 0 => Saturated, 1 => Relay { upstream } });

persist!(struct Flow { id, src, dst, payload_len, kind, next_seq });

/// Read one value of the configuration echo and require that it equals
/// this world's.
fn echo<T: Persist + PartialEq + std::fmt::Debug>(
    r: &mut CkptReader<'_>,
    what: &str,
    ours: &T,
) -> Result<(), CkptError> {
    let saved: T = r.get()?;
    if saved == *ours {
        Ok(())
    } else {
        Err(CkptError::Mismatch(format!(
            "checkpoint {what} {saved:?} != world {ours:?}"
        )))
    }
}

/// Stable snake_case tag for a frame kind (the trace `kind` field).
const fn frame_kind_tag(k: FrameKind) -> &'static str {
    match k {
        FrameKind::CmapHeader => "cmap_header",
        FrameKind::CmapTrailer => "cmap_trailer",
        FrameKind::CmapData => "cmap_data",
        FrameKind::CmapAck => "cmap_ack",
        FrameKind::CmapInterfererList => "cmap_interferer_list",
        FrameKind::Dot11Data => "dot11_data",
        FrameKind::Dot11Ack => "dot11_ack",
    }
}

/// The piecewise-constant interference `profile` clipped to the payload
/// span: `(overlap, level)` of every segment with time in it.
fn payload_segments(
    profile: &[(Time, f64)],
    payload_start: Time,
    frame_end: Time,
) -> impl Iterator<Item = (Time, f64)> + '_ {
    profile
        .iter()
        .enumerate()
        .filter_map(move |(i, &(seg_start, level))| {
            let seg_end = profile.get(i + 1).map_or(frame_end, |&(t, _)| t);
            let lo = seg_start.max(payload_start);
            let hi = seg_end.min(frame_end);
            (hi > lo).then(|| (hi - lo, level))
        })
}

/// Information bits of a PSDU of `psdu_len` bytes, as graded.
fn graded_bits(psdu_len: usize) -> f64 {
    (cmap_phy::SERVICE_BITS + 8 * psdu_len as u64 + cmap_phy::TAIL_BITS) as f64
}

/// Probability that the payload of a locked frame decodes, given the
/// interference profile recorded during reception, plus the number of
/// interference segments graded (one BER table lookup each).
///
/// The frame's information bits are spread uniformly over the payload span
/// (lock + preamble/SIGNAL to frame end); each piecewise-constant
/// interference segment contributes its share of bits at its own SINR.
fn grade_reception(
    c: &RxLock,
    frame_end: Time,
    rate: Rate,
    psdu_len: usize,
    phy: &PhyLinear,
    table: &BerTable,
) -> (f64, u64) {
    let payload_start = c.lock_time + PLCP_PREAMBLE_NS + PLCP_SIG_NS;
    if frame_end <= payload_start {
        return (1.0, 0); // degenerate: nothing beyond the already-decoded SIGNAL
    }
    let span = (frame_end - payload_start) as f64;
    let total_bits = graded_bits(psdu_len);
    let noise = phy.noise_mw;

    let mut ln_p = 0.0_f64;
    let mut lookups = 0u64;
    for (overlap, level) in payload_segments(&c.interference, payload_start, frame_end) {
        let bits = total_bits * overlap as f64 / span;
        let sinr = c.signal_mw / (noise + level);
        let ber = table.ber(sinr, rate);
        lookups += 1;
        ln_p += bits * (-ber).ln_1p();
    }
    (ln_p.exp(), lookups)
}

/// What the draw `unit` settles about `unit < grade_reception(..).0`
/// without grading: `Some(decoded)` when it falls outside the bracket the
/// profile's strongest and weakest interference level put around that
/// probability, `None` when it falls inside, the SINR is off the gate's
/// grid, or the profile does not cover the payload span exactly (the
/// bracket needs the segments' bits to sum to the total). Also the number
/// of segments [`grade_reception`] grades.
fn decode_decision(
    c: &RxLock,
    frame_end: Time,
    rate: Rate,
    psdu_len: usize,
    phy: &PhyLinear,
    gate: &gate::DrawGate,
    unit: f64,
) -> (Option<bool>, u64) {
    let payload_start = c.lock_time + PLCP_PREAMBLE_NS + PLCP_SIG_NS;
    if frame_end <= payload_start {
        return (Some(unit < 1.0), 0);
    }
    let (mut segments, mut covered) = (0u64, 0);
    let (mut quiet, mut loud) = (f64::INFINITY, f64::NEG_INFINITY);
    for (overlap, level) in payload_segments(&c.interference, payload_start, frame_end) {
        segments += 1;
        covered += overlap;
        quiet = quiet.min(level);
        loud = loud.max(level);
    }
    if covered != frame_end - payload_start {
        return (None, segments);
    }
    let noise = phy.noise_mw;
    let bracket = gate.decode_bracket(
        rate,
        c.signal_mw / (noise + loud),
        c.signal_mw / (noise + quiet),
        graded_bits(psdu_len),
    );
    (bracket.and_then(|b| gate::decide(b, unit)), segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{micros, millis};
    use std::collections::BTreeMap;

    /// A MAC that transmits one Dot11 data frame per timer tick, forever —
    /// composing straight into the pool buffer (the hot path).
    struct Blaster {
        dst: MacAddr,
        period: Time,
        payload: usize,
        sent: u64,
    }

    impl Mac for Blaster {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            let (src, dst) = (ctx.mac_addr(), self.dst);
            let (seq, flow_seq) = (self.sent as u16, self.sent as u32);
            let payload = self.payload;
            let ok = ctx.transmit_with(Rate::R6, |buf| {
                cmap_wire::view::compose::dot11_data(
                    buf, src, dst, seq, false, 0, 0, flow_seq, payload, 0xC5,
                );
            });
            if ok {
                self.sent += 1;
            }
            ctx.set_timer(self.period, 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn save_state(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.sent.to_le_bytes());
        }
        fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
            self.sent = u64::from_le_bytes(bytes.try_into().map_err(|_| "sent: 8 bytes")?);
            Ok(())
        }
    }

    /// A MAC that counts every frame and error it sees.
    #[derive(Default)]
    struct Sniffer {
        frames: u64,
        errors: u64,
        busy_edges: u64,
    }

    impl Mac for Sniffer {
        fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
        fn on_rx_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &FrameView<'_>, _info: RxInfo) {
            self.frames += 1;
            if let FrameView::Dot11Data(d) = frame {
                if d.dst() == ctx.mac_addr() {
                    ctx.deliver(d.flow(), d.flow_seq());
                }
            }
        }
        fn on_rx_error(&mut self, _ctx: &mut NodeCtx<'_>, _err: RxErrorInfo) {
            self.errors += 1;
        }
        fn on_channel_state(&mut self, _ctx: &mut NodeCtx<'_>, busy: bool) {
            if busy {
                self.busy_edges += 1;
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn strong_pair_world(seed: u64) -> World {
        let phy = PhyConfig::default();
        // -55 dBm RSS: clean
        let medium = crate::medium::MediumBuilder::new(&phy)
            .uniform(2, -70.0)
            .build();
        World::builder().medium(medium).phy(phy).seed(seed).build()
    }

    fn uniform_world(n: usize, seed: u64) -> World {
        let phy = PhyConfig::default();
        let medium = crate::medium::MediumBuilder::new(&phy)
            .uniform(n, -70.0)
            .build();
        World::builder().medium(medium).phy(phy).seed(seed).build()
    }

    /// What one arrival costs the receiver's stream: a word for the boost
    /// decision when one is possible, a word for the multiplier when σ > 0,
    /// nothing else. The link sits 9 dB under the lock threshold, so no
    /// arrival gets as far as a lock draw.
    #[test]
    fn an_arrival_draws_one_word_per_fading_decision_it_has_to_make() {
        for (sigma_db, boost_prob, words_per_arrival) in
            [(0.5, 0.0, 1), (0.5, 0.5, 2), (0.0, 0.5, 1), (0.0, 0.0, 0)]
        {
            let phy = PhyConfig {
                fading_sigma_db: sigma_db,
                fading_boost_prob: boost_prob,
                fading_boost_db: 1.0,
                ..PhyConfig::default()
            };
            let medium = crate::medium::MediumBuilder::new(&phy)
                .uniform(2, -119.0)
                .build();
            let mut w = World::builder().medium(medium).phy(phy).seed(5).build();
            w.set_mac(
                0,
                Box::new(Blaster {
                    dst: MacAddr::from_node_index(1),
                    period: millis(2),
                    payload: 100,
                    sent: 0,
                }),
            );
            w.run_until(millis(21));
            let start_idx = Event::KIND_NAMES
                .iter()
                .position(|k| *k == "frame_start")
                .expect("a FrameStart kind");
            let arrivals = w.sched.processed_by_kind()[start_idx];
            assert_eq!(arrivals, 10, "one FrameStart per frame sent");
            assert_eq!(w.stats().counter(CounterId::SimLock), 0);
            let mut twin = stream_rng(5, 2);
            for _ in 0..arrivals * words_per_arrival {
                twin.gen::<u64>();
            }
            assert_eq!(
                w.rngs[1].gen::<u64>(),
                twin.gen::<u64>(),
                "σ {sigma_db}, boost probability {boost_prob}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fading_boost_prob")]
    fn a_bad_fading_field_fails_the_build_by_name() {
        let phy = PhyConfig {
            fading_boost_prob: 1.5,
            ..PhyConfig::default()
        };
        let medium = crate::medium::MediumBuilder::new(&phy)
            .uniform(2, -70.0)
            .build();
        World::builder().medium(medium).phy(phy).build();
    }

    #[test]
    fn clean_link_delivers_everything() {
        let mut w = strong_pair_world(1);
        let flow = w.add_flow(0, 1, 100);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(2),
                payload: 100,
                sent: 0,
            }),
        );
        w.set_mac(1, Box::new(Sniffer::default()));
        w.run_until(crate::time::secs(1));
        // ~500 frames sent; all should arrive on a -55 dBm link.
        let sent = w
            .mac_ref(0)
            .as_any()
            .downcast_ref::<Blaster>()
            .unwrap()
            .sent;
        assert!((450..=500).contains(&(sent as usize)), "{sent}");
        let got = w.stats().flow(flow).arrivals.len() as u64;
        // The final frame may still be in flight when the clock stops.
        assert!(got >= sent - 1 && got <= sent, "{got} of {sent}");
        assert_eq!(w.stats().counter(CounterId::SimRxFail), 0);
    }

    #[test]
    fn colliding_transmissions_corrupt_each_other() {
        // Three nodes: 0 and 1 blast at the same period and phase, 2 listens.
        let mut w = uniform_world(3, 3);
        w.add_flow(0, 2, 1000);
        w.add_flow(1, 2, 1000);
        for src in [0usize, 1] {
            w.set_mac(
                src,
                Box::new(Blaster {
                    dst: MacAddr::from_node_index(2),
                    period: millis(2),
                    payload: 1000,
                    sent: 0,
                }),
            );
        }
        w.set_mac(2, Box::new(Sniffer::default()));
        w.run_until(crate::time::secs(1));
        // Equal-power full collisions at node 2: most frames die, but the
        // capture effect (per-frame fading occasionally giving one frame
        // enough SINR) lets a minority through — exactly the phenomenon the
        // paper cites [18, 20].
        let sn = w.mac_ref(2).as_any().downcast_ref::<Sniffer>().unwrap();
        let sent: u64 = [0usize, 1]
            .iter()
            .map(|&n| {
                w.mac_ref(n)
                    .as_any()
                    .downcast_ref::<Blaster>()
                    .unwrap()
                    .sent
            })
            .sum();
        assert!(
            (sn.frames as f64) < 0.35 * sent as f64,
            "expected mostly collision loss, got {} of {sent} frames",
            sn.frames
        );
        assert!(w.stats().counter(CounterId::SimRxFail) > sent / 5);
    }

    #[test]
    fn staggered_transmissions_all_decode() {
        // Same three nodes, but sender 1 offset by half a period: no overlap
        // (frames are ~153 us long, spacing is 1 ms).
        let mut w = uniform_world(3, 4);
        w.add_flow(0, 2, 100);
        w.add_flow(1, 2, 100);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(2),
                period: millis(2),
                payload: 100,
                sent: 0,
            }),
        );
        // Offset via a different period that avoids sustained overlap.
        w.set_mac(
            1,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(2),
                period: millis(2) + micros(700),
                payload: 100,
                sent: 0,
            }),
        );
        w.set_mac(2, Box::new(Sniffer::default()));
        w.run_until(crate::time::secs(1));
        let sn = w.mac_ref(2).as_any().downcast_ref::<Sniffer>().unwrap();
        let sent0 = w
            .mac_ref(0)
            .as_any()
            .downcast_ref::<Blaster>()
            .unwrap()
            .sent;
        let sent1 = w
            .mac_ref(1)
            .as_any()
            .downcast_ref::<Blaster>()
            .unwrap()
            .sent;
        // Most frames decode; occasional collisions when phases align.
        assert!(
            sn.frames as f64 > 0.85 * (sent0 + sent1) as f64,
            "{} of {}",
            sn.frames,
            sent0 + sent1
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut w = strong_pair_world(seed);
            let flow = w.add_flow(0, 1, 64);
            w.set_mac(
                0,
                Box::new(Blaster {
                    dst: MacAddr::from_node_index(1),
                    period: micros(500),
                    payload: 64,
                    sent: 0,
                }),
            );
            w.set_mac(1, Box::new(Sniffer::default()));
            w.run_until(crate::time::secs(1));
            (w.stats().flow(flow).arrivals.clone(), w.events_processed())
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        // Different seed: same frame count (timers are deterministic) but
        // the run should not be bit-identical in general; we only check it
        // doesn't crash and produces comparable volume.
        assert!((c.1 as i64 - a.1 as i64).abs() < 100);
    }

    #[test]
    fn relay_flow_forwards_deliveries() {
        // 0 -> 1 (flow a), 1 relays to 2 (flow b). Use sniffer-like relay:
        // node 1 runs a Mac that forwards on_packet_queued.
        struct Relay {
            fwd: u64,
        }
        impl Mac for Relay {
            fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
            fn on_rx_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &FrameView<'_>, _info: RxInfo) {
                if let FrameView::Dot11Data(d) = frame {
                    if d.dst() == ctx.mac_addr() {
                        ctx.deliver(d.flow(), d.flow_seq());
                    }
                }
            }
            fn on_packet_queued(&mut self, ctx: &mut NodeCtx<'_>) {
                // One packet per wake; chaining the rest would need
                // on_tx_done plumbing this simple test MAC doesn't have.
                if let Some(p) = ctx.app_pop() {
                    let src = ctx.mac_addr();
                    let sent = ctx.transmit_with(Rate::R6, |buf| {
                        cmap_wire::view::compose::dot11_data(
                            buf,
                            src,
                            p.dst_mac,
                            0,
                            false,
                            0,
                            p.flow,
                            p.flow_seq,
                            p.payload_len,
                            0,
                        );
                    });
                    if sent {
                        self.fwd += 1;
                    }
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }

        let mut w = uniform_world(3, 5);
        let a = w.add_flow(0, 1, 64);
        let b = w.add_relay_flow(1, 2, 64, a);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(5),
                payload: 64,
                sent: 0,
            }),
        );
        w.set_mac(1, Box::new(Relay { fwd: 0 }));
        w.set_mac(2, Box::new(Sniffer::default()));
        w.run_until(crate::time::secs(1));
        let a_count = w.stats().flow(a).arrivals.len();
        let b_count = w.stats().flow(b).arrivals.len();
        assert!(a_count > 150, "upstream {a_count}");
        // The relay forwards most packets (some lost to half-duplex timing).
        assert!(
            b_count as f64 > 0.5 * a_count as f64,
            "relay {b_count} of {a_count}"
        );
    }

    #[test]
    fn busy_edges_fire_at_listeners() {
        let mut w = strong_pair_world(9);
        w.add_flow(0, 1, 256);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(10),
                payload: 256,
                sent: 0,
            }),
        );
        w.set_mac(1, Box::new(Sniffer::default()));
        w.run_until(crate::time::secs(1));
        let sn = w.mac_ref(1).as_any().downcast_ref::<Sniffer>().unwrap();
        // One busy edge per frame (~100 frames).
        assert!(sn.busy_edges >= 90, "{}", sn.busy_edges);
    }

    #[test]
    fn tx_records_drain_when_the_air_clears() {
        // Regression: TxEnd never released its share of the record, so one
        // TxRecord (and its Arc<Frame>) leaked per transmission.
        let mut w = strong_pair_world(13);
        w.add_flow(0, 1, 256);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(2),
                payload: 256,
                sent: 0,
            }),
        );
        w.set_mac(1, Box::new(Sniffer::default()));
        w.run_until(crate::time::secs(1));
        let sent = w
            .mac_ref(0)
            .as_any()
            .downcast_ref::<Blaster>()
            .unwrap()
            .sent;
        assert!(sent > 400, "{sent}");
        // At most the final frame can still be in flight.
        assert!(w.inflight_tx_count() <= 1, "{}", w.inflight_tx_count());
    }

    /// Node 0 blasts at four listeners 100, 200, 300 and 400 ns away; the
    /// listeners reach only node 0.
    fn staggered_world(seed: u64) -> World {
        staggered_world_at(seed, PhyConfig::default())
    }

    fn staggered_world_at(seed: u64, phy: PhyConfig) -> World {
        let n = 5;
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        let mut delays = vec![0u64; n * n];
        for rx in 1..n {
            gains[rx] = -70.0;
            gains[rx * n] = -70.0;
            // Farthest first in `reachable` order, so arrival rank and row
            // position run opposite ways.
            delays[rx] = 100 * (n - rx) as u64;
            delays[rx * n] = 100 * (n - rx) as u64;
        }
        let medium = crate::medium::MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .build();
        let mut w = World::builder().medium(medium).phy(phy).seed(seed).build();
        w.add_flow(0, 1, 100);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(2),
                payload: 100,
                sent: 0,
            }),
        );
        for rx in 1..n {
            w.set_mac(rx, Box::new(Sniffer::default()));
        }
        w
    }

    #[test]
    fn checkpoint_with_cursors_mid_row_resumes_identically() {
        let finish = |w: &mut World| {
            w.run_until(millis(50));
            (w.stats().snapshot(), w.events_processed(), w.event_counts())
        };
        let reference = finish(&mut staggered_world(41));

        // The first frame leaves node 0 at 2 ms. Cut between its second
        // and third FrameStart, then between its second and third
        // FrameEnd.
        let airtime = {
            let mut w = staggered_world(41);
            w.run_until(millis(2));
            let live: Vec<_> = w.pool.live_txs().collect();
            assert_eq!((live.len(), live[0].cursor), (1, 0));
            live[0].rate.frame_airtime_ns(live[0].buf.len())
        };
        // `(cut, cursor, queued)` over four receivers. Queued at the first
        // cut: the Blaster's timer, TxEnd and one arrival per kind; at the
        // second (the TxEnd and two FrameEnds handled) only the timer and
        // a FrameEnd — never the whole row.
        for (cut, cursor, queued) in [(millis(2) + 250, 2, 4), (millis(2) + airtime + 250, 7, 2)] {
            let mut w = staggered_world(41);
            w.run_until(cut);
            assert_eq!(
                w.pool.live_txs().map(|tx| tx.cursor).collect::<Vec<_>>(),
                [cursor]
            );
            assert_eq!(w.sched.len(), queued);
            let bytes = w.checkpoint().expect("checkpoint mid-row");
            let mut resumed = staggered_world(41);
            resumed.restore(&bytes).expect("restore");
            assert_eq!(resumed.checkpoint().expect("re-checkpoint"), bytes);
            assert_eq!(finish(&mut resumed), reference, "cut at {cut}");
            assert_eq!(finish(&mut w), reference, "split run, cut at {cut}");
        }
    }

    /// Recompute an edited image's content sum (the wrapping sum of its
    /// length and its little-endian words), so the edit reaches the check
    /// it is aimed at.
    fn reseal(image: &mut [u8]) {
        let end = image.len() - 8;
        let sum = image[..end].chunks(8).fold(end as u64, |sum, word| {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            sum.wrapping_add(u64::from_le_bytes(w))
        });
        image[end..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn restore_rejects_cursors_off_the_fan_out() {
        let mut w = staggered_world(42);
        w.run_until(millis(2) + 250);
        let good = w.checkpoint().expect("checkpoint");
        // The live transmission's record ends `buf, seq0 u64, cursor u32`
        // and the powers its receivers hold, two of its four FrameStarts
        // handled.
        let live: Vec<_> = w.pool.live_txs().collect();
        let frame = &live[0].buf[..];
        let seq0 = good
            .windows(frame.len())
            .position(|b| b == frame)
            .expect("frame bytes in the image")
            + frame.len();
        let cursor = seq0 + 8;
        assert_eq!(good[seq0..seq0 + 8], live[0].seq0.to_le_bytes());
        assert_eq!(good[cursor..cursor + 4], [2, 0, 0, 0]);
        assert_eq!(good[cursor + 4..cursor + 12], 2u64.to_le_bytes());
        // A cursor past the last FrameEnd, and one far past it; a cursor
        // past the TxEnd while the radio still transmits; one a FrameStart
        // on with no power for it; the last key (`seq0 + 8`) at the next
        // sequence number `reserve` hands out.
        let last = w.sched.reserve(0) - 8;
        let edits: [(usize, &[u8]); 5] = [
            (cursor, &[9]),
            (cursor + 3, &[0x80]),
            (cursor, &[5]),
            (cursor, &[3]),
            (seq0, &last.to_le_bytes()),
        ];
        for (at, value) in edits {
            let mut bad = good.clone();
            bad[at..at + value.len()].copy_from_slice(value);
            reseal(&mut bad);
            let err = staggered_world(42).restore(&bad).unwrap_err();
            assert!(matches!(err, CkptError::Malformed(_)), "{at}: {err}");
        }
        // One key lower, and a cursor one event on whose receiver holds
        // 0 (as a radio that was off does), still fit.
        let mut fits = good.clone();
        fits[seq0..seq0 + 8].copy_from_slice(&(last - 1).to_le_bytes());
        fits[cursor] = 3;
        fits[cursor + 4] = 3;
        let third = cursor + 12 + 2 * 16;
        fits.splice(third..third, [0; 16]);
        reseal(&mut fits);
        staggered_world(42)
            .restore(&fits)
            .expect("a stream that fits");
        staggered_world(42).restore(&good).expect("intact image");
    }

    /// The audit holds each radio's energy total to the powers its live
    /// receptions hold, exactly: a power no reception holds is counted at
    /// every audit from then on.
    #[test]
    fn the_audit_counts_an_energy_total_off_its_receptions() {
        let mut w = staggered_world(44);
        w.install_faults(FaultPlan::clean());
        let flagged = |w: &World| w.stats().counter(CounterId::WatchdogRadioState);
        w.run_until(millis(1_100));
        assert_eq!(flagged(&w), 0, "two audits of a sound world");
        // -120 dBm at node 1 from no transmission: too weak to lock.
        let (phy, rng) = (&w.phy_linear, &mut w.rngs[1]);
        let (_, phantom) = w.radios.frame_start(1, TxId::MAX, 1e-12, w.time, phy, rng);
        assert!(phantom > 0);
        w.run_until(millis(2_100));
        assert_eq!(flagged(&w), 2, "node 1 at the audits at 1.5 s and 2 s");
        // Node 1's total gone while frames it hears are on the air: each of
        // their ends would take it below zero, and is counted at once.
        while w.radios.energy(1) == phantom {
            w.run_until(w.time + 100);
        }
        let (total, now) = (w.radios.energy(1), w.time);
        let (_, held) = w.radios.frame_end(1, TxId::MAX, total, now);
        assert!(held);
        w.run_until(now + millis(1));
        assert!(flagged(&w) > 2, "an end past the total");
    }

    /// A received power past the +21 dBm the exact total holds is held at
    /// the cap and counted, once per arrival.
    #[test]
    fn a_power_past_the_cap_is_counted() {
        // 15 dBm − 70 dB + 90 dB boost on every arrival: +35 dBm.
        let loud = PhyConfig {
            fading_boost_prob: 1.0,
            fading_boost_db: 90.0,
            ..PhyConfig::default()
        };
        let mut w = staggered_world_at(46, loud);
        w.run_until(millis(2) + micros(20));
        let held = (1..5).map(|n| w.radios.energy(n));
        assert!(held.into_iter().all(|e| e == FIXED_MAX));
        let flagged = w.stats().counter(CounterId::WatchdogRadioState);
        assert_eq!(flagged, 4, "one per receiver of the first frame");
        let mut quiet = staggered_world(46);
        quiet.run_until(millis(9));
        assert_eq!(quiet.watchdog_violations(), 0);
    }

    /// Radios that go off while hearing a frame forget its power with
    /// their totals: its ends, after the outage began, subtract nothing.
    #[test]
    fn a_power_off_mid_frame_leaves_nothing_to_subtract() {
        use crate::faults::Lockup;
        let mut w = staggered_world(45);
        let lockups = (1..5).map(|n| Lockup {
            node: NodeId::new(n),
            at: millis(2) + micros(20),
            until: millis(3),
        });
        w.install_faults(FaultPlan {
            lockups: lockups.collect(),
            ..FaultPlan::clean()
        });
        w.run_until(millis(2) + micros(20));
        assert!((1..5).all(|n| w.radios.is_disabled(n) && w.radios.energy(n) == 0));
        assert!(w.inflight_tx_count() > 0, "the frame is still on the air");
        w.run_until(millis(9));
        assert!((0..5).all(|n| w.radios.energy(n) == 0));
        assert_eq!(w.watchdog_violations(), 0);
    }

    #[test]
    fn restore_refuses_a_queue_or_pool_past_the_keys_bounds() {
        let mut w = staggered_world(43);
        w.run_until(millis(2) + 250);
        let good = w.checkpoint().expect("checkpoint");
        let find = |words: &[u64]| {
            let bytes: Vec<u8> = words.iter().flat_map(|v| v.to_le_bytes()).collect();
            let at = good.windows(bytes.len()).position(|b| b == &bytes[..]);
            at.expect("field in the image")
        };
        // `next_seq` precedes `processed` and the per-kind counts.
        let seq = w.sched.reserve(0);
        let by_kind = w.sched.processed_by_kind();
        let next_seq = find(&[seq, w.sched.processed(), by_kind[0], by_kind[1]]);
        // The pool's high water follows the clock.
        let high_water = find(&[w.time, w.pool.high_water() as u64]) + 8;
        let past = |v: u64| v.to_le_bytes();
        for (at, value) in [(next_seq, past(1 << 44)), (high_water, past((1 << 20) + 1))] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&value);
            reseal(&mut bad);
            let err = staggered_world(43).restore(&bad).unwrap_err();
            assert!(matches!(err, CkptError::Malformed(_)), "{err}");
        }
        staggered_world(43).restore(&good).expect("intact image");
    }

    #[test]
    fn transmitter_nobody_hears_still_completes() {
        let phy = PhyConfig::default();
        // Below the delivery floor both ways: empty `reachable` rows.
        let medium = crate::medium::MediumBuilder::new(&phy)
            .uniform(2, -130.0)
            .build();
        assert!(medium.reachable(NodeId::new(0)).is_empty());
        let mut w = World::builder().medium(medium).phy(phy).seed(3).build();
        w.add_flow(0, 1, 64);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(1),
                payload: 64,
                sent: 0,
            }),
        );
        w.run_until(millis(100) + micros(500));
        let sent = w
            .mac_ref(0)
            .as_any()
            .downcast_ref::<Blaster>()
            .unwrap()
            .sent;
        assert_eq!(sent, 100);
        let by: BTreeMap<&str, u64> = w.event_counts().into_iter().collect();
        assert_eq!(
            (by["tx_end"], by["frame_start"], by["frame_end"]),
            (sent, 0, 0)
        );
        assert_eq!(w.inflight_tx_count(), 0);
        assert_eq!(w.pool_recycled(), sent);
        assert_eq!(w.pool_high_water(), 1);
    }

    #[test]
    fn churn_outage_silences_and_restarts_a_node() {
        use crate::faults::{FaultPlan, Outage};
        let run = |plan: Option<FaultPlan>| {
            let mut w = strong_pair_world(21);
            let flow = w.add_flow(0, 1, 100);
            w.set_mac(
                0,
                Box::new(Blaster {
                    dst: MacAddr::from_node_index(1),
                    period: millis(2),
                    payload: 100,
                    sent: 0,
                }),
            );
            w.set_mac(1, Box::new(Sniffer::default()));
            if let Some(p) = plan {
                w.install_faults(p);
            }
            w.run_until(crate::time::secs(1));
            let during = w.stats().flow(flow).delivered_in(millis(300), millis(600));
            let after = w
                .stats()
                .flow(flow)
                .delivered_in(millis(600), crate::time::secs(1));
            (during, after, w.watchdog_violations())
        };
        // Clean run delivers throughout.
        let (clean_during, clean_after, v) = run(None);
        assert!(clean_during > 100 && clean_after > 100);
        assert_eq!(v, 0);
        // Receiver down 300–600 ms: nothing delivered in the hole, full
        // rate resumes after restart, and the watchdog stays quiet.
        let plan = FaultPlan {
            churn: vec![Outage {
                node: NodeId::new(1),
                down_at: millis(300),
                up_at: millis(600),
            }],
            ..FaultPlan::default()
        };
        let (during, after, v) = run(Some(plan));
        assert_eq!(during, 0, "deaf node still received");
        assert!(after > 100, "node did not come back: {after}");
        assert_eq!(v, 0, "watchdog violations");
    }

    #[test]
    fn lockup_blocks_transmit_but_mac_survives() {
        use crate::faults::{FaultPlan, Lockup};
        let mut w = strong_pair_world(22);
        let flow = w.add_flow(0, 1, 100);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(2),
                payload: 100,
                sent: 0,
            }),
        );
        w.set_mac(1, Box::new(Sniffer::default()));
        w.install_faults(FaultPlan {
            lockups: vec![Lockup {
                node: NodeId::new(0),
                at: millis(300),
                until: millis(600),
            }],
            ..FaultPlan::default()
        });
        w.run_until(crate::time::secs(1));
        // The Blaster's timer keeps firing during the lockup (transmit just
        // fails), and sending resumes after recovery.
        let during = w.stats().flow(flow).delivered_in(millis(310), millis(600));
        let after = w
            .stats()
            .flow(flow)
            .delivered_in(millis(600), crate::time::secs(1));
        assert_eq!(during, 0, "wedged radio still transmitted");
        assert!(after > 100, "radio did not recover: {after}");
        assert_eq!(w.watchdog_violations(), 0);
    }

    #[test]
    fn same_seed_fault_runs_are_identical() {
        use crate::faults::FaultPlan;
        let run = |seed| {
            let mut w = uniform_world(3, seed);
            let flow = w.add_flow(0, 2, 200);
            w.set_mac(
                0,
                Box::new(Blaster {
                    dst: MacAddr::from_node_index(2),
                    period: millis(1),
                    payload: 200,
                    sent: 0,
                }),
            );
            w.set_mac(2, Box::new(Sniffer::default()));
            w.install_faults(FaultPlan::mixed(3, crate::time::secs(1)));
            w.run_until(crate::time::secs(1));
            assert_eq!(w.watchdog_violations(), 0);
            (
                w.stats().snapshot(),
                w.events_processed(),
                w.stats().flow(flow).arrivals.len(),
            )
        };
        let a = run(31);
        let b = run(31);
        assert_eq!(a, b, "same-seed fault runs diverged");
        assert!(a.2 > 100, "mixed plan killed the link: {}", a.2);
        let c = run(32);
        assert_ne!(a.0, c.0, "seed had no effect under faults");
    }

    #[test]
    fn restore_refuses_a_fault_plan_differing_in_any_one_field() {
        use crate::faults::{FaultPlan, GilbertElliott, Lockup, Outage, Shadowing};
        let plan = FaultPlan {
            churn: vec![Outage {
                node: NodeId::new(0),
                down_at: millis(20),
                up_at: millis(30),
            }],
            lockups: vec![Lockup {
                node: NodeId::new(1),
                at: millis(40),
                until: millis(50),
            }],
            gilbert_elliott: Some(GilbertElliott {
                step_ns: millis(5),
                p_enter_bad: 0.1,
                p_exit_bad: 0.3,
                bad_extra_loss_db: 20.0,
            }),
            shadowing: Some(Shadowing {
                step_ns: millis(100),
                sigma_db: 4.0,
            }),
            clock_skew_ppm: vec![(NodeId::new(2), 150)],
            corrupt_prob: 0.02,
            dup_frame_prob: 0.03,
        };
        let world = |plan: Option<FaultPlan>| {
            let mut w = uniform_world(3, 31);
            if let Some(plan) = plan {
                w.install_faults(plan);
            }
            w
        };
        let mut w = world(Some(plan.clone()));
        w.run_until(millis(10));
        let image = w.checkpoint().expect("checkpoint");
        world(Some(plan.clone()))
            .restore(&image)
            .expect("same plan");

        let edits: [fn(&mut FaultPlan); 20] = [
            |p| p.churn[0].node = NodeId::new(1),
            |p| p.churn[0].down_at += 1,
            |p| p.churn[0].up_at += 1,
            |p| p.churn.clear(),
            |p| p.lockups[0].node = NodeId::new(2),
            |p| p.lockups[0].at += 1,
            |p| p.lockups[0].until += 1,
            |p| p.lockups.clear(),
            |p| p.gilbert_elliott.as_mut().unwrap().step_ns += 1,
            |p| p.gilbert_elliott.as_mut().unwrap().p_enter_bad = 0.2,
            |p| p.gilbert_elliott.as_mut().unwrap().p_exit_bad = 0.2,
            |p| p.gilbert_elliott.as_mut().unwrap().bad_extra_loss_db = 21.0,
            |p| p.gilbert_elliott = None,
            |p| p.shadowing.as_mut().unwrap().step_ns += 1,
            |p| p.shadowing.as_mut().unwrap().sigma_db = 5.0,
            |p| p.shadowing = None,
            |p| p.clock_skew_ppm[0].0 = NodeId::new(1),
            |p| p.clock_skew_ppm[0].1 = -150,
            |p| p.corrupt_prob = 0.03,
            |p| p.dup_frame_prob = 0.02,
        ];
        let others = edits.iter().map(|edit| {
            let mut other = plan.clone();
            edit(&mut other);
            Some(other)
        });
        for other in others.chain([None]) {
            let err = world(other.clone()).restore(&image).unwrap_err();
            assert!(
                matches!(err, CkptError::Mismatch(_)),
                "{other:?} accepted: {err}"
            );
        }
    }

    #[test]
    fn tracing_observes_without_perturbing() {
        let run = |traced: bool| {
            let mut w = strong_pair_world(17);
            w.add_flow(0, 1, 100);
            w.set_mac(
                0,
                Box::new(Blaster {
                    dst: MacAddr::from_node_index(1),
                    period: millis(2),
                    payload: 100,
                    sent: 0,
                }),
            );
            w.set_mac(1, Box::new(Sniffer::default()));
            if traced {
                w.enable_trace(1 << 16);
            }
            w.run_until(crate::time::secs(1));
            let trace = w.take_trace();
            (w.stats().snapshot(), w.events_processed(), trace)
        };
        let (snap_off, ev_off, tr_off) = run(false);
        let (snap_on, ev_on, tr_on) = run(true);
        assert!(tr_off.is_none());
        let tr = tr_on.unwrap();
        assert!(tr.emitted() > 400, "{}", tr.emitted());
        assert!(tr.records().all(|r| matches!(
            r.ev,
            TraceEvent::TxStart {
                kind: "dot11_data",
                ..
            }
        )));
        // Tracing is an observer: behavioural stats and the event stream
        // are untouched by turning it on.
        assert_eq!(snap_off, snap_on);
        assert_eq!(ev_off, ev_on);
    }

    #[test]
    fn event_counts_partition_processed_events() {
        let mut w = strong_pair_world(18);
        w.add_flow(0, 1, 100);
        w.set_mac(
            0,
            Box::new(Blaster {
                dst: MacAddr::from_node_index(1),
                period: millis(2),
                payload: 100,
                sent: 0,
            }),
        );
        w.set_mac(1, Box::new(Sniffer::default()));
        w.run_until(crate::time::secs(1));
        let counts = w.event_counts();
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, w.events_processed());
        let by: BTreeMap<&str, u64> = counts.into_iter().collect();
        assert!(by["timer"] > 400, "{by:?}");
        assert!(by["frame_start"] > 400, "{by:?}");
        assert_eq!(by["fault"], 0);
    }

    /// One reception of a 1428-byte PSDU locked at 1 µs: the completion
    /// for a `signal_mw` frame under `interference`, and its frame end.
    fn reception(rate: Rate, signal_mw: f64, interference: Vec<(Time, f64)>) -> (RxLock, Time) {
        let c = RxLock {
            tx_id: 1,
            lock_time: 1_000,
            signal_mw,
            interference,
            ..RxLock::default()
        };
        (c, 1_000 + rate.frame_airtime_ns(1428))
    }

    #[test]
    fn decode_decision_settles_draws_as_grading_does() {
        let phy = PhyLinear::new(&PhyConfig::default());
        let (table, gate) = (BerTable::shared(), gate::DrawGate::shared());
        let mut rng = stream_rng(19, 2);
        let (mut settled, mut inside) = (0u32, 0u32);
        for levels in [1usize, 2, 5] {
            for _ in 0..20_000 {
                let rate = Rate::ALL[rng.gen_range(0..Rate::ALL.len())];
                let airtime = rate.frame_airtime_ns(1428);
                // From well under every rate's waterfall to well over it.
                let signal_mw = phy.noise_mw * 2f64.powf(rng.gen_range(-2.0..12.0));
                // Level changes anywhere in the frame, the preamble included.
                let mut at: Vec<Time> = (1..levels)
                    .map(|_| 1_000 + rng.gen_range(0..airtime))
                    .collect();
                at.sort_unstable();
                let profile = std::iter::once(1_000)
                    .chain(at)
                    .map(|t| {
                        let quiet = rng.gen_bool(0.3);
                        let level = phy.noise_mw * 2f64.powf(rng.gen_range(-6.0..6.0));
                        (t, if quiet { 0.0 } else { level })
                    })
                    .collect();
                let (c, frame_end) = reception(rate, signal_mw, profile);
                let unit: f64 = rng.gen();
                let (p, graded) = grade_reception(&c, frame_end, rate, 1428, &phy, table);
                let (decision, segments) =
                    decode_decision(&c, frame_end, rate, 1428, &phy, gate, unit);
                assert_eq!(segments, graded, "{c:?}");
                assert!((1..=levels as u64).contains(&segments));
                match decision {
                    Some(decoded) => {
                        settled += 1;
                        assert_eq!(decoded, unit < p, "{rate} p {p:e} draw {unit:e}: {c:?}");
                    }
                    None => inside += 1,
                }
            }
        }
        assert!(inside > 100, "the sweep never landed in a bracket");
        assert!(settled > 4 * inside, "{settled} settled, {inside} graded");
    }

    #[test]
    fn decode_decision_leaves_uncovered_and_degenerate_receptions_to_the_exact_path() {
        let phy = PhyLinear::new(&PhyConfig::default());
        let (table, gate) = (BerTable::shared(), gate::DrawGate::shared());
        let rate = Rate::R6;
        let strong = phy.noise_mw * 1e4;
        let payload_start = 1_000 + PLCP_PREAMBLE_NS + PLCP_SIG_NS;
        // A profile that starts inside the payload, or is empty, leaves
        // bits ungraded: no bracket, whatever the draw.
        for profile in [vec![(payload_start + 5_000, 0.0)], vec![]] {
            let (c, frame_end) = reception(rate, strong, profile);
            let (_, graded) = grade_reception(&c, frame_end, rate, 1428, &phy, table);
            for unit in [0.0, 0.5, 1.0 - f64::EPSILON] {
                assert_eq!(
                    decode_decision(&c, frame_end, rate, 1428, &phy, gate, unit),
                    (None, graded)
                );
            }
        }
        // The same strong, quiet reception covered from the lock on is
        // settled by any draw.
        let (c, frame_end) = reception(rate, strong, vec![(1_000, 0.0)]);
        assert_eq!(
            decode_decision(&c, frame_end, rate, 1428, &phy, gate, 0.5),
            (Some(true), 1)
        );
        // Nothing after the SIGNAL field: p is 1.0 and no segment is graded.
        for frame_end in [payload_start, payload_start - 1] {
            assert_eq!(grade_reception(&c, frame_end, rate, 1428, &phy, table).1, 0);
            assert_eq!(
                decode_decision(&c, frame_end, rate, 1428, &phy, gate, 1.0 - f64::EPSILON),
                (Some(true), 0)
            );
        }
    }

    #[test]
    fn misdelivery_is_counted_not_crashing() {
        struct Bad;
        impl Mac for Bad {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.deliver(0, 1); // flow 0's dst is node 1, not node 0
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut w = strong_pair_world(11);
        w.add_flow(0, 1, 64);
        w.set_mac(0, Box::new(Bad));
        w.run_until(millis(1));
        assert_eq!(w.stats().counter(CounterId::SimMisdelivered), 1);
    }
}
