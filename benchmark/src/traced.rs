//! Spans around every call into a MAC, recorded from outside the engine.
//!
//! [`TracedMac`] implements `cmap_sim::Mac` by delegating every callback
//! to the real MAC and recording a span (kind, node, start, end) around
//! the call into a shared in-memory [`Recorder`]. The MAC boundary is the
//! only layer boundary the engine crosses through a public trait, so it
//! is the only one that can be timed in place; everything the engine does
//! between two MAC calls is its self-time (see `replay.rs` for how that
//! residual is sized layer by layer).

use std::cell::RefCell;
use std::hint::black_box;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use cmap_sim::{Mac, NodeCtx, NodeId, RxErrorInfo, RxInfo};
use cmap_wire::FrameView;

/// Which `Mac` callback a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    OnTimer,
    OnRxFrame,
    OnRxError,
    OnTxDone,
    OnChannelState,
    /// `on_start`, `on_restart`, `on_packet_queued`: set-up and rare
    /// paths, counted in the MAC share but not reported per kind.
    Other,
}

impl SpanKind {
    pub const COUNT: usize = 6;
    /// The five steady-state callbacks, in reporting order.
    pub const REPORTED: [SpanKind; 5] = [
        SpanKind::OnTimer,
        SpanKind::OnRxFrame,
        SpanKind::OnRxError,
        SpanKind::OnTxDone,
        SpanKind::OnChannelState,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::OnTimer => "on_timer",
            SpanKind::OnRxFrame => "on_rx_frame",
            SpanKind::OnRxError => "on_rx_error",
            SpanKind::OnTxDone => "on_tx_done",
            SpanKind::OnChannelState => "on_channel_state",
            SpanKind::Other => "other",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub node: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Raw spans kept for the dump. Totals cover every span; only the dump is
/// capped, so a traced rep holds megabytes, not gigabytes.
pub const SPANS_KEPT: usize = 200_000;
/// Received frames whose bytes are copied for the wire replay, and how
/// far apart they are taken.
pub const FRAMES_KEPT: usize = 4096;
const FRAME_STRIDE: u64 = 16;

#[derive(Default)]
struct Inner {
    calls: [u64; SpanKind::COUNT],
    ns: [u64; SpanKind::COUNT],
    spans: Vec<Span>,
    tx_done_by_node: Vec<u64>,
    frames_rx: u64,
    frame_bytes: u64,
    frames: Vec<Vec<u8>>,
}

/// In-memory span store shared by every [`TracedMac`] of one world.
pub struct Recorder {
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new(nodes: usize) -> Rc<Recorder> {
        Rc::new(Recorder {
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(SPANS_KEPT),
                tx_done_by_node: vec![0; nodes],
                frames: Vec::with_capacity(FRAMES_KEPT),
                ..Inner::default()
            }),
        })
    }

    #[inline]
    fn record(&self, kind: SpanKind, node: NodeId, start: Instant, end: Instant) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.calls[kind as usize] += 1;
        inner.ns[kind as usize] += end_ns - start_ns;
        if inner.spans.len() < SPANS_KEPT {
            inner.spans.push(Span {
                kind,
                node: node.index() as u32,
                start_ns,
                end_ns,
            });
        }
    }

    /// Calls recorded for `kind`.
    pub fn calls(&self, kind: SpanKind) -> u64 {
        self.inner.borrow().calls[kind as usize]
    }

    /// Raw span nanoseconds recorded for `kind` (timer cost included).
    pub fn raw_ns(&self, kind: SpanKind) -> u64 {
        self.inner.borrow().ns[kind as usize]
    }

    /// All calls, every kind.
    pub fn total_calls(&self) -> u64 {
        self.inner.borrow().calls.iter().sum()
    }

    /// All raw span nanoseconds, every kind.
    pub fn total_raw_ns(&self) -> u64 {
        self.inner.borrow().ns.iter().sum()
    }

    /// `on_tx_done` calls per node: which radios transmitted, how often.
    pub fn tx_done_by_node(&self) -> Vec<u64> {
        self.inner.borrow().tx_done_by_node.clone()
    }

    /// Frames delivered to `on_rx_frame` and their total wire bytes.
    pub fn frames_rx(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.frames_rx, inner.frame_bytes)
    }

    /// The sampled frames' wire bytes (every 16th received frame, at most
    /// [`FRAMES_KEPT`]).
    pub fn sampled_frames(&self) -> Vec<Vec<u8>> {
        self.inner.borrow().frames.clone()
    }

    /// Write the kept spans as JSON lines: a header line, then one span a
    /// line in recording order.
    pub fn dump(&self, out: &mut impl Write, workload: &str) -> io::Result<()> {
        let inner = self.inner.borrow();
        let total: u64 = inner.calls.iter().sum();
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"spans_total\":{total},\"spans_in_file\":{}}}",
            inner.spans.len()
        )?;
        for s in &inner.spans {
            writeln!(
                out,
                "{{\"kind\":\"{}\",\"node\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.kind.name(),
                s.node,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What recording one span costs on this host, from a loop of empty
/// spans through the same [`Recorder`] code the wrapper uses.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Nanoseconds an empty span reads (timer cost that lands inside
    /// `end - start`); subtracted from every MAC span.
    pub inside_ns: f64,
    /// Nanoseconds one span adds to the run in total (both clock reads,
    /// the bookkeeping and the push); charged to tracing, not the engine.
    pub total_ns: f64,
}

/// Measure [`SpanCost`] over `n` empty spans.
pub fn calibrate(n: u64) -> SpanCost {
    let rec = Recorder::new(1);
    let node = NodeId::new(0);
    let t0 = Instant::now();
    for _ in 0..n {
        let start = Instant::now();
        black_box(());
        let end = Instant::now();
        rec.record(SpanKind::Other, node, start, end);
    }
    let total_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    let inside_ns = rec.raw_ns(SpanKind::Other) as f64 / n as f64;
    SpanCost {
        inside_ns,
        total_ns,
    }
}

/// A `Mac` that times every call into the MAC it wraps.
pub struct TracedMac {
    inner: Box<dyn Mac>,
    node: NodeId,
    rec: Rc<Recorder>,
}

impl TracedMac {
    pub fn new(inner: Box<dyn Mac>, node: NodeId, rec: Rc<Recorder>) -> TracedMac {
        TracedMac { inner, node, rec }
    }

    #[inline]
    fn span<R>(&mut self, kind: SpanKind, call: impl FnOnce(&mut dyn Mac) -> R) -> R {
        let start = Instant::now();
        let r = call(self.inner.as_mut());
        let end = Instant::now();
        self.rec.record(kind, self.node, start, end);
        r
    }
}

impl Mac for TracedMac {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.span(SpanKind::Other, |m| m.on_start(ctx));
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.span(SpanKind::Other, |m| m.on_restart(ctx));
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        self.span(SpanKind::OnTimer, |m| m.on_timer(ctx, token));
    }

    fn on_rx_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &FrameView<'_>, info: RxInfo) {
        self.span(SpanKind::OnRxFrame, |m| m.on_rx_frame(ctx, frame, info));
        // Outside the span: feed the wire replay with the run's own frames.
        let mut inner = self.rec.inner.borrow_mut();
        inner.frames_rx += 1;
        inner.frame_bytes += frame.wire_len() as u64;
        if inner.frames_rx.is_multiple_of(FRAME_STRIDE) && inner.frames.len() < FRAMES_KEPT {
            inner.frames.push(frame.bytes().to_vec());
        }
    }

    fn on_rx_error(&mut self, ctx: &mut NodeCtx<'_>, err: RxErrorInfo) {
        self.span(SpanKind::OnRxError, |m| m.on_rx_error(ctx, err));
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>) {
        self.span(SpanKind::OnTxDone, |m| m.on_tx_done(ctx));
        self.rec.inner.borrow_mut().tx_done_by_node[self.node.index()] += 1;
    }

    fn on_channel_state(&mut self, ctx: &mut NodeCtx<'_>, busy: bool) {
        self.span(SpanKind::OnChannelState, |m| m.on_channel_state(ctx, busy));
    }

    fn on_packet_queued(&mut self, ctx: &mut NodeCtx<'_>) {
        self.span(SpanKind::Other, |m| m.on_packet_queued(ctx));
    }

    /// The wrapped MAC's `Any`, so harness code that downcasts to
    /// `CmapMac`/`DcfMac` sees through the wrapper.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.load_state(bytes)
    }
}
