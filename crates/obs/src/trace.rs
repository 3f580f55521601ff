//! Structured trace layer: a bounded ring buffer of typed events.
//!
//! Protocol and engine layers emit [`TraceEvent`]s at decision points (the
//! taxonomy below mirrors DESIGN.md §8); the sink keeps the most recent
//! `capacity` records and counts what it sheds, so a soak run can trace
//! forever in constant memory. When tracing is disabled the emit sites
//! reduce to one branch on an `Option` — the disabled path allocates
//! nothing and formats nothing.
//!
//! The JSONL dump is deterministic: records carry their global sequence
//! number, fields serialize in a fixed order, and every value derives from
//! simulation state (never wall clock), so two same-seed runs dump
//! byte-identical traces.

use std::collections::VecDeque;

use crate::json;

/// One typed trace event. Node identifiers are dense world indices; `dst` /
/// `peer` are the wire-address node indices (`u16::MAX` when unmapped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transmission started: frame kind tag, wire length and bit-rate.
    TxStart {
        /// Transmitting node.
        node: u32,
        /// Frame kind tag (e.g. `"cmap_header"`, `"dot11_data"`).
        kind: &'static str,
        /// Wire length in bytes.
        bytes: u32,
        /// Bit-rate in Mbit/s.
        rate_mbps: u32,
    },
    /// CMAP's transmission decision process chose to defer (§3.2).
    DeferDecision {
        /// Deferring sender.
        node: u32,
        /// Intended receiver (node index of the wire address).
        dst: u16,
        /// How long the sender will wait before re-checking, in ns.
        wait_ns: u64,
        /// Whether the conservative CSMA fallback was active for this
        /// decision (stale conflict map).
        fallback: bool,
    },
    /// A cumulative ACK advanced the sender's window.
    AckWindowSlide {
        /// Sender whose window moved.
        node: u32,
        /// The acknowledging receiver (node index of the wire address).
        peer: u16,
        /// Data packets newly acknowledged by this ACK.
        newly_acked: u32,
    },
    /// The sender entered the conservative fall-back-to-CSMA regime.
    FallbackToCsma {
        /// The falling-back sender.
        node: u32,
        /// Consecutive ACK timeouts that triggered the fallback.
        timeout_streak: u32,
    },
    /// The fault plan injected an action.
    FaultInjected {
        /// Action kind (e.g. `"node_down"`, `"lockup"`).
        kind: &'static str,
        /// Affected node.
        node: u32,
    },
}

impl TraceEvent {
    /// The event's kind tag as it appears in the JSONL `ev` field.
    pub(crate) const fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TxStart { .. } => "tx_start",
            TraceEvent::DeferDecision { .. } => "defer_decision",
            TraceEvent::AckWindowSlide { .. } => "ack_window_slide",
            TraceEvent::FallbackToCsma { .. } => "fallback_to_csma",
            TraceEvent::FaultInjected { .. } => "fault_injected",
        }
    }
}

/// One sequenced, timestamped record in the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emit sequence number (monotonic across evictions).
    pub(crate) seq: u64,
    /// Simulation time of the emit, in ns.
    pub at_ns: u64,
    /// The event.
    pub ev: TraceEvent,
}

impl TraceRecord {
    /// One JSONL line: fixed field order, no trailing newline.
    pub(crate) fn to_json(self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"at_ns\":");
        s.push_str(&self.at_ns.to_string());
        s.push_str(",\"ev\":");
        json::push_str_lit(&mut s, self.ev.kind());
        match self.ev {
            TraceEvent::TxStart {
                node,
                kind,
                bytes,
                rate_mbps,
            } => {
                s.push_str(&format!(",\"node\":{node},\"kind\":"));
                json::push_str_lit(&mut s, kind);
                s.push_str(&format!(",\"bytes\":{bytes},\"rate_mbps\":{rate_mbps}"));
            }
            TraceEvent::DeferDecision {
                node,
                dst,
                wait_ns,
                fallback,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"dst\":{dst},\"wait_ns\":{wait_ns},\"fallback\":{fallback}"
                ));
            }
            TraceEvent::AckWindowSlide {
                node,
                peer,
                newly_acked,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"peer\":{peer},\"newly_acked\":{newly_acked}"
                ));
            }
            TraceEvent::FallbackToCsma {
                node,
                timeout_streak,
            } => {
                s.push_str(&format!(
                    ",\"node\":{node},\"timeout_streak\":{timeout_streak}"
                ));
            }
            TraceEvent::FaultInjected { kind, node } => {
                s.push_str(",\"kind\":");
                json::push_str_lit(&mut s, kind);
                s.push_str(&format!(",\"node\":{node}"));
            }
        }
        s.push('}');
        s
    }
}

/// Bounded ring buffer of trace records.
#[derive(Debug)]
pub struct TraceSink {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

impl TraceSink {
    /// A sink retaining at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> TraceSink {
        let cap = capacity.max(1);
        TraceSink {
            cap,
            buf: VecDeque::with_capacity(cap.min(4096)),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Record an event at simulation time `at_ns`, evicting the oldest
    /// record if the buffer is full.
    #[inline]
    pub fn push(&mut self, at_ns: u64, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord {
            seq: self.next_seq,
            at_ns,
            ev,
        });
        self.next_seq += 1;
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever emitted (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Records shed to honour the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Deterministic JSONL dump of the retained records (one object per
    /// line, trailing newline after each).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.buf {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut sink = TraceSink::new(2);
        for node in 0..5u32 {
            sink.push(
                u64::from(node) * 10,
                TraceEvent::FallbackToCsma {
                    node,
                    timeout_streak: 3,
                },
            );
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.emitted(), 5);
        let seqs: Vec<u64> = sink.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn jsonl_is_stable_and_parseable_shape() {
        let mut sink = TraceSink::new(8);
        sink.push(
            100,
            TraceEvent::TxStart {
                node: 1,
                kind: "cmap_header",
                bytes: 24,
                rate_mbps: 6,
            },
        );
        sink.push(
            200,
            TraceEvent::DeferDecision {
                node: 1,
                dst: 2,
                wait_ns: 1500,
                fallback: false,
            },
        );
        sink.push(
            300,
            TraceEvent::FaultInjected {
                kind: "lockup",
                node: 0,
            },
        );
        let dump = sink.to_jsonl();
        assert_eq!(
            dump,
            "{\"seq\":0,\"at_ns\":100,\"ev\":\"tx_start\",\"node\":1,\
             \"kind\":\"cmap_header\",\"bytes\":24,\"rate_mbps\":6}\n\
             {\"seq\":1,\"at_ns\":200,\"ev\":\"defer_decision\",\"node\":1,\
             \"dst\":2,\"wait_ns\":1500,\"fallback\":false}\n\
             {\"seq\":2,\"at_ns\":300,\"ev\":\"fault_injected\",\
             \"kind\":\"lockup\",\"node\":0}\n"
        );
        // Dumping twice is byte-identical.
        assert_eq!(dump, sink.to_jsonl());
    }

    #[test]
    fn every_event_kind_serializes() {
        let events = [
            TraceEvent::TxStart {
                node: 0,
                kind: "dot11_data",
                bytes: 1464,
                rate_mbps: 6,
            },
            TraceEvent::DeferDecision {
                node: 0,
                dst: 1,
                wait_ns: 1,
                fallback: true,
            },
            TraceEvent::AckWindowSlide {
                node: 0,
                peer: 1,
                newly_acked: 8,
            },
            TraceEvent::FallbackToCsma {
                node: 0,
                timeout_streak: 4,
            },
            TraceEvent::FaultInjected {
                kind: "node_down",
                node: 3,
            },
        ];
        for ev in events {
            let mut sink = TraceSink::new(1);
            sink.push(7, ev);
            let line = sink.to_jsonl();
            assert!(
                line.contains(&format!("\"ev\":\"{}\"", ev.kind())),
                "{line}"
            );
            assert!(line.ends_with('\n'));
        }
    }
}
