//! Application layer: traffic sources and relay queues.
//!
//! The paper's workloads are simple: every sender transmits 1400-byte
//! packets "as fast as they can" (§5.1) — a saturated source — and the mesh
//! experiment (§5.7) forwards received packets over a second hop — a relay.
//! Flows are declared on the world; MACs pull packets through
//! [`NodeCtx::app_pop`](crate::mac::NodeCtx::app_pop).

use std::collections::VecDeque;

use crate::ckpt::CkptError;
use crate::persist;
use crate::world::{Flow, FlowKind, NodeId};
use cmap_wire::view::compose;
use cmap_wire::MacAddr;

/// One application packet handed to a MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppPacket {
    /// Flow the packet belongs to.
    pub flow: u16,
    /// End-to-end sequence number within the flow.
    pub flow_seq: u32,
    /// Destination node.
    pub dst: NodeId,
    /// Destination link-layer address.
    pub dst_mac: MacAddr,
    /// Payload length in bytes (the MAC materialises the bytes).
    pub payload_len: usize,
}

persist!(struct AppPacket { flow, flow_seq, dst, dst_mac, payload_len },
         validate AppPacket::check);

impl AppPacket {
    /// A restored packet fits a data frame's `u16` length field, as
    /// [`World::add_flow`](crate::World::add_flow) requires of every flow.
    fn check(&self) -> Result<(), CkptError> {
        if self.payload_len > compose::MAX_PAYLOAD_LEN {
            return Err(CkptError::Malformed(format!(
                "app packet of {} payload bytes",
                self.payload_len
            )));
        }
        Ok(())
    }
}

/// Per-node application state: which flows originate here and the queues of
/// relay flows waiting to be forwarded.
#[derive(Debug, Default)]
pub struct NodeApp {
    /// Indices into the world's flow table for flows sourced at this node.
    pub(crate) source_flows: Vec<u16>,
    /// Pending sequence numbers per relay flow (parallel to `source_flows`
    /// entries of relay kind).
    pub(crate) relay_queues: Vec<(u16, VecDeque<u32>)>,
    /// Round-robin cursor over `source_flows`.
    rr: usize,
}

persist!(struct NodeApp { source_flows, relay_queues, rr });

impl NodeApp {
    pub(crate) fn add_source(&mut self, flow: u16, kind: &FlowKind) {
        self.source_flows.push(flow);
        if matches!(kind, FlowKind::Relay { .. }) {
            self.relay_queues.push((flow, VecDeque::new()));
        }
    }

    /// Enqueue a sequence number onto a relay flow's queue. Returns `true`
    /// if the queue was previously empty (the MAC may need a wake-up).
    pub(crate) fn push_relay(&mut self, flow: u16, seq: u32) -> bool {
        let q = self
            .relay_queues
            .iter_mut()
            .find(|(f, _)| *f == flow)
            .map(|(_, q)| q)
            .expect("push_relay on non-relay flow");
        let was_empty = q.is_empty();
        q.push_back(seq);
        was_empty
    }

    fn flow_has_data(&self, flows: &[Flow], flow: u16) -> bool {
        match flows[flow as usize].kind {
            FlowKind::Saturated => true,
            FlowKind::Relay { .. } => self
                .relay_queues
                .iter()
                .find(|(f, _)| *f == flow)
                .is_some_and(|(_, q)| !q.is_empty()),
        }
    }

    /// True if any flow sourced here has a packet ready.
    pub(crate) fn has_data(&self, flows: &[Flow]) -> bool {
        self.source_flows
            .iter()
            .any(|&f| self.flow_has_data(flows, f))
    }

    fn pop_flow(&mut self, flows: &mut [Flow], flow: u16) -> Option<AppPacket> {
        let f = &mut flows[flow as usize];
        let flow_seq = match f.kind {
            FlowKind::Saturated => {
                let seq = f.next_seq;
                f.next_seq += 1;
                seq
            }
            FlowKind::Relay { .. } => self
                .relay_queues
                .iter_mut()
                .find(|(id, _)| *id == flow)?
                .1
                .pop_front()?,
        };
        Some(AppPacket {
            flow,
            flow_seq,
            dst: f.dst,
            dst_mac: MacAddr::from_node_index(f.dst.index() as u16),
            payload_len: f.payload_len,
        })
    }

    /// Round-robin pop across all flows with data.
    pub(crate) fn pop(&mut self, flows: &mut [Flow]) -> Option<AppPacket> {
        let n = self.source_flows.len();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            let flow = self.source_flows[idx];
            if self.flow_has_data(flows, flow) {
                self.rr = (idx + 1) % n;
                return self.pop_flow(flows, flow);
            }
        }
        None
    }

    /// Pop the next packet destined to `dst`, if any flow has one.
    pub(crate) fn pop_to(&mut self, flows: &mut [Flow], dst: NodeId) -> Option<AppPacket> {
        let n = self.source_flows.len();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            let flow = self.source_flows[idx];
            if flows[flow as usize].dst == dst && self.flow_has_data(flows, flow) {
                // Note: no cursor advance — keeps same-destination bursts
                // draining one flow before rotating.
                return self.pop_flow(flows, flow);
            }
        }
        None
    }

    /// Take over checkpointed queues and cursor. Which flows are sourced
    /// here is configuration, re-declared on the world before restore; the
    /// checkpoint only has to agree with it.
    pub(crate) fn restore(&mut self, saved: NodeApp) -> Result<(), CkptError> {
        fn relay_flows(app: &NodeApp) -> impl Iterator<Item = u16> + '_ {
            app.relay_queues.iter().map(|(flow, _)| *flow)
        }
        if saved.source_flows != self.source_flows || relay_flows(&saved).ne(relay_flows(self)) {
            return Err(CkptError::Mismatch(format!(
                "checkpoint sources flows {:?}, node is configured with {:?}",
                saved.source_flows, self.source_flows
            )));
        }
        *self = saved;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn flows() -> Vec<Flow> {
        vec![
            Flow {
                id: 0,
                src: nid(0),
                dst: nid(1),
                payload_len: 1400,
                kind: FlowKind::Saturated,
                next_seq: 0,
            },
            Flow {
                id: 1,
                src: nid(0),
                dst: nid(2),
                payload_len: 700,
                kind: FlowKind::Relay { upstream: 0 },
                next_seq: 0,
            },
        ]
    }

    fn app_with_both() -> NodeApp {
        let fl = flows();
        let mut app = NodeApp::default();
        app.add_source(0, &fl[0].kind);
        app.add_source(1, &fl[1].kind);
        app
    }

    #[test]
    fn saturated_source_always_has_data_and_counts_up() {
        let mut fl = flows();
        let mut app = NodeApp::default();
        app.add_source(0, &FlowKind::Saturated);
        assert!(app.has_data(&fl));
        let a = app.pop(&mut fl).unwrap();
        let b = app.pop(&mut fl).unwrap();
        assert_eq!(a.flow_seq, 0);
        assert_eq!(b.flow_seq, 1);
        assert_eq!(a.dst, nid(1));
        assert_eq!(a.payload_len, 1400);
    }

    #[test]
    fn relay_flow_is_empty_until_pushed() {
        let mut fl = flows();
        let mut app = NodeApp::default();
        app.add_source(1, &fl[1].kind.clone());
        assert!(!app.has_data(&fl));
        assert!(app.pop(&mut fl).is_none());
        assert!(app.push_relay(1, 42));
        assert!(!app.push_relay(1, 43));
        let p = app.pop(&mut fl).unwrap();
        assert_eq!(p.flow_seq, 42);
        assert_eq!(p.dst, nid(2));
        assert_eq!(p.payload_len, 700);
    }

    #[test]
    fn round_robin_alternates_flows() {
        let mut fl = flows();
        let mut app = app_with_both();
        app.push_relay(1, 7);
        app.push_relay(1, 8);
        let seq_flows: Vec<u16> = (0..4)
            .filter_map(|_| app.pop(&mut fl))
            .map(|p| p.flow)
            .collect();
        // Alternates while both have data, then only the saturated one.
        assert_eq!(seq_flows, vec![0, 1, 0, 1]);
    }

    #[test]
    fn pop_to_filters_by_destination() {
        let mut fl = flows();
        let mut app = app_with_both();
        app.push_relay(1, 9);
        let p = app.pop_to(&mut fl, nid(2)).unwrap();
        assert_eq!(p.flow, 1);
        assert!(app.pop_to(&mut fl, nid(2)).is_none());
        let p = app.pop_to(&mut fl, nid(1)).unwrap();
        assert_eq!(p.flow, 0);
        assert!(app.pop_to(&mut fl, nid(99)).is_none());
    }
}
