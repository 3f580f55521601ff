//! Property-based tests of the windowed ACK/retransmission bookkeeping:
//! no packet is ever lost by the *sender-side* state machinery — everything
//! ends up either acknowledged or queued for retransmission.

use proptest::prelude::*;

use cmap_suite::cmap::vpkt::{DataPkt, PeerRx, SendWindow, SentVpkt};
use cmap_suite::phy::Rate;
use cmap_suite::wire::MacAddr;

fn pkt(flow_seq: u32) -> DataPkt {
    DataPkt {
        flow: 0,
        flow_seq,
        payload_len: 1400,
    }
}

proptest! {
    /// Fill a window with vpkts, apply arbitrary ACK bitmaps, then repack:
    /// acked + requeued == sent, with no duplicates.
    #[test]
    fn conservation_of_packets(
        sizes in proptest::collection::vec(1usize..=32, 1..=8),
        acks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16),
    ) {
        let dst = MacAddr::from_node_index(1);
        let mut w = SendWindow::new();
        let mut next_flow_seq = 0u32;
        let mut all_sent = Vec::new();
        for pkts in &sizes {
            let seq = w.alloc_seq(dst);
            let data: Vec<DataPkt> = (0..*pkts).map(|_| {
                let p = pkt(next_flow_seq);
                next_flow_seq += 1;
                p
            }).collect();
            all_sent.extend(data.iter().map(|p| p.flow_seq));
            w.push_sent(SentVpkt { dst, seq, pkts: data, acked: 0, sent_at: 0, rate: Rate::R6, rounds: 0 });
        }

        let mut acked_total = 0usize;
        for (base_raw, bm) in acks {
            let base = base_raw % (sizes.len() as u32 + 2);
            acked_total += w.on_ack(dst, base, &[bm, bm.rotate_left(7), bm ^ 0xFFFF]);
        }
        let (requeued, gave_up) = w.repack_for_rtx(32, u32::MAX);
        prop_assert_eq!(gave_up, 0, "fresh vpkts never give up");
        prop_assert_eq!(acked_total + requeued, all_sent.len());
        prop_assert_eq!(w.outstanding(), 0);

        // Every requeued packet is one of the originals, no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        while let Some((d, pkts, rounds)) = w.pop_rtx() {
            prop_assert_eq!(d, dst);
            prop_assert_eq!(rounds, 1);
            for p in pkts {
                prop_assert!(seen.insert(p.flow_seq), "duplicate {}", p.flow_seq);
                prop_assert!(all_sent.contains(&p.flow_seq));
            }
        }
        prop_assert_eq!(seen.len(), requeued);
    }

    /// Receiver-side ACK construction never reports more received packets
    /// than expected, and the loss rate is a valid fraction.
    #[test]
    fn receiver_loss_rate_is_sane(
        events in proptest::collection::vec((0u32..20, 0u8..32, any::<bool>()), 1..200),
    ) {
        let mut rx = PeerRx::new();
        let mut upto = 0;
        for (seq, idx, with_header) in events {
            if with_header {
                rx.on_header(seq, 32, 0);
            }
            rx.on_data(seq, idx);
            upto = upto.max(seq);
        }
        let (base, bitmaps, loss) = rx.build_ack(upto, 8, 32);
        prop_assert!(base <= upto);
        prop_assert!(!bitmaps.is_empty() && bitmaps.len() <= 8);
        prop_assert!((0.0..=1.0).contains(&loss), "loss {loss}");
    }

    /// ACKing twice never double-counts.
    #[test]
    fn idempotent_acks(bm in any::<u32>()) {
        let dst = MacAddr::from_node_index(1);
        let mut w = SendWindow::new();
        let seq = w.alloc_seq(dst);
        w.push_sent(SentVpkt {
            dst,
            seq,
            pkts: (0..32).map(pkt).collect(),
            acked: 0,
            sent_at: 0,
            rate: Rate::R6,
            rounds: 0,
        });
        let first = w.on_ack(dst, 0, &[bm]);
        let second = w.on_ack(dst, 0, &[bm]);
        prop_assert_eq!(first, bm.count_ones() as usize);
        prop_assert_eq!(second, 0);
    }
}
