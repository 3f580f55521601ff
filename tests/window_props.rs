//! Property-based tests of the windowed ACK/retransmission bookkeeping:
//! no packet is ever lost by the *sender-side* state machinery — everything
//! ends up either acknowledged or queued for retransmission.

use proptest::prelude::*;

use cmap_suite::cmap::vpkt::{DataPkt, PeerRx, SendWindow, SentVpkt};
use cmap_suite::phy::Rate;
use cmap_suite::wire::cmap::MAX_ACK_WINDOW;
use cmap_suite::wire::MacAddr;

fn pkt(flow_seq: u32) -> DataPkt {
    DataPkt {
        flow: 0,
        flow_seq,
        payload_len: 1400,
    }
}

/// What a repack must queue, written the plain way: each vpkt's
/// unacknowledged packets, none past `max_rounds`, grouped by
/// (destination, next round) in the order the groups' first packets
/// appear, cut into lists of `n_vpkt`.
fn reference_repack(
    sent: &[SentVpkt],
    n_vpkt: usize,
    max_rounds: u32,
) -> Vec<(MacAddr, Vec<DataPkt>, u32)> {
    let mut groups: Vec<(MacAddr, Vec<DataPkt>, u32)> = Vec::new();
    for v in sent.iter().filter(|v| v.rounds < max_rounds) {
        let key = (v.dst, v.rounds + 1);
        for (i, p) in v.pkts.iter().enumerate() {
            if v.acked & (1 << i) != 0 {
                continue;
            }
            match groups.iter_mut().find(|(d, _, r)| (*d, *r) == key) {
                Some(group) => group.1.push(*p),
                None => groups.push((key.0, vec![*p], key.1)),
            }
        }
    }
    let mut lists = Vec::new();
    for (dst, pkts, rounds) in groups {
        lists.extend(pkts.chunks(n_vpkt).map(|c| (dst, c.to_vec(), rounds)));
    }
    lists
}

proptest! {
    /// Repacking queues exactly the plain grouping's lists, over several
    /// destinations and round counts, and again when the window is
    /// refilled from the lists it handed out and took back.
    #[test]
    fn repack_matches_the_grouping_by_destination_and_round(
        vpkts in proptest::collection::vec((0u16..3, 1usize..=32, 0u32..3, any::<u32>()), 1..12),
        n_vpkt in 1usize..=32,
    ) {
        let mut w = SendWindow::default();
        let mut next_flow_seq = 0u32;
        let mut sent = Vec::new();
        for &(dst, n, rounds, acked) in &vpkts {
            let dst = MacAddr::from_node_index(dst);
            let pkts = (0..n).map(|_| { next_flow_seq += 1; pkt(next_flow_seq) }).collect();
            let seq = w.alloc_seq(dst);
            sent.push(SentVpkt { dst, seq, pkts, acked, sent_at: 0, rate: Rate::R6, rounds });
        }
        for _ in 0..2 {
            let want = reference_repack(&sent, n_vpkt, 3);
            let want_total: usize = want.iter().map(|(_, p, _)| p.len()).sum();
            for v in sent.drain(..) {
                w.push_sent(v);
            }
            let (requeued, _) = w.repack_for_rtx(n_vpkt, 3);
            prop_assert_eq!(requeued, want_total);
            let mut got = Vec::new();
            while let Some((dst, pkts, rounds)) = w.pop_rtx() {
                got.push((dst, pkts.to_vec(), rounds));
            }
            prop_assert_eq!(&got, &want);
            // Send the lists again, half acknowledged.
            for (dst, pkts, rounds) in got {
                let seq = w.alloc_seq(dst);
                let pkts = pkts.into_iter().collect();
                sent.push(SentVpkt { dst, seq, pkts, acked: 0x5555_5555, sent_at: 0, rate: Rate::R6, rounds });
            }
        }
    }

    /// Fill a window with vpkts, apply arbitrary ACK bitmaps, then repack:
    /// acked + requeued == sent, with no duplicates.
    #[test]
    fn conservation_of_packets(
        sizes in proptest::collection::vec(1usize..=32, 1..=8),
        acks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16),
    ) {
        let dst = MacAddr::from_node_index(1);
        let mut w = SendWindow::default();
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
            let pkts = data.into_iter().collect();
            w.push_sent(SentVpkt { dst, seq, pkts, acked: 0, sent_at: 0, rate: Rate::R6, rounds: 0 });
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
            for p in pkts.iter() {
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
        let mut rx = PeerRx::default();
        let mut upto = 0;
        for (seq, idx, with_header) in events {
            if with_header {
                rx.on_header(seq, 32, 0);
            }
            rx.on_data(seq, idx);
            upto = upto.max(seq);
        }
        let mut bitmaps = [0u32; MAX_ACK_WINDOW];
        let (base, n, loss) = rx.build_ack_into(upto, 8, 32, &mut bitmaps);
        prop_assert!(base <= upto);
        prop_assert!((1..=8).contains(&n));
        prop_assert!((0.0..=1.0).contains(&loss), "loss {loss}");
    }

    /// ACKing twice never double-counts.
    #[test]
    fn idempotent_acks(bm in any::<u32>()) {
        let dst = MacAddr::from_node_index(1);
        let mut w = SendWindow::default();
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
