//! Property-based tests for the wire formats: every representable frame
//! round-trips byte-exactly, any single-byte corruption is rejected, and
//! the product codec (`FrameView` + `view::compose`) agrees with the owned
//! reference codec that lives beside `cmap-wire`'s own tests.

use proptest::prelude::*;

use cmap_suite::phy::Rate;
use cmap_suite::wire::view::compose;
use cmap_suite::wire::{FrameView, MacAddr};

#[path = "../crates/wire/tests/reference/mod.rs"]
mod reference;
use reference::{cmap, dot11, to_frame, Frame};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_rate() -> impl Strategy<Value = Rate> {
    (0u8..8).prop_map(|v| Rate::from_u8(v).expect("rate code"))
}

fn arb_entry() -> impl Strategy<Value = cmap::InterfererEntry> {
    (arb_mac(), arb_mac(), arb_rate()).prop_map(|(source, interferer, source_rate)| {
        cmap::InterfererEntry {
            source,
            interferer,
            source_rate,
        }
    })
}

prop_compose! {
    fn arb_header_trailer()(
        src in arb_mac(),
        dst in arb_mac(),
        tx_time_us in any::<u32>(),
        vpkt_seq in any::<u32>(),
        pkt_count in 0u8..=32,
        data_rate in arb_rate(),
        is_trailer in any::<bool>(),
    ) -> Frame {
        let body = cmap::HeaderTrailer { src, dst, tx_time_us, vpkt_seq, pkt_count, data_rate };
        if is_trailer { Frame::CmapTrailer(body) } else { Frame::CmapHeader(body) }
    }
}

prop_compose! {
    fn arb_data()(
        src in arb_mac(),
        dst in arb_mac(),
        vpkt_seq in any::<u32>(),
        index in 0u8..32,
        flow in any::<u16>(),
        flow_seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) -> Frame {
        Frame::CmapData(cmap::Data { src, dst, vpkt_seq, index, flow, flow_seq, payload })
    }
}

prop_compose! {
    fn arb_ack()(
        src in arb_mac(),
        dst in arb_mac(),
        base_vpkt_seq in any::<u32>(),
        bitmaps in proptest::collection::vec(any::<u32>(), 0..=cmap::MAX_ACK_WINDOW),
        loss_rate in any::<u8>(),
        il_entries in proptest::collection::vec(arb_entry(), 0..=8),
    ) -> Frame {
        Frame::CmapAck(cmap::Ack { src, dst, base_vpkt_seq, bitmaps, loss_rate, il_entries })
    }
}

prop_compose! {
    fn arb_il()(
        src in arb_mac(),
        entries in proptest::collection::vec(arb_entry(), 0..=40),
    ) -> Frame {
        Frame::CmapInterfererList(cmap::InterfererList { src, entries })
    }
}

prop_compose! {
    fn arb_dot11_data()(
        src in arb_mac(),
        dst in arb_mac(),
        seq in any::<u16>(),
        retry in any::<bool>(),
        duration_ns in any::<u32>(),
        flow in any::<u16>(),
        flow_seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) -> Frame {
        Frame::Dot11Data(dot11::Data { src, dst, seq, retry, duration_ns, flow, flow_seq, payload })
    }
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_header_trailer(),
        arb_data(),
        arb_ack(),
        arb_il(),
        arb_dot11_data(),
        arb_mac().prop_map(|dst| Frame::Dot11Ack(dot11::Ack { dst })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip(frame in arb_frame()) {
        let bytes = frame.emit();
        prop_assert_eq!(bytes.len(), frame.wire_len());
        let parsed = Frame::parse(&bytes).expect("roundtrip parse");
        prop_assert_eq!(parsed, frame);
    }

    #[test]
    fn corruption_detected(frame in arb_frame(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = frame.emit();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        // Either the CRC rejects it, or (vanishingly unlikely here, single
        // bit flip) it parses to a *different* frame — it must never parse
        // back to the original.
        if let Ok(parsed) = Frame::parse(&bytes) {
            prop_assert_ne!(parsed, frame);
        }
    }

    #[test]
    fn truncation_never_panics(frame in arb_frame(), keep in any::<prop::sample::Index>()) {
        let bytes = frame.emit();
        let k = keep.index(bytes.len() + 1);
        let _ = Frame::parse(&bytes[..k]); // must not panic
    }

    /// The zero-copy view over emitted bytes agrees with the owned parser
    /// on every frame kind: converting the view back to a `Frame` is the
    /// identity, and the per-kind accessors read the same fields.
    #[test]
    fn view_agrees_with_frame_parse(frame in arb_frame()) {
        let bytes = frame.emit();
        let view = FrameView::parse_checked(&bytes).expect("view parse");
        prop_assert_eq!(view.wire_len(), bytes.len());
        prop_assert_eq!(to_frame(&view), frame.clone());
        match (&frame, &view) {
            (Frame::CmapHeader(h), FrameView::CmapHeader(v))
            | (Frame::CmapTrailer(h), FrameView::CmapTrailer(v)) => {
                prop_assert_eq!(v.src(), h.src);
                prop_assert_eq!(v.dst(), h.dst);
                prop_assert_eq!(v.tx_time_us(), h.tx_time_us);
                prop_assert_eq!(v.vpkt_seq(), h.vpkt_seq);
                prop_assert_eq!(v.pkt_count(), h.pkt_count);
                prop_assert_eq!(v.data_rate(), h.data_rate);
            }
            (Frame::CmapData(d), FrameView::CmapData(v)) => {
                prop_assert_eq!(v.src(), d.src);
                prop_assert_eq!(v.dst(), d.dst);
                prop_assert_eq!(v.vpkt_seq(), d.vpkt_seq);
                prop_assert_eq!(v.index(), d.index);
                prop_assert_eq!(v.flow(), d.flow);
                prop_assert_eq!(v.flow_seq(), d.flow_seq);
                prop_assert_eq!(v.payload(), &d.payload[..]);
            }
            (Frame::CmapAck(a), FrameView::CmapAck(v)) => {
                prop_assert_eq!(v.src(), a.src);
                prop_assert_eq!(v.dst(), a.dst);
                prop_assert_eq!(v.base_vpkt_seq(), a.base_vpkt_seq);
                prop_assert_eq!(v.bitmap_count(), a.bitmaps.len());
                for (i, &bm) in a.bitmaps.iter().enumerate() {
                    prop_assert_eq!(v.bitmap(i), bm);
                }
                prop_assert_eq!(v.loss_rate(), a.loss_rate);
                let entries: Vec<_> = v.il_entries().collect();
                prop_assert_eq!(&entries[..], &a.il_entries[..]);
            }
            (Frame::CmapInterfererList(il), FrameView::CmapInterfererList(v)) => {
                prop_assert_eq!(v.src(), il.src);
                let entries: Vec<_> = v.entries().collect();
                prop_assert_eq!(&entries[..], &il.entries[..]);
            }
            (Frame::Dot11Data(d), FrameView::Dot11Data(v)) => {
                prop_assert_eq!(v.src(), d.src);
                prop_assert_eq!(v.dst(), d.dst);
                prop_assert_eq!(v.seq(), d.seq);
                prop_assert_eq!(v.retry(), d.retry);
                prop_assert_eq!(v.duration_ns(), d.duration_ns);
                prop_assert_eq!(v.flow(), d.flow);
                prop_assert_eq!(v.flow_seq(), d.flow_seq);
                prop_assert_eq!(v.payload(), &d.payload[..]);
            }
            (Frame::Dot11Ack(a), FrameView::Dot11Ack(v)) => {
                prop_assert_eq!(v.dst(), a.dst);
            }
            (f, v) => prop_assert!(false, "kind mismatch: {:?} vs {:?}", f, v),
        }
    }

    /// The pool-slot composers are byte-identical to `Frame::emit` for
    /// every frame the MACs build (payloads are a repeated fill byte, as in
    /// the engine's synthetic traffic).
    #[test]
    fn compose_matches_emit(frame in arb_frame(), fill in any::<u8>(), payload_len in 0usize..2048) {
        let mut buf = Vec::new();
        let reference = match frame {
            Frame::CmapHeader(h) => {
                compose::header_trailer(
                    &mut buf,
                    cmap_suite::wire::FrameKind::CmapHeader,
                    h.src, h.dst, h.tx_time_us, h.vpkt_seq, h.pkt_count, h.data_rate,
                );
                Frame::CmapHeader(h)
            }
            Frame::CmapTrailer(h) => {
                compose::header_trailer(
                    &mut buf,
                    cmap_suite::wire::FrameKind::CmapTrailer,
                    h.src, h.dst, h.tx_time_us, h.vpkt_seq, h.pkt_count, h.data_rate,
                );
                Frame::CmapTrailer(h)
            }
            Frame::CmapData(d) => {
                compose::cmap_data(
                    &mut buf, d.src, d.dst, d.vpkt_seq, d.index, d.flow, d.flow_seq,
                    payload_len, fill,
                );
                Frame::CmapData(cmap::Data { payload: vec![fill; payload_len], ..d })
            }
            Frame::CmapAck(a) => {
                compose::cmap_ack(
                    &mut buf, a.src, a.dst, a.base_vpkt_seq, &a.bitmaps, a.loss_rate,
                    &a.il_entries,
                );
                Frame::CmapAck(a)
            }
            Frame::CmapInterfererList(il) => {
                compose::interferer_list(&mut buf, il.src, &il.entries);
                Frame::CmapInterfererList(il)
            }
            Frame::Dot11Data(d) => {
                compose::dot11_data(
                    &mut buf, d.src, d.dst, d.seq, d.retry, d.duration_ns, d.flow,
                    d.flow_seq, payload_len, fill,
                );
                Frame::Dot11Data(dot11::Data { payload: vec![fill; payload_len], ..d })
            }
            Frame::Dot11Ack(a) => {
                compose::dot11_ack(&mut buf, a.dst);
                Frame::Dot11Ack(a)
            }
        };
        prop_assert_eq!(&buf, &reference.emit());
    }
}
