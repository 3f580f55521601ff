//! The wire unit tests that need the owned reference codec: per-kind
//! round trips and bound checks of the reference itself, and the
//! differential sweeps holding `FrameView::parse_checked` and
//! `view::compose` to it. Modules are named after the file each group covers.

mod reference;

mod cmap {
    use cmap_phy::Rate;
    use cmap_wire::{cmap as layout, crc, FrameKind, MacAddr, WireError};

    use crate::reference::cmap::*;
    use crate::reference::Frame;

    fn addr(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    #[test]
    fn header_trailer_roundtrip_and_len() {
        let h = HeaderTrailer {
            src: addr(1),
            dst: addr(2),
            tx_time_us: 61_234,
            vpkt_seq: 99,
            pkt_count: 32,
            data_rate: Rate::R18,
        };
        for kind in [FrameKind::CmapHeader, FrameKind::CmapTrailer] {
            let frame = match kind {
                FrameKind::CmapHeader => Frame::CmapHeader(h),
                _ => Frame::CmapTrailer(h),
            };
            let bytes = frame.emit();
            assert_eq!(bytes.len(), layout::HEADER_TRAILER_LEN);
            assert_eq!(bytes.len(), frame.wire_len());
            assert_eq!(Frame::parse(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn data_roundtrip() {
        let d = Data {
            src: addr(3),
            dst: addr(4),
            vpkt_seq: 7,
            index: 31,
            flow: 2,
            flow_seq: 123_456,
            payload: (0..255u8).collect(),
        };
        let frame = Frame::CmapData(d.clone());
        let bytes = frame.emit();
        assert_eq!(bytes.len(), d.wire_len());
        assert_eq!(Frame::parse(&bytes).unwrap(), frame);
    }

    #[test]
    fn data_index_bound_enforced() {
        let d = Data {
            src: addr(3),
            dst: addr(4),
            vpkt_seq: 7,
            index: 31,
            flow: 0,
            flow_seq: 0,
            payload: vec![],
        };
        let mut bytes = Frame::CmapData(d).emit();
        // Patch index to 32 (out of range) and fix the CRC.
        bytes[17] = 32;
        let body_len = bytes.len() - 4;
        bytes.truncate(body_len);
        crc::append_crc(&mut bytes);
        assert_eq!(Frame::parse(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn ack_roundtrip_and_loss_scaling() {
        let a = Ack {
            src: addr(4),
            dst: addr(3),
            base_vpkt_seq: 40,
            bitmaps: vec![u32::MAX, 0, 0xDEAD_BEEF, 1],
            loss_rate: layout::scale_loss_rate(0.5),
            il_entries: vec![InterfererEntry {
                source: addr(3),
                interferer: addr(9),
                source_rate: Rate::R12,
            }],
        };
        let frame = Frame::CmapAck(a.clone());
        let bytes = frame.emit();
        assert_eq!(bytes.len(), a.wire_len());
        let parsed = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed, frame);
        if let Frame::CmapAck(pa) = parsed {
            assert!((pa.loss_rate_fraction() - 0.5).abs() < 0.01);
        }
    }

    #[test]
    fn ack_window_bound_enforced() {
        let a = Ack {
            src: addr(1),
            dst: addr(2),
            base_vpkt_seq: 0,
            bitmaps: vec![0; MAX_ACK_WINDOW],
            loss_rate: 0,
            il_entries: vec![],
        };
        // At the bound it round-trips...
        let bytes = Frame::CmapAck(a).emit();
        assert!(Frame::parse(&bytes).is_ok());
        // ...but a forged count above the bound is rejected.
        let mut bytes2 = bytes.clone();
        bytes2[17] = (MAX_ACK_WINDOW + 1) as u8;
        let body_len = bytes2.len() - 4;
        bytes2.truncate(body_len);
        crc::append_crc(&mut bytes2);
        assert_eq!(Frame::parse(&bytes2), Err(WireError::Malformed));
    }

    #[test]
    fn interferer_list_roundtrip() {
        let il = InterfererList {
            src: addr(9),
            entries: vec![
                InterfererEntry {
                    source: addr(1),
                    interferer: addr(2),
                    source_rate: Rate::R6,
                },
                InterfererEntry {
                    source: addr(1),
                    interferer: addr(5),
                    source_rate: Rate::R54,
                },
            ],
        };
        let frame = Frame::CmapInterfererList(il.clone());
        let bytes = frame.emit();
        assert_eq!(bytes.len(), il.wire_len());
        assert_eq!(Frame::parse(&bytes).unwrap(), frame);
        assert!(frame.dst().is_broadcast());
    }

    #[test]
    fn empty_interferer_list_is_valid() {
        let il = InterfererList {
            src: addr(9),
            entries: vec![],
        };
        let bytes = Frame::CmapInterfererList(il).emit();
        assert_eq!(bytes.len(), InterfererList::OVERHEAD);
        assert!(Frame::parse(&bytes).is_ok());
    }

    #[test]
    fn truncated_interferer_list_rejected() {
        let il = InterfererList {
            src: addr(9),
            entries: vec![InterfererEntry {
                source: addr(1),
                interferer: addr(2),
                source_rate: Rate::R6,
            }],
        };
        let mut bytes = Frame::CmapInterfererList(il).emit();
        // Claim two entries but provide one.
        bytes[7] = 2;
        let body_len = bytes.len() - 4;
        bytes.truncate(body_len);
        crc::append_crc(&mut bytes);
        assert_eq!(Frame::parse(&bytes), Err(WireError::Truncated));
    }
}

mod dot11 {
    use cmap_wire::{crc, dot11 as layout, MacAddr, WireError};

    use crate::reference::dot11::*;
    use crate::reference::Frame;

    fn addr(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    #[test]
    fn data_roundtrip() {
        let d = Data {
            src: addr(1),
            dst: addr(2),
            seq: 4095,
            retry: true,
            duration_ns: 55_000,
            flow: 1,
            flow_seq: 777,
            payload: vec![0xAA; 1400],
        };
        let frame = Frame::Dot11Data(d.clone());
        let bytes = frame.emit();
        assert_eq!(bytes.len(), d.wire_len());
        assert_eq!(bytes.len(), 1400 + Data::OVERHEAD);
        assert_eq!(Frame::parse(&bytes).unwrap(), frame);
    }

    #[test]
    fn ack_is_14_bytes() {
        let a = Ack { dst: addr(1) };
        let bytes = Frame::Dot11Ack(a).emit();
        assert_eq!(bytes.len(), layout::ACK_LEN);
        assert_eq!(Frame::parse(&bytes).unwrap(), Frame::Dot11Ack(a));
    }

    #[test]
    fn ack_has_no_src() {
        let a = Frame::Dot11Ack(Ack { dst: addr(1) });
        assert_eq!(a.src(), None);
        assert_eq!(a.dst(), addr(1));
    }

    #[test]
    fn bad_retry_flag_rejected() {
        let d = Data {
            src: addr(1),
            dst: addr(2),
            seq: 0,
            retry: false,
            duration_ns: 0,
            flow: 0,
            flow_seq: 0,
            payload: vec![],
        };
        let mut bytes = Frame::Dot11Data(d).emit();
        bytes[15] = 2; // retry byte
        let body_len = bytes.len() - 4;
        bytes.truncate(body_len);
        crc::append_crc(&mut bytes);
        assert_eq!(Frame::parse(&bytes), Err(WireError::Malformed));
    }
}

mod frame {
    use cmap_wire::{crc, WireError};

    use crate::reference::Frame;

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = vec![0x7Fu8, 1, 2, 3];
        crc::append_crc(&mut buf);
        assert_eq!(Frame::parse(&buf), Err(WireError::UnknownKind(0x7F)));
    }

    #[test]
    fn bad_crc_rejected_before_kind() {
        // Even an unknown kind must first fail on CRC if the CRC is wrong.
        let buf = vec![0x7Fu8, 1, 2, 3, 0, 0, 0, 0];
        assert_eq!(Frame::parse(&buf), Err(WireError::BadCrc));
    }

    #[test]
    fn tiny_buffers_are_truncated() {
        assert_eq!(Frame::parse(&[]), Err(WireError::Truncated));
        assert_eq!(Frame::parse(&[1, 2, 3, 4]), Err(WireError::Truncated));
    }
}

mod cursor {
    use cmap_wire::{crc, MacAddr, WireError};

    use crate::reference::cursor::{Reader, Writer};

    #[test]
    fn roundtrip_all_widths() {
        let mut w = Writer::with_capacity(64);
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.mac(MacAddr::from_node_index(3));
        w.bytes(&[9, 9, 9]);
        let buf = w.finish_with_crc();

        assert!(crc::verify_trailing_crc(&buf));
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.mac().unwrap(), MacAddr::from_node_index(3));
        assert_eq!(r.take(3).unwrap(), &[9, 9, 9]);
        assert_eq!(r.remaining(), 4); // the CRC
    }

    #[test]
    fn truncation_surfaces_as_error() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // Failed read consumes nothing.
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }
}

mod view {
    use cmap_phy::Rate;
    use cmap_wire::cmap::InterfererEntry;
    use cmap_wire::view::compose;
    use cmap_wire::{crc, FrameKind, FrameView, MacAddr, WireError};

    use crate::reference::{cmap, dot11, to_frame, Frame};

    fn addr(i: u16) -> MacAddr {
        MacAddr::from_node_index(i)
    }

    fn sample_frames() -> Vec<Frame> {
        let ht = cmap::HeaderTrailer {
            src: addr(1),
            dst: addr(2),
            tx_time_us: 61_234,
            vpkt_seq: 99,
            pkt_count: 32,
            data_rate: Rate::R18,
        };
        vec![
            Frame::CmapHeader(ht),
            Frame::CmapTrailer(ht),
            Frame::CmapData(cmap::Data {
                src: addr(3),
                dst: addr(4),
                vpkt_seq: 7,
                index: 31,
                flow: 2,
                flow_seq: 123_456,
                payload: (0..=254u8).collect(),
            }),
            Frame::CmapAck(cmap::Ack {
                src: addr(4),
                dst: addr(3),
                base_vpkt_seq: 40,
                bitmaps: vec![u32::MAX, 0, 0xDEAD_BEEF, 1],
                loss_rate: 100,
                il_entries: vec![InterfererEntry {
                    source: addr(3),
                    interferer: addr(9),
                    source_rate: Rate::R12,
                }],
            }),
            Frame::CmapAck(cmap::Ack {
                src: addr(4),
                dst: addr(3),
                base_vpkt_seq: 0,
                bitmaps: vec![],
                loss_rate: 0,
                il_entries: vec![],
            }),
            Frame::CmapInterfererList(cmap::InterfererList {
                src: addr(9),
                entries: vec![
                    InterfererEntry {
                        source: addr(1),
                        interferer: addr(2),
                        source_rate: Rate::R6,
                    },
                    InterfererEntry {
                        source: addr(1),
                        interferer: addr(5),
                        source_rate: Rate::R54,
                    },
                ],
            }),
            Frame::Dot11Data(dot11::Data {
                src: addr(1),
                dst: addr(2),
                seq: 4095,
                retry: true,
                duration_ns: 55_000,
                flow: 1,
                flow_seq: 777,
                payload: vec![0xAA; 1400],
            }),
            Frame::Dot11Ack(dot11::Ack { dst: addr(1) }),
        ]
    }

    #[test]
    fn view_parse_matches_frame_parse_on_valid_frames() {
        for frame in sample_frames() {
            let bytes = frame.emit();
            let view = FrameView::parse_checked(&bytes).expect("valid frame");
            assert_eq!(to_frame(&view), frame);
            assert_eq!(view.kind(), frame.kind());
            assert_eq!(view.src(), frame.src());
            assert_eq!(view.dst(), frame.dst());
            assert_eq!(view.wire_len(), frame.wire_len());
            // Trusted parse accepts the same frames.
            assert_eq!(to_frame(&FrameView::parse(&bytes).unwrap()), frame);
        }
    }

    #[test]
    fn compose_matches_emit_per_kind() {
        let mut buf = Vec::new();
        compose::header_trailer(
            &mut buf,
            FrameKind::CmapHeader,
            addr(1),
            addr(2),
            61_234,
            99,
            32,
            Rate::R18,
        );
        assert_eq!(buf, sample_frames()[0].emit());
        compose::header_trailer(
            &mut buf,
            FrameKind::CmapTrailer,
            addr(1),
            addr(2),
            61_234,
            99,
            32,
            Rate::R18,
        );
        assert_eq!(buf, sample_frames()[1].emit());

        let d = cmap::Data {
            src: addr(3),
            dst: addr(4),
            vpkt_seq: 7,
            index: 31,
            flow: 2,
            flow_seq: 123_456,
            payload: vec![0xC5; 300],
        };
        compose::cmap_data(
            &mut buf, d.src, d.dst, d.vpkt_seq, d.index, d.flow, d.flow_seq, 300, 0xC5,
        );
        assert_eq!(buf, Frame::CmapData(d).emit());

        let a = cmap::Ack {
            src: addr(4),
            dst: addr(3),
            base_vpkt_seq: 40,
            bitmaps: vec![u32::MAX, 0, 0xDEAD_BEEF, 1],
            loss_rate: 100,
            il_entries: vec![InterfererEntry {
                source: addr(3),
                interferer: addr(9),
                source_rate: Rate::R12,
            }],
        };
        compose::cmap_ack(
            &mut buf,
            a.src,
            a.dst,
            a.base_vpkt_seq,
            &a.bitmaps,
            a.loss_rate,
            &a.il_entries,
        );
        assert_eq!(buf, Frame::CmapAck(a).emit());

        let il = cmap::InterfererList {
            src: addr(9),
            entries: vec![InterfererEntry {
                source: addr(1),
                interferer: addr(2),
                source_rate: Rate::R6,
            }],
        };
        compose::interferer_list(&mut buf, il.src, &il.entries);
        assert_eq!(buf, Frame::CmapInterfererList(il).emit());

        let dd = dot11::Data {
            src: addr(1),
            dst: addr(2),
            seq: 9,
            retry: false,
            duration_ns: 44_000,
            flow: 3,
            flow_seq: 17,
            payload: vec![0xC5; 1400],
        };
        compose::dot11_data(
            &mut buf,
            dd.src,
            dd.dst,
            dd.seq,
            dd.retry,
            dd.duration_ns,
            dd.flow,
            dd.flow_seq,
            1400,
            0xC5,
        );
        assert_eq!(buf, Frame::Dot11Data(dd).emit());

        compose::dot11_ack(&mut buf, addr(1));
        assert_eq!(buf, Frame::Dot11Ack(dot11::Ack { dst: addr(1) }).emit());
    }

    #[test]
    fn parse_checked_rejects_what_frame_parse_rejects() {
        // Corrupt every byte position of every sample frame in turn; the
        // view must agree with the reference parser on accept/reject *and*
        // on the error kind.
        for frame in sample_frames() {
            let bytes = frame.emit();
            for i in 0..bytes.len() {
                for delta in [1u8, 0x80] {
                    let mut mutated = bytes.clone();
                    mutated[i] ^= delta;
                    assert_eq!(
                        FrameView::parse_checked(&mutated).map(|v| to_frame(&v)),
                        Frame::parse(&mutated),
                        "kind {:?}, byte {i}, delta {delta:#x}",
                        frame.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn parse_checked_rejects_truncations_like_frame_parse() {
        for frame in sample_frames() {
            let bytes = frame.emit();
            for cut in 0..bytes.len() {
                // Re-CRC the truncated body so the structural checks (not
                // just the CRC) are what's exercised.
                let mut t = bytes[..cut].to_vec();
                if cut >= 1 {
                    crc::append_crc(&mut t);
                }
                assert_eq!(
                    FrameView::parse_checked(&t).map(|v| to_frame(&v)),
                    Frame::parse(&t),
                    "kind {:?}, cut {cut}",
                    frame.kind()
                );
            }
        }
    }

    #[test]
    fn trusted_parse_skips_crc_only() {
        let bytes = sample_frames()[0].emit();
        let mut bad_crc = bytes.clone();
        let n = bad_crc.len();
        bad_crc[n - 1] ^= 0xFF;
        // parse_checked mirrors Frame::parse (CRC error)...
        assert_eq!(
            FrameView::parse_checked(&bad_crc).err(),
            Some(WireError::BadCrc)
        );
        assert_eq!(Frame::parse(&bad_crc), Err(WireError::BadCrc));
        // ...while the trusted parse still reads the structure.
        assert!(FrameView::parse(&bad_crc).is_ok());
    }
}
