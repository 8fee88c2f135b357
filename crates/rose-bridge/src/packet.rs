//! The RoSÉ wire protocol.
//!
//! "Packets consist of a header, containing the packet type and number of
//! bytes, as well as a payload containing the serialized contents of the
//! message" (Section 3.4.1). Two families exist:
//!
//! * **synchronization packets** ([`Packet::GrantCycles`],
//!   [`Packet::CyclesDone`], [`Packet::FramesDone`], [`Packet::Resync`],
//!   [`Packet::Shutdown`]) — simulator control, invisible to the modeled
//!   SoC;
//! * **data packets** ([`Packet::Data`]) — sensor and actuator payloads,
//!   the only packets exposed through the RoSÉ BRIDGE queues.
//!
//! Recovery additions (DESIGN.md §4h): data packets carry a sequence
//! number so either side can deduplicate retransmissions after a
//! reconnect; grants and completions carry the quantum index so a
//! re-delivered grant for an already-completed quantum is answered from
//! the server's retransmit buffer instead of re-running the RTL (which
//! would diverge the simulated state). [`Packet::Resync`] opens that
//! handshake: each side announces the next data sequence number it
//! expects and the last quantum it has completed.

use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::fmt;

/// Wire packet type tags.
const TAG_GRANT: u8 = 0x01;
const TAG_CYCLES_DONE: u8 = 0x02;
const TAG_FRAMES_DONE: u8 = 0x03;
const TAG_DATA: u8 = 0x04;
const TAG_SHUTDOWN: u8 = 0x05;
const TAG_RESYNC: u8 = 0x06;

/// Header length: 1 tag byte + 4 length bytes.
pub const HEADER_LEN: usize = 5;

/// Maximum accepted payload (prevents unbounded allocation on a corrupt
/// length field).
pub const MAX_PAYLOAD: usize = 16 << 20;

/// A protocol packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Sync: grant the RTL simulation `cycles` of execution
    /// (`set_firesim_steps` / `allocate_rtl_frames` in Algorithm 1).
    GrantCycles {
        /// Cycles granted for the coming synchronization period.
        cycles: u64,
        /// Index of the quantum this grant opens (0-based). A server that
        /// already completed this quantum retransmits its buffered results
        /// instead of re-running the grant.
        quantum: u64,
    },
    /// Sync: the RTL side reports it has consumed its grant.
    CyclesDone {
        /// Cycles actually executed.
        cycles: u64,
        /// Index of the quantum this completion closes.
        quantum: u64,
    },
    /// Sync: the environment side reports it finished its frames.
    FramesDone {
        /// Frames executed.
        frames: u64,
    },
    /// A data packet: serialized sensor/actuator message, opaque here.
    Data {
        /// Per-direction sequence number (each sender numbers its own
        /// stream from 0). Receivers drop `seq < expected` as
        /// retransmitted duplicates.
        seq: u32,
        /// The serialized message.
        payload: Vec<u8>,
    },
    /// Sync: orderly end of simulation.
    Shutdown,
    /// Sync: sequence-resync handshake after a reconnect. Each side sends
    /// one `Resync` announcing what it already holds; the peer then
    /// retransmits exactly the gap.
    Resync {
        /// The next data sequence number the sender expects to receive
        /// (everything below it has been delivered and processed).
        expect_rx: u32,
        /// The last quantum index the sender has fully completed, plus
        /// one; 0 when none has completed yet.
        quantum: u64,
    },
}

/// A packet decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not yet hold a complete packet (read more bytes).
    Incomplete,
    /// Unknown packet tag.
    BadTag(u8),
    /// Length field exceeds [`MAX_PAYLOAD`] or mismatches the tag.
    BadLength(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Incomplete => write!(f, "incomplete packet"),
            DecodeError::BadTag(t) => write!(f, "unknown packet tag {t:#04x}"),
            DecodeError::BadLength(n) => write!(f, "invalid payload length {n}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Packet {
    /// Serializes the packet into `w`.
    pub fn encode(&self, w: &mut SnapWriter) {
        match self {
            Packet::GrantCycles { cycles, quantum } => {
                w.u8(TAG_GRANT);
                w.u32(16);
                w.u64(*cycles);
                w.u64(*quantum);
            }
            Packet::CyclesDone { cycles, quantum } => {
                w.u8(TAG_CYCLES_DONE);
                w.u32(16);
                w.u64(*cycles);
                w.u64(*quantum);
            }
            Packet::FramesDone { frames } => {
                w.u8(TAG_FRAMES_DONE);
                w.u32(8);
                w.u64(*frames);
            }
            Packet::Data { seq, payload } => {
                w.u8(TAG_DATA);
                // rose-lint: allow(CAST001, payload length is bounded by MAX_PAYLOAD well below u32::MAX)
                w.u32(4 + payload.len() as u32);
                w.u32(*seq);
                w.append(payload);
            }
            Packet::Shutdown => {
                w.u8(TAG_SHUTDOWN);
                w.u32(0);
            }
            Packet::Resync { expect_rx, quantum } => {
                w.u8(TAG_RESYNC);
                w.u32(12);
                w.u32(*expect_rx);
                w.u64(*quantum);
            }
        }
    }

    /// Serializes to a standalone byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Attempts to decode one packet from the front of `buf`. On success
    /// returns the packet and the number of bytes it occupied (header plus
    /// payload); bytes past that belong to the next packet.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Incomplete`] if more bytes are needed;
    /// [`DecodeError::BadTag`]/[`DecodeError::BadLength`] on corrupt input.
    pub fn decode(buf: &[u8]) -> Result<(Packet, usize), DecodeError> {
        let mut r = SnapReader::new(buf);
        let (Ok(tag), Ok(len)) = (r.u8(), r.u32()) else {
            return Err(DecodeError::Incomplete);
        };
        // rose-lint: allow(CAST001, u32 to usize widens on supported targets and len is bounds-checked on the next line)
        let len = len as usize;
        if len > MAX_PAYLOAD {
            return Err(DecodeError::BadLength(len));
        }
        let fixed = |expected: usize| {
            if len == expected {
                Ok(())
            } else {
                Err(DecodeError::BadLength(len))
            }
        };
        match tag {
            TAG_GRANT | TAG_CYCLES_DONE => fixed(16)?,
            TAG_FRAMES_DONE => fixed(8)?,
            TAG_RESYNC => fixed(12)?,
            TAG_SHUTDOWN => fixed(0)?,
            // A data packet carries at least its 4-byte sequence number.
            TAG_DATA if len < 4 => return Err(DecodeError::BadLength(len)),
            TAG_DATA => {}
            t => return Err(DecodeError::BadTag(t)),
        }
        let body = r.take(len).map_err(|_| DecodeError::Incomplete)?;
        let packet = Packet::decode_body(tag, &mut SnapReader::new(body))
            .map_err(|_| DecodeError::BadLength(len))?;
        Ok((packet, HEADER_LEN + len))
    }

    /// Reads the fields of a packet whose tag and length were validated.
    fn decode_body(tag: u8, r: &mut SnapReader<'_>) -> Result<Packet, SnapError> {
        Ok(match tag {
            TAG_GRANT => Packet::GrantCycles {
                cycles: r.u64()?,
                quantum: r.u64()?,
            },
            TAG_CYCLES_DONE => Packet::CyclesDone {
                cycles: r.u64()?,
                quantum: r.u64()?,
            },
            TAG_FRAMES_DONE => Packet::FramesDone { frames: r.u64()? },
            TAG_DATA => Packet::Data {
                seq: r.u32()?,
                payload: r.take(r.remaining())?.to_vec(),
            },
            TAG_SHUTDOWN => Packet::Shutdown,
            TAG_RESYNC => Packet::Resync {
                expect_rx: r.u32()?,
                quantum: r.u64()?,
            },
            tag => {
                return Err(SnapError::BadTag {
                    context: "packet",
                    tag,
                })
            }
        })
    }

    /// True for synchronization packets (invisible to the modeled SoC).
    pub fn is_sync(&self) -> bool {
        !matches!(self, Packet::Data { .. })
    }

    /// The packet kind as a static label (protocol-error reporting).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Packet::GrantCycles { .. } => "GrantCycles",
            Packet::CyclesDone { .. } => "CyclesDone",
            Packet::FramesDone { .. } => "FramesDone",
            Packet::Data { .. } => "Data",
            Packet::Shutdown => "Shutdown",
            Packet::Resync { .. } => "Resync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(pkt: Packet) {
        let buf = pkt.to_bytes();
        assert_eq!(Packet::decode(&buf), Ok((pkt, buf.len())));
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Packet::GrantCycles {
            cycles: 16_666_666,
            quantum: 0,
        });
        roundtrip(Packet::CyclesDone {
            cycles: 1,
            quantum: u64::MAX,
        });
        roundtrip(Packet::FramesDone { frames: 40 });
        roundtrip(Packet::Data {
            seq: 7,
            payload: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Packet::Data {
            seq: u32::MAX,
            payload: vec![],
        });
        roundtrip(Packet::Shutdown);
        roundtrip(Packet::Resync {
            expect_rx: 42,
            quantum: 9,
        });
    }

    #[test]
    fn incomplete_buffers_wait_for_more() {
        let full = Packet::Data {
            seq: 3,
            payload: vec![7; 100],
        }
        .to_bytes();
        for cut in [0, 1, 4, HEADER_LEN, HEADER_LEN + 50] {
            assert_eq!(Packet::decode(&full[..cut]), Err(DecodeError::Incomplete));
        }
    }

    #[test]
    fn back_to_back_packets_stream() {
        let mut w = SnapWriter::new();
        Packet::GrantCycles {
            cycles: 5,
            quantum: 2,
        }
        .encode(&mut w);
        Packet::Data {
            seq: 0,
            payload: vec![9, 9],
        }
        .encode(&mut w);
        Packet::Shutdown.encode(&mut w);
        let buf = w.into_bytes();
        let (first, n1) = Packet::decode(&buf).unwrap();
        assert_eq!(
            first,
            Packet::GrantCycles {
                cycles: 5,
                quantum: 2
            }
        );
        let (second, n2) = Packet::decode(&buf[n1..]).unwrap();
        assert_eq!(
            second,
            Packet::Data {
                seq: 0,
                payload: vec![9, 9]
            }
        );
        let (third, n3) = Packet::decode(&buf[n1 + n2..]).unwrap();
        assert_eq!(third, Packet::Shutdown);
        assert_eq!(n1 + n2 + n3, buf.len());
        assert_eq!(Packet::decode(&[]), Err(DecodeError::Incomplete));
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut raw = Packet::Shutdown.to_bytes();
        raw[0] = 0x7f;
        assert_eq!(Packet::decode(&raw), Err(DecodeError::BadTag(0x7f)));
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut raw = Packet::GrantCycles {
            cycles: 1,
            quantum: 0,
        }
        .to_bytes();
        raw[1] = 9; // length must be exactly 16
        assert_eq!(Packet::decode(&raw), Err(DecodeError::BadLength(9)));
        // Oversized data payload length.
        let mut raw = Packet::Data {
            seq: 0,
            payload: vec![],
        }
        .to_bytes();
        raw[1..5].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Packet::decode(&raw),
            Err(DecodeError::BadLength(_))
        ));
        // A data packet shorter than its sequence number is malformed —
        // it must be rejected, not decoded with garbage seq.
        let mut raw = Packet::Data {
            seq: 0,
            payload: vec![],
        }
        .to_bytes();
        raw[1..5].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            Packet::decode(&raw[..4 + 1]),
            Err(DecodeError::BadLength(3))
        );
        // Resync with a truncated length field.
        let mut raw = Packet::Resync {
            expect_rx: 1,
            quantum: 1,
        }
        .to_bytes();
        raw[1] = 4;
        assert_eq!(Packet::decode(&raw), Err(DecodeError::BadLength(4)));
    }

    #[test]
    fn sync_vs_data_classification() {
        assert!(Packet::GrantCycles {
            cycles: 0,
            quantum: 0
        }
        .is_sync());
        assert!(Packet::Shutdown.is_sync());
        assert!(Packet::Resync {
            expect_rx: 0,
            quantum: 0
        }
        .is_sync());
        assert!(!Packet::Data {
            seq: 0,
            payload: vec![]
        }
        .is_sync());
    }

    #[test]
    fn kind_names_cover_every_variant() {
        assert_eq!(
            Packet::GrantCycles {
                cycles: 0,
                quantum: 0
            }
            .kind_name(),
            "GrantCycles"
        );
        assert_eq!(
            Packet::Resync {
                expect_rx: 0,
                quantum: 0
            }
            .kind_name(),
            "Resync"
        );
        assert_eq!(
            Packet::Data {
                seq: 0,
                payload: vec![]
            }
            .kind_name(),
            "Data"
        );
    }

    #[test]
    fn data_wire_length_includes_sequence_number() {
        let raw = Packet::Data {
            seq: 1,
            payload: vec![0xAA; 10],
        }
        .to_bytes();
        assert_eq!(raw.len(), HEADER_LEN + 4 + 10);
        let len = u32::from_le_bytes([raw[1], raw[2], raw[3], raw[4]]);
        assert_eq!(len, 14);
    }
}
