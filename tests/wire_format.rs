//! Golden wire-format test: pins the exact bytes of every bridge packet
//! and every application message.
//!
//! The codec unit tests only roundtrip, so an encoder and a decoder that
//! drift together would still pass them. This table fixes the bytes
//! themselves: a `{tag u8, len u32}` header plus a little-endian payload
//! for packets, one tag byte plus little-endian fields for messages.

use rose::message::{AppMessage, TrailInfo};
use rose_bridge::packet::Packet;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn packet_wire_bytes_are_pinned() {
    let table: [(Packet, &str); 7] = [
        (
            Packet::GrantCycles {
                cycles: 0x0102_0304_0506_0708,
                quantum: 9,
            },
            "011000000008070605040302010900000000000000",
        ),
        (
            Packet::CyclesDone {
                cycles: 1,
                quantum: u64::MAX,
            },
            "02100000000100000000000000ffffffffffffffff",
        ),
        (
            Packet::FramesDone { frames: 40 },
            "03080000002800000000000000",
        ),
        (
            Packet::Data {
                seq: 0xdead_beef,
                payload: vec![0xaa, 0xbb, 0xcc],
            },
            "0407000000efbeaddeaabbcc",
        ),
        (
            Packet::Data {
                seq: 7,
                payload: vec![],
            },
            "040400000007000000",
        ),
        (Packet::Shutdown, "0500000000"),
        (
            Packet::Resync {
                expect_rx: 42,
                quantum: 0x1_0000_0001,
            },
            "060c0000002a0000000100000001000000",
        ),
    ];
    for (packet, want) in table {
        assert_eq!(hex(&packet.to_bytes()), want, "{packet:?}");
    }
}

#[test]
fn app_message_wire_bytes_are_pinned() {
    let table: [(AppMessage, &str); 7] = [
        (AppMessage::ImageRequest, "10"),
        (AppMessage::DepthRequest, "11"),
        (AppMessage::ImuRequest, "12"),
        (
            AppMessage::Imu {
                accel: [1.0, -2.0, 0.5],
                gyro: [0.0, -0.0, 0.25],
            },
            "22000000000000f03f00000000000000c0000000000000e03f00000000000000000000000000000080000000000000d03f",
        ),
        (
            AppMessage::Image {
                width: 3,
                height: 2,
                pixels: vec![1, 2, 3, 4, 5, 6],
                trail: TrailInfo {
                    lateral_offset: -0.5,
                    heading_error: 0.125,
                    half_width: 1.5,
                    progress: 2.0,
                },
            },
            "200300020006000000010203040506000000000000e0bf000000000000c03f000000000000f83f0000000000000040",
        ),
        (AppMessage::Depth { depth: 17.25 }, "210000000000403140"),
        (
            AppMessage::Command {
                forward: 3.0,
                lateral: -0.5,
                yaw_rate: 0.25,
                altitude: 1.5,
            },
            "300000000000000840000000000000e0bf000000000000d03f000000000000f83f",
        ),
    ];
    for (msg, want) in table {
        let bytes = msg.encode();
        assert_eq!(hex(&bytes), want, "{msg:?}");
        assert_eq!(AppMessage::decode(&bytes), Ok(msg));
    }
}
