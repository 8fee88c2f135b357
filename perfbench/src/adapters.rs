//! Endpoint adapters for the traced run: thin wrappers over the public
//! `EnvSide`, `RtlSide` and `Transport` traits that time every call the
//! synchronizer (or `serve_rtl`) makes and forward it unchanged.
//!
//! Each adapter keeps its own span buffer, so the RTL adapter can run on
//! the synchronizer's worker thread (Parallel mode) or on the TCP server
//! thread without sharing a lock with the environment side.

use crate::spans::{Epoch, Raw};
use rose_bridge::packet::Packet;
use rose_bridge::sync::{EnvSide, RtlSide};
use rose_bridge::transport::{Transport, TransportError};
use std::time::Duration;

/// Times `EnvSide` calls.
#[derive(Debug)]
pub struct TracedEnv<E> {
    /// The wrapped endpoint.
    pub inner: E,
    epoch: Epoch,
    /// Recorded calls.
    pub spans: Vec<Raw>,
    /// Frames stepped.
    pub frames: u64,
}

impl<E> TracedEnv<E> {
    /// Wraps `inner`, timing against `epoch`.
    pub fn new(inner: E, epoch: Epoch) -> TracedEnv<E> {
        TracedEnv {
            inner,
            epoch,
            spans: Vec::new(),
            frames: 0,
        }
    }
}

impl<E: EnvSide> EnvSide for TracedEnv<E> {
    fn step_frames(&mut self, frames: u64) {
        let ((), raw) = self
            .epoch
            .time("env.step_frames", || self.inner.step_frames(frames));
        self.spans.push(raw);
        self.frames += frames;
    }

    fn handle_data(&mut self, payload: &[u8]) -> Vec<Vec<u8>> {
        let (out, raw) = self
            .epoch
            .time("env.handle_data", || self.inner.handle_data(payload));
        self.spans.push(raw);
        out
    }

    fn poll_data(&mut self) -> Vec<Vec<u8>> {
        let (out, raw) = self.epoch.time("env.poll_data", || self.inner.poll_data());
        self.spans.push(raw);
        out
    }
}

/// Span names an RTL adapter records under, by where it sits.
#[derive(Debug, Clone, Copy)]
pub struct RtlNames {
    /// `grant_and_run`.
    pub grant: &'static str,
    /// `push_data`.
    pub push: &'static str,
    /// `drain_tx`.
    pub drain: &'static str,
}

impl RtlNames {
    /// The SoC endpoint driven in process.
    pub const IN_PROCESS: RtlNames = RtlNames {
        grant: "soc.grant_and_run",
        push: "rtl.push_data",
        drain: "rtl.drain_tx",
    };
    /// `RemoteRtl` on the synchronizer's side of the TCP link.
    pub const REMOTE: RtlNames = RtlNames {
        grant: "remote.grant_and_run",
        push: "rtl.push_data",
        drain: "rtl.drain_tx",
    };
    /// The SoC endpoint `serve_rtl` drives on the server thread.
    pub const SERVER: RtlNames = RtlNames {
        grant: "soc.grant_and_run",
        push: "server.push_data",
        drain: "server.drain_tx",
    };
}

/// Times `RtlSide` calls and accounts the SoC's cost-model wall time.
#[derive(Debug)]
pub struct TracedRtl<R> {
    /// The wrapped endpoint.
    pub inner: R,
    names: RtlNames,
    epoch: Epoch,
    /// Recorded calls.
    pub spans: Vec<Raw>,
    /// Payloads crossing this endpoint (drained plus pushed).
    pub payloads: u64,
    /// Cost-model wall time drained from the endpoint.
    pub cost_model: Duration,
    /// Grants in which the cost model ran.
    pub cost_model_calls: u64,
    /// Drained but not yet handed to the synchronizer.
    pending_cost_model: Duration,
}

impl<R> TracedRtl<R> {
    /// Wraps `inner`, timing against `epoch` under `names`.
    pub fn new(inner: R, epoch: Epoch, names: RtlNames) -> TracedRtl<R> {
        TracedRtl {
            inner,
            names,
            epoch,
            spans: Vec::new(),
            payloads: 0,
            cost_model: Duration::ZERO,
            cost_model_calls: 0,
            pending_cost_model: Duration::ZERO,
        }
    }
}

impl<R: RtlSide> RtlSide for TracedRtl<R> {
    fn grant_and_run(&mut self, cycles: u64) {
        let ((), raw) = self
            .epoch
            .time(self.names.grant, || self.inner.grant_and_run(cycles));
        self.spans.push(raw);
        // Drained here rather than when the synchronizer asks, because
        // `serve_rtl` never asks: the server-side SoC is accounted too.
        let cost = self.inner.take_cost_model_wall();
        if !cost.is_zero() {
            self.cost_model += cost;
            self.cost_model_calls += 1;
            self.pending_cost_model += cost;
        }
    }

    fn push_data(&mut self, payload: Vec<u8>) {
        let ((), raw) = self
            .epoch
            .time(self.names.push, || self.inner.push_data(payload));
        self.spans.push(raw);
        self.payloads += 1;
    }

    fn drain_tx(&mut self) -> Vec<Vec<u8>> {
        let (out, raw) = self.epoch.time(self.names.drain, || self.inner.drain_tx());
        self.spans.push(raw);
        self.payloads += out.len() as u64;
        out
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn take_fault(&mut self) -> Option<TransportError> {
        self.inner.take_fault()
    }

    fn take_recovery_wall(&mut self) -> Duration {
        self.inner.take_recovery_wall()
    }

    fn take_cost_model_wall(&mut self) -> Duration {
        std::mem::take(&mut self.pending_cost_model)
    }
}

/// Times `Transport` calls, counts messages and wire bytes, and measures
/// the grant round trip (`GrantCycles` sent → `CyclesDone` received).
#[derive(Debug)]
pub struct TracedTransport<T> {
    /// The wrapped transport.
    pub inner: T,
    /// Span names of `send` and of `recv`/`try_recv`.
    names: (&'static str, &'static str),
    epoch: Epoch,
    /// Recorded calls (`transport.send`, `transport.recv`).
    pub spans: Vec<Raw>,
    /// Messages sent and received.
    pub msgs: u64,
    /// Encoded bytes sent and received.
    pub bytes: u64,
    /// Grant round trips, ns.
    pub rtts: Vec<u64>,
    grant_sent: Option<u64>,
}

/// Transport span names on the synchronizer's end of the link.
pub const CLIENT_LINK: (&str, &str) = ("transport.send", "transport.recv");
/// Transport span names on the server's end of the link.
pub const SERVER_LINK: (&str, &str) = ("server.send", "server.recv");

impl<T> TracedTransport<T> {
    /// Wraps `inner`, timing against `epoch` under `names`.
    pub fn new(inner: T, epoch: Epoch, names: (&'static str, &'static str)) -> TracedTransport<T> {
        TracedTransport {
            inner,
            names,
            epoch,
            spans: Vec::new(),
            msgs: 0,
            bytes: 0,
            rtts: Vec::new(),
            grant_sent: None,
        }
    }

    fn count(&mut self, packet: &Packet) {
        self.msgs += 1;
        self.bytes += packet.to_bytes().len() as u64;
    }

    fn received(&mut self, packet: &Packet, raw: Raw) {
        self.spans.push(raw);
        self.count(packet);
        if let (Packet::CyclesDone { .. }, Some(sent)) = (packet, self.grant_sent) {
            self.rtts.push(raw.end - sent);
            self.grant_sent = None;
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
        let (out, raw) = self.epoch.time(self.names.0, || self.inner.send(packet));
        self.spans.push(raw);
        if out.is_ok() {
            self.count(packet);
            if matches!(packet, Packet::GrantCycles { .. }) {
                self.grant_sent = Some(raw.start);
            }
        }
        out
    }

    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
        let (out, raw) = self.epoch.time(self.names.1, || self.inner.try_recv());
        if let Ok(Some(packet)) = &out {
            self.received(packet, raw);
        }
        out
    }

    fn recv(&mut self) -> Result<Packet, TransportError> {
        let (out, raw) = self.epoch.time(self.names.1, || self.inner.recv());
        if let Ok(packet) = &out {
            self.received(packet, raw);
        }
        out
    }

    fn reconnect(&mut self) -> Result<(), TransportError> {
        self.grant_sent = None;
        self.inner.reconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_bridge::transport::ChannelTransport;

    #[test]
    fn transport_adapter_counts_and_measures_round_trips() {
        let epoch = Epoch::now();
        let (client, mut server) = ChannelTransport::pair();
        let mut client = TracedTransport::new(client, epoch, CLIENT_LINK);
        client
            .send(&Packet::GrantCycles {
                cycles: 10,
                quantum: 0,
            })
            .unwrap();
        assert_eq!(
            server.recv().unwrap(),
            Packet::GrantCycles {
                cycles: 10,
                quantum: 0
            }
        );
        server
            .send(&Packet::Data {
                seq: 0,
                payload: vec![1, 2, 3],
            })
            .unwrap();
        server
            .send(&Packet::CyclesDone {
                cycles: 10,
                quantum: 0,
            })
            .unwrap();
        assert!(matches!(client.recv().unwrap(), Packet::Data { .. }));
        assert!(matches!(client.recv().unwrap(), Packet::CyclesDone { .. }));
        assert_eq!(client.msgs, 3);
        assert_eq!(client.rtts.len(), 1);
        let wire: u64 = [
            Packet::GrantCycles {
                cycles: 10,
                quantum: 0,
            },
            Packet::Data {
                seq: 0,
                payload: vec![1, 2, 3],
            },
            Packet::CyclesDone {
                cycles: 10,
                quantum: 0,
            },
        ]
        .iter()
        .map(|p| p.to_bytes().len() as u64)
        .sum();
        assert_eq!(client.bytes, wire);
        assert_eq!(
            client
                .spans
                .iter()
                .filter(|s| s.name == "transport.recv")
                .count(),
            2
        );
    }
}
