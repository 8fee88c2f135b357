//! The paper's TCP deployment: the synchronizer drives the RTL simulation
//! through a TCP listener (Section 3.4.1), here with both endpoints on
//! localhost.
//!
//! Run with: `cargo run --release --example remote_cosim`

use rose::mission::{mission_parts, MissionConfig};
use rose_bridge::sync::{serve_rtl, RemoteRtl, Synchronizer};
use rose_bridge::transport::TcpTransport;
use std::net::TcpListener;
use std::thread;

fn main() {
    let config = MissionConfig {
        max_sim_seconds: 5.0,
        ..MissionConfig::default()
    };
    let (env, mut rtl, sync_config, metrics) = mission_parts(&config);

    // "FireSim host": serves the simulated SoC over TCP.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = thread::spawn(move || {
        let mut transport = TcpTransport::accept(&listener).expect("accept");
        serve_rtl(&mut transport, &mut rtl).expect("serve");
        rtl
    });

    // Synchronizer host: connects and runs the lockstep loop.
    let remote = RemoteRtl::new(TcpTransport::connect(addr).expect("connect"));
    let mut sync = Synchronizer::new(sync_config, env, remote);
    println!("co-simulating over TCP at {addr} ...");
    sync.run_until(u64::MAX, |env, _| env.sim().time() >= config.max_sim_seconds);

    let stats = *sync.stats();
    println!(
        "simulated {:.1} s of flight over {} syncs ({:.1} sim-MHz over TCP)",
        stats.sim_frames as f64 / 60.0,
        stats.syncs,
        stats.throughput_hz() / 1e6
    );
    let (env, remote) = sync.into_parts();
    remote.shutdown().expect("shutdown");
    let rtl = server.join().expect("join");
    println!(
        "UAV at x = {:.1} m after {} inferences; SoC executed {:.2}e9 cycles",
        env.sim().pose().position.x,
        metrics.lock().unwrap().inferences,
        rtl.soc().stats().cycles as f64 / 1e9
    );
}
