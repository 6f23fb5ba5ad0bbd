//! A long-running server releases each connection's descriptor when the
//! connection closes, so its open-descriptor count tracks live
//! connections, not every connection it has ever accepted.
//!
//! Its own test binary: it counts the whole process's descriptors in
//! `/proc/self/fd`, which other tests running alongside would disturb.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use ropuf_server::{
    serve, Client, FsyncPolicy, PufService, RejectReason, Reply, Request, ServiceConfig, Store,
};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's descriptors")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let dir = std::env::temp_dir().join(format!("ropuf-server-fds-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, 2, FsyncPolicy::Batched).expect("store opens");
    let service = Arc::new(PufService::new(store, ServiceConfig::default()));
    let server = serve(service, "127.0.0.1:0".parse().expect("loopback"), 2).expect("binds");
    let baseline = open_descriptors();

    for _ in 0..200 {
        let mut client = Client::connect(server.addr()).expect("connects");
        let reply = client
            .call(&Request::Revoke { device_id: 1 })
            .expect("answered");
        assert_eq!(
            reply,
            Reply::Reject {
                reason: RejectReason::UnknownDevice
            }
        );
    }
    // A worker lets go of its connection once it reads the client's
    // EOF, a moment after the client hangs up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut open = open_descriptors();
    while open > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_descriptors();
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        open <= baseline,
        "200 closed connections left {} descriptors open beyond the {baseline} at start",
        open - baseline
    );
}
