//! A long-running server holds one descriptor per served connection and
//! releases it when the connection closes, so its open-descriptor count
//! tracks live connections, not every connection it has ever accepted.
//!
//! Its own test binary: it counts the whole process's descriptors in
//! `/proc/self/fd`, which other tests running alongside would disturb,
//! and its two tests take turns for the same reason.
#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ropuf_server::proto::{read_frame, write_frame};
use ropuf_server::{
    serve, Client, FsyncPolicy, PufService, RejectReason, Reply, Request, ServerHandle,
    ServiceConfig, Store,
};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's descriptors")
        .count()
}

/// The tests count the same process's descriptors, so they take turns.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn(tag: &str, workers: usize) -> (ServerHandle, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ropuf-server-fds-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, 2, FsyncPolicy::Batched).expect("store opens");
    let service = Arc::new(PufService::new(store, ServiceConfig::default()));
    let server = serve(service, "127.0.0.1:0".parse().expect("loopback"), workers).expect("binds");
    (server, dir)
}

#[test]
fn a_served_connection_holds_one_server_descriptor() {
    let _turn = one_at_a_time();
    const WORKERS: usize = 3;
    let (server, dir) = spawn("held", WORKERS);
    let baseline = open_descriptors();
    // One answered frame per connection: each worker has taken its
    // connection and is now waiting on the idle client.
    let clients: Vec<TcpStream> = (0..WORKERS)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).expect("connects");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout set");
            write_frame(&mut stream, &Request::Revoke { device_id: 1 }.encode()).expect("writes");
            let body = read_frame(&mut stream).expect("reads").expect("a reply");
            assert_eq!(
                Reply::decode(&body).expect("decodes"),
                Reply::Reject {
                    reason: RejectReason::UnknownDevice
                }
            );
            stream
        })
        .collect();
    let server_side = open_descriptors() - baseline - clients.len();
    drop(clients);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        server_side, WORKERS,
        "{WORKERS} served connections hold {server_side} server-side descriptors"
    );
}

#[test]
fn closed_connections_release_their_descriptors() {
    let _turn = one_at_a_time();
    let (server, dir) = spawn("closed", 2);
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
