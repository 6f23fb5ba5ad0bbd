//! The TCP request loop: a hand-rolled thread pool (no async runtime,
//! no external crates) draining accepted connections from a shared
//! queue, one frame-decode/handle/frame-encode loop per connection.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use crate::access::RequestId;
use crate::admin::handle_admin_connection;
use crate::proto::{read_frame, write_frame, Reply, Request};
use crate::service::PufService;

/// Process-wide connection counter: every accepted connection (binary
/// protocol or admin) gets a distinct 1-based id for request tracing.
static NEXT_CONN: AtomicU64 = AtomicU64::new(1);

/// One accepted connection, tagged with which protocol it speaks. The
/// admin listener feeds the same worker queue as the binary protocol,
/// so both planes share one thread pool.
enum Conn {
    /// The length-prefixed binary protocol.
    Proto(TcpStream),
    /// The hand-rolled HTTP admin plane.
    Admin(TcpStream),
}

/// A running server: accept thread(s) + `workers` handler threads.
pub struct ServerHandle {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    service: Arc<PufService>,
    shutting_down: Arc<AtomicBool>,
    /// One slot per worker: a handle on the connection it is serving,
    /// so shutdown can sever connections a client left idle-open.
    live_conns: Arc<Mutex<Vec<Option<TcpStream>>>>,
    accept_threads: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Starts serving `service` on `addr` (use port 0 for an ephemeral
/// port; the bound address is on the returned handle).
///
/// # Errors
///
/// Propagates the bind failure.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn serve(
    service: Arc<PufService>,
    addr: SocketAddr,
    workers: usize,
) -> io::Result<ServerHandle> {
    serve_with_admin(service, addr, workers, None)
}

/// Starts serving `service` on `addr`, optionally also binding the
/// read-only HTTP admin plane (`/metrics`, `/healthz`, `/slo`) on
/// `admin`. Both listeners feed one shared worker pool.
///
/// # Errors
///
/// Propagates either bind failure.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn serve_with_admin(
    service: Arc<PufService>,
    addr: SocketAddr,
    workers: usize,
    admin: Option<SocketAddr>,
) -> io::Result<ServerHandle> {
    assert!(workers > 0, "the request loop needs at least one worker");
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let admin_listener = match admin {
        Some(admin_addr) => Some(TcpListener::bind(admin_addr)?),
        None => None,
    };
    let admin_addr = match &admin_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    let shutting_down = Arc::new(AtomicBool::new(false));
    let live_conns = Arc::new(Mutex::new((0..workers).map(|_| None).collect::<Vec<_>>()));
    let (tx, rx) = mpsc::channel::<Conn>();
    let rx = Arc::new(Mutex::new(rx));

    let worker_threads = (0..workers)
        .map(|i| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let live_conns = Arc::clone(&live_conns);
            std::thread::Builder::new()
                .name(format!("ropuf-serve-{i}"))
                .spawn(move || loop {
                    // Hold the queue lock only while dequeuing; the
                    // connection is then owned by this worker until EOF.
                    let conn = rx.lock().expect("connection queue poisoned").recv();
                    match conn {
                        Ok(conn) => {
                            let stream = match &conn {
                                Conn::Proto(s) | Conn::Admin(s) => s,
                            };
                            // The slot holds the handle only while the
                            // handler runs, so a closed connection's
                            // descriptor is released with it.
                            let park = |handle: Option<TcpStream>| {
                                live_conns.lock().expect("connection registry poisoned")[i] =
                                    handle;
                            };
                            park(stream.try_clone().ok());
                            match conn {
                                Conn::Proto(stream) => {
                                    let _ = handle_connection(&service, stream);
                                }
                                Conn::Admin(stream) => {
                                    let _ = handle_admin_connection(&service, stream);
                                }
                            }
                            park(None);
                        }
                        Err(_) => return, // queue closed: shutdown
                    }
                })
                .expect("spawn worker")
        })
        .collect();

    let mut accept_threads = Vec::new();
    accept_threads.push(spawn_accept_loop(
        "ropuf-accept",
        listener,
        Arc::clone(&shutting_down),
        tx.clone(),
        Conn::Proto,
    )?);
    if let Some(admin_listener) = admin_listener {
        accept_threads.push(spawn_accept_loop(
            "ropuf-admin-accept",
            admin_listener,
            Arc::clone(&shutting_down),
            tx,
            Conn::Admin,
        )?);
    }

    Ok(ServerHandle {
        addr,
        admin_addr,
        service,
        shutting_down,
        live_conns,
        accept_threads,
        workers: worker_threads,
    })
}

/// Spawns one accept loop pushing tagged connections onto the shared
/// worker queue. Each loop owns a clone of the sender; the queue
/// closes (retiring the workers) when every accept loop has exited.
fn spawn_accept_loop(
    name: &str,
    listener: TcpListener,
    shutting_down: Arc<AtomicBool>,
    tx: mpsc::Sender<Conn>,
    wrap: fn(TcpStream) -> Conn,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    // A send error means the workers are gone; stop.
                    Ok(stream) => {
                        if tx.send(wrap(stream)).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // Dropping `tx` releases this loop's share of the queue.
        })
}

fn handle_connection(service: &PufService, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let conn = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
    let mut seq = 0u64;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(body) = read_frame(&mut reader)? {
        seq += 1;
        let reply = match Request::decode(&body) {
            Ok(request) => service.handle_traced(&request, RequestId { conn, seq }),
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        };
        write_frame(&mut writer, &reply.encode())?;
        writer.flush()?;
    }
    Ok(())
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin address, when the admin plane is enabled
    /// (resolves port 0).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The service being served.
    pub fn service(&self) -> &PufService {
        &self.service
    }

    /// Stops accepting, severs open connections, and joins every
    /// thread. A request already inside the service completes; idle
    /// keep-alive connections are closed rather than waited on.
    pub fn shutdown(mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Unblock each accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(admin) = self.admin_addr {
            let _ = TcpStream::connect(admin);
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        for conn in self
            .live_conns
            .lock()
            .expect("connection registry poisoned")
            .iter_mut()
            .filter_map(Option::take)
        {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A blocking client for the frame protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] on transport failure, a malformed reply, or a
    /// connection closed mid-exchange.
    pub fn call(&mut self, request: &Request) -> io::Result<Reply> {
        write_frame(&mut self.writer, &request.encode())?;
        self.writer.flush()?;
        match read_frame(&mut self.reader)? {
            Some(body) => Reply::decode(&body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{RejectReason, WireBits};
    use crate::service::ServiceConfig;
    use crate::store::{FsyncPolicy, Store};
    use crate::testutil::{enrolled_fixture, temp_dir};

    fn spawn(name: &str, workers: usize) -> (ServerHandle, std::path::PathBuf) {
        let dir = temp_dir(name);
        let store = Store::open(&dir, 4, FsyncPolicy::Batched).unwrap();
        let service = Arc::new(PufService::new(store, ServiceConfig::default()));
        let handle = serve(service, "127.0.0.1:0".parse().unwrap(), workers).unwrap();
        (handle, dir)
    }

    #[test]
    fn full_protocol_round_trip_over_tcp() {
        let fx = enrolled_fixture(31);
        let (server, dir) = spawn("net-roundtrip", 2);
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client
            .call(&Request::Enroll {
                device_id: 1,
                enrollment: fx.enrollment_bytes.clone(),
                key_code: fx.key_code_bytes.clone(),
            })
            .unwrap();
        assert!(matches!(reply, Reply::Enrolled { bits } if bits > 0));
        let response = WireBits::new(fx.expected.iter().map(Some).collect());
        let reply = client
            .call(&Request::Auth {
                device_id: 1,
                nonce: 1,
                response: response.clone(),
            })
            .unwrap();
        assert!(matches!(reply, Reply::AuthOk { flips: 0, .. }), "{reply:?}");
        let reply = client
            .call(&Request::DeriveKey {
                device_id: 1,
                nonce: 2,
                response,
            })
            .unwrap();
        assert!(matches!(reply, Reply::Key { .. }), "{reply:?}");
        assert_eq!(
            client.call(&Request::Revoke { device_id: 1 }).unwrap(),
            Reply::Revoked
        );
        assert_eq!(
            client.call(&Request::Revoke { device_id: 1 }).unwrap(),
            Reply::Reject {
                reason: RejectReason::UnknownDevice
            }
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_frame_gets_an_error_reply_not_a_hangup() {
        let (server, dir) = spawn("net-garbage", 1);
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, &[0xFF, 0xEE]).unwrap();
        writer.flush().unwrap();
        let body = read_frame(&mut reader).unwrap().expect("a reply");
        assert!(matches!(Reply::decode(&body).unwrap(), Reply::Error { .. }));
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_clients_share_the_worker_pool() {
        let fx = enrolled_fixture(33);
        let (server, dir) = spawn("net-concurrent", 4);
        let mut client = Client::connect(server.addr()).unwrap();
        for d in 0..8u64 {
            client
                .call(&Request::Enroll {
                    device_id: d,
                    enrollment: fx.enrollment_bytes.clone(),
                    key_code: fx.key_code_bytes.clone(),
                })
                .unwrap();
        }
        let addr = server.addr();
        let expected = fx.expected.clone();
        let threads: Vec<_> = (0..8u64)
            .map(|d| {
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for nonce in 1..=16u64 {
                        let reply = client
                            .call(&Request::Auth {
                                device_id: d,
                                nonce,
                                response: WireBits::new(expected.iter().map(Some).collect()),
                            })
                            .unwrap();
                        assert!(matches!(reply, Reply::AuthOk { .. }), "{reply:?}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            server
                .service()
                .stats()
                .auth_accepted
                .load(Ordering::Relaxed),
            8 * 16
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
