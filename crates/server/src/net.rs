//! The TCP request loop: a hand-rolled thread pool (no async runtime,
//! no external crates) draining accepted connections from a shared
//! queue, one frame-decode/handle/frame-encode loop per connection. The
//! admin plane, when bound, answers on an accept thread of its own.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::access::RequestId;
use crate::admin::serve_admin;
use crate::proto::{read_frame, write_frame, Reply, Request};
use crate::service::PufService;

/// Process-wide connection counter: every accepted protocol connection
/// gets a distinct 1-based id for request tracing.
static NEXT_CONN: AtomicU64 = AtomicU64::new(1);

/// A running server: accept thread(s) + `workers` handler threads.
pub struct ServerHandle {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    service: Arc<PufService>,
    shutting_down: Arc<AtomicBool>,
    /// One slot per worker: the connection it is serving, shared so
    /// shutdown can sever connections a client left idle-open.
    live_conns: Arc<Mutex<Vec<Option<Arc<TcpStream>>>>>,
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
/// `admin`. The admin plane's accept thread answers each exchange
/// itself, so it answers while protocol clients hold every worker.
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
    let (tx, rx) = mpsc::channel::<TcpStream>();
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
                    let next = rx.lock().expect("connection queue poisoned").recv();
                    let Ok(stream) = next else {
                        return; // queue closed: shutdown
                    };
                    // The slot shares the one descriptor only while the
                    // handler runs, so it closes with the connection.
                    let stream = Arc::new(stream);
                    let park = |handle: Option<Arc<TcpStream>>| {
                        live_conns.lock().expect("connection registry poisoned")[i] = handle;
                    };
                    park(Some(Arc::clone(&stream)));
                    let _ = handle_connection(&service, &stream);
                    park(None);
                })
                .expect("spawn worker")
        })
        .collect();

    let mut accept_threads = vec![spawn_accept_loop(
        "ropuf-accept",
        listener,
        Arc::clone(&shutting_down),
        move |stream| tx.send(stream).is_ok(),
    )?];
    if let Some(admin_listener) = admin_listener {
        let service = Arc::clone(&service);
        accept_threads.push(spawn_accept_loop(
            "ropuf-admin",
            admin_listener,
            Arc::clone(&shutting_down),
            move |stream| {
                let _ = serve_admin(&service, &stream);
                true
            },
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

/// Pause before retrying a failed `accept`. Out of descriptors (EMFILE),
/// `accept` fails again at once until one frees, so an immediate retry
/// would spin a whole core.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Spawns one accept loop handing each connection to `on_accept`,
/// which returns false once nothing is left to serve it. The protocol
/// loop's `on_accept` owns the queue's sender, so the queue closes
/// (retiring the workers) when that loop exits.
fn spawn_accept_loop(
    name: &str,
    listener: TcpListener,
    shutting_down: Arc<AtomicBool>,
    mut on_accept: impl FnMut(TcpStream) -> bool + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        if !on_accept(stream) {
                            break;
                        }
                    }
                    Err(_) => std::thread::sleep(ACCEPT_RETRY_PAUSE),
                }
            }
        })
}

/// Serves one protocol connection until EOF, reading and writing
/// through the one descriptor the worker holds.
///
/// Replies go out when the read buffer holds no complete next frame:
/// requests a client pipelined into one write are answered in one
/// write, and a reply is never held back while the next read could
/// wait on the socket, a partly buffered frame included.
fn handle_connection(service: &PufService, stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let conn = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
    let mut seq = 0u64;
    let mut reader = BufReader::new(stream);
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
        if !holds_frame(reader.buffer()) {
            writer.flush()?;
        }
    }
    Ok(())
}

/// Whether `buffered` starts with a whole frame, which the next
/// `read_frame` returns without reading the socket.
fn holds_frame(buffered: &[u8]) -> bool {
    match buffered.split_first_chunk() {
        Some((len, body)) => body.len() as u64 >= u64::from(u32::from_le_bytes(*len)),
        None => false,
    }
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

    /// `requests`, each framed, in one buffer.
    fn frames(requests: &[Request]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for request in requests {
            write_frame(&mut bytes, &request.encode()).unwrap();
        }
        bytes
    }

    fn read_reply(reader: &mut impl io::Read) -> Reply {
        let body = read_frame(reader).unwrap().expect("a reply");
        Reply::decode(&body).unwrap()
    }

    #[test]
    fn requests_pipelined_in_one_write_are_answered_in_order() {
        use std::io::Write as _;
        let fx = enrolled_fixture(34);
        let (server, dir) = spawn("net-pipelined", 1);
        let auth = |nonce| Request::Auth {
            device_id: 1,
            nonce,
            response: WireBits::new(fx.expected.iter().map(Some).collect()),
        };
        // Each reply depends on the requests before it, so an answer out
        // of order reads as the wrong reply.
        let requests = [
            Request::Enroll {
                device_id: 1,
                enrollment: fx.enrollment_bytes.clone(),
                key_code: fx.key_code_bytes.clone(),
            },
            auth(1),
            auth(1),
            Request::Revoke { device_id: 1 },
            Request::Revoke { device_id: 1 },
        ];
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&frames(&requests)).unwrap();
        let mut reader = BufReader::new(stream);
        assert!(matches!(read_reply(&mut reader), Reply::Enrolled { bits } if bits > 0));
        assert!(matches!(
            read_reply(&mut reader),
            Reply::AuthOk { flips: 0, .. }
        ));
        assert_eq!(
            read_reply(&mut reader),
            Reply::Reject {
                reason: RejectReason::Replay
            }
        );
        assert_eq!(read_reply(&mut reader), Reply::Revoked);
        assert_eq!(
            read_reply(&mut reader),
            Reply::Reject {
                reason: RejectReason::UnknownDevice
            }
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reply_is_not_held_back_by_a_partly_sent_next_frame() {
        use std::io::Write as _;
        let (server, dir) = spawn("net-partial", 1);
        let revoke = frames(&[Request::Revoke { device_id: 9 }]);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A whole frame and the first bytes of the next in one write:
        // the first reply must come before the rest is sent.
        let mut bytes = revoke.clone();
        bytes.extend_from_slice(&revoke[..3]);
        stream.write_all(&bytes).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let unknown = Reply::Reject {
            reason: RejectReason::UnknownDevice,
        };
        assert_eq!(read_reply(&mut reader), unknown);
        stream.write_all(&revoke[3..]).unwrap();
        assert_eq!(read_reply(&mut reader), unknown);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn holds_frame_needs_the_whole_next_frame() {
        assert!(!holds_frame(&[]));
        assert!(!holds_frame(&[2, 0, 0]));
        assert!(!holds_frame(&[2, 0, 0, 0, 7]));
        assert!(holds_frame(&[2, 0, 0, 0, 7, 8]));
        assert!(holds_frame(&[0, 0, 0, 0]));
        assert!(!holds_frame(&[0xff, 0xff, 0xff, 0xff, 1]));
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
