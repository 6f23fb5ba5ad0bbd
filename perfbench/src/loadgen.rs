//! Load generator: one thread driving every connection through
//! non-blocking sockets.
//!
//! In open-loop mode requests are due on a seeded Poisson schedule and
//! are sent when due whatever the server is doing, so a slow server
//! faces a growing queue rather than a slower client. Latency runs from
//! the due time, not the send time, so time the generator spent behind
//! schedule counts against the server, and the lateness itself is
//! reported. Closed-loop mode (capacity measurement) keeps a fixed
//! number of requests in flight per connection instead.
//!
//! Between sends the generator polls its sockets in a loop, yielding
//! the CPU on every idle pass but never sleeping: on a small virtual
//! machine a sleeping thread's wake-up alone costs tens of microseconds
//! and would blur both the send schedule and the reply timestamps.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

use rand::Rng;
use ropuf_server::{Reply, Request};

use crate::ledger::{now_ns, Recorder};
use crate::{stats, sys};

/// How long a phase waits for outstanding replies after its last send.
const GRACE_NS: u64 = 2_000_000_000;

/// What a request is, for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `auth` or `derive_key` (or an expected reject of either).
    Read,
    /// `enroll`, `reenroll` or `revoke`.
    Write,
}

/// A request plus the reply the generator's model predicts for it.
pub struct Op {
    /// Connection the request must travel on (the one its device is
    /// pinned to, so per-device order is send order).
    pub conn: usize,
    /// The request.
    pub request: Request,
    /// The predicted reply.
    pub expect: Reply,
    /// Latency class.
    pub class: Class,
}

/// Produces the request stream; the model behind it advances as each
/// op is taken, in send order.
pub trait Source {
    /// The next op.
    fn next_op(&mut self) -> Op;
}

/// Offered load of a phase.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// This many requests in flight per connection.
    Closed(usize),
}

struct Pending {
    id: u64,
    due_ns: u64,
    send_ns: u64,
    encoded_ns: u64,
    sent_ns: u64,
    expect: Reply,
    class: Class,
}

/// One client connection: a non-blocking socket and its buffers.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
}

impl Conn {
    /// Connects to `addr` and switches the socket to non-blocking.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: Vec::new(),
            out_at: 0,
            inbuf: Vec::with_capacity(1 << 16),
            pending: VecDeque::new(),
        })
    }

    /// Writes as much buffered output as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        Ok(())
    }

    /// Reads whatever has arrived; returns whether any bytes did.
    fn fill(&mut self) -> io::Result<bool> {
        let mut got = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Everything a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Read-class latencies from due time, microseconds. Latency and
    /// lateness samples are kept in open-loop phases only; a
    /// closed-loop phase reports counts.
    pub read_us: Vec<f64>,
    /// Due time of each `read_us` sample, seconds into the phase.
    pub read_due_s: Vec<f64>,
    /// Write-class latencies from due time, microseconds.
    pub write_us: Vec<f64>,
    /// Due time of each `write_us` sample, seconds into the phase.
    pub write_due_s: Vec<f64>,
    /// How late each send left against its due time, microseconds.
    pub late_us: Vec<f64>,
    /// Largest number of requests in flight at once.
    pub outstanding_max: usize,
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub received: u64,
    /// Replies that did not match the model, first few described.
    pub mismatches: Vec<String>,
    /// Mismatch count.
    pub mismatched: u64,
    /// Replies that were `Reply::Error`, IO failures or never arrived.
    pub failed: u64,
    /// Seconds from the first due time to the last due time.
    pub send_window_s: f64,
    /// Generator CPU time, nanoseconds.
    pub loadgen_cpu_ns: u64,
    /// Server worker CPU time, nanoseconds.
    pub server_cpu_ns: u64,
    /// Median latency of the requests due in the first and the last
    /// quarter of the phase, microseconds (a growing backlog shows as
    /// last ≫ first).
    pub first_quarter_us: f64,
    /// See `first_quarter_us`.
    pub last_quarter_us: f64,
    /// Replies received and server worker CPU time (nanoseconds), both
    /// cumulative, at every [`stats::WINDOW_S`] boundary of the phase.
    pub marks: Vec<(u64, u64)>,
}

impl Phase {
    /// Whether the queue grew over the phase: the last quarter's median
    /// latency is over twice the first quarter's plus 20 µs, or replies
    /// went missing.
    pub fn backlog_grew(&self) -> bool {
        self.last_quarter_us > 2.0 * self.first_quarter_us + 20.0 || self.received < self.sent
    }

    /// Replies per second of server worker CPU time in each
    /// [`stats::WINDOW_S`] window: the server's cost per op, which the
    /// offered rate does not set.
    pub fn window_rates(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].0 - w[0].0) as f64 / ((w[1].1 - w[0].1) as f64 / 1e9))
            .collect()
    }
}

/// Runs one phase of `seconds` on `conns`; spans go to `rec` under ids
/// starting at `first_id`.
pub fn run_phase<R: Rng>(
    conns: &mut [Conn],
    source: &mut dyn Source,
    load: Load,
    seconds: f64,
    rng: &mut R,
    rec: &mut Recorder,
    first_id: u64,
) -> Phase {
    let mut phase = Phase::default();
    // Reserve the expected sample count up front, so the memory a phase
    // takes does not depend on how its vectors happened to grow.
    let open = match load {
        Load::Open(rate) => {
            let expected = (rate * seconds * 1.05) as usize + 64;
            for v in [
                &mut phase.read_us,
                &mut phase.read_due_s,
                &mut phase.write_us,
                &mut phase.write_due_s,
                &mut phase.late_us,
            ] {
                v.reserve_exact(expected);
            }
            true
        }
        Load::Closed(_) => false,
    };
    let cpu0 = sys::this_thread_cpu_ns();
    let server0 = sys::threads_cpu_ns("ropuf-serve");
    let start = now_ns() + 1_000_000;
    let stop = start + (seconds * 1e9) as u64;
    let gap = |rng: &mut R, rate: f64| (-(1.0 - rng.gen::<f64>()).ln() / rate * 1e9) as u64;
    let mut next_due = match load {
        Load::Open(rate) => start + gap(rng, rate),
        Load::Closed(_) => start,
    };
    let mut last_due = start;
    let mut next_id = first_id;
    let mut outstanding = 0usize;
    let mut dead = vec![false; conns.len()];
    let mut next_mark = start;
    loop {
        let mut progressed = false;
        let now = now_ns();
        if now >= next_mark && next_mark <= stop {
            phase
                .marks
                .push((phase.received, sys::threads_cpu_ns("ropuf-serve")));
            next_mark += (stats::WINDOW_S * 1e9) as u64;
        }
        let sending = next_due < stop && now >= next_due;
        if sending {
            let window_free = match load {
                Load::Open(_) => true,
                Load::Closed(w) => outstanding < w * conns.len(),
            };
            if window_free {
                let op = source.next_op();
                let send_ns = now_ns();
                let due_ns = match load {
                    Load::Open(_) => next_due,
                    Load::Closed(_) => send_ns,
                };
                let body = op.request.encode();
                let conn = &mut conns[op.conn];
                conn.out
                    .extend_from_slice(&(body.len() as u32).to_le_bytes());
                conn.out.extend_from_slice(&body);
                let encoded_ns = now_ns();
                if !dead[op.conn] && conn.flush().is_err() {
                    dead[op.conn] = true;
                }
                let sent_ns = now_ns();
                if open {
                    phase
                        .late_us
                        .push(send_ns.saturating_sub(due_ns) as f64 / 1e3);
                }
                conn.pending.push_back(Pending {
                    id: next_id,
                    due_ns,
                    send_ns,
                    encoded_ns,
                    sent_ns,
                    expect: op.expect,
                    class: op.class,
                });
                next_id += 1;
                phase.sent += 1;
                outstanding += 1;
                phase.outstanding_max = phase.outstanding_max.max(outstanding);
                last_due = due_ns;
                next_due = match load {
                    Load::Open(rate) => next_due + gap(rng, rate),
                    Load::Closed(_) => now_ns(),
                };
                progressed = true;
            }
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if dead[c] {
                continue;
            }
            if conn.out_at < conn.out.len() && conn.flush().is_err() {
                dead[c] = true;
                continue;
            }
            if conn.pending.is_empty() {
                continue;
            }
            match conn.fill() {
                Ok(false) => continue,
                Ok(true) => progressed = true,
                Err(_) => {
                    dead[c] = true;
                    continue;
                }
            }
            let recv_ns = now_ns();
            let mut at = 0;
            while conn.inbuf.len() - at >= 4 {
                let len = u32::from_le_bytes(conn.inbuf[at..at + 4].try_into().expect("4 bytes"))
                    as usize;
                if conn.inbuf.len() - at - 4 < len {
                    break;
                }
                let decode_ns = now_ns();
                let reply = Reply::decode(&conn.inbuf[at + 4..at + 4 + len]);
                let done_ns = now_ns();
                at += 4 + len;
                let Some(p) = conn.pending.pop_front() else {
                    phase.failed += 1;
                    continue;
                };
                outstanding -= 1;
                phase.received += 1;
                let latency_us = done_ns.saturating_sub(p.due_ns) as f64 / 1e3;
                let due_s = p.due_ns.saturating_sub(start) as f64 / 1e9;
                match p.class {
                    Class::Read if open => {
                        phase.read_us.push(latency_us);
                        phase.read_due_s.push(due_s);
                    }
                    Class::Write if open => {
                        phase.write_us.push(latency_us);
                        phase.write_due_s.push(due_s);
                    }
                    _ => {}
                }
                match reply {
                    Ok(Reply::Error { message }) => {
                        phase.failed += 1;
                        phase.mismatched += 1;
                        note(
                            &mut phase.mismatches,
                            format!("request {}: server error {message}", p.id),
                        );
                    }
                    Ok(reply) if reply == p.expect => {}
                    Ok(reply) => {
                        phase.mismatched += 1;
                        note(
                            &mut phase.mismatches,
                            format!("request {}: got {reply:?}, predicted {:?}", p.id, p.expect),
                        );
                    }
                    Err(e) => {
                        phase.failed += 1;
                        phase.mismatched += 1;
                        note(
                            &mut phase.mismatches,
                            format!("request {}: undecodable reply: {e}", p.id),
                        );
                    }
                }
                if rec.on() {
                    rec.push(p.id, "request", p.due_ns, done_ns);
                    rec.push(p.id, "loadgen.late", p.due_ns, p.send_ns);
                    rec.push(p.id, "proto.encode", p.send_ns, p.encoded_ns);
                    rec.push(p.id, "net.send", p.encoded_ns, p.sent_ns);
                    rec.push(p.id, "net.wait", p.sent_ns, recv_ns.max(p.sent_ns));
                    rec.push(p.id, "proto.decode", decode_ns, done_ns);
                }
            }
            conn.inbuf.drain(..at);
        }
        if next_due >= stop && outstanding == 0 {
            break;
        }
        let all_dead = dead.iter().all(|&d| d);
        if (next_due >= stop && now_ns() > stop + GRACE_NS) || all_dead {
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    // Whatever is still in flight never got a reply.
    for conn in conns.iter_mut() {
        phase.failed += conn.pending.len() as u64;
        conn.pending.clear();
    }
    phase.send_window_s = last_due.saturating_sub(start) as f64 / 1e9;
    phase.loadgen_cpu_ns = sys::this_thread_cpu_ns() - cpu0;
    phase.server_cpu_ns = sys::threads_cpu_ns("ropuf-serve").saturating_sub(server0);
    let quarter = |keep: &dyn Fn(f64) -> bool| {
        let xs: Vec<f64> = [
            (&phase.read_due_s, &phase.read_us),
            (&phase.write_due_s, &phase.write_us),
        ]
        .into_iter()
        .flat_map(|(due, us)| due.iter().zip(us.iter()))
        .filter(|&(&d, _)| keep(d))
        .map(|(_, &us)| us)
        .collect();
        stats::median(&xs)
    };
    let window = phase.send_window_s;
    phase.first_quarter_us = quarter(&|d| d < window / 4.0);
    phase.last_quarter_us = quarter(&|d| d >= 3.0 * window / 4.0);
    phase
}

fn note(list: &mut Vec<String>, line: String) {
    if list.len() < 5 {
        list.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpListener;
    use std::time::Duration;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_server::proto::{read_frame, write_frame};

    /// Answers every frame with `Reply::Revoked`, stalling `stall`
    /// before the first answer.
    fn stalling_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            let mut first = true;
            while let Ok(Some(_)) = read_frame(&mut reader) {
                if std::mem::take(&mut first) {
                    std::thread::sleep(stall);
                }
                write_frame(&mut writer, &Reply::Revoked.encode()).expect("write");
                writer.flush().expect("flush");
            }
        });
        (addr, server)
    }

    struct Revokes {
        expect: Reply,
        next: u64,
    }

    impl Source for Revokes {
        fn next_op(&mut self) -> Op {
            self.next += 1;
            Op {
                conn: 0,
                request: Request::Revoke {
                    device_id: self.next,
                },
                expect: self.expect.clone(),
                class: Class::Write,
            }
        }
    }

    fn phase(stall: Duration, expect: Reply) -> Phase {
        let (addr, server) = stalling_server(stall);
        let mut conns = vec![Conn::connect(addr).expect("connect")];
        let mut source = Revokes { expect, next: 0 };
        let mut rng = StdRng::seed_from_u64(7);
        let mut rec = Recorder::new(false);
        let phase = run_phase(
            &mut conns,
            &mut source,
            Load::Open(2000.0),
            0.5,
            &mut rng,
            &mut rec,
            0,
        );
        drop(conns);
        server.join().expect("server thread");
        phase
    }

    #[test]
    fn a_server_stall_counts_from_each_request_due_time() {
        let p = phase(Duration::from_millis(50), Reply::Revoked);
        assert_eq!((p.received, p.failed, p.mismatched), (p.sent, 0, 0));
        assert!(p.sent > 500, "{} sent", p.sent);
        // Requests kept leaving on schedule while the server stalled...
        assert!(stats::percentile(&p.late_us, 0.5).expect("enough sends") < 1_000.0);
        // ...so they queued, and each one's wait counts from its due time.
        assert!(
            p.outstanding_max >= 20,
            "outstanding max {}",
            p.outstanding_max
        );
        let stalled = p.write_us.iter().filter(|&&us| us > 20_000.0).count();
        assert!(stalled >= 20, "{stalled} requests saw the stall");
        assert!(p.write_us.iter().cloned().fold(0.0, f64::max) >= 49_000.0);
    }

    #[test]
    fn replies_that_differ_from_the_prediction_are_counted() {
        let p = phase(Duration::ZERO, Reply::Enrolled { bits: 1 });
        assert!(p.sent > 0);
        assert_eq!(p.mismatched, p.sent);
        assert_eq!(p.mismatches.len(), 5);
    }
}
