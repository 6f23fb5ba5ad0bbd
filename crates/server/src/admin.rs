//! The admin scrape surface: minimal hand-rolled HTTP/1.1 (GET only,
//! `Connection: close`, no new dependencies), answered one exchange at
//! a time on the admin accept thread. It shares no queue with the
//! binary protocol, so clients holding every worker cannot silence the
//! operator's probe.
//!
//! Three endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition: the process-wide
//!   telemetry registry (when a trace sink is installed), the rolling
//!   windowed serve families, and the service + SLO gauge board.
//! * `GET /healthz` — that board's [`HealthReport`] as versioned JSON
//!   (`"version"` = schema version).
//! * `GET /slo` — the two objectives' focused JSON document
//!   (objectives, window counts, burn rates, statuses).
//!
//! The admin plane is read-only: nothing it serves can mutate the
//! store or influence a gate decision.
//!
//! [`HealthReport`]: ropuf_telemetry::HealthReport

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ropuf_telemetry as telemetry;

use crate::service::PufService;

/// Upper bound on the request head (request line + headers) we will
/// buffer; curl and Prometheus scrapers stay well under this.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// How long one read or write of an exchange may wait on the client.
/// The admin thread serves one exchange at a time, so a client that
/// goes silent holds it for at most this long.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Serves one admin HTTP exchange; the connection closes when the
/// caller drops `stream`.
pub(crate) fn serve_admin(service: &PufService, stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers (ignored — GET carries no body we care about).
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(
            stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    match path {
        "/metrics" => respond(
            stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &metrics_body(service),
        ),
        "/healthz" => respond(
            stream,
            "200 OK",
            "application/json",
            &service.operations_report().to_json(),
        ),
        "/slo" => respond(stream, "200 OK", "application/json", &service.slo_json()),
        _ => respond(
            stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found (try /metrics, /healthz, /slo)\n",
        ),
    }
}

/// The `/metrics` exposition: the cumulative registry, the windowed
/// families, and the merged health/SLO board, all under the `ropuf_`
/// prefix. The three sections use disjoint metric names, so each
/// family appears exactly once.
fn metrics_body(service: &PufService) -> String {
    let mut out = telemetry::snapshot().render_prometheus("ropuf_");
    out.push_str(&service.ops().render_window_metrics("ropuf_"));
    out.push_str(&service.operations_report().render_prometheus("ropuf_"));
    out
}

fn respond(mut stream: &TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
