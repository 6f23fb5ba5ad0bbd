//! Request-scoped tracing: per-connection request ids, per-stage gate
//! timing, and a sampled JSON-lines access log.
//!
//! Tracing is observation-only. Ids and clock reads never influence a
//! reply, stage timers only run for requests the sampler already chose
//! (so an unsampled request costs one atomic increment), and the log
//! writes to its own file — stdout stays byte-identical with the log
//! on or off.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ropuf_telemetry::json::Value;

use crate::proto::Reply;

/// Identity of one request: which connection it arrived on and its
/// position in that connection's frame stream. Connection ids are
/// minted process-wide in `net.rs`; in-process callers (tests, the
/// serve bench) use [`RequestId::UNTRACED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestId {
    /// Process-wide connection number (1-based; 0 = no connection).
    pub conn: u64,
    /// Frame number within the connection (1-based; 0 = untracked).
    pub seq: u64,
}

impl RequestId {
    /// The id for requests that did not arrive over a connection.
    pub const UNTRACED: RequestId = RequestId { conn: 0, seq: 0 };
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.conn, self.seq)
    }
}

/// Measures the gate stages of one sampled request: each
/// [`mark`](Self::mark) closes the stage since the previous mark. A
/// request rejected mid-pipeline simply has fewer stages — the last
/// recorded stage names where the gate stopped.
pub(crate) struct StageTimer {
    last: Instant,
    stages: Vec<(&'static str, u64)>,
}

impl StageTimer {
    pub(crate) fn new() -> Self {
        Self {
            last: Instant::now(),
            stages: Vec::with_capacity(5),
        }
    }

    /// Closes the stage named `name` at the current instant.
    pub(crate) fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        let us = now
            .duration_since(self.last)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        self.stages.push((name, us));
        self.last = now;
    }

    pub(crate) fn stages(&self) -> &[(&'static str, u64)] {
        &self.stages
    }
}

/// Renders one access-log line (no trailing newline): request id, op,
/// device, verdict (+ reject reason or error message), total micros,
/// and the per-stage micros the gate recorded.
pub(crate) fn render_record(
    id: RequestId,
    op: &'static str,
    device_id: u64,
    reply: &Reply,
    total_us: u64,
    stages: &[(&'static str, u64)],
) -> String {
    let verdict = match reply {
        Reply::Enrolled { .. } => "enrolled",
        Reply::AuthOk { .. } => "auth_ok",
        Reply::Key { .. } => "key",
        Reply::Revoked => "revoked",
        Reply::Reenrolled { .. } => "reenrolled",
        Reply::Reject { .. } => "reject",
        Reply::Error { .. } => "error",
    };
    let mut members = vec![
        ("conn", Value::from(id.conn)),
        ("seq", Value::from(id.seq)),
        ("op", Value::from(op)),
        ("device", Value::from(device_id)),
        ("verdict", Value::from(verdict)),
    ];
    match reply {
        Reply::Reject { reason } => members.push(("reason", Value::from(reason.as_str()))),
        Reply::Error { message } => members.push(("reason", Value::from(message.clone()))),
        _ => {}
    }
    members.push(("total_us", Value::from(total_us)));
    if !stages.is_empty() {
        let stages = stages.iter().map(|&(name, us)| (name, Value::from(us)));
        members.push(("stages", Value::object(stages)));
    }
    Value::object(members).to_line()
}

/// A sampled JSON-lines access log. Sampling is deterministic in the
/// request order (every `sample`-th handled request process-wide), so
/// a drill's sampled set does not depend on timing.
pub struct AccessLog {
    out: Mutex<BufWriter<File>>,
    sample: u64,
    seen: AtomicU64,
}

impl AccessLog {
    /// Creates (truncating) the log at `path`, keeping one request in
    /// every `sample` (`1` = log everything).
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is zero (the CLI rejects it earlier with a
    /// typed error; this guards in-process callers).
    pub fn create(path: &Path, sample: u64) -> io::Result<Self> {
        assert!(sample >= 1, "sample rate must be at least 1");
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            sample,
            seen: AtomicU64::new(0),
        })
    }

    /// Decides whether the next request is sampled (and counts it).
    pub(crate) fn sample_next(&self) -> bool {
        self.seen
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample)
    }

    /// Appends one rendered record line.
    pub(crate) fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{line}");
    }

    /// Flushes buffered records to disk (call before exit; drops are
    /// also flushed by `BufWriter`'s own drop).
    pub fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RejectReason;
    use crate::testutil::temp_dir;
    use ropuf_telemetry::json;

    #[test]
    fn records_render_verdicts_reasons_and_stages() {
        let id = RequestId { conn: 3, seq: 7 };
        let line = render_record(
            id,
            "auth",
            42,
            &Reply::Reject {
                reason: RejectReason::LowCoverage,
            },
            15,
            &[("nonce", 1), ("shape", 0), ("coverage", 2)],
        );
        assert_eq!(
            line,
            "{\"conn\": 3, \"seq\": 7, \"op\": \"auth\", \"device\": 42, \
             \"verdict\": \"reject\", \"reason\": \"low_coverage\", \"total_us\": 15, \
             \"stages\": {\"nonce\": 1, \"shape\": 0, \"coverage\": 2}}"
        );
        assert_eq!(id.to_string(), "3:7");
    }

    #[test]
    fn error_messages_are_escaped() {
        let line = render_record(
            RequestId::UNTRACED,
            "enroll",
            1,
            &Reply::Error {
                message: "disk \"full\"\nretry".into(),
            },
            2,
            &[],
        );
        assert!(line.contains("\"reason\": \"disk \\\"full\\\"\\nretry\""));
        assert!(!line.contains("stages"), "no stages key when none ran");
    }

    #[test]
    fn sampling_keeps_every_nth_request() {
        let dir = temp_dir("access-sample");
        let log = AccessLog::create(&dir.join("a.jsonl"), 3).unwrap();
        let picks: Vec<bool> = (0..7).map(|_| log.sample_next()).collect();
        assert_eq!(picks, [true, false, false, true, false, false, true]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_writes_parseable_lines() {
        let dir = temp_dir("access-write");
        let path = dir.join("log.jsonl");
        let log = AccessLog::create(&path, 1).unwrap();
        log.write_line(&render_record(
            RequestId { conn: 1, seq: 1 },
            "auth",
            5,
            &Reply::AuthOk {
                compared: 8,
                flips: 0,
            },
            11,
            &[("verdict", 11)],
        ));
        log.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let record = json::parse(text.trim_end()).expect("one JSON record");
        assert_eq!(record.get("op").and_then(Value::as_str), Some("auth"));
        assert_eq!(
            record.get("verdict").and_then(Value::as_str),
            Some("auth_ok")
        );
        assert_eq!(
            record
                .get("stages")
                .and_then(|s| s.get("verdict"))
                .and_then(Value::as_u64),
            Some(11)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
