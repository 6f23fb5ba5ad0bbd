//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` body length
//! followed by the body. A request body is an opcode byte, the target
//! device id, and the op payload; a reply body is a status byte and the
//! status payload. All integers are little-endian; response bits travel
//! as two packed LSB-first bit planes (a validity mask and the values),
//! so erasures from the fault-screened read-out survive the wire.
//!
//! The protocol deliberately carries only helper data, configuration
//! vectors, Key Codes, and response *bits* — never raw delay
//! measurements (the Wilde et al. security framing: helper data is
//! public, delays are the secret).

use std::io::{self, Read, Write};

use ropuf_num::bits::BitVec;

/// Frames larger than this are rejected before allocation: the largest
/// legitimate body is an `enroll` carrying one enrollment text.
pub const MAX_FRAME_BYTES: u32 = 1 << 22;

const OP_ENROLL: u8 = 1;
const OP_AUTH: u8 = 2;
const OP_DERIVE_KEY: u8 = 3;
const OP_REVOKE: u8 = 4;
const OP_REENROLL: u8 = 5;

const ST_ENROLLED: u8 = 0;
const ST_AUTH_OK: u8 = 1;
const ST_KEY: u8 = 2;
const ST_REVOKED: u8 = 3;
const ST_REJECT: u8 = 4;
const ST_ERROR: u8 = 5;
const ST_REENROLLED: u8 = 6;

/// A fault-screened response read-out in wire form: one `Option<bool>`
/// per enrolled bit, `None` marking erasures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBits {
    bits: Vec<Option<bool>>,
}

impl WireBits {
    /// Wraps a read-out (the output of `respond_robust_bound`).
    pub fn new(bits: Vec<Option<bool>>) -> Self {
        Self { bits }
    }

    /// The carried bits.
    pub fn bits(&self) -> &[Option<bool>] {
        &self.bits
    }

    /// Number of positions (valid + erased).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the read-out carries no positions.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        BitVec::pack(self.bits.iter().map(Option::is_some), out);
        BitVec::pack(self.bits.iter().map(|b| *b == Some(true)), out);
    }

    fn decode_from(buf: &[u8], at: &mut usize) -> Result<Self, ProtoError> {
        let n = take_u32(buf, at)? as usize;
        let plane_bytes = n.div_ceil(8);
        let valid = BitVec::unpack(take_slice(buf, at, plane_bytes)?, n);
        let values = BitVec::unpack(take_slice(buf, at, plane_bytes)?, n);
        let bits = valid
            .zip(values)
            .map(|(valid, value)| valid.then_some(value))
            .collect();
        Ok(Self { bits })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register a device: its enrollment (versioned `persist` envelope)
    /// and its Key Code (versioned `lifecycle` bytes).
    Enroll {
        /// Device identity.
        device_id: u64,
        /// `persist::enrollment_to_bytes` output.
        enrollment: Vec<u8>,
        /// `KeyCode::to_bytes` output.
        key_code: Vec<u8>,
    },
    /// Authenticate a fresh read-out against the stored helper data.
    Auth {
        /// Device identity.
        device_id: u64,
        /// Replay-protection nonce; reusing a recent nonce is rejected.
        nonce: u64,
        /// The fault-screened read-out.
        response: WireBits,
    },
    /// Authenticate and, on success, reconstruct the key behind the
    /// stored Key Code from the supplied read-out.
    DeriveKey {
        /// Device identity.
        device_id: u64,
        /// Replay-protection nonce.
        nonce: u64,
        /// The fault-screened read-out.
        response: WireBits,
    },
    /// Remove a device; its id may re-enroll afterwards.
    Revoke {
        /// Device identity.
        device_id: u64,
    },
    /// Supersede a live enrollment with a replacement (the
    /// drift-triggered re-enrollment commit): same payload shape as
    /// [`Request::Enroll`], but the device must already be enrolled.
    /// The old generation keeps authenticating until the new record is
    /// durable — there is no unenrolled window.
    Reenroll {
        /// Device identity.
        device_id: u64,
        /// `persist::enrollment_to_bytes` output (the replacement).
        enrollment: Vec<u8>,
        /// `KeyCode::to_bytes` output (re-issued for the new bits).
        key_code: Vec<u8>,
    },
}

impl Request {
    /// The targeted device.
    pub fn device_id(&self) -> u64 {
        match self {
            Request::Enroll { device_id, .. }
            | Request::Auth { device_id, .. }
            | Request::DeriveKey { device_id, .. }
            | Request::Revoke { device_id }
            | Request::Reenroll { device_id, .. } => *device_id,
        }
    }

    /// The op name, as used in telemetry span/counter names.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Enroll { .. } => "enroll",
            Request::Auth { .. } => "auth",
            Request::DeriveKey { .. } => "derive_key",
            Request::Revoke { .. } => "revoke",
            Request::Reenroll { .. } => "reenroll",
        }
    }

    /// Serializes to a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Enroll {
                device_id,
                enrollment,
                key_code,
            } => {
                out.push(OP_ENROLL);
                out.extend_from_slice(&device_id.to_le_bytes());
                out.extend_from_slice(&(enrollment.len() as u32).to_le_bytes());
                out.extend_from_slice(enrollment);
                out.extend_from_slice(&(key_code.len() as u32).to_le_bytes());
                out.extend_from_slice(key_code);
            }
            Request::Auth {
                device_id,
                nonce,
                response,
            } => {
                out.push(OP_AUTH);
                out.extend_from_slice(&device_id.to_le_bytes());
                out.extend_from_slice(&nonce.to_le_bytes());
                response.encode_into(&mut out);
            }
            Request::DeriveKey {
                device_id,
                nonce,
                response,
            } => {
                out.push(OP_DERIVE_KEY);
                out.extend_from_slice(&device_id.to_le_bytes());
                out.extend_from_slice(&nonce.to_le_bytes());
                response.encode_into(&mut out);
            }
            Request::Revoke { device_id } => {
                out.push(OP_REVOKE);
                out.extend_from_slice(&device_id.to_le_bytes());
            }
            Request::Reenroll {
                device_id,
                enrollment,
                key_code,
            } => {
                out.push(OP_REENROLL);
                out.extend_from_slice(&device_id.to_le_bytes());
                out.extend_from_slice(&(enrollment.len() as u32).to_le_bytes());
                out.extend_from_slice(enrollment);
                out.extend_from_slice(&(key_code.len() as u32).to_le_bytes());
                out.extend_from_slice(key_code);
            }
        }
        out
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on an unknown opcode, truncation, or trailing
    /// garbage.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut at = 0usize;
        let op = take_u8(buf, &mut at)?;
        let device_id = take_u64(buf, &mut at)?;
        let req = match op {
            OP_ENROLL => {
                let elen = take_u32(buf, &mut at)? as usize;
                let enrollment = take_slice(buf, &mut at, elen)?.to_vec();
                let klen = take_u32(buf, &mut at)? as usize;
                let key_code = take_slice(buf, &mut at, klen)?.to_vec();
                Request::Enroll {
                    device_id,
                    enrollment,
                    key_code,
                }
            }
            OP_AUTH => Request::Auth {
                device_id,
                nonce: take_u64(buf, &mut at)?,
                response: WireBits::decode_from(buf, &mut at)?,
            },
            OP_DERIVE_KEY => Request::DeriveKey {
                device_id,
                nonce: take_u64(buf, &mut at)?,
                response: WireBits::decode_from(buf, &mut at)?,
            },
            OP_REVOKE => Request::Revoke { device_id },
            OP_REENROLL => {
                let elen = take_u32(buf, &mut at)? as usize;
                let enrollment = take_slice(buf, &mut at, elen)?.to_vec();
                let klen = take_u32(buf, &mut at)? as usize;
                let key_code = take_slice(buf, &mut at, klen)?.to_vec();
                Request::Reenroll {
                    device_id,
                    enrollment,
                    key_code,
                }
            }
            other => return Err(ProtoError::new(format!("unknown opcode {other}"))),
        };
        expect_end(buf, at)?;
        Ok(req)
    }
}

/// Why a request was refused. The discriminants are the wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// No such device in the store.
    UnknownDevice = 1,
    /// The id already holds a live enrollment.
    AlreadyEnrolled = 2,
    /// The nonce was seen recently — a replayed read-out.
    Replay = 3,
    /// Too many consecutive failures. The lockout clears only when the
    /// enrollment is replaced: revoke-then-enroll, or an accepted
    /// `reenroll` (generation supersede). It never times out.
    LockedOut = 4,
    /// The device was quarantined for sustained degradation. Like
    /// lockout, only revoke or a successful `reenroll` clears it.
    Quarantined = 5,
    /// Too many response bits disagree with the helper data.
    TooManyFlips = 6,
    /// Too few valid (non-erased) bits to judge the response.
    LowCoverage = 7,
    /// Structurally invalid request (bad lengths, unparsable payload).
    BadRequest = 8,
    /// The payload was written by an incompatible format version.
    UnsupportedVersion = 9,
}

impl RejectReason {
    /// Stable lower-case label (used in transcripts and counters).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::UnknownDevice => "unknown_device",
            RejectReason::AlreadyEnrolled => "already_enrolled",
            RejectReason::Replay => "replay",
            RejectReason::LockedOut => "locked_out",
            RejectReason::Quarantined => "quarantined",
            RejectReason::TooManyFlips => "too_many_flips",
            RejectReason::LowCoverage => "low_coverage",
            RejectReason::BadRequest => "bad_request",
            RejectReason::UnsupportedVersion => "unsupported_version",
        }
    }

    fn from_wire(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => RejectReason::UnknownDevice,
            2 => RejectReason::AlreadyEnrolled,
            3 => RejectReason::Replay,
            4 => RejectReason::LockedOut,
            5 => RejectReason::Quarantined,
            6 => RejectReason::TooManyFlips,
            7 => RejectReason::LowCoverage,
            8 => RejectReason::BadRequest,
            9 => RejectReason::UnsupportedVersion,
            other => return Err(ProtoError::new(format!("unknown reject reason {other}"))),
        })
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Enrollment stored; reports the usable bit count.
    Enrolled {
        /// Usable (non-excluded) bits in the stored enrollment.
        bits: u32,
    },
    /// Authentication accepted.
    AuthOk {
        /// Valid (non-erased) bit positions compared.
        compared: u32,
        /// Positions that disagreed with the stored expected bits.
        flips: u32,
    },
    /// Key reconstructed from the stored Key Code.
    Key {
        /// The reconstructed key bits.
        key: BitVec,
    },
    /// Device removed.
    Revoked,
    /// Replacement enrollment committed; the device now serves the new
    /// generation (lockout and quarantine are healed).
    Reenrolled {
        /// Usable (non-excluded) bits in the replacement enrollment.
        bits: u32,
        /// Generation number of the new record (the original
        /// enrollment is generation 0).
        generation: u32,
    },
    /// Request refused.
    Reject {
        /// Why.
        reason: RejectReason,
    },
    /// Server-side failure while handling the request.
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl Reply {
    /// Serializes to a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Reply::Enrolled { bits } => {
                out.push(ST_ENROLLED);
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Reply::AuthOk { compared, flips } => {
                out.push(ST_AUTH_OK);
                out.extend_from_slice(&compared.to_le_bytes());
                out.extend_from_slice(&flips.to_le_bytes());
            }
            Reply::Key { key } => {
                out.push(ST_KEY);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                BitVec::pack(key.iter(), &mut out);
            }
            Reply::Revoked => out.push(ST_REVOKED),
            Reply::Reenrolled { bits, generation } => {
                out.push(ST_REENROLLED);
                out.extend_from_slice(&bits.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Reply::Reject { reason } => {
                out.push(ST_REJECT);
                out.push(*reason as u8);
            }
            Reply::Error { message } => {
                out.push(ST_ERROR);
                let msg = message.as_bytes();
                out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
                out.extend_from_slice(msg);
            }
        }
        out
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on an unknown status byte, truncation, or
    /// trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut at = 0usize;
        let st = take_u8(buf, &mut at)?;
        let reply = match st {
            ST_ENROLLED => Reply::Enrolled {
                bits: take_u32(buf, &mut at)?,
            },
            ST_AUTH_OK => Reply::AuthOk {
                compared: take_u32(buf, &mut at)?,
                flips: take_u32(buf, &mut at)?,
            },
            ST_KEY => {
                let n = take_u32(buf, &mut at)? as usize;
                Reply::Key {
                    key: BitVec::unpack(take_slice(buf, &mut at, n.div_ceil(8))?, n).collect(),
                }
            }
            ST_REVOKED => Reply::Revoked,
            ST_REENROLLED => Reply::Reenrolled {
                bits: take_u32(buf, &mut at)?,
                generation: take_u32(buf, &mut at)?,
            },
            ST_REJECT => Reply::Reject {
                reason: RejectReason::from_wire(take_u8(buf, &mut at)?)?,
            },
            ST_ERROR => {
                let n = take_u16(buf, &mut at)? as usize;
                let bytes = take_slice(buf, &mut at, n)?;
                Reply::Error {
                    message: String::from_utf8_lossy(bytes).into_owned(),
                }
            }
            other => return Err(ProtoError::new(format!("unknown status byte {other}"))),
        };
        expect_end(buf, at)?;
        Ok(reply)
    }
}

/// Writes one frame (length prefix + body).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame body, or `None` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// An [`io::Error`] on truncation mid-frame or a body longer than
/// [`MAX_FRAME_BYTES`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// A malformed frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtoError {}

fn take_u8(buf: &[u8], at: &mut usize) -> Result<u8, ProtoError> {
    let s = take_slice(buf, at, 1)?;
    Ok(s[0])
}

fn take_u16(buf: &[u8], at: &mut usize) -> Result<u16, ProtoError> {
    let s = take_slice(buf, at, 2)?;
    Ok(u16::from_le_bytes([s[0], s[1]]))
}

fn take_u32(buf: &[u8], at: &mut usize) -> Result<u32, ProtoError> {
    let s = take_slice(buf, at, 4)?;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn take_u64(buf: &[u8], at: &mut usize) -> Result<u64, ProtoError> {
    let s = take_slice(buf, at, 8)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Ok(u64::from_le_bytes(b))
}

fn take_slice<'b>(buf: &'b [u8], at: &mut usize, n: usize) -> Result<&'b [u8], ProtoError> {
    if buf.len().saturating_sub(*at) < n {
        return Err(ProtoError::new(format!(
            "truncated body: wanted {n} bytes at offset {at}, have {}",
            buf.len().saturating_sub(*at)
        )));
    }
    let s = &buf[*at..*at + n];
    *at += n;
    Ok(s)
}

fn expect_end(buf: &[u8], at: usize) -> Result<(), ProtoError> {
    if at != buf.len() {
        return Err(ProtoError::new(format!(
            "{} trailing bytes after a complete message",
            buf.len() - at
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn round_trip_reply(reply: Reply) {
        assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Enroll {
            device_id: 7,
            enrollment: b"ROPF....payload".to_vec(),
            key_code: b"RPKC....".to_vec(),
        });
        round_trip_request(Request::Auth {
            device_id: u64::MAX,
            nonce: 3,
            response: WireBits::new(vec![Some(true), None, Some(false), None, Some(true)]),
        });
        round_trip_request(Request::DeriveKey {
            device_id: 0,
            nonce: u64::MAX,
            response: WireBits::new(
                (0..77)
                    .map(|i| (i % 3 != 0).then_some(i % 2 == 0))
                    .collect(),
            ),
        });
        round_trip_request(Request::Revoke { device_id: 42 });
        round_trip_request(Request::Reenroll {
            device_id: 9,
            enrollment: b"ROPF....replacement".to_vec(),
            key_code: b"RPKC....new".to_vec(),
        });
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Reply::Enrolled { bits: 34 });
        round_trip_reply(Reply::AuthOk {
            compared: 34,
            flips: 2,
        });
        round_trip_reply(Reply::Key {
            key: (0..65).map(|i| i % 2 == 1).collect(),
        });
        round_trip_reply(Reply::Revoked);
        round_trip_reply(Reply::Reenrolled {
            bits: 31,
            generation: 2,
        });
        for reason in [
            RejectReason::UnknownDevice,
            RejectReason::AlreadyEnrolled,
            RejectReason::Replay,
            RejectReason::LockedOut,
            RejectReason::Quarantined,
            RejectReason::TooManyFlips,
            RejectReason::LowCoverage,
            RejectReason::BadRequest,
            RejectReason::UnsupportedVersion,
        ] {
            round_trip_reply(Reply::Reject { reason });
        }
        round_trip_reply(Reply::Error {
            message: "store unavailable".to_string(),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(Reply::decode(&[99]).is_err());
        // Trailing garbage after a complete message.
        let mut body = Request::Revoke { device_id: 1 }.encode();
        body.push(0);
        assert!(Request::decode(&body)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
        // Truncated payload length.
        let body = Request::Auth {
            device_id: 1,
            nonce: 2,
            response: WireBits::new(vec![Some(true); 40]),
        }
        .encode();
        assert!(Request::decode(&body[..body.len() - 1]).is_err());
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut r = io::Cursor::new(oversized);
        assert!(read_frame(&mut r).is_err());

        // Truncation mid-frame is an error, not a clean EOF.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&8u32.to_le_bytes());
        truncated.extend_from_slice(b"abc");
        let mut r = io::Cursor::new(truncated);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn erasures_survive_the_wire_bit_for_bit() {
        // Every (valid, value) combination across a non-multiple-of-8
        // length — the exact vector respond_robust_bound produces.
        let bits: Vec<Option<bool>> = (0..133)
            .map(|i| match i % 4 {
                0 => Some(true),
                1 => Some(false),
                2 => None,
                _ => Some(i % 8 < 4),
            })
            .collect();
        let req = Request::Auth {
            device_id: 5,
            nonce: 6,
            response: WireBits::new(bits.clone()),
        };
        match Request::decode(&req.encode()).unwrap() {
            Request::Auth { response, .. } => assert_eq!(response.bits(), &bits[..]),
            other => panic!("wrong variant {other:?}"),
        }
    }
}
