//! The decoders of untrusted bytes a server reads off the wire and out of
//! its store's records: `Request::decode`, `Reply::decode` and
//! `KeyCode::from_bytes` return a value or a typed error, never panic,
//! on arbitrary bytes and on every truncation and single-byte mutation
//! of encoded values, and every generated value round-trips.
//!
//! 64 cases a test by default; CI runs them at `PROPTEST_CASES=5000`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_core::lifecycle::{KeyCode, KEY_CODE_MAGIC, KEY_CODE_VERSION};
use ropuf_num::bits::BitVec;
use ropuf_server::{RejectReason, Reply, Request, WireBits};

/// Bit counts on both sides of a byte and a word, and none.
const EDGE_LENS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 133];

/// An id or nonce: half the time 0, 1 or `u64::MAX`.
fn id(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.5) {
        [0, 1, u64::MAX][rng.gen_range(0..3)]
    } else {
        rng.gen()
    }
}

/// A count: half the time 0, 1 or `u32::MAX`.
fn count(rng: &mut StdRng) -> u32 {
    if rng.gen_bool(0.5) {
        [0, 1, u32::MAX][rng.gen_range(0..3)]
    } else {
        rng.gen()
    }
}

/// A bit count: half the time one of [`EDGE_LENS`].
fn len(rng: &mut StdRng) -> usize {
    if rng.gen_bool(0.5) {
        EDGE_LENS[rng.gen_range(0..EDGE_LENS.len())]
    } else {
        rng.gen_range(0..300)
    }
}

fn bytes(rng: &mut StdRng) -> Vec<u8> {
    let n = rng.gen_range(0..48);
    (0..n).map(|_| rng.gen()).collect()
}

fn read_out(rng: &mut StdRng) -> WireBits {
    let n = len(rng);
    WireBits::new(
        (0..n)
            .map(|_| [Some(true), Some(false), None][rng.gen_range(0..3)])
            .collect(),
    )
}

fn request(seed: u64) -> Request {
    let mut rng = StdRng::seed_from_u64(seed);
    let device_id = id(&mut rng);
    match rng.gen_range(0..5) {
        0 => Request::Enroll {
            device_id,
            enrollment: bytes(&mut rng),
            key_code: bytes(&mut rng),
        },
        1 => Request::Auth {
            device_id,
            nonce: id(&mut rng),
            response: read_out(&mut rng),
        },
        2 => Request::DeriveKey {
            device_id,
            nonce: id(&mut rng),
            response: read_out(&mut rng),
        },
        3 => Request::Revoke { device_id },
        _ => Request::Reenroll {
            device_id,
            enrollment: bytes(&mut rng),
            key_code: bytes(&mut rng),
        },
    }
}

fn reply(seed: u64) -> Reply {
    let mut rng = StdRng::seed_from_u64(seed);
    match rng.gen_range(0..7) {
        0 => Reply::Enrolled {
            bits: count(&mut rng),
        },
        1 => Reply::AuthOk {
            compared: count(&mut rng),
            flips: count(&mut rng),
        },
        2 => {
            let n = len(&mut rng);
            Reply::Key {
                key: (0..n).map(|_| rng.gen_bool(0.5)).collect(),
            }
        }
        3 => Reply::Revoked,
        4 => Reply::Reenrolled {
            bits: count(&mut rng),
            generation: count(&mut rng),
        },
        5 => Reply::Reject {
            reason: RejectReason::ALL[rng.gen_range(0..RejectReason::ALL.len())],
        },
        _ => {
            // One-, two-, three- and four-byte chars.
            let n = rng.gen_range(0..40);
            let message = (0..n)
                .map(|_| ['a', ',', 'é', '€', '𝄞'][rng.gen_range(0..5)])
                .collect();
            Reply::Error { message }
        }
    }
}

/// The bytes of a well-formed Key Code: an odd repetition up to 15, a
/// helper of 1–40 whole blocks, its last byte zero-padded.
fn key_code(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let repetition = 2 * rng.gen_range(0..8u16) + 1;
    let blocks = rng.gen_range(1..=40);
    key_code_of(&mut rng, repetition, blocks)
}

/// A Key Code of `blocks` repetition-`repetition` blocks of random
/// helper bits.
fn key_code_of(rng: &mut StdRng, repetition: u16, blocks: usize) -> Vec<u8> {
    let helper_bits = usize::from(repetition) * blocks;
    let mut out = KEY_CODE_MAGIC.to_vec();
    out.extend_from_slice(&KEY_CODE_VERSION.to_le_bytes());
    out.extend_from_slice(&repetition.to_le_bytes());
    out.extend_from_slice(&(helper_bits as u32).to_le_bytes());
    BitVec::pack((0..helper_bits).map(|_| rng.gen_bool(0.5)), &mut out);
    out
}

/// Decodes every strict prefix of `body` (each must fail: every field
/// is fixed-size or length-prefixed) and every single-byte mutation of
/// it, to a value that encodes and decodes back to itself or an error.
fn check_cuts_and_mutations<T: PartialEq + std::fmt::Debug>(
    body: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, String>,
    encode: impl Fn(&T) -> Vec<u8>,
    byte: u8,
) -> Result<(), TestCaseError> {
    for cut in 0..body.len() {
        prop_assert!(
            decode(&body[..cut]).is_err(),
            "prefix of {cut} bytes decodes"
        );
    }
    for at in 0..body.len() {
        let mut mutated = body.to_vec();
        mutated[at] = mutated[at].wrapping_add(byte).wrapping_add(1);
        if let Ok(value) = decode(&mutated) {
            prop_assert_eq!(decode(&encode(&value)), Ok(value));
        }
    }
    Ok(())
}

fn decode_request(body: &[u8]) -> Result<Request, String> {
    Request::decode(body).map_err(|e| e.to_string())
}

fn decode_reply(body: &[u8]) -> Result<Reply, String> {
    Reply::decode(body).map_err(|e| e.to_string())
}

fn decode_key_code(bytes: &[u8]) -> Result<KeyCode, String> {
    KeyCode::from_bytes(bytes).map_err(|e| e.to_string())
}

/// The largest repetition the `u16` field holds, one block.
#[test]
fn a_key_code_of_the_largest_repetition_round_trips() {
    let bytes = key_code_of(&mut StdRng::seed_from_u64(1), u16::MAX, 1);
    let code = KeyCode::from_bytes(&bytes).unwrap();
    assert_eq!((code.repetition(), code.key_bits()), (65_535, 1));
    assert_eq!(code.to_bytes(), bytes);
    assert!(KeyCode::from_bytes(&bytes[..bytes.len() - 1]).is_err());
}

proptest! {
    #[test]
    fn requests_round_trip_and_survive_cuts_and_mutations(seed in any::<u64>(), byte in any::<u8>()) {
        let request = request(seed);
        let body = request.encode();
        prop_assert_eq!(Request::decode(&body), Ok(request));
        check_cuts_and_mutations(&body, decode_request, Request::encode, byte)?;
    }

    #[test]
    fn replies_round_trip_and_survive_cuts_and_mutations(seed in any::<u64>(), byte in any::<u8>()) {
        let reply = reply(seed);
        let body = reply.encode();
        prop_assert_eq!(Reply::decode(&body), Ok(reply));
        check_cuts_and_mutations(&body, decode_reply, Reply::encode, byte)?;
    }

    #[test]
    fn key_codes_round_trip_and_survive_cuts_and_mutations(seed in any::<u64>(), byte in any::<u8>()) {
        let bytes = key_code(seed);
        let code = KeyCode::from_bytes(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(code.to_bytes(), bytes.clone());
        check_cuts_and_mutations(&bytes, decode_key_code, KeyCode::to_bytes, byte)?;
    }

    /// Arbitrary bytes, bare or behind a valid first byte (opcode,
    /// status) or Key Code header, so the decoders get past their
    /// first check.
    #[test]
    fn decoders_return_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        lead in 0u8..10,
    ) {
        let mut framed = vec![lead];
        framed.extend_from_slice(&bytes);
        let mut keyed = KEY_CODE_MAGIC.to_vec();
        keyed.extend_from_slice(&KEY_CODE_VERSION.to_le_bytes());
        keyed.extend_from_slice(&bytes);
        for input in [&bytes, &framed, &keyed] {
            if let Ok(request) = Request::decode(input) {
                prop_assert_eq!(Request::decode(&request.encode()), Ok(request));
            }
            if let Ok(reply) = Reply::decode(input) {
                prop_assert_eq!(Reply::decode(&reply.encode()), Ok(reply));
            }
            if let Ok(code) = KeyCode::from_bytes(input) {
                prop_assert_eq!(KeyCode::from_bytes(&code.to_bytes()).ok(), Some(code));
            }
        }
    }
}
