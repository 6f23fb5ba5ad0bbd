//! Shared fixtures for the server crate's unit tests.

use std::path::PathBuf;

use ropuf_core::lifecycle::KeyCode;
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::EnrollOptions;
use ropuf_core::robust::FaultPlan;
use ropuf_num::bits::BitVec;

use crate::drill::provision;

/// One device's worth of enrollable material.
pub struct Fixture {
    /// Versioned `persist` envelope.
    pub enrollment_bytes: Vec<u8>,
    /// Versioned Key Code bytes.
    pub key_code_bytes: Vec<u8>,
    /// The enrollment's expected response bits.
    pub expected: BitVec,
    /// The parsed Key Code.
    pub key_code: KeyCode,
}

/// Provisions board `seed` (80 units, 12 columns) into store payloads.
/// Deterministic in `seed`.
pub fn enrolled_fixture(seed: u64) -> Fixture {
    let device = provision(
        seed,
        seed as u32,
        80,
        12,
        EnrollOptions::default(),
        3,
        &FaultPlan::scaled(0.0),
    )
    .expect("fixture enrolls");
    Fixture {
        enrollment_bytes: enrollment_to_bytes(&device.enrollment),
        key_code_bytes: device.code.to_bytes(),
        expected: device.enrollment.expected_bits(),
        key_code: device.code,
    }
}

/// A fresh per-process scratch directory (cleared if it already
/// exists); callers remove it when done.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ropuf-server-{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}
