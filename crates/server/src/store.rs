//! Sharded, fsync'd, append-only enrollment store.
//!
//! The store persists exactly two artefacts per device: the enrollment
//! (helper data + configuration vectors, in the versioned `persist`
//! envelope) and the Key Code (versioned `lifecycle` bytes). Raw delay
//! measurements never reach this layer — the on-disk format has no
//! field that could carry them.
//!
//! Layout: a directory of `shard_NNN.log` files, a device landing in
//! shard `device_id % shards`. Each file opens with a magic + version
//! header and then a sequence of records:
//!
//! ```text
//! header    := "RPUFSTOR" u16:version
//! record    := u8:kind u64:device_id payload
//! enroll    := kind=1, payload = u32:elen elen*u8 u32:klen klen*u8
//! revoke    := kind=2, payload empty (tombstone)
//! supersede := kind=3, payload = u32:generation u32:elen elen*u8 u32:klen klen*u8
//! ```
//!
//! A supersede record is the commit point of a drift-triggered
//! re-enrollment: it replaces a *live* enrollment in place (generation
//! `n` → `n+1`) without an unenrolled window — the old generation
//! keeps authenticating until the record is durable, and replay-on-open
//! resolves the latest generation. Committing a supersede also heals
//! the device's lockout/quarantine state: the gate parked the *old*
//! configuration, and the operator just replaced it.
//!
//! Opening a store replays every shard into an in-memory index of one
//! [`DeviceState`] a device (expected bits + Key Code + liveness
//! counters — the enrollment text itself stays on disk only): one
//! 160-byte hash slot with the device id and no heap block, so a
//! million enrolled devices take about 340 MB of RAM (docs/SERVER.md
//! has the measurements). Replay streams each shard through a
//! fixed-size buffer into two reused payload buffers, checking every
//! length field against the bytes left before reading it, and shards
//! replay in parallel. Each envelope is validated in full but not
//! built: `persist::expected_bits_from_bytes` runs every check of the
//! enrollment parser in one pass, checking margins without computing
//! them, and keeps only the expected bits, the one part of the
//! enrollment the index serves from; `KeyCode::from_bytes` builds the
//! helper a word at a time. Both bit vectors hold up to 128 bits in
//! place, so validating the record of an enrollment of up to 128 pairs
//! allocates nothing. Enroll and supersede validate their payloads the same way.
//! A truncated trailing record is reported as corruption, not silently
//! dropped.
//!
//! Telemetry: a `serve.store.open` span around the whole open, one
//! `serve.store.replay` span per shard, and the
//! `serve.store.records_replayed` / `serve.store.bytes_replayed`
//! counters.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ropuf_core::error::Error as CoreError;
use ropuf_core::fleet::parallel_map_indexed;
use ropuf_core::lifecycle::KeyCode;
use ropuf_core::persist::expected_bits_from_bytes;
use ropuf_num::bits::BitVec;
use ropuf_telemetry as telemetry;

/// Shard-file magic.
pub const STORE_MAGIC: &[u8; 8] = b"RPUFSTOR";

/// Current shard-file format revision.
pub const STORE_VERSION: u16 = 1;

const KIND_ENROLL: u8 = 1;
const KIND_REVOKE: u8 = 2;
const KIND_SUPERSEDE: u8 = 3;

/// Bytes the replay reader buffers per shard.
const REPLAY_BUFFER: usize = 64 * 1024;

/// How many recent nonces each device remembers for replay rejection.
pub const NONCE_WINDOW: usize = 8;

// `DeviceState` counts the window's slots in `u8`s.
const _: () = assert!(NONCE_WINDOW <= u8::MAX as usize);

/// When appended records hit the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record — the durable default.
    EveryRecord,
    /// Let the OS schedule write-back; [`Store::sync_all`] forces it.
    /// For drills and benches where the store is throwaway.
    Batched,
}

/// The live, serving-relevant state of one enrolled device.
///
/// This is the whole per-device RAM footprint; the enrollment text is
/// re-read from disk only if an operator asks for it. It takes 152
/// bytes, and owns no heap block while the expected bits and the Key
/// Code helper fit in a `BitVec`'s 128 inline bits, as they do for
/// every enrollment of up to 128 pairs.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// Enrollment-time expected response bits (public helper data).
    pub expected: BitVec,
    /// The stored Key Code for `derive_key`.
    pub key_code: KeyCode,
    /// Ring buffer of recently seen nonces.
    pub nonces: [u64; NONCE_WINDOW],
    /// How many slots of `nonces` are occupied.
    pub nonce_len: u8,
    /// Next slot to overwrite once the ring is full.
    pub nonce_cursor: u8,
    /// Consecutive failed auth attempts (reset on success).
    pub consecutive_failures: u32,
    /// Consecutive *accepted* auths that still carried erasures.
    pub degraded_streak: u32,
    /// Rate-limit lockout: set when failures cross the threshold.
    pub locked: bool,
    /// Quarantine: set when degradation persists; cleared only by
    /// revoke or a committed supersede (re-enrollment).
    pub quarantined: bool,
    /// Which enrollment this state serves: 0 for the original record,
    /// bumped by every committed supersede.
    pub generation: u32,
}

impl DeviceState {
    fn fresh(expected: BitVec, key_code: KeyCode) -> Self {
        Self {
            expected,
            key_code,
            nonces: [0; NONCE_WINDOW],
            nonce_len: 0,
            nonce_cursor: 0,
            consecutive_failures: 0,
            degraded_streak: 0,
            locked: false,
            quarantined: false,
            generation: 0,
        }
    }

    /// Whether `nonce` was seen within the replay window.
    pub fn nonce_seen(&self, nonce: u64) -> bool {
        self.nonces[..usize::from(self.nonce_len)].contains(&nonce)
    }

    /// Records `nonce` as seen, evicting the oldest when full.
    pub fn remember_nonce(&mut self, nonce: u64) {
        let (len, cursor) = (usize::from(self.nonce_len), usize::from(self.nonce_cursor));
        if len < NONCE_WINDOW {
            self.nonces[len] = nonce;
            self.nonce_len += 1;
        } else {
            self.nonces[cursor] = nonce;
            self.nonce_cursor = ((cursor + 1) % NONCE_WINDOW) as u8;
        }
    }
}

struct Shard {
    file: File,
    devices: HashMap<u64, DeviceState>,
}

/// The sharded enrollment store.
pub struct Store {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
    fsync: FsyncPolicy,
}

/// Failures opening or mutating the store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A shard file violated the format (bad magic, truncated record).
    Corrupt {
        /// Offending shard file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A shard file was written by an incompatible format revision.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
    /// The device id already holds a live enrollment.
    AlreadyEnrolled,
    /// The device id holds no live enrollment (supersede needs one).
    UnknownDevice,
    /// The enrollment or Key Code bytes failed validation.
    BadPayload(String),
    /// The payload was written by an incompatible envelope version.
    PayloadVersion {
        /// Version found in the payload.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt shard {}: {detail}", path.display())
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "shard format version {found} (this build reads up to {supported})"
            ),
            StoreError::AlreadyEnrolled => write!(f, "device already enrolled"),
            StoreError::UnknownDevice => write!(f, "device not enrolled"),
            StoreError::BadPayload(detail) => write!(f, "bad payload: {detail}"),
            StoreError::PayloadVersion { found, supported } => write!(
                f,
                "payload format version {found} (this build reads up to {supported})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl Store {
    /// Opens (creating if absent) a store with `shards` shard files,
    /// replaying any existing records into the in-memory index.
    ///
    /// Shards replay in parallel on up to
    /// [`std::thread::available_parallelism`] threads, never more than
    /// there are shards. On failure the error is the lowest-index
    /// failing shard's, as a serial replay would report.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on I/O failure, a corrupt shard, or a shard
    /// written by a newer format revision.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn open(dir: &Path, shards: usize, fsync: FsyncPolicy) -> Result<Self, StoreError> {
        assert!(shards > 0, "a store needs at least one shard");
        let _span = telemetry::span("serve.store.open");
        fs::create_dir_all(dir)?;
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let replayed = parallel_map_indexed(shards, threads, |i| {
            Self::open_shard(&dir.join(format!("shard_{i:03}.log")))
        });
        Ok(Self {
            dir: dir.to_path_buf(),
            shards: replayed
                .into_iter()
                .map(|shard| shard.map(Mutex::new))
                .collect::<Result<_, _>>()?,
            fsync,
        })
    }

    fn open_shard(path: &Path) -> Result<Shard, StoreError> {
        let _span = telemetry::span("serve.store.replay");
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(STORE_MAGIC)?;
            file.write_all(&STORE_VERSION.to_le_bytes())?;
            file.sync_data()?;
            return Ok(Shard {
                file,
                devices: HashMap::new(),
            });
        }
        let mut replay = Replay {
            reader: BufReader::with_capacity(REPLAY_BUFFER, &file),
            path,
            left: len,
            record_start: 0,
        };
        let mut header = [0u8; STORE_MAGIC.len() + 2];
        let has_header = len >= header.len() as u64 && {
            replay.read(&mut header)?;
            header.starts_with(STORE_MAGIC)
        };
        if !has_header {
            return Err(replay.corrupt("missing RPUFSTOR header".to_string()));
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != STORE_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: STORE_VERSION,
            });
        }
        let mut devices = HashMap::new();
        // Every record's payloads land in these two buffers in turn.
        let (mut enrollment, mut key_code) = (Vec::new(), Vec::new());
        let mut records = 0;
        while replay.left > 0 {
            replay.record_start = len - replay.left;
            let [kind] = replay.array()?;
            let device_id = u64::from_le_bytes(replay.array()?);
            match kind {
                KIND_ENROLL => {
                    replay.payload(&mut enrollment)?;
                    replay.payload(&mut key_code)?;
                    let state = replay.parse(&enrollment, &key_code)?;
                    devices.insert(device_id, state);
                }
                KIND_REVOKE => {
                    devices.remove(&device_id);
                }
                KIND_SUPERSEDE => {
                    let generation = u32::from_le_bytes(replay.array()?);
                    replay.payload(&mut enrollment)?;
                    replay.payload(&mut key_code)?;
                    // A supersede is only ever appended for a live
                    // device, so replay must find one to replace.
                    if !devices.contains_key(&device_id) {
                        return Err(replay.corrupt(format!(
                            "supersede for unenrolled device {device_id} at byte {}",
                            replay.record_start
                        )));
                    }
                    let mut state = replay.parse(&enrollment, &key_code)?;
                    state.generation = generation;
                    devices.insert(device_id, state);
                }
                other => {
                    return Err(replay.corrupt(format!(
                        "unknown record kind {other} at byte {}",
                        replay.record_start
                    )))
                }
            }
            records += 1;
        }
        telemetry::counter("serve.store.records_replayed", records);
        telemetry::counter("serve.store.bytes_replayed", len);
        Ok(Shard { file, devices })
    }

    fn shard(&self, device_id: u64) -> &Mutex<Shard> {
        &self.shards[(device_id % self.shards.len() as u64) as usize]
    }

    /// Validates and stores an enrollment, returning its usable bit
    /// count. The record is on disk (fsync'd under
    /// [`FsyncPolicy::EveryRecord`]) before the index is updated.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyEnrolled`] for a live id,
    /// [`StoreError::BadPayload`] / [`StoreError::PayloadVersion`] for
    /// malformed bytes, [`StoreError::Io`] on write failure.
    pub fn enroll(
        &self,
        device_id: u64,
        enrollment: &[u8],
        key_code: &[u8],
    ) -> Result<u32, StoreError> {
        let state = parse_payload(enrollment, key_code)?;
        let bits = state.expected.len() as u32;
        let mut shard = self.shard(device_id).lock().expect("store shard poisoned");
        if shard.devices.contains_key(&device_id) {
            return Err(StoreError::AlreadyEnrolled);
        }
        let mut record = Vec::with_capacity(1 + 8 + 8 + enrollment.len() + key_code.len());
        record.push(KIND_ENROLL);
        record.extend_from_slice(&device_id.to_le_bytes());
        record.extend_from_slice(&(enrollment.len() as u32).to_le_bytes());
        record.extend_from_slice(enrollment);
        record.extend_from_slice(&(key_code.len() as u32).to_le_bytes());
        record.extend_from_slice(key_code);
        shard.file.write_all(&record)?;
        if self.fsync == FsyncPolicy::EveryRecord {
            shard.file.sync_data()?;
        }
        shard.devices.insert(device_id, state);
        Ok(bits)
    }

    /// Appends a tombstone and drops the device from the index.
    /// Returns whether the device existed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    pub fn revoke(&self, device_id: u64) -> Result<bool, StoreError> {
        let mut shard = self.shard(device_id).lock().expect("store shard poisoned");
        if !shard.devices.contains_key(&device_id) {
            return Ok(false);
        }
        let mut record = Vec::with_capacity(9);
        record.push(KIND_REVOKE);
        record.extend_from_slice(&device_id.to_le_bytes());
        shard.file.write_all(&record)?;
        if self.fsync == FsyncPolicy::EveryRecord {
            shard.file.sync_data()?;
        }
        shard.devices.remove(&device_id);
        Ok(true)
    }

    /// Validates and commits a replacement enrollment for a *live*
    /// device (the re-enrollment commit), returning the new record's
    /// usable bit count and generation number.
    ///
    /// The whole operation runs under the shard lock with
    /// write-record-then-swap-index ordering: the old generation keeps
    /// serving until the supersede record is durable, and there is no
    /// instant at which the device is unenrolled. Committing heals the
    /// gate — lockout, quarantine, and both failure streaks reset (they
    /// judged the configuration this record just replaced) — while the
    /// replay-nonce ring is *kept*, so a read-out captured against the
    /// old generation cannot be replayed against the new one.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownDevice`] when the id holds no live
    /// enrollment, [`StoreError::BadPayload`] /
    /// [`StoreError::PayloadVersion`] for malformed bytes,
    /// [`StoreError::Io`] on write failure.
    pub fn supersede(
        &self,
        device_id: u64,
        enrollment: &[u8],
        key_code: &[u8],
    ) -> Result<(u32, u32), StoreError> {
        let mut state = parse_payload(enrollment, key_code)?;
        let bits = state.expected.len() as u32;
        let mut shard = self.shard(device_id).lock().expect("store shard poisoned");
        let Some(old) = shard.devices.get(&device_id) else {
            return Err(StoreError::UnknownDevice);
        };
        let generation = old.generation + 1;
        state.generation = generation;
        state.nonces = old.nonces;
        state.nonce_len = old.nonce_len;
        state.nonce_cursor = old.nonce_cursor;
        let mut record = Vec::with_capacity(1 + 8 + 12 + enrollment.len() + key_code.len());
        record.push(KIND_SUPERSEDE);
        record.extend_from_slice(&device_id.to_le_bytes());
        record.extend_from_slice(&generation.to_le_bytes());
        record.extend_from_slice(&(enrollment.len() as u32).to_le_bytes());
        record.extend_from_slice(enrollment);
        record.extend_from_slice(&(key_code.len() as u32).to_le_bytes());
        record.extend_from_slice(key_code);
        shard.file.write_all(&record)?;
        if self.fsync == FsyncPolicy::EveryRecord {
            shard.file.sync_data()?;
        }
        shard.devices.insert(device_id, state);
        Ok((bits, generation))
    }

    /// Runs `f` with the device's mutable state under the shard lock,
    /// or with `None` if the id is unknown. All auth bookkeeping
    /// (nonces, failure counters, quarantine) goes through here so it
    /// is atomic per device.
    pub fn with_device<T>(
        &self,
        device_id: u64,
        f: impl FnOnce(Option<&mut DeviceState>) -> T,
    ) -> T {
        let mut shard = self.shard(device_id).lock().expect("store shard poisoned");
        f(shard.devices.get_mut(&device_id))
    }

    /// Total live (non-revoked) enrollments.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").devices.len())
            .sum()
    }

    /// Whether no device is enrolled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Devices currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.count_where(|d| d.quarantined)
    }

    /// Devices currently locked out.
    pub fn locked_count(&self) -> usize {
        self.count_where(|d| d.locked)
    }

    fn count_where(&self, pred: impl Fn(&DeviceState) -> bool) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("store shard poisoned")
                    .devices
                    .values()
                    .filter(|d| pred(d))
                    .count()
            })
            .sum()
    }

    /// Forces every shard file to disk (the [`FsyncPolicy::Batched`]
    /// flush point).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on sync failure.
    pub fn sync_all(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            shard
                .lock()
                .expect("store shard poisoned")
                .file
                .sync_data()?;
        }
        Ok(())
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A shard file read front to back through a fixed-size buffer. Every
/// length is checked against the bytes left in the file before anything
/// is read or allocated.
struct Replay<'a> {
    reader: BufReader<&'a File>,
    path: &'a Path,
    /// Bytes not yet read.
    left: u64,
    /// Offset of the record being read, for error messages.
    record_start: u64,
}

impl Replay<'_> {
    fn corrupt(&self, detail: String) -> StoreError {
        StoreError::Corrupt {
            path: self.path.to_path_buf(),
            detail,
        }
    }

    fn truncated(&self) -> StoreError {
        self.corrupt(format!("truncated record at byte {}", self.record_start))
    }

    /// Reads exactly `buf.len()` bytes of the current record.
    fn read(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        if self.left < buf.len() as u64 {
            return Err(self.truncated());
        }
        self.reader.read_exact(buf)?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut bytes = [0u8; N];
        self.read(&mut bytes)?;
        Ok(bytes)
    }

    /// Reads a u32-length-prefixed payload into `buf`, reusing its
    /// allocation.
    fn payload(&mut self, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        let len = u64::from(u32::from_le_bytes(self.array()?));
        if self.left < len {
            return Err(self.truncated());
        }
        buf.clear();
        buf.resize(len as usize, 0);
        self.read(buf)
    }

    /// [`parse_payload`], with a failure reported as this record's
    /// corruption.
    fn parse(&self, enrollment: &[u8], key_code: &[u8]) -> Result<DeviceState, StoreError> {
        parse_payload(enrollment, key_code)
            .map_err(|e| self.corrupt(format!("record at byte {}: {e}", self.record_start)))
    }
}

/// Validates + cross-checks the two payloads into serving state. The
/// enrollment is checked in full but never built: the index keeps only
/// its expected bits.
fn parse_payload(enrollment: &[u8], key_code: &[u8]) -> Result<DeviceState, StoreError> {
    let lift = |e: CoreError| match e {
        CoreError::UnsupportedVersion { found, supported } => {
            StoreError::PayloadVersion { found, supported }
        }
        other => StoreError::BadPayload(other.to_string()),
    };
    let expected = expected_bits_from_bytes(enrollment).map_err(lift)?;
    let key_code = KeyCode::from_bytes(key_code).map_err(lift)?;
    if key_code.helper().len() > expected.len() {
        return Err(StoreError::BadPayload(format!(
            "key code needs {} response bits but the enrollment yields {}",
            key_code.helper().len(),
            expected.len()
        )));
    }
    Ok(DeviceState::fresh(expected, key_code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{enrolled_fixture, temp_dir};
    use proptest::prelude::*;

    #[test]
    fn enroll_persists_across_reopen() {
        let dir = temp_dir("store-reopen");
        let fx = enrolled_fixture(11);
        {
            let store = Store::open(&dir, 4, FsyncPolicy::EveryRecord).unwrap();
            let bits = store
                .enroll(7, &fx.enrollment_bytes, &fx.key_code_bytes)
                .unwrap();
            assert!(bits > 0);
            assert_eq!(store.len(), 1);
            assert!(matches!(
                store.enroll(7, &fx.enrollment_bytes, &fx.key_code_bytes),
                Err(StoreError::AlreadyEnrolled)
            ));
        }
        let store = Store::open(&dir, 4, FsyncPolicy::EveryRecord).unwrap();
        assert_eq!(store.len(), 1);
        store.with_device(7, |d| {
            let d = d.expect("device survived reopen");
            assert_eq!(d.expected, fx.expected);
        });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn revoke_tombstones_and_allows_re_enroll() {
        let dir = temp_dir("store-revoke");
        let fx = enrolled_fixture(12);
        let store = Store::open(&dir, 2, FsyncPolicy::Batched).unwrap();
        store
            .enroll(5, &fx.enrollment_bytes, &fx.key_code_bytes)
            .unwrap();
        assert!(store.revoke(5).unwrap());
        assert!(!store.revoke(5).unwrap(), "second revoke is a no-op");
        assert_eq!(store.len(), 0);
        store
            .enroll(5, &fx.enrollment_bytes, &fx.key_code_bytes)
            .unwrap();
        store.sync_all().unwrap();
        drop(store);
        let store = Store::open(&dir, 2, FsyncPolicy::Batched).unwrap();
        assert_eq!(store.len(), 1, "tombstone then re-enroll replays to live");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_payloads() {
        let dir = temp_dir("store-badpayload");
        let fx = enrolled_fixture(13);
        let store = Store::open(&dir, 1, FsyncPolicy::Batched).unwrap();
        assert!(matches!(
            store.enroll(1, b"not an envelope", &fx.key_code_bytes),
            Err(StoreError::BadPayload(_))
        ));
        assert!(matches!(
            store.enroll(1, &fx.enrollment_bytes, b"not a key code"),
            Err(StoreError::BadPayload(_))
        ));
        // A future envelope version is surfaced as a version error.
        let mut future = fx.enrollment_bytes.clone();
        future[4] = 9;
        future[5] = 0;
        assert!(matches!(
            store.enroll(1, &future, &fx.key_code_bytes),
            Err(StoreError::PayloadVersion { found: 9, .. })
        ));
        assert_eq!(store.len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_trailing_record_is_corruption() {
        let dir = temp_dir("store-truncated");
        let fx = enrolled_fixture(14);
        {
            let store = Store::open(&dir, 1, FsyncPolicy::EveryRecord).unwrap();
            store
                .enroll(3, &fx.enrollment_bytes, &fx.key_code_bytes)
                .unwrap();
        }
        let path = dir.join("shard_000.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            Store::open(&dir, 1, FsyncPolicy::EveryRecord),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_shard_version_is_rejected() {
        let dir = temp_dir("store-version");
        {
            Store::open(&dir, 1, FsyncPolicy::EveryRecord).unwrap();
        }
        let path = dir.join("shard_000.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 99;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Store::open(&dir, 1, FsyncPolicy::EveryRecord),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn supersede_bumps_the_generation_and_heals_the_gate() {
        let dir = temp_dir("store-supersede");
        let old_fx = enrolled_fixture(16);
        let new_fx = enrolled_fixture(17);
        let store = Store::open(&dir, 2, FsyncPolicy::EveryRecord).unwrap();
        assert!(
            matches!(
                store.supersede(9, &new_fx.enrollment_bytes, &new_fx.key_code_bytes),
                Err(StoreError::UnknownDevice)
            ),
            "supersede needs a live enrollment"
        );
        store
            .enroll(9, &old_fx.enrollment_bytes, &old_fx.key_code_bytes)
            .unwrap();
        // Park the device and burn a nonce against generation 0.
        store.with_device(9, |d| {
            let d = d.unwrap();
            d.locked = true;
            d.quarantined = true;
            d.consecutive_failures = 5;
            d.degraded_streak = 3;
            d.remember_nonce(77);
        });
        let (bits, generation) = store
            .supersede(9, &new_fx.enrollment_bytes, &new_fx.key_code_bytes)
            .unwrap();
        assert!(bits > 0);
        assert_eq!(generation, 1);
        assert_eq!(store.len(), 1, "no unenrolled window");
        store.with_device(9, |d| {
            let d = d.unwrap();
            assert_eq!(d.generation, 1);
            assert_eq!(d.expected, new_fx.expected, "index swapped to the new bits");
            assert!(!d.locked && !d.quarantined, "supersede heals the gate");
            assert_eq!((d.consecutive_failures, d.degraded_streak), (0, 0));
            assert!(d.nonce_seen(77), "nonce ring survives the supersede");
        });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resolves_the_latest_generation() {
        let dir = temp_dir("store-supersede-reopen");
        let old_fx = enrolled_fixture(16);
        let new_fx = enrolled_fixture(17);
        {
            let store = Store::open(&dir, 2, FsyncPolicy::EveryRecord).unwrap();
            store
                .enroll(9, &old_fx.enrollment_bytes, &old_fx.key_code_bytes)
                .unwrap();
            store
                .supersede(9, &new_fx.enrollment_bytes, &new_fx.key_code_bytes)
                .unwrap();
            store
                .supersede(9, &old_fx.enrollment_bytes, &old_fx.key_code_bytes)
                .unwrap();
            // Dropped without a clean shutdown — EveryRecord already
            // fsync'd each record (the kill-and-restart scenario).
        }
        let store = Store::open(&dir, 2, FsyncPolicy::EveryRecord).unwrap();
        assert_eq!(store.len(), 1);
        store.with_device(9, |d| {
            let d = d.expect("device survived reopen");
            assert_eq!(d.generation, 2, "latest supersede wins");
            assert_eq!(d.expected, old_fx.expected);
        });
        // Revoke tombstones the whole chain; re-enroll restarts at 0.
        assert!(store.revoke(9).unwrap());
        store
            .enroll(9, &new_fx.enrollment_bytes, &new_fx.key_code_bytes)
            .unwrap();
        store.with_device(9, |d| assert_eq!(d.unwrap().generation, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn supersede_without_a_live_record_is_corruption_on_replay() {
        let dir = temp_dir("store-supersede-orphan");
        let fx = enrolled_fixture(18);
        {
            let store = Store::open(&dir, 1, FsyncPolicy::EveryRecord).unwrap();
            store
                .enroll(4, &fx.enrollment_bytes, &fx.key_code_bytes)
                .unwrap();
            store
                .supersede(4, &fx.enrollment_bytes, &fx.key_code_bytes)
                .unwrap();
        }
        // Surgically flip the enroll record into a revoke-like orphaning
        // is fiddly; instead append a supersede for a device that never
        // enrolled and check the replay refuses it.
        let path = dir.join("shard_000.log");
        let mut bytes = fs::read(&path).unwrap();
        let mut orphan = vec![KIND_SUPERSEDE];
        orphan.extend_from_slice(&99u64.to_le_bytes());
        orphan.extend_from_slice(&1u32.to_le_bytes());
        orphan.extend_from_slice(&(fx.enrollment_bytes.len() as u32).to_le_bytes());
        orphan.extend_from_slice(&fx.enrollment_bytes);
        orphan.extend_from_slice(&(fx.key_code_bytes.len() as u32).to_le_bytes());
        orphan.extend_from_slice(&fx.key_code_bytes);
        bytes.extend_from_slice(&orphan);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Store::open(&dir, 1, FsyncPolicy::EveryRecord),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One `ropuf enroll --seed 7` enrollment as committed under
    /// `tests/golden`: its v1 envelope (`<name>.v1.enr`, written before
    /// v2) framed as stores written before v2 hold it (`ROPF`, version
    /// 1, the v1 text), its v2 envelope (`<name>.enr`) framed as stores
    /// hold it now, and a Key Code issued from it.
    fn golden_enrollment(name: &str) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        use rand::SeedableRng;
        use ropuf_core::lifecycle::Device;
        use ropuf_core::persist::{enrollment_from_bytes, MAGIC};
        use ropuf_core::puf::EnrollOptions;
        use ropuf_silicon::{Environment, SiliconSim};

        let framed = |version: u16, file: String| {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&fs::read(path.join(file)).unwrap());
            bytes
        };
        let v1 = framed(1, format!("{name}.v1.enr"));
        let v2 = framed(2, format!("{name}.enr"));
        let enrollment = enrollment_from_bytes(&v1).unwrap();
        assert_eq!(enrollment_from_bytes(&v2).unwrap(), enrollment);
        let mut sim = SiliconSim::default_spartan();
        let board = sim.grow_board(&mut rand::rngs::StdRng::seed_from_u64(7), 480, 16);
        let device = Device::resume(
            &board,
            sim.technology(),
            Environment::nominal(),
            EnrollOptions::default(),
            enrollment,
        )
        .unwrap();
        let key_code = device.issue_key(7, 3).unwrap().to_bytes();
        (v1, v2, key_code)
    }

    #[test]
    fn v1_records_reopen_authenticate_and_derive_keys_as_their_v2_twins() {
        use crate::proto::{Reply, Request, WireBits};
        use crate::service::{PufService, ServiceConfig};
        let dir = temp_dir("store-v1-records");
        let names = ["enroll_seed7", "enroll_seed7_case2_threshold10"];
        let fixtures: Vec<_> = names.iter().map(|name| golden_enrollment(name)).collect();
        {
            let store = Store::open(&dir, 2, FsyncPolicy::EveryRecord).unwrap();
            for (d, (v1, v2, key_code)) in (0u64..).zip(&fixtures) {
                let v1_bits = store.enroll(d, v1, key_code).unwrap();
                assert_eq!(store.enroll(100 + d, v2, key_code).unwrap(), v1_bits);
            }
        }
        let store = Store::open(&dir, 2, FsyncPolicy::EveryRecord).unwrap();
        assert_eq!(store.len(), 4);
        let expected: Vec<BitVec> = (0..2)
            .map(|d| {
                let [v1, v2] =
                    [d, 100 + d].map(|id| store.with_device(id, |s| s.unwrap().expected.clone()));
                assert_eq!(v1, v2, "device {d}");
                v1
            })
            .collect();
        let service = PufService::new(store, ServiceConfig::default());
        for (d, bits) in (0u64..).zip(&expected) {
            let response = || WireBits::new(bits.iter().map(Some).collect());
            let replies = [d, 100 + d].map(|device_id| {
                let auth = service.handle(&Request::Auth {
                    device_id,
                    nonce: 1,
                    response: response(),
                });
                let key = service.handle(&Request::DeriveKey {
                    device_id,
                    nonce: 2,
                    response: response(),
                });
                (auth, key)
            });
            assert!(
                matches!(replies[0].0, Reply::AuthOk { flips: 0, .. }),
                "{replies:?}"
            );
            assert!(matches!(replies[0].1, Reply::Key { .. }), "{replies:?}");
            assert_eq!(replies[0], replies[1], "device {d}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_enroll_superseded_by_a_v2_reenroll_replays_to_the_v2_generation() {
        let dir = temp_dir("store-v1-then-v2");
        let (v1, _, key_code) = golden_enrollment("enroll_seed7");
        let (_, v2, new_key_code) = golden_enrollment("enroll_seed7_case2_threshold10");
        {
            let store = Store::open(&dir, 1, FsyncPolicy::EveryRecord).unwrap();
            store.enroll(3, &v1, &key_code).unwrap();
            assert_eq!(store.supersede(3, &v2, &new_key_code).unwrap().1, 1);
        }
        let store = Store::open(&dir, 1, FsyncPolicy::EveryRecord).unwrap();
        let want = ropuf_core::persist::expected_bits_from_bytes(&v2).unwrap();
        store.with_device(3, |d| {
            let d = d.expect("device survived reopen");
            assert_eq!(d.generation, 1);
            assert_eq!(d.expected, want);
            assert_eq!(d.key_code.to_bytes(), new_key_code);
        });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_generator_line_at_odds_with_its_pairs_is_refused_on_enroll_and_replay() {
        let (_, v2, key_code) = golden_enrollment("enroll_seed7");
        let generator: &[u8] = b"floorplan,tiled_interleaved,480,7\n";
        let at = v2
            .windows(generator.len())
            .position(|w| w == generator)
            .expect("the fleet envelope names its generator");
        for line in [
            &b"floorplan,tiled_interleaved,500,7\n"[..],
            b"floorplan,tiled_interleaved,480,6\n",
            b"floorplan,tiled,18446744073709551615,7\n",
        ] {
            let mut bad = v2[..at].to_vec();
            bad.extend_from_slice(line);
            bad.extend_from_slice(&v2[at + generator.len()..]);
            let dir = temp_dir("store-bad-generator");
            let store = Store::open(&dir, 1, FsyncPolicy::EveryRecord).unwrap();
            assert!(
                matches!(
                    store.enroll(1, &bad, &key_code),
                    Err(StoreError::BadPayload(_))
                ),
                "{}",
                String::from_utf8_lossy(line)
            );
            drop(store);
            let mut record = vec![KIND_ENROLL];
            record.extend_from_slice(&1u64.to_le_bytes());
            for payload in [&bad, &key_code] {
                record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                record.extend_from_slice(payload);
            }
            let path = dir.join("shard_000.log");
            let mut bytes = fs::read(&path).unwrap();
            bytes.extend_from_slice(&record);
            fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                Store::open(&dir, 1, FsyncPolicy::EveryRecord),
                Err(StoreError::Corrupt { .. })
            ));
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn nonce_ring_evicts_oldest() {
        let fx = enrolled_fixture(15);
        let mut d = DeviceState::fresh(fx.expected.clone(), fx.key_code.clone());
        for n in 0..NONCE_WINDOW as u64 {
            assert!(!d.nonce_seen(n));
            d.remember_nonce(n);
            assert!(d.nonce_seen(n));
        }
        d.remember_nonce(100);
        assert!(!d.nonce_seen(0), "oldest nonce evicted");
        assert!(d.nonce_seen(100));
        assert!(d.nonce_seen(NONCE_WINDOW as u64 - 1));
    }

    /// Live devices of one shard: id → (generation, fixture index).
    type Model = std::collections::BTreeMap<u64, (u32, usize)>;

    /// Header bytes at the front of every shard file.
    const HEADER_LEN: u64 = STORE_MAGIC.len() as u64 + 2;

    fn fixtures() -> &'static [crate::testutil::Fixture] {
        static FIXTURES: std::sync::OnceLock<Vec<crate::testutil::Fixture>> =
            std::sync::OnceLock::new();
        FIXTURES.get_or_init(|| (21..24).map(enrolled_fixture).collect())
    }

    /// A two-shard store written by a script of enroll, supersede and
    /// revoke calls through the public API, with the model state at
    /// every record boundary.
    struct Scripted {
        dir: PathBuf,
        /// Per shard: (offset, that shard's live devices) at the header
        /// end and after each record.
        boundaries: [Vec<(u64, Model)>; 2],
        /// Per shard: (offset of a u32 length field, its record's start).
        length_fields: [Vec<(u64, u64)>; 2],
        /// The shard files as the script left them.
        files: [Vec<u8>; 2],
    }

    impl Scripted {
        /// Runs `steps`: each picks a device (`step % 6`) and a fixture
        /// (`step / 6 % 3`). An unenrolled device is enrolled; a live one
        /// is superseded or revoked (`step / 18 % 2`).
        fn run(name: &str, steps: &[u32]) -> Self {
            let dir = temp_dir(name);
            let fx = fixtures();
            let store = Store::open(&dir, 2, FsyncPolicy::Batched).unwrap();
            let empty = (HEADER_LEN, Model::new());
            let mut script = Scripted {
                dir,
                boundaries: [vec![empty.clone()], vec![empty]],
                length_fields: [Vec::new(), Vec::new()],
                files: [Vec::new(), Vec::new()],
            };
            let mut live = [Model::new(), Model::new()];
            for &step in steps {
                let (id, f) = (u64::from(step % 6), (step / 6 % 3) as usize);
                let shard = (id % 2) as usize;
                let start = fs::metadata(script.path(shard)).unwrap().len();
                let (elen, payload) = (
                    fx[f].enrollment_bytes.len() as u64,
                    (&fx[f].enrollment_bytes, &fx[f].key_code_bytes),
                );
                let fields = &mut script.length_fields[shard];
                match live[shard].get(&id) {
                    None => {
                        store.enroll(id, payload.0, payload.1).unwrap();
                        live[shard].insert(id, (0, f));
                        fields.extend([(start + 9, start), (start + 13 + elen, start)]);
                    }
                    Some(_) if step / 18 % 2 == 0 => {
                        let (_, generation) = store.supersede(id, payload.0, payload.1).unwrap();
                        live[shard].insert(id, (generation, f));
                        fields.extend([(start + 13, start), (start + 17 + elen, start)]);
                    }
                    Some(_) => {
                        assert!(store.revoke(id).unwrap());
                        live[shard].remove(&id);
                    }
                }
                let end = fs::metadata(script.path(shard)).unwrap().len();
                script.boundaries[shard].push((end, live[shard].clone()));
            }
            drop(store);
            script.files = [0, 1].map(|s| fs::read(script.path(s)).unwrap());
            script
        }

        fn path(&self, shard: usize) -> PathBuf {
            self.dir.join(format!("shard_{shard:03}.log"))
        }

        /// The model after the whole script, both shards.
        fn full(&self, shard: usize) -> &Model {
            &self.boundaries[shard].last().unwrap().1
        }

        /// Truncates `shard` at every cut in `cuts` and reopens the store
        /// through [`Store::open`] each time (see
        /// [`check_opened`](Self::check_opened)). The cuts run longest
        /// first, each one shortening the file in place, and the full
        /// file is written back once at the end; the other shard is left
        /// as the script wrote it: rewriting whole files per cut would
        /// make the sweep wait on the disk rather than on the replay.
        fn check_cuts(&self, shard: usize, cuts: impl IntoIterator<Item = usize>) {
            let mut cuts: Vec<usize> = cuts.into_iter().collect();
            cuts.sort_unstable_by(|a, b| b.cmp(a));
            let file = OpenOptions::new()
                .write(true)
                .open(self.path(shard))
                .unwrap();
            for cut in cuts {
                file.set_len(cut as u64).unwrap();
                let opened = Store::open(&self.dir, 2, FsyncPolicy::Batched);
                self.check_opened(shard, cut, opened);
            }
            drop(file);
            fs::write(self.path(shard), &self.files[shard]).unwrap();
        }

        /// The store reopened with `shard` truncated at `cut`: a record
        /// boundary must reopen to exactly the model's state for that
        /// prefix, anywhere else must be corruption of that shard.
        fn check_opened(&self, shard: usize, cut: usize, opened: Result<Store, StoreError>) {
            let prefix = self.boundaries[shard]
                .iter()
                .find(|(end, _)| *end == cut as u64)
                .map(|(_, model)| model)
                .or((cut == 0).then_some(&self.boundaries[shard][0].1));
            match (opened, prefix) {
                (Ok(store), Some(model)) => {
                    let mut want = model.clone();
                    want.extend(self.full(1 - shard).clone());
                    assert_state(&store, &want, &format!("cut {cut} of shard {shard}"));
                }
                (Err(StoreError::Corrupt { path, .. }), None) => {
                    assert_eq!(path, self.path(shard), "cut {cut}");
                }
                (other, _) => panic!(
                    "cut {cut} of shard {shard} (boundary: {}): {:?}",
                    prefix.is_some(),
                    other.map(|s| s.len())
                ),
            }
        }

        /// Sets the length field at `at` to `u32::MAX`: the record must
        /// be reported truncated at its start, with nothing allocated.
        /// The field is patched in place and restored afterwards.
        fn check_huge_length(&self, shard: usize, (at, record_start): (u64, u64)) {
            let patch = |bytes: &[u8]| {
                let mut file = OpenOptions::new()
                    .write(true)
                    .open(self.path(shard))
                    .unwrap();
                io::Seek::seek(&mut file, io::SeekFrom::Start(at)).unwrap();
                file.write_all(bytes).unwrap();
            };
            patch(&u32::MAX.to_le_bytes());
            match Store::open(&self.dir, 2, FsyncPolicy::Batched) {
                Err(StoreError::Corrupt { path, detail }) => {
                    assert_eq!(path, self.path(shard));
                    assert_eq!(detail, format!("truncated record at byte {record_start}"));
                }
                other => panic!("length field at {at}: {:?}", other.map(|s| s.len())),
            }
            let at = at as usize;
            patch(&self.files[shard][at..at + 4]);
        }
    }

    impl Drop for Scripted {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.dir).ok();
        }
    }

    /// The reopened index holds exactly `want`: each device at the
    /// model's generation with its fixture's bits and Key Code.
    fn assert_state(store: &Store, want: &Model, what: &str) {
        assert_eq!(store.len(), want.len(), "{what}");
        for (&id, &(generation, f)) in want {
            store.with_device(id, |d| {
                let d = d.unwrap_or_else(|| panic!("{what}: device {id} missing"));
                assert_eq!(d.generation, generation, "{what}: device {id}");
                assert_eq!(d.expected, fixtures()[f].expected, "{what}: device {id}");
                assert_eq!(d.key_code, fixtures()[f].key_code, "{what}: device {id}");
                assert!(!d.locked && !d.quarantined && d.nonce_len == 0);
            });
        }
    }

    /// Enrolls all six devices, then supersedes, revokes and re-enrolls.
    const SCRIPT: [u32; 14] = [0, 7, 14, 3, 10, 5, 6, 25, 20, 19, 0, 33, 26, 1];

    #[test]
    fn replay_of_every_truncation_is_a_consistent_prefix_or_corruption() {
        let script = Scripted::run("store-every-cut", &SCRIPT);
        for shard in 0..2 {
            assert!(
                script.boundaries[shard].len() > 4,
                "script writes each shard"
            );
            script.check_cuts(shard, 0..=script.files[shard].len());
        }
    }

    #[test]
    fn oversized_length_fields_are_corruption_not_allocations() {
        let script = Scripted::run("store-huge-length", &SCRIPT);
        for shard in 0..2 {
            assert!(!script.length_fields[shard].is_empty());
            for &field in &script.length_fields[shard] {
                script.check_huge_length(shard, field);
            }
        }
    }

    #[test]
    fn the_lowest_corrupt_shard_is_the_one_reported() {
        let dir = temp_dir("store-two-corrupt");
        let fx = enrolled_fixture(19);
        {
            let store = Store::open(&dir, 3, FsyncPolicy::Batched).unwrap();
            for id in 0..3 {
                store
                    .enroll(id, &fx.enrollment_bytes, &fx.key_code_bytes)
                    .unwrap();
            }
        }
        let path = |i: usize| dir.join(format!("shard_{i:03}.log"));
        let truncate = |i: usize| {
            let bytes = fs::read(path(i)).unwrap();
            fs::write(path(i), &bytes[..bytes.len() - 1]).unwrap();
        };
        truncate(2);
        truncate(1);
        for _ in 0..4 {
            match Store::open(&dir, 3, FsyncPolicy::Batched) {
                Err(StoreError::Corrupt { path: p, .. }) => assert_eq!(p, path(1)),
                other => panic!("{:?}", other.map(|s| s.len())),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #[test]
        fn replay_of_random_scripts_is_a_consistent_prefix_or_corruption(
            steps in proptest::collection::vec(any::<u32>(), 1..12),
            shard in 0usize..2,
            cuts in proptest::collection::vec(any::<usize>(), 6),
            field in any::<usize>(),
        ) {
            let script = Scripted::run("store-prop", &steps);
            let len = script.files[shard].len();
            let boundaries = script.boundaries[shard].iter().map(|&(end, _)| end as usize);
            script.check_cuts(shard, boundaries.chain(cuts.iter().map(|cut| cut % (len + 1))));
            let fields = &script.length_fields[shard];
            if !fields.is_empty() {
                script.check_huge_length(shard, fields[field % fields.len()]);
            }
        }
    }
}
