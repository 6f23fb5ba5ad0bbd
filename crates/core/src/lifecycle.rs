//! Typestate enrollment lifecycle: `Device<Started> → Device<Enrolled>`.
//!
//! The NXP/Nitrokey PUF peripheral exposes its key store as a strict
//! state machine: a started-but-unenrolled PUF accepts only
//! `GenerateKey`/`SetKey`, both of which output an opaque *Key Code*,
//! and only an enrolled PUF can run `GetKey` to turn a Key Code back
//! into key material. This module gives the configurable RO PUF the
//! same shape — the free-floating `enroll*`/`respond*` functions stay
//! available for research workloads, but deployments drive a
//! [`Device`], where calling an operation in the wrong state is a
//! *compile* error rather than a runtime panic:
//!
//! ```compile_fail
//! use ropuf_core::lifecycle::{Device, KeyCode, Started};
//! use ropuf_core::robust::FaultPlan;
//!
//! fn broken(device: &Device<'_, Started>, code: &KeyCode) {
//!     // `get_key` exists only on Device<'_, Enrolled>.
//!     let _ = device.get_key(7, 1, &FaultPlan::scaled(0.0), code);
//! }
//! ```
//!
//! The happy path, end to end:
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_core::lifecycle::Device;
//! use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
//! use ropuf_core::robust::FaultPlan;
//! use ropuf_silicon::{Environment, SiliconSim};
//!
//! let mut sim = SiliconSim::default_spartan();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let board = sim.grow_board(&mut rng, 70, 10);
//! let device = Device::start(
//!     &board,
//!     sim.technology(),
//!     Environment::nominal(),
//!     ConfigurableRoPuf::tiled_interleaved(70, 7),
//!     EnrollOptions::default(),
//! );
//! let plan = FaultPlan::scaled(0.0);
//! let (device, code) = device.generate_key(42, 1, &plan)?;
//! let key = device.get_key(7, 1, &plan, &code)?;
//! assert_eq!(key.len(), code.key_bits());
//! # Ok::<(), ropuf_core::error::Error>(())
//! ```
//!
//! A [`KeyCode`] holds only public helper data (the code-offset sketch
//! of the key XORed onto the enrollment response): storing or shipping
//! it reveals nothing about the key without the physical board, so the
//! server persists Key Codes next to enrollments and never sees raw
//! delays.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_num::bits::BitVec;
use ropuf_silicon::{Board, Environment, Technology};
use ropuf_telemetry as telemetry;

use crate::error::Error;
use crate::fleet::split_seed;
use crate::fuzzy::{FuzzyExtractor, ReproduceError};
use crate::puf::{ConfigurableRoPuf, EnrollOptions, Enrollment};
use crate::reenroll::{self, ReenrollOutcome};
use crate::robust::{enroll_robust, respond_robust_bound, FaultPlan, FaultSummary};

/// Sub-stream of the enrollment seed reserved for key generation, far
/// from the per-pair indices (and distinct from the fault/retry streams
/// `u64::MAX - 2` / `u64::MAX - 3` inside `robust`).
const STREAM_KEY: u64 = u64::MAX - 4;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Started {}
    impl Sealed for super::Enrolled {}
}

/// Marker trait for lifecycle states; sealed, so `Started` and
/// `Enrolled` are the only states a [`Device`] can ever be in.
pub trait LifecycleState: sealed::Sealed {}

/// A powered device that has not enrolled: it holds the floorplan it
/// will enroll over, and can only generate or set a key.
#[derive(Debug, Clone)]
pub struct Started {
    puf: ConfigurableRoPuf,
}

impl LifecycleState for Started {}

/// An enrolled device: it holds helper data and can reconstruct keys
/// and answer authentication reads. The enrollment names every unit it
/// reads, so no floorplan rides along; re-enrolling takes the one the
/// device was provisioned on.
#[derive(Debug, Clone)]
pub struct Enrolled {
    enrollment: Enrollment,
}

impl LifecycleState for Enrolled {}

/// A PUF-bearing device moving through the enrollment lifecycle.
///
/// The state parameter gates the API: [`Device::generate_key`] and
/// [`Device::set_key`] exist only on `Device<Started>` and *consume*
/// the device, returning the `Device<Enrolled>` successor, while
/// [`Device::get_key`] and [`Device::respond`] exist only on
/// `Device<Enrolled>`.
#[derive(Debug, Clone)]
pub struct Device<'a, S: LifecycleState> {
    board: &'a Board,
    tech: Technology,
    env: Environment,
    opts: EnrollOptions,
    state: S,
}

impl<'a> Device<'a, Started> {
    /// Powers up a device over `board` with the given floorplan and
    /// enrollment options. No measurement happens yet.
    pub fn start(
        board: &'a Board,
        tech: &Technology,
        env: Environment,
        puf: ConfigurableRoPuf,
        opts: EnrollOptions,
    ) -> Self {
        Self {
            board,
            tech: *tech,
            env,
            opts,
            state: Started { puf },
        }
    }

    /// Enrolls the device and derives a *fresh uniform* key, returning
    /// the enrolled successor and the opaque [`KeyCode`] that
    /// [`Device::get_key`] later consumes (the `GenerateKey` op): the
    /// enrollment, then [`Device::issue_key`] from the same `seed`.
    ///
    /// Enrollment runs the fault-tolerant §III.B/§III.D pipeline under
    /// `plan`; unreadable pairs are excluded via §III.C. `repetition`
    /// is the (odd) repetition factor of the code-offset sketch.
    ///
    /// # Errors
    ///
    /// [`Error::Lifecycle`] when `repetition` is zero or even, or when
    /// the enrollment yields too few usable bits for even one key bit.
    pub fn generate_key(
        self,
        seed: u64,
        repetition: usize,
        plan: &FaultPlan,
    ) -> Result<(Device<'a, Enrolled>, KeyCode), Error> {
        let _span = telemetry::span("lifecycle.generate_key");
        let device = self.enroll(seed, plan);
        let code = device.issue_key(seed, repetition)?;
        Ok((device, code))
    }

    /// Enrolls the device and commits a *caller-supplied* key (the
    /// `SetKey` op): the returned [`KeyCode`] makes
    /// [`Device::get_key`] reproduce exactly `key`.
    ///
    /// # Errors
    ///
    /// [`Error::Lifecycle`] when `repetition` is zero or even, the
    /// enrollment yields no usable bits, or the key does not fit the
    /// enrolled response (`key.len() * repetition` bits required).
    pub fn set_key(
        self,
        seed: u64,
        key: &BitVec,
        repetition: usize,
        plan: &FaultPlan,
    ) -> Result<(Device<'a, Enrolled>, KeyCode), Error> {
        let _span = telemetry::span("lifecycle.set_key");
        let device = self.enroll(seed, plan);
        let helper = device
            .extractor(repetition)?
            .commit(key, &device.state.enrollment.expected_bits())
            .map_err(|e| Error::Lifecycle(e.to_string()))?;
        telemetry::counter("lifecycle.keycodes", 1);
        Ok((device, KeyCode::from_parts(repetition, helper)))
    }

    fn enroll(self, seed: u64, plan: &FaultPlan) -> Device<'a, Enrolled> {
        let Self {
            board,
            tech,
            env,
            opts,
            state,
        } = self;
        let enrollment = enroll_robust(&state.puf, seed, board, &tech, env, &opts, plan).enrollment;
        Device {
            board,
            tech,
            env,
            opts,
            state: Enrolled { enrollment },
        }
    }
}

impl<'a> Device<'a, Enrolled> {
    /// Rehydrates an enrolled device from persisted helper data — the
    /// path a rebooted verifier takes, where enrollment happened once
    /// at provisioning time. The device holds the enrollment it is
    /// given and allocates nothing.
    pub fn resume(
        board: &'a Board,
        tech: &Technology,
        env: Environment,
        opts: EnrollOptions,
        enrollment: Enrollment,
    ) -> Result<Self, Error> {
        if enrollment.bit_count() == 0 {
            return Err(Error::Lifecycle(
                "cannot resume from an enrollment with no usable bits".to_string(),
            ));
        }
        Ok(Self {
            board,
            tech: *tech,
            env,
            opts,
            state: Enrolled { enrollment },
        })
    }

    /// The helper data this device enrolled with.
    pub fn enrollment(&self) -> &Enrollment {
        &self.state.enrollment
    }

    /// One fault-screened, majority-voted authentication read-out:
    /// erasures (`None`) mark bits whose read failed unrecoverably.
    /// Deterministic in `seed` — the form a verifier drill replays.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is zero or even (same contract as
    /// [`respond_robust_bound`]).
    pub fn respond(
        &self,
        seed: u64,
        votes: usize,
        plan: &FaultPlan,
    ) -> (Vec<Option<bool>>, FaultSummary) {
        let _span = telemetry::span("lifecycle.respond");
        respond_robust_bound(
            &self.state.enrollment.bind(self.board),
            seed,
            &self.tech,
            self.env,
            &self.opts.probe,
            votes,
            plan,
        )
    }

    /// Issues a fresh Key Code against the *current* enrollment — the
    /// key half of [`Device::generate_key`], and the re-provisioning
    /// step after an accepted [`Device::reenroll`], where the old code
    /// no longer reproduces (the response bits changed with the
    /// configuration).
    ///
    /// # Errors
    ///
    /// [`Error::Lifecycle`] when `repetition` is zero or even, or the
    /// enrollment yields too few usable bits for even one key bit.
    pub fn issue_key(&self, seed: u64, repetition: usize) -> Result<KeyCode, Error> {
        let fx = self.extractor(repetition)?;
        let mut rng = StdRng::seed_from_u64(split_seed(seed, STREAM_KEY));
        let (_key, helper) = fx.generate(&mut rng, &self.state.enrollment.expected_bits());
        telemetry::counter("lifecycle.keycodes", 1);
        Ok(KeyCode::from_parts(repetition, helper))
    }

    /// The repetition-`repetition` sketch over this enrollment, refused
    /// unless `repetition` is odd and at least one key bit fits.
    fn extractor(&self, repetition: usize) -> Result<FuzzyExtractor, Error> {
        if repetition == 0 || repetition.is_multiple_of(2) {
            return Err(Error::Lifecycle(format!(
                "repetition factor must be odd, got {repetition}"
            )));
        }
        let fx = FuzzyExtractor::new(repetition);
        let bits = self.state.enrollment.bit_count();
        if fx.key_bits(bits) == 0 {
            return Err(Error::Lifecycle(format!(
                "enrollment holds {bits} usable bits, fewer than one repetition-{repetition} block"
            )));
        }
        Ok(fx)
    }

    /// Attempts a drift-triggered re-enrollment over `puf`, the
    /// floorplan the device was provisioned on (see [`crate::reenroll`]):
    /// every pair of it is selectable again, including those the old
    /// enrollment excluded. The device stays `Enrolled` either way — on
    /// acceptance it carries the replacement enrollment, on a typed
    /// rejection it keeps the old one. There is no intermediate
    /// unenrolled state, mirroring the server's generation-supersede
    /// semantics.
    ///
    /// Key codes issued against the *old* enrollment stop reproducing
    /// after an accepted re-enrollment (the response bits changed);
    /// callers re-issue with [`Device::issue_key`].
    pub fn reenroll(
        self,
        puf: &ConfigurableRoPuf,
        seed: u64,
        plan: &FaultPlan,
    ) -> (Self, ReenrollOutcome) {
        let _span = telemetry::span("lifecycle.reenroll");
        let outcome = reenroll::reenroll(
            puf,
            seed,
            self.board,
            &self.tech,
            self.env,
            &self.opts,
            plan,
            &self.state.enrollment,
        );
        let device = match outcome.accepted() {
            Some(enrollment) => Self {
                state: Enrolled {
                    enrollment: enrollment.clone(),
                },
                ..self
            },
            None => self,
        };
        (device, outcome)
    }

    /// Reconstructs the key behind `code` from a fresh measurement (the
    /// `GetKey` op) through [`KeyCode::reconstruct`], erasures falling
    /// back to the enrolled bits.
    ///
    /// # Errors
    ///
    /// [`Error::Lifecycle`] when `code` does not fit this device's
    /// enrollment (wrong length or repetition).
    ///
    /// # Panics
    ///
    /// Panics if `votes` is zero or even.
    pub fn get_key(
        &self,
        seed: u64,
        votes: usize,
        plan: &FaultPlan,
        code: &KeyCode,
    ) -> Result<BitVec, Error> {
        let _span = telemetry::span("lifecycle.get_key");
        let (bits, _summary) = self.respond(seed, votes, plan);
        code.reconstruct(&bits, &self.state.enrollment.expected_bits())
            .map_err(|e| Error::Lifecycle(e.to_string()))
    }
}

/// Magic prefix of the serialized [`KeyCode`] form.
pub const KEY_CODE_MAGIC: &[u8; 4] = b"RPKC";

/// Newest Key Code format version this build writes and reads.
pub const KEY_CODE_VERSION: u16 = 1;

/// An opaque Key Code: the public output of `GenerateKey`/`SetKey`
/// and the input to `GetKey`.
///
/// Contains the repetition factor and the code-offset helper string —
/// public data by construction, never the key itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCode {
    repetition: usize,
    helper: BitVec,
}

impl KeyCode {
    fn from_parts(repetition: usize, helper: BitVec) -> Self {
        Self { repetition, helper }
    }

    /// The repetition factor of the sketch.
    pub fn repetition(&self) -> usize {
        self.repetition
    }

    /// Length of the key this code reconstructs, in bits.
    pub fn key_bits(&self) -> usize {
        self.helper.len() / self.repetition
    }

    /// The public helper string.
    pub fn helper(&self) -> &BitVec {
        &self.helper
    }

    /// Reproduces the key behind this code from a read-out, each erased
    /// bit (`None`) filled from the enrolled `expected` bits: the
    /// verifier holds the helper data, so an erasure costs nothing and
    /// reconstruction stays deterministic under faults. [`Device::get_key`]
    /// and the server's key-derivation gate both reconstruct here.
    ///
    /// # Errors
    ///
    /// [`ReproduceError`] when the read-out holds fewer bits than the
    /// helper string covers.
    pub fn reconstruct(
        &self,
        read: &[Option<bool>],
        expected: &BitVec,
    ) -> Result<BitVec, ReproduceError> {
        let filled: BitVec = read
            .iter()
            .zip(expected.iter())
            .map(|(bit, enrolled)| bit.unwrap_or(enrolled))
            .collect();
        FuzzyExtractor::new(self.repetition).reproduce(&filled, &self.helper)
    }

    /// Serializes to the versioned wire form: [`KEY_CODE_MAGIC`],
    /// little-endian u16 version and repetition, u32 helper bit count,
    /// then the helper bits packed LSB-first.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.helper.len().div_ceil(8));
        out.extend_from_slice(KEY_CODE_MAGIC);
        out.extend_from_slice(&KEY_CODE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.repetition as u16).to_le_bytes());
        out.extend_from_slice(&(self.helper.len() as u32).to_le_bytes());
        BitVec::pack(self.helper.iter(), &mut out);
        out
    }

    /// Parses the versioned wire form.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedVersion`] on a version mismatch and
    /// [`Error::Lifecycle`] on any structural defect (bad magic,
    /// truncation, even repetition, helper not a whole number of
    /// blocks).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        if bytes.len() < 12 || &bytes[..4] != KEY_CODE_MAGIC {
            return Err(Error::Lifecycle("missing RPKC key-code magic".to_string()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != KEY_CODE_VERSION {
            return Err(Error::UnsupportedVersion {
                found: version,
                supported: KEY_CODE_VERSION,
            });
        }
        let repetition = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
        if repetition == 0 || repetition.is_multiple_of(2) {
            return Err(Error::Lifecycle(format!(
                "key-code repetition must be odd, got {repetition}"
            )));
        }
        let helper_bits = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        if helper_bits == 0 || !helper_bits.is_multiple_of(repetition) {
            return Err(Error::Lifecycle(format!(
                "helper of {helper_bits} bits is not a whole number of repetition-{repetition} blocks"
            )));
        }
        if bytes.len() != 12 + helper_bits.div_ceil(8) {
            return Err(Error::Lifecycle(format!(
                "key code of {} bytes cannot hold {helper_bits} helper bits",
                bytes.len()
            )));
        }
        Ok(Self {
            repetition,
            helper: BitVec::unpack(&bytes[12..], helper_bits).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::SiliconSim;

    fn setup(units: usize) -> (Board, Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(77);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 12);
        (board, *sim.technology())
    }

    fn started<'a>(board: &'a Board, tech: &Technology) -> Device<'a, Started> {
        Device::start(
            board,
            tech,
            Environment::nominal(),
            ConfigurableRoPuf::tiled_interleaved(board.len(), 4),
            EnrollOptions::default(),
        )
    }

    #[test]
    fn generate_key_then_get_key_round_trips() {
        let (board, tech) = setup(80);
        let plan = FaultPlan::scaled(0.0);
        let (device, code) = started(&board, &tech)
            .generate_key(41, 3, &plan)
            .expect("enrolls");
        assert_eq!(code.repetition(), 3);
        assert!(code.key_bits() >= 3);
        let k1 = device.get_key(7, 1, &plan, &code).unwrap();
        let k2 = device.get_key(8, 3, &plan, &code).unwrap();
        assert_eq!(k1.len(), code.key_bits());
        assert_eq!(k1, k2, "key is stable across read-outs");
    }

    #[test]
    fn set_key_reproduces_the_chosen_key() {
        let (board, tech) = setup(80);
        let plan = FaultPlan::scaled(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let key: BitVec = (0..3).map(|_| rng.gen::<bool>()).collect();
        let (device, code) = started(&board, &tech)
            .set_key(41, &key, 3, &plan)
            .expect("enrolls");
        assert_eq!(device.get_key(9, 1, &plan, &code).unwrap(), key);
    }

    #[test]
    fn get_key_survives_faulty_reads() {
        let (board, tech) = setup(80);
        let clean = FaultPlan::scaled(0.0);
        let (device, code) = started(&board, &tech)
            .generate_key(41, 3, &clean)
            .expect("enrolls");
        let key = device.get_key(7, 1, &clean, &code).unwrap();
        // A moderate fault campaign: erasures fall back to expected
        // bits, so the key still reproduces, deterministically.
        let chaotic = FaultPlan::scaled(5.0);
        let a = device.get_key(7, 3, &chaotic, &code).unwrap();
        let b = device.get_key(7, 3, &chaotic, &code).unwrap();
        assert_eq!(a, b, "faulty read-out is deterministic in the seed");
        assert_eq!(a, key, "erasure fallback preserves the key");
    }

    #[test]
    fn generate_key_rejects_bad_repetition_and_tiny_enrollments() {
        let (board, tech) = setup(80);
        let plan = FaultPlan::scaled(0.0);
        let err = started(&board, &tech)
            .generate_key(41, 2, &plan)
            .unwrap_err();
        assert!(matches!(err, Error::Lifecycle(_)), "{err}");
        let err = started(&board, &tech)
            .generate_key(41, 0, &plan)
            .unwrap_err();
        assert!(matches!(err, Error::Lifecycle(_)), "{err}");
        // Repetition far beyond the bit budget: no full block fits.
        let err = started(&board, &tech)
            .generate_key(41, 101, &plan)
            .unwrap_err();
        assert!(err.to_string().contains("fewer than one"), "{err}");
    }

    #[test]
    fn resume_matches_the_original_enrollment() {
        let (board, tech) = setup(80);
        let plan = FaultPlan::scaled(0.0);
        let (device, code) = started(&board, &tech)
            .generate_key(41, 3, &plan)
            .expect("enrolls");
        let resumed = Device::resume(
            &board,
            &tech,
            Environment::nominal(),
            EnrollOptions::default(),
            device.enrollment().clone(),
        )
        .expect("resumes");
        assert_eq!(
            resumed.respond(13, 1, &plan),
            device.respond(13, 1, &plan),
            "resumed device answers identically"
        );
        assert_eq!(
            resumed.get_key(7, 1, &plan, &code).unwrap(),
            device.get_key(7, 1, &plan, &code).unwrap()
        );
    }

    #[test]
    fn resume_rejects_empty_enrollments() {
        let (board, tech) = setup(80);
        // A threshold nothing survives.
        let opts = EnrollOptions {
            threshold_ps: 1e12,
            ..EnrollOptions::default()
        };
        let device = Device::start(
            &board,
            &tech,
            Environment::nominal(),
            ConfigurableRoPuf::tiled_interleaved(board.len(), 4),
            opts,
        );
        let err = device
            .generate_key(41, 1, &FaultPlan::scaled(0.0))
            .unwrap_err();
        assert!(matches!(err, Error::Lifecycle(_)));
    }

    #[test]
    fn reenroll_on_unaged_silicon_keeps_the_old_enrollment() {
        let (board, tech) = setup(120);
        let plan = FaultPlan::scaled(0.0);
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 5);
        let device = Device::start(
            &board,
            &tech,
            Environment::nominal(),
            puf.clone(),
            EnrollOptions {
                threshold_ps: 5.0,
                ..EnrollOptions::default()
            },
        );
        let (device, code) = device.generate_key(41, 1, &plan).expect("enrolls");
        let before = device.enrollment().clone();
        let (device, outcome) = device.reenroll(&puf, 99, &plan);
        assert!(
            matches!(
                outcome,
                ReenrollOutcome::Rejected(crate::reenroll::ReenrollRejected::NotDrifted { .. })
            ),
            "{outcome:?}"
        );
        assert_eq!(device.enrollment(), &before, "enrollment untouched");
        // Old key codes still reproduce.
        assert!(device.get_key(7, 1, &plan, &code).is_ok());
    }

    #[test]
    fn issue_key_reprovisions_a_working_code() {
        let (board, tech) = setup(120);
        let plan = FaultPlan::scaled(0.0);
        let device = Device::start(
            &board,
            &tech,
            Environment::nominal(),
            ConfigurableRoPuf::tiled_interleaved(120, 5),
            EnrollOptions::default(),
        );
        let (device, original) = device.generate_key(41, 3, &plan).expect("enrolls");
        let reissued = device.issue_key(77, 3).expect("reissues");
        // Both codes reproduce from live reads, and the reissued key is
        // stable across read-outs.
        assert!(device.get_key(5, 1, &plan, &original).is_ok());
        let a = device.get_key(5, 1, &plan, &reissued).expect("new code");
        let b = device.get_key(6, 1, &plan, &reissued).expect("fresh read");
        assert_eq!(a, b, "reissued key is read-out independent");
        assert!(device.issue_key(1, 2).is_err(), "even repetition rejected");
    }

    /// The re-enrollment drill's aging model.
    fn drill_aging() -> ropuf_silicon::aging::AgingModel {
        ropuf_silicon::aging::AgingModel {
            sigma_drift_rel: 0.02,
            sigma_path_rel: 0.01,
            ..ropuf_silicon::aging::AgingModel::default()
        }
    }

    #[test]
    fn reenroll_on_drifted_silicon_replaces_the_enrollment() {
        let (board, tech) = setup(240);
        let plan = FaultPlan::scaled(0.0);
        let opts = EnrollOptions {
            threshold_ps: 5.0,
            ..EnrollOptions::default()
        };
        let puf = ConfigurableRoPuf::tiled_interleaved(240, 5);
        let old = puf.enroll_seeded(41, &board, &tech, Environment::nominal(), &opts);
        let corners = crate::reenroll::assessment_corners(Environment::nominal());
        let aged = (0..64)
            .map(|s| drill_aging().age_board(&mut StdRng::seed_from_u64(s), &board, 10.0))
            .find(|aged| {
                crate::reenroll::assess_drift(&old, aged, &tech, &corners).enrollment_point_flips
                    > 0
            })
            .expect("some aging draw flips a bit");
        let device =
            Device::resume(&aged, &tech, Environment::nominal(), opts, old.clone()).unwrap();
        let (device, outcome) = device.reenroll(&puf, 43, &plan);
        assert!(
            matches!(outcome, ReenrollOutcome::Accepted { .. }),
            "{outcome:?}"
        );
        assert_ne!(device.enrollment(), &old, "enrollment replaced");
        assert!(device.enrollment().bit_count() > 0);
        assert_eq!(device.enrollment().pairs().len(), puf.pair_count());
    }

    /// A device resumed from its enrollment re-enrolls over the whole
    /// floorplan it was provisioned on, exactly as re-enrolling that
    /// floorplan without the resume does: pairs the old enrollment left
    /// out are selectable again, so the fleet keeps more bits than the
    /// old enrollments' surviving pairs could hold. The fixture is the
    /// re-enrollment drill's: 240 units on 12 columns, 4-stage
    /// interleaved pairs, a 5 ps threshold, ten years of aging.
    #[test]
    fn resumed_device_reenrolls_over_its_provisioning_floorplan() {
        let sim = SiliconSim::default_spartan();
        let tech = *sim.technology();
        let env = Environment::nominal();
        let plan = FaultPlan::scaled(0.0);
        let opts = EnrollOptions {
            threshold_ps: 5.0,
            ..EnrollOptions::default()
        };
        let puf = ConfigurableRoPuf::tiled_interleaved(240, 4);
        let (mut accepted, mut old_bits, mut new_bits) = (0, 0, 0);
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let board = sim.grow_board_with_id(&mut rng, BoardId(seed as u32), 240, 12);
            let (device, _code) = Device::start(&board, &tech, env, puf.clone(), opts)
                .generate_key(seed, 3, &plan)
                .expect("enrolls");
            let old = device.enrollment().clone();
            let aged = drill_aging().age_board(&mut rng, &board, 10.0);
            let resumed = Device::resume(&aged, &tech, env, opts, old.clone()).unwrap();
            let (device, outcome) = resumed.reenroll(&puf, seed + 100, &plan);
            let direct =
                crate::reenroll::reenroll(&puf, seed + 100, &aged, &tech, env, &opts, &plan, &old);
            assert_eq!(outcome, direct, "seed {seed}");
            let in_force = direct.accepted().unwrap_or(&old);
            assert_eq!(device.enrollment(), in_force, "seed {seed}");
            if let Some(new) = direct.accepted() {
                accepted += 1;
                old_bits += old.bit_count();
                new_bits += new.bit_count();
            }
        }
        assert!(accepted > 0, "ten years of aging drift some device");
        assert!(
            new_bits > old_bits,
            "{accepted} re-enrolled devices hold {new_bits} bits, their old enrollments {old_bits}"
        );
    }

    #[test]
    fn key_code_bytes_round_trip() {
        let (board, tech) = setup(80);
        let plan = FaultPlan::scaled(0.0);
        let (_device, code) = started(&board, &tech)
            .generate_key(41, 3, &plan)
            .expect("enrolls");
        let bytes = code.to_bytes();
        assert_eq!(&bytes[..4], KEY_CODE_MAGIC);
        assert_eq!(KeyCode::from_bytes(&bytes).unwrap(), code);
    }

    #[test]
    fn key_code_rejects_malformed_bytes() {
        let (board, tech) = setup(80);
        let plan = FaultPlan::scaled(0.0);
        let (_device, code) = started(&board, &tech)
            .generate_key(41, 3, &plan)
            .expect("enrolls");
        let good = code.to_bytes();

        assert!(matches!(
            KeyCode::from_bytes(b"nope"),
            Err(Error::Lifecycle(_))
        ));
        let mut wrong_version = good.clone();
        wrong_version[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            KeyCode::from_bytes(&wrong_version),
            Err(Error::UnsupportedVersion { found: 9, .. })
        ));
        let mut even_rep = good.clone();
        even_rep[6..8].copy_from_slice(&4u16.to_le_bytes());
        assert!(matches!(
            KeyCode::from_bytes(&even_rep),
            Err(Error::Lifecycle(_))
        ));
        let truncated = &good[..good.len() - 1];
        assert!(matches!(
            KeyCode::from_bytes(truncated),
            Err(Error::Lifecycle(_))
        ));
    }
}
