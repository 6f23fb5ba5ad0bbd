//! Plain-text persistence for enrollments.
//!
//! An [`Enrollment`] is exactly the helper data a verifier stores per
//! device: which units form each ring pair, the chosen configurations,
//! the expected bit, and the margin. This module round-trips it through
//! a line-oriented text format with no serialization dependencies.
//!
//! One writer appends that format for [`enrollment_to_text`] and
//! [`enrollment_to_bytes`] alike, into a buffer sized before it is
//! written.
//!
//! One validator checks that format on borrowed slices. It backs both
//! [`enrollment_from_text`], which builds the [`Enrollment`], and
//! [`expected_bits_from_bytes`], which keeps only the expected bits for
//! a verifier that serves from them. Both accept the same input and
//! fail with the same error.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_core::persist::{enrollment_from_text, enrollment_to_text};
//! use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
//! use ropuf_silicon::board::BoardId;
//! use ropuf_silicon::{Environment, SiliconSim};
//!
//! let sim = SiliconSim::default_spartan();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let board = sim.grow_board_with_id(&mut rng, BoardId(0), 40, 8);
//! let enrollment = ConfigurableRoPuf::tiled(40, 5).enroll(
//!     &mut rng, &board, sim.technology(),
//!     Environment::nominal(), &EnrollOptions::default(),
//! );
//! let text = enrollment_to_text(&enrollment);
//! assert_eq!(enrollment_from_text(&text)?, enrollment);
//! # Ok::<(), ropuf_core::persist::ParseEnrollmentError>(())
//! ```

use std::fmt;
use std::io::Write;

use ropuf_num::bits::{BitVec, ParseBitsError};
use ropuf_silicon::Environment;

use crate::config::ConfigVector;
use crate::error::Error;
use crate::puf::{EnrolledPair, Enrollment, PairSpec};

/// First line of the format, bumped on breaking changes.
pub const HEADER: &str = "ropuf-enrollment v1";

/// Magic prefix of the versioned binary envelope.
pub const MAGIC: &[u8; 4] = b"ROPF";

/// Newest envelope version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// Serializes an enrollment to the portable text format.
pub fn enrollment_to_text(enrollment: &Enrollment) -> String {
    String::from_utf8(write_v1(enrollment, &[])).expect("the v1 text is ASCII")
}

/// Parses an enrollment from the portable text format.
///
/// # Errors
///
/// Returns [`ParseEnrollmentError`] describing the first offending line.
pub fn enrollment_from_text(text: &str) -> Result<Enrollment, ParseEnrollmentError> {
    let mut pairs = Vec::new();
    let env = scan(text, |pair| pairs.push(pair.map(PairLine::build)))?;
    Ok(Enrollment::from_parts(pairs, env))
}

/// Serializes an enrollment to the versioned binary envelope: the
/// [`MAGIC`] prefix, a little-endian u16 [`FORMAT_VERSION`], then the
/// text format as the payload.
///
/// This is the form the enrollment server stores on disk — the version
/// field lets the store evolve without silently misreading old records.
pub fn enrollment_to_bytes(enrollment: &Enrollment) -> Vec<u8> {
    write_v1(enrollment, &[MAGIC, &FORMAT_VERSION.to_le_bytes()])
}

/// The one writer behind both serializers: `prefix`, then the v1 text of
/// `enrollment`, in a buffer of exactly their length. A first pass of
/// [`put_v1`] sizes the buffer, so it is allocated once and, unless a
/// margin outgrows [`FLOAT_ROOM`], only shrunk to fit.
fn write_v1(enrollment: &Enrollment, prefix: &[&[u8]]) -> Vec<u8> {
    let mut room = Room(prefix.iter().map(|p| p.len()).sum());
    put_v1(enrollment, &mut room);
    let mut out = Vec::with_capacity(room.0);
    for part in prefix {
        out.extend_from_slice(part);
    }
    put_v1(enrollment, &mut out);
    out.shrink_to_fit();
    out
}

/// Writes the v1 text: the header, the env line, then one line per pair.
/// Every field reads as its `Display` writes it: indices as decimal
/// digits, configurations as one `0`/`1` per stage, the expected bit as
/// `0`/`1`, margins and the operating point in `f64`'s shortest
/// round-trip form.
fn put_v1(enrollment: &Enrollment, out: &mut impl Out) {
    let env = enrollment.enrolled_at();
    out.bytes(HEADER.as_bytes());
    out.bytes(b"\nenv,");
    out.float(env.voltage_v);
    out.bytes(b",");
    out.float(env.temperature_c);
    out.bytes(b"\n");
    for (i, pair) in enrollment.pairs().iter().enumerate() {
        out.bytes(b"pair,");
        out.decimal(i);
        let Some(p) = pair else {
            out.bytes(b",excluded\n");
            continue;
        };
        for ring in [p.spec().top(), p.spec().bottom()] {
            let mut separator = b",";
            for &unit in ring {
                out.bytes(separator);
                out.decimal(unit);
                separator = b";";
            }
        }
        for config in [p.top_config(), p.bottom_config()] {
            out.bytes(b",");
            out.config(config);
        }
        out.bytes(if p.expected_bit() { b",1," } else { b",0," });
        out.float(p.margin_ps());
        out.bytes(b"\n");
    }
}

/// Bytes [`Room`] sets aside for an `f64`: the shortest form of any
/// magnitude from 1e-5 to 1e21 fits, and margins of a few picoseconds
/// take at most 19.
const FLOAT_ROOM: usize = 24;

/// What [`put_v1`] writes to: the envelope, or the [`Room`] it needs.
trait Out {
    /// `bytes` as they are.
    fn bytes(&mut self, bytes: &[u8]);
    /// `n` as `usize`'s `Display` writes it.
    fn decimal(&mut self, n: usize);
    /// `config` as its `Display` writes it: `1` for a selected stage,
    /// `0` for a bypassed one.
    fn config(&mut self, config: &ConfigVector);
    /// `x` as `f64`'s `Display` writes it.
    fn float(&mut self, x: f64);
}

impl Out for Vec<u8> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn decimal(&mut self, mut n: usize) {
        let start = self.len();
        loop {
            self.push(b'0' + (n % 10) as u8);
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self[start..].reverse();
    }

    fn config(&mut self, config: &ConfigVector) {
        self.extend(config.iter().map(|selected| b'0' + u8::from(selected)));
    }

    fn float(&mut self, x: f64) {
        write!(self, "{x}").expect("writing to memory cannot fail");
    }
}

/// The length of what [`put_v1`] writes, with [`FLOAT_ROOM`] bytes for
/// each `f64`.
struct Room(usize);

impl Out for Room {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn decimal(&mut self, n: usize) {
        self.0 += n.checked_ilog10().map_or(1, |d| d as usize + 1);
    }

    fn config(&mut self, config: &ConfigVector) {
        self.0 += config.len();
    }

    fn float(&mut self, _: f64) {
        self.0 += FLOAT_ROOM;
    }
}

/// Parses an enrollment from the versioned binary envelope.
///
/// # Errors
///
/// [`Error::Parse`] when the magic is missing or the payload is
/// malformed; [`Error::UnsupportedVersion`] when the version field was
/// written by an incompatible format revision.
pub fn enrollment_from_bytes(bytes: &[u8]) -> Result<Enrollment, Error> {
    enrollment_from_text(envelope_text(bytes)?).map_err(Error::from)
}

/// The expected bits of a versioned binary envelope, in pair order
/// (excluded pairs skipped): what
/// `enrollment_from_bytes(bytes)?.expected_bits()` returns, without
/// building the [`Enrollment`].
///
/// Every check of [`enrollment_from_bytes`] still runs, so the two
/// accept the same envelopes and fail with the same error.
///
/// # Errors
///
/// Exactly those of [`enrollment_from_bytes`].
pub fn expected_bits_from_bytes(bytes: &[u8]) -> Result<BitVec, Error> {
    let mut bits = BitVec::new();
    scan(envelope_text(bytes)?, |pair| {
        if let Some(pair) = pair {
            bits.push(pair.expected_bit);
        }
    })?;
    Ok(bits)
}

/// Checks the envelope's magic and version and returns its text payload.
fn envelope_text(bytes: &[u8]) -> Result<&str, Error> {
    let header = MAGIC.len() + 2;
    if bytes.len() < header || &bytes[..MAGIC.len()] != MAGIC {
        return Err(Error::Parse(err(1, "missing ROPF envelope magic")));
    }
    let version = u16::from_le_bytes([bytes[MAGIC.len()], bytes[MAGIC.len() + 1]]);
    if version != FORMAT_VERSION {
        return Err(Error::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    std::str::from_utf8(&bytes[header..])
        .map_err(|_| Error::Parse(err(1, "envelope payload is not UTF-8")))
}

/// One pair line that passed every check of [`scan`], borrowed from the
/// text.
struct PairLine<'a> {
    top: &'a str,
    bottom: &'a str,
    top_config: &'a str,
    bottom_config: &'a str,
    expected_bit: bool,
    margin_ps: f64,
}

impl PairLine<'_> {
    fn build(self) -> EnrolledPair {
        let units = |list: &str| -> Vec<usize> {
            split_at(list, b';')
                .map(|u| u.parse().expect("unit indices checked by scan"))
                .collect()
        };
        let config = |bits: &str| {
            ConfigVector::from_flags(&bits.bytes().map(|b| b == b'1').collect::<Vec<_>>())
        };
        let spec =
            PairSpec::try_new(units(self.top), units(self.bottom)).expect("layout checked by scan");
        EnrolledPair::from_parts(
            spec,
            config(self.top_config),
            config(self.bottom_config),
            self.expected_bit,
            self.margin_ps,
        )
    }
}

/// The one validator behind both parsers: runs every check of the text
/// format on borrowed slices, building nothing, and hands each pair line
/// to `visit` in order (`None` for an excluded pair). Returns the
/// enrollment's operating point.
fn scan<'a>(
    text: &'a str,
    mut visit: impl FnMut(Option<PairLine<'a>>),
) -> Result<Environment, ParseEnrollmentError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        _ => return Err(err(1, format!("expected header {HEADER:?}"))),
    }
    let (line_no, env_line) = lines.next().ok_or_else(|| err(2, "missing env line"))?;
    let env = parse_env(env_line, line_no + 1)?;

    let mut pairs = 0;
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        visit(pair_line(line, i + 1, pairs)?);
        pairs += 1;
    }
    if pairs == 0 {
        return Err(err(1, "enrollment contains no pairs"));
    }
    Ok(env)
}

/// Checks the pair line at `line_no`, which must carry pair `index`.
fn pair_line(
    line: &str,
    line_no: usize,
    index: usize,
) -> Result<Option<PairLine<'_>>, ParseEnrollmentError> {
    let fields = Fields::<8>::split(line);
    if fields.get(0) != Some("pair") {
        return Err(err(line_no, "expected a pair line"));
    }
    let found: usize = parse(fields.get(1), line_no, "index")?;
    if found != index {
        return Err(err(line_no, format!("pair index {found} out of order")));
    }
    if fields.get(2) == Some("excluded") {
        return Ok(None);
    }
    if fields.count != 8 {
        return Err(err(line_no, "pair line needs 8 comma-separated fields"));
    }
    let [_, _, top, bottom, top_config, bottom_config, ..] = fields.first;
    let stages = ring_len(top, line_no)?;
    PairSpec::check_layout(stages, ring_len(bottom, line_no)?)
        .map_err(|e| err(line_no, format!("bad pair layout: {e}")))?;
    check_config(top_config, line_no)?;
    check_config(bottom_config, line_no)?;
    // Also the typed error for an empty configuration: a pair has at
    // least one stage.
    if top_config.len() != stages || bottom_config.len() != stages {
        return Err(err(line_no, "configuration length does not match the pair"));
    }
    let bit: u8 = parse(fields.get(6), line_no, "bit")?;
    if bit > 1 {
        return Err(err(line_no, "bit must be 0 or 1"));
    }
    let margin_ps: f64 = parse(fields.get(7), line_no, "margin")?;
    if !(margin_ps.is_finite() && margin_ps >= 0.0) {
        return Err(err(line_no, "margin must be finite and non-negative"));
    }
    Ok(Some(PairLine {
        top,
        bottom,
        top_config,
        bottom_config,
        expected_bit: bit == 1,
        margin_ps,
    }))
}

/// Number of `;`-separated unit indices in a ring's list, each checked.
fn ring_len(list: &str, line_no: usize) -> Result<usize, ParseEnrollmentError> {
    let mut stages = 0;
    for unit in split_at(list, b';') {
        unit.parse::<usize>()
            .map_err(|_| err(line_no, format!("bad unit index {unit:?}")))?;
        stages += 1;
    }
    Ok(stages)
}

/// Checks a configuration field holds only `0`/`1`, failing as
/// [`BitVec::from_binary_str`] does.
fn check_config(bits: &str, line_no: usize) -> Result<(), ParseEnrollmentError> {
    match bits.char_indices().find(|&(_, c)| !matches!(c, '0' | '1')) {
        None => Ok(()),
        Some((position, found)) => Err(err(
            line_no,
            format!("bad configuration: {}", ParseBitsError { position, found }),
        )),
    }
}

fn parse_env(line: &str, line_no: usize) -> Result<Environment, ParseEnrollmentError> {
    let fields = Fields::<3>::split(line);
    if fields.get(0) != Some("env") {
        return Err(err(line_no, "expected the env line"));
    }
    let v: f64 = parse(fields.get(1), line_no, "voltage")?;
    let t: f64 = parse(fields.get(2), line_no, "temperature")?;
    if !(v.is_finite() && v > 0.0 && t.is_finite()) {
        return Err(err(line_no, "invalid operating point"));
    }
    Ok(Environment::new(v, t))
}

/// The first `N` comma-separated fields of a line, and how many fields
/// it has in all.
struct Fields<'a, const N: usize> {
    first: [&'a str; N],
    count: usize,
}

impl<'a, const N: usize> Fields<'a, N> {
    fn split(line: &'a str) -> Self {
        let mut fields = Self {
            first: [""; N],
            count: 0,
        };
        for field in split_at(line, b',') {
            if let Some(slot) = fields.first.get_mut(fields.count) {
                *slot = field;
            }
            fields.count += 1;
        }
        fields
    }

    fn get(&self, idx: usize) -> Option<&'a str> {
        (idx < self.count).then(|| self.first[idx])
    }
}

/// `s` split at every `sep`, as `str::split` splits it, by a plain byte
/// scan: the fields here are a few bytes long, too short for
/// `str::split`'s searcher to pay off.
fn split_at(s: &str, sep: u8) -> impl Iterator<Item = &str> {
    debug_assert!(
        sep.is_ascii(),
        "an ASCII separator splits on char boundaries"
    );
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let s = rest?;
        match s.bytes().position(|b| b == sep) {
            Some(at) => {
                rest = Some(&s[at + 1..]);
                Some(&s[..at])
            }
            None => {
                rest = None;
                Some(s)
            }
        }
    })
}

fn parse<T: std::str::FromStr>(
    field: Option<&str>,
    line_no: usize,
    name: &str,
) -> Result<T, ParseEnrollmentError> {
    field
        .ok_or_else(|| err(line_no, format!("missing field {name}")))?
        .trim()
        .parse::<T>()
        .map_err(|_| err(line_no, format!("field {name} is malformed")))
}

fn err(line: usize, message: impl Into<String>) -> ParseEnrollmentError {
    ParseEnrollmentError {
        line,
        message: message.into(),
    }
}

/// Error from [`enrollment_from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEnrollmentError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseEnrollmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "enrollment parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseEnrollmentError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puf::{ConfigurableRoPuf, EnrollOptions};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::{DelayProbe, SiliconSim};

    fn sample(threshold: f64) -> (Enrollment, ropuf_silicon::Board, ropuf_silicon::Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(3);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), 60, 10);
        let e = ConfigurableRoPuf::tiled_interleaved(60, 5).enroll(
            &mut rng,
            &board,
            sim.technology(),
            Environment::nominal(),
            &EnrollOptions {
                threshold_ps: threshold,
                ..EnrollOptions::default()
            },
        );
        (e, board, *sim.technology())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (e, _, _) = sample(0.0);
        let text = enrollment_to_text(&e);
        assert!(text.starts_with(HEADER));
        let back = enrollment_from_text(&text).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn round_trip_with_excluded_pairs() {
        // Threshold at the median margin so roughly half the pairs are
        // excluded regardless of the silicon draw.
        let (all, _, _) = sample(0.0);
        let mut margins = all.margins_ps();
        margins.sort_by(f64::total_cmp);
        let (e, _, _) = sample(margins[margins.len() / 2] + 1e-9);
        assert!(
            e.pairs().iter().any(Option::is_none),
            "want some exclusions"
        );
        assert!(e.pairs().iter().any(Option::is_some), "want some survivors");
        let back = enrollment_from_text(&enrollment_to_text(&e)).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn reloaded_enrollment_responds_identically() {
        let (e, board, tech) = sample(0.0);
        let back = enrollment_from_text(&enrollment_to_text(&e)).unwrap();
        let probe = DelayProbe::noiseless();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = e.respond(&mut r1, &board, &tech, Environment::nominal(), &probe);
        let b = back.respond(&mut r2, &board, &tech, Environment::nominal(), &probe);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_header() {
        let e = enrollment_from_text("nope\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn rejects_missing_env() {
        let e = enrollment_from_text(HEADER).unwrap_err();
        assert!(e.message.contains("env"));
    }

    #[test]
    fn rejects_out_of_order_pairs() {
        let text = format!("{HEADER}\nenv,1.2,25\npair,1,excluded\n");
        let e = enrollment_from_text(&text).unwrap_err();
        assert!(e.message.contains("out of order"));
    }

    #[test]
    fn rejects_config_length_mismatch() {
        let text = format!("{HEADER}\nenv,1.2,25\npair,0,0;1,2;3,101,10,1,5.0\n");
        let e = enrollment_from_text(&text).unwrap_err();
        assert!(e.message.contains("length"), "{e}");
    }

    #[test]
    fn rejects_bad_bit_and_margin() {
        let text = format!("{HEADER}\nenv,1.2,25\npair,0,0;1,2;3,10,01,2,5.0\n");
        assert!(enrollment_from_text(&text)
            .unwrap_err()
            .message
            .contains("0 or 1"));
        let text = format!("{HEADER}\nenv,1.2,25\npair,0,0;1,2;3,10,01,1,-2.0\n");
        assert!(enrollment_from_text(&text)
            .unwrap_err()
            .message
            .contains("non-negative"));
    }

    #[test]
    fn envelope_round_trip_preserves_everything() {
        let (e, _, _) = sample(0.0);
        let bytes = enrollment_to_bytes(&e);
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION);
        assert_eq!(enrollment_from_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn envelope_rejects_bytes_from_other_versions() {
        let (e, _, _) = sample(0.0);
        let mut bytes = enrollment_to_bytes(&e);
        // A future (or ancient) writer: same magic, different version.
        bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
        match enrollment_from_bytes(&bytes).unwrap_err() {
            Error::UnsupportedVersion { found, supported } => {
                assert_eq!(found, 7);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // Version 0 — bytes that predate the envelope scheme.
        bytes[4..6].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            enrollment_from_bytes(&bytes),
            Err(Error::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn envelope_rejects_missing_magic_and_truncation() {
        let (e, _, _) = sample(0.0);
        let bytes = enrollment_to_bytes(&e);
        // Bare text (the pre-envelope format) is not an envelope.
        let bare = enrollment_to_text(&e);
        assert!(matches!(
            enrollment_from_bytes(bare.as_bytes()),
            Err(Error::Parse(_))
        ));
        // Shorter than the header.
        assert!(matches!(
            enrollment_from_bytes(&bytes[..3]),
            Err(Error::Parse(_))
        ));
        // Magic present but payload garbled.
        let mut garbled = bytes[..6].to_vec();
        garbled.extend_from_slice(b"\xff\xfe not text");
        assert!(matches!(
            enrollment_from_bytes(&garbled),
            Err(Error::Parse(_))
        ));
    }

    #[test]
    fn rejects_empty_enrollment() {
        let text = format!("{HEADER}\nenv,1.2,25\n");
        assert!(enrollment_from_text(&text)
            .unwrap_err()
            .message
            .contains("no pairs"));
    }

    #[test]
    fn empty_configuration_is_a_typed_error() {
        let text = format!("{HEADER}\nenv,1.2,25\npair,0,1,2,,,0,1.0\n");
        let e = enrollment_from_text(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("configuration length"), "{e}");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(text.as_bytes());
        assert_eq!(enrollment_from_bytes(&bytes), Err(Error::Parse(e.clone())));
        assert_eq!(expected_bits_from_bytes(&bytes), Err(Error::Parse(e)));
        // One empty side is rejected the same way.
        let text = format!("{HEADER}\nenv,1.2,25\npair,0,1,2,1,,0,1.0\n");
        assert!(enrollment_from_text(&text)
            .unwrap_err()
            .message
            .contains("configuration length"));
    }

    #[test]
    fn expected_bits_skip_excluded_pairs_like_the_built_enrollment() {
        let (all, _, _) = sample(0.0);
        let mut margins = all.margins_ps();
        margins.sort_by(f64::total_cmp);
        for e in [all.clone(), sample(margins[margins.len() / 2] + 1e-9).0] {
            let bytes = enrollment_to_bytes(&e);
            assert_eq!(expected_bits_from_bytes(&bytes).unwrap(), e.expected_bits());
        }
    }

    /// The text parser as it stood before the shared validator: the
    /// reference [`enrollment_from_text`] must match wherever this does
    /// not panic (it panics on an empty configuration field).
    fn oracle_from_text(text: &str) -> Result<Enrollment, ParseEnrollmentError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            _ => return Err(err(1, format!("expected header {HEADER:?}"))),
        }
        let (line_no, env_line) = lines.next().ok_or_else(|| err(2, "missing env line"))?;
        let env = oracle_env(env_line, line_no + 1)?;

        let mut pairs: Vec<Option<EnrolledPair>> = Vec::new();
        for (i, line) in lines {
            let line_no = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.first() != Some(&"pair") {
                return Err(err(line_no, "expected a pair line"));
            }
            let index: usize = oracle_parse(&fields, 1, line_no, "index")?;
            if index != pairs.len() {
                return Err(err(line_no, format!("pair index {index} out of order")));
            }
            if fields.get(2) == Some(&"excluded") {
                pairs.push(None);
                continue;
            }
            if fields.len() != 8 {
                return Err(err(line_no, "pair line needs 8 comma-separated fields"));
            }
            let units = |idx: usize| -> Result<Vec<usize>, ParseEnrollmentError> {
                fields[idx]
                    .split(';')
                    .map(|u| {
                        u.parse::<usize>()
                            .map_err(|_| err(line_no, format!("bad unit index {u:?}")))
                    })
                    .collect()
            };
            let config = |idx: usize| -> Result<ConfigVector, ParseEnrollmentError> {
                let bits = BitVec::from_binary_str(fields[idx])
                    .map_err(|e| err(line_no, format!("bad configuration: {e}")))?;
                Ok(ConfigVector::from_flags(&bits.to_bools()))
            };
            let spec = PairSpec::try_new(units(2)?, units(3)?)
                .map_err(|e| err(line_no, format!("bad pair layout: {e}")))?;
            let top_config = config(4)?;
            let bottom_config = config(5)?;
            if top_config.len() != spec.stages() || bottom_config.len() != spec.stages() {
                return Err(err(line_no, "configuration length does not match the pair"));
            }
            let bit: u8 = oracle_parse(&fields, 6, line_no, "bit")?;
            if bit > 1 {
                return Err(err(line_no, "bit must be 0 or 1"));
            }
            let margin: f64 = oracle_parse(&fields, 7, line_no, "margin")?;
            if !(margin.is_finite() && margin >= 0.0) {
                return Err(err(line_no, "margin must be finite and non-negative"));
            }
            pairs.push(Some(EnrolledPair::from_parts(
                spec,
                top_config,
                bottom_config,
                bit == 1,
                margin,
            )));
        }
        if pairs.is_empty() {
            return Err(err(1, "enrollment contains no pairs"));
        }
        Ok(Enrollment::from_parts(pairs, env))
    }

    fn oracle_env(line: &str, line_no: usize) -> Result<Environment, ParseEnrollmentError> {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.first() != Some(&"env") {
            return Err(err(line_no, "expected the env line"));
        }
        let v: f64 = oracle_parse(&fields, 1, line_no, "voltage")?;
        let t: f64 = oracle_parse(&fields, 2, line_no, "temperature")?;
        if !(v.is_finite() && v > 0.0 && t.is_finite()) {
            return Err(err(line_no, "invalid operating point"));
        }
        Ok(Environment::new(v, t))
    }

    fn oracle_parse<T: std::str::FromStr>(
        fields: &[&str],
        idx: usize,
        line_no: usize,
        name: &str,
    ) -> Result<T, ParseEnrollmentError> {
        fields
            .get(idx)
            .ok_or_else(|| err(line_no, format!("missing field {name}")))?
            .trim()
            .parse::<T>()
            .map_err(|_| err(line_no, format!("field {name} is malformed")))
    }

    /// The text writer as it stood before [`write_v1`], a `format!` per
    /// pair: [`enrollment_to_text`] and [`enrollment_to_bytes`] must
    /// write exactly its bytes.
    fn oracle_to_text(enrollment: &Enrollment) -> String {
        let env = enrollment.enrolled_at();
        let mut out = format!("{HEADER}\nenv,{},{}\n", env.voltage_v, env.temperature_c);
        for (i, pair) in enrollment.pairs().iter().enumerate() {
            match pair {
                None => out.push_str(&format!("pair,{i},excluded\n")),
                Some(p) => {
                    let join = |units: &[usize]| -> String {
                        units
                            .iter()
                            .map(usize::to_string)
                            .collect::<Vec<_>>()
                            .join(";")
                    };
                    out.push_str(&format!(
                        "pair,{i},{},{},{},{},{},{}\n",
                        join(p.spec().top()),
                        join(p.spec().bottom()),
                        p.top_config(),
                        p.bottom_config(),
                        u8::from(p.expected_bit()),
                        p.margin_ps(),
                    ));
                }
            }
        }
        out
    }

    /// Unit indices on both sides of each change in digit count, and far
    /// past any board.
    const EDGE_UNITS: [usize; 10] = [
        0,
        9,
        10,
        99,
        100,
        999,
        1000,
        1_000_000,
        12_345_678_901,
        usize::MAX,
    ];

    /// Margins at zero, two subnormals, a small and a large power of
    /// ten (`1e21` is the first `Display` writes with 22 digits), and
    /// the largest finite value.
    const EDGE_MARGINS: [f64; 7] = [0.0, 5e-324, 1e-310, 1e-7, 1e21, 1.5e300, f64::MAX];

    /// Operating points with fractional voltages and negative
    /// temperatures.
    const EDGE_ENVS: [(f64, f64); 6] = [
        (1.2, 25.0),
        (0.98, -40.0),
        (1.32, -0.5),
        (1.0833333333333333, 65.0),
        (0.7, -12.25),
        (1e-3, -273.15),
    ];

    /// An enrollment drawn from `seed` that no floorplan needs to admit:
    /// 1–12 pairs, each excluded at even odds (so exclusions fall first,
    /// last and in runs), rings of 1–16 stages, and unit indices,
    /// margins and operating points half from the edges above, half
    /// drawn at random.
    fn arbitrary_enrollment(seed: u64) -> Enrollment {
        let mut rng = StdRng::seed_from_u64(seed);
        let unit = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                EDGE_UNITS[rng.gen_range(0..EDGE_UNITS.len())]
            } else {
                let bits = rng.gen_range(1..40);
                rng.gen_range(0..1usize << bits)
            }
        };
        let pairs = (0..rng.gen_range(1..=12))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    return None;
                }
                let stages = rng.gen_range(1..=16);
                let top = (0..stages).map(|_| unit(&mut rng)).collect();
                let bottom = (0..stages).map(|_| unit(&mut rng)).collect();
                let mut config = || {
                    ConfigVector::from_flags(
                        &(0..stages).map(|_| rng.gen_bool(0.5)).collect::<Vec<_>>(),
                    )
                };
                let (top_config, bottom_config) = (config(), config());
                let margin_ps = if rng.gen_bool(0.5) {
                    EDGE_MARGINS[rng.gen_range(0..EDGE_MARGINS.len())]
                } else {
                    rng.gen::<f64>() * 10f64.powi(rng.gen_range(-12..24))
                };
                Some(EnrolledPair::from_parts(
                    PairSpec::try_new(top, bottom).expect("equal, non-empty rings"),
                    top_config,
                    bottom_config,
                    rng.gen_bool(0.5),
                    margin_ps,
                ))
            })
            .collect();
        let (voltage_v, temperature_c) = if rng.gen_bool(0.5) {
            EDGE_ENVS[rng.gen_range(0..EDGE_ENVS.len())]
        } else {
            (rng.gen_range(0.5..1.5), rng.gen_range(-60.0..130.0))
        };
        Enrollment::from_parts(pairs, Environment::new(voltage_v, temperature_c))
    }

    /// The decoder contract on one input: both envelope decoders return
    /// (never panic), agree on the bits or the error, and the text
    /// parser matches the oracle wherever the oracle does not panic.
    fn check_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
        let full = enrollment_from_bytes(bytes);
        let bits = expected_bits_from_bytes(bytes);
        match (&full, &bits) {
            (Ok(e), Ok(b)) => prop_assert_eq!(&e.expected_bits(), b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "decoders disagree: {full:?} vs {bits:?}"),
        }
        if let Some(text) = bytes.get(6..).and_then(|t| std::str::from_utf8(t).ok()) {
            if let Ok(reference) = std::panic::catch_unwind(|| oracle_from_text(text)) {
                prop_assert_eq!(enrollment_from_text(text), reference);
            }
        }
        Ok(())
    }

    /// A real envelope: six pairs, about 300 bytes.
    fn real_envelope() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| enrollment_to_bytes(&sample(0.0).0))
    }

    /// Bytes a mutation writes: the format's separators and digits, a
    /// sign, whitespace, a non-binary letter and invalid UTF-8.
    const MUTANT_BYTES: [u8; 12] = [
        b',', b';', b'\n', b'\r', b' ', b'0', b'1', b'2', b'-', b'.', b'x', 0xff,
    ];

    #[test]
    fn every_single_byte_mutation_and_truncation_of_an_envelope_decodes_consistently() {
        let envelope = real_envelope();
        for at in 0..envelope.len() {
            check_decoders(&envelope[..at]).unwrap();
            let mut deleted = envelope.to_vec();
            deleted.remove(at);
            check_decoders(&deleted).unwrap();
            for byte in MUTANT_BYTES {
                let mut mutated = envelope.to_vec();
                mutated[at] = byte;
                check_decoders(&mutated).unwrap();
            }
        }
    }

    /// Candidate values for each pair-line field: mostly valid, plus the
    /// malformed shapes each check exists for.
    const FIELD_CANDIDATES: [[&str; 6]; 8] = [
        ["pair", "pair", "pair", "pair", " pair", "env"],
        ["{i}", "{i}", "{i}", " {i} ", "+{i}", "x"],
        ["0;1", "0;1", "3", "excluded", "", "0;x"],
        ["2;3", "2;3", "4", "", "2;3;4", "-1"],
        ["10", "01", "1", "", "102", "1é"],
        ["01", "10", "0", "", "2", "11"],
        ["0", "1", " 1", "2", "+1", ""],
        ["5.0", "0", "1e3", "-2", "NaN", "inf"],
    ];

    /// Builds a text from per-line candidate choices; `arity` sets how
    /// many of the eight fields a line keeps (more than eight repeats
    /// the last).
    fn candidate_text(env: &str, lines: &[Vec<usize>]) -> String {
        let mut text = format!("{HEADER}\n{env}\n");
        for (i, choice) in lines.iter().enumerate() {
            let arity = [8, 8, 8, 7, 9, 3][choice[8]];
            let fields: Vec<String> = (0..arity)
                .map(|k| {
                    FIELD_CANDIDATES[k.min(7)][choice[k.min(7)]].replace("{i}", &i.to_string())
                })
                .collect();
            text.push_str(&fields.join(","));
            text.push('\n');
        }
        text
    }

    proptest! {
        #[test]
        fn decoders_agree_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            framed in any::<bool>(),
        ) {
            let mut input = Vec::new();
            if framed {
                input.extend_from_slice(MAGIC);
                input.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            }
            input.extend_from_slice(&bytes);
            check_decoders(&input)?;
        }

        #[test]
        fn decoders_agree_on_mutated_envelopes(
            at in any::<usize>(),
            byte in any::<u8>(),
            cut in any::<usize>(),
        ) {
            let envelope = real_envelope();
            let mut mutated = envelope.to_vec();
            mutated[at % envelope.len()] = byte;
            check_decoders(&mutated)?;
            mutated.truncate(cut % (envelope.len() + 1));
            check_decoders(&mutated)?;
        }

        #[test]
        fn writer_matches_the_replaced_writer(seed in any::<u64>()) {
            let enrollment = arbitrary_enrollment(seed);
            let text = oracle_to_text(&enrollment);
            prop_assert_eq!(enrollment_to_text(&enrollment), text.clone());
            let bytes = enrollment_to_bytes(&enrollment);
            prop_assert_eq!(&bytes[..4], MAGIC);
            prop_assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION);
            prop_assert_eq!(&bytes[6..], text.as_bytes());
            prop_assert_eq!(bytes.capacity(), bytes.len());
        }

        #[test]
        fn text_parser_matches_the_oracle_on_near_valid_lines(
            env in proptest::sample::select(vec![
                "env,1.2,25", "env,1.2,25", "env,0,25", "env,1.2", "env,1.2,25,x", "",
            ]),
            lines in proptest::collection::vec(proptest::collection::vec(0usize..6, 9), 0..5),
        ) {
            let text = candidate_text(env, &lines);
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(text.as_bytes());
            check_decoders(&bytes)?;
        }
    }
}
