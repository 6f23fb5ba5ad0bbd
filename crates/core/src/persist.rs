//! Plain-text persistence for enrollments.
//!
//! An [`Enrollment`] is exactly the helper data a verifier stores per
//! device: the floorplan its ring pairs come from, the chosen
//! configurations, the expected bits, and the margins. This module
//! round-trips it through a line-oriented text format with no
//! serialization dependencies.
//!
//! # Format v2
//!
//! The floorplan is fixed at design time, so a v2 envelope states it
//! once, as the generator that built it when one did, and then writes
//! one line per pair:
//!
//! ```text
//! envelope  := "ROPF" u16-le:version payload
//! payload   := "ropuf-enrollment v2\n" env floorplan pair+
//! env       := "env," float:voltage "," float:temperature "\n"
//! floorplan := "floorplan," generator "," decimal:units "," decimal:stages "\n"
//!            | "floorplan,listed\n"
//! generator := "tiled" | "tiled_interleaved"
//! pair      := "pair," decimal:index ",excluded\n"
//!            | "pair," decimal:index "," [units "," units ","]
//!              config "," config "," bit "," float:margin "\n"
//! units     := decimal (";" decimal)*
//! config    := ("0" | "1")+
//! bit       := "0" | "1"
//! ```
//!
//! Pair indices count up from 0. A generator line (`tiled` or
//! `tiled_interleaved`, as [`ConfigurableRoPuf::tiled`] and
//! [`ConfigurableRoPuf::tiled_interleaved`] take their arguments)
//! fixes the pair count, `⌊units / 2·stages⌋`, and every configuration's
//! length, `stages`; its pair lines carry no units. Only a floorplan no
//! generator built is `listed`: each enrolled pair's line then carries
//! its top and bottom units, equally many, and configurations of that
//! length. Excluded pairs record no units. `decimal` is ASCII digits
//! that fit a `usize`; `float` is what `f64`'s `FromStr` reads, the
//! voltage finite and positive, the temperature finite, the margin
//! finite and non-negative. Every line, the last included, ends in one
//! `\n`; there are no blank lines and no spaces. The envelope is public
//! helper data: no field carries a delay.
//!
//! A generator name stands for one layout rule for good: envelopes
//! already written name it, so a changed rule needs a new name, never a
//! new meaning for an old one.
//!
//! # Writing and reading
//!
//! One writer appends v2 for [`enrollment_to_text`] and
//! [`enrollment_to_bytes`] alike, into a buffer sized before it is
//! written.
//!
//! One validator checks v2 in a single forward pass over the bytes,
//! building nothing. It backs both [`enrollment_from_bytes`], which then
//! builds the [`Enrollment`], and [`expected_bits_from_bytes`], which
//! keeps only the expected bits for a verifier that serves from them.
//! Both accept the same input and fail with the same error.
//!
//! A margin is checked, not parsed, when its field is a plain decimal:
//! 1 to 308 digits, optionally followed by `.` and more digits, then the
//! line's `\n`. `FromStr` reads every such field as a finite,
//! non-negative `f64` (it is below 10^308), and `f64`'s `Display` writes
//! every margin that way, since it never writes an exponent. Any other
//! field is parsed by `FromStr` from its first byte and must be finite
//! and non-negative, so the accepted set is still `FromStr`'s and every
//! error keeps its message and line. Only [`enrollment_from_bytes`]
//! computes margins, those of the pairs it builds.
//!
//! Version 1 restated both unit lists on every enrolled pair line
//! (`pair,i,top,bottom,top_config,bottom_config,bit,margin`) and had no
//! floorplan line. Nothing writes it any more; its validator still
//! reads it, so the stores and files written before v2 keep decoding.
//! A v1 envelope never recorded the units of excluded pairs, so its
//! enrollment knows its enrolled pairs' units only.
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
//! assert!(text.contains("\nfloorplan,tiled,40,5\n"));
//! assert_eq!(enrollment_from_text(&text)?, enrollment);
//! # Ok::<(), ropuf_core::persist::ParseEnrollmentError>(())
//! ```
//!
//! [`ConfigurableRoPuf::tiled`]: crate::puf::ConfigurableRoPuf::tiled
//! [`ConfigurableRoPuf::tiled_interleaved`]: crate::puf::ConfigurableRoPuf::tiled_interleaved

use std::fmt;
use std::io::Write;

use ropuf_num::bits::{BitVec, ParseBitsError};
use ropuf_silicon::Environment;

use crate::config::ConfigVector;
use crate::error::Error;
use crate::puf::{EnrolledPair, Enrollment, Floorplan, Generator, Layout, PairSpec};

/// First line of the format this build writes.
pub const HEADER: &str = "ropuf-enrollment v2";

/// First line of the v1 format, which this build still reads.
const HEADER_V1: &str = "ropuf-enrollment v1";

/// Magic prefix of the versioned binary envelope.
pub const MAGIC: &[u8; 4] = b"ROPF";

/// Envelope version this build writes. It reads this and version 1.
pub const FORMAT_VERSION: u16 = 2;

/// The envelope version of the v1 text.
const FORMAT_V1: u16 = 1;

/// Serializes an enrollment to the portable text format.
pub fn enrollment_to_text(enrollment: &Enrollment) -> String {
    String::from_utf8(write(enrollment, &[])).expect("the text is ASCII")
}

/// Parses an enrollment from the portable text format, v2 or v1 (by its
/// header line).
///
/// # Errors
///
/// Returns [`ParseEnrollmentError`] describing the first offending line.
pub fn enrollment_from_text(text: &str) -> Result<Enrollment, ParseEnrollmentError> {
    decode(payload_of_text(text))
}

/// Serializes an enrollment to the versioned binary envelope: the
/// [`MAGIC`] prefix, a little-endian u16 [`FORMAT_VERSION`], then the
/// text format as the payload.
///
/// This is the form the enrollment server stores on disk — the version
/// field lets the store evolve without silently misreading old records.
pub fn enrollment_to_bytes(enrollment: &Enrollment) -> Vec<u8> {
    write(enrollment, &[MAGIC, &FORMAT_VERSION.to_le_bytes()])
}

/// The one writer behind both serializers: `prefix`, then the text of
/// `enrollment`, in a buffer of exactly their length. A first pass of
/// [`put`] sizes the buffer, so it is allocated once and, unless a
/// margin outgrows [`FLOAT_ROOM`], only shrunk to fit.
fn write(enrollment: &Enrollment, prefix: &[&[u8]]) -> Vec<u8> {
    let mut room = Room(prefix.iter().map(|p| p.len()).sum());
    put(enrollment, &mut room);
    let mut out = Vec::with_capacity(room.0);
    for part in prefix {
        out.extend_from_slice(part);
    }
    put(enrollment, &mut out);
    out.shrink_to_fit();
    out
}

/// Writes the v2 text: the header, the env line, the floorplan line,
/// then one line per pair. Every field reads as its `Display` writes
/// it: indices and counts as decimal digits, configurations as one
/// `0`/`1` per stage, the expected bit as `0`/`1`, margins and the
/// operating point in `f64`'s shortest round-trip form.
fn put(enrollment: &Enrollment, out: &mut impl Out) {
    let env = enrollment.enrolled_at();
    out.bytes(HEADER.as_bytes());
    out.bytes(b"\nenv,");
    out.float(env.voltage_v);
    out.bytes(b",");
    out.float(env.temperature_c);
    out.bytes(b"\nfloorplan,");
    let listed = match enrollment.layout() {
        Layout::Generated {
            generator,
            units,
            stages,
        } => {
            out.bytes(generator.name());
            out.bytes(b",");
            out.decimal(units);
            out.bytes(b",");
            out.decimal(stages);
            false
        }
        Layout::Listed => {
            out.bytes(b"listed");
            true
        }
    };
    out.bytes(b"\n");
    for (i, pair) in enrollment.pairs().iter().enumerate() {
        out.bytes(b"pair,");
        out.decimal(i);
        let Some(p) = pair else {
            out.bytes(b",excluded\n");
            continue;
        };
        if listed {
            let spec = enrollment.spec(p);
            for ring in [spec.top(), spec.bottom()] {
                let mut separator = b",";
                for &unit in ring {
                    out.bytes(separator);
                    out.decimal(unit);
                    separator = b";";
                }
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

/// What [`put`] writes to: the envelope, or the [`Room`] it needs.
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

/// The length of what [`put`] writes, with [`FLOAT_ROOM`] bytes for
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

/// Parses an enrollment from the versioned binary envelope, version 2
/// or 1.
///
/// # Errors
///
/// [`Error::Parse`] when the magic is missing or the payload is
/// malformed; [`Error::UnsupportedVersion`] when the version field was
/// written by an incompatible format revision.
pub fn enrollment_from_bytes(bytes: &[u8]) -> Result<Enrollment, Error> {
    decode(payload_of_envelope(bytes)?).map_err(Error::from)
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
    match payload_of_envelope(bytes)? {
        Payload::V1(text) => scan(text, |pair| {
            if let Some(pair) = pair {
                bits.push(pair.expected_bit);
            }
        })
        .map(drop)?,
        Payload::V2(payload) => scan_v2(payload, |pair| {
            if let Some(pair) = pair {
                bits.push(pair.expected_bit);
            }
        })
        .map(drop)?,
    }
    Ok(bits)
}

/// A payload, by the format version that reads it.
enum Payload<'a> {
    V1(&'a str),
    V2(&'a [u8]),
}

/// Checks the envelope's magic and version and returns its payload.
fn payload_of_envelope(bytes: &[u8]) -> Result<Payload<'_>, Error> {
    let header = MAGIC.len() + 2;
    if bytes.len() < header || &bytes[..MAGIC.len()] != MAGIC {
        return Err(Error::Parse(err(1, "missing ROPF envelope magic")));
    }
    let payload = &bytes[header..];
    match u16::from_le_bytes([bytes[MAGIC.len()], bytes[MAGIC.len() + 1]]) {
        FORMAT_VERSION => Ok(Payload::V2(payload)),
        FORMAT_V1 => std::str::from_utf8(payload)
            .map(Payload::V1)
            .map_err(|_| Error::Parse(err(1, "envelope payload is not UTF-8"))),
        found => Err(Error::UnsupportedVersion {
            found,
            supported: FORMAT_VERSION,
        }),
    }
}

/// A bare text's payload: v1 under a v1 header line, v2 otherwise.
fn payload_of_text(text: &str) -> Payload<'_> {
    if text.lines().next().is_some_and(|h| h.trim() == HEADER_V1) {
        Payload::V1(text)
    } else {
        Payload::V2(text.as_bytes())
    }
}

/// Validates `payload`, then builds its enrollment.
fn decode(payload: Payload<'_>) -> Result<Enrollment, ParseEnrollmentError> {
    match payload {
        Payload::V1(text) => {
            let mut pairs = Vec::new();
            let env = scan(text, |pair| {
                let index = pairs.len();
                pairs.push(pair.map(|p| p.build(index)));
            })?;
            Ok(Enrollment::listed(pairs, env))
        }
        Payload::V2(payload) => {
            let mut lines = Vec::new();
            let (env, layout) = scan_v2(payload, |pair| lines.push(pair))?;
            let (specs, pairs) = lines
                .into_iter()
                .enumerate()
                .map(|(i, line)| line.map(|l| l.build(i, layout)).unzip())
                .unzip();
            Ok(Enrollment::from_parts(
                Floorplan::recorded(layout, specs),
                pairs,
                env,
            ))
        }
    }
}

/// A configuration field that passed its checks: one `0`/`1` per stage.
fn config(bits: &[u8]) -> ConfigVector {
    ConfigVector::from_flags(&bits.iter().map(|&b| b == b'1').collect::<Vec<_>>())
}

/// One pair line of a v2 payload that passed every check of
/// [`scan_v2`], borrowed from it.
struct PairV2<'a> {
    /// The top and bottom unit lists, on a listed floorplan.
    units: Option<(&'a [u8], &'a [u8])>,
    top_config: &'a [u8],
    bottom_config: &'a [u8],
    expected_bit: bool,
    /// The margin field, checked but not parsed.
    margin: &'a [u8],
}

impl PairV2<'_> {
    /// Pair `index`'s units and record; `layout` lays out the units of
    /// a line that carries none.
    fn build(self, index: usize, layout: Layout) -> (PairSpec, EnrolledPair) {
        let spec = match self.units {
            Some((top, bottom)) => {
                let units = |list: &[u8]| -> Vec<usize> {
                    list.split(|&b| b == b';')
                        .map(|u| decimal(u).expect("unit indices checked by scan_v2"))
                        .collect()
                };
                PairSpec::try_new(units(top), units(bottom)).expect("layout checked by scan_v2")
            }
            None => layout.spec(index),
        };
        let margin_ps = std::str::from_utf8(self.margin)
            .ok()
            .and_then(|m| m.parse().ok())
            .expect("margin checked by scan_v2");
        let pair = EnrolledPair::from_parts(
            index,
            config(self.top_config),
            config(self.bottom_config),
            self.expected_bit,
            margin_ps,
        );
        (spec, pair)
    }
}

/// The v2 validator behind both parsers: one pass over `payload` that
/// runs every check of the format on borrowed slices, building nothing,
/// and hands each pair line to `visit` in order (`None` for an excluded
/// pair). A generator line is checked against the pair lines — their
/// count and every configuration's length — before the caller builds
/// anything from it, so a line that names more pairs than the envelope
/// lists allocates nothing. Returns the operating point and the layout.
fn scan_v2<'a>(
    payload: &'a [u8],
    mut visit: impl FnMut(Option<PairV2<'a>>),
) -> Result<(Environment, Layout), ParseEnrollmentError> {
    let mut at = Cursor {
        rest: payload,
        line: 1,
    };
    if !at.literal(HEADER.as_bytes()) || !(at.rest.is_empty() || at.literal(b"\n")) {
        return Err(err(1, format!("expected header {HEADER:?}")));
    }
    at.line += 1;
    if at.rest.is_empty() {
        return Err(at.err("missing env line"));
    }
    if !at.literal(b"env,") {
        return Err(at.err("expected the env line"));
    }
    let v = at.float(b',', "voltage")?;
    let t = at.float(b'\n', "temperature")?;
    if !(v.is_finite() && v > 0.0 && t.is_finite()) {
        return Err(at.err("invalid operating point"));
    }
    at.line += 1;
    let env = Environment::new(v, t);

    if at.rest.is_empty() {
        return Err(at.err("missing floorplan line"));
    }
    if !at.literal(b"floorplan,") {
        return Err(at.err("expected the floorplan line"));
    }
    let layout = if at.literal(b"listed\n") {
        Layout::Listed
    } else {
        let name = at.run(|b| b != b',' && b != b'\n');
        let generator = Generator::named(name).ok_or_else(|| {
            at.err(format!(
                "unknown floorplan generator {:?}",
                String::from_utf8_lossy(name)
            ))
        })?;
        at.expect(b',', "floorplan line needs 4 comma-separated fields")?;
        let units = at.decimal(b',', "units")?;
        let stages = at.decimal(b'\n', "stages")?;
        let layout = Layout::Generated {
            generator,
            units,
            stages,
        };
        if layout.pair_count().is_none() {
            return Err(at.err(format!("{units} units cannot host a {stages}-stage pair")));
        }
        layout
    };
    at.line += 1;

    let count = layout.pair_count();
    let mut pairs = 0;
    while !at.rest.is_empty() {
        if !at.literal(b"pair,") {
            return Err(at.err("expected a pair line"));
        }
        let found = at.decimal(b',', "index")?;
        if found != pairs {
            return Err(at.err(format!("pair index {found} out of order")));
        }
        if let Some(count) = count.filter(|&count| pairs >= count) {
            return Err(at.err(format!(
                "pair {found} is past the floorplan's {count} pairs"
            )));
        }
        if at.literal(b"excluded") {
            at.expect(b'\n', "an excluded pair line ends after `excluded`")?;
            visit(None);
        } else {
            visit(Some(at.pair_v2(layout)?));
        }
        at.line += 1;
        pairs += 1;
    }
    if pairs == 0 {
        return Err(err(1, "enrollment contains no pairs"));
    }
    if let Some(count) = count.filter(|&count| count != pairs) {
        return Err(at.err(format!(
            "the floorplan lays out {count} pairs but the envelope lists {pairs}"
        )));
    }
    Ok((env, layout))
}

/// The unread rest of a v2 payload, and the line it is on.
struct Cursor<'a> {
    rest: &'a [u8],
    /// 1-based number of the line being read.
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> ParseEnrollmentError {
        err(self.line, message)
    }

    /// Consumes `lit` if the rest starts with it.
    fn literal(&mut self, lit: &[u8]) -> bool {
        match self.rest.strip_prefix(lit) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes `byte`, or fails with `message`.
    fn expect(&mut self, byte: u8, message: &str) -> Result<(), ParseEnrollmentError> {
        match self.rest.split_first() {
            Some((&b, rest)) if b == byte => {
                self.rest = rest;
                Ok(())
            }
            _ => Err(self.err(message)),
        }
    }

    /// Consumes the longest run of bytes that `keep` accepts.
    fn run(&mut self, keep: impl Fn(u8) -> bool) -> &'a [u8] {
        let len = self
            .rest
            .iter()
            .position(|&b| !keep(b))
            .unwrap_or(self.rest.len());
        let (run, rest) = self.rest.split_at(len);
        self.rest = rest;
        run
    }

    /// A decimal field named `name`, ended by `end`.
    fn decimal(&mut self, end: u8, name: &str) -> Result<usize, ParseEnrollmentError> {
        let digits = self.run(|b| b.is_ascii_digit());
        match decimal(digits) {
            Some(n) if self.literal(&[end]) => Ok(n),
            _ => Err(self.err(format!("field {name} is malformed"))),
        }
    }

    /// A float field named `name`, ended by `end`.
    fn float(&mut self, end: u8, name: &str) -> Result<f64, ParseEnrollmentError> {
        let field = self.run(|b| b != b',' && b != b'\n');
        match std::str::from_utf8(field).ok().and_then(|f| f.parse().ok()) {
            Some(x) if self.literal(&[end]) => Ok(x),
            _ => Err(self.err(format!("field {name} is malformed"))),
        }
    }

    /// A `;`-separated unit list ended by `,`, returned with its length.
    fn units(&mut self) -> Result<(&'a [u8], usize), ParseEnrollmentError> {
        let list = self.rest;
        let mut stages = 0;
        loop {
            let digits = self.run(|b| b.is_ascii_digit());
            if decimal(digits).is_none() {
                return Err(self.err("bad unit index"));
            }
            stages += 1;
            if !self.literal(b";") {
                break;
            }
        }
        let list = &list[..list.len() - self.rest.len()];
        self.expect(b',', "bad unit index")?;
        Ok((list, stages))
    }

    /// A configuration of `stages` bits, ended by `,`.
    fn config(&mut self, stages: usize) -> Result<&'a [u8], ParseEnrollmentError> {
        let bits = self.run(|b| b == b'0' || b == b'1');
        match self.rest.first() {
            Some(b',') => {}
            Some(b'\n') | None => return Err(self.err("pair line ends before its margin")),
            Some(&found) => {
                return Err(self.err(format!(
                    "bad configuration: byte {found:#04x} at position {}",
                    bits.len()
                )))
            }
        }
        // Also the typed error for an empty configuration: a pair has at
        // least one stage.
        if bits.len() != stages {
            return Err(self.err("configuration length does not match the pair"));
        }
        self.rest = &self.rest[1..];
        Ok(bits)
    }

    /// The rest of an enrolled pair's line, after its index.
    fn pair_v2(&mut self, layout: Layout) -> Result<PairV2<'a>, ParseEnrollmentError> {
        let (units, stages) = match layout {
            Layout::Generated { stages, .. } => (None, stages),
            Layout::Listed => {
                let (top, stages) = self.units()?;
                let (bottom, bottom_stages) = self.units()?;
                PairSpec::check_layout(stages, bottom_stages)
                    .map_err(|e| self.err(format!("bad pair layout: {e}")))?;
                (Some((top, bottom)), stages)
            }
        };
        let top_config = self.config(stages)?;
        let bottom_config = self.config(stages)?;
        let expected_bit = match self.rest {
            [bit @ (b'0' | b'1'), b',', rest @ ..] => {
                self.rest = rest;
                *bit == b'1'
            }
            _ => return Err(self.err("bit must be 0 or 1")),
        };
        Ok(PairV2 {
            units,
            top_config,
            bottom_config,
            expected_bit,
            margin: self.margin()?,
        })
    }

    /// A margin field ended by `\n`, checked and returned unparsed. A
    /// plain decimal field is accepted as it is scanned; any other is
    /// parsed from its first byte, as [`float`](Self::float) parses it,
    /// and must be finite and non-negative.
    fn margin(&mut self) -> Result<&'a [u8], ParseEnrollmentError> {
        let field = self.rest;
        if let Some(len) = plain_decimal(field) {
            if field.get(len) == Some(&b'\n') {
                self.rest = &field[len + 1..];
                return Ok(&field[..len]);
            }
        }
        let margin_ps = self.float(b'\n', "margin")?;
        if !(margin_ps.is_finite() && margin_ps >= 0.0) {
            return Err(self.err("margin must be finite and non-negative"));
        }
        Ok(&field[..field.len() - self.rest.len() - 1])
    }
}

/// Most integer digits a plain decimal may have: any such number is
/// below 10^308, so it reads as a finite `f64` (`f64::MAX` is about
/// 1.8·10^308), where 309 digits may overflow to infinity.
const PLAIN_DIGITS: usize = 308;

/// The length of the plain decimal `bytes` starts with — 1 to
/// [`PLAIN_DIGITS`] ASCII digits, then optionally `.` and more digits —
/// or `None` when they start with no digit or with more than
/// [`PLAIN_DIGITS`]. `f64`'s `FromStr` reads every such number as a
/// finite, non-negative value, and `f64`'s `Display` writes every
/// finite, non-negative value as one, since it never writes an
/// exponent.
fn plain_decimal(bytes: &[u8]) -> Option<usize> {
    let digits = |bytes: &[u8]| bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    let int = digits(bytes);
    if !(1..=PLAIN_DIGITS).contains(&int) {
        return None;
    }
    Some(match bytes.get(int) {
        Some(b'.') => int + 1 + digits(&bytes[int + 1..]),
        _ => int,
    })
}

/// ASCII `digits` as a `usize`: `None` when there are none, one is not
/// a digit, or the value overflows.
fn decimal(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |n, &d| {
        let d = d.checked_sub(b'0').filter(|&d| d < 10)?;
        n.checked_mul(10)?.checked_add(usize::from(d))
    })
}

/// One v1 pair line that passed every check of [`scan`], borrowed from
/// the text.
struct PairLine<'a> {
    top: &'a str,
    bottom: &'a str,
    top_config: &'a str,
    bottom_config: &'a str,
    expected_bit: bool,
    margin_ps: f64,
}

impl PairLine<'_> {
    /// Pair `index`'s units and record.
    fn build(self, index: usize) -> (PairSpec, EnrolledPair) {
        let units = |list: &str| -> Vec<usize> {
            split_at(list, b';')
                .map(|u| u.parse().expect("unit indices checked by scan"))
                .collect()
        };
        let spec =
            PairSpec::try_new(units(self.top), units(self.bottom)).expect("layout checked by scan");
        let pair = EnrolledPair::from_parts(
            index,
            config(self.top_config.as_bytes()),
            config(self.bottom_config.as_bytes()),
            self.expected_bit,
            self.margin_ps,
        );
        (spec, pair)
    }
}

/// The v1 validator behind both parsers: runs every check of the v1 text
/// on borrowed slices, building nothing, and hands each pair line to
/// `visit` in order (`None` for an excluded pair). Returns the
/// enrollment's operating point.
fn scan<'a>(
    text: &'a str,
    mut visit: impl FnMut(Option<PairLine<'a>>),
) -> Result<Environment, ParseEnrollmentError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER_V1 => {}
        _ => return Err(err(1, format!("expected header {HEADER_V1:?}"))),
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

    /// `payload` behind the envelope header of `version`.
    fn framed(version: u16, payload: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (e, _, _) = sample(0.0);
        let text = enrollment_to_text(&e);
        assert!(text.starts_with(HEADER));
        // The floorplan is stated once, as its generator; pair lines
        // carry no units.
        assert_eq!(
            text.lines().nth(2),
            Some("floorplan,tiled_interleaved,60,5")
        );
        assert!(!text.contains(';'));
        let back = enrollment_from_text(&text).unwrap();
        assert_eq!(e, back);
        assert_eq!(enrollment_to_text(&back), text);
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
        for back in [
            enrollment_from_text(&enrollment_to_text(&e)).unwrap(),
            enrollment_from_text(&oracle_to_text(&e)).unwrap(),
        ] {
            let probe = DelayProbe::noiseless();
            let mut r1 = StdRng::seed_from_u64(9);
            let mut r2 = StdRng::seed_from_u64(9);
            let a = e.respond(&mut r1, &board, &tech, Environment::nominal(), &probe);
            let b = back.respond(&mut r2, &board, &tech, Environment::nominal(), &probe);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn a_listed_floorplan_writes_its_units_on_the_pair_lines() {
        let specs = vec![
            PairSpec::try_new(vec![7, 3], vec![1000, 2]).unwrap(),
            PairSpec::split_at(20, 2),
        ];
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(5);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), 1001, 10);
        let e = ConfigurableRoPuf::new(specs).enroll(
            &mut rng,
            &board,
            sim.technology(),
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        let text = enrollment_to_text(&e);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[2], "floorplan,listed");
        assert!(lines[3].starts_with("pair,0,7;3,1000;2,"), "{}", lines[3]);
        assert!(lines[4].starts_with("pair,1,20;21,22;23,"), "{}", lines[4]);
        assert_eq!(enrollment_from_text(&text).unwrap(), e);
    }

    #[test]
    fn v2_is_at_most_half_the_bytes_of_v1() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(7);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), 480, 16);
        let e = ConfigurableRoPuf::tiled_interleaved(480, 7).enroll_seeded(
            7,
            &board,
            sim.technology(),
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        let v2 = enrollment_to_bytes(&e).len();
        let v1 = framed(FORMAT_V1, oracle_to_text(&e).as_bytes()).len();
        assert!(2 * v2 <= v1, "v2 {v2} bytes against v1 {v1}");
    }

    #[test]
    fn rejects_bad_header() {
        let e = enrollment_from_text("nope\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn rejects_missing_env() {
        for header in [HEADER, HEADER_V1] {
            let e = enrollment_from_text(header).unwrap_err();
            assert!(e.message.contains("env"), "{header}: {e}");
        }
        let e = enrollment_from_text(&format!("{HEADER}\nenv,1.2,25\n")).unwrap_err();
        assert!(e.message.contains("floorplan"), "{e}");
    }

    /// The same defect in a v1 line, a listed v2 line and a generated v2
    /// line fails with the same message.
    fn rejects_in_every_form(v1: &str, listed: &str, generated: &str, message: &str) {
        for text in [
            format!("{HEADER_V1}\nenv,1.2,25\n{v1}\n"),
            format!("{HEADER}\nenv,1.2,25\nfloorplan,listed\n{listed}\n"),
            format!("{HEADER}\nenv,1.2,25\nfloorplan,tiled,4,2\n{generated}\n"),
        ] {
            let e = enrollment_from_text(&text).unwrap_err();
            assert!(e.message.contains(message), "{text:?}: {e}");
        }
    }

    #[test]
    fn rejects_out_of_order_pairs() {
        rejects_in_every_form(
            "pair,1,excluded",
            "pair,1,excluded",
            "pair,1,excluded",
            "out of order",
        );
    }

    #[test]
    fn rejects_config_length_mismatch() {
        rejects_in_every_form(
            "pair,0,0;1,2;3,101,10,1,5.0",
            "pair,0,0;1,2;3,101,10,1,5.0",
            "pair,0,101,10,1,5.0",
            "length",
        );
    }

    #[test]
    fn rejects_bad_bit_and_margin() {
        rejects_in_every_form(
            "pair,0,0;1,2;3,10,01,2,5.0",
            "pair,0,0;1,2;3,10,01,2,5.0",
            "pair,0,10,01,2,5.0",
            "0 or 1",
        );
        rejects_in_every_form(
            "pair,0,0;1,2;3,10,01,1,-2.0",
            "pair,0,0;1,2;3,10,01,1,-2.0",
            "pair,0,10,01,1,-2.0",
            "non-negative",
        );
    }

    #[test]
    fn rejects_unequal_rings_in_a_listed_floorplan() {
        let text = format!("{HEADER}\nenv,1.2,25\nfloorplan,listed\npair,0,0;1,2,10,01,1,5.0\n");
        let e = enrollment_from_text(&text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("equally sized"), "{e}");
    }

    #[test]
    fn generator_line_must_agree_with_the_pair_lines() {
        let pair = |i: usize| format!("pair,{i},10,01,1,5.0\n");
        let text = |floorplan: &str, pairs: usize| {
            let mut text = format!("{HEADER}\nenv,1.2,25\n{floorplan}\n");
            (0..pairs).for_each(|i| text.push_str(&pair(i)));
            text
        };
        // Four units lay out one 2-stage pair.
        assert_eq!(
            enrollment_from_text(&text("floorplan,tiled,4,2", 1))
                .unwrap()
                .bit_count(),
            1
        );
        for (floorplan, pairs, message) in [
            (
                "floorplan,tiled,8,2",
                1,
                "lays out 2 pairs but the envelope lists 1",
            ),
            ("floorplan,tiled,4,2", 2, "past the floorplan's 1 pairs"),
            ("floorplan,tiled,4,3", 1, "cannot host"),
            ("floorplan,tiled,4,0", 1, "cannot host"),
            ("floorplan,tiled,4,3", 0, "cannot host"),
            ("floorplan,tiled_interleaved,4,1", 1, "length"),
            (
                "floorplan,tiled_interleaved,18446744073709551615,2",
                1,
                "lays out",
            ),
            ("floorplan,tiled,4,9223372036854775808", 1, "cannot host"),
            (
                "floorplan,tiled,18446744073709551616,2",
                1,
                "units is malformed",
            ),
            ("floorplan,tiled,4", 1, "units is malformed"),
            ("floorplan,tiled,4,", 1, "stages is malformed"),
            ("floorplan,tiled,4,2,", 1, "stages is malformed"),
            ("floorplan,tiled", 1, "4 comma-separated fields"),
            ("floorplan,split,4,2", 1, "unknown floorplan generator"),
            ("floorplan,listed,4,2", 1, "unknown floorplan generator"),
            ("floorplan,tiled,4,2", 0, "no pairs"),
        ] {
            let text = text(floorplan, pairs);
            let e = enrollment_from_text(&text).unwrap_err();
            assert!(e.message.contains(message), "{floorplan} + {pairs}: {e}");
            let bytes = framed(FORMAT_VERSION, text.as_bytes());
            assert_eq!(enrollment_from_bytes(&bytes), Err(Error::Parse(e.clone())));
            assert_eq!(expected_bits_from_bytes(&bytes), Err(Error::Parse(e)));
        }
    }

    #[test]
    fn a_huge_generator_of_excluded_pairs_lays_out_no_units() {
        // Nothing checks the stage count of a generator whose every
        // pair is excluded; decoding still builds no units for them.
        let text = format!(
            "{HEADER}\nenv,1.2,25\nfloorplan,tiled,18446744073709551615,6148914691236517205\n\
             pair,0,excluded\n"
        );
        let e = enrollment_from_text(&text).unwrap();
        assert_eq!((e.pairs().len(), e.bit_count()), (1, 0));
        assert_eq!(enrollment_to_text(&e), text);
    }

    /// A v1 envelope never recorded the units of excluded pairs, so its
    /// enrollment knows its enrolled pairs' units only. That is enough:
    /// re-enrolling takes the floorplan the device was provisioned on,
    /// so a device resumed from the decoded v1 envelope re-enrolls
    /// exactly as one resumed from the enrollment itself. The fixture is
    /// the re-enrollment drill's: 240 units on 12 columns, 4-stage
    /// interleaved pairs, a 5 ps threshold, ten years of aging.
    #[test]
    fn a_decoded_v1_enrollment_reenrolls_over_its_provisioning_floorplan() {
        use crate::lifecycle::Device;
        use crate::robust::FaultPlan;
        let sim = SiliconSim::default_spartan();
        let tech = *sim.technology();
        let env = Environment::nominal();
        let plan = FaultPlan::scaled(0.0);
        let opts = EnrollOptions {
            threshold_ps: 5.0,
            ..EnrollOptions::default()
        };
        let aging = ropuf_silicon::aging::AgingModel {
            sigma_drift_rel: 0.02,
            sigma_path_rel: 0.01,
            ..ropuf_silicon::aging::AgingModel::default()
        };
        let puf = ConfigurableRoPuf::tiled_interleaved(240, 4);
        let mut accepted = 0;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let board = sim.grow_board_with_id(&mut rng, BoardId(seed as u32), 240, 12);
            let old = puf.enroll_seeded(seed, &board, &tech, env, &opts);
            assert!(old.pairs().iter().any(Option::is_none), "seed {seed}");
            let decoded = enrollment_from_text(&oracle_to_text(&old)).unwrap();
            assert_eq!(decoded, old);
            let aged = aging.age_board(&mut rng, &board, 10.0);
            let resume = |e: &Enrollment| Device::resume(&aged, &tech, env, opts, e.clone());
            let (device, outcome) = resume(&decoded).unwrap().reenroll(&puf, seed + 100, &plan);
            let (want_device, want) = resume(&old).unwrap().reenroll(&puf, seed + 100, &plan);
            assert_eq!(outcome, want, "seed {seed}");
            assert_eq!(device.enrollment(), want_device.enrollment(), "seed {seed}");
            accepted += usize::from(want.accepted().is_some());
        }
        assert!(accepted > 0, "ten years of aging drift some device");
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
    fn v1_envelopes_still_decode() {
        let (all, _, _) = sample(0.0);
        let mut margins = all.margins_ps();
        margins.sort_by(f64::total_cmp);
        for e in [all.clone(), sample(margins[margins.len() / 2] + 1e-9).0] {
            let bytes = framed(FORMAT_V1, oracle_to_text(&e).as_bytes());
            assert_eq!(enrollment_from_bytes(&bytes).unwrap(), e);
            assert_eq!(expected_bits_from_bytes(&bytes).unwrap(), e.expected_bits());
        }
    }

    #[test]
    fn envelope_rejects_bytes_from_other_versions() {
        let (e, _, _) = sample(0.0);
        let mut bytes = enrollment_to_bytes(&e);
        // A future (or ancient) writer: same magic, different version.
        for version in [7, 3, 0] {
            bytes[4..6].copy_from_slice(&u16::to_le_bytes(version));
            match enrollment_from_bytes(&bytes).unwrap_err() {
                Error::UnsupportedVersion { found, supported } => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
        // A v2 payload behind a v1 version field is read as v1, and
        // fails on its header.
        bytes[4..6].copy_from_slice(&FORMAT_V1.to_le_bytes());
        let Err(Error::Parse(e)) = enrollment_from_bytes(&bytes) else {
            panic!("a v2 payload is not v1");
        };
        assert!(e.message.contains(HEADER_V1), "{e}");
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
        for version in [FORMAT_V1, FORMAT_VERSION] {
            let garbled = framed(version, b"\xff\xfe not text");
            assert!(matches!(
                enrollment_from_bytes(&garbled),
                Err(Error::Parse(_))
            ));
        }
        // Cut at a line end: the generator line still counts the pairs.
        let cut = bytes.len()
            - 1
            - bytes[..bytes.len() - 1]
                .iter()
                .rev()
                .position(|&b| b == b'\n')
                .unwrap();
        let Err(Error::Parse(e)) = enrollment_from_bytes(&bytes[..cut]) else {
            panic!("a generated envelope missing its last pair decodes");
        };
        assert!(e.message.contains("lays out"), "{e}");
    }

    #[test]
    fn rejects_empty_enrollment() {
        for text in [
            format!("{HEADER_V1}\nenv,1.2,25\n"),
            format!("{HEADER}\nenv,1.2,25\nfloorplan,listed\n"),
        ] {
            assert!(enrollment_from_text(&text)
                .unwrap_err()
                .message
                .contains("no pairs"));
        }
    }

    #[test]
    fn empty_configuration_is_a_typed_error() {
        for (version, text) in [
            (
                FORMAT_V1,
                format!("{HEADER_V1}\nenv,1.2,25\npair,0,1,2,,,0,1.0\n"),
            ),
            (
                FORMAT_VERSION,
                format!("{HEADER}\nenv,1.2,25\nfloorplan,listed\npair,0,1,2,,,0,1.0\n"),
            ),
            (
                FORMAT_VERSION,
                format!("{HEADER}\nenv,1.2,25\nfloorplan,tiled,2,1\npair,0,,,0,1.0\n"),
            ),
        ] {
            let e = enrollment_from_text(&text).unwrap_err();
            assert_eq!(e.line, text.lines().count());
            assert!(e.message.contains("configuration length"), "{e}");
            let bytes = framed(version, text.as_bytes());
            assert_eq!(enrollment_from_bytes(&bytes), Err(Error::Parse(e.clone())));
            assert_eq!(expected_bits_from_bytes(&bytes), Err(Error::Parse(e)));
        }
        // One empty side is rejected the same way.
        for text in [
            format!("{HEADER_V1}\nenv,1.2,25\npair,0,1,2,1,,0,1.0\n"),
            format!("{HEADER}\nenv,1.2,25\nfloorplan,listed\npair,0,1,2,1,,0,1.0\n"),
        ] {
            assert!(enrollment_from_text(&text)
                .unwrap_err()
                .message
                .contains("configuration length"));
        }
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

    /// The v1 text parser as it stood before the shared validator: the
    /// v1 reader must match it wherever it does not panic (it panics on
    /// an empty configuration field).
    fn oracle_from_text(text: &str) -> Result<Enrollment, ParseEnrollmentError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER_V1 => {}
            _ => return Err(err(1, format!("expected header {HEADER_V1:?}"))),
        }
        let (line_no, env_line) = lines.next().ok_or_else(|| err(2, "missing env line"))?;
        let env = oracle_env(env_line, line_no + 1)?;

        let mut pairs: Vec<Option<(PairSpec, EnrolledPair)>> = Vec::new();
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
            let pair =
                EnrolledPair::from_parts(pairs.len(), top_config, bottom_config, bit == 1, margin);
            pairs.push(Some((spec, pair)));
        }
        if pairs.is_empty() {
            return Err(err(1, "enrollment contains no pairs"));
        }
        Ok(Enrollment::listed(pairs, env))
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

    /// The v1 text writer, a `format!` per pair, as it stood before v2
    /// replaced it: what the stores and files written before v2 hold.
    fn oracle_to_text(enrollment: &Enrollment) -> String {
        let env = enrollment.enrolled_at();
        let mut out = format!("{HEADER_V1}\nenv,{},{}\n", env.voltage_v, env.temperature_c);
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
                        join(enrollment.spec(p).top()),
                        join(enrollment.spec(p).bottom()),
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

    /// An enrollment drawn from `seed` that no board needs to admit:
    /// 1–12 pairs, each excluded at even odds (so exclusions fall first,
    /// last and in runs), margins and operating points half from the
    /// edges above, half drawn at random. Half are generated, by either
    /// generator with 1–16 stages and up to `2·stages − 1` units left
    /// over; half are listed, with rings of 1–16 stages and unit indices
    /// half from the edges, half drawn at random.
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
        let count = rng.gen_range(1..=12);
        let layout = if rng.gen_bool(0.5) {
            let stages = rng.gen_range(1..=16);
            Layout::Generated {
                generator: [Generator::Tiled, Generator::TiledInterleaved][rng.gen_range(0..2)],
                units: count * 2 * stages + rng.gen_range(0..2 * stages),
                stages,
            }
        } else {
            Layout::Listed
        };
        let (specs, pairs) = (0..count)
            .map(|index| {
                if rng.gen_bool(0.5) {
                    return (None, None);
                }
                let spec = match layout {
                    Layout::Generated { .. } => layout.spec(index),
                    Layout::Listed => {
                        let stages = rng.gen_range(1..=16);
                        let top = (0..stages).map(|_| unit(&mut rng)).collect();
                        let bottom = (0..stages).map(|_| unit(&mut rng)).collect();
                        PairSpec::try_new(top, bottom).expect("equal, non-empty rings")
                    }
                };
                let mut config = || {
                    ConfigVector::from_flags(
                        &(0..spec.stages())
                            .map(|_| rng.gen_bool(0.5))
                            .collect::<Vec<_>>(),
                    )
                };
                let (top_config, bottom_config) = (config(), config());
                let margin_ps = if rng.gen_bool(0.5) {
                    EDGE_MARGINS[rng.gen_range(0..EDGE_MARGINS.len())]
                } else {
                    rng.gen::<f64>() * 10f64.powi(rng.gen_range(-12..24))
                };
                let pair = EnrolledPair::from_parts(
                    index,
                    top_config,
                    bottom_config,
                    rng.gen_bool(0.5),
                    margin_ps,
                );
                (Some(spec), Some(pair))
            })
            .unzip();
        let (voltage_v, temperature_c) = if rng.gen_bool(0.5) {
            EDGE_ENVS[rng.gen_range(0..EDGE_ENVS.len())]
        } else {
            (rng.gen_range(0.5..1.5), rng.gen_range(-60.0..130.0))
        };
        Enrollment::from_parts(
            Floorplan::recorded(layout, specs),
            pairs,
            Environment::new(voltage_v, temperature_c),
        )
    }

    /// The decoder contract on one input: both envelope decoders return
    /// (never panic) and agree on the bits or the error. A v1 payload
    /// decodes as the v1 oracle does wherever the oracle does not panic;
    /// a v2 payload decodes as its bare text does, and what it decodes
    /// to re-encodes to an envelope that decodes to it again.
    fn check_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
        let full = enrollment_from_bytes(bytes);
        let bits = expected_bits_from_bytes(bytes);
        match (&full, &bits) {
            (Ok(e), Ok(b)) => prop_assert_eq!(&e.expected_bits(), b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "decoders disagree: {full:?} vs {bits:?}"),
        }
        let text = bytes
            .strip_prefix(MAGIC)
            .and_then(|t| std::str::from_utf8(t.get(2..)?).ok());
        match (bytes.get(4..6), text) {
            (Some([1, 0]), Some(text)) => {
                if let Ok(reference) = std::panic::catch_unwind(|| oracle_from_text(text)) {
                    prop_assert_eq!(&full, &reference.map_err(Error::Parse));
                }
            }
            (Some([2, 0]), Some(text)) if matches!(payload_of_text(text), Payload::V2(_)) => {
                prop_assert_eq!(&full, &enrollment_from_text(text).map_err(Error::Parse));
            }
            _ => {}
        }
        if let Ok(e) = full {
            prop_assert_eq!(enrollment_from_bytes(&enrollment_to_bytes(&e)), Ok(e));
        }
        Ok(())
    }

    /// Real envelopes of six pairs: v2 with its generator line, v2
    /// with listed units, and v1.
    fn real_envelopes() -> &'static [Vec<u8>; 3] {
        static BYTES: std::sync::OnceLock<[Vec<u8>; 3]> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let e = sample(0.0).0;
            let v1 = oracle_to_text(&e);
            let listed = enrollment_from_text(&v1).expect("the v1 text decodes");
            [
                enrollment_to_bytes(&e),
                enrollment_to_bytes(&listed),
                framed(FORMAT_V1, v1.as_bytes()),
            ]
        })
    }

    /// Bytes a mutation writes: the format's separators and digits, a
    /// sign, whitespace, a non-binary letter and invalid UTF-8.
    const MUTANT_BYTES: [u8; 12] = [
        b',', b';', b'\n', b'\r', b' ', b'0', b'1', b'2', b'-', b'.', b'x', 0xff,
    ];

    #[test]
    fn every_single_byte_mutation_and_truncation_of_an_envelope_decodes_consistently() {
        for envelope in real_envelopes() {
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
    }

    /// Candidate values for each v1 pair-line field: mostly valid, plus
    /// the malformed shapes each check exists for.
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

    /// Builds a v1 text from per-line candidate choices; `arity` sets
    /// how many of the eight fields a line keeps (more than eight
    /// repeats the last).
    fn candidate_text(env: &str, lines: &[Vec<usize>]) -> String {
        let mut text = format!("{HEADER_V1}\n{env}\n");
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

    /// Fields `FromStr` reads (or refuses) in ways a plain decimal is
    /// not: a lone point on either side, signs, exponents, the words for
    /// infinity and NaN, whitespace, and fields no float reads.
    const ODD_MARGINS: [&[u8]; 30] = [
        b"5.",
        b".5",
        b".",
        b"-0",
        b"-0.0",
        b"+1",
        b"+0.5",
        b"-1",
        b"1e5",
        b"1E5",
        b"1e-5",
        b"2.5E+3",
        b"1e309",
        b"1e-400",
        b"-1e-400",
        b"e5",
        b"1e",
        b"inf",
        b"-inf",
        b"+infinity",
        b"Infinity",
        b"NaN",
        b"nan",
        b"",
        b",",
        b" 1",
        b"1 ",
        b"0x1",
        b"1_0",
        "\u{e9}".as_bytes(),
    ];

    /// A margin field drawn from `seed`: a plain decimal whose integer
    /// part has 1–400 digits (leading zeros, often near the 308/309
    /// edge) with or without a fraction, then in turn given a sign or an
    /// exponent, or one byte replaced or deleted; an [`ODD_MARGINS`]
    /// field; or `f64`'s `Display` of a finite value. Never holds `\n`.
    fn margin_field(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let digits = |rng: &mut StdRng, n: usize| -> Vec<u8> {
            (0..n).map(|_| b'0' + rng.gen_range(0..10u8)).collect()
        };
        match rng.gen_range(0..4) {
            0 | 1 => {
                let int = if rng.gen_bool(0.5) {
                    rng.gen_range(1..=400)
                } else {
                    rng.gen_range(PLAIN_DIGITS - 2..=PLAIN_DIGITS + 2)
                };
                let mut field = digits(&mut rng, int);
                if rng.gen_bool(0.5) {
                    field[0] = [b'0', b'1', b'9'][rng.gen_range(0..3)];
                }
                if rng.gen_bool(0.5) {
                    field.push(b'.');
                    let fraction = rng.gen_range(0..24);
                    field.extend(digits(&mut rng, fraction));
                }
                match rng.gen_range(0..5) {
                    0 => field.insert(0, [b'-', b'+'][rng.gen_range(0..2)]),
                    1 => {
                        field.push([b'e', b'E'][rng.gen_range(0..2)]);
                        field.extend_from_slice([&b""[..], b"-", b"+"][rng.gen_range(0..3)]);
                        let exponent = rng.gen_range(0..5);
                        field.extend(digits(&mut rng, exponent));
                    }
                    2 => {
                        let at = rng.gen_range(0..field.len());
                        field[at] = loop {
                            let byte = rng.gen::<u8>();
                            if byte != b'\n' {
                                break byte;
                            }
                        };
                    }
                    3 => {
                        field.remove(rng.gen_range(0..field.len()));
                    }
                    _ => {}
                }
                field
            }
            2 => ODD_MARGINS[rng.gen_range(0..ODD_MARGINS.len())].to_vec(),
            _ => {
                let margin = if rng.gen_bool(0.5) {
                    EDGE_MARGINS[rng.gen_range(0..EDGE_MARGINS.len())]
                } else {
                    rng.gen::<f64>() * 10f64.powi(rng.gen_range(-320..309))
                };
                margin.to_string().into_bytes()
            }
        }
    }

    /// `envelope` with the margin of its `pair`th enrolled pair line
    /// replaced by `field`. Returns the bytes, the line's 1-based number
    /// and the pair's index. With `cut`, the pair is the last and the
    /// envelope ends right after the field, without its `\n`.
    fn with_margin(
        envelope: &[u8],
        pair: usize,
        field: &[u8],
        cut: bool,
    ) -> (Vec<u8>, usize, usize) {
        let (header, payload) = envelope.split_at(MAGIC.len() + 2);
        let lines: Vec<&[u8]> = payload.split_inclusive(|&b| b == b'\n').collect();
        let enrolled: Vec<usize> = (3..lines.len())
            .filter(|&i| !lines[i].ends_with(b",excluded\n"))
            .collect();
        let at = if cut {
            lines.len() - 1
        } else {
            enrolled[pair % enrolled.len()]
        };
        let mut fields: Vec<&[u8]> = lines[at][..lines[at].len() - 1]
            .split(|&b| b == b',')
            .collect();
        let index = std::str::from_utf8(fields[1]).unwrap().parse().unwrap();
        *fields.last_mut().unwrap() = field;
        let mut bytes = header.to_vec();
        lines[..at]
            .iter()
            .for_each(|line| bytes.extend_from_slice(line));
        bytes.extend_from_slice(&fields.join(&b',')[..]);
        if !cut {
            bytes.push(b'\n');
            lines[at + 1..]
                .iter()
                .for_each(|line| bytes.extend_from_slice(line));
        }
        (bytes, at + 1, index)
    }

    proptest! {
        /// The margin check against its oracle, `f64`'s `FromStr`: an
        /// envelope whose one margin field is replaced decodes iff the
        /// field reads as a finite, non-negative `f64` and ends its line;
        /// it fails with the message and line the parsing reader gave;
        /// the decoded margin is `FromStr`'s value bit for bit. Generated
        /// and listed layouts alike.
        #[test]
        fn margin_check_matches_from_str(
            which in 0usize..2,
            pair in any::<usize>(),
            seed in any::<u64>(),
            cut in proptest::sample::select(vec![false, false, false, true]),
        ) {
            let field = margin_field(seed);
            let (bytes, line, index) = with_margin(&real_envelopes()[which], pair, &field, cut);
            let read = std::str::from_utf8(&field).ok().and_then(|f| f.parse::<f64>().ok());
            let want = match read {
                Some(m) if !cut && m.is_finite() && m >= 0.0 => Ok(m),
                Some(_) if !cut => Err(err(line, "margin must be finite and non-negative")),
                _ => Err(err(line, "field margin is malformed")),
            };
            let field = String::from_utf8_lossy(&field);
            let decoded = enrollment_from_bytes(&bytes);
            prop_assert_eq!(
                expected_bits_from_bytes(&bytes),
                decoded.as_ref().map(Enrollment::expected_bits).map_err(Clone::clone)
            );
            match (decoded, want) {
                (Ok(e), Ok(margin)) => {
                    let pair = e.pairs()[index].as_ref().expect("an enrolled pair");
                    prop_assert_eq!(pair.margin_ps().to_bits(), margin.to_bits(), "{:?}", field);
                }
                (got, want) => prop_assert_eq!(got.map(drop), want.map(drop).map_err(Error::Parse), "{:?}", field),
            }
        }

        #[test]
        fn decoders_agree_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            version in proptest::sample::select(vec![None, Some(FORMAT_V1), Some(FORMAT_VERSION)]),
        ) {
            let input = match version {
                Some(version) => framed(version, &bytes),
                None => bytes,
            };
            check_decoders(&input)?;
        }

        #[test]
        fn decoders_agree_on_mutated_envelopes(
            which in 0usize..3,
            at in any::<usize>(),
            byte in any::<u8>(),
            cut in any::<usize>(),
        ) {
            let envelope = &real_envelopes()[which];
            let mut mutated = envelope.to_vec();
            mutated[at % envelope.len()] = byte;
            check_decoders(&mutated)?;
            mutated.truncate(cut % (envelope.len() + 1));
            check_decoders(&mutated)?;
        }

        /// v2 round-trips every enrollment exactly, into one buffer of
        /// exactly its length, and the v1 text of an enrollment decodes
        /// to the same enrollment as its v2 re-encoding does.
        #[test]
        fn v2_round_trips_and_reads_v1_alike(seed in any::<u64>()) {
            let enrollment = arbitrary_enrollment(seed);
            let bytes = enrollment_to_bytes(&enrollment);
            prop_assert_eq!(&bytes[..4], MAGIC);
            prop_assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION);
            let text = enrollment_to_text(&enrollment);
            prop_assert_eq!(&bytes[6..], text.as_bytes());
            prop_assert_eq!(bytes.capacity(), bytes.len());
            let back = enrollment_from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &enrollment);
            prop_assert_eq!(enrollment_to_bytes(&back), bytes.clone());
            prop_assert_eq!(expected_bits_from_bytes(&bytes), Ok(enrollment.expected_bits()));

            let v1 = framed(FORMAT_V1, oracle_to_text(&enrollment).as_bytes());
            let from_v1 = enrollment_from_bytes(&v1).unwrap();
            prop_assert_eq!(&from_v1, &enrollment);
            let reencoded = enrollment_from_bytes(&enrollment_to_bytes(&from_v1)).unwrap();
            prop_assert_eq!(&reencoded, &from_v1);
            check_decoders(&bytes)?;
            check_decoders(&v1)?;
        }

        #[test]
        fn text_parser_matches_the_oracle_on_near_valid_lines(
            env in proptest::sample::select(vec![
                "env,1.2,25", "env,1.2,25", "env,0,25", "env,1.2", "env,1.2,25,x", "",
            ]),
            lines in proptest::collection::vec(proptest::collection::vec(0usize..6, 9), 0..5),
        ) {
            let text = candidate_text(env, &lines);
            check_decoders(&framed(FORMAT_V1, text.as_bytes()))?;
        }
    }
}
