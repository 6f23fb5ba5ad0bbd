//! Property tests of `ropuf_telemetry::json`: every input parses to a
//! value or a typed error and never panics, and every value the writer
//! writes parses back to itself.
//!
//! CI runs these in release at `PROPTEST_CASES=5000`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use proptest::{collection, sample};
use ropuf_telemetry::json::{self, Value};

/// Every committed JSON file: the bench records and the JSON goldens.
const COMMITTED: [(&str, &str); 7] = [
    (
        "BENCH_fleet.json",
        include_str!("../../../BENCH_fleet.json"),
    ),
    (
        "BENCH_serve.json",
        include_str!("../../../BENCH_serve.json"),
    ),
    (
        "attack.json",
        include_str!("../../../tests/golden/attack.json"),
    ),
    (
        "monitor.json",
        include_str!("../../../tests/golden/monitor.json"),
    ),
    (
        "monitor_security.json",
        include_str!("../../../tests/golden/monitor_security.json"),
    ),
    (
        "monitor_enrolled_baseline.json",
        include_str!("../../../tests/golden/monitor_enrolled_baseline.json"),
    ),
    (
        "fleet_boards64_record.json",
        include_str!("../../bench/tests/golden/fleet_boards64_record.json"),
    ),
];

/// Parses `text`; a failure must point inside the input. Returns the
/// value, if any.
fn parse_checked(text: &str) -> Result<Option<Value>, TestCaseError> {
    match json::parse(text) {
        Ok(value) => Ok(Some(value)),
        Err(e) => {
            prop_assert!(e.offset <= text.len(), "{e} past the end of {text:?}");
            Ok(None)
        }
    }
}

/// Integers across the whole `i64::MIN..=u64::MAX` range, extremes
/// included.
fn integer(rng: &mut TestRng) -> i128 {
    match rng.next_index(4) {
        0 => i128::from(rng.next_u64() as i64),
        1 => i128::from(rng.next_u64()),
        2 => [
            i128::from(i64::MIN),
            i128::from(i64::MAX),
            i128::from(u64::MAX),
            0,
            -1,
        ][rng.next_index(5)],
        _ => rng.next_index(200) as i128 - 100,
    }
}

/// Finite floats: any bit pattern, subnormals, extremes and round
/// numbers.
fn float(rng: &mut TestRng) -> f64 {
    let x = match rng.next_index(4) {
        0 => f64::from_bits(rng.next_u64()),
        1 => f64::from_bits(rng.next_u64() & ((1 << 52) - 1)),
        2 => [
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            -f64::MAX,
            0.0,
            -0.0,
            1e16,
            1e-7,
            0.1,
            3.0,
        ][rng.next_index(10)],
        _ => (rng.next_unit_f64() - 0.5) * 1e6,
    };
    if x.is_finite() {
        x
    } else {
        0.5
    }
}

/// Strings mixing plain text, characters JSON must escape, and
/// characters outside the Basic Multilingual Plane.
fn string(rng: &mut TestRng) -> String {
    const SPECIAL: [char; 12] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '\u{2028}', '😀',
    ];
    (0..rng.next_index(12))
        .map(|_| match rng.next_index(3) {
            0 => char::from(b' ' + rng.next_index(95) as u8),
            1 => SPECIAL[rng.next_index(SPECIAL.len())],
            _ => char::from_u32(rng.next_u64() as u32 % 0x11_0000).unwrap_or('x'),
        })
        .collect()
}

fn value(rng: &mut TestRng, depth: usize) -> Value {
    match rng.next_index(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::Int(integer(rng)),
        3 => Value::Float(float(rng)),
        4 => Value::from(string(rng)),
        5 => Value::Array(
            (0..rng.next_index(5))
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut members: Vec<(String, Value)> = Vec::new();
            for _ in 0..rng.next_index(5) {
                let key = string(rng);
                if members.iter().all(|(k, _)| *k != key) {
                    members.push((key, value(rng, depth - 1)));
                }
            }
            Value::object(members)
        }
    }
}

/// Generated values up to four containers deep, empty ones included.
struct Values;

impl Strategy for Values {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        value(rng, 4)
    }
}

/// Strings whose every character is written as a `\u` escape, with
/// surrogate pairs for characters beyond U+FFFF.
fn escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{unit:04X}"));
        }
    }
    out.push('"');
    out
}

struct Strings;

impl Strategy for Strings {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        string(rng)
    }
}

const TOKENS: [&str; 26] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\n",
    "\"a\"",
    "\"b\"",
    "\"\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud83d\"",
    "\"\\x\"",
    "\"a",
    "1",
    "-0.5e3",
    "01",
    "1e999",
    "-",
    "NaN",
    "true",
    "nul",
    "null",
    "\u{1}",
    "é",
];

proptest! {
    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in collection::vec(any::<u8>(), 0..64)) {
        parse_checked(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_parses_or_fails_typed_and_values_write_back(
        tokens in collection::vec(sample::select(TOKENS.to_vec()), 0..24)
    ) {
        let text = tokens.concat();
        if let Some(value) = parse_checked(&text)? {
            prop_assert_eq!(json::parse(&value.to_line()), Ok(value));
        }
    }

    #[test]
    fn committed_files_survive_single_byte_mutations(
        file in 0..COMMITTED.len(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (name, text) = COMMITTED[file];
        let mut bytes = text.as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        let mutated = String::from_utf8_lossy(&bytes);
        let parsed = parse_checked(&mutated)?;
        prop_assert!(
            parsed.is_some() || bytes[at] != text.as_bytes()[at],
            "{name}: the unmutated file parses"
        );
    }

    #[test]
    fn written_values_parse_back_to_themselves(v in Values) {
        prop_assert_eq!(json::parse(&v.to_document()), Ok(v.clone()));
        let line = v.to_line();
        prop_assert!(!line.contains('\n'), "a record is one line: {line:?}");
        prop_assert_eq!(json::parse(&line), Ok(v));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_decode(s in Strings) {
        prop_assert_eq!(json::parse(&escaped(&s)), Ok(Value::from(s)));
    }
}

#[test]
fn committed_files_parse_and_every_truncation_is_an_error() {
    for (name, text) in COMMITTED {
        let value = json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            json::parse(&value.to_document()).as_ref(),
            Ok(&value),
            "{name} writes back"
        );
        let complete = text.trim_end().len();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            let result = json::parse(&text[..cut]);
            if cut < complete {
                let err = result.expect_err(name);
                assert!(err.offset <= cut, "{name} cut at {cut}: {err}");
            } else {
                assert_eq!(result.as_ref(), Ok(&value), "{name} cut at {cut}");
            }
        }
    }
}
