//! Property-based round-trip tests for `urcl-json`, driven by the
//! workspace's own deterministic xoshiro RNG (no external property-test
//! crate, fixed seeds — failures reproduce exactly).
//!
//! The property under test is the one checkpointing depends on:
//! `parse(print(v)) == v` for every value the workspace can produce,
//! including adversarial strings (quotes, escapes, control characters,
//! astral-plane unicode) and extreme floats (negative zero, subnormals,
//! `f32::MAX`, values needing all 9 significant digits).

use urcl_json::{f32_array, Value};
use urcl_tensor::Rng;

/// Draws a finite f64 from random bits (rejection-samples NaN/Inf).
fn random_finite_f64(rng: &mut Rng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

/// Draws a string over an alphabet chosen to stress the writer and
/// parser: every escape class, multi-byte UTF-8 and surrogate-pair
/// territory.
fn random_string(rng: &mut Rng) -> String {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{08}',
        '\u{0c}',
        '\u{01}',
        '\u{1f}',
        'é',
        'π',
        '∀',
        '中',
        '🦀',
        '𝕊',
        '\u{10FFFF}',
    ];
    let len = (rng.next_u64() % 12) as usize;
    (0..len)
        .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
        .collect()
}

/// Builds a random JSON tree, depth-bounded so arrays/objects terminate.
fn random_value(rng: &mut Rng, depth: usize) -> Value {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.next_u64() % kinds {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() % 2 == 0),
        2 => Value::Num(random_finite_f64(rng)),
        3 => Value::Str(random_string(rng)),
        4 => {
            let n = (rng.next_u64() % 5) as usize;
            Value::Array((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = (rng.next_u64() % 5) as usize;
            let mut obj = Value::object();
            for i in 0..n {
                // Unique suffix: duplicate keys would collapse in set().
                let key = format!("{}-{i}", random_string(rng));
                obj.set(&key, random_value(rng, depth - 1));
            }
            obj
        }
    }
}

/// Structural equality with *bitwise* number comparison — `PartialEq` on
/// f64 treats -0.0 == 0.0 and would mask sign-bit loss.
fn assert_bitwise_equal(a: &Value, b: &Value, path: &str) {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{path}: {x} vs {y}");
        }
        (Value::Array(xs), Value::Array(ys)) => {
            assert_eq!(xs.len(), ys.len(), "{path}: array length");
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_bitwise_equal(x, y, &format!("{path}[{i}]"));
            }
        }
        (Value::Object(xs), Value::Object(ys)) => {
            assert_eq!(xs.len(), ys.len(), "{path}: object size");
            for ((ka, va), (kb, vb)) in xs.iter().zip(ys) {
                assert_eq!(ka, kb, "{path}: key order");
                assert_bitwise_equal(va, vb, &format!("{path}.{ka}"));
            }
        }
        _ => assert_eq!(a, b, "{path}"),
    }
}

#[test]
fn random_value_trees_roundtrip_compact_and_pretty() {
    let mut rng = Rng::seed_from_u64(0x5EED_1);
    for case in 0..300 {
        let v = random_value(&mut rng, 3);
        for (style, text) in [
            ("compact", v.to_string_compact()),
            ("pretty", v.to_string_pretty()),
        ] {
            let back = Value::parse(&text)
                .unwrap_or_else(|e| panic!("case {case} ({style}): {e}\n{text}"));
            assert_bitwise_equal(&v, &back, &format!("case {case} ({style})"));
        }
    }
}

#[test]
fn random_strings_with_escapes_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x5EED_2);
    for _ in 0..500 {
        let s = random_string(&mut rng);
        let v = Value::Str(s.clone());
        let back = Value::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_str(), Some(s.as_str()));
    }
}

#[test]
fn random_f64_numbers_roundtrip_bitwise() {
    let mut rng = Rng::seed_from_u64(0x5EED_3);
    for _ in 0..2000 {
        let x = random_finite_f64(&mut rng);
        let text = Value::Num(x).to_string_compact();
        let back = Value::parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(x.to_bits(), back.to_bits(), "{x} printed as {text}");
    }
}

/// The checkpoint payload path: f32 values widen to f64 for JSON, print,
/// parse and narrow back — this must be the identity for every finite f32
/// bit pattern class, sign bit included.
#[test]
fn extreme_f32_values_roundtrip_exactly() {
    let mut specials = vec![
        0.0_f32,
        -0.0,
        f32::from_bits(1), // smallest positive subnormal
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff), // largest subnormal
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        1.0 / 3.0, // needs all 9 significant digits
        1e-38,
        3.402_823e38,
        1.5,
        -2.5e-12,
    ];
    // Plus a fuzz sweep over random bit patterns.
    let mut rng = Rng::seed_from_u64(0x5EED_4);
    while specials.len() < 1000 {
        let v = f32::from_bits(rng.next_u64() as u32);
        if v.is_finite() {
            specials.push(v);
        }
    }

    let text = f32_array(&specials).to_string_compact();
    let parsed = Value::parse(&text).unwrap();
    let back = parsed.as_array().unwrap();
    assert_eq!(back.len(), specials.len());
    for (i, (orig, v)) in specials.iter().zip(back).enumerate() {
        let narrowed = v.as_f64().unwrap() as f32;
        assert_eq!(
            orig.to_bits(),
            narrowed.to_bits(),
            "element {i}: {orig:?} came back as {narrowed:?}"
        );
    }
}
