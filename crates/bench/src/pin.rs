//! The measured-bench contract behind `serve_bench` and `bench_infer`.
//!
//! A measured bench times real code on this machine and pins the rates
//! in a JSON document at the repository root (`BENCH_*.json`), each
//! beside a floor. A [`Bench`] names its pin file, its schema (where a
//! field `floor_<rate>` is the floor of field `<rate>`), a `measure`
//! function and its own rules; this module owns everything else, and
//! [`main`] gives every bench the same modes:
//!
//! * no arguments, or `--out <path>`: measure the full scale and write
//!   the pin file. Floors the file already pins are kept, so a rerun on
//!   a faster machine cannot silently raise the bar; a rate without one
//!   starts at a quarter of its measured value, so machine variance
//!   cannot flake CI.
//! * `--smoke`: measure the smoke scale and print it; nothing is written.
//! * `--check <path>`: validate the pinned document, measure the smoke
//!   scale, and fail if any rate falls below 0.7 × its pinned floor. The
//!   smoke scale is the smaller one, hence never slower, so full-scale
//!   floors are a valid lower bar.
//!
//! Every document must carry each schema field with its JSON type, and
//! each floor must be positive and no higher than its pinned rate. Any
//! other argument list exits 2. These exit 1 before anything is
//! measured: an existing pin file that cannot be read or is not a JSON
//! object, and under `--check` a missing pin or one that breaks a rule.
//! A measured document that breaks a rule is never written.

use serde_json::{Number, Value};
use std::cmp::Ordering;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Share of its pinned floor a smoke rate must reach under `--check`.
const CHECK_FRACTION: f64 = 0.7;

/// The two sizes a bench measures at: `Full`, the pinned size a full
/// run measures and writes, and `Smoke`, the reduced size `--smoke` and
/// `--check` run, fast enough for CI. Its labels name the scale in the
/// pinned documents.
pub use cllm_core::experiments::serve_scale::Scale;

/// One measured bench: what differs between benches.
pub struct Bench {
    /// File name of the pin at the repository root, the default `--out`.
    pub file: &'static str,
    /// Every field a pinned document carries, with its JSON type
    /// (`true` = number, `false` = string). Each field `floor_<rate>`
    /// is the floor of field `<rate>`.
    pub schema: &'static [(&'static str, bool)],
    /// Run the bench at a scale, print its rates, and render the
    /// document with every floor field present.
    pub measure: fn(Scale) -> Value,
    /// The bench's own rules, applied after the schema and floor rules.
    pub rules: fn(&Value) -> Result<(), String>,
}

/// Why a bench mode failed.
#[derive(Debug)]
enum PinError {
    /// A pin file could not be read or written.
    Io(PathBuf, std::io::Error),
    /// A pin file does not hold a JSON object.
    Parse(PathBuf, String),
    /// A document read from or bound for this path breaks a rule.
    Invalid(PathBuf, String),
    /// This many smoke rates fell below 0.7 × their pinned floors.
    Regressed(usize),
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::Io(path, e) => write!(f, "cannot access {}: {e}", path.display()),
            PinError::Parse(path, e) => write!(f, "{} is not a JSON object: {e}", path.display()),
            PinError::Invalid(path, e) => write!(f, "invalid document for {}: {e}", path.display()),
            PinError::Regressed(n) => write!(
                f,
                "check failed: {n} smoke rate(s) regressed >30% below the pinned floor"
            ),
        }
    }
}

/// A JSON unsigned integer.
#[must_use]
pub fn int(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// A JSON float.
#[must_use]
pub fn float(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// Numeric field `key` of `doc`, or NaN when it is absent or not a number.
#[must_use]
pub fn field_f64(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Replace field `key` of an object document, or append it.
///
/// # Panics
///
/// If `doc` is not an object.
pub fn set(doc: &mut Value, key: &str, value: Value) {
    let Value::Object(fields) = doc else {
        panic!("document is not an object");
    };
    if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
        slot.1 = value;
    } else {
        fields.push((key.to_string(), value));
    }
}

/// Read the document pinned at `path`.
fn read(path: &Path) -> Result<Value, PinError> {
    let text = std::fs::read_to_string(path).map_err(|e| PinError::Io(path.into(), e))?;
    match serde_json::from_str(&text) {
        Ok(doc @ Value::Object(_)) => Ok(doc),
        Ok(_) => Err(PinError::Parse(
            path.into(),
            "top level is not an object".into(),
        )),
        Err(e) => Err(PinError::Parse(path.into(), e.to_string())),
    }
}

impl Bench {
    /// The (rate, floor) field pairs the floor rules and `--check`
    /// guard: one for each schema field named `floor_<rate>`.
    pub fn floors(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        let schema = self.schema;
        schema
            .iter()
            .filter_map(|&(key, _)| Some((key.strip_prefix("floor_")?, key)))
    }

    /// Check `doc` against the schema, the floor rules and the bench's
    /// own rules.
    ///
    /// # Errors
    ///
    /// The first rule `doc` breaks.
    pub fn validate(&self, doc: &Value) -> Result<(), String> {
        if !matches!(doc, Value::Object(_)) {
            return Err("document is not a JSON object".into());
        }
        for &(key, numeric) in self.schema {
            let v = doc
                .get(key)
                .ok_or_else(|| format!("missing field `{key}`"))?;
            let ok = if numeric {
                matches!(v, Value::Number(_))
            } else {
                matches!(v, Value::String(_))
            };
            if !ok {
                let want = if numeric { "number" } else { "string" };
                return Err(format!("field `{key}` must be a {want}"));
            }
        }
        for (rate, floor_key) in self.floors() {
            let floor = field_f64(doc, floor_key);
            if floor.partial_cmp(&0.0) != Some(Ordering::Greater) {
                return Err(format!("{floor_key} must be positive"));
            }
            // A missing rate reads as NaN and compares as neither.
            if !matches!(
                field_f64(doc, rate).partial_cmp(&floor),
                Some(Ordering::Greater | Ordering::Equal)
            ) {
                return Err(format!("pinned {rate} is missing or below its own floor"));
            }
        }
        (self.rules)(doc)
    }

    /// Measure the full scale and write the document to `out`, keeping
    /// every positive floor `out` already pins and starting each other
    /// floor at a quarter of its measured rate.
    ///
    /// # Errors
    ///
    /// An existing `out` that cannot be read or is not a JSON object
    /// (found before anything is measured), a measured document that
    /// breaks a rule (`out` is left as it was), or a failed write.
    fn pin(&self, out: &Path) -> Result<(), PinError> {
        let pinned = match read(out) {
            Ok(doc) => Some(doc),
            Err(PinError::Io(_, e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let mut doc = (self.measure)(Scale::Full);
        for (rate, floor_key) in self.floors() {
            let kept = pinned
                .as_ref()
                .map(|p| field_f64(p, floor_key))
                .filter(|floor| *floor > 0.0);
            let floor = kept.unwrap_or(field_f64(&doc, rate) / 4.0);
            let origin = if kept.is_some() { "kept" } else { "new" };
            println!("{floor_key}: {floor:.0} ({origin})");
            set(&mut doc, floor_key, float(floor));
        }
        self.validate(&doc)
            .map_err(|e| PinError::Invalid(out.into(), e))?;
        let text = serde_json::to_string_pretty(&doc).expect("a JSON value always serializes");
        std::fs::write(out, text + "\n").map_err(|e| PinError::Io(out.into(), e))?;
        println!("wrote {}", out.display());
        Ok(())
    }

    /// Validate the document pinned at `path`, then measure the smoke
    /// scale and require each rate to reach 0.7 × its pinned floor.
    ///
    /// # Errors
    ///
    /// A pin that cannot be read, is not a JSON object or breaks a rule
    /// (found before anything is measured), or any regressed rate.
    fn check(&self, path: &Path) -> Result<(), PinError> {
        let doc = read(path)?;
        self.validate(&doc)
            .map_err(|e| PinError::Invalid(path.into(), e))?;
        let smoke = (self.measure)(Scale::Smoke);
        let mut regressed = 0;
        for (rate_key, floor_key) in self.floors() {
            let (rate, floor) = (field_f64(&smoke, rate_key), field_f64(&doc, floor_key));
            if rate >= CHECK_FRACTION * floor {
                println!(
                    "check ok: smoke {rate_key} {rate:.0} >= {CHECK_FRACTION} x floor {floor:.0}"
                );
            } else {
                regressed += 1;
                eprintln!("check failed: smoke {rate_key} {rate:.0} < {CHECK_FRACTION} x floor {floor:.0}");
            }
        }
        match regressed {
            0 => Ok(()),
            n => Err(PinError::Regressed(n)),
        }
    }
}

/// Run `bench` in the one mode its command line names (see the module
/// docs): exit 0 on success, 1 when a pin file or a rate fails, 2 on a
/// usage error.
pub fn main(bench: &Bench) -> ExitCode {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(bench.file);
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => bench.pin(&default_out),
        ["--out", path] => bench.pin(Path::new(path)),
        ["--smoke"] => {
            (bench.measure)(Scale::Smoke);
            Ok(())
        }
        ["--check", path] => bench.check(Path::new(path)),
        _ => {
            eprintln!("unrecognized arguments {args:?}");
            eprintln!("usage: {bin} [--out <path> | --smoke | --check <path>]");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_measure(scale: Scale) -> Value {
        Value::Object(vec![
            ("scale".into(), Value::String(scale.label().into())),
            ("a_per_s".into(), float(100.0)),
            ("floor_a_per_s".into(), float(0.0)),
            ("b_per_s".into(), float(200.0)),
            ("floor_b_per_s".into(), float(0.0)),
        ])
    }

    fn no_rules(_: &Value) -> Result<(), String> {
        Ok(())
    }

    const FAKE: Bench = Bench {
        file: "BENCH_fake.json",
        schema: &[
            ("scale", false),
            ("a_per_s", true),
            ("floor_a_per_s", true),
            ("b_per_s", true),
            ("floor_b_per_s", true),
        ],
        measure: fake_measure,
        rules: no_rules,
    };

    fn with_floors(a: f64, b: f64) -> Value {
        let mut doc = fake_measure(Scale::Full);
        set(&mut doc, "floor_a_per_s", float(a));
        set(&mut doc, "floor_b_per_s", float(b));
        doc
    }

    fn sample() -> Value {
        with_floors(25.0, 50.0)
    }

    fn invalid_because(doc: &Value) -> String {
        FAKE.validate(doc).expect_err("document must be rejected")
    }

    /// A path no other test (or concurrent test run) uses.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cllm-pin-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn sample_document_is_valid() {
        FAKE.validate(&sample()).expect("sample must validate");
    }

    #[test]
    fn missing_field_is_rejected() {
        let Value::Object(mut fields) = sample() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "b_per_s");
        let err = invalid_because(&Value::Object(fields));
        assert!(err.contains("missing field `b_per_s`"), "{err}");
    }

    #[test]
    fn wrong_type_is_rejected() {
        let mut doc = sample();
        set(&mut doc, "a_per_s", Value::String("fast".into()));
        assert!(invalid_because(&doc).contains("`a_per_s` must be a number"));
        let mut doc = sample();
        set(&mut doc, "scale", float(1.0));
        assert!(invalid_because(&doc).contains("`scale` must be a string"));
    }

    #[test]
    fn non_object_is_rejected() {
        let err = invalid_because(&Value::Array(vec![sample()]));
        assert!(err.contains("not a JSON object"), "{err}");
    }

    #[test]
    fn zero_floor_is_rejected() {
        let mut doc = sample();
        set(&mut doc, "floor_b_per_s", float(0.0));
        assert!(invalid_because(&doc).contains("floor_b_per_s must be positive"));
    }

    #[test]
    fn rate_below_its_floor_is_rejected() {
        let mut doc = sample();
        set(&mut doc, "floor_a_per_s", float(1e9));
        assert!(invalid_because(&doc).contains("pinned a_per_s is missing or below"));
    }

    #[test]
    fn each_floor_field_guards_the_rate_it_names() {
        let pairs: Vec<_> = FAKE.floors().collect();
        assert_eq!(
            pairs,
            [("a_per_s", "floor_a_per_s"), ("b_per_s", "floor_b_per_s")]
        );
        // A floor whose rate the schema forgot still guards that rate.
        let orphan = Bench {
            schema: &[("floor_c_per_s", true)],
            ..FAKE
        };
        let doc = Value::Object(vec![("floor_c_per_s".into(), float(1.0))]);
        let err = orphan.validate(&doc).expect_err("rate c_per_s is missing");
        assert!(err.contains("pinned c_per_s is missing"), "{err}");
    }

    #[test]
    fn round_trip_through_text_stays_valid() {
        let pretty = serde_json::to_string_pretty(sample()).expect("serializes");
        let back: Value = serde_json::from_str(&pretty).expect("parses");
        FAKE.validate(&back)
            .expect("round-tripped document must validate");
    }

    #[test]
    fn full_run_keeps_pinned_floors_and_starts_new_ones_at_a_quarter() {
        let path = scratch("floors");
        // A first run pins a quarter of each measured rate.
        FAKE.pin(&path).expect("first run pins");
        let first = read(&path).expect("pin file written");
        assert_eq!(first, with_floors(25.0, 50.0));
        // A pinned floor survives a rerun; a missing one starts afresh.
        let mut edited = first;
        set(&mut edited, "floor_a_per_s", float(60.0));
        let Value::Object(fields) = &mut edited else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "floor_b_per_s");
        let text = serde_json::to_string_pretty(&edited).expect("serializes");
        std::fs::write(&path, text).expect("scratch file writable");
        FAKE.pin(&path).expect("rerun pins");
        let second = read(&path).expect("pin file rewritten");
        std::fs::remove_file(&path).expect("scratch file removable");
        assert_eq!(second, with_floors(60.0, 50.0));
    }

    #[test]
    fn check_compares_smoke_rates_with_pinned_floors() {
        let path = scratch("check");
        let write = |doc: &Value| {
            let text = serde_json::to_string_pretty(doc).expect("serializes");
            std::fs::write(&path, text).expect("scratch file writable");
        };
        // The fake measures 100 and 200 at every scale: floors pinned at
        // those rates leave 30% headroom, a floor of 300 (bar 210) does not.
        write(&with_floors(100.0, 200.0));
        FAKE.check(&path).expect("rates above 0.7 x floor pass");
        let mut doc = with_floors(100.0, 300.0);
        set(&mut doc, "b_per_s", float(400.0));
        write(&doc);
        let err = FAKE.check(&path).expect_err("b regressed");
        std::fs::remove_file(&path).expect("scratch file removable");
        assert!(matches!(err, PinError::Regressed(1)), "{err}");
    }
}
