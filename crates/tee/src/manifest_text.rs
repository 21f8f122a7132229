//! Parser for the Gramine-style manifest *text* format.
//!
//! Figure 2 of the paper shows an excerpt of the actual manifest template
//! used for the SGX deployments — a TOML-like format with dotted keys:
//!
//! ```text
//! libos.entrypoint = "/usr/bin/python3"
//! sgx.enclave_size = "64G"
//! sgx.max_threads = 32
//! sgx.remote_attestation = "dcap"
//! sgx.trusted_files = [
//!   { uri = "file:/usr/lib/libtorch.so", sha256 = "9f86d08..." },
//! ]
//! fs.mounts = [
//!   { type = "encrypted", path = "/model", key_name = "weights-key" },
//! ]
//! ```
//!
//! This module parses that subset into a validated [`Manifest`], with
//! precise error reporting (line numbers) — the configuration surface a
//! real deployment starts from.

use crate::manifest::{EncryptedFile, Manifest, TrustedFile};
use cllm_crypto::sha256::from_hex;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse a size literal like `"64G"`, `"512M"` or a plain byte count.
fn parse_size(line: usize, raw: &str) -> Result<u64, ParseError> {
    let s = raw.trim();
    let (digits, mult) = match s.chars().last() {
        Some('G') => (&s[..s.len() - 1], 1u64 << 30),
        Some('M') => (&s[..s.len() - 1], 1u64 << 20),
        Some('K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(c) if c.is_ascii_digit() => (s, 1),
        _ => return Err(err(line, format!("bad size literal: {raw:?}"))),
    };
    let v = digits
        .parse::<u64>()
        .map_err(|_| err(line, format!("bad size literal: {raw:?}")))?;
    v.checked_mul(mult)
        .ok_or_else(|| err(line, format!("size literal overflows 64 bits: {raw:?}")))
}

/// Strip surrounding quotes from a string literal.
fn unquote(line: usize, raw: &str) -> Result<String, ParseError> {
    let s = raw.trim();
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        Ok(s[1..s.len() - 1].to_owned())
    } else {
        Err(err(line, format!("expected quoted string, got {raw:?}")))
    }
}

/// Parse one inline table `{ k = v, k = v }` into key/value pairs.
fn parse_inline_table(line: usize, raw: &str) -> Result<Vec<(String, String)>, ParseError> {
    let s = raw.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|x| x.strip_suffix('}'))
        .ok_or_else(|| err(line, "expected { ... } table"))?;
    let mut out = Vec::new();
    for part in split_top_level(inner, ',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected key = value, got {part:?}")))?;
        out.push((k.trim().to_owned(), v.trim().to_owned()));
    }
    Ok(out)
}

/// Split on `sep` but not inside quotes or braces.
fn split_top_level(s: &str, sep: char) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            '{' | '[' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            '}' | ']' if !in_str => {
                depth -= 1;
                cur.push(c);
            }
            c if c == sep && depth == 0 && !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Parse manifest text into a (validated) [`Manifest`].
pub fn parse_manifest(text: &str) -> Result<Manifest, ParseError> {
    let mut entrypoint = None;
    let mut enclave_size = 64u64 << 30;
    let mut max_threads = 64u32;
    let mut remote_attestation = true;
    let mut trusted_files: Vec<TrustedFile> = Vec::new();
    let mut encrypted_files: Vec<EncryptedFile> = Vec::new();

    // Join multi-line arrays: collect logical statements first. Each
    // line is scanned once, so a long array costs linear time.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    let mut nesting = Nesting::default();
    for (i, raw_line) in text.lines().enumerate() {
        let line = nesting.scan(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let (start, acc) = match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(line);
                (start, acc)
            }
            None => (i + 1, line.to_owned()),
        };
        if nesting.balanced() {
            statements.push((start, acc));
        } else {
            pending = Some((start, acc));
        }
    }
    if let Some((start, _)) = pending {
        return Err(err(start, "unterminated array or table"));
    }

    for (line_no, stmt) in statements {
        let (key, value) = stmt
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("expected key = value, got {stmt:?}")))?;
        let key = key.trim();
        let value = value.trim();
        match key {
            "libos.entrypoint" => entrypoint = Some(unquote(line_no, value)?),
            "sgx.enclave_size" => {
                enclave_size = parse_size(line_no, &unquote(line_no, value)?)?;
            }
            "sgx.max_threads" => {
                max_threads = value
                    .parse()
                    .map_err(|_| err(line_no, format!("bad thread count {value:?}")))?;
            }
            "sgx.remote_attestation" => {
                let v = unquote(line_no, value)?;
                remote_attestation = v != "none";
            }
            "sgx.trusted_files" => {
                for item in parse_array_items(line_no, value)? {
                    let pairs = parse_inline_table(line_no, &item)?;
                    let uri = lookup(line_no, &pairs, "uri")?;
                    let sha_hex = lookup(line_no, &pairs, "sha256")?;
                    let sha256 = from_hex(&unquote(line_no, &sha_hex)?)
                        .and_then(|d| <[u8; 32]>::try_from(d).ok())
                        .ok_or_else(|| err(line_no, "sha256 must be 64 hex chars"))?;
                    trusted_files.push(TrustedFile {
                        path: strip_uri(&unquote(line_no, &uri)?),
                        sha256,
                    });
                }
            }
            "fs.mounts" => {
                for item in parse_array_items(line_no, value)? {
                    let pairs = parse_inline_table(line_no, &item)?;
                    let kind = unquote(line_no, &lookup(line_no, &pairs, "type")?)?;
                    if kind != "encrypted" {
                        continue; // plain mounts carry no security state
                    }
                    encrypted_files.push(EncryptedFile {
                        path: unquote(line_no, &lookup(line_no, &pairs, "path")?)?,
                        key_name: unquote(line_no, &lookup(line_no, &pairs, "key_name")?)?,
                    });
                }
            }
            other => return Err(err(line_no, format!("unknown key {other:?}"))),
        }
    }

    let manifest = Manifest {
        entrypoint: entrypoint.ok_or_else(|| err(1, "missing libos.entrypoint"))?,
        enclave_size_bytes: enclave_size,
        max_threads,
        trusted_files,
        encrypted_files,
        remote_attestation,
    };
    manifest
        .validate()
        .map_err(|e| err(1, format!("semantic error: {e}")))?;
    Ok(manifest)
}

/// Bracket depth and string state of the text of a statement scanned
/// so far. A statement ends at the first line after which no bracket is
/// open and no string runs on.
#[derive(Default)]
struct Nesting {
    depth: i64,
    in_str: bool,
}

impl Nesting {
    /// Scan `line` up to its comment, a `#` outside any string (one may
    /// run on from an earlier line), and return the part before it.
    fn scan<'a>(&mut self, line: &'a str) -> &'a str {
        for (i, b) in line.bytes().enumerate() {
            match b {
                b'"' => self.in_str = !self.in_str,
                b'#' if !self.in_str => return &line[..i],
                b'[' | b'{' if !self.in_str => self.depth += 1,
                b']' | b'}' if !self.in_str => self.depth -= 1,
                _ => {}
            }
        }
        line
    }

    fn balanced(&self) -> bool {
        self.depth == 0 && !self.in_str
    }
}

fn parse_array_items(line: usize, raw: &str) -> Result<Vec<String>, ParseError> {
    let inner = raw
        .trim()
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| err(line, "expected [ ... ] array"))?;
    Ok(split_top_level(inner, ',')
        .into_iter()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect())
}

fn lookup(line: usize, pairs: &[(String, String)], key: &str) -> Result<String, ParseError> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| err(line, format!("missing field {key:?}")))
}

fn strip_uri(uri: &str) -> String {
    uri.strip_prefix("file:").unwrap_or(uri).to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_crypto::sha256::{sha256, to_hex};
    use proptest::prelude::*;

    fn sample_text() -> String {
        let lib_hash = to_hex(&sha256(b"library-bytes"));
        format!(
            r#"
# Gramine manifest for the confidential inference server (cf. Figure 2)
libos.entrypoint = "/usr/bin/python3"
sgx.enclave_size = "64G"
sgx.max_threads = 32
sgx.remote_attestation = "dcap"
sgx.trusted_files = [
  {{ uri = "file:/usr/lib/libtorch.so", sha256 = "{lib_hash}" }},
]
fs.mounts = [
  {{ type = "encrypted", path = "/model/model.bin", key_name = "weights-key" }},
  {{ type = "tmpfs", path = "/tmp" }},
]
"#
        )
    }

    #[test]
    fn parses_figure2_style_manifest() {
        let m = parse_manifest(&sample_text()).unwrap();
        assert_eq!(m.entrypoint, "/usr/bin/python3");
        assert_eq!(m.enclave_size_bytes, 64 << 30);
        assert_eq!(m.max_threads, 32);
        assert!(m.remote_attestation);
        assert_eq!(m.trusted_files.len(), 1);
        assert_eq!(m.trusted_files[0].path, "/usr/lib/libtorch.so");
        assert_eq!(m.encrypted_files.len(), 1);
        assert_eq!(m.encrypted_files[0].key_name, "weights-key");
    }

    #[test]
    fn parsed_manifest_verifies_trusted_files() {
        let m = parse_manifest(&sample_text()).unwrap();
        assert!(m
            .verify_trusted("/usr/lib/libtorch.so", b"library-bytes")
            .is_ok());
        assert!(m.verify_trusted("/usr/lib/libtorch.so", b"evil").is_err());
    }

    #[test]
    fn size_literals() {
        assert_eq!(parse_size(1, "64G").unwrap(), 64 << 30);
        assert_eq!(parse_size(1, "512M").unwrap(), 512 << 20);
        assert_eq!(parse_size(1, "8K").unwrap(), 8 << 10);
        assert_eq!(parse_size(1, "4096").unwrap(), 4096);
        assert!(parse_size(1, "lots").is_err());
    }

    #[test]
    fn oversized_literal_is_an_error() {
        // 2^34 GiB = 2^64 bytes: one past u64::MAX.
        let text = "libos.entrypoint = \"e\"\nsgx.enclave_size = \"17179869184G\"\n";
        let e = parse_manifest(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("overflows"), "{}", e.message);
        assert_eq!(
            parse_size(1, "17179869183G").unwrap(),
            u64::MAX - (1 << 30) + 1
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "libos.entrypoint = \"x\"\nsgx.max_threads = banana\n";
        let e = parse_manifest(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("thread count"));
    }

    #[test]
    fn unknown_keys_rejected() {
        let e = parse_manifest("evil.backdoor = \"on\"\n").unwrap_err();
        assert!(e.message.contains("unknown key"));
    }

    #[test]
    fn bad_sha_rejected() {
        let text = r#"
libos.entrypoint = "e"
sgx.trusted_files = [ { uri = "file:/x", sha256 = "abcd" } ]
"#;
        let e = parse_manifest(text).unwrap_err();
        assert!(e.message.contains("64 hex"));
    }

    #[test]
    fn unterminated_array_rejected() {
        let text = "libos.entrypoint = \"e\"\nsgx.trusted_files = [\n";
        let e = parse_manifest(text).unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn semantic_validation_applied() {
        // Power-of-two enclave size is enforced through Manifest::validate.
        let text = "libos.entrypoint = \"e\"\nsgx.enclave_size = \"3G\"\n";
        let e = parse_manifest(text).unwrap_err();
        assert!(e.message.contains("semantic"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# comment only\nlibos.entrypoint = \"run\" # trailing\n";
        let m = parse_manifest(text).unwrap();
        assert_eq!(m.entrypoint, "run");
    }

    #[test]
    fn a_hash_inside_a_string_is_no_comment() {
        let m = parse_manifest("libos.entrypoint = \"/usr/bin/app#v2\" # note\n").unwrap();
        assert_eq!(m.entrypoint, "/usr/bin/app#v2");
    }

    #[test]
    fn a_signed_sha256_is_rejected() {
        let text = format!(
            "libos.entrypoint = \"e\"\nsgx.trusted_files = [ {{ uri = \"file:/x\", sha256 = \"{}\" }} ]\n",
            "+f".repeat(32)
        );
        let e = parse_manifest(&text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains("sha256 must be 64 hex chars"),
            "{}",
            e.message
        );
    }

    #[test]
    fn plain_mounts_skipped() {
        let m = parse_manifest(&sample_text()).unwrap();
        // tmpfs mount does not become an encrypted file.
        assert_eq!(m.encrypted_files.len(), 1);
    }

    #[test]
    fn long_multi_line_arrays_parse() {
        // Each line of an open array used to rescan the whole statement,
        // quadratic in its length.
        let hash = to_hex(&sha256(b"library-bytes"));
        let entries: String = (0..20_000)
            .map(|i| format!("  {{ uri = \"file:/lib/{i}.so\", sha256 = \"{hash}\" }},\n"))
            .collect();
        let open = format!("libos.entrypoint = \"e\"\nsgx.trusted_files = [\n{entries}");
        let e = parse_manifest(&open).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unterminated"), "{}", e.message);
        let m = parse_manifest(&(open + "]\n")).unwrap();
        assert_eq!(m.trusted_files.len(), 20_000);
        assert_eq!(m.trusted_files[19_999].path, "/lib/19999.so");
    }

    /// The parse of `text` is total: a manifest that validates, or an
    /// error on one of its lines.
    fn parse_is_total(text: &str) {
        match parse_manifest(text) {
            Ok(m) => assert_eq!(m.validate(), Ok(())),
            Err(e) => {
                let lines = text.lines().count().max(1);
                assert!(
                    (1..=lines).contains(&e.line),
                    "line {} outside 1..={lines}: {e}",
                    e.line
                );
            }
        }
    }

    /// Bytes manifest syntax is made of, so random text reaches deep
    /// parser states.
    const ALPHABET: &[u8] =
        b"[]{}\",=#. \n\nabefGKM0137libos.entrypointsgx.trusted_filesfs.mountsurisha256";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_text_never_panics_the_manifest_parser(
            bytes in collection::vec(any::<u8>(), 0..400),
            picks in collection::vec(0..ALPHABET.len(), 0..400),
        ) {
            parse_is_total(&String::from_utf8_lossy(&bytes));
            let text: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
            parse_is_total(&String::from_utf8_lossy(&text));
        }

        #[test]
        fn truncated_or_byte_flipped_figure2_never_panics_the_manifest_parser(
            cut in 0.0f64..1.0,
            flips in collection::vec((0.0f64..1.0, any::<u8>()), 1..6),
        ) {
            let text = sample_text().into_bytes();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
            let at = |f: f64| (text.len() as f64 * f) as usize;
            parse_is_total(&String::from_utf8_lossy(&text[..at(cut)]));
            let mut flipped = text.clone();
            for (f, byte) in flips {
                flipped[at(f)] = byte;
            }
            parse_is_total(&String::from_utf8_lossy(&flipped));
        }
    }
}
