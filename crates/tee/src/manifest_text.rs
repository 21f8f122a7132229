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

    // Join multi-line arrays: collect logical statements first.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(line);
                if balanced(&acc) {
                    statements.push((start, acc));
                } else {
                    pending = Some((start, acc));
                }
            }
            None => {
                if balanced(line) {
                    statements.push((line_no, line.to_owned()));
                } else {
                    pending = Some((line_no, line.to_owned()));
                }
            }
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
                    let digest = from_hex(&unquote(line_no, &sha_hex)?)
                        .filter(|d| d.len() == 32)
                        .ok_or_else(|| err(line_no, "sha256 must be 64 hex chars"))?;
                    trusted_files.push(TrustedFile {
                        path: strip_uri(&unquote(line_no, &uri)?),
                        sha256: digest.try_into().expect("length checked"),
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

fn balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
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
    fn plain_mounts_skipped() {
        let m = parse_manifest(&sample_text()).unwrap();
        // tmpfs mount does not become an encrypted file.
        assert_eq!(m.encrypted_files.len(), 1);
    }
}
