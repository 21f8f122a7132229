//! From-scratch cryptographic primitives for the TEE substrate.
//!
//! The paper's confidential pipelines rely on three cryptographic services
//! that we implement fully rather than stub:
//!
//! * **Hashing / measurement** — [`sha256`] implements FIPS 180-4 SHA-256,
//!   used for enclave measurements (`MRENCLAVE`-style) and file integrity
//!   in Gramine-like manifests.
//! * **Authentication** — [`hmac`] (RFC 2104) and [`kdf`] (RFC 5869 HKDF)
//!   derive sealing keys bound to a measurement, mirroring SGX's
//!   `EGETKEY` sealing-key derivation.
//! * **Confidentiality** — [`modes`] provides CTR streaming (LUKS-like
//!   block encryption of the model weights at rest) and GCM authenticated
//!   encryption (Gramine protected files and attestation-channel
//!   payloads), whose open hashes and decrypts in one pass. Each key
//!   picks one of two engines when it is set up:
//!   - on x86-64 CPUs with AES-NI, PCLMULQDQ, SSSE3 and SSE4.1, the
//!     hardware path: AES rounds on `aesenc` with eight CTR blocks in
//!     flight, and GHASH on carry-less multiplies, four blocks per
//!     reduction. This is the crate's only `unsafe` code, reached only
//!     once `is_x86_feature_detected!` confirmed every feature;
//!   - everywhere else, the table path: [`aes`]'s FIPS-197 AES-128 on
//!     T-tables and GHASH on a per-key 4-bit table. It is also the
//!     oracle the hardware path is tested against, byte for byte.
//! * **Key agreement** — [`dh`] runs Diffie-Hellman over 2^127 − 1 for
//!   the attested session handshake.
//!
//! All primitives are validated against published test vectors (FIPS-197,
//! NIST GCM, RFC 4231) plus property tests for round-trips and tampering
//! detection; the table-driven AES and GHASH and the limb-wise DH
//! multiply are also tested against the byte-wise, bit-serial and
//! shift-and-add versions they replaced.
//!
//! # Security note
//!
//! These implementations favour clarity and speed over side-channel
//! hardening; they are faithful functional stand-ins for the hardware
//! crypto engines of real TEEs, which is what the reproduction requires —
//! not production cryptography. The hardware path indexes no table with
//! secret data: its key schedule, rounds and GHASH run in registers on
//! instructions whose timing does not depend on their operands. The
//! table path does index tables with secret data: the S-box by key and
//! state bytes, the four AES T-tables by state bytes and the GHASH table
//! by nibbles of the running hash, so its cache footprint leaks them, as
//! software AES does (the T-tables and the GHASH table add no new kind
//! of leak, since the S-box lookups already leak in the same way). That
//! caveat applies only where the table path runs: off x86-64, or on a
//! CPU without those instructions. Neither path zeroes key material on
//! drop.
//!
//! # Example
//!
//! ```
//! use cllm_crypto::{aead_seal, aead_open, sha256::sha256};
//!
//! let key: [u8; 16] = sha256(b"sealing key material")[..16].try_into().unwrap();
//! let sealed = aead_seal(&key, b"nonce123", b"weights", b"aad");
//! let opened = aead_open(&key, b"nonce123", &sealed, b"aad").unwrap();
//! assert_eq!(opened, b"weights");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod dh;
pub mod drbg;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod kdf;
pub mod modes;
pub mod sha256;

use modes::Gcm;

/// Error produced when authenticated decryption fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authentication tag mismatch: ciphertext or AAD was tampered with")
    }
}

impl std::error::Error for AuthError {}

/// Seal `plaintext` with AES-128-GCM, returning `ciphertext || 16-byte tag`.
///
/// `nonce` may be any length; it is hashed down to the 12-byte GCM IV. This
/// is the convenience entry point used by the sealed-storage layer; a
/// caller sealing many messages under one key keeps a [`Gcm`] and calls
/// [`Gcm::seal`], which gives the same bytes.
#[must_use]
pub fn aead_seal(key: &[u8; 16], nonce: &[u8], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    Gcm::new(key).seal(nonce, plaintext, aad)
}

/// Open a blob produced by [`aead_seal`]. Returns [`AuthError`] if the tag
/// does not verify (wrong key, wrong nonce, or tampering).
pub fn aead_open(
    key: &[u8; 16],
    nonce: &[u8],
    sealed: &[u8],
    aad: &[u8],
) -> Result<Vec<u8>, AuthError> {
    Gcm::new(key).open(nonce, sealed, aad)
}

/// Constant-time byte-slice equality (false on length mismatch).
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let key = [7u8; 16];
        let sealed = aead_seal(&key, b"n", b"hello enclave", b"meta");
        assert_eq!(
            aead_open(&key, b"n", &sealed, b"meta").unwrap(),
            b"hello enclave"
        );
    }

    #[test]
    fn tampering_detected() {
        let key = [7u8; 16];
        let mut sealed = aead_seal(&key, b"n", b"hello enclave", b"meta");
        sealed[0] ^= 1;
        assert_eq!(aead_open(&key, b"n", &sealed, b"meta"), Err(AuthError));
    }

    #[test]
    fn wrong_aad_detected() {
        let key = [7u8; 16];
        let sealed = aead_seal(&key, b"n", b"hello", b"meta");
        assert_eq!(aead_open(&key, b"n", &sealed, b"other"), Err(AuthError));
    }

    #[test]
    fn wrong_key_detected() {
        let sealed = aead_seal(&[7u8; 16], b"n", b"hello", b"");
        assert_eq!(aead_open(&[8u8; 16], b"n", &sealed, b""), Err(AuthError));
    }

    #[test]
    fn truncated_blob_rejected() {
        let key = [1u8; 16];
        assert_eq!(aead_open(&key, b"n", &[0u8; 7], b""), Err(AuthError));
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
    }
}
