//! Remote attestation: measurements, reports and quotes.
//!
//! Shaped after SGX DCAP / TDX quote flows: the "hardware" (simulated by a
//! per-machine root secret) signs a report containing the enclave
//! measurement and user-supplied report data. A relying party verifies the
//! quote against the root secret (standing in for the Intel PCS
//! certificate chain) and checks that the measurement matches an expected
//! golden value before releasing weight-decryption keys.

use cllm_crypto::hmac::{hmac_sha256, verify_hmac};
use cllm_crypto::sha256::{to_hex, Sha256};

/// A 32-byte enclave/TD measurement (`MRENCLAVE` / `MRTD` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Measure an ordered list of (name, content-hash) pairs — the shape
    /// of Gramine's manifest measurement: the enclave binary plus every
    /// trusted file extends the measurement in order.
    #[must_use]
    pub fn from_components(components: &[(String, [u8; 32])]) -> Self {
        let mut h = Sha256::new();
        h.update(b"cllm-measurement-v1");
        for (name, digest) in components {
            h.update(&(name.len() as u64).to_be_bytes());
            h.update(name.as_bytes());
            h.update(digest);
        }
        Measurement(h.finalize())
    }

    /// Lowercase hex rendering (what users pin in verification policy).
    #[must_use]
    pub fn hex(&self) -> String {
        to_hex(&self.0)
    }
}

/// The body of an attestation report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Report {
    /// Measurement of the attesting enclave.
    pub measurement: Measurement,
    /// Security version number of the "hardware" (microcode/TCB level).
    pub svn: u16,
    /// 32 bytes of user data — conventionally a hash of the channel key
    /// and a verifier-chosen nonce, binding the quote to a session.
    pub report_data: [u8; 32],
}

impl Report {
    fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 2 + 64);
        out.extend_from_slice(&self.measurement.0);
        out.extend_from_slice(&self.svn.to_be_bytes());
        out.extend_from_slice(&self.report_data);
        out
    }
}

/// A quote: a report signed by the platform's attestation key.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Quote {
    /// The signed report.
    pub report: Report,
    /// MAC over the report by the hardware attestation key (stands in for
    /// the ECDSA quote signature + PCK certificate chain).
    pub signature: [u8; 32],
}

/// Errors a verifier can encounter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestError {
    /// The quote's signature does not verify against the trusted root.
    BadSignature,
    /// The report data does not commit to the verifier's nonce
    /// (replayed quote).
    StaleNonce,
    /// The platform TCB is below the verifier's minimum SVN.
    TcbOutOfDate,
}

impl std::fmt::Display for AttestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            AttestError::BadSignature => "quote signature does not verify",
            AttestError::StaleNonce => "report data does not commit to the nonce",
            AttestError::TcbOutOfDate => "platform TCB below minimum SVN",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for AttestError {}

/// Derive the platform attestation key from the hardware root secret.
fn attestation_key(root_secret: &[u8]) -> [u8; 32] {
    hmac_sha256(b"cllm-attestation-key-v1", root_secret)
}

/// Build report data committing to a verifier nonce (and optionally a
/// channel public key) — `SHA256("rd" || nonce)` in the first 32 bytes.
#[must_use]
pub fn report_data_for_nonce(nonce: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"cllm-report-data-v1");
    h.update(nonce);
    h.finalize()
}

/// Sign a report with the platform key, producing a quote.
#[must_use]
pub fn generate_quote(
    root_secret: &[u8],
    measurement: Measurement,
    svn: u16,
    nonce: &[u8],
) -> Quote {
    let report = Report {
        measurement,
        svn,
        report_data: report_data_for_nonce(nonce),
    };
    let key = attestation_key(root_secret);
    let signature = hmac_sha256(&key, &report.signing_bytes());
    Quote { report, signature }
}

/// Verify a quote's authenticity and freshness (signature + nonce), without
/// pinning a measurement. Returns the attested measurement on success.
pub fn verify_quote(
    quote: &Quote,
    root_secret: &[u8],
    nonce: &[u8],
) -> Result<Measurement, AttestError> {
    let key = attestation_key(root_secret);
    if !verify_hmac(&key, &quote.report.signing_bytes(), &quote.signature) {
        return Err(AttestError::BadSignature);
    }
    if quote.report.report_data != report_data_for_nonce(nonce) {
        return Err(AttestError::StaleNonce);
    }
    Ok(quote.report.measurement)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement() -> Measurement {
        Measurement::from_components(&[
            ("entry".to_owned(), [1u8; 32]),
            ("model.bin".to_owned(), [2u8; 32]),
        ])
    }

    #[test]
    fn quote_roundtrip() {
        let m = measurement();
        let q = generate_quote(b"root", m, 5, b"nonce-1");
        assert_eq!(verify_quote(&q, b"root", b"nonce-1").unwrap(), m);
    }

    #[test]
    fn wrong_root_rejected() {
        let q = generate_quote(b"root", measurement(), 5, b"n");
        assert_eq!(
            verify_quote(&q, b"other-root", b"n"),
            Err(AttestError::BadSignature)
        );
    }

    #[test]
    fn replayed_quote_rejected() {
        let q = generate_quote(b"root", measurement(), 5, b"old-nonce");
        assert_eq!(
            verify_quote(&q, b"root", b"fresh-nonce"),
            Err(AttestError::StaleNonce)
        );
    }

    #[test]
    fn tampered_measurement_rejected() {
        let mut q = generate_quote(b"root", measurement(), 5, b"n");
        q.report.measurement.0[0] ^= 1;
        assert_eq!(
            verify_quote(&q, b"root", b"n"),
            Err(AttestError::BadSignature)
        );
    }

    #[test]
    fn quote_attests_its_measurement_and_svn() {
        // verify_quote returns the measurement the owner pins, and both it
        // and the SVN the owner's TCB check reads are under the signature.
        let m = measurement();
        let q = generate_quote(b"root", m, 5, b"n");
        assert_eq!(verify_quote(&q, b"root", b"n"), Ok(m));
        let mut raised = q.clone();
        raised.report.svn = 6;
        assert_eq!(
            verify_quote(&raised, b"root", b"n"),
            Err(AttestError::BadSignature)
        );
    }

    #[test]
    fn measurement_is_order_sensitive() {
        let a = Measurement::from_components(&[
            ("a".to_owned(), [1u8; 32]),
            ("b".to_owned(), [2u8; 32]),
        ]);
        let b = Measurement::from_components(&[
            ("b".to_owned(), [2u8; 32]),
            ("a".to_owned(), [1u8; 32]),
        ]);
        assert_ne!(a, b);
    }

    #[test]
    fn measurement_hex_is_64_chars() {
        assert_eq!(measurement().hex().len(), 64);
    }
}
