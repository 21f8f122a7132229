//! A functional enclave lifecycle tying manifests, attestation and sealing
//! together.
//!
//! This is the software path a real Gramine/TDX deployment walks: validate
//! the manifest, measure the enclave contents, attest to a relying party,
//! receive/derive data keys, and count the enclave exits that the SGX
//! performance model charges for.

use std::cell::Cell;

use crate::attestation::{generate_quote, Measurement, Quote};
use crate::manifest::{Manifest, ManifestError};
use crate::sealed::SealedBlob;
use cllm_crypto::AuthError;

/// A launched enclave instance.
pub struct Enclave {
    manifest: Manifest,
    measurement: Measurement,
    root_secret: Vec<u8>,
    svn: u16,
    exits: Cell<u64>,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the platform root secret: it signs quotes and
        // seals data.
        f.debug_struct("Enclave")
            .field("manifest", &self.manifest)
            .field("measurement", &self.measurement)
            .field("svn", &self.svn)
            .field("exits", &self.exits)
            .finish_non_exhaustive()
    }
}

impl Enclave {
    /// Validate the manifest, measure it, and "launch".
    pub fn launch(manifest: &Manifest, root_secret: &[u8]) -> Result<Self, ManifestError> {
        manifest.validate()?;
        Ok(Enclave {
            manifest: manifest.clone(),
            measurement: manifest.measurement(),
            root_secret: root_secret.to_vec(),
            svn: 7,
            exits: Cell::new(0),
        })
    }

    /// The enclave's measurement.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The manifest this enclave was launched from.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Produce an attestation quote bound to a verifier `nonce`.
    #[must_use]
    pub fn quote(&self, nonce: &[u8]) -> Quote {
        self.exits.set(self.exits.get() + 1); // quote generation exits the enclave
        generate_quote(&self.root_secret, self.measurement, self.svn, nonce)
    }

    /// Seal data under this enclave's identity.
    #[must_use]
    pub fn seal(&self, name: &str, plaintext: &[u8], rng_seed: &[u8]) -> SealedBlob {
        SealedBlob::seal(
            &self.root_secret,
            &self.measurement,
            name,
            plaintext,
            rng_seed,
        )
    }

    /// Unseal data previously sealed by this enclave identity.
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>, AuthError> {
        blob.unseal(&self.root_secret, &self.measurement)
    }

    /// Record `n` enclave exits (syscalls that Gramine cannot emulate
    /// in-enclave). The performance model charges these per token.
    pub fn record_exits(&self, n: u64) {
        self.exits.set(self.exits.get() + n);
    }

    /// Total enclave exits so far.
    #[must_use]
    pub fn exit_count(&self) -> u64 {
        self.exits.get()
    }

    /// Open a trusted file: verifies content against the manifest hash
    /// (Gramine does this transparently on open).
    pub fn open_trusted<'a>(
        &self,
        path: &str,
        content: &'a [u8],
    ) -> Result<&'a [u8], ManifestError> {
        self.record_exits(1); // file IO exits the enclave
        self.manifest.verify_trusted(path, content)?;
        Ok(content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::verify_quote;

    fn manifest() -> Manifest {
        Manifest::builder("infer")
            .enclave_size_gib(64)
            .threads(32)
            .trusted_file("lib.so", b"library-bytes")
            .encrypted_file("model.bin", "weights-key")
            .build()
    }

    #[test]
    fn launch_validates_manifest() {
        let mut bad = manifest();
        bad.enclave_size_bytes = 12345;
        assert!(Enclave::launch(&bad, b"root").is_err());
        assert!(Enclave::launch(&manifest(), b"root").is_ok());
    }

    #[test]
    fn end_to_end_attest_then_seal() {
        let enclave = Enclave::launch(&manifest(), b"hw-secret").unwrap();
        // Verifier attests with a fresh nonce and pins the measurement.
        let quote = enclave.quote(b"nonce-42");
        let golden = manifest().measurement();
        assert_eq!(verify_quote(&quote, b"hw-secret", b"nonce-42"), Ok(golden));
        assert_eq!(quote.report.svn, 7);
        // After attestation the enclave seals its working state.
        let sealed = enclave.seal("kv-cache", b"cache bytes", b"seed");
        assert_eq!(enclave.unseal(&sealed).unwrap(), b"cache bytes");
    }

    #[test]
    fn different_manifest_cannot_unseal() {
        let e1 = Enclave::launch(&manifest(), b"hw").unwrap();
        let sealed = e1.seal("state", b"secret", b"seed");
        let other_manifest = Manifest::builder("infer")
            .trusted_file("lib.so", b"EVIL-library")
            .build();
        let e2 = Enclave::launch(&other_manifest, b"hw").unwrap();
        assert!(e2.unseal(&sealed).is_err());
    }

    #[test]
    fn trusted_file_open_verifies_and_counts_exit() {
        let enclave = Enclave::launch(&manifest(), b"hw").unwrap();
        assert_eq!(enclave.exit_count(), 0);
        assert!(enclave.open_trusted("lib.so", b"library-bytes").is_ok());
        assert_eq!(enclave.exit_count(), 1);
        assert!(enclave.open_trusted("lib.so", b"tampered").is_err());
    }

    #[test]
    fn debug_hides_the_root_secret() {
        let secret = b"platform-root-secret";
        let enclave = Enclave::launch(&manifest(), secret).unwrap();
        let dbg = format!("{enclave:?}");
        assert!(dbg.starts_with("Enclave { manifest: Manifest {"), "{dbg}");
        assert!(
            dbg.ends_with("svn: 7, exits: Cell { value: 0 }, .. }"),
            "{dbg}"
        );
        assert!(!dbg.contains(&format!("{:?}", secret.to_vec())), "{dbg}");
        assert!(!dbg.contains("platform-root-secret"), "{dbg}");
    }

    #[test]
    fn quote_verifies_only_with_matching_nonce() {
        let enclave = Enclave::launch(&manifest(), b"hw").unwrap();
        let q = enclave.quote(b"n1");
        assert!(verify_quote(&q, b"hw", b"n1").is_ok());
        assert!(verify_quote(&q, b"hw", b"n2").is_err());
    }
}
