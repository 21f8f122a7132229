//! Gramine-like deployment manifests.
//!
//! Figure 2 of the paper shows an excerpt of the Gramine manifest template
//! used for SGX: entrypoint, enclave size, thread count, trusted files
//! (integrity-protected by hash) and encrypted files (confidentiality-
//! protected, key released after attestation). This module reproduces that
//! configuration surface, including validation and the measurement rules.

use crate::attestation::Measurement;
use cllm_crypto::sha256::sha256;
use serde::{Deserialize, Serialize};

/// A file whose integrity is pinned by hash in the manifest
/// (`sgx.trusted_files` in Gramine).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrustedFile {
    /// Path inside the enclave filesystem view.
    pub path: String,
    /// SHA-256 of the expected content.
    pub sha256: [u8; 32],
}

/// A file stored encrypted at rest (`fs.mounts type="encrypted"`); the
/// decryption key is named and provisioned after attestation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptedFile {
    /// Path inside the enclave filesystem view.
    pub path: String,
    /// Name of the provisioned key (`fs.insecure__keys` analogue).
    pub key_name: String,
}

/// A Gramine-manifest-shaped deployment descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Entrypoint binary (`libos.entrypoint`).
    pub entrypoint: String,
    /// Enclave size in bytes (`sgx.enclave_size`). Must be a power of two
    /// in real Gramine; we enforce that too.
    pub enclave_size_bytes: u64,
    /// Maximum enclave threads (`sgx.max_threads`).
    pub max_threads: u32,
    /// Integrity-pinned files.
    pub trusted_files: Vec<TrustedFile>,
    /// Encrypted-at-rest files.
    pub encrypted_files: Vec<EncryptedFile>,
    /// Whether remote attestation is enabled (`sgx.remote_attestation`).
    pub remote_attestation: bool,
}

/// Validation failures for a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Entrypoint is empty.
    MissingEntrypoint,
    /// Enclave size is zero or not a power of two.
    BadEnclaveSize(u64),
    /// Thread count is zero.
    NoThreads,
    /// Two trusted files share a path.
    DuplicateTrustedFile(String),
    /// A file is listed both trusted and encrypted.
    ConflictingProtection(String),
    /// Content verification failed for a trusted file.
    TrustedFileMismatch(String),
    /// A file was accessed that no manifest entry covers.
    UnknownFile(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::MissingEntrypoint => f.write_str("manifest has no entrypoint"),
            ManifestError::BadEnclaveSize(s) => {
                write!(f, "enclave size {s} is not a nonzero power of two")
            }
            ManifestError::NoThreads => f.write_str("manifest allows zero threads"),
            ManifestError::DuplicateTrustedFile(p) => write!(f, "duplicate trusted file: {p}"),
            ManifestError::ConflictingProtection(p) => {
                write!(f, "file both trusted and encrypted: {p}")
            }
            ManifestError::TrustedFileMismatch(p) => {
                write!(f, "trusted file hash mismatch: {p}")
            }
            ManifestError::UnknownFile(p) => write!(f, "file not covered by manifest: {p}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Start building a manifest for the given entrypoint.
    #[must_use]
    pub fn builder(entrypoint: &str) -> ManifestBuilder {
        ManifestBuilder {
            manifest: Manifest {
                entrypoint: entrypoint.to_owned(),
                enclave_size_bytes: 64 * 1024 * 1024 * 1024,
                max_threads: 64,
                trusted_files: Vec::new(),
                encrypted_files: Vec::new(),
                remote_attestation: true,
            },
        }
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.entrypoint.is_empty() {
            return Err(ManifestError::MissingEntrypoint);
        }
        if self.enclave_size_bytes == 0 || !self.enclave_size_bytes.is_power_of_two() {
            return Err(ManifestError::BadEnclaveSize(self.enclave_size_bytes));
        }
        if self.max_threads == 0 {
            return Err(ManifestError::NoThreads);
        }
        let mut seen = std::collections::HashSet::new();
        for tf in &self.trusted_files {
            if !seen.insert(tf.path.as_str()) {
                return Err(ManifestError::DuplicateTrustedFile(tf.path.clone()));
            }
        }
        for ef in &self.encrypted_files {
            if seen.contains(ef.path.as_str()) {
                return Err(ManifestError::ConflictingProtection(ef.path.clone()));
            }
        }
        Ok(())
    }

    /// Verify a file's content against its pinned hash, as Gramine does on
    /// every open of a trusted file.
    pub fn verify_trusted(&self, path: &str, content: &[u8]) -> Result<(), ManifestError> {
        let entry = self
            .trusted_files
            .iter()
            .find(|tf| tf.path == path)
            .ok_or_else(|| ManifestError::UnknownFile(path.to_owned()))?;
        if sha256(content) == entry.sha256 {
            Ok(())
        } else {
            Err(ManifestError::TrustedFileMismatch(path.to_owned()))
        }
    }

    /// Compute the enclave measurement this manifest produces: entrypoint
    /// plus every trusted file, in listed order.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        let mut components = Vec::with_capacity(1 + self.trusted_files.len());
        components.push(("entrypoint".to_owned(), sha256(self.entrypoint.as_bytes())));
        for tf in &self.trusted_files {
            components.push((tf.path.clone(), tf.sha256));
        }
        Measurement::from_components(&components)
    }
}

/// Builder for [`Manifest`].
#[derive(Debug, Clone)]
pub struct ManifestBuilder {
    manifest: Manifest,
}

impl ManifestBuilder {
    /// Set the enclave size in GiB (rounded to a power of two by caller).
    #[must_use]
    pub fn enclave_size_gib(mut self, gib: u64) -> Self {
        self.manifest.enclave_size_bytes = gib * 1024 * 1024 * 1024;
        self
    }

    /// Set the maximum number of enclave threads.
    #[must_use]
    pub fn threads(mut self, n: u32) -> Self {
        self.manifest.max_threads = n;
        self
    }

    /// Pin a trusted file by hashing `content` now.
    #[must_use]
    pub fn trusted_file(mut self, path: &str, content: &[u8]) -> Self {
        self.manifest.trusted_files.push(TrustedFile {
            path: path.to_owned(),
            sha256: sha256(content),
        });
        self
    }

    /// Declare an encrypted file with a named key.
    #[must_use]
    pub fn encrypted_file(mut self, path: &str, key_name: &str) -> Self {
        self.manifest.encrypted_files.push(EncryptedFile {
            path: path.to_owned(),
            key_name: key_name.to_owned(),
        });
        self
    }

    /// Enable/disable remote attestation.
    #[must_use]
    pub fn remote_attestation(mut self, on: bool) -> Self {
        self.manifest.remote_attestation = on;
        self
    }

    /// Finish building. The result is not yet validated; call
    /// [`Manifest::validate`] (done automatically by `Enclave::launch`).
    #[must_use]
    pub fn build(self) -> Manifest {
        self.manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest::builder("python3 infer.py")
            .enclave_size_gib(64)
            .threads(32)
            .trusted_file("libtorch.so", b"torch-bytes")
            .encrypted_file("model.bin", "weights-key")
            .build()
    }

    #[test]
    fn valid_manifest_passes() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn enclave_size_must_be_power_of_two() {
        let mut m = sample();
        m.enclave_size_bytes = 3 * 1024 * 1024;
        assert!(matches!(
            m.validate(),
            Err(ManifestError::BadEnclaveSize(_))
        ));
    }

    #[test]
    fn duplicate_trusted_files_rejected() {
        let m = Manifest::builder("e")
            .trusted_file("a", b"1")
            .trusted_file("a", b"2")
            .build();
        assert_eq!(
            m.validate(),
            Err(ManifestError::DuplicateTrustedFile("a".to_owned()))
        );
    }

    #[test]
    fn trusted_and_encrypted_conflict_rejected() {
        let m = Manifest::builder("e")
            .trusted_file("model.bin", b"w")
            .encrypted_file("model.bin", "k")
            .build();
        assert_eq!(
            m.validate(),
            Err(ManifestError::ConflictingProtection("model.bin".to_owned()))
        );
    }

    #[test]
    fn trusted_file_verification() {
        let m = sample();
        assert!(m.verify_trusted("libtorch.so", b"torch-bytes").is_ok());
        assert_eq!(
            m.verify_trusted("libtorch.so", b"evil-bytes"),
            Err(ManifestError::TrustedFileMismatch("libtorch.so".to_owned()))
        );
        assert_eq!(
            m.verify_trusted("nope", b""),
            Err(ManifestError::UnknownFile("nope".to_owned()))
        );
    }

    #[test]
    fn measurement_changes_with_trusted_content() {
        let a = Manifest::builder("e").trusted_file("f", b"1").build();
        let b = Manifest::builder("e").trusted_file("f", b"2").build();
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn measurement_ignores_encrypted_files() {
        // Encrypted file *contents* are not measured (they are sealed data,
        // not code); only trusted files extend the measurement.
        let a = sample();
        let mut b = sample();
        b.encrypted_files[0].key_name = "other-key".to_owned();
        assert_eq!(a.measurement(), b.measurement());
    }

    #[test]
    fn serde_roundtrip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: Manifest = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
