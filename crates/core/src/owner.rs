//! The model owner's side of the confidential deployment.
//!
//! The owner holds the intellectual property (fine-tuned weights) and a
//! verification policy (golden measurement, minimum TCB). They encrypt
//! the model once, and release the decryption key only to an enclave
//! that attests successfully — the deployment model Figure 1 motivates.

use cllm_crypto::drbg::HashDrbg;
use cllm_crypto::{aead_open, aead_seal, AuthError};
use cllm_infer::model::TinyModel;
use cllm_infer::serialize::{model_from_bytes, model_to_bytes, SerializeError};
use cllm_tee::attestation::{verify_policy, AttestError, Measurement, Quote};
use cllm_tee::session::{Challenge, Record, Response, SecureChannel, SessionError, Verifier};

/// A model encrypted at rest; safe to hand to any cloud provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedModel {
    /// AES-GCM sealed weight bytes (`ciphertext || tag`).
    pub ciphertext: Vec<u8>,
    /// Nonce used at encryption time.
    pub nonce: Vec<u8>,
}

impl EncryptedModel {
    /// Size on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ciphertext.len()
    }

    /// Whether the blob is empty (never for a real model).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }
}

/// Errors on the owner's side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnerError {
    /// The model could not be serialized.
    Serialize(SerializeError),
    /// Attestation failed; the key is withheld.
    Attestation(AttestError),
    /// Decryption failed (wrong key or tampered blob).
    Decrypt(AuthError),
    /// The attested secure channel could not be established.
    Session(SessionError),
}

impl std::fmt::Display for OwnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OwnerError::Serialize(e) => write!(f, "serialize: {e}"),
            OwnerError::Attestation(e) => write!(f, "attestation: {e}"),
            OwnerError::Decrypt(e) => write!(f, "decrypt: {e}"),
            OwnerError::Session(e) => write!(f, "session: {e}"),
        }
    }
}

impl std::error::Error for OwnerError {}

/// The model owner: holds the model key and the verification policy.
pub struct ModelOwner {
    model_key: [u8; 16],
    golden: Measurement,
    min_svn: u16,
    /// The hardware vendor's root the owner trusts (stands in for the
    /// Intel PCS certificate chain).
    hw_root: Vec<u8>,
    nonce_gen: HashDrbg,
}

impl std::fmt::Debug for ModelOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the model key, the hardware root or the nonce
        // generator's state.
        f.debug_struct("ModelOwner")
            .field("golden", &self.golden)
            .field("min_svn", &self.min_svn)
            .finish_non_exhaustive()
    }
}

impl ModelOwner {
    /// Create an owner trusting `hw_root`, pinning `golden`, requiring at
    /// least `min_svn`. `seed` derives the model key deterministically
    /// (reproducibility; a real owner uses an HSM).
    #[must_use]
    pub fn new(hw_root: &[u8], golden: Measurement, min_svn: u16, seed: &[u8]) -> Self {
        let mut drbg = HashDrbg::new(seed);
        ModelOwner {
            model_key: drbg.gen_key16(),
            golden,
            min_svn,
            hw_root: hw_root.to_vec(),
            nonce_gen: drbg,
        }
    }

    /// Encrypt a model for at-rest storage.
    pub fn encrypt_model(&mut self, model: &TinyModel) -> Result<EncryptedModel, OwnerError> {
        let bytes = model_to_bytes(model).map_err(OwnerError::Serialize)?;
        let mut nonce = vec![0u8; 16];
        self.nonce_gen.fill(&mut nonce);
        let ciphertext = aead_seal(&self.model_key, &nonce, &bytes, b"cllm-model-v1");
        Ok(EncryptedModel { ciphertext, nonce })
    }

    /// Issue a fresh attestation challenge nonce.
    pub fn challenge(&mut self) -> Vec<u8> {
        let mut nonce = vec![0u8; 16];
        self.nonce_gen.fill(&mut nonce);
        nonce
    }

    /// Verify an enclave quote against the policy; on success release the
    /// model key (in reality: over the attested secure channel).
    pub fn release_key(&self, quote: &Quote, nonce: &[u8]) -> Result<[u8; 16], OwnerError> {
        verify_policy(quote, &self.hw_root, nonce, &self.golden, self.min_svn)
            .map_err(OwnerError::Attestation)?;
        Ok(self.model_key)
    }

    /// Begin an attested session: returns the verifier state and the
    /// challenge to forward to the enclave.
    pub fn begin_session(&mut self) -> (Verifier, Challenge) {
        let mut seed = vec![0u8; 16];
        self.nonce_gen.fill(&mut seed);
        Verifier::start(self.golden, &self.hw_root, &seed)
    }

    /// Complete the session: verify the enclave's response (quote bound to
    /// the channel transcript), then release the model key as the first
    /// protected record. Returns the owner's channel end and the record
    /// carrying the key.
    pub fn release_key_secure(
        &self,
        verifier: &Verifier,
        response: &Response,
    ) -> Result<(SecureChannel, Record), OwnerError> {
        if response.quote.report.svn < self.min_svn {
            return Err(OwnerError::Attestation(AttestError::TcbOutOfDate));
        }
        let mut channel = verifier.finish(response).map_err(OwnerError::Session)?;
        let record = channel.send(&self.model_key);
        Ok((channel, record))
    }

    /// Decrypt an encrypted model with a released key (runs inside the
    /// enclave).
    pub fn decrypt_model(
        key: &[u8; 16],
        encrypted: &EncryptedModel,
    ) -> Result<TinyModel, OwnerError> {
        let bytes = aead_open(
            key,
            &encrypted.nonce,
            &encrypted.ciphertext,
            b"cllm-model-v1",
        )
        .map_err(OwnerError::Decrypt)?;
        model_from_bytes(&bytes).map_err(OwnerError::Serialize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_infer::model::TinyConfig;
    use cllm_tee::attestation::generate_quote;

    fn model() -> TinyModel {
        TinyModel::init(&TinyConfig::test_small(), 3)
    }

    fn golden() -> Measurement {
        Measurement([0xAB; 32])
    }

    #[test]
    fn full_key_release_flow() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let encrypted = owner.encrypt_model(&model()).unwrap();
        let nonce = owner.challenge();
        let quote = generate_quote(b"hw", golden(), 7, &nonce);
        let key = owner.release_key(&quote, &nonce).unwrap();
        let decrypted = ModelOwner::decrypt_model(&key, &encrypted).unwrap();
        assert_eq!(decrypted, model());
    }

    #[test]
    fn wrong_measurement_gets_no_key() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let nonce = owner.challenge();
        let evil = Measurement([0xEE; 32]);
        let quote = generate_quote(b"hw", evil, 7, &nonce);
        assert!(matches!(
            owner.release_key(&quote, &nonce),
            Err(OwnerError::Attestation(AttestError::MeasurementMismatch))
        ));
    }

    #[test]
    fn stale_nonce_gets_no_key() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let old = owner.challenge();
        let fresh = owner.challenge();
        let quote = generate_quote(b"hw", golden(), 7, &old);
        assert!(owner.release_key(&quote, &fresh).is_err());
    }

    #[test]
    fn low_tcb_gets_no_key() {
        let mut owner = ModelOwner::new(b"hw", golden(), 9, b"seed");
        let nonce = owner.challenge();
        let quote = generate_quote(b"hw", golden(), 7, &nonce);
        assert!(matches!(
            owner.release_key(&quote, &nonce),
            Err(OwnerError::Attestation(AttestError::TcbOutOfDate))
        ));
    }

    #[test]
    fn ciphertext_hides_weights() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let encrypted = owner.encrypt_model(&model()).unwrap();
        // The serialized plaintext starts with the CLLM magic; the
        // ciphertext must not.
        assert_ne!(&encrypted.ciphertext[..4], b"CLLM");
    }

    #[test]
    fn debug_hides_the_model_key() {
        let owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let dbg = format!("{owner:?}");
        assert!(
            dbg.starts_with("ModelOwner { golden: Measurement("),
            "{dbg}"
        );
        assert!(dbg.ends_with("min_svn: 5, .. }"), "{dbg}");
        let key = owner.model_key;
        assert!(!dbg.contains(&format!("{key:?}")), "{dbg}");
        assert!(!dbg.contains(&cllm_crypto::sha256::to_hex(&key)), "{dbg}");
    }

    #[test]
    fn wrong_key_cannot_decrypt() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let encrypted = owner.encrypt_model(&model()).unwrap();
        assert!(matches!(
            ModelOwner::decrypt_model(&[0u8; 16], &encrypted),
            Err(OwnerError::Decrypt(_))
        ));
    }

    #[test]
    fn tampered_model_detected() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let mut encrypted = owner.encrypt_model(&model()).unwrap();
        let mid = encrypted.ciphertext.len() / 2;
        encrypted.ciphertext[mid] ^= 1;
        let nonce = owner.challenge();
        let quote = generate_quote(b"hw", golden(), 7, &nonce);
        let key = owner.release_key(&quote, &nonce).unwrap();
        assert!(ModelOwner::decrypt_model(&key, &encrypted).is_err());
    }
}
