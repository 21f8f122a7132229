//! The model owner's side of the confidential deployment.
//!
//! The owner holds the intellectual property (fine-tuned weights) and a
//! verification policy (golden measurement, minimum TCB). They encrypt
//! the model once, and release the decryption key only to an enclave
//! that attests successfully — the deployment model Figure 1 motivates.
//!
//! The key has one way out: [`ModelOwner::begin_session`] issues a
//! challenge, the enclave answers it with
//! `cllm_tee::session::enclave_respond` (a quote bound to the channel
//! transcript), [`ModelOwner::release_key_secure`] checks that answer
//! and seals the key as the session's first record, and only the
//! enclave's `SecureChannel::recv` opens it.

use cllm_crypto::drbg::HashDrbg;
use cllm_crypto::{aead_open, aead_seal, AuthError};
use cllm_infer::model::TinyModel;
use cllm_infer::serialize::{model_from_bytes, model_to_bytes, SerializeError};
use cllm_tee::attestation::{AttestError, Measurement};
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

    /// Begin an attested session: returns the verifier state and the
    /// challenge to forward to the enclave.
    pub fn begin_session(&mut self) -> (Verifier, Challenge) {
        let mut seed = vec![0u8; 16];
        self.nonce_gen.fill(&mut seed);
        Verifier::start(self.golden, &self.hw_root, &seed)
    }

    /// Complete the session: verify the enclave's response (quote bound to
    /// the channel transcript), check the platform TCB the verified quote
    /// reports, then release the model key as the first protected record.
    /// Returns the owner's channel end and the record carrying the key.
    ///
    /// # Errors
    ///
    /// No key is released to a quote that does not verify or answers
    /// another session's challenge ([`SessionError::Attestation`]), to any
    /// measurement but the golden one ([`SessionError::WrongEnclave`]),
    /// or, once the quote verifies, to a platform TCB below the owner's
    /// minimum ([`AttestError::TcbOutOfDate`]). The SVN is read only from
    /// a verified quote, so a forged quote is refused as a bad signature
    /// whatever SVN it carries.
    pub fn release_key_secure(
        &self,
        verifier: &Verifier,
        response: &Response,
    ) -> Result<(SecureChannel, Record), OwnerError> {
        let mut channel = verifier.finish(response).map_err(OwnerError::Session)?;
        if response.quote.report.svn < self.min_svn {
            return Err(OwnerError::Attestation(AttestError::TcbOutOfDate));
        }
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
    use cllm_tee::session::enclave_respond;

    fn model() -> TinyModel {
        TinyModel::init(&TinyConfig::test_small(), 3)
    }

    fn golden() -> Measurement {
        Measurement([0xAB; 32])
    }

    /// What an enclave of `measurement` at TCB level `svn` receives when
    /// it answers `challenge` and the owner checks that answer against
    /// `verifier`: the key, opened from the owner's sealed record.
    fn enclave_receives(
        owner: &ModelOwner,
        verifier: &Verifier,
        challenge: &Challenge,
        measurement: Measurement,
        svn: u16,
    ) -> Result<[u8; 16], OwnerError> {
        let (response, mut channel) = enclave_respond(b"hw", measurement, svn, challenge, b"enc")
            .map_err(OwnerError::Session)?;
        let (_, record) = owner.release_key_secure(verifier, &response)?;
        let key = channel.recv(&record).map_err(OwnerError::Session)?;
        Ok(key.try_into().expect("the key record holds 16 bytes"))
    }

    /// One whole session: a fresh challenge answered by that enclave.
    fn release(
        owner: &mut ModelOwner,
        measurement: Measurement,
        svn: u16,
    ) -> Result<[u8; 16], OwnerError> {
        let (verifier, challenge) = owner.begin_session();
        enclave_receives(owner, &verifier, &challenge, measurement, svn)
    }

    #[test]
    fn full_key_release_flow() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let encrypted = owner.encrypt_model(&model()).unwrap();
        let key = release(&mut owner, golden(), 7).unwrap();
        assert_eq!(key, owner.model_key);
        let decrypted = ModelOwner::decrypt_model(&key, &encrypted).unwrap();
        assert_eq!(decrypted, model());
    }

    #[test]
    fn wrong_measurement_gets_no_key() {
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let evil = Measurement([0xEE; 32]);
        assert_eq!(
            release(&mut owner, evil, 7),
            Err(OwnerError::Session(SessionError::WrongEnclave))
        );
    }

    #[test]
    fn stale_nonce_gets_no_key() {
        // An enclave (or a relay) answers an earlier session's challenge:
        // its genuine quote commits to the old transcript, not this one.
        let mut owner = ModelOwner::new(b"hw", golden(), 5, b"seed");
        let (_, old) = owner.begin_session();
        let (verifier, fresh) = owner.begin_session();
        assert_ne!(old, fresh, "each session draws a fresh challenge");
        assert_eq!(
            enclave_receives(&owner, &verifier, &old, golden(), 7),
            Err(OwnerError::Session(SessionError::Attestation(
                AttestError::StaleNonce
            )))
        );
        assert!(enclave_receives(&owner, &verifier, &fresh, golden(), 7).is_ok());
    }

    #[test]
    fn low_tcb_gets_no_key() {
        let mut owner = ModelOwner::new(b"hw", golden(), 9, b"seed");
        assert_eq!(
            release(&mut owner, golden(), 8),
            Err(OwnerError::Attestation(AttestError::TcbOutOfDate))
        );
        assert!(
            release(&mut owner, golden(), 9).is_ok(),
            "min_svn itself passes"
        );
    }

    #[test]
    fn raised_svn_on_a_low_tcb_quote_gets_no_key() {
        // The SVN is signed with the rest of the report: raising it past
        // the minimum breaks the quote's signature.
        let mut owner = ModelOwner::new(b"hw", golden(), 9, b"seed");
        let (verifier, challenge) = owner.begin_session();
        let (mut response, _) = enclave_respond(b"hw", golden(), 7, &challenge, b"enc").unwrap();
        response.quote.report.svn = 9;
        assert_eq!(
            owner.release_key_secure(&verifier, &response).map(|_| ()),
            Err(OwnerError::Session(SessionError::Attestation(
                AttestError::BadSignature
            )))
        );
    }

    #[test]
    fn forged_quote_is_a_bad_signature_whatever_its_svn() {
        // The quote verifies before its SVN is read, so a forgery is
        // named as one even when it also reports a TCB below the minimum.
        let mut owner = ModelOwner::new(b"hw", golden(), 9, b"seed");
        let (verifier, challenge) = owner.begin_session();
        let (mut response, _) = enclave_respond(b"hw", golden(), 7, &challenge, b"enc").unwrap();
        response.quote.signature = [0; 32];
        assert_eq!(
            owner.release_key_secure(&verifier, &response).map(|_| ()),
            Err(OwnerError::Session(SessionError::Attestation(
                AttestError::BadSignature
            )))
        );
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
        let key = release(&mut owner, golden(), 7).unwrap();
        assert!(matches!(
            ModelOwner::decrypt_model(&key, &encrypted),
            Err(OwnerError::Decrypt(_))
        ));
    }
}
