//! Attested secure sessions: how secrets actually reach an enclave.
//!
//! Releasing the model key "after attestation" requires a channel that is
//! cryptographically *bound* to the quote — otherwise a
//! machine-in-the-middle could relay a genuine quote while substituting
//! its own channel keys. This module implements the standard
//! attested-TLS-style construction:
//!
//! 1. The verifier sends a challenge: a fresh nonce plus its ephemeral DH
//!    public value.
//! 2. The enclave replies with its own DH public value and a quote whose
//!    report data commits to `H(nonce || verifier_pub || enclave_pub)` —
//!    binding *both* channel halves to the attested identity.
//! 3. Both sides derive the session key with HKDF over the DH shared
//!    secret and the transcript.
//! 4. [`SecureChannel`] carries AES-GCM records with strictly increasing
//!    sequence numbers (replay and reordering rejected).

use crate::attestation::{generate_quote, verify_quote, AttestError, Measurement, Quote};
use cllm_crypto::dh::DhKeyPair;
use cllm_crypto::drbg::HashDrbg;
use cllm_crypto::kdf::hkdf;
use cllm_crypto::modes::Gcm;
use cllm_crypto::sha256::Sha256;

/// Errors during session establishment or record exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The quote failed verification.
    Attestation(AttestError),
    /// The attested measurement is not the expected one.
    WrongEnclave,
    /// The peer offered a degenerate DH public value.
    BadKeyShare,
    /// A record failed authentication.
    BadRecord,
    /// A record arrived out of order or was replayed.
    Replay,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Attestation(e) => write!(f, "attestation: {e}"),
            SessionError::WrongEnclave => f.write_str("attested measurement mismatch"),
            SessionError::BadKeyShare => f.write_str("degenerate DH key share"),
            SessionError::BadRecord => f.write_str("record authentication failed"),
            SessionError::Replay => f.write_str("record replayed or out of order"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Named phases of an attested session establishment, in protocol order.
///
/// The handshake functions themselves stay observer-free; callers that
/// time or trace a handshake (e.g. the serving simulator's
/// re-attestation path) report these phases to their own sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandshakePhase {
    /// Verifier emits nonce + ephemeral DH share ([`Verifier::start`]).
    Challenge,
    /// Enclave quotes the transcript and answers ([`enclave_respond`]).
    Respond,
    /// The verifier rejected the response (a failed attempt).
    Reject,
    /// Verifier checked the quote and derived keys ([`Verifier::finish`]).
    Verify,
    /// Both sides hold a working [`SecureChannel`].
    Channel,
}

impl HandshakePhase {
    /// Stable lower-case label for traces and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HandshakePhase::Challenge => "challenge",
            HandshakePhase::Respond => "respond",
            HandshakePhase::Reject => "reject",
            HandshakePhase::Verify => "verify",
            HandshakePhase::Channel => "channel",
        }
    }
}

/// The verifier's first flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Challenge {
    /// Fresh anti-replay nonce.
    pub nonce: [u8; 16],
    /// Verifier's ephemeral DH public value.
    pub verifier_public: u128,
}

/// The enclave's reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Enclave's ephemeral DH public value.
    pub enclave_public: u128,
    /// Quote binding the transcript (nonce + both public values).
    pub quote: Quote,
}

/// Transcript hash the quote commits to: `H(nonce || v_pub || e_pub)`.
fn transcript(nonce: &[u8; 16], verifier_public: u128, enclave_public: u128) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"cllm-session-v1");
    h.update(nonce);
    h.update(&verifier_public.to_be_bytes());
    h.update(&enclave_public.to_be_bytes());
    h.finalize()
}

fn session_key(shared: &[u8; 16], transcript: &[u8; 32]) -> [u8; 16] {
    hkdf(b"cllm-session-key", shared, transcript, 16)
        .try_into()
        .expect("requested 16 bytes")
}

/// Verifier side of the handshake.
#[derive(Debug)]
pub struct Verifier {
    keys: DhKeyPair,
    nonce: [u8; 16],
    golden: Measurement,
    hw_root: Vec<u8>,
}

impl Verifier {
    /// Start a handshake, pinning the expected measurement.
    #[must_use]
    pub fn start(golden: Measurement, hw_root: &[u8], seed: &[u8]) -> (Self, Challenge) {
        let mut drbg = HashDrbg::new(seed);
        let keys = DhKeyPair::generate(&mut drbg);
        let mut nonce = [0u8; 16];
        drbg.fill(&mut nonce);
        let challenge = Challenge {
            nonce,
            verifier_public: keys.public,
        };
        (
            Verifier {
                keys,
                nonce,
                golden,
                hw_root: hw_root.to_vec(),
            },
            challenge,
        )
    }

    /// Verify the enclave's response and derive the channel.
    pub fn finish(&self, response: &Response) -> Result<SecureChannel, SessionError> {
        let t = transcript(&self.nonce, self.keys.public, response.enclave_public);
        let measured =
            verify_quote(&response.quote, &self.hw_root, &t).map_err(SessionError::Attestation)?;
        if measured != self.golden {
            return Err(SessionError::WrongEnclave);
        }
        let shared = self
            .keys
            .shared_secret(response.enclave_public)
            .ok_or(SessionError::BadKeyShare)?;
        Ok(SecureChannel::new(session_key(&shared, &t)))
    }
}

/// Enclave side of the handshake.
///
/// `root_secret` is the platform attestation secret (held by hardware in
/// reality); `measurement` is the enclave's own identity.
pub fn enclave_respond(
    root_secret: &[u8],
    measurement: Measurement,
    svn: u16,
    challenge: &Challenge,
    seed: &[u8],
) -> Result<(Response, SecureChannel), SessionError> {
    let mut drbg = HashDrbg::new(seed);
    let keys = DhKeyPair::generate(&mut drbg);
    let shared = keys
        .shared_secret(challenge.verifier_public)
        .ok_or(SessionError::BadKeyShare)?;
    let t = transcript(&challenge.nonce, challenge.verifier_public, keys.public);
    let quote = generate_quote(root_secret, measurement, svn, &t);
    let channel = SecureChannel::new(session_key(&shared, &t));
    Ok((
        Response {
            enclave_public: keys.public,
            quote,
        },
        channel,
    ))
}

/// An established record channel: AES-GCM with strictly increasing
/// sequence numbers on both directions.
///
/// The session key is expanded once, into the cipher and GHASH table
/// every record of the session uses; they are dropped with the channel.
/// Each record is byte-for-byte what [`cllm_crypto::aead_seal`] gives
/// under the session key.
pub struct SecureChannel {
    gcm: Gcm,
    send_seq: u64,
    recv_seq: u64,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the session key.
        f.debug_struct("SecureChannel")
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish_non_exhaustive()
    }
}

/// One protected record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Sequence number (authenticated).
    pub seq: u64,
    /// Ciphertext + tag.
    pub body: Vec<u8>,
}

impl SecureChannel {
    fn new(key: [u8; 16]) -> Self {
        SecureChannel {
            gcm: Gcm::new(&key),
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// Encrypt and frame a message.
    pub fn send(&mut self, plaintext: &[u8]) -> Record {
        let seq = self.send_seq;
        self.send_seq += 1;
        let mut nonce = Vec::with_capacity(24);
        nonce.extend_from_slice(b"rec");
        nonce.extend_from_slice(&seq.to_be_bytes());
        let body = self.gcm.seal(&nonce, plaintext, &seq.to_be_bytes());
        Record { seq, body }
    }

    /// Verify, decrypt and de-frame a message; enforces in-order
    /// delivery (sequence must equal the expected next value).
    pub fn recv(&mut self, record: &Record) -> Result<Vec<u8>, SessionError> {
        if record.seq != self.recv_seq {
            return Err(SessionError::Replay);
        }
        let mut nonce = Vec::with_capacity(24);
        nonce.extend_from_slice(b"rec");
        nonce.extend_from_slice(&record.seq.to_be_bytes());
        let plaintext = self
            .gcm
            .open(&nonce, &record.body, &record.seq.to_be_bytes())
            .map_err(|_| SessionError::BadRecord)?;
        self.recv_seq += 1;
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Measurement {
        Measurement([0xCD; 32])
    }

    fn handshake() -> (SecureChannel, SecureChannel) {
        let (verifier, challenge) = Verifier::start(golden(), b"hw-root", b"verifier-seed");
        let (response, enclave_chan) =
            enclave_respond(b"hw-root", golden(), 7, &challenge, b"enclave-seed").unwrap();
        let verifier_chan = verifier.finish(&response).unwrap();
        (verifier_chan, enclave_chan)
    }

    #[test]
    fn handshake_and_bidirectional_records() {
        let (mut v, mut e) = handshake();
        let r1 = v.send(b"release the model key");
        assert_eq!(e.recv(&r1).unwrap(), b"release the model key");
        let r2 = e.send(b"key: 0123456789abcdef");
        assert_eq!(v.recv(&r2).unwrap(), b"key: 0123456789abcdef");
    }

    #[test]
    fn wrong_enclave_rejected() {
        let (verifier, challenge) = Verifier::start(golden(), b"hw-root", b"s1");
        let evil = Measurement([0xEE; 32]);
        let (response, _) = enclave_respond(b"hw-root", evil, 7, &challenge, b"s2").unwrap();
        assert!(matches!(
            verifier.finish(&response),
            Err(SessionError::WrongEnclave)
        ));
    }

    #[test]
    fn mitm_key_substitution_detected() {
        // A MITM relays the genuine quote but swaps in its own DH share.
        let (verifier, challenge) = Verifier::start(golden(), b"hw-root", b"s1");
        let (mut response, _) =
            enclave_respond(b"hw-root", golden(), 7, &challenge, b"s2").unwrap();
        let mut mitm_drbg = HashDrbg::new(b"mitm");
        let mitm = DhKeyPair::generate(&mut mitm_drbg);
        response.enclave_public = mitm.public;
        // The quote's transcript binding no longer matches.
        assert!(matches!(
            verifier.finish(&response),
            Err(SessionError::Attestation(_))
        ));
    }

    #[test]
    fn replayed_record_rejected() {
        let (mut v, mut e) = handshake();
        let r = v.send(b"one");
        assert!(e.recv(&r).is_ok());
        assert_eq!(e.recv(&r), Err(SessionError::Replay));
    }

    #[test]
    fn out_of_order_rejected() {
        let (mut v, mut e) = handshake();
        let _r0 = v.send(b"zero");
        let r1 = v.send(b"one");
        assert_eq!(e.recv(&r1), Err(SessionError::Replay));
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut v, mut e) = handshake();
        let mut r = v.send(b"secret payload");
        r.body[3] ^= 1;
        assert_eq!(e.recv(&r), Err(SessionError::BadRecord));
        // Failed receive does not advance the window; the original still
        // decrypts.
    }

    #[test]
    fn stale_challenge_quote_rejected() {
        // A quote produced for an older challenge cannot satisfy a new one.
        let (_, old_challenge) = Verifier::start(golden(), b"hw-root", b"old");
        let (old_response, _) =
            enclave_respond(b"hw-root", golden(), 7, &old_challenge, b"e").unwrap();
        let (fresh_verifier, _) = Verifier::start(golden(), b"hw-root", b"fresh");
        assert!(matches!(
            fresh_verifier.finish(&old_response),
            Err(SessionError::Attestation(_))
        ));
    }

    #[test]
    fn records_are_aead_seal_under_the_session_key() {
        // The record format: `aead_seal(key, "rec" || seq, msg, seq)`.
        let key = [0x3a; 16];
        let (mut tx, mut rx) = (SecureChannel::new(key), SecureChannel::new(key));
        for (seq, msg) in [&b""[..], b"x", &[7u8; 40]].into_iter().enumerate() {
            let seq = seq as u64;
            let nonce = [&b"rec"[..], &seq.to_be_bytes()].concat();
            let record = tx.send(msg);
            assert_eq!(
                record.body,
                cllm_crypto::aead_seal(&key, &nonce, msg, &seq.to_be_bytes())
            );
            assert_eq!(rx.recv(&record).unwrap(), msg);
        }
    }

    #[test]
    fn debug_hides_the_session_key() {
        let mut channel = SecureChannel::new([0x5c; 16]);
        let _ = channel.send(b"advance the send window");
        let dbg = format!("{channel:?}");
        assert_eq!(dbg, "SecureChannel { send_seq: 1, recv_seq: 0, .. }");
        assert!(!dbg.contains("92") && !dbg.contains("5c"), "{dbg}");
    }

    #[test]
    fn channels_derive_identical_keys() {
        let (mut v, mut e) = handshake();
        // Symmetric key: a record sealed by either side opens on the other.
        let r = e.send(b"ping");
        assert_eq!(v.recv(&r).unwrap(), b"ping");
    }
}
