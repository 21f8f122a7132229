//! Property-based tests for the crypto substrate.

use cllm_crypto::modes::{Ctr, Gcm};
use cllm_crypto::sha256::{from_hex, sha256, to_hex, Sha256};
use cllm_crypto::{aead_open, aead_seal, hmac::hmac_sha256, hmac::verify_hmac, kdf};
use proptest::prelude::*;

proptest! {
    #[test]
    fn gcm_roundtrip(key in any::<[u8; 16]>(), iv in any::<[u8; 12]>(),
                     pt in proptest::collection::vec(any::<u8>(), 0..512),
                     aad in proptest::collection::vec(any::<u8>(), 0..64)) {
        let gcm = Gcm::new(&key);
        let (ct, tag) = gcm.encrypt(&iv, &pt, &aad);
        prop_assert_eq!(ct.len(), pt.len());
        let back = gcm.decrypt(&iv, &ct, &aad, &tag).expect("tag must verify");
        prop_assert_eq!(back, pt);
    }

    #[test]
    fn gcm_detects_any_single_bitflip(key in any::<[u8; 16]>(), nonce in any::<[u8; 12]>(),
                                      pt in proptest::collection::vec(any::<u8>(), 0..128),
                                      aad in proptest::collection::vec(any::<u8>(), 0..40),
                                      pick in any::<usize>(), bit in 0u8..8) {
        // Flip one bit anywhere in ciphertext, tag or AAD.
        let gcm = Gcm::new(&key);
        let mut sealed = gcm.seal(&nonce, &pt, &aad);
        let mut aad = aad;
        let idx = pick % (sealed.len() + aad.len());
        if let Some(byte) = sealed.get_mut(idx) {
            *byte ^= 1 << bit;
        } else {
            aad[idx - sealed.len()] ^= 1 << bit;
        }
        prop_assert!(gcm.open(&nonce, &sealed, &aad).is_err());
        prop_assert!(aead_open(&key, &nonce, &sealed, &aad).is_err());
    }

    #[test]
    fn ctr_is_involutive(key in any::<[u8; 16]>(), iv in any::<[u8; 12]>(),
                         counter in any::<u32>(),
                         data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let ctr = Ctr::new(&key);
        let mut buf = data.clone();
        ctr.apply(&iv, counter, &mut buf);
        ctr.apply(&iv, counter, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn aead_seal_roundtrip(key in any::<[u8; 16]>(),
                           nonce in proptest::collection::vec(any::<u8>(), 0..32),
                           pt in proptest::collection::vec(any::<u8>(), 0..256)) {
        let sealed = aead_seal(&key, &nonce, &pt, b"aad");
        prop_assert_eq!(sealed.len(), pt.len() + 16);
        prop_assert_eq!(aead_open(&key, &nonce, &sealed, b"aad").unwrap(), pt);
    }

    #[test]
    fn sha256_incremental_any_split(data in proptest::collection::vec(any::<u8>(), 0..300),
                                    split_frac in 0.0f64..1.0) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
    }

    #[test]
    fn hmac_verify_consistent(key in proptest::collection::vec(any::<u8>(), 0..80),
                              msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert!(verify_hmac(&key, &msg, &tag));
    }

    #[test]
    fn hkdf_prefix_consistency(salt in proptest::collection::vec(any::<u8>(), 0..32),
                               ikm in proptest::collection::vec(any::<u8>(), 1..64),
                               short in 1usize..32, long in 32usize..128) {
        let a = kdf::hkdf(&salt, &ikm, b"info", short);
        let b = kdf::hkdf(&salt, &ikm, b"info", long);
        prop_assert_eq!(&a[..], &b[..short]);
    }
}
