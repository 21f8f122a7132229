//! Diffie-Hellman key agreement over GF(2^127 - 1).
//!
//! The attested-session protocol needs an ephemeral key agreement so the
//! model owner and the enclave can derive a channel key that the
//! attestation quote can *bind* (preventing relay/MITM). We implement
//! textbook DH over the Mersenne prime `p = 2^127 - 1`.
//!
//! This group is large enough to exercise the real protocol logic and far
//! too small for actual security — like the rest of `cllm-crypto` it is a
//! faithful functional stand-in, not production cryptography (a real
//! deployment uses X25519/P-384 inside the quote's report data).

use crate::drbg::HashDrbg;

/// The Mersenne prime 2^127 - 1.
pub const P: u128 = (1u128 << 127) - 1;

/// Group generator (a small primitive-ish element; any generator of a
/// large subgroup suffices for the simulation).
pub const G: u128 = 43;

/// `a mod p` for any `u128`, folding bit 127 back in (2^127 ≡ 1 mod p).
fn reduce(a: u128) -> u128 {
    let folded = (a & P) + (a >> 127); // <= 2^127
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// `(a * b) mod p` from four 64×64-bit limb products.
///
/// With both operands below 2^127 the 254-bit product is
/// `hi·2^128 + lo`, and since 2^127 ≡ 1 (mod p) it folds to
/// `2·hi + (lo mod 2^127) + (lo >> 127)`, which fits a `u128`.
#[must_use]
pub fn mulmod(a: u128, b: u128) -> u128 {
    const LOW: u128 = u64::MAX as u128;
    let (a, b) = (reduce(a), reduce(b));
    let (a1, a0) = (a >> 64, a & LOW);
    let (b1, b0) = (b >> 64, b & LOW);
    // Each cross product is below 2^127, so their sum fits.
    let cross = a1 * b0 + a0 * b1;
    let (lo, carry) = (a0 * b0).overflowing_add(cross << 64);
    let hi = a1 * b1 + (cross >> 64) + u128::from(carry);
    reduce((hi << 1) + (lo & P) + (lo >> 127))
}

/// `base^exp mod p` by square-and-multiply.
#[must_use]
pub fn modpow(mut base: u128, mut exp: u128) -> u128 {
    base = reduce(base);
    let mut acc = 1u128;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base);
        }
        base = mulmod(base, base);
        exp >>= 1;
    }
    acc
}

/// An ephemeral DH key pair.
#[derive(Clone)]
pub struct DhKeyPair {
    secret: u128,
    /// The public value `g^secret mod p`.
    pub public: u128,
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DhKeyPair {{ public: {:#x}, .. }}", self.public)
    }
}

impl DhKeyPair {
    /// Generate a key pair from the given DRBG.
    #[must_use]
    pub fn generate(drbg: &mut HashDrbg) -> Self {
        let mut bytes = [0u8; 16];
        drbg.fill(&mut bytes);
        // Clamp into [2, p-2].
        let secret = (u128::from_be_bytes(bytes) % (P - 3)) + 2;
        DhKeyPair {
            secret,
            public: modpow(G, secret),
        }
    }

    /// Compute the shared secret with a peer's public value.
    ///
    /// Returns `None` for degenerate peer values (0, 1, p-1) — small
    /// subgroup / identity elements a MITM could force.
    #[must_use]
    pub fn shared_secret(&self, peer_public: u128) -> Option<[u8; 16]> {
        let peer = peer_public % P;
        if peer <= 1 || peer == P - 1 {
            return None;
        }
        let s = modpow(peer, self.secret);
        Some(
            (s % (1u128 << 127)).to_be_bytes()[0..16]
                .try_into()
                .expect("16 bytes"),
        )
    }
}

/// `(a * b) mod p` by Russian-peasant multiplication: the oracle for
/// the limb-wise [`mulmod`].
#[cfg(test)]
fn peasant_mulmod(mut a: u128, mut b: u128) -> u128 {
    /// `(a + b) mod p` without overflow (inputs < p < 2^127).
    fn addmod(a: u128, b: u128) -> u128 {
        let s = a + b; // < 2^128, no overflow since a,b < 2^127
        if s >= P {
            s - P
        } else {
            s
        }
    }
    a %= P;
    b %= P;
    let mut acc = 0u128;
    while b > 0 {
        if b & 1 == 1 {
            acc = addmod(acc, a);
        }
        a = addmod(a, a);
        b >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mulmod_matches_small_cases() {
        assert_eq!(mulmod(7, 9), 63);
        assert_eq!(mulmod(P - 1, 2), P - 2); // (-1)*2 = -2 mod p
        assert_eq!(mulmod(P - 1, P - 1), 1); // (-1)^2 = 1
    }

    #[test]
    fn modpow_basics() {
        assert_eq!(modpow(2, 10), 1024);
        assert_eq!(modpow(G, 0), 1);
        assert_eq!(modpow(G, 1), G);
        // Fermat: g^(p-1) = 1 mod p.
        assert_eq!(modpow(G, P - 1), 1);
    }

    #[test]
    fn limb_mulmod_matches_the_peasant_oracle_on_edge_values() {
        let edges = [
            0,
            1,
            2,
            P - 1,
            P,
            P + 1,
            1 << 127,
            u128::MAX,
            u128::MAX - 1,
            1 << 64,
        ];
        for a in edges {
            for b in edges {
                assert_eq!(mulmod(a, b), peasant_mulmod(a, b), "{a:#x} * {b:#x}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn limb_mulmod_matches_the_peasant_oracle(a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
            let (a, b) = (u128::from_be_bytes(a), u128::from_be_bytes(b));
            prop_assert_eq!(mulmod(a, b), peasant_mulmod(a, b));
            // Operands already reduced below p take the same path.
            prop_assert_eq!(mulmod(a % P, b % P), peasant_mulmod(a, b));
        }
    }

    #[test]
    fn dh_agreement() {
        let mut d1 = HashDrbg::new(b"alice");
        let mut d2 = HashDrbg::new(b"bob");
        let a = DhKeyPair::generate(&mut d1);
        let b = DhKeyPair::generate(&mut d2);
        let s1 = a.shared_secret(b.public).unwrap();
        let s2 = b.shared_secret(a.public).unwrap();
        assert_eq!(s1, s2, "both sides derive the same secret");
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn third_party_gets_different_secret() {
        let mut d = HashDrbg::new(b"seed");
        let a = DhKeyPair::generate(&mut d);
        let b = DhKeyPair::generate(&mut d);
        let eve = DhKeyPair::generate(&mut d);
        assert_ne!(
            a.shared_secret(b.public).unwrap(),
            eve.shared_secret(b.public).unwrap()
        );
    }

    #[test]
    fn degenerate_publics_rejected() {
        let mut d = HashDrbg::new(b"x");
        let a = DhKeyPair::generate(&mut d);
        assert!(a.shared_secret(0).is_none());
        assert!(a.shared_secret(1).is_none());
        assert!(a.shared_secret(P - 1).is_none());
        assert!(a.shared_secret(P).is_none()); // p ≡ 0
    }

    #[test]
    fn debug_hides_secret() {
        let mut d = HashDrbg::new(b"dbg");
        let kp = DhKeyPair::generate(&mut d);
        let s = format!("{kp:?}");
        assert!(s.contains("public"));
        assert!(!s.contains(&format!("{}", kp.secret)));
    }
}
