//! Block-cipher modes: CTR streaming and GCM authenticated encryption.
//!
//! Each key picks its engine once, at [`Ctr::new`] or [`Gcm::new`].
//! On an x86-64 CPU with AES-NI, PCLMULQDQ, SSSE3 and SSE4.1 it is the
//! hardware path of the `hw` module, which runs each operation in one
//! call. Elsewhere it is the table path: T-table AES, with both modes
//! drawing their keystream from one routine, `keystream`, and GHASH over
//! a per-key table of the sixteen 4-bit multiples of its subkey
//! (Shoup's method). Both engines give the same bytes, and the table
//! path is the oracle the hardware path is tested against.
//!
//! GCM opens in one pass, each ciphertext block hashed and decrypted
//! before the next is read, and releases the plaintext only once the
//! tag verifies.

use crate::aes::Aes128;
#[cfg(target_arch = "x86_64")]
use crate::hw;
use crate::{ct_eq, sha256, AuthError};

/// A key's engine, chosen once when the key is set up.
#[derive(Clone)]
enum Engine {
    /// AES-NI rounds and carry-less-multiply GHASH, on a CPU that has
    /// every feature they need.
    #[cfg(target_arch = "x86_64")]
    Hw(hw::Key),
    /// T-table AES and the 4-bit GHASH table: the portable fallback.
    Table(Aes128, GhashKey),
}

impl Engine {
    /// The hardware engine where the CPU supports it, else the table one.
    fn new(key: &[u8; 16]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(key) = hw::Key::new(key) {
            return Engine::Hw(key);
        }
        Engine::table(key)
    }

    /// The table engine, whatever the CPU.
    fn table(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let h = u128::from_be_bytes(cipher.encrypt(&[0u8; 16]));
        Engine::Table(cipher, GhashKey::new(h))
    }
}

/// AES-128-CTR keystream cipher.
///
/// Used by the LUKS-like full-disk layer (`cllm-tee::sealed::BlockDevice`):
/// each sector gets a distinct initial counter derived from its index, like
/// ESSIV/XTS sector tweaking in spirit.
#[derive(Clone)]
pub struct Ctr {
    engine: Engine,
}

impl std::fmt::Debug for Ctr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Ctr").finish_non_exhaustive()
    }
}

impl Ctr {
    /// Create a CTR cipher from a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Ctr {
            engine: Engine::new(key),
        }
    }

    /// XOR `data` in place with the keystream starting at (`iv`, `counter`).
    ///
    /// Encryption and decryption are the same operation.
    pub fn apply(&self, iv: &[u8; 12], counter: u32, data: &mut [u8]) {
        match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Hw(key) => key.ctr(iv, counter, data),
            Engine::Table(cipher, _) => keystream(cipher, iv, counter, data, xor),
        }
    }
}

/// Walk `data` in 16-byte chunks (the last may be shorter), handing each
/// to `each` with its keystream block `E_K(iv || counter)`, the counter
/// counting up from `counter` modulo 2^32 — the one CTR keystream
/// routine behind the table path of [`Ctr`] and [`Gcm`].
fn keystream(
    cipher: &Aes128,
    iv: &[u8; 12],
    mut counter: u32,
    data: &mut [u8],
    mut each: impl FnMut(&mut [u8], &[u8; 16]),
) {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(iv);
    for chunk in data.chunks_mut(16) {
        block[12..].copy_from_slice(&counter.to_be_bytes());
        each(chunk, &cipher.encrypt(&block));
        counter = counter.wrapping_add(1);
    }
}

/// XOR a chunk of at most 16 bytes with a keystream block.
fn xor(chunk: &mut [u8], ks: &[u8; 16]) {
    for (b, k) in chunk.iter_mut().zip(ks) {
        *b ^= k;
    }
}

/// The 12-byte GCM IV for an AEAD nonce of any length: the first 12
/// bytes of its SHA-256.
fn derive_iv(nonce: &[u8]) -> [u8; 12] {
    let h = sha256::sha256(nonce);
    h[..12].try_into().expect("sha256 output is 32 bytes")
}

/// AES-128-GCM authenticated encryption (NIST SP 800-38D).
///
/// Used for Gramine-protected-file-style sealed blobs and attestation
/// channel payloads.
#[derive(Clone)]
pub struct Gcm {
    engine: Engine,
}

impl std::fmt::Debug for Gcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the key or H: H and one valid tag forge tags.
        f.debug_struct("Gcm").finish_non_exhaustive()
    }
}

impl Gcm {
    /// Create a GCM instance from a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Gcm {
            engine: Engine::new(key),
        }
    }

    /// Encrypt `plaintext` with additional authenticated data `aad`.
    /// Returns `(ciphertext, tag)`.
    #[must_use]
    pub fn encrypt(&self, iv: &[u8; 12], plaintext: &[u8], aad: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let mut ct = plaintext.to_vec();
        let tag = self.encrypt_in_place(iv, &mut ct, aad);
        (ct, tag)
    }

    /// Decrypt and verify in one pass. Returns `None` on tag mismatch,
    /// after zeroing the plaintext it decrypted.
    #[must_use]
    pub fn decrypt(
        &self,
        iv: &[u8; 12],
        ciphertext: &[u8],
        aad: &[u8],
        tag: &[u8; 16],
    ) -> Option<Vec<u8>> {
        let mut pt = ciphertext.to_vec();
        self.decrypt_in_place(iv, &mut pt, aad, tag).then_some(pt)
    }

    /// Seal as [`crate::aead_seal`] does under this instance's key:
    /// `ciphertext || tag`, with `nonce` hashed down to the GCM IV.
    #[must_use]
    pub fn seal(&self, nonce: &[u8], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut sealed = Vec::with_capacity(plaintext.len() + 16);
        sealed.extend_from_slice(plaintext);
        let tag = self.encrypt_in_place(&derive_iv(nonce), &mut sealed, aad);
        sealed.extend_from_slice(&tag);
        sealed
    }

    /// Open a blob from [`Gcm::seal`] or [`crate::aead_seal`] under this
    /// instance's key.
    ///
    /// # Errors
    ///
    /// [`AuthError`] if the blob is shorter than a tag or the tag does
    /// not verify (wrong key, wrong nonce, or tampering).
    pub fn open(&self, nonce: &[u8], sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, AuthError> {
        let Some(split) = sealed.len().checked_sub(16) else {
            return Err(AuthError);
        };
        let (ct, tag) = sealed.split_at(split);
        let tag: &[u8; 16] = tag.try_into().expect("split leaves 16 bytes");
        self.decrypt(&derive_iv(nonce), ct, aad, tag)
            .ok_or(AuthError)
    }

    /// Encrypt `data` in place, hashing each ciphertext block as it is
    /// produced; returns the tag.
    fn encrypt_in_place(&self, iv: &[u8; 12], data: &mut [u8], aad: &[u8]) -> [u8; 16] {
        match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Hw(key) => key.gcm_encrypt(iv, data, aad),
            Engine::Table(cipher, ghash) => {
                let mut ghash = Ghash::new(ghash, aad);
                keystream(cipher, iv, 2, data, |chunk, ks| {
                    xor(chunk, ks);
                    ghash.update_padded(chunk);
                });
                finish_tag(cipher, iv, ghash, aad.len(), data.len())
            }
        }
    }

    /// Decrypt `data` in place, hashing each ciphertext block before it
    /// is decrypted, and compare the tag. Returns whether it verified;
    /// if not, `data` is zeroed.
    fn decrypt_in_place(&self, iv: &[u8; 12], data: &mut [u8], aad: &[u8], tag: &[u8; 16]) -> bool {
        let expected = match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Hw(key) => key.gcm_decrypt(iv, data, aad),
            Engine::Table(cipher, ghash) => {
                let mut ghash = Ghash::new(ghash, aad);
                // CTR starts at 2 for data; counter 1 is reserved for the tag mask.
                keystream(cipher, iv, 2, data, |chunk, ks| {
                    ghash.update_padded(chunk);
                    xor(chunk, ks);
                });
                finish_tag(cipher, iv, ghash, aad.len(), data.len())
            }
        };
        if ct_eq(&expected, tag) {
            return true;
        }
        data.fill(0);
        // Keep the zeroing stores: the caller drops the buffer unread.
        std::hint::black_box(&data);
        false
    }
}

/// Finish GHASH with the length block and mask it with E_K(J0), where
/// J0 = IV || 0^31 || 1.
fn finish_tag(
    cipher: &Aes128,
    iv: &[u8; 12],
    mut ghash: Ghash<'_>,
    aad_len: usize,
    ct_len: usize,
) -> [u8; 16] {
    let mut len_block = [0u8; 16];
    len_block[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
    len_block[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
    ghash.update_padded(&len_block);
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(iv);
    j0[15] = 1;
    (ghash.y ^ u128::from_be_bytes(cipher.encrypt(&j0))).to_be_bytes()
}

/// Multiply by x in GCM's bit order (bit 0 = MSB): shift right, folding
/// the dropped x^128 back in with the GCM polynomial
/// x^128 + x^7 + x^2 + x + 1.
const fn mul_x(v: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    (v >> 1) ^ ((v & 1) * R)
}

/// GHASH key material: `table[i]` is `i·H` for each 4-bit `i`, where the
/// nibble's high bit is the x^0 coefficient (Shoup's 4-bit method).
#[derive(Clone)]
struct GhashKey {
    table: [u128; 16],
}

impl GhashKey {
    fn new(h: u128) -> Self {
        let mut table = [0u128; 16];
        table[8] = h;
        table[4] = mul_x(h);
        table[2] = mul_x(table[4]);
        table[1] = mul_x(table[2]);
        for i in 1usize..16 {
            if !i.is_power_of_two() {
                let low = i & i.wrapping_neg();
                table[i] = table[low] ^ table[i ^ low];
            }
        }
        GhashKey { table }
    }

    /// `x·H` in GF(2^128): Horner's rule over the 32 nibbles of `x`,
    /// from the highest-degree one (the low four bits) down, each step
    /// `z = z·x^4 + table[nibble]`.
    ///
    /// Multiplying by x^4 shifts `z` right by four bits; the bits it
    /// drops are the coefficients of x^128 and up. Rather than reduce
    /// them at every step, each 64-bit half of `x` collects its 64
    /// dropped bits and folds them back at once: x^(128+j) is
    /// x^j·(1 + x + x^2 + x^7), and with j < 64 none of those terms
    /// reaches x^128 again.
    fn mul(&self, x: u128) -> u128 {
        let mut z = 0u128;
        for half in [x as u64, (x >> 64) as u64] {
            let mut dropped = 0u64;
            for i in 0..16 {
                let nibble = (half >> (4 * i)) & 0xf;
                dropped = (dropped >> 4) | ((z as u64) << 60);
                z = (z >> 4) ^ self.table[nibble as usize];
            }
            // Bit 63 of `dropped` is the x^128 coefficient.
            let e = u128::from(dropped) << 64;
            z ^= e ^ (e >> 1) ^ (e >> 2) ^ (e >> 7);
        }
        z
    }
}

/// A GHASH computation in progress.
struct Ghash<'k> {
    key: &'k GhashKey,
    y: u128,
}

impl<'k> Ghash<'k> {
    /// Start GHASH under `key` with the additional authenticated data.
    fn new(key: &'k GhashKey, aad: &[u8]) -> Self {
        let mut ghash = Ghash { key, y: 0 };
        for chunk in aad.chunks(16) {
            ghash.update_padded(chunk);
        }
        ghash
    }

    /// Absorb one block of at most 16 bytes, zero-padded.
    fn update_padded(&mut self, chunk: &[u8]) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        self.y = self.key.mul(self.y ^ u128::from_be_bytes(block));
    }
}

/// Multiply two elements of GF(2^128) with the GCM polynomial
/// x^128 + x^7 + x^2 + x + 1, using the GCM bit order (bit 0 = MSB), one
/// bit at a time: the oracle for the table-driven [`GhashKey::mul`].
#[cfg(test)]
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, to_hex};
    use proptest::prelude::*;

    #[test]
    fn nist_gcm_test_case_1() {
        // Key 0^128, IV 0^96, empty pt/aad -> tag 58e2fccefa7e3061367f1d57a4e7455a.
        let gcm = Gcm::new(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_gcm_test_case_2() {
        // Key 0^128, IV 0^96, pt 0^128 ->
        // ct 0388dace60b6a392f328c2b971b2fe78, tag ab6e47d42cec13bdf53a67b21257bddf.
        let gcm = Gcm::new(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], &[0u8; 16], b"");
        assert_eq!(to_hex(&ct), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    #[test]
    fn gcm_roundtrip_with_aad() {
        let key: [u8; 16] = from_hex("feffe9928665731c6d6a8f9467308308")
            .unwrap()
            .try_into()
            .unwrap();
        let gcm = Gcm::new(&key);
        let iv = [3u8; 12];
        let (ct, tag) = gcm.encrypt(&iv, b"confidential weights", b"manifest-v1");
        let pt = gcm.decrypt(&iv, &ct, b"manifest-v1", &tag).unwrap();
        assert_eq!(pt, b"confidential weights");
        assert!(gcm.decrypt(&iv, &ct, b"manifest-v2", &tag).is_none());
    }

    #[test]
    fn ctr_roundtrip_and_seekability() {
        let ctr = Ctr::new(&[5u8; 16]);
        let iv = [9u8; 12];
        let mut data = b"sector payload for the LUKS-like device".to_vec();
        let orig = data.clone();
        ctr.apply(&iv, 7, &mut data);
        assert_ne!(data, orig);
        ctr.apply(&iv, 7, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_different_counters_differ() {
        let ctr = Ctr::new(&[5u8; 16]);
        let iv = [0u8; 12];
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr.apply(&iv, 0, &mut a);
        ctr.apply(&iv, 1, &mut b);
        assert_ne!(a, b);
        // Counter 1's keystream block equals the second block of counter 0.
        assert_eq!(&a[16..32], &b[..16]);
    }

    /// `x·y` through the table of `y`.
    fn table_mul(x: u128, y: u128) -> u128 {
        GhashKey::new(y).mul(x)
    }

    #[test]
    fn gf_mul_identity_and_commutativity() {
        // In GCM bit order, the multiplicative identity is 0x80...0 (bit0=MSB).
        let one: u128 = 1 << 127;
        let x = 0x0123456789abcdef0123456789abcdefu128;
        assert_eq!(table_mul(x, one), x);
        assert_eq!(table_mul(one, x), x);
        let y = 0xfedcba9876543210fedcba9876543210u128;
        assert_eq!(table_mul(x, y), table_mul(y, x));
    }

    #[test]
    fn gf_mul_distributes_over_xor() {
        let a = 0xdeadbeefdeadbeefdeadbeefdeadbeefu128;
        let b = 0x0badf00d0badf00d0badf00d0badf00du128;
        let c = 0x11112222333344445555666677778888u128;
        assert_eq!(table_mul(a ^ b, c), table_mul(a, c) ^ table_mul(b, c));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn table_ghash_matches_the_bit_serial_multiply(x in any::<[u8; 16]>(),
                                                       y in any::<[u8; 16]>()) {
            let (x, y) = (u128::from_be_bytes(x), u128::from_be_bytes(y));
            prop_assert_eq!(table_mul(x, y), gf_mul(x, y));
        }
    }

    #[test]
    fn table_ghash_matches_the_bit_serial_multiply_on_edge_elements() {
        let edges = [0, 1, 1 << 127, u128::MAX, 0xe1 << 120, 0xf, 0xf << 124];
        for x in edges {
            for y in edges {
                assert_eq!(table_mul(x, y), gf_mul(x, y), "{x:#x} · {y:#x}");
            }
        }
    }

    #[test]
    fn debug_hides_the_key_and_ghash_subkey() {
        let gcm = Gcm::new(&[0x5c; 16]);
        let h = u128::from_be_bytes(Aes128::new(&[0x5c; 16]).encrypt(&[0u8; 16]));
        let dbg = format!("{gcm:?}");
        assert_eq!(dbg, "Gcm { .. }");
        for secret in [
            "92".to_string(),
            "5c".into(),
            h.to_string(),
            format!("{h:x}"),
        ] {
            assert!(!dbg.contains(&secret), "{dbg} shows {secret}");
        }
    }

    /// The table path under `key`, whatever the CPU: the oracle for the
    /// engine `new` picks.
    fn table_gcm(key: &[u8; 16]) -> Gcm {
        Gcm {
            engine: Engine::table(key),
        }
    }

    fn table_ctr(key: &[u8; 16]) -> Ctr {
        Ctr {
            engine: Engine::table(key),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_cpu_with_aes_and_clmul_gets_the_hardware_path() {
        if is_x86_feature_detected!("aes") && is_x86_feature_detected!("pclmulqdq") {
            assert!(matches!(Gcm::new(&[1; 16]).engine, Engine::Hw(_)));
            assert!(matches!(Ctr::new(&[1; 16]).engine, Engine::Hw(_)));
        }
    }

    /// Assert that the engine `new` picks gives the table path's bytes
    /// and tags through every entry point: GCM under `nonce` and the IV it
    /// derives, and CTR from counter 2 (GCM's data keystream) and from
    /// each of `counters`.
    fn assert_engines_agree(key: &[u8; 16], nonce: &[u8], aad: &[u8], pt: &[u8], counters: &[u32]) {
        let (gcm, table) = (Gcm::new(key), table_gcm(key));
        let iv = derive_iv(nonce);
        let (ct, tag) = table.encrypt(&iv, pt, aad);
        let sealed = [ct.as_slice(), &tag].concat();
        assert!(gcm.encrypt(&iv, pt, aad) == (ct.clone(), tag), "encrypt");
        assert!(gcm.seal(nonce, pt, aad) == sealed, "seal");
        assert!(crate::aead_seal(key, nonce, pt, aad) == sealed, "aead_seal");
        assert!(
            gcm.decrypt(&iv, &ct, aad, &tag).as_deref() == Some(pt),
            "decrypt"
        );
        assert!(gcm.open(nonce, &sealed, aad).as_deref() == Ok(pt), "open");
        let opened = crate::aead_open(key, nonce, &sealed, aad);
        assert!(opened.as_deref() == Ok(pt), "aead_open");
        let mut data = pt.to_vec();
        Ctr::new(key).apply(&iv, 2, &mut data);
        assert!(data == ct, "ctr from 2");
        for &counter in counters {
            let (mut hw, mut tab) = (pt.to_vec(), pt.to_vec());
            Ctr::new(key).apply(&iv, counter, &mut hw);
            table_ctr(key).apply(&iv, counter, &mut tab);
            assert!(hw == tab, "ctr from {counter}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn the_chosen_engine_gives_the_table_paths_bytes(
            key in any::<[u8; 16]>(),
            nonce in proptest::collection::vec(any::<u8>(), 0..24),
            aad in proptest::collection::vec(any::<u8>(), 0..81),
            pt in proptest::collection::vec(any::<u8>(), 0..701),
            counter in any::<u32>(),
            wrap in 0u32..48,
        ) {
            // `u32::MAX - wrap` wraps the counter inside longer buffers.
            assert_engines_agree(&key, &nonce, &aad, &pt, &[counter, u32::MAX - wrap]);
        }

        #[test]
        fn a_flipped_bit_fails_and_zeroes_the_plaintext_on_either_engine(
            key in any::<[u8; 16]>(),
            iv in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..81),
            pt in proptest::collection::vec(any::<u8>(), 1..301),
            pick in any::<usize>(),
            bit in 0u8..8,
        ) {
            for gcm in [Gcm::new(&key), table_gcm(&key)] {
                let (mut ct, mut tag) = gcm.encrypt(&iv, &pt, &aad);
                let mut aad = aad.clone();
                let idx = pick % (ct.len() + tag.len() + aad.len());
                if let Some(byte) = ct.get_mut(idx) {
                    *byte ^= 1 << bit;
                } else if let Some(byte) = tag.get_mut(idx - ct.len()) {
                    *byte ^= 1 << bit;
                } else {
                    aad[idx - ct.len() - tag.len()] ^= 1 << bit;
                }
                let mut data = ct.clone();
                prop_assert!(!gcm.decrypt_in_place(&iv, &mut data, &aad, &tag));
                prop_assert!(data.iter().all(|&b| b == 0), "plaintext left behind");
                prop_assert!(gcm.decrypt(&iv, &ct, &aad, &tag).is_none());
            }
        }
    }

    #[test]
    fn the_chosen_engine_gives_the_table_paths_bytes_on_4_mib_and_13_bytes() {
        let key: [u8; 16] = std::array::from_fn(|i| (i * 29 + 5) as u8);
        let pt: Vec<u8> = (0..(4 << 20) + 13)
            .map(|i| (i * 131 + i / 509) as u8)
            .collect();
        assert_engines_agree(&key, b"weights", b"cllm-model-v1", &pt, &[]);
    }

    #[test]
    fn ctr_debug_hides_the_key() {
        assert_eq!(format!("{:?}", Ctr::new(&[0x5c; 16])), "Ctr { .. }");
    }
}
