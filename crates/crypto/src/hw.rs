//! AES-128-CTR and GHASH on the CPU's AES and carry-less-multiply
//! instructions: the path [`Ctr`](crate::modes::Ctr) and
//! [`Gcm`](crate::modes::Gcm) take wherever the CPU has them.
//!
//! The crate's only `unsafe` lives here. Every routine that uses the
//! instructions is compiled with `#[target_feature(enable = ...)]` and is
//! reached only through a [`Key`], which [`Key::new`] builds only after
//! `is_x86_feature_detected!` confirmed each of those features on the
//! running CPU. The rest of the crate calls the safe methods of [`Key`].
//!
//! * The keystream runs eight counter blocks through the rounds at a
//!   time, then four, then one, and a last partial block.
//! * GHASH runs as POLYVAL (RFC 8452, Appendix A): loaded blocks are
//!   byte-reversed, so a register holds the same 128-bit integer as the
//!   table path's `u128`, and the subkey becomes H·x. Each product is
//!   four carry-less multiplies, and four blocks are absorbed with one
//!   reduction over the precomputed H, H², H³ and H⁴.
//!
//! No table is indexed with key- or data-dependent values: the key
//! schedule runs on `aeskeygenassist` and the rounds on `aesenc`.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_insert_epi32, _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8,
    _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

/// An expanded AES-128 key with its GHASH subkey powers, for the
/// hardware path. It exists only on a CPU that has every feature its
/// routines are compiled for.
#[derive(Clone)]
pub(crate) struct Key {
    round_keys: [__m128i; 11],
    /// H·x, then its POLYVAL powers: `h[i]` absorbs the block `i + 1`
    /// places before the last of a run of four.
    h: [__m128i; 4],
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the round keys or the powers of H.
        f.debug_struct("Key").finish_non_exhaustive()
    }
}

impl Key {
    /// Expand `key` for the hardware path, or `None` if the CPU lacks
    /// any of AES-NI, PCLMULQDQ, SSSE3 and SSE4.1.
    pub(crate) fn new(key: &[u8; 16]) -> Option<Self> {
        let detected = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        // SAFETY: `expand` needs aes, pclmulqdq, ssse3 and sse4.1, and
        // all four were detected on this CPU just above.
        detected.then(|| unsafe { expand(key) })
    }

    /// XOR `data` with the CTR keystream from (`iv`, `counter`), the
    /// counter counting up modulo 2^32.
    pub(crate) fn ctr(&self, iv: &[u8; 12], counter: u32, data: &mut [u8]) {
        // SAFETY: a `Key` is only built by `Key::new`, after it detected
        // every feature `ctr` needs.
        unsafe { ctr(self, iv, counter, data) };
    }

    /// GCM-encrypt `data` in place under `iv` and `aad`; returns the tag.
    pub(crate) fn gcm_encrypt(&self, iv: &[u8; 12], data: &mut [u8], aad: &[u8]) -> [u8; 16] {
        // SAFETY: a `Key` is only built by `Key::new`, after it detected
        // every feature `gcm` needs.
        unsafe { gcm(self, iv, data, aad, Hash::Output) }
    }

    /// GCM-decrypt `data` in place under `iv` and `aad`; returns the tag
    /// the ciphertext should carry. The caller compares it and owns the
    /// plaintext's release.
    pub(crate) fn gcm_decrypt(&self, iv: &[u8; 12], data: &mut [u8], aad: &[u8]) -> [u8; 16] {
        // SAFETY: a `Key` is only built by `Key::new`, after it detected
        // every feature `gcm` needs.
        unsafe { gcm(self, iv, data, aad, Hash::Input) }
    }
}

/// Which side of the keystream XOR GHASH absorbs: the ciphertext is the
/// output when sealing and the input when opening.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hash {
    Neither,
    Output,
    Input,
}

/// Load 16 bytes in memory order.
#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline, so no detection
    // is needed.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// Store a register as 16 bytes in memory order.
#[inline]
fn store(block: &mut [u8; 16], x: __m128i) {
    // SAFETY: `block` is 16 writable bytes and `storeu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline, so no detection
    // is needed.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), x) }
}

/// Build the hardware key: the AES-128 key schedule on
/// `aeskeygenassist`, then H = E_K(0^128) and its powers.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn expand(key: &[u8; 16]) -> Key {
    let k0 = load(key);
    let k1 = next_round_key::<0x01>(k0);
    let k2 = next_round_key::<0x02>(k1);
    let k3 = next_round_key::<0x04>(k2);
    let k4 = next_round_key::<0x08>(k3);
    let k5 = next_round_key::<0x10>(k4);
    let k6 = next_round_key::<0x20>(k5);
    let k7 = next_round_key::<0x40>(k6);
    let k8 = next_round_key::<0x80>(k7);
    let k9 = next_round_key::<0x1b>(k8);
    let k10 = next_round_key::<0x36>(k9);
    let round_keys = [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10];

    let mut h_bytes = [0u8; 16];
    store(&mut h_bytes, encrypt(&round_keys, [_mm_setzero_si128()])[0]);
    let h = u128::from_be_bytes(h_bytes);
    let h1 = load(&mul_x(h).to_le_bytes());
    let h2 = dot(h1, h1);
    let h3 = dot(h2, h1);
    let h4 = dot(h3, h1);
    Key {
        round_keys,
        h: [h1, h2, h3, h4],
    }
}

/// One step of the AES-128 key schedule, with round constant `RCON`:
/// the top word of `aeskeygenassist` is SubWord(RotWord(w3)) ^ `RCON`,
/// and word i of the next key is that ^ words 0..=i of `prev`.
#[inline]
#[target_feature(enable = "aes")]
fn next_round_key<const RCON: i32>(prev: __m128i) -> __m128i {
    let top = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(prev));
    let mut k = prev;
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, top)
}

/// Multiply by x in POLYVAL's field, modulo x^128 + x^127 + x^126 +
/// x^121 + 1: GHASH's subkey H, read as the table path's `u128`,
/// becomes POLYVAL's H·x (RFC 8452, Appendix A).
const fn mul_x(h: u128) -> u128 {
    const LOW_TERMS: u128 = 0xc2 << 120 | 1;
    (h << 1) ^ ((h >> 127) * LOW_TERMS)
}

/// Run `N` blocks through the ten AES-128 rounds side by side.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt<const N: usize>(round_keys: &[__m128i; 11], mut blocks: [__m128i; N]) -> [__m128i; N] {
    for b in &mut blocks {
        *b = _mm_xor_si128(*b, round_keys[0]);
    }
    for rk in &round_keys[1..10] {
        for b in &mut blocks {
            *b = _mm_aesenc_si128(*b, *rk);
        }
    }
    for b in &mut blocks {
        *b = _mm_aesenclast_si128(*b, round_keys[10]);
    }
    blocks
}

/// The `N` counter blocks `iv || counter + i` (big-endian, modulo 2^32)
/// for `i` in `0..N`; `iv_block` is `iv` followed by four zero bytes.
#[inline]
#[target_feature(enable = "sse4.1")]
fn counter_blocks<const N: usize>(iv_block: __m128i, counter: u32) -> [__m128i; N] {
    let mut blocks = [iv_block; N];
    let mut c = counter;
    for b in &mut blocks {
        // Lane 3 is bytes 12..16, which must read as `c` big-endian.
        *b = _mm_insert_epi32::<3>(iv_block, i32::from_ne_bytes(c.to_be_bytes()));
        c = c.wrapping_add(1);
    }
    blocks
}

/// Reverse a register's bytes: a block loaded in memory order becomes
/// the `u128::from_be_bytes` the table path reads.
#[inline]
#[target_feature(enable = "ssse3")]
fn byte_reverse(x: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        x,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// A 256-bit carry-less product before its halves are combined: `lo`
/// and `hi` are the products of the low and of the high 64-bit halves,
/// `mid` the sum of the two cross products.
#[derive(Clone, Copy)]
struct Wide {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

/// `a·b` as a [`Wide`] product.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> Wide {
    Wide {
        lo: _mm_clmulepi64_si128::<0x00>(a, b),
        mid: _mm_xor_si128(
            _mm_clmulepi64_si128::<0x01>(a, b),
            _mm_clmulepi64_si128::<0x10>(a, b),
        ),
        hi: _mm_clmulepi64_si128::<0x11>(a, b),
    }
}

/// The sum of two [`Wide`] products.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn add(a: Wide, b: Wide) -> Wide {
    Wide {
        lo: _mm_xor_si128(a.lo, b.lo),
        mid: _mm_xor_si128(a.mid, b.mid),
        hi: _mm_xor_si128(a.hi, b.hi),
    }
}

/// Reduce a product `p` to `p·x^-128` modulo POLYVAL's polynomial,
/// which is P = x^128 + x^127 + x^126 + x^121 + 1.
///
/// Write `p` as `hi·x^128 + lo`; then `p·x^-128` is `hi + lo·x^-128`.
/// Each of two Montgomery steps multiplies a 128-bit `v = v1·x^64 + v0`
/// by x^-64: P is 1 modulo x^64, so `v + v0·P` is divisible by x^64,
/// and the quotient is `v1 + v0·x^64 + v0·(x^63 + x^62 + x^57)`, the
/// halves of `v` swapped plus one carry-less multiply by 0xc2 << 56.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn reduce(p: Wide) -> __m128i {
    const X63_X62_X57: i64 = i64::from_be_bytes([0xc2, 0, 0, 0, 0, 0, 0, 0]);
    let poly = _mm_set_epi64x(0, X63_X62_X57);
    let lo = _mm_xor_si128(p.lo, _mm_slli_si128::<8>(p.mid));
    let hi = _mm_xor_si128(p.hi, _mm_srli_si128::<8>(p.mid));
    let mut v = lo;
    for _ in 0..2 {
        let swapped = _mm_shuffle_epi32::<0x4e>(v);
        v = _mm_xor_si128(swapped, _mm_clmulepi64_si128::<0x00>(v, poly));
    }
    _mm_xor_si128(hi, v)
}

/// POLYVAL's product `a·b·x^-128`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn dot(a: __m128i, b: __m128i) -> __m128i {
    reduce(clmul(a, b))
}

/// Absorb `N` blocks, as loaded in memory order, into the running hash
/// `y`: four at a time, `(y + x0)·H⁴ + x1·H³ + x2·H² + x3·H` with one
/// reduction, then one at a time.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn absorb<const N: usize>(h: &[__m128i; 4], mut y: __m128i, blocks: [__m128i; N]) -> __m128i {
    let (quads, singles) = blocks.as_chunks::<4>();
    for quad in quads {
        let p = clmul(_mm_xor_si128(y, byte_reverse(quad[0])), h[3]);
        let p = add(p, clmul(byte_reverse(quad[1]), h[2]));
        let p = add(p, clmul(byte_reverse(quad[2]), h[1]));
        y = reduce(add(p, clmul(byte_reverse(quad[3]), h[0])));
    }
    for &block in singles {
        y = dot(_mm_xor_si128(y, byte_reverse(block)), h[0]);
    }
    y
}

/// Absorb `bytes` into `y` one zero-padded block at a time: the AAD and
/// a partial last block of data.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn absorb_bytes(h: &[__m128i; 4], mut y: __m128i, bytes: &[u8]) -> __m128i {
    for chunk in bytes.chunks(16) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        y = absorb(h, y, [load(&block)]);
    }
    y
}

/// XOR `N` blocks of `data` with the keystream from `counter`, and
/// absorb the side `hash` names into `y`.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn crypt_blocks<const N: usize>(
    key: &Key,
    iv_block: __m128i,
    counter: u32,
    data: &mut [[u8; 16]; N],
    hash: Hash,
    y: __m128i,
) -> __m128i {
    let ks = encrypt(&key.round_keys, counter_blocks::<N>(iv_block, counter));
    let mut input = [_mm_setzero_si128(); N];
    let mut output = [_mm_setzero_si128(); N];
    for i in 0..N {
        input[i] = load(&data[i]);
        output[i] = _mm_xor_si128(input[i], ks[i]);
        store(&mut data[i], output[i]);
    }
    match hash {
        Hash::Neither => y,
        Hash::Output => absorb(&key.h, y, output),
        Hash::Input => absorb(&key.h, y, input),
    }
}

/// XOR `data` with the keystream from (`iv`, `counter`): eight blocks
/// at a time, then four, then one, then the partial tail. GHASH absorbs
/// the side `hash` names into `y`, which is returned.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn crypt(
    key: &Key,
    iv: &[u8; 12],
    mut counter: u32,
    data: &mut [u8],
    hash: Hash,
    mut y: __m128i,
) -> __m128i {
    let mut iv_bytes = [0u8; 16];
    iv_bytes[..12].copy_from_slice(iv);
    let iv_block = load(&iv_bytes);
    let (blocks, tail) = data.as_chunks_mut::<16>();
    let (octets, rest) = blocks.as_chunks_mut::<8>();
    for octet in octets {
        y = crypt_blocks(key, iv_block, counter, octet, hash, y);
        counter = counter.wrapping_add(8);
    }
    let (quads, singles) = rest.as_chunks_mut::<4>();
    for quad in quads {
        y = crypt_blocks(key, iv_block, counter, quad, hash, y);
        counter = counter.wrapping_add(4);
    }
    for block in singles {
        y = crypt_blocks(key, iv_block, counter, std::array::from_mut(block), hash, y);
        counter = counter.wrapping_add(1);
    }
    if !tail.is_empty() {
        if hash == Hash::Input {
            y = absorb_bytes(&key.h, y, tail);
        }
        let mut block = [0u8; 16];
        block[..tail.len()].copy_from_slice(tail);
        crypt_blocks(
            key,
            iv_block,
            counter,
            std::array::from_mut(&mut block),
            Hash::Neither,
            y,
        );
        tail.copy_from_slice(&block[..tail.len()]);
        if hash == Hash::Output {
            y = absorb_bytes(&key.h, y, tail);
        }
    }
    y
}

/// CTR alone: the keystream XOR, with no GHASH.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn ctr(key: &Key, iv: &[u8; 12], counter: u32, data: &mut [u8]) {
    crypt(key, iv, counter, data, Hash::Neither, _mm_setzero_si128());
}

/// GCM over `data` in place: GHASH of the AAD, the keystream from
/// counter 2 with GHASH of the ciphertext side, the length block, and
/// the tag masked with E_K(J0), J0 = `iv || 1`.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gcm(key: &Key, iv: &[u8; 12], data: &mut [u8], aad: &[u8], hash: Hash) -> [u8; 16] {
    let y = absorb_bytes(&key.h, _mm_setzero_si128(), aad);
    let y = crypt(key, iv, 2, data, hash, y);
    let mut len_block = [0u8; 16];
    len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
    len_block[8..].copy_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    let y = absorb(&key.h, y, [load(&len_block)]);
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(iv);
    j0[15] = 1;
    let mask = encrypt(&key.round_keys, [load(&j0)])[0];
    let mut tag = [0u8; 16];
    store(&mut tag, _mm_xor_si128(byte_reverse(y), mask));
    tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn debug_prints_no_round_key_or_power_of_h() {
        let Some(key) = Key::new(&[0x5c; 16]) else {
            return;
        };
        let dbg = format!("{key:?}");
        assert_eq!(dbg, "Key { .. }");
        for secret in key.round_keys.iter().chain(&key.h) {
            let mut bytes = [0u8; 16];
            store(&mut bytes, *secret);
            assert!(!dbg.contains(&to_hex(&bytes)), "{dbg}");
        }
    }
}
