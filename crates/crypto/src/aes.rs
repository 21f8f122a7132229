//! AES-128 block cipher (FIPS-197).
//!
//! Stand-in for the hardware memory-encryption engines (Intel MKTME/TDX
//! MEE, SGX MEE) and for the software crypto of Gramine protected files.
//! This is the table path of [`crate::modes`]: CTR and GCM run on it
//! where the CPU lacks AES-NI, and test the hardware path against it.
//!
//! The state is four big-endian column words. Each of the nine full
//! rounds is sixteen lookups into four 256-entry T-tables, which fold
//! SubBytes, ShiftRows and MixColumns into one step and are built at
//! compile time from the S-box; the last round, which has no
//! MixColumns, goes through the S-box itself.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ ((b >> 7) * 0x1b)
}

/// The T-tables. `TE[0][x]` is the MixColumns image of a column holding
/// `S[x]` in row 0 and zeros elsewhere: the word `(2·S[x], S[x], S[x],
/// 3·S[x])`. `TE[r]` is that word rotated right by `8·r` bits, the image
/// of `S[x]` in row `r`.
const TE: [[u32; 256]; 4] = t_tables();

const fn t_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let word = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        te[0][x] = word;
        te[1][x] = word.rotate_right(8);
        te[2][x] = word.rotate_right(16);
        te[3][x] = word.rotate_right(24);
        x += 1;
    }
    te
}

/// Byte `row` (0 = most significant) of a column word, as a table index.
fn row(word: u32, row: usize) -> usize {
    usize::from(word.to_be_bytes()[row])
}

/// SubWord: the S-box applied to each byte of a word.
fn sub_word(word: u32) -> u32 {
    u32::from_be_bytes(word.to_be_bytes().map(|b| SBOX[usize::from(b)]))
}

/// An expanded AES-128 key: 44 round-key words, four per round.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expand a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord + SubWord + Rcon.
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypt a copy of the block and return it.
    #[must_use]
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let (first, rest) = self.round_keys.split_at(4);
        let (middle, last) = rest.split_at(36);
        let mut s: [u32; 4] = std::array::from_fn(|c| {
            u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("4-byte column"))
                ^ first[c]
        });
        for rk in middle.chunks_exact(4) {
            // Column c of the result takes row r from column c + r.
            s = std::array::from_fn(|c| {
                (0..4).fold(rk[c], |acc, r| acc ^ TE[r][row(s[(c + r) % 4], r)])
            });
        }
        let mut out = [0u8; 16];
        for (c, column) in out.chunks_exact_mut(4).enumerate() {
            let sub: [u8; 4] = std::array::from_fn(|r| SBOX[row(s[(c + r) % 4], r)]);
            column.copy_from_slice(&(u32::from_be_bytes(sub) ^ last[c]).to_be_bytes());
        }
        out
    }
}

/// The byte-wise FIPS-197 round functions, kept as the oracle the
/// T-table rounds are tested against.
#[cfg(test)]
mod reference {
    use super::{RCON, SBOX};

    fn xtime(b: u8) -> u8 {
        let hi = b & 0x80;
        let mut r = b << 1;
        if hi != 0 {
            r ^= 0x1b;
        }
        r
    }

    /// Expand `key` byte-wise and encrypt `block` one round function at
    /// a time.
    pub(super) fn encrypt(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
        let rk = expand(key);
        let mut state = *block;
        add_round_key(&mut state, &rk[0]);
        for round_key in &rk[1..10] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, round_key);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &rk[10]);
        state
    }

    fn expand(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = *key;
        for round in 1..11 {
            let prev = rk[round - 1];
            let mut temp = [prev[12], prev[13], prev[14], prev[15]];
            // RotWord + SubWord + Rcon.
            temp.rotate_left(1);
            for t in &mut temp {
                *t = SBOX[*t as usize];
            }
            temp[0] ^= RCON[round - 1];
            for i in 0..4 {
                rk[round][i] = prev[i] ^ temp[i];
            }
            for i in 4..16 {
                rk[round][i] = prev[i] ^ rk[round][i - 4];
            }
        }
        rk
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: byte `state[4*c + r]` is row `r`, column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: shift left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: shift left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: shift left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            let xor_all = col[0] ^ col[1] ^ col[2] ^ col[3];
            for r in 0..4 {
                let rotated = col[(r + 1) % 4];
                state[4 * c + r] = col[r] ^ xor_all ^ xtime(col[r] ^ rotated);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, to_hex};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn t_tables_match_the_byte_wise_rounds(key in any::<[u8; 16]>(),
                                               block in any::<[u8; 16]>()) {
            prop_assert_eq!(Aes128::new(&key).encrypt(&block), reference::encrypt(&key, &block));
        }
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 000102..0f, pt 00112233445566778899aabbccddeeff.
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(
            to_hex(&aes.encrypt(&pt)),
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        );
    }

    #[test]
    fn all_zero_key_block_is_deterministic() {
        let aes = Aes128::new(&[0u8; 16]);
        let a = aes.encrypt(&[0u8; 16]);
        let b = aes.encrypt(&[0u8; 16]);
        assert_eq!(a, b);
        assert_ne!(a, [0u8; 16]);
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&[0u8; 16]).encrypt(&[1u8; 16]);
        let b = Aes128::new(&[1u8; 16]).encrypt(&[1u8; 16]);
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_effect() {
        // Flipping one plaintext bit should change roughly half the output
        // bits; assert at least a quarter as a loose sanity bound.
        let aes = Aes128::new(&[0x42u8; 16]);
        let base = aes.encrypt(&[0u8; 16]);
        let mut flipped_pt = [0u8; 16];
        flipped_pt[0] = 1;
        let flipped = aes.encrypt(&flipped_pt);
        let differing: u32 = base
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(differing >= 32, "only {differing} bits changed");
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[9u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('9'));
    }
}
