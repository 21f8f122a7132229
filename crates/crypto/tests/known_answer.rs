//! Known-answer tests against published vectors: FIPS 180-4 (SHA-256),
//! RFC 4231 (HMAC-SHA-256), NIST SP 800-38A (AES-128 ECB and CTR) and
//! the GCM specification (AES-128-GCM). The primitives already have
//! unit tests; these pin the exact bytes the standards publish, so a
//! silent regression in any round function fails against an external
//! reference rather than a self-computed one. A last group pins the
//! SHA-256 of `aead_seal` outputs across block and AAD boundaries, so
//! the sealed format cannot drift either.

use cllm_crypto::aead_seal;
use cllm_crypto::aes::Aes128;
use cllm_crypto::hmac::hmac_sha256;
use cllm_crypto::modes::{Ctr, Gcm};
use cllm_crypto::sha256::{from_hex, sha256, to_hex};

fn hex(s: &str) -> Vec<u8> {
    from_hex(s).expect("valid hex in test vector")
}

fn key16(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16-byte key")
}

// --- FIPS 180-4 / NIST CAVP SHA-256 vectors ---

#[test]
fn sha256_fips_empty_message() {
    assert_eq!(
        to_hex(&sha256(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

#[test]
fn sha256_fips_abc() {
    assert_eq!(
        to_hex(&sha256(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn sha256_fips_two_block_message() {
    // 56 bytes: crosses the single-block padding boundary.
    let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    assert_eq!(
        to_hex(&sha256(msg)),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn sha256_million_a() {
    // FIPS 180-4 appendix: 1,000,000 repetitions of 'a'; exercises many
    // full blocks through the same compression function.
    let msg = vec![b'a'; 1_000_000];
    assert_eq!(
        to_hex(&sha256(&msg)),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// --- RFC 4231 HMAC-SHA-256 vectors ---

#[test]
fn hmac_sha256_rfc4231_case_1() {
    let key = [0x0b; 20];
    let mac = hmac_sha256(&key, b"Hi There");
    assert_eq!(
        to_hex(&mac),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_2() {
    let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
    assert_eq!(
        to_hex(&mac),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_3() {
    let key = [0xaa; 20];
    let msg = [0xdd; 50];
    let mac = hmac_sha256(&key, &msg);
    assert_eq!(
        to_hex(&mac),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_6_key_longer_than_block() {
    // 131-byte key: forces the key-hashing path of HMAC.
    let key = [0xaa; 131];
    let mac = hmac_sha256(
        &key,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
    );
    assert_eq!(
        to_hex(&mac),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    );
}

// --- NIST SP 800-38A AES-128 vectors ---

/// The four-block SP 800-38A plaintext shared by every mode's vector.
fn nist_plaintext() -> Vec<u8> {
    hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
}

#[test]
fn aes128_ecb_sp800_38a_f_1_1() {
    let cipher = Aes128::new(&key16("2b7e151628aed2a6abf7158809cf4f3c"));
    let expected = [
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    ];
    for (block, want) in nist_plaintext().chunks_exact(16).zip(expected) {
        let block: [u8; 16] = block.try_into().expect("16-byte block");
        assert_eq!(to_hex(&cipher.encrypt(&block)), want);
    }
}

#[test]
fn aes128_ctr_sp800_38a_f_5_1() {
    // SP 800-38A uses the 16-byte counter block f0f1...feff; our CTR
    // splits that as a 12-byte IV prefix plus a 32-bit big-endian
    // counter, so the vector maps to iv = f0..fb, counter = 0xfcfdfeff.
    let ctr = Ctr::new(&key16("2b7e151628aed2a6abf7158809cf4f3c"));
    let iv: [u8; 12] = hex("f0f1f2f3f4f5f6f7f8f9fafb")
        .try_into()
        .expect("12-byte iv");
    let mut data = nist_plaintext();
    ctr.apply(&iv, 0xfcfd_feff, &mut data);
    assert_eq!(
        to_hex(&data),
        "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
    );
}

#[test]
fn aes128_ctr_is_an_involution_on_the_nist_vector() {
    let ctr = Ctr::new(&key16("2b7e151628aed2a6abf7158809cf4f3c"));
    let iv: [u8; 12] = hex("f0f1f2f3f4f5f6f7f8f9fafb")
        .try_into()
        .expect("12-byte iv");
    let mut data = nist_plaintext();
    ctr.apply(&iv, 0xfcfd_feff, &mut data);
    ctr.apply(&iv, 0xfcfd_feff, &mut data);
    assert_eq!(data, nist_plaintext());
}

// --- GCM specification (McGrew & Viega) AES-128 test cases 3 and 4 ---

const GCM_KEY: &str = "feffe9928665731c6d6a8f9467308308";
const GCM_IV: &str = "cafebabefacedbaddecaf888";
const GCM_PLAINTEXT: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
const GCM_CIPHERTEXT: &str = "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";

/// Encrypt `pt` under the test-case key and IV, check ciphertext and
/// tag, and check that decryption returns `pt`.
fn gcm_case(pt: &[u8], aad: &[u8], ct: &[u8], tag: &str) {
    let gcm = Gcm::new(&key16(GCM_KEY));
    let iv: [u8; 12] = hex(GCM_IV).try_into().expect("12-byte iv");
    let (got_ct, got_tag) = gcm.encrypt(&iv, pt, aad);
    assert_eq!(to_hex(&got_ct), to_hex(ct));
    assert_eq!(to_hex(&got_tag), tag);
    assert_eq!(gcm.decrypt(&iv, ct, aad, &got_tag).as_deref(), Some(pt));
}

#[test]
fn aes128_gcm_test_case_3_four_blocks() {
    gcm_case(
        &hex(GCM_PLAINTEXT),
        b"",
        &hex(GCM_CIPHERTEXT),
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    );
}

#[test]
fn aes128_gcm_test_case_4_aad_and_partial_block() {
    // The first 60 bytes of test case 3's data, with 20 bytes of AAD:
    // both the AAD and the data end in a partial block.
    gcm_case(
        &hex(GCM_PLAINTEXT)[..60],
        &hex("feedfacedeadbeeffeedfacedeadbeefabaddad2"),
        &hex(GCM_CIPHERTEXT)[..60],
        "5bc94fbc3221a5db94fae95ae7121a47",
    );
}

// --- Pinned aead_seal outputs ---

/// `(plaintext length, AAD length, SHA-256 of the sealed blob)`, for the
/// inputs `pinned_seal` builds. Captured from the bit-serial GHASH and
/// byte-wise AES implementations, before the table-driven rewrite.
#[rustfmt::skip]
const SEAL_PINS: [(usize, usize, &str); 36] = [
    (0, 0, "109ad84dcddbad7d0f7455f7c38aaa99dd2e9fb6ebffcde7f434fed05d13ce42"),
    (0, 13, "0b577bbbc9bc81d583c2542200029074b8291e397dd060642f25f12cf40fd08e"),
    (0, 16, "fe158706455dc3f6148bed3d15563b3032e4b236cd99f8313f42ee702fcb8bf9"),
    (0, 17, "87fa5c1aa2c460812b6ae10753ee2873e72199dd1d8a85447aceebb33c912604"),
    (1, 0, "1906dee20d5f7304a45e22ec5fbd2bfba205ae786b37042086a7663307c115eb"),
    (1, 13, "95ec5df0d0be9d11cbf889df760dbaf8e799f0d5a6ec6f916cb707b885a11898"),
    (1, 16, "79a2706d66a108013f7ddbf6312f33f4aa2b3aec44ad713bc9d8800d68353239"),
    (1, 17, "498ca7697d2a66afe3fddd863622afeb0a649ed039b673f159572175002ba472"),
    (15, 0, "f405620fe52bb7c1ed2353df16cd1982a90f7e3755a283d7983ba9473fb9911b"),
    (15, 13, "7fc30c6d50053cf566a9365e34b3f36862ba6e004d13d63af781269b7714b6c2"),
    (15, 16, "c523e2a3b778d5a64a7f08f64112fe45f758a741717e0c612a6250b08d928f29"),
    (15, 17, "3cb0dcb81d325b6f40e9d64681557f81c895595e92ba5d978ed600bf2eefe395"),
    (16, 0, "cae8d1bdc4d94ddef6d8d122b5318e3e01b639b07024dd72d86fcbd87d0492f3"),
    (16, 13, "81f369cc76aaddcad5be37d3562960364cde681cdcac309a4aee28e97b54a1ad"),
    (16, 16, "8246fd207dc44ba6d326e15b12eee87dc484c06b7c95452bedd5f5eebe2b8443"),
    (16, 17, "ba81e68f98e4c74c90419c13ffcc6c46f89032c8a75ca0284fe960102450c01c"),
    (17, 0, "b2e6b921e567c803ea4a6f246e459a462d3c0c00d276f0db6ed617c77efdaea3"),
    (17, 13, "1d4f11315d4c328722fece57dd90f530ffa4aed2ebdf13d1f0444db1d64834d8"),
    (17, 16, "c1bf4f57a05a11b27fc94bc19a09d1be8e1eda852d3f950f1995b5c5763bf6a9"),
    (17, 17, "bdb806d8cca69d298a3976565b1cf9bf04539ea8ed848bc7c4deeaf40e07cefc"),
    (63, 0, "09f1eab0cfc07c19e94599d5ef6dcd1eb4bce18aabcc8de7f7f44c60e3b230aa"),
    (63, 13, "3c229f1bc43ece965e2cdcdc672c5932e1e070f8d6530619db93e4c20a804bab"),
    (63, 16, "c394125a60e16c8102223b882ee8c3616af7fea5303a8acbfb12bb0888a1df2e"),
    (63, 17, "e63d6eaf5a1146dd1caac6da61869db32a51e2c068bcbedab8445b2aa2b8e4d1"),
    (64, 0, "e52e573bab240c90defc185dfabbe2e5920b1269460242f15dd4976287da34d0"),
    (64, 13, "c45d34ef93b3b99202a2d78e1df167fcc41515bc72802017bb1117fab5e0953f"),
    (64, 16, "335cf5540d13890c6d3344d62bc55006fe6458fb6b5523f97c702ff34b07f600"),
    (64, 17, "48c5679b8a39d5a2500751ead3f2366d6089d5a29c963e142af382c544063e52"),
    (65, 0, "ef26886bc3d148a6bb83f0384fcfdf7eb35eb91c67961676a72c07a0c3b638c7"),
    (65, 13, "c04583e92f8031aa71283b82e063f2f3b0ffd6c48c284dc4874f54df1ddd4c4d"),
    (65, 16, "87f55588dd94c257cb87318ad94d3736604104870bf75a5ef204bb29f9fd5bee"),
    (65, 17, "7e96c22621747dc47668593b288af1f8e64c942a2ad6ecdda4b25d642c9c4063"),
    (4101, 0, "5dc47bae00344294be371b73323d6bbfc74c7374949a99155de08da08d4e50da"),
    (4101, 13, "58a6dfa4c71e2271d64505d262db88cd19ca7456c6fb44654c8f3a1c61e6df6e"),
    (4101, 16, "0b2fd34ffbbf148233dee18909d04dcd14eef404cd1dadd93f5890532ac21d5b"),
    (4101, 17, "4fd381cfcc0a6b4cec195480f5d7c51b88814a4a3309593ad8ee3211594ff052"),
];

/// Seal the deterministic inputs of one `SEAL_PINS` row.
fn pinned_seal(pt_len: usize, aad_len: usize) -> Vec<u8> {
    let key: [u8; 16] = std::array::from_fn(|i| (i * 17 + 3) as u8);
    let pt: Vec<u8> = (0..pt_len).map(|i| (i * 31 + 7) as u8).collect();
    let aad: Vec<u8> = (0..aad_len).map(|i| (i * 13 + 101) as u8).collect();
    let nonce = format!("pin-{pt_len}-{aad_len}");
    aead_seal(&key, nonce.as_bytes(), &pt, &aad)
}

#[test]
fn aead_seal_output_is_pinned_across_block_and_aad_boundaries() {
    for (pt_len, aad_len, digest) in SEAL_PINS {
        let sealed = pinned_seal(pt_len, aad_len);
        assert_eq!(sealed.len(), pt_len + 16);
        assert_eq!(
            to_hex(&sha256(&sealed)),
            digest,
            "plaintext {pt_len} B, AAD {aad_len} B"
        );
    }
}
