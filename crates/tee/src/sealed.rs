//! Sealed storage: protected files and an encrypted block device.
//!
//! Two storage protections appear in the paper's deployments:
//!
//! * **Gramine protected files** (SGX): each file is transparently
//!   encrypted and integrity-protected with a key derived from the enclave
//!   identity — modelled by [`SealedBlob`].
//! * **LUKS full-disk encryption** (TDX): the paper notes that in TDX
//!   "users must protect the filesystem, e.g., by using LUKS" — modelled
//!   by [`BlockDevice`], a sector-granular AES-CTR device with per-sector
//!   tweaked IVs.

use cllm_crypto::drbg::HashDrbg;
use cllm_crypto::kdf::derive_sealing_key;
use cllm_crypto::modes::Ctr;
use cllm_crypto::sha256::Sha256;
use cllm_crypto::{aead_open, aead_seal, AuthError};

use crate::attestation::Measurement;

/// A sealed (encrypted + authenticated) blob bound to an enclave identity,
/// like a Gramine protected file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// Logical file name; authenticated as AAD so a sealed file cannot be
    /// renamed/swap-attacked.
    pub name: String,
    /// Random nonce chosen at sealing time.
    pub nonce: [u8; 16],
    /// Ciphertext followed by the 16-byte GCM tag.
    pub ciphertext: Vec<u8>,
}

impl SealedBlob {
    /// Seal `plaintext` under the sealing key of (`root_secret`,
    /// `measurement`). `rng_seed` determines the nonce (deterministic for
    /// reproducibility; a real TEE would use hardware randomness).
    #[must_use]
    pub fn seal(
        root_secret: &[u8],
        measurement: &Measurement,
        name: &str,
        plaintext: &[u8],
        rng_seed: &[u8],
    ) -> Self {
        let key = derive_sealing_key(root_secret, &measurement.0, name);
        let mut drbg = HashDrbg::new(rng_seed);
        let mut nonce = [0u8; 16];
        drbg.fill(&mut nonce);
        let ciphertext = aead_seal(&key, &nonce, plaintext, name.as_bytes());
        SealedBlob {
            name: name.to_owned(),
            nonce,
            ciphertext,
        }
    }

    /// Unseal; fails if the enclave identity, the name, or the data differ.
    pub fn unseal(
        &self,
        root_secret: &[u8],
        measurement: &Measurement,
    ) -> Result<Vec<u8>, AuthError> {
        let key = derive_sealing_key(root_secret, &measurement.0, &self.name);
        aead_open(&key, &self.nonce, &self.ciphertext, self.name.as_bytes())
    }
}

/// Sector size of the encrypted block device (LUKS default).
pub const SECTOR_BYTES: usize = 512;

/// The position of sector `index` in the device's sectors. An index too
/// large for `usize` becomes `usize::MAX`, out of range like any index
/// past the last sector, so the accessors panic on it as documented.
fn slot(index: u64) -> usize {
    usize::try_from(index).unwrap_or(usize::MAX)
}

/// A LUKS-like encrypted block device: AES-CTR per sector with an IV
/// derived from the sector index (ESSIV-style tweak).
#[derive(Debug)]
pub struct BlockDevice {
    cipher: Ctr,
    iv_salt: [u8; 32],
    sectors: Vec<[u8; SECTOR_BYTES]>,
}

impl BlockDevice {
    /// Create a device of `num_sectors` sectors keyed by `key`.
    #[must_use]
    pub fn format(key: &[u8; 16], num_sectors: usize) -> Self {
        let mut h = Sha256::new();
        h.update(b"cllm-luks-essiv");
        h.update(key);
        BlockDevice {
            cipher: Ctr::new(key),
            iv_salt: h.finalize(),
            sectors: vec![[0u8; SECTOR_BYTES]; num_sectors],
        }
    }

    /// Number of sectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sectors.len()
    }

    /// Whether the device has zero sectors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sectors.is_empty()
    }

    fn sector_iv(&self, index: u64) -> [u8; 12] {
        let mut h = Sha256::new();
        h.update(&self.iv_salt);
        h.update(&index.to_be_bytes());
        let d = h.finalize();
        // infallible: a SHA-256 digest is 32 bytes, so it has 12 to take.
        d[..12].try_into().expect("sha256 is 32 bytes")
    }

    /// Write one plaintext sector; stored ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn write_sector(&mut self, index: u64, plaintext: &[u8; SECTOR_BYTES]) {
        let iv = self.sector_iv(index);
        let mut buf = *plaintext;
        self.cipher.apply(&iv, 0, &mut buf);
        self.sectors[slot(index)] = buf;
    }

    /// Read one sector, decrypting it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn read_sector(&self, index: u64) -> [u8; SECTOR_BYTES] {
        let iv = self.sector_iv(index);
        let mut buf = self.sectors[slot(index)];
        self.cipher.apply(&iv, 0, &mut buf);
        buf
    }

    /// Raw (encrypted) view of a sector — what a hypervisor or disk thief
    /// sees.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn raw_sector(&self, index: u64) -> &[u8; SECTOR_BYTES] {
        &self.sectors[slot(index)]
    }

    /// Store an arbitrary byte string starting at sector `start`, zero
    /// padding the tail. Returns the number of sectors used.
    pub fn write_bytes(&mut self, start: u64, data: &[u8]) -> u64 {
        let mut used = 0u64;
        for (i, chunk) in data.chunks(SECTOR_BYTES).enumerate() {
            let mut sector = [0u8; SECTOR_BYTES];
            sector[..chunk.len()].copy_from_slice(chunk);
            self.write_sector(start + i as u64, &sector);
            used += 1;
        }
        used
    }

    /// Read back `len` bytes starting at sector `start`.
    #[must_use]
    pub fn read_bytes(&self, start: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut sector_idx = start;
        while out.len() < len {
            let sector = self.read_sector(sector_idx);
            let take = (len - out.len()).min(SECTOR_BYTES);
            out.extend_from_slice(&sector[..take]);
            sector_idx += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(x: u8) -> Measurement {
        Measurement([x; 32])
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let blob = SealedBlob::seal(b"root", &m(1), "weights.bin", b"llama weights", b"seed");
        assert_eq!(blob.unseal(b"root", &m(1)).unwrap(), b"llama weights");
    }

    #[test]
    fn unseal_fails_for_other_enclave() {
        // The core sealing property: a different measurement cannot unseal.
        let blob = SealedBlob::seal(b"root", &m(1), "weights.bin", b"secret", b"seed");
        assert!(blob.unseal(b"root", &m(2)).is_err());
    }

    #[test]
    fn unseal_fails_on_rename_attack() {
        let mut blob = SealedBlob::seal(b"root", &m(1), "weights.bin", b"secret", b"seed");
        blob.name = "other.bin".to_owned();
        assert!(blob.unseal(b"root", &m(1)).is_err());
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let blob = SealedBlob::seal(b"root", &m(1), "f", b"AAAAAAAAAAAAAAAA", b"seed");
        assert!(!blob.ciphertext.windows(4).any(|w| w == b"AAAA"));
    }

    #[test]
    fn block_device_roundtrip() {
        let mut dev = BlockDevice::format(&[3u8; 16], 16);
        let mut sector = [0u8; SECTOR_BYTES];
        sector[..5].copy_from_slice(b"hello");
        dev.write_sector(7, &sector);
        assert_eq!(dev.read_sector(7), sector);
    }

    #[test]
    fn raw_sectors_are_encrypted_and_distinct() {
        let mut dev = BlockDevice::format(&[3u8; 16], 4);
        let plain = [0x41u8; SECTOR_BYTES];
        dev.write_sector(0, &plain);
        dev.write_sector(1, &plain);
        // Same plaintext, different sectors -> different ciphertext (tweak).
        assert_ne!(dev.raw_sector(0), dev.raw_sector(1));
        assert_ne!(dev.raw_sector(0), &plain);
    }

    #[test]
    fn byte_stream_roundtrip_across_sectors() {
        let mut dev = BlockDevice::format(&[9u8; 16], 32);
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let used = dev.write_bytes(3, &data);
        assert_eq!(used, 4);
        assert_eq!(dev.read_bytes(3, data.len()), data);
    }

    #[test]
    fn different_keys_cannot_read() {
        let mut dev = BlockDevice::format(&[1u8; 16], 4);
        let plain = [7u8; SECTOR_BYTES];
        dev.write_sector(0, &plain);
        // Re-keyed view over the same ciphertext decrypts to garbage.
        let mut thief = BlockDevice::format(&[2u8; 16], 4);
        thief.sectors = dev.sectors.clone();
        assert_ne!(thief.read_sector(0), plain);
    }
}
