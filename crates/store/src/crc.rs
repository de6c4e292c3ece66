//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), slice-by-8.
//!
//! Every journal record and snapshot body carries a CRC so recovery can
//! tell a torn or bit-flipped record from a good one. CRC-32 is the right
//! strength here: the threat model is crashes and storage corruption, not
//! adversaries.
//!
//! The kernel folds eight bytes per step through eight 256-entry tables
//! (Intel's slicing-by-8): table `k` holds the CRC of a byte followed by
//! `k` zero bytes, so the eight lookups of one step are independent and
//! XOR together into the same remainder the bytewise loop reaches after
//! those eight bytes. The tail shorter than eight bytes takes the bytewise
//! loop over table 0, the classic single-table algorithm.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, built at compile time: `TABLES[0]` is
/// the bytewise table, and `TABLES[k][b]` advances `TABLES[k - 1][b]` by
/// one zero byte.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// The bytewise reference: one table lookup per byte.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// The bit-at-a-time definition, independent of every table.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn bytewise_table_matches_the_bitwise_definition() {
        let bytes = noise(7, 1024);
        for len in [0, 1, 7, 8, 9, 255, 1024] {
            assert_eq!(bytewise(&bytes[..len]), bitwise(&bytes[..len]), "len {len}");
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_alignment() {
        let bytes = noise(0x5EED, 300 + 8);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_on_random_buffers() {
        for seed in 1..=32u64 {
            let len = (noise(seed, 2).iter().map(|&b| b as usize).sum::<usize>() * 37) % 70_000;
            let bytes = noise(seed.wrapping_mul(0x9E37_79B9), len);
            assert_eq!(crc32(&bytes), bytewise(&bytes), "seed {seed} len {len}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = b"episode record payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
