//! An in-tree CRC-32 (IEEE 802.3, the `zlib`/`cksum -o3` polynomial).
//!
//! The registry is offline, so the WAL cannot pull the `crc32fast` crate;
//! this is the table-driven **slicing-by-8** method: eight 256-entry tables
//! fold eight input bytes per step instead of one. The checksum is not free
//! next to the I/O: a checkpoint of 10⁵ facts (≈ 3.1 MB) spends about a
//! third of its encode here, and recovery checksums the whole file again.
//! On a 3.1 MB buffer the byte-at-a-time loop took 9.9–10.4 ms and this one
//! 2.5–2.6 ms (medians of 15, three rounds, release build, one core of a
//! shared 2-core x86-64 VM). The byte loop stays as the test oracle.

/// The reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so one step folds bytes `k` apart.
const fn make_tables() -> [[u32; 256]; 8] {
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
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A CRC-32 over bytes fed piecewise: `update` with consecutive pieces,
/// then `finish`, equals [`crc32`] of their concatenation. Feed it pieces of
/// kilobytes where there are any: a piece shorter than eight bytes runs the
/// byte loop.
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of nothing yet.
    pub fn new() -> Crc32 {
        Crc32(!0)
    }

    /// Feeds the next bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The checksum of everything fed.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop over the classic table: the oracle the
    /// sliced loop must agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn piecewise_equals_whole() {
        let bytes = b"The quick brown fox jumps over the lazy dog";
        for cut in 0..bytes.len() {
            let mut crc = Crc32::new();
            crc.update(&bytes[..cut]);
            crc.update(&bytes[cut..]);
            assert_eq!(crc.finish(), crc32(bytes), "cut at {cut}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"hello world");
        let mut bytes = b"hello world".to_vec();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(crc32(&bytes), base, "flip at byte {i} bit {bit}");
                bytes[i] ^= 1 << bit;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random bytes cut at random points: the sliced checksum, fed
        /// piecewise or whole, equals the byte loop's over the whole.
        #[test]
        fn sliced_pieces_equal_the_bytewise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                crc.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finish(), bytewise(&bytes));
            prop_assert_eq!(crc32(&bytes), bytewise(&bytes));
        }
    }
}
