//! An in-tree CRC-32 (IEEE 802.3, the `zlib`/`cksum -o3` polynomial).
//!
//! The registry is offline, so the WAL cannot pull the `crc32fast` crate;
//! this is the classic byte-at-a-time table-driven implementation. Every WAL
//! record and checkpoint guards its payload with this checksum — speed is a
//! non-issue next to the `write(2)` the bytes are headed for.

/// The reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A CRC-32 over bytes fed piecewise: `update` with consecutive pieces,
/// then `finish`, equals [`crc32`] of their concatenation.
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
        for &b in bytes {
            self.0 = (self.0 >> 8) ^ TABLE[((self.0 ^ b as u32) & 0xFF) as usize];
        }
    }

    /// The checksum of everything fed.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
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
}
