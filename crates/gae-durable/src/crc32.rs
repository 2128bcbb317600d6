//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8, no external deps.
//!
//! Every WAL frame and snapshot payload is protected by this
//! checksum; recovery treats a mismatch as a torn or corrupted record
//! and stops replay at the previous commit point.
//!
//! Slicing-by-8 folds eight input bytes per step through eight
//! 256-entry tables (8 KiB), instead of one byte per step through one
//! table; the result is bit-identical. The byte-at-a-time loop is kept
//! in the tests as the reference.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Incremental CRC-32 state, for checksumming a frame without
/// concatenating its parts.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut c = self.0;
        let mut chunks = data.chunks_exact(8);
        for b in &mut chunks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][b[4] as usize]
                ^ t[2][b[5] as usize]
                ^ t[1][b[6] as usize]
                ^ t[0][b[7] as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop slicing-by-8 replaced: the reference.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut inc = Crc32::new();
        inc.update(&data[..10]);
        inc.update(&data[10..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn every_length_and_alignment_matches_the_reference() {
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for align in 0..8 {
            for len in 0..=4096 - align {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), reference(data), "len {len} align {align}");
            }
        }
    }

    proptest! {
        #[test]
        fn crc32_slicing_matches_reference_across_splits(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..8,
            cuts in prop::collection::vec(any::<u64>(), 0..6),
        ) {
            let data = &data[offset.min(data.len())..];
            let expected = reference(data);
            prop_assert_eq!(crc32(data), expected);
            let mut points: Vec<usize> = cuts
                .iter()
                .map(|c| (*c % (data.len() as u64 + 1)) as usize)
                .collect();
            points.sort_unstable();
            let mut inc = Crc32::new();
            let mut from = 0;
            for p in points.into_iter().chain(std::iter::once(data.len())) {
                inc.update(&data[from..p]);
                from = p;
            }
            prop_assert_eq!(inc.finish(), expected);
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"hello, durable world".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
