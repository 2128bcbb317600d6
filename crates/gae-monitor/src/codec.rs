//! Binary series codec: the canonical byte encoding of every retained
//! metric ring, carried in gae-durable snapshots.
//!
//! Layout (varints are unsigned LEB128, at most 10 bytes, minimal):
//!
//! ```text
//! magic   "GAEMETR1"
//! varint  series count
//! per series:
//!         varint site
//!         varint entity length, then UTF-8
//!         varint param length, then UTF-8
//!         varint sample count n
//!         n × varint  zigzag(at_us − previous at_us)   (previous starts at 0)
//!         n × value   bits XOR previous bits           (previous starts at 0)
//! ```
//!
//! Timestamps are wrapping differences, so equal, decreasing and
//! `u64::MAX` instants all encode. A value is one header byte then the
//! XOR's non-zero middle bytes, little-endian: header `0` means the
//! value repeats the previous one bit for bit; otherwise the header is
//! `trailing << 4 | len`, where `trailing` (0–7) counts the XOR's
//! all-zero low bytes and `len` (1–8) the bytes written. This is a
//! byte-granular form of Gorilla's XOR compression (Pelkonen et al.,
//! VLDB 2015). It works on the raw `f64` bits, so every value — NaN
//! payloads, signed zeros, subnormals — survives exactly.
//!
//! The decoder accepts only the encoder's output: overlong varints, a
//! header whose edge bytes are zero, invalid UTF-8, a count that cannot
//! fit the remaining bytes and trailing bytes are all typed
//! [`GaeError::Parse`] errors. Decoding therefore never panics, and any
//! bytes it accepts re-encode to themselves.

use crate::store::{MetricKey, Sample};
use gae_types::{GaeError, GaeResult, SimTime, SiteId};

const MAGIC: &[u8; 8] = b"GAEMETR1";

/// Encodes `series` in order (callers pass
/// [`crate::TimeSeriesStore::export`]'s sorted order for a
/// deterministic snapshot).
pub fn encode(series: &[(MetricKey, Vec<Sample>)]) -> Vec<u8> {
    let samples: usize = series.iter().map(|(_, s)| s.len()).sum();
    let mut out = Vec::with_capacity(16 + series.len() * 32 + samples * 6);
    out.extend_from_slice(MAGIC);
    put_varint(&mut out, series.len() as u64);
    for (key, samples) in series {
        put_varint(&mut out, key.site.raw());
        put_str(&mut out, &key.entity);
        put_str(&mut out, &key.param);
        put_varint(&mut out, samples.len() as u64);
        let mut prev_at = 0u64;
        for s in samples {
            let at = s.at.as_micros();
            put_varint(&mut out, zigzag(at.wrapping_sub(prev_at) as i64));
            prev_at = at;
        }
        let mut prev_bits = 0u64;
        for s in samples {
            let bits = s.value.to_bits();
            put_xor(&mut out, bits ^ prev_bits);
            prev_bits = bits;
        }
    }
    out
}

/// Decodes bytes produced by [`encode`].
pub fn decode(bytes: &[u8]) -> GaeResult<Vec<(MetricKey, Vec<Sample>)>> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(parse_err("bad magic".to_string()));
    }
    // Every series takes at least four bytes (site, two lengths, count).
    let count = r.count(4)?;
    let mut series = Vec::with_capacity(count);
    for _ in 0..count {
        let site = SiteId::new(r.varint()?);
        let entity = r.str()?;
        let param = r.str()?;
        // Every sample takes at least two bytes (delta, header).
        let n = r.count(2)?;
        let mut samples = Vec::with_capacity(n);
        let mut at = 0u64;
        for _ in 0..n {
            at = at.wrapping_add(unzigzag(r.varint()?) as u64);
            samples.push(Sample {
                at: SimTime::from_micros(at),
                value: 0.0,
            });
        }
        let mut bits = 0u64;
        for s in &mut samples {
            bits ^= r.xor()?;
            s.value = f64::from_bits(bits);
        }
        series.push((MetricKey::new(site, entity, param), samples));
    }
    if r.pos != bytes.len() {
        return Err(parse_err(format!("{} trailing bytes", bytes.len() - r.pos)));
    }
    Ok(series)
}

fn parse_err(msg: String) -> GaeError {
    GaeError::Parse(format!("metrics codec: {msg}"))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_xor(out: &mut Vec<u8>, xor: u64) {
    if xor == 0 {
        out.push(0);
        return;
    }
    let trailing = xor.trailing_zeros() / 8;
    let len = 8 - xor.leading_zeros() / 8 - trailing;
    out.push((trailing << 4 | len) as u8);
    let le = (xor >> (8 * trailing)).to_le_bytes();
    out.extend_from_slice(&le[..len as usize]);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> GaeResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|e| *e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(parse_err(format!(
                "truncated at offset {} (wanted {n} more bytes)",
                self.pos
            ))),
        }
    }

    fn byte(&mut self) -> GaeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> GaeResult<u64> {
        let start = self.pos;
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.byte()?;
            let chunk = u64::from(b & 0x7F);
            // The tenth byte may carry only the top bit of a u64; a
            // zero final byte after the first would be an overlong form.
            if (i == 9 && b > 1) || (i > 0 && b == 0) {
                break;
            }
            v |= chunk << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(parse_err(format!("bad varint at offset {start}")))
    }

    /// A count whose items take at least `min_bytes` each: refused
    /// before anything is allocated when the rest cannot hold it.
    fn count(&mut self, min_bytes: usize) -> GaeResult<usize> {
        let at = self.pos;
        let n = self.varint()?;
        let room = (self.bytes.len() - self.pos) / min_bytes;
        match usize::try_from(n) {
            Ok(n) if n <= room => Ok(n),
            _ => Err(parse_err(format!(
                "count {n} at offset {at} exceeds the remaining bytes"
            ))),
        }
    }

    fn str(&mut self) -> GaeResult<String> {
        let len = self.count(1)?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| parse_err("non-UTF-8 name".to_string()))
    }

    fn xor(&mut self) -> GaeResult<u64> {
        let at = self.pos;
        let header = self.byte()?;
        if header == 0 {
            return Ok(0);
        }
        let trailing = u32::from(header >> 4);
        let len = u32::from(header & 0x0F);
        if len == 0 || trailing + len > 8 {
            return Err(parse_err(format!("bad value header at offset {at}")));
        }
        let raw = self.take(len as usize)?;
        if raw[0] == 0 || raw[raw.len() - 1] == 0 {
            return Err(parse_err(format!("non-minimal value at offset {at}")));
        }
        let mut le = [0u8; 8];
        le[..raw.len()].copy_from_slice(raw);
        Ok(u64::from_le_bytes(le) << (8 * trailing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Series = Vec<(MetricKey, Vec<Sample>)>;

    fn key(site: u64, entity: &str, param: &str) -> MetricKey {
        MetricKey::new(SiteId::new(site), entity, param)
    }

    fn sample(at_us: u64, value: f64) -> Sample {
        Sample {
            at: SimTime::from_micros(at_us),
            value,
        }
    }

    /// Bit-level equality: `Sample`'s `PartialEq` says NaN ≠ NaN.
    fn assert_bit_equal(a: &Series, b: &Series) {
        assert_eq!(a.len(), b.len());
        for ((ka, sa), (kb, sb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(sb) {
                assert_eq!(x.at, y.at);
                assert_eq!(x.value.to_bits(), y.value.to_bits());
            }
        }
    }

    /// Awkward `f64` bit patterns: signed zeros, infinities, NaN
    /// payloads, subnormals and values with long mantissas.
    const EDGE_VALUES: [u64; 14] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x7FF8_0000_0000_0000, // quiet NaN
        0x7FF0_0000_0000_0001, // signalling NaN payload
        0xFFF8_DEAD_BEEF_0001, // negative NaN with payload
        0x0000_0000_0000_0001, // smallest subnormal
        0x800F_FFFF_FFFF_FFFF, // negative subnormal, largest magnitude
        0x0010_0000_0000_0000, // smallest normal
        0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
        0x3FB9_9999_9999_999A, // 0.1
        0x3FD3_3333_3333_3334, // 0.1 + 0.2
        0xFFFF_FFFF_FFFF_FFFF, // all ones (a NaN)
    ];

    const EDGE_TIMES: [u64; 6] = [0, 1, 5_000_000, u64::MAX - 1, u64::MAX, 1 << 63];

    fn value_strategy() -> BoxedStrategy<f64> {
        prop_oneof![
            (0..EDGE_VALUES.len()).prop_map(|i| f64::from_bits(EDGE_VALUES[i])),
            any::<u64>().prop_map(f64::from_bits),
            (0u32..64).prop_map(f64::from),
            any::<f64>(),
        ]
        .boxed()
    }

    fn time_strategy() -> BoxedStrategy<u64> {
        prop_oneof![
            (0..EDGE_TIMES.len()).prop_map(|i| EDGE_TIMES[i]),
            any::<u64>(),
            0u64..20_000_000,
        ]
        .boxed()
    }

    fn series_strategy() -> BoxedStrategy<Series> {
        let samples = prop::collection::vec((time_strategy(), value_strategy()), 0..40)
            .prop_map(|v| v.into_iter().map(|(t, x)| sample(t, x)).collect::<Vec<_>>());
        // Runs of equal or sorted instants next to arbitrary ones, so
        // deltas cover zero, positive and wrapping negative steps.
        let ordered = (0u64..u64::MAX / 2, 0u64..3, 0usize..30, value_strategy()).prop_map(
            |(start, step, n, v)| {
                (0..n as u64)
                    .map(|i| sample(start + i * step * 5_000_000, v))
                    .collect::<Vec<_>>()
            },
        );
        let ring = prop_oneof![samples, ordered];
        let name = prop_oneof![
            Just("farm"),
            Just("node-3"),
            Just(""),
            Just("é✓"),
            Just("xfer")
        ]
        .boxed();
        prop::collection::vec((any::<u64>(), name.clone(), name, ring), 0..6)
            .prop_map(|v| {
                v.into_iter()
                    .map(|(site, e, p, s)| (key(site, e, p), s))
                    .collect()
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn codec_roundtrip_is_bit_exact(series in series_strategy()) {
            let bytes = encode(&series);
            let back = decode(&bytes).unwrap();
            assert_bit_equal(&back, &series);
            prop_assert_eq!(encode(&back), bytes);
        }

        #[test]
        fn codec_truncation_is_a_typed_error(series in series_strategy(), cut in any::<u64>()) {
            let bytes = encode(&series);
            let cut = (cut % bytes.len() as u64) as usize;
            prop_assert!(matches!(decode(&bytes[..cut]), Err(GaeError::Parse(_))));
        }

        #[test]
        fn codec_bit_flips_never_panic_or_alias(series in series_strategy(), at in any::<u64>()) {
            // The snapshot's CRC, one layer down, catches corruption;
            // the codec's promise is a typed error or a faithful
            // decode of the flipped bytes — never a panic, and never
            // the original series from different bytes.
            let mut bytes = encode(&series);
            let bit = (at % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            match decode(&bytes) {
                Err(GaeError::Parse(_)) => {}
                Err(other) => panic!("untyped error {other:?}"),
                Ok(back) => prop_assert_eq!(encode(&back), bytes),
            }
        }

        #[test]
        fn codec_random_bytes_are_a_typed_error(
            body in prop::collection::vec(any::<u8>(), 0..200),
            magic in any::<bool>(),
        ) {
            let mut bytes = if magic { MAGIC.to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&body);
            match decode(&bytes) {
                Err(GaeError::Parse(_)) => {}
                Err(other) => panic!("untyped error {other:?}"),
                Ok(back) => prop_assert_eq!(encode(&back), bytes),
            }
        }
    }

    #[test]
    fn every_edge_value_after_every_other() {
        let mut samples = Vec::new();
        for (i, a) in EDGE_VALUES.iter().enumerate() {
            for b in EDGE_VALUES {
                samples.push(sample(EDGE_TIMES[i % EDGE_TIMES.len()], f64::from_bits(*a)));
                samples.push(sample(0, f64::from_bits(b)));
            }
        }
        let series = vec![(key(u64::MAX, "node-0", "cpu_load"), samples)];
        assert_bit_equal(&decode(&encode(&series)).unwrap(), &series);
    }

    #[test]
    fn non_canonical_forms_are_refused() {
        let base = encode(&[(key(1, "f", "p"), vec![sample(1, 1.0)])]);
        // Overlong varint: site 1 as 0x81 0x00.
        let mut overlong = MAGIC.to_vec();
        overlong.extend_from_slice(&[1, 0x81, 0x00]);
        overlong.extend_from_slice(&base[10..]);
        assert!(matches!(decode(&overlong), Err(GaeError::Parse(_))));
        // A value header claiming more bytes than a u64 holds.
        let mut header = base.clone();
        let last_header = header.len() - 3; // 1.0 = 0x3FF0 << 48: two bytes
        assert_eq!(header[last_header], 6 << 4 | 2);
        header[last_header] = 7 << 4 | 2;
        assert!(matches!(decode(&header), Err(GaeError::Parse(_))));
        // A value whose lowest written byte is zero (not trimmed).
        let mut untrimmed = base.clone();
        untrimmed[last_header + 1] = 0;
        assert!(matches!(decode(&untrimmed), Err(GaeError::Parse(_))));
        // An eleven-byte varint.
        let mut long = MAGIC.to_vec();
        long.extend_from_slice(&[0xFF; 10]);
        long.push(0x01);
        assert!(matches!(decode(&long), Err(GaeError::Parse(_))));
        // A count larger than the bytes that follow allocates nothing.
        let mut huge = MAGIC.to_vec();
        put_varint(&mut huge, u64::MAX);
        assert!(matches!(decode(&huge), Err(GaeError::Parse(_))));
    }
}
