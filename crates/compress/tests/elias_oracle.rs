//! The word-level bit-stream codecs against the bit-at-a-time coder they
//! replaced.
//!
//! [`oracle`] keeps the old `BitWriter` / `BitReader` / Elias gamma coder,
//! one bit per call, as a test-only reference, with the three formats built
//! and read on it the way the codecs used to. The library now writes codes
//! from tables through a 64-bit accumulator and reads them from a 64-bit
//! window, up to four QSGD levels per lookup. On every frame the old coder
//! wrote, the new frames are byte-identical and the decoded buckets equal
//! bit for bit. On damaged frames — truncated, extended, bit-flipped or
//! arbitrary bytes — each codec's `accumulate`, the format's one parser,
//! never panics: it returns `Err` exactly where the old reader ran out of
//! stream or read a value that is not a level of the format (the old code
//! panicked on the first and silently wrapped or dropped the second), and
//! otherwise the old reading.

use cluster_comm::Payload;
use gradcomp::{Codec, Qsgd, QsgdImpl, SignSgdEf, TernGrad};
use mini_tensor::rng::SeedRng;
use proptest::prelude::*;
use std::any::type_name;
use std::ops::Range;

mod oracle {
    /// Append-only bit buffer, one bit per call.
    #[derive(Default)]
    pub struct BitWriter {
        bytes: Vec<u8>,
        bit_len: usize,
    }

    impl BitWriter {
        pub fn push_bit(&mut self, bit: bool) {
            let byte_idx = self.bit_len / 8;
            if byte_idx == self.bytes.len() {
                self.bytes.push(0);
            }
            if bit {
                self.bytes[byte_idx] |= 1 << (self.bit_len % 8);
            }
            self.bit_len += 1;
        }

        /// Appends the low `n` bits of `v`, most-significant first.
        pub fn push_bits(&mut self, v: u64, n: u32) {
            for i in (0..n).rev() {
                self.push_bit((v >> i) & 1 == 1);
            }
        }

        /// The frame: 4 bytes of scale, then the stream's bytes.
        pub fn frame(&self, scale: f32) -> Vec<u8> {
            let mut bytes = scale.to_bits().to_le_bytes().to_vec();
            bytes.extend_from_slice(&self.bytes);
            bytes
        }
    }

    /// Sequential bit reader.
    pub struct BitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> BitReader<'a> {
        pub fn new(bytes: &'a [u8]) -> Self {
            BitReader { bytes, pos: 0 }
        }

        pub fn read_bit(&mut self) -> Option<bool> {
            if self.pos >= 8 * self.bytes.len() {
                return None;
            }
            let b = (self.bytes[self.pos / 8] >> (self.pos % 8)) & 1 == 1;
            self.pos += 1;
            Some(b)
        }

        /// Reads `n` bits MSB-first.
        pub fn read_bits(&mut self, n: u32) -> Option<u64> {
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | self.read_bit()? as u64;
            }
            Some(v)
        }
    }

    /// Elias gamma: `⌊log₂v⌋` zeros, then `v`'s binary representation.
    pub fn gamma_encode(w: &mut BitWriter, v: u64) {
        assert!(v >= 1, "gamma code requires v ≥ 1");
        let nbits = 64 - v.leading_zeros();
        for _ in 0..nbits - 1 {
            w.push_bit(false);
        }
        w.push_bits(v, nbits);
    }

    /// Decodes one gamma-coded integer. (The cap at 63 zeros is the
    /// oracle's own guard: past it `1 << zeros` overflows.)
    pub fn gamma_decode(r: &mut BitReader<'_>) -> Option<u64> {
        let mut zeros = 0u32;
        while !r.read_bit()? {
            zeros += 1;
            if zeros > 63 {
                return None;
            }
        }
        let rest = if zeros == 0 { 0 } else { r.read_bits(zeros)? };
        Some((1u64 << zeros) | rest)
    }

    pub fn qsgd_frame(norm: f32, levels: &[i8]) -> Vec<u8> {
        let mut w = BitWriter::default();
        for &l in levels {
            w.push_bit(l < 0);
            gamma_encode(&mut w, l.unsigned_abs() as u64 + 1);
        }
        w.frame(norm)
    }

    pub fn terngrad_frame(scale: f32, bucket: &[f32]) -> Vec<u8> {
        let mut w = BitWriter::default();
        for &v in bucket {
            let code = if v > 0.0 {
                0b01
            } else if v < 0.0 {
                0b10
            } else {
                0b00
            };
            w.push_bits(code, 2);
        }
        w.frame(scale)
    }

    pub fn signsgd_frame(scale: f32, bucket: &[f32]) -> Vec<u8> {
        let mut w = BitWriter::default();
        for &v in bucket {
            w.push_bit(v.is_sign_negative());
        }
        w.frame(scale)
    }

    fn split(frame: &[u8]) -> Option<(f32, &[u8])> {
        let scale = f32::from_bits(u32::from_le_bytes(frame.get(..4)?.try_into().unwrap()));
        Some((scale, &frame[4..]))
    }

    /// The old QSGD `accumulate`, with `None` where it panicked and where a
    /// gamma value is no level in `[−s, s]` (where it wrapped `mag as i8`).
    pub fn qsgd_decode(frame: &[u8], s: u8, bucket: &mut [f32], weight: f32) -> Option<()> {
        let (norm, stream) = split(frame)?;
        let scale = norm / s as f32;
        let mut r = BitReader::new(stream);
        for g in bucket.iter_mut() {
            let neg = r.read_bit()?;
            let mag = gamma_decode(&mut r)? - 1;
            if mag > s as u64 {
                return None;
            }
            let level = if neg { -(mag as i8) } else { mag as i8 };
            *g += level as f32 * scale * weight;
        }
        Some(())
    }

    /// The old TernGrad `accumulate`, with `None` where it panicked and on
    /// the non-digit `11` (which it read as zero).
    pub fn terngrad_decode(frame: &[u8], bucket: &mut [f32], weight: f32) -> Option<()> {
        let (scale, stream) = split(frame)?;
        let mut r = BitReader::new(stream);
        for a in bucket.iter_mut() {
            match r.read_bits(2)? {
                0b01 => *a += scale * weight,
                0b10 => *a -= scale * weight,
                0b00 => {}
                _ => return None,
            }
        }
        Some(())
    }

    /// The old EF-SignSGD `accumulate`, with `None` where it panicked.
    pub fn signsgd_decode(frame: &[u8], bucket: &mut [f32], weight: f32) -> Option<()> {
        let (scale, stream) = split(frame)?;
        let mut r = BitReader::new(stream);
        for a in bucket.iter_mut() {
            let v = if r.read_bit()? { -scale } else { scale };
            *a += v * weight;
        }
        Some(())
    }
}

/// A gradient with a heavy tail: uniform values scaled by 2^−(0..12), so
/// at large `s` the largest coordinates reach the top levels.
fn heavy(raw: Vec<(f32, u32)>) -> Vec<f32> {
    raw.into_iter().map(|(v, e)| v * 0.5f32.powi(e as i32)).collect()
}

/// The old QSGD quantiser: `floor`, one `flip` per coordinate, `as i8`.
fn old_levels(g: &[f32], s: u8, rng: &mut SeedRng) -> (f32, Vec<i8>) {
    let norm = (g.iter().map(|v| (*v as f64).powi(2)).sum::<f64>()).sqrt() as f32;
    let mut levels = vec![0i8; g.len()];
    if norm > 0.0 {
        for (i, &v) in g.iter().enumerate() {
            let l = v.abs() / norm * s as f32;
            let lower = l.floor();
            let p = l - lower;
            let q = lower + if rng.flip(p) { 1.0 } else { 0.0 };
            levels[i] = (q as i8).min(s as i8) * if v < 0.0 { -1 } else { 1 };
        }
    }
    (norm, levels)
}

/// `cuts` clamped to `n` and sorted into a partition of `0..n` (empty
/// buckets included).
fn partition(n: usize, cuts: Vec<usize>) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).chain([0, n]).collect();
    cuts.sort_unstable();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A fixed non-zero bucket to decode into, so the add is checked too.
fn start(n: usize) -> Vec<f32> {
    (0..n).map(|i| i as f32 * 0.25 - 1.0).collect()
}

/// Runs one codec beside its oracle: `prepare`, then for every bucket the
/// frame must equal `oracle_frame(prepared bucket)` byte for byte, and
/// `accumulate` must equal `oracle_decode` bit for bit.
fn assert_matches_oracle<C: Codec>(
    mut codec: C,
    g: &[f32],
    bounds: &[Range<usize>],
    oracle_frame: impl Fn(&[f32], &Range<usize>) -> Vec<u8>,
    oracle_decode: impl Fn(&[u8], &mut [f32], f32) -> Option<()>,
) {
    let mut prepared = g.to_vec();
    codec.prepare(&mut prepared);
    for r in bounds {
        let frame = codec.encode(r, &prepared[r.clone()]);
        let want = oracle_frame(&prepared[r.clone()], r);
        assert_eq!(frame.clone().expect_bytes(), want, "{} frame {r:?}", type_name::<C>());
        let (mut got, mut old) = (start(r.len()), start(r.len()));
        codec.accumulate(r, &frame, &mut got, 0.375).unwrap();
        oracle_decode(&want, &mut old, 0.375).expect("the oracle reads its own frame");
        assert_eq!(bits(&got), bits(&old), "{} bucket {r:?}", type_name::<C>());
    }
}

/// One damage to a valid frame: cut it short, append bytes, or flip a bit.
fn damage(frame: &[u8], kind: u8, at: usize, extra: &[u8]) -> Vec<u8> {
    let mut f = frame.to_vec();
    match kind % 3 {
        0 => f.truncate(at % (f.len() + 1)),
        1 => f.extend_from_slice(extra),
        _ => {
            let bit = at % (8 * f.len());
            f[bit / 8] ^= 1 << (bit % 8);
        }
    }
    f
}

/// `codec`'s `accumulate` on `frame` into the whole of `bucket` — the
/// bit-stream formats read no range.
fn read(
    codec: &impl Codec,
    frame: &Payload,
    bucket: &mut [f32],
    weight: f32,
) -> Result<(), String> {
    codec.accumulate(&(0..bucket.len()), frame, bucket, weight)
}

/// `codec`'s `accumulate` on `frame` against the oracle: `Err` and `None`,
/// or `Ok` and `Some` with equal buckets.
fn assert_same_verdict(
    frame: &[u8],
    n: usize,
    codec: &impl Codec,
    weight: f32,
    old: impl Fn(&[u8], &mut [f32]) -> Option<()>,
) {
    let (mut got, mut want) = (start(n), start(n));
    let verdict = read(codec, &Payload::Bytes(frame.to_vec()), &mut got, weight).is_ok();
    assert_eq!(verdict, old(frame, &mut want).is_some(), "frame {frame:02x?}, {n} values");
    if verdict {
        assert_eq!(bits(&got), bits(&want), "frame {frame:02x?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn qsgd_frames_match_the_oracle(
        raw in prop::collection::vec((-10.0f32..10.0, 0u32..12), 1..=160),
        s in 1u8..=127,
        cuts in prop::collection::vec(0usize..=160, 0..6),
        seed in any::<u64>(),
    ) {
        // The old quantiser on the same seed draws the levels; the old
        // coder frames them.
        let g = heavy(raw);
        let (norm, levels) = old_levels(&g, s, &mut SeedRng::new(seed));
        assert_matches_oracle(
            Qsgd::new(s, QsgdImpl::Fast, seed),
            &g,
            &partition(g.len(), cuts),
            |_, r| oracle::qsgd_frame(norm, &levels[r.clone()]),
            |f, b, w| oracle::qsgd_decode(f, s, b, w),
        );
    }

    #[test]
    fn quantiser_matches_the_old_loop(
        raw in prop::collection::vec((-10.0f32..10.0, 0u32..12), 1..=300),
        specials in prop::collection::vec((0usize..300, 0usize..12), 0..3),
        s in 1u8..=127,
        seed in any::<u64>(),
    ) {
        // Same norm, same levels, same RNG stream — over special values
        // too: a NaN (norm NaN: all zero), ±∞ and f32::MAX (norm ∞), signed
        // zeros and subnormals.
        let mut g = heavy(raw);
        let menu = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-45, -1e-40,
                    f32::MAX, -f32::MAX, 1e-30, -3.0, 7.5];
        for (at, which) in specials {
            let i = at % g.len();
            g[i] = menu[which];
        }
        // Two steps each: the second continues the same stream.
        let g2: Vec<f32> = g.iter().rev().map(|v| v * 0.5).collect();
        for imp in [QsgdImpl::Fast, QsgdImpl::Reference] {
            let mut q = Qsgd::new(s, imp, seed);
            let mut rng = SeedRng::new(seed);
            for g in [&g, &g2] {
                let got = q.quantize(g);
                let (norm, levels) = old_levels(g, s, &mut rng);
                prop_assert_eq!(got.norm.to_bits(), norm.to_bits());
                prop_assert_eq!(&got.levels, &levels, "{:?} s {}", imp, s);
            }
        }
    }

    #[test]
    fn bit_pack_frames_match_the_oracle(
        raw in prop::collection::vec((-10.0f32..10.0, 0u32..12), 1..=160),
        cuts in prop::collection::vec(0usize..=160, 0..6),
        seed in any::<u64>(),
    ) {
        let g = heavy(raw);
        let bounds = partition(g.len(), cuts);
        // TernGrad's scale is max |g|, taken before the dithering.
        let s = g.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert_matches_oracle(
            TernGrad::new(seed),
            &g,
            &bounds,
            |b, _| oracle::terngrad_frame(s, b),
            oracle::terngrad_decode,
        );
        // The sign pack's scale is the ℓ₁ mean: |±scale| of any coordinate.
        let mut prepared = g.clone();
        SignSgdEf::new(g.len()).prepare(&mut prepared);
        let s = prepared[0].abs();
        assert_matches_oracle(
            SignSgdEf::new(g.len()),
            &g,
            &bounds,
            |b, _| oracle::signsgd_frame(s, b),
            oracle::signsgd_decode,
        );
    }

    #[test]
    fn damaged_frames_give_none_or_the_oracle_reading(
        raw in prop::collection::vec(any::<u8>(), 0..48),
        s in 1u8..=127,
        kind in any::<u8>(),
        at in any::<u64>(),
        extra in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        let at = at as usize;
        // A valid QSGD frame of levels in [−s, s], then damaged.
        let levels: Vec<i8> =
            raw.iter().map(|&b| (b as i32 % (2 * s as i32 + 1) - s as i32) as i8).collect();
        let frame = damage(&oracle::qsgd_frame(0.75, &levels), kind, at, &extra);
        let qsgd = Qsgd::new(s, QsgdImpl::Fast, 0);
        assert_same_verdict(
            &frame,
            levels.len(),
            &qsgd,
            0.375,
            |f, b| oracle::qsgd_decode(f, s, b, 0.375),
        );
        // Valid bit-pack frames, damaged the same way.
        let vals: Vec<f32> = raw.iter().map(|&b| [0.0, 1.0, -1.0, -0.0][b as usize % 4]).collect();
        let frame = damage(&oracle::terngrad_frame(0.75, &vals), kind, at, &extra);
        assert_same_verdict(
            &frame,
            vals.len(),
            &TernGrad::new(0),
            0.375,
            |f, b| oracle::terngrad_decode(f, b, 0.375),
        );
        let frame = damage(&oracle::signsgd_frame(0.75, &vals), kind, at, &extra);
        assert_same_verdict(
            &frame,
            vals.len(),
            &SignSgdEf::new(0),
            0.375,
            |f, b| oracle::signsgd_decode(f, b, 0.375),
        );
    }

    #[test]
    fn arbitrary_bytes_give_none_or_the_oracle_reading(
        frame in prop::collection::vec(any::<u8>(), 0..40),
        n in 0usize..80,
        s in 1u8..=127,
    ) {
        let qsgd = Qsgd::new(s, QsgdImpl::Fast, 0);
        assert_same_verdict(&frame, n, &qsgd, 1.0, |f, b| oracle::qsgd_decode(f, s, b, 1.0));
        assert_same_verdict(&frame, n, &TernGrad::new(0), 1.0, |f, b| {
            oracle::terngrad_decode(f, b, 1.0)
        });
        assert_same_verdict(&frame, n, &SignSgdEf::new(0), 1.0, |f, b| {
            oracle::signsgd_decode(f, b, 1.0)
        });
    }
}

#[test]
fn qsgd_refuses_gamma_300_and_levels_above_s() {
    // Sign 0, gamma(300): eight zeros, then 1 0 0 1 0 1 1 0 0. The old
    // reader took 300 − 1 = 299 and cast it `as i8` into level 43.
    let gamma_300 = vec![0, 0, 0, 0, 0x00, 0xD2, 0x00];
    let mut r = oracle::BitReader::new(&gamma_300[4..]);
    assert_eq!((r.read_bit(), oracle::gamma_decode(&mut r)), (Some(false), Some(300)));
    let q = |s| Qsgd::new(s, QsgdImpl::Fast, 0);
    assert!(read(&q(127), &Payload::Bytes(gamma_300), &mut [0.0], 1.0).is_err());

    // Level −5 (sign 1, gamma(6) = 0 0 1 1 0): a level at s = 5, not at 4.
    let minus_5 = Payload::Bytes(vec![0, 0, 0xA0, 0x40, 0x19]);
    let mut bucket = [0.0f32];
    assert_eq!(read(&q(5), &minus_5, &mut bucket, 1.0), Ok(()));
    assert_eq!(bucket, [-5.0]);
    let err = read(&q(4), &minus_5, &mut [0.0], 1.0).unwrap_err();
    assert_eq!(err, "not a 4-byte scale and 1 levels in [−s, s]");

    // Out of stream: a frame without its norm, and one level short.
    assert!(read(&q(4), &Payload::Bytes(vec![0; 3]), &mut [], 1.0).is_err());
    let four_zeros = Payload::Bytes(vec![0, 0, 0, 0, 0b1010_1010]);
    assert_eq!(read(&q(4), &four_zeros, &mut [0.0; 4], 1.0), Ok(()));
    assert!(read(&q(4), &four_zeros, &mut [0.0; 5], 1.0).is_err());
}

#[test]
fn terngrad_refuses_the_non_digit_11() {
    // Digits +s, −s, 0, then `11`, which the old reader added as zero.
    let frame = |last: u8| Payload::Bytes(vec![0, 0, 0x80, 0x3F, 0b0000_0110 | last << 6]);
    let (tg, mut bucket) = (TernGrad::new(0), [0.0f32; 4]);
    assert_eq!(read(&tg, &frame(0b00), &mut bucket, 1.0), Ok(()));
    assert_eq!(bucket, [1.0, -1.0, 0.0, 0.0]);
    assert!(read(&tg, &frame(0b11), &mut [0.0; 4], 1.0).is_err());
    assert!(read(&tg, &frame(0b00), &mut [0.0; 5], 1.0).is_err());
}
