//! Word-level bit streams and QSGD's Elias level code.
//!
//! QSGD (Alistarh et al.) encodes quantization levels with Elias integer
//! codes; the paper's "2.8n + 32 bits" row in Table 2 is the expected
//! encoded size at its quantization level. We implement the real coder so
//! wire sizes can be *measured*, not just quoted.
//!
//! Every bit-stream frame (QSGD, TernGrad, EF-SignSGD) is 4 bytes of f32
//! scale (raw little-endian bits) followed by a stream packed least
//! significant bit first — stream bit `i` is bit `i % 8` of byte `i / 8` —
//! whose final byte is zero-padded. A code is handled as a value "in
//! stream order": its first stream bit is bit 0.
//!
//! Nothing here moves single bits. [`BitWriter`] gathers codes in a 64-bit
//! accumulator and writes 32 bits at a time straight into the frame;
//! [`BitReader`] serves codes from a 64-bit window refilled a word at a
//! time, and returns `None` past the end of the stream.
//!
//! QSGD's level code is a sign bit (1 = negative) then gamma(|level| + 1):
//! `⌊log₂v⌋` zeros, then `v`'s binary digits, most significant first.
//! [`level_code`] is one lookup in a const `(code, length)` table.
//! [`LevelDecoder`] looks the low 8 bits of the window up in a table built
//! for its `s`, which holds every complete code inside them — up to four
//! levels per lookup, at ≈ 2 bits a level usually four — and takes longer
//! codes through a `trailing_zeros` path. Decoding is fallible: `None` at
//! the end of the stream, on a zero prefix too long for any `i8` level, and
//! on a level outside `[−s, s]`. The bit-at-a-time coder this replaced is
//! kept as the test oracle in `tests/elias_oracle.rs`; frames are
//! byte-identical to it.

use cluster_comm::Payload;

/// Appends codes to a scale-prefixed frame through a 64-bit accumulator.
pub struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    /// Bits pending in `acc`: fewer than 32 between calls.
    pending: u32,
}

impl BitWriter {
    /// Opens a frame with `scale`'s 4 bytes, with room for about `bits`
    /// stream bits.
    pub fn scaled(scale: f32, bits: usize) -> Self {
        let mut bytes = Vec::with_capacity(4 + bits.div_ceil(8) + 4);
        bytes.extend_from_slice(&scale.to_bits().to_le_bytes());
        BitWriter { bytes, acc: 0, pending: 0 }
    }

    /// Appends the low `len` ≤ 32 bits of `code`, bit 0 first.
    #[inline(always)]
    pub fn put(&mut self, code: u32, len: u32) {
        debug_assert!(len == 32 || code >> len == 0, "code {code:#x} wider than {len} bits");
        self.acc |= (code as u64) << self.pending;
        self.pending += len;
        if self.pending >= 32 {
            self.bytes.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.pending -= 32;
        }
    }

    /// The finished frame: pending bits flushed, final byte zero-padded.
    pub fn finish(mut self) -> Payload {
        let tail = self.pending.div_ceil(8) as usize;
        self.bytes.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        Payload::Bytes(self.bytes)
    }
}

/// Reads a bit stream through a 64-bit window refilled a word at a time.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the window.
    pos: usize,
    /// The stream from the read position on, bit 0 first. Bits at and
    /// above `avail` are zero or already the stream's own next bits.
    win: u64,
    /// Valid bits in `win`.
    avail: u32,
}

impl<'a> BitReader<'a> {
    /// Reads `bytes` from their first bit.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0, win: 0, avail: 0 }
    }

    /// Tops the window up to at least 56 valid bits, or to the end of the
    /// stream: one unaligned word load while 8 bytes remain, then bytewise.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
            self.win |= u64::from_le_bytes(word.try_into().unwrap()) << self.avail;
            let whole = (63 - self.avail) / 8;
            self.pos += whole as usize;
            self.avail += 8 * whole;
        } else {
            while self.avail < 56 && self.pos < self.bytes.len() {
                self.win |= (self.bytes[self.pos] as u64) << self.avail;
                self.pos += 1;
                self.avail += 8;
            }
        }
    }

    #[inline(always)]
    fn consume(&mut self, len: u32) {
        self.win >>= len;
        self.avail -= len;
    }

    /// The next `len` ≤ 32 bits, bit 0 first; `None` past the end of the
    /// stream.
    #[inline(always)]
    pub fn take(&mut self, len: u32) -> Option<u32> {
        if self.avail < len {
            self.refill();
            if self.avail < len {
                return None;
            }
        }
        let v = (self.win & ((1u64 << len) - 1)) as u32;
        self.consume(len);
        Some(v)
    }

    /// Stream bits consumed so far.
    fn bits_read(&self) -> usize {
        8 * self.pos - self.avail as usize
    }
}

/// Reads a frame's scale (its first 32 stream bits), then the rest through
/// `read`. A frame that is not bytes or shorter than its scale, or a stream
/// `read` refuses, is an `Err`: it does not hold `n` `values`.
pub fn read_scaled(
    frame: &Payload,
    n: usize,
    values: &str,
    read: impl FnOnce(f32, BitReader) -> Option<()>,
) -> Result<(), String> {
    let mut r = BitReader::new(if let Payload::Bytes(b) = frame { b } else { &[] });
    let read = r.take(32).and_then(|scale| read(f32::from_bits(scale), r));
    read.ok_or_else(|| format!("not a 4-byte scale and {n} {values}"))
}

/// `(code, length)` in stream order of every `i8` level, at index
/// `level as u8`: sign bit at bit 0, the gamma prefix's zeros above it,
/// then the digits of `v = |level| + 1` from the most significant — a
/// code of `2·⌊log₂v⌋ + 2` bits.
const LEVEL_CODES: [(u16, u8); 256] = {
    let mut table = [(0u16, 0u8); 256];
    let mut i = 0;
    while i < 256 {
        let level = i as u8 as i8;
        let v = level.unsigned_abs() as u32 + 1;
        let digits = 32 - v.leading_zeros();
        let msb_first = v.reverse_bits() >> (32 - digits);
        table[i] = (((level < 0) as u32 | msb_first << digits) as u16, (2 * digits) as u8);
        i += 1;
    }
    table
};

/// QSGD's code for `level`: `(code, length)` in stream order.
#[inline(always)]
pub fn level_code(level: i8) -> (u32, u32) {
    let (code, len) = LEVEL_CODES[level as u8 as usize];
    (code as u32, len as u32)
}

/// Up to four whole codes at the bottom of one byte of stream.
#[derive(Clone, Copy, Default)]
struct Group {
    levels: [i8; 4],
    n: u8,
    bits: u8,
}

/// Fallible decoder of QSGD level streams at quantization level `s`.
pub struct LevelDecoder {
    s: u8,
    /// For every value of the window's low byte, the codes wholly inside
    /// it that decode to levels in `[−s, s]`, from bit 0 on.
    groups: [Group; 256],
}

impl LevelDecoder {
    /// The decoder for levels in `[−s, s]`, `s` in `1..=127`.
    pub fn new(s: u8) -> Self {
        assert!((1..=127).contains(&s), "QSGD levels are i8: s = {s}");
        let mut d = LevelDecoder { s, groups: [Group::default(); 256] };
        for byte in 0..=255u8 {
            // The group table is the one-code path run over a lone byte.
            let stream = [byte];
            let mut r = BitReader::new(&stream);
            let mut g = Group::default();
            while g.n < 4 {
                let Some(level) = d.one(&mut r) else { break };
                g.levels[g.n as usize] = level;
                g.n += 1;
            }
            g.bits = r.bits_read() as u8;
            d.groups[byte as usize] = g;
        }
        d
    }

    /// One code by its definition: the path for codes the group table does
    /// not hold, and what builds that table.
    #[inline]
    fn one(&self, r: &mut BitReader<'_>) -> Option<i8> {
        if r.avail < 16 {
            r.refill();
        }
        let w = r.win;
        let zeros = (w >> 1).trailing_zeros();
        // Eight zeros or more is gamma ≥ 256: no i8 level has that code.
        if zeros > 7 {
            return None;
        }
        let len = 2 * zeros + 2;
        if len > r.avail {
            return None;
        }
        let msb_first = (w >> (zeros + 1)) as u32 & ((2 << zeros) - 1);
        let mag = (msb_first.reverse_bits() >> (31 - zeros)) - 1;
        if mag > self.s as u32 {
            return None;
        }
        r.consume(len);
        Some(if w & 1 == 1 { -(mag as i8) } else { mag as i8 })
    }

    /// Decodes `out.len()` levels from `r`, handing each to `f` with its
    /// slot, in order. `None` if the stream ends first or holds a code that
    /// is not a level in `[−s, s]`; bits after the last level are not read.
    pub fn decode<T>(
        &self,
        mut r: BitReader,
        out: &mut [T],
        mut f: impl FnMut(&mut T, i8),
    ) -> Option<()> {
        let mut i = 0;
        while i + 4 <= out.len() {
            if r.avail < 16 {
                r.refill();
            }
            let g = self.groups[(r.win & 0xFF) as usize];
            if g.n > 0 && g.bits as u32 <= r.avail {
                for (o, &l) in out[i..i + 4].iter_mut().zip(&g.levels[..g.n as usize]) {
                    f(o, l);
                }
                r.consume(g.bits as u32);
                i += g.n as usize;
            } else {
                f(&mut out[i], self.one(&mut r)?);
                i += 1;
            }
        }
        for o in &mut out[i..] {
            f(o, self.one(&mut r)?);
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(w: BitWriter) -> Vec<u8> {
        match w.finish() {
            Payload::Bytes(b) => b,
            _ => unreachable!(),
        }
    }

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::scaled(1.5, 0);
        let codes = [(0b1011, 4), (1, 1), (0xFF00FF, 24), (0xDEAD_BEEF, 32), (0, 3), (0b101, 3)];
        for &(c, n) in &codes {
            w.put(c, n);
        }
        let bytes = frame(w);
        assert_eq!(bytes.len(), 4 + 67usize.div_ceil(8));
        assert_eq!(bytes[..4], 1.5f32.to_le_bytes());
        let mut r = BitReader::new(&bytes[4..]);
        for &(c, n) in &codes {
            assert_eq!(r.take(n), Some(c));
        }
        assert_eq!(r.bits_read(), 67);
        // The zero padding of the last byte, then nothing.
        assert_eq!(r.take(5), Some(0));
        assert_eq!(r.take(1), None);
    }

    #[test]
    fn gamma_roundtrip_small_and_large() {
        // Every level of the widest code, s = 127, decoded past the group
        // table's 4-per-lookup path and the one-code path alike.
        let levels: Vec<i8> = (-127..=127).chain([0, 0, 0, 0, 1, -1, 127, -127, 0]).collect();
        let mut w = BitWriter::scaled(0.0, 0);
        for &l in &levels {
            let (c, n) = level_code(l);
            w.put(c, n);
        }
        let bytes = frame(w);
        let mut got = vec![0i8; levels.len()];
        LevelDecoder::new(127)
            .decode(BitReader::new(&bytes[4..]), &mut got, |o, l| *o = l)
            .unwrap();
        assert_eq!(got, levels);
    }

    #[test]
    fn gamma_len_matches_actual() {
        // Length = sign + gamma(|l| + 1) = 1 + 2⌊log₂(|l| + 1)⌋ + 1, and
        // the code has no bit past it.
        for l in i8::MIN..=i8::MAX {
            let (code, len) = level_code(l);
            let v = l.unsigned_abs() as u32 + 1;
            assert_eq!(len, 2 + 2 * v.ilog2(), "level {l}");
            assert_eq!(code >> len, 0, "level {l}");
            assert_eq!(code & 1, (l < 0) as u32, "level {l}");
        }
    }

    #[test]
    fn gamma_one_is_single_bit() {
        // Level 0 is gamma(1) = "1" after a clear sign bit.
        assert_eq!(level_code(0), (0b10, 2));
    }
}
