//! Property tests: every collective equals its sequential reference for
//! arbitrary world sizes and payload lengths, and the typed wire codec
//! round-trips arbitrary bit patterns in every payload kind — also through
//! a stream that moves a few bytes per call — and refuses damaged or
//! arbitrary bytes without a panic or an unbounded allocation.

use cluster_comm::transport::wire::{
    encode_frame, frame_wire_bytes, read_frame, write_frame, Payload, FRAME_MAGIC, LINK_BUF_BYTES,
    MAX_FRAME_BYTES, RECV_PREALLOC_BYTES,
};
use cluster_comm::{run_cluster, CollectiveAlgo, NetworkProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};

/// The system allocator, noting the largest single request each thread
/// makes: how the fuzz below sees what a frame header made the reader
/// allocate.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method hands its own arguments to `System`, whose contract
// is the trait's; `note` only updates a thread-local `Cell` and never
// allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// The largest value the header's 29-bit length field can claim.
const LEN_FIELD_MAX: u32 = (1 << 29) - 1;

/// Allocation headroom a refused frame may use (its error message).
const ERROR_ALLOC_BYTES: usize = 1024;

/// A reader or writer that moves a random 1..=`cap` bytes per call, as a
/// socket under load may: every short read and partial write the framing
/// must survive.
struct Trickle<T> {
    inner: T,
    rng: StdRng,
    cap: usize,
}

impl<T> Trickle<T> {
    fn new(inner: T, seed: u64, cap: usize) -> Self {
        Trickle { inner, rng: StdRng::seed_from_u64(seed), cap }
    }

    fn step(&mut self, len: usize) -> usize {
        self.rng.gen_range(1..=self.cap).min(len)
    }
}

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.step(buf.len());
        self.inner.read(&mut buf[..n])
    }
}

impl<W: Write> Write for Trickle<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.step(buf.len());
        self.inner.write(&buf[..n])
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// FNN-3's fc1 bucket: 161 504 f32 lanes, 646 016 bytes.
const FC1_LANES: usize = 161_504;

/// Lane counts around the link buffer's and the receive chunk's edges,
/// and the fc1 bucket.
const EDGE_LANES: [usize; 8] = [0, 1, 8191, 8192, 16383, 16384, 16385, FC1_LANES];

/// `lanes` elements of `kind` (the fc1 bucket is its 646 016 bytes in
/// every kind), from arbitrary bit patterns: NaNs of every payload among
/// them.
fn edge_payload(kind: u8, lanes: usize, rng: &mut StdRng) -> Payload {
    let n = |width: usize| if lanes == FC1_LANES { 4 * FC1_LANES / width } else { lanes };
    match kind {
        0 => Payload::F32Dense((0..n(4)).map(|_| f32::from_bits(rng.gen())).collect()),
        1 => Payload::PackedU64((0..n(8)).map(|_| rng.gen()).collect()),
        _ => Payload::Bytes((0..n(1)).map(|_| rng.gen::<u32>() as u8).collect()),
    }
}

fn payload_bits(p: &Payload) -> Vec<u64> {
    match p {
        Payload::F32Dense(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
        Payload::PackedU64(v) => v.clone(),
        Payload::Bytes(v) => v.iter().map(|&b| u64::from(b)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_equals_reference(world in 1usize..9, n in 0usize..300, seed in 0u64..500,
                                  algo_pick in 0u8..3) {
        let algo = match algo_pick {
            0 => CollectiveAlgo::Ring,
            1 => CollectiveAlgo::RecursiveDoubling,
            _ => CollectiveAlgo::Auto,
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inputs: Vec<Vec<f32>> =
            (0..world).map(|_| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let mut expect = vec![0.0f32; n];
        for v in &inputs {
            for i in 0..n {
                expect[i] += v[i];
            }
        }
        let inputs2 = inputs.clone();
        let results = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            let mut d = inputs2[h.rank()].clone();
            h.allreduce_sum_with(&mut d, algo);
            d
        });
        for got in results {
            for i in 0..n {
                prop_assert!((got[i] - expect[i]).abs() < 1e-3 * (1.0 + expect[i].abs()));
            }
        }
    }

    #[test]
    fn allgather_preserves_every_contribution(world in 1usize..8, base in 0usize..20, seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Every rank contributes `base` elements (MPI_Allgather).
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|_| (0..base).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let inputs2 = inputs.clone();
        let results = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            h.allgather(&inputs2[h.rank()])
        });
        for got in results {
            prop_assert_eq!(&got, &inputs);
        }
    }

    #[test]
    fn allgather_bytes_preserves_every_frame(world in 1usize..8, base in 0usize..24, seed in 0u64..500) {
        // Rank-dependent opaque byte frames (including empty ones) must
        // come back verbatim, indexed by origin.
        let frames: Vec<Vec<u8>> = (0..world)
            .map(|r| {
                (0..(base + r * 3) % 17)
                    .map(|i| (seed as u8).wrapping_add((i as u8).wrapping_mul(31)))
                    .collect()
            })
            .collect();
        let frames2 = frames.clone();
        let results = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            h.allgather_bytes(Payload::Bytes(frames2[h.rank()].clone()))
                .into_iter()
                .map(Payload::expect_bytes)
                .collect::<Vec<_>>()
        });
        for got in results {
            prop_assert_eq!(&got, &frames);
        }
    }

    #[test]
    fn broadcast_reaches_all(world in 1usize..9, root_pick in 0usize..9, n in 1usize..50) {
        let root = root_pick % world;
        let payload: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
        let expect = payload.clone();
        let results = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            let mut d = if h.rank() == root { payload.clone() } else { vec![0.0f32; n] };
            h.broadcast(root, &mut d);
            d
        });
        for got in results {
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn f32_frame_roundtrips_arbitrary_bit_patterns(
        raw in prop::collection::vec(any::<u32>(), 0..300),
        tag in any::<u64>(),
    ) {
        // Payloads are raw IEEE-754 bit patterns, so this sweeps NaNs
        // (quiet and signaling), ±inf, subnormals and -0.0 alongside
        // ordinary values — the codec must be bit-transparent to all.
        let payload = Payload::F32Dense(raw.iter().map(|&b| f32::from_bits(b)).collect());
        let buf = encode_frame(tag, payload.as_ref());
        prop_assert_eq!(buf.len() as u64, frame_wire_bytes(4 * raw.len()));
        let (got_tag, got) = read_frame(&mut &buf[..]).unwrap();
        prop_assert_eq!(got_tag, tag);
        let got_bits: Vec<u32> = got.expect_f32().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_bits, raw);
    }

    #[test]
    fn u64_frame_roundtrips_arbitrary_bit_patterns(
        raw in prop::collection::vec(any::<u64>(), 0..200),
        tag in any::<u64>(),
    ) {
        let payload = Payload::PackedU64(raw.clone());
        let buf = encode_frame(tag, payload.as_ref());
        prop_assert_eq!(buf.len() as u64, frame_wire_bytes(8 * raw.len()));
        let (got_tag, got) = read_frame(&mut &buf[..]).unwrap();
        prop_assert_eq!(got_tag, tag);
        prop_assert_eq!(got.expect_u64(), raw);
    }

    #[test]
    fn byte_frame_roundtrips_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..600),
        tag in any::<u64>(),
    ) {
        let payload = Payload::Bytes(raw.clone());
        let buf = encode_frame(tag, payload.as_ref());
        prop_assert_eq!(buf.len() as u64, frame_wire_bytes(raw.len()));
        let (got_tag, got) = read_frame(&mut &buf[..]).unwrap();
        prop_assert_eq!(got_tag, tag);
        prop_assert_eq!(got.expect_bytes(), raw);
    }

    #[test]
    fn wire_frames_concatenate_cleanly(
        a in prop::collection::vec(any::<u32>(), 0..60),
        b in prop::collection::vec(any::<u8>(), 0..60),
    ) {
        // A stream is just back-to-back frames — of different kinds:
        // decoding must consume exactly one frame and leave the next
        // intact, kind included.
        let pa = Payload::F32Dense(a.iter().map(|&x| f32::from_bits(x)).collect());
        let pb = Payload::Bytes(b.clone());
        let mut stream = encode_frame(1, pa.as_ref());
        stream.extend_from_slice(&encode_frame(2, pb.as_ref()));
        let mut cursor = &stream[..];
        let (t1, d1) = read_frame(&mut cursor).unwrap();
        let (t2, d2) = read_frame(&mut cursor).unwrap();
        prop_assert!(cursor.is_empty());
        prop_assert_eq!(t1, 1);
        prop_assert_eq!(t2, 2);
        let d1b: Vec<u32> = d1.expect_f32().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(d1b, a);
        prop_assert_eq!(d2.expect_bytes(), b);
    }
}

proptest! {
    // Each case runs all 24 kind × size frames (up to 646 KB) at one
    // random per-call cap, so few cases cover every edge.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn framing_survives_short_reads_and_partial_writes(
        cap_log2 in 0u32..17,
        seed in any::<u64>(),
        cut_at in any::<u64>(),
    ) {
        let cap = 1usize << cap_log2;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut link = vec![0u8; LINK_BUF_BYTES];
        for kind in 0..3 {
            for lanes in EDGE_LANES {
                let payload = edge_payload(kind, lanes, &mut rng);
                let tag = rng.gen::<u64>();
                let oracle = encode_frame(tag, payload.as_ref());

                // Through the link buffer, in partial writes: the oracle's bytes.
                let mut out = Trickle::new(Vec::new(), seed ^ 1, cap);
                let n = write_frame(&mut out, &mut link, tag, payload.as_ref()).unwrap();
                prop_assert_eq!(n, oracle.len() as u64);
                prop_assert!(out.inner == oracle, "kind {} lanes {} cap {}", kind, lanes, cap);

                // Back in short reads: the same kind, tag and bits.
                let (got_tag, got) =
                    read_frame(&mut Trickle::new(&oracle[..], seed ^ 2, cap)).unwrap();
                prop_assert_eq!(got_tag, tag);
                prop_assert_eq!(got.kind(), payload.kind());
                prop_assert!(payload_bits(&got) == payload_bits(&payload));

                // Cut anywhere before its end: an EOF error, never a panic.
                let cut = (cut_at % oracle.len() as u64) as usize;
                let e = read_frame(&mut Trickle::new(&oracle[..cut], seed ^ 3, cap)).unwrap_err();
                prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_frame_refuses_damage_or_matches_its_header(
        kind in 0u8..3,
        lanes in 0usize..40,
        damage in 0u8..8,
        seed in any::<u64>(),
        noise in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        // A valid frame of one kind, then one kind of damage; or bytes
        // from nowhere, with and without the magic in front.
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = edge_payload(kind, lanes, &mut rng);
        let mut buf = encode_frame(rng.gen(), payload.as_ref());
        let set_kind_len = |buf: &mut Vec<u8>, f: &dyn Fn(u32) -> u32| {
            let kind_len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
            buf[4..8].copy_from_slice(&f(kind_len).to_le_bytes());
        };
        match damage {
            0 => buf = noise.clone(),
            1 => buf = [&FRAME_MAGIC.to_le_bytes()[..], &noise].concat(),
            2 => buf.truncate(rng.gen_range(0..buf.len())),
            3 => buf.extend_from_slice(&noise),
            4 => {
                let at = rng.gen_range(0..buf.len());
                buf[at] ^= 1 << rng.gen_range(0..8u32);
            }
            5 => {
                let code = rng.gen_range(0..8u32);
                set_kind_len(&mut buf, &|kl| (kl & LEN_FIELD_MAX) | code << 29);
            }
            6 => {
                let more = rng.gen_range(1..64u32);
                set_kind_len(&mut buf, &|kl| kl + more);
            }
            _ => {
                let over = rng.gen_range(MAX_FRAME_BYTES as u32 + 1..=LEN_FIELD_MAX);
                set_kind_len(&mut buf, &|kl| (kl & !LEN_FIELD_MAX) | over);
            }
        }

        LARGEST.with(|l| l.set(0));
        let got = read_frame(&mut &buf[..]);
        let largest = LARGEST.with(Cell::get);

        // What the header claims, when there is a whole one behind the magic.
        let header = (buf.len() >= 16 && buf[..4] == FRAME_MAGIC.to_le_bytes()).then(|| {
            let kind_len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
            let tag = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            (kind_len >> 29, (kind_len & LEN_FIELD_MAX) as usize, tag)
        });
        let claimed = header.map_or(0, |(_, len, _)| len);
        if claimed > MAX_FRAME_BYTES {
            prop_assert!(got.is_err(), "a {} B claim was read", claimed);
            prop_assert!(largest <= ERROR_ALLOC_BYTES, "a refused {} B claim allocated {} B", claimed, largest);
        }
        // A claim up to the cap is allocated once, at its size; past the
        // cap the payload grows with what arrived behind the header.
        let arrived = buf.len().saturating_sub(16).min(claimed);
        let bound = if claimed <= RECV_PREALLOC_BYTES {
            claimed
        } else {
            RECV_PREALLOC_BYTES.max(2 * arrived)
        };
        let bound = bound.max(ERROR_ALLOC_BYTES);
        prop_assert!(largest <= bound, "{} B for a {} B claim, {} B arrived", largest, claimed, arrived);
        if let Ok((tag, frame)) = got {
            let (code, len, header_tag) = header.expect("a frame is read only behind a whole header");
            prop_assert_eq!(frame.kind() as u32, code);
            prop_assert_eq!(tag, header_tag);
            prop_assert_eq!(frame.byte_len(), len);
            // The frame is exactly the bytes it was read from.
            prop_assert!(encode_frame(tag, frame.as_ref())[..] == buf[..16 + len]);
        }
    }
}

/// A reader allocates what arrived, not what a header claimed. Under the
/// up-front cap a whole frame is allocated once, at its length: every kind
/// of frame as long as FNN-3's whole parameter vector (199 210 floats, the
/// closing resync's one frame, the largest any benchmark workload
/// receives) reads back with exactly its length as its largest
/// allocation, so a reader that grew it would fail here. Past the cap, a
/// header that claims far more than the stream holds (every kind, 3 MiB
/// behind the header) is an `UnexpectedEof` whose largest allocation is
/// at most twice the bytes read, and the whole 3 MiB frame reads back.
#[test]
fn a_long_claim_allocates_what_arrived() {
    let random_payload = |kind: u8, bytes: usize| {
        let mut rng = StdRng::seed_from_u64(kind as u64);
        match kind {
            0 => Payload::F32Dense((0..bytes / 4).map(|_| f32::from_bits(rng.gen())).collect()),
            1 => Payload::PackedU64((0..bytes / 8).map(|_| rng.gen()).collect()),
            _ => Payload::Bytes((0..bytes).map(|_| rng.gen::<u32>() as u8).collect()),
        }
    };
    for kind in 0u8..3 {
        let bytes = 199_210 * 4;
        let payload = random_payload(kind, bytes);
        let whole = encode_frame(7, payload.as_ref());
        LARGEST.with(|l| l.set(0));
        let (_, back) = read_frame(&mut &whole[..]).unwrap();
        let largest = LARGEST.with(Cell::get);
        assert!(payload_bits(&back) == payload_bits(&payload), "kind {kind}: read back");
        assert_eq!(largest, bytes, "kind {kind}: largest allocation for a {bytes} B frame");

        let arrived = 3 * RECV_PREALLOC_BYTES;
        let payload = random_payload(kind, arrived);
        let whole = encode_frame(7, payload.as_ref());
        assert_eq!(whole.len(), 16 + arrived);
        let (_, back) = read_frame(&mut &whole[..]).unwrap();
        assert!(payload_bits(&back) == payload_bits(&payload), "kind {kind}: read back");
        let mut claim = whole.clone();
        let kind_len = u32::from_le_bytes(claim[4..8].try_into().unwrap());
        let more = (64 << 20) as u32;
        claim[4..8].copy_from_slice(&((kind_len & !LEN_FIELD_MAX) | more).to_le_bytes());
        LARGEST.with(|l| l.set(0));
        let err = read_frame(&mut &claim[..]).unwrap_err();
        let largest = LARGEST.with(Cell::get);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "kind {kind}");
        assert!(largest <= 2 * arrived, "kind {kind}: {largest} B for {arrived} B read");
    }
}

#[test]
fn wire_frame_roundtrips_specials_and_large_payloads() {
    // Deterministic companions to the properties: the named special values,
    // empty frames of every kind, and a frame well past 64 KiB.
    let mut payload =
        vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::MIN_POSITIVE, 1e-45];
    payload.extend((0..30_000).map(|i| (i as f32).sin())); // 120 KB payload
    let buf = encode_frame(u64::MAX, Payload::F32Dense(payload.clone()).as_ref());
    assert_eq!(buf.len() as u64, frame_wire_bytes(4 * payload.len()));
    let (tag, got) = read_frame(&mut &buf[..]).unwrap();
    assert_eq!(tag, u64::MAX);
    let want: Vec<u32> = payload.iter().map(|v| v.to_bits()).collect();
    let got: Vec<u32> = got.expect_f32().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);

    for empty in [Payload::F32Dense(vec![]), Payload::PackedU64(vec![]), Payload::Bytes(vec![])] {
        let kind = empty.kind();
        let buf = encode_frame(5, empty.as_ref());
        let (_, got) = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got.kind(), kind);
        assert_eq!(got.byte_len(), 0);
    }
}
