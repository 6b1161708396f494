//! Property-based tests for the compression algorithms' core invariants.

use cluster_comm::Payload;
use gradcomp::ef::ErrorFeedback;
use gradcomp::sparse;
use gradcomp::{Codec, Qsgd, QsgdImpl, SignSgdEf, TernGrad, TopK};
use proptest::prelude::*;
use std::any::type_name;
use std::ops::Range;

fn small_grad(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 1..=n)
}

/// Prepares `codec` on `g`, then cuts its frames at `bounds` and folds each
/// back into zeros at weight 1: every frame must be `frame_bytes` long and
/// the result must be `0.0 + local[i] · 1.0` bit for bit, where `local` is
/// the codec's own decoded contribution (given the prepared codec and the
/// gradient as `prepare` left it).
fn assert_frames_roundtrip<C: Codec>(
    mut codec: C,
    g: &[f32],
    bounds: &[Range<usize>],
    local: impl FnOnce(&C, &[f32]) -> Vec<f32>,
    frame_bytes: impl Fn(&C, &Range<usize>) -> usize,
) {
    let mut prepared = g.to_vec();
    codec.prepare(&mut prepared);
    let mut out = vec![0.0f32; g.len()];
    for r in bounds {
        let frame = codec.encode(r, &prepared[r.clone()]);
        assert_eq!(frame.byte_len(), frame_bytes(&codec, r), "{} frame {r:?}", type_name::<C>());
        codec.accumulate(r, &frame, &mut out[r.clone()], 1.0).unwrap();
    }
    let want: Vec<u32> =
        local(&codec, &prepared).iter().map(|d| (0.0 + d * 1.0).to_bits()).collect();
    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "{} over {bounds:?}", type_name::<C>());
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The sparse format read the slow way: `None` unless `frame` is whole
/// 8-byte records whose every index is in `range`, and then each record's
/// `value · weight` added at its index in frame order.
fn sparse_oracle(
    frame: &[u8],
    range: &Range<usize>,
    bucket: &mut [f32],
    weight: f32,
) -> Option<()> {
    if frame.len() % 8 != 0 {
        return None;
    }
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
    let recs: Vec<(usize, f32)> =
        frame.chunks(8).map(|r| (word(&r[..4]) as usize, f32::from_bits(word(&r[4..])))).collect();
    if recs.iter().any(|(i, _)| !range.contains(i)) {
        return None;
    }
    for (i, v) in recs {
        bucket[i - range.start] += v * weight;
    }
    Some(())
}

/// The sparse `accumulate` on `frame` against [`sparse_oracle`]: both
/// refuse it, or both read it into equal buckets, bit for bit.
fn assert_sparse_verdict(frame: &[u8], range: &Range<usize>) {
    let start = |n: usize| (0..n).map(|i| i as f32 * 0.25 - 1.0).collect::<Vec<f32>>();
    let (mut got, mut want) = (start(range.len()), start(range.len()));
    let codec = TopK::new(1, 1.0);
    let verdict = codec.accumulate(range, &Payload::Bytes(frame.to_vec()), &mut got, 0.375);
    let old = sparse_oracle(frame, range, &mut want, 0.375);
    assert_eq!(verdict.is_ok(), old.is_some(), "frame {frame:02x?} into {range:?}: {verdict:?}");
    if old.is_some() {
        assert_eq!(bits(&got), bits(&want), "frame {frame:02x?} into {range:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn error_feedback_conserves_mass(g in small_grad(64), keep_mask in prop::collection::vec(any::<bool>(), 128)) {
        // For ANY split into taken/left coordinates, with the memory empty
        // and then not: accumulated == transmitted + residual exactly.
        let n = g.len();
        let mut ef = ErrorFeedback::new(n);
        for mask in keep_mask.chunks(64) {
            let acc = ef.accumulate(&g).to_vec();
            for i in 0..n {
                let transmitted = if mask[i] { ef.take(i) } else { 0.0 };
                prop_assert_eq!(transmitted + ef.residual()[i], acc[i]);
            }
        }
    }

    #[test]
    fn topk_selects_max_magnitude_set(g in small_grad(48), k in 1usize..20) {
        let k = k.min(g.len());
        let idx = TopK::select(&g, k);
        prop_assert_eq!(idx.len(), k.min(g.len()));
        // Every selected magnitude ≥ every unselected magnitude.
        let selected: std::collections::HashSet<u32> = idx.iter().copied().collect();
        let min_sel = idx.iter().map(|&i| g[i as usize].abs()).fold(f32::INFINITY, f32::min);
        for (i, &v) in g.iter().enumerate() {
            if !selected.contains(&(i as u32)) {
                prop_assert!(v.abs() <= min_sel + 1e-6);
            }
        }
    }

    #[test]
    fn qsgd_decode_error_bounded_by_norm_over_s(g in small_grad(32), s in 1u8..16) {
        // QSGD's per-coordinate error is at most one level: norm/s.
        let mut q = Qsgd::new(s, QsgdImpl::Fast, 11);
        let (all, norm) = (0..g.len(), q.quantize(&g).norm);
        let mut out = vec![0.0f32; g.len()];
        q.accumulate(&all, &q.encode(&all, &g), &mut out, 1.0).unwrap();
        let bound = norm / s as f32 + 1e-5;
        for (a, b) in g.iter().zip(&out) {
            prop_assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
        }
    }

    #[test]
    fn elias_gamma_roundtrips(raw in prop::collection::vec(any::<u8>(), 0..64), s in 1u8..=127) {
        // Any levels in [−s, s] through the frame and back; norm = s makes
        // each decoded value the level itself.
        let levels: Vec<i8> = raw.iter().map(|&b| (b as i32 % (2 * s as i32 + 1) - s as i32) as i8).collect();
        let frame = Qsgd::encode_payload(s as f32, &levels);
        let mut got = vec![0.0f32; levels.len()];
        let all = 0..levels.len();
        prop_assert!(Qsgd::new(s, QsgdImpl::Fast, 0).accumulate(&all, &frame, &mut got, 1.0).is_ok());
        prop_assert_eq!(got, levels.iter().map(|&l| l as f32).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_encode_decode_roundtrips(pairs in prop::collection::vec((0u32..1_000_000, -5.0f32..5.0), 0..64)) {
        let idx: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let val: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let payload = sparse::encode(&idx, &val);
        prop_assert_eq!(payload.bits(), sparse::PAIR_BITS * idx.len() as u64);
        // Read back into the bucket spanning the indices: each record's
        // value lands at its index, repeats summed in frame order.
        let lo = idx.iter().min().map_or(0, |&i| i as usize);
        let r = lo..idx.iter().max().map_or(0, |&i| i as usize + 1);
        let mut want = vec![0.0f32; r.len()];
        for (&i, &v) in idx.iter().zip(&val) {
            want[i as usize - lo] += v * 1.0;
        }
        let mut got = vec![0.0f32; r.len()];
        prop_assert!(TopK::new(1, 1.0).accumulate(&r, &payload, &mut got, 1.0).is_ok());
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn average_gathered_is_linear_in_workers(g in small_grad(32)) {
        // Gathering the SAME frame P times averages back to itself.
        let n = g.len();
        let idx: Vec<u32> = (0..n as u32).collect();
        let payload = sparse::encode(&idx, &g);
        let codec = TopK::new(n, 1.0);
        for p in [1usize, 2, 5] {
            let mut out = vec![0.0f32; n];
            for _ in 0..p {
                codec.accumulate(&(0..n), &payload, &mut out, 1.0 / p as f32).unwrap();
            }
            for (a, b) in out.iter().zip(&g) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn frames_roundtrip_under_any_bucket_cut(
        g in small_grad(96),
        cuts in prop::collection::vec(0usize..=96, 0..6),
        seed in any::<u64>(),
    ) {
        // All four wire formats through the codec contract: whatever the
        // partition (empty buckets included), decoding a codec's own frames
        // rebuilds its local contribution, and each frame is exactly as
        // long as its format says.
        let n = g.len();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).chain([0, n]).collect();
        cuts.sort_unstable();
        let bounds: Vec<Range<usize>> = cuts.windows(2).map(|w| w[0]..w[1]).collect();

        // Sparse records.
        assert_frames_roundtrip(
            TopK::new(n, 0.25),
            &g,
            &bounds,
            |c, _| {
                let (idx, val) = c.selected();
                let mut dense = vec![0.0f32; n];
                for (&i, &v) in idx.iter().zip(val) {
                    dense[i as usize] = v;
                }
                dense
            },
            |c, r| 8 * sparse::records_in(c.selected().0, r).len(),
        );

        // Elias-coded levels: a twin quantizer on the same seed draws the
        // same levels the codec holds.
        let mut twin = Qsgd::new(4, QsgdImpl::Fast, seed);
        let twin = twin.quantize(&g);
        assert_frames_roundtrip(
            Qsgd::new(4, QsgdImpl::Fast, seed),
            &g,
            &bounds,
            |_, _| twin.levels.iter().map(|&l| l as f32 * (twin.norm / 4.0)).collect(),
            |_, r| {
                // Sign + gamma(|l| + 1) = 2 + 2⌊log₂(|l| + 1)⌋ bits a level.
                let stream: u32 =
                    twin.levels[r.clone()].iter().map(|&l| 2 + 2 * (l.unsigned_abs() as u32 + 1).ilog2()).sum();
                4 + stream.div_ceil(8) as usize
            },
        );

        // 2-bit ternary and 1-bit sign packs: `prepare` leaves the decoded
        // contribution in the gradient itself.
        assert_frames_roundtrip(
            TernGrad::new(seed),
            &g,
            &bounds,
            |_, prepared| prepared.to_vec(),
            |_, r| 4 + (2 * r.len()).div_ceil(8),
        );
        assert_frames_roundtrip(
            SignSgdEf::new(n),
            &g,
            &bounds,
            |_, prepared| prepared.to_vec(),
            |_, r| 4 + r.len().div_ceil(8),
        );
    }

    #[test]
    fn sparse_damaged_frames_give_err_or_the_valid_sums(
        recs in prop::collection::vec((0usize..40, -5.0f32..5.0), 0..12),
        n in 1usize..40,
        start in 0usize..1000,
        kind in any::<u8>(),
        at in any::<u64>(),
        extra in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        // A valid frame for the bucket `start..start + n`, then truncated,
        // extended, sent as another payload kind, or given an index
        // outside the bucket.
        let range = start..start + n;
        let idx: Vec<u32> = recs.iter().map(|&(i, _)| (start + i % n) as u32).collect();
        let val: Vec<f32> = recs.iter().map(|&(_, v)| v).collect();
        let Payload::Bytes(mut frame) = sparse::encode(&idx, &val) else { unreachable!() };
        let at = at as usize;
        match kind % 4 {
            0 => frame.truncate(at % (frame.len() + 1)),
            1 => frame.extend_from_slice(&extra),
            2 => {
                let mut out = vec![0.0f32; n];
                for other in [Payload::F32Dense(vec![0.0; frame.len() / 4]), Payload::PackedU64(vec![0; frame.len() / 8])] {
                    prop_assert!(TopK::new(1, 1.0).accumulate(&range, &other, &mut out, 1.0).is_err());
                }
            }
            _ if !frame.is_empty() => {
                let outside = [start + n, start + n + at % 7, u32::MAX as usize, start.wrapping_sub(1)];
                let rec = 8 * (at % (frame.len() / 8));
                let i = outside[(at / 7) % 4] as u32;
                frame[rec..rec + 4].copy_from_slice(&i.to_le_bytes());
                let mut out = vec![0.0f32; n];
                prop_assert!(TopK::new(1, 1.0).accumulate(&range, &Payload::Bytes(frame.clone()), &mut out, 1.0).is_err());
            }
            _ => {}
        }
        assert_sparse_verdict(&frame, &range);
    }

    #[test]
    fn sparse_arbitrary_bytes_give_err_or_the_valid_sums(
        frame in prop::collection::vec(any::<u8>(), 0..48),
        n in 0usize..80,
        start in 0usize..4,
    ) {
        assert_sparse_verdict(&frame, &(start..start + n));
    }
}
