//! A codec frame that does not parse is a typed error, never a panic.
//!
//! Rank 1 of two synchronizes through a test-local [`Codec`] wrapper that
//! delegates to the real codec but damages every frame it encodes: cut
//! short, sent as another payload kind, or given content its format
//! refuses (a sparse index outside the bucket or a length that is not
//! whole records, a QSGD level outside `[−s, s]`, TernGrad's non-digit
//! `11`). Every rank decodes rank 1's frame, so on both ranks
//! `try_sync_bucketed` returns `TransportError::BadFrame` naming rank 1 —
//! the error the collective engine returns for a frame of the wrong kind or
//! length (`crates/comm/tests/bad_frames.rs`). Six codecs in-proc, and QSGD
//! once over loopback TCP between thread ranks.

use cluster_comm::{
    run_cluster, run_cluster_tcp_threads, CommHandle, NetworkProfile, Payload, TransportError,
};
use gradcomp::{
    Codec, GaussianK, GradientSynchronizer, Qsgd, QsgdImpl, RandK, SignSgdEf, TernGrad, TopK,
};
use std::any::type_name;
use std::ops::Range;

const N: usize = 256;
/// QSGD's level count.
const S: u8 = 4;

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// The frame loses its last byte.
    Truncate,
    /// The frame arrives as f32 lanes.
    Retype,
    /// The first sparse record's index is the bucket's end.
    IndexOutside,
    /// Three bytes past the last sparse record.
    Misalign,
    /// The first QSGD level is `s + 1`.
    LevelAboveS,
    /// The first TernGrad digit is `11`.
    NonDigit,
}

/// The real codec, with every frame it encodes damaged.
struct Damaged<C> {
    inner: C,
    damage: Damage,
}

impl<C: Codec> Codec for Damaged<C> {
    fn prepare(&mut self, grad: &mut [f32]) {
        self.inner.prepare(grad)
    }

    fn encode(&self, range: &Range<usize>, bucket: &[f32]) -> Payload {
        let mut bytes = self.inner.encode(range, bucket).expect_bytes();
        assert!(bytes.len() > 4, "{}: nothing to damage in {range:?}", type_name::<C>());
        match self.damage {
            Damage::Truncate => drop(bytes.pop()),
            Damage::Retype => return Payload::F32Dense(vec![0.0; bytes.len() / 4]),
            Damage::IndexOutside => bytes[..4].copy_from_slice(&(range.end as u32).to_le_bytes()),
            Damage::Misalign => bytes.extend_from_slice(&[0; 3]),
            Damage::LevelAboveS => {
                let mut levels = vec![0i8; range.len()];
                levels[0] = S as i8 + 1;
                let norm = f32::from_le_bytes(bytes[..4].try_into().unwrap());
                return Qsgd::encode_payload(norm, &levels);
            }
            Damage::NonDigit => bytes[4] |= 0b11,
        }
        Payload::Bytes(bytes)
    }

    fn accumulate(
        &self,
        range: &Range<usize>,
        frame: &Payload,
        bucket: &mut [f32],
        weight: f32,
    ) -> Result<(), String> {
        self.inner.accumulate(range, frame, bucket, weight)
    }
}

/// Rank `rank`'s gradient: every coordinate non-zero, large ones in both
/// buckets, so every frame has content to damage.
fn grad(rank: usize) -> Vec<f32> {
    (0..N).map(|i| ((rank * 7 + i * 37) % 23) as f32 * 0.1 - 1.15).collect()
}

/// One two-bucket sync on `comm`: rank 1 through the damaging wrapper.
fn sync<C: Codec>(
    comm: &mut CommHandle,
    mut codec: C,
    damage: Damage,
) -> Result<(), TransportError> {
    let mut g = grad(comm.rank());
    let bounds = [0..N / 2, N / 2..N];
    let result = match comm.rank() {
        1 => Damaged { inner: codec, damage }.try_sync_bucketed(&mut g, &bounds, comm),
        _ => codec.try_sync_bucketed(&mut g, &bounds, comm),
    };
    result.map(drop)
}

/// Both ranks refused rank 1's frame under the same tag.
fn assert_refused(name: &str, damage: Damage, results: Vec<Result<(), TransportError>>) {
    let mut tags = Vec::new();
    for (rank, result) in results.into_iter().enumerate() {
        match result {
            Err(TransportError::BadFrame { rank: r, peer: 1, tag, cause }) if r == rank => {
                assert!(!cause.is_empty());
                tags.push(tag);
            }
            other => panic!("{name} {damage:?}, rank {rank}: {other:?}"),
        }
    }
    assert_eq!(tags[0], tags[1], "{name} {damage:?}: the two ranks name different tags");
}

fn check<C: Codec>(make: impl Fn() -> C + Sync, damages: &[Damage]) {
    for &damage in damages {
        let results =
            run_cluster(2, NetworkProfile::infiniband_100g(), |h| sync(h, make(), damage));
        assert_refused(type_name::<C>(), damage, results);
    }
}

#[test]
fn every_codec_refuses_a_damaged_frame_on_every_rank() {
    use Damage::*;
    let sparse = [Truncate, Retype, IndexOutside, Misalign];
    check(|| TopK::new(N, 0.25), &sparse);
    check(|| GaussianK::new(N, 0.25), &sparse);
    check(|| RandK::new(N, 0.25, 3), &sparse);
    check(|| Qsgd::new(S, QsgdImpl::Fast, 3), &[Truncate, Retype, LevelAboveS]);
    check(|| TernGrad::new(3), &[Truncate, Retype, NonDigit]);
    check(|| SignSgdEf::new(N), &[Truncate, Retype]);
}

#[test]
fn qsgd_refuses_a_damaged_frame_over_loopback_tcp() {
    let results = run_cluster_tcp_threads(2, |h| {
        sync(h, Qsgd::new(S, QsgdImpl::Fast, 3), Damage::LevelAboveS)
    });
    assert_refused("QSGD over TCP", Damage::LevelAboveS, results);
}
