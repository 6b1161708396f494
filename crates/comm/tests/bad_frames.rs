//! A received frame that is not what the collective round expects — one
//! lane short, one byte long, or the wrong payload kind — is a typed
//! `TransportError::BadFrame` on the rank that received it: never a
//! silently truncated sum and never a panic, in debug and release builds
//! alike. The damage is done by a test-local `Transport` wrapper on one
//! rank, on both backends.
//!
//! A frame the collective moves intact but whose *content* its format
//! refuses — a compressed gradient that is cut short, of another payload
//! kind, or holding a value its codec does not define — is the same
//! `BadFrame`, returned by the codec's `accumulate` through
//! `try_sync_bucketed`: `crates/compress/tests/bad_codec_frames.rs`.

use a2sgd::algorithm::A2sgd;
use cluster_comm::transport::{
    InProcShared, Payload, PayloadRef, RecvResult, Tcp, Transport, TransportError, WorldSpec,
};
use cluster_comm::{CollectiveAlgo, CommHandle};
use gradcomp::GradientSynchronizer;

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// A frame of lanes loses its last lane.
    DropLane,
    /// A frame's lanes arrive as opaque bytes.
    Retype,
    /// An empty frame arrives carrying one byte.
    Stuff,
    /// An empty frame arrives as an empty f32 frame.
    Relabel,
}

/// Passes every frame through, except the `nth` (0-based) frame of the
/// damage's target this rank receives, which it damages: a non-empty
/// frame of f32 or u64 lanes for `DropLane` / `Retype`, an empty frame for
/// `Stuff` / `Relabel`.
struct Damaging {
    inner: Box<dyn Transport>,
    nth: usize,
    damage: Damage,
}

impl Damaging {
    fn pass(&mut self, frame: Payload) -> Payload {
        let lanes = matches!(frame, Payload::F32Dense(_) | Payload::PackedU64(_));
        let target = match self.damage {
            Damage::DropLane | Damage::Retype => lanes && frame.byte_len() > 0,
            Damage::Stuff | Damage::Relabel => frame.byte_len() == 0,
        };
        if !target {
            return frame;
        }
        let hit = self.nth == 0;
        self.nth = self.nth.wrapping_sub(1);
        match (hit, self.damage, frame) {
            (false, _, frame) => frame,
            (true, Damage::DropLane, Payload::F32Dense(mut v)) => {
                v.pop();
                Payload::F32Dense(v)
            }
            (true, Damage::DropLane, Payload::PackedU64(mut v)) => {
                v.pop();
                Payload::PackedU64(v)
            }
            (true, Damage::Retype, frame) => {
                let mut bytes = Vec::new();
                frame.as_ref().extend_bytes_into(&mut bytes);
                Payload::Bytes(bytes)
            }
            (true, Damage::Stuff, _) => Payload::Bytes(vec![0xA5]),
            (true, _, _) => Payload::F32Dense(Vec::new()),
        }
    }
}

impl Transport for Damaging {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world(&self) -> usize {
        self.inner.world()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn send_bytes(
        &mut self,
        to: usize,
        tag: u64,
        payload: PayloadRef<'_>,
    ) -> Result<u64, TransportError> {
        self.inner.send_bytes(to, tag, payload)
    }

    fn recv_bytes(&mut self, from: usize, tag: u64, block: bool) -> RecvResult {
        Ok(self.inner.recv_bytes(from, tag, block)?.map(|frame| self.pass(frame)))
    }
}

#[derive(Clone, Copy)]
enum Backend {
    InProc,
    Tcp,
}

/// Runs `op` on `world` thread ranks, `victim` receiving through
/// [`Damaging`], and returns the victim's outcome. The other ranks may
/// finish or see the victim leave; either way they return.
fn victim_outcome(
    backend: Backend,
    world: usize,
    (victim, nth, damage): (usize, usize, Damage),
    op: impl Fn(&mut CommHandle) -> Result<(), TransportError> + Sync,
) -> Result<(), TransportError> {
    let shared = InProcShared::new(world);
    let spec = WorldSpec::single_host(free_loopback_addr(), world);
    let mut outcomes: Vec<_> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..world)
            .map(|rank| {
                let (shared, spec, op) = (&shared, &spec, &op);
                s.spawn(move || {
                    let inner: Box<dyn Transport> = match backend {
                        Backend::InProc => Box::new(shared.endpoint(rank)),
                        Backend::Tcp => Box::new(Tcp::connect_spec(rank, spec).unwrap()),
                    };
                    let t = if rank == victim {
                        Box::new(Damaging { inner, nth, damage })
                    } else {
                        inner
                    };
                    op(&mut CommHandle::new(t, None))
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("a rank panicked")).collect()
    });
    outcomes.swap_remove(victim)
}

fn free_loopback_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

fn assert_bad_frame(got: Result<(), TransportError>, victim: usize, what: &str) {
    match got {
        Err(TransportError::BadFrame { rank, .. }) if rank == victim => {}
        other => panic!("{what}: expected BadFrame on rank {victim}, got {other:?}"),
    }
}

fn rank_vec(rank: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| (rank * 7 + i) as f32 * 0.25).collect()
}

#[test]
fn ring_allreduce_rejects_a_short_frame_in_both_phases() {
    let ring = |h: &mut CommHandle| {
        let mut d = rank_vec(h.rank(), 10);
        h.try_allreduce_sum_with(&mut d, CollectiveAlgo::Ring)
    };
    for backend in [Backend::InProc, Backend::Tcp] {
        // World 3: frames 0–1 are the reduce-scatter, 2–3 the allgather.
        for (victim, nth) in [(0, 0), (1, 1), (2, 2), (0, 3)] {
            let got = victim_outcome(backend, 3, (victim, nth, Damage::DropLane), ring);
            assert_bad_frame(got, victim, &format!("ring, frame {nth}"));
        }
    }
}

#[test]
fn recursive_doubling_rejects_short_and_retyped_frames_in_every_phase() {
    // World 3: rank 0 folds out (unfold receive), rank 1 folds in (fold
    // receive, then the core), rank 2 is only in the core. Both spellings.
    let blocking = |h: &mut CommHandle| {
        let mut d = rank_vec(h.rank(), 9);
        h.try_allreduce_sum_with(&mut d, CollectiveAlgo::RecursiveDoubling)
    };
    let handle = |h: &mut CommHandle| {
        let mut handle = h.start_allreduce(rank_vec(h.rank(), 9));
        while !handle.try_complete(h)? {
            std::thread::yield_now();
        }
        handle.wait(h).map(|_| ())
    };
    for backend in [Backend::InProc, Backend::Tcp] {
        for damage in [Damage::DropLane, Damage::Retype] {
            for (victim, nth) in [(0, 0), (1, 0), (1, 1), (2, 0)] {
                let what = format!("RD {damage:?}, rank {victim} frame {nth}");
                let got = victim_outcome(backend, 3, (victim, nth, damage), blocking);
                assert_bad_frame(got, victim, &what);
                let got = victim_outcome(backend, 3, (victim, nth, damage), handle);
                assert_bad_frame(got, victim, &format!("{what}, handle"));
            }
        }
    }
}

#[test]
fn broadcast_and_typed_allgather_reject_bad_frames() {
    let broadcast = |h: &mut CommHandle| {
        let mut d = rank_vec(h.rank(), 5);
        h.try_broadcast(0, &mut d)
    };
    let gather = |h: &mut CommHandle| h.try_allgather(&rank_vec(h.rank(), 3)).map(|_| ());
    for backend in [Backend::InProc, Backend::Tcp] {
        for victim in [1, 2] {
            let got = victim_outcome(backend, 3, (victim, 0, Damage::DropLane), broadcast);
            assert_bad_frame(got, victim, "broadcast");
        }
        // A gather's lengths may differ by rank; its kind may not.
        let got = victim_outcome(backend, 3, (1, 0, Damage::Retype), gather);
        assert_bad_frame(got, 1, "allgather");
    }
}

#[test]
fn barrier_rejects_a_non_empty_or_non_bytes_frame() {
    let barrier = |h: &mut CommHandle| h.try_barrier();
    for backend in [Backend::InProc, Backend::Tcp] {
        // World 3: every rank receives two empty frames, at hops 1 and 2.
        for damage in [Damage::Stuff, Damage::Relabel] {
            for (victim, nth) in [(0, 0), (1, 1), (2, 0), (2, 1)] {
                let got = victim_outcome(backend, 3, (victim, nth, damage), barrier);
                assert_bad_frame(got, victim, &format!("barrier {damage:?}, frame {nth}"));
            }
        }
    }
}

#[test]
fn a2sgd_rejects_a_damaged_packet_without_panicking() {
    // The packet is one u64 per rank, gathered: a short or retyped one is
    // an Err from the synchronizer on the rank that received it.
    let sync = |h: &mut CommHandle| {
        let mut g: Vec<f32> = rank_vec(h.rank(), 64).iter().map(|x| x - 4.0).collect();
        A2sgd::new().try_sync_bucketed(&mut g, &[], h).map(drop)
    };
    for backend in [Backend::InProc, Backend::Tcp] {
        for damage in [Damage::DropLane, Damage::Retype] {
            for (victim, nth) in [(0, 0), (2, 1)] {
                let got = victim_outcome(backend, 3, (victim, nth, damage), sync);
                assert_bad_frame(got, victim, &format!("A2SGD packet {damage:?}, frame {nth}"));
            }
        }
    }
}
