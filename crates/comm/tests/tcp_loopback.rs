//! TCP-backend collectives over real loopback sockets (thread ranks):
//! results must be *bit-identical* to the in-process backend, traffic must
//! be measured, and — the point of the typed-payload wire format — the
//! bytes measured on the socket must equal each algorithm's encoded
//! payload plus fixed per-frame framing. The wire-parity tests drive the
//! real gradient synchronizers (A2SGD, QSGD, Top-K) end to end.

use a2sgd::algorithm::A2sgd;
use a2sgd::registry::AlgoKind;
use cluster_comm::transport::wire::FRAME_HEADER_BYTES;
use cluster_comm::{
    run_cluster, run_cluster_tcp_threads, CollectiveAlgo, CommHandle, CostModel, NetworkProfile,
    Payload, TrafficStats, TransportError,
};
use gradcomp::topk::TopK;
use gradcomp::{GradientSynchronizer, Qsgd, QsgdImpl};

fn rank_input(rank: usize, n: usize, seed: u64) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E37));
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The workload every backend runs: one of each collective, concatenated.
fn collective_workload(h: &mut CommHandle, seed: u64) -> Vec<f32> {
    let mut out = Vec::new();
    for algo in [CollectiveAlgo::Ring, CollectiveAlgo::RecursiveDoubling, CollectiveAlgo::Auto] {
        let mut d = rank_input(h.rank(), 37, seed);
        h.allreduce_sum_with(&mut d, algo);
        out.extend_from_slice(&d);
    }
    let mut b = if h.rank() == 1 % h.world() { rank_input(7, 9, seed) } else { vec![0.0f32; 9] };
    h.broadcast(1 % h.world(), &mut b);
    out.extend_from_slice(&b);
    for part in h.allgather(&rank_input(h.rank(), 5, seed)) {
        out.extend_from_slice(&part);
    }
    // Opaque byte frames of rank-dependent length: every backend must move
    // them verbatim.
    let frame = Payload::Bytes((0..=h.rank() as u8).map(|b| b.wrapping_mul(37)).collect());
    for p in h.allgather_bytes(frame) {
        out.extend(p.expect_bytes().into_iter().map(|b| b as f32));
    }
    h.barrier();
    out
}

#[test]
fn tcp_threads_bit_identical_to_inproc() {
    for world in [1usize, 2, 3, 4, 5, 8] {
        let seed = 1000 + world as u64;
        let tcp = run_cluster_tcp_threads(world, |h| collective_workload(h, seed));
        let inproc =
            run_cluster(world, NetworkProfile::infiniband_100g(), |h| collective_workload(h, seed));
        for rank in 0..world {
            assert_eq!(
                bits(&tcp[rank]),
                bits(&inproc[rank]),
                "world {world} rank {rank}: TCP and in-proc collectives diverged"
            );
        }
    }
}

#[test]
fn tcp_clock_measures_wall_time() {
    let out = run_cluster_tcp_threads(2, |h| {
        assert!(h.cost_model().is_none(), "TCP must not carry a Hockney overlay");
        assert_eq!(h.backend_name(), "tcp");
        let mut d = vec![1.0f32; 1024];
        h.allreduce_sum(&mut d);
        h.comm_seconds()
    });
    // Real sockets take real time; the priced InfiniBand figure for this
    // payload would be ~µs, while loopback TCP rounds through the kernel.
    assert!(out.iter().all(|&t| t > 0.0));
}

/// The paper's Table 2 claim, measured on a real socket: A2SGD's
/// per-iteration exchange is a single packed 64-bit two-means word. Every
/// TCP frame of that exchange carries exactly 8 payload bytes plus the
/// fixed framing header — nothing scales with the model dimension n.
#[test]
fn a2sgd_packet_is_64_bits_plus_framing_on_the_wire() {
    for world in [2usize, 4, 8] {
        let stats = run_cluster_tcp_threads(world, |h| {
            let packet = Payload::PackedU64(vec![0x3F00_0000_BE80_0000]);
            let got = h.allgather_bytes(packet);
            assert_eq!(got.len(), world);
            h.stats()
        });
        for (rank, s) in stats.iter().enumerate() {
            // Table 2's per-worker accounting: 64 logical bits, once.
            assert_eq!(s.logical_wire_bits, 64, "world {world} rank {rank}");
            // Measured on the socket: every frame is the 64-bit packet...
            assert_eq!(s.bytes_sent, 8 * s.messages, "world {world} rank {rank}");
            // ...plus exactly the fixed framing overhead, nothing else.
            assert_eq!(
                s.wire_bytes,
                (8 + FRAME_HEADER_BYTES) * s.messages,
                "world {world} rank {rank}"
            );
            // The gather sends the own word to each of the world−1 peers;
            // the byte total is O(P), independent of n.
            assert_eq!(s.messages, world as u64 - 1);
        }
    }
}

/// Asserts the wire-parity law for one rank's measured traffic: every
/// payload byte on the socket is accounted, and framing is exactly the
/// fixed header per frame. At world 2 each collective is one frame per
/// rank, so `wire_bytes == ceil(logical_wire_bits / 8) + frames ·
/// FRAME_HEADER_BYTES` — the encoded payload and nothing else.
fn assert_wire_parity(s: &TrafficStats, label: &str) {
    assert_eq!(s.wire_bytes, s.bytes_sent + FRAME_HEADER_BYTES * s.messages, "{label}: framing");
    assert_eq!(s.bytes_sent, s.logical_wire_bits.div_ceil(8), "{label}: payload bytes");
}

/// A2SGD over a real loopback socket: measured traffic equals the 64-bit
/// formula payload plus one frame of framing — the paper's O(1) claim as
/// a socket-level fact.
#[test]
fn wire_parity_a2sgd_on_loopback() {
    let out = run_cluster_tcp_threads(2, |h| {
        let mut g = rank_input(h.rank(), 4096, 7);
        let stats = A2sgd::new().synchronize(&mut g, h);
        (h.stats(), stats.wire_bits)
    });
    for (rank, (s, wire_bits)) in out.iter().enumerate() {
        assert_wire_parity(s, &format!("A2SGD rank {rank}"));
        assert_eq!(*wire_bits, A2sgd::WIRE_BITS);
        assert_eq!(s.logical_wire_bits, 64);
        assert_eq!(s.messages, 1);
        assert_eq!(s.wire_bytes, 8 + FRAME_HEADER_BYTES);
    }
}

/// Top-K(1%) over a real loopback socket: the sparse frame is k (u32, f32)
/// records — 64k bits — and that, plus one frame header, is exactly what
/// the socket measures. The formula is no longer bookkeeping: it is the
/// frame.
#[test]
fn wire_parity_topk_on_loopback() {
    let n = 1000;
    let ratio = 0.01; // k = 10
    let out = run_cluster_tcp_threads(2, move |h| {
        let mut tk = TopK::new(n, ratio);
        let mut g = rank_input(h.rank(), n, 11);
        let stats = tk.synchronize(&mut g, h);
        (h.stats(), stats.wire_bits, tk.k() as u64)
    });
    for (rank, (s, wire_bits, k)) in out.iter().enumerate() {
        assert_eq!(*k, 10);
        assert_wire_parity(s, &format!("TopK rank {rank}"));
        assert_eq!(*wire_bits, AlgoKind::TopK(ratio).wire_bits(n));
        assert_eq!(s.logical_wire_bits, 64 * k);
        assert_eq!(s.messages, 1);
        assert_eq!(s.wire_bytes, 8 * k + FRAME_HEADER_BYTES);
    }
}

/// QSGD(8) over a real loopback socket: the Elias-coded stream itself
/// crosses the wire. The expected size is recomputed independently from a
/// twin quantizer with the same seed: 4 norm bytes + the bit stream padded
/// to whole bytes, plus one frame header.
#[test]
fn wire_parity_qsgd8_on_loopback() {
    let n = 700;
    let out = run_cluster_tcp_threads(2, move |h| {
        let g = rank_input(h.rank(), n, 13);
        // Twin quantizer: same seed, same input ⇒ identical levels, which
        // predicts the exact encoded frame the synchronizer will ship.
        let seed = 0x9D ^ h.rank() as u64;
        let mut twin = Qsgd::new(8, QsgdImpl::Fast, seed);
        let twin = twin.quantize(&g);
        let expect_payload_bytes = Qsgd::encode_payload(twin.norm, &twin.levels).byte_len() as u64;

        let mut q = Qsgd::new(8, QsgdImpl::Fast, seed);
        let mut g2 = g.clone();
        let stats = q.synchronize(&mut g2, h);
        (h.stats(), stats.wire_bits, expect_payload_bytes)
    });
    for (rank, (s, wire_bits, expect_bytes)) in out.iter().enumerate() {
        assert_wire_parity(s, &format!("QSGD rank {rank}"));
        assert_eq!(s.bytes_sent, *expect_bytes, "rank {rank}: encoded stream is the frame");
        assert_eq!(*wire_bits, 8 * expect_bytes);
        assert_eq!(s.messages, 1);
        assert_eq!(s.wire_bytes, expect_bytes + FRAME_HEADER_BYTES);
    }
}

#[test]
fn tcp_traffic_includes_framing_overhead() {
    let stats = run_cluster_tcp_threads(2, |h| {
        let mut d = vec![0.0f32; 100];
        h.allreduce_sum_with(&mut d, CollectiveAlgo::Ring);
        h.stats()
    });
    for s in stats {
        // Ring with P=2: two sends of ~half the vector each.
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes_sent, 4 * 100);
        assert_eq!(s.wire_bytes, s.bytes_sent + FRAME_HEADER_BYTES * s.messages);
    }
}

#[test]
fn tcp_many_sequential_collectives_do_not_deadlock() {
    let results = run_cluster_tcp_threads(4, |h| {
        let mut acc = 0.0f64;
        for i in 0..25 {
            let mut d = vec![(h.rank() * 25 + i) as f32; 17];
            h.allreduce_sum(&mut d);
            acc += d[0] as f64;
            h.barrier();
        }
        acc
    });
    let first = results[0];
    assert!(results.iter().all(|&v| (v - first).abs() < 1e-6));
}

/// The element type a row of the accounting table moves.
#[derive(Clone, Copy, Debug)]
enum Elem {
    F32,
    U64,
    U8,
}

impl Elem {
    fn bytes(self) -> usize {
        match self {
            Elem::F32 => 4,
            Elem::U64 => 8,
            Elem::U8 => 1,
        }
    }
}

/// One row of the accounting table: a collective and its element count on
/// every rank (a broadcast's root is `root % P`).
#[derive(Clone, Copy, Debug)]
enum Coll {
    Allreduce(CollectiveAlgo, usize),
    Broadcast(Elem, usize, usize),
    Allgather(Elem, usize),
    Barrier,
}

/// Every collective `CommHandle` has, in the order each rank runs them:
/// the ring (with empty chunks once P > 3), recursive doubling, `Auto` on
/// both sides of its crossover (50 000 lanes pick the ring from P = 3 on
/// under the reference profile), broadcast of each wire type from three
/// roots, the typed allgather of each wire type, and the barrier.
const TABLE: [Coll; 12] = [
    Coll::Allreduce(CollectiveAlgo::Ring, 37),
    Coll::Allreduce(CollectiveAlgo::Ring, 3),
    Coll::Allreduce(CollectiveAlgo::RecursiveDoubling, 37),
    Coll::Allreduce(CollectiveAlgo::Auto, 4),
    Coll::Allreduce(CollectiveAlgo::Auto, 50_000),
    Coll::Broadcast(Elem::F32, 0, 9),
    Coll::Broadcast(Elem::U64, 7, 3),
    Coll::Broadcast(Elem::U8, 3, 5),
    Coll::Allgather(Elem::F32, 5),
    Coll::Allgather(Elem::U64, 1),
    Coll::Allgather(Elem::U8, 6),
    Coll::Barrier,
];

/// Runs one row on `h` and returns its result as bit patterns.
fn run_row(h: &mut CommHandle, row: Coll) -> Vec<u64> {
    let rank = h.rank();
    let words = |n: usize, r: usize| -> Vec<u64> {
        (0..n).map(|i| ((r * 1000 + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
    };
    let octets =
        |n: usize, r: usize| -> Vec<u8> { (0..n).map(|i| (r * 37 + i * 11) as u8).collect() };
    match row {
        Coll::Allreduce(algo, n) => {
            let mut d = rank_input(rank, n, 0xACC7);
            h.allreduce_sum_with(&mut d, algo);
            d.iter().map(|x| u64::from(x.to_bits())).collect()
        }
        Coll::Broadcast(elem, root, n) => {
            let root = root % h.world();
            match elem {
                Elem::F32 => {
                    let mut d = rank_input(rank, n, 0xB0);
                    h.broadcast(root, &mut d);
                    d.iter().map(|x| u64::from(x.to_bits())).collect()
                }
                Elem::U64 => {
                    let mut d = words(n, rank);
                    h.broadcast(root, &mut d);
                    d
                }
                Elem::U8 => {
                    let mut d = octets(n, rank);
                    h.broadcast(root, &mut d);
                    d.into_iter().map(u64::from).collect()
                }
            }
        }
        Coll::Allgather(elem, n) => match elem {
            Elem::F32 => h
                .allgather(&rank_input(rank, n, 0x6A))
                .concat()
                .iter()
                .map(|x| u64::from(x.to_bits()))
                .collect(),
            Elem::U64 => h.allgather(&words(n, rank)).concat(),
            Elem::U8 => h.allgather(&octets(n, rank)).concat().into_iter().map(u64::from).collect(),
        },
        Coll::Barrier => {
            h.barrier();
            Vec::new()
        }
    }
}

/// The closed form of one row on rank `rank` of a `p`-rank communicator:
/// `(messages, bytes_sent, logical_wire_bits, priced seconds)`.
fn closed_form(row: Coll, p: usize, rank: usize, m: &CostModel) -> (u64, u64, u64, f64) {
    let ceil_log2 = u64::from(p.next_power_of_two().trailing_zeros());
    match row {
        Coll::Allreduce(algo, n) => {
            let bytes = 4.0 * n as f64;
            let ring = match algo {
                CollectiveAlgo::Ring => true,
                CollectiveAlgo::RecursiveDoubling => false,
                CollectiveAlgo::Auto => {
                    m.ring_allreduce(bytes, p) <= m.recursive_doubling_allreduce(bytes, p)
                }
            };
            if ring {
                // Reduce-scatter sends every chunk but (rank + 1)'s, the
                // allgather every chunk but (rank + 2)'s.
                let chunk = |c: usize| n / p + usize::from(c % p < n % p);
                let lanes = 2 * n - chunk(rank + 1) - chunk(rank + 2);
                let frames = 2 * (p as u64 - 1);
                (frames, 4 * lanes as u64, 32 * n as u64, m.ring_allreduce(bytes, p))
            } else {
                // MPICH fold: even ranks below 2·rem send once (into the
                // core); odd ones also hand the result back.
                let pow2 = 1usize << p.ilog2();
                let rem = p - pow2;
                let stages = u64::from(pow2.ilog2());
                let frames = match (rank < 2 * rem, rank % 2) {
                    (true, 0) => 1,
                    (true, _) => stages + 1,
                    (false, _) => stages,
                };
                let price = m.recursive_doubling_allreduce(bytes, p);
                (frames, frames * 4 * n as u64, 32 * n as u64, price)
            }
        }
        Coll::Broadcast(elem, root, n) => {
            let bytes = (elem.bytes() * n) as u64;
            let root = root % p;
            // Binomial tree: relative rank v sends to v + d for every power
            // of two d below its lowest set bit (below P for the root).
            let v = (rank + p - root) % p;
            let low = if v == 0 { p.next_power_of_two() } else { 1 << v.trailing_zeros() };
            let children =
                (0..usize::BITS).map(|j| 1usize << j).filter(|&d| d < low && v + d < p).count();
            let children = children as u64;
            let logical = if rank == root { 8 * bytes } else { 0 };
            (children, children * bytes, logical, m.broadcast(bytes as f64, p))
        }
        Coll::Allgather(elem, n) => {
            let bytes = (elem.bytes() * n) as u64;
            let peers = p as u64 - 1;
            (peers, peers * bytes, 8 * bytes, m.ring_allgather(bytes as f64, p))
        }
        Coll::Barrier => (ceil_log2, 0, 0, m.barrier(p)),
    }
}

/// One accounting table for every collective: on a world and on a split
/// child of any size, on either backend, each row moves its closed-form
/// number of frames and payload bytes, counts its own payload once as
/// logical bits (a broadcast on its root only), puts exactly one frame
/// header per frame on a socket and nothing extra through a mailbox, and a
/// priced communicator charges exactly the row's `CostModel` price. A
/// proper subgroup's collectives complete without the non-members, and
/// both backends compute bit-identical results.
#[test]
fn every_collective_has_one_accounting_on_every_backend() {
    // Per communicator (the world, then this rank's child of a ragged
    // two-way split): per row, the result bits, the stats it added and the
    // ledger before and after it.
    type Measured = (usize, Vec<(Vec<u64>, TrafficStats, f64, f64)>);
    let table = |h: &mut CommHandle| -> Measured {
        let mut rows = Vec::new();
        for row in TABLE {
            let (s0, t0) = (h.stats(), h.comm_seconds());
            let out = run_row(h, row);
            let s1 = h.stats();
            let added = TrafficStats {
                bytes_sent: s1.bytes_sent - s0.bytes_sent,
                messages: s1.messages - s0.messages,
                wire_bytes: s1.wire_bytes - s0.wire_bytes,
                logical_wire_bits: s1.logical_wire_bits - s0.logical_wire_bits,
            };
            rows.push((out, added, t0, h.comm_seconds()));
        }
        (h.world(), rows)
    };
    let body = |h: &mut CommHandle| {
        let on_world = table(h);
        let cut = (h.world() + 1) / 3;
        let mut child = h.split(Some(u64::from(h.rank() >= cut)), h.rank() as u64).unwrap();
        [on_world, table(&mut child)]
    };
    let profile = NetworkProfile::infiniband_100g();
    let m = CostModel::new(profile);
    for world in 1usize..=8 {
        let inproc = run_cluster(world, profile, body);
        let tcp = run_cluster_tcp_threads(world, body);
        for (backend, ranks) in [("inproc", &inproc), ("tcp", &tcp)] {
            for (rank, comms) in ranks.iter().enumerate() {
                for (comm, (p, rows)) in ["world", "child"].into_iter().zip(comms) {
                    let sub_rank = if comm == "world" { rank } else { child_rank(world, rank) };
                    for (row, (_, s, t0, t1)) in TABLE.into_iter().zip(rows) {
                        let ctx =
                            format!("{backend} world {world} rank {rank}: {comm} of {p}, {row:?}");
                        let (messages, bytes, logical, price) = closed_form(row, *p, sub_rank, &m);
                        assert_eq!(s.messages, messages, "{ctx}: messages");
                        assert_eq!(s.bytes_sent, bytes, "{ctx}: bytes_sent");
                        assert_eq!(s.logical_wire_bits, logical, "{ctx}: logical_wire_bits");
                        if backend == "tcp" {
                            let framed = bytes + messages * FRAME_HEADER_BYTES;
                            assert_eq!(s.wire_bytes, framed, "{ctx}: wire_bytes");
                            assert!(t1 >= t0, "{ctx}: the measured ledger went backwards");
                        } else {
                            assert_eq!(s.wire_bytes, bytes, "{ctx}: wire_bytes");
                            assert_eq!(t1.to_bits(), (t0 + price).to_bits(), "{ctx}: priced");
                        }
                    }
                }
            }
        }
        for rank in 0..world {
            for (c, (a, b)) in inproc[rank].iter().zip(&tcp[rank]).enumerate() {
                for (i, (x, y)) in a.1.iter().zip(&b.1).enumerate() {
                    assert_eq!(x.0, y.0, "world {world} rank {rank} comm {c}: {:?}", TABLE[i]);
                }
            }
        }
    }
}

/// This rank's sub-rank in the accounting table's ragged split: ranks
/// below `(P + 1) / 3` form one group, the rest the other, each in rank
/// order.
fn child_rank(world: usize, rank: usize) -> usize {
    let cut = (world + 1) / 3;
    if rank < cut {
        rank
    } else {
        rank - cut
    }
}

/// Regression: symmetric blocking sends of frames far larger than the
/// kernel socket buffers must not deadlock — the per-peer reader threads
/// keep draining, so `write_all` always completes. 8 MB/frame dwarfs any
/// default loopback sndbuf/rcvbuf pairing.
#[test]
fn tcp_huge_frames_do_not_deadlock() {
    let n = 2_000_000; // 8 MB per recursive-doubling frame
    let sums = run_cluster_tcp_threads(2, move |h| {
        let mut d = vec![1.0f32; n];
        h.allreduce_sum_with(&mut d, CollectiveAlgo::RecursiveDoubling);
        (d[0], d[n - 1])
    });
    assert!(sums.iter().all(|&(a, b)| a == 2.0 && b == 2.0));
}

#[test]
fn tcp_large_frames_cross_the_buffer_boundary() {
    // > 64 KiB per frame (recursive doubling sends the whole vector),
    // exercising chunked socket writes through the 64 KiB link buffer and
    // chunked reads into the typed payload.
    let n = 20_000; // 80 KB payload per frame
    let tcp = run_cluster_tcp_threads(2, move |h| {
        let mut d = rank_input(h.rank(), n, 99);
        h.allreduce_sum_with(&mut d, CollectiveAlgo::RecursiveDoubling);
        d
    });
    let inproc = run_cluster(2, NetworkProfile::infiniband_100g(), move |h| {
        let mut d = rank_input(h.rank(), n, 99);
        h.allreduce_sum_with(&mut d, CollectiveAlgo::RecursiveDoubling);
        d
    });
    assert_eq!(bits(&tcp[0]), bits(&inproc[0]));
    assert_eq!(bits(&tcp[1]), bits(&inproc[1]));
}

// ---- nonblocking collectives / bucketed sync on real sockets --------------

/// A frame whose kind and length both depend on the rank (rank 0's is
/// empty).
fn mixed_frame(rank: usize) -> Payload {
    match rank % 3 {
        0 => Payload::Bytes(vec![rank as u8; rank]),
        1 => Payload::PackedU64(vec![rank as u64; rank]),
        _ => Payload::F32Dense(vec![rank as f32; rank + 1]),
    }
}

/// The blocking `allgather_bytes` is `start → wait` on the engine: frames
/// come back verbatim indexed by origin, the own payload is the logical
/// size (counted once), every rank sends its frame to each of its P−1
/// peers, and the in-flight slot is taken and given back.
#[test]
fn blocking_allgather_bytes_accounts_for_every_frame() {
    let body = |h: &mut CommHandle| {
        let got = h.allgather_bytes(mixed_frame(h.rank()));
        (got, h.stats(), h.inflight(), h.max_inflight())
    };
    for world in [1usize, 2, 3, 5, 8] {
        let peers = world as u64 - 1;
        let all_frame_bytes: u64 = (0..world).map(|r| mixed_frame(r).byte_len() as u64).sum();
        for (backend, out) in [
            ("inproc", run_cluster(world, NetworkProfile::infiniband_100g(), body)),
            ("tcp", run_cluster_tcp_threads(world, body)),
        ] {
            let mut bytes_sent = 0;
            for (rank, (got, stats, inflight, max_inflight)) in out.into_iter().enumerate() {
                let what = format!("{backend} world {world} rank {rank}");
                assert_eq!(got.len(), world, "{what}");
                for (origin, frame) in got.iter().enumerate() {
                    let want = mixed_frame(origin);
                    assert_eq!(format!("{frame:?}"), format!("{want:?}"), "{what} slot {origin}");
                }
                assert_eq!(stats.logical_wire_bits, mixed_frame(rank).bits(), "{what}");
                assert_eq!(stats.messages, peers, "{what}");
                assert_eq!(inflight, 0, "{what}");
                assert!(max_inflight >= 1, "{what}");
                bytes_sent += stats.bytes_sent;
            }
            assert_eq!(bytes_sent, peers * all_frame_bytes, "{backend} world {world}");
        }
    }
}

/// The acceptance claim for the pipelined bucket path, measured on real
/// sockets: a dense multi-bucket step launches every bucket's exchange
/// before waiting on any — ≥ 2 frames (here: all 8 buckets) concurrently
/// in flight, tag-matched back out of the shared per-peer streams — and
/// the result is still bit-identical to the single-shot call.
#[test]
fn pipelined_dense_buckets_overlap_on_tcp() {
    use gradcomp::DenseSgd;
    let n = 8 * 1024usize;
    let whole = run_cluster_tcp_threads(2, move |h| {
        let mut g = rank_input(h.rank(), n, 31);
        DenseSgd::new().synchronize(&mut g, h);
        g
    });
    let out = run_cluster_tcp_threads(2, move |h| {
        let mut g = rank_input(h.rank(), n, 31);
        let bounds: Vec<std::ops::Range<usize>> =
            (0..8).map(|i| i * (n / 8)..(i + 1) * (n / 8)).collect();
        DenseSgd::new().sync_bucketed(&mut g, &bounds, h);
        (g, h.max_inflight(), h.stats())
    });
    for (rank, (g, max_inflight, stats)) in out.iter().enumerate() {
        assert_eq!(bits(g), bits(&whole[rank]), "rank {rank}");
        assert!(
            *max_inflight >= 2,
            "rank {rank}: only {max_inflight} exchange(s) in flight — no overlap"
        );
        // Dense payload bytes are identical to single-shot; only the
        // frame count (one per bucket at world 2) changes.
        assert_eq!(stats.bytes_sent, 4 * n as u64);
        assert_eq!(stats.messages, 8);
        assert_eq!(stats.logical_wire_bits, 32 * n as u64);
    }
}

/// Wire parity holds bucket-by-bucket too: a bucketed Top-K step ships
/// the same 8k payload bytes as single-shot (records are byte-aligned so
/// cutting adds nothing), just spread over one frame per non-empty bucket.
#[test]
fn wire_parity_bucketed_topk_on_loopback() {
    let n = 1000;
    let ratio = 0.01; // k = 10
    let buckets = 4usize;
    let out = run_cluster_tcp_threads(2, move |h| {
        let mut tk = TopK::new(n, ratio);
        let mut g = rank_input(h.rank(), n, 11);
        let bounds: Vec<std::ops::Range<usize>> =
            (0..buckets).map(|i| i * (n / buckets)..(i + 1) * (n / buckets)).collect();
        let stats = tk.sync_bucketed(&mut g, &bounds, h);
        (h.stats(), stats.wire_bits, tk.k() as u64)
    });
    for (rank, (s, wire_bits, k)) in out.iter().enumerate() {
        assert_eq!(*k, 10);
        assert_wire_parity(s, &format!("bucketed TopK rank {rank}"));
        assert_eq!(*wire_bits, 64 * k, "rank {rank}: total payload unchanged by bucketing");
        // One frame per bucket (empty buckets still ship a header-only
        // frame at world 2), each counted by the parity law above.
        assert_eq!(s.messages, buckets as u64);
    }
}

/// Peer loss through the polling path: rank 1 exits immediately, so rank
/// 0's gather can never complete. `try_complete` must surface the typed
/// error AND release the in-flight slot, so a caller that drops the failed
/// handle leaves the accounting exact.
#[test]
fn try_complete_surfaces_peer_loss_and_releases_slot() {
    let out = run_cluster_tcp_threads(2, |h| {
        if h.rank() == 1 {
            return true; // exit without replying; the link dies
        }
        let mut handle = h.start_allgather_bytes(Payload::PackedU64(vec![1]));
        let err = loop {
            match handle.try_complete(h) {
                Ok(true) => panic!("gather cannot complete: the peer never sent"),
                Ok(false) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("rank 1"), "{err}");
        assert_eq!(h.inflight(), 0, "failed handle must release its in-flight slot");
        drop(handle);
        assert_eq!(h.inflight(), 0);
        true
    });
    assert!(out.into_iter().all(|ok| ok));
}

/// A collective on a dead peer: rank 1 of a 2-rank world leaves at once
/// (dropping its communicator); rank 0's `op` must come back with a typed
/// error naming both ranks and its in-flight slot released — the blocking
/// adapters release on the error path exactly as `wait` does. Both
/// backends, each within 30 s instead of hanging.
fn assert_dead_peer_errs(op: fn(&mut CommHandle) -> Result<(), TransportError>) {
    let body = move |h: &mut CommHandle| {
        if h.rank() == 1 {
            return;
        }
        let msg = op(h).expect_err("completed without the peer").to_string();
        assert!(msg.contains("rank 0") && msg.contains("rank 1"), "{msg}");
        assert_eq!(h.inflight(), 0, "failed collective must release its in-flight slot");
    };
    for tcp in [false, true] {
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached: a hung survivor must fail the test at the deadline,
        // not hang the join.
        std::thread::spawn(move || {
            if tcp {
                run_cluster_tcp_threads(2, body);
            } else {
                run_cluster(2, NetworkProfile::infiniband_100g(), body);
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("tcp={tcp}: survivor hung or failed its checks ({e})"));
    }
}

#[test]
fn nonblocking_wait_surfaces_peer_loss() {
    assert_dead_peer_errs(|h| {
        h.start_allgather_bytes(Payload::PackedU64(vec![0xDEAD])).wait(h).map(drop)
    });
}

#[test]
fn blocking_allgather_surfaces_peer_loss_and_releases_slot() {
    assert_dead_peer_errs(|h| h.try_allgather(&[7u64]).map(drop));
}

#[test]
fn blocking_small_allreduce_surfaces_peer_loss_and_releases_slot() {
    // 16 bytes at world 2: `Auto` picks recursive doubling.
    assert_dead_peer_errs(|h| h.try_allreduce_avg(&mut [1.0f32; 4]));
}

#[test]
fn blocking_ring_allreduce_surfaces_peer_loss_and_releases_slot() {
    assert_dead_peer_errs(|h| h.try_allreduce_sum_with(&mut [1.0f32; 64], CollectiveAlgo::Ring));
}

#[test]
fn blocking_broadcast_surfaces_peer_loss_and_releases_slot() {
    // Rank 0 is the leaf: it waits on the departed root.
    assert_dead_peer_errs(|h| h.try_broadcast(1, &mut [0u64; 3]));
}

#[test]
fn blocking_barrier_surfaces_peer_loss_and_releases_slot() {
    assert_dead_peer_errs(|h| h.try_barrier());
}
