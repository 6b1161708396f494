//! The fallible synchronizer contract under peer loss.
//!
//! For every synchronizer the registry can build (and the two-level
//! `hier(dense, a2sgd)` wrapper): a rank that drops its communicator
//! mid-run — the scripted-kill shape `FaultPlan::kill_at` gives
//! `train_elastic`, no goodbye — makes every survivor's
//! `try_sync_bucketed` return `Err(TransportError)`. No panic, no hang
//! (each rank must report within [`DEADLINE`]), on the in-proc mailboxes
//! and on loopback TCP sockets. The barrier is held to the same contract
//! (worlds 2–5, every victim, both backends). The converse is pinned too:
//! a collective that needs nothing from the lost rank (a broadcast past a
//! dead leaf) returns instead of waiting for it.
//!
//! A survivor whose own partners are all alive only learns of the death
//! from another survivor abandoning the exchange, so — like the elastic
//! recovery policy — every rank drops its spent communicator as soon as
//! its call has returned.

use a2sgd::registry::AlgoKind;
use a2sgd_repro::cluster_comm::{
    Cluster, CommHandle, HierarchicalComm, NetworkProfile, TransportError, WorldSpec,
};
use a2sgd_repro::gradcomp::{bucket_bounds, HierarchicalSynchronizer};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);
/// Exchanges every rank completes before the victim leaves.
const HEALTHY_ROUNDS: usize = 2;
const N: usize = 768;

/// One rank's life: healthy rounds, then the victim leaves cold and the
/// survivors attempt one more exchange. `None` from the victim.
fn rank_body(
    mut comm: CommHandle,
    algo: AlgoKind,
    group_size: Option<usize>,
    victim: usize,
) -> Option<Result<(), TransportError>> {
    let rank = comm.rank();
    let mut sync = algo.build(N, 7, rank);
    if let Some(g) = group_size {
        let topo = HierarchicalComm::from_flat(&mut comm, g);
        sync = Box::new(HierarchicalSynchronizer::new(sync, topo));
    }
    let bounds = bucket_bounds(&[300, 68, 400], 1024);
    let mut grad: Vec<f32> =
        (0..N).map(|i| ((rank * 31 + i * 7) % 23) as f32 * 0.1 - 1.0).collect();
    for round in 0..HEALTHY_ROUNDS {
        sync.try_sync_bucketed(&mut grad, &bounds, &mut comm)
            .unwrap_or_else(|e| panic!("{}: healthy round {round} failed: {e}", algo.name()));
    }
    if rank == victim {
        return None;
    }
    let res = sync.try_sync_bucketed(&mut grad, &bounds, &mut comm).map(|_| ());
    // `sync` (which may own sub-communicators sharing the transport) and
    // `comm` drop here: the communicator is spent either way.
    Some(res)
}

/// Runs `rank_body` over `handles` with the last rank as the victim (see
/// [`assert_every_survivor_errs`]).
fn assert_survivors_err(
    what: &str,
    handles: Vec<CommHandle>,
    algo: AlgoKind,
    group_size: Option<usize>,
) {
    let victim = handles.len() - 1;
    assert_every_survivor_errs(what, handles, victim, move |comm| {
        rank_body(comm, algo, group_size, victim)
    });
}

/// Runs `body` — one rank's life, `None` from the victim — on one detached
/// thread per rank over `handles` and demands an `Err` from every survivor
/// before the deadline.
fn assert_every_survivor_errs(
    what: &str,
    handles: Vec<CommHandle>,
    victim: usize,
    body: impl Fn(CommHandle) -> Option<Result<(), TransportError>> + Copy + Send + 'static,
) {
    let world = handles.len();
    let (tx, rx) = mpsc::channel();
    for comm in handles {
        let tx = tx.clone();
        // Detached on purpose: a hung rank must fail the test at the
        // deadline, not hang the join.
        std::thread::spawn(move || {
            let rank = comm.rank();
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(comm)));
            let _ = tx.send((rank, out));
        });
    }
    let mut errs = 0;
    for _ in 0..world {
        let (rank, out) = rx
            .recv_timeout(DEADLINE)
            .unwrap_or_else(|_| panic!("{what}: a rank hung past {DEADLINE:?} after the death"));
        match out.unwrap_or_else(|_| panic!("{what}: rank {rank} panicked instead of erring")) {
            None => assert_eq!(rank, victim),
            Some(Err(_)) => errs += 1,
            Some(Ok(())) => panic!("{what}: rank {rank} completed an exchange without the victim"),
        }
    }
    assert_eq!(errs, world - 1, "{what}: every survivor must see the loss");
}

fn inproc_handles(world: usize) -> Vec<CommHandle> {
    let cluster = Cluster::new(world, NetworkProfile::infiniband_100g());
    (0..world).map(|r| cluster.handle(r)).collect()
}

/// Connects a `world`-rank loopback TCP mesh (one thread per rank for the
/// rendezvous) and returns the endpoints in rank order.
fn tcp_handles(world: usize) -> Vec<CommHandle> {
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral probe");
    let addr = probe.local_addr().expect("probe addr").to_string();
    drop(probe);
    let spec = WorldSpec::single_host(addr, world);
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..world)
            .map(|rank| {
                let spec = &spec;
                s.spawn(move || CommHandle::tcp_from_spec(rank, spec).expect("rendezvous"))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("rendezvous thread")).collect()
    })
}

#[test]
fn peer_death_is_an_err_for_every_synchronizer_inproc() {
    for algo in AlgoKind::all(0.01) {
        assert_survivors_err(&format!("in-proc {}", algo.name()), inproc_handles(3), algo, None);
    }
}

#[test]
fn peer_death_is_an_err_for_every_synchronizer_tcp() {
    for algo in AlgoKind::all(0.01) {
        assert_survivors_err(&format!("tcp {}", algo.name()), tcp_handles(3), algo, None);
    }
}

/// The hierarchy's three planes (dense intra, A2SGD inter, intra
/// broadcast) under the same death: the victim is group 1's member, so its
/// leader fails on the intra plane, group 0's leader on the inter plane,
/// and group 0's member on the fan-out broadcast.
#[test]
fn peer_death_is_an_err_under_hier_dense_a2sgd() {
    let algo = AlgoKind::A2sgd;
    assert_survivors_err("in-proc hier(dense, A2SGD)", inproc_handles(4), algo, Some(2));
    assert_survivors_err("tcp hier(dense, A2SGD)", tcp_handles(4), algo, Some(2));
}

/// The barrier under the same death, for every victim of worlds 2–5: each
/// rank completes one healthy barrier — `Ok` even though the victim leaves
/// the moment its own returns: a rank that leaves *after* a barrier released
/// must not fail it — then the survivors' next barrier is an `Err` on every
/// one of them. A survivor whose dissemination partner is the victim learns
/// from the receive itself, the others from an erring survivor dropping its
/// spent communicator.
#[test]
fn barrier_with_a_dead_peer_is_an_err_on_every_survivor() {
    for world in 2..=5 {
        for victim in 0..world {
            for (backend, handles) in
                [("in-proc", inproc_handles(world)), ("tcp", tcp_handles(world))]
            {
                let what = format!("{backend} barrier, world {world}, victim {victim}");
                assert_every_survivor_errs(&what, handles, victim, move |mut comm| {
                    let rank = comm.rank();
                    comm.try_barrier()
                        .unwrap_or_else(|e| panic!("rank {rank}: healthy barrier failed: {e}"));
                    (rank != victim).then(|| comm.try_barrier())
                });
            }
        }
    }
}

/// World 3, root 0: the binomial tree's leaf, rank 2, has left, and neither
/// survivor needs a frame from it. The broadcast must return on both
/// within the deadline — `Ok` with the root's data, or on TCP a typed `Err`
/// when the send to the dead leaf fails first — never a hang or a panic.
#[test]
fn broadcast_past_a_dead_leaf_returns_on_both_backends() {
    for (backend, mut handles) in [("in-proc", inproc_handles(3)), ("tcp", tcp_handles(3))] {
        drop(handles.pop());
        let (tx, rx) = mpsc::channel();
        for mut comm in handles {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let rank = comm.rank();
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    let mut data = vec![if rank == 0 { 7.0f32 } else { 0.0 }; 16];
                    comm.try_broadcast(0, &mut data).map(|()| data)
                }));
                let _ = tx.send((rank, out));
            });
        }
        for _ in 0..2 {
            let (rank, out) = rx.recv_timeout(DEADLINE).unwrap_or_else(|_| {
                panic!("{backend}: a survivor hung past {DEADLINE:?} broadcasting past a dead leaf")
            });
            match out.unwrap_or_else(|_| panic!("{backend}: rank {rank} panicked")) {
                Ok(data) => assert_eq!(data, vec![7.0; 16], "{backend}: rank {rank}"),
                Err(e) => assert_eq!(backend, "tcp", "in-proc sends cannot fail: {e}"),
            }
        }
    }
}
