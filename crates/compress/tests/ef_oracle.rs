//! The single-buffer error feedback against the three-buffer formulation
//! it replaced.
//!
//! [`Oracle`] keeps the old path — copy the gradient into `acc`, add the
//! memory, build a dense vector of what was transmitted, store
//! `acc − transmitted` — as a test-only reference. The library now adds the
//! gradient into the memory and subtracts (or takes) the transmitted part
//! in place; on finite inputs the two agree bit for bit, in the
//! synchronized gradient and in the residual, round after round. The one
//! named difference is pinned at the bottom: a non-finite value that is
//! *taken* leaves residual 0 where the subtraction left `inf − inf = NaN`.

use a2sgd::registry::AlgoKind;
use cluster_comm::{run_cluster, CommHandle, NetworkProfile};
use gradcomp::sparse::{Select, Sparsifier};
use gradcomp::{GaussianK, GradientSynchronizer, RandK, SignSgdEf, TopK};
use mini_tensor::rng::SeedRng;

const LENGTHS: [usize; 5] = [1, 7, 64, 257, 4_099];
const ROUNDS: usize = 4;
const RATIO: f32 = 0.1;

/// What a worker transmits of its accumulated gradient, decoded and dense.
type Compress = Box<dyn FnMut(&[f32]) -> Vec<f32>>;

/// The pre-rewrite error feedback, verbatim in its arithmetic.
struct Oracle {
    memory: Vec<f32>,
    compress: Compress,
}

impl Oracle {
    fn new(n: usize, compress: Compress) -> Self {
        Oracle { memory: vec![0.0; n], compress }
    }

    /// One step: `acc = g + memory`, `memory = acc − transmitted`, and the
    /// world average of every rank's transmitted vector, rank 0 first.
    fn sync(&mut self, grad: &[f32], comm: &mut CommHandle) -> Vec<f32> {
        let mut acc = grad.to_vec();
        for (a, m) in acc.iter_mut().zip(&self.memory) {
            *a += *m;
        }
        let transmitted = (self.compress)(&acc);
        for i in 0..acc.len() {
            self.memory[i] = acc[i] - transmitted[i];
        }
        let gathered = comm.allgather(&transmitted);
        let inv = 1.0 / gathered.len() as f32;
        let mut out = vec![0.0f32; grad.len()];
        for contribution in &gathered {
            for (o, v) in out.iter_mut().zip(contribution) {
                *o += v * inv;
            }
        }
        out
    }
}

/// The old `kept` vector: the selected coordinates scattered into zeros.
fn kept(acc: &[f32], idx: &[u32]) -> Vec<f32> {
    let mut kept = vec![0.0f32; acc.len()];
    for &i in idx {
        kept[i as usize] += acc[i as usize] * 1.0;
    }
    kept
}

/// The old EF-SignSGD `decoded` vector.
fn scaled_signs(acc: &[f32]) -> Vec<f32> {
    let scale = (acc.iter().map(|v| v.abs() as f64).sum::<f64>() / acc.len() as f64) as f32;
    acc.iter().map(|&a| scale * a.signum()).collect()
}

/// The error-feedback users under test, behind one accessor.
trait EfUser: GradientSynchronizer {
    fn residual(&self) -> &[f32];
}
impl<S: Select> EfUser for Sparsifier<S> {
    fn residual(&self) -> &[f32] {
        Sparsifier::residual(self)
    }
}
impl EfUser for SignSgdEf {
    fn residual(&self) -> &[f32] {
        SignSgdEf::residual(self)
    }
}

/// Gaussian gradient with every fifth coordinate a signed zero.
fn gradient(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeedRng::new(seed);
    let mut g: Vec<f32> = (0..n).map(|_| rng.randn() * 0.05 + 0.002).collect();
    for (k, v) in g.iter_mut().step_by(5).enumerate() {
        *v = if k % 2 == 0 { 0.0 } else { -0.0 };
    }
    g
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `make(n, rank)`'s synchronizer — a `kind` — beside its oracle on
/// the same communicator and demands equal bits every round, on every rank.
fn assert_matches_oracle<U: EfUser>(
    kind: AlgoKind,
    make: impl Fn(usize, usize) -> (U, Compress) + Send + Sync,
) {
    for world in [1, 3] {
        for n in LENGTHS {
            let make = &make;
            let per_rank = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
                let (mut sync, compress) = make(n, h.rank());
                let mut oracle = Oracle::new(n, compress);
                let mut rounds = Vec::new();
                for round in 0..ROUNDS {
                    let g = gradient(n, (100 * round + h.rank()) as u64);
                    let mut got = g.clone();
                    sync.synchronize(&mut got, h);
                    let want = oracle.sync(&g, h);
                    rounds.push((
                        (bits(&got), bits(sync.residual())),
                        (bits(&want), bits(&oracle.memory)),
                    ));
                }
                rounds
            });
            let name = kind.name();
            for (rank, rounds) in per_rank.into_iter().enumerate() {
                for (round, (got, want)) in rounds.into_iter().enumerate() {
                    assert!(got == want, "{name}: world {world} n {n} rank {rank} round {round}");
                }
            }
        }
    }
}

#[test]
fn selectors_match_the_three_buffer_oracle() {
    assert_matches_oracle(AlgoKind::TopK(RATIO), |n, _| {
        let sync = TopK::new(n, RATIO);
        let k = sync.k();
        (sync, Box::new(move |acc: &[f32]| kept(acc, &TopK::select(acc, k))) as Compress)
    });
    assert_matches_oracle(AlgoKind::GaussianK(RATIO), |n, _| {
        let sync = GaussianK::new(n, RATIO);
        let (k, mut rule) = (sync.k(), gradcomp::gaussiank::Threshold);
        (sync, Box::new(move |acc: &[f32]| kept(acc, &rule.select(acc, k))) as Compress)
    });
    assert_matches_oracle(AlgoKind::RandK(RATIO), |n, rank| {
        let seed = 0xA5 ^ rank as u64;
        let sync = RandK::new(n, RATIO, seed);
        let (k, mut rng) = (sync.k(), SeedRng::new(seed));
        let pick = move |acc: &[f32]| kept(acc, &RandK::pick_indices(&mut rng, acc.len(), k));
        (sync, Box::new(pick) as Compress)
    });
}

#[test]
fn signsgd_matches_the_three_buffer_oracle() {
    assert_matches_oracle(AlgoKind::SignSgd, |n, _| {
        (SignSgdEf::new(n), Box::new(scaled_signs) as Compress)
    });
}

#[test]
fn a_taken_infinity_leaves_no_residual() {
    // Top-K takes the infinity (largest magnitude). The oracle's memory is
    // `inf − inf = NaN` there, and NaN outranks everything in every later
    // selection; the in-place memory gives the coordinate up whole. Every
    // other coordinate's residual is the oracle's, bit for bit.
    let n = 64;
    let mut g = gradient(n, 9);
    g[17] = f32::INFINITY;
    let out = run_cluster(1, NetworkProfile::infiniband_100g(), move |h| {
        let mut sync = TopK::new(n, RATIO);
        let k = sync.k();
        let mut oracle = Oracle::new(n, Box::new(move |acc| kept(acc, &TopK::select(acc, k))));
        sync.synchronize(&mut g.clone(), h);
        oracle.sync(&g, h);
        (sync.residual().to_vec(), oracle.memory)
    });
    let (residual, oracle) = &out[0];
    assert_eq!(residual[17].to_bits(), 0.0f32.to_bits());
    assert!(oracle[17].is_nan());
    for i in (0..n).filter(|&i| i != 17) {
        assert_eq!(residual[i].to_bits(), oracle[i].to_bits(), "coordinate {i}");
    }
}
