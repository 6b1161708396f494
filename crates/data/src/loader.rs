//! Dataset abstraction, worker sharding and batch iteration.

use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// A supervised dataset of `(example, label)` pairs.
pub trait Dataset: Sync {
    /// Number of examples.
    fn len(&self) -> usize;

    /// True when the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of label classes.
    fn num_classes(&self) -> usize;

    /// Dims of every example (a batch of them is `[B, dims…]`).
    fn example_dims(&self) -> Vec<usize>;

    /// Writes the `index`-th example into `out` (`example_dims`' product
    /// long) and returns its label.
    fn sample_into(&self, index: usize, out: &mut [f32]) -> usize;

    /// The `index`-th example as a tensor, with its label.
    fn sample(&self, index: usize) -> (Tensor, usize) {
        let dims = self.example_dims();
        let mut x = vec![0.0f32; dims.iter().product()];
        let label = self.sample_into(index, &mut x);
        (Tensor::from_vec(x, &dims[..]), label)
    }
}

/// Stacks examples `idxs` of `dataset` into one `[B, dims…]` tensor, each
/// row written once by [`Dataset::sample_into`], with their labels.
pub fn stack<D: Dataset>(dataset: &D, idxs: &[usize]) -> (Tensor, Vec<usize>) {
    let dims = dataset.example_dims();
    let per: usize = dims.iter().product();
    let mut data = vec![0.0f32; idxs.len() * per];
    let labels = idxs
        .iter()
        .zip(data.chunks_exact_mut(per))
        .map(|(&i, row)| dataset.sample_into(i, row))
        .collect();
    let shape: Vec<usize> = [idxs.len()].into_iter().chain(dims).collect();
    (Tensor::from_vec(data, &shape[..]), labels)
}

/// The index shard owned by one data-parallel worker: indices
/// `rank, rank+P, rank+2P, …` (interleaved), matching the even split a
/// distributed sampler produces.
#[derive(Debug, Clone)]
pub struct Shard {
    indices: Vec<usize>,
}

impl Shard {
    /// Builds the shard for `rank` of `world` over a dataset of `len`.
    pub fn new(len: usize, rank: usize, world: usize) -> Self {
        assert!(world > 0 && rank < world, "invalid rank {rank}/{world}");
        Shard { indices: (rank..len).step_by(world).collect() }
    }

    /// A single-owner shard over the contiguous index range `lo..hi`
    /// (used for held-out evaluation slices of a shared dataset).
    pub fn range(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi);
        Shard { indices: (lo..hi).collect() }
    }

    /// The PyTorch-`DistributedSampler` semantics: all ranks agree on one
    /// seeded **global permutation** of `0..len`, then rank p takes every
    /// `world`-th element. Without the global permutation, structured
    /// datasets (e.g. labels correlated with the index) give each worker a
    /// *biased* shard — harmless for dense allreduce averaging, but fatal
    /// for algorithms whose updates are mostly local (A2SGD's
    /// residual-retaining update, local SGD, …).
    pub fn new_permuted(len: usize, rank: usize, world: usize, seed: u64) -> Self {
        assert!(world > 0 && rank < world, "invalid rank {rank}/{world}");
        let mut perm: Vec<usize> = (0..len).collect();
        let mut rng = SeedRng::new(seed ^ 0x5A4D_9E2B);
        rng.shuffle(&mut perm);
        Shard { indices: perm.into_iter().skip(rank).step_by(world).collect() }
    }

    /// Examples in this shard.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Shard indices in current order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

/// Iterates a shard in fixed-size batches, stacking examples into one
/// `[B, ...]` tensor. The trailing partial batch is dropped (as Horovod's
/// sampler does), so every worker runs the same number of iterations.
pub struct BatchIter<'a, D: Dataset> {
    dataset: &'a D,
    shard: &'a Shard,
    batch: usize,
    cursor: usize,
}

impl<'a, D: Dataset> BatchIter<'a, D> {
    /// Creates a batch iterator with local batch size `batch`.
    pub fn new(dataset: &'a D, shard: &'a Shard, batch: usize) -> Self {
        assert!(batch > 0);
        BatchIter { dataset, shard, batch, cursor: 0 }
    }

    /// Number of full batches this iterator will yield.
    pub fn batches(&self) -> usize {
        self.shard.len() / self.batch
    }
}

impl<'a, D: Dataset> Iterator for BatchIter<'a, D> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor + self.batch > self.shard.len() {
            return None;
        }
        let idxs = &self.shard.indices()[self.cursor..self.cursor + self.batch];
        self.cursor += self.batch;
        Some(stack(self.dataset, idxs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vision::{SyntheticImages, VisionSpec};
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn shards_partition_the_dataset() {
        let world = 4;
        let mut seen = [false; 103];
        for rank in 0..world {
            let s = Shard::new(103, rank, world);
            for &i in s.indices() {
                assert!(!seen[i], "index {i} in two shards");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some index unassigned");
    }

    #[test]
    fn shard_sizes_balanced() {
        for world in [1, 2, 4, 8, 16] {
            let sizes: Vec<usize> = (0..world).map(|r| Shard::new(1000, r, world).len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn permuted_shards_partition_and_decorrelate_labels() {
        let world = 4;
        let mut seen = [false; 200];
        for rank in 0..world {
            let s = Shard::new_permuted(200, rank, world, 9);
            // Every residue class mod 10 (the synthetic label) must appear
            // in every shard — the property plain interleaving violates.
            let mut label_seen = [false; 10];
            for &i in s.indices() {
                assert!(!seen[i]);
                seen[i] = true;
                label_seen[i % 10] = true;
            }
            assert!(label_seen.iter().all(|&b| b), "rank {rank} missing a label class");
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn permuted_shards_agree_across_ranks_on_the_permutation() {
        // Determinism: rebuilding any rank's shard yields the same indices.
        let a = Shard::new_permuted(100, 2, 4, 7);
        let b = Shard::new_permuted(100, 2, 4, 7);
        assert_eq!(a.indices(), b.indices());
        // Different seeds give different permutations.
        let c = Shard::new_permuted(100, 2, 4, 8);
        assert_ne!(a.indices(), c.indices());
    }

    #[test]
    fn batch_iter_stacks_and_drops_tail() {
        let d = SyntheticImages::new(VisionSpec::mnist_like(), 50, 5);
        let shard = Shard::new(50, 0, 1);
        let it = BatchIter::new(&d, &shard, 8);
        assert_eq!(it.batches(), 6); // 50/8
        let mut count = 0;
        for (x, y) in it {
            assert_eq!(x.shape().dims(), &[8, 1, 28, 28]);
            assert_eq!(y.len(), 8);
            count += 1;
        }
        assert_eq!(count, 6);
    }

    /// Counts every `sample_into` call per index.
    struct Counting {
        inner: SyntheticImages,
        calls: Vec<std::sync::atomic::AtomicUsize>,
    }

    impl Dataset for Counting {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }
        fn example_dims(&self) -> Vec<usize> {
            self.inner.example_dims()
        }
        fn sample_into(&self, index: usize, out: &mut [f32]) -> usize {
            self.calls[index].fetch_add(1, Relaxed);
            self.inner.sample_into(index, out)
        }
    }

    #[test]
    fn stacking_writes_each_row_once_and_matches_sample() {
        let inner = SyntheticImages::new(VisionSpec::cifar_like(), 40, 8);
        let d = Counting { inner, calls: (0..40).map(|_| Default::default()).collect() };
        let shard = Shard::new_permuted(40, 0, 1, 3);
        let batches: Vec<_> = BatchIter::new(&d, &shard, 8).collect();
        let counts: Vec<usize> = d.calls.iter().map(|c| c.load(Relaxed)).collect();
        assert_eq!(counts, vec![1; 40], "each index synthesised exactly once");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ((x, labels), idxs) in batches.iter().zip(shard.indices().chunks_exact(8)) {
            assert_eq!(x.shape().dims(), &[8, 3, 32, 32]);
            for ((row, &label), &i) in x.as_slice().chunks_exact(3 * 32 * 32).zip(labels).zip(idxs)
            {
                let (want, want_label) = d.inner.sample(i);
                assert_eq!(label, want_label);
                assert_eq!(bits(row), bits(want.as_slice()), "index {i}");
            }
        }
    }

    #[test]
    fn all_workers_run_same_iteration_count() {
        let d = SyntheticImages::new(VisionSpec::mnist_like(), 101, 5);
        let counts: Vec<usize> = (0..4)
            .map(|r| {
                let s = Shard::new(101, r, 4);
                BatchIter::new(&d, &s, 8).batches()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }
}
