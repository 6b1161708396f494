//! Top-K sparsification with error feedback (Stich et al., paper ref [27]).

use crate::sparse::{Select, Sparsifier};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Selects the k largest-magnitude coordinates of the error-compensated
/// gradient and allgathers them; receivers average all workers' sparse
/// contributions. Selection uses a bounded min-heap — `O(n log k)`, the
/// heap-based complexity the paper's Table 2 quotes (`O(n + k log n)` for
/// a max-heap formulation; ours is the space-efficient variant).
pub type TopK = Sparsifier<LargestK>;

/// The Top-K selection rule: the k largest magnitudes, exactly.
pub struct LargestK;

/// f32 magnitude ordered for the heap (total order on non-NaN values).
#[derive(PartialEq)]
struct Mag(f32, u32);
impl Eq for Mag {}
impl PartialOrd for Mag {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Mag {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl TopK {
    /// Creates Top-K for an `n`-parameter model with density `ratio = k/n`
    /// (the paper's appendix uses 0.001).
    pub fn new(n: usize, ratio: f32) -> Self {
        Sparsifier::with_rule(n, ratio, LargestK)
    }

    /// Selects the indices of the k largest |acc| entries (bounded
    /// min-heap over magnitudes).
    pub fn select(acc: &[f32], k: usize) -> Vec<u32> {
        let mut heap: BinaryHeap<Reverse<Mag>> = BinaryHeap::with_capacity(k + 1);
        for (i, &v) in acc.iter().enumerate() {
            let m = Mag(v.abs(), i as u32);
            if heap.len() < k {
                heap.push(Reverse(m));
            } else if m > heap.peek().unwrap().0 {
                heap.pop();
                heap.push(Reverse(m));
            }
        }
        let mut idx: Vec<u32> = heap.into_iter().map(|Reverse(Mag(_, i))| i).collect();
        idx.sort_unstable();
        idx
    }
}

impl Select for LargestK {
    fn select(&mut self, acc: &[f32], k: usize) -> Vec<u32> {
        TopK::select(acc, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradientSynchronizer;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn select_finds_true_top_set() {
        let acc = vec![0.1f32, -5.0, 0.3, 4.0, -0.2, 2.0];
        let idx = TopK::select(&acc, 3);
        assert_eq!(idx, vec![1, 3, 5]);
    }

    #[test]
    fn select_k_equals_n_keeps_all() {
        let acc = vec![1.0f32, 2.0, 3.0];
        assert_eq!(TopK::select(&acc, 3), vec![0, 1, 2]);
    }

    #[test]
    fn residual_plus_kept_equals_accumulated() {
        let n = 100;
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), move |h| {
            let mut tk = TopK::new(n, 0.05);
            let mut g: Vec<f32> =
                (0..n).map(|i| ((i * 37 + h.rank() * 11) % 13) as f32 - 6.0).collect();
            let orig = g.clone();
            let stats = tk.synchronize(&mut g, h);
            // acc == orig (memory was zero) == transmitted + residual
            assert_eq!(crate::sparse::tests::transmitted_plus_residual(&tk), orig);
            stats.wire_bits
        });
        assert!(out.iter().all(|&b| b == 64 * 5));
    }

    #[test]
    fn two_workers_average_their_sparse_picks() {
        // Worker 0's gradient is huge at index 0; worker 1's at index 1.
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let mut g = vec![0.0f32; 10];
            g[h.rank()] = 10.0;
            let mut tk = TopK::new(10, 0.1); // k = 1
            tk.synchronize(&mut g, h);
            g
        });
        for g in out {
            assert!((g[0] - 5.0).abs() < 1e-6);
            assert!((g[1] - 5.0).abs() < 1e-6);
            assert!(g[2..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn error_memory_accumulates_dropped_mass() {
        let out = run_cluster(1, NetworkProfile::infiniband_100g(), |h| {
            let mut tk = TopK::new(4, 0.25); // k = 1
            let mut g1 = vec![1.0f32, 0.5, 0.25, 2.0];
            tk.synchronize(&mut g1, h); // keeps idx 3
            let res1 = tk.residual().to_vec();
            let mut g2 = vec![0.0f32; 4];
            tk.synchronize(&mut g2, h); // memory alone now drives selection
            (res1, g2)
        });
        let (res1, g2) = &out[0];
        assert_eq!(res1, &vec![1.0, 0.5, 0.25, 0.0]);
        // Largest residual (1.0 at idx 0) must be transmitted next round.
        assert!((g2[0] - 1.0).abs() < 1e-6);
    }
}
