//! The four workloads and the `TrainConfig` each one hands to
//! `a2sgd::train`. Every workload is a closed loop of two ranks: each rank
//! starts its next step only after the previous synchronized step applied.

use a2sgd::experiments::{paper_lr_policy, scaled_convergence_config};
use a2sgd::{AlgoKind, CommBackend, TrainConfig};
use mini_nn::models::{ModelKind, Preset};
use mini_tensor::gemm::Gemm;

/// Ranks per workload: the box has two cores.
pub const WORLD: usize = 2;

/// Epochs of a long run; also the span of the learning-rate policy, which
/// stays that of the long run however few epochs a run executes.
pub const EPOCHS: usize = 4;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: ModelKind,
    pub preset: Preset,
    pub algo: AlgoKind,
    /// Loopback-TCP rank processes (`true`) or in-proc thread ranks.
    pub tcp: bool,
    /// DDP shape: hook-driven sync mid-backward over size-capped buckets.
    pub bucket_bytes: Option<usize>,
    pub batch: usize,
    /// Steps per epoch of a long run: under a second in all, so that the
    /// host reference passes around a run still describe the host during it.
    pub steps: usize,
    /// The product the model's forward/backward spends most of its GEMM
    /// time in, at this workload's batch size.
    pub dominant_gemm: Gemm,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fnn3_a2sgd_tcp",
        why: "paper algorithm at paper FNN-3 size over loopback TCP: half the step is the A2SGD \
              compress pass, the exchange is one 8-byte latency-bound packet",
        model: ModelKind::Fnn3,
        preset: Preset::Paper,
        algo: AlgoKind::A2sgd,
        tcp: true,
        bucket_bytes: None,
        batch: 32,
        steps: 25,
        dominant_gemm: Gemm { trans_a: false, trans_b: true, m: 32, k: 784, n: 206 },
    },
    Workload {
        name: "fnn3_dense_tcp",
        why: "the dense baseline in DDP shape: 800 KB per rank per step streamed mid-backward in \
              64 KiB buckets, bandwidth-bound on the transport the first workload uses for latency",
        model: ModelKind::Fnn3,
        preset: Preset::Paper,
        algo: AlgoKind::Dense,
        tcp: true,
        bucket_bytes: Some(65536),
        batch: 32,
        steps: 25,
        dominant_gemm: Gemm { trans_a: false, trans_b: true, m: 32, k: 784, n: 206 },
    },
    Workload {
        name: "resnet20_topk",
        why: "compute-bound: conv, im2col, GEMM and batch-norm are over 90 % of the step and sync \
              under 5 %, so sync-path work must predict no change here",
        model: ModelKind::ResNet20,
        preset: Preset::Scaled,
        algo: AlgoKind::TopK(0.001),
        tcp: false,
        bucket_bytes: None,
        batch: 8,
        steps: 5,
        dominant_gemm: Gemm { trans_a: false, trans_b: false, m: 4, k: 36, n: 1024 },
    },
    Workload {
        name: "lstm_qsgd",
        why: "the paper's headline model against its 23x comparator: many small fork/join-bound \
              GEMMs per timestep, QSGD quantise + Elias encode, allgather of opaque byte frames",
        model: ModelKind::LstmPtb,
        preset: Preset::Scaled,
        algo: AlgoKind::Qsgd(4),
        tcp: false,
        bucket_bytes: None,
        batch: 16,
        steps: 25,
        dominant_gemm: Gemm { trans_a: false, trans_b: true, m: 16, k: 48, n: 192 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The configuration of a run of `epochs` × `steps` steps on `world`
    /// ranks. `seed` goes to `TrainConfig::seed` and nowhere else.
    pub fn config(&self, seed: u64, world: usize, epochs: usize, steps: usize) -> TrainConfig {
        let mut c = scaled_convergence_config(self.model, self.algo, world, seed);
        c.lr = paper_lr_policy(self.model, world, EPOCHS, c.lr.base_lr);
        c.preset = self.preset;
        c.epochs = epochs;
        c.batch_per_worker = self.batch;
        c.train_size = steps * self.batch * world;
        c.eval_size = self.batch;
        c.backend = if self.tcp { CommBackend::Tcp } else { CommBackend::InProc };
        c.bucket_bytes = self.bucket_bytes;
        c.overlap_backward = self.bucket_bytes.is_some();
        c
    }

    /// `TrainReport::wire_bits_per_iter` this workload must report, where
    /// the encoding is deterministic in size.
    pub fn expected_wire_bits(&self) -> Option<u64> {
        match self.algo {
            AlgoKind::A2sgd => Some(64),
            AlgoKind::Dense => Some(32 * self.model.paper_param_count() as u64),
            _ => None,
        }
    }

    /// Upper limit (exclusive) on `TrainReport::replica_divergence`.
    pub fn divergence_limit(&self) -> f64 {
        if self.algo == AlgoKind::Dense {
            1e-5
        } else {
            1.0
        }
    }
}
