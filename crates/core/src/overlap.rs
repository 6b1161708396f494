//! Backward-pass/communication overlap: the glue between `mini-nn`'s
//! per-layer gradient-ready hooks and `gradcomp`'s bucketed sync sessions.
//!
//! [`HookLayout`] is built once per run from the model's parameter layout:
//! it maps every parameter name to its slice of the flat gradient and to
//! the layout-derived bucket ([`gradcomp::bucket_bounds`]) that slice
//! falls in. [`HookedStep`] is the per-iteration driver: registered as the
//! [`GradHook`] of [`Module::backward_hooked`]
//! (mini_nn::module::Module::backward_hooked), it copies each announced
//! gradient into the flat buffer and, the moment a bucket's last
//! parameter lands, submits the bucket to the step's
//! [`gradcomp::SyncSession`]. Backward passes deliver layers in reverse
//! topological order, so the *output* layer's bucket is submitted (and,
//! for streaming synchronizers like Dense, put on the wire) first, while
//! earlier layers are still backpropagating — the PyTorch-DDP/Horovod
//! overlap shape. Results are bit-identical to the single-shot
//! `synchronize` call for every synchronizer: streaming exchanges are
//! per-bucket independent, and global-statistics synchronizers run their
//! ordinary whole-gradient pipeline at [`HookedStep::try_finish`].

use cluster_comm::{CommHandle, TransportError};
use gradcomp::{bucket_bounds, GradientSynchronizer, SyncSession, SyncStats};
use mini_nn::hook::GradHook;
use mini_nn::module::Module;
use mini_nn::param::Param;
use std::collections::HashMap;
use std::ops::Range;

/// One parameter's place in the flat gradient.
#[derive(Debug, Clone, Copy)]
struct Seg {
    offset: usize,
    len: usize,
    bucket: usize,
}

/// The model's parameter → flat-offset → bucket map, a pure function of
/// the architecture (identical on every rank and backend). Built once per
/// run; parameter names must be unique, which is asserted here so a
/// colliding model fails at construction instead of silently merging
/// gradients.
pub struct HookLayout {
    segs: HashMap<String, Seg>,
    bounds: Vec<Range<usize>>,
    params_per_bucket: Vec<usize>,
    total: usize,
}

impl HookLayout {
    /// Derives the layout from `model`'s `visit_params` order, cutting
    /// buckets at `cap_bytes` (`None` = the whole model as one bucket,
    /// mirroring `TrainConfig::bucket_bytes`).
    pub fn of(model: &mut dyn Module, cap_bytes: Option<usize>) -> Self {
        let mut names = Vec::new();
        let mut sizes = Vec::new();
        model.visit_params(&mut |p| {
            names.push(p.name.clone());
            sizes.push(p.numel());
        });
        let total: usize = sizes.iter().sum();
        let bounds = match cap_bytes {
            Some(cap) => bucket_bounds(&sizes, cap),
            None if total == 0 => Vec::new(),
            None => vec![0..total; 1],
        };
        let mut segs = HashMap::with_capacity(names.len());
        let mut params_per_bucket = vec![0usize; bounds.len()];
        let mut offset = 0usize;
        let mut bucket = 0usize;
        for (name, len) in names.into_iter().zip(sizes) {
            while bounds[bucket].end <= offset {
                bucket += 1;
            }
            params_per_bucket[bucket] += 1;
            let prev = segs.insert(name.clone(), Seg { offset, len, bucket });
            assert!(prev.is_none(), "duplicate parameter name `{name}` — hooks need unique names");
            offset += len;
        }
        HookLayout { segs, bounds, params_per_bucket, total }
    }

    /// The layout-derived bucket partition.
    pub fn bounds(&self) -> &[Range<usize>] {
        &self.bounds
    }

    /// Total trainable scalars.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// One hooked training step: `begin` before the backward pass, pass as the
/// hook to `backward_hooked`, `try_finish` afterwards to drain the session
/// into `flat` (which then holds the synchronized gradient, ready for
/// `scatter_grads`).
pub struct HookedStep<'a> {
    layout: &'a HookLayout,
    session: SyncSession<'a>,
    comm: &'a mut CommHandle,
    flat: &'a mut Vec<f32>,
    remaining: Vec<usize>,
}

impl<'a> HookedStep<'a> {
    /// Opens the step's session. `flat` is (re)sized to the layout; its
    /// previous contents are not read.
    pub fn begin(
        layout: &'a HookLayout,
        sync: &'a mut dyn GradientSynchronizer,
        flat: &'a mut Vec<f32>,
        comm: &'a mut CommHandle,
    ) -> Self {
        flat.clear();
        flat.resize(layout.total, 0.0);
        HookedStep {
            session: SyncSession::begin(sync, &layout.bounds),
            remaining: layout.params_per_bucket.clone(),
            layout,
            comm,
            flat,
        }
    }

    /// Collective exchanges currently in flight on this rank — the
    /// observable overlap proof (≥ 2 while a backward pass with small
    /// buckets is still executing on a streaming synchronizer).
    pub fn inflight(&self) -> usize {
        self.comm.inflight()
    }

    /// The local (pre-sync) flat gradient — complete once the hooked
    /// backward pass has returned, valid until
    /// [`try_finish`](Self::try_finish) overwrites it with the synchronized
    /// result.
    pub fn local_grad(&self) -> &[f32] {
        self.flat
    }

    /// Drains the session and returns the step's stats; `flat` now holds
    /// the synchronized gradient. Panics (with bucket ids) if the backward
    /// pass failed to announce some parameters; a peer lost mid-exchange is
    /// returned (see [`SyncSession::try_finish`]).
    pub fn try_finish(self) -> Result<SyncStats, TransportError> {
        self.session.try_finish(self.flat, self.comm)
    }

    /// Panicking adapter over [`try_finish`](Self::try_finish).
    pub fn finish(self) -> SyncStats {
        self.session.finish(self.flat, self.comm)
    }
}

impl GradHook for HookedStep<'_> {
    fn grad_ready(&mut self, param: &Param) {
        let seg = self.layout.segs.get(&param.name).unwrap_or_else(|| {
            panic!(
                "grad_ready for unknown parameter `{}` — layout built from another model?",
                param.name
            )
        });
        assert_eq!(param.numel(), seg.len, "parameter `{}` changed size", param.name);
        self.flat[seg.offset..seg.offset + seg.len].copy_from_slice(param.grad.as_slice());
        let left = &mut self.remaining[seg.bucket];
        assert!(*left > 0, "parameter `{}` announced twice in one step", param.name);
        *left -= 1;
        if *left == 0 {
            let r = &self.layout.bounds[seg.bucket];
            if a2sgd_trace::enabled() {
                a2sgd_trace::instant(
                    "grad_ready",
                    a2sgd_trace::Args::Bucket {
                        bucket: seg.bucket,
                        bytes: (4 * (r.end - r.start)) as u64,
                    },
                );
            }
            self.session.submit(seg.bucket, &self.flat[r.clone()], self.comm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_nn::flat::param_sizes;
    use mini_nn::models::{ModelKind, Preset};

    #[test]
    fn layout_matches_flat_helpers() {
        let mut m = ModelKind::Fnn3.build(Preset::Scaled, 3);
        let sizes = param_sizes(m.as_mut());
        let layout = HookLayout::of(m.as_mut(), Some(1024));
        assert_eq!(layout.total(), sizes.iter().sum::<usize>());
        assert_eq!(layout.bounds(), &bucket_bounds(&sizes, 1024)[..]);
        assert_eq!(
            layout.params_per_bucket.iter().sum::<usize>(),
            sizes.len(),
            "every parameter belongs to exactly one bucket"
        );
    }

    #[test]
    fn whole_model_layout_is_one_bucket() {
        let mut m = ModelKind::Fnn3.build(Preset::Scaled, 3);
        let layout = HookLayout::of(m.as_mut(), None);
        assert_eq!(layout.bounds().len(), 1);
        assert_eq!(layout.bounds()[0], 0..layout.total());
    }
}
