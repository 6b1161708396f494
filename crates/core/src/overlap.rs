//! Backward-pass/communication overlap: the glue between `mini-nn`'s
//! per-layer gradient-ready hooks and `gradcomp`'s synchronizers — the one
//! code that launches or drains a streamed bucket.
//!
//! [`HookLayout`] is built once per run from the model's parameter layout:
//! it maps every parameter name to its slice of the flat gradient and to
//! the layout-derived bucket ([`gradcomp::bucket_bounds`]) that slice
//! falls in. [`HookedStep`] is the per-iteration driver: registered as the
//! [`GradHook`] of [`Module::backward_hooked`]
//! (mini_nn::module::Module::backward_hooked), it copies each announced
//! gradient into the flat buffer, counts each bucket's arrivals and, the
//! moment a bucket's last parameter lands, offers the bucket to
//! [`GradientSynchronizer::start_bucket`]. Backward passes deliver layers
//! in reverse topological order, so a streaming synchronizer's (Dense's)
//! *output* layer bucket is on the wire first, while earlier layers are
//! still backpropagating — the PyTorch-DDP/Horovod overlap shape.
//! [`HookedStep::try_finish`] drains the streamed buckets in layout order;
//! when nothing streamed (every global-statistics synchronizer) it runs the
//! ordinary whole-gradient [`GradientSynchronizer::try_sync_bucketed`]
//! instead. Results are bit-identical to the single-shot `synchronize`
//! call for every synchronizer: streaming exchanges are per-bucket
//! independent, and the rest see the same flat gradient.

use cluster_comm::{CollectiveHandle, CommHandle, TransportError};
use gradcomp::{bucket_bounds, GradientSynchronizer, Ledger, SyncStats};
use mini_nn::hook::GradHook;
use mini_nn::module::Module;
use mini_nn::param::Param;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

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
/// hook to `backward_hooked`, `try_finish` afterwards to drain the step
/// into `flat` (which then holds the synchronized gradient, ready for
/// `Sgd::step_flat`). Mis-wired drivers fail loudly: a parameter announced
/// twice, one whose size changed, or one never announced by `try_finish`
/// each panic with the offending name or bucket ids — those are driver
/// bugs; a lost peer is an `Err`, not a panic.
pub struct HookedStep<'a> {
    layout: &'a HookLayout,
    sync: &'a mut dyn GradientSynchronizer,
    comm: &'a mut CommHandle,
    flat: &'a mut Vec<f32>,
    /// Per bucket, the parameters not yet announced.
    remaining: Vec<usize>,
    /// The buckets the synchronizer streamed: id, in-flight handle, and
    /// the launch instant and trace timestamp the overlap window and the
    /// `bucket/inflight` span open at.
    streamed: Vec<(usize, CollectiveHandle, Instant, u64)>,
    /// The communicator's ledgers as the step opened.
    before: Ledger,
}

impl<'a> HookedStep<'a> {
    /// Opens the step. `flat` is (re)sized to the layout; its previous
    /// contents are not read.
    pub fn begin(
        layout: &'a HookLayout,
        sync: &'a mut dyn GradientSynchronizer,
        flat: &'a mut Vec<f32>,
        comm: &'a mut CommHandle,
    ) -> Self {
        flat.clear();
        flat.resize(layout.total, 0.0);
        HookedStep {
            remaining: layout.params_per_bucket.clone(),
            streamed: Vec::with_capacity(layout.bounds.len()),
            before: Ledger::read(comm),
            layout,
            sync,
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

    /// Drains the step and returns its stats; `flat` now holds the
    /// synchronized gradient. Streamed buckets are completed in layout
    /// order, and the wall time each spent in flight before the drain —
    /// hidden under the backward pass — is
    /// [`SyncStats::overlap_seconds`]; the exchange's other fields are the
    /// communicator's ledger deltas. If nothing streamed, `flat` is the
    /// whole local gradient and goes to
    /// [`GradientSynchronizer::try_sync_bucketed`]. Panics (with bucket
    /// ids) if the backward pass failed to announce some parameters; a peer
    /// lost mid-exchange is returned (`flat` is then unspecified and the
    /// remaining handles are abandoned with the spent communicator).
    pub fn try_finish(self) -> Result<SyncStats, TransportError> {
        let HookedStep { layout, sync, comm, flat, remaining, mut streamed, before } = self;
        let missing: Vec<usize> = (0..remaining.len()).filter(|&b| remaining[b] > 0).collect();
        assert!(missing.is_empty(), "finish with unannounced parameters in buckets {missing:?}");
        if streamed.is_empty() {
            return sync.try_sync_bucketed(flat, &layout.bounds, comm);
        }
        assert_eq!(streamed.len(), layout.bounds.len(), "some buckets did not stream");
        streamed.sort_unstable_by_key(|s| s.0);
        let (drain_begin, drain_ns) = (Instant::now(), a2sgd_trace::now_ns());
        let mut overlap_seconds = 0.0f64;
        for (bucket, handle, launched, launched_ns) in streamed {
            overlap_seconds += (drain_begin - launched).as_secs_f64();
            let r = layout.bounds[bucket].clone();
            let args = a2sgd_trace::Args::Bucket { bucket, bytes: (4 * r.len()) as u64 };
            if a2sgd_trace::enabled() {
                // The overlap window itself: launch → drain start, the
                // exact interval overlap_seconds accumulates.
                let id = bucket as u64;
                a2sgd_trace::async_span_at("bucket/inflight", id, launched_ns, drain_ns, args);
            }
            let ts = a2sgd_trace::now_ns();
            sync.try_finish_bucket(&mut flat[r], handle, comm)?;
            if a2sgd_trace::enabled() {
                a2sgd_trace::closed_span("bucket/drain", ts, args);
            }
        }
        Ok(SyncStats { overlap_seconds, ..before.spent(comm) })
    }

    /// Panicking adapter over [`try_finish`](Self::try_finish).
    pub fn finish(self) -> SyncStats {
        self.try_finish().unwrap_or_else(|e| panic!("hooked step drain: {e}"))
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
        if *left > 0 {
            return;
        }
        let (bucket, r) = (seg.bucket, self.layout.bounds[seg.bucket].clone());
        let args = a2sgd_trace::Args::Bucket { bucket, bytes: (4 * r.len()) as u64 };
        if a2sgd_trace::enabled() {
            a2sgd_trace::instant("grad_ready", args);
        }
        let ts = a2sgd_trace::now_ns();
        if let Some(handle) = self.sync.start_bucket(&self.flat[r], self.comm) {
            // The launch itself is caller time; the overlap window opens
            // only once the frames are actually in flight.
            let (launched, launched_ns) = (Instant::now(), a2sgd_trace::now_ns());
            if a2sgd_trace::enabled() {
                a2sgd_trace::closed_span("bucket/submit", ts, args);
            }
            self.streamed.push((bucket, handle, launched, launched_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::{Cluster, NetworkProfile};
    use mini_nn::flat::param_sizes;
    use mini_nn::models::{ModelKind, Preset};
    use mini_nn::module::Mode;
    use mini_tensor::Tensor;

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

    /// A bag of parameters — all the hook driver reads of a model.
    struct Bag(Vec<Param>);

    impl Module for Bag {
        fn forward(&mut self, x: &Tensor, _: Mode) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, dout: &Tensor) -> Tensor {
            dout.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.iter_mut().for_each(f)
        }
    }

    /// Two 4-float parameters in one bucket, a 6-float one in another, on
    /// a lone rank of the current thread (so `#[should_panic]` sees the
    /// driver's own diagnostic), under Dense — a streaming synchronizer.
    fn announce(order: &[usize], edit: impl FnOnce(&mut Bag)) -> SyncStats {
        let p = |name: &str, n: usize| Param::new(name, Tensor::zeros([n]));
        let mut bag = Bag(vec![p("a", 4), p("b", 4), p("c", 6)]);
        let layout = HookLayout::of(&mut bag, Some(32));
        assert_eq!(layout.bounds(), &[0..8, 8..14]);
        edit(&mut bag);
        let mut comm = Cluster::new(1, NetworkProfile::infiniband_100g()).handle(0);
        let (mut sync, mut flat) = (gradcomp::DenseSgd::new(), Vec::new());
        let mut step = HookedStep::begin(&layout, &mut sync, &mut flat, &mut comm);
        for &i in order {
            step.grad_ready(&bag.0[i]);
        }
        step.finish()
    }

    #[test]
    #[should_panic(expected = "parameter `c` announced twice")]
    fn a_parameter_announced_twice_panics() {
        announce(&[2, 2], |_| {});
    }

    #[test]
    #[should_panic(expected = "finish with unannounced parameters in buckets [0]")]
    fn an_unannounced_parameter_at_finish_panics() {
        announce(&[2, 1], |_| {});
    }

    #[test]
    #[should_panic(expected = "parameter `b` changed size")]
    fn a_parameter_whose_size_changed_panics() {
        announce(&[2, 1], |bag| bag.0[1] = Param::new("b", Tensor::zeros([5])));
    }
}
