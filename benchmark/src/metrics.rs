//! Every metric the benchmark reports: name, unit, direction and — for the
//! end-to-end ones — the bound by which it may worsen. `BENCHMARK.json`
//! carries the same table for the acceptance driver; a unit test keeps the
//! two identical.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// End-to-end metrics with their bounds (share of the parent's median).
///
/// The bounds are what the shared host lets the benchmark hold through its
/// own repeat runs, not what one would like to gate on (README, "Bounds"):
/// times brought to the nominal host spread 2–5 % over ten calls in an
/// ordinary hour and ten times that in one under steal, and the eight-seed
/// mean loss moves 4–7 % from seed to seed. With the seed held fixed, loss
/// and wire bytes repeat exactly, and `--agree` demands exactly that.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (MetricDef { name: "step_ms_p50", unit: "ms", better: "lower" }, 0.25),
    (MetricDef { name: "setup_s", unit: "s", better: "lower" }, 0.25),
    (MetricDef { name: "train_loss_mean", unit: "nats", better: "lower" }, 0.25),
    (MetricDef { name: "wire_bytes_per_step", unit: "B", better: "lower" }, 0.01),
    (MetricDef { name: "peak_rss_mb", unit: "MiB", better: "lower" }, 0.1),
];

/// `setup_s` differences below this many seconds never count as a
/// disagreement in `--agree`: a quarter of a 60 ms setup is scheduler noise.
pub const SETUP_FLOOR_S: f64 = 0.025;

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Per-layer metrics (layer = crate), in the order the tables print them.
pub const PER_LAYER: [MetricDef; 39] = [
    m("data.batch_ms", "ms", "lower"),
    m("nn.forward_ms", "ms", "lower"),
    m("nn.loss_ms", "ms", "lower"),
    m("nn.backward_ms", "ms", "lower"),
    m("nn.flatten_ms", "ms", "lower"),
    m("nn.scatter_ms", "ms", "lower"),
    m("nn.optim_ms", "ms", "lower"),
    m("nn.param_count", "count", "lower"),
    m("tensor.gemm_ms", "ms", "lower"),
    m("tensor.gemm_gflops", "GFLOP/s", "higher"),
    m("tensor.conv_fwd_ms", "ms", "lower"),
    m("tensor.conv_bwd_ms", "ms", "lower"),
    m("compress.sync_ms", "ms", "lower"),
    m("compress.encode_ms", "ms", "lower"),
    m("compress.wire_bits_per_step", "bit", "lower"),
    m("compress.ratio", "x", "higher"),
    m("core.split_means_ms", "ms", "lower"),
    m("core.a2sgd_round_ms", "ms", "lower"),
    m("comm.exchange_ms", "ms", "lower"),
    m("comm.overlap_ms", "ms", "higher"),
    m("comm.allreduce_ms", "ms", "lower"),
    m("comm.packet_ms", "ms", "lower"),
    m("comm.messages_per_step", "count", "lower"),
    m("comm.payload_bytes_per_step", "B", "lower"),
    m("comm.framing_bytes_per_step", "B", "lower"),
    m("comm.max_inflight", "count", "higher"),
    m("comm.rank_skew_ms", "ms", "lower"),
    m("core.step_ms_p50", "ms", "lower"),
    m("core.step_ms_p95", "ms", "lower"),
    m("core.step_self_ms", "ms", "lower"),
    m("core.layer_sum_share", "ratio", "higher"),
    m("core.step_gap_pct", "%", "lower"),
    m("core.single_worker_step_ms", "ms", "lower"),
    m("core.scaling_efficiency", "ratio", "higher"),
    m("core.allocs_per_step", "count", "lower"),
    m("core.alloc_kib_per_step", "KiB", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("bench.calib_ms", "ms", "lower"),
    m("bench.host_ref_ms", "ms", "lower"),
];

/// Named measurements of one pass, in reporting order.
pub type Values = Vec<(&'static str, f64)>;

pub fn get(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use a2sgd_trace::json::{self, Value};

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("BENCHMARK.json entry without `{key}`"))
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match field(doc, key) {
            Value::Arr(a) => a,
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables_in_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name").as_str(), Some(w.name));
            assert_eq!(field(j, "why").as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }

        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (def, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name").as_str(), Some(def.name));
            assert_eq!(field(j, "unit").as_str(), Some(def.unit));
            assert_eq!(field(j, "better").as_str(), Some(def.better));
            assert_eq!(field(j, "bound").as_f64(), Some(*bound), "{}", def.name);
            assert!(*bound <= 0.25);
        }

        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name").as_str(), Some(def.name));
            assert_eq!(field(j, "unit").as_str(), Some(def.unit));
            assert_eq!(field(j, "better").as_str(), Some(def.better));
        }
    }
}
