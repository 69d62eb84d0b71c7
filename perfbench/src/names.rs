//! The metric names and units the benchmark reports. `BENCHMARK.json` lists
//! the same names; `run.py` refuses a result whose names differ from it.

/// End-to-end metrics, reported by every workload (`--trace 0`).
///
/// The two latency arms mean, per workload:
/// * `serve-yelp-store`: `a` = the low arrival rate, `b` = the high one;
///   `tail` is the p99 of request latency; `rate_per_s` is the capacity:
///   requests served per second when whole traces are drained unpaced.
/// * `batch-reddit-cold`, `full-flickr`: `a` = the reference model, `b` =
///   the pruned model; `tail` is the p90 of call time; `rate_per_s` is the
///   pruned model's target nodes completed per second.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "share"),
    ("f1_micro", "share"),
    ("p50_ms.a", "ms"),
    ("tail_ms.a", "ms"),
    ("p50_ms.b", "ms"),
    ("tail_ms.b", "ms"),
    ("rate_per_s", "1/s"),
];

const MODELS: [&str; 2] = ["ref", "p4x"];
const RATES: [&str; 2] = ["low", "high"];
/// Layers of the three-layer GraphSAGE models: two graph layers and the
/// dense classifier.
pub const N_LAYERS: usize = 3;
/// Graph layers (the only ones that aggregate with SpMM).
pub const N_GRAPH_LAYERS: usize = 2;
/// Hidden levels held by the feature store.
pub const N_STORE_LEVELS: usize = 2;

/// Per-layer metrics, reported by every workload (`--trace 1`); a layer the
/// workload bypasses reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for r in RATES {
        for (name, unit) in [
            ("serving.wall_s", "s"),
            ("serving.compute_share", "share"),
            ("serving.occupancy", "share"),
            ("serving.batch_size.mean", "count"),
            ("serving.queue_depth.p99", "count"),
            ("serving.dispatch_wakeups", "count"),
            ("serving.finish_lag_ms", "ms"),
        ] {
            v.push((format!("{name}.{r}"), unit));
        }
    }
    for m in MODELS {
        for s in gcnp_infer::STAGES {
            v.push((format!("engine.{s}.ms_per_batch.{m}"), "ms"));
        }
        v.push((format!("engine.gflops.{m}"), "GFLOP/s"));
    }
    v.push(("engine.dispatch.dense".into(), "count"));
    v.push(("engine.dispatch.sparse".into(), "count"));
    v.push(("engine.supporting_nodes.mean".into(), "count"));
    for l in 1..=N_STORE_LEVELS {
        v.push((format!("store.hit_ratio.l{l}"), "share"));
        v.push((format!("store.writes.l{l}"), "count"));
    }
    v.push(("store.resident_mb".into(), "MB"));
    v.push(("store.prewarm_s".into(), "s"));
    for m in MODELS {
        for l in 0..N_GRAPH_LAYERS {
            v.push((format!("sparse.spmm.layer{l}.ms.{m}"), "ms"));
            v.push((format!("sparse.spmm.layer{l}.gbps.{m}"), "GB/s"));
        }
        for l in 0..N_LAYERS {
            v.push((format!("tensor.input_copy.layer{l}.ms.{m}"), "ms"));
            v.push((format!("tensor.select_cols.layer{l}.ms.{m}"), "ms"));
            v.push((format!("tensor.gemm.layer{l}.ms.{m}"), "ms"));
            v.push((format!("tensor.gemm.layer{l}.gflops.{m}"), "GFLOP/s"));
            v.push((format!("tensor.epilogue.layer{l}.ms.{m}"), "ms"));
        }
        v.push((format!("model.kmacs_per_node.{m}"), "kMAC"));
        v.push((format!("model.packed_mb.{m}"), "MB"));
        v.push((format!("full.achieved_gflops.{m}"), "GFLOP/s"));
    }
    for (name, unit) in [
        ("setup.generate_s", "s"),
        ("setup.train_s", "s"),
        ("setup.prune_s", "s"),
        ("setup.pack_s", "s"),
        ("trace.overhead", "share"),
        ("trace.tiling_gap", "share"),
        ("trace.replay_gap", "share"),
    ] {
        v.push((name.into(), unit));
    }
    v
}
