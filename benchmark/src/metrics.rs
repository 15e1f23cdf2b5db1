//! The names and units of every metric, declared once: `BENCHMARK.json`
//! must list exactly these (a unit test compares the two), and every run
//! prints every name of its list.

use crate::json::Value;
use std::collections::BTreeMap;

/// The seven kernels the benchmark runs, by the names `stencil_serve`'s
/// manifest resolves.
pub const KERNELS: [&str; 7] = [
    "heat1d", "d1p5", "heat2d", "box2d9p", "gb", "heat3d", "box3d27p",
];
/// The six kernels of `blockfree_1t` (Fig. 8 has no GB row).
pub const BLOCKFREE_KERNELS: [&str; 6] =
    ["heat1d", "d1p5", "heat2d", "box2d9p", "heat3d", "box3d27p"];
/// Method labels of `blockfree_1t`: transpose layout, folded with m = 2.
pub const METHODS: [&str; 2] = ["xlayout", "fold2"];
/// Job classes of `serve_wire`.
pub const CLASSES: [&str; 3] = ["small", "medium", "large"];
/// The workloads.
pub const WORKLOADS: [&str; 4] = ["blockfree_1t", "tiled_mt", "serve_wire", "ooc_stream"];

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Every workload reports every one of them from its untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("mupd_s", "Mupd/s"),
    ("mupd_s_3d", "Mupd/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A
/// workload reports 0 for the layers that do nothing on it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    // The per-dimension rates would be end-to-end metrics, but they are
    // not defined on every workload (serve_wire has no 1D job, ooc_stream
    // only 3D), and the driver wants every end-to-end metric from every
    // workload.
    add("mupd_s_1d".into(), "Mupd/s");
    add("mupd_s_2d".into(), "Mupd/s");
    // Job latency would be end to end too, but a median or a tail of
    // wall-clock latencies follows the interference of the shared host
    // (spreads of 0.14-0.23 between runs of one commit, drift of 40 %
    // within an hour), so it cannot be gated; it is reported here, from
    // the untraced phase of the traced run.
    add("job_p50_ms".into(), "ms");
    add("job_p95_ms".into(), "ms");
    add("host.stream_gbs".into(), "GB/s");
    add("host.peak_fma_gflops".into(), "GFLOP/s");
    add("simd.transpose4_ns".into(), "ns");
    add("simd.transpose_rect_gbs".into(), "GB/s");
    add("simd.assemble_ns".into(), "ns");
    add("grid.first_touch_gbs".into(), "GB/s");
    add("grid.to_dense_gbs".into(), "GB/s");
    for k in KERNELS {
        add(format!("core.plan.compile_us.{k}"), "us");
        add(format!("core.kernel.{k}.flops_per_upd"), "count");
        add(format!("core.kernel.{k}.bytes_per_upd_computed"), "count");
        add(format!("core.tiled.{k}.mupd_s"), "Mupd/s");
        add(format!("core.tile.tiled_over_blockfree.{k}"), "ratio");
    }
    for k in BLOCKFREE_KERNELS {
        for me in METHODS {
            add(format!("core.kernel.{k}.{me}.mupd_s"), "Mupd/s");
            add(format!("core.kernel.{k}.{me}.roofline_frac"), "ratio");
        }
    }
    add("core.cost.auto_agrees".into(), "ratio");
    add("runtime.pool.dispatch_us".into(), "us");
    add("runtime.pool.scaling_eff".into(), "ratio");
    add("serve.registry.hit_ratio".into(), "ratio");
    add("serve.queue.wait_us_p50".into(), "us");
    add("serve.queue.wait_us_p95".into(), "us");
    add("serve.queue.batch_mean".into(), "count");
    add("serve.queue.rejected_share".into(), "ratio");
    add("serve.service.compute_us_p50".into(), "us");
    add("serve.service.compute_share.small".into(), "ratio");
    for c in CLASSES {
        add(format!("serve.inproc.job_p50_ms.{c}"), "ms");
        add(format!("net.job_p50_ms.{c}"), "ms");
        add(format!("net.overhead_ms_p50.{c}"), "ms");
    }
    add("net.job_p99_ms".into(), "ms");
    add("serve.shard.speedup".into(), "ratio");
    add("serve.shard.fanout_share".into(), "ratio");
    add("net.encode_gbs".into(), "GB/s");
    add("net.decode_gbs".into(), "GB/s");
    add("net.header_json_us".into(), "us");
    add("ooc.spill_gbs".into(), "GB/s");
    add("ooc.read_window_gbs".into(), "GB/s");
    add("ooc.write_planes_gbs".into(), "GB/s");
    add("ooc.to_grid_gbs".into(), "GB/s");
    for n in [
        "bytes_read",
        "bytes_written",
        "passes",
        "windows_per_pass",
        "resident_bytes",
    ] {
        add(format!("ooc.{n}"), "count");
    }
    add("ooc.io_blocked_share".into(), "ratio");
    add("ooc.io_overlap_share".into(), "ratio");
    add("ooc.prefetch_hit_ratio".into(), "ratio");
    add("ooc.io_retries".into(), "count");
    add("ooc.stream_eff".into(), "ratio");
    for w in WORKLOADS {
        add(format!("obs.traced_overhead_share.{w}"), "ratio");
    }
    add("obs.span_ns".into(), "ns");
    m
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted in the verify and measure phases.
    pub attempted: u64,
    /// Operations that errored, were refused for good, or whose output
    /// differed from its reference.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Samples behind the timings, by what was sampled.
    pub samples: BTreeMap<String, u64>,
    /// One line per failure, naming the cell or job.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Count one operation; `problem` names what went wrong with it.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("FAILED: {p}");
            if self.failures.len() < 32 {
                self.failures.push(p);
            }
        }
    }

    /// The metric list this run must print: end-to-end untraced, per-layer
    /// traced.
    pub fn expected(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// The result object the driver reads off the last line of stdout.
    /// Traced runs report 0 for per-layer metrics they did not measure;
    /// an end-to-end metric that is missing is a bug and panics.
    pub fn result_line(&self, trace: bool) -> Value {
        let metrics = Self::expected(trace).into_iter().map(|(name, unit)| {
            let v = match self.values.get(&name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let m = Value::obj([("value", Value::Num(v)), ("unit", Value::str(unit))]);
            (name, m)
        });
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let layer = per_layer();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut seen = BTreeSet::new();
        for (name, unit) in layer
            .iter()
            .map(|(n, u)| (n.as_str(), *u))
            .chain(END_TO_END.iter().copied())
            .chain(WORKLOADS.iter().map(|w| (*w, "s")))
        {
            assert!(seen.insert(name.to_string()), "{name} is used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |trace| -> Vec<(String, String)> {
            Outcome::expected(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(false));
        assert_eq!(listed("per_layer"), own(true));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn the_result_line_has_the_contract_keys_and_zero_fills_layers() {
        let mut o = Outcome::default();
        o.op(None);
        o.set("ooc.passes", 3.0);
        let line = o.result_line(true);
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), per_layer().len());
        assert_eq!(
            metrics["ooc.passes"].get("value").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(
            metrics["net.job_p99_ms"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        o.op(Some("heat2d.fold2: output bits differ".into()));
        assert_eq!(
            o.result_line(true).get("correct"),
            Some(&Value::Bool(false))
        );
        assert_eq!(o.failed, 1);
    }
}
