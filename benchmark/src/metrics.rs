//! The benchmark's metric names and units — the same lists
//! `../BENCHMARK.json` declares (a unit test keeps the two in step) —
//! and the record one workload run produces.

use serde::Value;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    "train_l1",
    "train_l2",
    "train_dist",
    "serve_read",
    "serve_catchup",
];

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Every workload reports every one of them from an untraced run; the
/// README's table says what each means on each workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("quality", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, prefix = module. Reported by the
/// traced run; 0 where a layer does no work on a workload.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("tensor.matmul_s", "s"),
    ("tensor.softmax_s", "s"),
    ("tensor.gather_s", "s"),
    ("tensor.matmul_tb_gflops", "gflop/s"),
    ("tensor.simd_active", "flag"),
    ("nn.attention.forward_s", "s"),
    ("nn.attention.backward_s", "s"),
    ("nn.gru_s", "s"),
    ("nn.gru.forward_s", "s"),
    ("nn.adam.step_s", "s"),
    ("nn.params", "count"),
    ("graph.tcsr.build_s", "s"),
    ("graph.sampler.sample_hops_s", "s"),
    ("graph.sampler.slots", "count"),
    ("graph.sampler.padded_slot_share", "ratio"),
    ("graph.tcsr.append_events_per_s", "1/s"),
    ("data.generate_s", "s"),
    ("data.negative_store_s", "s"),
    ("data.events", "count"),
    ("data.nodes", "count"),
    ("mem.state.read_s", "s"),
    ("mem.state.write_s", "s"),
    ("mem.state.rows_read", "count"),
    ("mem.state.rows_written", "count"),
    ("mem.daemon.rows_read", "count"),
    ("mem.daemon.spec_rows", "count"),
    ("mem.daemon.delta_rows", "count"),
    ("mem.daemon.stale_share", "ratio"),
    ("mem.daemon.payload_bytes", "bytes"),
    ("cluster.comm.allreduce_s", "s"),
    ("cluster.comm.bytes", "bytes"),
    ("cluster.comm.calls", "count"),
    ("core.batch.prepare_static_s", "s"),
    ("core.batch.finish_s", "s"),
    ("core.batch.occurrence_rows", "count"),
    ("core.batch.unique_rows", "count"),
    ("core.batch.fold_factor", "ratio"),
    ("core.model.train_step_s", "s"),
    ("core.model.infer_step_s", "s"),
    ("core.model.backward_s", "s"),
    ("core.model.embed_layer0_s", "s"),
    ("core.model.embed_layer1_s", "s"),
    ("core.single.loop_s", "s"),
    ("core.single.prep_s", "s"),
    ("core.single.compute_s", "s"),
    ("core.dist.prep_s", "s"),
    ("core.dist.mem_wait_s", "s"),
    ("core.dist.compute_s", "s"),
    ("core.dist.iterations", "count"),
    ("core.eval.events_per_s", "1/s"),
    ("core.checkpoint.save_ms", "ms"),
    ("core.checkpoint.load_ms", "ms"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.serve.query_mb1_us", "us"),
    ("core.serve.query_mb8_us", "us"),
    ("core.serve.query_mb64_us", "us"),
    ("core.serve.ingest_slab100_events_per_s", "1/s"),
    ("core.serve.ingest_slab600_events_per_s", "1/s"),
    ("core.engine.embed_part_s", "s"),
    ("core.engine.score_pairs_s", "s"),
    ("core.engine.memory_write_s", "s"),
    ("core.serve_concurrent.drift_clean", "count"),
    ("core.serve_concurrent.drift_repaired", "count"),
    ("core.serve_concurrent.drift_resampled", "count"),
    ("core.serve_concurrent.recompute_share", "ratio"),
    ("core.serve_concurrent.queue_depth_max", "count"),
    ("core.serve_concurrent.backpressure_rejections", "count"),
    ("core.serve_concurrent.drain_slab_ms", "ms"),
    ("core.serve_concurrent.visible_p50_ms", "ms"),
    ("core.serve_concurrent.visible_p90_ms", "ms"),
    ("core.serve_concurrent.slo_rate_jobs_per_s", "1/s"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.minor_faults", "count"),
    ("proc.cold_call_ratio", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.waterfall_coverage", "ratio"),
    ("bench.trace_matches_trainer", "flag"),
    ("bench.spans", "count"),
];

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name; names outside the run's list are a bug.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (train calls; query jobs and ingest slabs).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness checks that did not hold (empty = correct).
    pub failures: Vec<String>,
    /// Context printed beside the metrics: digests, counts, quartiles.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Records a correctness check; a failed one is listed in `failures`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::parse_json;

    fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Array(items) = crate::report::field(v, key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                (
                    crate::report::field(m, "name")
                        .as_str()
                        .unwrap()
                        .to_string(),
                    crate::report::field(m, "unit")
                        .as_str()
                        .unwrap()
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let v = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&v, "end_to_end"), want(&END_TO_END));
        assert_eq!(names_and_units(&v, "per_layer"), want(&PER_LAYER));
        let Value::Array(w) = crate::report::field(&v, "workloads") else {
            panic!("workloads");
        };
        let names: Vec<&str> = w
            .iter()
            .map(|x| crate::report::field(x, "name").as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(
            crate::report::field(&v, "run_seconds").as_f64(),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*n), "duplicate {n}");
            assert!(n.len() <= 64 && u.len() <= 16);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
