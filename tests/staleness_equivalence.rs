//! The bounded-staleness contract (`TrainConfig::staleness_bound`,
//! ROADMAP's MSPipe item — the repo's first intentional exactness/speed
//! trade) ships with the same rigor as the exact equivalence suites:
//!
//! * `k = 0` routes every Acquire through the bounded machinery but
//!   admits nothing — a stale row has version lag ≥ 1 — so the run is
//!   **bit-identical** to the exact oracle (both tasks, 1×1×2 and
//!   2×2×2, asserted below on losses, metrics, and memory digests).
//! * `k > 0` is *not* replay-deterministic (which rows are admitted
//!   depends on when the daemon served the speculation); the structural
//!   guarantee is per-row — every admitted value is within `k` writes
//!   of the serialized read (proptested at the `MemoryState` level) —
//!   and the empirical guarantee is a seeded accuracy band: |ΔMRR| vs
//!   the exact oracle stays within STALENESS_MRR_BAND at small k.
//! * `DaemonStats::rows_read` stays invariant under both speculation
//!   and the staleness bound (each bounded turn logically serves its
//!   full request), asserted directly.

use disttgl::cluster::ClusterSpec;
use disttgl::core::{
    train_distributed, ModelConfig, ParallelConfig, RunResult, StalenessCompensation, TrainConfig,
};
use disttgl::data::generators;
use disttgl::mem::{MemoryState, MemoryWrite};
use disttgl::tensor::Matrix;
use proptest::prelude::*;

/// Documented accuracy band for the seeded small-k test: on the tiny
/// equivalence-suite datasets, |ΔMRR| between an exact run and a
/// bounded-staleness run at k ≤ 4 stays within this bound. The band is
/// deliberately generous — admission is timing-dependent, and the tiny
/// runs are high-variance — but it pins the failure mode that matters:
/// bounded staleness must degrade accuracy gradually, never collapse it.
const STALENESS_MRR_BAND: f64 = 0.15;

fn tiny_model(d_edge: usize) -> ModelConfig {
    let mut mc = ModelConfig::compact(d_edge);
    mc.d_mem = 16;
    mc.d_time = 8;
    mc.d_emb = 16;
    mc.n_neighbors = 5;
    mc.static_memory = false;
    mc
}

fn cfg_for(parallel: ParallelConfig, epochs: usize, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(parallel);
    cfg.local_batch = 50;
    cfg.epochs = epochs;
    cfg.eval_negs = 9;
    cfg.eval_every_epoch = true;
    cfg.seed = seed;
    cfg.base_lr = 1.2e-2;
    cfg
}

fn assert_bit_identical(bounded: &RunResult, exact: &RunResult) {
    assert!(!bounded.loss_history.is_empty());
    assert_eq!(
        bounded.loss_history, exact.loss_history,
        "loss history diverged"
    );
    assert_eq!(
        bounded.test_metric, exact.test_metric,
        "test metric diverged"
    );
    assert_eq!(bounded.convergence.len(), exact.convergence.len());
    for (a, b) in bounded.convergence.iter().zip(&exact.convergence) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.metric, b.metric, "validation metric diverged");
    }
    assert_eq!(
        bounded.memory_checksums, exact.memory_checksums,
        "final node memory diverged"
    );
    // Satellite invariant: `rows_read` counts logical rows served at
    // serialized turns, so it is invariant under speculation *and*
    // under the staleness bound.
    assert_eq!(bounded.daemon_rows_read, exact.daemon_rows_read);
    assert_eq!(bounded.daemon_rows_written, exact.daemon_rows_written);
}

/// k = 0 ≡ exact oracle, link prediction, epoch parallelism (1×1×2):
/// the continue passes open a real speculation window, so the bounded
/// path genuinely runs — and admits nothing.
#[test]
fn staleness_bound_zero_is_bit_identical_link_prediction() {
    let d = generators::wikipedia(0.005, 611);
    let mc = tiny_model(d.edge_features.cols());
    let exact_cfg = cfg_for(ParallelConfig::new(1, 1, 2), 4, 611);
    let bounded_cfg = exact_cfg.clone().staleness_bound(0);

    let exact = train_distributed(&d, &mc, &exact_cfg, ClusterSpec::new(1, 2));
    let bounded = train_distributed(&d, &mc, &bounded_cfg, ClusterSpec::new(1, 2));

    assert_bit_identical(&bounded, &exact);
    // The bounded machinery must actually have served turns...
    assert!(
        bounded.daemon_bounded_reads > 0,
        "no bounded repair turns served — the k=0 identity is vacuous"
    );
    // ...and admitted nothing at k = 0.
    assert_eq!(bounded.daemon_stale_rows_admitted, 0);
    assert_eq!(bounded.daemon_stale_lag_max, 0);
    // Exact runs never touch the bounded path.
    assert_eq!(exact.daemon_bounded_reads, 0);
}

/// k = 0 ≡ exact oracle, edge classification, all three axes (2×2×2).
#[test]
fn staleness_bound_zero_is_bit_identical_edge_classification_ijk() {
    let d = generators::gdelt(2.0e-5, 612);
    let mc = tiny_model(d.edge_features.cols()).with_classes(d.num_classes());
    let exact_cfg = cfg_for(ParallelConfig::new(2, 2, 2), 8, 612);
    let bounded_cfg = exact_cfg.clone().staleness_bound(0);

    let exact = train_distributed(&d, &mc, &exact_cfg, ClusterSpec::new(2, 4));
    let bounded = train_distributed(&d, &mc, &bounded_cfg, ClusterSpec::new(2, 4));

    assert_bit_identical(&bounded, &exact);
    assert!(bounded.daemon_bounded_reads > 0);
    assert_eq!(bounded.daemon_stale_rows_admitted, 0);
}

/// Seeded accuracy band at small k: the relaxed mode may drift, but
/// |ΔMRR| vs the exact oracle stays within the documented band, the
/// realized lag respects the bound, and the staleness accounting is
/// self-consistent. Also covers the SimilarityBlend compensation path.
#[test]
fn small_k_stays_within_accuracy_band() {
    let d = generators::wikipedia(0.005, 613);
    let mc = tiny_model(d.edge_features.cols());
    let exact_cfg = cfg_for(ParallelConfig::new(1, 1, 2), 4, 613);
    let exact = train_distributed(&d, &mc, &exact_cfg, ClusterSpec::new(1, 2));

    for comp in [
        StalenessCompensation::None,
        StalenessCompensation::SimilarityBlend,
    ] {
        let bound = 4u64;
        let cfg = exact_cfg
            .clone()
            .staleness_bound(bound)
            .with_staleness_compensation(comp);
        let run = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
        assert!(!run.aborted);
        let delta = (run.test_metric - exact.test_metric).abs();
        assert!(
            delta <= STALENESS_MRR_BAND,
            "{comp:?}: |ΔMRR| = {delta:.4} beyond the documented band {STALENESS_MRR_BAND}"
        );
        // Realized staleness respects the configured bound.
        assert!(run.daemon_stale_lag_max <= bound);
        // Lag accounting: mean lag well-defined and ≤ max.
        if run.daemon_stale_rows_admitted > 0 {
            let mean = run.daemon_stale_lag_sum as f64 / run.daemon_stale_rows_admitted as f64;
            assert!(mean >= 1.0 && mean <= run.daemon_stale_lag_max as f64);
        }
        // rows_read invariance holds even when repairs are skipped
        // (the satellite-6 counter assertion at k > 0).
        assert_eq!(run.daemon_rows_read, exact.daemon_rows_read);
        assert_eq!(run.daemon_rows_written, exact.daemon_rows_written);
        // Every speculation is consumed by exactly one bounded turn,
        // and bounded turns count into the delta-turn total.
        assert_eq!(run.daemon_bounded_reads, run.daemon_delta_reads);
        assert_eq!(run.daemon_spec_reads, run.daemon_delta_reads);
        // Skipped + paid never exceeds what speculation gathered.
        assert!(
            run.daemon_stale_rows_admitted + run.daemon_delta_rows <= run.daemon_spec_rows,
            "staleness accounting exceeds speculated rows"
        );
    }
}

#[derive(Clone, Debug)]
struct Step {
    node: u32,
    value: f32,
    ts: f32,
}

fn steps(n: usize, nodes: u32) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0..nodes, -10.0f32..10.0, 0.0f32..100.0).prop_map(|(node, value, ts)| Step {
            node,
            value,
            ts,
        }),
        n..=n,
    )
}

fn write_of(step: &Step, d_mem: usize, mail_dim: usize) -> MemoryWrite {
    MemoryWrite {
        nodes: vec![step.node],
        mem: Matrix::full(1, d_mem, step.value),
        mem_ts: vec![step.ts],
        mail: Matrix::full(1, mail_dim, step.value * 2.0),
        mail_ts: vec![step.ts],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The structural per-row guarantee of `MemoryState::repair`: for any
    /// write script, tag point, and bound, every row the bounded
    /// repair *skips* is within `bound` versions of the serialized
    /// read, and every row it does not skip is bit-identical to the
    /// serialized read. With `bound = 0` the whole readout equals the
    /// serialized read.
    #[test]
    fn skipped_rows_are_within_bound_of_serialized_read(
        pre in steps(6, 5),
        post in steps(8, 5),
        read_set in proptest::collection::vec(0u32..5, 1..6),
        bound in 0u64..6,
    ) {
        let (d_mem, mail_dim) = (2usize, 3usize);
        let mut s = MemoryState::new(5, d_mem, mail_dim);
        for step in &pre {
            s.write(&write_of(step, d_mem, mail_dim));
        }
        let tagged = s.read_versioned(&read_set);
        for step in &post {
            s.write(&write_of(step, d_mem, mail_dim));
        }

        let mut out = tagged.readout.clone();
        let outcome = s.repair(&read_set, &tagged.versions, &mut out, bound);
        let serialized = s.read(&read_set);

        // Admitted rows: stale, and within `bound` versions of the
        // serialized read (the bounded-staleness contract).
        for &r in &outcome.admitted_rows {
            let r = r as usize;
            let node = read_set[r] as usize;
            let lag = s.node_versions()[node] - tagged.versions[r];
            prop_assert!(lag >= 1, "admitted row {} was not stale", r);
            prop_assert!(lag <= bound, "admitted row {} lag {} > bound {}", r, lag, bound);
        }
        prop_assert_eq!(outcome.admitted_rows.len(), outcome.admitted_stale);
        prop_assert!(outcome.max_lag <= bound);

        // Every non-admitted row equals the serialized read bit for bit.
        for r in 0..read_set.len() {
            if outcome.admitted_rows.contains(&(r as u32)) {
                continue;
            }
            prop_assert_eq!(out.mem.row(r), serialized.mem.row(r), "mem row {}", r);
            prop_assert_eq!(out.mail.row(r), serialized.mail.row(r), "mail row {}", r);
            prop_assert_eq!(out.mem_ts[r], serialized.mem_ts[r]);
            prop_assert_eq!(out.mail_ts[r], serialized.mail_ts[r]);
        }
        if bound == 0 {
            prop_assert_eq!(outcome.admitted_stale, 0);
            prop_assert_eq!(&out.mem, &serialized.mem);
            prop_assert_eq!(&out.mail, &serialized.mail);
        }
    }

    /// A reset between tag and repair forces every row to repair, no
    /// matter how large the bound: pre-reset values are semantically
    /// from a finished epoch, never merely stale.
    #[test]
    fn reset_always_forces_repair(
        pre in steps(6, 5),
        bound in 0u64..1_000_000,
    ) {
        let (d_mem, mail_dim) = (2usize, 2usize);
        let mut s = MemoryState::new(5, d_mem, mail_dim);
        for step in &pre {
            s.write(&write_of(step, d_mem, mail_dim));
        }
        let read_set: Vec<u32> = (0..5).collect();
        let tagged = s.read_versioned(&read_set);
        s.reset();

        let mut out = tagged.readout.clone();
        let outcome = s.repair(&read_set, &tagged.versions, &mut out, bound);
        prop_assert_eq!(outcome.admitted_stale, 0, "admitted a pre-reset row");
        let serialized = s.read(&read_set);
        prop_assert_eq!(&out.mem, &serialized.mem);
        prop_assert_eq!(&out.mail, &serialized.mail);
    }
}
