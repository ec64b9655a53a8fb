//! Equivalence story for the L-layer embedding stack:
//!
//! * **`n_layers = 1` is the historical model.** The stacked
//!   forward/backward with one layer must be bit-identical across
//!   executors (sequential, distributed) with
//!   `dedup_readout` and `speculative_gather` both on and off — the
//!   same invariants the pre-refactor suites pin, re-asserted here
//!   against the layer-stack code path, including through an
//!   explicitly spelled-out `neighbor_fanouts: [k]`.
//! * **`n_layers = 2` composes with everything.** The union-frontier
//!   fold is bit-identical to the per-occurrence oracle at depth 2,
//!   sequential and distributed 2-layer training track each other,
//!   and distributed 2-layer runs are bit-reproducible across reruns.

use disttgl::cluster::ClusterSpec;
use disttgl::core::{
    train_distributed, train_single, train_single_traced, BatchPreparer, MemoryAccess, ModelConfig,
    ParallelConfig, TgnModel, TrainConfig,
};
use disttgl::data::{generators, NegativeStore};
use disttgl::graph::TCsr;
use disttgl::mem::MemoryState;
use disttgl::tensor::seeded_rng;

fn tiny_model(d_edge: usize) -> ModelConfig {
    let mut mc = ModelConfig::compact(d_edge);
    mc.d_mem = 16;
    mc.d_time = 8;
    mc.d_emb = 16;
    mc.n_neighbors = 5;
    mc.static_memory = false;
    mc
}

fn quick_cfg(parallel: ParallelConfig, epochs: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(parallel);
    cfg.local_batch = 64;
    cfg.epochs = epochs;
    cfg.eval_negs = 9;
    cfg.seed = 11;
    cfg.base_lr = 1.2e-2;
    cfg
}

/// `n_layers = 1`, spelled both implicitly (the default) and as an
/// explicit one-entry fanout vector, with dedup on and off: every
/// variant must be bit-identical in losses, metrics, and final memory
/// digests.
#[test]
fn one_layer_stack_is_bit_identical_across_executors_and_flags() {
    let d = generators::wikipedia(0.005, 411);
    let base = tiny_model(d.edge_features.cols());
    assert_eq!(base.n_layers, 1, "one layer is the default");
    let explicit = base.clone().with_fanouts(vec![base.n_neighbors]);
    let cfg = quick_cfg(ParallelConfig::single(), 3);

    let (seq, seq_mem) = train_single_traced(&d, &base, &cfg);
    for (label, mc) in [
        ("explicit fanouts", explicit.clone()),
        (
            "explicit fanouts, no dedup",
            explicit.without_dedup_readout(),
        ),
    ] {
        let (run, mem) = train_single_traced(&d, &mc, &cfg);
        if mc.dedup_readout {
            // Same math as the default-config run, bit for bit.
            assert_eq!(run.loss_history, seq.loss_history, "{label}: losses");
            assert_eq!(run.test_metric, seq.test_metric, "{label}: metric");
            assert_eq!(mem.checksum(), seq_mem.checksum(), "{label}: memory");
        } else {
            // The per-occurrence oracle shares the step-0 forward.
            assert_eq!(run.loss_history[0], seq.loss_history[0], "{label}");
        }
    }
}

/// `n_layers = 1` distributed, speculative gather on vs off: the
/// version-vector protocol stays bit-identical under the layer-stack
/// refactor (losses, metric, per-replica memory digests).
#[test]
fn one_layer_distributed_speculation_on_off_bit_identical() {
    let d = generators::wikipedia(0.005, 412);
    let mc = tiny_model(d.edge_features.cols()).with_layers(1);
    let mut cfg = quick_cfg(ParallelConfig::new(1, 1, 2), 4);
    assert!(cfg.speculative_gather, "speculation is the default");
    let spec = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    cfg.speculative_gather = false;
    let serial = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert_eq!(spec.loss_history, serial.loss_history);
    assert_eq!(spec.test_metric, serial.test_metric);
    assert_eq!(spec.memory_checksums, serial.memory_checksums);
    assert!(spec.daemon_spec_reads > 0, "speculation must have run");
}

/// Depth-2 union-frontier fold vs the per-occurrence oracle: forward
/// scores and delayed-update writes bit-identical while the stream
/// advances — the dedup equivalence story at `n_layers = 2`.
#[test]
fn two_layer_dedup_forward_bit_identical() {
    let d = generators::wikipedia(0.006, 413);
    let mc = tiny_model(d.edge_features.cols()).with_fanouts(vec![5, 3]);
    assert!(mc.dedup_readout);
    let mc_occ = mc.clone().without_dedup_readout();
    let csr = TCsr::build(&d.graph);
    let mut rng = seeded_rng(41);
    let model = TgnModel::new(mc.clone(), &mut rng);
    let prep_fold = BatchPreparer::new(&d, &csr, &mc);
    let prep_occ = BatchPreparer::new(&d, &csr, &mc_occ);
    let mut mem_fold = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());
    let mut mem_occ = mem_fold.clone();
    let store = NegativeStore::generate(&d.graph, 4 * 48, 2, 1, 9);

    for i in 0..4 {
        let range = i * 48..(i + 1) * 48;
        let negs = store.slice(0, range.clone());
        let folded = prep_fold.prepare(range.clone(), &[negs], 1, &mut mem_fold);
        let oracle = prep_occ.prepare(range, &[negs], 1, &mut mem_occ);
        // The folded gather covers both hops with strictly fewer rows.
        assert_eq!(folded.pos.hops.len(), 2);
        let occ_rows = disttgl::core::occurrence_rows(folded.pos.roots.len(), &folded.pos.hops);
        assert!(folded.pos.readout.rows() < occ_rows, "batch {i}: no fold");
        assert_eq!(oracle.pos.readout.rows(), occ_rows);

        let out_f = model.infer_step(&folded.pos, folded.negs.first(), None);
        let out_o = model.infer_step(&oracle.pos, oracle.negs.first(), None);
        assert_eq!(out_f.pos_scores, out_o.pos_scores, "batch {i}: pos scores");
        assert_eq!(out_f.neg_scores, out_o.neg_scores, "batch {i}: neg scores");
        assert_eq!(out_f.write.mem, out_o.write.mem, "batch {i}: write mem");
        assert_eq!(out_f.write.mail, out_o.write.mail, "batch {i}: write mail");
        MemoryAccess::write(&mut mem_fold, out_f.write);
        MemoryAccess::write(&mut mem_occ, out_o.write);
    }
}

/// Depth-2 stacked backward vs the per-occurrence oracle: one
/// training step from identical weights must produce matching
/// parameter gradients within float-summation-order tolerance (the
/// union fold sums each hop's occurrence gradients per unique node
/// *before* the GRU contractions instead of inside them), and the
/// folded 2-layer backward must itself be deterministic.
#[test]
fn two_layer_backward_matches_oracle_within_tolerance() {
    let d = generators::wikipedia(0.006, 417);
    let mc = tiny_model(d.edge_features.cols()).with_fanouts(vec![5, 3]);
    let mc_occ = mc.clone().without_dedup_readout();
    let csr = TCsr::build(&d.graph);
    let store = NegativeStore::generate(&d.graph, 128, 1, 1, 7);

    let grads_for = |cfg: &ModelConfig| {
        let mut rng = seeded_rng(43);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        // Two batches so the second sees non-trivial memory/mails.
        let b0 = prep.prepare(0..64, &[store.slice(0, 0..64)], 1, &mut mem);
        let out = model.train_step(&b0.pos, Some(&b0.negs[0]), None);
        MemoryAccess::write(&mut mem, out.write);
        let b1 = prep.prepare(64..128, &[store.slice(0, 64..128)], 1, &mut mem);
        model.params.zero_grads();
        let out = model.train_step(&b1.pos, Some(&b1.negs[0]), None);
        (model.params.flatten_grads(), out.loss)
    };

    let (gf, lf) = grads_for(&mc);
    let (gf2, lf2) = grads_for(&mc);
    assert_eq!(gf, gf2, "folded 2-layer backward must be deterministic");
    assert_eq!(lf, lf2);

    let (go, lo) = grads_for(&mc_occ);
    assert_eq!(lf, lo, "2-layer forward loss is bit-identical");
    assert_eq!(gf.len(), go.len());
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (&a, &b) in gf.iter().zip(&go) {
        num += ((a - b) as f64).powi(2);
        den += (b as f64).powi(2);
    }
    let rel = (num / den.max(1e-30)).sqrt();
    assert!(
        rel < 1e-4,
        "2-layer gradient relative L2 deviation {rel} exceeds summation-order tolerance"
    );
}

/// A 2-layer model is a genuinely different function (depth reaches
/// the predictions) and still learns on the link task.
#[test]
fn two_layer_stack_differs_and_learns() {
    let d = generators::wikipedia(0.008, 414);
    let one = tiny_model(d.edge_features.cols());
    let two = one.clone().with_layers(2);
    let cfg = quick_cfg(ParallelConfig::single(), 4);

    let r1 = train_single(&d, &one, &cfg);
    let r2 = train_single(&d, &two, &cfg);
    assert_ne!(
        r1.loss_history[0], r2.loss_history[0],
        "hop-2 context never reached the loss"
    );
    assert!(r2.test_metric > 0.4, "2-layer test MRR {}", r2.test_metric);
    // The per-layer embed attribution sees both layers.
    assert_eq!(r2.timing.embed_layer_secs.len(), 2);
    assert!(r2.timing.embed_layer_secs.iter().all(|&s| s > 0.0));
}

/// 2-layer sequential vs distributed (memory parallelism): both
/// converge to comparable metrics, and the distributed run is
/// bit-reproducible across reruns (the acceptance criterion for
/// multi-layer distributed determinism).
#[test]
fn two_layer_sequential_vs_distributed_parity_and_reproducibility() {
    let d = generators::wikipedia(0.006, 415);
    let mc = tiny_model(d.edge_features.cols()).with_layers(2);
    let seq_cfg = quick_cfg(ParallelConfig::single(), 4);
    let seq = train_single(&d, &mc, &seq_cfg);

    let dist_cfg = quick_cfg(ParallelConfig::new(1, 1, 2), 4);
    let a = train_distributed(&d, &mc, &dist_cfg, ClusterSpec::new(1, 2));
    let b = train_distributed(&d, &mc, &dist_cfg, ClusterSpec::new(1, 2));
    assert_eq!(a.loss_history, b.loss_history, "2-layer rerun diverged");
    assert_eq!(a.test_metric, b.test_metric);
    assert_eq!(a.memory_checksums, b.memory_checksums);

    assert!(seq.test_metric > 0.3, "sequential MRR {}", seq.test_metric);
    assert!(a.test_metric > 0.3, "distributed MRR {}", a.test_metric);
    assert!(
        (seq.test_metric - a.test_metric).abs() < 0.2,
        "2-layer convergence parity: seq {} vs dist {}",
        seq.test_metric,
        a.test_metric
    );
}

/// Classification task at depth 2: the stack trains through the
/// multi-label head as well.
#[test]
fn two_layer_classification_trains() {
    let d = generators::gdelt(2.5e-5, 416);
    let mc = tiny_model(d.edge_features.cols())
        .with_classes(d.num_classes())
        .with_fanouts(vec![4, 2]);
    let cfg = quick_cfg(ParallelConfig::single(), 2);
    let res = train_single(&d, &mc, &cfg);
    assert!((0.0..=1.0).contains(&res.test_metric));
    assert!(res.loss_history.iter().all(|l| l.is_finite()));
}
