//! The pipelined batch-prefetch executor must be *numerically
//! identical* to the non-prefetching trainer: same losses, same
//! metrics, same daemon traffic. Phase 1 is a pure function and phase
//! 2 keeps the serialized read in its original slot, so any divergence
//! here is a bug, not noise — all comparisons are exact.

use disttgl::cluster::ClusterSpec;
use disttgl::core::{train_distributed, ModelConfig, ParallelConfig, TrainConfig};
use disttgl::data::generators;

fn tiny_model(d_edge: usize) -> ModelConfig {
    let mut mc = ModelConfig::compact(d_edge);
    mc.d_mem = 16;
    mc.d_time = 8;
    mc.d_emb = 16;
    mc.n_neighbors = 5;
    mc.static_memory = false;
    mc
}

/// The distributed trainer must produce identical results with the
/// prefetch pipeline on and off, across all three parallelism axes.
#[test]
fn distributed_prefetch_on_off_identical() {
    let d = generators::wikipedia(0.005, 213);
    let mc = tiny_model(d.edge_features.cols());
    let mut cfg = TrainConfig::new(ParallelConfig::new(2, 2, 1));
    cfg.local_batch = 50;
    cfg.epochs = 4;
    cfg.eval_negs = 9;
    cfg.seed = 17;
    cfg.base_lr = 1.2e-2;

    cfg.pipeline_prefetch = true;
    let on = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 4));
    cfg.pipeline_prefetch = false;
    let off = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 4));

    assert!(!on.loss_history.is_empty());
    assert_eq!(on.loss_history, off.loss_history, "loss history diverged");
    assert_eq!(on.test_metric, off.test_metric, "test metric diverged");
    assert_eq!(on.daemon_rows_read, off.daemon_rows_read);
    assert_eq!(on.daemon_rows_written, off.daemon_rows_written);
}
