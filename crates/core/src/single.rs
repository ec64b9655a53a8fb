//! The sequential reference trainer: exact single-GPU (1×1×1) M-TGNN
//! training semantics. This is both the accuracy baseline of every
//! convergence figure and the correctness oracle the distributed
//! schedules are tested against.

use crate::batch::BatchPreparer;
use crate::config::{ModelConfig, TrainConfig};
use crate::metrics::RunResult;
use crate::protocol::{host_cores, EvalClock, RunSetup};
use disttgl_data::Dataset;
use disttgl_graph::batching;
use disttgl_mem::MemoryState;
use disttgl_tensor::par;
use std::time::Instant;

/// Trains on a single simulated GPU. `cfg.parallel` must be `1×1×1`.
///
/// Protocol (paper §4, the one every trainer shares):
/// chronological 70/15/15 split, pre-trained static memory, node
/// memory reset per epoch, LR scaled with batch size, validation after
/// every epoch using the live memory, and a final test of the final
/// model after replaying the validation split.
pub fn train_single(dataset: &Dataset, model_cfg: &ModelConfig, cfg: &TrainConfig) -> RunResult {
    train_single_traced(dataset, model_cfg, cfg).0
}

/// [`train_single`] plus the final training-time [`MemoryState`]
/// (after the last epoch, before the validation/test replay) — the
/// state the equivalence tests compare.
///
/// The one trainer thread is the only one computing, so every core is
/// its intra-op budget — for training, evaluation and the final replay
/// alike.
pub fn train_single_traced(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
) -> (RunResult, MemoryState) {
    par::with_budget(host_cores(), || train_loop(dataset, model_cfg, cfg))
}

fn train_loop(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
) -> (RunResult, MemoryState) {
    assert_eq!(cfg.parallel.world(), 1, "train_single requires 1×1×1");
    let setup = RunSetup::new(dataset, model_cfg, cfg);
    let (mut model, mut adam) = setup.model();
    let prep = BatchPreparer::new(dataset, &setup.csr, model_cfg);
    let mut memory = model_cfg.new_memory(dataset.graph.num_nodes());
    let batches = batching::chronological_batches(0..setup.train_end, cfg.local_batch);

    let mut result = RunResult::default();
    // Absolute counts: a resumed run continues the checkpointed ones.
    let mut start_epoch = 0usize;
    let mut iteration = 0usize;
    let mut events_trained = 0u64;
    if let Some(c) = &setup.resume {
        // Resume restarts at the checkpoint's epoch boundary; the
        // epoch-start memory reset means nothing mid-epoch needs replay.
        assert!(
            c.units_done < cfg.epochs.max(1),
            "checkpoint already covers all {} epochs",
            cfg.epochs
        );
        start_epoch = c.units_done;
        iteration = c.iteration;
        events_trained = c.events_trained;
        result.loss_history = c.loss_history.clone();
        result.convergence = c.convergence.clone();
    }
    let start = Instant::now();
    let mut clock = EvalClock::start();

    for epoch in start_epoch..cfg.epochs {
        memory.reset();
        for range in &batches {
            let t_prep = Instant::now();
            let prepared = match &setup.store {
                Some(store) => {
                    let negs = store.slice(store.group_for_epoch(epoch), range.clone());
                    prep.prepare(range.clone(), &[negs], cfg.train_negs, &mut memory)
                }
                None => prep.prepare(range.clone(), &[], 1, &mut memory),
            };
            result.timing.prep_secs += t_prep.elapsed().as_secs_f64();

            let t_compute = Instant::now();
            model.params.zero_grads();
            let out = model.train_step(
                &prepared.pos,
                prepared.negs.first(),
                setup.static_mem.as_ref(),
            );
            model.params.clip_grad_norm(5.0);
            adam.step(&mut model.params);
            result.timing.compute_secs += t_compute.elapsed().as_secs_f64();

            memory.write(&out.write);
            result.loss_history.push(out.loss);
            iteration += 1;
            events_trained += range.len() as u64;
        }

        if setup.validates() {
            let point = clock
                .time(|| setup.boundary_eval(&model, &mut memory.clone(), epoch, iteration, start));
            result.convergence.push(point);
        }

        // Periodic checkpoint at the epoch boundary — the sequential
        // trainer's crash-consistent point. The memory itself is not
        // saved: the next epoch starts with a reset, so resume
        // re-derives it.
        let units = epoch + 1;
        if setup.checkpoint_due(units, cfg.epochs) {
            setup.save_checkpoint(&setup.checkpoint(
                units,
                iteration,
                events_trained,
                &model,
                &adam,
                &result.loss_history,
                &result.convergence,
                Vec::new(),
            ));
        }
    }

    result.wall_secs = start.elapsed().as_secs_f64();
    clock.attribute(&mut result.timing, &model);
    result.throughput_events_per_sec =
        events_trained as f64 / (result.wall_secs - clock.secs).max(1e-9);
    result.test_metric = setup.final_test(&model, &mut memory.clone());
    result.finalize_convergence();
    (result, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelConfig;
    use disttgl_data::generators;

    fn quick_cfg(epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::new(ParallelConfig::single());
        cfg.local_batch = 100;
        cfg.epochs = epochs;
        cfg.eval_negs = 9;
        cfg.seed = 1;
        // Tiny batches → the paper's linear LR scaling would starve
        // the run; bump the base so the effective LR stays ~2e-3.
        cfg.base_lr = 1.2e-2;
        cfg
    }

    /// End-to-end: training must beat the untrained model decisively.
    /// This is the repo's central learning test.
    #[test]
    fn training_improves_mrr_over_untrained() {
        let d = generators::wikipedia(0.008, 77);
        let mut mc = ModelConfig::compact(d.edge_features.cols());
        mc.n_neighbors = 5;
        mc.static_memory = false;

        let untrained = train_single(&d, &mc, &quick_cfg(0));
        let trained = train_single(&d, &mc, &quick_cfg(8));
        assert!(
            trained.test_metric > untrained.test_metric + 0.1,
            "trained {} vs untrained {}",
            trained.test_metric,
            untrained.test_metric
        );
        assert!(
            trained.test_metric > 0.5,
            "test MRR {}",
            trained.test_metric
        );
    }

    /// The trainer validates its config before building anything.
    #[test]
    #[should_panic(expected = "invalid TrainConfig")]
    fn zero_checkpoint_period_is_rejected_up_front() {
        let d = generators::mooc(0.0015, 5);
        let mut mc = ModelConfig::compact(0);
        mc.static_memory = false;
        let mut cfg = quick_cfg(2);
        cfg.checkpoint_every = Some(0);
        cfg.checkpoint_dir = Some("unused".into());
        train_single(&d, &mc, &cfg);
    }

    /// Determinism: identical seeds → identical histories.
    #[test]
    fn run_is_deterministic() {
        let d = generators::mooc(0.0015, 5);
        let mut mc = ModelConfig::compact(0);
        mc.n_neighbors = 5;
        mc.static_memory = false;
        let a = train_single(&d, &mc, &quick_cfg(2));
        let b = train_single(&d, &mc, &quick_cfg(2));
        assert_eq!(a.loss_history, b.loss_history);
        assert_eq!(a.test_metric, b.test_metric);
    }
}
