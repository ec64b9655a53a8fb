//! The sequential reference trainer: exact single-GPU (1×1×1) M-TGNN
//! training semantics. This is both the accuracy baseline of every
//! convergence figure and the correctness oracle the distributed
//! schedules are tested against.

use crate::batch::BatchPreparer;
use crate::checkpoint::{fingerprint, TrainCheckpoint};
use crate::config::{ModelConfig, TrainConfig};
use crate::eval::evaluate;
use crate::metrics::{ConvergencePoint, RunResult};
use crate::model::TgnModel;
use crate::pipeline::{read_lock, write_lock, BatchPrefetcher, PrefetchRequest, SharedMemory};
use crate::static_mem::StaticMemory;
use disttgl_data::{Dataset, NegativeStore, Task};
use disttgl_graph::{batching, TCsr};
use disttgl_mem::MemoryState;
use disttgl_tensor::{par, seeded_rng};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Trains on a single simulated GPU. `cfg.parallel` must be `1×1×1`.
///
/// Protocol (paper §4): chronological 70/15/15 split, pre-trained
/// static memory, node memory reset per epoch, LR scaled with batch
/// size, validation after every epoch using the live memory, final
/// test with the best... the paper reports the final model; we report
/// the final model's test metric plus the best-validation bookkeeping.
pub fn train_single(dataset: &Dataset, model_cfg: &ModelConfig, cfg: &TrainConfig) -> RunResult {
    run_single(dataset, model_cfg, cfg, false).0
}

/// [`train_single`] plus the final training-time [`MemoryState`]
/// (after the last epoch, before the validation/test replay) — the
/// state the equivalence tests compare.
pub fn train_single_traced(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
) -> (RunResult, MemoryState) {
    run_single(dataset, model_cfg, cfg, false)
}

/// The pipelined single-GPU trainer: identical semantics to
/// [`train_single`], with batch *t + 1*'s preparation overlapped with
/// the compute of batch *t* on a prefetch thread — phase 1 (neighbor
/// sampling, negative slicing, feature gathers) unconditionally, and
/// the phase-2 memory gather during the backward pass via eager-write
/// scheduling. See [`crate::pipeline`] for the phase split and the
/// memory-dependency rule; results are bit-identical to the
/// sequential oracle.
pub fn train_single_pipelined(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
) -> RunResult {
    run_single(dataset, model_cfg, cfg, true).0
}

/// [`train_single_pipelined`] plus the final training-time memory.
pub fn train_single_pipelined_traced(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
) -> (RunResult, MemoryState) {
    run_single(dataset, model_cfg, cfg, true)
}

/// The cores this process may run on (1 when unknown, or when pinned
/// to one core) — what executors divide into intra-op budgets.
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The one trainer thread is the only one computing, so every core is
/// its intra-op budget — for training, evaluation and the final replay
/// alike.
fn run_single(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
    pipelined: bool,
) -> (RunResult, MemoryState) {
    par::with_budget(host_cores(), || {
        train_loop(dataset, model_cfg, cfg, pipelined)
    })
}

fn train_loop(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
    pipelined: bool,
) -> (RunResult, MemoryState) {
    assert_eq!(cfg.parallel.world(), 1, "train_single requires 1×1×1");
    let csr = Arc::new(TCsr::build(&dataset.graph));
    let (train_end, val_end) = dataset.graph.chronological_split(0.70, 0.15);

    // Resume: load + validate before touching anything expensive. A
    // bad checkpoint (corrupt file, different config) fails loudly
    // here — silently diverging from the oracle would be worse.
    let resume = cfg.resume_from.as_ref().map(|path| {
        let ckpt = TrainCheckpoint::load(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("resume from {path}: {e}"));
        ckpt.check_fingerprint(model_cfg, cfg)
            .unwrap_or_else(|e| panic!("resume from {path}: {e}"));
        ckpt
    });

    let mut rng = seeded_rng(cfg.seed);
    let mut model = TgnModel::new(model_cfg.clone(), &mut rng);
    let mut adam = model.optimizer(cfg.scaled_lr());

    let static_mem = if model_cfg.static_memory {
        // The saved table is bit-identical to re-running the pretrain
        // (both derive from cfg.seed); reusing it just skips the pass.
        match resume.as_ref().and_then(|c| c.static_table.clone()) {
            Some(t) => Some(StaticMemory::from_table(t)),
            None => Some(StaticMemory::pretrain(
                dataset,
                model_cfg.d_mem,
                train_end,
                10,
                cfg.seed ^ 0x5747,
            )),
        }
    } else {
        None
    };

    let store = match dataset.task {
        Task::LinkPrediction => Some(NegativeStore::generate(
            &dataset.graph,
            train_end,
            cfg.neg_groups,
            cfg.train_negs,
            cfg.seed ^ 0x4e45,
        )),
        Task::EdgeClassification => None,
    };

    let prep = BatchPreparer::new(dataset, csr.as_ref(), model_cfg);
    let memory: SharedMemory =
        Arc::new(RwLock::new(model_cfg.new_memory(dataset.graph.num_nodes())));
    let batches = batching::chronological_batches(0..train_end, cfg.local_batch);

    // Resume restarts at the checkpoint's epoch boundary; the
    // epoch-start memory reset means nothing mid-epoch needs replay.
    let start_epoch = resume.as_ref().map(|c| c.units_done).unwrap_or(0);
    assert!(
        start_epoch < cfg.epochs.max(1),
        "checkpoint already covers all {} epochs",
        cfg.epochs
    );

    // Flat (epoch, range) execution order, the prefetch schedule —
    // only the epochs this (possibly resumed) process will run.
    let plan: Vec<(usize, std::ops::Range<usize>)> = (start_epoch..cfg.epochs)
        .flat_map(|e| batches.iter().cloned().map(move |r| (e, r)))
        .collect();
    let request_for = |epoch: usize, range: std::ops::Range<usize>, gather: bool| {
        let mut req = PrefetchRequest::for_epoch(store.as_ref(), epoch, 1, range, cfg.train_negs);
        req.gather_memory = gather;
        req
    };
    let mut prefetcher = if pipelined && !plan.is_empty() {
        let mut p = BatchPrefetcher::spawn_with_memory(
            Arc::new(dataset.clone()),
            Arc::clone(&csr),
            model_cfg.clone(),
            Arc::clone(&memory),
        );
        // The first gather would race the initial epoch reset, so the
        // priming request is phase-1 only.
        p.request(request_for(plan[0].0, plan[0].1.clone(), false));
        Some(p)
    } else {
        None
    };
    let mut result = RunResult::default();
    let start = Instant::now();
    // Kernel-share attribution: the trainer thread's cumulative kernel
    // timers, differenced at the end of the run. Prefetch-worker
    // gathers land on the worker thread and are deliberately excluded —
    // they are off the critical path by construction.
    let kernels0 = disttgl_tensor::timing::snapshot();
    // Absolute iteration count (includes checkpointed work) vs. index
    // into this process's `plan` (remaining work only) — distinct on
    // a resumed run.
    let mut iteration = 0usize;
    let mut plan_idx = 0usize;
    let mut events_trained = 0u64;
    let mut eval_secs = 0.0f64;
    let mut eval_kernels = disttgl_tensor::timing::KernelTimings::default();

    if let Some(c) = &resume {
        model.params.unflatten_weights(&c.weights);
        adam.load_state(c.adam_t, &c.adam_state);
        result.loss_history = c.loss_history.clone();
        result.convergence = c.convergence.clone();
        iteration = c.iteration;
        events_trained = c.events_trained;
    }

    for epoch in start_epoch..cfg.epochs {
        write_lock(&memory).reset();
        for range in &batches {
            let t_prep = Instant::now();
            let out = match &mut prefetcher {
                Some(p) => {
                    // This batch's phase 1 — and, except after an epoch
                    // reset, its exact phase-2 gather — ran on the
                    // worker during the previous batch's backward pass
                    // (eager-write scheduling: the gather was issued
                    // only after the previous write landed, so it is
                    // never stale).
                    let resp = p.recv();
                    let full = match resp.readout {
                        Some(full) => full,
                        None => read_lock(&memory).read(resp.sb.nodes()),
                    };
                    let prepared = prep.complete(resp.sb, full);
                    result.timing.prep_secs += t_prep.elapsed().as_secs_f64();

                    let t_compute = Instant::now();
                    model.params.zero_grads();
                    let next = (plan_idx + 1 < plan.len()).then(|| plan[plan_idx + 1].clone());
                    let memory_ref = &memory;
                    let request_for_ref = &request_for;
                    let out = model.train_step_eager_write(
                        &prepared.pos,
                        prepared.negs.first(),
                        static_mem.as_ref(),
                        |w| {
                            // The write exists right after the forward
                            // pass; apply it now (nothing else reads
                            // memory before the next gather) and let
                            // the worker gather the next batch during
                            // this batch's backward pass.
                            write_lock(memory_ref).write(&w);
                            if let Some((e, r)) = next {
                                p.request(request_for_ref(e, r, e == epoch));
                            }
                        },
                    );
                    model.params.clip_grad_norm(5.0);
                    adam.step(&mut model.params);
                    result.timing.compute_secs += t_compute.elapsed().as_secs_f64();
                    out
                }
                None => {
                    let prepared = {
                        let mut guard = write_lock(&memory);
                        match (&store, dataset.task) {
                            (Some(store), Task::LinkPrediction) => {
                                let group = store.group_for_epoch(epoch);
                                let negs = store.slice(group, range.clone());
                                prep.prepare(range.clone(), &[negs], cfg.train_negs, &mut *guard)
                            }
                            _ => prep.prepare(range.clone(), &[], 1, &mut *guard),
                        }
                    };
                    result.timing.prep_secs += t_prep.elapsed().as_secs_f64();

                    let t_compute = Instant::now();
                    model.params.zero_grads();
                    let out =
                        model.train_step(&prepared.pos, prepared.negs.first(), static_mem.as_ref());
                    model.params.clip_grad_norm(5.0);
                    adam.step(&mut model.params);
                    result.timing.compute_secs += t_compute.elapsed().as_secs_f64();

                    write_lock(&memory).write(&out.write);
                    out
                }
            };
            result.loss_history.push(out.loss);
            iteration += 1;
            plan_idx += 1;
            events_trained += range.len() as u64;
        }

        if cfg.eval_every_epoch && val_end > train_end {
            let t_eval = Instant::now();
            let k_eval = disttgl_tensor::timing::snapshot();
            let mut val_mem = read_lock(&memory).clone();
            let eval_end = val_end.min(train_end.saturating_add(cfg.eval_max_events));
            let res = evaluate(
                &model,
                model_cfg,
                dataset,
                csr.as_ref(),
                &mut val_mem,
                static_mem.as_ref(),
                train_end..eval_end,
                cfg.local_batch,
                cfg.eval_negs,
                cfg.seed ^ epoch as u64,
            );
            eval_secs += t_eval.elapsed().as_secs_f64();
            eval_kernels = eval_kernels + (disttgl_tensor::timing::snapshot() - k_eval);
            result.convergence.push(ConvergencePoint {
                iteration,
                wall_secs: start.elapsed().as_secs_f64(),
                metric: res.metric,
            });
        }

        // Periodic checkpoint at the epoch boundary — the sequential
        // trainer's crash-consistent point. Saving is pure
        // observation (no training state is touched), so checkpointed
        // and plain runs stay bit-identical. The memory itself is not
        // saved: the next epoch starts with a reset, so resume
        // re-derives it. Boundaries at the final epoch are skipped —
        // there is nothing left to resume into.
        if let (Some(n), Some(dir)) = (cfg.checkpoint_every, cfg.checkpoint_dir.as_ref()) {
            let units = epoch + 1;
            if units % n == 0 && units < cfg.epochs {
                let store = crate::recover::CheckpointStore::open(dir, cfg.checkpoint_retain)
                    .unwrap_or_else(|e| panic!("checkpoint dir {dir}: {e}"));
                let ckpt = TrainCheckpoint {
                    fingerprint: fingerprint(model_cfg, cfg),
                    units_done: units,
                    iteration,
                    events_trained,
                    weights: model.params.flatten_weights(),
                    adam_t: adam.steps(),
                    adam_state: adam.flatten_state(),
                    loss_history: result.loss_history.clone(),
                    convergence: result.convergence.clone(),
                    static_table: static_mem.as_ref().map(|s| s.table().clone()),
                    memories: Vec::new(),
                    start_turns: Vec::new(),
                };
                store
                    .save_train(&ckpt)
                    .unwrap_or_else(|e| panic!("checkpoint save unit {units}: {e}"));
            }
        }
    }

    result.wall_secs = start.elapsed().as_secs_f64();
    // Per-layer share of the embed stack inside compute_secs.
    result
        .timing
        .absorb_layer_secs(&model.layer_embed_secs(), 1.0);
    result.timing.absorb_kernels(
        &(disttgl_tensor::timing::snapshot() - kernels0 - eval_kernels),
        1.0,
    );
    // Throughput counts training time only — "DistTGL only accelerates
    // training" (§4.0.1), so evaluation passes are excluded.
    result.throughput_events_per_sec =
        events_trained as f64 / (result.wall_secs - eval_secs).max(1e-9);

    // The prefetch worker holds a handle to the shared memory; retire
    // it before reclaiming sole ownership.
    drop(prefetcher);
    let memory = Arc::try_unwrap(memory)
        .unwrap_or_else(|arc| panic!("{} live memory handles", Arc::strong_count(&arc)))
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());

    // Final test: continue memory through validation, then test.
    let mut test_mem = memory.clone();
    if val_end > train_end {
        crate::eval::replay_memory(
            &model,
            model_cfg,
            dataset,
            csr.as_ref(),
            &mut test_mem,
            static_mem.as_ref(),
            train_end..val_end,
            cfg.local_batch,
        );
    }
    let test_end = dataset
        .graph
        .num_events()
        .min(val_end.saturating_add(cfg.eval_max_events));
    let test = evaluate(
        &model,
        model_cfg,
        dataset,
        csr.as_ref(),
        &mut test_mem,
        static_mem.as_ref(),
        val_end..test_end,
        cfg.local_batch,
        cfg.eval_negs,
        cfg.seed ^ 0x7e57,
    );
    result.test_metric = test.metric;
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
