//! The run protocol every trainer shares (paper §4).
//!
//! [`train_single`](crate::train_single),
//! [`train_distributed`](crate::train_distributed) and
//! [`baseline::train_tgn`](crate::baseline::train_tgn) differ only in
//! their step loops. Everything around the loops is defined once, here:
//! config validation, the chronological 70/15/15 split, resume, the
//! static-memory pre-train, the pre-sampled negative store, the
//! boundary validation pass, the checkpoint record, and the final
//! "replay validation, then test" pass. So their accuracy numbers are
//! comparable by construction — a 1×1×1 distributed run reproduces the
//! sequential one bit for bit.

use crate::checkpoint::{fingerprint, TrainCheckpoint};
use crate::config::{ModelConfig, TrainConfig};
use crate::eval::{evaluate, replay_memory};
use crate::metrics::{ConvergencePoint, TimingBreakdown};
use crate::model::TgnModel;
use crate::recover::CheckpointStore;
use crate::static_mem::StaticMemory;
use disttgl_data::{Dataset, NegativeStore, Task};
use disttgl_graph::TCsr;
use disttgl_mem::MemoryState;
use disttgl_nn::Adam;
use disttgl_tensor::seeded_rng;
use disttgl_tensor::timing::{self, KernelTimings};
use std::time::Instant;

/// The cores this process may run on (1 when unknown, or when pinned
/// to one core) — what executors divide into intra-op budgets.
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Everything a run builds before its step loop, plus the passes that
/// read it at the loop's boundaries.
pub(crate) struct RunSetup<'a> {
    pub(crate) dataset: &'a Dataset,
    pub(crate) model_cfg: &'a ModelConfig,
    pub(crate) cfg: &'a TrainConfig,
    pub(crate) csr: TCsr,
    /// End of the training split (exclusive).
    pub(crate) train_end: usize,
    /// End of the validation split (exclusive); the test split follows.
    pub(crate) val_end: usize,
    pub(crate) resume: Option<TrainCheckpoint>,
    pub(crate) static_mem: Option<StaticMemory>,
    /// Pre-sampled training negatives (link prediction only).
    pub(crate) store: Option<NegativeStore>,
}

impl<'a> RunSetup<'a> {
    /// The vanilla-TGN setup: validation, split and index only — no
    /// resume, no static memory, no pre-sampled negatives.
    ///
    /// # Panics
    /// Panics on an invalid `cfg` (see [`TrainConfig::validate`]).
    pub(crate) fn vanilla(
        dataset: &'a Dataset,
        model_cfg: &'a ModelConfig,
        cfg: &'a TrainConfig,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid TrainConfig: {e}"));
        let (train_end, val_end) = dataset.graph.chronological_split(0.70, 0.15);
        Self {
            dataset,
            model_cfg,
            cfg,
            csr: TCsr::build(&dataset.graph),
            train_end,
            val_end,
            resume: None,
            static_mem: None,
            store: None,
        }
    }

    /// The full DistTGL setup: [`RunSetup::vanilla`] plus the resume
    /// checkpoint, the static memory and the negative store.
    ///
    /// # Panics
    /// Panics on an invalid `cfg`, or on a `resume_from` checkpoint that
    /// fails to load or was taken under a different configuration —
    /// silently diverging from the oracle would be worse.
    pub(crate) fn new(
        dataset: &'a Dataset,
        model_cfg: &'a ModelConfig,
        cfg: &'a TrainConfig,
    ) -> Self {
        let mut setup = Self::vanilla(dataset, model_cfg, cfg);
        setup.resume = cfg.resume_from.as_ref().map(|path| {
            let ckpt = TrainCheckpoint::load(std::path::Path::new(path))
                .unwrap_or_else(|e| panic!("resume from {path}: {e}"));
            ckpt.check_fingerprint(model_cfg, cfg)
                .unwrap_or_else(|e| panic!("resume from {path}: {e}"));
            ckpt
        });
        // Pre-trained once, before the timed run (the paper pre-trains
        // separately). The saved table is bit-identical to re-running
        // the pretrain (both derive from the seed); reusing it on resume
        // just skips the pass.
        setup.static_mem = model_cfg.static_memory.then(|| {
            match setup.resume.as_ref().and_then(|c| c.static_table.clone()) {
                Some(t) => StaticMemory::from_table(t),
                None => StaticMemory::pretrain(
                    dataset,
                    model_cfg.d_mem,
                    setup.train_end,
                    10,
                    cfg.seed ^ 0x5747,
                ),
            }
        });
        setup.store = (dataset.task == Task::LinkPrediction).then(|| {
            NegativeStore::generate(
                &dataset.graph,
                setup.train_end,
                cfg.neg_groups,
                cfg.train_negs,
                cfg.seed ^ 0x4e45,
            )
        });
        setup
    }

    /// The seeded model and its optimizer, restored from the resume
    /// checkpoint when there is one. Every replica builds the same
    /// state, which is equivalent to a broadcast.
    pub(crate) fn model(&self) -> (TgnModel, Adam) {
        let mut model = TgnModel::new(self.model_cfg.clone(), &mut seeded_rng(self.cfg.seed));
        let mut adam = model.optimizer(self.cfg.scaled_lr());
        if let Some(c) = &self.resume {
            model.params.unflatten_weights(&c.weights);
            adam.load_state(c.adam_t, &c.adam_state);
        }
        (model, adam)
    }

    /// Whether the loop validates at its epoch/sweep boundaries.
    pub(crate) fn validates(&self) -> bool {
        self.cfg.eval_every_epoch && self.val_end > self.train_end
    }

    /// The boundary validation pass after boundary `unit` (0-based),
    /// `iteration` steps into the run: scores the validation split,
    /// capped at `eval_max_events`, starting from `memory` — a copy of
    /// the training memory at the boundary.
    pub(crate) fn boundary_eval(
        &self,
        model: &TgnModel,
        memory: &mut MemoryState,
        unit: usize,
        iteration: usize,
        start: Instant,
    ) -> ConvergencePoint {
        let eval_end = self
            .val_end
            .min(self.train_end.saturating_add(self.cfg.eval_max_events));
        let res = evaluate(
            model,
            self.model_cfg,
            self.dataset,
            &self.csr,
            memory,
            self.static_mem.as_ref(),
            self.train_end..eval_end,
            self.cfg.local_batch,
            self.cfg.eval_negs,
            self.cfg.seed ^ unit as u64,
        );
        ConvergencePoint {
            iteration,
            wall_secs: start.elapsed().as_secs_f64(),
            metric: res.metric,
        }
    }

    /// The final pass: continues `memory` — the training memory at the
    /// end of the run — through the validation split, then scores the
    /// test split, capped at `eval_max_events`.
    pub(crate) fn final_test(&self, model: &TgnModel, memory: &mut MemoryState) -> f64 {
        if self.val_end > self.train_end {
            replay_memory(
                model,
                self.model_cfg,
                self.dataset,
                &self.csr,
                memory,
                self.static_mem.as_ref(),
                self.train_end..self.val_end,
                self.cfg.local_batch,
            );
        }
        let test_end = self
            .dataset
            .graph
            .num_events()
            .min(self.val_end.saturating_add(self.cfg.eval_max_events));
        evaluate(
            model,
            self.model_cfg,
            self.dataset,
            &self.csr,
            memory,
            self.static_mem.as_ref(),
            self.val_end..test_end,
            self.cfg.local_batch,
            self.cfg.eval_negs,
            self.cfg.seed ^ 0x7e57,
        )
        .metric
    }

    /// Whether boundary `units` (of `total_units`) takes a periodic
    /// checkpoint. The final boundary never does: there is nothing left
    /// to resume into.
    pub(crate) fn checkpoint_due(&self, units: usize, total_units: usize) -> bool {
        self.cfg.checkpoint_dir.is_some()
            && self
                .cfg
                .checkpoint_every
                .is_some_and(|n| units.is_multiple_of(n))
            && units < total_units
    }

    /// The checkpoint record at boundary `units`, `iteration` steps into
    /// the run. `memories` are the captured replicas (none for the
    /// sequential trainer, whose epoch-start reset makes the memory
    /// derivable); each resumes at daemon turn `iteration`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn checkpoint(
        &self,
        units: usize,
        iteration: usize,
        events_trained: u64,
        model: &TgnModel,
        adam: &Adam,
        loss_history: &[f32],
        convergence: &[ConvergencePoint],
        memories: Vec<MemoryState>,
    ) -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint: fingerprint(self.model_cfg, self.cfg),
            units_done: units,
            iteration,
            events_trained,
            weights: model.params.flatten_weights(),
            adam_t: adam.steps(),
            adam_state: adam.flatten_state(),
            loss_history: loss_history.to_vec(),
            convergence: convergence.to_vec(),
            static_table: self.static_mem.as_ref().map(|s| s.table().clone()),
            start_turns: vec![iteration as u64; memories.len()],
            memories,
        }
    }

    /// The store behind `checkpoint_dir`.
    ///
    /// # Panics
    /// Panics without a `checkpoint_dir` (callers gate on
    /// [`RunSetup::checkpoint_due`]) or when the directory cannot be
    /// created.
    pub(crate) fn checkpoint_store(&self) -> CheckpointStore {
        let dir = self
            .cfg
            .checkpoint_dir
            .as_deref()
            .expect("gated on checkpoint_dir");
        CheckpointStore::open(dir, self.cfg.checkpoint_retain)
            .unwrap_or_else(|e| panic!("checkpoint dir {dir}: {e}"))
    }

    /// Persists `ckpt`. Saving is pure observation — no training state
    /// is touched — so checkpointed and plain runs stay bit-identical.
    pub(crate) fn save_checkpoint(&self, ckpt: &TrainCheckpoint) {
        self.checkpoint_store()
            .save_train(ckpt)
            .unwrap_or_else(|e| panic!("checkpoint save unit {}: {e}", ckpt.units_done));
    }
}

/// What a step loop keeps out of its training numbers: wall time spent
/// evaluating ("DistTGL only accelerates training", §4.0.1), and the
/// kernel time of those passes.
pub(crate) struct EvalClock {
    kernels0: KernelTimings,
    eval_kernels: KernelTimings,
    /// Wall seconds spent inside [`EvalClock::time`].
    pub(crate) secs: f64,
}

impl EvalClock {
    /// Starts the calling thread's kernel attribution.
    pub(crate) fn start() -> Self {
        Self {
            kernels0: timing::snapshot(),
            eval_kernels: KernelTimings::default(),
            secs: 0.0,
        }
    }

    /// Runs an evaluation pass, charging its wall and kernel time to
    /// evaluation.
    pub(crate) fn time<T>(&mut self, pass: impl FnOnce() -> T) -> T {
        let (t0, k0) = (Instant::now(), timing::snapshot());
        let out = pass();
        self.secs += t0.elapsed().as_secs_f64();
        self.eval_kernels = self.eval_kernels + (timing::snapshot() - k0);
        out
    }

    /// End-of-loop attribution into `breakdown`: the model's per-layer
    /// embed time and this thread's training kernel time.
    pub(crate) fn attribute(&self, breakdown: &mut TimingBreakdown, model: &TgnModel) {
        breakdown.absorb_layer_secs(&model.layer_embed_secs(), 1.0);
        breakdown.absorb_kernels(
            &(timing::snapshot() - self.kernels0 - self.eval_kernels),
            1.0,
        );
    }
}
