//! # disttgl-core
//!
//! The DistTGL training system (paper §3): the TGN-attn model enhanced
//! with static node memory, the three parallel training strategies
//! (mini-batch × epoch × memory parallelism), the optimal-configuration
//! planner, and the distributed training loop that wires them to the
//! memory daemon (`disttgl-mem`) and the simulated cluster
//! (`disttgl-cluster`).
//!
//! Entry points:
//! * [`TrainConfig`] / [`ParallelConfig`] / [`plan`] — configure a run;
//! * [`train_distributed`] — the DistTGL trainer (any `i × j × k`),
//!   with pipelined batch prefetch on by default
//!   (`TrainConfig::pipeline_prefetch`);
//! * [`train_single`] — the sequential reference trainer (exact
//!   single-GPU semantics, also the correctness oracle for schedules);
//!   [`train_single_traced`] also returns its final training memory;
//! * [`baseline`] — the TGN-style baseline for Figures 1 and 12;
//! * [`evaluate`] — MRR / F1-micro evaluation;
//! * [`InferenceEngine`] — the task-agnostic, gradient-free forward
//!   walk (memory gather → folded GRU → L-layer attention → decoder)
//!   shared by evaluation and serving;
//! * [`serve`] — the streaming serving plane: a [`serve::ServeSession`]
//!   ingests live events into an appendable adjacency + live node
//!   memory and answers micro-batched link-score/embedding queries,
//!   bit-identical to [`evaluate`]'s offline replay.
//!
//! Every trainer runs one protocol around its step loop — split,
//! static-memory pre-train, negative store, boundary validation,
//! checkpoints, final test — so `train_distributed` at 1×1×1
//! reproduces `train_single` bit for bit.
//!
//! ## The pipelined batch-prefetch executor
//!
//! Mini-batch preparation decomposes into a **memory-independent phase
//! 1** (neighbor sampling over the immutable T-CSR, negative slicing,
//! edge-feature and label gathers — [`BatchPreparer::prepare_static`])
//! and a **memory-dependent phase 2** (the single serialized
//! node-memory row gather — [`BatchPreparer::finish`]). In
//! `train_distributed`, phase 1 of a lane's next batch runs on a
//! [`BatchPrefetcher`] worker thread while the lane computes (double
//! buffering: exactly one request in flight), and phase 2 overlaps
//! through the memory daemon's **versioned service**
//! (`TrainConfig::speculative_gather`, default on): the moment phase 1
//! lands a lane posts a speculative out-of-turn gather, and its
//! serialized Acquire slot only pays the in-place repair of rows
//! written since — bit-identical by the version contract (see
//! `disttgl_mem::daemon` and `tests/daemon_overlap_equivalence.rs`).
//! See [`pipeline`] for the full architecture notes and
//! `tests/pipeline_equivalence.rs` for the bit-identity proof against
//! the non-prefetching trainer.

pub mod baseline;
mod batch;
pub mod checkpoint;
mod config;
mod dist;
mod engine;
mod eval;
mod metrics;
mod model;
pub mod pipeline;
mod protocol;
pub mod recover;
mod sched;
pub mod serve;
mod single;
mod static_mem;

pub use checkpoint::{CheckpointError, ServeCheckpoint, TrainCheckpoint};
pub use serve::{
    ConcurrentOptions, ConcurrentServe, ConcurrentStats, EventFault, IngestError, ReaderContext,
    ServeError, SnapshotAnswer, SnapshotDrift,
};

pub use batch::{
    frontier_sizes, occurrence_nodes, occurrence_rows, BatchPreparer, MemoryAccess, NegativePart,
    PositivePart, PreparedBatch, ReadoutIndex, ReadoutView, StaticBatch,
};
pub use config::{
    plan, plan_from_graph, CombPolicy, ConfigError, ModelConfig, ParallelConfig, PlannerInput,
    StalenessCompensation, TrainConfig,
};
pub use dist::train_distributed;
pub use engine::{InferenceEngine, PartEmbedding, PartRef};
pub use eval::{evaluate, replay_memory, EvalResult};
pub use metrics::{
    AbortCause, AbortReport, ConvergencePoint, LatencyHistogram, LatencySummary, RunResult,
    TimingBreakdown,
};
pub use model::{StepOutput, TgnModel};
pub use pipeline::{BatchPrefetcher, PrefetchRequest};
pub use recover::{
    train_supervised, CheckpointStore, RecoveryReport, RetryPolicy, SuperviseError, SupervisedRun,
};
pub use sched::{GroupSchedule, StepPlan};
pub use single::{train_single, train_single_traced};
pub use static_mem::StaticMemory;
