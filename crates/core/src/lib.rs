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
//!   single-GPU semantics, also the correctness oracle for schedules
//!   and for the pipelined executor);
//! * [`train_single_pipelined`] — the same semantics with mini-batch
//!   preparation overlapped behind compute;
//! * [`baseline`] — TGN- and TGL-style baselines for Figures 1 and 12;
//! * [`evaluate`] — MRR / F1-micro evaluation;
//! * [`InferenceEngine`] — the task-agnostic, gradient-free forward
//!   walk (memory gather → folded GRU → L-layer attention → decoder)
//!   shared by evaluation and serving;
//! * [`serve`] — the streaming serving plane: a [`serve::ServeSession`]
//!   ingests live events into an appendable adjacency + live node
//!   memory and answers micro-batched link-score/embedding queries,
//!   bit-identical to [`evaluate`]'s offline replay.
//!
//! ## The pipelined batch-prefetch executor
//!
//! Mini-batch preparation decomposes into a **memory-independent phase
//! 1** (neighbor sampling over the immutable T-CSR, negative slicing,
//! edge-feature and label gathers — [`BatchPreparer::prepare_static`])
//! and a **memory-dependent phase 2** (the single serialized
//! node-memory row gather — [`BatchPreparer::finish`]). Phase 1 of
//! batch *t + 1* runs on a [`BatchPrefetcher`] worker thread while the
//! trainer computes batch *t* (double buffering: exactly one request
//! in flight). Phase 2 must observe batch *t*'s `MemoryWrite`; the
//! single-GPU executor satisfies that *and* still overlaps the gather
//! through **eager-write scheduling** — the write exists right after
//! the forward pass ([`TgnModel::train_step_eager_write`]), is applied
//! immediately (nothing reads memory in between), and the worker then
//! gathers batch *t + 1*'s rows during the backward pass, exactly. The
//! distributed trainer prefetches phase 1 per lane and overlaps phase
//! 2 through the memory daemon's **versioned service**
//! (`TrainConfig::speculative_gather`, default on): the moment phase 1
//! lands a lane posts a speculative out-of-turn gather, and its
//! serialized Acquire slot only pays the fused delta repair of rows
//! written since — bit-identical by the version contract (see
//! `disttgl_mem::daemon` and `tests/daemon_overlap_equivalence.rs`).
//! See [`pipeline`] for the full architecture notes and
//! `tests/pipeline_equivalence.rs` for the bit-identity proof against
//! the sequential oracle.

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
pub use pipeline::{BatchPrefetcher, PrefetchRequest, PrefetchedBatch, SharedMemory};
pub use recover::{
    train_supervised, CheckpointStore, RecoveryReport, RetryPolicy, SuperviseError, SupervisedRun,
};
pub use sched::{GroupSchedule, StepPlan};
pub use single::{
    train_single, train_single_pipelined, train_single_pipelined_traced, train_single_traced,
};
pub use static_mem::StaticMemory;
