//! Model/training configuration and the optimal-configuration planner
//! of paper §3.2.4.

use disttgl_cluster::ClusterSpec;
use disttgl_graph::{capture, TemporalGraph};
use serde::{Deserialize, Serialize};

/// The `COMB` function of Eq. 8: how multiple mails generated for the
/// same node within one batch collapse into the single stored mail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CombPolicy {
    /// Keep the most recent mail (the TGN-attn choice the paper uses).
    #[default]
    MostRecent,
    /// Average the batch's mails per node, timestamped at the latest
    /// event (the TGN paper's "mean" message aggregator — kept here as
    /// an ablation of the information-loss trade-off).
    Mean,
}

/// TGN-attn hyper-parameters (§4.0.1 defaults, scaled down by the
/// experiment harness where noted).
///
/// No longer `Copy`: `neighbor_fanouts` is a per-hop vector, so
/// configs are `Clone`d explicitly where they used to be copied.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Node-memory width `d_mem` (paper: 100).
    pub d_mem: usize,
    /// Time-encoding width (paper follows TGAT: 100).
    pub d_time: usize,
    /// Edge-feature width (dataset-dependent).
    pub d_edge: usize,
    /// Embedding width out of the attention combine layer.
    pub d_emb: usize,
    /// Supporting neighbors per root (paper: 10) — the hop-0 fanout
    /// when `neighbor_fanouts` is empty.
    pub n_neighbors: usize,
    /// Temporal-attention layers in the embedding stack (DistTGL fixes
    /// this to 1; TGL-style multi-layer models use ≥ 2). Layer 1
    /// attends over the hop-0 frontier, layer ℓ folds hop ℓ − 1 in.
    pub n_layers: usize,
    /// Per-hop neighbor fanouts, `neighbor_fanouts[d]` supporting
    /// nodes per hop-`d` frontier node. Empty (the default) means
    /// `[n_neighbors; n_layers]`. When non-empty its length must equal
    /// `n_layers`.
    pub neighbor_fanouts: Vec<usize>,
    /// Whether the time encoder's ω/φ are trained.
    pub learnable_time: bool,
    /// Enables the static node memory of §3.1.
    pub static_memory: bool,
    /// Output classes for edge classification (0 = link prediction).
    pub num_classes: usize,
    /// The batched-mail combination policy (Eq. 8).
    pub comb: CombPolicy,
    /// Deduplicate memory-readout rows before the GRU update: phase 2
    /// gathers one row per *unique* node of each batch part, the GRU
    /// runs over the folded block, and `ŝ` is expanded back to
    /// occurrence order only where the attention layer consumes it.
    /// Forward outputs are bit-identical to the per-occurrence path
    /// (the GRU is a pure per-row function); backward sums occurrence
    /// gradients per unique node in ascending occurrence order before
    /// the GRU backward, so parameter gradients match the
    /// per-occurrence oracle up to float summation order (see
    /// `core::batch` module docs and `tests/dedup_equivalence.rs`).
    /// On by default; disable to run the per-occurrence correctness
    /// oracle.
    pub dedup_readout: bool,
    /// Store node memory and mails as bf16 instead of f32: halves the
    /// resident store and the daemon's read/write payload bytes at a
    /// bounded ≤2⁻⁸ relative precision cost per element (see
    /// `disttgl_mem::state` and `disttgl_tensor::bf16`). **Recoverable,
    /// not exact**: training curves and eval metrics shift slightly
    /// (BENCH_kernels.json measures the MRR/F1 deltas vs the f32
    /// oracle across seeds); the f32 default stays bit-exact against
    /// every equivalence suite. Off by default.
    pub quantized_memory: bool,
}

impl ModelConfig {
    /// Paper-default shapes for a link-prediction dataset with
    /// `d_edge`-wide edge features.
    pub fn paper_default(d_edge: usize) -> Self {
        Self {
            d_mem: 100,
            d_time: 100,
            d_edge,
            d_emb: 100,
            n_neighbors: 10,
            n_layers: 1,
            neighbor_fanouts: Vec::new(),
            learnable_time: false,
            static_memory: true,
            num_classes: 0,
            comb: CombPolicy::default(),
            dedup_readout: true,
            quantized_memory: false,
        }
    }

    /// CPU-friendly shapes for the experiment harness (≈1/4 width;
    /// keeps curve shapes while cutting FLOPs ~16×).
    pub fn compact(d_edge: usize) -> Self {
        Self {
            d_mem: 32,
            d_time: 16,
            d_edge,
            d_emb: 32,
            n_neighbors: 10,
            n_layers: 1,
            neighbor_fanouts: Vec::new(),
            learnable_time: false,
            static_memory: true,
            num_classes: 0,
            comb: CombPolicy::default(),
            dedup_readout: true,
            quantized_memory: false,
        }
    }

    /// Switches the head to `classes`-way multi-label classification.
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.num_classes = classes;
        self
    }

    /// Disables static node memory (the §3.1 ablation).
    pub fn without_static_memory(mut self) -> Self {
        self.static_memory = false;
        self
    }

    /// Disables readout deduplication — the per-occurrence correctness
    /// oracle the folded path is tested against.
    pub fn without_dedup_readout(mut self) -> Self {
        self.dedup_readout = false;
        self
    }

    /// Sets the embedding stack depth, keeping `n_neighbors` as the
    /// fanout of every hop (the TGL-style default).
    pub fn with_layers(mut self, n_layers: usize) -> Self {
        assert!(n_layers >= 1, "the model needs at least one layer");
        self.n_layers = n_layers;
        self.neighbor_fanouts = Vec::new();
        self
    }

    /// Sets both the stack depth and the per-hop fanouts
    /// (`n_layers = fanouts.len()`).
    pub fn with_fanouts(mut self, fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "the model needs at least one hop");
        self.n_layers = fanouts.len();
        self.neighbor_fanouts = fanouts;
        self
    }

    /// The effective per-hop fanouts: `neighbor_fanouts` when set,
    /// otherwise `n_neighbors` repeated for every layer.
    ///
    /// # Panics
    /// Panics if `neighbor_fanouts` is non-empty with a length other
    /// than `n_layers`, or if any entry (or `n_neighbors`) is 0.
    pub fn fanouts(&self) -> Vec<usize> {
        assert!(self.n_layers >= 1, "the model needs at least one layer");
        let fanouts = if self.neighbor_fanouts.is_empty() {
            vec![self.n_neighbors; self.n_layers]
        } else {
            assert_eq!(
                self.neighbor_fanouts.len(),
                self.n_layers,
                "neighbor_fanouts length must equal n_layers"
            );
            self.neighbor_fanouts.clone()
        };
        assert!(
            fanouts.iter().all(|&k| k >= 1),
            "every hop fanout must be >= 1"
        );
        fanouts
    }

    /// Enables the bf16 memory/mail representation (halved store and
    /// daemon payload bytes; recoverable-precision trade-off).
    pub fn with_quantized_memory(mut self) -> Self {
        self.quantized_memory = true;
        self
    }

    /// Builds the node-memory state in the representation this config
    /// selects — the single construction point every trainer, server,
    /// and evaluator routes through so `quantized_memory` takes effect
    /// everywhere at once.
    pub fn new_memory(&self, num_nodes: usize) -> disttgl_mem::MemoryState {
        if self.quantized_memory {
            disttgl_mem::MemoryState::new_quantized(num_nodes, self.d_mem, self.mail_dim())
        } else {
            disttgl_mem::MemoryState::new(num_nodes, self.d_mem, self.mail_dim())
        }
    }

    /// Mail width: `{s_u || s_v || Φ || e_uv}` (Eq. 1).
    pub fn mail_dim(&self) -> usize {
        2 * self.d_mem + self.d_time + self.d_edge
    }
}

/// The `i × j × k` parallel training configuration (§3.2.4):
/// `i` mini-batch × `j` epoch × `k` memory parallelism,
/// `i·j·k = p·q` trainers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// GPUs computing each global mini-batch together.
    pub i: usize,
    /// Epochs trained in parallel per memory replica.
    pub j: usize,
    /// Node-memory replicas.
    pub k: usize,
}

impl ParallelConfig {
    /// Creates a config; `1×1×1` is the single-GPU baseline.
    pub fn new(i: usize, j: usize, k: usize) -> Self {
        assert!(
            i >= 1 && j >= 1 && k >= 1,
            "parallelism factors must be >= 1"
        );
        Self { i, j, k }
    }

    /// Single-GPU baseline.
    pub fn single() -> Self {
        Self::new(1, 1, 1)
    }

    /// Total trainer count.
    pub fn world(&self) -> usize {
        self.i * self.j * self.k
    }

    /// Decomposes a global rank into `(k-group, j-subgroup, i-lane)`;
    /// ranks are laid out k-major so that each memory group's trainers
    /// are contiguous (and therefore land on as few machines as
    /// possible — the `k ≥ p` placement rule).
    pub fn decompose(&self, rank: usize) -> (usize, usize, usize) {
        assert!(rank < self.world());
        let group = rank / (self.i * self.j);
        let within = rank % (self.i * self.j);
        (group, within / self.i, within % self.i)
    }
}

/// Hardware/task inputs to the planner (§3.2.4).
#[derive(Clone, Copy, Debug)]
pub struct PlannerInput {
    /// The cluster (`p` machines × `q` GPUs).
    pub spec: ClusterSpec,
    /// Largest global batch size the task tolerates (from the
    /// missing-information threshold; see [`plan_from_graph`]).
    pub max_global_batch: usize,
    /// Batch size at which one GPU saturates (hardware property).
    pub gpu_saturation_batch: usize,
    /// Node-memory replicas each machine's main memory can hold.
    pub replicas_per_machine: usize,
}

/// Chooses `(i, j, k)` per the paper's heuristic: `i` from batch-size
/// limits, then `k` as large as the memory budget allows (memory
/// parallelism is always preferred, §3.2.4), then `j` fills the rest.
///
/// Reproduces the worked example: 4×8 GPUs, max batch 3200, saturation
/// 1600, 2 replicas/machine → `2 × 2 × 8`.
pub fn plan(input: &PlannerInput) -> ParallelConfig {
    let world = input.spec.world();
    let p = input.spec.machines;

    // i: enough GPUs per global batch to keep each local batch at the
    // saturation point, capped by what divides the world.
    let want_i = (input.max_global_batch / input.gpu_saturation_batch).max(1);
    let mut i = want_i.min(world);
    while !world.is_multiple_of(i) {
        i -= 1;
    }

    // k: as many replicas as memory allows, at least p (the only
    // strategy with no cross-machine node-memory sync), dividing the
    // remaining world.
    let per_group = world / i;
    let budget = (p * input.replicas_per_machine).min(per_group);
    let mut k = budget.max(1);
    while !per_group.is_multiple_of(k) {
        k -= 1;
    }
    if k < p && per_group >= p {
        // Memory constraint conflicts with the k ≥ p placement rule;
        // prefer placement (the paper's hard constraint) if divisible.
        let mut k2 = p;
        while !per_group.is_multiple_of(k2) && k2 < per_group {
            k2 += 1;
        }
        if per_group.is_multiple_of(k2) {
            k = k2;
        }
    }

    let j = per_group / k;
    ParallelConfig::new(i, j, k)
}

/// Planner front-end that derives `max_global_batch` from the dataset
/// itself via the captured-events threshold (Fig 8 analysis): the
/// largest power-of-two batch whose missing-information fraction stays
/// within `missing_threshold`.
pub fn plan_from_graph(
    graph: &TemporalGraph,
    spec: ClusterSpec,
    missing_threshold: f64,
    gpu_saturation_batch: usize,
    replicas_per_machine: usize,
) -> (ParallelConfig, usize) {
    let candidates: Vec<usize> = (6..=14).map(|e| 1usize << e).collect();
    let max_batch = capture::max_batch_size_for_threshold(graph, missing_threshold, &candidates);
    let cfg = plan(&PlannerInput {
        spec,
        max_global_batch: max_batch,
        gpu_saturation_batch,
        replicas_per_machine,
    });
    (cfg, max_batch)
}

/// Full training-run configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Parallelism layout.
    pub parallel: ParallelConfig,
    /// Events per *local* batch (per trainer lane; the global batch is
    /// `i ×` this — paper §4.0.1 uses 600 local on the small datasets).
    pub local_batch: usize,
    /// Single-GPU-equivalent epochs: total traversals of the training
    /// events (paper: 100 small / 10 GDELT). The per-trainer sweep
    /// count is `epochs / (j·k)`, matching "the number of training
    /// iterations for x GPUs will be 1/x compared to a single GPU".
    pub epochs: usize,
    /// Base learning rate at local batch 600; scaled linearly with the
    /// global batch size (§4.0.1).
    pub base_lr: f32,
    /// Negatives per positive during training.
    pub train_negs: usize,
    /// Pre-sampled negative groups (paper: 10).
    pub neg_groups: usize,
    /// Negatives per positive at evaluation (paper: 49).
    pub eval_negs: usize,
    /// Run validation at every sweep boundary (costs one forward pass
    /// over the validation split).
    pub eval_every_epoch: bool,
    /// Cap on validation/test events per evaluation pass. The paper
    /// uses the same trick on GDELT ("a randomly selected chunk of
    /// 1000 consecutive mini-batches") because evaluation is not what
    /// DistTGL accelerates.
    pub eval_max_events: usize,
    /// RNG seed for weights, negatives, and schedules.
    pub seed: u64,
    /// Overlap phase-1 batch preparation (sampling, negative slicing,
    /// feature gathers) with compute on a per-trainer prefetch thread
    /// in `train_distributed`. Bit-identical results either way — the
    /// memory-dependent gather stays in the serialized turn order —
    /// so this is on by default; disable to measure the overlap or to
    /// halve the thread count.
    pub pipeline_prefetch: bool,
    /// Overlap the distributed trainer's **phase-2 memory gather**
    /// with compute: as soon as a lane's phase-1 prefetch lands
    /// (during its epoch-parallel continue passes), it posts a
    /// speculative out-of-turn gather to the memory daemon; at its
    /// Acquire turn it fetches only the delta of rows written since
    /// (version-vector protocol, see `disttgl_mem::daemon`) and
    /// repairs the block in place. Bit-identical to the serialized
    /// read by the version contract (`tests/daemon_overlap_equivalence.rs`),
    /// so on by default; requires `pipeline_prefetch` (no early node
    /// list otherwise) and falls back to the serialized read whenever
    /// the speculation window didn't open.
    pub speculative_gather: bool,
    /// Save a training checkpoint every `n` single-GPU-equivalent
    /// epochs (sequential) / every `n` schedule units = `j·k` epochs
    /// (distributed). `None` disables checkpointing. Checkpoints land
    /// at serialized-memory-epoch boundaries — the crash-consistent
    /// points of the DistTGL schedule — so a resumed run replays
    /// bit-identically (see `core::checkpoint`).
    pub checkpoint_every: Option<usize>,
    /// Directory for periodic checkpoints (`ckpt_XXXX.bin` files).
    /// Required when `checkpoint_every` is set.
    pub checkpoint_dir: Option<String>,
    /// Keep at most this many checkpoint files in `checkpoint_dir`
    /// (last-k retention, GC'd by `core::recover::CheckpointStore`
    /// after every save — though never past the newest *valid* file).
    /// `None` keeps every checkpoint.
    pub checkpoint_retain: Option<usize>,
    /// Resume training from this checkpoint file instead of starting
    /// fresh. The checkpoint's config fingerprint must match (same
    /// model shapes, parallel layout, seed, batch — everything that
    /// shapes the training trajectory).
    pub resume_from: Option<String>,
    /// Deadline (milliseconds) for distributed trainers' memory-daemon
    /// waits; expiry surfaces as a structured timeout error instead of
    /// hanging the lane forever on a crashed daemon. `None` waits
    /// until daemon shutdown.
    pub daemon_deadline_ms: Option<u64>,
    /// Deterministic fault-injection plan (tests / chaos runs). `None`
    /// or an empty plan injects nothing.
    pub faults: Option<disttgl_cluster::FaultPlan>,
    /// **Bounded-staleness training** (MSPipe-style, the repo's first
    /// intentional exactness/speed trade — opt-in, `None` = exact):
    /// when a lane's speculative readout comes back at its Acquire
    /// turn, rows whose version lag is within `k` pending writes keep
    /// their stale value instead of paying the fused delta repair;
    /// rows beyond `k` (or tagged before an epoch reset) still repair
    /// exactly, so staleness is bounded by construction. `Some(0)`
    /// runs the bounded machinery but admits nothing — bit-identical
    /// to the exact oracle (pinned by `tests/staleness_equivalence.rs`).
    /// Requires `speculative_gather` (validated by
    /// [`TrainConfig::validate`]). Admission at `k > 0` depends on
    /// daemon service timing and is **not** run-deterministic; the
    /// contract is per-row: every admitted value is within `k` writes
    /// of the serialized read.
    pub staleness_bound: Option<u64>,
    /// Mitigation applied to rows admitted stale (only meaningful with
    /// `staleness_bound > 0`).
    pub staleness_compensation: StalenessCompensation,
}

/// Staleness-aware mitigation for rows admitted under
/// [`TrainConfig::staleness_bound`] (MSPipe §"staleness mitigation").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StalenessCompensation {
    /// Use the stale row as-is.
    #[default]
    None,
    /// Blend the stale memory vector toward the node's own freshest
    /// mailbox snapshot (the first `d_mem` chunk of its mail row —
    /// the ŝ captured at its last event): `s ← (s + ŝ_mail) / 2`.
    /// Zero extra daemon traffic; timestamps untouched.
    SimilarityBlend,
}

/// Typed rejection of an invalid [`TrainConfig`] (surfaced by the CLI
/// and asserted by every trainer before it builds anything).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `staleness_bound` set while `speculative_gather` (or its
    /// prerequisite `pipeline_prefetch`) is off — there is no
    /// speculative readout to admit stale rows from.
    StalenessRequiresSpeculation,
    /// A compensation variant other than `None` set without a
    /// `staleness_bound` — there are no admitted-stale rows to
    /// compensate.
    CompensationRequiresStalenessBound,
    /// `checkpoint_every` is `Some(0)` — a checkpoint period must be at
    /// least one unit.
    ZeroCheckpointPeriod,
    /// `checkpoint_retain` is `Some(0)` — retention must keep at least
    /// one checkpoint.
    ZeroCheckpointRetention,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::StalenessRequiresSpeculation => write!(
                f,
                "staleness_bound requires speculative_gather (and pipeline_prefetch): \
                 bounded staleness admits rows from the speculative readout"
            ),
            ConfigError::CompensationRequiresStalenessBound => write!(
                f,
                "staleness_compensation requires staleness_bound: \
                 there are no admitted-stale rows to compensate without a bound"
            ),
            ConfigError::ZeroCheckpointPeriod => {
                write!(f, "checkpoint_every must be at least 1")
            }
            ConfigError::ZeroCheckpointRetention => {
                write!(f, "checkpoint_retain must keep at least one checkpoint")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl TrainConfig {
    /// Paper-like defaults for a given parallel layout.
    pub fn new(parallel: ParallelConfig) -> Self {
        Self {
            parallel,
            local_batch: 600,
            epochs: 100,
            base_lr: 1e-3,
            train_negs: 1,
            neg_groups: 10,
            eval_negs: 49,
            eval_every_epoch: true,
            eval_max_events: usize::MAX,
            seed: 42,
            pipeline_prefetch: true,
            speculative_gather: true,
            checkpoint_every: None,
            checkpoint_dir: None,
            checkpoint_retain: None,
            resume_from: None,
            daemon_deadline_ms: None,
            faults: None,
            staleness_bound: None,
            staleness_compensation: StalenessCompensation::None,
        }
    }

    /// Opts into bounded-staleness training: skip the Acquire-slot
    /// delta repair for rows within `k` pending writes. `k = 0` keeps
    /// the run bit-identical to the exact oracle (see the
    /// `staleness_bound` field docs for the contract).
    pub fn staleness_bound(mut self, k: u64) -> Self {
        self.staleness_bound = Some(k);
        self
    }

    /// Selects the mitigation for admitted-stale rows; requires
    /// [`TrainConfig::staleness_bound`].
    pub fn with_staleness_compensation(mut self, c: StalenessCompensation) -> Self {
        self.staleness_compensation = c;
        self
    }

    /// Validates cross-field constraints, returning the typed
    /// [`ConfigError`] the CLI surfaces. Every trainer calls this
    /// before building anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointPeriod);
        }
        if self.checkpoint_retain == Some(0) {
            return Err(ConfigError::ZeroCheckpointRetention);
        }
        if self.staleness_bound.is_some() && !(self.speculative_gather && self.pipeline_prefetch) {
            return Err(ConfigError::StalenessRequiresSpeculation);
        }
        if self.staleness_compensation != StalenessCompensation::None
            && self.staleness_bound.is_none()
        {
            return Err(ConfigError::CompensationRequiresStalenessBound);
        }
        Ok(())
    }

    /// Enables periodic checkpoints: one every `n` epochs, written
    /// into `dir`.
    pub fn checkpoint_every(mut self, n: usize, dir: &str) -> Self {
        assert!(n >= 1, "checkpoint period must be >= 1");
        self.checkpoint_every = Some(n);
        self.checkpoint_dir = Some(dir.to_string());
        self
    }

    /// Bounds the checkpoint directory to the newest `k` files
    /// (retention GC; see `core::recover::CheckpointStore`).
    pub fn retain_checkpoints(mut self, k: usize) -> Self {
        assert!(k >= 1, "retention must keep at least one checkpoint");
        self.checkpoint_retain = Some(k);
        self
    }

    /// Resumes from a checkpoint file.
    pub fn resume_from(mut self, path: &str) -> Self {
        self.resume_from = Some(path.to_string());
        self
    }

    /// Bounds memory-daemon waits (fault tolerance).
    pub fn with_daemon_deadline_ms(mut self, ms: u64) -> Self {
        self.daemon_deadline_ms = Some(ms);
        self
    }

    /// Injects a deterministic fault plan.
    pub fn with_faults(mut self, plan: disttgl_cluster::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The configuration fingerprint recorded in checkpoints: the
    /// config with the checkpoint/resume bookkeeping *and* the fault
    /// plane cleared. Checkpoint placement never blocks "may this run
    /// resume", and neither does fault scaffolding: a checkpoint only
    /// exists when no fault fired at or before its boundary, the
    /// trajectory up to that boundary is bit-identical with or without
    /// later faults, and delayed speculation is bit-identical by the
    /// version contract — so a crashed run's checkpoint legitimately
    /// resumes under a fault-free config (the recovery story).
    pub fn fingerprint_config(&self) -> TrainConfig {
        let mut c = self.clone();
        c.checkpoint_every = None;
        c.checkpoint_dir = None;
        c.checkpoint_retain = None;
        c.resume_from = None;
        c.daemon_deadline_ms = None;
        c.faults = None;
        c
    }

    /// Learning rate scaled linearly with the global batch size
    /// (relative to the paper's 600-event reference batch).
    pub fn scaled_lr(&self) -> f32 {
        let global = (self.parallel.i * self.local_batch) as f32;
        self.base_lr * global / 600.0
    }

    /// Number of full sweeps each trainer performs:
    /// `epochs / (j·k)`, at least 1. One sweep of one memory group
    /// traverses every training event `j` times, and there are `k`
    /// groups, so one round of all trainers = `j·k` single-GPU epochs.
    pub fn sweeps(&self) -> usize {
        (self.epochs / (self.parallel.j * self.parallel.k)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_staleness_requires_speculation() {
        let mut cfg = TrainConfig::new(ParallelConfig::new(1, 1, 2)).staleness_bound(2);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.speculative_gather = false;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::StalenessRequiresSpeculation)
        );
        cfg.speculative_gather = true;
        cfg.pipeline_prefetch = false;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::StalenessRequiresSpeculation)
        );
    }

    #[test]
    fn validate_compensation_requires_bound() {
        let cfg = TrainConfig::new(ParallelConfig::new(1, 1, 2))
            .with_staleness_compensation(StalenessCompensation::SimilarityBlend);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::CompensationRequiresStalenessBound)
        );
        let cfg = cfg.staleness_bound(1);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_checkpoint_period_and_retention() {
        // The public fields bypass the builders' asserts.
        let mut cfg = TrainConfig::new(ParallelConfig::single()).checkpoint_every(1, "ckpt");
        assert_eq!(cfg.validate(), Ok(()));
        cfg.checkpoint_every = Some(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCheckpointPeriod));
        cfg.checkpoint_every = Some(2);
        cfg.checkpoint_retain = Some(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCheckpointRetention));
        cfg.checkpoint_retain = Some(1);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn fingerprint_keeps_staleness_fields() {
        // Staleness shapes the training trajectory, so unlike fault
        // scaffolding it must stay in the checkpoint fingerprint.
        let cfg = TrainConfig::new(ParallelConfig::new(1, 1, 2))
            .staleness_bound(3)
            .with_staleness_compensation(StalenessCompensation::SimilarityBlend);
        let fp = cfg.fingerprint_config();
        assert_eq!(fp.staleness_bound, Some(3));
        assert_eq!(
            fp.staleness_compensation,
            StalenessCompensation::SimilarityBlend
        );
    }

    #[test]
    fn paper_worked_example() {
        // §3.2.4: 4 machines × 8 GPUs, max batch 3200, saturation 1600,
        // 2 replicas per machine → i=2, k=8, j=2.
        let cfg = plan(&PlannerInput {
            spec: ClusterSpec::new(4, 8),
            max_global_batch: 3200,
            gpu_saturation_batch: 1600,
            replicas_per_machine: 2,
        });
        assert_eq!(cfg, ParallelConfig::new(2, 2, 8));
        assert_eq!(cfg.world(), 32);
    }

    #[test]
    fn small_dataset_prefers_memory_parallelism() {
        // Single machine, 8 GPUs, batch must stay tiny (600), plenty of
        // memory → pure memory parallelism 1×1×8 (the Fig 9(b) winner).
        let cfg = plan(&PlannerInput {
            spec: ClusterSpec::new(1, 8),
            max_global_batch: 600,
            gpu_saturation_batch: 600,
            replicas_per_machine: 8,
        });
        assert_eq!(cfg, ParallelConfig::new(1, 1, 8));
    }

    #[test]
    fn memory_constrained_falls_back_to_epoch_parallelism() {
        // Only 1 replica fits per machine on 1 machine → k = 1, j = 8.
        let cfg = plan(&PlannerInput {
            spec: ClusterSpec::new(1, 8),
            max_global_batch: 600,
            gpu_saturation_batch: 600,
            replicas_per_machine: 1,
        });
        assert_eq!(cfg, ParallelConfig::new(1, 8, 1));
    }

    #[test]
    fn gdelt_style_prefers_minibatch_parallelism() {
        // Huge tolerable batch → i covers the whole machine (Fig 11's
        // 8×1×1 choice on one machine).
        let cfg = plan(&PlannerInput {
            spec: ClusterSpec::new(1, 8),
            max_global_batch: 25600,
            gpu_saturation_batch: 3200,
            replicas_per_machine: 8,
        });
        assert_eq!(cfg, ParallelConfig::new(8, 1, 1));
    }

    #[test]
    fn rank_decomposition_is_k_major() {
        let p = ParallelConfig::new(2, 3, 4);
        assert_eq!(p.world(), 24);
        assert_eq!(p.decompose(0), (0, 0, 0));
        assert_eq!(p.decompose(1), (0, 0, 1));
        assert_eq!(p.decompose(2), (0, 1, 0));
        assert_eq!(p.decompose(6), (1, 0, 0));
        assert_eq!(p.decompose(23), (3, 2, 1));
    }

    #[test]
    fn world_always_preserved_by_planner() {
        for machines in [1, 2, 4] {
            for q in [1, 2, 4, 8] {
                for max_b in [600, 1200, 4800] {
                    for reps in [1, 2, 8] {
                        let cfg = plan(&PlannerInput {
                            spec: ClusterSpec::new(machines, q),
                            max_global_batch: max_b,
                            gpu_saturation_batch: 600,
                            replicas_per_machine: reps,
                        });
                        assert_eq!(
                            cfg.world(),
                            machines * q,
                            "cfg {:?} for {}x{} max_b {} reps {}",
                            cfg,
                            machines,
                            q,
                            max_b,
                            reps
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lr_scales_with_global_batch() {
        let mut tc = TrainConfig::new(ParallelConfig::new(2, 1, 1));
        tc.local_batch = 600;
        assert!((tc.scaled_lr() - 2e-3).abs() < 1e-9);
        tc.local_batch = 300;
        assert!((tc.scaled_lr() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn sweeps_keep_total_traversals_fixed() {
        let mut tc = TrainConfig::new(ParallelConfig::new(1, 2, 4));
        tc.epochs = 96;
        // j·k = 8 → 12 sweeps; each sweep = 8 single-GPU epochs of
        // traversals.
        assert_eq!(tc.sweeps(), 12);
        tc.parallel = ParallelConfig::single();
        assert_eq!(tc.sweeps(), 96);
    }

    #[test]
    fn mail_dim_formula() {
        let mc = ModelConfig::compact(12);
        assert_eq!(mc.mail_dim(), 2 * 32 + 16 + 12);
    }

    #[test]
    fn fanouts_default_to_n_neighbors_per_layer() {
        let mc = ModelConfig::compact(0);
        assert_eq!(mc.n_layers, 1);
        assert_eq!(mc.fanouts(), vec![10]);
        let deep = mc.clone().with_layers(3);
        assert_eq!(deep.fanouts(), vec![10, 10, 10]);
        let explicit = mc.with_fanouts(vec![10, 5, 2]);
        assert_eq!(explicit.n_layers, 3);
        assert_eq!(explicit.fanouts(), vec![10, 5, 2]);
    }

    #[test]
    #[should_panic(expected = "neighbor_fanouts length")]
    fn mismatched_fanout_length_panics() {
        let mut mc = ModelConfig::compact(0);
        mc.n_layers = 2;
        mc.neighbor_fanouts = vec![10];
        let _ = mc.fanouts();
    }

    #[test]
    #[should_panic(expected = "every hop fanout")]
    fn zero_fanout_rejected_by_model_config() {
        let mc = ModelConfig::compact(0).with_fanouts(vec![10, 0]);
        let _ = mc.fanouts();
    }
}
