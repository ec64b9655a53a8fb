//! The one pinned surface: **every** call into the `disttgl-*` crates
//! lives in this file, so a later change to the program's public API
//! re-points the benchmark here and nowhere else. The distinct public
//! items used are listed in `README.md` ("Pinned surface"); keep that
//! list in step with the `use` lines below.
//!
//! Deliberately not used: `MemoryClient` methods, the
//! `_traced`/`_pipelined` trainer twins (daemon numbers come from
//! `RunResult.daemon_*`).

use crate::digest::Fnv;
use crate::trace::Tracer;
use disttgl_cluster::ClusterSpec;
use disttgl_core::checkpoint::{fingerprint, TrainCheckpoint};
use disttgl_core::serve::{QueryRequest, QueryResponse, ServeSession};
use disttgl_core::{
    evaluate, occurrence_rows, train_distributed, train_single, BatchPreparer, ConcurrentOptions,
    ConcurrentServe, InferenceEngine, MemoryAccess, ModelConfig, ParallelConfig, PartRef,
    ReaderContext, RunResult, TgnModel, TrainConfig,
};
use disttgl_data::{generators, NegativeStore};
use disttgl_graph::{batching, DynamicTCsr, Event, NeighborBlock, RecentNeighborSampler, TCsr};
use disttgl_mem::{MemoryReadout, MemoryState, MemoryWrite};
use disttgl_nn::{Adam, GruCell, ParamSet, TemporalAttention};
use disttgl_tensor::{kernels, seeded_rng, timing, Matrix};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

pub use disttgl_core::TgnModel as Model;
pub use disttgl_data::Dataset;

/// Slab size of the set-up (warm) ingest, as in the repo's serving
/// examples.
pub const WARM_SLAB: usize = 600;

// ---------------------------------------------------------------------
// Inputs.

/// The Wikipedia-analog dataset at `scale`, generated from `seed`.
pub fn generate(scale: f64, seed: u64) -> Dataset {
    generators::wikipedia(scale, seed)
}

/// Digest of everything a workload reads from the dataset: the event
/// log and the edge-feature table.
pub fn dataset_digest(d: &Dataset) -> Fnv {
    let mut h = Fnv::default();
    h.u64(d.graph.num_nodes() as u64);
    for e in d.graph.events() {
        h.u64(e.src as u64).u64(e.dst as u64).u64(e.eid as u64);
        h.f32s(&[e.t]);
    }
    h.f32s(d.edge_features.as_slice());
    h
}

pub fn num_events(d: &Dataset) -> usize {
    d.graph.num_events()
}

pub fn num_nodes(d: &Dataset) -> usize {
    d.graph.num_nodes()
}

/// `(src, dst)` of event `idx`.
pub fn endpoints(d: &Dataset, idx: usize) -> (u32, u32) {
    let e = &d.graph.events()[idx];
    (e.src, e.dst)
}

/// A query time after every event of the log, so that whatever has been
/// ingested supports the query.
pub fn query_time(d: &Dataset) -> f32 {
    d.graph.max_time() + 1.0
}

/// One query job: a micro-batch of link-score requests.
pub struct Job(Vec<QueryRequest>);

/// A job scoring the candidate links `pairs` as of time `t`.
pub fn link_job(pairs: &[(u32, u32)], t: f32) -> Job {
    Job(pairs
        .iter()
        .map(|&(src, dst)| QueryRequest::LinkScore { src, dst, t })
        .collect())
}

impl Job {
    /// Folds the job into an input digest.
    pub fn digest(&self, h: &mut Fnv) {
        for r in &self.0 {
            if let QueryRequest::LinkScore { src, dst, t } = *r {
                h.u64(src as u64).u64(dst as u64).f32s(&[t]);
            }
        }
    }
}

/// The compact model shape every workload uses (`static_memory` off).
pub fn model_config(d: &Dataset, fanouts: &[usize]) -> ModelConfig {
    let mut mc = ModelConfig::compact(d.edge_features.cols());
    mc.static_memory = false;
    mc.with_fanouts(fanouts.to_vec())
}

/// Events in the chronological 70 % training split.
pub fn train_events(d: &Dataset) -> usize {
    d.graph.chronological_split(0.70, 0.15).0
}

/// Consecutive slabs of at most `size` events over `range`.
pub fn slabs(range: Range<usize>, size: usize) -> Vec<Range<usize>> {
    batching::chronological_batches(range, size)
}

// ---------------------------------------------------------------------
// Training through the public entry points.

/// One training configuration of the benchmark.
#[derive(Clone)]
pub struct TrainSpec {
    pub model: ModelConfig,
    pub train: TrainConfig,
    /// `train_distributed` 1×2×1 on a 1-machine × 2-GPU cluster when
    /// set, `train_single` otherwise.
    pub distributed: bool,
}

pub fn train_spec(
    d: &Dataset,
    fanouts: &[usize],
    batch: usize,
    epochs: usize,
    seed: u64,
    distributed: bool,
) -> TrainSpec {
    let parallel = if distributed {
        ParallelConfig::new(1, 2, 1)
    } else {
        ParallelConfig::single()
    };
    let mut train = TrainConfig::new(parallel);
    train.local_batch = batch;
    train.epochs = epochs;
    train.eval_every_epoch = false;
    train.eval_negs = 9;
    train.eval_max_events = 300;
    train.seed = seed;
    TrainSpec {
        model: model_config(d, fanouts),
        train,
        distributed,
    }
}

/// What the benchmark reads from a `RunResult` (program-reported).
pub struct TrainRun {
    pub losses: Vec<f32>,
    pub test_metric: f64,
    pub aborted: bool,
    pub memory_checksums: Vec<u64>,
    /// The trainer's own wall clock of its step loop.
    pub wall_s: f64,
    pub prep_s: f64,
    pub mem_wait_s: f64,
    pub compute_s: f64,
    pub allreduce_s: f64,
    pub matmul_s: f64,
    pub gru_s: f64,
    pub softmax_s: f64,
    pub gather_s: f64,
    pub embed_layer_s: Vec<f64>,
    pub comm_bytes: u64,
    pub daemon_rows_read: u64,
    pub daemon_spec_rows: u64,
    pub daemon_delta_rows: u64,
    pub daemon_payload_bytes: u64,
}

impl From<RunResult> for TrainRun {
    fn from(r: RunResult) -> Self {
        let t = r.timing;
        Self {
            losses: r.loss_history,
            test_metric: r.test_metric,
            aborted: r.aborted,
            memory_checksums: r.memory_checksums,
            wall_s: r.wall_secs,
            prep_s: t.prep_secs,
            mem_wait_s: t.mem_wait_secs,
            compute_s: t.compute_secs,
            allreduce_s: t.allreduce_secs,
            matmul_s: t.matmul_secs,
            gru_s: t.gru_secs,
            softmax_s: t.softmax_secs,
            gather_s: t.gather_secs,
            embed_layer_s: t.embed_layer_secs,
            comm_bytes: r.comm_bytes,
            daemon_rows_read: r.daemon_rows_read,
            daemon_spec_rows: r.daemon_spec_rows,
            daemon_delta_rows: r.daemon_delta_rows,
            daemon_payload_bytes: r.daemon_payload_bytes,
        }
    }
}

/// The public `train_*` call the end-to-end train metrics time.
pub fn train(d: &Dataset, spec: &TrainSpec) -> TrainRun {
    if spec.distributed {
        train_distributed(d, &spec.model, &spec.train, ClusterSpec::new(1, 2)).into()
    } else {
        train_single(d, &spec.model, &spec.train).into()
    }
}

/// The sequential reference trainer on the same inputs (what the traced
/// loop is compared with).
pub fn train_reference(d: &Dataset, spec: &TrainSpec) -> TrainRun {
    let mut train = spec.train.clone();
    train.parallel = ParallelConfig::single();
    train_single(d, &spec.model, &train).into()
}

// ---------------------------------------------------------------------
// Serving through the public session types.

/// An untrained model of the serving shape, weights seeded by `seed`.
pub fn new_model(d: &Dataset, fanouts: &[usize], seed: u64) -> TgnModel {
    TgnModel::new(model_config(d, fanouts), &mut seeded_rng(seed))
}

pub fn num_params(model: &TgnModel) -> usize {
    model.params.num_scalars()
}

/// The serialized `ServeSession`: the oracle concurrent answers are
/// replayed against, and the quiescent service-time probe.
pub struct Session<'a> {
    inner: ServeSession<'a>,
    d: &'a Dataset,
}

impl<'a> Session<'a> {
    pub fn new(model: &'a TgnModel, d: &'a Dataset) -> Self {
        Self {
            inner: ServeSession::new(model, d, None),
            d,
        }
    }

    /// Opens a session and ingests `d`'s first `upto` events in
    /// [`WARM_SLAB`]-event slabs.
    pub fn warmed(model: &'a TgnModel, d: &'a Dataset, upto: usize) -> Self {
        let mut s = Self::new(model, d);
        for r in slabs(0..upto, WARM_SLAB) {
            assert!(s.ingest(r), "chronological warm-up slab");
        }
        s
    }

    /// Ingests the events `range`; true when all of them were applied.
    pub fn ingest(&mut self, range: Range<usize>) -> bool {
        self.inner.ingest(&self.d.graph.events()[range]).is_ok()
    }

    /// Answers `job`; true on success.
    pub fn query(&mut self, job: &Job) -> bool {
        self.inner.query(&job.0).map(std::hint::black_box).is_ok()
    }

    pub fn memory_checksum(&self) -> u64 {
        self.inner.memory_checksum()
    }

    pub fn into_plane(self) -> Plane<'a> {
        Plane {
            inner: ConcurrentServe::from_session(self.inner, ConcurrentOptions::default()),
            d: self.d,
        }
    }
}

/// Per-reader-thread scratch of the concurrent plane.
pub struct Reader(ReaderContext);

impl Reader {
    pub fn new() -> Self {
        Self(ReaderContext::new())
    }
}

/// One concurrent answer, tagged with its serialization point.
pub struct Answer {
    /// Admitted slabs applied when the answer was serialized.
    pub watermark: u64,
    responses: Vec<QueryResponse>,
}

impl Answer {
    /// True when a serialized session answers `job` bit-identically
    /// (the caller has replayed `oracle` to `self.watermark`).
    pub fn matches(&self, oracle: &mut Session<'_>, job: &Job) -> bool {
        oracle
            .inner
            .query(&job.0)
            .is_ok_and(|r| r == self.responses)
    }
}

/// Counters of the concurrent plane the benchmark reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlaneStats {
    pub clean: u64,
    pub repaired: u64,
    pub resampled: u64,
    pub events_applied: u64,
    pub events_rejected: u64,
    pub backpressure_rejections: u64,
    pub max_queue_depth: u64,
}

impl PlaneStats {
    /// Folds another plane's counters in (sums; the queue depth is a
    /// maximum).
    pub fn add(&mut self, other: &PlaneStats) {
        self.clean += other.clean;
        self.repaired += other.repaired;
        self.resampled += other.resampled;
        self.events_applied += other.events_applied;
        self.events_rejected += other.events_rejected;
        self.backpressure_rejections += other.backpressure_rejections;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// The concurrent serving plane (`ConcurrentServe`).
pub struct Plane<'a> {
    inner: ConcurrentServe<'a>,
    d: &'a Dataset,
}

impl<'a> Plane<'a> {
    /// A plane over an empty graph and zeroed memory.
    pub fn empty(model: &'a TgnModel, d: &'a Dataset) -> Self {
        Self {
            inner: ConcurrentServe::new(model, d, None, ConcurrentOptions::default()),
            d,
        }
    }

    pub fn query(&self, job: &Job, reader: &mut Reader) -> Option<Answer> {
        let a = self.inner.query(&job.0, &mut reader.0).ok()?;
        Some(Answer {
            watermark: a.watermark,
            responses: a.responses,
        })
    }

    /// Open-loop admission of the events `range`; false when refused
    /// (`Overloaded`).
    pub fn enqueue(&self, range: Range<usize>) -> bool {
        let slab: Vec<Event> = self.d.graph.events()[range].to_vec();
        self.inner.enqueue_ingest(slab).is_ok()
    }

    /// Applies every queued slab; returns how many.
    pub fn drain(&self) -> usize {
        self.inner.drain_queue()
    }

    /// Synchronous ingest of the events `range` by the calling (writer)
    /// thread; false when any event was rejected.
    pub fn ingest(&self, range: Range<usize>) -> bool {
        self.inner.ingest(&self.d.graph.events()[range]).is_ok()
    }

    pub fn stats(&self) -> PlaneStats {
        let s = self.inner.stats();
        PlaneStats {
            clean: s.clean_queries,
            repaired: s.repaired_queries,
            resampled: s.resampled_queries,
            events_applied: s.events_applied,
            events_rejected: s.events_rejected,
            backpressure_rejections: s.backpressure_rejections,
            max_queue_depth: s.max_queue_depth,
        }
    }

    pub fn memory_checksum(&self) -> u64 {
        self.inner.memory_checksum()
    }
}

// ---------------------------------------------------------------------
// The traced, benchmark-owned loops: the same inputs driven through
// public functions only, with a span at each layer boundary.

/// `MemoryState` behind the program's `MemoryAccess` trait, recording a
/// span and the row count at every read and write.
struct TracedMem<'a> {
    mem: &'a mut MemoryState,
    tracer: &'a mut Tracer,
    req: u64,
}

impl MemoryAccess for TracedMem<'_> {
    fn read_into(&mut self, nodes: &[u32], out: &mut MemoryReadout) {
        let s = self.tracer.enter("mem.state.read", self.req);
        self.mem.read_into(nodes, out);
        self.tracer.count("rows_read", nodes.len() as u64);
        self.tracer.exit(s);
    }

    fn write(&mut self, w: MemoryWrite) {
        let s = self.tracer.enter("mem.state.write", self.req);
        self.tracer.count("rows_written", w.nodes.len() as u64);
        self.mem.write(&w);
        self.tracer.exit(s);
    }
}

/// Shapes seen by the traced loop, for the micro measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shapes {
    /// Roots of the largest part seen.
    pub roots: usize,
    /// Hop-0 slots per root.
    pub slots_per_root: usize,
    /// Unique memory rows of the largest gather seen.
    pub unique_rows: usize,
}

fn record_frontier(
    tracer: &mut Tracer,
    shapes: &mut Shapes,
    num_roots: usize,
    hops: &[NeighborBlock],
    unique_rows: usize,
) {
    let slots: usize = hops.iter().map(NeighborBlock::num_slots).sum();
    let valid: usize = hops.iter().map(|h| h.counts.iter().sum::<usize>()).sum();
    tracer.count("occurrence_rows", occurrence_rows(num_roots, hops) as u64);
    tracer.count("unique_rows", unique_rows as u64);
    tracer.count("slots", slots as u64);
    tracer.count("padded_slots", (slots - valid) as u64);
    if num_roots > shapes.roots {
        shapes.roots = num_roots;
        shapes.slots_per_root = hops.first().map_or(0, |h| h.k);
    }
    shapes.unique_rows = shapes.unique_rows.max(unique_rows);
}

/// Times the sampler alone on a part's roots — a probe that repeats
/// work `prepare_static` already did, because the sampler call inside
/// it cannot be timed from outside.
fn probe_sampler(
    tracer: &mut Tracer,
    req: u64,
    sampler: &RecentNeighborSampler,
    adj: &dyn disttgl_graph::TemporalAdjacency,
    roots: &[u32],
    times: &[f32],
) {
    let s = tracer.enter("graph.sampler.sample_hops", req);
    std::hint::black_box(sampler.sample_hops(adj, roots, times));
    tracer.exit(s);
}

/// Everything the traced train loop needs besides the dataset.
pub struct TrainParts {
    pub csr: TCsr,
    store: NegativeStore,
    pub model: TgnModel,
    adam: Adam,
    memory: MemoryState,
    pub shapes: Shapes,
    /// Losses of the traced loop, one per step.
    pub losses: Vec<f32>,
}

/// Builds the traced loop's state the way `train_single` builds its own
/// (same seeds, so `trace_matches_trainer` can hold).
pub fn train_parts(d: &Dataset, spec: &TrainSpec, tracer: &mut Tracer) -> TrainParts {
    let s = tracer.enter("graph.tcsr.build", 0);
    let csr = TCsr::build(&d.graph);
    tracer.exit(s);
    let s = tracer.enter("data.negative_store", 0);
    let store = NegativeStore::generate(
        &d.graph,
        train_events(d),
        spec.train.neg_groups,
        spec.train.train_negs,
        spec.train.seed ^ 0x4e45,
    );
    tracer.exit(s);
    let model = TgnModel::new(spec.model.clone(), &mut seeded_rng(spec.train.seed));
    let mut lr_cfg = spec.train.clone();
    lr_cfg.parallel = ParallelConfig::single();
    let adam = model.optimizer(lr_cfg.scaled_lr());
    TrainParts {
        csr,
        store,
        model,
        adam,
        memory: spec.model.new_memory(d.graph.num_nodes()),
        shapes: Shapes::default(),
        losses: Vec::new(),
    }
}

/// The benchmark-owned training step loop over the same batches as the
/// trainer: `prepare_static → finish → train_step → clip + Adam → write`,
/// one `step` span per batch. Every `probe_every`-th step also runs the
/// forward alone (`infer_step`) and the sampler alone, as `probe` spans,
/// so backward and sampling time can be derived; probes are excluded
/// from the loop's waterfall. Returns the loop's wall seconds.
pub fn traced_train_loop(
    d: &Dataset,
    spec: &TrainSpec,
    parts: &mut TrainParts,
    tracer: &mut Tracer,
    probe_every: usize,
) -> f64 {
    let prep = BatchPreparer::new(d, &parts.csr, &spec.model);
    let sampler = RecentNeighborSampler::with_fanouts(spec.model.fanouts());
    let batches = slabs(0..train_events(d), spec.train.local_batch);
    let negs_per_event = spec.train.train_negs;
    let t_loop = Instant::now();
    let mut step = 0u64;
    for epoch in 0..spec.train.epochs {
        parts.memory.reset();
        for range in &batches {
            step += 1;
            let s_step = tracer.enter("step", step);

            let s = tracer.enter("core.batch.prepare_static", step);
            let negs = parts
                .store
                .slice(parts.store.group_for_epoch(epoch), range.clone());
            let sb = prep.prepare_static(range.clone(), &[negs], negs_per_event);
            tracer.exit(s);

            let s = tracer.enter("core.batch.finish", step);
            let prepared = prep.finish(
                sb,
                &mut TracedMem {
                    mem: &mut parts.memory,
                    tracer: &mut *tracer,
                    req: step,
                },
            );
            let (pos, neg) = (&prepared.pos, prepared.negs.first());
            record_frontier(
                tracer,
                &mut parts.shapes,
                pos.roots.len(),
                &pos.hops,
                pos.readout.rows(),
            );
            if let Some(n) = neg {
                record_frontier(
                    tracer,
                    &mut parts.shapes,
                    n.negs.len(),
                    &n.hops,
                    n.readout.rows(),
                );
            }
            tracer.exit(s);

            if probe_every > 0 && step % probe_every as u64 == 1 % probe_every as u64 {
                let s_probe = tracer.enter("probe", step);
                let s = tracer.enter("core.model.infer_step", step);
                std::hint::black_box(parts.model.infer_step(pos, neg, None));
                tracer.exit(s);
                probe_sampler(
                    tracer,
                    step,
                    &sampler,
                    &parts.csr,
                    &pos.roots,
                    &pos.root_times,
                );
                if let Some(n) = neg {
                    probe_sampler(tracer, step, &sampler, &parts.csr, &n.negs, &n.times);
                }
                tracer.exit(s_probe);
            }

            let s = tracer.enter("core.model.train_step", step);
            parts.model.params.zero_grads();
            let out = parts.model.train_step(pos, neg, None);
            tracer.exit(s);

            let s = tracer.enter("nn.adam.step", step);
            parts.model.params.clip_grad_norm(5.0);
            parts.adam.step(&mut parts.model.params);
            tracer.exit(s);

            TracedMem {
                mem: &mut parts.memory,
                tracer: &mut *tracer,
                req: step,
            }
            .write(out.write);
            parts.losses.push(out.loss);
            tracer.exit(s_step);
        }
    }
    t_loop.elapsed().as_secs_f64()
}

/// The benchmark-owned serving loop state: a live adjacency + memory
/// the benchmark appends to itself, and an inference engine.
pub struct ServeParts<'a> {
    d: &'a Dataset,
    model: &'a TgnModel,
    adj: DynamicTCsr,
    memory: MemoryState,
    engine: InferenceEngine,
    sampler: RecentNeighborSampler,
    pub shapes: Shapes,
}

impl<'a> ServeParts<'a> {
    /// Starts from `session`'s graph and memory (empty for catch-up).
    pub fn from_session(d: &'a Dataset, model: &'a TgnModel, session: &Session<'_>) -> Self {
        Self {
            d,
            model,
            adj: session.inner.adjacency().clone(),
            memory: session.inner.memory().clone(),
            engine: InferenceEngine::new(),
            sampler: RecentNeighborSampler::with_fanouts(model.cfg.fanouts()),
            shapes: Shapes::default(),
        }
    }

    /// One traced query over the events `range` (their endpoints are
    /// the roots, as in a link-score job over the same pairs):
    /// `prepare_static` over the live adjacency → `finish` →
    /// `embed_part` → `score_pairs`.
    pub fn traced_query(
        &mut self,
        range: Range<usize>,
        tracer: &mut Tracer,
        req: u64,
        probe: bool,
    ) {
        let s_req = tracer.enter("query", req);
        let prep = BatchPreparer::new(self.d, &self.adj, &self.model.cfg);
        let s = tracer.enter("core.batch.prepare_static", req);
        let sb = prep.prepare_static(range.clone(), &[], 1);
        tracer.exit(s);
        let s = tracer.enter("core.batch.finish", req);
        let prepared = prep.finish(
            sb,
            &mut TracedMem {
                mem: &mut self.memory,
                tracer: &mut *tracer,
                req,
            },
        );
        let pos = &prepared.pos;
        record_frontier(
            tracer,
            &mut self.shapes,
            pos.roots.len(),
            &pos.hops,
            pos.readout.rows(),
        );
        tracer.exit(s);
        let s = tracer.enter("core.engine.embed_part", req);
        let emb = self
            .engine
            .embed_part(self.model, PartRef::positive(pos), None);
        tracer.exit(s);
        let s = tracer.enter("core.engine.score_pairs", req);
        let b = range.len();
        let scores = self.engine.score_pairs(
            self.model,
            &emb.emb.slice_rows(0, b),
            &emb.emb.slice_rows(b, 2 * b),
        );
        std::hint::black_box(scores);
        tracer.exit(s);
        if probe {
            let s_probe = tracer.enter("probe", req);
            probe_sampler(
                tracer,
                req,
                &self.sampler,
                &self.adj,
                &pos.roots,
                &pos.root_times,
            );
            tracer.exit(s_probe);
        }
        tracer.exit(s_req);
    }

    /// One traced ingest of the events `range`: the GRU fold + write
    /// construction (`memory_write_events`), the memory write, and the
    /// adjacency append.
    pub fn traced_ingest(&mut self, range: Range<usize>, tracer: &mut Tracer, req: u64) {
        let events = &self.d.graph.events()[range];
        let s_req = tracer.enter("ingest", req);
        let s = tracer.enter("core.engine.memory_write_events", req);
        let (w, unique) = self.engine.memory_write_events(
            self.model,
            self.d,
            events,
            &mut TracedMem {
                mem: &mut self.memory,
                tracer: &mut *tracer,
                req,
            },
        );
        self.shapes.unique_rows = self.shapes.unique_rows.max(unique);
        tracer.exit(s);
        TracedMem {
            mem: &mut self.memory,
            tracer: &mut *tracer,
            req,
        }
        .write(w);
        let s = tracer.enter("graph.tcsr.append_events", req);
        let appended = self.adj.append_events(events);
        tracer.count("events", appended as u64);
        tracer.exit(s);
        tracer.exit(s_req);
    }
}

// ---------------------------------------------------------------------
// Micro measurements at the shapes the traced loops recorded.

/// This thread's cumulative kernel timers (program-reported).
pub struct KernelSecs {
    pub matmul: f64,
    pub gru: f64,
    pub softmax: f64,
    pub gather: f64,
}

pub fn kernel_snapshot() -> KernelSecs {
    let k = timing::snapshot();
    KernelSecs {
        matmul: k.matmul_secs,
        gru: k.gru_secs,
        softmax: k.softmax_secs,
        gather: k.gather_secs,
    }
}

pub fn simd_active() -> bool {
    kernels::simd_active()
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// GFLOP/s of `A·Bᵀ` at the K/V-projection shape: `rows × d_kv` times
/// `(d_emb × d_kv)ᵀ`.
pub fn matmul_tb_gflops(model: &TgnModel, rows: usize, reps: usize) -> f64 {
    let cfg = &model.cfg;
    let (k, n) = (cfg.d_mem + cfg.d_edge + cfg.d_time, cfg.d_emb);
    if rows == 0 {
        return 0.0;
    }
    let mut rng = seeded_rng(1);
    let a = Matrix::uniform(rows, k, 1.0, &mut rng);
    let b = Matrix::uniform(n, k, 1.0, &mut rng);
    let secs = best_of(reps, || a.matmul_transpose_b(&b));
    2.0 * rows as f64 * k as f64 * n as f64 / secs * 1e-9
}

/// Seconds of one layer-0 attention forward and one backward at
/// `roots × slots` (all slots valid).
pub fn attention_micro(model: &TgnModel, roots: usize, slots: usize, reps: usize) -> (f64, f64) {
    let cfg = &model.cfg;
    if roots == 0 || slots == 0 {
        return (0.0, 0.0);
    }
    let mut rng = seeded_rng(2);
    let mut params = ParamSet::new();
    let (q_dim, kv_dim) = (cfg.d_mem + cfg.d_time, cfg.d_mem + cfg.d_edge + cfg.d_time);
    let attn = TemporalAttention::new(
        &mut params,
        "attn",
        q_dim,
        kv_dim,
        cfg.d_emb,
        slots,
        &mut rng,
    );
    let q = Matrix::uniform(roots, q_dim, 1.0, &mut rng);
    let kv = Matrix::uniform(roots * slots, kv_dim, 1.0, &mut rng);
    let counts = vec![slots; roots];
    let fwd = best_of(reps, || attn.forward(&params, &q, &kv, &counts));
    let (_, cache) = attn.forward(&params, &q, &kv, &counts);
    let dh = Matrix::uniform(roots, cfg.d_emb, 1.0, &mut rng);
    let bwd = best_of(reps, || attn.backward(&mut params, &cache, &dh));
    (fwd, bwd)
}

/// Seconds of one GRU forward over `rows` unique memory rows.
pub fn gru_micro(model: &TgnModel, rows: usize, reps: usize) -> f64 {
    let cfg = &model.cfg;
    if rows == 0 {
        return 0.0;
    }
    let mut rng = seeded_rng(3);
    let mut params = ParamSet::new();
    let gru = GruCell::new(&mut params, "gru", cfg.mail_dim(), cfg.d_mem, &mut rng);
    let x = Matrix::uniform(rows, cfg.mail_dim(), 1.0, &mut rng);
    let h = Matrix::uniform(rows, cfg.d_mem, 1.0, &mut rng);
    best_of(reps, || gru.forward(&params, &x, &h))
}

/// Events per second of `DynamicTCsr::append_events` over the whole
/// event log in 100-event slabs.
pub fn append_events_per_s(d: &Dataset) -> f64 {
    let mut adj = DynamicTCsr::new(d.graph.num_nodes());
    let t = Instant::now();
    for r in slabs(0..d.graph.num_events(), 100) {
        adj.append_events(&d.graph.events()[r]);
    }
    d.graph.num_events() as f64 / t.elapsed().as_secs_f64()
}

/// Events per second of `evaluate` over the test split's first 300
/// events with the traced loop's model (memory replayed from zero is
/// not needed for a rate: evaluation advances whatever memory it is
/// given).
pub fn eval_events_per_s(d: &Dataset, spec: &TrainSpec, parts: &TrainParts) -> f64 {
    let (_, val_end) = d.graph.chronological_split(0.70, 0.15);
    let end = d.graph.num_events().min(val_end + 300);
    let mut memory = parts.memory.clone();
    let t = Instant::now();
    let res = evaluate(
        &parts.model,
        &spec.model,
        d,
        &parts.csr,
        &mut memory,
        None,
        val_end..end,
        spec.train.local_batch,
        spec.train.eval_negs,
        spec.train.seed,
    );
    res.events as f64 / t.elapsed().as_secs_f64()
}

/// One save + load of a training checkpoint holding the traced loop's
/// weights and optimizer state: `(save ms, load ms, bytes)`.
pub fn checkpoint_roundtrip(spec: &TrainSpec, parts: &TrainParts, dir: &Path) -> (f64, f64, u64) {
    let ckpt = TrainCheckpoint {
        fingerprint: fingerprint(&spec.model, &spec.train),
        units_done: 1,
        iteration: parts.losses.len(),
        events_trained: 0,
        weights: parts.model.params.flatten_weights(),
        adam_t: parts.adam.steps(),
        adam_state: parts.adam.flatten_state(),
        loss_history: parts.losses.clone(),
        convergence: Vec::new(),
        static_table: None,
        memories: Vec::new(),
        start_turns: Vec::new(),
    };
    let path = dir.join("checkpoint-probe.bin");
    let t = Instant::now();
    let saved = ckpt.save(&path);
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let t = Instant::now();
    let loaded = TrainCheckpoint::load(&path);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);
    match (saved, loaded) {
        (Ok(()), Ok(back)) if back.weights == ckpt.weights => (save_ms, load_ms, bytes),
        _ => (0.0, 0.0, 0),
    }
}
