//! The **streaming serving plane**: answer live embedding / link-score
//! queries over an evolving temporal graph with the exact arithmetic
//! of offline evaluation.
//!
//! A [`ServeSession`] owns the three pieces of live state a deployed
//! memory-based TGNN needs — the node [`MemoryState`] + mailbox, the
//! appendable adjacency ([`DynamicTCsr`]), and the static node memory
//! — and exposes two entry points:
//!
//! * [`ServeSession::ingest`] — absorb a chronological slab of
//!   observed events: the adjacency is extended first (an appended
//!   event is invisible to any query at or before its own time —
//!   strictly-before sampling — so the append is always safe to run
//!   early), then the batched mailbox/GRU memory update runs with the
//!   identical arithmetic of [`crate::replay_memory`] at the same
//!   batch boundaries, on the engine's sampling-free fast path.
//! * [`ServeSession::query`] — score link candidates or return node
//!   embeddings at arbitrary query times. Concurrent requests
//!   micro-batch through **one** frontier expansion and one
//!   unique-node memory gather (the PR 2/PR 4 union-fold contract);
//!   per-row purity of every model stage means a request's answer
//!   never depends on what else shares the micro-batch.
//!
//! [`ServeSession::ingest_scored`] composes the two in the
//! score-before-write order of evaluation (and of real traffic
//! scoring): extend adjacency → query the slab's own events (plus any
//! extra candidates) against **pre-slab memory** → apply the memory
//! update.
//!
//! # The bit-identity contract
//!
//! Serving is a *re-ordering* of offline evaluation's arithmetic,
//! never a new approximation. Concretely: seed a session with an event
//! prefix via [`ServeSession::ingest`], then walk a range with
//! [`ServeSession::ingest_scored`] at the oracle's batch boundaries —
//! the produced scores, task metrics, and the final node-memory
//! checksum are **bit-identical** to [`crate::evaluate`] replaying the
//! same events offline over a frozen [`disttgl_graph::TCsr`]. Pinned
//! for both tasks and 1-/2-layer stacks by
//! `tests/serve_equivalence.rs`.
//!
//! # Failure semantics
//!
//! The serving plane is **panic-free on external input**: malformed
//! requests and events come back as typed errors and the session stays
//! fully usable afterwards. The recoverable/fatal split:
//!
//! * **Recoverable (typed errors).** [`ServeSession::ingest`] is
//!   *batch-partial*: each event is validated against a running stream
//!   head, the valid chronological subsequence is applied, and the
//!   rejects come back as `(slab index, `[`EventFault`]`)` pairs inside
//!   [`IngestError::Rejected`] — a stale or corrupt event never
//!   poisons the events around it. [`ServeSession::query`] and
//!   [`ServeSession::ingest_scored`] are *atomic*: they validate
//!   everything up front and touch no state on [`ServeError`] (scored
//!   responses align positionally with the slab, so partial application
//!   would mis-align them). Checkpoint restore validates framing,
//!   digest, fingerprint, and adjacency invariants, returning
//!   [`CheckpointError`] instead of panicking on corrupt bytes.
//! * **Fatal (panics).** Programming errors on the session's own side:
//!   response-accessor misuse ([`QueryResponse::scores`] on an
//!   embedding) and internal invariant violations. These are bugs, not
//!   inputs, and are deliberately loud.
//!
//! # The snapshot-read contract (concurrent serving)
//!
//! [`concurrent::ConcurrentServe`] scales this plane across threads: a
//! single writer owns ingest while N reader threads answer queries
//! against MVCC snapshots of the live state, validating their gathered
//! rows through the version vector ([`MemoryState::repair`]) before
//! responding.
//!
//! **Guaranteed**: every answer is *linearizable per request* — bit
//! identical to what a serialized [`ServeSession`] replaying the same
//! admitted slabs would answer at the watermark the response reports
//! (`tests/concurrent_serve_equivalence.rs` pins this for both tasks
//! at 1- and 2-layer depth). Ingest slabs apply atomically: a reader
//! never observes an adjacency/memory state between slab boundaries.
//!
//! **Not guaranteed**: inter-request ordering under load — two
//! in-flight queries may serialize in either order relative to each
//! other and to concurrently admitted slabs, so answers across
//! requests need not reflect one global request order. Admission
//! control is typed, not silent: a full ingest queue refuses with
//! [`ServeError::Overloaded`] and nothing is queued.

use crate::batch::{edge_feature_rows_into, occurrence_nodes_into, ReadoutIndex, ReadoutView};
use crate::checkpoint::{CheckpointError, ServeCheckpoint};
use crate::engine::{InferenceEngine, PartRef};
use crate::model::TgnModel;
use crate::static_mem::StaticMemory;
use disttgl_data::Dataset;
use disttgl_graph::{DynamicTCsr, Event, NeighborBlock, RecentNeighborSampler, TemporalAdjacency};
use disttgl_mem::{MemoryState, VersionedReadout};
use disttgl_tensor::Matrix;
use std::collections::HashMap;
use std::fmt;

#[path = "serve_concurrent.rs"]
pub mod concurrent;
pub use concurrent::{
    ConcurrentOptions, ConcurrentServe, ConcurrentStats, ReaderContext, SnapshotAnswer,
    SnapshotDrift,
};

/// Why one event or request operand was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventFault {
    /// The timestamp precedes the stream head it would be appended at
    /// (out-of-order delivery), or is NaN.
    OutOfOrder {
        /// The offending timestamp.
        t: f32,
        /// The stream head it failed against.
        head: f32,
    },
    /// A non-finite timestamp (±∞ would wedge the stream head; NaN
    /// out-of-order checks are vacuous).
    NonFiniteTime {
        /// The offending timestamp.
        t: f32,
    },
    /// A node id outside the session's node range.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The session's node count.
        num_nodes: u32,
    },
    /// An edge id with no row in the edge-feature table.
    UnknownEdgeId {
        /// The offending edge id.
        eid: u32,
        /// Rows in the edge-feature table.
        table_rows: u32,
    },
}

impl fmt::Display for EventFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventFault::OutOfOrder { t, head } => {
                write!(f, "t = {t} precedes the stream head t = {head}")
            }
            EventFault::NonFiniteTime { t } => write!(f, "non-finite timestamp {t}"),
            EventFault::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} outside the session's {num_nodes} nodes")
            }
            EventFault::UnknownEdgeId { eid, table_rows } => {
                write!(
                    f,
                    "eid {eid} outside the edge-feature table ({table_rows} rows)"
                )
            }
        }
    }
}

/// [`ServeSession::ingest`] failure: batch-partial semantics — the
/// valid events **were** applied; only the listed ones were rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestError {
    /// Some events were rejected. `applied` accounts for the valid
    /// chronological subsequence that was ingested; `rejected` pairs
    /// each refused event's slab index with its fault. The session
    /// remains fully usable.
    Rejected {
        /// Accounting for the applied subsequence.
        applied: IngestStats,
        /// `(slab index, fault)` for every rejected event, ascending.
        rejected: Vec<(usize, EventFault)>,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Rejected { applied, rejected } => write!(
                f,
                "ingest rejected {} of {} events (first: event {}: {})",
                rejected.len(),
                applied.events + rejected.len(),
                rejected[0].0,
                rejected[0].1
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// [`ServeSession::query`] / [`ServeSession::ingest_scored`] failure:
/// atomic semantics — nothing was applied and no state changed.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A query request referenced an invalid operand; `request` indexes
    /// the offending entry of the request slice.
    InvalidRequest {
        /// Index of the offending request.
        request: usize,
        /// What was wrong with it.
        fault: EventFault,
    },
    /// An [`ServeSession::ingest_scored`] slab contained invalid
    /// events; nothing was appended, scored, or written.
    InvalidSlab {
        /// `(slab index, fault)` for every invalid event, ascending.
        rejected: Vec<(usize, EventFault)>,
    },
    /// Admission control refused the submission: the concurrent
    /// serving plane's bounded ingest queue is full
    /// ([`ConcurrentServe::enqueue_ingest`]). Typed backpressure —
    /// nothing was queued; retry after the writer drains or shed the
    /// slab.
    Overloaded {
        /// Events already waiting in the ingest queue.
        queued_events: usize,
        /// The queue's capacity, in events.
        capacity: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidRequest { request, fault } => {
                write!(f, "request {request}: {fault}")
            }
            ServeError::InvalidSlab { rejected } => write!(
                f,
                "scored slab has {} invalid events (first: event {}: {})",
                rejected.len(),
                rejected[0].0,
                rejected[0].1
            ),
            ServeError::Overloaded {
                queued_events,
                capacity,
            } => write!(
                f,
                "ingest queue full ({queued_events} events queued, capacity {capacity})"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// One serving request, timestamped by the client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryRequest {
    /// Score the candidate link `(src, dst)` as of time `t`: the link
    /// predictor's logit on a link-prediction model, the per-class
    /// logits on an edge-classification model.
    LinkScore {
        /// Candidate source node.
        src: u32,
        /// Candidate destination node.
        dst: u32,
        /// Query time (only events strictly before `t` support it).
        t: f32,
    },
    /// Return `node`'s temporal embedding as of time `t`.
    Embed {
        /// Node to embed.
        node: u32,
        /// Query time.
        t: f32,
    },
}

/// Answer to one [`QueryRequest`], in request order.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResponse {
    /// Decoder output of a [`QueryRequest::LinkScore`]: one logit for
    /// link prediction, `num_classes` logits for classification.
    Scores(Vec<f32>),
    /// The `d_emb`-wide embedding of a [`QueryRequest::Embed`].
    Embedding(Vec<f32>),
}

impl QueryResponse {
    /// The scores of a [`QueryResponse::Scores`] answer.
    ///
    /// # Panics
    /// Panics on an embedding response.
    pub fn scores(&self) -> &[f32] {
        match self {
            QueryResponse::Scores(s) => s,
            QueryResponse::Embedding(_) => panic!("embedding response has no scores"),
        }
    }

    /// The vector of a [`QueryResponse::Embedding`] answer.
    ///
    /// # Panics
    /// Panics on a scores response.
    pub fn embedding(&self) -> &[f32] {
        match self {
            QueryResponse::Embedding(e) => e,
            QueryResponse::Scores(_) => panic!("scores response has no embedding"),
        }
    }
}

/// Accounting for one [`ServeSession::ingest`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IngestStats {
    /// Events absorbed.
    pub events: usize,
    /// Rows in the applied write request: `2 · events` under the
    /// most-recent `COMB` (duplicate nodes resolve last-write-wins at
    /// apply time), fewer under mean `COMB`, which pre-collapses.
    pub rows_written: usize,
    /// Unique memory rows gathered for the GRU update.
    pub rows_read: usize,
}

/// Result of [`ServeSession::ingest_scored`].
#[derive(Clone, Debug)]
pub struct ScoredIngest {
    /// Score of each ingested event `(src, dst, t)` in slab order —
    /// computed against pre-slab memory, exactly as offline evaluation
    /// scores a batch before its write-back.
    pub event_scores: Vec<QueryResponse>,
    /// Answers to the `extra` candidate requests, same memory point.
    pub extra: Vec<QueryResponse>,
    /// The slab's ingest accounting.
    pub stats: IngestStats,
}

/// Reusable buffers for the micro-batched query read path — the
/// serving plane's `StepScratch` analog. A session (or a concurrent
/// reader) keeps one arena alive for its whole lifetime; every stage
/// of the pipeline clears and refills these vectors in place, so a
/// steady-state query loop stops growing them after the first few
/// calls.
#[derive(Default)]
pub(crate) struct QueryScratch {
    /// Flattened request roots (a link candidate contributes both
    /// endpoints back-to-back).
    pub(crate) roots: Vec<u32>,
    /// Query time of each root.
    pub(crate) times: Vec<f32>,
    /// Multi-hop frontier blocks, one per layer.
    pub(crate) hops: Vec<NeighborBlock>,
    /// The flat occurrence list (`roots ++ hop slots`).
    pub(crate) occ: Vec<u32>,
    /// Unique-node fold of `occ` (when `dedup_readout` is on).
    pub(crate) uniq: ReadoutIndex,
    /// Hash scratch for [`ReadoutIndex::rebuild`].
    pub(crate) uniq_map: HashMap<u32, u32>,
    /// Gathered memory rows + the version vector they were read at —
    /// the MVCC tag the concurrent plane validates against.
    pub(crate) readout: VersionedReadout,
    /// Per-hop edge-feature gathers.
    pub(crate) nbr_feats: Vec<Matrix>,
    /// Index scratch for the edge-feature gathers.
    pub(crate) eid_idx: Vec<usize>,
    /// Embedding-row indices of link-candidate sources.
    pub(crate) src_rows: Vec<usize>,
    /// Embedding-row indices of link-candidate destinations.
    pub(crate) dst_rows: Vec<usize>,
    /// Gathered source embeddings for the decoder call.
    pub(crate) src_emb: Matrix,
    /// Gathered destination embeddings for the decoder call.
    pub(crate) dst_emb: Matrix,
}

/// Checks one event against the serving invariants at stream head
/// `head`. `None` means acceptable; the checks mirror exactly the
/// panics [`DynamicTCsr::append_events`] and the edge-feature gather
/// would otherwise hit, making those panics unreachable from external
/// input.
pub(crate) fn validate_event(dataset: &Dataset, e: &Event, head: f32) -> Option<EventFault> {
    if !e.t.is_finite() {
        return Some(EventFault::NonFiniteTime { t: e.t });
    }
    let n = dataset.graph.num_nodes() as u32;
    for node in [e.src, e.dst] {
        if node >= n {
            return Some(EventFault::NodeOutOfRange { node, num_nodes: n });
        }
    }
    let table_rows = dataset.edge_features.rows();
    if dataset.edge_features.cols() > 0 && e.eid as usize >= table_rows {
        return Some(EventFault::UnknownEdgeId {
            eid: e.eid,
            table_rows: table_rows as u32,
        });
    }
    if e.t < head {
        return Some(EventFault::OutOfOrder { t: e.t, head });
    }
    None
}

/// Checks one query request's operands (same faults as
/// [`validate_event`], minus stream ordering — a query may name any
/// time).
pub(crate) fn validate_request(dataset: &Dataset, r: &QueryRequest) -> Option<EventFault> {
    let n = dataset.graph.num_nodes() as u32;
    let (nodes, t) = match *r {
        QueryRequest::LinkScore { src, dst, t } => ([src, dst], t),
        QueryRequest::Embed { node, t } => ([node, node], t),
    };
    if !t.is_finite() {
        return Some(EventFault::NonFiniteTime { t });
    }
    nodes
        .into_iter()
        .find(|&node| node >= n)
        .map(|node| EventFault::NodeOutOfRange { node, num_nodes: n })
}

/// Stage 1 of the shared query pipeline: flatten validated requests
/// into one root list (a link candidate contributes its two endpoints
/// back-to-back).
pub(crate) fn flatten_requests(requests: &[QueryRequest], scratch: &mut QueryScratch) {
    scratch.roots.clear();
    scratch.times.clear();
    for r in requests {
        match *r {
            QueryRequest::LinkScore { src, dst, t } => {
                scratch.roots.push(src);
                scratch.roots.push(dst);
                scratch.times.push(t);
                scratch.times.push(t);
            }
            QueryRequest::Embed { node, t } => {
                scratch.roots.push(node);
                scratch.times.push(t);
            }
        }
    }
}

/// Stage 2 of the shared query pipeline: the **snapshot gather** — one
/// multi-hop frontier expansion plus one folded, version-tagged memory
/// read. Everything the compute stage needs from mutable state lands
/// in the scratch, so a concurrent reader can release its read lock
/// the moment this returns.
pub(crate) fn gather_snapshot(
    sampler: &RecentNeighborSampler,
    dedup: bool,
    adj: &DynamicTCsr,
    memory: &MemoryState,
    scratch: &mut QueryScratch,
) {
    sampler.sample_hops_into(adj, &scratch.roots, &scratch.times, &mut scratch.hops);
    fold_and_read(dedup, memory, scratch);
}

/// The tail of [`gather_snapshot`] after `scratch.hops` is in place:
/// occurrence fold + version-tagged unique-row gather. Split out so
/// the concurrent plane's revalidation path can resample into a check
/// buffer first and only redo the fold when the frontier truly
/// drifted.
pub(crate) fn fold_and_read(dedup: bool, memory: &MemoryState, scratch: &mut QueryScratch) {
    occurrence_nodes_into(&scratch.roots, &scratch.hops, &mut scratch.occ);
    if dedup {
        scratch.uniq.rebuild(&scratch.occ, &mut scratch.uniq_map);
    }
    let nodes: &[u32] = if dedup {
        &scratch.uniq.unique_nodes
    } else {
        &scratch.occ
    };
    memory.read_versioned_into(nodes, &mut scratch.readout);
}

/// Stage 3 of the shared query pipeline: the **lock-free compute** —
/// edge-feature gathers from the immutable dataset table, the
/// attention stack, one decoder call over all link candidates, and
/// response assembly in request order. Reads only the snapshot in
/// `scratch` (plus immutable model/dataset state), so a concurrent
/// reader runs it with no lock held. Bit-identical to the historical
/// single-threaded query path: same gathers, same folded readout, same
/// engine calls.
pub(crate) fn compute_responses(
    model: &TgnModel,
    dataset: &Dataset,
    static_mem: Option<&StaticMemory>,
    engine: &mut InferenceEngine,
    dedup: bool,
    requests: &[QueryRequest],
    scratch: &mut QueryScratch,
) -> Vec<QueryResponse> {
    scratch.nbr_feats.truncate(scratch.hops.len());
    while scratch.nbr_feats.len() < scratch.hops.len() {
        scratch.nbr_feats.push(Matrix::zeros(0, 0));
    }
    for (h, feats) in scratch.hops.iter().zip(scratch.nbr_feats.iter_mut()) {
        edge_feature_rows_into(dataset, &h.eids, feats, &mut scratch.eid_idx);
    }

    // Move the gathered rows into a shareable view for the embed, then
    // recycle the buffer (the trainer's recycle_block pattern).
    let view = ReadoutView::whole(std::mem::take(&mut scratch.readout.readout));
    let pe = {
        let part = PartRef {
            roots: &scratch.roots,
            times: &scratch.times,
            hops: &scratch.hops,
            readout: &view,
            uniq: dedup.then_some(&scratch.uniq),
            nbr_feats: &scratch.nbr_feats,
        };
        engine.embed_part(model, part, static_mem)
    };
    scratch.readout.readout = view
        .into_block()
        .expect("query view is the gathered block's only reference");

    // One decoder call over every link candidate.
    scratch.src_rows.clear();
    scratch.dst_rows.clear();
    let mut row = 0usize;
    for r in requests {
        if let QueryRequest::LinkScore { .. } = r {
            scratch.src_rows.push(row);
            scratch.dst_rows.push(row + 1);
        }
        row += match r {
            QueryRequest::LinkScore { .. } => 2,
            QueryRequest::Embed { .. } => 1,
        };
    }
    let scores = (!scratch.src_rows.is_empty()).then(|| {
        pe.emb
            .gather_rows_into(&scratch.src_rows, &mut scratch.src_emb);
        pe.emb
            .gather_rows_into(&scratch.dst_rows, &mut scratch.dst_emb);
        engine.score_pairs(model, &scratch.src_emb, &scratch.dst_emb)
    });

    let mut out = Vec::with_capacity(requests.len());
    let mut row = 0usize;
    let mut pair = 0usize;
    for r in requests {
        match r {
            QueryRequest::LinkScore { .. } => {
                let s = scores.as_ref().expect("scored above");
                out.push(QueryResponse::Scores(s.row(pair).to_vec()));
                pair += 1;
                row += 2;
            }
            QueryRequest::Embed { .. } => {
                out.push(QueryResponse::Embedding(pe.emb.row(row).to_vec()));
                row += 1;
            }
        }
    }
    out
}

/// An online inference session over an evolving temporal graph (see
/// the module docs). Borrows the trained model and the dataset's
/// edge-feature table; owns the live memory and adjacency.
pub struct ServeSession<'a> {
    model: &'a TgnModel,
    dataset: &'a Dataset,
    static_mem: Option<&'a StaticMemory>,
    adj: DynamicTCsr,
    memory: MemoryState,
    engine: InferenceEngine,
    sampler: RecentNeighborSampler,
    dedup: bool,
    ingested: usize,
    scratch: QueryScratch,
}

impl<'a> ServeSession<'a> {
    /// Opens a session with an empty graph and zeroed node memory.
    /// Feed history through [`ServeSession::ingest`] to warm-start —
    /// at the same batch boundaries as an offline replay if
    /// bit-identical positioning matters.
    pub fn new(
        model: &'a TgnModel,
        dataset: &'a Dataset,
        static_mem: Option<&'a StaticMemory>,
    ) -> Self {
        let cfg = &model.cfg;
        Self {
            model,
            dataset,
            static_mem,
            adj: DynamicTCsr::new(dataset.graph.num_nodes()),
            memory: cfg.new_memory(dataset.graph.num_nodes()),
            engine: InferenceEngine::new(),
            sampler: RecentNeighborSampler::with_fanouts(cfg.fanouts()),
            dedup: cfg.dedup_readout,
            ingested: 0,
            scratch: QueryScratch::default(),
        }
    }

    /// Events absorbed so far.
    pub fn events_ingested(&self) -> usize {
        self.ingested
    }

    /// The live adjacency (read access).
    pub fn adjacency(&self) -> &DynamicTCsr {
        &self.adj
    }

    /// The live node memory (read access).
    pub fn memory(&self) -> &MemoryState {
        &self.memory
    }

    /// Content digest of the live node memory — what the equivalence
    /// suite compares against the offline replay's state.
    pub fn memory_checksum(&self) -> u64 {
        self.memory.checksum()
    }

    /// Absorbs a chronological slab of observed events: extends the
    /// live adjacency, then applies the batched mailbox/GRU memory
    /// update (one folded GRU pass over the slab's unique root rows,
    /// one write — the identical arithmetic of [`crate::replay_memory`]
    /// at these batch boundaries).
    ///
    /// **Batch-partial**: each event is validated against a running
    /// stream head (time order, finite timestamp, node range, edge-id
    /// range); the valid chronological subsequence is applied even when
    /// some events are refused. On `Err`, [`IngestError::Rejected`]
    /// carries both the accounting for what *was* applied and the
    /// `(slab index, fault)` of every reject — the session stays fully
    /// usable either way.
    pub fn ingest(&mut self, events: &[Event]) -> Result<IngestStats, IngestError> {
        let mut head = self.adj.stream_head();
        let mut accepted: Vec<Event> = Vec::with_capacity(events.len());
        let mut rejected: Vec<(usize, EventFault)> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match self.validate_event(e, head) {
                Some(fault) => rejected.push((i, fault)),
                None => {
                    head = e.t;
                    accepted.push(*e);
                }
            }
        }
        self.extend_adjacency(&accepted);
        let applied = self.apply_memory(&accepted);
        if rejected.is_empty() {
            Ok(applied)
        } else {
            Err(IngestError::Rejected { applied, rejected })
        }
    }

    /// Checks one event against the session's invariants at stream
    /// head `head` (see the module-level [`validate_event`]).
    fn validate_event(&self, e: &Event, head: f32) -> Option<EventFault> {
        validate_event(self.dataset, e, head)
    }

    /// Checks one query request's operands (see the module-level
    /// [`validate_request`]).
    fn validate_request(&self, r: &QueryRequest) -> Option<EventFault> {
        validate_request(self.dataset, r)
    }

    /// Phase A of [`ServeSession::ingest`]: the adjacency append.
    /// Callers have already validated `events`; the asserts below are
    /// internal-invariant backstops, not input checks.
    fn extend_adjacency(&mut self, events: &[Event]) {
        let feat_rows = self.dataset.edge_features.rows();
        if self.dataset.edge_features.cols() > 0 {
            for e in events {
                assert!(
                    (e.eid as usize) < feat_rows,
                    "ingest: eid {} outside the edge-feature table ({feat_rows} rows)",
                    e.eid
                );
            }
        }
        self.adj.append_events(events);
    }

    /// Phase B of [`ServeSession::ingest`]: the batched memory update.
    fn apply_memory(&mut self, events: &[Event]) -> IngestStats {
        if events.is_empty() {
            return IngestStats::default();
        }
        let (w, rows_read) =
            self.engine
                .memory_write_events(self.model, self.dataset, events, &mut self.memory);
        let stats = IngestStats {
            events: events.len(),
            rows_written: w.nodes.len(),
            rows_read,
        };
        self.memory.write(&w);
        self.ingested += events.len();
        stats
    }

    /// Answers a micro-batch of concurrent requests against the
    /// current graph + memory, read-only: one multi-hop frontier
    /// expansion over all requested roots, one unique-node memory
    /// gather across the union of every hop frontier, one pass through
    /// the attention stack, one decoder call over all link candidates.
    /// Responses are in request order, and each is bit-identical to
    /// what the request would get in a micro-batch of its own (per-row
    /// purity — see `core::engine`).
    ///
    /// **Atomic**: every request is validated before any work; on
    /// [`ServeError::InvalidRequest`] nothing was sampled, gathered, or
    /// scored, and the session is untouched (queries are read-only
    /// regardless).
    pub fn query(&mut self, requests: &[QueryRequest]) -> Result<Vec<QueryResponse>, ServeError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        for (i, r) in requests.iter().enumerate() {
            if let Some(fault) = self.validate_request(r) {
                return Err(ServeError::InvalidRequest { request: i, fault });
            }
        }
        // The shared three-stage pipeline over the session's own scratch
        // arena: flatten → snapshot gather (one frontier expansion + one
        // folded gather — the union contract) → lock-free compute. The
        // concurrent plane runs the same stages against a locked
        // snapshot; both are bit-identical to the historical
        // allocate-per-call path.
        flatten_requests(requests, &mut self.scratch);
        gather_snapshot(
            &self.sampler,
            self.dedup,
            &self.adj,
            &self.memory,
            &mut self.scratch,
        );
        Ok(compute_responses(
            self.model,
            self.dataset,
            self.static_mem,
            &mut self.engine,
            self.dedup,
            requests,
            &mut self.scratch,
        ))
    }

    /// Score-then-ingest, the streaming form of evaluation's
    /// score-before-write order: extends the adjacency with `events`,
    /// answers one micro-batched query for the slab's own `(src, dst,
    /// t)` candidates plus any `extra` requests — all against
    /// **pre-slab memory** — then applies the slab's memory update.
    /// Driving a range through this call at an offline oracle's batch
    /// boundaries reproduces [`crate::evaluate`] bit for bit (the
    /// module-level contract).
    ///
    /// **Atomic**, unlike [`ServeSession::ingest`]: the scores align
    /// positionally with the slab, so applying a partial subsequence
    /// would mis-align them. The whole slab plus every `extra` request
    /// is validated up front; on `Err` nothing was appended, scored, or
    /// written.
    pub fn ingest_scored(
        &mut self,
        events: &[Event],
        extra: &[QueryRequest],
    ) -> Result<ScoredIngest, ServeError> {
        let mut head = self.adj.stream_head();
        let mut rejected: Vec<(usize, EventFault)> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match self.validate_event(e, head) {
                Some(fault) => rejected.push((i, fault)),
                None => head = e.t,
            }
        }
        if !rejected.is_empty() {
            return Err(ServeError::InvalidSlab { rejected });
        }
        for (i, r) in extra.iter().enumerate() {
            if let Some(fault) = self.validate_request(r) {
                return Err(ServeError::InvalidRequest { request: i, fault });
            }
        }
        self.extend_adjacency(events);
        let mut requests: Vec<QueryRequest> = events
            .iter()
            .map(|e| QueryRequest::LinkScore {
                src: e.src,
                dst: e.dst,
                t: e.t,
            })
            .collect();
        requests.extend_from_slice(extra);
        let mut event_scores = self.query(&requests).expect("requests validated above");
        let extra_resp = event_scores.split_off(events.len());
        let stats = self.apply_memory(events);
        Ok(ScoredIngest {
            event_scores,
            extra: extra_resp,
            stats,
        })
    }

    /// Captures the session's full live state — node memory, dynamic
    /// adjacency, stream head, ingest counter — as a
    /// [`ServeCheckpoint`]. Pure observation: the session is untouched
    /// and a session restored from the capture answers every query
    /// bit-identically to this one.
    pub fn checkpoint(&self) -> ServeCheckpoint {
        let n = self.dataset.graph.num_nodes();
        ServeCheckpoint {
            fingerprint: serve_fingerprint(self.model, self.dataset),
            memory: self.memory.clone(),
            adj: (0..n as u32)
                .map(|v| self.adj.neighbors(v).to_vec())
                .collect(),
            num_events: self.adj.num_events(),
            stream_head: self.adj.stream_head(),
            ingested: self.ingested as u64,
        }
    }

    /// Reopens a session from a [`ServeCheckpoint`] against the same
    /// trained model and dataset. Refuses a capture taken under a
    /// different model configuration or node count
    /// ([`CheckpointError::Mismatch`]) and one whose adjacency violates
    /// the dynamic T-CSR's invariants ([`CheckpointError::Corrupt`]) —
    /// restore never panics on a hostile file.
    pub fn restore(
        model: &'a TgnModel,
        dataset: &'a Dataset,
        static_mem: Option<&'a StaticMemory>,
        ckpt: ServeCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let live = serve_fingerprint(model, dataset);
        if ckpt.fingerprint != live {
            return Err(CheckpointError::Mismatch(format!(
                "serve checkpoint was taken under a different configuration\n  saved: {}\n  live:  {}",
                ckpt.fingerprint.replace('\n', " | "),
                live.replace('\n', " | ")
            )));
        }
        if ckpt.memory.num_nodes() != dataset.graph.num_nodes() {
            return Err(CheckpointError::Corrupt(format!(
                "{} memory nodes vs {} dataset nodes",
                ckpt.memory.num_nodes(),
                dataset.graph.num_nodes()
            )));
        }
        let adj = DynamicTCsr::from_parts(ckpt.adj, ckpt.num_events, ckpt.stream_head)
            .map_err(CheckpointError::Corrupt)?;
        let cfg = &model.cfg;
        Ok(Self {
            model,
            dataset,
            static_mem,
            adj,
            memory: ckpt.memory,
            engine: InferenceEngine::new(),
            sampler: RecentNeighborSampler::with_fanouts(cfg.fanouts()),
            dedup: cfg.dedup_readout,
            ingested: ckpt.ingested as usize,
            scratch: QueryScratch::default(),
        })
    }

    /// Captures and persists into a [`CheckpointStore`] (atomic write,
    /// ingest-sequence naming, retention GC). Returns the published
    /// path.
    pub fn checkpoint_to(
        &self,
        store: &crate::recover::CheckpointStore,
    ) -> Result<std::path::PathBuf, CheckpointError> {
        store.save_serve(&self.checkpoint())
    }

    /// Reopens from the store's newest serving checkpoint that fully
    /// validates, scanning past torn/corrupt files. `Ok(None)` when
    /// the store holds no good serving checkpoint.
    pub fn restore_latest(
        model: &'a TgnModel,
        dataset: &'a Dataset,
        static_mem: Option<&'a StaticMemory>,
        store: &crate::recover::CheckpointStore,
    ) -> Result<Option<Self>, CheckpointError> {
        match store.load_latest_serve()? {
            Some((ckpt, _)) => Self::restore(model, dataset, static_mem, ckpt).map(Some),
            None => Ok(None),
        }
    }
}

/// Serving-plane fingerprint: the model configuration plus the
/// dataset's node count — everything a restored session must agree on
/// before its answers can be meaningful.
fn serve_fingerprint(model: &TgnModel, dataset: &Dataset) -> String {
    format!(
        "{}\nnodes={}",
        serde_json::to_string(&model.cfg).expect("model config serializes"),
        dataset.graph.num_nodes()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use disttgl_data::generators;
    use disttgl_tensor::seeded_rng;

    fn link_setup(n_layers: usize) -> (disttgl_data::Dataset, TgnModel) {
        let d = generators::wikipedia(0.005, 21);
        let mut cfg = ModelConfig::compact(d.edge_features.cols()).with_layers(n_layers);
        cfg.n_neighbors = 5;
        let mut rng = seeded_rng(4);
        let model = TgnModel::new(cfg, &mut rng);
        (d, model)
    }

    #[test]
    fn query_is_read_only() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        s.ingest(&d.graph.events()[0..200]).unwrap();
        let before = s.memory_checksum();
        let reqs = vec![
            QueryRequest::LinkScore {
                src: d.graph.events()[10].src,
                dst: d.graph.events()[10].dst,
                t: 1e9,
            },
            QueryRequest::Embed {
                node: d.graph.events()[0].src,
                t: 1e9,
            },
        ];
        let resp = s.query(&reqs).unwrap();
        assert_eq!(resp.len(), 2);
        assert_eq!(resp[0].scores().len(), 1);
        assert_eq!(resp[1].embedding().len(), model.cfg.d_emb);
        assert_eq!(s.memory_checksum(), before, "query must not mutate memory");
        assert_eq!(
            s.adjacency().num_events(),
            200,
            "query must not mutate adjacency"
        );
    }

    /// Micro-batching must not change any request's answer: a batch of
    /// requests answers exactly as the same requests issued one by one
    /// (per-row purity through the whole stack).
    #[test]
    fn micro_batched_queries_equal_single_queries() {
        let (d, model) = link_setup(2);
        let mut s = ServeSession::new(&model, &d, None);
        s.ingest(&d.graph.events()[0..300]).unwrap();
        let ev = d.graph.events();
        let reqs: Vec<QueryRequest> = (0..8)
            .map(|i| QueryRequest::LinkScore {
                src: ev[i * 7].src,
                dst: ev[i * 11 + 3].dst,
                t: ev[299].t + 1.0,
            })
            .chain([QueryRequest::Embed {
                node: ev[5].src,
                t: ev[299].t + 1.0,
            }])
            .collect();
        let batched = s.query(&reqs).unwrap();
        for (i, r) in reqs.iter().enumerate() {
            let single = s.query(std::slice::from_ref(r)).unwrap();
            assert_eq!(single[0], batched[i], "request {i}");
        }
    }

    #[test]
    fn ingest_advances_stream_state() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        let stats = s.ingest(&d.graph.events()[0..64]).unwrap();
        assert_eq!(stats.events, 64);
        assert!(stats.rows_written > 0 && stats.rows_written <= 128);
        assert!(stats.rows_read > 0);
        assert_eq!(s.events_ingested(), 64);
        let more = s.ingest(&d.graph.events()[64..96]).unwrap();
        assert_eq!(more.events, 32);
        assert_eq!(s.events_ingested(), 96);
        assert_eq!(s.adjacency().num_events(), 96);
    }

    #[test]
    fn classification_queries_return_class_logits() {
        let d = generators::gdelt(2e-5, 13);
        let mut cfg = ModelConfig::compact(d.edge_features.cols()).with_classes(56);
        cfg.n_neighbors = 5;
        let mut rng = seeded_rng(6);
        let model = TgnModel::new(cfg, &mut rng);
        let mut s = ServeSession::new(&model, &d, None);
        s.ingest(&d.graph.events()[0..100]).unwrap();
        let e = &d.graph.events()[50];
        let resp = s
            .query(&[QueryRequest::LinkScore {
                src: e.src,
                dst: e.dst,
                t: 1e12,
            }])
            .unwrap();
        assert_eq!(resp[0].scores().len(), 56);
    }

    #[test]
    fn ingest_scored_scores_before_write() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        s.ingest(&d.graph.events()[0..100]).unwrap();
        let pre = s.memory_checksum();
        let slab: Vec<Event> = d.graph.events()[100..140].to_vec();
        let out = s.ingest_scored(&slab, &[]).unwrap();
        assert_eq!(out.event_scores.len(), 40);
        assert_eq!(out.stats.events, 40);
        assert_ne!(s.memory_checksum(), pre, "ingest applied the write");

        // Re-scoring the same candidates now (post-write) differs —
        // proof the scores were taken at the pre-slab memory point.
        let reqs: Vec<QueryRequest> = slab
            .iter()
            .map(|e| QueryRequest::LinkScore {
                src: e.src,
                dst: e.dst,
                t: e.t,
            })
            .collect();
        let post = s.query(&reqs).unwrap();
        assert_ne!(
            out.event_scores, post,
            "pre- and post-write scores should differ on a recurrent stream"
        );
    }

    /// Out-of-order delivery is a structured, recoverable error, not a
    /// panic: the stale events come back as indexed rejects and the
    /// session keeps serving.
    #[test]
    fn out_of_order_ingest_rejects_and_stays_usable() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        let ev = d.graph.events();
        s.ingest(&ev[10..20]).unwrap();
        let head = s.adjacency().stream_head();

        let err = s.ingest(&ev[0..5]).unwrap_err();
        let IngestError::Rejected { applied, rejected } = err;
        assert!(!rejected.is_empty());
        assert_eq!(applied.events + rejected.len(), 5);
        for &(i, fault) in &rejected {
            assert!(i < 5);
            assert!(
                matches!(fault, EventFault::OutOfOrder { t, head: h }
                    if t == ev[i].t && h == head),
                "event {i}: unexpected fault {fault}"
            );
        }

        // The session is fully usable afterwards: fresh events land and
        // queries answer.
        s.ingest(&ev[20..30]).unwrap();
        assert_eq!(s.adjacency().stream_head(), ev[29].t);
        s.query(&[QueryRequest::Embed {
            node: ev[25].src,
            t: ev[29].t + 1.0,
        }])
        .unwrap();
    }

    /// Batch-partial contract: a slab mixing valid and invalid events
    /// applies exactly the valid chronological subsequence and indexes
    /// each reject with its fault.
    #[test]
    fn mixed_slab_applies_valid_subsequence() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        let ev = d.graph.events();
        s.ingest(&ev[0..50]).unwrap();
        let n = d.graph.num_nodes() as u32;
        let head = s.adjacency().stream_head();

        let good_a = ev[50];
        let bad_node = Event { src: n, ..ev[51] };
        let bad_time = Event {
            t: head - 1.0,
            ..ev[52]
        };
        let bad_nan = Event {
            t: f32::NAN,
            ..ev[53]
        };
        let good_b = ev[54];
        let slab = [good_a, bad_node, bad_time, bad_nan, good_b];

        let err = s.ingest(&slab).unwrap_err();
        let IngestError::Rejected { applied, rejected } = err;
        assert_eq!(applied.events, 2, "both valid events applied");
        assert_eq!(rejected.len(), 3);
        assert!(matches!(
            rejected[0],
            (1, EventFault::NodeOutOfRange { node, num_nodes })
                if node == n && num_nodes == n
        ));
        assert!(matches!(rejected[1], (2, EventFault::OutOfOrder { .. })));
        assert!(matches!(rejected[2], (3, EventFault::NonFiniteTime { t }) if t.is_nan()));
        assert_eq!(s.adjacency().num_events(), 52);
        assert_eq!(s.events_ingested(), 52);
        assert_eq!(s.adjacency().stream_head(), good_b.t);

        // The applied subsequence is bit-identical to ingesting only
        // the valid events on a parallel session.
        let mut oracle = ServeSession::new(&model, &d, None);
        oracle.ingest(&ev[0..50]).unwrap();
        oracle.ingest(&[good_a, good_b]).unwrap();
        assert_eq!(s.memory_checksum(), oracle.memory_checksum());
    }

    /// Queries are atomic: an invalid operand reports a typed error,
    /// no state changes, and the session keeps answering.
    #[test]
    fn invalid_query_is_typed_and_atomic() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        let ev = d.graph.events();
        s.ingest(&ev[0..100]).unwrap();
        let before = s.memory_checksum();
        let n = d.graph.num_nodes() as u32;

        let err = s
            .query(&[
                QueryRequest::Embed {
                    node: ev[0].src,
                    t: 1e9,
                },
                QueryRequest::LinkScore {
                    src: ev[1].src,
                    dst: n + 7,
                    t: 1e9,
                },
            ])
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidRequest {
                request: 1,
                fault: EventFault::NodeOutOfRange {
                    node: n + 7,
                    num_nodes: n
                }
            }
        );
        let err = s
            .query(&[QueryRequest::Embed {
                node: ev[0].src,
                t: f32::INFINITY,
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidRequest {
                request: 0,
                fault: EventFault::NonFiniteTime { .. }
            }
        ));
        assert_eq!(s.memory_checksum(), before);
        s.query(&[QueryRequest::Embed {
            node: ev[0].src,
            t: 1e9,
        }])
        .unwrap();
    }

    /// `ingest_scored` is all-or-nothing: one bad event anywhere in the
    /// slab and nothing is appended, scored, or written.
    #[test]
    fn invalid_scored_slab_applies_nothing() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        let ev = d.graph.events();
        s.ingest(&ev[0..100]).unwrap();
        let before = s.memory_checksum();
        let n = d.graph.num_nodes() as u32;

        let mut slab: Vec<Event> = ev[100..110].to_vec();
        slab[7].dst = n + 1;
        let err = s.ingest_scored(&slab, &[]).unwrap_err();
        assert!(matches!(
            &err,
            ServeError::InvalidSlab { rejected }
                if rejected.len() == 1 && rejected[0].0 == 7
        ));
        assert_eq!(s.adjacency().num_events(), 100, "nothing appended");
        assert_eq!(s.memory_checksum(), before, "nothing written");

        // The untouched slab then scores bit-identically to a session
        // that never saw the bad event.
        let good: Vec<Event> = ev[100..110].to_vec();
        let out = s.ingest_scored(&good, &[]).unwrap();
        assert_eq!(out.stats.events, 10);
    }

    /// Checkpoint → restore answers queries bit-identically and keeps
    /// absorbing the stream exactly where the captured session left
    /// off.
    #[test]
    fn checkpoint_restore_roundtrips_bit_identically() {
        let (d, model) = link_setup(2);
        let ev = d.graph.events();
        let mut s = ServeSession::new(&model, &d, None);
        s.ingest(&ev[0..200]).unwrap();

        // Through the on-disk format, not just the in-memory struct.
        let dir = std::env::temp_dir().join("disttgl_serve_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.bin");
        s.checkpoint().save(&path).unwrap();
        let loaded = ServeCheckpoint::load(&path).unwrap();
        let mut r = ServeSession::restore(&model, &d, None, loaded).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(r.memory_checksum(), s.memory_checksum());
        assert_eq!(r.events_ingested(), s.events_ingested());
        assert_eq!(r.adjacency().num_events(), s.adjacency().num_events());
        assert_eq!(r.adjacency().stream_head(), s.adjacency().stream_head());

        let reqs: Vec<QueryRequest> = (0..6)
            .map(|i| QueryRequest::LinkScore {
                src: ev[i * 13].src,
                dst: ev[i * 17 + 1].dst,
                t: ev[199].t + 1.0,
            })
            .collect();
        assert_eq!(s.query(&reqs).unwrap(), r.query(&reqs).unwrap());

        // Continued ingest tracks the original bit for bit.
        s.ingest(&ev[200..260]).unwrap();
        r.ingest(&ev[200..260]).unwrap();
        assert_eq!(s.memory_checksum(), r.memory_checksum());
        assert_eq!(s.query(&reqs).unwrap(), r.query(&reqs).unwrap());
    }

    /// Restore refuses a capture from a different model configuration.
    #[test]
    fn restore_refuses_mismatched_model() {
        let (d, model) = link_setup(1);
        let mut s = ServeSession::new(&model, &d, None);
        s.ingest(&d.graph.events()[0..50]).unwrap();
        let ckpt = s.checkpoint();

        let (_, other) = link_setup(2);
        assert!(matches!(
            ServeSession::restore(&other, &d, None, ckpt),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    /// Store-routed serving checkpoints: `restore_latest` reopens the
    /// newest capture, falls back past a torn newest file, and
    /// retention GC trims older captures.
    #[test]
    fn store_restore_latest_falls_back_past_torn_capture() {
        let (d, model) = link_setup(1);
        let ev = d.graph.events();
        let dir =
            std::env::temp_dir().join(format!("disttgl_serve_store_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::recover::CheckpointStore::open(&dir, Some(3)).unwrap();

        let mut s = ServeSession::new(&model, &d, None);
        s.ingest(&ev[0..100]).unwrap();
        s.checkpoint_to(&store).unwrap();
        let good_checksum = s.memory_checksum();
        s.ingest(&ev[100..160]).unwrap();
        let newest = s.checkpoint_to(&store).unwrap();

        // Tear the newest capture: restore falls back to the 100-event
        // one instead of failing.
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let r = ServeSession::restore_latest(&model, &d, None, &store)
            .unwrap()
            .expect("older good capture exists");
        assert_eq!(r.events_ingested(), 100);
        assert_eq!(r.memory_checksum(), good_checksum);

        // Empty store → Ok(None), not an error.
        std::fs::remove_dir_all(&dir).ok();
        let empty = crate::recover::CheckpointStore::open(&dir, None).unwrap();
        assert!(ServeSession::restore_latest(&model, &d, None, &empty)
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
