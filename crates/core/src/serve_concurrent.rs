//! **Concurrent snapshot-read serving**: many reader threads answer
//! queries while a single writer thread advances the live graph +
//! memory — the multi-threaded form of [`ServeSession`], built on the
//! PR 3 MVCC version vector instead of a global serial lock.
//!
//! # Architecture
//!
//! * One [`ConcurrentServe`] owns the live state
//!   ([`DynamicTCsr`] + [`MemoryState`]) behind an `RwLock`, plus a
//!   bounded ingest queue with typed admission control
//!   ([`ServeError::Overloaded`]).
//! * **The writer** is whichever thread holds the writer mutex —
//!   typically one thread looping [`ConcurrentServe::run_writer`] over
//!   the queue. Validation and the GRU fold run *outside* the write
//!   lock (the mutex makes the writer the sole mutator, so rows read
//!   under a read lock cannot change before the apply); only the
//!   adjacency append + memory write + watermark bump hold the write
//!   lock, atomically. Readers therefore only ever observe
//!   slab-boundary states — never a half-applied slab.
//! * **Readers** ([`ConcurrentServe::query`]) run the optimistic
//!   gather → compute → validate protocol below, each with a private
//!   [`ReaderContext`] scratch arena (zero steady-state allocation on
//!   the gather path).
//!
//! # The reader protocol
//!
//! 1. **Gather** (read lock): sample the multi-hop frontier and take a
//!    version-tagged memory readout — a consistent snapshot at
//!    watermark `w₁`.
//! 2. **Compute** (no lock): edge features, attention stack, decoder —
//!    the dominant cost, fully overlapped with ingest.
//! 3. **Validate** (read lock): if the watermark is still `w₁` the
//!    answer is already serialized *now*. Otherwise resample the
//!    frontier and diff the gathered rows through
//!    [`MemoryState::repair`] — exactly the distributed
//!    trainer's speculative-gather repair. Untouched support set ⇒ the
//!    stage-2 answer is still exact at the new watermark (`Clean`).
//!    Stale rows only ⇒ repair them in place and recompute once
//!    ([`SnapshotDrift::Repaired`]). Frontier drift ⇒ take a full
//!    fresh snapshot under the same lock hold and recompute once
//!    ([`SnapshotDrift::Resampled`]).
//!
//! The retry snapshot is taken atomically, so its recomputed answer is
//! exact for that serialization point regardless of later writes — at
//! most one recompute, no livelock. Every answer is therefore
//! bit-identical to what a serialized [`ServeSession`] replaying the
//! same admitted slabs would answer at the reported
//! [`SnapshotAnswer::watermark`] (the snapshot-read contract in the
//! parent module docs; pinned by `tests/concurrent_serve_equivalence.rs`).

use super::{
    compute_responses, flatten_requests, fold_and_read, gather_snapshot, validate_event,
    validate_request, IngestError, IngestStats, QueryRequest, QueryResponse, QueryScratch,
    ServeError, ServeSession,
};
use crate::batch::MemoryAccess;
use crate::engine::InferenceEngine;
use crate::model::TgnModel;
use crate::static_mem::StaticMemory;
use disttgl_data::Dataset;
use disttgl_graph::{DynamicTCsr, Event, NeighborBlock, RecentNeighborSampler};
use disttgl_mem::{MemoryReadout, MemoryState};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::Duration;

/// Tuning knobs for [`ConcurrentServe`].
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentOptions {
    /// Capacity of the bounded ingest queue, in *events* (not slabs):
    /// an [`ConcurrentServe::enqueue_ingest`] that would push the
    /// queued-event count past this refuses with
    /// [`ServeError::Overloaded`].
    pub ingest_queue_capacity: usize,
}

impl Default for ConcurrentOptions {
    fn default() -> Self {
        Self {
            ingest_queue_capacity: 4096,
        }
    }
}

/// How a reader's speculative snapshot fared at validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotDrift {
    /// The support set was untouched — the speculative answer was
    /// returned as-is (no recompute). Either nothing was ingested
    /// in-flight, or the ingested slabs missed this query's frontier
    /// and rows entirely.
    Clean,
    /// The frontier was intact but some gathered memory rows were
    /// rewritten in-flight; they were repaired in place
    /// ([`MemoryState::repair`]) and the answer recomputed once.
    Repaired {
        /// Stale rows patched.
        rows: usize,
    },
    /// The ingested events changed this query's sampled frontier; a
    /// full fresh snapshot was taken and the answer recomputed once.
    Resampled,
}

/// One answered query micro-batch, tagged with its serialization
/// point.
#[derive(Clone, Debug)]
pub struct SnapshotAnswer {
    /// Responses in request order — bit-identical to a serialized
    /// [`ServeSession`]'s answer at `watermark`.
    pub responses: Vec<QueryResponse>,
    /// The applied-slab count this answer is serialized at: replaying
    /// the first `watermark` admitted slabs into a fresh session and
    /// querying reproduces `responses` exactly.
    pub watermark: u64,
    /// Events in the adjacency at the serialization point.
    pub events_seen: usize,
    /// What validation observed and did.
    pub drift: SnapshotDrift,
}

/// Point-in-time counters of a [`ConcurrentServe`] (monotone since
/// construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConcurrentStats {
    /// Query micro-batches answered.
    pub queries_answered: u64,
    /// Answers validated clean (no recompute paid).
    pub clean_queries: u64,
    /// Answers that repaired stale rows and recomputed once.
    pub repaired_queries: u64,
    /// Total stale rows repaired across all queries.
    pub repaired_rows: u64,
    /// Answers that took a full second snapshot (frontier drift).
    pub resampled_queries: u64,
    /// Slabs applied to the live state (the current watermark).
    pub slabs_applied: u64,
    /// Events applied to the live state.
    pub events_applied: u64,
    /// Events refused by per-event validation (stream-order etc.).
    pub events_rejected: u64,
    /// Enqueue attempts refused by admission control.
    pub backpressure_rejections: u64,
    /// High-water mark of queued events.
    pub max_queue_depth: u64,
}

#[derive(Default)]
struct Counters {
    queries_answered: AtomicU64,
    clean_queries: AtomicU64,
    repaired_queries: AtomicU64,
    repaired_rows: AtomicU64,
    resampled_queries: AtomicU64,
    slabs_applied: AtomicU64,
    events_applied: AtomicU64,
    events_rejected: AtomicU64,
    backpressure_rejections: AtomicU64,
    max_queue_depth: AtomicU64,
}

/// Per-reader-thread state: the inference engine (attention scratch)
/// plus the query scratch arena. One per thread, reused across calls —
/// the steady-state query path allocates only its responses.
#[derive(Default)]
pub struct ReaderContext {
    engine: InferenceEngine,
    scratch: QueryScratch,
    /// Revalidation resample target (compared against the speculative
    /// frontier before deciding to repair or resample).
    check_hops: Vec<NeighborBlock>,
}

impl ReaderContext {
    /// A fresh context (buffers grow to the working set on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The live mutable state, guarded as one unit so slabs apply
/// atomically from any reader's point of view.
struct LiveState {
    adj: DynamicTCsr,
    memory: MemoryState,
    ingested: usize,
    /// Applied-slab count — the serialization watermark readers report.
    watermark: u64,
}

struct IngestQueue {
    slabs: VecDeque<Vec<Event>>,
    /// Events currently queued (admission-control quantity).
    pending_events: usize,
}

/// Read-only [`MemoryAccess`] view for the writer's out-of-lock GRU
/// fold: `memory_write_events` only reads (it returns its write), so
/// the write arm is unreachable by construction.
struct SnapshotMem<'g>(&'g MemoryState);

impl MemoryAccess for SnapshotMem<'_> {
    fn read_into(&mut self, nodes: &[u32], out: &mut MemoryReadout) {
        self.0.read_into(nodes, out);
    }
    fn write(&mut self, _w: disttgl_mem::MemoryWrite) {
        unreachable!("ingest computes its write outside the write lock and applies it under it");
    }
}

/// Multi-threaded serving plane (see the module docs): `Sync`, shared
/// by reference across scoped reader/writer threads.
pub struct ConcurrentServe<'a> {
    model: &'a TgnModel,
    dataset: &'a Dataset,
    static_mem: Option<&'a StaticMemory>,
    sampler: RecentNeighborSampler,
    dedup: bool,
    live: RwLock<LiveState>,
    /// Serializes writers and owns the ingest engine scratch.
    writer: Mutex<InferenceEngine>,
    queue: Mutex<IngestQueue>,
    queue_cv: Condvar,
    capacity: usize,
    counters: Counters,
}

impl<'a> ConcurrentServe<'a> {
    /// Opens a concurrent plane with an empty graph and zeroed memory.
    pub fn new(
        model: &'a TgnModel,
        dataset: &'a Dataset,
        static_mem: Option<&'a StaticMemory>,
        opts: ConcurrentOptions,
    ) -> Self {
        Self::from_session(ServeSession::new(model, dataset, static_mem), opts)
    }

    /// Warm-starts from a single-threaded session (its ingested
    /// history, memory, and engine scratch carry over; the watermark
    /// restarts at 0 — pre-existing history is the replay prefix, not
    /// an admitted slab).
    pub fn from_session(session: ServeSession<'a>, opts: ConcurrentOptions) -> Self {
        let ServeSession {
            model,
            dataset,
            static_mem,
            adj,
            memory,
            engine,
            sampler,
            dedup,
            ingested,
            scratch: _,
        } = session;
        Self {
            model,
            dataset,
            static_mem,
            sampler,
            dedup,
            live: RwLock::new(LiveState {
                adj,
                memory,
                ingested,
                watermark: 0,
            }),
            writer: Mutex::new(engine),
            queue: Mutex::new(IngestQueue {
                slabs: VecDeque::new(),
                pending_events: 0,
            }),
            queue_cv: Condvar::new(),
            capacity: opts.ingest_queue_capacity.max(1),
            counters: Counters::default(),
        }
    }

    /// Collapses back into a single-threaded session (checkpointing,
    /// serialized replay tooling). Drains any queued slabs first, so
    /// no admitted work is lost.
    pub fn into_session(self) -> ServeSession<'a> {
        self.drain_queue();
        let live = self.live.into_inner().expect("live state poisoned");
        let engine = self.writer.into_inner().expect("writer engine poisoned");
        ServeSession {
            model: self.model,
            dataset: self.dataset,
            static_mem: self.static_mem,
            adj: live.adj,
            memory: live.memory,
            engine,
            sampler: self.sampler,
            dedup: self.dedup,
            ingested: live.ingested,
            scratch: QueryScratch::default(),
        }
    }

    /// The applied-slab count (the current serialization watermark).
    pub fn watermark(&self) -> u64 {
        self.live.read().expect("live state poisoned").watermark
    }

    /// Events absorbed into the live state so far.
    pub fn events_ingested(&self) -> usize {
        self.live.read().expect("live state poisoned").ingested
    }

    /// Events in the live adjacency.
    pub fn num_events(&self) -> usize {
        self.live
            .read()
            .expect("live state poisoned")
            .adj
            .num_events()
    }

    /// Content digest of the live node memory (the equivalence-suite
    /// quantity).
    pub fn memory_checksum(&self) -> u64 {
        self.live
            .read()
            .expect("live state poisoned")
            .memory
            .checksum()
    }

    /// One atomic observation of `(watermark, adjacency events, memory
    /// checksum)` under a single read-lock hold — the probe the
    /// mid-slab-atomicity test sweeps: every observation must land
    /// exactly on a slab boundary of the serialized replay.
    pub fn consistency_probe(&self) -> (u64, usize, u64) {
        let live = self.live.read().expect("live state poisoned");
        (
            live.watermark,
            live.adj.num_events(),
            live.memory.checksum(),
        )
    }

    /// Events currently waiting in the ingest queue.
    pub fn queued_events(&self) -> usize {
        self.queue.lock().expect("queue poisoned").pending_events
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ConcurrentStats {
        let c = &self.counters;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ConcurrentStats {
            queries_answered: ld(&c.queries_answered),
            clean_queries: ld(&c.clean_queries),
            repaired_queries: ld(&c.repaired_queries),
            repaired_rows: ld(&c.repaired_rows),
            resampled_queries: ld(&c.resampled_queries),
            slabs_applied: ld(&c.slabs_applied),
            events_applied: ld(&c.events_applied),
            events_rejected: ld(&c.events_rejected),
            backpressure_rejections: ld(&c.backpressure_rejections),
            max_queue_depth: ld(&c.max_queue_depth),
        }
    }

    /// Submits a slab to the bounded ingest queue (the request
    /// router's ingest side). Admission control is typed: a queue past
    /// capacity refuses with [`ServeError::Overloaded`] and queues
    /// nothing — the caller sheds or retries after the writer drains.
    pub fn enqueue_ingest(&self, slab: Vec<Event>) -> Result<(), ServeError> {
        if slab.is_empty() {
            return Ok(());
        }
        let mut q = self.queue.lock().expect("queue poisoned");
        if q.pending_events + slab.len() > self.capacity {
            self.counters
                .backpressure_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                queued_events: q.pending_events,
                capacity: self.capacity,
            });
        }
        q.pending_events += slab.len();
        q.slabs.push_back(slab);
        let depth = q.pending_events as u64;
        drop(q);
        self.counters
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Applies every currently queued slab in admission (FIFO) order;
    /// returns the slab count applied. Per-event rejects are absorbed
    /// into [`ConcurrentStats::events_rejected`] — the queue admitted
    /// the slab, so the valid chronological subsequence still lands
    /// (the batch-partial ingest contract).
    pub fn drain_queue(&self) -> usize {
        let mut applied = 0usize;
        loop {
            let slab = {
                let mut q = self.queue.lock().expect("queue poisoned");
                match q.slabs.pop_front() {
                    Some(s) => {
                        q.pending_events -= s.len();
                        Some(s)
                    }
                    None => None,
                }
            };
            let Some(slab) = slab else { return applied };
            let _ = self.ingest(&slab);
            applied += 1;
        }
    }

    /// The writer thread's body: drain the queue, sleep on the
    /// condvar, repeat — until `stop` is raised *and* the queue is
    /// empty (a clean shutdown applies everything that was admitted).
    pub fn run_writer(&self, stop: &AtomicBool) {
        loop {
            self.drain_queue();
            let q = self.queue.lock().expect("queue poisoned");
            if !q.slabs.is_empty() {
                continue;
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
            // Timed wait so a raised stop flag is observed promptly
            // even when no producer ever signals again.
            let _ = self
                .queue_cv
                .wait_timeout(q, Duration::from_millis(2))
                .expect("queue poisoned");
        }
    }

    /// Synchronous ingest of one slab — the writer-side primitive
    /// behind [`ConcurrentServe::drain_queue`], also callable directly
    /// when the caller *is* the writer thread. Batch-partial with the
    /// exact semantics (and arithmetic) of [`ServeSession::ingest`].
    ///
    /// Concurrency: writers serialize on the writer mutex; validation
    /// and the GRU fold run outside the write lock (sole-mutator
    /// argument — see the module docs), and the adjacency append +
    /// memory write + watermark bump apply under one write-lock hold,
    /// so readers only ever observe slab boundaries.
    pub fn ingest(&self, events: &[Event]) -> Result<IngestStats, IngestError> {
        let mut engine = self.writer.lock().expect("writer engine poisoned");
        let mut head = self
            .live
            .read()
            .expect("live state poisoned")
            .adj
            .stream_head();
        let mut accepted: Vec<Event> = Vec::with_capacity(events.len());
        let mut rejected: Vec<(usize, super::EventFault)> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match validate_event(self.dataset, e, head) {
                Some(fault) => rejected.push((i, fault)),
                None => {
                    head = e.t;
                    accepted.push(*e);
                }
            }
        }
        let applied = if accepted.is_empty() {
            IngestStats::default()
        } else {
            let (w, rows_read) = {
                let live = self.live.read().expect("live state poisoned");
                let mut snapshot = SnapshotMem(&live.memory);
                engine.memory_write_events(self.model, self.dataset, &accepted, &mut snapshot)
            };
            let stats = IngestStats {
                events: accepted.len(),
                rows_written: w.nodes.len(),
                rows_read,
            };
            {
                let mut live = self.live.write().expect("live state poisoned");
                live.adj.append_events(&accepted);
                live.memory.write(&w);
                live.ingested += accepted.len();
                live.watermark += 1;
            }
            self.counters.slabs_applied.fetch_add(1, Ordering::Relaxed);
            self.counters
                .events_applied
                .fetch_add(accepted.len() as u64, Ordering::Relaxed);
            stats
        };
        drop(engine);
        if rejected.is_empty() {
            Ok(applied)
        } else {
            self.counters
                .events_rejected
                .fetch_add(rejected.len() as u64, Ordering::Relaxed);
            Err(IngestError::Rejected { applied, rejected })
        }
    }

    /// Answers one query micro-batch through the optimistic MVCC
    /// protocol (see the module docs). Atomic and read-only like
    /// [`ServeSession::query`]: invalid operands come back as typed
    /// errors before any work, and the live state is never touched.
    pub fn query(
        &self,
        requests: &[QueryRequest],
        cx: &mut ReaderContext,
    ) -> Result<SnapshotAnswer, ServeError> {
        if requests.is_empty() {
            let (watermark, events_seen, _) = self.consistency_probe();
            return Ok(SnapshotAnswer {
                responses: Vec::new(),
                watermark,
                events_seen,
                drift: SnapshotDrift::Clean,
            });
        }
        for (i, r) in requests.iter().enumerate() {
            if let Some(fault) = validate_request(self.dataset, r) {
                return Err(ServeError::InvalidRequest { request: i, fault });
            }
        }
        flatten_requests(requests, &mut cx.scratch);

        // Stage 1 — speculative snapshot at watermark w1.
        let (w1, ev1) = {
            let live = self.live.read().expect("live state poisoned");
            gather_snapshot(
                &self.sampler,
                self.dedup,
                &live.adj,
                &live.memory,
                &mut cx.scratch,
            );
            (live.watermark, live.adj.num_events())
        };

        // Stage 2 — lock-free compute (the dominant cost).
        let responses = compute_responses(
            self.model,
            self.dataset,
            self.static_mem,
            &mut cx.engine,
            self.dedup,
            requests,
            &mut cx.scratch,
        );

        // Stage 3 — validate at the serialization point; repair or
        // retake the snapshot under the lock if the support set
        // drifted. A snapshot fixed under this lock hold is exact for
        // that point, so one recompute suffices — no revalidation.
        enum Post {
            Done(SnapshotDrift, u64, usize),
            Recompute(SnapshotDrift, u64, usize),
        }
        let post = {
            let live = self.live.read().expect("live state poisoned");
            if live.watermark == w1 {
                Post::Done(SnapshotDrift::Clean, w1, ev1)
            } else {
                let (w2, ev2) = (live.watermark, live.adj.num_events());
                self.sampler.sample_hops_into(
                    &live.adj,
                    &cx.scratch.roots,
                    &cx.scratch.times,
                    &mut cx.check_hops,
                );
                if hops_equal(&cx.scratch.hops, &cx.check_hops) {
                    let nodes: &[u32] = if self.dedup {
                        &cx.scratch.uniq.unique_nodes
                    } else {
                        &cx.scratch.occ
                    };
                    let patched = live
                        .memory
                        .repair(
                            nodes,
                            &cx.scratch.readout.versions,
                            &mut cx.scratch.readout.readout,
                            0,
                        )
                        .repaired;
                    if patched == 0 {
                        Post::Done(SnapshotDrift::Clean, w2, ev2)
                    } else {
                        Post::Recompute(SnapshotDrift::Repaired { rows: patched }, w2, ev2)
                    }
                } else {
                    std::mem::swap(&mut cx.scratch.hops, &mut cx.check_hops);
                    fold_and_read(self.dedup, &live.memory, &mut cx.scratch);
                    Post::Recompute(SnapshotDrift::Resampled, w2, ev2)
                }
            }
        };
        let (responses, drift, watermark, events_seen) = match post {
            Post::Done(d, w, ev) => (responses, d, w, ev),
            Post::Recompute(d, w, ev) => {
                let responses = compute_responses(
                    self.model,
                    self.dataset,
                    self.static_mem,
                    &mut cx.engine,
                    self.dedup,
                    requests,
                    &mut cx.scratch,
                );
                (responses, d, w, ev)
            }
        };

        self.counters
            .queries_answered
            .fetch_add(1, Ordering::Relaxed);
        match drift {
            SnapshotDrift::Clean => {
                self.counters.clean_queries.fetch_add(1, Ordering::Relaxed);
            }
            SnapshotDrift::Repaired { rows } => {
                self.counters
                    .repaired_queries
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .repaired_rows
                    .fetch_add(rows as u64, Ordering::Relaxed);
            }
            SnapshotDrift::Resampled => {
                self.counters
                    .resampled_queries
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(SnapshotAnswer {
            responses,
            watermark,
            events_seen,
            drift,
        })
    }

    /// The reader pool: answers `jobs` across `readers` scoped
    /// threads, each with its own [`ReaderContext`], pulling work off
    /// a shared cursor. Results come back in job order.
    pub fn answer_all(
        &self,
        jobs: &[Vec<QueryRequest>],
        readers: usize,
    ) -> Vec<Result<SnapshotAnswer, ServeError>> {
        assert!(readers >= 1, "reader pool needs at least one thread");
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SnapshotAnswer, ServeError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..readers {
                s.spawn(|| {
                    let mut cx = ReaderContext::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let out = self.query(&jobs[i], &mut cx);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job answered")
            })
            .collect()
    }
}

/// Bit-exact frontier comparison: two sampled multi-hop frontiers are
/// interchangeable iff every hop's shape, slots, and times agree.
fn hops_equal(a: &[NeighborBlock], b: &[NeighborBlock]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.k == y.k
                && x.counts == y.counts
                && x.nbrs == y.nbrs
                && x.eids == y.eids
                && x.ts == y.ts
                && x.dts == y.dts
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use disttgl_data::generators;
    use disttgl_tensor::seeded_rng;

    fn setup(n_layers: usize) -> (disttgl_data::Dataset, TgnModel) {
        let d = generators::wikipedia(0.005, 21);
        let mut cfg = ModelConfig::compact(d.edge_features.cols()).with_layers(n_layers);
        cfg.n_neighbors = 5;
        let mut rng = seeded_rng(4);
        let model = TgnModel::new(cfg, &mut rng);
        (d, model)
    }

    fn jobs_from(ev: &[Event], t: f32, n: usize) -> Vec<Vec<QueryRequest>> {
        (0..n)
            .map(|i| {
                vec![
                    QueryRequest::LinkScore {
                        src: ev[(i * 7) % ev.len()].src,
                        dst: ev[(i * 11 + 3) % ev.len()].dst,
                        t,
                    },
                    QueryRequest::Embed {
                        node: ev[(i * 5) % ev.len()].src,
                        t,
                    },
                ]
            })
            .collect()
    }

    /// A quiescent concurrent plane answers exactly like the
    /// single-threaded session it was warm-started from, and reports
    /// clean snapshots.
    #[test]
    fn quiescent_queries_match_session_bit_for_bit() {
        let (d, model) = setup(2);
        let ev = d.graph.events();
        let mut session = ServeSession::new(&model, &d, None);
        session.ingest(&ev[0..300]).unwrap();
        let mut oracle = ServeSession::new(&model, &d, None);
        oracle.ingest(&ev[0..300]).unwrap();

        let serve = ConcurrentServe::from_session(session, ConcurrentOptions::default());
        let t = ev[299].t + 1.0;
        let jobs = jobs_from(ev, t, 6);
        let answers = serve.answer_all(&jobs, 2);
        for (job, ans) in jobs.iter().zip(&answers) {
            let ans = ans.as_ref().unwrap();
            assert_eq!(ans.drift, SnapshotDrift::Clean);
            assert_eq!(ans.watermark, 0);
            assert_eq!(ans.responses, oracle.query(job).unwrap());
        }
        let stats = serve.stats();
        assert_eq!(stats.queries_answered, 6);
        assert_eq!(stats.clean_queries, 6);
    }

    /// Ingest through the concurrent plane advances state bit-identically
    /// to the serialized session, and the roundtrip back to a session
    /// preserves everything.
    #[test]
    fn ingest_and_roundtrip_match_serialized_session() {
        let (d, model) = setup(1);
        let ev = d.graph.events();
        let serve = ConcurrentServe::new(&model, &d, None, ConcurrentOptions::default());
        let mut oracle = ServeSession::new(&model, &d, None);
        for slab in ev[0..240].chunks(40) {
            serve.ingest(slab).unwrap();
            oracle.ingest(slab).unwrap();
        }
        assert_eq!(serve.watermark(), 6);
        assert_eq!(serve.events_ingested(), 240);
        assert_eq!(serve.memory_checksum(), oracle.memory_checksum());

        let mut back = serve.into_session();
        assert_eq!(back.events_ingested(), 240);
        assert_eq!(back.memory_checksum(), oracle.memory_checksum());
        let reqs = vec![QueryRequest::LinkScore {
            src: ev[10].src,
            dst: ev[20].dst,
            t: ev[239].t + 1.0,
        }];
        assert_eq!(back.query(&reqs).unwrap(), oracle.query(&reqs).unwrap());
    }

    /// Admission control: a full queue refuses with the typed
    /// `Overloaded` error and queues nothing; draining frees capacity
    /// and the drained slabs land in FIFO order.
    #[test]
    fn bounded_queue_backpressure_and_fifo_drain() {
        let (d, model) = setup(1);
        let ev = d.graph.events();
        let serve = ConcurrentServe::new(
            &model,
            &d,
            None,
            ConcurrentOptions {
                ingest_queue_capacity: 50,
            },
        );
        serve.enqueue_ingest(ev[0..30].to_vec()).unwrap();
        serve.enqueue_ingest(ev[30..50].to_vec()).unwrap();
        let err = serve.enqueue_ingest(ev[50..60].to_vec()).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                queued_events: 50,
                capacity: 50
            }
        );
        assert_eq!(serve.queued_events(), 50, "refused slab queued nothing");
        assert_eq!(serve.drain_queue(), 2);
        assert_eq!(serve.queued_events(), 0);
        serve.enqueue_ingest(ev[50..60].to_vec()).unwrap();
        assert_eq!(serve.drain_queue(), 1);

        // Replay with the same slab boundaries — the GRU fold reads
        // memory at slab start, so slab partitioning is part of state.
        let mut oracle = ServeSession::new(&model, &d, None);
        oracle.ingest(&ev[0..30]).unwrap();
        oracle.ingest(&ev[30..50]).unwrap();
        oracle.ingest(&ev[50..60]).unwrap();
        assert_eq!(serve.memory_checksum(), oracle.memory_checksum());
        assert_eq!(serve.stats().backpressure_rejections, 1);
        assert_eq!(serve.stats().max_queue_depth, 50);
    }

    /// The batch-partial ingest contract carries over: rejects are
    /// indexed, the valid subsequence lands, and the reject counter
    /// advances.
    #[test]
    fn concurrent_ingest_is_batch_partial() {
        let (d, model) = setup(1);
        let ev = d.graph.events();
        let serve = ConcurrentServe::new(&model, &d, None, ConcurrentOptions::default());
        serve.ingest(&ev[10..20]).unwrap();
        let err = serve.ingest(&ev[0..5]).unwrap_err();
        let IngestError::Rejected { applied, rejected } = err;
        assert_eq!(applied.events + rejected.len(), 5);
        assert_eq!(serve.stats().events_rejected, rejected.len() as u64);
        // Still fully usable.
        serve.ingest(&ev[20..30]).unwrap();
        assert_eq!(serve.num_events(), 20);
    }

    /// An invalid query is typed and touches nothing — even while the
    /// plane holds live state behind locks.
    #[test]
    fn invalid_query_is_typed_and_atomic() {
        let (d, model) = setup(1);
        let ev = d.graph.events();
        let serve = ConcurrentServe::new(&model, &d, None, ConcurrentOptions::default());
        serve.ingest(&ev[0..100]).unwrap();
        let before = serve.memory_checksum();
        let n = d.graph.num_nodes() as u32;
        let mut cx = ReaderContext::new();
        let err = serve
            .query(
                &[QueryRequest::LinkScore {
                    src: ev[0].src,
                    dst: n + 3,
                    t: 1e9,
                }],
                &mut cx,
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest { request: 0, .. }));
        assert_eq!(serve.memory_checksum(), before);
        assert_eq!(serve.stats().queries_answered, 0);
    }
}
