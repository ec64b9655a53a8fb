//! The two-stage, double-buffered **pipelined batch-prefetch
//! executor** (the overlap the paper's throughput figures assume —
//! "we sample the mini-batch in advance", §4.0.2 — generalized to the
//! whole preparation phase).
//!
//! # Phase split
//!
//! [`BatchPreparer::prepare`](crate::BatchPreparer::prepare) decomposes
//! into:
//!
//! 1. **Phase 1 — memory-independent**
//!    ([`BatchPreparer::prepare_static`](crate::BatchPreparer::prepare_static)):
//!    most-recent-k neighbor sampling over the immutable T-CSR,
//!    negative slicing, edge-feature/label gathers, and assembly of the
//!    serialized read's node list. Depends only on the dataset and the
//!    schedule, so it may run arbitrarily far ahead.
//! 2. **Phase 2 — memory-dependent**
//!    ([`BatchPreparer::finish`](crate::BatchPreparer::finish)): the
//!    single node-memory row gather plus readout splitting. Must
//!    observe the previous batch's [`MemoryWrite`](disttgl_mem::MemoryWrite)
//!    — on the daemon path this is the trainer's serialized
//!    `(R…)(W…)` turn (see `disttgl_mem::daemon`), on the direct path
//!    it is plain program order.
//!
//! # Double buffering
//!
//! A [`BatchPrefetcher`] owns one worker thread running phase 1. The
//! trainer keeps exactly one request in flight: while it computes
//! batch *t*, the worker samples batch *t + 1*; at the top of the next
//! iteration the trainer receives the finished [`StaticBatch`],
//! immediately issues the request for *t + 2*, runs phase 2 in its
//! serialized memory turn, and trains. Prep latency is hidden behind
//! compute without ever reordering a memory read past a pending write.
//!
//! # Overlapping the memory gather (phase 2)
//!
//! With [`BatchPrefetcher::spawn_with_memory`] the worker also gathers
//! batch *t + 1*'s memory rows concurrently with compute of batch *t*,
//! through a [`SharedMemory`] read lock. Two protocols make that exact:
//!
//! * **Eager-write scheduling** (what the single-GPU executor uses):
//!   the trainer applies batch *t*'s `MemoryWrite` the moment the
//!   forward pass produces it
//!   ([`TgnModel::train_step_eager_write`](crate::TgnModel::train_step_eager_write))
//!   and only then issues the gather request, so the worker reads a
//!   fully up-to-date state during the backward pass — the bulk of
//!   step compute — with zero staleness.
//! * **Speculative gather + repair** (the distributed trainer, against
//!   the daemon — see `disttgl_mem::daemon`): a version-tagged gather
//!   is posted out of turn, and the lane's serialized read slot then
//!   repairs, in place, exactly the rows written since
//!   ([`disttgl_mem::ReadRequest::Repair`], [`MemoryState::repair`]).
//!   Note that with most-recent-k sampling on recurrence-heavy
//!   streams, the written nodes can dominate the next readout (~90%
//!   of readout rows measured on the Table 2 analogs), making
//!   eager-write scheduling the profitable protocol whenever the
//!   write is available early. With the deduplicated readout
//!   (`ModelConfig::dedup_readout`, default) the gathered block holds
//!   one row per unique node per part, so a repair rewrites each stale
//!   node once per part instead of once per occurrence — the repair
//!   *volume* shrinks by the batch's occurrence/unique row ratio,
//!   though the stale *fraction* of rows stays high (most unique nodes
//!   of batch `t + 1` were just written by batch `t`), so the
//!   eager-write preference stands.
//!
//! Requests whose use would cross an epoch reset leave `gather_memory`
//! off and fall back to the serialized gather.
//!
//! # Correctness
//!
//! Phase 1 is a pure function of `(dataset, csr, range, negatives)`,
//! and phase 2 — serialized or speculative-plus-repair — yields the
//! identical readout in the identical serialized slot as the
//! sequential path, so the pipelined executor is *bit-identical* to
//! [`train_single`](crate::train_single) / the non-prefetching
//! distributed trainer — enforced by the equivalence tests in
//! `tests/pipeline_equivalence.rs` and by `train_distributed`'s
//! determinism tests running with prefetch on.

use crate::batch::{BatchPreparer, StaticBatch};
use crate::config::ModelConfig;
use disttgl_data::{Dataset, NegativeStore};
use disttgl_graph::TCsr;
use disttgl_mem::{MemoryReadout, MemoryState};
use std::ops::Range;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

/// Node memory shared between a trainer and its prefetch worker for
/// the overlapped phase-2 gather. The trainer takes the write lock
/// for `MemoryWrite`s and epoch resets; the worker takes the read lock
/// only while gathering.
pub type SharedMemory = Arc<RwLock<MemoryState>>;

/// Ignores lock poisoning: the guarded [`MemoryState`] has no
/// invariant a panicking reader could have broken mid-update, and a
/// poisoned trainer panic already aborts the run.
pub(crate) fn read_lock(mem: &SharedMemory) -> std::sync::RwLockReadGuard<'_, MemoryState> {
    mem.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-side counterpart of [`read_lock`].
pub(crate) fn write_lock(mem: &SharedMemory) -> std::sync::RwLockWriteGuard<'_, MemoryState> {
    mem.write().unwrap_or_else(|e| e.into_inner())
}

/// One phase-1 work order: prepare the memory-independent part of the
/// batch covering `range` with the given pre-sliced negative sets.
#[derive(Clone, Debug)]
pub struct PrefetchRequest {
    /// Event range of the (local) batch.
    pub range: Range<usize>,
    /// Flat negative destination sets, one per epoch-parallel pass
    /// (empty for classification tasks).
    pub negs: Vec<Vec<u32>>,
    /// Negatives per event within each set.
    pub negs_per_event: usize,
    /// Also gather the node-memory rows from the shared memory (only
    /// honored by workers spawned with
    /// [`BatchPrefetcher::spawn_with_memory`]). The gather is exact
    /// only if no write lands between it and its use — true under
    /// eager-write scheduling; requests whose use crosses an epoch
    /// reset must leave this `false`.
    pub gather_memory: bool,
}

/// A prefetched batch: phase-1 output plus, when requested, the full
/// memory readout gathered by the worker (exact under eager-write
/// scheduling).
pub struct PrefetchedBatch {
    /// The memory-independent batch parts.
    pub sb: StaticBatch,
    /// Full readout in `sb.nodes()` row order.
    pub readout: Option<MemoryReadout>,
}

impl PrefetchRequest {
    /// Builds the request for `range` at epoch-equivalent `epoch`,
    /// slicing `passes` negative sets from the store (none for
    /// classification datasets, which have no store).
    pub fn for_epoch(
        store: Option<&NegativeStore>,
        epoch: usize,
        passes: usize,
        range: Range<usize>,
        negs_per_event: usize,
    ) -> Self {
        let negs = match store {
            Some(store) => (0..passes)
                .map(|p| {
                    let group = store.group_for_epoch(epoch + p);
                    store.slice(group, range.clone()).to_vec()
                })
                .collect(),
            None => Vec::new(),
        };
        Self {
            range,
            negs,
            negs_per_event,
            gather_memory: false,
        }
    }
}

/// A phase-1 prefetch worker bound to one trainer.
///
/// Keeps at most a small number of requests in flight (the executor
/// uses exactly one — double buffering); requests complete in FIFO
/// order, so responses match requests positionally.
pub struct BatchPrefetcher {
    req_tx: Option<Sender<PrefetchRequest>>,
    resp_rx: Receiver<PrefetchedBatch>,
    handle: Option<JoinHandle<()>>,
    in_flight: usize,
}

impl BatchPrefetcher {
    /// Spawns a phase-1-only worker. The worker owns shared handles to
    /// the immutable dataset and T-CSR — it never touches node memory,
    /// so responses carry `readout: None`.
    pub fn spawn(dataset: Arc<Dataset>, csr: Arc<TCsr>, model_cfg: ModelConfig) -> Self {
        Self::spawn_inner(dataset, csr, model_cfg, None)
    }

    /// Spawns a worker that additionally serves phase-2 gathers from
    /// `memory` for requests with `gather_memory: true`. The gather
    /// runs under the read lock concurrently with trainer compute and
    /// is exact under eager-write scheduling, the way the single-GPU
    /// executor uses it.
    pub fn spawn_with_memory(
        dataset: Arc<Dataset>,
        csr: Arc<TCsr>,
        model_cfg: ModelConfig,
        memory: SharedMemory,
    ) -> Self {
        Self::spawn_inner(dataset, csr, model_cfg, Some(memory))
    }

    fn spawn_inner(
        dataset: Arc<Dataset>,
        csr: Arc<TCsr>,
        model_cfg: ModelConfig,
        memory: Option<SharedMemory>,
    ) -> Self {
        let (req_tx, req_rx) = std::sync::mpsc::channel::<PrefetchRequest>();
        let (resp_tx, resp_rx) = std::sync::mpsc::channel::<PrefetchedBatch>();
        let handle = std::thread::Builder::new()
            .name("disttgl-prefetch".into())
            .spawn(move || {
                let prep = BatchPreparer::new(&dataset, csr.as_ref(), &model_cfg);
                while let Ok(req) = req_rx.recv() {
                    let wants_readout = req.gather_memory;
                    let neg_refs: Vec<&[u32]> = req.negs.iter().map(Vec::as_slice).collect();
                    let sb = prep.prepare_static(req.range, &neg_refs, req.negs_per_event);
                    // The eager-write consumer never repairs this
                    // gather (it is exact by scheduling), so skip the
                    // version tagging; daemon-path speculation attaches
                    // its own tagged readout later.
                    let readout = match (&memory, wants_readout) {
                        (Some(mem), true) => Some(read_lock(mem).read(sb.nodes())),
                        _ => None,
                    };
                    if resp_tx.send(PrefetchedBatch { sb, readout }).is_err() {
                        // Trainer hung up; drain and exit.
                        break;
                    }
                }
            })
            .expect("spawn prefetch worker");
        Self {
            req_tx: Some(req_tx),
            resp_rx,
            handle: Some(handle),
            in_flight: 0,
        }
    }

    /// Enqueues a phase-1 request.
    pub fn request(&mut self, req: PrefetchRequest) {
        self.req_tx
            .as_ref()
            .expect("prefetcher closed")
            .send(req)
            .expect("prefetch worker died");
        self.in_flight += 1;
    }

    /// Blocks for the oldest in-flight request's result.
    ///
    /// # Panics
    /// Panics if no request is in flight or the worker died.
    pub fn recv(&mut self) -> PrefetchedBatch {
        assert!(self.in_flight > 0, "recv without a pending prefetch");
        let resp = self.resp_rx.recv().expect("prefetch worker died");
        self.in_flight -= 1;
        resp
    }

    /// Non-blocking [`BatchPrefetcher::recv`]: returns the oldest
    /// in-flight result if it is already finished, `None` otherwise
    /// (or when nothing is in flight). The distributed trainer polls
    /// this during continue/idle steps to start a speculative memory
    /// gather the moment the next batch's node list exists.
    ///
    /// # Panics
    /// Panics if the worker died.
    pub fn try_recv(&mut self) -> Option<PrefetchedBatch> {
        if self.in_flight == 0 {
            return None;
        }
        match self.resp_rx.try_recv() {
            Ok(resp) => {
                self.in_flight -= 1;
                Some(resp)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => panic!("prefetch worker died"),
        }
    }

    /// Number of requests issued but not yet received.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

impl Drop for BatchPrefetcher {
    fn drop(&mut self) {
        // Closing the request channel stops the worker loop.
        drop(self.req_tx.take());
        // Drain pending responses so the worker's sends don't block
        // (unbounded channel — sends never block, but be tidy).
        while self.in_flight > 0 {
            let _ = self.resp_rx.recv();
            self.in_flight -= 1;
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MemoryAccess;
    use disttgl_data::generators;
    use disttgl_mem::MemoryState;

    fn setup() -> (Arc<Dataset>, Arc<TCsr>, ModelConfig) {
        let d = generators::wikipedia(0.005, 3);
        let csr = TCsr::build(&d.graph);
        let cfg = ModelConfig::compact(d.edge_features.cols());
        (Arc::new(d), Arc::new(csr), cfg)
    }

    /// Phase-split composition must equal the one-shot path exactly.
    #[test]
    fn split_prepare_matches_one_shot() {
        let (d, csr, cfg) = setup();
        let prep = BatchPreparer::new(&d, csr.as_ref(), &cfg);
        let negs: Vec<u32> = (0..32).map(|i| d.graph.events()[i].dst).collect();

        let mut mem_a = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let one_shot = prep.prepare(0..32, &[&negs], 1, &mut mem_a);

        let mut mem_b = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let sb = prep.prepare_static(0..32, &[&negs], 1);
        assert_eq!(sb.len(), 32);
        assert!(sb.read_rows() > 0);
        let split = prep.finish(sb, &mut mem_b);

        assert_eq!(one_shot.pos.srcs, split.pos.srcs);
        let (a, b) = (
            one_shot.pos.readout.to_readout(),
            split.pos.readout.to_readout(),
        );
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.mail_ts, b.mail_ts);
        assert_eq!(one_shot.pos.nbr_feats, split.pos.nbr_feats);
        assert_eq!(one_shot.negs[0].negs, split.negs[0].negs);
        assert_eq!(
            one_shot.negs[0].readout.to_readout().mem,
            split.negs[0].readout.to_readout().mem
        );
    }

    /// The worker produces the same phase-1 output as an inline call,
    /// in FIFO order, one request ahead.
    #[test]
    fn prefetcher_is_fifo_and_exact() {
        let (d, csr, cfg) = setup();
        let prep = BatchPreparer::new(&d, csr.as_ref(), &cfg);
        let mut prefetcher = BatchPrefetcher::spawn(Arc::clone(&d), Arc::clone(&csr), cfg.clone());

        let ranges = [0usize..16, 16..48, 48..50];
        prefetcher.request(PrefetchRequest {
            range: ranges[0].clone(),
            negs: Vec::new(),
            negs_per_event: 1,
            gather_memory: false,
        });
        for (idx, range) in ranges.iter().enumerate() {
            let resp = prefetcher.recv();
            assert!(resp.readout.is_none(), "phase-1-only worker");
            if idx + 1 < ranges.len() {
                prefetcher.request(PrefetchRequest {
                    range: ranges[idx + 1].clone(),
                    negs: Vec::new(),
                    negs_per_event: 1,
                    gather_memory: false,
                });
            }
            let inline = prep.prepare_static(range.clone(), &[], 1);
            let mut mem_a = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
            let mut mem_b = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
            let a = prep.finish(resp.sb, &mut mem_a);
            let b = prep.finish(inline, &mut mem_b);
            assert_eq!(a.pos.srcs, b.pos.srcs, "range {range:?}");
            assert_eq!(
                a.pos.readout.to_readout().mem,
                b.pos.readout.to_readout().mem
            );
            assert_eq!(a.pos.event_feats, b.pos.event_feats);
        }
        assert_eq!(prefetcher.in_flight(), 0);
    }

    /// Reads served through `finish` observe writes applied after the
    /// phase-1 prefetch was issued — the memory-dependency rule.
    #[test]
    fn finish_sees_writes_issued_after_prefetch() {
        let (d, csr, cfg) = setup();
        let prep = BatchPreparer::new(&d, csr.as_ref(), &cfg);
        let mut prefetcher = BatchPrefetcher::spawn(Arc::clone(&d), Arc::clone(&csr), cfg.clone());
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());

        prefetcher.request(PrefetchRequest {
            range: 0..8,
            negs: Vec::new(),
            negs_per_event: 1,
            gather_memory: false,
        });
        // A write lands *after* the prefetch was issued…
        let node = d.graph.events()[0].src;
        let w = disttgl_mem::MemoryWrite {
            nodes: vec![node],
            mem: disttgl_tensor::Matrix::full(1, cfg.d_mem, 0.5),
            mem_ts: vec![1.0],
            mail: disttgl_tensor::Matrix::full(1, cfg.mail_dim(), 0.25),
            mail_ts: vec![1.0],
        };
        MemoryAccess::write(&mut mem, w);
        // …and phase 2 must observe it.
        let batch = prep.finish(prefetcher.recv().sb, &mut mem);
        let row = batch
            .pos
            .srcs
            .iter()
            .position(|&n| n == node)
            .expect("event 0's src is a root");
        // Dedup is on by default: map the occurrence row to its
        // unique readout row.
        let vrow = batch
            .pos
            .uniq
            .as_ref()
            .map_or(row, |u| u.occ_to_unique[row] as usize);
        assert_eq!(batch.pos.readout.mem_row(vrow)[0], 0.5);
        assert_eq!(batch.pos.readout.mail_ts(vrow), 1.0);
    }

    /// Dropping with requests in flight must not deadlock or leak the
    /// worker.
    #[test]
    fn drop_with_in_flight_requests_is_clean() {
        let (d, csr, cfg) = setup();
        let mut prefetcher = BatchPrefetcher::spawn(d, csr, cfg);
        for start in [0usize, 32, 64] {
            prefetcher.request(PrefetchRequest {
                range: start..start + 32,
                negs: Vec::new(),
                negs_per_event: 1,
                gather_memory: false,
            });
        }
        drop(prefetcher);
    }

    /// The version-tagged repair path for a prefetched batch: a stale
    /// gather of the batch's nodes, repaired in place, equals a
    /// serialized read.
    #[test]
    fn attach_and_repair_with_delta_matches_serialized() {
        let (d, csr, cfg) = setup();
        let prep = BatchPreparer::new(&d, csr.as_ref(), &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let sb = prep.prepare_static(0..16, &[], 1);
        // Speculative gather, then a racing write.
        let mut tagged = mem.read_versioned(sb.nodes());
        let node = d.graph.events()[0].src;
        mem.write(&disttgl_mem::MemoryWrite {
            nodes: vec![node],
            mem: disttgl_tensor::Matrix::full(1, cfg.d_mem, 0.75),
            mem_ts: vec![2.0],
            mail: disttgl_tensor::Matrix::full(1, cfg.mail_dim(), 1.5),
            mail_ts: vec![2.0],
        });
        let outcome = mem.repair(sb.nodes(), &tagged.versions, &mut tagged.readout, 0);
        assert!(outcome.repaired > 0, "event 0's src is in the batch");
        let serialized = mem.read(sb.nodes());
        assert_eq!(tagged.readout.mem, serialized.mem);
        assert_eq!(tagged.readout.mail_ts, serialized.mail_ts);
        // The repaired block completes the batch like a serialized read.
        let batch = prep.complete(sb, tagged.readout);
        assert_eq!(batch.pos.srcs.len(), 16);
    }

    /// A speculative gather raced by a write, then patched, must equal
    /// a serialized read performed entirely after the write.
    #[test]
    fn stale_gather_plus_patch_equals_serialized_read() {
        let (d, csr, cfg) = setup();
        let shared: SharedMemory = Arc::new(RwLock::new(MemoryState::new(
            d.graph.num_nodes(),
            cfg.d_mem,
            cfg.mail_dim(),
        )));
        // Pre-populate a few rows so unwritten rows are non-trivial.
        let seed_nodes: Vec<u32> = (0..8).map(|i| d.graph.events()[i].dst).collect();
        {
            let mut guard = crate::pipeline::write_lock(&shared);
            let n = seed_nodes.len();
            guard.write(&disttgl_mem::MemoryWrite {
                nodes: seed_nodes,
                mem: disttgl_tensor::Matrix::full(n, cfg.d_mem, 0.125),
                mem_ts: vec![0.5; n],
                mail: disttgl_tensor::Matrix::full(n, cfg.mail_dim(), 0.25),
                mail_ts: vec![0.5; n],
            });
        }

        let mut prefetcher = BatchPrefetcher::spawn_with_memory(
            Arc::clone(&d),
            Arc::clone(&csr),
            cfg.clone(),
            Arc::clone(&shared),
        );
        prefetcher.request(PrefetchRequest {
            range: 0..24,
            negs: Vec::new(),
            negs_per_event: 1,
            gather_memory: true,
        });
        let mut resp = prefetcher.recv();
        // Nothing is written between the worker's gather and here, so
        // the live version vector is the one the gather saw.
        let versions = crate::pipeline::read_lock(&shared)
            .read_versioned(resp.sb.nodes())
            .versions;
        // The racing write: batch-0-style roots updated after the
        // speculative gather. Raw write-order node list: unsorted,
        // with duplicates — exactly what `MemoryWrite::nodes` looks
        // like.
        let written: Vec<u32> = (0..6)
            .flat_map(|i| [d.graph.events()[i].src, d.graph.events()[i].src])
            .collect();
        {
            let mut guard = crate::pipeline::write_lock(&shared);
            let n = written.len();
            guard.write(&disttgl_mem::MemoryWrite {
                nodes: written,
                mem: disttgl_tensor::Matrix::full(n, cfg.d_mem, 0.75),
                mem_ts: vec![2.0; n],
                mail: disttgl_tensor::Matrix::full(n, cfg.mail_dim(), 1.5),
                mail_ts: vec![2.0; n],
            });
        }

        let mut full = resp.readout.take().expect("gathered readout");
        let guard = crate::pipeline::read_lock(&shared);
        let outcome = guard.repair(resp.sb.nodes(), &versions, &mut full, 0);
        assert!(outcome.repaired > 0, "write set must intersect the batch");
        let serialized = guard.read(resp.sb.nodes());
        drop(guard);
        assert_eq!(full.mem, serialized.mem);
        assert_eq!(full.mail, serialized.mail);
        assert_eq!(full.mem_ts, serialized.mem_ts);
        assert_eq!(full.mail_ts, serialized.mail_ts);
    }
}
