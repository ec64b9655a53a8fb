//! The double-buffered **batch prefetcher** of the distributed trainer
//! (the overlap the paper's throughput figures assume — "we sample the
//! mini-batch in advance", §4.0.2 — generalized to the whole
//! preparation phase; `TrainConfig::pipeline_prefetch`).
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
//! The distributed trainer also overlaps phase 2, against the memory
//! daemon (see `disttgl_mem::daemon`): the moment a lane's phase 1
//! lands it posts a version-tagged **speculative gather** out of turn,
//! and its serialized read slot then repairs, in place, exactly the
//! rows written since ([`disttgl_mem::ReadRequest::Repair`],
//! `MemoryState::repair`). With the deduplicated readout
//! (`ModelConfig::dedup_readout`, default) the gathered block holds one
//! row per unique node per part, so a repair rewrites each stale node
//! once per part instead of once per occurrence.
//!
//! # Correctness
//!
//! Phase 1 is a pure function of `(dataset, csr, range, negatives)`,
//! and phase 2 — serialized or speculative-plus-repair — yields the
//! identical readout in the identical serialized slot as the
//! sequential path, so the prefetching distributed trainer is
//! *bit-identical* to the non-prefetching one — enforced by
//! `tests/pipeline_equivalence.rs` and `tests/daemon_overlap_equivalence.rs`.

use crate::batch::{BatchPreparer, StaticBatch};
use crate::config::ModelConfig;
use disttgl_data::{Dataset, NegativeStore};
use disttgl_graph::TCsr;
use std::ops::Range;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::{Scope, ScopedJoinHandle};

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
        }
    }
}

/// A phase-1 prefetch worker bound to one trainer.
///
/// Keeps at most a small number of requests in flight (the executor
/// uses exactly one — double buffering); requests complete in FIFO
/// order, so responses match requests positionally.
pub struct BatchPrefetcher<'scope> {
    req_tx: Option<Sender<PrefetchRequest>>,
    resp_rx: Receiver<StaticBatch>,
    handle: Option<ScopedJoinHandle<'scope, ()>>,
    in_flight: usize,
}

impl<'scope> BatchPrefetcher<'scope> {
    /// Spawns a phase-1 worker on `scope`. The worker borrows the
    /// immutable dataset and T-CSR; it never touches node memory.
    pub fn spawn(
        scope: &'scope Scope<'scope, '_>,
        dataset: &'scope Dataset,
        csr: &'scope TCsr,
        model_cfg: ModelConfig,
    ) -> Self {
        let (req_tx, req_rx) = std::sync::mpsc::channel::<PrefetchRequest>();
        let (resp_tx, resp_rx) = std::sync::mpsc::channel::<StaticBatch>();
        let handle = std::thread::Builder::new()
            .name("disttgl-prefetch".into())
            .spawn_scoped(scope, move || {
                let prep = BatchPreparer::new(dataset, csr, &model_cfg);
                while let Ok(req) = req_rx.recv() {
                    let neg_refs: Vec<&[u32]> = req.negs.iter().map(Vec::as_slice).collect();
                    let sb = prep.prepare_static(req.range, &neg_refs, req.negs_per_event);
                    if resp_tx.send(sb).is_err() {
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
    pub fn recv(&mut self) -> StaticBatch {
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
    pub fn try_recv(&mut self) -> Option<StaticBatch> {
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

impl Drop for BatchPrefetcher<'_> {
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

    fn setup() -> (Dataset, TCsr, ModelConfig) {
        let d = generators::wikipedia(0.005, 3);
        let csr = TCsr::build(&d.graph);
        let cfg = ModelConfig::compact(d.edge_features.cols());
        (d, csr, cfg)
    }

    /// Phase-split composition must equal the one-shot path exactly.
    #[test]
    fn split_prepare_matches_one_shot() {
        let (d, csr, cfg) = setup();
        let prep = BatchPreparer::new(&d, &csr, &cfg);
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
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        std::thread::scope(|s| {
            let mut prefetcher = BatchPrefetcher::spawn(s, &d, &csr, cfg.clone());

            let ranges = [0usize..16, 16..48, 48..50];
            prefetcher.request(PrefetchRequest {
                range: ranges[0].clone(),
                negs: Vec::new(),
                negs_per_event: 1,
            });
            for (idx, range) in ranges.iter().enumerate() {
                let sb = prefetcher.recv();
                if idx + 1 < ranges.len() {
                    prefetcher.request(PrefetchRequest {
                        range: ranges[idx + 1].clone(),
                        negs: Vec::new(),
                        negs_per_event: 1,
                    });
                }
                let inline = prep.prepare_static(range.clone(), &[], 1);
                let mut mem_a = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
                let mut mem_b = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
                let a = prep.finish(sb, &mut mem_a);
                let b = prep.finish(inline, &mut mem_b);
                assert_eq!(a.pos.srcs, b.pos.srcs, "range {range:?}");
                assert_eq!(
                    a.pos.readout.to_readout().mem,
                    b.pos.readout.to_readout().mem
                );
                assert_eq!(a.pos.event_feats, b.pos.event_feats);
            }
            assert_eq!(prefetcher.in_flight(), 0);
        });
    }

    /// Reads served through `finish` observe writes applied after the
    /// phase-1 prefetch was issued — the memory-dependency rule.
    #[test]
    fn finish_sees_writes_issued_after_prefetch() {
        let (d, csr, cfg) = setup();
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        std::thread::scope(|s| {
            let mut prefetcher = BatchPrefetcher::spawn(s, &d, &csr, cfg.clone());
            let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());

            prefetcher.request(PrefetchRequest {
                range: 0..8,
                negs: Vec::new(),
                negs_per_event: 1,
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
            let batch = prep.finish(prefetcher.recv(), &mut mem);
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
        });
    }

    /// Dropping with requests in flight must not deadlock or leak the
    /// worker.
    #[test]
    fn drop_with_in_flight_requests_is_clean() {
        let (d, csr, cfg) = setup();
        std::thread::scope(|s| {
            let mut prefetcher = BatchPrefetcher::spawn(s, &d, &csr, cfg);
            for start in [0usize, 32, 64] {
                prefetcher.request(PrefetchRequest {
                    range: start..start + 32,
                    negs: Vec::new(),
                    negs_per_event: 1,
                });
            }
            drop(prefetcher);
        });
    }

    /// The version-tagged repair path for a prefetched batch: a stale
    /// gather of the batch's nodes, repaired in place, equals a
    /// serialized read.
    #[test]
    fn attach_and_repair_with_delta_matches_serialized() {
        let (d, csr, cfg) = setup();
        let prep = BatchPreparer::new(&d, &csr, &cfg);
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
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        // Pre-populate a few rows so unwritten rows are non-trivial.
        let seed_nodes: Vec<u32> = (0..8).map(|i| d.graph.events()[i].dst).collect();
        let n = seed_nodes.len();
        mem.write(&disttgl_mem::MemoryWrite {
            nodes: seed_nodes,
            mem: disttgl_tensor::Matrix::full(n, cfg.d_mem, 0.125),
            mem_ts: vec![0.5; n],
            mail: disttgl_tensor::Matrix::full(n, cfg.mail_dim(), 0.25),
            mail_ts: vec![0.5; n],
        });

        let sb = std::thread::scope(|s| {
            let mut prefetcher = BatchPrefetcher::spawn(s, &d, &csr, cfg.clone());
            prefetcher.request(PrefetchRequest {
                range: 0..24,
                negs: Vec::new(),
                negs_per_event: 1,
            });
            prefetcher.recv()
        });
        // The stale tagged gather, taken before the write.
        let mut tagged = mem.read_versioned(sb.nodes());
        // The racing write: batch-0-style roots updated after the
        // speculative gather. Raw write-order node list: unsorted,
        // with duplicates — exactly what `MemoryWrite::nodes` looks
        // like.
        let written: Vec<u32> = (0..6)
            .flat_map(|i| [d.graph.events()[i].src, d.graph.events()[i].src])
            .collect();
        let n = written.len();
        mem.write(&disttgl_mem::MemoryWrite {
            nodes: written,
            mem: disttgl_tensor::Matrix::full(n, cfg.d_mem, 0.75),
            mem_ts: vec![2.0; n],
            mail: disttgl_tensor::Matrix::full(n, cfg.mail_dim(), 1.5),
            mail_ts: vec![2.0; n],
        });

        let full = &mut tagged.readout;
        let outcome = mem.repair(sb.nodes(), &tagged.versions, full, 0);
        assert!(outcome.repaired > 0, "write set must intersect the batch");
        let serialized = mem.read(sb.nodes());
        assert_eq!(full.mem, serialized.mem);
        assert_eq!(full.mail, serialized.mail);
        assert_eq!(full.mem_ts, serialized.mem_ts);
        assert_eq!(full.mail_ts, serialized.mail_ts);
    }
}
