//! Mini-batch preparation.
//!
//! A training iteration needs, for every root node (positive sources,
//! positive destinations, and sampled negative destinations): its node
//! memory + cached mail, its k most recent supporting neighbors, and
//! their memory/mails/edge features. Epoch parallelism (§3.2.2)
//! prepares **one positive input and `j` negative inputs** in a single
//! serialized memory read so the same batch can be retrained `j` times
//! with different negatives without touching the memory daemon again.
//!
//! # The union-frontier occurrence layout
//!
//! With an `L`-layer embedding stack a part's occurrence list is the
//! concatenation of **all hop frontiers**: the `R` roots, then hop 0's
//! `R·k₀` slots, then hop 1's `R·k₀·k₁` slots, and so on
//! ([`occurrence_nodes`]). Every per-part row structure — the
//! per-occurrence readout, the [`ReadoutIndex`] fold, the gathered
//! block's part ranges — is defined over this one flat layout, so the
//! phase-1/phase-2 split, the daemon protocol, and the speculative
//! gather are *layer-count-agnostic*: one serialized memory read per
//! batch covers every layer's inputs, whatever `L` is. For `L = 1` the
//! layout degenerates to the historical `R·(1+k)` rows bit-for-bit.
//!
//! # The deduplicated readout path
//!
//! With most-recent-k sampling a part's readout occurrences
//! (roots + all hops' neighbor slots) cover far fewer *distinct* nodes
//! — the same `(mem, mail)` pair would be pushed through the GRU many
//! times. When [`ModelConfig::dedup_readout`] is on (the default),
//! [`BatchPreparer::prepare_static`] builds a [`ReadoutIndex`] per
//! part — the unique node list in **first-occurrence order** over the
//! union of all hop frontiers, plus the `occurrence → unique`
//! expansion map — and the serialized phase-2 read gathers **one
//! memory row per unique node**. The model runs the GRU over the
//! folded block and expands `ŝ` to occurrence order only where the
//! attention layers consume it. Since the memory update is a pure
//! per-row function of `(mem, mail)`, which are identical across a
//! node's occurrences (all read at batch start), the folded forward
//! is **bit-identical** to the per-occurrence oracle.
//!
//! ## Summation-order contract (backward determinism)
//!
//! Folding changes *gradient* summation: the backward pass must reduce
//! occurrence gradients into per-unique-node rows before the GRU
//! backward. The contract, relied on for run-to-run reproducibility
//! and enforced by `Matrix::fold_rows_by_index`:
//!
//! 1. unique ids are assigned in **first-occurrence order** over the
//!    part's occurrence list (`roots ++ hop₀ slots ++ hop₁ slots ++ …`,
//!    ascending row index);
//! 2. each unique node's gradient row accumulates its occurrences in
//!    **ascending occurrence index** (row 0, 1, 2, … of the part);
//! 3. the GRU backward then consumes the folded rows in unique order.
//!
//! Every sum is therefore formed in one fixed order, so folded runs
//! are bit-reproducible. Relative to the per-occurrence oracle the
//! per-unique pre-activation gradients are summed *before* the
//! weight-gradient contractions instead of inside them — identical in
//! exact arithmetic, equal within float tolerance in practice
//! (`tests/dedup_equivalence.rs` pins both properties).

use crate::config::ModelConfig;
use disttgl_data::Dataset;
use disttgl_graph::{NeighborBlock, RecentNeighborSampler, TemporalAdjacency};
use disttgl_mem::{MemoryReadout, MemoryState, MemoryWrite};
use disttgl_tensor::Matrix;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Uniform interface over the two ways a trainer reaches node memory:
/// directly (single-process baselines, evaluation) or through the
/// memory daemon (distributed training).
pub trait MemoryAccess {
    /// Gathers memory/mail rows for `nodes`.
    fn read(&mut self, nodes: &[u32]) -> MemoryReadout {
        let mut out = MemoryReadout::default();
        self.read_into(nodes, &mut out);
        out
    }
    /// [`MemoryAccess::read`] into a caller-owned readout, reusing its
    /// buffers (the scratch-arena pattern — hot loops keep one readout
    /// alive instead of allocating per turn).
    fn read_into(&mut self, nodes: &[u32], out: &mut MemoryReadout);
    /// Applies a write in serialized order.
    fn write(&mut self, w: MemoryWrite);
}

impl MemoryAccess for MemoryState {
    fn read_into(&mut self, nodes: &[u32], out: &mut MemoryReadout) {
        MemoryState::read_into(self, nodes, out);
    }
    fn write(&mut self, w: MemoryWrite) {
        MemoryState::write(self, &w);
    }
}

/// The flat occurrence list of a part: its roots followed by every
/// hop's padded neighbor slots, in hop order. This is the row layout
/// of the per-occurrence readout and the domain of the
/// [`ReadoutIndex`] fold — one list regardless of the stack depth.
pub fn occurrence_nodes(roots: &[u32], hops: &[NeighborBlock]) -> Vec<u32> {
    let mut occ = Vec::new();
    occurrence_nodes_into(roots, hops, &mut occ);
    occ
}

/// [`occurrence_nodes`] into a caller-owned buffer (cleared and
/// refilled in place — the serving plane's per-reader scratch path).
pub fn occurrence_nodes_into(roots: &[u32], hops: &[NeighborBlock], occ: &mut Vec<u32>) {
    let total = roots.len() + hops.iter().map(NeighborBlock::num_slots).sum::<usize>();
    occ.clear();
    occ.reserve(total);
    occ.extend_from_slice(roots);
    for hop in hops {
        occ.extend_from_slice(&hop.nbrs);
    }
}

/// Per-frontier row counts of a part's occurrence layout:
/// `[R, R·k₀, R·k₀·k₁, …]` — `1 + hops.len()` entries (the roots are
/// frontier 0).
pub fn frontier_sizes(num_roots: usize, hops: &[NeighborBlock]) -> Vec<usize> {
    let mut sizes = Vec::with_capacity(1 + hops.len());
    sizes.push(num_roots);
    sizes.extend(hops.iter().map(NeighborBlock::num_slots));
    sizes
}

/// Total occurrence rows of a part (all frontiers).
pub fn occurrence_rows(num_roots: usize, hops: &[NeighborBlock]) -> usize {
    num_roots + hops.iter().map(NeighborBlock::num_slots).sum::<usize>()
}

/// Gathers the dataset's edge-feature rows for arbitrary eids
/// (zero-width safe) — shared by batch preparation, the engine's
/// replay fast path, and the serving plane.
pub(crate) fn edge_feature_rows(dataset: &Dataset, eids: &[u32]) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    let mut idx = Vec::new();
    edge_feature_rows_into(dataset, eids, &mut out, &mut idx);
    out
}

/// [`edge_feature_rows`] into a caller-owned matrix, reusing its
/// buffer (and an index scratch) — the serving plane's per-reader
/// scratch path.
pub(crate) fn edge_feature_rows_into(
    dataset: &Dataset,
    eids: &[u32],
    out: &mut Matrix,
    idx: &mut Vec<usize>,
) {
    if dataset.edge_features.cols() == 0 {
        out.resize_for_overwrite(eids.len(), 0);
        return;
    }
    idx.clear();
    idx.extend(eids.iter().map(|&e| e as usize));
    dataset.edge_features.gather_rows_into(idx, out);
}

/// The unique-node index of one batch part: the distinct nodes of the
/// part's occurrence list (`roots ++ hop slots`, see
/// [`occurrence_nodes`]) and the expansion map back to occurrence
/// order.
///
/// Built in phase 1 (memory-independent, so it rides the prefetch
/// thread); phase 2 gathers one memory row per entry of
/// `unique_nodes`. See the module docs for the summation-order
/// contract the index pins down.
#[derive(Clone, Debug, Default)]
pub struct ReadoutIndex {
    /// Distinct nodes in first-occurrence order; row `u` of the part's
    /// folded readout belongs to `unique_nodes[u]`.
    pub unique_nodes: Vec<u32>,
    /// For every occurrence row `i` of the per-occurrence layout,
    /// the folded row holding its node: `occ_to_unique[i] < U`.
    pub occ_to_unique: Vec<u32>,
}

impl ReadoutIndex {
    /// Builds the index over an occurrence list, assigning unique ids
    /// in first-occurrence order (deterministic — no hash iteration).
    pub fn build(occurrences: &[u32]) -> Self {
        let mut slot_of: HashMap<u32, u32> = HashMap::with_capacity(occurrences.len());
        let mut unique_nodes = Vec::new();
        let mut occ_to_unique = Vec::with_capacity(occurrences.len());
        for &node in occurrences {
            let next = unique_nodes.len() as u32;
            let id = *slot_of.entry(node).or_insert_with(|| {
                unique_nodes.push(node);
                next
            });
            occ_to_unique.push(id);
        }
        Self {
            unique_nodes,
            occ_to_unique,
        }
    }

    /// Number of distinct nodes `U`.
    pub fn num_unique(&self) -> usize {
        self.unique_nodes.len()
    }

    /// Rebuilds the index in place over a new occurrence list, reusing
    /// this index's vectors and a caller-owned hash-map scratch (the
    /// serving plane's per-reader scratch path). Bit-identical to
    /// [`ReadoutIndex::build`]: unique ids still assign in
    /// first-occurrence order.
    pub fn rebuild(&mut self, occurrences: &[u32], slot_of: &mut HashMap<u32, u32>) {
        slot_of.clear();
        self.unique_nodes.clear();
        self.occ_to_unique.clear();
        self.occ_to_unique.reserve(occurrences.len());
        for &node in occurrences {
            let next = self.unique_nodes.len() as u32;
            let id = *slot_of.entry(node).or_insert_with(|| {
                self.unique_nodes.push(node);
                next
            });
            self.occ_to_unique.push(id);
        }
    }
}

/// A row-range view into a batch's shared gathered readout block.
///
/// [`BatchPreparer::complete`] gathers **one** block for the whole
/// batch and hands every part an index-range view instead of copying
/// per-part [`MemoryReadout`]s (the copies were ~1/3 of phase-2
/// bytes). Rows of a part are contiguous in the block, so consumers
/// that need a dense matrix (the GRU) copy the range straight into
/// their scratch cache — one copy total, where the split used to add
/// another.
#[derive(Clone, Debug)]
pub struct ReadoutView {
    full: Arc<MemoryReadout>,
    start: usize,
    end: usize,
}

impl ReadoutView {
    /// Views rows `range` of `full`.
    ///
    /// # Panics
    /// Panics if the range exceeds the block.
    pub fn new(full: Arc<MemoryReadout>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= full.mem.rows(),
            "ReadoutView: rows {}..{} out of {}",
            range.start,
            range.end,
            full.mem.rows()
        );
        Self {
            full,
            start: range.start,
            end: range.end,
        }
    }

    /// Wraps an owned readout as a whole-block view (the
    /// baseline/naive preparation path).
    pub fn whole(readout: MemoryReadout) -> Self {
        let rows = readout.mem.rows();
        Self::new(Arc::new(readout), 0..rows)
    }

    /// Number of rows in the view.
    pub fn rows(&self) -> usize {
        self.end - self.start
    }

    /// The shared underlying block (all parts of the batch).
    pub fn block(&self) -> &MemoryReadout {
        &self.full
    }

    /// This view's row range within [`ReadoutView::block`].
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Memory row `r` of the view.
    pub fn mem_row(&self, r: usize) -> &[f32] {
        self.full.mem.row(self.start + r)
    }

    /// Memory timestamp of view row `r`.
    pub fn mem_ts(&self, r: usize) -> f32 {
        self.full.mem_ts[self.start + r]
    }

    /// Mail timestamp of view row `r` (0 when no mail arrived yet).
    pub fn mail_ts(&self, r: usize) -> f32 {
        self.full.mail_ts[self.start + r]
    }

    /// True if any memory element in the view is NaN/∞.
    pub fn mem_has_non_finite(&self) -> bool {
        (0..self.rows()).any(|r| self.mem_row(r).iter().any(|v| !v.is_finite()))
    }

    /// Materializes the view as an owned per-part readout (tests and
    /// diagnostic paths; the hot path never copies).
    pub fn to_readout(&self) -> MemoryReadout {
        MemoryReadout {
            mem: self.full.mem.slice_rows(self.start, self.end),
            mem_ts: self.full.mem_ts[self.start..self.end].to_vec(),
            mail: self.full.mail.slice_rows(self.start, self.end),
            mail_ts: self.full.mail_ts[self.start..self.end].to_vec(),
        }
    }

    /// Recovers the underlying block for buffer reuse if this view
    /// holds the last reference to it (scratch-arena recycling: the
    /// trainer reclaims a retired batch's gathered block as the next
    /// serialized read's target).
    pub fn into_block(self) -> Option<MemoryReadout> {
        Arc::try_unwrap(self.full).ok()
    }
}

/// The positive half of a prepared batch: `B` chronological events.
///
/// Readout layout (per-occurrence oracle): rows `0..2B` are the roots
/// (`srcs` then `dsts`), followed by each hop's flattened neighbor
/// slots in hop order — `2B(1+k)` rows total for the 1-layer stack.
/// With `dedup_readout` the view instead holds one row per entry of
/// `uniq.unique_nodes`, and `uniq.occ_to_unique` maps the occurrence
/// layout onto it.
#[derive(Clone, Debug)]
pub struct PositivePart {
    /// Event sources.
    pub srcs: Vec<u32>,
    /// Event destinations.
    pub dsts: Vec<u32>,
    /// Event timestamps.
    pub times: Vec<f32>,
    /// Event ids (edge-feature rows).
    pub eids: Vec<u32>,
    /// The `2B` roots `srcs ++ dsts`, in readout row order (built once
    /// in phase 1; the model reads it every pass instead of cloning).
    pub roots: Vec<u32>,
    /// Query times of `roots` (`times ++ times`).
    pub root_times: Vec<f32>,
    /// Per-hop supporting-neighbor blocks: `hops[0]` covers the `2B`
    /// roots, `hops[d]` the slots of `hops[d − 1]` (padded slots stay
    /// padded — see `disttgl_graph::RecentNeighborSampler::sample_hops`).
    pub hops: Vec<NeighborBlock>,
    /// View of this part's memory/mail rows within the batch's shared
    /// gathered block: per-occurrence (roots then hop slots), or one
    /// row per unique node when `uniq` is set.
    pub readout: ReadoutView,
    /// Unique-node index of the folded readout (`None` on the
    /// per-occurrence oracle path).
    pub uniq: Option<ReadoutIndex>,
    /// Edge features of the events, `B × d_e`.
    pub event_feats: Matrix,
    /// Per-hop edge features of the neighbor slots
    /// (`nbr_feats[d].rows() == hops[d].num_slots()`).
    pub nbr_feats: Vec<Matrix>,
    /// Multi-label targets for classification datasets.
    pub labels: Option<Matrix>,
}

impl PositivePart {
    /// Number of events `B`.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// The hop-0 neighbor block (every stack has at least one hop).
    pub fn nbrs(&self) -> &NeighborBlock {
        &self.hops[0]
    }
}

/// One negative set: `B·K` sampled destinations with the same
/// per-event timestamps.
#[derive(Clone, Debug)]
pub struct NegativePart {
    /// Negative destination ids, `B·K`.
    pub negs: Vec<u32>,
    /// Query times (event time repeated `K×`).
    pub times: Vec<f32>,
    /// Per-hop supporting-neighbor blocks of the negatives.
    pub hops: Vec<NeighborBlock>,
    /// View of this part's memory/mail rows (negative roots then hop
    /// slots, or unique rows when `uniq` is set).
    pub readout: ReadoutView,
    /// Unique-node index of the folded readout (`None` on the
    /// per-occurrence oracle path).
    pub uniq: Option<ReadoutIndex>,
    /// Per-hop edge features of the negative neighbor slots.
    pub nbr_feats: Vec<Matrix>,
}

impl NegativePart {
    /// The hop-0 neighbor block.
    pub fn nbrs(&self) -> &NeighborBlock {
        &self.hops[0]
    }
}

/// A fully prepared batch: positives plus `j ≥ 0` negative sets.
#[derive(Clone, Debug)]
pub struct PreparedBatch {
    /// The shared positive input.
    pub pos: PositivePart,
    /// Independent negative sets (one per epoch-parallel pass).
    pub negs: Vec<NegativePart>,
}

impl PreparedBatch {
    /// Consumes the batch and recovers its shared gathered block for
    /// buffer reuse, if no clones of the batch (or its views) are
    /// alive. Hot trainer loops recycle the retired batch's block as
    /// the next turn's read scratch instead of allocating.
    pub fn recycle_block(self) -> Option<MemoryReadout> {
        // All parts view the same block; drop the negatives' handles
        // first, then unwrap through the positive part's view.
        let PreparedBatch { pos, negs } = self;
        drop(negs);
        pos.readout.into_block()
    }
}

/// Builds prepared batches from a dataset + a time-sorted adjacency
/// index (the frozen `TCsr` for training/offline evaluation, or the
/// appendable `DynamicTCsr` when preparing over an evolving graph).
pub struct BatchPreparer<'a> {
    dataset: &'a Dataset,
    adj: &'a dyn TemporalAdjacency,
    sampler: RecentNeighborSampler,
    dedup: bool,
}

impl<'a> BatchPreparer<'a> {
    /// Creates a preparer sampling `cfg.fanouts()` supporting nodes
    /// per hop (`cfg.n_neighbors` at every hop unless
    /// `cfg.neighbor_fanouts` overrides it). `cfg.dedup_readout`
    /// selects between the folded (unique-row) and per-occurrence
    /// readout layouts.
    pub fn new(dataset: &'a Dataset, adj: &'a dyn TemporalAdjacency, cfg: &ModelConfig) -> Self {
        Self {
            dataset,
            adj,
            sampler: RecentNeighborSampler::with_fanouts(cfg.fanouts()),
            dedup: cfg.dedup_readout,
        }
    }

    /// Gathers edge features for arbitrary eids (zero-width safe).
    fn edge_rows(&self, eids: &[u32]) -> Matrix {
        edge_feature_rows(self.dataset, eids)
    }

    /// **Phase 1** of batch preparation: everything that does *not*
    /// touch node memory — neighbor sampling over the static T-CSR,
    /// negative slicing, edge-feature and label gathers, and the node
    /// list of the upcoming serialized memory read.
    ///
    /// Because nothing here depends on mutable training state, this
    /// phase is safe to run arbitrarily far ahead of the training loop
    /// (the distributed trainer runs it one batch ahead on a prefetch
    /// thread).
    pub fn prepare_static(
        &self,
        range: Range<usize>,
        neg_sets: &[&[u32]],
        negs_per_event: usize,
    ) -> StaticBatch {
        let events = &self.dataset.graph.events()[range];
        let b = events.len();
        let srcs: Vec<u32> = events.iter().map(|e| e.src).collect();
        let dsts: Vec<u32> = events.iter().map(|e| e.dst).collect();
        let times: Vec<f32> = events.iter().map(|e| e.t).collect();
        let eids: Vec<u32> = events.iter().map(|e| e.eid).collect();

        // Roots of the positive part: sources then destinations, each
        // queried at its event time. The sampler expands the full
        // multi-hop frontier (one padded block per hop).
        let mut pos_roots = srcs.clone();
        pos_roots.extend_from_slice(&dsts);
        let mut pos_times = times.clone();
        pos_times.extend_from_slice(&times);
        let pos_hops = self.sampler.sample_hops(self.adj, &pos_roots, &pos_times);

        // Negative roots per set.
        let mut negs = Vec::with_capacity(neg_sets.len());
        for set in neg_sets {
            assert_eq!(set.len(), b * negs_per_event, "negative set length");
            let neg_times: Vec<f32> = times
                .iter()
                .flat_map(|&t| std::iter::repeat_n(t, negs_per_event))
                .collect();
            let hops = self.sampler.sample_hops(self.adj, set, &neg_times);
            let uniq = self
                .dedup
                .then(|| ReadoutIndex::build(&occurrence_nodes(set, &hops)));
            negs.push(StaticNegative {
                nbr_feats: hops.iter().map(|h| self.edge_rows(&h.eids)).collect(),
                set: set.to_vec(),
                times: neg_times,
                hops,
                uniq,
            });
        }

        // Unique-node index of the positive part over its occurrence
        // list `roots ++ hop slots` — the union of every hop frontier,
        // so one folded gather covers every layer's inputs
        // (memory-independent, so it is built here in phase 1 and
        // rides the prefetch thread).
        let pos_uniq = self
            .dedup
            .then(|| ReadoutIndex::build(&occurrence_nodes(&pos_roots, &pos_hops)));

        // The one serialized read's node list, in a fixed layout:
        // positive part, then the negative sets in order. Per part the
        // layout is roots-then-hop-slots (per-occurrence), or the
        // part's unique nodes in first-occurrence order when
        // deduplicating — either way each part's rows are one
        // contiguous range of the gathered block.
        let mut all_nodes = Vec::new();
        match &pos_uniq {
            Some(u) => all_nodes.extend_from_slice(&u.unique_nodes),
            None => all_nodes.extend(occurrence_nodes(&pos_roots, &pos_hops)),
        }
        for n in &negs {
            match &n.uniq {
                Some(u) => all_nodes.extend_from_slice(&u.unique_nodes),
                None => all_nodes.extend(occurrence_nodes(&n.set, &n.hops)),
            }
        }

        let labels = self.dataset.labels.as_ref().map(|l| {
            let idx: Vec<usize> = eids.iter().map(|&e| e as usize).collect();
            l.gather_rows(&idx)
        });

        StaticBatch {
            event_feats: self.edge_rows(&eids),
            pos_nbr_feats: pos_hops.iter().map(|h| self.edge_rows(&h.eids)).collect(),
            srcs,
            dsts,
            times,
            eids,
            pos_roots,
            pos_times,
            pos_hops,
            pos_uniq,
            labels,
            negs,
            all_nodes,
        }
    }

    /// **Phase 2** of batch preparation: the memory-dependent gather.
    /// Issues the single serialized read for `sb.all_nodes` and splits
    /// the readout into positive/negative parts.
    ///
    /// Must run *after* the previous batch's `MemoryWrite` in the
    /// trainer's serialized memory order (the daemon's turn protocol,
    /// or program order on a direct [`MemoryState`]).
    pub fn finish(&self, sb: StaticBatch, mem: &mut dyn MemoryAccess) -> PreparedBatch {
        self.finish_with(sb, mem, MemoryReadout::default())
    }

    /// [`BatchPreparer::finish`] gathering into `scratch` (typically a
    /// retired batch's block recovered via
    /// [`PreparedBatch::recycle_block`]) so steady-state turns reuse
    /// one allocation instead of creating a readout per turn.
    pub fn finish_with(
        &self,
        sb: StaticBatch,
        mem: &mut dyn MemoryAccess,
        mut scratch: MemoryReadout,
    ) -> PreparedBatch {
        mem.read_into(&sb.all_nodes, &mut scratch);
        self.complete(sb, scratch)
    }

    /// Completes a batch from an already-gathered full readout (rows
    /// in `sb.all_nodes` order). Used by the overlapped phase-2 path: a
    /// speculative daemon gather repaired in its serialized slot
    /// ([`disttgl_mem::ReadRequest::Repair`]); this split then
    /// produces the final batch.
    pub fn complete(&self, sb: StaticBatch, full: MemoryReadout) -> PreparedBatch {
        assert_eq!(full.mem.rows(), sb.all_nodes.len(), "readout rows");

        // Hand each part an index-range view into the one shared block
        // — no per-part row copies (ROADMAP's readout-split item).
        let full = Arc::new(full);
        let mut cursor = 0usize;
        let mut take = |n: usize| {
            let r = cursor..cursor + n;
            cursor += n;
            r
        };

        let pos_rows = match &sb.pos_uniq {
            Some(u) => take(u.num_unique()),
            None => take(occurrence_rows(sb.pos_roots.len(), &sb.pos_hops)),
        };
        let pos = PositivePart {
            event_feats: sb.event_feats,
            nbr_feats: sb.pos_nbr_feats,
            srcs: sb.srcs,
            dsts: sb.dsts,
            times: sb.times,
            eids: sb.eids,
            roots: sb.pos_roots,
            root_times: sb.pos_times,
            hops: sb.pos_hops,
            readout: ReadoutView::new(Arc::clone(&full), pos_rows),
            uniq: sb.pos_uniq,
            labels: sb.labels,
        };

        let mut negs = Vec::with_capacity(sb.negs.len());
        for n in sb.negs {
            let rows = match &n.uniq {
                Some(u) => take(u.num_unique()),
                None => take(occurrence_rows(n.set.len(), &n.hops)),
            };
            negs.push(NegativePart {
                nbr_feats: n.nbr_feats,
                negs: n.set,
                times: n.times,
                hops: n.hops,
                readout: ReadoutView::new(Arc::clone(&full), rows),
                uniq: n.uniq,
            });
        }
        debug_assert_eq!(cursor, sb.all_nodes.len());
        PreparedBatch { pos, negs }
    }

    /// Prepares events `range` with the given negative sets
    /// (`neg_sets[g]` is a flat `range.len() · K` destination list)
    /// using **one** serialized memory read.
    ///
    /// Exactly `finish(prepare_static(..))` — the sequential
    /// composition of the two pipeline phases, kept as the reference
    /// path (and correctness oracle) for the prefetching trainer.
    pub fn prepare(
        &self,
        range: Range<usize>,
        neg_sets: &[&[u32]],
        negs_per_event: usize,
        mem: &mut dyn MemoryAccess,
    ) -> PreparedBatch {
        self.finish(self.prepare_static(range, neg_sets, negs_per_event), mem)
    }
}

/// One negative set's memory-independent pieces.
#[derive(Clone, Debug)]
struct StaticNegative {
    set: Vec<u32>,
    times: Vec<f32>,
    hops: Vec<NeighborBlock>,
    nbr_feats: Vec<Matrix>,
    uniq: Option<ReadoutIndex>,
}

/// Output of [`BatchPreparer::prepare_static`]: a batch minus its
/// node-memory rows. Produced on the prefetch thread, completed into a
/// [`PreparedBatch`] by [`BatchPreparer::finish`] on the trainer's
/// serialized memory turn.
#[derive(Clone, Debug)]
pub struct StaticBatch {
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    times: Vec<f32>,
    eids: Vec<u32>,
    pos_roots: Vec<u32>,
    pos_times: Vec<f32>,
    pos_hops: Vec<NeighborBlock>,
    pos_uniq: Option<ReadoutIndex>,
    event_feats: Matrix,
    pos_nbr_feats: Vec<Matrix>,
    labels: Option<Matrix>,
    negs: Vec<StaticNegative>,
    all_nodes: Vec<u32>,
}

impl StaticBatch {
    /// Number of events `B`.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Rows the serialized memory read will gather.
    pub fn read_rows(&self) -> usize {
        self.all_nodes.len()
    }

    /// The node of every readout row, in gather order.
    pub fn nodes(&self) -> &[u32] {
        &self.all_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disttgl_data::generators;
    use disttgl_graph::TCsr;

    fn small_setup() -> (Dataset, TCsr, ModelConfig) {
        let d = generators::wikipedia(0.005, 3);
        let csr = TCsr::build(&d.graph);
        let cfg = ModelConfig::compact(d.edge_features.cols());
        (d, csr, cfg)
    }

    #[test]
    fn prepared_layout_is_consistent() {
        let (d, csr, cfg) = small_setup();
        let cfg = cfg.without_dedup_readout();
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let b = 16;
        let negs: Vec<u32> = (0..b).map(|i| d.graph.events()[i].dst).collect();
        let batch = prep.prepare(0..b, &[&negs], 1, &mut mem);

        assert_eq!(batch.pos.len(), b);
        let k = cfg.n_neighbors;
        // Roots: 2B; slots: 2B·k.
        assert_eq!(batch.pos.readout.rows(), 2 * b + 2 * b * k);
        assert!(batch.pos.uniq.is_none());
        assert_eq!(batch.pos.hops.len(), 1);
        assert_eq!(batch.pos.nbr_feats[0].rows(), 2 * b * k);
        assert_eq!(batch.pos.event_feats.shape(), (b, 172));
        assert_eq!(batch.negs.len(), 1);
        assert_eq!(batch.negs[0].readout.rows(), b + b * k);
    }

    #[test]
    fn dedup_layout_gathers_one_row_per_unique_node() {
        let (d, csr, cfg) = small_setup();
        assert!(cfg.dedup_readout, "dedup is the default");
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let b = 16;
        let negs: Vec<u32> = (0..b).map(|i| d.graph.events()[i].dst).collect();
        let batch = prep.prepare(0..b, &[&negs], 1, &mut mem);

        let k = cfg.n_neighbors;
        let uniq = batch.pos.uniq.as_ref().expect("dedup index");
        assert_eq!(uniq.occ_to_unique.len(), 2 * b + 2 * b * k);
        assert_eq!(batch.pos.readout.rows(), uniq.num_unique());
        assert!(uniq.num_unique() <= 2 * b + 2 * b * k);
        // First-occurrence order, and every occurrence maps to its own
        // node's unique row.
        let occ_nodes = occurrence_nodes(&batch.pos.roots, &batch.pos.hops);
        let mut seen = std::collections::HashSet::new();
        let mut expect_next = 0u32;
        for (i, &node) in occ_nodes.iter().enumerate() {
            let u = uniq.occ_to_unique[i];
            assert_eq!(uniq.unique_nodes[u as usize], node, "occurrence {i}");
            if seen.insert(node) {
                assert_eq!(u, expect_next, "first-occurrence order");
                expect_next += 1;
            }
        }
        // The gathered rows are the unique nodes' rows (zeros here, but
        // shape/range must line up).
        assert_eq!(
            batch.pos.readout.block().mem.rows(),
            uniq.num_unique() + batch.negs[0].uniq.as_ref().unwrap().num_unique()
        );
    }

    /// Folded and per-occurrence layouts must expand to the same
    /// per-occurrence memory rows — the gather-level equivalence the
    /// model's bit-identical forward builds on.
    #[test]
    fn dedup_rows_expand_to_oracle_rows() {
        let (d, csr, cfg) = small_setup();
        let oracle_cfg = cfg.clone().without_dedup_readout();
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        // Seed some rows so the comparison is non-trivial.
        let seed: Vec<u32> = (0..12).map(|i| d.graph.events()[i].src).collect();
        let n = seed.len();
        MemoryAccess::write(
            &mut mem,
            MemoryWrite {
                nodes: seed,
                mem: Matrix::from_fn(n, cfg.d_mem, |r, c| (r * 7 + c) as f32),
                mem_ts: (0..n).map(|i| i as f32 + 1.0).collect(),
                mail: Matrix::from_fn(n, cfg.mail_dim(), |r, c| (r + c) as f32 * 0.5),
                mail_ts: (0..n).map(|i| i as f32 + 1.5).collect(),
            },
        );
        let folded = BatchPreparer::new(&d, &csr, &cfg).prepare(0..24, &[], 1, &mut mem.clone());
        let oracle = BatchPreparer::new(&d, &csr, &oracle_cfg).prepare(0..24, &[], 1, &mut mem);
        let uniq = folded.pos.uniq.as_ref().unwrap();
        let occ_rows = oracle.pos.readout.rows();
        assert_eq!(uniq.occ_to_unique.len(), occ_rows);
        for occ in 0..occ_rows {
            let u = uniq.occ_to_unique[occ] as usize;
            assert_eq!(
                folded.pos.readout.mem_row(u),
                oracle.pos.readout.mem_row(occ)
            );
            assert_eq!(folded.pos.readout.mem_ts(u), oracle.pos.readout.mem_ts(occ));
            assert_eq!(
                folded.pos.readout.mail_ts(u),
                oracle.pos.readout.mail_ts(occ)
            );
        }
    }

    /// Two-hop preparation: per-hop blocks multiply, the occurrence
    /// layout concatenates frontiers, and one gathered range per part
    /// still covers everything (the union contract).
    #[test]
    fn two_hop_layout_and_union_fold() {
        let (d, csr, cfg) = small_setup();
        let cfg = cfg.with_fanouts(vec![4, 2]);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let b = 12;
        let batch = prep.prepare(0..b, &[], 1, &mut mem);

        assert_eq!(batch.pos.hops.len(), 2);
        assert_eq!(batch.pos.hops[0].num_roots(), 2 * b);
        assert_eq!(batch.pos.hops[0].num_slots(), 2 * b * 4);
        assert_eq!(batch.pos.hops[1].num_roots(), 2 * b * 4);
        assert_eq!(batch.pos.hops[1].num_slots(), 2 * b * 4 * 2);
        assert_eq!(
            frontier_sizes(2 * b, &batch.pos.hops),
            vec![2 * b, 2 * b * 4, 2 * b * 4 * 2]
        );
        let occ = occurrence_nodes(&batch.pos.roots, &batch.pos.hops);
        assert_eq!(occ.len(), occurrence_rows(2 * b, &batch.pos.hops));
        // Per-hop features line up with each hop's slot count.
        assert_eq!(batch.pos.nbr_feats.len(), 2);
        assert_eq!(batch.pos.nbr_feats[0].rows(), 2 * b * 4);
        assert_eq!(batch.pos.nbr_feats[1].rows(), 2 * b * 4 * 2);
        // The fold covers the union: every occurrence of every hop
        // maps to a gathered row, and the gather is strictly smaller.
        let uniq = batch.pos.uniq.as_ref().expect("dedup default");
        assert_eq!(uniq.occ_to_unique.len(), occ.len());
        assert!(batch.pos.readout.rows() < occ.len());
        for (i, &node) in occ.iter().enumerate() {
            assert_eq!(uniq.unique_nodes[uniq.occ_to_unique[i] as usize], node);
        }
        // Padded hop-1 slots never expand (sentinel-node rule).
        let (h0, h1) = (&batch.pos.hops[0], &batch.pos.hops[1]);
        for idx in 0..h0.num_slots() {
            if !h0.is_valid_slot(idx) {
                assert_eq!(h1.counts[idx], 0, "padded slot {idx} expanded");
            }
        }
    }

    #[test]
    fn multiple_negative_sets_share_one_positive() {
        let (d, csr, cfg) = small_setup();
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let b = 8;
        let n1: Vec<u32> = (0..b).map(|i| d.graph.events()[i].dst).collect();
        let n2: Vec<u32> = (0..b).map(|i| d.graph.events()[i + b].dst).collect();
        let batch = prep.prepare(0..b, &[&n1, &n2], 1, &mut mem);
        assert_eq!(batch.negs.len(), 2);
        assert_eq!(batch.negs[0].negs, n1);
        assert_eq!(batch.negs[1].negs, n2);
        // Negative query times repeat the event times.
        assert_eq!(batch.negs[0].times, batch.pos.times);
    }

    #[test]
    fn neighbor_queries_respect_event_times() {
        let (d, csr, cfg) = small_setup();
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        // Mid-stream batch: neighbors must all precede the event time.
        let batch = prep.prepare(100..116, &[], 1, &mut mem);
        let b = batch.pos.len();
        let nbrs = batch.pos.nbrs();
        for r in 0..2 * b {
            let t_query = batch.pos.times[r % b];
            for s in 0..nbrs.counts[r] {
                let dt = nbrs.dts[nbrs.slot(r, s)];
                assert!(
                    dt >= 0.0,
                    "negative Δt at root {r} slot {s}: {dt} (query {t_query})"
                );
            }
        }
    }

    #[test]
    fn zero_edge_dim_dataset_prepares_empty_features() {
        let d = generators::mooc(0.002, 5);
        let csr = TCsr::build(&d.graph);
        let cfg = ModelConfig::compact(0);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let batch = prep.prepare(0..8, &[], 1, &mut mem);
        assert_eq!(batch.pos.event_feats.cols(), 0);
        assert_eq!(batch.pos.nbr_feats[0].cols(), 0);
        assert_eq!(batch.pos.nbr_feats[0].rows(), 16 * cfg.n_neighbors);
    }
}
