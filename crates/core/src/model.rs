//! The TGN-attn model with DistTGL's static-node-memory enhancement.
//!
//! Forward data flow per batch (paper Eq. 1–8, §3.1):
//!
//! 1. **Memory update** (Eq. 3/8): for every fetched node with a
//!    pending mail, `ŝ = GRU(s, mail)`; nodes without mail history keep
//!    `s` (zero until first event). With `dedup_readout` (default) the
//!    GRU runs once per *unique* node of the part and `ŝ` is expanded
//!    to occurrence order — bit-identical to the per-occurrence
//!    computation because the update is a pure per-row function of the
//!    `(mem, mail)` pair, which is shared by all of a node's
//!    occurrences. Gradients still reach the GRU from every usage
//!    (occurrence gradients are folded per unique node in ascending
//!    occurrence order — see `core::batch`), but never across events
//!    (no BPTT).
//! 2. **Static combine** (§3.1): `c = ŝ + s_static` when static node
//!    memory is enabled — the time-irrelevant information enters every
//!    read of the node state, at every hop of the frontier.
//! 3. **Temporal attention stack** (Eq. 4–7, generalized to `L`
//!    layers à la TGL): layer ℓ attends from every frontier node at
//!    depth `d < L − ℓ + 1` over its hop-`d` neighbors, with `Φ(Δt)`
//!    computed against the *memory update time* of each neighbor and
//!    the parent's own query time (the root's event time at depth 0,
//!    the connecting edge's time deeper). Each layer ends in its own
//!    combine MLP `ReLU(W_o·{h_in || h_att})`; after `L` layers only
//!    the roots remain. DistTGL's model is the `L = 1` instance, and
//!    that path is bit-identical to the historical single-layer code.
//! 4. **Memory I/O is depth-independent**: whatever `L` is, the stack
//!    consumes one readout over the *union* of all hop frontiers (see
//!    `core::batch`), so phases 1/2, the daemon protocol, and
//!    speculation never see the layer count — only a wider unique-node
//!    list.
//! 5. **Decoder**: link MLP on `{emb_src || emb_dst}` (1 positive + K
//!    sampled negatives per event), or the multi-label classifier.
//! 6. **Write-back** (delayed update, §2.1): the batch's root nodes
//!    get `mem ← ŝ` (detached) and a fresh mail
//!    `{ŝ_u || ŝ_v || Φ(t − t⁻) || e_uv}` applied at their *next*
//!    occurrence — the reversed computation order that avoids the
//!    information leak.

use crate::batch::{frontier_sizes, NegativePart, PositivePart, ReadoutIndex, ReadoutView};
use crate::config::{CombPolicy, ModelConfig};
use crate::static_mem::StaticMemory;
use disttgl_graph::NeighborBlock;
use disttgl_mem::MemoryWrite;
use disttgl_nn::{
    loss, Adam, AttentionCache, EdgeClassifier, EdgePredictor, GruCache, GruCell, Linear,
    LinearCache, ParamSet, TemporalAttention, TimeEncoding,
};
use disttgl_tensor::Matrix;
use rand::Rng;
use std::time::Instant;

/// Decoder head selected by the dataset task.
pub(crate) enum Head {
    Link(EdgePredictor),
    Class(EdgeClassifier),
}

/// One layer of the temporal-attention stack: attention plus its
/// combine MLP. Layer 0 reads `d_mem`-wide memory states; deeper
/// layers read the previous layer's `d_emb`-wide outputs. Weights are
/// shared across the frontier depths a layer processes (standard GNN
/// weight tying), which is why the attention slot count travels with
/// each call instead of the module.
#[derive(Clone, Copy)]
struct AttnLayer {
    attn: TemporalAttention,
    combine: Linear,
}

/// The model: module handles plus the shared [`ParamSet`].
pub struct TgnModel {
    /// Model hyper-parameters.
    pub cfg: ModelConfig,
    /// All learnable parameters (flat layout shared across replicas).
    pub params: ParamSet,
    time_enc: TimeEncoding,
    gru: GruCell,
    /// The `cfg.n_layers` attention layers, applied shallowest-input
    /// first (layer 0 consumes memory states at every depth).
    layers: Vec<AttnLayer>,
    head: Head,
    /// Per-trainer scratch arena reused across [`TgnModel::train_step`]
    /// calls: the GRU caches, masks, and memory-update buffers of both
    /// root sets live here, so the largest per-step matrices are
    /// allocated once and resized in place thereafter.
    scratch: StepScratch,
}

/// Reusable buffers for one embed pass (the memory-update stage, whose
/// matrices — union-frontier rows × mail_dim-adjacent — dominate
/// per-step allocation).
#[derive(Default)]
pub(crate) struct EmbedScratch {
    /// Fused-GRU gate buffers (see [`GruCell::forward_into`]).
    gru: GruCache,
    /// `ŝ`: GRU output where a mail was pending, prior memory
    /// elsewhere.
    s_hat: Matrix,
    /// 1.0 where the GRU output was selected (node had a mail).
    mask: Matrix,
    /// `ŝ + s_static` when static node memory is enabled.
    combined: Matrix,
    /// Per-depth occurrence-order rows of the memory-combined state —
    /// the layer stack's `h⁰` inputs (`states[d]` holds frontier `d`,
    /// so `states[0]`/`states[1]` are the historical
    /// `c_roots`/`c_slots`).
    states: Vec<Matrix>,
    /// Folded per-unique-node gradient accumulator (backward, dedup
    /// path).
    fold: Matrix,
    /// Cumulative wall seconds per attention layer's forward (all
    /// depths), the per-layer attribution
    /// [`TgnModel::layer_embed_secs`] reports.
    layer_secs: Vec<f64>,
}

/// Scratch for a whole training step: one arena per root set, since
/// the positive and negative embeds are both alive until backward.
#[derive(Default)]
pub(crate) struct StepScratch {
    pub(crate) pos: EmbedScratch,
    pub(crate) neg: EmbedScratch,
}

/// Forward state of one (layer, depth) attention+combine application.
struct DepthCache {
    attn_cache: AttentionCache,
    combine_cache: LinearCache,
    /// Pre-ReLU combine output.
    z: Matrix,
}

/// Per-root-set forward state kept for the backward pass (the parts
/// not already held by [`EmbedScratch`]).
pub(crate) struct EmbedCache {
    /// Per-hop Δt lists (shared by every layer attending over that
    /// hop).
    slot_dts: Vec<Vec<f32>>,
    /// `caches[ℓ][d]`: layer ℓ's application at frontier depth `d`.
    layers: Vec<Vec<DepthCache>>,
    /// Per-frontier row counts `[R, R·k₀, …]`.
    sizes: Vec<usize>,
}

/// Result of one training step.
#[derive(Clone, Debug)]
pub struct StepOutput {
    /// Mean loss of the step.
    pub loss: f32,
    /// Positive decoder scores (link task).
    pub pos_scores: Vec<f32>,
    /// Negative decoder scores, `B·K` (link task).
    pub neg_scores: Vec<f32>,
    /// The node-memory write-back for this batch's root nodes; the
    /// scheduler decides whether this trainer applies it.
    pub write: MemoryWrite,
}

impl TgnModel {
    /// Builds the model with seeded initialization.
    ///
    /// Parameter registration (and therefore RNG consumption) for
    /// `n_layers = 1` is identical to the historical single-layer
    /// model — `time, gru, attn, combine, head` in that order — so
    /// 1-layer checkpoints and seeded runs stay bit-compatible;
    /// deeper stacks append `attn1/combine1, attn2/combine2, …`
    /// between the first combine and the head.
    pub fn new(cfg: ModelConfig, rng: &mut impl Rng) -> Self {
        let fanouts = cfg.fanouts();
        let mut params = ParamSet::new();
        let time_enc = TimeEncoding::new(&mut params, "time", cfg.d_time, cfg.learnable_time);
        let gru = GruCell::new(&mut params, "gru", cfg.mail_dim(), cfg.d_mem, rng);
        let mut layers = Vec::with_capacity(cfg.n_layers);
        for (l, &fanout) in fanouts.iter().enumerate() {
            // Layer 0 consumes d_mem-wide memory states; deeper layers
            // consume the previous layer's d_emb-wide outputs.
            let in_dim = if l == 0 { cfg.d_mem } else { cfg.d_emb };
            let q_dim = in_dim + cfg.d_time;
            let kv_dim = in_dim + cfg.d_edge + cfg.d_time;
            let (attn_name, combine_name) = if l == 0 {
                ("attn".to_string(), "combine".to_string())
            } else {
                (format!("attn{l}"), format!("combine{l}"))
            };
            let mut attn = TemporalAttention::new(
                &mut params,
                &attn_name,
                q_dim,
                kv_dim,
                cfg.d_emb,
                fanout,
                rng,
            );
            if !cfg.learnable_time {
                // Only the node states carry a gradient: edge features
                // are data and Φ has no parameters to reach.
                attn = attn.with_input_grad_cols(in_dim);
            }
            let combine = Linear::new(
                &mut params,
                &combine_name,
                in_dim + cfg.d_emb,
                cfg.d_emb,
                rng,
            );
            layers.push(AttnLayer { attn, combine });
        }
        let head = if cfg.num_classes > 0 {
            Head::Class(EdgeClassifier::new(
                &mut params,
                "head",
                cfg.d_emb,
                cfg.d_emb,
                cfg.num_classes,
                rng,
            ))
        } else {
            Head::Link(EdgePredictor::new(
                &mut params,
                "head",
                cfg.d_emb,
                cfg.d_emb,
                rng,
            ))
        };
        Self {
            cfg,
            params,
            time_enc,
            gru,
            layers,
            head,
            scratch: StepScratch::default(),
        }
    }

    /// Creates an Adam optimizer shaped for this model.
    pub fn optimizer(&self, lr: f32) -> Adam {
        Adam::new(&self.params, lr)
    }

    /// Cumulative wall seconds spent in each attention layer's forward
    /// across every training step so far (positive + negative embeds)
    /// — the per-layer embed attribution surfaced in
    /// [`crate::TimingBreakdown::embed_layer_secs`]. Inference-path
    /// embeds use throwaway scratch and are not counted.
    pub fn layer_embed_secs(&self) -> Vec<f64> {
        (0..self.layers.len())
            .map(|l| {
                self.scratch.pos.layer_secs.get(l).copied().unwrap_or(0.0)
                    + self.scratch.neg.layer_secs.get(l).copied().unwrap_or(0.0)
            })
            .collect()
    }

    /// Updated memory `ŝ` (into `scratch.s_hat`), its selection mask
    /// (into `scratch.mask`), and effective update timestamps for a
    /// readout view (Eq. 3 with the has-mail guard). Rows are whatever
    /// the view holds — per-occurrence on the oracle path, one per
    /// unique node on the folded path; the math per row is identical.
    ///
    /// The fused GRU reads the view's row range of the shared gathered
    /// block straight into its cache (the only copy) and writes into
    /// the scratch buffers; rows without a pending mail are then
    /// overwritten with the prior memory in place — no per-part
    /// readout clone, no per-step GRU allocations.
    fn update_memory(&self, readout: &ReadoutView, scratch: &mut EmbedScratch) -> Vec<f32> {
        let block = readout.block();
        self.gru.forward_rows_into(
            &self.params,
            &block.mail,
            &block.mem,
            readout.range(),
            &mut scratch.gru,
            &mut scratch.s_hat,
        );
        let rows = readout.rows();
        scratch.mask.resize(rows, self.cfg.d_mem);
        let mut ts = vec![0.0f32; rows];
        for (r, t_out) in ts.iter_mut().enumerate() {
            if readout.mail_ts(r) > 0.0 {
                scratch.mask.row_mut(r).fill(1.0);
                *t_out = readout.mail_ts(r);
            } else {
                scratch.s_hat.row_mut(r).copy_from_slice(readout.mem_row(r));
                *t_out = readout.mem_ts(r);
            }
        }
        ts
    }

    /// Embeds a root set through the `L`-layer attention stack.
    /// `readout` rows follow the union-frontier occurrence layout of
    /// `core::batch` (`R` roots then each hop's slots) on the
    /// per-occurrence path, or one per unique node with `uniq` set
    /// (the folded path, bit-identical forward — expansion happens
    /// here, at the attention boundary).
    /// Returns `(embeddings, ŝ_roots, root update ts, cache)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn embed(
        &self,
        roots: &[u32],
        times: &[f32],
        hops: &[NeighborBlock],
        readout: &ReadoutView,
        uniq: Option<&ReadoutIndex>,
        nbr_feats: &[Matrix],
        static_mem: Option<&StaticMemory>,
        scratch: &mut EmbedScratch,
    ) -> (Matrix, Matrix, Vec<f32>, EmbedCache) {
        let r = roots.len();
        let n_layers = self.layers.len();
        debug_assert_eq!(hops.len(), n_layers, "one hop block per layer");
        debug_assert_eq!(nbr_feats.len(), n_layers, "one feature block per hop");
        let sizes = frontier_sizes(r, hops);
        let occ_rows: usize = sizes.iter().sum();
        // offsets[d] = first occurrence row of frontier d.
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0usize;
        for &s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        match uniq {
            Some(u) => {
                debug_assert_eq!(u.occ_to_unique.len(), occ_rows, "occurrence map");
                debug_assert_eq!(readout.rows(), u.num_unique(), "folded readout rows");
            }
            None => debug_assert_eq!(readout.rows(), occ_rows, "readout rows"),
        }

        // One fused GRU pass over the view's rows — once per unique
        // node on the folded path, once per occurrence on the oracle —
        // covering every frontier of every layer in a single stage.
        let ts = self.update_memory(readout, scratch);

        // Static combine: `ŝ + s_static`, accumulated straight from the
        // embedding table (no gathered block, no `ŝ` clone); without
        // static memory, `ŝ` is used as-is. On the folded path each
        // unique row gets its node's static row once — expansion below
        // replicates the identical sum to every occurrence. All
        // destinations are arena buffers, so the occurrence-size
        // matrices are allocated once per trainer, not per step.
        let EmbedScratch {
            s_hat,
            combined,
            states,
            layer_secs,
            ..
        } = scratch;
        let sel: &Matrix = match static_mem {
            Some(sm) if self.cfg.static_memory => {
                combined.copy_from(s_hat);
                match uniq {
                    Some(u) => {
                        combined.add_gathered_rows(0, sm.table(), &u.unique_nodes);
                    }
                    None => {
                        combined.add_gathered_rows(0, sm.table(), roots);
                        for (d, hop) in hops.iter().enumerate() {
                            combined.add_gathered_rows(offsets[d + 1], sm.table(), &hop.nbrs);
                        }
                    }
                }
                combined
            }
            _ => s_hat,
        };
        // h⁰ per depth: occurrence-order rows of the combined state
        // (states[0] = the historical c_roots, states[1] = c_slots).
        states.resize_with(sizes.len(), Matrix::default);
        for d in 0..sizes.len() {
            let range = offsets[d]..offsets[d] + sizes[d];
            match uniq {
                Some(u) => sel.expand_rows(&u.occ_to_unique[range], &mut states[d]),
                None => states[d].copy_rows_from(sel, range),
            }
        }

        // Per-hop Δt against each slot's memory-update time (Eq. 5);
        // the parent's query time is the event time at depth 0 and the
        // connecting edge's time deeper. Shared by every layer that
        // attends over the hop, so Φ(Δt) is encoded once per hop.
        let mut slot_dts: Vec<Vec<f32>> = Vec::with_capacity(n_layers);
        for (d, hop) in hops.iter().enumerate() {
            let k = hop.k;
            let parent_times: &[f32] = if d == 0 { times } else { &hops[d - 1].ts };
            debug_assert_eq!(parent_times.len(), sizes[d]);
            let mut dts = vec![0.0f32; sizes[d + 1]];
            for (parent, &t_query) in parent_times.iter().enumerate() {
                for s in 0..k {
                    let idx = parent * k + s;
                    let occ = offsets[d + 1] + idx;
                    let t_upd = match uniq {
                        Some(u) => ts[u.occ_to_unique[occ] as usize],
                        None => ts[occ],
                    };
                    dts[idx] = (t_query - t_upd).max(0.0);
                }
            }
            slot_dts.push(dts);
        }
        let phi_dts: Vec<Matrix> = slot_dts
            .iter()
            .map(|dts| self.time_enc.forward(&self.params, dts))
            .collect();
        // Φ(0) per query depth (layer ℓ queries depths `0..L − ℓ`, all
        // within `0..L`).
        let phi0: Vec<Matrix> = (0..n_layers)
            .map(|d| {
                let zeros = vec![0.0f32; sizes[d]];
                self.time_enc.forward(&self.params, &zeros)
            })
            .collect();

        // The layer stack: layer ℓ produces new states for depths
        // `0..L − ℓ`, each from its own state (query) and its hop's
        // slot states (keys/values). After L layers only depth 0 — the
        // roots — remains.
        layer_secs.resize(n_layers, 0.0);
        let mut caches: Vec<Vec<DepthCache>> = Vec::with_capacity(n_layers);
        let mut cur: Vec<Matrix> = Vec::new();
        for (l, layer) in self.layers.iter().enumerate() {
            let t_layer = Instant::now();
            let active = n_layers - l;
            let mut next = Vec::with_capacity(active);
            let mut layer_caches = Vec::with_capacity(active);
            for d in 0..active {
                let h_d: &Matrix = if l == 0 { &states[d] } else { &cur[d] };
                let h_d1: &Matrix = if l == 0 { &states[d + 1] } else { &cur[d + 1] };
                // Query features {h_d || Φ(0)}; key/value features
                // {h_{d+1} || E || Φ(Δt)}.
                let q_feat = Matrix::hcat(&[h_d, &phi0[d]]);
                let kv_feat = Matrix::hcat(&[h_d1, &nbr_feats[d], &phi_dts[d]]);
                // The caches take the feature matrices over: nothing
                // is copied for a backward pass that may never run.
                let (h_att, attn_cache) = layer.attn.forward_slots(
                    &self.params,
                    q_feat,
                    kv_feat,
                    &hops[d].counts,
                    hops[d].k,
                );
                // Combine layer with ReLU.
                let x = Matrix::hcat(&[h_d, &h_att]);
                let (z, combine_cache) = layer.combine.forward(&self.params, x);
                next.push(z.relu());
                layer_caches.push(DepthCache {
                    attn_cache,
                    combine_cache,
                    z,
                });
            }
            caches.push(layer_caches);
            cur = next;
            layer_secs[l] += t_layer.elapsed().as_secs_f64();
        }
        let emb = cur.pop().expect("stack leaves the root embeddings");

        let (s_hat_roots, root_ts) = match uniq {
            Some(u) => {
                // Returned to the caller (kept alive through
                // `build_write`), so this one is a fresh matrix — same
                // R x d_mem allocation class as the oracle's
                // `slice_rows`.
                let mut sh = Matrix::default();
                s_hat.expand_rows(&u.occ_to_unique[..r], &mut sh);
                let rts = (0..r).map(|e| ts[u.occ_to_unique[e] as usize]).collect();
                (sh, rts)
            }
            None => (s_hat.slice_rows(0, r), ts[0..r].to_vec()),
        };
        let cache = EmbedCache {
            slot_dts,
            layers: caches,
            sizes,
        };
        (emb, s_hat_roots, root_ts, cache)
    }

    /// Backward through one embed: accumulates all parameter gradients,
    /// unwinding the layer stack top-down. `scratch` must be the arena
    /// the matching [`TgnModel::embed`] call filled (GRU cache +
    /// selection mask), and `uniq` the same index that call was given:
    /// with it, occurrence gradients are folded per unique node — in
    /// ascending occurrence order, the summation contract of
    /// `core::batch` — before the single GRU backward over the folded
    /// rows.
    ///
    /// A depth-`d` state feeds layer ℓ twice — as depth `d`'s query /
    /// combine input and as depth `d − 1`'s keys/values — so its
    /// gradient merges both, in ascending-depth order (combine part,
    /// then query part, then the kv part arriving from depth `d − 1`'s
    /// earlier iteration): a fixed order, so stacked backward stays
    /// bit-reproducible.
    fn embed_backward(
        &mut self,
        cache: &EmbedCache,
        scratch: &mut EmbedScratch,
        uniq: Option<&ReadoutIndex>,
        demb: &Matrix,
    ) {
        let n_layers = self.layers.len();
        let sizes = &cache.sizes;

        // Gradients w.r.t. the current layer's *output* states, one
        // matrix per still-active depth; seeded with the embedding
        // gradient (only depth 0 survives the full stack).
        let mut g: Vec<Matrix> = Vec::new();
        for l in (0..n_layers).rev() {
            let layer = self.layers[l];
            let active = n_layers - l;
            let in_dim = if l == 0 {
                self.cfg.d_mem
            } else {
                self.cfg.d_emb
            };
            let mut g_prev: Vec<Option<Matrix>> = (0..=active).map(|_| None).collect();
            for d in 0..active {
                let gd: &Matrix = if l == n_layers - 1 { demb } else { &g[d] };
                let dc = &cache.layers[l][d];
                let dz = gd.hadamard(&dc.z.relu_deriv_from_input());
                let dx = layer
                    .combine
                    .backward(&mut self.params, &dc.combine_cache, &dz);
                let mut d_state = dx.slice_cols(0, in_dim);
                let d_h = dx.slice_cols(in_dim, dx.cols());

                // Both gradients stop at the state columns unless the
                // time encoder is learnable (see `TgnModel::new`); only
                // then is there a Φ block behind them to split off.
                let (mut dq_state, mut d_kv_state) =
                    layer.attn.backward(&mut self.params, &dc.attn_cache, &d_h);
                if self.cfg.learnable_time {
                    let zeros = vec![0.0f32; sizes[d]];
                    let dphi0 = dq_state.slice_cols(in_dim, in_dim + self.cfg.d_time);
                    self.time_enc.backward(&mut self.params, &zeros, &dphi0);
                    let start = in_dim + self.cfg.d_edge;
                    let dphi = d_kv_state.slice_cols(start, start + self.cfg.d_time);
                    self.time_enc
                        .backward(&mut self.params, &cache.slot_dts[d], &dphi);
                    dq_state = dq_state.slice_cols(0, in_dim);
                    d_kv_state = d_kv_state.slice_cols(0, in_dim);
                }
                d_state.add_assign(&dq_state);
                match &mut g_prev[d] {
                    Some(m) => m.add_assign(&d_state),
                    None => g_prev[d] = Some(d_state),
                }
                debug_assert_eq!(d_kv_state.rows(), sizes[d + 1]);
                match &mut g_prev[d + 1] {
                    Some(m) => m.add_assign(&d_kv_state),
                    None => g_prev[d + 1] = Some(d_kv_state),
                }
            }
            g = g_prev
                .into_iter()
                .map(|m| m.expect("every active depth receives a gradient"))
                .collect();
        }

        // d(ŝ) over the whole union frontier, in occurrence order
        // (depth 0 rows first — for L = 1 this is exactly the
        // historical `vcat(d_c_roots, d_c_slots)`); on the folded path
        // the occurrence gradients first reduce into per-unique rows
        // (ascending occurrence order — deterministic); GRU gradient
        // only where the mail was applied (the mask), per the
        // selection in `update_memory`.
        let parts: Vec<&Matrix> = g.iter().collect();
        let d_s_hat = Matrix::vcat(&parts);
        let d_gru_out = match uniq {
            Some(u) => {
                d_s_hat.fold_rows_by_index(&u.occ_to_unique, u.num_unique(), &mut scratch.fold);
                scratch.fold.hadamard(&scratch.mask)
            }
            None => d_s_hat.hadamard(&scratch.mask),
        };
        // No BPTT: gradients stop at the fetched memory and mails.
        self.gru
            .backward(&mut self.params, &scratch.gru, &d_gru_out);
    }

    /// The decoder head (crate-internal: the inference engine scores
    /// through it).
    pub(crate) fn head(&self) -> &Head {
        &self.head
    }

    /// The **memory-update half** of an embed, without the attention
    /// stack: runs the folded GRU over `readout`'s unique rows and
    /// expands the first `num_roots` occurrences (Eq. 3 + the has-mail
    /// guard). Because the memory write-back reads nothing but `ŝ` of
    /// the roots, this is bit-identical to the root rows a full
    /// [`TgnModel::embed`] would produce — the GRU is a pure per-row
    /// function of `(mem, mail)`, whatever else shares the gather.
    /// Returns `(ŝ_roots, root update ts)`.
    pub(crate) fn fold_memory_update(
        &self,
        readout: &ReadoutView,
        uniq: &ReadoutIndex,
        num_roots: usize,
        scratch: &mut EmbedScratch,
    ) -> (Matrix, Vec<f32>) {
        debug_assert_eq!(readout.rows(), uniq.num_unique(), "folded readout rows");
        let ts = self.update_memory(readout, scratch);
        let mut s_hat_roots = Matrix::default();
        scratch
            .s_hat
            .expand_rows(&uniq.occ_to_unique[..num_roots], &mut s_hat_roots);
        let root_ts = (0..num_roots)
            .map(|e| ts[uniq.occ_to_unique[e] as usize])
            .collect();
        (s_hat_roots, root_ts)
    }

    /// Builds the delayed-update write-back for a batch's root nodes
    /// (`srcs`/`dsts`/`times`/`event_feats` are the batch's events,
    /// `s_hat_roots`/`root_ts` the updated memory of `srcs ++ dsts`).
    ///
    /// Write order is `u₀, v₀, u₁, v₁, …` (chronological), so the
    /// last-write-wins scatter realizes the most-recent-mail `COMB`.
    pub(crate) fn build_write(
        &self,
        srcs: &[u32],
        dsts: &[u32],
        times: &[f32],
        event_feats: &Matrix,
        s_hat_roots: &Matrix,
        root_ts: &[f32],
    ) -> MemoryWrite {
        let b = srcs.len();
        let d_mem = self.cfg.d_mem;
        let mail_dim = self.cfg.mail_dim();
        let mut nodes = Vec::with_capacity(2 * b);
        let mut mem = Matrix::zeros(2 * b, d_mem);
        let mut mem_ts = Vec::with_capacity(2 * b);
        let mut mail = Matrix::zeros(2 * b, mail_dim);
        let mut mail_ts = Vec::with_capacity(2 * b);

        // Time encodings of the mail deltas Φ(t − t⁻) for both
        // endpoints of every event.
        let mut deltas = Vec::with_capacity(2 * b);
        for e in 0..b {
            deltas.push((times[e] - root_ts[e]).max(0.0));
            deltas.push((times[e] - root_ts[b + e]).max(0.0));
        }
        let phi = self.time_enc.forward(&self.params, &deltas);

        for e in 0..b {
            let (u, v, t) = (srcs[e], dsts[e], times[e]);
            let su = s_hat_roots.row(e);
            let sv = s_hat_roots.row(b + e);
            let feats = event_feats.row(e);

            let row = 2 * e;
            nodes.push(u);
            mem.row_mut(row).copy_from_slice(su);
            mem_ts.push(root_ts[e]);
            {
                let m = mail.row_mut(row);
                m[0..d_mem].copy_from_slice(su);
                m[d_mem..2 * d_mem].copy_from_slice(sv);
                m[2 * d_mem..2 * d_mem + self.cfg.d_time].copy_from_slice(phi.row(row));
                m[2 * d_mem + self.cfg.d_time..].copy_from_slice(feats);
            }
            mail_ts.push(t);

            let row = 2 * e + 1;
            nodes.push(v);
            mem.row_mut(row).copy_from_slice(sv);
            mem_ts.push(root_ts[b + e]);
            {
                let m = mail.row_mut(row);
                m[0..d_mem].copy_from_slice(sv);
                m[d_mem..2 * d_mem].copy_from_slice(su);
                m[2 * d_mem..2 * d_mem + self.cfg.d_time].copy_from_slice(phi.row(row));
                m[2 * d_mem + self.cfg.d_time..].copy_from_slice(feats);
            }
            mail_ts.push(t);
        }
        match self.cfg.comb {
            CombPolicy::MostRecent => MemoryWrite {
                nodes,
                mem,
                mem_ts,
                mail,
                mail_ts,
            },
            CombPolicy::Mean => combine_mean(MemoryWrite {
                nodes,
                mem,
                mem_ts,
                mail,
                mail_ts,
            }),
        }
    }

    /// Replicates each source-embedding row `K×` to pair with the
    /// negatives.
    fn repeat_rows(m: &Matrix, k: usize) -> Matrix {
        let idx: Vec<usize> = (0..m.rows() * k).map(|i| i / k).collect();
        m.gather_rows(&idx)
    }

    /// Folds `B·K` row gradients back to `B` by summing each K-block.
    fn fold_rows(m: &Matrix, k: usize) -> Matrix {
        let b = m.rows() / k;
        let mut out = Matrix::zeros(b, m.cols());
        for r in 0..m.rows() {
            let dst = r / k;
            for (o, &v) in out.row_mut(dst).iter_mut().zip(m.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// One **training** step: forward + loss + full backward, gradient
    /// accumulation into `self.params`. Link-prediction datasets need
    /// `neg`; classification datasets need `pos.labels`.
    pub fn train_step(
        &mut self,
        pos: &PositivePart,
        neg: Option<&NegativePart>,
        static_mem: Option<&StaticMemory>,
    ) -> StepOutput {
        let b = pos.len();
        // Detach the arena so `self` stays borrowable; returned below.
        let mut scratch = std::mem::take(&mut self.scratch);
        let (pos_emb, s_hat_roots, root_ts, pos_cache) = self.embed(
            pos_roots(pos),
            pos_times(pos),
            &pos.hops,
            &pos.readout,
            pos.uniq.as_ref(),
            &pos.nbr_feats,
            static_mem,
            &mut scratch.pos,
        );
        let write = self.build_write(
            &pos.srcs,
            &pos.dsts,
            &pos.times,
            &pos.event_feats,
            &s_hat_roots,
            &root_ts,
        );
        let src_emb = pos_emb.slice_rows(0, b);
        let dst_emb = pos_emb.slice_rows(b, 2 * b);

        let out = match (&self.head, neg) {
            (Head::Link(pred), Some(neg)) => {
                let pred = *pred;
                let kneg = neg.negs.len() / b;
                let (neg_emb, _, _, neg_cache) = self.embed(
                    &neg.negs,
                    &neg.times,
                    &neg.hops,
                    &neg.readout,
                    neg.uniq.as_ref(),
                    &neg.nbr_feats,
                    static_mem,
                    &mut scratch.neg,
                );
                let (pos_logits, pc) = pred.forward(&self.params, &src_emb, &dst_emb);
                let src_rep = Self::repeat_rows(&src_emb, kneg);
                let (neg_logits, nc) = pred.forward(&self.params, &src_rep, &neg_emb);
                let (l, dp, dn) = loss::link_prediction_loss(&pos_logits, &neg_logits);

                let (dsrc1, ddst) = pred.backward(&mut self.params, &pc, &dp);
                let (dsrc_rep, dneg) = pred.backward(&mut self.params, &nc, &dn);
                let mut dsrc = dsrc1;
                dsrc.add_assign(&Self::fold_rows(&dsrc_rep, kneg));
                let dpos_emb = Matrix::vcat(&[&dsrc, &ddst]);
                self.embed_backward(&pos_cache, &mut scratch.pos, pos.uniq.as_ref(), &dpos_emb);
                self.embed_backward(&neg_cache, &mut scratch.neg, neg.uniq.as_ref(), &dneg);

                StepOutput {
                    loss: l,
                    pos_scores: pos_logits.into_vec(),
                    neg_scores: neg_logits.into_vec(),
                    write,
                }
            }
            (Head::Class(clf), _) => {
                let clf = *clf;
                let labels = pos.labels.as_ref().expect("classification needs labels");
                let (logits, pc) = clf.forward(&self.params, &src_emb, &dst_emb);
                let (l, dl) = loss::multi_label_bce(&logits, labels);
                let (dsrc, ddst) = clf.backward(&mut self.params, &pc, &dl);
                let dpos_emb = Matrix::vcat(&[&dsrc, &ddst]);
                self.embed_backward(&pos_cache, &mut scratch.pos, pos.uniq.as_ref(), &dpos_emb);
                StepOutput {
                    loss: l,
                    pos_scores: logits.into_vec(),
                    neg_scores: Vec::new(),
                    write,
                }
            }
            (Head::Link(_), None) => panic!("link prediction training needs a negative part"),
        };
        self.scratch = scratch;
        out
    }

    /// Inference-only step: scores + write-back, no gradients. Used by
    /// evaluation (which must keep updating node memory as it walks
    /// the stream) and by throughput measurements of the baselines.
    pub fn infer_step(
        &self,
        pos: &PositivePart,
        neg: Option<&NegativePart>,
        static_mem: Option<&StaticMemory>,
    ) -> StepOutput {
        // `&self` receiver → per-call engine scratch (evaluation and
        // serving hot loops hold their own long-lived
        // [`crate::InferenceEngine`] instead).
        crate::engine::InferenceEngine::new().infer_step(self, pos, neg, static_mem)
    }

    /// `repeat_rows` for the engine (crate-internal).
    pub(crate) fn repeat_rows_for(m: &Matrix, k: usize) -> Matrix {
        Self::repeat_rows(m, k)
    }
}

/// Mean-`COMB` post-processing: collapse duplicate nodes by averaging
/// their mails; memory rows and timestamps keep the latest occurrence
/// (the memory itself is identical across a node's occurrences — all
/// were read at batch start).
fn combine_mean(w: MemoryWrite) -> MemoryWrite {
    use std::collections::HashMap;
    let mut index: HashMap<u32, usize> = HashMap::new();
    let mut order: Vec<u32> = Vec::new();
    let mut counts: Vec<f32> = Vec::new();
    let d_mem = w.mem.cols();
    let mail_dim = w.mail.cols();
    let mut mem_rows: Vec<Vec<f32>> = Vec::new();
    let mut mail_sums: Vec<Vec<f32>> = Vec::new();
    let mut mem_ts = Vec::new();
    let mut mail_ts = Vec::new();
    for (row, &node) in w.nodes.iter().enumerate() {
        match index.get(&node) {
            Some(&slot) => {
                counts[slot] += 1.0;
                for (a, &b) in mail_sums[slot].iter_mut().zip(w.mail.row(row)) {
                    *a += b;
                }
                // Latest occurrence wins for memory and timestamps.
                mem_rows[slot].copy_from_slice(w.mem.row(row));
                mem_ts[slot] = w.mem_ts[row];
                mail_ts[slot] = w.mail_ts[row];
            }
            None => {
                index.insert(node, order.len());
                order.push(node);
                counts.push(1.0);
                mem_rows.push(w.mem.row(row).to_vec());
                mail_sums.push(w.mail.row(row).to_vec());
                mem_ts.push(w.mem_ts[row]);
                mail_ts.push(w.mail_ts[row]);
            }
        }
    }
    let n = order.len();
    let mut mem = Matrix::zeros(n, d_mem);
    let mut mail = Matrix::zeros(n, mail_dim);
    for slot in 0..n {
        mem.row_mut(slot).copy_from_slice(&mem_rows[slot]);
        let inv = 1.0 / counts[slot];
        for (o, &s) in mail.row_mut(slot).iter_mut().zip(&mail_sums[slot]) {
            *o = s * inv;
        }
    }
    MemoryWrite {
        nodes: order,
        mem,
        mem_ts,
        mail,
        mail_ts,
    }
}

/// The positive roots `srcs ++ dsts`, materialized once at batch
/// preparation (phase 1) instead of cloned on every training pass.
pub(crate) fn pos_roots(pos: &PositivePart) -> &[u32] {
    &pos.roots
}

/// Query times of [`pos_roots`] (`times ++ times`).
pub(crate) fn pos_times(pos: &PositivePart) -> &[f32] {
    &pos.root_times
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchPreparer, MemoryAccess};
    use disttgl_data::{generators, NegativeStore};
    use disttgl_graph::TCsr;
    use disttgl_mem::MemoryState;
    use disttgl_tensor::seeded_rng;

    fn setup() -> (disttgl_data::Dataset, TCsr, ModelConfig) {
        let d = generators::wikipedia(0.005, 11);
        let csr = TCsr::build(&d.graph);
        let mut cfg = ModelConfig::compact(d.edge_features.cols());
        cfg.n_neighbors = 5;
        (d, csr, cfg)
    }

    #[test]
    fn train_step_produces_finite_loss_and_write() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(1);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let store = NegativeStore::generate(&d.graph, 64, 2, 1, 3);

        let batch = prep.prepare(0..32, &[store.slice(0, 0..32)], 1, &mut mem);
        let out = model.train_step(&batch.pos, Some(&batch.negs[0]), None);
        assert!(out.loss.is_finite() && out.loss > 0.0);
        assert_eq!(out.pos_scores.len(), 32);
        assert_eq!(out.neg_scores.len(), 32);
        assert_eq!(out.write.nodes.len(), 64);
        assert!(!out.write.mem.has_non_finite());
        // Gradients were accumulated.
        assert!(model.params.flatten_grads().iter().any(|&g| g != 0.0));
        assert!(!model.params.has_non_finite());
    }

    #[test]
    fn memory_write_feeds_next_batch() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(2);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let store = NegativeStore::generate(&d.graph, 128, 1, 1, 3);

        let b0 = prep.prepare(0..32, &[store.slice(0, 0..32)], 1, &mut mem);
        let out0 = model.train_step(&b0.pos, Some(&b0.negs[0]), None);
        MemoryAccess::write(&mut mem, out0.write);

        // Second batch: roots that appeared in batch 0 now carry
        // non-zero memory and mails.
        let b1 = prep.prepare(32..64, &[store.slice(0, 32..64)], 1, &mut mem);
        let touched: std::collections::HashSet<u32> =
            b0.pos.srcs.iter().chain(&b0.pos.dsts).copied().collect();
        let roots = pos_roots(&b1.pos);
        let mut saw_nonzero = false;
        for (r, node) in roots.iter().enumerate() {
            if touched.contains(node) {
                let row = b1
                    .pos
                    .uniq
                    .as_ref()
                    .map_or(r, |u| u.occ_to_unique[r] as usize);
                saw_nonzero |= b1.pos.readout.mail_ts(row) > 0.0;
            }
        }
        assert!(
            saw_nonzero,
            "batch-0 writes never surfaced in batch 1 reads"
        );
        let out1 = model.train_step(&b1.pos, Some(&b1.negs[0]), None);
        assert!(out1.loss.is_finite());
    }

    /// Training on repeated batches must reduce the loss — the
    /// end-to-end learning sanity check for the full manual backward.
    #[test]
    fn loss_decreases_with_training() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(3);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        let mut adam = model.optimizer(5e-3);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let store = NegativeStore::generate(&d.graph, 64, 1, 1, 7);

        let mut first = 0.0;
        let mut last = 0.0;
        for iter in 0..30 {
            // Fresh memory each pass: isolates weight learning.
            let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
            let batch = prep.prepare(0..64, &[store.slice(0, 0..64)], 1, &mut mem);
            model.params.zero_grads();
            let out = model.train_step(&batch.pos, Some(&batch.negs[0]), None);
            model.params.clip_grad_norm(5.0);
            adam.step(&mut model.params);
            if iter == 0 {
                first = out.loss;
            }
            last = out.loss;
        }
        assert!(
            last < first * 0.8,
            "loss failed to decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn static_memory_changes_predictions() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(4);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let store = NegativeStore::generate(&d.graph, 32, 1, 1, 3);
        let batch = prep.prepare(0..16, &[store.slice(0, 0..16)], 1, &mut mem);

        let plain = model.infer_step(&batch.pos, Some(&batch.negs[0]), None);
        let sm = StaticMemory::random(d.graph.num_nodes(), cfg.d_mem, 5);
        let with_static = model.infer_step(&batch.pos, Some(&batch.negs[0]), Some(&sm));
        assert_ne!(plain.pos_scores, with_static.pos_scores);
    }

    #[test]
    fn classification_head_trains() {
        let d = generators::gdelt(2e-5, 9);
        let csr = TCsr::build(&d.graph);
        let mut cfg = ModelConfig::compact(d.edge_features.cols()).with_classes(56);
        cfg.n_neighbors = 5;
        let mut rng = seeded_rng(5);
        let mut model = TgnModel::new(cfg.clone(), &mut rng);
        let mut adam = model.optimizer(5e-3);
        let prep = BatchPreparer::new(&d, &csr, &cfg);

        let mut first = 0.0;
        let mut last = 0.0;
        for iter in 0..25 {
            let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
            let batch = prep.prepare(0..64, &[], 1, &mut mem);
            model.params.zero_grads();
            let out = model.train_step(&batch.pos, None, None);
            model.params.clip_grad_norm(5.0);
            adam.step(&mut model.params);
            if iter == 0 {
                first = out.loss;
            }
            last = out.loss;
        }
        assert!(
            last < first,
            "classification loss: first {first}, last {last}"
        );
    }

    #[test]
    fn write_respects_comb_most_recent() {
        // If a node appears in two events of the batch, the write must
        // leave the *later* event's mail.
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(6);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let batch = prep.prepare(0..64, &[], 1, &mut mem);
        let out = model.infer_step(&batch.pos, None, None);
        MemoryAccess::write(&mut mem, out.write);
        // For every node, stored mail_ts must equal its *last* event
        // time within the batch.
        let mut expect: std::collections::HashMap<u32, f32> = Default::default();
        for e in 0..batch.pos.len() {
            expect.insert(batch.pos.srcs[e], batch.pos.times[e]);
            expect.insert(batch.pos.dsts[e], batch.pos.times[e]);
        }
        for (&node, &t) in &expect {
            let r = MemoryState::read(&mem, &[node]);
            assert_eq!(r.mail_ts[0], t, "node {node}");
        }
    }

    #[test]
    fn mean_comb_averages_duplicate_mails() {
        let (d, csr, mut cfg) = setup();
        cfg.comb = crate::config::CombPolicy::Mean;
        let mut rng = seeded_rng(8);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let batch = prep.prepare(0..64, &[], 1, &mut mem);
        let out = model.infer_step(&batch.pos, None, None);
        // Nodes are unique after mean combination.
        let mut sorted = out.write.nodes.clone();
        sorted.sort_unstable();
        let len_before = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), len_before, "mean COMB must dedup nodes");
        // Timestamps still carry the node's latest event.
        let mut expect: std::collections::HashMap<u32, f32> = Default::default();
        for e in 0..batch.pos.len() {
            expect.insert(batch.pos.srcs[e], batch.pos.times[e]);
            expect.insert(batch.pos.dsts[e], batch.pos.times[e]);
        }
        for (node, &ts) in out.write.nodes.iter().zip(&out.write.mail_ts) {
            assert_eq!(ts, expect[node], "node {node}");
        }
        assert!(!out.write.mail.has_non_finite());
    }

    #[test]
    fn mean_and_most_recent_agree_when_no_duplicates() {
        let (d, csr, cfg) = setup();
        let mut cfg_mean = cfg.clone();
        cfg_mean.comb = crate::config::CombPolicy::Mean;
        let mut rng = seeded_rng(9);
        let model_a = TgnModel::new(cfg.clone(), &mut rng);
        let mut rng = seeded_rng(9);
        let model_b = TgnModel::new(cfg_mean, &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        // Find a small prefix without duplicate endpoints.
        let mut end = 0;
        let mut seen = std::collections::HashSet::new();
        for (idx, e) in d.graph.events().iter().enumerate().take(64) {
            if !seen.insert(e.src) || !seen.insert(e.dst) {
                break;
            }
            end = idx + 1;
        }
        assert!(end >= 2, "need a duplicate-free prefix");
        let batch = prep.prepare(0..end, &[], 1, &mut mem);
        let wa = model_a.infer_step(&batch.pos, None, None).write;
        let wb = model_b.infer_step(&batch.pos, None, None).write;
        assert_eq!(wa.nodes, wb.nodes);
        assert_eq!(wa.mail, wb.mail);
        assert_eq!(wa.mem, wb.mem);
    }

    /// The attention gradient window is `d_mem` columns with a fixed
    /// time encoder and the full feature width with a learnable one.
    /// Same seed ⇒ same weights and same forward, so every gradient the
    /// two models share must agree bit for bit — the window drops
    /// columns, it never changes one — while only the learnable model
    /// reaches ω/φ (through the widened window).
    #[test]
    fn gradient_window_widens_for_learnable_time_and_moves_nothing_else() {
        let (d, csr, cfg) = setup();
        let mut learnable = cfg.clone();
        learnable.learnable_time = true;
        let store = NegativeStore::generate(&d.graph, 64, 1, 1, 3);
        let grads = |cfg: &ModelConfig| {
            let mut model = TgnModel::new(cfg.clone(), &mut seeded_rng(12));
            let prep = BatchPreparer::new(&d, &csr, cfg);
            let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
            // Two steps, so the second reads non-trivial memory, mails
            // and Δt.
            for range in [0..32usize, 32..64] {
                let batch = prep.prepare(range.clone(), &[store.slice(0, range)], 1, &mut mem);
                model.params.zero_grads();
                let out = model.train_step(&batch.pos, Some(&batch.negs[0]), None);
                MemoryAccess::write(&mut mem, out.write);
            }
            model.params
        };
        let (fixed, learned) = (grads(&cfg), grads(&learnable));
        assert_eq!(fixed.len(), learned.len());
        for idx in 0..fixed.len() {
            let (f, l) = (&fixed.get(idx).g, &learned.get(idx).g);
            if fixed.name(idx).starts_with("time.") {
                assert!(
                    f.as_slice().iter().all(|&g| g == 0.0),
                    "fixed Φ got a gradient"
                );
                assert!(
                    l.as_slice().iter().any(|&g| g != 0.0),
                    "learnable Φ got none"
                );
            } else {
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(f), bits(l), "{}", fixed.name(idx));
            }
        }
    }

    /// The intra-op budget moves no bit of a training step: at 1 and 2
    /// layers, budget 1 and budget 2 give the same loss, every
    /// parameter gradient and the same memory write. The products are
    /// past the split threshold, so budget 2 really splits them.
    #[test]
    fn train_step_is_bit_identical_under_any_intra_op_budget() {
        let (d, csr, cfg) = setup();
        let store = NegativeStore::generate(&d.graph, 128, 1, 1, 3);
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        for layers in [1, 2] {
            let cfg = cfg.clone().with_layers(layers);
            let step = || {
                let mut model = TgnModel::new(cfg.clone(), &mut seeded_rng(13));
                let prep = BatchPreparer::new(&d, &csr, &cfg);
                let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
                // Two steps, so the second reads non-trivial memory.
                let mut seen = Vec::new();
                for range in [0..64usize, 64..128] {
                    let batch = prep.prepare(range.clone(), &[store.slice(0, range)], 1, &mut mem);
                    model.params.zero_grads();
                    let out = model.train_step(&batch.pos, Some(&batch.negs[0]), None);
                    seen.push(out.loss.to_bits());
                    seen.extend(bits(&model.params.flatten_grads()));
                    seen.extend(bits(out.write.mem.as_slice()));
                    seen.extend(bits(out.write.mail.as_slice()));
                    MemoryAccess::write(&mut mem, out.write);
                }
                seen
            };
            let unsplit = disttgl_tensor::par::with_budget(1, step);
            assert!(
                disttgl_tensor::par::with_budget(2, step) == unsplit,
                "{layers} layers"
            );
        }
    }

    #[test]
    fn infer_step_has_no_gradient_side_effects() {
        let (d, csr, cfg) = setup();
        let mut rng = seeded_rng(7);
        let model = TgnModel::new(cfg.clone(), &mut rng);
        let prep = BatchPreparer::new(&d, &csr, &cfg);
        let mut mem = MemoryState::new(d.graph.num_nodes(), cfg.d_mem, cfg.mail_dim());
        let store = NegativeStore::generate(&d.graph, 16, 1, 1, 3);
        let batch = prep.prepare(0..16, &[store.slice(0, 0..16)], 1, &mut mem);
        let _ = model.infer_step(&batch.pos, Some(&batch.negs[0]), None);
        assert!(model.params.flatten_grads().iter().all(|&g| g == 0.0));
    }
}
