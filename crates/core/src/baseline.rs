//! The original-TGN-style baseline for the comparison figures.
//!
//! [`train_tgn`] is the single-GPU pipeline TGL measured against: the
//! same math as `train_single`, but with the **unoptimized data
//! layer** — per-root neighbor sampling with fresh allocations, one
//! node-memory access per root instead of one batched gather, and
//! negatives re-sampled from scratch every epoch. (TGN's published
//! implementation loses its time in exactly this per-element host-side
//! work, not in the model math.) Vanilla TGN has no static memory.
//!
//! Everything around the step loop — split, boundary validation, the
//! final "replay validation, then test" pass and the evaluation-time
//! accounting — is the run protocol `train_single` and
//! `train_distributed` use, so accuracy-vs-iteration matches by
//! construction; what differs is the system behaviour (throughput) —
//! exactly the paper's claim decomposition.

use crate::batch::{NegativePart, PositivePart, PreparedBatch, ReadoutView};
use crate::config::{ModelConfig, TrainConfig};
use crate::metrics::RunResult;
use crate::protocol::{EvalClock, RunSetup};
use disttgl_data::{negative_range, Dataset, Task};
use disttgl_graph::{batching, NeighborBlock, RecentNeighborSampler, TCsr};
use disttgl_mem::{MemoryReadout, MemoryState};
use disttgl_tensor::{seeded_rng, Matrix};
use rand::Rng;
use std::ops::Range;
use std::time::Instant;

/// Per-root (unbatched) batch preparation: identical output to
/// [`BatchPreparer::prepare`](crate::BatchPreparer::prepare), produced
/// the slow way — one sampler call, one memory read, and fresh feature
/// allocations **per root**.
fn naive_prepare(
    dataset: &Dataset,
    csr: &TCsr,
    cfg: &ModelConfig,
    range: Range<usize>,
    negs: &[u32],
    mem: &mut MemoryState,
) -> PreparedBatch {
    let events = &dataset.graph.events()[range];
    let b = events.len();
    assert_eq!(
        cfg.n_layers, 1,
        "the TGN baseline emulates the original single-layer pipeline"
    );
    let k = cfg.fanouts()[0];
    let sampler = RecentNeighborSampler::new(k);
    let d_e = dataset.edge_features.cols();

    let mut roots: Vec<u32> = events.iter().map(|e| e.src).collect();
    roots.extend(events.iter().map(|e| e.dst));
    let mut times: Vec<f32> = events.iter().map(|e| e.t).collect();
    let times2: Vec<f32> = times.clone();
    times.extend(times2);

    // Per-root loops with per-root allocations (the emulated
    // unoptimized pipeline).
    let mut nbrs = NeighborBlock {
        k,
        nbrs: vec![0; roots.len() * k],
        eids: vec![0; roots.len() * k],
        dts: vec![0.0; roots.len() * k],
        ts: vec![0.0; roots.len() * k],
        counts: vec![0; roots.len()],
    };
    let mut readouts: Vec<MemoryReadout> = Vec::with_capacity(roots.len());
    for (r, (&root, &t)) in roots.iter().zip(&times).enumerate() {
        let block = sampler.sample(csr, &[root], &[t]);
        nbrs.counts[r] = block.counts[0];
        for s in 0..k {
            nbrs.nbrs[r * k + s] = block.nbrs[s];
            nbrs.eids[r * k + s] = block.eids[s];
            nbrs.dts[r * k + s] = block.dts[s];
            nbrs.ts[r * k + s] = block.ts[s];
        }
        // One memory access per root + its slots (vs one global read).
        let mut wanted = vec![root];
        wanted.extend_from_slice(&block.nbrs);
        readouts.push(mem.read(&wanted));
    }
    // Negatives, also per root.
    let mut neg_readouts: Vec<MemoryReadout> = Vec::with_capacity(negs.len());
    let mut neg_nbrs = NeighborBlock {
        k,
        nbrs: vec![0; negs.len() * k],
        eids: vec![0; negs.len() * k],
        dts: vec![0.0; negs.len() * k],
        ts: vec![0.0; negs.len() * k],
        counts: vec![0; negs.len()],
    };
    for (r, &neg) in negs.iter().enumerate() {
        let t = events[r % b].t;
        let block = sampler.sample(csr, &[neg], &[t]);
        neg_nbrs.counts[r] = block.counts[0];
        for s in 0..k {
            neg_nbrs.nbrs[r * k + s] = block.nbrs[s];
            neg_nbrs.eids[r * k + s] = block.eids[s];
            neg_nbrs.dts[r * k + s] = block.dts[s];
            neg_nbrs.ts[r * k + s] = block.ts[s];
        }
        let mut wanted = vec![neg];
        wanted.extend_from_slice(&block.nbrs);
        neg_readouts.push(mem.read(&wanted));
    }

    // Reassemble the batched layout row by row.
    let stitch = |readouts: &[MemoryReadout], roots_n: usize| {
        let mut out = MemoryReadout {
            mem: Matrix::zeros(roots_n + roots_n * k, cfg.d_mem),
            mem_ts: vec![0.0; roots_n + roots_n * k],
            mail: Matrix::zeros(roots_n + roots_n * k, cfg.mail_dim()),
            mail_ts: vec![0.0; roots_n + roots_n * k],
        };
        for (r, ro) in readouts.iter().enumerate() {
            out.mem.row_mut(r).copy_from_slice(ro.mem.row(0));
            out.mail.row_mut(r).copy_from_slice(ro.mail.row(0));
            out.mem_ts[r] = ro.mem_ts[0];
            out.mail_ts[r] = ro.mail_ts[0];
            for s in 0..k {
                let dst = roots_n + r * k + s;
                out.mem.row_mut(dst).copy_from_slice(ro.mem.row(1 + s));
                out.mail.row_mut(dst).copy_from_slice(ro.mail.row(1 + s));
                out.mem_ts[dst] = ro.mem_ts[1 + s];
                out.mail_ts[dst] = ro.mail_ts[1 + s];
            }
        }
        out
    };

    let edge_rows = |eids: &[u32]| {
        if d_e == 0 {
            Matrix::zeros(eids.len(), 0)
        } else {
            let mut out = Matrix::zeros(eids.len(), d_e);
            for (r, &e) in eids.iter().enumerate() {
                out.row_mut(r)
                    .copy_from_slice(dataset.edge_features.row(e as usize));
            }
            out
        }
    };

    let eids: Vec<u32> = events.iter().map(|e| e.eid).collect();
    let labels = dataset.labels.as_ref().map(|l| {
        let idx: Vec<usize> = eids.iter().map(|&e| e as usize).collect();
        l.gather_rows(&idx)
    });
    let pos = PositivePart {
        event_feats: edge_rows(&eids),
        nbr_feats: vec![edge_rows(&nbrs.eids)],
        srcs: events.iter().map(|e| e.src).collect(),
        dsts: events.iter().map(|e| e.dst).collect(),
        times: events.iter().map(|e| e.t).collect(),
        eids,
        // The unoptimized baseline keeps the per-occurrence layout
        // (no dedup, no shared block — that's the point).
        readout: ReadoutView::whole(stitch(&readouts, roots.len())),
        uniq: None,
        roots,
        root_times: times,
        hops: vec![nbrs],
        labels,
    };
    let neg_part = if negs.is_empty() {
        Vec::new()
    } else {
        let neg_times: Vec<f32> = (0..negs.len()).map(|r| events[r % b].t).collect();
        vec![NegativePart {
            nbr_feats: vec![edge_rows(&neg_nbrs.eids)],
            negs: negs.to_vec(),
            times: neg_times,
            readout: ReadoutView::whole(stitch(&neg_readouts, negs.len())),
            uniq: None,
            hops: vec![neg_nbrs],
        }]
    };
    PreparedBatch {
        pos,
        negs: neg_part,
    }
}

/// Original-TGN-style single-GPU training (see module docs).
pub fn train_tgn(dataset: &Dataset, model_cfg: &ModelConfig, cfg: &TrainConfig) -> RunResult {
    assert_eq!(cfg.parallel.world(), 1, "train_tgn is single-GPU");
    let setup = RunSetup::vanilla(dataset, model_cfg, cfg);
    let (mut model, mut adam) = setup.model();
    let neg_rng_range = negative_range(&dataset.graph);

    let mut memory = MemoryState::new(
        dataset.graph.num_nodes(),
        model_cfg.d_mem,
        model_cfg.mail_dim(),
    );
    let batches = batching::chronological_batches(0..setup.train_end, cfg.local_batch);
    let mut result = RunResult::default();
    let start = Instant::now();
    let mut clock = EvalClock::start();
    let mut iteration = 0usize;
    let mut events_trained = 0u64;

    for epoch in 0..cfg.epochs {
        memory.reset();
        let mut neg_rng = seeded_rng(cfg.seed ^ (0xbeef + epoch as u64));
        for range in &batches {
            let t_prep = Instant::now();
            // Fresh negatives every epoch (no pre-sampling).
            let negs: Vec<u32> = (0..range.len() * cfg.train_negs)
                .map(|_| neg_rng.gen_range(neg_rng_range.clone()))
                .collect();
            let negs_opt = if dataset.task == Task::LinkPrediction {
                negs
            } else {
                Vec::new()
            };
            let prepared = naive_prepare(
                dataset,
                &setup.csr,
                model_cfg,
                range.clone(),
                &negs_opt,
                &mut memory,
            );
            result.timing.prep_secs += t_prep.elapsed().as_secs_f64();

            let t_compute = Instant::now();
            model.params.zero_grads();
            let out = model.train_step(&prepared.pos, prepared.negs.first(), None);
            model.params.clip_grad_norm(5.0);
            adam.step(&mut model.params);
            result.timing.compute_secs += t_compute.elapsed().as_secs_f64();
            memory.write(&out.write);
            result.loss_history.push(out.loss);
            iteration += 1;
            events_trained += range.len() as u64;
        }
        if setup.validates() {
            let point = clock
                .time(|| setup.boundary_eval(&model, &mut memory.clone(), epoch, iteration, start));
            result.convergence.push(point);
        }
    }
    result.wall_secs = start.elapsed().as_secs_f64();
    clock.attribute(&mut result.timing, &model);
    result.throughput_events_per_sec =
        events_trained as f64 / (result.wall_secs - clock.secs).max(1e-9);
    result.test_metric = setup.final_test(&model, &mut memory);
    result.finalize_convergence();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPreparer;
    use crate::config::ParallelConfig;
    use disttgl_data::generators;

    fn tiny(d_edge: usize) -> ModelConfig {
        let mut mc = ModelConfig::compact(d_edge);
        mc.d_mem = 16;
        mc.d_time = 8;
        mc.d_emb = 16;
        mc.n_neighbors = 5;
        mc.static_memory = false;
        mc
    }

    fn quick(epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::new(ParallelConfig::single());
        cfg.local_batch = 64;
        cfg.epochs = epochs;
        cfg.eval_negs = 9;
        cfg.seed = 5;
        cfg
    }

    #[test]
    fn naive_prepare_matches_batched_prepare() {
        // The TGN baseline's slow path must produce *identical* inputs
        // to the optimized path — the baselines differ in system, not
        // semantics.
        let d = generators::wikipedia(0.004, 61);
        let csr = TCsr::build(&d.graph);
        let mc = tiny(d.edge_features.cols());
        let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());
        let negs: Vec<u32> = (0..32).map(|i| d.graph.events()[i].dst).collect();

        // Compare against the per-occurrence layout (the naive path
        // emulates the pre-dedup pipeline).
        let mc_occ = mc.clone().without_dedup_readout();
        let fast =
            BatchPreparer::new(&d, &csr, &mc_occ).prepare(64..96, &[&negs], 1, &mut mem.clone());
        let slow = naive_prepare(&d, &csr, &mc, 64..96, &negs, &mut mem);
        let (fast_pos, slow_pos) = (fast.pos.readout.to_readout(), slow.pos.readout.to_readout());
        assert_eq!(fast_pos.mem, slow_pos.mem);
        assert_eq!(fast_pos.mail_ts, slow_pos.mail_ts);
        assert_eq!(fast.pos.nbrs().nbrs, slow.pos.nbrs().nbrs);
        assert_eq!(fast.pos.nbrs().counts, slow.pos.nbrs().counts);
        assert_eq!(fast.pos.nbr_feats, slow.pos.nbr_feats);
        assert_eq!(
            fast.negs[0].readout.to_readout().mem,
            slow.negs[0].readout.to_readout().mem
        );
        assert_eq!(fast.negs[0].nbrs().nbrs, slow.negs[0].nbrs().nbrs);
    }

    #[test]
    fn tgn_baseline_trains() {
        let d = generators::wikipedia(0.003, 62);
        let res = train_tgn(&d, &tiny(d.edge_features.cols()), &quick(2));
        assert!(res.test_metric > 0.0);
        assert!(res.throughput_events_per_sec > 0.0);
        assert_eq!(res.convergence.len(), 2);
    }
}
