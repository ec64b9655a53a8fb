//! Folded vs per-occurrence memory readout / GRU stage
//! (`ModelConfig::dedup_readout`), at the default Table-2-analog batch
//! shape (Wikipedia analog, local batch 600, k = 10 neighbors).
//!
//! Three measurements land in `BENCH_dedup.json`:
//!
//! 1. **Row-fold ratio** — measured unique/occurrence readout rows per
//!    part over a full training sweep (the structural win: phase-2
//!    gather rows, daemon read traffic, and GRU rows all shrink by
//!    this factor).
//! 2. **GRU-stage speedup** — the memory-update stage (fused GRU
//!    forward + backward, plus the expand/fold overhead on the folded
//!    side) timed on the *real* readout blocks of a mid-stream batch.
//! 3. **End-to-end trainer throughput** — `train_single` with dedup
//!    on vs off (host wall-clock; unlike the pipeline-overlap bench
//!    this is a genuine compute reduction, so it shows on 1 CPU).
//!
//! The bench also re-checks the equivalence story inline: forward
//! scores bit-identical, end-to-end metrics matching the
//! per-occurrence oracle (the full proof lives in
//! `tests/dedup_equivalence.rs`).
//!
//! Run: `cargo bench -p disttgl-bench --bench dedup`

use disttgl_core::{
    train_single, BatchPreparer, MemoryAccess, ModelConfig, ParallelConfig, PreparedBatch,
    TgnModel, TrainConfig,
};
use disttgl_data::{generators, Dataset, NegativeStore};
use disttgl_graph::{batching, TCsr};
use disttgl_mem::MemoryState;
use disttgl_nn::{GruCache, GruCell, ParamSet};
use disttgl_tensor::{seeded_rng, Matrix};
use std::io::Write;
use std::time::Instant;

/// Prepares one mid-stream batch (folded + oracle) from a memory state
/// warmed by replaying the preceding batches, so mails and duplicate
/// structure are realistic.
fn mid_stream_batches(
    d: &Dataset,
    mc: &ModelConfig,
    batch: usize,
    warm_batches: usize,
) -> (PreparedBatch, PreparedBatch) {
    let csr = TCsr::build(&d.graph);
    let mc_occ = mc.clone().without_dedup_readout();
    let prep_fold = BatchPreparer::new(d, &csr, mc);
    let prep_occ = BatchPreparer::new(d, &csr, &mc_occ);
    let mut rng = seeded_rng(97);
    let model = TgnModel::new(mc.clone(), &mut rng);
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());
    for i in 0..warm_batches {
        let b = prep_fold.prepare(i * batch..(i + 1) * batch, &[], 1, &mut mem);
        let out = model.infer_step(&b.pos, None, None);
        MemoryAccess::write(&mut mem, out.write);
    }
    let range = warm_batches * batch..(warm_batches + 1) * batch;
    let folded = prep_fold.prepare(range.clone(), &[], 1, &mut mem.clone());
    let oracle = prep_occ.prepare(range, &[], 1, &mut mem);
    (folded, oracle)
}

/// Best-of-n wall time of `f`.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// GRU memory-update stage (forward + backward) on a readout block.
/// The folded side pays the expand (ŝ → occurrence order) and the
/// gradient fold (occurrence → unique) that the real model performs.
struct StageTimes {
    unfolded: f64,
    folded: f64,
}

fn gru_stage_times(
    mc: &ModelConfig,
    folded: &PreparedBatch,
    oracle: &PreparedBatch,
    reps: usize,
) -> StageTimes {
    let mut rng = seeded_rng(41);
    let mut params = ParamSet::new();
    let cell = GruCell::new(&mut params, "gru", mc.mail_dim(), mc.d_mem, &mut rng);

    let occ_block = oracle.pos.readout.to_readout();
    let uniq_block = folded.pos.readout.to_readout();
    let idx = folded.pos.uniq.as_ref().expect("folded index");
    let occ_rows = occ_block.mem.rows();
    let dh_occ = Matrix::full(occ_rows, mc.d_mem, 0.5);

    let mut cache = GruCache::default();
    let mut s_hat = Matrix::default();
    let unfolded = time_best(reps, || {
        params.zero_grads();
        cell.forward_rows_into(
            &params,
            &occ_block.mail,
            &occ_block.mem,
            0..occ_rows,
            &mut cache,
            &mut s_hat,
        );
        cell.backward(&mut params, &cache, &dh_occ);
    });

    let mut expanded = Matrix::default();
    let mut dh_fold = Matrix::default();
    let folded_t = time_best(reps, || {
        params.zero_grads();
        cell.forward_rows_into(
            &params,
            &uniq_block.mail,
            &uniq_block.mem,
            0..uniq_block.mem.rows(),
            &mut cache,
            &mut s_hat,
        );
        s_hat.expand_rows(&idx.occ_to_unique, &mut expanded);
        dh_occ.fold_rows_by_index(&idx.occ_to_unique, idx.num_unique(), &mut dh_fold);
        cell.backward(&mut params, &cache, &dh_fold);
    });
    StageTimes {
        unfolded,
        folded: folded_t,
    }
}

fn main() {
    // Table-2-analog workload, same as the pipeline bench: ~8k-event
    // Wikipedia analog, 172-dim edge features, local batch 600, k=10.
    let d = generators::wikipedia(0.05, 4242);
    let mut mc = ModelConfig::compact(d.edge_features.cols());
    mc.static_memory = false;
    assert!(mc.dedup_readout, "dedup is the default");
    let batch = 600usize;

    println!(
        "dedup bench: {} ({} events), batch {batch}, k={}",
        d.name,
        d.graph.num_events(),
        mc.n_neighbors
    );

    // 1. Row-fold ratio over a full training sweep.
    let csr = TCsr::build(&d.graph);
    let (train_end, _) = d.graph.chronological_split(0.70, 0.15);
    let prep = BatchPreparer::new(&d, &csr, &mc);
    let store = NegativeStore::generate(&d.graph, train_end, 2, 1, 3);
    let (mut occ_total, mut uniq_total) = (0usize, 0usize);
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());
    for range in batching::chronological_batches(0..train_end, batch) {
        let negs = store.slice(0, range.clone());
        let b = prep.prepare(range, &[negs], 1, &mut mem);
        for (uniq, occ) in [
            (
                &b.pos.uniq,
                disttgl_core::occurrence_rows(b.pos.roots.len(), &b.pos.hops),
            ),
            (
                &b.negs[0].uniq,
                disttgl_core::occurrence_rows(b.negs[0].negs.len(), &b.negs[0].hops),
            ),
        ] {
            occ_total += occ;
            uniq_total += uniq.as_ref().expect("dedup on").num_unique();
        }
    }
    let fold_ratio = occ_total as f64 / uniq_total.max(1) as f64;
    println!(
        "readout rows: {occ_total} occurrences -> {uniq_total} unique ({fold_ratio:.2}x fold)"
    );

    // 2. GRU/memory-update stage, real mid-stream readout blocks.
    let (folded_batch, oracle_batch) = mid_stream_batches(&d, &mc, batch, 4);
    let stage = gru_stage_times(&mc, &folded_batch, &oracle_batch, 5);
    let stage_speedup = stage.unfolded / stage.folded.max(1e-12);
    println!(
        "gru stage: unfolded {:.2}ms | folded {:.2}ms | speedup {stage_speedup:.2}x (target >= 2x)",
        stage.unfolded * 1e3,
        stage.folded * 1e3
    );

    // Inline forward bit-identity check on the same batch.
    let mut rng = seeded_rng(5);
    let model = TgnModel::new(mc.clone(), &mut rng);
    let out_f = model.infer_step(&folded_batch.pos, None, None);
    let out_o = model.infer_step(&oracle_batch.pos, None, None);
    let bit_identical = out_f.write.mem == out_o.write.mem && out_f.write.mail == out_o.write.mail;
    println!("forward bit-identical: {bit_identical}");

    // 3. End-to-end trainer throughput, dedup on vs off.
    let mut cfg = TrainConfig::new(ParallelConfig::single());
    cfg.local_batch = batch;
    cfg.epochs = 3;
    cfg.eval_every_epoch = false;
    cfg.seed = 7;
    let run = |m: &ModelConfig| {
        let _ = train_single(&d, m, &cfg); // warm-up
        let mut best: Option<disttgl_core::RunResult> = None;
        for _ in 0..2 {
            let r = train_single(&d, m, &cfg);
            if best
                .as_ref()
                .map(|b| r.throughput_events_per_sec > b.throughput_events_per_sec)
                .unwrap_or(true)
            {
                best = Some(r);
            }
        }
        best.expect("at least one run")
    };
    let on = run(&mc);
    let off = run(&mc.clone().without_dedup_readout());
    let e2e_speedup = on.throughput_events_per_sec / off.throughput_events_per_sec.max(1e-9);
    let metric_delta = (on.test_metric - off.test_metric).abs();
    println!(
        "trainer: folded {:.0} events/s | per-occurrence {:.0} events/s | speedup {e2e_speedup:.2}x",
        on.throughput_events_per_sec, off.throughput_events_per_sec
    );
    println!(
        "end-to-end metrics: folded {:.4} vs oracle {:.4} (|delta| {metric_delta:.4})",
        on.test_metric, off.test_metric
    );

    let host_cores = disttgl_bench::host_cores();
    let record = format!(
        "{{\"bench\":\"dedup\",\"host_cores\":{host_cores},\"dataset\":\"{}\",\"events\":{},\"local_batch\":{},\
         \"n_neighbors\":{},\
         \"occurrence_rows\":{},\"unique_rows\":{},\"fold_ratio\":{:.4},\
         \"gru_stage_unfolded_ms\":{:.3},\"gru_stage_folded_ms\":{:.3},\
         \"gru_stage_speedup\":{:.4},\
         \"trainer_folded_events_per_sec\":{:.1},\"trainer_unfolded_events_per_sec\":{:.1},\
         \"trainer_speedup\":{:.4},\
         \"forward_bit_identical\":{},\"test_metric_folded\":{:.5},\
         \"test_metric_oracle\":{:.5},\"test_metric_abs_delta\":{:.5},\
         \"metrics_match\":{}}}\n",
        d.name,
        d.graph.num_events(),
        batch,
        mc.n_neighbors,
        occ_total,
        uniq_total,
        fold_ratio,
        stage.unfolded * 1e3,
        stage.folded * 1e3,
        stage_speedup,
        on.throughput_events_per_sec,
        off.throughput_events_per_sec,
        e2e_speedup,
        bit_identical,
        on.test_metric,
        off.test_metric,
        metric_delta,
        metric_delta < 0.05
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dedup.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(record.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
