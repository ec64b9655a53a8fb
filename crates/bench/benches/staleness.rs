//! Bounded-staleness training (`TrainConfig::staleness_bound`): what
//! does skipping the Acquire-slot delta repair inside a staleness
//! budget buy, and what does it cost in accuracy?
//!
//! Four measurements land in `BENCH_staleness.json`:
//!
//! 1. **Inline k=0 bit-identity guard**: the bounded machinery at
//!    k = 0 must reproduce the exact oracle bit for bit (losses and
//!    final memory digests) — re-checked here so the bench artifact
//!    can never report a speedup against a broken baseline. The full
//!    proof lives in `tests/staleness_equivalence.rs`.
//! 2. **Micro repair sweep**: `MemoryState::repair` at bound k vs bound 0 on the
//!    Table-2-analog sweep with the speculation window pinned maximal
//!    — per-batch Acquire-slot repair time and rows repaired vs
//!    admitted as the bound grows. This is the host-measurable win:
//!    bounded staleness *deletes* repair work instead of overlapping
//!    it, so it shows up even on 1 CPU.
//! 3. **Host throughput vs k** from real `train_distributed` runs
//!    (j = 2 opens the speculation window), with the daemon's own
//!    skipped/paid/lag counters per k.
//! 4. **Accuracy deltas across seeds**: |ΔMRR| (link prediction) and
//!    |ΔF1| (edge classification) between exact and bounded runs at
//!    small k, per seed and averaged — the measured cost of the trade.
//!
//! Run: `cargo bench -p disttgl-bench --bench staleness`

use disttgl_cluster::ClusterSpec;
use disttgl_core::{
    train_distributed, BatchPreparer, ModelConfig, ParallelConfig, TgnModel, TrainConfig,
};
use disttgl_data::{generators, Dataset, NegativeStore};
use disttgl_graph::{batching, TCsr};
use disttgl_mem::MemoryState;
use disttgl_tensor::seeded_rng;
use std::io::Write;
use std::time::Instant;

/// Staleness bounds swept by the micro and host measurements.
const K_SWEEP: [u64; 5] = [0, 1, 2, 4, 8];

struct MicroPoint {
    bound: u64,
    unique_rows: u64,
    repaired_rows: u64,
    admitted_rows: u64,
    /// Mean per-batch fused repair time (seconds).
    repair_secs: f64,
}

/// Replays one training sweep with the speculative window pinned
/// maximal (batch `t + 1`'s gather taken before batch `t`'s write
/// lands) and measures the Acquire-slot repair under `bound`. At
/// bound 0 the patched block is asserted bit-identical to the
/// serialized read.
fn measure_micro(
    d: &Dataset,
    mc: &ModelConfig,
    batch: usize,
    train_end: usize,
    bound: u64,
) -> MicroPoint {
    let csr = TCsr::build(&d.graph);
    let prep = BatchPreparer::new(d, &csr, mc);
    let store = NegativeStore::generate(&d.graph, train_end, 2, 1, 3);
    let mut rng = seeded_rng(97);
    let mut model = TgnModel::new(mc.clone(), &mut rng);
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());

    let mut p = MicroPoint {
        bound,
        unique_rows: 0,
        repaired_rows: 0,
        admitted_rows: 0,
        repair_secs: 0.0,
    };
    let batches = batching::chronological_batches(0..train_end, batch);
    let n_spec = batches.len().saturating_sub(1).max(1) as f64;
    let mut pending_write = None;
    for range in &batches {
        let negs = store.slice(0, range.clone());
        let sb = prep.prepare_static(range.clone(), &[negs], 1);

        let full = match pending_write.take() {
            None => mem.read(sb.nodes()),
            Some(w) => {
                let tagged = mem.read_versioned(sb.nodes());
                mem.write(&w);
                let mut patched = tagged.readout;
                let t0 = Instant::now();
                let outcome = mem.repair(sb.nodes(), &tagged.versions, &mut patched, bound);
                p.repair_secs += t0.elapsed().as_secs_f64();
                p.unique_rows += sb.nodes().len() as u64;
                p.repaired_rows += outcome.repaired as u64;
                p.admitted_rows += outcome.admitted_stale as u64;
                if bound == 0 {
                    let serialized = mem.read(sb.nodes());
                    assert_eq!(
                        patched.mem, serialized.mem,
                        "bounded k=0 != serialized read"
                    );
                    assert_eq!(patched.mail_ts, serialized.mail_ts);
                }
                patched
            }
        };
        let b = prep.complete(sb, full);
        model.params.zero_grads();
        let out = model.train_step(&b.pos, b.negs.first(), None);
        pending_write = Some(out.write);
    }
    p.repair_secs /= n_spec;
    p
}

struct HostPoint {
    bound: Option<u64>,
    events_per_sec: f64,
    repairs_paid: u64,
    repairs_skipped: u64,
    mean_lag: f64,
    max_lag: u64,
    loss_history: Vec<f32>,
    memory_checksums: Vec<u64>,
}

fn host_run(d: &Dataset, mc: &ModelConfig, cfg: &TrainConfig, runs: usize) -> HostPoint {
    let spec = ClusterSpec::new(1, cfg.parallel.world());
    let mut best: Option<disttgl_core::RunResult> = None;
    for _ in 0..runs {
        let r = train_distributed(d, mc, cfg, spec);
        assert!(!r.aborted);
        if best
            .as_ref()
            .map(|b| r.throughput_events_per_sec > b.throughput_events_per_sec)
            .unwrap_or(true)
        {
            best = Some(r);
        }
    }
    let r = best.expect("at least one run");
    HostPoint {
        bound: cfg.staleness_bound,
        events_per_sec: r.throughput_events_per_sec,
        repairs_paid: r.daemon_delta_rows,
        repairs_skipped: r.daemon_stale_rows_admitted,
        mean_lag: r.daemon_stale_lag_sum as f64 / r.daemon_stale_rows_admitted.max(1) as f64,
        max_lag: r.daemon_stale_lag_max,
        loss_history: r.loss_history,
        memory_checksums: r.memory_checksums,
    }
}

fn main() {
    // Table-2-analog workload, matching the daemon-overlap bench.
    let d = generators::wikipedia(0.05, 4242);
    let mut mc = ModelConfig::compact(d.edge_features.cols());
    mc.static_memory = false;
    let batch = 600usize;
    let (train_end, _) = d.graph.chronological_split(0.70, 0.15);

    println!(
        "staleness bench: {} ({} events), batch {batch}, k sweep {:?}",
        d.name,
        d.graph.num_events(),
        K_SWEEP
    );

    // 2. Micro repair sweep (best of 3 per bound; staleness counts are
    // deterministic at the pinned window, times are noisy on 1 CPU).
    let mut micro: Vec<MicroPoint> = Vec::new();
    for &bound in &K_SWEEP {
        let mut point = measure_micro(&d, &mc, batch, train_end, bound);
        for _ in 0..2 {
            let rerun = measure_micro(&d, &mc, batch, train_end, bound);
            assert_eq!(point.repaired_rows, rerun.repaired_rows, "determinism");
            point.repair_secs = point.repair_secs.min(rerun.repair_secs);
        }
        println!(
            "micro k={bound}: {}/{} rows repaired, {} admitted stale, fused repair {:.3}ms/batch",
            point.repaired_rows,
            point.unique_rows,
            point.admitted_rows,
            point.repair_secs * 1e3
        );
        micro.push(point);
    }
    let repair_cost_ratio = micro.last().unwrap().repair_secs / micro[0].repair_secs.max(1e-12);
    println!(
        "acquire-slot repair cost at k={} is {:.2}x the k=0 cost ({} of {} repairs skipped)",
        K_SWEEP[K_SWEEP.len() - 1],
        repair_cost_ratio,
        micro.last().unwrap().admitted_rows,
        micro.last().unwrap().admitted_rows + micro.last().unwrap().repaired_rows
    );

    // 3. Host throughput vs k (j = 2 opens the speculation window).
    let mut cfg = TrainConfig::new(ParallelConfig::new(1, 2, 1));
    cfg.local_batch = 300;
    cfg.epochs = 4;
    cfg.eval_every_epoch = false;
    cfg.seed = 7;
    let _ = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2)); // warm-up
    let exact = host_run(&d, &mc, &cfg, 2);
    let mut host: Vec<HostPoint> = Vec::new();
    for &k in &K_SWEEP {
        let run = host_run(&d, &mc, &cfg.clone().staleness_bound(k), 2);
        println!(
            "host k={k}: {:.0} events/s ({:+.1}% vs exact {:.0}) | skipped {} / paid {} | lag mean {:.2} max {}",
            run.events_per_sec,
            100.0 * (run.events_per_sec / exact.events_per_sec - 1.0),
            exact.events_per_sec,
            run.repairs_skipped,
            run.repairs_paid,
            run.mean_lag,
            run.max_lag
        );
        host.push(run);
    }

    // 1. Inline k=0 bit-identity guard against the exact oracle.
    let k0 = &host[0];
    let bit_identical =
        k0.loss_history == exact.loss_history && k0.memory_checksums == exact.memory_checksums;
    assert!(
        bit_identical,
        "k=0 bounded run diverged from the exact oracle"
    );
    println!("bit-identical k=0 vs exact: {bit_identical}");

    // 4. Accuracy deltas across seeds, both tasks, at small k.
    let acc_k = 4u64;
    let seeds = [101u64, 202, 303];
    let small = generators::wikipedia(0.02, 4242);
    let mut small_mc = ModelConfig::compact(small.edge_features.cols());
    small_mc.static_memory = false;
    let gdelt = generators::gdelt(2.0e-5, 4242);
    let gdelt_mc = {
        let mut m = ModelConfig::compact(gdelt.edge_features.cols());
        m.static_memory = false;
        m.with_classes(gdelt.num_classes())
    };
    let mut mrr_entries = String::new();
    let mut f1_entries = String::new();
    let mut mrr_sum = 0.0f64;
    let mut f1_sum = 0.0f64;
    for &seed in &seeds {
        let mut acc_cfg = TrainConfig::new(ParallelConfig::new(1, 2, 1));
        acc_cfg.local_batch = 200;
        acc_cfg.epochs = 4;
        acc_cfg.eval_every_epoch = false;
        acc_cfg.eval_negs = 49;
        acc_cfg.seed = seed;
        let stale_cfg = acc_cfg.clone().staleness_bound(acc_k);

        let ex = train_distributed(&small, &small_mc, &acc_cfg, ClusterSpec::new(1, 2));
        let st = train_distributed(&small, &small_mc, &stale_cfg, ClusterSpec::new(1, 2));
        let d_mrr = (st.test_metric - ex.test_metric).abs();
        mrr_sum += d_mrr;
        if !mrr_entries.is_empty() {
            mrr_entries.push(',');
        }
        mrr_entries.push_str(&format!(
            "{{\"seed\":{seed},\"exact_mrr\":{:.4},\"stale_mrr\":{:.4},\"abs_delta\":{:.4}}}",
            ex.test_metric, st.test_metric, d_mrr
        ));

        let ex = train_distributed(&gdelt, &gdelt_mc, &acc_cfg, ClusterSpec::new(1, 2));
        let st = train_distributed(&gdelt, &gdelt_mc, &stale_cfg, ClusterSpec::new(1, 2));
        let d_f1 = (st.test_metric - ex.test_metric).abs();
        f1_sum += d_f1;
        if !f1_entries.is_empty() {
            f1_entries.push(',');
        }
        f1_entries.push_str(&format!(
            "{{\"seed\":{seed},\"exact_f1\":{:.4},\"stale_f1\":{:.4},\"abs_delta\":{:.4}}}",
            ex.test_metric, st.test_metric, d_f1
        ));
        println!("seed {seed}: |dMRR| {d_mrr:.4}, |dF1| {d_f1:.4} at k={acc_k}");
    }
    let mean_dmrr = mrr_sum / seeds.len() as f64;
    let mean_df1 = f1_sum / seeds.len() as f64;
    println!(
        "accuracy at k={acc_k} over {} seeds: mean |dMRR| {mean_dmrr:.4}, mean |dF1| {mean_df1:.4}",
        seeds.len()
    );

    let mut micro_json = String::new();
    for p in &micro {
        if !micro_json.is_empty() {
            micro_json.push(',');
        }
        micro_json.push_str(&format!(
            "{{\"k\":{},\"unique_rows\":{},\"repaired_rows\":{},\"admitted_rows\":{},\"repair_ms\":{:.4}}}",
            p.bound, p.unique_rows, p.repaired_rows, p.admitted_rows, p.repair_secs * 1e3
        ));
    }
    let mut host_json = String::new();
    for p in &host {
        if !host_json.is_empty() {
            host_json.push(',');
        }
        host_json.push_str(&format!(
            "{{\"k\":{},\"events_per_sec\":{:.1},\"repairs_paid\":{},\"repairs_skipped\":{},\"mean_lag\":{:.3},\"max_lag\":{}}}",
            p.bound.unwrap_or(0),
            p.events_per_sec,
            p.repairs_paid,
            p.repairs_skipped,
            p.mean_lag,
            p.max_lag
        ));
    }
    let host_cores = disttgl_bench::host_cores();
    let record = format!(
        "{{\"bench\":\"staleness\",\"host_cores\":{host_cores},\"dataset\":\"{}\",\"events\":{},\
         \"local_batch\":{},\"k_sweep\":[0,1,2,4,8],\
         \"bit_identical_k0\":{},\
         \"exact_events_per_sec\":{:.1},\
         \"repair_cost_ratio_kmax\":{:.4},\
         \"micro\":[{}],\"host\":[{}],\
         \"accuracy_k\":{},\"accuracy_seeds\":{},\
         \"mrr\":[{}],\"f1\":[{}],\
         \"mean_abs_delta_mrr\":{:.4},\"mean_abs_delta_f1\":{:.4}}}\n",
        d.name,
        d.graph.num_events(),
        batch,
        bit_identical,
        exact.events_per_sec,
        repair_cost_ratio,
        micro_json,
        host_json,
        acc_k,
        seeds.len(),
        mrr_entries,
        f1_entries,
        mean_dmrr,
        mean_df1
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_staleness.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(record.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
