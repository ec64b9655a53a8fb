//! The distributed memory daemon's speculative-gather overlap
//! (`TrainConfig::speculative_gather`): how stale is a unique-row
//! speculative read, and what does hiding the serialized gather buy?
//!
//! Four measurements land in `BENCH_daemon.json`:
//!
//! 1. **Unique-row stale fraction** (the re-measure ROADMAP asked for
//!    before committing to the protocol): over a full training sweep
//!    at the Table-2-analog shape, batch `t + 1`'s unique-node gather
//!    is taken *before* batch `t`'s write lands — the maximal j ≥ 2
//!    staleness window — and the repair counts the rows the write
//!    actually invalidated. PR 2's dedup shrank the repair *volume*
//!    ~38×; this measures the *fraction* of the (now small) unique-row
//!    set that still needs repair.
//! 2. **Protocol stale fraction** from a real `train_distributed` run
//!    (j = 2, speculation on): `delta_rows / spec_rows` out of the
//!    daemon's own counters.
//! 3. **Modeled overlap speedup**: on the Acquire turn's critical path
//!    the serialized full gather is replaced by the in-place repair
//!    (the speculative gather runs inside the daemon's idle gaps). Host
//!    stage times + the harness's simulated-GPU compute factor give
//!    the modeled step-time ratio, with the usual sensitivity sweep.
//! 4. **Host wall-clock** `train_distributed` speculation on vs off —
//!    honest about this container: with 1 CPU trainers, daemon, and
//!    prefetch workers serialize, so expect ~1.0×; the overlap needs
//!    real parallel hardware and is exactly what (3) models.
//!
//! The bench re-checks bit-identity inline (loss histories and final
//! memory digests on vs off); the full proof lives in
//! `tests/daemon_overlap_equivalence.rs`.
//!
//! Run: `cargo bench -p disttgl-bench --bench daemon_overlap`

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

/// Simulated-GPU compute speed relative to one host thread (same
/// calibration as the pipeline bench).
const GPU_FACTOR: f64 = 25.0;

struct SweepResult {
    unique_rows: u64,
    stale_rows: u64,
    /// Mean per-batch stage times (seconds).
    gather_full: f64,
    spec_gather: f64,
    /// In-place repair (`MemoryState::repair` at bound 0, the Acquire
    /// slot's work).
    repair: f64,
    split: f64,
    compute: f64,
}

/// Replays one training sweep with the speculative window pinned to
/// its maximum (the gather of batch `t + 1` taken before batch `t`'s
/// write), measuring staleness and per-stage times, and verifying the
/// patched block equals the serialized read bit for bit.
fn measure_sweep(d: &Dataset, mc: &ModelConfig, batch: usize, train_end: usize) -> SweepResult {
    let csr = TCsr::build(&d.graph);
    let prep = BatchPreparer::new(d, &csr, mc);
    let store = NegativeStore::generate(&d.graph, train_end, 2, 1, 3);
    let mut rng = seeded_rng(97);
    let mut model = TgnModel::new(mc.clone(), &mut rng);
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());

    let mut r = SweepResult {
        unique_rows: 0,
        stale_rows: 0,
        gather_full: 0.0,
        spec_gather: 0.0,
        repair: 0.0,
        split: 0.0,
        compute: 0.0,
    };
    let batches = batching::chronological_batches(0..train_end, batch);
    let n_spec = batches.len().saturating_sub(1).max(1) as f64;
    let mut pending_write = None;
    for range in &batches {
        let negs = store.slice(0, range.clone());
        let sb = prep.prepare_static(range.clone(), &[negs], 1);

        let full = match pending_write.take() {
            None => mem.read(sb.nodes()), // cold start: serialized
            Some(w) => {
                // Speculative gather *before* the previous batch's
                // write lands (the j ≥ 2 window at its widest).
                let t0 = Instant::now();
                let tagged = mem.read_versioned(sb.nodes());
                r.spec_gather += t0.elapsed().as_secs_f64();
                mem.write(&w);
                // Critical-path work at the Acquire turn: in-place
                // repair.
                let mut patched = tagged.readout;
                let t0 = Instant::now();
                let outcome = mem.repair(sb.nodes(), &tagged.versions, &mut patched, 0);
                r.repair += t0.elapsed().as_secs_f64();
                r.unique_rows += sb.nodes().len() as u64;
                r.stale_rows += outcome.repaired as u64;
                // What the serialized turn would have paid instead —
                // and the bit-identity check against it.
                let t0 = Instant::now();
                let serialized = mem.read(sb.nodes());
                r.gather_full += t0.elapsed().as_secs_f64();
                assert_eq!(patched.mem, serialized.mem, "repair != serialized read");
                assert_eq!(patched.mail_ts, serialized.mail_ts);
                patched
            }
        };
        let t0 = Instant::now();
        let b = prep.complete(sb, full);
        r.split += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        model.params.zero_grads();
        let out = model.train_step(&b.pos, b.negs.first(), None);
        r.compute += t0.elapsed().as_secs_f64();
        pending_write = Some(out.write);
    }
    let n = batches.len() as f64;
    r.gather_full /= n_spec;
    r.spec_gather /= n_spec;
    r.repair /= n_spec;
    r.split /= n;
    r.compute /= n;
    r
}

/// `(serialized step, speculative step)` under the simulated-GPU
/// model: the speculative gather leaves the critical path; the fused
/// in-place repair replaces the full gather in the Acquire turn.
fn modeled_steps(r: &SweepResult, factor: f64) -> (f64, f64) {
    let compute = r.compute / factor;
    let seq = r.gather_full + r.split + compute;
    let spec = r.repair + r.split + compute;
    (seq, spec)
}

/// Paper-regime projection: this harness's gather is a small in-core
/// memcpy, but the paper's memory ops are the dominant serialized
/// stage (Fig 2(b): up to ~half the multi-GPU step). With the repair
/// costing `ratio`× the gather, hiding a gather that is `share` of
/// the serialized step buys `1 / (1 - share·(1 - ratio))`.
fn paper_regime_speedup(share: f64, ratio: f64) -> f64 {
    1.0 / (1.0 - share * (1.0 - ratio))
}

fn main() {
    // Table-2-analog workload, matching the pipeline/dedup benches.
    let d = generators::wikipedia(0.05, 4242);
    let mut mc = ModelConfig::compact(d.edge_features.cols());
    mc.static_memory = false;
    assert!(mc.dedup_readout, "unique-row layout is the default");
    let batch = 600usize;
    let (train_end, _) = d.graph.chronological_split(0.70, 0.15);

    println!(
        "daemon overlap bench: {} ({} events), batch {batch}, k={}",
        d.name,
        d.graph.num_events(),
        mc.n_neighbors
    );

    // 1 + 3. Stale fraction and stage times over a sweep. Staleness
    // counts are deterministic; the sub-millisecond stage times are
    // noisy on a shared 1-CPU host, so take the best of three sweeps
    // per stage (min is the standard noise-robust estimator).
    let mut sweep = measure_sweep(&d, &mc, batch, train_end);
    for _ in 0..2 {
        let rerun = measure_sweep(&d, &mc, batch, train_end);
        sweep.gather_full = sweep.gather_full.min(rerun.gather_full);
        sweep.spec_gather = sweep.spec_gather.min(rerun.spec_gather);
        sweep.repair = sweep.repair.min(rerun.repair);
        sweep.split = sweep.split.min(rerun.split);
        sweep.compute = sweep.compute.min(rerun.compute);
        assert_eq!(sweep.stale_rows, rerun.stale_rows, "staleness determinism");
    }
    let stale_fraction = sweep.stale_rows as f64 / sweep.unique_rows.max(1) as f64;
    println!(
        "unique-row staleness: {}/{} rows rewritten by the previous batch ({:.1}%)",
        sweep.stale_rows,
        sweep.unique_rows,
        stale_fraction * 100.0
    );
    println!(
        "per-batch stages: full gather {:.3}ms | spec gather {:.3}ms (hidden) | repair {:.3}ms | split {:.3}ms | compute {:.2}ms (host)",
        sweep.gather_full * 1e3,
        sweep.spec_gather * 1e3,
        sweep.repair * 1e3,
        sweep.split * 1e3,
        sweep.compute * 1e3
    );
    let mem_stage_speedup = sweep.gather_full / sweep.repair.max(1e-12);
    let repair_ratio = sweep.repair / sweep.gather_full.max(1e-12);
    println!("memory-stage critical path: {mem_stage_speedup:.2}x (full gather -> repair)");

    let (seq_step, spec_step) = modeled_steps(&sweep, GPU_FACTOR);
    let modeled_speedup = seq_step / spec_step.max(1e-12);
    println!(
        "modeled (gpu {GPU_FACTOR:.0}x) acquire step {:.3}ms -> {:.3}ms | speedup {modeled_speedup:.3}x (this harness's gather is {:.1}% of the step)",
        seq_step * 1e3,
        spec_step * 1e3,
        sweep.gather_full / seq_step * 100.0
    );
    let mut sensitivity = String::new();
    for factor in [10.0, 25.0, 50.0, 100.0] {
        let (s, p) = modeled_steps(&sweep, factor);
        if !sensitivity.is_empty() {
            sensitivity.push(',');
        }
        sensitivity.push_str(&format!(
            "{{\"gpu_factor\":{factor:.0},\"modeled_speedup\":{:.4}}}",
            s / p
        ));
        println!("  sensitivity gpu {factor:>4.0}x -> {:.3}x", s / p);
    }
    // Paper regime: memory ops are the dominant serialized stage there
    // (Fig 2(b)); project the overlap with the measured repair ratio.
    let mut paper_regime = String::new();
    for share in [0.1, 0.25, 0.5] {
        let sp = paper_regime_speedup(share, repair_ratio);
        if !paper_regime.is_empty() {
            paper_regime.push(',');
        }
        paper_regime.push_str(&format!(
            "{{\"mem_share\":{share:.2},\"projected_speedup\":{sp:.4}}}"
        ));
        println!(
            "  paper regime: gather {:>2.0}% of step -> {sp:.2}x with measured repair ratio {repair_ratio:.2}",
            share * 100.0
        );
    }

    // 2 + 4. Real distributed runs, speculation on vs off (j = 2 so
    // the continue passes open the window).
    let mut cfg = TrainConfig::new(ParallelConfig::new(1, 2, 1));
    cfg.local_batch = 300;
    cfg.epochs = 4;
    cfg.eval_every_epoch = false;
    cfg.seed = 7;
    let host = |cfg: &TrainConfig| {
        let _ = train_distributed(&d, &mc, cfg, ClusterSpec::new(1, 2)); // warm-up
        let mut best: Option<disttgl_core::RunResult> = None;
        for _ in 0..2 {
            let r = train_distributed(&d, &mc, cfg, ClusterSpec::new(1, 2));
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
    let on = host(&cfg);
    cfg.speculative_gather = false;
    let off = host(&cfg);
    let host_speedup = on.throughput_events_per_sec / off.throughput_events_per_sec.max(1e-9);
    let protocol_stale = on.daemon_delta_rows as f64 / on.daemon_spec_rows.max(1) as f64;
    let bit_identical = on.loss_history == off.loss_history
        && on.test_metric == off.test_metric
        && on.memory_checksums == off.memory_checksums;
    println!(
        "protocol (j=2): {} spec rows, {} delta rows -> stale fraction {:.1}%",
        on.daemon_spec_rows,
        on.daemon_delta_rows,
        protocol_stale * 100.0
    );
    println!(
        "host  speculative {:.0} events/s | serialized {:.0} events/s | speedup {host_speedup:.2}x (1-cpu container serializes the overlap)",
        on.throughput_events_per_sec, off.throughput_events_per_sec
    );
    println!("bit-identical on/off: {bit_identical}");

    let host_cores = disttgl_bench::host_cores();
    let record = format!(
        "{{\"bench\":\"daemon_overlap\",\"host_cores\":{host_cores},\"dataset\":\"{}\",\"events\":{},\
         \"local_batch\":{},\"n_neighbors\":{},\
         \"unique_rows\":{},\"stale_rows\":{},\"stale_fraction_unique\":{:.4},\
         \"protocol_spec_rows\":{},\"protocol_delta_rows\":{},\
         \"protocol_stale_fraction\":{:.4},\
         \"gather_full_ms\":{:.3},\"spec_gather_ms\":{:.3},\
         \"fused_repair_ms\":{:.3},\"split_ms\":{:.3},\"compute_host_ms\":{:.3},\
         \"mem_stage_speedup\":{:.4},\"repair_ratio\":{:.4},\
         \"gpu_factor\":{:.1},\"modeled_speedup\":{:.4},\
         \"host_speculative_events_per_sec\":{:.1},\"host_serialized_events_per_sec\":{:.1},\
         \"host_speedup\":{:.4},\"bit_identical\":{},\
         \"sensitivity\":[{}],\"paper_regime\":[{}]}}\n",
        d.name,
        d.graph.num_events(),
        batch,
        mc.n_neighbors,
        sweep.unique_rows,
        sweep.stale_rows,
        stale_fraction,
        on.daemon_spec_rows,
        on.daemon_delta_rows,
        protocol_stale,
        sweep.gather_full * 1e3,
        sweep.spec_gather * 1e3,
        sweep.repair * 1e3,
        sweep.split * 1e3,
        sweep.compute * 1e3,
        mem_stage_speedup,
        repair_ratio,
        GPU_FACTOR,
        modeled_speedup,
        on.throughput_events_per_sec,
        off.throughput_events_per_sec,
        host_speedup,
        bit_identical,
        sensitivity,
        paper_regime
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_daemon.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(record.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
