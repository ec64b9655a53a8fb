//! Hardware-width kernel and quantized-memory measurements, published
//! to `BENCH_kernels.json`.
//!
//! What lands in the record:
//!
//! 1. **SIMD vs scalar microkernels** — best-of-N wall time for the
//!    dispatched (AVX2 when available) vs forced-scalar path of the
//!    dominant kernels at the attention shapes the trainer actually
//!    runs: `A · Bᵀ` scores (frontier rows × d), the fused GRU cell,
//!    row softmax, and the row gather. Every A/B pair is also checked
//!    bit-identical — the speedup may never buy a different number.
//! 2. **Blocked vs serial matmul** — the register-tiled `gemm_tb` body
//!    (`matmul_transpose_b`) against the serial-reduction reference
//!    (`matmul_transpose_b_serial`), the ≥2× headline number.
//! 3. **End-to-end trainer delta** — `train_single` events/s with
//!    kernels dispatched vs forced scalar, bit-identical losses.
//! 4. **Quantized memory** — resident store bytes f32 vs bf16 and the
//!    test-MRR / F1 deltas of `quantized_memory` runs against the
//!    exact f32 oracle across seeds (the recoverable-precision
//!    evidence).
//!
//! Run: `cargo bench -p disttgl-bench --bench kernels`

use disttgl_core::{train_single, ModelConfig, ParallelConfig, TrainConfig};
use disttgl_data::generators;
use disttgl_nn::{GruCell, ParamSet};
use disttgl_tensor::{kernels, seeded_rng, Matrix};
use std::io::Write;
use std::time::Instant;

/// Best-of-`reps` wall seconds for `f` (runs once to warm up first).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn checksum(m: &Matrix) -> u64 {
    m.as_slice()
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(9) ^ v.to_bits() as u64)
}

/// A/B one kernel: dispatched vs forced-scalar, asserting bit-equal
/// outputs. Returns (scalar_secs, simd_secs).
fn ab<M: PartialEq + std::fmt::Debug>(reps: usize, mut run: impl FnMut() -> M) -> (f64, f64, bool) {
    kernels::force_scalar(true);
    let scalar_out = run();
    let scalar = best_secs(reps, || {
        std::hint::black_box(run());
    });
    kernels::force_scalar(false);
    let simd_out = run();
    let simd = best_secs(reps, || {
        std::hint::black_box(run());
    });
    assert_eq!(scalar_out, simd_out, "kernel A/B paths disagree");
    (scalar, simd, kernels::simd_active())
}

struct Shape {
    label: &'static str,
    rows: usize,
    d: usize,
    slots: usize,
}

fn main() {
    let simd_available = kernels::simd_active();
    println!("kernels bench: simd_active = {simd_available}");
    let reps = 12;

    // Attention-shaped matmuls: Q (rows × d) · Kᵀ (slots × d), the
    // frontier geometry of the compact harness (d_emb 48..60 inputs)
    // and the paper model (d 200/212), batch ≈ 2200 frontier rows.
    let shapes = [
        Shape {
            label: "compact",
            rows: 2200,
            d: 48,
            slots: 60,
        },
        Shape {
            label: "paper",
            rows: 2200,
            d: 200,
            slots: 212,
        },
    ];
    let mut shape_records = Vec::new();
    for s in &shapes {
        let mut rng = seeded_rng(11);
        let a = Matrix::uniform(s.rows, s.d, 1.0, &mut rng);
        let b = Matrix::uniform(s.slots, s.d, 1.0, &mut rng);

        // Serial-reduction reference: the pre-optimization numerics.
        let serial = best_secs(reps, || {
            std::hint::black_box(a.matmul_transpose_b_serial(&b));
        });
        let (scalar, simd, _) = ab(reps, || checksum(&a.matmul_transpose_b(&b)));
        let speedup_vs_serial = serial / simd.max(1e-12);
        let speedup_vs_scalar = scalar / simd.max(1e-12);
        println!(
            "matmul_transpose_b {} ({}x{} · {}x{}ᵀ): serial {:.3} ms, laned scalar {:.3} ms, dispatched {:.3} ms ({speedup_vs_serial:.2}x vs serial, {speedup_vs_scalar:.2}x vs scalar)",
            s.label, s.rows, s.d, s.slots, s.d,
            serial * 1e3, scalar * 1e3, simd * 1e3
        );
        if simd_available {
            assert!(
                speedup_vs_serial >= 2.0,
                "{}: expected >=2x vs the serial reference, got {speedup_vs_serial:.2}x",
                s.label
            );
        }
        shape_records.push(format!(
            "{{\"shape\":\"{}\",\"rows\":{},\"d\":{},\"slots\":{},\
             \"serial_ms\":{:.4},\"scalar_ms\":{:.4},\"simd_ms\":{:.4},\
             \"speedup_vs_serial\":{:.3},\"speedup_vs_scalar\":{:.3}}}",
            s.label,
            s.rows,
            s.d,
            s.slots,
            serial * 1e3,
            scalar * 1e3,
            simd * 1e3,
            speedup_vs_serial,
            speedup_vs_scalar
        ));
    }

    // Fused GRU cell at the memory-update shape (unique rows × d_mem,
    // mail input): compact widths, ~1100 unique nodes per batch.
    let (gru_rows, d_mem, mail) = (1100usize, 100usize, 412usize);
    let mut rng = seeded_rng(5);
    let mut params = ParamSet::new();
    let cell = GruCell::new(&mut params, "bench", mail, d_mem, &mut rng);
    let x = Matrix::uniform(gru_rows, mail, 0.5, &mut rng);
    let h = Matrix::uniform(gru_rows, d_mem, 0.5, &mut rng);
    let (gru_scalar, gru_simd, _) = ab(reps, || {
        let (h2, _) = cell.forward(&params, &x, &h);
        checksum(&h2)
    });
    println!(
        "gru forward ({gru_rows}x{d_mem}, mail {mail}): scalar {:.3} ms, dispatched {:.3} ms ({:.2}x)",
        gru_scalar * 1e3,
        gru_simd * 1e3,
        gru_scalar / gru_simd.max(1e-12)
    );

    // Row softmax at the attention-probability shape.
    let logits = Matrix::uniform(2200, 212, 4.0, &mut rng);
    let (sm_scalar, sm_simd, _) = ab(reps, || {
        let mut m = logits.clone();
        m.softmax_rows_inplace();
        checksum(&m)
    });
    println!(
        "softmax_rows (2200x212): scalar {:.3} ms, dispatched {:.3} ms ({:.2}x)",
        sm_scalar * 1e3,
        sm_simd * 1e3,
        sm_scalar / sm_simd.max(1e-12)
    );

    // Row gather (memcpy-bound — expect ~1x, reported for the record).
    let table = Matrix::uniform(8192, 212, 1.0, &mut rng);
    let idx: Vec<usize> = (0..4096).map(|i| (i * 37) % 8192).collect();
    let (ga_scalar, ga_simd, _) = ab(reps, || {
        let mut out = Matrix::default();
        table.gather_rows_into(&idx, &mut out);
        checksum(&out)
    });
    println!(
        "gather_rows (4096 of 8192x212): scalar {:.3} ms, dispatched {:.3} ms ({:.2}x)",
        ga_scalar * 1e3,
        ga_simd * 1e3,
        ga_scalar / ga_simd.max(1e-12)
    );

    // End-to-end trainer: dispatched vs forced scalar, bit-identical.
    let d = generators::wikipedia(0.01, 31);
    let mc = ModelConfig::compact(d.edge_features.cols());
    let mut cfg = TrainConfig::new(ParallelConfig::single());
    cfg.local_batch = 300;
    cfg.epochs = 2;
    cfg.eval_every_epoch = false;
    kernels::force_scalar(true);
    let run_scalar = train_single(&d, &mc, &cfg);
    kernels::force_scalar(false);
    let run_simd = train_single(&d, &mc, &cfg);
    let e2e_identical = run_scalar.loss_history == run_simd.loss_history
        && run_scalar.test_metric == run_simd.test_metric;
    assert!(e2e_identical, "SIMD on/off must not change the trajectory");
    let e2e_speedup =
        run_simd.throughput_events_per_sec / run_scalar.throughput_events_per_sec.max(1e-9);
    println!(
        "train_single e2e: scalar {:.0} events/s, dispatched {:.0} events/s ({e2e_speedup:.2}x), bit-identical: {e2e_identical}",
        run_scalar.throughput_events_per_sec, run_simd.throughput_events_per_sec
    );
    println!(
        "kernel shares (dispatched): matmul {:.0} ms, gru {:.0} ms, softmax {:.0} ms, gather {:.0} ms of {:.0} ms compute",
        run_simd.timing.matmul_secs * 1e3,
        run_simd.timing.gru_secs * 1e3,
        run_simd.timing.softmax_secs * 1e3,
        run_simd.timing.gather_secs * 1e3,
        run_simd.timing.compute_secs * 1e3
    );

    // Quantized memory: resident bytes and metric deltas vs the exact
    // oracle across seeds.
    let exact_store = mc.new_memory(d.graph.num_nodes());
    let quant_store = mc
        .clone()
        .with_quantized_memory()
        .new_memory(d.graph.num_nodes());
    let (exact_bytes, quant_bytes) = (exact_store.bytes(), quant_store.bytes());
    println!(
        "memory store: f32 {exact_bytes} B, bf16 {quant_bytes} B ({:.2}x smaller)",
        exact_bytes as f64 / quant_bytes as f64
    );

    let quant_mc = mc.clone().with_quantized_memory();
    let mut mrr_deltas = Vec::new();
    let mut mrr_pairs = Vec::new();
    for seed in [3u64, 17, 59] {
        let mut scfg = cfg.clone();
        scfg.seed = seed;
        let exact = train_single(&d, &mc, &scfg);
        let quant = train_single(&d, &quant_mc, &scfg);
        let delta = quant.test_metric - exact.test_metric;
        println!(
            "seed {seed}: exact MRR {:.4}, quantized MRR {:.4} (delta {delta:+.4})",
            exact.test_metric, quant.test_metric
        );
        mrr_deltas.push(delta);
        mrr_pairs.push(format!(
            "{{\"seed\":{seed},\"exact_mrr\":{:.5},\"quantized_mrr\":{:.5},\"delta\":{delta:.5}}}",
            exact.test_metric, quant.test_metric
        ));
    }
    let mean_abs_delta = mrr_deltas.iter().map(|d| d.abs()).sum::<f64>() / mrr_deltas.len() as f64;

    // F1 oracle on the classification task (one seed — the task is a
    // sanity point, not the headline).
    let gd = generators::gdelt(5e-5, 7);
    let class_mc = ModelConfig::compact(gd.edge_features.cols()).with_classes(56);
    let class_quant = class_mc.clone().with_quantized_memory();
    let mut ccfg = cfg.clone();
    ccfg.epochs = 2;
    let class_exact = train_single(&gd, &class_mc, &ccfg);
    let class_q = train_single(&gd, &class_quant, &ccfg);
    let f1_delta = class_q.test_metric - class_exact.test_metric;
    println!(
        "edge class: exact F1 {:.4}, quantized F1 {:.4} (delta {f1_delta:+.4})",
        class_exact.test_metric, class_q.test_metric
    );

    let host_cores = disttgl_bench::host_cores();
    let record = format!(
        "{{\"bench\":\"kernels\",\"host_cores\":{host_cores},\"simd_active\":{simd_available},\
         \"matmul_transpose_b\":[{}],\
         \"gru_scalar_ms\":{:.4},\"gru_simd_ms\":{:.4},\
         \"softmax_scalar_ms\":{:.4},\"softmax_simd_ms\":{:.4},\
         \"gather_scalar_ms\":{:.4},\"gather_simd_ms\":{:.4},\
         \"e2e_scalar_events_per_sec\":{:.1},\"e2e_simd_events_per_sec\":{:.1},\
         \"e2e_speedup\":{e2e_speedup:.4},\"e2e_bit_identical\":{e2e_identical},\
         \"e2e_kernel_share_ms\":{{\"matmul\":{:.3},\"gru\":{:.3},\"softmax\":{:.3},\"gather\":{:.3},\"compute\":{:.3}}},\
         \"store_bytes_f32\":{exact_bytes},\"store_bytes_bf16\":{quant_bytes},\
         \"store_shrink\":{:.4},\
         \"quantized_mrr\":[{}],\"quantized_mean_abs_mrr_delta\":{mean_abs_delta:.5},\
         \"f1_exact\":{:.5},\"f1_quantized\":{:.5},\"f1_delta\":{f1_delta:.5}}}\n",
        shape_records.join(","),
        gru_scalar * 1e3,
        gru_simd * 1e3,
        sm_scalar * 1e3,
        sm_simd * 1e3,
        ga_scalar * 1e3,
        ga_simd * 1e3,
        run_scalar.throughput_events_per_sec,
        run_simd.throughput_events_per_sec,
        run_simd.timing.matmul_secs * 1e3,
        run_simd.timing.gru_secs * 1e3,
        run_simd.timing.softmax_secs * 1e3,
        run_simd.timing.gather_secs * 1e3,
        run_simd.timing.compute_secs * 1e3,
        exact_bytes as f64 / quant_bytes as f64,
        mrr_pairs.join(","),
        class_exact.test_metric,
        class_q.test_metric,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(record.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
