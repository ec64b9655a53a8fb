//! The three training workloads: the public `train_*` call timed from
//! outside (untraced), and the benchmark-owned step loop (traced).

use crate::digest::Fnv;
use crate::metrics::Outcome;
use crate::report::{num, text};
use crate::surface::{self, Dataset, TrainRun, TrainSpec};
use crate::trace::{self, Tracer};
use crate::{layers, proc, stats, RunArgs};
use std::time::Instant;

/// Sizes of one training workload (see README "Workloads" for why).
pub struct TrainPlan {
    pub name: &'static str,
    scale: f64,
    fanouts: &'static [usize],
    batch: usize,
    epochs: usize,
    distributed: bool,
    /// Fewest timed calls, whatever the time budget.
    min_calls: usize,
}

pub const TRAIN_L1: TrainPlan = TrainPlan {
    name: "train_l1",
    scale: 0.05,
    fanouts: &[10],
    batch: 600,
    epochs: 2,
    distributed: false,
    min_calls: 5,
};

pub const TRAIN_L2: TrainPlan = TrainPlan {
    name: "train_l2",
    scale: 0.04,
    fanouts: &[10, 5],
    batch: 300,
    epochs: 1,
    distributed: false,
    min_calls: 3,
};

pub const TRAIN_DIST: TrainPlan = TrainPlan {
    name: "train_dist",
    scale: 0.05,
    fanouts: &[10],
    batch: 300,
    epochs: 2,
    distributed: true,
    min_calls: 6,
};

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 15;

/// Generator seed of the training graph, the same on every run:
/// `--seed` drives everything else that is random in a train workload
/// (weight initialisation, training negatives, evaluation negatives).
/// At the sizes the time cap allows, graphs drawn from different seeds
/// differ in test MRR by ±15 % (0.46–0.76 seen on `train_dist`), which
/// would drown the accuracy guard; with the graph fixed the spread over
/// seeds is the ±6 % of the model seed alone.
const TRAIN_GRAPH_SEED: u64 = 2023;

impl TrainPlan {
    /// `--quick` shrinks the graph eightfold and the batch threefold, so
    /// that a call still takes several steps, and raises the learning
    /// rate so that those few steps still visibly learn.
    fn inputs(&self, args: &RunArgs) -> (Dataset, TrainSpec) {
        let (scale, batch, lr_factor) = if args.quick {
            (self.scale / 8.0, self.batch / 3, 9.0)
        } else {
            (self.scale, self.batch, 1.0)
        };
        let d = surface::generate(scale, TRAIN_GRAPH_SEED);
        let mut spec = surface::train_spec(
            &d,
            self.fanouts,
            batch,
            self.epochs,
            args.seed,
            self.distributed,
        );
        spec.train.base_lr *= lr_factor;
        (d, spec)
    }
}

fn loss_digest(r: &TrainRun) -> Fnv {
    *Fnv::default().f32s(&r.losses)
}

/// Mean loss of the first and of the last epoch; a single-epoch run
/// compares the first half of its steps with the second.
fn first_last_loss(losses: &[f32], epochs: usize) -> (f64, f64) {
    let per = if epochs >= 2 {
        losses.len() / epochs
    } else {
        losses.len() / 2
    }
    .max(1);
    let mean = |xs: &[f32]| xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len().max(1) as f64;
    (
        mean(&losses[..per.min(losses.len())]),
        mean(&losses[losses.len().saturating_sub(per)..]),
    )
}

/// The per-call correctness gate; returns false when any check failed.
fn check_call(
    o: &mut Outcome,
    plan: &TrainPlan,
    call: usize,
    r: &TrainRun,
    first: &TrainRun,
) -> bool {
    let before = o.failures.len();
    let tag = format!("{} call {call}", plan.name);
    o.check(!r.aborted, || format!("{tag}: run aborted"));
    o.check(!r.losses.is_empty(), || format!("{tag}: no steps ran"));
    o.check(r.losses.iter().all(|l| l.is_finite()), || {
        format!("{tag}: non-finite loss")
    });
    let (head, tail) = first_last_loss(&r.losses, plan.epochs);
    o.check(tail < head, || {
        format!("{tag}: loss did not fall ({head:.4} -> {tail:.4})")
    });
    o.check(r.test_metric.is_finite() && r.test_metric > 0.0, || {
        format!("{tag}: test metric {}", r.test_metric)
    });
    o.check(loss_digest(r) == loss_digest(first), || {
        format!("{tag}: loss history differs from the first call")
    });
    o.check(r.test_metric == first.test_metric, || {
        format!("{tag}: test metric differs from the first call")
    });
    o.check(r.memory_checksums == first.memory_checksums, || {
        format!("{tag}: memory checksums differ from the first call")
    });
    o.check(r.daemon_rows_read == first.daemon_rows_read, || {
        format!("{tag}: daemon rows_read differs from the first call")
    });
    o.failures.len() == before
}

fn input_digest(d: &Dataset, spec: &TrainSpec) -> String {
    let mut h = surface::dataset_digest(d);
    h.u64(spec.train.seed)
        .u64(spec.train.local_batch as u64)
        .u64(spec.train.epochs as u64);
    h.hex()
}

/// Untraced run: set up (several times, median), one untimed cold call,
/// then timed calls of the public trainer until the budget is spent.
pub fn run(plan: &TrainPlan, args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(plan.inputs(args));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (d, spec) = inputs.expect("at least one set-up");
    let trained = (surface::train_events(&d) * plan.epochs) as f64;
    o.note("input_digest", text(&input_digest(&d, &spec)));
    o.note("trained_events_per_call", num(trained));

    let budget = Instant::now();
    let p0 = proc::snapshot();
    let t = Instant::now();
    let first = surface::train(&d, &spec);
    let cold_s = t.elapsed().as_secs_f64();
    let p_cold = proc::snapshot();
    let ok = check_call(&mut o, plan, 0, &first, &first);
    o.attempted += 1;
    o.failed += !ok as u64;

    let min_calls = if args.quick { 2 } else { plan.min_calls };
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let typical = if walls.is_empty() {
            cold_s
        } else {
            stats::median(&walls)
        };
        let fits = budget.elapsed().as_secs_f64() + typical <= args.seconds;
        if walls.len() >= min_calls && !fits {
            break;
        }
        let t = Instant::now();
        let r = surface::train(&d, &spec);
        walls.push(t.elapsed().as_secs_f64());
        let ok = check_call(&mut o, plan, walls.len(), &r, &first);
        o.attempted += 1;
        o.failed += !ok as u64;
    }
    let peak_rss = proc::peak_rss_mb();
    let p_warm = proc::snapshot() - p_cold;
    o.note(
        "cold_call_minor_faults",
        num((p_cold - p0).minor_faults as f64),
    );
    o.note("cold_call_cpu_sys_s", num((p_cold - p0).cpu_sys_s));
    o.note(
        "warm_call_minor_faults",
        num(p_warm.minor_faults as f64 / walls.len() as f64),
    );
    o.note(
        "warm_call_cpu_sys_s",
        num(p_warm.cpu_sys_s / walls.len() as f64),
    );

    let rates: Vec<f64> = walls.iter().map(|w| trained / w).collect();
    o.set("setup_s", stats::median(&setups));
    o.set("work_per_s", stats::median(&rates));
    o.set("op_p50_ms", stats::median(&walls) * 1e3);
    o.set("op_tail_ms", cold_s * 1e3);
    o.set("quality", first.test_metric);
    o.set("peak_rss_mb", peak_rss);
    o.note("timed_calls", num(walls.len() as f64));
    o.note(
        "work_per_s_quartiles",
        crate::report::quartiles_value(&rates),
    );
    o.note("steps_per_call", num(first.losses.len() as f64));
    o.note("loss_digest", text(&loss_digest(&first).hex()));
    o
}

/// Traced run: program-reported numbers from the public call's
/// `TrainRun`, then the benchmark-owned step loop over the same inputs
/// with a span at every layer boundary, then micro measurements at the
/// shapes that loop saw.
pub fn run_traced(plan: &TrainPlan, args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let mut tracer = Tracer::new();
    let p0 = proc::snapshot();

    let s = tracer.enter("data.generate", 0);
    let (d, spec) = plan.inputs(args);
    tracer.exit(s);
    o.note("input_digest", text(&input_digest(&d, &spec)));
    o.set("data.events", surface::num_events(&d) as f64);
    o.set("data.nodes", surface::num_nodes(&d) as f64);

    // The public call, cold then warm: its own breakdown is what the
    // program reports about itself.
    let t = Instant::now();
    let cold = surface::train(&d, &spec);
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = surface::train(&d, &spec);
    let warm_s = t.elapsed().as_secs_f64();
    o.attempted = 2;
    for (i, r) in [&cold, &warm].into_iter().enumerate() {
        let ok = check_call(&mut o, plan, i, r, &cold);
        o.failed += !ok as u64;
    }
    o.set("proc.cold_call_ratio", cold_s / warm_s);
    o.set("tensor.matmul_s", warm.matmul_s);
    o.set("tensor.softmax_s", warm.softmax_s);
    o.set("tensor.gather_s", warm.gather_s);
    o.set("nn.gru_s", warm.gru_s);
    o.set(
        "core.model.embed_layer0_s",
        warm.embed_layer_s.first().copied().unwrap_or(0.0),
    );
    o.set(
        "core.model.embed_layer1_s",
        warm.embed_layer_s.get(1).copied().unwrap_or(0.0),
    );
    if plan.distributed {
        o.set("core.dist.prep_s", warm.prep_s);
        o.set("core.dist.mem_wait_s", warm.mem_wait_s);
        o.set("core.dist.compute_s", warm.compute_s);
        o.set("core.dist.iterations", warm.losses.len() as f64);
        o.set("cluster.comm.allreduce_s", warm.allreduce_s);
        o.set("cluster.comm.bytes", warm.comm_bytes as f64);
        o.set("mem.daemon.rows_read", warm.daemon_rows_read as f64);
        o.set("mem.daemon.spec_rows", warm.daemon_spec_rows as f64);
        o.set("mem.daemon.delta_rows", warm.daemon_delta_rows as f64);
        o.set(
            "mem.daemon.stale_share",
            warm.daemon_delta_rows as f64 / (warm.daemon_spec_rows as f64).max(1.0),
        );
        o.set("mem.daemon.payload_bytes", warm.daemon_payload_bytes as f64);
    } else {
        o.set("core.single.loop_s", warm.wall_s);
        o.set("core.single.prep_s", warm.prep_s);
        o.set("core.single.compute_s", warm.compute_s);
    }

    // What the traced loop is compared with: the sequential trainer on
    // the same inputs (the workload's own call unless distributed).
    let reference = if plan.distributed {
        surface::train_reference(&d, &spec)
    } else {
        warm
    };

    let mut parts = surface::train_parts(&d, &spec, &mut tracer);
    let probe_every = 4;
    let loop_wall = surface::traced_train_loop(&d, &spec, &mut parts, &mut tracer, probe_every);
    let steps = parts.losses.len().max(1) as f64;

    let spans = tracer.spans();
    let totals = trace::totals_by_name(spans);
    let secs = |name: &str| trace::secs(&totals, name);
    let probed_steps = totals.get("probe").map_or(0, |t| t.calls).max(1) as f64;
    let probe_scale = steps / probed_steps;
    let probe_wall = secs("probe");
    let infer = secs("core.model.infer_step") * probe_scale;
    layers::set_span_metrics(&mut o, spans, probe_scale);
    o.set("data.negative_store_s", secs("data.negative_store"));
    o.set("graph.tcsr.build_s", secs("graph.tcsr.build"));
    o.set("core.model.train_step_s", secs("core.model.train_step"));
    o.set("core.model.infer_step_s", infer);
    o.set(
        "core.model.backward_s",
        secs("core.model.train_step") - infer,
    );
    o.set("nn.adam.step_s", secs("nn.adam.step"));
    layers::set_micro_metrics(&mut o, &parts.model, parts.shapes, args.quick);
    if plan.distributed {
        // Derived, not counted: bytes per all-reduce = 4 × parameters.
        o.set(
            "cluster.comm.calls",
            (o.get("cluster.comm.bytes") / (4.0 * o.get("nn.params"))).round(),
        );
    }

    // Probes repeat work the step already did, so they are left out of
    // the loop wall the waterfall and the overhead are judged against.
    let loop_net = loop_wall - probe_wall;
    o.set(
        "bench.waterfall_coverage",
        trace::waterfall_coverage(spans, &["step"], "probe", (loop_net * 1e9) as u64),
    );
    o.set(
        "bench.trace_overhead_share",
        (loop_net - reference.wall_s) / reference.wall_s,
    );
    let matches = parts.losses == reference.losses;
    o.set("bench.trace_matches_trainer", matches as u8 as f64);
    o.note("trace_matches_trainer", serde::Value::Bool(matches));

    o.set(
        "graph.tcsr.append_events_per_s",
        surface::append_events_per_s(&d),
    );
    o.set(
        "core.eval.events_per_s",
        surface::eval_events_per_s(&d, &spec, &parts),
    );
    let (save_ms, load_ms, bytes) = surface::checkpoint_roundtrip(&spec, &parts, &args.out_dir);
    o.check(bytes > 0, || {
        "checkpoint save/load round trip failed".into()
    });
    o.set("core.checkpoint.save_ms", save_ms);
    o.set("core.checkpoint.load_ms", load_ms);
    o.set("core.checkpoint.bytes", bytes as f64);

    layers::set_proc_metrics(&mut o, p0);
    crate::write_trace(args, plan.name, spans, &mut o);
    o
}
