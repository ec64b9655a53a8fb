//! Per-layer metrics that every traced run derives the same way: from
//! the spans of its benchmark-owned loop, from micro measurements at the
//! shapes that loop recorded, and from the worker's process counters.

use crate::metrics::Outcome;
use crate::proc::{self, ProcSnapshot};
use crate::surface::{self, Model, Shapes};
use crate::trace::{self, Span};

/// Span-timed and span-counted metrics shared by the train and serve
/// loops. `probe_scale` scales what was timed on probed steps only up to
/// all steps.
pub fn set_span_metrics(o: &mut Outcome, spans: &[Span], probe_scale: f64) {
    let totals = trace::totals_by_name(spans);
    let secs = |name: &str| trace::secs(&totals, name);
    let count = |name: &str| trace::count_total(spans, name) as f64;
    o.set("data.generate_s", secs("data.generate"));
    o.set(
        "core.batch.prepare_static_s",
        secs("core.batch.prepare_static"),
    );
    o.set("core.batch.finish_s", secs("core.batch.finish"));
    o.set("mem.state.read_s", secs("mem.state.read"));
    o.set("mem.state.write_s", secs("mem.state.write"));
    o.set("mem.state.rows_read", count("rows_read"));
    o.set("mem.state.rows_written", count("rows_written"));
    o.set(
        "graph.sampler.sample_hops_s",
        secs("graph.sampler.sample_hops") * probe_scale,
    );
    o.set("graph.sampler.slots", count("slots"));
    o.set(
        "graph.sampler.padded_slot_share",
        count("padded_slots") / count("slots").max(1.0),
    );
    o.set("core.batch.occurrence_rows", count("occurrence_rows"));
    o.set("core.batch.unique_rows", count("unique_rows"));
    o.set(
        "core.batch.fold_factor",
        count("occurrence_rows") / count("unique_rows").max(1.0),
    );
    o.set("bench.spans", spans.len() as f64);
}

/// Micro measurements at the shapes the traced loop recorded.
pub fn set_micro_metrics(o: &mut Outcome, model: &Model, sh: Shapes, quick: bool) {
    let reps = if quick { 2 } else { 5 };
    o.set(
        "tensor.matmul_tb_gflops",
        surface::matmul_tb_gflops(model, sh.roots * sh.slots_per_root, reps),
    );
    o.set("tensor.simd_active", surface::simd_active() as u8 as f64);
    let (fwd, bwd) = surface::attention_micro(model, sh.roots, sh.slots_per_root, reps);
    o.set("nn.attention.forward_s", fwd);
    o.set("nn.attention.backward_s", bwd);
    o.set(
        "nn.gru.forward_s",
        surface::gru_micro(model, sh.unique_rows, reps),
    );
    o.set("nn.params", surface::num_params(model) as f64);
}

/// CPU seconds and page faults of this worker since `since`.
pub fn set_proc_metrics(o: &mut Outcome, since: ProcSnapshot) {
    let p = proc::snapshot() - since;
    o.set("proc.cpu_user_s", p.cpu_user_s);
    o.set("proc.cpu_sys_s", p.cpu_sys_s);
    o.set("proc.minor_faults", p.minor_faults as f64);
}
