//! The DistTGL distributed trainer (paper Figure 4).
//!
//! `train_distributed` runs any `i × j × k` configuration on the
//! simulated cluster: it spawns `k` memory daemons (one node-memory
//! replica each), `i·j·k` trainer threads (the "GPUs"), and a global
//! NCCL-style communicator for weight synchronization. All replicas
//! start from the same seeded initialization and stay bit-identical
//! through the deterministic all-reduce, mirroring NCCL's behaviour.
//!
//! Every trainer executes the same step loop in lock-step:
//!
//! 1. consult its [`GroupSchedule`] — acquire a batch (serialized
//!    memory read → pass-0 training → serialized write), continue a
//!    previously acquired batch with a fresh negative set, or idle;
//! 2. all-reduce gradients across **all** trainers;
//! 3. Adam step.
//!
//! Rank 0 additionally evaluates the validation split at each sweep
//! boundary from the epoch snapshot of memory replica 0 — "using the
//! node memory in the first memory process" (§4.0.1).
//!
//! # Exact, recoverable, and bounded-stale: the relaxation taxonomy
//!
//! Every mode of this trainer sits in one of three rigor classes:
//!
//! * **Exact** (the default): the serialized memory order is observed
//!   bit for bit. Speculation (`speculative_gather`) stays in this
//!   class — its Acquire-slot in-place repair reproduces the serialized
//!   read exactly, per the version contract — as do pipelining,
//!   checkpoint/resume, and fault recovery (pure replay).
//! * **Recoverable**: a fault (lane crash, daemon shutdown, deadline
//!   expiry) unwinds the run with typed `AbortReport`s; a supervisor
//!   resumes from a checkpoint onto the *same* exact trajectory. The
//!   relaxation is in availability, never in arithmetic.
//! * **Bounded-stale** (`TrainConfig::staleness_bound(k)`, opt-in):
//!   the first *intentional* arithmetic relaxation. A speculative row
//!   within `k` pending writes of the serialized read may keep its
//!   stale value — the Acquire-slot repair is skipped for it — so the
//!   result is no longer bit-identical to the exact oracle at `k > 0`.
//!   The guarantees that remain are structural, not empirical: every
//!   admitted row is within `k` writes of the serialized value (the
//!   proptested per-row bound), rows tagged before an epoch reset
//!   always repair, and `k = 0` degenerates to the exact class bit
//!   for bit (`tests/staleness_equivalence.rs`). *Which* rows are
//!   admitted at `k > 0` depends on daemon service timing, so runs
//!   are not replay-deterministic — accuracy is reported as measured
//!   MRR/F1 deltas across seeds (`BENCH_staleness.json`), never
//!   assumed.

use crate::batch::{BatchPreparer, MemoryAccess, PreparedBatch};
use crate::checkpoint::{fingerprint, TrainCheckpoint};
use crate::config::{ModelConfig, TrainConfig};
use crate::eval::evaluate;
use crate::metrics::{AbortCause, AbortReport, ConvergencePoint, RunResult, TimingBreakdown};
use crate::model::TgnModel;
use crate::pipeline::{BatchPrefetcher, PrefetchRequest, PrefetchedBatch};
use crate::recover::CheckpointStore;
use crate::sched::{GroupSchedule, StepPlan};
use crate::static_mem::StaticMemory;
use disttgl_cluster::{ClusterSpec, CommunicatorGroup, NetworkModel};
use disttgl_data::{Dataset, NegativeStore, Task};
use disttgl_graph::TCsr;
use disttgl_mem::{
    DaemonError, DaemonOptions, MemoryClient, MemoryDaemon, MemoryReadout, MemoryWrite,
    ReadRequest, VersionedReadout,
};
use disttgl_tensor::{seeded_rng, Matrix};
use std::sync::Arc;
use std::time::Instant;

/// Wraps the daemon client to meter read-wait time (the daemon overlap
/// measurement in the timing breakdown) and to convert wait failures —
/// daemon shutdown, deadline expiry — into a recorded fault instead of
/// a panic. After a failed read the readout is zero-shaped so phase-2
/// batch assembly stays well-formed; the trainer checks the fault slot
/// before training on it and unwinds.
struct TimedAccess<'a> {
    client: &'a mut MemoryClient,
    wait_secs: &'a mut f64,
    fault: &'a mut Option<DaemonError>,
    d_mem: usize,
    d_mail: usize,
}

impl MemoryAccess for TimedAccess<'_> {
    fn read_into(&mut self, nodes: &[u32], out: &mut MemoryReadout) {
        let t0 = Instant::now();
        if let Err(e) = MemoryClient::read(self.client, ReadRequest::Full(nodes.to_vec()), out) {
            *out = MemoryReadout {
                mem: Matrix::zeros(nodes.len(), self.d_mem),
                mem_ts: vec![0.0; nodes.len()],
                mail: Matrix::zeros(nodes.len(), self.d_mail),
                mail_ts: vec![0.0; nodes.len()],
            };
            *self.fault = Some(e);
        }
        *self.wait_secs += t0.elapsed().as_secs_f64();
    }
    fn write(&mut self, w: MemoryWrite) {
        if let Err(e) = MemoryClient::write(self.client, w) {
            *self.fault = Some(e);
        }
    }
}

/// The abort cause a failed daemon wait records.
fn daemon_abort_cause(e: DaemonError) -> AbortCause {
    match e {
        DaemonError::Shutdown => AbortCause::DaemonShutdown,
        DaemonError::Timeout => AbortCause::DaemonTimeout,
    }
}

/// MSPipe-style similarity blend for rows admitted stale under the
/// staleness bound: pull each admitted memory vector halfway toward the
/// node's own freshest mailbox snapshot — the first `d_mem` chunk of
/// its mail row, the ŝ captured at the node's last event (see
/// `TgnModel::build_write`'s mail layout). Trainer-side and
/// allocation-free; mail content and timestamps are untouched.
fn blend_admitted_rows(readout: &mut MemoryReadout, rows: &[u32], d_mem: usize) {
    for &r in rows {
        let r = r as usize;
        let snapshot = &readout.mail.row(r)[..d_mem];
        for (m, &s) in readout.mem.row_mut(r).iter_mut().zip(snapshot) {
            *m = 0.5 * (*m + s);
        }
    }
}

struct TrainerReturn {
    timing: TimingBreakdown,
    loss_history: Vec<f32>,
    convergence: Vec<ConvergencePoint>,
    grad_sq_dev_sum: f64,
    grad_probes: u64,
    /// Rank 0's time spent evaluating (excluded from throughput).
    eval_secs: f64,
    /// The trainer unwound early (injected crash, daemon fault, or a
    /// peer's abort observed through the communicator).
    aborted: bool,
    /// Why this rank unwound, when it did. [`AbortCause::PeerAbort`]
    /// marks a bystander; any other value is a root cause. Collected
    /// into `RunResult::abort_reports` so supervisors can classify
    /// incidents without string-matching.
    cause: Option<AbortCause>,
}

/// How often trainers probe gradient variance (Table 1's variance row).
const VARIANCE_PROBE_EVERY: usize = 16;

/// Trains `dataset` with the full DistTGL system. `spec.world()` must
/// equal `cfg.parallel.world()`.
pub fn train_distributed(
    dataset: &Dataset,
    model_cfg: &ModelConfig,
    cfg: &TrainConfig,
    spec: ClusterSpec,
) -> RunResult {
    let parallel = cfg.parallel;
    assert_eq!(
        spec.world(),
        parallel.world(),
        "cluster world {} != parallel world {}",
        spec.world(),
        parallel.world()
    );
    let (i, j, k) = (parallel.i, parallel.j, parallel.k);
    let world = parallel.world();
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid TrainConfig: {e}"));

    let csr = Arc::new(TCsr::build(&dataset.graph));
    let (train_end, val_end) = dataset.graph.chronological_split(0.70, 0.15);
    assert!(train_end > 0, "empty training split");

    // Checkpoint/resume is defined at sweep boundaries, where no
    // epoch-parallel sub-group holds an in-flight batch; that requires
    // j == 1 (fold epochs into k instead, or use the sequential
    // trainer, which checkpoints any shape).
    if cfg.checkpoint_every.is_some() || cfg.resume_from.is_some() {
        assert!(
            j == 1,
            "distributed checkpoint/resume requires j == 1: epoch-parallel \
             sub-groups hold un-capturable in-flight batches at every boundary"
        );
    }
    let resume: Option<Arc<TrainCheckpoint>> = cfg.resume_from.as_ref().map(|path| {
        let ckpt = TrainCheckpoint::load(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("resume from {path}: {e}"));
        ckpt.check_fingerprint(model_cfg, cfg)
            .unwrap_or_else(|e| panic!("resume from {path}: {e}"));
        assert_eq!(
            ckpt.memories.len(),
            k,
            "checkpoint carries {} memory replicas for a k = {} run",
            ckpt.memories.len(),
            k
        );
        Arc::new(ckpt)
    });

    // Static memory pre-training happens once, before the timed run
    // (the paper pre-trains separately; <30 s on its datasets). A
    // resumed run restores the table instead.
    let static_mem = Arc::new(if model_cfg.static_memory {
        Some(match resume.as_ref().and_then(|c| c.static_table.clone()) {
            Some(t) => StaticMemory::from_table(t),
            None => {
                StaticMemory::pretrain(dataset, model_cfg.d_mem, train_end, 10, cfg.seed ^ 0x5747)
            }
        })
    } else {
        None
    });

    let store = Arc::new(match dataset.task {
        Task::LinkPrediction => Some(NegativeStore::generate(
            &dataset.graph,
            train_end,
            cfg.neg_groups,
            cfg.train_negs,
            cfg.seed ^ 0x4e45,
        )),
        Task::EdgeClassification => None,
    });

    let sweeps = cfg.sweeps();
    let global_batch = cfg.local_batch * i;
    // One schedule per group (clones are cheap; built per thread too).
    let schedules: Vec<GroupSchedule> = (0..k)
        .map(|g| GroupSchedule::new(0..train_end, global_batch, &parallel, g, sweeps))
        .collect();

    // Memory daemons: one per group, with wrap-aligned epoch
    // schedules. A resumed run restores each replica's captured state
    // and fast-forwards its turn counter to the checkpoint boundary; a
    // fault plan may schedule a mid-epoch daemon death.
    let daemons: Arc<Vec<MemoryDaemon>> = Arc::new(
        schedules
            .iter()
            .enumerate()
            .map(|(g, s)| {
                let (state, start_turn) = match resume.as_ref() {
                    // Checkpoints decode to f32 (see `core::checkpoint`);
                    // re-quantizing bf16-grid contents is lossless, so a
                    // resumed quantized run continues bit-identically.
                    Some(c) => {
                        let mut state = c.memories[g].clone();
                        if model_cfg.quantized_memory {
                            state = state.into_quantized();
                        }
                        (state, c.start_turns[g] as usize)
                    }
                    None => (model_cfg.new_memory(dataset.graph.num_nodes()), 0),
                };
                MemoryDaemon::spawn_with(
                    state,
                    i,
                    j,
                    s.daemon_epoch_lengths(),
                    DaemonOptions {
                        start_turn,
                        fail_after_turns: cfg.faults.as_ref().and_then(|f| f.daemon_fail_after(g)),
                    },
                )
            })
            .collect(),
    );

    let comm_group = CommunicatorGroup::new(spec, NetworkModel::t4_testbed());
    let dataset_arc: Arc<Dataset> = Arc::new(dataset.clone());

    // Every lane computes at once, so each gets an equal share of the
    // cores as its intra-op budget (1 whenever lanes ≥ cores).
    let lane_budget = (crate::single::host_cores() / world).max(1);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(world);
    for rank in 0..world {
        let (group, jg, ig) = parallel.decompose(rank);
        let comm = comm_group.communicator(rank);
        let daemons = Arc::clone(&daemons);
        let dataset = Arc::clone(&dataset_arc);
        let csr = Arc::clone(&csr);
        let static_mem = Arc::clone(&static_mem);
        let store = Arc::clone(&store);
        let schedule = schedules[group].clone();
        let model_cfg = model_cfg.clone();
        let cfg = cfg.clone();
        let resume = resume.clone();

        handles.push(
            std::thread::Builder::new()
                .name(format!("disttgl-trainer-{rank}"))
                .spawn(move || {
                    let ctx = TrainerCtx {
                        rank,
                        group,
                        jg,
                        ig,
                        comm,
                        daemons,
                        dataset,
                        csr,
                        static_mem,
                        store,
                        schedule,
                        model_cfg,
                        cfg,
                        train_end,
                        val_end,
                        start,
                        resume,
                    };
                    disttgl_tensor::par::with_budget(lane_budget, || trainer_main(ctx))
                })
                .expect("spawn trainer"),
        );
    }

    let returns: Vec<TrainerReturn> = handles
        .into_iter()
        .map(|h| h.join().expect("trainer thread panicked"))
        .collect();
    let wall = start.elapsed().as_secs_f64();

    let (mut result, eval_secs) = assemble_results(returns, wall);
    result.absorb_comm(&comm_group.stats());

    // Fault unwinding: daemons of a crashed group may still be waiting
    // for turns that will never come — release them before joining so
    // teardown cannot hang.
    if result.aborted {
        for d in daemons.iter() {
            d.shutdown();
        }
    }

    // Throughput counts training time only (evaluation excluded, as in
    // the paper): total traversed events / (wall − rank-0 eval time).
    let traversed: usize = schedules
        .iter()
        .map(|s| s.events_traversed_per_group())
        .sum();
    result.throughput_events_per_sec = traversed as f64 / (wall - eval_secs).max(1e-9);
    result.finalize_convergence();

    // Tear down daemons (their schedules are complete), folding their
    // final counters and per-replica memory digests into the record.
    match Arc::try_unwrap(daemons) {
        Ok(daemons) => {
            for d in daemons {
                let (state, stats) = d.join();
                result.absorb_daemon(&stats);
                result.memory_checksums.push(state.checksum());
            }
        }
        Err(daemons) => {
            for d in daemons.iter() {
                result.absorb_daemon(&d.stats());
            }
        }
    }
    result
}

struct TrainerCtx {
    rank: usize,
    group: usize,
    jg: usize,
    ig: usize,
    comm: disttgl_cluster::Communicator,
    daemons: Arc<Vec<MemoryDaemon>>,
    dataset: Arc<Dataset>,
    csr: Arc<TCsr>,
    static_mem: Arc<Option<StaticMemory>>,
    store: Arc<Option<NegativeStore>>,
    schedule: GroupSchedule,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    train_end: usize,
    val_end: usize,
    start: Instant,
    resume: Option<Arc<TrainCheckpoint>>,
}

fn empty_write(model_cfg: &ModelConfig) -> MemoryWrite {
    MemoryWrite {
        nodes: Vec::new(),
        mem: Matrix::zeros(0, model_cfg.d_mem),
        mem_ts: Vec::new(),
        mail: Matrix::zeros(0, model_cfg.mail_dim()),
        mail_ts: Vec::new(),
    }
}

fn trainer_main(ctx: TrainerCtx) -> TrainerReturn {
    let TrainerCtx {
        rank,
        group,
        jg,
        ig,
        comm,
        daemons,
        dataset,
        csr,
        static_mem,
        store,
        schedule,
        model_cfg,
        cfg,
        train_end,
        val_end,
        start,
        resume,
    } = ctx;
    let parallel = cfg.parallel;
    let (i, j) = (parallel.i, parallel.j);
    let mut client = daemons[group].client(jg * i + ig);

    // Fault plane: an optional per-wait deadline turns a wedged daemon
    // protocol into `DaemonError::Timeout`; any injected fault implies
    // a default deadline so survivors can always unwind.
    let faults = cfg.faults.clone().unwrap_or_default();
    let deadline = cfg
        .daemon_deadline_ms
        .map(std::time::Duration::from_millis)
        .or_else(|| (!faults.is_empty()).then(|| std::time::Duration::from_secs(5)));
    client.set_deadline(deadline);
    let my_crash = faults.lane_crash_at(rank);
    let spec_delay = faults.speculation_delay(rank).unwrap_or(0);

    let prep = BatchPreparer::new(&dataset, csr.as_ref(), &model_cfg);

    // Identical seeded init on every replica (equivalent to broadcast).
    let mut rng = seeded_rng(cfg.seed);
    let mut model = TgnModel::new(model_cfg.clone(), &mut rng);
    let mut adam = model.optimizer(cfg.scaled_lr());

    // Kernel-share attribution for this lane: thread-local cumulative
    // timers, differenced at the end of the schedule (mid-run eval
    // kernel time is subtracted so the shares describe training
    // compute, matching the sequential trainer).
    let kernels0 = disttgl_tensor::timing::snapshot();
    let mut eval_kernels = disttgl_tensor::timing::KernelTimings::default();
    let mut ret = TrainerReturn {
        timing: TimingBreakdown::default(),
        loss_history: Vec::new(),
        convergence: Vec::new(),
        grad_sq_dev_sum: 0.0,
        grad_probes: 0,
        eval_secs: 0.0,
        aborted: false,
        cause: None,
    };

    let b = schedule.num_batches();
    let total_steps = schedule.total_steps();
    let ownership_steps = cfg.sweeps() * b;
    let mut cached: Option<PreparedBatch> = None;
    let mut sweep_done = 0usize;

    // Checkpoint resume: every rank restores the identical weights and
    // optimizer moments (equivalent to a broadcast of the restored
    // replica); rank 0 additionally re-seeds its histories so the
    // assembled RunResult matches an uninterrupted run.
    let start_step = match resume.as_deref() {
        Some(c) => {
            assert!(
                c.units_done * b < total_steps,
                "checkpoint already covers the full schedule"
            );
            model.params.unflatten_weights(&c.weights);
            adam.load_state(c.adam_t, &c.adam_state);
            if rank == 0 {
                ret.loss_history = c.loss_history.clone();
                ret.convergence = c.convergence.clone();
            }
            c.units_done * b
        }
        None => 0,
    };

    // Pipelined prefetch: phase 1 (sampling, negative slicing, feature
    // gathers) of this lane's *next* non-empty Acquire runs on a
    // worker thread while the current step computes. With
    // `speculative_gather` (default) phase 2 overlaps too: the moment
    // phase 1 lands — typically during a continue pass — the lane
    // posts a speculative out-of-turn gather to the daemon; its
    // serialized Acquire slot then only repairs, in place, the rows
    // written since. The daemon turn order and all training results
    // are unchanged either way (the version contract makes the
    // repaired block bit-identical to a serialized read; see
    // `disttgl_mem::daemon`).
    let acquire_plan: Vec<(usize, std::ops::Range<usize>, usize)> = (0..total_steps)
        .filter_map(|step| match schedule.plan(jg, step) {
            StepPlan::Acquire { batch, epoch_equiv } => {
                let local = schedule.local_slice(&batch, ig);
                (!local.is_empty()).then_some((step, local, epoch_equiv))
            }
            _ => None,
        })
        .collect();
    let request_for = |idx: usize| {
        let (_, local, epoch_equiv) = acquire_plan[idx].clone();
        PrefetchRequest::for_epoch(
            store.as_ref().as_ref(),
            epoch_equiv,
            j,
            local,
            cfg.train_negs,
        )
    };
    // First plan entry at or after the resume point.
    let resume_idx = acquire_plan
        .iter()
        .position(|(s, _, _)| *s >= start_step)
        .unwrap_or(acquire_plan.len());
    let mut next_acquire = resume_idx; // next acquire_plan entry to execute
    let mut next_request = resume_idx; // next entry whose phase 1 is unrequested
    let mut prefetcher = if cfg.pipeline_prefetch && resume_idx < acquire_plan.len() {
        let mut p =
            BatchPrefetcher::spawn(Arc::clone(&dataset), Arc::clone(&csr), model_cfg.clone());
        p.request(request_for(resume_idx));
        next_request = resume_idx + 1;
        Some(p)
    } else {
        None
    };
    let use_speculation = cfg.speculative_gather && prefetcher.is_some();
    // Phase-1 result for acquire_plan[next_acquire], grabbed early
    // (continue/idle steps) so its speculative gather is in flight.
    let mut staged: Option<PrefetchedBatch> = None;
    let mut spec_posted = false;
    // Scratch buffers cycled through the daemon: the retired batch's
    // gathered block becomes the next read/speculation target.
    let mut read_scratch = MemoryReadout::default();
    let mut spec_scratch = VersionedReadout::default();

    // Checkpoint cadence: a distributed unit is one sweep (= j·k
    // epoch-equivalents); a sweep boundary is a quiescent point where
    // every daemon has served exactly `step + 1` turns. The final
    // boundary is never checkpointed.
    let ckpt_every = match (cfg.checkpoint_every, &cfg.checkpoint_dir) {
        (Some(n), Some(_)) => Some(n),
        _ => None,
    };
    let mut aborted = false;
    let mut cause: Option<AbortCause> = None;
    let mut mem_fault: Option<DaemonError> = None;

    for step in start_step..total_steps {
        if my_crash == Some(step) {
            // Injected lane crash: tear down the collective so every
            // survivor unwinds from its next all-reduce instead of
            // waiting forever for this rank.
            comm.abort();
            aborted = true;
            cause = Some(AbortCause::InjectedCrash);
            break;
        }
        let plan = schedule.plan(jg, step);
        model.params.zero_grads();
        let mut loss = 0.0f32;
        let mut did_work = false;

        match plan {
            StepPlan::Acquire { batch, epoch_equiv } => {
                let local = schedule.local_slice(&batch, ig);
                let t_prep = Instant::now();
                let mut via_speculation = false;
                let prepared = if local.is_empty() {
                    // Still take the serialized memory turn with an
                    // empty request to keep the daemon protocol moving.
                    let mut timed = TimedAccess {
                        client: &mut client,
                        wait_secs: &mut ret.timing.mem_wait_secs,
                        fault: &mut mem_fault,
                        d_mem: model_cfg.d_mem,
                        d_mail: model_cfg.mail_dim(),
                    };
                    let _ = timed.read(&[]);
                    timed.write(empty_write(&model_cfg));
                    None
                } else {
                    let prepared_opt: Option<PreparedBatch> = match &mut prefetcher {
                        Some(p) => {
                            // Phase 1 was prefetched (and usually
                            // already staged with its speculative
                            // gather in flight); queue the next
                            // Acquire's phase 1, then take the one
                            // serialized memory slot here — as a
                            // repair request when speculating, a full
                            // read otherwise.
                            debug_assert_eq!(acquire_plan[next_acquire].0, step);
                            via_speculation = spec_posted;
                            let resp = match staged.take() {
                                Some(resp) => resp,
                                None => {
                                    let resp = p.recv();
                                    if next_request < acquire_plan.len() {
                                        p.request(request_for(next_request));
                                        next_request += 1;
                                    }
                                    resp
                                }
                            };
                            next_acquire += 1;
                            if spec_posted {
                                // Collect the out-of-turn gather and
                                // spend the serialized slot repairing
                                // it in place: the daemon rewrites
                                // exactly the rows whose version grew
                                // since the gather. Under a staleness
                                // bound, rows at most `k` writes
                                // behind keep their speculative value
                                // (and may be blended below).
                                spec_posted = false;
                                let t_mem = Instant::now();
                                let repaired = client.take_speculation().and_then(|tagged| {
                                    let mut readout = tagged.readout;
                                    let req = ReadRequest::Repair {
                                        nodes: resp.sb.nodes().to_vec(),
                                        versions: tagged.versions,
                                        bound: cfg.staleness_bound,
                                    };
                                    let outcome = client.read(req, &mut readout)?;
                                    if cfg.staleness_compensation
                                        == crate::config::StalenessCompensation::SimilarityBlend
                                    {
                                        blend_admitted_rows(
                                            &mut readout,
                                            &outcome.admitted_rows,
                                            model_cfg.d_mem,
                                        );
                                    }
                                    Ok(readout)
                                });
                                ret.timing.mem_wait_secs += t_mem.elapsed().as_secs_f64();
                                match repaired {
                                    Ok(readout) => Some(prep.complete(resp.sb, readout)),
                                    Err(e) => {
                                        mem_fault = Some(e);
                                        None
                                    }
                                }
                            } else {
                                let prepared = {
                                    let mut timed = TimedAccess {
                                        client: &mut client,
                                        wait_secs: &mut ret.timing.mem_wait_secs,
                                        fault: &mut mem_fault,
                                        d_mem: model_cfg.d_mem,
                                        d_mail: model_cfg.mail_dim(),
                                    };
                                    prep.finish_with(
                                        resp.sb,
                                        &mut timed,
                                        std::mem::take(&mut read_scratch),
                                    )
                                };
                                if mem_fault.is_none() {
                                    Some(prepared)
                                } else {
                                    None
                                }
                            }
                        }
                        None => {
                            // Sequential oracle: one read covering the
                            // positives and all j negative sets
                            // (epoch-parallel prefetch).
                            let prepared = {
                                let mut timed = TimedAccess {
                                    client: &mut client,
                                    wait_secs: &mut ret.timing.mem_wait_secs,
                                    fault: &mut mem_fault,
                                    d_mem: model_cfg.d_mem,
                                    d_mail: model_cfg.mail_dim(),
                                };
                                let mut neg_slices: Vec<&[u32]> = Vec::new();
                                let storage;
                                if let Some(store) = store.as_ref() {
                                    storage = (0..j)
                                        .map(|p| {
                                            let g = store.group_for_epoch(epoch_equiv + p);
                                            store.slice(g, local.clone())
                                        })
                                        .collect::<Vec<_>>();
                                    neg_slices = storage.to_vec();
                                }
                                prep.prepare(local.clone(), &neg_slices, cfg.train_negs, &mut timed)
                            };
                            if mem_fault.is_none() {
                                Some(prepared)
                            } else {
                                None
                            }
                        }
                    };
                    ret.timing.prep_secs += t_prep.elapsed().as_secs_f64();

                    prepared_opt.inspect(|prepared| {
                        let t_compute = Instant::now();
                        let out = model.train_step(
                            &prepared.pos,
                            prepared.negs.first(),
                            static_mem.as_ref().as_ref(),
                        );
                        ret.timing.compute_secs += t_compute.elapsed().as_secs_f64();
                        loss = out.loss;
                        did_work = true;
                        if let Err(e) = client.write(out.write) {
                            mem_fault = Some(e);
                        }
                    })
                };
                // Recycle the retired batch's gathered block into the
                // scratch this turn drained (no per-turn readout
                // allocation in steady state, whichever path served
                // the read).
                if let Some(old) = cached.take() {
                    if let Some(block) = old.recycle_block() {
                        if via_speculation {
                            spec_scratch.readout = block;
                        } else {
                            read_scratch = block;
                        }
                    }
                }
                cached = prepared;
            }
            StepPlan::Continue { pass, .. } => {
                if let Some(prepared) = &cached {
                    let t_compute = Instant::now();
                    let neg = if prepared.negs.is_empty() {
                        None
                    } else {
                        Some(&prepared.negs[pass.min(prepared.negs.len() - 1)])
                    };
                    let out = model.train_step(&prepared.pos, neg, static_mem.as_ref().as_ref());
                    ret.timing.compute_secs += t_compute.elapsed().as_secs_f64();
                    loss = out.loss;
                    did_work = true;
                    // Non-owner passes never write (RAW hazard, §3.2.2).
                }
            }
            StepPlan::Idle => {}
        }

        if let Some(fault) = &mem_fault {
            // A daemon wait failed (injected shutdown, deadline expiry,
            // or a peer's crash wedging the turn order): abort the
            // collective and unwind; peers blocked in the all-reduce
            // observe the abort instead of hanging.
            cause = Some(daemon_abort_cause(*fault));
            comm.abort();
            aborted = true;
            break;
        }

        // Open the next speculation window: the moment the next
        // Acquire's phase 1 is done (typically during a continue
        // pass), post its unique-node gather out of turn so the
        // daemon fills it while this lane computes/synchronizes. Any
        // write that lands in between is repaired in the Acquire
        // turn's slot — bit-identically, per the version contract. An
        // injected `DelaySpeculation` fault holds the first posts back
        // (the Acquire slot then pays a full read — results unchanged,
        // which is exactly what the fault harness asserts).
        if let Some(p) = &mut prefetcher {
            if staged.is_none() && next_acquire < acquire_plan.len() {
                if let Some(resp) = p.try_recv() {
                    if next_request < acquire_plan.len() {
                        p.request(request_for(next_request));
                        next_request += 1;
                    }
                    if use_speculation && step >= start_step + spec_delay {
                        client.speculate_read(resp.sb.nodes(), std::mem::take(&mut spec_scratch));
                        spec_posted = true;
                    }
                    staged = Some(resp);
                }
            }
        }

        // Global weight synchronization (the only cross-group and
        // cross-machine traffic, Table 1).
        let t_comm = Instant::now();
        let mut grads = model.params.flatten_grads();
        let probe = step % VARIANCE_PROBE_EVERY == 0 && did_work;
        let pre = if probe { Some(grads.clone()) } else { None };
        if comm.allreduce_mean(&mut grads).is_err() {
            // A peer crashed and aborted the communicator: unwind with
            // whatever history is already banked.
            aborted = true;
            cause = Some(AbortCause::PeerAbort);
            break;
        }
        if let Some(pre) = pre {
            let n = grads.len().max(1);
            let dev: f64 = pre
                .iter()
                .zip(&grads)
                .map(|(&a, &b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / n as f64;
            ret.grad_sq_dev_sum += dev;
            ret.grad_probes += 1;
        }
        model.params.unflatten_grads(&grads);
        model.params.clip_grad_norm(5.0);
        adam.step(&mut model.params);
        ret.timing.allreduce_secs += t_comm.elapsed().as_secs_f64();

        if rank == 0 {
            ret.loss_history.push(loss);
        }

        // Sweep boundary: rank 0 evaluates from replica 0's snapshot.
        if rank == 0
            && cfg.eval_every_epoch
            && val_end > train_end
            && step < ownership_steps
            && (step + 1) % b == 0
        {
            let t_eval = Instant::now();
            let k_eval = disttgl_tensor::timing::snapshot();
            let sweep_idx = (step + 1) / b - 1;
            let mut snap = match daemons[0].epoch_snapshot(sweep_idx as u64) {
                Ok(snap) => snap,
                Err(e) => {
                    // Replica 0's daemon died before finishing the
                    // sweep (fault injection): unwind everyone.
                    cause = Some(daemon_abort_cause(e));
                    comm.abort();
                    aborted = true;
                    break;
                }
            };
            let eval_end = val_end.min(train_end.saturating_add(cfg.eval_max_events));
            let res = evaluate(
                &model,
                &model_cfg,
                &dataset,
                csr.as_ref(),
                &mut snap,
                static_mem.as_ref().as_ref(),
                train_end..eval_end,
                cfg.local_batch,
                cfg.eval_negs,
                cfg.seed ^ sweep_idx as u64,
            );
            ret.eval_secs += t_eval.elapsed().as_secs_f64();
            eval_kernels = eval_kernels + (disttgl_tensor::timing::snapshot() - k_eval);
            ret.convergence.push(ConvergencePoint {
                iteration: step + 1,
                wall_secs: start.elapsed().as_secs_f64(),
                metric: res.metric,
            });
            sweep_done = sweep_idx + 1;
        }

        // Sweep-boundary checkpoint: rank 0 captures every replica's
        // exact state at turn `step + 1` and persists it together with
        // the (replica-identical) weights and optimizer moments. The
        // trailing zero-length all-reduce is a quiescence barrier — no
        // rank may post a turn-`step + 1` memory request until every
        // capture is collected, which is exactly the precondition of
        // `MemoryDaemon::capture_at`. Saving is pure observation: the
        // training trajectory is bit-identical with or without it.
        let units = (step + 1) / b;
        if ckpt_every
            .is_some_and(|n| (step + 1) % b == 0 && step + 1 < ownership_steps && units % n == 0)
        {
            if rank == 0 {
                let turn = (step + 1) as u64;
                for d in daemons.iter() {
                    d.capture_at(turn);
                }
                let capture_deadline = Some(deadline.unwrap_or(std::time::Duration::from_secs(30)));
                let mut memories = Vec::with_capacity(daemons.len());
                let mut capture_err: Option<DaemonError> = None;
                for d in daemons.iter() {
                    match d.take_capture(capture_deadline) {
                        Ok(m) => memories.push(m),
                        Err(e) => {
                            capture_err = Some(e);
                            break;
                        }
                    }
                }
                if memories.len() == daemons.len() {
                    let dir = cfg
                        .checkpoint_dir
                        .as_deref()
                        .expect("gated on checkpoint_dir");
                    let ckpt_store = CheckpointStore::open(dir, cfg.checkpoint_retain)
                        .unwrap_or_else(|e| panic!("checkpoint dir {dir}: {e}"));
                    let start_turns = vec![turn; memories.len()];
                    let ckpt = TrainCheckpoint {
                        fingerprint: fingerprint(&model_cfg, &cfg),
                        units_done: units,
                        iteration: step + 1,
                        events_trained: (units * train_end * j * parallel.k) as u64,
                        weights: model.params.flatten_weights(),
                        adam_t: adam.steps(),
                        adam_state: adam.flatten_state(),
                        loss_history: ret.loss_history.clone(),
                        convergence: ret.convergence.clone(),
                        static_table: static_mem.as_ref().as_ref().map(|s| s.table().clone()),
                        memories,
                        start_turns,
                    };
                    if faults.torn_checkpoint_at(units) {
                        // Injected torn write: persist a truncated
                        // prefix of the frame at the *final* path
                        // (modeling a crash mid-write without the
                        // atomic-rename shield) and bring the run
                        // down. Recovery must see the bad digest and
                        // fall back to the previous good checkpoint.
                        let bytes = ckpt.to_framed_bytes();
                        let path = ckpt_store.train_path(units);
                        std::fs::write(&path, &bytes[..bytes.len() / 2])
                            .unwrap_or_else(|e| panic!("torn write {}: {e}", path.display()));
                        comm.abort();
                        aborted = true;
                        cause = Some(AbortCause::TornCheckpoint);
                    } else {
                        ckpt_store
                            .save_train(&ckpt)
                            .unwrap_or_else(|e| panic!("checkpoint save unit {units}: {e}"));
                    }
                } else {
                    // A capture resolved as shutdown/timeout — a
                    // replica died at the boundary. Abort rather than
                    // persist a partial checkpoint.
                    cause = Some(daemon_abort_cause(
                        capture_err.unwrap_or(DaemonError::Shutdown),
                    ));
                    comm.abort();
                    aborted = true;
                }
            }
            if aborted {
                break;
            }
            if comm.allreduce_mean(&mut [0.0f32]).is_err() {
                aborted = true;
                cause = Some(AbortCause::PeerAbort);
                break;
            }
        }
    }
    let _ = sweep_done;
    // Per-layer share of the embed stack inside compute_secs.
    ret.timing.absorb_layer_secs(&model.layer_embed_secs(), 1.0);
    ret.timing.absorb_kernels(
        &(disttgl_tensor::timing::snapshot() - kernels0 - eval_kernels),
        1.0,
    );

    // Rank 0 computes the final test metric: replay val then test from
    // the final snapshot of replica 0. An aborted run has no final
    // state to score — its partial histories stand as-is.
    if rank == 0 && !aborted {
        let t_eval = Instant::now();
        let final_sweep = cfg.sweeps() as u64 - 1;
        match daemons[0].epoch_snapshot(final_sweep) {
            Err(e) => {
                // Replica 0's daemon died after the last collective:
                // the run is aborted and has no test metric.
                aborted = true;
                cause = Some(daemon_abort_cause(e));
            }
            Ok(mut mem) => {
                if val_end > train_end {
                    crate::eval::replay_memory(
                        &model,
                        &model_cfg,
                        &dataset,
                        csr.as_ref(),
                        &mut mem,
                        static_mem.as_ref().as_ref(),
                        train_end..val_end,
                        cfg.local_batch,
                    );
                }
                let test_end = dataset
                    .graph
                    .num_events()
                    .min(val_end.saturating_add(cfg.eval_max_events));
                let test = evaluate(
                    &model,
                    &model_cfg,
                    &dataset,
                    csr.as_ref(),
                    &mut mem,
                    static_mem.as_ref().as_ref(),
                    val_end..test_end,
                    cfg.local_batch,
                    cfg.eval_negs,
                    cfg.seed ^ 0x7e57,
                );
                ret.eval_secs += t_eval.elapsed().as_secs_f64();
                // Smuggle the test metric through a sentinel
                // convergence point consumed by `assemble_results`.
                ret.convergence.push(ConvergencePoint {
                    iteration: usize::MAX,
                    wall_secs: start.elapsed().as_secs_f64(),
                    metric: test.metric,
                });
            }
        }
    }
    ret.aborted = aborted;
    // Every aborted rank reports a cause; a rank that unwound without
    // observing its own failure is a bystander.
    ret.cause = aborted.then(|| cause.unwrap_or(AbortCause::PeerAbort));
    ret
}

fn assemble_results(returns: Vec<TrainerReturn>, wall: f64) -> (RunResult, f64) {
    let world = returns.len() as f64;
    let mut result = RunResult {
        aborted: returns.iter().any(|r| r.aborted),
        abort_reports: returns
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.cause.map(|cause| AbortReport { rank, cause }))
            .collect(),
        ..Default::default()
    };
    let mut dev_sum = 0.0;
    let mut probes = 0u64;
    for r in &returns {
        result.timing.prep_secs += r.timing.prep_secs / world;
        result.timing.mem_wait_secs += r.timing.mem_wait_secs / world;
        result.timing.compute_secs += r.timing.compute_secs / world;
        result
            .timing
            .absorb_layer_secs(&r.timing.embed_layer_secs, 1.0 / world);
        result.timing.allreduce_secs += r.timing.allreduce_secs / world;
        result.timing.matmul_secs += r.timing.matmul_secs / world;
        result.timing.gru_secs += r.timing.gru_secs / world;
        result.timing.softmax_secs += r.timing.softmax_secs / world;
        result.timing.gather_secs += r.timing.gather_secs / world;
        dev_sum += r.grad_sq_dev_sum;
        probes += r.grad_probes;
    }
    result.grad_variance = if probes > 0 {
        dev_sum / probes as f64
    } else {
        0.0
    };

    let rank0 = returns.into_iter().next().expect("at least one trainer");
    result.loss_history = rank0.loss_history;
    let mut convergence = rank0.convergence;
    if let Some(last) = convergence.last() {
        if last.iteration == usize::MAX {
            let sentinel = convergence.pop().expect("sentinel");
            result.test_metric = sentinel.metric;
        }
    }
    result.convergence = convergence;
    result.wall_secs = wall;
    (result, rank0.eval_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelConfig;
    use disttgl_data::generators;

    fn quick_cfg(parallel: ParallelConfig, epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::new(parallel);
        cfg.local_batch = 64;
        cfg.epochs = epochs;
        cfg.eval_negs = 9;
        cfg.eval_every_epoch = true;
        cfg.seed = 3;
        cfg.base_lr = 2e-2; // keep effective LR ≈ 2e-3 at bs 64
        cfg
    }

    fn tiny_model(d_edge: usize) -> ModelConfig {
        let mut mc = ModelConfig::compact(d_edge);
        mc.d_mem = 16;
        mc.d_time = 8;
        mc.d_emb = 16;
        mc.n_neighbors = 5;
        mc.static_memory = false;
        mc
    }

    #[test]
    fn one_by_one_by_one_matches_single_reference_shape() {
        let d = generators::wikipedia(0.004, 51);
        let mc = tiny_model(d.edge_features.cols());
        let cfg = quick_cfg(ParallelConfig::single(), 2);
        let res = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 1));
        assert_eq!(res.convergence.len(), 2);
        assert!(res.test_metric > 0.0);
        assert!(res.loss_history.iter().all(|l| l.is_finite()));
        assert!(res.daemon_rows_written > 0);
    }

    #[test]
    fn memory_parallelism_runs_and_learns() {
        let d = generators::wikipedia(0.008, 52);
        let mc = tiny_model(d.edge_features.cols());
        // k = 4 trainers, epochs = 16 → 4 sweeps.
        let cfg = quick_cfg(ParallelConfig::new(1, 1, 4), 16);
        let res = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 4));
        assert_eq!(res.convergence.len(), 4);
        assert!(res.test_metric > 0.3, "test MRR {}", res.test_metric);
        // Memory parallelism: no node-memory sync across groups, only
        // weights — comm bytes > 0, and 4 daemons saw writes.
        assert!(res.comm_bytes > 0);
        assert!(res.daemon_rows_written > 0);
    }

    #[test]
    fn epoch_parallelism_runs() {
        let d = generators::wikipedia(0.004, 53);
        let mc = tiny_model(d.edge_features.cols());
        let cfg = quick_cfg(ParallelConfig::new(1, 2, 1), 4);
        let res = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
        assert_eq!(res.convergence.len(), 2);
        assert!(res.test_metric > 0.0);
    }

    #[test]
    fn minibatch_parallelism_runs() {
        let d = generators::wikipedia(0.004, 54);
        let mc = tiny_model(d.edge_features.cols());
        let cfg = quick_cfg(ParallelConfig::new(2, 1, 1), 2);
        let res = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
        assert_eq!(res.convergence.len(), 2);
        assert!(res.test_metric > 0.0);
    }

    #[test]
    fn full_ijk_combination_runs() {
        let d = generators::wikipedia(0.004, 55);
        let mc = tiny_model(d.edge_features.cols());
        let cfg = quick_cfg(ParallelConfig::new(2, 2, 2), 8);
        let res = train_distributed(&d, &mc, &cfg, ClusterSpec::new(2, 4));
        assert!(res.test_metric > 0.0);
        assert!(res.grad_variance >= 0.0);
        assert!(res.throughput_events_per_sec > 0.0);
    }

    #[test]
    fn distributed_run_is_deterministic() {
        let d = generators::mooc(0.0015, 56);
        let mc = tiny_model(0);
        let cfg = quick_cfg(ParallelConfig::new(1, 1, 2), 4);
        let a = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
        let b = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
        assert_eq!(a.loss_history, b.loss_history);
        assert_eq!(a.test_metric, b.test_metric);
    }
}
