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

use crate::batch::{BatchPreparer, MemoryAccess, PreparedBatch, StaticBatch};
use crate::config::{ModelConfig, TrainConfig};
use crate::metrics::{AbortCause, AbortReport, ConvergencePoint, RunResult, TimingBreakdown};
use crate::pipeline::{BatchPrefetcher, PrefetchRequest};
use crate::protocol::{host_cores, EvalClock, RunSetup};
use crate::sched::{GroupSchedule, StepPlan};
use disttgl_cluster::{ClusterSpec, Communicator, CommunicatorGroup, NetworkModel};
use disttgl_data::Dataset;
use disttgl_mem::{
    DaemonError, DaemonOptions, MemoryClient, MemoryDaemon, MemoryReadout, MemoryState,
    MemoryWrite, ReadRequest, VersionedReadout,
};
use disttgl_tensor::Matrix;
use std::thread::Scope;
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

/// Aborts the collective if its lane unwinds, so peers blocked in an
/// all-reduce fail instead of waiting forever for the dead rank (the
/// scoped trainer threads are joined only once every lane returns).
struct AbortOnUnwind<'a>(&'a Communicator);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
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
    /// Rank 0's final test metric (0 when the run aborted).
    test_metric: f64,
    grad_sq_dev_sum: f64,
    grad_probes: u64,
    /// Time spent evaluating (rank 0's is excluded from throughput).
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
    let setup = RunSetup::new(dataset, model_cfg, cfg);
    assert!(setup.train_end > 0, "empty training split");
    if let Some(c) = &setup.resume {
        assert_eq!(
            c.memories.len(),
            k,
            "checkpoint carries {} memory replicas for a k = {} run",
            c.memories.len(),
            k
        );
    }

    let sweeps = cfg.sweeps();
    let global_batch = cfg.local_batch * i;
    // One schedule per group (clones are cheap; built per thread too).
    let schedules: Vec<GroupSchedule> = (0..k)
        .map(|g| GroupSchedule::new(0..setup.train_end, global_batch, &parallel, g, sweeps))
        .collect();

    // Memory daemons: one per group, with wrap-aligned epoch
    // schedules. A resumed run restores each replica's captured state
    // and fast-forwards its turn counter to the checkpoint boundary; a
    // fault plan may schedule a mid-epoch daemon death.
    let daemons: Vec<MemoryDaemon> = schedules
        .iter()
        .enumerate()
        .map(|(g, s)| {
            let (state, start_turn) = match &setup.resume {
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
        .collect();

    let comm_group = CommunicatorGroup::new(spec, NetworkModel::t4_testbed());
    // Every lane computes at once, so each gets an equal share of the
    // cores as its intra-op budget (1 whenever lanes ≥ cores).
    let lane_budget = (host_cores() / world).max(1);
    let start = Instant::now();
    let returns: Vec<TrainerReturn> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let (group, jg, ig) = parallel.decompose(rank);
                let ctx = TrainerCtx {
                    rank,
                    group,
                    jg,
                    ig,
                    comm: comm_group.communicator(rank),
                    daemons: &daemons,
                    setup: &setup,
                    schedule: schedules[group].clone(),
                    start,
                };
                std::thread::Builder::new()
                    .name(format!("disttgl-trainer-{rank}"))
                    .spawn_scoped(s, move || {
                        disttgl_tensor::par::with_budget(lane_budget, || trainer_main(ctx, s))
                    })
                    .expect("spawn trainer")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trainer thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let (mut result, eval_secs) = assemble_results(returns, wall);
    result.absorb_comm(&comm_group.stats());

    // Fault unwinding: daemons of a crashed group may still be waiting
    // for turns that will never come — release them before joining so
    // teardown cannot hang.
    if result.aborted {
        for d in &daemons {
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
    for d in daemons {
        let (state, stats) = d.join();
        result.absorb_daemon(&stats);
        result.memory_checksums.push(state.checksum());
    }
    result
}

struct TrainerCtx<'a> {
    rank: usize,
    group: usize,
    jg: usize,
    ig: usize,
    comm: Communicator,
    daemons: &'a [MemoryDaemon],
    setup: &'a RunSetup<'a>,
    schedule: GroupSchedule,
    start: Instant,
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

/// One lane's step loop. Its prefetch worker runs on `scope`, the
/// scope of the trainer threads, so it borrows the dataset and T-CSR.
fn trainer_main<'s>(ctx: TrainerCtx<'s>, scope: &'s Scope<'s, '_>) -> TrainerReturn {
    let TrainerCtx {
        rank,
        group,
        jg,
        ig,
        comm,
        daemons,
        setup,
        schedule,
        start,
    } = ctx;
    let _abort_on_unwind = AbortOnUnwind(&comm);
    let (model_cfg, cfg) = (setup.model_cfg, setup.cfg);
    let (train_end, static_mem) = (setup.train_end, setup.static_mem.as_ref());
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

    let prep = BatchPreparer::new(setup.dataset, &setup.csr, model_cfg);

    // Identical seeded init — or identical restored state — on every
    // replica (equivalent to broadcast).
    let (mut model, mut adam) = setup.model();

    // Kernel-share attribution for this lane, with mid-run eval kernel
    // time subtracted so the shares describe training compute.
    let mut clock = EvalClock::start();
    let mut ret = TrainerReturn {
        timing: TimingBreakdown::default(),
        loss_history: Vec::new(),
        convergence: Vec::new(),
        test_metric: 0.0,
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

    // Checkpoint resume: rank 0 re-seeds its histories so the assembled
    // RunResult matches an uninterrupted run.
    let start_step = match &setup.resume {
        Some(c) => {
            assert!(
                c.units_done * b < total_steps,
                "checkpoint already covers the full schedule"
            );
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
        PrefetchRequest::for_epoch(setup.store.as_ref(), epoch_equiv, j, local, cfg.train_negs)
    };
    // First plan entry at or after the resume point.
    let resume_idx = acquire_plan
        .iter()
        .position(|(s, _, _)| *s >= start_step)
        .unwrap_or(acquire_plan.len());
    let mut next_acquire = resume_idx; // next acquire_plan entry to execute
    let mut next_request = resume_idx; // next entry whose phase 1 is unrequested
    let mut prefetcher = if cfg.pipeline_prefetch && resume_idx < acquire_plan.len() {
        let mut p = BatchPrefetcher::spawn(scope, setup.dataset, &setup.csr, model_cfg.clone());
        p.request(request_for(resume_idx));
        next_request = resume_idx + 1;
        Some(p)
    } else {
        None
    };
    let use_speculation = cfg.speculative_gather && prefetcher.is_some();
    // Phase-1 result for acquire_plan[next_acquire], grabbed early
    // (continue/idle steps) so its speculative gather is in flight.
    let mut staged: Option<StaticBatch> = None;
    let mut spec_posted = false;
    // Scratch buffers cycled through the daemon: the retired batch's
    // gathered block becomes the next read/speculation target.
    let mut read_scratch = MemoryReadout::default();
    let mut spec_scratch = VersionedReadout::default();

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
                    timed.write(empty_write(model_cfg));
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
                            let sb = match staged.take() {
                                Some(sb) => sb,
                                None => {
                                    let sb = p.recv();
                                    if next_request < acquire_plan.len() {
                                        p.request(request_for(next_request));
                                        next_request += 1;
                                    }
                                    sb
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
                                        nodes: sb.nodes().to_vec(),
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
                                    Ok(readout) => Some(prep.complete(sb, readout)),
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
                                        sb,
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
                                if let Some(store) = &setup.store {
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
                        let out =
                            model.train_step(&prepared.pos, prepared.negs.first(), static_mem);
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
                    let out = model.train_step(&prepared.pos, neg, static_mem);
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
                if let Some(sb) = p.try_recv() {
                    if next_request < acquire_plan.len() {
                        p.request(request_for(next_request));
                        next_request += 1;
                    }
                    if use_speculation && step >= start_step + spec_delay {
                        client.speculate_read(sb.nodes(), std::mem::take(&mut spec_scratch));
                        spec_posted = true;
                    }
                    staged = Some(sb);
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
        if rank == 0 && setup.validates() && step < ownership_steps && (step + 1) % b == 0 {
            let sweep_idx = (step + 1) / b - 1;
            let point = clock.time(|| {
                let mut snap = daemons[0].epoch_snapshot(sweep_idx as u64)?;
                Ok(setup.boundary_eval(&model, &mut snap, sweep_idx, step + 1, start))
            });
            match point {
                Ok(point) => ret.convergence.push(point),
                Err(e) => {
                    // Replica 0's daemon died before finishing the
                    // sweep (fault injection): unwind everyone.
                    cause = Some(daemon_abort_cause(e));
                    comm.abort();
                    aborted = true;
                    break;
                }
            }
        }

        // Sweep-boundary checkpoint. A distributed unit is one sweep
        // (= j·k epoch-equivalents); a sweep boundary is a quiescent
        // point where every daemon has served exactly `step + 1` turns.
        // Rank 0 captures every replica's exact state at that turn and
        // persists it together with the (replica-identical) weights and
        // optimizer moments. The trailing zero-length all-reduce is a
        // quiescence barrier — no rank may post a turn-`step + 1` memory
        // request until every capture is collected, which is exactly the
        // precondition of `MemoryDaemon::capture_at`.
        let units = (step + 1) / b;
        if (step + 1) % b == 0 && setup.checkpoint_due(units, cfg.sweeps()) {
            if rank == 0 {
                for d in daemons {
                    d.capture_at((step + 1) as u64);
                }
                let capture_deadline = Some(deadline.unwrap_or(std::time::Duration::from_secs(30)));
                let memories: Result<Vec<MemoryState>, DaemonError> = daemons
                    .iter()
                    .map(|d| d.take_capture(capture_deadline))
                    .collect();
                match memories {
                    Ok(memories) => {
                        let ckpt = setup.checkpoint(
                            units,
                            step + 1,
                            (units * train_end * j * parallel.k) as u64,
                            &model,
                            &adam,
                            &ret.loss_history,
                            &ret.convergence,
                            memories,
                        );
                        if faults.torn_checkpoint_at(units) {
                            // Injected torn write: persist a truncated
                            // prefix of the frame at the *final* path
                            // (modeling a crash mid-write without the
                            // atomic-rename shield) and bring the run
                            // down. Recovery must see the bad digest and
                            // fall back to the previous good checkpoint.
                            let bytes = ckpt.to_framed_bytes();
                            let path = setup.checkpoint_store().train_path(units);
                            std::fs::write(&path, &bytes[..bytes.len() / 2])
                                .unwrap_or_else(|e| panic!("torn write {}: {e}", path.display()));
                            comm.abort();
                            aborted = true;
                            cause = Some(AbortCause::TornCheckpoint);
                        } else {
                            setup.save_checkpoint(&ckpt);
                        }
                    }
                    Err(e) => {
                        // A capture resolved as shutdown/timeout — a
                        // replica died at the boundary. Abort rather
                        // than persist a partial checkpoint.
                        cause = Some(daemon_abort_cause(e));
                        comm.abort();
                        aborted = true;
                    }
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
    clock.attribute(&mut ret.timing, &model);

    // Rank 0 computes the final test metric from the final snapshot of
    // replica 0. An aborted run has no final state to score — its
    // partial histories stand as-is.
    if rank == 0 && !aborted {
        let test = clock.time(|| {
            let mut mem = daemons[0].epoch_snapshot(cfg.sweeps() as u64 - 1)?;
            Ok(setup.final_test(&model, &mut mem))
        });
        match test {
            Ok(metric) => ret.test_metric = metric,
            Err(e) => {
                // Replica 0's daemon died after the last collective:
                // the run is aborted and has no test metric.
                aborted = true;
                cause = Some(daemon_abort_cause(e));
            }
        }
    }
    ret.eval_secs = clock.secs;
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
    result.convergence = rank0.convergence;
    result.test_metric = rank0.test_metric;
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

    /// The shared run protocol: `train_distributed` at 1×1×1 reproduces
    /// `train_single` bit for bit — losses, every boundary validation
    /// point and the test metric — at one and two layers, on link
    /// prediction and on edge classification.
    #[test]
    fn one_by_one_by_one_matches_single_reference_shape() {
        let wiki = generators::wikipedia(0.004, 51);
        let mooc = generators::mooc(0.0015, 51);
        let one = tiny_model(wiki.edge_features.cols());
        let cases = [
            ("wikipedia, 1 layer", &wiki, one.clone()),
            ("wikipedia, 2 layers", &wiki, one.with_fanouts(vec![5, 3])),
            ("mooc", &mooc, tiny_model(0)),
        ];
        let cfg = quick_cfg(ParallelConfig::single(), 2);
        for (label, d, mc) in cases {
            let res = train_distributed(d, &mc, &cfg, ClusterSpec::new(1, 1));
            assert_eq!(res.convergence.len(), 2, "{label}");
            assert!(res.test_metric > 0.0, "{label}");
            assert!(res.loss_history.iter().all(|l| l.is_finite()), "{label}");
            assert!(res.daemon_rows_written > 0, "{label}");

            let single = crate::train_single(d, &mc, &cfg);
            assert_eq!(res.loss_history, single.loss_history, "{label}: losses");
            let points = |r: &RunResult| -> Vec<(usize, f64)> {
                r.convergence
                    .iter()
                    .map(|p| (p.iteration, p.metric))
                    .collect()
            };
            assert_eq!(points(&res), points(&single), "{label}: validation");
            assert_eq!(res.test_metric, single.test_metric, "{label}: test");
        }
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

    /// A checkpoint directory that cannot be created panics rank 0 at
    /// its first save. Its peer, parked in the quiescence all-reduce,
    /// must unwind too, so the run fails instead of hanging.
    #[test]
    fn failed_checkpoint_save_fails_the_run_instead_of_hanging() {
        let d = generators::wikipedia(0.004, 57);
        let mc = tiny_model(d.edge_features.cols());
        let file = std::env::temp_dir().join(format!("disttgl-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("temp file");
        let dir = file.join("ckpt");
        let cfg = quick_cfg(ParallelConfig::new(1, 1, 2), 4)
            .checkpoint_every(1, dir.to_str().expect("utf-8 temp path"));
        let run =
            std::panic::catch_unwind(|| train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2)));
        std::fs::remove_file(&file).expect("remove temp file");
        assert!(
            run.is_err(),
            "an unwritable checkpoint dir must fail the run"
        );
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
