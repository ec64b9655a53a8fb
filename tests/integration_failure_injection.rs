//! Failure-injection and robustness tests: the system must degrade
//! **structurally** (typed errors, `RunResult::aborted`, truncated but
//! valid histories) or loudly (panics on internal invariants), never
//! silently corrupt training state. The deterministic fault plane
//! (`disttgl::cluster::FaultPlan`) injects lane crashes, delayed
//! speculation, and daemon shutdowns at seeded, reproducible points;
//! the tests here prove survivor consistency — everything a survivor
//! records up to an abort is bit-identical to a fault-free run — and
//! recovery: a crashed run's checkpoint resumes to the uninterrupted
//! oracle's exact trajectory.

use disttgl::cluster::{ClusterSpec, FaultKind, FaultPlan};
use disttgl::core::{
    train_distributed, train_supervised, AbortCause, BatchPreparer, MemoryAccess, ModelConfig,
    ParallelConfig, RetryPolicy, SuperviseError, TgnModel, TrainConfig,
};
use disttgl::data::generators;
use disttgl::graph::TCsr;
use disttgl::mem::{
    DaemonError, MemoryClient, MemoryDaemon, MemoryReadout, MemoryState, MemoryWrite, ReadRequest,
    VersionedReadout,
};
use disttgl::tensor::{seeded_rng, Matrix};
use std::time::{Duration, Instant};

fn tiny_model(d_edge: usize) -> ModelConfig {
    let mut mc = ModelConfig::compact(d_edge);
    mc.d_mem = 16;
    mc.d_time = 8;
    mc.d_emb = 16;
    mc.n_neighbors = 5;
    mc.static_memory = false;
    mc
}

/// A small 1×1×2 layout (2 sweeps) — the fault harness's standard
/// topology.
fn dist_cfg(epochs: usize, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(ParallelConfig::new(1, 1, 2));
    cfg.local_batch = 64;
    cfg.epochs = epochs;
    cfg.eval_negs = 9;
    cfg.eval_every_epoch = true;
    cfg.seed = seed;
    cfg.base_lr = 2e-2;
    cfg
}

/// A full serialized read of `nodes` in the client's read turn.
fn full(client: &MemoryClient, nodes: &[u32]) -> Result<MemoryReadout, DaemonError> {
    let mut out = MemoryReadout::default();
    client.read(ReadRequest::Full(nodes.to_vec()), &mut out)?;
    Ok(out)
}

/// A daemon abandoned mid-schedule must not hang on drop.
#[test]
fn abandoned_daemon_drops_cleanly() {
    let daemon = MemoryDaemon::spawn(MemoryState::new(8, 2, 2), 2, 2, 100, 10);
    let _c0 = daemon.client(0);
    // No requests ever issued; drop triggers shutdown internally.
    drop(daemon);
}

/// Shutdown mid-read surfaces a structured [`DaemonError::Shutdown`]
/// instead of spinning forever, and the poisoned client fails fast on
/// every call after the first error.
#[test]
fn client_read_errors_on_shutdown() {
    let daemon = MemoryDaemon::spawn(MemoryState::new(8, 2, 2), 1, 2, 100, 1);
    // Rank 1 is not the first turn owner, so its read stays pending.
    let c1 = daemon.client(1);
    let handle = std::thread::spawn(move || {
        let first = full(&c1, &[0]).map(|_| ());
        let t0 = Instant::now();
        let second = full(&c1, &[0]).map(|_| ());
        (first, second, t0.elapsed())
    });
    std::thread::sleep(Duration::from_millis(50));
    daemon.shutdown();
    let (first, second, fast) = handle.join().unwrap();
    assert_eq!(first.unwrap_err(), DaemonError::Shutdown);
    assert_eq!(second.unwrap_err(), DaemonError::Shutdown);
    assert!(
        fast < Duration::from_millis(20),
        "poisoned client must fail fast"
    );
}

/// A client deadline turns an unserved wait into a structured
/// [`DaemonError::Timeout`] instead of a hang.
#[test]
fn client_deadline_expires_to_timeout() {
    let daemon = MemoryDaemon::spawn(MemoryState::new(8, 2, 2), 1, 2, 100, 1);
    // Rank 1 never gets its turn (rank 0 issues nothing).
    let mut c1 = daemon.client(1);
    c1.set_deadline(Some(Duration::from_millis(25)));
    let t0 = Instant::now();
    assert_eq!(full(&c1, &[0]).unwrap_err(), DaemonError::Timeout);
    assert!(t0.elapsed() >= Duration::from_millis(25));
    // Poisoned: the retry fails without re-waiting the full deadline.
    let t1 = Instant::now();
    assert_eq!(full(&c1, &[0]).unwrap_err(), DaemonError::Timeout);
    assert!(t1.elapsed() < Duration::from_millis(25));
    daemon.shutdown();
}

/// An injected lane crash aborts the whole world structurally: the
/// run returns (`aborted == true`, no panic, no hang) and everything
/// the surviving rank recorded before the abort is bit-identical to
/// the fault-free run — a crash truncates history, never corrupts it.
#[test]
fn lane_crash_aborts_world_with_consistent_survivor_history() {
    let d = generators::mooc(0.0015, 210);
    let mc = tiny_model(0);
    let cfg = dist_cfg(4, 7);
    let clean = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert!(!clean.aborted, "fault-free run completes");
    let total_steps = clean.loss_history.len();
    assert!(total_steps >= 4, "need room to crash mid-run");

    let crash_step = total_steps / 2;
    let cfg_f = cfg
        .clone()
        .with_faults(FaultPlan::new(vec![FaultKind::LaneCrash {
            rank: 1,
            step: crash_step,
        }]));
    let res = train_distributed(&d, &mc, &cfg_f, ClusterSpec::new(1, 2));
    assert!(res.aborted, "crash must be reported");
    assert!(
        res.loss_history.len() <= crash_step + 1,
        "history stops at the crash ({} recorded, crash at {crash_step})",
        res.loss_history.len()
    );
    assert!(
        !res.loss_history.is_empty(),
        "work before the crash is retained"
    );
    assert_eq!(
        res.loss_history[..],
        clean.loss_history[..res.loss_history.len()],
        "survivor's record must be a bit-identical prefix of the fault-free run"
    );
}

/// The seeded crash planner is deterministic: the same seed plans the
/// same fault, and the whole aborted run replays bit-identically.
#[test]
fn seeded_lane_crash_is_reproducible() {
    let d = generators::mooc(0.0015, 211);
    let mc = tiny_model(0);
    let cfg = dist_cfg(4, 8);
    let clean = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    let total_steps = clean.loss_history.len();

    let plan = FaultPlan::seeded_lane_crash(42, 2, total_steps);
    assert_eq!(
        plan.faults,
        FaultPlan::seeded_lane_crash(42, 2, total_steps).faults
    );
    let cfg_f = cfg.clone().with_faults(plan);
    let a = train_distributed(&d, &mc, &cfg_f, ClusterSpec::new(1, 2));
    let b = train_distributed(&d, &mc, &cfg_f, ClusterSpec::new(1, 2));
    assert!(a.aborted && b.aborted);
    assert_eq!(a.loss_history, b.loss_history);
    assert_eq!(a.memory_checksums, b.memory_checksums);
}

/// A memory daemon dying mid-epoch surfaces as a structured abort:
/// its trainers observe `DaemonError` (under the fault plane's default
/// deadline), propagate the abort through the collective, and the
/// whole world unwinds cleanly instead of hanging on the dead daemon.
#[test]
fn daemon_shutdown_mid_epoch_aborts_structurally() {
    let d = generators::mooc(0.0015, 212);
    let mc = tiny_model(0);
    let cfg = dist_cfg(4, 9).with_faults(FaultPlan::new(vec![FaultKind::DaemonShutdown {
        group: 0,
        after_turns: 3,
    }]));
    let res = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert!(res.aborted, "daemon death must be reported");
    assert!(res.loss_history.iter().all(|l| l.is_finite()));
}

/// Delayed speculation is a pure overlap perturbation: a lane whose
/// speculative gathers are suppressed for its first steps pays full
/// serialized reads instead, and the results are bit-identical — the
/// version contract holds under scheduling faults.
#[test]
fn delayed_speculation_is_bit_identical() {
    let d = generators::mooc(0.0015, 213);
    let mc = tiny_model(0);
    let cfg = dist_cfg(4, 10);
    let base = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    let cfg_f = cfg.clone().with_faults(FaultPlan::new(vec![
        FaultKind::DelaySpeculation { rank: 0, steps: 3 },
        FaultKind::DelaySpeculation { rank: 1, steps: 5 },
    ]));
    let delayed = train_distributed(&d, &mc, &cfg_f, ClusterSpec::new(1, 2));
    assert!(!delayed.aborted);
    assert_eq!(base.loss_history, delayed.loss_history);
    assert_eq!(base.memory_checksums, delayed.memory_checksums);
    assert_eq!(base.test_metric, delayed.test_metric);
}

/// The full recovery story: a run checkpoints at a sweep boundary,
/// crashes mid-sweep afterwards, and a resume from that checkpoint —
/// written by the *crashed* run — lands exactly on the uninterrupted
/// oracle's trajectory: losses, convergence points, final metric, and
/// memory digests all bit-identical.
#[test]
fn crash_recovery_resumes_to_oracle_trajectory() {
    let d = generators::mooc(0.0015, 214);
    let mc = tiny_model(0);
    let cfg = dist_cfg(4, 11);
    let oracle = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert!(!oracle.aborted);
    let steps_per_sweep = oracle.loss_history.len() / 2; // 2 sweeps
    assert!(steps_per_sweep >= 3);

    let dir = std::env::temp_dir().join("disttgl_crash_recovery_test");
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().unwrap();

    // Checkpoint every sweep; crash in the second sweep, after the
    // sweep-1 checkpoint landed.
    let cfg_crash = cfg
        .clone()
        .checkpoint_every(1, dir_s)
        .with_faults(FaultPlan::new(vec![FaultKind::LaneCrash {
            rank: 1,
            step: steps_per_sweep + 2,
        }]));
    let crashed = train_distributed(&d, &mc, &cfg_crash, ClusterSpec::new(1, 2));
    assert!(crashed.aborted);
    let ckpt = dir.join("ckpt_0001.bin");
    assert!(
        ckpt.exists(),
        "sweep-1 checkpoint must have landed before the crash"
    );

    let cfg_resume = cfg.clone().resume_from(ckpt.to_str().unwrap());
    let resumed = train_distributed(&d, &mc, &cfg_resume, ClusterSpec::new(1, 2));
    std::fs::remove_dir_all(&dir).ok();
    assert!(!resumed.aborted);
    assert_eq!(resumed.loss_history, oracle.loss_history);
    assert_eq!(resumed.test_metric, oracle.test_metric);
    assert_eq!(resumed.memory_checksums, oracle.memory_checksums);
    assert_eq!(resumed.convergence.len(), oracle.convergence.len());
    for (r, o) in resumed.convergence.iter().zip(&oracle.convergence) {
        assert_eq!(r.iteration, o.iteration);
        assert_eq!(r.metric, o.metric);
    }
}

/// A lane killed mid-speculation (posts a speculative gather, never
/// collects it, never takes its serialized turns again) must not
/// corrupt the version vector for surviving lanes: every serialized
/// read they complete stays consistent with a sequential replay, and
/// shutdown stays clean — a loud stop, not a hang or silent skew.
#[test]
fn lane_killed_mid_speculation_keeps_survivors_consistent() {
    fn write_of(nodes: Vec<u32>, fill: f32, ts: f32) -> MemoryWrite {
        let n = nodes.len();
        MemoryWrite {
            nodes,
            mem: Matrix::full(n, 1, fill),
            mem_ts: vec![ts; n],
            mail: Matrix::full(n, 1, fill * 2.0),
            mail_ts: vec![ts; n],
        }
    }

    // i = 1, j = 2: turn order R0 W0 R1 W1 R0 W0 …
    let daemon = MemoryDaemon::spawn(MemoryState::new(8, 1, 1), 1, 2, 6, 1);
    let c0 = daemon.client(0);
    let c1 = daemon.client(1);
    let mut reference = MemoryState::new(8, 1, 1);
    reference.reset(); // mirror the daemon's epoch-start reset
    let nodes: Vec<u32> = vec![0, 2, 4];

    // Turn 0 (rank 0): healthy speculative cycle for its next turn.
    full(&c0, &nodes).unwrap();
    c0.speculate_read(&nodes, VersionedReadout::default());
    let tagged = c0.take_speculation().unwrap();
    assert_eq!(tagged.versions, reference.read_versioned(&nodes).versions);
    c0.write(write_of(vec![0], 1.0, 1.0)).unwrap();
    reference.write(&write_of(vec![0], 1.0, 1.0));

    // Turn 1 (rank 1): completes one healthy turn, then "dies" after
    // posting a speculation it will never collect.
    let r1 = full(&c1, &nodes).unwrap();
    assert_eq!(r1.mem, reference.read(&nodes).mem);
    c1.write(write_of(vec![2], 3.0, 2.0)).unwrap();
    reference.write(&write_of(vec![2], 3.0, 2.0));
    c1.speculate_read(&nodes, VersionedReadout::default());
    drop(c1); // the kill: speculation outstanding, no more turns

    // Turn 2 (rank 0, the survivor): its repair of the tagged
    // speculation must reach exactly the serialized answer — the dead
    // lane's orphaned speculation didn't disturb the versions.
    let mut patched = tagged.readout;
    let req = ReadRequest::Repair {
        nodes: nodes.clone(),
        versions: tagged.versions,
        bound: None,
    };
    let outcome = c0.read(req, &mut patched).unwrap();
    assert!(
        outcome.repaired > 0,
        "both intervening writes hit the read set"
    );
    let want = reference.read(&nodes);
    assert_eq!(patched.mem, want.mem);
    assert_eq!(patched.mem_ts, want.mem_ts);
    assert_eq!(patched.mail, want.mail);
    c0.write(write_of(vec![4], 5.0, 3.0)).unwrap();
    reference.write(&write_of(vec![4], 5.0, 3.0));

    // Turn 3 belongs to the dead rank: the daemon can only spin there.
    // Shutdown must unblock everything without corrupting the state
    // the survivors produced.
    std::thread::sleep(std::time::Duration::from_millis(20));
    daemon.shutdown();
    let (state, stats) = daemon.join();
    assert_eq!(state.read(&nodes).mem, reference.read(&nodes).mem);
    assert!(stats.reads_served >= 3);
    // The orphaned speculation was served (the daemon answers specs
    // while spinning) or the shutdown cut it off — either way no hang.
    assert!(stats.spec_reads_served <= 2);
}

/// Corrupting node memory with NaN must surface in the model's
/// non-finite checks rather than silently training on garbage.
#[test]
fn nan_memory_is_detectable() {
    let d = generators::wikipedia(0.004, 201);
    let csr = TCsr::build(&d.graph);
    let mc = tiny_model(d.edge_features.cols());
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());

    // Poison one node's memory.
    let mut poison = disttgl::mem::MemoryWrite {
        nodes: vec![d.graph.events()[0].src],
        mem: Matrix::full(1, mc.d_mem, f32::NAN),
        mem_ts: vec![1.0],
        mail: Matrix::full(1, mc.mail_dim(), 1.0),
        mail_ts: vec![1.0],
    };
    poison.mem.set(0, 0, f32::NAN);
    MemoryAccess::write(&mut mem, poison);

    let prep = BatchPreparer::new(&d, &csr, &mc);
    let batch = prep.prepare(0..32, &[], 1, &mut mem);
    assert!(
        batch.pos.readout.mem_has_non_finite(),
        "poison must be visible"
    );

    let mut rng = seeded_rng(1);
    let model = TgnModel::new(mc.clone(), &mut rng);
    let out = model.infer_step(&batch.pos, None, None);
    // The NaN propagates into the write-back, which is exactly what
    // the training loop's non-finite guard catches.
    assert!(out.write.mem.has_non_finite());
}

/// Mismatched cluster/parallel worlds must be rejected up front.
#[test]
#[should_panic(expected = "cluster world")]
fn world_mismatch_is_rejected() {
    let d = generators::mooc(0.001, 202);
    let mc = tiny_model(0);
    let cfg = TrainConfig::new(ParallelConfig::new(1, 1, 2));
    let _ = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 4));
}

/// Batch sizes larger than the training split still work (single
/// giant batch per epoch).
#[test]
fn oversized_batch_degenerates_gracefully() {
    let d = generators::mooc(0.001, 203);
    let mc = tiny_model(0);
    let mut cfg = TrainConfig::new(ParallelConfig::single());
    cfg.local_batch = 1_000_000;
    cfg.epochs = 1;
    cfg.eval_negs = 5;
    cfg.eval_every_epoch = false;
    let res = disttgl::core::train_single(&d, &mc, &cfg);
    assert_eq!(res.loss_history.len(), 1);
    assert!(res.loss_history[0].is_finite());
}

/// Asserts a supervised run reproduced the fault-free oracle bit for
/// bit: losses, convergence curve, test metric, and final memory
/// checksums all equal.
fn assert_bit_identical(run: &disttgl::core::RunResult, oracle: &disttgl::core::RunResult) {
    assert!(!run.aborted);
    assert_eq!(run.loss_history, oracle.loss_history);
    assert_eq!(run.test_metric, oracle.test_metric);
    assert_eq!(run.memory_checksums, oracle.memory_checksums);
    assert_eq!(run.convergence.len(), oracle.convergence.len());
    for (r, o) in run.convergence.iter().zip(&oracle.convergence) {
        assert_eq!(r.iteration, o.iteration);
        assert_eq!(r.metric, o.metric);
    }
}

fn supervise_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("disttgl_supervised_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The supervisor handles a single lane crash with no operator in the
/// loop: no manual `--resume-from`, just the fault plan and a restart
/// budget — and the completed run is bit-identical to the oracle.
#[test]
fn supervised_single_crash_recovers_bit_identically() {
    let d = generators::mooc(0.0015, 220);
    let mc = tiny_model(0);
    let cfg = dist_cfg(4, 23);
    let oracle = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert!(!oracle.aborted);
    let sps = oracle.loss_history.len() / 2; // 2 sweeps
    assert!(sps >= 3);

    let dir = supervise_dir("single");
    let cfg_faulty = cfg
        .clone()
        .checkpoint_every(1, dir.to_str().unwrap())
        .with_faults(FaultPlan::new(vec![FaultKind::LaneCrash {
            rank: 1,
            step: sps + 2,
        }]));
    let run = train_supervised(
        &d,
        &mc,
        &cfg_faulty,
        ClusterSpec::new(1, 2),
        &RetryPolicy::default(),
    )
    .expect("supervisor completes within budget");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(run.incidents.len(), 1, "one crash, one incident");
    let inc = &run.incidents[0];
    assert_eq!(inc.cause, AbortCause::InjectedCrash);
    assert_eq!(inc.rank, Some(1));
    assert_eq!(inc.resumed_from_unit, Some(1), "rolled back to sweep 1");
    assert!(inc.steps_lost > 0 && inc.steps_lost <= sps + 2);
    assert_bit_identical(&run.result, &oracle);
}

/// A torn checkpoint write (crash mid-write at the final path) aborts
/// the run; the supervisor detects the bad digest, falls back to the
/// previous good checkpoint, and still finishes bit-identically.
#[test]
fn supervised_recovery_falls_back_past_torn_checkpoint() {
    let d = generators::mooc(0.0015, 221);
    let mc = tiny_model(0);
    let cfg = dist_cfg(6, 29); // 3 sweeps → checkpoint units 1 and 2
    let oracle = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert!(!oracle.aborted);

    let dir = supervise_dir("torn");
    let cfg_faulty = cfg
        .clone()
        .checkpoint_every(1, dir.to_str().unwrap())
        .with_faults(FaultPlan::new(vec![FaultKind::TornCheckpoint { at: 2 }]));
    let run = train_supervised(
        &d,
        &mc,
        &cfg_faulty,
        ClusterSpec::new(1, 2),
        &RetryPolicy::default(),
    )
    .expect("supervisor completes within budget");

    assert_eq!(run.incidents.len(), 1);
    assert_eq!(run.incidents[0].cause, AbortCause::TornCheckpoint);
    assert_eq!(
        run.incidents[0].resumed_from_unit,
        Some(1),
        "fell back past the torn unit-2 file to the good unit-1 one"
    );
    // The retried attempt replaced the torn file with a good one.
    assert!(
        disttgl::core::TrainCheckpoint::load(&dir.join("ckpt_0002.bin")).is_ok(),
        "unit-2 checkpoint rewritten cleanly on the resumed attempt"
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_bit_identical(&run.result, &oracle);
}

/// Two crashes on distinct ranks in one plan: the supervisor recovers
/// one incident at a time (earliest trigger first) and completes.
#[test]
fn supervised_two_crashes_on_distinct_ranks() {
    let d = generators::mooc(0.0015, 222);
    let mc = tiny_model(0);
    let cfg = dist_cfg(6, 31); // 3 sweeps
    let oracle = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert!(!oracle.aborted);
    let sps = oracle.loss_history.len() / 3;
    assert!(sps >= 3);

    let dir = supervise_dir("two");
    let cfg_faulty = cfg
        .clone()
        .checkpoint_every(1, dir.to_str().unwrap())
        .with_faults(FaultPlan::new(vec![
            FaultKind::LaneCrash {
                rank: 0,
                step: sps + 1,
            },
            FaultKind::LaneCrash {
                rank: 1,
                step: 2 * sps + 1,
            },
        ]));
    let run = train_supervised(
        &d,
        &mc,
        &cfg_faulty,
        ClusterSpec::new(1, 2),
        &RetryPolicy::default(),
    )
    .expect("supervisor completes within budget");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(run.incidents.len(), 2);
    assert_eq!(run.incidents[0].cause, AbortCause::InjectedCrash);
    assert_eq!(run.incidents[0].rank, Some(0));
    assert_eq!(run.incidents[1].cause, AbortCause::InjectedCrash);
    assert_eq!(run.incidents[1].rank, Some(1));
    assert!(
        run.incidents[1].resumed_from_unit >= run.incidents[0].resumed_from_unit,
        "recovery points advance with the run"
    );
    assert_bit_identical(&run.result, &oracle);
}

/// More crashes than the restart budget covers: the supervisor gives
/// up with the typed `RestartBudgetExhausted` — incident history and
/// the last partial result attached — never a panic.
#[test]
fn restart_budget_exhaustion_is_a_typed_error() {
    let d = generators::mooc(0.0015, 223);
    let mc = tiny_model(0);
    let cfg = dist_cfg(4, 37).with_faults(FaultPlan::new(vec![
        FaultKind::LaneCrash { rank: 0, step: 2 },
        FaultKind::LaneCrash { rank: 1, step: 4 },
        FaultKind::LaneCrash { rank: 0, step: 6 },
    ]));
    // No checkpoint store configured: every restart is a fresh start —
    // still legal, just maximally expensive.
    let err = train_supervised(
        &d,
        &mc,
        &cfg,
        ClusterSpec::new(1, 2),
        &RetryPolicy {
            max_restarts: 1,
            backoff: Duration::ZERO,
        },
    )
    .expect_err("three crashes cannot fit one restart");
    match err {
        SuperviseError::RestartBudgetExhausted { incidents, last } => {
            assert_eq!(incidents.len(), 1, "budget allowed exactly one recovery");
            assert_eq!(incidents[0].cause, AbortCause::InjectedCrash);
            assert_eq!(
                incidents[0].resumed_from_unit, None,
                "no store, fresh start"
            );
            assert!(last.aborted, "the final attempt's partial result is kept");
        }
        other => panic!("expected RestartBudgetExhausted, got: {other}"),
    }
}

/// Headline: a seeded multi-crash plan PLUS a torn-checkpoint fault,
/// all recovered unsupervised, and the completed run is bit-identical
/// to the fault-free oracle.
#[test]
fn supervised_seeded_multi_crash_with_torn_checkpoint_matches_oracle() {
    let d = generators::mooc(0.0015, 224);
    let mc = tiny_model(0);
    let cfg = dist_cfg(6, 41); // 3 sweeps
    let oracle = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 2));
    assert!(!oracle.aborted);
    let total_steps = oracle.loss_history.len();

    let mut plan = FaultPlan::seeded_crashes(0xD157, 2, total_steps, 2);
    plan.faults.push(FaultKind::TornCheckpoint { at: 1 });
    let n_faults = plan.faults.len();

    let dir = supervise_dir("headline");
    let cfg_faulty = cfg
        .clone()
        .checkpoint_every(1, dir.to_str().unwrap())
        .with_faults(plan);
    let run = train_supervised(
        &d,
        &mc,
        &cfg_faulty,
        ClusterSpec::new(1, 2),
        &RetryPolicy {
            max_restarts: 5,
            backoff: Duration::ZERO,
        },
    )
    .expect("supervisor completes within budget");
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        !run.incidents.is_empty() && run.incidents.len() <= n_faults,
        "each incident strips at least one fault: {} incidents for {} faults",
        run.incidents.len(),
        n_faults
    );
    assert!(run
        .incidents
        .iter()
        .any(|i| i.cause == AbortCause::TornCheckpoint));
    assert_bit_identical(&run.result, &oracle);
}

/// Empty local slices (more lanes than events per batch) keep the
/// daemon protocol alive instead of deadlocking.
#[test]
fn more_lanes_than_events_does_not_deadlock() {
    let d = generators::mooc(0.001, 204);
    let mc = tiny_model(0);
    let mut cfg = TrainConfig::new(ParallelConfig::new(4, 1, 1));
    cfg.local_batch = 1; // global batch of 4 over tiny event counts
    cfg.epochs = 4;
    cfg.eval_negs = 5;
    cfg.eval_every_epoch = false;
    cfg.seed = 17;
    let res = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 4));
    assert!(res.test_metric.is_finite());
}
