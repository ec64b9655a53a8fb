//! Cross-crate integration tests: dataset generation → graph indexing
//! → batch preparation → model training → evaluation, through both the
//! synchronous store and the memory-daemon path.

use disttgl::cluster::ClusterSpec;
use disttgl::core::{
    evaluate, train_distributed, train_single, BatchPreparer, MemoryAccess, ModelConfig,
    ParallelConfig, TgnModel, TrainConfig,
};
use disttgl::data::{generators, NegativeStore};
use disttgl::graph::TCsr;
use disttgl::mem::{
    MemoryClient, MemoryDaemon, MemoryReadout, MemoryState, MemoryWrite, ReadRequest,
};
use disttgl::tensor::seeded_rng;

/// The daemon client as plain memory access: full reads in the rank's
/// read turn. A daemon failure fails the test.
struct ClientAccess<'a>(&'a mut MemoryClient);

impl MemoryAccess for ClientAccess<'_> {
    fn read_into(&mut self, nodes: &[u32], out: &mut MemoryReadout) {
        self.0
            .read(ReadRequest::Full(nodes.to_vec()), out)
            .expect("memory daemon read");
    }
    fn write(&mut self, w: MemoryWrite) {
        self.0.write(w).expect("memory daemon write");
    }
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

/// The daemon-backed memory path must produce bit-identical training
/// to the direct synchronous path for the 1×1×1 schedule.
#[test]
fn daemon_path_matches_direct_path() {
    let d = generators::wikipedia(0.004, 101);
    let csr = TCsr::build(&d.graph);
    let mc = tiny_model(d.edge_features.cols());
    let store = NegativeStore::generate(&d.graph, 256, 1, 1, 5);
    let steps = 4usize;
    let bs = 64usize;

    // Direct path.
    let mut rng = seeded_rng(9);
    let mut model_a = TgnModel::new(mc.clone(), &mut rng);
    let mut adam_a = model_a.optimizer(1e-3);
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());
    let prep = BatchPreparer::new(&d, &csr, &mc);
    let mut losses_a = Vec::new();
    for s in 0..steps {
        let range = s * bs..(s + 1) * bs;
        let negs = store.slice(0, range.clone());
        let batch = prep.prepare(range, &[negs], 1, &mut mem);
        model_a.params.zero_grads();
        let out = model_a.train_step(&batch.pos, Some(&batch.negs[0]), None);
        adam_a.step(&mut model_a.params);
        MemoryAccess::write(&mut mem, out.write);
        losses_a.push(out.loss);
    }

    // Daemon path (i = j = 1).
    let mut rng = seeded_rng(9);
    let mut model_b = TgnModel::new(mc.clone(), &mut rng);
    let mut adam_b = model_b.optimizer(1e-3);
    let daemon = MemoryDaemon::spawn(
        MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim()),
        1,
        1,
        steps,
        1,
    );
    let mut client = daemon.client(0);
    let mut access = ClientAccess(&mut client);
    let mut losses_b = Vec::new();
    for s in 0..steps {
        let range = s * bs..(s + 1) * bs;
        let negs = store.slice(0, range.clone());
        let batch = prep.prepare(range, &[negs], 1, &mut access);
        model_b.params.zero_grads();
        let out = model_b.train_step(&batch.pos, Some(&batch.negs[0]), None);
        adam_b.step(&mut model_b.params);
        access.write(out.write);
        losses_b.push(out.loss);
    }
    let (final_state, stats) = daemon.join();
    assert_eq!(losses_a, losses_b);
    assert_eq!(stats.reads_served as usize, steps);
    // Final memory states identical.
    let all: Vec<u32> = (0..d.graph.num_nodes() as u32).collect();
    assert_eq!(final_state.read(&all).mem, mem.read(&all).mem);
}

/// train_distributed(1×1×1) must match train_single exactly: same
/// losses, same test metric (they share semantics end to end).
#[test]
fn distributed_1x1x1_equals_single() {
    let d = generators::mooc(0.002, 102);
    let mc = tiny_model(0);
    let mut cfg = TrainConfig::new(ParallelConfig::single());
    cfg.local_batch = 64;
    cfg.epochs = 2;
    cfg.eval_negs = 9;
    cfg.seed = 11;
    cfg.base_lr = 6e-3;

    let single = train_single(&d, &mc, &cfg);
    let dist = train_distributed(&d, &mc, &cfg, ClusterSpec::new(1, 1));
    assert_eq!(single.loss_history, dist.loss_history);
    assert_eq!(single.test_metric, dist.test_metric);
    let conv_s: Vec<f64> = single.convergence.iter().map(|p| p.metric).collect();
    let conv_d: Vec<f64> = dist.convergence.iter().map(|p| p.metric).collect();
    assert_eq!(conv_s, conv_d);
}

/// All three strategies and the combined configuration finish and
/// produce sane metrics on every dataset family.
#[test]
fn all_strategies_on_all_dataset_families() {
    let configs = [
        ParallelConfig::new(2, 1, 1),
        ParallelConfig::new(1, 2, 1),
        ParallelConfig::new(1, 1, 2),
    ];
    let datasets = [
        generators::wikipedia(0.003, 103),
        generators::mooc(0.001, 104),
        generators::flights(0.0005, 105),
    ];
    for d in &datasets {
        for parallel in configs {
            let mc = tiny_model(d.edge_features.cols());
            let mut cfg = TrainConfig::new(parallel);
            cfg.local_batch = 48;
            cfg.epochs = parallel.world() * 2;
            cfg.eval_negs = 9;
            cfg.eval_every_epoch = false;
            cfg.seed = 13;
            cfg.base_lr = 1e-2;
            let res = train_distributed(d, &mc, &cfg, ClusterSpec::new(1, parallel.world()));
            assert!(
                res.test_metric.is_finite() && res.test_metric > 0.0,
                "{} {:?}: bad metric {}",
                d.name,
                parallel,
                res.test_metric
            );
            assert!(res.loss_history.iter().all(|l| l.is_finite()));
        }
    }
}

/// Evaluation sanity across the facade: training on wikipedia-like
/// data transfers to strictly-later events.
#[test]
fn trained_model_generalizes_to_future_events() {
    let d = generators::wikipedia(0.01, 106);
    let csr = TCsr::build(&d.graph);
    let mc = tiny_model(d.edge_features.cols());
    let mut cfg = TrainConfig::new(ParallelConfig::single());
    cfg.local_batch = 100;
    cfg.epochs = 6;
    cfg.eval_negs = 19;
    cfg.base_lr = 1.2e-2;
    cfg.seed = 21;
    let res = train_single(&d, &mc, &cfg);

    // An untrained model on the same split.
    let mut rng = seeded_rng(999);
    let fresh = TgnModel::new(mc.clone(), &mut rng);
    let (train_end, val_end) = d.graph.chronological_split(0.70, 0.15);
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());
    disttgl::core::replay_memory(&fresh, &mc, &d, &csr, &mut mem, None, 0..val_end, 100);
    let untrained = evaluate(
        &fresh,
        &mc,
        &d,
        &csr,
        &mut mem,
        None,
        val_end..d.graph.num_events(),
        100,
        19,
        3,
    );
    assert!(
        res.test_metric > untrained.metric + 0.1,
        "trained {} vs untrained {}",
        res.test_metric,
        untrained.metric
    );
    let _ = train_end;
}

/// The planner's configuration trains successfully end to end.
#[test]
fn planner_to_training_pipeline() {
    let d = generators::wikipedia(0.004, 107);
    let spec = ClusterSpec::new(1, 4);
    let (parallel, max_batch) = disttgl::core::plan_from_graph(&d.graph, spec, 0.5, 64, 4);
    assert_eq!(parallel.world(), 4);
    assert!(max_batch >= 64);
    let mc = tiny_model(d.edge_features.cols());
    let mut cfg = TrainConfig::new(parallel);
    cfg.local_batch = 48;
    cfg.epochs = 4;
    cfg.eval_negs = 9;
    cfg.eval_every_epoch = false;
    cfg.base_lr = 1e-2;
    let res = train_distributed(&d, &mc, &cfg, spec);
    assert!(res.test_metric > 0.0);
}
