//! Criterion micro-benchmarks of the kernels on the training critical
//! path: matmul, GRU, temporal attention, sampling, memory daemon
//! round-trips, and the all-reduce.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disttgl_cluster::CommunicatorGroup;
use disttgl_core::{BatchPreparer, MemoryAccess, ModelConfig, TgnModel};
use disttgl_data::{generators, NegativeStore};
use disttgl_graph::{RecentNeighborSampler, TCsr};
use disttgl_mem::{MemoryDaemon, MemoryReadout, MemoryState, MemoryWrite, ReadRequest};
use disttgl_nn::{GruCell, ParamSet, TemporalAttention};
use disttgl_tensor::{seeded_rng, Matrix};

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor/matmul");
    for &n in &[64usize, 256] {
        let mut rng = seeded_rng(1);
        let a = Matrix::uniform(n, n, 1.0, &mut rng);
        let b = Matrix::uniform(n, n, 1.0, &mut rng);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

fn bench_gru(c: &mut Criterion) {
    let mut rng = seeded_rng(2);
    let mut ps = ParamSet::new();
    let cell = GruCell::new(&mut ps, "g", 252, 32, &mut rng);
    let x = Matrix::uniform(600, 252, 1.0, &mut rng);
    let h = Matrix::uniform(600, 32, 1.0, &mut rng);
    c.bench_function("nn/gru_forward_600x252", |b| {
        b.iter(|| std::hint::black_box(cell.infer(&ps, &x, &h)));
    });
    c.bench_function("nn/gru_fwd_bwd_600x252", |b| {
        b.iter(|| {
            let (y, cache) = cell.forward(&ps, &x, &h);
            let up = Matrix::full(y.rows(), y.cols(), 1.0);
            let mut ps2 = std::mem::take(&mut ps);
            cell.backward(&mut ps2, &cache, &up);
            ps = std::hint::black_box(ps2);
        });
    });
}

fn bench_attention(c: &mut Criterion) {
    let mut rng = seeded_rng(3);
    let mut ps = ParamSet::new();
    let att = TemporalAttention::new(&mut ps, "a", 48, 220, 32, 10, &mut rng);
    let b_roots = 600usize;
    let qf = Matrix::uniform(b_roots, 48, 1.0, &mut rng);
    let kvf = Matrix::uniform(b_roots * 10, 220, 1.0, &mut rng);
    let counts = vec![10usize; b_roots];
    c.bench_function("nn/attention_forward_600x10", |b| {
        b.iter(|| std::hint::black_box(att.infer(&ps, &qf, &kvf, &counts)));
    });
}

fn bench_sampler(c: &mut Criterion) {
    let d = generators::wikipedia(0.02, 4);
    let csr = TCsr::build(&d.graph);
    let sampler = RecentNeighborSampler::new(10);
    let roots: Vec<u32> = d.graph.events()[..600].iter().map(|e| e.src).collect();
    let times: Vec<f32> = vec![d.graph.max_time(); 600];
    c.bench_function("graph/sample_600_roots_k10", |b| {
        b.iter(|| std::hint::black_box(sampler.sample(&csr, &roots, &times)));
    });
}

fn bench_memory_daemon(c: &mut Criterion) {
    let nodes: Vec<u32> = (0..600u32).collect();
    c.bench_function("mem/daemon_read_write_600_rows", |b| {
        b.iter_custom(|iters| {
            let daemon =
                MemoryDaemon::spawn(MemoryState::new(2048, 32, 252), 1, 1, iters as usize, 1);
            let client = daemon.client(0);
            let start = std::time::Instant::now();
            for _ in 0..iters {
                let mut r = MemoryReadout::default();
                client
                    .read(ReadRequest::Full(nodes.clone()), &mut r)
                    .expect("daemon read");
                client
                    .write(MemoryWrite {
                        nodes: nodes.clone(),
                        mem: r.mem,
                        mem_ts: r.mem_ts,
                        mail: r.mail,
                        mail_ts: r.mail_ts,
                    })
                    .expect("daemon write");
            }
            let elapsed = start.elapsed();
            let _ = daemon.join();
            elapsed
        });
    });
}

fn bench_allreduce(c: &mut Criterion) {
    c.bench_function("cluster/allreduce_100k_x4", |b| {
        b.iter_custom(|iters| {
            let group = CommunicatorGroup::single_machine(4);
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let comm = group.communicator(r);
                    std::thread::spawn(move || {
                        let mut v = vec![r as f32; 100_000];
                        let start = std::time::Instant::now();
                        for _ in 0..iters {
                            comm.allreduce_mean(&mut v).expect("allreduce");
                        }
                        start.elapsed()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap()
        });
    });
}

fn bench_train_step(c: &mut Criterion) {
    let d = generators::wikipedia(0.02, 5);
    let csr = TCsr::build(&d.graph);
    let mc = ModelConfig::compact(d.edge_features.cols());
    let mut rng = seeded_rng(6);
    let mut model = TgnModel::new(mc.clone(), &mut rng);
    let prep = BatchPreparer::new(&d, &csr, &mc);
    let mut mem = MemoryState::new(d.graph.num_nodes(), mc.d_mem, mc.mail_dim());
    let store = NegativeStore::generate(&d.graph, 600, 1, 1, 7);
    let batch = prep.prepare(
        0..600.min(d.graph.num_events()),
        &[store.slice(0, 0..600.min(d.graph.num_events()))],
        1,
        &mut mem,
    );
    c.bench_function("core/train_step_bs600", |b| {
        b.iter(|| {
            model.params.zero_grads();
            std::hint::black_box(model.train_step(&batch.pos, Some(&batch.negs[0]), None))
        });
    });
    let _ = MemoryAccess::read(&mut mem, &[0]);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul, bench_gru, bench_attention, bench_sampler, bench_memory_daemon, bench_allreduce, bench_train_step
}
criterion_main!(benches);
