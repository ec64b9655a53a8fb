//! Quick diagnostic: preparation share of a `train_single` step across
//! dataset/model combinations — the most that overlapping batch
//! preparation with compute (as `train_distributed`'s
//! `pipeline_prefetch` does) could gain is `1 / (1 - prep_share)`.
//!
//! ```sh
//! cargo run --release --example prep_share
//! ```

use disttgl::core::{train_single, ModelConfig, ParallelConfig, TrainConfig};
use disttgl::data::generators;

fn main() {
    let mut cfg = TrainConfig::new(ParallelConfig::single());
    cfg.local_batch = 600;
    cfg.epochs = 2;
    cfg.eval_every_epoch = false;
    cfg.seed = 7;

    for (name, scale) in [("wikipedia", 0.05), ("mooc", 0.02)] {
        let d = generators::by_name(name, scale, 0xD157);
        for (label, d_mem, d_time, d_emb, k) in [
            ("compact", 32, 16, 32, 10),
            ("small", 16, 8, 16, 10),
            ("tiny", 8, 4, 8, 10),
        ] {
            let mut mc = ModelConfig::compact(d.edge_features.cols());
            mc.d_mem = d_mem;
            mc.d_time = d_time;
            mc.d_emb = d_emb;
            mc.n_neighbors = k;
            mc.static_memory = false;
            let r = train_single(&d, &mc, &cfg);
            let prep = r.timing.prep_secs;
            let compute = r.timing.compute_secs;
            let share = prep / (prep + compute);
            println!(
                "{name:<10} {label:<8} prep {prep:6.2}s compute {compute:6.2}s  share {:5.1}%  ceiling {:.2}x  ({:.0} ev/s)",
                share * 100.0,
                1.0 / (1.0 - share),
                r.throughput_events_per_sec,
            );
        }
    }
}
