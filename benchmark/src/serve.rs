//! The two serving workloads over `ConcurrentServe`: `serve_read`
//! (open-loop queries, a trickle of writes) and `serve_catchup` (the
//! same plane started empty and written flat out), plus their traced
//! runs.

use crate::digest::Fnv;
use crate::metrics::Outcome;
use crate::openloop::{
    even_schedule, poisson_schedule, run_open_loop, Clock, Rng, Sample, WallClock,
};
use crate::report::{num, quartiles_value, text};
use crate::stats::{self, WindowStat};
use crate::surface::{self, Answer, Dataset, Job, Plane, PlaneStats, Reader, Session};
use crate::trace::{self, Tracer};
use crate::{layers, proc, RunArgs};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Latency limit a query job must meet, from its scheduled instant.
pub const LATENCY_LIMIT_S: f64 = 5e-3;
/// Link-score requests per query job.
const JOB_WIDTH: usize = 8;
/// Events per ingest slab under load.
const SLAB: usize = 100;
/// Distinct pre-generated query jobs (cycled through).
const JOB_POOL: usize = 4096;
/// Samples a latency window needs so that ten lie beyond its p99.
const WINDOW_SAMPLES: usize = 1000;
/// Every n-th answer is kept and replayed against the serialized oracle.
const VERIFY_EVERY: usize = 40;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 3;
/// `serve_read`: offered query jobs/s and ingest events/s. Query jobs
/// are evenly spaced (seeded phase), slabs arrive as a Poisson process.
/// Poisson *query* arrivals were tried first: at ρ ≈ 0.2 on the single
/// reader the p99 was then mostly a job queueing behind its predecessor,
/// which amplified the host's speed regimes into a 20–24 % run-to-run
/// spread of the tail, against 5 % evenly spaced (ten interleaved runs
/// each). Latency still counts from the scheduled instant.
const READ_QUERY_RATE: f64 = 500.0;
const READ_INGEST_EVENTS_PER_S: f64 = 4000.0;
/// `serve_read`: share of the history ingested during set-up.
const READ_WARM_SHARE: f64 = 0.30;
/// `serve_catchup`: offered query jobs/s while history is replayed.
const CATCHUP_QUERY_RATE: f64 = 500.0;
/// `serve_catchup`: events/s a replay sustains on the development host;
/// sets the query : slab mix of the traced loop.
const CATCHUP_REPLAY_EVENTS_PER_S: f64 = 250_000.0;

/// Dataset + model a plane borrows from.
struct World {
    d: Dataset,
    model: surface::Model,
}

impl World {
    fn new(args: &RunArgs) -> Self {
        let scale = if args.quick { 0.1 } else { 1.0 };
        let d = surface::generate(scale, args.seed);
        let model = surface::new_model(&d, &[10], args.seed);
        Self { d, model }
    }

    fn warm_end(&self, share: f64) -> usize {
        (surface::num_events(&self.d) as f64 * share) as usize
    }
}

/// Seeded query jobs over nodes of the first `seen` events.
fn make_jobs(w: &World, rng: &mut Rng, seen: usize, width: usize, n: usize) -> Vec<Job> {
    let t = surface::query_time(&w.d);
    (0..n)
        .map(|_| {
            let pairs: Vec<(u32, u32)> = (0..width)
                .map(|_| {
                    (
                        surface::endpoints(&w.d, rng.below(seen)).0,
                        surface::endpoints(&w.d, rng.below(seen)).1,
                    )
                })
                .collect();
            surface::link_job(&pairs, t)
        })
        .collect()
}

fn input_digest(w: &World, jobs: &[Job], schedules: &[&[f64]]) -> String {
    let mut h: Fnv = surface::dataset_digest(&w.d);
    for j in jobs {
        j.digest(&mut h);
    }
    for s in schedules {
        h.f64s(s);
    }
    h.hex()
}

/// Answers job `i` of the cycled pool; every `VERIFY_EVERY`-th answer is
/// kept for the serialized replay. False when the query failed.
fn ask(
    plane: &Plane<'_>,
    jobs: &[Job],
    i: usize,
    reader: &mut Reader,
    kept: &mut Vec<(usize, Answer)>,
) -> bool {
    let job = i % jobs.len();
    match plane.query(&jobs[job], reader) {
        Some(ans) => {
            if i.is_multiple_of(VERIFY_EVERY) {
                kept.push((job, ans));
            }
            true
        }
        None => false,
    }
}

#[derive(Clone, Copy)]
enum Arrival {
    Query(usize),
    Slab(usize),
}

/// What one open-loop (+ closed-loop capacity) phase on a plane saw.
#[derive(Default)]
struct ReadPhase {
    queries: Vec<Sample>,
    slab_sends: Vec<Sample>,
    /// Slab scheduled-enqueue → drained, seconds.
    visible: Vec<f64>,
    /// `(job index, answer)` of every `VERIFY_EVERY`-th query.
    kept: Vec<(usize, Answer)>,
    /// Slabs admitted, in admission order.
    admitted: Vec<Range<usize>>,
    capacity_jobs: u64,
    capacity_secs: f64,
    capacity_failed: u64,
    drain_secs: f64,
    drained: u64,
}

/// Runs the `serve_read` traffic on `plane`: one writer thread looping
/// `drain`, and this thread as generator + reader — open loop for
/// `open_secs` (evenly spaced query jobs at `query_rate`, Poisson slabs
/// at `slab_rate`), then closed-loop queries for `cap_secs` with the slab
/// schedule still running. `slabs` are consumed from the front.
#[allow(clippy::too_many_arguments)]
fn read_phase(
    plane: &Plane<'_>,
    jobs: &[Job],
    slabs: &[Range<usize>],
    rng: &mut Rng,
    query_rate: f64,
    slab_rate: f64,
    open_secs: f64,
    cap_secs: f64,
) -> ReadPhase {
    let q_sched = even_schedule(rng, query_rate, open_secs);
    let mut s_sched = poisson_schedule(rng, slab_rate, open_secs + cap_secs);
    s_sched.truncate(slabs.len());
    let open_slabs = s_sched.partition_point(|&t| t < open_secs);
    let mut arrivals: Vec<(f64, Arrival)> = (q_sched.iter().enumerate())
        .map(|(i, &t)| (t, Arrival::Query(i)))
        .chain((s_sched[..open_slabs].iter().enumerate()).map(|(k, &t)| (t, Arrival::Slab(k))))
        .collect();
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite due times"));

    let clock = WallClock::start();
    // Due instants of admitted slabs, oldest first. The generator holds
    // the lock across enqueue + push, so the writer — which pops only
    // after a drain — always finds an entry for every slab it drained.
    let pending: Mutex<VecDeque<f64>> = Mutex::new(VecDeque::new());
    let stop = AtomicBool::new(false);
    let mut out = ReadPhase::default();
    let mut reader = Reader::new();

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let (mut visible, mut drain_secs, mut drained) = (Vec::new(), 0.0, 0u64);
            loop {
                // Read the flag first: once it is seen set, every
                // enqueue has happened and this drain takes the rest.
                let stopping = stop.load(Ordering::Acquire);
                let t = clock.now();
                let n = plane.drain();
                if n > 0 {
                    let now = clock.now();
                    drain_secs += now - t;
                    drained += n as u64;
                    let mut p = pending.lock().expect("pending lock");
                    for _ in 0..n {
                        let due = p.pop_front().expect("a drained slab was admitted");
                        visible.push(now - due);
                    }
                } else if stopping {
                    return (visible, drain_secs, drained);
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        });

        let mut send_slab = |k: usize| {
            let mut p = pending.lock().expect("pending lock");
            let ok = plane.enqueue(slabs[k].clone());
            if ok {
                p.push_back(s_sched[k]);
                out.admitted.push(slabs[k].clone());
            }
            ok
        };
        let kept = &mut out.kept;
        let samples = run_open_loop(
            &clock,
            &arrivals,
            |a| match a {
                Arrival::Query(i) => ask(plane, jobs, i, &mut reader, kept),
                Arrival::Slab(k) => send_slab(k),
            },
            || false,
        );
        for (s, (_, a)) in samples.into_iter().zip(&arrivals) {
            match a {
                Arrival::Query(_) => out.queries.push(s),
                Arrival::Slab(_) => out.slab_sends.push(s),
            }
        }

        // Closed loop: the next query goes out as soon as the last one
        // came back; slabs keep arriving on their schedule.
        let cap_t0 = clock.now();
        let mut next_slab = open_slabs;
        let mut i = q_sched.len();
        while clock.now() - cap_t0 < cap_secs {
            while next_slab < s_sched.len() && s_sched[next_slab] <= clock.now() {
                let started = clock.now();
                let ok = send_slab(next_slab);
                out.slab_sends.push(Sample {
                    due: s_sched[next_slab],
                    started,
                    done: clock.now(),
                    ok,
                });
                next_slab += 1;
            }
            out.capacity_failed += !ask(plane, jobs, i, &mut reader, kept) as u64;
            out.capacity_jobs += 1;
            i += 1;
        }
        out.capacity_secs = clock.now() - cap_t0;

        stop.store(true, Ordering::Release);
        let (visible, drain_secs, drained) = writer.join().expect("writer thread");
        out.visible = visible;
        out.drain_secs = drain_secs;
        out.drained = drained;
    });
    out
}

/// Per-window latency summaries of open-loop query samples, windows by
/// scheduled time.
fn windows_by_time(samples: &[Sample], window_s: f64, n_windows: usize) -> Vec<WindowStat> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n_windows.max(1)];
    for s in samples {
        let w = ((s.due / window_s) as usize).min(buckets.len() - 1);
        buckets[w].push(s.latency());
    }
    buckets.iter().map(|b| stats::window_stat(b)).collect()
}

/// Share of query jobs answered within the latency limit, timed from
/// their scheduled instant. A failed job counts as a miss.
fn goal_share(queries: &[Sample]) -> f64 {
    let met = queries
        .iter()
        .filter(|s| s.ok && s.latency() <= LATENCY_LIMIT_S)
        .count();
    met as f64 / queries.len().max(1) as f64
}

/// Replays the admitted slabs through a serialized session and checks
/// every kept answer at its watermark, then the final memory digest.
fn verify(
    o: &mut Outcome,
    w: &World,
    warm_end: usize,
    admitted: &[Range<usize>],
    kept: &[(usize, Answer)],
    jobs: &[Job],
    final_checksums: &[u64],
) {
    let mut oracle = Session::warmed(&w.model, &w.d, warm_end);
    let mut by_mark: Vec<&(usize, Answer)> = kept.iter().collect();
    by_mark.sort_by_key(|(_, a)| a.watermark);
    let mut next = by_mark.into_iter().peekable();
    let mut mismatched = 0usize;
    for mark in 0..=admitted.len() {
        while let Some((job, ans)) = next.next_if(|(_, a)| a.watermark == mark as u64) {
            mismatched += !ans.matches(&mut oracle, &jobs[*job]) as usize;
        }
        if let Some(r) = admitted.get(mark) {
            let applied = oracle.ingest(r.clone());
            o.check(applied, || format!("oracle rejected admitted slab {mark}"));
        }
    }
    let beyond = next.count();
    o.check(beyond == 0, || {
        format!("{beyond} answers carry a watermark beyond the admitted slabs")
    });
    o.check(mismatched == 0, || {
        format!(
            "{mismatched} of {} verified answers differ from the serialized replay",
            kept.len()
        )
    });
    let want = oracle.memory_checksum();
    o.check(final_checksums.iter().all(|&c| c == want), || {
        "final memory checksum differs from the serialized replay".to_string()
    });
    o.failed += mismatched as u64;
    o.note("answers_verified", num(kept.len() as f64));
}

fn note_windows(o: &mut Outcome, windows: &[WindowStat]) {
    o.note("latency_windows", num(windows.len() as f64));
    o.note(
        "samples_per_window",
        num(stats::median(
            &windows.iter().map(|w| w.count as f64).collect::<Vec<_>>(),
        )),
    );
    o.note(
        "window_p99_ms",
        serde::Value::Array(windows.iter().map(|w| num(w.p99 * 1e3)).collect()),
    );
    o.note(
        "window_p99_ms_quartiles",
        quartiles_value(&windows.iter().map(|w| w.p99 * 1e3).collect::<Vec<_>>()),
    );
}

fn ms(x: f64) -> f64 {
    x * 1e3
}

/// How the open phase of `seconds` splits into latency windows and the
/// closed-loop capacity phase: `(window seconds, windows, capacity s)`.
fn read_timeline(seconds: f64) -> (f64, usize, f64) {
    let window = WINDOW_SAMPLES as f64 / READ_QUERY_RATE;
    let open = seconds * 0.8;
    if open < window {
        return (open, 1, seconds - open);
    }
    let n = (open / window) as usize;
    (window, n, seconds - n as f64 * window)
}

/// `serve_read`, untraced.
pub fn run_read(args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let w = World::new(args);
        let plane = Session::warmed(&w.model, &w.d, w.warm_end(READ_WARM_SHARE)).into_plane();
        setups.push(t.elapsed().as_secs_f64());
        drop(plane);
    }
    let t = Instant::now();
    let w = World::new(args);
    let warm_end = w.warm_end(READ_WARM_SHARE);
    let plane = Session::warmed(&w.model, &w.d, warm_end).into_plane();
    setups.push(t.elapsed().as_secs_f64());

    let mut rng = Rng::new(args.seed);
    let jobs = make_jobs(&w, &mut rng, warm_end, JOB_WIDTH, JOB_POOL);
    let slabs = surface::slabs(warm_end..surface::num_events(&w.d), SLAB);
    let (window_s, n_windows, cap_secs) = read_timeline(args.seconds);
    let open_secs = window_s * n_windows as f64;
    let phase = read_phase(
        &plane,
        &jobs,
        &slabs,
        &mut rng,
        READ_QUERY_RATE,
        READ_INGEST_EVENTS_PER_S / SLAB as f64,
        open_secs,
        cap_secs,
    );
    let peak_rss = proc::peak_rss_mb();
    let st = plane.stats();

    let dues: Vec<f64> = phase.queries.iter().map(|s| s.due).collect();
    o.note("input_digest", text(&input_digest(&w, &jobs, &[&dues])));
    let windows = windows_by_time(&phase.queries, window_s, n_windows);
    let slab_ok = phase.slab_sends.iter().filter(|s| s.ok).count();
    o.set("setup_s", stats::median(&setups));
    o.set(
        "work_per_s",
        phase.capacity_jobs as f64 / phase.capacity_secs,
    );
    o.set(
        "op_p50_ms",
        ms(stats::median_of_windows(&windows, |w| w.p50)),
    );
    o.set(
        "op_tail_ms",
        ms(stats::median_of_windows(&windows, |w| w.p99)),
    );
    o.set("quality", goal_share(&phase.queries));
    o.set("peak_rss_mb", peak_rss);

    let query_failed =
        phase.queries.iter().filter(|s| !s.ok).count() as u64 + phase.capacity_failed;
    o.attempted = phase.queries.len() as u64 + phase.capacity_jobs + phase.slab_sends.len() as u64;
    o.failed = query_failed + (phase.slab_sends.len() - slab_ok) as u64;
    let admitted_events: usize = phase.admitted.iter().map(|r| r.len()).sum();
    o.check(st.events_applied as usize == admitted_events, || {
        format!(
            "admitted {admitted_events} events but applied {}",
            st.events_applied
        )
    });
    o.check(st.events_rejected == 0, || {
        format!("{} events rejected", st.events_rejected)
    });
    verify(
        &mut o,
        &w,
        warm_end,
        &phase.admitted,
        &phase.kept,
        &jobs,
        &[plane.memory_checksum()],
    );

    note_windows(&mut o, &windows);
    let vis = stats::window_stat(&phase.visible);
    o.note("ingest_visible_p50_ms", num(ms(vis.p50)));
    o.note("ingest_visible_p90_ms", num(ms(vis.p90)));
    o.note(
        "ingest_events_per_s",
        num(admitted_events as f64 / (open_secs + phase.capacity_secs)),
    );
    let lag = stats::window_stat(&phase.queries.iter().map(Sample::lag).collect::<Vec<_>>());
    o.note("gen_lag_p99_ms", num(ms(lag.p99)));
    o.note("query_jobs_open_loop", num(phase.queries.len() as f64));
    o.note("query_jobs_closed_loop", num(phase.capacity_jobs as f64));
    o.note("slabs_sent", num(phase.slab_sends.len() as f64));
    o
}

/// One catch-up pass: history replayed into an empty plane by this
/// thread while a second thread queries open loop.
struct Pass {
    wall: f64,
    events: usize,
    slab_secs: Vec<f64>,
    slabs_ok: usize,
    queries: Vec<Sample>,
    kept: Vec<(usize, Answer)>,
    checksum: u64,
    stats: PlaneStats,
}

fn catchup_pass(w: &World, jobs: &[Job], slabs: &[Range<usize>], rng: &mut Rng) -> Pass {
    let plane = Plane::empty(&w.model, &w.d);
    // Longer than any pass; the reader stops when the replay is done.
    let arrivals: Vec<(f64, usize)> = even_schedule(rng, CATCHUP_QUERY_RATE, 30.0)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, i))
        .collect();
    let job0 = rng.below(jobs.len());
    let done = AtomicBool::new(false);
    let clock = WallClock::start();
    let mut slab_secs = Vec::with_capacity(slabs.len());
    let mut slabs_ok = 0usize;
    let (wall, queries, kept) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reader = Reader::new();
            let mut kept = Vec::new();
            let samples = run_open_loop(
                &clock,
                &arrivals,
                |i| ask(&plane, jobs, job0 + i, &mut reader, &mut kept),
                || done.load(Ordering::Acquire),
            );
            (samples, kept)
        });
        let t0 = clock.now();
        for r in slabs {
            let t = clock.now();
            slabs_ok += plane.ingest(r.clone()) as usize;
            slab_secs.push(clock.now() - t);
        }
        let wall = clock.now() - t0;
        done.store(true, Ordering::Release);
        let (samples, kept) = reader.join().expect("reader thread");
        (wall, samples, kept)
    });
    // A query still waiting for its instant when the replay ended was
    // never part of the pass.
    let queries = queries.into_iter().filter(|s| s.due <= wall).collect();
    Pass {
        wall,
        events: slabs.iter().map(|r| r.len()).sum(),
        slab_secs,
        slabs_ok,
        queries,
        kept,
        checksum: plane.memory_checksum(),
        stats: plane.stats(),
    }
}

/// Counters of all passes' planes together.
fn total_stats(passes: &[Pass]) -> PlaneStats {
    let mut total = PlaneStats::default();
    for p in passes {
        total.add(&p.stats);
    }
    total
}

/// `serve_catchup`, untraced.
pub fn run_catchup(args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let w = World::new(args);
        let plane = Plane::empty(&w.model, &w.d);
        setups.push(t.elapsed().as_secs_f64());
        drop(plane);
    }
    let t = Instant::now();
    let w = World::new(args);
    drop(Plane::empty(&w.model, &w.d));
    setups.push(t.elapsed().as_secs_f64());

    let mut rng = Rng::new(args.seed);
    let n_events = surface::num_events(&w.d);
    // Nodes of the first 5 % of the log: seen early in every pass.
    let jobs = make_jobs(&w, &mut rng, (n_events / 20).max(1), JOB_WIDTH, JOB_POOL);
    let slabs = surface::slabs(0..n_events, SLAB);
    o.note("input_digest", text(&input_digest(&w, &jobs, &[])));

    let budget = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || budget.elapsed().as_secs_f64() < args.seconds {
        passes.push(catchup_pass(&w, &jobs, &slabs, &mut rng));
    }
    let peak_rss = proc::peak_rss_mb();

    let rates: Vec<f64> = passes.iter().map(|p| p.events as f64 / p.wall).collect();
    let queries: Vec<Sample> = passes
        .iter()
        .flat_map(|p| p.queries.iter().copied())
        .collect();
    let latencies: Vec<f64> = queries.iter().map(Sample::latency).collect();
    let windows = stats::windows_by_count(&latencies, WINDOW_SAMPLES);
    let slabs_sent = passes.len() * slabs.len();
    let slabs_ok: usize = passes.iter().map(|p| p.slabs_ok).sum();
    o.set("setup_s", stats::median(&setups));
    o.set("work_per_s", stats::median(&rates));
    o.set(
        "op_p50_ms",
        ms(stats::median_of_windows(&windows, |w| w.p50)),
    );
    // The tail here is the p90, not the p99: under the near-continuous
    // write lock the p99 rests on a handful of collisions and host stalls
    // per window and spread 13–44 % between runs of ten (p90: 4 %, p50:
    // 2 %), wider than any bound could cover. The p99 is in the detail.
    o.set(
        "op_tail_ms",
        ms(stats::median_of_windows(&windows, |w| w.p90)),
    );
    o.note(
        "query_p99_ms",
        num(ms(stats::median_of_windows(&windows, |w| w.p99))),
    );
    o.set("quality", goal_share(&queries));
    o.set("peak_rss_mb", peak_rss);

    o.attempted = (queries.len() + slabs_sent) as u64;
    o.failed = (queries.iter().filter(|s| !s.ok).count() + slabs_sent - slabs_ok) as u64;
    for (i, p) in passes.iter().enumerate() {
        o.check(p.stats.events_applied as usize == p.events, || {
            format!(
                "pass {i}: replayed {} events but applied {}",
                p.events, p.stats.events_applied
            )
        });
    }
    let kept: Vec<(usize, Answer)> = passes.iter_mut().flat_map(|p| p.kept.drain(..)).collect();
    let checksums: Vec<u64> = passes.iter().map(|p| p.checksum).collect();
    verify(&mut o, &w, 0, &slabs, &kept, &jobs, &checksums);

    note_windows(&mut o, &windows);
    o.note("passes", num(passes.len() as f64));
    o.note("ingest_events_per_s_quartiles", quartiles_value(&rates));
    let slab = stats::window_stat(
        &passes
            .iter()
            .flat_map(|p| p.slab_secs.iter().copied())
            .collect::<Vec<_>>(),
    );
    o.note("ingest_visible_p50_ms", num(ms(slab.p50)));
    o.note("ingest_visible_p90_ms", num(ms(slab.p90)));
    let st = total_stats(&passes);
    o.note("drift_clean", num(st.clean as f64));
    o.note("drift_repaired", num(st.repaired as f64));
    o.note("drift_resampled", num(st.resampled as f64));
    let lag = stats::window_stat(&queries.iter().map(Sample::lag).collect::<Vec<_>>());
    o.note("gen_lag_p99_ms", num(ms(lag.p99)));
    o.note("query_jobs", num(queries.len() as f64));
    o
}

// ---------------------------------------------------------------------
// Traced runs.

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Quiescent `ServeSession` service times: one caller, nothing else
/// running.
fn quiescent_service_times(
    o: &mut Outcome,
    w: &World,
    rng: &mut Rng,
    warm_end: usize,
    reps: usize,
) {
    let mut session = Session::warmed(&w.model, &w.d, warm_end);
    for (width, name) in [
        (1, "core.serve.query_mb1_us"),
        (8, "core.serve.query_mb8_us"),
        (64, "core.serve.query_mb64_us"),
    ] {
        let jobs = make_jobs(w, rng, warm_end, width, reps);
        let mut next = jobs.iter().cycle();
        let mut ok = true;
        // One untimed pass lets the session's scratch grow to this width.
        ok &= session.query(&jobs[0]);
        let secs = median_secs(reps, || ok &= session.query(next.next().expect("cycle")));
        o.check(ok, || format!("quiescent query of width {width} failed"));
        o.set(name, secs * 1e6);
    }
    let n = surface::num_events(&w.d);
    let mut at = warm_end;
    for (size, name) in [
        (100, "core.serve.ingest_slab100_events_per_s"),
        (600, "core.serve.ingest_slab600_events_per_s"),
    ] {
        let end = (at + size * reps.max(4)).min(n);
        let t = Instant::now();
        let mut ok = true;
        for r in surface::slabs(at..end, size) {
            ok &= session.ingest(r);
        }
        o.check(ok, || {
            format!("quiescent ingest in {size}-event slabs failed")
        });
        o.set(name, (end - at) as f64 / t.elapsed().as_secs_f64());
        at = end;
    }
}

/// Traced run of either serving workload: quiescent service times, the
/// benchmark-owned query / ingest loop in the workload's own mix with a
/// span at every layer boundary, a short stretch of the real concurrent
/// traffic for the plane's own counters, and micro measurements.
pub fn run_traced(catchup: bool, args: &RunArgs) -> Outcome {
    let name = if catchup {
        "serve_catchup"
    } else {
        "serve_read"
    };
    let mut o = Outcome::default();
    let mut tracer = Tracer::new();
    let p0 = proc::snapshot();
    let s = tracer.enter("data.generate", 0);
    let w = World::new(args);
    tracer.exit(s);
    let n_events = surface::num_events(&w.d);
    o.set("data.events", n_events as f64);
    o.set("data.nodes", surface::num_nodes(&w.d) as f64);
    let mut rng = Rng::new(args.seed);
    let reps = if args.quick { 20 } else { 200 };
    let read_warm = w.warm_end(READ_WARM_SHARE);
    quiescent_service_times(&mut o, &w, &mut rng, read_warm, reps);

    // The benchmark-owned loop, in the workload's own mix of queries
    // per slab: 500 jobs/s against 40 slabs/s when reading, the offered
    // 500 jobs/s against the ≈ 2 500 slabs/s a replay sustains when catching up.
    let warm_end = if catchup { 0 } else { read_warm };
    let (loop_slabs, queries_per_slab) = if catchup {
        (
            if args.quick { 150 } else { 1500 },
            CATCHUP_QUERY_RATE * SLAB as f64 / CATCHUP_REPLAY_EVENTS_PER_S,
        )
    } else {
        (
            if args.quick { 20 } else { 200 },
            READ_QUERY_RATE * SLAB as f64 / READ_INGEST_EVENTS_PER_S,
        )
    };
    let session = Session::warmed(&w.model, &w.d, warm_end);
    let mut parts = surface::ServeParts::from_session(&w.d, &w.model, &session);
    drop(session);
    let k0 = surface::kernel_snapshot();
    let t_loop = Instant::now();
    let (mut req, mut owed) = (0u64, 0.0f64);
    for r in surface::slabs(warm_end..n_events, SLAB)
        .into_iter()
        .take(loop_slabs)
    {
        req += 1;
        parts.traced_ingest(r.clone(), &mut tracer, req);
        let ingested = r.end;
        owed += queries_per_slab;
        while owed >= 1.0 {
            owed -= 1.0;
            req += 1;
            let start = rng.below(ingested - JOB_WIDTH);
            parts.traced_query(start..start + JOB_WIDTH, &mut tracer, req, req % 4 == 0);
        }
    }
    let loop_wall = t_loop.elapsed().as_secs_f64();
    let k1 = surface::kernel_snapshot();

    // A stretch of the real concurrent traffic, for the plane's own
    // counters and the queueing numbers.
    let seen = if catchup { n_events / 20 } else { read_warm };
    let jobs = make_jobs(&w, &mut rng, seen.max(1), JOB_WIDTH, JOB_POOL);
    let live_secs = (args.seconds * 0.2).max(0.5);
    if catchup {
        let slabs = surface::slabs(0..n_events, SLAB);
        let budget = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || budget.elapsed().as_secs_f64() < live_secs {
            passes.push(catchup_pass(&w, &jobs, &slabs, &mut rng));
        }
        set_plane_counters(&mut o, &total_stats(&passes));
        let slab = stats::window_stat(
            &passes
                .iter()
                .flat_map(|p| p.slab_secs.iter().copied())
                .collect::<Vec<_>>(),
        );
        o.set("core.serve_concurrent.visible_p50_ms", ms(slab.p50));
        o.set("core.serve_concurrent.visible_p90_ms", ms(slab.p90));
        o.set(
            "core.serve_concurrent.drain_slab_ms",
            ms(passes.iter().map(|p| p.wall).sum::<f64>() / (passes.len() * slabs.len()) as f64),
        );
        let lags: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.queries.iter().map(Sample::lag))
            .collect();
        o.set("bench.gen_lag_p99_ms", ms(stats::window_stat(&lags).p99));
        o.attempted = passes
            .iter()
            .map(|p| (p.queries.len() + slabs.len()) as u64)
            .sum();
        o.failed = passes
            .iter()
            .map(|p| (p.queries.iter().filter(|s| !s.ok).count() + slabs.len() - p.slabs_ok) as u64)
            .sum();
    } else {
        let plane = Session::warmed(&w.model, &w.d, read_warm).into_plane();
        let all_slabs = surface::slabs(read_warm..n_events, SLAB);
        let slab_rate = READ_INGEST_EVENTS_PER_S / SLAB as f64;
        let phase = read_phase(
            &plane,
            &jobs,
            &all_slabs,
            &mut rng,
            READ_QUERY_RATE,
            slab_rate,
            live_secs,
            0.0,
        );
        set_plane_counters(&mut o, &plane.stats());
        let vis = stats::window_stat(&phase.visible);
        o.set("core.serve_concurrent.visible_p50_ms", ms(vis.p50));
        o.set("core.serve_concurrent.visible_p90_ms", ms(vis.p90));
        o.set(
            "core.serve_concurrent.drain_slab_ms",
            ms(phase.drain_secs / phase.drained.max(1) as f64),
        );
        let lags: Vec<f64> = phase.queries.iter().map(Sample::lag).collect();
        o.set("bench.gen_lag_p99_ms", ms(stats::window_stat(&lags).p99));
        o.attempted = (phase.queries.len() + phase.slab_sends.len()) as u64;
        o.failed = phase
            .queries
            .iter()
            .chain(&phase.slab_sends)
            .filter(|s| !s.ok)
            .count() as u64;

        // Highest of a few fixed rates that meets the latency limit:
        // latency counts from the scheduled instant, so a growing
        // backlog shows up as a failed limit.
        let mut used = phase.slab_sends.len();
        let mut best = 0.0;
        for rate in [500.0, 1000.0, 1500.0, 2000.0] {
            let secs = (args.seconds * 0.1).max(0.3);
            let ph = read_phase(
                &plane,
                &jobs,
                &all_slabs[used..],
                &mut rng,
                rate,
                slab_rate,
                secs,
                0.0,
            );
            used += ph.slab_sends.len();
            let lat: Vec<f64> = ph.queries.iter().map(Sample::latency).collect();
            let p99 = stats::window_stat(&lat).p99;
            let all_ok = ph.queries.iter().all(|s| s.ok);
            o.note(&format!("slo_p99_ms_at_{rate}"), num(ms(p99)));
            if all_ok && p99 <= LATENCY_LIMIT_S {
                best = rate;
            }
        }
        o.set("core.serve_concurrent.slo_rate_jobs_per_s", best);
    }

    let spans = tracer.spans();
    let totals = trace::totals_by_name(spans);
    let secs = |name: &str| trace::secs(&totals, name);
    let probed = totals.get("probe").map_or(0, |t| t.calls).max(1) as f64;
    let n_queries = totals.get("query").map_or(0, |t| t.calls) as f64;
    layers::set_span_metrics(&mut o, spans, n_queries / probed);
    o.set("tensor.matmul_s", k1.matmul - k0.matmul);
    o.set("tensor.softmax_s", k1.softmax - k0.softmax);
    o.set("tensor.gather_s", k1.gather - k0.gather);
    o.set("nn.gru_s", k1.gru - k0.gru);
    o.set("core.engine.embed_part_s", secs("core.engine.embed_part"));
    o.set("core.engine.score_pairs_s", secs("core.engine.score_pairs"));
    o.set(
        "core.engine.memory_write_s",
        secs("core.engine.memory_write_events"),
    );
    o.set(
        "graph.tcsr.append_events_per_s",
        trace::count_total(spans, "events") as f64 / secs("graph.tcsr.append_events").max(1e-12),
    );
    let loop_net = loop_wall - secs("probe");
    o.set(
        "bench.waterfall_coverage",
        trace::waterfall_coverage(
            spans,
            &["query", "ingest"],
            "probe",
            (loop_net * 1e9) as u64,
        ),
    );
    // No untraced twin of this loop exists (the public session types
    // are the untraced path), so the recorder's own cost is estimated:
    // spans recorded × the measured cost of recording one.
    o.set(
        "bench.trace_overhead_share",
        spans.len() as f64 * span_cost_s() / loop_net,
    );
    o.check(
        !trace::occurs_under(spans, "core.engine.embed_part", "ingest"),
        || "attention ran under an ingest request".to_string(),
    );

    layers::set_micro_metrics(&mut o, &w.model, parts.shapes, args.quick);
    layers::set_proc_metrics(&mut o, p0);
    crate::write_trace(args, name, spans, &mut o);
    o
}

fn set_plane_counters(o: &mut Outcome, st: &PlaneStats) {
    let recomputed = (st.repaired + st.resampled) as f64;
    o.set("core.serve_concurrent.drift_clean", st.clean as f64);
    o.set("core.serve_concurrent.drift_repaired", st.repaired as f64);
    o.set("core.serve_concurrent.drift_resampled", st.resampled as f64);
    o.set(
        "core.serve_concurrent.recompute_share",
        recomputed / (st.clean as f64 + recomputed).max(1.0),
    );
    o.set(
        "core.serve_concurrent.queue_depth_max",
        st.max_queue_depth as f64,
    );
    o.set(
        "core.serve_concurrent.backpressure_rejections",
        st.backpressure_rejections as f64,
    );
}

/// Seconds one enter + exit pair of the recorder costs here.
fn span_cost_s() -> f64 {
    let mut t = Tracer::new();
    let n = 20_000;
    let t0 = Instant::now();
    for i in 0..n {
        let s = t.enter("cost", i);
        t.exit(s);
    }
    t0.elapsed().as_secs_f64() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due: f64, latency: f64, ok: bool) -> Sample {
        Sample {
            due,
            started: due,
            done: due + latency,
            ok,
        }
    }

    #[test]
    fn a_failed_or_late_operation_misses_the_goal() {
        let q = [
            sample(0.0, 0.001, true),
            sample(0.1, 0.006, true),  // over the 5 ms limit
            sample(0.2, 0.001, false), // failed
            sample(0.3, 0.0049, true), // just inside the limit
        ];
        assert_eq!(goal_share(&q), 0.5);
        assert_eq!(goal_share(&[]), 0.0);
    }

    #[test]
    fn windows_assign_by_scheduled_time_and_clamp_the_edge() {
        let s = [
            sample(0.1, 1.0, true),
            sample(1.9, 2.0, true),
            sample(2.0, 3.0, true),
            sample(4.5, 4.0, true), // past the last window: clamped into it
        ];
        let w = windows_by_time(&s, 2.0, 2);
        assert_eq!((w[0].count, w[1].count), (2, 2));
        assert_eq!(w[1].p99, 4.0);
    }

    #[test]
    fn timeline_gives_whole_windows_of_a_thousand_samples() {
        let (window, n, cap) = read_timeline(20.0);
        assert_eq!(window * READ_QUERY_RATE, WINDOW_SAMPLES as f64);
        assert_eq!(n, 8);
        assert!((cap - 4.0).abs() < 1e-9);
        let (window, n, cap) = read_timeline(1.0);
        assert_eq!(n, 1);
        assert!((window + cap - 1.0).abs() < 1e-9);
    }
}
