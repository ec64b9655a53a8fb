//! Intra-op parallelism: the output rows of one product split across a
//! small pool of parked helper threads.
//!
//! The fixed-reduction-order contract (crate docs) fixes how **one
//! output element** is summed and leaves free which thread sums it. A
//! product cut into contiguous row parts, each part run through the
//! same GEMM body, is therefore bit-identical to the unsplit product
//! whatever thread runs each part and in whatever order.
//!
//! **The budget.** Every thread carries an intra-op budget, the number
//! of parts a large product may be cut into. It is 1 unless an
//! executor raises it with [`with_budget`], so a product runs unsplit
//! on the calling thread by default. The executor that owns the
//! threads sets the budget, because only it knows how many of its own
//! threads compute at once: a lone trainer takes every core, each of
//! `w` concurrent trainer lanes takes `cores / w`, and serving stays
//! at 1.
//!
//! **The pool.** `available_parallelism − 1` workers, spawned the first
//! time a product is split and parked for the life of the process. One
//! product at a time is posted to them. The caller runs parts itself
//! and claims through one atomic every part no worker has started, so a
//! worker that wakes late only finds nothing left, and a product is
//! never slower than running its parts serially. A caller that finds
//! another product posted runs its own parts inline. On one core there
//! are no workers and every part runs on the caller.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Multiply-adds below which a product runs unsplit. Measured at the
/// training shapes on 2 cores: a 2¹⁷ product gains nothing from two
/// threads, a 2¹⁸ one (≈ 14 µs on one core) runs 1.3–1.5× faster.
pub const SPLIT_MADDS: usize = 1 << 18;

/// How long an idle worker watches for the next product before it
/// parks. Most products of a training step follow the previous one by
/// far less, and waking a parked worker can take milliseconds on a
/// shared host; a late wake only forfeits the worker's share of one
/// product.
const SPIN: Duration = Duration::from_millis(1);

const POISONED: &str = "pool lock poisoned: nothing panics while holding it";

thread_local! {
    static BUDGET: Cell<usize> = const { Cell::new(1) };
}

/// Runs `f` with this thread's intra-op budget set to `threads` (at
/// least 1): each product `f` computes on this thread above a size
/// threshold is cut into up to `threads` row parts, shared with the
/// pool's workers. The previous budget is restored when `f` returns or
/// unwinds. Results do not depend on the budget, bit for bit.
pub fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(threads.max(1))));
    f()
}

/// `f(rows, out_rows)` over all `rows` rows of `out`, either once or,
/// when the product costs at least [`SPLIT_MADDS`] multiply-adds and
/// this thread's budget allows, once per contiguous part of the rows
/// (part boundaries are multiples of 4 rows, the tallest register
/// tile).
pub(crate) fn split_rows(
    out: &mut [f32],
    rows: usize,
    madds: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    let part_rows = rows.div_ceil(BUDGET.with(Cell::get)).next_multiple_of(4);
    if part_rows >= rows || madds < SPLIT_MADDS || out.is_empty() {
        return f(0..rows, out);
    }
    let width = out.len() / rows;
    let parts: Vec<Mutex<&mut [f32]>> = out.chunks_mut(part_rows * width).map(Mutex::new).collect();
    run_parts(parts.len(), &|i| {
        let mut part = parts[i].lock().expect("each part is claimed once");
        let start = i * part_rows;
        f(start..start + part.len() / width, &mut part);
    });
}

/// Runs `run(i)` for every `i < parts`, each exactly once, on this
/// thread and any pool worker that claims one.
fn run_parts(parts: usize, run: &(dyn Fn(usize) + Sync)) {
    // SAFETY: the erased reference reaches other threads only inside
    // `job`, and `Job::work` calls it only for a part it has claimed.
    // This function cannot unwind (a part that panics aborts the
    // process), and it returns only once every part is claimed and
    // `done` counts all of them as finished. A worker still holding
    // `job` afterwards can only fail to claim, so nothing calls `run`
    // once its referent is gone.
    let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
    let job = Arc::new(Job {
        run,
        parts,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
    });
    let pool = pool();
    let posted = pool.post(&job);
    job.work();
    // Every part is claimed; wait for the ones workers are running.
    while job.done.load(Ordering::Acquire) < parts {
        std::hint::spin_loop();
    }
    if posted {
        pool.retire();
    }
}

/// One split product: `parts` calls of `run`, each claimed by exactly
/// one thread.
struct Job {
    /// Lifetime-erased (see [`run_parts`]); called only for a claimed
    /// part.
    run: &'static (dyn Fn(usize) + Sync),
    parts: usize,
    /// The next part to claim; a claim at or past `parts` fails.
    next: AtomicUsize,
    /// Parts that have finished.
    done: AtomicUsize,
}

impl Job {
    /// Claims and runs parts until none is left.
    fn work(&self) {
        loop {
            // Relaxed: a claim publishes no data. The job's inputs
            // reached this thread with the job (under the slot lock),
            // and its outputs return through `done`.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.parts {
                return;
            }
            // A part must not unwind: its submitter would return while
            // other threads still write through the part's borrows.
            if catch_unwind(AssertUnwindSafe(|| (self.run)(i))).is_err() {
                std::process::abort();
            }
            // Release: the part's writes happen before the submitter's
            // Acquire load sees the count.
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

struct Pool {
    /// `available_parallelism − 1`.
    workers: usize,
    /// Bumped (under the `slot` lock) per posted product; spinning
    /// workers watch it without the lock.
    posts: AtomicUsize,
    /// The posted product, if any; one submitter at a time holds it.
    slot: Mutex<Option<Arc<Job>>>,
    wake: Condvar,
}

/// The process-wide pool, with its workers spawned on first use.
/// Workers are never joined: they park between products for the life
/// of the process.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            workers: cores - 1,
            posts: AtomicUsize::new(0),
            slot: Mutex::default(),
            wake: Condvar::new(),
        }));
        for w in 0..pool.workers {
            std::thread::Builder::new()
                .name(format!("disttgl-gemm-{w}"))
                .spawn(move || pool.serve())
                .expect("spawn a GEMM worker");
        }
        pool
    })
}

impl Pool {
    /// Posts `job` to the workers unless there are none or another
    /// product is posted; `false` means the caller runs it alone.
    fn post(&self, job: &Arc<Job>) -> bool {
        if self.workers == 0 {
            return false;
        }
        let mut slot = self.slot.lock().expect(POISONED);
        if slot.is_some() {
            return false;
        }
        *slot = Some(Arc::clone(job));
        self.posts.fetch_add(1, Ordering::Release);
        drop(slot);
        self.wake.notify_all();
        true
    }

    /// Takes the finished product down and frees the pool.
    fn retire(&self) {
        *self.slot.lock().expect(POISONED) = None;
    }

    /// A worker's life: watch for a product for up to [`SPIN`], else
    /// park until one is posted; claim parts of it; repeat.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let idle = Instant::now();
            while self.posts.load(Ordering::Acquire) == seen && idle.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            let job = {
                let mut slot = self.slot.lock().expect(POISONED);
                while self.posts.load(Ordering::Acquire) == seen {
                    slot = self.wake.wait(slot).expect(POISONED);
                }
                seen = self.posts.load(Ordering::Acquire);
                slot.clone()
            };
            if let Some(job) = job {
                job.work();
            }
        }
    }
}
