//! Deterministic shared-memory collectives (the NCCL stand-in).
//!
//! [`CommunicatorGroup::new(world)`] creates one [`Communicator`] per
//! rank; trainer threads move their communicator in and call
//! collectives symmetrically (every rank must call every collective in
//! the same order — the NCCL contract).
//!
//! All-reduce sums contributions in **fixed rank order**, so every rank
//! computes a bit-identical result; combined with identical Adam state
//! this keeps all model replicas exactly equal across training, which
//! the tests assert.

use crate::netsim::NetworkModel;
use crate::spec::ClusterSpec;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};

/// A collective failed because the group was aborted: some rank
/// declared itself dead via [`Communicator::abort`] (a crashed lane in
/// fault-injection runs). The abort is terminal — every in-flight and
/// future collective on the group returns this error, so surviving
/// ranks unwind cleanly instead of blocking forever on a barrier the
/// dead rank will never reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The group was aborted by some rank.
    Aborted,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Aborted => write!(f, "communicator group aborted"),
        }
    }
}

impl std::error::Error for CommError {}

/// Reusable sense-reversing barrier with a terminal abort: waiters
/// blocked on a generation that will never complete wake up and return
/// `false` once the group's abort flag is raised.
struct Barrier {
    lock: StdMutex<(usize, u64)>, // (waiting count, generation)
    cvar: Condvar,
    world: usize,
}

impl Barrier {
    fn new(world: usize) -> Self {
        Self {
            lock: StdMutex::new((0, 0)),
            cvar: Condvar::new(),
            world,
        }
    }

    /// Returns `true` when the whole group arrived, `false` when the
    /// group was aborted first.
    ///
    /// Completion wins over abort: this rank always *arrives* first,
    /// and a generation every rank reached completes even when the
    /// abort flag was raised concurrently by a rank that has already
    /// moved past it. Only a rank that would otherwise block forever
    /// observes the abort — and it withdraws its arrival on the way
    /// out, so a stale count can never combine with a later call to
    /// falsely complete a generation. This makes fault unwinding
    /// deterministic: a collective either completes on every rank or
    /// fails on every rank, never a mix decided by wake-up timing.
    fn wait(&self, aborted: &AtomicBool) -> bool {
        let mut guard = match self.lock.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // A lane panicked while holding the barrier lock, so
                // the (count, generation) pair may be mid-update.
                // Converting the poison into a group abort keeps the
                // failure contract: survivors get `CommError::Aborted`
                // instead of a cascading poison panic. This rank never
                // arrives, so the stale counter cannot complete a
                // generation.
                aborted.store(true, Ordering::Release);
                drop(poisoned.into_inner());
                self.cvar.notify_all();
                return false;
            }
        };
        let gen = guard.1;
        guard.0 += 1;
        if guard.0 == self.world {
            guard.0 = 0;
            guard.1 += 1;
            self.cvar.notify_all();
            return true;
        }
        while guard.1 == gen {
            if aborted.load(Ordering::Acquire) {
                guard.0 -= 1;
                return false;
            }
            guard = match self.cvar.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => {
                    // Same contract as above, but this waiter already
                    // arrived — withdraw the arrival on the way out.
                    aborted.store(true, Ordering::Release);
                    let mut g = poisoned.into_inner();
                    g.0 = g.0.saturating_sub(1);
                    drop(g);
                    self.cvar.notify_all();
                    return false;
                }
            };
        }
        true
    }

    /// Wakes every waiter so it can observe the abort flag. Must be
    /// called after the flag is set. Tolerates a poisoned lock — abort
    /// delivery is exactly what a poisoned group needs.
    fn wake_all(&self) {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.cvar.notify_all();
    }
}

/// Aggregate communication counters for one group.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    /// All-reduce invocations (per group, not per rank).
    pub allreduce_count: u64,
    /// Payload bytes per rank summed over invocations.
    pub allreduce_bytes: u64,
    /// Modeled wire time (ns) accumulated from the network model.
    pub modeled_comm_nanos: u64,
}

struct Shared {
    world: usize,
    barrier: Barrier,
    /// Terminal abort flag (fault injection / crashed lanes).
    aborted: AtomicBool,
    /// Per-rank contribution slots for the current collective.
    slots: Vec<Mutex<Vec<f32>>>,
    allreduce_count: AtomicU64,
    allreduce_bytes: AtomicU64,
    modeled_comm_nanos: AtomicU64,
    /// Ranks that still have a live Communicator (signals misuse).
    live: AtomicUsize,
    spec: ClusterSpec,
    net: NetworkModel,
}

/// Factory for a group of communicators.
pub struct CommunicatorGroup {
    shared: Arc<Shared>,
}

impl CommunicatorGroup {
    /// Creates a group of `spec.world()` ranks metered by `net`.
    pub fn new(spec: ClusterSpec, net: NetworkModel) -> Self {
        let world = spec.world();
        let shared = Arc::new(Shared {
            world,
            barrier: Barrier::new(world),
            aborted: AtomicBool::new(false),
            slots: (0..world).map(|_| Mutex::new(Vec::new())).collect(),
            allreduce_count: AtomicU64::new(0),
            allreduce_bytes: AtomicU64::new(0),
            modeled_comm_nanos: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            spec,
            net,
        });
        Self { shared }
    }

    /// Single-machine group with `world` ranks (tests, baselines).
    pub fn single_machine(world: usize) -> Self {
        Self::new(ClusterSpec::new(1, world), NetworkModel::t4_testbed())
    }

    /// Hands out the communicator for `rank`. Each rank must be taken
    /// exactly once.
    pub fn communicator(&self, rank: usize) -> Communicator {
        assert!(rank < self.shared.world, "rank out of range");
        self.shared.live.fetch_add(1, Ordering::Relaxed);
        Communicator {
            shared: Arc::clone(&self.shared),
            rank,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CommStats {
        CommStats {
            allreduce_count: self.shared.allreduce_count.load(Ordering::Relaxed),
            allreduce_bytes: self.shared.allreduce_bytes.load(Ordering::Relaxed),
            modeled_comm_nanos: self.shared.modeled_comm_nanos.load(Ordering::Relaxed),
        }
    }
}

/// One rank's endpoint into the group's collectives.
pub struct Communicator {
    shared: Arc<Shared>,
    rank: usize,
}

impl Communicator {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn world(&self) -> usize {
        self.shared.world
    }

    /// Declares this rank dead and aborts the whole group: every rank
    /// blocked in (or later entering) a collective gets
    /// [`CommError::Aborted`] instead of waiting forever. Terminal —
    /// the group cannot be re-armed.
    pub fn abort(&self) {
        self.shared.aborted.store(true, Ordering::Release);
        self.shared.barrier.wake_all();
    }

    /// Whether the group has been aborted.
    pub fn is_aborted(&self) -> bool {
        self.shared.aborted.load(Ordering::Acquire)
    }

    /// Blocks until every rank arrives; fails with
    /// [`CommError::Aborted`] if the group is aborted while waiting.
    pub fn barrier(&self) -> Result<(), CommError> {
        if self.shared.barrier.wait(&self.shared.aborted) {
            Ok(())
        } else {
            Err(CommError::Aborted)
        }
    }

    /// Averages `data` across all ranks in place.
    ///
    /// Deterministic: the reduction sums rank 0's slice first, then
    /// rank 1's, etc., so all ranks end with bit-identical contents.
    /// Records the modeled ring-all-reduce wire time once per call.
    ///
    /// Fails with [`CommError::Aborted`] (leaving `data` unchanged) if
    /// the group is aborted before the reduction completes.
    ///
    /// # Panics
    /// Panics if ranks pass different lengths.
    pub fn allreduce_mean(&self, data: &mut [f32]) -> Result<(), CommError> {
        let shared = &self.shared;
        *shared.slots[self.rank].lock() = data.to_vec();
        if !shared.barrier.wait(&shared.aborted) {
            return Err(CommError::Aborted);
        }
        // Every rank reduces independently in rank order → identical
        // results without a broadcast round.
        let mut acc = vec![0.0f32; data.len()];
        for slot in &shared.slots {
            let s = slot.lock();
            assert_eq!(
                s.len(),
                data.len(),
                "allreduce: length mismatch across ranks"
            );
            for (a, &v) in acc.iter_mut().zip(s.iter()) {
                *a += v;
            }
        }
        let inv = 1.0 / shared.world as f32;
        // The second barrier keeps slot reuse safe across rounds; only
        // commit the averaged result after it succeeds so an abort
        // leaves the caller's gradient buffer untouched.
        if !shared.barrier.wait(&shared.aborted) {
            return Err(CommError::Aborted);
        }
        for (d, a) in data.iter_mut().zip(acc) {
            *d = a * inv;
        }
        if self.rank == 0 {
            let bytes = std::mem::size_of_val(data);
            shared.allreduce_count.fetch_add(1, Ordering::Relaxed);
            shared
                .allreduce_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            let t = shared.net.ring_allreduce(bytes, &shared.spec);
            shared
                .modeled_comm_nanos
                .fetch_add(t.as_nanos() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Copies `root`'s buffer into every rank's `data` (initial model
    /// replication).
    ///
    /// # Panics
    /// Panics if ranks pass different lengths or the group is aborted.
    pub fn broadcast(&self, root: usize, data: &mut [f32]) {
        let shared = &self.shared;
        if self.rank == root {
            *shared.slots[root].lock() = data.to_vec();
        }
        if !shared.barrier.wait(&shared.aborted) {
            panic!("broadcast: {}", CommError::Aborted);
        }
        if self.rank != root {
            let s = shared.slots[root].lock();
            assert_eq!(s.len(), data.len(), "broadcast: length mismatch");
            data.copy_from_slice(&s);
        }
        if !shared.barrier.wait(&shared.aborted) {
            panic!("broadcast: {}", CommError::Aborted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_group<T: Send + 'static>(
        world: usize,
        f: impl Fn(Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let group = CommunicatorGroup::single_machine(world);
        let handles: Vec<_> = (0..world)
            .map(|r| {
                let comm = group.communicator(r);
                let f = f.clone();
                std::thread::spawn(move || f(comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn allreduce_mean_averages() {
        let results = run_group(4, |comm| {
            let mut v = vec![comm.rank() as f32; 3];
            comm.allreduce_mean(&mut v).expect("allreduce");
            v
        });
        // mean of 0..4 = 1.5
        for v in results {
            assert_eq!(v, vec![1.5, 1.5, 1.5]);
        }
    }

    #[test]
    fn allreduce_is_bitwise_identical_across_ranks() {
        let results = run_group(8, |comm| {
            // Values whose FP sum depends on order — determinism check.
            let mut v: Vec<f32> = (0..64)
                .map(|i| ((comm.rank() * 64 + i) as f32).sin() * 1e3)
                .collect();
            comm.allreduce_mean(&mut v).expect("allreduce");
            v
        });
        for r in 1..8 {
            assert_eq!(results[0], results[r], "rank {} diverged", r);
        }
    }

    #[test]
    fn repeated_allreduce_rounds() {
        let results = run_group(3, |comm| {
            let mut v = vec![(comm.rank() + 1) as f32];
            for _ in 0..10 {
                comm.allreduce_mean(&mut v).expect("allreduce");
            }
            v[0]
        });
        // After the first round all ranks hold 2.0; stays 2.0.
        for v in results {
            assert!((v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn broadcast_from_root() {
        let results = run_group(4, |comm| {
            let mut v = if comm.rank() == 2 {
                vec![9.0, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            comm.broadcast(2, &mut v);
            v
        });
        for v in results {
            assert_eq!(v, vec![9.0, 8.0]);
        }
    }

    #[test]
    fn stats_account_calls_and_bytes() {
        let group = CommunicatorGroup::new(ClusterSpec::new(2, 2), NetworkModel::t4_testbed());
        let handles: Vec<_> = (0..4)
            .map(|r| {
                let comm = group.communicator(r);
                std::thread::spawn(move || {
                    let mut v = vec![1.0f32; 100];
                    comm.allreduce_mean(&mut v).expect("allreduce");
                    comm.allreduce_mean(&mut v).expect("allreduce");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.stats();
        assert_eq!(stats.allreduce_count, 2);
        assert_eq!(stats.allreduce_bytes, 2 * 400);
        assert!(stats.modeled_comm_nanos > 0);
    }

    #[test]
    fn abort_unblocks_waiting_allreduce() {
        let group = CommunicatorGroup::single_machine(2);
        let c0 = group.communicator(0);
        let c1 = group.communicator(1);
        let t = std::thread::spawn(move || {
            let mut v = vec![1.0f32, 2.0];
            let r = c1.allreduce_mean(&mut v);
            (r, v)
        });
        // Rank 0 "crashes" instead of joining the collective; rank 1
        // must unwind with Aborted and an untouched buffer.
        std::thread::sleep(std::time::Duration::from_millis(20));
        c0.abort();
        let (r, v) = t.join().unwrap();
        assert_eq!(r, Err(CommError::Aborted));
        assert_eq!(v, vec![1.0, 2.0]);
        assert!(c0.is_aborted());
    }

    #[test]
    fn aborted_group_fails_fast_forever() {
        let group = CommunicatorGroup::single_machine(2);
        let c0 = group.communicator(0);
        let _c1 = group.communicator(1);
        c0.abort();
        assert_eq!(c0.barrier(), Err(CommError::Aborted));
        let mut v = vec![0.0f32];
        assert_eq!(c0.allreduce_mean(&mut v), Err(CommError::Aborted));
        assert_eq!(c0.allreduce_mean(&mut v), Err(CommError::Aborted));
    }

    #[test]
    fn survivors_all_observe_abort() {
        let group = CommunicatorGroup::single_machine(4);
        let comms: Vec<_> = (0..4).map(|r| group.communicator(r)).collect();
        let mut comms = comms.into_iter();
        let crasher = comms.next().unwrap();
        let handles: Vec<_> = comms
            .map(|c| {
                std::thread::spawn(move || {
                    let mut v = vec![c.rank() as f32];
                    c.allreduce_mean(&mut v)
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        crasher.abort();
        for h in handles {
            assert_eq!(h.join().unwrap(), Err(CommError::Aborted));
        }
    }

    #[test]
    fn poisoned_barrier_converts_to_abort_not_panic() {
        let group = CommunicatorGroup::single_machine(2);
        let c0 = group.communicator(0);
        let c1 = group.communicator(1);
        // Poison the barrier lock the way a crashing lane would: a
        // thread panics while holding the guard.
        let shared = Arc::clone(&c0.shared);
        std::thread::spawn(move || {
            let _guard = shared.barrier.lock.lock().unwrap();
            panic!("injected panic while holding the barrier lock");
        })
        .join()
        .unwrap_err();
        // Survivors observe the contractual abort, not a poison panic.
        assert_eq!(c0.barrier(), Err(CommError::Aborted));
        assert!(c0.is_aborted());
        let mut v = vec![1.0f32, 2.0];
        assert_eq!(c1.allreduce_mean(&mut v), Err(CommError::Aborted));
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn poisoned_barrier_unblocks_in_flight_waiter() {
        let group = CommunicatorGroup::single_machine(2);
        let c0 = group.communicator(0);
        let c1 = group.communicator(1);
        let waiter = std::thread::spawn(move || c1.barrier());
        // Let rank 1 park inside the condvar wait, then poison.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let shared = Arc::clone(&c0.shared);
        std::thread::spawn(move || {
            let _guard = shared.barrier.lock.lock().unwrap();
            panic!("injected panic while holding the barrier lock");
        })
        .join()
        .unwrap_err();
        // Rank 0's next collective observes the poison, raises the
        // abort, and wakes rank 1 out of its condvar wait — both get
        // the contractual error.
        assert_eq!(c0.barrier(), Err(CommError::Aborted));
        assert_eq!(waiter.join().unwrap(), Err(CommError::Aborted));
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::AtomicUsize;
        let flag = Arc::new(AtomicUsize::new(0));
        let group = CommunicatorGroup::single_machine(2);
        let f2 = Arc::clone(&flag);
        let c0 = group.communicator(0);
        let c1 = group.communicator(1);
        let t = std::thread::spawn(move || {
            f2.store(1, Ordering::SeqCst);
            c1.barrier().expect("barrier");
            c1.barrier().expect("barrier");
        });
        c0.barrier().expect("barrier"); // After this, rank 1 must have set the flag.
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        c0.barrier().expect("barrier");
        t.join().unwrap();
    }
}
