//! The `i × j × k` training schedule (paper §3.2, Figure 7).
//!
//! Each of the `k` memory groups owns one node-memory replica and
//! `i·j` trainers. Within a group:
//!
//! * **Memory parallelism** (Fig 7(c), reordered): group `g` trains
//!   the global batch sequence *cyclically*, starting at its own time
//!   segment — every group sweeps all of the data on its own replica,
//!   so replicas never synchronize; the only cross-group traffic is
//!   the weight all-reduce.
//! * **Epoch parallelism** (Fig 7(b), reordered): the group's `j`
//!   sub-groups take turns acquiring batches. Sub-group `jg` owns the
//!   batches at steps `s ≡ jg (mod j)`; it reads the memory and writes
//!   the update at its ownership step (pass 0) and re-trains the same
//!   positives with fresh negative sets for the next `j−1` steps
//!   without touching memory — "each trainer works on the same
//!   positive samples for n consecutive iterations".
//! * **Mini-batch parallelism** (Fig 7(a)): the `i` lanes of a
//!   sub-group split each global batch chronologically.
//!
//! The node memory resets whenever a group's cyclic order wraps past
//! the end of the data (= that group's epoch boundary), which the
//! memory daemon realizes through its epoch-length schedule.

use crate::config::ParallelConfig;
use disttgl_graph::batching;
use std::ops::Range;

/// What one sub-group does at one step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepPlan {
    /// Nothing this step (pipeline warm-up/drain); the trainer still
    /// participates in the gradient all-reduce with zero gradients.
    Idle,
    /// Acquire a new global batch: read memory, train pass 0, write.
    Acquire {
        /// Event range of the global batch.
        batch: Range<usize>,
        /// Index used to pick the negative group.
        epoch_equiv: usize,
    },
    /// Re-train the previously acquired batch with negative set `pass`.
    Continue {
        /// Pass number in `1..j`.
        pass: usize,
        /// Index used to pick the negative group.
        epoch_equiv: usize,
    },
}

/// The complete schedule of one memory group.
#[derive(Clone, Debug)]
pub struct GroupSchedule {
    /// Global batches in this group's cyclic order (first entry is the
    /// start of the group's own time segment).
    cyclic: Vec<Range<usize>>,
    /// Batches until this group's order wraps to batch 0 (`B − offset`).
    until_wrap: usize,
    i: usize,
    j: usize,
    k: usize,
    group: usize,
    sweeps: usize,
}

impl GroupSchedule {
    /// Builds the schedule for `group ∈ 0..k` over `train_range` with
    /// the given global batch size.
    pub fn new(
        train_range: Range<usize>,
        global_batch: usize,
        parallel: &ParallelConfig,
        group: usize,
        sweeps: usize,
    ) -> Self {
        assert!(group < parallel.k, "group out of range");
        assert!(!train_range.is_empty(), "empty training range");
        let batches = batching::chronological_batches(train_range, global_batch);
        let b = batches.len();
        let segments = batching::time_segments(b, parallel.k);
        // With more groups than batches a segment can be empty with
        // start == b; that group's cyclic order coincides with offset 0.
        let offset = segments[group].start % b.max(1);
        let mut cyclic = Vec::with_capacity(b);
        cyclic.extend_from_slice(&batches[offset..]);
        cyclic.extend_from_slice(&batches[..offset]);
        Self {
            cyclic,
            until_wrap: b - offset,
            i: parallel.i,
            j: parallel.j,
            k: parallel.k,
            group,
            sweeps,
        }
    }

    /// Number of global batches `B`.
    pub fn num_batches(&self) -> usize {
        self.cyclic.len()
    }

    /// Steps every trainer executes: `sweeps·B` ownership steps plus
    /// `j − 1` drain steps for the last acquisitions.
    pub fn total_steps(&self) -> usize {
        self.sweeps * self.cyclic.len() + (self.j - 1)
    }

    /// Memory-daemon turn count (ownership steps only).
    pub fn total_turns(&self) -> usize {
        self.sweeps * self.cyclic.len()
    }

    /// Epoch lengths for the memory daemon: the state must reset
    /// whenever the cyclic order wraps past the end of the data, so
    /// the first epoch is the partial `B − offset`, then `sweeps − 1`
    /// full passes, then the trailing partial (groups at offset 0 get
    /// exactly `sweeps` full epochs).
    pub fn daemon_epoch_lengths(&self) -> Vec<usize> {
        let b = self.cyclic.len();
        let mut lens = Vec::new();
        if self.until_wrap == b {
            lens.extend(std::iter::repeat_n(b, self.sweeps));
        } else {
            lens.push(self.until_wrap);
            lens.extend(std::iter::repeat_n(b, self.sweeps.saturating_sub(1)));
            lens.push(b - self.until_wrap);
        }
        lens.retain(|&l| l > 0);
        debug_assert_eq!(lens.iter().sum::<usize>(), self.total_turns());
        lens
    }

    /// The plan for sub-group `jg` at step `s`.
    pub fn plan(&self, jg: usize, s: usize) -> StepPlan {
        assert!(jg < self.j, "sub-group out of range");
        let b = self.cyclic.len();
        let pass = (s + self.j - (jg % self.j)) % self.j;
        let own = match s.checked_sub(pass) {
            Some(own) if own < self.sweeps * b => own,
            _ => return StepPlan::Idle,
        };
        // Ownership steps rotate sub-groups: owner of step s is s % j.
        debug_assert_eq!(own % self.j, jg % self.j);
        let sweep = own / b;
        let epoch_equiv = sweep * self.j * self.k + self.group * self.j + pass;
        if pass == 0 {
            StepPlan::Acquire {
                batch: self.cyclic[own % b].clone(),
                epoch_equiv,
            }
        } else {
            StepPlan::Continue { pass, epoch_equiv }
        }
    }

    /// The local slice of a global batch handled by lane `ig`.
    pub fn local_slice(&self, batch: &Range<usize>, ig: usize) -> Range<usize> {
        batching::split_local(batch.clone(), self.i)[ig].clone()
    }

    /// Events each trainer lane touches per full run (bookkeeping for
    /// throughput accounting): every batch is trained `j` times by its
    /// owning sub-group.
    pub fn events_traversed_per_group(&self) -> usize {
        let per_sweep: usize = self.cyclic.iter().map(|r| r.len()).sum();
        per_sweep * self.j * self.sweeps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(b_events: usize, bs: usize, i: usize, j: usize, k: usize, g: usize) -> GroupSchedule {
        GroupSchedule::new(0..b_events, bs, &ParallelConfig::new(i, j, k), g, 2)
    }

    #[test]
    fn single_gpu_schedule_is_sequential() {
        let s = sched(100, 10, 1, 1, 1, 0);
        assert_eq!(s.num_batches(), 10);
        assert_eq!(s.total_steps(), 20);
        for step in 0..20 {
            match s.plan(0, step) {
                StepPlan::Acquire { batch, .. } => {
                    assert_eq!(batch.start, (step % 10) * 10);
                }
                other => panic!("unexpected {:?}", other),
            }
        }
    }

    #[test]
    fn epoch_parallel_passes_rotate() {
        // j = 3: sub-group 1 acquires at steps 1, 4, 7, … and continues
        // for two steps after each acquisition.
        let s = sched(90, 10, 1, 3, 1, 0);
        assert_eq!(s.plan(1, 0), StepPlan::Idle);
        assert!(matches!(s.plan(1, 1), StepPlan::Acquire { .. }));
        assert!(matches!(s.plan(1, 2), StepPlan::Continue { pass: 1, .. }));
        assert!(matches!(s.plan(1, 3), StepPlan::Continue { pass: 2, .. }));
        assert!(matches!(s.plan(1, 4), StepPlan::Acquire { .. }));
        // Exactly one sub-group acquires at each ownership step.
        for step in 0..s.total_turns() {
            let acquires = (0..3)
                .filter(|&jg| matches!(s.plan(jg, step), StepPlan::Acquire { .. }))
                .count();
            assert_eq!(acquires, 1, "step {}", step);
        }
    }

    #[test]
    fn acquire_owner_matches_daemon_turn_order() {
        // The daemon serves sub-group (turn % j); the schedule must
        // agree or the serialized protocol deadlocks.
        let s = sched(80, 10, 2, 2, 1, 0);
        for step in 0..s.total_turns() {
            let owner = step % 2;
            assert!(
                matches!(s.plan(owner, step), StepPlan::Acquire { .. }),
                "step {} owner {}",
                step,
                owner
            );
            assert!(!matches!(s.plan(1 - owner, step), StepPlan::Acquire { .. }));
        }
    }

    #[test]
    fn memory_groups_rotate_segments() {
        // k = 2 over 10 batches: group 1 starts at batch 5.
        let s0 = sched(100, 10, 1, 1, 2, 0);
        let s1 = sched(100, 10, 1, 1, 2, 1);
        match (s0.plan(0, 0), s1.plan(0, 0)) {
            (StepPlan::Acquire { batch: b0, .. }, StepPlan::Acquire { batch: b1, .. }) => {
                assert_eq!(b0.start, 0);
                assert_eq!(b1.start, 50);
            }
            other => panic!("unexpected {:?}", other),
        }
        // Both groups cover every batch each sweep.
        let covered: Vec<usize> = (0..10)
            .map(|step| match s1.plan(0, step) {
                StepPlan::Acquire { batch, .. } => batch.start,
                _ => unreachable!(),
            })
            .collect();
        let mut sorted = covered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).map(|b| b * 10).collect::<Vec<_>>());
        // And in cyclic (wrapped) order.
        assert_eq!(covered, vec![50, 60, 70, 80, 90, 0, 10, 20, 30, 40]);
    }

    #[test]
    fn daemon_epochs_reset_at_wrap() {
        let s = sched(100, 10, 1, 1, 4, 1);
        // Offset for group 1 of 4 over 10 batches: segments are
        // [0..3), [3..6)… wait — balanced: 3,3,2,2 → offset 3.
        assert_eq!(s.daemon_epoch_lengths(), vec![7, 10, 3]);
        let s0 = sched(100, 10, 1, 1, 4, 0);
        assert_eq!(s0.daemon_epoch_lengths(), vec![10, 10]);
        // All variants serve the same total turn count.
        assert_eq!(
            s.daemon_epoch_lengths().iter().sum::<usize>(),
            s0.daemon_epoch_lengths().iter().sum::<usize>()
        );
    }

    #[test]
    fn local_slices_partition_each_batch() {
        let s = sched(100, 20, 4, 1, 1, 0);
        if let StepPlan::Acquire { batch, .. } = s.plan(0, 0) {
            let slices: Vec<_> = (0..4).map(|ig| s.local_slice(&batch, ig)).collect();
            let total: usize = slices.iter().map(|r| r.len()).sum();
            assert_eq!(total, batch.len());
            for w in slices.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        } else {
            panic!("expected acquire");
        }
    }

    #[test]
    fn epoch_equiv_distinct_across_passes_and_groups() {
        let mut seen = std::collections::HashSet::new();
        for g in 0..2 {
            let s = sched(40, 10, 1, 2, 2, g);
            for jg in 0..2 {
                for step in 0..s.total_steps() {
                    match s.plan(jg, step) {
                        StepPlan::Acquire { epoch_equiv, .. }
                        | StepPlan::Continue { epoch_equiv, .. } => {
                            seen.insert((g, jg, step, epoch_equiv));
                        }
                        StepPlan::Idle => {}
                    }
                }
            }
        }
        // Smoke: epoch_equiv values span more than one value.
        let values: std::collections::HashSet<usize> = seen.iter().map(|&(_, _, _, e)| e).collect();
        assert!(values.len() >= 4, "epoch_equiv too uniform: {:?}", values);
    }

    #[test]
    fn traversal_accounting() {
        let s = sched(100, 10, 1, 2, 1, 0);
        // 2 sweeps × (100 events × j=2) = 400.
        assert_eq!(s.events_traversed_per_group(), 400);
    }
}
