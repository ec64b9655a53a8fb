//! Property-based tests: the memory daemon must be observationally
//! equivalent to a sequential replay of the same serialized request
//! order, for arbitrary write contents and (i, j) group shapes.

use disttgl_mem::{
    MemoryClient, MemoryDaemon, MemoryReadout, MemoryState, MemoryWrite, ReadRequest,
    VersionedReadout,
};
use disttgl_tensor::Matrix;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Step {
    node: u32,
    value: f32,
    ts: f32,
}

fn steps(n: usize, nodes: u32) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0..nodes, -10.0f32..10.0, 0.0f32..100.0).prop_map(|(node, value, ts)| Step {
            node,
            value,
            ts,
        }),
        n..=n,
    )
}

fn write_of(step: &Step, d_mem: usize, mail_dim: usize) -> MemoryWrite {
    MemoryWrite {
        nodes: vec![step.node],
        mem: Matrix::full(1, d_mem, step.value),
        mem_ts: vec![step.ts],
        mail: Matrix::full(1, mail_dim, step.value * 2.0),
        mail_ts: vec![step.ts],
    }
}

/// A full serialized read of `nodes` in this rank's read turn.
fn full(client: &MemoryClient, nodes: &[u32]) -> MemoryReadout {
    let mut out = MemoryReadout::default();
    client
        .read(ReadRequest::Full(nodes.to_vec()), &mut out)
        .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-rank daemon ≡ plain MemoryState for any request stream.
    #[test]
    fn daemon_equals_sequential_replay(script in steps(8, 6)) {
        let (d_mem, mail_dim, nodes) = (3usize, 4usize, 6usize);
        let daemon = MemoryDaemon::spawn(
            MemoryState::new(nodes, d_mem, mail_dim), 1, 1, script.len(), 1,
        );
        let client = daemon.client(0);
        let mut reference = MemoryState::new(nodes, d_mem, mail_dim);
        for step in &script {
            let got = full(&client, &[step.node]);
            let want = reference.read(&[step.node]);
            prop_assert_eq!(got.mem, want.mem);
            prop_assert_eq!(got.mail_ts, want.mail_ts);
            client.write(write_of(step, d_mem, mail_dim)).unwrap();
            reference.write(&write_of(step, d_mem, mail_dim));
        }
        let (state, stats) = daemon.join();
        let all: Vec<u32> = (0..nodes as u32).collect();
        prop_assert_eq!(state.read(&all).mem, reference.read(&all).mem);
        prop_assert_eq!(stats.writes_served as usize, script.len());
    }

    /// j-subgroup daemon with threads ≡ sequential replay in the
    /// serialized turn order, for arbitrary write contents.
    #[test]
    fn multi_subgroup_daemon_equals_turn_order_replay(script in steps(12, 8), j in 2usize..4) {
        let (d_mem, mail_dim, nodes) = (2usize, 3usize, 8usize);
        let turns = script.len();
        let daemon = MemoryDaemon::spawn(
            MemoryState::new(nodes, d_mem, mail_dim), 1, j, turns, 1,
        );
        // Rank r serves turns t ≡ r (mod j); thread per rank.
        let mut handles = Vec::new();
        for rank in 0..j {
            let client = daemon.client(rank);
            let mine: Vec<(usize, Step)> = script
                .iter()
                .cloned()
                .enumerate()
                .filter(|(t, _)| t % j == rank)
                .collect();
            handles.push(std::thread::spawn(move || {
                for (_, step) in mine {
                    let _ = full(&client, &[step.node]);
                    client.write(write_of(&step, 2, 3)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (state, _) = daemon.join();

        let mut reference = MemoryState::new(nodes, d_mem, mail_dim);
        for step in &script {
            let _ = reference.read(&[step.node]);
            reference.write(&write_of(step, d_mem, mail_dim));
        }
        let all: Vec<u32> = (0..nodes as u32).collect();
        prop_assert_eq!(state.read(&all).mem, reference.read(&all).mem);
        prop_assert_eq!(state.read(&all).mail, reference.read(&all).mail);
    }

    /// Reads never tear: a read returns, for every node, a (mem, mail)
    /// pair written by one single write (here: value and 2·value).
    #[test]
    fn reads_are_atomic_pairs(script in steps(10, 4)) {
        let (d_mem, mail_dim, nodes) = (2usize, 2usize, 4usize);
        let daemon = MemoryDaemon::spawn(
            MemoryState::new(nodes, d_mem, mail_dim), 1, 1, script.len(), 1,
        );
        let client = daemon.client(0);
        for step in &script {
            let r = full(&client, &[step.node]);
            let mem_v = r.mem.get(0, 0);
            let mail_v = r.mail.get(0, 0);
            prop_assert!((mail_v - 2.0 * mem_v).abs() < 1e-5,
                "torn read: mem {} mail {}", mem_v, mail_v);
            client.write(write_of(step, d_mem, mail_dim)).unwrap();
        }
        let _ = daemon.join();
    }

    /// Speculative read + in-place repair ≡ the serialized read it
    /// replaces, for arbitrary write scripts and read sets — the
    /// version-vector contract, exercised through the daemon protocol
    /// (speculations pinned pre-write for a maximal staleness window).
    #[test]
    fn speculation_plus_delta_equals_serialized_read(
        script in steps(10, 6),
        read_set in proptest::collection::vec(0u32..6, 1..5),
    ) {
        let (d_mem, mail_dim, nodes) = (2usize, 3usize, 6usize);
        let daemon = MemoryDaemon::spawn(
            MemoryState::new(nodes, d_mem, mail_dim), 1, 1, script.len(), 1,
        );
        let client = daemon.client(0);
        let mut reference = MemoryState::new(nodes, d_mem, mail_dim);
        reference.reset(); // mirror the daemon's epoch-start reset
        let mut tagged: Option<VersionedReadout> = None;
        for step in &script {
            match tagged.take() {
                None => { let _ = full(&client, &read_set); }
                Some(tagged) => {
                    let mut patched = tagged.readout;
                    let req = ReadRequest::Repair {
                        nodes: read_set.clone(),
                        versions: tagged.versions,
                        bound: None,
                    };
                    client.read(req, &mut patched).unwrap();
                    let want = reference.read(&read_set);
                    prop_assert_eq!(patched.mem, want.mem);
                    prop_assert_eq!(patched.mail, want.mail);
                    prop_assert_eq!(patched.mem_ts, want.mem_ts);
                    prop_assert_eq!(patched.mail_ts, want.mail_ts);
                }
            }
            // Speculate for the next turn, collected before this
            // turn's write posts (guaranteed stale window).
            client.speculate_read(&read_set, VersionedReadout::default());
            tagged = Some(client.take_speculation().unwrap());
            client.write(write_of(step, d_mem, mail_dim)).unwrap();
            reference.write(&write_of(step, d_mem, mail_dim));
        }
        // The final collected speculation is simply dropped unused.
        let (state, stats) = daemon.join();
        let all: Vec<u32> = (0..nodes as u32).collect();
        prop_assert_eq!(state.read(&all).mem, reference.read(&all).mem);
        prop_assert_eq!(stats.delta_reads_served as usize, script.len() - 1);
    }

    /// Epoch resets zero the state between epochs for any script.
    #[test]
    fn epoch_resets_between_epochs(script in steps(4, 4)) {
        let (d_mem, mail_dim) = (2usize, 2usize);
        let daemon = MemoryDaemon::spawn(
            MemoryState::new(4, d_mem, mail_dim), 1, 1, script.len(), 2,
        );
        let client = daemon.client(0);
        for epoch in 0..2 {
            for (t, step) in script.iter().enumerate() {
                let r = full(&client, &[step.node]);
                if t == 0 || script[..t].iter().all(|s| s.node != step.node) {
                    // First touch of the node this epoch must read zero.
                    prop_assert_eq!(r.mem.get(0, 0), 0.0, "epoch {} step {}", epoch, t);
                }
                client.write(write_of(step, d_mem, mail_dim)).unwrap();
            }
        }
        let _ = daemon.join();
    }
}
