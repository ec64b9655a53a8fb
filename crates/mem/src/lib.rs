//! # disttgl-mem
//!
//! The node-memory subsystem of DistTGL (paper §3.3).
//!
//! M-TGNN training keeps two per-node auxiliary stores that must be
//! read and written in strict chronological order:
//!
//! * **node memory** `s_v` — the GRU hidden state (plus its last-update
//!   timestamp, needed for Δt in the attention);
//! * **cached mails** `m_v` — the raw message of each node's most
//!   recent event, applied *one batch late* to avoid the information
//!   leak (the "reversed computation order" of §2.1).
//!
//! [`MemoryState`] is the plain synchronous store (what the TGN
//! baseline uses). [`MemoryDaemon`] reproduces the paper's Algorithm 1:
//! a dedicated thread owns the store and serves read/write requests
//! from an `i × j` trainer group through shared buffers guarded by
//! atomic status words, executing them in the serialized order
//! `(R₀..Rᵢ₋₁)(W₀..Wᵢ₋₁)(Rᵢ..)(Wᵢ..)…` — one sub-group of `i` trainers
//! at a time, cycling through the `j` epoch-parallel sub-groups. This
//! replaces an expensive cross-process lock with single-writer
//! polling, and lets mini-batch preparation overlap GPU (here: math)
//! compute.
//!
//! Note: the paper's Algorithm 1 pseudo-code iterates `r ∈ [rank,
//! rank+j)`; the worked access sequence in §3.3 groups requests by the
//! mini-batch-parallel sub-group of size `i`. We follow the access
//! sequence (sub-groups of `i`), which is the only reading consistent
//! with the `(R0R1)(W0W1)(R2R3)(W2W3)` example for `i×j = 2×2`.
//!
//! Both stores are **write-tracked**: every applied [`MemoryWrite`]
//! (and epoch reset) stamps a monotone version onto the touched nodes,
//! so a reader holding the version vector of an earlier gather can
//! repair exactly the rows rewritten since, in place
//! ([`MemoryState::repair`], or [`ReadRequest::Repair`] through
//! [`MemoryClient::read`]). The daemon uses this to serve
//! **speculative out-of-turn reads** while it would otherwise idle —
//! the speculative read → repair lifecycle documented in the `daemon`
//! module docs — which lets distributed trainers overlap the
//! serialized phase-2 gather with compute without changing any
//! training result.

mod daemon;
mod state;

pub use daemon::{
    DaemonError, DaemonOptions, DaemonStats, MemoryClient, MemoryDaemon, ReadRequest,
};
pub use state::{MemoryReadout, MemoryState, MemoryWrite, RepairOutcome, VersionedReadout};
