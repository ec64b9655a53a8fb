//! # disttgl-tensor
//!
//! Dense `f32` tensor substrate for the DistTGL reproduction.
//!
//! The DistTGL paper runs on PyTorch; this crate is the minimal
//! replacement needed by a memory-based temporal GNN: a row-major 2-D
//! [`Matrix`] with the kernels the model's forward *and hand-written
//! backward* passes need — matmul (register-tiled, row-split across
//! threads when the caller's budget allows), elementwise arithmetic,
//! activations, row-wise softmax, row gather/scatter, and column
//! concatenation.
//!
//! Design notes (following the hpc-parallel guides):
//! * storage is a single contiguous `Vec<f32>` — no per-row allocation;
//! * hot kernels take `&mut` outputs so callers can reuse buffers;
//! * every kernel runs on the calling thread except a large GEMM, whose
//!   output rows are split across [`par`]'s helper pool up to the
//!   calling thread's *intra-op budget*. The budget is 1 unless the
//!   executor that owns the thread raises it, and executors give out
//!   only the cores their own concurrently computing threads leave
//!   free (the *inter*-trainer parallelism of `disttgl-cluster` comes
//!   first), so a split never oversubscribes the host;
//! * all random initialization is seeded (`rand_chacha`) so every
//!   experiment in the paper-reproduction harness is deterministic.
//!
//! ## The fixed-reduction-order determinism contract
//!
//! Every floating-point reduction in this crate sums in an order
//! decided by the *kernel structure*, never by the data, thread
//! schedule, or instruction set: dots and sums use eight fixed
//! accumulator lanes with a fixed fold tree and a serial remainder
//! tail; matmul variants accumulate each output element in ascending
//! inner-index order regardless of cache blocking. Which thread
//! computes an element is free, so the intra-op budget never changes
//! a bit. In [`kernels`] the elementwise kernels and `row_max` have
//! one body each, which the compiler builds a second time for AVX2;
//! only `dot` and the two GEMM bodies keep hand-written AVX2 twins,
//! which map those lanes 1:1 onto `__m256` registers (multiply then
//! add, never fused). So **SIMD-on and SIMD-off runs are
//! bit-identical** — running on a CPU without AVX2, setting
//! `DISTTGL_SIMD=0`, or calling [`kernels::force_scalar`] reproduces
//! the exact same training trajectory. The cross-executor equivalence
//! suites in `disttgl-core` rely on this contract.
//!
//! ## Quantized memory: recoverable, not exact
//!
//! The [`bf16`] module backs the opt-in `quantized_memory` mode of
//! the model config: node-memory and mailbox rows are *stored* as
//! bfloat16 (half the bytes, ≤ 2⁻⁸ relative rounding per write) while
//! all compute stays f32. This trades bounded, measured accuracy
//! deltas for ~2× less gather/daemon traffic — a *recoverable*
//! approximation in the same spirit as the paper's staleness
//! tolerance, unlike the f32 default which is part of the bit-exact
//! determinism contract above.

mod activations;
pub mod bf16;
mod init;
pub mod kernels;
mod linalg;
mod matrix;
mod ops;
pub mod par;
mod rows;
pub mod timing;

pub use activations::sigmoid_scalar;
pub use init::seeded_rng;
pub use matrix::Matrix;
