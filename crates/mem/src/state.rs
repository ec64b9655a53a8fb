//! The write-tracked node-memory + mailbox store.
//!
//! Every mutation ([`MemoryState::write`] and the epoch
//! [`MemoryState::reset`]) bumps a monotone **write sequence** and
//! stamps it onto the touched nodes' per-node versions. A reader that
//! records the version vector of its gather
//! ([`MemoryState::read_versioned`]) can later repair exactly the rows
//! rewritten since, in place ([`MemoryState::repair`]) — the primitive
//! the memory daemon's speculative-read / repair protocol is built on.
//!
//! The store has two row representations: exact **f32** (the default,
//! part of the bit-reproducibility contract) and opt-in **bf16**
//! ([`MemoryState::new_quantized`]), which halves the resident bytes
//! of memory + mailbox rows and therefore every gather/daemon payload
//! sourced from them. Quantization is applied at *write* time
//! (round-to-nearest-even, ≤ 2⁻⁸ relative error); reads always decode
//! to f32, so all compute stays full-precision and a quantized store
//! consistently presents values on the bf16 grid — re-quantizing them
//! (e.g. on checkpoint restore via [`MemoryState::into_quantized`])
//! is lossless. Timestamps and versions are never quantized.

use disttgl_tensor::bf16::{bf16_decode, bf16_encode};
use disttgl_tensor::Matrix;
use std::borrow::Cow;

/// A read result for a batch of nodes: gathered memory rows, mail rows,
/// and their timestamps, in query order.
#[derive(Clone, Debug, Default)]
pub struct MemoryReadout {
    /// Node memory rows, `nodes × d_mem`.
    pub mem: Matrix,
    /// Last-update timestamp of each node's memory.
    pub mem_ts: Vec<f32>,
    /// Cached mail rows, `nodes × mail_dim`.
    pub mail: Matrix,
    /// Timestamp of each cached mail (0 when none has arrived yet).
    pub mail_ts: Vec<f32>,
}

/// A readout tagged with the version vector it was gathered at:
/// `versions[r]` is the write version of row `r`'s node at gather
/// time. Hand both back to [`MemoryState::repair`] (or to the daemon's
/// `ReadRequest::Repair`) to bring the readout up to a later state.
#[derive(Clone, Debug, Default)]
pub struct VersionedReadout {
    /// The gathered rows, in query order.
    pub readout: MemoryReadout,
    /// Per-row write version at gather time (`len == rows`).
    pub versions: Vec<u64>,
}

/// A write request: new memory and mail rows for `nodes` (the batch's
/// root nodes only — supporting nodes are never written back, §3.2.1).
#[derive(Clone, Debug, Default)]
pub struct MemoryWrite {
    /// Target node ids.
    pub nodes: Vec<u32>,
    /// New memory rows, `nodes.len() × d_mem`.
    pub mem: Matrix,
    /// New memory timestamps.
    pub mem_ts: Vec<f32>,
    /// New mail rows, `nodes.len() × mail_dim`.
    pub mail: Matrix,
    /// New mail timestamps.
    pub mail_ts: Vec<f32>,
}

/// Row storage for one table (memory or mailbox): exact f32 rows or
/// the bf16-quantized representation at half the bytes. All public
/// traffic is f32 — `Bf16` decodes on read and encodes (RNE) on
/// write, so the representation is invisible to callers except
/// through [`MemoryState::bytes`] and the bounded rounding of stored
/// values.
#[derive(Clone, Debug)]
enum RowStore {
    F32(Matrix),
    Bf16 {
        data: Vec<u16>,
        rows: usize,
        cols: usize,
    },
}

impl RowStore {
    fn zeros(rows: usize, cols: usize, quantized: bool) -> Self {
        if quantized {
            // bf16 zero is the zero bit pattern.
            RowStore::Bf16 {
                data: vec![0u16; rows * cols],
                rows,
                cols,
            }
        } else {
            RowStore::F32(Matrix::zeros(rows, cols))
        }
    }

    fn is_quantized(&self) -> bool {
        matches!(self, RowStore::Bf16 { .. })
    }

    /// Bytes of one stored element (4 exact, 2 quantized).
    fn elem_bytes(&self) -> usize {
        match self {
            RowStore::F32(_) => std::mem::size_of::<f32>(),
            RowStore::Bf16 { .. } => std::mem::size_of::<u16>(),
        }
    }

    fn byte_len(&self) -> usize {
        match self {
            RowStore::F32(m) => m.len() * std::mem::size_of::<f32>(),
            RowStore::Bf16 { data, .. } => data.len() * std::mem::size_of::<u16>(),
        }
    }

    fn zero(&mut self) {
        match self {
            RowStore::F32(m) => m.zero(),
            RowStore::Bf16 { data, .. } => data.fill(0),
        }
    }

    /// Gathers `idx` rows into an f32 matrix (resized in place),
    /// decoding when quantized.
    fn gather_into(&self, idx: &[usize], out: &mut Matrix) {
        match self {
            RowStore::F32(m) => m.gather_rows_into(idx, out),
            RowStore::Bf16 { data, rows, cols } => {
                out.resize_for_overwrite(idx.len(), *cols);
                for (dst, &src) in idx.iter().enumerate() {
                    assert!(src < *rows, "gather: index {} out of {}", src, rows);
                    let enc = &data[src * cols..(src + 1) * cols];
                    for (o, &e) in out.row_mut(dst).iter_mut().zip(enc) {
                        *o = bf16_decode(e);
                    }
                }
            }
        }
    }

    /// Decodes row `i` into `out`.
    fn copy_row_into(&self, i: usize, out: &mut [f32]) {
        match self {
            RowStore::F32(m) => out.copy_from_slice(m.row(i)),
            RowStore::Bf16 { data, cols, .. } => {
                let enc = &data[i * cols..(i + 1) * cols];
                for (o, &e) in out.iter_mut().zip(enc) {
                    *o = bf16_decode(e);
                }
            }
        }
    }

    /// Overwrites rows `idx[r]` with row `r` of `src` (later
    /// duplicates win), encoding when quantized — the single lossy
    /// step of the quantized store.
    fn scatter_from(&mut self, idx: &[usize], src: &Matrix) {
        match self {
            RowStore::F32(m) => m.scatter_rows(idx, src),
            RowStore::Bf16 { data, rows, cols } => {
                assert_eq!(idx.len(), src.rows(), "scatter: count mismatch");
                assert_eq!(*cols, src.cols(), "scatter: width mismatch");
                for (r, &dst) in idx.iter().enumerate() {
                    assert!(dst < *rows, "scatter: index {} out of {}", dst, rows);
                    let enc = &mut data[dst * *cols..(dst + 1) * *cols];
                    for (e, &v) in enc.iter_mut().zip(src.row(r)) {
                        *e = bf16_encode(v);
                    }
                }
            }
        }
    }

    /// Folds the *presented* (decoded) bit patterns into a digest
    /// callback, so checksums compare what readers observe regardless
    /// of representation.
    fn fold_bits(&self, fold: &mut impl FnMut(u32)) {
        match self {
            RowStore::F32(m) => {
                for &v in m.as_slice() {
                    fold(v.to_bits());
                }
            }
            RowStore::Bf16 { data, .. } => {
                for &e in data {
                    fold(bf16_decode(e).to_bits());
                }
            }
        }
    }

    /// The full table as an f32 matrix: borrowed for the exact store,
    /// decoded into a fresh matrix for the quantized one.
    fn to_matrix(&self) -> Cow<'_, Matrix> {
        match self {
            RowStore::F32(m) => Cow::Borrowed(m),
            RowStore::Bf16 { data, rows, cols } => {
                let mut m = Matrix::zeros(*rows, *cols);
                for (o, &e) in m.as_mut_slice().iter_mut().zip(data) {
                    *o = bf16_decode(e);
                }
                Cow::Owned(m)
            }
        }
    }

    /// Converts to the bf16 representation (no-op if already there).
    /// Lossless exactly when every value is already on the bf16 grid
    /// — true for any matrix previously decoded from bf16, which is
    /// what makes checkpointing through the exact f32 format
    /// round-trip-faithful for quantized stores.
    fn into_quantized(self) -> Self {
        match self {
            RowStore::F32(m) => {
                let (rows, cols) = m.shape();
                let data = m.as_slice().iter().map(|&v| bf16_encode(v)).collect();
                RowStore::Bf16 { data, rows, cols }
            }
            q @ RowStore::Bf16 { .. } => q,
        }
    }
}

/// Accounting from a repair ([`MemoryState::repair`]): how many rows
/// were repaired exactly vs admitted stale, the lag distribution of the admitted
/// rows, and which readout rows they are (for trainer-side staleness
/// compensation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Rows beyond the bound (or tagged pre-reset) that were repaired
    /// exactly — "repairs paid".
    pub repaired: usize,
    /// Stale rows within the bound that kept their tagged value —
    /// "repairs skipped".
    pub admitted_stale: usize,
    /// Largest version lag among admitted rows (0 when none admitted).
    pub max_lag: u64,
    /// Sum of version lags over admitted rows (mean = sum / admitted).
    pub lag_sum: u64,
    /// Readout row indices (not node ids) of the admitted-stale rows.
    pub admitted_rows: Vec<u32>,
}

/// Dense node-memory + mailbox store for one memory replica.
///
/// Memory-parallel training (`k > 1`) instantiates `k` of these; the
/// paper's Table 1 "Main memory requirement: k times single-GPU" is
/// exactly this replication.
#[derive(Clone, Debug)]
pub struct MemoryState {
    num_nodes: usize,
    d_mem: usize,
    mail_dim: usize,
    mem: RowStore,
    mem_ts: Vec<f32>,
    mail: RowStore,
    mail_ts: Vec<f32>,
    /// Monotone write sequence, bumped once per applied write/reset.
    write_seq: u64,
    /// Write version of each node's last mutation (0 = never written).
    node_version: Vec<u64>,
    /// Write sequence of the most recent [`MemoryState::reset`] (0 =
    /// never reset). Bounded-staleness admission refuses any row whose
    /// tagged version predates this: a reset rewrites *semantics* (a
    /// new epoch), not just values, so pre-reset rows always repair.
    last_reset_seq: u64,
}

impl MemoryState {
    /// Allocates a zeroed store (`s_v` initialized to zero vectors,
    /// §2.1) in the exact f32 representation.
    pub fn new(num_nodes: usize, d_mem: usize, mail_dim: usize) -> Self {
        Self::with_representation(num_nodes, d_mem, mail_dim, false)
    }

    /// Allocates a zeroed store with bf16-quantized memory and mailbox
    /// rows — half the resident bytes, writes rounded to nearest-even
    /// (≤ 2⁻⁸ relative). The `ModelConfig::quantized_memory` backing.
    pub fn new_quantized(num_nodes: usize, d_mem: usize, mail_dim: usize) -> Self {
        Self::with_representation(num_nodes, d_mem, mail_dim, true)
    }

    fn with_representation(
        num_nodes: usize,
        d_mem: usize,
        mail_dim: usize,
        quantized: bool,
    ) -> Self {
        Self {
            num_nodes,
            d_mem,
            mail_dim,
            mem: RowStore::zeros(num_nodes, d_mem, quantized),
            mem_ts: vec![0.0; num_nodes],
            mail: RowStore::zeros(num_nodes, mail_dim, quantized),
            mail_ts: vec![0.0; num_nodes],
            write_seq: 0,
            node_version: vec![0; num_nodes],
            last_reset_seq: 0,
        }
    }

    /// Converts the store to the bf16 representation in place
    /// (identity if already quantized). Values already on the bf16
    /// grid — in particular anything restored from a checkpoint of a
    /// quantized store — convert losslessly.
    pub fn into_quantized(mut self) -> Self {
        self.mem = self.mem.into_quantized();
        self.mail = self.mail.into_quantized();
        self
    }

    /// Whether rows are stored as bf16.
    pub fn quantized(&self) -> bool {
        self.mem.is_quantized()
    }

    /// Bytes of one stored row element (4 exact, 2 quantized) — the
    /// factor behind gather/daemon payload accounting.
    pub fn elem_bytes(&self) -> usize {
        self.mem.elem_bytes()
    }

    /// Modeled wire bytes of one full row payload as stored: memory +
    /// mail elements at the store's width plus the two f32 timestamps.
    /// The daemon multiplies this by rows served to report its
    /// payload traffic.
    pub fn row_payload_bytes(&self) -> usize {
        (self.d_mem + self.mail_dim) * self.elem_bytes() + 2 * std::mem::size_of::<f32>()
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Memory width.
    pub fn d_mem(&self) -> usize {
        self.d_mem
    }

    /// Mail width (`2·d_mem + d_time + d_edge`).
    pub fn mail_dim(&self) -> usize {
        self.mail_dim
    }

    /// Resets everything to zero (epoch boundary). The reset counts as
    /// a write of every node — a repair taken across it rewrites every
    /// requested row, so tagged reads stay exact across epochs.
    pub fn reset(&mut self) {
        self.mem.zero();
        self.mem_ts.fill(0.0);
        self.mail.zero();
        self.mail_ts.fill(0.0);
        self.write_seq += 1;
        self.node_version.fill(self.write_seq);
        self.last_reset_seq = self.write_seq;
    }

    /// Current write sequence (bumped by every write and reset).
    pub fn version(&self) -> u64 {
        self.write_seq
    }

    /// Gathers rows for `nodes` in query order.
    pub fn read(&self, nodes: &[u32]) -> MemoryReadout {
        let mut out = MemoryReadout::default();
        self.read_into(nodes, &mut out);
        out
    }

    /// [`MemoryState::read`] into a caller-owned readout (matrices and
    /// timestamp vectors resized in place) — the scratch-arena variant
    /// for hot loops that would otherwise allocate a fresh readout per
    /// turn.
    pub fn read_into(&self, nodes: &[u32], out: &mut MemoryReadout) {
        let idx: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
        self.mem.gather_into(&idx, &mut out.mem);
        self.mail.gather_into(&idx, &mut out.mail);
        out.mem_ts.clear();
        out.mem_ts.extend(idx.iter().map(|&i| self.mem_ts[i]));
        out.mail_ts.clear();
        out.mail_ts.extend(idx.iter().map(|&i| self.mail_ts[i]));
    }

    /// Gathers rows for `nodes` together with the version vector they
    /// were read at (see [`VersionedReadout`]).
    pub fn read_versioned(&self, nodes: &[u32]) -> VersionedReadout {
        let mut out = VersionedReadout::default();
        self.read_versioned_into(nodes, &mut out);
        out
    }

    /// [`MemoryState::read_versioned`] into a caller-owned buffer.
    pub fn read_versioned_into(&self, nodes: &[u32], out: &mut VersionedReadout) {
        self.read_into(nodes, &mut out.readout);
        out.versions.clear();
        out.versions
            .extend(nodes.iter().map(|&n| self.node_version[n as usize]));
    }

    /// Repairs `out` — a readout of `nodes` tagged with `versions` —
    /// in place against the current state: row `r` is stale iff
    /// `nodes[r]`'s write version exceeds `versions[r]`, and a stale
    /// row is overwritten straight from the store (one copy per row,
    /// nothing materialized).
    ///
    /// A stale row whose version lag (`node_version − versions[r]`) is
    /// at most `bound` is instead **admitted** — left at its tagged
    /// value and recorded in the outcome. `bound = 0` admits nothing
    /// (a stale row has lag ≥ 1), so the repaired readout equals a
    /// serialized read of `nodes` now, bit for bit: exact repair is
    /// the k = 0 case of bounded repair. Rows tagged before the last
    /// [`MemoryState::reset`] are never admitted regardless of lag: a
    /// reset starts a new epoch, and pre-reset values are semantically
    /// unrelated, not merely stale.
    ///
    /// # Panics
    /// Panics on length mismatches between `nodes`, `versions`, and
    /// `out`.
    pub fn repair(
        &self,
        nodes: &[u32],
        versions: &[u64],
        out: &mut MemoryReadout,
        bound: u64,
    ) -> RepairOutcome {
        assert_eq!(nodes.len(), versions.len(), "repair: version vector length");
        assert_eq!(out.mem.rows(), nodes.len(), "repair: readout rows");
        let mut outcome = RepairOutcome::default();
        for (r, (&n, &v)) in nodes.iter().zip(versions).enumerate() {
            let i = n as usize;
            let cur = self.node_version[i];
            if cur > v {
                let lag = cur - v;
                if lag <= bound && v >= self.last_reset_seq {
                    outcome.admitted_stale += 1;
                    outcome.lag_sum += lag;
                    outcome.max_lag = outcome.max_lag.max(lag);
                    outcome.admitted_rows.push(r as u32);
                } else {
                    self.mem.copy_row_into(i, out.mem.row_mut(r));
                    self.mail.copy_row_into(i, out.mail.row_mut(r));
                    out.mem_ts[r] = self.mem_ts[i];
                    out.mail_ts[r] = self.mail_ts[i];
                    outcome.repaired += 1;
                }
            }
        }
        outcome
    }

    /// Applies a write. Duplicate nodes resolve to the **last**
    /// occurrence (chronological order ⇒ most recent mail wins, the
    /// TGN-attn `COMB`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn write(&mut self, w: &MemoryWrite) {
        assert_eq!(w.mem.rows(), w.nodes.len(), "write: mem rows");
        assert_eq!(w.mail.rows(), w.nodes.len(), "write: mail rows");
        assert_eq!(w.mem_ts.len(), w.nodes.len(), "write: mem_ts len");
        assert_eq!(w.mail_ts.len(), w.nodes.len(), "write: mail_ts len");
        assert_eq!(w.mem.cols(), self.d_mem, "write: d_mem");
        assert_eq!(w.mail.cols(), self.mail_dim, "write: mail_dim");
        let idx: Vec<usize> = w.nodes.iter().map(|&n| n as usize).collect();
        self.mem.scatter_from(&idx, &w.mem);
        self.mail.scatter_from(&idx, &w.mail);
        for (&i, (&mts, &lts)) in idx.iter().zip(w.mem_ts.iter().zip(&w.mail_ts)) {
            self.mem_ts[i] = mts;
            self.mail_ts[i] = lts;
        }
        self.write_seq += 1;
        for &i in &idx {
            self.node_version[i] = self.write_seq;
        }
    }

    /// Byte size of one full replica (for the Table 1 memory-footprint
    /// accounting and the planner's capacity constraint); includes the
    /// per-node write-version vector. Reflects the row representation:
    /// a quantized store reports half the row bytes.
    pub fn bytes(&self) -> usize {
        self.mem.byte_len()
            + self.mail.byte_len()
            + (self.mem_ts.len() + self.mail_ts.len()) * std::mem::size_of::<f32>()
            + self.node_version.len() * std::mem::size_of::<u64>()
    }

    /// Order-sensitive FNV-1a digest of the store's *contents* (memory,
    /// mails, timestamps — bit patterns, not float compares; versions
    /// excluded). Two states with equal checksums trained through the
    /// same f32 operations are bit-identical with overwhelming
    /// probability; the equivalence tests compare these across
    /// executor variants.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bits: u32| {
            for b in bits.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        self.mem.fold_bits(&mut fold);
        for &v in &self.mem_ts {
            fold(v.to_bits());
        }
        self.mail.fold_bits(&mut fold);
        for &v in &self.mail_ts {
            fold(v.to_bits());
        }
        h
    }

    /// The full memory matrix as f32 (evaluation sweeps,
    /// checkpointing): borrowed from the exact store, decoded for the
    /// quantized one.
    pub fn mem_matrix(&self) -> Cow<'_, Matrix> {
        self.mem.to_matrix()
    }

    /// Direct access to all memory timestamps.
    pub fn mem_ts_all(&self) -> &[f32] {
        &self.mem_ts
    }

    /// The full mail matrix as f32 (checkpointing); see
    /// [`MemoryState::mem_matrix`].
    pub fn mail_matrix(&self) -> Cow<'_, Matrix> {
        self.mail.to_matrix()
    }

    /// Direct access to all mail timestamps (checkpointing).
    pub fn mail_ts_all(&self) -> &[f32] {
        &self.mail_ts
    }

    /// Per-node write versions (checkpointing; `0` = never written).
    pub fn node_versions(&self) -> &[u64] {
        &self.node_version
    }

    /// Reassembles a state from the exact parts a snapshot captured —
    /// the inverse of reading `mem_matrix`/`mail_matrix`/the timestamp
    /// slices/`node_versions`/`version`. Restored states answer every
    /// read and repair bit-identically to the original,
    /// which is what makes checkpoint restore transparent to the
    /// daemon's speculative-read protocol. Always restores the exact
    /// f32 representation; a quantized trainer chains
    /// [`MemoryState::into_quantized`], which is lossless on the
    /// bf16-grid values a quantized store checkpoints.
    ///
    /// # Panics
    /// Panics if the part shapes disagree with each other (callers
    /// deserializing external data validate shapes first).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        mem: Matrix,
        mem_ts: Vec<f32>,
        mail: Matrix,
        mail_ts: Vec<f32>,
        write_seq: u64,
        node_version: Vec<u64>,
    ) -> Self {
        let num_nodes = mem.rows();
        assert_eq!(mail.rows(), num_nodes, "from_parts: mail rows");
        assert_eq!(mem_ts.len(), num_nodes, "from_parts: mem_ts len");
        assert_eq!(mail_ts.len(), num_nodes, "from_parts: mail_ts len");
        assert_eq!(
            node_version.len(),
            num_nodes,
            "from_parts: node_version len"
        );
        let d_mem = mem.cols();
        let mail_dim = mail.cols();
        Self {
            num_nodes,
            d_mem,
            mail_dim,
            mem: RowStore::F32(mem),
            mem_ts,
            mail: RowStore::F32(mail),
            mail_ts,
            write_seq,
            node_version,
            // Restored conservatively as "never reset". Safe: no
            // speculation spans a checkpoint restore, and the first
            // post-restore reset re-stamps it before any bounded
            // admission could consult it.
            last_reset_seq: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_of(nodes: Vec<u32>, d_mem: usize, mail_dim: usize, fill: f32, ts: f32) -> MemoryWrite {
        let n = nodes.len();
        MemoryWrite {
            nodes,
            mem: Matrix::full(n, d_mem, fill),
            mem_ts: vec![ts; n],
            mail: Matrix::full(n, mail_dim, fill * 2.0),
            mail_ts: vec![ts + 1.0; n],
        }
    }

    #[test]
    fn fresh_store_reads_zeros() {
        let s = MemoryState::new(5, 3, 7);
        let r = s.read(&[0, 4, 2]);
        assert_eq!(r.mem.shape(), (3, 3));
        assert_eq!(r.mail.shape(), (3, 7));
        assert!(r.mem.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(r.mem_ts, vec![0.0; 3]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = MemoryState::new(5, 2, 4);
        s.write(&write_of(vec![1, 3], 2, 4, 0.5, 10.0));
        let r = s.read(&[3, 1, 0]);
        assert_eq!(r.mem.row(0), &[0.5, 0.5]);
        assert_eq!(r.mem.row(1), &[0.5, 0.5]);
        assert_eq!(r.mem.row(2), &[0.0, 0.0]);
        assert_eq!(r.mem_ts, vec![10.0, 10.0, 0.0]);
        assert_eq!(r.mail_ts, vec![11.0, 11.0, 0.0]);
    }

    #[test]
    fn duplicate_write_last_wins() {
        let mut s = MemoryState::new(3, 1, 1);
        let w = MemoryWrite {
            nodes: vec![2, 2],
            mem: Matrix::from_vec(2, 1, vec![1.0, 9.0]),
            mem_ts: vec![1.0, 2.0],
            mail: Matrix::from_vec(2, 1, vec![10.0, 90.0]),
            mail_ts: vec![1.0, 2.0],
        };
        s.write(&w);
        let r = s.read(&[2]);
        assert_eq!(r.mem.get(0, 0), 9.0);
        assert_eq!(r.mail.get(0, 0), 90.0);
        assert_eq!(r.mem_ts[0], 2.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = MemoryState::new(4, 2, 2);
        s.write(&write_of(vec![0, 1, 2, 3], 2, 2, 1.0, 5.0));
        s.reset();
        let r = s.read(&[0, 1, 2, 3]);
        assert!(r.mem.as_slice().iter().all(|&v| v == 0.0));
        assert!(r.mail.as_slice().iter().all(|&v| v == 0.0));
        assert!(r.mem_ts.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bytes_scales_with_nodes() {
        let a = MemoryState::new(100, 10, 20).bytes();
        let b = MemoryState::new(200, 10, 20).bytes();
        assert_eq!(b, a * 2);
    }

    #[test]
    #[should_panic(expected = "write: d_mem")]
    fn write_width_mismatch_panics() {
        let mut s = MemoryState::new(3, 2, 2);
        s.write(&write_of(vec![0], 3, 2, 1.0, 0.0));
    }

    #[test]
    fn versions_track_writes_per_node() {
        let mut s = MemoryState::new(4, 1, 1);
        assert_eq!(s.version(), 0);
        s.write(&write_of(vec![0, 2], 1, 1, 1.0, 1.0));
        s.write(&write_of(vec![2], 1, 1, 2.0, 2.0));
        let vr = s.read_versioned(&[0, 1, 2]);
        assert_eq!(vr.versions, vec![1, 0, 2]);
        assert_eq!(s.version(), 2);
        assert_eq!(vr.readout.mem.get(2, 0), 2.0);
    }

    #[test]
    fn delta_since_returns_exactly_rewritten_rows() {
        let mut s = MemoryState::new(6, 2, 2);
        s.write(&write_of(vec![0, 1, 2], 2, 2, 1.0, 1.0));
        let nodes = [0u32, 3, 1, 5];
        let tagged = s.read_versioned(&nodes);
        // Rewrite node 1 and (newly) node 5.
        s.write(&write_of(vec![1, 5], 2, 2, 9.0, 9.0));
        let mut patched = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut patched, 0);
        assert_eq!(outcome.repaired, 2);
        // Exactly rows 2 and 3 (nodes 1 and 5) were rewritten.
        assert_eq!(patched.mem.row(0), tagged.readout.mem.row(0));
        assert_eq!(patched.mem.row(1), tagged.readout.mem.row(1));
        assert_eq!(patched.mem.row(2), &[9.0, 9.0]);
        assert_eq!(patched.mem.row(3), &[9.0, 9.0]);
        // The repaired readout reproduces a serialized read bit for bit.
        let serialized = s.read(&nodes);
        assert_eq!(patched.mem, serialized.mem);
        assert_eq!(patched.mail, serialized.mail);
        assert_eq!(patched.mem_ts, serialized.mem_ts);
        assert_eq!(patched.mail_ts, serialized.mail_ts);
    }

    #[test]
    fn repair_since_matches_delta_apply() {
        let mut s = MemoryState::new(6, 2, 3);
        s.write(&write_of(vec![0, 1, 2, 4], 2, 3, 1.0, 1.0));
        let nodes = [4u32, 0, 5, 1];
        let tagged = s.read_versioned(&nodes);
        s.write(&write_of(vec![1, 5, 3], 2, 3, 8.0, 8.0));

        let mut via_repair = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut via_repair, 0);

        // Nodes 5 and 1 were rewritten; node 3 is not in the read set.
        assert_eq!(outcome.repaired, 2);
        let serialized = s.read(&nodes);
        assert_eq!(via_repair.mem, serialized.mem);
        assert_eq!(via_repair.mail, serialized.mail);
        assert_eq!(via_repair.mem_ts, serialized.mem_ts);
        assert_eq!(via_repair.mail_ts, serialized.mail_ts);
    }

    #[test]
    fn repair_lagged_bound_zero_is_repair_since() {
        let mut s = MemoryState::new(6, 2, 3);
        s.write(&write_of(vec![0, 1, 2, 4], 2, 3, 1.0, 1.0));
        let nodes = [4u32, 0, 5, 1];
        let tagged = s.read_versioned(&nodes);
        // Node 1 now lags by one write, never-written node 5 by two.
        s.write(&write_of(vec![1, 5, 3], 2, 3, 8.0, 8.0));

        let mut exact = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut exact, 0);
        assert_eq!(outcome.repaired, 2);
        assert_eq!(outcome.admitted_stale, 0);
        assert_eq!(outcome.max_lag, 0);
        assert!(outcome.admitted_rows.is_empty());
        let serialized = s.read(&nodes);
        assert_eq!(exact.mem, serialized.mem);
        assert_eq!(exact.mail, serialized.mail);
        assert_eq!(exact.mem_ts, serialized.mem_ts);
        assert_eq!(exact.mail_ts, serialized.mail_ts);

        // Bound 2 admits the same rows bound 0 repaired.
        let mut relaxed = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut relaxed, 2);
        assert_eq!(outcome.repaired, 0);
        assert_eq!(outcome.admitted_rows, vec![2, 3]);
        assert_eq!(relaxed.mem, tagged.readout.mem);
    }

    #[test]
    fn repair_lagged_admits_within_bound_repairs_beyond() {
        let mut s = MemoryState::new(6, 1, 1);
        s.write(&write_of(vec![0, 1, 2], 1, 1, 1.0, 1.0));
        let nodes = [0u32, 1, 2, 3];
        let tagged = s.read_versioned(&nodes);
        // Node 1 lags by 1 write, node 2 by 2, node 3 by 4 (tagged at
        // version 0, last written at sequence 4).
        s.write(&write_of(vec![1, 2], 1, 1, 5.0, 5.0));
        s.write(&write_of(vec![2, 3], 1, 1, 7.0, 7.0));
        s.write(&write_of(vec![3], 1, 1, 9.0, 9.0));

        let mut out = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut out, 2);
        // Rows 1 (lag 1) and 2 (lag 2) admitted; row 3 (lag 4)
        // exceeds the bound and repairs; row 0 is fresh.
        assert_eq!(outcome.admitted_rows, vec![1, 2]);
        assert_eq!(outcome.admitted_stale, 2);
        assert_eq!(outcome.repaired, 1);
        assert_eq!(outcome.max_lag, 2);
        assert_eq!(outcome.lag_sum, 3);
        // Admitted rows keep the stale tagged values...
        assert_eq!(out.mem.get(1, 0), 1.0);
        assert_eq!(out.mem.get(2, 0), 1.0);
        // ...while the out-of-bound row matches the serialized read.
        assert_eq!(out.mem.get(3, 0), 9.0);
        let serialized = s.read(&nodes);
        assert_eq!(out.mem.get(0, 0), serialized.mem.get(0, 0));
        assert_eq!(out.mem.get(3, 0), serialized.mem.get(3, 0));
    }

    #[test]
    fn repair_lagged_never_admits_across_reset() {
        let mut s = MemoryState::new(3, 1, 1);
        s.write(&write_of(vec![0, 1], 1, 1, 4.0, 1.0));
        let nodes = [0u32, 1];
        let tagged = s.read_versioned(&nodes);
        s.reset();
        // Post-reset lag is 1 for both rows — within any bound ≥ 1 —
        // but the reset barrier forces an exact repair anyway.
        let mut out = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut out, u64::MAX);
        assert_eq!(outcome.admitted_stale, 0);
        assert_eq!(outcome.repaired, 2);
        assert_eq!(out.mem.get(0, 0), 0.0);
        assert_eq!(out.mem.get(1, 0), 0.0);
    }

    #[test]
    fn reset_invalidates_all_tagged_rows() {
        let mut s = MemoryState::new(3, 1, 1);
        s.write(&write_of(vec![0], 1, 1, 4.0, 1.0));
        let nodes = [0u32, 1];
        let tagged = s.read_versioned(&nodes);
        s.reset();
        let mut patched = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut patched, 0);
        assert_eq!(outcome.repaired, 2, "reset rewrites every node");
        assert!(patched.mem.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(patched.mem, s.read(&nodes).mem);
    }

    #[test]
    fn read_into_reuses_buffers_and_matches_read() {
        let mut s = MemoryState::new(8, 3, 2);
        s.write(&write_of(vec![1, 4, 6], 3, 2, 0.25, 2.0));
        let mut scratch = MemoryReadout::default();
        s.read_into(&[4, 0, 6, 6], &mut scratch);
        let fresh = s.read(&[4, 0, 6, 6]);
        assert_eq!(scratch.mem, fresh.mem);
        assert_eq!(scratch.mail_ts, fresh.mail_ts);
        // Reuse with a different shape: contents must still match.
        s.read_into(&[1], &mut scratch);
        assert_eq!(scratch.mem, s.read(&[1]).mem);
        assert_eq!(scratch.mem_ts.len(), 1);
    }

    #[test]
    fn from_parts_roundtrips_reads_and_versions() {
        let mut s = MemoryState::new(6, 2, 3);
        s.reset();
        s.write(&write_of(vec![0, 2, 5], 2, 3, 1.5, 3.0));
        s.write(&write_of(vec![2], 2, 3, -2.0, 4.0));
        let r = MemoryState::from_parts(
            s.mem_matrix().into_owned(),
            s.mem_ts_all().to_vec(),
            s.mail_matrix().into_owned(),
            s.mail_ts_all().to_vec(),
            s.version(),
            s.node_versions().to_vec(),
        );
        assert_eq!(r.checksum(), s.checksum());
        assert_eq!(r.version(), s.version());
        assert_eq!(r.node_versions(), s.node_versions());
        let nodes = [5u32, 2, 1];
        let a = s.read_versioned(&nodes);
        let b = r.read_versioned(&nodes);
        assert_eq!(a.versions, b.versions);
        assert_eq!(a.readout.mem, b.readout.mem);
        assert_eq!(a.readout.mail_ts, b.readout.mail_ts);
    }

    #[test]
    fn quantized_store_halves_row_bytes() {
        let exact = MemoryState::new(128, 100, 212);
        let quant = MemoryState::new_quantized(128, 100, 212);
        assert!(!exact.quantized());
        assert!(quant.quantized());
        let fixed = 128 * (2 * 4 + 8); // timestamps + versions
        let exact_rows = exact.bytes() - fixed;
        let quant_rows = quant.bytes() - fixed;
        assert_eq!(exact_rows, 2 * quant_rows);
        assert_eq!(quant.elem_bytes(), 2);
        assert_eq!(quant.row_payload_bytes(), (100 + 212) * 2 + 8);
        assert_eq!(exact.row_payload_bytes(), (100 + 212) * 4 + 8);
    }

    #[test]
    fn quantized_write_read_roundtrip_is_bounded() {
        let mut s = MemoryState::new_quantized(4, 3, 2);
        let w = MemoryWrite {
            nodes: vec![1, 3],
            mem: Matrix::from_vec(2, 3, vec![0.1017, -2.338, 7.77, 1.0, 0.5, -0.25]),
            mem_ts: vec![3.0, 4.0],
            mail: Matrix::from_vec(2, 2, vec![0.333, -0.777, 123.456, -9.87]),
            mail_ts: vec![3.5, 4.5],
        };
        s.write(&w);
        let r = s.read(&[1, 3]);
        for (got, want) in r.mem.as_slice().iter().zip(w.mem.as_slice()) {
            let rel = ((got - want) / want).abs();
            assert!(rel <= 2.0f32.powi(-8), "{want} -> {got}");
        }
        // Exactly representable values survive unchanged; timestamps
        // are never quantized.
        assert_eq!(r.mem.row(1), &[1.0, 0.5, -0.25]);
        assert_eq!(r.mem_ts, vec![3.0, 4.0]);
        assert_eq!(r.mail_ts, vec![3.5, 4.5]);
    }

    #[test]
    fn quantized_delta_and_repair_stay_consistent() {
        // The speculative-read → repair protocol must hold bit-for-bit
        // on a quantized store too: reads present decoded values, so a
        // repaired readout equals a serialized read.
        let mut s = MemoryState::new_quantized(6, 2, 3);
        s.write(&MemoryWrite {
            nodes: vec![0, 1, 2, 4],
            mem: Matrix::from_fn(4, 2, |r, c| 0.317 * (r * 2 + c) as f32 - 0.5),
            mem_ts: vec![1.0; 4],
            mail: Matrix::from_fn(4, 3, |r, c| -0.123 * (r * 3 + c) as f32 + 0.25),
            mail_ts: vec![1.5; 4],
        });
        let nodes = [4u32, 0, 5, 1];
        let tagged = s.read_versioned(&nodes);
        s.write(&write_of(vec![1, 5, 3], 2, 3, 8.125, 8.0));

        let mut via_repair = tagged.readout.clone();
        let outcome = s.repair(&nodes, &tagged.versions, &mut via_repair, 0);
        assert_eq!(outcome.repaired, 2);

        let serialized = s.read(&nodes);
        assert_eq!(via_repair.mem, serialized.mem);
        assert_eq!(via_repair.mail, serialized.mail);
        assert_eq!(via_repair.mem_ts, serialized.mem_ts);
        assert_eq!(via_repair.mail_ts, serialized.mail_ts);
    }

    #[test]
    fn quantized_checkpoint_roundtrip_is_lossless() {
        // Quantized store -> f32 parts (decoded) -> from_parts ->
        // into_quantized must reproduce the store bit for bit: every
        // decoded value is on the bf16 grid, so re-encoding is exact.
        let mut s = MemoryState::new_quantized(5, 3, 2);
        s.write(&MemoryWrite {
            nodes: vec![0, 2, 4],
            mem: Matrix::from_fn(3, 3, |r, c| 0.7131 * (r + c) as f32 - 1.1),
            mem_ts: vec![2.0; 3],
            mail: Matrix::from_fn(3, 2, |r, c| 3.33 * (r as f32) - 0.01 * c as f32),
            mail_ts: vec![2.5; 3],
        });
        let restored = MemoryState::from_parts(
            s.mem_matrix().into_owned(),
            s.mem_ts_all().to_vec(),
            s.mail_matrix().into_owned(),
            s.mail_ts_all().to_vec(),
            s.version(),
            s.node_versions().to_vec(),
        )
        .into_quantized();
        assert!(restored.quantized());
        assert_eq!(restored.checksum(), s.checksum());
        assert_eq!(restored.bytes(), s.bytes());
        let a = s.read(&[0, 1, 2, 3, 4]);
        let b = restored.read(&[0, 1, 2, 3, 4]);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.mail, b.mail);
    }

    #[test]
    fn checksum_reflects_contents_not_versions() {
        let mut a = MemoryState::new(5, 2, 2);
        let mut b = MemoryState::new(5, 2, 2);
        assert_eq!(a.checksum(), b.checksum());
        a.write(&write_of(vec![1], 2, 2, 1.0, 1.0));
        assert_ne!(a.checksum(), b.checksum());
        // Same contents via a different write history (extra redundant
        // write bumps versions but not contents).
        b.write(&write_of(vec![1], 2, 2, 1.0, 1.0));
        b.write(&write_of(vec![1], 2, 2, 1.0, 1.0));
        assert_eq!(a.checksum(), b.checksum());
    }
}
