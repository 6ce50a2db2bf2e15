//! Compiled structure-of-arrays arrival kernel.
//!
//! [`ArrivalSim`](crate::ArrivalSim) walks the gate `Vec` of a
//! [`Netlist`] on every pair, evaluating both the previous and the
//! current vector for every gate even when its fanin cone did not move;
//! for the million-pair DTA campaigns that walk dominates the runtime.
//! This module compiles a netlist once into flat dense tables
//! ([`CompiledNetlist`]) and propagates each input transition
//! incrementally ([`ArrivalKernel`]): the previous steady state is kept
//! between pairs (the `prev` vector of pair *k+1* is the `cur` vector
//! of pair *k*, exactly the structure of a DTA trace), so each gate is
//! evaluated at most once per transition instead of twice.
//!
//! `advance` picks between two propagation strategies based on how much
//! of the circuit the *previous* transition toggled:
//!
//! * **Frontier walk** (sparse transitions): a dirty bitset seeded from
//!   the toggled inputs is consumed in topological index order,
//!   evaluating only gates downstream of a change. Work scales with the
//!   size of the disturbed cone, not the circuit.
//! * **Dense sweep** (heavily toggled transitions, the regime of
//!   random-operand DTA campaigns, where ~40% of the double-multiplier
//!   nets flip per pair): one branch-free pass over all gates in index
//!   order. At that toggle density branch predictors see noise and the
//!   frontier's random-access bookkeeping costs more than it saves, so
//!   the sweep keeps the pipeline full instead: truth-table lookups for
//!   values, conditional-move selects for settle times and change
//!   marks, and a branchless append to the changed-net list.
//!
//! Two representation choices make the sweep branch-free:
//!
//! * **Truth-table evaluation.** Each gate's logic function is compiled
//!   to an 8-entry truth-table byte; evaluation is
//!   `(tt >> (v0 | v1<<1 | v2<<2)) & 1` with no data-dependent branch.
//!   Unused pin slots are padded with the gate's first pin (inputs pin
//!   to themselves and decode as buffers of their primed value), and
//!   the replicated tables ignore the duplicated bits.
//! * **Self-cleaning settle array.** Between advances only nets changed
//!   by the last transition hold a non-zero settle time, so the
//!   latest-fanin fold is a plain branch-free `max` over all three pin
//!   slots — unchanged fanins contribute `0.0`, the fold's identity.
//!
//! For campaign streams the kernel additionally batches vectors into
//! **bit-sliced windows**: each net carries a [`Lanes`] array of `W`
//! `u64` words (`W * 64` vectors evaluated per whole-circuit pass), and
//! the per-transition settle pass walks a transposed per-transition
//! gate bitmask. `W` is a const parameter of [`ArrivalKernel`]; the
//! fixed-size-array lane ops autovectorize to AVX2 (`W = 4`) and
//! AVX-512 (`W = 8`) bitwise instructions.
//!
//! The kernel is bit-for-bit and settle-time-exact against
//! [`ArrivalSim`](crate::ArrivalSim), whichever strategy runs. Values
//! agree because the steady state of a gate with no changed fanin
//! cannot change (the sweep re-derives it; the frontier skips it).
//! Settle times agree because both engines compute
//! `settle[i] = fold(0.0, max, settle of changed fanins) + delay[i]`
//! and folding the extra `0.0` terms of unchanged (or duplicated)
//! fanins into an `f64::max` chain that already starts at `0.0` is an
//! exact no-op. Enforced by proptest in `tests/kernel_equiv.rs`.

use crate::sim::TwoVectorResult;
use tei_netlist::{GateKind, NetId, Netlist};

// Dense `u8` opcodes for the bit-sliced window dispatch.
const K_INPUT: u8 = GateKind::Input as u8;
const K_CONST0: u8 = GateKind::Const0 as u8;
const K_CONST1: u8 = GateKind::Const1 as u8;
const K_BUF: u8 = GateKind::Buf as u8;
const K_NOT: u8 = GateKind::Not as u8;
const K_AND2: u8 = GateKind::And2 as u8;
const K_OR2: u8 = GateKind::Or2 as u8;
const K_NAND2: u8 = GateKind::Nand2 as u8;
const K_NOR2: u8 = GateKind::Nor2 as u8;
const K_XOR2: u8 = GateKind::Xor2 as u8;
const K_XNOR2: u8 = GateKind::Xnor2 as u8;
const K_MUX2: u8 = GateKind::Mux2 as u8;
const K_MAJ3: u8 = GateKind::Maj3 as u8;

/// Input-pin count per opcode, indexed by `GateKind as u8`. Kept (and
/// checked against `GateKind::arity` in tests) as documentation of the
/// pin-padding layout even though compile reads arities dynamically.
#[cfg(test)]
const ARITY: [u8; 13] = [0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3];

/// Vectors per lane *word*: one per bit of a `u64`. A kernel with `W`
/// lane words holds `W * WINDOW_VECTORS` vectors per window (see
/// [`ArrivalKernel::WINDOW_VECTORS`]); the plain name is kept as the
/// single-word (`W = 1`) window size for existing callers.
pub const WINDOW_VECTORS: usize = 64;

/// The multi-word window lane of one net: bit `v` of word `v / 64`
/// holds the net's steady-state value under the window's `v`-th input
/// vector. Written as fixed-size-array ops so the compiler
/// autovectorizes `W = 4` to AVX2-width and `W = 8` to AVX-512-width
/// bitwise instructions.
pub type Lanes<const W: usize> = [u64; W];

/// Bit `v` of a multi-word lane.
#[inline(always)]
pub(crate) fn lane_bit<const W: usize>(lane: &Lanes<W>, v: usize) -> bool {
    (lane[v >> 6] >> (v & 63)) & 1 == 1
}

/// Transpose a 64×64 bit matrix in place: afterwards, bit `c` of
/// `a[r]` is what bit `r` of `a[c]` was (LSB-first rows both ways).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// 8-entry truth tables indexed by `GateKind as u8`; output bit at
/// index `v0 | v1<<1 | v2<<2`. Tables for gates with fewer than three
/// pins replicate over the unused high bits, so any padding pin value
/// decodes correctly. Pin order follows `Gate::pins`: Mux2 is
/// `[sel, a, b]` selecting `b` when `sel` is high.
const TRUTH: [u8; 13] = [
    0xAA, // Input (self-pinned: decodes as a buffer of its own value)
    0x00, // Const0
    0xFF, // Const1
    0xAA, // Buf
    0x55, // Not
    0x88, // And2
    0xEE, // Or2
    0x77, // Nand2
    0x11, // Nor2
    0x66, // Xor2
    0x99, // Xnor2
    0xE4, // Mux2
    0xE8, // Maj3
];

/// Once the previous transition toggled more than 1/8 of all nets,
/// `advance` switches from the frontier walk to the dense sweep.
const DENSE_TOGGLE_DIVISOR: usize = 8;

/// Window mode: once a settle batch's changed-net union covers more
/// than 1/2 of all nets, the batch is computed by a full topological
/// sweep instead of the bitmask walk — at that density the sweep's
/// sequential stores and branch-free inner loop beat the per-set-bit
/// scan plus changed-list bookkeeping.
const DENSE_BATCH_DIVISOR: usize = 2;

/// A netlist lowered to structure-of-arrays form for the arrival kernel:
/// per-gate truth-table bytes, a fixed-stride pin table, a flat delay
/// array, and fanout adjacency in CSR layout to drive the sparse-path
/// dirty frontier.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    n: usize,
    /// `GateKind as u8` per gate (drives the bit-sliced window eval).
    kinds: Vec<u8>,
    /// Truth-table byte per gate (see [`TRUTH`]).
    tt: Vec<u8>,
    /// Three pin slots per gate (stride 3); slots beyond the gate's
    /// arity repeat the first pin (harmless under the replicated truth
    /// tables, identity under the settle `max` fold). Primary inputs
    /// pin to themselves.
    pins: Vec<u32>,
    delays: Vec<f64>,
    /// Static worst-case arrival bound per net (the [`Sta`] recurrence
    /// over the compiled delay table): `max(pin bounds) + delay`, with
    /// inputs and constants at 0. Dynamic settle times never exceed it
    /// (enforced under `sanitize-arrivals`), which is what lets the
    /// campaign path prune provably-safe output bits.
    ///
    /// [`Sta`]: crate::Sta
    bounds: Vec<f64>,
    /// Primary input nets in declaration order.
    inputs: Vec<u32>,
    /// CSR offsets into `fanout`; net `i` drives `fanout[off[i]..off[i+1]]`.
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
}

impl CompiledNetlist {
    /// Lower `nl` (gates already in topological order) into flat tables.
    pub fn compile(nl: &Netlist) -> Self {
        let n = nl.len();
        let gates = nl.gates();

        let mut kinds = Vec::with_capacity(n);
        let mut tt = Vec::with_capacity(n);
        let mut pins = vec![0u32; n * 3];
        let mut delays = Vec::with_capacity(n);
        let mut bounds = vec![0.0f64; n];
        let mut fanout_count = vec![0u32; n];

        for (i, g) in gates.iter().enumerate() {
            kinds.push(g.kind as u8);
            tt.push(TRUTH[g.kind as u8 as usize]);
            // Inputs flip at t = 0 and constants never flip, so their
            // settle contribution is exactly zero; forcing the delay
            // lets every propagation path treat them uniformly.
            delays.push(match g.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0.0,
                _ => g.delay,
            });
            let fanin = g.fanin();
            // Inputs self-pin (their truth table is a buffer); gates
            // replicate their first pin into unused slots.
            let pad = match fanin.first() {
                Some(p) => p.index() as u32,
                None if g.kind == GateKind::Input => i as u32,
                None => 0,
            };
            for slot in 0..3 {
                pins[i * 3 + slot] = match fanin.get(slot) {
                    Some(pin) => {
                        let j = pin.index();
                        debug_assert!(j < i, "netlist must be topologically ordered");
                        fanout_count[j] += 1;
                        j as u32
                    }
                    None => pad,
                };
            }
            // Static arrival bound: the Sta recurrence over the compiled
            // delay table (inputs and constants pinned to 0 above).
            let worst = fanin
                .iter()
                .map(|p| bounds[p.index()])
                .fold(0.0f64, f64::max);
            bounds[i] = worst + delays[i];
        }

        // Prefix-sum the fanout counts into CSR offsets, then fill.
        let mut fanout_off = vec![0u32; n + 1];
        for i in 0..n {
            fanout_off[i + 1] = fanout_off[i] + fanout_count[i];
        }
        let mut fanout = vec![0u32; fanout_off[n] as usize];
        let mut cursor: Vec<u32> = fanout_off[..n].to_vec();
        for (i, g) in gates.iter().enumerate() {
            for &pin in g.fanin() {
                let j = pin.index();
                fanout[cursor[j] as usize] = i as u32;
                cursor[j] += 1;
            }
        }

        let inputs = nl.inputs().iter().map(|net| net.index() as u32).collect();

        CompiledNetlist {
            n,
            kinds,
            tt,
            pins,
            delays,
            bounds,
            inputs,
            fanout_off,
            fanout,
        }
    }

    /// Static worst-case arrival bound of `net` at the nominal corner
    /// (see the `bounds` field). No dynamic settle time the kernel ever
    /// reports for `net` exceeds this.
    #[inline]
    pub fn static_bound(&self, net: NetId) -> f64 {
        self.bounds[net.index()]
    }

    /// All static arrival bounds, indexed by net.
    pub fn static_bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Number of nets (== gates) in the compiled design.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty design.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// FNV-1a structural fingerprint over everything the arrival kernel
    /// evaluates: gate count, opcodes, pin table, exact delay bits, and
    /// the primary-input order. Two compiled netlists with equal
    /// fingerprints produce identical kernel results for identical input
    /// streams, which is what lets a generated specialized kernel (see
    /// [`codegen`](crate::codegen)) prove at runtime that it was emitted
    /// from *this* netlist — a mismatch (changed datapath builder,
    /// recalibrated delays) falls back to the interpreter instead of
    /// silently computing against a stale circuit.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        for b in (self.n as u64).to_le_bytes() {
            eat(b);
        }
        for &k in &self.kinds {
            eat(k);
        }
        for p in &self.pins {
            for b in p.to_le_bytes() {
                eat(b);
            }
        }
        for d in &self.delays {
            for b in d.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        for i in &self.inputs {
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        h
    }

    /// Per-gate opcodes (`GateKind as u8`), for the codegen emitter.
    pub(crate) fn kinds(&self) -> &[u8] {
        &self.kinds
    }

    /// The padded stride-3 pin table, for the codegen emitter.
    pub(crate) fn pins(&self) -> &[u32] {
        &self.pins
    }

    /// The compiled per-gate delays, for the codegen emitter.
    pub(crate) fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Primary input nets in declaration order, for the codegen emitter.
    pub(crate) fn input_nets(&self) -> &[u32] {
        &self.inputs
    }

    #[inline]
    fn fanout_of(&self, i: usize) -> &[u32] {
        &self.fanout[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
    }

    /// Evaluate gate `i`'s logic function against `val` (0/1 per net).
    #[inline]
    fn eval(&self, i: usize, val: &[u8]) -> u8 {
        let p = &self.pins[i * 3..i * 3 + 3];
        let idx = val[p[0] as usize] | val[p[1] as usize] << 1 | val[p[2] as usize] << 2;
        (self.tt[i] >> idx) & 1
    }
}

/// Arrival-time propagation engine over a [`CompiledNetlist`] with
/// reusable scratch buffers and a changed-net frontier.
///
/// Usage: [`reset`](ArrivalKernel::reset) with the first input vector,
/// then [`advance`](ArrivalKernel::advance) once per subsequent vector.
/// After each `advance` the accessors report the same quantities as a
/// [`TwoVectorResult`] for the transition just applied: `prev`/`cur`
/// steady-state values, per-net settle times (0 for unchanged nets), and
/// the Razor-style latched-value error test.
///
/// The const parameter `W` selects the window lane width: each net
/// carries `W` `u64` words, i.e. `W * 64` input vectors per bit-sliced
/// window ([`load_window`](ArrivalKernel::load_window)), and settle
/// times are computed `W` transitions per batch as `[f64; W]` lane
/// arrays. `W = 1` is the historical single-word engine; `W = 4` /
/// `W = 8` widen both the steady-state evaluation and the settle folds
/// to AVX2/AVX-512 vector registers. Results are bit-identical for
/// every width (each lane's fold order matches the scalar pass); width
/// only changes throughput.
#[derive(Debug, Clone, Default)]
pub struct ArrivalKernel<const W: usize = 1> {
    /// Steady-state value (0/1) of every net under the *current* input
    /// vector.
    val: Vec<u8>,
    /// Per-net settle time of the last transition. Invariant between
    /// advances: every net outside `changed_list` holds `0.0`, so a
    /// plain `max` fold over all pin slots reproduces the changed-only
    /// fold.
    settle: Vec<f64>,
    /// Window mode: per-net settle times of the current *batch* of `W`
    /// consecutive transitions, lane `j` = transition `batch_base + j`.
    /// After a sparse batch the all-zero-outside-`changed_list`
    /// invariant of `settle` holds (`changed_list` is the union of the
    /// batch's changed nets); after a dense batch every entry is
    /// freshly written instead (see `batch_dense`).
    settle_w: Vec<[f64; W]>,
    /// First transition of the batch `settle_w` currently holds
    /// (`usize::MAX` = none computed yet for this window).
    batch_base: usize,
    /// Whether the current batch was computed by the dense sweep, which
    /// writes *every* net's lanes (so `changed_list` is empty and the
    /// all-zero-outside-the-list invariant is suspended until the next
    /// sparse batch restores it with a full clear).
    batch_dense: bool,
    /// Window mode: pin table for the dense settle sweep — a copy of
    /// `CompiledNetlist::pins` with self/forward pins redirected to the
    /// zero sentinel at index `n`, so the sweep needs no per-pin
    /// bounds/self checks. Rebuilt by every `load_window`.
    dense_pins: Vec<u32>,
    /// Lane-mask table: entry `m` holds all-ones in lane `j` iff bit
    /// `j` of `m` is set (`2^W` entries, built once; only for `W <= 8`).
    lane_masks: Vec<Lanes<W>>,
    /// Epoch stamp: net changed in the last `advance` iff `== epoch`.
    changed_mark: Vec<u32>,
    /// Nets changed in the last `advance` occupy `[..changed_len]`;
    /// kept at full length so the dense sweep can append branchlessly.
    changed_list: Vec<u32>,
    changed_len: usize,
    epoch: u32,
    /// Dirty bitset scheduling gates for re-evaluation on the frontier
    /// path, one bit per gate, consumed (cleared) by the scan.
    dirty: Vec<u64>,
    /// Window mode: steady-state bit lanes, `W` words per net, bit `v`
    /// of word `v / 64` = value under the window's `v`-th input vector.
    plane: Vec<Lanes<W>>,
    /// Window mode: per-net transition lanes (`plane ^ plane >> 1` as a
    /// `W * 64`-bit shift, masked to valid transitions).
    diffs: Vec<Lanes<W>>,
    /// Window mode: `diffs` transposed into per-transition gate
    /// bitmasks; transition `t` owns words `[t*words .. (t+1)*words)`.
    diff_t: Vec<u64>,
    /// Vectors loaded in the current window (0 = no window).
    win_count: usize,
    /// Transition selected by `select_transition`.
    view_t: usize,
    /// True between `load_window` and the next `reset`.
    window_mode: bool,
}

impl ArrivalKernel {
    /// A single-word (`W = 1`) kernel with empty scratch; buffers size
    /// themselves on `reset`. Wider kernels are built with
    /// `ArrivalKernel::<W>::default()`.
    pub fn new() -> Self {
        ArrivalKernel::default()
    }
}

impl<const W: usize> ArrivalKernel<W> {
    /// Vectors per bit-sliced window at this lane width: one per bit
    /// of the `W`-word lane.
    pub const WINDOW_VECTORS: usize = W * 64;

    /// Establish circuit state: full functional evaluation of `inputs`,
    /// all settle times zero, no nets marked changed.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the design's input count.
    pub fn reset(&mut self, c: &CompiledNetlist, inputs: &[bool]) {
        assert_eq!(inputs.len(), c.inputs.len(), "input width");
        self.window_mode = false;
        self.win_count = 0;
        self.val.clear();
        self.val.resize(c.n, 0);
        self.settle.clear();
        self.settle.resize(c.n, 0.0);
        // Drop window-mode settle lanes wholesale: the union list that
        // tracked their non-zero entries is reset below, so the next
        // `load_window` re-zeroes them via `resize`.
        self.settle_w.clear();
        self.batch_base = usize::MAX;
        self.batch_dense = false;
        self.changed_mark.clear();
        self.changed_mark.resize(c.n, u32::MAX);
        self.changed_list.clear();
        self.changed_list.resize(c.n, 0);
        self.changed_len = 0;
        self.epoch = 0;
        self.dirty.clear();
        self.dirty.resize(c.n.div_ceil(64), 0);
        for (k, &net) in c.inputs.iter().enumerate() {
            self.val[net as usize] = inputs[k] as u8;
        }
        // Inputs self-pin as buffers, so the uniform sweep re-derives
        // their primed value.
        for i in 0..c.n {
            self.val[i] = c.eval(i, &self.val);
        }
    }

    /// Apply the transition from the current steady state to
    /// `new_inputs`, recomputing values and settle times downstream of
    /// toggled nets (frontier walk or dense sweep, chosen by the toggle
    /// density of the previous transition).
    ///
    /// # Panics
    ///
    /// Panics if `new_inputs.len()` differs from the design's input
    /// count, or if [`reset`](ArrivalKernel::reset) has not been called.
    pub fn advance(&mut self, c: &CompiledNetlist, new_inputs: &[bool]) {
        assert_eq!(new_inputs.len(), c.inputs.len(), "input width");
        assert_eq!(self.val.len(), c.n, "kernel not reset for this design");
        assert!(
            !self.window_mode,
            "per-pair advance requires a reset after window processing"
        );
        let dense = self.changed_len * DENSE_TOGGLE_DIVISOR >= c.n;
        if dense {
            self.advance_dense(c, new_inputs);
        } else {
            self.advance_frontier(c, new_inputs);
        }
    }

    /// Sanitizer: every settle time computed for the last transition
    /// (or, in window mode, any lane of the last batch) must respect the
    /// compiled static arrival bound. A violation means the kernel's
    /// settle fold (or the bound computation) is wrong.
    #[cfg(feature = "sanitize-arrivals")]
    fn sanitize_settles(&self, c: &CompiledNetlist) {
        // A dense batch writes every net and leaves `changed_list`
        // empty; check the whole array instead.
        if self.window_mode && self.batch_dense {
            for i in 0..c.n {
                for (j, &s) in self.settle_w[i].iter().enumerate() {
                    assert!(
                        s <= c.bounds[i] + 1e-9,
                        "sanitize-arrivals: net n{i} settled at {s} past its static bound {} \
                         (batch lane {j})",
                        c.bounds[i]
                    );
                }
            }
            return;
        }
        for &i in &self.changed_list[..self.changed_len] {
            let i = i as usize;
            if self.window_mode {
                for (j, &s) in self.settle_w[i].iter().enumerate() {
                    assert!(
                        s <= c.bounds[i] + 1e-9,
                        "sanitize-arrivals: net n{i} settled at {s} past its static bound {} \
                         (batch lane {j})",
                        c.bounds[i]
                    );
                }
            } else {
                assert!(
                    self.settle[i] <= c.bounds[i] + 1e-9,
                    "sanitize-arrivals: net n{i} settled at {} past its static bound {}",
                    self.settle[i],
                    c.bounds[i]
                );
            }
        }
    }

    /// Roll the epoch stamp forward, returning the new epoch.
    fn bump_epoch(&mut self) -> u32 {
        // Epoch u32::MAX is the "never" marker set by reset; wrap before
        // colliding with it.
        if self.epoch == u32::MAX - 1 {
            self.changed_mark.fill(u32::MAX);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Sparse path: consume a dirty bitset seeded from the toggled
    /// inputs, evaluating only gates downstream of a change.
    fn advance_frontier(&mut self, c: &CompiledNetlist, new_inputs: &[bool]) {
        // Restore the all-zero settle invariant for the new transition.
        for &i in &self.changed_list[..self.changed_len] {
            self.settle[i as usize] = 0.0;
        }
        self.changed_len = 0;
        let epoch = self.bump_epoch();

        // Toggled inputs seed the dirty frontier.
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for (k, &net) in c.inputs.iter().enumerate() {
            let i = net as usize;
            if self.val[i] != new_inputs[k] as u8 {
                self.val[i] = new_inputs[k] as u8;
                self.changed_mark[i] = epoch;
                self.changed_list[self.changed_len] = net;
                self.changed_len += 1; // settle stays 0: inputs flip at t = 0
                for &g in c.fanout_of(i) {
                    let gi = g as usize;
                    self.dirty[gi >> 6] |= 1 << (gi & 63);
                    lo = lo.min(gi);
                    hi = hi.max(gi);
                }
            }
        }
        if lo == usize::MAX {
            return; // identical vectors: nothing to propagate
        }

        // Scan dirty gates in index order (indices are topological, so
        // every fanin is final before its reader). Consuming the lowest
        // set bit keeps the scan ordered even as it marks later gates;
        // `hi` grows monotonically as fanouts are marked.
        let mut wi = lo >> 6;
        while wi <= hi >> 6 {
            loop {
                let word = self.dirty[wi];
                if word == 0 {
                    break;
                }
                let bit = word.trailing_zeros() as usize;
                self.dirty[wi] = word & (word - 1);
                let i = (wi << 6) | bit;
                let new = c.eval(i, &self.val);
                if new != self.val[i] {
                    self.val[i] = new;
                    self.changed_mark[i] = epoch;
                    self.changed_list[self.changed_len] = i as u32;
                    self.changed_len += 1;
                    // Latest-settling fanin: unchanged fanins hold 0.0,
                    // so the plain fold equals ArrivalSim's changed-only
                    // fold (both start at 0.0).
                    let p = &c.pins[i * 3..i * 3 + 3];
                    let latest = self.settle[p[0] as usize]
                        .max(self.settle[p[1] as usize])
                        .max(self.settle[p[2] as usize]);
                    self.settle[i] = latest + c.delays[i];
                    for &g in c.fanout_of(i) {
                        let gi = g as usize;
                        self.dirty[gi >> 6] |= 1 << (gi & 63);
                        hi = hi.max(gi);
                    }
                }
            }
            wi += 1;
        }
        #[cfg(feature = "sanitize-arrivals")]
        self.sanitize_settles(c);
    }

    /// Dense path: two branch-free passes over the gate tables in
    /// topological index order, so heavily toggled transitions cannot
    /// stall the pipeline on mispredictions. The first (value) pass
    /// re-derives every steady-state bit via truth-table lookups and
    /// records which nets flipped as a bitmask; the second (settle)
    /// pass visits only the set bits, in index order, computing settle
    /// times with the branch-free three-slot `max` fold.
    fn advance_dense(&mut self, c: &CompiledNetlist, new_inputs: &[bool]) {
        // Restore the all-zero settle invariant for the new transition.
        for &i in &self.changed_list[..self.changed_len] {
            self.settle[i as usize] = 0.0;
        }
        self.changed_len = 0;
        let epoch = self.bump_epoch();

        // Prime toggled inputs; their settle entries are permanently
        // zero (inputs flip at t = 0) and their self-pinned buffer rows
        // below re-derive the primed value with no flip recorded.
        for (k, &net) in c.inputs.iter().enumerate() {
            let i = net as usize;
            let nv = new_inputs[k] as u8;
            if self.val[i] != nv {
                self.val[i] = nv;
                self.changed_mark[i] = epoch;
                self.changed_list[self.changed_len] = net;
                self.changed_len += 1;
            }
        }

        let n = c.n;
        // Value pass: flip bits accumulate into `dirty`, reused here as
        // a plain bitmask (every touched word is overwritten, and the
        // settle pass consumes words back to zero, preserving the
        // frontier path's all-clear precondition).
        {
            let val = &mut self.val[..n];
            let pins = &c.pins[..n * 3];
            let tts = &c.tt[..n];
            let mut word = 0u64;
            for i in 0..n {
                // SAFETY: `compile` stores pin indices `< n` (fanins
                // precede their gate; padding repeats a fanin or the
                // gate's own index), and `val`/`tts`/`pins` were sliced
                // to exactly `n`/`3n` above.
                let diff = unsafe {
                    let p0 = *pins.get_unchecked(i * 3) as usize;
                    let p1 = *pins.get_unchecked(i * 3 + 1) as usize;
                    let p2 = *pins.get_unchecked(i * 3 + 2) as usize;
                    let idx = *val.get_unchecked(p0)
                        | *val.get_unchecked(p1) << 1
                        | *val.get_unchecked(p2) << 2;
                    let new = (*tts.get_unchecked(i) >> idx) & 1;
                    let old = *val.get_unchecked(i);
                    *val.get_unchecked_mut(i) = new;
                    new ^ old
                };
                word |= u64::from(diff) << (i & 63);
                if i & 63 == 63 {
                    self.dirty[i >> 6] = word;
                    word = 0;
                }
            }
            if n & 63 != 0 {
                self.dirty[n >> 6] = word;
            }
        }

        // Settle pass: only flipped nets, ascending index (topological),
        // consuming the bitmask back to zero as it goes.
        for wi in 0..self.dirty.len() {
            let mut word = self.dirty[wi];
            self.dirty[wi] = 0;
            while word != 0 {
                let i = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                // SAFETY: `i < n` (the mask has one bit per gate) and
                // pin indices are `< n` as in the value pass;
                // `changed_len < n` because each net enters the list at
                // most once per advance.
                unsafe {
                    let p0 = *c.pins.get_unchecked(i * 3) as usize;
                    let p1 = *c.pins.get_unchecked(i * 3 + 1) as usize;
                    let p2 = *c.pins.get_unchecked(i * 3 + 2) as usize;
                    // Latest-settling fanin: unchanged fanins hold 0.0,
                    // so the plain fold equals ArrivalSim's changed-only
                    // fold (both start at 0.0). Settle times are never
                    // NaN, making the comparison chain exactly
                    // `f64::max`.
                    let s0 = *self.settle.get_unchecked(p0);
                    let s1 = *self.settle.get_unchecked(p1);
                    let s2 = *self.settle.get_unchecked(p2);
                    let m = if s0 > s1 { s0 } else { s1 };
                    let latest = if m > s2 { m } else { s2 };
                    *self.settle.get_unchecked_mut(i) = latest + *c.delays.get_unchecked(i);
                    *self.changed_mark.get_unchecked_mut(i) = epoch;
                    *self.changed_list.get_unchecked_mut(self.changed_len) = i as u32;
                }
                self.changed_len += 1;
            }
        }
        #[cfg(feature = "sanitize-arrivals")]
        self.sanitize_settles(c);
    }

    /// Load a bit-sliced window of up to [`Self::WINDOW_VECTORS`] input
    /// vectors (`flat` holds `count` concatenated vectors of the
    /// design's input width) and evaluate every vector's steady state
    /// in one pass: each net's `W * 64` window values live in the bit
    /// lanes of a `W`-word [`Lanes`] array, so the whole-circuit
    /// evaluation is amortized `~W * 64`× versus per-pair propagation
    /// (and the array ops vectorize to one AVX2/AVX-512 instruction per
    /// gate input at `W = 4` / `W = 8`). Follow with
    /// [`select_transition`](ArrivalKernel::select_transition) for each
    /// of the `count - 1` transitions; windows are independent (steady
    /// states are pure functions of each vector), so callers chain them
    /// by overlapping one vector.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or exceeds [`Self::WINDOW_VECTORS`], or
    /// if `flat.len() != count * input_count`.
    pub fn load_window(&mut self, c: &CompiledNetlist, flat: &[bool], count: usize) {
        let width = c.inputs.len();
        assert!((1..=Self::WINDOW_VECTORS).contains(&count), "window size");
        assert_eq!(flat.len(), count * width, "window buffer size");
        if self.val.len() != c.n {
            // Size per-pair scratch too: the settle machinery
            // (`settle`, `changed_list`) is shared with that path.
            self.reset(c, &vec![false; width]);
        }
        self.window_mode = true;
        self.win_count = count;
        self.view_t = 0;
        let n = c.n;
        let words = self.dirty.len();
        self.plane.resize(n, [0; W]);
        self.diffs.resize(n, [0; W]);
        self.diff_t.resize(words * Self::WINDOW_VECTORS, 0);
        // One sentinel entry past the end: the dense sweep redirects
        // self-pins there, and it stays permanently zero (the sweep
        // writes `[..n]`, the sparse full clear likewise).
        self.settle_w.resize(n + 1, [0.0; W]);
        // The old window's diffs are gone; force the first
        // `select_transition` to compute a fresh settle batch.
        self.batch_base = usize::MAX;
        // Pin table for the dense settle sweep: self/forward pins
        // (inputs and constants — anything not strictly below its gate
        // in topological order) redirect to the zero sentinel at `n`.
        // Rebuilt per window because the kernel may be reused across
        // netlists of equal size; the cost is noise next to the
        // window's gate evaluation.
        self.dense_pins.clear();
        self.dense_pins.extend((0..3 * n).map(|k| {
            let p = c.pins[k];
            if (p as usize) < k / 3 {
                p
            } else {
                n as u32
            }
        }));
        // Per-batch lane-mask table for the settle passes: entry `m` has
        // lane `j` all-ones iff bit `j` of `m` is set, turning the
        // per-gate keep-mask computation into one table load. Only
        // practical at the widths we dispatch (2^W entries).
        if W <= 8 && self.lane_masks.is_empty() {
            self.lane_masks.extend(
                (0..1usize << W)
                    .map(|m| std::array::from_fn(|j| ((m as u64 >> j) & 1).wrapping_neg())),
            );
        }

        // Pack each input's window values into its bit lane.
        for (k, &net) in c.inputs.iter().enumerate() {
            let mut lane = [0u64; W];
            for (v, chunk) in flat.chunks_exact(width).enumerate() {
                lane[v >> 6] |= u64::from(chunk[k]) << (v & 63);
            }
            self.plane[net as usize] = lane;
        }

        // Bit-sliced steady-state evaluation, all vectors at once. The
        // per-arm `from_fn` loops are over a compile-time-fixed W, so
        // they lower to straight-line vector code, not a runtime loop.
        use std::array::from_fn;
        for i in 0..n {
            let p = &c.pins[i * 3..i * 3 + 3];
            let v0 = self.plane[p[0] as usize];
            let v1 = self.plane[p[1] as usize];
            let v2 = self.plane[p[2] as usize];
            self.plane[i] = match c.kinds[i] {
                // Inputs self-pin, so v0 is already their packed lane.
                K_INPUT | K_BUF => v0,
                K_CONST0 => [0; W],
                K_CONST1 => [!0; W],
                K_NOT => from_fn(|w| !v0[w]),
                K_AND2 => from_fn(|w| v0[w] & v1[w]),
                K_OR2 => from_fn(|w| v0[w] | v1[w]),
                K_NAND2 => from_fn(|w| !(v0[w] & v1[w])),
                K_NOR2 => from_fn(|w| !(v0[w] | v1[w])),
                K_XOR2 => from_fn(|w| v0[w] ^ v1[w]),
                K_XNOR2 => from_fn(|w| !(v0[w] ^ v1[w])),
                // pins [sel, a, b]: b when sel is high
                K_MUX2 => from_fn(|w| (v0[w] & v2[w]) | (!v0[w] & v1[w])),
                K_MAJ3 => from_fn(|w| (v0[w] & v1[w]) | (v0[w] & v2[w]) | (v1[w] & v2[w])),
                _ => unreachable!("invalid opcode"),
            };
        }

        // Transition lanes: bit t set iff vectors t and t+1 disagree —
        // a W*64-bit-wide `plane ^ (plane >> 1)` whose right shift
        // borrows the low bit of the next word; lanes beyond the last
        // valid transition are masked off.
        let valid = count - 1; // number of transitions
        let tmask: Lanes<W> = from_fn(|w| {
            let lo = w * 64;
            if valid >= lo + 64 {
                !0
            } else if valid > lo {
                (1u64 << (valid - lo)) - 1
            } else {
                0
            }
        });
        for i in 0..n {
            let p = self.plane[i];
            self.diffs[i] = from_fn(|w| {
                let hi = if w + 1 < W { p[w + 1] } else { 0 };
                (p[w] ^ ((p[w] >> 1) | (hi << 63))) & tmask[w]
            });
        }

        // Transpose per-net transition lanes into per-transition gate
        // bitmasks, one 64×64 block per (gate word, lane word) pair.
        let mut block = [0u64; 64];
        for wi in 0..words {
            let base = wi << 6;
            let take = (n - base).min(64);
            for w in 0..W {
                for (g, b) in block[..take].iter_mut().enumerate() {
                    *b = self.diffs[base + g][w];
                }
                block[take..].fill(0);
                transpose64(&mut block);
                // Rows past the last valid transition of this lane word
                // stay unwritten (select_transition never reads them).
                let rows = valid.saturating_sub(w * 64).min(64);
                for (tl, &row) in block.iter().enumerate().take(rows) {
                    self.diff_t[(w * 64 + tl) * words + wi] = row;
                }
            }
        }
    }

    /// Number of transitions available in the loaded window.
    pub fn window_transitions(&self) -> usize {
        self.win_count.saturating_sub(1)
    }

    /// Focus the kernel on window transition `t` (vectors `t → t+1`);
    /// afterwards the accessors (`prev`/`cur`/`settle_of`/`latched`/…)
    /// report that transition exactly as a per-pair `advance` would.
    ///
    /// Settle times are computed one *batch* of `W` consecutive
    /// transitions at a time, as `[f64; W]` lane arrays masked by each
    /// gate's transition bits: the per-gate walk (pin loads, bit
    /// iteration, store) is amortized over `W` transitions and the
    /// max/add arithmetic autovectorizes, which is where the lane-width
    /// throughput gain actually comes from — the per-lane fold order is
    /// identical to the scalar pass, so settle times stay bit-exact.
    /// Selecting within the computed batch is free; campaign loops walk
    /// `t` in order, computing each batch exactly once.
    ///
    /// # Panics
    ///
    /// Panics if no window is loaded or `t` is out of range.
    pub fn select_transition(&mut self, c: &CompiledNetlist, t: usize) {
        assert!(self.window_mode, "no window loaded");
        assert!(t + 1 < self.win_count, "transition out of range");
        self.view_t = t;
        let base = t - (t % W);
        if self.batch_base == base {
            return;
        }
        self.batch_base = base;

        // Union of the batch's per-transition gate masks into the
        // `dirty` scratch, which window mode otherwise leaves idle
        // (rows past the last valid transition are unwritten — skip
        // them). The population count picks the walk strategy below.
        let valid = self.win_count - 1;
        let lanes = (valid - base).min(W);
        let words = self.dirty.len();
        let mut union_count = 0usize;
        for wi in 0..words {
            let mut word = 0u64;
            for j in 0..lanes {
                word |= self.diff_t[(base + j) * words + wi];
            }
            self.dirty[wi] = word;
            union_count += word.count_ones() as usize;
        }

        // `base` is a multiple of `W` and `W` divides 64, so a gate's
        // batch bits live in one word of its `diffs` lane.
        let lw = base >> 6;
        let ls = base & 63;
        if union_count * DENSE_BATCH_DIVISOR >= c.n {
            self.dense_settle_batch(c, lw, ls);
        } else {
            self.sparse_settle_batch(c, lw, ls);
        }
        #[cfg(feature = "sanitize-arrivals")]
        self.sanitize_settles(c);
    }

    /// Sparse settle batch: walk only the union of nets changed in any
    /// of the batch's transitions (set bits of the `dirty` scratch), in
    /// ascending (topological) index order. Inputs participate
    /// uniformly: their pins self-reference a permanently-zero settle
    /// entry and their compiled delay is zero, so they settle at t = 0.
    fn sparse_settle_batch(&mut self, c: &CompiledNetlist, lw: usize, ls: usize) {
        // Restore the all-zero settle invariant before this batch: a
        // preceding dense batch wrote every lane, so clear wholesale;
        // otherwise only the previous batch's union is non-zero.
        if self.batch_dense {
            self.settle_w[..c.n].fill([0.0; W]);
            self.batch_dense = false;
        } else {
            for &i in &self.changed_list[..self.changed_len] {
                self.settle_w[i as usize] = [0.0; W];
            }
        }
        self.changed_len = 0;
        use std::array::from_fn;
        for wi in 0..self.dirty.len() {
            let mut word = self.dirty[wi];
            while word != 0 {
                let i = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                // SAFETY: `i < n` (one mask bit per gate), pin indices
                // are `< n` by construction in `compile`, and
                // `changed_len < n` because each net enters the list at
                // most once per batch.
                unsafe {
                    let p0 = *c.pins.get_unchecked(i * 3) as usize;
                    let p1 = *c.pins.get_unchecked(i * 3 + 1) as usize;
                    let p2 = *c.pins.get_unchecked(i * 3 + 2) as usize;
                    // Per-lane changed bits; `diffs` is masked to valid
                    // transitions, so dead lanes select 0.0.
                    let bits = *self.diffs.get_unchecked(i).get_unchecked(lw) >> ls;
                    let s0 = *self.settle_w.get_unchecked(p0);
                    let s1 = *self.settle_w.get_unchecked(p1);
                    let s2 = *self.settle_w.get_unchecked(p2);
                    let d = *c.delays.get_unchecked(i);
                    // Unchanged fanins hold 0.0, so the plain fold
                    // equals ArrivalSim's changed-only fold; settle
                    // times are never NaN, so the comparison chain is
                    // exactly `f64::max`. Dead lanes are zeroed by an
                    // all-ones/all-zeros bitmask instead of a branch —
                    // the lane bits are data-random, and a per-lane
                    // branch would mispredict its way through the whole
                    // batch (masking `latest + d` to +0.0 is bit-exact
                    // with the scalar invariant's 0.0).
                    let keep = self.batch_keep(bits);
                    *self.settle_w.get_unchecked_mut(i) = from_fn(|j| {
                        let m = if s0[j] > s1[j] { s0[j] } else { s1[j] };
                        let latest = if m > s2[j] { m } else { s2[j] };
                        f64::from_bits((latest + d).to_bits() & keep[j])
                    });
                    *self.changed_list.get_unchecked_mut(self.changed_len) = i as u32;
                }
                self.changed_len += 1;
            }
        }
    }

    /// Dense settle batch: one branch-free sweep over *every* gate in
    /// topological order, writing all `W` lanes of every net (masked to
    /// 0.0 where the net does not toggle). Above the
    /// [`DENSE_BATCH_DIVISOR`] density the sweep beats the bitmask walk:
    /// stores stream sequentially, the hardware prefetcher covers the
    /// pin/delay/diff reads, and there is no trailing-zeros scan or
    /// changed-list traffic. Fanins always read fresh values — every
    /// lower-indexed net was rewritten earlier in this same sweep — so
    /// the fold matches the sparse batch bit for bit; self-pinned nets
    /// (inputs, constants) read 0.0 instead of their own stale entry.
    fn dense_settle_batch(&mut self, c: &CompiledNetlist, lw: usize, ls: usize) {
        self.batch_dense = true;
        self.changed_len = 0;
        use std::array::from_fn;
        for i in 0..c.n {
            // SAFETY: `dense_pins` entries are `< n` by construction in
            // `compile` or redirected to the sentinel at `n`, and
            // `settle_w` holds `n + 1` entries; the lane-mask index is
            // `< 2^W` by the `&`.
            unsafe {
                let p0 = *self.dense_pins.get_unchecked(i * 3) as usize;
                let p1 = *self.dense_pins.get_unchecked(i * 3 + 1) as usize;
                let p2 = *self.dense_pins.get_unchecked(i * 3 + 2) as usize;
                let bits = *self.diffs.get_unchecked(i).get_unchecked(lw) >> ls;
                // Self/forward pins (inputs and constants only) read
                // the permanently-zero sentinel — their own entry still
                // holds the previous batch.
                let s0 = *self.settle_w.get_unchecked(p0);
                let s1 = *self.settle_w.get_unchecked(p1);
                let s2 = *self.settle_w.get_unchecked(p2);
                let d = *c.delays.get_unchecked(i);
                let keep = self.batch_keep(bits);
                *self.settle_w.get_unchecked_mut(i) = from_fn(|j| {
                    let m = if s0[j] > s1[j] { s0[j] } else { s1[j] };
                    let latest = if m > s2[j] { m } else { s2[j] };
                    f64::from_bits((latest + d).to_bits() & keep[j])
                });
            }
        }
    }

    /// Per-lane keep masks for a gate's batch bits: all-ones where the
    /// gate toggles in that lane, all-zeros otherwise — one table load
    /// at the dispatched widths instead of a broadcast/shift/compare
    /// chain per gate.
    #[inline(always)]
    fn batch_keep(&self, bits: u64) -> Lanes<W> {
        if W <= 8 {
            // SAFETY: the table holds `2^W` entries and the index is
            // masked to `W` bits.
            unsafe {
                *self
                    .lane_masks
                    .get_unchecked((bits & ((1u64 << W) - 1)) as usize)
            }
        } else {
            std::array::from_fn(|j| ((bits >> j) & 1).wrapping_neg())
        }
    }

    /// Steady-state value of `net` under the current input vector.
    #[inline]
    pub fn cur(&self, net: NetId) -> bool {
        let i = net.index();
        if self.window_mode {
            lane_bit(&self.plane[i], self.view_t + 1)
        } else {
            self.val[i] != 0
        }
    }

    /// Steady-state value of `net` under the previous input vector.
    #[inline]
    pub fn prev(&self, net: NetId) -> bool {
        let i = net.index();
        if self.window_mode {
            lane_bit(&self.plane[i], self.view_t)
        } else {
            (self.val[i] != 0) ^ (self.changed_mark[i] == self.epoch)
        }
    }

    /// Whether `net` changed value in the last transition.
    #[inline]
    pub fn changed(&self, net: NetId) -> bool {
        let i = net.index();
        if self.window_mode {
            lane_bit(&self.diffs[i], self.view_t)
        } else {
            self.changed_mark[i] == self.epoch
        }
    }

    /// Profiling helper: toggle counts for the loaded window. Returns,
    /// per transition, the number of nets that change value, plus the
    /// union count over each W-aligned batch (the set the batched
    /// settle pass actually walks).
    pub fn toggle_profile(&self) -> (Vec<usize>, Vec<usize>) {
        assert!(self.window_mode, "no window loaded");
        let valid = self.win_count - 1;
        let words = self.dirty.len();
        let per_t: Vec<usize> = (0..valid)
            .map(|t| {
                self.diff_t[t * words..(t + 1) * words]
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum()
            })
            .collect();
        let unions: Vec<usize> = (0..valid)
            .step_by(W)
            .map(|base| {
                let lanes = (valid - base).min(W);
                (0..words)
                    .map(|wi| {
                        let mut word = 0u64;
                        for j in 0..lanes {
                            word |= self.diff_t[(base + j) * words + wi];
                        }
                        word.count_ones() as usize
                    })
                    .sum()
            })
            .collect();
        (per_t, unions)
    }

    /// Settle time of `net` for the last transition (0 if unchanged).
    #[inline]
    pub fn settle_of(&self, net: NetId) -> f64 {
        let i = net.index();
        if self.window_mode {
            self.settle_w[i][self.view_t - self.batch_base]
        } else {
            self.settle[i]
        }
    }

    /// Latched value of `net` when the capturing edge arrives at `clk`
    /// with every delay inflated by `factor` (see
    /// [`TwoVectorResult::latched`]).
    #[inline]
    pub fn latched(&self, net: NetId, clk: f64, factor: f64) -> bool {
        if self.settle_of(net) * factor > clk {
            self.prev(net)
        } else {
            self.cur(net)
        }
    }

    /// Whether `net` latches an incorrect value at `clk` under `factor`.
    #[inline]
    pub fn is_error(&self, net: NetId, clk: f64, factor: f64) -> bool {
        self.latched(net, clk, factor) != self.cur(net)
    }

    /// The latest settle time over a set of nets (e.g. an output bus).
    pub fn max_settle(&self, nets: &[NetId]) -> f64 {
        nets.iter().map(|&n| self.settle_of(n)).fold(0.0, f64::max)
    }

    /// Dump the state of the last transition into `out`, producing the
    /// same contents [`ArrivalSim::run_into`] would for that
    /// `prev → cur` pair.
    ///
    /// [`ArrivalSim::run_into`]: crate::ArrivalSim::run_into
    pub fn snapshot_into(&self, out: &mut TwoVectorResult) {
        let n = self.val.len();
        out.prev.clear();
        out.cur.clear();
        out.settle.clear();
        if self.window_mode {
            let lane = self.view_t - self.batch_base;
            // `take(n)` skips the dense sweep's zero sentinel at `n`.
            out.settle
                .extend(self.settle_w.iter().take(n).map(|s| s[lane]));
        } else {
            out.settle.extend_from_slice(&self.settle);
        }
        out.prev.reserve(n);
        out.cur.reserve(n);
        if self.window_mode {
            for i in 0..n {
                out.cur.push(lane_bit(&self.plane[i], self.view_t + 1));
                out.prev.push(lane_bit(&self.plane[i], self.view_t));
            }
        } else {
            for i in 0..n {
                let cur = self.val[i] != 0;
                out.cur.push(cur);
                out.prev.push(cur ^ (self.changed_mark[i] == self.epoch));
            }
        }
    }

    /// One-shot `prev → cur` simulation (reset + advance), filling `out`
    /// with the same contents [`ArrivalSim::run_into`] would produce.
    /// Useful for drop-in validation; campaign loops should instead call
    /// [`advance`](ArrivalKernel::advance) per pair.
    ///
    /// [`ArrivalSim::run_into`]: crate::ArrivalSim::run_into
    pub fn run_into(
        &mut self,
        c: &CompiledNetlist,
        prev_inputs: &[bool],
        cur_inputs: &[bool],
        out: &mut TwoVectorResult,
    ) {
        self.reset(c, prev_inputs);
        self.advance(c, cur_inputs);
        self.snapshot_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ArrivalSim;
    use tei_netlist::CellLibrary;

    #[test]
    fn arity_table_matches_gate_kinds() {
        for &kind in GateKind::all_logic() {
            assert_eq!(
                ARITY[kind as u8 as usize] as usize,
                kind.arity(),
                "{kind:?} arity"
            );
        }
        assert_eq!(ARITY[GateKind::Input as u8 as usize], 0);
    }

    /// Every truth-table byte must reproduce the reference gate
    /// evaluation on all pin combinations, including the replication
    /// over unused high bits that makes pin padding safe.
    #[test]
    fn truth_tables_match_reference_eval() {
        let mut nl = Netlist::new("tt", CellLibrary::unit());
        let a = nl.add_input_bit();
        let b = nl.add_input_bit();
        let s = nl.add_input_bit();
        for &kind in GateKind::all_logic() {
            let pins: Vec<NetId> = [a, b, s][..kind.arity()].to_vec();
            let net = nl.add_gate(kind, &pins);
            let tt = TRUTH[kind as u8 as usize];
            for idx in 0u8..8 {
                let vals = [idx & 1 == 1, idx >> 1 & 1 == 1, idx >> 2 & 1 == 1];
                // Reference: steady-state eval through ArrivalSim.
                let res = ArrivalSim::run(&nl, &vals, &vals);
                let expect = res.cur[net.index()];
                // Replicated-table claim: the byte only depends on the
                // first `arity` bits.
                let masked = match kind.arity() {
                    1 => idx & 1,
                    2 => idx & 3,
                    _ => idx,
                };
                assert_eq!(
                    (tt >> idx) & 1,
                    (tt >> masked) & 1,
                    "{kind:?} table not replicated over unused bits"
                );
                assert_eq!((tt >> idx) & 1 == 1, expect, "{kind:?} at idx {idx}");
            }
        }
    }

    fn assert_matches_sim(nl: &Netlist, prev: &[bool], cur: &[bool]) {
        let reference = ArrivalSim::run(nl, prev, cur);
        let c = CompiledNetlist::compile(nl);
        let mut k = ArrivalKernel::new();
        let mut got = TwoVectorResult::default();
        k.run_into(&c, prev, cur, &mut got);
        assert_eq!(got.prev, reference.prev, "prev values");
        assert_eq!(got.cur, reference.cur, "cur values");
        for i in 0..nl.len() {
            assert!(
                got.settle[i].to_bits() == reference.settle[i].to_bits(),
                "settle[{i}]: kernel {} vs sim {}",
                got.settle[i],
                reference.settle[i]
            );
        }
    }

    #[test]
    fn unchanged_nets_settle_immediately() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let b = nl.add_input_bit();
        let x = nl.and(a, b);
        nl.mark_output_bus("x", &[x]);
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[false, false]);
        k.advance(&c, &[true, false]);
        assert_eq!(k.settle_of(x), 0.0);
        assert!(!k.is_error(x, 0.1, 1.0));
        assert_matches_sim(&nl, &[false, false], &[true, false]);
    }

    #[test]
    fn settle_accumulates_through_chain() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let mut cur = a;
        for _ in 0..4 {
            cur = nl.not(cur);
        }
        nl.mark_output_bus("o", &[cur]);
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[false]);
        k.advance(&c, &[true]);
        assert!((k.settle_of(cur) - 4.0).abs() < 1e-12);
        assert!(k.is_error(cur, 3.0, 1.0));
        assert!(!k.is_error(cur, 4.0, 1.0));
        assert!(k.is_error(cur, 4.5, 1.2));
        assert_matches_sim(&nl, &[false], &[true]);
    }

    /// Drive the same vector stream through both explicit strategies
    /// and the reference simulator; all three must agree bit-for-bit.
    /// (The public `advance` picks a strategy by toggle density; this
    /// pins down each path regardless of the heuristic.)
    #[test]
    fn dense_and_frontier_paths_agree_with_sim() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);

        let vec_of = |x: u64, y: u64| -> Vec<bool> {
            (0..8)
                .map(|i| (x >> i) & 1 == 1)
                .chain((0..8).map(|i| (y >> i) & 1 == 1))
                .collect()
        };
        let stream = [(0, 0), (255, 1), (1, 0), (170, 85), (255, 255), (0, 1)];
        let c = CompiledNetlist::compile(&nl);
        let mut kd = ArrivalKernel::new();
        let mut kf = ArrivalKernel::new();
        let mut snap_d = TwoVectorResult::default();
        let mut snap_f = TwoVectorResult::default();
        kd.reset(&c, &vec_of(stream[0].0, stream[0].1));
        kf.reset(&c, &vec_of(stream[0].0, stream[0].1));
        for w in stream.windows(2) {
            let prev = vec_of(w[0].0, w[0].1);
            let cur = vec_of(w[1].0, w[1].1);
            kd.advance_dense(&c, &cur);
            kf.advance_frontier(&c, &cur);
            kd.snapshot_into(&mut snap_d);
            kf.snapshot_into(&mut snap_f);
            let reference = ArrivalSim::run(&nl, &prev, &cur);
            for (label, snap) in [("dense", &snap_d), ("frontier", &snap_f)] {
                assert_eq!(snap.prev, reference.prev, "{label} prev values");
                assert_eq!(snap.cur, reference.cur, "{label} cur values");
                for i in 0..nl.len() {
                    assert_eq!(
                        snap.settle[i].to_bits(),
                        reference.settle[i].to_bits(),
                        "{label} settle[{i}]"
                    );
                }
            }
            assert!(
                (kd.max_settle(&[cout]) - reference.max_settle(&[cout])).abs() < 1e-15,
                "cout max_settle"
            );
        }
    }

    #[test]
    fn chained_advances_match_fresh_two_vector_runs() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);

        let vec_of = |x: u64, y: u64| -> Vec<bool> {
            (0..8)
                .map(|i| (x >> i) & 1 == 1)
                .chain((0..8).map(|i| (y >> i) & 1 == 1))
                .collect()
        };
        let stream = [(0, 0), (255, 1), (1, 0), (170, 85), (255, 255), (0, 1)];
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        let mut snap = TwoVectorResult::default();
        k.reset(&c, &vec_of(stream[0].0, stream[0].1));
        for w in stream.windows(2) {
            let prev = vec_of(w[0].0, w[0].1);
            let cur = vec_of(w[1].0, w[1].1);
            k.advance(&c, &cur);
            k.snapshot_into(&mut snap);
            let reference = ArrivalSim::run(&nl, &prev, &cur);
            assert_eq!(snap.prev, reference.prev, "prev values");
            assert_eq!(snap.cur, reference.cur, "cur values");
            for i in 0..nl.len() {
                assert_eq!(
                    snap.settle[i].to_bits(),
                    reference.settle[i].to_bits(),
                    "settle[{i}]"
                );
            }
            assert!(
                (k.max_settle(&[cout]) - reference.max_settle(&[cout])).abs() < 1e-15,
                "cout max_settle"
            );
        }
    }

    #[test]
    fn transpose64_matches_naive() {
        // Deterministic pseudo-random matrix (xorshift).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut m = [0u64; 64];
        for row in m.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let mut t = m;
        transpose64(&mut t);
        for (r, &row) in t.iter().enumerate() {
            for (c, &col) in m.iter().enumerate() {
                assert_eq!(
                    (row >> c) & 1,
                    (col >> r) & 1,
                    "transpose mismatch at ({r},{c})"
                );
            }
        }
    }

    /// The bit-sliced window path must reproduce the reference
    /// simulator transition by transition, across window boundaries.
    #[test]
    fn window_transitions_match_sim() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);
        let c = CompiledNetlist::compile(&nl);

        // 11 vectors split into windows of 5/5/3 with one-vector
        // overlap (4 + 4 + 2 = 10 transitions).
        let mut x = 0x1234_5678u64;
        let vectors: Vec<Vec<bool>> = (0..11)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0..16).map(|i| (x >> (i + 20)) & 1 == 1).collect()
            })
            .collect();

        let mut k = ArrivalKernel::new();
        let mut snap = TwoVectorResult::default();
        let mut start = 0usize;
        let mut seen = 0usize;
        while start + 1 < vectors.len() {
            let count = (vectors.len() - start).min(5);
            let flat: Vec<bool> = vectors[start..start + count]
                .iter()
                .flat_map(|v| v.iter().copied())
                .collect();
            k.load_window(&c, &flat, count);
            assert_eq!(k.window_transitions(), count - 1);
            for t in 0..count - 1 {
                k.select_transition(&c, t);
                k.snapshot_into(&mut snap);
                let reference = ArrivalSim::run(&nl, &vectors[start + t], &vectors[start + t + 1]);
                assert_eq!(snap.prev, reference.prev, "prev at transition {seen}");
                assert_eq!(snap.cur, reference.cur, "cur at transition {seen}");
                for i in 0..nl.len() {
                    assert_eq!(
                        snap.settle[i].to_bits(),
                        reference.settle[i].to_bits(),
                        "settle[{i}] at transition {seen}"
                    );
                }
                seen += 1;
            }
            start += count - 1;
        }
        assert_eq!(seen, 10);

        // A reset returns the kernel to per-pair mode.
        k.reset(&c, &vectors[0]);
        k.advance(&c, &vectors[1]);
        let reference = ArrivalSim::run(&nl, &vectors[0], &vectors[1]);
        assert!((k.max_settle(&[cout]) - reference.max_settle(&[cout])).abs() < 1e-15);
    }

    /// Drive the same vector stream through windows of every supported
    /// lane width; all widths must reproduce the reference simulator
    /// transition by transition, including windows that straddle the
    /// 64-vector word boundary of the multi-word lanes.
    fn window_width_matches_sim<const W: usize>() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);
        let c = CompiledNetlist::compile(&nl);

        let total = ArrivalKernel::<W>::WINDOW_VECTORS + 7;
        let mut x = 0x5eed_0123u64;
        let vectors: Vec<Vec<bool>> = (0..total)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0..16).map(|i| (x >> (i + 20)) & 1 == 1).collect()
            })
            .collect();

        let mut k = ArrivalKernel::<W>::default();
        let mut snap = TwoVectorResult::default();
        let mut start = 0usize;
        let mut seen = 0usize;
        while start + 1 < vectors.len() {
            let count = (vectors.len() - start).min(ArrivalKernel::<W>::WINDOW_VECTORS);
            let flat: Vec<bool> = vectors[start..start + count]
                .iter()
                .flat_map(|v| v.iter().copied())
                .collect();
            k.load_window(&c, &flat, count);
            assert_eq!(k.window_transitions(), count - 1);
            for t in 0..count - 1 {
                k.select_transition(&c, t);
                k.snapshot_into(&mut snap);
                let reference = ArrivalSim::run(&nl, &vectors[start + t], &vectors[start + t + 1]);
                assert_eq!(snap.prev, reference.prev, "W={W} prev at transition {seen}");
                assert_eq!(snap.cur, reference.cur, "W={W} cur at transition {seen}");
                for i in 0..nl.len() {
                    assert_eq!(
                        snap.settle[i].to_bits(),
                        reference.settle[i].to_bits(),
                        "W={W} settle[{i}] at transition {seen}"
                    );
                }
                seen += 1;
            }
            start += count - 1;
        }
        assert_eq!(seen, total - 1);
    }

    #[test]
    fn multi_word_windows_match_sim() {
        window_width_matches_sim::<1>();
        window_width_matches_sim::<4>();
        window_width_matches_sim::<8>();
    }

    /// Partial windows at every count around the lane word boundaries
    /// (the `>> 1` diff borrow and the transpose row cutoff) must stay
    /// exact — these are the off-by-one hot spots of the W-word layout.
    #[test]
    fn word_boundary_window_counts_match_sim() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
        let a = nl.add_input_bus("a", 6);
        let b = nl.add_input_bus("b", 6);
        let zero = nl.const_bit(false);
        let (sum, _) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        let c = CompiledNetlist::compile(&nl);
        let mut x = 0xabcd_ef01u64;
        let vectors: Vec<Vec<bool>> = (0..195)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0..12).map(|i| (x >> (i + 20)) & 1 == 1).collect()
            })
            .collect();
        let mut k = ArrivalKernel::<4>::default();
        let mut snap = TwoVectorResult::default();
        for count in [2usize, 63, 64, 65, 127, 128, 129, 192, 193, 195] {
            let flat: Vec<bool> = vectors[..count]
                .iter()
                .flat_map(|v| v.iter().copied())
                .collect();
            k.load_window(&c, &flat, count);
            for t in 0..count - 1 {
                k.select_transition(&c, t);
                k.snapshot_into(&mut snap);
                let reference = ArrivalSim::run(&nl, &vectors[t], &vectors[t + 1]);
                assert_eq!(snap.prev, reference.prev, "count {count} prev at {t}");
                assert_eq!(snap.cur, reference.cur, "count {count} cur at {t}");
                for i in 0..nl.len() {
                    assert_eq!(
                        snap.settle[i].to_bits(),
                        reference.settle[i].to_bits(),
                        "count {count} settle[{i}] at {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn latched_error_matches_stale_value() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let x = nl.not(a);
        nl.mark_output_bus("x", &[x]);
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[false]);
        k.advance(&c, &[true]);
        assert!(k.latched(x, 0.5, 1.0));
        assert!(!k.latched(x, 1.0, 1.0));
    }

    /// The compiled static bounds must reproduce `Sta` exactly (same
    /// recurrence, same delay table) and dominate every dynamic settle
    /// time the kernel reports — the soundness fact behind safe-bit
    /// pruning and the `sanitize-arrivals` checks.
    #[test]
    fn static_bounds_match_sta_and_dominate_settles() {
        let mut nl = Netlist::new("t", CellLibrary::nangate45_like());
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let zero = nl.const_bit(false);
        let (sum, cout) = nl.ripple_add(&a, &b, zero);
        nl.mark_output_bus("sum", &sum);
        nl.mark_output_bus("cout", &[cout]);
        let c = CompiledNetlist::compile(&nl);
        let sta = crate::Sta::analyze(&nl);
        for i in 0..nl.len() {
            assert_eq!(
                c.static_bounds()[i].to_bits(),
                sta.arrivals()[i].to_bits(),
                "bound[{i}] vs Sta arrival"
            );
        }
        let vec_of = |x: u64, y: u64| -> Vec<bool> {
            (0..8)
                .map(|i| (x >> i) & 1 == 1)
                .chain((0..8).map(|i| (y >> i) & 1 == 1))
                .collect()
        };
        let stream = [(0, 0), (255, 1), (1, 0), (170, 85), (255, 255), (0, 1)];
        let mut k = ArrivalKernel::new();
        let mut snap = TwoVectorResult::default();
        k.reset(&c, &vec_of(stream[0].0, stream[0].1));
        for w in stream.windows(2) {
            k.advance(&c, &vec_of(w[1].0, w[1].1));
            k.snapshot_into(&mut snap);
            for i in 0..nl.len() {
                assert!(
                    snap.settle[i] <= c.static_bounds()[i] + 1e-9,
                    "settle[{i}] {} exceeds static bound {}",
                    snap.settle[i],
                    c.static_bounds()[i]
                );
            }
        }
    }

    #[test]
    fn identical_vectors_leave_no_changed_nets() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let x = nl.not(a);
        nl.mark_output_bus("x", &[x]);
        let c = CompiledNetlist::compile(&nl);
        let mut k = ArrivalKernel::new();
        k.reset(&c, &[true]);
        k.advance(&c, &[true]);
        assert!(!k.changed(x));
        assert_eq!(k.settle_of(x), 0.0);
        assert_eq!(k.max_settle(&[x]), 0.0);
    }
}
