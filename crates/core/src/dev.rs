//! Model development phase: dynamic timing analysis campaigns over the
//! gate-level FPU units, producing the per-bit error statistics and bitmask
//! libraries the injection models are built from (paper Section III.A).

use crate::config;
use crate::error::TeiError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tei_fpu::{FpuBank, FpuTimingSpec, FpuUnit};
use tei_isa::Program;
use tei_netlist::NetId;
use tei_softfloat::{FpOp, FpOpKind};
use tei_timing::{interpreted_engine, ArrivalEngine, CompiledNetlist, VoltageReduction};
use tei_uarch::FuncCore;

/// Per-operation operand trace: consecutive `(a, b)` raw-bit pairs in
/// execution order, as seen by that operation's functional unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSet {
    per_op: Vec<Vec<(u64, u64)>>,
}

impl Default for TraceSet {
    fn default() -> Self {
        TraceSet {
            per_op: vec![Vec::new(); 12],
        }
    }
}

impl TraceSet {
    /// Extract the FP operand trace of a program by instrumented functional
    /// execution, keeping at most `cap` pairs per operation type.
    pub fn capture(program: &Program, mem_bytes: usize, max_steps: u64, cap: usize) -> Self {
        let mut per_op: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 12];
        let mut core = FuncCore::with_memory(program, mem_bytes);
        // Reservoir-free capture: keep the first `cap` pairs (the paper
        // randomly extracts 1 M; execution order preserves the consecutive
        // same-unit previous-state semantics DTA needs).
        core.run_with_hook(max_steps, &mut |ev| {
            let slot = &mut per_op[ev.op.index()];
            if slot.len() < cap {
                slot.push((ev.a, ev.b));
            }
            ev.result
        });
        TraceSet { per_op }
    }

    /// The trace of one operation type.
    pub fn of(&self, op: FpOp) -> &[(u64, u64)] {
        &self.per_op[op.index()]
    }

    /// Total captured pairs.
    pub fn len(&self) -> usize {
        self.per_op.iter().map(Vec::len).sum()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge another trace set into this one (same caps not enforced).
    pub fn merge(&mut self, other: &TraceSet) {
        assert_eq!(self.per_op.len(), other.per_op.len(), "trace arity");
        for (dst, src) in self.per_op.iter_mut().zip(&other.per_op) {
            dst.extend_from_slice(src);
        }
    }
}

/// Uniform random operand pairs for one operation type (the IA model's
/// characterization kernels with randomized inputs).
pub fn random_operand_pairs(op: FpOp, count: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ (op.index() as u64) << 32);
    let fmt = op.format();
    let mask = if fmt.width() == 64 {
        u64::MAX
    } else {
        (1u64 << fmt.width()) - 1
    };
    let gen = |rng: &mut StdRng| -> u64 {
        match op.kind {
            FpOpKind::ItoF => {
                let bits = rng.gen_range(1..=op.precision.int_bits() as u64);
                let raw = rng.gen::<u64>() >> (64 - bits);
                if rng.gen() {
                    (raw as i64).wrapping_neg() as u64
                        & if op.precision.int_bits() == 32 {
                            0xffff_ffff
                        } else {
                            u64::MAX
                        }
                } else {
                    raw
                }
            }
            _ => rng.gen::<u64>() & mask,
        }
    };
    (0..count)
        .map(|_| {
            let a = gen(&mut rng);
            let b = if op.is_binary() { gen(&mut rng) } else { 0 };
            (a, b)
        })
        .collect()
}

/// DTA-derived error statistics of one operation type at one VR level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpErrorStats {
    /// The characterized operation.
    pub op: FpOp,
    /// Voltage-reduction level.
    pub vr: VoltageReduction,
    /// Operand pairs analyzed.
    pub samples: u64,
    /// Pairs whose output had at least one corrupted bit.
    pub faulty: u64,
    /// Per-output-bit error counts (LSB first) — the BER numerators.
    pub bit_errors: Vec<u64>,
    /// Library of observed error bitmasks (with multiplicity, capped).
    pub masks: Vec<u64>,
    /// Histogram of flipped-bit counts among faulty outputs (Figure 5).
    pub flip_hist: BTreeMap<usize, u64>,
}

impl OpErrorStats {
    /// Instruction-level error ratio (paper eq. 2 restricted to this type).
    pub fn error_ratio(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.faulty as f64 / self.samples as f64
        }
    }

    /// Per-bit error ratios (BER), LSB first.
    pub fn ber(&self) -> Vec<f64> {
        self.bit_errors
            .iter()
            .map(|&c| {
                if self.samples == 0 {
                    0.0
                } else {
                    c as f64 / self.samples as f64
                }
            })
            .collect()
    }

    /// An empty stats record for `(op, vr)` with `width` output bits.
    fn empty(op: FpOp, vr: VoltageReduction, width: usize) -> Self {
        OpErrorStats {
            op,
            vr,
            samples: 0,
            faulty: 0,
            bit_errors: vec![0; width],
            masks: Vec::new(),
            flip_hist: BTreeMap::new(),
        }
    }

    /// Fold `other` into `self` deterministically: counts add (they are
    /// associative), the mask library concatenates in call order, and the
    /// flip histogram sums per bucket. Merging per-shard stats in shard
    /// order therefore reproduces the serial campaign exactly.
    ///
    /// # Panics
    ///
    /// Panics when the records describe different `(op, vr)` cells or
    /// output widths.
    pub fn merge(&mut self, other: &OpErrorStats) {
        assert_eq!(self.op, other.op, "merging stats of different ops");
        assert_eq!(self.vr, other.vr, "merging stats of different VR levels");
        assert_eq!(
            self.bit_errors.len(),
            other.bit_errors.len(),
            "merging stats of different output widths"
        );
        self.samples += other.samples;
        self.faulty += other.faulty;
        for (dst, &src) in self.bit_errors.iter_mut().zip(&other.bit_errors) {
            *dst += src;
        }
        self.masks.extend_from_slice(&other.masks);
        for (&flips, &count) in &other.flip_hist {
            *self.flip_hist.entry(flips).or_default() += count;
        }
    }
}

/// Maximum retained masks per (op, VR) — enough for faithful empirical
/// sampling without unbounded memory. Libraries over the cap are reduced
/// by seeded reservoir sampling (not first-N truncation, which would
/// over-weight early-trace behavior).
const MASK_CAP: usize = 50_000;

/// Which arrival-engine implementation drives a campaign's inner loop.
/// A pure throughput knob: both engines are proven byte-identical (the
/// generated kernel is emitted from the same [`CompiledNetlist`] the
/// interpreter walks, and the equivalence suite asserts bit-exact
/// settle times), so statistics never depend on the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelBackend {
    /// Use the netlist-specialized generated kernel where it is the
    /// measured winner (lane width >= 4) and a fresh one is registered
    /// for the unit (tag *and* netlist fingerprint match), falling
    /// back to the interpreted [`tei_timing::ArrivalKernel`] otherwise
    /// (including always at `W = 1`, where the interpreter's sparse
    /// walk wins — see [`dta_engine`]).
    #[default]
    Auto,
    /// Always the interpreted kernel — the universal fallback that
    /// handles runtime-parsed netlists and the `interp` ablation side.
    Interpreter,
    /// Require the generated kernel at every lane width; campaigns over
    /// units without a fresh generated kernel fail with a config error
    /// instead of silently degrading (`TEI_KERNEL=codegen`).
    Generated,
}

/// Auto lane width of the interpreted kernel (`BENCH_dta.json` lanes
/// ablation on d-mul, 2-core host: W4 114k, W8 106k, W1 45k pairs/s).
pub const INTERP_LANES: usize = 4;

/// Auto lane width of the generated kernel (`BENCH_dta.json` codegen
/// ablation on d-mul, 2-core host: W8 216k, W4 111k, W1 33k pairs/s).
pub const CODEGEN_LANES: usize = 8;

/// Resolve a requested lane width (`None` = auto) to a concrete one:
/// the engine that will actually run decides, so auto never hands the
/// interpreter's width to the generated kernel or vice versa.
/// `fresh_kernel` is whether [`tei_kernels::registry`] holds a
/// fingerprint-fresh kernel for the unit (i.e. whether
/// [`KernelBackend::Auto`] dispatches to the generated kernel at
/// W >= 4).
pub fn resolve_lanes(
    requested: Option<usize>,
    backend: KernelBackend,
    fresh_kernel: bool,
) -> usize {
    if let Some(lanes) = requested {
        return lanes;
    }
    let generated = match backend {
        KernelBackend::Generated => true,
        KernelBackend::Auto => fresh_kernel,
        KernelBackend::Interpreter => false,
    };
    if generated {
        CODEGEN_LANES
    } else {
        INTERP_LANES
    }
}

/// Tuning knobs of the DTA campaign inner loop. Tuning never changes
/// the produced statistics — only how wide the windows are and which
/// engine computes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtaTuning {
    /// Window lane words of the bit-sliced kernel: 1, 4, or 8 `u64`s
    /// per net, i.e. 64 / 256 / 512 input vectors per whole-circuit
    /// evaluation pass (see [`tei_timing::ArrivalKernel`]). `None`
    /// (the default unless `TEI_LANES` forces a width) picks the
    /// measured-best width for the backend that will actually run —
    /// see [`resolve_lanes`]. Campaign statistics are bit-identical at
    /// every width.
    pub lanes: Option<usize>,
    /// Arrival-engine backend (see [`KernelBackend`]). Defaults to
    /// [`config::default_backend`] (`TEI_KERNEL`, auto when unset).
    pub backend: KernelBackend,
}

impl Default for DtaTuning {
    fn default() -> Self {
        DtaTuning {
            lanes: config::default_lanes(),
            backend: config::default_backend(),
        }
    }
}

/// Construct the arrival engine that drives DTA over `unit` at `lanes`
/// lane words under the given backend policy — the single dispatch
/// point shared by the campaign entry points, the throughput bench's
/// backend ablation, and the `tei codegen` CLI checks.
///
/// # Errors
///
/// [`TeiError::Config`] for a lane width outside
/// [`config::SUPPORTED_LANES`], or when [`KernelBackend::Generated`] is
/// requested but no fresh generated kernel exists for the unit.
pub fn dta_engine<'u>(
    unit: &'u FpuUnit,
    lanes: usize,
    backend: KernelBackend,
) -> Result<Box<dyn ArrivalEngine + 'u>, TeiError> {
    if !config::SUPPORTED_LANES.contains(&lanes) {
        return Err(TeiError::Config {
            knob: "TEI_LANES".to_string(),
            reason: format!("unsupported lane width {lanes} (supported: 1, 4, 8)"),
        });
    }
    let interp =
        || interpreted_engine(unit.dta_compiled(), lanes).expect("lane width validated above");
    match backend {
        KernelBackend::Interpreter => Ok(interp()),
        // Auto picks the measured winner per lane width: at W = 1 a
        // single-transition batch toggles ~40% of the nets, under the
        // interpreter's sparse-walk threshold, so its changed-list walk
        // beats the specialized kernel's always-dense sweep (0.74x in
        // the BENCH_dta.json `codegen` ablation); at W >= 4 the union
        // is dense and the generated kernel matches the interpreter at
        // W = 4 (0.97x) and wins at W = 8 (2.0x). `TEI_KERNEL=codegen`
        // forces the generated kernel at any width.
        KernelBackend::Auto if lanes < 4 => Ok(interp()),
        KernelBackend::Auto => Ok(tei_kernels::registry()
            .make_engine(unit, lanes)
            .map(|e| e as Box<dyn ArrivalEngine + 'u>)
            .unwrap_or_else(interp)),
        KernelBackend::Generated => tei_kernels::registry()
            .make_engine(unit, lanes)
            .map(|e| e as Box<dyn ArrivalEngine + 'u>)
            .ok_or_else(|| TeiError::Config {
                knob: "TEI_KERNEL".to_string(),
                reason: format!(
                    "no fresh generated kernel for unit {} (stale fingerprint or \
                     unregistered netlist); use `auto` or `interp`",
                    unit.tag()
                ),
            }),
    }
}

/// Per-corner live output bits: the `(bit, net)` pairs the inner loop
/// must actually threshold. Bits whose static arrival bound keeps them
/// inside the clock period at that corner are dropped — exactly, not
/// approximately: dynamic settle times never exceed the static bound
/// (the `sanitize-arrivals` feature re-scans every bit of every
/// transition to assert it), and the nominal clamp only lowers them
/// further, so a statically-safe bit can never enter an error mask.
fn live_bits(
    compiled: &CompiledNetlist,
    outputs: &[NetId],
    factors: &[f64],
    clk: f64,
) -> Vec<Vec<(usize, NetId)>> {
    factors
        .iter()
        .map(|&k| {
            outputs
                .iter()
                .enumerate()
                .filter(|&(_, &net)| compiled.static_bound(net) * k > clk)
                .map(|(bit, &net)| (bit, net))
                .collect()
        })
        .collect()
}

/// Output bits per VR level that the static slack oracle proves safe for
/// `unit` at clock period `clk` — the work safe-bit pruning removes
/// from every transition of a campaign.
pub fn safe_bit_counts(unit: &FpuUnit, clk: f64, levels: &[VoltageReduction]) -> Vec<usize> {
    let compiled = unit.dta_compiled();
    let outputs = unit.result_port();
    levels
        .iter()
        .map(|vr| {
            let k = vr.derating_factor();
            outputs
                .iter()
                .filter(|&&net| compiled.static_bound(net) * k <= clk)
                .count()
        })
        .collect()
}

/// Per-transition stats accumulation shared by the full and sampled
/// campaigns (and every shard of the parallel paths): threshold the
/// settle time of each live output bit at every requested corner and
/// update counts, the mask library, and the flip histogram.
///
/// At the nominal corner the fabricated design meets timing by
/// construction, so settle times beyond the clock (γ-calibration tail
/// noise) are clamped to the clock period: they fail under any voltage
/// reduction but never at nominal. Masks accumulate uncapped here;
/// [`finalize_masks`] applies the reservoir cap after shards merge.
fn accumulate_transition(
    stats: &mut [OpErrorStats],
    factors: &[f64],
    live: &[Vec<(usize, NetId)>],
    outputs: &[NetId],
    clk: f64,
    engine: &dyn ArrivalEngine,
) {
    #[cfg(not(feature = "sanitize-arrivals"))]
    let _ = outputs;
    for ((s, &k), bits) in stats.iter_mut().zip(factors).zip(live) {
        s.samples += 1;
        let mut mask = 0u64;
        for &(bit, net) in bits {
            let settle = engine.settle_of(net).min(clk); // nominal clamp
            if settle * k > clk {
                mask |= 1 << bit;
                s.bit_errors[bit] += 1;
            }
        }
        // Cross-check the pruned mask against the full bit scan: the
        // static oracle must never have removed an erring bit.
        #[cfg(feature = "sanitize-arrivals")]
        {
            let mut full = 0u64;
            for (bit, &net) in outputs.iter().enumerate() {
                if engine.settle_of(net).min(clk) * k > clk {
                    full |= 1 << bit;
                }
            }
            assert_eq!(
                full, mask,
                "sanitize-arrivals: safe-bit pruning changed an error mask"
            );
        }
        if mask != 0 {
            s.faulty += 1;
            *s.flip_hist.entry(mask.count_ones() as usize).or_default() += 1;
            s.masks.push(mask);
        }
    }
}

/// Reduce oversized mask libraries to `cap` entries with in-place
/// Algorithm-R reservoir sampling, seeded from the `(op, vr)` cell so
/// the subsample is reproducible and identical between the serial and
/// sharded campaign paths.
fn finalize_masks_with_cap(stats: &mut [OpErrorStats], cap: usize) {
    for s in stats {
        if s.masks.len() <= cap {
            continue;
        }
        let seed = 0x6d61_736b_5245_5356u64
            ^ ((s.op.index() as u64) << 32)
            ^ (s.vr.fraction() * 1e6) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        for i in cap..s.masks.len() {
            let j = rng.gen_range(0..=i);
            if j < cap {
                s.masks[j] = s.masks[i];
            }
        }
        s.masks.truncate(cap);
    }
}

fn finalize_masks(stats: &mut [OpErrorStats]) {
    finalize_masks_with_cap(stats, MASK_CAP);
}

fn empty_stats(unit: &FpuUnit, levels: &[VoltageReduction], width: usize) -> Vec<OpErrorStats> {
    levels
        .iter()
        .map(|&vr| OpErrorStats::empty(unit.op(), vr, width))
        .collect()
}

/// Windows of work per distribution chunk. Small enough that a worker
/// stuck on a skewed chunk (dense transitions cost more than sparse
/// ones) cannot serialize the campaign the way the old static
/// contiguous split could — idle workers just pull the next chunk off
/// the cursor — and large enough that the one-vector state
/// re-establishment at each chunk boundary stays negligible (< 0.5 %).
const CHUNK_WINDOWS: usize = 4;

/// Error label for the DTA worker pools.
const DTA_POOL: &str = "DTA campaign";

/// Per-worker scratch reused across every chunk a worker claims: the
/// arrival engine (lane planes, settle arrays, transposed transition
/// masks) and the flat encode buffer are allocated once per worker
/// thread, never per window or per chunk.
struct EngineScratch<'u> {
    engine: Box<dyn ArrivalEngine + 'u>,
    flat: Vec<bool>,
}

/// One chunk's finished statistics, published exactly once by whichever
/// worker claimed the chunk. Aligned to its own cache line so adjacent
/// slots written by different workers never false-share.
#[derive(Default)]
#[repr(align(128))]
struct ChunkSlot(Mutex<Option<Vec<OpErrorStats>>>);

/// Run `n_chunks` chunk jobs across `threads` workers pulling chunk
/// indices off a shared atomic cursor, then merge the per-chunk stats
/// **in chunk-index order** — chunk order is transition order, so the
/// merged result is byte-identical to the serial walk no matter which
/// worker ran which chunk or in what order they finished.
///
/// `run_chunk(ci, scratch)` computes chunk `ci` with the worker's
/// reusable scratch. Each worker builds its scratch once on its own
/// thread via `make_scratch` (first-touch local allocation) and keeps
/// per-chunk accumulation thread-local; only the finished chunk result
/// is published. With no chunks, no scratch is built.
fn run_chunked<S>(
    n_chunks: usize,
    threads: usize,
    make_scratch: impl Fn() -> S + Sync,
    empty: impl Fn() -> Vec<OpErrorStats>,
    run_chunk: impl Fn(usize, &mut S) -> Vec<OpErrorStats> + Sync,
) -> Result<Vec<OpErrorStats>, TeiError> {
    let mut merged = empty();
    if n_chunks == 0 {
        return Ok(merged);
    }
    let threads = threads.clamp(1, n_chunks);
    if threads <= 1 {
        let mut scratch = make_scratch();
        for ci in 0..n_chunks {
            for (dst, src) in merged.iter_mut().zip(&run_chunk(ci, &mut scratch)) {
                dst.merge(src);
            }
        }
        return Ok(merged);
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<ChunkSlot> = (0..n_chunks).map(|_| ChunkSlot::default()).collect();
    let panicked = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|_| {
                    let mut scratch = make_scratch();
                    loop {
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let stats = run_chunk(ci, &mut scratch);
                        let mut slot = match slots[ci].0.lock() {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        *slot = Some(stats);
                    }
                })
            })
            .collect();
        // Join *every* handle (an early return would leave panicked
        // threads unjoined and re-panic at scope exit), then report.
        let mut panicked = false;
        for h in handles {
            panicked |= h.join().is_err();
        }
        panicked
    })
    .map_err(|_| TeiError::WorkerPool(DTA_POOL))?;
    if panicked {
        return Err(TeiError::WorkerPool(DTA_POOL));
    }
    for slot in slots {
        let stats = match slot.0.into_inner() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        }
        .ok_or(TeiError::WorkerPool(DTA_POOL))?;
        for (dst, src) in merged.iter_mut().zip(&stats) {
            dst.merge(src);
        }
    }
    Ok(merged)
}

/// How a campaign lays its items into bit-sliced windows — the one
/// thing the full-trace and sampled entry points do differently.
#[derive(Clone, Copy)]
enum Walk<'a> {
    /// Item `t` is the transition `pairs[t] → pairs[t+1]`. A window
    /// packs consecutive vectors and analyzes every adjacent pair.
    Chained(&'a [(u64, u64)]),
    /// Item `j` is the transition `trace[indices[j]-1] →
    /// trace[indices[j]]`. Sampled transitions are disjoint, so a
    /// window packs `prev, cur` vector pairs and analyzes the even
    /// transitions only (odd lanes straddle unrelated samples).
    Sampled {
        trace: &'a [(u64, u64)],
        indices: &'a [usize],
    },
}

impl Walk<'_> {
    /// Transitions the campaign analyzes.
    fn items(self) -> usize {
        match self {
            Walk::Chained(pairs) => pairs.len().saturating_sub(1),
            Walk::Sampled { indices, .. } => indices.len(),
        }
    }

    /// Items one window of `vectors` input vectors analyzes.
    fn per_window(self, vectors: usize) -> usize {
        match self {
            Walk::Chained(_) => vectors - 1,
            Walk::Sampled { .. } => vectors / 2,
        }
    }

    /// Feed items `range` through the worker's engine window by
    /// window, calling `tally` once per analyzed transition in item
    /// order.
    fn run(
        self,
        unit: &FpuUnit,
        range: Range<usize>,
        s: &mut EngineScratch,
        mut tally: impl FnMut(&dyn ArrivalEngine),
    ) {
        let width = unit.input_width();
        match self {
            Walk::Chained(pairs) => {
                // Consecutive windows overlap one vector, so every
                // transition in `range` is covered exactly once.
                let mut start = range.start;
                while start < range.end {
                    let count = (range.end - start + 1).min(s.engine.window_vectors());
                    for (v, &(a, b)) in pairs[start..start + count].iter().enumerate() {
                        unit.encode_inputs_into(a, b, &mut s.flat[v * width..(v + 1) * width]);
                    }
                    s.engine.load_window(&s.flat[..count * width], count);
                    for t in 0..count - 1 {
                        s.engine.select_transition(t);
                        tally(s.engine.as_ref());
                    }
                    start += count - 1;
                }
            }
            Walk::Sampled { trace, indices } => {
                for chunk in indices[range].chunks(s.engine.window_vectors() / 2) {
                    for (j, &i) in chunk.iter().enumerate() {
                        assert!(i >= 1 && i < trace.len(), "sample index out of range");
                        let lo = 2 * j * width;
                        let (prev, cur) = (trace[i - 1], trace[i]);
                        unit.encode_inputs_into(prev.0, prev.1, &mut s.flat[lo..lo + width]);
                        unit.encode_inputs_into(
                            cur.0,
                            cur.1,
                            &mut s.flat[lo + width..lo + 2 * width],
                        );
                    }
                    let count = chunk.len() * 2;
                    s.engine.load_window(&s.flat[..count * width], count);
                    for j in 0..chunk.len() {
                        s.engine.select_transition(2 * j);
                        tally(s.engine.as_ref());
                    }
                }
            }
        }
    }
}

/// The body both campaign entry points share: resolve the lane width
/// and validate the engine (so config errors surface before any worker
/// spawns), prune statically safe bits per corner, then walk
/// contiguous chunks of items across `threads` workers and merge them
/// in chunk order, which reproduces the serial walk byte for byte.
/// Each chunk re-establishes circuit state from its own first vector.
fn run_dta_campaign(
    unit: &FpuUnit,
    clk: f64,
    levels: &[VoltageReduction],
    threads: usize,
    tuning: DtaTuning,
    walk: Walk,
) -> Result<Vec<OpErrorStats>, TeiError> {
    let lanes = resolve_lanes(
        tuning.lanes,
        tuning.backend,
        tei_kernels::registry().covers(unit),
    );
    drop(dta_engine(unit, lanes, tuning.backend)?);
    let outputs = unit.result_port();
    let factors: Vec<f64> = levels.iter().map(|vr| vr.derating_factor()).collect();
    let live = live_bits(unit.dta_compiled(), outputs, &factors, clk);

    let items = walk.items();
    let vectors = lanes * 64;
    let span = CHUNK_WINDOWS * walk.per_window(vectors);
    let empty = || empty_stats(unit, levels, outputs.len());
    let make_scratch = || EngineScratch {
        engine: dta_engine(unit, lanes, tuning.backend).expect("tuning validated above"),
        flat: vec![false; vectors * unit.input_width()],
    };
    let run_chunk = |ci: usize, scratch: &mut EngineScratch| -> Vec<OpErrorStats> {
        let mut stats = empty();
        let range = ci * span..((ci + 1) * span).min(items);
        walk.run(unit, range, scratch, |engine| {
            accumulate_transition(&mut stats, &factors, &live, outputs, clk, engine);
        });
        stats
    };
    let mut stats = run_chunked(
        items.div_ceil(span),
        threads,
        make_scratch,
        empty,
        run_chunk,
    )?;
    finalize_masks(&mut stats);
    Ok(stats)
}

/// Run a DTA campaign for one unit over an operand-pair stream, producing
/// stats for every requested VR level in one pass (uniform derating lets a
/// single settle computation be re-thresholded per corner).
///
/// The first pair only establishes circuit state; transition `k` is
/// `pairs[k] → pairs[k+1]`, the chained access pattern the compiled
/// [`ArrivalKernel`] advances without re-evaluating unchanged cones.
/// Work is distributed in chunks across `threads` worker threads; the
/// parallel output is byte-identical to the single-threaded one.
///
/// `tuning` never changes the produced statistics — only how wide the
/// lane words are and which engine backend runs them.
/// [`DtaTuning::default`] takes the `TEI_LANES` lane width and the
/// `TEI_KERNEL` backend.
///
/// [`ArrivalKernel`]: tei_timing::ArrivalKernel
///
/// # Errors
///
/// [`TeiError::Config`] for a lane width outside
/// [`config::SUPPORTED_LANES`] or an unsatisfiable backend requirement;
/// [`TeiError::WorkerPool`] when a campaign worker panics.
pub fn dta_campaign(
    unit: &FpuUnit,
    pairs: &[(u64, u64)],
    clk: f64,
    levels: &[VoltageReduction],
    threads: usize,
    tuning: DtaTuning,
) -> Result<Vec<OpErrorStats>, TeiError> {
    run_dta_campaign(unit, clk, levels, threads, tuning, Walk::Chained(pairs))
}

/// DTA over a *sampled subset* of a trace: each sampled index `i ≥ 1`
/// is analyzed as the transition `trace[i-1] → trace[i]`, preserving the
/// true previous circuit state of every sampled dynamic instruction (the
/// paper's "randomly extracted" characterization). Statistics follow
/// index order; threads and tuning act as in [`dta_campaign`].
///
/// # Errors
///
/// As [`dta_campaign`].
///
/// # Panics
///
/// Panics when an index is 0 or past the trace end. With more than
/// one thread the panic happens in a worker and returns as
/// [`TeiError::WorkerPool`] instead.
pub fn dta_campaign_sampled(
    unit: &FpuUnit,
    trace: &[(u64, u64)],
    indices: &[usize],
    clk: f64,
    levels: &[VoltageReduction],
    threads: usize,
    tuning: DtaTuning,
) -> Result<Vec<OpErrorStats>, TeiError> {
    run_dta_campaign(
        unit,
        clk,
        levels,
        threads,
        tuning,
        Walk::Sampled { trace, indices },
    )
}

/// Average absolute BER estimation error (paper eq. 3) between a
/// full-trace reference and a sampled estimate, over bits where the
/// reference is non-zero.
pub fn average_absolute_error(full: &[f64], sim: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&f, &s) in full.iter().zip(sim) {
        if f > 0.0 {
            sum += ((f - s) / f).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The fixed error ratios of the data-agnostic model, measured by DTA over
/// a pooled benchmark-mix instruction stream (paper Section IV.C.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaCalibration {
    /// `(VR level, fixed ER)` pairs.
    pub er: Vec<(VoltageReduction, f64)>,
}

/// Map `f` over all twelve operation types, distributing ops to up to
/// `TEI_THREADS` scoped worker threads through a shared work queue.
/// Results come back in op order regardless of completion order, so
/// callers folding them stay deterministic. Workers run their campaigns
/// serially (pass `threads = 1` down) to avoid oversubscription.
///
/// A worker that panics (or a slot left unfilled) surfaces as
/// [`TeiError::WorkerPool`] instead of tearing the process down, so model
/// development failures are reportable by the campaign orchestrator.
pub(crate) fn per_op_parallel<T, F>(f: F) -> Result<Vec<T>, TeiError>
where
    T: Send,
    F: Fn(FpOp) -> T + Sync,
{
    const POOL: &str = "per-op model development";
    let ops = FpOp::all();
    let threads = config::default_threads().clamp(1, ops.len());
    if threads <= 1 {
        return Ok(ops.into_iter().map(f).collect());
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..ops.len()).map(|_| Mutex::new(None)).collect();
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ops.len() {
                    break;
                }
                let value = f(ops[i]);
                let mut slot = match slots[i].lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *slot = Some(value);
            });
        }
    })
    .map_err(|_| TeiError::WorkerPool(POOL))?;
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .ok_or(TeiError::WorkerPool(POOL))
        })
        .collect()
}

/// Calibrate the DA model's fixed ER from pooled traces: the average
/// instruction error ratio over the mixed stream. Per-op campaigns run
/// on parallel worker threads; totals fold in op order.
///
/// # Errors
///
/// [`TeiError::WorkerPool`] when the per-op worker pool fails.
pub fn calibrate_da(
    bank: &FpuBank,
    spec: &FpuTimingSpec,
    pooled: &TraceSet,
    levels: &[VoltageReduction],
    per_op_cap: usize,
) -> Result<DaCalibration, TeiError> {
    let per_op: Vec<Result<Option<Vec<OpErrorStats>>, TeiError>> = per_op_parallel(|op| {
        let trace = pooled.of(op);
        if trace.len() < 2 {
            return Ok(None);
        }
        let take = trace.len().min(per_op_cap);
        let tuning = DtaTuning::default();
        dta_campaign(bank.unit(op), &trace[..take], spec.clk, levels, 1, tuning).map(Some)
    })?;
    let mut totals = vec![(0u64, 0u64); levels.len()]; // (faulty, samples)
    for stats in per_op {
        for (t, s) in totals.iter_mut().zip(&stats?.unwrap_or_default()) {
            t.0 += s.faulty;
            t.1 += s.samples;
        }
    }
    Ok(DaCalibration {
        er: levels
            .iter()
            .zip(&totals)
            .map(|(&vr, &(f, n))| (vr, if n == 0 { 0.0 } else { f as f64 / n as f64 }))
            .collect(),
    })
}

/// Run the structural netlist lints over every unit of a bank, so a
/// campaign can refuse to characterize a broken design up front.
///
/// # Errors
///
/// [`TeiError::NetlistLint`] naming the first unit with findings.
pub fn lint_bank(bank: &FpuBank) -> Result<(), TeiError> {
    for unit in bank.iter() {
        let diagnostics = tei_netlist::lint_netlist(unit.netlist());
        if !diagnostics.is_empty() {
            return Err(TeiError::NetlistLint {
                design: unit.tag().to_string(),
                diagnostics,
            });
        }
    }
    Ok(())
}

/// Generate (or regenerate) the calibrated FPU bank used across the
/// toolflow, honoring `TEI_DTA_SAMPLES` for campaign sizing decisions.
pub fn default_bank() -> (FpuBank, FpuTimingSpec) {
    let spec = FpuTimingSpec::paper_calibrated();
    (FpuBank::generate(&spec), spec)
}

/// The default DTA sample budget (see [`config::default_dta_samples`]).
pub fn dta_samples() -> usize {
    config::default_dta_samples()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tei_softfloat::Precision;

    fn stats_with_masks(masks: Vec<u64>) -> OpErrorStats {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let mut s = OpErrorStats::empty(op, VoltageReduction::VR20, 32);
        s.masks = masks;
        s
    }

    #[test]
    fn reservoir_cap_is_deterministic_and_unbiased_to_prefix() {
        let full: Vec<u64> = (1..=1000).collect();
        let mut a = [stats_with_masks(full.clone())];
        let mut b = [stats_with_masks(full.clone())];
        finalize_masks_with_cap(&mut a, 64);
        finalize_masks_with_cap(&mut b, 64);
        assert_eq!(a[0].masks, b[0].masks, "same seed, same subsample");
        assert_eq!(a[0].masks.len(), 64);
        assert!(a[0].masks.iter().all(|m| full.contains(m)));
        assert_ne!(
            a[0].masks,
            full[..64].to_vec(),
            "reservoir must not degenerate to first-N truncation"
        );
    }

    #[test]
    fn reservoir_leaves_small_libraries_untouched() {
        let mut s = [stats_with_masks(vec![3, 1, 2])];
        finalize_masks_with_cap(&mut s, 10);
        assert_eq!(s[0].masks, vec![3, 1, 2], "under-cap library keeps order");
    }

    #[test]
    fn merge_concatenates_masks_and_sums_counts() {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let mut a = OpErrorStats::empty(op, VoltageReduction::VR20, 2);
        let mut b = OpErrorStats::empty(op, VoltageReduction::VR20, 2);
        a.samples = 5;
        a.faulty = 2;
        a.bit_errors = vec![2, 0];
        a.masks = vec![0b01, 0b01];
        a.flip_hist.insert(1, 2);
        b.samples = 3;
        b.faulty = 1;
        b.bit_errors = vec![0, 1];
        b.masks = vec![0b10];
        b.flip_hist.insert(1, 1);
        a.merge(&b);
        assert_eq!(a.samples, 8);
        assert_eq!(a.faulty, 3);
        assert_eq!(a.bit_errors, vec![2, 1]);
        assert_eq!(a.masks, vec![0b01, 0b01, 0b10], "shard-order concatenation");
        assert_eq!(a.flip_hist.get(&1), Some(&3));
    }

    #[test]
    fn chunked_merge_preserves_chunk_order() {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let empty = || vec![OpErrorStats::empty(op, VoltageReduction::VR20, 8)];
        let run = |ci: usize, _s: &mut ()| {
            let mut v = empty();
            v[0].samples = 1;
            v[0].masks = vec![ci as u64];
            v
        };
        for threads in [1usize, 2, 5, 32] {
            let merged = run_chunked(17, threads, || (), empty, run).expect("pool");
            assert_eq!(merged[0].samples, 17);
            let want: Vec<u64> = (0..17).collect();
            assert_eq!(
                merged[0].masks, want,
                "masks must concatenate in chunk-index order at {threads} threads"
            );
        }
    }

    #[test]
    fn empty_walk_builds_no_scratch() {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let empty = || vec![OpErrorStats::empty(op, VoltageReduction::VR20, 8)];
        let no_scratch = || panic!("scratch built for an empty walk");
        let run = |_: usize, _s: &mut ()| -> Vec<OpErrorStats> { unreachable!() };
        for threads in [1usize, 2] {
            let merged = run_chunked(0, threads, no_scratch, empty, run).expect("pool");
            assert_eq!(merged[0].samples, 0);
        }
    }

    #[test]
    fn worker_panic_surfaces_as_pool_error() {
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let empty = || vec![OpErrorStats::empty(op, VoltageReduction::VR20, 8)];
        let run = |ci: usize, _s: &mut ()| -> Vec<OpErrorStats> {
            assert!(ci != 3, "injected worker fault");
            empty()
        };
        let err = run_chunked(8, 2, || (), empty, run).expect_err("must not succeed");
        assert!(
            matches!(err, TeiError::WorkerPool(_)),
            "worker panic must surface as a typed pool error, got {err}"
        );
    }

    #[test]
    fn bad_lane_width_is_a_config_error() {
        let (bank, spec) = default_bank();
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let pairs = random_operand_pairs(op, 8, 7);
        let tuning = DtaTuning {
            lanes: Some(3),
            ..DtaTuning::default()
        };
        // An empty walk builds no worker engine but is still validated.
        for pairs in [&pairs[..], &[]] {
            let err = dta_campaign(
                bank.unit(op),
                pairs,
                spec.clk,
                &[VoltageReduction::VR20],
                1,
                tuning,
            )
            .expect_err("lane width 3 must be rejected");
            assert!(
                matches!(err, TeiError::Config { .. }),
                "unsupported lanes must be a config error, got {err}"
            );
        }
    }

    #[test]
    fn lane_auto_pick_follows_measured_per_backend_order() {
        // Explicit requests always win, whatever the backend.
        for backend in [
            KernelBackend::Interpreter,
            KernelBackend::Generated,
            KernelBackend::Auto,
        ] {
            for fresh in [false, true] {
                for lanes in [1usize, 4, 8] {
                    assert_eq!(resolve_lanes(Some(lanes), backend, fresh), lanes);
                }
            }
        }
        // Auto picks the width of the engine that will actually run.
        assert_eq!(
            resolve_lanes(None, KernelBackend::Interpreter, true),
            INTERP_LANES
        );
        assert_eq!(
            resolve_lanes(None, KernelBackend::Auto, false),
            INTERP_LANES,
            "auto without a fresh kernel runs the interpreter"
        );
        assert_eq!(
            resolve_lanes(None, KernelBackend::Auto, true),
            CODEGEN_LANES
        );
        assert_eq!(
            resolve_lanes(None, KernelBackend::Generated, false),
            CODEGEN_LANES
        );
        // The shipped bank has fresh kernels, so the default tuning on
        // a fresh registry resolves to the codegen-best width.
        let (bank, _) = default_bank();
        let unit = bank.unit(FpOp::new(FpOpKind::Add, Precision::Single));
        assert!(tei_kernels::registry().covers(unit));
        assert_eq!(
            resolve_lanes(
                None,
                KernelBackend::Auto,
                tei_kernels::registry().covers(unit)
            ),
            CODEGEN_LANES
        );
    }

    #[test]
    fn every_backend_produces_identical_stats() {
        let (bank, spec) = default_bank();
        let op = FpOp::new(FpOpKind::Add, Precision::Single);
        let unit = bank.unit(op);
        let pairs = random_operand_pairs(op, 300, 11);
        let levels = [VoltageReduction::VR15, VoltageReduction::VR20];
        let runs: Vec<String> = [
            KernelBackend::Interpreter,
            KernelBackend::Generated,
            KernelBackend::Auto,
        ]
        .into_iter()
        .map(|backend| {
            let tuning = DtaTuning {
                backend,
                ..DtaTuning::default()
            };
            let stats = dta_campaign(unit, &pairs, spec.clk, &levels, 2, tuning)
                .expect("campaign succeeds");
            serde_json::to_string(&stats).expect("stats serialize")
        })
        .collect();
        assert_eq!(runs[0], runs[1], "interpreter vs generated kernel");
        assert_eq!(runs[0], runs[2], "interpreter vs auto dispatch");
    }
}
