//! Cycle-level out-of-order core (the gem5 substitute).
//!
//! A 5-stage organization — fetch, dispatch/rename, issue (order-control
//! buffer), execute, commit — with ROB-based renaming, a bimodal branch
//! predictor, speculative wrong-path execution with squash on mispredict,
//! store-queue forwarding, a small direct-mapped data cache, and precise
//! exceptions at commit.
//!
//! Values are computed *in* the pipeline (execute-at-execute), so timing
//! error injection at FP writeback propagates architecturally exactly as in
//! the paper's microarchitecture-level methodology: corruptions on
//! wrong-path instructions are squashed (microarchitectural masking), and
//! corrupted committed values flow into dependent instructions, memory, and
//! control flow.

use crate::arch::{ArchState, ExitReason, FpEvent, RunResult, Trap};
use crate::mem::Memory;
use crate::sem;
use crate::sem::{write_kind, DestKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tei_isa::{FReg, Instr, Program, Reg, Syscall, DEFAULT_MEM_BYTES};
use tei_softfloat::FpuConfig;

/// Microarchitectural configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OooConfig {
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Issue-queue (order control buffer) capacity.
    pub iq_entries: usize,
    /// Integer ALU units.
    pub alu_units: usize,
    /// L1 data-cache hit latency (cycles).
    pub mem_latency: u64,
    /// Data-cache miss latency (cycles).
    pub miss_latency: u64,
    /// Direct-mapped data-cache lines (64-byte lines).
    pub cache_lines: usize,
    /// Bimodal predictor entries.
    pub bp_entries: usize,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            fetch_width: 2,
            issue_width: 2,
            commit_width: 2,
            rob_entries: 64,
            iq_entries: 32,
            alu_units: 2,
            mem_latency: 3,
            miss_latency: 20,
            cache_lines: 256,
            bp_entries: 1024,
        }
    }
}

/// Execution latency of an instruction class (cycles), mirroring the
/// six-stage FPU of the paper's Figure 3.
fn latency(i: &Instr) -> u64 {
    use Instr::*;
    match i {
        Mul { .. } => 3,
        Div { .. } | Rem { .. } => 12,
        FaddD { .. } | FsubD { .. } | FaddS { .. } | FsubS { .. } => 6,
        FmulD { .. } | FmulS { .. } => 6,
        FdivD { .. } | FdivS { .. } => 20,
        FcvtDL { .. } | FcvtLD { .. } | FcvtSW { .. } | FcvtWS { .. } => 4,
        FmvD { .. }
        | FnegD { .. }
        | FabsD { .. }
        | FmvXD { .. }
        | FmvDX { .. }
        | FeqD { .. }
        | FltD { .. }
        | FleD { .. } => 2,
        _ => 1,
    }
}

fn is_fp_domain(i: &Instr) -> bool {
    use Instr::*;
    matches!(
        i,
        FaddD { .. }
            | FsubD { .. }
            | FmulD { .. }
            | FdivD { .. }
            | FaddS { .. }
            | FsubS { .. }
            | FmulS { .. }
            | FdivS { .. }
            | FcvtDL { .. }
            | FcvtLD { .. }
            | FcvtSW { .. }
            | FcvtWS { .. }
            | FmvD { .. }
            | FnegD { .. }
            | FabsD { .. }
            | FmvXD { .. }
            | FmvDX { .. }
            | FeqD { .. }
            | FltD { .. }
            | FleD { .. }
    )
}

fn is_unpipelined_fp(i: &Instr) -> bool {
    matches!(i, Instr::FdivD { .. } | Instr::FdivS { .. })
}

/// Source operand slots: integer rs1/rs2, FP fs1/fs2.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    /// Not used.
    None,
    /// Value available.
    Ready(u64),
    /// Waiting on the ROB entry with this dispatch sequence number.
    Rob(u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Dispatched,
    Executing,
    Done,
}

#[derive(Debug, Clone)]
struct BranchInfo {
    pred_next: usize,
}

#[derive(Debug, Clone)]
struct RobEntry {
    pc: usize,
    instr: Instr,
    stage: Stage,
    srcs: [Src; 2],
    /// Integer operand for FP conversions / fmv.d.x (third source slot).
    xsrc: Src,
    value: u64,
    exception: Option<Trap>,
    branch: Option<BranchInfo>,
    // Store state (filled at execute).
    store_addr: u64,
    store_width: usize,
    store_ready: bool,
    /// Resolved next PC for control instructions.
    actual_next: Option<usize>,
    /// Speculative FP dynamic index (program order at dispatch).
    fp_index: Option<u64>,
    /// Saved rename-map entries for squash recovery.
    prev_map: Option<(DestKind, Option<u64>)>,
    /// Whether a queued entry was renamed to wait on this one.
    has_waiters: bool,
}

impl RobEntry {
    fn sources_ready(&self) -> bool {
        self.srcs
            .iter()
            .chain(std::iter::once(&self.xsrc))
            .all(|s| !matches!(s, Src::Rob(_)))
    }
}

/// One FP writeback recorded on the golden timeline — what the injector
/// targets when it draws a random cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpTimelineEvent {
    /// Cycle of the FP unit writeback.
    pub cycle: u64,
    /// Speculative (dispatch-order) FP index.
    pub spec_index: u64,
    /// The operation.
    pub op: tei_softfloat::FpOp,
    /// Architectural FP index, `None` if the op was squashed (wrong path).
    pub arch_index: Option<u64>,
}

/// Run statistics of the detailed core.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OooStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions squashed on mispredicts.
    pub squashed: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Data-cache misses.
    pub cache_misses: u64,
    /// Committed FP operations (the twelve modeled kinds).
    pub fp_committed: u64,
    /// FP writebacks that happened on the wrong path (squashed).
    pub fp_squashed: u64,
}

/// The detailed out-of-order core.
pub struct OooCore {
    cfg: OooConfig,
    text: Vec<Instr>,
    /// Committed architectural state.
    pub state: ArchState,
    /// Data memory (committed stores only).
    pub mem: Memory,
    /// Output stream.
    pub output: Vec<u8>,
    fpu_cfg: FpuConfig,

    /// In-order queue, front = oldest. Entry `rob[i]` carries dispatch
    /// sequence number `head_seq + i`.
    rob: VecDeque<RobEntry>,
    /// Sequence number of the ROB head; every smaller sequence committed.
    head_seq: u64,
    /// Rename maps: sequence of the youngest in-flight producer, `None`
    /// (or a committed sequence) for the architectural register file.
    map_x: [Option<u64>; 32],
    map_f: [Option<u64>; 32],
    /// Sequences of dispatched, not-yet-issued entries, oldest first. Only
    /// these entries hold `Src::Rob` tags.
    iq: Vec<u64>,
    /// The queued sequences whose sources are all available, oldest first.
    ready: Vec<u64>,
    /// `(completion cycle, sequence)` of every executing entry, oldest
    /// first.
    exec: Vec<(u64, u64)>,
    fetch_pc: usize,
    fetch_stalled: bool,
    cycle: u64,
    fp_dispatch_count: u64,
    fp_commit_count: u64,

    // Predictors.
    bimodal: Vec<u8>,
    jalr_targets: Vec<usize>,

    // FP divider occupancy (unpipelined).
    fpu_busy_until: u64,
    int_div_busy_until: u64,

    // Data cache tags (direct mapped, 64-byte lines).
    cache_tags: Vec<Option<u64>>,

    /// Per-run FP writeback timeline.
    pub fp_timeline: Vec<FpTimelineEvent>,
    /// Statistics.
    pub stats: OooStats,
    exit: Option<ExitReason>,
}

impl OooCore {
    /// Build a detailed core with the default memory size.
    pub fn new(program: &Program, cfg: OooConfig) -> Self {
        Self::with_memory(program, cfg, DEFAULT_MEM_BYTES as usize)
    }

    /// Build a detailed core with an explicit memory size.
    pub fn with_memory(program: &Program, cfg: OooConfig, mem_bytes: usize) -> Self {
        let stack_top = (tei_isa::DATA_BASE as usize + mem_bytes - 16) as u64;
        OooCore {
            text: program.text.clone(),
            state: ArchState::new(program.entry, stack_top),
            mem: Memory::with_image(mem_bytes, &program.data),
            output: Vec::new(),
            fpu_cfg: FpuConfig { ftz: true },
            rob: VecDeque::new(),
            head_seq: 0,
            map_x: [None; 32],
            map_f: [None; 32],
            iq: Vec::new(),
            ready: Vec::new(),
            exec: Vec::new(),
            fetch_pc: program.entry,
            fetch_stalled: false,
            cycle: 0,
            fp_dispatch_count: 0,
            fp_commit_count: 0,
            bimodal: vec![1; cfg.bp_entries], // weakly not-taken
            jalr_targets: vec![0; cfg.bp_entries],
            fpu_busy_until: 0,
            int_div_busy_until: 0,
            cache_tags: vec![None; cfg.cache_lines],
            fp_timeline: Vec::new(),
            stats: OooStats::default(),
            exit: None,
            cfg,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Run until termination or `max_cycles`, with an FP writeback hook.
    pub fn run_with_hook(
        &mut self,
        max_cycles: u64,
        fp_hook: &mut dyn FnMut(&FpEvent) -> u64,
    ) -> RunResult {
        while self.exit.is_none() && self.cycle < max_cycles {
            self.step_cycle(fp_hook);
        }
        let exit = self.exit.unwrap_or(ExitReason::Limit);
        self.stats.cycles = self.cycle;
        RunResult {
            exit,
            instructions: self.stats.committed,
            fp_ops: self.fp_commit_count,
        }
    }

    /// Run fault-free.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        self.run_with_hook(max_cycles, &mut |ev: &FpEvent| ev.result)
    }

    fn step_cycle(&mut self, fp_hook: &mut dyn FnMut(&FpEvent) -> u64) {
        self.commit();
        if self.exit.is_some() {
            return;
        }
        self.writeback(fp_hook);
        self.issue();
        self.fetch_dispatch();
        self.cycle += 1;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { return };
            if head.stage != Stage::Done {
                return;
            }
            let e = self.rob.pop_front().expect("non-empty");
            // Rename entries and recovery snapshots still naming this
            // sequence now fall below `head_seq` and read the architectural
            // file, which is updated below.
            self.head_seq += 1;
            self.stats.committed += 1;
            // Precise exception.
            if let Some(trap) = e.exception {
                self.exit = Some(ExitReason::Trapped(trap));
                return;
            }
            // Serializing instructions act at commit.
            match e.instr {
                Instr::Ecall => {
                    if !self.do_syscall() {
                        return;
                    }
                    self.fetch_pc = e.pc + 1;
                    self.fetch_stalled = false;
                }
                Instr::Halt => {
                    self.exit = Some(ExitReason::Halted);
                    return;
                }
                _ => {}
            }
            // Stores write memory in order at commit.
            if e.store_ready {
                if let Err(f) = self.mem.store(e.store_addr, e.store_width, e.value) {
                    self.exit = Some(ExitReason::Trapped(f.into()));
                    return;
                }
                self.cache_fill(e.store_addr);
            }
            // Register writeback to committed state.
            match write_kind(&e.instr) {
                DestKind::Int(rd) => self.state.set_x(rd, e.value),
                DestKind::Fp(fd) => self.state.set_f(fd, e.value),
                DestKind::None => {}
            }
            if let Some(n) = e.actual_next {
                self.state.pc = n;
            }
            if let Some(spec) = e.fp_index {
                // Mark the timeline event architectural.
                if let Some(ev) = self
                    .fp_timeline
                    .iter_mut()
                    .rev()
                    .find(|t| t.spec_index == spec && t.arch_index.is_none())
                {
                    ev.arch_index = Some(self.fp_commit_count);
                }
                self.fp_commit_count += 1;
                self.stats.fp_committed += 1;
            }
            if e.actual_next.is_none() {
                self.state.pc = e.pc + 1;
            }
        }
    }

    /// Returns false when the syscall ended the run.
    fn do_syscall(&mut self) -> bool {
        match Syscall::from_u64(self.state.x(Reg::A7)) {
            Some(Syscall::Exit) => {
                self.exit = Some(ExitReason::Exited(self.state.x(Reg::A0) as i64));
                false
            }
            Some(Syscall::PutByte) => {
                self.output.push(self.state.x(Reg::A0) as u8);
                true
            }
            Some(Syscall::PutInt) => {
                let v = self.state.x(Reg::A0) as i64;
                self.output.extend_from_slice(v.to_string().as_bytes());
                true
            }
            Some(Syscall::PutF64) => {
                let bits = self.state.f(FReg::F10);
                self.output.extend_from_slice(&bits.to_le_bytes());
                true
            }
            None => {
                self.exit = Some(ExitReason::Trapped(Trap::BadSyscall(self.state.x(Reg::A7))));
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Writeback / branch resolution
    // ------------------------------------------------------------------

    fn writeback(&mut self, fp_hook: &mut dyn FnMut(&FpEvent) -> u64) {
        // Completing entries write back oldest first.
        let mut squash_after: Option<(usize, usize)> = None; // (rob idx, redirect pc)
        let mut i = 0;
        while i < self.exec.len() {
            let (done_at, seq) = self.exec[i];
            if done_at > self.cycle {
                i += 1;
                continue;
            }
            self.exec.remove(i);
            let idx = (seq - self.head_seq) as usize;
            let instr = self.rob[idx].instr;
            // FP writeback hook (injection point). Trapping operations
            // never write back and are invisible to the injector.
            if let (Some(op), Some(spec), None) = (
                instr.fp_op(),
                self.rob[idx].fp_index,
                self.rob[idx].exception,
            ) {
                let (a, b) = fp_event_operands(&self.rob[idx], &instr);
                let ev = FpEvent {
                    index: spec,
                    op,
                    a,
                    b,
                    result: self.rob[idx].value,
                };
                self.fp_timeline.push(FpTimelineEvent {
                    cycle: self.cycle,
                    spec_index: spec,
                    op,
                    arch_index: None,
                });
                self.rob[idx].value = fp_hook(&ev);
            }
            self.rob[idx].stage = Stage::Done;
            // Branch resolution.
            if let (Some(b), Some(actual)) = (&self.rob[idx].branch, self.rob[idx].actual_next) {
                let pred = b.pred_next;
                self.train_predictor(&instr, self.rob[idx].pc, actual);
                if actual != pred && squash_after.is_none() {
                    squash_after = Some((idx, actual));
                }
            }
            if self.rob[idx].has_waiters {
                self.wake_dependents(seq);
            }
        }
        if let Some((idx, redirect)) = squash_after {
            self.squash_younger_than(idx, redirect);
        }
    }

    /// Forward the value of `producer` to the queued entries waiting on it
    /// (only those hold tags) and mark the ones it completes ready.
    fn wake_dependents(&mut self, producer: u64) {
        let tag = Src::Rob(producer);
        let v = self.rob[(producer - self.head_seq) as usize].value;
        for &seq in &self.iq {
            let e = &mut self.rob[(seq - self.head_seq) as usize];
            let mut woken = false;
            for s in e.srcs.iter_mut().chain(std::iter::once(&mut e.xsrc)) {
                if *s == tag {
                    *s = Src::Ready(v);
                    woken = true;
                }
            }
            if woken && e.sources_ready() {
                let at = self.ready.partition_point(|&s| s < seq);
                self.ready.insert(at, seq);
            }
        }
    }

    fn train_predictor(&mut self, i: &Instr, pc: usize, actual_next: usize) {
        let slot = pc % self.cfg.bp_entries;
        match i {
            Instr::Jalr { .. } => {
                self.jalr_targets[slot] = actual_next;
            }
            _ if i.is_control() => {
                let taken = actual_next != pc + 1;
                let c = &mut self.bimodal[slot];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
            _ => {}
        }
    }

    fn squash_younger_than(&mut self, idx: usize, redirect: usize) {
        self.stats.mispredicts += 1;
        let mut min_fp: Option<u64> = None;
        // The queues are in sequence order: squashed entries form their tails.
        let keep = self.head_seq + idx as u64;
        self.iq.truncate(self.iq.partition_point(|&s| s <= keep));
        self.ready
            .truncate(self.ready.partition_point(|&s| s <= keep));
        self.exec
            .truncate(self.exec.partition_point(|&(_, s)| s <= keep));
        // Restore rename state newest-first.
        while self.rob.len() > idx + 1 {
            let e = self.rob.pop_back().expect("non-empty");
            self.stats.squashed += 1;
            if let Some((kind, prev)) = e.prev_map {
                match kind {
                    DestKind::Int(r) => self.map_x[r.num() as usize] = prev,
                    DestKind::Fp(r) => self.map_f[r.num() as usize] = prev,
                    DestKind::None => {}
                }
            }
            if let Some(fi) = e.fp_index {
                min_fp = Some(min_fp.map_or(fi, |m: u64| m.min(fi)));
                // Events already written back on the wrong path stay on the
                // timeline with arch_index = None (microarchitectural
                // masking); entries squashed before writeback logged nothing.
                if e.stage == Stage::Done {
                    self.stats.fp_squashed += 1;
                }
            }
        }
        if let Some(m) = min_fp {
            self.fp_dispatch_count = m;
        }
        self.fetch_pc = redirect;
        self.fetch_stalled = false;
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn issue(&mut self) {
        let mut issued = 0usize;
        let mut alu_used = 0usize;
        let mut mem_used = false;
        let mut fp_used = false;
        // Oldest-first over the entries whose sources are available: the
        // same choices as a scan of the whole queue, which skips the rest.
        let mut r = 0;
        while r < self.ready.len() && issued < self.cfg.issue_width {
            let seq = self.ready[r];
            r += 1;
            let idx = (seq - self.head_seq) as usize;
            let instr = self.rob[idx].instr;
            // Structural hazards.
            if instr.is_mem() {
                if mem_used {
                    continue;
                }
            } else if is_fp_domain(&instr) {
                if fp_used || self.cycle < self.fpu_busy_until {
                    continue;
                }
            } else if matches!(instr, Instr::Div { .. } | Instr::Rem { .. }) {
                if self.cycle < self.int_div_busy_until {
                    continue;
                }
            } else if alu_used >= self.cfg.alu_units {
                continue;
            }
            // Memory ordering: loads wait for older stores' addresses. A
            // store resolves its address when it issues, so the unresolved
            // older stores are exactly those still queued ahead.
            if is_load(&instr) && !self.older_stores_resolved(seq) {
                continue;
            }
            if self.execute(idx) {
                r -= 1;
                self.ready.remove(r);
                let q = self.iq.partition_point(|&s| s < seq);
                self.iq.remove(q);
                issued += 1;
                match () {
                    _ if instr.is_mem() => mem_used = true,
                    _ if is_fp_domain(&instr) => {
                        fp_used = true;
                        if is_unpipelined_fp(&instr) {
                            self.fpu_busy_until = self.cycle + latency(&instr);
                        }
                    }
                    _ if matches!(instr, Instr::Div { .. } | Instr::Rem { .. }) => {
                        self.int_div_busy_until = self.cycle + latency(&instr);
                    }
                    _ => alu_used += 1,
                }
            }
        }
    }

    /// Whether no store older than `seq` is still queued, waiting for its
    /// address.
    fn older_stores_resolved(&self, seq: u64) -> bool {
        self.iq
            .iter()
            .take_while(|&&s| s < seq)
            .all(|&s| !is_store(&self.rob[(s - self.head_seq) as usize].instr))
    }

    fn src_val(s: Src) -> u64 {
        match s {
            Src::Ready(v) => v,
            Src::None => 0,
            Src::Rob(_) => unreachable!("issued with pending source"),
        }
    }

    /// Execute instruction at `idx`; returns false if it must retry later
    /// (store-to-load aliasing without exact forwarding).
    fn execute(&mut self, idx: usize) -> bool {
        use Instr::*;
        let instr = self.rob[idx].instr;
        let a = Self::src_val(self.rob[idx].srcs[0]);
        let b = Self::src_val(self.rob[idx].srcs[1]);
        let xa = Self::src_val(self.rob[idx].xsrc);
        let pc = self.rob[idx].pc;
        let mut lat = latency(&instr);
        let mut exception = None;
        let value = match instr {
            Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Sll { .. }
            | Srl { .. }
            | Sra { .. }
            | Slt { .. }
            | Sltu { .. }
            | Mul { .. }
            | Div { .. }
            | Rem { .. } => sem::int_op(&instr, a, b),
            Addi { imm, .. } | Slti { imm, .. } => sem::int_op(&instr, a, imm as i64 as u64),
            Andi { imm, .. } | Ori { imm, .. } | Xori { imm, .. } => {
                sem::int_op(&instr, a, imm as u16 as u64)
            }
            Slli { .. } | Srli { .. } | Srai { .. } => sem::int_op(&instr, a, 0),
            Movhi { .. } => sem::int_op(&instr, 0, 0),
            Ld { off, .. }
            | Lw { off, .. }
            | Lwu { off, .. }
            | Lb { off, .. }
            | Lbu { off, .. }
            | Fld { off, .. }
            | Flw { off, .. } => {
                let addr = a.wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&instr);
                match self.load_with_forwarding(idx, addr, w) {
                    LoadOutcome::Value(raw, extra) => {
                        lat += extra;
                        sem::extend_load(&instr, raw)
                    }
                    LoadOutcome::Retry => return false,
                    LoadOutcome::Fault(f) => {
                        exception = Some(f.into());
                        0
                    }
                }
            }
            Sd { off, .. }
            | Sw { off, .. }
            | Sb { off, .. }
            | Fsd { off, .. }
            | Fsw { off, .. } => {
                let addr = a.wrapping_add(off as i64 as u64);
                let (w, _) = sem::mem_width(&instr);
                let e = &mut self.rob[idx];
                e.store_addr = addr;
                e.store_width = w;
                e.store_ready = true;
                b // store data travels in the value field
            }
            Beq { off, .. }
            | Bne { off, .. }
            | Blt { off, .. }
            | Bge { off, .. }
            | Bltu { off, .. }
            | Bgeu { off, .. } => {
                let taken = sem::branch_taken(&instr, a, b);
                let target = if taken {
                    pc.wrapping_add(off as i64 as usize)
                } else {
                    pc + 1
                };
                self.rob[idx].actual_next = Some(target);
                0
            }
            Jal { off, .. } => {
                self.rob[idx].actual_next = Some(pc.wrapping_add(off as i64 as usize));
                (pc + 1) as u64 // link value
            }
            Jalr { imm, .. } => {
                self.rob[idx].actual_next = Some(a.wrapping_add(imm as i64 as u64) as usize);
                (pc + 1) as u64 // link value
            }
            Ecall | Halt => 0,
            _ if is_fp_domain(&instr) => {
                let out = sem::fp_op(self.fpu_cfg, &instr, a, b, xa);
                if out.trap {
                    exception = Some(Trap::FpException);
                }
                out.bits
            }
            other => panic!("execute: unhandled {other}"),
        };
        let e = &mut self.rob[idx];
        e.value = value;
        e.exception = exception;
        e.stage = Stage::Executing;
        let seq = self.head_seq + idx as u64;
        let at = self.exec.partition_point(|&(_, s)| s < seq);
        self.exec.insert(at, (self.cycle + lat, seq));
        true
    }

    fn load_with_forwarding(&mut self, idx: usize, addr: u64, width: usize) -> LoadOutcome {
        // Youngest older store overlapping this load.
        for e in self.rob.range(..idx).rev() {
            if !is_store(&e.instr) || !e.store_ready {
                continue;
            }
            let (sa, sw) = (e.store_addr, e.store_width);
            let overlap = addr < sa.wrapping_add(sw as u64) && sa < addr.wrapping_add(width as u64);
            if !overlap {
                continue;
            }
            if sa == addr && sw == width {
                // Exact store-to-load forwarding (a microarchitectural
                // masking channel the paper calls out).
                return LoadOutcome::Value(e.value & width_mask(width), 0);
            }
            // Partial overlap: wait until the store commits.
            return LoadOutcome::Retry;
        }
        match self.mem.load(addr, width) {
            Ok(v) => {
                let extra = if self.cache_lookup(addr) {
                    0
                } else {
                    self.stats.cache_misses += 1;
                    self.cache_fill(addr);
                    self.cfg.miss_latency - self.cfg.mem_latency
                };
                LoadOutcome::Value(v, extra)
            }
            Err(f) => LoadOutcome::Fault(f),
        }
    }

    fn cache_index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> 6;
        ((line as usize) % self.cfg.cache_lines, line)
    }

    fn cache_lookup(&self, addr: u64) -> bool {
        let (i, t) = self.cache_index_tag(addr);
        self.cache_tags[i] == Some(t)
    }

    fn cache_fill(&mut self, addr: u64) {
        let (i, t) = self.cache_index_tag(addr);
        self.cache_tags[i] = Some(t);
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch / rename
    // ------------------------------------------------------------------

    fn fetch_dispatch(&mut self) {
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_stalled
                || self.rob.len() >= self.cfg.rob_entries
                || self.iq.len() >= self.cfg.iq_entries
            {
                return;
            }
            let pc = self.fetch_pc;
            let Some(&instr) = self.text.get(pc) else {
                // Invalid PC becomes a trapping bubble that commits (or is
                // squashed if this fetch was down the wrong path).
                self.push_entry(pc, Instr::Halt, Some(Trap::BadPc(pc as u64)));
                self.fetch_stalled = true;
                return;
            };
            // Predict next PC.
            let slot = pc % self.cfg.bp_entries;
            let pred_next = match instr {
                Instr::Jal { off, .. } => pc.wrapping_add(off as i64 as usize),
                Instr::Jalr { .. } => {
                    let t = self.jalr_targets[slot];
                    if t == 0 {
                        pc + 1
                    } else {
                        t
                    }
                }
                ref i if i.is_control() => {
                    if self.bimodal[slot] >= 2 {
                        pc.wrapping_add(branch_offset(i) as usize)
                    } else {
                        pc + 1
                    }
                }
                _ => pc + 1,
            };
            self.push_entry(pc, instr, None);
            if matches!(instr, Instr::Ecall | Instr::Halt) {
                self.fetch_stalled = true;
                return;
            }
            if instr.is_control() {
                let last = self.rob.back_mut().expect("just dispatched");
                last.branch = Some(BranchInfo { pred_next });
            }
            self.fetch_pc = pred_next;
            if instr.is_control() && pred_next != pc + 1 {
                // Taken-predicted control breaks the fetch group.
                return;
            }
        }
    }

    fn push_entry(&mut self, pc: usize, instr: Instr, exception: Option<Trap>) {
        let (srcs, xsrc) = self.rename_sources(&instr);
        for s in srcs.iter().chain(std::iter::once(&xsrc)) {
            if let Src::Rob(p) = *s {
                self.rob[(p - self.head_seq) as usize].has_waiters = true;
            }
        }
        let dest = write_kind(&instr);
        let prev = match dest {
            DestKind::Int(r) => Some((dest, self.map_x[r.num() as usize])),
            DestKind::Fp(r) => Some((dest, self.map_f[r.num() as usize])),
            DestKind::None => None,
        };
        let fp_index = instr.fp_op().map(|_| {
            let i = self.fp_dispatch_count;
            self.fp_dispatch_count += 1;
            i
        });
        let done = exception.is_some() || matches!(instr, Instr::Ecall | Instr::Halt);
        let seq = self.head_seq + self.rob.len() as u64;
        let entry = RobEntry {
            pc,
            instr,
            stage: if done { Stage::Done } else { Stage::Dispatched },
            srcs,
            xsrc,
            value: 0,
            exception,
            branch: None,
            store_addr: 0,
            store_width: 0,
            store_ready: false,
            actual_next: None,
            fp_index,
            prev_map: prev,
            has_waiters: false,
        };
        if !done {
            self.iq.push(seq);
            if entry.sources_ready() {
                self.ready.push(seq);
            }
        }
        self.rob.push_back(entry);
        match dest {
            DestKind::Int(r) if r != Reg::ZERO => self.map_x[r.num() as usize] = Some(seq),
            DestKind::Fp(r) => self.map_f[r.num() as usize] = Some(seq),
            _ => {}
        }
    }

    /// Source operand for a register renamed to `producer`; `arch` is the
    /// committed register value.
    fn rename_read(&self, producer: Option<u64>, arch: u64) -> Src {
        match producer {
            Some(seq) if seq >= self.head_seq => {
                let e = &self.rob[(seq - self.head_seq) as usize];
                if e.stage == Stage::Done {
                    Src::Ready(e.value)
                } else {
                    Src::Rob(seq)
                }
            }
            _ => Src::Ready(arch),
        }
    }

    fn read_x(&self, r: Reg) -> Src {
        if r == Reg::ZERO {
            return Src::Ready(0);
        }
        self.rename_read(self.map_x[r.num() as usize], self.state.x(r))
    }

    fn read_f(&self, r: FReg) -> Src {
        self.rename_read(self.map_f[r.num() as usize], self.state.f(r))
    }

    fn rename_sources(&self, i: &Instr) -> ([Src; 2], Src) {
        use Instr::*;
        match *i {
            Add { rs1, rs2, .. }
            | Sub { rs1, rs2, .. }
            | And { rs1, rs2, .. }
            | Or { rs1, rs2, .. }
            | Xor { rs1, rs2, .. }
            | Sll { rs1, rs2, .. }
            | Srl { rs1, rs2, .. }
            | Sra { rs1, rs2, .. }
            | Slt { rs1, rs2, .. }
            | Sltu { rs1, rs2, .. }
            | Mul { rs1, rs2, .. }
            | Div { rs1, rs2, .. }
            | Rem { rs1, rs2, .. } => ([self.read_x(rs1), self.read_x(rs2)], Src::None),
            Addi { rs1, .. }
            | Andi { rs1, .. }
            | Ori { rs1, .. }
            | Xori { rs1, .. }
            | Slti { rs1, .. }
            | Slli { rs1, .. }
            | Srli { rs1, .. }
            | Srai { rs1, .. }
            | Jalr { rs1, .. } => ([self.read_x(rs1), Src::None], Src::None),
            Movhi { .. } | Jal { .. } | Ecall | Halt => ([Src::None, Src::None], Src::None),
            Ld { rs1, .. }
            | Lw { rs1, .. }
            | Lwu { rs1, .. }
            | Lb { rs1, .. }
            | Lbu { rs1, .. }
            | Fld { rs1, .. }
            | Flw { rs1, .. } => ([self.read_x(rs1), Src::None], Src::None),
            Sd { rs1, rs2, .. } | Sw { rs1, rs2, .. } | Sb { rs1, rs2, .. } => {
                ([self.read_x(rs1), self.read_x(rs2)], Src::None)
            }
            Fsd { rs1, fs, .. } | Fsw { rs1, fs, .. } => {
                ([self.read_x(rs1), self.read_f(fs)], Src::None)
            }
            Beq { rs1, rs2, .. }
            | Bne { rs1, rs2, .. }
            | Blt { rs1, rs2, .. }
            | Bge { rs1, rs2, .. }
            | Bltu { rs1, rs2, .. }
            | Bgeu { rs1, rs2, .. } => ([self.read_x(rs1), self.read_x(rs2)], Src::None),
            FaddD { fs1, fs2, .. }
            | FsubD { fs1, fs2, .. }
            | FmulD { fs1, fs2, .. }
            | FdivD { fs1, fs2, .. }
            | FaddS { fs1, fs2, .. }
            | FsubS { fs1, fs2, .. }
            | FmulS { fs1, fs2, .. }
            | FdivS { fs1, fs2, .. }
            | FeqD { fs1, fs2, .. }
            | FltD { fs1, fs2, .. }
            | FleD { fs1, fs2, .. } => ([self.read_f(fs1), self.read_f(fs2)], Src::None),
            FcvtLD { fs1, .. }
            | FcvtWS { fs1, .. }
            | FmvD { fs1, .. }
            | FnegD { fs1, .. }
            | FabsD { fs1, .. }
            | FmvXD { fs1, .. } => ([self.read_f(fs1), Src::None], Src::None),
            FcvtDL { rs1, .. } | FcvtSW { rs1, .. } | FmvDX { rs1, .. } => {
                ([Src::None, Src::None], self.read_x(rs1))
            }
        }
    }
}

enum LoadOutcome {
    Value(u64, u64), // raw value, extra latency
    Retry,
    Fault(crate::mem::MemFault),
}

fn width_mask(w: usize) -> u64 {
    if w == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * w)) - 1
    }
}

fn is_store(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Sd { .. }
            | Instr::Sw { .. }
            | Instr::Sb { .. }
            | Instr::Fsd { .. }
            | Instr::Fsw { .. }
    )
}

fn is_load(i: &Instr) -> bool {
    i.is_mem() && !is_store(i)
}

fn branch_offset(i: &Instr) -> i64 {
    use Instr::*;
    match i {
        Beq { off, .. }
        | Bne { off, .. }
        | Blt { off, .. }
        | Bge { off, .. }
        | Bltu { off, .. }
        | Bgeu { off, .. } => *off as i64,
        _ => 0,
    }
}

/// Reconstruct the FP event operand pair from an executed ROB entry.
fn fp_event_operands(e: &RobEntry, i: &Instr) -> (u64, u64) {
    use Instr::*;
    let s0 = match e.srcs[0] {
        Src::Ready(v) => v,
        _ => 0,
    };
    let s1 = match e.srcs[1] {
        Src::Ready(v) => v,
        _ => 0,
    };
    let xa = match e.xsrc {
        Src::Ready(v) => v,
        _ => 0,
    };
    match i {
        FcvtDL { .. } | FcvtSW { .. } => (xa, 0),
        FcvtLD { .. } | FcvtWS { .. } => (s0, 0),
        FaddS { .. } | FsubS { .. } | FmulS { .. } | FdivS { .. } => {
            (s0 & 0xffff_ffff, s1 & 0xffff_ffff)
        }
        _ => (s0, s1),
    }
}
