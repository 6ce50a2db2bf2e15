//! Pinned timing digests of the detailed out-of-order core.
//!
//! Co-simulation (`cosim.rs`) checks only architectural results. This suite
//! pins the microarchitectural behaviour too: for every benchmark at
//! `Scale::Test`, under two configurations and two run modes, it folds the
//! run result, the pipeline statistics, the output stream, every FP
//! writeback timeline event (cycle, speculative index, op, architectural
//! index) and the final architectural state into one FNV-1a digest. Any
//! change to a simulated cycle, squash or event shows up here, so pipeline
//! refactors must leave these digests unchanged.

use tei_isa::{FReg, Reg};
use tei_uarch::{FpEvent, OooConfig, OooCore};
use tei_workloads::{build, BenchmarkId, Scale};

const MEM_BYTES: usize = 8 << 20;
const MAX_CYCLES: u64 = 5_000_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A config small enough that the ROB and issue queue stay full.
fn narrow() -> OooConfig {
    OooConfig {
        fetch_width: 1,
        issue_width: 1,
        commit_width: 1,
        rob_entries: 8,
        iq_entries: 4,
        alu_units: 1,
        ..OooConfig::default()
    }
}

/// Run one benchmark and digest everything the core exposes.
fn digest(id: BenchmarkId, cfg: OooConfig, corrupt: bool) -> u64 {
    let bench = build(id, Scale::Test);
    let mut core = OooCore::with_memory(&bench.program, cfg, MEM_BYTES);
    let mut writebacks = 0u64;
    // Flip one mantissa bit on every 97th FP writeback: corrupted values
    // steer branches (wrong-path squashes) and addresses (traps).
    let mut hook = |ev: &FpEvent| {
        writebacks += 1;
        if corrupt && writebacks.is_multiple_of(97) {
            ev.result ^ (1u64 << (ev.index % 52))
        } else {
            ev.result
        }
    };
    let result = core.run_with_hook(MAX_CYCLES, &mut hook);
    let mut h = Fnv::new();
    h.bytes(serde_json::to_string(&result).unwrap().as_bytes());
    h.bytes(serde_json::to_string(&core.stats).unwrap().as_bytes());
    h.u64(core.output.len() as u64);
    h.bytes(&core.output);
    h.u64(core.fp_timeline.len() as u64);
    for ev in &core.fp_timeline {
        h.u64(ev.cycle);
        h.u64(ev.spec_index);
        h.u64(ev.op.index() as u64);
        h.u64(ev.arch_index.map_or(u64::MAX, |i| i));
    }
    for r in 0..32 {
        h.u64(core.state.x(Reg::new(r)));
        h.u64(core.state.f(FReg::new(r)));
    }
    h.u64(core.state.pc as u64);
    h.0
}

fn check(cfg_name: &str, cfg: OooConfig, corrupt: bool, expected: &[(BenchmarkId, u64)]) {
    let mut mismatches = Vec::new();
    for &(id, want) in expected {
        let got = digest(id, cfg.clone(), corrupt);
        if got != want {
            mismatches.push(format!(
                "(BenchmarkId::{id:?}, {got:#018x}), // was {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{cfg_name} corrupt={corrupt}: timing digests changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn default_config_fault_free() {
    check(
        "default",
        OooConfig::default(),
        false,
        &[
            (BenchmarkId::Sobel, 0xce665be1576963d4),
            (BenchmarkId::Cg, 0x2b83061b1ec0dd59),
            (BenchmarkId::Kmeans, 0xbfe98ffcc245fee0),
            (BenchmarkId::SradV1, 0xae126fefdcc46e5e),
            (BenchmarkId::Hotspot, 0xb5c3a07ecd9a83d6),
            (BenchmarkId::Is, 0x109ac0a69f5e3e56),
            (BenchmarkId::Mg, 0x1620cddc13c0ebe7),
        ],
    );
}

#[test]
fn default_config_corrupted() {
    check(
        "default",
        OooConfig::default(),
        true,
        &[
            (BenchmarkId::Sobel, 0xce665be1576963d4),
            (BenchmarkId::Cg, 0xd5080bf6c4864914),
            (BenchmarkId::Kmeans, 0x0df28d0e48a2df28),
            (BenchmarkId::SradV1, 0x6522141b5fa7afe2),
            (BenchmarkId::Hotspot, 0x676634c32ac9f4a1),
            (BenchmarkId::Is, 0xa151aa119cbd200f),
            (BenchmarkId::Mg, 0xb520d7f4db6e6468),
        ],
    );
}

#[test]
fn narrow_config_fault_free() {
    check(
        "narrow",
        narrow(),
        false,
        &[
            (BenchmarkId::Sobel, 0xc79924e65cdcc0af),
            (BenchmarkId::Cg, 0xecb8429233b0c330),
            (BenchmarkId::Kmeans, 0xb9d8cbb9155fcd45),
            (BenchmarkId::SradV1, 0xe79a9391f7e6fcfa),
            (BenchmarkId::Hotspot, 0x42857148e024c2fb),
            (BenchmarkId::Is, 0x651fdddddeebda24),
            (BenchmarkId::Mg, 0xa4522fd2d4690fae),
        ],
    );
}

#[test]
fn narrow_config_corrupted() {
    check(
        "narrow",
        narrow(),
        true,
        &[
            (BenchmarkId::Sobel, 0xc79924e65cdcc0af),
            (BenchmarkId::Cg, 0x1bcf4a83579dad98),
            (BenchmarkId::Kmeans, 0xb9d8cbb9155fcd45),
            (BenchmarkId::SradV1, 0x13a0bdd566a8c19b),
            (BenchmarkId::Hotspot, 0x30989e5fe84b83bf),
            (BenchmarkId::Is, 0x11b0cbccc7e45ad6),
            (BenchmarkId::Mg, 0x755701892e74a491),
        ],
    );
}
