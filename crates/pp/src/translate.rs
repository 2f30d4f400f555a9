//! Pre-translated handler execution (the "compiled" fast path).
//!
//! [`Translated::new`] lowers a scheduled [`Program`] into a chain of
//! basic blocks once, so that handler invocation becomes straight-line
//! step execution plus branch resolution instead of per-pair
//! decode/execute. Every quantity the static dual-issue schedule
//! fixes is baked in at translation time: block pair counts, per-effect
//! cycle offsets, pre-extended immediates, field masks, and the per-block
//! contribution to [`RunStats`]. Only genuinely dynamic values — register
//! contents, environment responses, MDC hits and misses — are computed at
//! run time.
//!
//! # Equivalence obligations
//!
//! [`Translated::run_into`] must be *bit-identical* to [`emu::run_into`]:
//! the same `Result` (including error values), the same [`RunStats`], the
//! same [`TimedEffect`] timeline with the same offsets, and the same
//! sequence of [`Env`] calls. The suite in
//! `crates/pp/tests/translated_vs_emulated.rs` pins this over random
//! programs, budgets, and environments; `flash-protocol`'s differential
//! suite pins it for every real protocol handler. Three mechanisms uphold
//! the obligation:
//!
//! * Blocks end exactly at the emulator's divergence points (labels and
//!   control pairs), and the effect offsets baked into each block equal
//!   the pair index the emulator would report.
//! * A block that might cross the pair budget is never executed natively:
//!   the runner drops back into the emulator's resumable per-pair loop,
//!   so budget exhaustion and mid-block faults keep the emulator's exact
//!   error ordering and environment side effects.
//! * Programs the translator cannot prove canonical (a control
//!   instruction anywhere but the final pair of a block — hand-built
//!   programs only; the scheduler never emits such pairs) fall back to
//!   the emulator wholesale, as do entries into the middle of a block.

use crate::emu::{
    self, EffectKind, EffectSink, EmuError, Env, OutMsg, Regs, RunStats, TimedEffect,
};
use crate::isa::{AluOp, BrCond, FieldOp, Instr, MemOpKind, MemSize, Reg, SendTarget, NUM_REGS};
use crate::prog::Program;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Where control goes when a translated block finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Continue at this index into the translated block table.
    Goto(u32),
    /// The handler executed `switch`.
    Switch,
}

/// Sentinel block index meaning "control left the program" — a
/// fall-through off the last pair or a jump past the end. The runner
/// converts it into the emulator's `RanAway`/`BadPc` outcome.
const OFF_END: u32 = u32::MAX;

/// One straight-line micro-operation with everything static pre-resolved:
/// immediates extended, field masks materialized, register numbers
/// validated, and the effect offset (pairs completed before the owning
/// pair) baked in block-relative.
enum Step {
    Alu {
        op: AluOp,
        rd: u8,
        rs: u8,
        rt: u8,
    },
    AluImm {
        op: AluOp,
        rd: u8,
        rs: u8,
        imm: u64,
    },
    Lui {
        rd: u8,
        val: u64,
    },
    Field {
        op: FieldOp,
        rd: u8,
        rs: u8,
        mask: u64,
    },
    BfExt {
        rd: u8,
        rs: u8,
        pos: u8,
        mask: u64,
    },
    BfIns {
        rd: u8,
        rs: u8,
        pos: u8,
        mask: u64,
    },
    Ffs {
        rd: u8,
        rs: u8,
    },
    Load {
        rd: u8,
        rs: u8,
        off: u64,
        size: MemSize,
        offset: u64,
    },
    Store {
        rt: u8,
        rs: u8,
        off: u64,
        size: MemSize,
        offset: u64,
    },
    MfMsg {
        rd: u8,
        field: u8,
    },
    Send {
        target: SendTarget,
        with_data: bool,
        rtype: u8,
        rdest: u8,
        raddr: u8,
        raux: u8,
        offset: u64,
    },
    MemOp {
        kind: MemOpKind,
        raddr: u8,
        offset: u64,
    },
}

/// How a block transfers control, with branch targets pre-resolved to
/// block indices.
#[derive(Clone, Copy)]
enum Term {
    /// Fall through to the next leader.
    Next(u32),
    Jump(u32),
    Branch {
        cond: BrCond,
        rs: u8,
        rt: u8,
        taken: u32,
        next: u32,
    },
    BranchBit {
        set: bool,
        rs: u8,
        bit: u8,
        taken: u32,
        next: u32,
    },
    Switch,
}

struct Block {
    /// The block body, pre-lowered. Executed by [`exec_block`], which is
    /// monomorphized per [`Env`] so environment accesses inline into the
    /// block engine (a boxed per-block closure would force dynamic
    /// dispatch on every load, store, and message-field read).
    steps: Vec<Step>,
    term: Term,
    /// First pair of the block — the emulator re-entry point when the
    /// runner must fall back mid-run.
    start_pc: usize,
    /// Pairs in the block (static: control only ends a block).
    len: u64,
    /// Static [`RunStats`] contribution of executing the block once.
    instrs: u64,
    special: u64,
    alu_branch: u64,
    loads: u64,
    stores: u64,
}

/// A program lowered to native basic-block closures. Build once per
/// [`Program`] (see [`translate_shared`]) and reuse across invocations;
/// execution goes through [`Translated::run_into`].
pub struct Translated {
    program: Arc<Program>,
    blocks: Vec<Block>,
    /// Leader pair index → block index; `OFF_END` for non-leaders.
    block_of_pair: Vec<u32>,
    full: bool,
}

impl std::fmt::Debug for Translated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Translated")
            .field("pairs", &self.program.pairs.len())
            .field("blocks", &self.blocks.len())
            .field("full", &self.full)
            .finish()
    }
}

impl Translated {
    /// Lowers `program` into basic-block closures.
    pub fn new(program: Arc<Program>) -> Self {
        let len = program.pairs.len();
        // Leaders: pair 0, entry symbols, label targets, and the pair
        // after any control pair — the only places the emulator's pc can
        // arrive other than by falling through straight-line code.
        let mut is_leader = vec![false; len];
        if len > 0 {
            is_leader[0] = true;
        }
        for &pc in program.symbols.values() {
            if pc < len {
                is_leader[pc] = true;
            }
        }
        for &pc in &program.label_pc {
            if pc < len {
                is_leader[pc] = true;
            }
        }
        for (i, p) in program.pairs.iter().enumerate() {
            if (p.a.is_control() || p.b.is_control()) && i + 1 < len {
                is_leader[i + 1] = true;
            }
        }
        let leaders: Vec<usize> = (0..len).filter(|&i| is_leader[i]).collect();
        let mut block_of_pair = vec![OFF_END; len];
        for (bi, &pc) in leaders.iter().enumerate() {
            block_of_pair[pc] = bi as u32;
        }
        let mut blocks = Vec::with_capacity(leaders.len());
        let mut full = true;
        for (bi, &start) in leaders.iter().enumerate() {
            let end = leaders.get(bi + 1).copied().unwrap_or(len);
            match lower_block(&program, start, end, &block_of_pair) {
                Some(b) => blocks.push(b),
                None => {
                    full = false;
                    break;
                }
            }
        }
        if !full {
            blocks.clear();
        }
        Translated {
            program,
            blocks,
            block_of_pair,
            full,
        }
    }

    /// The program this translation was lowered from.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Whether every basic block was lowered to the native fast path.
    /// Scheduled programs always are; hand-built programs with control
    /// instructions away from the end of a pair run on the emulator.
    pub fn fully_translated(&self) -> bool {
        self.full
    }

    /// Number of lowered basic blocks (0 when not fully translated).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Executes the handler entered at pair index `entry`, bit-identical
    /// to [`emu::run_into`]: same result, statistics, effect timeline,
    /// and environment call sequence. `regs`/`sink` are reset on entry;
    /// on error the sink's contents are unspecified.
    ///
    /// # Errors
    ///
    /// As [`emu::run`].
    pub fn run_into(
        &self,
        entry: usize,
        env: &mut (impl Env + ?Sized),
        pair_budget: u64,
        regs: &mut Regs,
        sink: &mut EffectSink,
    ) -> Result<(u64, RunStats), EmuError> {
        let fast_entry = if self.full {
            self.block_of_pair
                .get(entry)
                .copied()
                .filter(|&b| b != OFF_END)
        } else {
            None
        };
        // Mid-block entries, past-end entries, and untranslatable
        // programs run on the reference emulator wholesale.
        let Some(b0) = fast_entry else {
            return emu::run_into(&self.program, entry, env, pair_budget, regs, sink);
        };
        regs.reset();
        sink.clear();
        let mut stats = RunStats {
            invocations: 1,
            ..RunStats::default()
        };
        let mut base = 0u64; // pairs completed before the current block
        let mut bi = b0;
        loop {
            let blk = &self.blocks[bi as usize];
            if base + blk.len > pair_budget {
                // The budget expires inside this block: replay its pairs
                // on the emulator loop so that a fault the emulator would
                // hit *before* the budget check keeps winning, and the
                // environment sees exactly the emulator's call sequence.
                stats.pairs = base;
                return emu::resume(
                    &self.program,
                    blk.start_pc,
                    env,
                    pair_budget,
                    regs,
                    sink,
                    &mut stats,
                )
                .map(|cycles| (cycles, stats));
            }
            let before = sink.len();
            let exit = exec_block(&blk.steps, blk.term, regs, env, sink)?;
            sink.rebase(before, base);
            base += blk.len;
            stats.instrs += blk.instrs;
            stats.special += blk.special;
            stats.alu_branch += blk.alu_branch;
            stats.loads += blk.loads;
            stats.stores += blk.stores;
            match exit {
                BlockExit::Switch => {
                    stats.pairs = base;
                    stats.mdc_misses = sink.mdc_misses();
                    return Ok((base, stats));
                }
                BlockExit::Goto(OFF_END) => {
                    // Control left the program. The emulator checks the
                    // budget before the failing fetch, so budget
                    // exhaustion at this exact point still wins.
                    return Err(if base >= pair_budget {
                        EmuError::RanAway {
                            budget: pair_budget,
                        }
                    } else {
                        EmuError::BadPc {
                            pc: self.program.pairs.len(),
                        }
                    });
                }
                BlockExit::Goto(b) => bi = b,
            }
        }
    }
}

/// Returns the shared translation of `program`, lowering it at most once
/// per program instance per process. The cache is keyed by `Arc` identity
/// and validated with a `Weak`, so a new `Arc` recycling a freed address
/// can never alias a stale entry; dead entries are purged on miss.
pub fn translate_shared(program: &Arc<Program>) -> Arc<Translated> {
    type Cache = Mutex<HashMap<usize, (Weak<Program>, Arc<Translated>)>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let key = Arc::as_ptr(program) as usize;
    let mut map = CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("translation cache poisoned");
    if let Some((w, t)) = map.get(&key) {
        if w.upgrade().is_some_and(|p| Arc::ptr_eq(&p, program)) {
            return t.clone();
        }
    }
    map.retain(|_, (w, _)| w.strong_count() > 0);
    let t = Arc::new(Translated::new(program.clone()));
    map.insert(key, (Arc::downgrade(program), t.clone()));
    t
}

/// Validates a register operand for raw-index access.
fn reg(r: Reg) -> Option<u8> {
    (r.index() < NUM_REGS).then_some(r.0)
}

/// Lowers the pairs `start..end` into one block, or `None` when the
/// region is not canonical (control away from the final pair, an invalid
/// register number, or a label outside the program's table) — the whole
/// program then falls back to the emulator.
fn lower_block(
    program: &Program,
    start: usize,
    end: usize,
    block_of_pair: &[u32],
) -> Option<Block> {
    let prog_len = program.pairs.len();
    // Resolve a control-transfer target pair index to a block index.
    let dest = |pc: usize| -> Option<u32> {
        if pc >= prog_len {
            return Some(OFF_END);
        }
        let b = block_of_pair[pc];
        (b != OFF_END).then_some(b)
    };
    let label_dest = |label: crate::isa::Label| -> Option<u32> {
        dest(*program.label_pc.get(label.0 as usize)?)
    };
    let mut steps = Vec::new();
    let mut term = None;
    let (mut instrs, mut special, mut alu_branch) = (0u64, 0u64, 0u64);
    let (mut loads, mut stores) = (0u64, 0u64);
    for pc in start..end {
        let pair = program.pairs[pc];
        let last = pc + 1 == end;
        let meta = program.pair_meta(pc);
        instrs += meta.instrs as u64;
        special += meta.special as u64;
        alu_branch += meta.alu_branch as u64;
        let k = (pc - start) as u64; // block-relative effect offset
        if pair.a.is_control() || pair.b.is_control() {
            // Only the scheduler's canonical shapes are lowered: exactly
            // one control instruction, in slot b (slot a free for a real
            // op) or alone in slot a with a NOP pad, and only as the
            // final pair of the block.
            if !last {
                return None;
            }
            let (op, ctl) = if pair.b.is_control() {
                if pair.a.is_control() {
                    return None;
                }
                (pair.a, pair.b)
            } else {
                if pair.b != Instr::Nop {
                    return None;
                }
                (pair.b, pair.a)
            };
            if op != Instr::Nop {
                lower_step(&mut steps, op, k, &mut loads, &mut stores)?;
            }
            term = Some(match ctl {
                Instr::Switch => Term::Switch,
                Instr::Jump { target } => Term::Jump(label_dest(target)?),
                Instr::Branch {
                    cond,
                    rs,
                    rt,
                    target,
                } => Term::Branch {
                    cond,
                    rs: reg(rs)?,
                    rt: reg(rt)?,
                    taken: label_dest(target)?,
                    next: dest(pc + 1)?,
                },
                Instr::BranchBit {
                    set,
                    rs,
                    bit,
                    target,
                } => Term::BranchBit {
                    set,
                    rs: reg(rs)?,
                    bit,
                    taken: label_dest(target)?,
                    next: dest(pc + 1)?,
                },
                _ => unreachable!("is_control covers exactly these variants"),
            });
        } else {
            for op in [pair.a, pair.b] {
                if op == Instr::Nop {
                    continue;
                }
                lower_step(&mut steps, op, k, &mut loads, &mut stores)?;
            }
            if last {
                term = Some(Term::Next(dest(pc + 1)?));
            }
        }
    }
    let term = term?;
    Some(Block {
        steps,
        term,
        start_pc: start,
        len: (end - start) as u64,
        instrs,
        special,
        alu_branch,
        loads,
        stores,
    })
}

/// Lowers one non-control instruction into `steps`, pre-resolving every
/// static quantity. Pure ALU writes to `r0` are dropped outright — the
/// emulator discards the write and nothing else observes the op. Loads
/// and stores are always kept (environment calls, alignment faults, and
/// MDC effects must match), as are `mfmsg`, `send`, and `memop`.
fn lower_step(
    steps: &mut Vec<Step>,
    op: Instr,
    k: u64,
    loads: &mut u64,
    stores: &mut u64,
) -> Option<()> {
    let dead = |rd: Reg| rd == Reg::ZERO;
    match op {
        Instr::Alu { op, rd, rs, rt } => {
            if !dead(rd) {
                steps.push(Step::Alu {
                    op,
                    rd: reg(rd)?,
                    rs: reg(rs)?,
                    rt: reg(rt)?,
                });
            }
        }
        Instr::AluImm { op, rd, rs, imm } => {
            if !dead(rd) {
                // Logical immediates zero-extend; arithmetic immediates
                // sign-extend (DLX convention) — resolved here, once.
                let imm = match op {
                    AluOp::And | AluOp::Or | AluOp::Xor => imm as u16 as u64,
                    _ => imm as i64 as u64,
                };
                steps.push(Step::AluImm {
                    op,
                    rd: reg(rd)?,
                    rs: reg(rs)?,
                    imm,
                });
            }
        }
        Instr::Lui { rd, imm } => {
            if !dead(rd) {
                steps.push(Step::Lui {
                    rd: reg(rd)?,
                    val: (imm as u64) << 16,
                });
            }
        }
        Instr::FieldImm {
            op,
            rd,
            rs,
            pos,
            width,
        } => {
            if !dead(rd) {
                steps.push(Step::Field {
                    op,
                    rd: reg(rd)?,
                    rs: reg(rs)?,
                    mask: crate::isa::field_mask(pos, width),
                });
            }
        }
        Instr::BfExt { rd, rs, pos, width } => {
            if !dead(rd) {
                steps.push(Step::BfExt {
                    rd: reg(rd)?,
                    rs: reg(rs)?,
                    pos,
                    mask: crate::isa::field_mask(0, width),
                });
            }
        }
        Instr::BfIns { rd, rs, pos, width } => {
            if !dead(rd) {
                steps.push(Step::BfIns {
                    rd: reg(rd)?,
                    rs: reg(rs)?,
                    pos,
                    mask: crate::isa::field_mask(pos, width),
                });
            }
        }
        Instr::Ffs { rd, rs } => {
            if !dead(rd) {
                steps.push(Step::Ffs {
                    rd: reg(rd)?,
                    rs: reg(rs)?,
                });
            }
        }
        Instr::Load { rd, rs, off, size } => {
            *loads += 1;
            steps.push(Step::Load {
                rd: reg(rd)?,
                rs: reg(rs)?,
                off: off as i64 as u64,
                size,
                offset: k,
            });
        }
        Instr::Store { rt, rs, off, size } => {
            *stores += 1;
            steps.push(Step::Store {
                rt: reg(rt)?,
                rs: reg(rs)?,
                off: off as i64 as u64,
                size,
                offset: k,
            });
        }
        Instr::MfMsg { rd, field } => {
            // Kept even for r0: the Env call is an observable.
            steps.push(Step::MfMsg {
                rd: reg(rd)?,
                field,
            });
        }
        Instr::Send {
            target,
            with_data,
            rtype,
            rdest,
            raddr,
            raux,
        } => {
            steps.push(Step::Send {
                target,
                with_data,
                rtype: reg(rtype)?,
                rdest: reg(rdest)?,
                raddr: reg(raddr)?,
                raux: reg(raux)?,
                offset: k,
            });
        }
        Instr::MemOp { kind, raddr } => {
            steps.push(Step::MemOp {
                kind,
                raddr: reg(raddr)?,
                offset: k,
            });
        }
        Instr::Nop
        | Instr::Branch { .. }
        | Instr::BranchBit { .. }
        | Instr::Jump { .. }
        | Instr::Switch => return None, // callers never pass these
    }
    Some(())
}

/// Executes one lowered block: the straight-line steps, then the
/// terminator. Effect offsets are block-relative; the runner rebases.
fn exec_block(
    steps: &[Step],
    term: Term,
    regs: &mut Regs,
    env: &mut (impl Env + ?Sized),
    sink: &mut EffectSink,
) -> Result<BlockExit, EmuError> {
    for s in steps {
        match *s {
            Step::Alu { op, rd, rs, rt } => {
                let v = op.apply(regs.get_i(rs), regs.get_i(rt));
                regs.set_i(rd, v);
            }
            Step::AluImm { op, rd, rs, imm } => {
                let v = op.apply(regs.get_i(rs), imm);
                regs.set_i(rd, v);
            }
            Step::Lui { rd, val } => regs.set_i(rd, val),
            Step::Field { op, rd, rs, mask } => {
                let a = regs.get_i(rs);
                let v = match op {
                    FieldOp::AndMask => a & mask,
                    FieldOp::AndNotMask => a & !mask,
                    FieldOp::OrMask => a | mask,
                    FieldOp::XorMask => a ^ mask,
                };
                regs.set_i(rd, v);
            }
            Step::BfExt { rd, rs, pos, mask } => {
                regs.set_i(rd, (regs.get_i(rs) >> pos) & mask);
            }
            Step::BfIns { rd, rs, pos, mask } => {
                let v = (regs.get_i(rd) & !mask) | ((regs.get_i(rs) << pos) & mask);
                regs.set_i(rd, v);
            }
            Step::Ffs { rd, rs } => {
                let v = regs.get_i(rs);
                regs.set_i(
                    rd,
                    if v == 0 {
                        64
                    } else {
                        v.trailing_zeros() as u64
                    },
                );
            }
            Step::Load {
                rd,
                rs,
                off,
                size,
                offset,
            } => {
                let addr = regs.get_i(rs).wrapping_add(off);
                if !addr.is_multiple_of(size.bytes()) {
                    return Err(EmuError::Unaligned { addr });
                }
                let (v, miss) = env.load(addr, size);
                if let Some(m) = miss {
                    sink.push(TimedEffect {
                        offset,
                        kind: EffectKind::Mdc(m),
                    });
                }
                regs.set_i(rd, v);
            }
            Step::Store {
                rt,
                rs,
                off,
                size,
                offset,
            } => {
                let addr = regs.get_i(rs).wrapping_add(off);
                if !addr.is_multiple_of(size.bytes()) {
                    return Err(EmuError::Unaligned { addr });
                }
                if let Some(m) = env.store(addr, regs.get_i(rt), size) {
                    sink.push(TimedEffect {
                        offset,
                        kind: EffectKind::Mdc(m),
                    });
                }
            }
            Step::MfMsg { rd, field } => {
                let v = env.msg_field(field);
                regs.set_i(rd, v);
            }
            Step::Send {
                target,
                with_data,
                rtype,
                rdest,
                raddr,
                raux,
                offset,
            } => {
                sink.push(TimedEffect {
                    offset,
                    kind: EffectKind::Send(OutMsg {
                        target,
                        with_data,
                        mtype: regs.get_i(rtype),
                        dest: regs.get_i(rdest),
                        addr: regs.get_i(raddr),
                        aux: regs.get_i(raux),
                    }),
                });
            }
            Step::MemOp {
                kind,
                raddr,
                offset,
            } => {
                sink.push(TimedEffect {
                    offset,
                    kind: EffectKind::MemOp {
                        kind,
                        addr: regs.get_i(raddr),
                    },
                });
            }
        }
    }
    Ok(match term {
        Term::Next(b) | Term::Jump(b) => BlockExit::Goto(b),
        Term::Branch {
            cond,
            rs,
            rt,
            taken,
            next,
        } => BlockExit::Goto(if cond.taken(regs.get_i(rs), regs.get_i(rt)) {
            taken
        } else {
            next
        }),
        Term::BranchBit {
            set,
            rs,
            bit,
            taken,
            next,
        } => {
            let bit_set = (regs.get_i(rs) >> bit) & 1 == 1;
            BlockExit::Goto(if bit_set == set { taken } else { next })
        }
        Term::Switch => BlockExit::Switch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{FlatEnv, HandlerRun, DEFAULT_PAIR_BUDGET};
    use crate::prog::Pair;
    use crate::{build, CodegenOptions};

    /// `t.run_into` with fresh scratch state, shaped like [`emu::run`].
    fn run_translated(
        t: &Translated,
        entry: usize,
        env: &mut FlatEnv,
        budget: u64,
    ) -> Result<HandlerRun, EmuError> {
        let mut regs = Regs::new();
        let mut sink = EffectSink::new();
        let (exec_cycles, stats) = t.run_into(entry, env, budget, &mut regs, &mut sink)?;
        Ok(HandlerRun {
            effects: sink.into_effects(),
            exec_cycles,
            stats,
        })
    }

    fn translated(src: &str) -> (Arc<Program>, Translated) {
        let p = Arc::new(build(src, CodegenOptions::magic()).unwrap());
        let t = Translated::new(p.clone());
        (p, t)
    }

    /// Both backends, same program, same env start state; exact compare.
    fn check_equiv(src: &str, entry: &str, budget: u64) {
        let (p, t) = translated(src);
        assert!(t.fully_translated(), "scheduler output must translate");
        let pc = p.entry(entry).unwrap();
        let mut env_e = FlatEnv::new(512);
        let mut env_t = env_e.clone();
        let re = emu::run(&p, pc, &mut env_e, budget);
        let rt = run_translated(&t, pc, &mut env_t, budget);
        match (re, rt) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.exec_cycles, b.exec_cycles);
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.effects, b.effects);
                assert_eq!(env_e.peek64(0), env_t.peek64(0));
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("backends disagree: emu {a:?} vs translated {b:?}"),
        }
    }

    #[test]
    fn straight_line_and_loop_equivalence() {
        let src = "h:
  addi r1, r0, 5
  addi r2, r0, 0
loop:
  add r2, r2, r1
  addi r1, r1, -1
  bgtz r1, loop
  addi r3, r0, 0
  sd r2, 0(r3)
  switch
";
        check_equiv(src, "h", DEFAULT_PAIR_BUDGET);
    }

    #[test]
    fn budget_equivalence_exact() {
        // An infinite loop must report RanAway at exactly the same budget
        // under both backends, for every budget.
        let src = "h:\n  addi r1, r1, 1\n  j h\n";
        for budget in 0..8 {
            check_equiv(src, "h", budget);
        }
    }

    #[test]
    fn unaligned_fault_beats_budget() {
        // The faulting load sits in a block whose pair span crosses the
        // budget: the emulator faults before the budget expires, and the
        // translated runner must agree (via the resume fallback).
        let src =
            "h:\n  addi r1, r0, 3\n  ld r2, 0(r1)\n  addi r3, r0, 1\n  addi r4, r0, 1\n  switch\n";
        for budget in 0..8 {
            check_equiv(src, "h", budget);
        }
    }

    #[test]
    fn effects_and_offsets_match() {
        let src = "h:
  addi r1, r0, 5
  addi r2, r0, 3
  li r3, 0x1000
  memrd r3
  sendnd r1, r2, r3, r0
  switch
";
        check_equiv(src, "h", DEFAULT_PAIR_BUDGET);
    }

    #[test]
    fn fallthrough_past_end_matches() {
        // A handler without switch falls off the end: BadPc under a
        // generous budget, RanAway when the budget expires first.
        let src = "h:\n  addi r1, r0, 1\n  addi r2, r0, 2\n";
        for budget in 0..4 {
            check_equiv(src, "h", budget);
        }
        check_equiv(src, "h", DEFAULT_PAIR_BUDGET);
    }

    #[test]
    fn non_canonical_program_falls_back() {
        // Hand-built: a control instruction in slot a with a real op in
        // slot b is legal for the emulator but not canonical.
        let jump = Instr::Jump {
            target: crate::isa::Label(0),
        };
        let add = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs: Reg(1),
            imm: 1,
        };
        let p = Arc::new(Program::new(
            vec![Pair { a: jump, b: add }],
            vec![0],
            std::collections::BTreeMap::new(),
        ));
        let t = Translated::new(p.clone());
        assert!(!t.fully_translated());
        let mut env_e = FlatEnv::new(0);
        let mut env_t = FlatEnv::new(0);
        assert_eq!(
            emu::run(&p, 0, &mut env_e, 10).unwrap_err(),
            run_translated(&t, 0, &mut env_t, 10).unwrap_err()
        );
    }

    #[test]
    fn mid_block_entry_falls_back_to_emulator() {
        let src = "h:\n  addi r1, r0, 1\n  addi r2, r0, 2\n  addi r3, r0, 3\n  addi r4, r0, 4\n  addi r9, r0, 8\n  sd r2, 0(r9)\n  switch\n";
        let (p, t) = translated(src);
        // Pick a pair index that is inside a block (not a leader).
        let mid = (1..p.pairs.len())
            .find(|&pc| t.block_of_pair[pc] == OFF_END)
            .expect("program has a multi-pair block");
        let mut env_e = FlatEnv::new(64);
        let mut env_t = FlatEnv::new(64);
        let a = emu::run(&p, mid, &mut env_e, 100).unwrap();
        let b = run_translated(&t, mid, &mut env_t, 100).unwrap();
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.stats, b.stats);
        assert_eq!(env_e.peek64(8), env_t.peek64(8));
    }

    #[test]
    fn shared_translation_is_cached_per_program() {
        let p = Arc::new(build("h:\n  switch\n", CodegenOptions::magic()).unwrap());
        let t1 = translate_shared(&p);
        let t2 = translate_shared(&p);
        assert!(Arc::ptr_eq(&t1, &t2));
        let q = Arc::new(build("h:\n  switch\n", CodegenOptions::magic()).unwrap());
        let t3 = translate_shared(&q);
        assert!(!Arc::ptr_eq(&t1, &t3));
    }
}
