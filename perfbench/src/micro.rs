//! Micro rungs of the ladder: one handler, and one oracle check, timed
//! in isolation so the in-situ per-handler and per-check costs can be
//! reconciled against them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use flash_check::diff_invocation;
use flash_engine::{Addr, NodeId};
use flash_pp::emu::{self, EffectSink, Env, MdcMiss, Regs};
use flash_pp::isa::MemSize;
use flash_pp::translate::translate_shared;
use flash_pp::CodegenOptions;
use flash_protocol::dir::dir_addr;
use flash_protocol::fields::aux;
use flash_protocol::handlers::{compile_shared, fields_of};
use flash_protocol::msg::{InMsg, MsgType};
use flash_protocol::{CostTable, ProtoMem};

/// Pair budget of one micro-rung handler run.
const PAIR_BUDGET: u64 = 100_000;

/// Loads return zero and stores vanish, so every iteration of a handler
/// executes the same clean-directory path with no state growth.
struct ZeroEnv {
    fields: [u64; 16],
}

impl Env for ZeroEnv {
    fn load(&mut self, _addr: u64, _size: MemSize) -> (u64, Option<MdcMiss>) {
        (0, None)
    }

    fn store(&mut self, _addr: u64, _val: u64, _size: MemSize) -> Option<MdcMiss> {
        None
    }

    fn msg_field(&mut self, field: u8) -> u64 {
        self.fields[field as usize]
    }
}

/// A local read miss on `addr`, homed at and requested by node 0.
fn local_read(addr: Addr) -> InMsg {
    InMsg {
        mtype: MsgType::NGet,
        src: NodeId(0),
        addr,
        aux: aux::pack(NodeId(0), MsgType::NGet, NodeId(0)),
        spec: true,
        self_node: NodeId(0),
        home: NodeId(0),
        diraddr: dir_addr(addr),
        with_data: false,
    }
}

/// Median over five samples of host nanoseconds per call of `f`, after
/// a warm-up of a quarter of `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let mut samples = [0f64; 5];
    for s in &mut samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = t.elapsed().as_secs_f64() * 1e9 / iters as f64;
    }
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// Host nanoseconds per handler under the zero-memory environment,
/// `(emulator, translated)`, each the mean over handlers weighted by
/// `mix` (the workload's in-situ invocation counts). Handlers the
/// program does not define are left out.
pub fn handler_ns(codegen: CodegenOptions, mix: &BTreeMap<&'static str, u64>) -> (f64, f64) {
    let program = compile_shared(codegen);
    let translated = translate_shared(&program);
    let fields = fields_of(&local_read(Addr::new(0x2000)));
    let (mut emu_sum, mut tr_sum, mut weight) = (0.0, 0.0, 0.0);
    for (name, &n) in mix {
        let Some(entry) = program.entry(name) else {
            continue;
        };
        let mut env = ZeroEnv { fields };
        let mut regs = Regs::new();
        let mut sink = EffectSink::new();
        let e = ns_per_call(10_000, || {
            let r = emu::run_into(&program, entry, &mut env, PAIR_BUDGET, &mut regs, &mut sink);
            black_box(r).ok();
        });
        let t = ns_per_call(10_000, || {
            let r = translated.run_into(entry, &mut env, PAIR_BUDGET, &mut regs, &mut sink);
            black_box(r).ok();
        });
        emu_sum += e * n as f64;
        tr_sum += t * n as f64;
        weight += n as f64;
    }
    if weight == 0.0 {
        return (0.0, 0.0);
    }
    (emu_sum / weight, tr_sum / weight)
}

/// Host nanoseconds of one oracle check on a chip's post-run protocol
/// memory: the `ProtoMem` clone the chip takes before each handler plus
/// `flash_check::diff_invocation`, for a local read of `addr` (a line
/// homed at node 0 that the run never touched, so the directory is
/// clean). The diff compares against the native handler's own outcome,
/// so it must find no violation.
pub fn check_ns(post_run: &ProtoMem, addr: Addr) -> Result<f64, String> {
    let msg = local_read(addr);
    let mut post = post_run.clone();
    let mut out = Vec::new();
    let handler = flash_protocol::handle(&msg, &mut post, &CostTable::paper(), &mut out).handler;
    if let Some(v) = diff_invocation(&msg, post_run.clone(), &post, &out, handler, 0) {
        return Err(format!("micro check reported a violation: {v}"));
    }
    Ok(ns_per_call(100, || {
        let pre = black_box(post_run).clone();
        black_box(diff_invocation(&msg, pre, &post, &out, handler, 0));
    }))
}
