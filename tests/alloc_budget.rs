//! Allocation budget: the steady-state event loop must not touch the
//! heap.
//!
//! PR 8's host-performance work made the hot path allocation-free —
//! processor outputs and chip emissions drain through reusable scratch
//! buffers, event-queue wheel slots and arenas are warmed once, and the
//! hit fast path never round-trips the queue at all. This test pins that
//! property with a counting global allocator and a differential
//! measurement: a small and a large run of the same workload shape pay
//! the same one-time setup cost (machine construction, wheel sizing,
//! scratch capacities), so the allocation *difference* between them
//! isolates the steady state. Tens of thousands of extra events must
//! cost at most a small constant number of extra allocations.
//!
//! (A warm-up-then-resume design inside one machine would be simpler,
//! but budget exhaustion intentionally *drops* the first over-budget
//! event — serial-loop semantics — so a resumed run is lossy and not a
//! valid steady-state sample.)
//!
//! A second differential pins checked mode the same way per oracle check,
//! and a direct loop pins a warm journaled oracle check at zero
//! allocations.
//!
//! The whole file is one `#[test]` because the `#[global_allocator]` is
//! binary-wide; a second test running concurrently would pollute the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flash::{Machine, MachineConfig, RunResult};
use flash_cpu::{RefStream, SliceStream};

/// System allocator with an allocation-event counter (`alloc`,
/// `alloc_zeroed`, and `realloc` count; frees do not).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs the standard mixed-sharing stress workload (serial, unobserved,
/// unfaulted; checked mode as given) with `items` references per
/// processor; returns (allocations, chip messages, oracle checks) for the
/// whole run including machine construction.
fn run_and_count(items: usize, check: bool) -> (u64, u64, u64) {
    let streams: Vec<Box<dyn RefStream>> = flash_check::stress_streams(16, 8, items, 5)
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let cfg = MachineConfig::flash(16).with_shards(1).with_check(check);
    let mut m = Machine::new(cfg, streams);
    let RunResult::Completed { .. } = m.run(2_000_000_000) else {
        panic!("{items}-item run did not complete");
    };
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let events: u64 = m.chips().iter().map(|c| c.stats().messages).sum();
    (allocs, events, m.oracle_checked())
}

/// Oracle checks in one round of [`oracle_loop_allocs`]: four messages
/// on each of eight lines.
const ROUND_CHECKS: u64 = 4 * 8;

/// Rounds [`oracle_loop_allocs`] counts, after one warm-up round.
const COUNTED_ROUNDS: u64 = 8;

/// Drives one [`flash_check::OracleState`] through a fixed round of
/// journaled checks on one protocol memory (the native protocol standing
/// in for the PP), once to warm its buffers and the directory pages, then
/// [`COUNTED_ROUNDS`] more times while counting; returns the allocations
/// of the counted rounds.
fn oracle_loop_allocs() -> u64 {
    use flash_engine::{Addr, NodeId};
    use flash_protocol::dir::{dir_addr, Directory};
    use flash_protocol::fields::aux;
    use flash_protocol::{native, CostTable, InMsg, MsgType, ProtoMem};

    let mut mem = ProtoMem::new();
    Directory::init_free_list(&mut mem, 64);
    let mut oracle = flash_check::OracleState::default();
    let mut out = Vec::new();
    let mut round = |mem: &mut ProtoMem, out: &mut Vec<_>| {
        for line in 0..8u64 {
            let addr = Addr::new(0x4000 + line * 128);
            for (mtype, src) in [
                (MsgType::PiGet, 0),
                (MsgType::NGet, 3),
                (MsgType::PiGetX, 0),
                (MsgType::PiWriteback, 0),
            ] {
                let msg = InMsg {
                    mtype,
                    src: NodeId(src),
                    addr,
                    aux: aux::pack(NodeId(src), mtype, NodeId(0)),
                    spec: false,
                    self_node: NodeId(0),
                    home: NodeId(0),
                    diraddr: dir_addr(addr),
                    with_data: mtype.carries_data(),
                };
                mem.begin_journal();
                out.clear();
                let res = native::handle(&msg, mem, &CostTable::paper(), out);
                oracle.check(&msg, mem, out.iter().copied(), res.handler, 0);
            }
        }
    };
    round(&mut mem, &mut out);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..COUNTED_ROUNDS {
        round(&mut mem, &mut out);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(oracle.checked, (1 + COUNTED_ROUNDS) * ROUND_CHECKS);
    assert!(oracle.violations.is_empty(), "{:?}", oracle.violations);
    allocs
}

#[test]
fn steady_state_is_allocation_free() {
    let (small_allocs, small_events, _) = run_and_count(64, false);
    let (big_allocs, big_events, _) = run_and_count(512, false);
    let extra_events = big_events - small_events;
    assert!(
        extra_events > 30_000,
        "differential too small to be meaningful: {extra_events} extra chip messages"
    );
    // Both runs pay the same setup cost, so the difference is the steady
    // state. Not literally zero: the longer run can grow a wheel slot or
    // a stats bucket the short one never reached. What is NOT allowed is
    // per-event heap traffic — the bound stays constant while the extra
    // event count scales.
    let extra_allocs = big_allocs.saturating_sub(small_allocs);
    assert!(
        extra_allocs < 2_000,
        "steady state must be allocation-free: {extra_allocs} extra allocations over \
         {extra_events} extra events ({:.4} allocs/event; small run {small_allocs} allocs / \
         {small_events} events, big run {big_allocs} allocs / {big_events} events)",
        extra_allocs as f64 / extra_events as f64
    );

    let oracle_allocs = oracle_loop_allocs();
    println!(
        "oracle alone: {oracle_allocs} allocations over {} warm checks",
        COUNTED_ROUNDS * ROUND_CHECKS
    );
    assert_eq!(
        oracle_allocs, 0,
        "a warm journaled oracle check must not allocate"
    );

    // Checked mode, same differential as above. The oracle itself
    // allocates nothing (checked above); what remains is the per-window
    // coherence check's bookkeeping (touched-line sets, sharer and copy
    // lists), measured at 1.23 extra allocations per extra oracle check
    // when the journal replaced the per-check snapshot. A whole-memory
    // snapshot per check costs one allocation per resident page, about
    // 130, on top.
    let (small_allocs, _, small_checks) = run_and_count(64, true);
    let (big_allocs, _, big_checks) = run_and_count(512, true);
    let extra_checks = big_checks - small_checks;
    assert!(
        extra_checks > 10_000,
        "checked differential too small to be meaningful: {extra_checks} extra oracle checks"
    );
    let extra_allocs = big_allocs.saturating_sub(small_allocs);
    let per_check = extra_allocs as f64 / extra_checks as f64;
    println!(
        "checked mode: {extra_allocs} extra allocations over {extra_checks} extra oracle \
         checks ({per_check:.4} per check)"
    );
    assert!(
        per_check < 4.0,
        "checked mode must cost a small constant of allocations per oracle check: \
         {extra_allocs} extra allocations over \
         {extra_checks} extra checks ({per_check:.4} per check; small run {small_allocs} \
         allocs / {small_checks} checks, big run {big_allocs} allocs / {big_checks} checks)"
    );
}
