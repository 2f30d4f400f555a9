//! Reference equivalence of the two oracle forms.
//!
//! The machine checks every PP invocation with the journaled
//! [`OracleState::diff_journaled`], which compares only the words either
//! side stored. [`diff_invocation`] diffs a whole-memory copy of the
//! pre-state instead. Over random directory states and inbound messages,
//! with the native protocol standing in for the PP and optionally one
//! planted fault, both must return the same `Option<Violation>` — kind,
//! line and detail text — and the journaled form must leave the PP's post
//! state in memory word for word and page for page.

use flash_check::{diff_invocation, OracleState, Violation};
use flash_engine::{Addr, NodeId};
use flash_protocol::dir::{dir_addr, entry_addr, DirHeader, Directory, PtrEntry};
use flash_protocol::fields::aux;
use flash_protocol::msg::{InMsg, MsgType};
use flash_protocol::native::{self, Outgoing};
use flash_protocol::{CostTable, ProtoMem};
use proptest::prelude::*;

/// Lines whose directory headers the generated states populate.
const LINES: [u64; 3] = [0x4000, 0x4080, 0x9_0000];

/// Lines messages may concern: the populated ones and one whose header
/// page is not resident, so the handler materializes it.
const MSG_LINES: [u64; 4] = [LINES[0], LINES[1], LINES[2], 0x40_0000];

/// A fault planted in the "PP" run (the native protocol plus this fault).
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    LostStores,
    DropAction,
    ExtraAction,
    ReplaceAction,
    FlipHeader,
    FlipPointerStore,
    StoreOnUntouchedPage,
    WrongHandler,
}

const FAULTS: [Fault; 9] = [
    Fault::None,
    Fault::LostStores,
    Fault::DropAction,
    Fault::ExtraAction,
    Fault::ReplaceAction,
    Fault::FlipHeader,
    Fault::FlipPointerStore,
    Fault::StoreOnUntouchedPage,
    Fault::WrongHandler,
];

/// Builds a protocol memory whose headers at [`LINES`] follow the seeds
/// (dirty owner, pending with acks, local bit, or a sharer list).
fn build_state(capacity: u16, hdr_seeds: &[u8], sharers: &[u16]) -> ProtoMem {
    let mut mem = ProtoMem::new();
    Directory::init_free_list(&mut mem, capacity);
    let mut d = Directory::new(&mut mem);
    for (&line, &seed) in LINES.iter().zip(hdr_seeds) {
        let mut h = DirHeader::default();
        if seed & 1 != 0 {
            h = h
                .with_dirty(true)
                .with_owner(NodeId((seed >> 4) as u16 % 8));
        }
        if seed & 2 != 0 {
            h = h.with_pending(true).with_acks((seed >> 5) as u16 % 4);
        }
        if seed & 4 != 0 {
            h = h.with_local(true);
        }
        if seed & 1 == 0 {
            for &s in sharers {
                if let Some(idx) = d.alloc_entry() {
                    d.set_entry(idx, PtrEntry::new(NodeId(s), h.head()));
                    h = h.with_head(idx);
                }
            }
        }
        d.set_header(dir_addr(Addr::new(line)), h);
    }
    mem
}

fn mk_msg(mtype: MsgType, me: u16, home: u16, src: u16, req: u16, spec: bool, addr: u64) -> InMsg {
    let orig = match mtype {
        MsgType::NGet | MsgType::NFwdGet => MsgType::NGet,
        MsgType::NUpgrade => MsgType::NUpgrade,
        _ => MsgType::NGetX,
    };
    // Combinations the machine never produces are fixed up: a PI message
    // always comes from this node, and only requests at the home are
    // speculative.
    let src = if mtype.is_processor() { me } else { src };
    let spec =
        spec && matches!(
            mtype,
            MsgType::PiGet | MsgType::PiGetX | MsgType::NGet | MsgType::NGetX
        ) && home == me;
    InMsg {
        mtype,
        src: NodeId(src),
        addr: Addr::new(addr),
        aux: aux::pack(NodeId(req), orig, NodeId(home)),
        spec,
        self_node: NodeId(me),
        home: NodeId(home),
        diraddr: dir_addr(Addr::new(addr)),
        with_data: mtype.carries_data(),
    }
}

/// Runs `msg` as the "PP" (native protocol plus `fault`) on `mem` with
/// the journal armed, checks it with both oracle forms (the journaled one
/// through `oracle`), asserts they agree and that the PP's post state
/// survives the journaled check, and returns the verdict.
fn check_both(
    oracle: &mut OracleState,
    msg: &InMsg,
    mem: &mut ProtoMem,
    capacity: u16,
    fault: Fault,
    pick: u64,
) -> Option<Violation> {
    let pre = mem.clone();
    mem.begin_journal();
    let mut out = Vec::new();
    let mut handler = native::handle(msg, mem, &CostTable::paper(), &mut out).handler;
    let bit = 1u64 << (pick % 64);
    match fault {
        Fault::None => {}
        Fault::LostStores => {
            // The PP "forgot" every store, including any that
            // materialized a page.
            *mem = pre.clone();
            mem.begin_journal();
        }
        Fault::DropAction => {
            if !out.is_empty() {
                out.remove(pick as usize % out.len());
            }
        }
        Fault::ExtraAction => match out.get(pick as usize % out.len().max(1)) {
            Some(&o) => out.push(o),
            None => out.push(Outgoing::MemRead(msg.addr.line())),
        },
        Fault::ReplaceAction => {
            // Same count, different multiplicities: one action sent twice
            // in place of another.
            if out.len() >= 2 {
                let i = pick as usize % out.len();
                out[i] = out[(i + 1) % out.len()];
            }
        }
        Fault::FlipHeader => {
            let da = dir_addr(Addr::new(LINES[pick as usize % LINES.len()]));
            mem.store64(da, mem.load64(da) ^ bit);
        }
        Fault::FlipPointerStore => {
            let ea = entry_addr(1 + (pick % capacity as u64) as u16);
            mem.store64(ea, mem.load64(ea) ^ bit);
        }
        Fault::StoreOnUntouchedPage => {
            mem.store64(0x7f00_0000 + (pick % 512) * 8, bit);
        }
        Fault::WrongHandler => {
            handler = if handler == "ni_get" {
                "ni_getx"
            } else {
                "ni_get"
            };
        }
    }
    let post = mem.clone();
    let reference = diff_invocation(msg, pre, &post, &out, handler, 1);
    let journaled = oracle.diff_journaled(msg, mem, &out, handler, 1);
    assert_eq!(journaled, reference, "{fault:?} on {:?}", msg.mtype);
    assert_eq!(mem.first_difference(&post), None, "post state not restored");
    assert_eq!(mem.resident_pages(), post.resident_pages());
    assert!(!mem.journaling());
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn journaled_oracle_matches_whole_memory_diff(
        type_idx in 0usize..MsgType::INCOMING.len(),
        hdr_seeds in proptest::collection::vec(0u8..=255, 3),
        sharers in proptest::collection::vec(0u16..8, 0..5),
        me in 0u16..8,
        home in 0u16..8,
        src in 0u16..8,
        req in 0u16..8,
        spec in any::<bool>(),
        capacity in prop_oneof![Just(3u16), Just(64u16)],
        fault_idx in 0usize..FAULTS.len(),
        pick in any::<u64>(),
        line_idx in 0usize..MSG_LINES.len(),
    ) {
        let fault = FAULTS[fault_idx];
        let msg = mk_msg(MsgType::INCOMING[type_idx], me, home, src, req, spec, MSG_LINES[line_idx]);
        let mut mem = build_state(capacity, &hdr_seeds, &sharers);
        let v = check_both(&mut OracleState::default(), &msg, &mut mem, capacity, fault, pick);
        let kind = v.as_ref().map(|v| v.kind);
        match fault {
            Fault::None => prop_assert_eq!(kind, None),
            Fault::ExtraAction => prop_assert_eq!(kind, Some("oracle-out")),
            Fault::WrongHandler => prop_assert_eq!(kind, Some("oracle-handler")),
            Fault::FlipHeader | Fault::FlipPointerStore | Fault::StoreOnUntouchedPage => {
                prop_assert_eq!(kind, Some("oracle-mem"))
            }
            // Nothing to drop when the handler sent or stored nothing
            // that changes a value.
            Fault::DropAction | Fault::ReplaceAction | Fault::LostStores => {}
        }
    }

    #[test]
    fn one_oracle_state_checks_a_transaction_sequence(
        steps in proptest::collection::vec(
            (0usize..MsgType::INCOMING.len(), 0u16..4, 0usize..MSG_LINES.len()),
            1..8,
        ),
        hdr_seeds in proptest::collection::vec(0u8..=255, 3),
        sharers in proptest::collection::vec(0u16..4, 0..4),
        fault_idx in 0usize..FAULTS.len(),
        pick in any::<u64>(),
    ) {
        // The scratch buffers of one oracle state carry over between
        // checks; each check's verdict must still match the reference.
        let mut oracle = OracleState::default();
        let mut mem = build_state(64, &hdr_seeds, &sharers);
        let last = steps.len() - 1;
        for (i, &(type_idx, src, line_idx)) in steps.iter().enumerate() {
            let msg = mk_msg(MsgType::INCOMING[type_idx], 0, 0, src, src, false, MSG_LINES[line_idx]);
            let fault = if i == last { FAULTS[fault_idx] } else { Fault::None };
            let v = check_both(&mut oracle, &msg, &mut mem, 64, fault, pick);
            if matches!(fault, Fault::None) {
                prop_assert_eq!(v, None);
            }
        }
    }
}
