//! The native-vs-PP differential oracle.
//!
//! Every time the detailed FLASH machine runs a PP-assembly handler, the
//! oracle replays the *same* inbound message through the native Rust
//! protocol on the *same* pre-invocation protocol memory, then diffs:
//!
//! 1. the handler the jump table dispatched (names must agree),
//! 2. the multiset of outgoing actions (messages, memory operations),
//! 3. every 8-byte word of protocol memory (directory headers, pointer
//!    store, free list).
//!
//! A difference in any of the three is a [`Violation`] pinned to the
//! handler name and message type — exactly the information needed to
//! write a minimal regression test.
//!
//! In the machine the replay is journaled ([`OracleState::check`]): the
//! PP runs with [`ProtoMem`]'s undo journal armed, the oracle reads the
//! post values of the words the PP stored, rolls the memory back to the
//! pre-state, runs the native handler with the journal armed, reads its
//! post values, rolls back again and finally re-applies the PP's stores.
//! Only the words either side stored are compared. That is the same
//! check as a whole-memory diff: both post states are the pre-state
//! overwritten at their own stored words, so every other word is equal by
//! construction, and the lowest differing word of the union is the lowest
//! differing word of memory. The cost is proportional to the words a
//! handler touches (a few), not to the memory (about 130 pages, mostly
//! the free list). [`diff_invocation`] is the whole-memory reference over
//! an explicit pre-state copy; both share one action comparison.

use crate::Violation;
use flash_protocol::native::{self, Outgoing};
use flash_protocol::{CostTable, InMsg, ProtoMem};

/// Per-chip oracle bookkeeping, owned by the MAGIC chip when checked
/// mode is on. Holds the scratch buffers of the journaled check, so a
/// check allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct OracleState {
    /// Handler invocations diffed so far.
    pub checked: u64,
    /// Divergences found (empty on a healthy run).
    pub violations: Vec<Violation>,
    emu_out: Vec<Outgoing>,
    scratch: Scratch,
}

/// Reused buffers of one journaled check.
#[derive(Debug, Default)]
struct Scratch {
    native_out: Vec<Outgoing>,
    /// `(word address, PP post value)`, sorted by address, one per word.
    pp_words: Vec<(u64, u64)>,
    /// `(word address, native post value)`, likewise.
    native_words: Vec<(u64, u64)>,
    matched: Vec<bool>,
}

impl OracleState {
    /// Checks one PP invocation and records the verdict: bumps
    /// [`OracleState::checked`] and keeps any divergence in
    /// [`OracleState::violations`]. Contract as for
    /// [`OracleState::diff_journaled`]; `emu_out` is collected into a
    /// reused buffer.
    pub fn check(
        &mut self,
        msg: &InMsg,
        mem: &mut ProtoMem,
        emu_out: impl IntoIterator<Item = Outgoing>,
        emu_handler: &str,
        node: u16,
    ) {
        let mut out = std::mem::take(&mut self.emu_out);
        out.clear();
        out.extend(emu_out);
        let verdict = self.diff_journaled(msg, mem, &out, emu_handler, node);
        self.emu_out = out;
        self.checked += 1;
        if let Some(v) = verdict {
            self.violations.push(v);
        }
    }

    /// Diffs one journaled PP invocation against the native oracle.
    ///
    /// `mem` must have had its journal armed
    /// ([`ProtoMem::begin_journal`]) right before the PP ran, and holds
    /// the PP's post state; `emu_out` and `emu_handler` are the actions
    /// the PP produced and the entry symbol the jump table chose. Returns
    /// exactly what [`diff_invocation`] returns on a copy of the
    /// pre-state, and leaves `mem` word for word and page for page in the
    /// PP's post state, journal disarmed.
    ///
    /// # Panics
    ///
    /// Panics if the journal of `mem` is not armed.
    pub fn diff_journaled(
        &mut self,
        msg: &InMsg,
        mem: &mut ProtoMem,
        emu_out: &[Outgoing],
        emu_handler: &str,
        node: u16,
    ) -> Option<Violation> {
        assert!(
            mem.journaling(),
            "journaled oracle needs the PP's stores journaled"
        );
        let s = &mut self.scratch;
        stored_words(mem, &mut s.pp_words);
        mem.rollback();

        mem.begin_journal();
        s.native_out.clear();
        let res = native::handle(msg, mem, &CostTable::paper(), &mut s.native_out);
        stored_words(mem, &mut s.native_words);
        mem.rollback();

        // `mem` holds the pre-state: the value of every word a side did
        // not store.
        let verdict = diff_actions(
            msg,
            res.handler,
            &s.native_out,
            emu_out,
            emu_handler,
            node,
            &mut s.matched,
        )
        .or_else(|| {
            first_word_difference(mem, &s.pp_words, &s.native_words)
                .map(|(addr, n, p)| mem_violation(msg, emu_handler, node, addr, n, p))
        });

        // Re-applying every PP-stored word rebuilds the PP post state,
        // including the pages those stores materialized.
        for &(addr, val) in &s.pp_words {
            mem.store64(addr, val);
        }
        verdict
    }
}

/// Normalized encoding of an outgoing action for multiset comparison
/// (same scheme as the protocol crate's differential test).
pub fn encode(o: &Outgoing) -> String {
    match o {
        Outgoing::Net(m) => format!(
            "net:{:?}:{}:{}:{:#x}:{:#x}:{}",
            m.mtype,
            m.src,
            m.dst,
            m.addr.raw(),
            m.aux,
            m.with_data
        ),
        Outgoing::Proc(p) => format!(
            "proc:{:?}:{:#x}:{:#x}:{}",
            p.mtype,
            p.addr.raw(),
            p.aux,
            p.with_data
        ),
        Outgoing::MemRead(a) => format!("memrd:{:#x}", a.raw()),
        Outgoing::MemWrite(a) => format!("memwr:{:#x}", a.raw()),
    }
}

/// Diffs one emulated handler invocation against the native oracle over
/// the whole protocol memory.
///
/// `pre` is a copy of the chip's protocol memory taken *before* the PP
/// ran (consumed: the oracle mutates it in place); `post` is the chip's
/// protocol memory after; `emu_out` the actions the PP produced;
/// `emu_handler` the entry symbol the jump table chose. Returns the
/// first divergence found, if any. The machine uses the journaled
/// [`OracleState::diff_journaled`], which returns the same verdict; this
/// form is the reference it is tested against.
pub fn diff_invocation(
    msg: &InMsg,
    mut pre: ProtoMem,
    post: &ProtoMem,
    emu_out: &[Outgoing],
    emu_handler: &str,
    node: u16,
) -> Option<Violation> {
    let mut native_out = Vec::new();
    let res = native::handle(msg, &mut pre, &CostTable::paper(), &mut native_out);
    diff_actions(
        msg,
        res.handler,
        &native_out,
        emu_out,
        emu_handler,
        node,
        &mut Vec::new(),
    )
    .or_else(|| {
        pre.first_difference(post).map(|addr| {
            mem_violation(
                msg,
                emu_handler,
                node,
                addr,
                pre.load64(addr),
                post.load64(addr),
            )
        })
    })
}

/// The handler and outgoing-action half of the diff, shared by both
/// oracle forms. Compares the actions as multisets without allocating
/// (`matched` is scratch); the sorted encodings are built only to
/// describe a divergence.
fn diff_actions(
    msg: &InMsg,
    native_handler: &str,
    native_out: &[Outgoing],
    emu_out: &[Outgoing],
    emu_handler: &str,
    node: u16,
    matched: &mut Vec<bool>,
) -> Option<Violation> {
    let line = msg.addr.line().raw();
    if native_handler != emu_handler {
        return Some(Violation {
            kind: "oracle-handler",
            node,
            line,
            detail: format!(
                "{:?}: native dispatches {} but PP ran {}",
                msg.mtype, native_handler, emu_handler
            ),
        });
    }
    if same_multiset(native_out, emu_out, matched) {
        return None;
    }
    let sorted = |out: &[Outgoing]| {
        let mut enc: Vec<String> = out.iter().map(encode).collect();
        enc.sort();
        enc
    };
    let (enc_n, enc_e) = (sorted(native_out), sorted(emu_out));
    Some(Violation {
        kind: "oracle-out",
        node,
        line,
        detail: format!(
            "{} on {:?}: outgoing actions diverge\n  native: {enc_n:?}\n  pp:     {enc_e:?}",
            emu_handler, msg.mtype
        ),
    })
}

/// Whether `a` and `b` hold the same actions with the same multiplicities.
/// [`encode`] is injective, so this agrees with comparing the sorted
/// encodings. Handlers emit a handful of actions, usually in the same
/// order on both sides; the quadratic matching only runs when they are
/// not.
fn same_multiset(a: &[Outgoing], b: &[Outgoing], matched: &mut Vec<bool>) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a == b {
        return true;
    }
    matched.clear();
    matched.resize(b.len(), false);
    for x in a {
        match (0..b.len()).find(|&j| !matched[j] && b[j] == *x) {
            Some(j) => matched[j] = true,
            None => return false,
        }
    }
    true
}

/// Collects `(word, current value)` for every word journaled in `mem`,
/// sorted by address, one entry per word.
fn stored_words(mem: &ProtoMem, out: &mut Vec<(u64, u64)>) {
    out.clear();
    out.extend(mem.journal().iter().map(|&(addr, _)| (addr, 0)));
    out.sort_unstable_by_key(|&(addr, _)| addr);
    out.dedup_by_key(|&mut (addr, _)| addr);
    for w in out.iter_mut() {
        w.1 = mem.load64(w.0);
    }
}

/// The lowest word where the PP and native post states differ, as
/// `(address, native value, PP value)`. `pre` is the pre-state; a side
/// that did not store a word left its pre-state value there.
fn first_word_difference(
    pre: &ProtoMem,
    pp: &[(u64, u64)],
    native: &[(u64, u64)],
) -> Option<(u64, u64, u64)> {
    let (mut i, mut j) = (0, 0);
    loop {
        // Word addresses are 8-aligned, so `u64::MAX` marks an exhausted side.
        let a = pp.get(i).map_or(u64::MAX, |w| w.0);
        let b = native.get(j).map_or(u64::MAX, |w| w.0);
        let addr = a.min(b);
        if addr == u64::MAX {
            return None;
        }
        let p = if a == addr {
            i += 1;
            pp[i - 1].1
        } else {
            pre.load64(addr)
        };
        let n = if b == addr {
            j += 1;
            native[j - 1].1
        } else {
            pre.load64(addr)
        };
        if n != p {
            return Some((addr, n, p));
        }
    }
}

fn mem_violation(
    msg: &InMsg,
    emu_handler: &str,
    node: u16,
    addr: u64,
    native: u64,
    pp: u64,
) -> Violation {
    Violation {
        kind: "oracle-mem",
        node,
        line: msg.addr.line().raw(),
        detail: format!(
            "{} on {:?}: protocol memory diverges at {:#x}: native {:#x} vs pp {:#x}",
            emu_handler, msg.mtype, addr, native, pp
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_engine::{Addr, NodeId};
    use flash_protocol::dir::{dir_addr, Directory};
    use flash_protocol::fields::aux;
    use flash_protocol::msg::MsgType;

    fn msg(mtype: MsgType, me: u16, home: u16, src: u16, req: u16, addr: Addr) -> InMsg {
        InMsg {
            mtype,
            src: NodeId(src),
            addr,
            aux: aux::pack(NodeId(req), mtype, NodeId(home)),
            spec: false,
            self_node: NodeId(me),
            home: NodeId(home),
            diraddr: dir_addr(addr),
            with_data: mtype.carries_data(),
        }
    }

    /// Runs `m` natively as the "PP" on `mem` with the journal armed, lets
    /// `plant` corrupt its stores, actions or handler name, and returns
    /// the verdict after asserting that both oracle forms agree and that
    /// the journaled one leaves the PP's post state untouched.
    fn both_verdicts(
        m: &InMsg,
        mem: &mut ProtoMem,
        plant: impl FnOnce(&mut ProtoMem, &mut Vec<Outgoing>, &mut &'static str),
    ) -> Option<Violation> {
        let pre = mem.clone();
        mem.begin_journal();
        let mut out = Vec::new();
        let mut handler = native::handle(m, mem, &CostTable::paper(), &mut out).handler;
        plant(mem, &mut out, &mut handler);
        let post = mem.clone();
        let reference = diff_invocation(m, pre, &post, &out, handler, 0);
        let journaled = OracleState::default().diff_journaled(m, mem, &out, handler, 0);
        assert_eq!(journaled, reference);
        assert_eq!(mem.first_difference(&post), None);
        assert_eq!(mem.resident_pages(), post.resident_pages());
        assert!(!mem.journaling());
        reference
    }

    fn fresh() -> ProtoMem {
        let mut mem = ProtoMem::new();
        Directory::init_free_list(&mut mem, 16);
        mem
    }

    /// When "emulated" results are literally the native results, the diff
    /// must be clean.
    #[test]
    fn identical_runs_are_clean() {
        let m = msg(MsgType::PiGet, 0, 0, 0, 0, Addr::new(0x1000));
        assert_eq!(both_verdicts(&m, &mut fresh(), |_, _, _| {}), None);
    }

    #[test]
    fn dropped_message_is_reported() {
        let m = msg(MsgType::PiGet, 0, 0, 0, 0, Addr::new(0x1000));
        let v = both_verdicts(&m, &mut fresh(), |_, out, _| {
            assert!(!out.is_empty());
            out.pop(); // "the PP lost an action"
        })
        .expect("must diverge");
        assert_eq!(v.kind, "oracle-out");
    }

    #[test]
    fn directory_word_divergence_is_reported() {
        let m = msg(MsgType::PiGet, 0, 0, 0, 0, Addr::new(0x1000));
        let v = both_verdicts(&m, &mut fresh(), |mem, _, _| {
            // Corrupt one header word in the "emulated" post state.
            let da = dir_addr(Addr::new(0x1000));
            mem.store64(da, mem.load64(da) ^ 0x4);
        })
        .expect("must diverge");
        assert_eq!(v.kind, "oracle-mem");
        assert!(v.detail.contains("pi_get_local"), "{}", v.detail);
    }

    #[test]
    fn wrong_handler_name_is_reported() {
        let m = msg(MsgType::PiGet, 0, 0, 0, 0, Addr::new(0x1000));
        let v = both_verdicts(&m, &mut fresh(), |_, _, h| *h = "ni_get").expect("must diverge");
        assert_eq!(v.kind, "oracle-handler");
    }

    #[test]
    fn same_count_with_other_multiplicities_is_reported() {
        let m = msg(MsgType::NGet, 0, 0, 3, 3, Addr::new(0x1000));
        let v = both_verdicts(&m, &mut fresh(), |_, out, _| {
            assert!(out.len() >= 2 && out[0] != out[1], "{out:?}");
            out[1] = out[0];
        })
        .expect("must diverge");
        assert_eq!(v.kind, "oracle-out");
    }

    #[test]
    fn multiset_comparison_counts_multiplicities() {
        let a = Outgoing::MemRead(Addr::new(0x1000));
        let b = Outgoing::MemWrite(Addr::new(0x1000));
        let mut matched = Vec::new();
        assert!(same_multiset(&[a, b, b], &[b, a, b], &mut matched));
        assert!(!same_multiset(&[a, a, b], &[a, b, b], &mut matched));
        assert!(!same_multiset(&[a, b, b], &[a, a, b], &mut matched));
        assert!(!same_multiset(&[a], &[a, a], &mut matched));
    }

    #[test]
    fn reordered_actions_are_the_same_multiset() {
        let m = msg(MsgType::PiGet, 0, 0, 0, 0, Addr::new(0x1000));
        assert_eq!(
            both_verdicts(&m, &mut fresh(), |_, out, _| out.reverse()),
            None
        );
    }

    #[test]
    fn store_on_an_untouched_page_is_reported_at_the_lowest_word() {
        let m = msg(MsgType::PiGet, 0, 0, 0, 0, Addr::new(0x1000));
        let mut mem = fresh();
        let v = both_verdicts(&m, &mut mem, |mem, _, _| {
            mem.store64(0x7700_0010, 3);
            mem.store64(0x7700_0008, 1);
        })
        .expect("must diverge");
        assert_eq!(v.kind, "oracle-mem");
        assert!(
            v.detail.contains("at 0x77000008: native 0x0 vs pp 0x1"),
            "{}",
            v.detail
        );
        // The PP's stores survive the replay's rollbacks.
        assert_eq!(mem.load64(0x7700_0008), 1);
    }

    #[test]
    fn oracle_state_records_checks_and_violations() {
        let m = msg(MsgType::PiGet, 0, 0, 0, 0, Addr::new(0x1000));
        let mut st = OracleState::default();
        for bad in [false, true] {
            let mut mem = fresh();
            mem.begin_journal();
            let mut out = Vec::new();
            let res = native::handle(&m, &mut mem, &CostTable::paper(), &mut out);
            if bad {
                out.clear();
            }
            st.check(&m, &mut mem, out, res.handler, 2);
        }
        assert_eq!(st.checked, 2);
        assert_eq!(st.violations.len(), 1);
        assert_eq!(st.violations[0].kind, "oracle-out");
        assert_eq!(st.violations[0].node, 2);
    }
}
