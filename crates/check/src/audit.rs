//! Directory structural integrity audits.
//!
//! These walk the byte-level directory structures of one node's protocol
//! memory without panicking (unlike the test-oriented accessors in
//! `flash_protocol::dir`, which assert on malformed lists), so a corrupted
//! list becomes a reported [`Violation`] instead of a simulator abort.

use crate::Violation;
use flash_engine::NodeId;
use flash_protocol::dir::{entry_addr, DirHeader, PtrEntry, DEFAULT_PS_CAPACITY, FREE_HEAD_ADDR};
use flash_protocol::ProtoMem;

/// Walks the sharer list of the header at `diraddr`, bounded by the
/// pointer-store capacity. `Err` means the list does not terminate (a
/// cycle or runaway links).
pub fn walk_sharers(mem: &ProtoMem, diraddr: u64) -> Result<Vec<NodeId>, String> {
    let h = DirHeader(mem.load64(diraddr));
    let mut out = Vec::new();
    let mut idx = h.head();
    let mut steps: u32 = 0;
    while idx != 0 {
        let e = PtrEntry(mem.load64(entry_addr(idx)));
        out.push(e.node());
        idx = e.next();
        steps += 1;
        if steps > DEFAULT_PS_CAPACITY as u32 {
            return Err(format!(
                "sharer list at {diraddr:#x} exceeds {DEFAULT_PS_CAPACITY} entries (cycle?)"
            ));
        }
    }
    Ok(out)
}

/// Counts the free-list entries, bounded by capacity. `Err` on a
/// non-terminating free list.
pub fn walk_free_list(mem: &ProtoMem) -> Result<usize, String> {
    let mut n = 0usize;
    let mut idx = mem.load64(FREE_HEAD_ADDR) as u16;
    while idx != 0 {
        n += 1;
        idx = PtrEntry(mem.load64(entry_addr(idx))).next();
        if n > DEFAULT_PS_CAPACITY as usize {
            return Err(format!(
                "free list exceeds {DEFAULT_PS_CAPACITY} entries (cycle?)"
            ));
        }
    }
    Ok(n)
}

/// Audits one directory header for structural integrity.
///
/// Checked always: list termination and in-range entry indices. Checked
/// when the header is not `PENDING`: a dirty line has an empty sharer
/// list. Checked additionally at `end_of_run` (machine quiescent): the
/// `PENDING` bit is clear and the invalidation-ack count has drained —
/// together these are the "every request eventually retired" half of
/// message conservation as seen from the directory.
pub fn audit_directory(
    mem: &ProtoMem,
    diraddr: u64,
    node: u16,
    end_of_run: bool,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let h = DirHeader(mem.load64(diraddr));
    let line = dir_line(diraddr);

    // Structural: bounded walk with index range checks.
    let mut idx = h.head();
    let mut steps: u32 = 0;
    let mut terminated = true;
    while idx != 0 {
        if idx > DEFAULT_PS_CAPACITY {
            v.push(Violation {
                kind: "dir-entry-range",
                node,
                line,
                detail: format!("sharer list at {diraddr:#x} links to out-of-range entry {idx}"),
            });
            terminated = false;
            break;
        }
        idx = PtrEntry(mem.load64(entry_addr(idx))).next();
        steps += 1;
        if steps > DEFAULT_PS_CAPACITY as u32 {
            v.push(Violation {
                kind: "dir-list-cycle",
                node,
                line,
                detail: format!("sharer list at {diraddr:#x} does not terminate"),
            });
            terminated = false;
            break;
        }
    }

    if !h.pending() && terminated && h.dirty() && h.head() != 0 {
        v.push(Violation {
            kind: "dirty-with-sharers",
            node,
            line,
            detail: format!(
                "header {:#x} is dirty (owner {}) but keeps a sharer list",
                h.0,
                h.owner()
            ),
        });
    }

    if end_of_run {
        if h.pending() {
            v.push(Violation {
                kind: "line-stuck-pending",
                node,
                line,
                detail: format!("header {:#x} still PENDING at quiescence", h.0),
            });
        } else if h.acks() != 0 {
            v.push(Violation {
                kind: "acks-leak",
                node,
                line,
                detail: format!("header {:#x} retains {} unclaimed acks", h.0, h.acks()),
            });
        }
    }
    v
}

/// Whole-store conservation and aliasing audit for one node's pointer
/// store, given every directory header address that was ever touched on
/// this node (untouched headers have empty lists by construction).
///
/// * conservation — `free + Σ list lengths == capacity`: no entry leaked
///   (allocated but unreachable) and none double-freed;
/// * aliasing — no entry index reachable from two places (two sharer
///   lists, twice within one list's links, or a sharer list and the free
///   list simultaneously).
pub fn check_pointer_store<'a>(
    mem: &ProtoMem,
    touched_diraddrs: impl IntoIterator<Item = &'a u64>,
    capacity: u16,
    node: u16,
) -> Vec<Violation> {
    let mut v = Vec::new();
    // Entry index -> first place we reached it from (diraddr, or 0 = free
    // list), dense over every `u16` index the links can hold. Directory
    // header addresses are 8-aligned, so `UNSEEN` is never a real place.
    const UNSEEN: u64 = u64::MAX;
    let mut seen = vec![UNSEEN; 1 << 16];
    let mut listed = 0usize;

    for &da in touched_diraddrs {
        let h = DirHeader(mem.load64(da));
        let mut idx = h.head();
        let mut steps: u32 = 0;
        while idx != 0 && idx <= DEFAULT_PS_CAPACITY && steps <= DEFAULT_PS_CAPACITY as u32 {
            let prev = seen[idx as usize];
            if prev != UNSEEN {
                v.push(Violation {
                    kind: "dir-entry-aliased",
                    node,
                    line: dir_line(da),
                    detail: format!(
                        "pointer-store entry {idx} reachable from header {da:#x} and {}",
                        if prev == 0 {
                            "the free list".to_string()
                        } else {
                            format!("header {prev:#x}")
                        }
                    ),
                });
                break;
            }
            seen[idx as usize] = da;
            listed += 1;
            idx = PtrEntry(mem.load64(entry_addr(idx))).next();
            steps += 1;
        }
    }

    let mut free = 0usize;
    let mut idx = mem.load64(FREE_HEAD_ADDR) as u16;
    let mut steps: u32 = 0;
    while idx != 0 && steps <= DEFAULT_PS_CAPACITY as u32 {
        let prev = seen[idx as usize];
        if prev != UNSEEN {
            v.push(Violation {
                kind: "dir-entry-aliased",
                node,
                line: 0,
                detail: format!(
                    "pointer-store entry {idx} on the free list and reachable from header {prev:#x}"
                ),
            });
            break;
        }
        seen[idx as usize] = 0;
        free += 1;
        idx = PtrEntry(mem.load64(entry_addr(idx))).next();
        steps += 1;
    }

    if v.is_empty() && free + listed != capacity as usize {
        v.push(Violation {
            kind: "ptr-store-leak",
            node,
            line: 0,
            detail: format!(
                "pointer-store conservation broken: {free} free + {listed} listed != capacity {capacity}"
            ),
        });
    }
    v
}

/// Raw line address a directory header describes.
fn dir_line(diraddr: u64) -> u64 {
    (diraddr - flash_protocol::dir::DIR_BASE) / 8 * flash_engine::LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_engine::Addr;
    use flash_protocol::dir::{dir_addr, Directory};

    fn mem_with(capacity: u16) -> ProtoMem {
        let mut m = ProtoMem::new();
        Directory::init_free_list(&mut m, capacity);
        m
    }

    #[test]
    fn clean_state_has_no_violations() {
        let mut m = mem_with(8);
        let da = dir_addr(Addr::new(0x2000));
        {
            let mut d = Directory::new(&mut m);
            let e = d.alloc_entry().unwrap();
            d.set_entry(e, PtrEntry::new(NodeId(3), 0));
            d.set_header(da, DirHeader::default().with_head(e));
        }
        assert!(audit_directory(&m, da, 0, true).is_empty());
        assert_eq!(walk_sharers(&m, da).unwrap(), vec![NodeId(3)]);
        assert!(check_pointer_store(&m, [&da], 8, 0).is_empty());
    }

    #[test]
    fn cycle_is_reported_not_panicked() {
        let mut m = mem_with(8);
        let da = dir_addr(Addr::new(0x2000));
        {
            let mut d = Directory::new(&mut m);
            let a = d.alloc_entry().unwrap();
            let b = d.alloc_entry().unwrap();
            d.set_entry(a, PtrEntry::new(NodeId(1), b));
            d.set_entry(b, PtrEntry::new(NodeId(2), a)); // cycle
            d.set_header(da, DirHeader::default().with_head(a));
        }
        assert!(walk_sharers(&m, da).is_err());
        let v = audit_directory(&m, da, 0, false);
        assert!(v.iter().any(|x| x.kind == "dir-list-cycle"), "{v:?}");
    }

    #[test]
    fn dirty_with_sharers_flagged_only_when_not_pending() {
        let mut m = mem_with(8);
        let da = dir_addr(Addr::new(0x2000));
        {
            let mut d = Directory::new(&mut m);
            let e = d.alloc_entry().unwrap();
            d.set_entry(e, PtrEntry::new(NodeId(1), 0));
            d.set_header(
                da,
                DirHeader::default()
                    .with_dirty(true)
                    .with_owner(NodeId(2))
                    .with_head(e),
            );
        }
        assert!(audit_directory(&m, da, 0, false)
            .iter()
            .any(|x| x.kind == "dirty-with-sharers"));
        // Same state mid-transaction is tolerated.
        let h = DirHeader(m.load64(da)).with_pending(true);
        m.store64(da, h.0);
        assert!(audit_directory(&m, da, 0, false).is_empty());
    }

    #[test]
    fn stuck_pending_and_acks_only_at_end_of_run() {
        let mut m = mem_with(4);
        let da = dir_addr(Addr::new(0x2000));
        m.store64(da, DirHeader::default().with_pending(true).with_acks(2).0);
        assert!(audit_directory(&m, da, 0, false).is_empty());
        assert!(audit_directory(&m, da, 0, true)
            .iter()
            .any(|x| x.kind == "line-stuck-pending"));
        m.store64(da, DirHeader::default().with_acks(2).0);
        assert!(audit_directory(&m, da, 0, true)
            .iter()
            .any(|x| x.kind == "acks-leak"));
    }

    #[test]
    fn leaked_entry_breaks_conservation() {
        let mut m = mem_with(8);
        let da = dir_addr(Addr::new(0x2000));
        {
            let mut d = Directory::new(&mut m);
            let _leaked = d.alloc_entry().unwrap(); // never linked, never freed
            d.set_header(da, DirHeader::default());
        }
        let v = check_pointer_store(&m, [&da], 8, 0);
        assert!(v.iter().any(|x| x.kind == "ptr-store-leak"), "{v:?}");
    }

    #[test]
    fn double_free_is_aliasing() {
        let mut m = mem_with(8);
        let da = dir_addr(Addr::new(0x2000));
        {
            let mut d = Directory::new(&mut m);
            let e = d.alloc_entry().unwrap();
            // Link it into a sharer list, then free it while still linked.
            d.set_header(da, DirHeader::default().with_head(e));
            d.free_entry(e);
        }
        let v = check_pointer_store(&m, [&da], 8, 0);
        assert!(v.iter().any(|x| x.kind == "dir-entry-aliased"), "{v:?}");
    }

    #[test]
    fn alias_and_leak_messages_are_stable() {
        let da = dir_addr(Addr::new(0x2000));
        let db = dir_addr(Addr::new(0x2080));
        // One entry on two sharer lists.
        let mut m = mem_with(8);
        {
            let mut d = Directory::new(&mut m);
            let e = d.alloc_entry().unwrap();
            d.set_entry(e, PtrEntry::new(NodeId(1), 0));
            d.set_header(da, DirHeader::default().with_head(e));
            d.set_header(db, DirHeader::default().with_head(e));
        }
        let v = check_pointer_store(&m, [&da, &db], 8, 2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(
            v[0].to_string(),
            "[dir-entry-aliased] node n2 line 0x2080: pointer-store entry 1 reachable \
             from header 0x100000208 and header 0x100000200"
        );
        // A listed entry freed while still linked.
        let mut m = mem_with(8);
        {
            let mut d = Directory::new(&mut m);
            let e = d.alloc_entry().unwrap();
            d.set_header(da, DirHeader::default().with_head(e));
            d.free_entry(e);
        }
        let v = check_pointer_store(&m, [&da], 8, 2);
        assert_eq!(
            v.iter().map(ToString::to_string).collect::<Vec<_>>(),
            [
                "[dir-entry-aliased] node n2 line 0x0: pointer-store entry 1 on the free \
                 list and reachable from header 0x100000200"
            ]
        );
        // A leaked entry.
        let mut m = mem_with(8);
        Directory::new(&mut m).alloc_entry().unwrap();
        let v = check_pointer_store(&m, [&da], 8, 2);
        assert_eq!(
            v.iter().map(ToString::to_string).collect::<Vec<_>>(),
            [
                "[ptr-store-leak] node n2 line 0x0: pointer-store conservation broken: \
                 7 free + 0 listed != capacity 8"
            ]
        );
    }
}
