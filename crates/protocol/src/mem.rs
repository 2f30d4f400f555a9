//! Per-node protocol memory.
//!
//! "In FLASH all protocol code and data are maintained in main memory"
//! (paper §2). Each node's directory headers and pointer store live in a
//! sparse byte-addressed memory that the PP reaches through the MAGIC data
//! cache. The sparse paging keeps multi-gigabyte directory spans cheap to
//! host.
//!
//! A handler touches only a few words of that memory, so the memory can
//! keep an optional undo journal ([`ProtoMem::begin_journal`]): every
//! store records its word's previous value, and [`ProtoMem::rollback`]
//! restores the memory, pages included, to the state it had when the
//! journal was armed. The differential oracle uses it to replay one
//! handler invocation twice on the same memory at a cost proportional
//! to the words touched.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_BYTES: u64 = 4096;

/// A minimal multiply-fold hasher for page numbers. Page lookups sit on
/// the PP handler hot path (every directory header and pointer-store
/// access goes through one), and SipHash's per-lookup setup cost is
/// measurable there. Page numbers are small, dense, and attacker-free,
/// so a single odd-constant multiply with a high-bit fold is enough.
/// Iteration order is never observable: the only key-order-sensitive
/// consumer is [`ProtoMem::first_difference`], which sorts.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Multiply by a random odd 64-bit constant and fold the high
        // bits down so the HashMap's low-bit masking sees mixed bits.
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A sparse, byte-addressable protocol memory (zero-initialized).
///
/// # Examples
///
/// ```
/// use flash_protocol::mem::ProtoMem;
///
/// let mut m = ProtoMem::new();
/// assert_eq!(m.load64(0x1_0000), 0);
/// m.store64(0x1_0000, 0xdead_beef);
/// assert_eq!(m.load64(0x1_0000), 0xdead_beef);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProtoMem {
    pages: HashMap<u64, Box<Page>, BuildHasherDefault<PageHasher>>,
    journal: Journal,
}

type Page = [u8; PAGE_BYTES as usize];

/// The undo log of [`ProtoMem`]: off unless armed, and reused (cleared,
/// never shrunk) across arm/disarm cycles so a steady-state replay does
/// not allocate.
#[derive(Debug, Clone, Default)]
struct Journal {
    armed: bool,
    /// `(aligned word address, value before the store)`, in store order.
    words: Vec<(u64, u64)>,
    /// Pages the journaled stores materialized.
    new_pages: Vec<u64>,
}

impl ProtoMem {
    /// Creates an empty (all-zero) protocol memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn load64(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned load64 at {addr:#x}");
        match self.pages.get(&(addr / PAGE_BYTES)) {
            Some(p) => {
                let o = (addr % PAGE_BYTES) as usize;
                u64::from_le_bytes(p[o..o + 8].try_into().expect("in page"))
            }
            None => 0,
        }
    }

    /// Stores a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn store64(&mut self, addr: u64, val: u64) {
        assert_eq!(addr % 8, 0, "unaligned store64 at {addr:#x}");
        let page = self.page_for_store(addr);
        let o = (addr % PAGE_BYTES) as usize;
        page[o..o + 8].copy_from_slice(&val.to_le_bytes());
    }

    /// Loads a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn load32(&self, addr: u64) -> u32 {
        assert_eq!(addr % 4, 0, "unaligned load32 at {addr:#x}");
        match self.pages.get(&(addr / PAGE_BYTES)) {
            Some(p) => {
                let o = (addr % PAGE_BYTES) as usize;
                u32::from_le_bytes(p[o..o + 4].try_into().expect("in page"))
            }
            None => 0,
        }
    }

    /// Stores a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn store32(&mut self, addr: u64, val: u32) {
        assert_eq!(addr % 4, 0, "unaligned store32 at {addr:#x}");
        let page = self.page_for_store(addr);
        let o = (addr % PAGE_BYTES) as usize;
        page[o..o + 4].copy_from_slice(&val.to_le_bytes());
    }

    /// The page holding `addr`, materialized if absent. With the journal
    /// armed, also logs the previous value of the aligned word holding
    /// `addr` (a `store32` logs its containing word) and any page this
    /// store materializes.
    #[inline]
    fn page_for_store(&mut self, addr: u64) -> &mut Page {
        let j = &mut self.journal;
        let page = match self.pages.entry(addr / PAGE_BYTES) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                if j.armed {
                    j.new_pages.push(addr / PAGE_BYTES);
                }
                e.insert(Box::new([0; PAGE_BYTES as usize]))
            }
        };
        if j.armed {
            let word = addr & !7;
            let o = (word % PAGE_BYTES) as usize;
            let old = u64::from_le_bytes(page[o..o + 8].try_into().expect("in page"));
            j.words.push((word, old));
        }
        page
    }

    /// Arms the undo journal, discarding any previous log: from here on
    /// every store is recorded until [`ProtoMem::rollback`].
    pub fn begin_journal(&mut self) {
        self.journal.words.clear();
        self.journal.new_pages.clear();
        self.journal.armed = true;
    }

    /// Whether the undo journal is armed.
    pub fn journaling(&self) -> bool {
        self.journal.armed
    }

    /// The journaled stores since [`ProtoMem::begin_journal`], in store
    /// order: `(aligned word address, value before the store)`. A word
    /// stored twice appears twice.
    pub fn journal(&self) -> &[(u64, u64)] {
        &self.journal.words
    }

    /// Undoes every journaled store and drops every page they
    /// materialized, returning the memory word for word and page for page
    /// to its state at [`ProtoMem::begin_journal`]; then disarms the
    /// journal.
    ///
    /// # Examples
    ///
    /// ```
    /// use flash_protocol::mem::ProtoMem;
    ///
    /// let mut m = ProtoMem::new();
    /// m.store64(0x1000, 7);
    /// m.begin_journal();
    /// m.store64(0x1000, 8);
    /// m.store32(0x9_0004, 9);
    /// assert_eq!(m.resident_pages(), 2);
    /// m.rollback();
    /// assert_eq!(m.load64(0x1000), 7);
    /// assert_eq!(m.load32(0x9_0004), 0);
    /// assert_eq!(m.resident_pages(), 1);
    /// ```
    pub fn rollback(&mut self) {
        let j = &mut self.journal;
        for &(word, old) in j.words.iter().rev() {
            let page = self
                .pages
                .get_mut(&(word / PAGE_BYTES))
                .expect("journaled page is resident");
            let o = (word % PAGE_BYTES) as usize;
            page[o..o + 8].copy_from_slice(&old.to_le_bytes());
        }
        for p in j.new_pages.drain(..) {
            self.pages.remove(&p);
        }
        j.words.clear();
        j.armed = false;
    }

    /// Number of 4 KB pages materialized (for footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Address of the first 8-byte word whose contents differ between
    /// `self` and `other`, treating absent pages as zeros. `None` means
    /// the two memories are observationally identical. Used by the
    /// differential oracle to pin native-vs-PP directory divergences.
    pub fn first_difference(&self, other: &ProtoMem) -> Option<u64> {
        let mut pages: Vec<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        const ZEROS: Page = [0; PAGE_BYTES as usize];
        for p in pages {
            let a = self.pages.get(&p).map(|b| &b[..]).unwrap_or(&ZEROS);
            let b = other.pages.get(&p).map(|b| &b[..]).unwrap_or(&ZEROS);
            if a == b {
                continue;
            }
            for w in 0..(PAGE_BYTES as usize / 8) {
                if a[w * 8..w * 8 + 8] != b[w * 8..w * 8 + 8] {
                    return Some(p * PAGE_BYTES + (w as u64) * 8);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = ProtoMem::new();
        assert_eq!(m.load64(0), 0);
        assert_eq!(m.load32(0xfff0), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn store_load_round_trip() {
        let mut m = ProtoMem::new();
        m.store64(8, u64::MAX);
        m.store32(16, 0x1234_5678);
        assert_eq!(m.load64(8), u64::MAX);
        assert_eq!(m.load32(16), 0x1234_5678);
        assert_eq!(m.load32(8), 0xffff_ffff);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn page_boundaries() {
        let mut m = ProtoMem::new();
        m.store64(4096 - 8, 7);
        m.store64(4096, 9);
        assert_eq!(m.load64(4096 - 8), 7);
        assert_eq!(m.load64(4096), 9);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_panics() {
        ProtoMem::new().load64(4);
    }

    #[test]
    fn first_difference_pins_the_word() {
        let mut a = ProtoMem::new();
        let mut b = ProtoMem::new();
        assert_eq!(a.first_difference(&b), None);
        a.store64(0x2000, 5);
        b.store64(0x2000, 5);
        assert_eq!(a.first_difference(&b), None);
        b.store64(0x9008, 1);
        assert_eq!(a.first_difference(&b), Some(0x9008));
        assert_eq!(b.first_difference(&a), Some(0x9008));
        // A page materialized with zeros compares equal to an absent page.
        a.store64(0x20_0000, 0);
        assert_eq!(a.first_difference(&b), Some(0x9008));
    }

    #[test]
    fn journal_rollback_restores_words_and_pages() {
        let mut m = ProtoMem::new();
        m.store64(0x2000, 5);
        m.store32(0x2010, 6);
        let before = m.clone();
        m.begin_journal();
        assert!(m.journaling());
        m.store64(0x2000, 1);
        m.store64(0x2000, 2); // the same word twice: oldest value wins
        m.store32(0x2014, 3); // logs its containing aligned word
        m.store64(0x7000, 4); // materializes a page
        assert_eq!(
            m.journal(),
            &[(0x2000, 5), (0x2000, 1), (0x2010, 6), (0x7000, 0)]
        );
        assert_eq!(m.resident_pages(), 2);
        m.rollback();
        assert!(!m.journaling());
        assert_eq!(m.first_difference(&before), None);
        assert_eq!(m.resident_pages(), before.resident_pages());
        // Disarmed: stores are no longer logged.
        m.store64(0x2000, 9);
        assert!(m.journal().is_empty());
    }

    #[test]
    fn distant_addresses_stay_sparse() {
        let mut m = ProtoMem::new();
        m.store64(0x0100_0000, 1);
        m.store64(0x4000_0000, 2);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.load64(0x0100_0000), 1);
        assert_eq!(m.load64(0x4000_0000), 2);
    }
}
