//! Global string interner.
//!
//! Predicate names, variable names, function symbols and symbolic constants
//! are interned once and referred to by a `Copy`able [`Symbol`] handle
//! everywhere else. Interned strings live for the lifetime of the process
//! (they are leaked), which is the usual trade-off for a query engine whose
//! vocabulary is bounded by the program text plus the data constants.
//!
//! **Reads take no lock.** `id → &'static str` lives in an append-only
//! table of [`OnceLock`] pages: [`Symbol::intern`]'s miss path fills the
//! slot under the interner's write lock *before* the id is handed out, and
//! `as_str` / `cmp` / `Display` read the slot with two acquire loads. Only
//! `intern` itself (string → id) goes through the lock.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned string. Cheap to copy, hash and compare.
///
/// Ordering of two symbols follows the *string* ordering of their contents,
/// not creation order, so that term ordering is deterministic across runs
/// regardless of interning order. A `cmp` of two distinct symbols is two
/// lock-free table reads plus a string comparison, which matters because
/// `Symbol` keys `BTreeMap`s on the per-message path (`Database::rels`, the
/// compiled program's window / holddown maps).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// String → id; the next id is its length. Guarded by the interner lock.
type Interner = HashMap<&'static str, u32>;

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Page `p` holds `1 << (FIRST_PAGE_BITS + p)` slots, so [`PAGE_COUNT`]
/// pages cover every `u32` id and a page, once allocated, never moves.
const FIRST_PAGE_BITS: u32 = 10;
const PAGE_COUNT: usize = (u32::BITS - FIRST_PAGE_BITS + 1) as usize;

type Page = Box<[OnceLock<&'static str>]>;

/// Id → string. Written only by [`Symbol::intern`]'s miss path (under the
/// interner write lock), read without any lock.
static PAGES: [OnceLock<Page>; PAGE_COUNT] = [const { OnceLock::new() }; PAGE_COUNT];

/// `(page, slot)` of `id`.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let n = id as u64 + (1 << FIRST_PAGE_BITS);
    let top = u64::BITS - 1 - n.leading_zeros();
    ((top - FIRST_PAGE_BITS) as usize, (n - (1 << top)) as usize)
}

impl Symbol {
    /// Crate-internal raw handle — used only as inline-array filler in
    /// [`crate::flat::FlatSubst`]; slots past the logical length are never
    /// observed through the public API.
    pub(crate) const fn from_raw(id: u32) -> Symbol {
        Symbol(id)
    }

    /// Intern `s`, returning its unique handle.
    pub fn intern(s: &str) -> Symbol {
        {
            let guard = interner().read();
            if let Some(&id) = guard.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(guard.len()).expect("interner overflow");
        // Publish the string before the id can reach anyone: readers learn
        // an id only from this return value or from the map under the lock.
        let (page, slot) = locate(id);
        PAGES[page].get_or_init(|| {
            (0..1usize << (FIRST_PAGE_BITS + page as u32))
                .map(|_| OnceLock::new())
                .collect()
        })[slot]
            .set(leaked)
            .expect("symbol slot filled twice");
        guard.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free (see the module docs).
    #[inline]
    pub fn as_str(self) -> &'static str {
        let (page, slot) = locate(self.0);
        PAGES[page]
            .get()
            .and_then(|p| p[slot].get())
            .expect("symbol id was published by intern")
    }

    /// Raw id, useful as a compact map key.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("veh");
        let b = Symbol::intern("veh");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "veh");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("cov"), Symbol::intern("uncov"));
    }

    #[test]
    fn ordering_follows_string_order() {
        // Intern in reverse lexical order to make sure ordering is by
        // content, not by creation index.
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| Symbol::intern(&format!("sym_{}", (i + j) % 10)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &all {
            for s in syms {
                assert!(s.as_str().starts_with("sym_"));
            }
        }
        // Same string interned from different threads must agree.
        assert_eq!(Symbol::intern("sym_3"), all[0][3]);
    }

    #[test]
    fn page_layout_is_dense_and_in_range() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        let (page, slot) = locate(u32::MAX);
        assert_eq!(page, PAGE_COUNT - 1);
        assert!(slot < 1 << (FIRST_PAGE_BITS as usize + page));
    }

    /// Readers take no lock, so they must never see an id whose string is
    /// not there yet, and growing the table must never disturb what is
    /// already in it.
    #[test]
    fn lock_free_reads_race_with_interning() {
        use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::*};
        use std::sync::Barrier;

        const WRITERS: usize = 2;
        const READERS: usize = 8;
        const FRESH: usize = 10_000;
        let names: Vec<String> = (0..64).map(|i| format!("race_pre_{i:03}")).collect();
        // Interned back to front, so id order is the reverse of string order.
        let mut pre: Vec<Symbol> = names.iter().rev().map(|n| Symbol::intern(n)).collect();
        pre.reverse();
        // The newest symbol each writer has interned, handed to the readers
        // the way any id crosses threads: through a release / acquire pair.
        let latest: Vec<AtomicU32> = (0..WRITERS).map(|w| AtomicU32::new(pre[w].0)).collect();
        let writers_done = AtomicUsize::new(0);
        let start = Barrier::new(WRITERS + READERS);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (latest, writers_done, start) = (&latest, &writers_done, &start);
                s.spawn(move || {
                    start.wait();
                    for j in 0..FRESH {
                        let name = format!("race_fresh_{w}_{j}");
                        let sym = Symbol::intern(&name);
                        assert_eq!(sym.as_str(), name);
                        latest[w].store(sym.0, Release);
                    }
                    writers_done.fetch_add(1, Release);
                });
            }
            for _ in 0..READERS {
                let (latest, writers_done, start) = (&latest, &writers_done, &start);
                let (pre, names) = (&pre, &names);
                s.spawn(move || {
                    start.wait();
                    let mut last_round = false;
                    loop {
                        for (i, (sym, name)) in pre.iter().zip(names).enumerate() {
                            assert_eq!(sym.as_str(), name);
                            if i > 0 {
                                assert!(pre[i - 1] < *sym, "ordering of old symbols moved");
                            }
                        }
                        for (w, slot) in latest.iter().enumerate() {
                            let got = Symbol(slot.load(Acquire)).as_str();
                            assert!(
                                got.starts_with(&format!("race_fresh_{w}_")) || got == names[w],
                                "writer {w} published `{got}`"
                            );
                        }
                        if last_round {
                            break;
                        }
                        last_round = writers_done.load(Acquire) == WRITERS;
                    }
                });
            }
        });
        for (w, slot) in latest.iter().enumerate() {
            let last = format!("race_fresh_{w}_{}", FRESH - 1);
            assert_eq!(Symbol(slot.load(Acquire)).as_str(), last);
            assert_eq!(Symbol::intern(&last).0, slot.load(Acquire));
        }
    }
}
