//! Global string interner.
//!
//! Predicate names, variable names, function symbols and symbolic constants
//! are interned once and referred to by a `Copy`able [`Symbol`] handle
//! everywhere else. Interned strings live for the lifetime of the process
//! (they are leaked), which is the usual trade-off for a query engine whose
//! vocabulary is bounded by the program text plus the data constants.
//!
//! **Reads take no lock.** `id → &'static str` lives in the append-only
//! `pages::Pages` table this module shares with [`crate::intern`]:
//! [`Symbol::intern`]'s miss path publishes the string under the interner's
//! write lock *before* the id is handed out, and `as_str` / `cmp` /
//! `Display` read the slot with two acquire loads. Only `intern` itself
//! (string → id) goes through the lock, a `std::sync::RwLock` whose poison
//! is ignored: a panic under it leaves the map and the table as they were.

use crate::pages::Pages;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

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

/// Id → string. Written only by [`Symbol::intern`]'s miss path (under the
/// interner write lock), read without any lock.
static PAGES: Pages<str> = Pages::new();

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
            let guard = interner().read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = guard.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = guard.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(guard.len()).expect("interner overflow");
        // Publish the string before the id can reach anyone: readers learn
        // an id only from this return value or from the map under the lock.
        PAGES.publish(id, leaked);
        guard.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free (see the module docs).
    #[inline]
    pub fn as_str(self) -> &'static str {
        PAGES
            .get(self.0)
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

    /// Readers take no lock, so they must never see a symbol whose string
    /// is not there yet, and interning must never disturb the content or
    /// the order of older symbols (the table's own race is `pages::tests`).
    #[test]
    fn lock_free_reads_race_with_interning() {
        use crate::pages::tests::race;
        use std::sync::atomic::{AtomicU32, Ordering::*};

        const WRITERS: usize = 2;
        const FRESH: usize = 10_000;
        let names: Vec<String> = (0..64).map(|i| format!("race_pre_{i:03}")).collect();
        // Interned back to front, so id order is the reverse of string order.
        let mut pre: Vec<Symbol> = names.iter().rev().map(|n| Symbol::intern(n)).collect();
        pre.reverse();
        // The newest symbol each writer has interned, handed to the readers
        // the way any id crosses threads: through a release / acquire pair.
        let latest: Vec<AtomicU32> = (0..WRITERS).map(|w| AtomicU32::new(pre[w].0)).collect();
        race(
            WRITERS,
            8,
            |w| {
                // Both writers intern the same names, so each one also finds
                // ids the other has just published through the map.
                for j in 0..FRESH {
                    let name = format!("race_fresh_{j}");
                    let sym = Symbol::intern(&name);
                    assert_eq!(sym.as_str(), name);
                    latest[w].store(sym.0, Release);
                }
            },
            || {
                for (i, (sym, name)) in pre.iter().zip(&names).enumerate() {
                    assert_eq!(sym.as_str(), name);
                    if i > 0 {
                        assert!(pre[i - 1] < *sym, "ordering of old symbols moved");
                    }
                }
                for (w, slot) in latest.iter().enumerate() {
                    let got = Symbol(slot.load(Acquire)).as_str();
                    assert!(
                        got.starts_with("race_fresh_") || got == names[w],
                        "writer {w} published `{got}`"
                    );
                }
            },
        );
        let last = Symbol::intern(&format!("race_fresh_{}", FRESH - 1));
        assert!(latest.iter().all(|slot| slot.load(Acquire) == last.0));
    }
}
