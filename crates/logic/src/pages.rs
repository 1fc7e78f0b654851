//! Append-only `id → &'static T` table with lock-free reads.
//!
//! The one table under both interners ([`crate::symbol`]'s `id → str`,
//! [`crate::intern`]'s `ConstId → Entry`). A writer — serialized by its
//! interner's write lock — [`Pages::publish`]es a value *before* the id can
//! reach anyone else; readers [`Pages::get`] it with two acquire loads and
//! no lock.
//!
//! Page `p` holds `1 << (FIRST_PAGE_BITS + p)` slots, so [`PAGE_COUNT`]
//! pages cover every `u32` id: there is no ceiling to assert. A page is
//! allocated by the first `publish` that lands in it and never moves
//! afterwards; nothing is allocated up front.

use std::sync::OnceLock;

const FIRST_PAGE_BITS: u32 = 10;
const PAGE_COUNT: usize = (u32::BITS - FIRST_PAGE_BITS + 1) as usize;

type Page<T> = Box<[OnceLock<&'static T>]>;

pub(crate) struct Pages<T: ?Sized + 'static>([OnceLock<Page<T>>; PAGE_COUNT]);

/// `(page, slot)` of `id`.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let n = id as u64 + (1 << FIRST_PAGE_BITS);
    let top = u64::BITS - 1 - n.leading_zeros();
    ((top - FIRST_PAGE_BITS) as usize, (n - (1 << top)) as usize)
}

impl<T: ?Sized + 'static> Pages<T> {
    pub(crate) const fn new() -> Self {
        Pages([const { OnceLock::new() }; PAGE_COUNT])
    }

    /// Fill slot `id`. Each id is published once: a second `publish` of the
    /// same id panics.
    pub(crate) fn publish(&self, id: u32, value: &'static T) {
        let (page, slot) = locate(id);
        let page = self.0[page].get_or_init(|| {
            (0..1usize << (FIRST_PAGE_BITS + page as u32))
                .map(|_| OnceLock::new())
                .collect()
        });
        assert!(page[slot].set(value).is_ok(), "id {id} published twice");
    }

    /// The value published under `id`, if any.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> Option<&'static T> {
        let (page, slot) = locate(id);
        self.0.get(page)?.get()?.get(slot)?.get().copied()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::*};
    use std::sync::{Barrier, Mutex};

    /// The scaffold of this crate's race tests (here, `symbol`, `intern`):
    /// `writers` threads run `write(w)` once each while `readers` threads
    /// call `read()` over and over, until every writer is through and then
    /// once more. A writer that panics counts as through, so a broken table
    /// fails the test instead of hanging it.
    pub(crate) fn race(
        writers: usize,
        readers: usize,
        write: impl Fn(usize) + Sync,
        read: impl Fn() + Sync,
    ) {
        struct Through<'a>(&'a AtomicUsize);
        impl Drop for Through<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Release);
            }
        }
        let through = AtomicUsize::new(0);
        let start = Barrier::new(writers + readers);
        std::thread::scope(|s| {
            for w in 0..writers {
                let (through, start, write) = (&through, &start, &write);
                s.spawn(move || {
                    let _through = Through(through);
                    start.wait();
                    write(w);
                });
            }
            for _ in 0..readers {
                s.spawn(|| {
                    start.wait();
                    let mut last_round = false;
                    loop {
                        read();
                        if last_round {
                            break;
                        }
                        last_round = through.load(Acquire) == writers;
                    }
                });
            }
        });
    }

    #[test]
    fn page_layout_is_dense_and_in_range() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        // Every page boundary: the last slot of a page is followed by slot 0
        // of the next, and the slot is inside the page.
        let mut first = 0u64;
        for page in 0..PAGE_COUNT {
            let len = 1u64 << (FIRST_PAGE_BITS as usize + page);
            let last = (first + len - 1).min(u32::MAX as u64);
            assert_eq!(locate(first as u32), (page, 0));
            assert_eq!(locate(last as u32), (page, (last - first) as usize));
            first += len;
        }
        assert!(first > u32::MAX as u64, "every u32 id has a slot");
        assert_eq!(locate(u32::MAX).0, PAGE_COUNT - 1);
    }

    #[test]
    fn nothing_is_there_until_published() {
        let pages: Pages<str> = Pages::new();
        assert_eq!(pages.get(0), None);
        assert_eq!(pages.get(u32::MAX), None);
        pages.publish(5000, "x");
        assert_eq!(pages.get(5000), Some("x"));
        // Same page, slot not filled; other pages not allocated.
        assert_eq!(pages.get(5001), None);
        assert_eq!(pages.get(0), None);
    }

    #[test]
    #[should_panic(expected = "id 7 published twice")]
    fn a_slot_filled_twice_panics() {
        let pages: Pages<str> = Pages::new();
        pages.publish(7, "a");
        pages.publish(7, "b");
    }

    /// Readers take no lock, so they must never see an id whose value is
    /// not there yet, and growing the table must never move what is already
    /// in it.
    #[test]
    fn lock_free_reads_race_with_publishing() {
        const WRITERS: usize = 2;
        const PRE: u32 = 64;
        const FRESH: usize = 10_000; // per writer: the table grows by four pages
        let pages: Pages<u32> = Pages::new();
        let leak = |id: u32| -> &'static u32 { Box::leak(Box::new(id)) };
        let pre: Vec<&'static u32> = (0..PRE).map(leak).collect();
        for (id, v) in pre.iter().enumerate() {
            pages.publish(id as u32, v);
        }
        // The interner's write lock: it hands out the next id.
        let next = Mutex::new(PRE);
        // The newest id each writer has published, handed to the readers the
        // way any id crosses threads: through a release / acquire pair.
        let latest: Vec<AtomicU32> = (0..WRITERS).map(|w| AtomicU32::new(w as u32)).collect();
        race(
            WRITERS,
            8,
            |w| {
                for _ in 0..FRESH {
                    let id = {
                        let mut next = next.lock().unwrap();
                        pages.publish(*next, leak(*next));
                        *next += 1;
                        *next - 1
                    };
                    latest[w].store(id, Release);
                }
            },
            || {
                for (id, v) in pre.iter().enumerate() {
                    let got = pages.get(id as u32).expect("old entry vanished");
                    assert!(std::ptr::eq(got, *v), "old entry {id} moved");
                }
                for slot in &latest {
                    let id = slot.load(Acquire);
                    assert_eq!(pages.get(id).copied(), Some(id), "id {id} is empty");
                }
            },
        );
        let end = PRE + (WRITERS * FRESH) as u32;
        assert_eq!(*next.lock().unwrap(), end);
        assert!((0..end).all(|id| pages.get(id).copied() == Some(id)));
        assert_eq!(pages.get(end), None);
    }
}
