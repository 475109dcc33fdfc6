//! A small chunked scoped-thread pool for region-parallel execution.
//!
//! This workspace builds offline (no crates registry), so instead of rayon
//! the parallel layers — `nosql_store`'s region-parallel scan rounds, the
//! query executor's per-page scan decode and partitioned hash join — share
//! this ~100-line fan-out primitive built on [`std::thread::scope`].  Each
//! caller runs the same code at every worker width; width 1 is simply a
//! call that runs inline.
//!
//! The model is deliberately simple and deterministic:
//!
//! * work is split into **contiguous chunks**, one per worker, preserving
//!   input order in the output — callers that merge range-partitioned
//!   results rely on this;
//! * workers are **scoped threads**, so closures may borrow from the
//!   caller's stack (no `'static` bounds, no channels);
//! * every call is a **barrier**: all chunks complete before `map` returns,
//!   which is what makes the sim-clock merge rules (max of per-worker
//!   elapsed, sum of cost counters) well defined;
//! * `threads <= 1` (or a single-item input) runs inline on the caller's
//!   thread — zero overhead and byte-identical behavior to serial code.
//!
//! A worker panic propagates to the caller (the join re-raises it), so
//! errors inside chunks should be returned as values, not panics.

/// Splits `len` items into at most `parts` contiguous index ranges of
/// near-equal size (the first `len % parts` ranges are one longer).  Empty
/// ranges are never produced; fewer than `parts` ranges are returned when
/// `len < parts`.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// preserving input order in the returned vector.
///
/// The items are split into contiguous chunks ([`chunk_ranges`]); the first
/// chunk runs on the calling thread (so `threads = n` spawns at most `n - 1`
/// OS threads), the rest on scoped workers.  With `threads <= 1` this is
/// exactly `items.into_iter().map(f).collect()`.
pub fn map<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    map_chunked(items, threads, |chunk| chunk.into_iter().map(&f).collect::<Vec<T>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Like [`map`], but hands each worker its whole contiguous chunk at once
/// (callers that build per-partition state — a hash table, a bounded heap —
/// want one invocation per chunk, not per item).  Returns one result per
/// chunk, in chunk order.
pub fn map_chunked<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(Vec<I>) -> T + Sync,
{
    let ranges = chunk_ranges(items.len(), threads);
    if ranges.len() <= 1 {
        if items.is_empty() {
            return Vec::new();
        }
        return vec![f(items)];
    }

    // Carve the items into owned chunks, front to back.
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(ranges.len());
    let mut rest = items;
    for range in ranges.iter().rev() {
        chunks.push(rest.split_off(range.start));
    }
    chunks.push(rest);
    chunks.reverse();
    chunks.retain(|c| !c.is_empty());

    let f = &f;
    std::thread::scope(|scope| {
        let mut iter = chunks.into_iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let handles: Vec<_> = iter.map(|chunk| scope.spawn(move || f(chunk))).collect();
        // The caller's thread works the first chunk while the others run.
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for handle in handles {
            // Re-raise a worker's panic with its original payload rather
            // than a second, less informative panic at the join site.
            out.push(handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let mut covered = 0;
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty ranges");
                    covered += r.len();
                    next = r.end;
                }
                assert_eq!(covered, len, "len={len} parts={parts}");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn map_preserves_order_at_every_width() {
        let input: Vec<i64> = (0..103).collect();
        let expected: Vec<i64> = input.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            assert_eq!(map(input.clone(), threads, |x| x * 2), expected);
        }
    }

    #[test]
    fn map_borrows_from_the_caller() {
        let base = 10i64;
        let out = map(vec![1i64, 2, 3], 2, |x| x + base);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn map_chunked_sees_contiguous_chunks_in_order() {
        let out = map_chunked((0..10).collect::<Vec<i32>>(), 3, |chunk| chunk);
        let flat: Vec<i32> = out.iter().flatten().copied().collect();
        assert_eq!(flat, (0..10).collect::<Vec<i32>>());
        assert_eq!(out.len(), 3);
        for chunk in &out {
            let mut sorted = chunk.clone();
            sorted.sort();
            assert_eq!(&sorted, chunk, "chunks are contiguous runs");
        }
    }

    #[test]
    fn work_actually_fans_out() {
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        map((0..8).collect::<Vec<u32>>(), 4, |_| {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        });
        // All four workers (including the caller's chunk) overlap in time.
        assert!(PEAK.load(Ordering::SeqCst) >= 2, "peak={}", PEAK.load(Ordering::SeqCst));
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(map(Vec::<u8>::new(), 4, |x| x).is_empty());
        assert_eq!(map(vec![7u8], 4, |x| x), vec![7]);
        assert!(map_chunked(Vec::<u8>::new(), 4, |c| c).is_empty());
    }
}
