//! Streaming operator helpers for the pull-based executor pipeline.
//!
//! The executor evaluates a SELECT as a tree of lazy row iterators
//! ([`RowStream`]): store scans decode rows on demand, filters and joins
//! wrap the upstream iterator, and only the operators that fundamentally
//! need materialization — hash-join build sides, GROUP BY state, ORDER BY
//! buffers — hold rows.  [`Residency`] meters exactly those buffers so the
//! memory footprint of a statement is measured, not asserted, and
//! [`top_k`] keeps the ORDER BY + LIMIT buffer bounded at `k` rows.
//!
//! Every multi-row store read enters the pipeline through one source,
//! [`ScanRows`]: a [`ParScanCursor`] at the planner's width, decoded one
//! store page per worker per batch.

use crate::catalog::TableDef;
use crate::executor::stored_row_is_dirty;
use crate::result::QueryError;
use nosql_store::ops::Scan;
use nosql_store::{Cluster, ParScanCursor, ResultRow};
use relational::{Row, Symbol};
use std::cell::Cell;
use std::cmp::Ordering;

/// A pull-based stream of decoded rows.  Errors (store failures, dirty-row
/// restarts) flow through the stream and abort the pipeline at the consumer.
pub(crate) type RowStream<'a> = Box<dyn Iterator<Item = Result<Row, QueryError>> + 'a>;

/// A borrowed decode context: a plan's decode spec applied to one table
/// definition.  [`DecodeCtx::bare`] decodes like [`TableDef::decode_row`].
#[derive(Clone, Copy)]
pub(crate) struct DecodeCtx<'a> {
    pub def: &'a TableDef,
    /// Alias-qualified output symbols, indexed by the table's column order.
    pub qual_syms: Option<&'a [Symbol]>,
    /// Projection mask over the table's columns (`None` = decode all).
    pub mask: Option<&'a [bool]>,
}

impl<'a> DecodeCtx<'a> {
    /// Decodes every column under its bare name.
    pub fn bare(def: &'a TableDef) -> Self {
        DecodeCtx {
            def,
            qual_syms: None,
            mask: None,
        }
    }

    /// Decodes `stored`, or reports [`QueryError::DirtyRestart`] when
    /// `dirty_check` is on and the row carries the dirty marker.
    pub fn decode(&self, stored: &ResultRow, dirty_check: bool) -> Result<Row, QueryError> {
        if dirty_check && stored_row_is_dirty(stored) {
            return Err(QueryError::DirtyRestart);
        }
        Ok(match self.qual_syms {
            Some(syms) => self.def.decode_row_qualified(stored, syms, self.mask),
            None => match self.mask {
                Some(mask) => self.def.decode_row_projected(stored, mask),
                None => self.def.decode_row(stored),
            },
        })
    }
}

/// The decoded scan source: the rows of one store scan, decoded in order.
///
/// It pulls one store page per worker per batch from a
/// [`Cluster::par_scan_stream`] cursor opened at `width` workers and decodes
/// the batch on [`pool::map`], one page per worker; width 1 decodes inline,
/// one page at a time, so it never fetches (or charges) a page the
/// row-at-a-time cursor would not have fetched by the same row.  With
/// dirty checking on, a dirty marker surfaces as
/// [`QueryError::DirtyRestart`] at its row; a scan the store could not
/// finish ends with [`QueryError::Store`] after the rows it did return, so
/// a truncated scan never passes for a complete one.
pub struct ScanRows<'a> {
    cursor: ParScanCursor,
    ctx: DecodeCtx<'a>,
    dirty_check: bool,
    width: usize,
    batch: std::iter::Flatten<std::vec::IntoIter<Vec<Result<Row, QueryError>>>>,
}

impl<'a> ScanRows<'a> {
    /// Opens `scan` over `ctx.def`'s table at `width` workers.
    pub(crate) fn open(
        cluster: &Cluster,
        ctx: DecodeCtx<'a>,
        scan: Scan,
        width: usize,
        dirty_check: bool,
    ) -> Result<Self, QueryError> {
        Ok(ScanRows {
            cursor: cluster.par_scan_stream(&ctx.def.name, scan, width)?,
            ctx,
            dirty_check,
            width,
            batch: Vec::new().into_iter().flatten(),
        })
    }
}

impl Iterator for ScanRows<'_> {
    type Item = Result<Row, QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.batch.next() {
                return Some(row);
            }
            let pages: Vec<Vec<ResultRow>> = (0..self.width)
                .map_while(|_| self.cursor.next_page())
                .collect();
            if pages.is_empty() {
                return self.cursor.take_error().map(|e| Err(QueryError::Store(e)));
            }
            let (ctx, dirty_check) = (self.ctx, self.dirty_check);
            self.batch = pool::map(pages, self.width, |page| {
                let mut rows = Vec::with_capacity(page.len());
                for stored in &page {
                    rows.push(ctx.decode(stored, dirty_check));
                    if rows.last().is_some_and(Result::is_err) {
                        // The statement restarts at a dirty row: decoding
                        // past it would be wasted work.
                        break;
                    }
                }
                rows
            })
            .into_iter()
            .flatten();
        }
    }
}

/// Counts the rows the executor holds materialized at once: hash-join build
/// sides, aggregation input, sort / top-k buffers and the emitted result.
/// `peak` is the statement's high-water mark, reported on the query result.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    current: Cell<usize>,
    peak: Cell<usize>,
}

impl Residency {
    /// Records `n` newly materialized rows.
    pub(crate) fn add(&self, n: usize) {
        let current = self.current.get() + n;
        self.current.set(current);
        if current > self.peak.get() {
            self.peak.set(current);
        }
    }

    /// The statement's high-water mark of resident rows.
    pub(crate) fn peak(&self) -> usize {
        self.peak.get()
    }
}

/// Drains a stream into a vector, metering every collected row.
pub(crate) fn collect_stream(
    stream: RowStream<'_>,
    meter: &Residency,
) -> Result<Vec<Row>, QueryError> {
    let mut out = Vec::new();
    for row in stream {
        out.push(row?);
        meter.add(1);
    }
    Ok(out)
}

/// Bounded ORDER BY + LIMIT: selects the `k` smallest rows under `cmp`
/// (ties resolved arbitrarily, like any top-k heap) and returns them sorted.
///
/// The buffer is a binary max-heap of at most `k` rows with the *worst*
/// retained row at the root, so a `LIMIT k` query holds `k` rows resident
/// instead of the full input — the replacement for sort-then-truncate.
pub(crate) fn top_k(
    stream: RowStream<'_>,
    k: usize,
    cmp: impl Fn(&Row, &Row) -> Ordering,
    meter: &Residency,
) -> Result<Vec<Row>, QueryError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut heap: Vec<Row> = Vec::with_capacity(k);
    for row in stream {
        let row = row?;
        if heap.len() < k {
            meter.add(1);
        }
        // Below capacity the row is retained; at capacity it evicts the
        // worst retained row (residency stays at k) or is dropped.
        push_bounded(&mut heap, row, k, &cmp);
    }
    heap.sort_by(|a, b| cmp(a, b));
    Ok(heap)
}

/// Inserts `row` into a bounded max-at-root heap of capacity `k`, evicting
/// the worst retained row when full.
fn push_bounded(heap: &mut Vec<Row>, row: Row, k: usize, cmp: &impl Fn(&Row, &Row) -> Ordering) {
    if heap.len() < k {
        heap.push(row);
        let last = heap.len() - 1;
        sift_up(heap, last, cmp);
    } else if cmp(&row, &heap[0]) == Ordering::Less {
        heap[0] = row;
        sift_down(heap, 0, cmp);
    }
}

fn sift_up(heap: &mut [Row], mut i: usize, cmp: &impl Fn(&Row, &Row) -> Ordering) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp(&heap[i], &heap[parent]) == Ordering::Greater {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [Row], mut i: usize, cmp: &impl Fn(&Row, &Row) -> Ordering) {
    loop {
        let left = 2 * i + 1;
        let right = 2 * i + 2;
        let mut largest = i;
        if left < heap.len() && cmp(&heap[left], &heap[largest]) == Ordering::Greater {
            largest = left;
        }
        if right < heap.len() && cmp(&heap[right], &heap[largest]) == Ordering::Greater {
            largest = right;
        }
        if largest == i {
            break;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: &[i64]) -> RowStream<'_> {
        Box::new(values.iter().map(|v| Ok(Row::new().with("n", *v))))
    }

    fn by_n(a: &Row, b: &Row) -> Ordering {
        a.get("n").unwrap().cmp(b.get("n").unwrap())
    }

    fn ns(rows: &[Row]) -> Vec<i64> {
        rows.iter().map(|r| r.get("n").unwrap().as_int().unwrap()).collect()
    }

    #[test]
    fn top_k_matches_sort_then_truncate() {
        let values = [5i64, 1, 9, 3, 7, 3, 8, 0, 2, 6];
        let meter = Residency::default();
        let top = top_k(rows(&values), 4, by_n, &meter).unwrap();
        assert_eq!(ns(&top), vec![0, 1, 2, 3]);
        assert_eq!(meter.peak(), 4, "buffer bounded at k");
    }

    #[test]
    fn top_k_handles_short_inputs_and_zero() {
        let meter = Residency::default();
        let top = top_k(rows(&[2, 1]), 10, by_n, &meter).unwrap();
        assert_eq!(ns(&top), vec![1, 2]);
        assert!(top_k(rows(&[1, 2]), 0, by_n, &meter).unwrap().is_empty());
    }

    #[test]
    fn residency_tracks_the_peak() {
        let meter = Residency::default();
        meter.add(3);
        meter.add(2);
        assert_eq!(meter.peak(), 5);
        meter.add(1);
        assert_eq!(meter.peak(), 6);
    }

    #[test]
    fn errors_propagate_through_collect_and_top_k() {
        let failing: RowStream<'_> = Box::new(
            [Ok(Row::new().with("n", 1)), Err(QueryError::DirtyRestart)].into_iter(),
        );
        let meter = Residency::default();
        assert!(matches!(
            collect_stream(failing, &meter),
            Err(QueryError::DirtyRestart)
        ));
        let failing: RowStream<'_> = Box::new(
            [Ok(Row::new().with("n", 1)), Err(QueryError::DirtyRestart)].into_iter(),
        );
        assert!(matches!(
            top_k(failing, 5, by_n, &meter),
            Err(QueryError::DirtyRestart)
        ));
    }
}
