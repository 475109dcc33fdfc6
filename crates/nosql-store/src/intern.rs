//! Interner for column-family and qualifier names.
//!
//! A store holds millions of cells but only a handful of distinct
//! `(family, qualifier)` names (one per declared column).  Interning the
//! name strings into shared `Arc<str>` handles means `RowData`'s column map,
//! every materialized [`crate::Cell`] and every mutation key clone is a
//! pointer bump instead of a `String` allocation — the dominant allocation
//! source on the scan path before this existed.

use std::collections::HashSet; // lint-allow(determinism): interner is probe/insert only, never iterated
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

// lint-allow(determinism): interner is probe/insert only, never iterated
fn table() -> &'static RwLock<HashSet<Arc<str>>> {
    // lint-allow(determinism): interner is probe/insert only, never iterated
    static TABLE: OnceLock<RwLock<HashSet<Arc<str>>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashSet::new())) // lint-allow(determinism): interner is probe/insert only, never iterated
}

/// Interns a family or qualifier name, returning a shared handle.
pub fn intern_name(name: &str) -> Arc<str> {
    {
        let set = table().read().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = set.get(name) {
            return Arc::clone(existing);
        }
    }
    let mut set = table().write().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = set.get(name) {
        return Arc::clone(existing);
    }
    let shared: Arc<str> = Arc::from(name);
    set.insert(Arc::clone(&shared));
    #[cfg(test)]
    tests::INSERTED_HERE.with(|n| n.set(n.get() + 1));
    shared
}

/// Resolves a name without inserting; `None` means the name has never been
/// interned — and therefore no stored column can carry it.  Probe-only
/// paths (conditional reads, deletes of possibly-absent columns) use this
/// so data-derived lookups cannot grow the table.
pub fn lookup_name(name: &str) -> Option<Arc<str>> {
    table()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .map(Arc::clone)
}

/// Number of distinct names interned so far (diagnostics and allocation
/// tests: repeated writes to existing columns must not grow this).
pub fn interned_name_count() -> usize {
    table().read().unwrap_or_else(PoisonError::into_inner).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Names this thread inserted.  The table is shared with every
        /// test running concurrently, so growth assertions count only the
        /// test's own inserts.
        pub(super) static INSERTED_HERE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn inserted_here() -> usize {
        INSERTED_HERE.with(std::cell::Cell::get)
    }

    #[test]
    fn interning_shares_storage() {
        let a = intern_name("tst_store_intern_cf");
        let b = intern_name("tst_store_intern_cf");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn lookup_never_inserts() {
        let before = inserted_here();
        assert!(lookup_name("tst_store_lookup_never_seen").is_none());
        assert_eq!(inserted_here(), before);
    }

    #[test]
    fn repeat_interning_does_not_grow_the_table() {
        let before = inserted_here();
        let _ = intern_name("tst_store_intern_stable");
        assert_eq!(inserted_here(), before + 1, "the first sight inserts");
        for _ in 0..100 {
            let _ = intern_name("tst_store_intern_stable");
        }
        assert_eq!(inserted_here(), before + 1);
    }
}
