//! Where a [`crate::storage::Table`] keeps its row bytes: a row arena.
//!
//! Rows sit back to back in 64 KiB pages, each filled from its front, and a
//! table's index holds an 8-byte [`RowRef`] (page, offset, length) per row
//! instead of a handle to an allocation of its own: a 52-byte order line
//! costs its 52 bytes, not a 16-byte header and the allocator's chunk
//! rounding on top. A freed slot is reused by the next row of exactly its
//! length (TPC-C's and YCSB's tables rewrite rows at their stored length),
//! found in a short list of per-length free lists, searched linearly because
//! a table has few row lengths. A row above [`MAX_SHARED`] bytes gets a page
//! of its own, freed with it; an empty row takes no space at all. Pages are
//! not returned while the arena lives.
//!
//! A debug build checks [`RowArena::check`] whenever the table's index
//! checks itself (see [`crate::index`]).

/// Bytes per shared page.
const PAGE: usize = 64 << 10;
/// The longest row that shares a page; a longer one gets a page of its own.
const MAX_SHARED: usize = 16 << 10;
/// [`RowRef::len`] of a row that is the whole of its own page.
const OWN_PAGE: u16 = u16::MAX;
/// No page yet to append to.
const NO_PAGE: u32 = u32::MAX;

/// Where one stored row's bytes are. The default is the empty row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RowRef {
    page: u32,
    off: u16,
    /// The row's length up to [`MAX_SHARED`]; [`OWN_PAGE`] for a row that
    /// fills a page of its own.
    len: u16,
}

/// One table's row bytes (see the module doc).
#[derive(Debug)]
pub(crate) struct RowArena {
    /// A shared page's `len()` is how far it is filled (its capacity is
    /// [`PAGE`]); an own page is exactly its row, or empty once freed.
    pages: Vec<Vec<u8>>,
    /// The shared page new rows are appended to.
    open: u32,
    /// Freed slots by exact length.
    free: Vec<(u16, Vec<RowRef>)>,
    /// Pages freed with their own row, for the next page to take.
    free_pages: Vec<u32>,
}

impl Default for RowArena {
    fn default() -> Self {
        RowArena { pages: Vec::new(), open: NO_PAGE, free: Vec::new(), free_pages: Vec::new() }
    }
}

impl RowArena {
    /// Copy `row` in; returns where it is.
    pub(crate) fn alloc(&mut self, row: &[u8]) -> RowRef {
        let len = row.len();
        if len == 0 {
            return RowRef::default();
        }
        if len > MAX_SHARED {
            return RowRef { page: self.new_page(row.to_vec()), off: 0, len: OWN_PAGE };
        }
        let slot = self.free.iter_mut().find(|(l, _)| usize::from(*l) == len);
        if let Some(r) = slot.and_then(|(_, slots)| slots.pop()) {
            self.pages[r.page as usize][usize::from(r.off)..][..len].copy_from_slice(row);
            return r;
        }
        if self.open == NO_PAGE || PAGE - self.pages[self.open as usize].len() < len {
            self.open = self.new_page(Vec::with_capacity(PAGE));
        }
        let page = &mut self.pages[self.open as usize];
        let off = page.len() as u16;
        page.extend_from_slice(row);
        RowRef { page: self.open, off, len: len as u16 }
    }

    /// Give `r`'s space back. `r` must be live, and is not read again.
    pub(crate) fn free(&mut self, r: RowRef) {
        match r.len {
            0 => {}
            OWN_PAGE => {
                self.pages[r.page as usize] = Vec::new();
                self.free_pages.push(r.page);
            }
            len => match self.free.iter_mut().find(|(l, _)| *l == len) {
                Some((_, slots)) => slots.push(r),
                None => self.free.push((len, vec![r])),
            },
        }
    }

    /// The bytes of live row `r`.
    pub(crate) fn get(&self, r: RowRef) -> &[u8] {
        match r.len {
            0 => &[],
            OWN_PAGE => &self.pages[r.page as usize],
            len => &self.pages[r.page as usize][usize::from(r.off)..][..usize::from(len)],
        }
    }

    fn new_page(&mut self, page: Vec<u8>) -> u32 {
        match self.free_pages.pop() {
            Some(id) => {
                self.pages[id as usize] = page;
                id
            }
            None => {
                self.pages.push(page);
                (self.pages.len() - 1) as u32
            }
        }
    }

    /// The arena's invariants, given every live row: live bytes plus free
    /// bytes plus the unused tails of the shared pages are the pages' bytes
    /// — each shared page's live and free slots tile its filled front with
    /// no gap and no overlap, so no slot is on a free list twice or free
    /// while live —, and each own page holds one live row or is empty and
    /// free.
    pub(crate) fn check(&self, live: impl IntoIterator<Item = RowRef>) {
        // Pages that hold one row above `MAX_SHARED`, or none.
        let mut own = vec![false; self.pages.len()];
        let (mut slots, mut live_bytes, mut page_bytes) = (Vec::new(), 0, 0);
        for r in live {
            match r.len {
                0 => {}
                OWN_PAGE => {
                    let p = r.page as usize;
                    assert!(!own[p], "arena: own page {p} held twice");
                    assert!(self.pages[p].len() > MAX_SHARED, "arena: own page {p} too short");
                    own[p] = true;
                    live_bytes += self.pages[p].len();
                    page_bytes += self.pages[p].len();
                }
                _ => {
                    live_bytes += usize::from(r.len);
                    slots.push(r);
                }
            }
        }
        for &p in &self.free_pages {
            let p = p as usize;
            assert!(!own[p] && self.pages[p].is_empty(), "arena: free page {p} in use");
            own[p] = true;
        }
        let mut free_bytes = 0;
        for (len, list) in &self.free {
            assert!(list.iter().all(|r| r.len == *len), "arena: a slot on another length's list");
            free_bytes += usize::from(*len) * list.len();
            slots.extend_from_slice(list);
        }
        slots.sort_unstable();
        assert!(
            slots.windows(2).all(|w| (w[0].page, w[0].off) != (w[1].page, w[1].off)),
            "arena: a slot on a free list twice, or free while live"
        );
        let (mut slots, mut tail) = (slots.into_iter().peekable(), 0);
        for (p, page) in self.pages.iter().enumerate().filter(|(p, _)| !own[*p]) {
            let mut end = 0;
            while let Some(r) = slots.next_if(|r| r.page as usize == p) {
                assert_eq!(usize::from(r.off), end, "arena: a gap or an overlap in page {p}");
                end += usize::from(r.len);
            }
            assert_eq!(end, page.len(), "arena: page {p}'s slots do not fill its front");
            tail += PAGE - page.len();
            page_bytes += PAGE;
        }
        assert!(slots.next().is_none(), "arena: a slot on an own page");
        assert_eq!(live_bytes + free_bytes + tail, page_bytes, "arena: bytes unaccounted for");
    }
}

#[cfg(test)]
mod tests {
    use crate::log::{LogOp, LogRecord};
    use crate::storage::{Database, Key, Row, TxnError};
    use crate::TableId;
    use simkit::DetRng;
    use std::collections::HashMap;

    use super::MAX_SHARED;

    type Model = HashMap<Key, Vec<u8>>;

    /// A row length: empty, around the shared limit, a TPC-C-like size, or
    /// anything up to one past the limit.
    fn length(rng: &mut DetRng) -> usize {
        match rng.uniform(0, 9) {
            0 => 0,
            1 => MAX_SHARED + rng.uniform(0, 1) as usize,
            2 => MAX_SHARED - rng.uniform(0, 2) as usize,
            3..=6 => *rng.pick(&[8, 52, 100, 164]),
            _ => rng.uniform(1, MAX_SHARED as u64 + 1) as usize,
        }
    }

    fn image(rng: &mut DetRng) -> Vec<u8> {
        let (len, fill) = (length(rng), rng.uniform(0, 255) as u8);
        (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
    }

    /// The database's table `t` holds exactly what the model holds, and its
    /// index and arena invariants hold.
    fn assert_same(db: &Database, t: TableId, model: &Model) {
        db.table(t).expect("the table").check();
        let mut n = 0;
        db.for_each_row(t, |k, row| {
            assert_eq!(model.get(&Key::from_slice(k)).map(Vec::as_slice), Some(row), "{k:?}");
            n += 1;
        });
        assert_eq!(n, model.len());
    }

    /// A write set's outcome on `model` under the serial rules: an insert of
    /// a key present before the commit, or an update or delete of one absent
    /// that the set does not insert, fails it whole.
    fn apply(model: &mut Model, writes: &[(LogOp, Key, Vec<u8>)]) -> bool {
        let inserted = |k: &Key| writes.iter().any(|(op, w, _)| *op == LogOp::Insert && w == k);
        let fails = writes.iter().any(|(op, k, _)| match op {
            LogOp::Insert => model.contains_key(k),
            _ => !model.contains_key(k) && !inserted(k),
        });
        if !fails {
            for (op, k, v) in writes {
                match op {
                    LogOp::Delete => model.remove(k),
                    _ => model.insert(k.clone(), v.clone()),
                };
            }
        }
        !fails
    }

    #[test]
    fn seeded_row_traffic_matches_a_map_model() {
        let (mut committed, mut failed) = (0, 0);
        for seed in 0..24u64 {
            let mut rng = DetRng::new(0xA7E4A + seed);
            let mut db = Database::new();
            let t = db.create_table("t");
            let mut model = Model::new();
            let space = rng.uniform(4, 64);
            let key =
                |rng: &mut DetRng| Key::from_slice(&(rng.uniform(0, space) as u32).to_be_bytes());
            for step in 0..600u64 {
                match rng.uniform(0, 9) {
                    0 => {
                        let (k, v) = (key(&mut rng), image(&mut rng));
                        db.install_row(t, k.clone(), v.clone());
                        model.insert(k, v);
                    }
                    1 => {
                        let op = *rng.pick(&[LogOp::Insert, LogOp::Update, LogOp::Delete]);
                        let (k, v) = (key(&mut rng), image(&mut rng));
                        let value =
                            if op == LogOp::Delete { Row::new() } else { Row::from(v.clone()) };
                        db.apply_record(&LogRecord {
                            txn_id: step,
                            op,
                            table: t,
                            key: k.clone(),
                            value,
                        });
                        match op {
                            LogOp::Delete => model.remove(&k),
                            _ => model.insert(k, v),
                        };
                    }
                    _ => {
                        let mut ctx = db.begin();
                        let mut writes = Vec::new();
                        for _ in 0..rng.uniform(1, 6) {
                            let (k, v) = (key(&mut rng), image(&mut rng));
                            // Mostly a write the committed rows allow.
                            let op = match (rng.chance(0.85), model.contains_key(&k)) {
                                (true, false) => LogOp::Insert,
                                (true, true) => *rng.pick(&[LogOp::Update, LogOp::Delete]),
                                _ => *rng.pick(&[LogOp::Insert, LogOp::Update, LogOp::Delete]),
                            };
                            match op {
                                LogOp::Insert => db.insert(&mut ctx, t, k.clone(), v.clone()),
                                LogOp::Update => db.update(&mut ctx, t, k.clone(), v.clone()),
                                _ => db.delete(&mut ctx, t, k.clone()),
                            }
                            writes.push((op, k, v));
                        }
                        if rng.chance(0.1) {
                            db.rollback(ctx);
                            continue;
                        }
                        let outcome = db.commit(ctx);
                        assert_eq!(apply(&mut model, &writes), outcome.is_ok(), "{outcome:?}");
                        if let Err(e) = outcome {
                            assert!(matches!(e, TxnError::DuplicateKey(_) | TxnError::NotFound(_)));
                            failed += 1;
                        } else {
                            committed += 1;
                        }
                    }
                }
                if step % 50 == 0 {
                    assert_same(&db, t, &model);
                }
            }
            assert_same(&db, t, &model);
        }
        // Both outcomes must actually occur, each many times.
        assert!(committed > 4000 && failed > 1000, "{committed} committed, {failed} failed");
    }
}
