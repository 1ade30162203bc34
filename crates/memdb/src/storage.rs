//! The main-memory storage engine.
//!
//! An ERMIA-class main-memory database keeps all data in DRAM and persists
//! only the transaction log (paper §1); the storage engine is therefore
//! ordered in-memory tables plus a transaction layer producing WAL records.
//! A table is a [`crate::index::Index`] over order-preserving encoded keys,
//! so TPC-C's range lookups (customer-by-last-name, latest order, oldest
//! new-order) are native scans along its linked leaves. Its 11-key nodes
//! split at the insertion point under an ascending run, so the 64
//! interleaved district runs of TPC-C's order lines, orders and new-orders
//! fill their leaves instead of leaving them about half full.
//!
//! Transactions are serializable by construction: one executes from
//! `begin` to `commit` at a time, in host order, so there is nothing to
//! validate. [`Database::commit`] asserts that contract — no row changed
//! since the transaction began — and a stored row is its bare image.
//!
//! The steady-state transaction loop is allocation-free on the read side:
//! reads return borrowed `&[u8]` slices, range lookups go through visitor
//! APIs ([`Database::scan_visit`]), keys live inline in [`SmallKey`]s, and
//! finished contexts are recycled through a pool so their buffers are
//! reused across transactions. A stored row lives once, in its table's
//! [`crate::arena`]: a write copies the caller's [`Row`] in when it is
//! installed, and the [`LogRecord`] keeps the `Row` it was built from, so a
//! record owns its image and the table holds the only long-lived copy.
//!
//! Every index probe goes through a [`Key`] — a stack copy of the caller's
//! slice — so a descent compares words, not `memcmp` calls (see
//! [`crate::key`]). A commit finds each row it writes once
//! ([`Index::edit`]), keeping an undo list for atomicity, and a row the
//! transaction read before it updated it not even once: the read's
//! [`Pos`] rides in the buffered update, and the install checks one key
//! there. A read starts at the transaction's last read in the same table
//! ([`Index::find_from`]), so sorted probes walk the leaf chain. Behind
//! both, each table's index remembers where it last found every key it was
//! asked for (its hint array), so a point read of a row found before, and a
//! blind update of one, check one key there before they descend.

use crate::arena::{RowArena, RowRef};
use crate::index::{HintCounts, Index, Pos};
use crate::key::SmallKey;
use crate::log::{LogOp, LogRecord, TableId};

/// A row image as a caller hands it in and a log record carries it
/// (refcounted; cloning shares the allocation). The table stores a copy.
pub type Row = simkit::Bytes;
/// An encoded, order-preserving key (inline up to 22 bytes).
pub type Key = SmallKey;

// A stored row's index entry: a 24-byte key and an 8-byte place in the
// table's arena. A full leaf holds 11 in 368 bytes.
const _: () = assert!(std::mem::size_of::<(Key, RowRef)>() == 32);

/// One table: ordered rows, their bytes in the table's arena.
#[derive(Debug, Default)]
pub struct Table {
    rows: Index<Key, RowRef>,
    arena: RowArena,
    /// `rows.checks()` when the arena was last checked (debug builds).
    arena_checked: u64,
}

impl Table {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows per leaf slot of the table's index: 1.0 when every leaf holds
    /// its 11.
    pub fn leaf_fill(&self) -> f64 {
        self.rows.leaf_fill()
    }

    /// Rows with keys in `[from, to)`, in key order from either end.
    fn range<'a>(
        &'a self,
        from: &[u8],
        to: &[u8],
    ) -> impl DoubleEndedIterator<Item = (&'a [u8], &'a [u8])> {
        let range = self.rows.range(&Key::from_slice(from), Key::from_slice(to));
        range.map(|(k, r)| (k.as_slice(), self.arena.get(*r)))
    }

    /// Every row, in key order.
    fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.rows.iter().map(|(k, r)| (k.as_slice(), self.arena.get(*r)))
    }

    /// `key`'s row and where its entry sits, looked for from `from` when
    /// there is one.
    fn find(&self, from: Option<Pos>, key: &Key) -> Option<(Pos, &[u8])> {
        let found = match from {
            Some(pos) => self.rows.find_from(pos, key),
            None => self.rows.find(key),
        };
        found.map(|(pos, r)| (pos, self.arena.get(*r)))
    }

    /// Store a copy of `row` under `key` (replacing and freeing any row
    /// there), or with `None` remove the key's row.
    fn put(&mut self, key: &Key, row: Option<&[u8]>) {
        let Table { rows, arena, .. } = self;
        rows.edit(None, key, |slot| {
            if let Some(old) = slot.take() {
                arena.free(old);
            }
            *slot = row.map(|row| arena.alloc(row));
        });
        self.settle();
    }

    /// The index's and the arena's invariants.
    #[cfg(test)]
    pub(crate) fn check(&self) {
        self.rows.check();
        self.arena.check(self.rows.iter().map(|(_, r)| *r));
    }

    /// Check the arena in a debug build when the index checked itself since
    /// the last time: on its cadence, once every row a change freed is back
    /// in the arena.
    fn settle(&mut self) {
        if cfg!(debug_assertions) && self.rows.checks() != self.arena_checked {
            self.arena_checked = self.rows.checks();
            self.arena.check(self.rows.iter().map(|(_, r)| *r));
        }
    }
}

/// Why a transaction failed to commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Insert of a key that already exists.
    DuplicateKey(Key),
    /// Update/delete of a missing key.
    NotFound(Key),
    /// Unknown table id.
    NoSuchTable(TableId),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::DuplicateKey(k) => write!(f, "duplicate key {k:02X?}"),
            TxnError::NotFound(k) => write!(f, "key not found {k:02X?}"),
            TxnError::NoSuchTable(t) => write!(f, "no such table {t}"),
        }
    }
}

impl std::error::Error for TxnError {}

#[derive(Debug, Clone)]
enum PendingWrite {
    Insert(Key, Row),
    /// With the position of the transaction's last read in the table: the
    /// row's own when the update follows the read of its row.
    Update(Key, Row, Option<Pos>),
    Delete(Key),
}

impl PendingWrite {
    fn key(&self) -> &Key {
        match self {
            PendingWrite::Insert(k, _)
            | PendingWrite::Update(k, _, _)
            | PendingWrite::Delete(k) => k,
        }
    }
}

/// An open transaction: its buffered writes.
///
/// The context is recycled through the database's pool on commit, so a
/// steady-state transaction reuses the previous one's buffers instead of
/// allocating.
#[derive(Debug, Default)]
pub struct TxnCtx {
    id: u64,
    writes: Vec<(TableId, PendingWrite)>,
    /// The database's mutation stamp as of `begin`.
    begin_stamp: u64,
    /// Commit's undo list: entry `i` is the row the `i`-th installed write
    /// replaced (`None`: the key was vacant), still in the arena until the
    /// commit succeeds. The table and key are the `i`-th log record's.
    undo: Vec<Option<RowRef>>,
    /// Where the last read that found a row found it.
    last_read: Option<(TableId, Pos)>,
}

impl TxnCtx {
    /// Transaction id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn reset(&mut self, id: u64, begin_stamp: u64) {
        self.id = id;
        self.begin_stamp = begin_stamp;
        self.writes.clear();
        self.undo.clear();
        self.last_read = None;
    }

    /// The last read's position when it was in `table`.
    fn read_in(&self, table: TableId) -> Option<Pos> {
        self.last_read.filter(|(t, _)| *t == table).map(|(_, pos)| pos)
    }
}

/// Recycled contexts kept per database (bounds pool memory under bursty
/// worker counts).
const CTX_POOL_CAP: usize = 64;

/// The database: a catalog of tables and the transaction layer.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Table>,
    names: Vec<String>,
    next_txn: u64,
    commits: u64,
    aborts: u64,
    /// Mutation stamp: bumped by every route that changes a row (a commit
    /// that applies at least one write, `apply_record`, `install_row`).
    /// `commit` asserts it still equals the transaction's `begin_stamp`.
    mutations: u64,
    write_probes: u64,
    positioned_writes: u64,
    /// Reference model for the tests: find every written row twice — a
    /// pre-check pass, then the install — instead of once with an undo list.
    #[cfg(test)]
    two_pass_commit: bool,
    /// Reference model for the tests: every read and every write descends
    /// from the root; no position is kept or used, and no index keeps hints.
    #[cfg(test)]
    descend_always: bool,
    /// Positioned writes whose position no longer held their key, so they
    /// descended (the tests' evidence that the fallback ran).
    #[cfg(test)]
    stale_positions: u64,
    ctx_pool: Vec<TxnCtx>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a table; returns its id.
    pub fn create_table(&mut self, name: &str) -> TableId {
        assert!(self.tables.len() < u16::MAX as usize);
        self.tables.push(Table::default());
        #[cfg(test)]
        if let Some(table) = self.tables.last_mut().filter(|_| self.descend_always) {
            table.rows.set_hint_slots(0);
        }
        self.names.push(name.to_string());
        (self.tables.len() - 1) as TableId
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.names.iter().position(|n| n == name).map(|i| i as TableId)
    }

    /// Borrow a table.
    pub fn table(&self, id: TableId) -> Option<&Table> {
        self.tables.get(id as usize)
    }

    /// Committed transactions so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Aborted transactions so far.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Index descents `commit` made for buffered writes so far: one per
    /// written row no position answered, plus one per write it put back
    /// when a commit failed.
    pub fn write_probes(&self) -> u64 {
        self.write_probes
    }

    /// Updates `commit` installed with no descent: at the position of the
    /// read before them, or at their key's hint.
    pub fn positioned_writes(&self) -> u64 {
        self.positioned_writes
    }

    /// Descents from the root over every table's index so far.
    pub fn index_descents(&self) -> u64 {
        self.tables.iter().map(|t| t.rows.descents()).sum()
    }

    /// Index nodes visited over every table so far (see
    /// [`Index::node_visits`]).
    pub fn index_node_visits(&self) -> u64 {
        self.tables.iter().map(|t| t.rows.node_visits()).sum()
    }

    /// How the hint probes went over every table's index so far.
    pub fn index_hints(&self) -> HintCounts {
        self.tables.iter().map(|t| t.rows.hint_counts()).fold(HintCounts::default(), |a, b| a + b)
    }

    /// `pos`, unless the tests' reference switch turns positions off.
    fn hint(&self, pos: Option<Pos>) -> Option<Pos> {
        #[cfg(test)]
        if self.descend_always {
            return None;
        }
        pos
    }

    /// Begin a transaction (reusing a pooled context when available).
    pub fn begin(&mut self) -> TxnCtx {
        let id = self.next_txn;
        self.next_txn += 1;
        let mut ctx = self.ctx_pool.pop().unwrap_or_default();
        ctx.reset(id, self.mutations);
        ctx
    }

    /// Return a context's buffers to the pool without committing (explicit
    /// application-level rollback; does not count as an abort).
    pub fn rollback(&mut self, ctx: TxnCtx) {
        self.recycle(ctx);
    }

    fn recycle(&mut self, mut ctx: TxnCtx) {
        if self.ctx_pool.len() < CTX_POOL_CAP {
            ctx.reset(0, 0);
            self.ctx_pool.push(ctx);
        }
    }

    /// Transactional point read: sees the transaction's own buffered
    /// writes. The returned slice borrows the stored row image — decode
    /// what you need before the next operation on `ctx`. A row found is
    /// looked for from the transaction's last read in the same table, and
    /// becomes its last read.
    pub fn get<'a>(&'a self, ctx: &'a mut TxnCtx, table: TableId, key: &[u8]) -> Option<&'a [u8]> {
        let key = Key::from_slice(key);
        // Own writes first (read-your-writes): the last buffered write of
        // the key decides. Resolve to its position first so the borrow
        // returned below starts inside its own branch (NLL).
        let own = ctx.writes.iter().rposition(|(t, w)| *t == table && *w.key() == key);
        if let Some(i) = own {
            return match &ctx.writes[i].1 {
                PendingWrite::Update(_, v, pos) => {
                    // The update's position is the row's when it has one.
                    if let Some(pos) = pos {
                        ctx.last_read = Some((table, *pos));
                    }
                    Some(v.as_slice())
                }
                PendingWrite::Insert(_, v) => Some(v.as_slice()),
                PendingWrite::Delete(_) => None,
            };
        }
        let from = self.hint(ctx.read_in(table));
        let (pos, row) = self.tables.get(table as usize)?.find(from, &key)?;
        ctx.last_read = Some((table, pos));
        Some(row)
    }

    /// Range scan over `[from, to)`, visiting up to `limit` committed
    /// `(key, row)` pairs in key order without cloning either; an open
    /// transaction's buffered writes are not among them. Returns the number
    /// of rows visited.
    pub fn scan_visit<F>(
        &self,
        table: TableId,
        from: &[u8],
        to: &[u8],
        limit: usize,
        mut visit: F,
    ) -> usize
    where
        F: FnMut(&[u8], &[u8]),
    {
        let Some(t) = self.tables.get(table as usize) else { return 0 };
        let mut n = 0;
        for (k, row) in t.range(from, to) {
            if n >= limit {
                break;
            }
            visit(k, row);
            n += 1;
        }
        n
    }

    /// Allocating convenience form of [`scan_visit`](Database::scan_visit)
    /// for tests and cold paths: collects up to `limit` cloned pairs.
    pub fn scan(&self, table: TableId, from: &[u8], to: &[u8], limit: usize) -> Vec<(Key, Row)> {
        let mut out = Vec::new();
        self.scan_visit(table, from, to, limit, |k, row| {
            out.push((Key::from_slice(k), Row::copy_from_slice(row)))
        });
        out
    }

    /// First committed `(key, row)` in `[from, to)` (e.g. the oldest
    /// new-order), borrowed.
    pub fn first_in_range(&self, table: TableId, from: &[u8], to: &[u8]) -> Option<(&[u8], &[u8])> {
        self.tables.get(table as usize)?.range(from, to).next()
    }

    /// Last committed `(key, row)` in `[from, to)` (e.g. a customer's latest
    /// order), borrowed.
    pub fn last_in_range(&self, table: TableId, from: &[u8], to: &[u8]) -> Option<(&[u8], &[u8])> {
        self.tables.get(table as usize)?.range(from, to).next_back()
    }

    /// Buffer an insert.
    pub fn insert(
        &self,
        ctx: &mut TxnCtx,
        table: TableId,
        key: impl Into<Key>,
        row: impl Into<Row>,
    ) {
        ctx.writes.push((table, PendingWrite::Insert(key.into(), row.into())));
    }

    /// Buffer an update, with the position of the transaction's last read
    /// in `table` (the install checks whether it holds the key).
    pub fn update(
        &self,
        ctx: &mut TxnCtx,
        table: TableId,
        key: impl Into<Key>,
        row: impl Into<Row>,
    ) {
        let pos = self.hint(ctx.read_in(table));
        ctx.writes.push((table, PendingWrite::Update(key.into(), row.into(), pos)));
    }

    /// Buffer a delete.
    pub fn delete(&self, ctx: &mut TxnCtx, table: TableId, key: impl Into<Key>) {
        ctx.writes.push((table, PendingWrite::Delete(key.into())));
    }

    /// Apply the transaction. On success the buffered writes are installed
    /// atomically and the WAL records (ending with a commit marker) are
    /// returned for the log manager to persist. Each record owns the row it
    /// was written with; the table holds a copy, and the rows the commit
    /// replaced go back to their arenas only once it has succeeded.
    ///
    /// # Panics
    ///
    /// When a row changed since `ctx` began — another transaction's commit,
    /// an `apply_record` or an `install_row` landed inside it. Execution is
    /// serial, so that is a caller bug, not a conflict to validate.
    pub fn commit(&mut self, mut ctx: TxnCtx) -> Result<Vec<LogRecord>, TxnError> {
        assert_eq!(
            ctx.begin_stamp, self.mutations,
            "transaction {} overlapped a change to the database: execution is serial",
            ctx.id
        );
        let result = self.commit_inner(&mut ctx);
        if result.is_err() {
            self.aborts += 1;
        }
        self.recycle(ctx);
        result
    }

    fn commit_inner(&mut self, ctx: &mut TxnCtx) -> Result<Vec<LogRecord>, TxnError> {
        #[cfg(test)]
        if self.two_pass_commit {
            return self.commit_two_pass(ctx);
        }
        // Install + emit log records, one descent per written row. A
        // structural error puts back what was installed, newest first, so
        // the commit stays atomic; only a commit that stands frees the rows
        // it replaced.
        let mut records = Vec::with_capacity(ctx.writes.len() + 1);
        let installed = self.install_writes(ctx, &mut records);
        for (rec, old) in records.iter().zip(ctx.undo.drain(..)).rev() {
            let Table { rows, arena, .. } = &mut self.tables[rec.table as usize];
            if installed.is_err() {
                // Put the replaced row back; the one written over it goes.
                self.write_probes += 1;
                if let Some(new) = rows.edit(None, &rec.key, |slot| std::mem::replace(slot, old)) {
                    arena.free(new);
                }
            } else if let Some(old) = old {
                arena.free(old);
            }
        }
        for t in &mut self.tables {
            t.settle();
        }
        installed?;
        if !records.is_empty() {
            self.mutations += 1;
        }
        records.push(LogRecord::commit(ctx.id));
        self.commits += 1;
        Ok(records)
    }

    /// Install `ctx`'s writes in order through one [`Index::edit`] each —
    /// in place at an update's position when it still holds the key, one
    /// descent otherwise — pushing a log record and an undo entry per
    /// write. Fails at the first
    /// write a two-pass commit would reject — an `Insert` of a key that
    /// existed before the commit, an `Update`/`Delete` of a key that did
    /// not and that the write set never inserts — leaving the installed
    /// prefix for the caller to undo. Only a key the write set touches
    /// twice can make the current entry disagree with the pre-commit state,
    /// so the records are searched only in the branches where that matters.
    /// Inserted/updated images are copied into the table's arena, and each
    /// record keeps the `Row` it was written with.
    fn install_writes(
        &mut self,
        ctx: &mut TxnCtx,
        records: &mut Vec<LogRecord>,
    ) -> Result<(), TxnError> {
        let txn_id = ctx.id;
        let undo = &mut ctx.undo;
        // Whether a delete of this commit removed a row: only then can a
        // key that is vacant now have existed before the commit.
        let mut removed = false;
        let mut writes = ctx.writes.drain(..);
        while let Some((table, w)) = writes.next() {
            let Table { rows, arena, .. } =
                self.tables.get_mut(table as usize).ok_or(TxnError::NoSuchTable(table))?;
            let (op, k, value, pos) = match w {
                PendingWrite::Insert(k, v) => (LogOp::Insert, k, v, None),
                PendingWrite::Update(k, v, pos) => (LogOp::Update, k, v, pos),
                PendingWrite::Delete(k) => (LogOp::Delete, k, Row::new(), None),
            };
            // `Some(existed)` when an earlier write of this commit touched
            // the key: whether it existed before the commit.
            let before = || {
                records
                    .iter()
                    .position(|r| r.table == table && r.key == k)
                    .map(|i| undo[i].is_some())
            };
            // `None`: rejected, nothing changed; `Some(old)`: installed.
            let descents = rows.descents();
            let install = |slot: &mut Option<RowRef>| {
                let rejected = match op {
                    LogOp::Insert if slot.is_some() => before() != Some(false),
                    LogOp::Insert => removed && before() == Some(true),
                    _ if slot.is_some() => false,
                    _ => before().is_none() && !inserts(writes.as_slice(), table, &k),
                };
                if rejected {
                    return None;
                }
                Some(match op {
                    LogOp::Delete => slot.take(),
                    _ => slot.replace(arena.alloc(&value)),
                })
            };
            // An insert's key is new, so no position or hint holds it (a
            // rejected duplicate's may, and descends all the same).
            let installed = match op {
                LogOp::Insert => rows.edit_vacant(&k, install),
                _ => rows.edit(pos, &k, install),
            };
            let descended = rows.descents() - descents;
            self.write_probes += descended;
            self.positioned_writes += u64::from(descended == 0);
            #[cfg(test)]
            {
                self.stale_positions += u64::from(pos.is_some() && descended > 0);
            }
            let Some(old) = installed else {
                return Err(match op {
                    LogOp::Insert => TxnError::DuplicateKey(k),
                    _ => TxnError::NotFound(k),
                });
            };
            removed |= op == LogOp::Delete && old.is_some();
            records.push(LogRecord { txn_id, op, table, key: k, value });
            undo.push(old);
        }
        Ok(())
    }

    /// Reference model for the tests: the commit as it was before the undo
    /// list — every write is found once to pre-check it for structural
    /// errors and once more to install it.
    #[cfg(test)]
    fn commit_two_pass(&mut self, ctx: &mut TxnCtx) -> Result<Vec<LogRecord>, TxnError> {
        for (table, w) in &ctx.writes {
            let t = self.tables.get(*table as usize).ok_or(TxnError::NoSuchTable(*table))?;
            self.write_probes += 1;
            match w {
                PendingWrite::Insert(k, _) => {
                    if t.rows.find(k).is_some() {
                        return Err(TxnError::DuplicateKey(k.clone()));
                    }
                }
                PendingWrite::Update(k, _, _) | PendingWrite::Delete(k) => {
                    if t.rows.find(k).is_none() && !inserts(&ctx.writes, *table, k) {
                        return Err(TxnError::NotFound(k.clone()));
                    }
                }
            }
        }
        let mut records = Vec::with_capacity(ctx.writes.len() + 1);
        let txn_id = ctx.id;
        if !ctx.writes.is_empty() {
            self.mutations += 1;
        }
        for (table, w) in ctx.writes.drain(..) {
            self.write_probes += 1;
            let (op, k, value) = match w {
                PendingWrite::Insert(k, v) => (LogOp::Insert, k, v),
                PendingWrite::Update(k, v, _) => (LogOp::Update, k, v),
                PendingWrite::Delete(k) => (LogOp::Delete, k, Row::new()),
            };
            let row = (op != LogOp::Delete).then_some(value.as_slice());
            self.tables[table as usize].put(&k, row);
            records.push(LogRecord { txn_id, op, table, key: k, value });
        }
        records.push(LogRecord::commit(txn_id));
        self.commits += 1;
        Ok(records)
    }

    /// Apply one *committed* log record directly (recovery / replica redo).
    /// Record application is idempotent for inserts/updates; the record's
    /// row image is copied into the table's arena.
    pub fn apply_record(&mut self, rec: &LogRecord) {
        match rec.op {
            LogOp::Commit => {}
            LogOp::Insert | LogOp::Update => {
                self.mutations += 1;
                let table = rec.table as usize;
                while self.tables.len() <= table {
                    self.create_table(&format!("recovered_{}", self.tables.len()));
                }
                self.tables[table].put(&rec.key, Some(rec.value.as_slice()));
            }
            LogOp::Delete => {
                self.mutations += 1;
                if let Some(t) = self.tables.get_mut(rec.table as usize) {
                    t.put(&rec.key, None);
                }
            }
        }
    }

    /// Raw (non-transactional) read, e.g. for verification.
    pub fn peek(&self, table: TableId, key: &[u8]) -> Option<&[u8]> {
        let (_, row) = self.tables.get(table as usize)?.find(None, &Key::from_slice(key))?;
        Some(row)
    }

    /// The catalog's table names in id order (checkpoint encoding).
    pub fn table_names(&self) -> &[String] {
        &self.names
    }

    /// Visit every `(key, row)` of a table in key order without cloning
    /// (checkpointing, verification).
    pub fn for_each_row<F>(&self, table: TableId, mut visit: F)
    where
        F: FnMut(&[u8], &[u8]),
    {
        if let Some(t) = self.tables.get(table as usize) {
            for (k, row) in t.iter() {
                visit(k, row);
            }
        }
    }

    /// Install a copy of a row directly (checkpoint restore); bypasses
    /// transactions.
    pub fn install_row(&mut self, table: TableId, key: impl Into<Key>, row: impl AsRef<[u8]>) {
        let t = self.tables.get_mut(table as usize).expect("install_row into missing table");
        self.mutations += 1;
        t.put(&key.into(), Some(row.as_ref()));
    }

    /// A stable fingerprint of all content (tables, keys, rows) for
    /// primary/replica equivalence checks.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |data: &[u8]| {
            for b in data {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (i, t) in self.tables.iter().enumerate() {
            mix(&(i as u32).to_le_bytes());
            for (k, row) in t.iter() {
                mix(k);
                mix(row);
            }
        }
        h
    }
}

/// Whether `writes` insert `key` into `table`: updating or deleting a row
/// the transaction itself inserts is legal.
fn inserts(writes: &[(TableId, PendingWrite)], table: TableId, key: &Key) -> bool {
    writes.iter().any(|(t, w)| *t == table && matches!(w, PendingWrite::Insert(k, _) if k == key))
}

/// Order-preserving key encoding helpers (big-endian fixed-width fields).
pub mod keys {
    use super::Key;

    /// Append a `u32` big-endian component.
    pub fn push_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a `u64` big-endian component.
    pub fn push_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a fixed-width, zero-padded string component.
    pub fn push_str(out: &mut Vec<u8>, s: &str, width: usize) {
        let bytes = s.as_bytes();
        let take = bytes.len().min(width);
        out.extend_from_slice(&bytes[..take]);
        out.extend(std::iter::repeat_n(0u8, width - take));
    }

    /// Compose a key from `u32` components (stack-built, no allocation for
    /// up to five components).
    pub fn composite(parts: &[u32]) -> Key {
        let mut out = Key::new();
        for p in parts {
            out.push_u32(*p);
        }
        out
    }

    /// The smallest key strictly greater than every key with prefix `p`
    /// (for range scans: `[p, successor(p))`).
    pub fn successor(p: &[u8]) -> Key {
        for i in (0..p.len()).rev() {
            if p[i] != 0xFF {
                let mut out = Key::from_slice(&p[..=i]);
                out.as_mut_slice()[i] += 1;
                return out;
            }
        }
        let mut out = Key::from_slice(p);
        out.push_bytes(&[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn db_with_table() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.create_table("t");
        (db, t)
    }

    #[test]
    fn insert_commit_read_back() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k1".to_vec(), b"v1".to_vec());
        let recs = db.commit(ctx).unwrap();
        assert_eq!(recs.len(), 2, "insert + commit marker");
        assert_eq!(recs.last().unwrap().op, LogOp::Commit);
        let mut ctx2 = db.begin();
        assert_eq!(db.get(&mut ctx2, t, b"k1"), Some(&b"v1"[..]));
        assert_eq!(db.commits(), 1);
    }

    #[test]
    fn read_your_own_writes() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k".to_vec(), b"v0".to_vec());
        assert_eq!(db.get(&mut ctx, t, b"k"), Some(&b"v0"[..]));
        db.update(&mut ctx, t, b"k".to_vec(), b"v1".to_vec());
        assert_eq!(db.get(&mut ctx, t, b"k"), Some(&b"v1"[..]));
        db.delete(&mut ctx, t, b"k".to_vec());
        assert_eq!(db.get(&mut ctx, t, b"k"), None);
    }

    /// A committed row `k`, then a transaction that has read it and is
    /// about to commit an update of it.
    fn reader_of_k() -> (Database, TableId, TxnCtx) {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        db.insert(&mut setup, t, b"k".to_vec(), b"v0".to_vec());
        db.commit(setup).unwrap();
        let mut t1 = db.begin();
        let _ = db.get(&mut t1, t, b"k");
        db.update(&mut t1, t, b"k".to_vec(), b"from-t1".to_vec());
        (db, t, t1)
    }

    #[test]
    #[should_panic(expected = "execution is serial")]
    fn a_commit_inside_an_open_transaction_panics() {
        let (mut db, t, t1) = reader_of_k();
        let mut t2 = db.begin();
        db.update(&mut t2, t, b"k".to_vec(), b"from-t2".to_vec());
        db.commit(t2).unwrap();
        let _ = db.commit(t1);
    }

    #[test]
    #[should_panic(expected = "execution is serial")]
    fn an_apply_record_inside_an_open_transaction_panics() {
        let (mut db, t, t1) = reader_of_k();
        db.apply_record(&LogRecord {
            txn_id: 77,
            op: LogOp::Update,
            table: t,
            key: Key::from_slice(b"k"),
            value: Row::from(*b"redo"),
        });
        let _ = db.commit(t1);
    }

    #[test]
    fn write_to_missing_table_counts_an_abort() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k".to_vec(), b"v".to_vec());
        db.insert(&mut ctx, t + 1, b"k".to_vec(), b"v".to_vec());
        assert_eq!(db.commit(ctx), Err(TxnError::NoSuchTable(t + 1)));
        assert_eq!((db.commits(), db.aborts()), (0, 1));
        assert!(db.peek(t, b"k").is_none(), "nothing applied");
    }

    #[test]
    fn duplicate_insert_rejected_atomically() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        db.insert(&mut setup, t, b"k".to_vec(), b"v".to_vec());
        db.commit(setup).unwrap();

        let mut bad = db.begin();
        db.insert(&mut bad, t, b"fresh".to_vec(), b"x".to_vec());
        db.insert(&mut bad, t, b"k".to_vec(), b"dup".to_vec());
        assert!(matches!(db.commit(bad), Err(TxnError::DuplicateKey(_))));
        // Atomicity: the fresh insert must not have been applied.
        assert!(db.peek(t, b"fresh").is_none());
    }

    #[test]
    fn update_of_missing_key_rejected() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.update(&mut ctx, t, b"ghost".to_vec(), b"v".to_vec());
        assert!(matches!(db.commit(ctx), Err(TxnError::NotFound(_))));
    }

    #[test]
    fn update_of_own_insert_allowed() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k".to_vec(), b"v0".to_vec());
        db.update(&mut ctx, t, b"k".to_vec(), b"v1".to_vec());
        db.commit(ctx).unwrap();
        assert_eq!(db.peek(t, b"k").unwrap(), b"v1");
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        for i in [5u32, 1, 3, 2, 4] {
            db.insert(&mut setup, t, keys::composite(&[i]), vec![i as u8]);
        }
        db.commit(setup).unwrap();
        let rows = db.scan(t, &keys::composite(&[2]), &keys::composite(&[5]), 10);
        let got: Vec<u8> = rows.iter().map(|(_, v)| v[0]).collect();
        assert_eq!(got, vec![2, 3, 4]);
        let limited = db.scan(t, &keys::composite(&[0]), &keys::composite(&[99]), 2);
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn scan_visit_matches_scan() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        for i in 0..10u32 {
            db.insert(&mut setup, t, keys::composite(&[i]), vec![i as u8; 4]);
        }
        db.commit(setup).unwrap();
        let cloned = db.scan(t, &keys::composite(&[2]), &keys::composite(&[8]), 4);
        let mut visited = Vec::new();
        let n = db.scan_visit(t, &keys::composite(&[2]), &keys::composite(&[8]), 4, |k, v| {
            visited.push((k.to_vec(), v.to_vec()))
        });
        assert_eq!(n, cloned.len());
        for ((k1, v1), (k2, v2)) in cloned.iter().zip(&visited) {
            assert_eq!(k1.as_slice(), k2.as_slice());
            assert_eq!(v1.as_slice(), v2.as_slice());
        }
    }

    #[test]
    fn first_and_last_in_range() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        for o in 1..=7u32 {
            db.insert(&mut setup, t, keys::composite(&[1, o]), vec![o as u8]);
        }
        db.insert(&mut setup, t, keys::composite(&[2, 1]), vec![0xFF]);
        db.commit(setup).unwrap();
        let from = keys::composite(&[1]);
        let to = keys::successor(&from);
        let (_, row) = db.last_in_range(t, &from, &to).unwrap();
        assert_eq!(row, [7u8].as_slice());
        let (_, first) = db.first_in_range(t, &from, &to).unwrap();
        assert_eq!(first, [1u8].as_slice());
    }

    #[test]
    fn key_successor_properties() {
        assert_eq!(keys::successor(&[1, 2, 3]), vec![1, 2, 4]);
        assert_eq!(keys::successor(&[1, 0xFF]), vec![2]);
        assert_eq!(keys::successor(&[0xFF, 0xFF]), vec![0xFF, 0xFF, 0]);
        // successor(p) > any key prefixed by p
        let p = vec![9u8, 9];
        let mut extended = p.clone();
        extended.extend_from_slice(&[0xFF; 8]);
        assert!(keys::successor(&p) > extended);
    }

    #[test]
    fn apply_record_replays_committed_state() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"a".to_vec(), b"1".to_vec());
        db.insert(&mut ctx, t, b"b".to_vec(), b"2".to_vec());
        let recs = db.commit(ctx).unwrap();
        let mut ctx2 = db.begin();
        db.delete(&mut ctx2, t, b"a".to_vec());
        let recs2 = db.commit(ctx2).unwrap();

        let mut replica = Database::new();
        replica.create_table("t");
        for r in recs.iter().chain(recs2.iter()) {
            replica.apply_record(r);
        }
        assert_eq!(replica.fingerprint(), db.fingerprint());
        assert!(replica.peek(t, b"a").is_none());
        assert_eq!(replica.peek(t, b"b").unwrap(), b"2");
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        let (mut db1, t) = db_with_table();
        let mut db2 = Database::new();
        db2.create_table("t");
        assert_eq!(db1.fingerprint(), db2.fingerprint());
        let mut ctx = db1.begin();
        db1.insert(&mut ctx, t, b"x".to_vec(), b"y".to_vec());
        db1.commit(ctx).unwrap();
        assert_ne!(db1.fingerprint(), db2.fingerprint());
    }

    #[test]
    fn contexts_are_recycled() {
        let (mut db, t) = db_with_table();
        for i in 0..5u32 {
            let mut ctx = db.begin();
            db.insert(&mut ctx, t, keys::composite(&[i]), vec![1u8]);
            db.commit(ctx).unwrap();
        }
        // A recycled context must start clean.
        let ctx = db.begin();
        assert!(ctx.writes.is_empty());
        assert_eq!(ctx.id(), 5);
    }

    #[test]
    fn a_record_keeps_its_image_after_its_row_is_overwritten_or_deleted() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k".to_vec(), vec![7u8; 64]);
        let inserted = db.commit(ctx).unwrap();
        let stored = db.peek(t, b"k").unwrap().as_ptr();
        assert_ne!(inserted[0].value.as_ptr(), stored, "the table holds a copy of its own");
        let mut ctx = db.begin();
        db.update(&mut ctx, t, b"k".to_vec(), vec![8u8; 64]);
        let updated = db.commit(ctx).unwrap();
        assert_ne!(updated[0].value.as_ptr(), db.peek(t, b"k").unwrap().as_ptr());
        assert_eq!(db.peek(t, b"k").unwrap(), [8u8; 64]);
        let mut ctx = db.begin();
        db.delete(&mut ctx, t, b"k".to_vec());
        db.commit(ctx).unwrap();
        assert!(db.peek(t, b"k").is_none());
        assert_eq!(inserted[0].value.as_slice(), [7u8; 64], "the insert's record, after both");
        assert_eq!(updated[0].value.as_slice(), [8u8; 64], "the update's record, after the delete");
    }

    // ---- serial schedules and install against the reference models ------
    //
    // The references are the same engine with a switch set:
    // `two_pass_commit` finds every row a commit writes twice, as before
    // the undo list; `descend_always` keeps no position and no hint, so
    // every read and every write descends from the root. All three run the
    // same serial schedule of transactions and foreign installs; every
    // observable result must agree.

    #[derive(Debug, Clone)]
    enum Step {
        Begin,
        Get(TableId, Vec<u8>),
        Scan(TableId, Vec<u8>, Vec<u8>, usize),
        First(TableId, Vec<u8>, Vec<u8>),
        Last(TableId, Vec<u8>, Vec<u8>),
        Insert(TableId, Vec<u8>, u8),
        Update(TableId, Vec<u8>, u8),
        Delete(TableId, Vec<u8>),
        Commit,
        Rollback,
        /// A foreign committed record (replica redo) with its own txn id.
        Apply(LogOp, TableId, Vec<u8>, u8, u64),
        Install(TableId, Vec<u8>, u8),
    }

    const MODEL_TABLES: TableId = 2;

    /// The engine under test, or one of its references.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Engine {
        Positioned,
        TwoPass,
        Descending,
    }

    /// Run `steps` — at most one transaction open at a time — and return
    /// every observable result in order, then the database for the
    /// end-state comparison.
    fn run_steps(steps: &[Step], engine: Engine) -> (Vec<String>, Database) {
        let mut db = Database::new();
        db.two_pass_commit = engine == Engine::TwoPass;
        db.descend_always = engine == Engine::Descending;
        for i in 0..MODEL_TABLES {
            db.create_table(&format!("t{i}"));
        }
        let mut open: Option<TxnCtx> = None;
        let mut trace = Vec::new();
        for step in steps {
            match step.clone() {
                Step::Begin => {
                    assert!(open.is_none(), "one transaction at a time");
                    open = Some(db.begin());
                }
                Step::Get(t, k) => {
                    let ctx = open.as_mut().expect("open");
                    trace.push(format!("get {:?}", db.get(ctx, t, &k)));
                }
                Step::Scan(t, from, to, limit) => {
                    trace.push(format!("scan {:?}", db.scan(t, &from, &to, limit)));
                }
                Step::First(t, from, to) => {
                    trace.push(format!("first {:?}", db.first_in_range(t, &from, &to)));
                }
                Step::Last(t, from, to) => {
                    trace.push(format!("last {:?}", db.last_in_range(t, &from, &to)));
                }
                Step::Insert(t, k, v) => db.insert(open.as_mut().expect("open"), t, k, [v]),
                Step::Update(t, k, v) => db.update(open.as_mut().expect("open"), t, k, [v]),
                Step::Delete(t, k) => db.delete(open.as_mut().expect("open"), t, k),
                Step::Commit => {
                    let ctx = open.take().expect("open");
                    trace.push(format!("commit {:?}", db.commit(ctx)));
                }
                Step::Rollback => db.rollback(open.take().expect("open")),
                Step::Apply(op, table, k, v, txn_id) => {
                    let value = if op == LogOp::Delete { Row::new() } else { Row::from([v]) };
                    db.apply_record(&LogRecord { txn_id, op, table, key: Key::from(k), value });
                }
                Step::Install(t, k, v) => db.install_row(t, k, [v]),
            }
        }
        (trace, db)
    }

    /// `(table, key, row)`.
    type RowState = (usize, Vec<u8>, Vec<u8>);

    /// Every row of every table, then the commit and abort counts.
    fn state(db: &Database) -> (Vec<RowState>, [u64; 2]) {
        let rows = db
            .tables
            .iter()
            .enumerate()
            .flat_map(|(i, t)| t.iter().map(move |(k, v)| (i, k.to_vec(), v.to_vec())));
        (rows.collect(), [db.commits, db.aborts])
    }

    /// Run on all three engines, compare everything observable (rows,
    /// counts, every read, and each commit's records or error), return
    /// the trace and the engine under test.
    fn check_against_reference(steps: &[Step]) -> (Vec<String>, Database) {
        let (trace, db) = run_steps(steps, Engine::Positioned);
        for reference in [Engine::TwoPass, Engine::Descending] {
            let (ref_trace, ref_db) = run_steps(steps, reference);
            assert_eq!(trace, ref_trace, "{reference:?}, schedule: {steps:#?}");
            assert_eq!(state(&db), state(&ref_db), "{reference:?}, schedule: {steps:#?}");
            assert_eq!(ref_db.positioned_writes(), 0, "{reference:?} installs no write in place");
        }
        (trace, db)
    }

    /// The 16-key space: `[n]` and `[n, 0]` for n < 8, so neighbours differ
    /// only in a trailing zero and ranges cut between them.
    fn model_key(i: u64) -> Vec<u8> {
        let n = (i / 2) as u8;
        if i & 1 == 0 {
            vec![n]
        } else {
            vec![n, 0]
        }
    }

    /// A seeded serial schedule: one transaction at a time, with foreign
    /// `apply_record` / `install_row` calls landing only between them.
    fn random_schedule(seed: u64) -> Vec<Step> {
        let mut rng = simkit::DetRng::new(seed);
        let mut open = false;
        let mut steps = Vec::new();
        for i in 0..8 {
            steps.push(Step::Install(rng.uniform(0, 1) as TableId, model_key(2 * i + 1), 0));
        }
        for n in 0..rng.uniform(40, 160) {
            let t = rng.uniform(0, MODEL_TABLES as u64 - 1) as TableId;
            let k = model_key(rng.uniform(0, 15));
            let v = rng.uniform(1, 255) as u8;
            if !open {
                if rng.chance(0.3) {
                    let op =
                        *rng.pick(&[LogOp::Insert, LogOp::Update, LogOp::Delete, LogOp::Commit]);
                    steps.push(Step::Apply(op, t, k, v, 1_000_000 + n));
                } else if rng.chance(0.1) {
                    steps.push(Step::Install(t, k, v));
                } else {
                    open = true;
                    steps.push(Step::Begin);
                }
                continue;
            }
            let (a, b) = (rng.uniform(0, 15), rng.uniform(0, 15));
            let (from, to) = (model_key(a.min(b)), model_key(a.max(b)));
            steps.push(match rng.uniform(0, 11) {
                0..=2 => Step::Get(t, k),
                3 => Step::Scan(t, from, to, rng.uniform(0, 5) as usize),
                4 => Step::First(t, from, to),
                5 => Step::Last(t, from, to),
                6 => Step::Insert(t, k, v),
                7 => Step::Update(t, k, v),
                8 => Step::Delete(t, k),
                9 | 10 => {
                    open = false;
                    Step::Commit
                }
                _ => {
                    open = false;
                    Step::Rollback
                }
            });
        }
        if open {
            steps.push(Step::Commit);
        }
        steps
    }

    #[test]
    fn serial_schedules_match_the_two_pass_reference() {
        let (mut committed, mut failed, mut hints) = (0, 0, HintCounts::default());
        for seed in 0..400u64 {
            let (trace, db) = check_against_reference(&random_schedule(0xC0FFEE + seed));
            for line in trace {
                committed += usize::from(line.starts_with("commit Ok"));
                failed += usize::from(line.starts_with("commit Err"));
            }
            hints = hints + db.index_hints();
        }
        // The schedules must actually exercise both outcomes, and every
        // branch of a hint probe: it held its key, its slot went stale, its
        // tag missed.
        assert!(committed > 2000 && failed > 1000, "{committed} committed, {failed} failed");
        assert!(hints.hits > 500 && hints.stale > 100 && hints.misses > 500, "{hints:?}");
    }

    /// One transaction of `writes`, with rows `[0]` and `[1, 0]` in table 0
    /// before it: its commit's outcome, and the write probes of the
    /// one-descent commit and of the two-pass reference.
    fn write_set_case(writes: Vec<Step>) -> (String, u64, u64) {
        let mut steps = vec![Step::Install(0, model_key(0), 9), Step::Install(0, model_key(3), 9)];
        steps.push(Step::Begin);
        steps.extend(writes);
        steps.push(Step::Commit);
        let (trace, _) = check_against_reference(&steps);
        let probes = |engine| run_steps(&steps, engine).1.write_probes();
        (
            trace.last().expect("a commit").clone(),
            probes(Engine::Positioned),
            probes(Engine::TwoPass),
        )
    }

    #[test]
    fn one_descent_commit_matches_the_two_pass_reference_on_named_write_sets() {
        let (pre, pre2, absent) = (model_key(0), model_key(3), model_key(4));
        let err = |e: TxnError| format!("commit {:?}", Err::<Vec<LogRecord>, _>(e));
        let key = |k: &[u8]| Key::from_slice(k);
        let cases = [
            // Delete then Insert of a pre-existing key: the key existed
            // before the commit, so the Insert is a duplicate.
            (
                vec![Step::Delete(0, pre.clone()), Step::Insert(0, pre.clone(), 1)],
                Some(err(TxnError::DuplicateKey(key(&pre)))),
            ),
            // Insert twice of an absent key: both install, the second wins.
            (vec![Step::Insert(0, absent.clone(), 1), Step::Insert(0, absent.clone(), 2)], None),
            // Insert of a pre-existing key after an unrelated install.
            (
                vec![Step::Insert(1, absent.clone(), 1), Step::Insert(0, pre2.clone(), 2)],
                Some(err(TxnError::DuplicateKey(key(&pre2)))),
            ),
            // An Update whose own Insert comes later, then a Delete of it.
            (
                vec![
                    Step::Update(0, absent.clone(), 1),
                    Step::Insert(0, absent.clone(), 2),
                    Step::Delete(0, absent.clone()),
                    Step::Update(0, absent.clone(), 3),
                ],
                None,
            ),
            // An Update of a missing key, after writes that must be undone.
            (
                vec![
                    Step::Update(0, pre.clone(), 1),
                    Step::Delete(0, pre2.clone()),
                    Step::Insert(0, absent.clone(), 2),
                    Step::Update(1, absent.clone(), 3),
                ],
                Some(err(TxnError::NotFound(key(&absent)))),
            ),
            // A Delete of a key only the other table inserts.
            (
                vec![Step::Insert(1, absent.clone(), 1), Step::Delete(0, absent.clone())],
                Some(err(TxnError::NotFound(key(&absent)))),
            ),
            // An unknown table after installed writes.
            (
                vec![Step::Delete(0, pre.clone()), Step::Insert(MODEL_TABLES, pre.clone(), 1)],
                Some(err(TxnError::NoSuchTable(MODEL_TABLES))),
            ),
        ];
        for (writes, expect) in cases {
            let n = writes.len() as u64;
            let (outcome, probes, two_pass_probes) = write_set_case(writes.clone());
            match expect {
                Some(expect) => assert_eq!(outcome, expect, "{writes:?}"),
                None => {
                    assert!(outcome.starts_with("commit Ok"), "{writes:?}: {outcome}");
                    assert_eq!(probes, n, "one descent per written row");
                    assert_eq!(two_pass_probes, 2 * n, "the reference finds each row twice");
                }
            }
        }
    }

    /// A seeded run of write-only transactions over a four-key space (so
    /// keys repeat inside a write set), both tables and, now and then, an
    /// unknown table id.
    fn random_write_sets(seed: u64) -> Vec<Step> {
        let mut rng = simkit::DetRng::new(seed);
        let mut steps = Vec::new();
        for i in 0..4 {
            if rng.chance(0.5) {
                steps.push(Step::Install(rng.uniform(0, 1) as TableId, model_key(i), 0));
            }
        }
        for _ in 0..rng.uniform(2, 8) {
            steps.push(Step::Begin);
            for _ in 0..rng.uniform(1, 8) {
                let t = if rng.chance(0.03) { MODEL_TABLES } else { rng.uniform(0, 1) as TableId };
                let k = model_key(rng.uniform(0, 3));
                let v = rng.uniform(1, 255) as u8;
                steps.push(match rng.uniform(0, 2) {
                    0 => Step::Insert(t, k, v),
                    1 => Step::Update(t, k, v),
                    _ => Step::Delete(t, k),
                });
            }
            steps.push(Step::Commit);
        }
        steps
    }

    #[test]
    fn one_descent_commit_matches_the_two_pass_reference_on_random_write_sets() {
        let mut outcomes = BTreeMap::<String, usize>::new();
        for seed in 0..1500u64 {
            for line in check_against_reference(&random_write_sets(0x0DE5_CE00 + seed)).0 {
                let kind = match line.strip_prefix("commit Err(") {
                    Some(err) => err.split('(').next().unwrap_or(err),
                    None => "Ok",
                };
                *outcomes.entry(kind.to_string()).or_default() += 1;
            }
        }
        // Every outcome must actually occur, each many times.
        for kind in ["Ok", "DuplicateKey", "NotFound", "NoSuchTable"] {
            assert!(outcomes.get(kind).is_some_and(|n| *n > 100), "{outcomes:?}");
        }
    }

    /// A seeded schedule over 64 keys a table, the even ones there before
    /// it starts, whose transactions read rows and then update them (a
    /// `Get` and an `Update` of one key) among inserts of odd keys and
    /// deletes of even ones. An insert or a delete that comes earlier in
    /// the same table, or the split an insert makes, moves an updated row
    /// from the slot its read found by the time the commit installs it.
    fn stale_position_schedule(seed: u64) -> Vec<Step> {
        let mut rng = simkit::DetRng::new(seed);
        let key = |i: u64| keys::composite(&[i as u32]).to_vec();
        let mut steps = Vec::new();
        for t in 0..MODEL_TABLES {
            steps.extend((0..32).map(|i| Step::Install(t, key(2 * i), 0)));
        }
        for _ in 0..rng.uniform(4, 12) {
            steps.push(Step::Begin);
            for _ in 0..rng.uniform(1, 10) {
                let t = rng.uniform(0, MODEL_TABLES as u64 - 1) as TableId;
                let (i, v) = (rng.uniform(0, 31), rng.uniform(1, 255) as u8);
                match rng.uniform(0, 5) {
                    0..=2 => {
                        let k = key(rng.uniform(0, 63));
                        steps.extend([Step::Get(t, k.clone()), Step::Update(t, k, v)]);
                    }
                    3 => steps.push(Step::Insert(t, key(2 * i + 1), v)),
                    4 => steps.push(Step::Delete(t, key(2 * i))),
                    _ => steps.push(Step::Get(t, key(rng.uniform(0, 63)))),
                }
            }
            steps.push(if rng.chance(0.9) { Step::Commit } else { Step::Rollback });
        }
        steps
    }

    #[test]
    fn positioned_installs_match_the_references_when_positions_go_stale() {
        let (mut positioned, mut stale, mut committed) = (0, 0, 0);
        let mut hints = HintCounts::default();
        for seed in 0..300u64 {
            let (trace, db) = check_against_reference(&stale_position_schedule(0x5A1E + seed));
            db.tables.iter().for_each(Table::check);
            committed += trace.iter().filter(|l| l.starts_with("commit Ok")).count();
            (positioned, stale) = (positioned + db.positioned_writes, stale + db.stale_positions);
            hints = hints + db.index_hints();
        }
        // Both branches must actually run, each many times: an update
        // installed at its read's slot, and one whose slot went stale; and
        // so must each branch of a hint probe.
        assert!(hints.hits > 500 && hints.stale > 100 && hints.misses > 500, "{hints:?}");
        assert!(
            positioned > 500 && stale > 100 && committed > 400,
            "{positioned} positioned, {stale} stale, {committed} committed"
        );
    }
}
