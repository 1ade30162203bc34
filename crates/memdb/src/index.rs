//! The ordered index a [`crate::storage::Table`] keeps its rows in: a B+tree
//! whose appends fill its leaves.
//!
//! Nodes hold up to [`CAP`] (11) keys, as `std`'s B-tree does, and are
//! searched linearly with the key's own `Ord` (for a [`crate::SmallKey`],
//! three word compares). What differs from `std` is where a full node
//! splits: at the insertion point when the new entry lands at the node's end
//! or right after the node's previous insert, and in the middle otherwise.
//! TPC-C's order lines, orders and new-orders arrive as one ascending run
//! per district, 64 runs interleaved; a middle split leaves each run's
//! leaves about 6/11 full, this rule about 11/11 (PostgreSQL's nbtree
//! "split after new tuple" heuristic does the same for the same keys).
//!
//! Leaves are linked both ways, so a range walks the leaf chain from either
//! end after one descent per end. A leaf that empties is unlinked and goes
//! to the free list, where the next split takes it (there is no merging);
//! an inner node that loses its last child goes with it, and a root with one
//! child hands the root down. [`Index::edit`] finds a key once and lets its
//! caller read, replace, insert or remove the entry in that one descent.
//!
//! A lookup answers with the entry's [`Pos`], its leaf and slot, and a
//! later lookup or edit may start there. A position is a hint, never a
//! handle: keys are unique and every leaf that holds a key is on the chain,
//! so one compare of the key at the remembered slot proves the entry is
//! still there, and a position that inserts, removals or splits have made
//! stale falls back to a descent from the root. Nothing invalidates one.
//!
//! The first point read also gives the index a hint array: a direct-mapped
//! table from a key's hash to the position a lookup last found the key at,
//! with 24 bits of the hash as a tag. [`Index::find`], [`Index::find_from`]
//! and [`Index::edit`] probe it before any descent and check the hint as
//! they check a position, by one key compare ([`Index::edit_vacant`], an
//! insert's edit, skips the probe); a lookup that finds its key
//! by other means writes it back. A hint made stale by a shifted slot, a
//! split or a freed and reused leaf fails the tag or the compare and takes
//! the descent, so the hints change how a key is found, never what is
//! found. An index only scanned or appended to allocates no array.
//!
//! Nodes sit in fixed chunks of [`CHUNK`] per node kind, addressed by a
//! `u32` id. A chunk is allocated once at its full size and never grows, so
//! a node never moves, there is no per-node allocation header, and the heap
//! the allocator counts is the memory the process holds (no doubling slack,
//! no reallocation that briefly holds two copies). A debug build runs
//! [`Index::check`] after every split and freed leaf (past 4 096 entries,
//! after every power-of-two-th such change, so a bulk load stays
//! O(n log n)).

use simkit::IntHasher;
use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;

/// Keys per node, as in `std`'s B-tree.
const CAP: usize = 11;
/// Nodes per chunk.
const CHUNK: usize = 64;
/// No leaf: either end of the leaf chain.
const NIL: u32 = u32::MAX;
/// No insert into this node yet.
const NO_INSERT: u8 = u8::MAX;
/// Up to this many entries a debug build checks the whole index after
/// every split and freed leaf.
const CHECK_EVERY_CHANGE_UP_TO: usize = 4096;
/// The hint array holds one slot per entry at the first point read, rounded
/// up to a power of two, and at least and at most these many. Two slots an
/// entry served 94 % of `ycsb_nvme`'s lookups against one slot's 87 %, and
/// cost its live heap a byte per commit more than `alloc_budget` allows.
const HINTS_MIN: usize = 1 << 10;
const HINTS_MAX: usize = 1 << 16;
/// A hint word keeps its key's tag, the top bits of the key's hash, above
/// this bit; the slot sits in the byte below it and the leaf in the low
/// 32 bits.
const TAG_SHIFT: u32 = 40;

struct Leaf<K, V> {
    /// `keys[..len]` ascend strictly; the slots beyond hold defaults.
    keys: [K; CAP],
    vals: [V; CAP],
    len: u8,
    /// The slot the last insert into this leaf landed in.
    last_insert: u8,
    prev: u32,
    next: u32,
}

struct Inner<K> {
    /// `keys[i]` separates `children[i]` (keys below it) from
    /// `children[i + 1]` (keys at or above it); `len - 1` are in use.
    keys: [K; CAP],
    children: [u32; CAP + 1],
    /// Children in use.
    len: u8,
    /// The separator slot the last insert into this node landed in.
    last_insert: u8,
}

impl<K: Default, V: Default> Leaf<K, V> {
    fn new() -> Self {
        Leaf {
            keys: std::array::from_fn(|_| K::default()),
            vals: std::array::from_fn(|_| V::default()),
            len: 0,
            last_insert: NO_INSERT,
            prev: NIL,
            next: NIL,
        }
    }

    fn keys(&self) -> &[K] {
        &self.keys[..self.len as usize]
    }
}

impl<K: Ord + Default> Inner<K> {
    fn new() -> Self {
        Inner {
            keys: std::array::from_fn(|_| K::default()),
            children: [NIL; CAP + 1],
            len: 0,
            last_insert: NO_INSERT,
        }
    }

    /// The slot of the child whose subtree holds `key`: the number of
    /// separators at or below it.
    fn slot_for(&self, key: &K) -> usize {
        let (i, found) = search(&self.keys[..self.len as usize - 1], key);
        i + usize::from(found)
    }
}

/// The first position in `keys` not below `key`, and whether it holds `key`.
#[inline]
fn search<K: Ord>(keys: &[K], key: &K) -> (usize, bool) {
    for (i, k) in keys.iter().enumerate() {
        match key.cmp(k) {
            Ordering::Greater => {}
            Ordering::Equal => return (i, true),
            Ordering::Less => return (i, false),
        }
    }
    (keys.len(), false)
}

/// Put `x` at `at` in `slots`, whose last slot is a spare, shifting the
/// rest one up.
fn insert_at<T>(slots: &mut [T], at: usize, x: T) {
    slots[at..].rotate_right(1);
    slots[at] = x;
}

/// Take the item at `at` out of `slots[..len]`, shifting the rest one down
/// and leaving a default in the freed last slot.
fn remove_at<T: Default>(slots: &mut [T], at: usize, len: usize) -> T {
    let x = mem::take(&mut slots[at]);
    slots[at..len].rotate_left(1);
    x
}

/// Two distinct items of one slice, both mutable.
fn pair<T>(items: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = items.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = items.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// The nodes of one kind, in chunks of [`CHUNK`]: node `id` is item
/// `id % CHUNK` of chunk `id / CHUNK`.
struct Nodes<T> {
    /// Each allocated with room for [`CHUNK`] nodes and filled up to it.
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Nodes<T> {
    fn new() -> Self {
        Nodes { chunks: Vec::new(), len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Add `node`; returns its id.
    fn push(&mut self, node: T) -> u32 {
        let id = self.len;
        if id.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[id / CHUNK].push(node);
        self.len += 1;
        id as u32
    }

    /// Node `id`, if there is one.
    fn get(&self, id: u32) -> Option<&T> {
        let id = id as usize;
        self.chunks.get(id / CHUNK)?.get(id % CHUNK)
    }

    /// Two distinct nodes, both mutable.
    fn pair(&mut self, a: u32, b: u32) -> (&mut T, &mut T) {
        let (a, b) = (a as usize, b as usize);
        if a / CHUNK == b / CHUNK {
            return pair(&mut self.chunks[a / CHUNK], a % CHUNK, b % CHUNK);
        }
        let (l, r) = pair(&mut self.chunks, a / CHUNK, b / CHUNK);
        (&mut l[a % CHUNK], &mut r[b % CHUNK])
    }
}

impl<T> std::ops::Index<u32> for Nodes<T> {
    type Output = T;

    #[inline]
    fn index(&self, id: u32) -> &T {
        let id = id as usize;
        &self.chunks[id / CHUNK][id % CHUNK]
    }
}

impl<T> std::ops::IndexMut<u32> for Nodes<T> {
    #[inline]
    fn index_mut(&mut self, id: u32) -> &mut T {
        let id = id as usize;
        &mut self.chunks[id / CHUNK][id % CHUNK]
    }
}

/// Where a full node splits for an insert landing at `at`: at `at` itself
/// at the node's end and right after its previous insert, so the new entry
/// ends the left half (an ascending run keeps filling the left half and
/// leaves the right one full); in the middle anywhere else. A leaf keeps
/// the entries below the point; an inner node sends the separator at the
/// point up.
fn split_point(at: usize, last_insert: u8) -> usize {
    if at == CAP || at == last_insert as usize + 1 {
        at
    } else {
        CAP / 2
    }
}

/// What an edit of a subtree asks of the subtree's parent.
enum Change<K> {
    None,
    /// The child split: the separator and the new right sibling.
    Split(K, u32),
    /// The child emptied and was freed: drop its edge.
    Emptied,
}

/// Where a lookup found an entry: its leaf and its slot there. A hint for
/// [`Index::find_from`] and [`Index::edit`], checked against the key on
/// use (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    leaf: u32,
    slot: u8,
}

/// How the hint probes of an [`Index`] went (see the module doc).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HintCounts {
    /// The hint held its key: answered with no descent.
    pub hits: u64,
    /// The tag matched but the slot no longer held the key.
    pub stale: u64,
    /// The tag did not match: no hint for the key, or another key's.
    pub misses: u64,
}

impl std::ops::Add for HintCounts {
    type Output = HintCounts;

    fn add(self, o: HintCounts) -> HintCounts {
        HintCounts {
            hits: self.hits + o.hits,
            stale: self.stale + o.stale,
            misses: self.misses + o.misses,
        }
    }
}

/// `key`'s hash: the hint slot is picked by its low bits, the tag is its
/// top bits. [`IntHasher`] has no per-process key, so every run probes the
/// same slots.
fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = IntHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Hint slot `hash` picks, if the array has any.
fn hint_slot(hints: &[Cell<u64>], hash: u64) -> Option<&Cell<u64>> {
    hints.get(hash as usize & hints.len().wrapping_sub(1))
}

/// Remember that `hash`'s key sits at `pos`.
fn fill(hints: &[Cell<u64>], hash: u64, pos: Pos) {
    if let Some(slot) = hint_slot(hints, hash) {
        let tag = hash >> TAG_SHIFT << TAG_SHIFT;
        slot.set(tag | u64::from(pos.slot) << 32 | u64::from(pos.leaf));
    }
}

/// An ordered map from `K` to `V` (see the module doc).
pub struct Index<K, V> {
    leaves: Nodes<Leaf<K, V>>,
    inners: Nodes<Inner<K>>,
    free_leaves: Vec<u32>,
    free_inners: Vec<u32>,
    /// A leaf when `height` is 0, an inner node above.
    root: u32,
    height: usize,
    /// The ends of the leaf chain.
    head: u32,
    tail: u32,
    len: usize,
    /// The inner nodes and child slots of the current edit's descent, so a
    /// split or a freed leaf climbs back without a second one (kept to
    /// reuse its buffer).
    path: Vec<(u32, usize)>,
    /// Splits and freed leaves so far (the debug check's cadence).
    changes: u64,
    /// Debug checks run by edits so far.
    checks: u64,
    /// Descents from the root so far (cells: lookups count through `&self`).
    descents: Cell<u64>,
    /// Nodes those descents and the positioned lookups and edits visited.
    node_visits: Cell<u64>,
    /// The hint array, allocated by the first point read: a word per slot,
    /// see [`fill`].
    hints: OnceCell<Box<[Cell<u64>]>>,
    hint_counts: Cell<HintCounts>,
}

impl<K: Ord + Clone + Default + Hash, V: Default> Default for Index<K, V> {
    fn default() -> Self {
        Index::new()
    }
}

impl<K: Ord + Clone + Default + Hash, V: Default> Index<K, V> {
    /// An empty index: one empty root leaf.
    pub fn new() -> Self {
        let mut leaves = Nodes::new();
        leaves.push(Leaf::new());
        Index {
            leaves,
            inners: Nodes::new(),
            free_leaves: Vec::new(),
            free_inners: Vec::new(),
            root: 0,
            height: 0,
            head: 0,
            tail: 0,
            len: 0,
            path: Vec::new(),
            changes: 0,
            checks: 0,
            descents: Cell::new(0),
            node_visits: Cell::new(0),
            hints: OnceCell::new(),
            hint_counts: Cell::new(HintCounts::default()),
        }
    }

    /// Give the index a hint array of `slots` slots (a power of two) now;
    /// with 0 it keeps none and every lookup descends.
    #[cfg(test)]
    pub(crate) fn set_hint_slots(&mut self, slots: usize) {
        assert!(slots == 0 || slots.is_power_of_two());
        self.hints = OnceCell::from((0..slots).map(|_| Cell::new(0)).collect::<Box<[_]>>());
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries per leaf slot over the leaves in use: 1.0 when every leaf
    /// holds its 11.
    pub fn leaf_fill(&self) -> f64 {
        let leaves = self.leaves.len() - self.free_leaves.len();
        self.len as f64 / (leaves * CAP) as f64
    }

    /// Descents from the root so far: lookups, range ends and edits that
    /// no position answered.
    pub fn descents(&self) -> u64 {
        self.descents.get()
    }

    /// Nodes visited so far: every node of every descent, and each leaf a
    /// position pointed a lookup or an edit at.
    pub fn node_visits(&self) -> u64 {
        self.node_visits.get()
    }

    /// How the hint probes have gone so far.
    pub fn hint_counts(&self) -> HintCounts {
        self.hint_counts.get()
    }

    fn visit(&self, nodes: u64) {
        self.node_visits.set(self.node_visits.get() + nodes);
    }

    /// Count one descent from the root.
    fn descended(&self) {
        self.descents.set(self.descents.get() + 1);
        self.visit(self.height as u64 + 1);
    }

    /// The leaf whose key range holds `key` (uncounted: the debug checks
    /// call it too).
    #[inline]
    fn leaf_for(&self, key: &K) -> u32 {
        let mut id = self.root;
        for _ in 0..self.height {
            let node = &self.inners[id];
            id = node.children[node.slot_for(key)];
        }
        id
    }

    /// `key`'s entry in leaf `id`, with its position.
    fn find_in(&self, id: u32, key: &K) -> Option<(Pos, &V)> {
        let leaf = &self.leaves[id];
        match search(leaf.keys(), key) {
            (i, true) => Some((Pos { leaf: id, slot: i as u8 }, &leaf.vals[i])),
            _ => None,
        }
    }

    /// The value stored under `key`, and where it sits: from the key's
    /// hint when it holds the key, else by a descent.
    pub fn find(&self, key: &K) -> Option<(Pos, &V)> {
        let (hints, hash) = (self.hint_array(), hash_of(key));
        if let Some(pos) = self.hinted(hints, hash, key) {
            return Some(self.entry(pos));
        }
        self.find_descending(hints, hash, key)
    }

    /// [`Index::find`], answered without a descent when the key's hint
    /// holds it, or when `key` lies between the first and last keys of
    /// `pos`'s leaf or of the next leaf on the chain (a key between the two
    /// is absent); any other key descends. `pos` may be stale: only the
    /// keys the leaves hold now decide.
    pub fn find_from(&self, pos: Pos, key: &K) -> Option<(Pos, &V)> {
        let (hints, hash) = (self.hint_array(), hash_of(key));
        if let Some(pos) = self.hinted(hints, hash, key) {
            return Some(self.entry(pos));
        }
        // A leaf with no key is free (or the empty root), and the tail's
        // `next` is `NIL`, no leaf: both descend.
        let mut id = pos.leaf;
        for step in 0..2 {
            let Some(leaf) = self.leaves.get(id) else { break };
            let (Some(first), Some(last)) = (leaf.keys().first(), leaf.keys().last()) else {
                break;
            };
            self.visit(1);
            if key > last {
                id = leaf.next;
            } else if key >= first {
                let found = self.find_in(id, key);
                if let Some((pos, _)) = found {
                    fill(hints, hash, pos);
                }
                return found;
            } else if step == 1 {
                // Past the last key of the leaf before, short of this one's
                // first: the leaves are neighbours, so the key is absent.
                return None;
            } else {
                break;
            }
        }
        self.find_descending(hints, hash, key)
    }

    /// The entry at `pos`, which holds one.
    fn entry(&self, pos: Pos) -> (Pos, &V) {
        (pos, &self.leaves[pos.leaf].vals[pos.slot as usize])
    }

    /// `key`'s entry by a descent, remembered in its hint when found.
    fn find_descending(&self, hints: &[Cell<u64>], hash: u64, key: &K) -> Option<(Pos, &V)> {
        self.descended();
        let found = self.find_in(self.leaf_for(key), key);
        if let Some((pos, _)) = found {
            fill(hints, hash, pos);
        }
        found
    }

    /// The hint array, allocated now if this is the first point read: one
    /// slot per entry, rounded up to a power of two, within
    /// [`HINTS_MIN`]..=[`HINTS_MAX`].
    fn hint_array(&self) -> &[Cell<u64>] {
        self.hints.get_or_init(|| {
            let slots = self.len.next_power_of_two().clamp(HINTS_MIN, HINTS_MAX);
            (0..slots).map(|_| Cell::new(0)).collect()
        })
    }

    /// Where `key`'s hint says it is, when its tag matches and the slot
    /// holds the key now (counted either way).
    #[inline]
    fn hinted(&self, hints: &[Cell<u64>], hash: u64, key: &K) -> Option<Pos> {
        let word = hint_slot(hints, hash)?.get();
        let mut counts = self.hint_counts.get();
        let held = if word >> TAG_SHIFT != hash >> TAG_SHIFT {
            counts.misses += 1;
            None
        } else {
            self.visit(1);
            let pos = Pos { leaf: word as u32, slot: (word >> 32) as u8 };
            let held = self.holds(pos, key).then_some(pos);
            match held {
                Some(pos) => {
                    counts.hits += 1;
                    debug_assert_eq!(
                        self.leaf_for(key),
                        pos.leaf,
                        "index: a hint holds its key but the tree leads elsewhere"
                    );
                }
                None => counts.stale += 1,
            }
            held
        };
        self.hint_counts.set(counts);
        held
    }

    /// Whether `pos` holds `key`'s entry now: its leaf holds a key in that
    /// slot, and it is `key`. Keys are unique, so that is where `key` is.
    fn holds(&self, pos: Pos, key: &K) -> bool {
        self.leaves
            .get(pos.leaf)
            .is_some_and(|leaf| pos.slot < leaf.len && leaf.keys[pos.slot as usize] == *key)
    }

    /// Find `key` once and hand its entry to `f` as a slot: `Some` with the
    /// stored value when the key is present, `None` when it is not. What
    /// `f` leaves in the slot is stored: a value in a vacant slot inserts
    /// (the key is cloned in), an emptied slot removes the entry. Returns
    /// what `f` returns.
    ///
    /// With `at` a position that still holds `key`, or else with the key's
    /// hint holding it, a value `f` leaves is stored in place with no
    /// descent; a removal, and a key neither holds (stale, or the key is
    /// absent), descend as without them. A descent that finds the key and
    /// keeps it remembers it in its hint.
    pub fn edit<R>(&mut self, at: Option<Pos>, key: &K, f: impl FnOnce(&mut Option<V>) -> R) -> R {
        // The hash, once a probe of the hint array (if there is one) took it.
        let mut hash = None;
        let held = match at.filter(|pos| self.holds(*pos, key)) {
            Some(pos) => {
                debug_assert_eq!(
                    self.leaf_for(key),
                    pos.leaf,
                    "index: a position holds its key but the tree leads elsewhere"
                );
                self.visit(1);
                Some(pos)
            }
            None => self.hints.get().and_then(|hints| {
                let h = *hash.insert(hash_of(key));
                self.hinted(hints, h, key)
            }),
        };
        if let Some(pos) = held {
            let (id, at) = (pos.leaf, pos.slot as usize);
            let mut slot = Some(mem::take(&mut self.leaves[id].vals[at]));
            let r = f(&mut slot);
            match slot {
                Some(value) => self.leaves[id].vals[at] = value,
                None => {
                    let changes = self.changes;
                    let id = self.descend(key);
                    let change = self.leaf_remove(id, at);
                    self.climb(changes, change);
                }
            }
            return r;
        }
        self.edit_descending(hash, key, f)
    }

    /// [`Index::edit`] for a key its caller expects to be absent (an
    /// insert): no position or hint can hold it, so it descends without
    /// probing the hint array.
    pub fn edit_vacant<R>(&mut self, key: &K, f: impl FnOnce(&mut Option<V>) -> R) -> R {
        self.edit_descending(None, key, f)
    }

    /// [`Index::edit`]'s descent, with `key`'s hash if a probe took it.
    fn edit_descending<R>(
        &mut self,
        hash: Option<u64>,
        key: &K,
        f: impl FnOnce(&mut Option<V>) -> R,
    ) -> R {
        let changes = self.changes;
        let id = self.descend(key);
        let leaf = &mut self.leaves[id];
        let (at, found) = search(leaf.keys(), key);
        let mut slot = if found { Some(mem::take(&mut leaf.vals[at])) } else { None };
        let r = f(&mut slot);
        let change = match slot {
            Some(value) if found => {
                leaf.vals[at] = value;
                if let Some(hints) = self.hints.get() {
                    let hash = hash.unwrap_or_else(|| hash_of(key));
                    fill(hints, hash, Pos { leaf: id, slot: at as u8 });
                }
                Change::None
            }
            Some(value) => self.leaf_insert(id, at, key.clone(), value),
            None if found => self.leaf_remove(id, at),
            None => Change::None,
        };
        self.climb(changes, change);
        r
    }

    /// Descend to `key`'s leaf, keeping the inner nodes and child slots on
    /// the way in `path`; returns the leaf.
    fn descend(&mut self, key: &K) -> u32 {
        self.descended();
        self.path.clear();
        let mut id = self.root;
        for _ in 0..self.height {
            let node = &self.inners[id];
            let slot = node.slot_for(key);
            self.path.push((id, slot));
            id = node.children[slot];
        }
        id
    }

    /// Carry a split or a freed child up the descent's path, then fix the
    /// root and, in a debug build, check the index on its cadence when the
    /// edit split or freed a node (`changes`: the count before it).
    fn climb(&mut self, changes: u64, mut change: Change<K>) {
        while let Some((parent, slot)) = self.path.pop() {
            change = match change {
                Change::None => break,
                Change::Split(separator, right) => {
                    self.inner_insert(parent, slot, separator, right)
                }
                Change::Emptied => self.inner_remove(parent, slot),
            };
        }
        if let Change::Split(separator, right) = change {
            let root = self.alloc_inner();
            let node = &mut self.inners[root];
            node.keys[0] = separator;
            node.children[..2].copy_from_slice(&[self.root, right]);
            node.len = 2;
            node.last_insert = 0;
            self.root = root;
            self.height += 1;
        }
        if self.changes != changes {
            // The root keeps at least two children (so it never empties):
            // one left with a single child hands the root down to it.
            while self.height > 0 && self.inners[self.root].len == 1 {
                let old = self.root;
                self.root = self.inners[old].children[0];
                self.free_inner(old);
                self.height -= 1;
            }
            if cfg!(debug_assertions)
                && (self.len <= CHECK_EVERY_CHANGE_UP_TO || self.changes.is_power_of_two())
            {
                self.check();
                self.checks += 1;
            }
        }
    }

    /// How many times a debug build's edits have run [`Index::check`], so a
    /// caller can check what it keeps beside the index on the same cadence.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Store `value` under `key`; returns the value it replaced.
    #[cfg(test)]
    pub fn insert(&mut self, key: &K, value: V) -> Option<V> {
        self.edit(None, key, |slot| slot.replace(value))
    }

    /// Remove `key`'s entry; returns its value.
    #[cfg(test)]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.edit(None, key, Option::take)
    }

    fn leaf_insert(&mut self, id: u32, at: usize, key: K, value: V) -> Change<K> {
        self.len += 1;
        let leaf = &mut self.leaves[id];
        let n = leaf.len as usize;
        if n < CAP {
            insert_at(&mut leaf.keys[..=n], at, key);
            insert_at(&mut leaf.vals[..=n], at, value);
            leaf.len += 1;
            leaf.last_insert = at as u8;
            return Change::None;
        }
        let t = split_point(at, leaf.last_insert);
        let right = self.alloc_leaf();
        let (l, r) = self.leaves.pair(id, right);
        for (j, i) in (t..CAP).enumerate() {
            mem::swap(&mut l.keys[i], &mut r.keys[j]);
            mem::swap(&mut l.vals[i], &mut r.vals[j]);
        }
        (l.len, r.len) = (t as u8, (CAP - t) as u8);
        let (side, at) = if at < CAP && at <= t { (&mut *l, at) } else { (&mut *r, at - t) };
        let n = side.len as usize;
        insert_at(&mut side.keys[..=n], at, key);
        insert_at(&mut side.vals[..=n], at, value);
        side.len += 1;
        side.last_insert = at as u8;
        (r.prev, r.next, l.next) = (id, l.next, right);
        let (next, separator) = (r.next, r.keys[0].clone());
        match next {
            NIL => self.tail = right,
            next => self.leaves[next].prev = right,
        }
        self.changes += 1;
        Change::Split(separator, right)
    }

    fn leaf_remove(&mut self, id: u32, at: usize) -> Change<K> {
        self.len -= 1;
        let leaf = &mut self.leaves[id];
        let n = leaf.len as usize;
        // The value slot already holds the default `edit` took it for.
        remove_at(&mut leaf.keys, at, n);
        leaf.vals[at..n].rotate_left(1);
        leaf.len -= 1;
        if leaf.last_insert != NO_INSERT && leaf.last_insert as usize >= at {
            leaf.last_insert = leaf.last_insert.wrapping_sub(1);
        }
        if leaf.len > 0 || self.height == 0 {
            return Change::None;
        }
        // Emptied: unlink it and free it.
        let (prev, next) = (leaf.prev, leaf.next);
        (leaf.prev, leaf.next, leaf.last_insert) = (NIL, NIL, NO_INSERT);
        match prev {
            NIL => self.head = next,
            prev => self.leaves[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.leaves[next].prev = prev,
        }
        self.free_leaves.push(id);
        self.changes += 1;
        Change::Emptied
    }

    /// Child `slot` of inner node `id` split off `right`, separated by
    /// `separator`.
    fn inner_insert(&mut self, id: u32, slot: usize, separator: K, right: u32) -> Change<K> {
        let node = &mut self.inners[id];
        let n = node.len as usize;
        if n <= CAP {
            insert_at(&mut node.keys[..n], slot, separator);
            insert_at(&mut node.children[..=n], slot + 1, right);
            node.len += 1;
            node.last_insert = slot as u8;
            return Change::None;
        }
        let sibling = self.alloc_inner();
        let (l, r) = self.inners.pair(id, sibling);
        if slot == CAP {
            // The last child split: this node stays full and the new child
            // starts the sibling, under the new separator.
            r.children[0] = right;
            r.len = 1;
            return Change::Split(separator, sibling);
        }
        // Separator `t` goes up; the separators and children above it move
        // to the sibling; then the new edge goes to its side.
        let t = split_point(slot, l.last_insert);
        for (j, i) in (t + 1..CAP).enumerate() {
            mem::swap(&mut l.keys[i], &mut r.keys[j]);
        }
        r.children[..CAP - t].copy_from_slice(&l.children[t + 1..]);
        let up = mem::take(&mut l.keys[t]);
        (l.len, r.len) = (t as u8 + 1, (CAP - t) as u8);
        let (side, slot) = if slot <= t { (l, slot) } else { (r, slot - t - 1) };
        let n = side.len as usize;
        insert_at(&mut side.keys[..n], slot, separator);
        insert_at(&mut side.children[..=n], slot + 1, right);
        side.len += 1;
        side.last_insert = slot as u8;
        Change::Split(up, sibling)
    }

    /// Child `slot` of inner node `id` emptied and was freed.
    fn inner_remove(&mut self, id: u32, slot: usize) -> Change<K> {
        let node = &mut self.inners[id];
        let n = node.len as usize;
        if n == 1 {
            self.free_inner(id);
            return Change::Emptied;
        }
        // The separator on the child's left goes (for the first child, the
        // one on its right): its range joins a neighbour's.
        let gone = slot.saturating_sub(1);
        remove_at(&mut node.keys, gone, n - 1);
        node.children[slot..n].rotate_left(1);
        node.len -= 1;
        if node.last_insert != NO_INSERT && node.last_insert as usize >= gone {
            node.last_insert = node.last_insert.wrapping_sub(1);
        }
        Change::None
    }

    fn alloc_leaf(&mut self) -> u32 {
        self.free_leaves.pop().unwrap_or_else(|| self.leaves.push(Leaf::new()))
    }

    fn alloc_inner(&mut self) -> u32 {
        self.free_inners.pop().unwrap_or_else(|| self.inners.push(Inner::new()))
    }

    /// Return an inner node with no separators left to the free list.
    fn free_inner(&mut self, id: u32) {
        let node = &mut self.inners[id];
        (node.len, node.last_insert) = (0, NO_INSERT);
        self.free_inners.push(id);
    }

    /// The gap before the first entry not below `key`: the leaf and slot of
    /// that entry, or `(NIL, 0)` past the last one.
    fn gap_before(&self, key: &K) -> (u32, usize) {
        self.descended();
        let id = self.leaf_for(key);
        let leaf = &self.leaves[id];
        match search(leaf.keys(), key).0 {
            at if at < leaf.len as usize => (id, at),
            _ => (leaf.next, 0),
        }
    }

    /// The entries with keys in `[from, to)`, in key order from either end.
    pub fn range(&self, from: &K, to: K) -> Range<'_, K, V> {
        let front = self.gap_before(from);
        let back = (*from >= to).then_some(front);
        Range { index: self, front, back, to }
    }

    /// Every entry, in key order.
    pub fn iter(&self) -> Range<'_, K, V> {
        let front = if self.len == 0 { (NIL, 0) } else { (self.head, 0) };
        Range { index: self, front, back: Some((NIL, 0)), to: K::default() }
    }

    /// The index's invariants: keys ascend strictly along the leaf chain,
    /// `prev` and `next` agree, only a root leaf is empty, every leaf not
    /// on the free list is on the chain, separators bound their subtrees,
    /// the tree reaches exactly the chain's leaves in chain order, and `len`
    /// equals a recount.
    pub fn check(&self) {
        let (mut id, mut from, mut count, mut leaves) = (self.head, NIL, 0usize, 0usize);
        let mut last: Option<&K> = None;
        while id != NIL {
            let leaf = &self.leaves[id];
            assert_eq!(leaf.prev, from, "index: leaf {id}'s prev is not the leaf before it");
            assert!(leaf.len > 0 || self.height == 0, "index: empty leaf {id} on the chain");
            for k in leaf.keys() {
                assert!(
                    last.is_none_or(|l| l < k),
                    "index: keys do not ascend strictly along the leaf chain (leaf {id})"
                );
                last = Some(k);
            }
            (count, leaves) = (count + leaf.len as usize, leaves + 1);
            (from, id) = (id, leaf.next);
        }
        assert_eq!(from, self.tail, "index: the chain does not end at the tail");
        assert_eq!(
            leaves + self.free_leaves.len(),
            self.leaves.len(),
            "index: leaves neither on the chain nor free"
        );
        assert_eq!(self.len, count, "index: len vs a recount of the leaves");
        let mut next_leaf = self.head;
        self.check_subtree(self.root, self.height, None, None, &mut next_leaf);
        assert_eq!(next_leaf, NIL, "index: the tree does not reach the chain's last leaves");
    }

    fn check_subtree(
        &self,
        id: u32,
        height: usize,
        lo: Option<&K>,
        hi: Option<&K>,
        next_leaf: &mut u32,
    ) {
        let within = |k: &K| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
        if height == 0 {
            assert_eq!(id, *next_leaf, "index: the tree and the leaf chain disagree");
            let leaf = &self.leaves[id];
            assert!(leaf.keys().iter().all(within), "index: leaf {id} outside its separators");
            *next_leaf = leaf.next;
            return;
        }
        let node = &self.inners[id];
        let n = node.len as usize;
        // The root keeps two children at least, any other inner node one.
        let least = if height == self.height { 2 } else { 1 };
        assert!(n >= least, "index: inner node {id} has {n} children");
        let separators = &node.keys[..n - 1];
        assert!(
            separators.iter().all(within) && separators.windows(2).all(|w| w[0] < w[1]),
            "index: inner node {id}'s separators do not ascend inside its range"
        );
        for (i, child) in node.children[..n].iter().enumerate() {
            let lo = if i == 0 { lo } else { Some(&separators[i - 1]) };
            let hi = if i == n - 1 { hi } else { Some(&separators[i]) };
            self.check_subtree(*child, height - 1, lo, hi, next_leaf);
        }
    }
}

/// A range of an [`Index`]'s entries, walked along the leaf chain from
/// either end.
pub struct Range<'a, K, V> {
    index: &'a Index<K, V>,
    /// The gap before the next entry from the front.
    front: (u32, usize),
    /// The gap after the next entry from the back, once found; until then
    /// the front stops at `to`.
    back: Option<(u32, usize)>,
    to: K,
}

impl<'a, K: Ord + Clone + Default + Hash, V: Default> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (id, at) = self.front;
        if id == NIL || self.back == Some(self.front) {
            return None;
        }
        let leaf = &self.index.leaves[id];
        if self.back.is_none() && leaf.keys[at] >= self.to {
            self.back = Some(self.front);
            return None;
        }
        self.front = if at + 1 < leaf.len as usize { (id, at + 1) } else { (leaf.next, 0) };
        Some((&leaf.keys[at], &leaf.vals[at]))
    }
}

impl<K: Ord + Clone + Default + Hash, V: Default> DoubleEndedIterator for Range<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let back = *self.back.get_or_insert_with(|| self.index.gap_before(&self.to));
        if back == self.front {
            return None;
        }
        let leaves = &self.index.leaves;
        let (id, at) = match back {
            (id, at) if at > 0 => (id, at - 1),
            (NIL, _) => (self.index.tail, leaves[self.index.tail].len as usize - 1),
            (id, _) => {
                let prev = leaves[id].prev;
                (prev, leaves[prev].len as usize - 1)
            }
        };
        self.back = Some((id, at));
        let leaf = &self.index.leaves[id];
        Some((&leaf.keys[at], &leaf.vals[at]))
    }
}

impl<K, V> fmt::Debug for Index<K, V>
where
    K: Ord + Clone + Default + Hash + fmt::Debug,
    V: Default + fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SmallKey;
    use crate::storage::keys;
    use simkit::DetRng;
    use std::collections::{BTreeMap, HashMap};

    type Model = BTreeMap<SmallKey, u64>;

    /// A key of ascending run `run`; every 13th is 28 bytes long, so keys
    /// that spill out of the inline buffer are compared and freed too.
    fn key(run: u32, seq: u32) -> SmallKey {
        if seq % 13 == 12 {
            keys::composite(&[run, seq, 7, 7, 7, 7, 7])
        } else {
            keys::composite(&[run, seq])
        }
    }

    /// The index holds what the model holds, read from both ends, and its
    /// invariants hold.
    fn assert_same(index: &Index<SmallKey, u64>, model: &Model) {
        index.check();
        assert_eq!(index.len(), model.len());
        assert!(index.iter().eq(model.iter()), "forward walk differs");
        assert!(index.iter().rev().eq(model.iter().rev()), "backward walk differs");
    }

    /// `runs` ascending runs appended round-robin, `per_run` keys each.
    fn interleaved(runs: u32, per_run: u32) -> (Index<SmallKey, u64>, Model) {
        let (mut index, mut model) = (Index::new(), Model::new());
        for seq in 0..per_run {
            for run in 0..runs {
                let v = u64::from(run) << 32 | u64::from(seq);
                assert_eq!(index.insert(&key(run, seq), v), None);
                model.insert(key(run, seq), v);
            }
        }
        (index, model)
    }

    #[test]
    fn interleaved_ascending_runs_fill_their_leaves() {
        for (runs, per_run, least) in [(64, 1_000, 0.98), (1, 5_000, 0.99)] {
            let (index, model) = interleaved(runs, per_run);
            assert_same(&index, &model);
            let f = index.leaf_fill();
            assert!(f > least, "{runs} runs: leaf fill {f:.4}");
        }
    }

    #[test]
    fn random_edits_match_the_model() {
        for seed in 0..40u64 {
            let mut rng = DetRng::new(0x1DE7 + seed);
            let (mut index, mut model) = (Index::new(), Model::new());
            let space = rng.uniform(8, 2_000) as u32;
            for step in 0..3_000u64 {
                let k = key(rng.uniform(0, 3) as u32, rng.uniform(0, u64::from(space)) as u32);
                match rng.uniform(0, 9) {
                    0..=4 => assert_eq!(index.insert(&k, step), model.insert(k, step)),
                    5..=7 => assert_eq!(index.remove(&k), model.remove(&k)),
                    8 => assert_eq!(index.find(&k).map(|(_, v)| v), model.get(&k)),
                    _ => {
                        // An edit that looks and leaves the entry as it was.
                        let seen = index.edit(None, &k, |slot| slot.as_ref().copied());
                        assert_eq!(seen.as_ref(), model.get(&k));
                    }
                }
            }
            assert_same(&index, &model);
        }
    }

    /// How a remembered position stood when it was used.
    #[derive(Debug, Default)]
    struct Stale {
        /// It held its key: answered in place.
        held: usize,
        /// Its key sits in the same leaf, at another slot.
        shifted: usize,
        /// Its key moved to another leaf, which a split made.
        split: usize,
        /// Its leaf was freed since, and a split took it again.
        reused: usize,
    }

    #[test]
    fn positioned_lookups_and_edits_match_the_model() {
        let mut stale = Stale::default();
        for seed in 0..40u64 {
            let mut rng = DetRng::new(0x9051 + seed);
            let (mut index, mut model) = (Index::new(), Model::new());
            // Positions alone: no hint rescues a stale one.
            index.set_hint_slots(0);
            let space = rng.uniform(20, 300);
            // Positions that lookups answered: the step, the position, its key.
            let mut seen: Vec<(u64, Pos, SmallKey)> = Vec::new();
            // The last step each leaf was on the free list.
            let mut freed_at = HashMap::<u32, u64>::new();
            for step in 0..4_000u64 {
                // Phases of 500 steps alternate growing and draining, so
                // leaves empty, go free and come back.
                let grow = step / 500 % 2 == 0;
                let fresh =
                    |rng: &mut DetRng| key(rng.uniform(0, 3) as u32, rng.uniform(0, space) as u32);
                let (pos, k) = match seen.len() {
                    0 => (None, fresh(&mut rng)),
                    n => {
                        let (at, pos, k) = seen[rng.uniform(0, n as u64 - 1) as usize].clone();
                        if !rng.chance(0.6) {
                            // A position, and another key.
                            (Some(pos), fresh(&mut rng))
                        } else {
                            let leaf = index.leaf_for(&k);
                            let kind = match search(index.leaves[leaf].keys(), &k) {
                                _ if index.holds(pos, &k) => Some(&mut stale.held),
                                (_, false) => None,
                                _ if leaf == pos.leaf => Some(&mut stale.shifted),
                                _ if freed_at.get(&pos.leaf).is_some_and(|f| *f > at) => {
                                    Some(&mut stale.reused)
                                }
                                _ => Some(&mut stale.split),
                            };
                            if let Some(n) = kind {
                                *n += 1;
                            }
                            (Some(pos), k)
                        }
                    }
                };
                let held = pos.is_some_and(|pos| index.holds(pos, &k));
                let descents = index.descents();
                match rng.uniform(0, 9) {
                    0..=2 if grow => {
                        let old = index.edit(pos, &k, |slot| slot.replace(step));
                        assert_eq!(old, model.insert(k.clone(), step));
                    }
                    3 | 4 => {
                        // An update: a present entry's value replaced.
                        let old = index
                            .edit(pos, &k, |slot| slot.as_mut().map(|v| mem::replace(v, step)));
                        assert_eq!(old, model.get_mut(&k).map(|v| mem::replace(v, step)));
                        assert_eq!(
                            index.descents() == descents,
                            held,
                            "in place exactly when held"
                        );
                    }
                    5..=8 => {
                        let found = match pos {
                            Some(pos) => index.find_from(pos, &k),
                            None => index.find(&k),
                        };
                        assert_eq!(found.map(|(_, v)| v), model.get(&k), "step {step}");
                        if let Some((now, _)) = found {
                            assert!(index.holds(now, &k));
                            seen.push((step, now, k.clone()));
                        }
                    }
                    _ => {
                        // A removal: the rest of a draining step's draws, and 9.
                        let old = index.edit(pos, &k, Option::take);
                        assert_eq!(old, model.remove(&k));
                    }
                }
                for id in &index.free_leaves {
                    freed_at.insert(*id, step);
                }
                if seen.len() > 64 {
                    seen.drain(..32);
                }
            }
            assert_same(&index, &model);
        }
        // Every kind of position must actually occur, each many times.
        let Stale { held, shifted, split, reused } = stale;
        assert!([held, shifted, split, reused].iter().all(|n| *n > 50), "{stale:?}");
    }

    /// How a key's hint stood when a lookup or an edit probed it.
    #[derive(Debug, Default)]
    struct Hinted {
        /// It held its key: answered in place.
        held: usize,
        /// The tag did not match: the slot held another key's hint, or none.
        missed: usize,
        /// Its key sits in the same leaf, at another slot.
        shifted: usize,
        /// Its key moved to another leaf, which a split made.
        split: usize,
        /// Its leaf was freed since the hint was written, and a split took
        /// it again (its key may be gone too).
        reused: usize,
        /// Its key was removed since, and its leaf is not a reused one.
        gone: usize,
    }

    /// Whether `key`'s hint holds it now.
    fn hint_holds(index: &Index<SmallKey, u64>, key: &SmallKey) -> bool {
        let hash = hash_of(key);
        let word = hint_slot(index.hints.get().expect("an array"), hash).expect("a slot").get();
        let pos = Pos { leaf: word as u32, slot: (word >> 32) as u8 };
        word >> TAG_SHIFT == hash >> TAG_SHIFT && index.holds(pos, key)
    }

    #[test]
    fn hinted_lookups_and_edits_match_the_model() {
        const SLOTS: usize = 16;
        let mut kinds = Hinted::default();
        for seed in 0..40u64 {
            let mut rng = DetRng::new(0x4147 + seed);
            let (mut index, mut model) = (Index::new(), Model::new());
            // Sixteen slots for up to 1 200 keys: slots collide all the
            // time, and a hint lives about sixteen lookups.
            index.set_hint_slots(SLOTS);
            let space = rng.uniform(20, 300);
            // Keys lookups found lately, so some probes find a live hint.
            let mut recent: Vec<SmallKey> = Vec::new();
            // The step each hint slot was last written at, and each leaf
            // last on the free list at.
            let mut written_at = [0u64; SLOTS];
            let mut freed_at = HashMap::<u32, u64>::new();
            for step in 0..4_000u64 {
                // Phases of 500 steps alternate growing and draining; a
                // drain takes keys from the front too, so whole leaves
                // empty, go free and come back.
                let grow = step / 500 % 2 == 0;
                let k = match (recent.len(), model.first_key_value()) {
                    (_, Some((first, _))) if !grow && rng.chance(0.3) => first.clone(),
                    (n, _) if n > 0 && rng.chance(0.6) => {
                        recent[rng.uniform(0, n as u64 - 1) as usize].clone()
                    }
                    _ => key(rng.uniform(0, 3) as u32, rng.uniform(0, space) as u32),
                };
                let hash = hash_of(&k);
                let at = hash as usize % SLOTS;
                let words: Vec<u64> =
                    index.hints.get().expect("an array").iter().map(Cell::get).collect();
                let pos = Pos { leaf: words[at] as u32, slot: (words[at] >> 32) as u8 };
                let held = hint_holds(&index, &k);
                let kind = match () {
                    _ if words[at] >> TAG_SHIFT != hash >> TAG_SHIFT => &mut kinds.missed,
                    _ if held => &mut kinds.held,
                    _ if freed_at.get(&pos.leaf).is_some_and(|f| *f > written_at[at])
                        && !index.free_leaves.contains(&pos.leaf) =>
                    {
                        &mut kinds.reused
                    }
                    _ if !model.contains_key(&k) => &mut kinds.gone,
                    _ if index.leaf_for(&k) == pos.leaf => &mut kinds.shifted,
                    _ => &mut kinds.split,
                };
                *kind += 1;
                let (counts, descents) = (index.hint_counts(), index.descents());
                let found = match rng.uniform(0, 9) {
                    0..=2 if grow => {
                        let old = index.edit(None, &k, |slot| slot.replace(step));
                        assert_eq!(old, model.insert(k.clone(), step));
                        false
                    }
                    3 | 4 => {
                        // An update: a present entry's value replaced.
                        let old = index
                            .edit(None, &k, |slot| slot.as_mut().map(|v| mem::replace(v, step)));
                        assert_eq!(old, model.get_mut(&k).map(|v| mem::replace(v, step)));
                        assert_eq!(
                            index.descents() == descents,
                            held,
                            "in place exactly when held"
                        );
                        old.is_some()
                    }
                    5..=8 => {
                        let found = index.find(&k);
                        assert_eq!(found.map(|(_, v)| v), model.get(&k), "step {step}");
                        assert_eq!(
                            index.descents() == descents,
                            held,
                            "no descent exactly when held"
                        );
                        found.is_some()
                    }
                    _ => {
                        // A removal: the rest of a draining step's draws, and 9.
                        let old = index.edit(None, &k, Option::take);
                        assert_eq!(old, model.remove(&k));
                        false
                    }
                };
                let now = index.hint_counts();
                assert_eq!(
                    now.hits + now.stale + now.misses,
                    counts.hits + counts.stale + counts.misses + 1,
                    "one probe"
                );
                assert_eq!(now.hits - counts.hits, u64::from(held), "a hit exactly when held");
                if found {
                    // A lookup or an update that found its key leaves its
                    // hint holding it.
                    assert!(hint_holds(&index, &k), "step {step}: hint not refilled");
                    recent.push(k);
                    if recent.len() > 32 {
                        recent.remove(0);
                    }
                }
                let hints = index.hints.get().expect("an array");
                for (i, word) in hints.iter().enumerate() {
                    if word.get() != words[i] {
                        written_at[i] = step;
                    }
                }
                for id in &index.free_leaves {
                    freed_at.insert(*id, step);
                }
            }
            assert_same(&index, &model);
        }
        // Every kind of hint must actually occur, each many times.
        let Hinted { held, missed, shifted, split, reused, gone } = kinds;
        assert!([held, missed, shifted, split, reused, gone].iter().all(|n| *n > 50), "{kinds:?}");
    }

    #[test]
    fn find_from_walks_forward_without_descending() {
        let mut index = Index::new();
        for seq in (0..2_000).step_by(2) {
            index.insert(&key(0, seq), u64::from(seq));
        }
        let (mut pos, _) = index.find(&key(0, 0)).expect("the first key");
        let (descents, visits) = (index.descents(), index.node_visits());
        // Every key up to the last, ascending: the even ones are present,
        // each in the position's leaf or the next; an odd one is absent,
        // inside a leaf or between two.
        for seq in 1..1_999 {
            match index.find_from(pos, &key(0, seq)) {
                Some((now, v)) => {
                    assert_eq!((seq % 2, *v), (0, u64::from(seq)));
                    pos = now;
                }
                None => assert_eq!(seq % 2, 1),
            }
        }
        assert_eq!(index.descents(), descents, "no descent along an ascending walk");
        let visits = index.node_visits() - visits;
        assert!(visits < 2 * 2_000, "{visits} leaves visited");
    }

    #[test]
    fn deletes_from_run_heads_free_and_reuse_leaves() {
        // The new-order pattern: each run appends at its tail while its
        // head is deleted; the live window per run stays about 300 keys.
        let mut rng = DetRng::new(0x0DE1);
        let (mut index, mut model) = (Index::new(), Model::new());
        let (mut head, mut tail) = ([0u32; 16], [0u32; 16]);
        for step in 0..200_000u64 {
            let run = rng.uniform(0, 15) as usize;
            if rng.chance(0.5) {
                index.insert(&key(run as u32, tail[run]), step);
                model.insert(key(run as u32, tail[run]), step);
                tail[run] += 1;
            } else if tail[run] - head[run] > 300 {
                let k = key(run as u32, head[run]);
                assert_eq!(index.remove(&k), model.remove(&k));
                head[run] += 1;
            }
        }
        assert_same(&index, &model);
        // Freed leaves went back into use: the index holds about what is
        // live, not every leaf the runs ever filled.
        let (leaves, free) = (index.leaves.len(), index.free_leaves.len());
        assert!(free <= 16, "{free} of {leaves} leaves free");
        let f = index.leaf_fill();
        assert!(f > 0.9, "leaf fill {f:.3}");
    }

    #[test]
    fn ranges_match_the_model_from_both_ends() {
        let mut rng = DetRng::new(0x2A6E);
        let (mut index, mut model) = (Index::new(), Model::new());
        for step in 0..4_000u64 {
            let k = key(rng.uniform(0, 5) as u32, rng.uniform(0, 400) as u32);
            index.insert(&k, step);
            model.insert(k, step);
        }
        for _ in 0..2_000 {
            let bound =
                |rng: &mut DetRng| key(rng.uniform(0, 6) as u32, rng.uniform(0, 410) as u32);
            let (from, to) = (bound(&mut rng), bound(&mut rng));
            if from > to {
                assert_eq!(index.range(&from, to).count(), 0);
                continue;
            }
            let expect = model.range(from.clone()..to.clone());
            assert!(
                index.range(&from, to.clone()).eq(expect.clone()),
                "forward [{from:?}, {to:?})"
            );
            assert!(index.range(&from, to.clone()).rev().eq(expect.clone().rev()), "backward");
            // Mixed: each step takes from a random end, until both meet.
            let (mut got, mut want) = (index.range(&from, to), expect);
            loop {
                let back = rng.chance(0.5);
                let (g, w) = if back {
                    (got.next_back(), want.next_back())
                } else {
                    (got.next(), want.next())
                };
                assert_eq!(g, w, "mixed walk, {} end", if back { "back" } else { "front" });
                if g.is_none() {
                    assert_eq!((got.next(), got.next_back()), (None, None));
                    break;
                }
            }
        }
    }

    #[test]
    fn draining_to_empty_and_refilling() {
        let mut rng = DetRng::new(0xD8A1);
        let (mut index, mut model) = interleaved(8, 400);
        let mut order: Vec<SmallKey> = model.keys().cloned().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.uniform(0, i as u64) as usize);
        }
        for (n, k) in order.iter().enumerate() {
            assert_eq!(index.remove(k), model.remove(k));
            if n % 97 == 0 {
                assert_same(&index, &model);
            }
        }
        assert_same(&index, &model);
        assert!(index.is_empty() && index.height == 0 && index.iter().next().is_none());
        assert_eq!(index.range(&key(0, 0), key(9, 0)).next_back(), None);
        for (n, k) in order.iter().enumerate() {
            index.insert(k, n as u64);
            model.insert(k.clone(), n as u64);
        }
        assert_same(&index, &model);
    }

    #[test]
    #[should_panic(expected = "index: keys do not ascend strictly along the leaf chain")]
    fn a_key_out_of_order_breaks_the_index_invariant() {
        let (mut index, _) = interleaved(1, 100);
        // A test-only corruption: the first leaf's first two keys swapped.
        let head = index.head;
        index.leaves[head].keys.swap(0, 1);
        // Appends split the last leaf, and a debug build checks the index.
        for seq in 100..120 {
            index.insert(&key(0, seq), 0);
        }
        index.check();
    }
}
