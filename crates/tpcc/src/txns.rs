//! The five TPC-C transaction profiles over the memdb API.
//!
//! Implemented from the benchmark's transaction descriptions: NewOrder and
//! Payment carry the write load; OrderStatus, Delivery, and StockLevel add
//! the read and batch profiles. The standard mix is 45/43/4/4/4.

use crate::codec::{get_money, get_u32, put_money, put_u32, put_u64, RowBuf, RowReader};
use crate::gen::{customer_id, item_id, random_last_name, NurandC};
use crate::schema::{key, Tables, TpccConfig};
use memdb::{keys, Database, Key, Row, TxnError, TxnOutcome, Workload};
use simkit::DetRng;

/// Which profile a draw selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Enter a new order (45%).
    NewOrder,
    /// Record a customer payment (43%).
    Payment,
    /// Query a customer's latest order (4%, read-only).
    OrderStatus,
    /// Deliver pending orders for a warehouse (4%).
    Delivery,
    /// Count low-stock items for recent orders (4%, read-only).
    StockLevel,
}

impl TxnKind {
    /// Every profile in declaration order: `ALL[k as usize] == k`.
    const ALL: [TxnKind; 5] = [
        TxnKind::NewOrder,
        TxnKind::Payment,
        TxnKind::OrderStatus,
        TxnKind::Delivery,
        TxnKind::StockLevel,
    ];
}

/// Per-kind execution counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixStats {
    /// NewOrder executions.
    pub new_order: u64,
    /// Payment executions.
    pub payment: u64,
    /// OrderStatus executions.
    pub order_status: u64,
    /// Delivery executions.
    pub delivery: u64,
    /// StockLevel executions.
    pub stock_level: u64,
    /// NewOrder user rollbacks (the 1% invalid-item case).
    pub rollbacks: u64,
}

/// A loaded TPC-C workload: schema handles + scale + NURand constants.
#[derive(Debug)]
pub struct TpccWorkload {
    /// Table handles.
    pub tables: Tables,
    /// Scale.
    pub config: TpccConfig,
    /// NURand constants drawn at load time.
    pub nurand: NurandC,
    /// Monotonic history sequence (history rows need unique keys).
    history_seq: u32,
    stats: MixStats,
    /// Reusable row scratch: every written row is staged here and frozen
    /// into one image for its log record (the table keeps a copy in its
    /// arena), so the scratch itself is never re-allocated.
    row_buf: Vec<u8>,
    /// StockLevel scratch: item ids of the scanned order lines.
    line_items: Vec<u32>,
    /// StockLevel's answer on its last call: the distinct items of the
    /// district's last 20 orders whose stock is below the threshold.
    low_stock: usize,
}

impl simkit::Instrument for TpccWorkload {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        let mut mix = out.scope("db.tpcc");
        mix.counter("new_order", self.stats.new_order);
        mix.counter("payment", self.stats.payment);
        mix.counter("order_status", self.stats.order_status);
        mix.counter("delivery", self.stats.delivery);
        mix.counter("stock_level", self.stats.stock_level);
        mix.counter("rollbacks", self.stats.rollbacks);
    }
}

/// The TPC-C mix as runner kinds: the index order is [`TxnKind::ALL`]'s
/// and the weights are the spec percentages [`TpccWorkload::pick`]
/// encodes, so the runner's pick reproduces the same `uniform(1, 100)` →
/// kind mapping draw for draw.
impl Workload for TpccWorkload {
    fn kinds(&self) -> &'static [&'static str] {
        &["new_order", "payment", "order_status", "delivery", "stock_level"]
    }

    fn default_mix(&self) -> &'static [u32] {
        &[45, 43, 4, 4, 4]
    }

    fn execute(
        &mut self,
        db: &mut Database,
        rng: &mut DetRng,
        kind: usize,
        now_ns: u64,
    ) -> TxnOutcome {
        match TxnKind::ALL[kind] {
            TxnKind::NewOrder => self.new_order(db, rng, now_ns),
            TxnKind::Payment => self.payment(db, rng, now_ns),
            TxnKind::OrderStatus => self.order_status(db, rng),
            TxnKind::Delivery => self.delivery(db, rng, now_ns),
            TxnKind::StockLevel => self.stock_level(db, rng),
        }
    }
}

impl TpccWorkload {
    /// Wrap a loaded schema.
    pub fn new(tables: Tables, config: TpccConfig, nurand: NurandC) -> Self {
        TpccWorkload {
            tables,
            config,
            nurand,
            history_seq: 0,
            stats: MixStats::default(),
            row_buf: Vec::new(),
            line_items: Vec::new(),
            low_stock: 0,
        }
    }

    /// Execution counters.
    pub fn stats(&self) -> MixStats {
        self.stats
    }

    /// Draw a profile per the standard mix.
    pub fn pick(&self, rng: &mut DetRng) -> TxnKind {
        let p = rng.uniform(1, 100);
        match p {
            1..=45 => TxnKind::NewOrder,
            46..=88 => TxnKind::Payment,
            89..=92 => TxnKind::OrderStatus,
            93..=96 => TxnKind::Delivery,
            _ => TxnKind::StockLevel,
        }
    }

    /// Execute one transaction of the standard mix against `db`.
    pub fn execute(&mut self, db: &mut Database, rng: &mut DetRng, now_ns: u64) -> TxnOutcome {
        let kind = self.pick(rng) as usize;
        Workload::execute(self, db, rng, kind, now_ns)
    }

    fn home_warehouse(&self, rng: &mut DetRng) -> u32 {
        rng.uniform(1, self.config.warehouses as u64) as u32
    }

    fn district(&self, rng: &mut DetRng) -> u32 {
        rng.uniform(1, self.config.districts as u64) as u32
    }

    /// NewOrder: order-entry with 5–15 lines; 1% roll back on an invalid
    /// item after doing the reads (the spec's intentional-abort case).
    pub fn new_order(&mut self, db: &mut Database, rng: &mut DetRng, now_ns: u64) -> TxnOutcome {
        self.stats.new_order += 1;
        let t = self.tables;
        let w = self.home_warehouse(rng);
        let d = self.district(rng);
        let c = customer_id(rng, &self.nurand, self.config.customers);
        let rollback = rng.chance(0.01);
        let ol_cnt = rng.uniform(5, 15) as u32;

        let mut ctx = db.begin();
        // Warehouse tax.
        let w_tax = {
            let wrow = db
                .get(&mut ctx, t.warehouse, &key::warehouse(w))
                .ok_or_else(|| TxnError::NotFound(key::warehouse(w)))?;
            let mut wr = RowReader::new(wrow);
            wr.skip(10);
            wr.u32()
        };
        // District: tax + next_o_id (incremented).
        let (d_tax, d_ytd, o_id) = {
            let drow = db
                .get(&mut ctx, t.district, &key::district(w, d))
                .ok_or_else(|| TxnError::NotFound(key::district(w, d)))?;
            let mut dr = RowReader::new(drow);
            (dr.u32(), dr.money(), dr.u32())
        };
        db.update(
            &mut ctx,
            t.district,
            key::district(w, d),
            RowBuf::new(&mut self.row_buf).u32(d_tax).money(d_ytd).u32(o_id + 1).finish(),
        );
        // Customer discount.
        let crow = db
            .get(&mut ctx, t.customer, &key::customer(w, d, c))
            .ok_or_else(|| TxnError::NotFound(key::customer(w, d, c)))?;
        let _ = crow;

        // Lines.
        let mut all_local = 1u32;
        let mut total = 0i64;
        for ol in 1..=ol_cnt {
            let i = if rollback && ol == ol_cnt {
                // Unused item id: triggers the intentional rollback.
                self.config.items + 1
            } else {
                item_id(rng, &self.nurand, self.config.items)
            };
            let price = match db.get(&mut ctx, t.item, &key::item(i)) {
                Some(irow) => {
                    let mut ir = RowReader::new(irow);
                    ir.skip(24);
                    ir.money()
                }
                None => {
                    self.stats.rollbacks += 1;
                    db.rollback(ctx);
                    return Err(TxnError::NotFound(key::item(i)));
                }
            };
            // 1% of lines are remote (supply warehouse differs).
            let supply_w = if self.config.warehouses > 1 && rng.chance(0.01) {
                all_local = 0;
                let mut o = self.home_warehouse(rng);
                while o == w {
                    o = self.home_warehouse(rng);
                }
                o
            } else {
                w
            };
            let qty = rng.uniform(1, 10) as u32;
            // Stock read + in-place update: copy the image once, patch the
            // four counters, keep dist_info for the order line.
            let mut dist_info = [0u8; 24];
            let s_qty = {
                let srow = db
                    .get(&mut ctx, t.stock, &key::stock(supply_w, i))
                    .ok_or_else(|| TxnError::NotFound(key::stock(supply_w, i)))?;
                let mut sr = RowReader::new(srow);
                let s_qty = sr.u32();
                sr.skip(12);
                dist_info.copy_from_slice(sr.raw(24));
                self.row_buf.clear();
                self.row_buf.extend_from_slice(srow);
                s_qty
            };
            let new_qty = if s_qty > qty + 10 { s_qty - qty } else { s_qty + 91 - qty };
            let s_ytd = get_u32(&self.row_buf, 4) + qty;
            let s_ord = get_u32(&self.row_buf, 8) + 1;
            let s_rem = get_u32(&self.row_buf, 12) + if supply_w == w { 0 } else { 1 };
            put_u32(&mut self.row_buf, 0, new_qty);
            put_u32(&mut self.row_buf, 4, s_ytd);
            put_u32(&mut self.row_buf, 8, s_ord);
            put_u32(&mut self.row_buf, 12, s_rem);
            db.update(
                &mut ctx,
                t.stock,
                key::stock(supply_w, i),
                Row::copy_from_slice(&self.row_buf),
            );
            let amount = price * qty as i64;
            total += amount;
            db.insert(
                &mut ctx,
                t.order_line,
                key::order_line(w, d, o_id, ol),
                RowBuf::new(&mut self.row_buf)
                    .u32(i)
                    .u32(supply_w)
                    .u64(0) // undelivered
                    .u32(qty)
                    .money(amount)
                    .bytes(&dist_info, 24)
                    .finish(),
            );
        }
        let _ = (w_tax, total);
        db.insert(
            &mut ctx,
            t.order,
            key::order(w, d, o_id),
            RowBuf::new(&mut self.row_buf)
                .u32(c)
                .u64(now_ns)
                .u32(0)
                .u32(ol_cnt)
                .u32(all_local)
                .finish(),
        );
        db.insert(&mut ctx, t.order_customer, key::order_customer(w, d, c, o_id), Row::new());
        db.insert(&mut ctx, t.new_order, key::new_order(w, d, o_id), Row::new());
        db.commit(ctx)
    }

    /// Resolve a customer by id (60%) or last name (40%, median match).
    fn select_customer(
        &self,
        db: &Database,
        rng: &mut DetRng,
        w: u32,
        d: u32,
    ) -> Result<u32, TxnError> {
        if rng.chance(0.60) {
            Ok(customer_id(rng, &self.nurand, self.config.customers))
        } else {
            let last = random_last_name(rng, &self.nurand);
            let from = key::customer_name_prefix(w, d, &last);
            let to = keys::successor(&from);
            // Visit the name index without materializing the matches; the
            // median rule only needs the customer ids.
            let mut ids = [0u32; 100];
            let mut n = 0usize;
            db.scan_visit(self.tables.customer_name, &from, &to, 100, |_k, row| {
                ids[n] = u32::from_le_bytes(row[..4].try_into().expect("c_id payload"));
                n += 1;
            });
            if n == 0 {
                // Scaled-down loads may miss a name; fall back to an id.
                return Ok(customer_id(rng, &self.nurand, self.config.customers));
            }
            Ok(ids[n / 2])
        }
    }

    /// Payment: cash a payment against warehouse/district/customer ytd and
    /// insert a history row.
    pub fn payment(&mut self, db: &mut Database, rng: &mut DetRng, now_ns: u64) -> TxnOutcome {
        self.stats.payment += 1;
        let t = self.tables;
        let w = self.home_warehouse(rng);
        let d = self.district(rng);
        let amount = rng.uniform_i64(100, 500_000);
        let mut ctx = db.begin();

        // 85% home district, 15% remote customer.
        let (cw, cd) = if self.config.warehouses > 1 && rng.chance(0.15) {
            let mut o = self.home_warehouse(rng);
            while o == w {
                o = self.home_warehouse(rng);
            }
            (o, self.district(rng))
        } else {
            (w, d)
        };
        let c = self.select_customer(db, rng, cw, cd)?;

        // Warehouse ytd. The name's raw bytes ride along on the stack for
        // the history row.
        let mut wname = [0u8; 10];
        let (tax, ytd) = {
            let wrow = db
                .get(&mut ctx, t.warehouse, &key::warehouse(w))
                .ok_or_else(|| TxnError::NotFound(key::warehouse(w)))?;
            let mut wr = RowReader::new(wrow);
            wname.copy_from_slice(wr.raw(10));
            (wr.u32(), wr.money())
        };
        db.update(
            &mut ctx,
            t.warehouse,
            key::warehouse(w),
            RowBuf::new(&mut self.row_buf).bytes(&wname, 10).u32(tax).money(ytd + amount).finish(),
        );
        // District ytd.
        let (d_tax, d_ytd, next_o) = {
            let drow = db
                .get(&mut ctx, t.district, &key::district(w, d))
                .ok_or_else(|| TxnError::NotFound(key::district(w, d)))?;
            let mut dr = RowReader::new(drow);
            (dr.u32(), dr.money(), dr.u32())
        };
        db.update(
            &mut ctx,
            t.district,
            key::district(w, d),
            RowBuf::new(&mut self.row_buf).u32(d_tax).money(d_ytd + amount).u32(next_o).finish(),
        );
        // Customer balance / ytd / counters: copy the image once and patch
        // the three fields in place (the rest passes through byte-exact).
        let ckey = key::customer(cw, cd, c);
        {
            let crow = db
                .get(&mut ctx, t.customer, &ckey)
                .ok_or_else(|| TxnError::NotFound(ckey.clone()))?;
            self.row_buf.clear();
            self.row_buf.extend_from_slice(crow);
        }
        let balance = get_money(&self.row_buf, 34) - amount;
        let ytd_pay = get_money(&self.row_buf, 42) + amount;
        let pay_cnt = get_u32(&self.row_buf, 50) + 1;
        put_money(&mut self.row_buf, 34, balance);
        put_money(&mut self.row_buf, 42, ytd_pay);
        put_u32(&mut self.row_buf, 50, pay_cnt);
        db.update(&mut ctx, t.customer, ckey, Row::copy_from_slice(&self.row_buf));
        // History.
        self.history_seq += 1;
        db.insert(
            &mut ctx,
            t.history,
            key::history(cw, cd, c, self.history_seq),
            RowBuf::new(&mut self.row_buf).money(amount).u64(now_ns).bytes(&wname, 24).finish(),
        );
        db.commit(ctx)
    }

    /// OrderStatus: the customer's latest order and its lines (read-only).
    pub fn order_status(&mut self, db: &mut Database, rng: &mut DetRng) -> TxnOutcome {
        self.stats.order_status += 1;
        let t = self.tables;
        let w = self.home_warehouse(rng);
        let d = self.district(rng);
        let ctx = db.begin();
        let c = self.select_customer(db, rng, w, d)?;
        let from = key::order_customer(w, d, c, 0);
        let to = key::order_customer(w, d, c, u32::MAX);
        // Decode o_id from the tail of the index key; the borrow ends there.
        let latest = db.last_in_range(t.order_customer, &from, &to).map(|(okey, _)| {
            u32::from_be_bytes(okey[okey.len() - 4..].try_into().expect("o_id suffix"))
        });
        if let Some(o_id) = latest {
            let lfrom = key::order_line(w, d, o_id, 0);
            let lto = key::order_line(w, d, o_id, u32::MAX);
            db.scan_visit(t.order_line, &lfrom, &lto, 20, |_k, _row| {});
        }
        db.commit(ctx)
    }

    /// Delivery: for each district, deliver the oldest undelivered order.
    pub fn delivery(&mut self, db: &mut Database, rng: &mut DetRng, now_ns: u64) -> TxnOutcome {
        self.stats.delivery += 1;
        let t = self.tables;
        let w = self.home_warehouse(rng);
        let carrier = rng.uniform(1, 10) as u32;
        let mut ctx = db.begin();
        for d in 1..=self.config.districts {
            let from = key::new_order(w, d, 0);
            let to = key::new_order(w, d, u32::MAX);
            // Oldest undelivered order; the key is copied out (inline, no
            // heap) so the borrow ends before the delete is buffered.
            let Some((o_id, nokey)) =
                db.first_in_range(t.new_order, &from, &to).map(|(nokey, _)| {
                    let o_id = u32::from_be_bytes(
                        nokey[nokey.len() - 4..].try_into().expect("o_id suffix"),
                    );
                    (o_id, Key::from_slice(nokey))
                })
            else {
                continue; // district fully delivered
            };
            db.delete(&mut ctx, t.new_order, nokey);
            // Order: copy the image, patch the carrier field.
            let okey = key::order(w, d, o_id);
            {
                let orow = db
                    .get(&mut ctx, t.order, &okey)
                    .ok_or_else(|| TxnError::NotFound(okey.clone()))?;
                self.row_buf.clear();
                self.row_buf.extend_from_slice(orow);
            }
            let c = get_u32(&self.row_buf, 0);
            let ol_cnt = get_u32(&self.row_buf, 16);
            put_u32(&mut self.row_buf, 12, carrier);
            db.update(&mut ctx, t.order, okey, Row::copy_from_slice(&self.row_buf));
            // Order lines: stamp delivery date, sum amounts.
            let mut total = 0i64;
            for ol in 1..=ol_cnt {
                let lkey = key::order_line(w, d, o_id, ol);
                {
                    let Some(lrow) = db.get(&mut ctx, t.order_line, &lkey) else { continue };
                    self.row_buf.clear();
                    self.row_buf.extend_from_slice(lrow);
                }
                total += get_money(&self.row_buf, 20);
                put_u64(&mut self.row_buf, 8, now_ns);
                db.update(&mut ctx, t.order_line, lkey, Row::copy_from_slice(&self.row_buf));
            }
            // Customer: balance += total, delivery_cnt += 1.
            let ckey = key::customer(w, d, c);
            {
                let crow = db
                    .get(&mut ctx, t.customer, &ckey)
                    .ok_or_else(|| TxnError::NotFound(ckey.clone()))?;
                self.row_buf.clear();
                self.row_buf.extend_from_slice(crow);
            }
            let balance = get_money(&self.row_buf, 34) + total;
            let del_cnt = get_u32(&self.row_buf, 54) + 1;
            put_money(&mut self.row_buf, 34, balance);
            put_u32(&mut self.row_buf, 54, del_cnt);
            db.update(&mut ctx, t.customer, ckey, Row::copy_from_slice(&self.row_buf));
        }
        db.commit(ctx)
    }

    /// StockLevel: items under a threshold among the district's last 20
    /// orders (read-only).
    pub fn stock_level(&mut self, db: &mut Database, rng: &mut DetRng) -> TxnOutcome {
        self.stats.stock_level += 1;
        let t = self.tables;
        let w = self.home_warehouse(rng);
        let d = self.district(rng);
        let threshold = rng.uniform(10, 20) as u32;
        let mut ctx = db.begin();
        let next_o = {
            let drow = db
                .get(&mut ctx, t.district, &key::district(w, d))
                .ok_or_else(|| TxnError::NotFound(key::district(w, d)))?;
            get_u32(drow, 12)
        };
        let from_o = next_o.saturating_sub(20);
        let lfrom = key::order_line(w, d, from_o, 0);
        let lto = key::order_line(w, d, next_o, 0);
        // Collect the line item ids into reusable scratch, then probe stock
        // once per distinct item: the spec counts distinct items.
        self.line_items.clear();
        {
            let items = &mut self.line_items;
            db.scan_visit(t.order_line, &lfrom, &lto, 400, |_k, lrow| {
                items.push(get_u32(lrow, 0));
            });
        }
        self.line_items.sort_unstable();
        self.line_items.dedup();
        self.low_stock = self
            .line_items
            .iter()
            .filter(|&&i| {
                db.get(&mut ctx, t.stock, &key::stock(w, i))
                    .is_some_and(|s| get_u32(s, 0) < threshold)
            })
            .count();
        db.commit(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::NurandC;
    use crate::schema::load;

    fn workload() -> (Database, TpccWorkload, DetRng) {
        let mut db = Database::new();
        let mut rng = DetRng::new(7);
        let c = NurandC::draw(&mut rng);
        let cfg = TpccConfig::small();
        let tables = load(&mut db, &cfg, &mut rng, &c);
        (db, TpccWorkload::new(tables, cfg, c), rng)
    }

    #[test]
    fn new_order_advances_district_counter_and_creates_rows() {
        let (mut db, mut w, mut rng) = workload();
        let orders_before = db.table(w.tables.order).unwrap().len();
        let mut committed = 0;
        for _ in 0..20 {
            if w.new_order(&mut db, &mut rng, 0).is_ok() {
                committed += 1;
            }
        }
        assert!(committed >= 18, "at most the 1% rollback rate plus noise");
        assert_eq!(db.table(w.tables.order).unwrap().len(), orders_before + committed);
        assert!(!db.table(w.tables.new_order).unwrap().is_empty());
    }

    #[test]
    fn new_order_rollback_rate_is_about_one_percent() {
        let (mut db, mut w, mut rng) = workload();
        for _ in 0..2000 {
            let _ = w.new_order(&mut db, &mut rng, 0);
        }
        let r = w.stats().rollbacks;
        assert!((5..=50).contains(&r), "rollbacks {r} out of 2000");
    }

    #[test]
    fn payment_moves_money() {
        let (mut db, mut w, mut rng) = workload();
        let hist_before = db.table(w.tables.history).unwrap().len();
        for _ in 0..10 {
            w.payment(&mut db, &mut rng, 0).unwrap();
        }
        assert_eq!(db.table(w.tables.history).unwrap().len(), hist_before + 10);
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let (mut db, mut w, mut rng) = workload();
        let pending_before = db.table(w.tables.new_order).unwrap().len();
        assert!(pending_before > 0);
        w.delivery(&mut db, &mut rng, 123).unwrap();
        let pending_after = db.table(w.tables.new_order).unwrap().len();
        assert!(pending_after < pending_before);
    }

    #[test]
    fn read_only_profiles_commit_without_writes() {
        let (mut db, mut w, mut rng) = workload();
        let fp = db.fingerprint();
        let recs = w.order_status(&mut db, &mut rng).unwrap();
        assert_eq!(recs.len(), 1, "commit marker only");
        let recs2 = w.stock_level(&mut db, &mut rng).unwrap();
        assert_eq!(recs2.len(), 1);
        assert_eq!(db.fingerprint(), fp, "read-only profiles leave state intact");
    }

    #[test]
    fn stock_level_counts_what_the_per_line_loop_counts() {
        let (mut db, mut w, mut rng) = workload();
        for _ in 0..500 {
            let _ = w.new_order(&mut db, &mut rng, 0);
        }
        let t = w.tables;
        let (mut repeated, mut low) = (0, 0);
        for _ in 0..200 {
            // StockLevel's own draws, replayed on a copy of its stream.
            let mut draw = rng.clone();
            let (wh, d) = (w.home_warehouse(&mut draw), w.district(&mut draw));
            let threshold = draw.uniform(10, 20) as u32;
            let next_o = get_u32(db.peek(t.district, &key::district(wh, d)).unwrap(), 12);
            let (from, to) = (
                key::order_line(wh, d, next_o.saturating_sub(20), 0),
                key::order_line(wh, d, next_o, 0),
            );
            let mut lines = Vec::new();
            db.scan_visit(t.order_line, &from, &to, 400, |_k, row| lines.push(get_u32(row, 0)));
            // Every line probed; an item counted the first time it is low.
            let mut low_items: Vec<u32> = Vec::new();
            for &i in &lines {
                let stock = db.peek(t.stock, &key::stock(wh, i)).map(|s| get_u32(s, 0));
                if !low_items.contains(&i) && stock.is_some_and(|q| q < threshold) {
                    low_items.push(i);
                }
            }
            w.stock_level(&mut db, &mut rng).expect("StockLevel is read-only");
            assert_eq!(w.low_stock, low_items.len());
            repeated += usize::from(w.line_items.len() < lines.len());
            low += w.low_stock;
        }
        assert!(repeated > 0 && low > 0, "{repeated} calls saw a repeated item, {low} low items");
    }

    #[test]
    fn mix_is_roughly_standard() {
        let (mut db, mut w, mut rng) = workload();
        for _ in 0..3000 {
            let _ = w.execute(&mut db, &mut rng, 0);
        }
        let s = w.stats();
        let total = (s.new_order + s.payment + s.order_status + s.delivery + s.stock_level) as f64;
        assert!((s.new_order as f64 / total - 0.45).abs() < 0.05);
        assert!((s.payment as f64 / total - 0.43).abs() < 0.05);
        assert!((s.delivery as f64 / total - 0.04).abs() < 0.02);
    }

    #[test]
    fn log_record_sizes_are_realistic() {
        // The paper cites OLTP log records well under 20 KiB; our NewOrder
        // emits a few hundred bytes to a few KiB.
        let (mut db, mut w, mut rng) = workload();
        let mut sizes = Vec::new();
        for _ in 0..50 {
            if let Ok(recs) = w.new_order(&mut db, &mut rng, 0) {
                sizes.push(recs.iter().map(|r| r.encoded_len()).sum::<usize>());
            }
        }
        let avg = sizes.iter().sum::<usize>() / sizes.len();
        assert!(avg > 300 && avg < 20_000, "avg NewOrder log bytes {avg}");
    }
}
