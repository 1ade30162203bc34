//! TPC-C schema: table handles, key builders, and the initial loader.

use crate::codec::RowWriter;
use crate::gen::{astring, loader_last_name, NurandC};
use memdb::{Database, Key, TableId};
use simkit::DetRng;

/// Scale parameters. The paper runs 16 warehouses, as the harnesses'
/// [`TpccConfig::bench`] does; tests use [`TpccConfig::small`] to stay fast.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Warehouses (the TPC-C scale unit).
    pub warehouses: u32,
    /// Districts per warehouse (spec: 10).
    pub districts: u32,
    /// Customers per district (spec: 3000).
    pub customers: u32,
    /// Catalogue items (spec: 100_000).
    pub items: u32,
    /// Initial orders per district (spec: 3000).
    pub initial_orders: u32,
}

impl TpccConfig {
    /// Tiny configuration for unit tests.
    pub fn small() -> Self {
        TpccConfig { warehouses: 2, districts: 2, customers: 30, items: 100, initial_orders: 5 }
    }

    /// Figure-harness scale: the paper's 16 warehouses with cardinalities
    /// cut far below the spec's so a 5-backend × 4-worker-count sweep loads
    /// in seconds.
    /// The log path — record sizes, NURand skew, group-commit cadence — is
    /// unaffected by the smaller catalogue.
    pub fn bench() -> Self {
        TpccConfig { warehouses: 16, districts: 4, customers: 120, items: 2000, initial_orders: 10 }
    }
}

/// Table ids of a loaded TPC-C database.
#[derive(Debug, Clone, Copy)]
pub struct Tables {
    /// WAREHOUSE: key (w_id).
    pub warehouse: TableId,
    /// DISTRICT: key (w_id, d_id).
    pub district: TableId,
    /// CUSTOMER: key (w_id, d_id, c_id).
    pub customer: TableId,
    /// Customer last-name index: key (w_id, d_id, last16, c_id) → c_id.
    pub customer_name: TableId,
    /// HISTORY: key (w_id, d_id, c_id, seq).
    pub history: TableId,
    /// ORDER: key (w_id, d_id, o_id).
    pub order: TableId,
    /// Customer→order index: key (w_id, d_id, c_id, o_id) → ().
    pub order_customer: TableId,
    /// NEW-ORDER: key (w_id, d_id, o_id) → ().
    pub new_order: TableId,
    /// ORDER-LINE: key (w_id, d_id, o_id, ol_number).
    pub order_line: TableId,
    /// ITEM: key (i_id).
    pub item: TableId,
    /// STOCK: key (w_id, i_id).
    pub stock: TableId,
}

/// The canonical table-name order (shared with replicas).
pub const TABLE_NAMES: [&str; 11] = [
    "warehouse",
    "district",
    "customer",
    "customer_name",
    "history",
    "order",
    "order_customer",
    "new_order",
    "order_line",
    "item",
    "stock",
];

/// Key builders. Every key is stack-built: the widest hot-path composite
/// (order-line, 16 bytes) fits a [`memdb::SmallKey`] inline (22 bytes).
/// The customer-name keys spill to the heap: the 28-byte index entry,
/// built at load time, and the 24-byte scan prefix and its successor,
/// built by the by-name lookups of Payment and Order-Status (40 % of
/// each, about a fifth of all transactions).
pub mod key {
    use memdb::keys::composite;
    use memdb::Key;

    /// WAREHOUSE key.
    pub fn warehouse(w: u32) -> Key {
        composite(&[w])
    }

    /// DISTRICT key.
    pub fn district(w: u32, d: u32) -> Key {
        composite(&[w, d])
    }

    /// CUSTOMER key.
    pub fn customer(w: u32, d: u32, c: u32) -> Key {
        composite(&[w, d, c])
    }

    /// Customer-name index key.
    pub fn customer_name(w: u32, d: u32, last: &str, c: u32) -> Key {
        let mut k = composite(&[w, d]);
        k.push_str(last, 16);
        k.push_u32(c);
        k
    }

    /// Name-index scan prefix for (w, d, last).
    pub fn customer_name_prefix(w: u32, d: u32, last: &str) -> Key {
        let mut k = composite(&[w, d]);
        k.push_str(last, 16);
        k
    }

    /// HISTORY key.
    pub fn history(w: u32, d: u32, c: u32, seq: u32) -> Key {
        composite(&[w, d, c, seq])
    }

    /// ORDER key.
    pub fn order(w: u32, d: u32, o: u32) -> Key {
        composite(&[w, d, o])
    }

    /// Customer→order index key.
    pub fn order_customer(w: u32, d: u32, c: u32, o: u32) -> Key {
        composite(&[w, d, c, o])
    }

    /// NEW-ORDER key.
    pub fn new_order(w: u32, d: u32, o: u32) -> Key {
        composite(&[w, d, o])
    }

    /// ORDER-LINE key.
    pub fn order_line(w: u32, d: u32, o: u32, ol: u32) -> Key {
        composite(&[w, d, o, ol])
    }

    /// ITEM key.
    pub fn item(i: u32) -> Key {
        composite(&[i])
    }

    /// STOCK key.
    pub fn stock(w: u32, i: u32) -> Key {
        composite(&[w, i])
    }
}

/// Create the catalog and load the initial population. Returns the table
/// handles. Loading bypasses the WAL (the paper's runs also start from a
/// loaded database).
pub fn load(db: &mut Database, cfg: &TpccConfig, rng: &mut DetRng, c: &NurandC) -> Tables {
    let tables = Tables {
        warehouse: db.create_table(TABLE_NAMES[0]),
        district: db.create_table(TABLE_NAMES[1]),
        customer: db.create_table(TABLE_NAMES[2]),
        customer_name: db.create_table(TABLE_NAMES[3]),
        history: db.create_table(TABLE_NAMES[4]),
        order: db.create_table(TABLE_NAMES[5]),
        order_customer: db.create_table(TABLE_NAMES[6]),
        new_order: db.create_table(TABLE_NAMES[7]),
        order_line: db.create_table(TABLE_NAMES[8]),
        item: db.create_table(TABLE_NAMES[9]),
        stock: db.create_table(TABLE_NAMES[10]),
    };

    // ITEM.
    for i in 1..=cfg.items {
        let row = RowWriter::new(96)
            .str(&astring(rng, 14, 24), 24)
            .money(rng.uniform_i64(100, 10_000))
            .str(&astring(rng, 26, 50), 50)
            .finish();
        load_row(db, tables.item, key::item(i), row);
    }

    for w in 1..=cfg.warehouses {
        // WAREHOUSE: name, tax (basis points), ytd cents.
        let row = RowWriter::new(48)
            .str(&astring(rng, 6, 10), 10)
            .u32(rng.uniform(0, 2000) as u32)
            .money(30_000_000)
            .finish();
        load_row(db, tables.warehouse, key::warehouse(w), row);

        // STOCK.
        for i in 1..=cfg.items {
            let row = RowWriter::new(96)
                .u32(rng.uniform(10, 100) as u32) // quantity
                .u32(0) // ytd
                .u32(0) // order_cnt
                .u32(0) // remote_cnt
                .str(&astring(rng, 24, 24), 24)
                .str(&astring(rng, 26, 50), 50)
                .finish();
            load_row(db, tables.stock, key::stock(w, i), row);
        }

        for d in 1..=cfg.districts {
            // DISTRICT: tax, ytd, next_o_id.
            let row = RowWriter::new(32)
                .u32(rng.uniform(0, 2000) as u32)
                .money(3_000_000)
                .u32(cfg.initial_orders + 1)
                .finish();
            load_row(db, tables.district, key::district(w, d), row);

            // CUSTOMER + name index.
            for cu in 1..=cfg.customers {
                let last = loader_last_name(rng, c, cu);
                let credit = if rng.chance(0.10) { "BC" } else { "GC" };
                let row = RowWriter::new(192)
                    .str(&astring(rng, 8, 16), 16) // first
                    .str("OE", 2) // middle
                    .str(&last, 16)
                    .money(-1000) // balance: -10.00
                    .money(1000) // ytd_payment
                    .u32(1) // payment_cnt
                    .u32(0) // delivery_cnt
                    .str(credit, 2)
                    .u32(rng.uniform(0, 5000) as u32) // discount bp
                    .str(&astring(rng, 50, 100), 100) // data
                    .finish();
                load_row(db, tables.customer, key::customer(w, d, cu), row);
                load_row(
                    db,
                    tables.customer_name,
                    key::customer_name(w, d, &last, cu),
                    cu.to_le_bytes().to_vec(),
                );
            }

            // Initial orders: each customer 1..initial_orders placed one.
            for o in 1..=cfg.initial_orders {
                let cu = rng.uniform(1, cfg.customers as u64) as u32;
                let ol_cnt = rng.uniform(5, 15) as u32;
                let delivered = o + 10 <= cfg.initial_orders; // older orders delivered
                let carrier = if delivered { rng.uniform(1, 10) as u32 } else { 0 };
                let row = RowWriter::new(32)
                    .u32(cu)
                    .u64(0) // entry date (sim time 0)
                    .u32(carrier)
                    .u32(ol_cnt)
                    .u32(1) // all_local
                    .finish();
                load_row(db, tables.order, key::order(w, d, o), row);
                load_row(db, tables.order_customer, key::order_customer(w, d, cu, o), Vec::new());
                if !delivered {
                    load_row(db, tables.new_order, key::new_order(w, d, o), Vec::new());
                }
                for ol in 1..=ol_cnt {
                    let i = rng.uniform(1, cfg.items as u64) as u32;
                    let row = RowWriter::new(64)
                        .u32(i)
                        .u32(w) // supply warehouse
                        .u64(if delivered { 1 } else { 0 }) // delivery date
                        .u32(5) // quantity
                        .money(rng.uniform_i64(10, 999_999))
                        .str(&astring(rng, 24, 24), 24)
                        .finish();
                    load_row(db, tables.order_line, key::order_line(w, d, o, ol), row);
                }
            }
        }
    }
    tables
}

fn load_row(db: &mut Database, table: TableId, key: Key, row: Vec<u8>) {
    let mut ctx = db.begin();
    db.insert(&mut ctx, table, key, row);
    db.commit(ctx).expect("loader rows are conflict-free");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::NurandC;

    #[test]
    fn load_populates_all_tables() {
        let mut db = Database::new();
        let mut rng = DetRng::new(1);
        let c = NurandC::draw(&mut rng);
        let cfg = TpccConfig::small();
        let t = load(&mut db, &cfg, &mut rng, &c);
        assert_eq!(db.table(t.warehouse).unwrap().len(), 2);
        assert_eq!(db.table(t.district).unwrap().len(), 4);
        assert_eq!(db.table(t.customer).unwrap().len(), 2 * 2 * 30);
        assert_eq!(db.table(t.customer_name).unwrap().len(), 2 * 2 * 30);
        assert_eq!(db.table(t.item).unwrap().len(), 100);
        assert_eq!(db.table(t.stock).unwrap().len(), 200);
        assert_eq!(db.table(t.order).unwrap().len(), 4 * 5);
        assert!(db.table(t.order_line).unwrap().len() >= 4 * 5 * 5);
        // Undelivered orders have NEW-ORDER rows.
        assert!(!db.table(t.new_order).unwrap().is_empty());
    }

    #[test]
    fn keys_are_order_preserving() {
        // Orders of one district sort together and ascend by o_id.
        let a = key::order(1, 1, 5);
        let b = key::order(1, 1, 6);
        let c = key::order(1, 2, 1);
        assert!(a < b && b < c);
        // Name-index prefix scan bounds.
        let p = key::customer_name_prefix(1, 1, "ABLE");
        let k = key::customer_name(1, 1, "ABLE", 3);
        let succ = memdb::keys::successor(&p);
        assert!(p <= k && k < succ);
    }

    #[test]
    fn loading_is_deterministic() {
        let build = || {
            let mut db = Database::new();
            let mut rng = DetRng::new(42);
            let c = NurandC::draw(&mut rng);
            load(&mut db, &TpccConfig::small(), &mut rng, &c);
            db.fingerprint()
        };
        assert_eq!(build(), build());
    }
}
