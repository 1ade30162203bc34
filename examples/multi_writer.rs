//! Many writers, one credit counter: the advanced x_alloc/x_free region API
//! (paper §5.2).
//!
//! Run with: `cargo run --release --example multi_writer`
//!
//! A Villars device has one credit counter, and it reports the contiguous
//! frontier of the log. Worker threads share it by allocating adjacent ring
//! regions up front and filling them in parallel, in any order: the counter
//! covers a region once every byte below it has landed.

use xssd_suite::sim::{SimDuration, SimTime};
use xssd_suite::xssd::{Cluster, VillarsConfig, XAllocator};

fn main() {
    println!("== many writers, one counter: the x_alloc/x_free API ==");

    // Allocate adjacent regions, fill them out of order (as parallel worker
    // threads would), free them, and watch the contiguous credit frontier
    // cover everything.
    let mut cluster = Cluster::new();
    let dev = cluster.add_device(VillarsConfig::villars_sram());
    let mut alloc = XAllocator::new(dev);
    let regions: Vec<_> = (0..4).map(|_| alloc.x_alloc(1024)).collect();
    // Fill in reverse order: region 3 first. The CMB holds out-of-order
    // data until the log below it becomes contiguous.
    let mut t = SimTime::ZERO;
    for (i, r) in regions.iter().enumerate().rev() {
        let payload = vec![i as u8 + 1; 1024];
        t = alloc.write_region(&mut cluster, t, *r, 0, &payload).expect("region fill");
        let (_tc, credit) = cluster.read_credit(dev, t);
        println!(
            "filled region {i} (offset {}): credit = {credit} (contiguous frontier)",
            r.offset
        );
    }
    for r in &regions {
        alloc.x_free(*r);
    }
    let settle = t + SimDuration::from_micros(100);
    cluster.advance(settle);
    let (_tc, credit) = cluster.read_credit(dev, settle);
    assert_eq!(credit, 4 * 1024, "all regions persistent once contiguous");
    println!("all regions freed; credit = {credit}; outstanding = {}", alloc.outstanding());
    println!("ok");
}
