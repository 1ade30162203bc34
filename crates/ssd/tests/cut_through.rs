//! The conventional data path on an idle device, to the nanosecond.
//!
//! The host link has a wire per direction and the DMA's target is the data
//! buffer: a write's page is buffered one TLP's port time after its last TLP
//! lands, a buffered read's DMA leaves one TLP's port time after the port
//! starts reading, and neither waits for a page to cross the DRAM port
//! first. Default device: 16 KiB pages, ×4 Gen2 link (2 B/ns per
//! direction), 256 B TLPs with 24 B of overhead, 4 B/ns DRAM port.

use nvme::{Command, CommandKind, Completion, IoCommand, NvmeController};
use simkit::SimTime;
use ssd::{ConventionalSsd, SsdConfig};

const FETCH: u64 = 1_000;
const DMA_SETUP: u64 = 300;
/// One TLP on the wire: (256 + 24) B at 2 B/ns.
const TLP_WIRE: u64 = 140;
const FLIGHT: u64 = 150;
/// A page's DMA: setup, 64 TLPs back to back, the last one's flight.
const PAGE_WIRE: u64 = 64 * TLP_WIRE;
const DMA: u64 = DMA_SETUP + PAGE_WIRE + FLIGHT;
/// One TLP's payload through the DRAM port: 256 B at 4 B/ns.
const UNIT: u64 = 64;
const COMPLETION_POST: u64 = 500;

fn at(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

fn device() -> ConventionalSsd {
    ConventionalSsd::new(SsdConfig::default())
}

fn submit(ssd: &mut ConventionalSsd, now: u64, cid: u16, io: IoCommand) {
    ssd.submit(at(now), Command { cid, kind: CommandKind::Io(io) });
}

/// Run the device to `until` and return when each command completed, by cid.
fn completions(ssd: &mut ConventionalSsd, until: u64) -> Vec<(u16, u64)> {
    ssd.advance_to(at(until));
    let mut out: Vec<Completion> = Vec::new();
    ssd.drain_completions_into(at(until), &mut out);
    let mut done: Vec<_> = out
        .iter()
        .map(|c| {
            assert!(c.entry.status.is_ok(), "cid {} failed", c.entry.cid);
            (c.entry.cid, c.at.as_nanos())
        })
        .collect();
    done.sort();
    done
}

#[test]
fn cached_write_completes_one_unit_after_its_dma() {
    let mut ssd = device();
    submit(&mut ssd, 0, 1, IoCommand::Write { lba: 7, blocks: 1 });
    assert_eq!(completions(&mut ssd, 50_000), [(1, FETCH + DMA + UNIT + COMPLETION_POST)]);
    // The port was held as long as for a page written at once, once.
    let mut reg = simkit::MetricsRegistry::new();
    reg.collect("", &ssd);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("ssd.buffer.port_busy_ns"), 64 * UNIT);
    assert_eq!(snap.counter("ssd.buffer.port_requests"), 1);
}

#[test]
fn buffered_read_completes_one_unit_after_its_dma_could_start() {
    let mut ssd = device();
    submit(&mut ssd, 0, 1, IoCommand::Write { lba: 7, blocks: 1 });
    completions(&mut ssd, 50_000);
    submit(&mut ssd, 50_000, 2, IoCommand::Read { lba: 7, blocks: 1 });
    let want = 50_000 + FETCH + UNIT + DMA + COMPLETION_POST;
    assert_eq!(completions(&mut ssd, 100_000), [(2, want)]);
    assert_eq!(ssd.buffer_stats().read_hits, 1);
}

#[test]
fn dma_out_and_dma_in_overlap_two_dma_ins_serialize() {
    // A buffered page to read back.
    let mut ssd = device();
    submit(&mut ssd, 0, 1, IoCommand::Write { lba: 7, blocks: 1 });
    completions(&mut ssd, 50_000);

    // A read and a write submitted together: the fetches serialize, the
    // data phases do not — each has its own wire, so the write completes as
    // on an idle device though the read's DMA is still running. (Read first:
    // the DRAM port grants in call order, so a buffer hit fetched behind a
    // write would queue for that write's later port hold, as it always has.)
    let t = 100_000;
    submit(&mut ssd, t, 2, IoCommand::Read { lba: 7, blocks: 1 });
    submit(&mut ssd, t, 3, IoCommand::Write { lba: 8, blocks: 1 });
    let read_done = t + FETCH + UNIT + DMA + COMPLETION_POST;
    let write_done = t + 2 * FETCH + DMA + UNIT + COMPLETION_POST;
    assert!(t + 2 * FETCH + DMA_SETUP < t + FETCH + UNIT + DMA, "the two DMAs overlap in time");
    assert_eq!(completions(&mut ssd, 150_000), [(2, read_done), (3, write_done)]);

    // Two writes submitted together: the second's TLPs queue behind the
    // first's on the downstream wire.
    let t = 200_000;
    submit(&mut ssd, t, 4, IoCommand::Write { lba: 9, blocks: 1 });
    submit(&mut ssd, t, 5, IoCommand::Write { lba: 10, blocks: 1 });
    let first_done = t + FETCH + DMA + UNIT + COMPLETION_POST;
    let wire_free = t + FETCH + DMA_SETUP + PAGE_WIRE;
    assert!(wire_free > t + 2 * FETCH + DMA_SETUP, "the second DMA finds the wire busy");
    let second_done = wire_free + PAGE_WIRE + FLIGHT + UNIT + COMPLETION_POST;
    assert_eq!(completions(&mut ssd, 250_000), [(4, first_done), (5, second_done)]);
}

#[test]
fn a_host_read_is_one_round_trip_while_a_page_moves_each_way() {
    let mut ssd = device();
    submit(&mut ssd, 0, 1, IoCommand::Write { lba: 7, blocks: 1 });
    completions(&mut ssd, 50_000);
    // A buffered read and a write: a page's DMA on each wire.
    let t = 100_000;
    submit(&mut ssd, t, 2, IoCommand::Read { lba: 7, blocks: 1 });
    submit(&mut ssd, t, 3, IoCommand::Write { lba: 8, blocks: 1 });
    // A credit read issued with both in flight: its request and its
    // completion are lone TLPs (24 B and 32 B at 2 B/ns) that slot in
    // between the DMAs' packets; neither waits for a transfer to end.
    let mid = t + 2 * FETCH + DMA_SETUP + PAGE_WIRE / 2;
    let g = ssd.host_read_round_trip(at(mid), 0, 8);
    assert_eq!(g.end.as_nanos(), mid + 12 + FLIGHT + 16 + FLIGHT);
    // The commands complete when they would have without it.
    let read_done = t + FETCH + UNIT + DMA + COMPLETION_POST;
    let write_done = t + 2 * FETCH + DMA + UNIT + COMPLETION_POST;
    assert_eq!(completions(&mut ssd, 150_000), [(2, read_done), (3, write_done)]);
    // What it displaced is charged: the next transfer finds the downstream
    // wire taken 12 ns longer than the page held it.
    assert_eq!(
        ssd.host_downstream_busy_until().as_nanos(),
        t + 2 * FETCH + DMA_SETUP + PAGE_WIRE + 12
    );
}

#[test]
fn a_multi_block_write_programs_each_page_as_it_lands() {
    // One die per channel: consecutive pages go to different channels, so
    // each program can start the instant it is submitted for.
    let mut cfg = SsdConfig::default();
    cfg.geometry.dies_per_channel = 1;
    let mut ssd = ConventionalSsd::new(cfg);
    submit(&mut ssd, 0, 1, IoCommand::Write { lba: 16, blocks: 4 });
    // Step the device event by event: a queued program shows up as the
    // device's next event at the instant it was submitted for.
    let mut events = Vec::new();
    while let Some(t) = ssd.next_device_event() {
        if t > at(100_000) {
            break;
        }
        events.push(t.as_nanos());
        ssd.advance_to(t);
    }
    // Page i is buffered one unit after its own last TLP lands.
    let buffered = |i: u64| FETCH + DMA_SETUP + (i + 1) * PAGE_WIRE + FLIGHT + UNIT;
    assert_eq!(events[..4], [buffered(0), buffered(1), buffered(2), buffered(3)]);
    assert_eq!(buffered(3) - buffered(0), 3 * PAGE_WIRE);
    // The command completes once the last page is in.
    assert_eq!(completions(&mut ssd, 100_000), [(1, buffered(3) + COMPLETION_POST)]);
}
