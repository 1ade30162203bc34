//! The flash arrays: dies, channel buses, and low-level operations.
//!
//! Models what the paper's Flash Storage Controller drives (§2.2): each
//! channel is a shared bus to several dies; a program moves the page over
//! the bus and then occupies the die for `t_prog` (the bus is free to feed
//! other dies meanwhile — the interleaving that gives NAND its aggregate
//! bandwidth). Factory bad blocks are sampled once at construction; program
//! failures and read/program retries come from the fault plan
//! (`simkit::faults`, see [`FlashArray::arm_faults`]), so the error paths of
//! paper §7.1 are exercisable. The device is fresh: no block is ever erased,
//! so there is no wear either.

use crate::geometry::{BlockAddr, DieAddr, FlashGeometry, Ppa};
use crate::timing::{FlashTiming, ReliabilityConfig};
use simkit::faults::{FaultHook, FlashFaultConfig};
use simkit::{DetRng, Grant, SerialResource, SimTime};

/// Errors surfaced by flash operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// Target address outside the geometry.
    OutOfBounds(Ppa),
    /// The block was already marked bad.
    BadBlock(BlockAddr),
    /// The program operation failed; the block is now marked bad.
    ProgramFailed(BlockAddr),
    /// NAND constraint violation: pages in a block must program in order.
    OutOfOrderProgram {
        /// Attempted page.
        got: u32,
        /// Next programmable page in that block.
        expected: u32,
    },
    /// Reading a page that was never programmed.
    ReadUnwritten(Ppa),
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::OutOfBounds(p) => write!(f, "address out of bounds: {p:?}"),
            FlashError::BadBlock(b) => write!(f, "block is bad: {b:?}"),
            FlashError::ProgramFailed(b) => write!(f, "program failed, block grown bad: {b:?}"),
            FlashError::OutOfOrderProgram { got, expected } => {
                write!(f, "out-of-order program: page {got}, expected {expected}")
            }
            FlashError::ReadUnwritten(p) => write!(f, "read of unwritten page: {p:?}"),
        }
    }
}

impl std::error::Error for FlashError {}

/// Successful-operation detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Service window on the device.
    pub grant: Grant,
}

#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    bad: bool,
    next_page: u32,
}

/// Cumulative operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashStats {
    /// Pages programmed.
    pub programs: u64,
    /// Pages read.
    pub reads: u64,
    /// Permanent program failures injected by the fault plan (grown bad
    /// blocks).
    pub program_failures: u64,
    /// In-device retries of transiently failed reads (injected faults).
    pub transient_read_retries: u64,
    /// In-device retries of transiently failed programs (injected faults).
    pub transient_program_retries: u64,
}

/// Armed fault-injection state for one array (see
/// [`FlashArray::arm_faults`]). Each class draws from its own forked
/// stream so rates can be tuned independently without perturbing the
/// other classes' schedules.
#[derive(Debug, Clone)]
struct FlashFaults {
    cfg: FlashFaultConfig,
    read: FaultHook,
    program: FaultHook,
    permanent: FaultHook,
}

/// The full set of flash arrays behind the storage controller.
#[derive(Debug, Clone)]
pub struct FlashArray {
    geometry: FlashGeometry,
    timing: FlashTiming,
    dies: Vec<SerialResource>,
    buses: Vec<SerialResource>,
    blocks: Vec<BlockState>,
    stats: FlashStats,
    /// Fault injection (None = inert, the default).
    faults: Option<FlashFaults>,
}

impl FlashArray {
    /// Build the arrays; initial bad blocks are sampled deterministically
    /// from `seed`.
    pub fn new(
        geometry: FlashGeometry,
        timing: FlashTiming,
        reliability: ReliabilityConfig,
        seed: u64,
    ) -> Self {
        geometry.validate();
        let mut rng = DetRng::new(seed);
        let mut blocks = vec![BlockState::default(); geometry.total_blocks() as usize];
        if reliability.initial_bad_block_rate > 0.0 {
            for b in blocks.iter_mut() {
                if rng.chance(reliability.initial_bad_block_rate) {
                    b.bad = true;
                }
            }
        }
        FlashArray {
            dies: vec![SerialResource::new(); geometry.total_dies() as usize],
            buses: vec![SerialResource::new(); geometry.channels as usize],
            blocks,
            geometry,
            timing,
            stats: FlashStats::default(),
            faults: None,
        }
    }

    /// Arm deterministic fault injection. Transient read/program faults
    /// are retried *in-device* (each retry re-pays the die time, bounded
    /// by `cfg.max_retries`, after which the transient condition has
    /// cleared by definition); permanent program faults mark the block bad
    /// and surface as [`FlashError::ProgramFailed`] for the FTL to retire,
    /// remap, and rewrite. `rng` should be forked from the fault plan's
    /// master seed (`FaultPlan::rng_for`); the unarmed array makes zero
    /// extra draws and behaves bit-identically.
    pub fn arm_faults(&mut self, cfg: FlashFaultConfig, mut rng: DetRng) {
        use simkit::faults::site;
        self.faults = Some(FlashFaults {
            read: FaultHook::armed(rng.fork(site::FLASH_READ), cfg.transient_read),
            program: FaultHook::armed(rng.fork(site::FLASH_PROGRAM), cfg.transient_program),
            permanent: FaultHook::armed(rng.fork(site::FLASH_PERMANENT), cfg.permanent_program),
            cfg,
        });
    }

    /// The geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The timing constants.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Operation counters.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    fn die_index(&self, die: DieAddr) -> usize {
        (die.channel * self.geometry.dies_per_channel + die.die) as usize
    }

    fn block_index(&self, b: BlockAddr) -> usize {
        (self.die_index(b.die) * self.geometry.blocks_per_die as usize) + b.block as usize
    }

    /// When the channel bus of `channel` next goes idle.
    pub fn bus_busy_until(&self, channel: u32) -> SimTime {
        self.buses[channel as usize].busy_until()
    }

    /// When `die` next goes idle.
    pub fn die_busy_until(&self, die: DieAddr) -> SimTime {
        self.dies[self.die_index(die)].busy_until()
    }

    /// Whether `block` is marked bad.
    pub fn is_bad(&self, block: BlockAddr) -> bool {
        self.blocks[self.block_index(block)].bad
    }

    /// Next programmable page of `block`.
    pub fn next_page(&self, block: BlockAddr) -> u32 {
        self.blocks[self.block_index(block)].next_page
    }

    /// Program one page. Bus transfer from `now` (or when the bus frees),
    /// then `t_prog` on the die. Enforces in-order page programming.
    pub fn program(&mut self, now: SimTime, ppa: Ppa) -> Result<OpOutcome, FlashError> {
        if !ppa.in_bounds(&self.geometry) {
            return Err(FlashError::OutOfBounds(ppa));
        }
        let bi = self.block_index(ppa.block);
        if self.blocks[bi].bad {
            return Err(FlashError::BadBlock(ppa.block));
        }
        if self.blocks[bi].next_page != ppa.page {
            return Err(FlashError::OutOfOrderProgram {
                got: ppa.page,
                expected: self.blocks[bi].next_page,
            });
        }
        let xfer = self.timing.page_transfer(self.geometry.page_bytes);
        let bus = self.buses[ppa.channel() as usize].acquire(now, xfer);
        let di = self.die_index(ppa.die());
        let die = self.dies[di].acquire(bus.end, self.timing.t_prog);
        self.blocks[bi].next_page += 1;
        self.stats.programs += 1;
        let mut end = die.end;
        if let Some(f) = self.faults.as_mut() {
            if f.permanent.fire() {
                // Injected permanent failure: the block is grown bad and
                // the FTL must retire + remap + rewrite (paper §7.1).
                self.blocks[bi].bad = true;
                self.stats.program_failures += 1;
                return Err(FlashError::ProgramFailed(ppa.block));
            }
            // Transient program faults clear on retry; each in-device
            // retry re-pays the die program time (bounded).
            let mut retries = 0u32;
            while retries < f.cfg.max_retries && f.program.fire() {
                retries += 1;
                end = self.dies[di].acquire(end, self.timing.t_prog).end;
            }
            self.stats.transient_program_retries += u64::from(retries);
        }
        Ok(OpOutcome { grant: Grant { start: bus.start, end } })
    }

    /// Read one page. `t_read` on the die, then the bus transfer out.
    pub fn read(&mut self, now: SimTime, ppa: Ppa) -> Result<OpOutcome, FlashError> {
        if !ppa.in_bounds(&self.geometry) {
            return Err(FlashError::OutOfBounds(ppa));
        }
        let bi = self.block_index(ppa.block);
        if self.blocks[bi].bad {
            return Err(FlashError::BadBlock(ppa.block));
        }
        if ppa.page >= self.blocks[bi].next_page {
            return Err(FlashError::ReadUnwritten(ppa));
        }
        let di = self.die_index(ppa.die());
        let mut die = self.dies[di].acquire(now, self.timing.t_read);
        let die_start = die.start;
        if let Some(f) = self.faults.as_mut() {
            // Transient read faults (read-disturb style) are retried
            // in-device before the page leaves the die; each retry
            // re-pays the array sense time (bounded).
            let mut retries = 0u32;
            while retries < f.cfg.max_retries && f.read.fire() {
                retries += 1;
                die = self.dies[di].acquire(die.end, self.timing.t_read);
            }
            self.stats.transient_read_retries += u64::from(retries);
        }
        let xfer = self.timing.page_transfer(self.geometry.page_bytes);
        let bus = self.buses[ppa.channel() as usize].acquire(die.end, xfer);
        self.stats.reads += 1;
        Ok(OpOutcome { grant: Grant { start: die_start, end: bus.end } })
    }
}

impl simkit::Instrument for FlashArray {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("programs", self.stats.programs);
        out.counter("reads", self.stats.reads);
        // A constant: nothing erases (a fresh device). The path stays for
        // the goldens and the benchmark's layer metrics that read it.
        out.counter("erases", 0);
        // Every program failure is an injected one: one count, two paths.
        out.counter("program_failures", self.stats.program_failures);
        // Constants: there is no bit-error/ECC model, the fault plan is the
        // one error source. The paths go at the goldens' single
        // regeneration (ROADMAP item 16).
        out.counter("uncorrectable_reads", 0);
        out.counter("corrected_bits", 0);
        out.counter("retry.read_transient", self.stats.transient_read_retries);
        out.counter("retry.program_transient", self.stats.transient_program_retries);
        out.counter("fault.program_permanent", self.stats.program_failures);
        // Aggregate die occupancy (tPROG/tR residency) plus
        // per-channel bus serialization time.
        let die_busy: u64 = self.dies.iter().map(|d| d.busy_time().as_nanos()).sum();
        out.counter("die_busy_ns", die_busy);
        for (ch, bus) in self.buses.iter().enumerate() {
            out.collect(&format!("bus{ch}"), bus);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> FlashArray {
        FlashArray::new(FlashGeometry::tiny(), FlashTiming::fast(), ReliabilityConfig::perfect(), 7)
    }

    #[test]
    fn program_then_read_round_trip() {
        let mut a = array();
        let ppa = Ppa::new(0, 0, 0, 0);
        let w = a.program(SimTime::ZERO, ppa).unwrap();
        assert!(w.grant.end.as_micros_f64() >= 50.0, "includes t_prog");
        let r = a.read(w.grant.end, ppa).unwrap();
        assert!(r.grant.end > w.grant.end);
        assert_eq!(a.stats().programs, 1);
        assert_eq!(a.stats().reads, 1);
    }

    #[test]
    fn in_order_programming_enforced() {
        let mut a = array();
        a.program(SimTime::ZERO, Ppa::new(0, 0, 0, 0)).unwrap();
        let err = a.program(SimTime::ZERO, Ppa::new(0, 0, 0, 2)).unwrap_err();
        assert_eq!(err, FlashError::OutOfOrderProgram { got: 2, expected: 1 });
        a.program(SimTime::ZERO, Ppa::new(0, 0, 0, 1)).unwrap();
    }

    #[test]
    fn read_of_unwritten_page_errors() {
        let mut a = array();
        let e = a.read(SimTime::ZERO, Ppa::new(0, 0, 0, 0)).unwrap_err();
        assert_eq!(e, FlashError::ReadUnwritten(Ppa::new(0, 0, 0, 0)));
    }

    #[test]
    fn bus_is_shared_but_dies_overlap() {
        let mut a = array();
        // Two programs to different dies on the same channel: bus transfers
        // serialize, die programming overlaps.
        let g1 = a.program(SimTime::ZERO, Ppa::new(0, 0, 0, 0)).unwrap().grant;
        let g2 = a.program(SimTime::ZERO, Ppa::new(0, 1, 0, 0)).unwrap().grant;
        assert!(g2.start >= g1.start);
        let serial_end = g1.end + FlashTiming::fast().t_prog;
        assert!(g2.end < serial_end, "dies must overlap: {} vs {}", g2.end, serial_end);
    }

    #[test]
    fn same_die_operations_serialize() {
        let mut a = array();
        let g1 = a.program(SimTime::ZERO, Ppa::new(0, 0, 0, 0)).unwrap().grant;
        let g2 = a.program(SimTime::ZERO, Ppa::new(0, 0, 0, 1)).unwrap().grant;
        assert!(g2.end.as_nanos() >= g1.end.as_nanos() + FlashTiming::fast().t_prog.as_nanos());
    }

    #[test]
    fn initial_bad_blocks_sampled() {
        let mut rel = ReliabilityConfig::perfect();
        rel.initial_bad_block_rate = 0.5;
        let a = FlashArray::new(FlashGeometry::tiny(), FlashTiming::fast(), rel, 42);
        let g = FlashGeometry::tiny();
        let bad = (0..g.total_blocks())
            .filter(|i| {
                let die_index = i / g.blocks_per_die as u64;
                let b = BlockAddr {
                    die: DieAddr {
                        channel: (die_index / g.dies_per_channel as u64) as u32,
                        die: (die_index % g.dies_per_channel as u64) as u32,
                    },
                    block: (i % g.blocks_per_die as u64) as u32,
                };
                a.is_bad(b)
            })
            .count();
        assert!(bad > 0 && bad < g.total_blocks() as usize);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut a = array();
        assert!(matches!(
            a.program(SimTime::ZERO, Ppa::new(9, 0, 0, 0)),
            Err(FlashError::OutOfBounds(_))
        ));
        assert!(matches!(
            a.read(SimTime::ZERO, Ppa::new(0, 0, 99, 0)),
            Err(FlashError::OutOfBounds(_))
        ));
    }

    #[test]
    fn transient_faults_retry_in_device_and_add_latency() {
        let mut clean = array();
        let mut faulty = array();
        faulty.arm_faults(
            FlashFaultConfig {
                transient_read: 0.5,
                transient_program: 0.5,
                max_retries: 3,
                ..Default::default()
            },
            DetRng::new(5),
        );
        let mut clean_end = SimTime::ZERO;
        let mut faulty_end = SimTime::ZERO;
        for p in 0..16 {
            let ppa = Ppa::new(0, 0, 0, p);
            clean_end = clean.program(SimTime::ZERO, ppa).unwrap().grant.end.max(clean_end);
            faulty_end = faulty.program(SimTime::ZERO, ppa).unwrap().grant.end.max(faulty_end);
        }
        assert!(faulty.stats().transient_program_retries > 0);
        assert!(faulty_end > clean_end, "retries cost die time: {faulty_end} vs {clean_end}");
        for p in 0..16 {
            faulty.read(faulty_end, Ppa::new(0, 0, 0, p)).unwrap();
        }
        assert!(faulty.stats().transient_read_retries > 0);
    }

    #[test]
    fn injected_permanent_fault_grows_bad_block() {
        let mut a = array();
        a.arm_faults(
            FlashFaultConfig { permanent_program: 1.0, max_retries: 3, ..Default::default() },
            DetRng::new(9),
        );
        let ppa = Ppa::new(0, 0, 0, 0);
        let err = a.program(SimTime::ZERO, ppa).unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(ppa.block));
        assert!(a.is_bad(ppa.block));
        assert_eq!(a.stats().program_failures, 1);
    }

    #[test]
    fn unarmed_array_timing_is_unchanged() {
        // Arming at zero rates must not perturb grants either (the hooks
        // draw, but never fire, and fired-path latency is never added).
        let mut plain = array();
        let mut zero = array();
        zero.arm_faults(FlashFaultConfig::default(), DetRng::new(1));
        for p in 0..8 {
            let ppa = Ppa::new(0, 0, 0, p);
            let a = plain.program(SimTime::ZERO, ppa).unwrap().grant;
            let b = zero.program(SimTime::ZERO, ppa).unwrap().grant;
            assert_eq!(a, b);
        }
    }
}
