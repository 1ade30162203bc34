//! Deterministic randomness for workloads and fault injection.
//!
//! Every stochastic choice in the workspace draws from a [`DetRng`] seeded
//! explicitly, so any experiment or failing test can be replayed bit-for-bit.

/// A small, fast, explicitly seeded RNG.
///
/// The core is xoshiro256++ (Blackman & Vigna) with SplitMix64 seed
/// expansion — self-contained so the workspace carries no external RNG
/// dependency, and bit-for-bit reproducible across platforms.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Seeded construction; equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        DetRng {
            state: [splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s)],
        }
    }

    fn next(&mut self) -> u64 {
        let out =
            self.state[0].wrapping_add(self.state[3]).rotate_left(23).wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        out
    }

    /// Derive an independent child stream, e.g. one per worker thread, so
    /// adding a consumer does not perturb the others' draws.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let s = self.next() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(s)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next();
        }
        // Debiased modular reduction: reject draws from the tail that would
        // over-weight low residues.
        let n = span + 1;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next();
            if v < zone {
                return lo + v % n;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` as i64.
    pub fn uniform_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi}]");
        let span = (hi as i128 - lo as i128) as u64;
        if span == u64::MAX {
            return self.next() as i64;
        }
        (lo as i128 + self.uniform(0, span) as i128) as i64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.unit() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        let i = self.uniform(0, items.len() as u64 - 1) as usize;
        &items[i]
    }

    /// Exponentially distributed value with the given mean (for inter-arrival
    /// times). Clamped away from infinity.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u = self.unit().max(1e-12);
        -mean * u.ln()
    }

    /// A raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

/// Zipfian rank chooser over `[0, n)` — the YCSB hot-key distribution.
///
/// Gray et al.'s "Quickly generating billion-record synthetic databases"
/// inverse-CDF approximation (the construction YCSB's `ZipfianGenerator`
/// uses) defines the rank of every 53-bit draw: `new` tabulates it once,
/// and a sample is one 53-bit draw (the integer [`DetRng::unit`] scales by
/// 2⁻⁵³) and a table lookup, with no transcendental call. `theta = 0` is
/// the uniform distribution; YCSB's default skew is `theta = 0.99`. Rank 0
/// is the most popular item — callers that want popular items scattered
/// through the keyspace hash the rank (cf. YCSB's *scrambled* zipfian).
///
/// The table holds, for each rank `r` in `1..n`, the smallest draw whose
/// rank is at least `r`. Every IEEE step of the formula is monotone in the
/// draw, so the number of thresholds at or below a draw is the formula's
/// rank for it, draw for draw. (At `n = 2` the formula's `η` is 0/0, and
/// for some `theta` its top draws read rank 0 from a NaN; the table answers
/// 1 there.)
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    /// `thresholds[r - 1]`: the smallest draw of rank `r` or more
    /// ([`DRAWS`] when no draw reaches it); non-decreasing.
    thresholds: Vec<u64>,
    /// `bucket_start[b]`: the thresholds below bucket `b`'s first draw,
    /// `b << shift`.
    bucket_start: Vec<u32>,
    shift: u32,
    formula_evals: u64,
}

/// The draws are the integers `[0, 2⁵³)`.
const DRAWS: u64 = 1 << 53;

/// Gray et al.'s closed form over a 53-bit draw: the table's builder and
/// the tests' oracle.
struct Gray {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Gray {
    fn new(n: u64, theta: f64) -> Self {
        let zeta = |upto: u64| (1..=upto).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let zeta_2 = zeta(2.min(n));
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Gray { n, alpha, zeta_n, eta, half_pow_theta: 0.5f64.powf(theta) }
    }

    /// Draw `k` as the uniform variate in `[0, 1)` that [`DetRng::unit`]
    /// makes of it.
    fn unit(k: u64) -> f64 {
        k as f64 * (1.0 / DRAWS as f64)
    }

    /// The power's base for variate `u`.
    fn base(&self, u: f64) -> f64 {
        self.eta * u - self.eta + 1.0
    }

    /// `n · base^α`, whose integer part is the rank past the head ranks:
    /// one evaluation of the closed form, one `powf`.
    fn scaled(&self, base: f64, evals: &mut u64) -> f64 {
        *evals += 1;
        self.n as f64 * base.powf(self.alpha)
    }

    /// The rank of draw `k`.
    #[cfg(test)]
    fn rank_of(&self, k: u64) -> u64 {
        let u = Self::unit(k);
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1.min(self.n - 1);
        }
        let rank = self.scaled(self.base(u), &mut 0) as u64;
        rank.min(self.n - 1)
    }

    /// `thresholds[r - 1]` for every rank `r` in `1..n`.
    ///
    /// Rank 1 starts where `u · ζₙ` reaches 1: past the head cut the
    /// closed form starts at about 2 (and is a NaN at `n = 2`). From the head
    /// cut on, where `u · ζₙ` reaches `1 + 0.5^θ`, a draw's rank is at
    /// least `r ≥ 2` exactly when its base reaches `b_r`, the smallest float
    /// with `n · b_r^α ≥ r`. Each search starts from the formula's inverse
    /// (one `powf`) and from the previous rank's answer, so `b_r` costs
    /// about two evaluations and the first draw whose base reaches it none.
    fn thresholds(&self, evals: &mut u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n as usize - 1);
        if self.n == 1 {
            return out;
        }
        let draw_of = |u: f64| (u * DRAWS as f64).ceil() as u64;
        let cut = |at: f64| {
            let guess = draw_of(at / self.zeta_n);
            first_true(0, DRAWS, guess, |k| Self::unit(k) * self.zeta_n >= at)
        };
        out.push(cut(1.0));
        let (mut base_bits, mut draw) = (0, cut(1.0 + self.half_pow_theta));
        for r in 2..self.n {
            let guess = (r as f64 / self.n as f64).powf(1.0 / self.alpha);
            base_bits = first_true(base_bits, 1f64.to_bits(), guess.to_bits(), |bits| {
                self.scaled(f64::from_bits(bits), evals) >= r as f64
            });
            let b = f64::from_bits(base_bits);
            let guess = draw_of(1.0 + (b - 1.0) / self.eta);
            draw = first_true(draw, DRAWS, guess, |k| self.base(Self::unit(k)) >= b);
            out.push(draw);
        }
        out
    }
}

/// The smallest `x` in `[lo, hi]` with `pred(x)`, for a `pred` that is
/// false and then true over `[lo, hi]` and is taken as true at `hi`
/// without a call: gallop away from `guess` until the answer is
/// bracketed, then bisect.
fn first_true(lo: u64, hi: u64, guess: u64, mut pred: impl FnMut(u64) -> bool) -> u64 {
    let (mut a, mut b) = (lo, hi);
    if a == b {
        return a;
    }
    let guess = guess.clamp(lo, hi - 1);
    let mut step = 1;
    if pred(guess) {
        b = guess;
        while a < b {
            let c = b.saturating_sub(step).max(a);
            if !pred(c) {
                a = c + 1;
                break;
            }
            b = c;
            step *= 2;
        }
    } else {
        a = guess + 1;
        while a < b {
            let c = (a + step - 1).min(b - 1);
            if pred(c) {
                b = c;
                break;
            }
            a = c + 1;
            step *= 2;
        }
    }
    while a < b {
        let m = a + (b - a) / 2;
        if pred(m) {
            b = m;
        } else {
            a = m + 1;
        }
    }
    b
}

impl Zipfian {
    /// Chooser over ranks `[0, n)` with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "zipfian needs a non-empty universe");
        assert!(n <= u32::MAX as u64, "zipfian universe {n} exceeds u32::MAX");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1), got {theta}");
        let mut formula_evals = 0;
        let thresholds = Gray::new(n, theta).thresholds(&mut formula_evals);
        // About two buckets per rank, at most 2²⁰: a draw scans a handful
        // of thresholds past its bucket's first.
        let bits = (u64::BITS - (n - 1).leading_zeros() + 1).min(20);
        let shift = DRAWS.trailing_zeros() - bits;
        let mut below = 0;
        let bucket_start = (0..1u64 << bits)
            .map(|b| {
                below += thresholds[below..].iter().take_while(|&&t| t < b << shift).count();
                below as u32
            })
            .collect();
        Zipfian { n, thresholds, bucket_start, shift, formula_evals }
    }

    /// The universe size the chooser was built for.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// Evaluations of the closed form past the two head ranks so far, each
    /// one a `powf`: all of them made by `new`.
    pub fn formula_evals(&self) -> u64 {
        self.formula_evals
    }

    /// Draw one rank in `[0, n)`; rank 0 is the hottest. Consumes one
    /// `next_u64`, as [`DetRng::unit`] does.
    pub fn next(&self, rng: &mut DetRng) -> u64 {
        self.lookup(rng.next_u64() >> 11)
    }

    /// The rank of 53-bit draw `k`: the thresholds at or below it.
    fn lookup(&self, k: u64) -> u64 {
        let first = self.bucket_start[(k >> self.shift) as usize] as usize;
        let rest = self.thresholds[first..].iter().take_while(|&&t| t <= k).count();
        (first + rest) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = DetRng::new(7);
        for _ in 0..1000 {
            let x = r.uniform(10, 20);
            assert!((10..=20).contains(&x));
        }
        assert_eq!(r.uniform(5, 5), 5);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = DetRng::new(9);
        let mut root2 = DetRng::new(9);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        // A differently salted fork differs.
        let mut root3 = DetRng::new(9);
        let mut c3 = root3.fork(2);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn pick_covers_slice() {
        let mut r = DetRng::new(13);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn zipfian_is_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = DetRng::new(seed);
            let z = Zipfian::new(1000, 0.9);
            (0..500).map(|_| z.next(&mut rng)).collect()
        };
        let a = draw(0x21bf);
        assert_eq!(a, draw(0x21bf));
        // A different seed must produce a different stream.
        assert_ne!(a, draw(0x21c0));
    }

    #[test]
    fn zipfian_stays_in_bounds() {
        let mut rng = DetRng::new(17);
        for &n in &[1u64, 2, 3, 1000] {
            let z = Zipfian::new(n, 0.99);
            for _ in 0..2000 {
                assert!(z.next(&mut rng) < n);
            }
        }
    }

    /// Every universe and skew the workspace builds a chooser for: YCSB's
    /// 8 192 rows at θ 0.8 (the default, and `Latest`'s) and 0.99 (the
    /// point-read probe), `Latest`'s floor θ 0.01, the 1 000-row sweep of
    /// `ycsb.rs`'s tests, this module's own tests, and one and two ranks.
    const BUILT: &[(u64, f64)] = &[
        (8192, 0.8),
        (8192, 0.99),
        (8192, 0.01),
        (1000, 0.99),
        (1000, 0.9),
        (10_000, 0.0),
        (10_000, 0.5),
        (10_000, 0.8),
        (10_000, 0.99),
        (50, 0.0),
        (50, 0.99),
        (3, 0.99),
        (2, 0.99),
        (2, 0.8),
        (1, 0.99),
    ];

    /// The smallest draw `k` with `pred(k)` (`DRAWS` if none): `pred` is
    /// false, then true. A plain bisection, apart from `first_true`.
    fn first_draw(pred: impl Fn(u64) -> bool) -> u64 {
        let (mut a, mut b) = (0, DRAWS);
        while a < b {
            let m = a + (b - a) / 2;
            if pred(m) {
                b = m;
            } else {
                a = m + 1;
            }
        }
        b
    }

    /// The table answers the closed form's rank at every threshold and the
    /// draw below it, around the two head-rank cuts, at both ends of the
    /// draw space and on 2²⁰ seeded draws.
    #[test]
    fn zipfian_table_reproduces_the_formula() {
        let draws_per_case = (1 << 20) / BUILT.len() as u64 + 1;
        for &(n, theta) in BUILT {
            let z = Zipfian::new(n, theta);
            let gray = Gray::new(n, theta);
            let check = |k: u64| {
                let want = gray.rank_of(k);
                assert_eq!(z.lookup(k), want, "n {n} theta {theta}: draw {k}");
            };
            let uz = |k: u64| Gray::unit(k) * gray.zeta_n;
            let head_cuts =
                [first_draw(|k| uz(k) >= 1.0), first_draw(|k| uz(k) >= 1.0 + gray.half_pow_theta)];
            let near = |k: u64| [k.saturating_sub(1), k, k + 1];
            let edges = head_cuts.iter().flat_map(|&c| near(c)).chain([0, DRAWS - 1]);
            for k in edges.filter(|&k| k < DRAWS) {
                check(k);
            }
            for &t in z.thresholds.iter().filter(|&&t| t < DRAWS) {
                check(t);
                check(t.saturating_sub(1));
            }
            let mut rng = DetRng::new(n ^ theta.to_bits());
            for _ in 0..draws_per_case {
                check(rng.next_u64() >> 11);
            }
        }
    }

    /// At `n = 2` and θ 0.011 the draws above `1 + 0.5^θ` reach the `powf`
    /// branch, whose `η` is 0/0: the formula reads rank 0 from a NaN.
    #[test]
    fn zipfian_two_ranks_answer_one_where_the_formula_reads_nan() {
        let (z, gray) = (Zipfian::new(2, 0.011), Gray::new(2, 0.011));
        assert!(gray.eta.is_nan());
        assert_eq!(gray.rank_of(DRAWS - 1), 0);
        assert_eq!(z.lookup(DRAWS - 1), 1);
    }

    #[test]
    fn zipfian_draw_takes_one_next_u64() {
        for &(n, theta) in BUILT {
            let z = Zipfian::new(n, theta);
            let mut rng = DetRng::new(n);
            let mut twin = rng.clone();
            for _ in 0..100 {
                z.next(&mut rng);
                twin.next_u64();
            }
            assert_eq!(rng.next_u64(), twin.next_u64(), "n {n} theta {theta}");
        }
    }

    /// The inverse's guess lands within a float step or two of each rank's
    /// base, so building the table costs about two closed-form evaluations
    /// per rank.
    #[test]
    fn zipfian_table_costs_at_most_eight_evaluations_per_rank() {
        for &(n, theta) in BUILT {
            let evals = Zipfian::new(n, theta).formula_evals();
            assert!(evals <= 8 * (n - 1), "n {n} theta {theta}: {evals} evaluations");
        }
    }

    /// More skew ⇒ more probability mass on the hottest ranks: the share
    /// of draws landing in the top 1% of ranks must grow monotonically
    /// with `theta`.
    #[test]
    fn zipfian_skew_is_monotone_in_theta() {
        let hot_share = |theta: f64| -> f64 {
            let n = 10_000u64;
            let mut rng = DetRng::new(0x21bf);
            let z = Zipfian::new(n, theta);
            let draws = 20_000;
            let hot = (0..draws).filter(|_| z.next(&mut rng) < n / 100).count();
            hot as f64 / draws as f64
        };
        let shares: Vec<f64> = [0.0, 0.5, 0.8, 0.99].iter().map(|&t| hot_share(t)).collect();
        for w in shares.windows(2) {
            assert!(w[0] < w[1], "hot-key share not monotone in theta: {shares:?}");
        }
        // theta = 0 is uniform: the top 1% of ranks get ~1% of draws.
        assert!((0.005..0.02).contains(&shares[0]), "theta=0 share {}", shares[0]);
    }

    /// Chi-squared sanity check against the uniform chooser: `theta = 0`
    /// draws must be statistically compatible with a flat histogram, and
    /// skewed draws must reject it by orders of magnitude.
    #[test]
    fn zipfian_chi_squared_vs_uniform() {
        let chi2 = |theta: f64| -> f64 {
            let bins = 50u64;
            let draws = 50_000u64;
            let mut rng = DetRng::new(0xC417);
            let z = Zipfian::new(bins, theta);
            let mut counts = vec![0u64; bins as usize];
            for _ in 0..draws {
                counts[z.next(&mut rng) as usize] += 1;
            }
            let expected = draws as f64 / bins as f64;
            counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
        };
        // 49 degrees of freedom: P(chi2 > 90) < 0.0005 for a true uniform.
        let flat = chi2(0.0);
        assert!(flat < 90.0, "uniform chooser failed its own chi-squared test: {flat}");
        let skewed = chi2(0.99);
        assert!(skewed > 1_000.0, "zipfian draws look uniform: chi2 = {skewed}");
    }
}
