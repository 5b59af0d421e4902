//! Seeded op generators: each workload's op list is a seeded permutation
//! of a fixed query universe. The program under test only ever sees the
//! generated request lines or technology points.

use sram_coopt::Method;
use sram_device::VtFlavor;

/// SplitMix64: tiny, seedable, and identical on every platform.
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift keeps the bias below 2^-32 for the small `n`
        // used here without a rejection loop.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle in place.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Capacities of the search universe: 128 B … 64 KB in powers of two.
pub(crate) const SEARCH_CAPACITIES: [u64; 10] =
    [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536];

/// Objectives of the search universe, by wire name.
pub(crate) const OBJECTIVES: [&str; 4] = ["edp", "ed2p", "delay", "energy"];

/// M1 ops per `search-sweep` pass: 26 of 106 keeps M1 under a quarter
/// of the mix, so the median sits inside the M2 mass.
pub(crate) const SEARCH_M1_OPS: usize = 26;

/// Wire name of a cell flavor.
pub(crate) fn flavor_wire(flavor: VtFlavor) -> &'static str {
    match flavor {
        VtFlavor::Lvt => "lvt",
        VtFlavor::Hvt => "hvt",
    }
}

/// Wire name of a rail method.
pub(crate) fn method_wire(method: Method) -> &'static str {
    match method {
        Method::M1 => "m1",
        Method::M2 => "m2",
    }
}

/// One `optimize` key of the search universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OptimizeKey {
    /// Capacity in bytes.
    pub(crate) capacity_bytes: u64,
    /// Cell flavor.
    pub(crate) flavor: VtFlavor,
    /// Rail method.
    pub(crate) method: Method,
    /// Objective wire name.
    pub(crate) objective: &'static str,
}

impl OptimizeKey {
    /// The request line the program receives.
    pub(crate) fn line(&self) -> String {
        format!(
            r#"{{"op":"optimize","capacity_bytes":{},"flavor":"{}","method":"{}","objective":"{}"}}"#,
            self.capacity_bytes,
            flavor_wire(self.flavor),
            method_wire(self.method),
            self.objective
        )
    }

    /// Whether this key is one of the paper-gap cases: 1, 4 and 16 KB
    /// under M2 and the EDP objective.
    pub(crate) fn is_paper_gap_case(&self) -> bool {
        matches!(self.capacity_bytes, 1024 | 4096 | 16384)
            && self.method == Method::M2
            && self.objective == "edp"
    }
}

/// The whole `optimize` universe (160 keys), in a fixed order.
pub(crate) fn search_universe() -> Vec<OptimizeKey> {
    let mut out = Vec::with_capacity(160);
    for capacity_bytes in SEARCH_CAPACITIES {
        for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
            for method in [Method::M1, Method::M2] {
                for objective in OBJECTIVES {
                    out.push(OptimizeKey {
                        capacity_bytes,
                        flavor,
                        method,
                        objective,
                    });
                }
            }
        }
    }
    out
}

/// One `search-sweep` pass: every M2 key plus a seeded draw of
/// [`SEARCH_M1_OPS`] M1 keys, in seeded order. Every key appears once,
/// so each op misses the result cache.
pub(crate) fn search_ops(seed: u64) -> Vec<OptimizeKey> {
    let mut rng = Rng::new(seed ^ 0x5ea2_c4a1);
    let (m2, mut m1): (Vec<_>, Vec<_>) = search_universe()
        .into_iter()
        .partition(|k| k.method == Method::M2);
    rng.shuffle(&mut m1);
    let mut ops = m2;
    ops.extend(m1.into_iter().take(SEARCH_M1_OPS));
    rng.shuffle(&mut ops);
    ops
}

/// One `fullsim-yield` technology point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FullsimPoint {
    /// Array supply in millivolts.
    pub(crate) vdd_mv: u32,
    /// Cell flavor.
    pub(crate) flavor: VtFlavor,
    /// Rail method.
    pub(crate) method: Method,
    /// Capacity in bytes.
    pub(crate) capacity_bytes: u64,
}

impl FullsimPoint {
    /// A stable text key, used to index the reference outputs.
    pub(crate) fn key(&self) -> String {
        format!(
            "{}mV/{}/{}/{}B",
            self.vdd_mv,
            flavor_wire(self.flavor),
            method_wire(self.method),
            self.capacity_bytes
        )
    }
}

/// Supplies of the `fullsim-yield` universe: 400–500 mV in 10 mV steps.
pub(crate) const FULLSIM_SUPPLIES_MV: std::ops::RangeInclusive<u32> = 400..=500;

/// The nominal supply at which the paper publishes its rail minimums.
pub(crate) const NOMINAL_MV: u32 = 450;

/// The whole `fullsim-yield` universe (132 points), in a fixed order.
pub(crate) fn fullsim_universe() -> Vec<FullsimPoint> {
    let mut out = Vec::with_capacity(132);
    for vdd_mv in FULLSIM_SUPPLIES_MV.step_by(10) {
        for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
            for method in [Method::M1, Method::M2] {
                for capacity_bytes in [1024, 4096, 16384] {
                    out.push(FullsimPoint {
                        vdd_mv,
                        flavor,
                        method,
                        capacity_bytes,
                    });
                }
            }
        }
    }
    out
}

/// One `fullsim-yield` pass: the whole universe in seeded order (so
/// every pass includes the 450 mV points).
pub(crate) fn fullsim_ops(seed: u64) -> Vec<FullsimPoint> {
    let mut rng = Rng::new(seed ^ 0xf011_5113);
    let mut ops = fullsim_universe();
    rng.shuffle(&mut ops);
    ops
}

/// Capacities of the `evaluate-point` universe. From 4 KB up every
/// row count `2 … 512` leaves at least one 64-bit word per row.
const EVAL_CAPACITIES: [u64; 5] = [4096, 8192, 16384, 32768, 65536];
/// Row counts `2^1 … 2^9`.
const EVAL_ROWS: u32 = 9;
/// Rail settings: M1 (no negative rail) plus M2 at `0 … −240 mV`.
const EVAL_RAILS: u64 = 26;
/// `N_pre ∈ 1 … 50`.
const EVAL_NPRE: u64 = 50;
/// `N_wr ∈ 1 … 20`.
const EVAL_NWR: u64 = 20;

/// Size of the `evaluate-point` universe.
pub(crate) const EVAL_UNIVERSE: u64 =
    EVAL_CAPACITIES.len() as u64 * 2 * EVAL_RAILS * EVAL_ROWS as u64 * EVAL_NPRE * EVAL_NWR;

/// The `index`-th point of the `evaluate-point` universe, as a request
/// line (mixed-radix decode; every index gives a distinct valid point).
pub(crate) fn eval_line(index: u64) -> String {
    let mut i = index % EVAL_UNIVERSE;
    let mut digit = |radix: u64| {
        let d = i % radix;
        i /= radix;
        d
    };
    let n_wr = digit(EVAL_NWR) + 1;
    let n_pre = digit(EVAL_NPRE) + 1;
    let rows = 2u32 << digit(u64::from(EVAL_ROWS));
    let rail = digit(EVAL_RAILS);
    let flavor = if digit(2) == 0 { "lvt" } else { "hvt" };
    let capacity = EVAL_CAPACITIES[digit(EVAL_CAPACITIES.len() as u64) as usize];
    let (method, vssc_mv) = if rail == 0 {
        ("m1", 0)
    } else {
        ("m2", -10 * (rail as i64 - 1))
    };
    format!(
        r#"{{"op":"evaluate-point","capacity_bytes":{capacity},"flavor":"{flavor}","method":"{method}","rows":{rows},"vssc_mv":{vssc_mv},"n_pre":{n_pre},"n_wr":{n_wr}}}"#
    )
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A seeded permutation of `0..n` evaluated lazily: `i ↦ (a·i + b) mod n`
/// with `a` coprime to `n`, so the first `n` draws are all distinct.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AffinePerm {
    a: u64,
    b: u64,
    n: u64,
}

impl AffinePerm {
    /// A permutation of `0..n` (`n > 1`) drawn from `rng`.
    pub(crate) fn new(n: u64, rng: &mut Rng) -> Self {
        let mut a = rng.below(n - 1) + 1;
        while gcd(a, n) != 1 {
            a = a % (n - 1) + 1;
        }
        Self {
            a,
            b: rng.below(n),
            n,
        }
    }

    /// The image of `i`.
    pub(crate) fn at(&self, i: u64) -> u64 {
        ((u128::from(self.a) * u128::from(i % self.n) + u128::from(self.b)) % u128::from(self.n))
            as u64
    }
}

/// Hot-set size of `tcp-mixed`: M1 `optimize` keys warmed during set-up.
pub(crate) const TCP_HOT_KEYS: usize = 16;

/// The `tcp-mixed` request stream: pairs of one hot-set `optimize`
/// repeat (a cache read) and one distinct `evaluate-point` (a miss, an
/// array eval and an insert), in seeded order within each pair.
pub(crate) struct TcpStream {
    hot: Vec<OptimizeKey>,
    hot_lines: Vec<String>,
    perm: AffinePerm,
    rng: Rng,
    next_eval: u64,
    pending: Option<(String, bool)>,
}

impl TcpStream {
    /// The stream for `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x7c9_3a1d);
        let mut m1: Vec<OptimizeKey> = search_universe()
            .into_iter()
            .filter(|k| k.method == Method::M1)
            .collect();
        rng.shuffle(&mut m1);
        m1.truncate(TCP_HOT_KEYS);
        let perm = AffinePerm::new(EVAL_UNIVERSE, &mut rng);
        Self {
            hot_lines: m1.iter().map(OptimizeKey::line).collect(),
            hot: m1,
            perm,
            rng,
            next_eval: 0,
            pending: None,
        }
    }

    /// The hot set, warmed during set-up.
    pub(crate) fn hot(&self) -> &[OptimizeKey] {
        &self.hot
    }

    /// The next request line and whether it targets the hot set.
    pub(crate) fn next_op(&mut self) -> (String, bool) {
        if let Some(op) = self.pending.take() {
            return op;
        }
        let hot = (
            self.hot_lines[self.rng.below(self.hot.len() as u64) as usize].clone(),
            true,
        );
        let eval = (eval_line(self.perm.at(self.next_eval)), false);
        self.next_eval += 1;
        let (first, second) = if self.rng.below(2) == 0 {
            (hot, eval)
        } else {
            (eval, hot)
        };
        self.pending = Some(second);
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sorted<T: Ord + Clone>(v: &[T]) -> Vec<T> {
        let mut v = v.to_vec();
        v.sort();
        v
    }

    #[test]
    fn same_seed_same_search_ops() {
        assert_eq!(search_ops(7), search_ops(7));
    }

    #[test]
    fn different_seed_reorders_the_same_m2_universe() {
        let a = search_ops(1);
        let b = search_ops(2);
        assert_ne!(a, b);
        let m2 = |ops: &[OptimizeKey]| {
            sorted(
                &ops.iter()
                    .filter(|k| k.method == Method::M2)
                    .map(OptimizeKey::line)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(m2(&a), m2(&b));
    }

    #[test]
    fn search_pass_has_distinct_keys_and_m1_minority() {
        for seed in 0..20 {
            let ops = search_ops(seed);
            let lines: HashSet<String> = ops.iter().map(OptimizeKey::line).collect();
            assert_eq!(lines.len(), ops.len(), "a key repeats within a pass");
            assert!(ops.len() >= 100);
            let m1 = ops.iter().filter(|k| k.method == Method::M1).count();
            assert!(4 * m1 <= ops.len(), "M1 is {m1} of {}", ops.len());
            assert_eq!(ops.iter().filter(|k| k.is_paper_gap_case()).count(), 6);
        }
    }

    #[test]
    fn fullsim_is_a_seeded_permutation_of_its_universe() {
        let a = fullsim_ops(3);
        assert_eq!(a, fullsim_ops(3));
        let b = fullsim_ops(4);
        assert_ne!(a, b);
        let keys =
            |ops: &[FullsimPoint]| sorted(&ops.iter().map(FullsimPoint::key).collect::<Vec<_>>());
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(keys(&a), keys(&fullsim_universe()));
        assert_eq!(a.iter().filter(|p| p.vdd_mv == NOMINAL_MV).count(), 12);
    }

    #[test]
    fn affine_perm_is_a_bijection() {
        let mut rng = Rng::new(11);
        for n in [2u64, 10, 97, 360, 1000] {
            let p = AffinePerm::new(n, &mut rng);
            let seen: HashSet<u64> = (0..n).map(|i| p.at(i)).collect();
            assert_eq!(seen.len() as u64, n);
        }
    }

    #[test]
    fn eval_lines_are_distinct_over_the_universe_prefix() {
        let mut stream = TcpStream::new(5);
        let mut evals = HashSet::new();
        let mut hot = 0;
        for _ in 0..20_000 {
            let (line, is_hot) = stream.next_op();
            if is_hot {
                hot += 1;
            } else {
                assert!(evals.insert(line), "evaluate-point key repeated");
            }
        }
        assert_eq!(hot, 10_000);
    }

    #[test]
    fn tcp_stream_is_seeded() {
        let take = |seed| {
            let mut s = TcpStream::new(seed);
            (0..64).map(|_| s.next_op().0).collect::<Vec<_>>()
        };
        assert_eq!(take(9), take(9));
        assert_ne!(take(9), take(10));
    }

    #[test]
    fn eval_lines_parse_as_requests() {
        for i in [0, 1, EVAL_UNIVERSE / 3, EVAL_UNIVERSE - 1] {
            let line = eval_line(i);
            assert!(sram_serve::Request::from_line(&line).is_ok(), "{line}");
        }
    }
}
