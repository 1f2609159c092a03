//! Seeded PRNG and order statistics shared by the generators and the
//! report. The PRNG is the benchmark's own (SplitMix64) so the inputs a
//! seed produces never change with the workspace's `rand` stand-in.

/// SplitMix64: tiny, full-period, good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2^-40 for
    /// every `n` the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Median and quartiles of a sample, by the same "exclusive" method as
/// Python's `statistics.quantiles(values, n=4)`, so the numbers printed
/// here can be checked against the driver's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |p: f64| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Position p·(n+1), 1-based, clamped to the sample.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        min: v[0],
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Process CPU seconds so far (user + system, all threads), from
/// `/proc/self/stat`; 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks of 1/100 s.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(q.min, 1.0);
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }
}
