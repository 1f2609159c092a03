//! The workspace's one seeded pseudo-random generator.
//!
//! Synthetic traces (`netpkt::synth`), property tests and randomized
//! differential tests all draw from [`Rng`], so a seed names one stream
//! everywhere. The generator is xoshiro256++ with its state expanded from
//! the seed by SplitMix64. It is deterministic and fast, and nothing in
//! the workspace uses it where unpredictability matters.

use crate::hashutil::{fnv1a, mix64};

/// The SplitMix64 increment (2^64 / φ).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// xoshiro256++ seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: SplitMix64 expands it into the four
    /// state words.
    pub fn new(seed: u64) -> Rng {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(GOLDEN);
            mix64(state)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The generator for case `case` of the property test `test`: each
    /// test has its own stream per case, independent of execution order.
    pub fn for_case(test: &str, case: u32) -> Rng {
        Rng::new(fnv1a(test.as_bytes()) ^ (u64::from(case) << 1 | 1).wrapping_mul(GOLDEN))
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A value in `0..n` by one 128-bit multiply (Lemire's method without
    /// the rejection step: the bias is below 2^-64). `n` must not be 0.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Fills `buf` with the little-endian bytes of successive draws; a
    /// partial tail takes the low bytes of one more.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let len = tail.len();
            tail.copy_from_slice(&self.next_u64().to_le_bytes()[..len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    // Known answers: every synthetic trace, and so every benchmark
    // workload and pinned count, is drawn from these streams.

    #[test]
    fn first_outputs_of_seeds_0_and_42() {
        let first8 = |seed| {
            let mut rng = Rng::new(seed);
            [(); 8].map(|()| rng.next_u64())
        };
        assert_eq!(
            first8(0),
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
                0x7eca_04eb_af4a_5eea,
                0x0543_c377_57f0_8d9a,
                0xdb74_90c7_5ab5_026e,
                0xd873_43e6_464b_c959,
            ]
        );
        assert_eq!(
            first8(42),
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8,
                0xcb23_1c38_7484_6a73,
                0x968d_9f00_4e50_de7d,
                0x2017_18ff_221a_3556,
                0x9ae9_4e07_0ed8_cb46,
            ]
        );
    }

    #[test]
    fn below_and_chance() {
        let mut rng = Rng::new(7);
        assert_eq!([(); 4].map(|()| rng.below(1)), [0; 4]);
        assert_eq!([(); 8].map(|()| rng.below(3)), [2, 1, 2, 0, 2, 0, 0, 0]);
        assert_eq!(
            [(); 4].map(|()| rng.below(u64::MAX)),
            [
                0xbbdb_df06_2e10_c408,
                0x1cf3_305d_746a_1ca6,
                0x7ea0_68f1_c1c8_824e,
                0x18e7_1892_7f54_e75a,
            ]
        );
        let mut rng = Rng::new(9);
        let hits = [(); 16].map(|()| u8::from(rng.chance(1, 3)));
        assert_eq!(hits, [0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn fill_takes_the_tail_from_one_more_draw() {
        let mut rng = Rng::new(3);
        let mut buf = [0u8; 37];
        rng.fill(&mut buf);
        assert_eq!(
            buf,
            [
                0x29, 0x69, 0x19, 0xb9, 0x91, 0xeb, 0x2b, 0x0d, 0x24, 0x69, 0x30, 0x6e, 0x9f, 0xec,
                0xdd, 0xa5, 0x9f, 0xe5, 0xe3, 0x68, 0x42, 0xa2, 0xf4, 0xdd, 0x37, 0xaf, 0x25, 0xd5,
                0x38, 0x47, 0x46, 0xd8, 0x46, 0x2a, 0x97, 0x96, 0x1e,
            ]
        );
        assert_eq!(rng.next_u64(), 0x1c77_4512_120f_b86b);
    }

    #[test]
    fn cases_have_their_own_stable_streams() {
        let first = [0, 1, 2, 3].map(|case| Rng::for_case("fixed_name", case).next_u64());
        assert_eq!(
            first,
            [
                0x9bf1_6d3a_0c5d_be53,
                0xf8a9_8bdf_d050_4d3f,
                0xcc09_d816_9c3e_ae41,
                0xb574_0b5d_7067_f77c,
            ]
        );
    }

    // Properties of the generator itself: a known answer shows the stream
    // did not move, these show it is one a test can draw from.

    #[test]
    fn a_seed_names_one_stream() {
        let mut a = Rng::new(11);
        let mut b = Rng::new(11);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), c.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_start_distinct_streams() {
        let mut first: Vec<u64> = (0..4096).map(|seed| Rng::new(seed).next_u64()).collect();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), 4096);
    }

    #[test]
    fn case_streams_depend_on_name_and_case() {
        let mut first: Vec<u64> = (0..4096)
            .map(|case| Rng::for_case("fixed_name", case).next_u64())
            .collect();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), 4096);
        for case in 0..64 {
            assert_ne!(
                Rng::for_case("fixed_name", case).next_u64(),
                Rng::for_case("fixed_namf", case).next_u64(),
                "case {case}"
            );
        }
    }

    #[test]
    fn below_stays_below_its_bound() {
        let mut rng = Rng::new(5);
        for n in (1..=1_000).chain([1 << 32, (1 << 63) + 1, u64::MAX]) {
            for _ in 0..20 {
                assert!(rng.below(n) < n, "below({n})");
            }
        }
    }

    #[test]
    fn below_spreads_evenly() {
        let mut rng = Rng::new(6);
        let mut buckets = [0u32; 6];
        for _ in 0..60_000 {
            buckets[rng.below(6) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((9_500..=10_500).contains(&b), "bucket {i}: {buckets:?}");
        }
    }

    #[test]
    fn chance_is_certain_at_the_ends() {
        let mut rng = Rng::new(8);
        for den in 1..=50 {
            assert!(!rng.chance(0, den), "0/{den}");
            assert!(rng.chance(den, den), "{den}/{den}");
            assert!(rng.chance(den + 1, den), "{}/{den}", den + 1);
        }
    }

    #[test]
    fn chance_hits_at_its_rate() {
        let mut rng = Rng::new(10);
        let hits = (0..100_000).filter(|_| rng.chance(1, 10)).count();
        assert!((9_500..=10_500).contains(&hits), "{hits}");
    }

    #[test]
    fn every_output_bit_is_balanced() {
        let mut rng = Rng::new(12);
        let mut ones = [0u32; 64];
        for _ in 0..20_000 {
            let x = rng.next_u64();
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += (x >> bit) as u32 & 1;
            }
        }
        for (bit, &count) in ones.iter().enumerate() {
            assert!((9_500..=10_500).contains(&count), "bit {bit}: {count}");
        }
    }

    #[test]
    fn fill_is_successive_little_endian_draws() {
        for len in 0..=40 {
            let mut filled = Rng::new(len as u64);
            let mut buf = vec![0u8; len];
            filled.fill(&mut buf);
            let mut drawn = Rng::new(len as u64);
            let mut want = Vec::new();
            while want.len() < len {
                want.extend_from_slice(&drawn.next_u64().to_le_bytes());
            }
            want.truncate(len);
            assert_eq!(buf, want, "len {len}");
            assert_eq!(filled.next_u64(), drawn.next_u64(), "len {len}");
        }
    }
}
