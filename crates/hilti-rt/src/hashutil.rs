//! Hashing utilities: FNV-1a and 5-tuple flow hashing.
//!
//! HILTI's ID-based thread model "maps directly to hash-based load-balancing
//! schemes" (§3.2): to parallelize flow processing one hashes the flow's
//! 5-tuple into an integer and interprets it as a virtual-thread ID. The
//! hash must be *symmetric* in the endpoint pair so that both directions of
//! a connection land on the same thread — the property Suricata's and Bro's
//! flow hashing relies on.

use crate::addr::{Addr, Port};

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, data)
}

/// FNV-1a continuing from a previous state (for hashing in pieces).
pub fn fnv1a_continue(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Hashes a flow 5-tuple symmetrically: `(a,pa) <-> (b,pb)` order does not
/// matter, so both directions of a connection map to the same value.
pub fn flow_hash(a: Addr, pa: Port, b: Addr, pb: Port) -> u64 {
    // Canonicalize endpoint order before hashing.
    let ((a1, p1), (a2, p2)) = if (a.raw(), pa.number) <= (b.raw(), pb.number) {
        ((a, pa), (b, pb))
    } else {
        ((b, pb), (a, pa))
    };
    let mut h = FNV_OFFSET;
    h = fnv1a_continue(h, &a1.raw().to_be_bytes());
    h = fnv1a_continue(h, &p1.number.to_be_bytes());
    h = fnv1a_continue(h, &a2.raw().to_be_bytes());
    h = fnv1a_continue(h, &p2.number.to_be_bytes());
    h = fnv1a_continue(h, &[p1.protocol as u8]);
    // FNV's low bits mix poorly for structured input; finalize with an
    // avalanche pass so `hash % n_threads` balances well.
    mix64(h)
}

/// SplitMix64 finalizer: full-avalanche mixing of a 64-bit value.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference values for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_continue_composes() {
        let whole = fnv1a(b"hello world");
        let split = fnv1a_continue(fnv1a(b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn flow_hash_is_symmetric() {
        let a = Addr::v4(10, 0, 0, 1);
        let b = Addr::v4(192, 168, 1, 1);
        let h1 = flow_hash(a, Port::tcp(1234), b, Port::tcp(80));
        let h2 = flow_hash(b, Port::tcp(80), a, Port::tcp(1234));
        assert_eq!(h1, h2);
    }

    #[test]
    fn flow_hash_distinguishes_flows() {
        let a = Addr::v4(10, 0, 0, 1);
        let b = Addr::v4(192, 168, 1, 1);
        let h1 = flow_hash(a, Port::tcp(1234), b, Port::tcp(80));
        let h2 = flow_hash(a, Port::tcp(1235), b, Port::tcp(80));
        let h3 = flow_hash(a, Port::udp(1234), b, Port::udp(80));
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn flow_hash_spreads_over_buckets() {
        // Sanity: 10k distinct flows over 8 buckets should not collapse.
        let mut counts = [0usize; 8];
        for i in 0..10_000u32 {
            let a = Addr::from_v4_u32(0x0a00_0000 | i);
            let b = Addr::v4(192, 168, 0, 1);
            let h = flow_hash(a, Port::tcp(40000 + (i % 1000) as u16), b, Port::tcp(80));
            counts[(h % 8) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "bucket too empty: {counts:?}");
        }
    }

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // mix64 of successive multiples of 2^64/φ is SplitMix64's
        // published stream for seed 0, the seeding `rng::Rng` relies on.
        assert_eq!(mix64(0), 0);
        let golden = 0x9e37_79b9_7f4a_7c15u64;
        let stream = [1u64, 2, 3, 4].map(|k| mix64(golden.wrapping_mul(k)));
        assert_eq!(
            stream,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ]
        );
    }

    #[test]
    fn mix64_avalanches() {
        // Flipping one input bit flips about half of the output bits.
        let mut flipped = 0u32;
        let mut pairs = 0u32;
        for x in 0..256u64 {
            let x = x.wrapping_mul(0x0123_4567_89ab_cdef);
            for bit in 0..64 {
                flipped += (mix64(x) ^ mix64(x ^ 1 << bit)).count_ones();
                pairs += 1;
            }
        }
        let mean = f64::from(flipped) / f64::from(pairs);
        assert!((31.0..=33.0).contains(&mean), "{mean}");
    }
}
