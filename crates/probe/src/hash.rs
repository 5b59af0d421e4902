//! The workspace's two non-cryptographic hashes.
//!
//! * [`fnv1a64`] content-addresses bytes: serve cache keys, the
//!   per-point fault streams (`plan.seed ^ fnv1a64(point)`) and the
//!   cluster ring's member hashes.
//! * [`splitmix64`] mixes one 64-bit word: ring placement, the seeded
//!   trace-sampling decision and trace ids.
//!
//! Both are pure functions of their input, so everything built on them
//! replays bit-identically across runs, threads and platforms.

/// 64-bit FNV-1a. Collisions are tolerated by every caller (the serve
/// cache also stores the canonical string), so a small, std-only hash
/// is enough.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer: a fast, full-avalanche 64-bit mixer. FNV-1a
/// hashes of short strings correlate in their low bits; one round
/// disperses them uniformly, and hashing `seed ^ key` makes a seeded
/// decision a pure function of the two.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_matches_recorded_values() {
        // A change here moves ring placement, the sampled trace subset
        // and every trace id.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(2), 0x9758_35de_1c97_56ce);
        assert_eq!(splitmix64(0xdead_beef), 0x4adf_b90f_68c9_eb9b);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
        // `trace::trace_id(7)` and `trace::sample(7)`'s hash under the
        // default seed.
        assert_eq!(splitmix64(0x7_1d5a_4900_20f4), 0xa632_9575_b4ea_a645);
        assert_eq!(splitmix64(0x5eed_7e1e ^ 7), 0x32db_6827_92be_d373);
    }
}
