//! Content-addressed cell digests.
//!
//! Every evaluated campaign cell is identified by a 128-bit digest of the
//! inputs that determine its result: the workload spec and request seed,
//! the platform, the base pipeline configuration, the policy's `cache_key()`
//! (which carries µ for the weighted strategies), and a **code-version
//! salt**. The digest is the cache key of [`crate::cache::CellCache`]: two
//! runs that would compute bit-identical metrics hash to the same key, and
//! any input that could change the metrics must be fed to the builder.
//!
//! The hash is deliberately simple and *stable*: two independent FNV-1a
//! lanes (decorrelated by a SplitMix64-derived second offset basis) each
//! finalized with the SplitMix64 mixer. It is not cryptographic — cache
//! poisoning is out of scope for local result files — but 128 bits make
//! accidental collisions across even billions of cells negligible, and the
//! exact bit patterns are pinned by unit tests so a Rust upgrade or
//! refactor cannot silently remap an existing on-disk cache.
//!
//! ## One framing, one or four states
//!
//! Fields are framed by the [`DigestFields`] trait: a tag byte and a
//! little-endian payload, strings length-prefixed. [`DigestBuilder`] feeds
//! them to one state; [`DigestLanes`] feeds the same bytes to four states
//! in lockstep. At about five cycles a byte the serial FNV chain is
//! latency-bound, and four independent chains overlap in the CPU, so the
//! four site scenarios of a campaign combination, which share their
//! applications byte for byte, are hashed in one pass over those bytes
//! (`mcsched_exp::cells::combination_digests`). A lane's digest is
//! bit-identical to the serial builder's, so the two paths key the same
//! cells.
//!
//! ## The salt
//!
//! [`CACHE_SALT`] names the version of the *scheduling semantics*. Bump it
//! in any PR that intentionally changes simulation or scheduling output
//! (new mapping tie-breaks, cost-model fixes, …): old cache directories
//! then miss cleanly instead of replaying stale results. PRs that only
//! change orchestration (threading, reporting, CLI) must leave it alone so
//! caches stay warm across upgrades.

/// Version salt mixed into every cell digest. Bump on any intentional
/// change to scheduling/simulation semantics; leave alone for pure
/// orchestration changes. The git history of this constant is the
/// invalidation log of every cache directory.
pub const CACHE_SALT: &str = "mcsched-cells-v1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// SplitMix64 finalizer: the bijective avalanche mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 128-bit content digest (the cell-cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellDigest(pub u128);

impl CellDigest {
    /// The digest as 32 lowercase hex characters (the on-disk key form).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-character form written by [`CellDigest::to_hex`].
    #[must_use]
    pub fn from_hex(text: &str) -> Option<Self> {
        // Hex digits only: `from_str_radix` alone would also take a sign.
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Self)
    }

    /// The *file* shard this digest belongs to, in `0..shards` — the
    /// assignment of cells to the cache's on-disk JSON shards and lock
    /// stripes. Computed over the top 64 bits; the mapping is part of the
    /// on-disk cache layout and must never change for existing directories
    /// to keep resolving (campaign-level work partitioning uses
    /// [`CellDigest::partition`] instead, which is free to take any N).
    #[must_use]
    pub fn shard(self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        // The top bits are as well-mixed as any after the SplitMix finalize.
        ((self.0 >> 64) as u64 % shards as u64) as usize
    }

    /// The *campaign* partition this digest belongs to, in `0..of`: the
    /// distribution key of sharded multi-process campaigns (`--shard i/N`),
    /// which call it on the digest of a whole scenario so that all of its
    /// cells go to one shard. Computed modulo `of` over the **full 128-bit
    /// key**, so any partition count works — not just the cache's fixed 16
    /// file shards — and the partitions are total and pairwise disjoint by
    /// construction.
    /// Deliberately independent of [`CellDigest::shard`] (top-64 vs full
    /// modulus), so partitioning never correlates with file-shard layout.
    #[must_use]
    pub fn partition(self, of: usize) -> usize {
        debug_assert!(of > 0);
        (self.0 % of as u128) as usize
    }

    /// Whether this digest falls into partition `index` of `of` (see
    /// [`CellDigest::partition`]). Sharded campaigns evaluate a scenario,
    /// every cell of it, iff its scenario digest is in their own partition.
    #[must_use]
    pub fn in_shard(self, index: usize, of: usize) -> bool {
        self.partition(of) == index
    }
}

impl std::fmt::Display for CellDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// One byte of a digest state's two FNV-1a chains: the second chain folds
/// a rotation of the first one in after each byte, so the two never
/// converge.
#[inline(always)]
fn step((lo, hi): (u64, u64), byte: u8) -> (u64, u64) {
    let lo = (lo ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    let hi = (hi ^ u64::from(byte)).wrapping_mul(FNV_PRIME) ^ lo.rotate_left(29);
    (lo, hi)
}

/// A one-byte tag followed by the little-endian bytes of `value`.
#[inline(always)]
fn tagged(tag: u8, value: u64) -> [u8; 9] {
    let mut bytes = [tag; 9];
    bytes[1..].copy_from_slice(&value.to_le_bytes());
    bytes
}

/// The field framing every digest uses: each field is a tag byte and its
/// little-endian payload, and strings are framed by their length, so
/// `"ab" + "c"` and `"a" + "bc"` hash differently. [`DigestBuilder`] and
/// [`DigestLanes`] share it, so a content walk written once over this
/// trait feeds the same bytes to one state or to four.
pub trait DigestFields: Sized {
    /// Feeds raw bytes to every digest state.
    fn feed(&mut self, bytes: &[u8]);

    /// Feeds a length-framed string field.
    #[must_use]
    #[inline(always)]
    fn str(mut self, value: &str) -> Self {
        self.feed(&tagged(b'S', value.len() as u64));
        self.feed(value.as_bytes());
        self
    }

    /// Feeds a `u64` field.
    #[must_use]
    #[inline(always)]
    fn u64(mut self, value: u64) -> Self {
        self.feed(&tagged(b'U', value));
        self
    }

    /// Feeds a `usize` field.
    #[must_use]
    #[inline(always)]
    fn usize(self, value: usize) -> Self {
        self.u64(value as u64)
    }

    /// Feeds an `f64` field by its exact bit pattern (so `-0.0 != 0.0` and
    /// every NaN payload is distinct — digests never canonicalize).
    #[must_use]
    #[inline(always)]
    fn f64(mut self, value: f64) -> Self {
        self.feed(&tagged(b'F', value.to_bits()));
        self
    }

    /// Feeds a `bool` field.
    #[must_use]
    #[inline(always)]
    fn bool(mut self, value: bool) -> Self {
        self.feed(&[b'B', u8::from(value)]);
        self
    }
}

/// Incremental digest builder over the [`DigestFields`] framing; all
/// integers are fed little-endian.
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    lo: u64,
    hi: u64,
}

impl DigestBuilder {
    /// Starts a digest salted with [`CACHE_SALT`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_salt(CACHE_SALT)
    }

    /// Starts a digest with an explicit salt.
    #[must_use]
    fn with_salt(salt: &str) -> Self {
        let mut b = Self {
            lo: FNV_OFFSET,
            // Decorrelate the second lane by perturbing its offset basis.
            hi: splitmix(FNV_OFFSET ^ 0x5851_F42D_4C95_7F2D),
        };
        // The salt is length-framed but untagged.
        b.feed(&(salt.len() as u64).to_le_bytes());
        b.feed(salt.as_bytes());
        b
    }

    /// Feeds a length-framed string field ([`DigestFields::str`]).
    #[must_use]
    pub fn str(self, value: &str) -> Self {
        DigestFields::str(self, value)
    }

    /// Feeds a `u64` field ([`DigestFields::u64`]).
    #[must_use]
    pub fn u64(self, value: u64) -> Self {
        DigestFields::u64(self, value)
    }

    /// Feeds a `usize` field ([`DigestFields::usize`]).
    #[must_use]
    pub fn usize(self, value: usize) -> Self {
        DigestFields::usize(self, value)
    }

    /// Feeds an `f64` field by its bit pattern ([`DigestFields::f64`]).
    #[must_use]
    pub fn f64(self, value: f64) -> Self {
        DigestFields::f64(self, value)
    }

    /// Feeds a `bool` field ([`DigestFields::bool`]).
    #[must_use]
    pub fn bool(self, value: bool) -> Self {
        DigestFields::bool(self, value)
    }

    /// Finalizes both lanes through SplitMix64 and returns the 128-bit
    /// digest.
    #[must_use]
    pub fn finish(self) -> CellDigest {
        let lo = splitmix(self.lo);
        let hi = splitmix(self.hi ^ self.lo.rotate_right(17));
        CellDigest((u128::from(hi) << 64) | u128::from(lo))
    }
}

impl DigestFields for DigestBuilder {
    #[inline]
    fn feed(&mut self, bytes: &[u8]) {
        let mut state = (self.lo, self.hi);
        for &byte in bytes {
            state = step(state, byte);
        }
        (self.lo, self.hi) = state;
    }
}

/// Four [`DigestBuilder`] states fed the same bytes in one lockstep pass:
/// the digests of four inputs that share a long common tail, such as the
/// four site scenarios of one generated combination, which differ in their
/// platform fields and share their applications. Each byte is one FNV
/// step per state; the four multiply chains are independent, so the CPU
/// overlaps them, and the states stay in locals for the whole byte loop so
/// that they live in registers. Every lane ends bit-identical to its
/// builder fed the same fields serially.
#[derive(Debug, Clone)]
pub struct DigestLanes([DigestBuilder; 4]);

impl DigestLanes {
    /// The lanes, starting from four builders' states.
    #[must_use]
    pub fn new(builders: [DigestBuilder; 4]) -> Self {
        Self(builders)
    }

    /// The four builders, in the order [`DigestLanes::new`] took them.
    #[must_use]
    pub fn into_builders(self) -> [DigestBuilder; 4] {
        self.0
    }
}

impl DigestFields for DigestLanes {
    #[inline(always)]
    fn feed(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.0.each_ref().map(|s| (s.lo, s.hi));
        for &byte in bytes {
            a = step(a, byte);
            b = step(b, byte);
            c = step(c, byte);
            d = step(d, byte);
        }
        self.0 = [a, b, c, d].map(|(lo, hi)| DigestBuilder { lo, hi });
    }
}

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_releases() {
        // Pinned bit patterns: if any of these change, every existing cache
        // directory silently misses (or worse, remaps). Treat a failure here
        // as an ABI break, not a test to update casually.
        let d = DigestBuilder::with_salt("pin").str("abc").u64(7).finish();
        assert_eq!(d.to_hex(), "b2083ed772ccfd01cfe524f35b9c6f36");
        let e = DigestBuilder::with_salt("pin")
            .f64(0.5)
            .bool(true)
            .usize(3)
            .finish();
        assert_eq!(e.to_hex(), "eeed16d2f0b9d500ad884fd4861e1a8e");
    }

    /// Every field type, fed after a lane's own prefix.
    fn shared_tail<F: DigestFields>(digest: F) -> F {
        digest
            .str("shared")
            .u64(u64::MAX)
            .usize(3)
            .f64(-0.0)
            .f64(f64::NAN)
            .bool(false)
            .str("")
    }

    #[test]
    fn lanes_match_the_serial_builder() {
        let starts = ["a", "bc", "", "site-d"].map(|s| DigestBuilder::new().str(s).u64(7));
        let lanes = shared_tail(DigestLanes::new(starts.clone())).into_builders();
        for (lane, start) in lanes.into_iter().zip(starts) {
            assert_eq!(lane.finish(), shared_tail(start).finish());
        }
        // Lanes fed nothing hand their builders back unchanged.
        let fresh = DigestLanes::new(std::array::from_fn(|i| DigestBuilder::new().usize(i)));
        for (i, lane) in fresh.into_builders().into_iter().enumerate() {
            assert_eq!(lane.finish(), DigestBuilder::new().usize(i).finish());
        }
    }

    #[test]
    fn field_framing_prevents_concatenation_collisions() {
        let ab_c = DigestBuilder::new().str("ab").str("c").finish();
        let a_bc = DigestBuilder::new().str("a").str("bc").finish();
        let abc = DigestBuilder::new().str("abc").finish();
        assert_ne!(ab_c, a_bc);
        assert_ne!(ab_c, abc);
        assert_ne!(a_bc, abc);
    }

    #[test]
    fn every_field_type_is_distinguished() {
        // u64(1) vs f64 with the same bit pattern vs bool(true): all distinct.
        let u = DigestBuilder::new().u64(1).finish();
        let f = DigestBuilder::new().f64(f64::from_bits(1)).finish();
        let b = DigestBuilder::new().bool(true).finish();
        assert_ne!(u, f);
        assert_ne!(u, b);
        assert_ne!(f, b);
    }

    #[test]
    fn salt_changes_every_digest() {
        let a = DigestBuilder::with_salt("v1").str("cell").finish();
        let b = DigestBuilder::with_salt("v2").str("cell").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trips() {
        let d = DigestBuilder::new().str("roundtrip").u64(99).finish();
        assert_eq!(CellDigest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(CellDigest::from_hex("xyz"), None);
        assert_eq!(CellDigest::from_hex(""), None);
        assert_eq!(CellDigest::from_hex(&"f".repeat(31)), None);
        assert_eq!(CellDigest::from_hex(&format!("+{}", "f".repeat(31))), None);
    }

    #[test]
    fn shards_cover_the_range() {
        let mut seen = [false; 16];
        for i in 0..4096u64 {
            let d = DigestBuilder::new().u64(i).finish();
            let s = d.shard(16);
            assert!(s < 16);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 16 shards should be hit");
    }

    #[test]
    fn partitions_are_total_disjoint_and_cover_any_n() {
        for of in [1usize, 2, 3, 5, 7, 16, 33] {
            let mut hit = vec![false; of];
            for i in 0..4096u64 {
                let d = DigestBuilder::new().u64(i).finish();
                let p = d.partition(of);
                assert!(p < of);
                hit[p] = true;
                // Membership is exact: in the owning partition and no other.
                for index in 0..of {
                    assert_eq!(d.in_shard(index, of), index == p);
                }
            }
            assert!(hit.iter().all(|&h| h), "all {of} partitions should be hit");
        }
    }

    #[test]
    fn partition_uses_the_full_key_not_just_the_top_bits() {
        // Two digests agreeing on their top 64 bits must still be able to
        // land in different partitions (the file-shard function cannot tell
        // them apart for shard counts dividing 2^64).
        let a = CellDigest((42u128 << 64) | 1);
        let b = CellDigest((42u128 << 64) | 2);
        assert_eq!(a.shard(16), b.shard(16));
        assert_ne!(a.partition(3), b.partition(3));
    }

    #[test]
    fn f64_bit_patterns_are_distinguished() {
        let pos = DigestBuilder::new().f64(0.0).finish();
        let neg = DigestBuilder::new().f64(-0.0).finish();
        assert_ne!(pos, neg);
    }

    #[test]
    fn no_collisions_in_a_large_sample() {
        let mut set = std::collections::HashSet::new();
        for i in 0..20_000u64 {
            assert!(set.insert(DigestBuilder::new().u64(i).finish()));
            assert!(set.insert(DigestBuilder::new().str(&format!("s{i}")).finish()));
        }
    }
}
