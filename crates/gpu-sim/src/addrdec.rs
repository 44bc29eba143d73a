//! The address decoder: splits a byte address into the fields the banked,
//! sectored memory hierarchy indexes on — line tag, set, sector, L2 bank
//! and DRAM channel.
//!
//! Real GPUs do not index caches or L2 slices with plain modulo
//! arithmetic: the power-of-two strides that dense-matrix kernels produce
//! would camp on a handful of sets or a single bank. The hardware hashes
//! higher address bits into every index (`romnn/gpucachesim` models the
//! same structure as an `addrdec` unit). This module centralizes that
//! swizzling so every consumer — the set-associative arrays in the
//! `cache` module, the banked L2 and DRAM channels in the `memory`
//! module — decodes addresses through one audited path.
//!
//! Each dimension is a [`HashedIndex`]: a multiplicative (Fibonacci)
//! hash followed by a reduction to the dimension size. Power-of-two
//! sizes reduce with a mask (`h & (n-1)`), which is bit-identical to the
//! generic `h % n` they replace — the property tests pin that — so the
//! fast path is purely an implementation detail. The decode is a
//! bijection at line granularity: the tag *is* the full line number, so
//! `encode(decode(a).tag) == a & !(line_bytes-1)` and two distinct lines
//! can never alias within a `(bank, set)` pair.

use crate::config::IndexFn;

/// Multiplier of the set/bank hash (the 64-bit Fibonacci constant).
pub const LINE_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier of the DRAM-channel hash, chosen distinct from
/// [`LINE_HASH_MUL`] so bank and channel conflicts decorrelate.
pub const CHAN_HASH_MUL: u64 = 0xD1B5_4A32_D192_ED03;

/// One hashed index dimension: `n` targets selected by a multiplicative
/// hash of a key, with a mask fast path when `n` is a power of two.
///
/// The multiplier and shift are const generics, not fields: the hash
/// runs on the simulator's hottest path (every cache access computes a
/// set index), and keeping them as compile-time immediates lets the
/// multiply and shift fold into the same constant-operand instructions
/// the pre-decoder code emitted, instead of loads from the decoder
/// struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedIndex<const MUL: u64, const SHIFT: u32> {
    n: u64,
    /// `n - 1`, meaningful only when `pow2`.
    mask: u64,
    pow2: bool,
}

impl<const MUL: u64, const SHIFT: u32> HashedIndex<MUL, SHIFT> {
    /// A dimension of `n` targets hashed as `key * MUL >> SHIFT`, then
    /// reduced modulo `n` (masked when `n` is a power of two).
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "hashed index needs at least one target");
        HashedIndex {
            n,
            mask: n - 1,
            pow2: n.is_power_of_two(),
        }
    }

    /// Number of targets.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the dimension is trivial (a single target).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The target index for `key`, always `< len()`.
    #[inline(always)]
    pub fn index(&self, key: u64) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let h = key.wrapping_mul(MUL) >> SHIFT;
        if self.pow2 {
            h & self.mask
        } else {
            h % self.n
        }
    }
}

/// A fully decoded address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Line number (`addr >> log2(line_bytes)`) — the line's full
    /// identity. Set, bank and channel are functions of the tag alone.
    pub tag: u64,
    /// Set within a cache array.
    pub set: u64,
    /// Sector within the line.
    pub sector: u32,
    /// L2 bank (slice).
    pub bank: u64,
    /// DRAM channel.
    pub channel: u64,
}

/// Decoder for one point of the hierarchy. Dimensions that do not apply
/// (e.g. banks for an L1 sector array) are trivial single-target
/// dimensions and decode to 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrDec {
    line_shift: u32,
    sector_shift: u32,
    /// `sectors_per_line - 1`; sectors per line is a validated power of
    /// two, so the sector field is a shift-and-mask.
    sector_mask: u32,
    sets: HashedIndex<LINE_HASH_MUL, 32>,
    banks: HashedIndex<LINE_HASH_MUL, 24>,
    channels: HashedIndex<CHAN_HASH_MUL, 24>,
    /// Set-index function. [`IndexFn::Modulo`] bypasses the set hash and
    /// indexes with `tag % num_sets` — the DSE axis; [`IndexFn::Hashed`]
    /// (every preset) keeps the path above bit-identical to the
    /// pre-axis decoder.
    set_index_fn: IndexFn,
}

impl AddrDec {
    /// Decoder for a cache array: `num_sets` hashed sets over lines of
    /// `line_bytes` split into sectors of `sector_bytes`.
    ///
    /// The set hash consumes the *high* 32 bits of the product
    /// (`>> 32`), which spreads power-of-two strides over every set.
    pub fn for_cache(line_bytes: u32, sector_bytes: u32, num_sets: u64) -> Self {
        AddrDec::for_cache_indexed(line_bytes, sector_bytes, num_sets, IndexFn::Hashed)
    }

    /// [`AddrDec::for_cache`] with an explicit set-index function — the
    /// DSE sweep's indexing axis. `Hashed` is exactly `for_cache`.
    pub fn for_cache_indexed(
        line_bytes: u32,
        sector_bytes: u32,
        num_sets: u64,
        index_fn: IndexFn,
    ) -> Self {
        assert!(line_bytes.is_power_of_two());
        assert!(sector_bytes.is_power_of_two() && sector_bytes <= line_bytes);
        AddrDec {
            line_shift: line_bytes.trailing_zeros(),
            sector_shift: sector_bytes.trailing_zeros(),
            sector_mask: line_bytes / sector_bytes - 1,
            sets: HashedIndex::new(num_sets),
            banks: HashedIndex::new(1),
            channels: HashedIndex::new(1),
            set_index_fn: index_fn,
        }
    }

    /// Decoder for the device memory system: L2 bank and DRAM channel
    /// interleaving at `line_bytes` (L2-line) granularity.
    ///
    /// Bank and channel hashes consume bits `24..` of their products:
    /// lower than the set hash, so bank conflicts and set conflicts
    /// decorrelate.
    pub fn for_device(line_bytes: u32, banks: u32, channels: u32) -> Self {
        assert!(line_bytes.is_power_of_two());
        AddrDec {
            line_shift: line_bytes.trailing_zeros(),
            sector_shift: line_bytes.trailing_zeros(),
            sector_mask: 0,
            sets: HashedIndex::new(1),
            banks: HashedIndex::new(banks as u64),
            channels: HashedIndex::new(channels as u64),
            set_index_fn: IndexFn::Hashed,
        }
    }

    /// Line size this decoder was built for.
    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// Sectors per line (1 for unsectored geometries).
    pub fn sectors_per_line(&self) -> u32 {
        self.sector_mask + 1
    }

    /// The line tag (line number) of a byte address.
    #[inline]
    pub fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Set index for an already-extracted tag.
    #[inline]
    pub fn set_of_tag(&self, tag: u64) -> u64 {
        match self.set_index_fn {
            IndexFn::Hashed => self.sets.index(tag),
            IndexFn::Modulo => tag % self.sets.len(),
        }
    }

    /// Tag and set of a (line-aligned) byte address in one call — the
    /// shape every cache access path wants, so the two field extractions
    /// fuse at the head of the probe instead of being re-derived per use.
    #[inline]
    pub fn tag_and_set(&self, line_addr: u64) -> (u64, usize) {
        let tag = self.tag(line_addr);
        (tag, self.set_of_tag(tag) as usize)
    }

    /// Number of sets this decoder indexes into.
    pub fn num_sets(&self) -> u64 {
        self.sets.len()
    }

    /// The set-index function this decoder was built with.
    pub fn set_index_fn(&self) -> IndexFn {
        self.set_index_fn
    }

    /// Sector index of a byte address within its line.
    #[inline]
    pub fn sector(&self, addr: u64) -> u32 {
        (addr >> self.sector_shift) as u32 & self.sector_mask
    }

    /// L2 bank serving a (line-aligned) address.
    #[inline]
    pub fn bank(&self, line_addr: u64) -> usize {
        self.banks.index(self.tag(line_addr)) as usize
    }

    /// DRAM channel serving a (line-aligned) address.
    #[inline]
    pub fn channel(&self, line_addr: u64) -> usize {
        self.channels.index(self.tag(line_addr)) as usize
    }

    /// Splits a byte address into every field at once.
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let tag = self.tag(addr);
        DecodedAddr {
            tag,
            set: self.set_of_tag(tag),
            sector: self.sector(addr),
            bank: self.banks.index(tag),
            channel: self.channels.index(tag),
        }
    }

    /// Reassembles the byte address of a sector from its decoded fields.
    /// Exact inverse of [`AddrDec::decode`] at sector granularity:
    /// `encode(d.tag, d.sector)` recovers the sector base address, and
    /// the hashed fields (`set`, `bank`, `channel`) are recomputed from
    /// the tag, never stored — which is what makes the decode aliasing-
    /// free: a `(bank, set)` pair can only collide when the tags already
    /// differ.
    pub fn encode(&self, tag: u64, sector: u32) -> u64 {
        (tag << self.line_shift) | ((sector as u64 & self.sector_mask as u64) << self.sector_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_mask_matches_modulo() {
        let h = HashedIndex::<LINE_HASH_MUL, 32>::new(64);
        for tag in (0..10_000u64).chain([u64::MAX / 32, u64::MAX / 33]) {
            let raw = tag.wrapping_mul(LINE_HASH_MUL) >> 32;
            assert_eq!(h.index(tag), raw % 64);
        }
    }

    #[test]
    fn non_pow2_uses_modulo() {
        let h = HashedIndex::<LINE_HASH_MUL, 24>::new(6);
        for tag in 0..10_000u64 {
            assert!(h.index(tag) < 6);
        }
    }

    #[test]
    fn decode_encode_round_trip() {
        let d = AddrDec::for_cache(128, 32, 32);
        for addr in (0..4096u64).map(|i| i * 32) {
            let dec = d.decode(addr);
            assert_eq!(d.encode(dec.tag, dec.sector), addr);
            assert!(dec.set < 32);
            assert!(dec.sector < 4);
        }
    }

    #[test]
    fn device_decoder_fields_in_range() {
        let d = AddrDec::for_device(32, 6, 5);
        for line in (0..4096u64).map(|i| i * 32) {
            assert!(d.bank(line) < 6);
            assert!(d.channel(line) < 5);
            assert_eq!(d.decode(line).bank, d.bank(line) as u64);
        }
    }

    #[test]
    fn modulo_mode_indexes_without_the_hash() {
        let modulo = AddrDec::for_cache_indexed(128, 128, 32, IndexFn::Modulo);
        for tag in (0..10_000u64).chain([u64::MAX / 7, u64::MAX]) {
            assert_eq!(modulo.set_of_tag(tag), tag % 32);
        }
        for tag in 0..10_000u64 {
            assert_eq!(modulo.decode(tag * 128).set, tag % 32);
        }
        // `Hashed` through the explicit constructor is exactly `for_cache`.
        let a = AddrDec::for_cache_indexed(128, 32, 32, IndexFn::Hashed);
        let b = AddrDec::for_cache(128, 32, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn single_target_dimensions_decode_to_zero() {
        let d = AddrDec::for_cache(128, 128, 1);
        let dec = d.decode(12_345 * 128);
        assert_eq!((dec.set, dec.sector, dec.bank, dec.channel), (0, 0, 0, 0));
    }
}
