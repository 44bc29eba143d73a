//! Canonical content hashing of kernel descriptions and summaries.
//!
//! The plan server (`cta-serve`) keys its content-addressed caches on a
//! digest of the *semantic* fields of a kernel description — grid
//! geometry, access-pattern summary, target GPU — so that identical
//! tenant requests and parameter-sweep twins collapse onto one cache
//! entry no matter how their JSON was formatted. The hash is therefore
//! defined over typed values, never over serialized text: field order,
//! whitespace, and number formatting cannot perturb it by construction,
//! while any semantic field flip must.
//!
//! Two properties the users of this module rely on (and the serve
//! proptest battery pins):
//!
//! * **Stability.** The digest of a value sequence is a pure function of
//!   the sequence; it does not depend on process, thread, pointer
//!   values, or hash-map iteration order. It is safe to persist and to
//!   compare across processes.
//! * **Framing.** Every value is fed with a type tag and every
//!   variable-length value with its length, so concatenation ambiguities
//!   (`"ab","c"` vs `"a","bc"`) produce different digests.
//!
//! The digest is 128 bits: two independent FNV-1a-64 lanes with distinct
//! offset bases, the second lane seeded by the first's offset to keep
//! the lanes decorrelated. This is not a cryptographic hash — the cache
//! tolerates an adversary-free environment — but 128 bits make
//! accidental collisions negligible at any realistic request volume.

/// A 128-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl Digest {
    /// Lower 64 bits — the shard selector the serve cache uses.
    pub fn lo(&self) -> u64 {
        self.0 as u64
    }

    /// Renders the digest as 32 lowercase hex digits.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x84222325_cbf29ce4;

/// Value-type tags framing the byte stream. One byte each; never reuse
/// a published tag for a different meaning (digests are persisted in
/// golden fixtures and bench artifacts).
#[derive(Debug, Clone, Copy)]
enum Tag {
    U64 = 1,
    I64 = 2,
    Bool = 3,
    Str = 4,
    F64 = 5,
    ListBegin = 6,
    ListEnd = 7,
    Field = 8,
}

/// Streaming canonical hasher. Feed typed values in a fixed, documented
/// order; call [`CanonHasher::digest`] at the end.
///
/// ```
/// use locality::canon::CanonHasher;
/// let mut h = CanonHasher::new("kernel/v1");
/// h.field("grid").u64(64).u64(16).u64(1);
/// h.field("block").u64(64);
/// let d = h.digest();
/// assert_eq!(d, {
///     let mut h2 = CanonHasher::new("kernel/v1");
///     h2.field("grid").u64(64).u64(16).u64(1);
///     h2.field("block").u64(64);
///     h2.digest()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct CanonHasher {
    a: u64,
    b: u64,
}

impl CanonHasher {
    /// Starts a hasher for the given schema label. The label is part of
    /// the digest, so digests of different schemas never collide by
    /// construction.
    pub fn new(schema: &str) -> CanonHasher {
        let mut h = CanonHasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        };
        h.str(schema);
        h
    }

    fn byte(&mut self, byte: u8) {
        self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ byte as u64).wrapping_mul(FNV_PRIME);
        // Cross-feed one bit of lane A into lane B so the two lanes
        // cannot stay in lockstep on structured input.
        self.b ^= self.a.rotate_left(29) & 0x1;
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn tag(&mut self, t: Tag) {
        self.byte(t as u8);
    }

    /// Feeds a field marker: a named boundary between logical fields.
    /// Returns `&mut self` for chaining.
    pub fn field(&mut self, name: &str) -> &mut CanonHasher {
        self.tag(Tag::Field);
        self.bytes(&(name.len() as u64).to_le_bytes());
        self.bytes(name.as_bytes());
        self
    }

    /// Feeds an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut CanonHasher {
        self.tag(Tag::U64);
        self.bytes(&v.to_le_bytes());
        self
    }

    /// Feeds a signed integer.
    pub fn i64(&mut self, v: i64) -> &mut CanonHasher {
        self.tag(Tag::I64);
        self.bytes(&v.to_le_bytes());
        self
    }

    /// Feeds a boolean.
    pub fn bool(&mut self, v: bool) -> &mut CanonHasher {
        self.tag(Tag::Bool);
        self.byte(v as u8);
        self
    }

    /// Feeds a string (length-framed).
    pub fn str(&mut self, v: &str) -> &mut CanonHasher {
        self.tag(Tag::Str);
        self.bytes(&(v.len() as u64).to_le_bytes());
        self.bytes(v.as_bytes());
        self
    }

    /// Feeds a float by its IEEE-754 bit pattern, with `-0.0`
    /// canonicalized to `0.0` and every NaN to the quiet NaN, so
    /// semantically equal values digest equally.
    pub fn f64(&mut self, v: f64) -> &mut CanonHasher {
        let canon = if v == 0.0 {
            0.0f64
        } else if v.is_nan() {
            f64::NAN
        } else {
            v
        };
        self.tag(Tag::F64);
        self.bytes(&canon.to_bits().to_le_bytes());
        self
    }

    /// Opens a list frame. Lists are length-delimited by their
    /// begin/end tags, so `[a][b]` and `[a, b]` digest differently.
    pub fn list_begin(&mut self) -> &mut CanonHasher {
        self.tag(Tag::ListBegin);
        self
    }

    /// Closes a list frame.
    pub fn list_end(&mut self) -> &mut CanonHasher {
        self.tag(Tag::ListEnd);
        self
    }

    /// The 128-bit digest of everything fed so far.
    pub fn digest(&self) -> Digest {
        Digest(((self.a as u128) << 64) | self.b as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_calls() {
        let build = || {
            let mut h = CanonHasher::new("test/v1");
            h.field("grid").u64(64).u64(16).u64(1);
            h.field("name").str("MM");
            h.field("rate").f64(0.25);
            h.digest()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn any_field_flip_changes_the_digest() {
        let base = {
            let mut h = CanonHasher::new("test/v1");
            h.field("a").u64(1).field("b").str("x").field("c").f64(2.0);
            h.digest()
        };
        let flip_a = {
            let mut h = CanonHasher::new("test/v1");
            h.field("a").u64(2).field("b").str("x").field("c").f64(2.0);
            h.digest()
        };
        let flip_b = {
            let mut h = CanonHasher::new("test/v1");
            h.field("a").u64(1).field("b").str("y").field("c").f64(2.0);
            h.digest()
        };
        let flip_c = {
            let mut h = CanonHasher::new("test/v1");
            h.field("a").u64(1).field("b").str("x").field("c").f64(2.5);
            h.digest()
        };
        assert_ne!(base, flip_a);
        assert_ne!(base, flip_b);
        assert_ne!(base, flip_c);
        assert_ne!(flip_a, flip_b);
    }

    #[test]
    fn framing_prevents_concatenation_ambiguity() {
        let ab_c = {
            let mut h = CanonHasher::new("t");
            h.str("ab").str("c");
            h.digest()
        };
        let a_bc = {
            let mut h = CanonHasher::new("t");
            h.str("a").str("bc");
            h.digest()
        };
        assert_ne!(ab_c, a_bc);

        let one_list = {
            let mut h = CanonHasher::new("t");
            h.list_begin().u64(1).u64(2).list_end();
            h.digest()
        };
        let two_lists = {
            let mut h = CanonHasher::new("t");
            h.list_begin()
                .u64(1)
                .list_end()
                .list_begin()
                .u64(2)
                .list_end();
            h.digest()
        };
        assert_ne!(one_list, two_lists);
    }

    #[test]
    fn schema_label_partitions_the_digest_space() {
        let mk = |schema: &str| {
            let mut h = CanonHasher::new(schema);
            h.u64(7);
            h.digest()
        };
        assert_ne!(mk("kernel/v1"), mk("kernel/v2"));
    }

    #[test]
    fn float_canonicalization() {
        let mk = |v: f64| {
            let mut h = CanonHasher::new("t");
            h.f64(v);
            h.digest()
        };
        assert_eq!(mk(0.0), mk(-0.0));
        assert_eq!(mk(f64::NAN), mk(-f64::NAN));
        assert_ne!(mk(1.0), mk(1.0000000000000002));
    }

    #[test]
    fn hex_round_trip() {
        let mut h = CanonHasher::new("t");
        h.str("round-trip");
        let d = h.digest();
        assert_eq!(d.to_hex().len(), 32);
        assert_eq!(u128::from_str_radix(&d.to_hex(), 16), Ok(d.0));
    }
}
