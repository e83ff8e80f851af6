//! Arithmetic in the multiplicative group modulo p = 2^255 − 19.
//!
//! The simulation needs an asymmetric primitive for attestation signatures
//! (TPM quotes, SGX quoting enclave, TrustZone device identity) and for
//! Diffie–Hellman key agreement in the secure-channel protocol. We use the
//! classic finite-field constructions — Schnorr signatures and DH over
//! Z_p^* — because they need only modular exponentiation, which is compact
//! to implement from scratch and easy to audit.
//!
//! * [`FieldElement`] — an element of Z_p, p = 2^255 − 19 (the Curve25519
//!   prime, chosen because 2^255 ≡ 19 makes reduction a multiply by 19).
//!   It is stored canonically, as four 64-bit limbs holding the value
//!   below p, so its derived `Eq` and `Hash` and its `to_bytes` all mean
//!   value equality.
//! * [`Scalar`] — an exponent, reduced modulo n = p − 1 = 2^255 − 20.
//!   Because ord(g) divides p − 1 for every g, doing exponent arithmetic
//!   modulo p − 1 keeps Schnorr's `s = k + e·x` equation valid regardless of
//!   the exact order of the generator.
//! * [`GroupElement`] — a member of the group generated by g = 4 (a
//!   quadratic residue, so the subgroup avoids the sign leak of Z_p^*).
//!
//! Every product mod p runs through one kernel on five 51-bit limbs: a 5×5
//! schoolbook multiply into 128-bit column sums, where each partial
//! product at or above 2^255 enters its column multiplied by 19, then one
//! carry chain back to limbs of about 51 bits. Squaring has its own
//! kernel, which computes each symmetric cross product once and doubles
//! it. A value is split into limbs when an operation starts and fully
//! reduced back to the canonical form when it ends.
//!
//! * A variable base ([`FieldElement::pow_bytes`], [`GroupElement::exp`])
//!   is raised with fixed 4-bit windows: a table of base^0 … base^15,
//!   then four squarings and one multiply for each of the exponent's 64
//!   nibbles from the top. All 256 exponent bits are used, reduced or not.
//! * The generator ([`GroupElement::generator_exp`]) reads a fixed-base
//!   comb built once per process: row i holds g^(j·16^i) for j in 0..16,
//!   so g^e is a product of 64 table entries, one per nibble of e, with
//!   no squaring.
//!
//! Scalar arithmetic modulo n folds on the four 64-bit limbs instead.
//!
//! **Simulation-grade**: the group order is not prime, small-subgroup and
//! side-channel hardening are absent, and the window table and the comb
//! are indexed by secret exponent nibbles, in variable time. See the
//! crate docs.

use std::sync::OnceLock;

use crate::CryptoError;

/// Four little-endian 64-bit limbs: a 256-bit unsigned integer.
type Limbs = [u64; 4];

/// Adds `a + b`, returning (sum, carry).
fn add4(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    (out, carry)
}

/// Subtracts `a - b`, returning (difference, borrow).
fn sub4(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    (out, borrow)
}

/// Returns true when `a >= b`.
fn geq4(a: &Limbs, b: &Limbs) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// Schoolbook 4×4 → 8 limb multiplication.
fn mul_wide(a: &Limbs, b: &Limbs) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let cur = out[i + j] as u128 + (a[i] as u128) * (b[j] as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + 4] = carry as u64;
    }
    out
}

/// A modulus of the form 2^255 − c for a small `c`, supporting fast
/// fold-based reduction.
#[derive(Clone, Copy, Debug)]
struct FoldModulus {
    c: u64,
}

// `from_*` here are conversions *parameterized by the modulus instance*,
// so they deliberately take `self`.
#[allow(clippy::wrong_self_convention)]
impl FoldModulus {
    /// The modulus as limbs: 2^255 − c.
    fn limbs(&self) -> Limbs {
        // 2^255 = limb[3] bit 63. 2^255 - c = (2^255 - 1) - (c - 1).
        let mut m = [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1];
        let (low, borrow) = m[0].overflowing_sub(self.c - 1);
        m[0] = low;
        debug_assert!(!borrow);
        m
    }

    /// Reduces an 8-limb (512-bit) value modulo 2^255 − c.
    fn reduce_wide(&self, wide: &[u64; 8]) -> Limbs {
        let mut v = *wide;
        // Fold until all bits at position >= 255 are clear.
        loop {
            // high = v >> 255, low = v & (2^255 - 1).
            let mut high = [0u64; 8];
            let mut any_high = false;
            #[allow(clippy::needless_range_loop)] // index derives src_bit
            for i in 0..8 {
                let src_bit = 255 + i * 64;
                // Extract 64 bits starting at src_bit.
                let limb_idx = src_bit / 64;
                let shift = src_bit % 64;
                let mut h = 0u64;
                if limb_idx < 8 {
                    h = v[limb_idx] >> shift;
                    if shift > 0 && limb_idx + 1 < 8 {
                        h |= v[limb_idx + 1] << (64 - shift);
                    }
                }
                high[i] = h;
                any_high |= h != 0;
            }
            if !any_high {
                break;
            }
            // low part: clear everything from bit 255 up.
            let mut low = [0u64; 8];
            low[..4].copy_from_slice(&v[..4]);
            low[3] &= u64::MAX >> 1;
            // v = low + high * c.
            let mut acc = low;
            let mut carry = 0u128;
            for i in 0..8 {
                let cur = acc[i] as u128 + (high[i] as u128) * (self.c as u128) + carry;
                acc[i] = cur as u64;
                carry = cur >> 64;
            }
            debug_assert_eq!(carry, 0);
            v = acc;
        }
        let mut out = [v[0], v[1], v[2], v[3]];
        let m = self.limbs();
        while geq4(&out, &m) {
            let (d, _) = sub4(&out, &m);
            out = d;
        }
        out
    }

    fn add(&self, a: &Limbs, b: &Limbs) -> Limbs {
        // a, b < 2^255, so the sum fits in 256 bits without carry-out.
        let (mut s, carry) = add4(a, b);
        debug_assert_eq!(carry, 0);
        let m = self.limbs();
        if geq4(&s, &m) {
            s = sub4(&s, &m).0;
        }
        s
    }

    fn sub(&self, a: &Limbs, b: &Limbs) -> Limbs {
        if geq4(a, b) {
            sub4(a, b).0
        } else {
            let m = self.limbs();
            let (am, carry) = add4(a, &m);
            debug_assert_eq!(carry, 0);
            sub4(&am, b).0
        }
    }

    fn mul(&self, a: &Limbs, b: &Limbs) -> Limbs {
        self.reduce_wide(&mul_wide(a, b))
    }

    /// Left-to-right square-and-multiply exponentiation: the reference
    /// the tests hold the 51-bit kernel, windows and comb to.
    #[cfg(test)]
    fn pow(&self, base: &Limbs, exp: &Limbs) -> Limbs {
        let mut result = [1u64, 0, 0, 0];
        let mut started = false;
        for i in (0..256).rev() {
            if started {
                result = self.mul(&result, &result);
            }
            let bit = (exp[i / 64] >> (i % 64)) & 1;
            if bit == 1 {
                if started {
                    result = self.mul(&result, base);
                } else {
                    result = *base;
                    started = true;
                }
            }
        }
        if !started {
            // exp == 0
            [1, 0, 0, 0]
        } else {
            result
        }
    }

    fn from_bytes_checked(&self, bytes: &[u8; 32]) -> Option<Limbs> {
        let mut l = [0u64; 4];
        for i in 0..4 {
            l[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        if geq4(&l, &self.limbs()) {
            None
        } else {
            Some(l)
        }
    }

    /// Interprets 64 bytes as a little-endian 512-bit value, reduced.
    fn from_bytes_wide(&self, bytes: &[u8; 64]) -> Limbs {
        let mut w = [0u64; 8];
        for i in 0..8 {
            w[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        self.reduce_wide(&w)
    }
}

/// Modulus for field elements: p = 2^255 − 19.
const P: FoldModulus = FoldModulus { c: 19 };
/// Modulus for exponents: n = p − 1 = 2^255 − 20.
const N: FoldModulus = FoldModulus { c: 20 };

fn to_bytes(l: &Limbs) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..i * 8 + 8].copy_from_slice(&l[i].to_le_bytes());
    }
    out
}

/// Five little-endian 51-bit limbs: the working form of a product mod p.
/// A kernel's output limbs are below 2^52, and its inputs must be too.
type Limbs51 = [u64; 5];

const MASK51: u64 = (1 << 51) - 1;
const ONE51: Limbs51 = [1, 0, 0, 0, 0];

/// Splits a canonical value into five 51-bit limbs.
fn to_limbs51(a: &Limbs) -> Limbs51 {
    [
        a[0] & MASK51,
        (a[0] >> 51 | a[1] << 13) & MASK51,
        (a[1] >> 38 | a[2] << 26) & MASK51,
        (a[2] >> 25 | a[3] << 39) & MASK51,
        a[3] >> 12,
    ]
}

/// Reduces five limbs below 2^52 fully modulo p and packs the canonical
/// value into four 64-bit limbs.
fn from_limbs51(l: &Limbs51) -> Limbs {
    let mut l = *l;
    // Carry every limb down to 51 bits, folding the top carry back ×19:
    // the value is now below 2p.
    for i in 0..4 {
        l[i + 1] += l[i] >> 51;
        l[i] &= MASK51;
    }
    l[0] += (l[4] >> 51) * 19;
    l[4] &= MASK51;
    // q = 1 exactly when value + 19 carries out of bit 255, i.e. value ≥ p;
    // then adding 19 and dropping bit 255 subtracts p.
    let mut q = (l[0] + 19) >> 51;
    for limb in &l[1..] {
        q = (limb + q) >> 51;
    }
    l[0] += 19 * q;
    for i in 0..4 {
        l[i + 1] += l[i] >> 51;
        l[i] &= MASK51;
    }
    l[4] &= MASK51;
    [
        l[0] | l[1] << 51,
        l[1] >> 13 | l[2] << 38,
        l[2] >> 26 | l[3] << 25,
        l[3] >> 39 | l[4] << 12,
    ]
}

/// The full 128-bit product of two limbs.
fn m(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// Carries five 128-bit column sums back to limbs below 2^52, folding the
/// carry out of the top column back ×19.
fn carry51(mut c: [u128; 5]) -> Limbs51 {
    let mut out = [0u64; 5];
    for i in 0..4 {
        c[i + 1] += c[i] >> 51;
        out[i] = c[i] as u64 & MASK51;
    }
    out[4] = c[4] as u64 & MASK51;
    out[0] += (c[4] >> 51) as u64 * 19;
    out[1] += out[0] >> 51;
    out[0] &= MASK51;
    out
}

/// `a · b mod p`. Limb i times limb j lands in column i + j; from column 5
/// up that is 2^255 or more, so it enters column i + j − 5 times 19.
/// Always inlined, so that a chain of products keeps its limbs in
/// registers: as a call, `generator_exp` took ~1.4× as long on x86-64.
#[inline(always)]
fn mul51(a: &Limbs51, b: &Limbs51) -> Limbs51 {
    let [b1, b2, b3, b4] = [19 * b[1], 19 * b[2], 19 * b[3], 19 * b[4]];
    carry51([
        m(a[0], b[0]) + m(a[1], b4) + m(a[2], b3) + m(a[3], b2) + m(a[4], b1),
        m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4) + m(a[3], b3) + m(a[4], b2),
        m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4) + m(a[4], b3),
        m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4),
        m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
    ])
}

/// `a² mod p`: `mul51(a, a)` with each symmetric cross product computed
/// once and doubled, 15 multiplies instead of 25.
#[inline(always)]
fn square51(a: &Limbs51) -> Limbs51 {
    let [a3_19, a4_19] = [19 * a[3], 19 * a[4]];
    carry51([
        m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
        m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
        m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
        m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
        m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
    ])
}

/// Nibble `i` (bits 4i..4i + 4) of a little-endian 256-bit exponent.
fn nibble(exp: &[u8; 32], i: usize) -> usize {
    usize::from(exp[i / 2] >> (4 * (i % 2)) & 0xf)
}

/// `base^exp mod p` with fixed 4-bit windows over all 256 bits of `exp`.
fn pow51(base: &Limbs51, exp: &[u8; 32]) -> Limbs51 {
    let mut table = [ONE51; 16];
    table[1] = *base;
    for j in 2..16 {
        table[j] = mul51(&table[j - 1], base);
    }
    let mut acc = table[nibble(exp, 63)];
    for i in (0..63).rev() {
        for _ in 0..4 {
            acc = square51(&acc);
        }
        acc = mul51(&acc, &table[nibble(exp, i)]);
    }
    acc
}

/// The fixed-base comb for g: `comb[i][j]` = g^(j·16^i).
type Comb = [[Limbs51; 16]; 64];

/// The comb for g = 4, built on first use (960 multiplies) and then
/// shared for the life of the process.
fn generator_comb() -> &'static Comb {
    static COMB: OnceLock<Box<Comb>> = OnceLock::new();
    COMB.get_or_init(|| {
        let mut comb = Box::new([[ONE51; 16]; 64]);
        // g^(16^i) for the row being filled.
        let mut step = to_limbs51(&GroupElement::generator().0 .0);
        for row in comb.iter_mut() {
            row[1] = step;
            for j in 2..16 {
                row[j] = mul51(&row[j - 1], &step);
            }
            step = mul51(&row[15], &step);
        }
        comb
    })
}

/// An element of the prime field Z_p, p = 2^255 − 19.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldElement(Limbs);

impl std::fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FieldElement(0x{:016x}…)", self.0[3])
    }
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);
    /// p − 1, the one element of order 2.
    const MINUS_ONE: FieldElement =
        FieldElement([u64::MAX - 19, u64::MAX, u64::MAX, u64::MAX >> 1]);

    /// Constructs a field element from a small integer.
    pub fn from_u64(v: u64) -> FieldElement {
        FieldElement([v, 0, 0, 0])
    }

    /// Adds two field elements.
    #[must_use]
    pub fn add(&self, other: &FieldElement) -> FieldElement {
        FieldElement(P.add(&self.0, &other.0))
    }

    /// Subtracts `other` from `self`.
    #[must_use]
    pub fn sub(&self, other: &FieldElement) -> FieldElement {
        FieldElement(P.sub(&self.0, &other.0))
    }

    /// Multiplies two field elements.
    #[must_use]
    pub fn mul(&self, other: &FieldElement) -> FieldElement {
        FieldElement(from_limbs51(&mul51(
            &to_limbs51(&self.0),
            &to_limbs51(&other.0),
        )))
    }

    /// Raises `self` to a 256-bit exponent given as raw little-endian
    /// bytes; every bit counts, whether or not the value is below n.
    #[must_use]
    pub fn pow_bytes(&self, exp: &[u8; 32]) -> FieldElement {
        FieldElement(from_limbs51(&pow51(&to_limbs51(&self.0), exp)))
    }

    /// Serializes to 32 little-endian bytes (canonical: value < p).
    pub fn to_bytes(&self) -> [u8; 32] {
        to_bytes(&self.0)
    }

    /// Deserializes from canonical bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] when the value is ≥ p.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<FieldElement, CryptoError> {
        P.from_bytes_checked(bytes)
            .map(FieldElement)
            .ok_or(CryptoError::InvalidEncoding)
    }
}

/// An exponent for group operations, reduced modulo n = 2^255 − 20.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(Limbs);

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Scalars are usually secret; do not print their value.
        write!(f, "Scalar(..)")
    }
}

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Constructs a scalar from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Returns `true` when the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Adds two scalars modulo n.
    #[must_use]
    pub fn add(&self, other: &Scalar) -> Scalar {
        Scalar(N.add(&self.0, &other.0))
    }

    /// Subtracts modulo n.
    #[must_use]
    pub fn sub(&self, other: &Scalar) -> Scalar {
        Scalar(N.sub(&self.0, &other.0))
    }

    /// Multiplies two scalars modulo n.
    #[must_use]
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar(N.mul(&self.0, &other.0))
    }

    /// Derives a scalar from 64 hash output bytes (wide reduction).
    pub fn from_hash_wide(bytes: &[u8; 64]) -> Scalar {
        Scalar(N.from_bytes_wide(bytes))
    }

    /// Samples a uniformly random scalar.
    pub fn random(rng: &mut crate::rng::Drbg) -> Scalar {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        Scalar::from_hash_wide(&wide)
    }

    /// Serializes to 32 little-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        to_bytes(&self.0)
    }

    /// Deserializes from canonical bytes (value must be < n).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] when the value is ≥ n.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Scalar, CryptoError> {
        N.from_bytes_checked(bytes)
            .map(Scalar)
            .ok_or(CryptoError::InvalidEncoding)
    }
}

/// An element of the cyclic group generated by g = 4 in Z_p^*.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupElement(FieldElement);

impl std::fmt::Debug for GroupElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GroupElement(0x{:016x}…)", self.0 .0[3])
    }
}

impl GroupElement {
    /// The group generator g = 4 (a quadratic residue mod p).
    pub fn generator() -> GroupElement {
        GroupElement(FieldElement::from_u64(4))
    }

    /// The identity element.
    pub fn identity() -> GroupElement {
        GroupElement(FieldElement::ONE)
    }

    /// The group operation (field multiplication).
    #[must_use]
    pub fn mul(&self, other: &GroupElement) -> GroupElement {
        GroupElement(self.0.mul(&other.0))
    }

    /// Exponentiation by a scalar.
    #[must_use]
    pub fn exp(&self, scalar: &Scalar) -> GroupElement {
        GroupElement(self.0.pow_bytes(&scalar.to_bytes()))
    }

    /// Computes g^scalar for the fixed generator, from its comb.
    pub fn generator_exp(scalar: &Scalar) -> GroupElement {
        let exp = scalar.to_bytes();
        let comb = generator_comb();
        let mut acc = comb[0][nibble(&exp, 0)];
        for (i, row) in comb.iter().enumerate().skip(1) {
            acc = mul51(&acc, &row[nibble(&exp, i)]);
        }
        GroupElement(FieldElement(from_limbs51(&acc)))
    }

    /// Serializes to 32 bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes()
    }

    /// Deserializes from bytes, rejecting non-canonical values and the
    /// degenerate elements 0, 1 and p − 1: 0 and 1 would make DH shares
    /// trivial, and p − 1 has order 2, so it would make them ±1.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] for out-of-range or
    /// degenerate encodings.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<GroupElement, CryptoError> {
        let fe = FieldElement::from_bytes(bytes)?;
        if [
            FieldElement::ZERO,
            FieldElement::ONE,
            FieldElement::MINUS_ONE,
        ]
        .contains(&fe)
        {
            return Err(CryptoError::InvalidEncoding);
        }
        Ok(GroupElement(fe))
    }
}

#[cfg(test)]
impl GroupElement {
    /// [`GroupElement::exp`] by square-and-multiply on the four-limb fold.
    pub(crate) fn reference_exp(&self, scalar: &Scalar) -> GroupElement {
        GroupElement(FieldElement(P.pow(&self.0 .0, &scalar.0)))
    }

    /// [`GroupElement::mul`] on the four-limb fold.
    pub(crate) fn reference_mul(&self, other: &GroupElement) -> GroupElement {
        GroupElement(FieldElement(P.mul(&self.0 .0, &other.0 .0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dh::EphemeralSecret;
    use crate::rng::Drbg;
    use crate::sign::SigningKey;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    fn random_fe(rng: &mut Drbg) -> FieldElement {
        loop {
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut b);
            b[31] &= 0x7f;
            if let Ok(v) = FieldElement::from_bytes(&b) {
                return v;
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The 51-bit kernel, the windows and the comb against the four-limb
    /// reference (fold multiply, square-and-multiply) on edge and seeded
    /// inputs. Small enough for a debug build, whose overflow checks
    /// catch a carry that outgrows its `u128` or `u64`.
    #[test]
    fn kernel_matches_reference() {
        let mut rng = Drbg::from_seed(b"group kernel differential");
        let mut values = vec![
            FieldElement::ZERO,
            FieldElement::ONE,
            fe(4),
            FieldElement::MINUS_ONE,
        ];
        values.extend((0..12).map(|_| random_fe(&mut rng)));
        for a in &values {
            for b in &values {
                assert_eq!(a.mul(b).0, P.mul(&a.0, &b.0), "{a:?} · {b:?}");
            }
            let square = from_limbs51(&square51(&to_limbs51(&a.0)));
            assert_eq!(square, P.mul(&a.0, &a.0), "{a:?}²");
        }

        let n_minus_one = Scalar::ZERO.sub(&Scalar::ONE);
        let mut top_bit = [0u8; 32];
        top_bit[31] = 0x80;
        let mut exponents = vec![
            [0u8; 32],
            Scalar::ONE.to_bytes(),
            n_minus_one.to_bytes(),
            [0xff; 32],
            top_bit,
        ];
        for _ in 0..4 {
            let mut e = [0u8; 32];
            rng.fill_bytes(&mut e);
            exponents.push(e);
            e[31] |= 0x80;
            exponents.push(e);
        }
        for a in &values {
            for e in &exponents {
                let limbs = std::array::from_fn(|i| {
                    u64::from_le_bytes(e[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
                });
                assert_eq!(a.pow_bytes(e).0, P.pow(&a.0, &limbs), "{a:?}^{}", hex(e));
            }
        }

        let g = GroupElement::generator();
        let mut scalars = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            n_minus_one,
        ];
        scalars.extend((0..16).map(|_| Scalar::random(&mut rng)));
        for s in &scalars {
            let want = g.reference_exp(s);
            assert_eq!(
                GroupElement::generator_exp(s),
                want,
                "g^{}",
                hex(&s.to_bytes())
            );
            assert_eq!(g.exp(s), want, "g^{} by windows", hex(&s.to_bytes()));
        }
    }

    /// A seeded verifying key, one of its signatures and one agreed DH key,
    /// as the square-and-multiply arithmetic computed them: a kernel change
    /// that moves any key, signature or shared secret fails here.
    #[test]
    fn sign_and_dh_known_answers() {
        let sk = SigningKey::from_seed(b"known-answer signer");
        assert_eq!(
            hex(&sk.verifying_key().to_bytes()),
            "3fb51de420a91cd980ceae7c6838b7c9072817fd6d374eba2cc1e359e8b85d36"
        );
        assert_eq!(
            hex(&sk.sign(b"known-answer message").to_bytes()),
            "f84c7c2bfb5a84d9d40aed2594d62b1ff26133041ea53ceb5295b527f528af26\
             fbd0326e35629ad4220bc2d3d60b9d9b21c8cca3a340f8b02395174749571105"
        );
        let mut rng = Drbg::from_seed(b"known-answer dh");
        let alice = EphemeralSecret::generate(&mut rng);
        let bob = EphemeralSecret::generate(&mut rng);
        let key = alice
            .agree(&bob.public_share(), b"known-answer transcript")
            .expect("bob's share is valid");
        assert_eq!(
            hex(&key),
            "a58f3d23ad07df5a953df8ec874043a51e50e1d52565489c6fab1bf61e021409"
        );
    }

    #[test]
    fn small_field_arithmetic() {
        assert_eq!(fe(3).add(&fe(4)), fe(7));
        assert_eq!(fe(10).sub(&fe(4)), fe(6));
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
    }

    #[test]
    fn sub_wraps_modulo_p() {
        // 0 - 1 = p - 1; adding 1 back must give 0.
        let minus_one = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert_eq!(minus_one.add(&FieldElement::ONE), FieldElement::ZERO);
    }

    #[test]
    fn reduction_identity_2_255_is_19() {
        // 2^255 mod p = 19: compute 2^255 as fe(2) raised to the 255.
        let two = fe(2);
        let mut exp = [0u8; 32];
        exp[0] = 255;
        assert_eq!(two.pow_bytes(&exp), fe(19));
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) = 1 for a != 0. p - 1 = 2^255 - 20.
        let n_minus = {
            let mut b = [0xffu8; 32];
            b[31] = 0x7f;
            // 2^255 - 1; subtract 19 to get 2^255 - 20.
            let mut v = u64::from_le_bytes(b[..8].try_into().unwrap());
            v -= 19;
            b[..8].copy_from_slice(&v.to_le_bytes());
            b
        };
        for a in [2u64, 3, 4, 12345] {
            assert_eq!(fe(a).pow_bytes(&n_minus), FieldElement::ONE, "a={a}");
        }
    }

    #[test]
    fn pow_laws_hold() {
        let mut rng = Drbg::from_seed(b"pow laws");
        let g = GroupElement::generator();
        for _ in 0..5 {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            // g^(a+b) = g^a * g^b
            let lhs = g.exp(&a.add(&b));
            let rhs = g.exp(&a).mul(&g.exp(&b));
            assert_eq!(lhs, rhs);
            // (g^a)^b = g^(a*b)
            let lhs2 = g.exp(&a).exp(&b);
            let rhs2 = g.exp(&a.mul(&b));
            assert_eq!(lhs2, rhs2);
        }
    }

    #[test]
    fn scalar_roundtrip_and_range_check() {
        let mut rng = Drbg::from_seed(b"scalar rt");
        for _ in 0..10 {
            let s = Scalar::random(&mut rng);
            let b = s.to_bytes();
            assert_eq!(Scalar::from_bytes(&b).unwrap(), s);
        }
        // All-ones is >= n and must be rejected.
        assert!(Scalar::from_bytes(&[0xff; 32]).is_err());
    }

    #[test]
    fn group_element_rejects_degenerate() {
        let zero = [0u8; 32];
        assert!(GroupElement::from_bytes(&zero).is_err());
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(GroupElement::from_bytes(&one).is_err());
        let minus_one = FieldElement::MINUS_ONE.to_bytes();
        assert_eq!(
            minus_one,
            FieldElement::ZERO.sub(&FieldElement::ONE).to_bytes()
        );
        assert!(GroupElement::from_bytes(&minus_one).is_err());
        let mut minus_two = minus_one;
        minus_two[0] -= 1;
        assert!(GroupElement::from_bytes(&minus_two).is_ok());
    }

    #[test]
    fn group_element_roundtrip() {
        let mut rng = Drbg::from_seed(b"ge rt");
        let s = Scalar::random(&mut rng);
        let e = GroupElement::generator_exp(&s);
        assert_eq!(GroupElement::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn exp_zero_gives_identity() {
        let g = GroupElement::generator();
        assert_eq!(g.exp(&Scalar::ZERO), GroupElement::identity());
        assert_eq!(g.exp(&Scalar::ONE), g);
    }

    #[test]
    fn scalar_mul_commutative_associative() {
        let mut rng = Drbg::from_seed(b"scalar ops");
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let c = Scalar::random(&mut rng);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.sub(&a), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_matches_narrow() {
        // A value already < n must reduce to itself.
        let mut wide = [0u8; 64];
        wide[0] = 42;
        assert_eq!(Scalar::from_hash_wide(&wide), Scalar::from_u64(42));
    }
}
