//! Θ(log n)-wise independent hashing into Σ^k digit strings (Lemma 4).
//!
//! The paper requires a hash `h : V → Σ^k` such that for every prefix
//! length `j`, no `(j-1)`-digit prefix is shared by more than
//! `|Σ| · log n` of the nodes in `V_j`, and cites the classic
//! polynomial construction (Carter–Wegman '79, Motwani–Raghavan '95):
//! a degree-`Θ(log n)` polynomial over a prime field is Θ(log n)-wise
//! independent. We evaluate over the Mersenne prime `p = 2^61 − 1` and
//! expand the field element in base |Σ| to obtain the digits.
//!
//! The construction is randomized; callers *verify* the load property
//! (`Lemma 4` building code does) and re-seed on failure — the paper's
//! "with high probability" made effective.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime 2^61 − 1.
pub const FIELD_P: u64 = (1 << 61) - 1;

/// Degree-d polynomial hash over GF(p), p = 2^61 − 1.
#[derive(Clone, Debug)]
pub struct PolyHash {
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Fresh hash with `degree + 1` random coefficients. `degree` should
    /// be Θ(log n) for the independence the analysis needs.
    pub fn new(degree: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let coeffs = (0..=degree).map(|_| rng.gen_range(0..FIELD_P)).collect();
        PolyHash { coeffs }
    }

    /// Conventional degree for an n-element universe: `ceil(log2 n) + 2`.
    pub fn degree_for(n: usize) -> usize {
        (graphkit::ids::ceil_log2(n.max(2) as u64) + 2) as usize
    }

    /// Evaluate the polynomial at `x` (Horner over GF(p)).
    pub fn eval(&self, x: u64) -> u64 {
        eval_coeffs(self.coeffs.iter().copied(), x)
    }

    /// Hash `x` to `k` digits, each in `0..sigma` (most significant
    /// first). Requires `sigma^k ≤ p` so digits are near-uniform.
    pub fn digits(&self, x: u64, sigma: u64, k: usize) -> Vec<u32> {
        assert!(sigma >= 1);
        let mut v = self.eval(x);
        let mut out = vec![0u32; k];
        for d in out.iter_mut().rev() {
            *d = (v % sigma) as u32;
            v /= sigma;
        }
        out
    }

    /// Allocation-free variant of [`PolyHash::digits`]: write `out.len()`
    /// digits (most significant first) into `out`. The hot path of bulk
    /// directory building, where a `Vec` per hashed id would dominate.
    pub fn digits_into(&self, x: u64, sigma: u64, out: &mut [u32]) {
        assert!(sigma >= 1);
        let mut v = self.eval(x);
        for d in out.iter_mut().rev() {
            *d = (v % sigma) as u32;
            v /= sigma;
        }
    }

    /// The coefficient vector (for serialization).
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Rebuild from a serialized coefficient vector: `None` unless it
    /// holds at least one coefficient and every one lies in GF(p).
    pub fn try_from_coeffs(coeffs: Vec<u64>) -> Option<Self> {
        (!coeffs.is_empty() && coeffs.iter().all(|&c| c < FIELD_P)).then_some(PolyHash { coeffs })
    }

    /// Bits to store the hash description (the coefficient vector) —
    /// Θ(log² n) when degree = Θ(log n).
    pub fn storage_bits(&self) -> u64 {
        self.coeffs.len() as u64 * 61
    }
}

/// Horner evaluation of the polynomial with coefficients `coeffs`
/// (highest degree first, each `< FIELD_P`) at `x` — [`PolyHash::eval`]
/// over coefficients that need not live in a [`PolyHash`], such as
/// ones read in place from a stored record.
pub fn eval_coeffs(coeffs: impl IntoIterator<Item = u64>, x: u64) -> u64 {
    let x = x % FIELD_P;
    let mut acc: u64 = 0;
    for c in coeffs {
        acc = mul_mod(acc, x);
        acc = add_mod(acc, c);
    }
    acc
}

/// Digit `i` (most significant first) of the `k`-digit base-`sigma`
/// expansion of the hash value `v`: `PolyHash::digits(x, sigma, k)[i]`
/// when `v = eval(x)`, computed without materializing the digit string.
/// Out-of-range `i` (`i ≥ k`) and `sigma ≤ 1` yield digit 0.
pub fn digit_at(mut v: u64, sigma: u64, k: usize, i: usize) -> u32 {
    if sigma <= 1 || i >= k {
        return 0;
    }
    for _ in i.saturating_add(1)..k {
        if v == 0 {
            break;
        }
        v /= sigma;
    }
    (v % sigma) as u32
}

#[inline]
fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b; // both < 2^61, no overflow in u64
    if s >= FIELD_P {
        s - FIELD_P
    } else {
        s
    }
}

#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    (((a as u128) * (b as u128)) % (FIELD_P as u128)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_arithmetic() {
        assert_eq!(add_mod(FIELD_P - 1, 1), 0);
        assert_eq!(add_mod(FIELD_P - 1, 2), 1);
        assert_eq!(mul_mod(FIELD_P - 1, 2), FIELD_P - 2); // (-1)*2 = -2
        assert_eq!(mul_mod(0, 12345), 0);
    }

    #[test]
    fn eval_is_deterministic_and_seeded() {
        let h1 = PolyHash::new(8, 42);
        let h2 = PolyHash::new(8, 42);
        let h3 = PolyHash::new(8, 43);
        assert_eq!(h1.eval(999), h2.eval(999));
        assert_ne!(h1.eval(999), h3.eval(999)); // overwhelmingly likely
    }

    #[test]
    fn digits_in_range_and_consistent() {
        let h = PolyHash::new(10, 7);
        for x in 0..200u64 {
            let d = h.digits(x, 16, 5);
            assert_eq!(d.len(), 5);
            assert!(d.iter().all(|&x| x < 16));
            assert_eq!(d, h.digits(x, 16, 5));
        }
    }

    #[test]
    fn digit_at_matches_digits() {
        let h = PolyHash::new(10, 5);
        for (sigma, k) in [(1u64, 3usize), (2, 70), (7, 4), (16, 5), (1 << 20, 3)] {
            for x in 0..100u64 {
                let d = h.digits(x, sigma, k);
                let v = h.eval(x);
                for (i, &di) in d.iter().enumerate() {
                    assert_eq!(digit_at(v, sigma, k, i), di, "sigma={sigma} k={k} x={x} i={i}");
                }
                assert_eq!(digit_at(v, sigma, k, k), 0);
            }
        }
    }

    #[test]
    fn digits_roughly_uniform() {
        let h = PolyHash::new(PolyHash::degree_for(4096), 11);
        let sigma = 8u64;
        let mut counts = vec![0usize; sigma as usize];
        let samples = 8000u64;
        for x in 0..samples {
            counts[h.digits(x, sigma, 4)[0] as usize] += 1;
        }
        let expect = samples as f64 / sigma as f64;
        for &c in &counts {
            assert!(
                (c as f64) > 0.5 * expect && (c as f64) < 1.5 * expect,
                "first digit skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn degree_for_scales() {
        assert!(PolyHash::degree_for(2) >= 3);
        assert!(PolyHash::degree_for(1 << 20) >= 22);
    }

    #[test]
    fn storage_bits_matches_degree() {
        let h = PolyHash::new(12, 1);
        assert_eq!(h.storage_bits(), 13 * 61);
    }

    #[test]
    fn single_digit_base_one_is_zero() {
        let h = PolyHash::new(4, 9);
        assert_eq!(h.digits(55, 1, 3), vec![0, 0, 0]);
    }
}
