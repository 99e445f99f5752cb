//! Dense polynomial algebra over GF(2⁸).
//!
//! Polynomials are stored with the **highest-degree coefficient first**
//! (index 0 = leading coefficient), which matches how Reed–Solomon
//! codewords are conventionally written and makes synthetic division for
//! systematic encoding a straightforward left-to-right pass.

use crate::gf256::Gf256;

/// A polynomial over GF(2⁸), highest-degree coefficient first.
///
/// The zero polynomial is represented by an empty (or all-zero) coefficient
/// vector; [`Poly::normalize`] strips leading zeros.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly(pub Vec<Gf256>);

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly(Vec::new())
    }

    /// The constant polynomial `1`.
    pub fn one() -> Poly {
        Poly(vec![Gf256::ONE])
    }

    /// Build from raw bytes (highest-degree first).
    pub fn from_bytes(bytes: &[u8]) -> Poly {
        Poly(bytes.iter().map(|&b| Gf256(b)).collect())
    }

    /// Degree of the polynomial (`None` for the zero polynomial).
    pub fn degree(&self) -> Option<usize> {
        let lead = self.0.iter().position(|c| !c.is_zero())?;
        Some(self.0.len() - 1 - lead)
    }

    /// `true` iff all coefficients are zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|c| c.is_zero())
    }

    /// Strip leading zero coefficients.
    pub fn normalize(mut self) -> Poly {
        let lead = self
            .0
            .iter()
            .position(|c| !c.is_zero())
            .unwrap_or(self.0.len());
        self.0.drain(..lead);
        self
    }

    /// Coefficient of `x^power` (zero if beyond stored length).
    pub fn coeff(&self, power: usize) -> Gf256 {
        let n = self.0.len();
        if power >= n {
            Gf256::ZERO
        } else {
            self.0[n - 1 - power]
        }
    }

    /// Polynomial addition (= subtraction in characteristic 2).
    pub fn add(&self, o: &Poly) -> Poly {
        let n = self.0.len().max(o.0.len());
        let mut out = vec![Gf256::ZERO; n];
        for (i, c) in self.0.iter().enumerate() {
            out[n - self.0.len() + i] = *c;
        }
        for (i, c) in o.0.iter().enumerate() {
            let idx = n - o.0.len() + i;
            out[idx] = out[idx].add(*c);
        }
        Poly(out).normalize()
    }

    /// Polynomial multiplication (schoolbook; codeword sizes are ≤ 255 so
    /// this is never a bottleneck).
    pub fn mul(&self, o: &Poly) -> Poly {
        if self.is_zero() || o.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![Gf256::ZERO; self.0.len() + o.0.len() - 1];
        for (i, a) in self.0.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, b) in o.0.iter().enumerate() {
                out[i + j] = out[i + j].add(a.mul(*b));
            }
        }
        Poly(out).normalize()
    }

    /// Multiply every coefficient by a scalar.
    pub fn scale(&self, s: Gf256) -> Poly {
        Poly(self.0.iter().map(|c| c.mul(s)).collect()).normalize()
    }

    /// Euclidean division: returns `(quotient, remainder)`.
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        let divisor = divisor.clone().normalize();
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let mut rem = self.clone().normalize().0;
        let dlen = divisor.0.len();
        if rem.len() < dlen {
            return (Poly::zero(), Poly(rem));
        }
        let lead_inv = divisor.0[0]
            .inv()
            .expect("normalized leading coeff is nonzero");
        let qlen = rem.len() - dlen + 1;
        let mut quot = vec![Gf256::ZERO; qlen];
        for i in 0..qlen {
            let c = rem[i];
            if c.is_zero() {
                continue;
            }
            let q = c.mul(lead_inv);
            quot[i] = q;
            for (j, d) in divisor.0.iter().enumerate() {
                rem[i + j] = rem[i + j].add(q.mul(*d));
            }
        }
        (Poly(quot).normalize(), Poly(rem).normalize())
    }

    /// Evaluate at `x` by Horner's rule.
    pub fn eval(&self, x: Gf256) -> Gf256 {
        let mut acc = Gf256::ZERO;
        for &c in &self.0 {
            acc = acc.mul(x).add(c);
        }
        acc
    }

    /// Formal derivative. In characteristic 2 the even-power terms vanish:
    /// `d/dx Σ cᵢ xⁱ = Σ_{i odd} cᵢ x^{i-1}`.
    pub fn derivative(&self) -> Poly {
        let n = self.0.len();
        if n <= 1 {
            return Poly::zero();
        }
        let mut out = vec![Gf256::ZERO; n - 1];
        for (i, &c) in self.0.iter().enumerate() {
            let power = n - 1 - i;
            if power % 2 == 1 {
                // coefficient moves to x^{power-1}; index from the end.
                let oi = (n - 1) - power; // == i
                out[oi] = c;
            }
        }
        Poly(out).normalize()
    }

    /// Shift up: multiply by `x^k`.
    pub fn shift_up(&self, k: usize) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let mut v = self.clone().normalize().0;
        v.extend(std::iter::repeat_n(Gf256::ZERO, k));
        Poly(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bytes: &[u8]) -> Poly {
        Poly::from_bytes(bytes)
    }

    #[test]
    fn degree_and_normalize() {
        assert_eq!(p(&[0, 0, 1, 2]).degree(), Some(1));
        assert_eq!(p(&[5]).degree(), Some(0));
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(p(&[0, 0, 3, 4]).normalize(), p(&[3, 4]));
    }

    #[test]
    fn add_is_xor_of_aligned_coeffs() {
        // (x + 2) + (x + 3) = 1 (x terms cancel in char 2)
        let s = p(&[1, 2]).add(&p(&[1, 3]));
        assert_eq!(s, p(&[1]));
    }

    #[test]
    fn mul_matches_hand_expansion() {
        // (x + 1)(x + 2) = x² + 3x + 2 over GF(2^8): cross terms 2x + x = 3x.
        let prod = p(&[1, 1]).mul(&p(&[1, 2]));
        assert_eq!(prod, p(&[1, 3, 2]));
    }

    #[test]
    fn mul_by_zero_and_one() {
        let a = p(&[7, 0, 3]);
        assert!(a.mul(&Poly::zero()).is_zero());
        assert_eq!(a.mul(&Poly::one()), a);
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = p(&[1, 0, 5, 17, 200, 3]);
        let d = p(&[1, 44, 9]);
        let (q, r) = a.div_rem(&d);
        let back = q.mul(&d).add(&r);
        assert_eq!(back, a.normalize());
        assert!(r.degree().is_none_or(|rd| rd < d.degree().unwrap()));
    }

    #[test]
    fn div_by_larger_degree_gives_zero_quotient() {
        let a = p(&[3, 1]);
        let d = p(&[1, 0, 0, 1]);
        let (q, r) = a.div_rem(&d);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = p(&[1, 2]).div_rem(&Poly::zero());
    }

    #[test]
    fn eval_horner() {
        // f(x) = x² + 3x + 2 at x = 2: 4 ^ 6 ^ 2 = 0 (GF mult: 3*2=6).
        let f = p(&[1, 3, 2]);
        let x = Gf256(2);
        let expect = x.mul(x).add(Gf256(3).mul(x)).add(Gf256(2));
        assert_eq!(f.eval(x), expect);
        assert_eq!(f.eval(Gf256::ZERO), Gf256(2));
    }

    #[test]
    fn roots_of_product_are_roots_of_factors() {
        // (x - a)(x - b) has roots a and b (minus == plus in char 2).
        let a = Gf256(0x1D);
        let b = Gf256(0x73);
        let f = p(&[1, a.0]).mul(&p(&[1, b.0]));
        assert_eq!(f.eval(a), Gf256::ZERO);
        assert_eq!(f.eval(b), Gf256::ZERO);
        assert_ne!(f.eval(Gf256(0x02)), Gf256::ZERO);
    }

    #[test]
    fn derivative_drops_even_powers() {
        // f = x³ + 5x² + 7x + 9 → f' = 3x²·?? in char 2: x³→x² (coeff 1·3=1
        // since 3 mod 2 = 1), 5x²→0, 7x→7, 9→0. So f' = x² + 7.
        let f = p(&[1, 5, 7, 9]);
        assert_eq!(f.derivative(), p(&[1, 0, 7]));
        assert!(p(&[5]).derivative().is_zero());
        assert!(Poly::zero().derivative().is_zero());
    }

    #[test]
    fn shift_up_multiplies_by_x_power() {
        let f = p(&[2, 3]);
        assert_eq!(f.shift_up(2), p(&[2, 3, 0, 0]));
        assert_eq!(f.shift_up(0), f);
        assert!(Poly::zero().shift_up(4).is_zero());
    }

    #[test]
    fn coeff_accessor() {
        let f = p(&[1, 3, 2]); // x² + 3x + 2
        assert_eq!(f.coeff(0), Gf256(2));
        assert_eq!(f.coeff(1), Gf256(3));
        assert_eq!(f.coeff(2), Gf256(1));
        assert_eq!(f.coeff(3), Gf256::ZERO);
    }
}
