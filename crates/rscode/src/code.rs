//! The Reed–Solomon codec: systematic encoding and errors-and-erasures
//! decoding.
//!
//! The decoder implements the classical pipeline: syndromes → erasure
//! locator → Berlekamp–Massey for the errata locator → Chien search →
//! Forney's algorithm for magnitudes. A ColorBars receiver knows *where*
//! symbols were lost (the packet header carries the expected size, paper
//! Section 5), so inter-frame-gap losses decode as **erasures**, which cost
//! one parity symbol each instead of two.

use crate::gf256::Gf256;
use crate::poly::Poly;

/// Outcome of a successful decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The recovered `k` data bytes.
    pub data: Vec<u8>,
    /// Number of corrected *error* positions (unknown locations).
    pub corrected_errors: usize,
    /// Number of filled *erasure* positions (caller-declared locations).
    pub corrected_erasures: usize,
}

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Codeword length does not equal `n`.
    LengthMismatch {
        /// Expected codeword length `n`.
        expected: usize,
        /// Received buffer length.
        got: usize,
    },
    /// An erasure index was `≥ n` or repeated.
    BadErasure(usize),
    /// More erasures declared than parity symbols available.
    TooManyErasures {
        /// Number of declared erasures.
        erasures: usize,
        /// Parity budget `n − k`.
        parity: usize,
    },
    /// The corruption exceeds the code's correction capability
    /// (`2·errors + erasures > n − k`), detected during decoding.
    TooManyErrors,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::LengthMismatch { expected, got } => {
                write!(f, "codeword length {got}, expected {expected}")
            }
            DecodeError::BadErasure(i) => write!(f, "invalid erasure position {i}"),
            DecodeError::TooManyErasures { erasures, parity } => {
                write!(f, "{erasures} erasures exceed parity budget {parity}")
            }
            DecodeError::TooManyErrors => write!(f, "corruption exceeds correction capability"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A systematic RS(n, k) code over GF(2⁸) with `n ≤ 255` and first
/// consecutive root α¹ (narrow-sense, `fcr = 1`).
///
/// Codewords are `data ‖ parity`. Shortened codes (`n < 255`) are supported
/// directly — shortening is implicit in the generator-polynomial remainder
/// construction.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    generator: Poly,
}

impl ReedSolomon {
    /// Create an RS(n, k) code. Returns `None` unless `0 < k < n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Option<ReedSolomon> {
        if k == 0 || k >= n || n > 255 {
            return None;
        }
        // g(x) = Π_{i=1..n−k} (x − α^i)
        let mut g = Poly::one();
        for i in 1..=(n - k) {
            g = g.mul(&Poly(vec![Gf256::ONE, Gf256::alpha_pow(i as i32)]));
        }
        Some(ReedSolomon { n, k, generator: g })
    }

    /// Codeword length in bytes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data length in bytes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity length `n − k`.
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// Encode `k` data bytes into an `n`-byte systematic codeword.
    ///
    /// Errors with the actual length if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, usize> {
        if data.len() != self.k {
            return Err(data.len());
        }
        // parity = (data · x^{n−k}) mod g(x)
        let msg = Poly::from_bytes(data).shift_up(self.parity_len());
        let (_, rem) = msg.div_rem(&self.generator);
        let mut out = data.to_vec();
        let parity_len = self.parity_len();
        let mut parity = vec![0u8; parity_len];
        // Remainder has degree < n−k; right-align it into the parity bytes.
        let rp = &rem.0;
        for (i, c) in rp.iter().enumerate() {
            parity[parity_len - rp.len() + i] = c.0;
        }
        out.extend_from_slice(&parity);
        Ok(out)
    }

    /// Decode an `n`-byte received word, with `erasures` giving the indexes
    /// of symbols known to be lost (their byte values are ignored).
    ///
    /// Corrects any combination satisfying `2·errors + erasures ≤ n − k`.
    pub fn decode(&self, received: &[u8], erasures: &[usize]) -> Result<Decoded, DecodeError> {
        if received.len() != self.n {
            return Err(DecodeError::LengthMismatch {
                expected: self.n,
                got: received.len(),
            });
        }
        let parity = self.parity_len();
        let mut seen = vec![false; self.n];
        for &e in erasures {
            if e >= self.n || seen[e] {
                return Err(DecodeError::BadErasure(e));
            }
            seen[e] = true;
        }
        if erasures.len() > parity {
            return Err(DecodeError::TooManyErasures {
                erasures: erasures.len(),
                parity,
            });
        }

        // Work on a copy with erased positions zeroed (any value works, but
        // zeroing makes behaviour independent of the junk the caller left).
        let mut word: Vec<Gf256> = received.iter().map(|&b| Gf256(b)).collect();
        for &e in erasures {
            word[e] = Gf256::ZERO;
        }
        let word_poly = Poly(word.clone());

        // Syndromes S_i = r(α^i), i = 1..n−k.
        let syndromes: Vec<Gf256> = (1..=parity)
            .map(|i| word_poly.eval(Gf256::alpha_pow(i as i32)))
            .collect();
        let no_errors = syndromes.iter().all(|s| s.is_zero());
        if no_errors && erasures.is_empty() {
            return Ok(Decoded {
                data: received[..self.k].to_vec(),
                corrected_errors: 0,
                corrected_erasures: 0,
            });
        }

        // Positions are conventionally numbered from the *end* of the
        // codeword: position j has locator X_j = α^j where j is the power of
        // the corresponding codeword term x^j.
        let loc_of = |idx: usize| Gf256::alpha_pow((self.n - 1 - idx) as i32);

        // Erasure locator Γ(x) = Π (1 − X_j x).
        let mut gamma = Poly::one();
        for &e in erasures {
            gamma = gamma.mul(&Poly(vec![loc_of(e), Gf256::ONE]));
        }

        // Berlekamp–Massey seeded with the erasure locator: the result is
        // the full errata locator Ψ(x) = Λ(x)·Γ(x) whose roots locate both
        // errors and erasures.
        let psi = berlekamp_massey(&syndromes, &gamma, erasures.len());
        let num_errata = psi.degree().unwrap_or(0);
        if num_errata == 0 && erasures.is_empty() {
            // Syndromes nonzero but no locatable errata → undecodable.
            return Err(DecodeError::TooManyErrors);
        }
        if num_errata < erasures.len()
            || 2 * (num_errata - erasures.len()) + erasures.len() > parity
        {
            return Err(DecodeError::TooManyErrors);
        }

        // Chien search: positions j where Ψ(X_j⁻¹) = 0.
        let mut errata_pos: Vec<usize> = Vec::with_capacity(num_errata);
        for idx in 0..self.n {
            let xj_inv = loc_of(idx).inv().expect("alpha powers are nonzero");
            if psi.eval(xj_inv).is_zero() {
                errata_pos.push(idx);
            }
        }
        if errata_pos.len() != num_errata {
            return Err(DecodeError::TooManyErrors);
        }

        // Forney: magnitudes from the errata evaluator Ω = [S·Ψ] mod x^{2t}.
        let s_poly2 = Poly(syndromes.iter().rev().cloned().collect());
        let omega = mod_x_pow(&s_poly2.mul(&psi), parity);
        let psi_deriv = psi.derivative();
        for &idx in &errata_pos {
            let xj = loc_of(idx);
            let xj_inv = xj.inv().unwrap();
            let denom = psi_deriv.eval(xj_inv);
            if denom.is_zero() {
                return Err(DecodeError::TooManyErrors);
            }
            // Narrow-sense fcr=1: magnitude = X_j^0 · Ω(X_j⁻¹)/Ψ'(X_j⁻¹)
            // with the standard fcr correction term X_j^{1−fcr} = 1.
            let mag = omega.eval(xj_inv).div(denom).unwrap();
            word[idx] = word[idx].add(mag);
        }

        // Verify: all syndromes of the corrected word must vanish.
        let corrected = Poly(word.clone());
        for i in 1..=parity {
            if !corrected.eval(Gf256::alpha_pow(i as i32)).is_zero() {
                return Err(DecodeError::TooManyErrors);
            }
        }

        let data = word[..self.k].iter().map(|g| g.0).collect();
        let erasure_set: std::collections::HashSet<usize> = erasures.iter().cloned().collect();
        let corrected_errors = errata_pos
            .iter()
            .filter(|p| !erasure_set.contains(p))
            .count();
        Ok(Decoded {
            data,
            corrected_errors,
            corrected_erasures: erasures.len(),
        })
    }
}

/// Truncate a polynomial modulo `x^m` (keep only powers `< m`).
fn mod_x_pow(p: &Poly, m: usize) -> Poly {
    let p = p.clone().normalize();
    let len = p.0.len();
    if len <= m {
        return p;
    }
    Poly(p.0[len - m..].to_vec()).normalize()
}

/// Berlekamp–Massey seeded with the erasure locator `gamma`, returning the
/// errata locator Ψ(x) directly.
///
/// `syndromes[i]` holds S_{i+1}. With ν declared erasures, the recursion
/// starts at syndrome index ν and runs for the remaining `2t − ν` syndromes;
/// the locator and its shadow copy both start from Γ(x). This is the
/// classical erasures-and-errors formulation (Blahut / Forney): the degree
/// budget consumed by the erasures is baked into the initialization.
fn berlekamp_massey(syndromes: &[Gf256], gamma: &Poly, nu: usize) -> Poly {
    let parity = syndromes.len();
    // Coefficient vectors, highest-degree first (Poly convention).
    let mut err_loc: Vec<Gf256> = gamma.clone().normalize().0;
    if err_loc.is_empty() {
        err_loc.push(Gf256::ONE);
    }
    let mut old_loc = err_loc.clone();
    for i in 0..parity.saturating_sub(nu) {
        let k = nu + i;
        // Discrepancy Δ = Σ_j ψ_j · S_{k+1−j}, where ψ_j is the coefficient
        // of x^j (stored at err_loc[len−1−j]).
        let mut delta = syndromes[k];
        for j in 1..err_loc.len() {
            let coeff = err_loc[err_loc.len() - 1 - j];
            if !coeff.is_zero() {
                delta = delta.add(coeff.mul(syndromes[k - j]));
            }
        }
        old_loc.push(Gf256::ZERO); // old_loc *= x
        if !delta.is_zero() {
            if old_loc.len() > err_loc.len() {
                // Length change: swap roles, rescaling to keep the update
                // formula uniform.
                let new_loc: Vec<Gf256> = old_loc.iter().map(|c| c.mul(delta)).collect();
                let inv = delta.inv().expect("delta is nonzero");
                old_loc = err_loc.iter().map(|c| c.mul(inv)).collect();
                err_loc = new_loc;
            }
            // err_loc += delta · old_loc  (aligned at the low end).
            let off = err_loc.len() - old_loc.len();
            for (j, c) in old_loc.iter().enumerate() {
                err_loc[off + j] = err_loc[off + j].add(c.mul(delta));
            }
        }
    }
    Poly(err_loc).normalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(n: usize, k: usize) -> ReedSolomon {
        ReedSolomon::new(n, k).unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(ReedSolomon::new(255, 223).is_some());
        assert!(ReedSolomon::new(10, 10).is_none());
        assert!(ReedSolomon::new(10, 0).is_none());
        assert!(ReedSolomon::new(256, 200).is_none());
        assert!(ReedSolomon::new(5, 6).is_none());
    }

    #[test]
    fn encode_is_systematic() {
        let code = rs(12, 8);
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        let cw = code.encode(&data).unwrap();
        assert_eq!(cw.len(), 12);
        assert_eq!(&cw[..8], &data);
    }

    #[test]
    fn encode_rejects_wrong_length() {
        let code = rs(12, 8);
        assert_eq!(code.encode(&[0u8; 7]), Err(7));
    }

    #[test]
    fn clean_codeword_decodes() {
        let code = rs(20, 12);
        let data: Vec<u8> = (0..12).collect();
        let cw = code.encode(&data).unwrap();
        let d = code.decode(&cw, &[]).unwrap();
        assert_eq!(d.data, data);
        assert_eq!(d.corrected_errors, 0);
        assert_eq!(d.corrected_erasures, 0);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let code = rs(30, 20); // t = 5
        let data: Vec<u8> = (0..20).map(|i| (i * 7 + 3) as u8).collect();
        let clean = code.encode(&data).unwrap();
        for errors in 1..=5 {
            let mut cw = clean.clone();
            for e in 0..errors {
                cw[e * 5] ^= 0xA5;
            }
            let d = code.decode(&cw, &[]).unwrap();
            assert_eq!(d.data, data, "errors = {errors}");
            assert_eq!(d.corrected_errors, errors);
        }
    }

    #[test]
    fn detects_beyond_capacity() {
        let code = rs(20, 16); // t = 2
        let data: Vec<u8> = (10..26).collect();
        let clean = code.encode(&data).unwrap();
        let mut cw = clean.clone();
        // 4 errors with t = 2: decode must fail or *not* return wrong data
        // silently claiming success with matching syndromes is statistically
        // possible for RS beyond capacity, but with this pattern it errors.
        for e in 0..4 {
            cw[e * 4 + 1] ^= 0x3C;
        }
        match code.decode(&cw, &[]) {
            Err(DecodeError::TooManyErrors) => {}
            Ok(d) => assert_ne!(d.data, data, "must not silently mis-decode to original"),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn corrects_full_parity_of_erasures() {
        let code = rs(24, 16); // 8 parity → 8 erasures
        let data: Vec<u8> = (0..16).map(|i| (255 - i * 3) as u8).collect();
        let clean = code.encode(&data).unwrap();
        let mut cw = clean.clone();
        let erasures: Vec<usize> = vec![0, 3, 7, 8, 13, 18, 21, 23];
        for &e in &erasures {
            cw[e] = 0xFF;
        }
        let d = code.decode(&cw, &erasures).unwrap();
        assert_eq!(d.data, data);
        assert_eq!(d.corrected_erasures, 8);
    }

    #[test]
    fn corrects_mixed_errors_and_erasures() {
        let code = rs(32, 20); // 12 parity: 2 errors (4) + 8 erasures = 12 ✓
        let data: Vec<u8> = (0..20).map(|i| (i * i + 1) as u8).collect();
        let clean = code.encode(&data).unwrap();
        let mut cw = clean.clone();
        let erasures: Vec<usize> = vec![1, 2, 10, 11, 12, 25, 30, 31];
        for &e in &erasures {
            cw[e] = 0;
        }
        cw[5] ^= 0x77;
        cw[17] ^= 0x11;
        let d = code.decode(&cw, &erasures).unwrap();
        assert_eq!(d.data, data);
        assert_eq!(d.corrected_errors, 2);
        assert_eq!(d.corrected_erasures, 8);
    }

    #[test]
    fn contiguous_burst_erasure_like_inter_frame_gap() {
        // The ColorBars loss pattern: a contiguous run of symbols missing in
        // the middle of a packet.
        let code = rs(60, 36); // 24 parity
        let data: Vec<u8> = (0..36).map(|i| (i * 13 + 5) as u8).collect();
        let clean = code.encode(&data).unwrap();
        let mut cw = clean.clone();
        let erasures: Vec<usize> = (20..44).collect(); // 24 contiguous
        for &e in &erasures {
            cw[e] = 0xAA;
        }
        let d = code.decode(&cw, &erasures).unwrap();
        assert_eq!(d.data, data);
    }

    #[test]
    fn erasure_validation() {
        let code = rs(10, 6);
        let cw = code.encode(&[0u8; 6]).unwrap();
        assert!(matches!(
            code.decode(&cw, &[10]),
            Err(DecodeError::BadErasure(10))
        ));
        assert!(matches!(
            code.decode(&cw, &[1, 1]),
            Err(DecodeError::BadErasure(1))
        ));
        assert!(matches!(
            code.decode(&cw, &[0, 1, 2, 3, 4]),
            Err(DecodeError::TooManyErasures {
                erasures: 5,
                parity: 4
            })
        ));
        assert!(matches!(
            code.decode(&[0u8; 9], &[]),
            Err(DecodeError::LengthMismatch {
                expected: 10,
                got: 9
            })
        ));
    }

    #[test]
    fn error_in_parity_region_is_corrected() {
        let code = rs(18, 12);
        let data: Vec<u8> = (100..112).collect();
        let mut cw = code.encode(&data).unwrap();
        cw[15] ^= 0xF0; // parity byte
        cw[16] ^= 0x0F;
        let d = code.decode(&cw, &[]).unwrap();
        assert_eq!(d.data, data);
        assert_eq!(d.corrected_errors, 2);
    }

    #[test]
    fn all_zero_data() {
        let code = rs(16, 10);
        let cw = code.encode(&[0u8; 10]).unwrap();
        assert_eq!(cw, vec![0u8; 16], "zero data must give zero parity");
        let mut corrupted = cw.clone();
        corrupted[4] = 9;
        assert_eq!(code.decode(&corrupted, &[]).unwrap().data, vec![0u8; 10]);
    }

    #[test]
    fn max_size_code() {
        let code = rs(255, 223);
        let data: Vec<u8> = (0..223).map(|i| (i % 251) as u8).collect();
        let clean = code.encode(&data).unwrap();
        let mut cw = clean.clone();
        for e in 0..16 {
            cw[e * 15] ^= (e + 1) as u8;
        }
        let d = code.decode(&cw, &[]).unwrap();
        assert_eq!(d.data, data);
        assert_eq!(d.corrected_errors, 16);
    }

    #[test]
    fn paper_worked_example_dimensions() {
        // Section 5's example: F_S = 150, L_S = 30, 8CSK (C = 3), α_S = 4/5
        // → message size k = α·C·(F_S − L_S) = 0.8·3·120 = 288 bits = 36 B,
        // n = 0.8·3·180 = 432 bits = 54 B.
        let k_bits = (0.8 * 3.0 * 120.0) as usize;
        let n_bits = (0.8 * 3.0 * 180.0) as usize;
        assert_eq!(k_bits / 8, 36, "matches paper's 36-byte message");
        let code = rs(n_bits / 8, k_bits / 8).unwrap_or_else(|| panic!("valid code"));
        fn rs(n: usize, k: usize) -> Option<ReedSolomon> {
            ReedSolomon::new(n, k)
        }
        let data = [7u8; 36];
        let mut cw = code.encode(&data).unwrap();
        // Lose 30 bands ≈ 90 bits ≈ 12 bytes as erasures: within budget (18).
        let erasures: Vec<usize> = (20..32).collect();
        for &e in &erasures {
            cw[e] = 0;
        }
        assert_eq!(
            code.decode(&cw, &erasures).unwrap().data.to_vec(),
            data.to_vec()
        );
    }
}
