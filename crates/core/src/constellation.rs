//! CSK constellation design in the CIE 1931 chromaticity plane.
//!
//! A CSK constellation is a set of M points inside the LED's gamut triangle
//! (paper Section 2.2, Figs 1(d)–(f)), chosen so that the minimum pairwise
//! distance is maximized (less inter-symbol interference) and so that an
//! equiprobable symbol stream averages out near the triangle's center (the
//! flicker-free property of Section 4).
//!
//! ## Substitution note (DESIGN.md §1)
//!
//! The paper adopts the constellation tables of the IEEE 802.15.7 standard,
//! which is not available offline. We therefore construct "802.15.7-style"
//! layouts with the same structure the standard's published figures show —
//! triangle vertices, edge-lattice points, and centered interior points —
//! followed by a deterministic max–min repulsion refinement. Both of the
//! properties the paper relies on (maximized inter-symbol distance; near-
//! white equiprobable mean) are enforced and tested here, so every
//! downstream result depends only on properties the real standard also has.

use colorbars_color::chromaticity::Barycentric;
use colorbars_color::{Chromaticity, GamutTriangle};

/// Supported CSK modulation orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CskOrder {
    /// 4 points, 2 bits/symbol.
    Csk4,
    /// 8 points, 3 bits/symbol.
    Csk8,
    /// 16 points, 4 bits/symbol.
    Csk16,
    /// 32 points, 5 bits/symbol.
    Csk32,
    /// 64 points, 6 bits/symbol (beyond-paper extension, DESIGN.md §15).
    Csk64,
}

impl CskOrder {
    /// Number of constellation points M.
    pub fn points(self) -> usize {
        match self {
            CskOrder::Csk4 => 4,
            CskOrder::Csk8 => 8,
            CskOrder::Csk16 => 16,
            CskOrder::Csk32 => 32,
            CskOrder::Csk64 => 64,
        }
    }

    /// Bits per symbol, `log2(M)`.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            CskOrder::Csk4 => 2,
            CskOrder::Csk8 => 3,
            CskOrder::Csk16 => 4,
            CskOrder::Csk32 => 5,
            CskOrder::Csk64 => 6,
        }
    }

    /// All orders the paper evaluates, in ascending size.
    pub const ALL: [CskOrder; 4] = [
        CskOrder::Csk4,
        CskOrder::Csk8,
        CskOrder::Csk16,
        CskOrder::Csk32,
    ];

    /// Every supported order including the beyond-paper high-order
    /// extension (DESIGN.md §15), ascending.
    pub const EXTENDED: [CskOrder; 5] = [
        CskOrder::Csk4,
        CskOrder::Csk8,
        CskOrder::Csk16,
        CskOrder::Csk32,
        CskOrder::Csk64,
    ];
}

impl std::fmt::Display for CskOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}CSK", self.points())
    }
}

/// A CSK constellation: M chromaticity points in a gamut triangle, indexed
/// `0..M`; symbol index ↔ bit-group mapping is plain binary (MSB first).
#[derive(Debug, Clone, PartialEq)]
pub struct Constellation {
    order: CskOrder,
    gamut: GamutTriangle,
    points: Vec<Chromaticity>,
    /// Optional symbol-index permutation applied between bit groups and
    /// wire indices (`None` = plain binary, as the paper uses). See
    /// [`Constellation::with_gray_mapping`].
    bit_map: Option<BitMap>,
}

/// A bit↔symbol permutation with its precomputed inverse.
#[derive(Debug, Clone, PartialEq)]
struct BitMap {
    /// `forward[bit_group] = wire index`.
    forward: Vec<u16>,
    /// `inverse[wire index] = bit_group`.
    inverse: Vec<u16>,
}

impl Constellation {
    /// Build the 802.15.7-style constellation for `order` inside `gamut`.
    /// Orders beyond the standard's 32-CSK ceiling use a deterministic
    /// farthest-point seed over a dense barycentric lattice (DESIGN.md §15)
    /// followed by the same repulsion refinement.
    pub fn ieee_style(order: CskOrder, gamut: GamutTriangle) -> Constellation {
        let mut points: Vec<Chromaticity> = match order {
            CskOrder::Csk4 => to_points(seed_4(), &gamut),
            CskOrder::Csk8 => to_points(seed_8(), &gamut),
            CskOrder::Csk16 => to_points(seed_16(), &gamut),
            CskOrder::Csk32 => to_points(seed_32(), &gamut),
            CskOrder::Csk64 => seed_dense(order.points(), &gamut),
        };
        refine_max_min(&mut points, &gamut, order);
        Constellation {
            order,
            gamut,
            points,
            bit_map: None,
        }
    }

    /// Enable the Gray-like bit mapping (see
    /// [`Constellation::gray_like_mapping`]): bit groups are permuted onto
    /// wire indices so that nearest-neighbor demodulation errors flip ~1
    /// bit instead of several. Transmitter and receiver must both enable it
    /// (they do, when built from the same [`crate::LinkConfig`]).
    pub fn with_gray_mapping(mut self) -> Constellation {
        let gray = self.gray_like_mapping();
        // gray[point] = code ⇒ forward[code] = point.
        let mut forward = vec![0u16; gray.len()];
        for (point, &code) in gray.iter().enumerate() {
            forward[code as usize] = point as u16;
        }
        let mut inverse = vec![0u16; gray.len()];
        for (code, &point) in forward.iter().enumerate() {
            inverse[point as usize] = code as u16;
        }
        self.bit_map = Some(BitMap { forward, inverse });
        self
    }

    /// Whether a Gray-like bit mapping is active.
    pub fn has_gray_mapping(&self) -> bool {
        self.bit_map.is_some()
    }

    /// The bit group a wire symbol index demodulates to (identity without
    /// a bit mapping), or `None` for an index past the constellation, which
    /// no transmitted symbol carries. The single conversion point every
    /// consumer of raw wire indices must go through.
    pub fn bit_group_of(&self, wire_index: u16) -> Option<u16> {
        let i = usize::from(wire_index);
        match &self.bit_map {
            Some(m) => m.inverse.get(i).copied(),
            None => (i < self.points.len()).then_some(wire_index),
        }
    }

    /// The modulation order.
    pub fn order(&self) -> CskOrder {
        self.order
    }

    /// The gamut triangle the constellation lives in.
    pub fn gamut(&self) -> GamutTriangle {
        self.gamut
    }

    /// All points, index order.
    pub fn points(&self) -> &[Chromaticity] {
        &self.points
    }

    /// Point for symbol index `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ M`.
    pub fn point(&self, i: usize) -> Chromaticity {
        self.points[i]
    }

    /// Bits per symbol.
    pub fn bits_per_symbol(&self) -> u32 {
        self.order.bits_per_symbol()
    }

    /// Minimum pairwise distance between points — the constellation's
    /// noise margin.
    pub fn min_distance(&self) -> f64 {
        let mut best = f64::INFINITY;
        for i in 0..self.points.len() {
            for j in (i + 1)..self.points.len() {
                best = best.min(self.points[i].distance(self.points[j]));
            }
        }
        best
    }

    /// Mean of all points — must sit near the triangle center for the
    /// flicker argument of Section 4.
    pub fn mean_point(&self) -> Chromaticity {
        let n = self.points.len() as f64;
        let (sx, sy) = self
            .points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Chromaticity::new(sx / n, sy / n)
    }

    /// The order in which calibration packets transmit the reference
    /// colors: a fixed permutation derived from each color's chroma
    /// (distance from the constellation mean ≈ the white point). Both
    /// sides derive the same permutation from the constellation geometry.
    ///
    /// The first position is the most saturated color, so the block's
    /// leading edge can never be mistaken for white padding by an
    /// uncalibrated receiver (which would deadlock the bootstrap).
    /// The ordering also *interleaves* high- and low-chroma colors (zigzag
    /// through the chroma-sorted list) so that no two adjacent sequence
    /// positions are both near-white: an uncalibrated receiver may misread
    /// isolated near-white references as white, and the receiver's parser
    /// treats only *runs* of whites as padding.
    pub fn calibration_sequence(&self) -> Vec<u16> {
        let center = self.mean_point();
        let mut by_chroma: Vec<usize> = (0..self.points.len()).collect();
        by_chroma.sort_by(|&a, &b| {
            let da = self.points[a].distance(center);
            let db = self.points[b].distance(center);
            db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
        });
        // Zigzag: most saturated, least saturated, 2nd most, 2nd least, …
        let m = by_chroma.len();
        let mut seq = Vec::with_capacity(m);
        let (mut lo, mut hi) = (0usize, m - 1);
        while lo <= hi {
            seq.push(by_chroma[lo] as u16);
            if lo != hi {
                seq.push(by_chroma[hi] as u16);
            }
            lo += 1;
            if hi == 0 {
                break;
            }
            hi -= 1;
        }
        seq
    }

    /// The paper's stated future work (Section 10): a constellation
    /// optimized for the *receiver's* perceptual space instead of the CIE
    /// `(x, y)` plane the 802.15.7 design lives in.
    ///
    /// Demodulation distance is measured in CIELAB `(a, b)` after the
    /// camera pipeline, where the xy plane is warped: equal xy spacing
    /// does not give equal ab spacing, so the standard design wastes
    /// margin in some directions. This constructor runs the same
    /// deterministic max–min refinement but evaluates distances through
    /// `perceptual` — a caller-supplied map from chromaticity to the
    /// receiver's demodulation coordinates (typically the ideal forward
    /// model's `(a, b)`).
    ///
    /// Returned points still live in the gamut triangle (the transmitter
    /// still drives xy targets); only the *spacing objective* changes.
    pub fn perceptually_optimized<F>(
        order: CskOrder,
        gamut: GamutTriangle,
        perceptual: F,
    ) -> Constellation
    where
        F: Fn(Chromaticity) -> (f64, f64),
    {
        let base = Constellation::ieee_style(order, gamut);
        let mut points = base.points.clone();
        let scale = gamut.min_edge_length();
        let iters = 160;
        for it in 0..iters {
            let step = 0.015 * scale * (1.0 - it as f64 / iters as f64);
            let snapshot = points.clone();
            let mapped: Vec<(f64, f64)> = snapshot.iter().map(|&p| perceptual(p)).collect();
            for (i, p) in points.iter_mut().enumerate() {
                // Nearest neighbor in the *perceptual* plane.
                let mut nn = None;
                let mut nn_d = f64::INFINITY;
                for (j, &(qa, qb)) in mapped.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let d = ((mapped[i].0 - qa).powi(2) + (mapped[i].1 - qb).powi(2)).sqrt();
                    if d < nn_d {
                        nn_d = d;
                        nn = Some(j);
                    }
                }
                let Some(j) = nn else { continue };
                if nn_d < 1e-9 {
                    continue;
                }
                // Move away from the neighbor in the xy plane (the space the
                // LED can actually drive), clamped to the gamut.
                let q = snapshot[j];
                let dx = p.x - q.x;
                let dy = p.y - q.y;
                let norm = (dx * dx + dy * dy).sqrt().max(1e-9);
                let moved = Chromaticity::new(p.x + step * dx / norm, p.y + step * dy / norm);
                *p = gamut.clamp(moved);
            }
        }
        Constellation {
            order,
            gamut,
            points,
            bit_map: None,
        }
    }

    /// Minimum pairwise distance under a perceptual map (companion to
    /// [`Constellation::perceptually_optimized`]).
    pub fn min_perceptual_distance<F>(&self, perceptual: F) -> f64
    where
        F: Fn(Chromaticity) -> (f64, f64),
    {
        let mapped: Vec<(f64, f64)> = self.points.iter().map(|&p| perceptual(p)).collect();
        let mut best = f64::INFINITY;
        for i in 0..mapped.len() {
            for j in (i + 1)..mapped.len() {
                let d = ((mapped[i].0 - mapped[j].0).powi(2) + (mapped[i].1 - mapped[j].1).powi(2))
                    .sqrt();
                best = best.min(d);
            }
        }
        best
    }

    /// Expected bit flips per symbol error under a bit mapping: for each
    /// point, the Hamming distance between its code and its *nearest
    /// geometric neighbor's* code (nearest-neighbor confusions dominate
    /// demodulation errors), averaged over points.
    ///
    /// `mapping[i]` is the bit pattern assigned to constellation index `i`;
    /// it must be a permutation of `0..M`. The identity mapping is what the
    /// modulator uses (plain binary); [`Constellation::gray_like_mapping`]
    /// produces a lower-cost alternative.
    pub fn bit_mapping_cost(&self, mapping: &[u16]) -> f64 {
        assert_eq!(mapping.len(), self.points.len(), "mapping size mismatch");
        let n = self.points.len();
        let mut total = 0u32;
        for i in 0..n {
            let mut nn = i;
            let mut nn_d = f64::INFINITY;
            for (j, q) in self.points.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = self.points[i].distance(*q);
                if d < nn_d {
                    nn_d = d;
                    nn = j;
                }
            }
            total += (mapping[i] ^ mapping[nn]).count_ones();
        }
        total as f64 / n as f64
    }

    /// A Gray-like bit mapping: assign bit patterns so that geometrically
    /// close points get codes differing in few bits, reducing the bit
    /// errors each symbol error causes (a classical modulation refinement
    /// the paper leaves on the table).
    ///
    /// Construction: a deterministic greedy nearest-neighbor tour through
    /// the points receives the binary-reflected Gray sequence, then
    /// pairwise-swap hill climbing refines the assignment against
    /// [`Constellation::bit_mapping_cost`]. The hill climb is O(M⁴), so it
    /// only runs for the paper's orders (M ≤ 32); the dense extension
    /// orders keep the tour + Gray-code assignment, which already puts
    /// near-Hamming-1 codes on geometric neighbors.
    pub fn gray_like_mapping(&self) -> Vec<u16> {
        let n = self.points.len();
        // Greedy tour.
        let mut tour = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut cur = 0usize;
        used[0] = true;
        tour.push(0usize);
        for _ in 1..n {
            let mut best = None;
            let mut best_d = f64::INFINITY;
            for (j, q) in self.points.iter().enumerate() {
                if used[j] {
                    continue;
                }
                let d = self.points[cur].distance(*q);
                if d < best_d {
                    best_d = d;
                    best = Some(j);
                }
            }
            let j = best.expect("unused point exists");
            used[j] = true;
            tour.push(j);
            cur = j;
        }
        // Binary-reflected Gray codes along the tour.
        let mut mapping = vec![0u16; n];
        for (pos, &point) in tour.iter().enumerate() {
            mapping[point] = (pos ^ (pos >> 1)) as u16;
        }
        if n > 32 {
            return mapping;
        }
        // Deterministic pairwise-swap refinement.
        let mut cost = self.bit_mapping_cost(&mapping);
        loop {
            let mut improved = false;
            for i in 0..n {
                for j in (i + 1)..n {
                    mapping.swap(i, j);
                    let c = self.bit_mapping_cost(&mapping);
                    if c + 1e-12 < cost {
                        cost = c;
                        improved = true;
                    } else {
                        mapping.swap(i, j);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        mapping
    }

    /// Pack a bit slice into symbol indices, MSB first, zero-padding the
    /// final group. `bits` are booleans.
    pub fn bits_to_indices(&self, bits: &[bool]) -> Vec<u16> {
        let c = self.bits_per_symbol() as usize;
        bits.chunks(c)
            .map(|chunk| {
                let mut v = 0u16;
                for (k, &b) in chunk.iter().enumerate() {
                    if b {
                        v |= 1 << (c - 1 - k);
                    }
                }
                match &self.bit_map {
                    Some(m) => m.forward[v as usize],
                    None => v,
                }
            })
            .collect()
    }

    /// Unpack symbol indices back into bits (inverse of
    /// [`Constellation::bits_to_indices`], producing `M.bits()` bits per
    /// symbol).
    pub fn indices_to_bits(&self, indices: &[u16]) -> Vec<bool> {
        let c = self.bits_per_symbol() as usize;
        let mut out = Vec::with_capacity(indices.len() * c);
        for &i in indices {
            let v = match &self.bit_map {
                Some(m) => m.inverse[i as usize],
                None => i,
            };
            for k in (0..c).rev() {
                out.push((v >> k) & 1 == 1);
            }
        }
        out
    }
}

/// 4-CSK: the three vertices and the centroid.
fn seed_4() -> Vec<Barycentric> {
    vec![
        Barycentric::new(1.0, 0.0, 0.0),
        Barycentric::new(0.0, 1.0, 0.0),
        Barycentric::new(0.0, 0.0, 1.0),
        Barycentric::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    ]
}

/// 8-CSK: vertices, edge midpoints, and two interior points straddling the
/// centroid (the structure of the standard's 8-CSK figure).
fn seed_8() -> Vec<Barycentric> {
    vec![
        Barycentric::new(1.0, 0.0, 0.0),
        Barycentric::new(0.0, 1.0, 0.0),
        Barycentric::new(0.0, 0.0, 1.0),
        Barycentric::new(0.5, 0.5, 0.0),
        Barycentric::new(0.0, 0.5, 0.5),
        Barycentric::new(0.5, 0.0, 0.5),
        Barycentric::new(0.5, 0.25, 0.25),
        Barycentric::new(1.0 / 6.0, 5.0 / 12.0, 5.0 / 12.0),
    ]
}

/// 16-CSK: the order-4 triangular lattice (15 points: edges divided in
/// quarters) plus the centroid.
fn seed_16() -> Vec<Barycentric> {
    let mut v = Vec::with_capacity(16);
    let n = 4;
    for i in 0..=n {
        for j in 0..=(n - i) {
            let k = n - i - j;
            v.push(Barycentric::new(
                i as f64 / n as f64,
                j as f64 / n as f64,
                k as f64 / n as f64,
            ));
        }
    }
    v.push(Barycentric::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0));
    v
}

/// 32-CSK: the order-6 triangular lattice (28 points) plus four interior
/// fill points.
fn seed_32() -> Vec<Barycentric> {
    let mut v = Vec::with_capacity(32);
    let n = 6;
    for i in 0..=n {
        for j in 0..=(n - i) {
            let k = n - i - j;
            v.push(Barycentric::new(
                i as f64 / n as f64,
                j as f64 / n as f64,
                k as f64 / n as f64,
            ));
        }
    }
    // Four extra interior points at sub-cell centers (all off-lattice; the
    // n = 6 lattice already contains the centroid at (2/6, 2/6, 2/6)).
    v.push(Barycentric::new(0.5, 0.25, 0.25));
    v.push(Barycentric::new(0.25, 0.5, 0.25));
    v.push(Barycentric::new(0.25, 0.25, 0.5));
    v.push(Barycentric::new(5.0 / 12.0, 5.0 / 12.0, 2.0 / 12.0));
    v
}

fn to_points(bary: Vec<Barycentric>, gamut: &GamutTriangle) -> Vec<Chromaticity> {
    bary.into_iter().map(|w| gamut.point(w)).collect()
}

/// Dense seed for the high-order extension (64-CSK): deterministic
/// farthest-point selection over a fixed barycentric candidate lattice.
/// The first pick is the red vertex, then each pick maximizes the minimum
/// distance to everything already selected (ties broken by lattice order),
/// tracked with a running min-distance array so selection is O(M·C). No
/// RNG anywhere, so construction is reproducible across runs and
/// platforms.
fn seed_dense(m: usize, gamut: &GamutTriangle) -> Vec<Chromaticity> {
    // A lattice of order n has (n+1)(n+2)/2 sites: n = 20 gives 231
    // candidates, oversampling 64 points ≈3.6×.
    let n = 20;
    let mut candidates = Vec::with_capacity((n + 1) * (n + 2) / 2);
    for i in 0..=n {
        for j in 0..=(n - i) {
            let k = n - i - j;
            candidates.push(gamut.point(Barycentric::new(
                i as f64 / n as f64,
                j as f64 / n as f64,
                k as f64 / n as f64,
            )));
        }
    }
    // Anchor the first pick on the red vertex — matches the paper seeds,
    // which all put index 0 on red.
    let mut selected = Vec::with_capacity(m);
    let mut min_d = vec![f64::INFINITY; candidates.len()];
    let mut first = 0usize;
    for (idx, c) in candidates.iter().enumerate() {
        if c.distance(gamut.red) < candidates[first].distance(gamut.red) {
            first = idx;
        }
    }
    let mut pick = first;
    for _ in 0..m {
        let p = candidates[pick];
        selected.push(p);
        min_d[pick] = -1.0; // never re-selected
        let mut next = 0usize;
        let mut next_d = -1.0;
        for (idx, c) in candidates.iter().enumerate() {
            if min_d[idx] < 0.0 {
                continue;
            }
            let d = c.distance(p);
            if d < min_d[idx] {
                min_d[idx] = d;
            }
            if min_d[idx] > next_d {
                next_d = min_d[idx];
                next = idx;
            }
        }
        pick = next;
    }
    selected
}

/// Deterministic max–min refinement: small repulsion steps away from each
/// point's nearest neighbor, clamped to the gamut, with decaying step size.
/// Improves the seed layouts' minimum distance without destroying their
/// overall structure. Fully deterministic (no RNG).
fn refine_max_min(points: &mut [Chromaticity], gamut: &GamutTriangle, order: CskOrder) {
    let scale = gamut.min_edge_length();
    let iters = 120;
    for it in 0..iters {
        let step = 0.02 * scale * (1.0 - it as f64 / iters as f64);
        let snapshot: Vec<Chromaticity> = points.to_vec();
        for (i, p) in points.iter_mut().enumerate() {
            // Find nearest neighbor in the snapshot.
            let mut nn = None;
            let mut nn_d = f64::INFINITY;
            for (j, q) in snapshot.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = p.distance(*q);
                if d < nn_d {
                    nn_d = d;
                    nn = Some(*q);
                }
            }
            let Some(q) = nn else { continue };
            if nn_d < 1e-12 {
                continue;
            }
            // For small orders the seeds are already optimal; only refine
            // the dense layouts where hand seeds leave slack.
            if matches!(order, CskOrder::Csk4) {
                continue;
            }
            let dir_x = (p.x - q.x) / nn_d;
            let dir_y = (p.y - q.y) / nn_d;
            let moved = Chromaticity::new(p.x + dir_x * step, p.y + dir_y * step);
            *p = gamut.clamp(moved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamut() -> GamutTriangle {
        GamutTriangle::typical_tri_led()
    }

    #[test]
    fn orders_have_correct_sizes_and_bits() {
        for order in CskOrder::ALL {
            let c = Constellation::ieee_style(order, gamut());
            assert_eq!(c.points().len(), order.points());
            assert_eq!(1usize << c.bits_per_symbol(), order.points());
        }
    }

    #[test]
    fn all_points_inside_gamut() {
        for order in CskOrder::ALL {
            let c = Constellation::ieee_style(order, gamut());
            for (i, p) in c.points().iter().enumerate() {
                assert!(gamut().contains(*p), "{order}: point {i} = {p:?}");
            }
        }
    }

    #[test]
    fn points_are_distinct() {
        for order in CskOrder::ALL {
            let c = Constellation::ieee_style(order, gamut());
            assert!(
                c.min_distance() > 1e-3,
                "{order}: min distance {}",
                c.min_distance()
            );
        }
    }

    #[test]
    fn min_distance_shrinks_with_order() {
        // Denser constellations trade noise margin for rate — the effect
        // behind Fig 9's SER ordering.
        let dists: Vec<f64> = CskOrder::ALL
            .iter()
            .map(|&o| Constellation::ieee_style(o, gamut()).min_distance())
            .collect();
        for w in dists.windows(2) {
            assert!(w[1] < w[0], "distances must be decreasing: {dists:?}");
        }
    }

    #[test]
    fn equiprobable_mean_is_near_center() {
        // The flicker argument needs the symbol cloud centered (Section 4).
        let centroid = gamut().centroid();
        let scale = gamut().min_edge_length();
        for order in CskOrder::ALL {
            let c = Constellation::ieee_style(order, gamut());
            let mean = c.mean_point();
            assert!(
                mean.distance(centroid) < 0.12 * scale,
                "{order}: mean {mean:?} vs centroid {centroid:?}"
            );
        }
    }

    #[test]
    fn four_csk_is_vertices_plus_centroid() {
        let c = Constellation::ieee_style(CskOrder::Csk4, gamut());
        assert!(c.point(0).distance(gamut().red) < 1e-9);
        assert!(c.point(1).distance(gamut().green) < 1e-9);
        assert!(c.point(2).distance(gamut().blue) < 1e-9);
        assert!(c.point(3).distance(gamut().centroid()) < 1e-9);
    }

    #[test]
    fn refinement_does_not_hurt_min_distance() {
        // Compare refined min distance against the raw seeds'.
        for order in [CskOrder::Csk8, CskOrder::Csk16, CskOrder::Csk32] {
            let g = gamut();
            let seeds = match order {
                CskOrder::Csk8 => seed_8(),
                CskOrder::Csk16 => seed_16(),
                _ => seed_32(),
            };
            let raw: Vec<Chromaticity> = seeds.into_iter().map(|w| g.point(w)).collect();
            let mut raw_min = f64::INFINITY;
            for i in 0..raw.len() {
                for j in (i + 1)..raw.len() {
                    raw_min = raw_min.min(raw[i].distance(raw[j]));
                }
            }
            let refined = Constellation::ieee_style(order, g).min_distance();
            assert!(
                refined >= raw_min * 0.999,
                "{order}: refined {refined} < seed {raw_min}"
            );
        }
    }

    #[test]
    fn bits_round_trip_through_indices() {
        for order in CskOrder::ALL {
            let c = Constellation::ieee_style(order, gamut());
            let nbits = c.bits_per_symbol() as usize * 7; // whole groups
            let bits: Vec<bool> = (0..nbits).map(|i| (i * 7 + 3) % 5 < 2).collect();
            let idx = c.bits_to_indices(&bits);
            let back = c.indices_to_bits(&idx);
            assert_eq!(&back[..bits.len()], &bits[..], "{order}");
        }
    }

    #[test]
    fn partial_final_group_is_zero_padded() {
        let c = Constellation::ieee_style(CskOrder::Csk8, gamut());
        let bits = vec![true, false, true, true]; // 1 group + 1 leftover bit
        let idx = c.bits_to_indices(&bits);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0], 0b101);
        assert_eq!(idx[1], 0b100); // '1' then padded zeros
    }

    #[test]
    fn calibration_sequence_is_an_interleaved_permutation() {
        for order in CskOrder::ALL {
            let c = Constellation::ieee_style(order, gamut());
            let seq = c.calibration_sequence();
            assert_eq!(seq.len(), order.points());
            let mut seen = vec![false; order.points()];
            for &i in &seq {
                assert!(!seen[i as usize], "{order}: duplicate index {i}");
                seen[i as usize] = true;
            }
            let center = c.mean_point();
            let chroma = |i: u16| c.point(i as usize).distance(center);
            // First position is the most saturated color of all.
            for &i in &seq[1..] {
                assert!(
                    chroma(seq[0]) >= chroma(i) - 1e-12,
                    "{order}: first not most saturated"
                );
            }
            // Zigzag property: no two adjacent positions are both in the
            // bottom-third chroma tier (near-white colors are isolated).
            let mut chromas: Vec<f64> = (0..seq.len()).map(|i| chroma(seq[i])).collect();
            let mut sorted = chromas.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let tier = sorted[seq.len() / 3];
            chromas.push(f64::INFINITY);
            for w in chromas.windows(2) {
                assert!(
                    w[0] > tier || w[1] > tier,
                    "{order}: adjacent near-white references ({} and {})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn perceptual_optimization_improves_perceptual_margin() {
        // A deliberately warped perceptual map: the receiver "sees" the y
        // axis stretched 3×. Optimizing under it must improve the worst
        // pair's perceptual distance relative to the standard design.
        let warp = |c: Chromaticity| (c.x * 100.0, c.y * 300.0);
        for order in [CskOrder::Csk16, CskOrder::Csk32] {
            let standard = Constellation::ieee_style(order, gamut());
            let optimized = Constellation::perceptually_optimized(order, gamut(), warp);
            let before = standard.min_perceptual_distance(warp);
            let after = optimized.min_perceptual_distance(warp);
            assert!(
                after >= before,
                "{order}: optimized {after:.2} must not be worse than standard {before:.2}"
            );
            // Points must stay inside the gamut.
            for p in optimized.points() {
                assert!(gamut().contains(*p));
            }
        }
    }

    #[test]
    fn gray_like_mapping_beats_binary_on_neighbor_bit_cost() {
        for order in [CskOrder::Csk8, CskOrder::Csk16, CskOrder::Csk32] {
            let c = Constellation::ieee_style(order, gamut());
            let identity: Vec<u16> = (0..order.points() as u16).collect();
            let gray = c.gray_like_mapping();
            // Gray mapping must be a permutation…
            let mut seen = vec![false; order.points()];
            for &g in &gray {
                assert!(!seen[g as usize], "{order}: duplicate code {g}");
                seen[g as usize] = true;
            }
            // …and strictly cheaper than plain binary.
            let binary_cost = c.bit_mapping_cost(&identity);
            let gray_cost = c.bit_mapping_cost(&gray);
            assert!(
                gray_cost < binary_cost,
                "{order}: gray {gray_cost:.3} vs binary {binary_cost:.3}"
            );
            // A nearest-neighbor confusion should flip close to 1 bit.
            assert!(gray_cost < 2.0, "{order}: {gray_cost}");
        }
    }

    #[test]
    fn perceptual_optimization_is_deterministic() {
        let warp = |c: Chromaticity| (c.x * 100.0, c.y * 150.0);
        let a = Constellation::perceptually_optimized(CskOrder::Csk16, gamut(), warp);
        let b = Constellation::perceptually_optimized(CskOrder::Csk16, gamut(), warp);
        assert_eq!(a, b);
    }

    #[test]
    fn construction_is_deterministic() {
        let a = Constellation::ieee_style(CskOrder::Csk32, gamut());
        let b = Constellation::ieee_style(CskOrder::Csk32, gamut());
        assert_eq!(a, b);
    }
}
