//! CIE 1931 chromaticity coordinates and gamut triangles.
//!
//! CSK constellation design (paper Section 2.2, Figs 1(d)–(f)) happens in the
//! `(x, y)` chromaticity plane: the three LED primaries span a *constellation
//! triangle*, and constellation symbols are points inside it chosen to
//! maximize pairwise distance. [`GamutTriangle`] provides the barycentric
//! machinery the constellation designer and the tri-LED drive solver need.

use crate::xyz::Xyz;

/// A point in the CIE 1931 `(x, y)` chromaticity plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Chromaticity {
    /// CIE x coordinate.
    pub x: f64,
    /// CIE y coordinate.
    pub y: f64,
}

impl Chromaticity {
    /// The equal-energy white point E, `(1/3, 1/3)`.
    pub const EQUAL_ENERGY: Chromaticity = Chromaticity {
        x: 1.0 / 3.0,
        y: 1.0 / 3.0,
    };

    /// The D65 white point.
    pub const D65: Chromaticity = Chromaticity {
        x: 0.3127,
        y: 0.3290,
    };

    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Chromaticity { x, y }
    }

    /// Euclidean distance in the chromaticity plane.
    pub fn distance(&self, o: Chromaticity) -> f64 {
        ((self.x - o.x).powi(2) + (self.y - o.y).powi(2)).sqrt()
    }

    /// Linear interpolation `self + t·(o − self)`.
    pub fn lerp(&self, o: Chromaticity, t: f64) -> Chromaticity {
        Chromaticity::new(self.x + t * (o.x - self.x), self.y + t * (o.y - self.y))
    }

    /// Attach a luminance to form a full [`Xyz`] color.
    pub fn with_luminance(self, luminance: f64) -> Xyz {
        Xyz::from_xy_luminance(self, luminance)
    }
}

/// Barycentric coordinates of a point with respect to a [`GamutTriangle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Barycentric {
    /// Weight of the red vertex.
    pub r: f64,
    /// Weight of the green vertex.
    pub g: f64,
    /// Weight of the blue vertex.
    pub b: f64,
}

impl Barycentric {
    /// Construct from weights (callers normally ensure they sum to 1).
    pub const fn new(r: f64, g: f64, b: f64) -> Self {
        Barycentric { r, g, b }
    }

    /// `true` when all weights are within `[-eps, 1+eps]`, i.e. the point is
    /// inside (or on the edge of) the triangle.
    pub fn is_inside(&self, eps: f64) -> bool {
        let ok = |w: f64| w >= -eps && w <= 1.0 + eps;
        ok(self.r) && ok(self.g) && ok(self.b)
    }
}

/// The triangle spanned by the tri-LED's red, green and blue primaries in the
/// chromaticity plane — the paper's *constellation triangle* (Fig 1(d)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GamutTriangle {
    /// Red primary chromaticity.
    pub red: Chromaticity,
    /// Green primary chromaticity.
    pub green: Chromaticity,
    /// Blue primary chromaticity.
    pub blue: Chromaticity,
}

impl GamutTriangle {
    /// Construct from three primaries. Returns `None` for a degenerate
    /// (collinear) triangle, which cannot span a 2-D constellation.
    pub fn new(red: Chromaticity, green: Chromaticity, blue: Chromaticity) -> Option<Self> {
        let t = GamutTriangle { red, green, blue };
        if t.signed_area().abs() < 1e-9 {
            None
        } else {
            Some(t)
        }
    }

    /// A typical off-the-shelf RGB tri-LED, matching the wide triangle of the
    /// paper's Fig 1(e)/(f) (x, y ∈ [0, 0.8]): a deep red around 627 nm, a
    /// saturated green around 530 nm, and a royal blue around 455 nm.
    pub fn typical_tri_led() -> Self {
        GamutTriangle {
            red: Chromaticity::new(0.700, 0.295),
            green: Chromaticity::new(0.170, 0.725),
            blue: Chromaticity::new(0.136, 0.040),
        }
    }

    /// sRGB / BT.709 primaries — the effective gamut a camera ISP encodes
    /// frames into.
    pub fn srgb() -> Self {
        GamutTriangle {
            red: Chromaticity::new(0.640, 0.330),
            green: Chromaticity::new(0.300, 0.600),
            blue: Chromaticity::new(0.150, 0.060),
        }
    }

    /// Twice the signed area of the triangle (positive when the vertices are
    /// counter-clockwise).
    pub fn signed_area(&self) -> f64 {
        let (a, b, c) = (self.red, self.green, self.blue);
        (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)
    }

    /// The centroid — equal-mix point of the three primaries' chromaticities.
    ///
    /// Note this is the *chromaticity-plane* centroid; the luminance-weighted
    /// white point of an actual LED mix is computed by the tri-LED model in
    /// `colorbars-led`, which works in XYZ.
    pub fn centroid(&self) -> Chromaticity {
        Chromaticity::new(
            (self.red.x + self.green.x + self.blue.x) / 3.0,
            (self.red.y + self.green.y + self.blue.y) / 3.0,
        )
    }

    /// Barycentric coordinates of `p` with respect to this triangle.
    pub fn barycentric(&self, p: Chromaticity) -> Barycentric {
        let det = self.signed_area();
        let (a, b, c) = (self.red, self.green, self.blue);
        let wr = ((b.x - p.x) * (c.y - p.y) - (c.x - p.x) * (b.y - p.y)) / det;
        let wg = ((c.x - p.x) * (a.y - p.y) - (a.x - p.x) * (c.y - p.y)) / det;
        Barycentric::new(wr, wg, 1.0 - wr - wg)
    }

    /// The point with the given barycentric coordinates.
    pub fn point(&self, w: Barycentric) -> Chromaticity {
        Chromaticity::new(
            w.r * self.red.x + w.g * self.green.x + w.b * self.blue.x,
            w.r * self.red.y + w.g * self.green.y + w.b * self.blue.y,
        )
    }

    /// `true` when `p` lies inside or on the triangle (tolerance `1e-9`).
    pub fn contains(&self, p: Chromaticity) -> bool {
        self.barycentric(p).is_inside(1e-9)
    }

    /// Clamp `p` to the closest point inside the triangle (Euclidean
    /// projection). Used defensively when channel noise pushes an estimated
    /// chromaticity slightly outside the gamut.
    pub fn clamp(&self, p: Chromaticity) -> Chromaticity {
        if self.contains(p) {
            return p;
        }
        let edges = [
            (self.red, self.green),
            (self.green, self.blue),
            (self.blue, self.red),
        ];
        let mut best = self.centroid();
        let mut best_d = f64::INFINITY;
        for (a, b) in edges {
            let q = project_to_segment(p, a, b);
            let d = p.distance(q);
            if d < best_d {
                best_d = d;
                best = q;
            }
        }
        best
    }

    /// Shortest distance among all pairs of the three vertices — an upper
    /// bound scale for constellation spacing.
    pub fn min_edge_length(&self) -> f64 {
        self.red
            .distance(self.green)
            .min(self.green.distance(self.blue))
            .min(self.blue.distance(self.red))
    }
}

fn project_to_segment(p: Chromaticity, a: Chromaticity, b: Chromaticity) -> Chromaticity {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len2 = abx * abx + aby * aby;
    if len2 < 1e-18 {
        return a;
    }
    let t = (((p.x - a.x) * abx + (p.y - a.y) * aby) / len2).clamp(0.0, 1.0);
    a.lerp(b, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> GamutTriangle {
        GamutTriangle::typical_tri_led()
    }

    #[test]
    fn vertices_and_centroid_are_inside() {
        let t = tri();
        assert!(t.contains(t.red));
        assert!(t.contains(t.green));
        assert!(t.contains(t.blue));
        assert!(t.contains(t.centroid()));
    }

    #[test]
    fn point_far_outside_is_not_contained() {
        assert!(!tri().contains(Chromaticity::new(0.9, 0.9)));
        assert!(!tri().contains(Chromaticity::new(0.0, 0.0)));
    }

    #[test]
    fn barycentric_round_trip() {
        let t = tri();
        let w = Barycentric::new(0.2, 0.5, 0.3);
        let p = t.point(w);
        let back = t.barycentric(p);
        assert!((back.r - w.r).abs() < 1e-12);
        assert!((back.g - w.g).abs() < 1e-12);
        assert!((back.b - w.b).abs() < 1e-12);
    }

    #[test]
    fn degenerate_triangle_rejected() {
        let a = Chromaticity::new(0.1, 0.1);
        let b = Chromaticity::new(0.2, 0.2);
        let c = Chromaticity::new(0.3, 0.3);
        assert!(GamutTriangle::new(a, b, c).is_none());
    }

    #[test]
    fn clamp_projects_outside_points_onto_boundary() {
        let t = tri();
        let p = Chromaticity::new(0.9, 0.9);
        let q = t.clamp(p);
        assert!(t.contains(q), "clamped point must be inside: {q:?}");
        // And clamping an inside point is a no-op.
        let c = t.centroid();
        assert_eq!(t.clamp(c), c);
    }

    #[test]
    fn clamp_is_closest_boundary_point_for_edge_normal() {
        let t = tri();
        // Take an edge midpoint and push it outward along the edge normal.
        let mid = t.red.lerp(t.green, 0.5);
        let nx = t.green.y - t.red.y;
        let ny = -(t.green.x - t.red.x);
        // Ensure we push away from the centroid (outside).
        let cen = t.centroid();
        let sign = if (mid.x - cen.x) * nx + (mid.y - cen.y) * ny > 0.0 {
            1.0
        } else {
            -1.0
        };
        let n = (nx * nx + ny * ny).sqrt();
        let p = Chromaticity::new(mid.x + sign * 0.05 * nx / n, mid.y + sign * 0.05 * ny / n);
        let q = t.clamp(p);
        assert!(
            q.distance(mid) < 1e-9,
            "expected projection back to midpoint, got {q:?}"
        );
    }

    #[test]
    fn lerp_endpoints() {
        let a = Chromaticity::new(0.1, 0.2);
        let b = Chromaticity::new(0.5, 0.6);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let m = a.lerp(b, 0.5);
        assert!((m.x - 0.3).abs() < 1e-15 && (m.y - 0.4).abs() < 1e-15);
    }
}
