//! Property-based invariants of the max–min-distance constellation
//! designer across every supported order, including the beyond-paper
//! high-order extension (DESIGN.md §15): the designer must always produce
//! exactly M distinct in-gamut points, deterministically, with a noise
//! margin that can only shrink as the constellation densifies.

use colorbars_color::GamutTriangle;
use colorbars_core::{Constellation, CskOrder};
use proptest::prelude::*;

fn any_extended_order() -> impl Strategy<Value = CskOrder> {
    prop_oneof![
        Just(CskOrder::Csk4),
        Just(CskOrder::Csk8),
        Just(CskOrder::Csk16),
        Just(CskOrder::Csk32),
        Just(CskOrder::Csk64),
    ]
}

/// A handful of valid gamut triangles beyond the typical tri-LED: the
/// invariants must hold for any transmitter hardware, not one calibration.
fn any_gamut() -> impl Strategy<Value = GamutTriangle> {
    prop_oneof![
        Just(GamutTriangle::typical_tri_led()),
        Just(GamutTriangle::srgb()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly M points, all strictly distinct, all inside the LED gamut
    /// (a point outside the triangle is physically untransmittable).
    #[test]
    fn every_order_yields_m_distinct_in_gamut_points(
        order in any_extended_order(),
        gamut in any_gamut(),
    ) {
        let c = Constellation::ieee_style(order, gamut);
        let pts = c.points();
        prop_assert_eq!(pts.len(), order.points());
        for (i, p) in pts.iter().enumerate() {
            prop_assert!(
                gamut.contains(*p),
                "{order}: point {i} ({}, {}) escapes the gamut",
                p.x,
                p.y
            );
        }
        prop_assert!(
            c.min_distance() > 0.0,
            "{order}: coincident points (min distance {})",
            c.min_distance()
        );
    }

    /// The designer is a pure function of (order, gamut): two independent
    /// runs must agree bit for bit — transmitter and receiver derive the
    /// constellation separately and *must* land on identical geometry.
    #[test]
    fn design_is_deterministic(order in any_extended_order(), gamut in any_gamut()) {
        let a = Constellation::ieee_style(order, gamut);
        let b = Constellation::ieee_style(order, gamut);
        prop_assert_eq!(a.points().len(), b.points().len());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            prop_assert_eq!(pa.x.to_bits(), pb.x.to_bits());
            prop_assert_eq!(pa.y.to_bits(), pb.y.to_bits());
        }
        prop_assert_eq!(a.min_distance().to_bits(), b.min_distance().to_bits());
    }

    /// Within any one gamut, the minimum pairwise distance is monotonically
    /// non-increasing in M: packing more points into the same triangle can
    /// never widen the noise margin (the geometry behind Fig 9's SER
    /// ordering, extended to 64 points).
    #[test]
    fn min_distance_is_monotone_in_order(gamut in any_gamut()) {
        let dists: Vec<(usize, f64)> = CskOrder::EXTENDED
            .iter()
            .map(|&o| (o.points(), Constellation::ieee_style(o, gamut).min_distance()))
            .collect();
        for w in dists.windows(2) {
            let ((m0, d0), (m1, d1)) = (w[0], w[1]);
            prop_assert!(
                d1 <= d0 + 1e-12,
                "min distance grew with order: {m0} points -> {d0}, {m1} points -> {d1}"
            );
        }
    }
}
