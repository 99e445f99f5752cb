//! Fig 1(e)/(f): the 8-CSK and 16-CSK constellation designs in the CIE
//! 1931 chromaticity plane (plus 4- and 32-CSK for completeness).
//!
//! Prints each constellation's `(x, y)` points — the series the paper's
//! scatter plots show — along with the design invariants the paper relies
//! on (minimum inter-symbol distance; equiprobable mean near the triangle
//! center).

use colorbars_bench::Reporter;
use colorbars_core::{Constellation, CskOrder};
use colorbars_led::TriLed;
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("fig1_constellations");
    let led = TriLed::typical();
    let gamut = led.gamut();
    reporter.say("Constellation triangle (tri-LED primaries):");
    reporter.say(format!("  R = ({:.3}, {:.3})", gamut.red.x, gamut.red.y));
    reporter.say(format!(
        "  G = ({:.3}, {:.3})",
        gamut.green.x, gamut.green.y
    ));
    reporter.say(format!("  B = ({:.3}, {:.3})", gamut.blue.x, gamut.blue.y));

    for order in CskOrder::ALL {
        let c = Constellation::ieee_style(order, gamut);
        reporter.header(
            &format!("{order} symbols (Fig 1(e)/(f) series)"),
            &["idx", "x", "y"],
        );
        for (i, p) in c.points().iter().enumerate() {
            reporter.say(format!("{i}\t{:.4}\t{:.4}", p.x, p.y));
        }
        let mean = c.mean_point();
        reporter.add_value(Value::object([
            ("order", Value::from(order.points() as i64)),
            (
                "points",
                Value::Array(
                    c.points()
                        .iter()
                        .map(|p| Value::Array(vec![Value::from(p.x), Value::from(p.y)]))
                        .collect(),
                ),
            ),
            ("min_distance", Value::from(c.min_distance())),
            ("mean_x", Value::from(mean.x)),
            ("mean_y", Value::from(mean.y)),
        ]));
        reporter.say(format!(
            "min inter-symbol distance = {:.4}; equiprobable mean = ({:.4}, {:.4}) vs centroid ({:.4}, {:.4})",
            c.min_distance(),
            mean.x,
            mean.y,
            gamut.centroid().x,
            gamut.centroid().y
        ));
    }
    reporter.finish();
}
