//! Extension: Gray-coded symbol-to-bit mapping.
//!
//! The paper maps bit groups to constellation indices in plain binary.
//! Since demodulation errors land almost exclusively on the nearest
//! geometric neighbor, a Gray-like assignment (neighbors differ in ~1 bit)
//! cuts the *bit* errors each symbol error causes — a free improvement to
//! post-RS residual BER. This bench reports the neighbor bit cost (expected
//! bit flips per symbol error) for the binary and Gray-like mappings, and
//! the implied residual-BER ratio.

use colorbars_bench::Reporter;
use colorbars_core::{Constellation, CskOrder};
use colorbars_led::TriLed;
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("ext_gray_mapping");
    let gamut = TriLed::typical().gamut();
    reporter.header(
        "Extension: Gray-like bit mapping vs plain binary",
        &[
            "order",
            "binary bits/symbol-error",
            "gray bits/symbol-error",
            "residual-BER ratio",
        ],
    );
    for order in CskOrder::ALL {
        let c = Constellation::ieee_style(order, gamut);
        let identity: Vec<u16> = (0..order.points() as u16).collect();
        let gray = c.gray_like_mapping();
        let binary_cost = c.bit_mapping_cost(&identity);
        let gray_cost = c.bit_mapping_cost(&gray);
        reporter.add_value(Value::object([
            ("order", Value::from(order.points() as i64)),
            ("binary_bits_per_symbol_error", Value::from(binary_cost)),
            ("gray_bits_per_symbol_error", Value::from(gray_cost)),
            ("residual_ber_ratio", Value::from(gray_cost / binary_cost)),
        ]));
        reporter.say(format!(
            "{order}\t{binary_cost:.3}\t{gray_cost:.3}\t{:.2}×",
            gray_cost / binary_cost
        ));
    }
    reporter.say("");
    reporter.say("(Residual BER after a symbol error scales with the bit flips the");
    reporter.say("wrong neighbor causes; Gray-like assignment brings that near the");
    reporter.say("1-bit floor, roughly halving residual BER for dense constellations.)");
    reporter.finish();
}
