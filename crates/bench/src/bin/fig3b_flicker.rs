//! Fig 3(b): minimum percentage of white illumination symbols necessary to
//! prevent color flicker, vs symbol frequency (500–5000 Hz).
//!
//! The paper measured this with ten volunteers watching the LED; here the
//! volunteers are the simulated observer panel (Bloch's-law temporal
//! summation with per-observer critical durations and temporal-modulation
//! thresholds — see DESIGN.md §1). For each frequency the harness
//! binary-searches the smallest white ratio at which nobody reports
//! flicker, exactly the paper's procedure.

use colorbars_bench::Reporter;
use colorbars_core::WhiteRatioTable;
use colorbars_flicker::{minimum_white_ratio, WhiteRatioExperiment};
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("fig3b_flicker");
    let frequencies = [500.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0];
    let exp = WhiteRatioExperiment {
        duration: 1.2,
        tolerance: 0.01,
        panel: colorbars_flicker::ObserverPanel::fig3b_volunteers(),
        ..WhiteRatioExperiment::default()
    };
    let table = WhiteRatioTable::paper_fig3b();

    reporter.header(
        "Fig 3(b): minimum white-symbol ratio vs symbol frequency",
        &["freq (Hz)", "measured min ratio", "paper Fig 3(b)"],
    );
    let mut prev = 1.0;
    let mut monotone = true;
    for &f in &frequencies {
        let measured = minimum_white_ratio(&exp, f);
        // The paper's curve is (weakly) monotone decreasing; record any
        // violation in the report rather than aborting so the run report
        // and transcript survive for the doctor/diff tooling.
        let ok = measured <= prev + exp.tolerance;
        monotone &= ok;
        reporter.add_value(Value::object([
            ("freq_hz", Value::from(f)),
            ("measured_min_ratio", Value::from(measured)),
            ("paper_ratio", Value::from(table.ratio_at(f))),
            ("monotone", Value::Bool(ok)),
        ]));
        reporter.say(format!("{f:.0}\t{measured:.2}\t{:.2}", table.ratio_at(f)));
        prev = measured;
    }
    if !monotone {
        reporter.say("");
        reporter.say("WARNING: curve is not (weakly) monotone decreasing at this");
        reporter.say("panel/seed configuration — see the per-row `monotone` flags.");
    }
    reporter.say("");
    reporter.say("(The paper's qualitative claim: higher symbol frequencies need fewer");
    reporter.say("dedicated white symbols because each critical-duration window averages");
    reporter.say("more independent colors.)");
    reporter.finish();
}
