//! Lightweight-profiler demonstration: fit the white-box size/quality models
//! from a handful of variable-step samples and validate them against ground
//! truth on held-out configurations — a runnable version of the paper's
//! Fig. 3 and of its profiler error analysis.
//!
//! ```bash
//! cargo run --release --example profiler_fit
//! ```

use nerflex::core::report::{fmt_f64, Table};
use nerflex::profile::error::{analyze_errors, holdout_grid};
use nerflex::profile::measurement::MeasurementSettings;
use nerflex::profile::sampling::SampleRange;
use nerflex::profile::{build_profile, MeasurementContext, ProfilerOptions};
use nerflex::scene::object::CanonicalObject;

fn main() {
    let object = CanonicalObject::Chair;
    let model = object.build();
    // Reduced-scale range (the paper sweeps g to 128 and p to 45; see the
    // fig3 benchmark binary for the full-scale sweep).
    let options = ProfilerOptions {
        range: SampleRange { g_min: 10, g_max: 48, p_min: 3, p_max: 11 },
        measurement: MeasurementSettings {
            views: 3,
            resolution: 72,
            ..MeasurementSettings::default()
        },
        ..ProfilerOptions::default()
    };

    println!("profiling object '{}' with the variable-step sampling strategy ...", object.name());
    let profile = build_profile(&model, 0, &options, &MeasurementContext::default());

    let mut samples = Table::new(
        "Sample points used for curve fitting",
        &["g", "p", "measured MB", "measured SSIM", "predicted MB", "predicted SSIM"],
    );
    for s in &profile.samples {
        samples.push_row(vec![
            s.config.grid.to_string(),
            s.config.patch.to_string(),
            fmt_f64(s.size_mb, 2),
            fmt_f64(s.ssim, 3),
            fmt_f64(profile.predict_size(s.config.grid, s.config.patch), 2),
            fmt_f64(profile.predict_quality(s.config.grid, s.config.patch), 3),
        ]);
    }
    println!("{samples}");

    println!(
        "fitted size model:    S(g,p) = {:.3e}·(g{:+.2})³·(p{:+.2})² + {:.2} MB",
        profile.size_model.k, profile.size_model.a, profile.size_model.b, profile.size_model.m
    );
    println!(
        "fitted quality model: Q(g,p) = {:.3} − {:.3e}/((g{:+.2})³·(p{:+.2})²)\n",
        profile.quality_model.q_inf,
        profile.quality_model.k,
        profile.quality_model.a,
        profile.quality_model.b
    );

    // Held-out validation on configurations the fitter never saw.
    let holdout = holdout_grid(12, 44, 4, 10, 3, 3);
    let analysis = analyze_errors(&model, &profile, &holdout, &options.measurement);
    println!("held-out validation over {} configurations:", analysis.configurations);
    println!(
        "  quality error: mean {:.4}  std {:.4}   (paper reports 0.0065 ± 0.0088 at full scale)",
        analysis.quality_error_mean, analysis.quality_error_std
    );
    println!(
        "  size error:    mean {:.2} MB  std {:.2} MB (paper reports 3.34 ± 2.73 MB at full scale)",
        analysis.size_error_mean, analysis.size_error_std
    );
}
