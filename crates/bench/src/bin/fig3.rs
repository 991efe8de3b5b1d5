//! Fig. 3 (a–d) + the profiler error analysis of §III-B.
//!
//! Regenerates the profiler-validation curves: predicted vs measured quality
//! and size as functions of the mesh granularity (fixed patch) and of the
//! patch size (fixed granularity), followed by the multi-object error
//! analysis (paper: 4 objects × 45 configuration pairs, mean SSIM error
//! 0.0065 ± 0.0088, mean size error 3.34 ± 2.73 MB).
//!
//! ```bash
//! cargo run --release -p nerflex-bench --bin fig3 [-- --full]
//! ```

use nerflex_bake::BakeConfig;
use nerflex_bench::{print_header, seed_from_args, ExperimentMode};
use nerflex_core::report::{fmt_f64, Table};
use nerflex_profile::error::{analyze_errors, holdout_grid};
use nerflex_profile::{build_profile, measure_object, MeasurementContext, ObjectProfile};
use nerflex_scene::object::CanonicalObject;

fn main() {
    let mode = ExperimentMode::from_args();
    let seed = seed_from_args();
    print_header("Fig. 3 — profiler fitted curves vs ground truth", mode, seed);

    let object = CanonicalObject::Chair;
    let model = object.build();
    let options = mode.profiler_options();
    println!("object: {} | sample range {:?}\n", object.name(), options.range);
    let profile = build_profile(&model, 0, &options, &MeasurementContext::default());
    print_fitted_models(&profile);

    // Sweep axes: the paper fixes p = 17 for the g sweep and g = 80 for the
    // p sweep; the quick mode scales both down proportionally.
    let (fixed_p, fixed_g, g_values, p_values) = match mode {
        ExperimentMode::Full => (
            17u32,
            80u32,
            vec![16u32, 32, 48, 64, 80, 96, 112, 128],
            vec![5u32, 11, 17, 23, 29, 35, 41, 45],
        ),
        ExperimentMode::Quick => {
            (7u32, 30u32, vec![10u32, 16, 22, 28, 34, 40, 48], vec![3u32, 5, 7, 9, 11])
        }
    };

    // Fig. 3(a)/(b): sweep mesh granularity at fixed patch size.
    let g_configs: Vec<BakeConfig> =
        g_values.iter().map(|&g| BakeConfig::new(g, fixed_p)).collect();
    let g_truth =
        measure_object(&model, &g_configs, &options.measurement, &MeasurementContext::default());
    let mut ab = Table::new(
        &format!("Fig. 3(a)+(b): sweep of mesh granularity (patch fixed at {fixed_p})"),
        &["g", "measured SSIM", "fitted SSIM", "measured MB", "fitted MB"],
    );
    for m in &g_truth {
        ab.push_row(vec![
            m.config.grid.to_string(),
            fmt_f64(m.ssim, 4),
            fmt_f64(profile.predict_quality(m.config.grid, m.config.patch), 4),
            fmt_f64(m.size_mb, 2),
            fmt_f64(profile.predict_size(m.config.grid, m.config.patch), 2),
        ]);
    }
    println!("{ab}");

    // Fig. 3(c)/(d): sweep patch size at fixed mesh granularity.
    let p_configs: Vec<BakeConfig> =
        p_values.iter().map(|&p| BakeConfig::new(fixed_g, p)).collect();
    let p_truth =
        measure_object(&model, &p_configs, &options.measurement, &MeasurementContext::default());
    let mut cd = Table::new(
        &format!("Fig. 3(c)+(d): sweep of patch size (granularity fixed at {fixed_g})"),
        &["p", "measured SSIM", "fitted SSIM", "measured MB", "fitted MB"],
    );
    for m in &p_truth {
        cd.push_row(vec![
            m.config.patch.to_string(),
            fmt_f64(m.ssim, 4),
            fmt_f64(profile.predict_quality(m.config.grid, m.config.patch), 4),
            fmt_f64(m.size_mb, 2),
            fmt_f64(profile.predict_size(m.config.grid, m.config.patch), 2),
        ]);
    }
    println!("{cd}");

    // Error analysis across four objects on a held-out grid.
    let objects = [
        CanonicalObject::Hotdog,
        CanonicalObject::Ficus,
        CanonicalObject::Chair,
        CanonicalObject::Lego,
    ];
    let holdout = match mode {
        ExperimentMode::Full => holdout_grid(20, 120, 5, 41, 5, 9), // 45 pairs
        ExperimentMode::Quick => holdout_grid(12, 44, 4, 10, 3, 3), // 9 pairs
    };
    let mut err_table = Table::new(
        &format!("Profiler error analysis ({} held-out configurations per object)", holdout.len()),
        &["object", "SSIM err mean", "SSIM err std", "size err mean (MB)", "size err std (MB)"],
    );
    let mut q_means = Vec::new();
    let mut s_means = Vec::new();
    for obj in objects {
        let model = obj.build();
        let profile = build_profile(&model, 0, &options, &MeasurementContext::default());
        let analysis = analyze_errors(&model, &profile, &holdout, &options.measurement);
        q_means.push(analysis.quality_error_mean);
        s_means.push(analysis.size_error_mean);
        err_table.push_row(vec![
            obj.name().to_string(),
            fmt_f64(analysis.quality_error_mean, 4),
            fmt_f64(analysis.quality_error_std, 4),
            fmt_f64(analysis.size_error_mean, 2),
            fmt_f64(analysis.size_error_std, 2),
        ]);
    }
    println!("{err_table}");
    println!(
        "overall: mean SSIM error {:.4}, mean size error {:.2} MB  (paper, full scale: 0.0065 / 3.34 MB)",
        q_means.iter().sum::<f64>() / q_means.len() as f64,
        s_means.iter().sum::<f64>() / s_means.len() as f64,
    );
}

fn print_fitted_models(profile: &ObjectProfile) {
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
}
