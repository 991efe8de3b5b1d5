//! Configuration-selector ablation: the paper's DP (Algorithm 1) against the
//! Fairness and SLSQP baselines, plus the greedy and exhaustive extensions —
//! a runnable, reduced-scale version of Figs. 7 and 8.
//!
//! ```bash
//! cargo run --release --example selector_comparison
//! ```

use nerflex::core::experiments::EvaluationScene;
use nerflex::core::report::{fmt_f64, Table};
use nerflex::profile::{build_profile, MeasurementContext, ObjectProfile, ProfilerOptions};
use nerflex::solve::{
    ConfigSelector, ConfigSpace, DpSelector, ExhaustiveSelector, FairnessSelector, GreedySelector,
    SelectionProblem, SlsqpSelector,
};

fn main() {
    let seed = 19;
    let built = EvaluationScene::Scene4.build(seed);
    let options = ProfilerOptions::quick();
    let space = ConfigSpace::quick();

    println!("fitting lightweight profiles for {} objects ...", built.scene.len());
    let profiles: Vec<ObjectProfile> = built
        .scene
        .objects()
        .iter()
        .map(|obj| build_profile(&obj.model, obj.id, &options, &MeasurementContext::default()))
        .collect();
    for p in &profiles {
        println!(
            "  {:<10} size(40,9) ≈ {:>6.2} MB   quality(40,9) ≈ {:.3}",
            p.name,
            p.predict_size(40, 9),
            p.predict_quality(40, 9)
        );
    }

    // A budget tight enough that the allocation strategy matters.
    let budget_mb = profiles.iter().map(|p| p.predict_size(40, 9)).sum::<f64>() * 0.55;
    let problem = SelectionProblem::from_profiles(&profiles, &space, budget_mb);
    println!("\nbudget H = {budget_mb:.1} MB\n");

    let selectors: Vec<Box<dyn ConfigSelector>> = vec![
        Box::new(DpSelector::default()),
        Box::new(FairnessSelector),
        Box::new(SlsqpSelector::new(space.clone())),
        Box::new(GreedySelector),
        Box::new(ExhaustiveSelector::default()),
    ];

    let mut summary = Table::new(
        "Selector comparison (Scene 4, reduced scale)",
        &["selector", "total size (MB)", "mean predicted SSIM", "feasible"],
    );
    let mut per_object = Table::new(
        "Per-object memory allocation (MB)",
        &["selector", "hotdog", "ficus", "chair", "ship", "lego"],
    );

    for selector in &selectors {
        let outcome = selector.select(&problem);
        summary.push_row(vec![
            outcome.selector.clone(),
            fmt_f64(outcome.total_size_mb, 1),
            fmt_f64(outcome.mean_quality(), 3),
            outcome.feasible.to_string(),
        ]);
        let mut row = vec![outcome.selector.clone()];
        for obj in built.scene.objects() {
            let size =
                outcome.assignment_for(obj.id).map(|a| a.predicted_size_mb).unwrap_or(f64::NAN);
            row.push(fmt_f64(size, 1));
        }
        per_object.push_row(row);
    }

    println!("{summary}");
    println!("{per_object}");
    println!(
        "Expected shape: the DP matches the exhaustive optimum, Fairness wastes budget on simple\n\
         objects (hotdog/ficus) that are already saturated, and SLSQP's rounding/initialisation can\n\
         misallocate — the complex objects (ship, lego) receive the extra memory only under the DP."
    );
}
