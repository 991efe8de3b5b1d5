//! Fig. 8 — per-object analysis on Scene 4: (a) per-object SSIM under each
//! configuration selector on both devices, and (b) the per-object memory
//! allocation on the iPhone.
//!
//! ```bash
//! cargo run --release -p nerflex-bench --bin fig8 [-- --full]
//! ```

use nerflex_bake::bake_placed;
use nerflex_bench::{print_header, seed_from_args, ExperimentMode};
use nerflex_core::baselines::{bake_block_nerf, bake_single_nerf};
use nerflex_core::evaluation::masked_quality;
use nerflex_core::experiments::EvaluationScene;
use nerflex_core::report::{fmt_f64, Table};
use nerflex_profile::{build_profile, MeasurementContext};
use nerflex_scene::object::CanonicalObject;
use nerflex_solve::{
    ConfigSelector, DpSelector, FairnessSelector, SelectionProblem, SlsqpSelector,
};

fn main() {
    let mode = ExperimentMode::from_args();
    let seed = seed_from_args();
    print_header("Fig. 8 — per-object quality and memory allocation (Scene 4)", mode, seed);

    let built = EvaluationScene::Scene4.build(seed);
    let (train, test) = mode.views();
    let dataset = built.dataset(train, test, mode.resolution());
    let single = bake_single_nerf(&built.scene, mode.baseline_config());
    let block = bake_block_nerf(&built.scene, mode.baseline_config());
    let (iphone, pixel) = mode.devices(&single, &block);

    // Shared profiles: the profiler runs once on the cloud.
    let options = mode.profiler_options();
    let profiles: Vec<_> = built
        .scene
        .objects()
        .iter()
        .map(|obj| build_profile(&obj.model, obj.id, &options, &MeasurementContext::default()))
        .collect();

    let quantisation = if mode == ExperimentMode::Full { 1.0 } else { 0.05 };
    let selectors: Vec<(&str, Box<dyn ConfigSelector>)> = vec![
        ("Ours", Box::new(DpSelector::with_quantization(quantisation))),
        ("Fairness", Box::new(FairnessSelector)),
        ("SLSQP", Box::new(SlsqpSelector::new(mode.config_space()))),
    ];

    // Column order follows the paper: ascending geometric complexity.
    let object_order: Vec<&str> = CanonicalObject::ALL.iter().map(|o| o.name()).collect();
    let header: Vec<&str> =
        std::iter::once("selector").chain(object_order.iter().copied()).collect();
    let id_of = |name: &str| {
        built
            .scene
            .objects()
            .iter()
            .find(|o| o.model.name == name)
            .map(|o| o.id)
            .expect("scene 4 contains every canonical object")
    };

    for (device_label, device) in [("iPhone", &iphone), ("Pixel", &pixel)] {
        let problem = SelectionProblem::from_profiles(
            &profiles,
            &mode.config_space(),
            device.recommended_budget_mb,
        );
        let mut quality_table =
            Table::new(&format!("Fig. 8(a): per-object SSIM on {device_label}"), &header);
        let mut alloc_table = Table::new(
            &format!("Fig. 8(b): per-object memory allocation (MB) on {device_label}"),
            &header,
        );
        for (label, selector) in &selectors {
            let outcome = selector.select(&problem);
            let assets: Vec<_> = built
                .scene
                .objects()
                .iter()
                .map(|obj| {
                    let config = outcome
                        .assignment_for(obj.id)
                        .map(|a| a.config)
                        .unwrap_or(mode.baseline_config());
                    bake_placed(obj, config)
                })
                .collect();
            let mut q_row = vec![label.to_string()];
            let mut a_row = vec![label.to_string()];
            for name in &object_order {
                let id = id_of(name);
                q_row.push(fmt_f64(masked_quality(&assets, &dataset, &[id]), 4));
                a_row.push(fmt_f64(
                    outcome.assignment_for(id).map(|a| a.predicted_size_mb).unwrap_or(f64::NAN),
                    1,
                ));
            }
            quality_table.push_row(q_row);
            alloc_table.push_row(a_row);
        }
        println!("{quality_table}");
        if device_label == "iPhone" {
            println!("{alloc_table}");
            println!(
                "(budget on {device_label}: {:.1} MB; the allocation rows show how each selector divides it)\n",
                device.recommended_budget_mb
            );
        }
    }

    println!(
        "expected shape (paper): all selectors score >0.95 on the simple objects (hotdog, ficus,\n\
         chair); on the complex objects (ship, lego) the DP is ahead by ~0.01–0.03 because it\n\
         reallocates the simple objects' surplus memory to them (visible in the allocation table)."
    );
}
