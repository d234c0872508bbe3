//! Architectural design-space exploration: sweep the macro-group size and
//! the NoC flit size for a compact model — a miniature version of the
//! Fig. 6 / Fig. 7 experiments.
//!
//! Run with `cargo run --release --example design_space_exploration`.

use cimflow::dse_engine::{EvalService, ServiceConfig, SweepSpec};
use cimflow::Strategy;

fn main() -> Result<(), cimflow_dse::DseError> {
    let spec = SweepSpec::new()
        .with_model("efficientnetb0", 32)
        .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized])
        .with_mg_sizes(&[4, 8, 12, 16])
        .with_flit_sizes(&[8, 16]);
    // Points come back in grid order: strategy-major, then flit, then MG.
    let outcomes = EvalService::new(ServiceConfig::new()).submit_sweep(&spec)?.wait();

    println!(
        "{:<10} {:>8} {:>8} {:>14} {:>12} {:>10}",
        "strategy", "MG size", "flit", "TOPS", "energy (mJ)", "NoC share"
    );
    for outcome in &outcomes {
        let point = &outcome.point;
        let Some(evaluation) = outcome.evaluation() else {
            println!("{:<10} {:>8} {:>8}  failed", point.strategy, point.mg_size, point.flit_bytes);
            continue;
        };
        let simulation = &evaluation.simulation;
        println!(
            "{:<10} {:>8} {:>8} {:>14.3} {:>12.3} {:>9.1}%",
            point.strategy.to_string(),
            point.mg_size,
            point.flit_bytes,
            simulation.throughput_tops(),
            simulation.energy_mj(),
            simulation.energy.noc_share() * 100.0
        );
    }
    Ok(())
}
