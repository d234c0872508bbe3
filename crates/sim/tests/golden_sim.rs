//! Golden `SimReport` corpus: the four seed models at 32 and 64 px, on
//! 1, 2 and 4 chips, compiled with the generic and the DP strategy and
//! simulated under both inter-chip hand-off modes, pinned against
//! checked-in digests. A single chip never hands data to another chip,
//! so its reports do not depend on the hand-off mode and are digested
//! once, under tile streaming.
//!
//! Each line digests the interpreter's report (`Simulator::run`) and the
//! lockstep replay of the recorded trace at memory ports {0, last node} ×
//! {500, 1000} MHz. A digest hashes the report's `Debug` text, which
//! spells out every counter and every energy term, so any drift in the
//! timing model, the NoC, the energy accounting or the replay walk shows
//! up here, not only against a second implementation.
//!
//! After an intended change to the simulated numbers, re-record the
//! corpus with
//! `cargo test -p cimflow-sim --test golden_sim -- --ignored`
//! and say in the change log why the reports moved.

use std::path::PathBuf;

use cimflow_arch::ArchConfig;
use cimflow_compiler::{compile, Strategy};
use cimflow_nn::models;
use cimflow_sim::{HandoffMode, ReplayEngine, SimOptions, SimReport, Simulator};

const MODELS: [&str; 4] = ["mobilenetv2", "efficientnetb0", "resnet18", "vgg19"];
const RESOLUTIONS: [u32; 2] = [32, 64];
const CHIPS: [u32; 3] = [1, 2, 4];
const STRATEGIES: [Strategy; 2] = [Strategy::GenericMapping, Strategy::DpOptimized];
const HANDOFFS: [(HandoffMode, &str); 2] =
    [(HandoffMode::TileStreaming, "stream"), (HandoffMode::AtRetirement, "retire")];
const FREQUENCIES_MHZ: [u32; 2] = [500, 1000];

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_sim.digests")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(reports: &[SimReport]) -> u64 {
    fnv1a(format!("{reports:?}").as_bytes())
}

/// One corpus line per (model, resolution, chips, strategy, hand-off),
/// with the one hand-off mode a single chip exercises.
fn corpus() -> Vec<String> {
    let mut lines = Vec::new();
    for name in MODELS {
        for resolution in RESOLUTIONS {
            let model = models::by_name(name, resolution).expect("seed model builds");
            for chips in CHIPS {
                let arch = ArchConfig::paper_default().with_chip_count(chips);
                let last_node = arch.chip().mesh.nodes() - 1;
                for strategy in STRATEGIES {
                    let compiled = compile(&model, &arch, strategy).expect("seed model compiles");
                    let (trace, _) = Simulator::record(&compiled).expect("recording succeeds");
                    let engine = ReplayEngine::new(&trace);
                    let handoffs = if chips == 1 { &HANDOFFS[..1] } else { &HANDOFFS[..] };
                    for &(handoff, handoff_name) in handoffs {
                        let options = SimOptions { handoff, ..SimOptions::default() };
                        let run = Simulator::with_options(&compiled, options)
                            .run()
                            .expect("seed model simulates");
                        let points: Vec<(ArchConfig, SimOptions)> = [0, last_node]
                            .into_iter()
                            .flat_map(|port| {
                                FREQUENCIES_MHZ.map(|mhz| {
                                    let point = compiled.arch.with_memory_port(port);
                                    (point.with_frequency_mhz(mhz), options)
                                })
                            })
                            .collect();
                        let replayed: Vec<SimReport> = engine
                            .replay_batch(&points)
                            .into_iter()
                            .map(|r| r.expect("timing-only point replays"))
                            .collect();
                        lines.push(format!(
                            "{name} {resolution} chips{chips} {} {handoff_name} cycles={} \
                             run={:016x} replay={:016x}",
                            strategy.name(),
                            run.total_cycles,
                            digest(std::slice::from_ref(&run)),
                            digest(&replayed),
                        ));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn sim_reports_match_the_golden_corpus() {
    let recorded = std::fs::read_to_string(corpus_path()).expect("golden corpus is checked in");
    let expected: Vec<&str> = recorded.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = corpus();
    assert_eq!(actual.len(), MODELS.len() * RESOLUTIONS.len() * STRATEGIES.len() * (1 + 2 + 2));
    assert_eq!(actual.len(), expected.len(), "corpus size changed");
    let drifted: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(drifted.is_empty(), "{} report(s) drifted:\n{}", drifted.len(), drifted.join("\n"));
}

#[test]
#[ignore = "re-records the golden corpus; run only after an intended report change"]
fn record_golden_sim_corpus() {
    let mut text = String::from(
        "# model resolution chips strategy handoff cycles run-digest replay-digest \
         (see golden_sim.rs)\n",
    );
    for line in corpus() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(corpus_path(), text).expect("golden corpus is writable");
}
