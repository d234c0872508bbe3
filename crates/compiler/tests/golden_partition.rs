//! Golden `PartitionDecision` corpus: every partitioning strategy on the
//! four seed models, two resolutions each, macro-group size {4, 8} and
//! NoC flit size {8, 16}, pinned against checked-in digests.
//!
//! A digest covers each stage's groups, its mapping (group, cores per
//! replica, replicas), its estimated cycles and the bit pattern of its
//! estimated energy, so any drift in the partitioner or the cost model it
//! ranks with shows up here, not only against a second implementation.
//!
//! After an intended change to the decisions, re-record the corpus with
//! `cargo test -p cimflow-compiler --test golden_partition -- --ignored`
//! and say in the change log why the decisions moved.

use std::fmt::Write as _;
use std::path::PathBuf;

use cimflow_arch::ArchConfig;
use cimflow_compiler::cost::CostModel;
use cimflow_compiler::partition::{partition_with_strategy, PartitionDecision};
use cimflow_compiler::{CondensedGraph, Strategy};
use cimflow_nn::models;

const MODELS: [(&str, [u32; 2]); 4] = [
    ("mobilenetv2", [48, 96]),
    ("efficientnetb0", [48, 64]),
    ("resnet18", [64, 96]),
    ("vgg19", [64, 128]),
];
const MG_SIZES: [u32; 2] = [4, 8];
const FLIT_SIZES: [u32; 2] = [8, 16];

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_partition.digests")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(decision: &PartitionDecision) -> u64 {
    let mut text = String::new();
    for (groups, mapping, cost) in &decision.stages {
        let mapping: Vec<(usize, u32, u32)> =
            mapping.iter().map(|m| (m.group, m.cores_per_replica, m.replicas)).collect();
        writeln!(text, "{groups:?};{mapping:?};{};{:016x}", cost.cycles, cost.energy_pj.to_bits())
            .expect("writing to a String cannot fail");
    }
    fnv1a(text.as_bytes())
}

/// One corpus line per (model, resolution, MG, flit, strategy), built the
/// way `compile` builds the single-chip partition input.
fn corpus() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, resolutions) in MODELS {
        for resolution in resolutions {
            let model = models::by_name(name, resolution).expect("seed model builds");
            for mg in MG_SIZES {
                for flit in FLIT_SIZES {
                    let arch =
                        ArchConfig::paper_default().with_macros_per_group(mg).with_flit_bytes(flit);
                    let limit = u64::from(arch.chip().core_count)
                        * arch.core.cim_unit.weight_capacity_bytes()
                        * 3
                        / 4;
                    let condensed = CondensedGraph::from_graph_with_capacity(&model.graph, limit)
                        .expect("seed model condenses");
                    let cost = CostModel::new(&arch);
                    for strategy in Strategy::ALL {
                        let decision = partition_with_strategy(&condensed, &cost, strategy)
                            .expect("seed model partitions");
                        lines.push(format!(
                            "{name} {resolution} mg{mg} flit{flit} {} stages={} cycles={} \
                             digest={:016x}",
                            strategy.name(),
                            decision.stages.len(),
                            decision.estimated_cycles(),
                            digest(&decision),
                        ));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn partition_decisions_match_the_golden_corpus() {
    let recorded = std::fs::read_to_string(corpus_path()).expect("golden corpus is checked in");
    let expected: Vec<&str> = recorded.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = corpus();
    assert_eq!(actual.len(), 4 * 2 * 2 * 2 * 3);
    assert_eq!(actual.len(), expected.len(), "corpus size changed");
    let drifted: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(drifted.is_empty(), "{} decision(s) drifted:\n{}", drifted.len(), drifted.join("\n"));
}

#[test]
#[ignore = "re-records the golden corpus; run only after an intended decision change"]
fn record_golden_partition_corpus() {
    let mut text = String::from(
        "# model resolution mg flit strategy stages cycles digest (see golden_partition.rs)\n",
    );
    for line in corpus() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(corpus_path(), text).expect("golden corpus is writable");
}
