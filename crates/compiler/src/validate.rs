//! Post-codegen validation: the compiler-side counterpart of the paper's
//! "Functional Validation / Exec. Result Check" box (Fig. 2).
//!
//! Three families of checks are performed on every compilation (unless
//! explicitly disabled through [`crate::CompileOptions`]):
//!
//! 1. **Program well-formedness** — every per-core program resolves its
//!    branches inside the program body and terminates with `halt`.
//! 2. **Coverage** — inside every stage, each operator group's output
//!    pixels are covered exactly once by its clusters and its output
//!    channels are covered by the per-core channel slices; no stage
//!    over-subscribes the physical cores.
//! 3. **Communication consistency** — every `(source, destination)`
//!    channel has exactly as many receives as sends, so the simulator's
//!    FIFO matching can never dead-lock.

use cimflow_arch::ArchConfig;

use crate::codegen::GeneratedCode;
use crate::frontend::CondensedGraph;
use crate::oplevel::OpTiling;
use crate::plan::CompilationPlan;
use crate::CompileError;

/// Runs all validation checks.
///
/// # Errors
///
/// Returns [`CompileError::ValidationFailed`] describing the first failed
/// check.
pub fn check(
    generated: &GeneratedCode,
    plan: &CompilationPlan,
    condensed: &CondensedGraph,
    arch: &ArchConfig,
) -> Result<(), CompileError> {
    check_programs(generated, arch)?;
    check_coverage(plan, condensed, arch)?;
    check_transfers(generated)?;
    Ok(())
}

fn fail(reason: impl Into<String>) -> CompileError {
    CompileError::ValidationFailed { reason: reason.into() }
}

fn check_programs(generated: &GeneratedCode, arch: &ArchConfig) -> Result<(), CompileError> {
    if generated.per_core.len() != arch.chip().core_count as usize {
        return Err(fail(format!(
            "expected {} per-core programs, found {}",
            arch.chip().core_count,
            generated.per_core.len()
        )));
    }
    for (core, program) in generated.per_core.iter().enumerate() {
        program
            .validate()
            .map_err(|e| fail(format!("program of core {core} is ill-formed: {e}")))?;
        if !program.is_halting() {
            return Err(fail(format!("program of core {core} does not end with halt")));
        }
        check_program_length(core, program.len(), arch)?;
    }
    Ok(())
}

/// Fails once a core's program of `len` instructions no longer fits its
/// instruction memory. Code generation applies the same check as programs
/// grow, so an oversized program is refused before it is fully unrolled.
pub(crate) fn check_program_length(
    core: usize,
    len: usize,
    arch: &ArchConfig,
) -> Result<(), CompileError> {
    let entries = arch.core.instruction_memory_entries;
    if len > entries as usize {
        return Err(fail(format!(
            "program of core {core} has {len} instructions but the instruction memory holds \
             {entries}"
        )));
    }
    Ok(())
}

fn check_coverage(
    plan: &CompilationPlan,
    condensed: &CondensedGraph,
    arch: &ArchConfig,
) -> Result<(), CompileError> {
    let mut seen_groups = vec![false; condensed.len()];
    for stage in &plan.stages {
        let mut used_cores: Vec<u32> = Vec::new();
        for placement in &stage.placements {
            let group = &condensed.groups()[placement.group];
            if seen_groups[placement.group] {
                return Err(fail(format!(
                    "group `{}` is placed in more than one stage",
                    group.name
                )));
            }
            seen_groups[placement.group] = true;
            if placement.clusters.is_empty() {
                return Err(fail(format!("group `{}` has no cluster", group.name)));
            }
            // Pixel coverage: clusters partition the output pixels.
            let mut cursor = 0u32;
            for cluster in &placement.clusters {
                if cluster.pixel_start != cursor {
                    return Err(fail(format!(
                        "group `{}` leaves a pixel gap at {cursor}",
                        group.name
                    )));
                }
                cursor = cluster.pixel_end;
                if cluster.cores.is_empty() {
                    return Err(fail(format!("group `{}` has an empty cluster", group.name)));
                }
                // Channel/weight capacity per core.
                let tiling =
                    OpTiling::plan(group, arch, cluster.cores.len() as u32, cluster.pixels());
                if tiling.weight_bytes_per_core() > arch.core.cim_unit.weight_capacity_bytes() {
                    return Err(fail(format!(
                        "group `{}` needs {} weight bytes per core, capacity is {}",
                        group.name,
                        tiling.weight_bytes_per_core(),
                        arch.core.cim_unit.weight_capacity_bytes()
                    )));
                }
                used_cores.extend(cluster.cores.iter().copied());
            }
            if cursor != group.metrics.out_pixels {
                return Err(fail(format!(
                    "group `{}` covers {cursor} of {} output pixels",
                    group.name, group.metrics.out_pixels
                )));
            }
        }
        used_cores.sort_unstable();
        let before = used_cores.len();
        used_cores.dedup();
        if before != used_cores.len() {
            return Err(fail(format!("stage {} assigns a core to two groups", stage.index)));
        }
        if used_cores.len() > arch.chip().core_count as usize {
            return Err(fail(format!("stage {} uses more cores than the chip has", stage.index)));
        }
    }
    for (index, seen) in seen_groups.iter().enumerate() {
        if !seen {
            return Err(fail(format!(
                "group `{}` is not placed in any stage",
                condensed.groups()[index].name
            )));
        }
    }
    Ok(())
}

fn check_transfers(generated: &GeneratedCode) -> Result<(), CompileError> {
    let manifest = &generated.manifest;
    for (channel, sends) in &manifest.sends {
        let recvs = manifest.recvs.get(channel).copied().unwrap_or(0);
        if recvs != *sends {
            return Err(fail(format!(
                "channel {}->{} has {sends} sends but {recvs} receives",
                channel.0, channel.1
            )));
        }
    }
    for (channel, recvs) in &manifest.recvs {
        if !manifest.sends.contains_key(channel) {
            return Err(fail(format!(
                "channel {}->{} has {recvs} receives but no send",
                channel.0, channel.1
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::TransferManifest;
    use crate::{compile_with_options, CompileOptions, Strategy};
    use cimflow_isa::Program;
    use cimflow_nn::models;

    #[test]
    fn compiled_benchmarks_pass_all_checks() {
        let arch = ArchConfig::paper_default();
        for strategy in [Strategy::GenericMapping, Strategy::DpOptimized] {
            let compiled = compile_with_options(
                &models::resnet18(32),
                &arch,
                CompileOptions { strategy, ..CompileOptions::default() },
            )
            .unwrap();
            assert!(compiled.report.total_instructions > 0);
        }
    }

    #[test]
    fn mismatched_transfer_manifest_is_rejected() {
        let mut manifest = TransferManifest::default();
        manifest.sends.insert((0, 1), 3);
        manifest.recvs.insert((0, 1), 2);
        let generated = GeneratedCode { per_core: vec![], manifest };
        assert!(matches!(check_transfers(&generated), Err(CompileError::ValidationFailed { .. })));

        let mut manifest = TransferManifest::default();
        manifest.recvs.insert((2, 3), 1);
        let generated = GeneratedCode { per_core: vec![], manifest };
        assert!(check_transfers(&generated).is_err());
    }

    #[test]
    fn missing_halt_or_wrong_core_count_is_rejected() {
        let arch = ArchConfig::paper_default();
        let generated = GeneratedCode {
            per_core: vec![Program::new(); 3],
            manifest: TransferManifest::default(),
        };
        assert!(check_programs(&generated, &arch).is_err());

        let generated = GeneratedCode {
            per_core: vec![Program::new(); arch.chip().core_count as usize],
            manifest: TransferManifest::default(),
        };
        assert!(check_programs(&generated, &arch).is_err(), "empty programs never halt");
    }

    #[test]
    fn oversized_programs_fail_before_they_are_fully_unrolled() {
        // At 65536 px core 0's unrolled program would hold billions of
        // instructions; code generation must refuse it once it outgrows
        // the instruction memory instead of materializing it.
        let arch = ArchConfig::paper_default();
        let error = compile_with_options(
            &models::resnet18(65536),
            &arch,
            CompileOptions { strategy: Strategy::GenericMapping, ..CompileOptions::default() },
        )
        .expect_err("the program cannot fit the instruction memory");
        match error {
            CompileError::ValidationFailed { reason } => {
                assert!(reason.contains("instruction memory holds"), "{reason}");
            }
            other => panic!("expected a validation failure, got {other:?}"),
        }
    }
}
