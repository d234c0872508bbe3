//! Code generation: lowering the CG-level plan and the OP-level tilings
//! into per-core ISA programs.
//!
//! The generated code follows the structure of Fig. 4's "Generated Code"
//! panel: per execution stage every core first stages its weight tiles
//! from global memory and programs them into its macro groups, then runs a
//! pixel loop per operator tile whose body gathers the im2col window,
//! issues the `cim_mvm` operations, drains and requantizes the
//! accumulators and applies the fused vector operators, and finally ships
//! the produced tile to its consumers over the NoC (or to global memory at
//! stage boundaries).
//!
//! Conventional optimizations are applied during emission: address
//! constants are folded into the shortest `sc_li`/`sc_lui` sequences,
//! loop-invariant register setup is hoisted out of the pixel loop, unary
//! vector operators drop their unused operand, and no dead stores are
//! emitted for groups without fused element-wise work.

use std::collections::BTreeMap;

use cimflow_arch::{ArchConfig, SegmentKind};
use cimflow_isa::{
    GReg, Instruction, PoolKind, Program, ProgramBuilder, ScalarAluOp, VectorOpKind,
};

use crate::frontend::{CondensedGraph, OpGroup};
use crate::oplevel::OpTiling;
use crate::plan::{ClusterPlan, CompilationPlan};
use crate::validate;
use crate::CompileError;

/// Static manifest of the inter-core transfers emitted by code
/// generation, used by the validator to prove that every receive has a
/// matching send on the same `(source, destination)` channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferManifest {
    /// Send count per `(source core, destination core)` channel.
    pub sends: BTreeMap<(u32, u32), u64>,
    /// Receive count per `(source core, destination core)` channel.
    pub recvs: BTreeMap<(u32, u32), u64>,
}

/// The output of code generation.
#[derive(Debug)]
pub struct GeneratedCode {
    /// One program per core, indexed by core identifier.
    pub per_core: Vec<Program>,
    /// The inter-core transfer manifest.
    pub manifest: TransferManifest,
}

// Fixed register conventions used by the generated code.
fn r(i: u8) -> GReg {
    GReg::new(i).expect("register convention stays below the register-file size")
}
const GLOBAL_SRC: u8 = 1; // global / remote source address
const OUT_PTR: u8 = 2; // output write pointer
const ROWS: u8 = 3; // activated rows per MVM (also gather byte count)
const LEN: u8 = 4; // generic transfer length
const GATHER: u8 = 5; // im2col gather buffer address
const SHIFT: u8 = 6; // requantization shift
const PIX: u8 = 7; // pixel counter
const PIX_LIMIT: u8 = 8; // pixels in the current tile
const ACC: u8 = 9; // accumulator tile address
const PEER: u8 = 10; // peer core id for send/recv
const CH_LEN: u8 = 11; // output channels per core
const OUT_STRIDE: u8 = 12; // output pointer stride per pixel
const IN_STRIDE: u8 = 13; // input pointer stride per pixel
const IN_PTR: u8 = 14; // input read pointer
const VLEN: u8 = 15; // fused vector work length per tile

/// Lowers a compilation plan into per-core programs.
///
/// # Errors
///
/// Returns a [`CompileError::Codegen`] if an emitted program fails label
/// resolution or structural validation, and
/// [`CompileError::ValidationFailed`] as soon as a core's program outgrows
/// its instruction memory.
pub fn generate(
    condensed: &CondensedGraph,
    plan: &CompilationPlan,
    arch: &ArchConfig,
) -> Result<GeneratedCode, CompileError> {
    let core_count = arch.chip().core_count as usize;
    let mut builders: Vec<ProgramBuilder> =
        (0..core_count).map(|_| ProgramBuilder::new()).collect();
    let mut manifest = TransferManifest::default();
    let layout = GlobalLayout::new(condensed, arch);
    let map = arch.address_map();

    for stage in &plan.stages {
        // ---- Weight staging and macro-group programming -----------------
        for placement in &stage.placements {
            let group = &condensed.groups()[placement.group];
            for cluster in &placement.clusters {
                let tiling =
                    OpTiling::plan(group, arch, cluster.cores.len() as u32, cluster.pixels());
                for core in &cluster.cores {
                    let b = &mut builders[*core as usize];
                    emit_weight_load(b, group, &tiling, arch, &layout)?;
                }
            }
        }
        // Synchronize: weights of the stage are resident before execution.
        for b in builders.iter_mut() {
            b.push(Instruction::Barrier { id: (stage.index * 2) as u16 });
        }

        // ---- Execution: groups in dependency order ----------------------
        for placement in &stage.placements {
            let group = &condensed.groups()[placement.group];
            let stage_groups = stage.group_indices();
            for cluster in &placement.clusters {
                let tiling =
                    OpTiling::plan(group, arch, cluster.cores.len() as u32, cluster.pixels());
                for (slice_index, core) in cluster.cores.iter().enumerate() {
                    emit_group_inputs(
                        &mut builders,
                        &mut manifest,
                        condensed,
                        plan,
                        arch,
                        &layout,
                        group,
                        cluster,
                        *core,
                        &stage_groups,
                    )?;
                    emit_group_body(
                        &mut builders[*core as usize],
                        &mut manifest,
                        condensed,
                        plan,
                        arch,
                        &layout,
                        group,
                        cluster,
                        &tiling,
                        *core,
                        slice_index,
                        &stage_groups,
                    )?;
                }
            }
        }
        // Stage-end barrier: the arrays may be reprogrammed afterwards.
        for b in builders.iter_mut() {
            b.push(Instruction::Barrier { id: (stage.index * 2 + 1) as u16 });
        }
    }

    let mut per_core = Vec::with_capacity(core_count);
    for mut b in builders {
        b.push(Instruction::Halt);
        per_core.push(b.finish()?);
    }
    let _ = map;
    Ok(GeneratedCode { per_core, manifest })
}

/// Global-memory layout: every group gets a region for its spilled output
/// and a region its weights are streamed from.
struct GlobalLayout {
    global_base: u64,
    global_size: u64,
    output_offset: Vec<u64>,
    weight_offset: Vec<u64>,
    #[allow(dead_code)]
    graph_input_bytes: u64,
}

impl GlobalLayout {
    fn new(condensed: &CondensedGraph, arch: &ArchConfig) -> Self {
        let map = arch.address_map();
        let graph_input_bytes = condensed
            .groups()
            .iter()
            .filter(|g| g.reads_graph_input)
            .map(|g| g.metrics.input_bytes)
            .max()
            .unwrap_or(0);
        let mut cursor = graph_input_bytes;
        let mut output_offset = Vec::with_capacity(condensed.len());
        for group in condensed.groups() {
            output_offset.push(cursor);
            cursor += group.metrics.output_bytes;
        }
        let mut weight_offset = Vec::with_capacity(condensed.len());
        for group in condensed.groups() {
            weight_offset.push(cursor);
            cursor += group.metrics.weight_bytes;
        }
        GlobalLayout {
            global_base: map.global_base,
            global_size: map.global_size.max(1),
            output_offset,
            weight_offset,
            graph_input_bytes,
        }
    }

    /// Address of a group's spilled output in the unified address space.
    fn output_addr(&self, group: usize) -> u32 {
        self.wrap(self.output_offset[group])
    }

    /// Address of a group's weight image in the unified address space.
    fn weight_addr(&self, group: usize) -> u32 {
        self.wrap(self.weight_offset[group])
    }

    /// Address of the graph input image.
    fn input_addr(&self) -> u32 {
        self.wrap(0)
    }

    fn wrap(&self, offset: u64) -> u32 {
        (self.global_base + offset % self.global_size) as u32
    }
}

fn segment_addr(arch: &ArchConfig, kind: SegmentKind) -> u32 {
    arch.address_map().segment_base(kind) as u32
}

fn tile_pixels(tiling: &OpTiling, tile: u32) -> u32 {
    let start = tile * tiling.pixel_tile;
    tiling.cluster_pixels.saturating_sub(start).min(tiling.pixel_tile).max(1)
}

/// The producer-tile index range `[t0, t1)` of `producer_cluster` that a
/// consumer responsible for output pixels `[cons_start, cons_end)` (out of
/// `cons_total`) needs. Both the producer- and the consumer-side emission
/// call this same function, which keeps the send/receive counts equal.
fn needed_tile_range(
    producer_tiling: &OpTiling,
    producer_cluster: &ClusterPlan,
    producer_total: u32,
    cons_range: (u32, u32),
    cons_total: u32,
) -> (u32, u32) {
    let cons_total = cons_total.max(1) as u64;
    let producer_total = u64::from(producer_total.max(1));
    // Scale the consumer's pixel range into producer pixel space and add a
    // halo margin for overlapping receptive fields.
    let halo = (producer_total / 8).max(1);
    let a = u64::from(cons_range.0) * producer_total / cons_total;
    let b = (u64::from(cons_range.1) * producer_total).div_ceil(cons_total) + halo;
    let a = a.saturating_sub(halo);
    let (ps, pe) = (u64::from(producer_cluster.pixel_start), u64::from(producer_cluster.pixel_end));
    let lo = a.max(ps);
    let hi = b.min(pe);
    if lo >= hi {
        return (0, 0);
    }
    let t = u64::from(producer_tiling.pixel_tile.max(1));
    let t0 = (lo - ps) / t;
    let t1 = (hi - ps).div_ceil(t);
    (t0 as u32, (t1 as u32).min(producer_tiling.pixel_tiles))
}

fn emit_weight_load(
    b: &mut ProgramBuilder,
    group: &OpGroup,
    tiling: &OpTiling,
    arch: &ArchConfig,
    layout: &GlobalLayout,
) -> Result<(), CompileError> {
    let weight_bytes = tiling.weight_bytes_per_core().min(u64::from(u32::MAX)) as u32;
    b.load_immediate(r(GLOBAL_SRC), layout.weight_addr(group.index))?;
    b.load_immediate(r(OUT_PTR), segment_addr(arch, SegmentKind::Weight))?;
    b.load_immediate(r(LEN), weight_bytes.max(1))?;
    b.push(Instruction::MemCpy { src: r(GLOBAL_SRC), dst: r(OUT_PTR), len: r(LEN), offset: 0 });
    let rows = tiling.k_rows.min(arch.core.cim_unit.rows_per_operation());
    b.load_immediate(r(ROWS), rows.max(1))?;
    // Program every macro group, including the duplicated copies that let
    // vacant MGs serve interleaved output pixels.
    let copies = tiling.intra_core_duplication(arch.core.cim_unit.macro_groups);
    for copy in 0..copies {
        for mg in 0..tiling.macro_groups_used {
            let index = (copy * tiling.macro_groups_used + mg) % 64;
            b.push(Instruction::CimLoad { weights: r(OUT_PTR), rows: r(ROWS), mg: index as u8 });
        }
    }
    Ok(())
}

/// Emits the input acquisition of one group on one consumer core:
/// receives from same-stage producer cores, or global-memory copies for
/// graph inputs and earlier-stage producers.
#[allow(clippy::too_many_arguments)]
fn emit_group_inputs(
    builders: &mut [ProgramBuilder],
    manifest: &mut TransferManifest,
    condensed: &CondensedGraph,
    plan: &CompilationPlan,
    arch: &ArchConfig,
    layout: &GlobalLayout,
    group: &OpGroup,
    cluster: &ClusterPlan,
    core: u32,
    stage_groups: &[usize],
) -> Result<(), CompileError> {
    let my_range = (cluster.pixel_start, cluster.pixel_end);
    let in_seg = segment_addr(arch, SegmentKind::Input);

    if group.reads_graph_input {
        let share = share_of(group.metrics.input_bytes, cluster.pixels(), group.metrics.out_pixels);
        let b = &mut builders[core as usize];
        b.load_immediate(r(GLOBAL_SRC), layout.input_addr())?;
        b.load_immediate(r(OUT_PTR), in_seg)?;
        b.load_immediate(r(LEN), share)?;
        b.push(Instruction::MemCpy { src: r(GLOBAL_SRC), dst: r(OUT_PTR), len: r(LEN), offset: 0 });
    }

    for dep in &group.preds {
        let producer = &condensed.groups()[dep.group];
        let same_stage = stage_groups.contains(&dep.group);
        if !same_stage {
            // The producer ran in an earlier stage and spilled to global
            // memory; fetch this cluster's share.
            let share = share_of(dep.bytes, cluster.pixels(), group.metrics.out_pixels);
            let b = &mut builders[core as usize];
            b.load_immediate(r(GLOBAL_SRC), layout.output_addr(dep.group))?;
            b.load_immediate(r(OUT_PTR), in_seg)?;
            b.load_immediate(r(LEN), share)?;
            b.push(Instruction::MemCpy {
                src: r(GLOBAL_SRC),
                dst: r(OUT_PTR),
                len: r(LEN),
                offset: 0,
            });
            continue;
        }
        // Same stage: receive the needed tiles from every producer core.
        let (_, producer_placement) =
            plan.placement_of(dep.group).expect("same-stage producer must be placed");
        for producer_cluster in &producer_placement.clusters {
            let producer_tiling = OpTiling::plan(
                producer,
                arch,
                producer_cluster.cores.len() as u32,
                producer_cluster.pixels(),
            );
            let (t0, t1) = needed_tile_range(
                &producer_tiling,
                producer_cluster,
                producer.metrics.out_pixels,
                my_range,
                group.metrics.out_pixels,
            );
            for producer_core in &producer_cluster.cores {
                if *producer_core == core {
                    continue;
                }
                for t in t0..t1 {
                    let bytes = u64::from(tile_pixels(&producer_tiling, t))
                        * u64::from(producer_tiling.output_bytes_per_pixel_per_core);
                    let b = &mut builders[core as usize];
                    validate::check_program_length(core as usize, b.len(), arch)?;
                    b.load_immediate(r(OUT_PTR), in_seg)?;
                    b.load_immediate(r(LEN), bytes.min(u64::from(u32::MAX)) as u32)?;
                    b.load_immediate(r(PEER), *producer_core)?;
                    b.push(Instruction::Recv {
                        addr: r(OUT_PTR),
                        len: r(LEN),
                        src_core: r(PEER),
                        tag: (dep.group % 2048) as u16,
                    });
                    *manifest.recvs.entry((*producer_core, core)).or_insert(0) += 1;
                }
            }
        }
    }
    Ok(())
}

/// Emits the pixel-tile loops of one group on one core, including the
/// producer-side sends / global-memory spills after every tile.
#[allow(clippy::too_many_arguments)]
fn emit_group_body(
    b: &mut ProgramBuilder,
    manifest: &mut TransferManifest,
    condensed: &CondensedGraph,
    plan: &CompilationPlan,
    arch: &ArchConfig,
    layout: &GlobalLayout,
    group: &OpGroup,
    cluster: &ClusterPlan,
    tiling: &OpTiling,
    core: u32,
    _slice_index: usize,
    stage_groups: &[usize],
) -> Result<(), CompileError> {
    let in_seg = segment_addr(arch, SegmentKind::Input);
    let out_seg = segment_addr(arch, SegmentKind::Output);
    let scratch = segment_addr(arch, SegmentKind::Scratch);
    let rows = tiling.k_rows.min(arch.core.cim_unit.rows_per_operation()).max(1);

    // Same-stage consumers of this group, in dependency order.
    let consumers: Vec<&OpGroup> = condensed
        .groups()
        .iter()
        .filter(|g| {
            stage_groups.contains(&g.index) && g.preds.iter().any(|d| d.group == group.index)
        })
        .collect();
    let spills_to_global = group.writes_graph_output
        || condensed.groups().iter().any(|g| {
            !stage_groups.contains(&g.index) && g.preds.iter().any(|d| d.group == group.index)
        });

    // Loop-invariant register setup (hoisted out of the tile loops).
    b.load_immediate(r(ROWS), rows)?;
    b.load_immediate(r(SHIFT), 8)?;
    b.load_immediate(r(CH_LEN), tiling.out_channels_per_core.max(1))?;
    b.load_immediate(r(IN_STRIDE), tiling.input_bytes_per_pixel.max(1))?;
    b.load_immediate(r(OUT_STRIDE), tiling.output_bytes_per_pixel_per_core.max(1))?;
    b.load_immediate(r(GATHER), scratch)?;
    b.load_immediate(r(ACC), scratch + 4096)?;
    let fused_per_tile = (group.metrics.vector_elems
        / u64::from(tiling.pixel_tiles.max(1))
        / u64::from(cluster.cores.len().max(1) as u32))
    .min(u64::from(u32::MAX)) as u32;

    // Vacant macro groups carry duplicated weight copies, so `copies`
    // output pixels are processed per loop iteration, one per copy.
    let copies = tiling.intra_core_duplication(arch.core.cim_unit.macro_groups);
    for tile in 0..tiling.pixel_tiles {
        validate::check_program_length(core as usize, b.len(), arch)?;
        let pixels = tile_pixels(tiling, tile);
        b.load_immediate(r(IN_PTR), in_seg)?;
        b.load_immediate(r(OUT_PTR), out_seg)?;
        b.load_immediate(r(PIX), 0)?;
        b.load_immediate(r(PIX_LIMIT), pixels.div_ceil(copies).max(1))?;
        let top = b.bind_label("pixel_loop");
        for copy in 0..copies {
            // im2col gather of the current window into the scratch buffer.
            b.push(Instruction::MemCpy { src: r(IN_PTR), dst: r(GATHER), len: r(ROWS), offset: 0 });
            for rt in 0..tiling.row_tiles {
                for ct in 0..tiling.channel_tiles_per_core {
                    let slot =
                        copy * tiling.macro_groups_used + rt * tiling.channel_tiles_per_core + ct;
                    b.push(Instruction::CimMvm {
                        input: r(GATHER),
                        rows: r(ROWS),
                        output: r(ACC),
                        mg: (slot % 64) as u8,
                    });
                }
            }
            for ct in 0..tiling.channel_tiles_per_core {
                let slot = copy * tiling.macro_groups_used + ct;
                b.push(Instruction::CimStoreAcc {
                    output: r(ACC),
                    len: r(CH_LEN),
                    mg: (slot % 64) as u8,
                });
            }
            b.push(Instruction::VecQuant {
                src: r(ACC),
                dst: r(OUT_PTR),
                shift: r(SHIFT),
                len: r(CH_LEN),
            });
            if group.metrics.vector_elems > 0 {
                b.push(Instruction::VecOp {
                    kind: VectorOpKind::Relu,
                    a: r(OUT_PTR),
                    b: GReg::ZERO,
                    dst: r(OUT_PTR),
                    len: r(CH_LEN),
                });
            }
            b.push(Instruction::ScAlu {
                op: ScalarAluOp::Add,
                dst: r(IN_PTR),
                a: r(IN_PTR),
                b: r(IN_STRIDE),
            });
            b.push(Instruction::ScAlu {
                op: ScalarAluOp::Add,
                dst: r(OUT_PTR),
                a: r(OUT_PTR),
                b: r(OUT_STRIDE),
            });
        }
        b.push(Instruction::ScAlui { op: ScalarAluOp::Add, dst: r(PIX), src: r(PIX), imm: 1 });
        b.branch_if_not_equal(r(PIX), r(PIX_LIMIT), top);

        // Remaining fused element-wise work (pooling, residual adds,
        // squeeze-and-excitation gating) once per tile.
        if fused_per_tile > 0 {
            b.load_immediate(r(VLEN), fused_per_tile)?;
            b.push(Instruction::VecPool {
                kind: PoolKind::Average,
                src: r(OUT_PTR),
                dst: r(OUT_PTR),
                window: r(SHIFT),
                len: r(VLEN),
            });
        }

        // Ship the finished tile to its consumers.
        let my_bytes = u64::from(pixels) * u64::from(tiling.output_bytes_per_pixel_per_core);
        for consumer in &consumers {
            let (_, consumer_placement) =
                plan.placement_of(consumer.index).expect("same-stage consumer must be placed");
            for consumer_cluster in &consumer_placement.clusters {
                let (t0, t1) = needed_tile_range(
                    tiling,
                    cluster,
                    group.metrics.out_pixels,
                    (consumer_cluster.pixel_start, consumer_cluster.pixel_end),
                    consumer.metrics.out_pixels,
                );
                if tile < t0 || tile >= t1 {
                    continue;
                }
                for consumer_core in &consumer_cluster.cores {
                    if *consumer_core == core {
                        continue;
                    }
                    b.load_immediate(r(GLOBAL_SRC), out_seg)?;
                    b.load_immediate(r(LEN), my_bytes.min(u64::from(u32::MAX)) as u32)?;
                    b.load_immediate(r(PEER), *consumer_core)?;
                    b.push(Instruction::Send {
                        addr: r(GLOBAL_SRC),
                        len: r(LEN),
                        dst_core: r(PEER),
                        tag: (group.index % 2048) as u16,
                    });
                    *manifest.sends.entry((core, *consumer_core)).or_insert(0) += 1;
                }
            }
        }
        if spills_to_global {
            b.load_immediate(r(GLOBAL_SRC), out_seg)?;
            b.load_immediate(r(OUT_PTR), layout.output_addr(group.index))?;
            b.load_immediate(r(LEN), my_bytes.min(u64::from(u32::MAX)) as u32)?;
            b.push(Instruction::MemCpy {
                src: r(GLOBAL_SRC),
                dst: r(OUT_PTR),
                len: r(LEN),
                offset: 0,
            });
        }
    }
    Ok(())
}

fn share_of(total_bytes: u64, cluster_pixels: u32, total_pixels: u32) -> u32 {
    let share = total_bytes * u64::from(cluster_pixels.max(1)) / u64::from(total_pixels.max(1));
    share.clamp(1, u64::from(u32::MAX)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_pixels_covers_the_cluster_exactly() {
        let tiling = OpTiling {
            k_rows: 64,
            row_tiles: 1,
            out_channels_per_core: 16,
            channel_tiles_per_core: 1,
            macro_groups_used: 1,
            pixel_tile: 10,
            pixel_tiles: 3,
            cluster_pixels: 25,
            input_bytes_per_pixel: 64,
            output_bytes_per_pixel_per_core: 16,
        };
        let total: u32 = (0..tiling.pixel_tiles).map(|t| tile_pixels(&tiling, t)).sum();
        assert_eq!(total, 25);
        assert_eq!(tile_pixels(&tiling, 2), 5);
    }

    #[test]
    fn needed_tile_range_is_within_bounds_and_monotone() {
        let tiling = OpTiling {
            k_rows: 64,
            row_tiles: 1,
            out_channels_per_core: 16,
            channel_tiles_per_core: 1,
            macro_groups_used: 1,
            pixel_tile: 16,
            pixel_tiles: 4,
            cluster_pixels: 64,
            input_bytes_per_pixel: 64,
            output_bytes_per_pixel_per_core: 16,
        };
        let cluster = ClusterPlan { cores: vec![0], pixel_start: 0, pixel_end: 64 };
        let full = needed_tile_range(&tiling, &cluster, 64, (0, 128), 128);
        assert_eq!(full, (0, 4));
        let first_half = needed_tile_range(&tiling, &cluster, 64, (0, 64), 128);
        let second_half = needed_tile_range(&tiling, &cluster, 64, (64, 128), 128);
        assert!(first_half.1 <= 4 && second_half.1 <= 4);
        assert!(first_half.0 <= second_half.0);
        // Disjoint producer cluster yields an empty range.
        let far = ClusterPlan { cores: vec![1], pixel_start: 1000, pixel_end: 1064 };
        assert_eq!(needed_tile_range(&tiling, &far, 2000, (0, 4), 128), (0, 0));
    }

    #[test]
    fn share_of_is_proportional_and_never_zero() {
        assert_eq!(share_of(1000, 50, 100), 500);
        assert_eq!(share_of(1000, 0, 100), 10);
        assert!(share_of(7, 1, 1000) >= 1);
    }
}
