//! The multi-core, multi-chip simulation engine: conservative
//! discrete-event execution of the per-core programs with NoC,
//! global-memory and barrier coordination per chip, and inter-chip
//! transfers over the system-level fabric.

use std::collections::{BTreeMap, HashMap, VecDeque};

use cimflow_arch::{AddressMap, ArchConfig, InterChipTopology};
use cimflow_compiler::{CompiledProgram, SystemPlan, STREAM_TILE_BYTES};
use cimflow_energy::{EnergyBreakdown, EnergyModel};
use cimflow_isa::{Instruction, OpcodeClass, Program};
use cimflow_noc::{InterChipConfig, InterChipFabric, Interconnect, Mesh, NocConfig, NocStats};
use cimflow_obs::{new_track, AttrValue, Tracer};

use crate::core::{BlockReason, CoreState};
use crate::report::{SimReport, UnitActivity};
use crate::trace::{CoreInvariants, SimTrace, TraceOp, TraceRecorder, TraceTransfer};
use crate::SimError;

/// Maximum dynamically executed instructions before the simulator aborts
/// (a defence against runaway generated code).
pub(crate) const INSTRUCTION_BUDGET: u64 = 2_000_000_000;
/// Number of instructions a core may execute before control returns to the
/// scheduler (keeps NoC contention interleaving reasonably accurate).
pub(crate) const SLICE: u64 = 4096;
/// Upper bound on the tiles one cut activation streams as, so a huge
/// transfer does not degenerate into millions of fabric packets.
pub(crate) const MAX_STREAM_TILES: u64 = 64;

/// How cut activations hand off between chips of a multi-chip system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HandoffMode {
    /// The historical conservative model: a chip ships every cut
    /// activation only when all of its cores have retired, and a consumer
    /// chip starts once every input has fully landed in its global
    /// memory.
    AtRetirement,
    /// Tile-granular streaming (the default): cut activations stream in
    /// tiles across the producing stage's execution window, and a
    /// consumer chip starts once the first tile of every input has
    /// landed — chips overlap *within* one inference, not just across
    /// consecutive inferences.
    #[default]
    TileStreaming,
}

/// Optional knobs of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// The inter-chip hand-off model.
    pub handoff: HandoffMode,
    /// Record cycle-domain timeline events (per-chip busy spans, stage
    /// windows, fabric transfers, memory-port occupancy) into the tracer
    /// attached via [`Simulator::set_tracer`]. Off by default; with no
    /// tracer attached the flag is inert, so the untraced hot path pays
    /// nothing.
    pub profile: bool,
}

/// The cycle-domain profiling sink of one simulation: a tracer plus the
/// pre-allocated tracks its timelines render on (one per chip, one for
/// the inter-chip fabric). All timestamps are simulated cycles, not wall
/// time — export a profiled run into its own trace file rather than
/// mixing it with wall-clock spans.
#[derive(Debug)]
struct SimProfile {
    tracer: Tracer,
    /// Track of each chip's timeline (`chip-N`).
    chip_tracks: Vec<u64>,
    /// Track of the inter-chip fabric timeline.
    fabric_track: u64,
}

impl SimProfile {
    fn new(tracer: Tracer, chips: usize) -> Self {
        let chip_tracks: Vec<u64> = (0..chips).map(|_| new_track()).collect();
        for (chip, track) in chip_tracks.iter().enumerate() {
            tracer.set_track_name(*track, &format!("chip-{chip}"));
        }
        let fabric_track = new_track();
        tracer.set_track_name(fabric_track, "fabric");
        SimProfile { tracer, chip_tracks, fabric_track }
    }

    /// One fabric transfer (or streamed tile): departure → landed.
    fn fabric_transfer(&self, from: u32, to: u32, bytes: u64, depart: u64, landed: u64) {
        self.tracer.complete(
            "transfer",
            "sim.fabric",
            self.fabric_track,
            depart,
            landed.saturating_sub(depart),
            vec![
                ("from_chip".to_owned(), AttrValue::from(u64::from(from))),
                ("to_chip".to_owned(), AttrValue::from(u64::from(to))),
                ("bytes".to_owned(), AttrValue::from(bytes)),
            ],
        );
    }

    /// The memory-port window an incoming tile occupied on `chip`.
    fn port_landing(&self, chip: usize, port_start: u64, landed: u64, bytes: u64) {
        self.tracer.complete(
            "input-land",
            "sim.mem_port",
            self.chip_tracks[chip],
            port_start,
            landed.saturating_sub(port_start),
            vec![("bytes".to_owned(), AttrValue::from(bytes))],
        );
    }
}

/// A message in flight between two cores.
#[derive(Debug, Clone, Copy)]
struct Message {
    arrival: u64,
    bytes: u64,
}

/// What the trace recorder should note for one executed instruction,
/// resolved per [`Simulator::step`] arm and applied at the accounting
/// tail (so recording never interleaves with the timing updates).
enum Recorded {
    /// One fusible single-cycle instruction.
    Advance,
    /// A taken branch or jump: one cycle plus the squash penalty,
    /// terminating the current fused run.
    Penalty,
    /// A non-fusible timing op.
    Op(TraceOp),
}

/// The CIMFlow cycle-level simulator.
///
/// One chip is the paper's platform: every core runs its program against
/// the chip's mesh, global-memory port and barrier group. A multi-chip
/// system replicates that per chip — per-chip core states, meshes and
/// memory ports — and executes the compiler's [`SystemPlan`] on top: a
/// chip starts once every inter-chip activation feeding it has landed in
/// its global memory, and a finished chip ships its cut activations over
/// the [`InterChipFabric`], so one inference flows through the chips as a
/// pipeline.
///
/// See the crate-level documentation for the modelled behaviour and the
/// crate example for typical usage.
#[derive(Debug)]
pub struct Simulator {
    arch: ArchConfig,
    programs: Vec<Program>,
    /// All cores, chip-major: global core `g` is local core `g % cc` of
    /// chip `g / cc`. `CoreState::id` is the chip-local (mesh) id.
    cores: Vec<CoreState>,
    cores_per_chip: usize,
    meshes: Vec<Mesh>,
    fabric: InterChipFabric,
    system: SystemPlan,
    options: SimOptions,
    chip_started: Vec<bool>,
    chip_dispatched: Vec<bool>,
    chip_ready: Vec<u64>,
    chip_start_time: Vec<u64>,
    chip_finish_time: Vec<u64>,
    incoming_remaining: Vec<usize>,
    /// Whether each system transfer has been pushed onto the fabric yet.
    transfer_dispatched: Vec<bool>,
    /// Chip-local stage ordinal of each transfer's producing group
    /// (`None` when the producer is unplaced, e.g. legacy plans).
    transfer_stage: Vec<Option<usize>>,
    /// Per producing chip: ascending indices into the system transfer
    /// list, precomputed once so the per-retirement / per-stage dispatch
    /// passes scan only that chip's transfers instead of rescanning the
    /// whole list per chip.
    chip_transfers: Vec<Vec<usize>>,
    /// Per chip: release time of each barrier id, recorded as barriers
    /// open (stage `k` runs between barriers `2k` and `2k + 1`).
    barrier_release: Vec<HashMap<u16, u64>>,
    /// Per chip: the [port_start, landed) windows its incoming tiles
    /// occupied on the global-memory port (input-stall accounting).
    landing_windows: Vec<Vec<(u64, u64)>>,
    /// Per chip: when the last byte of its cut inputs landed.
    last_input_landed: Vec<u64>,
    /// Cycle-domain timeline sink; `Some` only when
    /// [`SimOptions::profile`] is set *and* a tracer was attached.
    profile: Option<SimProfile>,
    energy_model: EnergyModel,
    /// System-level energy not attributable to one core (inter-chip
    /// links, the landing writes into consumer global memories).
    system_energy: EnergyBreakdown,
    address_map: AddressMap,
    channels: HashMap<(u32, u32), VecDeque<Message>>,
    global_port_free: Vec<u64>,
    /// Executed instructions per [`OpcodeClass`], indexed by its
    /// declaration order ([`OpcodeClass::ALL`]).
    dynamic: [u64; OpcodeClass::ALL.len()],
    cim_ops: u64,
    vector_ops: u64,
    total_macs: u64,
    executed: u64,
    /// Trace recording hook; `Some` only inside [`Simulator::record`].
    recorder: Option<TraceRecorder>,
}

impl Simulator {
    /// Prepares a simulation of a compiled program with the default
    /// options (tile-streaming inter-chip hand-off).
    pub fn new(compiled: &CompiledProgram) -> Self {
        Self::with_options(compiled, SimOptions::default())
    }

    /// Prepares a simulation with explicit [`SimOptions`].
    pub fn with_options(compiled: &CompiledProgram, options: SimOptions) -> Self {
        let arch = compiled.arch;
        let chip_count = compiled.system.chip_count.max(1) as usize;
        let cores_per_chip = arch.chip().core_count as usize;
        let noc_config = NocConfig {
            width: arch.chip().mesh.width,
            height: arch.chip().mesh.height,
            flit_bytes: arch.chip().noc_flit_bytes,
            hop_latency: arch.chip().noc_hop_latency,
            memory_port: arch.chip().memory_port,
        };
        let link = &arch.system.interconnect;
        let fabric = InterChipFabric::new(InterChipConfig {
            chips: chip_count as u32,
            link_bytes: link.link_bytes_per_cycle,
            link_latency: link.link_latency_cycles,
            ring: link.topology == InterChipTopology::Ring,
        });
        let cores: Vec<CoreState> = (0..chip_count * cores_per_chip)
            .map(|g| CoreState::new((g % cores_per_chip) as u32, &arch))
            .collect();
        let mut incoming_remaining = vec![0usize; chip_count];
        for transfer in &compiled.system.transfers {
            incoming_remaining[transfer.to_chip as usize] += 1;
        }
        let chip_started: Vec<bool> = incoming_remaining.iter().map(|n| *n == 0).collect();
        let total_macs = compiled.condensed.groups().iter().map(|g| g.metrics.macs).sum();

        // Chip-local stage ordinal of every placed group: the merged plan
        // lists each chip's stages contiguously, and the per-chip code
        // generator emitted barrier pair (2k, 2k + 1) around its local
        // stage k — that pairing is what lets the streaming hand-off tie
        // a cut activation to the execution window producing it.
        let mut group_stage: HashMap<usize, usize> = HashMap::new();
        let mut stages_seen = vec![0usize; chip_count];
        for stage in &compiled.plan.stages {
            let Some(first) = stage.placements.first() else { continue };
            let chip = compiled.system.assignment.get(first.group).copied().unwrap_or(0) as usize;
            let ordinal = stages_seen[chip.min(chip_count - 1)];
            stages_seen[chip.min(chip_count - 1)] += 1;
            for placement in &stage.placements {
                group_stage.insert(placement.group, ordinal);
            }
        }
        let transfer_stage: Vec<Option<usize>> = compiled
            .system
            .transfers
            .iter()
            .map(|t| group_stage.get(&t.producer).copied())
            .collect();
        let mut chip_transfers: Vec<Vec<usize>> = vec![Vec::new(); chip_count];
        for (index, transfer) in compiled.system.transfers.iter().enumerate() {
            let from = transfer.from_chip as usize;
            if from < chip_count {
                chip_transfers[from].push(index);
            }
        }

        Simulator {
            arch,
            programs: compiled.per_core.clone(),
            cores,
            cores_per_chip,
            meshes: vec![Mesh::new(noc_config); chip_count],
            fabric,
            system: compiled.system.clone(),
            options,
            chip_started,
            chip_dispatched: vec![false; chip_count],
            chip_ready: vec![0; chip_count],
            chip_start_time: vec![0; chip_count],
            chip_finish_time: vec![0; chip_count],
            incoming_remaining,
            transfer_dispatched: vec![false; compiled.system.transfers.len()],
            transfer_stage,
            chip_transfers,
            barrier_release: vec![HashMap::new(); chip_count],
            landing_windows: vec![Vec::new(); chip_count],
            last_input_landed: vec![0; chip_count],
            profile: None,
            energy_model: EnergyModel::calibrated_28nm(),
            system_energy: EnergyBreakdown::new(),
            address_map: arch.address_map(),
            channels: HashMap::new(),
            global_port_free: vec![0; chip_count],
            dynamic: [0; OpcodeClass::ALL.len()],
            cim_ops: 0,
            vector_ops: 0,
            total_macs,
            executed: 0,
            recorder: None,
        }
    }

    /// Attaches a tracer for the cycle-domain timeline events enabled by
    /// [`SimOptions::profile`] (without the flag the tracer is ignored).
    /// Timestamps are simulated cycles: per-chip busy spans (`sim.chip`,
    /// one per chip, summing to [`SimReport::chip_cycles`]), per-stage
    /// execution windows (`sim.stage`), fabric transfers (`sim.fabric`)
    /// and memory-port occupancy (`sim.mem_port`).
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        if self.options.profile {
            self.profile = Some(SimProfile::new(tracer.clone(), self.chip_count()));
        }
    }

    /// Number of chips being simulated.
    fn chip_count(&self) -> usize {
        self.meshes.len()
    }

    /// Global core ids of one chip.
    fn chip_cores(&self, chip: usize) -> std::ops::Range<usize> {
        chip * self.cores_per_chip..(chip + 1) * self.cores_per_chip
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no core can make progress,
    /// [`SimError::InvalidCore`] for out-of-range core references and
    /// [`SimError::CycleLimitExceeded`] when the instruction budget is
    /// exhausted.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        self.run_loop()?;
        Ok(self.finish())
    }

    /// Runs the simulation to completion *while recording a trace*,
    /// returning the [`SimTrace`] alongside the ordinary report. The
    /// report is identical to what [`Simulator::run`] would produce —
    /// recording only appends to side buffers and never influences
    /// timing — and the trace replays to that same report through a
    /// [`ReplayEngine`](crate::ReplayEngine) for any design point whose
    /// [`compile_fingerprint`](ArchConfig::compile_fingerprint) matches.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Simulator::run`].
    pub fn record(compiled: &CompiledProgram) -> Result<(SimTrace, SimReport), SimError> {
        Self::record_with_options(compiled, SimOptions::default())
    }

    /// [`Simulator::record`] with explicit [`SimOptions`]. The recorded
    /// trace itself is option-independent (op streams never depend on the
    /// hand-off mode); only the returned report reflects `options`.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Simulator::run`].
    pub fn record_with_options(
        compiled: &CompiledProgram,
        options: SimOptions,
    ) -> Result<(SimTrace, SimReport), SimError> {
        let mut sim = Self::with_options(compiled, options);
        sim.recorder = Some(TraceRecorder::new(sim.cores.len()));
        sim.run_loop()?;
        let trace = sim.build_trace();
        Ok((trace, sim.finish()))
    }

    /// The main scheduling loop shared by [`Simulator::run`] and the
    /// recording entry points.
    fn run_loop(&mut self) -> Result<(), SimError> {
        loop {
            self.retire_finished_chips();
            if self.cores.iter().all(CoreState::is_halted) {
                break;
            }
            match self.pick_core() {
                Some(core) => self.run_slice(core)?,
                None => {
                    if self.release_barriers() {
                        continue;
                    }
                    return Err(self.deadlock());
                }
            }
            if self.executed > INSTRUCTION_BUDGET {
                return Err(SimError::CycleLimitExceeded { limit: INSTRUCTION_BUDGET });
            }
        }
        Ok(())
    }

    /// Harvests the recorder into a [`SimTrace`] (must only be called
    /// after a successful [`Simulator::run_loop`] with a recorder set).
    fn build_trace(&mut self) -> SimTrace {
        let recorder = self.recorder.take().expect("build_trace without recorder");
        let (ops, passes) = recorder.finish(self.cores_per_chip);
        let core_invariants: Vec<CoreInvariants> = self
            .cores
            .iter()
            .map(|core| CoreInvariants {
                mg_busy_cycles: core.macro_groups.iter().map(|m| m.busy_cycles).sum(),
                vector_busy_cycles: core.vector_busy_cycles,
                compute_pj: core.energy.compute_pj,
                local_memory_pj: core.energy.local_memory_pj,
                global_memory_pj: core.energy.global_memory_pj,
                control_pj: core.energy.control_pj,
            })
            .collect();
        let transfers: Vec<TraceTransfer> = self
            .system
            .transfers
            .iter()
            .zip(&self.transfer_stage)
            .map(|(t, stage)| TraceTransfer {
                from_chip: t.from_chip,
                to_chip: t.to_chip,
                bytes: t.bytes,
                stage: *stage,
            })
            .collect();
        SimTrace {
            arch: self.arch,
            fingerprint: self.arch.compile_fingerprint(),
            cores_per_chip: self.cores_per_chip,
            chip_count: self.chip_count(),
            macro_groups: self.arch.core.cim_unit.macro_groups.max(1) as usize,
            ops,
            transfers,
            chip_transfers: self.chip_transfers.clone(),
            dynamic_instructions: class_counts(&self.dynamic),
            cim_ops: self.cim_ops,
            vector_ops: self.vector_ops,
            total_macs: self.total_macs,
            executed: self.executed,
            core_invariants,
            passes,
        }
    }

    /// Ships the remaining cut activations of every chip that has just
    /// finished over the inter-chip fabric, and starts every chip whose
    /// hand-off gate has opened. Under tile streaming most transfers have
    /// already been dispatched at their producing stage's end barrier;
    /// this pass catches whatever is left (and is the whole hand-off
    /// under [`HandoffMode::AtRetirement`]).
    fn retire_finished_chips(&mut self) {
        if self.chip_count() == 1 {
            return;
        }
        for chip in 0..self.chip_count() {
            if !self.chip_started[chip]
                || self.chip_dispatched[chip]
                || !self.chip_cores(chip).all(|g| self.cores[g].is_halted())
            {
                continue;
            }
            let cores_done = self.chip_cores(chip).map(|g| self.cores[g].now).max().unwrap_or(0);
            // A streamed consumer may outrun the timing model's port
            // coupling; it can never truly finish before its inputs
            // exist, so the chip's retirement is clamped to the last
            // landing.
            let finish = cores_done.max(self.last_input_landed[chip]);
            self.chip_finish_time[chip] = finish;
            self.chip_dispatched[chip] = true;
            for k in 0..self.chip_transfers[chip].len() {
                let index = self.chip_transfers[chip][k];
                let transfer = self.system.transfers[index];
                if self.transfer_dispatched[index] {
                    continue;
                }
                self.transfer_dispatched[index] = true;
                let to = transfer.to_chip as usize;
                let outcome = self.fabric.transfer(
                    transfer.from_chip,
                    transfer.to_chip,
                    transfer.bytes,
                    finish,
                );
                // The activation lands in the consumer chip's global
                // memory through its (shared) memory port.
                let port_start = outcome.arrival.max(self.global_port_free[to]);
                let landed =
                    port_start + self.arch.chip().global_memory.transfer_cycles(transfer.bytes);
                self.global_port_free[to] = landed;
                self.landing_windows[to].push((port_start, landed));
                if let Some(profile) = &self.profile {
                    profile.fabric_transfer(
                        transfer.from_chip,
                        transfer.to_chip,
                        transfer.bytes,
                        finish,
                        outcome.arrival,
                    );
                    profile.port_landing(to, port_start, landed, transfer.bytes);
                }
                self.system_energy.interchip_pj +=
                    self.energy_model.interchip.transfer_pj(transfer.bytes, outcome.hops);
                self.system_energy.global_memory_pj +=
                    self.energy_model.sram.global_pj(transfer.bytes);
                self.chip_ready[to] = self.chip_ready[to].max(landed);
                self.last_input_landed[to] = self.last_input_landed[to].max(landed);
                self.incoming_remaining[to] -= 1;
            }
        }
        self.start_ready_chips();
    }

    /// Starts every chip whose hand-off gate has opened (all inputs fully
    /// landed at retirement granularity; first tiles landed under
    /// streaming).
    fn start_ready_chips(&mut self) {
        for chip in 0..self.chip_count() {
            if self.chip_started[chip] || self.incoming_remaining[chip] != 0 {
                continue;
            }
            self.chip_started[chip] = true;
            self.chip_start_time[chip] = self.chip_ready[chip];
            for g in self.chip_cores(chip) {
                self.cores[g].now = self.chip_ready[chip];
            }
        }
    }

    /// Streams every not-yet-dispatched transfer produced by local stage
    /// `ordinal` of `chip`, whose execution window just closed at `end`.
    fn stream_stage_transfers(&mut self, chip: usize, ordinal: usize, end: u64) {
        if self.chip_count() == 1 {
            return;
        }
        let window_start = self.barrier_release[chip]
            .get(&((ordinal * 2) as u16))
            .copied()
            .unwrap_or(self.chip_start_time[chip])
            .min(end);
        for k in 0..self.chip_transfers[chip].len() {
            let index = self.chip_transfers[chip][k];
            if self.transfer_dispatched[index] || self.transfer_stage[index] != Some(ordinal) {
                continue;
            }
            self.transfer_dispatched[index] = true;
            self.dispatch_streamed(index, window_start, end);
        }
        self.start_ready_chips();
    }

    /// Ships one cut activation as tiles spread across the producing
    /// stage's `[start, end]` window: the producer emits its output
    /// pixels incrementally, so tile `i` enters the fabric once its share
    /// of the stage has executed. The consumer's hand-off gate opens at
    /// the first landed tile; the remaining tiles occupy its memory port
    /// (and are tracked for the stall/overlap metrics).
    fn dispatch_streamed(&mut self, index: usize, start: u64, end: u64) {
        let transfer = self.system.transfers[index];
        let to = transfer.to_chip as usize;
        let tile = STREAM_TILE_BYTES.max(transfer.bytes.div_ceil(MAX_STREAM_TILES));
        let tiles = transfer.bytes.div_ceil(tile).max(1);
        let span = end.saturating_sub(start);
        let mut remaining = transfer.bytes;
        let mut first_landed = end;
        let mut last_landed = end;
        for i in 0..tiles {
            let size = remaining.min(tile);
            remaining -= size;
            let available = start + (span * (i + 1)) / tiles;
            let outcome =
                self.fabric.transfer(transfer.from_chip, transfer.to_chip, size, available);
            let port_start = outcome.arrival.max(self.global_port_free[to]);
            let landed = port_start + self.arch.chip().global_memory.transfer_cycles(size);
            self.global_port_free[to] = landed;
            self.landing_windows[to].push((port_start, landed));
            if let Some(profile) = &self.profile {
                profile.fabric_transfer(
                    transfer.from_chip,
                    transfer.to_chip,
                    size,
                    available,
                    outcome.arrival,
                );
                profile.port_landing(to, port_start, landed, size);
            }
            self.system_energy.interchip_pj +=
                self.energy_model.interchip.transfer_pj(size, outcome.hops);
            self.system_energy.global_memory_pj += self.energy_model.sram.global_pj(size);
            if i == 0 {
                first_landed = landed;
            }
            last_landed = landed;
        }
        self.chip_ready[to] = self.chip_ready[to].max(first_landed);
        self.last_input_landed[to] = self.last_input_landed[to].max(last_landed);
        self.incoming_remaining[to] -= 1;
    }

    /// Chooses the runnable core with the smallest local time.
    fn pick_core(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, core) in self.cores.iter().enumerate() {
            if !self.chip_started[i / self.cores_per_chip] {
                continue;
            }
            let runnable = match core.block {
                BlockReason::None => true,
                BlockReason::Recv { src } => {
                    self.channels.get(&(src, i as u32)).is_some_and(|q| !q.is_empty())
                }
                _ => false,
            };
            if runnable {
                best = match best {
                    Some(b) if self.cores[b].now <= core.now => Some(b),
                    _ => Some(i),
                };
            }
        }
        best
    }

    /// Tries to release the lowest pending barrier of every started chip.
    /// Returns whether any core was released.
    fn release_barriers(&mut self) -> bool {
        let mut released = false;
        for chip in 0..self.chip_count() {
            if self.chip_started[chip] {
                released |= self.release_barrier(chip);
            }
        }
        released
    }

    /// Releases the set of cores of `chip` waiting at its lowest pending
    /// barrier if every non-halted core of the chip has reached a barrier
    /// (barriers are chip-local: the code generator emits them per chip).
    /// Returns whether any core was released.
    fn release_barrier(&mut self, chip: usize) -> bool {
        let mut waiting: Vec<(usize, u16)> = Vec::new();
        for i in self.chip_cores(chip) {
            match self.cores[i].block {
                BlockReason::Barrier { id } => waiting.push((i, id)),
                BlockReason::Halted => {}
                _ => return false,
            }
        }
        if waiting.is_empty() {
            return false;
        }
        let min_id = waiting.iter().map(|(_, id)| *id).min().expect("non-empty");
        let members: Vec<usize> =
            waiting.iter().filter(|(_, id)| *id == min_id).map(|(i, _)| *i).collect();
        // A barrier only opens once every participant has arrived; with the
        // codegen emitting every barrier on every core of the chip this
        // means all its non-halted cores share the minimum id.
        let halted = self.chip_cores(chip).filter(|i| self.cores[*i].is_halted()).count();
        if members.len() + halted != self.cores_per_chip {
            // Some core waits at a later barrier — structurally impossible
            // with the current code generator; treat as deadlock.
            return false;
        }
        let release = members.iter().map(|i| self.cores[*i].now).max().unwrap_or(0) + 1;
        for i in members {
            self.cores[i].now = release;
            self.cores[i].block = BlockReason::None;
        }
        self.barrier_release[chip].insert(min_id, release);
        // An odd barrier id closes local stage (id - 1) / 2; under tile
        // streaming its cut activations enter the fabric now, backdated
        // across the stage window they were produced in.
        if min_id % 2 == 1 {
            let ordinal = (min_id as usize - 1) / 2;
            if let Some(profile) = &self.profile {
                let start = self.barrier_release[chip]
                    .get(&((ordinal * 2) as u16))
                    .copied()
                    .unwrap_or(self.chip_start_time[chip])
                    .min(release);
                profile.tracer.complete(
                    &format!("stage-{ordinal}"),
                    "sim.stage",
                    profile.chip_tracks[chip],
                    start,
                    release - start,
                    vec![("cores".to_owned(), AttrValue::from(self.cores_per_chip))],
                );
            }
            if self.options.handoff == HandoffMode::TileStreaming {
                self.stream_stage_transfers(chip, ordinal, release);
            }
        }
        true
    }

    fn deadlock(&self) -> SimError {
        let mut recv = Vec::new();
        let mut barrier = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            match core.block {
                BlockReason::Recv { .. } => recv.push(i as u32),
                BlockReason::Barrier { .. } => barrier.push(i as u32),
                _ => {}
            }
        }
        SimError::Deadlock { blocked_on_recv: recv, blocked_on_barrier: barrier }
    }

    /// Executes up to [`SLICE`] instructions on one core.
    fn run_slice(&mut self, index: usize) -> Result<(), SimError> {
        self.cores[index].block = BlockReason::None;
        for _ in 0..SLICE {
            if !self.cores[index].is_runnable() {
                break;
            }
            self.step(index)?;
        }
        Ok(())
    }

    /// Executes one instruction on one core.
    fn step(&mut self, index: usize) -> Result<(), SimError> {
        let pc = self.cores[index].pc;
        let program = &self.programs[index];
        let Some(&inst) = program.instructions().get(pc) else {
            self.cores[index].block = BlockReason::Halted;
            if let Some(rec) = &mut self.recorder {
                // Running past the end halts without counting as an
                // instruction; the trace keeps the distinction.
                rec.push(index, TraceOp::Halt { counted: false });
            }
            return Ok(());
        };

        // Issue cost of the three-stage pipeline front end.
        let issue_pj = self.energy_model.digital.issue_pj_per_inst;
        let unit = self.arch.core.cim_unit;
        let local = self.arch.core.local_memory;
        let vector = self.arch.core.vector_unit;
        let chip = index / self.cores_per_chip;
        // Chip-local (mesh) id; programs address peers chip-locally.
        let core_id = self.cores[index].id;

        let mut advance = true;
        let mut recorded = Recorded::Advance;
        match inst {
            Instruction::CimMvm { rows, output: _, mg, input: _ } => {
                let core = &mut self.cores[index];
                let rows_value =
                    core.read_unsigned(rows).clamp(1, u64::from(unit.rows_per_operation())) as u32;
                let issue = unit.mvm_issue_cycles(rows_value);
                let latency = unit.mvm_latency_cycles(rows_value);
                let start = core.now;
                core.occupy_macro_group(mg as usize, start, issue, latency);
                core.now += 1;
                let macs = unit.macs_per_group_operation(rows_value);
                core.energy.compute_pj += self.energy_model.cim.compute_pj(macs);
                core.energy.local_memory_pj +=
                    self.energy_model.sram.local_read_pj(u64::from(rows_value));
                let count = core.macro_groups.len().max(1);
                recorded = Recorded::Op(TraceOp::CimMvm {
                    mg: (mg as usize % count) as u32,
                    issue,
                    latency,
                });
                self.cim_ops += 1;
            }
            Instruction::CimLoad { rows, mg, weights: _ } => {
                let core = &mut self.cores[index];
                let rows_value =
                    core.read_unsigned(rows).clamp(1, u64::from(unit.rows_per_operation())) as u32;
                let cycles = unit.weight_load_cycles(rows_value);
                let start = core.now;
                core.occupy_macro_group(mg as usize, start, cycles, cycles);
                core.now += 1;
                let bytes = u64::from(rows_value) * u64::from(unit.output_channels_per_group());
                core.energy.compute_pj += self.energy_model.cim.weight_load_pj(bytes);
                core.energy.local_memory_pj += self.energy_model.sram.local_read_pj(bytes);
                let count = core.macro_groups.len().max(1);
                recorded =
                    Recorded::Op(TraceOp::CimLoad { mg: (mg as usize % count) as u32, cycles });
            }
            Instruction::CimStoreAcc { len, mg, output: _ } => {
                let core = &mut self.cores[index];
                let lanes = core.read_unsigned(len).max(1);
                let count = core.macro_groups.len().max(1);
                let ready = core.macro_groups[mg as usize % count].acc_ready;
                core.now = core.now.max(ready) + 1;
                core.energy.local_memory_pj += self.energy_model.sram.local_write_pj(lanes * 4);
                recorded = Recorded::Op(TraceOp::CimStoreAcc { mg: (mg as usize % count) as u32 });
            }
            Instruction::VecOp { len, .. }
            | Instruction::VecQuant { len, .. }
            | Instruction::VecMac { len, .. } => {
                let core = &mut self.cores[index];
                let elems = core.read_unsigned(len).max(1);
                let cycles = vector.cycles_for(elems);
                let start = core.now;
                core.occupy_vector_unit(start, cycles);
                core.now += 1;
                core.energy.compute_pj +=
                    self.energy_model.digital.vector_pj_per_elem * elems as f64;
                core.energy.local_memory_pj += self.energy_model.sram.local_read_pj(elems)
                    + self.energy_model.sram.local_write_pj(elems);
                recorded = Recorded::Op(TraceOp::Vector { cycles });
                self.vector_ops += elems;
            }
            Instruction::VecPool { len, window, .. } => {
                let core = &mut self.cores[index];
                let elems = core.read_unsigned(len).max(1) * core.read_unsigned(window).max(1);
                let cycles = vector.cycles_for(elems);
                let start = core.now;
                core.occupy_vector_unit(start, cycles);
                core.now += 1;
                core.energy.compute_pj +=
                    self.energy_model.digital.vector_pj_per_elem * elems as f64;
                core.energy.local_memory_pj += self.energy_model.sram.local_read_pj(elems);
                recorded = Recorded::Op(TraceOp::Vector { cycles });
                self.vector_ops += elems;
            }
            Instruction::MemCpy { src, dst, len, offset } => {
                let bytes = self.cores[index].read_unsigned(len).max(1);
                let src_addr = (self.cores[index].read(src) + i64::from(offset)).max(0) as u64;
                let dst_addr = self.cores[index].read_unsigned(dst);
                let src_global = self.address_map.is_global(src_addr);
                let dst_global = self.address_map.is_global(dst_addr);
                if src_global || dst_global {
                    let now = self.cores[index].now;
                    let mesh = &mut self.meshes[chip];
                    let outcome = if src_global {
                        mesh.transfer_from_memory(core_id, bytes, now)
                    } else {
                        mesh.transfer_to_memory(core_id, bytes, now)
                    };
                    let port_start = outcome.arrival.max(self.global_port_free[chip]);
                    let port_cycles = self.arch.chip().global_memory.transfer_cycles(bytes);
                    let completion = port_start + port_cycles;
                    self.global_port_free[chip] = completion;
                    // Profile only the *contended* port windows (the
                    // request waited behind another occupant) — the
                    // interesting signal, at a fraction of the events.
                    if port_start > outcome.arrival {
                        if let Some(profile) = &self.profile {
                            profile.tracer.complete(
                                "port-contention",
                                "sim.mem_port",
                                profile.chip_tracks[chip],
                                outcome.arrival,
                                completion - outcome.arrival,
                                vec![
                                    ("bytes".to_owned(), AttrValue::from(bytes)),
                                    (
                                        "waited".to_owned(),
                                        AttrValue::from(port_start - outcome.arrival),
                                    ),
                                ],
                            );
                        }
                    }
                    let core = &mut self.cores[index];
                    core.now = completion;
                    core.energy.global_memory_pj += self.energy_model.sram.global_pj(bytes);
                    core.energy.noc_pj += self.energy_model.noc.transfer_pj(
                        outcome.flits,
                        self.arch.chip().noc_flit_bytes,
                        outcome.hops.max(1),
                    );
                    core.energy.local_memory_pj += self.energy_model.sram.local_write_pj(bytes);
                    recorded = Recorded::Op(TraceOp::GlobalCpy {
                        bytes,
                        from_memory: src_global,
                        port_cycles,
                    });
                } else {
                    let core = &mut self.cores[index];
                    let cycles = local.transfer_cycles(bytes);
                    core.now += cycles;
                    core.energy.local_memory_pj += self.energy_model.sram.local_read_pj(bytes)
                        + self.energy_model.sram.local_write_pj(bytes);
                    recorded = Recorded::Op(TraceOp::LocalCpy { cycles });
                }
            }
            Instruction::Send { len, dst_core, .. } => {
                let bytes = self.cores[index].read_unsigned(len).max(1);
                let dst = self.cores[index].read_unsigned(dst_core) as u32;
                if dst >= self.cores_per_chip as u32 {
                    return Err(SimError::InvalidCore { core: dst });
                }
                let now = self.cores[index].now;
                let outcome = self.meshes[chip].transfer(core_id, dst, bytes, now);
                let dst_global = (chip * self.cores_per_chip) as u32 + dst;
                self.channels
                    .entry((index as u32, dst_global))
                    .or_default()
                    .push_back(Message { arrival: outcome.arrival, bytes });
                let core = &mut self.cores[index];
                core.now += 1;
                core.energy.noc_pj += self.energy_model.noc.transfer_pj(
                    outcome.flits,
                    self.arch.chip().noc_flit_bytes,
                    outcome.hops.max(1),
                );
                core.energy.local_memory_pj += self.energy_model.sram.local_read_pj(bytes);
                recorded = Recorded::Op(TraceOp::Send { dst, bytes, push: true });
            }
            Instruction::Recv { src_core, .. } => {
                let src = self.cores[index].read_unsigned(src_core) as u32;
                if src >= self.cores_per_chip as u32 {
                    return Err(SimError::InvalidCore { core: src });
                }
                let src_global = (chip * self.cores_per_chip) as u32 + src;
                let queue = self.channels.entry((src_global, index as u32)).or_default();
                match queue.pop_front() {
                    Some(message) => {
                        let core = &mut self.cores[index];
                        let local_cycles = local.transfer_cycles(message.bytes);
                        core.now = core.now.max(message.arrival) + local_cycles;
                        core.energy.local_memory_pj +=
                            self.energy_model.sram.local_write_pj(message.bytes);
                        recorded = Recorded::Op(TraceOp::Recv { src, local_cycles });
                    }
                    None => {
                        // Stay at this instruction until a message arrives.
                        self.cores[index].block = BlockReason::Recv { src: src_global };
                        return Ok(());
                    }
                }
            }
            Instruction::Jmp { offset } => {
                let core = &mut self.cores[index];
                core.now += 1;
                core.branch_penalty();
                core.pc = (core.pc as i64 + 1 + i64::from(offset)).max(0) as usize;
                advance = false;
                recorded = Recorded::Penalty;
            }
            Instruction::Beq { a, b, offset } | Instruction::Bne { a, b, offset } => {
                let core = &mut self.cores[index];
                let equal = core.read(a) == core.read(b);
                let taken = match inst {
                    Instruction::Beq { .. } => equal,
                    _ => !equal,
                };
                core.now += 1;
                if taken {
                    core.branch_penalty();
                    core.pc = (core.pc as i64 + 1 + i64::from(offset)).max(0) as usize;
                    advance = false;
                    recorded = Recorded::Penalty;
                }
            }
            Instruction::Barrier { id } => {
                let core = &mut self.cores[index];
                core.now += 1;
                core.pc += 1;
                core.block = BlockReason::Barrier { id };
                advance = false;
                recorded = Recorded::Op(TraceOp::Barrier { id });
            }
            Instruction::Halt => {
                self.cores[index].block = BlockReason::Halted;
                advance = false;
                recorded = Recorded::Op(TraceOp::Halt { counted: true });
            }
            Instruction::Nop => {
                self.cores[index].now += 1;
            }
            _ => {
                // Scalar instructions: functional register update, one cycle.
                let core = &mut self.cores[index];
                core.execute_scalar(&inst);
                core.now += 1;
                core.energy.control_pj += self.energy_model.digital.scalar_pj_per_op;
            }
        }

        let core = &mut self.cores[index];
        core.energy.control_pj += issue_pj;
        core.executed += 1;
        self.executed += 1;
        self.dynamic[inst.class() as usize] += 1;
        if advance {
            core.pc += 1;
        }
        if let Some(rec) = &mut self.recorder {
            match recorded {
                Recorded::Advance => rec.advance(index),
                Recorded::Penalty => rec.advance_penalty(index),
                Recorded::Op(op) => rec.push(index, op),
            }
        }
        Ok(())
    }

    /// Collects the final report.
    fn finish(self) -> SimReport {
        // The per-inference latency covers the last core's retirement and
        // the last landing of any streamed activation (a consumer cannot
        // truly finish before its inputs exist).
        let total_cycles = self
            .cores
            .iter()
            .map(|c| c.now)
            .chain(self.last_input_landed.iter().copied())
            .chain(self.chip_finish_time.iter().copied())
            .max()
            .unwrap_or(0)
            .max(1);
        let mut energy = cimflow_energy::EnergyBreakdown::new();
        for core in &self.cores {
            energy.accumulate(&core.energy);
        }
        energy.accumulate(&self.system_energy);
        energy.accumulate(&self.energy_model.static_energy(&self.arch, total_cycles));

        let mg_per_core = self.arch.core.cim_unit.macro_groups.max(1) as f64;
        let core_utilization: Vec<f64> = self
            .cores
            .iter()
            .map(|c| {
                let busy: u64 = c.macro_groups.iter().map(|m| m.busy_cycles).sum();
                (busy as f64 / mg_per_core / total_cycles as f64).min(1.0)
            })
            .collect();
        let cim_busy: u64 =
            self.cores.iter().flat_map(|c| c.macro_groups.iter().map(|m| m.busy_cycles)).sum();
        let vector_busy: u64 = self.cores.iter().map(|c| c.vector_busy_cycles).sum();

        // Per-chip busy spans: the bottleneck chip bounds the steady-state
        // pipeline throughput of a multi-chip system. On a single chip the
        // one span equals the total latency.
        let chip_finish: Vec<u64> = (0..self.chip_count())
            .map(|chip| {
                if self.chip_dispatched[chip] {
                    self.chip_finish_time[chip]
                } else {
                    self.chip_cores(chip)
                        .map(|g| self.cores[g].now)
                        .max()
                        .unwrap_or(0)
                        .max(self.last_input_landed[chip])
                }
            })
            .collect();
        let chip_cycles: Vec<u64> = chip_finish
            .iter()
            .zip(&self.chip_start_time)
            .map(|(finish, start)| finish.saturating_sub(*start))
            .collect();
        // One busy span per chip, emitted from the report's own numbers:
        // the trace's `sim.chip` durations sum to `chip_cycles` exactly.
        if let Some(profile) = &self.profile {
            for (chip, cycles) in chip_cycles.iter().enumerate() {
                profile.tracer.complete(
                    "chip-busy",
                    "sim.chip",
                    profile.chip_tracks[chip],
                    self.chip_start_time[chip],
                    *cycles,
                    vec![("chip".to_owned(), AttrValue::from(chip))],
                );
            }
        }
        // Input-stall accounting: the port time incoming tiles consumed
        // *inside* a chip's active span. In steady state those landings
        // overlap the previous inference, so the pipeline interval
        // excludes them; at-retirement hand-off lands everything before
        // the chip starts and accrues zero.
        let chip_stall_cycles: Vec<u64> = (0..self.chip_count())
            .map(|chip| {
                let (start, finish) = (self.chip_start_time[chip], chip_finish[chip]);
                self.landing_windows[chip]
                    .iter()
                    .map(|(from, to)| to.min(&finish).saturating_sub(*from.max(&start)))
                    .sum()
            })
            .collect();
        // Intra-inference overlap: how long a chip ran while its cut
        // inputs were still streaming in (zero without tile streaming).
        let chip_overlap_cycles: Vec<u64> = (0..self.chip_count())
            .map(|chip| {
                self.last_input_landed[chip]
                    .min(chip_finish[chip])
                    .saturating_sub(self.chip_start_time[chip])
            })
            .collect();

        let mut noc = NocStats::default();
        for mesh in &self.meshes {
            noc.merge(mesh.stats());
        }

        let mut report = SimReport {
            total_cycles,
            energy,
            dynamic_instructions: class_counts(&self.dynamic),
            cim_activity: UnitActivity { busy_cycles: cim_busy, operations: self.cim_ops },
            vector_activity: UnitActivity { busy_cycles: vector_busy, operations: self.vector_ops },
            noc,
            interchip: self.fabric.stats().clone(),
            core_utilization,
            chip_cycles,
            chip_stall_cycles,
            chip_overlap_cycles,
            total_macs: self.total_macs,
            frequency_mhz: 0,
            chip_count: 0,
        };
        report.attach_arch(&self.arch);
        report
    }
}

/// The report's per-class instruction counts, keyed by class name; only
/// classes that executed at least once appear.
fn class_counts(dynamic: &[u64; OpcodeClass::ALL.len()]) -> BTreeMap<String, u64> {
    OpcodeClass::ALL
        .iter()
        .zip(dynamic)
        .filter(|(_, count)| **count > 0)
        .map(|(class, count)| (class.to_string(), *count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_compiler::{compile, Strategy};
    use cimflow_nn::models;

    fn simulate(model: cimflow_nn::Model, strategy: Strategy) -> SimReport {
        let arch = ArchConfig::paper_default();
        let compiled = compile(&model, &arch, strategy).unwrap();
        Simulator::new(&compiled).run().unwrap()
    }

    #[test]
    fn mobilenet_simulation_completes_with_sane_metrics() {
        let report = simulate(models::mobilenet_v2(32), Strategy::DpOptimized);
        assert!(report.total_cycles > 0);
        assert!(report.energy.total_pj() > 0.0);
        assert!(report.energy.compute_pj > 0.0);
        assert!(report.energy.local_memory_pj > 0.0);
        assert!(report.energy.noc_pj > 0.0);
        assert_eq!(report.energy.interchip_pj, 0.0, "one chip never crosses the fabric");
        assert!(report.throughput_tops() > 0.0);
        assert!(report.mean_utilization() > 0.0 && report.mean_utilization() <= 1.0);
        assert!(report.total_dynamic_instructions() > 0);
        assert!(report.cim_activity.operations > 0);
        assert_eq!(report.chip_count, 1);
        assert_eq!(report.chip_cycles, vec![report.total_cycles]);
        assert_eq!(report.pipeline_interval_cycles(), report.total_cycles);
    }

    #[test]
    fn dp_strategy_is_faster_than_generic_on_compact_models() {
        let generic = simulate(models::mobilenet_v2(32), Strategy::GenericMapping);
        let dp = simulate(models::mobilenet_v2(32), Strategy::DpOptimized);
        assert!(
            dp.total_cycles < generic.total_cycles,
            "dp {} !< generic {}",
            dp.total_cycles,
            generic.total_cycles
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = simulate(models::resnet18(32), Strategy::DpOptimized);
        let b = simulate(models::resnet18(32), Strategy::DpOptimized);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.noc, b.noc);
        assert!((a.energy.total_pj() - b.energy.total_pj()).abs() < 1e-6);
    }

    #[test]
    fn larger_macro_groups_do_not_hurt_resnet_throughput() {
        let arch_small = ArchConfig::paper_default().with_macros_per_group(4);
        let arch_large = ArchConfig::paper_default().with_macros_per_group(16);
        let model = models::resnet18(32);
        let small =
            Simulator::new(&compile(&model, &arch_small, Strategy::GenericMapping).unwrap())
                .run()
                .unwrap();
        let large =
            Simulator::new(&compile(&model, &arch_large, Strategy::GenericMapping).unwrap())
                .run()
                .unwrap();
        assert!(large.throughput_tops() >= small.throughput_tops() * 0.9);
    }

    #[test]
    fn multichip_simulation_pipelines_across_chips() {
        let model = models::resnet18(32);
        let single = simulate(model.clone(), Strategy::DpOptimized);
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let report = Simulator::new(&compiled).run().unwrap();

        assert_eq!(report.chip_count, 2);
        assert_eq!(report.chip_cycles.len(), 2);
        assert_eq!(report.core_utilization.len(), 128);
        // The inter-chip fabric carried every cut activation byte; with
        // tile streaming one transfer may cross as several packets.
        assert!(report.interchip.packets >= compiled.system.transfers.len() as u64);
        assert_eq!(report.interchip.bytes, compiled.system.cut_bytes());
        assert!(report.energy.interchip_pj > 0.0);
        // Per-inference latency covers both chips' spans; the pipeline
        // bottleneck (one chip's span) is well below the single-chip run.
        assert!(report.total_cycles >= report.chip_cycles.iter().copied().max().unwrap());
        assert!(report.pipeline_interval_cycles() < single.total_cycles);
        // Work actually executed on both chips.
        assert!(report.chip_cycles.iter().all(|c| *c > 0));
    }

    #[test]
    fn tile_streaming_overlaps_chips_within_one_inference() {
        // VGG19's chain split cuts activations large enough to stream as
        // several tiles, so consumer chips start while producers run.
        let model = models::vgg19(32);
        let arch = ArchConfig::paper_default().with_chip_count(4);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let retire = Simulator::with_options(
            &compiled,
            SimOptions { handoff: HandoffMode::AtRetirement, ..SimOptions::default() },
        )
        .run()
        .unwrap();
        let stream = Simulator::new(&compiled).run().unwrap();

        assert_eq!(retire.total_overlap_cycles(), 0, "at-retirement never overlaps");
        assert!(stream.total_overlap_cycles() > 0, "streaming overlaps chips");
        assert!(
            stream.total_cycles < retire.total_cycles,
            "overlap shortens the per-inference latency ({} !< {})",
            stream.total_cycles,
            retire.total_cycles
        );
        assert!(
            stream.pipeline_interval_cycles() <= retire.pipeline_interval_cycles(),
            "input-landing stalls are excluded from the steady-state interval"
        );
        // Same work either way: identical dynamic instruction streams and
        // cut traffic, just re-timed.
        assert_eq!(stream.total_dynamic_instructions(), retire.total_dynamic_instructions());
        assert_eq!(stream.interchip.bytes, retire.interchip.bytes);
        assert!(stream.interchip.packets > retire.interchip.packets, "tiles are packets");
    }

    #[test]
    fn single_chip_runs_are_identical_across_handoff_modes() {
        let model = models::mobilenet_v2(32);
        let arch = ArchConfig::paper_default();
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let stream = Simulator::new(&compiled).run().unwrap();
        let retire = Simulator::with_options(
            &compiled,
            SimOptions { handoff: HandoffMode::AtRetirement, ..SimOptions::default() },
        )
        .run()
        .unwrap();
        assert_eq!(stream.total_cycles, retire.total_cycles);
        assert_eq!(stream.noc, retire.noc);
        assert!((stream.energy.total_pj() - retire.energy.total_pj()).abs() < 1e-9);
        assert_eq!(stream.chip_stall_cycles, vec![0]);
        assert_eq!(stream.chip_overlap_cycles, vec![0]);
    }

    #[test]
    fn profiled_chip_busy_spans_sum_to_the_reported_chip_cycles() {
        let model = models::vgg19(32);
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();

        let tracer = Tracer::new(1 << 16);
        let mut sim = Simulator::with_options(
            &compiled,
            SimOptions { profile: true, ..SimOptions::default() },
        );
        sim.set_tracer(&tracer);
        let report = sim.run().unwrap();

        // The acceptance contract: the trace's per-chip busy spans are
        // the report's chip spans, so their durations sum exactly.
        let busy: Vec<_> =
            tracer.events().into_iter().filter(|e| e.category == "sim.chip").collect();
        assert_eq!(busy.len(), 2, "one busy span per chip");
        assert_eq!(
            busy.iter().map(|e| e.duration).sum::<u64>(),
            report.chip_cycles.iter().sum::<u64>()
        );
        for event in &busy {
            let chip = event
                .attrs
                .iter()
                .find_map(|(k, v)| match (k.as_str(), v) {
                    ("chip", AttrValue::U64(chip)) => Some(*chip as usize),
                    _ => None,
                })
                .expect("chip attr");
            assert_eq!(event.duration, report.chip_cycles[chip]);
        }

        // Stage windows and fabric transfers landed on their categories,
        // and every timeline stays within the simulated time range.
        let events = tracer.events();
        assert!(events.iter().any(|e| e.category == "sim.stage"));
        assert!(events.iter().any(|e| e.category == "sim.fabric"));
        for event in &events {
            assert!(event.start + event.duration <= report.total_cycles);
        }
        // The exported JSON names the chip timelines.
        let json = tracer.to_chrome_json();
        assert!(json.contains("chip-0") && json.contains("chip-1") && json.contains("fabric"));
    }

    #[test]
    fn profiling_is_inert_when_disabled_or_untraced() {
        let model = models::resnet18(32);
        let arch = ArchConfig::paper_default().with_chip_count(2);
        let compiled = compile(&model, &arch, Strategy::DpOptimized).unwrap();
        let baseline = Simulator::new(&compiled).run().unwrap();

        // profile=false with a tracer attached: no events, same timing.
        let silent = Tracer::new(1024);
        let mut sim = Simulator::new(&compiled);
        sim.set_tracer(&silent);
        let report = sim.run().unwrap();
        assert!(silent.is_empty(), "profile=false must not record");
        assert_eq!(report.total_cycles, baseline.total_cycles);

        // profile=true without a tracer: the flag alone changes nothing.
        let report = Simulator::with_options(
            &compiled,
            SimOptions { profile: true, ..SimOptions::default() },
        )
        .run()
        .unwrap();
        assert_eq!(report.total_cycles, baseline.total_cycles);
        assert_eq!(report.chip_cycles, baseline.chip_cycles);
    }

    #[test]
    fn class_counts_are_indexed_in_class_order_and_skip_unexecuted_classes() {
        for (index, class) in OpcodeClass::ALL.iter().enumerate() {
            assert_eq!(*class as usize, index, "{class} indexes the count array");
        }
        let counts = class_counts(&[3, 0, 5, 0, 1]);
        let expected: BTreeMap<String, u64> =
            [("cim", 3), ("scalar", 5), ("control", 1)].map(|(k, v)| (k.to_owned(), v)).into();
        assert_eq!(counts, expected);
    }

    #[test]
    fn memory_port_placement_changes_contention_not_correctness() {
        let model = models::mobilenet_v2(32);
        let arch = ArchConfig::paper_default().with_memory_port(27);
        let compiled = compile(&model, &arch, Strategy::GenericMapping).unwrap();
        let moved = Simulator::new(&compiled).run().unwrap();
        let default = simulate(model, Strategy::GenericMapping);
        assert!(moved.total_cycles > 0);
        // Same work, same dynamic instruction stream, different timing.
        assert_eq!(moved.total_dynamic_instructions(), default.total_dynamic_instructions());
        assert_ne!(moved.noc, default.noc, "the port node shapes the traffic pattern");
    }
}
