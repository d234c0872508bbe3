//! Chip-level abstraction: the multi-core organization, the NoC and the
//! global memory.

use serde::{Content, Deserialize, Serialize};

use crate::memory::GlobalMemoryConfig;
use crate::ArchError;

/// Largest mesh [`ChipConfig::validate`] accepts, in router positions
/// (64 times the paper's 8 × 8 mesh). The simulator keeps link state for
/// every router of every chip, so an unbounded mesh read from a
/// configuration file or a wire request could ask for gigabytes before
/// the first cycle runs.
pub const MAX_MESH_NODES: u64 = 4096;

/// Dimensions of the 2-D mesh NoC connecting the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MeshDimensions {
    /// Number of mesh columns.
    pub width: u32,
    /// Number of mesh rows.
    pub height: u32,
}

impl MeshDimensions {
    /// Creates mesh dimensions.
    pub fn new(width: u32, height: u32) -> Self {
        MeshDimensions { width, height }
    }

    /// Number of router positions in the mesh.
    pub fn nodes(&self) -> u32 {
        self.width * self.height
    }

    /// Returns the `(x, y)` coordinate of a core identifier (row-major).
    ///
    /// Zero-dimension meshes are rejected by [`ChipConfig::validate`]
    /// (and therefore `ArchConfig::validate`) before any coordinate
    /// arithmetic runs, so no silent clamping happens here.
    pub fn coordinates(&self, core: u32) -> (u32, u32) {
        (core % self.width, core / self.width)
    }

    /// Manhattan hop distance between two cores under XY routing.
    pub fn hops(&self, from: u32, to: u32) -> u32 {
        let (fx, fy) = self.coordinates(from);
        let (tx, ty) = self.coordinates(to);
        fx.abs_diff(tx) + fy.abs_diff(ty)
    }
}

/// Chip-level hardware description (Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipConfig {
    /// Number of cores on the chip (Table I: 64).
    pub core_count: u32,
    /// Mesh organization of the cores (8 × 8 for 64 cores).
    pub mesh: MeshDimensions,
    /// NoC flit size in bytes — the link bandwidth per cycle (Table I: 8 B).
    pub noc_flit_bytes: u32,
    /// Per-hop router latency in cycles.
    pub noc_hop_latency: u32,
    /// Global memory shared by all cores.
    pub global_memory: GlobalMemoryConfig,
    /// Clock frequency in MHz used to convert cycles into seconds.
    pub frequency_mhz: u32,
    /// Mesh node the global-memory port (and the off-chip gateway) is
    /// attached to. Historically hardcoded to node 0 inside the
    /// simulator; now part of the configuration and validated against
    /// the mesh extent.
    pub memory_port: u32,
}

impl ChipConfig {
    /// Table I default chip: 64 cores on an 8×8 mesh, 8-byte flits, 16 MB
    /// global memory, 1 GHz clock.
    pub fn paper_default() -> Self {
        ChipConfig {
            core_count: 64,
            mesh: MeshDimensions::new(8, 8),
            noc_flit_bytes: 8,
            noc_hop_latency: 1,
            global_memory: GlobalMemoryConfig::paper_default(),
            frequency_mhz: 1000,
            memory_port: 0,
        }
    }

    /// Returns a copy with the global-memory port at a different mesh
    /// node.
    pub fn with_memory_port(mut self, node: u32) -> Self {
        self.memory_port = node;
        self
    }

    /// Returns a copy with a different NoC flit size (the Fig. 6 link
    /// bandwidth sweep parameter).
    pub fn with_flit_bytes(mut self, flit_bytes: u32) -> Self {
        self.noc_flit_bytes = flit_bytes;
        self
    }

    /// Returns a copy with a different core count, adjusting the mesh to
    /// the squarest factorization.
    pub fn with_core_count(mut self, core_count: u32) -> Self {
        self.core_count = core_count;
        self.mesh = squarest_mesh(core_count);
        self
    }

    /// Duration of one clock cycle in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / (f64::from(self.frequency_mhz.max(1)) * 1.0e6)
    }

    /// Number of flits required to move `bytes` over one NoC link.
    pub fn flits_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        bytes.div_ceil(u64::from(self.noc_flit_bytes.max(1)))
    }

    /// Validates chip-level invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.core_count == 0 {
            return Err(ArchError::invalid("chip.core_count", "must be positive"));
        }
        if self.mesh.width == 0 || self.mesh.height == 0 {
            return Err(ArchError::invalid(
                "chip.mesh",
                format!("mesh of {}x{} has a zero dimension", self.mesh.width, self.mesh.height),
            ));
        }
        let nodes = u64::from(self.mesh.width) * u64::from(self.mesh.height);
        if nodes > MAX_MESH_NODES {
            return Err(ArchError::invalid(
                "chip.mesh",
                format!(
                    "mesh of {}x{} has more than {MAX_MESH_NODES} nodes",
                    self.mesh.width, self.mesh.height
                ),
            ));
        }
        if self.mesh.nodes() < self.core_count {
            return Err(ArchError::invalid(
                "chip.mesh",
                format!(
                    "mesh of {}x{} cannot place {} cores",
                    self.mesh.width, self.mesh.height, self.core_count
                ),
            ));
        }
        if self.noc_flit_bytes == 0 {
            return Err(ArchError::invalid("chip.noc_flit_bytes", "must be positive"));
        }
        if self.frequency_mhz == 0 {
            return Err(ArchError::invalid("chip.frequency_mhz", "must be positive"));
        }
        if self.memory_port >= self.mesh.nodes() {
            return Err(ArchError::invalid(
                "chip.memory_port",
                format!(
                    "node {} is outside the {}x{} mesh",
                    self.memory_port, self.mesh.width, self.mesh.height
                ),
            ));
        }
        self.global_memory.validate()
    }
}

// Manual serde: `memory_port` is emitted only when it differs from the
// historical hardwired node 0, so the serialized form — and therefore
// the content hash the evaluation cache keys on — of every pre-existing
// configuration is byte-identical to what older engines produced.
// Deserialization accepts files that omit the field.
impl Serialize for ChipConfig {
    fn serialize(&self) -> Content {
        let mut map = vec![
            ("core_count".to_owned(), Serialize::serialize(&self.core_count)),
            ("mesh".to_owned(), Serialize::serialize(&self.mesh)),
            ("noc_flit_bytes".to_owned(), Serialize::serialize(&self.noc_flit_bytes)),
            ("noc_hop_latency".to_owned(), Serialize::serialize(&self.noc_hop_latency)),
            ("global_memory".to_owned(), Serialize::serialize(&self.global_memory)),
            ("frequency_mhz".to_owned(), Serialize::serialize(&self.frequency_mhz)),
        ];
        if self.memory_port != 0 {
            map.push(("memory_port".to_owned(), Serialize::serialize(&self.memory_port)));
        }
        Content::Map(map)
    }
}

impl Deserialize for ChipConfig {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let map =
            content.as_map().ok_or_else(|| serde::Error::new("expected map for ChipConfig"))?;
        let required = |name: &str| {
            map.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| serde::Error::new(format!("missing field `{name}` in ChipConfig")))
        };
        Ok(ChipConfig {
            core_count: Deserialize::deserialize(required("core_count")?)?,
            mesh: Deserialize::deserialize(required("mesh")?)?,
            noc_flit_bytes: Deserialize::deserialize(required("noc_flit_bytes")?)?,
            noc_hop_latency: Deserialize::deserialize(required("noc_hop_latency")?)?,
            global_memory: Deserialize::deserialize(required("global_memory")?)?,
            frequency_mhz: Deserialize::deserialize(required("frequency_mhz")?)?,
            memory_port: match map.iter().find(|(k, _)| k == "memory_port") {
                Some((_, v)) => Deserialize::deserialize(v)?,
                None => 0,
            },
        })
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Returns the most square mesh that can hold `cores` nodes.
fn squarest_mesh(cores: u32) -> MeshDimensions {
    if cores == 0 {
        return MeshDimensions::new(1, 1);
    }
    let mut best = MeshDimensions::new(cores, 1);
    let mut w = 1;
    while w * w <= cores {
        if cores.is_multiple_of(w) {
            best = MeshDimensions::new(cores / w, w);
        }
        w += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chip_matches_table_i() {
        let chip = ChipConfig::paper_default();
        assert_eq!(chip.core_count, 64);
        assert_eq!(chip.noc_flit_bytes, 8);
        assert_eq!(chip.mesh.nodes(), 64);
        assert!(chip.validate().is_ok());
    }

    #[test]
    fn mesh_coordinates_and_hops() {
        let mesh = MeshDimensions::new(8, 8);
        assert_eq!(mesh.coordinates(0), (0, 0));
        assert_eq!(mesh.coordinates(9), (1, 1));
        assert_eq!(mesh.hops(0, 9), 2);
        assert_eq!(mesh.hops(7, 56), 14);
        assert_eq!(mesh.hops(5, 5), 0);
    }

    #[test]
    fn flit_count_rounds_up() {
        let chip = ChipConfig::paper_default();
        assert_eq!(chip.flits_for(0), 0);
        assert_eq!(chip.flits_for(1), 1);
        assert_eq!(chip.flits_for(8), 1);
        assert_eq!(chip.flits_for(9), 2);
        let wide = chip.with_flit_bytes(16);
        assert_eq!(wide.flits_for(9), 1);
    }

    #[test]
    fn with_core_count_builds_square_mesh() {
        let chip = ChipConfig::paper_default().with_core_count(16);
        assert_eq!(chip.mesh, MeshDimensions::new(4, 4));
        let chip = ChipConfig::paper_default().with_core_count(12);
        assert_eq!(chip.mesh.nodes(), 12);
        assert!(chip.validate().is_ok());
    }

    #[test]
    fn invalid_chips_are_rejected() {
        let mut chip = ChipConfig::paper_default();
        chip.mesh = MeshDimensions::new(4, 4);
        assert!(chip.validate().is_err());
        let mut chip = ChipConfig::paper_default();
        chip.noc_flit_bytes = 0;
        assert!(chip.validate().is_err());
        let mut chip = ChipConfig::paper_default();
        chip.core_count = 0;
        assert!(chip.validate().is_err());
    }

    #[test]
    fn cycle_seconds_from_frequency() {
        let chip = ChipConfig::paper_default();
        assert!((chip.cycle_seconds() - 1.0e-9).abs() < 1e-15);
    }

    #[test]
    fn serde_round_trip() {
        let chip = ChipConfig::paper_default();
        let text = serde_json::to_string(&chip).unwrap();
        assert!(
            !text.contains("memory_port"),
            "port node 0 keeps the historical serialized form: {text}"
        );
        let back: ChipConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, chip);

        let moved = chip.with_memory_port(27);
        let text = serde_json::to_string(&moved).unwrap();
        assert!(text.contains("memory_port"));
        let back: ChipConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, moved);
    }

    #[test]
    fn zero_dimension_meshes_are_rejected_by_validation() {
        for mesh in [MeshDimensions::new(0, 8), MeshDimensions::new(8, 0)] {
            let mut chip = ChipConfig::paper_default();
            chip.mesh = mesh;
            let error = chip.validate().unwrap_err();
            assert!(error.to_string().contains("zero dimension"), "{error}");
        }
    }

    #[test]
    fn oversized_meshes_are_rejected_by_validation() {
        let mut chip = ChipConfig::paper_default();
        chip.mesh = MeshDimensions::new(64, 64);
        assert!(chip.validate().is_ok());
        // 65 x 64 is one row too many; 70000 x 70000 would overflow a u32 node count.
        for mesh in [MeshDimensions::new(65, 64), MeshDimensions::new(70_000, 70_000)] {
            chip.mesh = mesh;
            let error = chip.validate().unwrap_err();
            assert!(error.to_string().contains("more than 4096 nodes"), "{error}");
        }
    }

    #[test]
    fn memory_port_must_be_a_mesh_node() {
        let chip = ChipConfig::paper_default().with_memory_port(63);
        assert!(chip.validate().is_ok());
        let chip = ChipConfig::paper_default().with_memory_port(64);
        assert!(chip.validate().is_err());
    }
}
