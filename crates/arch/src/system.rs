//! System-level abstraction: how many chips the platform integrates and
//! how they are interconnected.
//!
//! The paper's evaluation stops at one 64-core chip; the system level
//! scales past a single chip's weight capacity and MAC throughput by
//! replicating the chip and connecting the replicas through a package- or
//! board-level interconnect. A [`SystemConfig`] bundles the per-chip
//! description with the chip count and the [`InterChipConfig`]; an
//! [`ArchConfig`](crate::ArchConfig) carries it as its top level.

use serde::{Content, Deserialize, Serialize};

use crate::chip::ChipConfig;
use crate::ArchError;

/// Largest chip count [`SystemConfig::validate`] accepts. The simulator
/// keeps one mesh per chip and one link slot per ordered chip pair, so
/// an unbounded count from a configuration file or a wire request could
/// ask for gigabytes before the first cycle runs.
pub const MAX_CHIP_COUNT: u32 = 64;

/// Topology of the chip-to-chip interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterChipTopology {
    /// Every chip pair is connected by a dedicated full-duplex link
    /// (package-level point-to-point fabric); any transfer is one hop.
    PointToPoint,
    /// Chips form a ring; a transfer traverses `min(|i-j|, n-|i-j|)`
    /// links and queues behind other traffic on each of them.
    Ring,
}

/// Configuration of the inter-chip interconnect.
///
/// Links are flit-serialized exactly like the on-chip mesh, just with a
/// wider flit and a much larger per-hop latency: a transfer of `bytes`
/// occupies every traversed link for `ceil(bytes / link_bytes_per_cycle)`
/// cycles after a `link_latency_cycles` head-of-line delay per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct InterChipConfig {
    /// Link topology.
    pub topology: InterChipTopology,
    /// Link bandwidth in bytes per core-clock cycle (the inter-chip
    /// "flit" size; default 32 B ≈ a 256-bit SerDes lane bundle).
    pub link_bytes_per_cycle: u32,
    /// Head latency of one link traversal in core-clock cycles
    /// (serialization/deserialization plus time of flight).
    pub link_latency_cycles: u32,
}

impl InterChipConfig {
    /// Default interconnect: point-to-point links, 32 B/cycle,
    /// 64-cycle hop latency.
    pub fn paper_default() -> Self {
        InterChipConfig {
            topology: InterChipTopology::PointToPoint,
            link_bytes_per_cycle: 32,
            link_latency_cycles: 64,
        }
    }

    /// Number of link-serialization flits needed to carry `bytes`.
    pub fn flits_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(u64::from(self.link_bytes_per_cycle.max(1)))
        }
    }

    /// Validates interconnect invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.link_bytes_per_cycle == 0 {
            return Err(ArchError::invalid(
                "system.interconnect.link_bytes_per_cycle",
                "must be positive",
            ));
        }
        Ok(())
    }
}

impl Default for InterChipConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The system level of the architecture: one chip description, how many
/// copies of it the platform integrates, and the interconnect between
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SystemConfig {
    /// The (homogeneous) chip replicated across the system.
    pub chip: ChipConfig,
    /// Number of chips (1 = the paper's single-chip platform).
    pub chip_count: u32,
    /// Chip-to-chip interconnect.
    pub interconnect: InterChipConfig,
}

impl SystemConfig {
    /// A single-chip system around `chip` with the default interconnect
    /// (which is never exercised at `chip_count == 1`).
    pub fn single_chip(chip: ChipConfig) -> Self {
        SystemConfig { chip, chip_count: 1, interconnect: InterChipConfig::paper_default() }
    }

    /// Whether this is the plain single-chip system with the default
    /// interconnect — the configuration whose serialized form (and hence
    /// content hash) must stay identical to the historical chip-level
    /// format.
    pub fn is_single_chip_default(&self) -> bool {
        self.chip_count == 1 && self.interconnect == InterChipConfig::paper_default()
    }

    /// Total cores across all chips.
    pub fn total_cores(&self) -> u32 {
        self.chip_count * self.chip.core_count
    }

    /// Validates system-level invariants (and the chip's).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.chip_count == 0 {
            return Err(ArchError::invalid("system.chip_count", "must be positive"));
        }
        if self.chip_count > MAX_CHIP_COUNT {
            return Err(ArchError::invalid(
                "system.chip_count",
                format!("{} chips is more than {MAX_CHIP_COUNT}", self.chip_count),
            ));
        }
        self.interconnect.validate()?;
        self.chip.validate()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::single_chip(ChipConfig::paper_default())
    }
}

// Manual deserialization so that configuration files may omit any
// system-level field: an absent `chip_count` means 1 and an absent
// `interconnect` (or interconnect sub-field) means the default — the
// single-chip files of the paper's era keep parsing unchanged.

fn field<'a>(map: &'a [(String, Content)], name: &str) -> Option<&'a Content> {
    map.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

impl Deserialize for InterChipConfig {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::new("expected map for InterChipConfig"))?;
        let default = InterChipConfig::paper_default();
        Ok(InterChipConfig {
            topology: match field(map, "topology") {
                Some(v) => topology_from_content(v)?,
                None => default.topology,
            },
            link_bytes_per_cycle: match field(map, "link_bytes_per_cycle") {
                Some(v) => Deserialize::deserialize(v)?,
                None => default.link_bytes_per_cycle,
            },
            link_latency_cycles: match field(map, "link_latency_cycles") {
                Some(v) => Deserialize::deserialize(v)?,
                None => default.link_latency_cycles,
            },
        })
    }
}

impl Deserialize for SystemConfig {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let map =
            content.as_map().ok_or_else(|| serde::Error::new("expected map for SystemConfig"))?;
        let chip = field(map, "chip")
            .ok_or_else(|| serde::Error::new("missing field `chip` in SystemConfig"))?;
        Ok(SystemConfig {
            chip: Deserialize::deserialize(chip)?,
            chip_count: match field(map, "chip_count") {
                Some(v) => Deserialize::deserialize(v)?,
                None => 1,
            },
            interconnect: match field(map, "interconnect") {
                Some(v) => Deserialize::deserialize(v)?,
                None => InterChipConfig::paper_default(),
            },
        })
    }
}

/// Accept both the tagged enum spelling (`{"PointToPoint": null}`-style)
/// and the plain string a hand-written config file would use.
pub(crate) fn topology_from_content(content: &Content) -> Result<InterChipTopology, serde::Error> {
    if let Some(text) = content.as_str() {
        return match text {
            "PointToPoint" | "point_to_point" => Ok(InterChipTopology::PointToPoint),
            "Ring" | "ring" => Ok(InterChipTopology::Ring),
            other => Err(serde::Error::new(format!("unknown inter-chip topology `{other}`"))),
        };
    }
    InterChipTopology::deserialize(content)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_system_is_single_chip_and_valid() {
        let system = SystemConfig::default();
        assert_eq!(system.chip_count, 1);
        assert!(system.is_single_chip_default());
        assert_eq!(system.total_cores(), 64);
        assert!(system.validate().is_ok());
    }

    #[test]
    fn interconnect_flits_round_up() {
        let link = InterChipConfig::paper_default();
        assert_eq!(link.flits_for(0), 0);
        assert_eq!(link.flits_for(1), 1);
        assert_eq!(link.flits_for(32), 1);
        assert_eq!(link.flits_for(33), 2);
    }

    #[test]
    fn invalid_systems_are_rejected() {
        let system = SystemConfig { chip_count: 0, ..SystemConfig::default() };
        assert!(system.validate().is_err());
        let mut system = SystemConfig::default();
        system.interconnect.link_bytes_per_cycle = 0;
        assert!(system.validate().is_err());
        let system = SystemConfig { chip_count: MAX_CHIP_COUNT, ..SystemConfig::default() };
        assert!(system.validate().is_ok());
        let system = SystemConfig { chip_count: MAX_CHIP_COUNT + 1, ..SystemConfig::default() };
        let error = system.validate().unwrap_err();
        assert!(error.to_string().contains("more than 64"), "{error}");
    }

    #[test]
    fn serde_round_trip_and_string_topologies() {
        let system = SystemConfig { chip_count: 4, ..SystemConfig::default() };
        let back: SystemConfig =
            serde_json::from_str(&serde_json::to_string(&system).unwrap()).unwrap();
        assert_eq!(back, system);
        assert_eq!(
            topology_from_content(&Content::Str("ring".into())).unwrap(),
            InterChipTopology::Ring
        );
        assert!(topology_from_content(&Content::Str("torus".into())).is_err());
    }

    #[test]
    fn omitted_system_fields_default() {
        // `chip` itself stays required: an empty chip map is an error.
        assert!(serde_json::from_str::<SystemConfig>("{\"chip\": {}}").is_err());

        let text = format!(
            "{{\"chip\": {}, \"chip_count\": 2, \"interconnect\": {{\"topology\": \"ring\"}}}}",
            serde_json::to_string(&ChipConfig::paper_default()).unwrap()
        );
        let system: SystemConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(system.chip_count, 2);
        assert_eq!(system.interconnect.topology, InterChipTopology::Ring);
        assert_eq!(
            system.interconnect.link_bytes_per_cycle,
            InterChipConfig::paper_default().link_bytes_per_cycle,
            "omitted link fields default"
        );
    }
}
