//! Memory-hierarchy abstraction: segmented local memory and global memory
//! in a unified address space.

use serde::{Deserialize, Serialize};

use crate::ArchError;

/// Roles of the local-memory segments.
///
/// The paper divides local memory into segments "to efficiently handle the
/// input and output of DNN layers"; this enum names those roles so the
/// compiler can plan placements symbolically before address assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Incoming activation tiles for the layer currently executing.
    Input,
    /// Produced activation tiles waiting to be consumed or shipped out.
    Output,
    /// Staging area for weight tiles before they are programmed into MGs.
    Weight,
    /// INT32 accumulator tiles and other scratch data.
    Scratch,
}

impl SegmentKind {
    /// All segment kinds in address-map order.
    pub const ALL: [SegmentKind; 4] =
        [SegmentKind::Input, SegmentKind::Output, SegmentKind::Weight, SegmentKind::Scratch];
}

/// Configuration of a core's local memory (Table I default: 512 KB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LocalMemoryConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Number of equally sized segments (one per [`SegmentKind`]).
    pub segments: u32,
    /// Read/write bandwidth in bytes per cycle.
    pub bandwidth_bytes_per_cycle: u32,
    /// Access latency in cycles.
    pub access_latency: u32,
}

impl LocalMemoryConfig {
    /// Table I default local memory: 512 KB, four segments, 64 B/cycle.
    pub fn paper_default() -> Self {
        LocalMemoryConfig {
            size_bytes: 512 * 1024,
            segments: 4,
            bandwidth_bytes_per_cycle: 64,
            access_latency: 2,
        }
    }

    /// Size of one segment in bytes.
    pub fn segment_bytes(&self) -> u64 {
        self.size_bytes / u64::from(self.segments.max(1))
    }

    /// Cycles to transfer `bytes` to or from local memory.
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        bytes.div_ceil(u64::from(self.bandwidth_bytes_per_cycle.max(1)))
            + u64::from(self.access_latency)
    }

    /// Validates local-memory invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.size_bytes == 0 {
            return Err(ArchError::invalid("local_memory.size_bytes", "must be positive"));
        }
        if self.segments == 0 {
            return Err(ArchError::invalid("local_memory.segments", "must be positive"));
        }
        if !self.size_bytes.is_multiple_of(u64::from(self.segments)) {
            return Err(ArchError::invalid(
                "local_memory.segments",
                "segment count must divide the capacity",
            ));
        }
        if self.bandwidth_bytes_per_cycle == 0 {
            return Err(ArchError::invalid(
                "local_memory.bandwidth_bytes_per_cycle",
                "must be positive",
            ));
        }
        Ok(())
    }
}

impl Default for LocalMemoryConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the chip-level global memory (Table I default: 16 MB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalMemoryConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Peak bandwidth in bytes per cycle shared by all cores.
    pub bandwidth_bytes_per_cycle: u32,
    /// Access latency in cycles (queueing excluded).
    pub access_latency: u32,
}

impl GlobalMemoryConfig {
    /// Table I default global memory: 16 MB, 128 B/cycle, 20-cycle latency.
    pub fn paper_default() -> Self {
        GlobalMemoryConfig {
            size_bytes: 16 * 1024 * 1024,
            bandwidth_bytes_per_cycle: 128,
            access_latency: 20,
        }
    }

    /// Cycles occupied on the global-memory port by a `bytes` transfer.
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        bytes.div_ceil(u64::from(self.bandwidth_bytes_per_cycle.max(1)))
            + u64::from(self.access_latency)
    }

    /// Validates global-memory invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.size_bytes == 0 {
            return Err(ArchError::invalid("global_memory.size_bytes", "must be positive"));
        }
        if self.bandwidth_bytes_per_cycle == 0 {
            return Err(ArchError::invalid(
                "global_memory.bandwidth_bytes_per_cycle",
                "must be positive",
            ));
        }
        Ok(())
    }
}

impl Default for GlobalMemoryConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_memory_defaults_match_table_i() {
        let m = LocalMemoryConfig::paper_default();
        assert_eq!(m.size_bytes, 512 * 1024);
        assert_eq!(m.segment_bytes(), 128 * 1024);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn local_transfer_cycles_scale_with_bytes() {
        let m = LocalMemoryConfig::paper_default();
        assert_eq!(m.transfer_cycles(0), 0);
        assert_eq!(m.transfer_cycles(1), 1 + 2);
        assert_eq!(m.transfer_cycles(128), 2 + 2);
        assert!(m.transfer_cycles(10_000) > m.transfer_cycles(1_000));
    }

    #[test]
    fn global_memory_defaults_match_table_i() {
        let g = GlobalMemoryConfig::paper_default();
        assert_eq!(g.size_bytes, 16 * 1024 * 1024);
        assert!(g.validate().is_ok());
        assert_eq!(g.transfer_cycles(0), 0);
        assert_eq!(g.transfer_cycles(256), 2 + 20);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut m = LocalMemoryConfig::paper_default();
        m.segments = 3; // does not divide 512 KiB evenly? 512KiB/3 is not integral
        assert!(m.validate().is_err());
        m.segments = 0;
        assert!(m.validate().is_err());
        let mut g = GlobalMemoryConfig::paper_default();
        g.bandwidth_bytes_per_cycle = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn segment_kinds_are_exhaustive_and_ordered() {
        assert_eq!(SegmentKind::ALL.len(), 4);
        assert!(SegmentKind::Input < SegmentKind::Scratch);
    }

    #[test]
    fn serde_round_trip() {
        let m = LocalMemoryConfig::paper_default();
        let back: LocalMemoryConfig =
            serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
    }
}
