//! # cimflow-arch
//!
//! Hierarchical hardware abstraction for the CIMFlow framework,
//! reproducing the chip / core / unit hierarchy of Sec. III-B and the
//! default architecture parameters of Table I of the CIMFlow paper
//! (DAC 2025).
//!
//! The abstraction has four levels:
//!
//! * **System level** ([`SystemConfig`]) — how many chips the platform
//!   integrates and the inter-chip interconnect ([`InterChipConfig`])
//!   between them; `chip_count == 1` is the paper's platform.
//! * **Chip level** ([`ChipConfig`]) — number of cores, 2-D mesh NoC
//!   organization, flit size (link bandwidth per cycle), global memory
//!   and its port node.
//! * **Core level** ([`CoreConfig`]) — the CIM compute unit, the vector and
//!   scalar units, the register file, instruction memory and segmented
//!   local memory.
//! * **Unit level** ([`CimUnitConfig`], [`MacroConfig`], [`ElementConfig`])
//!   — macro groups, macro geometry (512×64 bit-cells by default), element
//!   geometry (32×8) and the bit-serial MAC timing model.
//!
//! An [`ArchConfig`] bundles all levels, is (de)serializable with
//! serde (the paper's "architecture configuration file" user input), can be
//! validated against structural invariants, and exposes the derived
//! quantities (weight capacity, peak throughput, address map) that the
//! compiler and simulator need.
//!
//! # Example
//!
//! ```
//! use cimflow_arch::ArchConfig;
//!
//! let arch = ArchConfig::paper_default();
//! assert_eq!(arch.chip().core_count, 64);
//! assert_eq!(arch.system.chip_count, 1);
//! // 16 MGs × 8 macros × 512 rows × 8 INT8 channels per macro = 512 KiB.
//! assert_eq!(arch.core.cim_unit.weight_capacity_bytes(), 512 * 1024);
//! arch.validate().expect("the paper default is self-consistent");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod config;
mod core;
mod error;
mod memory;
mod system;
mod unit;

pub use chip::{ChipConfig, MeshDimensions, MAX_MESH_NODES};
pub use config::{AddressMap, ArchConfig};
pub use core::{CoreConfig, RegisterFileConfig};
pub use error::ArchError;
pub use memory::{GlobalMemoryConfig, LocalMemoryConfig, SegmentKind};
pub use system::{InterChipConfig, InterChipTopology, SystemConfig, MAX_CHIP_COUNT};
pub use unit::{CimUnitConfig, ElementConfig, MacroConfig, ScalarUnitConfig, VectorUnitConfig};
