//! Unit-level abstraction: CIM macros, elements, macro groups and the
//! auxiliary vector / scalar compute units.

use serde::{Deserialize, Serialize};

use crate::ArchError;

/// Geometry of one digital CIM macro: a modified SRAM array of
/// `rows × cols` bit-cells with embedded multiplier logic and an adder
/// tree (Table I default: 512 × 64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacroConfig {
    /// Number of word-line rows (input-vector length per operation).
    pub rows: u32,
    /// Number of bit-line columns.
    pub cols: u32,
}

impl MacroConfig {
    /// Table I default geometry (512 × 64 bit-cells).
    pub fn paper_default() -> Self {
        MacroConfig { rows: 512, cols: 64 }
    }

    /// Number of bit-cells in the macro.
    pub fn cells(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }
}

impl Default for MacroConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Geometry of one CIM element: the group of bit-cells that shares one
/// multiplier / shift-and-add column group (Table I default: 32 × 8).
///
/// The element's column width equals the weight precision in bits, so a
/// macro with 64 columns and 8-bit elements exposes `64 / 8 = 8` INT8
/// output channels per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ElementConfig {
    /// Rows sharing one multiplier (adder-tree leaf fan-in).
    pub rows: u32,
    /// Columns per element; equals the weight precision in bits.
    pub cols: u32,
}

impl ElementConfig {
    /// Table I default geometry (32 × 8).
    pub fn paper_default() -> Self {
        ElementConfig { rows: 32, cols: 8 }
    }
}

impl Default for ElementConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the per-core CIM compute unit.
///
/// The unit contains `macro_groups` macro groups (MGs) of
/// `macros_per_group` macros each. Weights inside an MG are organized
/// along the output-channel dimension so that one input broadcast produces
/// `output_channels_per_group()` INT32 partial sums per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CimUnitConfig {
    /// Number of macro groups in the unit (Table I: 16).
    pub macro_groups: u32,
    /// Number of macros per macro group (Table I: 8; swept 4–16 in Fig. 6).
    pub macros_per_group: u32,
    /// Macro geometry.
    pub macro_geometry: MacroConfig,
    /// Element geometry.
    pub element_geometry: ElementConfig,
    /// Activation precision in bits (INT8 in all paper experiments).
    pub input_bits: u32,
    /// Weight precision in bits (INT8 in all paper experiments).
    pub weight_bits: u32,
}

impl CimUnitConfig {
    /// Table I default CIM unit: 16 MGs × 8 macros of 512×64 cells.
    pub fn paper_default() -> Self {
        CimUnitConfig {
            macro_groups: 16,
            macros_per_group: 8,
            macro_geometry: MacroConfig::paper_default(),
            element_geometry: ElementConfig::paper_default(),
            input_bits: 8,
            weight_bits: 8,
        }
    }

    /// Returns a copy with a different number of macros per group (the
    /// Fig. 6 "MG size" sweep parameter).
    pub fn with_macros_per_group(mut self, macros_per_group: u32) -> Self {
        self.macros_per_group = macros_per_group;
        self
    }

    /// Total number of macros in the unit.
    pub fn total_macros(&self) -> u32 {
        self.macro_groups * self.macros_per_group
    }

    /// INT-weight output channels produced by one macro per operation.
    #[inline]
    pub fn output_channels_per_macro(&self) -> u32 {
        self.macro_geometry.cols / self.weight_bits.max(1)
    }

    /// INT-weight output channels produced by one macro group per operation.
    #[inline]
    pub fn output_channels_per_group(&self) -> u32 {
        self.output_channels_per_macro() * self.macros_per_group
    }

    /// Input rows activated per operation (the reduction dimension tile).
    #[inline]
    pub fn rows_per_operation(&self) -> u32 {
        self.macro_geometry.rows
    }

    /// Weight bytes held by a single macro (equals the bit-cell count
    /// divided by eight: every bit-cell stores one weight bit).
    pub fn weight_bytes_per_macro(&self) -> u64 {
        self.macro_geometry.cells() / 8
    }

    /// Weight storage capacity of one macro group in bytes.
    pub fn weight_bytes_per_group(&self) -> u64 {
        u64::from(self.macros_per_group)
            * u64::from(self.macro_geometry.rows)
            * u64::from(self.output_channels_per_macro())
    }

    /// Weight storage capacity of the whole unit in bytes (INT8 weights).
    pub fn weight_capacity_bytes(&self) -> u64 {
        u64::from(self.macro_groups) * self.weight_bytes_per_group()
    }

    /// Multiply-accumulate operations performed by one macro-group
    /// operation that activates `rows` input rows.
    #[inline]
    pub fn macs_per_group_operation(&self, rows: u32) -> u64 {
        u64::from(rows.min(self.rows_per_operation())) * u64::from(self.output_channels_per_group())
    }

    /// Latency in cycles of one in-situ MVM operation activating `rows`
    /// rows of a macro group.
    ///
    /// Digital CIM computes bit-serially over the activation bits. The
    /// rows of one element share a single multiplier / shift-and-add
    /// column, so the element serializes over its `element_rows` rows;
    /// all elements of the macro group operate in parallel and reduce
    /// through a pipelined adder tree of depth
    /// `log2(rows / element_rows)`.
    #[inline]
    pub fn mvm_latency_cycles(&self, rows: u32) -> u64 {
        let rows = rows.clamp(1, self.rows_per_operation());
        let leaves = (rows / self.element_geometry.rows.max(1)).max(1);
        let tree_depth = 64 - u64::from(leaves.leading_zeros());
        self.mvm_issue_cycles(rows) + tree_depth + 1
    }

    /// Cycles during which the macro group is busy issuing one MVM that
    /// activates `rows` rows (bit phases × serialized element rows).
    #[inline]
    pub fn mvm_issue_cycles(&self, rows: u32) -> u64 {
        let rows = rows.clamp(1, self.rows_per_operation());
        let row_steps = u64::from(rows.min(self.element_geometry.rows.max(1)));
        u64::from(self.input_bits.max(1)) * row_steps
    }

    /// Initiation interval of back-to-back full-height MVMs on the same
    /// macro group: a new operation can start once every bit phase of
    /// every serialized element row has issued (the adder tree is
    /// pipelined behind it).
    pub fn mvm_initiation_interval(&self) -> u64 {
        self.mvm_issue_cycles(self.rows_per_operation())
    }

    /// Cycles needed to program `rows` weight rows into one macro group.
    ///
    /// Weight loading is a plain SRAM write of `output channels` bytes per
    /// row, performed one row per cycle per macro (macros in a group load
    /// in parallel).
    #[inline]
    pub fn weight_load_cycles(&self, rows: u32) -> u64 {
        u64::from(rows.clamp(1, self.rows_per_operation()))
    }

    /// Validates unit-level invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.macro_groups == 0 {
            return Err(ArchError::invalid("cim_unit.macro_groups", "must be positive"));
        }
        if self.macros_per_group == 0 {
            return Err(ArchError::invalid("cim_unit.macros_per_group", "must be positive"));
        }
        if self.macro_geometry.rows == 0 || self.macro_geometry.cols == 0 {
            return Err(ArchError::invalid(
                "cim_unit.macro_geometry",
                "rows and cols must be positive",
            ));
        }
        if self.element_geometry.rows == 0 || self.element_geometry.cols == 0 {
            return Err(ArchError::invalid(
                "cim_unit.element_geometry",
                "rows and cols must be positive",
            ));
        }
        if !self.macro_geometry.rows.is_multiple_of(self.element_geometry.rows) {
            return Err(ArchError::invalid(
                "cim_unit.element_geometry.rows",
                "element rows must divide macro rows",
            ));
        }
        if !self.macro_geometry.cols.is_multiple_of(self.element_geometry.cols) {
            return Err(ArchError::invalid(
                "cim_unit.element_geometry.cols",
                "element cols must divide macro cols",
            ));
        }
        if self.weight_bits == 0 || self.input_bits == 0 {
            return Err(ArchError::invalid("cim_unit.precision", "precisions must be positive"));
        }
        if !self.macro_geometry.cols.is_multiple_of(self.weight_bits) {
            return Err(ArchError::invalid(
                "cim_unit.weight_bits",
                "weight bits must divide macro columns",
            ));
        }
        if self.element_geometry.cols != self.weight_bits {
            return Err(ArchError::invalid(
                "cim_unit.element_geometry.cols",
                "element columns must equal the weight precision",
            ));
        }
        Ok(())
    }
}

impl Default for CimUnitConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the element-wise vector compute unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorUnitConfig {
    /// Number of INT8 lanes processed per cycle.
    pub lanes: u32,
    /// Pipeline depth (latency of the first result).
    pub pipeline_depth: u32,
}

impl VectorUnitConfig {
    /// Default vector unit: 32 lanes, 4-stage pipeline.
    pub fn paper_default() -> Self {
        VectorUnitConfig { lanes: 32, pipeline_depth: 4 }
    }

    /// Cycles to process `elems` elements.
    #[inline]
    pub fn cycles_for(&self, elems: u64) -> u64 {
        if elems == 0 {
            return 0;
        }
        elems.div_ceil(u64::from(self.lanes.max(1)))
            + u64::from(self.pipeline_depth.saturating_sub(1))
    }

    /// Validates vector-unit invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.lanes == 0 {
            return Err(ArchError::invalid("vector_unit.lanes", "must be positive"));
        }
        if self.pipeline_depth == 0 {
            return Err(ArchError::invalid("vector_unit.pipeline_depth", "must be positive"));
        }
        Ok(())
    }
}

impl Default for VectorUnitConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the scalar compute unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScalarUnitConfig {
    /// Latency of an ALU operation in cycles.
    pub alu_latency: u32,
    /// Latency of a multiply/divide in cycles.
    pub muldiv_latency: u32,
}

impl ScalarUnitConfig {
    /// Default scalar unit: single-cycle ALU, 3-cycle multiply/divide.
    pub fn paper_default() -> Self {
        ScalarUnitConfig { alu_latency: 1, muldiv_latency: 3 }
    }

    /// Validates scalar-unit invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.alu_latency == 0 || self.muldiv_latency == 0 {
            return Err(ArchError::invalid("scalar_unit", "latencies must be positive"));
        }
        Ok(())
    }
}

impl Default for ScalarUnitConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_capacity_matches_table_i() {
        let unit = CimUnitConfig::paper_default();
        assert_eq!(unit.total_macros(), 128);
        assert_eq!(unit.output_channels_per_macro(), 8);
        assert_eq!(unit.output_channels_per_group(), 64);
        // 512 rows × 64 output channels per MG = 32 KiB, × 16 MGs = 512 KiB.
        assert_eq!(unit.weight_bytes_per_group(), 32 * 1024);
        assert_eq!(unit.weight_capacity_bytes(), 512 * 1024);
    }

    #[test]
    fn mvm_latency_grows_with_rows_and_is_at_least_bit_serial() {
        let unit = CimUnitConfig::paper_default();
        let short = unit.mvm_latency_cycles(32);
        let full = unit.mvm_latency_cycles(512);
        assert!(full > short);
        assert!(short >= u64::from(unit.input_bits));
        // 8 bit phases × 32 serialized element rows.
        assert_eq!(unit.mvm_initiation_interval(), 256);
        assert_eq!(unit.mvm_issue_cycles(16), 8 * 16);
    }

    #[test]
    fn mvm_latency_clamps_row_overflow() {
        let unit = CimUnitConfig::paper_default();
        assert_eq!(unit.mvm_latency_cycles(4096), unit.mvm_latency_cycles(512));
        assert_eq!(unit.mvm_latency_cycles(0), unit.mvm_latency_cycles(1));
    }

    #[test]
    fn macs_per_operation_scales_with_group_size() {
        let small = CimUnitConfig::paper_default().with_macros_per_group(4);
        let large = CimUnitConfig::paper_default().with_macros_per_group(16);
        assert_eq!(large.macs_per_group_operation(512), 4 * small.macs_per_group_operation(512));
    }

    #[test]
    fn validation_rejects_inconsistent_geometry() {
        let mut bad = CimUnitConfig::paper_default();
        bad.element_geometry.rows = 33;
        assert!(bad.validate().is_err());

        let mut bad = CimUnitConfig::paper_default();
        bad.weight_bits = 5;
        assert!(bad.validate().is_err());

        let mut bad = CimUnitConfig::paper_default();
        bad.macro_groups = 0;
        assert!(bad.validate().is_err());

        assert!(CimUnitConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn vector_unit_cycles() {
        let v = VectorUnitConfig::paper_default();
        assert_eq!(v.cycles_for(0), 0);
        assert_eq!(v.cycles_for(1), 1 + 3);
        assert_eq!(v.cycles_for(64), 2 + 3);
        assert!(VectorUnitConfig { lanes: 0, pipeline_depth: 1 }.validate().is_err());
    }

    #[test]
    fn scalar_unit_validation() {
        assert!(ScalarUnitConfig::paper_default().validate().is_ok());
        assert!(ScalarUnitConfig { alu_latency: 0, muldiv_latency: 1 }.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let unit = CimUnitConfig::paper_default();
        let json = serde_json::to_string(&unit).unwrap();
        let back: CimUnitConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, unit);
    }
}
