use std::fmt;

use crate::IsaError;

/// Number of architectural general-purpose registers per core.
pub const GENERAL_REGISTER_COUNT: u8 = 32;

/// A general-purpose register (`G_Reg` in the paper's register file).
///
/// General registers are used for instruction-level access: addresses,
/// loop counters, lengths and immediate staging. The 5-bit operand fields
/// of the instruction formats index this register file.
///
/// # Example
///
/// ```
/// use cimflow_isa::GReg;
/// let r = GReg::new(7)?;
/// assert_eq!(r.index(), 7);
/// assert_eq!(r.to_string(), "g7");
/// # Ok::<(), cimflow_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GReg(u8);

impl GReg {
    /// The zero register: always reads as zero, writes are ignored.
    pub const ZERO: GReg = GReg(0);

    /// Creates a general register from its index.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidRegister`] if `index` is not smaller than
    /// [`GENERAL_REGISTER_COUNT`].
    pub fn new(index: u8) -> Result<Self, IsaError> {
        if index < GENERAL_REGISTER_COUNT {
            Ok(GReg(index))
        } else {
            Err(IsaError::InvalidRegister { index, limit: GENERAL_REGISTER_COUNT })
        }
    }

    /// Returns the architectural index of the register.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for GReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl TryFrom<u8> for GReg {
    type Error = IsaError;

    fn try_from(value: u8) -> Result<Self, Self::Error> {
        GReg::new(value)
    }
}

impl From<GReg> for u8 {
    fn from(value: GReg) -> Self {
        value.index()
    }
}

/// Special-purpose registers (`S_Reg` in the paper's register file).
///
/// Special registers carry operation-specific state that is not addressed
/// through the 5-bit operand fields: the identity of the core, the current
/// execution stage, the active macro-group selection, and the local-memory
/// segment base registers used to address layer inputs and outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum SReg {
    /// The physical identifier of the executing core (read-only).
    CoreId,
    /// The execution-stage counter maintained by barrier instructions.
    StageId,
    /// The currently selected macro group for CIM weight loads.
    MacroGroupSelect,
    /// Base address of the local-memory segment holding layer inputs.
    InputSegmentBase,
    /// Base address of the local-memory segment holding layer outputs.
    OutputSegmentBase,
    /// Base address of the local-memory segment staging weights.
    WeightSegmentBase,
}

impl SReg {
    /// All special registers, in encoding order.
    pub const ALL: [SReg; 6] = [
        SReg::CoreId,
        SReg::StageId,
        SReg::MacroGroupSelect,
        SReg::InputSegmentBase,
        SReg::OutputSegmentBase,
        SReg::WeightSegmentBase,
    ];

    /// Returns the encoding index of the special register.
    #[inline]
    pub fn index(self) -> u8 {
        match self {
            SReg::CoreId => 0,
            SReg::StageId => 1,
            SReg::MacroGroupSelect => 2,
            SReg::InputSegmentBase => 3,
            SReg::OutputSegmentBase => 4,
            SReg::WeightSegmentBase => 5,
        }
    }

    /// Looks a special register up by its encoding index.
    pub fn from_index(index: u8) -> Option<Self> {
        Self::ALL.get(usize::from(index)).copied()
    }
}

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SReg::CoreId => "s_core",
            SReg::StageId => "s_stage",
            SReg::MacroGroupSelect => "s_mg",
            SReg::InputSegmentBase => "s_in",
            SReg::OutputSegmentBase => "s_out",
            SReg::WeightSegmentBase => "s_wgt",
        };
        f.write_str(name)
    }
}

/// Either register class, used by tooling that inspects operands uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Register {
    /// A general-purpose register.
    General(GReg),
    /// A special-purpose register.
    Special(SReg),
}

impl fmt::Display for Register {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Register::General(r) => r.fmt(f),
            Register::Special(r) => r.fmt(f),
        }
    }
}

impl From<GReg> for Register {
    fn from(value: GReg) -> Self {
        Register::General(value)
    }
}

impl From<SReg> for Register {
    fn from(value: SReg) -> Self {
        Register::Special(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_register_bounds() {
        assert!(GReg::new(0).is_ok());
        assert!(GReg::new(GENERAL_REGISTER_COUNT - 1).is_ok());
        assert_eq!(
            GReg::new(GENERAL_REGISTER_COUNT),
            Err(IsaError::InvalidRegister {
                index: GENERAL_REGISTER_COUNT,
                limit: GENERAL_REGISTER_COUNT
            })
        );
    }

    #[test]
    fn general_register_display_and_conversions() {
        let r = GReg::new(13).unwrap();
        assert_eq!(r.to_string(), "g13");
        assert_eq!(u8::from(r), 13);
        assert_eq!(GReg::try_from(13u8).unwrap(), r);
        assert!(GReg::try_from(200u8).is_err());
    }

    #[test]
    fn zero_register_is_index_zero() {
        assert_eq!(GReg::ZERO.index(), 0);
    }

    #[test]
    fn special_register_round_trip() {
        for (i, sreg) in SReg::ALL.iter().enumerate() {
            assert_eq!(sreg.index() as usize, i);
            assert_eq!(SReg::from_index(sreg.index()), Some(*sreg));
        }
        assert_eq!(SReg::from_index(100), None);
    }

    #[test]
    fn register_display_covers_both_classes() {
        assert_eq!(Register::from(GReg::ZERO).to_string(), "g0");
        assert_eq!(Register::from(SReg::StageId).to_string(), "s_stage");
    }
}
