use std::fmt;

use crate::format::InstructionFormat;
use crate::IsaError;

/// The five operation classes of the CIMFlow ISA.
///
/// Instructions are categorized into compute, communication and control
/// flow; compute instructions are further specialized for the CIM, vector
/// and scalar compute units (paper Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpcodeClass {
    /// In-memory compute on the CIM macro groups.
    Cim,
    /// Element-wise compute on the vector unit.
    Vector,
    /// Scalar arithmetic and logic for address/loop computation.
    Scalar,
    /// Memory movement and inter-core communication.
    Communication,
    /// Control flow: jumps, branches, barriers, halt.
    Control,
}

impl fmt::Display for OpcodeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl OpcodeClass {
    /// All operation classes in report order.
    pub const ALL: [OpcodeClass; 5] = [
        OpcodeClass::Cim,
        OpcodeClass::Vector,
        OpcodeClass::Scalar,
        OpcodeClass::Communication,
        OpcodeClass::Control,
    ];

    /// The stable lowercase name used in reports and serialized artifacts.
    pub fn name(self) -> &'static str {
        match self {
            OpcodeClass::Cim => "cim",
            OpcodeClass::Vector => "vector",
            OpcodeClass::Scalar => "scalar",
            OpcodeClass::Communication => "communication",
            OpcodeClass::Control => "control",
        }
    }

    /// Parses a class back from its [`Self::name`] (used when
    /// deserializing cached compilation reports).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|class| class.name() == name)
    }
}

/// The 6-bit primary operation specifier of every CIMFlow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Opcode {
    // --- CIM compute -----------------------------------------------------
    /// In-situ matrix-vector multiplication on a macro group.
    CimMvm,
    /// Load a weight tile from local memory into a macro group.
    CimLoad,
    /// Read back the accumulator of a macro group into local memory.
    CimStoreAcc,
    // --- Vector compute ---------------------------------------------------
    /// Element-wise binary/unary vector operation (funct selects the kind).
    VecOp,
    /// Pooling over a window (funct selects max/average).
    VecPool,
    /// Requantize an INT32 accumulator vector back to INT8.
    VecQuant,
    /// Multiply-accumulate a vector into an accumulator buffer.
    VecMac,
    // --- Scalar compute ---------------------------------------------------
    /// Register-register scalar ALU operation (funct selects the kind).
    ScAlu,
    /// Register-immediate scalar ALU operation (funct selects the kind).
    ScAlui,
    /// Load a 16-bit immediate into a general register (clears upper bits).
    ScLi,
    /// Load a 16-bit immediate into the upper half of a general register.
    ScLui,
    /// Read a special register into a general register.
    ScRdSpecial,
    /// Write a general register into a special register.
    ScWrSpecial,
    // --- Communication ----------------------------------------------------
    /// Copy a block within the unified (local + global) address space.
    MemCpy,
    /// Send a block from local memory to another core over the NoC.
    Send,
    /// Receive a block from another core into local memory.
    Recv,
    // --- Control ----------------------------------------------------------
    /// Unconditional relative jump.
    Jmp,
    /// Branch if the two registers are equal.
    Beq,
    /// Branch if the two registers differ.
    Bne,
    /// Chip-wide synchronization barrier.
    Barrier,
    /// Stop execution of the issuing core.
    Halt,
    /// No operation.
    Nop,
    /// A custom instruction registered through the extension template.
    Custom,
}

impl Opcode {
    /// All architectural opcodes in encoding order.
    pub const ALL: [Opcode; 22] = [
        Opcode::CimMvm,
        Opcode::CimLoad,
        Opcode::CimStoreAcc,
        Opcode::VecOp,
        Opcode::VecPool,
        Opcode::VecQuant,
        Opcode::VecMac,
        Opcode::ScAlu,
        Opcode::ScAlui,
        Opcode::ScLi,
        Opcode::ScLui,
        Opcode::ScRdSpecial,
        Opcode::ScWrSpecial,
        Opcode::MemCpy,
        Opcode::Send,
        Opcode::Recv,
        Opcode::Jmp,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Barrier,
        Opcode::Halt,
        Opcode::Nop,
    ];

    /// Returns the 6-bit binary encoding of the opcode.
    pub fn code(self) -> u8 {
        match self {
            Opcode::CimMvm => 0x01,
            Opcode::CimLoad => 0x02,
            Opcode::CimStoreAcc => 0x03,
            Opcode::VecOp => 0x08,
            Opcode::VecPool => 0x09,
            Opcode::VecQuant => 0x0A,
            Opcode::VecMac => 0x0B,
            Opcode::ScAlu => 0x10,
            Opcode::ScAlui => 0x11,
            Opcode::ScLi => 0x12,
            Opcode::ScLui => 0x15,
            Opcode::ScRdSpecial => 0x13,
            Opcode::ScWrSpecial => 0x14,
            Opcode::MemCpy => 0x18,
            Opcode::Send => 0x19,
            Opcode::Recv => 0x1A,
            Opcode::Jmp => 0x20,
            Opcode::Beq => 0x21,
            Opcode::Bne => 0x22,
            Opcode::Barrier => 0x23,
            Opcode::Halt => 0x24,
            Opcode::Nop => 0x00,
            Opcode::Custom => 0x3F,
        }
    }

    /// Decodes the 6-bit opcode field back into an [`Opcode`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownOpcode`] if the value does not correspond
    /// to an architectural or custom opcode.
    pub fn from_code(code: u8) -> Result<Self, IsaError> {
        for op in Self::ALL {
            if op.code() == code {
                return Ok(op);
            }
        }
        if code == Opcode::Custom.code() {
            return Ok(Opcode::Custom);
        }
        Err(IsaError::UnknownOpcode { opcode: code })
    }

    /// Returns the operation class executed by this opcode.
    #[inline]
    pub fn class(self) -> OpcodeClass {
        match self {
            Opcode::CimMvm | Opcode::CimLoad | Opcode::CimStoreAcc => OpcodeClass::Cim,
            Opcode::VecOp | Opcode::VecPool | Opcode::VecQuant | Opcode::VecMac => {
                OpcodeClass::Vector
            }
            Opcode::ScAlu
            | Opcode::ScAlui
            | Opcode::ScLi
            | Opcode::ScLui
            | Opcode::ScRdSpecial
            | Opcode::ScWrSpecial => OpcodeClass::Scalar,
            Opcode::MemCpy | Opcode::Send | Opcode::Recv => OpcodeClass::Communication,
            Opcode::Jmp
            | Opcode::Beq
            | Opcode::Bne
            | Opcode::Barrier
            | Opcode::Halt
            | Opcode::Nop => OpcodeClass::Control,
            Opcode::Custom => OpcodeClass::Vector,
        }
    }

    /// Returns the instruction format used to encode this opcode.
    pub fn format(self) -> InstructionFormat {
        match self {
            Opcode::CimMvm | Opcode::CimLoad | Opcode::CimStoreAcc => InstructionFormat::Cim,
            Opcode::VecOp | Opcode::VecPool | Opcode::VecQuant | Opcode::VecMac => {
                InstructionFormat::Vector
            }
            Opcode::ScAlu => InstructionFormat::ScalarReg,
            Opcode::ScAlui => InstructionFormat::ScalarImm,
            Opcode::ScLi | Opcode::ScLui => InstructionFormat::Control,
            Opcode::ScRdSpecial | Opcode::ScWrSpecial => InstructionFormat::ScalarImm,
            Opcode::MemCpy | Opcode::Send | Opcode::Recv => InstructionFormat::Communication,
            Opcode::Jmp
            | Opcode::Beq
            | Opcode::Bne
            | Opcode::Barrier
            | Opcode::Halt
            | Opcode::Nop => InstructionFormat::Control,
            Opcode::Custom => InstructionFormat::Vector,
        }
    }

    /// Returns the canonical assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::CimMvm => "cim_mvm",
            Opcode::CimLoad => "cim_load",
            Opcode::CimStoreAcc => "cim_store",
            Opcode::VecOp => "vec_op",
            Opcode::VecPool => "vec_pool",
            Opcode::VecQuant => "vec_quant",
            Opcode::VecMac => "vec_mac",
            Opcode::ScAlu => "sc_alu",
            Opcode::ScAlui => "sc_alui",
            Opcode::ScLi => "sc_li",
            Opcode::ScLui => "sc_lui",
            Opcode::ScRdSpecial => "sc_rds",
            Opcode::ScWrSpecial => "sc_wrs",
            Opcode::MemCpy => "mem_cpy",
            Opcode::Send => "send",
            Opcode::Recv => "recv",
            Opcode::Jmp => "jmp",
            Opcode::Beq => "beq",
            Opcode::Bne => "bne",
            Opcode::Barrier => "barrier",
            Opcode::Halt => "halt",
            Opcode::Nop => "nop",
            Opcode::Custom => "custom",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn class_names_round_trip() {
        for class in OpcodeClass::ALL {
            assert_eq!(OpcodeClass::from_name(class.name()), Some(class));
            assert_eq!(class.to_string(), class.name());
        }
        assert_eq!(OpcodeClass::from_name("warp-drive"), None);
    }

    #[test]
    fn opcode_codes_are_unique_and_fit_six_bits() {
        let mut seen = HashSet::new();
        for op in Opcode::ALL {
            assert!(op.code() < 64, "{op} does not fit 6 bits");
            assert!(seen.insert(op.code()), "duplicate code for {op}");
        }
    }

    #[test]
    fn opcode_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_code(op.code()).unwrap(), op);
        }
        assert_eq!(Opcode::from_code(0x3F).unwrap(), Opcode::Custom);
        assert!(Opcode::from_code(0x3E).is_err());
    }

    #[test]
    fn every_class_is_populated() {
        let classes: HashSet<_> = Opcode::ALL.iter().map(|o| o.class()).collect();
        assert_eq!(classes.len(), 5);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = HashSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()));
        }
    }

    #[test]
    fn cim_opcodes_use_cim_format() {
        assert_eq!(Opcode::CimMvm.format(), InstructionFormat::Cim);
        assert_eq!(Opcode::ScLi.format(), InstructionFormat::Control);
        assert_eq!(Opcode::ScAlui.format(), InstructionFormat::ScalarImm);
        assert_eq!(Opcode::Jmp.format(), InstructionFormat::Control);
    }
}
