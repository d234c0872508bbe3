use std::fmt;

use crate::opcode::{Opcode, OpcodeClass};
use crate::register::{GReg, SReg};

/// Element-wise operations executed by the vector compute unit.
///
/// The kind is carried in the 6-bit `funct` field of the vector format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum VectorOpKind {
    /// `dst[i] = a[i] + b[i]` (saturating INT32 accumulate).
    Add,
    /// `dst[i] = a[i] - b[i]`.
    Sub,
    /// `dst[i] = a[i] * b[i]`.
    Mul,
    /// `dst[i] = max(a[i], b[i])`.
    Max,
    /// `dst[i] = min(a[i], b[i])`.
    Min,
    /// Rectified linear unit: `dst[i] = max(a[i], 0)`.
    Relu,
    /// ReLU clipped at 6 (used by MobileNet-family models).
    Relu6,
    /// Hard-swish activation (EfficientNet / MobileNetV3 family).
    HardSwish,
    /// Logistic sigmoid approximation (squeeze-and-excitation gates).
    Sigmoid,
    /// Plain copy from source to destination.
    Copy,
    /// Multiply by a per-tensor scalar held in the `b` register.
    Scale,
}

impl VectorOpKind {
    /// All vector operation kinds in funct-encoding order.
    pub const ALL: [VectorOpKind; 11] = [
        VectorOpKind::Add,
        VectorOpKind::Sub,
        VectorOpKind::Mul,
        VectorOpKind::Max,
        VectorOpKind::Min,
        VectorOpKind::Relu,
        VectorOpKind::Relu6,
        VectorOpKind::HardSwish,
        VectorOpKind::Sigmoid,
        VectorOpKind::Copy,
        VectorOpKind::Scale,
    ];

    /// Returns the funct-field encoding of the kind.
    pub fn funct(self) -> u8 {
        self as u8
    }

    /// Decodes a funct value back into the kind.
    pub fn from_funct(funct: u8) -> Option<Self> {
        Self::ALL.get(usize::from(funct)).copied()
    }

    /// Whether the operation reads a second source operand.
    pub fn is_binary(self) -> bool {
        matches!(
            self,
            VectorOpKind::Add
                | VectorOpKind::Sub
                | VectorOpKind::Mul
                | VectorOpKind::Max
                | VectorOpKind::Min
                | VectorOpKind::Scale
        )
    }

    /// Canonical lowercase mnemonic suffix.
    pub fn name(self) -> &'static str {
        match self {
            VectorOpKind::Add => "add",
            VectorOpKind::Sub => "sub",
            VectorOpKind::Mul => "mul",
            VectorOpKind::Max => "max",
            VectorOpKind::Min => "min",
            VectorOpKind::Relu => "relu",
            VectorOpKind::Relu6 => "relu6",
            VectorOpKind::HardSwish => "hswish",
            VectorOpKind::Sigmoid => "sigmoid",
            VectorOpKind::Copy => "copy",
            VectorOpKind::Scale => "scale",
        }
    }
}

impl fmt::Display for VectorOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Window-pooling variants executed by the vector unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PoolKind {
    /// Maximum pooling.
    Max,
    /// Average pooling.
    Average,
}

impl PoolKind {
    /// Returns the funct encoding of the pooling kind.
    pub fn funct(self) -> u8 {
        match self {
            PoolKind::Max => 0,
            PoolKind::Average => 1,
        }
    }

    /// Decodes a funct value back into the pooling kind.
    pub fn from_funct(funct: u8) -> Option<Self> {
        match funct {
            0 => Some(PoolKind::Max),
            1 => Some(PoolKind::Average),
            _ => None,
        }
    }
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolKind::Max => f.write_str("max"),
            PoolKind::Average => f.write_str("avg"),
        }
    }
}

/// Operations of the scalar arithmetic/logic unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ScalarAluOp {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Multiplication (low 32 bits).
    Mul,
    /// Signed division (rounds towards zero, divide-by-zero yields zero).
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Set to one if less-than (signed), else zero.
    Slt,
}

impl ScalarAluOp {
    /// All scalar ALU operations in funct-encoding order.
    pub const ALL: [ScalarAluOp; 11] = [
        ScalarAluOp::Add,
        ScalarAluOp::Sub,
        ScalarAluOp::Mul,
        ScalarAluOp::Div,
        ScalarAluOp::Rem,
        ScalarAluOp::And,
        ScalarAluOp::Or,
        ScalarAluOp::Xor,
        ScalarAluOp::Sll,
        ScalarAluOp::Srl,
        ScalarAluOp::Slt,
    ];

    /// Returns the funct encoding of the operation.
    pub fn funct(self) -> u8 {
        self as u8
    }

    /// Decodes a funct value back into the operation.
    pub fn from_funct(funct: u8) -> Option<Self> {
        Self::ALL.get(usize::from(funct)).copied()
    }

    /// Evaluates the operation on two 32-bit signed operands.
    ///
    /// Division and remainder by zero return zero, matching the simulator's
    /// hardware model (no traps).
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            ScalarAluOp::Add => a.wrapping_add(b),
            ScalarAluOp::Sub => a.wrapping_sub(b),
            ScalarAluOp::Mul => a.wrapping_mul(b),
            ScalarAluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            ScalarAluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            ScalarAluOp::And => a & b,
            ScalarAluOp::Or => a | b,
            ScalarAluOp::Xor => a ^ b,
            ScalarAluOp::Sll => ((a as u32) << (b as u32 & 31)) as i32,
            ScalarAluOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
            ScalarAluOp::Slt => i32::from(a < b),
        }
    }

    /// Canonical lowercase mnemonic suffix.
    pub fn name(self) -> &'static str {
        match self {
            ScalarAluOp::Add => "add",
            ScalarAluOp::Sub => "sub",
            ScalarAluOp::Mul => "mul",
            ScalarAluOp::Div => "div",
            ScalarAluOp::Rem => "rem",
            ScalarAluOp::And => "and",
            ScalarAluOp::Or => "or",
            ScalarAluOp::Xor => "xor",
            ScalarAluOp::Sll => "sll",
            ScalarAluOp::Srl => "srl",
            ScalarAluOp::Slt => "slt",
        }
    }
}

impl fmt::Display for ScalarAluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed CIMFlow instruction.
///
/// This is the representation shared by the compiler's code generator, the
/// assembler and the simulator. Every variant corresponds to exactly one
/// 32-bit encoding produced by [`crate::encode`] and recovered by
/// [`crate::decode`].
///
/// Address operands are registers holding byte addresses in the unified
/// address space (local memory at low addresses, global memory above the
/// global base); length operands are registers holding element counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Instruction {
    /// In-situ matrix-vector multiplication on macro group `mg`.
    ///
    /// Reads `rows` input elements starting at the local address in
    /// `input`, multiplies them by the weight tile resident in the macro
    /// group, and accumulates into the INT32 accumulator buffer addressed
    /// by `output`.
    CimMvm {
        /// Register holding the local byte address of the input vector.
        input: GReg,
        /// Register holding the number of activated rows.
        rows: GReg,
        /// Register holding the local byte address of the accumulator tile.
        output: GReg,
        /// Macro-group index within the core's CIM compute unit (0..63).
        mg: u8,
    },
    /// Load a weight tile from local memory into macro group `mg`.
    CimLoad {
        /// Register holding the local byte address of the packed weight tile.
        weights: GReg,
        /// Register holding the number of weight rows to program.
        rows: GReg,
        /// Destination macro-group index (0..63).
        mg: u8,
    },
    /// Drain the INT32 accumulator of macro group `mg` to local memory.
    CimStoreAcc {
        /// Register holding the destination local byte address.
        output: GReg,
        /// Register holding the number of accumulator lanes to store.
        len: GReg,
        /// Source macro-group index (0..63).
        mg: u8,
    },
    /// Element-wise vector operation.
    VecOp {
        /// Operation kind (funct field).
        kind: VectorOpKind,
        /// Register addressing the first source vector.
        a: GReg,
        /// Register addressing the second source vector (ignored by unary kinds).
        b: GReg,
        /// Register addressing the destination vector.
        dst: GReg,
        /// Register holding the element count.
        len: GReg,
    },
    /// Window pooling.
    VecPool {
        /// Pooling kind (funct field).
        kind: PoolKind,
        /// Register addressing the source window.
        src: GReg,
        /// Register addressing the destination vector.
        dst: GReg,
        /// Register holding the pooling window size (elements per output).
        window: GReg,
        /// Register holding the number of output elements.
        len: GReg,
    },
    /// Requantize an INT32 accumulator vector to INT8.
    VecQuant {
        /// Register addressing the INT32 source vector.
        src: GReg,
        /// Register addressing the INT8 destination vector.
        dst: GReg,
        /// Register holding the fixed-point requantization shift.
        shift: GReg,
        /// Register holding the element count.
        len: GReg,
    },
    /// Multiply-accumulate a vector into an accumulator buffer.
    VecMac {
        /// Register addressing the source vector.
        src: GReg,
        /// Register addressing the accumulator buffer (read-modify-write).
        acc: GReg,
        /// Register holding the per-tensor multiplier.
        scale: GReg,
        /// Register holding the element count.
        len: GReg,
    },
    /// Register-register scalar ALU operation: `dst = a <op> b`.
    ScAlu {
        /// Operation kind (funct field).
        op: ScalarAluOp,
        /// Destination register.
        dst: GReg,
        /// First source register.
        a: GReg,
        /// Second source register.
        b: GReg,
    },
    /// Register-immediate scalar ALU operation: `dst = src <op> imm`.
    ScAlui {
        /// Operation kind (funct field).
        op: ScalarAluOp,
        /// Destination register.
        dst: GReg,
        /// Source register.
        src: GReg,
        /// Sign-extended 10-bit immediate.
        imm: i16,
    },
    /// Load a zero-extended 16-bit immediate: `dst = imm`.
    ScLi {
        /// Destination register.
        dst: GReg,
        /// 16-bit immediate value.
        imm: u16,
    },
    /// Load the upper 16 bits: `dst = (imm << 16) | (dst & 0xFFFF)`.
    ScLui {
        /// Destination register.
        dst: GReg,
        /// 16-bit immediate placed in the upper half.
        imm: u16,
    },
    /// Read special register `sreg` into `dst`.
    ScRdSpecial {
        /// Destination general register.
        dst: GReg,
        /// Source special register.
        sreg: SReg,
    },
    /// Write general register `src` into special register `sreg`.
    ScWrSpecial {
        /// Destination special register.
        sreg: SReg,
        /// Source general register.
        src: GReg,
    },
    /// Copy `len` bytes from `src + offset` to `dst` in the unified address
    /// space; crossing the global-memory base triggers NoC traffic.
    MemCpy {
        /// Register holding the source byte address.
        src: GReg,
        /// Register holding the destination byte address.
        dst: GReg,
        /// Register holding the transfer size in bytes.
        len: GReg,
        /// Signed byte offset added to the source address (11-bit field).
        offset: i16,
    },
    /// Send `len` bytes at local address `addr` to core `dst_core`.
    Send {
        /// Register holding the local source byte address.
        addr: GReg,
        /// Register holding the transfer size in bytes.
        len: GReg,
        /// Register holding the destination core identifier.
        dst_core: GReg,
        /// Match tag pairing this send with the remote receive (11-bit field).
        tag: u16,
    },
    /// Receive `len` bytes from core `src_core` into local address `addr`.
    Recv {
        /// Register holding the local destination byte address.
        addr: GReg,
        /// Register holding the transfer size in bytes.
        len: GReg,
        /// Register holding the source core identifier.
        src_core: GReg,
        /// Match tag pairing this receive with the remote send (11-bit field).
        tag: u16,
    },
    /// Unconditional relative jump by `offset` instructions.
    Jmp {
        /// Signed instruction offset relative to the next instruction.
        offset: i32,
    },
    /// Branch by `offset` instructions if `a == b`.
    Beq {
        /// First comparison register.
        a: GReg,
        /// Second comparison register.
        b: GReg,
        /// Signed instruction offset relative to the next instruction.
        offset: i32,
    },
    /// Branch by `offset` instructions if `a != b`.
    Bne {
        /// First comparison register.
        a: GReg,
        /// Second comparison register.
        b: GReg,
        /// Signed instruction offset relative to the next instruction.
        offset: i32,
    },
    /// Chip-wide synchronization barrier with identifier `id`.
    Barrier {
        /// Barrier identifier; all cores must reach the same identifier.
        id: u16,
    },
    /// Stop the issuing core.
    Halt,
    /// No operation.
    Nop,
}

impl Instruction {
    /// Returns the opcode of the instruction.
    #[inline]
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::CimMvm { .. } => Opcode::CimMvm,
            Instruction::CimLoad { .. } => Opcode::CimLoad,
            Instruction::CimStoreAcc { .. } => Opcode::CimStoreAcc,
            Instruction::VecOp { .. } => Opcode::VecOp,
            Instruction::VecPool { .. } => Opcode::VecPool,
            Instruction::VecQuant { .. } => Opcode::VecQuant,
            Instruction::VecMac { .. } => Opcode::VecMac,
            Instruction::ScAlu { .. } => Opcode::ScAlu,
            Instruction::ScAlui { .. } => Opcode::ScAlui,
            Instruction::ScLi { .. } => Opcode::ScLi,
            Instruction::ScLui { .. } => Opcode::ScLui,
            Instruction::ScRdSpecial { .. } => Opcode::ScRdSpecial,
            Instruction::ScWrSpecial { .. } => Opcode::ScWrSpecial,
            Instruction::MemCpy { .. } => Opcode::MemCpy,
            Instruction::Send { .. } => Opcode::Send,
            Instruction::Recv { .. } => Opcode::Recv,
            Instruction::Jmp { .. } => Opcode::Jmp,
            Instruction::Beq { .. } => Opcode::Beq,
            Instruction::Bne { .. } => Opcode::Bne,
            Instruction::Barrier { .. } => Opcode::Barrier,
            Instruction::Halt => Opcode::Halt,
            Instruction::Nop => Opcode::Nop,
        }
    }

    /// Returns the operation class (execution unit family) of the instruction.
    #[inline]
    pub fn class(&self) -> OpcodeClass {
        self.opcode().class()
    }

    /// Returns the general registers read by this instruction.
    pub fn uses(&self) -> Vec<GReg> {
        match *self {
            Instruction::CimMvm { input, rows, output, .. } => vec![input, rows, output],
            Instruction::CimLoad { weights, rows, .. } => vec![weights, rows],
            Instruction::CimStoreAcc { output, len, .. } => vec![output, len],
            Instruction::VecOp { kind, a, b, dst, len } => {
                if kind.is_binary() {
                    vec![a, b, dst, len]
                } else {
                    vec![a, dst, len]
                }
            }
            Instruction::VecPool { src, dst, window, len, .. } => vec![src, dst, window, len],
            Instruction::VecQuant { src, dst, shift, len } => vec![src, dst, shift, len],
            Instruction::VecMac { src, acc, scale, len } => vec![src, acc, scale, len],
            Instruction::ScAlu { a, b, .. } => vec![a, b],
            Instruction::ScAlui { src, .. } => vec![src],
            Instruction::ScLi { .. } => vec![],
            Instruction::ScLui { dst, .. } => vec![dst],
            Instruction::ScRdSpecial { .. } => vec![],
            Instruction::ScWrSpecial { src, .. } => vec![src],
            Instruction::MemCpy { src, dst, len, .. } => vec![src, dst, len],
            Instruction::Send { addr, len, dst_core, .. } => vec![addr, len, dst_core],
            Instruction::Recv { addr, len, src_core, .. } => vec![addr, len, src_core],
            Instruction::Jmp { .. } => vec![],
            Instruction::Beq { a, b, .. } | Instruction::Bne { a, b, .. } => vec![a, b],
            Instruction::Barrier { .. } | Instruction::Halt | Instruction::Nop => vec![],
        }
    }

    /// Returns the general registers written by this instruction.
    pub fn defs(&self) -> Vec<GReg> {
        match *self {
            Instruction::ScAlu { dst, .. }
            | Instruction::ScAlui { dst, .. }
            | Instruction::ScLi { dst, .. }
            | Instruction::ScLui { dst, .. }
            | Instruction::ScRdSpecial { dst, .. } => vec![dst],
            _ => vec![],
        }
    }

    /// Whether the instruction can change the program counter.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instruction::Jmp { .. }
                | Instruction::Beq { .. }
                | Instruction::Bne { .. }
                | Instruction::Halt
        )
    }

    /// Whether the instruction has externally visible effects beyond
    /// register writes (memory, NoC, CIM state, synchronization).
    pub fn has_side_effects(&self) -> bool {
        !matches!(self.class(), OpcodeClass::Scalar)
            || matches!(self, Instruction::ScWrSpecial { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::CimMvm { input, rows, output, mg } => {
                write!(f, "cim_mvm {input}, {rows}, {output}, mg={mg}")
            }
            Instruction::CimLoad { weights, rows, mg } => {
                write!(f, "cim_load {weights}, {rows}, mg={mg}")
            }
            Instruction::CimStoreAcc { output, len, mg } => {
                write!(f, "cim_store {output}, {len}, mg={mg}")
            }
            Instruction::VecOp { kind, a, b, dst, len } => {
                write!(f, "vec_{kind} {a}, {b}, {dst}, {len}")
            }
            Instruction::VecPool { kind, src, dst, window, len } => {
                write!(f, "vec_pool_{kind} {src}, {dst}, {window}, {len}")
            }
            Instruction::VecQuant { src, dst, shift, len } => {
                write!(f, "vec_quant {src}, {dst}, {shift}, {len}")
            }
            Instruction::VecMac { src, acc, scale, len } => {
                write!(f, "vec_mac {src}, {acc}, {scale}, {len}")
            }
            Instruction::ScAlu { op, dst, a, b } => write!(f, "sc_{op} {dst}, {a}, {b}"),
            Instruction::ScAlui { op, dst, src, imm } => {
                write!(f, "sc_{op}i {dst}, {src}, {imm}")
            }
            Instruction::ScLi { dst, imm } => write!(f, "sc_li {dst}, {imm}"),
            Instruction::ScLui { dst, imm } => write!(f, "sc_lui {dst}, {imm}"),
            Instruction::ScRdSpecial { dst, sreg } => write!(f, "sc_rds {dst}, {sreg}"),
            Instruction::ScWrSpecial { sreg, src } => write!(f, "sc_wrs {sreg}, {src}"),
            Instruction::MemCpy { src, dst, len, offset } => {
                write!(f, "mem_cpy {src}, {dst}, {len}, {offset}")
            }
            Instruction::Send { addr, len, dst_core, tag } => {
                write!(f, "send {addr}, {len}, {dst_core}, tag={tag}")
            }
            Instruction::Recv { addr, len, src_core, tag } => {
                write!(f, "recv {addr}, {len}, {src_core}, tag={tag}")
            }
            Instruction::Jmp { offset } => write!(f, "jmp {offset}"),
            Instruction::Beq { a, b, offset } => write!(f, "beq {a}, {b}, {offset}"),
            Instruction::Bne { a, b, offset } => write!(f, "bne {a}, {b}, {offset}"),
            Instruction::Barrier { id } => write!(f, "barrier {id}"),
            Instruction::Halt => f.write_str("halt"),
            Instruction::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u8) -> GReg {
        GReg::new(i).unwrap()
    }

    #[test]
    fn vector_op_kind_funct_round_trip() {
        for kind in VectorOpKind::ALL {
            assert_eq!(VectorOpKind::from_funct(kind.funct()), Some(kind));
        }
        assert_eq!(VectorOpKind::from_funct(60), None);
    }

    #[test]
    fn scalar_alu_funct_round_trip() {
        for op in ScalarAluOp::ALL {
            assert_eq!(ScalarAluOp::from_funct(op.funct()), Some(op));
        }
        assert_eq!(ScalarAluOp::from_funct(63), None);
    }

    #[test]
    fn scalar_alu_eval_basics() {
        assert_eq!(ScalarAluOp::Add.eval(3, 4), 7);
        assert_eq!(ScalarAluOp::Sub.eval(3, 4), -1);
        assert_eq!(ScalarAluOp::Mul.eval(-3, 4), -12);
        assert_eq!(ScalarAluOp::Div.eval(9, 2), 4);
        assert_eq!(ScalarAluOp::Div.eval(9, 0), 0);
        assert_eq!(ScalarAluOp::Rem.eval(9, 0), 0);
        assert_eq!(ScalarAluOp::Rem.eval(9, 4), 1);
        assert_eq!(ScalarAluOp::Slt.eval(1, 2), 1);
        assert_eq!(ScalarAluOp::Slt.eval(2, 1), 0);
        assert_eq!(ScalarAluOp::Sll.eval(1, 4), 16);
        assert_eq!(ScalarAluOp::Srl.eval(16, 4), 1);
        assert_eq!(ScalarAluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(ScalarAluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(ScalarAluOp::Xor.eval(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn pool_kind_round_trip() {
        assert_eq!(PoolKind::from_funct(PoolKind::Max.funct()), Some(PoolKind::Max));
        assert_eq!(PoolKind::from_funct(PoolKind::Average.funct()), Some(PoolKind::Average));
        assert_eq!(PoolKind::from_funct(9), None);
    }

    #[test]
    fn defs_and_uses_reflect_dataflow() {
        let mvm = Instruction::CimMvm { input: g(1), rows: g(2), output: g(3), mg: 0 };
        assert!(mvm.defs().is_empty());
        assert_eq!(mvm.uses(), vec![g(1), g(2), g(3)]);

        let alu = Instruction::ScAlu { op: ScalarAluOp::Add, dst: g(5), a: g(1), b: g(2) };
        assert_eq!(alu.defs(), vec![g(5)]);
        assert_eq!(alu.uses(), vec![g(1), g(2)]);

        let unary =
            Instruction::VecOp { kind: VectorOpKind::Relu, a: g(1), b: g(9), dst: g(2), len: g(3) };
        assert!(!unary.uses().contains(&g(9)), "unary vector op must not depend on b");
    }

    #[test]
    fn lui_reads_its_own_destination() {
        let lui = Instruction::ScLui { dst: g(4), imm: 10 };
        assert_eq!(lui.uses(), vec![g(4)]);
        assert_eq!(lui.defs(), vec![g(4)]);
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instruction::Jmp { offset: -3 }.is_control_flow());
        assert!(Instruction::Halt.is_control_flow());
        assert!(!Instruction::Nop.is_control_flow());
        assert!(!Instruction::Barrier { id: 1 }.is_control_flow());
    }

    #[test]
    fn side_effect_classification() {
        assert!(
            Instruction::CimMvm { input: g(1), rows: g(2), output: g(3), mg: 0 }.has_side_effects()
        );
        assert!(!Instruction::ScLi { dst: g(1), imm: 5 }.has_side_effects());
        assert!(
            Instruction::ScWrSpecial { sreg: SReg::MacroGroupSelect, src: g(1) }.has_side_effects()
        );
        assert!(Instruction::Barrier { id: 0 }.has_side_effects());
    }

    #[test]
    fn display_is_stable() {
        let i = Instruction::CimMvm { input: g(7), rows: g(10), output: g(9), mg: 3 };
        assert_eq!(i.to_string(), "cim_mvm g7, g10, g9, mg=3");
        assert_eq!(Instruction::Nop.to_string(), "nop");
        assert_eq!(
            Instruction::ScAlui { op: ScalarAluOp::Add, dst: g(2), src: g(2), imm: 1 }.to_string(),
            "sc_addi g2, g2, 1"
        );
    }
}
