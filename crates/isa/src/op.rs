//! Opcodes, instruction formats and operation classes.

use std::fmt;

/// Instruction encoding format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `op ra, rb|#lit, rc` — three-register (or register/literal) ALU form.
    Operate,
    /// `op ra, disp16(rb)` — loads, stores, and the `lda`/`ldah` address ops.
    Memory,
    /// `op ra, disp21` — PC-relative conditional branches, `br`, `bsr`.
    Branch,
    /// `op ra, (rb)` — register-indirect `jmp`/`jsr`/`ret`.
    Jump,
    /// `halt`, `nop`, `outb`, `outq`.
    System,
}

/// Functional-unit class of an operation.
///
/// This is the classification the paper's power model (Table 4) and
/// packing rules key on: arithmetic and compares run on the carry-lookahead
/// adder, logical operations on the bit-wise unit, shifts on the shifter,
/// multiplies/divides on the Booth multiplier, and memory/branch
/// operations use the adder for effective-address computation or compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Add/subtract/compare — uses the adder.
    IntArith,
    /// Bit-wise logical operations.
    Logic,
    /// Shift operations.
    Shift,
    /// Integer multiply.
    Mult,
    /// Integer divide/remainder.
    Div,
    /// Memory load (adder computes the effective address).
    Load,
    /// Memory store (adder computes the effective address).
    Store,
    /// PC-relative branch (adder performs the compare).
    Branch,
    /// Register-indirect jump.
    Jump,
    /// Halt / nop / output.
    System,
}

impl OpClass {
    /// True for classes that execute on an integer ALU and produce a
    /// register result subject to the paper's width analysis (Figure 4's
    /// arithmetic / logical / shift / multiply breakdown).
    pub fn is_width_analyzed(self) -> bool {
        matches!(
            self,
            OpClass::IntArith | OpClass::Logic | OpClass::Shift | OpClass::Mult | OpClass::Div
        )
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntArith => "arith",
            OpClass::Logic => "logic",
            OpClass::Shift => "shift",
            OpClass::Mult => "mult",
            OpClass::Div => "div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Jump => "jump",
            OpClass::System => "system",
        };
        f.write_str(s)
    }
}

macro_rules! opcodes {
    ($( $variant:ident = $code:literal, $mnemonic:literal, $format:ident, $class:ident; )*) => {
        /// Machine opcodes.
        ///
        /// The set is Alpha-flavoured: quadword (64-bit) and longword
        /// (sign-extending 32-bit) arithmetic, register/8-bit-literal ALU
        /// forms, displacement addressing and PC-relative branches.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $(
                #[doc = concat!("`", $mnemonic, "`")]
                $variant = $code,
            )*
        }

        impl Opcode {
            /// All opcodes, in encoding order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$variant),*];

            /// The 6-bit encoding of this opcode.
            pub const fn code(self) -> u8 {
                self as u8
            }

            /// Decodes a 6-bit opcode field.
            pub fn from_code(code: u8) -> Option<Opcode> {
                match code {
                    $( $code => Some(Opcode::$variant), )*
                    _ => None,
                }
            }

            /// The assembly mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self {
                    $( Opcode::$variant => $mnemonic, )*
                }
            }

            /// Parses a mnemonic (case-insensitive).
            pub fn from_mnemonic(s: &str) -> Option<Opcode> {
                let lower = s.to_ascii_lowercase();
                match lower.as_str() {
                    $( $mnemonic => Some(Opcode::$variant), )*
                    _ => None,
                }
            }

            /// The encoding format of this opcode.
            #[inline]
            pub const fn format(self) -> Format {
                match self {
                    $( Opcode::$variant => Format::$format, )*
                }
            }

            /// The functional-unit class of this opcode.
            #[inline]
            pub const fn class(self) -> OpClass {
                match self {
                    $( Opcode::$variant => OpClass::$class, )*
                }
            }
        }
    };
}

opcodes! {
    // Quadword arithmetic.
    Addq = 0x00, "addq", Operate, IntArith;
    Subq = 0x01, "subq", Operate, IntArith;
    // Longword (32-bit, sign-extending) arithmetic.
    Addl = 0x02, "addl", Operate, IntArith;
    Subl = 0x03, "subl", Operate, IntArith;
    // Compares (results are 0/1).
    Cmpeq = 0x04, "cmpeq", Operate, IntArith;
    Cmplt = 0x05, "cmplt", Operate, IntArith;
    Cmple = 0x06, "cmple", Operate, IntArith;
    Cmpult = 0x07, "cmpult", Operate, IntArith;
    Cmpule = 0x08, "cmpule", Operate, IntArith;
    // Logical.
    And = 0x09, "and", Operate, Logic;
    Bis = 0x0a, "bis", Operate, Logic;
    Xor = 0x0b, "xor", Operate, Logic;
    Bic = 0x0c, "bic", Operate, Logic;
    Ornot = 0x0d, "ornot", Operate, Logic;
    Eqv = 0x0e, "eqv", Operate, Logic;
    Sextb = 0x0f, "sextb", Operate, Logic;
    Sextw = 0x10, "sextw", Operate, Logic;
    // Shifts.
    Sll = 0x11, "sll", Operate, Shift;
    Srl = 0x12, "srl", Operate, Shift;
    Sra = 0x13, "sra", Operate, Shift;
    // Multiply / divide.
    Mulq = 0x14, "mulq", Operate, Mult;
    Mull = 0x15, "mull", Operate, Mult;
    Divq = 0x16, "divq", Operate, Div;
    Remq = 0x17, "remq", Operate, Div;
    // Address arithmetic (memory format, executes on the adder).
    Lda = 0x18, "lda", Memory, IntArith;
    Ldah = 0x19, "ldah", Memory, IntArith;
    // Loads.
    Ldq = 0x1a, "ldq", Memory, Load;
    Ldl = 0x1b, "ldl", Memory, Load;
    Ldwu = 0x1c, "ldwu", Memory, Load;
    Ldbu = 0x1d, "ldbu", Memory, Load;
    // Stores.
    Stq = 0x1e, "stq", Memory, Store;
    Stl = 0x1f, "stl", Memory, Store;
    Stw = 0x20, "stw", Memory, Store;
    Stb = 0x21, "stb", Memory, Store;
    // Branches.
    Br = 0x22, "br", Branch, Branch;
    Bsr = 0x23, "bsr", Branch, Branch;
    Beq = 0x24, "beq", Branch, Branch;
    Bne = 0x25, "bne", Branch, Branch;
    Blt = 0x26, "blt", Branch, Branch;
    Ble = 0x27, "ble", Branch, Branch;
    Bgt = 0x28, "bgt", Branch, Branch;
    Bge = 0x29, "bge", Branch, Branch;
    Blbc = 0x2a, "blbc", Branch, Branch;
    Blbs = 0x2b, "blbs", Branch, Branch;
    // Jumps.
    Jmp = 0x2c, "jmp", Jump, Jump;
    Jsr = 0x2d, "jsr", Jump, Jump;
    Ret = 0x2e, "ret", Jump, Jump;
    // Conditional moves (three-source: the old destination value is an
    // input). Class IntArith: the compare runs on the adder.
    Cmoveq = 0x33, "cmoveq", Operate, IntArith;
    Cmovne = 0x34, "cmovne", Operate, IntArith;
    Cmovlt = 0x35, "cmovlt", Operate, IntArith;
    Cmovge = 0x36, "cmovge", Operate, IntArith;
    // System.
    Halt = 0x2f, "halt", System, System;
    Nop = 0x30, "nop", System, System;
    Outb = 0x31, "outb", System, System;
    Outq = 0x32, "outq", System, System;
}

impl Opcode {
    /// True for conditional branches (direction depends on a register).
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        matches!(
            self,
            Opcode::Beq
                | Opcode::Bne
                | Opcode::Blt
                | Opcode::Ble
                | Opcode::Bgt
                | Opcode::Bge
                | Opcode::Blbc
                | Opcode::Blbs
        )
    }

    /// True for any control-transfer instruction.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(self.format(), Format::Branch | Format::Jump)
    }

    /// True for calls (push the return-address stack).
    #[inline]
    pub fn is_call(self) -> bool {
        matches!(self, Opcode::Bsr | Opcode::Jsr)
    }

    /// True for returns (pop the return-address stack).
    #[inline]
    pub fn is_return(self) -> bool {
        self == Opcode::Ret
    }

    /// True for conditional moves, whose destination register is also a
    /// source (the move may not happen).
    #[inline]
    pub fn is_cmov(self) -> bool {
        matches!(
            self,
            Opcode::Cmoveq | Opcode::Cmovne | Opcode::Cmovlt | Opcode::Cmovge
        )
    }

    /// True for loads.
    #[inline]
    pub fn is_load(self) -> bool {
        self.class() == OpClass::Load
    }

    /// True for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        self.class() == OpClass::Store
    }

    /// True when the operation writes a register result.
    pub fn writes_register(self) -> bool {
        match self.format() {
            Format::Operate | Format::Memory => !self.is_store(),
            // br/bsr and jumps write the return-address register.
            Format::Branch => matches!(self, Opcode::Br | Opcode::Bsr),
            Format::Jump => true,
            Format::System => false,
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

    #[test]
    fn codes_round_trip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_code(op.code()), Some(op));
        }
    }

    #[test]
    fn mnemonics_round_trip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn codes_are_unique_and_fit_six_bits() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(op.code() < 64, "{op} exceeds the 6-bit opcode field");
            assert!(seen.insert(op.code()), "duplicate code for {op}");
        }
    }

    #[test]
    fn unknown_code_rejected() {
        assert_eq!(Opcode::from_code(0x3f), None);
    }

    #[test]
    fn class_assignments() {
        assert_eq!(Opcode::Addq.class(), OpClass::IntArith);
        assert_eq!(Opcode::Lda.class(), OpClass::IntArith);
        assert_eq!(Opcode::And.class(), OpClass::Logic);
        assert_eq!(Opcode::Sll.class(), OpClass::Shift);
        assert_eq!(Opcode::Mulq.class(), OpClass::Mult);
        assert_eq!(Opcode::Ldq.class(), OpClass::Load);
        assert_eq!(Opcode::Stb.class(), OpClass::Store);
        assert_eq!(Opcode::Beq.class(), OpClass::Branch);
        assert_eq!(Opcode::Ret.class(), OpClass::Jump);
    }

    #[test]
    fn cmov_flags() {
        assert!(Opcode::Cmoveq.is_cmov());
        assert!(Opcode::Cmovge.is_cmov());
        assert!(!Opcode::Addq.is_cmov());
        assert_eq!(Opcode::Cmovne.class(), OpClass::IntArith);
        assert!(Opcode::Cmovlt.writes_register());
    }

    #[test]
    fn control_and_call_flags() {
        assert!(Opcode::Beq.is_cond_branch());
        assert!(!Opcode::Br.is_cond_branch());
        assert!(Opcode::Br.is_control());
        assert!(Opcode::Jsr.is_call());
        assert!(Opcode::Bsr.is_call());
        assert!(Opcode::Ret.is_return());
        assert!(!Opcode::Addq.is_control());
    }

    #[test]
    fn register_write_flags() {
        assert!(Opcode::Addq.writes_register());
        assert!(Opcode::Ldq.writes_register());
        assert!(Opcode::Lda.writes_register());
        assert!(!Opcode::Stq.writes_register());
        assert!(Opcode::Bsr.writes_register());
        assert!(!Opcode::Beq.writes_register());
        assert!(Opcode::Ret.writes_register());
        assert!(!Opcode::Halt.writes_register());
    }

    #[test]
    fn width_analyzed_classes() {
        assert!(OpClass::IntArith.is_width_analyzed());
        assert!(OpClass::Mult.is_width_analyzed());
        assert!(!OpClass::Load.is_width_analyzed());
        assert!(!OpClass::Branch.is_width_analyzed());
    }
}
