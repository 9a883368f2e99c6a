//! A small assembler with labels and branch relaxation.
//!
//! The encoding offers one-byte jumps only for short forward
//! displacements (2–9 bytes), so jump sizes depend on layout, which
//! depends on jump sizes. [`Assembler::assemble`] resolves this with
//! the standard optimistic fixpoint: start every jump at its shortest
//! form and grow any that do not fit until the layout stabilises.
//! Growth is monotone, so the loop terminates.

use std::fmt;

use crate::instr::Instr;

/// A forward-declarable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Assembly errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(Label),
    /// A label was bound twice.
    ReboundLabel(Label),
    /// A jump displacement exceeded the 16-bit word form.
    JumpOutOfRange {
        /// The displacement that did not fit.
        displacement: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label #{} was never bound", l.0),
            AsmError::ReboundLabel(l) => write!(f, "label #{} bound twice", l.0),
            AsmError::JumpOutOfRange { displacement } => {
                write!(f, "jump displacement {displacement} exceeds 16 bits")
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    Fixed(Instr),
    /// `raw[at..at + len]` of the assembler's raw-byte pool.
    Raw {
        at: usize,
        len: usize,
    },
    Bind(Label),
    Branch {
        kind: BranchKind,
        target: Label,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchKind {
    Jump,
    JumpZero,
    JumpNotZero,
}

impl BranchKind {
    fn instr(self, disp: i32) -> Instr {
        match self {
            BranchKind::Jump => Instr::Jump(disp),
            BranchKind::JumpZero => Instr::JumpZero(disp),
            BranchKind::JumpNotZero => Instr::JumpNotZero(disp),
        }
    }

    fn min_len(self) -> usize {
        match self {
            // One-byte forms exist for J and JZ; JNZ starts at two.
            BranchKind::Jump | BranchKind::JumpZero => 1,
            BranchKind::JumpNotZero => 2,
        }
    }
}

/// The result of assembly: final bytes plus label positions.
#[derive(Debug, Clone)]
pub struct Assembled {
    /// The encoded program.
    pub bytes: Vec<u8>,
    offsets: Vec<Option<u32>>,
}

impl Assembled {
    /// Byte offset at which `label` was bound.
    ///
    /// # Panics
    ///
    /// Panics if the label belongs to a different assembler (out of
    /// range); unbound labels are caught by `assemble`.
    pub fn offset_of(&self, label: Label) -> u32 {
        self.offsets[label.0].expect("label bound (checked during assembly)")
    }
}

/// Builds byte code from instructions, raw data and labelled branches.
///
/// # Example
///
/// ```
/// use fpc_isa::{Assembler, Instr};
///
/// let mut a = Assembler::new();
/// let done = a.label();
/// a.instr(Instr::LoadLocal(0));
/// a.jump_zero(done);           // relaxed to a one-byte JZ form
/// a.instr(Instr::LoadImm(1));
/// a.instr(Instr::Out);
/// a.bind(done);
/// a.instr(Instr::Halt);
/// let out = a.assemble().unwrap();
/// assert_eq!(out.offset_of(done), out.bytes.len() as u32 - 1);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    items: Vec<Item>,
    /// Every raw byte appended, in order; `Item::Raw` slices it.
    raw: Vec<u8>,
    labels: usize,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels += 1;
        Label(self.labels - 1)
    }

    /// Binds `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        self.items.push(Item::Bind(label));
    }

    /// Appends a non-branch instruction.
    ///
    /// # Panics
    ///
    /// Panics if given a jump — use [`Assembler::jump`] and friends so
    /// displacements go through relaxation.
    pub fn instr(&mut self, i: Instr) {
        assert!(
            !matches!(
                i,
                Instr::Jump(_) | Instr::JumpZero(_) | Instr::JumpNotZero(_)
            ),
            "use the labelled jump methods for branches"
        );
        self.items.push(Item::Fixed(i));
    }

    /// Appends raw bytes (procedure headers, tables).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.items.push(Item::Raw {
            at: self.raw.len(),
            len: bytes.len(),
        });
        self.raw.extend_from_slice(bytes);
    }

    /// Appends an unconditional jump to `target`.
    pub fn jump(&mut self, target: Label) {
        self.items.push(Item::Branch {
            kind: BranchKind::Jump,
            target,
        });
    }

    /// Appends a pop-and-jump-if-zero to `target`.
    pub fn jump_zero(&mut self, target: Label) {
        self.items.push(Item::Branch {
            kind: BranchKind::JumpZero,
            target,
        });
    }

    /// Appends a pop-and-jump-if-not-zero to `target`.
    pub fn jump_not_zero(&mut self, target: Label) {
        self.items.push(Item::Branch {
            kind: BranchKind::JumpNotZero,
            target,
        });
    }

    /// Number of items appended so far (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Assembles to final bytes, relaxing branches to their shortest
    /// encodings.
    ///
    /// # Errors
    ///
    /// [`AsmError::UnboundLabel`] if a referenced label was never
    /// bound, [`AsmError::ReboundLabel`] for duplicate binds, and
    /// [`AsmError::JumpOutOfRange`] if a displacement cannot fit even
    /// the word form.
    pub fn assemble(self) -> Result<Assembled, AsmError> {
        // Branch sizes, optimistic start.
        let mut sizes: Vec<usize> = self
            .items
            .iter()
            .map(|it| match it {
                Item::Fixed(i) => i.encoded_len(),
                Item::Raw { len, .. } => *len,
                Item::Bind(_) => 0,
                Item::Branch { kind, .. } => kind.min_len(),
            })
            .collect();

        let mut label_offsets: Vec<Option<u32>> = vec![None; self.labels];
        loop {
            // Lay out with current sizes.
            for o in label_offsets.iter_mut() {
                *o = None;
            }
            let mut pos = 0u32;
            for (item, size) in self.items.iter().zip(&sizes) {
                if let Item::Bind(l) = item {
                    if label_offsets[l.0].is_some() {
                        return Err(AsmError::ReboundLabel(*l));
                    }
                    label_offsets[l.0] = Some(pos);
                }
                pos += *size as u32;
            }
            // Grow branches that no longer fit.
            let mut changed = false;
            let mut pos = 0i64;
            for (idx, item) in self.items.iter().enumerate() {
                if let Item::Branch { kind, target } = item {
                    let t = label_offsets[target.0].ok_or(AsmError::UnboundLabel(*target))?;
                    let disp = t as i64 - pos;
                    if i16::try_from(disp).is_err() {
                        return Err(AsmError::JumpOutOfRange { displacement: disp });
                    }
                    let need = kind.instr(disp as i32).encoded_len();
                    if need > sizes[idx] {
                        sizes[idx] = need;
                        changed = true;
                    }
                }
                pos += sizes[idx] as i64;
            }
            if !changed {
                break;
            }
        }

        // Emit.
        let mut bytes = Vec::with_capacity(sizes.iter().sum());
        for (idx, item) in self.items.iter().enumerate() {
            match item {
                Item::Fixed(i) => {
                    i.encode(&mut bytes);
                }
                Item::Raw { at, len } => bytes.extend_from_slice(&self.raw[*at..at + len]),
                Item::Bind(_) => {}
                Item::Branch { kind, target } => {
                    let t = label_offsets[target.0].unwrap() as i64;
                    let disp = (t - bytes.len() as i64) as i32;
                    let i = kind.instr(disp);
                    // A shorter form than reserved may fit after other
                    // branches grew; pad with NOOPs to keep the layout
                    // (labels were computed against `sizes`).
                    let start = bytes.len();
                    i.encode(&mut bytes);
                    while bytes.len() - start < sizes[idx] {
                        Instr::Noop.encode(&mut bytes);
                    }
                    debug_assert_eq!(bytes.len() - start, sizes[idx]);
                }
            }
        }
        Ok(Assembled {
            bytes,
            offsets: label_offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::decode;

    fn listing(bytes: &[u8]) -> Vec<(usize, Instr)> {
        let mut out = Vec::new();
        let mut pc = 0;
        while pc < bytes.len() {
            let (i, len) = decode(bytes, pc).unwrap();
            out.push((pc, i));
            pc += len;
        }
        out
    }

    #[test]
    fn short_forward_jump_gets_one_byte_form() {
        let mut a = Assembler::new();
        let end = a.label();
        a.jump(end);
        a.instr(Instr::Noop);
        a.bind(end);
        a.instr(Instr::Halt);
        let out = a.assemble().unwrap();
        // J +2, NOOP, HALT = 3 bytes.
        assert_eq!(out.bytes.len(), 3);
        assert_eq!(listing(&out.bytes)[0].1, Instr::Jump(2));
    }

    #[test]
    fn long_forward_jump_grows() {
        let mut a = Assembler::new();
        let end = a.label();
        a.jump(end);
        for _ in 0..100 {
            a.instr(Instr::Noop);
        }
        a.bind(end);
        a.instr(Instr::Halt);
        let out = a.assemble().unwrap();
        let l = listing(&out.bytes);
        assert_eq!(l[0].1, Instr::Jump(102)); // 2-byte JB + 100 noops
        assert_eq!(out.offset_of(end), 102);
    }

    #[test]
    fn backward_jump_is_negative() {
        let mut a = Assembler::new();
        let top = a.label();
        a.bind(top);
        a.instr(Instr::Noop);
        a.jump(top);
        let out = a.assemble().unwrap();
        let l = listing(&out.bytes);
        assert_eq!(l[1].1, Instr::Jump(-1));
    }

    #[test]
    fn word_sized_jump_when_needed() {
        let mut a = Assembler::new();
        let end = a.label();
        a.jump(end);
        for _ in 0..300 {
            a.instr(Instr::Noop);
        }
        a.bind(end);
        let out = a.assemble().unwrap();
        assert_eq!(listing(&out.bytes)[0].1, Instr::Jump(303));
    }

    #[test]
    fn chained_short_jumps_stay_short() {
        // Two jumps whose shortness depends on each other staying
        // short: each hops over one NOOP.
        let mut a = Assembler::new();
        let l1 = a.label();
        let l2 = a.label();
        a.jump(l1); // +2 if short
        a.instr(Instr::Noop);
        a.bind(l1);
        a.jump(l2); // +2 if short
        a.instr(Instr::Noop);
        a.bind(l2);
        a.instr(Instr::Halt);
        let out = a.assemble().unwrap();
        // J2, NOOP, J2, NOOP, HALT
        assert_eq!(out.bytes.len(), 5);
        assert_eq!(listing(&out.bytes)[0].1, Instr::Jump(2));
        assert_eq!(listing(&out.bytes)[2].1, Instr::Jump(2));
    }

    #[test]
    fn jump_to_next_instruction_needs_two_bytes() {
        // Displacement 1 is not encodable in a one-byte form (minimum
        // +2), so the branch grows and lands on +2 with a NOOP pad.
        let mut a = Assembler::new();
        let next = a.label();
        a.jump(next);
        a.bind(next);
        a.instr(Instr::Halt);
        let out = a.assemble().unwrap();
        assert_eq!(out.bytes.len(), 3); // J2 + NOOP pad + HALT
        assert_eq!(out.offset_of(next), 2);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Assembler::new();
        let l = a.label();
        a.jump(l);
        assert_eq!(a.assemble().unwrap_err(), AsmError::UnboundLabel(l));
    }

    #[test]
    fn rebound_label_is_an_error() {
        let mut a = Assembler::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
        assert_eq!(a.assemble().unwrap_err(), AsmError::ReboundLabel(l));
    }

    #[test]
    fn out_of_range_jump_is_an_error() {
        let mut a = Assembler::new();
        let end = a.label();
        a.jump(end);
        a.raw(&vec![0x6C /* NOOP */; 40_000]);
        a.bind(end);
        assert!(matches!(
            a.assemble().unwrap_err(),
            AsmError::JumpOutOfRange { .. }
        ));
    }

    #[test]
    fn raw_bytes_pass_through() {
        let mut a = Assembler::new();
        a.raw(&[1, 2, 3]);
        let l = a.label();
        a.bind(l);
        a.instr(Instr::Halt);
        let out = a.assemble().unwrap();
        assert_eq!(&out.bytes[..3], &[1, 2, 3]);
        assert_eq!(out.offset_of(l), 3);
    }

    #[test]
    #[should_panic(expected = "labelled jump")]
    fn raw_jump_instr_rejected() {
        let mut a = Assembler::new();
        a.instr(Instr::Jump(4));
    }

    #[test]
    fn conditional_jumps_relax_too() {
        let mut a = Assembler::new();
        let end = a.label();
        a.instr(Instr::LoadImm(0));
        a.jump_zero(end);
        a.instr(Instr::Noop);
        a.bind(end);
        a.instr(Instr::Halt);
        let out = a.assemble().unwrap();
        // LI0(1) + JZ+2(1) + NOOP(1) + HALT(1)
        assert_eq!(out.bytes.len(), 4);
        assert_eq!(listing(&out.bytes)[1].1, Instr::JumpZero(2));
    }
}
