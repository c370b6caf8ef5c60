//! General-purpose registers.

/// A 64-bit general-purpose register.
///
/// The set mirrors x86-64's sixteen GPRs. The discriminant doubles as a
/// dense index into register files.
///
/// # Examples
///
/// ```
/// use tet_isa::Reg;
/// assert_eq!(Reg::Rax as usize, 0);
/// assert_eq!(Reg::ALL.len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // the registers are self-describing
pub enum Reg {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rsp,
    Rbp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// All sixteen registers, in index order.
    pub const ALL: &'static [Reg] = &[
        Reg::Rax,
        Reg::Rbx,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rsi,
        Reg::Rdi,
        Reg::Rsp,
        Reg::Rbp,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// The register's conventional lower-case assembly name.
    pub const fn name(self) -> &'static str {
        match self {
            Reg::Rax => "rax",
            Reg::Rbx => "rbx",
            Reg::Rcx => "rcx",
            Reg::Rdx => "rdx",
            Reg::Rsi => "rsi",
            Reg::Rdi => "rdi",
            Reg::Rsp => "rsp",
            Reg::Rbp => "rbp",
            Reg::R8 => "r8",
            Reg::R9 => "r9",
            Reg::R10 => "r10",
            Reg::R11 => "r11",
            Reg::R12 => "r12",
            Reg::R13 => "r13",
            Reg::R14 => "r14",
            Reg::R15 => "r15",
        }
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A committed architectural register file.
///
/// # Examples
///
/// ```
/// use tet_isa::{reg::RegFile, Reg};
///
/// let mut rf = RegFile::new();
/// rf.set(Reg::Rbx, 0xdead_beef);
/// assert_eq!(rf.get(Reg::Rbx), 0xdead_beef);
/// assert_eq!(rf.get(Reg::Rax), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegFile {
    vals: [u64; 16],
}

impl RegFile {
    /// Creates a register file with every register zeroed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a register.
    #[inline]
    pub fn get(&self, r: Reg) -> u64 {
        self.vals[r as usize]
    }

    /// Writes a register.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u64) {
        self.vals[r as usize] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(*r as usize, i);
        }
    }

    #[test]
    fn names_match_convention() {
        assert_eq!(Reg::Rax.to_string(), "rax");
        assert_eq!(Reg::R15.to_string(), "r15");
    }

    #[test]
    fn regfile_roundtrip() {
        let mut rf = RegFile::new();
        for (i, r) in Reg::ALL.iter().enumerate() {
            rf.set(*r, i as u64 * 7);
        }
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(rf.get(*r), i as u64 * 7);
        }
    }
}
