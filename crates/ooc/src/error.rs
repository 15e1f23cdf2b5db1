//! Typed errors for the out-of-core subsystem.

use stencil_core::PlanError;

/// Everything that can go wrong opening a store or streaming through
/// it.
#[derive(Debug)]
pub enum OocError {
    /// An underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a slab store.
    BadMagic,
    /// The store was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A header field holds a value no store writes (a `surface` other
    /// than 0 or 1): the header is corrupt.
    BadHeader {
        /// The field's name in the header layout ([`crate::store`]).
        field: &'static str,
        /// The value found.
        found: u64,
    },
    /// The file is shorter than its header promises — an interrupted
    /// create, or external truncation.
    Truncated {
        /// Bytes the header-declared shape requires.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The store's dirty flag is set: a previous run died mid-pass, so
    /// the payload mixes rounds and must not be resumed silently.
    Crashed {
        /// Last committed round (steps fully applied to the clean
        /// surface before the crash).
        round: u64,
    },
    /// The memory budget cannot hold even the minimal streaming window
    /// (smallest legal slab span plus the pingpong/prefetch buffers).
    BudgetTooSmall {
        /// The configured budget in bytes.
        budget: usize,
        /// The smallest workable budget for this plan/domain in bytes.
        needed: usize,
    },
    /// The plan is not eligible for bit-exact slab streaming (see
    /// [`crate::streamable`]).
    UnsupportedPlan {
        /// Why the plan was refused.
        reason: &'static str,
    },
    /// Plan execution failed inside a window.
    Plan(PlanError),
    /// Another live handle holds the named store at this path (see
    /// [`crate::store`]): it was neither truncated nor rolled back.
    Busy {
        /// The store's path.
        path: std::path::PathBuf,
    },
}

impl OocError {
    /// True for failures worth retrying at a higher level: the
    /// OS-level "try again" IO family (including injected failpoint
    /// errors, which are classified the same way). Structural errors —
    /// bad magic, truncation, unsupported plans — are never transient.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for OocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store io error: {e}"),
            Self::BadMagic => write!(f, "not a slab store (bad magic)"),
            Self::BadVersion { found } => {
                write!(f, "unsupported slab store version {found}")
            }
            Self::BadHeader { field, found } => {
                write!(f, "corrupt slab store header: {field} = {found}")
            }
            Self::Truncated { expected, found } => write!(
                f,
                "slab store truncated: header promises {expected} bytes, file has {found}"
            ),
            Self::Crashed { round } => write!(
                f,
                "slab store is dirty: a previous run died mid-pass (last committed round {round})"
            ),
            Self::BudgetTooSmall { budget, needed } => write!(
                f,
                "memory budget {budget} B cannot hold the minimal streaming window ({needed} B needed)"
            ),
            Self::UnsupportedPlan { reason } => {
                write!(f, "plan not streamable: {reason}")
            }
            Self::Plan(e) => write!(f, "plan execution failed: {e}"),
            Self::Busy { path } => {
                write!(f, "slab store {} is held by another handle", path.display())
            }
        }
    }
}

impl std::error::Error for OocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OocError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<PlanError> for OocError {
    fn from(e: PlanError) -> Self {
        Self::Plan(e)
    }
}
