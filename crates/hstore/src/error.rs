//! Storage-engine error types.
//!
//! Every variant carries the context a caller needs to act on it — the
//! offending file and byte offset for corruption, the row and range for a
//! misrouted request — and the enum implements [`std::error::Error`] +
//! [`std::fmt::Display`] so it composes with `?` and error-reporting
//! crates without adapters.

use crate::block_cache::FileId;
use crate::types::{Family, KeyRange, Qualifier, RowKey};
use std::fmt;

/// Why a checksum mismatch was attributed to stored bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// An HFile block's contents no longer match its stored CRC (bit-rot
    /// on the data path).
    BlockChecksum,
    /// A WAL frame failed its CRC *before* the log tail — mid-log damage
    /// that truncation cannot honestly repair (a torn tail, by contrast,
    /// is expected after a crash and is truncated silently).
    WalRecord,
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionKind::BlockChecksum => f.write_str("block checksum mismatch"),
            CorruptionKind::WalRecord => f.write_str("WAL record checksum mismatch"),
        }
    }
}

/// Errors surfaced by the storage engine and regions.
#[derive(Debug, Clone, PartialEq)]
pub enum HStoreError {
    /// The request addressed a column family the table does not declare.
    UnknownFamily(Family),
    /// The request's row key is outside the region's range — the HBase
    /// `WrongRegionException`, which clients handle by re-consulting the
    /// assignment metadata.
    WrongRegion {
        /// Offending row.
        row: RowKey,
        /// The region's actual range.
        range: KeyRange,
    },
    /// A split was requested at an unusable point (outside the range, at the
    /// range start, or on an empty region).
    BadSplitPoint(String),
    /// Stored bytes failed checksum verification: bit-rot surfaced as a
    /// typed error instead of a silently wrong answer.
    Corruption {
        /// The damaged file (an HFile id, or the WAL's pseudo-file id for
        /// mid-log record damage).
        file: FileId,
        /// Byte offset of the damaged block or record within the file.
        offset: u64,
        /// What kind of checksum failed.
        cause: CorruptionKind,
    },
    /// A WAL sync could not be made durable. A store that cannot
    /// guarantee its write-ahead contract must stop acknowledging writes
    /// (HBase aborts the RegionServer); the put/delete that triggered the
    /// sync has *not* been applied.
    WalSyncFailed {
        /// Index of the active WAL segment.
        segment: u64,
        /// Bytes that were pending in the failed sync.
        pending_bytes: u64,
    },
    /// An increment addressed a cell whose value is not a decimal `i64`
    /// (HBase's "Field is not a long"). The cell is left untouched.
    NotALong {
        /// Row of the offending cell.
        row: RowKey,
        /// Column of the offending cell.
        qualifier: Qualifier,
    },
    /// An increment would take the cell past the `i64` range. The cell is
    /// left untouched.
    IncrementOverflow {
        /// Row of the offending cell.
        row: RowKey,
        /// Column of the offending cell.
        qualifier: Qualifier,
        /// The cell's current value.
        current: i64,
        /// The requested delta.
        delta: i64,
    },
}

impl fmt::Display for HStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HStoreError::UnknownFamily(fam) => write!(f, "unknown column family '{fam}'"),
            HStoreError::WrongRegion { row, range } => {
                write!(f, "row '{row}' outside region range {range}")
            }
            HStoreError::BadSplitPoint(msg) => write!(f, "bad split point: {msg}"),
            HStoreError::Corruption { file, offset, cause } => {
                write!(f, "corruption in file {} at byte offset {offset}: {cause}", file.0)
            }
            HStoreError::WalSyncFailed { segment, pending_bytes } => {
                write!(
                    f,
                    "WAL sync failed on segment {segment} with {pending_bytes} bytes pending; \
                     write not acknowledged"
                )
            }
            HStoreError::NotALong { row, qualifier } => {
                write!(f, "cell '{row}'/'{qualifier}' is not a long; increment refused")
            }
            HStoreError::IncrementOverflow { row, qualifier, current, delta } => {
                write!(
                    f,
                    "incrementing cell '{row}'/'{qualifier}' ({current}) by {delta} overflows"
                )
            }
        }
    }
}

impl std::error::Error for HStoreError {}

/// Former name of [`HStoreError`], kept so existing call sites compile.
pub type StoreError = HStoreError;

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, HStoreError>;
