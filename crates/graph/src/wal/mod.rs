//! Durability: write-ahead log, shard-incremental checkpoints, recovery.
//!
//! The op journal ([`crate::GraphOp`]) was always half of a write-ahead
//! log; this module is the other half. Three pieces compose:
//!
//! * [`LogManager`] — an append-only log of LSN-stamped, CRC-framed
//!   records (`Begin` / `Op` / `Commit` / `Checkpoint`) in rotating
//!   segment files. Appends buffer in memory and hit disk on
//!   [`LogManager::flush`] (group flush — the durable layer flushes at
//!   publish/commit boundaries, not per record). On reopen, a torn tail
//!   record is truncated; only batches closed by a `Commit` replay.
//! * the checkpointer ([`Manifest`], [`CheckpointStats`]) —
//!   **shard-incremental** checkpoints of the live graph at a flush
//!   boundary. The graph's per-shard version stamps tell the
//!   checkpointer exactly which shards changed since the last
//!   checkpoint, so it encodes and writes only those (each owned slot's
//!   label and out-edge row, read straight from the graph) plus a small
//!   manifest `{graph_id, shard_count, per-shard stamp, last_lsn}`.
//! * [`Durability`] — the per-graph handle tying the two together:
//!   bootstrap, batch logging, checkpointing with WAL-segment
//!   retirement, and crash recovery (newest valid manifest, restore,
//!   replay committed WAL suffix; a torn manifest falls back to the
//!   previous checkpoint).
//!
//! Ops are journaled and replayed **label-addressed** (the paper's §3
//! convention for consistent ontologies: a label names at most one live
//! node), so recovery reproduces the graph up to node-id renaming —
//! every label-level observation (nodes, edge triples, traversals,
//! articulation) is byte-identical.

mod checkpoint;
mod crc;
mod durable;
mod log;
mod record;

pub use checkpoint::{CheckpointStats, Manifest};
pub use durable::{Durability, RecoveryStats};
pub use log::{CommittedBatch, LogManager, SegmentInfo};
pub use record::{decode_op, encode_op, WalRecord};

pub(crate) use crc::crc32;

use crate::GraphError;

/// A log sequence number. LSN 0 is reserved as "before the first
/// record": replaying from [`Lsn::ZERO`] replays the whole log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The "replay everything" origin.
    pub const ZERO: Lsn = Lsn(0);
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// Errors from the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A frame, segment, or checkpoint file failed validation.
    Corrupt {
        /// File (or context) the corruption was found in.
        file: String,
        /// What failed.
        detail: String,
    },
    /// The durable directory is missing a required file.
    Missing(String),
    /// The durable operation does not apply here (e.g. creating over a
    /// directory that already holds durable state).
    Unsupported(String),
    /// Replaying a committed op against the restored graph failed —
    /// the log and checkpoint disagree.
    Replay(GraphError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { file, detail } => {
                write!(f, "corrupt wal state in {file}: {detail}")
            }
            WalError::Missing(what) => write!(f, "missing durable state: {what}"),
            WalError::Unsupported(what) => write!(f, "durability unsupported: {what}"),
            WalError::Replay(e) => write!(f, "wal replay diverged from checkpoint: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<GraphError> for WalError {
    fn from(e: GraphError) -> Self {
        WalError::Replay(e)
    }
}

/// Specialised result for the durability layer.
pub type WalResult<T> = std::result::Result<T, WalError>;

#[cfg(test)]
pub(crate) mod testdir {
    //! Minimal unique tempdir for in-crate WAL unit tests. The shared
    //! helper lives in `onion_testkit::fs` (which depends on this
    //! crate, so it cannot be used from here without a dev-dep cycle).
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    pub(crate) struct TestDir(pub PathBuf);

    impl TestDir {
        pub(crate) fn new(tag: &str) -> Self {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "onion-wal-{}-{}-{}",
                tag,
                std::process::id(),
                n
            ));
            std::fs::create_dir_all(&dir).expect("create test dir");
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
