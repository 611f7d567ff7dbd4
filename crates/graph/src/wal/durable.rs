//! The per-graph durability handle: bootstrap, batch logging,
//! checkpointing with WAL retirement, and crash recovery.
//!
//! A durable directory contains:
//!
//! * `meta.bin` — graph name + the consistent-label byte (always `1`),
//!   written once at [`Durability::create`] (before any other file, so
//!   a recovering process always knows what it is recovering);
//! * `wal-*.seg` — the log segments ([`LogManager`]);
//! * `ckpt-*.mf`, `strings-*.bin`, `shard-*.bin` — checkpoints
//!   ([`super::checkpoint`]).
//!
//! ## Recovery protocol
//!
//! 1. Truncate a torn tail frame off the newest WAL segment.
//! 2. Walk manifests newest-first; restore the first one whose own CRC
//!    *and* every referenced shard/strings file validate. A torn or
//!    half-written manifest is skipped — falling back to the previous
//!    checkpoint — and if none restores, recovery starts from an empty
//!    graph (the bootstrap batch in the WAL rebuilds it).
//! 3. Replay every committed batch with commit LSN > the manifest's
//!    `last_lsn`. Batches without a `Commit` record never apply.
//!
//! Checkpoints retire WAL segments only up to the *older* of the two
//! retained manifests' `last_lsn`, so the fallback in step 2 always has
//! the log suffix it needs.

use std::path::{Path, PathBuf};

use super::checkpoint::{
    gc, load_manifests, read_framed, restore_graph, write_checkpoint, write_framed,
};
use super::log::LogManager;
use super::record::{put_str, put_u32, Reader, WalRecord, CONSISTENT_LABELS};
use super::{CheckpointStats, Lsn, Manifest, WalError, WalResult};
use crate::{ops, GraphOp, OntGraph};

const MAGIC_META: u32 = 0x4F4E_4D45; // "ONME"
const META_FILE: &str = "meta.bin";

/// How many manifests [`Durability`] retains (newest + its fallback).
const KEEP_MANIFESTS: usize = 2;

/// What a [`Durability::open`] recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sequence of the manifest restored from; `None` when recovery
    /// rebuilt purely from the WAL (no usable checkpoint).
    pub manifest_seq: Option<u64>,
    /// The LSN replay resumed after.
    pub checkpoint_lsn: Lsn,
    /// Committed batches replayed on top of the checkpoint.
    pub replayed_batches: usize,
    /// Ops inside those batches.
    pub replayed_ops: usize,
}

/// Durable state handle for one graph.
pub struct Durability {
    dir: PathBuf,
    log: LogManager,
    /// Retained manifests, newest first (≤ [`KEEP_MANIFESTS`]).
    manifests: Vec<Manifest>,
    name: String,
}

fn write_meta(dir: &Path, name: &str) -> WalResult<()> {
    let mut p = Vec::new();
    put_u32(&mut p, MAGIC_META);
    put_str(&mut p, name);
    p.push(CONSISTENT_LABELS);
    write_framed(&dir.join(META_FILE), &p).map(|_| ())
}

fn read_meta(dir: &Path) -> WalResult<String> {
    let path = dir.join(META_FILE);
    let what = path.display().to_string();
    let payload = read_framed(&path).map_err(|e| match e {
        WalError::Io(_) => WalError::Missing(format!("{what} (not a durable directory?)")),
        e => e,
    })?;
    let mut r = Reader::new(&payload, &what);
    if r.u32()? != MAGIC_META {
        return Err(WalError::Corrupt { file: what, detail: "bad meta magic".into() });
    }
    let name = r.str()?;
    r.consistent_labels()?;
    r.expect_end()?;
    Ok(name)
}

impl Durability {
    /// True if `dir` holds durable state (created earlier).
    pub fn has_state(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(META_FILE).exists()
    }

    /// Initialises a fresh durable directory for a graph named `name`.
    pub fn create(dir: impl AsRef<Path>, name: &str) -> WalResult<Durability> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if Self::has_state(&dir) {
            return Err(WalError::Unsupported(format!(
                "{} already holds durable state; use open",
                dir.display()
            )));
        }
        write_meta(&dir, name)?;
        let log = LogManager::open(&dir)?;
        Ok(Durability { dir, log, manifests: Vec::new(), name: name.to_string() })
    }

    /// Recovers the graph from `dir` and reopens the log for appends.
    pub fn open(dir: impl AsRef<Path>) -> WalResult<(OntGraph, Durability, RecoveryStats)> {
        let dir = dir.as_ref().to_path_buf();
        let name = read_meta(&dir)?;
        let log = LogManager::open(&dir)?;
        let mut manifests = load_manifests(&dir)?;
        // Newest manifest whose files all validate wins; the rest of
        // the retained chain starts at it.
        let mut restored: Option<(usize, OntGraph)> = None;
        for (i, m) in manifests.iter().enumerate() {
            match restore_graph(&dir, m) {
                Ok(g) => {
                    restored = Some((i, g));
                    break;
                }
                Err(WalError::Io(e)) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(WalError::Io(e))
                }
                Err(_) => continue,
            }
        }
        let (mut g, manifest_seq, from) = match restored {
            Some((i, g)) => {
                manifests.drain(..i);
                let m = &manifests[0];
                (g, Some(m.seq), m.last_lsn)
            }
            None => {
                manifests.clear();
                (OntGraph::new(name.clone()), None, Lsn::ZERO)
            }
        };
        manifests.truncate(KEEP_MANIFESTS);
        let batches = LogManager::replay(&dir, from)?;
        let mut replayed_ops = 0;
        for batch in &batches {
            replayed_ops += batch.ops.len();
            ops::apply_all(&mut g, &batch.ops)?;
        }
        let stats = RecoveryStats {
            manifest_seq,
            checkpoint_lsn: from,
            replayed_batches: batches.len(),
            replayed_ops,
        };
        onion_obs::count!("onion_recovery_total");
        onion_obs::count!("onion_recovery_replayed_batches_total", stats.replayed_batches);
        onion_obs::count!("onion_recovery_replayed_ops_total", stats.replayed_ops);
        onion_obs::event!(
            "recovery",
            source = name,
            manifest_seq = manifest_seq.unwrap_or(0),
            checkpoint_lsn = from.0,
            replayed_batches = stats.replayed_batches,
            replayed_ops = stats.replayed_ops,
        );
        Ok((g, Durability { dir, log, manifests, name }, stats))
    }

    /// Appends `ops` as one atomic batch (`Begin … Commit`), returning
    /// the commit LSN. Nothing is durable until [`Durability::flush`].
    pub fn log_batch(&mut self, ops: &[GraphOp]) -> Lsn {
        if ops.is_empty() {
            return self.log.last_lsn();
        }
        self.log.append(&WalRecord::Begin);
        for op in ops {
            self.log.append(&WalRecord::Op(op.clone()));
        }
        self.log.append(&WalRecord::Commit)
    }

    /// Group-flushes all buffered records; returns the last durable LSN.
    pub fn flush(&mut self) -> WalResult<Lsn> {
        self.log.flush()
    }

    /// Writes a shard-incremental checkpoint of `g`, covering the log
    /// through `last_lsn`, then retires WAL segments no longer needed
    /// by the retained manifests. Only the shards whose stamp moved
    /// since the previous manifest are encoded and written.
    ///
    /// `g` must be this graph as of the flush that made `last_lsn`
    /// durable: every op it has applied is in the log at or before
    /// `last_lsn`. `OnionSystem::checkpoint_source` publishes (journal
    /// drained into the WAL, WAL flushed) on the line before.
    pub fn checkpoint(&mut self, g: &OntGraph, last_lsn: Lsn) -> WalResult<CheckpointStats> {
        let (manifest, mut stats) =
            write_checkpoint(&self.dir, g, last_lsn, self.manifests.first())?;
        self.log.append(&WalRecord::Checkpoint { manifest_seq: manifest.seq, last_lsn });
        self.log.flush()?;
        self.manifests.insert(0, manifest);
        self.manifests.truncate(KEEP_MANIFESTS);
        gc(&self.dir, &self.manifests)?;
        // Segments are only retired up to the *older* retained
        // manifest's horizon, so a torn-newest-manifest fallback can
        // still replay its full suffix.
        let horizon = self.manifests.last().expect("just inserted").last_lsn;
        stats.wal_segments_retired = self.log.retire(horizon)?;
        Ok(stats)
    }

    /// The newest retained manifest, if any checkpoint was taken.
    pub fn manifest(&self) -> Option<&Manifest> {
        self.manifests.first()
    }

    /// Last LSN handed out (durable or buffered).
    pub fn last_lsn(&self) -> Lsn {
        self.log.last_lsn()
    }

    /// Bytes appended but not yet flushed.
    pub fn unflushed_bytes(&self) -> usize {
        self.log.unflushed_bytes()
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Graph name recorded at [`Durability::create`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current WAL segments (ascending).
    pub fn segments(&self) -> WalResult<Vec<super::SegmentInfo>> {
        self.log.segments()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testdir::TestDir;
    use super::*;

    fn shape(g: &OntGraph) -> (Vec<String>, Vec<(String, String, String)>) {
        let mut nodes: Vec<String> =
            g.node_ids().map(|n| g.node_label(n).unwrap().to_string()).collect();
        nodes.sort();
        let mut edges: Vec<(String, String, String)> = g
            .edges()
            .map(|e| {
                (
                    g.node_label(e.src).unwrap().to_string(),
                    e.label.to_string(),
                    g.node_label(e.dst).unwrap().to_string(),
                )
            })
            .collect();
        edges.sort();
        (nodes, edges)
    }

    /// Applies `ops` to `g` and logs them as one committed batch.
    fn commit(g: &mut OntGraph, dur: &mut Durability, ops: &[GraphOp]) -> Lsn {
        ops::apply_all(g, ops).unwrap();
        let lsn = dur.log_batch(ops);
        dur.flush().unwrap();
        lsn
    }

    #[test]
    fn wal_only_recovery_reproduces_graph() {
        let td = TestDir::new("dur-walonly");
        let mut g = OntGraph::new("src");
        let mut dur = Durability::create(&td.0, "src").unwrap();
        commit(&mut g, &mut dur, &[GraphOp::edge_add("Car", "SubclassOf", "Vehicle")]);
        commit(&mut g, &mut dur, &[GraphOp::node_delete("Car")]);
        drop(dur);

        let (rg, _dur, stats) = Durability::open(&td.0).unwrap();
        assert_eq!(stats.manifest_seq, None);
        assert_eq!(stats.replayed_batches, 2);
        assert_eq!(shape(&rg), shape(&g));
    }

    #[test]
    fn checkpoint_bounds_replay_and_retires_segments() {
        let td = TestDir::new("dur-ckpt");
        let mut g = OntGraph::new("src");
        g.set_shard_count(4);
        let mut dur = Durability::create(&td.0, "src").unwrap();
        commit(&mut g, &mut dur, &[GraphOp::edge_add("A", "s", "B")]);
        let lsn = commit(&mut g, &mut dur, &[GraphOp::edge_add("B", "s", "C")]);
        let s1 = dur.checkpoint(&g, lsn).unwrap();
        assert_eq!(s1.seq, 1);
        let post = commit(&mut g, &mut dur, &[GraphOp::edge_add("C", "s", "D")]);
        assert!(post > lsn);
        drop(dur);

        let (rg, dur, stats) = Durability::open(&td.0).unwrap();
        assert_eq!(stats.manifest_seq, Some(1));
        assert_eq!(stats.checkpoint_lsn, lsn);
        assert_eq!((stats.replayed_batches, stats.replayed_ops), (1, 1));
        assert_eq!(shape(&rg), shape(&g));
        drop(dur);
    }

    #[test]
    fn uncommitted_tail_batch_is_not_replayed() {
        let td = TestDir::new("dur-uncommitted");
        let mut g = OntGraph::new("src");
        let mut dur = Durability::create(&td.0, "src").unwrap();
        commit(&mut g, &mut dur, &[GraphOp::edge_add("A", "s", "B")]);
        // Flushed Begin+Op with no Commit — the crash window between
        // batch start and commit.
        dur.log.append(&WalRecord::Begin);
        dur.log.append(&WalRecord::Op(GraphOp::node_add("Ghost")));
        dur.flush().unwrap();
        drop(dur);

        let (rg, _dur, stats) = Durability::open(&td.0).unwrap();
        assert_eq!(stats.replayed_batches, 1);
        assert!(rg.node_by_label("Ghost").is_none());
        assert_eq!(shape(&rg), shape(&g));
    }

    /// `meta.bin` is read before anything else on open: every
    /// truncation and every single-byte flip of it is an `Err`, never a
    /// panic and never a recovery under another name.
    #[test]
    fn every_truncation_and_byte_flip_of_meta_is_rejected() {
        let td = TestDir::new("dur-meta");
        drop(Durability::create(&td.0, "src").unwrap());
        let path = td.0.join(META_FILE);
        let meta = std::fs::read(&path).unwrap();
        // the frame is `[u32 len][u32 crc32][payload]`, byte for byte
        let mut payload = Vec::new();
        put_u32(&mut payload, MAGIC_META);
        put_str(&mut payload, "src");
        payload.push(1);
        let mut want = Vec::new();
        put_u32(&mut want, payload.len() as u32);
        put_u32(&mut want, crate::wal::crc32(&payload));
        want.extend_from_slice(&payload);
        assert_eq!(meta, want);
        assert_eq!(read_meta(&td.0).unwrap(), "src");
        for cut in 0..meta.len() {
            std::fs::write(&path, &meta[..cut]).unwrap();
            assert!(Durability::open(&td.0).is_err(), "prefix of {cut}/{} bytes", meta.len());
        }
        for pos in 0..meta.len() {
            for xor in 1..=255u8 {
                let mut bytes = meta.clone();
                bytes[pos] ^= xor;
                std::fs::write(&path, &bytes).unwrap();
                assert!(Durability::open(&td.0).is_err(), "byte {pos} ^ {xor:#04x}");
            }
        }
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(Durability::open(&td.0), Err(WalError::Missing(_))));
    }

    /// `meta.bin` re-framed (valid CRC) with its consistent-label byte
    /// set to anything but `1` does not open.
    #[test]
    fn meta_with_a_label_byte_other_than_1_is_rejected() {
        let td = TestDir::new("dur-meta-byte");
        let mut g = OntGraph::new("src");
        let mut dur = Durability::create(&td.0, "src").unwrap();
        commit(&mut g, &mut dur, &[GraphOp::edge_add("A", "s", "B")]);
        drop(dur);
        let path = td.0.join(META_FILE);
        let payload = read_framed(&path).unwrap();
        let label_byte = payload.len() - 1;
        assert_eq!(payload[label_byte], 1);
        for byte in [0u8, 2, 255] {
            let mut bytes = payload.clone();
            bytes[label_byte] = byte;
            write_framed(&path, &bytes).unwrap();
            assert!(
                matches!(read_meta(&td.0), Err(WalError::Corrupt { .. })),
                "byte {byte} reads as corrupt"
            );
            assert!(Durability::open(&td.0).is_err(), "byte {byte} does not open");
        }
        write_framed(&path, &payload).unwrap();
        let (rg, _dur, _) = Durability::open(&td.0).unwrap();
        assert_eq!(shape(&rg), shape(&g));
    }

    #[test]
    fn second_open_after_recovery_is_stable() {
        let td = TestDir::new("dur-reopen");
        let mut g = OntGraph::new("src");
        let mut dur = Durability::create(&td.0, "src").unwrap();
        commit(&mut g, &mut dur, &[GraphOp::edge_add("A", "s", "B")]);
        drop(dur);
        let (rg1, dur1, _) = Durability::open(&td.0).unwrap();
        drop(dur1);
        let (rg2, _dur2, _) = Durability::open(&td.0).unwrap();
        assert_eq!(shape(&rg1), shape(&rg2));
        assert_eq!(shape(&rg1), shape(&g));
    }
}
