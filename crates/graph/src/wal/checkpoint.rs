//! Shard-incremental checkpoints of the live graph.
//!
//! A checkpoint encodes an [`OntGraph`] straight from its slots and
//! out-edge rows, taken under `&mut` at a flush boundary, so nothing
//! moves under it. Shard files are named by `(graph_id, shard index,
//! version stamp)`, so a shard whose stamp is unchanged since the
//! previous checkpoint ([`OntGraph::shard_unchanged_since`]) is simply
//! re-referenced by the new manifest instead of rewritten. The
//! invariant: a manifest with `last_lsn = L` plus replay of every
//! committed batch with commit LSN `> L` reconstructs exactly the
//! checkpointed graph, because the graph was written at the flush that
//! made `L` durable, with nothing unflushed in its journal.
//!
//! On-disk layout (all files CRC-framed like WAL records —
//! `[u32 len][u32 crc][payload]`):
//!
//! * `ckpt-{seq:020}.mf` — the manifest: `{magic, format version, seq,
//!   graph name, consistent-label byte (always 1), graph_id, 8 epoch
//!   bytes (written as 0, ignored on read), shard_count, last_lsn,
//!   per-shard version stamps}`. Written to a temp file, synced, then
//!   renamed — the rename is the checkpoint's commit point; a torn
//!   manifest is skipped at recovery, falling back to the previous one.
//! * `strings-{seq:020}.bin` — the graph's interner (label table).
//! * `shard-{graph_id:016x}-{idx:05}-v{version:020}.bin` — one shard:
//!   per-slot labels plus out-edge rows, for the slots `n` with
//!   `n % shard_count == idx`. In-edges are not stored; restore
//!   re-derives them (edge insertion maintains both directions).
//!
//! The two newest manifests are retained (so the newest can always be
//! abandoned for its predecessor); everything unreferenced is GC'd.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use super::record::{put_str, put_u32, put_u64, Reader, CONSISTENT_LABELS};
use super::{crc32, Lsn, WalError, WalResult};
use crate::{LabelId, NodeId, OntGraph};

const MAGIC_MANIFEST: u32 = 0x4F4E_4D46; // "ONMF"
const MAGIC_STRINGS: u32 = 0x4F4E_5354; // "ONST"
const MAGIC_SHARD: u32 = 0x4F4E_5348; // "ONSH"
const FORMAT_VERSION: u32 = 1;

/// Sentinel for a dead / never-used node slot in a shard file.
const DEAD_SLOT: u32 = u32::MAX;

/// A durably committed checkpoint description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotone checkpoint sequence number.
    pub seq: u64,
    /// Graph name.
    pub name: String,
    /// Identity of the graph the shard stamps belong to. Process-local:
    /// a recovered graph gets a fresh id, so the first checkpoint after
    /// recovery is a full one by construction.
    pub graph_id: u64,
    /// Shard count of the checkpointed graph.
    pub shard_count: usize,
    /// Replay resumes after this committed LSN.
    pub last_lsn: Lsn,
    /// Per-shard version stamps — the incremental-reuse key.
    pub shard_versions: Vec<u64>,
}

impl Manifest {
    pub(crate) fn manifest_file(seq: u64) -> String {
        format!("ckpt-{seq:020}.mf")
    }

    pub(crate) fn strings_file(&self) -> String {
        format!("strings-{:020}.bin", self.seq)
    }

    pub(crate) fn shard_file(&self, s: usize) -> String {
        format!("shard-{:016x}-{:05}-v{:020}.bin", self.graph_id, s, self.shard_versions[s])
    }

    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u32(&mut p, MAGIC_MANIFEST);
        put_u32(&mut p, FORMAT_VERSION);
        put_u64(&mut p, self.seq);
        put_str(&mut p, &self.name);
        p.push(CONSISTENT_LABELS);
        put_u64(&mut p, self.graph_id);
        put_u64(&mut p, 0); // epoch bytes: kept in the format, unused
        put_u32(&mut p, self.shard_count as u32);
        put_u64(&mut p, self.last_lsn.0);
        put_u32(&mut p, self.shard_versions.len() as u32);
        for &v in &self.shard_versions {
            put_u64(&mut p, v);
        }
        p
    }

    fn decode(payload: &[u8], what: &str) -> WalResult<Manifest> {
        let mut r = Reader::new(payload, what);
        let corrupt =
            |detail: &str| WalError::Corrupt { file: what.to_string(), detail: detail.to_string() };
        if r.u32()? != MAGIC_MANIFEST {
            return Err(corrupt("bad manifest magic"));
        }
        if r.u32()? != FORMAT_VERSION {
            return Err(corrupt("unknown manifest format version"));
        }
        let seq = r.u64()?;
        let name = r.str()?;
        r.consistent_labels()?;
        let graph_id = r.u64()?;
        r.u64()?; // epoch bytes: any value is accepted and ignored
        let shard_count = r.u32()? as usize;
        let last_lsn = Lsn(r.u64()?);
        let n = r.count(8)?;
        if n != shard_count {
            return Err(corrupt("shard version count != shard count"));
        }
        let mut shard_versions = Vec::with_capacity(n);
        for _ in 0..n {
            shard_versions.push(r.u64()?);
        }
        r.expect_end()?;
        Ok(Manifest { seq, name, graph_id, shard_count, last_lsn, shard_versions })
    }
}

/// What one checkpoint did — the exact-accounting surface the
/// incremental invariant is asserted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Manifest sequence number written.
    pub seq: u64,
    /// Shards serialized to disk this checkpoint.
    pub shards_written: usize,
    /// Shards re-referenced from the previous checkpoint.
    pub shards_reused: usize,
    /// Payload bytes written (shards + strings + manifest).
    pub bytes_written: u64,
    /// Committed LSN the checkpoint covers.
    pub last_lsn: Lsn,
    /// WAL segments deleted after the checkpoint committed (filled in
    /// by [`super::Durability`]; 0 from the raw writer).
    pub wal_segments_retired: usize,
}

// ---------------------------------------------------------------------
// framed file io
// ---------------------------------------------------------------------

/// Writes `payload` as one whole-file frame, `[u32 len][u32 crc32]
/// [payload]`, and fsyncs it. Returns the bytes written.
pub(super) fn write_framed(path: &Path, payload: &[u8]) -> WalResult<u64> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    let mut f = File::create(path)?;
    f.write_all(&out)?;
    f.sync_all()?;
    Ok(out.len() as u64)
}

/// Reads a [`write_framed`] file back, checking its length and CRC.
pub(super) fn read_framed(path: &Path) -> WalResult<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let what = path.display().to_string();
    let corrupt = |detail: String| WalError::Corrupt { file: what.clone(), detail };
    if bytes.len() < 8 {
        return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if bytes.len() != 8 + len {
        return Err(corrupt(format!("frame length {len} != file length {}", bytes.len() - 8)));
    }
    let payload = bytes.split_off(8);
    if crc32(&payload) != crc {
        return Err(corrupt("crc mismatch".into()));
    }
    Ok(payload)
}

/// Fsyncs the directory so renames/creates within it are durable.
fn sync_dir(dir: &Path) -> WalResult<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

// ---------------------------------------------------------------------
// shard / strings serialization
// ---------------------------------------------------------------------

/// Number of arena slots shard `shard` of `count` owns under `cap`
/// total slots (slot `n` belongs to shard `n % count`).
#[inline]
fn owned_slots(cap: usize, shard: usize, count: usize) -> usize {
    if cap > shard {
        (cap - shard - 1) / count + 1
    } else {
        0
    }
}

fn encode_strings(g: &OntGraph) -> Vec<u8> {
    let interner = g.interner();
    let mut p = Vec::new();
    put_u32(&mut p, MAGIC_STRINGS);
    put_u32(&mut p, interner.len() as u32);
    for i in 0..interner.len() {
        put_str(&mut p, interner.resolve(LabelId(i as u32)));
    }
    p
}

fn decode_strings(payload: &[u8], what: &str) -> WalResult<Vec<String>> {
    let mut r = Reader::new(payload, what);
    if r.u32()? != MAGIC_STRINGS {
        return Err(WalError::Corrupt { file: what.into(), detail: "bad strings magic".into() });
    }
    let n = r.count(4)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.str()?);
    }
    r.expect_end()?;
    Ok(v)
}

/// Shard `s` of `g`: each owned slot's label id (`DEAD_SLOT` for a
/// tombstone or a never-used slot), then each slot's out-edge row in
/// adjacency order (a tombstone's row is empty).
fn encode_shard(g: &OntGraph, s: usize) -> Vec<u8> {
    let count = g.shard_count();
    let owned = owned_slots(g.node_capacity(), s, count);
    let slot = |local: usize| NodeId((s + local * count) as u32);
    let mut p = Vec::new();
    put_u32(&mut p, MAGIC_SHARD);
    put_u32(&mut p, s as u32);
    put_u32(&mut p, count as u32);
    put_u64(&mut p, g.shard_version(s));
    put_u32(&mut p, owned as u32);
    for local in 0..owned {
        put_u32(&mut p, g.node_label_id(slot(local)).map_or(DEAD_SLOT, |lid| lid.index() as u32));
    }
    for local in 0..owned {
        let n = slot(local);
        put_u32(&mut p, g.out_degree(n) as u32);
        for (_, lid, dst) in g.out_edge_entries(n) {
            put_u32(&mut p, lid.index() as u32);
            put_u32(&mut p, dst.index() as u32);
        }
    }
    p
}

/// A decoded shard file: per-slot labels and out-edge rows, all as raw
/// u32 indexes into the checkpoint's strings table / global slot space.
struct ShardDump {
    labels: Vec<u32>,
    rows: Vec<Vec<(u32, u32)>>,
}

fn decode_shard(
    payload: &[u8],
    what: &str,
    idx: usize,
    count: usize,
    version: u64,
) -> WalResult<ShardDump> {
    let mut r = Reader::new(payload, what);
    let corrupt = |detail: String| WalError::Corrupt { file: what.to_string(), detail };
    if r.u32()? != MAGIC_SHARD {
        return Err(corrupt("bad shard magic".into()));
    }
    if (r.u32()? as usize, r.u32()? as usize, r.u64()?) != (idx, count, version) {
        return Err(corrupt("shard header disagrees with manifest".into()));
    }
    let slots = r.count(4)?;
    let mut labels = Vec::with_capacity(slots);
    for _ in 0..slots {
        labels.push(r.u32()?);
    }
    let mut rows = Vec::with_capacity(slots);
    for _ in 0..slots {
        let n = r.count(8)?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push((r.u32()?, r.u32()?));
        }
        rows.push(row);
    }
    r.expect_end()?;
    Ok(ShardDump { labels, rows })
}

// ---------------------------------------------------------------------
// checkpoint write / load / restore / gc
// ---------------------------------------------------------------------

/// Writes a checkpoint of `g` into `dir`, reusing every shard file
/// whose version stamp is unchanged since `prev`. The rename of the
/// manifest is the commit point.
pub(crate) fn write_checkpoint(
    dir: &Path,
    g: &OntGraph,
    last_lsn: Lsn,
    prev: Option<&Manifest>,
) -> WalResult<(Manifest, CheckpointStats)> {
    let seq = prev.map(|m| m.seq + 1).unwrap_or(1);
    let manifest = Manifest {
        seq,
        name: g.name().to_string(),
        graph_id: g.graph_id(),
        shard_count: g.shard_count(),
        last_lsn,
        shard_versions: g.shard_stamps().to_vec(),
    };
    // A shard is reusable only when the previous *committed* manifest
    // references the same (graph_id, version) — trusting arbitrary
    // same-named files on disk would resurrect torn writes from a
    // crashed checkpoint.
    let mut written = 0usize;
    let mut reused = 0usize;
    let mut bytes = 0u64;
    for s in 0..manifest.shard_count {
        let reusable = prev.is_some_and(|p| {
            g.shard_unchanged_since(p.graph_id, &p.shard_versions, s)
                && dir.join(p.shard_file(s)).exists()
        });
        if reusable {
            reused += 1;
        } else {
            bytes += write_framed(&dir.join(manifest.shard_file(s)), &encode_shard(g, s))?;
            written += 1;
        }
    }
    bytes += write_framed(&dir.join(manifest.strings_file()), &encode_strings(g))?;
    // Commit point: temp + sync + rename + dir sync.
    let commit_start = onion_obs::enabled().then(std::time::Instant::now);
    let final_path = dir.join(Manifest::manifest_file(seq));
    let tmp_path = dir.join(format!("ckpt-{seq:020}.tmp"));
    bytes += write_framed(&tmp_path, &manifest.encode())?;
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    if let Some(t) = commit_start {
        onion_obs::observe_us!("onion_checkpoint_manifest_commit_us", t.elapsed().as_micros());
    }
    onion_obs::count!("onion_checkpoint_total");
    onion_obs::count!("onion_checkpoint_shards_written_total", written);
    onion_obs::count!("onion_checkpoint_shards_reused_total", reused);
    let stats = CheckpointStats {
        seq,
        shards_written: written,
        shards_reused: reused,
        bytes_written: bytes,
        last_lsn,
        wal_segments_retired: 0,
    };
    Ok((manifest, stats))
}

/// Loads every manifest under `dir` that parses and CRC-validates,
/// newest first. Torn or corrupt manifests are skipped — that is the
/// fallback path, not an error.
pub(crate) fn load_manifests(dir: &Path) -> WalResult<Vec<Manifest>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(digits) = name.strip_prefix("ckpt-").and_then(|n| n.strip_suffix(".mf")) {
            if let Ok(seq) = digits.parse::<u64>() {
                found.push((seq, entry.path()));
            }
        }
    }
    found.sort_by(|a, b| b.0.cmp(&a.0));
    let mut manifests = Vec::new();
    for (seq, path) in found {
        let what = path.display().to_string();
        match read_framed(&path).and_then(|p| Manifest::decode(&p, &what)) {
            Ok(m) if m.seq == seq => manifests.push(m),
            _ => continue,
        }
    }
    Ok(manifests)
}

/// Rebuilds the live graph a manifest describes. Fails with
/// [`WalError::Corrupt`] if any referenced file is missing or invalid —
/// the caller then falls back to an older manifest.
pub(crate) fn restore_graph(dir: &Path, m: &Manifest) -> WalResult<OntGraph> {
    let strings_path = dir.join(m.strings_file());
    let strings =
        decode_strings(&read_framed(&strings_path)?, &strings_path.display().to_string())?;
    let mut shards = Vec::with_capacity(m.shard_count);
    for s in 0..m.shard_count {
        let path = dir.join(m.shard_file(s));
        let dump = decode_shard(
            &read_framed(&path)?,
            &path.display().to_string(),
            s,
            m.shard_count,
            m.shard_versions[s],
        )?;
        shards.push(dump);
    }
    let resolve = |lid: u32, what: &str| -> WalResult<&str> {
        strings.get(lid as usize).map(|s| s.as_str()).ok_or_else(|| WalError::Corrupt {
            file: what.to_string(),
            detail: format!("label id {lid} out of range"),
        })
    };
    let mut g = OntGraph::new(m.name.clone());
    // Nodes in ascending *global slot* order — global slot id is the
    // original arena index, so restored NodeIds are the original ids
    // compacted over tombstones (exactly what `compact()` would give).
    let count = m.shard_count.max(1);
    let max_slots = shards.iter().map(|d| d.labels.len()).max().unwrap_or(0);
    for local in 0..max_slots {
        for dump in &shards {
            if let Some(&lid) = dump.labels.get(local) {
                if lid != DEAD_SLOT {
                    g.add_node(resolve(lid, "shard labels")?)?;
                }
            }
        }
    }
    // Out-edge rows, each in the live graph's adjacency order, so a
    // node's out-edge order survives recovery. In-edge order follows
    // restore order (shards ascending, then slots, then rows).
    for (s, dump) in shards.iter().enumerate() {
        for (local, row) in dump.rows.iter().enumerate() {
            if row.is_empty() {
                continue;
            }
            let src_lid = dump.labels[local];
            if src_lid == DEAD_SLOT {
                return Err(WalError::Corrupt {
                    file: format!("shard {s}"),
                    detail: format!("dead slot {local} has {} out edges", row.len()),
                });
            }
            let src = resolve(src_lid, "shard labels")?.to_string();
            for &(elid, dst_global) in row {
                let dst_shard = dst_global as usize % count;
                let dst_local = dst_global as usize / count;
                let dst_lid = shards
                    .get(dst_shard)
                    .and_then(|d| d.labels.get(dst_local))
                    .copied()
                    .filter(|&l| l != DEAD_SLOT)
                    .ok_or_else(|| WalError::Corrupt {
                        file: format!("shard {s}"),
                        detail: format!("edge target slot {dst_global} is dead or out of range"),
                    })?;
                let label = resolve(elid, "edge labels")?.to_string();
                let dst = resolve(dst_lid, "shard labels")?.to_string();
                g.ensure_edge_by_labels(&src, &label, &dst)?;
            }
        }
    }
    g.set_shard_count(m.shard_count);
    Ok(g)
}

/// Deletes every checkpoint artifact not referenced by `keep`.
pub(crate) fn gc(dir: &Path, keep: &[Manifest]) -> WalResult<usize> {
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    for m in keep {
        referenced.insert(Manifest::manifest_file(m.seq));
        referenced.insert(m.strings_file());
        for s in 0..m.shard_count {
            referenced.insert(m.shard_file(s));
        }
    }
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_ckpt_artifact =
            name.starts_with("ckpt-") || name.starts_with("strings-") || name.starts_with("shard-");
        if is_ckpt_artifact && !referenced.contains(name) {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::super::testdir::TestDir;
    use super::*;

    fn sample_graph() -> OntGraph {
        let mut g = OntGraph::new("ckpt");
        g.ensure_edge_by_labels("Car", "SubclassOf", "Vehicle").unwrap();
        g.ensure_edge_by_labels("Truck", "SubclassOf", "Vehicle").unwrap();
        g.ensure_edge_by_labels("Price", "AttributeOf", "Car").unwrap();
        g.ensure_edge_by_labels("Car", "Uses", "Fuel").unwrap();
        g.delete_node_by_label("Truck").unwrap();
        g.set_shard_count(4);
        g
    }

    /// Label-level fingerprint: sorted node labels + sorted edge triples.
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

    #[test]
    fn owned_slots_partition_the_capacity() {
        for cap in [0usize, 1, 7, 8, 63, 64, 65, 1000] {
            for count in [1usize, 2, 7, 64] {
                let total: usize = (0..count).map(|s| owned_slots(cap, s, count)).sum();
                assert_eq!(total, cap, "cap={cap} count={count}");
            }
        }
    }

    #[test]
    fn owned_slots_are_stable_under_growth() {
        // adding one slot grows exactly the shard that owns it
        for cap in 0usize..130 {
            for count in [2usize, 7] {
                for s in 0..count {
                    let before = owned_slots(cap, s, count);
                    let after = owned_slots(cap + 1, s, count);
                    if s == cap % count {
                        assert_eq!(after, before + 1);
                    } else {
                        assert_eq!(after, before);
                    }
                }
            }
        }
    }

    #[test]
    fn cross_shard_edges_are_written_in_their_source_shard() {
        let mut g = OntGraph::new("t");
        g.set_shard_count(2);
        let a = g.add_node("A").unwrap(); // shard 0
        let b = g.add_node("B").unwrap(); // shard 1
        g.add_edge(a, "S", b).unwrap();
        assert_eq!((g.shard_of(a), g.shard_of(b)), (0, 1));
        let lid = g.label_id("S").unwrap().index() as u32;
        let dump = |s: usize| {
            decode_shard(&encode_shard(&g, s), "shard", s, 2, g.shard_version(s)).unwrap()
        };
        assert_eq!(dump(0).rows, vec![vec![(lid, b.index() as u32)]]);
        assert_eq!(dump(1).rows, vec![Vec::new()], "the target's shard holds no in-rows");
    }

    #[test]
    fn checkpoint_then_restore_reproduces_graph() {
        let td = TestDir::new("ckpt-roundtrip");
        let g = sample_graph();
        let (m, stats) = write_checkpoint(&td.0, &g, Lsn(9), None).unwrap();
        assert_eq!(stats.shards_written, 4, "first checkpoint is full");
        assert_eq!(m.last_lsn, Lsn(9));
        let restored = restore_graph(&td.0, &m).unwrap();
        assert_eq!(shape(&restored), shape(&g));
        assert_eq!(restored.shard_count(), g.shard_count());
        assert_eq!(restored.name(), g.name());
    }

    #[test]
    fn second_checkpoint_rewrites_only_dirty_shards() {
        let td = TestDir::new("ckpt-incremental");
        let mut g = sample_graph();
        let (m1, s1) = write_checkpoint(&td.0, &g, Lsn(4), None).unwrap();
        assert_eq!((s1.shards_written, s1.shards_reused), (4, 0));

        // One edge edit dirties its source's shard only.
        let car = g.node_by_label("Car").unwrap();
        let e = g.add_edge(car, "dirty", car).unwrap();
        g.delete_edge(e).unwrap();
        let (m2, s2) = write_checkpoint(&td.0, &g, Lsn(6), Some(&m1)).unwrap();
        assert_eq!(s2.shards_written, 1, "single same-shard edit rewrites exactly one shard");
        assert_eq!(s2.shards_reused, 3);
        let restored = restore_graph(&td.0, &m2).unwrap();
        assert_eq!(shape(&restored), shape(&g));
        // The reused shard files still back the older manifest too.
        let restored1 = restore_graph(&td.0, &m1).unwrap();
        assert_eq!(shape(&restored1), shape(&sample_graph()));
    }

    #[test]
    fn torn_manifest_is_skipped_and_gc_keeps_referenced_files() {
        let td = TestDir::new("ckpt-torn");
        let g = sample_graph();
        let (m1, _) = write_checkpoint(&td.0, &g, Lsn(4), None).unwrap();
        let (m2, _) = write_checkpoint(&td.0, &g, Lsn(8), Some(&m1)).unwrap();
        // Tear the newest manifest mid-file.
        let p2 = td.0.join(Manifest::manifest_file(m2.seq));
        let len = std::fs::metadata(&p2).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&p2).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);
        let loaded = load_manifests(&td.0).unwrap();
        assert_eq!(loaded.len(), 1, "torn manifest skipped");
        assert_eq!(loaded[0].seq, m1.seq);
        let restored = restore_graph(&td.0, &loaded[0]).unwrap();
        assert_eq!(shape(&restored), shape(&g));

        // GC with only m1 kept removes the torn manifest but keeps
        // every file m1 references.
        gc(&td.0, &[m1.clone()]).unwrap();
        assert!(!p2.exists());
        assert!(restore_graph(&td.0, &m1).is_ok());
    }

    /// A manifest's bytes, field by field, as the format writes them:
    /// magic, format version, seq, name, the consistent-label byte `1`,
    /// graph_id, 8 epoch bytes written as 0, shard count, last LSN,
    /// per-shard stamps. The epoch bytes may hold any value on read
    /// (older writers stored a publish epoch there). The label byte set
    /// to anything but `1` in a CRC-valid file is corrupt, and recovery
    /// skips that manifest.
    #[test]
    fn manifest_bytes_are_pinned_and_only_label_byte_1_decodes() {
        let m = Manifest {
            seq: 3,
            name: "carrier".into(),
            graph_id: 0x0102_0304_0506_0708,
            shard_count: 2,
            last_lsn: Lsn(42),
            shard_versions: vec![7, 9],
        };
        let mut want = b"FMNO".to_vec(); // 0x4F4E_4D46, little-endian
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&3u64.to_le_bytes());
        want.extend_from_slice(&7u32.to_le_bytes());
        want.extend_from_slice(b"carrier");
        let label_byte = want.len();
        want.push(1);
        want.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        let epoch = want.len();
        want.extend_from_slice(&0u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&42u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(m.encode(), want);
        assert_eq!(Manifest::decode(&want, "mf").unwrap(), m);
        for value in [5u64, u64::MAX] {
            let mut bytes = want.clone();
            bytes[epoch..epoch + 8].copy_from_slice(&value.to_le_bytes());
            assert_eq!(Manifest::decode(&bytes, "mf").unwrap(), m, "epoch {value} is ignored");
        }

        let td = TestDir::new("ckpt-label-byte");
        let path = td.0.join(Manifest::manifest_file(m.seq));
        for byte in [0u8, 2, 255] {
            let mut bytes = want.clone();
            bytes[label_byte] = byte;
            write_framed(&path, &bytes).unwrap();
            let decoded = read_framed(&path).and_then(|p| Manifest::decode(&p, "mf"));
            assert!(matches!(decoded, Err(WalError::Corrupt { .. })), "byte {byte}: {decoded:?}");
            assert!(load_manifests(&td.0).unwrap().is_empty(), "byte {byte}: manifest skipped");
        }
    }

    // -----------------------------------------------------------------
    // readers of bytes from disk return errors, never panic
    // -----------------------------------------------------------------

    /// A decoder run on `bytes`: true if it returned `Ok`.
    type Decoder = Box<dyn Fn(&[u8]) -> bool>;

    /// Every payload of a checkpoint of [`sample_graph`] (manifest,
    /// strings, each shard), each with the decoder recovery runs on it.
    fn valid_payloads() -> Vec<(Vec<u8>, Decoder)> {
        let g = sample_graph();
        let count = g.shard_count();
        let manifest = Manifest {
            seq: 3,
            name: g.name().to_string(),
            graph_id: g.graph_id(),
            shard_count: count,
            last_lsn: Lsn(7),
            shard_versions: g.shard_stamps().to_vec(),
        };
        let mut out: Vec<(Vec<u8>, Decoder)> = vec![
            (manifest.encode(), Box::new(|b| Manifest::decode(b, "mf").is_ok())),
            (encode_strings(&g), Box::new(|b| decode_strings(b, "strings").is_ok())),
        ];
        for s in 0..count {
            let version = g.shard_version(s);
            out.push((
                encode_shard(&g, s),
                Box::new(move |b| decode_shard(b, "shard", s, count, version).is_ok()),
            ));
        }
        out
    }

    #[test]
    fn every_truncation_of_a_checkpoint_file_is_rejected() {
        for (payload, decode) in valid_payloads() {
            assert!(decode(&payload), "the untouched payload decodes");
            for cut in 0..payload.len() {
                assert!(!decode(&payload[..cut]), "prefix of {cut}/{} bytes", payload.len());
            }
        }
    }

    #[test]
    fn single_byte_flips_of_checkpoint_files_never_panic() {
        for (payload, decode) in valid_payloads() {
            for pos in 0..payload.len() {
                for xor in 1..=255u8 {
                    let mut bytes = payload.clone();
                    bytes[pos] ^= xor;
                    // a flip inside a label or a number can decode to
                    // another valid file; a flip of the magic cannot
                    let ok = decode(&bytes);
                    assert!(!(ok && pos < 4), "flipped magic at {pos} decoded");
                }
            }
        }
    }

    /// One forged shard file's content: per-slot label ids and per-slot
    /// out-edge rows of `(label id, target slot)`, all unchecked.
    type ForgedShard = (Vec<u32>, Vec<Vec<(u32, u32)>>);

    /// Writes a CRC-valid checkpoint holding exactly `strings` and the
    /// given shards (one row per slot), and returns its manifest.
    fn forge(dir: &Path, strings: &[&str], shards: &[ForgedShard]) -> Manifest {
        let m = Manifest {
            seq: 1,
            name: "forged".into(),
            graph_id: 1,
            shard_count: shards.len(),
            last_lsn: Lsn(0),
            shard_versions: vec![1; shards.len()],
        };
        let mut p = Vec::new();
        put_u32(&mut p, MAGIC_STRINGS);
        put_u32(&mut p, strings.len() as u32);
        for label in strings {
            put_str(&mut p, label);
        }
        write_framed(&dir.join(m.strings_file()), &p).unwrap();
        for (s, (labels, rows)) in shards.iter().enumerate() {
            let mut p = Vec::new();
            put_u32(&mut p, MAGIC_SHARD);
            put_u32(&mut p, s as u32);
            put_u32(&mut p, shards.len() as u32);
            put_u64(&mut p, 1);
            put_u32(&mut p, labels.len() as u32);
            for &lid in labels {
                put_u32(&mut p, lid);
            }
            for row in rows {
                put_u32(&mut p, row.len() as u32);
                for &(lid, dst) in row {
                    put_u32(&mut p, lid);
                    put_u32(&mut p, dst);
                }
            }
            write_framed(&dir.join(m.shard_file(s)), &p).unwrap();
        }
        m
    }

    #[test]
    fn forged_checkpoints_restore_or_fail_cleanly() {
        let td = TestDir::new("ckpt-forged");
        let restore = |strings: &[&str], shards: &[ForgedShard]| {
            restore_graph(&td.0, &forge(&td.0, strings, shards))
        };
        // baseline: slot 0 = A, slot 1 = B, one edge A -S-> B
        let g = restore(&["A", "S", "B"], &[(vec![0, 2], vec![vec![(1, 1)], vec![]])]).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (2, 1));
        // a node label id past the strings table
        assert!(restore(&["A"], &[(vec![5], vec![vec![]])]).is_err());
        // an edge label id past the strings table
        assert!(restore(&["A"], &[(vec![0], vec![vec![(9, 0)]])]).is_err());
        // a row on a dead slot
        assert!(restore(&["A", "S"], &[(vec![0, DEAD_SLOT], vec![vec![], vec![(1, 0)]])]).is_err());
        // an edge target past the slot space, and one on a dead slot
        assert!(restore(&["A", "S"], &[(vec![0], vec![vec![(1, 9)]])]).is_err());
        assert!(restore(&["A", "S"], &[(vec![0, DEAD_SLOT], vec![vec![(1, 1)], vec![]])]).is_err());
        // duplicate labels, by id and by string
        assert!(restore(&["A"], &[(vec![0, 0], vec![vec![], vec![]])]).is_err());
        assert!(restore(&["A", "A"], &[(vec![0, 1], vec![vec![], vec![]])]).is_err());
        // a zero shard count restores an empty graph
        let g = restore(&["A"], &[]).unwrap();
        assert_eq!(g.node_count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn arbitrary_bytes_are_not_a_checkpoint_file(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            for (payload, decode) in valid_payloads() {
                prop_assert!(!decode(&bytes));
                // right magic and header, garbage after: Ok or Err,
                // never a panic
                let mut framed = payload[..payload.len().min(24)].to_vec();
                framed.extend_from_slice(&bytes);
                decode(&framed);
            }
        }

        /// Random CRC-valid checkpoints: label ids past the table, dead
        /// slots with rows, targets past the slot space, duplicate and
        /// empty labels, zero to three shards. Restore returns `Ok` or
        /// `Err`; an `Ok` graph only carries labels from the table.
        #[test]
        fn restore_never_panics_on_forged_checkpoints(
            table in proptest::collection::vec(0usize..4, 0..6),
            shards in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..8, proptest::collection::vec((0u32..8, 0u32..16), 0..3)),
                    0..5,
                ),
                0..4,
            ),
        ) {
            let strings: Vec<&str> = table.iter().map(|&i| ["A", "B", "S", ""][i]).collect();
            let shards: Vec<ForgedShard> = shards
                .into_iter()
                .map(|slots| {
                    slots
                        .into_iter()
                        .map(|(lid, row)| (if lid == 7 { DEAD_SLOT } else { lid }, row))
                        .unzip()
                })
                .collect();
            let td = TestDir::new("ckpt-forged-prop");
            if let Ok(g) = restore_graph(&td.0, &forge(&td.0, &strings, &shards)) {
                for n in g.node_ids() {
                    prop_assert!(strings.contains(&g.node_label(n).unwrap()));
                }
            }
        }
    }
}
