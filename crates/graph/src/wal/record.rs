//! The WAL wire format: op payload codec and record framing.
//!
//! Every record on disk is framed as
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u8 kind][u64 lsn][body]
//! ```
//!
//! with all integers little-endian. Strings are `u32` byte-length
//! prefixed UTF-8; lists are `u32` count prefixed. The frame CRC covers
//! the whole payload (kind, LSN, and body), so a torn or bit-rotted
//! tail is detected by the first frame that fails length or CRC
//! validation — everything before it is trusted, everything at and
//! after it is discarded.
//!
//! The [`GraphOp`] body encoding is a public, versioned contract
//! ([`encode_op`] / [`decode_op`]): golden-bytes tests outside this
//! crate pin it so the format cannot drift silently.

use super::{crc32, Lsn, WalError, WalResult};
use crate::GraphOp;

/// Frame kind tags (payload byte 0).
const KIND_BEGIN: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;
const KIND_OP: u8 = 4;

/// Op tags (first byte of an `Op` body).
const OP_NODE_ADD: u8 = 1;
const OP_NODE_DELETE: u8 = 2;
const OP_EDGE_ADD: u8 = 3;
const OP_EDGE_DELETE: u8 = 4;

/// Upper bound on a single frame payload; anything larger is treated
/// as corruption rather than attempted as an allocation.
const MAX_PAYLOAD: u32 = 1 << 30;

/// One logical WAL record (the LSN lives in the frame, not here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Opens an op batch; ops up to the matching `Commit` are atomic.
    Begin,
    /// Closes the current op batch. Only committed batches replay.
    Commit,
    /// Notes that checkpoint `manifest_seq` covering everything up to
    /// `last_lsn` was durably written (informational; recovery trusts
    /// the manifest files, not this record).
    Checkpoint {
        /// Sequence number of the manifest.
        manifest_seq: u64,
        /// Last LSN the checkpoint covers.
        last_lsn: Lsn,
    },
    /// One journaled graph transformation.
    Op(GraphOp),
}

// ---------------------------------------------------------------------
// primitive writers / reader
// ---------------------------------------------------------------------

/// The consistent-label byte `meta.bin` and every manifest carry after
/// the graph name. A label names at most one live node in every graph,
/// so the byte is always `1`; any other value reads as corrupt.
pub(crate) const CONSISTENT_LABELS: u8 = 1;

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds- and UTF-8-checked sequential reader over a byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string for error messages.
    what: &'a str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'a str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn corrupt(&self, detail: impl Into<String>) -> WalError {
        WalError::Corrupt { file: self.what.to_string(), detail: detail.into() }
    }

    fn take(&mut self, n: usize) -> WalResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt(format!(
                "short read: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> WalResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> WalResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> WalResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads the [`CONSISTENT_LABELS`] byte.
    pub(crate) fn consistent_labels(&mut self) -> WalResult<()> {
        match self.u8()? {
            CONSISTENT_LABELS => Ok(()),
            b => Err(self.corrupt(format!("consistent-label byte {b}, want {CONSISTENT_LABELS}"))),
        }
    }

    pub(crate) fn str(&mut self) -> WalResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid utf-8 in string"))
    }

    /// Guarded element count for a list about to be decoded: each
    /// element needs at least `min_elem_bytes`, so a count implying
    /// more bytes than remain is corruption, not an allocation.
    pub(crate) fn count(&mut self, min_elem_bytes: usize) -> WalResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(self.corrupt(format!("implausible element count {n}")));
        }
        Ok(n)
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn expect_end(&self) -> WalResult<()> {
        if self.finished() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

// ---------------------------------------------------------------------
// GraphOp body codec
// ---------------------------------------------------------------------

fn put_pairs(buf: &mut Vec<u8>, pairs: &[(String, String)]) {
    put_u32(buf, pairs.len() as u32);
    for (a, b) in pairs {
        put_str(buf, a);
        put_str(buf, b);
    }
}

fn put_triples(buf: &mut Vec<u8>, triples: &[(String, String, String)]) {
    put_u32(buf, triples.len() as u32);
    for (a, b, c) in triples {
        put_str(buf, a);
        put_str(buf, b);
        put_str(buf, c);
    }
}

fn read_pairs(r: &mut Reader<'_>) -> WalResult<Vec<(String, String)>> {
    let n = r.count(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push((r.str()?, r.str()?));
    }
    Ok(v)
}

fn read_triples(r: &mut Reader<'_>) -> WalResult<Vec<(String, String, String)>> {
    let n = r.count(12)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push((r.str()?, r.str()?, r.str()?));
    }
    Ok(v)
}

/// Appends the binary encoding of `op` to `buf`.
pub fn encode_op(op: &GraphOp, buf: &mut Vec<u8>) {
    match op {
        GraphOp::NodeAdd { label, out_edges, in_edges } => {
            buf.push(OP_NODE_ADD);
            put_str(buf, label);
            put_pairs(buf, out_edges);
            put_pairs(buf, in_edges);
        }
        GraphOp::NodeDelete { label, out_edges, in_edges } => {
            buf.push(OP_NODE_DELETE);
            put_str(buf, label);
            put_pairs(buf, out_edges);
            put_pairs(buf, in_edges);
        }
        GraphOp::EdgeAdd { edges } => {
            buf.push(OP_EDGE_ADD);
            put_triples(buf, edges);
        }
        GraphOp::EdgeDelete { edges } => {
            buf.push(OP_EDGE_DELETE);
            put_triples(buf, edges);
        }
    }
}

/// Decodes one op occupying exactly all of `bytes`.
pub fn decode_op(bytes: &[u8]) -> WalResult<GraphOp> {
    let mut r = Reader::new(bytes, "op");
    let op = read_op(&mut r)?;
    r.expect_end()?;
    Ok(op)
}

fn read_op(r: &mut Reader<'_>) -> WalResult<GraphOp> {
    match r.u8()? {
        OP_NODE_ADD => Ok(GraphOp::NodeAdd {
            label: r.str()?,
            out_edges: read_pairs(r)?,
            in_edges: read_pairs(r)?,
        }),
        OP_NODE_DELETE => Ok(GraphOp::NodeDelete {
            label: r.str()?,
            out_edges: read_pairs(r)?,
            in_edges: read_pairs(r)?,
        }),
        OP_EDGE_ADD => Ok(GraphOp::EdgeAdd { edges: read_triples(r)? }),
        OP_EDGE_DELETE => Ok(GraphOp::EdgeDelete { edges: read_triples(r)? }),
        tag => {
            Err(WalError::Corrupt { file: "op".into(), detail: format!("unknown op tag {tag}") })
        }
    }
}

// ---------------------------------------------------------------------
// record framing
// ---------------------------------------------------------------------

/// Appends the framed encoding of `(lsn, rec)` to `out`.
pub(crate) fn encode_record(lsn: Lsn, rec: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(16);
    match rec {
        WalRecord::Begin => {
            payload.push(KIND_BEGIN);
            put_u64(&mut payload, lsn.0);
        }
        WalRecord::Commit => {
            payload.push(KIND_COMMIT);
            put_u64(&mut payload, lsn.0);
        }
        WalRecord::Checkpoint { manifest_seq, last_lsn } => {
            payload.push(KIND_CHECKPOINT);
            put_u64(&mut payload, lsn.0);
            put_u64(&mut payload, *manifest_seq);
            put_u64(&mut payload, last_lsn.0);
        }
        WalRecord::Op(op) => {
            payload.push(KIND_OP);
            put_u64(&mut payload, lsn.0);
            encode_op(op, &mut payload);
        }
    }
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

/// Attempts to decode one framed record at the head of `bytes`.
///
/// Returns `Ok(Some((lsn, record, frame_len)))` for a valid frame, and
/// `Ok(None)` for a **torn tail** — too few bytes for a frame, a length
/// running past the buffer, or a CRC mismatch. A frame whose CRC
/// validates but whose payload doesn't parse is a hard
/// [`WalError::Corrupt`] (the bytes were durably written that way).
pub(crate) fn decode_record(
    bytes: &[u8],
    what: &str,
) -> WalResult<Option<(Lsn, WalRecord, usize)>> {
    if bytes.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Ok(None);
    }
    let len = len as usize;
    if bytes.len() < 8 + len {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let payload = &bytes[8..8 + len];
    if crc32(payload) != crc {
        return Ok(None);
    }
    let mut r = Reader::new(payload, what);
    let kind = r.u8()?;
    let lsn = Lsn(r.u64()?);
    let rec = match kind {
        KIND_BEGIN => WalRecord::Begin,
        KIND_COMMIT => WalRecord::Commit,
        KIND_CHECKPOINT => {
            WalRecord::Checkpoint { manifest_seq: r.u64()?, last_lsn: Lsn(r.u64()?) }
        }
        KIND_OP => WalRecord::Op(read_op(&mut r)?),
        other => {
            return Err(WalError::Corrupt {
                file: what.to_string(),
                detail: format!("unknown record kind {other}"),
            })
        }
    };
    r.expect_end()?;
    Ok(Some((lsn, rec, 8 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<GraphOp> {
        vec![
            GraphOp::node_add("Vehicle"),
            GraphOp::node_add_with(
                "Car",
                vec![("SubclassOf".into(), "Vehicle".into())],
                vec![("Price".into(), "AttributeOf".into())],
            ),
            GraphOp::edge_add("Car", "SubclassOf", "Vehicle"),
            GraphOp::edge_delete("Car", "SubclassOf", "Vehicle"),
            GraphOp::NodeDelete {
                label: "Car".into(),
                out_edges: vec![("SubclassOf".into(), "Vehicle".into())],
                in_edges: vec![],
            },
            GraphOp::EdgeAdd { edges: vec![] },
        ]
    }

    #[test]
    fn ops_roundtrip() {
        for op in ops() {
            let mut buf = Vec::new();
            encode_op(&op, &mut buf);
            assert_eq!(decode_op(&buf).unwrap(), op);
        }
    }

    #[test]
    fn records_roundtrip_and_chain() {
        let mut buf = Vec::new();
        let recs = vec![
            (Lsn(1), WalRecord::Begin),
            (Lsn(2), WalRecord::Op(GraphOp::edge_add("a.b", "rel", "c"))),
            (Lsn(3), WalRecord::Commit),
            (Lsn(4), WalRecord::Checkpoint { manifest_seq: 7, last_lsn: Lsn(3) }),
        ];
        for (lsn, r) in &recs {
            encode_record(*lsn, r, &mut buf);
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((lsn, rec, n)) = decode_record(&buf[at..], "t").unwrap() {
            seen.push((lsn, rec));
            at += n;
        }
        assert_eq!(at, buf.len());
        assert_eq!(seen, recs);
    }

    #[test]
    fn torn_tail_is_detected_not_misparsed() {
        let mut buf = Vec::new();
        encode_record(Lsn(1), &WalRecord::Begin, &mut buf);
        let full = buf.len();
        encode_record(Lsn(2), &WalRecord::Commit, &mut buf);
        // Every strict prefix of the second frame decodes the first and
        // then reports a torn tail.
        for cut in full..buf.len() {
            let slice = &buf[..cut];
            let (_, _, n) = decode_record(slice, "t").unwrap().expect("first frame intact");
            assert!(decode_record(&slice[n..], "t").unwrap().is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut buf = Vec::new();
        encode_record(Lsn(9), &WalRecord::Op(GraphOp::node_add("X")), &mut buf);
        for i in 8..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(decode_record(&bad, "t").unwrap().is_none(), "flip at {i}");
        }
    }
}
