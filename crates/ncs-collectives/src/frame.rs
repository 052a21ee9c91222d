//! The collective wire frame.
//!
//! Every collective message is one or more `CollFrame`s carried as
//! ordinary NCS message payloads over the group's pairwise connections —
//! so segmentation, flow control and error control below this layer are
//! exactly the point-to-point machinery (paper §3), reused unchanged.
//!
//! A frame addresses a *segment stream*: `(coll, stream)` identifies one
//! logical transfer inside one collective operation (e.g. the reduce phase
//! and the broadcast phase of an allreduce are distinct streams), and
//! `seg`/`total` sequence the pipeline segments of that transfer.

use std::sync::Arc;

use ncs_core::{BufPool, PooledBuf};

pub(crate) const TAG_COLL: u8 = 0xB3;

/// Encoded header size: tag + group + coll + stream + seg + total + len.
pub(crate) const COLL_OVERHEAD: usize = 1 + 4 + 4 + 4 + 4 + 4 + 4;

/// A decoded collective segment. The original frame bytes are retained so
/// forwarding nodes (tree and ring relays) re-transmit them verbatim —
/// no decode/re-encode round trip on the store-and-forward path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Seg {
    pub coll: u32,
    pub stream: u32,
    pub seg: u32,
    pub total: u32,
    /// The complete received frame (header + payload).
    pub raw: Vec<u8>,
}

impl Seg {
    /// The segment's payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.raw[COLL_OVERHEAD..]
    }
}

/// First id of the *unmatched* `coll` space. Matched collectives number
/// their operations `0, 1, 2, …` below it, in the same order on every
/// member; a frame at or above it belongs to no such sequence — it is a
/// broadcast any member may originate at any time (the paper's multicast):
/// `stream` carries the origin's rank and the low bits of `coll` the
/// topology, so the receiver derives the relay plan from the header alone.
pub(crate) const UNMATCHED: u32 = 1 << 31;

/// The encoding half of the format: cuts a payload into pipeline segments
/// and encodes each once into a buffer checked out of the node's pool.
#[derive(Debug, Clone)]
pub struct Encoder {
    pool: Arc<BufPool>,
    group: u32,
    seg_size: usize,
}

impl Encoder {
    /// An encoder for group `group` cutting at `seg_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `seg_size` is zero.
    pub fn new(pool: Arc<BufPool>, group: u32, seg_size: usize) -> Self {
        assert!(seg_size > 0, "seg_size must be positive");
        Encoder {
            pool,
            group,
            seg_size,
        }
    }

    /// The group whose frames this encoder writes.
    pub(crate) fn group(&self) -> u32 {
        self.group
    }

    /// Cuts `payload` into segments of `(coll, stream)`, each encoded once.
    /// An empty payload is one empty segment.
    pub(crate) fn segments(&self, coll: u32, stream: u32, payload: &[u8]) -> Vec<PooledBuf> {
        let n = payload.len().div_ceil(self.seg_size).max(1);
        payload
            .chunks(self.seg_size)
            .chain(payload.is_empty().then_some(&[][..]))
            .enumerate()
            .map(|(i, chunk)| self.frame(coll, stream, i as u32, n as u32, chunk))
            .collect()
    }

    fn frame(&self, coll: u32, stream: u32, seg: u32, total: u32, payload: &[u8]) -> PooledBuf {
        let mut buf = self.pool.get();
        let out = buf.vec_mut();
        out.clear();
        out.reserve(COLL_OVERHEAD + payload.len());
        out.push(TAG_COLL);
        for field in [self.group, coll, stream, seg, total, payload.len() as u32] {
            out.extend_from_slice(&field.to_be_bytes());
        }
        out.extend_from_slice(payload);
        buf
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Decodes a frame addressed to `expect_group`, taking ownership of the
/// frame buffer. Returns `None` for frames that are not well-formed
/// collective frames for this group.
pub(crate) fn decode_frame(bytes: Vec<u8>, expect_group: u32) -> Option<Seg> {
    if bytes.len() < COLL_OVERHEAD || bytes[0] != TAG_COLL {
        return None;
    }
    if read_u32(&bytes, 1) != expect_group {
        return None;
    }
    let coll = read_u32(&bytes, 5);
    let stream = read_u32(&bytes, 9);
    let seg = read_u32(&bytes, 13);
    let total = read_u32(&bytes, 17);
    let len = read_u32(&bytes, 21) as usize;
    if bytes.len() != COLL_OVERHEAD + len || total == 0 || seg >= total {
        return None;
    }
    Some(Seg {
        coll,
        stream,
        seg,
        total,
        raw: bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let enc = Encoder::new(BufPool::new(), 9, 64);
        let f = enc.frame(3, 1, 2, 5, b"abc");
        let seg = decode_frame(f.as_slice().to_vec(), 9).unwrap();
        assert_eq!((seg.coll, seg.stream, seg.seg, seg.total), (3, 1, 2, 5));
        assert_eq!(seg.payload(), b"abc");
        assert_eq!(seg.raw, f.as_slice());
        // Empty payloads (barrier tokens) survive too.
        let f = enc.frame(4, 0, 0, 1, b"");
        let seg = decode_frame(f.as_slice().to_vec(), 9).unwrap();
        assert!(seg.payload().is_empty());
    }

    #[test]
    fn frame_rejects_malformed() {
        let enc = Encoder::new(BufPool::new(), 9, 64);
        let good = enc.frame(3, 1, 2, 5, b"abc").as_slice().to_vec();
        assert!(decode_frame(good.clone(), 8).is_none(), "wrong group");
        let mut bad_tag = good.clone();
        bad_tag[0] = 0x00;
        assert!(decode_frame(bad_tag, 9).is_none());
        let mut truncated = good.clone();
        truncated.pop();
        assert!(decode_frame(truncated, 9).is_none());
        assert!(decode_frame(Vec::new(), 9).is_none());
        // seg >= total is invalid.
        let bad = enc.frame(3, 1, 7, 5, b"x").as_slice().to_vec();
        assert!(decode_frame(bad, 9).is_none());
    }
}
