//! NCS wire formats.
//!
//! Two packet families, mirroring the paper's two planes:
//!
//! * [`DataPacket`] — an SDU with the §3.2 header (sequence number and the
//!   end-of-message control bit) plus connection/session demux fields;
//! * [`CtrlMsg`] — feedback (an acknowledgement with the credit edge
//!   riding in it, or the edge alone) and connection management.
//!
//! Both travel on a connection's one duplex channel, each direction
//! carrying its side's data and its feedback about the other side's
//! data; a [`Hello`] opens the channel. The receive step tells the three
//! apart by their first byte (`FrameKind::of`). Formats are hand-encoded
//! big-endian; every decode validates lengths and tags.

use std::sync::Arc;

use crate::config::ConnectionConfig;
use crate::error_control::AckInfo;
use crate::pool::{BufPool, PooledBuf};
use crate::seq::AckBitmap;

/// Errors from decoding NCS packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed NCS packet: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn need(bytes: &[u8], n: usize, what: &str) -> Result<(), DecodeError> {
    if bytes.len() < n {
        Err(DecodeError(format!(
            "{what}: need {n} bytes, have {}",
            bytes.len()
        )))
    } else {
        Ok(())
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Header of one SDU on a data connection (paper Figure 5: sequence number
/// + end-of-segmentation control bit, plus demux fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataHeader {
    /// Receiving side's connection id.
    pub conn: u32,
    /// Sending side's connection id (lets the receiver address control
    /// messages back even before connection setup fully completes).
    pub src_conn: u32,
    /// Message (session) this SDU belongs to.
    pub session: u32,
    /// SDU index within the message.
    pub seq: u32,
    /// The control bit: 1 on the final SDU of the message.
    pub end: bool,
    /// Tag-matched message: the first four bytes of the *reassembled*
    /// message are its big-endian channel tag (set on every SDU of the
    /// message, so whichever SDU completes delivery carries it).
    pub tagged: bool,
}

/// Bit 0 of the flags byte: final SDU of the message.
const FLAG_END: u8 = 0b01;
/// Bit 1 of the flags byte: the message carries a tag envelope.
const FLAG_TAGGED: u8 = 0b10;
/// Bit 2 of the flags byte: the payload is a *train* — several whole
/// messages, each behind a record header ([`crate::plane`]) — and the
/// frame is a complete one-SDU session (`seq == 0`, end bit set).
const FLAG_PACKED: u8 = 0b100;

/// Encoded size of [`DataHeader`] plus the leading packet tag and length.
pub const DATA_OVERHEAD: usize = 1 + 4 + 4 + 4 + 4 + 1 + 4;

const TAG_DATA: u8 = 0xD1;
const TAG_CTRL: u8 = 0xC1;
const TAG_HELLO: u8 = 0xE1;

/// What a frame on a connection's channel is, by its tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    Data,
    Ctrl,
    Hello,
    Unknown,
}

impl FrameKind {
    pub(crate) fn of(frame: &[u8]) -> Self {
        match frame.first() {
            Some(&TAG_DATA) => FrameKind::Data,
            Some(&TAG_CTRL) => FrameKind::Ctrl,
            Some(&TAG_HELLO) => FrameKind::Hello,
            _ => FrameKind::Unknown,
        }
    }
}

/// Bit 0 of an acknowledgement's flags byte: the credit edge follows it.
const ACK_EDGE: u8 = 0b001;
/// Bit 1: go-back-N's cumulative form — the body is the next sequence
/// number expected.
const ACK_CUMULATIVE: u8 = 0b010;
/// Bit 2: every SDU arrived — the body is the SDU count alone and stands
/// for [`AckBitmap::all_received`] of it. Without bit 1 or 2 the body is
/// the missing-SDU bitmap ([`AckBitmap::encode`]).
const ACK_CLEAN: u8 = 0b100;

/// One SDU with its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// The header.
    pub header: DataHeader,
    /// SDU payload.
    pub payload: Vec<u8>,
}

impl DataHeader {
    /// Encodes a full data frame — tag + this header + length-prefixed
    /// `payload` — into `out`, replacing its contents. This is the zero-
    /// intermediate encode path: callers segmenting straight out of a user
    /// buffer frame each SDU without materialising a [`DataPacket`].
    pub fn encode_frame_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        self.encode_flagged(0, payload, out);
    }

    fn encode_flagged(&self, mut flags: u8, payload: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(DATA_OVERHEAD + payload.len());
        out.push(TAG_DATA);
        out.extend_from_slice(&self.conn.to_be_bytes());
        out.extend_from_slice(&self.src_conn.to_be_bytes());
        out.extend_from_slice(&self.session.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        if self.end {
            flags |= FLAG_END;
        }
        if self.tagged {
            flags |= FLAG_TAGGED;
        }
        out.push(flags);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
    }

    /// [`DataHeader::encode_frame_into`] targeting a buffer checked out of
    /// `pool`.
    pub fn encode_frame_pooled(&self, payload: &[u8], pool: &Arc<BufPool>) -> PooledBuf {
        self.encode_sdu_pooled(false, payload, pool)
    }

    /// [`DataHeader::encode_frame_pooled`] with the train flag
    /// ([`DataView::packed`]) set as given. The flag is not a header
    /// field: it describes the payload's layout, not where the SDU goes.
    pub(crate) fn encode_sdu_pooled(
        &self,
        packed: bool,
        payload: &[u8],
        pool: &Arc<BufPool>,
    ) -> PooledBuf {
        let mut buf = pool.get();
        let flags = if packed { FLAG_PACKED } else { 0 };
        self.encode_flagged(flags, payload, buf.vec_mut());
        buf
    }
}

/// A decoded data frame borrowing its payload from the receive buffer
/// (the allocation-free half of [`DataPacket::decode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataView<'a> {
    /// The decoded header.
    pub header: DataHeader,
    /// The payload is a train: whole messages packed behind record
    /// headers, carried as one single-SDU session.
    pub packed: bool,
    /// Payload bytes, still inside the received frame.
    pub payload: &'a [u8],
}

impl DataView<'_> {
    /// Copies the borrowed payload into an owned [`DataPacket`] (which
    /// has no train flag: the copy is the session body, records and all).
    pub fn to_packet(&self) -> DataPacket {
        DataPacket {
            header: self.header,
            payload: self.payload.to_vec(),
        }
    }
}

impl DataPacket {
    /// Encodes tag + header + length-prefixed payload into `out`,
    /// replacing its contents.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.header.encode_frame_into(&self.payload, out);
    }

    /// Encodes into a buffer checked out of `pool` (the data-plane hot
    /// path: the buffer returns to the pool once the frame is transmitted).
    pub fn encode_pooled(&self, pool: &Arc<BufPool>) -> PooledBuf {
        self.header.encode_frame_pooled(&self.payload, pool)
    }

    /// Encodes tag + header + length-prefixed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a frame without copying the payload out of it.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any malformation.
    pub fn peek(bytes: &[u8]) -> Result<DataView<'_>, DecodeError> {
        need(bytes, DATA_OVERHEAD, "data packet")?;
        if bytes[0] != TAG_DATA {
            return Err(DecodeError(format!("bad data tag {:#04x}", bytes[0])));
        }
        let conn = read_u32(bytes, 1);
        let src_conn = read_u32(bytes, 5);
        let session = read_u32(bytes, 9);
        let seq = read_u32(bytes, 13);
        let flags = bytes[17];
        if flags & !(FLAG_END | FLAG_TAGGED | FLAG_PACKED) != 0 {
            return Err(DecodeError(format!("bad flags byte {flags:#04x}")));
        }
        let len = read_u32(bytes, 18) as usize;
        if bytes.len() != DATA_OVERHEAD + len {
            return Err(DecodeError(format!(
                "payload length mismatch: header says {len}, frame has {}",
                bytes.len() - DATA_OVERHEAD
            )));
        }
        Ok(DataView {
            header: DataHeader {
                conn,
                src_conn,
                session,
                seq,
                end: flags & FLAG_END != 0,
                tagged: flags & FLAG_TAGGED != 0,
            },
            packed: flags & FLAG_PACKED != 0,
            payload: &bytes[DATA_OVERHEAD..],
        })
    }

    /// Decodes a frame produced by [`DataPacket::encode`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any malformation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        Ok(Self::peek(bytes)?.to_packet())
    }
}

/// Control messages. The paper's §2 sends "all control information" over
/// control connections of its own; here each travels on the connection it
/// is about, against the direction of the data it answers.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Error-control feedback for `session` — selective repeat's
    /// missing-SDU bitmap (paper Figure 5 step 5) or go-back-N's
    /// cumulative acknowledgement — and, when the arrival it answers owes
    /// one, the flow-control credit edge with it: one frame where the
    /// paper's Figure 4 has the two planes send one each. Encoded behind a
    /// flags byte (edge present, cumulative, clean); a clean bitmap travels
    /// as its SDU count alone.
    Ack {
        /// Sender-side connection the ACK refers to.
        conn: u32,
        /// Acknowledged session.
        session: u32,
        /// What was received.
        info: AckInfo,
        /// The receiver's credit edge, advertised with the acknowledgement.
        edge: Option<u32>,
    },
    /// Flow-control feedback alone: the credit edge `credits` (paper
    /// Figure 7 step 5), for an arrival no acknowledgement answered.
    Credit {
        /// Sender-side connection granted to.
        conn: u32,
        /// The edge: fresh SDUs the sender may have released since the
        /// connection opened.
        credits: u32,
    },
    /// Connection accept, the acceptor's first frame on the channel (and
    /// its answer to every repeat of the hello): `acceptor_conn` is the
    /// peer's id for the initiator's `initiator_conn`.
    AcceptConn {
        /// Echoed initiator connection id.
        initiator_conn: u32,
        /// Connection id at the acceptor.
        acceptor_conn: u32,
    },
    /// Graceful connection teardown: the channel's last frame.
    CloseConn {
        /// Connection id *at the receiver of this message*.
        conn: u32,
    },
}

impl CtrlMsg {
    /// Encodes tag + variant + fields into `out`, replacing its contents
    /// (feedback is encoded into pooled frame buffers).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.push(TAG_CTRL);
        match self {
            CtrlMsg::Ack {
                conn,
                session,
                info,
                edge,
            } => {
                out.push(0);
                out.extend_from_slice(&conn.to_be_bytes());
                out.extend_from_slice(&session.to_be_bytes());
                // A bitmap with nothing missing is its SDU count alone.
                let (form, word) = match info {
                    AckInfo::Bitmap(bitmap) if bitmap.any_missing() => (0, None),
                    AckInfo::Bitmap(bitmap) => (ACK_CLEAN, Some(bitmap.total())),
                    AckInfo::Cumulative(next) => (ACK_CUMULATIVE, Some(*next)),
                };
                out.push(form | edge.map_or(0, |_| ACK_EDGE));
                out.extend(edge.iter().chain(&word).flat_map(|w| w.to_be_bytes()));
                if let (AckInfo::Bitmap(bitmap), None) = (info, word) {
                    bitmap.encode_into(out);
                }
            }
            CtrlMsg::Credit { conn, credits } => {
                out.push(2);
                out.extend_from_slice(&conn.to_be_bytes());
                out.extend_from_slice(&credits.to_be_bytes());
            }
            CtrlMsg::AcceptConn {
                initiator_conn,
                acceptor_conn,
            } => {
                out.push(4);
                out.extend_from_slice(&initiator_conn.to_be_bytes());
                out.extend_from_slice(&acceptor_conn.to_be_bytes());
            }
            CtrlMsg::CloseConn { conn } => {
                out.push(5);
                out.extend_from_slice(&conn.to_be_bytes());
            }
        }
    }

    /// Encodes tag + variant + fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a frame produced by [`CtrlMsg::encode`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any malformation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        need(bytes, 2, "control message")?;
        if bytes[0] != TAG_CTRL {
            return Err(DecodeError(format!("bad control tag {:#04x}", bytes[0])));
        }
        let body = &bytes[2..];
        match bytes[1] {
            0 => {
                need(body, 9, "ack")?;
                let flags = body[8];
                let (edge, rest) = match flags & ACK_EDGE {
                    0 => (None, &body[9..]),
                    _ => {
                        need(body, 13, "ack edge")?;
                        (Some(read_u32(body, 9)), &body[13..])
                    }
                };
                // Undefined bits, and clean and cumulative at once, fall
                // through to the refusal.
                let info = match (flags & !ACK_EDGE, rest.len()) {
                    (0, _) => AckInfo::Bitmap(AckBitmap::decode(rest).map_err(DecodeError)?),
                    (ACK_CUMULATIVE, 4) => AckInfo::Cumulative(read_u32(rest, 0)),
                    (ACK_CLEAN, 4) => match read_u32(rest, 0) {
                        total @ 1..=AckBitmap::MAX_TOTAL => {
                            AckInfo::Bitmap(AckBitmap::all_received(total))
                        }
                        total => return Err(DecodeError(format!("clean ack of {total} SDUs"))),
                    },
                    (form, len) => {
                        return Err(DecodeError(format!("ack form {form:#04x} of {len} bytes")))
                    }
                };
                Ok(CtrlMsg::Ack {
                    conn: read_u32(body, 0),
                    session: read_u32(body, 4),
                    info,
                    edge,
                })
            }
            2 => {
                need(body, 8, "credit")?;
                Ok(CtrlMsg::Credit {
                    conn: read_u32(body, 0),
                    credits: read_u32(body, 4),
                })
            }
            4 => {
                need(body, 8, "accept")?;
                Ok(CtrlMsg::AcceptConn {
                    initiator_conn: read_u32(body, 0),
                    acceptor_conn: read_u32(body, 4),
                })
            }
            5 => {
                need(body, 4, "close")?;
                Ok(CtrlMsg::CloseConn {
                    conn: read_u32(body, 0),
                })
            }
            other => Err(DecodeError(format!("unknown control variant {other}"))),
        }
    }
}

/// First frame of a freshly opened channel: the connection it carries
/// (needed because transports hand out symmetric duplex channels, and a
/// shared listener hands out any peer's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Initiating node's name.
    pub node: String,
    /// Connection id at the initiator.
    pub initiator_conn: u32,
    /// Requested configuration (both ends configure identically).
    pub config: ConnectionConfig,
}

impl Hello {
    /// Encodes the hello frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![TAG_HELLO];
        out.extend_from_slice(&(self.node.len() as u32).to_be_bytes());
        out.extend_from_slice(self.node.as_bytes());
        out.extend_from_slice(&self.initiator_conn.to_be_bytes());
        out.extend_from_slice(&self.config.encode());
        out
    }

    /// Decodes a hello frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any malformation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        need(bytes, 5, "hello")?;
        if bytes[0] != TAG_HELLO {
            return Err(DecodeError(format!("bad hello tag {:#04x}", bytes[0])));
        }
        let name_len = read_u32(bytes, 1) as usize;
        need(bytes, 5 + name_len, "hello name")?;
        let node = String::from_utf8(bytes[5..5 + name_len].to_vec())
            .map_err(|e| DecodeError(format!("hello name not UTF-8: {e}")))?;
        let rest = &bytes[5 + name_len..];
        need(rest, 4, "hello conn id")?;
        Ok(Hello {
            node,
            initiator_conn: read_u32(rest, 0),
            config: ConnectionConfig::decode(&rest[4..]).map_err(DecodeError)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConnectionConfig;

    #[test]
    fn data_packet_round_trip() {
        for tagged in [false, true] {
            let p = DataPacket {
                header: DataHeader {
                    conn: 7,
                    src_conn: 8,
                    session: 42,
                    seq: 3,
                    end: true,
                    tagged,
                },
                payload: vec![1, 2, 3, 4, 5],
            };
            assert_eq!(DataPacket::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn data_packet_empty_payload() {
        let p = DataPacket {
            header: DataHeader {
                conn: 0,
                src_conn: 0,
                session: 0,
                seq: 0,
                end: false,
                tagged: false,
            },
            payload: vec![],
        };
        assert_eq!(DataPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn data_packet_rejects_corruption() {
        let p = DataPacket {
            header: DataHeader {
                conn: 1,
                src_conn: 1,
                session: 1,
                seq: 1,
                end: false,
                tagged: false,
            },
            payload: vec![0; 16],
        };
        let mut bytes = p.encode();
        bytes[0] = 0xFF; // tag
        assert!(DataPacket::decode(&bytes).is_err());
        let mut bytes = p.encode();
        bytes[17] = 0b1000; // flags byte with an undefined bit set
        assert!(DataPacket::decode(&bytes).is_err());
        let mut bytes = p.encode();
        bytes.pop(); // truncation
        assert!(DataPacket::decode(&bytes).is_err());
    }

    #[test]
    fn ctrl_messages_round_trip() {
        let mut bitmap = AckBitmap::all_missing(20);
        bitmap.mark_received(5);
        let infos = [
            AckInfo::Bitmap(bitmap),
            AckInfo::Bitmap(AckBitmap::all_received(20)),
            AckInfo::Cumulative(17),
        ];
        let acks = infos.into_iter().flat_map(|info| {
            [None, Some(9)].map(|edge| CtrlMsg::Ack {
                conn: 1,
                session: 2,
                info: info.clone(),
                edge,
            })
        });
        let msgs = acks.chain([
            CtrlMsg::Credit {
                conn: 5,
                credits: 8,
            },
            CtrlMsg::AcceptConn {
                initiator_conn: 9,
                acceptor_conn: 11,
            },
            CtrlMsg::CloseConn { conn: 12 },
        ]);
        for m in msgs {
            assert_eq!(CtrlMsg::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    /// The edge-only form is the parent's `Credit`, byte for byte.
    #[test]
    fn credit_encoding_is_pinned() {
        let credit = CtrlMsg::Credit {
            conn: 0x0102_0304,
            credits: 0x0A0B_0C0D,
        };
        assert_eq!(
            credit.encode(),
            [TAG_CTRL, 2, 1, 2, 3, 4, 0x0A, 0x0B, 0x0C, 0x0D]
        );
    }

    /// A clean one-SDU acknowledgement with its edge: flags, edge and SDU
    /// count, no bitmap words. Go-back-N's is the same shape.
    #[test]
    fn a_clean_ack_carries_no_bitmap() {
        let ack = |info| CtrlMsg::Ack {
            conn: 1,
            session: 2,
            info,
            edge: Some(3),
        };
        let head = [TAG_CTRL, 0, 0, 0, 0, 1, 0, 0, 0, 2];
        let clean = ack(AckInfo::Bitmap(AckBitmap::all_received(1))).encode();
        assert_eq!(
            clean,
            [&head[..], &[ACK_EDGE | ACK_CLEAN, 0, 0, 0, 3, 0, 0, 0, 1]].concat()
        );
        let gbn = ack(AckInfo::Cumulative(1)).encode();
        assert_eq!(
            gbn,
            [
                &head[..],
                &[ACK_EDGE | ACK_CUMULATIVE, 0, 0, 0, 3, 0, 0, 0, 1]
            ]
            .concat()
        );
    }

    #[test]
    fn ack_decode_rejects_bad_flags_and_counts() {
        let ack = |flags: u8, body: &[u8]| {
            CtrlMsg::decode(&[&[TAG_CTRL, 0, 0, 0, 0, 1, 0, 0, 0, 2, flags][..], body].concat())
        };
        let one = 1u32.to_be_bytes();
        assert!(ack(ACK_CLEAN, &one).is_ok());
        // Undefined bits, and clean and cumulative at once.
        for flags in [0b1000, 0x80, ACK_CLEAN | ACK_CUMULATIVE] {
            assert!(ack(flags, &one).is_err(), "{flags:#04x}");
        }
        // A clean count of nothing, or of more SDUs than a message has.
        for total in [0, AckBitmap::MAX_TOTAL + 1, u32::MAX] {
            assert!(ack(ACK_CLEAN, &total.to_be_bytes()).is_err(), "{total}");
        }
        // A missing edge, a short or long body.
        assert!(ack(ACK_EDGE | ACK_CLEAN, &one).is_err());
        assert!(ack(ACK_CUMULATIVE, &one[..3]).is_err());
        assert!(ack(ACK_CUMULATIVE, &[0; 5]).is_err());
    }

    #[test]
    fn ctrl_rejects_unknown_variant() {
        assert!(CtrlMsg::decode(&[TAG_CTRL, 99]).is_err());
        // Go-back-N's acknowledgement had a variant of its own.
        let gbn_ack = [TAG_CTRL, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3];
        assert!(CtrlMsg::decode(&gbn_ack).is_err());
        assert!(CtrlMsg::decode(&[0x00, 0]).is_err());
        assert!(CtrlMsg::decode(&[]).is_err());
    }

    fn hello(node: &str) -> Hello {
        Hello {
            node: node.to_owned(),
            initiator_conn: 3,
            config: ConnectionConfig::unreliable(),
        }
    }

    #[test]
    fn hello_round_trip() {
        let m = hello("bob");
        assert_eq!(Hello::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn hello_rejects_bad_utf8_and_tags() {
        let mut bytes = hello("aa").encode();
        bytes[5] = 0xFF;
        bytes[6] = 0xFE;
        assert!(Hello::decode(&bytes).is_err());
        assert!(Hello::decode(&[TAG_HELLO, 0, 0, 0, 9]).is_err());
        bytes = hello("aa").encode();
        bytes[0] = TAG_CTRL;
        assert!(Hello::decode(&bytes).is_err());
    }

    /// The receive step tells a channel's three frame families apart by
    /// their first byte.
    #[test]
    fn every_frame_family_is_told_by_its_tag() {
        let data = DataPacket {
            header: DataHeader {
                conn: 1,
                src_conn: 2,
                session: 3,
                seq: 0,
                end: true,
                tagged: false,
            },
            payload: vec![1],
        };
        let credit = CtrlMsg::Credit {
            conn: 1,
            credits: 2,
        };
        assert_eq!(FrameKind::of(&data.encode()), FrameKind::Data);
        assert_eq!(FrameKind::of(&credit.encode()), FrameKind::Ctrl);
        assert_eq!(FrameKind::of(&hello("x").encode()), FrameKind::Hello);
        assert_eq!(FrameKind::of(&[]), FrameKind::Unknown);
        assert_eq!(FrameKind::of(&[0xFF]), FrameKind::Unknown);
    }

    #[test]
    fn pooled_encode_matches_plain_encode() {
        let pool = BufPool::with_config(2, 4, 64);
        let p = DataPacket {
            header: DataHeader {
                conn: 1,
                src_conn: 2,
                session: 3,
                seq: 4,
                end: true,
                tagged: false,
            },
            payload: vec![7; 33],
        };
        let pooled = p.encode_pooled(&pool);
        assert_eq!(pooled.as_slice(), p.encode().as_slice());
        // Direct header+slice framing is byte-identical too.
        let framed = p.header.encode_frame_pooled(&p.payload, &pool);
        assert_eq!(framed.as_slice(), p.encode().as_slice());
    }

    #[test]
    fn peek_borrows_payload_without_copying() {
        let p = DataPacket {
            header: DataHeader {
                conn: 9,
                src_conn: 8,
                session: 7,
                seq: 6,
                end: false,
                tagged: false,
            },
            payload: vec![1, 2, 3],
        };
        let bytes = p.encode();
        let view = DataPacket::peek(&bytes).unwrap();
        assert_eq!(view.header, p.header);
        assert_eq!(view.payload, &[1, 2, 3]);
        assert_eq!(view.to_packet(), p);
    }

    #[test]
    fn train_flag_rides_the_flags_byte_and_leaves_the_header_alone() {
        let pool = BufPool::with_config(2, 4, 64);
        let header = DataHeader {
            conn: 1,
            src_conn: 2,
            session: 3,
            seq: 0,
            end: true,
            tagged: false,
        };
        let plain = header.encode_frame_pooled(&[9; 12], &pool);
        let train = header.encode_sdu_pooled(true, &[9; 12], &pool);
        let differing: Vec<usize> = (0..plain.as_slice().len())
            .filter(|&i| plain.as_slice()[i] != train.as_slice()[i])
            .collect();
        assert_eq!(differing, [17], "only the flags byte differs");
        let (plain, train) = (
            DataPacket::peek(plain.as_slice()).unwrap(),
            DataPacket::peek(train.as_slice()).unwrap(),
        );
        assert_eq!((plain.packed, train.packed), (false, true));
        assert_eq!(plain.header, train.header);
        assert_eq!(plain.payload, train.payload);
    }

    #[test]
    fn ctrl_encode_into_reuses_scratch() {
        let mut scratch = vec![0xEE; 50];
        let m = CtrlMsg::Credit {
            conn: 5,
            credits: 8,
        };
        m.encode_into(&mut scratch);
        assert_eq!(scratch, m.encode());
    }

    #[test]
    fn data_overhead_constant_matches_encoding() {
        let p = DataPacket {
            header: DataHeader {
                conn: 0,
                src_conn: 0,
                session: 0,
                seq: 0,
                end: false,
                tagged: false,
            },
            payload: vec![0; 100],
        };
        assert_eq!(p.encode().len(), DATA_OVERHEAD + 100);
    }
}
