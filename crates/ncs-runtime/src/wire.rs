//! The cluster bootstrap and membership wire protocol.
//!
//! Three tiny framed exchanges, all carried over SCI (length-prefixed
//! TCP):
//!
//! * **rendezvous** — each rank sends one [`RvMsg::Register`] to `ncsd`
//!   and receives back either the full [`RvMsg::Roster`] (once every rank
//!   of the world has registered) or an [`RvMsg::Reject`];
//! * **membership** — a rank opens a long-lived channel with
//!   [`RvMsg::Subscribe`], pulses [`RvMsg::Heartbeat`]s up it and receives
//!   [`RvMsg::HeartbeatAck`]s and epoch-numbered [`RvMsg::View`]s back; a
//!   replacement rank replays state with [`RvMsg::Rejoin`] /
//!   [`RvMsg::Replay`] (see [`crate::membership`]);
//! * **peer handshake** — the first message on every freshly established
//!   NCS connection between two ranks is a [`ClusterHello`], proving both
//!   sides speak the same protocol version and are the rank the dialer
//!   thinks they are.
//!
//! Everything is hand-encoded big-endian: the protocol must stay readable
//! from any language without a serialisation dependency.

use std::net::SocketAddr;

use crate::membership::{Member, View};

/// Version of the cluster bootstrap protocol. Bumped on any wire change;
/// rendezvous and handshake both refuse mismatched peers outright (a
/// half-understood bootstrap is worse than a failed one). Version 2 added
/// the membership verbs (tags 6–12).
pub const PROTOCOL_VERSION: u32 = 2;

/// Magic prefix of a [`ClusterHello`] frame.
const HELLO_MAGIC: &[u8; 4] = b"NCSW";

/// Decode failures (malformed frame, unknown tag, bad UTF-8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed cluster frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(why: &str) -> WireError {
    WireError(why.to_owned())
}

/// A rendezvous message (rank <-> ncsd).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RvMsg {
    /// A rank announcing itself: "I am `rank` of a world of `world`,
    /// reachable at `addr`".
    Register {
        /// The sender's [`PROTOCOL_VERSION`].
        version: u32,
        /// Expected world size (must agree across all ranks and the
        /// server).
        world: u32,
        /// The sender's rank, in `0..world`.
        rank: u32,
        /// The sender's SCI listener address, as `ip:port`.
        addr: String,
    },
    /// The complete world roster, sent to every registered rank once the
    /// last one arrives.
    Roster {
        /// World size.
        world: u32,
        /// `(rank, listener address)` for every member, sorted by rank.
        members: Vec<(u32, String)>,
    },
    /// Registration refused (version/world mismatch, duplicate or
    /// out-of-range rank).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// A rank pushing its telemetry snapshot (the JSON produced by
    /// `Session::telemetry`) to `ncsd`, where `ncs-launch --telemetry`
    /// aggregates the world view.
    Telemetry {
        /// The reporting rank.
        rank: u32,
        /// The rank's telemetry dump (JSON object).
        json: String,
    },
    /// Acknowledgement of a [`RvMsg::Telemetry`] push (lets the rank
    /// shut down knowing the snapshot landed).
    TelemetryAck,
    /// Opens a rank's long-lived membership channel: the same connection
    /// then carries [`RvMsg::Heartbeat`]s up and [`RvMsg::View`]s /
    /// [`RvMsg::HeartbeatAck`]s down until either side closes it.
    Subscribe {
        /// The subscribing rank.
        rank: u32,
        /// The rank's incarnation (0 at first launch, bumped by the
        /// launcher on every respawn).
        incarnation: u32,
    },
    /// One failure-detector pulse from a rank.
    Heartbeat {
        /// The pulsing rank.
        rank: u32,
        /// Monotonic per-rank pulse counter.
        seq: u64,
        /// The sender's local clock reading (nanoseconds), echoed back in
        /// the ack so the sender can compute the round-trip time without
        /// any clock agreement.
        nanos: u64,
    },
    /// The service's answer to a [`RvMsg::Heartbeat`].
    HeartbeatAck {
        /// The pulse being acknowledged.
        seq: u64,
        /// The sender's clock reading, echoed verbatim.
        nanos: u64,
        /// The current view epoch (lets a rank notice it missed a view).
        view: u64,
        /// How many members the failure detector currently suspects.
        suspects: u32,
    },
    /// An epoch-numbered group view, pushed to every subscriber whenever
    /// membership changes.
    View {
        /// The view.
        view: View,
    },
    /// A rank leaving the world gracefully (rolling restart, scale-down).
    Leave {
        /// The departing rank.
        rank: u32,
    },
    /// A recovering or replacement rank announcing itself: re-adopts
    /// `rank` with a fresh listener address and incarnation, and asks for
    /// the roster + view state replay.
    Rejoin {
        /// The sender's [`PROTOCOL_VERSION`].
        version: u32,
        /// Expected world size.
        world: u32,
        /// The rank being re-adopted.
        rank: u32,
        /// The replacement's SCI listener address, as `ip:port`.
        addr: String,
        /// The replacement's incarnation (must exceed the dead one's).
        incarnation: u32,
    },
    /// The state replay answering a [`RvMsg::Rejoin`]: the post-join view
    /// (which carries every live member's address — the roster the
    /// replacement re-meshes against).
    Replay {
        /// The current view, with the rejoiner already a member.
        view: View,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn get_u32(bytes: &[u8], at: &mut usize) -> Result<u32, WireError> {
    let end = *at + 4;
    let v = bytes
        .get(*at..end)
        .ok_or_else(|| err("truncated u32"))?
        .try_into()
        .expect("4 bytes");
    *at = end;
    Ok(u32::from_be_bytes(v))
}

fn get_u64(bytes: &[u8], at: &mut usize) -> Result<u64, WireError> {
    let end = *at + 8;
    let v = bytes
        .get(*at..end)
        .ok_or_else(|| err("truncated u64"))?
        .try_into()
        .expect("8 bytes");
    *at = end;
    Ok(u64::from_be_bytes(v))
}

/// Encodes a rank list as a u32 count plus the ranks.
fn put_ranks(out: &mut Vec<u8>, ranks: &[u32]) {
    out.extend_from_slice(&(ranks.len() as u32).to_be_bytes());
    for r in ranks {
        out.extend_from_slice(&r.to_be_bytes());
    }
}

/// A peer-declared element count `n` of entries no smaller than
/// `min_entry` bytes, capped by what the rest of the frame can hold — so
/// a lying count costs a failed decode, never a large allocation.
fn capacity(n: u32, bytes: &[u8], at: usize, min_entry: usize) -> usize {
    (n as usize).min(bytes.len().saturating_sub(at) / min_entry)
}

fn get_ranks(bytes: &[u8], at: &mut usize) -> Result<Vec<u32>, WireError> {
    let n = get_u32(bytes, at)?;
    if n > 1 << 20 {
        return Err(err("implausible rank list size"));
    }
    (0..n).map(|_| get_u32(bytes, at)).collect()
}

fn put_view(out: &mut Vec<u8>, view: &View) {
    out.extend_from_slice(&view.id.to_be_bytes());
    out.extend_from_slice(&view.world.to_be_bytes());
    out.extend_from_slice(&(view.members.len() as u32).to_be_bytes());
    for m in &view.members {
        out.extend_from_slice(&m.rank.to_be_bytes());
        put_str(out, &m.addr);
        out.extend_from_slice(&m.incarnation.to_be_bytes());
    }
    put_ranks(out, &view.joined);
    put_ranks(out, &view.left);
    put_ranks(out, &view.dead);
}

fn get_view(bytes: &[u8], at: &mut usize) -> Result<View, WireError> {
    let id = get_u64(bytes, at)?;
    let world = get_u32(bytes, at)?;
    let n = get_u32(bytes, at)?;
    if n > 1 << 20 {
        return Err(err("implausible view size"));
    }
    // rank + string length + incarnation
    let mut members = Vec::with_capacity(capacity(n, bytes, *at, 10));
    for _ in 0..n {
        members.push(Member {
            rank: get_u32(bytes, at)?,
            addr: get_str(bytes, at)?,
            incarnation: get_u32(bytes, at)?,
        });
    }
    Ok(View {
        id,
        world,
        members,
        joined: get_ranks(bytes, at)?,
        left: get_ranks(bytes, at)?,
        dead: get_ranks(bytes, at)?,
    })
}

/// Telemetry dumps routinely exceed the `u16` string limit, so they ride
/// a 4-byte length prefix of their own.
fn put_str32(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn get_str32(bytes: &[u8], at: &mut usize) -> Result<String, WireError> {
    let len = get_u32(bytes, at)? as usize;
    if len > 1 << 26 {
        return Err(err("implausible telemetry payload size"));
    }
    let end = *at + len;
    let s = bytes.get(*at..end).ok_or_else(|| err("truncated string"))?;
    *at = end;
    String::from_utf8(s.to_vec()).map_err(|_| err("string is not UTF-8"))
}

fn get_str(bytes: &[u8], at: &mut usize) -> Result<String, WireError> {
    let lend = *at + 2;
    let len = u16::from_be_bytes(
        bytes
            .get(*at..lend)
            .ok_or_else(|| err("truncated string length"))?
            .try_into()
            .expect("2 bytes"),
    ) as usize;
    let end = lend + len;
    let s = bytes
        .get(lend..end)
        .ok_or_else(|| err("truncated string"))?;
    *at = end;
    String::from_utf8(s.to_vec()).map_err(|_| err("string is not UTF-8"))
}

impl RvMsg {
    /// Encodes this message as one SCI frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            RvMsg::Register {
                version,
                world,
                rank,
                addr,
            } => {
                out.push(1);
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&world.to_be_bytes());
                out.extend_from_slice(&rank.to_be_bytes());
                put_str(&mut out, addr);
            }
            RvMsg::Roster { world, members } => {
                out.push(2);
                out.extend_from_slice(&world.to_be_bytes());
                out.extend_from_slice(&(members.len() as u32).to_be_bytes());
                for (rank, addr) in members {
                    out.extend_from_slice(&rank.to_be_bytes());
                    put_str(&mut out, addr);
                }
            }
            RvMsg::Reject { reason } => {
                out.push(3);
                put_str(&mut out, reason);
            }
            RvMsg::Telemetry { rank, json } => {
                out.push(4);
                out.extend_from_slice(&rank.to_be_bytes());
                put_str32(&mut out, json);
            }
            RvMsg::TelemetryAck => out.push(5),
            RvMsg::Subscribe { rank, incarnation } => {
                out.push(6);
                out.extend_from_slice(&rank.to_be_bytes());
                out.extend_from_slice(&incarnation.to_be_bytes());
            }
            RvMsg::Heartbeat { rank, seq, nanos } => {
                out.push(7);
                out.extend_from_slice(&rank.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&nanos.to_be_bytes());
            }
            RvMsg::HeartbeatAck {
                seq,
                nanos,
                view,
                suspects,
            } => {
                out.push(8);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&nanos.to_be_bytes());
                out.extend_from_slice(&view.to_be_bytes());
                out.extend_from_slice(&suspects.to_be_bytes());
            }
            RvMsg::View { view } => {
                out.push(9);
                put_view(&mut out, view);
            }
            RvMsg::Leave { rank } => {
                out.push(10);
                out.extend_from_slice(&rank.to_be_bytes());
            }
            RvMsg::Rejoin {
                version,
                world,
                rank,
                addr,
                incarnation,
            } => {
                out.push(11);
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&world.to_be_bytes());
                out.extend_from_slice(&rank.to_be_bytes());
                put_str(&mut out, addr);
                out.extend_from_slice(&incarnation.to_be_bytes());
            }
            RvMsg::Replay { view } => {
                out.push(12);
                put_view(&mut out, view);
            }
        }
        out
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on anything that is not a well-formed message.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let tag = *bytes.first().ok_or_else(|| err("empty frame"))?;
        let mut at = 1;
        let msg = match tag {
            1 => {
                let version = get_u32(bytes, &mut at)?;
                let world = get_u32(bytes, &mut at)?;
                let rank = get_u32(bytes, &mut at)?;
                let addr = get_str(bytes, &mut at)?;
                RvMsg::Register {
                    version,
                    world,
                    rank,
                    addr,
                }
            }
            2 => {
                let world = get_u32(bytes, &mut at)?;
                let n = get_u32(bytes, &mut at)?;
                if n > 1 << 20 {
                    return Err(err("implausible roster size"));
                }
                // rank + string length
                let mut members = Vec::with_capacity(capacity(n, bytes, at, 6));
                for _ in 0..n {
                    let rank = get_u32(bytes, &mut at)?;
                    let addr = get_str(bytes, &mut at)?;
                    members.push((rank, addr));
                }
                RvMsg::Roster { world, members }
            }
            3 => RvMsg::Reject {
                reason: get_str(bytes, &mut at)?,
            },
            4 => RvMsg::Telemetry {
                rank: get_u32(bytes, &mut at)?,
                json: get_str32(bytes, &mut at)?,
            },
            5 => RvMsg::TelemetryAck,
            6 => RvMsg::Subscribe {
                rank: get_u32(bytes, &mut at)?,
                incarnation: get_u32(bytes, &mut at)?,
            },
            7 => RvMsg::Heartbeat {
                rank: get_u32(bytes, &mut at)?,
                seq: get_u64(bytes, &mut at)?,
                nanos: get_u64(bytes, &mut at)?,
            },
            8 => RvMsg::HeartbeatAck {
                seq: get_u64(bytes, &mut at)?,
                nanos: get_u64(bytes, &mut at)?,
                view: get_u64(bytes, &mut at)?,
                suspects: get_u32(bytes, &mut at)?,
            },
            9 => RvMsg::View {
                view: get_view(bytes, &mut at)?,
            },
            10 => RvMsg::Leave {
                rank: get_u32(bytes, &mut at)?,
            },
            11 => {
                let version = get_u32(bytes, &mut at)?;
                let world = get_u32(bytes, &mut at)?;
                let rank = get_u32(bytes, &mut at)?;
                let addr = get_str(bytes, &mut at)?;
                let incarnation = get_u32(bytes, &mut at)?;
                RvMsg::Rejoin {
                    version,
                    world,
                    rank,
                    addr,
                    incarnation,
                }
            }
            12 => RvMsg::Replay {
                view: get_view(bytes, &mut at)?,
            },
            other => return Err(err(&format!("unknown tag {other}"))),
        };
        if at != bytes.len() {
            return Err(err("trailing bytes"));
        }
        Ok(msg)
    }
}

/// The world roster a rank receives from rendezvous: who is where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    /// World size.
    pub world: u32,
    /// `(rank, SCI listener address)`, sorted by rank, one per member.
    pub members: Vec<(u32, SocketAddr)>,
}

impl Roster {
    /// Parses and validates a [`RvMsg::Roster`]'s members: exactly the
    /// ranks `0..world`, each with a parseable socket address.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the member set is not exactly `0..world` or an
    /// address does not parse.
    pub fn from_members(world: u32, raw: &[(u32, String)]) -> Result<Self, WireError> {
        if raw.len() != world as usize {
            return Err(err(&format!(
                "roster has {} members for a world of {world}",
                raw.len()
            )));
        }
        let mut members = Vec::with_capacity(raw.len());
        for (rank, addr) in raw {
            if *rank >= world {
                return Err(err(&format!("rank {rank} out of range (world {world})")));
            }
            let parsed: SocketAddr = addr
                .parse()
                .map_err(|_| err(&format!("unparseable member address '{addr}'")))?;
            members.push((*rank, parsed));
        }
        members.sort_by_key(|&(r, _)| r);
        if members.iter().enumerate().any(|(i, &(r, _))| r != i as u32) {
            return Err(err("roster ranks are not exactly 0..world"));
        }
        Ok(Roster { world, members })
    }

    /// The listener address of `rank`.
    pub fn addr_of(&self, rank: u32) -> Option<SocketAddr> {
        self.members
            .iter()
            .find(|&&(r, _)| r == rank)
            .map(|&(_, a)| a)
    }
}

/// The first message both ends exchange on every freshly established
/// cluster connection: protocol version plus the sender's identity, so a
/// miswired or skewed peer is refused before any data flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterHello {
    /// The sender's [`PROTOCOL_VERSION`].
    pub version: u32,
    /// The sender's rank.
    pub rank: u32,
    /// The sender's world size.
    pub world: u32,
}

impl ClusterHello {
    /// Encodes the 16-byte hello frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(HELLO_MAGIC);
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&self.rank.to_be_bytes());
        out.extend_from_slice(&self.world.to_be_bytes());
        out
    }

    /// Decodes a hello frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] unless the frame is exactly a magic-prefixed hello.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() != 16 || &bytes[..4] != HELLO_MAGIC {
            return Err(err("not a cluster hello"));
        }
        let mut at = 4;
        Ok(ClusterHello {
            version: get_u32(bytes, &mut at)?,
            rank: get_u32(bytes, &mut at)?,
            world: get_u32(bytes, &mut at)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rv_messages_round_trip() {
        let msgs = vec![
            RvMsg::Register {
                version: PROTOCOL_VERSION,
                world: 4,
                rank: 2,
                addr: "127.0.0.1:4711".into(),
            },
            RvMsg::Roster {
                world: 2,
                members: vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
            },
            RvMsg::Reject {
                reason: "duplicate rank 2".into(),
            },
            RvMsg::Telemetry {
                rank: 1,
                // Exceeds the u16 string limit: rides the u32 length.
                json: format!("{{\"node\":\"rank1\",\"pad\":\"{}\"}}", "x".repeat(70_000)),
            },
            RvMsg::TelemetryAck,
            RvMsg::Subscribe {
                rank: 3,
                incarnation: 1,
            },
            RvMsg::Heartbeat {
                rank: 2,
                seq: u64::MAX - 1,
                nanos: 123_456_789_000,
            },
            RvMsg::HeartbeatAck {
                seq: 7,
                nanos: 123_456_789_000,
                view: 42,
                suspects: 1,
            },
            RvMsg::View {
                view: View {
                    id: 9,
                    world: 4,
                    members: vec![
                        Member {
                            rank: 0,
                            addr: "127.0.0.1:1".into(),
                            incarnation: 0,
                        },
                        Member {
                            rank: 2,
                            addr: "127.0.0.1:3".into(),
                            incarnation: 2,
                        },
                    ],
                    joined: vec![2],
                    left: vec![],
                    dead: vec![1, 3],
                },
            },
            RvMsg::Leave { rank: 1 },
            RvMsg::Rejoin {
                version: PROTOCOL_VERSION,
                world: 4,
                rank: 2,
                addr: "127.0.0.1:4712".into(),
                incarnation: 1,
            },
            RvMsg::Replay {
                view: View {
                    id: 1,
                    world: 2,
                    members: vec![],
                    joined: vec![],
                    left: vec![],
                    dead: vec![],
                },
            },
        ];
        for m in msgs {
            assert_eq!(RvMsg::decode(&m.encode()), Ok(m.clone()));
        }
    }

    #[test]
    fn rv_decode_rejects_garbage() {
        assert!(RvMsg::decode(&[]).is_err());
        assert!(RvMsg::decode(&[9, 1, 2]).is_err());
        let mut ok = RvMsg::Reject { reason: "x".into() }.encode();
        ok.push(0); // trailing byte
        assert!(RvMsg::decode(&ok).is_err());
        let truncated = &RvMsg::Register {
            version: 1,
            world: 2,
            rank: 0,
            addr: "127.0.0.1:9".into(),
        }
        .encode()[..7];
        assert!(RvMsg::decode(truncated).is_err());
    }

    #[test]
    fn roster_validates_member_set() {
        let ok = Roster::from_members(2, &[(1, "127.0.0.1:2".into()), (0, "127.0.0.1:1".into())])
            .unwrap();
        assert_eq!(ok.members[0].0, 0); // sorted
        assert_eq!(ok.addr_of(1), Some("127.0.0.1:2".parse().unwrap()));
        assert!(ok.addr_of(2).is_none());
        // Wrong count, duplicate rank, out-of-range rank, bad address.
        assert!(Roster::from_members(2, &[(0, "127.0.0.1:1".into())]).is_err());
        assert!(
            Roster::from_members(2, &[(0, "127.0.0.1:1".into()), (0, "127.0.0.1:2".into())])
                .is_err()
        );
        assert!(
            Roster::from_members(2, &[(0, "127.0.0.1:1".into()), (5, "127.0.0.1:2".into())])
                .is_err()
        );
        assert!(
            Roster::from_members(2, &[(0, "127.0.0.1:1".into()), (1, "not-an-addr".into())])
                .is_err()
        );
    }

    #[test]
    fn hello_round_trips_and_rejects_noise() {
        let h = ClusterHello {
            version: PROTOCOL_VERSION,
            rank: 3,
            world: 8,
        };
        assert_eq!(ClusterHello::decode(&h.encode()), Ok(h));
        assert!(ClusterHello::decode(b"NCSWxx").is_err());
        assert!(ClusterHello::decode(b"XXXX0123456789ab").is_err());
    }
}
