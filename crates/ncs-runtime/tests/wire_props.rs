//! Hostile bytes against the cluster wire decoders (`RvMsg`,
//! `ClusterHello`): `ncsd` decodes every frame any TCP client sends it,
//! and every rank decodes the hello of every peer that dials it. Whatever
//! arrives — noise, a valid frame cut short, a valid frame with one byte
//! changed — decoding stays inside `Result<_, WireError>`, and whatever
//! it accepts re-encodes to exactly the bytes it read.

use ncs_runtime::membership::{Member, View};
use ncs_runtime::{ClusterHello, RvMsg, PROTOCOL_VERSION};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

/// Any address-like string (the codec carries it verbatim).
fn text(rng: &mut TestRng) -> String {
    "[a-z0-9.:]{0,24}".generate(rng)
}

fn ranks(rng: &mut TestRng) -> Vec<u32> {
    proptest::collection::vec(0u32..64, 0..5).generate(rng)
}

fn view(rng: &mut TestRng) -> View {
    let n = rng.below(5) as usize;
    View {
        id: rng.next_u64(),
        world: rng.next_u64() as u32,
        members: (0..n)
            .map(|_| Member {
                rank: rng.next_u64() as u32,
                addr: text(rng),
                incarnation: rng.next_u64() as u32,
            })
            .collect(),
        joined: ranks(rng),
        left: ranks(rng),
        dead: ranks(rng),
    }
}

/// Every `RvMsg` variant, with arbitrary field values.
#[derive(Debug, Clone, Copy)]
struct AnyMsg;

impl Strategy for AnyMsg {
    type Value = RvMsg;
    fn generate(&self, rng: &mut TestRng) -> RvMsg {
        let u32_ = |rng: &mut TestRng| rng.next_u64() as u32;
        match rng.below(12) {
            0 => RvMsg::Register {
                version: u32_(rng),
                world: u32_(rng),
                rank: u32_(rng),
                addr: text(rng),
            },
            1 => RvMsg::Roster {
                world: u32_(rng),
                members: (0..rng.below(5)).map(|r| (r as u32, text(rng))).collect(),
            },
            2 => RvMsg::Reject { reason: text(rng) },
            3 => RvMsg::Telemetry {
                rank: u32_(rng),
                json: text(rng),
            },
            4 => RvMsg::TelemetryAck,
            5 => RvMsg::Subscribe {
                rank: u32_(rng),
                incarnation: u32_(rng),
            },
            6 => RvMsg::Heartbeat {
                rank: u32_(rng),
                seq: rng.next_u64(),
                nanos: rng.next_u64(),
            },
            7 => RvMsg::HeartbeatAck {
                seq: rng.next_u64(),
                nanos: rng.next_u64(),
                view: rng.next_u64(),
                suspects: u32_(rng),
            },
            8 => RvMsg::View { view: view(rng) },
            9 => RvMsg::Leave { rank: u32_(rng) },
            10 => RvMsg::Rejoin {
                version: PROTOCOL_VERSION,
                world: u32_(rng),
                rank: u32_(rng),
                addr: text(rng),
                incarnation: u32_(rng),
            },
            _ => RvMsg::Replay { view: view(rng) },
        }
    }
}

/// Decodes `bytes` both ways; whatever either decoder accepts must be
/// the canonical encoding of what it returned.
fn decode_is_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(msg) = RvMsg::decode(bytes) {
        prop_assert_eq!(
            msg.encode(),
            bytes.to_vec(),
            "accepted a non-canonical frame"
        );
    }
    if let Ok(hello) = ClusterHello::decode(bytes) {
        prop_assert_eq!(
            hello.encode(),
            bytes.to_vec(),
            "accepted a non-canonical hello"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        decode_is_total(&bytes)?;
    }

    /// Noise behind a real tag reaches every variant's field decoders.
    #[test]
    fn arbitrary_bodies_behind_every_tag_never_panic(
        tag in 0u8..14,
        body in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut bytes = vec![tag];
        bytes.extend(body);
        decode_is_total(&bytes)?;
    }

    #[test]
    fn valid_frames_round_trip(msg in AnyMsg) {
        prop_assert_eq!(RvMsg::decode(&msg.encode()), Ok(msg));
    }

    /// A frame cut anywhere short of its end is refused.
    #[test]
    fn truncated_frames_are_refused(msg in AnyMsg, cut in any::<usize>()) {
        let bytes = msg.encode();
        let cut = cut % bytes.len();
        prop_assert!(RvMsg::decode(&bytes[..cut]).is_err(), "accepted {} of {} bytes", cut, bytes.len());
    }

    #[test]
    fn single_byte_mutations_never_panic(msg in AnyMsg, at in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = msg.encode();
        let at = at % bytes.len();
        bytes[at] = byte;
        decode_is_total(&bytes)?;
    }

    #[test]
    fn hellos_round_trip_and_refuse_cuts_and_mutations(
        version in any::<u32>(),
        rank in any::<u32>(),
        world in any::<u32>(),
        at in 0usize..16,
        byte in any::<u8>(),
    ) {
        let hello = ClusterHello { version, rank, world };
        let bytes = hello.encode();
        prop_assert_eq!(ClusterHello::decode(&bytes), Ok(hello));
        prop_assert!(ClusterHello::decode(&bytes[..at]).is_err());
        let mut mutated = bytes.clone();
        mutated[at] = byte;
        decode_is_total(&mutated)?;
    }
}
