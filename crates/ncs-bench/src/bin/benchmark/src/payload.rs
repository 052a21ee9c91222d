//! Seed-derived message payloads that a receiver can check on its own.
//!
//! Every message carries its sequence number in bytes 0..8. Messages of
//! 24 bytes or more also carry the send timestamp (bytes 8..16, the
//! process clock of [`now_ns`]), a body copied from a block generated from
//! the seed, and a closing 8-byte checksum over sequence, timestamp and
//! seed. Shorter messages (the 8-byte stream) have no room for that, so the
//! top 24 bits of the sequence word hold a hash of seed and sequence.
//!
//! The sender patches header and checksum into a prepared buffer — O(1) per
//! message, so generating load does not compete with the system for the one
//! pinned CPU — while the receiver checks order, exactly-once delivery and
//! every byte.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds on the process-wide monotonic clock every span and embedded
/// timestamp shares.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// SplitMix64 finalizer: the one mixing function behind every derived value.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// Smallest message with room for timestamp and checksum.
const FULL_LAYOUT: usize = 24;

/// Why a received message was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    Length,
    /// Lost, duplicated or reordered: the sequence number actually seen.
    Sequence(u64),
    Checksum,
    Body,
}

/// Generator and checker for one workload's messages.
#[derive(Debug, Clone)]
pub struct Payloads {
    seed: u64,
    /// Message `seq` is `lens[seq % lens.len()]` bytes long.
    lens: Vec<usize>,
    /// A longest-length message whose body bytes are the seed-derived block;
    /// shorter messages use its prefix.
    block: Vec<u8>,
}

impl Payloads {
    /// Messages of one length.
    pub fn new(seed: u64, len: usize) -> Self {
        Self::cycling(seed, &[len])
    }

    /// Messages whose lengths cycle through `lens`.
    ///
    /// # Panics
    ///
    /// Panics if `lens` is empty or a length is under 8: the sequence
    /// number needs eight bytes.
    pub fn cycling(seed: u64, lens: &[usize]) -> Self {
        let longest = *lens.iter().max().expect("at least one message length");
        assert!(
            lens.iter().all(|&l| l >= 8),
            "a message needs room for its sequence number"
        );
        let mut block = vec![0u8; longest];
        let mut state = mix(seed ^ longest as u64);
        for chunk in block.chunks_mut(8) {
            state = mix(state);
            chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
        }
        Payloads {
            seed,
            lens: lens.to_vec(),
            block,
        }
    }

    /// Length of message `seq`.
    pub fn len_of(&self, seq: u64) -> usize {
        self.lens[(seq % self.lens.len() as u64) as usize]
    }

    /// A send buffer holding the body; [`Payloads::stamp`] completes it.
    pub fn template(&self) -> Vec<u8> {
        self.block.clone()
    }

    fn checksum(&self, seq: u64, sent_ns: u64) -> u64 {
        mix(self.seed ^ mix(seq) ^ sent_ns.rotate_left(17))
    }

    fn short_word(&self, seq: u64) -> u64 {
        (seq & SEQ_MASK) | (mix(self.seed ^ seq) << SEQ_BITS)
    }

    /// Turns `buf` (from [`Payloads::template`]) into message `seq`, sent
    /// now, and returns the bytes to send.
    pub fn stamp<'b>(&self, buf: &'b mut [u8], seq: u64) -> &'b [u8] {
        let len = self.len_of(seq);
        if len < FULL_LAYOUT {
            buf[..8].copy_from_slice(&self.short_word(seq).to_le_bytes());
            return &buf[..len];
        }
        // A shorter message's checksum overwrote body bytes of the longer.
        for &l in &self.lens {
            buf[l - 8..l].copy_from_slice(&self.block[l - 8..l]);
        }
        let sent_ns = now_ns();
        buf[..8].copy_from_slice(&seq.to_le_bytes());
        buf[8..16].copy_from_slice(&sent_ns.to_le_bytes());
        buf[len - 8..len].copy_from_slice(&self.checksum(seq, sent_ns).to_le_bytes());
        &buf[..len]
    }

    /// Checks that `msg` is exactly message `expect_seq`. Returns its send
    /// timestamp (0 for short messages, which carry none).
    pub fn verify(&self, msg: &[u8], expect_seq: u64) -> Result<u64, Mismatch> {
        let len = msg.len();
        if !self.lens.contains(&len) {
            return Err(Mismatch::Length);
        }
        let word = |at: usize| u64::from_le_bytes(msg[at..at + 8].try_into().expect("8 bytes"));
        if len < FULL_LAYOUT {
            let seq = word(0) & SEQ_MASK;
            if seq != expect_seq & SEQ_MASK {
                return Err(Mismatch::Sequence(seq));
            }
            if word(0) != self.short_word(expect_seq) {
                return Err(Mismatch::Checksum);
            }
            if len != self.len_of(seq) {
                return Err(Mismatch::Length);
            }
            if msg[8..] != self.block[8..len] {
                return Err(Mismatch::Body);
            }
            return Ok(0);
        }
        let (seq, sent_ns) = (word(0), word(8));
        if seq != expect_seq {
            return Err(Mismatch::Sequence(seq));
        }
        if len != self.len_of(seq) {
            return Err(Mismatch::Length);
        }
        if word(len - 8) != self.checksum(seq, sent_ns) {
            return Err(Mismatch::Checksum);
        }
        if msg[16..len - 8] != self.block[16..len - 8] {
            return Err(Mismatch::Body);
        }
        Ok(sent_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_layout() {
        for len in [8usize, 16, 24, 64, 16 * 1024] {
            let p = Payloads::new(7, len);
            let mut buf = p.template();
            for seq in [0u64, 1, 999_999] {
                let msg = p.stamp(&mut buf, seq).to_vec();
                assert_eq!(msg.len(), len);
                let sent = p.verify(&msg, seq).expect("own message verifies");
                assert_eq!(sent == 0, len < FULL_LAYOUT);
            }
        }
    }

    #[test]
    fn cycling_lengths_round_trip_in_any_order() {
        let p = Payloads::cycling(7, &[4096, 1024]);
        let mut buf = p.template();
        for seq in [0u64, 1, 2, 3, 1, 0] {
            let msg = p.stamp(&mut buf, seq).to_vec();
            assert_eq!(msg.len(), if seq % 2 == 0 { 4096 } else { 1024 });
            p.verify(&msg, seq).expect("own message verifies");
        }
        // Message 1 at message 0's length is not message 1.
        let long = p.stamp(&mut buf, 0).to_vec();
        let mut forged = long.clone();
        forged[..8].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(p.verify(&forged, 1), Err(Mismatch::Length));
    }

    #[test]
    fn rejects_wrong_order_content_and_seed() {
        let p = Payloads::new(7, 64);
        let mut buf = p.template();
        let msg = p.stamp(&mut buf, 5).to_vec();
        assert_eq!(p.verify(&msg, 6), Err(Mismatch::Sequence(5)));
        assert_eq!(p.verify(&msg[..63], 5), Err(Mismatch::Length));
        let mut flipped = msg.clone();
        flipped[30] ^= 1;
        assert_eq!(p.verify(&flipped, 5), Err(Mismatch::Body));
        let mut restamped = msg.clone();
        restamped[8] ^= 1;
        assert_eq!(p.verify(&restamped, 5), Err(Mismatch::Checksum));
        assert!(Payloads::new(8, 64).verify(&msg, 5).is_err());

        let short = Payloads::new(7, 8);
        let mut b = short.template();
        let msg = short.stamp(&mut b, 41).to_vec();
        assert_eq!(short.verify(&msg, 42), Err(Mismatch::Sequence(41)));
        assert_eq!(
            Payloads::new(9, 8).verify(&msg, 41),
            Err(Mismatch::Checksum)
        );
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(
            Payloads::new(3, 4096).template(),
            Payloads::new(3, 4096).template()
        );
        assert_ne!(
            Payloads::new(3, 4096).template(),
            Payloads::new(4, 4096).template()
        );
    }
}
