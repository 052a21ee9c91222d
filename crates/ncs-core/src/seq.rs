//! Sequence-number bitmap for the selective-repeat acknowledgement, and
//! wrapping counter comparison.
//!
//! Mirrors the paper's Figure 5: the receiver keeps one bit per SDU,
//! **1 = not yet received correctly** ("error"), clearing bits as packets
//! arrive; the sender retransmits every sequence number whose bit is still
//! set.

/// Whether the wrapping counter `a` is ahead of `b`: less than half the
/// `u32` space past it (serial-number arithmetic, RFC 1982).
pub(crate) fn wrapping_after(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < 1 << 31
}

/// How far the wrapping counter `a` is ahead of `b`; 0 if it is not.
pub(crate) fn wrapping_ahead(a: u32, b: u32) -> u32 {
    if wrapping_after(a, b) {
        a.wrapping_sub(b)
    } else {
        0
    }
}

/// Bitmap of outstanding (not-yet-received) SDUs for one message.
///
/// The first word is kept inline, so a bitmap of up to 64 SDUs — every
/// message of a 4 KiB-SDU connection up to 256 KiB — never touches the
/// heap; only the words past it do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckBitmap {
    /// Total SDUs in the message.
    total: u32,
    /// Bit `i` set <=> SDU `i` missing, for SDUs 0-63.
    first: u64,
    /// The same for SDUs 64 and up, one word per 64; empty up to 64 SDUs.
    rest: Vec<u64>,
}

impl AckBitmap {
    /// Maximum SDU count per message (wire-format sanity bound: a 16 MB
    /// message at the minimum 256-byte SDU).
    pub const MAX_TOTAL: u32 = 65_536;

    /// A bitmap for a message of `total` SDUs, every word `fill`.
    fn filled(total: u32, fill: u64) -> Self {
        assert!(
            total > 0 && total <= Self::MAX_TOTAL,
            "SDU count out of range: {total}"
        );
        let mut bitmap = AckBitmap {
            total,
            first: fill,
            rest: vec![fill; (total as usize - 1) / 64],
        };
        bitmap.mask_tail();
        bitmap
    }

    /// A bitmap for a message of `total` SDUs, all initially missing
    /// (the paper's `Bitmap <- 1` initialisation).
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or exceeds [`AckBitmap::MAX_TOTAL`].
    pub fn all_missing(total: u32) -> Self {
        Self::filled(total, u64::MAX)
    }

    /// A bitmap with every SDU received (used for the final clean ACK).
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or exceeds [`AckBitmap::MAX_TOTAL`].
    pub fn all_received(total: u32) -> Self {
        Self::filled(total, 0)
    }

    /// Clears the bits of the last word past `total`; returns whether
    /// any was set.
    fn mask_tail(&mut self) -> bool {
        let tail_bits = self.total % 64;
        let last = self.rest.last_mut().unwrap_or(&mut self.first);
        let before = *last;
        if tail_bits != 0 {
            *last &= (1u64 << tail_bits) - 1;
        }
        *last != before
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// The word holding SDU `seq`'s bit.
    fn word(&self, seq: u32) -> u64 {
        match seq / 64 {
            0 => self.first,
            i => self.rest[i as usize - 1],
        }
    }

    fn word_mut(&mut self, seq: u32) -> &mut u64 {
        match seq / 64 {
            0 => &mut self.first,
            i => &mut self.rest[i as usize - 1],
        }
    }

    /// Total SDUs covered.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Marks SDU `seq` as received (clears its bit).
    ///
    /// # Panics
    ///
    /// Panics if `seq >= total`.
    pub fn mark_received(&mut self, seq: u32) {
        assert!(seq < self.total, "seq {seq} out of range {}", self.total);
        *self.word_mut(seq) &= !(1u64 << (seq % 64));
    }

    /// Whether SDU `seq` is still missing.
    pub fn is_missing(&self, seq: u32) -> bool {
        seq < self.total && self.word(seq) & (1u64 << (seq % 64)) != 0
    }

    /// Whether any SDU is still missing (the paper's `Bitmap > 0`).
    pub fn any_missing(&self) -> bool {
        self.words().any(|w| w != 0)
    }

    /// Sequence numbers still missing, ascending.
    pub fn missing(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (wi, word) in self.words().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push(wi as u32 * 64 + bit);
                w &= w - 1;
            }
        }
        out
    }

    /// Number of SDUs still missing.
    pub fn missing_count(&self) -> u32 {
        self.words().map(|w| w.count_ones()).sum()
    }

    /// Wire encoding: `total:u32` then the words, big-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + (1 + self.rest.len()) * 8);
        self.encode_into(&mut out);
        out
    }

    /// [`AckBitmap::encode`], appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.total.to_be_bytes());
        for w in self.words() {
            out.extend_from_slice(&w.to_be_bytes());
        }
    }

    /// Decodes a bitmap produced by [`AckBitmap::encode`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformation.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 4 {
            return Err("bitmap too short".to_owned());
        }
        let total = u32::from_be_bytes(bytes[..4].try_into().expect("4 bytes"));
        if total == 0 || total > Self::MAX_TOTAL {
            return Err(format!("bitmap total out of range: {total}"));
        }
        let nwords = (total as usize).div_ceil(64);
        if bytes.len() != 4 + nwords * 8 {
            return Err(format!(
                "bitmap length mismatch: expected {} bytes, got {}",
                4 + nwords * 8,
                bytes.len()
            ));
        }
        let mut words = bytes[4..]
            .chunks_exact(8)
            .map(|w| u64::from_be_bytes(w.try_into().expect("8 bytes")));
        let mut bitmap = AckBitmap {
            total,
            first: words.next().expect("at least one word"),
            rest: words.collect(),
        };
        if bitmap.mask_tail() {
            return Err("bitmap has bits set beyond total".to_owned());
        }
        Ok(bitmap)
    }
}

impl std::fmt::Display for AckBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} missing", self.missing_count(), self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_missing_and_clears() {
        let mut b = AckBitmap::all_missing(10);
        assert!(b.any_missing());
        assert_eq!(b.missing_count(), 10);
        for i in 0..10 {
            assert!(b.is_missing(i));
            b.mark_received(i);
        }
        assert!(!b.any_missing());
        assert_eq!(b.missing(), Vec::<u32>::new());
    }

    #[test]
    fn partial_reception_reports_exact_gaps() {
        let mut b = AckBitmap::all_missing(130); // crosses word boundaries
        for i in 0..130 {
            if i % 7 != 0 {
                b.mark_received(i);
            }
        }
        let expected: Vec<u32> = (0..130).filter(|i| i % 7 == 0).collect();
        assert_eq!(b.missing(), expected);
        assert_eq!(b.missing_count(), expected.len() as u32);
    }

    #[test]
    fn tail_bits_are_masked() {
        let b = AckBitmap::all_missing(65);
        assert_eq!(b.missing_count(), 65);
        assert!(!b.is_missing(65)); // out of range is "not missing"
        assert!(!b.is_missing(1000));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut b = AckBitmap::all_missing(200);
        for i in [0, 5, 63, 64, 65, 128, 199] {
            b.mark_received(i);
        }
        let decoded = AckBitmap::decode(&b.encode()).unwrap();
        assert_eq!(decoded, b);
    }

    #[test]
    fn all_received_is_clean() {
        let b = AckBitmap::all_received(17);
        assert!(!b.any_missing());
        assert_eq!(AckBitmap::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(AckBitmap::decode(&[]).is_err());
        assert!(AckBitmap::decode(&0u32.to_be_bytes()).is_err());
        // Length mismatch.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(AckBitmap::decode(&bytes).is_err());
        // Bits beyond total.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_be_bytes());
        assert!(AckBitmap::decode(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_total_rejected() {
        let _ = AckBitmap::all_missing(0);
    }

    #[test]
    fn wrapping_comparison_survives_the_wrap() {
        assert!(wrapping_after(1, 0) && !wrapping_after(0, 1) && !wrapping_after(5, 5));
        assert!(wrapping_after(2, u32::MAX - 1));
        assert_eq!(wrapping_ahead(2, u32::MAX - 1), 4);
        assert_eq!(wrapping_ahead(u32::MAX - 1, 2), 0);
    }

    #[test]
    fn display_shows_progress() {
        let mut b = AckBitmap::all_missing(4);
        b.mark_received(1);
        assert_eq!(b.to_string(), "3/4 missing");
    }
}
