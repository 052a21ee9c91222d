//! Fault injection: per-link cell loss and payload bit errors.
//!
//! All randomness is seeded, so a given topology + seed reproduces the same
//! loss pattern cell for cell — tests and experiments are deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault model attached to a link.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability that any given cell is silently dropped.
    pub cell_loss: f64,
    /// Probability that a cell's payload suffers a bit error (detected later
    /// by the AAL5 CRC, discarding the whole frame).
    pub bit_error: f64,
    /// RNG seed for this link's fault process.
    pub seed: u64,
    /// A deterministic drop schedule: the 0-based indices of best-effort
    /// (CLP 1) cells to drop, counted per fault process. Unlike the
    /// probabilistic knobs this is an exact plan — cell `i` of the
    /// direction is dropped iff `i` is listed — which lets a test assert
    /// that recovery work (e.g. retransmission counters) matches the
    /// injected faults one for one. Applies only to the link's forward
    /// direction (first-named endpoint to second); the reverse direction
    /// never consults the plan.
    pub drop_cells: Vec<u64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSpec {
    /// A fault-free link.
    pub fn none() -> Self {
        FaultSpec {
            cell_loss: 0.0,
            bit_error: 0.0,
            seed: 0,
            drop_cells: Vec::new(),
        }
    }

    /// Uniform cell loss with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn cell_loss(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        FaultSpec {
            cell_loss: p,
            bit_error: 0.0,
            seed,
            drop_cells: Vec::new(),
        }
    }

    /// Uniform payload bit errors with probability `p` per cell.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn bit_error(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        FaultSpec {
            cell_loss: 0.0,
            bit_error: p,
            seed,
            drop_cells: Vec::new(),
        }
    }

    /// An exact drop plan: best-effort cell `i` of the link's forward
    /// direction is dropped iff `i` is in `cells` (0-based, counted over
    /// CLP 1 cells only, as with the probabilistic knobs).
    pub fn drop_plan(cells: Vec<u64>) -> Self {
        FaultSpec {
            cell_loss: 0.0,
            bit_error: 0.0,
            seed: 0,
            drop_cells: cells,
        }
    }

    /// Whether this spec can ever perturb a cell.
    pub fn is_active(&self) -> bool {
        self.cell_loss > 0.0 || self.bit_error > 0.0 || !self.drop_cells.is_empty()
    }
}

/// What the fault process decided for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver unmodified.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver with the payload corrupted (bit `bit` of byte `byte` flipped).
    Corrupt {
        /// Payload byte index to corrupt.
        byte: usize,
        /// Bit within that byte.
        bit: u8,
    },
}

/// The live fault process for one link direction.
#[derive(Debug)]
pub struct FaultProcess {
    spec: FaultSpec,
    rng: StdRng,
    /// Index of the next best-effort cell this process will judge (the
    /// cursor of the [`FaultSpec::drop_cells`] plan).
    index: u64,
}

impl FaultProcess {
    /// Instantiates the process for `spec`.
    pub fn new(mut spec: FaultSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        spec.drop_cells.sort_unstable();
        FaultProcess {
            spec,
            rng,
            index: 0,
        }
    }

    /// Decides the fate of the next cell.
    pub fn next_fate(&mut self) -> Fate {
        if !self.spec.is_active() {
            return Fate::Deliver;
        }
        let index = self.index;
        self.index += 1;
        if self.spec.drop_cells.binary_search(&index).is_ok() {
            return Fate::Drop;
        }
        if self.spec.cell_loss > 0.0 && self.rng.gen_bool(self.spec.cell_loss) {
            return Fate::Drop;
        }
        if self.spec.bit_error > 0.0 && self.rng.gen_bool(self.spec.bit_error) {
            return Fate::Corrupt {
                byte: self.rng.gen_range(0..crate::cell::CELL_PAYLOAD),
                bit: self.rng.gen_range(0..8),
            };
        }
        Fate::Deliver
    }

    /// The configured spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_always_deliver() {
        let mut p = FaultProcess::new(FaultSpec::none());
        for _ in 0..1000 {
            assert_eq!(p.next_fate(), Fate::Deliver);
        }
    }

    #[test]
    fn loss_rate_is_approximately_honored() {
        let mut p = FaultProcess::new(FaultSpec::cell_loss(0.2, 42));
        let drops = (0..10_000).filter(|_| p.next_fate() == Fate::Drop).count();
        assert!((1600..2400).contains(&drops), "drops={drops}");
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = FaultProcess::new(FaultSpec::cell_loss(0.5, 7));
        let mut b = FaultProcess::new(FaultSpec::cell_loss(0.5, 7));
        for _ in 0..500 {
            assert_eq!(a.next_fate(), b.next_fate());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultProcess::new(FaultSpec::cell_loss(0.5, 1));
        let mut b = FaultProcess::new(FaultSpec::cell_loss(0.5, 2));
        let same = (0..200).filter(|_| a.next_fate() == b.next_fate()).count();
        assert!(same < 200);
    }

    #[test]
    fn bit_errors_pick_valid_positions() {
        let mut p = FaultProcess::new(FaultSpec::bit_error(1.0, 3));
        for _ in 0..100 {
            match p.next_fate() {
                Fate::Corrupt { byte, bit } => {
                    assert!(byte < crate::cell::CELL_PAYLOAD);
                    assert!(bit < 8);
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_probability_rejected() {
        let _ = FaultSpec::cell_loss(1.5, 0);
    }

    #[test]
    fn drop_plan_hits_exactly_the_listed_cells() {
        let mut p = FaultProcess::new(FaultSpec::drop_plan(vec![7, 2, 11]));
        let fates: Vec<Fate> = (0..20).map(|_| p.next_fate()).collect();
        for (i, fate) in fates.iter().enumerate() {
            let expect = if [2, 7, 11].contains(&i) {
                Fate::Drop
            } else {
                Fate::Deliver
            };
            assert_eq!(*fate, expect, "cell {i}");
        }
    }

    #[test]
    fn drop_plan_composes_with_probabilistic_loss() {
        // The plan fires on its indices regardless of what the RNG rolls.
        let mut spec = FaultSpec::cell_loss(0.5, 9);
        spec.drop_cells = vec![0, 1, 2, 3];
        let mut p = FaultProcess::new(spec);
        for i in 0..4 {
            assert_eq!(p.next_fate(), Fate::Drop, "cell {i}");
        }
    }
}
