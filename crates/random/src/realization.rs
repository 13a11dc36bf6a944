//! Realizations `ρ = {(i, x_i)} ∈ R(t)`: the randomness received by every
//! node up to time `t`.

use std::fmt;

use rand::Rng;

use crate::assignment::Assignment;
use crate::bits::BitString;
use crate::error::RandomError;

/// A facet of the realization complex `R(t)`: one bit string per node, all
/// of the same length `t`.
///
/// # Example
///
/// ```
/// use rsbt_random::{Assignment, BitString, Realization};
///
/// let rho = Realization::new(vec![
///     BitString::from_bits([true]),
///     BitString::from_bits([true]),
/// ])?;
/// let shared = Assignment::shared(2);
/// let private = Assignment::private(2);
/// // Lemma B.1: consistent realizations have probability 2^{-tk}.
/// assert_eq!(rho.probability(&shared), 0.5);   // k = 1, t = 1
/// assert_eq!(rho.probability(&private), 0.25); // k = 2, t = 1
/// # Ok::<(), rsbt_random::RandomError>(())
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Realization {
    strings: Vec<BitString>,
    t: usize,
}

impl Realization {
    /// Builds a realization from per-node bit strings.
    ///
    /// # Errors
    ///
    /// * [`RandomError::EmptyAssignment`] if `strings` is empty;
    /// * [`RandomError::RaggedRealization`] if lengths differ.
    pub fn new(strings: Vec<BitString>) -> Result<Self, RandomError> {
        let t = match strings.first() {
            None => return Err(RandomError::EmptyAssignment),
            Some(s) => s.len(),
        };
        if strings.iter().any(|s| s.len() != t) {
            return Err(RandomError::RaggedRealization);
        }
        Ok(Realization { strings, t })
    }

    /// The time `t` covered by this realization.
    pub fn time(&self) -> usize {
        self.t
    }

    /// The number of nodes `n`.
    pub fn n(&self) -> usize {
        self.strings.len()
    }

    /// The bit string received by node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn node(&self, i: usize) -> BitString {
        self.strings[i]
    }

    /// All per-node bit strings, node order.
    pub fn strings(&self) -> &[BitString] {
        &self.strings
    }

    /// Whether this realization can occur under `α`: nodes wired to the
    /// same source must have received identical strings (the complement of
    /// the paper's `B_α` set).
    ///
    /// Returns `false` when the node counts disagree.
    pub fn is_consistent_with(&self, alpha: &Assignment) -> bool {
        if alpha.n() != self.n() {
            return false;
        }
        alpha.groups().all(|group| {
            group
                .windows(2)
                .all(|w| self.strings[w[0]] == self.strings[w[1]])
        })
    }

    /// Exact probability `Pr[ρ | α]` (Lemma B.1): `0` for `α`-inconsistent
    /// realizations and `2^{−t·k}` otherwise.
    pub fn probability(&self, alpha: &Assignment) -> f64 {
        if !self.is_consistent_with(alpha) {
            return 0.0;
        }
        0.5f64.powi((self.t * alpha.k()) as i32)
    }

    /// The realization truncated to its first `t` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `t > time()`.
    pub fn prefix(&self, t: usize) -> Realization {
        Realization {
            strings: self.strings.iter().map(|s| s.prefix(t)).collect(),
            t,
        }
    }

    /// Definition 4.6: whether `self` succeeds `earlier` (`earlier ≺ self`):
    /// strictly later time and node-wise prefix agreement.
    pub fn succeeds(&self, earlier: &Realization) -> bool {
        self.n() == earlier.n()
            && self.t > earlier.t
            && self
                .strings
                .iter()
                .zip(&earlier.strings)
                .all(|(long, short)| long.extends(short))
    }

    /// Enumerates every realization with positive probability under `α` at
    /// time `t` — one per choice of the `k` source strings, `2^{k·t}` total
    /// (Lemma B.1's support).
    ///
    /// The enumeration order is *round-major* ([tree
    /// order](Realization::from_tree_index)): index `0` is the all-zero
    /// realization, and realizations sharing a longer round prefix are
    /// closer together: the leaf order of a depth-first walk of the
    /// execution tree, so chunking the enumeration splits the tree into
    /// contiguous subtrees. The returned
    /// [`ConsistentRealizations`] iterator seeks in constant time
    /// (`Iterator::nth`, and hence `skip`, does not materialize skipped
    /// realizations).
    ///
    /// # Panics
    ///
    /// Panics if `k·t` exceeds 62 bits (enumeration would not fit memory
    /// long before that).
    pub fn enumerate_consistent(alpha: &Assignment, t: usize) -> ConsistentRealizations<'_> {
        let k = alpha.k();
        assert!(k * t <= 62, "2^(k*t) enumeration too large");
        ConsistentRealizations {
            alpha,
            t,
            next: 0,
            end: 1u64 << (k * t),
        }
    }

    /// The `α`-consistent realization at *tree index* `index`: the
    /// round-major encoding where bit `(t − r)·k + s` of `index` is the bit
    /// emitted by source `s` in round `r` (round 1 occupies the most
    /// significant `k`-bit digit). Equivalently, the `index`-th leaf of the
    /// execution tree whose depth-`r` branches are the `2^k` choices of
    /// per-round source bits, and the `index`-th item of
    /// [`Realization::enumerate_consistent`] — reached here in `O(n + t)`
    /// instead of by iteration.
    ///
    /// # Panics
    ///
    /// Panics if `k·t` exceeds 62 bits or `index ≥ 2^{k·t}`.
    pub fn from_tree_index(alpha: &Assignment, t: usize, index: u64) -> Realization {
        let k = alpha.k();
        assert!(k * t <= 62, "2^(k*t) enumeration too large");
        assert!(index < 1u64 << (k * t), "tree index out of range");
        let sources: Vec<BitString> = (0..k)
            .map(|s| BitString::from_bits((1..=t).map(|r| index >> ((t - r) * k + s) & 1 == 1)))
            .collect();
        Realization {
            strings: (0..alpha.n())
                .map(|i| sources[alpha.source_of(i)])
                .collect(),
            t,
        }
    }

    /// Enumerates *all* facets of `R(t)` on `n` nodes (`2^{n·t}` of them),
    /// consistent or not — the full realization complex.
    ///
    /// # Panics
    ///
    /// Panics if `n·t` exceeds 62 bits.
    pub fn enumerate_all(n: usize, t: usize) -> impl Iterator<Item = Realization> {
        assert!(n * t <= 62, "2^(n*t) enumeration too large");
        (0..1u64 << (n * t)).map(move |word| Realization {
            strings: (0..n)
                .map(|i| BitString::from_word(word >> (i * t), t))
                .collect(),
            t,
        })
    }

    /// Samples a realization at time `t` by drawing the `k` source strings
    /// uniformly and wiring them through `α`.
    pub fn sample<R: Rng + ?Sized>(alpha: &Assignment, t: usize, rng: &mut R) -> Realization {
        let sources: Vec<BitString> = (0..alpha.k()).map(|_| BitString::sample(rng, t)).collect();
        Realization {
            strings: (0..alpha.n())
                .map(|i| sources[alpha.source_of(i)])
                .collect(),
            t,
        }
    }

    /// Extends this realization by `extra` additional rounds of sampled
    /// source bits, preserving `α`-consistency.
    pub fn extend<R: Rng + ?Sized>(
        &self,
        alpha: &Assignment,
        extra: usize,
        rng: &mut R,
    ) -> Result<Realization, RandomError> {
        if alpha.n() != self.n() {
            return Err(RandomError::NodeCountMismatch {
                realization: self.n(),
                assignment: alpha.n(),
            });
        }
        let suffixes: Vec<BitString> = (0..alpha.k())
            .map(|_| BitString::sample(rng, extra))
            .collect();
        Ok(Realization {
            strings: self
                .strings
                .iter()
                .enumerate()
                .map(|(i, s)| s.concat(&suffixes[alpha.source_of(i)]))
                .collect(),
            t: self.t + extra,
        })
    }
}

/// Streaming enumeration of the `α`-consistent realizations at time `t`,
/// in round-major tree order (see [`Realization::from_tree_index`]).
/// Created by [`Realization::enumerate_consistent`].
///
/// Seeks in constant time: `nth`/`skip` advance the tree index without
/// materializing the skipped realizations, so a worker reaching for the
/// `lo`-th chunk of a `2^{k·t}` enumeration pays `O(1)`, not `O(lo)`.
#[derive(Clone, Debug)]
pub struct ConsistentRealizations<'a> {
    alpha: &'a Assignment,
    t: usize,
    next: u64,
    end: u64,
}

impl ConsistentRealizations<'_> {
    /// The tree index of the realization `next` would yield (equal to the
    /// number of items already consumed plus any seek offset).
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Seeks directly to tree index `index` (clamped to the end); the next
    /// item yielded is `Realization::from_tree_index(alpha, t, index)`.
    pub fn seek(&mut self, index: u64) {
        self.next = index.min(self.end);
    }
}

impl Iterator for ConsistentRealizations<'_> {
    type Item = Realization;

    fn next(&mut self) -> Option<Realization> {
        if self.next >= self.end {
            return None;
        }
        let out = Realization::from_tree_index(self.alpha, self.t, self.next);
        self.next += 1;
        Some(out)
    }

    fn nth(&mut self, n: usize) -> Option<Realization> {
        self.next = self.next.saturating_add(n as u64);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.end - self.next) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ConsistentRealizations<'_> {}

impl fmt::Display for Realization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ(t={})[", self.t)?;
        for (i, s) in self.strings.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "p{i}:{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> BitString {
        BitString::from_bits(s.chars().map(|c| c == '1'))
    }

    fn rho(strs: &[&str]) -> Realization {
        Realization::new(strs.iter().map(|s| bits(s)).collect()).unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            Realization::new(Vec::new()),
            Err(RandomError::EmptyAssignment)
        ));
        assert!(matches!(
            Realization::new(vec![bits("0"), bits("01")]),
            Err(RandomError::RaggedRealization)
        ));
    }

    #[test]
    fn consistency_with_assignment() {
        let alpha = Assignment::from_group_sizes(&[2, 1]).unwrap();
        assert!(rho(&["01", "01", "11"]).is_consistent_with(&alpha));
        assert!(!rho(&["01", "11", "11"]).is_consistent_with(&alpha));
        // Node-count mismatch is inconsistent, not a panic.
        assert!(!rho(&["01", "01"]).is_consistent_with(&alpha));
    }

    #[test]
    fn lemma_b1_probabilities() {
        let alpha = Assignment::from_group_sizes(&[2, 1]).unwrap(); // k=2
        let consistent = rho(&["01", "01", "11"]); // t=2
        let inconsistent = rho(&["01", "11", "11"]);
        assert_eq!(consistent.probability(&alpha), 0.0625); // 2^{-4}
        assert_eq!(inconsistent.probability(&alpha), 0.0);
    }

    #[test]
    fn probabilities_sum_to_one_over_support() {
        for sizes in [vec![1usize], vec![2, 1], vec![2, 2], vec![1, 1, 1]] {
            let alpha = Assignment::from_group_sizes(&sizes).unwrap();
            for t in 1..=2 {
                let total: f64 = Realization::enumerate_consistent(&alpha, t)
                    .map(|r| r.probability(&alpha))
                    .sum();
                assert!((total - 1.0).abs() < 1e-9, "sizes={sizes:?} t={t}");
            }
        }
    }

    #[test]
    fn enumerate_consistent_counts() {
        let alpha = Assignment::from_group_sizes(&[2, 2]).unwrap();
        assert_eq!(Realization::enumerate_consistent(&alpha, 2).count(), 16); // 2^{2*2}
        let all: std::collections::BTreeSet<_> =
            Realization::enumerate_consistent(&alpha, 2).collect();
        assert_eq!(all.len(), 16, "distinct realizations");
        assert!(all.iter().all(|r| r.is_consistent_with(&alpha)));
    }

    #[test]
    fn enumerate_all_counts() {
        assert_eq!(Realization::enumerate_all(3, 1).count(), 8);
        assert_eq!(Realization::enumerate_all(2, 2).count(), 16);
    }

    #[test]
    fn tree_index_matches_enumeration_order() {
        for sizes in [vec![1usize, 2], vec![2, 2], vec![1, 1, 1]] {
            let alpha = Assignment::from_group_sizes(&sizes).unwrap();
            for t in 0..=3 {
                let all: Vec<Realization> = Realization::enumerate_consistent(&alpha, t).collect();
                assert_eq!(all.len(), 1usize << (alpha.k() * t));
                for (w, r) in all.iter().enumerate() {
                    let direct = Realization::from_tree_index(&alpha, t, w as u64);
                    assert_eq!(&direct, r, "sizes {sizes:?} t {t} index {w}");
                }
            }
        }
    }

    #[test]
    fn tree_order_is_round_major() {
        // Round 1 is the most significant digit: realizations sharing a
        // round prefix are contiguous, so the tree index bisects by the
        // first round's source bits.
        let alpha = Assignment::private(1); // k = 1
        let all: Vec<Realization> = Realization::enumerate_consistent(&alpha, 2).collect();
        let strings: Vec<String> = all.iter().map(|r| r.node(0).to_string()).collect();
        // Indices 0,1 start with round-1 bit 0; indices 2,3 with bit 1.
        assert_eq!(strings, vec!["00", "01", "10", "11"]);
    }

    #[test]
    fn nth_seeks_without_iterating() {
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let all: Vec<Realization> = Realization::enumerate_consistent(&alpha, 3).collect();
        for start in [0usize, 1, 5, 17, 40, 63] {
            let mut it = Realization::enumerate_consistent(&alpha, 3);
            assert_eq!(it.nth(start).as_ref(), all.get(start), "start={start}");
        }
        // skip() rides on nth: tail from a deep offset matches the slice.
        let tail: Vec<Realization> = Realization::enumerate_consistent(&alpha, 3)
            .skip(60)
            .collect();
        assert_eq!(tail, all[60..]);
        // Past-the-end seeks terminate cleanly.
        assert_eq!(Realization::enumerate_consistent(&alpha, 3).nth(64), None);
        let mut it = Realization::enumerate_consistent(&alpha, 3);
        it.seek(9999);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn seek_and_position_round_trip() {
        let alpha = Assignment::from_group_sizes(&[2, 1]).unwrap();
        let mut it = Realization::enumerate_consistent(&alpha, 2);
        assert_eq!(it.len(), 16);
        it.seek(7);
        assert_eq!(it.position(), 7);
        assert_eq!(
            it.next().unwrap(),
            Realization::from_tree_index(&alpha, 2, 7)
        );
        assert_eq!(it.len(), 8);
    }

    #[test]
    fn succession() {
        let early = rho(&["0", "1"]);
        let late = rho(&["01", "10"]);
        let unrelated = rho(&["11", "10"]);
        assert!(late.succeeds(&early));
        assert!(!early.succeeds(&late));
        assert!(!early.succeeds(&early)); // strict time
        assert!(!unrelated.succeeds(&early));
        assert_eq!(late.prefix(1), early);
    }

    #[test]
    fn sample_and_extend_stay_consistent() {
        let mut rng = rand::rngs::mock::StepRng::new(42, 0x9e37_79b9_97f4_a7c1);
        let alpha = Assignment::from_group_sizes(&[3, 2]).unwrap();
        let r = Realization::sample(&alpha, 4, &mut rng);
        assert_eq!(r.time(), 4);
        assert!(r.is_consistent_with(&alpha));
        let ext = r.extend(&alpha, 3, &mut rng).unwrap();
        assert_eq!(ext.time(), 7);
        assert!(ext.is_consistent_with(&alpha));
        assert!(ext.succeeds(&r));
        // Wrong node count errors.
        let beta = Assignment::private(2);
        assert!(r.extend(&beta, 1, &mut rng).is_err());
    }

    #[test]
    fn display_mentions_nodes() {
        let r = rho(&["01", "10"]);
        let s = r.to_string();
        assert!(s.contains("p0:01"));
        assert!(s.contains("p1:10"));
    }
}
