//! Deterministic fan-out of arena-backed work over scoped OS threads.
//!
//! Solvability checks need a mutable [`KnowledgeArena`], which makes naive
//! data-parallelism awkward: arenas cannot be shared across workers without
//! locking, and locking would serialize the hot interning path. The pattern
//! here is *per-worker arenas*: interning is content-addressed, so every
//! worker reconstructs identical knowledge structure locally and only
//! sends plain results back (the Monte-Carlo estimators' scalar peel path
//! relies on it and is tested bit-identical for every thread count).
//!
//! [`map_with_arena`] packages that pattern for sweep engines: items are
//! split into contiguous chunks (one per worker), each worker folds its
//! chunk with a private arena, and results are merged back **by item
//! index** — never by completion order — so the output is deterministic
//! and independent of thread scheduling.

use crate::knowledge::KnowledgeArena;

/// Maps `f` over `items` on up to `threads` scoped OS threads, giving each
/// worker its own private [`KnowledgeArena`]. The arena persists across the
/// items of one chunk, so per-worker interning is amortized exactly like a
/// serial loop's.
///
/// The result vector is in item order regardless of which worker computed
/// which item or when it finished; with `threads == 1` this degenerates to
/// a plain serial fold (no thread is spawned).
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates a worker panic.
pub fn map_with_arena<I, R, F>(items: &[I], threads: usize, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&mut KnowledgeArena, &I) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if threads == 1 || items.len() <= 1 {
        let mut arena = KnowledgeArena::new();
        return items.iter().map(|item| f(&mut arena, item)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| {
                let f = &f;
                scope.spawn(move || {
                    let mut arena = KnowledgeArena::new();
                    slice
                        .iter()
                        .map(|item| f(&mut arena, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        // Joining in spawn order merges chunk results back in item order,
        // independent of which worker finished first.
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for c in &mut chunks {
        out.append(c);
    }
    out
}

/// Sample-sharding fan-out for Monte-Carlo estimators: splits the index
/// range `0..total` into one contiguous chunk per worker and folds each
/// chunk with a private [`KnowledgeArena`], merging chunk results back in
/// index order.
///
/// The contract that makes sharded estimates **bit-identical for any
/// worker count** is that `f` derives everything about sample `i` from
/// `i` itself (e.g. an RNG stream keyed by the sample index) — never from
/// the chunk boundaries, the worker identity, or shared mutable state.
/// Under that contract the multiset of per-sample verdicts is a pure
/// function of `total`, and any order-insensitive reduction of the
/// returned per-chunk values (integer sums in practice) equals the serial
/// loop's exactly.
///
/// Returns one result per non-empty chunk, ordered by chunk start; with
/// `threads == 1` this degenerates to a single serial fold.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates a worker panic.
pub fn map_sample_chunks<R, F>(total: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut KnowledgeArena, std::ops::Range<usize>) -> R + Sync,
{
    map_sample_chunks_aligned(total, threads, 1, f)
}

/// [`map_sample_chunks`] with chunk boundaries rounded up to a multiple
/// of `align`: every chunk starts at an index divisible by `align`, and
/// every chunk except the last covers a whole number of `align`-sized
/// words. The bit-sliced Monte-Carlo kernel passes `align = 64` so each
/// worker owns whole lane words and only the globally last word can be
/// partially filled.
///
/// `align = 1` is exactly [`map_sample_chunks`].
///
/// # Panics
///
/// Panics if `threads == 0` or `align == 0`, or propagates a worker
/// panic.
pub fn map_sample_chunks_aligned<R, F>(total: usize, threads: usize, align: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut KnowledgeArena, std::ops::Range<usize>) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    assert!(align >= 1, "alignment must be at least 1");
    let chunk = total.div_ceil(threads).max(1).div_ceil(align) * align;
    let ranges: Vec<std::ops::Range<usize>> = (0..threads)
        .map(|w| (w * chunk).min(total)..((w + 1) * chunk).min(total))
        .filter(|r| !r.is_empty())
        .collect();
    map_with_arena(&ranges, threads, |arena, range| f(arena, range.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Execution, Model};
    use rsbt_random::{Assignment, Realization};

    #[test]
    fn results_are_in_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let serial = map_with_arena(&items, 1, |_, &i| i * i);
        for threads in [2, 3, 4, 8, 64] {
            let par = map_with_arena(&items, threads, |_, &i| i * i);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_arenas_reproduce_serial_partitions() {
        // Consistency partitions computed through private arenas must be
        // identical to the single-arena serial pass.
        let alpha = Assignment::from_group_sizes(&[1, 2]).unwrap();
        let rhos: Vec<Realization> = Realization::enumerate_consistent(&alpha, 3).collect();
        let partition = |arena: &mut KnowledgeArena, rho: &Realization| {
            let exec = Execution::run(&Model::Blackboard, rho, arena);
            exec.consistency_partition(exec.time())
        };
        let serial = map_with_arena(&rhos, 1, partition);
        for threads in [2, 3, 5] {
            assert_eq!(map_with_arena(&rhos, threads, partition), serial);
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2];
        assert_eq!(map_with_arena(&items, 16, |_, &i| i + 1), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = map_with_arena(&[1u32], 0, |_, &i| i);
    }

    #[test]
    fn sample_chunks_cover_the_range_exactly_once() {
        for total in [0usize, 1, 2, 7, 64, 100] {
            for threads in [1usize, 2, 3, 4, 8, 64] {
                let chunks = map_sample_chunks(total, threads, |_, r| r.collect::<Vec<usize>>());
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                let expect: Vec<usize> = (0..total).collect();
                assert_eq!(flat, expect, "total={total} threads={threads}");
            }
        }
    }

    #[test]
    fn per_index_sums_are_thread_count_invariant() {
        // A reduction over per-index values (the Monte-Carlo shape) must
        // be identical for every worker count.
        let per_index = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9) % 7;
        let serial: u64 = (0..1000).map(per_index).sum();
        for threads in [1usize, 2, 3, 4, 8] {
            let total: u64 = map_sample_chunks(1000, threads, |_, r| r.map(per_index).sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn sample_chunks_zero_threads_rejected() {
        let _ = map_sample_chunks(4, 0, |_, r| r.len());
    }

    #[test]
    fn aligned_chunks_cover_the_range_on_word_boundaries() {
        // Word-boundary edge cases: counts not divisible by 64, counts
        // below 64, and a single sample.
        for total in [0usize, 1, 2, 63, 64, 65, 127, 128, 130, 1000] {
            for threads in [1usize, 2, 3, 4, 8, 64] {
                let chunks = map_sample_chunks_aligned(total, threads, 64, |_, r| r);
                let flat: Vec<usize> = chunks.iter().cloned().flatten().collect();
                let expect: Vec<usize> = (0..total).collect();
                assert_eq!(flat, expect, "total={total} threads={threads}");
                for (c, r) in chunks.iter().enumerate() {
                    assert_eq!(r.start % 64, 0, "chunk {c} start, total={total}");
                    assert!(
                        r.end % 64 == 0 || r.end == total,
                        "only the last word may be partial: chunk {c}, total={total}"
                    );
                }
            }
        }
    }

    #[test]
    fn align_one_matches_the_unaligned_chunking() {
        for total in [0usize, 1, 7, 100, 129] {
            for threads in [1usize, 2, 3, 8] {
                let plain = map_sample_chunks(total, threads, |_, r| r);
                let aligned = map_sample_chunks_aligned(total, threads, 1, |_, r| r);
                assert_eq!(plain, aligned, "total={total} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "alignment must be at least 1")]
    fn zero_alignment_rejected() {
        let _ = map_sample_chunks_aligned(4, 1, 0, |_, r| r.len());
    }
}
