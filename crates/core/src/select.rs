//! Linear-time selection of the largest merging errors, and the in-place
//! compaction that applies a round's decisions.
//!
//! Each round keeps the `t` candidates (pairs, or groups in `fastmerging`) with
//! the largest merging errors. Where the paper uses linear-time selection,
//! `mark_top_t` first tries a threshold when `t` is small next to the
//! candidate count (at most 1/64 of it, the first rounds of Algorithm 1): one
//! pass with a size-`t` min-heap finds the `t`-th largest error `τ` and
//! tracks whether an error outside the heap equals it. If none does, the heap
//! holds the unique top-`t` set, which any exact selection picks. Otherwise (a
//! tie straddles `τ`, or `t` is large) it runs introselect
//! (`select_nth_unstable_by`) over a reused buffer of `(error, position)`
//! pairs; ties at the threshold fall where introselect's comparisons put them:
//! exactly the positions an indirect selection over a position array picks.
//! On quantized input the heap pass gives up as soon as its tie is at the
//! largest error seen, so the fallback costs introselect plus a short prefix;
//! a tie that straddles `τ` below the largest error costs one extra pass.
//! `compact_groups` applies the marks in place.

/// The value [`mark_top_t`] writes over a kept error. Merging errors are
/// squared distances, so they are never negative.
pub(crate) const KEPT: f64 = -1.0;

/// `mark_top_t` tries the threshold only while `t · HEAP_RATIO ≤ len`. The
/// heap pass pays `O(log t)` per replacement (about `t·ln(len/t)` of them on
/// errors in random order), so with larger `t` introselect is as fast, and
/// a failed attempt is pure overhead.
const HEAP_RATIO: usize = 64;

/// Marks the `t` largest of `errors` by overwriting them with [`KEPT`],
/// choosing exactly `min(t, len)` positions (ties at the threshold are broken
/// by introselect's order). `scratch` is reused across calls. Runs in
/// expected `O(len)` time.
pub(crate) fn mark_top_t(errors: &mut [f64], t: usize, scratch: &mut Vec<(f64, usize)>) {
    if t == 0 {
        return;
    }
    if t >= errors.len() {
        errors.fill(KEPT);
        return;
    }
    if t <= errors.len() / HEAP_RATIO && unique_top_t(errors, t, scratch) {
        for &(_, pos) in scratch.iter() {
            errors[pos] = KEPT;
        }
        return;
    }
    scratch.clear();
    scratch.extend(errors.iter().copied().zip(0..));
    scratch.select_nth_unstable_by(t - 1, |a, b| {
        b.0.partial_cmp(&a.0).expect("merging errors are finite")
    });
    for &(_, pos) in &scratch[..t] {
        errors[pos] = KEPT;
    }
}

/// Leaves in `heap` the `(error, position)` pairs of `t` largest errors
/// (`0 < t < len`) and returns whether no other error equals the smallest of
/// them, i.e. whether they are the only top-`t` set. Returns `false` early
/// once `t + 1` errors equal the largest positive error so far: only `t`
/// larger errors still to come could clear that tie, and on quantized input
/// (few distinct errors) they seldom come. Ties at zero (equal neighbours, a
/// flat stretch) never stop the pass: they often open a signal and seldom
/// reach the threshold.
fn unique_top_t(errors: &[f64], t: usize, heap: &mut Vec<(f64, usize)>) -> bool {
    heap.clear();
    heap.extend(errors[..t].iter().copied().zip(0..));
    for i in (0..t / 2).rev() {
        sift_down(heap, i);
    }
    let mut largest = heap.iter().fold(0.0, |most: f64, &(error, _)| most.max(error));
    // Whether an error outside the heap equals its least one. Outside errors
    // never exceed the least, so only a rise of the least clears a tie.
    let mut tied = false;
    for (pos, &error) in errors.iter().enumerate().skip(t) {
        let least = heap[0].0;
        if error < least {
            continue;
        }
        if error > least {
            heap[0] = (error, pos);
            sift_down(heap, 0);
            // The evicted error is outside now, tied unless the least rose.
            tied = heap[0].0 == least;
            largest = largest.max(error);
        } else {
            tied = true;
        }
        if tied && heap[0].0 == largest && largest > 0.0 {
            return false;
        }
    }
    !tied
}

/// Restores the min-heap order below `i`.
fn sift_down(heap: &mut [(f64, usize)], mut i: usize) {
    loop {
        let mut least = i;
        for child in [2 * i + 1, 2 * i + 2] {
            if child < heap.len() && heap[child].0 < heap[least].0 {
                least = child;
            }
        }
        if least == i {
            return;
        }
        heap.swap(i, least);
        i = least;
    }
}

/// Applies a round's decisions to `items` in place: group `u` (the `g` items
/// from `u·g`) is copied through unchanged when `errors[u]` is [`KEPT`] and
/// replaced by `merge(group)` otherwise; items after the last full group are
/// carried over. Writes never overtake reads, so no second list is needed.
#[inline]
pub(crate) fn compact_groups<T: Copy>(
    items: &mut Vec<T>,
    g: usize,
    errors: &[f64],
    merge: impl Fn(&[T]) -> T,
) {
    let mut write = 0;
    for (u, &error) in errors.iter().enumerate() {
        let read = u * g;
        if error == KEPT {
            items.copy_within(read..read + g, write);
            write += g;
        } else {
            items[write] = merge(&items[read..read + g]);
            write += 1;
        }
    }
    let tail = errors.len() * g;
    let carried = items.len() - tail;
    items.copy_within(tail.., write);
    items.truncate(write + carried);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::lcg;

    /// Reference selection: an indirect introselect over a position array
    /// reading `values` through it.
    fn top_t_mask(values: &[f64], t: usize) -> Vec<bool> {
        let len = values.len();
        let mut mask = vec![t > 0 && t >= len; len];
        if t == 0 || t >= len {
            return mask;
        }
        let mut order: Vec<usize> = (0..len).collect();
        order.select_nth_unstable_by(t - 1, |&a, &b| {
            values[b].partial_cmp(&values[a]).expect("merging errors are finite")
        });
        for &pos in &order[..t] {
            mask[pos] = true;
        }
        mask
    }

    /// Sort-based reference selection (`O(len log len)`).
    fn top_t_mask_by_sort(values: &[f64], t: usize) -> Vec<bool> {
        let len = values.len();
        let mut mask = vec![false; len];
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).expect("finite values"));
        for &pos in order.iter().take(t.min(len)) {
            mask[pos] = true;
        }
        mask
    }

    fn marked(values: &[f64], t: usize) -> Vec<bool> {
        let mut errors = values.to_vec();
        mark_top_t(&mut errors, t, &mut Vec::new());
        errors.iter().map(|&e| e == KEPT).collect()
    }

    fn lcg_values(mut seed: u64, len: usize) -> Vec<f64> {
        (0..len).map(|_| lcg(&mut seed)).collect()
    }

    #[test]
    fn selects_the_largest_values() {
        let v = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(marked(&v, 2), vec![false, false, true, false, true]);
    }

    #[test]
    fn edge_cases() {
        let v = [1.0, 2.0];
        assert_eq!(marked(&v, 0), vec![false, false]);
        assert_eq!(marked(&v, 2), vec![true, true]);
        assert_eq!(marked(&v, 5), vec![true, true]);
        assert!(marked(&[], 3).is_empty());
        assert_eq!(marked(&[2.0; 4], 2).iter().filter(|&&m| m).count(), 2, "ties");
    }

    #[test]
    fn matches_sort_based_reference() {
        let v = lcg_values(1234567, 257);
        for t in [0, 1, 5, 64, 200, 257, 300] {
            // With distinct values the selection is unique.
            assert_eq!(marked(&v, t), top_t_mask_by_sort(&v, t), "mismatch for t = {t}");
        }
    }

    /// The bits `mark_top_t` leaves, and the bits the oracle's mask gives.
    fn marked_and_expected_bits(values: &[f64], t: usize) -> (Vec<u64>, Vec<u64>) {
        let mut errors = values.to_vec();
        mark_top_t(&mut errors, t, &mut Vec::new());
        let mask = top_t_mask(values, t);
        let expected = values.iter().zip(mask).map(|(&v, kept)| if kept { KEPT } else { v });
        (errors.iter().map(|e| e.to_bits()).collect(), expected.map(f64::to_bits).collect())
    }

    /// `mark_top_t` must choose exactly the positions the indirect selection
    /// chooses, ties included, and leave every other bit alone: the merging
    /// outputs depend on it. Small `t` next to `len` takes the threshold, and
    /// its introselect fallback when a tie straddles it.
    #[test]
    fn marks_exactly_the_indirect_selection() {
        let mut cases: Vec<Vec<f64>> = Vec::new();
        for len in [1, 2, 7, 16, 17, 33, 64, 65, 500, 4_096, 4_099, 16_384] {
            cases.push(lcg_values(len as u64, len));
            cases.push(vec![3.5; len]);
            cases.push(vec![0.0; len]);
            // Few distinct values: long runs of repeats at every threshold.
            cases.push(lcg_values(7 * len as u64, len).iter().map(|v| (v * 4.0).floor()).collect());
            // Repeats exactly at the threshold of a descending ramp.
            let mut ramp: Vec<f64> = (0..len).map(|i| (len - i) as f64).collect();
            let mid = len / 2;
            ramp[mid.saturating_sub(3)..(mid + 3).min(len)].fill(len as f64 / 2.0);
            cases.push(ramp);
            // Zeros of both signs, and a positive value every 97 positions.
            let signed_zero = |i: usize| if i & 1 == 0 { -0.0 } else { 0.0 };
            cases.push(
                (0..len)
                    .map(|i| if i % 97 == 0 { (i + 1) as f64 } else { signed_zero(i) })
                    .collect(),
            );
        }
        // Noise below 1 under 9.0 three times and 5.0 four times: the 1 or 5
        // largest straddle a tie, the 3 or 7 largest do not.
        let mut straddled = lcg_values(99, 8_192);
        for pos in [10, 900, 4_000] {
            straddled[pos] = 9.0;
        }
        for pos in [5, 77, 6_000, 8_191] {
            straddled[pos] = 5.0;
        }
        assert!(unique_top_t(&straddled, 7, &mut Vec::new()));
        assert!(!unique_top_t(&straddled, 5, &mut Vec::new()));
        // A tie at the largest error stops the pass, at 9.0 after a prefix.
        assert!(!unique_top_t(&straddled, 1, &mut Vec::new()));
        cases.push(straddled);
        // 9.0 evicts one 5.0 and the other becomes the least: the evicted
        // 5.0 ties it, and nothing after them rises above it.
        let mut evicted_tie = vec![5.0, 5.0, 9.0];
        evicted_tie.extend(lcg_values(3, 200));
        assert!(!unique_top_t(&evicted_tie, 2, &mut Vec::new()));
        cases.push(evicted_tie);
        // Ties at zero open the errors, then distinct values clear them.
        let mut flat_start = vec![0.0; 2_000];
        flat_start.extend(lcg_values(5, 6_192).iter().map(|v| v + 1.0));
        assert!(unique_top_t(&flat_start, 65, &mut Vec::new()));
        cases.push(flat_start);
        // Two distinct errors, periodically: the top set always straddles a tie.
        let periodic: Vec<f64> =
            (0..8_192).map(|i| [12.5, 18.0][usize::from(i % 11 < 5)]).collect();
        assert!(!unique_top_t(&periodic, 65, &mut Vec::new()));
        cases.push(periodic);

        for values in &cases {
            let len = values.len();
            let small = [1, 3, 5, 7, 65, len / 64, len / 64 + 1];
            for t in small.into_iter().chain([0, len / 3, len / 2, len - 1, len, len + 3]) {
                let (got, want) = marked_and_expected_bits(values, t);
                assert_eq!(got, want, "len {len}, t = {t}");
            }
        }
    }

    #[test]
    fn compaction_merges_unkept_groups_and_carries_the_tail() {
        let sum = |g: &[u32]| g.iter().sum::<u32>();
        let mut items = vec![1, 2, 3, 4, 5, 6, 7];
        compact_groups(&mut items, 2, &[0.5, KEPT, 0.0], sum);
        assert_eq!(items, vec![3, 3, 4, 11, 7]);
        let mut items = vec![1, 2, 3, 4, 5, 6, 7, 8];
        compact_groups(&mut items, 3, &[KEPT, 2.0], sum);
        assert_eq!(items, vec![1, 2, 3, 15, 7, 8]);
    }
}
