//! Linear-time selection of the largest merging errors, and the in-place
//! compaction that applies a round's decisions.
//!
//! Each round keeps the `t` candidates (pairs, or groups in `fastmerging`) with
//! the largest merging errors. Where the paper uses linear-time selection,
//! `mark_top_t` runs introselect (`select_nth_unstable_by`) over a reused
//! buffer of `(error, position)` pairs; `compact_groups` applies the marks in
//! place. Ties at the threshold fall where introselect's comparisons put them:
//! exactly the positions an indirect selection over a position array picks.

/// The value [`mark_top_t`] writes over a kept error. Merging errors are
/// squared distances, so they are never negative.
pub(crate) const KEPT: f64 = -1.0;

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
    scratch.clear();
    scratch.extend(errors.iter().copied().zip(0..));
    scratch.select_nth_unstable_by(t - 1, |a, b| {
        b.0.partial_cmp(&a.0).expect("merging errors are finite")
    });
    for &(_, pos) in &scratch[..t] {
        errors[pos] = KEPT;
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

    /// `mark_top_t` must choose exactly the positions the indirect selection
    /// chooses, ties included: the merging outputs depend on it.
    #[test]
    fn marks_exactly_the_indirect_selection() {
        let mut cases: Vec<Vec<f64>> = Vec::new();
        for len in [1, 2, 7, 16, 17, 33, 64, 65, 500, 4_099] {
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
        }
        for values in &cases {
            let len = values.len();
            for t in [0, 1, len / 3, len / 2, len - 1, len, len + 3] {
                assert_eq!(marked(values, t), top_t_mask(values, t), "len {len}, t = {t}");
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
