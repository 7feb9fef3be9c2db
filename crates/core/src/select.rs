//! Linear-time selection of the largest merging errors.
//!
//! Each round keeps the `t` candidates (pairs, or groups in `fastmerging`)
//! with the largest merging errors. [`keep_threshold`] returns a threshold
//! `τ`: a candidate is kept exactly when its error is `≥ τ`, so a round needs
//! no mask and no marking pass. Where the paper uses linear-time selection,
//! four ways find `τ`, each tried when the one before it does not apply or
//! gives up:
//!
//! * **Heap** (`t` at most 1/64 of the candidates, the first rounds of
//!   Algorithm 1): one pass with a size-`t` min-heap finds the `t`-th largest
//!   error and tracks whether an error outside the heap equals it.
//! * **Sample** (larger `t` up to half of at least `4 · SAMPLE` candidates,
//!   Algorithm 2's rounds): Floyd–Rivest selection (Floyd & Rivest,
//!   "Expected time bounds for selection", CACM 1975). A strided sample
//!   gives two values that bracket `τ` with high probability; one pass counts
//!   the errors above the bracket and collects the few inside it, and a
//!   selection over those finds `τ`.
//! * **Values**: the errors are copied into a reused buffer of values,
//!   `select_nth_unstable_by` puts the `t`-th largest `τ` in place, and no
//!   value below it may equal `τ`. This selects over 8-byte values where
//!   introselect moves 16-byte pairs.
//! * **Introselect**, when a tie straddles `τ`: `select_nth_unstable_by` over
//!   a reused buffer of `(error, position)` pairs. Ties at the threshold fall
//!   where introselect's comparisons put them: exactly the positions an
//!   indirect selection over a position array picks. The picks are
//!   overwritten with `+∞` and `τ = +∞`.
//!
//! When the heap, the sample or the values find `τ` and no error below the
//! top `t` equals it, the top-`t` set is unique, so any exact selection,
//! introselect included, picks it. On quantized input the heap pass gives up
//! as soon as its tie is at the largest error seen, and the sample gives up
//! before its pass when its bracket is one value; a tie there costs the
//! values selection and introselect.

/// Which way [`keep_threshold`] found its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// `t = 0` or `t ≥ len`: nothing or everything is kept.
    Trivial,
    Heap,
    Sample,
    Values,
    Introselect,
}

/// The heap is tried only while `t · HEAP_RATIO ≤ len`. The heap pass pays
/// `O(log t)` per replacement (about `t·ln(len/t)` of them on errors in
/// random order), so with larger `t` the other ways are as fast, and a failed
/// attempt is pure overhead.
const HEAP_RATIO: usize = 64;

/// Errors in the sampled threshold's sample. The sample is taken once the
/// stride is at least 4: with a stride of 2 it is no faster than introselect.
const SAMPLE: usize = 2048;

/// The selection's reused buffers: the heap, sample, bracket or copied
/// values, and the fallback's `(error, position)` pairs.
#[derive(Default)]
pub(crate) struct SelectBuffers {
    values: Vec<f64>,
    pairs: Vec<(f64, usize)>,
}

/// The threshold `τ` that keeps exactly `min(t, len)` of `errors`: the
/// positions with error `≥ τ` are the ones the indirect introselect picks,
/// ties at the threshold included. Errors stay as they are, except on the
/// introselect path, which overwrites its picks with `+∞`; so they must be
/// finite, or an unpicked `+∞` would read as kept. Runs in expected `O(len)`
/// time.
pub(crate) fn keep_threshold(
    errors: &mut [f64],
    t: usize,
    buffers: &mut SelectBuffers,
) -> (f64, Path) {
    debug_assert!(errors.iter().all(|e| e.is_finite()), "merging errors are finite");
    let len = errors.len();
    if t == 0 {
        return (f64::INFINITY, Path::Trivial);
    }
    if t >= len {
        return (f64::NEG_INFINITY, Path::Trivial);
    }
    let found = if t <= len / HEAP_RATIO {
        heap_threshold(errors, t, &mut buffers.values).map(|tau| (tau, Path::Heap))
    } else if len / SAMPLE >= 4 && t <= len / 2 {
        sampled_threshold(errors, t, &mut buffers.values).map(|tau| (tau, Path::Sample))
    } else {
        None
    };
    found
        .or_else(|| values_threshold(errors, t, &mut buffers.values).map(|tau| (tau, Path::Values)))
        .unwrap_or_else(|| (introselect(errors, t, &mut buffers.pairs), Path::Introselect))
}

/// The `t`-th largest error (`0 < t < len`) if no error outside the `t`
/// largest equals it, i.e. if the top-`t` set is unique. Gives up early once
/// `t + 1` errors equal the largest positive error so far: only `t` larger
/// errors still to come could clear that tie, and on quantized input (few
/// distinct errors) they seldom come. Ties at zero (equal neighbours, a flat
/// stretch) never stop the pass: they often open a signal and seldom reach
/// the threshold.
fn heap_threshold(errors: &[f64], t: usize, heap: &mut Vec<f64>) -> Option<f64> {
    heap.clear();
    heap.extend_from_slice(&errors[..t]);
    for i in (0..t / 2).rev() {
        sift_down(heap, i);
    }
    let mut largest = heap.iter().fold(0.0, |most: f64, &error| most.max(error));
    // Whether an error outside the heap equals its least one. Outside errors
    // never exceed the least, so only a rise of the least clears a tie.
    let mut tied = false;
    for &error in &errors[t..] {
        let least = heap[0];
        if error < least {
            continue;
        }
        if error > least {
            heap[0] = error;
            sift_down(heap, 0);
            // The evicted error is outside now, tied unless the least rose.
            tied = heap[0] == least;
            largest = largest.max(error);
        } else {
            tied = true;
        }
        if tied && heap[0] == largest && largest > 0.0 {
            return None;
        }
    }
    (!tied).then_some(heap[0])
}

/// Restores the min-heap order below `i`.
fn sift_down(heap: &mut [f64], mut i: usize) {
    loop {
        let mut least = i;
        for child in [2 * i + 1, 2 * i + 2] {
            if child < heap.len() && heap[child] < heap[least] {
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

/// The `t`-th largest error (`0 < t ≤ len/2`, `len ≥ 4 · SAMPLE`) if the
/// top-`t` set is unique, found from a strided sample; `None` if the sample
/// misses (the threshold is outside its bracket) or a tie straddles it.
fn sampled_threshold(errors: &[f64], t: usize, buf: &mut Vec<f64>) -> Option<f64> {
    let len = errors.len();
    buf.clear();
    buf.extend(errors.iter().step_by(len / SAMPLE).take(SAMPLE));
    // τ's expected rank in the sample, largest first, and four standard
    // deviations of the sample rank either side.
    let (m, p) = (SAMPLE as f64, t as f64 / len as f64);
    let center = p * m;
    let margin = 4.0 * (center * (1.0 - p)).sqrt() + 1.0;
    let (high_rank, low_rank) = ((center - margin).floor(), (center + margin).ceil());
    let descending = |a: &f64, b: &f64| b.total_cmp(a);
    let (high, below) = if high_rank < 0.0 {
        (f64::INFINITY, &mut buf[..])
    } else {
        let (_, &mut high, below) = buf.select_nth_unstable_by(high_rank as usize, descending);
        (high, below)
    };
    let low_rank = low_rank - high_rank.max(-1.0) - 1.0;
    let low = if low_rank >= below.len() as f64 {
        f64::NEG_INFINITY
    } else {
        *below.select_nth_unstable_by(low_rank as usize, descending).1
    };
    if low == high {
        // A run of equal errors spans the bracket: a tie straddles τ.
        return None;
    }

    // The bracket should hold about `len · (low_rank − high_rank) / m`
    // errors; one twice that size has missed, and a pass without a
    // data-dependent branch needs its room set in advance (and one slot for
    // the write every error makes).
    let room = 2 * (len as f64 * (2.0 * margin + 1.0) / m) as usize;
    buf.clear();
    buf.resize(room + 1, 0.0);
    let (mut above, mut inside) = (0, 0);
    for &error in errors {
        above += usize::from(error > high);
        buf[inside] = error;
        inside += usize::from((error <= high) & (error >= low));
        if inside == room {
            return None;
        }
    }
    buf.truncate(inside);
    let rank = t.checked_sub(above + 1).filter(|&rank| rank < inside)?;
    let (_, &mut tau, rest) = buf.select_nth_unstable_by(rank, descending);
    (!rest.contains(&tau)).then_some(tau)
}

/// The `t`-th largest error (`0 < t < len`) if the top-`t` set is unique,
/// found by a selection over a copy of the errors; `None` if a tie straddles
/// it.
fn values_threshold(errors: &[f64], t: usize, values: &mut Vec<f64>) -> Option<f64> {
    values.clear();
    values.extend_from_slice(errors);
    let (_, &mut tau, rest) = values.select_nth_unstable_by(t - 1, |a, b| b.total_cmp(a));
    (!rest.contains(&tau)).then_some(tau)
}

/// Introselect over `(error, position)` pairs: overwrites the `t` picks
/// (`0 < t < len`) with `+∞` and returns `+∞`.
fn introselect(errors: &mut [f64], t: usize, pairs: &mut Vec<(f64, usize)>) -> f64 {
    pairs.clear();
    pairs.extend(errors.iter().copied().zip(0..));
    pairs.select_nth_unstable_by(t - 1, |a, b| {
        b.0.partial_cmp(&a.0).expect("merging errors are finite")
    });
    for &(_, pos) in &pairs[..t] {
        errors[pos] = f64::INFINITY;
    }
    f64::INFINITY
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

    /// The positions [`keep_threshold`] keeps, the errors it leaves, and its path.
    fn kept(values: &[f64], t: usize) -> (Vec<bool>, Vec<f64>, Path) {
        let mut errors = values.to_vec();
        let (tau, path) = keep_threshold(&mut errors, t, &mut SelectBuffers::default());
        (errors.iter().map(|&e| e >= tau).collect(), errors, path)
    }

    fn lcg_values(mut seed: u64, len: usize) -> Vec<f64> {
        (0..len).map(|_| lcg(&mut seed)).collect()
    }

    #[test]
    fn selects_the_largest_values() {
        let v = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(kept(&v, 2).0, vec![false, false, true, false, true]);
    }

    #[test]
    fn edge_cases() {
        let v = [1.0, 2.0];
        assert_eq!(kept(&v, 0).0, vec![false, false]);
        assert_eq!(kept(&v, 2).0, vec![true, true]);
        assert_eq!(kept(&v, 5).0, vec![true, true]);
        assert!(kept(&[], 3).0.is_empty());
        assert_eq!(kept(&[2.0; 4], 2).0.iter().filter(|&&m| m).count(), 2, "ties");
    }

    #[test]
    fn matches_sort_based_reference() {
        let v = lcg_values(1234567, 257);
        for t in [0, 1, 5, 64, 200, 257, 300] {
            // With distinct values the selection is unique.
            assert_eq!(kept(&v, t).0, top_t_mask_by_sort(&v, t), "mismatch for t = {t}");
        }
    }

    /// The positions with error `≥ τ` must be exactly the ones the indirect
    /// selection chooses, ties included, and every other error must keep its
    /// bits: the merging outputs depend on it. Small `t` next to `len` takes
    /// the heap, larger `t` on long inputs the sample, and each falls back to
    /// introselect when a tie straddles `τ` or the sample misses.
    #[test]
    fn keeps_exactly_the_indirect_selection() {
        let mut cases: Vec<Vec<f64>> = Vec::new();
        let lengths = [1, 2, 7, 16, 17, 33, 64, 65, 500, 4_096, 4_099, 16_384, 1 << 15, 1 << 17];
        for len in lengths {
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
        assert_eq!(heap_threshold(&straddled, 7, &mut Vec::new()), Some(5.0));
        assert_eq!(heap_threshold(&straddled, 5, &mut Vec::new()), None);
        // A tie at the largest error stops the pass, at 9.0 after a prefix.
        assert_eq!(heap_threshold(&straddled, 1, &mut Vec::new()), None);
        cases.push(straddled);
        // 9.0 evicts one 5.0 and the other becomes the least: the evicted
        // 5.0 ties it, and nothing after them rises above it.
        let mut evicted_tie = vec![5.0, 5.0, 9.0];
        evicted_tie.extend(lcg_values(3, 200));
        assert_eq!(heap_threshold(&evicted_tie, 2, &mut Vec::new()), None);
        cases.push(evicted_tie);
        // Ties at zero open the errors, then distinct values clear them.
        let mut flat_start = vec![0.0; 2_000];
        flat_start.extend(lcg_values(5, 6_192).iter().map(|v| v + 1.0));
        assert!(heap_threshold(&flat_start, 65, &mut Vec::new()).is_some());
        cases.push(flat_start);
        // Two distinct errors, periodically: the top set always straddles a tie.
        let periodic: Vec<f64> =
            (0..8_192).map(|i| [12.5, 18.0][usize::from(i % 11 < 5)]).collect();
        assert_eq!(heap_threshold(&periodic, 65, &mut Vec::new()), None);
        cases.push(periodic);

        // Distinct errors whose largest repeat at the sample stride: every
        // sampled error is a peak, so the sample brackets a far too large τ;
        // the errors are distinct, so the values find it.
        let len = 1 << 17;
        let stride = len / SAMPLE;
        let mut peaks = lcg_values(11, len);
        for (i, e) in peaks.iter_mut().enumerate().step_by(stride) {
            *e += 2.0 + i as f64;
        }
        for t in [len / 64 + 1, len / 4, len / 2] {
            assert_eq!(sampled_threshold(&peaks, t, &mut Vec::new()), None, "t = {t}");
            assert_eq!(kept(&peaks, t).2, Path::Values, "t = {t}");
        }
        cases.push(peaks);
        // Noise with about 3000 copies of the median value: a tie straddles the
        // half and a few ranks either side, and the sample brackets it.
        let mut median_tie = lcg_values(13, len);
        for e in median_tie.iter_mut().step_by(43) {
            *e = 0.5;
        }
        let above = median_tie.iter().filter(|&&e| e > 0.5).count();
        let at_least = median_tie.iter().filter(|&&e| e >= 0.5).count();
        assert!(above < len / 2 - 5 && at_least > len / 2 + 5, "{above}, {at_least}");
        for t in [len / 2 - 5, len / 2] {
            assert_eq!(sampled_threshold(&median_tie, t, &mut Vec::new()), None, "t = {t}");
            assert_eq!(kept(&median_tie, t).2, Path::Introselect, "t = {t}");
        }
        cases.push(median_tie);

        let mut paths = Vec::new();
        for values in &cases {
            let len = values.len();
            let small = [1, 3, 5, 7, 65, len / 64, len / 64 + 1];
            let large = [len / 4, len / 3, len / 2, len - 1, len, len + 3];
            for t in small.into_iter().chain([0]).chain(large) {
                let (kept, errors, path) = kept(values, t);
                let want = top_t_mask(values, t);
                assert_eq!(kept, want, "len {len}, t = {t}, {path:?}");
                for ((&got, &was), kept) in errors.iter().zip(values).zip(want) {
                    assert!(kept || got.to_bits() == was.to_bits(), "len {len}, t = {t}");
                }
                paths.push(path);
            }
        }
        for path in [Path::Trivial, Path::Heap, Path::Sample, Path::Values, Path::Introselect] {
            assert!(paths.contains(&path), "{path:?} never ran");
        }
        // The sample runs on random errors from `4 · SAMPLE` of them on.
        for len in [4 * SAMPLE, 1 << 17] {
            let random = lcg_values(len as u64, len);
            for t in [len / 64 + 1, len / 4, len / 3, len / 2] {
                assert_eq!(kept(&random, t).2, Path::Sample, "len {len}, t = {t}");
            }
        }
    }

    /// Between the heap's share and the sample's minimum length, tie-free
    /// errors are selected by the values alone, which keep exactly the
    /// indirect selection and leave every error as it was. A tie at `τ`
    /// still reaches introselect.
    #[test]
    fn values_selection_keeps_the_indirect_selection_and_defers_ties() {
        for len in [65, 500, 4_099, 4 * SAMPLE - 1] {
            let values = lcg_values(17 * len as u64, len);
            for t in [len / HEAP_RATIO + 1, len / 4, len / 2, len - 1] {
                let (kept, errors, path) = kept(&values, t);
                assert_eq!(path, Path::Values, "len {len}, t = {t}");
                assert_eq!(kept, top_t_mask(&values, t), "len {len}, t = {t}");
                assert!(errors.iter().zip(&values).all(|(e, v)| e.to_bits() == v.to_bits()));
            }
        }
        // Noise with three copies of 0.75: the `t`-th largest is a copy with
        // the others below the top `t` for `t = above + 1`, and none is for
        // `t = above + 3`.
        let mut tied = lcg_values(23, 4_099);
        for pos in [7, 2_000, 4_098] {
            tied[pos] = 0.75;
        }
        let above = tied.iter().filter(|&&e| e > 0.75).count();
        assert_eq!(values_threshold(&tied, above + 1, &mut Vec::new()), None);
        assert_eq!(values_threshold(&tied, above + 3, &mut Vec::new()), Some(0.75));
        for (t, want) in [(above + 1, Path::Introselect), (above + 3, Path::Values)] {
            let (kept, _, path) = kept(&tied, t);
            assert_eq!(path, want, "t = {t}");
            assert_eq!(kept, top_t_mask(&tied, t), "t = {t}");
        }
    }
}
