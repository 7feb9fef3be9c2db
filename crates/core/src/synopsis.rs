//! The serving-side output of the estimation API.
//!
//! A [`Synopsis`] wraps a fitted model (a [`Histogram`] or a
//! [`PiecewisePolynomial`]) together with precomputed per-piece cumulative
//! masses, turning it into the object a query engine actually serves:
//! range-mass estimates, a cumulative distribution function, approximate
//! quantiles, and error evaluation against the original signal — all in
//! `O(1)` expected (`O(piece)` inside polynomial pieces) without touching
//! the raw data again.
//!
//! Synopses are also *mergeable*: [`Synopsis::merge`] concatenates two
//! synopses fitted on adjacent chunks of a signal and re-merges the result
//! down to a piece budget, which is what the `hist-stream` crate builds its
//! chunked and streaming fitters on. For serving-style workloads,
//! [`Synopsis::mass_batch`], [`Synopsis::quantile_batch`] and
//! [`Synopsis::cdf_batch`] answer many queries per call.
//!
//! # Query kernels
//!
//! Every public query runs on a flat structure-of-arrays serving state
//! (`FlatKernel`, built once at construction): piece starts, piece ends,
//! and — for histograms — raw and clamped per-piece values, each in its own
//! contiguous array. Piece location reads a small block lookup table and
//! settles with a short exact scan (`O(1)` expected instead of a binary
//! search per query), and a second table does the same for quantile mass
//! targets. The pre-flat implementations are retained as `*_ref` reference
//! kernels
//! ([`Synopsis::cdf_ref`] and friends); the flat kernels perform the same
//! arithmetic operations in the same order, so every answer is bit-identical
//! — a guarantee enforced per estimator × fixture by `tests/prop_harness.rs`.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::histogram::Histogram;
use crate::interval::Interval;
use crate::piecewise_poly::PiecewisePolynomial;
use crate::signal::Signal;

/// Tolerance used when comparing cumulative masses (guards against the usual
/// floating-point drift of prefix sums).
const MASS_EPS: f64 = 1e-12;

/// Longest polynomial piece whose point-level clamping is computed by an exact
/// per-index walk. Beyond this (pieces spanning millions of indices, which
/// only arise for sparse signals over huge domains), possibly-negative pieces
/// fall back to piece-level clamping so construction stays input-sparsity.
const CLAMP_SCAN_LIMIT: usize = 1 << 16;

/// Power sums `S_r(m) = Σ_{x=0}^{m} x^r` for `r = 0, …, max_degree`, via the
/// binomial recurrence `(r+1)·S_r(m) = (m+1)^{r+1} − Σ_{j<r} C(r+1, j)·S_j(m)`
/// — `O(d²)` total.
fn power_sums(m: u64, max_degree: usize) -> Vec<f64> {
    let mut sums = Vec::with_capacity(max_degree + 1);
    let m1 = (m + 1) as f64;
    for r in 0..=max_degree {
        // C(r+1, j) built incrementally.
        let mut rhs = m1.powi(r as i32 + 1);
        let mut binom = 1.0; // C(r+1, 0)
        for (j, s) in sums.iter().enumerate().take(r) {
            rhs -= binom * s;
            binom *= (r + 1 - j) as f64 / (j + 1) as f64;
        }
        sums.push(rhs / (r as f64 + 1.0));
    }
    sums
}

/// Closed-form `Σ_{x=0}^{t} p(x)` for a polynomial given by local monomial
/// coefficients, in `O(d²)` time.
fn poly_prefix_sum(coefficients: &[f64], t: u64) -> f64 {
    let sums = power_sums(t, coefficients.len().saturating_sub(1));
    coefficients.iter().zip(&sums).map(|(c, s)| c * s).sum()
}

/// Whether the polynomial is provably non-negative on local `[0, len − 1]`:
/// `Some(true)`/`Some(false)` when cheaply decidable (degree ≤ 2 or
/// all-non-negative coefficients), `None` otherwise.
fn poly_nonneg(coefficients: &[f64], len: usize) -> Option<bool> {
    if coefficients.iter().all(|&c| c >= 0.0) {
        return Some(true);
    }
    let eval = |x: f64| coefficients.iter().rev().fold(0.0, |acc, &c| acc * x + c);
    let end = (len - 1) as f64;
    match coefficients.len() {
        0 | 1 => Some(coefficients.first().copied().unwrap_or(0.0) >= 0.0),
        2 => Some(eval(0.0) >= 0.0 && eval(end) >= 0.0),
        3 => {
            if eval(0.0) < 0.0 || eval(end) < 0.0 {
                return Some(false);
            }
            let (b, a) = (coefficients[1], coefficients[2]);
            if a == 0.0 {
                return Some(true);
            }
            let vertex = -b / (2.0 * a);
            Some(!(0.0..=end).contains(&vertex) || eval(vertex) >= 0.0)
        }
        _ => None,
    }
}

/// One piecewise-constant piece tracked by the greedy re-merge of
/// [`Synopsis::merge`]: its extent and its raw mass (the flattened value is
/// `mass / len`, i.e. the `ℓ₂`-optimal constant on the extent).
#[derive(Debug, Clone, Copy)]
struct MergePiece {
    start: usize,
    end: usize,
    mass: f64,
}

impl MergePiece {
    #[inline]
    fn len(&self) -> f64 {
        (self.end - self.start + 1) as f64
    }

    #[inline]
    fn value(&self) -> f64 {
        self.mass / self.len()
    }

    /// Exact squared-`ℓ₂` cost of replacing two adjacent constant pieces by
    /// their common flattening: `l_a·l_b/(l_a + l_b) · (v_a − v_b)²`.
    fn merge_cost(&self, other: &MergePiece) -> f64 {
        let (la, lb) = (self.len(), other.len());
        let d = self.value() - other.value();
        la * lb / (la + lb) * d * d
    }
}

/// A candidate pair in the greedy re-merge heap: merging piece `left` with its
/// right neighbour at the recorded `cost`. Entries are invalidated lazily via
/// the per-piece version stamps.
#[derive(Debug, Clone, Copy)]
struct MergeCandidate {
    cost: f64,
    left: usize,
    left_version: u32,
    right_version: u32,
}

impl PartialEq for MergeCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for MergeCandidate {}

impl PartialOrd for MergeCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeCandidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the cheapest merge.
        // `total_cmp` orders finite costs as `<` does (a cost is never −0.0)
        // and keeps the order total when an overflowed piece makes a cost NaN;
        // the merged histogram's non-finite check then reports the overflow.
        other.cost.total_cmp(&self.cost)
    }
}

/// Greedily merges adjacent pieces (cheapest exact `ℓ₂` cost first) until at
/// most `budget` remain. `O(k·log k)` with a lazy-deletion heap.
///
/// Returns the sum of the accepted merge costs. Each accepted cost is the
/// exact squared-`ℓ₂` increase of flattening that pair (Ward's decomposition),
/// so the sum is exactly `‖merged − input‖₂²` — the squared distance between
/// the output and the piecewise-constant input it was merged from.
fn greedy_remerge(pieces: &mut Vec<MergePiece>, budget: usize) -> f64 {
    use std::collections::BinaryHeap;
    if pieces.len() <= budget {
        return 0.0;
    }
    let k = pieces.len();
    let mut next: Vec<usize> = (1..=k).collect();
    let mut prev: Vec<usize> = vec![usize::MAX; k];
    for (i, p) in prev.iter_mut().enumerate().skip(1) {
        *p = i - 1;
    }
    let mut version = vec![0u32; k];
    let mut alive = vec![true; k];
    let mut heap = BinaryHeap::with_capacity(2 * k);
    for i in 0..k - 1 {
        heap.push(MergeCandidate {
            cost: pieces[i].merge_cost(&pieces[i + 1]),
            left: i,
            left_version: 0,
            right_version: 0,
        });
    }
    let mut remaining = k;
    let mut accepted_cost = 0.0f64;
    while remaining > budget {
        let candidate = heap.pop().expect("fewer pieces than budget implies candidates remain");
        let left = candidate.left;
        let right = next[left];
        if !alive[left]
            || right >= k
            || version[left] != candidate.left_version
            || version[right] != candidate.right_version
        {
            continue;
        }
        // Absorb `right` into `left`.
        accepted_cost += candidate.cost;
        pieces[left].end = pieces[right].end;
        pieces[left].mass += pieces[right].mass;
        version[left] += 1;
        alive[right] = false;
        next[left] = next[right];
        if next[right] < k {
            prev[next[right]] = left;
        }
        remaining -= 1;
        if prev[left] != usize::MAX {
            let p = prev[left];
            heap.push(MergeCandidate {
                cost: pieces[p].merge_cost(&pieces[left]),
                left: p,
                left_version: version[p],
                right_version: version[left],
            });
        }
        if next[left] < k {
            let n = next[left];
            heap.push(MergeCandidate {
                cost: pieces[left].merge_cost(&pieces[n]),
                left,
                left_version: version[left],
                right_version: version[n],
            });
        }
    }
    let mut kept = Vec::with_capacity(remaining);
    let mut i = 0usize;
    while i < k {
        kept.push(pieces[i]);
        i = next[i];
    }
    *pieces = kept;
    accepted_cost
}

/// Exact accounting of one [`Synopsis::merge_with_stats`] step: how much
/// squared-`ℓ₂` accuracy the budgeted re-merge spent relative to the plain
/// concatenation of the two inputs.
///
/// Summed across a merge chain, the [`MergeStats::l2_delta`]s upper-bound
/// (by the triangle inequality) the total drift of the result away from the
/// concatenation of everything it absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MergeStats {
    /// Sum of the accepted greedy merge costs: exactly
    /// `‖merged − left ⊕ right‖₂²`.
    pub accepted_cost: f64,
    /// `‖merged − left ⊕ right‖₂` — the square root of
    /// [`MergeStats::accepted_cost`].
    pub l2_delta: f64,
    /// Total mass of the right-hand (incoming) synopsis.
    pub incoming_mass: f64,
}

/// The model class a [`Synopsis`] wraps.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedModel {
    /// A piecewise-constant model (`k`-histogram).
    Histogram(Histogram),
    /// A piecewise-polynomial model (`(k, d)`-piecewise polynomial).
    Polynomial(PiecewisePolynomial),
}

impl FittedModel {
    fn domain(&self) -> usize {
        match self {
            FittedModel::Histogram(h) => h.domain(),
            FittedModel::Polynomial(p) => p.domain(),
        }
    }

    fn num_pieces(&self) -> usize {
        match self {
            FittedModel::Histogram(h) => h.num_pieces(),
            FittedModel::Polynomial(p) => p.num_pieces(),
        }
    }

    fn piece_interval(&self, j: usize) -> Interval {
        match self {
            FittedModel::Histogram(h) => h.partition().interval(j),
            FittedModel::Polynomial(p) => p.pieces()[j].interval(),
        }
    }

    /// Raw (possibly negative) mass of piece `j`. `O(1)` for histograms,
    /// `O(d²)` closed form for polynomials.
    fn piece_mass(&self, j: usize) -> f64 {
        match self {
            FittedModel::Histogram(h) => h.partition().interval(j).len() as f64 * h.values()[j],
            FittedModel::Polynomial(p) => {
                let piece = &p.pieces()[j];
                poly_prefix_sum(piece.coefficients(), piece.interval().len() as u64 - 1)
            }
        }
    }

    /// Mass of piece `j` with negative point values clamped to zero (the
    /// measure used by `cdf`/`quantile`, which need monotonicity).
    ///
    /// Exact for histograms, for provably non-negative polynomial pieces
    /// (closed form) and for polynomial pieces up to [`CLAMP_SCAN_LIMIT`]
    /// indices (per-index walk); longer possibly-negative polynomial pieces
    /// use piece-level clamping `max(raw, 0)` so that construction stays
    /// input-sparsity on huge domains.
    fn piece_clamped_mass(&self, j: usize) -> f64 {
        match self {
            FittedModel::Histogram(h) => {
                h.partition().interval(j).len() as f64 * h.values()[j].max(0.0)
            }
            FittedModel::Polynomial(p) => {
                let piece = &p.pieces()[j];
                let len = piece.interval().len();
                match poly_nonneg(piece.coefficients(), len) {
                    Some(true) => self.piece_mass(j).max(0.0),
                    _ if len <= CLAMP_SCAN_LIMIT => {
                        piece.interval().indices().map(|i| piece.evaluate(i).max(0.0)).sum()
                    }
                    _ => self.piece_mass(j).max(0.0),
                }
            }
        }
    }

    /// Clamped mass of the indices `piece_start ..= x` of piece `j`, under the
    /// same exactness tiers as [`Self::piece_clamped_mass`] (the huge-piece
    /// fallback interpolates the piece's clamped mass linearly, which keeps
    /// the cdf monotone).
    fn piece_clamped_prefix(&self, j: usize, x: usize) -> f64 {
        match self {
            FittedModel::Histogram(h) => {
                let interval = h.partition().interval(j);
                debug_assert!(interval.contains(x));
                (x - interval.start() + 1) as f64 * h.values()[j].max(0.0)
            }
            FittedModel::Polynomial(p) => {
                let piece = &p.pieces()[j];
                let interval = piece.interval();
                debug_assert!(interval.contains(x));
                let len = interval.len();
                let t = (x - interval.start()) as u64;
                match poly_nonneg(piece.coefficients(), len) {
                    Some(true) => poly_prefix_sum(piece.coefficients(), t).max(0.0),
                    _ if len <= CLAMP_SCAN_LIMIT => {
                        (interval.start()..=x).map(|i| piece.evaluate(i).max(0.0)).sum()
                    }
                    _ => self.piece_clamped_mass(j) * (t + 1) as f64 / len as f64,
                }
            }
        }
    }

    /// Raw mass of the overlap of piece `j` with `range`. `O(1)` for
    /// histograms, `O(d²)` closed form for polynomials.
    fn piece_overlap_mass(&self, j: usize, range: Interval) -> f64 {
        let interval = self.piece_interval(j);
        let Some(overlap) = interval.intersection(&range) else { return 0.0 };
        match self {
            FittedModel::Histogram(h) => overlap.len() as f64 * h.values()[j],
            FittedModel::Polynomial(p) => {
                let piece = &p.pieces()[j];
                let hi = (overlap.end() - interval.start()) as u64;
                let upto_hi = poly_prefix_sum(piece.coefficients(), hi);
                if overlap.start() == interval.start() {
                    upto_hi
                } else {
                    let lo = (overlap.start() - interval.start()) as u64;
                    upto_hi - poly_prefix_sum(piece.coefficients(), lo - 1)
                }
            }
        }
    }

    /// The model flattened to piecewise-constant pieces, offset by `shift`:
    /// histogram pieces pass through exactly; polynomial pieces are replaced
    /// by their interval mean, which is the `ℓ₂` projection of the piece onto
    /// constants over the same extent.
    fn to_merge_pieces(&self, shift: usize) -> Vec<MergePiece> {
        (0..self.num_pieces())
            .map(|j| {
                let interval = self.piece_interval(j);
                MergePiece {
                    start: interval.start() + shift,
                    end: interval.end() + shift,
                    mass: self.piece_mass(j),
                }
            })
            .collect()
    }

    /// Index of the piece containing domain index `i`.
    fn locate(&self, i: usize) -> usize {
        match self {
            FittedModel::Histogram(h) => h.partition().locate(i).expect("index inside domain"),
            FittedModel::Polynomial(p) => {
                p.pieces().partition_point(|piece| piece.interval().end() < i)
            }
        }
    }
}

/// Branch-free lower bound: the smallest index `i` with `!pred(&xs[i])`,
/// clamped to `xs.len() - 1` — `xs.partition_point(pred).min(xs.len() - 1)`
/// for a monotone (true-prefix) predicate.
///
/// The search itself is `slice::partition_point`, whose core loop runs a
/// fixed `⌈log₂ len⌉` iterations of a bounds-check-free probe and a
/// conditional move — no data-dependent branches, so consecutive queries'
/// load chains overlap in the pipeline regardless of the probe pattern.
/// (Safe hand-rolled equivalents measure ~3× slower here: the optimizer
/// keeps a per-iteration bounds check that std elides internally.) What the
/// flat kernels change is the *data* under the search: contiguous primitive
/// arrays instead of `Vec<Piece>` structs. The `.min()` clamp keeps the
/// result a valid piece index even for probes past the last boundary, which
/// is exactly the clamp the quantile kernels applied before.
#[inline]
fn lower_bound_clamped<T>(xs: &[T], pred: impl Fn(&T) -> bool) -> usize {
    debug_assert!(!xs.is_empty());
    xs.partition_point(pred).min(xs.len() - 1)
}

/// Validates a quantile fraction at the API boundary: finite *and* in
/// `[0, 1]`. The explicit finiteness arm is load-bearing — NaN compares
/// false against every bound, so a bare range check cannot tell "out of
/// range" from "not a number", and anything that slips past lands in the
/// `c < target - MASS_EPS` mass comparisons where every probe is false and
/// the query would silently answer index 0.
fn validate_fraction(name: &'static str, p: f64) -> Result<()> {
    if !p.is_finite() {
        return Err(Error::InvalidParameter {
            name,
            reason: format!("quantile fractions must be finite, got {p}"),
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::InvalidParameter {
            name,
            reason: format!("quantile fractions must lie in [0, 1], got {p}"),
        });
    }
    Ok(())
}

/// Most entries a [`FlatKernel`] position lookup table aims for. The actual
/// table holds `⌈domain / block⌉` entries for the smallest power-of-two
/// block with at most `min(POSITION_LUT_TARGET, POSITION_LUT_PER_PIECE · k)`
/// — ≤ 8 KiB of `u32`s, sized so a hot synopsis keeps it resident in L1/L2.
const POSITION_LUT_TARGET: usize = 2048;

/// Position lookup-table entries aimed for per fitted piece: enough that a
/// block rarely holds a piece boundary (the scan after the table read is
/// then almost always zero steps), few enough that a small-`k` synopsis
/// keeps an `O(k)` table instead of one entry per domain index. From 128
/// pieces up the cap above binds instead.
const POSITION_LUT_PER_PIECE: usize = 16;

/// The flat structure-of-arrays serving state every public query kernel runs
/// on: the fitted model's piece extents — and, for histograms, its raw and
/// clamped per-piece values — unzipped into contiguous parallel arrays,
/// plus a block lookup table that turns piece location into `O(1)` work.
///
/// Searches over `Vec<Piece>`-shaped data pay a pointer chase and an
/// unpredictable branch per probe; over these arrays the same piece lookup
/// is one table read and a short exact scan, and the batch kernels become
/// tight loops over primitive slices. Every arithmetic operation the flat
/// kernels perform is the operation the reference kernels perform, on the
/// same operands in the same order, which is what keeps every answer
/// bit-identical (asserted by the differential harness in
/// `tests/prop_harness.rs`).
#[derive(Debug, Clone, PartialEq)]
struct FlatKernel {
    /// `starts[j]`: first domain index of piece `j` (`starts[0] == 0`).
    starts: Vec<usize>,
    /// `ends[j]`: last domain index of piece `j`, strictly increasing, with
    /// `ends[k − 1] == domain − 1`.
    ends: Vec<usize>,
    /// Histogram models: the raw (possibly negative) per-piece value. Empty
    /// for polynomial models, whose per-piece parameters stay in the model —
    /// the flat kernels delegate within-piece polynomial arithmetic to the
    /// shared tiered code so the exactness tiers (and the bits) cannot
    /// diverge.
    values: Vec<f64>,
    /// Histogram models: `values[j].max(0.0)`, the clamped value the
    /// cdf/quantile measure uses. Empty for polynomial models.
    clamped: Vec<f64>,
    /// `lut[b]`: index of the piece containing domain index `b << shift` —
    /// a starting guess for [`FlatKernel::locate`] that is never past the
    /// answer, so a forward scan from it is exact.
    lut: Vec<u32>,
    /// Log₂ of the lookup-table block size.
    shift: u32,
}

impl FlatKernel {
    fn build(model: &FittedModel) -> Self {
        let k = model.num_pieces();
        let mut starts = Vec::with_capacity(k);
        let mut ends = Vec::with_capacity(k);
        for j in 0..k {
            let interval = model.piece_interval(j);
            starts.push(interval.start());
            ends.push(interval.end());
        }
        let (values, clamped) = match model {
            FittedModel::Histogram(h) => {
                let values = h.values().to_vec();
                let clamped = values.iter().map(|v| v.max(0.0)).collect();
                (values, clamped)
            }
            FittedModel::Polynomial(_) => (Vec::new(), Vec::new()),
        };
        let domain = model.domain();
        let target = POSITION_LUT_TARGET.min(POSITION_LUT_PER_PIECE * k);
        let shift = domain.div_ceil(target).next_power_of_two().trailing_zeros();
        let lut_len = ((domain - 1) >> shift) + 1;
        let mut lut = Vec::with_capacity(lut_len);
        let mut j = 0usize;
        for b in 0..lut_len {
            while ends[j] < b << shift {
                j += 1;
            }
            lut.push(j as u32);
        }
        Self { starts, ends, values, clamped, lut, shift }
    }

    /// Index of the piece containing domain index `x` (`x` must be inside
    /// the domain) — equal to [`FittedModel::locate`] for every such `x`.
    ///
    /// One table read gives the piece holding `x`'s block start; since piece
    /// ends ascend and `x` is at or past that block start (integer
    /// arithmetic, exact), the containing piece is found by scanning
    /// forward, usually zero or one step: blocks are sized so that at the
    /// fitted piece count most blocks contain no boundary at all. `O(1)`
    /// expected, `O(k)` only if every boundary crowds into one block — and
    /// exact in all cases, unlike interpolation guesses.
    #[inline]
    fn locate(&self, x: usize) -> usize {
        let mut j = self.lut[x >> self.shift] as usize;
        while self.ends[j] < x {
            j += 1;
        }
        j
    }
}

/// A fitted, query-ready synopsis: the output of every
/// [`Estimator`](crate::Estimator).
///
/// Construction precomputes the cumulative clamped mass at the `k + 1` piece
/// boundaries plus position and quantile lookup tables, so
/// [`Synopsis::cdf`] and [`Synopsis::quantile`] run in `O(1)` expected time
/// for histograms (plus `O(d²·log |piece|)` inside a polynomial piece, via
/// closed-form power sums) and [`Synopsis::mass`] in
/// `O(#overlapping pieces)` expected.
#[derive(Debug, Clone, PartialEq)]
pub struct Synopsis {
    estimator: &'static str,
    target_k: usize,
    model: FittedModel,
    /// Cumulative *clamped* (non-negative) mass at piece boundaries;
    /// `boundary_cdf[j]` is the clamped mass of the first `j` pieces.
    boundary_cdf: Vec<f64>,
    /// Raw total mass (negative values included).
    raw_mass: f64,
    /// Flat structure-of-arrays mirror of the model's piece structure — the
    /// state the query kernels actually read. Always consistent with
    /// `model` (derived at construction, immutable afterwards).
    flat: FlatKernel,
    /// `qlut[i]`: the piece [`Synopsis::quantile_piece`] answers for a mass
    /// target of `i / qlut_scale` — a starting guess the quantile kernel
    /// settles to the exact piece from. Empty when the synopsis carries no
    /// positive mass (every quantile query then errors before piece lookup).
    qlut: Vec<u32>,
    /// Grid density of `qlut`: entries per unit of clamped mass.
    qlut_scale: f64,
}

/// Number of entries in a [`Synopsis`] quantile lookup table.
const QUANTILE_LUT_LEN: usize = 512;

impl Synopsis {
    /// Wraps a fitted model, recording which estimator produced it and the
    /// piece budget `k` it was asked for.
    pub fn new(estimator: &'static str, target_k: usize, model: FittedModel) -> Self {
        let k = model.num_pieces();
        let mut boundary_cdf = Vec::with_capacity(k + 1);
        boundary_cdf.push(0.0);
        let mut clamped = 0.0;
        let mut raw_mass = 0.0;
        for j in 0..k {
            clamped += model.piece_clamped_mass(j);
            raw_mass += model.piece_mass(j);
            boundary_cdf.push(clamped);
        }
        let flat = FlatKernel::build(&model);
        let total = *boundary_cdf.last().expect("boundary cdf is non-empty");
        let (qlut, qlut_scale) = if total > 0.0 && total.is_finite() {
            let scale = QUANTILE_LUT_LEN as f64 / total;
            let qlut = (0..QUANTILE_LUT_LEN)
                .map(|i| {
                    let threshold = i as f64 / scale - MASS_EPS;
                    lower_bound_clamped(&boundary_cdf[1..], |&c| c < threshold) as u32
                })
                .collect();
            (qlut, scale)
        } else {
            (Vec::new(), 0.0)
        };
        Self { estimator, target_k, model, boundary_cdf, raw_mass, flat, qlut, qlut_scale }
    }

    /// Reconstructs a synopsis from validated raw parts — the decode path of
    /// the persistence codec (`hist-persist`).
    ///
    /// Unlike [`Synopsis::new`] (whose inputs come from a fitter and are
    /// trusted), this constructor treats the parts as *untrusted*: it rejects
    /// a zero piece budget and any model whose cumulative masses overflow to
    /// a non-finite value, so a synopsis rebuilt from decoded bytes satisfies
    /// exactly the invariants a fitted one does. The precomputed serving
    /// state ([`Synopsis::boundary_masses`], the raw total mass) is
    /// recomputed from the model with the same arithmetic as `new`, which is
    /// what makes a decode → query path bit-identical to the original.
    pub fn from_parts(
        estimator: &'static str,
        target_k: usize,
        model: FittedModel,
    ) -> Result<Self> {
        if target_k == 0 {
            return Err(Error::InvalidParameter {
                name: "target_k",
                reason: "the piece budget of a synopsis must be at least 1".into(),
            });
        }
        let synopsis = Synopsis::new(estimator, target_k, model);
        if !synopsis.raw_mass.is_finite() || synopsis.boundary_cdf.iter().any(|m| !m.is_finite()) {
            return Err(Error::NonFiniteValue { context: "Synopsis::from_parts" });
        }
        Ok(synopsis)
    }

    /// Name of the estimator that produced this synopsis.
    #[inline]
    pub fn estimator(&self) -> &'static str {
        self.estimator
    }

    /// The piece budget `k` the estimator was configured with (the output may
    /// legally have `O(k)` pieces, e.g. `2k + 1` for the merging algorithms).
    #[inline]
    pub fn target_k(&self) -> usize {
        self.target_k
    }

    /// The wrapped model.
    #[inline]
    pub fn model(&self) -> &FittedModel {
        &self.model
    }

    /// Moves the synopsis behind an [`Arc`], the shape concurrent serving
    /// layers share between threads: readers clone the `Arc` (a reference
    /// count bump, no data copy) and query their snapshot lock-free while a
    /// writer builds the next synopsis.
    ///
    /// `Synopsis` is `Send + Sync` (fitted models are plain owned data with no
    /// interior mutability), so the shared synopsis can be queried from any
    /// thread.
    #[inline]
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The extent of piece `j` of the fitted model.
    ///
    /// Edge cases (the codec in `hist-persist` iterates pieces through this
    /// accessor, so the semantics are pinned by regression tests):
    ///
    /// * a single-piece synopsis returns the full domain `[0, n − 1]` for
    ///   `j = 0` — models are never empty, so `j = 0` is always valid;
    /// * pieces tile the domain: `piece_interval(j + 1).start()` is always
    ///   `piece_interval(j).end() + 1`.
    ///
    /// # Panics
    /// Panics if `j ≥ num_pieces()`; there is no piece to describe, and
    /// returning a sentinel interval would let callers silently iterate past
    /// the model.
    #[inline]
    pub fn piece_interval(&self, j: usize) -> Interval {
        self.model.piece_interval(j)
    }

    /// The cumulative *clamped* (non-negative) mass at the `k + 1` piece
    /// boundaries: entry `j` is the clamped mass of the first `j` pieces.
    /// Borrowed zero-copy — the precomputed state `cdf`/`quantile` serve from.
    ///
    /// Edge cases (pinned by regression tests, relied on by the persistence
    /// codec and the serving layer):
    ///
    /// * the slice always has exactly `num_pieces() + 1` entries and starts
    ///   with `0.0` — even a single-piece synopsis yields two entries
    ///   `[0.0, total]`;
    /// * entries are non-decreasing (clamping makes every per-piece
    ///   contribution non-negative);
    /// * a synopsis with no positive mass (e.g. an all-zero histogram) yields
    ///   all-zero entries — the slice never shrinks to mark emptiness, and
    ///   `cdf`/`quantile` report [`Error::InvalidDistribution`] instead.
    #[inline]
    pub fn boundary_masses(&self) -> &[f64] {
        &self.boundary_cdf
    }

    /// The wrapped histogram, when the model is piecewise constant.
    pub fn histogram(&self) -> Option<&Histogram> {
        match &self.model {
            FittedModel::Histogram(h) => Some(h),
            FittedModel::Polynomial(_) => None,
        }
    }

    /// The wrapped piecewise polynomial, when the model is one.
    pub fn polynomial(&self) -> Option<&PiecewisePolynomial> {
        match &self.model {
            FittedModel::Histogram(_) => None,
            FittedModel::Polynomial(p) => Some(p),
        }
    }

    /// Number of pieces of the fitted model.
    pub fn num_pieces(&self) -> usize {
        self.model.num_pieces()
    }

    /// Domain size `n`.
    pub fn domain(&self) -> usize {
        self.model.domain()
    }

    /// Total (raw) mass `Σ_i h(i)` of the model — for a frequency synopsis,
    /// the estimated table size.
    pub fn total_mass(&self) -> f64 {
        self.raw_mass
    }

    /// The model materialized as a dense vector of length `n`.
    pub fn to_dense(&self) -> Vec<f64> {
        match &self.model {
            FittedModel::Histogram(h) => h.to_dense(),
            FittedModel::Polynomial(p) => p.to_dense(),
        }
    }

    /// Estimated mass `Σ_{i ∈ R} h(i)` over an index range — the classical
    /// range-count estimate of a database synopsis.
    pub fn mass(&self, range: Interval) -> Result<f64> {
        self.validate_range(range)?;
        Ok(self.mass_flat(range))
    }

    /// Shared query-range validation for [`Synopsis::mass`],
    /// [`Synopsis::mass_batch`] and the reference kernels: the range must end
    /// inside the domain and must not be inverted. An inverted interval is
    /// unconstructible through [`Interval::new`], but
    /// [`Interval::new_unchecked`] only debug-asserts, so a release-mode
    /// caller could otherwise smuggle `start > end` into the piece walk —
    /// where locating `start` past the last piece panics instead of erroring.
    /// Pointwise, batch, flat and reference paths all answer such a range
    /// with the same typed error.
    #[inline]
    fn validate_range(&self, range: Interval) -> Result<()> {
        if range.end() >= self.domain() {
            return Err(Error::IndexOutOfRange { index: range.end(), domain: self.domain() });
        }
        if range.start() > range.end() {
            return Err(Error::InvalidParameter {
                name: "range",
                reason: format!(
                    "mass ranges must satisfy start <= end, got [{}, {}]",
                    range.start(),
                    range.end()
                ),
            });
        }
        Ok(())
    }

    /// The flat mass kernel: table-assisted location of the first overlapping
    /// piece, then a tight clip-and-accumulate loop over the flat arrays.
    /// The histogram term `(hi − lo + 1) · value` is the same product
    /// [`FittedModel::piece_overlap_mass`] computes for a non-empty overlap
    /// (every piece the loop visits overlaps the range), and the sum starts
    /// from the same `0.0` seed in the same order — so the result matches
    /// [`Synopsis::mass_ref`] bit-for-bit. Polynomial within-piece terms
    /// delegate to the shared closed-form code.
    #[inline(always)]
    fn mass_flat(&self, range: Interval) -> f64 {
        let first = self.flat.locate(range.start());
        let mut total = 0.0;
        if self.flat.values.is_empty() {
            for j in first..self.num_pieces() {
                if self.flat.starts[j] > range.end() {
                    break;
                }
                total += self.model.piece_overlap_mass(j, range);
            }
        } else {
            for j in first..self.flat.values.len() {
                let start = self.flat.starts[j];
                if start > range.end() {
                    break;
                }
                let lo = range.start().max(start);
                let hi = range.end().min(self.flat.ends[j]);
                total += (hi - lo + 1) as f64 * self.flat.values[j];
            }
        }
        total
    }

    /// The normalized cumulative distribution function at index `x`: the
    /// fraction of the synopsis' (clamped, non-negative) mass lying in
    /// `[0, x]`. Monotone in `x` with `cdf(n − 1) = 1`.
    pub fn cdf(&self, x: usize) -> Result<f64> {
        if x >= self.domain() {
            return Err(Error::IndexOutOfRange { index: x, domain: self.domain() });
        }
        let total = self.clamped_total()?;
        let j = self.flat.locate(x);
        let cumulative = self.boundary_cdf[j] + self.clamped_prefix(j, x);
        Ok((cumulative / total).min(1.0))
    }

    /// Clamped prefix mass of piece `j` up to `x`: for histograms the product
    /// `(x − start + 1) · max(v, 0)` read straight off the flat arrays — the
    /// identical operation [`FittedModel::piece_clamped_prefix`] performs,
    /// with the clamp precomputed — and for polynomials a delegation to the
    /// shared tiered code.
    #[inline]
    fn clamped_prefix(&self, j: usize, x: usize) -> f64 {
        if self.flat.clamped.is_empty() {
            self.model.piece_clamped_prefix(j, x)
        } else {
            (x - self.flat.starts[j] + 1) as f64 * self.flat.clamped[j]
        }
    }

    /// Answers a batch of cdf queries in one pass over the flat arrays.
    ///
    /// Returns exactly what mapping [`Synopsis::cdf`] over `xs` would return
    /// — bit-identical values and the same stop-at-first-error semantics —
    /// but as one tight loop: per element an `O(1)`-expected table-assisted
    /// piece lookup, one multiply-add and one division, with the invariant
    /// total-mass check hoisted out of the hot path by the compiler.
    pub fn cdf_batch(&self, xs: &[usize]) -> Result<Vec<f64>> {
        let domain = self.domain();
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            if x >= domain {
                return Err(Error::IndexOutOfRange { index: x, domain });
            }
            let total = self.clamped_total()?;
            let j = self.flat.locate(x);
            out.push(((self.boundary_cdf[j] + self.clamped_prefix(j, x)) / total).min(1.0));
        }
        Ok(out)
    }

    /// The smallest index `x` with `cdf(x) ≥ p`, for `p ∈ [0, 1]` — an
    /// approximate quantile served directly from the synopsis.
    ///
    /// Boundary semantics: `quantile(0.0)` is always `0` (every index already
    /// has `cdf(x) ≥ 0`), and `quantile(1.0)` is the *end of the mass
    /// support* — the smallest `x` with `cdf(x) = 1`, which excludes any
    /// trailing zero-mass pieces rather than returning `n − 1` blindly.
    pub fn quantile(&self, p: f64) -> Result<usize> {
        validate_fraction("p", p)?;
        let total = self.clamped_total()?;
        let target = p * total;
        let j = self.quantile_piece(target);
        Ok(self.quantile_within_flat(j, target))
    }

    /// First piece whose boundary cumulative reaches `target`, clamped to
    /// the last piece — exactly the reference kernel's
    /// `partition_point(|&c| c < target - MASS_EPS).min(num_pieces() - 1)`,
    /// reached through the quantile lookup table instead of a binary search.
    ///
    /// The table gives the answer for the nearest grid target below
    /// `target`; the two scans then settle to the exact clamped partition
    /// point of the monotone predicate *from any starting index*, so even a
    /// grid guess perturbed by floating-point rounding cannot change the
    /// result — it only changes how many settle steps run (almost always
    /// zero or one).
    #[inline]
    fn quantile_piece(&self, target: f64) -> usize {
        let threshold = target - MASS_EPS;
        if self.qlut.is_empty() {
            return lower_bound_clamped(&self.boundary_cdf[1..], |&c| c < threshold);
        }
        let cell = ((target * self.qlut_scale) as usize).min(self.qlut.len() - 1);
        let mut j = self.qlut[cell] as usize;
        while j > 0 && self.boundary_cdf[j] >= threshold {
            j -= 1;
        }
        let last = self.num_pieces() - 1;
        while j < last && self.boundary_cdf[j + 1] < threshold {
            j += 1;
        }
        j
    }

    /// [`Synopsis::quantile_within`] reading the flat arrays: for histograms
    /// the identical offset arithmetic on the identical values — `clamped[j]`
    /// *is* `values()[j].max(0.0)`, and `ends[j] − starts[j]` *is*
    /// `interval.len() − 1` — just without the model-enum match and the
    /// `Vec<Interval>` chase per query. Polynomial models delegate to the
    /// shared binary search unchanged.
    #[inline(always)]
    fn quantile_within_flat(&self, j: usize, target: f64) -> usize {
        if self.flat.clamped.is_empty() {
            return self.quantile_within(j, target);
        }
        let start = self.flat.starts[j];
        let remaining = (target - self.boundary_cdf[j]).max(0.0);
        let v = self.flat.clamped[j];
        if v <= 0.0 {
            return start;
        }
        // Smallest offset c ≥ 1 with v·c ≥ remaining — the reference
        // kernel's `.ceil()`, computed by truncating through i64 instead:
        // on baseline x86-64 `f64::ceil` is a libm call, and this whole
        // function is otherwise a handful of arithmetic ops. The cast is an
        // exact trunc for |x| < 2⁵³; above that (or on i64 saturation) the
        // two ceilings can differ, but both are then ≥ 2⁵² − 1, far past any
        // piece length, so the `.min(piece len − 1)` clamp erases the
        // difference and the returned index stays identical — which is what
        // the differential harness asserts.
        let x = remaining / v - MASS_EPS;
        let t = x as i64 as f64;
        let ceiling = if t < x { t + 1.0 } else { t };
        let count = ceiling.max(1.0) as usize;
        start + (count - 1).min(self.flat.ends[j] - start)
    }

    /// The within-piece half of [`Synopsis::quantile`]: the smallest index of
    /// piece `j` whose cumulative clamped mass reaches `target` (already known
    /// to fall inside piece `j`).
    fn quantile_within(&self, j: usize, target: f64) -> usize {
        let interval = self.model.piece_interval(j);
        let remaining = (target - self.boundary_cdf[j]).max(0.0);
        match &self.model {
            FittedModel::Histogram(h) => {
                let v = h.values()[j].max(0.0);
                if v <= 0.0 {
                    return interval.start();
                }
                // Smallest offset c ≥ 1 with v·c ≥ remaining.
                let count = (remaining / v - MASS_EPS).ceil().max(1.0) as usize;
                interval.start() + (count - 1).min(interval.len() - 1)
            }
            FittedModel::Polynomial(_) => {
                // The within-piece clamped prefix is monotone in every
                // exactness tier, so quantile inverts cdf by binary search.
                let (mut lo, mut hi) = (interval.start(), interval.end());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.model.piece_clamped_prefix(j, mid) >= remaining - MASS_EPS {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            }
        }
    }

    /// Answers a batch of range-mass queries in one pass over the flat
    /// arrays.
    ///
    /// Returns exactly what [`Synopsis::mass`] would return for each range —
    /// bit-identical masses, validate-everything-first error semantics — by
    /// running the flat kernel per query in input order: an
    /// `O(1)`-expected table-assisted locate plus the overlap walk,
    /// `O(q + Σ overlaps)` expected total. The sorted-sweep reference
    /// implementation survives as
    /// [`Synopsis::mass_batch_ref`]; dropping the sort (and its permutation
    /// buffers) is most of the flat kernel's batch speedup.
    pub fn mass_batch(&self, ranges: &[Interval]) -> Result<Vec<f64>> {
        for &range in ranges {
            self.validate_range(range)?;
        }
        let mut out = Vec::with_capacity(ranges.len());
        for &range in ranges {
            out.push(self.mass_flat(range));
        }
        Ok(out)
    }

    /// Answers a batch of quantile queries in one pass over the flat arrays.
    ///
    /// Returns exactly what [`Synopsis::quantile`] would return for each
    /// fraction — bit-identical indices, validate-everything-first error
    /// semantics — by running the table-assisted piece lookup per query in
    /// input order, `O(q)` expected total. The sort-and-sweep reference
    /// implementation survives as [`Synopsis::quantile_batch_ref`]; skipping
    /// the `f64` comparator sort is most of the flat kernel's batch speedup.
    pub fn quantile_batch(&self, ps: &[f64]) -> Result<Vec<usize>> {
        for &p in ps {
            validate_fraction("ps", p)?;
        }
        // Like `cdf_batch`/`mass_batch`: an empty batch asks nothing of the
        // mass, so even a zero-mass synopsis answers it.
        if ps.is_empty() {
            return Ok(Vec::new());
        }
        let total = self.clamped_total()?;
        let mut out = Vec::with_capacity(ps.len());
        for &p in ps {
            let target = p * total;
            let j = self.quantile_piece(target);
            out.push(self.quantile_within_flat(j, target));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Reference kernels
    //
    // The pre-flat implementations, retained as the oracle the differential
    // harness (`tests/prop_harness.rs`) diffs bit-for-bit against the flat
    // kernels for every estimator × fixture, and as the baseline the
    // `query_kernel` bench measures speedups against. They share input
    // validation and the within-piece arithmetic with the flat kernels —
    // what differs is exactly the thing under test: the data layout and the
    // search strategy.
    // ------------------------------------------------------------------

    /// Reference cdf kernel: piece location through the model's own
    /// (branching) binary search instead of the flat arrays. Same answers,
    /// same errors as [`Synopsis::cdf`], bit-for-bit.
    pub fn cdf_ref(&self, x: usize) -> Result<f64> {
        if x >= self.domain() {
            return Err(Error::IndexOutOfRange { index: x, domain: self.domain() });
        }
        let total = self.clamped_total()?;
        let j = self.model.locate(x);
        let cumulative = self.boundary_cdf[j] + self.model.piece_clamped_prefix(j, x);
        Ok((cumulative / total).min(1.0))
    }

    /// Reference quantile kernel: `partition_point` over the boundary
    /// cumulatives instead of the quantile lookup table. Same answers,
    /// same errors as [`Synopsis::quantile`], bit-for-bit.
    pub fn quantile_ref(&self, p: f64) -> Result<usize> {
        validate_fraction("p", p)?;
        let total = self.clamped_total()?;
        let target = p * total;
        let j = self.boundary_cdf[1..]
            .partition_point(|&c| c < target - MASS_EPS)
            .min(self.num_pieces() - 1);
        Ok(self.quantile_within(j, target))
    }

    /// Reference mass kernel: piece walk through the model's piece structure
    /// instead of the flat arrays. Same answers, same errors as
    /// [`Synopsis::mass`], bit-for-bit.
    pub fn mass_ref(&self, range: Interval) -> Result<f64> {
        self.validate_range(range)?;
        let first = self.model.locate(range.start());
        let mut total = 0.0;
        for j in first..self.num_pieces() {
            if self.model.piece_interval(j).start() > range.end() {
                break;
            }
            total += self.model.piece_overlap_mass(j, range);
        }
        Ok(total)
    }

    /// Reference batch-mass kernel: sorts the queries by left endpoint and
    /// sweeps the pieces with a forward cursor (`O(q·log q + k + Σ
    /// overlaps)`). Same answers, same errors as [`Synopsis::mass_batch`],
    /// bit-for-bit.
    pub fn mass_batch_ref(&self, ranges: &[Interval]) -> Result<Vec<f64>> {
        for &range in ranges {
            self.validate_range(range)?;
        }
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_by_key(|&i| ranges[i].start());
        let mut out = vec![0.0; ranges.len()];
        let mut cursor = 0usize;
        for &qi in &order {
            let range = ranges[qi];
            // First piece that can overlap the range; never moves backwards.
            while self.model.piece_interval(cursor).end() < range.start() {
                cursor += 1;
            }
            let mut total = 0.0;
            for j in cursor..self.num_pieces() {
                if self.model.piece_interval(j).start() > range.end() {
                    break;
                }
                total += self.model.piece_overlap_mass(j, range);
            }
            out[qi] = total;
        }
        Ok(out)
    }

    /// Reference batch-quantile kernel: sorts the fractions and advances a
    /// single piece cursor over the cumulative boundary masses
    /// (`O(q·log q + k)`). Same answers, same errors as
    /// [`Synopsis::quantile_batch`], bit-for-bit.
    pub fn quantile_batch_ref(&self, ps: &[f64]) -> Result<Vec<usize>> {
        for &p in ps {
            validate_fraction("ps", p)?;
        }
        if ps.is_empty() {
            return Ok(Vec::new());
        }
        let total = self.clamped_total()?;
        let mut order: Vec<usize> = (0..ps.len()).collect();
        order.sort_by(|&a, &b| ps[a].partial_cmp(&ps[b]).expect("fractions are finite"));
        let mut out = vec![0usize; ps.len()];
        let mut j = 0usize;
        for &qi in &order {
            let target = ps[qi] * total;
            // Same piece as quantile()'s search, reached by a monotone
            // forward walk over the ascending targets.
            while j < self.num_pieces() - 1 && self.boundary_cdf[j + 1] < target - MASS_EPS {
                j += 1;
            }
            out[qi] = self.quantile_within(j, target);
        }
        Ok(out)
    }

    /// Merges two synopses fitted on *adjacent* chunks of a signal into one
    /// synopsis over the concatenated domain `[0, n₁ + n₂)`, re-merged down to
    /// at most `budget` pieces.
    ///
    /// `self` covers the left chunk (`[0, n₁)` of the combined domain) and
    /// `other` the right chunk (`[n₁, n₁ + n₂)`). The pieces of both models
    /// are concatenated and then greedily pair-merged — cheapest exact
    /// squared-`ℓ₂` cost first, each merged pair replaced by its flattening —
    /// until at most `budget` pieces remain. Polynomial pieces enter the merge
    /// as their interval means (the `ℓ₂` projection onto constants), so the
    /// result is always piecewise constant.
    ///
    /// Error growth is bounded: writing `h₁ ⊕ h₂` for the concatenation and
    /// `m` for the merged output, the triangle inequality gives
    /// `‖m − q‖₂ ≤ ‖m − h₁ ⊕ h₂‖₂ + ‖h₁ ⊕ h₂ − q‖₂`, and the greedy re-merge
    /// controls the first term exactly (it is the square root of the summed
    /// merge costs it accepted). Tree-merging per-chunk fits therefore stays
    /// within a constant factor of a direct fit in practice — see the
    /// `hist-stream` crate and the regression suite for the measured bounds.
    ///
    /// The merged synopsis reports estimator name `"merged"` and `target_k =
    /// budget`. Merging is associative up to the tolerance the greedy
    /// re-merge introduces (pair-merge order may differ), which is what the
    /// property harness asserts.
    pub fn merge(&self, other: &Synopsis, budget: usize) -> Result<Synopsis> {
        self.merge_with_stats(other, budget).map(|(merged, _)| merged)
    }

    /// [`Synopsis::merge`] plus exact accounting of what the step cost: the
    /// returned [`MergeStats`] carries the summed accepted greedy merge costs
    /// (`‖m − h₁ ⊕ h₂‖₂²`), its square root, and the mass of the incoming
    /// chunk. The merged synopsis is bit-identical to [`Synopsis::merge`]'s.
    pub fn merge_with_stats(
        &self,
        other: &Synopsis,
        budget: usize,
    ) -> Result<(Synopsis, MergeStats)> {
        if budget == 0 {
            return Err(Error::InvalidParameter {
                name: "budget",
                reason: "the merge budget must be at least 1".into(),
            });
        }
        let left_domain = self.domain();
        let mut pieces = self.model.to_merge_pieces(0);
        pieces.extend(other.model.to_merge_pieces(left_domain));
        let accepted_cost = greedy_remerge(&mut pieces, budget);
        let domain = left_domain + other.domain();
        let intervals: Vec<Interval> =
            pieces.iter().map(|p| Interval::new_unchecked(p.start, p.end)).collect();
        let values: Vec<f64> = pieces.iter().map(MergePiece::value).collect();
        let partition = crate::partition::Partition::new(domain, intervals)?;
        let histogram = Histogram::new(partition, values)?;
        let stats = MergeStats {
            accepted_cost,
            l2_delta: accepted_cost.max(0.0).sqrt(),
            incoming_mass: other.total_mass(),
        };
        Ok((Synopsis::new("merged", budget, FittedModel::Histogram(histogram)), stats))
    }

    /// Exact `ℓ₂` error `‖h − q‖₂` of the synopsis against a signal over the
    /// same domain.
    pub fn l2_error(&self, signal: &Signal) -> Result<f64> {
        if signal.domain() != self.domain() {
            return Err(Error::InvalidParameter {
                name: "signal",
                reason: format!(
                    "domain mismatch: synopsis over {}, signal over {}",
                    self.domain(),
                    signal.domain()
                ),
            });
        }
        match &self.model {
            FittedModel::Histogram(h) => {
                if signal.is_sparse() {
                    h.l2_distance_sparse(signal.as_sparse().as_ref())
                } else {
                    h.l2_distance_dense(signal.dense_values().as_ref())
                }
            }
            FittedModel::Polynomial(p) => {
                Ok(p.l2_distance_squared_dense(signal.dense_values().as_ref())?.max(0.0).sqrt())
            }
        }
    }

    fn clamped_total(&self) -> Result<f64> {
        let total = *self.boundary_cdf.last().expect("boundary cdf is non-empty");
        if total <= 0.0 {
            return Err(Error::InvalidDistribution {
                reason: "the synopsis carries no positive mass".into(),
            });
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piecewise_poly::PolynomialPiece;

    fn histogram_synopsis() -> Synopsis {
        // [0,9] -> 1, [10,29] -> 3, [30,39] -> 0, [40,49] -> 6; mass 130.
        let h = Histogram::from_breakpoints(50, &[10, 30, 40], vec![1.0, 3.0, 0.0, 6.0]).unwrap();
        Synopsis::new("test", 4, FittedModel::Histogram(h))
    }

    fn polynomial_synopsis() -> Synopsis {
        // Linear ramp 0..10 on [0, 9], constant 5 on [10, 19].
        let pieces = vec![
            PolynomialPiece::new(Interval::new(0, 9).unwrap(), vec![0.0, 1.0]).unwrap(),
            PolynomialPiece::new(Interval::new(10, 19).unwrap(), vec![5.0]).unwrap(),
        ];
        let p = PiecewisePolynomial::new(20, pieces).unwrap();
        Synopsis::new("poly", 2, FittedModel::Polynomial(p))
    }

    #[test]
    fn mass_matches_pointwise_sums() {
        for synopsis in [histogram_synopsis(), polynomial_synopsis()] {
            let n = synopsis.domain();
            let dense = synopsis.to_dense();
            for (a, b) in [(0usize, n - 1), (0, n / 2), (n / 4, n - 1), (3, 3)] {
                let range = Interval::new(a, b).unwrap();
                let direct: f64 = dense[range.as_range()].iter().sum();
                assert!((synopsis.mass(range).unwrap() - direct).abs() < 1e-9, "range [{a}, {b}]");
            }
            assert!(
                (synopsis.mass(Interval::new(0, n - 1).unwrap()).unwrap() - synopsis.total_mass())
                    .abs()
                    < 1e-9
            );
            assert!(synopsis.mass(Interval::new(0, n).unwrap()).is_err());
        }
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        for synopsis in [histogram_synopsis(), polynomial_synopsis()] {
            let mut previous = 0.0;
            for x in 0..synopsis.domain() {
                let c = synopsis.cdf(x).unwrap();
                assert!(c + 1e-12 >= previous, "cdf must be monotone at {x}");
                assert!((0.0..=1.0).contains(&c));
                previous = c;
            }
            assert!((synopsis.cdf(synopsis.domain() - 1).unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn quantile_inverts_the_cdf() {
        for synopsis in [histogram_synopsis(), polynomial_synopsis()] {
            for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0] {
                let x = synopsis.quantile(p).unwrap();
                assert!(synopsis.cdf(x).unwrap() + 1e-9 >= p, "cdf(quantile({p})) < {p}");
                if x > 0 {
                    assert!(
                        synopsis.cdf(x - 1).unwrap() < p + 1e-9,
                        "quantile({p}) = {x} is not minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn quantile_walks_through_histogram_mass() {
        let synopsis = histogram_synopsis();
        assert_eq!(synopsis.quantile(0.0).unwrap(), 0);
        // 50% of 130 = 65: 10 from piece 0, then ceil(55/3) = 19 indices into piece 1.
        let median = synopsis.quantile(0.5).unwrap();
        assert!((28..=29).contains(&median), "median {median}");
        let p90 = synopsis.quantile(0.9).unwrap();
        assert!((40..50).contains(&p90), "p90 {p90}");
        assert_eq!(synopsis.quantile(1.0).unwrap(), 49);
        assert!(synopsis.quantile(-0.1).is_err());
        assert!(synopsis.quantile(1.5).is_err());
    }

    #[test]
    fn l2_error_matches_direct_computation() {
        let synopsis = histogram_synopsis();
        let values: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let signal = Signal::from_slice(&values).unwrap();
        let direct: f64 = synopsis
            .to_dense()
            .iter()
            .zip(&values)
            .map(|(h, v)| (h - v) * (h - v))
            .sum::<f64>()
            .sqrt();
        assert!((synopsis.l2_error(&signal).unwrap() - direct).abs() < 1e-9);
        let wrong = Signal::from_slice(&[1.0, 2.0]).unwrap();
        assert!(synopsis.l2_error(&wrong).is_err());
    }

    #[test]
    fn empty_synopses_report_no_mass() {
        let h = Histogram::constant(5, 0.0).unwrap();
        let synopsis = Synopsis::new("zero", 1, FittedModel::Histogram(h));
        assert!(synopsis.cdf(2).is_err());
        assert!(synopsis.quantile(0.5).is_err());
        assert_eq!(synopsis.mass(Interval::new(0, 4).unwrap()).unwrap(), 0.0);
    }

    #[test]
    fn quantile_boundary_semantics_are_fixed() {
        // quantile(0.0) is always index 0; quantile(1.0) is the end of the
        // mass support, excluding trailing zero-mass pieces.
        let with_zero_tail =
            Histogram::from_breakpoints(40, &[10, 30], vec![2.0, 1.0, 0.0]).unwrap();
        let synopsis = Synopsis::new("test", 3, FittedModel::Histogram(with_zero_tail));
        assert_eq!(synopsis.quantile(0.0).unwrap(), 0);
        let top = synopsis.quantile(1.0).unwrap();
        assert_eq!(top, 29, "quantile(1.0) must stop at the last positive-mass index");
        assert!((synopsis.cdf(top).unwrap() - 1.0).abs() < 1e-12);
        for synopsis in [histogram_synopsis(), polynomial_synopsis()] {
            assert_eq!(synopsis.quantile(0.0).unwrap(), 0);
            let top = synopsis.quantile(1.0).unwrap();
            assert!((synopsis.cdf(top).unwrap() - 1.0).abs() < 1e-9);
            assert!(top == 0 || synopsis.cdf(top - 1).unwrap() < 1.0);
        }
    }

    #[test]
    fn batch_queries_match_pointwise_queries() {
        for synopsis in [histogram_synopsis(), polynomial_synopsis()] {
            let n = synopsis.domain();
            // Deliberately unsorted, overlapping ranges.
            let ranges: Vec<Interval> =
                [(3, n - 1), (0, 0), (n / 2, n / 2 + 1), (0, n - 1), (1, 5)]
                    .iter()
                    .map(|&(a, b)| Interval::new(a, b).unwrap())
                    .collect();
            let batch = synopsis.mass_batch(&ranges).unwrap();
            for (range, got) in ranges.iter().zip(&batch) {
                assert_eq!(*got, synopsis.mass(*range).unwrap(), "range {range}");
            }

            let ps = [0.9, 0.0, 0.5, 1.0, 0.25, 0.5, 0.999];
            let batch = synopsis.quantile_batch(&ps).unwrap();
            for (p, got) in ps.iter().zip(&batch) {
                assert_eq!(*got, synopsis.quantile(*p).unwrap(), "p = {p}");
            }

            let xs = [n - 1, 0, n / 2, 3, n / 2];
            let batch = synopsis.cdf_batch(&xs).unwrap();
            for (x, got) in xs.iter().zip(&batch) {
                assert_eq!(got.to_bits(), synopsis.cdf(*x).unwrap().to_bits(), "x = {x}");
            }
        }
    }

    #[test]
    fn batch_queries_validate_inputs() {
        let synopsis = histogram_synopsis();
        let n = synopsis.domain();
        assert!(synopsis.mass_batch(&[Interval::new(0, n).unwrap()]).is_err());
        assert!(synopsis.quantile_batch(&[0.5, 1.2]).is_err());
        assert!(synopsis.quantile_batch(&[f64::NAN]).is_err());
        assert!(synopsis.cdf_batch(&[0, n]).is_err());
        assert_eq!(synopsis.mass_batch(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(synopsis.quantile_batch(&[]).unwrap(), Vec::<usize>::new());
        assert_eq!(synopsis.cdf_batch(&[]).unwrap(), Vec::<f64>::new());

        // An empty batch never needs the mass, so a zero-mass synopsis
        // answers it too; a non-empty one is still a typed error.
        let zero =
            Synopsis::new("zero", 1, FittedModel::Histogram(Histogram::constant(5, 0.0).unwrap()));
        assert_eq!(zero.quantile_batch(&[]).unwrap(), Vec::<usize>::new());
        assert_eq!(zero.quantile_batch_ref(&[]).unwrap(), Vec::<usize>::new());
        assert_eq!(zero.cdf_batch(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(zero.mass_batch(&[]).unwrap(), Vec::<f64>::new());
        assert!(matches!(zero.quantile_batch(&[0.5]), Err(Error::InvalidDistribution { .. })));
    }

    #[test]
    fn lower_bound_matches_partition_point() {
        // The branch-free search must equal partition_point(pred).min(len-1)
        // for every monotone predicate over every length, including repeats.
        let mut xs = Vec::new();
        let mut value = 0u64;
        let mut state = 2015u64;
        for len in 1usize..=64 {
            xs.clear();
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                value += state >> 61; // step by 0..8, producing runs of equals
                xs.push(value);
            }
            for probe in 0..=value + 1 {
                let expected = xs.partition_point(|&x| x < probe).min(len - 1);
                assert_eq!(
                    lower_bound_clamped(&xs, |&x| x < probe),
                    expected,
                    "len {len}, probe {probe}, xs {xs:?}"
                );
            }
        }
    }

    #[test]
    fn non_finite_fractions_get_a_dedicated_error() {
        // Regression: non-finite fractions must be rejected by an explicit
        // finiteness check, not fall through the negated range check with a
        // misleading "must lie in [0, 1]" diagnosis (or worse, reach the
        // mass comparisons where NaN answers index 0).
        let synopsis = histogram_synopsis();
        for p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for err in [
                synopsis.quantile(p).unwrap_err(),
                synopsis.quantile_batch(&[0.5, p]).unwrap_err(),
                synopsis.quantile_ref(p).unwrap_err(),
                synopsis.quantile_batch_ref(&[0.5, p]).unwrap_err(),
            ] {
                let message = err.to_string();
                assert!(message.contains("finite"), "p = {p}: got `{message}`");
            }
        }
    }

    #[test]
    fn flat_and_reference_kernels_agree_bit_for_bit() {
        for synopsis in [histogram_synopsis(), polynomial_synopsis()] {
            let n = synopsis.domain();
            for x in 0..n {
                let flat = synopsis.cdf(x).unwrap();
                let reference = synopsis.cdf_ref(x).unwrap();
                assert_eq!(flat.to_bits(), reference.to_bits(), "cdf({x})");
            }
            let ps: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
            for &p in &ps {
                assert_eq!(synopsis.quantile(p).unwrap(), synopsis.quantile_ref(p).unwrap());
            }
            assert_eq!(
                synopsis.quantile_batch(&ps).unwrap(),
                synopsis.quantile_batch_ref(&ps).unwrap()
            );
            let ranges: Vec<Interval> = [(0, n - 1), (0, 0), (n - 1, n - 1), (n / 3, 2 * n / 3)]
                .iter()
                .map(|&(a, b)| Interval::new(a, b).unwrap())
                .collect();
            for &range in &ranges {
                let flat = synopsis.mass(range).unwrap();
                let reference = synopsis.mass_ref(range).unwrap();
                assert_eq!(flat.to_bits(), reference.to_bits(), "mass({range})");
            }
            let flat: Vec<u64> =
                synopsis.mass_batch(&ranges).unwrap().iter().map(|m| m.to_bits()).collect();
            let reference: Vec<u64> =
                synopsis.mass_batch_ref(&ranges).unwrap().iter().map(|m| m.to_bits()).collect();
            assert_eq!(flat, reference);
        }
    }

    #[test]
    fn position_tables_scale_with_the_piece_count_up_to_the_cap() {
        let n = 2048;
        for pieces in [1usize, 3, 35, 200, 1024] {
            let breaks: Vec<usize> = (1..pieces).map(|j| j * n / pieces).collect();
            let values: Vec<f64> = (0..pieces).map(|j| (j % 7) as f64 + 0.5).collect();
            let model = Histogram::from_breakpoints(n, &breaks, values).unwrap();
            let synopsis = Synopsis::new("test", pieces, FittedModel::Histogram(model));
            let entries = synopsis.flat.lut.len();
            assert!(entries <= POSITION_LUT_TARGET.min(POSITION_LUT_PER_PIECE * pieces));
            assert!(2 * entries > POSITION_LUT_TARGET.min(POSITION_LUT_PER_PIECE * pieces));
            for x in 0..n {
                assert_eq!(
                    synopsis.cdf(x).unwrap().to_bits(),
                    synopsis.cdf_ref(x).unwrap().to_bits()
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn inverted_ranges_error_instead_of_panicking() {
        // Interval::new_unchecked only debug-asserts, so a release-mode
        // caller can hand the mass kernels an inverted range; every path
        // must answer it with the same typed error rather than walking the
        // pieces. (Release-only: in debug builds the interval itself is
        // unconstructible.)
        let synopsis = histogram_synopsis();
        let inverted = Interval::new_unchecked(9, 2);
        for err in [
            synopsis.mass(inverted).unwrap_err(),
            synopsis.mass_ref(inverted).unwrap_err(),
            synopsis.mass_batch(&[inverted]).unwrap_err(),
            synopsis.mass_batch_ref(&[inverted]).unwrap_err(),
        ] {
            assert!(err.to_string().contains("start <= end"), "got `{err}`");
        }
    }

    #[test]
    fn merge_concatenates_adjacent_domains() {
        // Two 2-piece halves that fit back together into the original signal.
        let left = Histogram::from_breakpoints(20, &[10], vec![1.0, 4.0]).unwrap();
        let right = Histogram::from_breakpoints(15, &[5], vec![4.0, 2.0]).unwrap();
        let a = Synopsis::new("left", 2, FittedModel::Histogram(left));
        let b = Synopsis::new("right", 2, FittedModel::Histogram(right));
        let merged = a.merge(&b, 3).unwrap();
        assert_eq!(merged.domain(), 35);
        assert_eq!(merged.estimator(), "merged");
        assert_eq!(merged.target_k(), 3);
        assert_eq!(merged.num_pieces(), 3);
        // The two adjacent value-4 pieces are the cheapest (free) merge.
        let h = merged.histogram().unwrap();
        assert_eq!(h.partition().breakpoints(), vec![10, 25]);
        assert_eq!(h.values(), &[1.0, 4.0, 2.0]);
        assert!((merged.total_mass() - (a.total_mass() + b.total_mass())).abs() < 1e-9);
    }

    #[test]
    fn merge_preserves_mass_under_tight_budgets() {
        let a = histogram_synopsis();
        let b = histogram_synopsis();
        for budget in [1, 2, 4, 100] {
            let merged = a.merge(&b, budget).unwrap();
            assert_eq!(merged.domain(), 100);
            assert!(merged.num_pieces() <= budget.min(8));
            assert!((merged.total_mass() - 2.0 * a.total_mass()).abs() < 1e-9);
        }
        assert!(a.merge(&b, 0).is_err());
    }

    #[test]
    fn merge_flattens_polynomial_pieces_to_their_means() {
        let poly = polynomial_synopsis();
        let hist = histogram_synopsis();
        let merged = poly.merge(&hist, 50).unwrap();
        assert_eq!(merged.domain(), poly.domain() + hist.domain());
        assert!(merged.histogram().is_some(), "merged synopses are piecewise constant");
        // Mean of the ramp 0..=9 is 4.5 on [0, 9].
        let h = merged.histogram().unwrap();
        assert!((h.values()[0] - 4.5).abs() < 1e-9);
        assert!((merged.total_mass() - (poly.total_mass() + hist.total_mass())).abs() < 1e-9);
    }

    #[test]
    fn merge_is_exactly_greedy_on_known_costs() {
        // Pieces with values 0, 10, 11, 30 (each len 1): greedy merges 10|11
        // first, then {10,11}|0? cost comparison: merging the pair with the
        // flattened 10.5 piece costs 2/3·(10.5)² vs 0|10.5 at ... — assert the
        // chosen 2-piece output splits between the low and high group.
        let left = Histogram::from_breakpoints(2, &[1], vec![0.0, 10.0]).unwrap();
        let right = Histogram::from_breakpoints(2, &[1], vec![11.0, 30.0]).unwrap();
        let a = Synopsis::new("l", 2, FittedModel::Histogram(left));
        let b = Synopsis::new("r", 2, FittedModel::Histogram(right));
        let merged = a.merge(&b, 2).unwrap();
        let h = merged.histogram().unwrap();
        assert_eq!(h.partition().breakpoints(), vec![3], "low group {{0, 10, 11}} vs {{30}}");
        assert!((h.values()[0] - 7.0).abs() < 1e-9);
        assert_eq!(h.values()[1], 30.0);
    }

    #[test]
    fn merge_of_overflowing_masses_is_a_typed_error() {
        // Piece masses 2·1e308 overflow, so merge costs read NaN; piece masses
        // 1e308 are finite, but the sum of two is not.
        for (domain, cut) in [(4, 2), (2, 1)] {
            let h = Histogram::from_breakpoints(domain, &[cut], vec![1e308, 1e308]).unwrap();
            let a = Synopsis::new("huge", 2, FittedModel::Histogram(h));
            let err = a.merge(&a, 1).unwrap_err();
            assert!(matches!(err, Error::NonFiniteValue { .. }), "domain {domain}: {err:?}");
        }
    }

    #[test]
    fn boundary_masses_edge_cases_are_pinned() {
        // Single piece: exactly two entries, [0, total].
        let single =
            Synopsis::new("one", 1, FittedModel::Histogram(Histogram::constant(8, 2.0).unwrap()));
        assert_eq!(single.boundary_masses(), &[0.0, 16.0]);
        assert_eq!(single.piece_interval(0), Interval::new(0, 7).unwrap());

        // Zero mass: the slice keeps its num_pieces() + 1 shape, all zeros.
        let zero =
            Synopsis::new("zero", 1, FittedModel::Histogram(Histogram::constant(5, 0.0).unwrap()));
        assert_eq!(zero.boundary_masses(), &[0.0, 0.0]);

        // Negative values clamp to zero in the boundary masses but not in the
        // raw total mass.
        let negative = Synopsis::new(
            "neg",
            2,
            FittedModel::Histogram(Histogram::from_breakpoints(10, &[5], vec![-1.0, 3.0]).unwrap()),
        );
        assert_eq!(negative.boundary_masses(), &[0.0, 0.0, 15.0]);
        assert!((negative.total_mass() - 10.0).abs() < 1e-12);

        // General shape: num_pieces() + 1 entries, non-decreasing, starting
        // at zero, and adjacent pieces tile the domain.
        for synopsis in [histogram_synopsis(), polynomial_synopsis()] {
            let boundaries = synopsis.boundary_masses();
            assert_eq!(boundaries.len(), synopsis.num_pieces() + 1);
            assert_eq!(boundaries[0], 0.0);
            assert!(boundaries.windows(2).all(|w| w[1] >= w[0]));
            for j in 0..synopsis.num_pieces() - 1 {
                assert_eq!(
                    synopsis.piece_interval(j).end() + 1,
                    synopsis.piece_interval(j + 1).start()
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn piece_interval_out_of_range_panics() {
        let synopsis = histogram_synopsis();
        let _ = synopsis.piece_interval(synopsis.num_pieces());
    }

    #[test]
    fn from_parts_validates_untrusted_parts() {
        // A well-formed model round-trips through from_parts with identical
        // serving state.
        let fitted = histogram_synopsis();
        let rebuilt = Synopsis::from_parts("test", 4, fitted.model().clone()).unwrap();
        assert_eq!(rebuilt, fitted);

        // Zero piece budgets are rejected (every fitter enforces k >= 1, so a
        // decoded synopsis must too).
        let h = Histogram::constant(4, 1.0).unwrap();
        assert!(Synopsis::from_parts("test", 0, FittedModel::Histogram(h)).is_err());

        // Finite per-piece values whose cumulative mass overflows to infinity
        // must be rejected: the model passes Histogram::new, only the
        // synopsis-level invariant catches it.
        let overflow = Histogram::constant(usize::MAX >> 16, f64::MAX).unwrap();
        assert!(matches!(
            Synopsis::from_parts("test", 1, FittedModel::Histogram(overflow)),
            Err(Error::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn accessors_expose_the_model() {
        let synopsis = histogram_synopsis();
        assert_eq!(synopsis.estimator(), "test");
        assert_eq!(synopsis.target_k(), 4);
        assert_eq!(synopsis.num_pieces(), 4);
        assert!(synopsis.histogram().is_some());
        assert!(synopsis.polynomial().is_none());
        let poly = polynomial_synopsis();
        assert!(poly.histogram().is_none());
        assert!(poly.polynomial().is_some());
    }
}
