//! Closed integer intervals over the domain `[0, n)`.
//!
//! The paper works with intervals `I = [a, b] ⊆ [n]` of the discrete domain.
//! We use zero-based inclusive intervals: `Interval { start, end }` denotes the
//! index set `{start, start + 1, …, end}` with `start ≤ end`.

use crate::error::{Error, Result};
use std::fmt;

/// A non-empty closed interval `[start, end]` of domain indices (zero based, inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    start: usize,
    end: usize,
}

impl Interval {
    /// Creates the interval `[start, end]`.
    ///
    /// Returns an error if `start > end`.
    pub fn new(start: usize, end: usize) -> Result<Self> {
        if start > end {
            return Err(Error::InvalidInterval {
                reason: format!("start {start} greater than end {end}"),
            });
        }
        Ok(Self { start, end })
    }

    /// Creates the interval `[start, end]` without validation.
    ///
    /// # Panics
    /// Panics in debug builds if `start > end`.
    #[inline]
    pub fn new_unchecked(start: usize, end: usize) -> Self {
        debug_assert!(start <= end, "interval start must not exceed end");
        Self { start, end }
    }

    /// The single-point interval `[i, i]`.
    #[inline]
    pub(crate) fn point(i: usize) -> Self {
        Self { start: i, end: i }
    }

    /// The full domain `[0, n)` as an interval `[0, n - 1]`.
    pub(crate) fn full(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::EmptyDomain);
        }
        Ok(Self { start: 0, end: n - 1 })
    }

    /// First index contained in the interval.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Last index contained in the interval.
    #[inline]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of indices in the interval (`|I| = end - start + 1`). Always ≥ 1.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Intervals are never empty; provided for API symmetry with collections.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `i` lies inside the interval.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.start <= i && i <= self.end
    }

    /// Merges two intervals that are adjacent or overlapping, returning their union.
    ///
    /// Returns an error if the union would not be contiguous.
    pub(crate) fn union(&self, other: &Interval) -> Result<Interval> {
        let (a, b) = if self.start <= other.start { (self, other) } else { (other, self) };
        if a.end + 1 < b.start {
            return Err(Error::InvalidInterval {
                reason: format!(
                    "intervals [{}, {}] and [{}, {}] are not contiguous",
                    a.start, a.end, b.start, b.end
                ),
            });
        }
        Ok(Interval { start: a.start, end: a.end.max(b.end) })
    }

    /// Intersection of two intervals, or `None` if they are disjoint.
    pub(crate) fn intersection(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// Iterator over the indices contained in the interval.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.start..=self.end
    }

    /// The standard half-open range `start..end + 1` for slicing dense arrays.
    #[inline]
    pub fn as_range(&self) -> std::ops::Range<usize> {
        self.start..self.end + 1
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(2, 5).unwrap();
        assert_eq!(i.start(), 2);
        assert_eq!(i.end(), 5);
        assert_eq!(i.len(), 4);
        assert!(!i.is_empty());
        assert!(Interval::new(5, 2).is_err());
    }

    #[test]
    fn point_and_full() {
        assert_eq!(Interval::point(3).len(), 1);
        assert_eq!(Interval::full(10).unwrap(), Interval::new(0, 9).unwrap());
        assert!(Interval::full(0).is_err());
    }

    #[test]
    fn contains() {
        let outer = Interval::new(1, 8).unwrap();
        assert!(outer.contains(1) && outer.contains(8) && !outer.contains(9));
        assert!(!outer.contains(0));
    }

    #[test]
    fn union_of_adjacent_intervals() {
        let a = Interval::new(0, 3).unwrap();
        let b = Interval::new(4, 7).unwrap();
        assert_eq!(a.union(&b).unwrap(), Interval::new(0, 7).unwrap());
        assert_eq!(b.union(&a).unwrap(), Interval::new(0, 7).unwrap());
    }

    #[test]
    fn union_of_disjoint_intervals_fails() {
        let a = Interval::new(0, 2).unwrap();
        let b = Interval::new(5, 7).unwrap();
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn intersection() {
        let a = Interval::new(0, 5).unwrap();
        let b = Interval::new(4, 9).unwrap();
        let c = Interval::new(7, 9).unwrap();
        assert_eq!(a.intersection(&b), Some(Interval::new(4, 5).unwrap()));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn indices_and_range() {
        let i = Interval::new(3, 5).unwrap();
        assert_eq!(i.indices().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(i.as_range(), 3..6);
    }

    #[test]
    fn display() {
        assert_eq!(Interval::new(1, 4).unwrap().to_string(), "[1, 4]");
    }
}
