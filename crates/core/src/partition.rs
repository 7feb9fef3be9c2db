//! Partitions of the domain `[0, n)` into contiguous intervals.
//!
//! A [`Partition`] is the combinatorial object produced by the merging
//! algorithms of the paper: an ordered list of disjoint intervals whose union
//! is the whole domain. A `k`-histogram is the flattening of a function over a
//! partition with `k` intervals (see [`crate::stats::flatten`]).

use crate::error::{Error, Result};
use crate::interval::Interval;
use std::fmt;

/// An ordered partition of `[0, n)` into contiguous, non-empty intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    domain: usize,
    intervals: Vec<Interval>,
}

impl Partition {
    /// Builds a partition from an ordered list of intervals.
    ///
    /// The intervals must be sorted, non-overlapping, contiguous (no gaps) and
    /// exactly cover `[0, domain)`.
    pub fn new(domain: usize, intervals: Vec<Interval>) -> Result<Self> {
        if domain == 0 {
            return Err(Error::EmptyDomain);
        }
        if intervals.is_empty() {
            return Err(Error::InvalidPartition { reason: "no intervals supplied".into() });
        }
        let mut expected_start = 0usize;
        for (idx, iv) in intervals.iter().enumerate() {
            if iv.start() != expected_start {
                return Err(Error::InvalidPartition {
                    reason: format!(
                        "interval #{idx} starts at {} but {} was expected",
                        iv.start(),
                        expected_start
                    ),
                });
            }
            expected_start = iv.end() + 1;
        }
        if expected_start != domain {
            return Err(Error::InvalidPartition {
                reason: format!(
                    "intervals cover [0, {expected_start}) but the domain is [0, {domain})"
                ),
            });
        }
        Ok(Self { domain, intervals })
    }

    /// The trivial partition consisting of the single interval `[0, n)`.
    pub fn trivial(domain: usize) -> Result<Self> {
        Ok(Self { domain, intervals: vec![Interval::full(domain)?] })
    }

    /// The finest partition: every index in its own singleton interval.
    pub fn singletons(domain: usize) -> Result<Self> {
        if domain == 0 {
            return Err(Error::EmptyDomain);
        }
        Ok(Self { domain, intervals: (0..domain).map(Interval::point).collect() })
    }

    /// Builds a partition from "breakpoints": `breaks[i]` is the first index of
    /// interval `i + 1`. The first interval always starts at 0.
    ///
    /// `breaks` must be strictly increasing and lie in `(0, domain)`.
    pub fn from_breakpoints(domain: usize, breaks: &[usize]) -> Result<Self> {
        if domain == 0 {
            return Err(Error::EmptyDomain);
        }
        let mut intervals = Vec::with_capacity(breaks.len() + 1);
        let mut start = 0usize;
        for &b in breaks {
            if b <= start || b >= domain {
                return Err(Error::InvalidPartition {
                    reason: format!("breakpoint {b} is not strictly inside ({start}, {domain})"),
                });
            }
            intervals.push(Interval::new_unchecked(start, b - 1));
            start = b;
        }
        intervals.push(Interval::new_unchecked(start, domain - 1));
        Ok(Self { domain, intervals })
    }

    /// Builds a partition from the flat array of inclusive piece ends — the
    /// shape the persistence codec decodes into and the query kernels serve
    /// from. `ends` must be strictly increasing with the last entry equal to
    /// `domain - 1`; each piece `j` then covers `[ends[j-1] + 1, ends[j]]`
    /// (the first starts at 0). One validating `O(k)` pass, no intermediate
    /// per-piece allocation.
    pub fn from_piece_ends(domain: usize, ends: &[usize]) -> Result<Self> {
        if domain == 0 {
            return Err(Error::EmptyDomain);
        }
        if ends.is_empty() {
            return Err(Error::InvalidPartition { reason: "no piece ends supplied".into() });
        }
        let mut intervals = Vec::with_capacity(ends.len());
        let mut start = 0usize;
        for (idx, &end) in ends.iter().enumerate() {
            if end < start || end >= domain {
                return Err(Error::InvalidPartition {
                    reason: format!("piece #{idx} end {end} is not inside [{start}, {domain})"),
                });
            }
            intervals.push(Interval::new_unchecked(start, end));
            start = end + 1;
        }
        if start != domain {
            return Err(Error::InvalidPartition {
                reason: format!("pieces cover [0, {start}) but the domain is [0, {domain})"),
            });
        }
        Ok(Self { domain, intervals })
    }

    /// A partition into `pieces` intervals of (nearly) equal width.
    ///
    /// When `domain` is not divisible by `pieces` the first `domain % pieces`
    /// intervals are one index longer.
    pub fn equal_width(domain: usize, pieces: usize) -> Result<Self> {
        if domain == 0 {
            return Err(Error::EmptyDomain);
        }
        if pieces == 0 || pieces > domain {
            return Err(Error::InvalidParameter {
                name: "pieces",
                reason: format!("must be in [1, {domain}], got {pieces}"),
            });
        }
        let base = domain / pieces;
        let extra = domain % pieces;
        let mut intervals = Vec::with_capacity(pieces);
        let mut start = 0usize;
        for p in 0..pieces {
            let len = base + usize::from(p < extra);
            intervals.push(Interval::new_unchecked(start, start + len - 1));
            start += len;
        }
        Ok(Self { domain, intervals })
    }

    /// Size of the underlying domain.
    #[inline]
    pub(crate) fn domain(&self) -> usize {
        self.domain
    }

    /// Number of intervals in the partition (written `|I|` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` iff the partition has exactly one interval.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over the intervals in domain order.
    pub fn iter(&self) -> impl Iterator<Item = &Interval> {
        self.intervals.iter()
    }

    /// The interval at position `idx`.
    #[inline]
    pub(crate) fn interval(&self, idx: usize) -> Interval {
        self.intervals[idx]
    }

    /// Index of the interval containing domain point `i` (binary search, `O(log |I|)`).
    pub(crate) fn locate(&self, i: usize) -> Result<usize> {
        if i >= self.domain {
            return Err(Error::IndexOutOfRange { index: i, domain: self.domain });
        }
        let pos = self.intervals.partition_point(|iv| iv.end() < i);
        debug_assert!(self.intervals[pos].contains(i));
        Ok(pos)
    }

    /// The interior breakpoints of the partition: the start of every interval but the first.
    pub fn breakpoints(&self) -> Vec<usize> {
        self.intervals.iter().skip(1).map(|iv| iv.start()).collect()
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a Partition {
    type Item = &'a Interval;
    type IntoIter = std::slice::Iter<'a, Interval>;

    fn into_iter(self) -> Self::IntoIter {
        self.intervals.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: usize, b: usize) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn valid_partition() {
        let p = Partition::new(10, vec![iv(0, 3), iv(4, 4), iv(5, 9)]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.domain(), 10);
        assert_eq!(p.breakpoints(), vec![4, 5]);
    }

    #[test]
    fn rejects_gaps_overlaps_and_wrong_cover() {
        assert!(Partition::new(10, vec![iv(0, 3), iv(5, 9)]).is_err());
        assert!(Partition::new(10, vec![iv(0, 4), iv(4, 9)]).is_err());
        assert!(Partition::new(10, vec![iv(0, 8)]).is_err());
        assert!(Partition::new(10, vec![]).is_err());
        assert!(Partition::new(0, vec![]).is_err());
    }

    #[test]
    fn trivial_and_singletons() {
        assert_eq!(Partition::trivial(5).unwrap().len(), 1);
        let s = Partition::singletons(4).unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|i| i.len() == 1));
    }

    #[test]
    fn breakpoint_roundtrip() {
        let p = Partition::from_breakpoints(12, &[3, 7, 9]).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.breakpoints(), vec![3, 7, 9]);
        assert!(Partition::from_breakpoints(12, &[0]).is_err());
        assert!(Partition::from_breakpoints(12, &[12]).is_err());
        assert!(Partition::from_breakpoints(12, &[5, 5]).is_err());
    }

    #[test]
    fn piece_ends_roundtrip() {
        let p = Partition::from_piece_ends(12, &[2, 6, 8, 11]).unwrap();
        assert_eq!(p, Partition::from_breakpoints(12, &[3, 7, 9]).unwrap());
        assert_eq!(Partition::from_piece_ends(12, &[11]).unwrap(), Partition::trivial(12).unwrap());
        // Last end must close the domain exactly; ends must strictly ascend.
        assert!(Partition::from_piece_ends(12, &[2, 6]).is_err());
        assert!(Partition::from_piece_ends(12, &[2, 12]).is_err());
        assert!(Partition::from_piece_ends(12, &[2, 2, 11]).is_err());
        assert!(Partition::from_piece_ends(12, &[]).is_err());
        assert!(Partition::from_piece_ends(0, &[0]).is_err());
    }

    #[test]
    fn equal_width_partition() {
        let p = Partition::equal_width(10, 3).unwrap();
        assert_eq!(p.len(), 3);
        let lens: Vec<usize> = p.iter().map(|i| i.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        assert!(Partition::equal_width(3, 5).is_err());
    }

    #[test]
    fn locate_finds_containing_interval() {
        let p = Partition::from_breakpoints(10, &[2, 6]).unwrap();
        assert_eq!(p.locate(0).unwrap(), 0);
        assert_eq!(p.locate(1).unwrap(), 0);
        assert_eq!(p.locate(2).unwrap(), 1);
        assert_eq!(p.locate(5).unwrap(), 1);
        assert_eq!(p.locate(9).unwrap(), 2);
        assert!(p.locate(10).is_err());
    }

    #[test]
    fn display_lists_intervals() {
        let p = Partition::from_breakpoints(6, &[3]).unwrap();
        assert_eq!(p.to_string(), "{[0, 2], [3, 5]}");
    }
}
