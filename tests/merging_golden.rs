//! Differential goldens for the merging algorithms: a checksum of every
//! `merging`, `fastmerging` and `hierarchical` fit over a set of seeded,
//! Table 1, tie-heavy and sparse edge-case inputs, so a change to the merge
//! rounds that moves one boundary or one value bit anywhere fails here, and
//! the round counts of Algorithm 1's and `fastmerging`'s reports. The
//! piecewise-polynomial fits of Section 4 (`PiecewisePoly` at degrees 0, 1
//! and 3) are pinned over the same inputs and builders. Every baseline of
//! the registry (both exact DPs, `dual`, `gks`, equi-width, equi-depth and
//! greedy splitting) is pinned at `k` = 5 and 10 over the shared fixture
//! signals and the Table 1 `hist` and `poly` data.
//!
//! The checksum is FNV-1a over each piece's interval end and value bits (for
//! a polynomial, each piece's end and then its coefficients' bits). The
//! first eight inputs' constants were captured from the copy-per-round loops
//! the in-place rounds replaced; `ties` and `sparse-edges` and the report
//! counts were captured from the in-place rounds before the first round read
//! its input directly; `stride-peaks` and `sparse-gaps` and their report
//! counts were captured from the rounds over 32-byte segments with a keep
//! mask, before they moved to 24-byte segments and a keep threshold. The
//! polynomial checksums were captured from the generic projection-oracle
//! loop, before `PiecewisePoly` ran its own rounds. The baseline checksums
//! were captured while the baselines still computed and returned their own
//! squared errors, before they became estimator-only. If one
//! fails after an *intentional* algorithm change, re-derive them with
//! `cargo test --release --test merging_golden -- --ignored --nocapture`
//! and update them in the same commit.

mod common;

use approx_hist::core::{
    construct_hierarchical_histogram, construct_histogram_fast_with_report,
    construct_histogram_with_report,
};
use approx_hist::datasets::{dow_dataset, hist_dataset, poly_dataset};
use approx_hist::{
    Estimator, EstimatorBuilder, EstimatorKind, FastMerging, GreedyMerging, Hierarchical,
    Histogram, PiecewisePoly, PiecewisePolynomial, Signal, SparseFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense step signal: random levels at random cut points, uniform noise
/// and a rare spike, like the benchmark's dense inputs.
fn plateau(seed: u64, n: usize, plateaus: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts: Vec<usize> = (1..plateaus).map(|_| rng.gen_range(0..n)).collect();
    cuts.sort_unstable();
    cuts.push(n);
    let mut out = Vec::with_capacity(n);
    for end in cuts {
        let level = rng.gen_range(1.0..100.0);
        while out.len() < end {
            let spike = if rng.gen_range(0..1_000) == 0 { rng.gen_range(0.0..200.0) } else { 0.0 };
            out.push(level + rng.gen_range(-2.0..2.0) + spike);
        }
    }
    out
}

/// `nonzeros` plateau-valued entries, one per equal stratum of `domain`.
fn sparse(seed: u64, domain: usize, nonzeros: usize) -> SparseFunction {
    let values = plateau(seed, nonzeros, 8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let stratum = domain / nonzeros;
    let entries =
        values.iter().enumerate().map(|(i, &v)| (i * stratum + rng.gen_range(0..stratum), v));
    SparseFunction::new(domain, entries.collect()).unwrap()
}

/// Entries at `0` and `n − 1`, runs of adjacent entries (explicit zeros and
/// negative values among them) and gaps of every length in between.
fn sparse_edges(domain: usize) -> SparseFunction {
    let mut entries = vec![(0, 2.5)];
    for i in 1..domain / 32 - 1 {
        let base = i * 32 + (i * 7) % 29;
        let run = 1 + usize::from(i % 3 == 0) + usize::from(i % 5 == 0);
        entries.extend((base..base + run).map(|j| (j, ((j * 13) % 9) as f64 - 4.0)));
    }
    entries.extend([(domain - 2, -1.0), (domain - 1, 7.0)]);
    SparseFunction::new(domain, entries).unwrap()
}

/// Plateau noise whose pair errors peak once per `stride` pairs: a strided
/// sample of the first round's pair errors sees only the peaks.
fn stride_peaks(seed: u64, n: usize, stride: usize) -> Vec<f64> {
    let mut values = plateau(seed, n, 16);
    for block in values.chunks_mut(2 * stride) {
        block[1] += 500.0 + block[0];
    }
    values
}

/// `entries` values over `domain` with gaps of every scale: gap `i` is drawn
/// from `[2^j, 2^(j+1))` for `j = i mod 21`, so runs of zeros from none to two
/// million indices sit side by side.
fn sparse_gaps(seed: u64, domain: usize, entries: usize) -> SparseFunction {
    let mut rng = StdRng::seed_from_u64(seed);
    let values = plateau(seed, entries, 8);
    let mut next = 0;
    let mut out = Vec::with_capacity(entries);
    for (i, v) in values.into_iter().enumerate() {
        out.push((next, if i % 13 == 0 { -v } else { v }));
        let scale = 1usize << (i % 21);
        next += scale + rng.gen_range(0..scale);
    }
    assert!(next <= domain);
    SparseFunction::new(domain, out).unwrap()
}

/// The golden inputs, by name.
fn inputs() -> Vec<(&'static str, Signal)> {
    let dense = |values: Vec<f64>| Signal::from_dense(values).unwrap();
    vec![
        ("plateau", dense(plateau(16, 1 << 16, 64))),
        ("sparse", Signal::from_sparse(sparse(24, 1 << 20, 1 << 10))),
        ("hist", dense(hist_dataset())),
        ("poly", dense(poly_dataset())),
        ("dow", dense(dow_dataset())),
        ("steps", dense((0..4_096).map(|i| ((i / 300) % 5) as f64).collect())),
        ("zeros", dense(vec![0.0; 1_000])),
        ("periodic", dense((0..5_001).map(|i| (i % 7) as f64).collect())),
        // Few distinct pair errors: the keep threshold falls inside a tie
        // from the first round on.
        ("ties", dense((0..1 << 15).map(|i| ((i * 5) % 11) as f64).collect())),
        ("sparse-edges", Signal::from_sparse(sparse_edges(1 << 16))),
        // The first round's 2^16 pair errors peak every 32 pairs, the stride
        // of a 2048-error sample: a threshold guessed from that sample misses.
        ("stride-peaks", dense(stride_peaks(32, 1 << 17, 32))),
        ("sparse-gaps", Signal::from_sparse(sparse_gaps(30, 1 << 30, 3_000))),
    ]
}

/// The builders every input is fitted under, in hashing order.
fn builders() -> [EstimatorBuilder; 3] {
    [EstimatorBuilder::new(5), EstimatorBuilder::new(50), EstimatorBuilder::linear_time(5)]
}

fn estimator(algo: &str, builder: EstimatorBuilder) -> Box<dyn Estimator> {
    match algo {
        "merging" => Box::new(GreedyMerging::new(builder)),
        "fastmerging" => Box::new(FastMerging::new(builder)),
        "hierarchical" => Box::new(Hierarchical::new(builder)),
        _ => unreachable!("unknown algorithm {algo}"),
    }
}

/// Folds words into an FNV-1a state, byte by byte.
fn fnv_words(mut hash: u64, words: impl Iterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// Folds a histogram into an FNV-1a state: every interval end, then every
/// value's bits.
fn fnv(hash: u64, h: &Histogram) -> u64 {
    let ends = h.partition().iter().map(|i| i.end() as u64);
    fnv_words(hash, ends.chain(h.values().iter().map(|v| v.to_bits())))
}

/// Folds a piecewise polynomial into an FNV-1a state: per piece, its
/// interval end, then its coefficients' bits.
fn fnv_poly(hash: u64, p: &PiecewisePolynomial) -> u64 {
    let words = p.pieces().iter().flat_map(|piece| {
        let end = std::iter::once(piece.interval().end() as u64);
        end.chain(piece.coefficients().iter().map(|c| c.to_bits()))
    });
    fnv_words(hash, words)
}

/// The checksum of `algo`'s fits of `signal` under every builder.
fn checksum(algo: &str, signal: &Signal) -> u64 {
    builders().into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, builder| {
        let synopsis = estimator(algo, builder).fit(signal).unwrap();
        fnv(hash, synopsis.histogram().expect("merging fits are histograms"))
    })
}

const ALGOS: [&str; 3] = ["merging", "fastmerging", "hierarchical"];

/// The polynomial degrees `PiecewisePoly` is pinned at.
const DEGREES: [usize; 3] = [0, 1, 3];

/// The checksum of `PiecewisePoly`'s degree-`degree` fits of `signal` under
/// every builder.
fn poly_checksum(degree: usize, signal: &Signal) -> u64 {
    builders().into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, builder| {
        let synopsis = PiecewisePoly::new(builder.degree(degree)).fit(signal).unwrap();
        fnv_poly(hash, synopsis.polynomial().expect("polynomial fits are piecewise polynomials"))
    })
}

/// The baseline registry kinds, in hashing order.
const BASELINES: [EstimatorKind; 7] = [
    EstimatorKind::ExactDp,
    EstimatorKind::ExactDpNaive,
    EstimatorKind::Dual,
    EstimatorKind::Gks,
    EstimatorKind::EqualWidth,
    EstimatorKind::EqualMass,
    EstimatorKind::GreedySplit,
];

/// The baselines' inputs: the shared fixture signals, then the Table 1
/// `hist` and `poly` data.
fn baseline_inputs() -> Vec<(&'static str, Signal)> {
    let mut inputs = common::fixture_signals();
    inputs.push(("hist", Signal::from_dense(hist_dataset()).unwrap()));
    inputs.push(("poly", Signal::from_dense(poly_dataset()).unwrap()));
    inputs
}

/// The checksum of `kind`'s fits of `signal` at `k` = 5 and 10. A rejected
/// fit (equi-depth buckets of `poly`, which has negative values) folds one
/// all-ones word instead.
fn baseline_checksum(kind: EstimatorKind, signal: &Signal) -> u64 {
    [5, 10].into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, k| {
        match kind.build(EstimatorBuilder::new(k)).fit(signal) {
            Ok(synopsis) => fnv(hash, synopsis.histogram().expect("baseline fits are histograms")),
            Err(_) => fnv_words(hash, std::iter::once(u64::MAX)),
        }
    })
}

/// `[initial_intervals, rounds, fastmerging rounds, max_group_size]` of the
/// reports Algorithm 1 and `fastmerging` give for `signal` under every builder.
fn reports(signal: &Signal) -> [[usize; 4]; 3] {
    let q = signal.as_sparse();
    builders().map(|builder| {
        let params = builder.merging_params().unwrap();
        let (_, pair) = construct_histogram_with_report(&q, &params).unwrap();
        let (_, fast) = construct_histogram_fast_with_report(&q, &params).unwrap();
        assert_eq!(pair.initial_intervals, fast.initial_intervals);
        [pair.initial_intervals, pair.rounds, fast.rounds, fast.max_group_size]
    })
}

#[test]
#[ignore = "golden-regeneration helper, not a regression test"]
fn print_merging_checksums() {
    for (name, signal) in inputs() {
        let sums: Vec<String> =
            ALGOS.iter().map(|algo| format!("0x{:016x}", checksum(algo, &signal))).collect();
        println!("(\"{name}\", [{}]),", sums.join(", "));
    }
    for (name, signal) in inputs() {
        println!("(\"{name}\", {:?}),", reports(&signal));
    }
    for (name, signal) in inputs() {
        let sums: Vec<String> = DEGREES
            .iter()
            .map(|&degree| format!("0x{:016x}", poly_checksum(degree, &signal)))
            .collect();
        println!("(\"{name}\", [{}]),", sums.join(", "));
    }
    for (name, signal) in baseline_inputs() {
        let sums: Vec<String> = BASELINES
            .iter()
            .map(|&kind| format!("0x{:016x}", baseline_checksum(kind, &signal)))
            .collect();
        println!("(\"{name}\", [{}]),", sums.join(", "));
    }
}

/// `(input, [merging, fastmerging, hierarchical])` checksums.
const GOLDEN: [(&str, [u64; 3]); 12] = [
    ("plateau", [0x677c868f2af8c8cd, 0x44e521df9cdefe91, 0xcada386559df8171]),
    ("sparse", [0x53c095efadb856b9, 0xea00e233ac11b1f5, 0x29a5d35f2d052a9a]),
    ("hist", [0xd37cf04231ee9c2d, 0xcad59ae85d7dc76c, 0x91d699cce1e205f4]),
    ("poly", [0x3b811de7230b24e9, 0xc280429a10ca8646, 0x6b5231eb6275927e]),
    ("dow", [0xdf068c2ba54f28ce, 0x0c9dec4e2653e2bc, 0xe1c5562a1e0ff9d4]),
    ("steps", [0x617891a3b24c3495, 0x4617d9cf132b165b, 0x6d18badfb84f1702]),
    ("zeros", [0x368c27563736fec2, 0x05e17f0dfe49a671, 0x7150309f2a679de0]),
    ("periodic", [0x3a2614907eef0226, 0x8bd10233e77cdbe7, 0x202ccea70b33bf57]),
    ("ties", [0xdb927d0a3bccb936, 0x93c3b3f3f2dd7247, 0x10bc3cffe32d7ce9]),
    ("sparse-edges", [0x389be7c233482671, 0xe2bdee9356b7f879, 0x174ae2dac1fa1d79]),
    ("stride-peaks", [0xd45c50481490e447, 0x7ab283fa267979f6, 0x80d509f731138ea7]),
    ("sparse-gaps", [0xd476ac8ee4704206, 0xe1add7338883c454, 0x1fb7e2cf8b03c20d]),
];

/// `(input, reports(input))`, captured with the golden checksums.
const REPORTS: [(&str, [[usize; 4]; 3]); 12] = [
    ("plateau", [[65536, 16, 11, 2730], [65536, 16, 13, 321], [65536, 12, 8, 1638]]),
    ("sparse", [[2049, 11, 9, 85], [2049, 11, 10, 10], [2049, 7, 5, 51]]),
    ("hist", [[1000, 10, 8, 41], [1000, 10, 10, 4], [1000, 6, 4, 25]]),
    ("poly", [[4000, 12, 9, 166], [4000, 12, 11, 19], [4000, 8, 6, 100]]),
    ("dow", [[16384, 14, 10, 682], [16384, 14, 12, 80], [16384, 10, 7, 409]]),
    ("steps", [[4096, 12, 9, 170], [4096, 12, 11, 20], [4096, 8, 6, 102]]),
    ("zeros", [[1000, 10, 8, 41], [1000, 10, 10, 4], [1000, 6, 4, 25]]),
    ("periodic", [[5001, 13, 10, 208], [5001, 13, 11, 24], [5001, 8, 5, 125]]),
    ("ties", [[32768, 15, 11, 1365], [32768, 15, 12, 160], [32768, 11, 7, 819]]),
    ("sparse-edges", [[5187, 13, 10, 216], [5187, 13, 11, 25], [5187, 9, 6, 129]]),
    ("stride-peaks", [[131072, 17, 12, 5461], [131072, 17, 13, 642], [131072, 13, 8, 3276]]),
    ("sparse-gaps", [[5857, 13, 10, 244], [5857, 13, 11, 28], [5857, 9, 6, 146]]),
];

#[test]
fn merging_fits_match_the_committed_checksums() {
    for ((name, signal), (golden_name, sums)) in inputs().into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        for (algo, want) in ALGOS.iter().zip(sums) {
            let got = checksum(algo, &signal);
            assert_eq!(got, want, "{name}/{algo}: checksum 0x{got:016x} != golden 0x{want:016x}");
        }
    }
}

/// `(input, [degree 0, degree 1, degree 3])` checksums of `PiecewisePoly`.
const POLY_GOLDEN: [(&str, [u64; 3]); 12] = [
    ("plateau", [0x76ece864d65db802, 0x80ea9172bfab1e9b, 0x3e72e2a378119ffd]),
    ("sparse", [0x6aa3b2a5e533fdc2, 0x6dd48c52d2ad4ba4, 0x5db47be040c2f559]),
    ("hist", [0x7c03682257eb9bf3, 0x9b59543e1125efbc, 0xc0da4e0fe35c577d]),
    ("poly", [0xa36f4ce2feeaf93c, 0x21bcde28cec0f2fa, 0x01e60773c6175862]),
    ("dow", [0xd5c89dbaa523c5b1, 0x97046120d5489928, 0x26b8941221038744]),
    ("steps", [0xb93196f36852433c, 0x529883eadc66299e, 0xe2177a94c6881eb7]),
    ("zeros", [0xc8677fd5a27fabe2, 0x69b1a01b1ac88fe2, 0x7bac73aa404bc662]),
    ("periodic", [0x4cbfe6e6c26b42ce, 0xaee947e241ada339, 0x207d391e33273688]),
    ("ties", [0x4fce09e76ab83dc7, 0xa9ef00c132ea6885, 0xbfde10b27156a23f]),
    ("sparse-edges", [0x4867b89eb0b0d4e2, 0x9c3046273b8f6ff8, 0x4bdf898494b687ef]),
    ("stride-peaks", [0x6fac86759ad7ebec, 0x0e114dd297cf783e, 0xa06ddb4c2ee3ee46]),
    ("sparse-gaps", [0xdef81244f795018d, 0xed8a5bdb4c6a2a8b, 0xbf500374651e3d37]),
];

#[test]
fn polynomial_fits_match_the_committed_checksums() {
    for ((name, signal), (golden_name, sums)) in inputs().into_iter().zip(POLY_GOLDEN) {
        assert_eq!(name, golden_name);
        for (degree, want) in DEGREES.into_iter().zip(sums) {
            let got = poly_checksum(degree, &signal);
            assert_eq!(
                got, want,
                "{name}/degree {degree}: checksum 0x{got:016x} != golden 0x{want:016x}"
            );
        }
    }
}

#[test]
fn merging_reports_match_the_committed_counts() {
    for ((name, signal), (golden_name, want)) in inputs().into_iter().zip(REPORTS) {
        assert_eq!(name, golden_name);
        assert_eq!(reports(&signal), want, "{name}: report counts differ");
    }
}

#[test]
fn hierarchical_fit_serves_the_hierarchy_level_for_k() {
    for (name, signal) in inputs() {
        let hierarchy = Hierarchical::new(EstimatorBuilder::new(1)).fit_hierarchy(&signal).unwrap();
        assert_eq!(
            hierarchy,
            construct_hierarchical_histogram(&signal.as_sparse()).unwrap(),
            "{name}: fit_hierarchy differs from the sparse-path hierarchy"
        );
        for k in [1, 2, 8, 64, 1_000_000] {
            let fit = Hierarchical::new(EstimatorBuilder::new(k)).fit(&signal).unwrap();
            let (want, _) = hierarchy.histogram_for_k(k);
            let got = fit.histogram().unwrap();
            let seed = 0xcbf2_9ce4_8422_2325;
            assert_eq!(fnv(seed, got), fnv(seed, &want), "{name}: k = {k} level differs");
            assert_eq!(got, &want, "{name}: k = {k} level differs");
        }
    }
}

/// `(input, [exactdp, exactdp-naive, dual, gks, equalwidth, equalmass,
/// greedysplit])` checksums over `k` = 5 and 10.
const BASELINE_GOLDEN: [(&str, [u64; 7]); 7] = [
    (
        "steps",
        [
            0x44b8c47e3a132215,
            0xb6bccf908cfeb991,
            0x44b8c47e3a132215,
            0xae0298b1bf98f224,
            0x554866c722d9e1d8,
            0x207295999deee402,
            0x44145e048416f4d0,
        ],
    ),
    (
        "noisy-steps",
        [
            0x4cb418c9af176302,
            0x4cb418c9af176302,
            0x5aa6c69b9dd4d917,
            0x7c41d2cebcbb4671,
            0x7f849f75efe6ba89,
            0x6e7f1d94ed3e681c,
            0xd1e2d542e3e03c42,
        ],
    ),
    (
        "ramp",
        [
            0xef5859901f22efe8,
            0xef5859901f22efe8,
            0xef5859901f22efe8,
            0xef5859901f22efe8,
            0xef5859901f22efe8,
            0xf72834028f0337c9,
            0x2ea503b9cb526bbd,
        ],
    ),
    (
        "spike",
        [
            0xd5408f6bdb48c905,
            0xa374e8096c57b919,
            0xd5408f6bdb48c905,
            0x99b2fea9461fc9e4,
            0xdb0943726c6ff2d7,
            0xe10771f7a6e3c3af,
            0x28806f144bfab35f,
        ],
    ),
    (
        "flat",
        [
            0xc413d08baad99a75,
            0xa706ad725f92da6e,
            0xc413d08baad99a75,
            0x640709ffc3272993,
            0xbb78bc58856c0ff4,
            0xbb78bc58856c0ff4,
            0xab11fd950d345345,
        ],
    ),
    (
        "hist",
        [
            0x55b98757c012822b,
            0x55b98757c012822b,
            0x57013b7267f433d1,
            0x1058e75606806b14,
            0x8f853b6c0e51134f,
            0xaed525715f443015,
            0x7fdd92a828509f78,
        ],
    ),
    (
        "poly",
        [
            0xa84b994632fdf770,
            0xa84b994632fdf770,
            0xd77ede235105ec9b,
            0xe1312305fcb3cfec,
            0xb20841cd4f65b28c,
            0xd6607508f5a1e855,
            0xafd3aad8651631c8,
        ],
    ),
];

#[test]
fn baseline_fits_match_the_committed_checksums() {
    for ((name, signal), (golden, sums)) in baseline_inputs().into_iter().zip(BASELINE_GOLDEN) {
        assert_eq!(name, golden);
        for (kind, want) in BASELINES.into_iter().zip(sums) {
            let got = baseline_checksum(kind, &signal);
            assert_eq!(got, want, "{name}/{kind:?}: checksum 0x{got:016x} != golden 0x{want:016x}");
        }
    }
}
