//! Differential goldens for the merging algorithms: a checksum of every
//! `merging`, `fastmerging` and `hierarchical` fit over a set of seeded,
//! Table 1 and tie-heavy inputs, so a change to the merge rounds that moves
//! one boundary or one value bit anywhere fails here.
//!
//! The checksum is FNV-1a over each piece's interval end and value bits. The
//! constants were captured from the copy-per-round loops the in-place rounds
//! replaced, so they hold the rounds to that output bit for bit. If one fails
//! after an *intentional* algorithm change, re-derive them with
//! `cargo test --release --test merging_golden -- --ignored --nocapture`
//! and update them in the same commit.

use approx_hist::core::construct_hierarchical_histogram;
use approx_hist::datasets::{dow_dataset, hist_dataset, poly_dataset};
use approx_hist::{
    Estimator, EstimatorBuilder, FastMerging, GreedyMerging, Hierarchical, Histogram, Signal,
    SparseFunction,
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

/// Folds a histogram into an FNV-1a state: every interval end, then every
/// value's bits.
fn fnv(mut hash: u64, h: &Histogram) -> u64 {
    let ends = h.partition().iter().map(|i| i.end() as u64);
    for word in ends.chain(h.values().iter().map(|v| v.to_bits())) {
        for byte in word.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// The checksum of `algo`'s fits of `signal` under every builder.
fn checksum(algo: &str, signal: &Signal) -> u64 {
    builders().into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, builder| {
        let synopsis = estimator(algo, builder).fit(signal).unwrap();
        fnv(hash, synopsis.histogram().expect("merging fits are histograms"))
    })
}

const ALGOS: [&str; 3] = ["merging", "fastmerging", "hierarchical"];

#[test]
#[ignore = "golden-regeneration helper, not a regression test"]
fn print_merging_checksums() {
    for (name, signal) in inputs() {
        let sums: Vec<String> =
            ALGOS.iter().map(|algo| format!("0x{:016x}", checksum(algo, &signal))).collect();
        println!("(\"{name}\", [{}]),", sums.join(", "));
    }
}

/// `(input, [merging, fastmerging, hierarchical])` checksums.
const GOLDEN: [(&str, [u64; 3]); 8] = [
    ("plateau", [0x677c868f2af8c8cd, 0x44e521df9cdefe91, 0xcada386559df8171]),
    ("sparse", [0x53c095efadb856b9, 0xea00e233ac11b1f5, 0x29a5d35f2d052a9a]),
    ("hist", [0xd37cf04231ee9c2d, 0xcad59ae85d7dc76c, 0x91d699cce1e205f4]),
    ("poly", [0x3b811de7230b24e9, 0xc280429a10ca8646, 0x6b5231eb6275927e]),
    ("dow", [0xdf068c2ba54f28ce, 0x0c9dec4e2653e2bc, 0xe1c5562a1e0ff9d4]),
    ("steps", [0x617891a3b24c3495, 0x4617d9cf132b165b, 0x6d18badfb84f1702]),
    ("zeros", [0x368c27563736fec2, 0x05e17f0dfe49a671, 0x7150309f2a679de0]),
    ("periodic", [0x3a2614907eef0226, 0x8bd10233e77cdbe7, 0x202ccea70b33bf57]),
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
