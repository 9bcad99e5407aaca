//! The benchmark's own checks:
//!
//! * each seed's text is the lite network, and seeds 0–2 yield the
//!   reference EFM set on Algorithms 1 and 3, which is the repository's
//!   golden set (`tests/golden_partitions.rs`);
//! * the deterministic counters repeat exactly between two solves of one
//!   input on every workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the Network II case takes about a minute.

use efm_bench::{network_i, network_ii, Scale};
use efm_metnet::MetabolicNetwork;
use efm_perfbench::input::{self, name_digest, Net};
use efm_perfbench::workload::{self, Counters, Workload};
use std::collections::BTreeMap;

/// Each reaction as name → (reversible, metabolite name → coefficient).
fn by_name(net: &MetabolicNetwork) -> BTreeMap<String, (bool, BTreeMap<String, String>)> {
    net.reactions
        .iter()
        .map(|r| {
            let coeffs = r
                .stoich
                .iter()
                .map(|(m, c)| (net.metabolites[*m].name.clone(), c.to_string()))
                .collect();
            (r.name.clone(), (r.reversible, coeffs))
        })
        .collect()
}

#[test]
fn every_seed_gives_the_lite_network() {
    for (net, lite) in [(Net::I, network_i(Scale::Lite)), (Net::II, network_ii(Scale::Lite))] {
        for seed in 0..4 {
            let text = input::network_text(net, seed);
            assert_eq!(text, input::network_text(net, seed), "same seed, same text");
            let parsed = efm_metnet::parse_network(&text).expect("seeded text parses");
            assert_eq!(parsed.reaction_names(), lite.reaction_names(), "{net:?} seed {seed}");
            assert_eq!(by_name(&parsed), by_name(&lite), "{net:?} seed {seed}");
            let externals = |n: &MetabolicNetwork| {
                let mut e: Vec<String> =
                    n.metabolites.iter().filter(|m| m.external).map(|m| m.name.clone()).collect();
                e.sort();
                e
            };
            assert_eq!(externals(&parsed), externals(&lite));
        }
        assert_ne!(input::network_text(net, 0), input::network_text(net, 1));
    }
}

/// FNV-1a over sorted index supports, as `tests/golden_partitions.rs`
/// computes the repository's golden digests.
fn index_digest(efms: &efm_core::EfmSet) -> (u64, u64) {
    let mut sups: Vec<Vec<usize>> = efms.iter().collect();
    sups.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for sup in &sups {
        mix(sup.len() as u64);
        for &j in sup {
            mix(j as u64);
        }
    }
    (sups.len() as u64, h)
}

#[test]
fn seeds_zero_to_two_give_the_reference_set_serial_and_split() {
    for seed in 0..=2 {
        let text = input::network_text(Net::I, seed);
        for w in [Workload::Net1Serial, Workload::Net1Dnc8] {
            let setup = workload::setup(w, &text).expect("setup");
            let solve = workload::solve(w.algorithm(), w.net(), &text, &setup.partition)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            assert_eq!(name_digest(&solve.outcome.efms), input::reference(Net::I).digest);
            // The recorded reference is the repository's golden set.
            assert_eq!(index_digest(&solve.outcome.efms), (5194, 1_506_135_395_104_561_618));
        }
    }
}

/// Counters of two solves of seed 1, and the index digest of the first.
fn counters_twice(w: Workload) -> (Counters, Counters, (u64, u64)) {
    let text = input::network_text(w.net(), 1);
    let partition = workload::setup(w, &text).expect("setup").partition;
    let solve =
        || workload::solve(w.algorithm(), w.net(), &text, &partition).expect("checked solve");
    let (first, second) = (solve(), solve());
    let digest = index_digest(&first.outcome.efms);
    (Counters::of(&first.outcome.stats), Counters::of(&second.outcome.stats), digest)
}

#[test]
fn net1_serial_counters_repeat() {
    let (a, b, digest) = counters_twice(Workload::Net1Serial);
    assert_eq!(a, b);
    assert_eq!(digest, (5194, 1_506_135_395_104_561_618));
    assert_eq!(a.comm_bytes, 0);
}

#[test]
fn net1_dnc8_counters_repeat() {
    let (a, b, digest) = counters_twice(Workload::Net1Dnc8);
    assert_eq!(a, b);
    assert_eq!(digest, (5194, 1_506_135_395_104_561_618));
}

#[test]
fn net2_cluster2_counters_repeat() {
    let (a, b, digest) = counters_twice(Workload::Net2Cluster2);
    assert_eq!(a, b);
    assert_eq!(digest, (113_105, 2_715_888_270_470_620_915));
    assert!(a.comm_bytes > 0, "two ranks exchange candidates");
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    use efm_perfbench::report::{Report, END_TO_END, PER_LAYER};
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    let spec = efm_obs::json::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        let metrics = spec.get(key).and_then(|v| v.as_arr()).expect("metric list");
        metrics
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    let workloads = spec.get("workloads").and_then(|v| v.as_arr()).expect("workloads");
    let names: Vec<&str> =
        workloads.iter().map(|w| w.get("name").and_then(|v| v.as_str()).expect("name")).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    // The result line is one JSON object with the contract's keys.
    let report =
        Report { attempted: 2, failed: 0, metrics: vec![("wall_s", 1.5), ("setup_s", -0.0)] };
    let line = efm_obs::json::parse(&report.json()).expect("result line is JSON");
    assert_eq!(line.get("attempted").and_then(|v| v.as_num()), Some(2.0));
    assert_eq!(
        line.get("metrics")
            .and_then(|m| m.get("wall_s"))
            .and_then(|v| v.get("unit"))
            .and_then(|u| u.as_str()),
        Some("s")
    );
    assert!(!report.json().contains("-0"));
}
