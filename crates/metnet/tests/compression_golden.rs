//! Golden snapshots of the reduced yeast networks.
//!
//! Each case pins what [`compress`] makes of one of the paper's yeast
//! networks: the [`CompressionStats`], the reduced shape, and an FNV-1a
//! digest over the reduced stoichiometry, `reversible`, `names` and
//! `members`. Any change to the compression pipeline that alters the
//! reduced network, even by one coefficient or one member order, flips the
//! digest. To regenerate after an intentional change, run with
//! `--nocapture` and copy the printed line.
//!
//! The lite variants drop R15 and R70, as `efm_bench::network_i(Scale::Lite)`
//! does (that crate depends on this one, so the trimming is repeated here).

use efm_metnet::{compress, yeast, CompressionStats, MetabolicNetwork, ReducedNetwork};

fn lite(text: &str) -> MetabolicNetwork {
    let trimmed: String = text
        .lines()
        .filter(|l| {
            let name = l.split(':').next().unwrap_or("").trim();
            name != "R15" && name != "R70"
        })
        .map(|l| format!("{l}\n"))
        .collect();
    efm_metnet::parse_network(&trimmed).expect("lite network is well-formed")
}

/// FNV-1a over every field that defines the reduced network; strings and
/// lists are length-prefixed so boundaries cannot alias.
fn digest(red: &ReducedNetwork) -> u64 {
    let mut buf: Vec<u8> = Vec::new();
    let put_num = |buf: &mut Vec<u8>, v: usize| buf.extend_from_slice(&(v as u64).to_le_bytes());
    let put_str = |buf: &mut Vec<u8>, s: &str| {
        put_num(buf, s.len());
        buf.extend_from_slice(s.as_bytes());
    };
    put_num(&mut buf, red.stoich.rows());
    put_num(&mut buf, red.stoich.cols());
    for r in 0..red.stoich.rows() {
        for c in 0..red.stoich.cols() {
            put_str(&mut buf, &red.stoich.get(r, c).to_string());
        }
    }
    put_num(&mut buf, red.reversible.len());
    buf.extend(red.reversible.iter().map(|&r| r as u8));
    put_num(&mut buf, red.names.len());
    for n in &red.names {
        put_str(&mut buf, n);
    }
    put_num(&mut buf, red.members.len());
    for mem in &red.members {
        put_num(&mut buf, mem.len());
        for (orig, c) in mem {
            put_num(&mut buf, *orig);
            put_str(&mut buf, &c.to_string());
        }
    }
    buf.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Compresses `net` and checks it against the pinned snapshot. `lp_solves`
/// is left out of the comparison: it counts work, not the result.
fn check(
    label: &str,
    net: &MetabolicNetwork,
    shape: (usize, usize),
    stats: CompressionStats,
    d: u64,
) {
    let (red, got) = compress(net);
    let got_shape = (red.stoich.rows(), red.num_reduced());
    let got_digest = digest(&red);
    println!("{label}: shape {got_shape:?} digest {got_digest} {got:?}");
    assert_eq!(got_shape, shape, "{label}: reduced shape");
    assert_eq!(CompressionStats { lp_solves: 0, ..got }, stats, "{label}: compression stats");
    assert_eq!(got_digest, d, "{label}: reduced-network digest");
}

fn stats(
    rounds: usize,
    blocked: usize,
    merged: usize,
    dropped_rows: usize,
    sign_blocked: usize,
    direction_fixed: usize,
) -> CompressionStats {
    CompressionStats {
        rounds,
        blocked,
        merged,
        dropped_rows,
        sign_blocked,
        direction_fixed,
        lp_solves: 0,
    }
}

#[test]
fn network_i_lite_reduces_to_golden() {
    let net = lite(yeast::NETWORK_I_TEXT);
    check(
        "network I lite",
        &net,
        (28, 47),
        stats(7, 13, 13, 34, 3, 10),
        17_092_655_195_661_786_337,
    );
}

#[test]
fn network_i_full_reduces_to_golden() {
    let net = yeast::network_i();
    check("network I full", &net, (40, 65), stats(4, 3, 10, 22, 0, 11), 18_332_377_422_332_781_323);
}

#[test]
fn network_ii_lite_reduces_to_golden() {
    let net = lite(yeast::NETWORK_II_TEXT);
    check(
        "network II lite",
        &net,
        (30, 52),
        stats(7, 13, 13, 33, 3, 6),
        16_578_547_378_918_766_839,
    );
}

#[test]
fn network_ii_full_reduces_to_golden() {
    let net = yeast::network_ii();
    check("network II full", &net, (42, 70), stats(5, 3, 10, 21, 0, 6), 15_497_411_993_289_185_326);
}

/// The exact-LP sign analysis on Network I lite: how many LPs it solves.
#[test]
fn network_i_lite_sign_analysis_lp_count() {
    let (_, got) = compress(&lite(yeast::NETWORK_I_TEXT));
    assert_eq!(got.lp_solves, 34);
}
