//! Seeded workload inputs and the reference results every solve must
//! reproduce.
//!
//! The program under test receives only network text. The seed shuffles
//! the order of the metabolite terms on each side of every reaction
//! equation. That permutes the metabolite (stoichiometry row) order the
//! parser assigns, so each seed hands the program a different matrix,
//! while the reactions, their order and the EFM set stay the same.
//! Shuffling the *reaction* order instead is not used: it changes the
//! kernel basis and the row processing order, and with it the work done
//! (144k–184k rank tests and 0.9–1.6 s per Network I solve over seeds 0–5),
//! so the seed would swamp every bound.

use efm_core::EfmSet;
use efm_metnet::yeast;

/// Which yeast network of the paper a workload solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Network I (Figs. 3–4).
    I,
    /// Network II (Fig. 5).
    II,
}

/// Reactions the lite variants drop, as `efm_bench::network_i(Scale::Lite)`
/// does: two high-degree hubs that multiply the mode count without
/// changing the algorithmic structure.
const LITE_DROPPED: [&str; 2] = ["R15", "R70"];

/// EFM count and name digest a correct solve reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Number of EFMs.
    pub efms: usize,
    /// [`name_digest`] of the EFM set.
    pub digest: u64,
}

/// Reference results of the lite networks, recorded by this benchmark.
/// The counts agree with the repository's golden digests
/// (`tests/golden_partitions.rs`).
pub fn reference(net: Net) -> Reference {
    match net {
        Net::I => Reference { efms: 5194, digest: 10_594_347_456_137_345_375 },
        Net::II => Reference { efms: 113_105, digest: 12_691_086_771_197_920_345 },
    }
}

/// The lite network text for `net`, with the terms of every reaction
/// side shuffled by `seed`. The same seed always gives the same text.
pub fn network_text(net: Net, seed: u64) -> String {
    let full = match net {
        Net::I => yeast::NETWORK_I_TEXT,
        Net::II => yeast::NETWORK_II_TEXT,
    };
    let mut rng = SplitMix64(seed);
    let mut out = String::with_capacity(full.len());
    for line in full.lines() {
        let body = line.split('#').next().unwrap_or("").trim();
        let Some((name, equation)) = body.split_once(':') else {
            // Comments, blank lines and `-EXTERNAL` declarations.
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let name = name.trim();
        if LITE_DROPPED.contains(&name) {
            continue;
        }
        let arrow = if equation.contains("<=>") { "<=>" } else { "=>" };
        let (lhs, rhs) = equation.split_once(arrow).expect("yeast reactions have an arrow");
        let lhs = shuffled_side(lhs, &mut rng);
        let rhs = shuffled_side(rhs, &mut rng);
        out.push_str(&format!("{name} : {lhs} {arrow} {rhs}\n"));
    }
    out
}

fn shuffled_side(side: &str, rng: &mut SplitMix64) -> String {
    let mut terms: Vec<&str> = side.split(" + ").map(str::trim).collect();
    for i in (1..terms.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        terms.swap(i, j);
    }
    terms.join(" + ")
}

/// SplitMix64: a tiny, fixed generator so inputs never depend on another
/// crate's random-number stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a over the EFM set as sorted lists of reaction *names*, sorted.
/// Names and lists are length-prefixed so boundaries cannot alias. Using
/// names makes the digest independent of reaction indexing.
pub fn name_digest(efms: &EfmSet) -> u64 {
    let names = efms.reaction_names();
    let mut modes: Vec<Vec<&str>> = efms
        .iter()
        .map(|support| {
            let mut mode: Vec<&str> = support.iter().map(|&j| names[j].as_str()).collect();
            mode.sort_unstable();
            mode
        })
        .collect();
    modes.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for mode in &modes {
        mix(&(mode.len() as u64).to_le_bytes());
        for name in mode {
            mix(&(name.len() as u64).to_le_bytes());
            mix(name.as_bytes());
        }
    }
    h
}

/// Checks a solve's EFM set against the reference for `net`.
pub fn check(net: Net, efms: &EfmSet) -> Result<(), String> {
    let want = reference(net);
    let got = Reference { efms: efms.len(), digest: name_digest(efms) };
    if got == want {
        Ok(())
    } else {
        Err(format!("EFM set mismatch: got {got:?}, want {want:?}"))
    }
}
