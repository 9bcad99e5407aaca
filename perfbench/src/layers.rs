//! Per-layer measurements: counters and phase times read from a solve's
//! `RunStats`/`SubsetReport`s, self times computed from an `efm_obs`
//! trace, and two layer microbenchmarks driven by the solve's own EFMs.

use efm_bitset::kernel::{block_pairs, detect_tier, prefilter_hits};
use efm_bitset::Pattern2;
use efm_core::{EfmOptions, EfmOutcome, SubsetReport, RANK_TOL};
use efm_linalg::{gauss_rank_in_place_f64, nullity_of_cols};
use efm_numeric::DynInt;
use efm_obs::{EventKind, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Named per-layer values of one traced solve.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// EFMs sampled (evenly over the canonical order) for the microbenchmarks.
const SAMPLE: usize = 256;

/// Timed passes over the rank-test sample.
const PASSES: usize = 16;

/// The `<layer>.self_s` metric a span named `name` counts toward. Spans
/// the benchmark records around public calls carry the call's name; the
/// rest are the program's own.
fn self_time_key(name: &str) -> &'static str {
    match name {
        "parse_network" | "compress_with" => "metnet.self_s",
        "build_problem" => "problem.self_s",
        "enumerate" => "api.self_s",
        "gauss_rank_in_place_f64" => "linalg.self_s",
        "prefilter_hits" => "bitset.self_s",
        "pick_partition" | "dnc probe" => "divide.self_s",
        "communicate" | "allgather" | "allreduce" | "broadcast" | "gather" | "scatter"
        | "barrier wait" | "straggle" => "cluster.self_s",
        n if n.starts_with("subset ") => "divide.self_s",
        n if n.starts_with("dnc worker") => "schedule.self_s",
        // iteration, gen cand, sort/dedup, tree filter, rank test, merge,
        // setup, finalize, checkpoint.
        _ => "engine.self_s",
    }
}

/// Every key [`self_time_key`] returns.
const SELF_TIME_KEYS: [&str; 9] = [
    "metnet.self_s",
    "problem.self_s",
    "api.self_s",
    "engine.self_s",
    "linalg.self_s",
    "bitset.self_s",
    "cluster.self_s",
    "divide.self_s",
    "schedule.self_s",
];

/// One closed span of a trace.
struct SpanRec {
    name: String,
    start: u64,
    end: u64,
    /// Summed duration of direct children on the same track.
    child_us: u64,
    depth: usize,
}

fn spans_of(events: &[efm_obs::Event]) -> Vec<SpanRec> {
    let mut open: Vec<SpanRec> = Vec::new();
    let mut done = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => open.push(SpanRec {
                name: e.name.to_string(),
                start: e.ts_us,
                end: e.ts_us,
                child_us: 0,
                depth: open.len(),
            }),
            EventKind::End => {
                if let Some(mut s) = open.pop() {
                    s.end = e.ts_us;
                    if let Some(parent) = open.last_mut() {
                        parent.child_us += s.end - s.start;
                    }
                    done.push(s);
                }
            }
            _ => {}
        }
    }
    done
}

/// Trace-derived values of one traced solve: each layer's self time
/// (span duration minus the part its children cover, summed over all
/// threads), the time ranks spent in `barrier wait`, subset steals, and
/// the share of worker time spent running subsets.
pub fn from_trace(snap: &Snapshot) -> LayerValues {
    let tracks: Vec<Vec<SpanRec>> = snap.tracks.iter().map(|t| spans_of(&t.events)).collect();
    let mut self_us: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut barrier_us, mut worker_us, mut worker_child_us) = (0u64, 0u64, 0u64);
    for (ti, spans) in tracks.iter().enumerate() {
        for s in spans {
            let mut covered = s.child_us;
            if s.name == "enumerate" {
                // Rank and worker threads run on behalf of this call: the
                // part of its interval their top-level spans cover is
                // theirs, not the call's own.
                let others: Vec<(u64, u64)> = tracks
                    .iter()
                    .enumerate()
                    .filter(|&(tj, _)| tj != ti)
                    .flat_map(|(_, o)| o.iter().filter(|c| c.depth == 0))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                covered += union_len(others);
            }
            let dur = s.end - s.start;
            *self_us.entry(self_time_key(&s.name)).or_default() += dur.saturating_sub(covered);
            if s.name == "barrier wait" {
                barrier_us += dur;
            }
            if s.name.starts_with("dnc worker") {
                worker_us += dur;
                worker_child_us += s.child_us;
            }
        }
    }
    let mut out = LayerValues::new();
    for key in SELF_TIME_KEYS {
        out.insert(key, secs_us(self_us.get(key).copied().unwrap_or(0)));
    }
    out.insert("cluster.barrier_wait_s", secs_us(barrier_us));
    out.insert("schedule.steals", snap.counter("dnc steals").unwrap_or(0) as f64);
    out.insert("schedule.worker_busy_frac", ratio(worker_child_us as f64, worker_us as f64));
    out
}

/// Length of the union of half-open intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

fn secs_us(us: u64) -> f64 {
    us as f64 / 1e6
}

/// `num / den`, or `0` when `den` is `0`.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Values read from what one solve returned: phase times, the candidate
/// funnel, memory peaks, cluster traffic and per-subset balance.
pub fn from_outcome(out: &EfmOutcome) -> LayerValues {
    let st = &out.stats;
    let ph = &st.phases;
    // Divide-and-conquer keeps iteration records per subset.
    let accepted: u64 = if out.subsets.is_empty() {
        st.iterations.iter().map(|it| it.accepted).sum()
    } else {
        out.subsets.iter().flat_map(|s| &s.stats.iterations).map(|it| it.accepted).sum()
    };
    let pairs = st.candidates_generated as f64;
    let run: Vec<&SubsetReport> = out.subsets.iter().filter(|s| !s.skipped_empty).collect();
    let subset_s: Vec<f64> = run.iter().map(|s| s.stats.total_time.as_secs_f64()).collect();
    let subset_max = subset_s.iter().copied().fold(0.0, f64::max);
    let subset_mean = ratio(subset_s.iter().sum(), subset_s.len() as f64);
    let mut v = LayerValues::new();
    v.insert("engine.rank_test_s", ph.rank_test.as_secs_f64());
    v.insert("engine.rank_tests", st.rank_tests as f64);
    v.insert("engine.rank_test_us", ratio(ph.rank_test.as_secs_f64() * 1e6, st.rank_tests as f64));
    v.insert("engine.accept_ratio", ratio(accepted as f64, st.rank_tests as f64));
    v.insert("engine.generate_s", ph.generate.as_secs_f64());
    v.insert("engine.pairs", pairs);
    v.insert("engine.numeric_pass_ratio", ratio(pairs - st.kernel_pruned as f64, pairs));
    v.insert("bitset.kernel_pruned", st.kernel_pruned as f64);
    v.insert("bitset.tree_pruned", st.tree_pruned as f64);
    v.insert("engine.dedup_s", ph.dedup.as_secs_f64());
    v.insert("engine.tree_filter_s", ph.tree_filter.as_secs_f64());
    v.insert("engine.dedup_hits", st.dedup_hits as f64);
    v.insert("engine.peak_modes", st.peak_modes as f64);
    v.insert("engine.arena_peak_bytes", st.arena_peak_bytes as f64);
    v.insert("engine.peak_transient_bytes", st.peak_transient_bytes as f64);
    v.insert("engine.stream_batches", st.stream_batches as f64);
    v.insert("cluster.comm_s", ph.communicate.as_secs_f64());
    v.insert("cluster.merge_s", ph.merge.as_secs_f64());
    v.insert("cluster.comm_messages", st.comm_messages as f64);
    v.insert("cluster.comm_bytes", st.comm_bytes as f64);
    v.insert("divide.subsets_run", run.len() as f64);
    v.insert("divide.pairs", run.iter().map(|s| s.stats.candidates_generated).sum::<u64>() as f64);
    v.insert("divide.subset_max_s", subset_max);
    v.insert("divide.imbalance", ratio(subset_max, subset_mean));
    v
}

/// Problem columns of the reduced reactions in an EFM's support.
fn support_cols(out: &EfmOutcome, col_of: &[Option<usize>], support: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> = support
        .iter()
        .filter_map(|&orig| out.reduced.reduced_index_of(orig))
        .filter_map(|r| col_of[r])
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Evenly spaced EFMs of the (canonical, hence seed-independent) set.
fn sampled_supports(out: &EfmOutcome) -> Vec<Vec<usize>> {
    let n = out.efms.len();
    let step = (n / SAMPLE).max(1);
    (0..n).step_by(step).take(SAMPLE).map(|i| out.efms.support(i)).collect()
}

/// Median µs per rank-test elimination over a fixed sample: the supports
/// of sampled EFMs (which the test accepts) and each of them plus one more
/// column (a superset, as the engine meets them). Each operand is built as
/// the engine's default test builds it — the stoichiometry in f64 with
/// every column scaled to max |entry| 1, restricted to the rows the
/// support touches — and only `gauss_rank_in_place_f64` is timed. Fails
/// if a sampled EFM's support does not have nullity 1, in exact
/// arithmetic (`nullity_of_cols`) and in the timed f64 elimination: an
/// independent elementarity check.
pub fn nullity_us(out: &EfmOutcome) -> Result<f64, String> {
    let opts = EfmOptions::default();
    let problem = efm_core::build_problem::<DynInt>(&out.reduced, &opts)
        .map_err(|e| format!("build: {e}"))?;
    let mut col_of = vec![None; out.reduced.num_reduced()];
    for (c, &r) in problem.col_to_reduced.iter().enumerate() {
        col_of[r].get_or_insert(c);
    }
    let (m, q) = (problem.num_rows(), problem.num_cols());
    let scaled: Vec<Vec<f64>> = (0..q)
        .map(|c| {
            let col: Vec<f64> = (0..m).map(|r| problem.stoich.get(r, c).to_f64()).collect();
            let max = col.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            col.iter().map(|v| if max > 0.0 { v / max } else { *v }).collect()
        })
        .collect();
    let scaled = &scaled;
    let operand = |cols: &[usize]| {
        let rows: Vec<usize> =
            (0..m).filter(|&r| cols.iter().any(|&c| scaled[c][r] != 0.0)).collect();
        let buf: Vec<f64> =
            rows.iter().flat_map(|&r| cols.iter().map(move |&c| scaled[c][r])).collect();
        (buf, rows.len(), cols.len())
    };
    let mut operands = Vec::new();
    let mut exact_scratch = Vec::new();
    for (i, support) in sampled_supports(out).iter().enumerate() {
        let cols = support_cols(out, &col_of, support);
        let (mut buf, nr, nc) = operand(&cols);
        let float_nullity = nc - gauss_rank_in_place_f64(&mut buf, nr, nc, RANK_TOL);
        let exact_nullity = nullity_of_cols(&problem.stoich, &cols, &mut exact_scratch);
        if (float_nullity, exact_nullity) != (1, 1) {
            return Err(format!(
                "sampled EFM {support:?} has nullity {exact_nullity} (f64: {float_nullity})"
            ));
        }
        let extra = (0..q).map(|k| (i + k) % q).find(|c| !cols.contains(c));
        let mut superset = cols.clone();
        superset.extend(extra);
        superset.sort_unstable();
        operands.push(operand(&cols));
        operands.push(operand(&superset));
    }
    let _span = efm_obs::span("gauss_rank_in_place_f64");
    let mut work = Vec::new();
    let mut us = Vec::with_capacity(operands.len() * PASSES);
    for _ in 0..PASSES {
        for (buf, nr, nc) in &operands {
            work.clone_from(buf);
            let t = Instant::now();
            std::hint::black_box(gauss_rank_in_place_f64(&mut work, *nr, *nc, RANK_TOL));
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(crate::measure::median(&us))
}

/// Million pos×neg pairs per second through `prefilter_hits`, the
/// vectorized candidate bound, on the patterns of sampled EFMs: even
/// samples play positive modes, odd ones negative. Reactions 0–63 form
/// the settled-row pattern and 64–127 the value-slot support; the bound
/// limit is the median support size, so a realistic share passes.
pub fn prefilter_mpairs_s(out: &EfmOutcome) -> f64 {
    let sample = sampled_supports(out);
    let pattern = |s: &[usize]| Pattern2::from_indices(s.iter().copied().filter(|&j| j < 64));
    let tail = |s: &[usize]| Pattern2::from_indices(s.iter().filter(|&&j| j >= 64).map(|j| j - 64));
    let (pos, neg): (Vec<_>, Vec<_>) = sample.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let pos: Vec<(Pattern2, Pattern2)> = pos.iter().map(|(_, s)| (pattern(s), tail(s))).collect();
    let negs: Vec<Pattern2> = neg.iter().map(|(_, s)| pattern(s)).collect();
    let nsups: Vec<Pattern2> = neg.iter().map(|(_, s)| tail(s)).collect();
    let sizes: Vec<f64> = sample.iter().map(|s| s.len() as f64).collect();
    let max = crate::measure::median(&sizes) as u32;
    let tier = detect_tier();
    let block = block_pairs(std::mem::size_of::<Pattern2>());
    let (mut bounds, mut hits) = (Vec::new(), Vec::new());
    let _span = efm_obs::span("prefilter_hits");
    let mut pairs = 0u64;
    let start = Instant::now();
    for _ in 0..512 {
        for (pat, sup) in &pos {
            hits.clear();
            for base in (0..negs.len()).step_by(block) {
                let end = (base + block).min(negs.len());
                prefilter_hits(
                    tier,
                    pat,
                    sup,
                    &negs[base..end],
                    &nsups[base..end],
                    max,
                    base as u32,
                    &mut bounds,
                    &mut hits,
                );
            }
            std::hint::black_box(&hits);
            pairs += negs.len() as u64;
        }
    }
    ratio(pairs as f64 / 1e6, start.elapsed().as_secs_f64())
}
