//! `efm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one metric per line with its unit, then, as the last line, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits non-zero if any solve fails or is wrong.

use efm_perfbench::input::{self, Net};
use efm_perfbench::layers::{self, LayerValues};
use efm_perfbench::measure::{max_rss_bytes, median};
use efm_perfbench::report::{Report, END_TO_END, PER_LAYER};
use efm_perfbench::workload::{self, Counters, Setup, Solve, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions before the first solve. One more runs before every
/// timed solve, so the reported median spans the whole run.
const SETUP_REPS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds: Duration::from_secs(seconds), trace })
}

/// Counts solves and failures, and checks that the deterministic counters
/// repeat between the timed solves of one input.
struct Tally {
    report: Report,
    counters: Option<Counters>,
}

impl Tally {
    fn record(&mut self, result: Result<Solve, String>, compare_counters: bool) -> Option<Solve> {
        self.report.attempted += 1;
        let checked = result.and_then(|s| {
            if compare_counters {
                let c = Counters::of(&s.outcome.stats);
                match &self.counters {
                    Some(first) if *first != c => {
                        return Err(format!("counters changed: {first:?} then {c:?}"))
                    }
                    Some(_) => {}
                    None => self.counters = Some(c),
                }
            }
            Ok(s)
        });
        checked.map_err(|e| self.fail(&e)).ok()
    }

    /// Runs one set-up into `setups`; a failure counts as a failed attempt.
    fn setup(&mut self, w: Workload, text: &str, setups: &mut Vec<Setup>) -> bool {
        match workload::setup(w, text) {
            Ok(s) => setups.push(s),
            Err(e) => {
                self.report.attempted += 1;
                self.fail(&e);
            }
        }
        self.report.failed == 0
    }

    fn fail(&mut self, error: &str) {
        self.report.failed += 1;
        eprintln!("failed: {error}");
    }
}

/// One traced solve: set-up, solve and layer microbenchmarks with
/// `efm_obs` on, then the per-layer values read from it.
fn traced_session(
    w: Workload,
    text: &str,
    partition: &[String],
    tally: &mut Tally,
) -> Option<(Duration, LayerValues, efm_obs::Snapshot)> {
    efm_obs::reset();
    efm_obs::set_enabled(true);
    let setup = workload::setup(w, text);
    let solve = workload::solve(w.algorithm(), w.net(), text, partition);
    let micro = solve
        .as_ref()
        .ok()
        .map(|s| (layers::nullity_us(&s.outcome), layers::prefilter_mpairs_s(&s.outcome)));
    efm_obs::set_enabled(false);
    let snap = efm_obs::snapshot();
    let solve = tally.record(setup.and(solve), true)?;
    let (nullity, mpairs) = micro.expect("a successful solve was microbenchmarked");
    let nullity = nullity.map_err(|e| tally.fail(&e)).ok()?;
    let mut values = layers::from_outcome(&solve.outcome);
    values.extend(layers::from_trace(&snap));
    values.insert("linalg.nullity_us", nullity);
    values.insert("bitset.prefilter_mpairs_s", mpairs);
    Some((solve.wall, values, snap))
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

fn run(args: &Args) -> Report {
    let w = args.workload;
    let text = input::network_text(w.net(), args.seed);
    let mut tally = Tally { report: Report::default(), counters: None };
    let mut setups: Vec<Setup> = Vec::new();
    for _ in 0..SETUP_REPS {
        if !tally.setup(w, &text, &mut setups) {
            return tally.report;
        }
    }
    let partition = setups[0].partition.clone();
    // Untimed warm-up on Network I lite with the workload's algorithm: it
    // pays for the kernel-tier OnceLock, thread start-up and first page
    // faults. A Network II solve would take ~25 s for the same effect.
    let warm_text = input::network_text(Net::I, args.seed);
    tally.record(workload::solve(w.algorithm(), Net::I, &warm_text, &partition), false);

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut peaks = Vec::new();
    let mut traced_walls = Vec::new();
    let mut sessions: Vec<LayerValues> = Vec::new();
    let mut last_trace = None;
    let start = Instant::now();
    loop {
        let iteration = Instant::now();
        if !tally.setup(w, &text, &mut setups) {
            break;
        }
        let solve = workload::solve(w.algorithm(), w.net(), &text, &partition);
        if let Some(s) = tally.record(solve, true) {
            walls.push(s.wall);
            cpus.push(s.cpu);
            peaks.push(s.outcome.stats.peak_bytes as f64);
        }
        if args.trace {
            if let Some((wall, values, snap)) = traced_session(w, &text, &partition, &mut tally) {
                traced_walls.push(wall);
                sessions.push(values);
                last_trace = Some(snap);
            }
        }
        // Stop before an iteration that would end past the run time; a
        // run always makes at least one.
        if start.elapsed() + iteration.elapsed() > args.seconds || tally.report.failed > 0 {
            break;
        }
    }

    let wall = median(&secs(&walls));
    let metrics = &mut tally.report.metrics;
    if !args.trace {
        let setup_s: Vec<Duration> = setups.iter().map(|s| s.total).collect();
        for (name, _) in END_TO_END {
            let value = match name {
                "wall_s" => wall,
                "setup_s" => median(&secs(&setup_s)),
                "cpu_s" => median(&secs(&cpus)),
                "peak_bytes" => median(&peaks),
                "max_rss_bytes" => max_rss_bytes() as f64,
                _ => unreachable!("every end-to-end metric is handled"),
            };
            metrics.push((name, value));
        }
        return tally.report;
    }
    if let Some(snap) = &last_trace {
        export_trace(w, args.seed, snap);
    }
    let compress: Vec<Duration> = setups.iter().map(|s| s.compress).collect();
    let build: Vec<Duration> = setups.iter().map(|s| s.build).collect();
    for (name, _) in PER_LAYER {
        let value = match name {
            "metnet.compress_s" => median(&secs(&compress)),
            "metnet.reduced_reactions" => setups[0].reduced_reactions as f64,
            "problem.build_s" => median(&secs(&build)),
            "obs.trace_overhead_frac" => layers::ratio(median(&secs(&traced_walls)), wall) - 1.0,
            _ => {
                let per_session: Vec<f64> =
                    sessions.iter().filter_map(|v| v.get(name)).copied().collect();
                median(&per_session)
            }
        };
        metrics.push((name, value));
    }
    tally.report
}

/// Writes the last traced solve as a Chrome `trace_event` file under
/// `perfbench/out/` (open it in `chrome://tracing` or Perfetto).
fn export_trace(w: Workload, seed: u64, snap: &efm_obs::Snapshot) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.trace.json", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, efm_obs::export::chrome_trace(snap)));
    match written {
        Ok(()) => eprintln!("trace: {}", path.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: efm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    print!("{}", report.table());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
