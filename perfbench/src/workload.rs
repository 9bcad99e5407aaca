//! The benchmark's workloads: what each one sets up, and one solve of it.
//!
//! A solve goes from the network text to the canonical EFM set through the
//! public entry points a user calls, and is checked against the reference
//! set before it counts.

use crate::input::{self, Net};
use crate::measure::process_cpu_time;
use efm_core::{Backend, DncConfig, DncSchedule, EfmOptions, EfmOutcome, RunStats};
use efm_numeric::DynInt;
use std::time::{Duration, Instant};

/// Ranks of the simulated cluster on `net2-cluster2`.
pub const CLUSTER_RANKS: usize = 2;
/// Partition reactions on `net1-dnc8` (2^3 = 8 subsets).
pub const DNC_QSUB: usize = 3;
/// Subset workers on `net1-dnc8`. One, not two: on a 2-vCPU guest whose
/// host time-slices the vCPUs, two workers overlap only some of the time,
/// so the wall time of one solve flipped between ~0.37 s and ~0.48 s at
/// the same CPU time; and with two workers the rank-test and dedup counts
/// vary between solves (67,585–68,653 rank tests), while with one they
/// repeat. One worker still runs the `steal` schedule's probe, cost model
/// and worker loop.
pub const DNC_WORKERS: usize = 1;

/// One benchmark workload. See the README for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Network I lite, Algorithm 1, default options.
    Net1Serial,
    /// Network II lite, Algorithm 2 on [`CLUSTER_RANKS`] simulated ranks.
    Net2Cluster2,
    /// Network I lite, Algorithm 3 over [`DNC_QSUB`] partition reactions,
    /// `steal` schedule with [`DNC_WORKERS`] workers, serial per subset.
    Net1Dnc8,
}

/// How a solve runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `efm_core::enumerate`.
    Serial,
    /// `efm_core::enumerate_with` on the cluster backend.
    Cluster,
    /// `efm_core::enumerate_divide_conquer_scheduled`.
    DivideConquer,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::Net1Serial, Workload::Net2Cluster2, Workload::Net1Dnc8];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Net1Serial => "net1-serial",
            Workload::Net2Cluster2 => "net2-cluster2",
            Workload::Net1Dnc8 => "net1-dnc8",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The network the workload solves.
    pub fn net(self) -> Net {
        match self {
            Workload::Net2Cluster2 => Net::II,
            Workload::Net1Serial | Workload::Net1Dnc8 => Net::I,
        }
    }

    /// The algorithm the workload runs.
    pub fn algorithm(self) -> Algorithm {
        match self {
            Workload::Net1Serial => Algorithm::Serial,
            Workload::Net2Cluster2 => Algorithm::Cluster,
            Workload::Net1Dnc8 => Algorithm::DivideConquer,
        }
    }
}

/// What setting a workload up costs, from network text to a built problem.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Parse + compress + build (+ partition resolution on `net1-dnc8`).
    pub total: Duration,
    /// `efm_metnet::compress_with`.
    pub compress: Duration,
    /// `efm_core::build_problem`.
    pub build: Duration,
    /// Reactions left after compression.
    pub reduced_reactions: usize,
    /// Partition reaction names (`net1-dnc8` only, empty otherwise).
    pub partition: Vec<String>,
}

/// Sets `w` up from `text`, recording a span around each public call.
pub fn setup(w: Workload, text: &str) -> Result<Setup, String> {
    let opts = EfmOptions::default();
    let start = Instant::now();
    let net = {
        let _span = efm_obs::span("parse_network");
        efm_metnet::parse_network(text).map_err(|e| format!("parse: {e}"))?
    };
    let t = Instant::now();
    let (red, _) = {
        let _span = efm_obs::span("compress_with");
        efm_metnet::compress_with(&net, &opts.compression)
    };
    let compress = t.elapsed();
    let t = Instant::now();
    {
        let _span = efm_obs::span("build_problem");
        efm_core::build_problem::<DynInt>(&red, &opts).map_err(|e| format!("build: {e}"))?;
    }
    let build = t.elapsed();
    let partition = if w.algorithm() == Algorithm::DivideConquer {
        let _span = efm_obs::span("pick_partition");
        // Re-picked from every generated input, so no seed can leave a
        // partition reaction non-pivotal.
        let suggested = efm_core::suggest_partition(&net, &red, DNC_QSUB);
        let preferred: Vec<&str> = suggested.iter().map(String::as_str).collect();
        let picked = efm_bench::pick_partition(&net, &red, &preferred, DNC_QSUB);
        let names: Vec<&str> = picked.iter().map(String::as_str).collect();
        if picked.len() != DNC_QSUB {
            return Err(format!("only {} usable partition reactions: {picked:?}", picked.len()));
        }
        efm_core::resolve_partition(&net, &red, &names).map_err(|e| format!("partition: {e}"))?;
        picked
    } else {
        Vec::new()
    };
    Ok(Setup {
        total: start.elapsed(),
        compress,
        build,
        reduced_reactions: red.num_reduced(),
        partition,
    })
}

/// One checked solve.
#[derive(Debug)]
pub struct Solve {
    /// Wall time from network text to the canonical EFM set.
    pub wall: Duration,
    /// Process CPU time over the same interval, all threads.
    pub cpu: Duration,
    /// What the program returned.
    pub outcome: EfmOutcome,
}

/// Solves `net`'s `text` with `algorithm` and checks the EFM set.
pub fn solve(
    algorithm: Algorithm,
    net: Net,
    text: &str,
    partition: &[String],
) -> Result<Solve, String> {
    let opts = EfmOptions::default();
    let cpu0 = process_cpu_time();
    let start = Instant::now();
    let network = {
        let _span = efm_obs::span("parse_network");
        efm_metnet::parse_network(text).map_err(|e| format!("parse: {e}"))?
    };
    let outcome = {
        let _span = efm_obs::span("enumerate");
        match algorithm {
            Algorithm::Serial => efm_core::enumerate(&network, &opts),
            Algorithm::Cluster => {
                let cluster = efm_cluster::ClusterConfig::new(CLUSTER_RANKS);
                efm_core::enumerate_with(&network, &opts, &Backend::Cluster(cluster))
            }
            Algorithm::DivideConquer => {
                let names: Vec<&str> = partition.iter().map(String::as_str).collect();
                let dnc = DncConfig {
                    schedule: DncSchedule::Steal,
                    workers: DNC_WORKERS,
                    ..Default::default()
                };
                efm_core::enumerate_divide_conquer_scheduled(
                    &network,
                    &opts,
                    &names,
                    &Backend::Serial,
                    &dnc,
                )
            }
        }
        .map_err(|e| format!("enumerate: {e}"))?
    };
    let wall = start.elapsed();
    let cpu = process_cpu_time().saturating_sub(cpu0);
    input::check(net, &outcome.efms)?;
    Ok(Solve { wall, cpu, outcome })
}

/// The counters that repeat exactly between solves of one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Candidate pairs generated.
    pub pairs: u64,
    /// Elementarity (rank) tests run.
    pub rank_tests: u64,
    /// Pairs the vectorized prefilter bound rejected.
    pub kernel_pruned: u64,
    /// Bytes exchanged between cluster ranks.
    pub comm_bytes: u64,
    /// Peak intermediate modes.
    pub peak_modes: usize,
    /// Peak accounted bytes.
    pub peak_bytes: u64,
}

impl Counters {
    /// The counters of one solve.
    pub fn of(stats: &RunStats) -> Counters {
        Counters {
            pairs: stats.candidates_generated,
            rank_tests: stats.rank_tests,
            kernel_pruned: stats.kernel_pruned,
            comm_bytes: stats.comm_bytes,
            peak_modes: stats.peak_modes,
            peak_bytes: stats.peak_bytes,
        }
    }
}
