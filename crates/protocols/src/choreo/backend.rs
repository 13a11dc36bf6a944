//! One choreography, three execution backends.
//!
//! A [`Choreography`] packages a [`GlobalProtocol`] description together
//! with a node factory; a [`Backend`] consumes a choreography plus a
//! [`RunJob`] and produces a [`BackendReport`]:
//!
//! * [`SimBackend`] — the in-simulator runner
//!   ([`rsbt_sim::runner::run_nodes_with`]), single seeded run;
//! * [`McBackend`] — protocol-level Monte-Carlo estimation: many
//!   independent seeded runs over per-sample
//!   [`StreamRng`] streams, fanned out over the
//!   deterministic thread pool, summarized with Wilson intervals. The
//!   estimate is invariant under the thread count;
//! * [`SocketBackend`] — real processes: each node is its own OS process
//!   (or thread, for in-process smoke tests), talking to a coordinator
//!   over loopback TCP with the [`crate::choreo`] wire format. The
//!   coordinator draws bits from the same seeded RNG as [`SimBackend`],
//!   so both backends agree run-for-run on the same seed.

use std::fmt;
use std::io;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rand::rngs::{StdRng, StreamRng};
use rand::SeedableRng;
use rsbt_core::probability::wilson_interval;
use rsbt_random::Assignment;
use rsbt_sim::net::{run_coordinator, run_coordinator_ft, run_node, FtConfig, NetError, Wire};
use rsbt_sim::pool::map_sample_chunks;
use rsbt_sim::runner::{run_nodes_with, Protocol, RunOutcome, RunStats};
use rsbt_sim::Model;

use super::global::{GlobalProtocol, Projection, ProjectionError};

/// A global protocol description bundled with its node factory: everything
/// a backend needs to execute the protocol.
pub trait Choreography {
    /// The projected per-node machine (usually a
    /// [`BoardMachine`](super::machine::BoardMachine) or
    /// [`PortMachine`](super::machine::PortMachine)).
    type Node: Protocol;

    /// Protocol name, as reported in benchmark rows.
    fn name(&self) -> &'static str;

    /// The global description. Backends project it before building nodes.
    fn global(&self) -> GlobalProtocol;

    /// Builds node `index` from the validated projection. Within a role,
    /// nodes must run identical code (anonymity); distinct roles (e.g.
    /// matching's side A/B) may differ.
    fn node(&self, index: usize, model: &Model, projection: &Projection) -> Self::Node;
}

/// Message type of a choreography's nodes.
pub type NodeMsg<C> = <<C as Choreography>::Node as Protocol>::Msg;
/// Output type of a choreography's nodes.
pub type NodeOutput<C> = <<C as Choreography>::Node as Protocol>::Output;

/// One execution request, common to all backends.
#[derive(Clone, Copy, Debug)]
pub struct RunJob<'a> {
    /// The concrete communication model.
    pub model: &'a Model,
    /// The randomness assignment.
    pub alpha: &'a Assignment,
    /// Round cap.
    pub max_rounds: usize,
    /// Seed: single-run backends seed one [`StdRng`], the Monte-Carlo
    /// backend derives one [`StreamRng`] stream per sample.
    pub seed: u64,
}

/// Monte-Carlo summary of many protocol runs.
#[derive(Clone, Debug)]
pub struct ProtocolEstimate {
    /// Samples drawn.
    pub samples: u64,
    /// Runs in which every node decided within the round cap.
    pub successes: u64,
    /// Point estimate `successes / samples`.
    pub p: f64,
    /// Wilson 95% lower bound on the completion probability.
    pub ci_lo: f64,
    /// Wilson 95% upper bound.
    pub ci_hi: f64,
    /// `completed_by_round[r - 1]` counts runs that completed in `≤ r`
    /// rounds (cumulative).
    pub completed_by_round: Vec<u64>,
    /// Mean rounds over *completed* runs (`NaN` when none completed).
    pub mean_rounds: f64,
    /// Total blackboard posts across all runs.
    pub total_posts: u64,
    /// Total point-to-point deliveries across all runs.
    pub total_sends: u64,
    /// Largest message observed in any run, in bytes.
    pub max_msg_bytes: usize,
}

impl ProtocolEstimate {
    /// Cumulative completion-probability estimates per round,
    /// `series()[r - 1] = P(all nodes decided within r rounds)`.
    pub fn series(&self) -> Vec<f64> {
        self.completed_by_round
            .iter()
            .map(|&c| c as f64 / self.samples as f64)
            .collect()
    }

    /// Wilson 95% interval on the round-`r` cumulative completion
    /// probability (1-based `r`).
    pub fn round_interval(&self, r: usize) -> (f64, f64) {
        wilson_interval(self.completed_by_round[r - 1], self.samples, 1.96)
    }
}

/// What a backend produced: a single run or a Monte-Carlo estimate.
#[derive(Clone, Debug)]
pub enum BackendReport<O> {
    /// A single executed run (simulator and socket backends).
    Run(RunOutcome<O>),
    /// A Monte-Carlo summary (estimator backend).
    Estimate(ProtocolEstimate),
}

impl<O> BackendReport<O> {
    /// The single-run outcome.
    ///
    /// # Panics
    ///
    /// Panics on an [`BackendReport::Estimate`] report.
    pub fn into_run(self) -> RunOutcome<O> {
        match self {
            BackendReport::Run(r) => r,
            BackendReport::Estimate(_) => panic!("expected a single run, got an estimate"),
        }
    }

    /// The Monte-Carlo estimate.
    ///
    /// # Panics
    ///
    /// Panics on a [`BackendReport::Run`] report.
    pub fn into_estimate(self) -> ProtocolEstimate {
        match self {
            BackendReport::Estimate(e) => e,
            BackendReport::Run(_) => panic!("expected an estimate, got a single run"),
        }
    }
}

/// Why a backend failed to execute a choreography.
#[derive(Debug)]
pub enum BackendError {
    /// The global protocol failed validation or projection.
    Projection(ProjectionError),
    /// The socket backend hit a wire or timeout failure.
    Net(NetError),
    /// A worker process could not be spawned.
    Spawn(io::Error),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Projection(e) => write!(f, "projection failed: {e}"),
            BackendError::Net(e) => write!(f, "socket backend failed: {e}"),
            BackendError::Spawn(e) => write!(f, "could not spawn worker: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<ProjectionError> for BackendError {
    fn from(e: ProjectionError) -> Self {
        BackendError::Projection(e)
    }
}

impl From<NetError> for BackendError {
    fn from(e: NetError) -> Self {
        BackendError::Net(e)
    }
}

/// An execution backend for choreographies.
///
/// The bounds on `run` are the union of what the three backends need
/// (`Send` for the Monte-Carlo fan-out and thread-per-node sockets,
/// [`Wire`] for the socket wire format); all protocol types in this crate
/// satisfy them.
pub trait Backend {
    /// Executes `choreo` per `job`.
    ///
    /// # Errors
    ///
    /// [`BackendError::Projection`] when the global description is
    /// invalid for the job's model/size; socket backends also report
    /// [`BackendError::Net`] and [`BackendError::Spawn`].
    fn run<C>(
        &self,
        choreo: &C,
        job: &RunJob<'_>,
    ) -> Result<BackendReport<NodeOutput<C>>, BackendError>
    where
        C: Choreography + Sync,
        C::Node: Send,
        NodeMsg<C>: Wire + Send,
        NodeOutput<C>: Wire + Send;
}

/// Backend 1: the in-simulator lockstep runner. One seeded run.
#[derive(Clone, Copy, Default, Debug)]
pub struct SimBackend;

impl SimBackend {
    /// Projects and runs once, returning the raw outcome (same as
    /// [`Backend::run`] but without the report wrapper — handy in tests).
    ///
    /// # Errors
    ///
    /// [`ProjectionError`] when the description is invalid for the job.
    pub fn run_once<C: Choreography>(
        &self,
        choreo: &C,
        job: &RunJob<'_>,
    ) -> Result<RunOutcome<NodeOutput<C>>, ProjectionError> {
        let projection = choreo.global().project(job.model, job.alpha.n())?;
        let nodes: Vec<C::Node> = (0..job.alpha.n())
            .map(|i| choreo.node(i, job.model, &projection))
            .collect();
        let mut rng = StdRng::seed_from_u64(job.seed);
        Ok(run_nodes_with(
            job.model,
            job.alpha,
            job.max_rounds,
            nodes,
            &mut rng,
            projection.options(),
        ))
    }
}

impl Backend for SimBackend {
    fn run<C>(
        &self,
        choreo: &C,
        job: &RunJob<'_>,
    ) -> Result<BackendReport<NodeOutput<C>>, BackendError>
    where
        C: Choreography + Sync,
        C::Node: Send,
        NodeMsg<C>: Wire + Send,
        NodeOutput<C>: Wire + Send,
    {
        Ok(BackendReport::Run(self.run_once(choreo, job)?))
    }
}

/// Per-chunk accumulator for the Monte-Carlo backend; merged in chunk
/// order so the totals are independent of the thread count.
#[derive(Clone, Default)]
struct McChunk {
    successes: u64,
    completed_by_round: Vec<u64>,
    sum_rounds: u64,
    stats: RunStats,
}

/// Backend 2: protocol-level Monte-Carlo estimation.
///
/// Sample `i` runs the whole protocol under
/// `StreamRng::new(job.seed, i)` — every sample owns a dedicated RNG
/// stream, so the estimate depends only on `(seed, samples)`, never on
/// `threads` (the PR 5 discipline, applied to protocol executions instead
/// of knowledge simulations).
#[derive(Clone, Copy, Debug)]
pub struct McBackend {
    /// Samples to draw.
    pub samples: u64,
    /// Worker threads for the fan-out.
    pub threads: usize,
}

impl McBackend {
    /// Projects once and estimates, returning the raw estimate.
    ///
    /// # Errors
    ///
    /// [`ProjectionError`] when the description is invalid for the job.
    ///
    /// # Panics
    ///
    /// Panics when `samples == 0`.
    pub fn estimate<C>(
        &self,
        choreo: &C,
        job: &RunJob<'_>,
    ) -> Result<ProtocolEstimate, ProjectionError>
    where
        C: Choreography + Sync,
    {
        assert!(self.samples > 0, "need at least one sample");
        let projection = choreo.global().project(job.model, job.alpha.n())?;
        let options = projection.options();
        let chunks = map_sample_chunks(
            self.samples as usize,
            self.threads,
            |_arena, range| -> McChunk {
                let mut acc = McChunk {
                    completed_by_round: vec![0; job.max_rounds],
                    ..McChunk::default()
                };
                for i in range {
                    let nodes: Vec<C::Node> = (0..job.alpha.n())
                        .map(|idx| choreo.node(idx, job.model, &projection))
                        .collect();
                    let mut rng = StreamRng::new(job.seed, i as u64);
                    let out = run_nodes_with(
                        job.model,
                        job.alpha,
                        job.max_rounds,
                        nodes,
                        &mut rng,
                        options,
                    );
                    if out.completed {
                        acc.successes += 1;
                        acc.sum_rounds += out.rounds as u64;
                        for slot in &mut acc.completed_by_round[out.rounds - 1..] {
                            *slot += 1;
                        }
                    }
                    acc.stats.posts += out.stats.posts;
                    acc.stats.sends += out.stats.sends;
                    acc.stats.crashes += out.stats.crashes;
                    acc.stats.omissions += out.stats.omissions;
                    acc.stats.max_msg_bytes = acc.stats.max_msg_bytes.max(out.stats.max_msg_bytes);
                }
                acc
            },
        );
        let mut successes = 0;
        let mut sum_rounds = 0;
        let mut completed_by_round = vec![0u64; job.max_rounds];
        let mut stats = RunStats::default();
        for chunk in chunks {
            successes += chunk.successes;
            sum_rounds += chunk.sum_rounds;
            if !chunk.completed_by_round.is_empty() {
                for (total, c) in completed_by_round.iter_mut().zip(&chunk.completed_by_round) {
                    *total += c;
                }
            }
            stats.posts += chunk.stats.posts;
            stats.sends += chunk.stats.sends;
            stats.crashes += chunk.stats.crashes;
            stats.omissions += chunk.stats.omissions;
            stats.max_msg_bytes = stats.max_msg_bytes.max(chunk.stats.max_msg_bytes);
        }
        let (ci_lo, ci_hi) = wilson_interval(successes, self.samples, 1.96);
        Ok(ProtocolEstimate {
            samples: self.samples,
            successes,
            p: successes as f64 / self.samples as f64,
            ci_lo,
            ci_hi,
            completed_by_round,
            mean_rounds: sum_rounds as f64 / successes as f64,
            total_posts: stats.posts,
            total_sends: stats.sends,
            max_msg_bytes: stats.max_msg_bytes,
        })
    }
}

impl Backend for McBackend {
    fn run<C>(
        &self,
        choreo: &C,
        job: &RunJob<'_>,
    ) -> Result<BackendReport<NodeOutput<C>>, BackendError>
    where
        C: Choreography + Sync,
        C::Node: Send,
        NodeMsg<C>: Wire + Send,
        NodeOutput<C>: Wire + Send,
    {
        Ok(BackendReport::Estimate(self.estimate(choreo, job)?))
    }
}

/// Builds the command line for one spawned worker from `(index, addr)`.
pub type SpawnFn = Box<dyn Fn(usize, &str) -> Command + Send + Sync>;

/// How the socket backend obtains its worker peers.
pub enum Launcher {
    /// One thread per node inside this process — real sockets, real wire
    /// format, no process spawn (used by tests and CI smoke steps).
    InProcess,
    /// One OS process per node: the closure receives `(index, addr)` and
    /// returns the `Command` to spawn (typically the current binary in a
    /// worker mode). Workers are killed if the coordinator fails.
    Spawn(SpawnFn),
}

impl fmt::Debug for Launcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Launcher::InProcess => write!(f, "Launcher::InProcess"),
            Launcher::Spawn(_) => write!(f, "Launcher::Spawn(..)"),
        }
    }
}

/// A deterministic mid-run fault injection: kill worker `node`'s process
/// when the coordinator reaches round `round` (1-based, before that
/// round's messages are exchanged). Only meaningful with
/// [`Launcher::Spawn`] — in-process workers share our address space and
/// cannot be killed without taking the coordinator down.
#[derive(Clone, Copy, Debug)]
pub struct KillPlan {
    /// Worker index to kill.
    pub node: usize,
    /// 1-based round at whose barrier the kill fires.
    pub round: usize,
}

/// Backend 3: real multi-process execution over loopback TCP.
///
/// The coordinator (this process) draws bits from
/// `StdRng::seed_from_u64(job.seed)` exactly as [`SimBackend`] does, so
/// the two backends agree on outputs, rounds, and — when
/// [`Protocol::msg_bytes`] is the wire length — on byte counters, for the
/// same job.
///
/// Spawned workers run under the fault-tolerant coordinator
/// ([`run_coordinator_ft`]): a worker that dies mid-run is declared
/// crashed after a bounded retry/backoff and the run degrades to a
/// partial [`RunOutcome`] (`None` output, `crashed` flag) instead of
/// failing. With every worker alive the fault-tolerant path draws the
/// same RNG stream as the strict one, so no-fault runs stay bit-identical
/// to [`SimBackend`].
#[derive(Debug)]
pub struct SocketBackend {
    /// Per-read deadline (handshake and round barriers).
    pub timeout: Duration,
    /// Worker strategy.
    pub launcher: Launcher,
    /// Optional deterministic mid-run kill (spawn launcher only).
    pub kill: Option<KillPlan>,
}

impl SocketBackend {
    /// An in-process (thread-per-node) socket backend with the given
    /// per-read timeout.
    pub fn in_process(timeout: Duration) -> Self {
        SocketBackend {
            timeout,
            launcher: Launcher::InProcess,
            kill: None,
        }
    }

    /// A process-per-node socket backend; `spawn(index, addr)` builds
    /// each worker's command line.
    pub fn spawning(
        timeout: Duration,
        spawn: impl Fn(usize, &str) -> Command + Send + Sync + 'static,
    ) -> Self {
        SocketBackend {
            timeout,
            launcher: Launcher::Spawn(Box::new(spawn)),
            kill: None,
        }
    }

    /// Kills worker `node` when the coordinator reaches round `round`
    /// (1-based). Requires [`Launcher::Spawn`]; the in-process launcher
    /// panics on a kill plan.
    #[must_use]
    pub fn with_kill(mut self, node: usize, round: usize) -> Self {
        self.kill = Some(KillPlan { node, round });
        self
    }

    fn run_inner<C>(
        &self,
        choreo: &C,
        job: &RunJob<'_>,
    ) -> Result<RunOutcome<NodeOutput<C>>, BackendError>
    where
        C: Choreography + Sync,
        C::Node: Send,
        NodeMsg<C>: Wire + Send,
        NodeOutput<C>: Wire + Send,
    {
        let projection = choreo.global().project(job.model, job.alpha.n())?;
        let options = projection.options();
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(NetError::Io)?;
        let addr = listener.local_addr().map_err(NetError::Io)?;
        let n = job.alpha.n();
        let timeout = Some(self.timeout);
        let mut rng = StdRng::seed_from_u64(job.seed);

        match &self.launcher {
            Launcher::InProcess => {
                assert!(
                    self.kill.is_none(),
                    "kill plans require the Spawn launcher: in-process workers \
                     share the coordinator's address space"
                );
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..n)
                        .map(|i| {
                            let node = choreo.node(i, job.model, &projection);
                            scope.spawn(move || run_node(addr, i, node, timeout))
                        })
                        .collect();
                    let result = run_coordinator::<NodeMsg<C>, NodeOutput<C>, _>(
                        &listener,
                        job.model,
                        job.alpha,
                        job.max_rounds,
                        &mut rng,
                        options,
                        timeout,
                    );
                    for handle in handles {
                        let _ = handle.join();
                    }
                    result.map_err(BackendError::Net)
                })
            }
            Launcher::Spawn(spawn) => {
                let addr_str = addr.to_string();
                let mut children: Vec<Child> = Vec::with_capacity(n);
                for i in 0..n {
                    let child = spawn(i, &addr_str)
                        .stdin(Stdio::null())
                        .spawn()
                        .map_err(BackendError::Spawn);
                    match child {
                        Ok(c) => children.push(c),
                        Err(e) => {
                            for mut c in children {
                                let _ = c.kill();
                                let _ = c.wait();
                            }
                            return Err(e);
                        }
                    }
                }
                let ft = FtConfig::with_timeout(self.timeout);
                let kill = self.kill;
                let result = run_coordinator_ft::<NodeMsg<C>, NodeOutput<C>, _, _>(
                    &listener,
                    job.model,
                    job.alpha,
                    job.max_rounds,
                    &mut rng,
                    options,
                    &ft,
                    |round| {
                        if let Some(plan) = kill {
                            if round == plan.round {
                                if let Some(child) = children.get_mut(plan.node) {
                                    let _ = child.kill();
                                }
                            }
                        }
                    },
                );
                for mut child in children {
                    if result.is_err() {
                        let _ = child.kill();
                    }
                    let _ = child.wait();
                }
                result.map_err(BackendError::Net)
            }
        }
    }
}

impl Backend for SocketBackend {
    fn run<C>(
        &self,
        choreo: &C,
        job: &RunJob<'_>,
    ) -> Result<BackendReport<NodeOutput<C>>, BackendError>
    where
        C: Choreography + Sync,
        C::Node: Send,
        NodeMsg<C>: Wire + Send,
        NodeOutput<C>: Wire + Send,
    {
        Ok(BackendReport::Run(self.run_inner(choreo, job)?))
    }
}
