//! The high-level gradient-synchronization entry point.
//!
//! [`HiPress`] is a builder over the whole stack: pick a strategy and
//! a compression algorithm, hand it one gradient set per worker, and
//! it builds the CaSync task graph and executes it — on the reference
//! interpreter ([`Backend::Simulator`]), for real on OS threads
//! ([`Backend::Threads`]), or as separate OS processes synchronizing
//! over a loopback TCP mesh ([`Backend::Processes`]). All backends
//! install bit-identical parameters; the real backends additionally
//! return a measured [`RuntimeReport`].

use hipress_chaos::FaultPlan;
use hipress_compress::Algorithm;
use hipress_core::interp::{gradient_flows, interpret, FlowOutcome};
use hipress_core::Strategy;
use hipress_metrics::Scope;
use hipress_obs::Telemetry;
use hipress_runtime::process::{build_graph, validate_grads};
use hipress_runtime::{
    FaultTolerance, Instruments, PipelineConfig, ProcessConfig, ReplicaFlows, RunOptions,
    RunOutcome, RuntimeReport,
};
use hipress_tensor::Tensor;
use hipress_trace::Tracer;
use hipress_util::{Error, Result};

pub use hipress_runtime::Backend;

/// The result of one synchronization round.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Synchronized per-flow, per-node tensors.
    pub flows: Vec<FlowOutcome>,
    /// Wall-clock measurements — present only for
    /// [`Backend::Threads`]; the simulator has no wall clock worth
    /// reporting.
    pub report: Option<RuntimeReport>,
}

impl SyncOutcome {
    /// True when every flow's replicas are byte-identical.
    pub fn replicas_consistent(&self) -> bool {
        self.flows.iter().all(FlowOutcome::replicas_consistent)
    }
}

/// Builder for compression-aware gradient synchronization.
///
/// ```
/// use hipress::prelude::*;
/// use hipress::tensor::synth::{generate, GradientShape};
///
/// let grads: Vec<Vec<_>> = (0..3)
///     .map(|w| vec![generate(4096, GradientShape::Gaussian { std_dev: 1.0 }, w)])
///     .collect();
/// let out = HiPress::new(Strategy::CaSyncRing)
///     .algorithm(Algorithm::OneBit)
///     .backend(Backend::Threads(3))
///     .sync(&grads)
///     .unwrap();
/// assert!(out.replicas_consistent());
/// assert!(out.report.unwrap().compression_savings() > 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct HiPress {
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    seed: u64,
    backend: Backend,
    tracer: Option<Tracer>,
    metrics: Option<Scope>,
    telemetry: Option<Telemetry>,
    chaos: Option<FaultPlan>,
    fault_tolerance: Option<FaultTolerance>,
    iterations: u32,
    window: u32,
    process: ProcessConfig,
}

impl HiPress {
    /// Starts a builder for the given synchronization strategy.
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            algorithm: Algorithm::None,
            partitions: 1,
            seed: 0,
            backend: Backend::Simulator,
            tracer: None,
            metrics: None,
            telemetry: None,
            chaos: None,
            fault_tolerance: None,
            iterations: 1,
            window: 1,
            process: ProcessConfig::default(),
        }
    }

    /// Sets the compression algorithm ([`Algorithm::None`] runs the
    /// strategy uncompressed).
    #[must_use]
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Splits each gradient into `k` chunks synchronized as parallel
    /// flows (§3.3 partitioning).
    #[must_use]
    pub fn partitions(mut self, k: usize) -> Self {
        self.partitions = k.max(1);
        self
    }

    /// Seeds the stochastic codecs (TernGrad, DGC sampling).
    #[must_use]
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Selects the execution backend.
    #[must_use]
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Records the synchronization into `tracer` (a cheap clone of
    /// the handle is stored; tracing stays opt-in and the untraced
    /// hot path allocation-free). Both real backends record: they add
    /// per-node task spans, queue-depth counter tracks, and fabric
    /// events, and their [`SyncOutcome::report`] can be re-derived
    /// from the trace via [`RuntimeReport::from_trace`]. On
    /// [`Backend::Processes`] each worker traces against its own
    /// clock and the coordinator stitches the timelines together,
    /// shifting every rank by the clock offset it measured during
    /// rendezvous (recorded on the trace's `clock` track). The
    /// reference interpreter behind [`Backend::Simulator`] is
    /// untimed, so it leaves the tracer untouched — simulated
    /// timelines come from the discrete-event executor
    /// (`hipress sim --trace`, `Executor::run_traced`).
    #[must_use]
    pub fn trace(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Records live metrics into `scope` (a cheap clone of the handle
    /// is stored; recording stays opt-in and the uninstrumented hot
    /// path untouched). Like tracing, both real backends measure —
    /// [`Backend::Processes`] workers snapshot their own registries
    /// and the coordinator folds them into this scope, per-rank
    /// labels intact. Every metric the run records carries
    /// `algorithm` and `strategy` labels derived from this builder on
    /// top of the scope's own labels, so one registry can absorb a
    /// whole experiment matrix (e.g. scopes labelled per model) and
    /// still keep the runs apart. Snapshot the scope's registry
    /// afterwards with
    /// [`Registry::snapshot`][hipress_metrics::Registry::snapshot].
    #[must_use]
    pub fn metrics(mut self, scope: &Scope) -> Self {
        self.metrics = Some(scope.clone());
        self
    }

    /// Publishes live per-iteration telemetry into `hub` (a cheap
    /// clone of the handle is stored). On the real backends every
    /// retired iteration — a single-iteration run retires exactly
    /// one — lands one
    /// [`IterRecord`][hipress_obs::IterRecord] in the hub's ring,
    /// beats the rank's heartbeat, and runs the SLO watchdog — the
    /// embedded telemetry server (`hipress::obs::Server`) exposes all
    /// of it over HTTP while the run is still in flight. On
    /// [`Backend::Processes`] workers stream records back over the
    /// control channel and the coordinator republishes them under its
    /// own clock. Runs over the fault-tolerant frame link
    /// ([`Self::chaos`] / [`Self::fault_tolerance`]) publish the same
    /// records; the simulator retires no iterations and publishes
    /// nothing.
    ///
    /// The hub's `/metrics` endpoint serves the hub's own registry,
    /// which this attachment feeds only watchdog counters
    /// (`alerts_total{kind}`); to serve the engine's counters from
    /// the same scrape, also attach
    /// [`metrics`][Self::metrics]`(&hub.registry().root())` — the
    /// CLI's `--listen` does exactly that.
    #[must_use]
    pub fn telemetry(mut self, hub: &Telemetry) -> Self {
        self.telemetry = Some(hub.clone());
        self
    }

    /// Runs the synchronization over a fault-injecting fabric
    /// ([`hipress_chaos`]): every inter-node message is subject to
    /// the plan's deterministic drop/duplicate/reorder/delay/corrupt
    /// verdicts, and per-node stall/crash triggers apply. Setting a
    /// plan switches [`Backend::Threads`] onto the fault-tolerant
    /// frame protocol (as does [`Self::fault_tolerance`]);
    /// recoverable plans still install bit-identical parameters.
    /// The run is otherwise the same: [`Self::iterations`] and
    /// [`Self::pipeline_window`] apply, except that the
    /// `DegradePolicy::Partial` straggler policy degrades a single
    /// iteration. Only the thread backend has a fabric to break —
    /// combining a plan with [`Backend::Simulator`] is a config
    /// error.
    #[must_use]
    pub fn chaos(mut self, plan: &FaultPlan) -> Self {
        self.chaos = Some(plan.clone());
        self
    }

    /// Tunes the fault-tolerant protocol (timeouts, retry budget,
    /// backoff, straggler policy) and switches [`Backend::Threads`]
    /// onto the frame path even without a fault plan — useful for
    /// measuring the protocol's overhead or surviving a genuinely
    /// unreliable environment.
    #[must_use]
    pub fn fault_tolerance(mut self, ft: FaultTolerance) -> Self {
        self.fault_tolerance = Some(ft);
        self
    }

    /// Runs this many training iterations back to back over the same
    /// gradients. With [`Self::pipeline_window`] above 1 the real
    /// backends overlap adjacent iterations; results stay bit-for-bit
    /// identical to running them one at a time (per-task codec
    /// seeding), so the reported flows are always the final
    /// iteration's.
    #[must_use]
    pub fn iterations(mut self, n: u32) -> Self {
        self.iterations = n;
        self
    }

    /// Bounds how many iterations may be in flight at once on the
    /// pipelined path (§3.2 pipelining across iterations). `1` runs
    /// iterations serially.
    #[must_use]
    pub fn pipeline_window(mut self, w: u32) -> Self {
        self.window = w;
        self
    }

    /// Tunes how [`Backend::Processes`] launches its workers: which
    /// binary to execute (defaults to the current executable),
    /// rendezvous/run deadlines, and the scripted rank crashes and
    /// rejoins of `ProcessConfig::membership` (with
    /// `ProcessConfig::elastic` picking fail-on-loss or
    /// evict-on-loss).
    #[must_use]
    pub fn process_config(mut self, p: ProcessConfig) -> Self {
        self.process = p;
        self
    }

    /// Synchronizes one gradient set per worker: `worker_grads[w][g]`
    /// is worker `w`'s gradient `g`. All workers must hold the same
    /// gradient shapes.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches, a node count that does
    /// not match [`Backend::Threads`], or protocol failures from the
    /// chosen backend.
    pub fn sync(&self, worker_grads: &[Vec<Tensor>]) -> Result<SyncOutcome> {
        // Make the static analyzers load-bearing: debug builds verify
        // every graph built/interpreted below (no-op in release).
        hipress_lint::install();
        validate_grads(worker_grads)?;
        let nodes = worker_grads.len();
        if self.iterations == 0 || self.window == 0 {
            return Err(Error::config(format!(
                "pipeline needs at least 1 iteration and a window of at least 1 \
                 (got iterations {}, window {})",
                self.iterations, self.window
            )));
        }
        match self.backend {
            Backend::Threads(n) if n != nodes => {
                return Err(Error::config(format!(
                    "Backend::Threads({n}) but {nodes} workers supplied"
                )));
            }
            Backend::Processes(n) if n != nodes => {
                return Err(Error::config(format!(
                    "Backend::Processes({n}) but {nodes} workers supplied"
                )));
            }
            _ => {}
        }
        let pcfg = PipelineConfig {
            iterations: self.iterations,
            window: self.window,
        };
        let untrusted = self.chaos.is_some() || self.fault_tolerance.is_some();
        let compressor = self.algorithm.build();
        // The in-process backends execute the task graph over every
        // worker's flows. The process backend needs neither — its
        // workers rebuild the graph from the spec and each owns only
        // its own tensors — so both are built on demand.
        let graph_and_flows = || -> Result<_> {
            let grad_lens: Vec<u32> = worker_grads[0].iter().map(|t| t.len() as u32).collect();
            let graph = build_graph(
                self.strategy,
                self.algorithm,
                self.partitions,
                &grad_lens,
                nodes,
            )?;
            Ok((graph, gradient_flows(worker_grads)))
        };
        if self.backend == Backend::Simulator {
            if untrusted {
                return Err(Error::config(
                    "chaos/fault tolerance need a real fabric: use Backend::Threads",
                ));
            }
            if pcfg != PipelineConfig::default() {
                return Err(Error::config(
                    "pipelined iterations need a real runtime: use Backend::Threads or Backend::Processes",
                ));
            }
            let (graph, flows) = graph_and_flows()?;
            let outcomes = interpret(&graph, nodes, &flows, compressor.as_deref(), self.seed)?;
            return Ok(SyncOutcome {
                flows: outcomes,
                report: None,
            });
        }

        // Both real backends take the same observers.
        let scope = self.metrics.as_ref().map(|s| {
            s.with(&[
                ("algorithm", &self.algorithm.label()),
                ("strategy", self.strategy.label()),
            ])
        });
        let instruments = Instruments {
            tracer: self.tracer.as_ref(),
            metrics: scope.as_ref(),
            progress: self.telemetry.as_ref(),
        };
        let RunOutcome { flows, report } = if let Backend::Threads(_) = self.backend {
            let chaos = untrusted.then(|| {
                let plan = self.chaos.clone();
                let plan = plan.unwrap_or_else(|| FaultPlan::none(self.seed));
                (self.fault_tolerance.unwrap_or_default(), plan)
            });
            let (graph, flows) = graph_and_flows()?;
            // One replica per worker, moved into the runtime's shape.
            // The flows share the caller's tensors by refcount
            // (`Tensor` is copy-on-write); each node's split of its
            // inputs is this call's only copy of the gradients.
            let flows: ReplicaFlows = flows
                .into_iter()
                .map(|(f, per_node)| (f, per_node.into_iter().map(|t| vec![t]).collect()))
                .collect();
            hipress_runtime::run(
                &graph,
                nodes,
                &flows,
                compressor.as_deref(),
                self.seed,
                &RunOptions {
                    pipeline: pcfg,
                    instruments,
                    chaos,
                },
            )?
        } else {
            if untrusted {
                return Err(Error::config(
                    "chaos/fault tolerance run in-process: use Backend::Threads (the process backend scripts rank loss with ProcessConfig::membership)",
                ));
            }
            hipress_runtime::run_processes(
                self.strategy,
                self.algorithm,
                self.partitions,
                worker_grads,
                self.seed,
                &pcfg,
                &self.process,
                instruments,
            )?
        };
        Ok(SyncOutcome {
            flows,
            report: Some(report),
        })
    }
}
