//! Implementation of the `joinopt` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin wrapper around [`run`], which
//! writes to any `io::Write` so the integration tests can drive every
//! command end-to-end without spawning processes.
//!
//! ```text
//! joinopt optimize <query-file> [--algorithm NAME] [--cost-model NAME]
//! joinopt compare  <query-file> [--cost-model NAME]
//! joinopt generate <family> <n> [--seed S]
//! joinopt counters <family> <max-n>
//! joinopt help
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

use joinopt_bench::load::{run_chaos, run_load, LoadConfig};
use joinopt_bench::perf::{run_matrix, PerfBaseline, PerfConfig};
use joinopt_core::explain::{compare, Explanation};
use joinopt_core::formulas::{dpccp_inner, dpsize_inner, dpsub_inner};
use joinopt_core::greedy::Goo;
use joinopt_core::{Algorithm, DpCcp, DpConv, DpHyp, DpSize, DpSub, JoinOrderer};
use joinopt_cost::{workload, CostModel, Cout};
use joinopt_qgraph::formulas::{ccp_distinct, csg_count};
use joinopt_qgraph::GraphKind;
use joinopt_query::{looks_like_sql, parse, parse_sql, write as write_query, ParsedQuery};
use joinopt_service::server::{
    smoke, span_timeline_demo, LineClient, Listen, Server, ServerConfig,
};
use joinopt_service::{
    CacheConfig, CostModelId, OptimizerService, QuerySpec, ServiceConfig, ServiceRequest,
};
use joinopt_telemetry::json::JsonValue;
use joinopt_telemetry::{
    collapse_trace, Fanout, MetricsCollector, MetricsRegistry, Observer, RegistryObserver,
    RunReport, TraceWriter,
};

/// Errors surfaced to the CLI user (exit code 1 + message).
///
/// Everything past argument handling and file I/O funnels through the
/// unified [`joinopt_core::OptimizeError`]: query-DSL and SQL parse
/// failures convert into it (`OptimizeError::Parse` / `::Sql`), so the
/// CLI no longer mirrors each crate's error type.
#[derive(Debug)]
pub enum CliError {
    /// Wrong invocation (unknown command, missing/invalid arguments).
    Usage(String),
    /// A file could not be read.
    Io(std::io::Error),
    /// Parsing or optimization failed (bad query text, disconnected
    /// graph, exceeded budget, …).
    Optimize(joinopt_core::OptimizeError),
    /// `joinopt fuzz` found optimizer divergences (details were already
    /// printed to stdout; the variant carries the one-line summary).
    Conformance(String),
    /// An input data file (perf baseline, trace) was malformed.
    Data(String),
    /// `joinopt perf --check` found regressions against the committed
    /// baseline (diff lines were already printed to stdout; the variant
    /// carries the one-line summary).
    Regression(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Optimize(e) => write!(f, "optimization failed: {e}"),
            CliError::Conformance(msg) => write!(f, "conformance failure: {msg}"),
            CliError::Data(msg) => write!(f, "invalid input: {msg}"),
            CliError::Regression(msg) => write!(f, "performance regression: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<joinopt_query::ParseError> for CliError {
    fn from(e: joinopt_query::ParseError) -> Self {
        CliError::Optimize(e.into())
    }
}

impl From<joinopt_query::SqlError> for CliError {
    fn from(e: joinopt_query::SqlError) -> Self {
        CliError::Optimize(e.into())
    }
}

impl From<joinopt_core::OptimizeError> for CliError {
    fn from(e: joinopt_core::OptimizeError) -> Self {
        CliError::Optimize(e)
    }
}

/// The usage text printed by `joinopt help` and on usage errors.
pub const USAGE: &str = "\
joinopt — optimal bushy join trees without cross products (VLDB 2006)

USAGE:
  joinopt optimize <query-file> [--algorithm NAME] [--cost-model NAME]
                                [--threads N] [--metrics] [--trace-json PATH]
                                [--prom PATH] [--memory-budget BYTES]
                                [--degrade]
  joinopt optimize <query-file>... --batch [--algorithm NAME]
                                [--cost-model NAME] [--threads N]
                                [--trace-json PATH] [--prom PATH]
  joinopt compare  <query-file> [--cost-model NAME]
                                [--metrics] [--trace-json PATH] [--prom PATH]
  joinopt explain  <query-file> [--algorithm NAME] [--cost-model NAME]
                                [--threads N] [--format text|json|dot]
                                [--compare A,B]
  joinopt generate <family> <n> [--seed S]
  joinopt counters <family> <max-n> [--metrics] [--trace-json PATH]
                                [--prom PATH]
  joinopt fuzz     [--seed S] [--iters N] [--max-n N] [--minimize]
                   [--cache] [--metrics] [--trace-json PATH] [--prom PATH]
  joinopt perf     [--out PATH] [--n N] [--reps K] [--seed S]
                   [--threads LIST] [--noise F]
                   [--trace-json PATH] [--prom PATH]
  joinopt perf     --check PATH [--counters-only]
                   [--trace-json PATH] [--prom PATH]
  joinopt load     [--requests N] [--threads N] [--seed S]
                   [--repeat-rate F] [--max-n N] [--cache-bytes BYTES]
                   [--json PATH] [--min-hit-rate F] [--prom PATH]
  joinopt load     --chaos [--requests N] [--seed S] [--repeat-rate F]
                   [--max-n N] [--cache-bytes BYTES] [--json PATH]
                   [--prom PATH]
  joinopt serve    [--addr HOST:PORT | --unix PATH] [--prom PATH]
                   [--drain-timeout-ms N] [--no-trace]
  joinopt serve    --smoke [--prom PATH] [--span-timeline PATH]
  joinopt top      [--addr HOST:PORT] [--interval-ms N] [--once]
  joinopt flame    <trace.jsonl> [--out PATH]
  joinopt help

ALGORITHMS:  dpsize, dpsub, dpccp, dpconv, goo, ikkbz, auto (default),
             dpsize-naive, dpsub-nofilter, dpsub-cp
             (dpconv is exact for the cout model only and refuses
             other models with a typed error; ikkbz is the exact bushy
             optimum only on cout stars, the left-deep optimum on
             trees, and refuses cyclic graphs and other models; auto
             picks it for cout stars of 12 or more relations)
COST MODELS: cout (default), nlj, hash, smj, min
FAMILIES:    chain, cycle, star, clique
PARALLELISM: --threads N runs the DPsub family on N worker threads
             (level-synchronous engine; results are bit-identical to
             sequential). 0 or omitted = the machine's parallelism.
             --batch optimizes many query files at once, spreading them
             across worker threads with pooled per-worker sessions.
ROBUSTNESS:  --memory-budget BYTES (suffixes k/m/g) aborts the run once
             DP tables and plan arenas outgrow the budget; with
             --degrade a tripped budget falls back down the ladder
             exact -> IDP -> GOO and reports the rung that produced the
             plan instead of failing (see docs/robustness.md).
TELEMETRY:   --metrics appends a run report (phase timings, DP-table and
             arena statistics); --trace-json streams every telemetry
             event to PATH as JSON lines; --prom aggregates every
             observed run into a metrics registry and writes a
             Prometheus text-exposition snapshot to PATH on exit. On
             `counters` (closed formulas) they additionally run
             DPsize/DPsub/DPccp on generated workloads, so max-n is
             capped at 12 there. --batch supports --trace-json/--prom
             (events from all workers, tagged thread_id) but not the
             per-run --metrics report. `flame` folds a --trace-json
             file into collapsed-stack lines (`stack count`) ready for
             a flamegraph renderer.
PERF:        perf runs the pinned baseline matrix (chain/star/clique ×
             DPsize, DPccp, DPconv, DPsub at --threads LIST, e.g.
             1,2,4) and
             writes BENCH_joinopt.json (override with --out). --check
             re-runs the matrix pinned in PATH and fails on any counter,
             table-size or cost-bit drift; full mode also gates arena
             bytes (exact) and wall time (baseline × (1 + noise)),
             while --counters-only skips both, making the check
             hardware-independent (the CI smoke gate).
EXPLAIN:     explain re-runs the optimizer with provenance collection:
             every DP decision (winning split, runner-up, cost delta,
             candidates considered, pruning) is recorded and rendered —
             as an annotated ASCII tree plus decision table (text), a
             stable JSON document (json), or a Graphviz digraph (dot).
             --compare A,B runs two algorithms and diffs their plans
             side-by-side, attributing the first divergent DP decision
             (equal-cost ties broken by enumeration order are called
             out). See docs/observability.md.
FUZZING:     fuzz generates random query-graph instances (seed S, iters
             N, up to --max-n relations each) and runs the differential
             conformance oracle on every one: all exact algorithms,
             the parallel engine at several thread counts, metamorphic
             properties, counter closed forms and the service layer's
             canonical-fingerprint invariance. --cache additionally
             replays each instance cold/warm through a plan cache and
             fails unless the warm hit is bit-identical to the cold
             run. --minimize shrinks each divergent instance to a
             minimal repro and prints it in the query DSL. Exit is
             nonzero on any divergence.
LOAD:        load replays a seeded mixed chain/star/clique request
             stream through the optimizer service (joinopt-service):
             each request repeats an earlier query with probability
             --repeat-rate, exercising the plan cache's warm path. It
             reports throughput, p50/p99 latency, the cache hit rate,
             a per-type error breakdown and the per-stage latency
             breakdown of the gateway lifecycle (shed-check, breaker,
             cache-lookup, optimize), writes the joinopt-load-v3 JSON
             report with --json, and with --min-hit-rate fails unless
             the run was error-free and the hit rate met the floor (the
             CI smoke gate). --chaos replays the stream through the server
             gateway from 4 client threads with a burst of 30 injected
             worker panics mid-run (needs a --cfg failpoints build):
             warmup must be clean, the burst must open the per-tenant
             circuit breaker, recovery must restore the hit rate and
             p99, a differential re-check of 16 sampled answers against
             a sequential cold run must find zero wrong plans, and the
             final drain must complete. Exit is
             nonzero on any gate violation. See docs/service.md.
SERVE:       serve runs the optimizer as a long-lived server speaking
             newline-delimited JSON over TCP (--addr, default
             127.0.0.1:4006) or a unix socket (--unix). Verbs: health,
             ready, stats, optimize (inline DSL/SQL query text with
             optional tenant/priority/algorithm/cost_model/deadline_ms/
             trace_id fields), metrics (windowed per-tenant/verb/stage
             p50/p99/rate snapshot, JSON or Prometheus), trace (one
             request's span timeline by trace_id), slow (the worst-K
             slowest requests) and shutdown (graceful drain; --prom
             then writes the final Prometheus snapshot,
             --drain-timeout-ms bounds the wait). Every response echoes
             the client's id and the request's trace_id (client-
             supplied or server-minted). Requests pass watermark load
             shedding, per-tenant circuit breakers, deadline
             propagation and jittered retries; refusals and failures
             come back typed with Retry-After hints. --no-trace turns
             request tracing off entirely: zero extra clock reads,
             bit-identical plans, and the introspection verbs answer
             from empty stores. --smoke runs the
             self-check: a scripted client drives the protocol (plus
             injected faults in failpoints builds) and fails on any
             deviation; --span-timeline writes the deterministic
             manual-clock span-timeline document (the CI golden). `top`
             polls a running server's metrics verb and renders the live
             windowed latency table (--once prints one snapshot and
             exits). See docs/service.md.

Query files are either the native DSL:
  relation <name> <cardinality>
  join <name> <name> [<selectivity>]     # default selectivity 0.1
  join <a>,<b> <c> [<selectivity>]       # complex predicate -> DPhyp
or conjunctive SQL (detected by a leading SELECT):
  SELECT * FROM t /*+ rows=N */ a, ...
  WHERE a.x = b.y /*+ sel=F */ AND ...
";

/// Entry point shared by the binary and the tests.
///
/// `args` excludes the program name.
///
/// # Errors
///
/// Returns [`CliError`] for bad usage, unreadable files, parse failures
/// and optimizer rejections.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match command.as_str() {
        "optimize" => cmd_optimize(&args[1..], out),
        "compare" => cmd_compare(&args[1..], out),
        "explain" => cmd_explain(&args[1..], out),
        "generate" => cmd_generate(&args[1..], out),
        "counters" => cmd_counters(&args[1..], out),
        "fuzz" => cmd_fuzz(&args[1..], out),
        "perf" => cmd_perf(&args[1..], out),
        "load" => cmd_load(&args[1..], out),
        "serve" => cmd_serve(&args[1..], out),
        "top" => cmd_top(&args[1..], out),
        "flame" => cmd_flame(&args[1..], out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn parse_family(name: &str) -> Result<GraphKind, CliError> {
    GraphKind::parse(name).ok_or_else(|| CliError::Usage(format!("unknown graph family `{name}`")))
}

/// Positional arguments and `--key value` option pairs.
type SplitArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Options that are boolean flags (no value argument).
const FLAG_OPTIONS: [&str; 10] = [
    "metrics",
    "batch",
    "degrade",
    "minimize",
    "counters-only",
    "cache",
    "chaos",
    "smoke",
    "once",
    "no-trace",
];

/// Splits `args` into positionals and `--key value` options.
/// Flags listed in [`FLAG_OPTIONS`] take no value and report `""`.
fn split_options(args: &[String]) -> Result<SplitArgs<'_>, CliError> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(key) = a.strip_prefix("--") {
            if FLAG_OPTIONS.contains(&key) {
                options.push((key, ""));
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                return Err(CliError::Usage(format!("option --{key} needs a value")));
            };
            options.push((key, value.as_str()));
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok((positional, options))
}

/// The telemetry sinks a command was asked for (`--metrics`,
/// `--trace-json PATH`, `--prom PATH`), bundled so each command can run
/// its optimizations observed and emit the report afterwards.
struct Telemetry {
    metrics: Option<MetricsCollector>,
    trace: Option<TraceWriter<BufWriter<File>>>,
    /// Registry aggregating every observed run, written as a Prometheus
    /// text-exposition file to `prom_path` on [`Telemetry::close`].
    registry: Option<MetricsRegistry>,
    prom_path: Option<String>,
}

impl Telemetry {
    fn new(
        metrics: bool,
        trace_path: Option<&str>,
        prom_path: Option<&str>,
    ) -> Result<Telemetry, CliError> {
        Ok(Telemetry {
            metrics: metrics.then(MetricsCollector::new),
            trace: match trace_path {
                Some(path) => Some(TraceWriter::new(BufWriter::new(File::create(path)?))),
                None => None,
            },
            registry: prom_path.map(|_| MetricsRegistry::new()),
            prom_path: prom_path.map(str::to_string),
        })
    }

    /// Runs `f` with the observer these sinks add up to (an empty,
    /// disabled fan-out when no telemetry was requested, so unobserved
    /// invocations stay on the zero-overhead path).
    fn observe<R>(&self, f: impl FnOnce(&dyn Observer) -> R) -> R {
        let registry = self.registry_observer();
        let sinks: Vec<&dyn Observer> = [
            self.metrics.as_ref().map(|m| m as &dyn Observer),
            self.trace.as_ref().map(|t| t as &dyn Observer),
            registry.as_ref().map(|r| r as &dyn Observer),
        ]
        .into_iter()
        .flatten()
        .collect();
        f(&Fanout::new(&sinks))
    }

    /// [`Telemetry::observe`] for batch runs, whose workers share one
    /// observer: only the `Sync` sinks (trace writer, registry) take
    /// part — the per-run collector is not one.
    fn observe_sync<R>(&self, f: impl FnOnce(&(dyn Observer + Sync)) -> R) -> R {
        let registry = self.registry_observer();
        let sinks: Vec<&(dyn Observer + Sync)> = [
            self.trace.as_ref().map(|t| t as &(dyn Observer + Sync)),
            registry.as_ref().map(|r| r as &(dyn Observer + Sync)),
        ]
        .into_iter()
        .flatten()
        .collect();
        f(&Fanout::new(&sinks))
    }

    fn registry_observer(&self) -> Option<RegistryObserver<'_>> {
        self.registry.as_ref().map(RegistryObserver::new)
    }

    /// The metrics report of the most recent observed run, if `--metrics`
    /// was given. Call once per run when a command runs several
    /// algorithms — the collector resets on each `run_start`.
    fn report(&self) -> Option<RunReport> {
        self.metrics.as_ref().map(MetricsCollector::report)
    }

    /// Flushes the trace file and writes the Prometheus snapshot,
    /// surfacing deferred I/O errors.
    fn close(self) -> Result<(), CliError> {
        if let Some(trace) = self.trace {
            trace.finish()?.flush()?;
        }
        if let (Some(registry), Some(path)) = (self.registry, self.prom_path) {
            std::fs::write(&path, registry.snapshot().to_prometheus())?;
        }
        Ok(())
    }
}

/// Parses an option value that must satisfy `valid`, reporting
/// "invalid {what} `{value}`" otherwise.
fn parse_arg<T: std::str::FromStr>(
    value: &str,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    value
        .parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| CliError::Usage(format!("invalid {what} `{value}`")))
}

/// The `--key value` options of a command that takes no positionals.
fn options_only<'a>(
    command: &str,
    args: &'a [String],
) -> Result<Vec<(&'a str, &'a str)>, CliError> {
    let (positional, options) = split_options(args)?;
    if !positional.is_empty() {
        return Err(CliError::Usage(format!(
            "{command} takes options only, got `{}`",
            positional.join(" ")
        )));
    }
    Ok(options)
}

fn load_query(path: &str) -> Result<ParsedQuery, CliError> {
    let text = std::fs::read_to_string(path)?;
    if looks_like_sql(&text) {
        Ok(parse_sql(&text)?)
    } else {
        Ok(parse(&text)?)
    }
}

/// Parses a byte count with an optional binary `k`/`m`/`g` suffix
/// (case-insensitive): `65536`, `64k`, `2m`, `1g`.
fn parse_bytes(value: &str) -> Option<usize> {
    let (digits, shift) = match value.chars().last().map(|c| c.to_ascii_lowercase()) {
        Some('k') => (&value[..value.len() - 1], 10u32),
        Some('m') => (&value[..value.len() - 1], 20),
        Some('g') => (&value[..value.len() - 1], 30),
        _ => (value, 0),
    };
    digits.parse::<usize>().ok()?.checked_shl(shift)
}

fn cmd_optimize(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (positional, options) = split_options(args)?;
    let mut algorithm = Algorithm::Auto;
    let mut model_id = CostModelId::Cout;
    let mut metrics = false;
    let mut trace_path = None;
    let mut prom_path = None;
    let mut threads: Option<usize> = None;
    let mut batch = false;
    let mut memory_budget: Option<usize> = None;
    let mut degrade = false;
    for (key, value) in options {
        match key {
            "algorithm" => {
                algorithm = Algorithm::parse(value)
                    .ok_or_else(|| CliError::Usage(format!("unknown algorithm `{value}`")))?;
            }
            "cost-model" => {
                model_id = CostModelId::parse(value)
                    .ok_or_else(|| CliError::Usage(format!("unknown cost model `{value}`")))?;
            }
            "metrics" => metrics = true,
            "trace-json" => trace_path = Some(value),
            "prom" => prom_path = Some(value),
            "threads" => {
                threads = Some(parse_arg(value, "thread count", |_| true)?);
            }
            "batch" => batch = true,
            "memory-budget" => {
                memory_budget =
                    Some(parse_bytes(value).ok_or_else(|| {
                        CliError::Usage(format!("invalid memory budget `{value}`"))
                    })?);
            }
            "degrade" => degrade = true,
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    if batch {
        if metrics {
            return Err(CliError::Usage(
                "the per-run --metrics report is not available with --batch \
                 (use --trace-json or --prom, which aggregate across workers)"
                    .into(),
            ));
        }
        if memory_budget.is_some() || degrade {
            return Err(CliError::Usage(
                "--memory-budget/--degrade apply to single runs, not --batch".into(),
            ));
        }
        return cmd_optimize_batch(
            &positional,
            algorithm,
            model_id,
            threads.unwrap_or(0),
            trace_path,
            prom_path,
            out,
        );
    }
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage("optimize expects one query file".into()));
    };
    let model = model_id.model();
    let telemetry = Telemetry::new(metrics, trace_path, prom_path)?;

    let q = load_query(path)?;
    let (name, result, used_threads, elapsed, degradation) = match q.graph() {
        Some(graph) => {
            let outcome = telemetry.observe(|obs| {
                let mut request = joinopt_core::OptimizeRequest::new(graph, &q.catalog)
                    .with_algorithm(algorithm)
                    .with_cost_model(model)
                    .with_threads(threads.unwrap_or(0))
                    .with_observer(obs);
                if let Some(bytes) = memory_budget {
                    request = request.with_memory_budget(bytes);
                }
                if degrade {
                    request = request.on_budget_exceeded(joinopt_core::BudgetAction::Degrade);
                }
                request.run()
            })?;
            (
                outcome.algorithm.orderer(graph).name(),
                outcome.result,
                outcome.threads,
                outcome.elapsed,
                outcome.degradation,
            )
        }
        None => {
            // Complex (hyper) predicates: DPhyp is the only applicable
            // algorithm.
            if !matches!(algorithm, Algorithm::Auto) {
                return Err(CliError::Usage(
                    "this query has complex (multi-relation) predicates; only DPhyp \
                     applies — drop --algorithm"
                        .into(),
                ));
            }
            if memory_budget.is_some() || degrade {
                return Err(CliError::Usage(
                    "--memory-budget/--degrade are not supported for complex-predicate (DPhyp) queries".into(),
                ));
            }
            let start = Instant::now();
            let result = telemetry
                .observe(|obs| DpHyp.optimize_observed(&q.hypergraph, &q.catalog, model, obs))?;
            (DpHyp.name(), result, 1, start.elapsed(), None)
        }
    };

    writeln!(out, "algorithm:   {name}")?;
    writeln!(out, "cost model:  {}", model.name())?;
    writeln!(out, "plan:        {}", q.render_tree(&result.tree))?;
    writeln!(out, "cost:        {:.6e}", result.cost)?;
    writeln!(out, "cardinality: {:.6e}", result.cardinality)?;
    writeln!(out, "counters:    {}", result.counters)?;
    if threads.is_some() {
        // Only printed when requested, so default output is unchanged.
        writeln!(out, "threads:     {used_threads}")?;
    }
    if let Some(info) = &degradation {
        writeln!(
            out,
            "degraded:    {} plan after {} budget trip ({})",
            info.rung.as_str(),
            info.trigger.as_str(),
            info.detail
        )?;
    }
    writeln!(out, "time:        {elapsed:.2?}")?;
    writeln!(out)?;
    writeln!(out, "{}", result.tree.explain())?;
    if let Some(report) = telemetry.report() {
        writeln!(out)?;
        write!(out, "{report}")?;
    }
    telemetry.close()?;
    Ok(())
}

/// `optimize --batch`: loads every query file, captures each into an
/// owned [`QuerySpec`] and submits the whole set to an
/// [`OptimizerService`] batch — worker threads with pooled per-worker
/// sessions, plus a plan cache, so repeated query files inside one
/// batch are answered from the cache (their rows are marked `cached`).
/// Per-query failures (disconnected graphs, …) become rows, not a
/// command failure — a batch is useful precisely when some inputs are
/// suspect. Batch telemetry sinks must be `Sync` (workers report
/// concurrently, tagged by `thread_id`), which the trace writer and the
/// metrics registry are but the per-run collector is not.
fn cmd_optimize_batch(
    paths: &[&str],
    algorithm: Algorithm,
    model: CostModelId,
    threads: usize,
    trace_path: Option<&str>,
    prom_path: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if paths.is_empty() {
        return Err(CliError::Usage(
            "optimize --batch expects at least one query file".into(),
        ));
    }
    let mut requests = Vec::with_capacity(paths.len());
    for path in paths {
        let q = load_query(path)?;
        let Some(graph) = q.graph() else {
            return Err(CliError::Usage(format!(
                "{path}: queries with complex (multi-relation) predicates are not supported in --batch"
            )));
        };
        requests.push(
            ServiceRequest::new(QuerySpec::capture(graph, &q.catalog)?)
                .with_algorithm(algorithm)
                .with_cost_model(model)
                .with_tenant("cli"),
        );
    }
    let service = OptimizerService::new(ServiceConfig {
        worker_threads: threads,
        cache: Some(CacheConfig::default()),
    });
    let telemetry = Telemetry::new(false, trace_path, prom_path)?;
    let start = Instant::now();
    let results = telemetry.observe_sync(|obs| service.submit_batch(&requests, obs));
    let elapsed = start.elapsed();
    telemetry.close()?;
    writeln!(
        out,
        "{:<4} {:>14} {:>14}  query",
        "#", "cost", "cardinality"
    )?;
    let mut failures = 0usize;
    for (i, (path, result)) in paths.iter().zip(&results).enumerate() {
        match result {
            Ok(r) => {
                let cached = if r.cache_hit { " (cached)" } else { "" };
                writeln!(
                    out,
                    "{:<4} {:>14.6e} {:>14.6e}  {}{}",
                    i, r.result.cost, r.result.cardinality, path, cached
                )?;
            }
            Err(e) => {
                failures += 1;
                writeln!(out, "{:<4} {:>14} {:>14}  {}: {}", i, "-", "-", path, e)?;
            }
        }
    }
    writeln!(
        out,
        "\n{} queries ({} failed) in {:.2?}",
        paths.len(),
        failures,
        elapsed
    )?;
    Ok(())
}

fn cmd_compare(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (positional, options) = split_options(args)?;
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage("compare expects one query file".into()));
    };
    let mut model: &dyn CostModel = &Cout;
    let mut metrics = false;
    let mut trace_path = None;
    let mut prom_path = None;
    for (key, value) in options {
        match key {
            "cost-model" => {
                model = CostModelId::parse(value)
                    .ok_or_else(|| CliError::Usage(format!("unknown cost model `{value}`")))?
                    .model();
            }
            "metrics" => metrics = true,
            "trace-json" => trace_path = Some(value),
            "prom" => prom_path = Some(value),
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    let telemetry = Telemetry::new(metrics, trace_path, prom_path)?;
    let q = load_query(path)?;
    writeln!(
        out,
        "{:<10} {:>12} {:>14} {:>14} {:>14}",
        "algorithm", "time", "inner", "csg-cmp-pairs", "cost"
    )?;
    // One report per algorithm run (the collector resets on `run_start`).
    let mut reports: Vec<RunReport> = Vec::new();
    let print_row = |out: &mut dyn Write,
                     name: &str,
                     elapsed: std::time::Duration,
                     result: &joinopt_core::DpResult|
     -> Result<(), CliError> {
        writeln!(
            out,
            "{:<10} {:>12} {:>14} {:>14} {:>14.6e}",
            name,
            format!("{elapsed:.2?}"),
            result.counters.inner,
            result.counters.csg_cmp_pairs,
            result.cost
        )?;
        Ok(())
    };
    match q.graph() {
        Some(graph) => {
            // DPconv only optimizes C_out-shaped models; comparing it
            // under e.g. `--model hash` would abort the whole table
            // with its typed refusal, so it joins the line-up only
            // when the selected model qualifies.
            let mut algorithms: Vec<&dyn JoinOrderer> = vec![&DpSize, &DpSub, &DpCcp];
            if model.is_cout_shaped() {
                algorithms.push(&DpConv);
            }
            algorithms.push(&Goo);
            for alg in algorithms {
                let start = Instant::now();
                let result = telemetry
                    .observe(|obs| alg.optimize_observed(graph, &q.catalog, model, obs))?;
                print_row(out, alg.name(), start.elapsed(), &result)?;
                reports.extend(telemetry.report());
            }
        }
        None => {
            let start = Instant::now();
            let result = telemetry
                .observe(|obs| DpHyp.optimize_observed(&q.hypergraph, &q.catalog, model, obs))?;
            print_row(out, DpHyp.name(), start.elapsed(), &result)?;
            reports.extend(telemetry.report());
        }
    }
    if !reports.is_empty() {
        writeln!(out)?;
        writeln!(out, "{}", RunReport::csv_header())?;
        for report in &reports {
            writeln!(out, "{}", report.to_csv_row())?;
        }
    }
    telemetry.close()?;
    Ok(())
}

/// `joinopt explain`: run the optimizer with provenance collection and
/// render the plan together with the per-set decision records — or,
/// with `--compare A,B`, diff two algorithms' search-space decisions.
///
/// All output is deterministic (no wall-clock anywhere), so both the
/// text and the JSON form are golden-gated in ci.sh.
fn cmd_explain(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (positional, options) = split_options(args)?;
    let [path] = positional.as_slice() else {
        return Err(CliError::Usage("explain expects one query file".into()));
    };
    let mut algorithm = Algorithm::Auto;
    let mut model: &dyn CostModel = &Cout;
    let mut threads: usize = 1;
    let mut format = "text";
    let mut compare_pair: Option<(Algorithm, Algorithm)> = None;
    for (key, value) in options {
        match key {
            "algorithm" => {
                algorithm = Algorithm::parse(value)
                    .ok_or_else(|| CliError::Usage(format!("unknown algorithm `{value}`")))?;
            }
            "cost-model" => {
                model = CostModelId::parse(value)
                    .ok_or_else(|| CliError::Usage(format!("unknown cost model `{value}`")))?
                    .model();
            }
            "threads" => {
                threads = parse_arg(value, "thread count", |_| true)?;
            }
            "format" => {
                format = match value {
                    "text" | "json" | "dot" => value,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown format `{other}` (expected text, json or dot)"
                        )))
                    }
                };
            }
            "compare" => {
                let Some((a, b)) = value.split_once(',') else {
                    return Err(CliError::Usage(format!(
                        "--compare expects two algorithms `A,B`, got `{value}`"
                    )));
                };
                let parse_alg = |name: &str| {
                    Algorithm::parse(name.trim())
                        .ok_or_else(|| CliError::Usage(format!("unknown algorithm `{name}`")))
                };
                compare_pair = Some((parse_alg(a)?, parse_alg(b)?));
            }
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    let q = load_query(path)?;
    let Some(graph) = q.graph() else {
        return Err(CliError::Usage(
            "explain supports simple (binary-predicate) queries only; \
             this query has complex predicates"
                .into(),
        ));
    };
    let names = q.names().to_vec();
    let name_of = move |r: joinopt_relset::RelIdx| names[r].clone();

    if let Some((a, b)) = compare_pair {
        if format == "dot" {
            return Err(CliError::Usage(
                "--format dot renders one plan; it does not combine with --compare".into(),
            ));
        }
        let ea = Explanation::capture(graph, &q.catalog, model, a, threads)?;
        let eb = Explanation::capture(graph, &q.catalog, model, b, threads)?;
        let diff = compare(&ea, &eb);
        match format {
            "json" => writeln!(out, "{}", diff.to_json(&name_of))?,
            _ => write!(out, "{}", diff.render_text_with(&name_of))?,
        }
        return Ok(());
    }

    let e = Explanation::capture(graph, &q.catalog, model, algorithm, threads)?;
    match format {
        "json" => writeln!(out, "{}", e.to_json(&name_of))?,
        "dot" => write!(out, "{}", e.render_dot(&name_of))?,
        _ => write!(out, "{}", e.render_text(&name_of))?,
    }
    Ok(())
}

fn cmd_generate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (positional, options) = split_options(args)?;
    let [family, n_text] = positional.as_slice() else {
        return Err(CliError::Usage(
            "generate expects a family and a size".into(),
        ));
    };
    let kind = parse_family(family)?;
    let n: usize = parse_arg(n_text, "size", |_| true)?;
    if n == 0 || n > 64 {
        return Err(CliError::Usage(format!("size {n} out of range 1..=64")));
    }
    let mut seed = 2006u64;
    for (key, value) in options {
        match key {
            "seed" => {
                seed = parse_arg(value, "seed", |_| true)?;
            }
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    let w = workload::family_workload(kind, n, seed);
    // Reuse the writer by going through the text format: name relations R0….
    use core::fmt::Write as _;
    let mut src = String::new();
    for i in 0..n {
        let _ = writeln!(src, "relation R{i} {}", w.catalog.cardinality(i));
    }
    for (edge_id, e) in w.graph.edges().iter().enumerate() {
        let _ = writeln!(
            src,
            "join R{} R{} {}",
            e.u,
            e.v,
            w.catalog.selectivity(edge_id)
        );
    }
    let q = parse(&src).expect("generated workloads are valid");
    writeln!(out, "# {kind} query, n = {n}, seed = {seed}")?;
    write!(out, "{}", write_query(&q))?;
    Ok(())
}

/// `joinopt fuzz`: the differential conformance campaign as a CLI
/// command, for CI smoke runs and for reproducing reported seeds.
fn cmd_fuzz(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = options_only("fuzz", args)?;
    let mut config = joinopt_conformance::FuzzConfig {
        minimize: false,
        ..joinopt_conformance::FuzzConfig::default()
    };
    let mut metrics = false;
    let mut trace_path = None;
    let mut prom_path = None;
    for (key, value) in options {
        match key {
            "seed" => {
                config.seed = parse_arg(value, "seed", |_| true)?;
            }
            "iters" => {
                config.iters = parse_arg(value, "iteration count", |_| true)?;
            }
            "max-n" => {
                let n: usize = parse_arg(value, "size", |_| true)?;
                if !(2..=16).contains(&n) {
                    return Err(CliError::Usage(format!("--max-n {n} out of range 2..=16")));
                }
                config.max_n = n;
            }
            "minimize" => config.minimize = true,
            "cache" => config.cache = true,
            "metrics" => metrics = true,
            "trace-json" => trace_path = Some(value),
            "prom" => prom_path = Some(value),
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    // Campaign-scale telemetry: a registry aggregates every reference
    // run (the per-run collector would only ever show the last one), so
    // --metrics here prints the registry's text snapshot.
    let mut telemetry = Telemetry::new(false, trace_path, prom_path)?;
    if metrics && telemetry.registry.is_none() {
        telemetry.registry = Some(MetricsRegistry::new());
    }
    let start = Instant::now();
    let report = telemetry.observe(|obs| joinopt_conformance::run_fuzz(&config, obs));
    if let (true, Some(registry)) = (metrics, &telemetry.registry) {
        writeln!(out, "{}", registry.snapshot().to_text())?;
    }
    telemetry.close()?;
    writeln!(
        out,
        "fuzz: seed {}, {} instances (n ≤ {}) in {:.2?}",
        config.seed,
        report.checked,
        config.max_n,
        start.elapsed()
    )?;
    if report.is_clean() {
        writeln!(out, "all instances conform")?;
        return Ok(());
    }
    for failure in &report.failures {
        writeln!(out)?;
        writeln!(
            out,
            "FAIL {}: {}",
            failure.instance.name, failure.divergence
        )?;
        let repro = failure.minimized.as_ref().unwrap_or(&failure.instance);
        if failure.minimized.is_some() {
            writeln!(
                out,
                "minimal repro ({} relations, {} edges):",
                repro.graph.num_relations(),
                repro.graph.num_edges()
            )?;
        }
        write!(out, "{}", repro.to_dsl())?;
        // Root-cause attribution: re-run the two sides of the failed
        // comparison with provenance collection and render the first
        // divergent DP decision (when the divergence is a plan diff).
        if let Some(explained) = joinopt_conformance::explain_failure(failure) {
            writeln!(out)?;
            write!(out, "{explained}")?;
        }
    }
    Err(CliError::Conformance(format!(
        "{} of {} instances diverged",
        report.failures.len(),
        report.checked
    )))
}

/// `joinopt perf`: run the pinned performance matrix and write a
/// baseline file, or (`--check`) re-run a committed baseline's matrix
/// and diff against it (the CI smoke gate uses `--counters-only`).
fn cmd_perf(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = options_only("perf", args)?;
    let mut config = PerfConfig::default();
    let mut out_path = "BENCH_joinopt.json".to_string();
    let mut check_path: Option<String> = None;
    let mut counters_only = false;
    let mut trace_path = None;
    let mut prom_path = None;
    for (key, value) in options {
        match key {
            "out" => out_path = value.to_string(),
            "check" => check_path = Some(value.to_string()),
            "counters-only" => counters_only = true,
            "trace-json" => trace_path = Some(value),
            "prom" => prom_path = Some(value),
            "n" => {
                let n: usize = parse_arg(value, "size", |_| true)?;
                if !(2..=14).contains(&n) {
                    return Err(CliError::Usage(format!("--n {n} out of range 2..=14")));
                }
                config.n = n;
            }
            "reps" => {
                config.reps = parse_arg(value, "rep count", |_| true)?;
            }
            "seed" => {
                config.seed = parse_arg(value, "seed", |_| true)?;
            }
            "threads" => {
                config.threads = value
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().ok().filter(|&t| t >= 1))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| {
                        CliError::Usage(format!(
                            "invalid --threads `{value}` (expected e.g. 1,2,4)"
                        ))
                    })?;
            }
            "noise" => {
                config.noise =
                    parse_arg::<f64>(value, "noise factor", |f| f.is_finite() && *f >= 0.0)?;
            }
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    // Matrix-scale telemetry: every cell run streams to --trace-json
    // and/or aggregates into a --prom registry snapshot.
    let telemetry = Telemetry::new(false, trace_path, prom_path)?;
    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path)?;
        let baseline = PerfBaseline::parse(&text).map_err(CliError::Data)?;
        // Replay exactly the pinned matrix. In counters-only mode one
        // repetition suffices — the gated quantities are deterministic,
        // so extra reps only buy wall-time stability.
        let mut replay = baseline.config.clone();
        if counters_only {
            replay.reps = 1;
        }
        let current = telemetry
            .observe(|obs| run_matrix(&replay, obs))
            .map_err(CliError::Conformance)?;
        telemetry.close()?;
        let mode = if counters_only {
            "counters-only"
        } else {
            "full"
        };
        match current.check(&baseline, counters_only) {
            Ok(()) => {
                writeln!(
                    out,
                    "perf check passed ({mode}): {} cells match {path}",
                    baseline.cells.len()
                )?;
                Ok(())
            }
            Err(diffs) => {
                for diff in &diffs {
                    writeln!(out, "FAIL {diff}")?;
                }
                Err(CliError::Regression(format!(
                    "{} of {} comparisons failed against {path}",
                    diffs.len(),
                    baseline.cells.len()
                )))
            }
        }
    } else {
        let start = Instant::now();
        let baseline = telemetry
            .observe(|obs| run_matrix(&config, obs))
            .map_err(CliError::Conformance)?;
        telemetry.close()?;
        std::fs::write(&out_path, baseline.to_json())?;
        write!(out, "{}", baseline.render_table())?;
        writeln!(
            out,
            "\nwrote {} cells to {out_path} in {:.2?}",
            baseline.cells.len(),
            start.elapsed()
        )?;
        Ok(())
    }
}

/// `joinopt load`: replay a seeded mixed workload through the optimizer
/// service and report throughput, latency quantiles and the plan-cache
/// hit rate. `--min-hit-rate F` turns the run into a gate (the CI smoke
/// check): it fails unless every request completed and the hit rate met
/// the floor.
fn cmd_load(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = options_only("load", args)?;
    let mut config = LoadConfig::default();
    let mut json_path: Option<&str> = None;
    let mut prom_path: Option<&str> = None;
    let mut min_hit_rate: Option<f64> = None;
    let mut chaos = false;
    for (key, value) in options {
        match key {
            "chaos" => chaos = true,
            "requests" => {
                config.requests = parse_arg::<usize>(value, "request count", |&r| r >= 1)?;
            }
            "threads" => {
                config.threads = parse_arg(value, "thread count", |_| true)?;
            }
            "seed" => {
                config.seed = parse_arg(value, "seed", |_| true)?;
            }
            "repeat-rate" => {
                config.repeat_rate = value
                    .parse::<f64>()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| {
                        CliError::Usage(format!("invalid repeat rate `{value}` (expected 0..=1)"))
                    })?;
            }
            "max-n" => {
                let n: usize = parse_arg(value, "size", |_| true)?;
                if !(4..=12).contains(&n) {
                    return Err(CliError::Usage(format!("--max-n {n} out of range 4..=12")));
                }
                config.max_n = n;
            }
            "cache-bytes" => {
                config.cache_bytes = parse_bytes(value)
                    .ok_or_else(|| CliError::Usage(format!("invalid cache size `{value}`")))?;
            }
            "json" => json_path = Some(value),
            "prom" => prom_path = Some(value),
            "min-hit-rate" => {
                min_hit_rate = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|f| (0.0..=1.0).contains(f))
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "invalid hit-rate floor `{value}` (expected 0..=1)"
                            ))
                        })?,
                );
            }
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    let telemetry = Telemetry::new(false, None, prom_path)?;
    if chaos {
        if min_hit_rate.is_some() {
            return Err(CliError::Usage(
                "--min-hit-rate applies to the plain load gate; --chaos has its own gates".into(),
            ));
        }
        let report = telemetry
            .observe_sync(|obs| run_chaos(&config, obs))
            .map_err(CliError::Regression)?;
        telemetry.close()?;
        write!(out, "{}", report.render())?;
        if let Some(path) = json_path {
            std::fs::write(path, report.to_json())?;
            writeln!(out, "\nwrote {path}")?;
        }
        report.verify().map_err(CliError::Regression)?;
        writeln!(
            out,
            "\nchaos gates passed: breaker opened {}x and reclosed, {} answers re-checked, 0 wrong plans",
            report.breaker_opens, report.rechecked
        )?;
        return Ok(());
    }
    let report = telemetry.observe_sync(|obs| run_load(&config, obs));
    telemetry.close()?;
    write!(out, "{}", report.render())?;
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json())?;
        writeln!(out, "\nwrote {path}")?;
    }
    if let Some(floor) = min_hit_rate {
        if report.errors > 0 {
            return Err(CliError::Regression(format!(
                "{} of {} load requests errored",
                report.errors, config.requests
            )));
        }
        if report.hit_rate < floor {
            return Err(CliError::Regression(format!(
                "cache hit rate {:.3} is below the {floor:.3} floor",
                report.hit_rate
            )));
        }
        writeln!(
            out,
            "\nload gate passed: {} requests, 0 errors, hit rate {:.3} >= {floor:.3}",
            report.completed, report.hit_rate
        )?;
    }
    Ok(())
}

/// `joinopt serve`: run the optimizer as a long-lived newline-JSON
/// server (TCP or unix socket) with the hardened gateway lifecycle —
/// load shedding, per-tenant breakers, deadline propagation, retries
/// and graceful drain. `--smoke` runs the scripted protocol self-check
/// instead and fails on any deviation.
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = options_only("serve", args)?;
    let mut config = ServerConfig {
        listen: Listen::Tcp("127.0.0.1:4006".into()),
        ..ServerConfig::default()
    };
    let mut run_smoke = false;
    let mut listen_set = false;
    let mut span_timeline: Option<&str> = None;
    for (key, value) in options {
        match key {
            "smoke" => run_smoke = true,
            "span-timeline" => span_timeline = Some(value),
            "no-trace" => config.tracing = false,
            "addr" => {
                if listen_set {
                    return Err(CliError::Usage("--addr and --unix are exclusive".into()));
                }
                config.listen = Listen::Tcp(value.to_string());
                listen_set = true;
            }
            "unix" => {
                if listen_set {
                    return Err(CliError::Usage("--addr and --unix are exclusive".into()));
                }
                config.listen = Listen::Unix(value.into());
                listen_set = true;
            }
            "prom" => config.prom_path = Some(value.into()),
            "drain-timeout-ms" => {
                let ms: u64 = parse_arg(value, "drain timeout", |_| true)?;
                config.drain_timeout = std::time::Duration::from_millis(ms);
            }
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }

    // The deterministic span-timeline document (manual clock, seeded
    // minter): written before the smoke so CI can golden-diff it even
    // when the smoke itself is skipped.
    if let Some(path) = span_timeline {
        std::fs::write(path, span_timeline_demo())?;
        writeln!(out, "wrote span timeline to {path}")?;
        if !run_smoke {
            return Ok(());
        }
    }

    if run_smoke {
        if listen_set {
            return Err(CliError::Usage(
                "--smoke picks its own loopback port; drop --addr/--unix".into(),
            ));
        }
        let transcript = smoke(config.prom_path.as_deref()).map_err(CliError::Regression)?;
        for line in &transcript {
            writeln!(out, "smoke: {line}")?;
        }
        writeln!(out, "\nserve smoke passed: {} checks", transcript.len())?;
        return Ok(());
    }

    let listen_desc = match &config.listen {
        Listen::Tcp(addr) => addr.clone(),
        Listen::Unix(path) => path.display().to_string(),
    };
    let server = Server::bind(config).map_err(CliError::Io)?;
    match server.local_addr() {
        Some(addr) => writeln!(out, "listening on {addr} (newline-delimited JSON)")?,
        None => writeln!(out, "listening on {listen_desc} (newline-delimited JSON)")?,
    }
    out.flush()?;
    let summary = server.run().map_err(CliError::Io)?;
    writeln!(
        out,
        "serve done: {} connection(s), {} accepted, {} completed, {} failed, {} shed, \
         {} breaker-rejected, drained: {}",
        summary.connections,
        summary.stats.accepted,
        summary.stats.completed,
        summary.stats.failed,
        summary.stats.shed,
        summary.stats.breaker_rejected,
        summary.drained
    )?;
    Ok(())
}

/// `joinopt top`: poll a running server's `metrics` verb and render the
/// live windowed per-(tenant, verb, stage) latency table. `--once`
/// renders a single snapshot and exits (the testable/CI mode); without
/// it the screen refreshes every `--interval-ms`.
fn cmd_top(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = options_only("top", args)?;
    let mut addr = "127.0.0.1:4006".to_string();
    let mut interval = std::time::Duration::from_millis(2000);
    let mut once = false;
    for (key, value) in options {
        match key {
            "addr" => addr = value.to_string(),
            "interval-ms" => {
                let ms = parse_arg::<u64>(value, "interval", |&ms| ms >= 1)?;
                interval = std::time::Duration::from_millis(ms);
            }
            "once" => once = true,
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    let sock: std::net::SocketAddr = parse_arg(&addr, "address", |_| true)?;
    let mut client = LineClient::connect(sock).map_err(CliError::Io)?;
    loop {
        let resp = client
            .call("{\"verb\":\"metrics\"}")
            .map_err(CliError::Io)?;
        if resp.get("status").and_then(|v| v.as_str()) != Some("ok") {
            return Err(CliError::Data(format!("metrics verb failed: {resp:?}")));
        }
        if !once {
            // Clear + home, so the refresh reads like `top`.
            write!(out, "\x1b[2J\x1b[H")?;
        }
        write!(out, "{}", render_top(&resp, &addr))?;
        out.flush()?;
        if once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Renders one `metrics` response as the `joinopt top` table.
fn render_top(resp: &JsonValue, addr: &str) -> String {
    let tracing = resp
        .get("tracing")
        .and_then(|v| v.as_bool())
        .unwrap_or(false);
    let window = resp.get("window");
    let window_s = window
        .and_then(|w| w.get("window_ns"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0) as f64
        / 1e9;
    let mut out = format!("joinopt top — {addr} (window {window_s:.0}s, tracing {tracing})\n\n");
    let entries = window
        .and_then(|w| w.get("stages"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    if entries.is_empty() {
        out.push_str("no requests in the current window\n");
        return out;
    }
    let mut t = joinopt_bench::Table::new(vec![
        "tenant", "verb", "stage", "count", "rate/s", "p50", "p99", "max",
    ]);
    for e in entries {
        let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
        let n = |k: &str| e.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        t.row(vec![
            s("tenant"),
            s("verb"),
            s("stage"),
            n("count").to_string(),
            format!(
                "{:.1}",
                e.get("rate_per_sec")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            ),
            joinopt_bench::format_seconds(n("p50_ns") as f64 / 1e9),
            joinopt_bench::format_seconds(n("p99_ns") as f64 / 1e9),
            joinopt_bench::format_seconds(n("max_ns") as f64 / 1e9),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// `joinopt flame`: fold a `--trace-json` file into collapsed-stack
/// lines (`frame;frame;frame count`), the input format of flamegraph
/// renderers.
fn cmd_flame(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (positional, options) = split_options(args)?;
    let [trace_path] = positional.as_slice() else {
        return Err(CliError::Usage("flame expects one trace file".into()));
    };
    let mut out_path: Option<&str> = None;
    for (key, value) in options {
        match key {
            "out" => out_path = Some(value),
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    let text = std::fs::read_to_string(trace_path)?;
    let folded = collapse_trace(&text).map_err(|e| CliError::Data(format!("{trace_path}: {e}")))?;
    match out_path {
        Some(path) => {
            std::fs::write(path, &folded)?;
            writeln!(out, "wrote {} stacks to {path}", folded.lines().count())?;
        }
        None => write!(out, "{folded}")?,
    }
    Ok(())
}

fn cmd_counters(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (positional, options) = split_options(args)?;
    let [family, max_text] = positional.as_slice() else {
        return Err(CliError::Usage(
            "counters expects a family and a maximum size".into(),
        ));
    };
    let mut metrics = false;
    let mut trace_path = None;
    let mut prom_path = None;
    for (key, value) in options {
        match key {
            "metrics" => metrics = true,
            "trace-json" => trace_path = Some(value),
            "prom" => prom_path = Some(value),
            other => return Err(CliError::Usage(format!("unknown option --{other}"))),
        }
    }
    let kind = parse_family(family)?;
    let max_n: u64 = parse_arg(max_text, "size", |_| true)?;
    if max_n == 0 || max_n > 40 {
        return Err(CliError::Usage(format!("size {max_n} out of range 1..=40")));
    }
    let telemetry_requested = metrics || trace_path.is_some() || prom_path.is_some();
    if telemetry_requested && max_n > 12 {
        return Err(CliError::Usage(format!(
            "--metrics/--trace-json/--prom run the real algorithms, which is only feasible up to n = 12 (got {max_n})"
        )));
    }
    writeln!(
        out,
        "{:<4} {:>16} {:>16} {:>20} {:>20} {:>16}",
        "n", "#csg", "#ccp", "I_DPsize", "I_DPsub", "I_DPccp"
    )?;
    for n in 2..=max_n {
        writeln!(
            out,
            "{:<4} {:>16} {:>16} {:>20} {:>20} {:>16}",
            n,
            csg_count(kind, n),
            ccp_distinct(kind, n),
            dpsize_inner(kind, n),
            dpsub_inner(kind, n),
            dpccp_inner(kind, n)
        )?;
    }
    if telemetry_requested {
        // The table above is closed formulas; with telemetry requested
        // the command also *measures*: each algorithm runs on a
        // seed-2006 workload per size, streamed to the trace file and
        // summarized as CSV rows (the `relations` column is n).
        let telemetry = Telemetry::new(metrics, trace_path, prom_path)?;
        let mut reports: Vec<RunReport> = Vec::new();
        for n in 2..=max_n {
            let w = workload::family_workload(kind, n as usize, 2006);
            let algorithms: [&dyn JoinOrderer; 4] = [&DpSize, &DpSub, &DpCcp, &DpConv];
            for alg in algorithms {
                telemetry.observe(|obs| alg.optimize_observed(&w.graph, &w.catalog, &Cout, obs))?;
                reports.extend(telemetry.report());
            }
        }
        if !reports.is_empty() {
            writeln!(out)?;
            writeln!(out, "measured (seed-2006 workloads):")?;
            writeln!(out, "{}", RunReport::csv_header())?;
            for report in &reports {
                writeln!(out, "{}", report.to_csv_row())?;
            }
        }
        telemetry.close()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_service::server::parse_query_text;

    /// The CLI file loader and the serve protocol share one SQL-or-DSL
    /// rule: every committed query file, and a SQL text behind a `#`
    /// comment, parses to the same spec — or fails with the same
    /// message — through both entry points.
    #[test]
    fn file_loader_and_serve_classify_query_text_alike() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths = Vec::new();
        for dir in ["tests/corpus", "workloads"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "query" || e == "sql") {
                    paths.push(path);
                }
            }
        }
        assert!(paths.len() >= 20, "{paths:?}");
        let commented =
            std::env::temp_dir().join(format!("joinopt-sniff-{}.sql", std::process::id()));
        std::fs::write(&commented, "# note\nSELECT * FROM a, b WHERE a.x = b.x\n").unwrap();
        paths.push(commented.clone());

        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            let served = parse_query_text(&text);
            match load_query(path.to_str().unwrap()) {
                Ok(q) => {
                    let loaded = q
                        .graph()
                        .and_then(|g| QuerySpec::capture(g, &q.catalog).ok());
                    assert_eq!(loaded, served.ok(), "{}", path.display());
                }
                Err(e) => {
                    let served = served.expect_err(&path.display().to_string());
                    assert!(
                        e.to_string().ends_with(&served),
                        "{}: {e} vs {served}",
                        path.display()
                    );
                }
            }
        }
        std::fs::remove_file(commented).unwrap();
    }
}
