//! `layerbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! layerbench --joinopt PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `layerbench/run.sh` builds both binaries and supplies `--joinopt` and
//! `--out`. Each invocation runs one workload (`serve-hot`, `serve-cold`
//! or `batch-dense`, see [`mix`]) and prints, as its last stdout line,
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced replay ([`layers`]) with `--trace 1`.
//! Every answer is re-checked against a cache-less in-process oracle,
//! and the server's counters must reconcile with the client's tally; a
//! wrong plan, an unreconciled counter or an unclean drain makes
//! `correct` false and the exit status 1.

mod layers;
mod mix;
mod wire;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use joinopt_core::{Algorithm, OptimizeRequest, Session};
use joinopt_cost::HashJoin;
use joinopt_service::server::parse_query_text;
use joinopt_service::{CostModelId, OptimizerService, ServiceConfig, ServiceRequest};
use joinopt_telemetry::json::JsonObject;
use joinopt_telemetry::NoopObserver;

use mix::{MixShares, Origin, Query, Stream, Workload};
use wire::{Answer, Sample, Server};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Tail percentiles, highest first. `tail_us` reports the workload's
/// [`Workload::tail_percentile`], or the next one down that still has at
/// least [`TAIL_MIN_BEYOND`] samples above it when a run is too short.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];
const TAIL_MIN_BEYOND: usize = 10;

struct Args {
    joinopt: PathBuf,
    out: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected `--key value` pairs, got {pair:?}")),
        }
    }
    let mut take = |k: &str| map.remove(k).ok_or(format!("missing --{k}"));
    let workload = take("workload")?;
    let args = Args {
        joinopt: take("joinopt")?.into(),
        out: take("out")?.into(),
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace takes 0 or 1, got {t:?}")),
        },
    };
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The first field of `/proc/loadavg` (one-minute load average).
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "?".into())
}

/// What one workload run measured, before the per-layer replay.
#[derive(Default)]
struct Run {
    warmup: Vec<Sample>,
    timed: Vec<Sample>,
    wall: Duration,
    setups: Vec<f64>,
    peak_rss_mb: f64,
    /// Reconciliation or drain failures.
    problems: Vec<String>,
}

fn run() -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    // One workload at a time on this machine: a second run waits here
    // instead of sharing the cores.
    let lock_path = args.out.join("layerbench.lock");
    let lock =
        std::fs::File::create(&lock_path).map_err(|e| format!("{}: {e}", lock_path.display()))?;
    lock.lock()
        .map_err(|e| format!("lock {}: {e}", lock_path.display()))?;

    let workload = args.workload;
    let load_before = loadavg();
    let stream = Stream::new(workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut run = match workload {
        Workload::ServeHot | Workload::ServeCold => {
            run_serve(&args, &stream, workload.connections().min(nproc), budget)?
        }
        Workload::BatchDense => run_batch(&stream, nproc, budget)?,
    };

    let oracle = oracle_answers(workload, run.warmup.iter().chain(&run.timed), nproc)?;
    let mut failed = 0u64;
    for (s, timed) in run
        .warmup
        .iter()
        .map(|s| (s, false))
        .chain(run.timed.iter().map(|s| (s, true)))
    {
        if let Err(e) = check(s, &oracle) {
            failed += u64::from(timed);
            if run.problems.len() < 5 {
                run.problems.push(e);
            }
        }
    }
    let attempted = run.timed.len() as u64;
    if attempted == 0 {
        return Err("the timed phase sent no request".into());
    }

    let mut latencies: Vec<u64> = run.timed.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let n = latencies.len();
    let rank = |p: f64| latencies[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1];
    let beyond = |p: f64| n - ((p / 100.0 * n as f64).ceil() as usize).min(n);
    let tail_p = TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= workload.tail_percentile())
        .find(|&p| beyond(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    let shares = MixShares::of(run.timed.iter().map(|s| &*s.query));

    println!(
        "# {} seed {} | nproc {nproc} | loadavg before {load_before} after {} | {} request(s) in {:.3} s",
        workload.name(),
        args.seed,
        loadavg(),
        n,
        run.wall.as_secs_f64()
    );
    println!(
        "# mix: exact {:.3} relabeled {:.3} fresh {:.3} acyclic {:.3} mean_n {:.2} mean_density {:.3}",
        shares.exact, shares.relabeled, shares.fresh, shares.acyclic, shares.mean_n, shares.mean_density
    );
    println!(
        "# latency_us: p50 {:.1} p90 {:.1} p95 {:.1} p99 {:.1} p99.9 {:.1} max {:.1}",
        rank(50.0) as f64 / 1e3,
        rank(90.0) as f64 / 1e3,
        rank(95.0) as f64 / 1e3,
        rank(99.0) as f64 / 1e3,
        rank(99.9) as f64 / 1e3,
        rank(100.0) as f64 / 1e3
    );
    println!(
        "# tail_us is p{tail_p} of {n} samples ({} beyond it); error_rate {:.6} ({failed} of {attempted})",
        beyond(tail_p),
        failed as f64 / attempted.max(1) as f64
    );

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let replay = match workload {
            Workload::BatchDense => layers::replay_batch(&stream, nproc)?,
            _ => layers::replay_serve(&stream, workload.replay_rounds())?,
        };
        let spans = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
        replay.write_spans(&spans)?;
        println!(
            "# replay: {} request(s), {} engine step(s), {} closed-form count check(s), spans in {}",
            replay.requests,
            replay.steps,
            replay.formula_checks,
            spans.display()
        );
        // The end-to-end mean over the very requests the replay walked.
        let replayed: Vec<u64> = run
            .timed
            .iter()
            .filter(|s| s.round < workload.replay_rounds())
            .map(|s| s.latency_ns)
            .collect();
        let mean_ns = replayed.iter().sum::<u64>() as f64 / replayed.len().max(1) as f64;
        replay.metrics(mean_ns, workload != Workload::BatchDense)
    } else {
        vec![
            ("p50_us".into(), rank(50.0) as f64 / 1e3, "us"),
            ("tail_us".into(), rank(tail_p) as f64 / 1e3, "us"),
            (
                "throughput_rps".into(),
                n as f64 / run.wall.as_secs_f64(),
                "req/s",
            ),
            ("setup_s".into(), median(&mut run.setups), "s"),
            ("peak_rss_mb".into(), run.peak_rss_mb, "MiB"),
        ]
    };

    for p in &run.problems {
        println!("# FAILED: {p}");
    }
    let correct = run.problems.is_empty() && failed == 0;
    let mut body = JsonObject::new();
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
        body = body.raw(
            name,
            &JsonObject::new()
                .f64("value", *value)
                .str("unit", unit)
                .finish(),
        );
    }
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", correct)
            .u64("attempted", attempted)
            .u64("failed", failed)
            .raw("metrics", &body.finish())
            .finish()
    );
    drop(lock);
    Ok(correct)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The socket path, relative to the working directory when it can be:
/// unix socket paths are limited to about a hundred bytes.
fn socket_path(out: &Path) -> PathBuf {
    let name = format!("layerbench-{}.sock", std::process::id());
    let cwd = std::env::current_dir().unwrap_or_default();
    out.strip_prefix(&cwd).unwrap_or(out).join(name)
}

/// A serve workload: [`SETUPS`] server set-ups (spawn → ready →
/// warm-up), each but the last shut down and reconciled, then the timed
/// closed loop on the last one.
fn run_serve(args: &Args, stream: &Stream, conns: usize, budget: Duration) -> Result<Run, String> {
    let socket = socket_path(&args.out);
    let mut run = Run::default();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let mut server = Server::spawn(&args.joinopt, &socket)?;
        run.warmup.extend(wire::warm_up(&mut server, stream)?);
        run.setups.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            if let Err(e) = server.finish() {
                run.problems.push(e);
            }
            continue;
        }
        let (timed, wall, rss) = wire::closed_loop(&mut server, stream, conns, budget)?;
        run.timed = timed;
        run.wall = wall;
        run.peak_rss_mb = rss;
        if let Err(e) = server.finish() {
            run.problems.push(e);
        }
    }
    Ok(run)
}

/// The library call `batch-dense` times: `Auto`, hash-join costs, all
/// of the machine's threads.
fn library_call(
    input: &layers::Input,
    round: u64,
    threads: usize,
    session: &mut Session,
) -> Sample {
    let t0 = Instant::now();
    let outcome = OptimizeRequest::new(&input.graph, &input.catalog)
        .with_cost_model(&HashJoin)
        .with_threads(threads)
        .run_in(session);
    let latency_ns = t0.elapsed().as_nanos() as u64;
    let answer = outcome.ok().map(|o| Answer {
        cost: o.result.cost,
        algorithm: o.algorithm,
        cache_hit: false,
    });
    Sample {
        query: Arc::clone(&input.query),
        round,
        latency_ns,
        answer,
    }
}

/// `batch-dense`: [`SETUPS`] set-ups (build the inputs, open a session,
/// run the batch's small queries once), then whole rounds of the batch
/// until the budget is spent.
fn run_batch(stream: &Stream, threads: usize, budget: Duration) -> Result<Run, String> {
    let mut run = Run::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let batch = layers::prepare(stream.round(0))?;
        let warm = layers::prepare(stream.warmup().to_vec())?;
        let mut session = Session::new();
        for input in &warm {
            run.warmup
                .push(library_call(input, u64::MAX, threads, &mut session));
        }
        run.setups.push(t0.elapsed().as_secs_f64());
        ready = Some((batch, session));
    }
    let (batch, mut session) = ready.ok_or("no set-up ran")?;
    let start = Instant::now();
    for round in 0.. {
        for input in &batch {
            run.timed
                .push(library_call(input, round, threads, &mut session));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    run.wall = start.elapsed();
    run.peak_rss_mb = wire::vm_hwm_mb("/proc/self/status")?;
    Ok(run)
}

/// A reference answer: plan cost and the algorithm `Auto` resolved to.
type Reference = (f64, Algorithm);

/// Cache-less reference answers, (cost, algorithm) per distinct query
/// (keyed by address), from an in-process [`OptimizerService`] without
/// a plan cache. Computed on `threads` workers after the timed phase.
fn oracle_answers<'a>(
    workload: Workload,
    samples: impl Iterator<Item = &'a Sample>,
    threads: usize,
) -> Result<HashMap<usize, Reference>, String> {
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&Arc<Query>> = samples
        .map(|s| &s.query)
        .filter(|q| seen.insert(Arc::as_ptr(q) as usize))
        .collect();
    let model = match workload {
        Workload::BatchDense => CostModelId::HashJoin,
        Workload::ServeHot | Workload::ServeCold => CostModelId::Cout,
    };
    let work = |first: usize| -> Result<Vec<(usize, Reference)>, String> {
        let service = OptimizerService::new(ServiceConfig {
            cache: None,
            ..ServiceConfig::default()
        });
        let mut session = None;
        distinct
            .iter()
            .skip(first)
            .step_by(threads)
            .map(|q| {
                let spec = parse_query_text(&q.text)?;
                let req = ServiceRequest::new(spec).with_cost_model(model);
                let outcome = service
                    .submit_one(&req, &mut session, &NoopObserver)
                    .map_err(|e| format!("oracle: {e}"))?;
                Ok((
                    Arc::as_ptr(q) as usize,
                    (outcome.result.cost, outcome.algorithm),
                ))
            })
            .collect()
    };
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || work(t))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle worker panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Fresh queries and exact repeats must match the oracle's cost bit for
/// bit; relabeled repeats within the conformance tolerance.
fn check(sample: &Sample, oracle: &HashMap<usize, Reference>) -> Result<(), String> {
    let answer = sample
        .answer
        .ok_or_else(|| format!("request failed or was refused:\n{}", sample.query.text))?;
    let (cost, algorithm) = oracle[&(Arc::as_ptr(&sample.query) as usize)];
    let same = match sample.query.origin {
        Origin::Relabeled => layers::same_cost(answer.cost, cost),
        Origin::Fresh | Origin::Exact => answer.cost.to_bits() == cost.to_bits(),
    };
    if !same || answer.algorithm != algorithm {
        return Err(format!(
            "wrong plan: got cost {} via {:?}, oracle {cost} via {algorithm:?} for\n{}",
            answer.cost, answer.algorithm, sample.query.text
        ));
    }
    Ok(())
}
