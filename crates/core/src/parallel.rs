//! Level-synchronous parallel DPsub and the pooled [`Session`].
//!
//! DPsub's subset loop `i = 1 … 2ⁿ−1` looks inherently sequential, but
//! its *dependency* structure is not: the best plan for a set `S`
//! depends only on sets that are strictly smaller than `S`. Stratifying
//! the enumeration by cardinality therefore yields a sequence of
//! *levels* — all sets of size `k` — whose members are mutually
//! independent and can be evaluated on any number of workers, provided
//! the workers only read plans from levels `< k` and their results are
//! merged before level `k + 1` starts (the same observation DPconv
//! exploits to restructure exact join ordering).
//!
//! The engine here evaluates each level across scoped [`std::thread`]
//! workers over disjoint, contiguous ranges of the size-`k` subsets
//! (enumerated in ascending numeric order by Gosper's hack). Workers
//! never touch the plan arena: each returns, per set it owns, the best
//! decomposition `(cost, S₁)` found by replaying DPsub's inner loop for
//! that set. The main thread merges worker outputs at the level barrier
//! in ascending set order, materializing exactly one arena node per set.
//!
//! # Determinism
//!
//! Results are **bit-identical to sequential DPsub at any thread
//! count**, because every choice the sequential algorithm makes is a
//! pure per-set function:
//!
//! * Each set is owned by exactly one worker, which replays the inner
//!   subset loop in the same ascending Vance/Maier order the sequential
//!   algorithm uses. Ties on cost keep the first candidate (strict `<`),
//!   so the winning decomposition is identical: min over
//!   `(cost, canonical S₁ order)`.
//! * The union's output cardinality is computed from the *first*
//!   successful decomposition (the sequential implementation caches it
//!   from the first table miss), so even floating-point rounding is
//!   reproduced exactly.
//! * The merge materializes plans in ascending set order per level, so
//!   arena ids do not depend on the thread count.
//!
//! The only observable difference from the sequential [`crate::DpSub`]
//! is `plans_built`: the sequential driver materializes an arena node
//! per *improvement*, the engine exactly one per set (the final best).
//! Plan, cost, cardinality, counters and table size are identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use joinopt_cost::{ensure_finite, CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::PlanArena;
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::{current_thread_id, Event, Observer};

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::error::OptimizeError;
use crate::failpoint;
use crate::result::DpResult;
use crate::table::{DenseDpTable, PlanTable, TableEntry};

/// Which DPsub variant the engine runs (same semantics and counter
/// conventions as the sequential [`crate::DpSub`],
/// [`crate::DpSubUnfiltered`] and [`crate::DpSubCrossProducts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DpSubVariant {
    /// Fig. 2 with the `*` connectedness pre-check.
    Filtered,
    /// Fig. 2 without the pre-check (ablation).
    Unfiltered,
    /// Vance/Maier with cross products (no connectivity tests).
    CrossProducts,
}

impl DpSubVariant {
    fn requires_connected(self) -> bool {
        !matches!(self, DpSubVariant::CrossProducts)
    }
}

/// Largest `n` the engine accepts: the level tables are
/// direct-addressed (`Θ(2ⁿ)` slots), exactly like the sequential
/// DPsub's [`DenseDpTable`]. Beyond this DPsub is infeasible anyway;
/// the request layer falls back to the sequential sparse-table path.
pub(crate) const MAX_ENGINE_RELATIONS: usize = DenseDpTable::MAX_RELATIONS;

/// Levels smaller than this run inline on the merge thread — spawning
/// workers for a handful of sets costs more than it saves.
const SPAWN_MIN_SETS: usize = 128;

/// One accepted plan produced by a worker, waiting to be materialized
/// at the level barrier.
#[derive(Debug, Clone, Copy)]
struct NewEntry {
    /// The union set (raw bits).
    set: u64,
    /// Winning left operand (raw bits); the right one is `set − s1`.
    s1: u64,
    /// Cardinality and cost of the winning plan.
    stats: PlanStats,
}

/// Per-worker instrumentation totals, merged at the barrier.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerTotals {
    inner: u64,
    ccp: u64,
    probes: u64,
    hits: u64,
}

/// Every monotonic clock read the engine performs for profiling goes
/// through this counter, so the zero-overhead guard test can assert
/// that an unobserved run reads the clock exactly zero times.
static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn clock_now() -> Instant {
    CLOCK_READS.fetch_add(1, Ordering::Relaxed);
    Instant::now()
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(clock_now().duration_since(since).as_nanos()).unwrap_or(u64::MAX)
}

/// Total profiling clock reads the engine has performed in this
/// process. Test instrumentation for the zero-overhead guarantee — not
/// a public API.
#[doc(hidden)]
pub fn engine_clock_reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

/// Every provenance candidate a worker buffers goes through this
/// counter (one bulk add per chunk), so the zero-overhead guard test
/// can assert that a run without a provenance-wanting observer buffers
/// exactly zero candidates.
static PROVENANCE_CANDIDATES: AtomicU64 = AtomicU64::new(0);

/// Total provenance candidates the engine has buffered in this
/// process. Test instrumentation for the zero-overhead guarantee — not
/// a public API.
#[doc(hidden)]
pub fn engine_provenance_candidates() -> u64 {
    PROVENANCE_CANDIDATES.load(Ordering::Relaxed)
}

/// One evaluated candidate split, buffered by a worker when the
/// observer requests provenance and replayed as
/// [`Event::PlanCandidate`] by the merge thread in worker order — so
/// the provenance stream stays single-threaded and deterministic at
/// any thread count.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    set: u64,
    s1: u64,
    s2: u64,
    cost: f64,
    accepted: bool,
}

/// What one worker hands back at the level barrier: its counter totals
/// plus (only when observed) its chunk-profiling sample.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkReport {
    totals: WorkerTotals,
    /// Sets of the level this worker owned.
    sets: usize,
    /// Wall time spent in the chunk (0 when unobserved).
    service_ns: u64,
    /// The worker's [`current_thread_id`] (0 when unobserved).
    thread_id: u64,
}

/// A reusable optimization session: pools the dense DP-table and
/// plan-arena allocations across repeated
/// [`OptimizeRequest`](crate::OptimizeRequest) calls, amortizing the
/// `Θ(2ⁿ)` table initialization and arena growth over a workload
/// instead of paying them per query.
///
/// One direct-addressed [`DenseDpTable`] serves the DPsub engine and
/// DPccp (up to [`crate::DpCcp::POOLED_MAX_RELATIONS`] relations);
/// DPconv keeps its own dense scratch here. A run resets only the
/// table's presence bitmap, and budgets charge a run for the storage it
/// addresses (`2ⁿ` slots for its `n`, plus its own plan nodes) — never
/// for capacity an earlier, larger query left behind.
///
/// Reuse is observable through the existing telemetry events: on a
/// fresh session the first run's `arena_stats.bytes` reflects the
/// growth reallocations, while subsequent runs of same-sized queries
/// report an arena that never grew ([`Session::pooled_bytes`] exposes
/// the same number programmatically).
///
/// ```
/// use joinopt_core::{OptimizeRequest, Session};
/// use joinopt_cost::workload;
/// use joinopt_qgraph::GraphKind;
///
/// let mut session = Session::new();
/// for seed in 0..4 {
///     let w = workload::family_workload(GraphKind::Clique, 8, seed);
///     let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
///         .run_in(&mut session)
///         .unwrap();
///     assert_eq!(outcome.result.tree.num_relations(), 8);
/// }
/// assert_eq!(session.runs(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Session {
    /// Pooled `BestPlan` storage, direct-addressed by set bits.
    table: DenseDpTable,
    /// Pooled plan arena, cleared (not shrunk) between runs.
    arena: PlanArena,
    /// Scratch: the current level's subsets, ascending.
    level_sets: Vec<u64>,
    /// Scratch: per-worker output buffers.
    outputs: Vec<Vec<NewEntry>>,
    /// Pooled dense state for DPconv runs (connectivity bitmap,
    /// cardinality/cost tables, witness array, rank lists).
    dpconv: crate::dpconv::DpConvScratch,
    /// Number of optimization runs served.
    runs: u64,
}

impl Session {
    /// Creates an empty session; buffers grow on first use.
    pub fn new() -> Session {
        Session::default()
    }

    /// Number of optimization runs this session has served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Bytes currently held by the pooled buffers (tables, bitmap,
    /// arena) — the allocation a fresh run gets for free.
    pub fn pooled_bytes(&self) -> usize {
        self.table.allocated_bytes() + self.arena.bytes() + self.dpconv.bytes()
    }

    /// The pooled DPconv scratch, counting the hand-out as a served run.
    pub(crate) fn dpconv_scratch(&mut self) -> &mut crate::dpconv::DpConvScratch {
        self.runs += 1;
        &mut self.dpconv
    }

    /// The pooled `BestPlan` table, reset for a run over `n` relations,
    /// counting the hand-out as a served run.
    pub(crate) fn dense_table(&mut self, n: usize) -> &mut DenseDpTable {
        self.table.reset(n);
        self.runs += 1;
        &mut self.table
    }

    /// Readies the pooled table and arena for an engine run over `n`
    /// relations; neither ever shrinks.
    fn prepare(&mut self, n: usize) {
        self.dense_table(n);
        self.arena.clear();
    }

    /// What the current engine run addresses: its `2ⁿ` table slots and
    /// its own plan nodes, whatever the pooled capacity.
    fn run_bytes(&self) -> usize {
        self.table.bytes() + self.arena.used_bytes()
    }
}

/// Shared read-only state a level's workers operate on.
struct LevelShared<'a> {
    g: &'a QueryGraph,
    est: &'a CardinalityEstimator,
    model: &'a dyn CostModel,
    table: &'a DenseDpTable,
    variant: DpSubVariant,
    observe: bool,
}

/// Replays DPsub's inner loop for every set in `sets`, appending the
/// accepted plans to `out` in input (ascending) order.
///
/// This is the exact per-set computation of the sequential algorithms,
/// including counter and probe conventions — see the module docs for
/// why the result is bit-identical. Every worker polls `ctl` inside
/// its inner subset loop (paced), so a tripped budget or a flipped
/// cancel flag stops the level mid-chunk instead of at the next
/// barrier.
fn process_chunk(
    sh: &LevelShared<'_>,
    sets: &[u64],
    out: &mut Vec<NewEntry>,
    mut cands: Option<&mut Vec<Candidate>>,
    ctl: &CancellationToken,
) -> Result<ChunkReport, OptimizeError> {
    let chunk_start = sh.observe.then(clock_now);
    let mut t = WorkerTotals::default();
    let mut pace = 0u32;
    for &bits in sets {
        let s = RelSet::from_bits(bits);
        // The `*` check of Fig. 2 (outer connectedness pre-check).
        if sh.variant == DpSubVariant::Filtered && !sh.g.is_connected_set(s) {
            continue;
        }
        let mut best: Option<(f64, u64)> = None;
        let mut card = 0.0f64;
        for s1 in s.non_empty_proper_subsets() {
            t.inner += 1;
            ctl.checkpoint(&mut pace)?;
            let s2 = s - s1;
            match sh.variant {
                DpSubVariant::Filtered => {
                    // "connected S1/S2" via table membership, with the
                    // sequential short-circuit probe accounting.
                    let p1 = sh.table.is_present(s1.bits());
                    if sh.observe {
                        t.probes += 1;
                        t.hits += u64::from(p1);
                    }
                    if !p1 {
                        continue;
                    }
                    let p2 = sh.table.is_present(s2.bits());
                    if sh.observe {
                        t.probes += 1;
                        t.hits += u64::from(p2);
                    }
                    if !p2 {
                        continue;
                    }
                    if !sh.g.sets_connected(s1, s2) {
                        continue;
                    }
                }
                DpSubVariant::Unfiltered => {
                    // The ablation probes both operands unconditionally.
                    let p1 = sh.table.is_present(s1.bits());
                    let p2 = sh.table.is_present(s2.bits());
                    if sh.observe {
                        t.probes += 2;
                        t.hits += u64::from(p1) + u64::from(p2);
                    }
                    if !(p1 && p2) {
                        continue;
                    }
                    if !sh.g.sets_connected(s1, s2) {
                        continue;
                    }
                }
                DpSubVariant::CrossProducts => {
                    // Every split is valid; all smaller sets have plans.
                }
            }
            t.ccp += 1;
            // Union probe: a hit once a previous pair registered the set.
            if sh.observe {
                t.probes += 1;
                t.hits += u64::from(best.is_some());
            }
            let st1 = sh.table.stats[s1.bits() as usize];
            let st2 = sh.table.stats[s2.bits() as usize];
            if best.is_none() {
                // The set's output cardinality, computed (like the
                // sequential table's first miss) from the first
                // successful decomposition and reused afterwards.
                card = ensure_finite(
                    "cardinality",
                    sh.est
                        .join_cardinality(st1.cardinality, st2.cardinality, s1, s2),
                )?;
            }
            let cost = ensure_finite("cost", sh.model.join_cost(&st1, &st2, card))?;
            let accepted = match &mut best {
                None => {
                    best = Some((cost, s1.bits()));
                    true
                }
                Some((bc, bs)) => {
                    // Strict improvement only: ties keep the first
                    // (canonically smallest) S1, as in the sequential run.
                    // The behavioral failpoint inverts the tie policy
                    // (keep-last) so the conformance harness can prove
                    // its engine-vs-sequential check catches the drift.
                    if cost < *bc || (cost == *bc && failpoint::flag("engine-tiebreak-invert")) {
                        *bc = cost;
                        *bs = s1.bits();
                        true
                    } else {
                        false
                    }
                }
            };
            if let Some(buf) = cands.as_deref_mut() {
                buf.push(Candidate {
                    set: bits,
                    s1: s1.bits(),
                    s2: s2.bits(),
                    cost,
                    accepted,
                });
            }
        }
        if let Some((cost, s1)) = best {
            out.push(NewEntry {
                set: bits,
                s1,
                stats: PlanStats {
                    cardinality: card,
                    cost,
                },
            });
        }
    }
    if let Some(buf) = &cands {
        // Buffers are cleared at the level barrier, so the length is
        // exactly this chunk's contribution.
        PROVENANCE_CANDIDATES.fetch_add(buf.len() as u64, Ordering::Relaxed);
    }
    Ok(match chunk_start {
        Some(start) => ChunkReport {
            totals: t,
            sets: sets.len(),
            service_ns: elapsed_ns(start),
            thread_id: current_thread_id(),
        },
        None => ChunkReport {
            totals: t,
            ..ChunkReport::default()
        },
    })
}

/// Appends all size-`k` subsets of an `n`-relation universe to `out`,
/// ascending (Gosper's hack).
fn push_level_sets(n: usize, k: usize, out: &mut Vec<u64>) {
    debug_assert!((1..=n).contains(&k) && n < 64);
    let limit = 1u64 << n;
    let mut v = (1u64 << k) - 1;
    while v < limit {
        out.push(v);
        if k == n {
            break; // the full set is the only member of its level
        }
        let c = v & v.wrapping_neg();
        let r = v + c;
        v = (((r ^ v) >> 2) / c) | r;
    }
}

/// Runs level-synchronous DPsub over `threads` workers using the
/// pooled buffers of `session`.
///
/// `ctl` is consulted at every level barrier (full check) and inside
/// every worker's inner loop (paced checkpoint); the pooled buffers and
/// all arena growth are charged against its memory budget. All workers
/// of a level are joined before an error returns, and a panicking
/// worker surfaces as [`OptimizeError::Internal`] instead of unwinding
/// into the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_level_synchronous(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
    variant: DpSubVariant,
    threads: usize,
    session: &mut Session,
    algorithm: &'static str,
    obs: &dyn Observer,
    ctl: &CancellationToken,
) -> Result<DpResult, OptimizeError> {
    let observe = obs.enabled();
    let provenance = observe && obs.wants_provenance();
    let n = g.num_relations();
    debug_assert!(n <= MAX_ENGINE_RELATIONS, "engine capped at dense-table n");
    if observe {
        // As in the sequential driver: emitted before validation so
        // failed runs still leave a `run_start` in the trace.
        obs.on_event(Event::RunStart {
            algorithm,
            relations: n,
        });
        obs.on_event(Event::PhaseStart { phase: "init" });
    }
    if n == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    if variant.requires_connected() {
        g.require_connected()?;
    }
    ctl.check()?;
    failpoint::check("estimator")?;
    let est = CardinalityEstimator::new(g, catalog)?;
    session.prepare(n);
    let mut charged = session.run_bytes();
    ctl.charge(charged)?;

    // Level 1: singleton plans.
    for i in 0..n {
        let card = est.base_cardinality(i);
        let plan = session.arena.add_scan(i, card);
        let stats = PlanStats::base(card);
        session
            .table
            .insert(RelSet::single(i), TableEntry { plan, stats });
    }
    let mut level_new: Vec<u64> = Vec::new();
    if observe {
        level_new = vec![0u64; n + 1];
        level_new[1] = n as u64;
        obs.on_event(Event::PhaseEnd { phase: "init" });
        obs.on_event(Event::PhaseStart { phase: "enumerate" });
    }

    let workers = threads.max(1);
    if session.outputs.len() < workers {
        session.outputs.resize_with(workers, Vec::new);
    }
    let mut totals = WorkerTotals::default();
    // This level's chunk reports, in worker order (reused across
    // levels; capacity is bounded by the worker count).
    let mut level_reports: Vec<ChunkReport> = Vec::with_capacity(workers);
    // Per-worker provenance buffers, allocated only when the observer
    // asks for provenance — an unobserved (or merely metrics-observed)
    // run performs no provenance work at all.
    let mut cand_outputs: Vec<Vec<Candidate>> = if provenance {
        (0..workers).map(|_| Vec::new()).collect()
    } else {
        Vec::new()
    };

    // Levels 2..=n, with a barrier (the merge) between levels.
    // (`level_new[k]` is bumped during the merge — the index is the
    // level itself, not an iteration artifact.)
    #[allow(clippy::needless_range_loop)]
    for k in 2..=n {
        ctl.check()?;
        session.level_sets.clear();
        push_level_sets(n, k, &mut session.level_sets);
        let level_len = session.level_sets.len();
        let spawned = if workers > 1 && level_len >= SPAWN_MIN_SETS {
            workers
        } else {
            1
        };
        {
            let shared = LevelShared {
                g,
                est: &est,
                model,
                table: &session.table,
                variant,
                observe,
            };
            let sets = &session.level_sets;
            let outs = &mut session.outputs[..spawned];
            for out in outs.iter_mut() {
                out.clear();
            }
            for cands in cand_outputs.iter_mut() {
                cands.clear();
            }
            level_reports.clear();
            if spawned == 1 {
                level_reports.push(process_chunk(
                    &shared,
                    sets,
                    &mut outs[0],
                    cand_outputs.first_mut(),
                    ctl,
                )?);
            } else {
                // Contiguous ranges keep each worker's output ascending,
                // so concatenation in worker order restores the global
                // ascending set order the merge relies on.
                let shared = &shared;
                let mut cand_slots = cand_outputs.iter_mut();
                let chunk_results = std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(spawned);
                    let mut results = Vec::with_capacity(spawned);
                    for (w, out) in outs.iter_mut().enumerate() {
                        let cands = cand_slots.next();
                        let lo = level_len * w / spawned;
                        let hi = level_len * (w + 1) / spawned;
                        let chunk = &sets[lo..hi];
                        match failpoint::check("worker-spawn") {
                            Ok(()) => handles.push(
                                scope.spawn(move || process_chunk(shared, chunk, out, cands, ctl)),
                            ),
                            Err(e) => results.push(Err(e)),
                        }
                    }
                    // Join every handle before surfacing an error: a
                    // scoped thread left unjoined would re-raise its
                    // panic when the scope closes.
                    for h in handles {
                        results.push(match h.join() {
                            Ok(r) => r,
                            Err(_) => {
                                Err(OptimizeError::Internal("a level worker panicked".into()))
                            }
                        });
                    }
                    results
                });
                for r in chunk_results {
                    match r {
                        Ok(cr) => level_reports.push(cr),
                        // Prefer the token's latched trip over whichever
                        // worker error happened to be collected first —
                        // deterministic cause at any thread count.
                        Err(e) => return Err(ctl.trip_error().unwrap_or(e)),
                    }
                }
            }
        }
        for cr in &level_reports {
            totals.merge(cr.totals);
        }
        // Replay the workers' buffered candidates in worker order (so
        // concatenation restores ascending set order): the provenance
        // stream is emitted from this one thread, deterministic at any
        // thread count, and observers need not be `Sync`. Emitted
        // before the merge clock starts so `merge_ns` stays a pure
        // materialization measurement.
        if provenance {
            for cands in cand_outputs.iter().take(spawned) {
                for c in cands {
                    obs.on_event(Event::PlanCandidate {
                        set: c.set,
                        left: c.s1,
                        right: c.s2,
                        cost: c.cost,
                        accepted: c.accepted,
                    });
                }
            }
        }
        // Barrier: materialize this level's winners, ascending. Split
        // borrows: worker outputs are read while the tables and arena
        // mutate.
        let merge_start = observe.then(clock_now);
        {
            let Session {
                table,
                arena,
                outputs,
                ..
            } = &mut *session;
            for chunk_out in outputs.iter().take(spawned) {
                for e in chunk_out {
                    let s2 = e.set & !e.s1;
                    let (left, right) = (table.plans[e.s1 as usize], table.plans[s2 as usize]);
                    let plan = arena.add_join(left, right, e.stats);
                    let stats = e.stats;
                    table.insert(RelSet::from_bits(e.set), TableEntry { plan, stats });
                    if observe {
                        level_new[k] += 1;
                    }
                }
            }
        }
        // The per-level profile: one `worker_chunk` per worker (in
        // worker order, so the stream is deterministic) and a
        // `level_sync` rollup. Emitted from the merge thread — workers
        // hand their samples back instead of emitting, so observers
        // need not be `Sync`.
        if let Some(start) = merge_start {
            let merge_ns = elapsed_ns(start);
            let mut max_service_ns = 0u64;
            let mut total_service_ns = 0u64;
            for (w, cr) in level_reports.iter().enumerate() {
                obs.on_event(Event::WorkerChunk {
                    level: k,
                    worker: w,
                    thread_id: cr.thread_id,
                    sets: cr.sets,
                    service_ns: cr.service_ns,
                    inner: cr.totals.inner,
                    pairs: cr.totals.ccp,
                });
                max_service_ns = max_service_ns.max(cr.service_ns);
                total_service_ns += cr.service_ns;
            }
            obs.on_event(Event::LevelSync {
                level: k,
                workers: spawned,
                merge_ns,
                max_service_ns,
                total_service_ns,
                idle_ns: spawned as u64 * max_service_ns - total_service_ns,
            });
        }
        // Charge this level's new plan nodes.
        let now = session.run_bytes();
        if now > charged {
            ctl.charge(now - charged)?;
            charged = now;
        }
    }

    let mut counters = Counters::new();
    counters.inner = totals.inner;
    counters.csg_cmp_pairs = totals.ccp;
    counters.ono_lohman = totals.ccp / 2;

    if observe {
        obs.on_event(Event::PhaseEnd { phase: "enumerate" });
        obs.on_event(Event::PhaseStart { phase: "extract" });
    }
    let Some(entry) = session.table.get(g.all_relations()) else {
        return Err(OptimizeError::Internal(
            "engine finished without a plan for the full relation set".into(),
        ));
    };
    let table_entries = session.table.len();
    let tree = session.arena.extract(entry.plan);
    if observe {
        obs.on_event(Event::PhaseEnd { phase: "extract" });
        for (size, &new_entries) in level_new.iter().enumerate() {
            if new_entries > 0 {
                obs.on_event(Event::DpLevel { size, new_entries });
            }
        }
        obs.on_event(Event::TableStats {
            entries: table_entries,
            capacity: 1usize << n,
            probes: totals.probes,
            hits: totals.hits,
        });
        obs.on_event(Event::ArenaStats {
            nodes: session.arena.len(),
            bytes: session.arena.bytes(),
        });
        obs.on_event(Event::FinalCounters {
            inner: counters.inner,
            csg_cmp_pairs: counters.csg_cmp_pairs,
            ono_lohman: counters.ono_lohman,
        });
        obs.on_event(Event::RunEnd);
    }
    Ok(DpResult {
        cost: entry.stats.cost,
        cardinality: entry.stats.cardinality,
        tree,
        counters,
        table_size: table_entries,
        plans_built: session.arena.len(),
    })
}

impl WorkerTotals {
    fn merge(&mut self, other: WorkerTotals) {
        self.inner += other.inner;
        self.ccp += other.ccp;
        self.probes += other.probes;
        self.hits += other.hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::{workload, Cout};
    use joinopt_qgraph::GraphKind;
    use joinopt_telemetry::NoopObserver;

    fn run(
        kind: GraphKind,
        n: usize,
        seed: u64,
        variant: DpSubVariant,
        threads: usize,
    ) -> DpResult {
        let w = workload::family_workload(kind, n, seed);
        let mut session = Session::new();
        run_level_synchronous(
            &w.graph,
            &w.catalog,
            &Cout,
            variant,
            threads,
            &mut session,
            "DPsub",
            &NoopObserver,
            &CancellationToken::unlimited(),
        )
        .unwrap()
    }

    #[test]
    fn gosper_enumerates_levels_completely_and_ascending() {
        let mut all = Vec::new();
        for k in 1..=6 {
            let mut level = Vec::new();
            push_level_sets(6, k, &mut level);
            assert!(level.windows(2).all(|w| w[0] < w[1]), "k={k} not ascending");
            assert!(
                level.iter().all(|b| b.count_ones() as usize == k),
                "k={k} has wrong popcounts"
            );
            all.extend(level);
        }
        all.sort_unstable();
        assert_eq!(all.len(), (1 << 6) - 1, "all non-empty subsets visited");
    }

    #[test]
    fn matches_sequential_dpsub_exactly() {
        use crate::dpsub::DpSub;
        use crate::result::JoinOrderer as _;
        for kind in GraphKind::ALL {
            let w = workload::family_workload(kind, 9, 3);
            let seq = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            for threads in [1, 2, 4] {
                let par = run(kind, 9, 3, DpSubVariant::Filtered, threads);
                assert_eq!(seq.cost.to_bits(), par.cost.to_bits(), "{kind} t={threads}");
                assert_eq!(
                    seq.cardinality.to_bits(),
                    par.cardinality.to_bits(),
                    "{kind} t={threads}"
                );
                assert_eq!(seq.tree, par.tree, "{kind} t={threads}");
                assert_eq!(seq.counters, par.counters, "{kind} t={threads}");
                assert_eq!(seq.table_size, par.table_size, "{kind} t={threads}");
            }
        }
    }

    #[test]
    fn session_reuse_is_deterministic_and_pools_allocations() {
        let w = workload::family_workload(GraphKind::Cycle, 10, 1);
        let mut session = Session::new();
        let first = run_level_synchronous(
            &w.graph,
            &w.catalog,
            &Cout,
            DpSubVariant::Filtered,
            2,
            &mut session,
            "DPsub",
            &NoopObserver,
            &CancellationToken::unlimited(),
        )
        .unwrap();
        let pooled = session.pooled_bytes();
        assert!(pooled > 0);
        for _ in 0..3 {
            let again = run_level_synchronous(
                &w.graph,
                &w.catalog,
                &Cout,
                DpSubVariant::Filtered,
                2,
                &mut session,
                "DPsub",
                &NoopObserver,
                &CancellationToken::unlimited(),
            )
            .unwrap();
            assert_eq!(first.cost.to_bits(), again.cost.to_bits());
            assert_eq!(first.tree, again.tree);
            // No regrowth: the pool already fits the workload.
            assert_eq!(session.pooled_bytes(), pooled);
        }
        assert_eq!(session.runs(), 4);
    }

    #[test]
    fn zero_time_budget_aborts_the_engine() {
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let mut session = Session::new();
        let budget = std::time::Duration::ZERO;
        let ctl = CancellationToken::new(None, Some(budget), None);
        let err = run_level_synchronous(
            &w.graph,
            &w.catalog,
            &Cout,
            DpSubVariant::Filtered,
            2,
            &mut session,
            "DPsub",
            &NoopObserver,
            &ctl,
        )
        .unwrap_err();
        assert_eq!(err, OptimizeError::TimeBudgetExceeded { budget });
    }

    #[test]
    fn cancel_flag_stops_workers_inside_a_level() {
        use crate::cancel::CancelFlag;
        let w = workload::family_workload(GraphKind::Clique, 14, 0);
        let mut session = Session::new();
        let flag = CancelFlag::new();
        flag.cancel(); // pre-cancelled: the first checkpoint anywhere trips
        let ctl = CancellationToken::new(Some(flag), None, None);
        let err = run_level_synchronous(
            &w.graph,
            &w.catalog,
            &Cout,
            DpSubVariant::Filtered,
            4,
            &mut session,
            "DPsub",
            &NoopObserver,
            &ctl,
        )
        .unwrap_err();
        assert_eq!(err, OptimizeError::Cancelled);
    }

    #[test]
    fn memory_budget_trips_on_the_pooled_footprint() {
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let mut session = Session::new();
        let ctl = CancellationToken::new(None, None, Some(1024));
        let err = run_level_synchronous(
            &w.graph,
            &w.catalog,
            &Cout,
            DpSubVariant::Filtered,
            2,
            &mut session,
            "DPsub",
            &NoopObserver,
            &ctl,
        )
        .unwrap_err();
        assert!(matches!(err, OptimizeError::MemoryBudgetExceeded { .. }));
        assert!(ctl.memory_used() > 1024);
    }
}
