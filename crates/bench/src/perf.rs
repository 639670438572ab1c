//! The performance-baseline subsystem behind `joinopt perf`.
//!
//! Runs a pinned workload matrix — chain/star/clique × DPsize, DPccp,
//! DPconv and DPsub at each configured thread count — and records, per
//! cell,
//! the paper's counters, the DP-table and arena footprint, the optimal
//! cost's exact bit pattern, the median-of-k wall time and the parallel
//! engine's worker utilization. The result serializes to
//! `BENCH_joinopt.json` (schema `joinopt-perf-v1`, documented in
//! `docs/observability.md`) and [`PerfBaseline::check`] diffs a fresh
//! run against a committed baseline:
//!
//! * **counters, table entries and cost bits are exact** — they are
//!   deterministic functions of the workload, so *any* drift is a
//!   regression (or an intended change that must re-pin the baseline);
//! * **arena bytes are exact in full mode** — deterministic too, but
//!   only meaningful when both sides ran the same engine path;
//! * **wall time is noise-gated in full mode** — a cell fails only when
//!   it is slower than `baseline × (1 + noise)`;
//! * **counters-only mode skips both time and bytes**, making the check
//!   hardware-independent — this is the CI smoke gate.

use joinopt_core::{Algorithm, OptimizeRequest};
use joinopt_cost::workload::family_workload;
use joinopt_qgraph::GraphKind;
use joinopt_telemetry::json::{write_escaped, write_f64, JsonValue};
use joinopt_telemetry::{Fanout, MetricsCollector, Observer};

/// The pinned graph families of the matrix (the paper's structural
/// extremes: sparsest, star-shaped, densest).
pub const PERF_FAMILIES: [GraphKind; 3] = [GraphKind::Chain, GraphKind::Star, GraphKind::Clique];

/// Current baseline schema identifier.
pub const SCHEMA: &str = "joinopt-perf-v1";

/// Configuration of a perf-baseline run — embedded in the baseline
/// file, so `--check` replays exactly what was pinned.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfConfig {
    /// Relations per query (one fixed size keeps the run fast).
    pub n: usize,
    /// Repetitions per cell; the recorded wall time is the median and
    /// the counters must be identical across all of them.
    pub reps: usize,
    /// Workload seed.
    pub seed: u64,
    /// Thread counts the DPsub engine cells run at.
    pub threads: Vec<usize>,
    /// Allowed relative wall-time regression in full-mode checks
    /// (0.5 = 50% slower still passes).
    pub noise: f64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            n: 10,
            reps: 5,
            seed: 2006,
            threads: vec![1, 2, 4],
            noise: 0.5,
        }
    }
}

/// One measured cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCell {
    /// Graph family name (`"chain"`, `"star"`, `"clique"`).
    pub family: String,
    /// Algorithm name (`"DPsize"`, `"DPsub"`, `"DPccp"`).
    pub algorithm: String,
    /// Worker threads the cell ran with.
    pub threads: usize,
    /// `InnerCounter`.
    pub inner: u64,
    /// `CsgCmpPairCounter`.
    pub csg_cmp_pairs: u64,
    /// `OnoLohmanCounter`.
    pub ono_lohman: u64,
    /// Final DP-table size.
    pub table_entries: u64,
    /// Plan-arena bytes.
    pub arena_bytes: u64,
    /// Exact IEEE-754 bit pattern of the optimal plan's cost.
    pub cost_bits: u64,
    /// Median wall time across the configured repetitions.
    pub wall_ns: u64,
    /// Run-wide worker utilization of the median rep. `None` for
    /// sequential algorithms, which synchronize no worker levels —
    /// utilization is not a property of those runs (omitted from the
    /// JSON, rendered as `-` in the table).
    pub utilization: Option<f64>,
}

impl PerfCell {
    fn key(&self) -> (String, String, usize) {
        (self.family.clone(), self.algorithm.clone(), self.threads)
    }
}

/// A complete baseline: the config that produced it plus every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBaseline {
    /// The matrix configuration (replayed by `--check`).
    pub config: PerfConfig,
    /// Cells in matrix order: family-major, then algorithm/threads.
    pub cells: Vec<PerfCell>,
}

/// The cells of the matrix for `config`, in deterministic order.
fn matrix(config: &PerfConfig) -> Vec<(GraphKind, Algorithm, &'static str, usize)> {
    let mut cells = Vec::new();
    for kind in PERF_FAMILIES {
        cells.push((kind, Algorithm::DpSize, "DPsize", 1));
        cells.push((kind, Algorithm::DpCcp, "DPccp", 1));
        // DPconv rides the same workloads (the default model is C_out,
        // the only one it accepts); the clique cell against DPccp's is
        // the committed crossover evidence for the `Auto` policy.
        cells.push((kind, Algorithm::DpConv, "DPconv", 1));
        for &t in &config.threads {
            cells.push((kind, Algorithm::DpSub, "DPsub", t.max(1)));
        }
    }
    cells
}

/// Runs the full matrix and returns the measured baseline. Every
/// cell's run additionally reports to `obs` (pass
/// [`NoopObserver`](joinopt_telemetry::NoopObserver) for
/// none; the internal metrics collector that measures the cells is
/// unaffected), so `joinopt perf --trace-json/--prom` can stream or
/// aggregate a whole matrix run.
///
/// # Errors
///
/// Returns a message when a cell's optimizer run fails or its counters
/// are not bit-stable across the configured repetitions (which would
/// mean the determinism contract is broken — a real bug).
pub fn run_matrix(config: &PerfConfig, obs: &dyn Observer) -> Result<PerfBaseline, String> {
    let reps = config.reps.max(1);
    let mut cells = Vec::new();
    for (kind, alg, alg_name, threads) in matrix(config) {
        let w = family_workload(kind, config.n, config.seed);
        let mut walls: Vec<u64> = Vec::with_capacity(reps);
        let mut pinned: Option<PerfCell> = None;
        for rep in 0..reps {
            let collector = MetricsCollector::new();
            let sinks: [&dyn Observer; 2] = [&collector, obs];
            let fanout = Fanout::new(&sinks);
            let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(alg)
                .with_threads(threads)
                .with_observer(&fanout)
                .run()
                .map_err(|e| format!("{} {alg_name} t={threads}: {e}", kind.name()))?;
            let report = collector.report();
            let result = outcome.into_result();
            let cell = PerfCell {
                family: kind.name().to_string(),
                algorithm: alg_name.to_string(),
                threads,
                inner: result.counters.inner,
                csg_cmp_pairs: result.counters.csg_cmp_pairs,
                ono_lohman: result.counters.ono_lohman,
                table_entries: result.table_size as u64,
                arena_bytes: report.arena_bytes as u64,
                cost_bits: result.cost.to_bits(),
                wall_ns: report.total_ns,
                utilization: report.worker_utilization(),
            };
            walls.push(report.total_ns);
            match &pinned {
                None => pinned = Some(cell),
                Some(first) => {
                    // Everything but the timing-derived fields must be
                    // bit-stable across repetitions.
                    let same = first.inner == cell.inner
                        && first.csg_cmp_pairs == cell.csg_cmp_pairs
                        && first.ono_lohman == cell.ono_lohman
                        && first.table_entries == cell.table_entries
                        && first.arena_bytes == cell.arena_bytes
                        && first.cost_bits == cell.cost_bits;
                    if !same {
                        return Err(format!(
                            "{} {alg_name} t={threads}: counters unstable at rep {rep} \
                             (determinism contract broken)",
                            kind.name()
                        ));
                    }
                }
            }
        }
        let mut cell = pinned.unwrap_or_default();
        walls.sort_unstable();
        cell.wall_ns = walls[walls.len() / 2];
        cells.push(cell);
    }
    Ok(PerfBaseline {
        config: config.clone(),
        cells,
    })
}

impl Default for PerfCell {
    fn default() -> Self {
        PerfCell {
            family: String::new(),
            algorithm: String::new(),
            threads: 1,
            inner: 0,
            csg_cmp_pairs: 0,
            ono_lohman: 0,
            table_entries: 0,
            arena_bytes: 0,
            cost_bits: 0,
            wall_ns: 0,
            utilization: None,
        }
    }
}

impl PerfBaseline {
    /// Serializes the baseline as pretty-stable JSON (one cell per
    /// line). `cost_bits` is written as a hex *string* because the
    /// dependency-free JSON parser goes through `f64` and would corrupt
    /// bit patterns above 2⁵³.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut s = String::from("{\n  \"schema\": ");
        write_escaped(&mut s, SCHEMA);
        s.push_str(&format!(
            ",\n  \"config\": {{\"n\": {}, \"reps\": {}, \"seed\": {}, \"threads\": [{}], \"noise\": ",
            c.n,
            c.reps,
            c.seed,
            c.threads
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        write_f64(&mut s, c.noise);
        s.push_str("},\n  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str("    {\"family\": ");
            write_escaped(&mut s, &cell.family);
            s.push_str(", \"algorithm\": ");
            write_escaped(&mut s, &cell.algorithm);
            s.push_str(&format!(
                ", \"threads\": {}, \"inner\": {}, \"csg_cmp_pairs\": {}, \"ono_lohman\": {}, \
                 \"table_entries\": {}, \"arena_bytes\": {}, \"cost_bits\": \"{:016x}\", \
                 \"wall_ns\": {}",
                cell.threads,
                cell.inner,
                cell.csg_cmp_pairs,
                cell.ono_lohman,
                cell.table_entries,
                cell.arena_bytes,
                cell.cost_bits,
                cell.wall_ns
            ));
            if let Some(utilization) = cell.utilization {
                s.push_str(", \"utilization\": ");
                write_f64(&mut s, utilization);
            }
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a baseline file produced by [`PerfBaseline::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema tag, or a
    /// missing/mistyped field.
    pub fn parse(text: &str) -> Result<PerfBaseline, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("baseline: missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("baseline: schema {schema:?}, expected {SCHEMA:?}"));
        }
        let cfg = v.get("config").ok_or("baseline: missing \"config\"")?;
        let field_u64 = |obj: &JsonValue, name: &str| -> Result<u64, String> {
            obj.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("baseline: missing field {name:?}"))
        };
        let config = PerfConfig {
            n: field_u64(cfg, "n")? as usize,
            reps: field_u64(cfg, "reps")? as usize,
            seed: field_u64(cfg, "seed")?,
            threads: cfg
                .get("threads")
                .and_then(JsonValue::as_array)
                .ok_or("baseline: missing \"threads\"")?
                .iter()
                .map(|t| t.as_u64().map(|t| t as usize))
                .collect::<Option<Vec<_>>>()
                .ok_or("baseline: non-integer thread count")?,
            noise: cfg
                .get("noise")
                .and_then(JsonValue::as_f64)
                .ok_or("baseline: missing \"noise\"")?,
        };
        let mut cells = Vec::new();
        for cell in v
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or("baseline: missing \"cells\"")?
        {
            let text_field = |name: &str| -> Result<String, String> {
                cell.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline: missing field {name:?}"))
            };
            let bits_hex = text_field("cost_bits")?;
            cells.push(PerfCell {
                family: text_field("family")?,
                algorithm: text_field("algorithm")?,
                threads: field_u64(cell, "threads")? as usize,
                inner: field_u64(cell, "inner")?,
                csg_cmp_pairs: field_u64(cell, "csg_cmp_pairs")?,
                ono_lohman: field_u64(cell, "ono_lohman")?,
                table_entries: field_u64(cell, "table_entries")?,
                arena_bytes: field_u64(cell, "arena_bytes")?,
                cost_bits: u64::from_str_radix(bits_hex.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("baseline: bad cost_bits {bits_hex:?}: {e}"))?,
                wall_ns: field_u64(cell, "wall_ns")?,
                // Optional: sequential cells have no utilization.
                utilization: cell.get("utilization").and_then(JsonValue::as_f64),
            });
        }
        Ok(PerfBaseline { config, cells })
    }

    /// Diffs `self` (a fresh run) against `baseline`.
    ///
    /// Counters, table entries and cost bits must match exactly. In
    /// full mode (`counters_only == false`) arena bytes must match too
    /// and each cell's wall time may exceed the baseline's by at most
    /// the baseline's configured noise factor. Missing or extra cells
    /// are failures in both modes.
    ///
    /// # Errors
    ///
    /// Returns one human-readable line per failed comparison.
    pub fn check(&self, baseline: &PerfBaseline, counters_only: bool) -> Result<(), Vec<String>> {
        let mut diffs = Vec::new();
        for base in &baseline.cells {
            let Some(cur) = self.cells.iter().find(|c| c.key() == base.key()) else {
                diffs.push(format!(
                    "{}/{} t={}: cell missing from this run",
                    base.family, base.algorithm, base.threads
                ));
                continue;
            };
            let label = format!("{}/{} t={}", base.family, base.algorithm, base.threads);
            let exact: [(&str, u64, u64); 5] = [
                ("inner", cur.inner, base.inner),
                ("csg_cmp_pairs", cur.csg_cmp_pairs, base.csg_cmp_pairs),
                ("ono_lohman", cur.ono_lohman, base.ono_lohman),
                ("table_entries", cur.table_entries, base.table_entries),
                ("cost_bits", cur.cost_bits, base.cost_bits),
            ];
            for (name, got, want) in exact {
                if got != want {
                    diffs.push(format!(
                        "{label}: {name} regressed: {got} != baseline {want}"
                    ));
                }
            }
            if !counters_only {
                if cur.arena_bytes != base.arena_bytes {
                    diffs.push(format!(
                        "{label}: arena_bytes changed: {} != baseline {}",
                        cur.arena_bytes, base.arena_bytes
                    ));
                }
                let limit = base.wall_ns as f64 * (1.0 + baseline.config.noise);
                if cur.wall_ns as f64 > limit {
                    diffs.push(format!(
                        "{label}: wall time regressed: {} ns > {:.0} ns \
                         (baseline {} ns + {:.0}% noise)",
                        cur.wall_ns,
                        limit,
                        base.wall_ns,
                        100.0 * baseline.config.noise
                    ));
                }
            }
        }
        for cur in &self.cells {
            if !baseline.cells.iter().any(|b| b.key() == cur.key()) {
                diffs.push(format!(
                    "{}/{} t={}: cell not present in the baseline",
                    cur.family, cur.algorithm, cur.threads
                ));
            }
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs)
        }
    }

    /// A rendered summary table (family, algorithm, threads, counters,
    /// wall time, utilization), for human consumption.
    pub fn render_table(&self) -> String {
        let mut t = crate::Table::new(vec![
            "family",
            "algorithm",
            "threads",
            "inner",
            "ccp",
            "table",
            "arena_bytes",
            "wall",
            "util",
        ]);
        for c in &self.cells {
            t.row(vec![
                c.family.clone(),
                c.algorithm.clone(),
                c.threads.to_string(),
                c.inner.to_string(),
                c.csg_cmp_pairs.to_string(),
                c.table_entries.to_string(),
                c.arena_bytes.to_string(),
                crate::format_seconds(c.wall_ns as f64 / 1e9),
                match c.utilization {
                    Some(u) => format!("{u:.2}"),
                    None => "-".to_string(),
                },
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_telemetry::NoopObserver;

    fn small_config() -> PerfConfig {
        PerfConfig {
            n: 7,
            reps: 2,
            seed: 2006,
            threads: vec![1, 2],
            noise: 0.5,
        }
    }

    #[test]
    fn matrix_shape_is_family_major() {
        let cells = matrix(&small_config());
        // 3 families × (DPsize + DPccp + DPconv + 2 DPsub threads).
        assert_eq!(cells.len(), 15);
        assert_eq!(cells[0].2, "DPsize");
        assert_eq!(cells[1].2, "DPccp");
        assert_eq!(cells[2].2, "DPconv");
        assert_eq!((cells[3].2, cells[3].3), ("DPsub", 1));
        assert_eq!((cells[4].2, cells[4].3), ("DPsub", 2));
    }

    #[test]
    fn counters_are_bit_stable_across_runs_and_threads() {
        let config = small_config();
        let a = run_matrix(&config, &NoopObserver).unwrap();
        let b = run_matrix(&config, &NoopObserver).unwrap();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.key(), y.key());
            assert_eq!(x.inner, y.inner, "{:?}", x.key());
            assert_eq!(x.cost_bits, y.cost_bits, "{:?}", x.key());
            assert_eq!(x.arena_bytes, y.arena_bytes, "{:?}", x.key());
        }
        // DPsub cells agree across thread counts on everything
        // deterministic (the engine's bit-identity contract).
        for family in ["chain", "star", "clique"] {
            let dpsub: Vec<&PerfCell> = a
                .cells
                .iter()
                .filter(|c| c.family == family && c.algorithm == "DPsub")
                .collect();
            assert_eq!(dpsub.len(), 2);
            assert_eq!(dpsub[0].inner, dpsub[1].inner);
            assert_eq!(dpsub[0].cost_bits, dpsub[1].cost_bits);
            assert_eq!(dpsub[0].table_entries, dpsub[1].table_entries);
            assert_eq!(dpsub[0].arena_bytes, dpsub[1].arena_bytes);
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let baseline = run_matrix(&small_config(), &NoopObserver).unwrap();
        let text = baseline.to_json();
        let parsed = PerfBaseline::parse(&text).unwrap();
        assert_eq!(parsed, baseline);
        // And a check against itself passes in both modes.
        baseline.check(&baseline, true).unwrap();
        baseline.check(&baseline, false).unwrap();
    }

    #[test]
    fn check_catches_counter_regressions_and_shape_drift() {
        let baseline = run_matrix(&small_config(), &NoopObserver).unwrap();
        let mut bad = baseline.clone();
        bad.cells[0].inner += 1;
        let diffs = bad.check(&baseline, true).unwrap_err();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("inner regressed"), "{}", diffs[0]);

        let mut missing = baseline.clone();
        let dropped = missing.cells.pop().unwrap();
        let diffs = missing.check(&baseline, true).unwrap_err();
        assert!(diffs[0].contains("missing from this run"));
        assert!(diffs[0].contains(&dropped.family));

        // Wall-time regressions only matter in full mode.
        let mut slow = baseline.clone();
        slow.cells[0].wall_ns = baseline.cells[0].wall_ns * 1000 + 1_000_000_000;
        slow.check(&baseline, true).unwrap();
        let diffs = slow.check(&baseline, false).unwrap_err();
        assert!(diffs[0].contains("wall time regressed"), "{}", diffs[0]);
    }

    #[test]
    fn sequential_cells_omit_utilization() {
        // Regression: sequential algorithms synchronize no worker
        // levels, so their cells must carry *no* utilization figure —
        // not a fabricated 1.0 — and the JSON must omit the key while
        // still round-tripping.
        let baseline = run_matrix(
            &PerfConfig {
                n: 6,
                reps: 1,
                seed: 2006,
                threads: vec![2],
                noise: 0.5,
            },
            &NoopObserver,
        )
        .unwrap();
        for cell in &baseline.cells {
            if cell.algorithm == "DPsub" {
                assert!(cell.utilization.is_some(), "{:?}", cell.key());
            } else {
                assert_eq!(cell.utilization, None, "{:?}", cell.key());
            }
        }
        let parsed = PerfBaseline::parse(&baseline.to_json()).unwrap();
        assert_eq!(parsed, baseline);
        // The table renders `-` in the util column of sequential rows.
        let table = baseline.render_table();
        for line in table.lines().filter(|l| l.contains("DPsize")) {
            assert_eq!(line.trim_end().rsplit(' ').next(), Some("-"), "{line}");
        }
    }

    #[test]
    fn observed_matrix_reports_runs_without_changing_cells() {
        use joinopt_telemetry::{MetricsRegistry, RegistryObserver};
        let config = PerfConfig {
            n: 6,
            reps: 1,
            seed: 2006,
            threads: vec![1],
            noise: 0.5,
        };
        let registry = MetricsRegistry::new();
        let obs = RegistryObserver::new(&registry);
        let observed = run_matrix(&config, &obs).unwrap();
        let plain = run_matrix(&config, &NoopObserver).unwrap();
        // The external observer sees every cell run...
        let snap = registry.snapshot();
        let runs: u64 = ["DPsize", "DPccp", "DPconv", "DPsub"]
            .iter()
            .filter_map(|alg| snap.counter("joinopt_runs_total", &[("algorithm", alg)]))
            .sum();
        assert_eq!(runs as usize, observed.cells.len());
        // ...and the measured cells are identical to an unobserved run
        // on everything deterministic.
        for (a, b) in observed.cells.iter().zip(&plain.cells) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.inner, b.inner);
            assert_eq!(a.cost_bits, b.cost_bits);
            assert_eq!(a.arena_bytes, b.arena_bytes);
        }
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(PerfBaseline::parse("not json").is_err());
        let err = PerfBaseline::parse("{\"schema\": \"other-v9\", \"config\": {}, \"cells\": []}")
            .unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn render_table_mentions_every_cell() {
        let baseline = run_matrix(
            &PerfConfig {
                n: 6,
                reps: 1,
                seed: 2006,
                threads: vec![1],
                noise: 0.5,
            },
            &NoopObserver,
        )
        .unwrap();
        let table = baseline.render_table();
        assert!(table.contains("chain"));
        assert!(table.contains("clique"));
        assert!(table.contains("DPsub"));
    }
}
