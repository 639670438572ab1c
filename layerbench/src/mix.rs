//! Seeded request streams: what each workload sends, as a pure function
//! of the benchmark seed.
//!
//! A stream is a warm-up set followed by numbered *rounds*. Every round
//! of a workload has the same composition (the same count of each
//! origin, family and size) in a seeded order, and timed phases run
//! whole rounds. The mix a run measures therefore does not depend on how
//! many requests fit into its time, and a percentile lands in the same
//! part of the distribution on every seed.

use std::fmt::Write as _;
use std::sync::Arc;

use joinopt_conformance::generator::{Family, SplitMix64};
use joinopt_cost::workload::{random_catalog, StatsRanges};
use joinopt_qgraph::{GraphKind, QueryGraph};
use joinopt_relset::XorShift64;
use joinopt_service::server::parse_query_text;
use joinopt_service::QuerySpec;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small queries over two connections, ~90% repeats of a working set.
    ServeHot,
    /// Large never-seen queries over one connection.
    ServeCold,
    /// Dense queries through the in-process library entry, all threads.
    BatchDense,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::BatchDense,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::BatchDense => "batch-dense",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Client connections of the serve workloads (`nproc` caps it).
    pub fn connections(self) -> usize {
        match self {
            Workload::ServeHot => 2,
            Workload::ServeCold | Workload::BatchDense => 1,
        }
    }

    /// The percentile `tail_us` reports. It is fixed per workload, so it
    /// does not change from run to run with the sample count; every run
    /// leaves far more than ten samples beyond it; and it falls inside a
    /// group of like requests, not on the edge between two groups whose
    /// times differ severalfold: on `serve-hot` inside the 10% that miss
    /// the cache, on `serve-cold` inside the slowest 14-relation cliques
    /// (1 in 11 requests; their median moved ±15% between runs, their
    /// slow end ±4%), on `batch-dense` inside the 14-relation queries.
    /// Higher percentiles of `serve-hot` are set by preemption stalls of
    /// a two-core machine: across ten runs of identical work its p99.9
    /// ranged from 0.34 to 3.5 ms and its p99 from 0.18 to 1.3 ms.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ServeHot => 95.0,
            Workload::ServeCold => 99.0,
            Workload::BatchDense => 90.0,
        }
    }

    /// Rounds the first client completes before the server's peak RSS
    /// is read. The plan cache grows with every miss until its 8 MiB
    /// budget, so the read is taken after a fixed amount of work: on
    /// `serve-hot` once the cache is full, on `serve-cold` (whose
    /// misses would fill it only near the end of a run) early.
    pub fn rss_rounds(self) -> u64 {
        match self {
            Workload::ServeHot => 4000,
            Workload::ServeCold => 16,
            Workload::BatchDense => 0,
        }
    }

    /// Rounds the traced replay walks, from the start of the timed
    /// stream; fixed, so its counts (`engine.steps`) repeat exactly for
    /// a seed.
    pub fn replay_rounds(self) -> u64 {
        match self {
            Workload::ServeHot => 1000,
            Workload::ServeCold => 16,
            Workload::BatchDense => 1,
        }
    }
}

/// How a request relates to what the server has seen before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A query generated for this request alone.
    Fresh,
    /// A working-set query's text, byte for byte.
    Exact,
    /// A working-set query with its relations renamed and its relation
    /// and join lines shuffled: the same query to the canonical cache,
    /// different text to anything keyed on the bytes.
    Relabeled,
}

/// One generated query.
#[derive(Debug)]
pub struct Query {
    /// Query text as sent (native DSL, or SQL for committed files).
    pub text: String,
    /// Its relation to earlier requests.
    pub origin: Origin,
    /// The paper family with closed-form counters, when it is one.
    pub kind: Option<GraphKind>,
    /// Relation count.
    pub relations: usize,
    /// Join-edge count.
    pub edges: usize,
}

impl Query {
    /// Whether the query graph is a tree (all generated graphs are
    /// connected, so `m = n − 1` decides it).
    pub fn acyclic(&self) -> bool {
        self.edges + 1 == self.relations
    }

    /// Edges present as a share of all `n(n−1)/2` possible edges.
    pub fn density(&self) -> f64 {
        let n = self.relations as f64;
        self.edges as f64 / (n * (n - 1.0) / 2.0)
    }

    fn from_spec(spec: &QuerySpec, text: String, origin: Origin, kind: Option<GraphKind>) -> Query {
        Query {
            text,
            origin,
            kind,
            relations: spec.num_relations(),
            edges: spec.num_edges(),
        }
    }
}

/// The committed `workloads/` queries the server accepts
/// (`complex_predicate.query` has hyperedges, which serve refuses).
const COMMITTED: [&str; 5] = [
    include_str!("../../workloads/tpch_q3_like.sql"),
    include_str!("../../workloads/tpch_q5_like.sql"),
    include_str!("../../workloads/star_schema.query"),
    include_str!("../../workloads/snowflake.query"),
    include_str!("../../workloads/clique_analytics.query"),
];

/// Generated working-set queries of `serve-hot`, beside the committed ones.
const HOT_GENERATED: usize = 59;
/// Relabeled variants kept per working-set query.
const HOT_VARIANTS: usize = 4;
/// `serve-hot` round composition: exact repeats, relabeled repeats and
/// fresh queries (90% repeats, split evenly).
const HOT_ROUND: (usize, usize, usize) = (9, 9, 2);
/// Families of the small `serve-hot` queries.
const HOT_FAMILIES: [Family; 4] = [Family::Chain, Family::Cycle, Family::Star, Family::Tree];

/// Families of `serve-cold`, at the sizes of [`cold_sizes`].
const COLD_FAMILIES: [Family; 5] = [
    Family::Chain,
    Family::Cycle,
    Family::Star,
    Family::Tree,
    Family::Clique,
];
const COLD_SIZES: std::ops::RangeInclusive<usize> = 12..=16;
/// Largest `serve-cold` clique. The serve path runs a clique on
/// one-thread DPsub: 0.13 s at 14 relations, ~0.4 s at 15, ~1 s at 16.
/// Larger cliques would take most of the run's time and leave too few
/// requests for steady medians.
const COLD_MAX_CLIQUE: usize = 14;

/// The sizes `serve-cold` sends of `family` in round `r`. Chains,
/// cycles and trees (about a millisecond or less even at 16 relations)
/// come once per round, their size turning with the round; stars and
/// cliques at every size. The median request is then a 14-relation
/// star, a few milliseconds of engine time, rather than a query whose
/// time is mostly wake-ups and parsing and which a one-millisecond
/// preemption doubles.
fn cold_sizes(family: Family, r: u64) -> std::ops::RangeInclusive<usize> {
    let first = *COLD_SIZES.start();
    match family {
        Family::Star => COLD_SIZES,
        Family::Clique => first..=COLD_MAX_CLIQUE,
        _ => {
            let n = first + (r % COLD_SIZES.count() as u64) as usize;
            n..=n
        }
    }
}

/// `batch-dense` batch: (relations, queries). Weighted so the median
/// falls inside the n = 12 group and p90 inside the n = 14 group, away
/// from any boundary between sizes whose run times differ threefold.
const DENSE_BATCH: [(usize, usize); 6] = [(10, 5), (11, 4), (12, 5), (13, 3), (14, 2), (15, 1)];

/// A workload's request stream for one seed.
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// `serve-hot`: each working-set query with its relabeled variants.
    working_set: Vec<(Arc<Query>, Vec<Arc<Query>>)>,
    /// `batch-dense`: the batch every round repeats.
    batch: Vec<Arc<Query>>,
    warmup: Vec<Arc<Query>>,
}

impl Stream {
    /// Builds the stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = rng_for(seed, workload, u64::MAX);
        let mut stream = Stream {
            workload,
            seed,
            working_set: Vec::new(),
            batch: Vec::new(),
            warmup: Vec::new(),
        };
        match workload {
            Workload::ServeHot => {
                let mut bases: Vec<(QuerySpec, Query)> = COMMITTED
                    .iter()
                    .map(|text| {
                        let spec = parse_query_text(text)
                            .unwrap_or_else(|e| panic!("committed workload must parse: {e}"));
                        let q = Query::from_spec(&spec, text.to_string(), Origin::Exact, None);
                        (spec, q)
                    })
                    .collect();
                for _ in 0..HOT_GENERATED {
                    let family = HOT_FAMILIES[rng.gen_range(0..HOT_FAMILIES.len())];
                    let n = rng.gen_range(4..11);
                    let graph = family.build(n, &mut rng);
                    let (spec, mut q) = generate(graph, family, &mut rng);
                    q.origin = Origin::Exact;
                    bases.push((spec, q));
                }
                for (k, (spec, exact)) in bases.into_iter().enumerate() {
                    let variants = (0..HOT_VARIANTS)
                        .map(|v| {
                            let text = write_dsl(&spec, &format!("w{k}v{v}_"), Some(&mut rng));
                            Arc::new(Query::from_spec(&spec, text, Origin::Relabeled, exact.kind))
                        })
                        .collect::<Vec<_>>();
                    let exact = Arc::new(exact);
                    // Warm-up: every working-set query once as sent,
                    // then one relabeled copy (a first remap).
                    stream.warmup.push(Arc::clone(&exact));
                    stream.working_set.push((exact, variants));
                }
                let relabeled: Vec<Arc<Query>> = stream
                    .working_set
                    .iter()
                    .map(|(_, v)| Arc::clone(&v[0]))
                    .collect();
                stream.warmup.extend(relabeled);
            }
            Workload::ServeCold => {
                for family in COLD_FAMILIES {
                    let graph = family.build(*COLD_SIZES.start(), &mut rng);
                    stream
                        .warmup
                        .push(Arc::new(generate(graph, family, &mut rng).1));
                }
            }
            Workload::BatchDense => {
                for (n, count) in DENSE_BATCH {
                    for _ in 0..count {
                        stream.batch.push(Arc::new(dense(n, &mut rng)));
                    }
                }
                rng.shuffle(&mut stream.batch);
                stream.warmup = stream
                    .batch
                    .iter()
                    .filter(|q| q.relations <= 12)
                    .cloned()
                    .collect();
            }
        }
        stream
    }

    /// The workload this stream belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Untimed requests sent before the timed phase.
    pub fn warmup(&self) -> &[Arc<Query>] {
        &self.warmup
    }

    /// Round `r` of the timed stream.
    pub fn round(&self, r: u64) -> Vec<Arc<Query>> {
        let mut rng = rng_for(self.seed, self.workload, r);
        let mut out = Vec::new();
        match self.workload {
            Workload::ServeHot => {
                let (exact, relabeled, fresh) = HOT_ROUND;
                let w = self.working_set.len();
                for _ in 0..exact {
                    out.push(Arc::clone(&self.working_set[rng.gen_range(0..w)].0));
                }
                for _ in 0..relabeled {
                    let variants = &self.working_set[rng.gen_range(0..w)].1;
                    out.push(Arc::clone(&variants[rng.gen_range(0..variants.len())]));
                }
                for _ in 0..fresh {
                    let family = HOT_FAMILIES[rng.gen_range(0..HOT_FAMILIES.len())];
                    let n = rng.gen_range(4..11);
                    let graph = family.build(n, &mut rng);
                    out.push(Arc::new(generate(graph, family, &mut rng).1));
                }
            }
            Workload::ServeCold => {
                for family in COLD_FAMILIES {
                    for n in cold_sizes(family, r) {
                        let graph = family.build(n, &mut rng);
                        out.push(Arc::new(generate(graph, family, &mut rng).1));
                    }
                }
            }
            Workload::BatchDense => out.extend(self.batch.iter().cloned()),
        }
        rng.shuffle(&mut out);
        out
    }
}

/// The generator of round `r` (or of the stream's set-up, `r = u64::MAX`):
/// independent of every other round, so a round can be rebuilt alone.
fn rng_for(seed: u64, workload: Workload, r: u64) -> XorShift64 {
    let salt = match workload {
        Workload::ServeHot => 0x686f74,
        Workload::ServeCold => 0x636f6c64,
        Workload::BatchDense => 0x64656e7365,
    };
    XorShift64::seed_from_u64(SplitMix64::at(SplitMix64::at(seed, salt), r))
}

/// A fresh query over `graph` (of `family`) with random statistics.
fn generate(graph: QueryGraph, family: Family, rng: &mut XorShift64) -> (QuerySpec, Query) {
    let catalog = random_catalog(&graph, StatsRanges::default(), rng);
    let spec = QuerySpec::capture(&graph, &catalog).expect("a generated catalog fits its graph");
    let text = write_dsl(&spec, "t", None);
    let query = Query::from_spec(&spec, text, Origin::Fresh, family.closed_form_kind());
    (spec, query)
}

/// A dense query: the clique on `n` relations minus up to a tenth of its
/// edges, so its density stays ≥ 90% and `Auto` resolves it to DPsub at
/// any thread count.
fn dense(n: usize, rng: &mut XorShift64) -> Query {
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    rng.shuffle(&mut pairs);
    let dropped = rng.gen_range(0..pairs.len() / 10 + 1);
    let mut kept = pairs[dropped..].to_vec();
    kept.sort_unstable();
    let graph = QueryGraph::from_edges(n, kept)
        .ok()
        .filter(QueryGraph::is_connected)
        .unwrap_or_else(|| joinopt_qgraph::generators::generate(GraphKind::Clique, n));
    let kind = (graph.num_edges() == n * (n - 1) / 2).then_some(GraphKind::Clique);
    let catalog = random_catalog(&graph, StatsRanges::default(), rng);
    let spec = QuerySpec::capture(&graph, &catalog).expect("a generated catalog fits its graph");
    let text = write_dsl(&spec, "d", None);
    Query::from_spec(&spec, text, Origin::Fresh, kind)
}

/// Writes `spec` as native DSL. With `relabel`, relation names get
/// `prefix` plus a shuffled position, and relation lines, join lines and
/// the two sides of each join are shuffled. Statistics print in Rust's
/// shortest round-trip form, so the text parses back to the same bits.
fn write_dsl(spec: &QuerySpec, prefix: &str, relabel: Option<&mut XorShift64>) -> String {
    let n = spec.num_relations();
    let m = spec.num_edges();
    let mut relations: Vec<usize> = (0..n).collect();
    let mut joins: Vec<usize> = (0..m).collect();
    let mut flips = vec![false; m];
    if let Some(rng) = relabel {
        rng.shuffle(&mut relations);
        rng.shuffle(&mut joins);
        for f in &mut flips {
            *f = rng.gen_bool(0.5);
        }
    }
    let mut names = vec![String::new(); n];
    for (pos, &i) in relations.iter().enumerate() {
        names[i] = format!("{prefix}{pos}");
    }
    let cards = spec.catalog().cardinalities();
    let sels = spec.catalog().selectivities();
    let mut out = String::new();
    for &i in &relations {
        let _ = writeln!(out, "relation {} {}", names[i], cards[i]);
    }
    for &e in &joins {
        let (u, v) = spec.edges()[e];
        let (a, b) = if flips[e] { (v, u) } else { (u, v) };
        let _ = writeln!(out, "join {} {} {}", names[a], names[b], sels[e]);
    }
    out
}

/// Measured properties of the requests a run sent, for claims that
/// depend on one of them.
#[derive(Debug, Default, Clone, Copy)]
pub struct MixShares {
    /// Requests counted.
    pub requests: usize,
    /// Share of never-seen queries.
    pub fresh: f64,
    /// Share of byte-identical repeats.
    pub exact: f64,
    /// Share of relabeled repeats.
    pub relabeled: f64,
    /// Share of acyclic (tree-shaped) query graphs.
    pub acyclic: f64,
    /// Mean relation count.
    pub mean_n: f64,
    /// Mean edge density.
    pub mean_density: f64,
}

impl MixShares {
    /// The shares of `queries`.
    pub fn of<'a>(queries: impl IntoIterator<Item = &'a Query>) -> MixShares {
        let mut s = MixShares::default();
        for q in queries {
            s.requests += 1;
            match q.origin {
                Origin::Fresh => s.fresh += 1.0,
                Origin::Exact => s.exact += 1.0,
                Origin::Relabeled => s.relabeled += 1.0,
            }
            if q.acyclic() {
                s.acyclic += 1.0;
            }
            s.mean_n += q.relations as f64;
            s.mean_density += q.density();
        }
        let k = s.requests.max(1) as f64;
        for x in [
            &mut s.fresh,
            &mut s.exact,
            &mut s.relabeled,
            &mut s.acyclic,
            &mut s.mean_n,
            &mut s.mean_density,
        ] {
            *x /= k;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a stream would send: warm-up, then the first rounds.
    fn transcript(workload: Workload, seed: u64) -> String {
        let stream = Stream::new(workload, seed);
        let mut out = String::new();
        for q in stream.warmup() {
            out.push_str(&q.text);
        }
        for r in 0..6 {
            for q in stream.round(r) {
                out.push_str(&q.text);
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            assert_eq!(transcript(w, 11), transcript(w, 11), "{}", w.name());
            assert_ne!(transcript(w, 11), transcript(w, 12), "{}", w.name());
        }
    }

    #[test]
    fn rounds_keep_their_composition() {
        let hot = Stream::new(Workload::ServeHot, 3);
        for r in 0..20 {
            let s = MixShares::of(hot.round(r).iter().map(|q| &**q));
            assert_eq!((s.requests, s.fresh), (20, 0.1));
            assert_eq!((s.exact, s.relabeled), (0.45, 0.45));
        }
        let cold = Stream::new(Workload::ServeCold, 3);
        let round = cold.round(0);
        assert_eq!(round.len(), 11);
        assert!(round.iter().all(|q| q.origin == Origin::Fresh));
        let dense = Stream::new(Workload::BatchDense, 3);
        assert!(dense.round(0).iter().all(|q| q.density() >= 0.9));
        assert_eq!(dense.round(0).len(), 20);
    }

    #[test]
    fn every_generated_text_parses_back_to_its_statistics() {
        let hot = Stream::new(Workload::ServeHot, 5);
        for (exact, variants) in &hot.working_set {
            let base = parse_query_text(&exact.text).expect("exact text parses");
            for v in variants {
                let spec = parse_query_text(&v.text).expect("relabeled text parses");
                let mut a = base.catalog().cardinalities().to_vec();
                let mut b = spec.catalog().cardinalities().to_vec();
                a.sort_by(f64::total_cmp);
                b.sort_by(f64::total_cmp);
                assert_eq!(a, b);
                assert_eq!(spec.num_edges(), base.num_edges());
            }
        }
        for q in Stream::new(Workload::ServeCold, 5).round(0) {
            let spec = parse_query_text(&q.text).expect("generated text parses");
            assert_eq!(write_dsl(&spec, "t", None), q.text);
        }
    }
}
