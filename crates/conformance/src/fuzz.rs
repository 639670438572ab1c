//! The fuzzing driver: generate → check → (on failure) minimize.

use joinopt_telemetry::{NoopObserver, Observer};

use crate::generator::{generate_instance, Instance};
use crate::oracle::Divergence;
use crate::{check_full, shrink};

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Number of instances to generate and check.
    pub iters: u64,
    /// Largest relation count to generate (inclusive).
    pub max_n: usize,
    /// Whether failures are shrunk to minimal repros.
    pub minimize: bool,
    /// Whether each instance is additionally replayed cold/warm through
    /// an [`OptimizerService`](joinopt_service::OptimizerService) plan
    /// cache, asserting bit-identical cost bits and plan shape on the
    /// hit path (`joinopt fuzz --cache`).
    pub cache: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iters: 200,
            max_n: 10,
            minimize: true,
            cache: false,
        }
    }
}

/// One divergent instance, with its minimized repro when shrinking was
/// requested.
#[derive(Debug)]
pub struct Failure {
    /// The instance as generated.
    pub instance: Instance,
    /// The divergence it produced.
    pub divergence: Divergence,
    /// The shrunk repro (same divergence label), when minimization ran.
    pub minimized: Option<Instance>,
}

/// Summary of a fuzz run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Instances generated and checked.
    pub checked: u64,
    /// Every divergence found, in generation order.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// `true` when no instance diverged.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the configured fuzz campaign. Deterministic: the same config
/// always generates and checks the same instances in the same order
/// (failures do not stop the run — every configured iteration is
/// checked so one regression cannot mask another).
///
/// Each instance's reference DPccp run reports to `obs` (pass
/// [`NoopObserver`] for none), making campaign-scale enumeration work
/// visible to a metrics registry or trace. Minimization replays stay
/// unobserved (shrinking repeats the checks hundreds of times and would
/// swamp the campaign's own signal). The observer never changes which
/// instances are checked or the report.
pub fn run_fuzz(config: &FuzzConfig, obs: &dyn Observer) -> FuzzReport {
    let mut failures = Vec::new();
    for index in 0..config.iters {
        let instance = generate_instance(config.seed, index, config.max_n);
        let checked = check_full(&instance, obs).and_then(|()| {
            if config.cache {
                crate::fingerprint::check_cache_replay(&instance)
            } else {
                Ok(())
            }
        });
        if let Err(divergence) = checked {
            let minimized = config.minimize.then(|| {
                let label = divergence.check;
                shrink::minimize(&instance, |candidate| {
                    let replay = check_full(candidate, &NoopObserver).and_then(|()| {
                        if config.cache {
                            crate::fingerprint::check_cache_replay(candidate)
                        } else {
                            Ok(())
                        }
                    });
                    matches!(replay, Err(d) if d.check == label)
                })
            });
            failures.push(Failure {
                instance,
                divergence,
                minimized,
            });
        }
    }
    FuzzReport {
        checked: config.iters,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_ci_smoke_shape() {
        let c = FuzzConfig::default();
        assert_eq!((c.seed, c.iters, c.max_n, c.minimize), (42, 200, 10, true));
        assert!(!c.cache, "cache replay is opt-in");
    }

    #[test]
    fn observed_run_reports_reference_work_without_changing_results() {
        use joinopt_telemetry::MetricsRegistry;
        use joinopt_telemetry::RegistryObserver;
        let config = FuzzConfig {
            seed: 42,
            iters: 6,
            max_n: 7,
            minimize: false,
            ..FuzzConfig::default()
        };
        let registry = MetricsRegistry::new();
        let obs = RegistryObserver::new(&registry);
        let report = run_fuzz(&config, &obs);
        assert_eq!(report.checked, 6);
        assert!(report.is_clean());
        let snap = registry.snapshot();
        // One reference DPccp run per connected multi-relation instance;
        // singletons and disconnected instances skip the matrix.
        let runs = snap
            .counter("joinopt_runs_total", &[("algorithm", "DPccp")])
            .unwrap_or(0);
        assert!((1..=6).contains(&runs), "runs={runs}");
        assert!(
            snap.counter("joinopt_csg_cmp_pairs_total", &[("algorithm", "DPccp")])
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn short_run_is_clean_and_deterministic() {
        let config = FuzzConfig {
            seed: 42,
            iters: 12,
            max_n: 8,
            minimize: true,
            cache: true,
        };
        let report = run_fuzz(&config, &NoopObserver);
        assert_eq!(report.checked, 12);
        assert!(
            report.is_clean(),
            "divergences: {:?}",
            report
                .failures
                .iter()
                .map(|f| format!("{}: {}", f.instance.name, f.divergence))
                .collect::<Vec<_>>()
        );
    }
}
