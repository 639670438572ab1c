//! Acceptance test for the injected tie-break inversion
//! (`--cfg failpoints` builds only — see ci.sh).
//!
//! Arming the `engine-tiebreak-invert` failpoint makes the parallel
//! engine keep the *last* split on exact cost ties instead of the
//! first canonical one. The cost is unchanged, so only the oracle's
//! bit-identity comparison between the engine and the sequential
//! driver can catch it — the shrinking minimizer must reduce the
//! divergent instance to a handful of relations, and the explained
//! diff must pinpoint the first inverted tie. The failpoint registry is
//! process-global, so this binary holds the crate's only test that
//! arms it.
#![cfg(failpoints)]

use joinopt_conformance::{check_instance, explain_failure, generator, minimize, Failure};
use joinopt_core::failpoint::{self, FailAction};
use joinopt_telemetry::NoopObserver;

#[test]
fn injected_tiebreak_inversion_is_caught_and_minimized() {
    // The action is irrelevant for behavioral flags; arming the site is
    // what flips the comparison.
    failpoint::configure("engine-tiebreak-invert", FailAction::Error);

    // A uniform-catalog chain is tie-rich: from n = 3 on, symmetric
    // splits of the full set cost bit-identically, so the inverted
    // tie-break picks a different plan tree.
    let inst = generator::tie_rich_chain(8);
    let divergence = check_instance(&inst, &NoopObserver)
        .expect_err("the inverted tie-break must change the engine's plan");
    assert_eq!(divergence.check, "engine-vs-sequential", "{divergence}");

    // Shrink to a minimal repro reproducing the same divergence label.
    let minimal = minimize(
        &inst,
        |candidate| matches!(check_instance(candidate, &NoopObserver), Err(d) if d.check == "engine-vs-sequential"),
    );
    assert!(
        minimal.graph.num_relations() <= 5,
        "repro should shrink to <= 5 relations, got {} ({})",
        minimal.graph.num_relations(),
        minimal.name
    );
    // The minimal repro serializes to the DSL and still parses back.
    let dsl = minimal.to_dsl();
    let reparsed = generator::Instance::from_dsl(&dsl).expect("minimal repro round-trips");
    assert_eq!(reparsed.graph, minimal.graph);

    // The failure explains itself down to the first divergent decision.
    let failure = Failure {
        instance: inst.clone(),
        divergence,
        minimized: Some(minimal),
    };
    let text = explain_failure(&failure).expect("engine divergence explains");
    assert!(text.contains("explained diff"), "{text}");
    assert!(text.contains("first divergent decision"), "{text}");
    assert!(text.contains("tie broken by enumeration order"), "{text}");

    // Disarming restores full conformance.
    failpoint::clear("engine-tiebreak-invert");
    check_instance(&inst, &NoopObserver).expect("clean once the failpoint is cleared");
}
