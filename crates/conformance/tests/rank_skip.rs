//! Acceptance test for the injected DPconv convolution-layer drop
//! (`--cfg failpoints` builds only — see ci.sh).
//!
//! Arming the `dpconv-rank-skip` failpoint makes DPconv skip the
//! balanced splits of its final rank layer (`n ≥ 4`) — the canonical
//! silent off-by-one-layer bug in a ranked subset-convolution DP. On a
//! uniform chain the balanced top-level split is *strictly* optimal
//! (intermediate sizes grow geometrically, so `dp(n/2) + dp(n/2)` beats
//! every lopsided alternative), which turns the dropped layer into a
//! wrong optimal cost that only the differential matrix can see: the
//! plan DPconv returns is still valid, connected and internally
//! consistent. The oracle must catch it as an `optimal-cost` divergence
//! and the delta-debugger must shrink the repro to ≤ 5 relations.
#![cfg(failpoints)]

use joinopt_conformance::{check_instance, generator, minimize};
use joinopt_core::failpoint::{self, FailAction};
use joinopt_telemetry::NoopObserver;

#[test]
fn injected_rank_skip_is_caught_and_minimized() {
    // Behavioral flag: arming the site is what drops the layer; the
    // action is irrelevant.
    failpoint::configure("dpconv-rank-skip", FailAction::Error);

    let inst = generator::tie_rich_chain(6);
    let divergence = check_instance(&inst, &NoopObserver)
        .expect_err("dropping DPconv's balanced layer must change its optimal cost");
    assert_eq!(divergence.check, "optimal-cost", "{divergence}");
    assert!(divergence.detail.contains("DPconv"), "{divergence}");

    // Shrink to a minimal repro reproducing the same divergence label.
    // The skip only fires for n ≥ 4, so 4 relations is the true floor.
    let minimal = minimize(
        &inst,
        |candidate| matches!(check_instance(candidate, &NoopObserver), Err(d) if d.check == "optimal-cost"),
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

    // Disarming restores full conformance — on the original instance
    // and on the minimized repro.
    failpoint::clear("dpconv-rank-skip");
    check_instance(&inst, &NoopObserver).expect("clean once the failpoint is cleared");
    check_instance(&minimal, &NoopObserver).expect("minimal repro is clean without the injection");
}
