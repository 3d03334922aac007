//! Failpoint tests for `ashn-core`, in their own test binary.
//!
//! The failpoint registry is process-global. A unit test that arms a site
//! races every unguarded unit test in the same binary that calls through
//! that site (here: every `parallel_map` caller, the EA search included),
//! so the arming tests live alone in this binary, where every test holds
//! `fault::exclusive()`.
#![cfg(feature = "fault-injection")]

use ashn_core::par::parallel_map_isolated;

#[test]
fn task_failpoint_injects_isolated_panics() {
    use ashn_core::fault::{self, FaultMode};
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure("core::par::task", FaultMode::OnNth(3));
    // Serial execution so call order is the job order.
    let out = parallel_map_isolated(1, 5, |i| i);
    fault::reset();
    assert!(out[2].is_err(), "third task must be hit");
    assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
    assert!(out[2]
        .as_ref()
        .unwrap_err()
        .detail
        .contains("core::par::task"));
}
