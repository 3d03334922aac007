//! Failpoint tests for `ashn-sim`, in their own test binary.
//!
//! The failpoint registry is process-global. A unit test that arms a site
//! races every unguarded unit test in the same binary that calls through
//! that site (here: every `BatchRunner` run), so the arming tests live
//! alone in this binary, where every test holds `fault::exclusive()`.
#![cfg(feature = "fault-injection")]

use ashn_sim::BatchRunner;

#[test]
fn job_failpoint_injects_isolated_panics() {
    use ashn_math::fault::{self, FaultMode};
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure("sim::batch::job", FaultMode::EveryNth(4));
    // One worker: jobs run in index order, so calls 4 and 8 are jobs 3
    // and 7.
    let out = BatchRunner::new(7).with_workers(1).try_run(8, |i, _| i);
    fault::reset();
    for (i, r) in out.iter().enumerate() {
        if i == 3 || i == 7 {
            let p = r.as_ref().unwrap_err();
            assert_eq!(p.index, i);
            assert!(
                p.detail.contains("injected fault: sim::batch::job"),
                "detail: {}",
                p.detail
            );
        } else {
            assert_eq!(r.as_ref().unwrap(), &i);
        }
    }
}
