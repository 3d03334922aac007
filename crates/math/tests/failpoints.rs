//! Failpoint tests for `ashn-math`, in their own test binary.
//!
//! The failpoint registry is process-global. A unit test that arms a site
//! races every unguarded unit test in the same binary that calls through
//! that site (here: every caller of `eig_unitary`), so the arming tests
//! live alone in this binary, where every test holds `fault::exclusive()`.
#![cfg(feature = "fault-injection")]

use ashn_math::eig::{try_eig_unitary, EigError};
use ashn_math::randmat::haar_unitary;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn eig_failpoint_fails_once_then_recovers() {
    use ashn_math::fault::{self, FaultMode};
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure("math::eig::unitary", FaultMode::OnNth(1));
    let mut rng = StdRng::seed_from_u64(31);
    let w = haar_unitary(4, &mut rng);
    assert!(matches!(
        try_eig_unitary(&w),
        Err(EigError::NotNormal { .. })
    ));
    assert!(try_eig_unitary(&w).is_ok(), "site must fire only once");
    fault::reset();
}
