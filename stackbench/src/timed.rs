//! A timing [`Basis`] wrapper injected through the public builders
//! (`Compiler::basis`, `CompileService::with_cache`). The program's memo
//! caches wrap *outside* it, so every span it records is a cold synthesis.

use crate::trace::Tracer;
use ashn::ir::basis::{BasisMetadata, SynthEffort};
use ashn::ir::{Basis, Circuit, SynthError};
use ashn::math::CMat;
use std::sync::Arc;

pub struct TimedBasis<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B> TimedBasis<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<B: Basis> Basis for TimedBasis<B> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn cache_params(&self) -> String {
        self.inner.cache_params()
    }
    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        let _span = self.tracer.child("synth");
        self.inner.synthesize(u)
    }
    fn synthesize_with_effort(&self, u: &CMat, effort: SynthEffort) -> Result<Circuit, SynthError> {
        let _span = self.tracer.child("synth");
        self.inner.synthesize_with_effort(u, effort)
    }
    fn native_swap(&self) -> Result<Circuit, SynthError> {
        let _span = self.tracer.child("synth");
        self.inner.native_swap()
    }
    fn expected_entanglers(&self, u: &CMat) -> usize {
        self.inner.expected_entanglers(u)
    }
    fn metadata(&self) -> Option<BasisMetadata> {
        self.inner.metadata()
    }
}
