//! The rule tier's cache integration: serving synthesis requests from the
//! rule table ahead of the Weyl memo-cache, with rule-emitted circuits
//! cached under a namespaced (source rule, target set) pair key.

use super::rules::RuleSet;
use crate::cache::{serve_from_entry, ClassEntry, ClassKey, ClassStore, Lookup};
use crate::circuit2::TwoQubitCircuit;
use ashn_gates::weyl::WeylPoint;
use ashn_ir::{Basis, Circuit};
use ashn_math::CMat;

/// The cache key for a rule-emitted circuit: the numeric key for the same
/// class with `params` replaced by the `(source rule, target set)` pair
/// namespace. The `rule[` prefix guarantees a rule entry can never
/// cross-hit the numeric tier's [`Basis::cache_params`] keys (no built-in
/// or sanely-parameterized basis emits params starting with `rule[`).
pub fn rule_key(basis: &(impl Basis + ?Sized), rule_label: &str, coords: WeylPoint) -> ClassKey {
    let mut key = ClassKey::new(basis, coords, false);
    key.params = format!("rule[{}->{}];{}", rule_label, key.basis, key.params);
    key
}

/// Serves a synthesis request for `u` (canonical class `coords`) from the
/// rule table, if the target basis has a rule covering the class.
///
/// An exact known-gate match returns its pre-dressed fragment verbatim;
/// any other member of a covered class is re-dressed from the rule's
/// exact core by the same serve logic the memo-cache uses. Either way the
/// served circuit is stored under the pair key (so exact repeats become
/// plain fetches), the lookup is recorded as [`Lookup::RuleHit`], and the
/// numeric path — memo-cache, KAK, EA — never runs.
///
/// Returns `None` when no rule covers the class (or the rule's core
/// drifted, which the standard table's exactness tests exclude): the
/// caller falls through to the numeric tiers.
pub fn serve_rule_tier(
    rules: &RuleSet,
    basis: &(impl Basis + ?Sized),
    store: &impl ClassStore,
    u: &CMat,
    coords: WeylPoint,
) -> Option<Circuit> {
    let name = basis.name();
    let params = basis.cache_params();
    let rule = rules.class_rule(&name, &params, coords)?;
    // Exact known gate: its pre-dressed fragment serves verbatim with no
    // store roundtrip and no re-dressing — the tier's O(ns) fast path.
    // (All known gates of a class share one pair key, so going through
    // the store would re-dress every gate except the first one served.)
    if let Some(gate) = rule.match_gate(u) {
        store.record(Lookup::RuleHit);
        return Some(gate.circuit.clone().into());
    }
    let key = rule_key(basis, &rule.label, coords);
    if let Some(entry) = store.fetch(&key) {
        if let Some((circuit, _)) = serve_from_entry(u, coords, &entry) {
            store.record(Lookup::RuleHit);
            return Some(circuit);
        }
    }
    let entry = rule.entry(u);
    let (circuit, _) = serve_from_entry(u, coords, &entry)?;
    if let Ok(core) = TwoQubitCircuit::try_from(circuit.clone()) {
        store.store(
            key,
            ClassEntry {
                target: u.clone(),
                circuit: core,
            },
        );
    }
    store.record(Lookup::RuleHit);
    Some(circuit)
}

#[cfg(test)]
mod tests {
    use super::super::rules::standard_rules;
    use super::*;
    use crate::basis::CzBasis;
    use crate::cache::SynthCache;
    use ashn_gates::kak::weyl_coordinates;
    use ashn_gates::two::cnot;

    #[test]
    fn rule_keys_never_collide_with_numeric_keys() {
        let coords = weyl_coordinates(&cnot()).canonicalize();
        let numeric = ClassKey::new(&CzBasis, coords, false);
        let ruled = rule_key(&CzBasis, "cx-class", coords);
        assert_ne!(numeric, ruled);
        assert!(ruled.params.starts_with("rule["));
        assert_eq!(
            (numeric.x, numeric.y, numeric.z),
            (ruled.x, ruled.y, ruled.z)
        );
    }

    #[test]
    fn rule_serves_record_rule_hits_only() {
        let store = SynthCache::default();
        let u = cnot();
        let coords = weyl_coordinates(&u).canonicalize();
        for _ in 0..3 {
            let c = serve_rule_tier(standard_rules().as_ref(), &CzBasis, &store, &u, coords)
                .expect("cx-class rule over CZ");
            assert!(c.error(&u) < 1e-12);
        }
        let stats = store.stats();
        assert_eq!(stats.rule_hits, 3);
        assert_eq!(
            (stats.exact_hits, stats.class_hits, stats.misses),
            (0, 0, 0)
        );
    }
}
