//! Exact work fingerprints: counters and output digests that must repeat
//! bit for bit on every run, at every thread count.
//!
//! The expected values live in `fingerprints.txt` beside this package,
//! one `<scope> <key> <value>` per line. `perfbench fingerprints`
//! prints the current values in that format; re-pin only when the
//! program's behaviour is meant to change.

use std::collections::BTreeMap;

use crate::layers::obs::{self, Registry};
use crate::layers::query::DesignVerdict;

const EXPECTED: &str = include_str!("../fingerprints.txt");

/// Counters pinned for every scope (absent counters read 0).
pub const KEYS: [&str; 10] = [
    "mc.trials",
    "mc.events",
    "profile.hydraulics.iterations",
    "profile.hydraulics.warm_starts",
    "profile.thermal.ode_steps",
    "drill.steps",
    "immersion.ladder.escalations",
    "query.cache.hits",
    "query.cache.misses",
    "query.cache.evictions",
];

/// One scope's measured fingerprint: work units, [`KEYS`] and an
/// output digest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint(pub BTreeMap<String, u64>);

impl Fingerprint {
    /// The fingerprint of `reg` after one operation, with `digest` of
    /// its outputs.
    #[must_use]
    pub fn of(reg: &Registry, digest: u64) -> Self {
        let snap = reg.snapshot();
        let mut m = BTreeMap::new();
        m.insert("work_units".to_owned(), obs::work_units(reg));
        for k in KEYS {
            m.insert(k.to_owned(), obs::counter(&snap, k));
        }
        m.insert("digest".to_owned(), digest);
        Self(m)
    }

    /// Lines in `fingerprints.txt` format for `scope`.
    #[must_use]
    pub fn render(&self, scope: &str) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{scope} {k} {v}\n"))
            .collect()
    }
}

/// The pinned fingerprint of `scope`.
///
/// # Panics
///
/// Panics if `fingerprints.txt` is malformed or lacks `scope` (a
/// packaging bug, caught by the self-tests).
#[must_use]
pub fn expected(scope: &str) -> Fingerprint {
    let mut m = BTreeMap::new();
    for line in EXPECTED.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [s, k, v] = parts[..] else {
            panic!("malformed fingerprint line {line:?}");
        };
        if s == scope {
            let v = v
                .parse()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
            m.insert(k.to_owned(), v);
        }
    }
    assert!(!m.is_empty(), "no fingerprint pinned for scope {scope}");
    Fingerprint(m)
}

/// Differences between `got` and the pinned fingerprint of `scope`, one
/// message per mismatching key; empty when they agree exactly.
#[must_use]
pub fn diff(scope: &str, got: &Fingerprint) -> Vec<String> {
    let want = expected(scope);
    let keys: std::collections::BTreeSet<&String> = want.0.keys().chain(got.0.keys()).collect();
    keys.into_iter()
        .filter_map(|k| {
            let (w, g) = (want.0.get(k), got.0.get(k));
            (w != g).then(|| format!("{scope} {k}: pinned {w:?}, got {g:?}"))
        })
        .collect()
}

/// FNV-1a 64 over bytes: the digest of rendered tables and verdicts.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs every field of a verdict, floats by their bits.
    pub fn verdict(&mut self, v: &DesignVerdict) {
        self.write(&v.query_hash.to_le_bytes());
        self.write(&[u8::from(v.compliant)]);
        for x in [
            v.junction_c,
            v.coolant_hot_c,
            v.coolant_cold_c,
            v.total_heat_w,
            v.cooling_overhead,
            v.availability_mean,
            v.availability_p05,
            v.annual_energy_kwh,
        ] {
            self.write(&x.to_bits().to_le_bytes());
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of a string.
#[must_use]
pub fn digest_str(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(digest_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_str("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_scope_is_pinned_with_every_key() {
        for scope in [
            "regen.pass",
            "query_cold.ref_batch",
            "query_hot.prewarm",
            "query_hot.ref_batch",
        ] {
            let want = expected(scope);
            for k in KEYS.iter().copied().chain(["work_units", "digest"]) {
                assert!(want.0.contains_key(k), "{scope} lacks {k}");
            }
        }
    }

    #[test]
    fn diff_reports_each_mismatch() {
        let mut got = expected("regen.pass");
        assert!(diff("regen.pass", &got).is_empty());
        *got.0.get_mut("drill.steps").expect("pinned") += 1;
        got.0.insert("extra".into(), 1);
        assert_eq!(diff("regen.pass", &got).len(), 2);
    }
}
