//! The correctness oracle: reference outputs over each workload's whole
//! query universe (so a held-out seed is checked too), compared field by
//! field.
//!
//! Tolerances:
//! * strings, booleans, integers and grid voltages (rails, `V_SSC`)
//!   must match exactly (within 1e-6 of their unit, i.e. float noise);
//! * `delay_s`, `energy_j` and `edp_js` within a relative 1e-6;
//! * Monte Carlo margin statistics (`mean_mv`, `sigma_mv`) within
//!   1e-3 mV = 1 µV, a thousand times the 1 nV a warm-started solver
//!   may move a margin by.

use std::collections::HashMap;
use std::path::PathBuf;

use sram_serve::Json;

/// Relative tolerance of continuous array figures.
const REL_TOL: f64 = 1e-6;
/// Absolute tolerance, in millivolts, of Monte Carlo margin statistics.
const MARGIN_TOL_MV: f64 = 1e-3;
/// Absolute tolerance of every other number (integers, grid voltages).
const EXACT_TOL: f64 = 1e-6;

/// Reference outputs keyed by op key.
pub(crate) struct Oracle {
    refs: HashMap<String, Json>,
}

/// The committed reference files, embedded at build time.
const SEARCH_SWEEP: &str = include_str!("../oracle/search-sweep.jsonl");
const FULLSIM_YIELD: &str = include_str!("../oracle/fullsim-yield.jsonl");

/// Path of a workload's reference file (for regenerating it).
pub(crate) fn path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/oracle")).join(format!("{workload}.jsonl"))
}

impl Oracle {
    /// Parses `oracle/<workload>.jsonl`: one `{"key":…,"output":…}` per
    /// line.
    ///
    /// # Errors
    ///
    /// A workload without a reference file, or a malformed line.
    pub(crate) fn load(workload: &str) -> Result<Self, String> {
        let text = match workload {
            "search-sweep" => SEARCH_SWEEP,
            "fullsim-yield" => FULLSIM_YIELD,
            other => return Err(format!("no oracle for {other}")),
        };
        let mut refs = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let at = || format!("oracle/{workload}.jsonl:{}", n + 1);
            let json = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
            let key = json
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: no key", at()))?;
            let output = json
                .get("output")
                .ok_or_else(|| format!("{}: no output", at()))?;
            refs.insert(key.to_string(), output.clone());
        }
        Ok(Self { refs })
    }

    /// Checks `actual` against the reference for `key`.
    ///
    /// # Errors
    ///
    /// The first mismatch, or a key the oracle does not cover.
    pub(crate) fn check(&self, key: &str, actual: &Json) -> Result<(), String> {
        let expected = self
            .refs
            .get(key)
            .ok_or_else(|| format!("oracle has no reference for {key}"))?;
        compare(expected, actual, "", "").map_err(|e| format!("{key}: {e}"))
    }
}

/// Renders one oracle line.
pub(crate) fn entry(key: &str, output: Json) -> String {
    Json::Obj(vec![
        ("key".into(), Json::Str(key.to_string())),
        ("output".into(), output),
    ])
    .render()
}

/// Compares two JSON values under the tolerance policy; `field` is the
/// innermost object key, which selects the tolerance for numbers.
pub(crate) fn compare(
    expected: &Json,
    actual: &Json,
    path: &str,
    field: &str,
) -> Result<(), String> {
    match (expected, actual) {
        (Json::Num(e), Json::Num(a)) => {
            let tol = match field {
                "delay_s" | "energy_j" | "edp_js" => REL_TOL * e.abs(),
                "mean_mv" | "sigma_mv" => MARGIN_TOL_MV,
                _ => EXACT_TOL,
            };
            if (e - a).abs() <= tol {
                Ok(())
            } else {
                Err(format!("{path}: expected {e:e}, got {a:e}"))
            }
        }
        (Json::Obj(e), Json::Obj(a)) => {
            if e.len() != a.len() {
                return Err(format!(
                    "{path}: expected {} fields, got {}",
                    e.len(),
                    a.len()
                ));
            }
            for (key, ev) in e {
                let av = actual
                    .get(key)
                    .ok_or_else(|| format!("{path}.{key}: missing"))?;
                compare(ev, av, &format!("{path}.{key}"), key)?;
            }
            Ok(())
        }
        (e, a) if e == a => Ok(()),
        (e, a) => Err(format!(
            "{path}: expected {}, got {}",
            e.render(),
            a.render()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn discrete_fields_must_match_exactly() {
        let e = j(r#"{"rows":64,"label":"6T-HVT-M2","vssc_mv":-120}"#);
        assert!(compare(&e, &e, "", "").is_ok());
        assert!(compare(
            &e,
            &j(r#"{"rows":128,"label":"6T-HVT-M2","vssc_mv":-120}"#),
            "",
            ""
        )
        .is_err());
        assert!(compare(
            &e,
            &j(r#"{"rows":64,"label":"6T-LVT-M2","vssc_mv":-120}"#),
            "",
            ""
        )
        .is_err());
        assert!(compare(
            &e,
            &j(r#"{"rows":64,"label":"6T-HVT-M2","vssc_mv":-119.99}"#),
            "",
            ""
        )
        .is_err());
        assert!(compare(&e, &j(r#"{"rows":64,"label":"6T-HVT-M2"}"#), "", "").is_err());
    }

    #[test]
    fn continuous_fields_tolerate_solver_noise_only() {
        let e = j(r#"{"edp_js":1.0e-25,"wm":{"mean_mv":100.0,"sigma_mv":5.0}}"#);
        let close =
            j(r#"{"edp_js":1.0000001e-25,"wm":{"mean_mv":100.000001,"sigma_mv":5.0000001}}"#);
        assert!(compare(&e, &close, "", "").is_ok());
        let far = j(r#"{"edp_js":1.00001e-25,"wm":{"mean_mv":100.0,"sigma_mv":5.0}}"#);
        assert!(compare(&e, &far, "", "").is_err());
        let drift = j(r#"{"edp_js":1.0e-25,"wm":{"mean_mv":100.01,"sigma_mv":5.0}}"#);
        assert!(compare(&e, &drift, "", "").is_err());
    }

    #[test]
    fn committed_oracles_cover_their_universes() {
        let search = Oracle::load("search-sweep").unwrap();
        assert_eq!(search.refs.len(), crate::gen::search_universe().len());
        for key in crate::gen::search_universe() {
            assert!(search.refs.contains_key(&key.line()));
        }
        let fullsim = Oracle::load("fullsim-yield").unwrap();
        assert_eq!(fullsim.refs.len(), crate::gen::fullsim_universe().len());
        for point in crate::gen::fullsim_universe() {
            assert!(fullsim.refs.contains_key(&point.key()));
        }
    }
}
