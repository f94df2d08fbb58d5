//! Answer references. None of them comes from the solver under test:
//! closed forms and binomial tails for the generated channels, the
//! detector's analytic BER, committed Viterbi values, and `smg check`
//! records for the daemon.

use smg_serve::json::{self, Value};

/// Relative tolerance for values with a closed form or a committed value
/// (checked against the current code to 9 significant digits).
pub const REL_TOL: f64 = 1e-9;

/// `Ok` when `got` is within `rel` of `want` (relative, with a 1e-15
/// absolute floor for values at 0).
pub fn close(what: &str, got: f64, want: f64, rel: f64) -> Result<(), String> {
    if (got - want).abs() <= rel * want.abs() + 1e-15 {
        Ok(())
    } else {
        Err(format!("{what}: got {got:e}, reference {want:e}"))
    }
}

/// Viterbi decoder values at `L = 8`, `T = 300`, P3 threshold 1, for the
/// SNR grid the `paper-viterbi` workload deals from: `(snr_db, p1, p2, p3)`.
pub const VITERBI_L8_T300: [(f64, f64, f64, f64); 3] = [
    (
        4.9,
        9.536955669631197e-10,
        9.915005572096613e-2,
        9.999999850526168e-1,
    ),
    (
        5.0,
        1.835874674505078e-9,
        9.669739630295517e-2,
        9.999999722452725e-1,
    ),
    (
        5.1,
        3.4889615641020555e-9,
        9.426352013991735e-2,
        9.999999491349659e-1,
    ),
];

/// Checks a Viterbi report's invariants: P3 ≤ 1 − P1 and 0 < P2 < 0.5.
pub fn viterbi_invariants(p1: f64, p2: f64, p3: f64) -> Result<(), String> {
    if p3 > 1.0 - p1 + 1e-12 {
        return Err(format!("P3 {p3:e} > 1 - P1 {:e}", 1.0 - p1));
    }
    if !(p2 > 0.0 && p2 < 0.5) {
        return Err(format!("P2 {p2:e} outside (0, 0.5)"));
    }
    Ok(())
}

/// Checks a Viterbi report's invariants and its values against
/// [`VITERBI_L8_T300`]. `1 − P3` is compared with a looser 1e-6 because it
/// is a difference of two numbers near 1.
pub fn viterbi(snr_db: f64, p1: f64, p2: f64, p3: f64) -> Result<(), String> {
    viterbi_invariants(p1, p2, p3)?;
    let &(_, w1, w2, w3) = VITERBI_L8_T300
        .iter()
        .find(|r| r.0 == snr_db)
        .ok_or_else(|| format!("no committed Viterbi values at {snr_db} dB"))?;
    close("P1", p1, w1, REL_TOL)?;
    close("P2", p2, w2, REL_TOL)?;
    close("1-P3", 1.0 - p3, 1.0 - w3, 1e-6)
}

/// Checks every detector P2 against the analytic BER.
pub fn detector(ber: f64, p2_at: &[(u64, f64)]) -> Result<(), String> {
    p2_at
        .iter()
        .try_for_each(|&(t, p2)| close(&format!("P2 at T={t}"), p2, ber, REL_TOL))
}

/// Parses a `smg check --format json` or `/check` reply into its
/// per-property records with `time_s` removed (the one field allowed to
/// differ between runs).
pub fn records(reply: &str) -> Result<Vec<Value>, String> {
    let doc = json::parse(reply)?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("reply has no results array")?;
    results
        .iter()
        .map(|r| match r {
            Value::Object(m) => {
                let mut m = m.clone();
                m.remove("time_s");
                Ok(Value::Object(m))
            }
            _ => Err("result record is not an object".to_string()),
        })
        .collect()
}

/// Field `key` of a record as a number.
pub fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

/// Field `key` of a record as a string.
pub fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_is_relative() {
        assert!(close("x", 1.0 + 5e-10, 1.0, REL_TOL).is_ok());
        assert!(close("x", 1.0 + 5e-9, 1.0, REL_TOL).is_err());
        assert!(close("x", 2e-20, 1e-20, REL_TOL).is_ok());
    }

    #[test]
    fn viterbi_rejects_broken_invariants_and_drift() {
        let (snr, p1, p2, p3) = VITERBI_L8_T300[1];
        assert!(viterbi(snr, p1, p2, p3).is_ok());
        assert!(viterbi(snr, p1 * (1.0 + 1e-6), p2, p3).is_err());
        assert!(viterbi(snr, p1, 0.6, p3).is_err());
        assert!(viterbi(snr, 0.5, p2, 0.9).is_err());
        assert!(viterbi(4.75, p1, p2, p3).is_err());
    }

    #[test]
    fn detector_needs_every_horizon_at_the_ber() {
        assert!(detector(0.02, &[(5, 0.02), (10, 0.02 * (1.0 + 1e-12))]).is_ok());
        assert!(detector(0.02, &[(5, 0.02), (10, 0.0201)]).is_err());
    }

    #[test]
    fn records_drop_only_time() {
        let a = r#"{"results": [{"property": "P=? [ F err ]", "value": 0.5, "time_s": 0.1}]}"#;
        let b = r#"{"schema": "x", "results": [{"property": "P=? [ F err ]", "value": 0.5, "time_s": 9}]}"#;
        let c =
            r#"{"results": [{"property": "P=? [ F err ]", "value": 0.5000001, "time_s": 0.1}]}"#;
        assert_eq!(records(a).unwrap(), records(b).unwrap());
        assert_ne!(records(a).unwrap(), records(c).unwrap());
        assert!(records("{}").is_err());
    }
}
