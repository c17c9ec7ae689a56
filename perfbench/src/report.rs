//! Metric names, units and the result line.

use std::fmt::Write as _;

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Metric-name grammar: a letter or digit first, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks that `metrics` carry exactly the names of `expected`, in any
/// order, each once, with valid names and units and finite values.
pub fn check(metrics: &[Metric], expected: &[&str]) -> Result<(), String> {
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name `{}`", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit `{}` for `{}`", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not finite: {}", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric `{}` reported twice", m.name));
        }
        if !expected.contains(&m.name.as_str()) {
            return Err(format!("metric `{}` is not declared", m.name));
        }
    }
    if let Some(missing) = expected
        .iter()
        .find(|name| !metrics.iter().any(|m| m.name == **name))
    {
        return Err(format!("declared metric `{missing}` was not reported"));
    }
    Ok(())
}

/// The result object the benchmark prints as its last line: exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A finite `f64` as a JSON number with every digit of Rust's shortest
/// round-trip formatting (which never uses an exponent).
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in [
            "jobs_per_s",
            "rram.mul.fast_ns",
            "sim.run_ms.kmeans",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "semi;colon",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "s", "1/s", "count", "%", "Minst/s", "uJ"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "milli seconds", "17_characters_xxx"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_schema() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("job_p50_ms", "ms", 1.25),
                Metric::new("setup_s", "s", 3.0),
            ],
        );
        assert_eq!(
            line,
            concat!(
                "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {",
                "\"job_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, ",
                "\"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
            )
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e-7), "0.0000001");
        assert_eq!(json_number(42.0), "42.0");
    }

    #[test]
    fn check_catches_schema_errors() {
        let expected = ["a", "b"];
        let ok = [Metric::new("b", "ms", 1.0), Metric::new("a", "s", 2.0)];
        assert_eq!(check(&ok, &expected), Ok(()));
        let missing = [Metric::new("a", "s", 2.0)];
        assert!(check(&missing, &expected).unwrap_err().contains("`b`"));
        let twice = [Metric::new("a", "s", 2.0), Metric::new("a", "s", 2.0)];
        assert!(check(&twice, &expected).unwrap_err().contains("twice"));
        let extra = [
            Metric::new("a", "s", 2.0),
            Metric::new("b", "s", 2.0),
            Metric::new("c", "s", 2.0),
        ];
        assert!(check(&extra, &expected)
            .unwrap_err()
            .contains("not declared"));
        let nan = [Metric::new("a", "s", f64::NAN), Metric::new("b", "s", 1.0)];
        assert!(check(&nan, &expected).unwrap_err().contains("finite"));
        let bad = [Metric::new("a b", "s", 1.0)];
        assert!(check(&bad, &["a b"])
            .unwrap_err()
            .contains("invalid metric name"));
    }
}
