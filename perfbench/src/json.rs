//! JSON in and out without external crates: rendering the result line and
//! spans, and reading keyed fields from flat objects such as the server's
//! `/metrics` lines. The names and units read this way carry no escapes.

/// Renders `s` as a JSON string literal.
#[must_use]
pub fn quote(s: &str) -> String {
    format!("\"{}\"", scanft_obs::escape_json_string(s))
}

/// Renders a finite number with all its digits (`{:?}` keeps every
/// significant digit and always shows a fraction or exponent).
#[must_use]
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// The text after each `"key":` in `text` (whitespace around the colon
/// allowed), in order.
fn after_keys<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\"");
    text.match_indices(&pattern)
        .filter_map(|(at, _)| {
            let rest = text[at + pattern.len()..].trim_start();
            Some(rest.strip_prefix(':')?.trim_start())
        })
        .collect()
}

/// Every string value of `key` in `text`, in order.
#[must_use]
pub fn strings<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    after_keys(text, key)
        .into_iter()
        .filter_map(|rest| {
            let rest = rest.strip_prefix('"')?;
            Some(&rest[..rest.find('"')?])
        })
        .collect()
}

/// The first string value of `key` in `text`.
#[must_use]
pub fn field_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    strings(text, key).first().copied()
}

/// The first numeric value of `key` in `text`.
#[must_use]
pub fn field_num(text: &str, key: &str) -> Option<f64> {
    after_keys(text, key).into_iter().find_map(|rest| {
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_of_metrics_lines() {
        let counter = r#"{"kind":"counter","name":"core.generate.tests_emitted","value":9}"#;
        assert_eq!(
            field_str(counter, "name"),
            Some("core.generate.tests_emitted")
        );
        assert_eq!(field_num(counter, "value"), Some(9.0));
        let timer = r#"{"kind":"timer","name":"t","count":2,"total_secs":1.5e-3,"min_secs":0.5}"#;
        assert_eq!(field_num(timer, "total_secs"), Some(1.5e-3));
        assert_eq!(field_num(timer, "value"), None);
        assert_eq!(field_num(r#"{"value":"x"}"#, "value"), None);
    }

    #[test]
    fn reads_every_value_in_order_with_spaces() {
        let doc = r#"[{"name": "a", "unit": "s"}, {"name" : "b", "unit": "ms"}]"#;
        assert_eq!(strings(doc, "name"), ["a", "b"]);
        assert_eq!(strings(doc, "unit"), ["s", "ms"]);
    }

    #[test]
    fn numbers_round_trip_with_all_digits() {
        for v in [0.1 + 0.2, 12.5, 1e-9, 3.0] {
            assert_eq!(field_num(&format!("{{\"v\":{}}}", number(v)), "v"), Some(v));
        }
        assert_eq!(number(f64::INFINITY), "null");
    }
}
