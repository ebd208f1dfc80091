//! Hand-rolled JSON field extraction: the one reader for every flat
//! single-line object the workspace writes.
//!
//! The workspace policy is no serde. Campaign journals, the server's job
//! WAL, and its HTTP bodies are all built with `format!` +
//! `escape_json_string`, so the reader side only needs keyed field
//! extraction. Keeping one reader means every writer/reader pair decodes
//! the same escapes: a string written by one reads back byte-identical
//! through all of them.

/// Extracts an unsigned integer field `"key":123`.
pub fn field_u64(text: &str, key: &str) -> Option<u64> {
    let rest = after_key(text, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extracts a float field `"key":12.5` (also accepts plain integers).
pub fn field_f64(text: &str, key: &str) -> Option<f64> {
    let rest = after_key(text, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-' && c != 'e' && c != 'E')
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extracts a string field `"key":"value"`, decoding every escape
/// `escape_json_string` can emit — including `\uXXXX`, which it uses for
/// control characters below 0x20. A submission containing, say, a vertical
/// tab must round-trip through the WAL, or the admit record would stop
/// parsing on restart.
pub fn field_str(text: &str, key: &str) -> Option<String> {
    let rest = after_key(text, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// Extracts a boolean field `"key":true` / `"key":false`.
pub fn field_bool(text: &str, key: &str) -> Option<bool> {
    let rest = after_key(text, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = text.find(&pattern)? + pattern.len();
    Some(&text[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_typed_fields() {
        let text = r#"{"id":"job-3","n":42,"pct":99.5,"msg":"a \"b\"\nc"}"#;
        assert_eq!(field_str(text, "id").unwrap(), "job-3");
        assert_eq!(field_u64(text, "n"), Some(42));
        assert!((field_f64(text, "pct").unwrap() - 99.5).abs() < 1e-12);
        assert_eq!(field_str(text, "msg").unwrap(), "a \"b\"\nc");
        assert_eq!(field_u64(text, "missing"), None);
        assert_eq!(field_str(text, "n"), None, "numbers are not strings");
        assert_eq!(field_bool(r#"{"a":true,"b":false}"#, "b"), Some(false));
        assert_eq!(field_bool(text, "n"), None);
    }

    #[test]
    fn every_control_character_round_trips_through_the_escaper() {
        // escape_json_string emits \u00XX for control chars it has no
        // short escape for; field_str must decode all of them or a WAL'd
        // submission containing one poisons recovery.
        let raw: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let line = format!("{{\"msg\":\"{}\"}}", scanft_obs::escape_json_string(&raw));
        assert_eq!(field_str(&line, "msg").unwrap(), raw);
    }

    #[test]
    fn unicode_escapes_decode_and_malformed_ones_fail_cleanly() {
        assert_eq!(
            field_str("{\"m\":\"a\\u000bz\"}", "m").unwrap(),
            "a\u{000b}z"
        );
        assert_eq!(field_str("{\"m\":\"\\u0041\"}", "m").unwrap(), "A");
        assert_eq!(
            field_str("{\"m\":\"x\\b\\f\"}", "m").unwrap(),
            "x\u{8}\u{c}"
        );
        // Truncated hex digits or a lone surrogate: the field (and thus
        // the WAL line) is treated as damaged, not mis-decoded.
        assert_eq!(field_str("{\"m\":\"\\u00\"}", "m"), None);
        assert_eq!(field_str("{\"m\":\"\\ud800x\"}", "m"), None);
    }
}
