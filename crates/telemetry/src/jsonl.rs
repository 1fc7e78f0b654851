//! The workspace's one JSONL line codec: the hand-rolled dialect every
//! exporter writes (telemetry snapshots, `netsim` journals, `core`
//! provenance logs) and the readers that parse it back. A line is one flat
//! JSON object; a field's value is a number or a string, never nested.
//!
//! ```
//! use sensorlog_telemetry::jsonl;
//!
//! let line = format!(r#"{{"kind":{},"n":7}}"#, jsonl::escape("a\"b\n"));
//! assert_eq!(line, r#"{"kind":"a\"b\n","n":7}"#);
//! assert_eq!(jsonl::field_str(&line, "kind").as_deref(), Some("a\"b\n"));
//! assert_eq!(jsonl::field_u64(&line, "n"), Some(7));
//! assert_eq!(jsonl::field_u64(&line, "kind"), None);
//! ```

/// `s` as a quoted JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The value of `"key":` in a one-line object, as written: a string keeps
/// its quotes and escapes, a number runs to the next `,` or `}`. `None`
/// when the key is absent or its value is cut off.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        let mut escaped = false;
        for (i, ch) in inner.char_indices() {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                return Some(&rest[..i + 2]);
            }
        }
        None
    } else {
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    }
}

/// The string value of `"key":`, unescaped; `None` when it is not a
/// well-formed string.
pub fn field_str(line: &str, key: &str) -> Option<String> {
    let raw = field_raw(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            c @ ('"' | '\\' | '/') => out.push(c),
            _ => return None,
        }
    }
    Some(out)
}

/// The unsigned integer value of `"key":`.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

/// The signed integer value of `"key":`.
pub fn field_i64(line: &str, key: &str) -> Option<i64> {
    field_raw(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_char_round_trips() {
        let s: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain(['é', '∀'])
            .collect();
        let line = format!("{{\"s\":{},\"n\":1}}", escape(&s));
        assert_eq!(field_str(&line, "s").as_deref(), Some(s.as_str()));
        assert_eq!(field_u64(&line, "n"), Some(1));
    }

    #[test]
    fn strings_and_numbers_do_not_read_as_each_other() {
        let line = r#"{"a":"5","b":-3,"c":"x"}"#;
        assert_eq!(field_raw(line, "a"), Some("\"5\""));
        assert_eq!(field_u64(line, "a"), None);
        assert_eq!(field_str(line, "b"), None);
        assert_eq!(field_i64(line, "b"), Some(-3));
        assert_eq!(field_u64(line, "b"), None);
        assert_eq!(field_u64(line, "missing"), None);
    }

    #[test]
    fn cut_off_values_are_absent() {
        assert_eq!(field_raw(r#"{"s":"abc"#, "s"), None);
        assert_eq!(field_raw(r#"{"n":12"#, "n"), None);
        assert_eq!(field_str(r#"{"s":"a\q"}"#, "s"), None, "unknown escape");
        assert_eq!(field_str(r#"{"s":"\u00"}"#, "s"), None, "short \\u escape");
    }
}
