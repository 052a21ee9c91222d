//! The JSON the benchmark writes. Reading is done by the workspace's own
//! parser, `ncs_bench::check::parse_json`.

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Written with all its digits; a non-finite number becomes `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for files people read.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&ncs_obs::json::escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                // Arrays hold numbers: keep them on one line.
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { ", " } else { "," });
                    }
                    item.write(out, None, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    Json::Str(key.clone()).write(out, None, depth);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_bench::check::parse_json;

    #[test]
    fn both_renderings_parse_back() {
        let doc = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("x", Json::Num(1.25)),
            ("bad", Json::Num(f64::NAN)),
            ("s", Json::str("a \"quoted\"\nline")),
            ("reps", Json::nums(&[1.0, 2.5])),
            ("nested", Json::obj([("empty", Json::obj::<&str>([]))])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            let parsed = parse_json(&text).expect("rendered JSON parses");
            assert_eq!(parsed.get("ok").and_then(|v| v.as_bool()), Some(true));
            assert_eq!(parsed.get("n").and_then(|v| v.as_num()), Some(3.0));
            assert_eq!(parsed.get("x").and_then(|v| v.as_num()), Some(1.25));
            assert_eq!(
                parsed.get("s").and_then(|v| v.as_str()),
                Some("a \"quoted\"\nline")
            );
            assert_eq!(
                parsed.get("reps").and_then(|v| v.as_arr()).map(<[_]>::len),
                Some(2)
            );
        }
        assert!(!doc.render().contains('\n'));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = 0.1_f64 + 0.2;
        let text = Json::Num(v).render();
        assert_eq!(text.parse::<f64>().unwrap(), v);
    }
}
