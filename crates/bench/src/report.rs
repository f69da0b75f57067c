//! A minimal JSON reader for `BENCH_kernels.json`.
//!
//! The offline build has no serde, so this module carries a small
//! recursive-descent JSON parser (objects, arrays, strings, numbers, bools,
//! null) — enough for the benchmark's own documents and small hand-written
//! fixtures. Readers look fields up by key ([`Json::get`]), so a bench field
//! is defined in one place only: the writer
//! ([`crate::bench_kernels::to_json`]).

use std::collections::BTreeMap;

/// A parsed JSON value (minimal offline parser).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Number(f64),
    /// A string (escape sequences decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (key order not preserved).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Option<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn parse_value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Some(Json::String(self.parse_string()?)),
            b't' => self.parse_keyword("true", Json::Bool(true)),
            b'f' => self.parse_keyword("false", Json::Bool(false)),
            b'n' => self.parse_keyword("null", Json::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(value)
        } else {
            None
        }
    }

    fn parse_object(&mut self) -> Option<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Object(map));
                }
                _ => return None,
            }
        }
    }

    fn parse_array(&mut self) -> Option<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escaped = self.peek()?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            self.pos += 4;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                _ => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let ch = rest.chars().next()?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Option<Json> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Number)
    }
}

/// Parses a JSON document (returns `None` on malformed input or trailing
/// garbage).
pub fn parse_json(input: &str) -> Option<Json> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos == parser.bytes.len() {
        Some(value)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value at `path` (a chain of object keys) under `v`.
    fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
        path.iter().try_fold(v, |v, key| v.get(key))
    }

    #[test]
    fn round_trips_the_v2_writer() {
        // A small synthetic run exercises the writer→reader path without the
        // cost of actually benchmarking.
        let run = crate::bench_kernels::BenchRun {
            kernels: vec![crate::bench_kernels::BenchResult {
                kernel: "shfl_bw_spmm".into(),
                shape: "1024x1024x256 V=64 70% sparse".into(),
                naive_ms: 100.0,
                cold_ms: 8.0,
                plan_build_ms: 2.0,
                prepared_ms: 4.0,
                bit_identical: true,
                headline: true,
            }],
            models: vec![crate::bench_kernels::ModelBenchResult {
                model: "GNMT".into(),
                batch: 4,
                seq_len: 1,
                layers: 6,
                build_ms: 120.0,
                forward_ms: 80.0,
                throughput: 50.0,
                modeled_throughput: 4000.0,
                unit: "tokens/s",
                serving: Some(crate::bench_serving::ServingBenchResult {
                    model: "GNMT".into(),
                    unit: "tokens/s",
                    forwards: 8,
                    hit_rate: 0.975,
                    p50_ms: 10.0,
                    p95_ms: 20.0,
                    p99_ms: 25.0,
                    throughput: 60.0,
                    cold_throughput: 40.0,
                    bit_identical: true,
                    mt_workers: 4,
                    mt_requests: 32,
                    mt_wall_ms: 120.0,
                    panel_segments: 5,
                    panel_sweep_bytes: 4096,
                    panel_bytes_fused: 4096,
                    coalesced_requests: 32,
                    coalesced_wall_ms: 60.0,
                    coalesced_bit_identical: true,
                    continuous: crate::bench_serving::ContinuousBenchResult {
                        layers: 6,
                        requests: 96,
                        window_us: 8_000,
                        windowed_wall_ms: 45.0,
                        zero_wall_ms: 90.0,
                        bit_identical: true,
                        windowed_groups: 30,
                        coalesced_requests: 80,
                        windowed_panel_bytes: 1_000,
                        zero_panel_bytes: 4_000,
                        deadline_p50_ms: 9.0,
                        deadline_p99_ms: 12.0,
                        standard_p99_ms: 20.0,
                        bulk_p50_ms: 18.0,
                        bulk_p99_ms: 30.0,
                        cap_sweep: vec![(256, 45.0)],
                        best_cap: 256,
                        overload_requests: 96,
                        overload_shed: 24,
                        overload_shed_rate: 0.5,
                        overload_deadline_p99_ms: 14.0,
                        overload_bulk_p99_ms: 55.0,
                        update_swaps: 8,
                        update_swap_p99_ms: 3.5,
                        repack_bytes_ratio: 0.125,
                        stale_plan_executes: 2,
                        update_failed_requests: 0,
                    },
                    decode: Some(crate::bench_serving::DecodeBenchResult {
                        sessions: 32,
                        steps: 64,
                        tokens: 2048,
                        wall_ms: 400.0,
                        tokens_s: 5120.0,
                        token_p50_ms: 5.0,
                        token_p99_ms: 9.0,
                        mean_interleave_width: 24.5,
                        evictions: 4,
                        evictions_missed: 0,
                        resumed: 4,
                        lost_tokens: 0,
                        bit_identical: true,
                        serial_sessions: 4,
                        serial_wall_ms: 200.0,
                        serial_tokens_s: 1280.0,
                    }),
                }),
                conv_implicit: Some(crate::bench_kernels::ConvImplicitBench {
                    input_bytes_read: 1_000,
                    im2col_bytes_avoided: 9_000,
                    implicit_ms: 10.0,
                    implicit_images_s: 100.0,
                    bit_identical: true,
                    im2col_bytes_on_implicit: 0,
                }),
            }],
        };
        let doc = parse_json(&crate::bench_kernels::to_json(&run)).unwrap();
        assert_eq!(
            at(&doc, &["schema"]).and_then(Json::as_str),
            Some("shfl-bw-repro/bench-kernels/v2")
        );
        assert!(at(&doc, &["git_rev"]).and_then(Json::as_str).is_some());
        assert!(at(&doc, &["threads"])
            .and_then(Json::as_f64)
            .is_some_and(|t| t >= 1.0));
        assert_eq!(
            at(&doc, &["simd"]).and_then(Json::as_str),
            Some(gpu_sim::simd::active_tier().label())
        );

        let kernels = at(&doc, &["results"]).and_then(Json::as_array).unwrap();
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert_eq!(k.get("kernel").and_then(Json::as_str), Some("shfl_bw_spmm"));
        for (key, want) in [
            ("naive_ms", 100.0),
            ("cold_ms", 8.0),
            ("plan_build_ms", 2.0),
            ("prepared_ms", 4.0),
            ("speedup", 12.5),
            ("prepared_speedup", 2.0),
        ] {
            assert_eq!(k.get(key).and_then(Json::as_f64), Some(want), "{key}");
        }
        assert_eq!(k.get("bit_identical").and_then(Json::as_bool), Some(true));
        assert_eq!(k.get("headline").and_then(Json::as_bool), Some(true));

        let models = at(&doc, &["models"]).and_then(Json::as_array).unwrap();
        assert_eq!(models.len(), 1);
        let m = &models[0];
        assert_eq!(m.get("model").and_then(Json::as_str), Some("GNMT"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("tokens/s"));
        for (path, want) in [
            (&["serving", "hit_rate"][..], 0.975),
            (&["serving", "throughput"], 60.0),
            (&["serving", "cold_throughput"], 40.0),
            (&["serving", "panel_segments"], 5.0),
            (&["serving", "panel_bytes_fused"], 4096.0),
            (&["serving", "coalesced_wall_ms"], 60.0),
            (&["serving", "mt_wall_ms"], 120.0),
            (&["serving", "continuous", "windowed_wall_ms"], 45.0),
            (&["serving", "continuous", "zero_wall_ms"], 90.0),
            (&["serving", "continuous", "deadline_p99_ms"], 12.0),
            (&["serving", "continuous", "bulk_p99_ms"], 30.0),
            (&["serving", "continuous", "best_cap"], 256.0),
            (&["serving", "continuous", "overload_shed"], 24.0),
            (&["serving", "continuous", "overload_shed_rate"], 0.5),
            (&["serving", "continuous", "overload_deadline_p99_ms"], 14.0),
            (&["serving", "continuous", "overload_bulk_p99_ms"], 55.0),
            (&["serving", "continuous", "update_swaps"], 8.0),
            (&["serving", "continuous", "update_swap_p99_ms"], 3.5),
            (&["serving", "continuous", "repack_bytes_ratio"], 0.125),
            (&["serving", "continuous", "stale_plan_executes"], 2.0),
            (&["serving", "continuous", "update_failed_requests"], 0.0),
            (&["serving", "decode", "decode_tokens_s"], 5120.0),
            (&["serving", "decode", "token_p50_ms"], 5.0),
            (&["serving", "decode", "token_p99_ms"], 9.0),
            (&["serving", "decode", "mean_interleave_width"], 24.5),
            (&["serving", "decode", "evictions"], 4.0),
            (&["serving", "decode", "resumed"], 4.0),
            (&["serving", "decode", "lost_tokens"], 0.0),
            (&["serving", "decode", "serial_tokens_s"], 1280.0),
            (&["conv_implicit", "input_bytes_read"], 1000.0),
            (&["conv_implicit", "im2col_bytes_avoided"], 9000.0),
            (&["conv_implicit", "implicit_ms"], 10.0),
            (&["conv_implicit", "implicit_images_s"], 100.0),
            (&["conv_implicit", "im2col_bytes_on_implicit"], 0.0),
        ] {
            assert_eq!(at(m, path).and_then(Json::as_f64), Some(want), "{path:?}");
        }
        for path in [
            &["serving", "bit_identical"][..],
            &["serving", "continuous", "bit_identical"],
            &["serving", "decode", "bit_identical"],
            &["conv_implicit", "bit_identical"],
        ] {
            assert_eq!(at(m, path).and_then(Json::as_bool), Some(true), "{path:?}");
        }
    }

    #[test]
    fn rejects_malformed_and_unknown_documents() {
        assert!(parse_json("not json").is_none());
        assert!(parse_json("").is_none());
        assert!(parse_json("{\"a\": [1, 2,]}").is_none());
        assert!(parse_json("{\"a\": 1").is_none());
        assert!(parse_json("{} trailing").is_none());
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"s": "a\"b\\c\nd", "arr": [1, -2.5, 3e2, true, null], "o": {}}"#)
            .unwrap();
        assert_eq!(doc.get("s").unwrap().as_str().unwrap(), "a\"b\\c\nd");
        let arr = doc.get("arr").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64().unwrap(), -2.5);
        assert_eq!(arr[2].as_f64().unwrap(), 300.0);
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(parse_json(r#""A""#).unwrap().as_str().unwrap(), "A");
    }
}
