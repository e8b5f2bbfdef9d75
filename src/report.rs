//! The machine-readable artefacts — every `--json` file `mapa-sched` and
//! `mapa-agent` write — and the JSON reader tests and tooling read them
//! back with. The workspace is dependency-free offline, so both are
//! hand-rolled, once each.
//!
//! One writer: [`to_json`], [`agent_status_to_json`],
//! [`agent_placement_to_json`] and [`crate::campaign::campaign_to_json`]
//! are `fields!` lists that build an ordered `Value` tree — integers
//! exact, each float with the decimals its field asks for, `None` as
//! `null` — and `document` alone turns that tree into text: braces,
//! brackets, commas, indentation, quoted keys, and every string through
//! [`json_escape`]. No artefact writes JSON syntax of its own.
//!
//! One strict reader: [`parse_json`] accepts RFC 8259 JSON and nothing
//! else — what Python's `json.loads` rejects, it rejects — in time linear
//! in its input. `tests/report_schema.rs` pins that what the binary
//! emits parses back to the values in the in-memory [`SimReport`].

use mapa_agent::{MachineDescription, Occupancy};
use mapa_sim::SimReport;
use std::collections::BTreeMap;
use std::fmt;

/// An object's members from `key => value` pairs, in writing order; each
/// value goes through [`Value::from`]:
/// `fields!["jobs" => n, "makespan_seconds" => Value::Fixed(m, 3)]`.
macro_rules! fields {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key, $crate::report::Value::from($value))),*]
    };
}
pub(crate) use fields;

/// An artefact as the one writer sees it: an ordered tree whose integers
/// are exact and whose floats carry their decimals — unlike the reader's
/// [`Json`], whose numbers are `f64` and whose objects are sorted maps.
pub(crate) enum Value {
    Null,
    Bool(bool),
    Int(u64),
    /// A float and the decimals it is written with; NaN and the
    /// infinities, which JSON cannot express, are written `null`.
    Fixed(f64, usize),
    Str(String),
    Array(Vec<Value>),
    /// Members in writing order.
    Object(Vec<(&'static str, Value)>),
}

/// The one JSON writer: the object `members` make, two spaces of indent a
/// level, keys quoted and every string escaped, then a newline.
pub(crate) fn document(members: Vec<(&'static str, Value)>) -> String {
    let mut out = String::new();
    Value::Object(members).write(&mut out, "\n");
    out + "\n"
}

impl Value {
    /// Appends this value; `newline` starts a line at its indentation.
    fn write(&self, out: &mut String, newline: &str) {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Value)>) = match self {
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(m) => ('{', '}', m.iter().map(|(k, v)| (Some(*k), v)).collect()),
            Value::Str(s) => return out.push_str(&format!("\"{}\"", json_escape(s))),
            Value::Fixed(x, d) if x.is_finite() => return out.push_str(&format!("{x:.d$}")),
            Value::Int(n) => return out.push_str(&n.to_string()),
            Value::Bool(b) => return out.push_str(&b.to_string()),
            Value::Null | Value::Fixed(..) => return out.push_str("null"),
        };
        let inner = format!("{newline}  ");
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            out.push_str(&inner);
            if let Some(key) = key {
                out.push_str(&format!("\"{}\": ", json_escape(key)));
            }
            value.write(out, &inner);
        }
        if !members.is_empty() {
            out.push_str(newline);
        }
        out.push(close);
    }
}

/// `Value::from` for each scalar type an artefact holds.
macro_rules! value_from {
    ($($t:ty => |$v:ident| $value:expr),+ $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Self {
                $value
            }
        }
    )+};
}
value_from! {
    bool => |b| Value::Bool(b),
    u32 => |n| Value::Int(n.into()),
    u64 => |n| Value::Int(n),
    usize => |n| Value::Int(n as u64), // lossless: usize is at most 64 bits
    &str => |s| Value::Str(s.to_owned()),
    &String => |s| Value::Str(s.clone()),
    String => |s| Value::Str(s),
    Vec<(&'static str, Value)> => |members| Value::Object(members),
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(value: Option<T>) -> Self {
        value.map_or(Value::Null, Into::into)
    }
}

impl<T: Copy + Into<Value>> From<&Vec<T>> for Value {
    fn from(items: &Vec<T>) -> Self {
        Value::Array(items.iter().map(|&item| item.into()).collect())
    }
}

/// Escapes a string for embedding inside a JSON string literal
/// (backslash, quote, and control characters; everything else passes
/// through verbatim, including multi-byte UTF-8).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a [`SimReport`] to the CLI's `--json` schema: run summary,
/// queue statistics, the dispatch layer (when one ran), the federation
/// layer (when one ran), preemption and gang counters, and one object
/// per shard. `slo.attainment` is a number for runs with SLO-tagged jobs
/// and JSON `null` otherwise — a vacuous run has no attainment, not a
/// perfect one.
#[must_use]
pub fn to_json(report: &SimReport) -> String {
    use Value::Fixed;
    // `scheduling_stats` panics on an empty run; report zeros instead.
    let sched = (!report.records.is_empty()).then(|| report.scheduling_stats());
    let (queue, p, slo) = (&report.queue, &report.preemption, &report.slo);
    let mut doc = fields![
        "machine" => &report.topology_name, "policy" => &report.policy_name,
        "jobs" => report.records.len(),
        "makespan_seconds" => Fixed(report.makespan_seconds, 3),
        "throughput_jobs_per_hour" => Fixed(report.throughput_jobs_per_hour, 3),
        "scheduling_latency_ms" => fields![
            "p50" => Fixed(sched.as_ref().map_or(0.0, |s| s.latency_ms.p50), 6),
            "max" => Fixed(sched.as_ref().map_or(0.0, |s| s.latency_ms.max), 6)],
        "cache_hit_rate" => Fixed(sched.as_ref().map_or(0.0, |s| s.cache_hit_rate()), 6),
        "queue" => fields!["max_depth" => queue.max_depth,
            "mean_depth" => Fixed(queue.mean_depth, 3), "dispatch_blocks" => queue.dispatch_blocks,
            "fragmentation_blocks" => queue.fragmentation_blocks]];
    if let Some(d) = &report.dispatch {
        doc.extend(fields![
            "dispatch" => fields!["mode" => d.mode, "migration" => d.migration,
                "shard_queue_depth" => d.shard_queue_depth, "jobs_stolen" => d.jobs_stolen,
                "jobs_rebalanced" => d.jobs_rebalanced,
                "max_queue_depths" => &d.max_queue_depths]]);
    }
    if let Some(fed) = &report.federation {
        doc.extend(fields![
            "federation" => fields!["policy" => fed.policy,
                "spillovers" => fed.spillovers, "quota_holds" => fed.quota_holds,
                "gangs_pinned" => fed.gangs_pinned, "gangs_spanned" => fed.gangs_spanned,
                "clusters" => Value::Array(fed.clusters.iter().map(|c| fields![
                    "cluster" => c.cluster, "machine" => &c.label,
                    "first_server" => c.first_server, "servers" => c.servers,
                    "gpu_count" => c.gpu_count, "jobs_routed" => c.jobs_routed,
                    "spill_ins" => c.spill_ins, "jobs_completed" => c.jobs_completed,
                    "gpu_seconds" => Fixed(c.gpu_seconds, 3)].into()).collect()),
                "tenants" => Value::Array(fed.tenants.iter().map(|t| fields![
                    "tenant" => t.tenant, "quota_gpus" => t.quota_gpus,
                    "peak_gpus" => t.peak_gpus, "quota_holds" => t.quota_holds,
                    "jobs_completed" => t.jobs_completed,
                    "gpu_seconds" => Fixed(t.gpu_seconds, 3)].into()).collect())]]);
    }
    doc.extend(fields![
        "preemption" => fields!["jobs_preempted" => p.jobs_preempted,
            "gpu_seconds_lost" => Fixed(p.gpu_seconds_lost, 3),
            "penalty_seconds_charged" => Fixed(p.penalty_seconds_charged, 3)],
        "gangs" => fields!["dispatched" => report.gangs.gangs_dispatched,
            "members" => report.gangs.members_dispatched,
            "total_wait_seconds" => Fixed(report.gangs.total_wait_seconds, 3),
            "max_wait_seconds" => Fixed(report.gangs.max_wait_seconds, 3)],
        "slo" => fields!["jobs" => slo.jobs, "met" => slo.met, "missed" => slo.missed,
            "attainment" => slo.attainment().map(|a| Fixed(a, 6)),
            "p95_latency_ms" => Fixed(slo.p95_latency_ms, 6),
            "p95_target_ms" => Fixed(slo.p95_target_ms, 6)],
        "shards" => Value::Array(report.shards.iter().map(|s| fields![
            "server" => s.server, "machine" => &s.machine, "gpu_count" => s.gpu_count,
            "jobs_completed" => s.jobs_completed, "gpu_seconds" => Fixed(s.gpu_seconds, 3),
            "utilization" => Fixed(s.utilization, 6),
            "cache_hits" => s.cache.map_or(0, |c| c.hits),
            "cache_misses" => s.cache.map_or(0, |c| c.misses)].into()).collect())]);
    document(doc)
}

/// The `machine` object both agent artefacts carry.
fn agent_machine(m: &MachineDescription) -> Value {
    Value::from(fields![
        "name" => m.topology.name(), "gpu_count" => m.topology.gpu_count(),
        "matched_profile" => m.matched_profile.as_deref(), "synthesized" => m.is_synthesized()])
}

/// Serializes an agent [`StatusReport`](mapa_agent::StatusReport) to the
/// `mapa-agent status --json` schema (what CI checks on the uploaded
/// `AGENT_report.json` artifact).
#[must_use]
pub fn agent_status_to_json(status: &mapa_agent::StatusReport) -> String {
    document(fields!["schema" => "mapa-agent-status-v1",
        "source" => &status.source, "hostname" => &status.hostname,
        "machine" => agent_machine(&status.machine), "free_gpus" => &status.free_gpus(),
        "gpus" => Value::Array(status.gpus.iter().map(|g| fields![
            "index" => g.index, "leased_by" => g.leased_by, "free" => g.is_free(),
            "occupancy" => match g.occupancy {
                Occupancy::Idle => fields!["kind" => "idle"],
                Occupancy::Utilized { pct } => fields!["kind" => "utilized", "pct" => pct],
                Occupancy::GhostProcess { pid, memory_mib } => fields!["kind" => "ghost-process",
                    "pid" => pid, "memory_mib" => memory_mib],
                Occupancy::MemoryHeld { mib } => fields!["kind" => "memory-held", "mib" => mib],
            }].into()).collect()),
        "leases" => Value::Array(status.leases.iter().map(|l| fields![
            "id" => l.id, "pid" => l.pid, "created_unix" => l.created_unix,
            "gpus" => &l.gpus, "tag" => &l.tag].into()).collect())])
}

/// Serializes an agent [`Placement`](mapa_agent::Placement) to the
/// `mapa-agent allocate --json` schema.
#[must_use]
pub fn agent_placement_to_json(placement: &mapa_agent::Placement) -> String {
    use Value::Fixed;
    let (score, mix) = (&placement.score, &placement.score.link_mix);
    document(fields!["schema" => "mapa-agent-placement-v1",
        "lease_id" => placement.lease_id, "gpus" => &placement.gpus,
        "cuda_visible_devices" => &placement.cuda_visible_devices,
        "policy" => &placement.policy, "machine" => agent_machine(&placement.machine),
        "score" => fields!["aggregated_bw" => Fixed(score.aggregated_bw, 3),
            "predicted_eff_bw" => Fixed(score.predicted_eff_bw, 3),
            "preserved_bw" => Fixed(score.preserved_bw, 3),
            "link_mix" => fields!["double_nvlink" => mix.double_nvlink,
                "single_nvlink" => mix.single_nvlink, "pcie" => mix.pcie]]])
}

/// A parsed JSON value (the subset our reports use; no integer/float
/// distinction — every number is an `f64`, exactly how the report reads
/// them back).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is not preserved (sorted map).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member of an object by key, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON parse error: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting [`parse_json`] accepts. The reports we
/// emit nest 3 deep; 128 leaves headroom for hand-edited files while
/// keeping the recursive-descent parser safely inside the stack (the
/// "total, never panics" contract would otherwise die on `[[[[…`).
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses a JSON document: RFC 8259 and nothing laxer, in time linear in
/// the input (total: never panics on any input; containers nested deeper
/// than [`MAX_JSON_DEPTH`] are a [`JsonError`], not a stack overflow).
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(JsonError {
            offset: pos,
            message: "trailing characters after the document",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8, message: &'static str) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError {
            offset: *pos,
            message,
        })
    }
}

fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    if depth > MAX_JSON_DEPTH {
        return Err(JsonError {
            offset: *pos,
            message: "containers nested too deeply",
        });
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(input, pos, depth),
        Some(b'[') => parse_array(input, pos, depth),
        Some(b'"') => Ok(Json::String(parse_string(input, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(input, pos),
        _ => Err(JsonError {
            offset: *pos,
            message: "expected a JSON value",
        }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &'static [u8],
    value: Json,
) -> Result<Json, JsonError> {
    if bytes.len() >= *pos + word.len() && &bytes[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError {
            offset: *pos,
            message: "malformed literal",
        })
    }
}

/// RFC 8259's number: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
fn parse_number(input: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let start = *pos;
    // Consumes the next byte if it is one of `set`.
    let eat = |pos: &mut usize, set: &[u8]| {
        let hit = bytes.get(*pos).is_some_and(|b| set.contains(b));
        *pos += usize::from(hit);
        hit
    };
    let digits = |pos: &mut usize| {
        let from = *pos;
        while eat(pos, b"0123456789") {}
        *pos - from
    };
    eat(pos, b"-");
    let leading_zero = bytes.get(*pos) == Some(&b'0');
    let int_digits = digits(pos);
    let mut well_formed = int_digits == 1 || (int_digits > 1 && !leading_zero);
    if eat(pos, b".") {
        well_formed &= digits(pos) > 0;
    }
    if eat(pos, b"eE") {
        eat(pos, b"+-");
        well_formed &= digits(pos) > 0;
    }
    let number = input[start..*pos].parse::<f64>().ok();
    number
        .filter(|n| well_formed && n.is_finite())
        .map(Json::Number)
        .ok_or(JsonError {
            offset: start,
            message: "malformed number",
        })
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'"', "expected a string")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    offset: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = bytes.get(*pos).copied().ok_or(JsonError {
                    offset: *pos,
                    message: "unterminated escape",
                })?;
                *pos += 1;
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
                        let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        // `from_str_radix` alone would also take a sign.
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or(JsonError {
                                offset: *pos,
                                message: "bad \\u escape",
                            })?;
                        *pos += 4;
                        out.push(code);
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos - 1,
                            message: "unknown escape",
                        })
                    }
                }
            }
            Some(0..0x20) => {
                return Err(JsonError {
                    offset: *pos,
                    message: "unescaped control character in string",
                })
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote,
                // backslash or control character: each is one ASCII byte,
                // so the run ends on a character boundary.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| !matches!(b, b'"' | b'\\' | 0..0x20))
                {
                    *pos += 1;
                }
                out.push_str(&input[start..*pos]);
            }
        }
    }
}

fn parse_array(input: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'[', "expected an array")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(input, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => {
                return Err(JsonError {
                    offset: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_object(input: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'{', "expected an object")?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(input, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':' after object key")?;
        let value = parse_value(input, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => {
                return Err(JsonError {
                    offset: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = r#"{"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -2e3}}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\n\"y\""));
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2000.0)
        );
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for doc in [
            "{",
            "[1, ]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"abc",
            "{\"a\": +}",
            // Python's `json.loads` rejects these too: RFC 8259 numbers
            // only, and no raw control character inside a string.
            "01",
            "1.",
            "-.5",
            "1.e5",
            "-",
            "1e+",
            "\"a\tb\"",
            "\"\\u+041\"",
        ] {
            let err = parse_json(doc).expect_err(doc);
            assert!(err.offset <= doc.len(), "{doc}: {err}");
        }
        for (doc, value) in [("-0", 0.0), ("1e5", 1e5), ("-1.5E-2", -0.015)] {
            assert_eq!(parse_json(doc), Ok(Json::Number(value)), "{doc}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 2 MB of one- to four-byte characters; each character used to
        // re-validate the rest of the document, minutes at this size.
        let text = "aé€🦀 ".repeat(2_000_000 / 11);
        let doc = format!("[\"{text}\"]");
        assert_eq!(parse_json(&doc), Ok(Json::Array(vec![Json::String(text)])));
    }

    #[test]
    fn writer_indents_and_prints_fixed_decimals() {
        let doc = document(fields![
            "third" => Value::Fixed(1.0 / 3.0, 3), "nan" => Value::Fixed(f64::NAN, 6),
            "empty" => &Vec::<usize>::new(), "one" => fields!["id" => u64::MAX]]);
        let expected = "{\n  \"third\": 0.333,\n  \"nan\": null,\n  \"empty\": [],\n  \
                        \"one\": {\n    \"id\": 18446744073709551615\n  }\n}\n";
        assert_eq!(doc, expected);
    }

    const KEYS: [&str; 4] = ["a", "q\"\\", "\u{1}\n", "é🦀"];

    /// Draws a value from `tape`: integers below 2^53, strings of quotes,
    /// backslashes, control and non-ASCII characters, nested arrays and
    /// objects — as the writer's [`Value`] and as the [`Json`] it must
    /// read back as.
    fn draw(tape: &mut impl Iterator<Item = u64>, depth: usize) -> (Value, Json) {
        const CHARS: [char; 8] = ['"', '\\', '\n', '\u{1}', '\u{1f}', 'x', 'é', '🦀'];
        let r = tape.next().unwrap_or(0);
        let n = r >> 11;
        match r % if depth < 3 { 7 } else { 5 } {
            0 => (Value::Null, Json::Null),
            1 => (Value::Bool(n % 2 == 0), Json::Bool(n % 2 == 0)),
            2 => (Value::Int(n), Json::Number(n as f64)),
            3 | 4 => {
                let text: String = (0..n % 9)
                    .map(|i| CHARS[(n >> (4 + 3 * i)) as usize % 8])
                    .collect();
                (Value::Str(text.clone()), Json::String(text))
            }
            5 => {
                let (values, jsons) = (0..n % 4).map(|_| draw(tape, depth + 1)).unzip();
                (Value::Array(values), Json::Array(jsons))
            }
            _ => {
                let (members, map) = draw_members(tape, n as usize % 5, depth + 1);
                (Value::Object(members), Json::Object(map))
            }
        }
    }

    fn draw_members(
        tape: &mut impl Iterator<Item = u64>,
        count: usize,
        depth: usize,
    ) -> (Vec<(&'static str, Value)>, BTreeMap<String, Json>) {
        KEYS[..count]
            .iter()
            .map(|&key| {
                let (value, json) = draw(tape, depth);
                ((key, value), (key.to_string(), json))
            })
            .unzip()
    }

    /// JSON tokens, well-formed and not: structure, string pieces and
    /// escapes (truncated ones too), numbers, literals and their prefixes,
    /// whitespace, a control character, non-ASCII characters.
    const JSON_TOKENS: [&str; 32] = [
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83e", "00e9", "\"a\"", "0", "1", "-",
        ".", "5", "e", "E+", "1e999", "true", "tru", "null", "nul", "false", " ", "\n", "\t",
        "\u{1}", "é", "🦀", "\"\\",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Soup of JSON tokens, alone or spliced into a valid document, and
        /// every prefix of it, never panics the parser, and an error's
        /// offset lies inside the text parsed (or at its end).
        #[test]
        fn json_parse_never_panics_on_token_soup(
            tokens in proptest::collection::vec(0usize..JSON_TOKENS.len(), 0..40),
            host in 0usize..3,
            at in 0usize..4096,
        ) {
            let mut input = match host {
                0 => String::new(),
                1 => r#"{"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -2e3}}"#.to_string(),
                _ => document(fields!["id" => 7u64, "name" => "x", "rows" => &vec![1usize, 2]]),
            };
            let soup: String = tokens.iter().map(|&t| JSON_TOKENS[t]).collect();
            input.insert_str(at % (input.len() + 1), &soup);
            for cut in (0..=input.len()).filter(|&cut| input.is_char_boundary(cut)) {
                let text = &input[..cut];
                if let Err(error) = parse_json(text) {
                    proptest::prop_assert!(error.offset <= cut, "{:?}: {:?}", text, error);
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn written_documents_parse_back_to_what_was_written(
            tape in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64),
        ) {
            let (members, map) = draw_members(&mut tape.into_iter(), KEYS.len(), 1);
            let text = document(members);
            proptest::prop_assert_eq!(parse_json(&text), Ok(Json::Object(map)), "{}", text);
        }
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = parse_json(&deep).expect_err("must not recurse to death");
        assert_eq!(err.message, "containers nested too deeply");
        // The limit leaves ample headroom for real reports (3 levels)
        // and reasonable hand-written files.
        let fine = "[".repeat(64) + &"]".repeat(64);
        assert!(parse_json(&fine).is_ok());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse_json(r#""\u00e9A""#).unwrap();
        assert_eq!(v.as_str(), Some("éA"));
        // Raw multi-byte UTF-8 passes through too (machine names like
        // "4× DGX-1 V100" appear in real reports).
        let raw = parse_json("\"4× DGX-1 V100\"").unwrap();
        assert_eq!(raw.as_str(), Some("4× DGX-1 V100"));
    }
}
