//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line; every request produces
//! exactly one response object on one line, in request order.  Three
//! operations exist:
//!
//! * `{"op":"query","id":N,"topology":"star","size":5,"discipline":
//!   "enhanced-nbc","vc":6,"m":32,"rate":0.004}` — evaluate one operating
//!   point (`op` defaults to `query`, the scenario knobs to the paper's
//!   defaults; an optional `mode` of `exact` or `warm` is accepted for
//!   compatibility and changes nothing);
//! * `{"op":"stats","id":N}` — a cache/traffic counter snapshot;
//! * `{"op":"shutdown","id":N}` — ask the daemon to drain and exit.
//!
//! Successful query responses are
//! `{"id":N,"status":"ok","cached":"cold|exact","hits":H,"result":…}`
//! where `result` is the canonical
//! [`star_workloads::wire::encode_estimate`] payload — spliced in verbatim,
//! so the daemon's byte-identity contract (`result` equals the batch
//! encoding, byte for byte, for every answer) survives the framing.
//! Every failure is `{"id":…,"status":"error","error":"…"}` with `id` null
//! when the request was too broken to carry one; a malformed line is an
//! error *response*, never a dropped connection.

use serde_json::{push_number, push_string, Value, ValueRef};
use star_workloads::{ScenarioFields, WireScenario};

/// The wire `mode` field, kept for compatibility with clients that send
/// it.  Every answer is a cold fixed-point solve, byte-identical to the
/// batch [`star_workloads::ModelBackend`]; both accepted spellings
/// (`exact`, and the retired `warm`) parse to [`SolveMode::Exact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMode {
    /// The exact solve.
    Exact,
}

impl SolveMode {
    /// The wire spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Exact => "exact",
        }
    }
}

/// Where a query's answer came from, echoed in the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A fresh cold fixed-point solve.
    Cold,
    /// Served verbatim from the solve cache.
    Exact,
}

impl CacheOutcome {
    /// The wire spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Cold => "cold",
            Self::Exact => "exact",
        }
    }
}

/// One point-evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The scenario being asked about.
    pub wire: WireScenario,
    /// Traffic generation rate `λ_g` (finite, positive).
    pub rate: f64,
    /// The wire `mode` field; see [`SolveMode`].
    pub mode: SolveMode,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one operating point.
    Query(Query),
    /// Snapshot the daemon's counters.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Drain in-flight work and exit.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

/// Why a request line could not be honoured, with the correlation id when
/// one could still be extracted (so the error response stays matchable).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The request's id, if the line carried a readable one.
    pub id: Option<u64>,
    /// Human-readable reason.
    pub message: String,
}

/// The fields a request line can carry: the first occurrence of each key,
/// borrowed from the line.
#[derive(Default)]
struct RequestFields<'a> {
    id: Option<ValueRef<'a>>,
    op: Option<ValueRef<'a>>,
    rate: Option<ValueRef<'a>>,
    mode: Option<ValueRef<'a>>,
    scenario: ScenarioFields<'a>,
}

impl<'a> RequestFields<'a> {
    fn offer(&mut self, key: &str, value: ValueRef<'a>) {
        let slot = match key {
            "id" => &mut self.id,
            "op" => &mut self.op,
            "rate" => &mut self.rate,
            "mode" => &mut self.mode,
            _ => return self.scenario.offer(key, value),
        };
        slot.get_or_insert(value);
    }
}

impl Request {
    /// Parses one request line in a single pass over its bytes, allocating
    /// nothing for a well-formed query.  Never panics, whatever the bytes
    /// say.
    ///
    /// # Errors
    /// Malformed JSON, unknown operations, missing/misshapen fields and
    /// out-of-range parameters all come back as a [`RequestError`].
    pub fn parse(line: &str) -> Result<Self, RequestError> {
        let mut fields = RequestFields::default();
        serde_json::for_each_field(line, |key, value| fields.offer(&key, value))
            .map_err(|e| RequestError { id: None, message: e.to_string() })?;
        let id = fields.id.as_ref().and_then(ValueRef::as_u64);
        let fail = |message: String| RequestError { id, message };
        let id = id.ok_or_else(|| RequestError {
            id: None,
            message: "missing field `id` (a non-negative integer)".to_string(),
        })?;
        let op = match &fields.op {
            None => "query",
            Some(v) => v.as_str().ok_or_else(|| fail("field `op` must be a string".to_string()))?,
        };
        match op {
            "stats" => Ok(Self::Stats { id }),
            "shutdown" => Ok(Self::Shutdown { id }),
            "query" => {
                let wire = fields.scenario.decode().map_err(|e| fail(e.to_string()))?;
                let rate = fields
                    .rate
                    .as_ref()
                    .ok_or_else(|| fail("missing field `rate`".to_string()))?
                    .as_f64()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| {
                        fail("field `rate` must be a finite positive number".to_string())
                    })?;
                match fields.mode.as_ref().map(ValueRef::as_str) {
                    None | Some(Some("exact" | "warm")) => {}
                    Some(_) => {
                        return Err(fail("field `mode` must be \"exact\" or \"warm\"".to_string()))
                    }
                }
                Ok(Self::Query(Query { id, wire, rate, mode: SolveMode::Exact }))
            }
            other => Err(fail(format!("unknown op `{other}` (query|stats|shutdown)"))),
        }
    }
}

/// A query's JSON request line — the inverse of [`Request::parse`], used by
/// the load generator and the smoke tests: the fields `id`, `op`,
/// `topology`, `size`, `discipline`, `vc`, `m`, `rate` and `mode`, in that
/// order, written into one allocation.
#[must_use]
pub fn query_line(query: &Query) -> String {
    let wire = &query.wire;
    let mut line = String::with_capacity(QUERY_LINE_BYTES);
    line.push_str("{\"id\":");
    push_number(&mut line, query.id as f64);
    line.push_str(",\"op\":\"query\",\"topology\":");
    push_string(&mut line, wire.kind.name());
    line.push_str(",\"size\":");
    push_number(&mut line, wire.size as f64);
    line.push_str(",\"discipline\":");
    push_string(&mut line, wire.discipline.name());
    line.push_str(",\"vc\":");
    push_number(&mut line, wire.virtual_channels as f64);
    line.push_str(",\"m\":");
    push_number(&mut line, wire.message_length as f64);
    line.push_str(",\"rate\":");
    push_number(&mut line, query.rate);
    line.push_str(",\"mode\":");
    push_string(&mut line, query.mode.name());
    line.push('}');
    line
}

/// Room for the longest [`query_line`] (20-digit numbers, a 24-character
/// rate, the longest names come to about 190 bytes), so the line allocates
/// once.
const QUERY_LINE_BYTES: usize = 224;

/// A successful query response.  `payload` is a pre-encoded JSON object
/// (the canonical estimate encoding) and is spliced in verbatim.
#[must_use]
pub fn ok_query(id: u64, outcome: CacheOutcome, hits: u64, payload: &str) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"ok\",\"cached\":\"{}\",\"hits\":{hits},\"result\":{payload}}}",
        outcome.name()
    )
}

/// A successful stats response around a pre-built stats object.
#[must_use]
pub fn ok_stats(id: u64, stats: &Value) -> String {
    format!("{{\"id\":{id},\"status\":\"ok\",\"stats\":{stats}}}")
}

/// The acknowledgement of a shutdown request.
#[must_use]
pub fn ok_shutdown(id: u64) -> String {
    format!("{{\"id\":{id},\"status\":\"ok\",\"shutdown\":true}}")
}

/// The one-line refusal a connection past the daemon's budget receives
/// before its socket closes.  `id` is null — the refusal answers the
/// connection, not any particular request.
#[must_use]
pub fn busy_response(limit: usize) -> String {
    format!(
        "{{\"id\":null,\"status\":\"busy\",\"error\":\"connection budget ({limit}) exhausted; retry later\"}}"
    )
}

/// An error response (JSON-escaping the message; `id` null when unknown).
#[must_use]
pub fn error_response(id: Option<u64>, message: &str) -> String {
    let mut out = String::with_capacity(48 + message.len());
    out.push_str("{\"id\":");
    match id {
        Some(id) => push_number(&mut out, id as f64),
        None => out.push_str("null"),
    }
    out.push_str(",\"status\":\"error\",\"error\":");
    push_string(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_workloads::{Discipline, TopologyKind};

    #[test]
    fn parses_full_defaulted_and_control_requests() {
        let full = Request::parse(
            r#"{"op":"query","id":7,"topology":"star","size":5,"discipline":"nbc","vc":7,"m":16,"rate":0.004,"mode":"warm"}"#,
        )
        .unwrap();
        let Request::Query(q) = &full else { panic!("expected a query") };
        assert_eq!(q.id, 7);
        assert_eq!(q.wire.kind, TopologyKind::Star);
        assert_eq!(q.wire.discipline, Discipline::Nbc);
        // the retired warm mode parses, and means the exact solve
        assert_eq!(q.mode, SolveMode::Exact);
        // op and mode default; scenario knobs fall back to the paper's
        let bare = Request::parse(r#"{"id":1,"topology":"torus","rate":0.01}"#).unwrap();
        let Request::Query(q) = &bare else { panic!("expected a query") };
        assert_eq!(q.mode, SolveMode::Exact);
        assert_eq!(q.wire.network_label(), "T8");
        assert_eq!(q.wire.virtual_channels, 6);
        assert_eq!(Request::parse(r#"{"op":"stats","id":2}"#).unwrap(), Request::Stats { id: 2 });
        assert_eq!(
            Request::parse(r#"{"op":"shutdown","id":3}"#).unwrap(),
            Request::Shutdown { id: 3 }
        );
    }

    #[test]
    fn request_lines_round_trip_through_query_line() {
        let query = Query {
            id: 41,
            wire: WireScenario {
                kind: TopologyKind::Hypercube,
                size: 7,
                discipline: Discipline::EnhancedNbc,
                virtual_channels: 6,
                message_length: 32,
            },
            rate: 0.0125,
            mode: SolveMode::Exact,
        };
        assert_eq!(Request::parse(&query_line(&query)), Ok(Request::Query(query.clone())));
        // the bytes are those of the object the line spells, built as a tree
        for (id, rate) in [(41, 0.0125), (0, 1e-300), (u64::MAX, 7.0), (9, f64::NAN)] {
            let query = Query { id, rate, ..query.clone() };
            let wire = query.wire;
            let tree = Value::Object(vec![
                ("id".to_string(), Value::from(id)),
                ("op".to_string(), Value::from("query")),
                ("topology".to_string(), Value::from(wire.kind.name())),
                ("size".to_string(), Value::from(wire.size)),
                ("discipline".to_string(), Value::from(wire.discipline.name())),
                ("vc".to_string(), Value::from(wire.virtual_channels)),
                ("m".to_string(), Value::from(wire.message_length)),
                ("rate".to_string(), Value::from(rate)),
                ("mode".to_string(), Value::from(query.mode.name())),
            ]);
            assert_eq!(query_line(&query), tree.to_string());
        }
    }

    #[test]
    fn malformed_lines_become_error_values_with_best_effort_ids() {
        // broken JSON: no id recoverable
        assert_eq!(Request::parse("{oops").unwrap_err().id, None);
        // id recoverable even when the rest is nonsense
        let e = Request::parse(r#"{"id":9,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.id, Some(9));
        assert!(e.message.contains("frobnicate"));
        // queries validate their scenario and rate
        let e = Request::parse(r#"{"id":4,"topology":"mesh","rate":0.1}"#).unwrap_err();
        assert!(e.message.contains("mesh"));
        for bad_rate in [r#"{"id":4,"topology":"star"}"#, r#"{"id":4,"topology":"star","rate":-1}"#]
        {
            let e = Request::parse(bad_rate).unwrap_err();
            assert!(e.message.contains("rate"), "{e:?}");
        }
        let e =
            Request::parse(r#"{"id":4,"topology":"star","rate":0.1,"mode":"tepid"}"#).unwrap_err();
        assert!(e.message.contains("mode"));
    }

    #[test]
    fn responses_are_single_json_lines() {
        let ok = ok_query(
            3,
            CacheOutcome::Exact,
            2,
            r#"{"latency":74.5,"saturated":false,"iterations":12}"#,
        );
        let value = serde_json::from_str(&ok).unwrap();
        assert_eq!(value.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("cached").unwrap().as_str(), Some("exact"));
        assert_eq!(value.get("hits").unwrap().as_u64(), Some(2));
        assert_eq!(value.get("result").unwrap().get("latency").unwrap().as_f64(), Some(74.5));
        for (id, message) in [(None, "plain"), (Some(7), "a\\b\n\u{1}"), (Some(u64::MAX), "")] {
            let tree = Value::Object(vec![
                ("id".to_string(), id.map_or(Value::Null, Value::from)),
                ("status".to_string(), Value::from("error")),
                ("error".to_string(), Value::from(message)),
            ]);
            assert_eq!(error_response(id, message), tree.to_string());
        }
        let err = error_response(None, "bad \"quoted\" thing");
        let value = serde_json::from_str(&err).unwrap();
        assert!(value.get("id").unwrap().is_null());
        assert_eq!(value.get("error").unwrap().as_str(), Some("bad \"quoted\" thing"));
        let bye = serde_json::from_str(&ok_shutdown(5)).unwrap();
        assert_eq!(bye.get("shutdown").unwrap().as_bool(), Some(true));
        assert!(!ok.contains('\n') && !err.contains('\n'));
    }
}
