//! The line protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, in order. A request is a
//! JSON object with an `op` field; everything else is op-specific:
//!
//! ```text
//! {"op":"open-session","session":"a"}
//! {"op":"load-rules","session":"a","program":"(p R [t ^x 1] (halt))"}
//! {"op":"assert-batch","session":"a","facts":[{"class":"t","slots":{"x":1}}]}
//! {"op":"run","session":"a","limit":100,"deadline_ms":2000}
//! {"op":"query-conflict-set","session":"a"}
//! ```
//!
//! `assert-batch` is all-or-nothing: success answers `count` and the
//! `tags` in fact order; a failure (`bad-request` for an undecodable fact,
//! `run-error` for one the engine rejects, `durability` when logging it
//! failed) applied none of the batch, so the response carries no partial
//! count and the whole batch may be resent. Mutating ops (`assert-batch`,
//! `retract`, `run`) answer only after their WAL records are fsynced.
//!
//! Success responses are `{"ok":true,...}`; failures are
//! `{"ok":false,"error":"<code>","message":"..."}` where `<code>` is one of
//! the stable [`codes`] the caller can branch on. Malformed frames get a
//! `bad-frame` response and the connection stays open — a garbage line must
//! never take down a session, let alone the daemon.

use sorete_lang::json::Json;

/// Stable machine-readable error codes.
pub mod codes {
    /// The line was not valid JSON (or not an object).
    pub const BAD_FRAME: &str = "bad-frame";
    /// JSON was well-formed but the request was not (unknown op, missing
    /// or ill-typed field).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The named session does not exist (and the op does not create one).
    pub const NO_SUCH_SESSION: &str = "no-such-session";
    /// The session is busy serving another request — explicit backpressure,
    /// never unbounded queueing. Retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// Admission control: the server is at its session-count limit.
    pub const SESSION_LIMIT: &str = "session-limit";
    /// Admission control: aggregate working-memory bytes are at the limit.
    pub const MEMORY_LIMIT: &str = "memory-limit";
    /// The request exceeded its deadline. For `run` the engine stopped at
    /// a firing boundary, so committed cycles are intact.
    pub const TIMEOUT: &str = "timeout";
    /// The run stopped on an engine error (RHS error, panic fence).
    pub const RUN_ERROR: &str = "run-error";
    /// WAL/checkpoint problem — includes generation mismatches at
    /// recovery, which the server refuses rather than guessing.
    pub const DURABILITY: &str = "durability";
    /// The run went quiescent only because rules are quarantined.
    pub const QUARANTINED: &str = "quarantined";
    /// The server is shutting down and no longer admits work.
    pub const SHUTTING_DOWN: &str = "shutting-down";
}

/// A parsed request frame.
#[derive(Clone, Debug)]
pub struct Request {
    /// The operation name (`open-session`, `run`, ...).
    pub op: String,
    /// Target session, when the op needs one.
    pub session: Option<String>,
    /// Per-request deadline in milliseconds (server default applies when
    /// absent).
    pub deadline_ms: Option<u64>,
    /// The whole frame, for op-specific fields.
    pub body: Json,
}

/// Parse one protocol line into a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, Response> {
    let body = match sorete_lang::json::parse(line) {
        Ok(v) => v,
        Err(e) => return Err(Response::err(codes::BAD_FRAME, &e)),
    };
    if body.as_obj().is_none() {
        return Err(Response::err(codes::BAD_FRAME, "frame is not an object"));
    }
    let op = match body.get("op").and_then(|v| v.as_str()) {
        Some(s) => s.to_string(),
        None => return Err(Response::err(codes::BAD_REQUEST, "missing \"op\"")),
    };
    let session = body
        .get("session")
        .and_then(|v| v.as_str())
        .map(|s| s.to_string());
    let deadline_ms = body.get("deadline_ms").and_then(|v| v.as_u64());
    Ok(Request {
        op,
        session,
        deadline_ms,
        body,
    })
}

/// A response frame, rendered to one JSON line.
#[derive(Clone, Debug)]
pub struct Response {
    /// Did the request succeed?
    pub ok: bool,
    /// Error code (only when `ok == false`).
    pub error: Option<String>,
    /// Human-readable detail (only when `ok == false`).
    pub message: Option<String>,
    /// Op-specific payload fields, merged into the response object.
    pub fields: Vec<(String, Json)>,
}

impl Response {
    /// A bare success.
    pub fn ok() -> Response {
        Response {
            ok: true,
            error: None,
            message: None,
            fields: Vec::new(),
        }
    }

    /// A success with payload fields.
    pub fn with(fields: Vec<(String, Json)>) -> Response {
        Response {
            ok: true,
            error: None,
            message: None,
            fields,
        }
    }

    /// A failure with a stable code and a human-readable message.
    pub fn err(code: &str, message: &str) -> Response {
        Response {
            ok: false,
            error: Some(code.to_string()),
            message: Some(message.to_string()),
            fields: Vec::new(),
        }
    }

    /// Render to one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut obj = vec![("ok".to_string(), Json::Bool(self.ok))];
        if let Some(e) = &self.error {
            obj.push(("error".to_string(), Json::Str(e.clone())));
        }
        if let Some(m) = &self.message {
            obj.push(("message".to_string(), Json::Str(m.clone())));
        }
        obj.extend(self.fields.iter().cloned());
        Json::Obj(obj).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_request() {
        let r = parse_request(r#"{"op":"health"}"#).unwrap();
        assert_eq!(r.op, "health");
        assert!(r.session.is_none());
        assert!(r.deadline_ms.is_none());
    }

    #[test]
    fn parses_full_request() {
        let r =
            parse_request(r#"{"op":"run","session":"s1","deadline_ms":250,"limit":10}"#).unwrap();
        assert_eq!(r.op, "run");
        assert_eq!(r.session.as_deref(), Some("s1"));
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.body.get("limit").and_then(|v| v.as_u64()), Some(10));
    }

    #[test]
    fn garbage_is_bad_frame_not_bad_request() {
        let e = parse_request("%%%garbage%%%").unwrap_err();
        assert_eq!(e.error.as_deref(), Some(codes::BAD_FRAME));
        let e = parse_request("[1,2,3]").unwrap_err();
        assert_eq!(e.error.as_deref(), Some(codes::BAD_FRAME));
        let e = parse_request(r#"{"no_op":1}"#).unwrap_err();
        assert_eq!(e.error.as_deref(), Some(codes::BAD_REQUEST));
    }

    #[test]
    fn response_renders_stable_shape() {
        assert_eq!(Response::ok().render(), r#"{"ok":true}"#);
        let e = Response::err(codes::TIMEOUT, "deadline exceeded");
        assert_eq!(
            e.render(),
            r#"{"ok":false,"error":"timeout","message":"deadline exceeded"}"#
        );
        let w = Response::with(vec![("fired".into(), Json::Int(3))]);
        assert_eq!(w.render(), r#"{"ok":true,"fired":3}"#);
    }
}
