//! The wire format: length-prefixed frames carrying a compact
//! JSON-header / raw-`f64`-payload hybrid.
//!
//! Every message on a connection is a sequence of **frames**:
//!
//! ```text
//! [u32 big-endian length n][1 byte kind][n-1 bytes body]
//! ```
//!
//! * kind `b'J'` — a JSON header (UTF-8, parsed by the project's
//!   hand-rolled [`stencil_obs::json`] reader). Headers carry the
//!   control plane: submissions, progress, rejections, stats.
//! * kind `b'P'` — a raw payload: little-endian `f64` bits, no
//!   serialization overhead. Payload frames carry grid data (a submit's
//!   input state, a done's output state) bit-exactly — `f64::to_bits`
//!   round-trips including NaN payloads and signed zeros, which is what
//!   lets the end-to-end suite assert *bit* identity over the network.
//!
//! A submission is `Header(submit) + Payload(grid)`; a completion is
//! `Header(done) + Payload(grid)`; everything else is a single header
//! frame.
//!
//! Decoding is typed and total: malformed length prefixes, truncated
//! buffers, unknown kinds, mis-sized payloads and invalid JSON all
//! surface as [`WireError`] variants — never a panic, and never an
//! unbounded wait (an incomplete frame is `Ok(None)`, distinct from a
//! stream that *ended* mid-frame, which [`decode_eof`] reports as
//! [`WireError::Truncated`]).
//!
//! Payload bytes cross each layer once. There is one payload encoder
//! (`encode_payload`: a frame's head, then each row's little-endian
//! bits, staged through a caller's fixed chunk) and one decoder
//! (`f64s`: the values a run of bytes holds). The server encodes a
//! result straight from the grid's rows into its write buffer and
//! decodes a submit straight from its read buffer into the rows of the
//! job's grid (`split` hands it the frame's body in place); the client
//! streams a submit from the caller's slice through one stack chunk and
//! decodes a result into its `Vec<f64>` as the bytes arrive. [`encode`]
//! and [`decode`]'s payload arms are the same two routines over a whole
//! `Vec<f64>`.
//!
//! Length prefixes are capped at [`HARD_FRAME_CAP`] (1 GiB). The cap
//! doubles as protocol sniffing: every ASCII uppercase letter is ≥
//! `0x41`, so the first byte of an HTTP request line (`GET /metrics…`)
//! reads as a > 1 GiB length prefix and can never be confused with a
//! valid frame — the server uses exactly this to serve `/healthz` and
//! `/metrics` scrapes on the protocol port.

use std::collections::BTreeMap;
use stencil_core::{Pattern, Tuning};
use stencil_obs::json::{self, Value};

use crate::manifest::{kernel_by_name, tuning_from_str, tuning_to_str};

/// Bytes of the frame length prefix.
pub const LEN_PREFIX: usize = 4;

/// Hard upper bound on a frame's declared length (1 GiB). Anything
/// larger is rejected before buffering — and because `b'A'..=b'Z'` as a
/// length-prefix high byte always exceeds this cap, ASCII protocols
/// (HTTP scrapes) are cleanly distinguishable from frames.
pub const HARD_FRAME_CAP: usize = 0x4000_0000;

/// Default per-connection frame size limit (256 MiB — a 2048³ `f64`
/// grid ships as sharded sub-jobs, not one frame).
pub const DEFAULT_MAX_FRAME: usize = 1 << 28;

/// Frame kind byte for JSON headers.
pub const KIND_HEADER: u8 = b'J';

/// Frame kind byte for raw `f64` payloads.
pub const KIND_PAYLOAD: u8 = b'P';

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A JSON control-plane header.
    Header(Value),
    /// Raw grid data: the `f64`s' little-endian bits, verbatim.
    Payload(Vec<f64>),
}

/// Why a buffer failed to decode (or a message failed to parse).
/// Every variant is a protocol error the peer caused; none are panics.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The length prefix declares a frame larger than the receiver's
    /// limit (or the hard cap).
    FrameTooLarge {
        /// Declared frame length.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// A zero-length frame (no room for even the kind byte).
    EmptyFrame,
    /// The stream ended mid-frame: `have` buffered bytes of a frame
    /// needing `need`.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the complete frame needs (prefix included).
        need: usize,
    },
    /// A frame kind byte that is neither header nor payload.
    UnknownKind(u8),
    /// A header frame whose body is not valid JSON (or not UTF-8).
    BadJson(String),
    /// A payload frame whose body length is not a multiple of 8.
    BadPayloadLen(usize),
    /// A structurally valid JSON header that does not parse as a
    /// protocol message.
    BadHeader(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::Truncated { have, need } => {
                write!(f, "stream ended mid-frame ({have} of {need} bytes)")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind byte 0x{k:02x}"),
            WireError::BadJson(e) => write!(f, "header frame is not valid JSON: {e}"),
            WireError::BadPayloadLen(n) => {
                write!(
                    f,
                    "payload frame body of {n} bytes is not a whole number of f64s"
                )
            }
            WireError::BadHeader(e) => write!(f, "malformed protocol header: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes of one payload value on the wire.
const F64_BYTES: usize = 8;

/// Bytes of the chunk [`encode`] and the server stage a payload through.
const ENCODE_CHUNK: usize = 4096;

/// Append `frame`'s encoding to `out`.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Header(doc) => {
            let body = doc.pretty();
            let len = 1 + body.len();
            out.extend_from_slice(&(len as u32).to_be_bytes());
            out.push(KIND_HEADER);
            out.extend_from_slice(body.as_bytes());
        }
        Frame::Payload(data) => append_payload(data.len(), [data.as_slice()], out),
    }
}

/// The one payload encoder: the frame of the `n` values `rows` yields —
/// its head, then each value's little-endian bits — staged through
/// `chunk` and handed to `sink` a filled chunk at a time (the last one
/// possibly short). `rows` must yield exactly `n` values.
pub(crate) fn encode_payload<'a, E>(
    n: usize,
    rows: impl IntoIterator<Item = &'a [f64]>,
    chunk: &mut [u8],
    mut sink: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    debug_assert!(
        chunk.len() >= LEN_PREFIX + 1 + F64_BYTES,
        "a chunk holds a head and a value"
    );
    let len = 1 + n * F64_BYTES;
    chunk[..LEN_PREFIX].copy_from_slice(&(len as u32).to_be_bytes());
    chunk[LEN_PREFIX] = KIND_PAYLOAD;
    let mut used = LEN_PREFIX + 1;
    for mut row in rows {
        while !row.is_empty() {
            let take = ((chunk.len() - used) / F64_BYTES).min(row.len());
            if take == 0 {
                sink(&chunk[..used])?;
                used = 0;
                continue;
            }
            let dst = &mut chunk[used..used + take * F64_BYTES];
            for (d, v) in dst.chunks_exact_mut(F64_BYTES).zip(&row[..take]) {
                d.copy_from_slice(&v.to_le_bytes());
            }
            used += take * F64_BYTES;
            row = &row[take..];
        }
    }
    sink(&chunk[..used])
}

/// [`encode_payload`] onto the end of `out`, which grows once.
pub(crate) fn append_payload<'a>(
    n: usize,
    rows: impl IntoIterator<Item = &'a [f64]>,
    out: &mut Vec<u8>,
) {
    out.reserve(LEN_PREFIX + 1 + n * F64_BYTES);
    let appended = encode_payload(n, rows, &mut [0; ENCODE_CHUNK], |bytes| {
        out.extend_from_slice(bytes);
        Ok::<(), std::convert::Infallible>(())
    });
    let Ok(()) = appended;
}

/// The one payload decoder: the values whose little-endian bits `src`
/// holds, one per 8 bytes (a trailing partial value is not one). An
/// iterator, so a caller appends to uninitialised capacity or assigns
/// into a grid's rows without a zero-filled buffer in between.
pub(crate) fn f64s(src: &[u8]) -> impl Iterator<Item = f64> + '_ {
    src.chunks_exact(F64_BYTES)
        .map(|c| f64::from_le_bytes(c.try_into().expect("an 8-byte chunk")))
}

/// A complete frame at the front of a buffer, its body still in place.
pub(crate) enum Body<'a> {
    /// A header frame's body: JSON text, not yet parsed
    /// ([`parse_header`]).
    Header(&'a [u8]),
    /// A payload frame's body: a whole number of values' bits.
    Payload(&'a [u8]),
}

/// The kind byte and declared length of the frame at the front of
/// `buf`, once its length prefix and kind byte have arrived — with the
/// checks [`decode`] makes of the prefix. `Ok(None)`: read more.
pub(crate) fn frame_head(buf: &[u8], max_frame: usize) -> Result<Option<(u8, usize)>, WireError> {
    let Some(prefix) = buf.first_chunk::<LEN_PREFIX>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*prefix) as usize;
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    let max = max_frame.min(HARD_FRAME_CAP);
    if len > max {
        return Err(WireError::FrameTooLarge { len, max });
    }
    Ok(buf.get(LEN_PREFIX).map(|&kind| (kind, len)))
}

/// Values in a payload body of `body_len` bytes, or the typed error for
/// a body that is not a whole number of them.
pub(crate) fn payload_values(body_len: usize) -> Result<usize, WireError> {
    if body_len.is_multiple_of(F64_BYTES) {
        Ok(body_len / F64_BYTES)
    } else {
        Err(WireError::BadPayloadLen(body_len))
    }
}

/// The frame at the front of `buf` without materializing its body:
/// `Ok(Some((body, consumed)))` for a complete frame, `Ok(None)` for a
/// prefix of one, and [`decode`]'s errors, in its order, before any
/// body is touched.
pub(crate) fn split(buf: &[u8], max_frame: usize) -> Result<Option<(Body<'_>, usize)>, WireError> {
    let Some((kind, len)) = frame_head(buf, max_frame)? else {
        return Ok(None);
    };
    let total = LEN_PREFIX + len;
    let Some(body) = buf.get(LEN_PREFIX + 1..total) else {
        return Ok(None);
    };
    let body = match kind {
        KIND_HEADER => Body::Header(body),
        KIND_PAYLOAD => {
            payload_values(body.len())?;
            Body::Payload(body)
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok(Some((body, total)))
}

/// Parse a header frame's body.
pub(crate) fn parse_header(body: &[u8]) -> Result<Value, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|e| WireError::BadJson(format!("not UTF-8: {e}")))?;
    json::parse(text).map_err(|e| WireError::BadJson(e.to_string()))
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete frame; the caller
///   drains `consumed` bytes.
/// * `Ok(None)` — the buffer holds only a prefix of a frame; read more.
/// * `Err(_)` — the peer sent something unrecoverable; close.
pub fn decode(buf: &[u8], max_frame: usize) -> Result<Option<(Frame, usize)>, WireError> {
    let Some((body, total)) = split(buf, max_frame)? else {
        return Ok(None);
    };
    let frame = match body {
        Body::Header(text) => Frame::Header(parse_header(text)?),
        Body::Payload(bytes) => Frame::Payload(f64s(bytes).collect()),
    };
    Ok(Some((frame, total)))
}

/// [`decode`] for a stream that has ended: leftover bytes that do not
/// form a complete frame are a [`WireError::Truncated`] protocol error
/// instead of "read more".
pub fn decode_eof(buf: &[u8], max_frame: usize) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.is_empty() {
        return Ok(None);
    }
    match decode(buf, max_frame)? {
        Some(hit) => Ok(Some(hit)),
        None => {
            let need = if buf.len() < LEN_PREFIX {
                LEN_PREFIX
            } else {
                LEN_PREFIX + u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
            };
            Err(WireError::Truncated {
                have: buf.len(),
                need,
            })
        }
    }
}

/// A submission's control-plane header (the frame before its grid
/// payload).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitHeader {
    /// Client-chosen job id, echoed on every frame about this job.
    pub id: u64,
    /// Display name (a Table-1 kernel name, or the inline pattern's).
    pub name: String,
    /// The stencil to apply.
    pub pattern: Pattern,
    /// Domain extents, outermost first (the payload frame must carry
    /// exactly their product in `f64`s).
    pub extents: Vec<usize>,
    /// Total time steps to advance.
    pub steps: usize,
    /// Progress rounds the job is driven as (≥ 1): the server executes
    /// `rounds` sequential sub-jobs (see [`super::round_steps`]) and
    /// streams a progress frame after each — the job-handle protocol
    /// for long multi-round jobs.
    pub rounds: usize,
    /// Per-job tuning override (`None` = the service default).
    pub tuning: Option<Tuning>,
    /// Optional queue-wait deadline in milliseconds: a round that has
    /// waited longer than this when a worker dequeues it is shed with
    /// a typed [`ServerMsg::Deadline`] instead of running late
    /// (`None` = never shed).
    pub deadline_ms: Option<u64>,
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is full (`try_submit` backpressure).
    QueueFull,
    /// The tenant is at its in-flight quota.
    QuotaExceeded,
    /// The service is shutting down.
    ShuttingDown,
    /// The job's plan key is quarantined after repeated worker panics;
    /// resubmitting the same job will keep failing until the key is
    /// retuned/hot-swapped.
    Quarantined,
}

impl RejectReason {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::QuotaExceeded => "quota-exceeded",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::Quarantined => "quarantined",
        }
    }

    /// Decode [`RejectReason::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "queue-full" => RejectReason::QueueFull,
            "quota-exceeded" => RejectReason::QuotaExceeded,
            "shutting-down" => RejectReason::ShuttingDown,
            "quarantined" => RejectReason::Quarantined,
            _ => return None,
        })
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Identify the tenant (must be the first message).
    Hello {
        /// Tenant name quotas and per-tenant stats key on.
        tenant: String,
    },
    /// Submit a job (a payload frame with the grid follows).
    Submit(SubmitHeader),
    /// Abandon a previously submitted job.
    Cancel {
        /// The job to abandon.
        id: u64,
    },
    /// Request a [`crate::StatsSnapshot`] document.
    Stats,
    /// Liveness probe.
    Health,
    /// Orderly goodbye; the server flushes and closes.
    Bye,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Hello accepted.
    HelloOk {
        /// Echoed tenant name.
        tenant: String,
        /// The tenant's in-flight job quota.
        quota: u64,
    },
    /// Submission admitted; progress/done frames will follow.
    Accepted {
        /// Echoed job id.
        id: u64,
    },
    /// Submission refused — the admission-control signal. Typed, never
    /// a hang: the client should wait `retry_after_ms` and retry.
    Rejected {
        /// Echoed job id.
        id: u64,
        /// Why.
        reason: RejectReason,
        /// Suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// A multi-round job finished round `round` of `rounds`.
    Progress {
        /// Echoed job id.
        id: u64,
        /// Rounds completed so far.
        round: u64,
        /// Total rounds.
        rounds: u64,
    },
    /// Job complete (a payload frame with the result grid follows).
    Done {
        /// Echoed job id.
        id: u64,
        /// Slabs of the final round (1 = unsharded).
        shards: u64,
        /// True when any round rode a multi-job batch.
        batched: bool,
        /// Summed queue+execution latency across rounds, microseconds.
        latency_us: u64,
        /// Result extents, outermost first.
        extents: Vec<usize>,
    },
    /// Job failed at execution (plan error, worker loss).
    JobError {
        /// Echoed job id.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// The job was shed: its queue-wait deadline had already passed
    /// when a worker dequeued it. Terminal like [`ServerMsg::JobError`],
    /// but typed — a deadline-aware client resubmits with fresh
    /// headroom instead of parsing an error string.
    Deadline {
        /// Echoed job id.
        id: u64,
        /// The deadline the submission carried, milliseconds.
        deadline_ms: u64,
        /// How long the round actually waited, milliseconds.
        waited_ms: u64,
    },
    /// Acknowledge a cancel.
    Cancelled {
        /// Echoed job id.
        id: u64,
    },
    /// The stats document (a [`crate::StatsSnapshot`] as JSON).
    Stats(Value),
    /// Liveness answer.
    Health {
        /// `"ok"` while serving.
        status: String,
        /// Open protocol connections.
        conns: u64,
    },
    /// Protocol-level error; the server closes after sending it.
    Error {
        /// What the peer did wrong.
        message: String,
    },
    /// Goodbye acknowledged; the connection closes next.
    ByeOk,
}

pub(super) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

pub(super) fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

impl ClientMsg {
    /// Encode as a header document.
    pub fn to_json(&self) -> Value {
        match self {
            ClientMsg::Hello { tenant } => obj(vec![
                ("type", Value::Str("hello".into())),
                ("tenant", Value::Str(tenant.clone())),
            ]),
            ClientMsg::Submit(h) => {
                let mut fields = vec![
                    ("type", Value::Str("submit".into())),
                    ("id", num(h.id)),
                    (
                        "extents",
                        Value::Arr(h.extents.iter().map(|&e| num(e as u64)).collect()),
                    ),
                    ("steps", num(h.steps as u64)),
                    ("rounds", num(h.rounds as u64)),
                ];
                // same duality as the manifest: a resolvable kernel name
                // ships as the name, anything else as the inline pattern
                if kernel_by_name(&h.name).as_ref() == Some(&h.pattern) {
                    fields.push(("kernel", Value::Str(h.name.clone())));
                } else {
                    fields.push(("name", Value::Str(h.name.clone())));
                    fields.push(("dims", num(h.pattern.dims() as u64)));
                    fields.push(("radius", num(h.pattern.radius() as u64)));
                    fields.push((
                        "weights",
                        Value::Arr(h.pattern.weights().iter().map(|&w| Value::Num(w)).collect()),
                    ));
                }
                if let Some(t) = h.tuning {
                    fields.push(("tuning", Value::Str(tuning_to_str(t).into())));
                }
                if let Some(d) = h.deadline_ms {
                    fields.push(("deadline_ms", num(d)));
                }
                obj(fields)
            }
            ClientMsg::Cancel { id } => obj(vec![
                ("type", Value::Str("cancel".into())),
                ("id", num(*id)),
            ]),
            ClientMsg::Stats => obj(vec![("type", Value::Str("stats".into()))]),
            ClientMsg::Health => obj(vec![("type", Value::Str("health".into()))]),
            ClientMsg::Bye => obj(vec![("type", Value::Str("bye".into()))]),
        }
    }

    /// Parse a header document as a client message.
    pub fn from_json(doc: &Value) -> Result<Self, WireError> {
        let bad = |m: &str| WireError::BadHeader(m.to_string());
        let ty = doc
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing \"type\""))?;
        match ty {
            "hello" => Ok(ClientMsg::Hello {
                tenant: doc
                    .get("tenant")
                    .and_then(Value::as_str)
                    .filter(|t| !t.is_empty())
                    .ok_or_else(|| bad("hello needs a non-empty \"tenant\""))?
                    .to_string(),
            }),
            "submit" => Ok(ClientMsg::Submit(parse_submit(doc)?)),
            "cancel" => Ok(ClientMsg::Cancel {
                id: get_u64(doc, "id")?,
            }),
            "stats" => Ok(ClientMsg::Stats),
            "health" => Ok(ClientMsg::Health),
            "bye" => Ok(ClientMsg::Bye),
            other => Err(bad(&format!("unknown client message type {other:?}"))),
        }
    }
}

impl ServerMsg {
    /// Encode as a header document.
    pub fn to_json(&self) -> Value {
        match self {
            ServerMsg::HelloOk { tenant, quota } => obj(vec![
                ("type", Value::Str("hello-ok".into())),
                ("tenant", Value::Str(tenant.clone())),
                ("quota", num(*quota)),
            ]),
            ServerMsg::Accepted { id } => obj(vec![
                ("type", Value::Str("accepted".into())),
                ("id", num(*id)),
            ]),
            ServerMsg::Rejected {
                id,
                reason,
                retry_after_ms,
            } => obj(vec![
                ("type", Value::Str("rejected".into())),
                ("id", num(*id)),
                ("reason", Value::Str(reason.as_str().into())),
                ("retry_after_ms", num(*retry_after_ms)),
            ]),
            ServerMsg::Progress { id, round, rounds } => obj(vec![
                ("type", Value::Str("progress".into())),
                ("id", num(*id)),
                ("round", num(*round)),
                ("rounds", num(*rounds)),
            ]),
            ServerMsg::Done {
                id,
                shards,
                batched,
                latency_us,
                extents,
            } => obj(vec![
                ("type", Value::Str("done".into())),
                ("id", num(*id)),
                ("shards", num(*shards)),
                ("batched", Value::Bool(*batched)),
                ("latency_us", num(*latency_us)),
                (
                    "extents",
                    Value::Arr(extents.iter().map(|&e| num(e as u64)).collect()),
                ),
            ]),
            ServerMsg::JobError { id, message } => obj(vec![
                ("type", Value::Str("job-error".into())),
                ("id", num(*id)),
                ("message", Value::Str(message.clone())),
            ]),
            ServerMsg::Deadline {
                id,
                deadline_ms,
                waited_ms,
            } => obj(vec![
                ("type", Value::Str("deadline".into())),
                ("id", num(*id)),
                ("deadline_ms", num(*deadline_ms)),
                ("waited_ms", num(*waited_ms)),
            ]),
            ServerMsg::Cancelled { id } => obj(vec![
                ("type", Value::Str("cancelled".into())),
                ("id", num(*id)),
            ]),
            ServerMsg::Stats(doc) => obj(vec![
                ("type", Value::Str("stats".into())),
                ("stats", doc.clone()),
            ]),
            ServerMsg::Health { status, conns } => obj(vec![
                ("type", Value::Str("health".into())),
                ("status", Value::Str(status.clone())),
                ("conns", num(*conns)),
            ]),
            ServerMsg::Error { message } => obj(vec![
                ("type", Value::Str("error".into())),
                ("message", Value::Str(message.clone())),
            ]),
            ServerMsg::ByeOk => obj(vec![("type", Value::Str("bye-ok".into()))]),
        }
    }

    /// Parse a header document as a server message.
    pub fn from_json(doc: &Value) -> Result<Self, WireError> {
        let bad = |m: &str| WireError::BadHeader(m.to_string());
        let ty = doc
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing \"type\""))?;
        match ty {
            "hello-ok" => Ok(ServerMsg::HelloOk {
                tenant: get_str(doc, "tenant")?,
                quota: get_u64(doc, "quota")?,
            }),
            "accepted" => Ok(ServerMsg::Accepted {
                id: get_u64(doc, "id")?,
            }),
            "rejected" => Ok(ServerMsg::Rejected {
                id: get_u64(doc, "id")?,
                reason: RejectReason::parse(&get_str(doc, "reason")?)
                    .ok_or_else(|| bad("unknown reject reason"))?,
                retry_after_ms: get_u64(doc, "retry_after_ms")?,
            }),
            "progress" => Ok(ServerMsg::Progress {
                id: get_u64(doc, "id")?,
                round: get_u64(doc, "round")?,
                rounds: get_u64(doc, "rounds")?,
            }),
            "done" => Ok(ServerMsg::Done {
                id: get_u64(doc, "id")?,
                shards: get_u64(doc, "shards")?,
                batched: match doc.get("batched") {
                    Some(Value::Bool(b)) => *b,
                    _ => return Err(bad("done needs a boolean \"batched\"")),
                },
                latency_us: get_u64(doc, "latency_us")?,
                extents: get_extents(doc)?,
            }),
            "job-error" => Ok(ServerMsg::JobError {
                id: get_u64(doc, "id")?,
                message: get_str(doc, "message")?,
            }),
            "deadline" => Ok(ServerMsg::Deadline {
                id: get_u64(doc, "id")?,
                deadline_ms: get_u64(doc, "deadline_ms")?,
                waited_ms: get_u64(doc, "waited_ms")?,
            }),
            "cancelled" => Ok(ServerMsg::Cancelled {
                id: get_u64(doc, "id")?,
            }),
            "stats" => Ok(ServerMsg::Stats(
                doc.get("stats")
                    .cloned()
                    .ok_or_else(|| bad("stats message lacks the document"))?,
            )),
            "health" => Ok(ServerMsg::Health {
                status: get_str(doc, "status")?,
                conns: get_u64(doc, "conns")?,
            }),
            "error" => Ok(ServerMsg::Error {
                message: get_str(doc, "message")?,
            }),
            "bye-ok" => Ok(ServerMsg::ByeOk),
            other => Err(bad(&format!("unknown server message type {other:?}"))),
        }
    }
}

fn get_u64(doc: &Value, key: &str) -> Result<u64, WireError> {
    doc.get(key)
        .and_then(Value::as_num)
        .filter(|&n| n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64)
        .map(|n| n as u64)
        .ok_or_else(|| WireError::BadHeader(format!("missing or non-integer {key:?}")))
}

fn get_str(doc: &Value, key: &str) -> Result<String, WireError> {
    doc.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::BadHeader(format!("missing string {key:?}")))
}

fn get_extents(doc: &Value) -> Result<Vec<usize>, WireError> {
    let bad = |m: &str| WireError::BadHeader(m.to_string());
    doc.get("extents")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("missing \"extents\" array"))?
        .iter()
        .map(|v| {
            v.as_num()
                .filter(|&n| n >= 1.0 && n.fract() == 0.0 && n <= (1u64 << 32) as f64)
                .map(|n| n as usize)
                .ok_or_else(|| bad("\"extents\" must be positive integers"))
        })
        .collect()
}

fn parse_submit(doc: &Value) -> Result<SubmitHeader, WireError> {
    let bad = |m: String| WireError::BadHeader(m);
    let id = get_u64(doc, "id")?;
    let extents = get_extents(doc)?;
    let steps = get_u64(doc, "steps")? as usize;
    let rounds = (get_u64(doc, "rounds").unwrap_or(1) as usize).max(1);
    let tuning = match doc.get("tuning") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| bad("\"tuning\" must be a string".into()))
                .and_then(|s| tuning_from_str(s).map_err(bad))?,
        ),
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(_) => Some(get_u64(doc, "deadline_ms")?),
    };
    let (name, pattern) = if let Some(k) = doc.get("kernel") {
        let k = k
            .as_str()
            .ok_or_else(|| bad("\"kernel\" must be a string".into()))?;
        let p = kernel_by_name(k).ok_or_else(|| bad(format!("unknown kernel {k:?}")))?;
        (k.to_string(), p)
    } else {
        let dims = get_u64(doc, "dims")? as usize;
        let radius = get_u64(doc, "radius")? as usize;
        if !(1..=3).contains(&dims) || radius == 0 {
            return Err(bad("inline pattern needs dims in 1..=3, radius >= 1".into()));
        }
        let weights: Vec<f64> = doc
            .get("weights")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad("inline pattern needs a \"weights\" array".into()))?
            .iter()
            .map(|w| {
                w.as_num()
                    .ok_or_else(|| bad("\"weights\" must be numbers".into()))
            })
            .collect::<Result<_, _>>()?;
        // (2r + 1)^dims, which a huge radius overflows
        let points = radius
            .checked_mul(2)
            .and_then(|d| (d + 1).checked_pow(dims as u32));
        if points != Some(weights.len()) {
            return Err(bad(format!(
                "inline pattern has {} weights, needs (2*{radius}+1)^{dims}",
                weights.len()
            )));
        }
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("inline")
            .to_string();
        (name, Pattern::new(dims, radius, weights))
    };
    if extents.len() != pattern.dims() {
        return Err(bad(format!(
            "{} extents for a {}D pattern",
            extents.len(),
            pattern.dims()
        )));
    }
    Ok(SubmitHeader {
        id,
        name,
        pattern,
        extents,
        steps,
        rounds,
        tuning,
        deadline_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;

    fn roundtrip_frame(f: Frame) {
        let mut buf = Vec::new();
        encode(&f, &mut buf);
        let (back, used) = decode(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(used, buf.len());
        match (&f, &back) {
            (Frame::Payload(a), Frame::Payload(b)) => {
                let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb);
            }
            _ => assert_eq!(f, back),
        }
    }

    #[test]
    fn frames_round_trip_including_nan_bits() {
        roundtrip_frame(Frame::Header(ClientMsg::Stats.to_json()));
        roundtrip_frame(Frame::Payload(vec![]));
        roundtrip_frame(Frame::Payload(vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload bits
            1.5e-300,
        ]));
    }

    #[test]
    fn incomplete_is_none_eof_is_truncated() {
        let mut buf = Vec::new();
        encode(&Frame::Payload(vec![1.0, 2.0]), &mut buf);
        for cut in 0..buf.len() {
            let r = decode(&buf[..cut], DEFAULT_MAX_FRAME).unwrap();
            assert!(r.is_none(), "cut at {cut}");
            if cut > 0 {
                match decode_eof(&buf[..cut], DEFAULT_MAX_FRAME) {
                    Err(WireError::Truncated { have, need }) => {
                        assert_eq!(have, cut);
                        assert!(need > have);
                    }
                    other => panic!("cut at {cut}: {other:?}"),
                }
            }
        }
        assert_eq!(decode_eof(&[], DEFAULT_MAX_FRAME), Ok(None));
    }

    #[test]
    fn oversized_and_malformed_prefixes_are_typed() {
        // declared length over the receiver limit
        let mut buf = vec![0, 1, 0, 0, KIND_PAYLOAD];
        assert!(matches!(
            decode(&buf, 1024),
            Err(WireError::FrameTooLarge { .. })
        ));
        // an HTTP request line reads as an over-cap length prefix
        assert!(matches!(
            decode(b"GET /metrics HTTP/1.1\r\n", DEFAULT_MAX_FRAME),
            Err(WireError::FrameTooLarge { .. })
        ));
        // zero-length frame
        buf = vec![0, 0, 0, 0];
        assert_eq!(decode(&buf, 1024), Err(WireError::EmptyFrame));
        // unknown kind
        buf = vec![0, 0, 0, 1, b'X'];
        assert_eq!(decode(&buf, 1024), Err(WireError::UnknownKind(b'X')));
        // payload body not a multiple of 8
        buf = vec![0, 0, 0, 4, KIND_PAYLOAD, 1, 2, 3];
        assert_eq!(decode(&buf, 1024), Err(WireError::BadPayloadLen(3)));
        // header body that is not JSON
        buf = vec![0, 0, 0, 3, KIND_HEADER, b'{', b'x'];
        assert!(matches!(decode(&buf, 1024), Err(WireError::BadJson(_))));
    }

    #[test]
    fn client_messages_round_trip() {
        let msgs = [
            ClientMsg::Hello {
                tenant: "acme".into(),
            },
            ClientMsg::Submit(SubmitHeader {
                id: 7,
                name: "heat2d".into(),
                pattern: kernels::heat2d(),
                extents: vec![64, 48],
                steps: 12,
                rounds: 3,
                tuning: Some(Tuning::Static),
                deadline_ms: Some(250),
            }),
            ClientMsg::Submit(SubmitHeader {
                id: 8,
                name: "custom".into(),
                pattern: Pattern::new_1d(&[0.25, 0.5, 0.25]),
                extents: vec![4096],
                steps: 5,
                rounds: 1,
                tuning: None,
                deadline_ms: None,
            }),
            ClientMsg::Cancel { id: 9 },
            ClientMsg::Stats,
            ClientMsg::Health,
            ClientMsg::Bye,
        ];
        for m in msgs {
            let back = ClientMsg::from_json(&m.to_json()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let msgs = [
            ServerMsg::HelloOk {
                tenant: "acme".into(),
                quota: 4,
            },
            ServerMsg::Accepted { id: 1 },
            ServerMsg::Rejected {
                id: 2,
                reason: RejectReason::QueueFull,
                retry_after_ms: 25,
            },
            ServerMsg::Progress {
                id: 3,
                round: 2,
                rounds: 8,
            },
            ServerMsg::Done {
                id: 4,
                shards: 3,
                batched: true,
                latency_us: 12345,
                extents: vec![16, 20, 24],
            },
            ServerMsg::JobError {
                id: 5,
                message: "plan error: …".into(),
            },
            ServerMsg::Deadline {
                id: 11,
                deadline_ms: 100,
                waited_ms: 140,
            },
            ServerMsg::Rejected {
                id: 12,
                reason: RejectReason::Quarantined,
                retry_after_ms: 1000,
            },
            ServerMsg::Cancelled { id: 6 },
            ServerMsg::Stats(crate::ServeStats::new().snapshot().to_json()),
            ServerMsg::Health {
                status: "ok".into(),
                conns: 12,
            },
            ServerMsg::Error {
                message: "hello first".into(),
            },
            ServerMsg::ByeOk,
        ];
        for m in msgs {
            let back = ServerMsg::from_json(&m.to_json()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn bad_headers_are_typed_not_panics() {
        for doc in [
            json::parse("{}").unwrap(),
            json::parse(r#"{"type": "warp"}"#).unwrap(),
            json::parse(r#"{"type": "hello"}"#).unwrap(),
            json::parse(r#"{"type": "hello", "tenant": ""}"#).unwrap(),
            json::parse(r#"{"type": "submit", "id": 1.5}"#).unwrap(),
            json::parse(
                r#"{"type": "submit", "id": 1, "kernel": "nope", "extents": [8], "steps": 1}"#,
            )
            .unwrap(),
            json::parse(
                r#"{"type": "submit", "id": 1, "kernel": "heat2d", "extents": [8], "steps": 1}"#,
            )
            .unwrap(),
            // (2r + 1)^dims overflows
            json::parse(
                r#"{"type": "submit", "id": 1, "dims": 2, "radius": 4611686018427387904,
                    "weights": [1], "extents": [8, 8], "steps": 1}"#,
            )
            .unwrap(),
        ] {
            assert!(matches!(
                ClientMsg::from_json(&doc),
                Err(WireError::BadHeader(_))
            ));
        }
        assert!(matches!(
            ServerMsg::from_json(&json::parse(r#"{"type": "done", "id": 1}"#).unwrap()),
            Err(WireError::BadHeader(_))
        ));
    }
}
