//! The framed wire protocol `mantled` speaks, exactly as documented in
//! `PROTOCOL.md` (whose example frames round-trip through this codec in
//! `tests/docs_examples.rs`).
//!
//! Every message is one **frame**: a 4-byte big-endian length `N`
//! followed by `N` bytes of UTF-8 JSON encoding a single object. The
//! same framing is used in both directions and on every socket role
//! (`client`, `admin`, `trace`); a connection is one role for its whole
//! life, declared by its first frame (`{"type":"hello",...}`).

use std::fmt;
use std::io::{self, Read, Write};

use mantle_mds::RunReport;
use mantle_namespace::OpKind;

use crate::json::{parse, Json, JsonError};

/// Protocol version carried in `hello`/`welcome`. Bumped on any
/// incompatible schema change.
pub const PROTO_VERSION: u64 = 1;

/// Upper bound on a frame's payload length. A peer announcing a longer
/// frame is protocol-broken (or hostile) and gets disconnected rather
/// than buffered.
pub const MAX_FRAME: usize = 16 << 20;

/// A framing/decoding failure on a connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// The payload was not a valid JSON document.
    BadJson(JsonError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            WireError::NotUtf8 => write!(f, "frame payload is not utf-8"),
            WireError::BadJson(e) => write!(f, "frame payload is not json: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode one message as a frame (length prefix + JSON bytes).
pub fn encode_frame(msg: &Json) -> Vec<u8> {
    let body = msg.to_string();
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Pop one complete frame off the front of a receive buffer, if present.
///
/// This is the nonblocking-reactor side of the codec: the server appends
/// whatever `read` returned to `buf` and calls this in a loop. Returns
/// `Ok(None)` while the buffer holds only a partial frame.
pub fn decode_frame(buf: &mut Vec<u8>) -> Result<Option<Json>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload: Vec<u8> = buf.drain(..4 + len).skip(4).collect();
    let text = std::str::from_utf8(&payload).map_err(|_| WireError::NotUtf8)?;
    parse(text).map(Some).map_err(WireError::BadJson)
}

/// Blocking frame read (client side). Returns `Ok(None)` on clean EOF at
/// a frame boundary; a stream that ends anywhere inside a frame — its
/// length prefix included — is an `UnexpectedEof` error. The bytes read
/// are decoded by [`decode_frame`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut buf = vec![0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} bytes into a length prefix"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // An oversized prefix is refused by `decode_frame` before any of its
    // payload is read.
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len <= MAX_FRAME {
        buf.resize(4 + len, 0);
        r.read_exact(&mut buf[4..])?;
    }
    decode_frame(&mut buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Blocking frame write (client side).
pub fn write_frame(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Wire name of an op kind, as used in `{"type":"op","op":...}`.
pub fn op_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Create => "create",
        OpKind::Stat => "stat",
        OpKind::SetAttr => "setattr",
        OpKind::Readdir => "readdir",
        OpKind::OpenRead => "open",
        OpKind::Unlink => "unlink",
        OpKind::Mkdir => "mkdir",
    }
}

/// Parse a wire op name back to an [`OpKind`].
pub fn op_kind(name: &str) -> Option<OpKind> {
    Some(match name {
        "create" => OpKind::Create,
        "stat" => OpKind::Stat,
        "setattr" => OpKind::SetAttr,
        "readdir" => OpKind::Readdir,
        "open" => OpKind::OpenRead,
        "unlink" => OpKind::Unlink,
        "mkdir" => OpKind::Mkdir,
        _ => return None,
    })
}

/// Build an `{"type":"error",...}` reply. `id` echoes the request id
/// when the failing request carried one.
pub fn error_msg(id: Option<u64>, code: &str, detail: impl fmt::Display) -> Json {
    let mut members = vec![("type", Json::str("error"))];
    if let Some(id) = id {
        members.push(("id", Json::num(id as f64)));
    }
    members.push(("code", Json::str(code)));
    members.push(("detail", Json::str(detail.to_string())));
    Json::obj(members)
}

/// Render a [`RunReport`] as the wire JSON used by the final `report`
/// message and `mantlectl report`.
pub fn report_json(r: &RunReport) -> Json {
    let mds: Vec<Json> = r
        .mds
        .iter()
        .enumerate()
        .map(|(i, m)| {
            Json::obj(vec![
                ("mds", Json::num(i as f64)),
                ("total_ops", Json::num(m.total_ops)),
                ("hits", Json::num(m.hits as f64)),
                ("forwards_out", Json::num(m.forwards_out as f64)),
                ("forwards_in", Json::num(m.forwards_in as f64)),
                ("migrations_out", Json::num(m.migrations_out as f64)),
                ("inodes_exported", Json::num(m.inodes_exported as f64)),
                ("sessions_flushed", Json::num(m.sessions_flushed as f64)),
                ("splits", Json::num(m.splits as f64)),
            ])
        })
        .collect();
    let lat = r.latency_all();
    Json::obj(vec![
        ("type", Json::str("report")),
        ("balancer", Json::str(&r.balancer)),
        ("workload", Json::str(&r.workload)),
        ("num_mds", Json::num(r.num_mds as f64)),
        ("seed", Json::num(r.seed as f64)),
        ("makespan_us", Json::num(r.makespan.as_micros() as f64)),
        ("total_ops", Json::num(r.total_ops())),
        ("mean_throughput", Json::num(r.mean_throughput())),
        ("total_forwards", Json::num(r.total_forwards() as f64)),
        ("total_migrations", Json::num(r.total_migrations() as f64)),
        ("sessions_flushed", Json::num(r.sessions_flushed as f64)),
        ("timeouts", Json::num(r.timeouts as f64)),
        ("retries", Json::num(r.retries as f64)),
        ("failovers", Json::num(r.failovers as f64)),
        ("balancer_fallbacks", Json::num(r.balancer_fallbacks as f64)),
        ("latency_ms_mean", Json::num(lat.mean)),
        ("latency_ms_p99", Json::num(lat.p99)),
        ("mds_reports", Json::Arr(mds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_both_codecs() {
        let msg = parse(r#"{"type":"op","id":7,"op":"create","path":"/a"}"#).unwrap();
        let bytes = encode_frame(&msg);
        // Streaming decoder, fed one byte at a time.
        let mut buf = Vec::new();
        let mut out = None;
        for b in &bytes {
            buf.push(*b);
            if let Some(v) = decode_frame(&mut buf).unwrap() {
                out = Some(v);
            }
        }
        assert_eq!(out.as_ref(), Some(&msg));
        assert!(buf.is_empty(), "frame fully consumed");
        // Blocking reader over the same bytes.
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(msg));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn two_frames_in_one_buffer_pop_in_order() {
        let a = parse(r#"{"id":1}"#).unwrap();
        let b = parse(r#"{"id":2}"#).unwrap();
        let mut buf = encode_frame(&a);
        buf.extend_from_slice(&encode_frame(&b));
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(a));
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(b));
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        assert!(matches!(
            decode_frame(&mut buf),
            Err(WireError::Oversized(_))
        ));
        let mut bad = vec![0, 0, 0, 2];
        bad.extend_from_slice(b"{x");
        assert!(matches!(decode_frame(&mut bad), Err(WireError::BadJson(_))));
    }

    #[test]
    fn read_frame_tells_a_clean_close_from_a_truncated_frame() {
        let frame = encode_frame(&parse(r#"{"id":1}"#).unwrap());
        let read = |bytes: &[u8]| read_frame(&mut io::Cursor::new(bytes));
        assert_eq!(read(&frame[..0]).unwrap(), None, "closed between frames");
        for cut in [2, 4 + 3] {
            let err = read(&frame[..cut]).expect_err("closed inside a frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn op_names_round_trip() {
        for kind in [
            OpKind::Create,
            OpKind::Stat,
            OpKind::SetAttr,
            OpKind::Readdir,
            OpKind::OpenRead,
            OpKind::Unlink,
            OpKind::Mkdir,
        ] {
            assert_eq!(op_kind(op_name(kind)), Some(kind));
        }
        assert_eq!(op_kind("chmod"), None);
    }
}
