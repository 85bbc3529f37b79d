//! The compact binary streaming protocol.
//!
//! A client opens the TCP connection with a 9-byte hello — the magic
//! `RPXB`, a `u8` protocol version, and a `u32` LE backfill depth (how
//! many history samples per counter it wants replayed). The magic is what
//! the shared listener sniffs to tell binary subscribers from HTTP
//! scrapers on one port.
//!
//! The server then sends a stream of length-prefixed frames: a `u32` LE
//! payload length, then the payload. The first payload byte is a tag:
//!
//! | tag | frame | layout after the tag |
//! |-----|----------|--------------------|
//! | 1 | DICT     | `u32` id, `u8` kind, `u16` name length, name bytes |
//! | 2 | SAMPLE   | `u32` id, `u64` seq, `u64` timestamp_ns, `f64` value, `u8` ok |
//! | 3 | BACKFILL | same layout as SAMPLE; replayed from the engine's history of recent scrapes |
//! | 4 | STATS    | `u64` history drops, `u64` stream drops |
//!
//! A DICT frame precedes the first SAMPLE/BACKFILL of every counter id —
//! including ids that appear after a topology change. BACKFILL frames are
//! replayed oldest-first right after a subscriber's DICT burst; because
//! every sample carries the engine-wide scrape `seq`, a subscriber that
//! sees a sample both in the backfill and live deduplicates on `(id,
//! seq)`. All integers are little-endian.

use std::io::{self, Read};

/// Connection-open magic distinguishing binary subscribers from HTTP.
pub const MAGIC: [u8; 4] = *b"RPXB";
/// Protocol version carried in the hello.
pub const VERSION: u8 = 1;

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Counter-id → name/kind binding.
    Dict {
        /// Stable dictionary id of the counter.
        id: u32,
        /// [`rpx_counters::value::CounterKind`] discriminant (display only).
        kind: u8,
        /// Canonical counter name.
        name: String,
    },
    /// One live sample.
    Sample {
        /// Dictionary id.
        id: u32,
        /// Engine-wide scrape sequence.
        seq: u64,
        /// Registry-clock timestamp (ns).
        timestamp_ns: u64,
        /// Scaled value.
        value: f64,
        /// Whether the evaluation was usable.
        ok: bool,
    },
    /// A history sample replayed for a late subscriber (same payload as
    /// [`Frame::Sample`]).
    Backfill {
        /// Dictionary id.
        id: u32,
        /// Engine-wide scrape sequence.
        seq: u64,
        /// Registry-clock timestamp (ns).
        timestamp_ns: u64,
        /// Scaled value.
        value: f64,
        /// Whether the evaluation was usable.
        ok: bool,
    },
    /// Drop accounting snapshot.
    Stats {
        /// Samples dropped from the engine's history so far.
        history_dropped: u64,
        /// Stream frames dropped on slow subscribers so far.
        stream_dropped: u64,
    },
}

const TAG_DICT: u8 = 1;
const TAG_SAMPLE: u8 = 2;
const TAG_BACKFILL: u8 = 3;
const TAG_STATS: u8 = 4;

/// Encoded size of a SAMPLE or BACKFILL frame, length prefix included.
pub(crate) const SAMPLE_FRAME_LEN: usize = 4 + 30;

/// The 9-byte client hello.
pub fn encode_hello(backfill: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&backfill.to_le_bytes());
    out
}

/// Encode one frame, length prefix included.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(SAMPLE_FRAME_LEN);
    encode_into(&mut out, frame);
    out
}

/// Append one frame, length prefix included, to `out` — what a payload of
/// many frames is built with, in one buffer.
pub fn encode_into(out: &mut Vec<u8>, frame: &Frame) {
    let start = out.len();
    // The length prefix, patched once the payload is written.
    out.extend_from_slice(&[0; 4]);
    match frame {
        Frame::Dict { id, kind, name } => {
            out.push(TAG_DICT);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(*kind);
            let bytes = name.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            out.extend_from_slice(&(len as u16).to_le_bytes());
            out.extend_from_slice(&bytes[..len]);
        }
        Frame::Sample {
            id,
            seq,
            timestamp_ns,
            value,
            ok,
        }
        | Frame::Backfill {
            id,
            seq,
            timestamp_ns,
            value,
            ok,
        } => {
            out.push(if matches!(frame, Frame::Sample { .. }) {
                TAG_SAMPLE
            } else {
                TAG_BACKFILL
            });
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&timestamp_ns.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
            out.push(u8::from(*ok));
        }
        Frame::Stats {
            history_dropped,
            stream_dropped,
        } => {
            out.push(TAG_STATS);
            out.extend_from_slice(&history_dropped.to_le_bytes());
            out.extend_from_slice(&stream_dropped.to_le_bytes());
        }
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode one frame from the front of `buf`. Returns the frame and the
/// bytes consumed, `Ok(None)` if `buf` holds only a partial frame, and an
/// error on malformed payloads.
pub fn decode(buf: &[u8]) -> io::Result<Option<(Frame, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 || len > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let p = &buf[4..4 + len];
    let frame = parse_payload(p)?;
    Ok(Some((frame, 4 + len)))
}

fn parse_payload(p: &[u8]) -> io::Result<Frame> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let tag = *p.first().ok_or_else(|| bad("empty payload"))?;
    let p = &p[1..];
    match tag {
        TAG_DICT => {
            if p.len() < 7 {
                return Err(bad("short DICT"));
            }
            let id = u32::from_le_bytes(p[0..4].try_into().unwrap());
            let kind = p[4];
            let name_len = u16::from_le_bytes(p[5..7].try_into().unwrap()) as usize;
            if p.len() < 7 + name_len {
                return Err(bad("short DICT name"));
            }
            let name = String::from_utf8(p[7..7 + name_len].to_vec())
                .map_err(|_| bad("DICT name not utf-8"))?;
            Ok(Frame::Dict { id, kind, name })
        }
        TAG_SAMPLE | TAG_BACKFILL => {
            if p.len() < 29 {
                return Err(bad("short SAMPLE"));
            }
            let id = u32::from_le_bytes(p[0..4].try_into().unwrap());
            let seq = u64::from_le_bytes(p[4..12].try_into().unwrap());
            let timestamp_ns = u64::from_le_bytes(p[12..20].try_into().unwrap());
            let value = f64::from_le_bytes(p[20..28].try_into().unwrap());
            let ok = p[28] != 0;
            Ok(if tag == TAG_SAMPLE {
                Frame::Sample {
                    id,
                    seq,
                    timestamp_ns,
                    value,
                    ok,
                }
            } else {
                Frame::Backfill {
                    id,
                    seq,
                    timestamp_ns,
                    value,
                    ok,
                }
            })
        }
        TAG_STATS => {
            if p.len() < 16 {
                return Err(bad("short STATS"));
            }
            Ok(Frame::Stats {
                history_dropped: u64::from_le_bytes(p[0..8].try_into().unwrap()),
                stream_dropped: u64::from_le_bytes(p[8..16].try_into().unwrap()),
            })
        }
        _ => Err(bad("unknown frame tag")),
    }
}

/// Blocking helper: read frames from `r` until `limit` frames arrived or
/// the stream ends. Used by tests (`tests/scrape_e2e.rs` reads a live
/// stream with it).
pub fn read_frames(r: &mut impl Read, limit: usize) -> io::Result<Vec<Frame>> {
    let mut frames = Vec::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while frames.len() < limit {
        match decode(&buf)? {
            Some((frame, used)) => {
                buf.drain(..used);
                frames.push(frame);
                continue;
            }
            None => {
                let n = r.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::Dict {
                id: 7,
                kind: 1,
                name: "/threads{locality#0/worker-thread#1}/time/cumulative".into(),
            },
            Frame::Sample {
                id: 7,
                seq: 42,
                timestamp_ns: 123_456_789,
                value: 3.25,
                ok: true,
            },
            Frame::Backfill {
                id: 7,
                seq: 41,
                timestamp_ns: 120_000_000,
                value: 2.0,
                ok: false,
            },
            Frame::Stats {
                history_dropped: 9,
                stream_dropped: 2,
            },
        ];
        // Appended to a buffer that already holds something, the frames
        // read back the same as each `encode`d on its own.
        let mut joined = b"head".to_vec();
        for frame in &frames {
            let bytes = encode(frame);
            let (decoded, used) = decode(&bytes).unwrap().expect("complete frame");
            assert_eq!(&decoded, frame);
            assert_eq!(used, bytes.len());
            let before = joined.len();
            encode_into(&mut joined, frame);
            assert_eq!(joined[before..], bytes[..]);
        }
        let decoded = read_frames(&mut &joined[4..], usize::MAX).unwrap();
        assert_eq!(decoded, frames);
    }

    #[test]
    fn decode_handles_partial_and_concatenated_frames() {
        let a = encode(&Frame::Stats {
            history_dropped: 1,
            stream_dropped: 0,
        });
        let b = encode(&Frame::Sample {
            id: 1,
            seq: 2,
            timestamp_ns: 3,
            value: 4.0,
            ok: true,
        });
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        // Partial prefix: no frame yet, no error.
        assert!(decode(&joined[..3]).unwrap().is_none());
        assert!(decode(&joined[..a.len() - 1]).unwrap().is_none());
        // Full first frame decodes and reports its exact length.
        let (f, used) = decode(&joined).unwrap().unwrap();
        assert!(matches!(f, Frame::Stats { .. }));
        assert_eq!(used, a.len());
        let (f2, used2) = decode(&joined[used..]).unwrap().unwrap();
        assert!(matches!(f2, Frame::Sample { .. }));
        assert_eq!(used2, b.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[255, 255, 255, 255, 0]).is_err());
        let mut bogus = 5u32.to_le_bytes().to_vec();
        bogus.extend_from_slice(&[99, 0, 0, 0, 0]);
        assert!(decode(&bogus).is_err());
    }

    #[test]
    fn hello_is_nine_bytes_and_magic_prefixed() {
        let hello = encode_hello(16);
        assert_eq!(hello.len(), 9);
        assert_eq!(&hello[..4], &MAGIC);
        assert_eq!(hello[4], VERSION);
        assert_eq!(u32::from_le_bytes(hello[5..9].try_into().unwrap()), 16);
    }
}
