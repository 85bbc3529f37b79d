//! A length-prefixed binary sample frame: the compact encoding of one
//! scraped value, kept as a measured alternative to the text exposition.
//! No endpoint serves it.
//!
//! A frame is a `u32` LE payload length, then the payload: the tag `2`,
//! then `u32` id, `u64` seq, `u64` timestamp_ns, `f64` value, `u8` ok.
//! All integers are little-endian.

/// A protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One sample.
    Sample {
        /// Export id of the counter.
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
}

const TAG_SAMPLE: u8 = 2;

/// Encoded size of a SAMPLE frame, length prefix included.
const SAMPLE_FRAME_LEN: usize = 4 + 30;

/// Encode one frame, length prefix included.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let Frame::Sample {
        id,
        seq,
        timestamp_ns,
        value,
        ok,
    } = frame;
    let mut out = Vec::with_capacity(SAMPLE_FRAME_LEN);
    out.extend_from_slice(&(SAMPLE_FRAME_LEN as u32 - 4).to_le_bytes());
    out.push(TAG_SAMPLE);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&timestamp_ns.to_le_bytes());
    out.extend_from_slice(&value.to_le_bytes());
    out.push(u8::from(*ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_frame_has_the_documented_layout() {
        let bytes = encode(&Frame::Sample {
            id: 7,
            seq: 42,
            timestamp_ns: 123_456_789,
            value: 3.25,
            ok: true,
        });
        assert_eq!(bytes.len(), SAMPLE_FRAME_LEN);
        assert_eq!(bytes[..4], 30u32.to_le_bytes());
        assert_eq!(bytes[4], TAG_SAMPLE);
        assert_eq!(bytes[5..9], 7u32.to_le_bytes());
        assert_eq!(bytes[9..17], 42u64.to_le_bytes());
        assert_eq!(bytes[17..25], 123_456_789u64.to_le_bytes());
        assert_eq!(bytes[25..33], 3.25f64.to_le_bytes());
        assert_eq!(bytes[33], 1);
    }
}
