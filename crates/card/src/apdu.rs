//! ISO 7816-4 style Application Protocol Data Units.
//!
//! The terminal proxy and the card exchange APDUs (footnote 1 of the paper:
//! "Application Protocol Data Unit: Communication protocol between the
//! terminal and the smart card"). The encoding below follows the short-APDU
//! format (Lc/Le ≤ 255 bytes), which caps each exchange and therefore drives
//! the number of round-trips counted by the channel model.
//!
//! A short APDU's data field fits a fixed buffer, like a card's APDU buffer:
//! [`ApduData`] holds it inline, so framing a command or a response — and
//! splitting a payload into fragments with [`fragments`] — allocates nothing.

use std::fmt;
use std::ops::Deref;

use crate::error::CardError;

/// Class byte used by the SDDS applet.
pub const CLA_SDDS: u8 = 0x80;

/// Instruction bytes understood by the SDDS access-control applet.
pub mod ins {
    /// Select a document / open an evaluation session.
    pub const OPEN_SESSION: u8 = 0x20;
    /// Install or refresh access-control rules (encrypted payload).
    pub const PUT_RULES: u8 = 0x22;
    /// Install a decryption key delivered through the secure channel.
    pub const PUT_KEY: u8 = 0x24;
    /// Push the next encrypted document fragment to the card.
    pub const PUSH_CHUNK: u8 = 0x26;
    /// Retrieve the next authorized output fragment from the card.
    pub const GET_OUTPUT: u8 = 0x28;
    /// Ask the card which chunk it wants next (skip-index driven).
    pub const NEXT_REQUEST: u8 = 0x2A;
    /// Close the session and wipe session state.
    pub const CLOSE_SESSION: u8 = 0x2C;
    /// Register a query to intersect with the access rules.
    pub const PUT_QUERY: u8 = 0x2E;
}

/// Common ISO 7816 status words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusWord(pub u16);

impl StatusWord {
    /// Normal completion.
    pub const OK: StatusWord = StatusWord(0x9000);
    /// Security status not satisfied (missing key, integrity failure...).
    pub const SECURITY_NOT_SATISFIED: StatusWord = StatusWord(0x6982);
    /// Conditions of use not satisfied (bad session state).
    pub const CONDITIONS_NOT_SATISFIED: StatusWord = StatusWord(0x6985);
    /// Wrong length.
    pub const WRONG_LENGTH: StatusWord = StatusWord(0x6700);
    /// File or object not found.
    pub const NOT_FOUND: StatusWord = StatusWord(0x6A82);
    /// Instruction not supported.
    pub const INS_NOT_SUPPORTED: StatusWord = StatusWord(0x6D00);
    /// Not enough memory in the card.
    pub const MEMORY_FAILURE: StatusWord = StatusWord(0x6581);

    /// True for the success status word.
    pub fn is_ok(self) -> bool {
        self.0 == 0x9000
    }
}

/// The data field of a short APDU: at most [`MAX_SHORT_APDU_DATA`] bytes,
/// held inline. Dereferences to the bytes it holds.
#[derive(Clone, Copy)]
pub struct ApduData {
    len: u8,
    bytes: [u8; MAX_SHORT_APDU_DATA],
}

impl ApduData {
    /// No data.
    pub const EMPTY: ApduData = ApduData {
        len: 0,
        bytes: [0; MAX_SHORT_APDU_DATA],
    };

    /// Copies `data`, which must fit a short APDU.
    pub fn new(data: &[u8]) -> Result<Self, CardError> {
        if data.len() > MAX_SHORT_APDU_DATA {
            return Err(CardError::ApduTooLong {
                len: data.len(),
                max: MAX_SHORT_APDU_DATA,
            });
        }
        let mut out = ApduData::EMPTY;
        out.bytes[..data.len()].copy_from_slice(data);
        out.len = data.len() as u8;
        Ok(out)
    }

    /// Appends as much of `data` as still fits and returns how much did.
    fn fill(&mut self, data: &[u8]) -> usize {
        let at = usize::from(self.len);
        let take = data.len().min(MAX_SHORT_APDU_DATA - at);
        self.bytes[at..at + take].copy_from_slice(&data[..take]);
        self.len += take as u8;
        take
    }
}

impl Deref for ApduData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl PartialEq for ApduData {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ApduData {}

impl fmt::Debug for ApduData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A command APDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Apdu {
    /// Class byte.
    pub cla: u8,
    /// Instruction byte.
    pub ins: u8,
    /// Parameter 1.
    pub p1: u8,
    /// Parameter 2.
    pub p2: u8,
    /// Command payload (Lc field drives its length).
    pub data: ApduData,
    /// Maximum number of response bytes expected (Le), `0` meaning "up to 256".
    pub le: u8,
}

/// Maximum payload of a short APDU.
pub const MAX_SHORT_APDU_DATA: usize = 255;

impl Apdu {
    /// Creates a command with a payload, which must fit a short APDU.
    pub fn new(ins: u8, p1: u8, p2: u8, data: impl AsRef<[u8]>) -> Result<Self, CardError> {
        Ok(Apdu::with_data(ins, p1, p2, ApduData::new(data.as_ref())?))
    }

    /// Creates a command carrying `data` (e.g. one of [`fragments`]).
    pub fn with_data(ins: u8, p1: u8, p2: u8, data: ApduData) -> Self {
        Apdu {
            cla: CLA_SDDS,
            ins,
            p1,
            p2,
            data,
            le: 0,
        }
    }

    /// Creates a command with no payload.
    pub fn simple(ins: u8, p1: u8, p2: u8) -> Self {
        Apdu::with_data(ins, p1, p2, ApduData::EMPTY)
    }

    /// Serialised length on the wire: header (4) + Lc (1 if data) + data + Le (1).
    pub fn wire_len(&self) -> usize {
        4 + if self.data.is_empty() {
            0
        } else {
            1 + self.data.len()
        } + 1
    }

    /// Serialises the command.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.push(self.cla);
        out.push(self.ins);
        out.push(self.p1);
        out.push(self.p2);
        if !self.data.is_empty() {
            out.push(self.data.len() as u8);
            out.extend_from_slice(&self.data);
        }
        out.push(self.le);
        out
    }

    /// Parses a command serialised by [`Apdu::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CardError> {
        if bytes.len() < 5 {
            return Err(CardError::MalformedApdu {
                message: format!(
                    "APDU of {} bytes is shorter than the 5-byte minimum",
                    bytes.len()
                ),
            });
        }
        let (cla, ins, p1, p2) = (bytes[0], bytes[1], bytes[2], bytes[3]);
        if bytes.len() == 5 {
            return Ok(Apdu {
                cla,
                ins,
                p1,
                p2,
                data: ApduData::EMPTY,
                le: bytes[4],
            });
        }
        let lc = bytes[4] as usize;
        if bytes.len() != 5 + lc + 1 {
            return Err(CardError::MalformedApdu {
                message: format!("inconsistent Lc={lc} for an APDU of {} bytes", bytes.len()),
            });
        }
        Ok(Apdu {
            cla,
            ins,
            p1,
            p2,
            data: ApduData::new(&bytes[5..5 + lc])?,
            le: bytes[5 + lc],
        })
    }
}

/// A response APDU: optional data followed by the status word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApduResponse {
    /// Response payload.
    pub data: ApduData,
    /// Status word.
    pub status: StatusWord,
}

impl ApduResponse {
    /// Success with data. Data longer than a short APDU cannot be sent:
    /// the response is then [`StatusWord::WRONG_LENGTH`] with no data.
    pub fn ok(data: &[u8]) -> Self {
        match ApduData::new(data) {
            Ok(data) => ApduResponse {
                data,
                status: StatusWord::OK,
            },
            Err(_) => ApduResponse::error(StatusWord::WRONG_LENGTH),
        }
    }

    /// Success with no data.
    pub fn ok_empty() -> Self {
        ApduResponse {
            data: ApduData::EMPTY,
            status: StatusWord::OK,
        }
    }

    /// Error with a status word and no data.
    pub fn error(status: StatusWord) -> Self {
        ApduResponse {
            data: ApduData::EMPTY,
            status,
        }
    }

    /// Serialised length on the wire.
    pub fn wire_len(&self) -> usize {
        self.data.len() + 2
    }

    /// Serialises the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&self.status.0.to_be_bytes());
        out
    }

    /// Parses a response.
    pub fn decode(bytes: &[u8]) -> Result<Self, CardError> {
        if bytes.len() < 2 {
            return Err(CardError::MalformedApdu {
                message: "response shorter than the status word".into(),
            });
        }
        let (data, sw) = bytes.split_at(bytes.len() - 2);
        Ok(ApduResponse {
            data: ApduData::new(data)?,
            status: StatusWord(u16::from_be_bytes([sw[0], sw[1]])),
        })
    }
}

/// Splits the payload made of `parts`, concatenated, into APDU-sized
/// fragments, preserving order and without building the concatenation. The
/// terminal proxy uses this to stream arbitrarily large encrypted chunks
/// through the 255-byte APDU window. Each fragment comes with `more`, set on
/// every fragment but the last; an empty payload is one empty fragment.
pub fn fragments<'a>(parts: &'a [&'a [u8]]) -> impl Iterator<Item = (ApduData, bool)> + 'a {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let count = total.div_ceil(MAX_SHORT_APDU_DATA).max(1);
    // Position in the payload: the current part and the offset in it.
    let (mut part, mut offset) = (0, 0);
    (0..count).map(move |i| {
        let mut data = ApduData::EMPTY;
        while usize::from(data.len) < MAX_SHORT_APDU_DATA && part < parts.len() {
            offset += data.fill(&parts[part][offset..]);
            if offset == parts[part].len() {
                part += 1;
                offset = 0;
            }
        }
        (data, i + 1 < count)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_with_and_without_data() {
        let cmd = Apdu::new(ins::PUSH_CHUNK, 1, 2, [9, 8, 7]).unwrap();
        let bytes = cmd.encode();
        assert_eq!(bytes.len(), cmd.wire_len());
        assert_eq!(Apdu::decode(&bytes).unwrap(), cmd);

        let cmd = Apdu::simple(ins::CLOSE_SESSION, 0, 0);
        let bytes = cmd.encode();
        assert_eq!(bytes.len(), 5);
        assert_eq!(Apdu::decode(&bytes).unwrap(), cmd);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        assert!(matches!(
            Apdu::new(ins::PUSH_CHUNK, 0, 0, vec![0u8; 256]),
            Err(CardError::ApduTooLong { len: 256, max: 255 })
        ));
        assert!(Apdu::new(ins::PUSH_CHUNK, 0, 0, vec![0u8; 255]).is_ok());
    }

    #[test]
    fn malformed_apdus_are_rejected() {
        assert!(Apdu::decode(&[1, 2, 3]).is_err());
        // Lc says 10 bytes but only 2 present.
        assert!(Apdu::decode(&[0x80, 0x20, 0, 0, 10, 1, 2]).is_err());
    }

    #[test]
    fn response_roundtrip_and_status() {
        let r = ApduResponse::ok(&[1, 2, 3]);
        assert!(r.status.is_ok());
        let back = ApduResponse::decode(&r.encode()).unwrap();
        assert_eq!(back, r);

        let e = ApduResponse::error(StatusWord::SECURITY_NOT_SATISFIED);
        assert!(!e.status.is_ok());
        assert_eq!(ApduResponse::decode(&e.encode()).unwrap(), e);
        assert!(ApduResponse::decode(&[0x90]).is_err());
        // Response data beyond a short APDU is a length error, not data.
        let long = ApduResponse::ok(&[0u8; 256]);
        assert_eq!(long.status, StatusWord::WRONG_LENGTH);
        assert!(long.data.is_empty());
    }

    #[test]
    fn fragmentation_respects_max_size_and_order() {
        let payload: Vec<u8> = (0..600u32).map(|i| (i % 256) as u8).collect();
        // One part, or the same bytes split into parts at odd places.
        for parts in [
            vec![&payload[..]],
            vec![&payload[..4], &payload[4..36], &payload[36..]],
            vec![&payload[..255], &[], &payload[255..510], &payload[510..]],
        ] {
            let frags: Vec<(ApduData, bool)> = fragments(&parts).collect();
            assert_eq!(frags.len(), 3);
            assert!(frags.iter().all(|(f, _)| f.len() <= MAX_SHORT_APDU_DATA));
            let more: Vec<bool> = frags.iter().map(|(_, more)| *more).collect();
            assert_eq!(more, vec![true, true, false]);
            let reassembled: Vec<u8> = frags.iter().flat_map(|(f, _)| f.iter().copied()).collect();
            assert_eq!(reassembled, payload);
        }
        let empty: Vec<(ApduData, bool)> = fragments(&[]).collect();
        assert_eq!(empty, vec![(ApduData::EMPTY, false)]);
        // A payload of exactly one APDU is one fragment.
        assert_eq!(fragments(&[&payload[..255]]).count(), 1);
    }
}
