//! ISO 7816-4 style Application Protocol Data Units.
//!
//! The terminal proxy and the card exchange APDUs (footnote 1 of the paper:
//! "Application Protocol Data Unit: Communication protocol between the
//! terminal and the smart card"). The encoding below follows the short-APDU
//! format (Lc/Le ≤ 255 bytes), which caps each exchange and therefore drives
//! the number of round-trips counted by the channel model.

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
    pub data: Vec<u8>,
    /// Maximum number of response bytes expected (Le), `0` meaning "up to 256".
    pub le: u8,
}

/// Maximum payload of a short APDU.
pub const MAX_SHORT_APDU_DATA: usize = 255;

impl Apdu {
    /// Creates a command with a payload.
    pub fn new(ins: u8, p1: u8, p2: u8, data: Vec<u8>) -> Result<Self, CardError> {
        if data.len() > MAX_SHORT_APDU_DATA {
            return Err(CardError::ApduTooLong {
                len: data.len(),
                max: MAX_SHORT_APDU_DATA,
            });
        }
        Ok(Apdu {
            cla: CLA_SDDS,
            ins,
            p1,
            p2,
            data,
            le: 0,
        })
    }

    /// Creates a command with no payload.
    pub fn simple(ins: u8, p1: u8, p2: u8) -> Self {
        Apdu {
            cla: CLA_SDDS,
            ins,
            p1,
            p2,
            data: Vec::new(),
            le: 0,
        }
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
                data: Vec::new(),
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
            data: bytes[5..5 + lc].to_vec(),
            le: bytes[5 + lc],
        })
    }
}

/// A response APDU: optional data followed by the status word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApduResponse {
    /// Response payload.
    pub data: Vec<u8>,
    /// Status word.
    pub status: StatusWord,
}

impl ApduResponse {
    /// Success with data.
    pub fn ok(data: Vec<u8>) -> Self {
        ApduResponse {
            data,
            status: StatusWord::OK,
        }
    }

    /// Success with no data.
    pub fn ok_empty() -> Self {
        ApduResponse::ok(Vec::new())
    }

    /// Error with a status word and no data.
    pub fn error(status: StatusWord) -> Self {
        ApduResponse {
            data: Vec::new(),
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
            data: data.to_vec(),
            status: StatusWord(u16::from_be_bytes([sw[0], sw[1]])),
        })
    }
}

/// Splits a payload into APDU-sized fragments, preserving order. The terminal
/// proxy uses this to stream arbitrarily large encrypted chunks through the
/// 255-byte APDU window.
pub fn fragment_payload(payload: &[u8]) -> Vec<&[u8]> {
    if payload.is_empty() {
        return vec![&[]];
    }
    payload.chunks(MAX_SHORT_APDU_DATA).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_with_and_without_data() {
        let cmd = Apdu::new(ins::PUSH_CHUNK, 1, 2, vec![9, 8, 7]).unwrap();
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
        let r = ApduResponse::ok(vec![1, 2, 3]);
        assert!(r.status.is_ok());
        let back = ApduResponse::decode(&r.encode()).unwrap();
        assert_eq!(back, r);

        let e = ApduResponse::error(StatusWord::SECURITY_NOT_SATISFIED);
        assert!(!e.status.is_ok());
        assert_eq!(ApduResponse::decode(&e.encode()).unwrap(), e);
        assert!(ApduResponse::decode(&[0x90]).is_err());
    }

    #[test]
    fn fragmentation_respects_max_size_and_order() {
        let payload: Vec<u8> = (0..600u32).map(|i| (i % 256) as u8).collect();
        let frags = fragment_payload(&payload);
        assert_eq!(frags.len(), 3);
        assert!(frags.iter().all(|f| f.len() <= MAX_SHORT_APDU_DATA));
        let reassembled: Vec<u8> = frags.concat();
        assert_eq!(reassembled, payload);
        assert_eq!(fragment_payload(&[]).len(), 1);
    }
}
