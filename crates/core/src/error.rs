//! Error type of the access-control core.

use std::fmt;

/// Errors raised by rule compilation, the secure document codec and the engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A rule object or query uses a construct outside the supported streaming
    /// fragment (e.g. predicates nested inside predicate paths).
    UnsupportedRule {
        /// The offending expression.
        expression: String,
        /// Why it is not supported by the streaming automata.
        reason: String,
    },
    /// A rule or query failed to parse.
    Parse(String),
    /// The secure document is malformed (bad magic, truncated section, ...).
    BadDocument {
        /// Description of the problem.
        message: String,
    },
    /// Cryptographic failure (integrity, missing key, ...).
    Crypto(sdds_crypto::CryptoError),
    /// Card-level failure (RAM budget exceeded, APDU problems, ...).
    Card(sdds_card::CardError),
    /// XML-level failure in the decoded document.
    Xml(sdds_xml::XmlError),
    /// The evaluation session is not in the expected state for the operation.
    BadState {
        /// Description of the problem.
        message: String,
    },
    /// The requested document is not stored at the DSP.
    NotFound {
        /// Identifier of the missing document.
        doc_id: String,
    },
    /// The DSP stores the document but no protected rule blob for the
    /// requesting subject.
    NoRulesForSubject {
        /// Document the rules were requested for.
        doc_id: String,
        /// Subject with no stored blob.
        subject: String,
    },
    /// A session pinned a document revision that has since been replaced:
    /// the typed staleness signal that replaces a torn read (chunks of the
    /// new upload checked against the old header).
    StaleRevision {
        /// Document whose revision moved.
        doc_id: String,
        /// Revision the session pinned at open.
        pinned: u64,
        /// Revision currently stored at the DSP.
        current: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsupportedRule { expression, reason } => {
                write!(f, "unsupported rule `{expression}`: {reason}")
            }
            CoreError::Parse(msg) => write!(f, "parse error: {msg}"),
            CoreError::BadDocument { message } => write!(f, "bad secure document: {message}"),
            CoreError::Crypto(e) => write!(f, "cryptographic error: {e}"),
            CoreError::Card(e) => write!(f, "card error: {e}"),
            CoreError::Xml(e) => write!(f, "xml error: {e}"),
            CoreError::BadState { message } => write!(f, "bad state: {message}"),
            CoreError::NotFound { doc_id } => {
                write!(f, "document `{doc_id}` is not stored at this DSP")
            }
            CoreError::NoRulesForSubject { doc_id, subject } => {
                write!(f, "no rules stored for subject `{subject}` on `{doc_id}`")
            }
            CoreError::StaleRevision {
                doc_id,
                pinned,
                current,
            } => write!(
                f,
                "document `{doc_id}` was republished mid-session: \
                 pinned revision {pinned}, now {current}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<sdds_crypto::CryptoError> for CoreError {
    fn from(e: sdds_crypto::CryptoError) -> Self {
        CoreError::Crypto(e)
    }
}

impl From<sdds_card::CardError> for CoreError {
    fn from(e: sdds_card::CardError) -> Self {
        CoreError::Card(e)
    }
}

impl From<sdds_xml::XmlError> for CoreError {
    fn from(e: sdds_xml::XmlError) -> Self {
        CoreError::Xml(e)
    }
}

impl From<sdds_xpath::ParseError> for CoreError {
    fn from(e: sdds_xpath::ParseError) -> Self {
        CoreError::Parse(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = sdds_crypto::CryptoError::BadPadding.into();
        assert!(e.to_string().contains("padding"));
        let e: CoreError = sdds_card::CardError::RamExceeded {
            requested: 1,
            in_use: 2,
            budget: 3,
        }
        .into();
        assert!(e.to_string().contains("RAM"));
        let e: CoreError = sdds_xml::XmlError::EmptyDocument.into();
        assert!(e.to_string().contains("root"));
        let e: CoreError = sdds_xpath::ParseError::new("bad", 0, "/x[").into();
        assert!(e.to_string().contains("bad"));
        let e = CoreError::UnsupportedRule {
            expression: "//a[b[c]]".into(),
            reason: "nested predicate".into(),
        };
        assert!(e.to_string().contains("nested predicate"));
        assert!(CoreError::BadState {
            message: "no session".into()
        }
        .to_string()
        .contains("no session"));
        assert!(CoreError::BadDocument {
            message: "magic".into()
        }
        .to_string()
        .contains("magic"));
    }

    #[test]
    fn storage_errors_are_typed_not_stringly() {
        let e = CoreError::NotFound {
            doc_id: "folder".into(),
        };
        assert!(e.to_string().contains("`folder`"));
        let e = CoreError::NoRulesForSubject {
            doc_id: "folder".into(),
            subject: "stranger".into(),
        };
        assert!(e.to_string().contains("`stranger`"));
        let e = CoreError::StaleRevision {
            doc_id: "folder".into(),
            pinned: 3,
            current: 4,
        };
        let text = e.to_string();
        assert!(text.contains("pinned revision 3") && text.contains("now 4"));
    }
}
