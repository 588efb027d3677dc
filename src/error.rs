//! The workspace-wide error type of the `sdds` facade.
//!
//! Every crate of the workspace keeps its own focused error type
//! (`CoreError`, `CardError`, `CryptoError`, `XmlError`, the XPath
//! `ParseError`, the proxy's `ProxyError`), but applications built on the
//! facade see exactly one: [`SddsError`]. Conversions normalise to the most
//! specific layer — a `CoreError::Crypto` arriving through three crates still
//! surfaces as [`SddsError::Crypto`] — so callers match on *what went wrong*,
//! not on *which crate noticed*.

use std::fmt;

use sdds_card::CardError;
use sdds_core::CoreError;
use sdds_crypto::CryptoError;
use sdds_proxy::ProxyError;
use sdds_xml::XmlError;
use sdds_xpath::ParseError;

/// The one error type of the `sdds` facade API.
#[derive(Debug)]
#[non_exhaustive]
pub enum SddsError {
    /// Malformed XML (parsing a document or a delivered view).
    Xml(XmlError),
    /// An XPath expression (rule object or query) failed to parse.
    XPath(ParseError),
    /// Cryptographic failure: integrity, bad key, tampered data.
    Crypto(CryptoError),
    /// The card (SOE) refused a command or exceeded a resource budget.
    Card(CardError),
    /// Access-control core failure: bad rule, bad secure document, bad
    /// session state.
    Core(CoreError),
    /// The requested document is not stored at the DSP — the request was
    /// well formed, the content simply is not there.
    NotFound {
        /// Identifier of the missing document.
        doc_id: String,
    },
    /// The DSP stores the document but no protected rule blob for the
    /// requesting subject (e.g. the subject was never provisioned against
    /// this service).
    NoRulesForSubject {
        /// Document the rules were requested for.
        doc_id: String,
        /// Subject with no stored blob.
        subject: String,
    },
    /// The document was republished while a session held a pinned revision:
    /// re-open the session to read the new upload. This is a staleness
    /// signal, **not** a security event — without pinning it would surface
    /// as an inscrutable chunk-tag verification failure.
    StaleRevision {
        /// Document whose revision moved.
        doc_id: String,
        /// Revision the session pinned at open.
        pinned: u64,
        /// Revision currently stored at the DSP.
        current: u64,
    },
    /// The builder was asked for an impossible configuration (e.g.
    /// `.shards(0)`).
    Config(String),
    /// The terminal proxy and the card disagree on the protocol state, or a
    /// scheduled session failed with a transported message.
    Protocol(String),
}

impl fmt::Display for SddsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SddsError::Xml(e) => write!(f, "xml error: {e}"),
            SddsError::XPath(e) => write!(f, "xpath error: {e}"),
            SddsError::Crypto(e) => write!(f, "cryptographic error: {e}"),
            SddsError::Card(e) => write!(f, "card error: {e}"),
            SddsError::Core(e) => write!(f, "core error: {e}"),
            SddsError::NotFound { doc_id } => {
                write!(f, "document `{doc_id}` is not stored at this DSP")
            }
            SddsError::NoRulesForSubject { doc_id, subject } => {
                write!(f, "no rules stored for subject `{subject}` on `{doc_id}`")
            }
            SddsError::StaleRevision {
                doc_id,
                pinned,
                current,
            } => write!(
                f,
                "document `{doc_id}` was republished mid-session: \
                 pinned revision {pinned}, now {current} (re-open to resume)"
            ),
            SddsError::Config(m) => write!(f, "configuration error: {m}"),
            SddsError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for SddsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SddsError::Xml(e) => Some(e),
            SddsError::XPath(e) => Some(e),
            SddsError::Crypto(e) => Some(e),
            SddsError::Card(e) => Some(e),
            SddsError::Core(e) => Some(e),
            SddsError::NotFound { .. }
            | SddsError::NoRulesForSubject { .. }
            | SddsError::StaleRevision { .. }
            | SddsError::Config(_)
            | SddsError::Protocol(_) => None,
        }
    }
}

impl From<XmlError> for SddsError {
    fn from(e: XmlError) -> Self {
        SddsError::Xml(e)
    }
}

impl From<ParseError> for SddsError {
    fn from(e: ParseError) -> Self {
        SddsError::XPath(e)
    }
}

impl From<CryptoError> for SddsError {
    fn from(e: CryptoError) -> Self {
        SddsError::Crypto(e)
    }
}

impl From<CardError> for SddsError {
    fn from(e: CardError) -> Self {
        SddsError::Card(e)
    }
}

impl From<CoreError> for SddsError {
    fn from(e: CoreError) -> Self {
        // Normalise to the most specific layer when the core just wrapped a
        // lower-level failure, and surface the typed storage outcomes
        // ("not stored" / "no blob" / "republished under you") as their own
        // variants so callers can distinguish them from corrupt requests.
        match e {
            CoreError::Crypto(inner) => SddsError::Crypto(inner),
            CoreError::Card(inner) => SddsError::Card(inner),
            CoreError::Xml(inner) => SddsError::Xml(inner),
            CoreError::NotFound { doc_id } => SddsError::NotFound { doc_id },
            CoreError::NoRulesForSubject { doc_id, subject } => {
                SddsError::NoRulesForSubject { doc_id, subject }
            }
            CoreError::StaleRevision {
                doc_id,
                pinned,
                current,
            } => SddsError::StaleRevision {
                doc_id,
                pinned,
                current,
            },
            other => SddsError::Core(other),
        }
    }
}

impl From<ProxyError> for SddsError {
    fn from(e: ProxyError) -> Self {
        match e {
            ProxyError::Card(inner) => SddsError::Card(inner),
            ProxyError::Core(inner) => SddsError::from(inner),
            ProxyError::Protocol(message) => SddsError::Protocol(message),
            other => SddsError::Protocol(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_normalise_to_the_most_specific_layer() {
        let e: SddsError = CoreError::Crypto(CryptoError::BadPadding).into();
        assert!(matches!(e, SddsError::Crypto(_)));
        let e: SddsError = ProxyError::Core(CoreError::Card(CardError::Refused {
            status: 0x6982,
            reason: "no key".into(),
        }))
        .into();
        assert!(matches!(e, SddsError::Card(_)));
        let e: SddsError = ProxyError::Protocol("desync".into()).into();
        assert!(e.to_string().contains("desync"));
        let e: SddsError = XmlError::EmptyDocument.into();
        assert!(matches!(e, SddsError::Xml(_)));
        let e: SddsError = ParseError::new("bad", 0, "/x[").into();
        assert!(e.to_string().contains("bad"));
        let e: SddsError = CoreError::BadState {
            message: "half-open session".into(),
        }
        .into();
        assert!(matches!(e, SddsError::Core(_)));
    }

    #[test]
    fn storage_outcomes_surface_as_their_own_variants() {
        let e: SddsError = CoreError::NotFound {
            doc_id: "folder".into(),
        }
        .into();
        assert!(matches!(e, SddsError::NotFound { ref doc_id } if doc_id == "folder"));
        let e: SddsError = CoreError::NoRulesForSubject {
            doc_id: "folder".into(),
            subject: "stranger".into(),
        }
        .into();
        assert!(matches!(e, SddsError::NoRulesForSubject { ref subject, .. }
            if subject == "stranger"));
        // ...including when the proxy layer transported them.
        let e: SddsError = ProxyError::Core(CoreError::StaleRevision {
            doc_id: "folder".into(),
            pinned: 0,
            current: 1,
        })
        .into();
        assert!(matches!(
            e,
            SddsError::StaleRevision {
                pinned: 0,
                current: 1,
                ..
            }
        ));
        assert!(e.to_string().contains("republished"));
        let e = SddsError::Config("shards must be at least 1".into());
        assert!(e.to_string().contains("configuration"));
    }

    #[test]
    fn sources_are_exposed_for_error_chains() {
        use std::error::Error;
        let e: SddsError = CryptoError::BadPadding.into();
        assert!(e.source().is_some());
        let e = SddsError::Protocol("oops".into());
        assert!(e.source().is_none());
    }
}
