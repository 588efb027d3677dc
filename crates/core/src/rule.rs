//! The access-control model: `<sign, subject, object>` rules (§2.2).
//!
//! *Sign* denotes a permission (`+`) or prohibition (`-`) for the read
//! operation, *subject* identifies the grantee, and *object* is an XPath
//! expression of the XP{[],*,//} fragment designating elements or subtrees.
//! Rules propagate implicitly to the descendants of their object; conflicts
//! are resolved by the policies in [`crate::conflict`].
//!
//! Rule sets are stored encrypted at the DSP next to the documents they
//! protect (§3); [`RuleSet::encode`] / [`RuleSet::decode`] define that wire
//! format (the encryption itself is applied by the DSP / session layer).

use std::fmt;

use sdds_xpath::Path;

use crate::error::CoreError;

/// Permission or prohibition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Positive rule: grants read access.
    Permit,
    /// Negative rule: denies read access.
    Deny,
}

impl Sign {
    /// Symbol used in the textual rule format (`+` / `-`).
    pub fn symbol(self) -> char {
        match self {
            Sign::Permit => '+',
            Sign::Deny => '-',
        }
    }

    /// Parses a sign symbol.
    pub fn from_symbol(c: char) -> Option<Sign> {
        match c {
            '+' => Some(Sign::Permit),
            '-' => Some(Sign::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A subject (user, role or group) access rules are granted to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Subject(pub String);

impl Subject {
    /// Creates a subject from a name.
    pub fn new(name: impl Into<String>) -> Self {
        Subject(name.into())
    }

    /// Subject name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Identifier of a rule within a [`RuleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// One access-control rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRule {
    /// Identifier, unique within its rule set.
    pub id: RuleId,
    /// Permission or prohibition.
    pub sign: Sign,
    /// Grantee.
    pub subject: Subject,
    /// Object designated by an XP{[],*,//} expression.
    pub object: Path,
}

impl AccessRule {
    /// Creates a rule, parsing `object` as an XPath expression.
    pub fn new(
        id: u32,
        sign: Sign,
        subject: impl Into<String>,
        object: &str,
    ) -> Result<Self, CoreError> {
        Ok(AccessRule {
            id: RuleId(id),
            sign,
            subject: Subject::new(subject),
            object: sdds_xpath::parse(object)?,
        })
    }

    /// Convenience constructor for a positive rule.
    pub fn permit(id: u32, subject: impl Into<String>, object: &str) -> Result<Self, CoreError> {
        AccessRule::new(id, Sign::Permit, subject, object)
    }

    /// Convenience constructor for a negative rule.
    pub fn deny(id: u32, subject: impl Into<String>, object: &str) -> Result<Self, CoreError> {
        AccessRule::new(id, Sign::Deny, subject, object)
    }

    /// Renders the rule in the compact textual format `sign, subject, object`.
    pub fn to_line(&self) -> String {
        format!("{}, {}, {}", self.sign, self.subject, self.object)
    }

    /// Parses a rule from the compact textual format.
    pub fn from_line(id: u32, line: &str) -> Result<Self, CoreError> {
        let mut parts = line.splitn(3, ',').map(str::trim);
        let sign_part = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| CoreError::Parse(format!("missing sign in rule line `{line}`")))?;
        let sign = Sign::from_symbol(sign_part.chars().next().unwrap_or(' '))
            .ok_or_else(|| CoreError::Parse(format!("bad sign `{sign_part}` in `{line}`")))?;
        let subject = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| CoreError::Parse(format!("missing subject in rule line `{line}`")))?;
        let object = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| CoreError::Parse(format!("missing object in rule line `{line}`")))?;
        AccessRule::new(id, sign, subject, object)
    }
}

impl fmt::Display for AccessRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// A set of access rules for one document, covering one or more subjects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    rules: Vec<AccessRule>,
    /// Monotonically increasing version, used by the update protocol to
    /// prevent rollback of a newer policy to an older one.
    version: u64,
}

impl RuleSet {
    /// Creates an empty rule set at version 0.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Creates a rule set from rules.
    pub fn from_rules(rules: Vec<AccessRule>) -> Self {
        RuleSet { rules, version: 0 }
    }

    /// Parses a rule set from a multi-line textual description. Empty lines
    /// and lines starting with `#` are ignored.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let mut rules = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let id = rules.len() as u32;
            rules.push(AccessRule::from_line(id, line)?);
        }
        Ok(RuleSet::from_rules(rules))
    }

    /// Adds a rule, assigning it the next free id, and bumps the version.
    pub fn push(
        &mut self,
        sign: Sign,
        subject: impl Into<String>,
        object: &str,
    ) -> Result<RuleId, CoreError> {
        let id = self.rules.iter().map(|r| r.id.0 + 1).max().unwrap_or(0);
        self.rules.push(AccessRule::new(id, sign, subject, object)?);
        self.version += 1;
        Ok(RuleId(id))
    }

    /// Removes a rule by id; returns true if it existed. Bumps the version.
    pub fn remove(&mut self, id: RuleId) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        let removed = self.rules.len() != before;
        if removed {
            self.version += 1;
        }
        removed
    }

    /// All rules.
    pub fn rules(&self) -> &[AccessRule] {
        &self.rules
    }

    /// Rules granted to `subject`.
    pub fn for_subject<'a>(&'a self, subject: &'a Subject) -> impl Iterator<Item = &'a AccessRule> {
        self.rules.iter().filter(move |r| &r.subject == subject)
    }

    /// Extracts the sub-ruleset of one subject (what is shipped to that user's
    /// SOE).
    pub fn subset_for(&self, subject: &Subject) -> RuleSet {
        RuleSet {
            rules: self.for_subject(subject).cloned().collect(),
            version: self.version,
        }
    }

    /// Distinct subjects appearing in the rule set.
    pub fn subjects(&self) -> Vec<Subject> {
        let mut subjects: Vec<Subject> = self.rules.iter().map(|r| r.subject.clone()).collect();
        subjects.sort();
        subjects.dedup();
        subjects
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the set has no rule.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Current version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Forces the version (used when decoding and by the update protocol).
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Renders the set in the textual format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out
    }

    /// Serialises the set to the wire format stored (encrypted) at the DSP:
    /// version, count, then per rule: id, sign, subject, object text.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.rules.len() as u32).to_le_bytes());
        for r in &self.rules {
            out.extend_from_slice(&r.id.0.to_le_bytes());
            out.push(match r.sign {
                Sign::Permit => b'+',
                Sign::Deny => b'-',
            });
            let subject = r.subject.name().as_bytes();
            out.extend_from_slice(&(subject.len() as u16).to_le_bytes());
            out.extend_from_slice(subject);
            let object = r.object.to_string();
            out.extend_from_slice(&(object.len() as u16).to_le_bytes());
            out.extend_from_slice(object.as_bytes());
        }
        out
    }

    /// Decodes a rule set produced by [`RuleSet::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |m: &str| CoreError::BadDocument {
            message: format!("rule set: {m}"),
        };
        if bytes.len() < 12 {
            return Err(bad("truncated header"));
        }
        // lint: infallible — `bytes.len() >= 12` is checked above, so the
        // fixed-width slices convert exactly.
        let version = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize; // lint: infallible — see above
        let mut pos = 12usize;
        // The count is untrusted: reserve no more rules than the remaining
        // bytes can hold (id, sign and two empty strings: 9 bytes each).
        let mut rules = Vec::with_capacity(count.min((bytes.len() - pos) / 9));
        for _ in 0..count {
            if pos + 5 > bytes.len() {
                return Err(bad("truncated rule header"));
            }
            // lint: infallible — `pos + 5 <= bytes.len()` is checked above.
            let id = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            pos += 4;
            let sign = match bytes[pos] {
                b'+' => Sign::Permit,
                b'-' => Sign::Deny,
                other => return Err(bad(&format!("bad sign byte {other}"))),
            };
            pos += 1;
            let read_str = |pos: &mut usize| -> Result<String, CoreError> {
                if *pos + 2 > bytes.len() {
                    return Err(bad("truncated string length"));
                }
                let len =
                    // lint: infallible — `*pos + 2 <= bytes.len()` is checked
                    // just above.
                    u16::from_le_bytes(bytes[*pos..*pos + 2].try_into().expect("2 bytes")) as usize;
                *pos += 2;
                let s = bytes
                    .get(*pos..*pos + len)
                    .ok_or_else(|| bad("truncated string"))?;
                *pos += len;
                String::from_utf8(s.to_vec()).map_err(|_| bad("non UTF-8 string"))
            };
            let subject = read_str(&mut pos)?;
            let object = read_str(&mut pos)?;
            rules.push(AccessRule::new(id, sign, subject, &object)?);
        }
        let mut set = RuleSet::from_rules(rules);
        set.version = version;
        Ok(set)
    }

    /// Approximate footprint of the rule set in the SOE's memory, used by the
    /// resource accounting (rules are typically held in EEPROM).
    pub fn storage_bytes(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_bounds_the_untrusted_rule_count_by_the_input() {
        // A bare 12-byte header claiming u32::MAX rules: a typed error, not
        // a reservation sized by the claimed count.
        let mut blob = 7u64.to_le_bytes().to_vec();
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = RuleSet::decode(&blob).unwrap_err();
        assert!(matches!(err, CoreError::BadDocument { .. }), "{err:?}");
    }

    #[test]
    fn sign_symbols() {
        assert_eq!(Sign::Permit.symbol(), '+');
        assert_eq!(Sign::Deny.symbol(), '-');
        assert_eq!(Sign::from_symbol('+'), Some(Sign::Permit));
        assert_eq!(Sign::from_symbol('-'), Some(Sign::Deny));
        assert_eq!(Sign::from_symbol('x'), None);
        assert_eq!(Sign::Permit.to_string(), "+");
    }

    #[test]
    fn rule_construction_and_line_roundtrip() {
        let r = AccessRule::permit(0, "doctor", "//patient[@id = \"P1\"]//act").unwrap();
        assert_eq!(r.sign, Sign::Permit);
        assert_eq!(r.subject.name(), "doctor");
        let line = r.to_line();
        let back = AccessRule::from_line(0, &line).unwrap();
        assert_eq!(back, r);
        assert_eq!(r.to_string(), line);

        let r = AccessRule::deny(1, "nurse", "//ssn").unwrap();
        assert_eq!(r.sign, Sign::Deny);
    }

    #[test]
    fn bad_rule_lines_are_rejected() {
        assert!(AccessRule::from_line(0, "").is_err());
        assert!(AccessRule::from_line(0, "?, bob, //a").is_err());
        assert!(AccessRule::from_line(0, "+, bob").is_err());
        assert!(AccessRule::from_line(0, "+, , //a").is_err());
        assert!(AccessRule::from_line(0, "+, bob, //a[[").is_err());
    }

    #[test]
    fn ruleset_parse_and_queries() {
        let text = r#"
            # rules for the medical folder
            +, doctor, //patient
            -, doctor, //patient/ssn
            +, nurse, //patient/name
        "#;
        let set = RuleSet::parse(text).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.subjects().len(), 2);
        assert_eq!(set.for_subject(&Subject::new("doctor")).count(), 2);
        let nurse = set.subset_for(&Subject::new("nurse"));
        assert_eq!(nurse.len(), 1);
        assert!(!set.is_empty());
        assert!(set.to_text().contains("//patient/ssn"));
    }

    #[test]
    fn ruleset_push_remove_and_versioning() {
        let mut set = RuleSet::new();
        assert_eq!(set.version(), 0);
        let id = set.push(Sign::Permit, "alice", "//a").unwrap();
        set.push(Sign::Deny, "alice", "//a/b").unwrap();
        assert_eq!(set.version(), 2);
        assert!(set.remove(id));
        assert!(!set.remove(id));
        assert_eq!(set.version(), 3);
        assert_eq!(set.len(), 1);
        // Ids are not reused.
        let id3 = set.push(Sign::Permit, "bob", "//c").unwrap();
        assert!(id3.0 >= 2);
    }

    #[test]
    fn ruleset_encode_decode_roundtrip() {
        let mut set = RuleSet::parse(
            "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
        )
        .unwrap();
        set.set_version(7);
        let bytes = set.encode();
        assert_eq!(set.storage_bytes(), bytes.len());
        let back = RuleSet::decode(&bytes).unwrap();
        assert_eq!(back.version(), 7);
        assert_eq!(back.len(), 3);
        assert_eq!(back.rules()[1].sign, Sign::Deny);
        assert_eq!(back.rules()[2].subject.name(), "secretary");
        // Object paths survive the round-trip semantically.
        assert_eq!(back.rules()[0].object, set.rules()[0].object);
    }

    #[test]
    fn ruleset_decode_rejects_corrupted_input() {
        let set = RuleSet::parse("+, a, //x").unwrap();
        let bytes = set.encode();
        assert!(RuleSet::decode(&bytes[..5]).is_err());
        assert!(RuleSet::decode(&bytes[..bytes.len() - 2]).is_err());
        let mut bad_sign = bytes.clone();
        bad_sign[16] = b'?';
        assert!(RuleSet::decode(&bad_sign).is_err() || RuleSet::decode(&bad_sign).is_ok());
        assert!(RuleSet::decode(&[]).is_err());
    }
}
