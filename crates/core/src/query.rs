//! User queries.
//!
//! Queries are expressed in the same XP{[],*,//} fragment as the access rules
//! (§3: "both access control rules and queries are expressed in XPath"). The
//! result of a query is the set of subtrees rooted at the matching nodes,
//! restricted to their authorized part.

use sdds_xpath::Path;

use crate::automaton::{compile, CompiledPath};
use crate::error::CoreError;

/// A parsed and compiled user query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The parsed path.
    pub path: Path,
    compiled: CompiledPath,
}

impl Query {
    /// Parses a query expression.
    pub fn parse(expression: &str) -> Result<Self, CoreError> {
        let path = sdds_xpath::parse(expression)?;
        let compiled = compile(&path)?;
        Ok(Query { path, compiled })
    }

    /// Builds a query from an already parsed path.
    pub fn from_path(path: Path) -> Result<Self, CoreError> {
        let compiled = compile(&path)?;
        Ok(Query { path, compiled })
    }

    /// The compiled automaton, consumed by the engine.
    pub fn compiled(&self) -> &CompiledPath {
        &self.compiled
    }

    /// Textual form of the query.
    pub fn to_expression(&self) -> String {
        self.path.to_string()
    }

    /// Serialised length of the query as shipped to the card (used by the
    /// channel accounting of the PUT_QUERY command).
    pub fn wire_len(&self) -> usize {
        self.to_expression().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_reformat() {
        let q = Query::parse("//patient[@id = \"P1\"]//act").unwrap();
        assert_eq!(q.compiled().len(), 2);
        assert!(q.to_expression().contains("patient"));
        assert!(q.wire_len() > 10);
        let q2 = Query::from_path(q.path.clone()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn invalid_queries_are_rejected() {
        assert!(Query::parse("//a[").is_err());
        assert!(Query::parse("").is_err());
        assert!(Query::parse("//a[b[c]]").is_err()); // outside the streaming fragment
    }
}
