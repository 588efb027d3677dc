//! Conflict resolution (§2.2).
//!
//! "Due to this propagation mechanism and to the multiplicity of rules for a
//! same user, a conflict resolution principle is required. Conflicts are
//! resolved using two policies: 1) Denial-Takes-Precedence [...] and 2)
//! Most-Specific-Object-Takes-Precedence."
//!
//! The decision algebra below implements exactly that: among the rules that
//! apply *directly* to a node, a prohibition wins over a permission; when no
//! rule applies directly, the decision propagated from the closest ancestor
//! with a direct rule applies; when nothing applies at all, the closed-world
//! default of the policy applies.

use crate::rule::{RuleId, Sign};

/// Authorization decision for a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// The node (tag, attributes, direct text) may be delivered.
    Permit,
    /// The node must not be delivered (descendants may still be, under a more
    /// specific positive rule; their ancestors then appear as bare structural
    /// scaffolding).
    Deny,
}

impl Decision {
    /// True for [`Decision::Permit`].
    pub fn is_permit(self) -> bool {
        matches!(self, Decision::Permit)
    }
}

/// Global policy of the access-control head. Only the default varies,
/// closed or open: conflicts always resolve by the paper's two principles,
/// Denial-Takes-Precedence and Most-Specific-Object-Takes-Precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPolicy {
    /// Decision applied when no rule (direct or propagated) concerns a node.
    /// The paper's model is closed by default (`Deny`).
    pub default_decision: Decision,
}

impl Default for AccessPolicy {
    fn default() -> Self {
        AccessPolicy {
            default_decision: Decision::Deny,
        }
    }
}

impl AccessPolicy {
    /// The paper's policy: closed world.
    pub fn paper() -> Self {
        AccessPolicy::default()
    }

    /// An open-by-default policy (used by the dissemination application where
    /// everything is public except what negative rules carve out).
    pub fn open() -> Self {
        AccessPolicy {
            default_decision: Decision::Permit,
        }
    }
}

/// A rule that applies *directly* to a node (its navigational final state was
/// reached on that node and all its predicates hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectRule {
    /// The rule.
    pub rule: RuleId,
    /// Its sign.
    pub sign: Sign,
}

/// Resolves the decision of a node given the rules applying directly to it and
/// the decision inherited from its closest ancestor carrying a direct rule
/// (`None` when no ancestor carries one).
pub fn resolve(
    policy: &AccessPolicy,
    direct: &[DirectRule],
    inherited: Option<Decision>,
) -> Decision {
    let has_deny = direct.iter().any(|d| d.sign == Sign::Deny);
    let has_permit = direct.iter().any(|d| d.sign == Sign::Permit);
    resolve_signs(policy, has_deny, has_permit, inherited)
}

/// [`resolve`] on what it actually depends on: whether some prohibition and
/// whether some permission applies directly to the node. Callers that fold
/// their matches as they go need no slice of [`DirectRule`]s.
pub fn resolve_signs(
    policy: &AccessPolicy,
    has_deny: bool,
    has_permit: bool,
    inherited: Option<Decision>,
) -> Decision {
    match (has_deny, has_permit) {
        // Denial takes precedence, also over a permission at equal
        // specificity.
        (true, _) => Decision::Deny,
        (false, true) => Decision::Permit,
        (false, false) => inherited.unwrap_or(policy.default_decision),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permit(id: u32) -> DirectRule {
        DirectRule {
            rule: RuleId(id),
            sign: Sign::Permit,
        }
    }

    fn deny(id: u32) -> DirectRule {
        DirectRule {
            rule: RuleId(id),
            sign: Sign::Deny,
        }
    }

    #[test]
    fn default_policy_is_closed_world_denial_precedence() {
        let p = AccessPolicy::paper();
        assert_eq!(p.default_decision, Decision::Deny);
        assert_eq!(AccessPolicy::open().default_decision, Decision::Permit);
        assert!(!Decision::Deny.is_permit());
        assert!(Decision::Permit.is_permit());
    }

    #[test]
    fn denial_takes_precedence_among_direct_rules() {
        let p = AccessPolicy::paper();
        assert_eq!(resolve(&p, &[permit(0), deny(1)], None), Decision::Deny);
        assert_eq!(
            resolve(&p, &[deny(1), permit(0)], Some(Decision::Permit)),
            Decision::Deny
        );
    }

    #[test]
    fn most_specific_object_takes_precedence() {
        let p = AccessPolicy::paper();
        // A direct permission overrides an inherited prohibition.
        assert_eq!(
            resolve(&p, &[permit(0)], Some(Decision::Deny)),
            Decision::Permit
        );
        // A direct prohibition overrides an inherited permission.
        assert_eq!(
            resolve(&p, &[deny(0)], Some(Decision::Permit)),
            Decision::Deny
        );
        // No direct rule: the propagated decision applies.
        assert_eq!(resolve(&p, &[], Some(Decision::Permit)), Decision::Permit);
        assert_eq!(resolve(&p, &[], Some(Decision::Deny)), Decision::Deny);
        // Nothing applies: the closed-world default applies.
        assert_eq!(resolve(&p, &[], None), Decision::Deny);
        assert_eq!(resolve(&AccessPolicy::open(), &[], None), Decision::Permit);
    }

    #[test]
    fn sign_flags_resolve_like_the_matching_slice() {
        let policies = [AccessPolicy::paper(), AccessPolicy::open()];
        for policy in &policies {
            for inherited in [None, Some(Decision::Permit), Some(Decision::Deny)] {
                for has_deny in [false, true] {
                    for has_permit in [false, true] {
                        let mut direct = Vec::new();
                        if has_deny {
                            direct.push(deny(1));
                        }
                        if has_permit {
                            direct.push(permit(0));
                        }
                        assert_eq!(
                            resolve_signs(policy, has_deny, has_permit, inherited),
                            resolve(policy, &direct, inherited),
                            "{policy:?} deny={has_deny} permit={has_permit} inherited={inherited:?}"
                        );
                    }
                }
            }
        }
    }
}
