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

/// Global policy knobs of the access-control head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPolicy {
    /// Decision applied when no rule (direct or propagated) concerns a node.
    /// The paper's model is closed by default (`Deny`).
    pub default_decision: Decision,
    /// If `true` (the paper's semantics), a prohibition that applies directly
    /// to a node wins over a permission that applies directly to the same
    /// node. The `false` variant (permission takes precedence) is provided for
    /// the ablation of experiment E1 only.
    pub denial_takes_precedence: bool,
}

impl Default for AccessPolicy {
    fn default() -> Self {
        AccessPolicy {
            default_decision: Decision::Deny,
            denial_takes_precedence: true,
        }
    }
}

impl AccessPolicy {
    /// The paper's policy: closed world, denial takes precedence.
    pub fn paper() -> Self {
        AccessPolicy::default()
    }

    /// An open-by-default policy (used by the dissemination application where
    /// everything is public except what negative rules carve out).
    pub fn open() -> Self {
        AccessPolicy {
            default_decision: Decision::Permit,
            ..AccessPolicy::default()
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
        (true, true) => {
            // Conflict at equal specificity.
            if policy.denial_takes_precedence {
                Decision::Deny
            } else {
                Decision::Permit
            }
        }
        (true, false) => Decision::Deny,
        (false, true) => Decision::Permit,
        (false, false) => inherited.unwrap_or(policy.default_decision),
    }
}

/// A stack of decisions mirroring the element nesting — the paper's *sign
/// stack*: "propagation of rules as well as conflicts are managed with a sign
/// stack which keeps on the top the current sign that is propagated if no
/// other rule applies" (§2.3).
#[derive(Debug, Clone, Default)]
pub struct SignStack {
    stack: Vec<Decision>,
}

impl SignStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        SignStack::default()
    }

    /// Decision currently propagated (top of stack), if any element is open.
    pub fn current(&self) -> Option<Decision> {
        self.stack.last().copied()
    }

    /// Pushes the decision of a newly opened element, computed from its direct
    /// rules and the propagated decision, and returns it.
    pub fn push(&mut self, policy: &AccessPolicy, direct: &[DirectRule]) -> Decision {
        let decision = resolve(policy, direct, self.current());
        self.stack.push(decision);
        decision
    }

    /// Pops the decision of a closing element.
    pub fn pop(&mut self) -> Option<Decision> {
        self.stack.pop()
    }

    /// Current depth of the stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Bytes of secure working memory used by the stack (one byte per level in
    /// the card implementation).
    pub fn ram_bytes(&self) -> usize {
        self.stack.len()
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
        assert!(p.denial_takes_precedence);
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
        let lenient = AccessPolicy {
            denial_takes_precedence: false,
            ..AccessPolicy::paper()
        };
        assert_eq!(
            resolve(&lenient, &[permit(0), deny(1)], None),
            Decision::Permit
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
        let policies = [
            AccessPolicy::paper(),
            AccessPolicy {
                denial_takes_precedence: false,
                ..AccessPolicy::paper()
            },
            AccessPolicy::open(),
        ];
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

    #[test]
    fn sign_stack_propagates_and_backtracks() {
        let p = AccessPolicy::paper();
        let mut stack = SignStack::new();
        assert_eq!(stack.current(), None);
        // <root> with a direct permit
        assert_eq!(stack.push(&p, &[permit(0)]), Decision::Permit);
        // <child> with no direct rule inherits permit
        assert_eq!(stack.push(&p, &[]), Decision::Permit);
        // <grandchild> with a direct deny
        assert_eq!(stack.push(&p, &[deny(1)]), Decision::Deny);
        // <greatgrandchild> inherits the deny
        assert_eq!(stack.push(&p, &[]), Decision::Deny);
        assert_eq!(stack.depth(), 4);
        assert_eq!(stack.ram_bytes(), 4);
        assert_eq!(stack.pop(), Some(Decision::Deny));
        assert_eq!(stack.pop(), Some(Decision::Deny));
        // Back under <child>, the propagated decision is permit again.
        assert_eq!(stack.current(), Some(Decision::Permit));
        assert_eq!(stack.push(&p, &[]), Decision::Permit);
        stack.pop();
        stack.pop();
        stack.pop();
        assert_eq!(stack.pop(), None);
    }
}
