//! Interned tag / attribute name symbols.
//!
//! The streaming evaluator must compare element and attribute names against
//! rule automata on every event. Comparing strings per rule per event scales
//! linearly with the number of installed rules (the E1 cliff); interning every
//! name occurring in a rule to a dense `u32` [`Symbol`] turns the per-event
//! work into a single hash lookup followed by integer dispatch.
//!
//! The table is *append-only*: symbols are never removed or renumbered, so
//! identifiers captured by compiled automata stay valid. Names that never occur in any rule are not interned at all — the evaluator
//! calls [`SymbolTable::lookup`] on document tokens and treats `None` as "can
//! only advance wildcard transitions", which keeps the table bounded by the
//! rule vocabulary instead of the document vocabulary.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, the classic fast hash for short keys. The table is probed once per
/// parsed token on the evaluator hot path, where the default SipHash (keyed,
/// DoS-resistant) costs more than the probe itself; symbol tables are built
/// from trusted rule vocabularies, so the stronger hash buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }
}

/// `HashMap` state plugging [`Fnv1a`] in.
pub type FnvState = BuildHasherDefault<Fnv1a>;

/// A dense identifier for an interned tag or attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol as a dense index (for bucket arrays and bitsets).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An append-only interner mapping names to dense [`Symbol`]s.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, Symbol, FnvState>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns a name, returning its symbol. Idempotent: interning the same
    /// name twice returns the same symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), sym);
        sym
    }

    /// Looks a name up without interning it. `None` means the name does not
    /// occur in any interned vocabulary.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).copied()
    }

    /// Resolves a symbol back to its name.
    ///
    /// # Panics
    /// Panics if the symbol was not produced by this table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("patient");
        let b = t.intern("name");
        assert_eq!(a, Symbol(0));
        assert_eq!(b, Symbol(1));
        assert_eq!(t.intern("patient"), a);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        t.intern("a");
        assert_eq!(t.lookup("a"), Some(Symbol(0)));
        assert_eq!(t.lookup("b"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = SymbolTable::new();
        let names = ["alpha", "beta", "gamma"];
        let syms: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        for (sym, name) in syms.iter().zip(names.iter()) {
            assert_eq!(t.resolve(*sym), *name);
        }
        let collected: Vec<(Symbol, &str)> = t.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], (Symbol(2), "gamma"));
    }
}
