//! Tag dictionary and tag-set bit arrays.
//!
//! The skip index (§2.3) "compresses the document structure using a dictionary
//! of tags and encodes the set of tags thanks to a bit array referring to the
//! tag dictionary". [`TagDict`] is that dictionary — a bijection between tag
//! names and small integer ids — and [`TagSet`] is the bit array recording
//! which tags occur in a subtree.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A small integer identifying a tag name in a [`TagDict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u16);

impl TagId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bijection between tag names and [`TagId`]s, built when a document is
/// encoded and shipped (encrypted) with the document so that the SOE can map
/// rule node-tests to bit positions.
///
/// Each name is stored once, as an `Arc<str>` shared by both directions of
/// the map, so a decoder can hand out a name per event by refcount bump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagDict {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, TagId>,
}

impl TagDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        TagDict::default()
    }

    /// Builds a dictionary from an iterator of tag names (duplicates allowed).
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut dict = TagDict::new();
        for n in names {
            dict.intern(n.as_ref());
        }
        dict
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    ///
    /// # Panics
    /// Panics if more than `u16::MAX` distinct tags are interned; real XML
    /// vocabularies are orders of magnitude smaller (the paper's corpora have
    /// fewer than a hundred distinct tags).
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        // lint: infallible — the u16 tag-id space is a documented capacity
        // limit (see the doc comment above); the paper's corpora stay two
        // orders of magnitude below it.
        let id = TagId(u16::try_from(self.names.len()).expect("too many distinct tags"));
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    /// Looks up the id of `name` without interning.
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.ids.get(name).copied()
    }

    /// Returns the name for `id`; clone the `Arc` to share it.
    pub fn name(&self, id: TagId) -> Option<&Arc<str>> {
        self.names.get(id.index())
    }

    /// Number of distinct tags.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no tag has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (TagId(i as u16), &**n))
    }

    /// Serialised size of the dictionary in bytes (length-prefixed names),
    /// as accounted by the secure-document encoder.
    pub fn encoded_len(&self) -> usize {
        2 + self.names.iter().map(|n| 1 + n.len()).sum::<usize>()
    }

    /// Serialises the dictionary (u16 count, then length-prefixed UTF-8 names).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&(self.names.len() as u16).to_le_bytes());
        for n in &self.names {
            debug_assert!(n.len() <= u8::MAX as usize, "tag name too long");
            out.push(n.len() as u8);
            out.extend_from_slice(n.as_bytes());
        }
        out
    }

    /// Deserialises a dictionary previously produced by [`TagDict::encode`].
    pub fn decode(bytes: &[u8]) -> Option<(Self, usize)> {
        if bytes.len() < 2 {
            return None;
        }
        let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let mut dict = TagDict::new();
        let mut pos = 2usize;
        for _ in 0..count {
            let len = *bytes.get(pos)? as usize;
            pos += 1;
            let name = std::str::from_utf8(bytes.get(pos..pos + len)?).ok()?;
            pos += len;
            dict.intern(name);
        }
        Some((dict, pos))
    }
}

/// A set of tags, stored as a bit array over a [`TagDict`].
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct TagSet {
    bits: Vec<u64>,
}

impl TagSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TagSet::default()
    }

    /// Creates an empty set pre-sized for `n` distinct tags.
    pub fn with_capacity(n: usize) -> Self {
        TagSet {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts `id`. Returns true if it was not present.
    pub fn insert(&mut self, id: TagId) -> bool {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let had = self.bits[word] & (1 << bit) != 0;
        self.bits[word] |= 1 << bit;
        !had
    }

    /// Tests membership of `id`.
    pub fn contains(&self, id: TagId) -> bool {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of tags in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set contains no tag.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &TagSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
    }

    /// True if every tag of `other` is in `self`.
    pub fn is_superset(&self, other: &TagSet) -> bool {
        for (i, &w) in other.bits.iter().enumerate() {
            let own = self.bits.get(i).copied().unwrap_or(0);
            if w & !own != 0 {
                return false;
            }
        }
        true
    }

    /// True if the two sets share at least one tag.
    pub fn intersects(&self, other: &TagSet) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Iterates over the ids present in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = TagId> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    TagId((word * 64 + bit) as u16)
                })
            })
        })
    }

    /// Clears the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }

    /// Returns the packed bit-array, trimmed of trailing zero bytes, for the
    /// dictionary size `dict_len`. This is the representation embedded in the
    /// skip index before recursive compression.
    pub fn to_bytes(&self, dict_len: usize) -> Vec<u8> {
        let nbytes = dict_len.div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for id in self.iter() {
            let idx = id.index();
            if idx / 8 < nbytes {
                out[idx / 8] |= 1 << (idx % 8);
            }
        }
        out
    }

    /// Rebuilds a set from a packed bit-array.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut set = TagSet::new();
        for (i, &b) in bytes.iter().enumerate() {
            for bit in 0..8 {
                if b & (1 << bit) != 0 {
                    set.insert(TagId((i * 8 + bit) as u16));
                }
            }
        }
        set
    }
}

impl fmt::Debug for TagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TagSet{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", id.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TagId> for TagSet {
    fn from_iter<T: IntoIterator<Item = TagId>>(iter: T) -> Self {
        let mut set = TagSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_interning_is_idempotent() {
        let mut d = TagDict::new();
        let a = d.intern("a");
        let b = d.intern("b");
        assert_ne!(a, b);
        assert_eq!(d.intern("a"), a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.name(a).map(|n| &**n), Some("a"));
        assert_eq!(d.get("b"), Some(b));
        assert_eq!(d.get("zz"), None);
    }

    #[test]
    fn dict_encode_decode_roundtrip() {
        let d = TagDict::from_names(["hospital", "patient", "diagnosis", "act"]);
        let bytes = d.encode();
        assert_eq!(bytes.len(), d.encoded_len());
        let (d2, used) = TagDict::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(d, d2);
    }

    #[test]
    fn dict_decode_rejects_truncated_input() {
        let d = TagDict::from_names(["a", "b"]);
        let bytes = d.encode();
        assert!(TagDict::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(TagDict::decode(&[]).is_none());
    }

    #[test]
    fn tagset_basic_operations() {
        let mut s = TagSet::new();
        assert!(s.is_empty());
        assert!(s.insert(TagId(3)));
        assert!(!s.insert(TagId(3)));
        assert!(s.insert(TagId(70)));
        assert!(s.contains(TagId(3)));
        assert!(s.contains(TagId(70)));
        assert!(!s.contains(TagId(4)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![TagId(3), TagId(70)]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn tagset_union_superset_intersection() {
        let a: TagSet = [TagId(1), TagId(2), TagId(65)].into_iter().collect();
        let b: TagSet = [TagId(2)].into_iter().collect();
        let c: TagSet = [TagId(9)].into_iter().collect();
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let mut u = b.clone();
        u.union_with(&c);
        assert!(u.contains(TagId(2)) && u.contains(TagId(9)));
        assert!(a.is_superset(&TagSet::new()));
    }

    #[test]
    fn tagset_bytes_roundtrip() {
        let a: TagSet = [TagId(0), TagId(7), TagId(12)].into_iter().collect();
        let bytes = a.to_bytes(16);
        assert_eq!(bytes.len(), 2);
        let back = TagSet::from_bytes(&bytes);
        assert_eq!(a, back);
    }

    #[test]
    fn tagset_debug_lists_members() {
        let a: TagSet = [TagId(1), TagId(5)].into_iter().collect();
        assert_eq!(format!("{a:?}"), "TagSet{1,5}");
    }
}
