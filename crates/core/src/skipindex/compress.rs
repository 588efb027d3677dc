//! Low-level encodings of the skip index: varints and recursively compressed
//! tag bitmaps.
//!
//! The *recursive compression* of the paper exploits the fact that the tag set
//! of a subtree is always a subset of the tag set of its enclosing summarised
//! subtree: instead of one bit per dictionary entry, a nested summary spends
//! one bit per member of its parent's tag set. On deeply structured documents
//! this shrinks inner bitmaps to one or two bytes.

use sdds_xml::{TagId, TagSet};

/// Writes `value` as an LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `bytes` starting at `pos`. Returns the value
/// and the number of bytes consumed, or `None` on truncated/overlong input.
pub fn read_varint(bytes: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut used = 0usize;
    loop {
        let byte = *bytes.get(pos + used)?;
        used += 1;
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some((value, used));
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Number of bytes [`write_varint`] produces for `value`.
pub fn varint_len(value: u64) -> usize {
    let mut len = 1;
    let mut v = value >> 7;
    while v != 0 {
        len += 1;
        v >>= 7;
    }
    len
}

/// An ordered reference list of tags against which a nested bitmap is encoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagReference {
    /// Tag ids, ascending.
    pub tags: Vec<TagId>,
}

impl TagReference {
    /// Reference covering a whole dictionary of `dict_len` tags.
    pub fn full(dict_len: usize) -> Self {
        TagReference {
            tags: (0..dict_len).map(|i| TagId(i as u16)).collect(),
        }
    }

    /// Reference covering exactly the members of `set`.
    pub fn from_set(set: &TagSet) -> Self {
        TagReference {
            tags: set.iter().collect(),
        }
    }

    /// Number of referenced tags (bits of a bitmap encoded against it).
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Encodes `set` (which must be a subset of the reference) as a bitmap of
    /// `ceil(len/8)` bytes, one bit per reference entry.
    pub fn encode_subset(&self, set: &TagSet) -> Vec<u8> {
        let mut out = vec![0u8; self.tags.len().div_ceil(8)];
        for (i, tag) in self.tags.iter().enumerate() {
            if set.contains(*tag) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Decodes a bitmap produced by [`TagReference::encode_subset`] into
    /// `set`, replacing its contents and keeping its allocation. Bits past
    /// the end of the reference are ignored.
    pub fn decode_into(&self, bitmap: &[u8], set: &mut TagSet) {
        set.clear();
        for (byte_index, &byte) in bitmap.iter().enumerate() {
            let mut rest = byte;
            while rest != 0 {
                let i = byte_index * 8 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if let Some(&tag) = self.tags.get(i) {
                    set.insert(tag);
                }
            }
        }
    }

    /// Number of bitmap bytes needed against this reference.
    pub fn bitmap_len(&self) -> usize {
        self.tags.len().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for value in [
            0u64,
            1,
            127,
            128,
            255,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            assert_eq!(buf.len(), varint_len(value));
            let (back, used) = read_varint(&buf, 0).unwrap();
            assert_eq!(back, value);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_reads_at_offsets_and_rejects_truncation() {
        let mut buf = vec![0xAA];
        write_varint(&mut buf, 300);
        let (v, used) = read_varint(&buf, 1).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
        assert!(read_varint(&buf[..2], 1).is_none());
        assert!(read_varint(&[], 0).is_none());
        // Overlong encoding (> 10 bytes of continuation) is rejected.
        assert!(read_varint(&[0x80; 12], 0).is_none());
    }

    #[test]
    fn full_reference_round_trips_any_subset() {
        let reference = TagReference::full(20);
        assert_eq!(reference.len(), 20);
        assert_eq!(reference.bitmap_len(), 3);
        let set: TagSet = [TagId(0), TagId(7), TagId(19)].into_iter().collect();
        let bitmap = reference.encode_subset(&set);
        assert_eq!(bitmap.len(), 3);
        let mut decoded = TagSet::new();
        reference.decode_into(&bitmap, &mut decoded);
        assert_eq!(decoded, set);
        // Decoding again replaces the set's contents.
        reference.decode_into(&[0x02], &mut decoded);
        assert_eq!(decoded, [TagId(1)].into_iter().collect());
    }

    #[test]
    fn nested_reference_uses_fewer_bits() {
        // Dictionary of 100 tags, but the parent subtree only contains 5: the
        // child bitmap needs a single byte instead of 13.
        let parent_set: TagSet = [TagId(3), TagId(17), TagId(42), TagId(77), TagId(99)]
            .into_iter()
            .collect();
        let parent_ref = TagReference::from_set(&parent_set);
        assert_eq!(parent_ref.bitmap_len(), 1);
        assert_eq!(TagReference::full(100).bitmap_len(), 13);

        let child_set: TagSet = [TagId(17), TagId(99)].into_iter().collect();
        let bitmap = parent_ref.encode_subset(&child_set);
        assert_eq!(bitmap.len(), 1);
        let mut decoded = TagSet::new();
        parent_ref.decode_into(&bitmap, &mut decoded);
        assert_eq!(decoded, child_set);
    }

    #[test]
    fn empty_reference_and_empty_set() {
        let reference = TagReference::from_set(&TagSet::new());
        assert!(reference.is_empty());
        assert_eq!(reference.bitmap_len(), 0);
        let bitmap = reference.encode_subset(&TagSet::new());
        assert!(bitmap.is_empty());
        let mut decoded: TagSet = [TagId(4)].into_iter().collect();
        // Bits past the end of the reference decode to nothing.
        reference.decode_into(&[0xFF], &mut decoded);
        assert!(decoded.is_empty());
    }
}
