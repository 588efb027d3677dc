//! Merkle tree over document chunks.
//!
//! The SOE must check that the encrypted document "has not been tampered"
//! (§2.1) — an attacker controlling the DSP or the channel could substitute or
//! reorder encrypted blocks to mislead the access-control evaluator. Because
//! the skip index makes the SOE consume an arbitrary *subset* of the chunks, a
//! simple whole-document MAC would force it to download everything; a Merkle
//! tree instead lets the SOE verify each consumed chunk against the (signed)
//! root digest using a logarithmic-size proof, regardless of which chunks are
//! skipped.

use crate::error::CryptoError;
use crate::sha256::{sha256, Sha256, DIGEST_SIZE};

/// A full Merkle tree, kept by the producer (the publisher encrypting the
/// document) so that it can attach a proof to every chunk it serves.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` are the leaf digests; the last level has a single root.
    levels: Vec<Vec<[u8; DIGEST_SIZE]>>,
}

/// A proof that a chunk belongs to a tree with a given root: the sibling
/// digests from the leaf up to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling digest at each level, with a flag telling whether the sibling
    /// is on the right (`true`) or on the left (`false`).
    pub siblings: Vec<([u8; DIGEST_SIZE], bool)>,
}

/// A [`CryptoError::BadProof`] about leaf `leaf_index`.
fn bad_proof(leaf_index: usize, problem: std::fmt::Arguments<'_>) -> CryptoError {
    CryptoError::BadProof {
        // alloc: cold — out-of-range leaf or misplaced proof error path.
        message: format!("leaf index {leaf_index}: {problem}"),
    }
}

fn hash_leaf(data: &[u8]) -> [u8; DIGEST_SIZE] {
    // Domain separation between leaves and internal nodes prevents
    // second-preimage attacks where an internal node is presented as a leaf.
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn hash_node(left: &[u8; DIGEST_SIZE], right: &[u8; DIGEST_SIZE]) -> [u8; DIGEST_SIZE] {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

impl MerkleTree {
    /// Builds a tree over `chunks` (at least one chunk required; an empty
    /// document is represented by one empty chunk).
    pub fn build<T: AsRef<[u8]>>(chunks: &[T]) -> Self {
        let leaves: Vec<[u8; DIGEST_SIZE]> = if chunks.is_empty() {
            vec![hash_leaf(b"")]
        } else {
            chunks.iter().map(|c| hash_leaf(c.as_ref())).collect()
        };
        let mut levels = vec![leaves];
        while levels.last().map(Vec::len).unwrap_or(0) > 1 {
            // lint: infallible — `levels` starts with the leaf level and
            // only grows.
            let prev = levels.last().expect("at least one level");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(hash_node(&pair[0], &pair[1]));
                } else {
                    // Odd node is promoted by hashing it with itself, which
                    // keeps proofs uniform.
                    next.push(hash_node(&pair[0], &pair[0]));
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Root digest.
    pub fn root(&self) -> [u8; DIGEST_SIZE] {
        *self
            .levels
            .last()
            // lint: infallible — construction always pushes the leaf level,
            // and the loop stops once the top level holds exactly one node.
            .expect("tree has a root")
            .first()
            // lint: infallible — same construction argument as above.
            .expect("root")
    }

    /// Digest of leaf `index`.
    pub fn leaf(&self, index: usize) -> Option<[u8; DIGEST_SIZE]> {
        self.levels[0].get(index).copied()
    }

    /// Builds the inclusion proof for leaf `index`.
    pub fn proof(&self, index: usize) -> Result<MerkleProof, CryptoError> {
        if index >= self.leaf_count() {
            return Err(bad_proof(
                index,
                format_args!("out of range (0..{})", self.leaf_count()),
            ));
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = if idx.is_multiple_of(2) {
                idx + 1
            } else {
                idx - 1
            };
            let sibling = level.get(sibling_idx).copied().unwrap_or(level[idx]);
            // `true` means the sibling sits on the right of the current node.
            siblings.push((sibling, idx.is_multiple_of(2)));
            idx /= 2;
        }
        Ok(MerkleProof {
            leaf_index: index,
            siblings,
        })
    }

    /// Size in bytes of one serialised proof (used by the cost model).
    pub fn proof_len(&self) -> usize {
        (self.levels.len() - 1) * (DIGEST_SIZE + 1) + 8
    }
}

impl MerkleProof {
    /// Verifies that `chunk` is the leaf this proof commits to, under `root`.
    ///
    /// The side of each sibling is derived from `leaf_index` (bit `level`
    /// set: the current node is a right child), so a proof only verifies at
    /// the position it was built for. A proof whose side flags disagree with
    /// its index, or whose index does not fit in `2^depth` leaves, is
    /// rejected as [`CryptoError::BadProof`]. An odd last node is promoted by
    /// hashing it with itself, so the caller must still check `leaf_index`
    /// against the authenticated leaf count.
    pub fn verify(&self, chunk: &[u8], root: &[u8; DIGEST_SIZE]) -> Result<(), CryptoError> {
        let mut digest = hash_leaf(chunk);
        // `index` is the position of `digest` within its level.
        let mut index = self.leaf_index;
        for (sibling, sibling_is_right) in &self.siblings {
            if *sibling_is_right != index.is_multiple_of(2) {
                return Err(bad_proof(
                    self.leaf_index,
                    format_args!("sibling side disagrees with the position"),
                ));
            }
            digest = if *sibling_is_right {
                hash_node(&digest, sibling)
            } else {
                hash_node(sibling, &digest)
            };
            index /= 2;
        }
        if index != 0 {
            return Err(bad_proof(
                self.leaf_index,
                format_args!("does not fit a proof of depth {}", self.siblings.len()),
            ));
        }
        if &digest == root {
            Ok(())
        } else {
            Err(CryptoError::IntegrityFailure {
                // alloc: cold — integrity-failure error path.
                context: format!("merkle proof for chunk {}", self.leaf_index),
            })
        }
    }

    /// Serialised size of [`MerkleProof::encode`]'s output, without building
    /// it — callers that only account proof bytes (the DSP's per-shard serve
    /// counters) can stay allocation-free.
    pub fn encoded_len(&self) -> usize {
        // leaf index + sibling count + (side flag + digest) per sibling.
        8 + 1 + self.siblings.len() * (DIGEST_SIZE + 1)
    }

    /// Serialises the proof (leaf index, count, then digest+side pairs).
    pub fn encode(&self) -> Vec<u8> {
        // alloc: amortized — one proof wire image per served chunk, ~33 bytes per tree level.
        let mut out = Vec::with_capacity(8 + 1 + self.siblings.len() * (DIGEST_SIZE + 1));
        out.extend_from_slice(&(self.leaf_index as u64).to_le_bytes());
        out.push(self.siblings.len() as u8);
        for (digest, right) in &self.siblings {
            out.push(u8::from(*right));
            out.extend_from_slice(digest);
        }
        out
    }

    /// Deserialises a proof produced by [`MerkleProof::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CryptoError> {
        let err = |m: &str| CryptoError::BadProof {
            // alloc: cold — malformed proof error path.
            message: m.to_owned(),
        };
        if bytes.len() < 9 {
            return Err(err("proof too short"));
        }
        // lint: infallible — `bytes.len() >= 9` is checked above.
        let leaf_index = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let count = bytes[8] as usize;
        // alloc: amortized — one decoded proof per supplied chunk, bounded by tree depth.
        let mut siblings = Vec::with_capacity(count);
        let mut pos = 9usize;
        for _ in 0..count {
            let right = *bytes.get(pos).ok_or_else(|| err("truncated proof"))? != 0;
            pos += 1;
            let digest: [u8; DIGEST_SIZE] = bytes
                .get(pos..pos + DIGEST_SIZE)
                .ok_or_else(|| err("truncated proof"))?
                .try_into()
                // lint: infallible — the checked `get` returns exactly
                // `DIGEST_SIZE` bytes.
                .expect("digest size");
            pos += DIGEST_SIZE;
            siblings.push((digest, right));
        }
        Ok(MerkleProof {
            leaf_index,
            siblings,
        })
    }
}

/// Computes the digest that a signer would sign for a document: the Merkle
/// root bound to the document identifier, so that a valid root for one
/// document cannot be replayed for another.
pub fn document_commitment(doc_id: &str, root: &[u8; DIGEST_SIZE]) -> [u8; DIGEST_SIZE] {
    let mut h = Sha256::new();
    h.update(doc_id.as_bytes());
    h.update(&[0x02]);
    h.update(root);
    h.finalize()
}

/// Convenience wrapper hashing arbitrary bytes (re-exported for callers that
/// only need a digest, e.g. rule-set versioning).
pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
    sha256(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("chunk-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_chunk_tree() {
        let tree = MerkleTree::build(&chunks(1));
        assert_eq!(tree.leaf_count(), 1);
        let proof = tree.proof(0).unwrap();
        assert!(proof.siblings.is_empty());
        proof.verify(b"chunk-0", &tree.root()).unwrap();
        assert!(proof.verify(b"chunk-1", &tree.root()).is_err());
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let data = chunks(n);
            let tree = MerkleTree::build(&data);
            let root = tree.root();
            for (i, chunk) in data.iter().enumerate() {
                let proof = tree.proof(i).unwrap();
                proof
                    .verify(chunk, &root)
                    .unwrap_or_else(|e| panic!("n={n} i={i}: {e}"));
            }
        }
    }

    #[test]
    fn tampered_chunk_is_detected() {
        let data = chunks(8);
        let tree = MerkleTree::build(&data);
        let proof = tree.proof(3).unwrap();
        assert!(proof.verify(b"chunk-3-tampered", &tree.root()).is_err());
    }

    #[test]
    fn swapped_chunks_are_detected() {
        // Substituting one valid chunk for another (both from the same
        // document) must fail because the proof binds the position.
        let data = chunks(8);
        let tree = MerkleTree::build(&data);
        let proof = tree.proof(2).unwrap();
        assert!(proof.verify(&data[5], &tree.root()).is_err());
    }

    #[test]
    fn relabelled_proof_is_bound_to_its_position() {
        // Leaf 5's proof relabelled as leaf 4 must not vouch for chunk 5 at
        // position 4: its side flags now contradict the index.
        let data = chunks(8);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.proof(5).unwrap();
        proof.leaf_index = 4;
        assert!(matches!(
            proof.verify(&data[5], &tree.root()),
            Err(CryptoError::BadProof { .. })
        ));
        // Flipping the flags to match the new index breaks the hash chain.
        for (level, (_, right)) in proof.siblings.iter_mut().enumerate() {
            *right = (4usize >> level) & 1 == 0;
        }
        assert!(matches!(
            proof.verify(&data[5], &tree.root()),
            Err(CryptoError::IntegrityFailure { .. })
        ));
        // Reordered proofs in a non-power-of-two tree fail the same way.
        let data = chunks(7);
        let tree = MerkleTree::build(&data);
        for i in 0..data.len() {
            for (j, chunk) in data.iter().enumerate().filter(|&(j, _)| j != i) {
                let mut proof = tree.proof(j).unwrap();
                proof.leaf_index = i;
                assert!(proof.verify(chunk, &tree.root()).is_err(), "{j} as {i}");
            }
        }
    }

    #[test]
    fn leaf_index_must_fit_the_proof_depth() {
        let data = chunks(4);
        let tree = MerkleTree::build(&data);
        let mut proof = tree.proof(1).unwrap();
        // Depth 2 holds leaves 0..4; index 5 agrees with leaf 1's flags at
        // both levels but lies outside the tree.
        proof.leaf_index = 5;
        assert!(matches!(
            proof.verify(&data[1], &tree.root()),
            Err(CryptoError::BadProof { .. })
        ));
        // A huge decoded index with an empty proof is rejected, not shifted
        // out of range.
        let empty = MerkleProof {
            leaf_index: usize::MAX,
            siblings: Vec::new(),
        };
        assert!(matches!(
            empty.verify(b"x", &[0; DIGEST_SIZE]),
            Err(CryptoError::BadProof { .. })
        ));
    }

    #[test]
    fn proof_out_of_range_is_rejected() {
        let tree = MerkleTree::build(&chunks(4));
        assert!(tree.proof(4).is_err());
    }

    #[test]
    fn proof_encode_decode_roundtrip() {
        let data = chunks(9);
        let tree = MerkleTree::build(&data);
        for (i, chunk) in data.iter().enumerate() {
            let proof = tree.proof(i).unwrap();
            let bytes = proof.encode();
            let back = MerkleProof::decode(&bytes).unwrap();
            assert_eq!(back, proof);
            back.verify(chunk, &tree.root()).unwrap();
        }
        assert!(MerkleProof::decode(&[1, 2, 3]).is_err());
        let good = tree.proof(0).unwrap().encode();
        assert!(MerkleProof::decode(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn different_documents_have_different_roots_and_commitments() {
        let t1 = MerkleTree::build(&chunks(4));
        let mut other = chunks(4);
        other[2] = b"chunk-2-modified".to_vec();
        let t2 = MerkleTree::build(&other);
        assert_ne!(t1.root(), t2.root());
        assert_ne!(
            document_commitment("doc-a", &t1.root()),
            document_commitment("doc-b", &t1.root())
        );
    }

    #[test]
    fn empty_input_builds_a_tree() {
        let tree = MerkleTree::build::<Vec<u8>>(&[]);
        assert_eq!(tree.leaf_count(), 1);
        tree.proof(0).unwrap().verify(b"", &tree.root()).unwrap();
    }

    #[test]
    fn proof_len_is_positive_and_grows_with_depth() {
        let small = MerkleTree::build(&chunks(2));
        let large = MerkleTree::build(&chunks(64));
        assert!(small.proof_len() > 0);
        assert!(large.proof_len() > small.proof_len());
    }
}
