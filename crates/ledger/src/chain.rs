//! Hash-chained blocks: the immutability and traceability substrate
//! (§III-F — "smart contracts ensure credible incentives by recording
//! the results of the redistribution on blockchain").

use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::Sha256;
use crate::tx::{Log, Receipt, Transaction};
use crate::types::Hash256;
use tradefl_runtime::codec::BytesMut;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Block header.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockHeader {
    /// Height (genesis = 0).
    pub number: u64,
    /// Hash of the parent block ([`Hash256::ZERO`] for genesis).
    pub parent: Hash256,
    /// Logical timestamp (deterministic counter, not wall clock).
    pub timestamp: u64,
    /// Digest of the block's transactions.
    pub tx_root: Hash256,
    /// Digest of the block's receipts (commits execution results).
    pub receipts_root: Hash256,
    /// State root after executing this block.
    pub state_root: Hash256,
}

/// A block: header + ordered transactions + their receipts.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions in execution order.
    pub txs: Vec<Transaction>,
    /// One receipt per transaction.
    pub receipts: Vec<Receipt>,
}

impl Block {
    /// Deterministic digest of the transaction list: the Merkle root
    /// over the transaction hashes, so that per-transaction inclusion
    /// proofs ([`Block::prove_tx`]) anchor directly in the header.
    pub fn compute_tx_root(txs: &[Transaction]) -> Hash256 {
        Self::tx_root(&tx_hashes(txs))
    }

    /// [`Block::compute_tx_root`] over transaction hashes already in
    /// hand, so a block's transactions are hashed once.
    pub(crate) fn tx_root(hashes: &[Hash256]) -> Hash256 {
        MerkleTree::build(hashes).root()
    }

    /// The Merkle tree over this transaction list.
    pub fn merkle_tree(txs: &[Transaction]) -> MerkleTree {
        MerkleTree::build(&tx_hashes(txs))
    }

    /// Inclusion proof for the `index`-th transaction, verifiable
    /// against `header.tx_root` with only the header in hand.
    pub fn prove_tx(&self, index: usize) -> Option<MerkleProof> {
        Self::merkle_tree(&self.txs).prove(index)
    }

    /// Deterministic digest of the receipt list (sequential SHA-256
    /// over per-receipt digests).
    pub fn compute_receipts_root(receipts: &[Receipt]) -> Hash256 {
        let mut h = Sha256::new();
        for r in receipts {
            h.update(&r.digest().0);
        }
        Hash256(h.finalize())
    }

    /// The block hash (over the header).
    pub fn hash(&self) -> Hash256 {
        let mut buf = BytesMut::with_capacity(144);
        buf.put_u64(self.header.number);
        buf.put_slice(&self.header.parent.0);
        buf.put_u64(self.header.timestamp);
        buf.put_slice(&self.header.tx_root.0);
        buf.put_slice(&self.header.receipts_root.0);
        buf.put_slice(&self.header.state_root.0);
        let mut h = Sha256::new();
        h.update(&buf);
        Hash256(h.finalize())
    }
}

/// An owned block converts for [`crate::node::Node::apply_block`],
/// which then appends it without a copy.
impl From<Block> for Cow<'_, Block> {
    fn from(block: Block) -> Self {
        Cow::Owned(block)
    }
}

/// A borrowed block converts for [`crate::node::Node::apply_block`],
/// which copies it only once it is accepted.
impl<'a> From<&'a Block> for Cow<'a, Block> {
    fn from(block: &'a Block) -> Self {
        Cow::Borrowed(block)
    }
}

/// Chain-validation failures (tamper evidence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A block's `parent` field does not match the previous block's
    /// hash.
    BrokenLink {
        /// Height of the offending block.
        number: u64,
    },
    /// A block's `tx_root` does not match its transactions.
    TxRootMismatch {
        /// Height of the offending block.
        number: u64,
    },
    /// A block's `receipts_root` does not match its receipts.
    ReceiptsRootMismatch {
        /// Height of the offending block.
        number: u64,
    },
    /// Heights are not consecutive from zero.
    BadNumbering {
        /// Height of the offending block.
        number: u64,
        /// Expected height at this position.
        expected: u64,
    },
    /// Receipt count differs from transaction count.
    ReceiptMismatch {
        /// Height of the offending block.
        number: u64,
    },
    /// A receipt names a different transaction than the one at its
    /// position (a forged receipt for a transaction the block lacks).
    ReceiptTxMismatch {
        /// Height of the offending block.
        number: u64,
        /// Position of the first mismatched receipt.
        index: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BrokenLink { number } => {
                write!(f, "block {number} does not link to its parent hash")
            }
            ChainError::TxRootMismatch { number } => {
                write!(f, "block {number} transaction root mismatch")
            }
            ChainError::ReceiptsRootMismatch { number } => {
                write!(f, "block {number} receipts root mismatch")
            }
            ChainError::BadNumbering { number, expected } => {
                write!(f, "block numbered {number} where {expected} was expected")
            }
            ChainError::ReceiptMismatch { number } => {
                write!(f, "block {number} receipt count mismatch")
            }
            ChainError::ReceiptTxMismatch { number, index } => {
                write!(f, "block {number} receipt {index} is not for transaction {index}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// The transaction hashes of `txs`, in order: the tx-root Merkle
/// leaves and the keys receipts must carry.
pub(crate) fn tx_hashes(txs: &[Transaction]) -> Vec<Hash256> {
    txs.iter().map(Transaction::hash).collect()
}

/// Checks a block's self-commitments — tx root, receipts root, receipt
/// count, and that receipt `k` is for transaction `k` — hashing each
/// transaction once. Returns those hashes.
fn check_commitments(block: &Block) -> Result<Vec<Hash256>, ChainError> {
    let number = block.header.number;
    let hashes = tx_hashes(&block.txs);
    if block.header.tx_root != Block::tx_root(&hashes) {
        return Err(ChainError::TxRootMismatch { number });
    }
    if block.header.receipts_root != Block::compute_receipts_root(&block.receipts) {
        return Err(ChainError::ReceiptsRootMismatch { number });
    }
    if block.receipts.len() != block.txs.len() {
        return Err(ChainError::ReceiptMismatch { number });
    }
    if let Some(index) = block.receipts.iter().zip(&hashes).position(|(r, h)| r.tx_hash != *h) {
        return Err(ChainError::ReceiptTxMismatch { number, index });
    }
    Ok(hashes)
}

/// An append-only chain of blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Blockchain {
    blocks: Vec<Block>,
    /// `hashes[k]` is `blocks[k].hash()`, computed once on append, so
    /// the tip hash is a lookup.
    hashes: Vec<Hash256>,
    /// Transaction hash → `(height, position)` of its first occurrence,
    /// so receipt lookups and inclusion proofs are a map probe instead
    /// of a scan over every block.
    ///
    /// Both are maintained by `Blockchain::append`, the only way blocks
    /// enter a chain: through [`Blockchain::push`] for untrusted
    /// blocks, or directly from a [`crate::node::Node`] that has
    /// already checked the block's commitments.
    index: BTreeMap<Hash256, (usize, usize)>,
}

impl Blockchain {
    /// An empty chain (the node appends the genesis block itself).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks.
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chain holds no blocks yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Hash of the latest block, or [`Hash256::ZERO`] when empty.
    pub fn tip_hash(&self) -> Hash256 {
        self.hashes.last().copied().unwrap_or(Hash256::ZERO)
    }

    /// Hash of the block at `height`.
    pub fn block_hash(&self, height: usize) -> Option<Hash256> {
        self.hashes.get(height).copied()
    }

    /// The blocks in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Block at `height`.
    pub fn block(&self, height: usize) -> Option<&Block> {
        self.blocks.get(height)
    }

    /// Appends a block after validating its linkage and roots.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError`] (and leaves the chain unchanged) if the
    /// block does not extend the tip correctly.
    pub fn push(&mut self, block: Block) -> Result<(), ChainError> {
        let expected_number = self.blocks.len() as u64;
        if block.header.number != expected_number {
            return Err(ChainError::BadNumbering {
                number: block.header.number,
                expected: expected_number,
            });
        }
        if block.header.parent != self.tip_hash() {
            return Err(ChainError::BrokenLink { number: block.header.number });
        }
        let hashes = check_commitments(&block)?;
        self.append(block, hashes);
        Ok(())
    }

    /// Appends a block whose checks the caller has already made —
    /// height, parent, tx root, receipts root and that receipt `k` is
    /// for transaction `k` — given its transaction hashes. Returns the
    /// block hash, computed here once.
    pub(crate) fn append(&mut self, block: Block, tx_hashes: Vec<Hash256>) -> Hash256 {
        debug_assert_eq!(block.header.number, self.blocks.len() as u64);
        debug_assert_eq!(block.header.parent, self.tip_hash());
        debug_assert_eq!(check_commitments(&block).as_ref(), Ok(&tx_hashes));
        let height = self.blocks.len();
        for (position, hash) in tx_hashes.into_iter().enumerate() {
            self.index.entry(hash).or_insert((height, position));
        }
        let hash = block.hash();
        self.hashes.push(hash);
        self.blocks.push(block);
        hash
    }

    /// Re-validates the entire chain; any in-place mutation of a block
    /// is detected here.
    ///
    /// # Errors
    ///
    /// The first [`ChainError`] encountered walking from genesis.
    pub fn verify(&self) -> Result<(), ChainError> {
        let mut parent = Hash256::ZERO;
        for (i, block) in self.blocks.iter().enumerate() {
            if block.header.number != i as u64 {
                return Err(ChainError::BadNumbering {
                    number: block.header.number,
                    expected: i as u64,
                });
            }
            if block.header.parent != parent {
                return Err(ChainError::BrokenLink { number: block.header.number });
            }
            check_commitments(block)?;
            parent = block.hash();
        }
        Ok(())
    }

    /// Where a transaction first appears: `(block, position)`.
    fn locate(&self, tx_hash: Hash256) -> Option<(&Block, usize)> {
        let &(height, position) = self.index.get(&tx_hash)?;
        Some((self.blocks.get(height)?, position))
    }

    /// Finds the receipt of a transaction anywhere in the chain (its
    /// first occurrence, should the same transaction appear twice).
    pub fn receipt(&self, tx_hash: Hash256) -> Option<&Receipt> {
        let (block, position) = self.locate(tx_hash)?;
        block.receipts.get(position)
    }

    /// Produces a light-client inclusion proof for a transaction:
    /// `(block height, its header tx_root, the Merkle proof)`. An
    /// arbitrator holding only block headers can verify the disputed
    /// transaction was committed.
    pub fn prove_inclusion(&self, tx_hash: Hash256) -> Option<(u64, Hash256, MerkleProof)> {
        let (block, position) = self.locate(tx_hash)?;
        let proof = block.prove_tx(position)?;
        Some((block.header.number, block.header.tx_root, proof))
    }

    /// All logs whose event name matches, in chain order — the
    /// arbitration query of §III-F ("the recorded results can serve as
    /// a basis for arbitration").
    pub fn logs_by_event<'a>(&'a self, event: &'a str) -> impl Iterator<Item = &'a Log> + 'a {
        self.blocks
            .iter()
            .flat_map(|b| &b.receipts)
            .flat_map(|r| &r.logs)
            .filter(move |l| l.event == event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{ExecStatus, TxPayload};
    use crate::types::{Address, Wei};

    fn tx(nonce: u64) -> Transaction {
        Transaction {
            from: Address::from_name("a"),
            nonce,
            value: Wei(1),
            gas_limit: 21_000,
            payload: TxPayload::Transfer { to: Address::from_name("b") },
        }
    }

    fn receipt_for(t: &Transaction) -> Receipt {
        Receipt {
            tx_hash: t.hash(),
            status: ExecStatus::Success,
            gas_used: 21_000,
            logs: vec![],
            return_data: vec![],
        }
    }

    fn block(number: u64, parent: Hash256, txs: Vec<Transaction>) -> Block {
        let receipts: Vec<Receipt> = txs.iter().map(receipt_for).collect();
        let tx_root = Block::compute_tx_root(&txs);
        let receipts_root = Block::compute_receipts_root(&receipts);
        Block {
            header: BlockHeader {
                number,
                parent,
                timestamp: number,
                tx_root,
                receipts_root,
                state_root: Hash256::ZERO,
            },
            txs,
            receipts,
        }
    }

    #[test]
    fn push_and_verify_a_well_formed_chain() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let tip = chain.tip_hash();
        chain.push(block(1, tip, vec![tx(0)])).unwrap();
        let tip = chain.tip_hash();
        chain.push(block(2, tip, vec![tx(1), tx(2)])).unwrap();
        assert_eq!(chain.height(), 3);
        chain.verify().unwrap();
    }

    #[test]
    fn rejects_bad_parent_and_numbering() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let err = chain.push(block(1, Hash256::ZERO, vec![])).unwrap_err();
        assert!(matches!(err, ChainError::BrokenLink { number: 1 }));
        let err = chain.push(block(5, chain.tip_hash(), vec![])).unwrap_err();
        assert!(matches!(err, ChainError::BadNumbering { number: 5, expected: 1 }));
    }

    #[test]
    fn tampering_with_a_mined_tx_is_detected() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let tip = chain.tip_hash();
        chain.push(block(1, tip, vec![tx(0)])).unwrap();
        chain.verify().unwrap();
        // A malicious organization rewrites history: change the recorded
        // transfer amount in place.
        let mut tampered = chain.clone();
        tampered.blocks[1].txs[0].value = Wei(1_000_000);
        assert!(matches!(
            tampered.verify(),
            Err(ChainError::TxRootMismatch { number: 1 })
        ));
        // Rewriting the tx root too breaks the parent link of... nothing
        // here (tip block), so also tamper with an interior block.
        let tip = chain.tip_hash();
        chain.push(block(2, tip, vec![])).unwrap();
        let mut tampered = chain.clone();
        tampered.blocks[1].txs[0].value = Wei(9);
        tampered.blocks[1].header.tx_root = Block::compute_tx_root(&tampered.blocks[1].txs);
        // The receipt still names the original transaction, so the
        // rewrite is caught inside block 1 already.
        assert!(matches!(
            tampered.verify(),
            Err(ChainError::ReceiptTxMismatch { number: 1, index: 0 })
        ));
        // A forger who rewrites the receipt and its root as well still
        // breaks block 2's parent link.
        tampered.blocks[1].receipts[0] = receipt_for(&tampered.blocks[1].txs[0]);
        tampered.blocks[1].header.receipts_root =
            Block::compute_receipts_root(&tampered.blocks[1].receipts);
        assert!(matches!(
            tampered.verify(),
            Err(ChainError::BrokenLink { number: 2 })
        ));
    }

    #[test]
    fn receipt_lookup_and_event_query() {
        let mut chain = Blockchain::new();
        let t = tx(0);
        let h = t.hash();
        let mut b = block(0, Hash256::ZERO, vec![t]);
        b.receipts[0].logs.push(Log {
            contract: Address::ZERO,
            event: "PayoffTransferred".into(),
            fields: vec![],
        });
        // Receipts changed after assembly: recommit them to the header.
        b.header.receipts_root = Block::compute_receipts_root(&b.receipts);
        chain.push(b).unwrap();
        assert!(chain.receipt(h).is_some());
        assert_eq!(chain.logs_by_event("PayoffTransferred").count(), 1);
        assert_eq!(chain.logs_by_event("Missing").count(), 0);
    }

    #[test]
    fn inclusion_proofs_verify_against_headers_only() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let tip = chain.tip_hash();
        let txs = vec![tx(0), tx(1), tx(2)];
        let wanted = txs[1].hash();
        chain.push(block(1, tip, txs)).unwrap();
        let (height, root, proof) = chain.prove_inclusion(wanted).unwrap();
        assert_eq!(height, 1);
        assert!(proof.verify(wanted, root), "proof must verify against the header root");
        // A different tx hash must not verify with this proof.
        assert!(!proof.verify(tx(7).hash(), root));
        // Unknown hashes yield no proof.
        assert!(chain.prove_inclusion(tx(9).hash()).is_none());
    }

    /// The pre-index lookups, kept as the reference the index must
    /// reproduce: the first receipt carrying the hash, and the first
    /// transaction hashing to it.
    fn scan_receipt(chain: &Blockchain, h: Hash256) -> Option<&Receipt> {
        chain.blocks.iter().flat_map(|b| &b.receipts).find(|r| r.tx_hash == h)
    }

    fn scan_inclusion(chain: &Blockchain, h: Hash256) -> Option<(u64, Hash256, MerkleProof)> {
        chain.blocks.iter().find_map(|b| {
            let idx = b.txs.iter().position(|t| t.hash() == h)?;
            Some((b.header.number, b.header.tx_root, b.prove_tx(idx)?))
        })
    }

    /// Genesis plus three blocks; `tx(1)` is mined twice, and its second
    /// receipt differs so a lookup that picks it is caught.
    fn chain_with_a_duplicate() -> Blockchain {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        for txs in [vec![tx(0), tx(1)], vec![tx(2)], vec![tx(3), tx(1), tx(4)]] {
            let mut b = block(chain.height() as u64, chain.tip_hash(), txs);
            if b.header.number == 3 {
                b.receipts[1].gas_used = 1;
                b.header.receipts_root = Block::compute_receipts_root(&b.receipts);
            }
            chain.push(b).unwrap();
        }
        chain
    }

    fn assert_lookups_match_the_scan(chain: &Blockchain) {
        for n in 0..6 {
            let h = tx(n).hash();
            assert_eq!(chain.receipt(h), scan_receipt(chain, h), "receipt of tx({n})");
            assert_eq!(chain.prove_inclusion(h), scan_inclusion(chain, h), "proof of tx({n})");
        }
    }

    #[test]
    fn duplicate_tx_hashes_resolve_to_their_first_occurrence() {
        let chain = chain_with_a_duplicate();
        let h = tx(1).hash();
        assert_eq!(chain.receipt(h).unwrap().gas_used, 21_000, "first receipt wins");
        let (height, root, proof) = chain.prove_inclusion(h).unwrap();
        assert_eq!(height, 1);
        assert!(proof.verify(h, root));
        assert_lookups_match_the_scan(&chain);
        assert!(chain.receipt(tx(5).hash()).is_none());
    }

    #[test]
    fn decoded_chains_rebuild_the_receipt_index() {
        let chain = chain_with_a_duplicate();
        let decoded = crate::codec::decode_chain(&crate::codec::encode_chain(&chain)).unwrap();
        assert_eq!(decoded, chain, "the index is a function of the blocks");
        assert_lookups_match_the_scan(&decoded);
    }

    /// Regression: a receipt for a transaction the block does not hold.
    /// The roots and the count are all consistent, so before the
    /// binding check `push`, `decode_chain` and `verify` accepted the
    /// block, and `receipt` served a `Success` receipt for a transfer
    /// that was never mined — false arbitration evidence.
    #[test]
    fn receipts_for_foreign_transactions_are_rejected() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let mut forged = block(1, chain.tip_hash(), vec![tx(0)]);
        forged.receipts[0] = receipt_for(&tx(7));
        forged.header.receipts_root = Block::compute_receipts_root(&forged.receipts);
        let want = ChainError::ReceiptTxMismatch { number: 1, index: 0 };

        assert_eq!(chain.clone().push(forged.clone()), Err(want.clone()));

        let mut exported = chain.clone();
        exported.blocks.push(forged);
        assert_eq!(exported.verify(), Err(want));
        let bytes = crate::codec::encode_chain(&exported);
        assert!(crate::codec::decode_chain(&bytes).is_err());
    }

    #[test]
    fn receipt_count_must_match() {
        let mut chain = Blockchain::new();
        let mut b = block(0, Hash256::ZERO, vec![tx(0)]);
        b.receipts.clear();
        b.header.receipts_root = Block::compute_receipts_root(&b.receipts);
        assert!(matches!(chain.push(b), Err(ChainError::ReceiptMismatch { number: 0 })));
        // Without recommitting, the receipts-root check fires first.
        let mut b = block(0, Hash256::ZERO, vec![tx(0)]);
        b.receipts.clear();
        assert!(matches!(
            chain.push(b),
            Err(ChainError::ReceiptsRootMismatch { number: 0 })
        ));
    }
}
