//! Client payload: transactions and the blocks that batch them.

use std::fmt;

use bytes::Bytes;

use crate::codec::{Decode, DecodeError, Encode};
use crate::{ProcessId, SeqNum};

/// An opaque client transaction.
///
/// The protocol never inspects transaction contents (§3: validation belongs
/// to the execution engine above BAB); it only moves bytes. The payload size
/// is what the communication-complexity experiments meter.
///
/// The payload is shared, not owned: `Clone` is a reference-count bump,
/// so the batch store, the engine's batch map, the ordered log and every
/// published copy of it hold one allocation per transaction. Equality,
/// ordering and hashing compare contents, exactly as for a `Vec<u8>`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Transaction(Bytes);

impl Transaction {
    /// Wraps raw payload bytes as a transaction. A `Vec<u8>` is adopted
    /// without copying.
    pub fn new(payload: impl Into<Vec<u8>>) -> Self {
        Self(Bytes::from(payload.into()))
    }

    /// A deterministic synthetic transaction of `size` bytes, used by the
    /// workload generators. The `tag` is mixed into every byte so distinct
    /// transactions have distinct contents.
    pub fn synthetic(tag: u64, size: usize) -> Self {
        let mut payload = Vec::with_capacity(size);
        let mut state = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for _ in 0..size {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            payload.push((state & 0xff) as u8);
        }
        Self::new(payload)
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Transaction").field(&self.payload()).finish()
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx({} bytes)", self.0.len())
    }
}

impl From<Vec<u8>> for Transaction {
    fn from(payload: Vec<u8>) -> Self {
        Self::new(payload)
    }
}

impl AsRef<[u8]> for Transaction {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Encode for Transaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        crate::codec::encode_bytes(&self.0, buf);
    }

    fn encoded_len(&self) -> usize {
        crate::codec::bytes_encoded_len(&self.0)
    }
}

impl Decode for Transaction {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self::new(crate::codec::decode_bytes(buf)?))
    }
}

/// A block of transactions, the unit a process atomically broadcasts
/// (`a_bcast(b, r)`, §3) and the payload of one DAG vertex (Algorithm 1:
/// `v.block`).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Block {
    proposer: ProcessId,
    seq: SeqNum,
    transactions: Vec<Transaction>,
}

impl Block {
    /// Creates a block proposed by `proposer` with sequence number `seq`.
    pub fn new(
        proposer: ProcessId,
        seq: SeqNum,
        transactions: impl Into<Vec<Transaction>>,
    ) -> Self {
        Self { proposer, seq, transactions: transactions.into() }
    }

    /// An empty block, used when a process has no pending client payload
    /// but must still advance the DAG.
    pub fn empty(proposer: ProcessId, seq: SeqNum) -> Self {
        Self::new(proposer, seq, Vec::new())
    }

    /// The process that proposed this block.
    pub const fn proposer(&self) -> ProcessId {
        self.proposer
    }

    /// The proposer-local sequence number (the `r` of `a_bcast(b, r)`).
    pub const fn seq(&self) -> SeqNum {
        self.seq
    }

    /// The batched transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Total payload bytes across all transactions.
    pub fn payload_bytes(&self) -> usize {
        self.transactions.iter().map(Transaction::len).sum()
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block({}{}: {} txs, {} bytes)",
            self.proposer,
            self.seq,
            self.len(),
            self.payload_bytes()
        )
    }
}

impl Encode for Block {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.proposer.encode(buf);
        self.seq.encode(buf);
        self.transactions.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.proposer.encoded_len() + self.seq.encoded_len() + self.transactions.encoded_len()
    }
}

impl Decode for Block {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            proposer: ProcessId::decode(buf)?,
            seq: SeqNum::decode(buf)?,
            transactions: Vec::<Transaction>::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_transactions_are_deterministic_and_distinct() {
        let a = Transaction::synthetic(1, 64);
        let b = Transaction::synthetic(1, 64);
        let c = Transaction::synthetic(2, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn clones_share_the_payload_allocation() {
        let a = Transaction::synthetic(3, 4096);
        let b = a.clone();
        assert_eq!(a.payload().as_ptr(), b.payload().as_ptr());
        let v = vec![7u8; 64];
        let ptr = v.as_ptr();
        assert_eq!(Transaction::from(v).payload().as_ptr(), ptr, "a Vec is adopted, not copied");
    }

    #[test]
    fn debug_shows_the_payload_bytes() {
        assert_eq!(format!("{:?}", Transaction::new(vec![1, 2])), "Transaction([1, 2])");
    }

    #[test]
    fn block_accounts_payload_bytes() {
        let txs = vec![Transaction::synthetic(0, 10), Transaction::synthetic(1, 22)];
        let block = Block::new(ProcessId::new(0), SeqNum::new(1), txs);
        assert_eq!(block.len(), 2);
        assert_eq!(block.payload_bytes(), 32);
        assert!(!block.is_empty());
    }

    #[test]
    fn empty_block() {
        let block = Block::empty(ProcessId::new(3), SeqNum::new(9));
        assert!(block.is_empty());
        assert_eq!(block.payload_bytes(), 0);
        assert_eq!(block.proposer(), ProcessId::new(3));
        assert_eq!(block.seq(), SeqNum::new(9));
    }

    #[test]
    fn block_codec_roundtrip() {
        let block = Block::new(
            ProcessId::new(2),
            SeqNum::new(7),
            vec![Transaction::synthetic(5, 17), Transaction::new(vec![])],
        );
        let bytes = block.to_bytes();
        assert_eq!(bytes.len(), block.encoded_len());
        assert_eq!(Block::from_bytes(&bytes).unwrap(), block);
    }

    #[test]
    fn encoding_overhead_is_small() {
        // A block's wire size should be payload + O(1) bytes per tx.
        let txs: Vec<_> = (0..50).map(|i| Transaction::synthetic(i, 100)).collect();
        let block = Block::new(ProcessId::new(0), SeqNum::new(0), txs);
        let overhead = block.encoded_len() - block.payload_bytes();
        assert!(overhead < 50 * 4 + 16, "overhead {overhead} too large");
    }
}
