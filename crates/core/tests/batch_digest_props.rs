//! The streaming [`batch_digest`] hashes exactly the bytes of the batch's
//! canonical encoding: it must equal SHA-256 over `batch.to_bytes()` for
//! every batch, including the shapes where a varint changes width.

use dagrider_core::batch_digest;
use dagrider_crypto::sha256;
use dagrider_types::{Batch, Encode, ProcessId, Transaction};
use proptest::prelude::*;

/// Transaction lengths on both sides of the one/two and two/three byte
/// varint boundaries, plus the empty payload.
const BOUNDARY_LENS: [usize; 5] = [0, 127, 128, 16_383, 16_384];

/// The digest of the materialized encoding — what the streaming digest
/// must reproduce.
fn encoded_digest(batch: &Batch) -> [u8; 32] {
    *sha256(batch.to_bytes()).as_bytes()
}

fn make_batch(creator: u32, worker: u32, lens: &[usize]) -> Batch {
    let txs: Vec<Transaction> =
        lens.iter().enumerate().map(|(i, &len)| Transaction::synthetic(i as u64, len)).collect();
    Batch::new(ProcessId::new(creator), worker, txs)
}

#[test]
fn boundary_batches_digest_their_encoding() {
    let mut shapes: Vec<Vec<usize>> = vec![Vec::new(), vec![0], vec![0, 0, 0]];
    shapes.extend(BOUNDARY_LENS.iter().map(|&len| vec![len]));
    shapes.push(BOUNDARY_LENS.to_vec());
    // 127 and 128 transactions: the count varint itself changes width.
    shapes.push(vec![1; 127]);
    shapes.push(vec![1; 128]);
    for lens in &shapes {
        for (creator, worker) in [(0, 0), (3, 127), (128, 128), (u32::MAX, u32::MAX)] {
            let batch = make_batch(creator, worker, lens);
            assert_eq!(
                batch_digest(&batch).as_bytes(),
                &encoded_digest(&batch),
                "creator {creator}, worker {worker}, lengths {lens:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn streaming_digest_equals_the_encoded_digest(
        ids in (0u8..4, any::<u32>()),
        txs in proptest::collection::vec((0usize..16, 0usize..300), 0..10),
    ) {
        // A quarter of the ids and about a third of the lengths are
        // pinned to a varint boundary; the rest are arbitrary.
        let worker = match ids.0 {
            0 => u32::MAX,
            1 => 128,
            _ => ids.1,
        };
        let lens: Vec<usize> = txs
            .iter()
            .map(|&(class, len)| BOUNDARY_LENS.get(class).copied().unwrap_or(len))
            .collect();
        let batch = make_batch(ids.1, worker, &lens);
        prop_assert_eq!(batch_digest(&batch).as_bytes(), &encoded_digest(&batch));
    }
}
