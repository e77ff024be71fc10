//! Layer timings measured from outside, on inputs captured from a
//! simulated run: every call goes through a layer's public API (`Dag`,
//! `Ordering`, `BrachaRbc`, the coin keys, the codec, SHA-256 and
//! `DurableStore`), timed by the benchmark itself.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use dagrider_core::{
    batch_digest, CommitEvent, Dag, DurableEvent, Ordering, VertexPayload, WaveOutcome,
};
use dagrider_crypto::deal_coin_keys;
use dagrider_rbc::{BrachaRbc, RbcAction, ReliableBroadcast};
use dagrider_store::DurableStore;
use dagrider_types::{
    Batch, Committee, Decode, Encode, ProcessId, Round, Time, Transaction, Vertex, Wave,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Spans;
use crate::stats::{median, quantile, us};

/// Per-layer results, by metric name.
pub type Layer = Vec<(&'static str, f64, &'static str)>;

/// Garbage-collection depth used by the replay (the runtime's own).
const GC_DEPTH: u64 = 64;

/// Re-inserts `vertices` (process 0's delivered vertices) in round order
/// into a fresh `Dag`, pruning at depth 64, and interprets every wave with
/// `Ordering` using the leaders process 0's coin elected.
pub fn dag_and_ordering(
    committee: Committee,
    vertices: &[Vertex],
    commits: &[CommitEvent],
    spans: &mut Spans,
) -> Layer {
    let mut sorted: Vec<&Vertex> = vertices.iter().collect();
    sorted.sort_by_key(|v| (v.round(), v.source()));
    let mut dag = Dag::new(committee);
    let mut ordering = Ordering::new(&dag);
    let (mut insert_us, mut prune_us, mut wave_us) = (Vec::new(), Vec::new(), Vec::new());
    let leader = |w: u64| commits.iter().find(|c| c.wave.number() == w).map(|c| c.leader);
    let mut i = 0;
    while i < sorted.len() {
        let round = sorted[i].round();
        while i < sorted.len() && sorted[i].round() == round {
            let start = Instant::now();
            dag.insert(sorted[i].clone());
            let end = Instant::now();
            insert_us.push(us(end - start));
            spans.record("dag.insert", 0, start, end);
            i += 1;
        }
        let r = round.number();
        if r.is_multiple_of(4) {
            let wave = Wave::new(r / 4);
            let start = Instant::now();
            ordering.on_wave_complete(wave, &dag, Time::new(r));
            if let Some(leader) = leader(wave.number()) {
                ordering.on_leader(wave, leader, &dag, Time::new(r));
            }
            let end = Instant::now();
            wave_us.push(us(end - start));
            spans.record("ordering.wave", 0, start, end);
        }
        if r > GC_DEPTH && r.is_multiple_of(4) {
            let keep_from = Round::new(r - GC_DEPTH);
            let start = Instant::now();
            dag.prune_below(keep_from);
            ordering.prune_delivered_below(keep_from);
            let end = Instant::now();
            prune_us.push(us(end - start));
            spans.record("dag.prune", 0, start, end);
        }
    }
    let waves = commits.len().max(1) as f64;
    let direct = commits.iter().filter(|c| c.outcome == WaveOutcome::Direct).count() as f64;
    vec![
        ("dag.insert_us_p50", quantile(&insert_us, 0.5), "us"),
        ("dag.insert_us_p99", quantile(&insert_us, 0.99), "us"),
        ("dag.prune_us", median(&prune_us), "us"),
        ("ordering.wave_us", median(&wave_us), "us"),
        ("ordering.direct_commit_ratio", direct / waves, "ratio"),
    ]
}

/// `n` in-memory `BrachaRbc` endpoints deliver each payload (broadcast by
/// process 0, messages routed in memory until quiescent); µs per payload.
pub fn bracha(committee: Committee, payloads: &[Vec<u8>], spans: &mut Spans) -> Layer {
    let n = committee.n();
    let mut rbcs: Vec<BrachaRbc> =
        committee.members().map(|p| BrachaRbc::new(committee, p, 0)).collect();
    let mut rng = StdRng::seed_from_u64(0);
    let mut per_vertex = Vec::new();
    for (r, payload) in payloads.iter().enumerate() {
        let round = Round::new(r as u64 + 1);
        let start = Instant::now();
        let mut wire = VecDeque::new();
        let mut delivered = 0;
        let mut route = |from: ProcessId, actions: Vec<RbcAction<_>>, wire: &mut VecDeque<_>| {
            for action in actions {
                match action {
                    RbcAction::Send(to, msg) => wire.push_back((from, to, msg)),
                    RbcAction::Deliver(_) => delivered += 1,
                }
            }
        };
        let out = rbcs[0].rbcast(payload.clone(), round, &mut rng);
        route(ProcessId::new(0), out, &mut wire);
        while let Some((from, to, msg)) = wire.pop_front() {
            let out = rbcs[to.as_usize()].on_message(from, msg, &mut rng);
            route(to, out, &mut wire);
        }
        let end = Instant::now();
        assert_eq!(delivered, n, "every endpoint delivers the broadcast");
        per_vertex.push(us(end - start));
        spans.record("rbc.bracha", 0, start, end);
    }
    vec![("rbc.bracha_us_per_vertex", median(&per_vertex), "us")]
}

/// `verify` per share and `verify_batch` per share over all `n` shares of
/// one coin instance.
pub fn coin(committee: Committee, seed: u64, instances: u64, spans: &mut Spans) -> Layer {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = deal_coin_keys(&committee, &mut rng);
    let public = keys[0].public().clone();
    let (mut single, mut batched) = (Vec::new(), Vec::new());
    for instance in 1..=instances {
        let shares: Vec<_> = keys.iter().map(|k| k.share(instance, &mut rng)).collect();
        for share in &shares {
            let start = Instant::now();
            let ok = public.verify(share).is_ok();
            let end = Instant::now();
            assert!(ok, "honest coin share verifies");
            single.push(us(end - start));
            spans.record("coin.verify", 0, start, end);
        }
        let start = Instant::now();
        let ok = public.verify_batch(&shares).iter().all(Result::is_ok);
        let end = Instant::now();
        assert!(ok, "honest coin shares verify as a batch");
        batched.push(us(end - start) / shares.len() as f64);
        spans.record("coin.verify_batch", 0, start, end);
    }
    vec![
        ("coin.verify_us", median(&single), "us"),
        ("coin.verify_batch_us_per_share", median(&batched), "us"),
    ]
}

/// Encode and decode of captured vertex payloads, µs each.
pub fn codec(vertices: &[Vertex], spans: &mut Spans) -> (Layer, Vec<Vec<u8>>) {
    let (mut enc, mut dec, mut encoded) = (Vec::new(), Vec::new(), Vec::new());
    for vertex in vertices {
        let payload = VertexPayload { vertex: vertex.clone(), coin_shares: Vec::new() };
        let start = Instant::now();
        let bytes = std::hint::black_box(&payload).to_bytes();
        let mid = Instant::now();
        let back = VertexPayload::from_bytes(std::hint::black_box(&bytes));
        let end = Instant::now();
        assert!(back.is_ok_and(|b| b == payload), "vertex payload round-trips");
        enc.push(us(mid - start));
        dec.push(us(end - mid));
        spans.record("codec.encode", 0, start, mid);
        spans.record("codec.decode", 0, mid, end);
        encoded.push(bytes);
    }
    let layer = vec![
        ("codec.vertex_encode_us", median(&enc), "us"),
        ("codec.vertex_decode_us", median(&dec), "us"),
    ];
    (layer, encoded)
}

/// SHA-256 batch digests of 16 × 4 KiB transactions, MB/s.
pub fn sha256(seed: u64, batches: usize, spans: &mut Spans) -> Layer {
    let batch = Batch::new(
        ProcessId::new(0),
        0,
        (0..16).map(|i| Transaction::synthetic(seed ^ i, 4096)).collect::<Vec<_>>(),
    );
    let bytes = batch.to_bytes().len() as f64;
    let mut rates = Vec::new();
    for _ in 0..batches {
        let start = Instant::now();
        std::hint::black_box(batch_digest(std::hint::black_box(&batch)));
        let end = Instant::now();
        rates.push(bytes / (end - start).as_secs_f64() / 1e6);
        spans.record("sha256.batch", 0, start, end);
    }
    vec![("sha256.mb_per_s", median(&rates), "MB/s")]
}

/// `DurableStore::append` of each captured group of durable events, then
/// `commit`, under the default fsync policy, in a scratch directory; µs per
/// group.
pub fn store(
    groups: &[Vec<DurableEvent>],
    dir: &Path,
    spans: &mut Spans,
) -> std::io::Result<Layer> {
    let policy = dagrider_net::StoreConfig::new(dir.to_path_buf()).fsync;
    let (mut store, _) = DurableStore::open(dir, policy)?;
    let mut commit_us = Vec::new();
    for group in groups {
        let start = Instant::now();
        for event in group {
            store.append(event)?;
        }
        store.commit()?;
        let end = Instant::now();
        commit_us.push(us(end - start));
        spans.record("store.commit", 0, start, end);
    }
    store.sync()?;
    Ok(vec![
        ("store.commit_us_p50", quantile(&commit_us, 0.5), "us"),
        ("store.commit_us_p99", quantile(&commit_us, 0.99), "us"),
    ])
}
