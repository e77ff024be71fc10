//! The consensus-core probe of the traced runs: DAG-Rider in the simulator.
//!
//! Every process runs the real engine over BrachaRbc behind the
//! simulator's `Actor` trait; there are no sockets, workers or store, so
//! the run's CPU is engine, DAG/reachability, ordering, GC, Bracha, coin
//! DLEQ and codec. Counts (ordered vertices, messages, bytes) are a pure
//! function of the seed.

use std::time::{Duration, Instant};

use dagrider_core::{CommitEvent, DurableEvent, NodeConfig};
use dagrider_crypto::deal_coin_keys;
use dagrider_rbc::BrachaRbc;
use dagrider_simactor::DagRiderNode;
use dagrider_simnet::{Actor, Context, Simulation, UniformScheduler};
use dagrider_types::{Block, Committee, ProcessId, SeqNum, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Spans;

/// Shape of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Committee size.
    pub n: usize,
    /// Rounds each process proposes (`max_round`).
    pub rounds: u64,
    /// Inline transactions per block.
    pub txs_per_block: usize,
    /// Bytes per transaction.
    pub tx_bytes: usize,
    /// Engine garbage-collection depth.
    pub gc_depth: u64,
    /// UniformScheduler delay range, in ticks.
    pub delay: (u64, u64),
}

impl SimConfig {
    /// The probe, `sim_core_n13`: n = 13, 8 × 128 B inline blocks, `gc_depth` 64 and
    /// delays in [1, 3], run to round 96 so GC runs at steady state for
    /// the last 30-odd rounds. `short` stops at round 72, the fewest that
    /// still garbage-collects (smoke test).
    pub fn core_n13(short: bool) -> Self {
        Self {
            n: 13,
            rounds: if short { 72 } else { 96 },
            txs_per_block: 8,
            tx_bytes: 128,
            gc_depth: 64,
            delay: (1, 3),
        }
    }

    /// One-line description for the result record.
    pub fn describe(&self) -> String {
        format!(
            "n={} rounds={} block={}x{}B gc_depth={} delay=[{},{}] rbc=bracha edges=dense",
            self.n,
            self.rounds,
            self.txs_per_block,
            self.tx_bytes,
            self.gc_depth,
            self.delay.0,
            self.delay.1
        )
    }
}

/// A simulated process: the engine's own actor adapter, optionally timed
/// per callback and (for process 0) recording its durable-event groups.
struct Probe {
    node: DagRiderNode<BrachaRbc>,
    spans: Spans,
    durable: Option<Vec<Vec<DurableEvent>>>,
}

impl Probe {
    fn timed(&mut self, name: &'static str, f: impl FnOnce(&mut DagRiderNode<BrachaRbc>)) {
        if self.spans.enabled() {
            let start = Instant::now();
            f(&mut self.node);
            self.spans.record(name, 0, start, Instant::now());
        } else {
            f(&mut self.node);
        }
        if let Some(groups) = self.durable.as_mut() {
            let group = self.node.engine_mut().drain_durable_events();
            if !group.is_empty() {
                groups.push(group);
            }
        }
    }
}

impl Actor for Probe {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.timed("engine.init", |node| node.init(ctx));
    }

    fn on_message(&mut self, from: ProcessId, payload: &[u8], ctx: &mut Context<'_>) {
        // The `NodeMessage` envelope tag: 0 = reliable broadcast, 1 = coin.
        let name = match payload.first() {
            Some(0) => "engine.rbc",
            Some(1) => "engine.coin",
            _ => "engine.other",
        };
        self.timed(name, |node| node.on_message(from, payload, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        self.timed("engine.timer", |node| node.on_timer(tag, ctx));
    }
}

/// What one simulated run measured.
#[derive(Debug)]
pub struct SimRun {
    /// Wall time of the simulation itself.
    pub wall: Duration,
    /// Vertices in process 0's ordered log.
    pub ordered_vertices: usize,
    /// Transactions in process 0's ordered log.
    pub ordered_txs: usize,
    /// Messages sent by all processes.
    pub messages: u64,
    /// Bytes sent by all processes.
    pub bytes: u64,
    /// a_bcast → a_deliver of every process's own vertices, in §3
    /// asynchronous time units.
    pub latency_tu: Vec<f64>,
    /// Processes whose ordered log disagrees with process 0's on their
    /// common prefix.
    pub disagreements: usize,
    /// Process 0's per-wave outcomes.
    pub commits: Vec<CommitEvent>,
    /// Per-callback spans of every actor (traced runs only).
    pub spans: Spans,
    /// Process 0's durable events, one group per engine turn (traced runs only).
    pub durable: Vec<Vec<DurableEvent>>,
}

impl SimRun {
    /// The counts that must repeat exactly for a given seed.
    pub fn counts(&self) -> (usize, usize, u64, u64) {
        (self.ordered_vertices, self.ordered_txs, self.messages, self.bytes)
    }

    /// Total time the actors spent in callbacks named `name`, and the
    /// per-call durations in µs.
    pub fn calls(&self, name: &str) -> (Duration, Vec<f64>) {
        let per_call: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (Duration::from_secs_f64(per_call.iter().sum::<f64>() / 1e6), per_call)
    }
}

/// Deals keys and builds the committee's engines, with every process's
/// blocks pre-enqueued (the workload's inputs, derived from `seed`).
fn build(cfg: &SimConfig, seed: u64) -> (Committee, Vec<DagRiderNode<BrachaRbc>>) {
    let committee = Committee::new(cfg.n).expect("committee size");
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
    let config = NodeConfig::default().with_max_round(cfg.rounds).with_gc_depth(cfg.gc_depth);
    let mut nodes: Vec<DagRiderNode<BrachaRbc>> = committee
        .members()
        .zip(keys)
        .map(|(p, k)| DagRiderNode::new(committee, p, k, config.clone()))
        .collect();
    for node in &mut nodes {
        let me = node.me();
        for r in 1..=cfg.rounds {
            let txs: Vec<Transaction> = (0..cfg.txs_per_block)
                .map(|i| {
                    let tag =
                        seed.rotate_left(32) ^ (u64::from(me.index()) << 40) ^ (r << 16) ^ i as u64;
                    Transaction::synthetic(tag, cfg.tx_bytes)
                })
                .collect();
            node.a_bcast(Block::new(me, SeqNum::new(r), txs));
        }
    }
    (committee, nodes)
}

/// Runs the workload once. `traced` times every actor callback and
/// records process 0's durable events.
pub fn run(cfg: &SimConfig, seed: u64, traced: bool) -> SimRun {
    let (committee, nodes) = build(cfg, seed);
    let actors: Vec<Probe> = nodes
        .into_iter()
        .map(|mut node| {
            let durable = (traced && node.me() == ProcessId::new(0)).then(|| {
                node.engine_mut().set_durable_recording(true);
                Vec::new()
            });
            Probe { node, spans: Spans::new(traced), durable }
        })
        .collect();
    let mut sim =
        Simulation::new(committee, actors, UniformScheduler::new(cfg.delay.0, cfg.delay.1), seed);

    let start = Instant::now();
    sim.run();
    let wall = start.elapsed();

    let max_delay = sim.metrics().max_correct_delay().max(1) as f64;
    let latency_tu: Vec<f64> = sim
        .actors()
        .iter()
        .flat_map(|actor| actor.node.engine().own_vertex_latencies())
        .map(|(_, ticks)| ticks as f64 / max_delay)
        .collect();

    let logs: Vec<_> = sim.actors().iter().map(|a| a.node.engine().ordered()).collect();
    let disagreements = logs[1..]
        .iter()
        .filter(|log| {
            log.iter().zip(logs[0]).any(|(a, b)| a.vertex != b.vertex || a.block != b.block)
        })
        .count();

    let p0 = &sim.actors()[0].node;
    let mut spans = Spans::new(traced);
    let mut durable = Vec::new();
    let ordered_vertices = p0.ordered().len();
    let ordered_txs = p0.ordered().iter().map(|o| o.block.len()).sum();
    let commits = p0.commits().to_vec();
    let messages = sim.metrics().messages_sent();
    let bytes = sim.metrics().bytes_sent();
    for i in 0..committee.n() {
        let actor = sim.actor_mut(ProcessId::new(i as u32));
        spans.absorb(std::mem::replace(&mut actor.spans, Spans::new(false)));
        durable.extend(actor.durable.take().unwrap_or_default());
    }
    SimRun {
        wall,
        ordered_vertices,
        ordered_txs,
        messages,
        bytes,
        latency_tu,
        disagreements,
        commits,
        spans,
        durable,
    }
}
