//! The TCP workloads: an in-process n = 4 localhost cluster of `NetNode`s
//! driven over the client wire protocol by a single-threaded generator.
//!
//! The generator owns at most `nproc` client connections (one process,
//! one thread), speaks `ClientHello` / `ClientSubscribe` /
//! `ClientSubmit`, and reads back `ClientSubmitAck`, `ClientReject` and
//! `ClientOrdered`. It runs either an open loop (a fixed schedule of
//! submissions; each latency is timed from the *scheduled* send time, so
//! a stall also delays every submission due during it) or a closed loop
//! (a fixed number in flight per connection).
//!
//! While it runs it polls every node's ordered log through
//! `NetNode::ordered_from`, fingerprints each ordered vertex, and counts
//! every transaction tag in node 0's log, so the run can check prefix
//! agreement and exactly-once ordering without holding the logs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dagrider_core::NodeConfig;
use dagrider_crypto::deal_coin_keys;
use dagrider_net::{Fill, FrameReader, NetConfig, NetNode, StoreConfig, WireMsg};
use dagrider_rbc::BrachaRbc;
use dagrider_types::{Committee, Decode, Encode, ProcessId, Transaction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Spans;
use crate::stats::{median, ms, quantile};

/// Committee size of the TCP cluster.
const NODES: usize = 4;
/// How often the generator reads the nodes' ordered logs.
const POLL_EVERY: Duration = Duration::from_millis(100);

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Submissions on a fixed schedule, `rate` per second in total.
    Open {
        /// Offered transactions per second, across all connections.
        rate: f64,
    },
    /// `depth` submissions in flight per connection.
    Closed {
        /// In-flight submissions per connection.
        depth: usize,
    },
}

/// Shape of one TCP run.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Bytes per transaction (the first 8 carry the submission's tag).
    pub tx_size: usize,
    /// Whether each node runs the durable store (default fsync policy).
    pub store: bool,
    /// Offered load.
    pub load: Load,
    /// Client connections (at most `nproc`).
    pub connections: usize,
    /// Load offered before the measured window, excluded from results.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Bounded grace after the window for outstanding submissions to order.
    pub drain: Duration,
    /// Cluster start-ups timed for `setup_s` (the last one serves the load).
    pub setup_reps: usize,
    /// Read peak RSS once node 0 has ordered this many transactions
    /// (a fixed amount of work); `None` reads it at the end of the run.
    pub rss_at_txs: Option<u64>,
}

impl TcpConfig {
    /// One-line description for the result record.
    pub fn describe(&self) -> String {
        let load = match self.load {
            Load::Open { rate } => format!("open-loop rate={rate}/s"),
            Load::Closed { depth } => format!("closed-loop depth={depth}/connection"),
        };
        format!(
            "n={NODES} rbc=bracha workers=1 gc_depth=64 store={} tx={}B {load} connections={} \
             warmup={:?} window={:?} drain={:?} setup_reps={}",
            if self.store { "default-fsync" } else { "none" },
            self.tx_size,
            self.connections,
            self.warmup,
            self.window,
            self.drain,
            self.setup_reps
        )
    }
}

/// Node-side counters read through `NetNode`'s public accessors.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeStats {
    /// Submissions admitted, summed over nodes.
    pub accepted: u64,
    /// Submissions shed at admission, summed over nodes.
    pub shed: u64,
    /// Deepest client admission queue on any node.
    pub queue_high_water: u64,
    /// Outbound frames dropped to queue overflow, summed over nodes.
    pub dropped_frames: u64,
    /// Largest verification batch on any node.
    pub verify_depth_max: u64,
    /// Coin shares rejected for bad proofs, summed over nodes.
    pub rejected_shares: u64,
    /// Node 0's stored batch payload bytes.
    pub batch_bytes: u64,
    /// Node 0's store directory size after shutdown.
    pub store_bytes: u64,
}

/// What one TCP run measured.
#[derive(Debug)]
pub struct TcpRun {
    /// Cluster start → all nodes live, one per setup repetition.
    pub setups: Vec<Duration>,
    /// Node 0's ordered transactions per second over the window.
    pub tx_per_s: f64,
    /// Scheduled send → `ClientOrdered` of measured submissions, ms.
    pub latency_ms: Vec<f64>,
    /// Actual send → `ClientSubmitAck`, ms.
    pub ack_ms: Vec<f64>,
    /// `ClientSubmitAck` → `ClientOrdered`, ms.
    pub after_ack_ms: Vec<f64>,
    /// Actual send − scheduled send, ms.
    pub lag_ms: Vec<f64>,
    /// Measured submissions.
    pub attempted: u64,
    /// Measured submissions rejected, lost with their connection, or not
    /// ordered by the end of the drain.
    pub failed: u64,
    /// `failed` by cause: rejected, lost with a dead connection, acked but
    /// not notified ordered by the end of the drain, never acked.
    pub failed_by_cause: [u64; 4],
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
    /// Violated correctness checks, one line each.
    pub violations: Vec<String>,
    /// Node 0's round duration over the window, ms.
    pub round_ms: f64,
    /// Node 0's decided waves per second over the window.
    pub waves_per_s: f64,
    /// Node 0's ordered transactions per ordered vertex over the window.
    pub txs_per_vertex: f64,
    /// Transactions in node 0's whole ordered log.
    pub ordered_txs_total: u64,
    /// Node counters at the end of the run.
    pub stats: NodeStats,
    /// Per-submission spans (traced runs only).
    pub spans: Spans,
}

/// One client connection in the generator's sweep.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    dead: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Self { stream, reader: FrameReader::new(), out: Vec::new(), dead: false };
        conn.queue(&WireMsg::ClientHello);
        conn.queue(&WireMsg::ClientSubscribe);
        Ok(conn)
    }

    fn queue(&mut self, msg: &WireMsg) {
        let payload = msg.to_bytes();
        self.out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&payload);
    }

    /// Writes what the socket accepts now; marks the connection dead on error.
    fn flush(&mut self) {
        while !self.out.is_empty() && !self.dead {
            match self.stream.write(&self.out) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }

    /// Every complete frame readable now, decoded.
    fn read(&mut self) -> Vec<WireMsg> {
        let mut msgs = Vec::new();
        while !self.dead {
            match self.reader.next_frame() {
                Ok(Some(frame)) => match WireMsg::from_bytes(&frame) {
                    Ok(msg) => msgs.push(msg),
                    Err(_) => self.dead = true,
                },
                Ok(None) => match self.reader.fill_from(&mut self.stream) {
                    Ok(Fill::Read(_)) => {}
                    Ok(Fill::WouldBlock) => break,
                    Ok(Fill::Eof) | Err(_) => self.dead = true,
                },
                Err(_) => self.dead = true,
            }
        }
        msgs
    }
}

/// One submission's life at the generator.
#[derive(Debug, Clone, Copy)]
struct Sub {
    conn: usize,
    due: Instant,
    sent: Instant,
    ack: Option<Instant>,
    ordered: Option<Instant>,
    rejected: bool,
    measured: bool,
}

impl Sub {
    fn resolved(&self) -> bool {
        self.ordered.is_some() || self.rejected
    }
}

/// Cursor over every node's ordered log.
struct LogWatch {
    cursors: Vec<usize>,
    fingerprints: Vec<Vec<u64>>,
    /// Per submission tag: times it appears in node 0's log.
    ordered_count: Vec<u8>,
    foreign_txs: u64,
    txs: u64,
    vertices: u64,
}

impl LogWatch {
    fn new() -> Self {
        Self {
            cursors: vec![0; NODES],
            fingerprints: vec![Vec::new(); NODES],
            ordered_count: Vec::new(),
            foreign_txs: 0,
            txs: 0,
            vertices: 0,
        }
    }

    fn poll(&mut self, nodes: &[NetNode], submitted: usize) {
        if self.ordered_count.len() < submitted {
            self.ordered_count.resize(submitted, 0);
        }
        for (i, node) in nodes.iter().enumerate() {
            let fresh = node.ordered_from(self.cursors[i]);
            self.cursors[i] += fresh.len();
            for entry in &fresh {
                let mut h = DefaultHasher::new();
                entry.vertex.hash(&mut h);
                for tx in entry.block.transactions() {
                    tx.len().hash(&mut h);
                    tag_of(tx).hash(&mut h);
                    if i == 0 {
                        match tag_of(tx).and_then(|t| self.ordered_count.get_mut(t as usize)) {
                            Some(count) => *count = count.saturating_add(1),
                            None => self.foreign_txs += 1,
                        }
                    }
                }
                if i == 0 {
                    self.txs += entry.block.len() as u64;
                    self.vertices += 1;
                }
                self.fingerprints[i].push(h.finish());
            }
        }
    }
}

/// The submission tag a generator transaction carries in its first 8 bytes.
fn tag_of(tx: &Transaction) -> Option<u64> {
    tx.payload().get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn dir_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| {
                    let path = e.path();
                    if path.is_dir() {
                        dir_size(&path)
                    } else {
                        e.metadata().map_or(0, |m| m.len())
                    }
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Starts the cluster on ephemeral `127.0.0.1:0` ports and waits until
/// every node is live. Returns the nodes and node 0's store directory.
fn start_cluster(
    cfg: &TcpConfig,
    seed: u64,
    scratch: &Path,
    rep: usize,
) -> io::Result<(Vec<NetNode>, Option<PathBuf>, Duration)> {
    let committee = Committee::new(NODES).expect("committee size");
    let keys = deal_coin_keys(&committee, &mut StdRng::seed_from_u64(seed));
    let start = Instant::now();
    let listeners: Vec<TcpListener> =
        (0..NODES).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> =
        listeners.iter().map(TcpListener::local_addr).collect::<io::Result<_>>()?;
    let mut nodes = Vec::new();
    let mut store0 = None;
    for (i, listener) in listeners.into_iter().enumerate() {
        let mut config = NetConfig::new(
            committee,
            ProcessId::new(i as u32),
            addrs.clone(),
            NodeConfig::default().with_gc_depth(64),
            keys[i].clone(),
            seed.wrapping_add(i as u64),
        )
        .with_sync_timeout(Duration::from_millis(500));
        if cfg.store {
            let dir = scratch.join(format!("rep{rep}-node{i}"));
            if i == 0 {
                store0 = Some(dir.clone());
            }
            config = config.with_store(StoreConfig::new(dir));
        }
        nodes.push(NetNode::start::<BrachaRbc>(config, Some(listener))?);
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while !nodes.iter().all(NetNode::is_live) {
        if Instant::now() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "cluster did not go live in 20 s"));
        }
        // Start-up takes a few milliseconds: poll finely, or the poll
        // period would dominate the reading.
        std::thread::sleep(Duration::from_micros(50));
    }
    Ok((nodes, store0, start.elapsed()))
}

/// Runs one TCP workload. `scratch` is a fresh directory for the stores;
/// the caller removes it. `traced` keeps per-submission spans.
pub fn run(cfg: &TcpConfig, seed: u64, scratch: &Path, traced: bool) -> io::Result<TcpRun> {
    let mut setups = Vec::new();
    let mut cluster = None;
    for rep in 0..cfg.setup_reps.max(1) {
        let (nodes, store0, took) = start_cluster(cfg, seed, scratch, rep)?;
        setups.push(took);
        if let Some((mut old, _)) = cluster.replace((nodes, store0)) {
            old.iter_mut().for_each(NetNode::shutdown);
        }
    }
    let (mut nodes, store0) = cluster.expect("at least one setup");

    // Inputs from the seed: one filler body shared by every transaction;
    // each transaction's first 8 bytes are its submission tag.
    let mut filler = vec![0u8; cfg.tx_size.max(8)];
    StdRng::seed_from_u64(seed).fill_bytes(&mut filler);
    let tx_for = |tag: u64| {
        let mut body = filler.clone();
        body[..8].copy_from_slice(&tag.to_le_bytes());
        Transaction::new(body)
    };

    let mut conns: Vec<Conn> = (0..cfg.connections)
        .map(|c| Conn::open(nodes[c % NODES].local_addr()))
        .collect::<io::Result<_>>()?;
    let mut subs: Vec<Sub> = Vec::new();
    let mut in_flight = vec![0usize; conns.len()];
    let mut watch = LogWatch::new();
    let mut violations = Vec::new();
    let mut rss_sample = None;

    let t0 = Instant::now();
    let window_start = t0 + cfg.warmup;
    let window_end = window_start + cfg.window;
    let drain_end = window_end + cfg.drain;
    let mut marks: Vec<(Instant, u64, u64, u64, u64)> = Vec::new(); // (at, txs, vertices, round, wave)
    let mut next_poll = t0;
    let mut poll_spans = Vec::new();

    loop {
        let now = Instant::now();
        // Send every submission that is due.
        if now < window_end {
            match cfg.load {
                Load::Open { rate } => loop {
                    let due = t0 + Duration::from_secs_f64(subs.len() as f64 / rate);
                    if due > now || due >= window_end {
                        break;
                    }
                    let conn = subs.len() % conns.len();
                    submit(&mut conns[conn], &mut subs, conn, due, window_start, &tx_for);
                    in_flight[conn] += 1;
                },
                Load::Closed { depth } => {
                    for conn in 0..conns.len() {
                        while in_flight[conn] < depth && !conns[conn].dead {
                            submit(&mut conns[conn], &mut subs, conn, now, window_start, &tx_for);
                            in_flight[conn] += 1;
                        }
                    }
                }
            }
        }

        let mut progress = false;
        for (c, conn) in conns.iter_mut().enumerate() {
            conn.flush();
            for msg in conn.read() {
                progress = true;
                let at = Instant::now();
                let (seq, kind) = match msg {
                    WireMsg::ClientSubmitAck { seq } => (seq, 0),
                    WireMsg::ClientReject { seq, .. } => (seq, 1),
                    WireMsg::ClientOrdered { seq } => (seq, 2),
                    other => {
                        violations.push(format!("unexpected message to client: {other:?}"));
                        continue;
                    }
                };
                let Some(sub) = subs.get_mut(seq as usize).filter(|s| s.conn == c) else {
                    violations.push(format!("notification for unknown submission {seq}"));
                    continue;
                };
                match kind {
                    0 => sub.ack = Some(at),
                    1 if !sub.resolved() => {
                        sub.rejected = true;
                        in_flight[c] -= 1;
                    }
                    2 if sub.ordered.is_none() && !sub.rejected => {
                        sub.ordered = Some(at);
                        in_flight[c] -= 1;
                    }
                    _ => violations.push(format!("submission {seq} resolved twice")),
                }
            }
        }

        let crossed =
            marks.is_empty() && now >= window_start || marks.len() == 1 && now >= window_end;
        if now >= next_poll || crossed {
            let start = Instant::now();
            watch.poll(&nodes, subs.len());
            poll_spans.push((start, Instant::now()));
            next_poll = now + POLL_EVERY;
            if crossed {
                let n0 = &nodes[0];
                marks.push((
                    Instant::now(),
                    watch.txs,
                    watch.vertices,
                    n0.current_round().number(),
                    n0.decided_wave().number(),
                ));
            }
            if rss_sample.is_none() && cfg.rss_at_txs.is_some_and(|k| watch.txs >= k) {
                rss_sample = Some(peak_rss_mb());
            }
        }

        if now >= window_end && marks.len() == 2 {
            let pending = subs.iter().any(|s| !s.resolved() && !conns[s.conn].dead);
            if !pending || now >= drain_end {
                break;
            }
        }
        if !progress {
            let next_due = match cfg.load {
                Load::Open { rate } if now < window_end => {
                    t0 + Duration::from_secs_f64(subs.len() as f64 / rate)
                }
                _ => now + Duration::from_millis(1),
            };
            let nap =
                next_due.saturating_duration_since(Instant::now()).min(Duration::from_millis(1));
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    watch.poll(&nodes, subs.len());
    let peak_rss = rss_sample.unwrap_or_else(peak_rss_mb);

    // Correctness: prefix agreement across nodes, exactly-once order.
    for i in 1..NODES {
        let (a, b) = (&watch.fingerprints[0], &watch.fingerprints[i]);
        if let Some(at) = a.iter().zip(b).position(|(x, y)| x != y) {
            violations
                .push(format!("node {i}'s ordered log diverges from node 0's at position {at}"));
        }
    }
    // Every submission the cluster admitted (acked, warm-up included) or a
    // client saw ordered must be in node 0's log; node 0 may trail the node
    // that notified by a few vertices, so wait briefly.
    let missing = |watch: &LogWatch| {
        subs.iter()
            .enumerate()
            .filter(|(tag, s)| {
                (s.ack.is_some() || s.ordered.is_some())
                    && watch.ordered_count.get(*tag).is_none_or(|&c| c == 0)
            })
            .count()
    };
    let catch_up = Instant::now() + Duration::from_secs(5);
    while missing(&watch) > 0 && Instant::now() < catch_up {
        std::thread::sleep(Duration::from_millis(20));
        watch.poll(&nodes, subs.len());
    }
    if missing(&watch) > 0 {
        violations.push(format!(
            "{} submissions acked or notified ordered but absent from node 0's log",
            missing(&watch)
        ));
    }

    if let Some(tag) = watch.ordered_count.iter().position(|&c| c > 1) {
        violations.push(format!("submission {tag} ordered more than once at node 0"));
    }
    if watch.foreign_txs > 0 {
        violations
            .push(format!("{} transactions ordered that were never submitted", watch.foreign_txs));
    }

    let measured: Vec<&Sub> = subs.iter().filter(|s| s.measured).collect();
    let attempted = measured.len() as u64;
    let mut failed_by_cause = [0u64; 4];
    for s in measured.iter().filter(|s| s.ordered.is_none()) {
        let cause = match (s.rejected, conns[s.conn].dead, s.ack.is_some()) {
            (true, _, _) => 0,
            (false, true, _) => 1,
            (false, false, true) => 2,
            (false, false, false) => 3,
        };
        failed_by_cause[cause] += 1;
    }
    let failed = failed_by_cause.iter().sum();
    let mut spans = Spans::new(traced);
    let (mut latency_ms, mut ack_ms, mut after_ack_ms, mut lag_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in &measured {
        lag_ms.push(ms(s.sent - s.due));
        let root = spans.record("client.submit", 0, s.due, s.ordered.unwrap_or(s.sent));
        spans.record("gen.lag", root, s.due, s.sent);
        if let Some(ack) = s.ack {
            ack_ms.push(ms(ack - s.sent));
            spans.record("client.ack", root, s.sent, ack);
            if let Some(ordered) = s.ordered {
                after_ack_ms.push(ms(ordered.saturating_duration_since(ack)));
                spans.record("client.after_ack", root, ack, ordered);
            }
        }
        if let Some(ordered) = s.ordered {
            latency_ms.push(ms(ordered - s.due));
        }
    }

    for (start, end) in poll_spans {
        spans.record("net.ordered_from", 0, start, end);
    }
    let (a, b) = (marks[0], marks[1]);
    let secs = (b.0 - a.0).as_secs_f64();
    let mut stats = NodeStats::default();
    for node in &nodes {
        let adm = node.admission_stats();
        stats.accepted += adm.accepted;
        stats.shed += adm.shed;
        stats.queue_high_water = stats.queue_high_water.max(adm.queue_high_water);
        stats.dropped_frames += node.dropped_frames();
        stats.verify_depth_max = stats.verify_depth_max.max(node.verify_batch_depth());
        stats.rejected_shares += node.rejected_shares();
    }
    stats.batch_bytes = nodes[0].batch_payload_bytes();
    if !nodes.iter().all(NetNode::store_healthy) {
        violations.push("a durable store reported an I/O error".to_owned());
    }
    drop(conns);
    nodes.iter_mut().for_each(NetNode::shutdown);
    stats.store_bytes = store0.as_deref().map_or(0, dir_size);

    Ok(TcpRun {
        setups,
        tx_per_s: (b.1 - a.1) as f64 / secs,
        latency_ms,
        ack_ms,
        after_ack_ms,
        lag_ms,
        attempted,
        failed,
        failed_by_cause,
        peak_rss_mb: peak_rss,
        violations,
        round_ms: secs * 1e3 / (b.3 - a.3).max(1) as f64,
        waves_per_s: (b.4 - a.4) as f64 / secs,
        txs_per_vertex: (b.1 - a.1) as f64 / (b.2 - a.2).max(1) as f64,
        ordered_txs_total: watch.txs,
        stats,
        spans,
    })
}

/// Queues one submission on `conn` and records it.
fn submit(
    conn: &mut Conn,
    subs: &mut Vec<Sub>,
    c: usize,
    due: Instant,
    window_start: Instant,
    tx_for: &impl Fn(u64) -> Transaction,
) {
    let seq = subs.len() as u64;
    conn.queue(&WireMsg::ClientSubmit { seq, tx: tx_for(seq) });
    let sent = Instant::now();
    subs.push(Sub {
        conn: c,
        due,
        sent,
        ack: None,
        ordered: None,
        rejected: false,
        measured: due >= window_start,
    });
}

/// Median of the cluster start-up times, seconds.
pub fn setup_s(run: &TcpRun) -> f64 {
    median(&run.setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// The `p`-quantile of the run's end-to-end latencies, ms.
pub fn latency(run: &TcpRun, p: f64) -> f64 {
    quantile(&run.latency_ms, p)
}
