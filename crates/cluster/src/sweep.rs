//! The coordinator: shard a Monte-Carlo sweep across workers and merge
//! the result bit-identically to a single-process run.
//!
//! Correctness rests on one fact: the engine's estimate is a pure fold of
//! per-block accumulators in block-index order, and each block's value
//! depends only on `(domain, trials, block)` — never on *where* or *how
//! many times* it executes. So the coordinator is free to re-dispatch a
//! dead worker's leases, hedge stragglers, retry after reconnects, and
//! even re-execute a block on two workers at once: the first result wins,
//! duplicates are bit-equal by construction, and the merged statistics
//! match [`rap_access::montecarlo::matrix_congestion`] exactly.
//!
//! Fault model, mechanism by mechanism:
//!
//! * **heaviest first** — the queue holds the cells in falling order of
//!   per-block cost (`w²` for Random, `w` otherwise), each cell's blocks
//!   consecutive, so the costliest blocks never straggle at the end of
//!   a sweep while the other workers idle;
//! * **pipelined window of batched claims** — each worker's runner
//!   keeps up to `PIPELINE_DEPTH` (8) blocks in flight on a connection
//!   it owns for the whole sweep (parked in the slot between sweeps;
//!   routed queries and probes use the slot's other connection, so
//!   nothing else ever reads a pipelined answer). A claim takes the
//!   head of the queue plus the consecutive blocks of the same cell
//!   behind it, at most half the window (`MAX_RUN`, 4), and sends
//!   them as one `pattern_block` request with `blocks`, so a window
//!   always holds two requests. Every request carries an `id`, and
//!   answers are matched by id, in any order; an answer commits all its
//!   blocks under one lock;
//! * **lease table** — a block is leased `(worker, issued)` when its
//!   request is sent; a lease older than [`ClusterConfig::lease`] is
//!   presumed orphaned (worker stalled or died without an error) and
//!   re-dispatched alone;
//! * **window failure rule** — a dropped connection, a timeout or an
//!   error answer (a short or long `raw_stats` array included) fails
//!   the whole window: the connection is dropped and reconnected, every
//!   in-flight block is requeued, and exactly one takes a strike (the
//!   first block of the request the error answers, else of the oldest
//!   request). A block with a strike is always dispatched alone, so a
//!   poisoned block soon fails alone and an innocent neighbour takes at
//!   most one strike. A block with `MAX_ITEM_STRIKES` (3) strikes
//!   resolves in-process;
//! * **hedged re-dispatch** — an idle worker (nothing in flight)
//!   re-executes the stalest in-flight block past
//!   [`ClusterConfig::hedge_after`], so one straggler cannot gate the
//!   sweep; the dedup ledger makes the race harmless;
//! * **wake on change** — an idle runner with nothing to claim sleeps
//!   on a condition variable that every commit, failed window and
//!   runner exit signals, with a timeout at the stalest foreign lease's
//!   hedge deadline; the last commit ends the sweep at once;
//! * **first-writer-wins dedup** — commits go through one critical
//!   section: the first result for a block is merged and recorded to
//!   the checkpoint [`Ledger`]; later duplicates are counted and
//!   dropped. The ledger doubles as `kill -9` insurance for the
//!   *coordinator*: a restarted sweep resumes from it byte-identically;
//! * **quorum degrade** — below [`ClusterConfig::quorum`] healthy
//!   workers the sweep runs in-process ([`matrix_block_stats`]), bit
//!   -identical in value but explicitly marked `degraded`, source
//!   `"cluster-local"`.

use crate::ring::HashRing;
use crate::worker::WorkerPool;
use rap_access::montecarlo::{blocks_for, matrix_block_stats};
use rap_access::{CancelToken, MatrixPattern};
use rap_core::Scheme;
use rap_resilience::{Ledger, RetryPolicy};
use rap_serve::handler::{self, Outcome};
use rap_serve::protocol::{Request, Response};
use rap_serve::Client;
use rap_stats::{OnlineStats, RawOnlineStats, SeedDomain};
use serde::{Deserialize, Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Distinct failures a block may accumulate before the coordinator stops
/// blaming workers and resolves it in-process.
const MAX_ITEM_STRIKES: u32 = 3;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Minimum healthy workers for distributed execution; below this the
    /// sweep degrades to in-process execution (`source:"cluster-local"`).
    pub quorum: usize,
    /// Age after which a lease is presumed orphaned and re-dispatched.
    pub lease: Duration,
    /// Age after which an idle worker hedges an in-flight block.
    pub hedge_after: Duration,
    /// Per-request read timeout on worker connections.
    pub request_timeout: Duration,
    /// Seeded-backoff policy for reconnect attempts.
    pub retry: RetryPolicy,
    /// Reconnect attempts before a worker is declared dead.
    pub max_reconnects: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            quorum: 1,
            lease: Duration::from_secs(2),
            hedge_after: Duration::from_millis(500),
            request_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            max_reconnects: 2,
        }
    }
}

/// One cell of a sweep: a `(pattern, scheme, width, trials)` estimate
/// whose seed domain has already been derived by the caller.
///
/// The domain travels as raw state ([`SeedDomain::seed`]) because derived
/// domains cannot be transported through the mixing `SeedDomain::new`;
/// workers rebuild it with [`SeedDomain::from_state`] and reproduce the
/// exact sample streams of a local run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Checkpoint-ledger cell key (e.g. `"Stride/RAS/w=32"`).
    pub key: String,
    /// Access pattern.
    pub pattern: MatrixPattern,
    /// Mapping scheme (must be sampled: RAW, RAS, or RAP).
    pub scheme: Scheme,
    /// Matrix width.
    pub width: usize,
    /// Total Monte-Carlo trials.
    pub trials: u64,
    /// Raw state of the cell's seed domain.
    pub domain_state: u64,
}

impl SweepCell {
    /// Build a cell from an already-derived seed domain.
    ///
    /// # Panics
    /// On a deterministic scheme (xor/padded sample nothing per trial and
    /// have no block decomposition) or a zero trial count.
    #[must_use]
    pub fn new(
        key: impl Into<String>,
        pattern: MatrixPattern,
        scheme: Scheme,
        width: usize,
        trials: u64,
        domain: &SeedDomain,
    ) -> Self {
        assert!(
            matches!(scheme, Scheme::Raw | Scheme::Ras | Scheme::Rap),
            "scheme {scheme} is deterministic and has no Monte-Carlo block decomposition"
        );
        assert!(trials > 0, "need at least one trial");
        SweepCell {
            key: key.into(),
            pattern,
            scheme,
            width,
            trials,
            domain_state: domain.seed(),
        }
    }

    /// Blocks this cell decomposes into.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        blocks_for(self.trials)
    }

    fn request_line(&self, id: u64, blocks: &Range<u64>) -> String {
        format!(
            r#"{{"cmd":"pattern_block","id":{id},"pattern":"{}","scheme":"{}","width":{},"trials":{},"block":{},"blocks":{},"domain_state":{}}}"#,
            self.pattern.name(),
            self.scheme.name(),
            self.width,
            self.trials,
            blocks.start,
            blocks.end - blocks.start,
            self.domain_state
        )
    }

    /// Relative compute per block: a Random trial counts every one of
    /// its `w` warps, the rotation-invariant patterns one warp.
    fn block_cost(&self) -> u64 {
        let w = self.width as u64;
        if self.pattern == MatrixPattern::Random {
            w * w
        } else {
            w
        }
    }

    fn block_stats_local(&self, block: u64) -> OnlineStats {
        matrix_block_stats(
            self.scheme,
            self.pattern,
            self.width,
            self.trials,
            block,
            &SeedDomain::from_state(self.domain_state),
        )
    }
}

/// What a sweep did, for result records and the chaos checks.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClusterReport {
    /// Shards in the pool.
    pub workers: u64,
    /// Shards that answered the startup health probe.
    pub healthy_at_start: u64,
    /// Shards the coordinator declared dead during the sweep.
    pub workers_died: u64,
    /// Successful reconnects after dropped connections.
    pub reconnects: u64,
    /// Total blocks across all cells.
    pub blocks_total: u64,
    /// Blocks reused from the checkpoint ledger (coordinator resume).
    pub from_checkpoint: u64,
    /// Blocks executed on workers.
    pub executed: u64,
    /// Blocks executed in-process (quorum degrade or poisoned items).
    pub local_blocks: u64,
    /// Blocks re-dispatched after a lease expired.
    pub redispatched: u64,
    /// Blocks hedged on an idle worker while still leased elsewhere.
    pub hedged: u64,
    /// Duplicate results dropped by first-writer-wins dedup.
    pub hedge_wasted: u64,
    /// Blocks requeued after a worker failure.
    pub requeued: u64,
    /// Failed attempts charged to a block: one per failed window.
    pub strikes: u64,
    /// Ledger appends that failed (results kept in memory regardless).
    pub append_failures: u64,
    /// True when any block ran in-process instead of on a worker.
    pub degraded: bool,
    /// `"cluster"`, or `"cluster-local"` when the sweep ran below quorum.
    pub source: String,
}

/// A routed-query failure.
#[derive(Debug)]
pub enum ClusterError {
    /// The request line itself is invalid; retrying elsewhere cannot help.
    BadRequest(String),
    /// Every shard failed and the in-process fallback could not serve it.
    Unavailable(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadRequest(m) => write!(f, "bad request: {m}"),
            ClusterError::Unavailable(m) => write!(f, "cluster unavailable: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[derive(Clone, Copy)]
struct Lease {
    worker: usize,
    issued: Instant,
}

/// `(cell index, block index)` — the unit of leasing and merging.
type Item = (usize, u64);

/// Blocks a runner keeps outstanding on its connection. Deep enough to
/// hide a loopback round trip and the worker's thread wakeup behind the
/// blocks queued ahead of it; far below a server's default 64-slot queue,
/// so a full window never sheds.
const PIPELINE_DEPTH: usize = 8;

/// Most blocks one request carries: half the window, so a runner always
/// has a second request queued on the worker while one is answered.
const MAX_RUN: usize = PIPELINE_DEPTH / 2;

/// One request's claim: the consecutive blocks `blocks` of cell `cell`.
struct Run {
    cell: usize,
    blocks: Range<u64>,
}

impl Run {
    fn single((cell, block): Item) -> Self {
        Run {
            cell,
            blocks: block..block + 1,
        }
    }

    fn len(&self) -> usize {
        (self.blocks.end - self.blocks.start) as usize
    }

    fn items(&self) -> impl Iterator<Item = Item> + '_ {
        self.blocks.clone().map(|b| (self.cell, b))
    }
}

#[derive(Default)]
struct Counters {
    executed: u64,
    local_blocks: u64,
    redispatched: u64,
    hedged: u64,
    hedge_wasted: u64,
    requeued: u64,
    strikes: u64,
    append_failures: u64,
}

struct DispatchState {
    pending: VecDeque<Item>,
    leases: HashMap<Item, Lease>,
    done: HashMap<Item, RawOnlineStats>,
    failures: HashMap<Item, u32>,
    total: usize,
    counters: Counters,
}

impl DispatchState {
    fn lease(&mut self, it: Item, worker: usize, issued: Instant) {
        self.leases.insert(it, Lease { worker, issued });
    }

    /// The oldest lease held by a worker other than `w`.
    fn stalest_foreign(&self, w: usize) -> Option<(Item, Instant)> {
        self.leases
            .iter()
            .filter(|&(_, l)| l.worker != w)
            .min_by_key(|&(_, l)| l.issued)
            .map(|(&it, l)| (it, l.issued))
    }

    /// Drop `w`'s lease on `it`; a lease another worker took over stays.
    fn release(&mut self, w: usize, it: Item) {
        if self.leases.get(&it).is_some_and(|l| l.worker == w) {
            self.leases.remove(&it);
        }
    }

    /// Put `it` back in the queue, unless it is done or another worker
    /// already holds it (a re-dispatch or hedge is retrying it).
    fn requeue(&mut self, w: usize, it: Item) {
        if self.done.contains_key(&it) || self.leases.get(&it).is_some_and(|l| l.worker != w) {
            return;
        }
        self.leases.remove(&it);
        self.pending.push_back(it);
        self.counters.requeued += 1;
    }
}

/// The dispatch table of one sweep, and the condition idle runners wait
/// on: it is signalled on every commit, every failed window and every
/// runner exit.
struct Dispatch<'a> {
    cells: &'a [SweepCell],
    ledger: &'a Ledger,
    state: Mutex<DispatchState>,
    changed: Condvar,
}

enum Next {
    Run(Run),
    Wait,
    Done,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Origin {
    Worker,
    Local,
}

impl Dispatch<'_> {
    fn lock(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commit the results of `run`, one per block, under one lock: the
    /// first writer of a block is merged and recorded to the ledger;
    /// duplicates (hedges, lease re-dispatch races) are counted and
    /// dropped. This is the dedup point the whole fault model leans on.
    fn commit(&self, run: &Run, raw: &[RawOnlineStats], origin: Origin) {
        let mut fresh = Vec::with_capacity(raw.len());
        {
            let mut s = self.lock();
            for (it, raw) in run.items().zip(raw) {
                s.leases.remove(&it);
                let first = match s.done.entry(it) {
                    Entry::Occupied(_) => false,
                    Entry::Vacant(slot) => {
                        slot.insert(*raw);
                        true
                    }
                };
                let c = &mut s.counters;
                match (first, origin) {
                    (false, _) => c.hedge_wasted += 1,
                    (true, Origin::Worker) => c.executed += 1,
                    (true, Origin::Local) => c.local_blocks += 1,
                }
                if first {
                    fresh.push((it.1, raw));
                }
            }
        }
        self.changed.notify_all();
        // Entries are self-describing, so the appends need no lock.
        let key = &self.cells[run.cell].key;
        let mut failed = 0;
        for (block, raw) in fresh {
            if self
                .ledger
                .record(key, block, &OnlineStats::from_raw(raw))
                .is_err()
            {
                failed += 1;
            }
        }
        if failed > 0 {
            self.lock().counters.append_failures += failed;
        }
    }

    /// Execute `it` in-process and commit it.
    fn commit_local(&self, it: Item) {
        let stats = self.cells[it.0].block_stats_local(it.1);
        self.commit(&Run::single(it), &[stats.to_raw()], Origin::Local);
    }

    /// Charge one failed attempt to `struck` and requeue it with its
    /// `innocent` co-flight items, which take no strike. True when
    /// `struck` has struck out: the caller then resolves it in-process.
    fn fail(&self, w: usize, struck: Item, innocent: impl Iterator<Item = Item>) -> bool {
        let struck_out = {
            let mut s = self.lock();
            s.counters.strikes += 1;
            let strikes = s.failures.entry(struck).or_insert(0);
            *strikes += 1;
            let struck_out = *strikes >= MAX_ITEM_STRIKES;
            if struck_out {
                s.release(w, struck);
            } else {
                s.requeue(w, struck);
            }
            for it in innocent {
                s.requeue(w, it);
            }
            struck_out
        };
        self.changed.notify_all();
        struck_out
    }
}

/// A worker pool plus the policies to drive it (see the module docs).
pub struct Cluster {
    pool: WorkerPool,
    ring: HashRing,
    cfg: ClusterConfig,
}

impl Cluster {
    /// Wrap a pool with the given policies.
    #[must_use]
    pub fn new(pool: WorkerPool, cfg: ClusterConfig) -> Self {
        let ring = HashRing::new(pool.len());
        Cluster { pool, ring, cfg }
    }

    /// The underlying pool (chaos hooks, addresses).
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Probe every shard; the count that answered.
    #[must_use]
    pub fn healthy_workers(&self) -> usize {
        (0..self.pool.len())
            .filter(|&w| self.pool.probe(w, self.cfg.request_timeout))
            .count()
    }

    /// Route one request line to `key`'s warm shard, failing over along
    /// the ring and finally degrading to in-process execution.
    ///
    /// Repeated queries with the same `key` hit the same shard while it
    /// lives — that is the point of the consistent-hash ring. An
    /// `ok:false` answer with a `bad_request` kind is returned as-is
    /// (it is deterministic; no shard would answer differently); other
    /// failures try the next shard.
    ///
    /// Shards whose last probe saw an epoch swap in flight are
    /// *deprioritized*, not excluded: the walk first tries stable
    /// shards, then admits migrating ones (they still answer — from
    /// their old committed layout — so they beat the local fallback),
    /// and re-admits them fully once a probe sees the commit.
    ///
    /// # Errors
    /// [`ClusterError::BadRequest`] for a malformed line,
    /// [`ClusterError::Unavailable`] when no shard and no fallback could
    /// serve it.
    pub fn query(&self, key: &str, line: &str) -> Result<Response, ClusterError> {
        // Validate before touching the network: a malformed line fails
        // identically everywhere.
        let request = Request::parse(line).map_err(ClusterError::BadRequest)?;
        let walk = self.ring.walk(key);
        let (stable, migrating): (Vec<usize>, Vec<usize>) =
            walk.into_iter().partition(|&w| !self.pool.migrating(w));
        for w in stable.into_iter().chain(migrating) {
            if let Some(resp) = self.try_worker(w, line) {
                return Ok(resp);
            }
        }
        local_query(&request)
    }

    /// One routing attempt against shard `w`. `Some` only for an answer
    /// the walk should return (success or deterministic `bad_request`);
    /// `None` means fail over to the next shard.
    fn try_worker(&self, w: usize, line: &str) -> Option<Response> {
        let mut slot = self.pool.slot(w);
        if slot.dead {
            return None;
        }
        if slot.ensure_connected(self.cfg.request_timeout).is_err() {
            return None;
        }
        let client = slot.client.as_mut()?;
        match client.roundtrip(line) {
            Ok(resp) => {
                if resp.ok || resp.error_kind() == Some("bad_request") {
                    return Some(resp);
                }
                // shed / draining / timeout: fail over clockwise.
                None
            }
            Err(_) => {
                slot.client = None;
                None
            }
        }
    }

    /// Run a sweep distributed over the pool, merging to statistics
    /// bit-identical to a single-process run of the same cells.
    ///
    /// Previously-completed blocks in `ledger` are reused (coordinator
    /// crash resume); newly completed blocks are recorded as they land.
    #[must_use]
    pub fn run_sweep(
        &self,
        cells: &[SweepCell],
        ledger: &Ledger,
    ) -> (Vec<OnlineStats>, ClusterReport) {
        let blocks_total: u64 = cells.iter().map(SweepCell::blocks).sum();
        let (pending, done) = initial_queue(cells, ledger);
        let from_checkpoint = done.len() as u64;
        let total = done.len() + pending.len();
        let d = Dispatch {
            cells,
            ledger,
            state: Mutex::new(DispatchState {
                pending,
                leases: HashMap::new(),
                done,
                failures: HashMap::new(),
                total,
                counters: Counters::default(),
            }),
            changed: Condvar::new(),
        };

        let healthy = self.healthy_workers();
        let mut report = ClusterReport {
            workers: self.pool.len() as u64,
            healthy_at_start: healthy as u64,
            blocks_total,
            from_checkpoint,
            source: "cluster".to_string(),
            ..ClusterReport::default()
        };

        if healthy < self.cfg.quorum.max(1) {
            // Below quorum: serve the whole sweep in-process. The values
            // are bit-identical (same fold over the same blocks); only
            // the provenance changes.
            Self::drain_locally(&d);
            report.degraded = true;
            report.source = "cluster-local".to_string();
        } else {
            let d = &d;
            std::thread::scope(|scope| {
                for w in 0..self.pool.len() {
                    scope.spawn(move || self.runner(w, d));
                }
            });
            // Everything still unresolved means every worker died
            // mid-sweep; finish in-process rather than fail.
            if Self::drain_locally(d) > 0 {
                report.degraded = true;
            }
        }

        let s = d.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        report.workers_died = self.pool.dead_workers() as u64;
        report.reconnects = self.pool.reconnects();
        report.executed = s.counters.executed;
        report.local_blocks = s.counters.local_blocks;
        report.redispatched = s.counters.redispatched;
        report.hedged = s.counters.hedged;
        report.hedge_wasted = s.counters.hedge_wasted;
        report.requeued = s.counters.requeued;
        report.strikes = s.counters.strikes;
        report.append_failures = s.counters.append_failures;
        report.degraded = report.degraded || s.counters.local_blocks > 0;

        let mut merged = Vec::with_capacity(cells.len());
        for (ci, cell) in cells.iter().enumerate() {
            let mut acc = OnlineStats::new();
            for b in 0..cell.blocks() {
                let raw = s
                    .done
                    .get(&(ci, b))
                    .expect("every block resolves: worker, re-dispatch, or local");
                acc.merge(&OnlineStats::from_raw(raw));
            }
            merged.push(acc);
        }
        (merged, report)
    }

    /// One worker's dispatch loop, then the hand-back: a connection that
    /// ended with nothing in flight is parked for the next sweep, and
    /// idle runners are woken to re-check the table.
    fn runner(&self, w: usize, d: &Dispatch<'_>) {
        if let Some(conn) = self.pump(w, d) {
            self.pool.slot(w).sweep = Some(conn);
        }
        d.changed.notify_all();
    }

    /// Keep up to [`PIPELINE_DEPTH`] blocks in flight, in runs of up to
    /// [`MAX_RUN`], on a connection this runner owns; commit answers as
    /// they arrive (matched by id, in any order), fail the whole window on
    /// any error and reconnect. Returns when the sweep completes — with
    /// the connection, if no response is outstanding on it — or when the
    /// worker is declared dead.
    fn pump(&self, w: usize, d: &Dispatch<'_>) -> Option<Client> {
        let mut conn = {
            let mut slot = self.pool.slot(w);
            if slot.dead {
                return None;
            }
            slot.sweep.take()
        };
        let mut window: VecDeque<(u64, Run)> = VecDeque::with_capacity(PIPELINE_DEPTH);
        let mut next_id = 0u64;
        loop {
            let mut failed = None;
            loop {
                let room = PIPELINE_DEPTH - window.iter().map(|(_, run)| run.len()).sum::<usize>();
                if failed.is_some() || room == 0 {
                    break;
                }
                let run = match self.next_run(w, d, room, window.is_empty()) {
                    Next::Run(run) => run,
                    Next::Wait => break,
                    // Whatever is still in flight duplicates a committed
                    // block; its unread answers make the connection unusable.
                    Next::Done => return if window.is_empty() { conn } else { None },
                };
                let line = d.cells[run.cell].request_line(next_id, &run.blocks);
                window.push_back((next_id, run));
                next_id += 1;
                if self.send(w, &mut conn, &line).is_err() {
                    failed = Some(0);
                }
            }
            if failed.is_none() {
                let client = conn.as_mut().expect("a non-empty window has a connection");
                failed = receive(d, client, &mut window);
            }
            if let Some(culprit) = failed {
                conn = None;
                fail_window(w, d, &mut window, culprit);
                if !self.reconnect(w) {
                    return None;
                }
            }
        }
    }

    /// Claim the next request's blocks for worker `w`, at most `room`:
    /// fresh work first, as a run of the head block and the consecutive
    /// blocks of its cell queued behind it (a block with a strike goes
    /// alone); then a single expired lease (presumed-dead holder); then —
    /// only while `idle`, with nothing in flight — a hedge of the stalest
    /// in-flight block.
    ///
    /// With nothing to claim, a busy runner gets [`Next::Wait`] and goes
    /// back to reading its window; an idle one sleeps until the table
    /// changes or the stalest foreign lease becomes hedgeable.
    fn next_run(&self, w: usize, d: &Dispatch<'_>, room: usize, idle: bool) -> Next {
        let mut s = d.lock();
        loop {
            if s.done.len() == s.total {
                return Next::Done;
            }
            let now = Instant::now();
            if let Some(head) = s.pending.pop_front() {
                let mut run = Run::single(head);
                if !s.failures.contains_key(&head) {
                    while run.len() < room.min(MAX_RUN) {
                        let next = (run.cell, run.blocks.end);
                        if s.pending.front() != Some(&next) || s.failures.contains_key(&next) {
                            break;
                        }
                        s.pending.pop_front();
                        run.blocks.end += 1;
                    }
                }
                for it in run.items() {
                    s.lease(it, w, now);
                }
                return Next::Run(run);
            }
            let stalest = s.stalest_foreign(w);
            if let Some((it, issued)) = stalest {
                let age = now.duration_since(issued);
                if age >= self.cfg.lease {
                    s.counters.redispatched += 1;
                    s.lease(it, w, now);
                    return Next::Run(Run::single(it));
                }
                if idle && age >= self.cfg.hedge_after {
                    s.counters.hedged += 1;
                    s.lease(it, w, now);
                    return Next::Run(Run::single(it));
                }
            }
            if !idle {
                return Next::Wait;
            }
            let first_deadline = self.cfg.hedge_after.min(self.cfg.lease);
            let wait = stalest.map_or(first_deadline, |(_, issued)| {
                (issued + first_deadline).saturating_duration_since(now)
            });
            s = d
                .changed
                .wait_timeout(s, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Send one request on the runner's own connection, opening it first
    /// if there is none.
    fn send(&self, w: usize, conn: &mut Option<Client>, line: &str) -> std::io::Result<()> {
        let client = match conn {
            Some(client) => client,
            None => {
                let addr = self.pool.slot(w).addr;
                conn.insert(Client::connect_with_timeout(
                    addr,
                    self.cfg.request_timeout,
                )?)
            }
        };
        client.send(line)
    }

    /// Seeded-backoff reconnect; marks the worker dead when the budget is
    /// spent. Health is judged by a full `health` round-trip reporting
    /// `status:"ok"` — a draining server still answers probes.
    fn reconnect(&self, w: usize) -> bool {
        for attempt in 1..=self.cfg.max_reconnects {
            std::thread::sleep(
                self.cfg
                    .retry
                    .backoff("cluster.reconnect", w as u64, attempt),
            );
            self.pool.slot(w).client = None;
            if self.pool.probe(w, self.cfg.request_timeout) {
                self.pool.slot(w).reconnects += 1;
                return true;
            }
        }
        self.pool.slot(w).dead = true;
        false
    }

    /// Execute every unresolved block in-process. Returns how many.
    fn drain_locally(d: &Dispatch<'_>) -> u64 {
        let mut drained = 0u64;
        loop {
            let it = {
                let mut s = d.lock();
                if let Some(it) = s.pending.pop_front() {
                    Some(it)
                } else {
                    let orphan = s.leases.keys().copied().find(|it| !s.done.contains_key(it));
                    if let Some(it) = orphan {
                        s.leases.remove(&it);
                    }
                    orphan
                }
            };
            let Some(it) = it else { break };
            d.commit_local(it);
            drained += 1;
        }
        drained
    }
}

/// Read one response and commit the in-flight run it answers. `Some`
/// names the window position to charge when the window has failed: the
/// answered request for an error response, else the oldest (a dropped
/// connection, a timeout or an answer matching no id names no request).
fn receive(
    d: &Dispatch<'_>,
    client: &mut Client,
    window: &mut VecDeque<(u64, Run)>,
) -> Option<usize> {
    let Ok(Some(resp)) = client.recv() else {
        return Some(0);
    };
    let Some(pos) = resp
        .id
        .and_then(|id| window.iter().position(|(sent, _)| *sent == id))
    else {
        return Some(0);
    };
    let Some(raw) = resp
        .ok
        .then(|| raw_from_response(&resp, window[pos].1.len()))
        .flatten()
    else {
        return Some(pos);
    };
    let (_, run) = window.remove(pos).expect("position is in the window");
    d.commit(&run, &raw, Origin::Worker);
    None
}

/// The failure rule: one failed request fails the whole window, but only
/// the first block of the `culprit` request takes a strike; every other
/// block is requeued without one, so a poisoned block cannot strike out
/// its innocent co-flight blocks.
fn fail_window(w: usize, d: &Dispatch<'_>, window: &mut VecDeque<(u64, Run)>, culprit: usize) {
    let struck = (window[culprit].1.cell, window[culprit].1.blocks.start);
    let innocent = window
        .drain(..)
        .flat_map(|(_, run)| run.blocks.map(move |b| (run.cell, b)))
        .filter(|&it| it != struck);
    if d.fail(w, struck, innocent) {
        // Three distinct failures look like a poisoned item, not a dead
        // worker: resolve it in-process (bit-identical) so the sweep
        // cannot livelock.
        d.commit_local(struck);
    }
}

/// In-process fallback for a routed query: execute the handler directly
/// and mark the answer `degraded`, source `"cluster-local"`.
fn local_query(request: &Request) -> Result<Response, ClusterError> {
    match handler::execute(&request.cmd, &CancelToken::never(), None) {
        Outcome::Ok(data) | Outcome::Degraded(data, _) => Ok(Response::degraded(
            request.id,
            "local",
            with_source(data, "cluster-local"),
        )),
        Outcome::BadRequest(m) => Err(ClusterError::BadRequest(m)),
        Outcome::TimedOut(m) | Outcome::Failed(m) => Err(ClusterError::Unavailable(m)),
    }
}

/// Replace (or add) the payload's `source` marker.
fn with_source(data: Value, source: &str) -> Value {
    let mut pairs = match data {
        Value::Object(pairs) => pairs,
        other => vec![("value".to_string(), other)],
    };
    pairs.retain(|(k, _)| k != "source");
    pairs.push(("source".to_string(), Value::String(source.to_string())));
    Value::Object(pairs)
}

/// The `blocks` accumulators of a batched `pattern_block` answer; `None`
/// unless `raw_stats` is an array of exactly that many.
fn raw_from_response(resp: &Response, blocks: usize) -> Option<Vec<RawOnlineStats>> {
    let pairs = resp.data.as_ref()?.as_object()?;
    let (_, raw) = pairs.iter().find(|(k, _)| k == "raw_stats")?;
    let items = raw.as_array().filter(|items| items.len() == blocks)?;
    items
        .iter()
        .map(|v| RawOnlineStats::from_value(v).ok())
        .collect()
}

/// The dispatch queue of a sweep and the blocks `ledger` already holds.
/// The queue runs heaviest cell first (by [`SweepCell::block_cost`]; the
/// sort is stable, so equal-cost cells keep their order), each cell's
/// blocks consecutive and ascending, so a claim can batch them.
fn initial_queue(
    cells: &[SweepCell],
    ledger: &Ledger,
) -> (VecDeque<Item>, HashMap<Item, RawOnlineStats>) {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&ci| std::cmp::Reverse(cells[ci].block_cost()));
    let mut done = HashMap::new();
    let mut pending = VecDeque::new();
    for ci in order {
        let cell = &cells[ci];
        for b in 0..cell.blocks() {
            if let Some(stats) = ledger.completed(&cell.key, b) {
                done.insert((ci, b), stats.to_raw());
            } else {
                pending.push_back((ci, b));
            }
        }
    }
    (pending, done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_queue_runs_heaviest_cell_first_with_each_cells_blocks_consecutive() {
        let root = SeedDomain::new(7);
        let cell = |key: &str, pattern, width, trials| {
            SweepCell::new(key, pattern, Scheme::Rap, width, trials, &root.child(key))
        };
        let cells = [
            cell("stride16", MatrixPattern::Stride, 16, 64),
            cell("random16", MatrixPattern::Random, 16, 40),
            cell("stride64", MatrixPattern::Stride, 64, 96),
            cell("random8", MatrixPattern::Random, 8, 32),
            cell("diagonal64", MatrixPattern::Diagonal, 64, 70),
        ];
        let ledger = Ledger::in_memory();
        let (pending, done) = initial_queue(&cells, &ledger);
        assert!(done.is_empty());
        // Costs: 16, 256, 64, 64, 64 — the two w = 64 rotation-invariant
        // cells tie with Random w = 8 and keep their sweep order.
        let expected: Vec<Item> = [(1, 2), (2, 3), (3, 1), (4, 3), (0, 2)]
            .into_iter()
            .flat_map(|(ci, blocks)| (0..blocks).map(move |b| (ci, b)))
            .collect();
        assert_eq!(pending.into_iter().collect::<Vec<_>>(), expected);
    }
}
