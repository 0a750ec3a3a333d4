//! Server-side observability plane: fleet metric aggregation, per-worker
//! crash tails, and the bounded per-subscriber queues behind the
//! `Subscribe`/`EventBatch` protocol.
//!
//! Everything here is **passive**: the observatory watches the streams
//! the campaign already produces and never feeds back into job
//! scheduling, record bytes, or checkpoint state. A slow or dead
//! subscriber loses events (accounted in `subscriber_lagged`), never
//! stalls the queue.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use uvf_trace::{Event, MemorySink, PrometheusSink};

/// The server's metrics brain: one [`PrometheusSink`] holding both the
/// fleet-merged worker series and the server-level series
/// (`jobs_*`, `lease_renewals`, `worker_liveness`, queue-wait and
/// job-duration histograms), plus one bounded [`MemorySink`] per worker
/// as its crash tail.
pub struct Observatory {
    metrics: PrometheusSink,
    tails: Mutex<BTreeMap<u64, Arc<MemorySink>>>,
    tail_cap: usize,
    /// Where `crash_tail_worker<id>.jsonl` dumps land; `None` disables
    /// dumping (the in-memory tail still accumulates).
    crash_dir: Option<PathBuf>,
}

impl Observatory {
    pub(crate) fn new(tail_cap: usize, crash_dir: Option<PathBuf>) -> Observatory {
        Observatory {
            metrics: PrometheusSink::new(),
            tails: Mutex::new(BTreeMap::new()),
            tail_cap,
            crash_dir,
        }
    }

    /// The underlying metric store (server series are added through it).
    #[must_use]
    pub fn metrics(&self) -> &PrometheusSink {
        &self.metrics
    }

    fn tail(&self, worker: u64) -> Arc<MemorySink> {
        Arc::clone(
            self.tails
                .lock()
                .expect("observatory poisoned")
                .entry(worker)
                .or_insert_with(|| Arc::new(MemorySink::new(self.tail_cap))),
        )
    }

    /// Fold one event a worker streamed in: fleet aggregation plus that
    /// worker's crash-tail ring. Workers never forward `Timing` events,
    /// so the tail is a verbatim suffix of the worker's JSONL log.
    pub(crate) fn worker_event(&self, worker: u64, event: &Event) {
        self.metrics.record(worker, event);
        use uvf_trace::Sink as _;
        self.tail(worker).record(event);
    }

    /// Mark `worker` alive (`uvf_worker_liveness{worker="N"} 1`).
    pub(crate) fn worker_alive(&self, worker: u64) {
        self.metrics.set_worker_gauge("worker_liveness", worker, 1);
    }

    /// Mark `worker` dead and dump its crash tail to
    /// `crash_tail_worker<id>.jsonl` under the crash dir. Dumping is
    /// best-effort forensics; failures are swallowed by design.
    pub(crate) fn worker_dead(&self, worker: u64) {
        self.metrics.set_worker_gauge("worker_liveness", worker, 0);
        if let Some(dir) = &self.crash_dir {
            let tail = self.tail(worker);
            if !tail.is_empty() {
                let _ = std::fs::create_dir_all(dir);
                let _ = tail.dump(dir.join(format!("crash_tail_worker{worker}.jsonl")));
            }
        }
    }

    /// Render the combined fleet + server exposition.
    #[must_use]
    pub fn render(&self) -> String {
        self.metrics.render()
    }
}

/// One subscriber: a bounded drop-oldest [`MemorySink`] queue plus a
/// `closed` flag. The publisher (the server, under its state lock) pushes
/// whole blocks; the subscriber's writer thread drains batches at its own
/// pace. Overflow evicts the *oldest* events — the stream keeps up with
/// the present and the gap is accounted — so a throttled observer can
/// never apply backpressure to the campaign.
pub(crate) struct Subscriber {
    pub(crate) queue: MemorySink,
    closed: AtomicBool,
}

impl Subscriber {
    pub(crate) fn new(cap: usize) -> Subscriber {
        Subscriber {
            queue: MemorySink::new(cap),
            closed: AtomicBool::new(false),
        }
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// Shared run flags: `stop` is the operator's abort switch, `finished`
/// flips once every job is terminal *and* all its events are published —
/// the signal subscriber writers use to send their final `done` batch.
pub(crate) struct Flags {
    pub(crate) stop: AtomicBool,
    pub(crate) finished: AtomicBool,
}

impl Flags {
    pub(crate) fn new() -> Arc<Flags> {
        Arc::new(Flags {
            stop: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_trace::EventKind;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            kind: EventKind::Instant,
            name: "e".into(),
            span: None,
            parent: None,
            sim_ms: None,
            wall_ns: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn subscriber_queue_bounds_and_accounts_drops() {
        let sub = Subscriber::new(3);
        assert_eq!(sub.queue.push_block(&[ev(0), ev(1)]), 0);
        // Five queued against a cap of three: the two oldest go.
        assert_eq!(sub.queue.push_block(&[ev(2), ev(3), ev(4)]), 2);
        let (batch, dropped) = sub.queue.drain_up_to(10);
        assert_eq!(dropped, 2);
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "the queue keeps the newest events"
        );
        // Drop accounting is cumulative across pushes.
        assert_eq!(sub.queue.push_block(&[ev(5), ev(6), ev(7), ev(8)]), 1);
        let (_, dropped) = sub.queue.drain_up_to(10);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn pop_batch_respects_max_and_preserves_order() {
        let sub = Subscriber::new(100);
        let events: Vec<Event> = (0..10).map(ev).collect();
        sub.queue.push_block(&events);
        let (first, _) = sub.queue.drain_up_to(4);
        let (rest, _) = sub.queue.drain_up_to(100);
        let seqs: Vec<u64> = first.iter().chain(&rest).map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dead_worker_dumps_its_flight_tail() {
        let dir = std::env::temp_dir().join(format!("uvf-observatory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let obs = Observatory::new(4, Some(dir.clone()));
        obs.worker_alive(9);
        for seq in 0..6u64 {
            obs.worker_event(9, &ev(seq));
        }
        obs.worker_dead(9);
        let dump = dir.join("crash_tail_worker9.jsonl");
        let text = std::fs::read_to_string(&dump).expect("crash tail written");
        assert_eq!(text.lines().count(), 4, "bounded to the ring capacity");
        assert!(text.lines().all(|l| l.starts_with('{')));
        assert_eq!(
            obs.metrics().gauge("worker_liveness").get(&Some(9)),
            Some(&0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
