//! # uvf-trace
//!
//! Zero-dependency structured observability for the undervolting
//! workspace: spans, counters, latency histograms, pluggable sinks and
//! run manifests.
//!
//! The design constraint that shapes everything here is **passivity**:
//! the sweep/campaign/accelerator stack guarantees bit-identical results
//! across sequential, parallel and checkpoint-resumed executions, and
//! instrumentation must not bend that. Concretely:
//!
//! * emitting an event never draws randomness and never feeds back into
//!   the instrumented computation;
//! * the JSONL event log serializes only the *deterministic core* of each
//!   event (wall-clock durations stay in the metric sinks), so a traced
//!   sweep writes a byte-identical log on every rerun;
//! * a disabled [`Tracer`] — the default everywhere — short-circuits
//!   before reading a clock or taking a lock, so instrumented hot paths
//!   cost nothing when nobody is listening.
//!
//! ## Pieces
//!
//! * [`Tracer`] / [`Span`] — the emitting handle and its RAII scoped
//!   timer; spans nest per-thread.
//! * [`Histogram`] — fixed power-of-two buckets (128 ns …) with a count
//!   and an exact sum; percentiles are read off its exported buckets.
//! * [`Sink`] implementations: [`JsonlSink`] (byte-stable event log),
//!   [`PrometheusSink`] (the one metric store and text exposition:
//!   counters summed, histograms bucket-merged, gauges unlabeled or per
//!   worker — it is also the campaign server's fleet `/metrics`), and
//!   [`MemorySink`] (the one bounded drop-oldest ring: live progress,
//!   crash tails, subscriber queues).
//! * [`Manifest`] — the per-run metadata document the `repro` binary
//!   writes next to each figure/table.
//! * [`write_atomic`] — temp file, fsync, rename: how every persisted
//!   document of the workspace is saved.
//! * [`json`] — the byte-stable JSON value tree shared by the whole
//!   workspace (grew up in `uvf-characterize`, which re-exports it).

#![deny(deprecated)]

pub mod atomic;
pub mod event;
pub mod histogram;
pub mod json;
pub mod manifest;
pub mod merge;
pub mod sink;
pub mod tracer;

pub use atomic::{tmp_path, write_atomic};
pub use event::{Event, EventKind, Value};
pub use histogram::{bucket_upper_ns, Histogram, BUCKET_COUNT};
pub use json::{Json, JsonError};
pub use manifest::{Manifest, PhaseTime};
pub use merge::{merge_event_streams, offset_event};
pub use sink::{
    parse_exposition, sanitize_metric_name, JsonlSink, MemorySink, PrometheusSink, Sink,
};
pub use tracer::{Span, Tracer, TracerBuilder};
