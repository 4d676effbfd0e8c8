//! The simulator's observability bus: timeline events, interval metric
//! sampling and a hang watchdog — all strictly observation-only.
//!
//! Every cycle-stepped component (core, DMA engine, cache, cluster,
//! system) holds a cheap [`Tracer`] handle. With no subscriber attached
//! (the default) every emit is a single `Option` check and the simulated
//! machine is cycle-for-cycle identical to an untraced build — pinned by
//! the differential tests in `sc-kernels`. With a [`TraceSession`]
//! subscribed, components emit typed [`TraceEvent`]s through the
//! [`TraceSink`] trait into an in-memory buffer that exports:
//!
//! * a **Chrome/Perfetto trace-event JSON** timeline (`ph: "X"/"i"/"C"`
//!   events over `pid`/`tid` tracks — one process per cluster, one
//!   thread per core, plus DMA-engine and L2-channel tracks), loadable
//!   at `ui.perfetto.dev`;
//! * a **CSV time-series** of every registered [`MetricSource`]'s
//!   counters, snapshotted every [`TraceConfig::sample_every`] cycles.
//!
//! The third face is the [`Watchdog`]: the cluster/system run loops feed
//! it a *progress signature* (a sum of retirement-ish counters) each
//! cycle, and when the signature freezes for longer than the configured
//! limit while harts are unfinished, they assemble a [`HangReport`]
//! naming each blocked resource instead of spinning to `max_cycles`.

#![forbid(unsafe_code)]

mod sink;
mod watchdog;

pub use sink::{MemorySink, TraceSession};
pub use watchdog::{HangReport, ResourceState, Watchdog};

use std::sync::{Arc, Mutex};

/// A timeline row: Perfetto's `(pid, tid)` pair. By convention pid 0 is
/// the shared (system/L2) level and pid `c + 1` is cluster `c`; tids
/// number harts, with high tids for non-core engines (DMA, channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// Perfetto process id (track group).
    pub pid: u32,
    /// Perfetto thread id (row within the group).
    pub tid: u32,
}

impl Track {
    /// A track at `(pid, tid)`.
    #[must_use]
    pub const fn new(pid: u32, tid: u32) -> Self {
        Track { pid, tid }
    }
}

/// One typed observability event, emitted at the sink's current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent<'a> {
    /// What `track` is doing from this cycle until its next `State`.
    /// Consecutive identical labels coalesce into one span; the label
    /// `"idle"` closes the current span without opening a new one.
    State {
        /// The row whose activity changes.
        track: Track,
        /// Activity label (e.g. `"fp-issue"`, a stall cause).
        label: &'a str,
    },
    /// Opens a nested span on `track` (e.g. a DMA burst, a refill job).
    SpanBegin {
        /// The row the span lives on.
        track: Track,
        /// Span name.
        name: &'a str,
    },
    /// Closes the innermost open span on `track`.
    SpanEnd {
        /// The row whose span ends.
        track: Track,
    },
    /// A point-in-time marker (doorbell rung, prefetch hit, barrier).
    Instant {
        /// The row the marker sits on.
        track: Track,
        /// Marker name.
        name: &'a str,
    },
    /// A counter track sample; unchanged values are deduplicated.
    Counter {
        /// The row the counter renders under.
        track: Track,
        /// Counter name.
        name: &'a str,
        /// Current value.
        value: u64,
    },
    /// Names the process (track group) `pid`.
    NameProcess {
        /// The group to name.
        pid: u32,
        /// Display name.
        name: &'a str,
    },
    /// Names the thread (row) at `track`.
    NameThread {
        /// The row to name.
        track: Track,
        /// Display name.
        name: &'a str,
    },
    /// One interval-sampled metric value (goes to the CSV time-series,
    /// not the timeline).
    Sample {
        /// The row whose component was sampled.
        track: Track,
        /// The [`MetricSource::source_name`] of the sampled stats.
        source: &'a str,
        /// Metric name within the source.
        name: &'a str,
        /// Value at the sample cycle.
        value: u64,
    },
}

/// Receives the event stream. The shipped implementations are
/// [`MemorySink`] (buffers and exports) and [`NullSink`] — whose empty
/// inlined methods compile away entirely, the zero-cost baseline the
/// disabled [`Tracer`] handle also hits via its `None` fast path.
pub trait TraceSink: Send {
    /// Advances the sink's notion of "now" (called once per simulated
    /// cycle by whoever owns the step loop).
    fn set_cycle(&mut self, cycle: u64);
    /// Records one event at the current cycle.
    fn record(&mut self, event: TraceEvent<'_>);
}

/// The no-op sink: tracing compiled away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn set_cycle(&mut self, _cycle: u64) {}
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent<'_>) {}
}

/// Uniform name/value iteration over a stats struct, so sampling,
/// serialization and required-metric discovery all walk the same list
/// instead of hand-maintaining field plumbing in three places.
pub trait MetricSource {
    /// A short stable identifier for the struct (e.g. `"core"`, `"l2"`).
    fn source_name(&self) -> &'static str;
    /// Visits every `(metric name, current value)` pair in a stable
    /// order.
    fn visit_metrics(&self, visit: &mut dyn FnMut(&'static str, u64));
}

/// Knobs of a [`TraceSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Snapshot every registered [`MetricSource`] each time the cycle
    /// count crosses a multiple of this; **0 disables sampling**.
    pub sample_every: u64,
}

impl TraceConfig {
    /// Timeline events on, metric sampling every 1024 cycles.
    #[must_use]
    pub fn new() -> Self {
        TraceConfig { sample_every: 1024 }
    }

    /// Sets the sampling interval (0 = timeline events only).
    #[must_use]
    pub fn with_sample_every(mut self, sample_every: u64) -> Self {
        self.sample_every = sample_every;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The cheap, cloneable handle components emit through. `Default` is
/// **off**: every method is an inlined `None` check, so an untraced run
/// pays one predictable branch per emit site and nothing else.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<dyn TraceSink>>>,
    sample_every: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("subscribed", &self.sink.is_some())
            .field("sample_every", &self.sample_every)
            .finish()
    }
}

impl Tracer {
    /// The disabled handle (same as `Default`).
    #[must_use]
    pub fn off() -> Self {
        Tracer::default()
    }

    /// A handle feeding `sink`, sampling every `sample_every` cycles
    /// (0 = never). [`TraceSession::tracer`] is the usual constructor.
    #[must_use]
    pub fn to_sink(sink: Arc<Mutex<dyn TraceSink>>, sample_every: u64) -> Self {
        Tracer {
            sink: Some(sink),
            sample_every,
        }
    }

    /// Whether a sink is subscribed.
    #[inline]
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Advances the sink's cycle (owned by the outermost step loop —
    /// exactly one caller per simulated cycle).
    #[inline]
    pub fn set_cycle(&self, cycle: u64) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("trace sink poisoned").set_cycle(cycle);
        }
    }

    /// Emits one event (no-op when off).
    #[inline]
    pub fn emit(&self, event: TraceEvent<'_>) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("trace sink poisoned").record(event);
        }
    }

    /// Emits a [`TraceEvent::State`].
    #[inline]
    pub fn state(&self, track: Track, label: &str) {
        self.emit(TraceEvent::State { track, label });
    }

    /// Emits a [`TraceEvent::SpanBegin`].
    #[inline]
    pub fn begin(&self, track: Track, name: &str) {
        self.emit(TraceEvent::SpanBegin { track, name });
    }

    /// Emits a [`TraceEvent::SpanEnd`].
    #[inline]
    pub fn end(&self, track: Track) {
        self.emit(TraceEvent::SpanEnd { track });
    }

    /// Emits a [`TraceEvent::Instant`].
    #[inline]
    pub fn instant(&self, track: Track, name: &str) {
        self.emit(TraceEvent::Instant { track, name });
    }

    /// Emits a [`TraceEvent::Counter`].
    #[inline]
    pub fn counter(&self, track: Track, name: &str, value: u64) {
        self.emit(TraceEvent::Counter { track, name, value });
    }

    /// Names a process (track group).
    #[inline]
    pub fn name_process(&self, pid: u32, name: &str) {
        self.emit(TraceEvent::NameProcess { pid, name });
    }

    /// Names a thread (row).
    #[inline]
    pub fn name_thread(&self, track: Track, name: &str) {
        self.emit(TraceEvent::NameThread { track, name });
    }

    /// The configured sampling cadence in cycles (0 = sampling
    /// disabled). Event-driven owners use this to synthesize the
    /// carry-forward sample rows a skipped window would have produced
    /// under dense stepping, at exactly the dense cadence points.
    #[inline]
    #[must_use]
    pub fn sample_cadence(&self) -> u64 {
        self.sample_every
    }

    /// Whether `cycle` is a sampling point (off handles never sample).
    #[inline]
    #[must_use]
    pub fn wants_sample(&self, cycle: u64) -> bool {
        self.sink.is_some() && self.sample_every > 0 && cycle.is_multiple_of(self.sample_every)
    }

    /// Whether a run that ended after `cycles` simulated cycles owes
    /// its run-end partial-interval sample: sampling is on and the last
    /// simulated cycle was not itself a sampling point (whose rows
    /// already hold the final state). A run of no cycles owes one.
    #[must_use]
    pub fn final_sample_owed(&self, cycles: u64) -> bool {
        self.sink.is_some()
            && self.sample_every > 0
            && (cycles == 0 || !self.wants_sample(cycles - 1))
    }

    /// Snapshots every metric of `source` into the time-series, under
    /// `track`.
    pub fn sample(&self, track: Track, source: &dyn MetricSource) {
        let Some(sink) = &self.sink else {
            return;
        };
        let mut sink = sink.lock().expect("trace sink poisoned");
        let source_name = source.source_name();
        source.visit_metrics(&mut |name, value| {
            sink.record(TraceEvent::Sample {
                track,
                source: source_name,
                name,
                value,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tracer_is_off_and_inert() {
        let t = Tracer::default();
        assert!(!t.is_on());
        assert!(!t.wants_sample(0));
        // Every emit path is a no-op.
        t.set_cycle(7);
        t.state(Track::new(0, 0), "busy");
        t.counter(Track::new(0, 0), "depth", 3);
        t.instant(Track::new(0, 0), "mark");
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.set_cycle(1);
        s.record(TraceEvent::Instant {
            track: Track::new(0, 0),
            name: "x",
        });
    }

    #[test]
    fn sampling_interval_gates_wants_sample() {
        let session = TraceSession::new(TraceConfig::new().with_sample_every(100));
        let t = session.tracer();
        assert!(t.is_on());
        assert!(t.wants_sample(0));
        assert!(!t.wants_sample(99));
        assert!(t.wants_sample(200));
        let none = TraceSession::new(TraceConfig::new().with_sample_every(0));
        assert!(!none.tracer().wants_sample(0));
    }

    #[test]
    fn final_sample_is_owed_unless_the_last_cycle_sampled() {
        let session = TraceSession::new(TraceConfig::new().with_sample_every(100));
        let t = session.tracer();
        assert!(t.final_sample_owed(0), "a run of no cycles sampled nothing");
        assert!(!t.final_sample_owed(1), "cycle 0 was a sampling point");
        assert!(t.final_sample_owed(2));
        assert!(t.final_sample_owed(100));
        assert!(!t.final_sample_owed(201), "cycle 200 was a sampling point");
        let none = TraceSession::new(TraceConfig::new().with_sample_every(0));
        assert!(!none.tracer().final_sample_owed(2));
        assert!(!Tracer::off().final_sample_owed(2));
    }
}
