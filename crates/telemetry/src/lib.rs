//! Telemetry substrate for the AETR simulator.
//!
//! The paper's claim is *energy proportionality* — power and timestamp
//! error as a function of instantaneous event rate — which end-of-run
//! aggregates cannot show. This crate provides the four observability
//! primitives wired through the interface (DESIGN.md §11):
//!
//! 1. a handle-based [`registry::MetricsRegistry`] (counters, gauges,
//!    fixed-bucket [`histogram::FixedHistogram`]s) with hierarchical
//!    names matching the tracer scopes;
//! 2. typed [`span::SpanLog`] tracing over simulated time, exportable
//!    as Chrome `trace_event` JSON and foldable into per-component
//!    time-in-state residency;
//! 3. a live [`sampler::TimeSeries`] snapshotting rate / power /
//!    divider level / FIFO depth on a simulated-time cadence;
//! 4. wall-clock [`profile::Profiler`] hooks (events/sec, queue
//!    ops/sec) for bench attribution.
//!
//! Instrumentation is zero-cost when disabled: the collector created by
//! [`Telemetry::disabled`] answers `enabled() == false`, every record
//! method returns immediately, and the interface schedules no sampling
//! events — `AerToI2sInterface::run` output is bit-identical with and
//! without it (asserted by `tests/telemetry.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod lineage;
pub mod profile;
pub mod registry;
pub mod sampler;
pub mod span;

use aetr_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::json::Json;
use crate::lineage::LineageLog;
use crate::profile::{Profiler, WallClockProfile};
use crate::registry::MetricsRegistry;
use crate::sampler::TimeSeries;
use crate::span::{SpanKind, SpanLog};

/// How (and whether) a run collects telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch; when false the collector is a no-op sink.
    pub enabled: bool,
    /// Simulated-time cadence of the live sampler; `None` disables
    /// sampling while keeping metrics and spans.
    pub sample_cadence: Option<SimDuration>,
    /// Collect per-event [`lineage::EventLineage`] records (requires
    /// [`enabled`](Self::enabled); see DESIGN.md §14).
    pub lineage: bool,
}

impl TelemetryConfig {
    /// Telemetry fully off (the default for `run()`).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig { enabled: false, sample_cadence: None, lineage: false }
    }

    /// Metrics + spans + sampler at the default 100 µs cadence.
    pub fn enabled() -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            sample_cadence: Some(SimDuration::from_us(100)),
            lineage: false,
        }
    }

    /// Metrics + spans + sampler at a caller-chosen cadence.
    pub fn with_cadence(cadence: SimDuration) -> TelemetryConfig {
        TelemetryConfig { enabled: true, sample_cadence: Some(cadence), lineage: false }
    }

    /// Builder: additionally collect per-event lineage records.
    pub fn with_lineage(mut self) -> TelemetryConfig {
        self.lineage = true;
        self
    }

    /// Whether lineage records should be collected (master switch on
    /// *and* lineage requested).
    pub fn lineage_enabled(&self) -> bool {
        self.enabled && self.lineage
    }
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig::disabled()
    }
}

/// Live telemetry collector owned by a running interface.
///
/// All record methods check [`Telemetry::is_enabled`] first, so a
/// disabled collector costs one predictable branch per call site.
#[derive(Debug, Clone)]
pub struct Telemetry {
    config: TelemetryConfig,
    /// Metrics registry (public: callers pre-register handles).
    pub metrics: MetricsRegistry,
    /// Span log (public: callers open/close typed spans).
    pub spans: SpanLog,
    /// Live sampler output.
    pub series: TimeSeries,
    /// Per-event lineage records (filled only when
    /// [`TelemetryConfig::lineage_enabled`]).
    pub lineage: LineageLog,
    profiler: Option<Profiler>,
}

impl Telemetry {
    /// A no-op sink: nothing is recorded, nothing is allocated beyond
    /// the empty containers.
    pub fn disabled() -> Telemetry {
        Telemetry::new(TelemetryConfig::disabled())
    }

    /// Creates a collector for the given config and starts the
    /// wall-clock profiler when enabled.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        let series = match config.sample_cadence {
            Some(c) if config.enabled => TimeSeries::new(c),
            _ => TimeSeries::default(),
        };
        Telemetry {
            config,
            metrics: MetricsRegistry::new(),
            spans: SpanLog::new(),
            series,
            lineage: LineageLog::new(),
            profiler: config.enabled.then(Profiler::start),
        }
    }

    /// Whether this collector records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration this collector was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Sampling cadence when live sampling is active.
    pub fn sample_cadence(&self) -> Option<SimDuration> {
        if self.config.enabled {
            self.config.sample_cadence
        } else {
            None
        }
    }

    /// Finalises the collector into an immutable snapshot.
    ///
    /// `sim_events` and `queue_ops` feed the wall-clock profile; a
    /// disabled collector yields [`TelemetrySnapshot::empty`].
    pub fn into_snapshot(self, sim_events: u64, queue_ops: u64) -> TelemetrySnapshot {
        if !self.config.enabled {
            return TelemetrySnapshot::empty();
        }
        let profile = self.profiler.as_ref().map(|p| p.finish(sim_events, queue_ops));
        TelemetrySnapshot {
            enabled: true,
            metrics: self.metrics,
            spans: self.spans,
            series: self.series,
            lineage: self.lineage,
            profile,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

/// Immutable telemetry captured by one run; carried on
/// `InterfaceReport`.
///
/// Equality deliberately ignores the wall-clock [`WallClockProfile`]
/// (it is nondeterministic by nature); everything else — metrics,
/// spans, time series — is a pure function of the input train and
/// config, so snapshots participate in determinism tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    enabled: bool,
    /// Final metric values.
    pub metrics: MetricsRegistry,
    /// Completed spans.
    pub spans: SpanLog,
    /// Live sampler time series.
    pub series: TimeSeries,
    /// Per-event lineage records (empty unless lineage collection was
    /// enabled).
    pub lineage: LineageLog,
    /// Wall-clock profile (absent when telemetry was disabled).
    pub profile: Option<WallClockProfile>,
}

impl PartialEq for TelemetrySnapshot {
    fn eq(&self, other: &TelemetrySnapshot) -> bool {
        // `profile` is wall-clock derived and intentionally excluded.
        self.enabled == other.enabled
            && self.metrics == other.metrics
            && self.spans == other.spans
            && self.series == other.series
            && self.lineage == other.lineage
    }
}

impl TelemetrySnapshot {
    /// The snapshot a disabled collector produces.
    pub fn empty() -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: false,
            metrics: MetricsRegistry::new(),
            spans: SpanLog::new(),
            series: TimeSeries::default(),
            lineage: LineageLog::new(),
            profile: None,
        }
    }

    /// True when the run collected nothing (telemetry disabled).
    pub fn is_empty(&self) -> bool {
        !self.enabled
    }

    /// Sleep / divided / full-rate residency breakdown of the clock
    /// generator (see [`SpanLog::residency`]).
    pub fn clock_residency(&self) -> Vec<(&'static str, SimDuration)> {
        self.spans.residency(SpanKind::ClockState)
    }

    /// Full JSON export (the document validated by
    /// `schemas/telemetry.schema.json`).
    pub fn to_json(&self) -> Json {
        let counters = Json::Object(
            self.metrics
                .counters()
                .into_iter()
                .map(|(n, v)| (n.to_string(), Json::from(v)))
                .collect(),
        );
        let gauges = Json::Object(
            self.metrics
                .gauges()
                .into_iter()
                .map(|(n, v)| (n.to_string(), Json::from(v)))
                .collect(),
        );
        let histograms = Json::Object(
            self.metrics
                .histograms()
                .into_iter()
                .map(|(n, h)| {
                    let stats = h.stats();
                    (
                        n.to_string(),
                        Json::object([
                            (
                                "edges",
                                Json::Array(h.edges().iter().map(|e| Json::from(*e)).collect()),
                            ),
                            (
                                "counts",
                                Json::Array(
                                    h.bucket_counts().iter().map(|c| Json::from(*c)).collect(),
                                ),
                            ),
                            ("overflow", Json::from(h.overflow())),
                            ("non_finite", Json::from(h.non_finite())),
                            ("count", Json::from(stats.count())),
                            ("mean", Json::from(stats.mean())),
                            ("min", stats.min().map(Json::from).unwrap_or(Json::Null)),
                            ("max", stats.max().map(Json::from).unwrap_or(Json::Null)),
                        ]),
                    )
                })
                .collect(),
        );
        let mut by_kind: Vec<(String, Json)> = Vec::new();
        let mut residency: Vec<(String, Json)> = Vec::new();
        for kind in [
            SpanKind::Handshake,
            SpanKind::Wake,
            SpanKind::WatchdogRecovery,
            SpanKind::I2sFrame,
            SpanKind::ClockState,
        ] {
            by_kind.push((
                kind.label().to_string(),
                Json::from(self.spans.of_kind(kind).count() as u64),
            ));
            let folded = self.spans.residency(kind);
            if !folded.is_empty() {
                residency.push((
                    kind.label().to_string(),
                    Json::Object(
                        folded
                            .into_iter()
                            .map(|(name, d)| (name.to_string(), Json::from(d.as_ps())))
                            .collect(),
                    ),
                ));
            }
        }
        Json::object([
            ("version", Json::from(1_u64)),
            ("enabled", Json::from(self.enabled)),
            (
                "metrics",
                Json::object([
                    ("counters", counters),
                    ("gauges", gauges),
                    ("histograms", histograms),
                ]),
            ),
            (
                "spans",
                Json::object([
                    ("count", Json::from(self.spans.len() as u64)),
                    ("by_kind", Json::Object(by_kind.into_iter().collect())),
                    ("residency_ps", Json::Object(residency.into_iter().collect())),
                ]),
            ),
            ("timeseries", self.series.to_json()),
            ("profile", self.profile.map(|p| p.to_json()).unwrap_or(Json::Null)),
        ])
    }

    /// Prometheus text-exposition export of the metrics.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn sanitize(name: &str) -> String {
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
        }
        let mut out = String::new();
        for (name, v) in self.metrics.counters() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in self.metrics.gauges() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, h) in self.metrics.histograms() {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            for (edge, cum) in h.edges().iter().zip(h.cumulative()) {
                let _ = writeln!(out, "{n}_bucket{{le=\"{edge}\"}} {cum}");
            }
            let total = h.count();
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{n}_sum {}", h.stats().mean() * total as f64);
            let _ = writeln!(out, "{n}_count {total}");
        }
        out
    }

    /// Chrome `trace_event` export of the span log, plus lineage flow
    /// events (arrival → detection → I2S) when lineage was collected.
    pub fn to_chrome_trace(&self) -> String {
        self.to_chrome_trace_named("aetr")
    }

    /// Chrome `trace_event` export with a caller-chosen process name,
    /// so traces from multiple runs stay distinguishable when merged in
    /// Perfetto.
    pub fn to_chrome_trace_named(&self, process: &str) -> String {
        self.spans.to_chrome_trace_with(process, &self.lineage.chrome_flow_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aetr_sim::time::SimTime;

    #[test]
    fn disabled_collector_snapshots_empty() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.sample_cadence(), None);
        let snap = tel.into_snapshot(10, 20);
        assert!(snap.is_empty());
        assert!(snap.profile.is_none());
        assert_eq!(snap, TelemetrySnapshot::empty());
    }

    #[test]
    fn enabled_collector_carries_profile_but_ignores_it_in_eq() {
        let mut a = Telemetry::new(TelemetryConfig::enabled());
        let mut b = Telemetry::new(TelemetryConfig::enabled());
        for tel in [&mut a, &mut b] {
            let c = tel.metrics.counter("interface.events.captured");
            tel.metrics.inc(c, 5);
        }
        let sa = a.into_snapshot(5, 9);
        let sb = b.into_snapshot(5, 9);
        assert!(sa.profile.is_some());
        // Wall-clock numbers differ between the two runs, yet the
        // snapshots compare equal.
        assert_eq!(sa, sb);
    }

    #[test]
    fn json_export_validates_structure() {
        let mut tel = Telemetry::new(TelemetryConfig::with_cadence(SimDuration::from_us(10)));
        let c = tel.metrics.counter("interface.events.captured");
        tel.metrics.inc(c, 3);
        let g = tel.metrics.gauge("interface.fifo.occupancy");
        tel.metrics.set_gauge(g, 2.0);
        let h = tel.metrics.histogram("interface.fifo.depth", vec![1.0, 8.0]);
        tel.metrics.observe(h, 2.0);
        tel.spans.record(
            SpanKind::ClockState,
            "full-rate",
            SimTime::ZERO,
            SimTime::from_us(5),
            None,
        );
        tel.series.record(SimTime::from_us(10), 3, 1.5, 1, 0);
        let snap = tel.into_snapshot(3, 12);

        let text = snap.to_json().to_string();
        let parsed = json::parse(&text).expect("valid json");
        assert_eq!(parsed.get("version").unwrap().as_f64(), Some(1.0));
        let counters = parsed.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("interface.events.captured").unwrap().as_f64(), Some(3.0));
        let res = parsed.get("spans").unwrap().get("residency_ps").unwrap();
        assert!(res.get("clock_state").unwrap().get("full-rate").is_some());
        assert_eq!(
            parsed.get("timeseries").unwrap().get("points").unwrap().as_array().unwrap().len(),
            1
        );
    }

    #[test]
    fn prometheus_export_has_types_and_buckets() {
        let mut tel = Telemetry::new(TelemetryConfig::enabled());
        let c = tel.metrics.counter("interface.clockgen.divisions");
        tel.metrics.inc(c, 7);
        let h = tel.metrics.histogram("interface.fifo.depth", vec![1.0, 8.0]);
        tel.metrics.observe(h, 0.5);
        tel.metrics.observe(h, 100.0);
        let text = tel.into_snapshot(0, 0).to_prometheus();
        assert!(text.contains("# TYPE interface_clockgen_divisions counter"));
        assert!(text.contains("interface_clockgen_divisions 7"));
        assert!(text.contains("interface_fifo_depth_bucket{le=\"1\"} 1"));
        assert!(text.contains("interface_fifo_depth_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("interface_fifo_depth_count 2"));
    }
}
