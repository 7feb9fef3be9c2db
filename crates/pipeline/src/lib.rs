//! # hist-pipeline
//!
//! The live telemetry pipeline: the composition layer that chains every
//! serving-oriented piece of this workspace into the scenario the mergeable
//! histogram summaries of the source paper (Acharya, Diakonikolas, Hegde,
//! Li, Schmidt — PODS 2015) exist for:
//!
//! ```text
//!   EventSource ──► MetricPipeline ──► StoreMap ──► HistServer ──► HistClient
//!   (synthetic      (StreamingBuilder;  (keyed,      (wire v4)      (live
//!    events,         chunk fits)         epoch-                      p50/p99/
//!    seekable)                           stamped)                    p999)
//!        │                │  update_merge                  ▲
//!        │                └── checkpoint ──► resume ───────┘
//!        └── one lane per metric, all lanes on one ingest thread
//! ```
//!
//! * [`EventSource`] — deterministic, seekable synthetic event streams
//!   (generators from `hist-datasets`), so a resumed ingester replays the
//!   exact suffix an uninterrupted run would have consumed.
//! * [`MetricPipeline`] — one metric's lane: a cumulative
//!   [`StreamingBuilder`](hist_stream::StreamingBuilder) whose completed
//!   chunks are merged into the store one epoch at a time. Lanes
//!   checkpoint/resume bit-identically *without* touching the serving
//!   store — kill the ingester, the server keeps answering from published
//!   epochs, resume, and every subsequent answer is the one the
//!   uninterrupted run would have served.
//! * [`TelemetryPipeline`] — drives many lanes round-robin into one shared
//!   [`StoreMap`](hist_serve::StoreMap), synchronously or on a background
//!   ingest thread ([`IngestHandle`]), while the map is concurrently served
//!   over the wire.
//!
//! The publish cadence (chunk length) is the freshness/accuracy knob:
//! shorter chunks mint epochs more often but spend more merge error per
//! event — `BENCH_pipeline.json` quantifies the trade-off. Each store
//! reports the merge error it has accumulated
//! ([`MergeCounters`](hist_serve::MergeCounters)), a bound on the served
//! synopsis' drift from the concatenated chunk fits.
//!
//! ## Example: one metric, ingest to query
//!
//! ```
//! use std::sync::Arc;
//! use hist_core::{EstimatorBuilder, GreedyMerging};
//! use hist_pipeline::{EventSource, MetricPipeline, TelemetryPipeline};
//! use hist_serve::StoreMap;
//!
//! let map = Arc::new(StoreMap::new());
//! let inner = Box::new(GreedyMerging::new(EstimatorBuilder::new(6)));
//! let lane = MetricPipeline::cumulative("api/latency", inner, 6, 256).unwrap();
//! let source = EventSource::synthetic("api/latency", 42, 2_048).unwrap();
//!
//! let mut pipeline = TelemetryPipeline::new(Arc::clone(&map)).with_batch(512);
//! pipeline.add_lane(source, lane);
//! let report = pipeline.run_until(4_096).unwrap();
//! assert_eq!(report.events, 4_096);
//! assert_eq!(report.publishes, 16, "one epoch per 256-event chunk");
//!
//! // The served synopsis covers everything ingested so far.
//! let snapshot = map.snapshot("api/latency").unwrap();
//! assert_eq!(snapshot.domain(), 4_096);
//! let p99 = snapshot.synopsis().quantile(0.99).unwrap();
//! assert!(p99 < 4_096);
//! ```

pub mod metric;
pub mod runner;
pub mod source;

pub use metric::MetricPipeline;
pub use runner::{IngestHandle, PipelineReport, TelemetryPipeline};
pub use source::EventSource;
