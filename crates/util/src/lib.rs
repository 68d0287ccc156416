//! Shared primitives for the PCcheck reproduction.
//!
//! This crate hosts the small, dependency-light vocabulary types that every
//! other crate in the workspace speaks:
//!
//! * [`ByteSize`] — an exact byte count with human-readable formatting and
//!   GB/MB constructors matching the paper's units.
//! * [`Bandwidth`] — bytes/second with transfer-time arithmetic.
//! * [`SimTime`] / [`SimDuration`] — the virtual clock used by the
//!   discrete-event simulator (nanosecond resolution, totally ordered).
//! * [`stats`] — summary statistics (mean/stddev/percentiles) used when
//!   aggregating repeated experiment runs.
//! * [`csv`] — a tiny dependency-free CSV writer for experiment output.
//! * [`json`] — a tiny dependency-free JSON reader (the workspace emits
//!   JSON by hand; this is the matching parser for artifacts and tests).
//! * [`rng`] — the deterministic seeded generator, so every experiment is
//!   reproducible bit-for-bit, and the seeded property-test runner.
//! * [`sync`] — the workspace's non-poisoning `Mutex`/`RwLock`/`Condvar`.
//! * [`throttle`] — a token-bucket rate limiter used by the concrete
//!   (real-thread) storage devices to model limited bandwidth.
//!
//! # Examples
//!
//! ```
//! use pccheck_util::{Bandwidth, ByteSize};
//!
//! // How long does a 16.2 GB OPT-1.3B checkpoint take on a ~0.44 GB/s SSD?
//! let ckpt = ByteSize::from_gb(16.2);
//! let ssd = Bandwidth::from_gb_per_sec(0.44);
//! let t = ssd.transfer_time(ckpt);
//! assert!(t.as_secs_f64() > 35.0 && t.as_secs_f64() < 39.0);
//! ```

pub mod csv;
pub mod fnv;
pub mod json;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod throttle;
pub mod time;
pub mod units;

pub use csv::CsvWriter;
pub use fnv::{chunk_digest, fnv1a, fnv1a_fold};
pub use json::JsonValue;
pub use stats::Summary;
pub use throttle::TokenBucket;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize};
