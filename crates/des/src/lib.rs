//! Deterministic simulation substrate: virtual time, seeded randomness and
//! tracing.
//!
//! This crate is the lowest layer of the RT-SADS reproduction: it provides
//! a virtual clock ([`Time`], [`Duration`]), a seeded random-number helper
//! ([`SimRng`]) and a lightweight trace facility ([`trace::Tracer`]). The
//! driver in the `rtsads` crate advances the clock with its own next-event
//! phase loop.
//!
//! Everything is integer-based (microsecond ticks) so that simulations are
//! bit-for-bit reproducible across runs and platforms — a property the test
//! suite and the experiment harness both rely on.
//!
//! # Example
//!
//! ```
//! use paragon_des::{Duration, Time};
//!
//! let release = Time::ZERO + Duration::from_millis(1);
//! let deadline = release + Duration::from_micros(2_500);
//! assert_eq!(deadline.as_micros(), 3_500);
//! assert_eq!(deadline - release, Duration::from_micros(2_500));
//! assert_eq!(release.saturating_since(deadline), Duration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod time;
pub mod trace;

pub use rng::SimRng;
pub use time::{Duration, Time};
