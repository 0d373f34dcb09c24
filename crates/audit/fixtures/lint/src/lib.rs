//! The fixtures of the determinism rules clippy enforces, one cargo
//! feature each, so that `.github/clippy_fixtures.sh` can lint each one
//! alone: a `bad` fixture must fail with its rule's lints, and its
//! `clean` twin must pass. With no feature the library is empty.

#[cfg(feature = "bad_hot_panic")]
#[path = "../../bad/hot_panic.rs"]
pub mod bad_hot_panic;
#[cfg(feature = "clean_hot_panic")]
#[path = "../../clean/hot_panic.rs"]
pub mod clean_hot_panic;

#[cfg(feature = "bad_justify_allow")]
#[path = "../../bad/justify_allow.rs"]
pub mod bad_justify_allow;
#[cfg(feature = "clean_justify_allow")]
#[path = "../../clean/justify_allow.rs"]
pub mod clean_justify_allow;

#[cfg(feature = "bad_justify_unsafe")]
#[path = "../../bad/justify_unsafe.rs"]
pub mod bad_justify_unsafe;
#[cfg(feature = "clean_justify_unsafe")]
#[path = "../../clean/justify_unsafe.rs"]
pub mod clean_justify_unsafe;

#[cfg(feature = "bad_wall_clock")]
#[path = "../../bad/wall_clock.rs"]
pub mod bad_wall_clock;
#[cfg(feature = "clean_wall_clock")]
#[path = "../../clean/wall_clock.rs"]
pub mod clean_wall_clock;
