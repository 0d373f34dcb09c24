// Known-clean twin: failures surface as values; invariants use
// debug_assert, which compiles out of release replays.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub fn dispatch(next: Option<u64>) -> Option<u64> {
    let event = next?;
    debug_assert!(event != 0, "empty schedule");
    Some(event)
}
