// Known-bad: aborts on a hot-path file, which denies them as the hot
// files do.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub fn dispatch(next: Option<u64>) -> u64 {
    let event = next.unwrap();
    if event == 0 {
        panic!("empty schedule");
    }
    event
}

pub fn next_due(next: Option<u64>) -> u64 {
    match next.expect("a pending event") {
        0 => unreachable!("events are numbered from 1"),
        event => event,
    }
}
