// Known-clean twin: time comes from the simulated clock; a host read,
// even in a test, states its reason.
pub fn measure(clock_before_ms: f64, clock_after_ms: f64) -> f64 {
    clock_after_ms - clock_before_ms
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_reads_in_tests_state_a_reason() {
        #[expect(clippy::disallowed_methods, reason = "the fixture's escape hatch")]
        let _ = std::env::var("VOODB_OUT");
    }
}
