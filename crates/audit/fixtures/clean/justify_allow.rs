// Known-clean twin: the opt-out says why, in the attribute.
#[allow(dead_code, reason = "kept as the public-API sketch for the next PR")]
fn scratch() {}
