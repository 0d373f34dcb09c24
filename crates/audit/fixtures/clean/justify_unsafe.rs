// Known-clean twin: the unsafe block argues its safety.
pub fn read(value: &u8) -> u8 {
    let p: *const u8 = value;
    // SAFETY: `p` comes from a live reference, so it is valid for reads.
    unsafe { *p }
}
