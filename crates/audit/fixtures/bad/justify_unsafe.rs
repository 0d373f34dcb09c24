// Known-bad: unsafe without a SAFETY argument. (The workspace forbids
// unsafe outright; this fixture keeps the lint exercised.)
pub fn read(value: &u8) -> u8 {
    let p: *const u8 = value;
    unsafe { *p }
}
