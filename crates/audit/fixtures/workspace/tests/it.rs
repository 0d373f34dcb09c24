//! Integration tests do not count as uses.

#[test]
fn calls_only_in_tests() {
    fixture::only_in_tests();
    let _ = fixture::OnlyReexported;
    let _ = fixture::OnlyInOwnImpl::default();
}
