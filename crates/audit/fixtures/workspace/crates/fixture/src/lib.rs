//! Fixture crate for the `test-only-pub` rule. Each item's name says
//! which code names it; the corpus test pins which ones are flagged.

/// Named only by `tests/it.rs`: flagged.
pub fn only_in_tests() {}

/// Named only by test code below and by comments such as this one,
/// `ONLY_IN_TEST_CODE`: flagged.
pub const ONLY_IN_TEST_CODE: u32 = 1;

pub mod inner {
    /// Named only by the `pub use` below: flagged.
    pub struct OnlyReexported;
}

pub use inner::OnlyReexported;

/// Named by the example: kept.
pub fn used_by_example() {}

/// Named by the benchmark: kept.
pub fn used_by_bench() {}

/// Named by product code in this file: kept.
pub fn used_in_product() -> u32 {
    2
}

/// Kept for the crate's users outside this workspace.
// audit: fixture of a justified item
pub fn justified() {}

/// Test-only code may name anything.
#[cfg(test)]
pub fn test_helper() -> u32 {
    ONLY_IN_TEST_CODE
}

/// Restricted visibility is not product API.
pub(crate) fn crate_only() {}

/// Uses `used_in_product`, so it is named by product code.
pub fn caller() -> u32 {
    used_in_product() + caller_count()
}

fn caller_count() -> u32 {
    0
}

/// Named only by its own impl blocks and by `tests/it.rs`: flagged.
pub struct OnlyInOwnImpl {
    part: NamedInAnotherImpl,
}

impl OnlyInOwnImpl {
    fn build() -> OnlyInOwnImpl {
        OnlyInOwnImpl {
            part: NamedInAnotherImpl,
        }
    }
}

impl Default for OnlyInOwnImpl {
    fn default() -> OnlyInOwnImpl {
        OnlyInOwnImpl::build()
    }
}

/// Named inside another type's impl: kept.
pub struct NamedInAnotherImpl;

#[cfg(test)]
mod tests {
    #[test]
    fn helper() {
        assert_eq!(super::test_helper(), super::ONLY_IN_TEST_CODE);
    }
}
