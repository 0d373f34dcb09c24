//! The benchmark counts as product code.

fn main() {
    fixture::used_by_bench();
}
