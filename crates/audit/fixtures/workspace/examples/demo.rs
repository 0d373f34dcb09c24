//! An example counts as product code.

fn main() {
    fixture::used_by_example();
    let _ = fixture::caller();
}
