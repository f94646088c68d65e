//! Untraced end-to-end runs (`--trace 0`): the system allocator, no
//! spans, nothing between the benchmark and the program but the timer
//! around each phase.

fn main() {
    std::process::exit(nf_perfbench::main(false));
}
