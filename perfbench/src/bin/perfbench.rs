//! The benchmark binary: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. The counting allocator is always
//! installed, so a traced run can report `bench.allocs_per_msg`.

#[global_allocator]
static ALLOC: shrimp_perfbench::alloc::CountingAlloc = shrimp_perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(shrimp_perfbench::cli::main(std::env::args().skip(1)));
}
