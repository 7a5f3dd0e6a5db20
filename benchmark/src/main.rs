//! `teamsteal-benchmark`: see `teamsteal_benchmark::cli` and `README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(teamsteal_benchmark::cli::main_with_args(&args));
}
