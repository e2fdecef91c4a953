//! Print any `mantle-core` table: the paper's tables and figures, and the
//! later experiments, on the simulated cluster.
//!
//! ```text
//! cargo run --release -p mantle-core --bin repro -- all          # everything, quick
//! cargo run --release -p mantle-core --bin repro -- fig8 --full  # one figure, full size
//! cargo run --release -p mantle-core --bin repro -- --help       # the target list
//! ```

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match mantle_core::repro::parse_args(&args) {
        Ok(((_, table), opts)) => println!("{}", table(opts)),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
