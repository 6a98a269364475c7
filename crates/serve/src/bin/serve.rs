//! Standalone scenario service.
//!
//! ```text
//! cargo run --release -p gather-serve --bin serve -- --addr 127.0.0.1:8080
//! ```
//!
//! Runs until stdin reaches EOF (Ctrl-D, or the end of a piped script),
//! then drains admitted work and exits — a shutdown trigger that needs no
//! signal handling and stays scriptable: `echo | serve` starts and
//! cleanly stops a server.

use gather_serve::{ServeConfig, Server};
use std::io::BufRead;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]\n\
         \x20            [--dispatchers N] [--shards N] [--no-epoll]\n\
         \n\
         --addr HOST:PORT  bind address (default 127.0.0.1:8080; port 0 = ephemeral)\n\
         --workers N       simulation worker threads (default: available cores)\n\
         --queue N         admission-queue capacity (default 32)\n\
         --cache N         result-cache entries (default GATHER_CACHE_ENTRIES or 4096;\n\
         \x20                0 disables caching)\n\
         --dispatchers N   dispatcher lanes (default: one per worker)\n\
         --shards N        event-loop shards (default: min(cores, 4))\n\
         --no-epoll        force the thread-per-connection engine\n\
         \x20                (GATHER_NO_EPOLL=1 does the same)"
    );
    std::process::exit(2)
}

fn main() {
    let mut config = ServeConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => {
                config.queue_capacity = value("--queue").parse().unwrap_or_else(|_| usage())
            }
            "--cache" => {
                config.cache_entries = Some(value("--cache").parse().unwrap_or_else(|_| usage()))
            }
            "--dispatchers" => {
                config.dispatchers = value("--dispatchers").parse().unwrap_or_else(|_| usage())
            }
            "--shards" => {
                config.loop_shards = value("--shards").parse().unwrap_or_else(|_| usage())
            }
            "--no-epoll" => config.event_loop = false,
            _ => usage(),
        }
    }

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "gather-serve listening on http://{} (engine: {})",
        server.addr(),
        server.engine()
    );
    println!(
        "routes: POST /v1/run, POST /v1/batch, POST /v1/trace, GET /v1/metrics, GET /v1/healthz"
    );
    println!("close stdin (Ctrl-D) to drain and shut down");

    // Park until stdin EOF.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    eprintln!("stdin closed; draining in-flight work");
    server.shutdown();
    eprintln!("shutdown complete");
}
