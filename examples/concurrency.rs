//! Virtual threads: Erlang-style concurrency with hash-based flow
//! placement (§3.2, §6.6).
//!
//! Compiles a small HILTI program whose thread-local state counts work per
//! virtual thread, schedules jobs by flow hash across a pool of hardware
//! workers, and shows that (i) each worker keeps private thread-local
//! globals, and (ii) per-flow processing is serialized without locks.
//!
//! Run with: `cargo run --release --example concurrency`

use hilti::passes::OptLevel;
use hilti::threads::ThreadPool;
use hilti::value::Value;
use hilti_rt::addr::{Addr, Port};
use hilti_rt::hashutil::flow_hash;

const SRC: &str = r#"
module Counter

# Thread-local: each virtual thread's worker keeps its own copy (no truly
# global state in HILTI).
global int<64> jobs = 0
global int<64> checksum = 0

void work(int<64> x) {
    jobs = int.add jobs 1
    checksum = int.add checksum x
}

void report() {
    local string line
    line = string.fmt "worker handled {} jobs, checksum {}" jobs checksum
    call Hilti::print line
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = 4;
    let factory = || {
        let p =
            hilti::Program::from_sources(&[SRC], OptLevel::Full).expect("counter program compiles");
        p.compiled().clone()
    };
    let pool = ThreadPool::new(factory, workers);
    println!("pool: {} hardware workers", pool.workers());

    // Simulate flows: both directions of each flow hash to the same
    // virtual thread, so per-flow work is serialized implicitly.
    let server = Addr::v4(93, 184, 216, 34);
    let mut scheduled = 0u64;
    for flow in 0..200u32 {
        let client = Addr::v4(10, 0, (flow / 250) as u8, (flow % 250) as u8 + 1);
        let cport = Port::tcp(40_000 + (flow % 1000) as u16);
        let vthread = flow_hash(client, cport, server, Port::tcp(80));
        // "Packets" in both directions: identical placement either way.
        let reverse = flow_hash(server, Port::tcp(80), client, cport);
        assert_eq!(vthread, reverse, "flow hash must be direction-symmetric");
        for pkt in 0..5u32 {
            pool.schedule(
                vthread,
                "Counter::work",
                &[Value::Int(i64::from(flow + pkt))],
            )?;
            scheduled += 1;
        }
    }
    for w in 0..workers as u64 {
        pool.schedule(w, "Counter::report", &[])?;
    }
    let reports = pool.shutdown();
    println!("scheduled {scheduled} jobs");
    let mut total = 0u64;
    for r in &reports {
        for line in &r.output {
            println!("worker {}: {line}", r.worker);
            if let Some(n) = line
                .strip_prefix("worker handled ")
                .and_then(|s| s.split(' ').next())
                .and_then(|s| s.parse::<u64>().ok())
            {
                total += n;
            }
        }
        if !r.errors.is_empty() {
            println!("worker {} errors: {:?}", r.worker, r.errors);
        }
    }
    println!("total jobs executed: {total} (expected {scheduled})");
    assert_eq!(total, scheduled);
    Ok(())
}
