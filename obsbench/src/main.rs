//! `obsbench --workload <collect|federate|history> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, drives the system
//! through its public library entry points, checks the outputs, and
//! prints the host fingerprint and then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! with `--trace 0`, per-layer with `--trace 1`). Exits 1 when an output
//! oracle fails and 2 on bad arguments.

use obsbench::common::{Opts, END_TO_END, PER_LAYER};

fn usage(why: &str) -> ! {
    eprintln!("obsbench: {why}");
    eprintln!(
        "usage: obsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        obsbench::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Host and build fingerprint; results taken under different
/// fingerprints are not comparable.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"sources\": {}}}",
        json_str(&cpu),
        json_str(env!("OBSBENCH_RUSTC")),
        json_str(env!("OBSBENCH_COMMIT")),
        json_str(env!("OBSBENCH_SOURCES")),
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = flag("--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed: u64 = flag("--seed")
        .unwrap_or("1")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes an integer"));
    let seconds: f64 = flag("--seconds")
        .unwrap_or("10")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .unwrap_or_else(|| usage("--seconds takes a non-negative number"));
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let opts = Opts {
        seed,
        seconds,
        trace,
        plant_ns: 0,
    };
    let fp = fingerprint();
    eprintln!(
        "obsbench: {workload} seed {seed}, {seconds} s, trace {}",
        trace as u8
    );
    let out = obsbench::run(workload, &opts).unwrap_or_else(|| usage("unknown workload"));

    let expected = if trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in expected {
        let m = out.metrics.iter().find(|m| m.name == name);
        assert!(
            m.is_some_and(|m| m.unit == unit && m.value.is_finite()),
            "{workload} did not report {name} in {unit}"
        );
    }
    for m in &out.mismatches {
        eprintln!("obsbench: ORACLE MISMATCH: {m}");
    }
    let correct = out.mismatches.is_empty();
    let metrics: Vec<String> = expected
        .iter()
        .map(|&(name, unit)| {
            let v = out.metric(name).expect("checked above");
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!("fingerprint {fp}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
