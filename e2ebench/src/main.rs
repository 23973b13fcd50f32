//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--rustc <version>] [--commit <id>] [--out-dir <dir>]`
//!
//! Prints a `host` line, then, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`). A traced run also writes its spans to `--out-dir`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use hadfl_e2ebench::bench::{self, Outcome, WORKLOADS};

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn parse_args() -> Result<BTreeMap<String, String>, String> {
    let mut args = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        args.insert(key.to_string(), value);
    }
    for required in ["workload", "seed", "seconds", "trace"] {
        if !args.contains_key(required) {
            return Err(format!("missing --{required}"));
        }
    }
    Ok(args)
}

/// The host a result was measured on: results compare only within one
/// host class.
fn host_line(args: &BTreeMap<String, String>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut fields = vec![
        ("nproc".to_string(), nproc.to_string()),
        (
            "rustc".to_string(),
            json_str(args.get("rustc").map_or("unknown", String::as_str)),
        ),
        (
            "commit".to_string(),
            json_str(args.get("commit").map_or("unknown", String::as_str)),
        ),
    ];
    for var in [
        "HADFL_THREADS",
        "HADFL_PAR_THRESHOLD",
        "HADFL_PAR_THRESHOLD_MATMUL",
        "HADFL_PAR_THRESHOLD_REDUCE",
        "HADFL_PAR_THRESHOLD_ELEMENTWISE",
    ] {
        let value = std::env::var(var).map_or("null".to_string(), |v| json_str(&v));
        fields.push((var.to_string(), value));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args["workload"].as_str();
    if !WORKLOADS.contains(&workload) {
        eprintln!("e2ebench: unknown workload {workload}; one of {WORKLOADS:?}");
        return ExitCode::from(2);
    }
    let (Ok(seed), Ok(seconds)) = (args["seed"].parse::<u64>(), args["seconds"].parse::<u64>())
    else {
        eprintln!("e2ebench: --seed and --seconds take whole numbers");
        return ExitCode::from(2);
    };
    let traced = match args["trace"].as_str() {
        "0" => false,
        "1" => true,
        other => {
            eprintln!("e2ebench: --trace takes 0 or 1, got {other}");
            return ExitCode::from(2);
        }
    };

    let host = host_line(&args);
    println!("host {host}");
    let out = match bench::run(workload, seed, seconds, traced) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    for failure in &out.failures {
        eprintln!("e2ebench: {workload}: check failed: {failure}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    eprintln!(
        "e2ebench: {workload} seed {seed}: error_rate {error_rate} ({} of {})",
        out.failed, out.attempted
    );
    if let Some((trace, summary)) = &out.trace {
        eprintln!("e2ebench: {workload}: {summary}");
        if let Some(dir) = args.get("out-dir") {
            let path = std::path::Path::new(dir).join(format!("{workload}-seed{seed}.spans.json"));
            let body = format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"host\": {host}, \"wall_ns\": {}, \"spans\": {}}}\n",
                json_str(workload),
                trace.wall_ns,
                trace.spans_json()
            );
            let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body));
            match written {
                Ok(()) => eprintln!("e2ebench: spans written to {}", path.display()),
                Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
            }
        }
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
