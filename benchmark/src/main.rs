//! Command line of the benchmark. See `README.md`.

use gts_benchmark::json::{self, object, Value};
use gts_benchmark::report::RunResult;
use gts_benchmark::workloads::{self, RunConfig, WORKLOADS};
use gts_benchmark::{compare, layers};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  gts-benchmark [run] [--workload <name>|all] [--seed <u64>] [--seconds <s>]
                [--trace 0|1] [--quick] [--out <file>]
      One workload: run it in this process and print every metric by name
      with its unit, then one JSON line (correct, attempted, failed, metrics).
      --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
      all (the default): run every workload, untraced then traced, each in a
      fresh child process.
      --quick: smoke mode, a tenth of the seconds, same checks.
  gts-benchmark compare --base <file>... --new <file>...
      Hold two sets of --out files against each other under the bounds.";

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// What the results were measured on.
fn host(seed: u64) -> Value {
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu)),
        ("rustc", Value::Str(output("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(output("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Str(seed.to_string())),
    ])
}

fn write_out(path: &Path, seed: u64, results: Vec<Value>) -> Result<(), String> {
    let doc = object([("host", host(seed)), ("results", Value::Arr(results))]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(args: &Args) -> Result<RunResult, String> {
    let w = workloads::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}`; one of: {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let cfg = RunConfig {
        seed: args.seed,
        // A smoke run measures for a tenth of the time.
        seconds: args.seconds / if args.quick { 10.0 } else { 1.0 },
        quick: args.quick,
    };
    if args.trace.unwrap_or(false) {
        layers::run_traced(w, cfg)
    } else {
        workloads::run_untraced(w, cfg)
    }
}

/// Every workload, untraced then traced, each in a child process of its own
/// so that `peak_rss_mb` is the workload's and nothing carries over.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let passes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut results = Vec::new();
    let mut good = true;
    for w in &WORKLOADS {
        for &traced in passes {
            let part = scratch.join(format!("run-{}-{}.json", w.name, u8::from(traced)));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawning {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {}) exited with {status}",
                    w.name,
                    u8::from(traced)
                ));
            }
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let doc = json::parse(&text)?;
            for r in doc.get("results").and_then(Value::as_arr).unwrap_or(&[]) {
                good &= r.get("correct").and_then(Value::as_bool) == Some(true)
                    && r.get("valid").and_then(Value::as_bool) == Some(true);
                results.push(r.clone());
            }
        }
    }
    if let Some(out) = &args.out {
        write_out(out, args.seed, results)?;
    }
    println!(
        "all workloads {}",
        if good {
            "correct and valid"
        } else {
            "NOT all correct and valid"
        }
    );
    Ok(good)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let (mut base, mut new, mut side) = (Vec::new(), Vec::new(), None);
            for a in &args[1..] {
                match a.as_str() {
                    "--base" => side = Some(&mut base),
                    "--new" => side = Some(&mut new),
                    file => match side.as_mut() {
                        Some(list) => list.push(file.to_string()),
                        None => {
                            eprintln!("{USAGE}");
                            return ExitCode::from(2);
                        }
                    },
                }
            }
            compare::run(&base, &new)
        }
        _ => {
            if args.first().map(String::as_str) == Some("run") {
                args.remove(0);
            }
            parse_run(&args).and_then(|parsed| {
                if parsed.workload == "all" {
                    return run_all(&parsed);
                }
                let result = run_one(&parsed)?;
                result.print_table();
                if let Some(out) = &parsed.out {
                    write_out(out, parsed.seed, vec![result.record()])?;
                }
                println!("{}", result.contract_line());
                Ok(true)
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("gts-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
