//! The repo's one benchmark: five named train / serve workloads, the
//! end-to-end metrics a user of the system sees, and an outside-in
//! per-layer trace. See `README.md` beside this package and
//! `../BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! benchmark [--seed <n>] [--seconds <s>] [--quick]                      full set
//! benchmark --compare a.json b.json                                    two sets
//! ```

mod digest;
mod layers;
mod metrics;
mod openloop;
mod proc;
mod report;
mod serve;
mod stats;
mod surface;
mod trace;
mod train;

use metrics::{Outcome, WORKLOADS};
use report::{field, num, obj, text};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seconds one run measures unless `--seconds` says otherwise — the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: seconds per run, so that the full set of ten runs ends
/// within fifteen seconds.
const QUICK_SECONDS: f64 = 0.8;

/// Marks a process as a workload worker (see [`worker_command`]).
const WORKER_ENV: &str = "DISTTGL_BENCH_WORKER";

/// This executable as a workload worker: a child process of its own, so
/// that RSS, CPU and page-fault accounting is per workload, with the
/// allocator's retention pinned. Under glibc's default *dynamic*
/// thresholds the same binary flips between a mode that returns freed
/// heap to the kernel after every step (hundreds of thousands of minor
/// faults per train call, ~30 % slower) and one that keeps it, depending
/// on allocation history — see README "Cold calls and page faults".
/// Fixed thresholds make a run repeat; values already set by the caller
/// are left alone.
fn worker_command() -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.env(WORKER_ENV, "1");
    for (key, value) in [
        ("MALLOC_TRIM_THRESHOLD_", "2000000000"),
        ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ] {
        if std::env::var_os(key).is_none() {
            cmd.env(key, value);
        }
    }
    Ok(cmd)
}

/// Arguments of one workload run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Shrunken inputs; results are not comparable with full runs.
    pub quick: bool,
    /// Where trace files and results are written.
    pub out_dir: PathBuf,
}

/// `benchmark/out`, wherever the package was built.
fn default_out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

/// Writes the traced run's spans beside the results.
pub fn write_trace(args: &RunArgs, workload: &str, spans: &[trace::Span], o: &mut Outcome) {
    let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
    let written = trace::write_jsonl(&path, spans);
    o.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    o.note("trace_file", text(&path.display().to_string()));
}

fn run_workload(name: &str, traced: bool, args: &RunArgs) -> Option<Outcome> {
    let plan = match name {
        "train_l1" => Some(&train::TRAIN_L1),
        "train_l2" => Some(&train::TRAIN_L2),
        "train_dist" => Some(&train::TRAIN_DIST),
        _ => None,
    };
    Some(match (name, plan, traced) {
        (_, Some(plan), false) => train::run(plan, args),
        (_, Some(plan), true) => train::run_traced(plan, args),
        ("serve_read", _, false) => serve::run_read(args),
        ("serve_catchup", _, false) => serve::run_catchup(args),
        ("serve_read", _, true) => serve::run_traced(false, args),
        ("serve_catchup", _, true) => serve::run_traced(true, args),
        _ => return None,
    })
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        out_dir: default_out_dir(),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => cli.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(cli)
}

/// One workload: re-runs this command line in a worker process, which
/// prints the metrics, a `detail:` line, and the result line last.
fn run_one(name: &str, cli: &Cli, argv: &[String]) -> ExitCode {
    if std::env::var_os(WORKER_ENV).is_none() {
        let status = worker_command().and_then(|mut cmd| cmd.args(argv).status());
        return match status {
            Ok(s) if s.success() => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("could not start the worker process: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut o = run_workload(name, cli.traced, &args).expect("workload name was validated");
    o.note("workload", text(name));
    o.note("seed", num(cli.seed as f64));
    o.note("seconds", num(args.seconds));
    o.note("host_cores", num(proc::host_cores() as f64));
    o.note("comparable", Value::Bool(!cli.quick));
    println!(
        "{name} seed {} trace {} ({} s{})",
        cli.seed,
        cli.traced as u8,
        args.seconds,
        if cli.quick {
            ", quick: not comparable"
        } else {
            ""
        }
    );
    report::print_metrics(&o, cli.traced);
    for f in &o.failures {
        println!("  FAILED CHECK: {f}");
    }
    println!("  ops_attempted {} ops_failed {}", o.attempted, o.failed);
    println!("{}", report::detail_line(&o));
    println!("{}", report::result_line(&o, cli.traced));
    if o.correct() && o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a worker process and parses its last two lines.
fn run_child(workload: &str, traced: bool, cli: &Cli) -> Result<(Value, Value, bool), String> {
    let mut cmd = worker_command().map_err(|e| e.to_string())?;
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail: "))
        .ok_or("child printed no detail line")?;
    let parsed = report::parse_json(result)
        .map_err(|e| format!("{workload}: {e}\n{}", String::from_utf8_lossy(&out.stderr)))?;
    Ok((parsed, report::parse_json(detail)?, out.status.success()))
}

/// The full set: every workload, untraced then traced, each in its own
/// child process; prints every metric and writes the results file.
fn run_all(cli: &Cli) -> ExitCode {
    let mut all_ok = true;
    let mut per_workload = Vec::new();
    for w in WORKLOADS {
        let mut entry = Vec::new();
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            match run_child(w, traced, cli) {
                Ok((result, detail, ok)) => {
                    all_ok &= ok;
                    println!(
                        "{w} [{key}] correct {} attempted {} failed {}",
                        field(&result, "correct") == &Value::Bool(true),
                        field(&result, "attempted").as_f64().unwrap_or(0.0),
                        field(&result, "failed").as_f64().unwrap_or(0.0),
                    );
                    if let Some(metrics) = field(&result, "metrics").as_object() {
                        for (name, m) in metrics {
                            println!(
                                "  {name:<48} {:>16.6} {}",
                                field(m, "value").as_f64().unwrap_or(0.0),
                                field(m, "unit").as_str().unwrap_or("")
                            );
                        }
                    }
                    if let Value::Array(failed) = field(&detail, "failed_checks") {
                        for f in failed {
                            println!("  FAILED CHECK: {}", f.as_str().unwrap_or("?"));
                        }
                    }
                    entry.push((key, result));
                    entry.push((if traced { "per_layer_detail" } else { "detail" }, detail));
                }
                Err(e) => {
                    all_ok = false;
                    println!("{w} [{key}] did not produce a result: {e}");
                }
            }
        }
        per_workload.push((w, obj(entry)));
    }
    let results = obj(vec![
        ("benchmark", text("disttgl")),
        ("seed", num(cli.seed as f64)),
        ("comparable", Value::Bool(!cli.quick)),
        ("host_cores", num(proc::host_cores() as f64)),
        ("workloads", obj(per_workload)),
    ]);
    let path = cli.out_dir.join(format!(
        "results-seed{}{}.json",
        cli.seed,
        if cli.quick { "-quick" } else { "" }
    ));
    match std::fs::create_dir_all(&cli.out_dir)
        .and_then(|()| std::fs::write(&path, report::to_json(&results) + "\n"))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            all_ok = false;
            println!("could not write {}: {e}", path.display());
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| report::parse_json(&t).map_err(|e| format!("{p}: {e}")))
    };
    let bench = report::parse_json(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses (checked by a unit test)");
    let rows = load(a).and_then(|va| {
        let vb = load(b)?;
        for (v, p) in [(&va, a), (&vb, b)] {
            if field(v, "comparable") != &Value::Bool(true) {
                println!("note: {p} is a --quick set, flagged not comparable");
            }
        }
        report::compare(&va, &vb, &bench)
    });
    match rows {
        Ok(rows) => {
            report::print_compare(&rows);
            let wide = rows.iter().filter(|r| r.exceeded).count();
            println!(
                "{wide} of {} pairs differ by more than their bound",
                rows.len()
            );
            if wide == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\nusage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>] | --compare a.json b.json");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return run_compare(a, b);
    }
    match &cli.workload {
        Some(w) => run_one(w, &cli, &argv),
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse_cli(&args(&[
            "--workload",
            "serve_read",
            "--seed",
            "77",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_read"));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (77, Some(20.0), true));
        assert!(parse_cli(&args(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&args(&["--trace", "2"])).is_err());
        assert!(parse_cli(&args(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&args(&["--seed"])).is_err());
        let cmp = parse_cli(&args(&["--compare", "a.json", "b.json"])).unwrap();
        assert_eq!(cmp.compare, Some(("a.json".into(), "b.json".into())));
    }
}
