//! `strider-benchmark`: runs one workload, traced or not, or compares two
//! sets of runs.
//!
//! ```text
//! strider-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! strider-benchmark compare <dirA> <dirB>
//! ```
//!
//! A run prints every metric with its unit, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs report the end-to-end metrics, traced runs the per-layer ones.

use std::path::PathBuf;
use std::process::ExitCode;

use strider_benchmark::compare;
use strider_benchmark::run::{self, Budget, Outcome};
use strider_benchmark::spec::{DEFAULT_SECONDS, DEFAULT_SEED};
use strider_benchmark::trace;
use strider_benchmark::workloads::Workload;
use strider_support::json::JsonValue;

const USAGE: &str = "usage: strider-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]\n       strider-benchmark compare <dirA> <dirB>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS as f64;
    let mut trace = false;
    let mut out = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn run_file(args: &Args, outcome: &Outcome) -> JsonValue {
    let mut fields = vec![
        (
            "workload".to_string(),
            JsonValue::Str(args.workload.name().to_string()),
        ),
        ("seed".to_string(), JsonValue::UInt(args.seed)),
    ];
    if let JsonValue::Obj(result) = outcome.to_json() {
        fields.extend(result);
    }
    let reported = outcome
        .reported
        .iter()
        .map(|m| (m.name.to_string(), JsonValue::Float(m.value)))
        .collect();
    fields.push(("reported".to_string(), JsonValue::Obj(reported)));
    JsonValue::Obj(fields)
}

fn benchmark(args: &Args) -> Result<(), String> {
    let budget = Budget::Seconds(args.seconds);
    let outcome = if args.trace {
        trace::trace(args.workload, args.seed, budget, args.out.as_deref())
    } else {
        run::run(args.workload, args.seed, budget)
    }
    .map_err(|e| e.to_string())?;
    if let (Some(dir), false) = (&args.out, args.trace) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("run_{}_s{}.json", args.workload.name(), args.seed));
        std::fs::write(&path, run_file(args, &outcome).render_pretty(2))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for line in outcome.lines(args.workload) {
        println!("{line}");
    }
    println!("{}", outcome.to_json().render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::load(a.as_ref())
                .and_then(|set_a| Ok((set_a, compare::load(b.as_ref())?)))
                .map_err(|e| e.to_string())
                .and_then(|(set_a, set_b)| {
                    let rows = compare::compare(&set_a, &set_b);
                    print!("{}", compare::render(&rows));
                    match rows
                        .iter()
                        .filter(|r| r.verdict == compare::Verdict::Regressed)
                        .count()
                    {
                        0 => Ok(()),
                        n => Err(format!("{n} workload x metric pairs regressed")),
                    }
                }),
            _ => Err(USAGE.to_string()),
        },
        _ => parse(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| benchmark(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("strider-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
