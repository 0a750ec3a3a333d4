//! `uvf-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_characterization|layer_isolation|mitigation_ladder> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run is one process. It repeats "set the workload up, then run its
//! measured pass" until `--seconds` have elapsed; `setup_s` and `wall_s`
//! are the medians. With `--trace 0` each pass calls the public
//! entry points `repro` uses and the last stdout line carries the
//! end-to-end metrics. With `--trace 1` untraced passes alternate with
//! traced passes, which do the same work by calling each layer's public
//! functions inside the benchmark's own spans; the last line carries the
//! per-layer metrics. See `perfbench/README.md`.

mod fleet;
mod layer_isolation;
mod layers;
mod metrics;
mod mitigation_ladder;
mod nnfix;
mod recorder;
mod workload;

use std::process::ExitCode;

use workload::{Env, Options};

fn usage() -> &'static str {
    "usage: uvf-perfbench --workload <fleet_characterization|layer_isolation|mitigation_ladder> \
     [--seed N] [--seconds S] [--trace 0|1] [--tiny]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        tiny,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let env = Env::new(&opts);
    let outcome = match opts.workload.as_str() {
        "fleet_characterization" => workload::run::<fleet::Fleet>(&env, &opts),
        "layer_isolation" => workload::run::<layer_isolation::LayerIsolation>(&env, &opts),
        "mitigation_ladder" => workload::run::<mitigation_ladder::MitigationLadder>(&env, &opts),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args(
            "--workload layer_isolation --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, "layer_isolation");
        assert_eq!((o.seed, o.seconds, o.trace, o.tiny), (7, 20.0, true, false));
        for bad in [
            "",
            "--workload nope",
            "--workload layer_isolation --trace 2",
            "--workload layer_isolation --seconds 0",
            "--workload layer_isolation --seed",
            "--workload layer_isolation --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
