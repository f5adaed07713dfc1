//! Shared harness for the table/figure regenerator binaries.
//!
//! Each binary in `src/bin/` regenerates tables or figures of the paper:
//! `scorecard` (Table I, Fig. 6 and Fig. 7 in one run), `fig2`, `fig8`,
//! `fig9` and `suppl_*`. This library provides the common plumbing: CLI
//! parsing, model training with the right ST-prediction wiring, and
//! result output to `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpdp_core::models::{self, ModelSpec};
use dpdp_core::prelude::*;
use dpdp_rl::TrainerConfig;
use std::path::PathBuf;

/// Minimal CLI: `--episodes N`, `--instances N`, `--quick` (smaller
/// dataset), `--seed N`, `--threads N`.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Training episodes for learned models.
    pub episodes: usize,
    /// Number of evaluation instances.
    pub instances: usize,
    /// Use the reduced-volume dataset.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Scoring pool width for evaluation episodes (1 = serial; results are
    /// identical for every width, only wall time moves).
    pub threads: usize,
}

/// Why a command line was rejected (see [`Cli::parse_from`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument that is not one of the known flags.
    UnknownFlag(String),
    /// A value-taking flag appeared last, with nothing after it.
    MissingValue(&'static str),
    /// A flag's value failed to parse or was out of range.
    InvalidValue {
        /// The flag whose value was malformed.
        flag: &'static str,
        /// The offending value.
        value: String,
    },
    /// `--help` / `-h` was given.
    HelpRequested,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::InvalidValue { flag, value } => {
                write!(f, "flag `{flag}` got an invalid value `{value}`")
            }
            CliError::HelpRequested => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for CliError {}

/// Usage text shared by every regenerator binary.
pub const USAGE: &str = "\
options:
  --episodes N    training episodes for learned models
  --instances N   number of evaluation instances
  --seed N        master seed
  --threads N     scoring pool width (1 = serial; results are identical)
  --quick         use the reduced-volume dataset
  -h, --help      print this help";

impl Cli {
    /// Parses `std::env::args` with the given defaults. Unknown flags and
    /// malformed numeric values are reported to stderr and exit the process
    /// with status 2 (a typo like `--episode 500` must not silently run the
    /// defaults); `--help` prints usage and exits 0.
    pub fn parse(default_episodes: usize, default_instances: usize) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Cli::parse_from(&args, default_episodes, default_instances) {
            Ok(cli) => cli,
            Err(CliError::HelpRequested) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("error: {err}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (no program name), with the given
    /// defaults.
    ///
    /// # Errors
    /// Rejects unknown flags, value-less value flags, and non-numeric
    /// values; reports `--help` as [`CliError::HelpRequested`].
    pub fn parse_from(
        args: &[String],
        default_episodes: usize,
        default_instances: usize,
    ) -> Result<Cli, CliError> {
        let mut cli = Cli {
            episodes: default_episodes,
            instances: default_instances,
            quick: false,
            seed: 7,
            threads: 1,
        };
        fn numeric<T: std::str::FromStr>(
            flag: &'static str,
            value: Option<&String>,
        ) -> Result<T, CliError> {
            let value = value.ok_or(CliError::MissingValue(flag))?;
            value.parse().map_err(|_| CliError::InvalidValue {
                flag,
                value: value.clone(),
            })
        }
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--episodes" => {
                    cli.episodes = numeric("--episodes", args.get(i + 1))?;
                    i += 1;
                }
                "--instances" => {
                    cli.instances = numeric("--instances", args.get(i + 1))?;
                    i += 1;
                }
                "--seed" => {
                    cli.seed = numeric("--seed", args.get(i + 1))?;
                    i += 1;
                }
                "--threads" => {
                    cli.threads = numeric("--threads", args.get(i + 1))?;
                    if cli.threads == 0 {
                        return Err(CliError::InvalidValue {
                            flag: "--threads",
                            value: "0".to_string(),
                        });
                    }
                    i += 1;
                }
                "--quick" => cli.quick = true,
                "--help" | "-h" => return Err(CliError::HelpRequested),
                other => return Err(CliError::UnknownFlag(other.to_string())),
            }
            i += 1;
        }
        Ok(cli)
    }

    /// Builds presets respecting `--quick`.
    pub fn presets(&self) -> Presets {
        if self.quick {
            Presets::quick()
        } else {
            Presets::paper()
        }
    }
}

/// A trained (or stateless) dispatcher, preserving concrete type access for
/// prediction wiring and mode switching.
pub enum Model {
    /// A DQN-family agent (boxed: the agents dwarf the heuristic variant).
    Dqn(Box<DqnAgent>),
    /// The actor-critic baseline.
    Ac(Box<ActorCriticAgent>),
    /// A stateless heuristic.
    Heuristic(Box<dyn Dispatcher>),
}

impl Model {
    /// Builds an untrained model for a spec.
    pub fn build(spec: ModelSpec, presets: &Presets, seed: u64) -> Model {
        match spec {
            ModelSpec::Baseline1 => Model::Heuristic(models::baseline1()),
            ModelSpec::Baseline2 => Model::Heuristic(models::baseline2()),
            ModelSpec::Baseline3 => Model::Heuristic(models::baseline3()),
            ModelSpec::ActorCritic => {
                Model::Ac(Box::new(models::actor_critic(presets.dataset(), seed)))
            }
            ModelSpec::Dqn(kind) => {
                Model::Dqn(Box::new(models::dqn_agent(kind, presets.dataset(), seed)))
            }
        }
    }

    /// The dispatcher view.
    pub fn dispatcher(&mut self) -> &mut dyn Dispatcher {
        match self {
            Model::Dqn(a) => a.as_mut(),
            Model::Ac(a) => a.as_mut(),
            Model::Heuristic(h) => h.as_mut(),
        }
    }

    /// Supplies the predicted STD matrix (no-op for models without ST).
    pub fn set_prediction(&mut self, prediction: Option<StdMatrix>) {
        if let Model::Dqn(a) = self {
            a.set_prediction(prediction);
        }
    }

    /// Switches between training and greedy evaluation mode.
    pub fn set_training(&mut self, training: bool) {
        match self {
            Model::Dqn(a) => a.set_training(training),
            Model::Ac(a) => a.set_training(training),
            Model::Heuristic(_) => {}
        }
    }

    /// Trains on one instance for `episodes`, returning the convergence
    /// curve; heuristics return a single evaluation point.
    pub fn train_on(
        &mut self,
        instance: &Instance,
        episodes: usize,
        trainer_cfg: Option<TrainerConfig>,
    ) -> dpdp_rl::TrainReport {
        let episodes = if matches!(self, Model::Heuristic(_)) {
            1
        } else {
            episodes
        };
        let cfg = trainer_cfg.unwrap_or_else(|| TrainerConfig::new(episodes));
        self.set_training(true);
        train(self.dispatcher(), instance, &cfg)
    }

    /// Trains on one instance for `episodes`, streaming every convergence
    /// point (and kept capacity snapshot) into `observer` instead of
    /// materializing a report — the observer-based pipeline the
    /// convergence-curve regenerators (`fig8`/`fig9`) ride. Returns the
    /// demand STD matrix when capacity recording is configured.
    pub fn train_on_observed(
        &mut self,
        instance: &Instance,
        episodes: usize,
        trainer_cfg: Option<TrainerConfig>,
        observer: &mut dyn TrainObserver,
    ) -> Option<StdMatrix> {
        let episodes = if matches!(self, Model::Heuristic(_)) {
            1
        } else {
            episodes
        };
        let cfg = trainer_cfg.unwrap_or_else(|| TrainerConfig::new(episodes));
        self.set_training(true);
        train_observed(self.dispatcher(), instance, &cfg, observer)
    }
}

/// Trains a model for a spec on `instance` with ST prediction wired from
/// the presets, then switches it to evaluation mode.
pub fn build_and_train(
    spec: ModelSpec,
    presets: &Presets,
    instance: &Instance,
    episodes: usize,
    seed: u64,
) -> Model {
    let mut model = Model::build(spec, presets, seed);
    model.set_prediction(Some(presets.train_prediction(4)));
    if spec.is_learned() {
        model.train_on(instance, episodes, None);
    }
    model.set_training(false);
    model
}

/// Writes experiment output under `target/experiments/` (best effort —
/// printing remains the primary channel).
pub fn write_artifact(name: &str, contents: &str) -> Option<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(name);
    std::fs::write(&path, contents).ok()?;
    Some(path)
}

/// Exits with status 1 when a record carries non-finite metrics — the one
/// guard the CI bench-smoke job relies on, applied to every archived row
/// (learned policies and the exact solver alike): a NaN cost must fail the
/// pipeline, not be archived as if it were a measurement.
pub fn check_finite(record: &BenchRecord) {
    if !(record.total_cost.is_finite() && record.wall_secs.is_finite()) {
        eprintln!(
            "error: non-finite metrics for {} on instance {}: {record:?}",
            record.algo, record.instance
        );
        std::process::exit(1);
    }
}

/// One record of a machine-readable benchmark artifact (see
/// [`bench_json`]).
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Instance label (e.g. order count).
    pub instance: String,
    /// Algorithm name.
    pub algo: String,
    /// Number of used vehicles.
    pub nuv: usize,
    /// Total cost.
    pub total_cost: f64,
    /// Wall-clock seconds for the episode.
    pub wall_secs: f64,
    /// Decision epochs the episode went through.
    pub epochs: usize,
    /// Training episodes behind the row's policy (0 when it is not
    /// learned: a baseline or the exact solver).
    pub episodes: usize,
}

impl BenchRecord {
    /// Builds a record from an evaluation row whose policy trained for
    /// `episodes`.
    pub fn from_row(instance: impl Into<String>, episodes: usize, row: &EvalRow) -> BenchRecord {
        BenchRecord {
            instance: instance.into(),
            algo: row.algo.clone(),
            nuv: row.nuv,
            total_cost: row.total_cost,
            wall_secs: row.wall_secs,
            epochs: row.epochs,
            episodes,
        }
    }
}

/// Renders a benchmark run as JSON (hand-rolled — the workspace has no
/// JSON dependency): a header with the bench name, the thread count, the
/// seed and `--quick`, then one row per record (NUV, TC, wall time, epoch
/// count and training budget per policy and instance — sections of one
/// run may train for different budgets).
pub fn bench_json(bench: &str, cli: &Cli, records: &[BenchRecord]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"instance\": \"{}\", \"algo\": \"{}\", \"nuv\": {}, \
                 \"total_cost\": {:.6}, \"wall_secs\": {:.9}, \"epochs\": {}, \
                 \"episodes\": {}}}",
                esc(&r.instance),
                esc(&r.algo),
                r.nuv,
                r.total_cost,
                r.wall_secs,
                r.epochs,
                r.episodes
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"threads\": {},\n  \
         \"seed\": {},\n  \"quick\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        esc(bench),
        cli.threads,
        cli.seed,
        cli.quick,
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parses_known_flags() {
        let cli = Cli::parse_from(
            &argv(&[
                "--episodes",
                "250",
                "--quick",
                "--seed",
                "11",
                "--threads",
                "4",
            ]),
            60,
            3,
        )
        .unwrap();
        assert_eq!(cli.episodes, 250);
        assert_eq!(cli.instances, 3);
        assert!(cli.quick);
        assert_eq!(cli.seed, 11);
        assert_eq!(cli.threads, 4);
    }

    #[test]
    fn cli_defaults_apply_without_flags() {
        let cli = Cli::parse_from(&[], 60, 3).unwrap();
        assert_eq!(cli.episodes, 60);
        assert_eq!(cli.instances, 3);
        assert!(!cli.quick);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.threads, 1);
    }

    #[test]
    fn cli_rejects_zero_threads() {
        let err = Cli::parse_from(&argv(&["--threads", "0"]), 60, 3).unwrap_err();
        assert!(matches!(
            err,
            CliError::InvalidValue {
                flag: "--threads",
                ..
            }
        ));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let cli = Cli::parse_from(&argv(&["--threads", "2", "--quick"]), 9, 1).unwrap();
        let record = |instance: &str, algo: &str, episodes| BenchRecord {
            instance: instance.into(),
            algo: algo.into(),
            nuv: 3,
            total_cost: 1234.5,
            wall_secs: 0.25,
            epochs: 6,
            episodes,
        };
        // Two sections of one run, trained for different budgets: each
        // row carries its own; the header carries none.
        let records = [
            record("table1/6", "ST-\"DDGN\"", 60),
            record("fig6/0", "DQN", 120),
        ];
        let json = bench_json("scorecard", &cli, &records);
        assert!(json.contains("\"bench\": \"scorecard\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\\\"DDGN\\\""), "quotes must be escaped");
        assert!(json.contains("\"epochs\": 6"));
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"instance\""))
            .collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("\"table1/6\"") && rows[0].ends_with("\"episodes\": 60},"));
        assert!(rows[1].contains("\"fig6/0\"") && rows[1].ends_with("\"episodes\": 120}"));
        assert_eq!(json.matches("\"episodes\"").count(), 2, "no header budget");
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the offline env).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn cli_rejects_unknown_flags() {
        // The historical failure mode: a typo silently ran the defaults.
        let err = Cli::parse_from(&argv(&["--episode", "500"]), 60, 3).unwrap_err();
        assert_eq!(err, CliError::UnknownFlag("--episode".to_string()));
        assert!(err.to_string().contains("--episode"));
        // The scenario family flag is gone; the disrupted smoke is a test.
        let err = Cli::parse_from(&argv(&["--scenario", "metro_disrupted"]), 60, 3).unwrap_err();
        assert_eq!(err, CliError::UnknownFlag("--scenario".to_string()));
    }

    #[test]
    fn cli_rejects_malformed_and_missing_values() {
        let err = Cli::parse_from(&argv(&["--episodes", "many"]), 60, 3).unwrap_err();
        assert_eq!(
            err,
            CliError::InvalidValue {
                flag: "--episodes",
                value: "many".to_string()
            }
        );
        let err = Cli::parse_from(&argv(&["--seed"]), 60, 3).unwrap_err();
        assert_eq!(err, CliError::MissingValue("--seed"));
        let err = Cli::parse_from(&argv(&["--instances", "-4"]), 60, 3).unwrap_err();
        assert!(matches!(err, CliError::InvalidValue { .. }));
    }

    #[test]
    fn cli_reports_help() {
        for flag in ["--help", "-h"] {
            let err = Cli::parse_from(&argv(&[flag]), 60, 3).unwrap_err();
            assert_eq!(err, CliError::HelpRequested);
        }
    }

    #[test]
    fn model_build_covers_all_specs() {
        let presets = Presets::quick();
        for spec in ModelSpec::comparison_lineup() {
            let mut m = Model::build(spec, &presets, 3);
            assert_eq!(m.dispatcher().name(), spec.name());
            m.set_prediction(Some(presets.train_prediction(2)));
            m.set_training(false);
        }
    }
}
