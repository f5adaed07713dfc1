//! One-call construction of every dispatcher the paper evaluates.

use dpdp_baselines::{Baseline1, Baseline2, Baseline3};
use dpdp_data::{Dataset, StScorer};
use dpdp_rl::{ActorCriticAgent, ActorCriticConfig, AgentConfig, DqnAgent, ModelKind};
use dpdp_sim::Dispatcher;

/// Everything the comparison experiments iterate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// Greedy Baseline 1 (min incremental length; the UAT heuristic).
    Baseline1,
    /// Greedy Baseline 2 (min total length).
    Baseline2,
    /// Greedy Baseline 3 (max accepted orders).
    Baseline3,
    /// Actor-Critic.
    ActorCritic,
    /// A DQN-family model.
    Dqn(ModelKind),
}

impl ModelSpec {
    /// The paper's Fig. 6 / Fig. 7 line-up.
    pub fn comparison_lineup() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Dqn(ModelKind::Dqn),
            ModelSpec::ActorCritic,
            ModelSpec::Dqn(ModelKind::Dgn),
            ModelSpec::Dqn(ModelKind::StDdgn),
            ModelSpec::Baseline1,
            ModelSpec::Baseline2,
            ModelSpec::Baseline3,
        ]
    }

    /// The paper's Fig. 8 ablation line-up (Table II).
    pub fn ablation_lineup() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Dqn(ModelKind::Ddqn),
            ModelSpec::Dqn(ModelKind::StDdqn),
            ModelSpec::Dqn(ModelKind::Ddgn),
            ModelSpec::Dqn(ModelKind::StDdgn),
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelSpec::Baseline1 => "Baseline1",
            ModelSpec::Baseline2 => "Baseline2",
            ModelSpec::Baseline3 => "Baseline3",
            ModelSpec::ActorCritic => "AC",
            ModelSpec::Dqn(kind) => kind.name(),
        }
    }

    /// Whether this model needs training before evaluation.
    pub fn is_learned(self) -> bool {
        !matches!(
            self,
            ModelSpec::Baseline1 | ModelSpec::Baseline2 | ModelSpec::Baseline3
        )
    }
}

/// Baseline 1 as a boxed dispatcher.
pub fn baseline1() -> Box<dyn Dispatcher> {
    Box::new(Baseline1)
}

/// Baseline 2 as a boxed dispatcher.
pub fn baseline2() -> Box<dyn Dispatcher> {
    Box::new(Baseline2)
}

/// Baseline 3 as a boxed dispatcher.
pub fn baseline3() -> Box<dyn Dispatcher> {
    Box::new(Baseline3::default())
}

/// Builds a DQN-family agent wired to the dataset's campus (the ST variants
/// get a scorer over the dataset's grid and factory index). The caller still
/// has to provide the per-episode STD prediction via
/// [`DqnAgent::set_prediction`].
pub fn dqn_agent(kind: ModelKind, dataset: &Dataset, seed: u64) -> DqnAgent {
    let mut config = AgentConfig::new(kind);
    config.seed = seed;
    let scorer = kind
        .uses_st()
        .then(|| StScorer::new(dataset.grid(), dataset.factory_index()));
    DqnAgent::new(config, dataset.grid().num_intervals(), scorer)
}

/// Builds the Actor-Critic baseline.
pub fn actor_critic(dataset: &Dataset, seed: u64) -> ActorCriticAgent {
    let config = ActorCriticConfig {
        seed,
        ..ActorCriticConfig::default()
    };
    ActorCriticAgent::new(config, dataset.grid().num_intervals())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::Presets;

    #[test]
    fn lineups_match_paper() {
        let names: Vec<&str> = ModelSpec::comparison_lineup()
            .into_iter()
            .map(ModelSpec::name)
            .collect();
        assert_eq!(
            names,
            vec![
                "DQN",
                "AC",
                "DGN",
                "ST-DDGN",
                "Baseline1",
                "Baseline2",
                "Baseline3"
            ]
        );
        let ablation: Vec<&str> = ModelSpec::ablation_lineup()
            .into_iter()
            .map(ModelSpec::name)
            .collect();
        assert_eq!(ablation, vec!["DDQN", "ST-DDQN", "DDGN", "ST-DDGN"]);
    }

    #[test]
    fn learned_flag() {
        assert!(!ModelSpec::Baseline1.is_learned());
        assert!(ModelSpec::ActorCritic.is_learned());
        assert!(ModelSpec::Dqn(ModelKind::Dqn).is_learned());
    }

    #[test]
    fn st_models_get_scorers_and_plain_models_do_not() {
        let p = Presets::quick();
        // Construction would panic if scorer wiring were wrong.
        let _ = dqn_agent(ModelKind::StDdgn, p.dataset(), 0);
        let _ = dqn_agent(ModelKind::Dqn, p.dataset(), 0);
        let _ = actor_critic(p.dataset(), 0);
    }
}
