"""Deterministic monitor-generate-verify control loops and rational-metareasoning solvers."""

from .acquisition import (AcquisitionConfig, AcquisitionState, LearnItem,
                          allocate_resources, compute_norm_of_study, run_acquisition)
from .bandit import (BanditState, observe, posterior_update, run_bandit_episodes,
                     sample_vocs, update_gamma)
from .config import RunConfig, RunMode, validate_config
from .envs import (CueRetrievalEnvironment, FeatureBanditEnvironment,
                   StationaryBanditEnvironment, SyntheticTaskEnvironment)
from .errors import (DimensionMismatch, MgvError, MissingFile,
                     NoApplicableStrategy, NoCalibrationHistory,
                     NodeNotOnFrontier, NonMonotonePolicy, ParseError,
                     ValidationError)
from .experience import (ExperienceMode, ExperienceTuple, ExperienceVector,
                         FokCounters, fok_dual)
from .flavell import (AbandonReason, CycleState, CycleStatus, EvaluativeSignal,
                      FlavellConfig, GoalSpec, MetaStrategyKind,
                      check_termination, classify_evaluative_signal, run_cycle,
                      select_cognitive_strategy, select_meta_strategy)
from .knowledge import (CalibrationRecord, KnowledgeCategory, KnowledgeItem,
                        KnowledgeStore, calibrate_thresholds, consolidate,
                        retrieve_probabilistic, update_knowledge)
from .planning import (DiscretePrior, MyopicPlanResult, PlanningState, frontier,
                       make_initial_state, myopic_voc, plan_value,
                       run_myopic_planner)
from .recall import (PolicyTable, RecallMdpConfig, RecallSimResult,
                     recall_posterior, recall_transition, simulate_recall,
                     solve_recall_mdp, stopping_threshold)
from .retrieval import (OutputDecision, RetrievalConfig, RetrievalResult,
                        SearchIntensity, decide_output, run_retrieval,
                        satisficing_factor, search_intensity, update_thresholds)
from .runner import report, run, run_repeated, substream

__version__ = "0.1.0"
