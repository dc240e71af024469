#include "api/experiment.hpp"

#include <utility>

#include "checkpoint/snapshot.hpp"
#include "util/check.hpp"

namespace repl {

namespace {

/// Shared shape of every spec-driven factory: bind the canonical spec's
/// builder once (the registry itself is immutable after startup) and
/// capture it with the config by value, then build per call without
/// validating again. Safe to invoke concurrently from pool workers.
ComponentSpec checked_spec(ComponentKind kind, const std::string& text) {
  ComponentRegistry& registry = ComponentRegistry::instance();
  return registry.canonicalize(kind, parse_component_spec(text));
}

}  // namespace

ObjectPolicyFactory spec_object_policy_factory(const SystemConfig& config,
                                               const std::string& spec_text) {
  auto build = ComponentRegistry::instance().policy_builder(
      checked_spec(ComponentKind::kPolicy, spec_text));
  return [config, build = std::move(build)](const ObjectContext& ctx) {
    BuildContext context;
    context.config = config;
    context.seed = ctx.seed;
    context.trace = ctx.trace;
    return build(context);
  };
}

ObjectPredictorFactory spec_object_predictor_factory(
    const SystemConfig& config, const std::string& spec_text) {
  auto build = ComponentRegistry::instance().predictor_builder(
      checked_spec(ComponentKind::kPredictor, spec_text));
  return [config, build = std::move(build)](const ObjectContext& ctx) {
    BuildContext context;
    context.config = config;
    context.seed = ctx.seed;
    context.trace = ctx.trace;
    return build(context);
  };
}

SimulationResult run_experiment(const ExperimentSpec& experiment,
                                const SystemConfig& config,
                                const Trace& trace,
                                const SimulationOptions& options,
                                std::uint64_t seed) {
  BuildContext build;
  build.config = config;
  build.seed = seed;
  build.trace = &trace;
  ComponentRegistry& registry = ComponentRegistry::instance();
  const PolicyPtr policy = registry.build_policy(experiment.policy, build);
  const PredictorPtr predictor =
      registry.build_predictor(experiment.predictor, build);
  const Simulator simulator(config, options);
  return simulator.run(*policy, trace, *predictor);
}

// ---------------------------------------------------------------------
// EngineBuilder
// ---------------------------------------------------------------------

ComponentSpec EngineBuilder::check_engine_spec(
    ComponentKind kind, const std::string& spec_text) const {
  ComponentRegistry& registry = ComponentRegistry::instance();
  const ComponentSpec spec =
      registry.canonicalize(kind, parse_component_spec(spec_text));
  if (registry.requires_trace(kind, spec)) {
    throw SpecError(std::string(component_kind_name(kind)) + " '" +
                    print_component_spec(spec) +
                    "' is clairvoyant (it peeks at the full trace) and "
                    "cannot serve an online event stream; pick a causal "
                    "component for engine use");
  }
  return spec;
}

EngineBuilder& EngineBuilder::config(SystemConfig config) {
  config_ = std::move(config);
  config_.validate();
  return *this;
}

EngineBuilder& EngineBuilder::options(EngineOptions options) {
  options_ = std::move(options);
  return *this;
}

EngineBuilder& EngineBuilder::policy(const std::string& spec_text) {
  const ComponentSpec spec =
      check_engine_spec(ComponentKind::kPolicy, spec_text);
  policy_ = ComponentRegistry::instance().policy_builder(spec);
  policy_text_ = print_component_spec(spec);
  return *this;
}

EngineBuilder& EngineBuilder::predictor(const std::string& spec_text) {
  const ComponentSpec spec =
      check_engine_spec(ComponentKind::kPredictor, spec_text);
  predictor_ = ComponentRegistry::instance().predictor_builder(spec);
  predictor_text_ = print_component_spec(spec);
  return *this;
}

EngineBuilder& EngineBuilder::experiment(const ExperimentSpec& experiment) {
  return policy(experiment.policy).predictor(experiment.predictor);
}

EnginePolicyFactory EngineBuilder::policy_factory() const {
  if (!policy_) {
    return EngineBuilder(*this)
        .policy(ExperimentSpec{}.policy)
        .policy_factory();
  }
  return [config = config_, build = policy_](const EngineObjectContext& ctx) {
    BuildContext context;
    context.config = config;
    context.seed = ctx.seed;
    return build(context);
  };
}

EnginePredictorFactory EngineBuilder::predictor_factory() const {
  if (!predictor_) {
    return EngineBuilder(*this)
        .predictor(ExperimentSpec{}.predictor)
        .predictor_factory();
  }
  return [config = config_,
          build = predictor_](const EngineObjectContext& ctx) {
    BuildContext context;
    context.config = config;
    context.seed = ctx.seed;
    return build(context);
  };
}

std::unique_ptr<StreamingEngine> EngineBuilder::build() const {
  EngineBuilder filled = *this;
  if (!policy_) filled.policy(ExperimentSpec{}.policy);
  if (!predictor_) filled.predictor(ExperimentSpec{}.predictor);
  EngineOptions options = filled.options_;
  options.policy_spec = filled.policy_text_;
  options.predictor_spec = filled.predictor_text_;
  return std::make_unique<StreamingEngine>(filled.config_, options,
                                           filled.policy_factory(),
                                           filled.predictor_factory());
}

std::unique_ptr<StreamingEngine> EngineBuilder::restore(
    const std::string& snapshot_path) const {
  const SnapshotHeader header = read_snapshot_header(snapshot_path);
  EngineBuilder filled = *this;
  if (!policy_) {
    if (header.policy_spec.empty()) {
      throw SpecError("snapshot " + snapshot_path +
                      " records no policy spec (it was written from raw "
                      "factories); pass an explicit policy spec to "
                      "restore it");
    }
    filled.policy(header.policy_spec);
  } else if (!header.policy_spec.empty() &&
             header.policy_spec != policy_text_) {
    throw SpecError("snapshot " + snapshot_path +
                    " was written with policy '" + header.policy_spec +
                    "' but restore requested '" + policy_text_ + "'");
  }
  if (!predictor_) {
    if (header.predictor_spec.empty()) {
      throw SpecError("snapshot " + snapshot_path +
                      " records no predictor spec (it was written from "
                      "raw factories); pass an explicit predictor spec "
                      "to restore it");
    }
    filled.predictor(header.predictor_spec);
  } else if (!header.predictor_spec.empty() &&
             header.predictor_spec != predictor_text_) {
    throw SpecError("snapshot " + snapshot_path +
                    " was written with predictor '" +
                    header.predictor_spec + "' but restore requested '" +
                    predictor_text_ + "'");
  }
  EngineOptions options = filled.options_;
  options.policy_spec = filled.policy_text_;
  options.predictor_spec = filled.predictor_text_;
  return StreamingEngine::restore(snapshot_path, filled.config_, options,
                                  filled.policy_factory(),
                                  filled.predictor_factory());
}

}  // namespace repl
