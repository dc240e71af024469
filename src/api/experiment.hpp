// The spec-driven construction facade: one way to assemble components
// for every driver in the repo.
//
// An ExperimentSpec is a pair of component-spec strings (api/spec.hpp);
// EngineBuilder turns it into a StreamingEngine — including restoring
// one from a checkpoint, where the snapshot's recorded specs are
// cross-checked against the builder's (mismatch fails with a diagnostic
// naming both) or, when the builder carries no specs, used to
// reconstruct the factories from the snapshot alone. The free factory
// adapters serve the offline drivers: Simulator via run_experiment and
// ParallelRunner/run_multi_object via the ObjectContext factories
// (which supply the per-object trace, so clairvoyant predictors work
// offline; the engine path rejects them up front — it is online).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/registry.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "run/parallel_runner.hpp"

namespace repl {

/// One policy×predictor experiment point, as spec strings. Defaults
/// reproduce the repo's historical wiring (DRWP + last-gap).
struct ExperimentSpec {
  std::string policy = "drwp(alpha=0.3)";
  std::string predictor = "last_gap";
};

/// Spec-driven factories for ParallelRunner (and through it
/// run_multi_object): each object's components are built from the
/// canonical spec with the object's deterministic seed and its trace —
/// so every registered component, including the clairvoyant ones, is
/// available to offline experiments. Throws SpecError on a bad spec at
/// adapter-construction time, not per object.
ObjectPolicyFactory spec_object_policy_factory(const SystemConfig& config,
                                               const std::string& spec_text);
ObjectPredictorFactory spec_object_predictor_factory(
    const SystemConfig& config, const std::string& spec_text);

/// Runs one trace through Simulator under spec-built components (the
/// trace is supplied to clairvoyant components; `seed` feeds randomized
/// ones).
SimulationResult run_experiment(const ExperimentSpec& experiment,
                                const SystemConfig& config,
                                const Trace& trace,
                                const SimulationOptions& options = {},
                                std::uint64_t seed = 0x5eed5eed5eed5eedULL);

/// Builds StreamingEngines from specs — the single construction path
/// used by engine_serve and bench_engine. policy()/predictor() parse,
/// validate, causality-check (clairvoyant specs are rejected: the
/// engine is online) and canonicalize immediately, so a bad spec fails
/// at the CLI boundary with a precise diagnostic. The canonical strings
/// are threaded into EngineOptions and therefore into every checkpoint
/// the engine writes.
class EngineBuilder {
 public:
  EngineBuilder& config(SystemConfig config);
  EngineBuilder& options(EngineOptions options);
  EngineBuilder& policy(const std::string& spec_text);
  EngineBuilder& predictor(const std::string& spec_text);
  EngineBuilder& experiment(const ExperimentSpec& experiment);

  /// Canonical spec strings; empty while unset.
  const std::string& policy_spec() const { return policy_text_; }
  const std::string& predictor_spec() const { return predictor_text_; }

  /// Thread-safe engine factories over the current specs (defaults
  /// applied when unset). The specs were validated and bound when they
  /// were set, so neither this call nor the engine's per-object calls
  /// validate a spec again.
  EnginePolicyFactory policy_factory() const;
  EnginePredictorFactory predictor_factory() const;

  /// A fresh engine. Unset specs fall back to ExperimentSpec defaults.
  std::unique_ptr<StreamingEngine> build() const;

  /// An engine resumed from `snapshot_path`. With specs set, the
  /// snapshot's recorded specs must match (canonical string equality) —
  /// mismatch throws naming both sides. With no specs set, the
  /// snapshot's own specs reconstruct the factories ("self-construct");
  /// a snapshot written without specs then fails with a diagnostic
  /// asking for explicit ones.
  std::unique_ptr<StreamingEngine> restore(
      const std::string& snapshot_path) const;

 private:
  /// Parses + validates + causality-checks; returns the canonical AST.
  ComponentSpec check_engine_spec(ComponentKind kind,
                                  const std::string& spec_text) const;

  SystemConfig config_;
  EngineOptions options_;
  /// Builders bound to the canonical specs when they were set; empty
  /// while unset. An engine's factories wrap them, so building an engine
  /// validates no spec again.
  ComponentRegistry::BoundPolicyBuilder policy_;
  ComponentRegistry::BoundPredictorBuilder predictor_;
  std::string policy_text_;
  std::string predictor_text_;
};

}  // namespace repl
