// The component registry: string-keyed, parameterized factories for
// every replication policy and predictor in the library.
//
// A ComponentSpec (api/spec.hpp) names a component and its parameters;
// the registry validates the spec against the component's declared
// parameter schema (unknown/ill-typed parameters fail with a precise
// diagnostic), canonicalizes it (defaults filled in, parameters sorted
// by key, values normalized so semantically equal specs print equal
// strings), and constructs the component. Construction happens against a
// BuildContext carrying everything a factory may need: the SystemConfig
// (server count, λ), a deterministic seed for randomized components, and
// — for offline experiments only — the driving trace.
//
// Causality: components flagged `requires_trace` (the clairvoyant
// oracle/adversarial/noisy predictors and the offline-plan replay
// policy) can only be built when the context supplies a trace. The
// engine facade (api/experiment.hpp) rejects such specs up front with a
// spec-naming diagnostic, because the streaming engine is online — there
// is no trace to peek at.
//
// The registry is populated with every concrete component in src/ at
// first use (thread-safe magic static); drivers may register additional
// components at startup, before concurrent use begins.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "core/policy.hpp"
#include "core/types.hpp"
#include "predictor/predictor.hpp"

namespace repl {

class Trace;

enum class ComponentKind { kPolicy, kPredictor };

/// Returns "policy" or "predictor" (for diagnostics).
const char* component_kind_name(ComponentKind kind);

enum class ParamType { kDouble, kUint, kBool };

struct ParamInfo {
  std::string key;
  ParamType type = ParamType::kDouble;
  /// Canonical default, substituted when the spec omits the parameter.
  std::string default_value;
  std::string help;
  /// Accepted numeric range (kDouble/kUint), mirroring the component
  /// constructor's own REQUIREs — so an out-of-range value fails at the
  /// spec boundary with a parameter-naming diagnostic instead of deep
  /// inside a serve. Non-finite doubles are always rejected.
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  bool min_exclusive = false;
};

struct ComponentInfo {
  std::string name;
  ComponentKind kind = ComponentKind::kPolicy;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Nested component arguments (ensemble experts). Children are
  /// validated against the same kind's table.
  std::size_t min_children = 0;
  std::size_t max_children = 0;
  /// Clairvoyant: construction needs the full trace, so the component is
  /// rejected for online (engine) use.
  bool requires_trace = false;
  /// A representative runnable spec, shown by --list flags and used by
  /// the smoke tests; defaults to the bare name when empty.
  std::string example;
};

/// Everything a factory gets to build one component instance.
struct BuildContext {
  SystemConfig config;
  /// Deterministic per-instance seed (e.g. the engine's per-object seed
  /// stream); randomized components must draw from it only.
  std::uint64_t seed = 0;
  /// The driving trace for clairvoyant components; null in online use.
  const Trace* trace = nullptr;
};

/// Typed accessor over a *validated* spec: falls back to the declared
/// default when the parameter was omitted.
class SpecParams {
 public:
  SpecParams(const ComponentSpec& spec, const ComponentInfo& info)
      : spec_(&spec), info_(&info) {}

  double get_double(const std::string& key) const;
  std::uint64_t get_uint(const std::string& key) const;
  bool get_bool(const std::string& key) const;

 private:
  const std::string& raw(const std::string& key) const;

  const ComponentSpec* spec_;
  const ComponentInfo* info_;
};

class ComponentRegistry {
 public:
  using PolicyBuilder =
      std::function<PolicyPtr(const ComponentSpec&, const BuildContext&)>;
  using PredictorBuilder =
      std::function<PredictorPtr(const ComponentSpec&, const BuildContext&)>;
  /// A builder bound to one validated spec: what a factory that builds
  /// many instances of the same component calls per instance.
  using BoundPolicyBuilder = std::function<PolicyPtr(const BuildContext&)>;
  using BoundPredictorBuilder =
      std::function<PredictorPtr(const BuildContext&)>;

  /// The process-wide registry, populated with every built-in component.
  static ComponentRegistry& instance();

  /// Registration: `info.name` must be unused within its kind. Builders
  /// receive a validated spec and may assume declared parameters parse.
  void register_policy(ComponentInfo info, PolicyBuilder build);
  void register_predictor(ComponentInfo info, PredictorBuilder build);

  /// Lookup; null when unknown.
  const ComponentInfo* find(ComponentKind kind,
                            const std::string& name) const;
  /// As find(), but throws SpecError naming the registered components.
  const ComponentInfo& info(ComponentKind kind,
                            const std::string& name) const;
  /// All registered components of `kind`, sorted by name.
  std::vector<const ComponentInfo*> components(ComponentKind kind) const;

  /// Validates names, parameters (known keys, declared types), and child
  /// counts, recursively. Throws SpecError with the offending component
  /// and key named.
  void validate(ComponentKind kind, const ComponentSpec& spec) const;

  /// True when the component, or any nested child, is clairvoyant.
  bool requires_trace(ComponentKind kind, const ComponentSpec& spec) const;

  /// Validates, then rewrites to the canonical form: every declared
  /// parameter present (defaults filled in), parameters sorted by key,
  /// values normalized (shortest round-trip doubles, true/false bools,
  /// plain decimal uints), children canonicalized recursively. Two specs
  /// are semantically equal iff their canonical prints are equal.
  ComponentSpec canonicalize(ComponentKind kind,
                             const ComponentSpec& spec) const;
  /// parse → canonicalize → print.
  std::string canonical_string(ComponentKind kind,
                               const std::string& spec_text) const;

  /// Validates `spec` and looks up its registry entry once, then returns
  /// the builder bound to it; calling that builder constructs one
  /// instance without validating again. The bound builder throws
  /// SpecError for a clairvoyant component when `ctx.trace` is null, and
  /// is safe to call concurrently.
  BoundPolicyBuilder policy_builder(const ComponentSpec& spec) const;
  BoundPredictorBuilder predictor_builder(const ComponentSpec& spec) const;

  /// policy_builder(spec)(ctx): validates and constructs one instance.
  PolicyPtr build_policy(const ComponentSpec& spec,
                         const BuildContext& ctx) const;
  PolicyPtr build_policy(const std::string& spec_text,
                         const BuildContext& ctx) const;
  PredictorPtr build_predictor(const ComponentSpec& spec,
                               const BuildContext& ctx) const;
  PredictorPtr build_predictor(const std::string& spec_text,
                               const BuildContext& ctx) const;

 private:
  struct Entry {
    ComponentInfo info;
    PolicyBuilder build_policy;
    PredictorBuilder build_predictor;
  };

  const std::map<std::string, Entry>& table(ComponentKind kind) const;
  std::map<std::string, Entry>& table(ComponentKind kind);
  const Entry& entry(ComponentKind kind, const std::string& name) const;

  std::map<std::string, Entry> policies_;
  std::map<std::string, Entry> predictors_;
};

/// Normalizes one scalar value string per its declared type; throws
/// SpecError (naming `component` and `key`) when the value does not
/// parse. Exposed for tests.
std::string normalize_param_value(const std::string& component,
                                  const ParamInfo& param,
                                  const std::string& value);

}  // namespace repl

// ---------------------------------------------------------------------
// Out-of-tree self-registration
// ---------------------------------------------------------------------
//
// An external component needs exactly one new .cpp: define the class,
// then register it at namespace scope with one of these macros — the
// registration runs before main() via a file-local static, so the
// component is immediately reachable from every spec-driven driver
// (`engine_serve --policy my_policy(...)`, checkpoints record and
// cross-check its canonical spec, etc.). No registry of registrations
// to edit, nothing else to recompile.
//
//   REPL_REGISTER_POLICY(my_policy, [] {
//     repl::ComponentInfo info;
//     info.name = "my_policy";
//     info.summary = "…";
//     return info;
//   }(), [](const repl::ComponentSpec&, const repl::BuildContext&)
//       -> repl::PolicyPtr { return std::make_unique<MyPolicy>(); });
//
// `token` only names the file-local static (one registration per token
// per translation unit). Link the .cpp into the executable target
// itself (or an OBJECT library): a classic static archive may drop a TU
// nothing references, and then the initializer never runs.
//
// Thread safety: registration happens during static initialization,
// before threads exist; ComponentRegistry::instance() itself is a
// thread-safe magic static, so builtins are always registered first.

#define REPL_REGISTER_POLICY(token, ...)                                     \
  [[maybe_unused]] static const bool repl_registered_policy_##token =        \
      (::repl::ComponentRegistry::instance().register_policy(__VA_ARGS__),   \
       true)

#define REPL_REGISTER_PREDICTOR(token, ...)                                  \
  [[maybe_unused]] static const bool repl_registered_predictor_##token =     \
      (::repl::ComponentRegistry::instance().register_predictor(             \
           __VA_ARGS__),                                                     \
       true)
