#include "api/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "baselines/naive.hpp"
#include "baselines/wang2021.hpp"
#include "core/adaptive_drwp.hpp"
#include "core/drwp.hpp"
#include "extensions/randomized_drwp.hpp"
#include "extensions/weighted_drwp.hpp"
#include "offline/opt_dp.hpp"
#include "offline/planned_policy.hpp"
#include "predictor/ensemble.hpp"
#include "predictor/fixed.hpp"
#include "predictor/history.hpp"
#include "predictor/last_gap.hpp"
#include "predictor/noisy.hpp"
#include "predictor/oracle.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace repl {

namespace {

[[noreturn]] void spec_fail(const std::string& what) { throw SpecError(what); }

std::string param_context(const std::string& component,
                          const std::string& key) {
  return "parameter '" + key + "' of '" + component + "'";
}

const ParamInfo* find_param(const ComponentInfo& info,
                            const std::string& key) {
  for (const ParamInfo& param : info.params) {
    if (param.key == key) return &param;
  }
  return nullptr;
}

const std::string* given_value(const ComponentSpec& spec,
                               const std::string& key) {
  for (const auto& [k, v] : spec.params) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

const char* component_kind_name(ComponentKind kind) {
  return kind == ComponentKind::kPolicy ? "policy" : "predictor";
}

namespace {

/// Rejects values outside the parameter's declared range. Written so a
/// NaN never passes (every comparison with it is false).
void check_range(const std::string& component, const ParamInfo& param,
                 double parsed, const std::string& value) {
  const bool above_min = param.min_exclusive ? parsed > param.min_value
                                             : parsed >= param.min_value;
  if (above_min && parsed <= param.max_value) return;
  std::ostringstream os;
  os << param_context(component, param.key) << ": " << value
     << " is out of range (must be " << (param.min_exclusive ? "> " : ">= ")
     << param.min_value;
  if (param.max_value != std::numeric_limits<double>::infinity()) {
    os << " and <= " << param.max_value;
  }
  os << ")";
  spec_fail(os.str());
}

}  // namespace

std::string normalize_param_value(const std::string& component,
                                  const ParamInfo& param,
                                  const std::string& value) {
  switch (param.type) {
    case ParamType::kDouble: {
      double parsed = 0.0;
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc{} || end != value.data() + value.size() ||
          !std::isfinite(parsed)) {
        spec_fail(param_context(component, param.key) + ": \"" + value +
                  "\" is not a finite number");
      }
      check_range(component, param, parsed, value);
      char buffer[64];
      const auto [out, oec] =
          std::to_chars(buffer, buffer + sizeof(buffer), parsed);
      REPL_CHECK(oec == std::errc{});
      return std::string(buffer, out);
    }
    case ParamType::kUint: {
      std::uint64_t parsed = 0;
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc{} || end != value.data() + value.size()) {
        spec_fail(param_context(component, param.key) + ": \"" + value +
                  "\" is not a non-negative integer");
      }
      check_range(component, param, static_cast<double>(parsed), value);
      return std::to_string(parsed);
    }
    case ParamType::kBool: {
      if (value == "true" || value == "1") return "true";
      if (value == "false" || value == "0") return "false";
      spec_fail(param_context(component, param.key) + ": \"" + value +
                "\" is not a boolean (true/false)");
    }
  }
  REPL_CHECK(false);  // unreachable: the switch covers every ParamType
  return value;
}

// ---------------------------------------------------------------------
// SpecParams
// ---------------------------------------------------------------------

const std::string& SpecParams::raw(const std::string& key) const {
  const ParamInfo* param = find_param(*info_, key);
  REPL_CHECK_MSG(param != nullptr, "component '" << info_->name
                                                << "' declares no parameter '"
                                                << key << "'");
  if (const std::string* given = given_value(*spec_, key)) return *given;
  return param->default_value;
}

double SpecParams::get_double(const std::string& key) const {
  const std::string& value = raw(key);
  double parsed = 0.0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  REPL_CHECK(ec == std::errc{} && end == value.data() + value.size());
  return parsed;
}

std::uint64_t SpecParams::get_uint(const std::string& key) const {
  const std::string& value = raw(key);
  std::uint64_t parsed = 0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  REPL_CHECK(ec == std::errc{} && end == value.data() + value.size());
  return parsed;
}

bool SpecParams::get_bool(const std::string& key) const {
  const std::string& value = raw(key);
  return value == "true" || value == "1";
}

// ---------------------------------------------------------------------
// Registry core
// ---------------------------------------------------------------------

const std::map<std::string, ComponentRegistry::Entry>&
ComponentRegistry::table(ComponentKind kind) const {
  return kind == ComponentKind::kPolicy ? policies_ : predictors_;
}

std::map<std::string, ComponentRegistry::Entry>& ComponentRegistry::table(
    ComponentKind kind) {
  return kind == ComponentKind::kPolicy ? policies_ : predictors_;
}

void ComponentRegistry::register_policy(ComponentInfo info,
                                        PolicyBuilder build) {
  info.kind = ComponentKind::kPolicy;
  REPL_REQUIRE_MSG(build != nullptr, "null builder for '" << info.name << "'");
  for (const ParamInfo& param : info.params) {
    // Every parameter needs a default: canonical specs spell out the
    // full effective configuration.
    REPL_REQUIRE_MSG(!param.default_value.empty(),
                     "parameter '" << param.key << "' of '" << info.name
                                   << "' has no default");
  }
  if (info.example.empty()) info.example = info.name;
  const std::string name = info.name;  // keyed before the move below
  auto [it, inserted] = policies_.emplace(
      name, Entry{std::move(info), std::move(build), nullptr});
  REPL_REQUIRE_MSG(inserted,
                   "policy '" << it->first << "' registered twice");
}

void ComponentRegistry::register_predictor(ComponentInfo info,
                                           PredictorBuilder build) {
  info.kind = ComponentKind::kPredictor;
  REPL_REQUIRE_MSG(build != nullptr, "null builder for '" << info.name << "'");
  for (const ParamInfo& param : info.params) {
    REPL_REQUIRE_MSG(!param.default_value.empty(),
                     "parameter '" << param.key << "' of '" << info.name
                                   << "' has no default");
  }
  if (info.example.empty()) info.example = info.name;
  const std::string name = info.name;  // keyed before the move below
  auto [it, inserted] = predictors_.emplace(
      name, Entry{std::move(info), nullptr, std::move(build)});
  REPL_REQUIRE_MSG(inserted,
                   "predictor '" << it->first << "' registered twice");
}

const ComponentInfo* ComponentRegistry::find(ComponentKind kind,
                                             const std::string& name) const {
  const auto& entries = table(kind);
  const auto it = entries.find(name);
  return it == entries.end() ? nullptr : &it->second.info;
}

const ComponentRegistry::Entry& ComponentRegistry::entry(
    ComponentKind kind, const std::string& name) const {
  const auto& entries = table(kind);
  const auto it = entries.find(name);
  if (it == entries.end()) {
    std::ostringstream os;
    os << "unknown " << component_kind_name(kind) << " '" << name
       << "'; registered "
       << (kind == ComponentKind::kPolicy ? "policies" : "predictors")
       << ":";
    bool first = true;
    for (const auto& [key, value] : entries) {
      os << (first ? " " : ", ") << key;
      first = false;
    }
    spec_fail(os.str());
  }
  return it->second;
}

const ComponentInfo& ComponentRegistry::info(ComponentKind kind,
                                             const std::string& name) const {
  return entry(kind, name).info;
}

std::vector<const ComponentInfo*> ComponentRegistry::components(
    ComponentKind kind) const {
  std::vector<const ComponentInfo*> result;
  result.reserve(table(kind).size());
  for (const auto& [name, e] : table(kind)) result.push_back(&e.info);
  return result;  // std::map iteration is already name-sorted
}

void ComponentRegistry::validate(ComponentKind kind,
                                 const ComponentSpec& spec) const {
  const ComponentInfo& info = entry(kind, spec.name).info;
  for (const auto& [key, value] : spec.params) {
    const ParamInfo* param = find_param(info, key);
    if (param == nullptr) {
      std::ostringstream os;
      os << component_kind_name(kind) << " '" << spec.name
         << "' has no parameter '" << key << "'";
      if (info.params.empty()) {
        os << " (it takes none)";
      } else {
        os << "; parameters:";
        bool first = true;
        for (const ParamInfo& p : info.params) {
          os << (first ? " " : ", ") << p.key;
          first = false;
        }
      }
      spec_fail(os.str());
    }
    normalize_param_value(spec.name, *param, value);  // type check
  }
  const std::size_t children = spec.children.size();
  if (children < info.min_children || children > info.max_children) {
    std::ostringstream os;
    os << component_kind_name(kind) << " '" << spec.name << "' ";
    if (info.max_children == 0) {
      os << "takes no nested components";
    } else {
      os << "takes " << info.min_children << ".." << info.max_children
         << " nested components";
    }
    os << ", got " << children;
    spec_fail(os.str());
  }
  for (const ComponentSpec& child : spec.children) validate(kind, child);
}

bool ComponentRegistry::requires_trace(ComponentKind kind,
                                       const ComponentSpec& spec) const {
  const ComponentInfo& info = entry(kind, spec.name).info;
  if (info.requires_trace) return true;
  for (const ComponentSpec& child : spec.children) {
    if (requires_trace(kind, child)) return true;
  }
  return false;
}

ComponentSpec ComponentRegistry::canonicalize(
    ComponentKind kind, const ComponentSpec& spec) const {
  validate(kind, spec);
  const ComponentInfo& info = entry(kind, spec.name).info;
  ComponentSpec canonical;
  canonical.name = spec.name;
  canonical.children.reserve(spec.children.size());
  for (const ComponentSpec& child : spec.children) {
    canonical.children.push_back(canonicalize(kind, child));
  }
  // Every declared parameter, sorted by key, at its effective value.
  std::vector<const ParamInfo*> params;
  params.reserve(info.params.size());
  for (const ParamInfo& param : info.params) params.push_back(&param);
  std::sort(params.begin(), params.end(),
            [](const ParamInfo* a, const ParamInfo* b) {
              return a->key < b->key;
            });
  for (const ParamInfo* param : params) {
    const std::string* given = given_value(spec, param->key);
    canonical.params.emplace_back(
        param->key, normalize_param_value(spec.name, *param,
                                          given ? *given
                                                : param->default_value));
  }
  return canonical;
}

std::string ComponentRegistry::canonical_string(
    ComponentKind kind, const std::string& spec_text) const {
  return print_component_spec(
      canonicalize(kind, parse_component_spec(spec_text)));
}

namespace {

[[noreturn]] void clairvoyant_fail(ComponentKind kind,
                                   const ComponentSpec& spec) {
  spec_fail(std::string(component_kind_name(kind)) + " '" +
            print_component_spec(spec) +
            "' is clairvoyant (requires the full trace) and cannot be "
            "constructed without one");
}

}  // namespace

ComponentRegistry::BoundPolicyBuilder ComponentRegistry::policy_builder(
    const ComponentSpec& spec) const {
  validate(ComponentKind::kPolicy, spec);
  const bool clairvoyant = requires_trace(ComponentKind::kPolicy, spec);
  // Entries are never erased, so the builder outlives every binding.
  const PolicyBuilder* build =
      &entry(ComponentKind::kPolicy, spec.name).build_policy;
  return [spec, clairvoyant, build](const BuildContext& ctx) -> PolicyPtr {
    if (clairvoyant && ctx.trace == nullptr) {
      clairvoyant_fail(ComponentKind::kPolicy, spec);
    }
    return (*build)(spec, ctx);
  };
}

ComponentRegistry::BoundPredictorBuilder ComponentRegistry::predictor_builder(
    const ComponentSpec& spec) const {
  validate(ComponentKind::kPredictor, spec);
  const bool clairvoyant = requires_trace(ComponentKind::kPredictor, spec);
  const PredictorBuilder* build =
      &entry(ComponentKind::kPredictor, spec.name).build_predictor;
  return [spec, clairvoyant, build](const BuildContext& ctx) -> PredictorPtr {
    if (clairvoyant && ctx.trace == nullptr) {
      clairvoyant_fail(ComponentKind::kPredictor, spec);
    }
    return (*build)(spec, ctx);
  };
}

PolicyPtr ComponentRegistry::build_policy(const ComponentSpec& spec,
                                          const BuildContext& ctx) const {
  return policy_builder(spec)(ctx);
}

PolicyPtr ComponentRegistry::build_policy(const std::string& spec_text,
                                          const BuildContext& ctx) const {
  return build_policy(parse_component_spec(spec_text), ctx);
}

PredictorPtr ComponentRegistry::build_predictor(const ComponentSpec& spec,
                                                const BuildContext& ctx) const {
  return predictor_builder(spec)(ctx);
}

PredictorPtr ComponentRegistry::build_predictor(const std::string& spec_text,
                                                const BuildContext& ctx) const {
  return build_predictor(parse_component_spec(spec_text), ctx);
}

// ---------------------------------------------------------------------
// Built-in components
// ---------------------------------------------------------------------

namespace {

ComponentInfo make_info(std::string name, std::string summary) {
  ComponentInfo info;
  info.name = std::move(name);
  info.summary = std::move(summary);
  return info;
}

ParamInfo make_param(std::string key, ParamType type,
                     std::string default_value, std::string help) {
  ParamInfo param;
  param.key = std::move(key);
  param.type = type;
  param.default_value = std::move(default_value);
  param.help = std::move(help);
  return param;
}

/// As make_param, with the accepted range (mirroring the component
/// constructor's REQUIREs so bad values fail at the spec boundary).
ParamInfo make_ranged_param(std::string key, ParamType type,
                            std::string default_value, std::string help,
                            double min_value, bool min_exclusive,
                            double max_value) {
  ParamInfo param = make_param(std::move(key), type,
                               std::move(default_value), std::move(help));
  param.min_value = min_value;
  param.min_exclusive = min_exclusive;
  param.max_value = max_value;
  return param;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

ParamInfo alpha_param() {
  return make_ranged_param(
      "alpha", ParamType::kDouble, "0.3",
      "distrust hyper-parameter (guarantees hold for (0, 1])",
      /*min_value=*/0.0, /*min_exclusive=*/true, /*max_value=*/kInf);
}

/// The validated-spec view for a builder: the registry guarantees the
/// spec passed validation against `name`'s schema before the builder
/// runs.
SpecParams params_of(ComponentKind kind, const std::string& name,
                     const ComponentSpec& spec) {
  return SpecParams(spec, ComponentRegistry::instance().info(kind, name));
}

void register_builtin_policies(ComponentRegistry& registry) {
  {
    ComponentInfo info =
        make_info("drwp", "Algorithm 1: DRWP with predictions");
    info.params = {alpha_param()};
    info.example = "drwp(alpha=0.3)";
    registry.register_policy(
        std::move(info),
        [](const ComponentSpec& spec, const BuildContext&) -> PolicyPtr {
          const SpecParams params =
              params_of(ComponentKind::kPolicy, "drwp", spec);
          return std::make_unique<DrwpPolicy>(params.get_double("alpha"));
        });
  }
  registry.register_policy(
      make_info("conventional",
                "prediction-free 2-competitive baseline (alpha = 1)"),
      [](const ComponentSpec&, const BuildContext&) -> PolicyPtr {
        return std::make_unique<ConventionalPolicy>();
      });
  {
    ComponentInfo info = make_info(
        "adaptive", "Section-8 adapted Algorithm 1, robustness 2 + beta");
    info.params = {alpha_param(),
                   make_ranged_param("beta", ParamType::kDouble, "0.1",
                                     "robustness target is 2 + beta",
                                     0.0, false, kInf),
                   make_param("warmup", ParamType::kUint, "100",
                              "requests served before the monitor engages")};
    info.example = "adaptive(alpha=0.3,beta=0.1)";
    registry.register_policy(
        std::move(info),
        [](const ComponentSpec& spec, const BuildContext&) -> PolicyPtr {
          const SpecParams params =
              params_of(ComponentKind::kPolicy, "adaptive", spec);
          AdaptiveDrwpPolicy::Options options;
          options.beta = params.get_double("beta");
          options.warmup_requests =
              static_cast<std::size_t>(params.get_uint("warmup"));
          return std::make_unique<AdaptiveDrwpPolicy>(
              params.get_double("alpha"), options);
        });
  }
  {
    ComponentInfo info = make_info(
        "randomized", "ski-rental-style randomized DRWP durations");
    info.params = {alpha_param()};
    info.example = "randomized(alpha=0.3)";
    registry.register_policy(
        std::move(info),
        [](const ComponentSpec& spec, const BuildContext& ctx) -> PolicyPtr {
          const SpecParams params =
              params_of(ComponentKind::kPolicy, "randomized", spec);
          return std::make_unique<RandomizedDrwpPolicy>(
              params.get_double("alpha"), ctx.seed);
        });
  }
  {
    ComponentInfo info = make_info(
        "weighted", "distinct-storage-rate DRWP (durations scale 1/mu)");
    info.params = {alpha_param()};
    info.example = "weighted(alpha=0.3)";
    registry.register_policy(
        std::move(info),
        [](const ComponentSpec& spec, const BuildContext&) -> PolicyPtr {
          const SpecParams params =
              params_of(ComponentKind::kPolicy, "weighted", spec);
          return std::make_unique<WeightedDrwpPolicy>(
              params.get_double("alpha"));
        });
  }
  registry.register_policy(
      make_info("wang2021", "Wang et al. INFOCOM 2021 baseline"),
      [](const ComponentSpec&, const BuildContext&) -> PolicyPtr {
        return std::make_unique<Wang2021Policy>();
      });
  registry.register_policy(
      make_info("full_replication", "replicate on first touch, never drop"),
      [](const ComponentSpec&, const BuildContext&) -> PolicyPtr {
        return std::make_unique<FullReplicationPolicy>();
      });
  registry.register_policy(
      make_info("static_single", "keep only the initial copy, serve remote"),
      [](const ComponentSpec&, const BuildContext&) -> PolicyPtr {
        return std::make_unique<StaticPolicy>();
      });
  registry.register_policy(
      make_info("single_copy_chase", "one copy migrating to every requester"),
      [](const ComponentSpec&, const BuildContext&) -> PolicyPtr {
        return std::make_unique<SingleCopyChasePolicy>();
      });
  {
    ComponentInfo info = make_info(
        "offline_plan", "hindsight-optimal DP plan replayed (ratio 1)");
    info.requires_trace = true;
    registry.register_policy(
        std::move(info),
        [](const ComponentSpec&, const BuildContext& ctx) -> PolicyPtr {
          REPL_CHECK(ctx.trace != nullptr);  // enforced by build_policy
          return std::make_unique<PlannedPolicy>(
              *ctx.trace,
              OptimalDpSolver(ctx.config).solve_with_plan(*ctx.trace));
        });
  }
}

void register_builtin_predictors(ComponentRegistry& registry) {
  {
    ComponentInfo info = make_info(
        "last_gap", "next gap class equals the previous one (causal)");
    info.params = {make_param("within", ParamType::kBool, "false",
                              "forecast before the first observed gap")};
    registry.register_predictor(
        std::move(info),
        [](const ComponentSpec& spec,
           const BuildContext& ctx) -> PredictorPtr {
          const SpecParams params =
              params_of(ComponentKind::kPredictor, "last_gap", spec);
          return std::make_unique<LastGapPredictor>(
              ctx.config.num_servers, params.get_bool("within"));
        });
  }
  {
    ComponentInfo info =
        make_info("history", "EWMA of past inter-request times (causal)");
    info.params = {make_ranged_param("ewma", ParamType::kDouble, "0.3",
                                     "weight of the newest observation",
                                     0.0, true, 1.0),
                   make_ranged_param(
                       "margin", ParamType::kDouble, "1",
                       "forecast within iff EWMA <= margin*lambda", 0.0,
                       true, kInf),
                   make_param("within", ParamType::kBool, "false",
                              "forecast before the first observed gap")};
    info.example = "history(ewma=0.3)";
    registry.register_predictor(
        std::move(info),
        [](const ComponentSpec& spec,
           const BuildContext& ctx) -> PredictorPtr {
          const SpecParams params =
              params_of(ComponentKind::kPredictor, "history", spec);
          HistoryPredictor::Config config;
          config.ewma_decay = params.get_double("ewma");
          config.margin = params.get_double("margin");
          config.default_within = params.get_bool("within");
          return std::make_unique<HistoryPredictor>(ctx.config.num_servers,
                                                    config);
        });
  }
  {
    ComponentInfo info =
        make_info("ensemble", "weighted-majority vote over nested experts");
    info.params = {make_ranged_param(
        "penalty", ParamType::kDouble, "0.5",
        "multiplicative down-weight of wrong experts", 0.0, true, 1.0)};
    info.min_children = 1;
    info.max_children = EnsemblePredictor::kMaxExperts;
    info.example = "ensemble(last_gap,history(ewma=0.3))";
    registry.register_predictor(
        std::move(info),
        [](const ComponentSpec& spec,
           const BuildContext& ctx) -> PredictorPtr {
          const SpecParams params =
              params_of(ComponentKind::kPredictor, "ensemble", spec);
          std::vector<std::shared_ptr<Predictor>> experts;
          experts.reserve(spec.children.size());
          // Decorrelate expert seeds deterministically: expert i of an
          // instance seeded s draws from s mixed with i.
          std::uint64_t index = 0;
          for (const ComponentSpec& child : spec.children) {
            BuildContext child_ctx = ctx;
            child_ctx.seed = SplitMix64(ctx.seed + index).next();
            ++index;
            experts.push_back(
                ComponentRegistry::instance().build_predictor(child,
                                                              child_ctx));
          }
          EnsemblePredictor::Config config;
          config.penalty = params.get_double("penalty");
          return std::make_unique<EnsemblePredictor>(std::move(experts),
                                                     config);
        });
  }
  {
    ComponentInfo info = make_info(
        "fixed", "constant forecast (always within / always beyond)");
    info.params = {make_param("within", ParamType::kBool, "true",
                              "the constant forecast value")};
    info.example = "fixed(within=true)";
    registry.register_predictor(
        std::move(info),
        [](const ComponentSpec& spec, const BuildContext&) -> PredictorPtr {
          const SpecParams params =
              params_of(ComponentKind::kPredictor, "fixed", spec);
          return std::make_unique<FixedPredictor>(params.get_bool("within"));
        });
  }
  {
    ComponentInfo info = make_info("oracle", "ground truth (clairvoyant)");
    info.requires_trace = true;
    registry.register_predictor(
        std::move(info),
        [](const ComponentSpec&, const BuildContext& ctx) -> PredictorPtr {
          REPL_CHECK(ctx.trace != nullptr);
          return std::make_unique<OraclePredictor>(*ctx.trace);
        });
  }
  {
    ComponentInfo info =
        make_info("adversarial", "always-wrong oracle (clairvoyant)");
    info.requires_trace = true;
    registry.register_predictor(
        std::move(info),
        [](const ComponentSpec&, const BuildContext& ctx) -> PredictorPtr {
          REPL_CHECK(ctx.trace != nullptr);
          return std::make_unique<AdversarialPredictor>(*ctx.trace);
        });
  }
  {
    ComponentInfo info = make_info(
        "noisy", "ground truth flipped with prob. 1-accuracy "
                 "(clairvoyant, Appendix J)");
    info.params = {make_ranged_param(
        "accuracy", ParamType::kDouble, "0.9",
        "probability a prediction equals the truth", 0.0, false, 1.0)};
    info.requires_trace = true;
    info.example = "noisy(accuracy=0.9)";
    registry.register_predictor(
        std::move(info),
        [](const ComponentSpec& spec,
           const BuildContext& ctx) -> PredictorPtr {
          REPL_CHECK(ctx.trace != nullptr);
          const SpecParams params =
              params_of(ComponentKind::kPredictor, "noisy", spec);
          return std::make_unique<AccuracyPredictor>(
              *ctx.trace, params.get_double("accuracy"), ctx.seed);
        });
  }
}

}  // namespace

ComponentRegistry& ComponentRegistry::instance() {
  static ComponentRegistry* registry = [] {
    auto* r = new ComponentRegistry();
    register_builtin_policies(*r);
    register_builtin_predictors(*r);
    return r;
  }();
  return *registry;
}

}  // namespace repl
