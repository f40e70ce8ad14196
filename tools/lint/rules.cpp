#include "lint/rules.hpp"

#include <algorithm>
#include <set>
#include <string_view>

namespace pran::lint {

namespace {

bool path_contains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

bool in_src(const std::string& path) { return path.rfind("src/", 0) == 0; }

using Toks = std::vector<Token>;

const Token* at(const Toks& t, std::size_t i) {
  return i < t.size() ? &t[i] : nullptr;
}

bool prev_is(const Toks& t, std::size_t i, std::string_view p) {
  return i > 0 && is_punct(t[i - 1], p);
}

bool next_is(const Toks& t, std::size_t i, std::string_view p) {
  return i + 1 < t.size() && is_punct(t[i + 1], p);
}

/// True when tokens[i] is `name` qualified as `std::name` (and not
/// nested deeper, e.g. `foo::std::name` stays true — the std is what
/// matters).
bool std_qualified(const Toks& t, std::size_t i) {
  return i >= 2 && is_punct(t[i - 1], "::") && is_ident(t[i - 2], "std");
}

/// Reconstructs the spelled type between tokens [begin, end), with single
/// spaces between tokens but none around `::`, so it can be compared
/// against the narrow-target spellings ("std::int8_t", "unsigned short").
std::string spell_type(const Toks& t, std::size_t begin, std::size_t end) {
  std::string out;
  bool glue = false;  // suppress the space after a `::`
  for (std::size_t i = begin; i < end; ++i) {
    const std::string& s = t[i].text;
    if (s == "::") {
      out += s;
      glue = true;
      continue;
    }
    if (!out.empty() && !glue) out += ' ';
    out += s;
    glue = false;
  }
  return out;
}

// ----------------------------------------------------------- 9 ported rules

void rule_raw_thread(const std::string& path, const Toks& t,
                     std::vector<Finding>& out) {
  if (path_contains(path, "common/parallel.")) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if ((t[i].text == "thread" || t[i].text == "async") &&
        std_qualified(t, i)) {
      out.push_back({path, t[i].line, "raw-thread",
                     "std::" + t[i].text +
                         " outside common/parallel.*; use pran::ThreadPool "
                         "so sweeps stay deterministic"});
    }
  }
}

void rule_raw_rng(const std::string& path, const Toks& t,
                  std::vector<Finding>& out) {
  if (path_contains(path, "common/rng.")) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    const bool qualified = std_qualified(t, i);
    const bool engine = s == "mt19937" || s == "mt19937_64";
    const bool libc = s == "rand" || s == "srand";
    if (engine && qualified) {
      out.push_back({path, t[i].line, "raw-rng",
                     "std::" + s +
                         " outside common/rng.*; draw from pran::Rng so "
                         "experiments reproduce"});
    } else if (libc && (qualified || (!prev_is(t, i, "::") &&
                                      !prev_is(t, i, ".") &&
                                      !prev_is(t, i, "->") &&
                                      next_is(t, i, "(")))) {
      out.push_back({path, t[i].line, "raw-rng",
                     (qualified ? "std::" + s : s) +
                         " outside common/rng.*; draw from pran::Rng so "
                         "experiments reproduce"});
    }
  }
}

const std::set<std::string>& narrow_targets() {
  static const std::set<std::string> kTargets{
      "std::int8_t",   "std::int16_t",  "std::uint8_t", "std::uint16_t",
      "int8_t",        "int16_t",       "uint8_t",      "uint16_t",
      "short",         "unsigned short", "short int",   "unsigned short int",
      "char",          "signed char",   "unsigned char"};
  return kTargets;
}

void rule_narrowing_cast(const std::string& path, const Toks& t,
                         std::vector<Finding>& out) {
  if (path_contains(path, "common/narrow.hpp")) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i], "static_cast") || !next_is(t, i, "<")) continue;
    int depth = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (is_punct(t[j], "<")) ++depth;
      if (is_punct(t[j], ">") && --depth == 0) {
        close = j;
        break;
      }
    }
    if (close == 0) continue;
    const std::string type = spell_type(t, i + 2, close);
    if (narrow_targets().count(type) != 0) {
      out.push_back({path, t[i].line, "narrowing-cast",
                     "static_cast<" + type +
                         "> may truncate; use narrow<>/narrow_cast<> from "
                         "common/narrow.hpp"});
    }
  }
}

void rule_check_message(const std::string& path, const Toks& t,
                        std::vector<Finding>& out) {
  if (path_contains(path, "common/check.hpp")) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "PRAN_REQUIRE" && t[i].text != "PRAN_CHECK"))
      continue;
    // The macro's own #define (even line-continued) is not a use.
    if (t[i].in_directive) continue;
    if (!next_is(t, i, "(")) continue;
    // Walk the argument list; remember where the last top-level comma is.
    int depth = 0;
    std::size_t last_comma = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const Token& tok = t[j];
      if (tok.kind != TokKind::kPunct) continue;
      if (tok.text == "(" || tok.text == "[" || tok.text == "{") ++depth;
      if (tok.text == ")" || tok.text == "]" || tok.text == "}") {
        if (--depth == 0) {
          close = j;
          break;
        }
      }
      if (tok.text == "," && depth == 1) last_comma = j;
    }
    const Token* first_of_last_arg =
        last_comma != 0 ? at(t, last_comma + 1) : nullptr;
    const bool has_message = first_of_last_arg != nullptr && close != 0 &&
                             last_comma + 1 < close &&
                             first_of_last_arg->kind == TokKind::kString &&
                             first_of_last_arg->text != "\"\"";
    if (!has_message) {
      out.push_back({path, t[i].line, "check-message",
                     t[i].text +
                         " needs a non-empty string message — it is the "
                         "first clue in a ContractViolation"});
    }
  }
}

void rule_unit_param(const std::string& path, const Toks& t,
                     std::vector<Finding>& out) {
  if (!in_src(path) || !path.ends_with(".hpp")) return;
  static const std::vector<std::string> kSuffixes{"_db", "_dbm", "_bits",
                                                  "_us"};
  int depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_punct(t[i], "(")) ++depth;
    if (is_punct(t[i], ")")) depth = std::max(0, depth - 1);
    if (depth < 1 || !is_ident(t[i], "double")) continue;
    const Token* name = at(t, i + 1);
    if (name == nullptr || name->kind != TokKind::kIdent) continue;
    for (const auto& suffix : kSuffixes) {
      if (name->text.size() > suffix.size() && name->text.ends_with(suffix)) {
        out.push_back(
            {path, t[i].line, "unit-param",
             "double parameter `" + name->text +
                 "` in a public header carries a unit in its name; use "
                 "the strong type from common/units.hpp"});
        break;
      }
    }
  }
}

void rule_fault_bypass(const std::string& path, const Toks& t,
                       std::vector<Finding>& out) {
  // The injector implements delivery, the executor declares/defines the
  // mutators, and tests may drive them directly to pin executor semantics.
  if (path_contains(path, "src/faults/") ||
      path_contains(path, "src/cluster/executor.") ||
      path_contains(path, "tests/"))
    return;
  static const std::set<std::string> kMutators{
      "fail_server", "restore_server", "degrade_server", "restore_speed"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || kMutators.count(t[i].text) == 0)
      continue;
    const bool member = prev_is(t, i, ".") || prev_is(t, i, "->");
    if (!member || !next_is(t, i, "(")) continue;
    out.push_back({path, t[i].line, "fault-bypass",
                   t[i].text +
                       " called directly; deliver faults through "
                       "faults::FaultInjector so they are idempotent, "
                       "counted and monitor-visible, and the injector "
                       "stays the executor's only fault writer"});
  }
}

void rule_fault_switch_default(const std::string& path, const Toks& t,
                               std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i], "switch") || !next_is(t, i, "(")) continue;
    // Matching `)` of the condition, then the `{ ... }` body.
    int depth = 0;
    std::size_t body_begin = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (is_punct(t[j], "(")) ++depth;
      if (is_punct(t[j], ")") && --depth == 0) {
        body_begin = j + 1;
        break;
      }
    }
    if (body_begin == 0 || !is_punct(t[body_begin], "{")) continue;
    depth = 0;
    std::size_t body_end = 0;
    for (std::size_t j = body_begin; j < t.size(); ++j) {
      if (is_punct(t[j], "{")) ++depth;
      if (is_punct(t[j], "}") && --depth == 0) {
        body_end = j;
        break;
      }
    }
    if (body_end == 0) continue;
    // Guarded enums: adding a value to any of these must fail the build
    // at every switch (-Werror=switch), not fall through a default.
    const char* guarded = nullptr;
    bool has_default = false;
    for (std::size_t j = body_begin; j < body_end; ++j) {
      if (is_ident(t[j], "FaultKind")) guarded = "FaultKind";
      if (is_ident(t[j], "RungKind")) guarded = "RungKind";
      if (is_ident(t[j], "MigrationState")) guarded = "MigrationState";
      if (is_ident(t[j], "default") && next_is(t, j, ":")) has_default = true;
    }
    if (guarded && has_default) {
      out.push_back({path, t[i].line, "fault-switch-default",
                     std::string("switch over ") + guarded +
                         " with a default label — the default eats "
                         "-Werror=switch, so a new enumerator would fall "
                         "through silently; enumerate every case"});
    }
  }
}

void rule_adhoc_timing(const std::string& path, const Toks& t,
                       std::vector<Finding>& out) {
  // Library code only: the CLI surface (tools/bench/examples/tests) is
  // exactly where printing belongs. src/telemetry/ is the sanctioned home
  // of the process clock and exporters.
  if (!in_src(path)) return;
  if (path_contains(path, "src/telemetry/")) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == TokKind::kHeaderName && t[i].text == "<chrono>") {
      out.push_back({path, t[i].line, "adhoc-timing",
                     "std::chrono in library code; measure through "
                     "telemetry::Stopwatch / PRAN_SPAN so timings reach the "
                     "exported snapshot"});
      continue;
    }
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    if (s == "chrono") {
      out.push_back({path, t[i].line, "adhoc-timing",
                     "std::chrono in library code; measure through "
                     "telemetry::Stopwatch / PRAN_SPAN so timings reach the "
                     "exported snapshot"});
    } else if ((s == "printf" || s == "fprintf") && next_is(t, i, "(")) {
      // `fmt::printf` style wrappers don't count; bare or std:: does.
      if (prev_is(t, i, "::") && !std_qualified(t, i)) continue;
      out.push_back({path, t[i].line, "adhoc-timing",
                     (std_qualified(t, i) ? "std::" + s : s) +
                         " in library code; record through the telemetry "
                         "registry (or trace) instead of printing"});
    }
  }
}

void rule_raw_intrinsics(const std::string& path, const Toks& t,
                         std::vector<Finding>& out) {
  // The per-ISA kernel TUs (and their shared headers) are the sanctioned
  // home of vector intrinsics; they alone get per-file -m compile flags.
  if (path_contains(path, "src/coding/simd/")) return;
  const auto flag = [&](const Token& tok, const std::string& what) {
    out.push_back({path, tok.line, "raw-intrinsics",
                   what +
                       " outside src/coding/simd/ — raw SIMD needs "
                       "per-file -m flags and a CPUID guard; call the "
                       "kernels through the dispatch tables in "
                       "coding/simd/*_kernels.hpp instead"});
  };
  for (const Token& tok : t) {
    if (tok.kind == TokKind::kIdent &&
        (tok.text.rfind("_mm_", 0) == 0 || tok.text.rfind("_mm256_", 0) == 0 ||
         tok.text.rfind("_mm512_", 0) == 0)) {
      flag(tok, tok.text);
    } else if (tok.kind == TokKind::kHeaderName &&
               tok.text.find("immintrin.h") != std::string::npos) {
      flag(tok, "immintrin.h");
    }
  }
}

// ----------------------------------------------------------- metric names

/// Dotted lowercase `subsystem.metric`: [a-z0-9_] segments, at least one
/// dot, no empty segments. The convention every exporter (pran-report
/// prefixes, the timeline JSONL, pran-bench-diff) keys on; labelled
/// series append `{key=value}` via telemetry::series_name, so literal
/// names never carry braces.
bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  bool seen_dot = false;
  bool at_segment_start = true;
  for (const char c : name) {
    if (c == '.') {
      if (at_segment_start) return false;
      seen_dot = true;
      at_segment_start = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      at_segment_start = false;
    } else {
      return false;
    }
  }
  return seen_dot && !at_segment_start;
}

void rule_metric_name(const std::string& path, const Toks& t,
                      std::vector<Finding>& out) {
  // Tests register throwaway names ("a", "x.y") to probe the registry
  // mechanics; the convention binds the shipped surface.
  if (path_contains(path, "tests/")) return;
  static const std::set<std::string> kMacros{
      "PRAN_COUNTER_ADD", "PRAN_COUNTER_INC", "PRAN_GAUGE_SET",
      "PRAN_HIST_OBSERVE"};
  static const std::set<std::string> kMembers{"counter", "gauge",
                                              "histogram"};
  static const std::set<std::string> kFamilies{"CounterFamily",
                                               "GaugeFamily"};
  static const std::set<std::string> kLabelKeys{"cell", "server", "rung",
                                                "slice"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].in_directive) continue;
    const std::string& name = t[i].text;
    const bool macro = kMacros.count(name) != 0;
    const bool member = kMembers.count(name) != 0 &&
                        (prev_is(t, i, ".") || prev_is(t, i, "->"));
    const bool family = kFamilies.count(name) != 0;
    if (!macro && !member && !family) continue;

    // Locate the argument list. Macro/member calls open immediately; a
    // family construction may sit inside make_unique<...Family>( or
    // declare a variable first (Family fam(...)).
    std::size_t open = 0;
    if (macro || member) {
      if (!next_is(t, i, "(")) continue;
      open = i + 1;
    } else {
      for (std::size_t j = i + 1; j < std::min(t.size(), i + 4); ++j) {
        if (is_punct(t[j], "(") || is_punct(t[j], "{")) {
          open = j;
          break;
        }
        if (!is_punct(t[j], ">") && t[j].kind != TokKind::kIdent) break;
      }
      if (open == 0) continue;
    }

    // Split the call into top-level argument spans [start, end).
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int depth = 0;
    std::size_t arg_start = open + 1;
    for (std::size_t j = open; j < t.size(); ++j) {
      const Token& tok = t[j];
      if (tok.kind != TokKind::kPunct) continue;
      if (tok.text == "(" || tok.text == "[" || tok.text == "{") ++depth;
      else if (tok.text == ")" || tok.text == "]" || tok.text == "}") {
        if (--depth == 0) {
          if (j > arg_start) args.emplace_back(arg_start, j);
          break;
        }
      } else if (tok.text == "," && depth == 1) {
        args.emplace_back(arg_start, j);
        arg_start = j + 1;
      }
    }
    // A string literal only pins the full name when it IS the whole
    // argument — `"prefix." + name` style concatenations are exempt.
    const auto whole_string = [&](std::size_t k) -> const Token* {
      if (k >= args.size()) return nullptr;
      const auto [b, e] = args[k];
      if (e != b + 1 || t[b].kind != TokKind::kString) return nullptr;
      return &t[b];
    };
    const auto unquote = [](const std::string& s) {
      return s.size() >= 2 ? s.substr(1, s.size() - 2) : s;
    };

    std::size_t name_arg = 0;
    if (family || macro) {
      // Skip the leading registry reference; the name is the first
      // string-literal argument.
      name_arg = args.size();
      for (std::size_t k = 0; k < args.size(); ++k)
        if (whole_string(k) != nullptr) {
          name_arg = k;
          break;
        }
    }
    if (const Token* lit = whole_string(name_arg)) {
      if (!valid_metric_name(unquote(lit->text))) {
        out.push_back({path, lit->line, "metric-name",
                       "metric name " + lit->text +
                           " is not dotted lowercase subsystem.metric "
                           "([a-z0-9_] segments, at least one dot, no "
                           "braces — labels go through telemetry "
                           "families)"});
      }
    }
    if (family) {
      if (const Token* key = whole_string(name_arg + 1)) {
        if (kLabelKeys.count(unquote(key->text)) == 0) {
          out.push_back({path, key->line, "metric-name",
                         "label key " + key->text +
                             " is not in the allowlist {cell, server, "
                             "rung, slice} (telemetry/family.hpp) — "
                             "unbounded label keys break the cardinality "
                             "budget"});
        }
      }
    }
  }
}

// ----------------------------------------------------- determinism hazards

/// Lexical scope kinds for the determinism rule. Class scope is excluded
/// (static data members and static member functions are declarations, not
/// hidden global state); namespace and block scope are where a mutable
/// `static` silently couples runs together.
enum class Scope { kNamespace, kClass, kEnum, kBlock };

void rule_determinism_hazard(const std::string& path, const Toks& t,
                             std::vector<Finding>& out) {
  const bool rng_exempt = path_contains(path, "common/rng.");
  // time()/random_device anywhere (outside common/rng); mutable statics
  // only in library code — tools/bench/tests may keep ad-hoc state.
  const bool check_statics = in_src(path);
  std::vector<Scope> scopes;
  bool pending_class = false;
  bool pending_namespace = false;
  bool pending_enum = false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") {
        scopes.push_back(pending_enum        ? Scope::kEnum
                         : pending_class     ? Scope::kClass
                         : pending_namespace ? Scope::kNamespace
                                             : Scope::kBlock);
        pending_class = pending_namespace = pending_enum = false;
      } else if (tok.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
      } else if (tok.text == ";" || tok.text == "(" || tok.text == ")" ||
                 tok.text == "=") {
        // `struct Foo* p;`, `(struct Foo)` etc. — elaborated type
        // specifiers never reach their `{`.
        pending_class = pending_namespace = pending_enum = false;
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "class" || tok.text == "struct" || tok.text == "union") {
      if (!pending_enum) pending_class = true;  // `enum class` stays enum
      continue;
    }
    if (tok.text == "namespace") {
      pending_namespace = true;
      continue;
    }
    if (tok.text == "enum") {
      pending_enum = true;
      continue;
    }
    if (!rng_exempt && tok.text == "random_device") {
      out.push_back({path, tok.line, "determinism-hazard",
                     "std::random_device is nondeterministic by design; "
                     "seed a pran::Rng stream (common/rng.hpp) instead"});
      continue;
    }
    if (!rng_exempt && tok.text == "time" && next_is(t, i, "(") &&
        (std_qualified(t, i) ||
         (!prev_is(t, i, "::") && !prev_is(t, i, ".") &&
          !prev_is(t, i, "->")))) {
      out.push_back({path, tok.line, "determinism-hazard",
                     "time() seeds state from the wall clock; derive it "
                     "from the simulation clock or a pran::Rng stream"});
      continue;
    }
    const bool is_static = tok.text == "static";
    const bool is_thread_local = tok.text == "thread_local";
    if (!check_statics || (!is_static && !is_thread_local)) continue;
    const Scope scope = scopes.empty() ? Scope::kNamespace : scopes.back();
    if (scope == Scope::kClass || scope == Scope::kEnum) continue;
    // Function-local thread_local is the sanctioned per-worker workspace
    // pattern (results must not depend on the executing thread — the
    // golden tests pin that); namespace-scope thread_local is still
    // hidden cross-call state.
    if (is_thread_local && scope == Scope::kBlock) continue;
    // Scan the declaration head: a const/constexpr/constinit qualifier
    // anywhere before the declarator makes it immutable; reaching `(`
    // first means a function declaration (or ctor-style init, accepted).
    bool immutable = false;
    bool function_like = false;
    int angle = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const Token& h = t[j];
      if (h.kind == TokKind::kPunct) {
        if (h.text == "<") ++angle;
        if (h.text == ">") angle = std::max(0, angle - 1);
      }
      if (angle > 0) continue;  // template arguments are not qualifiers
      if (h.kind == TokKind::kIdent) {
        if (h.text == "const" || h.text == "constexpr" ||
            h.text == "constinit") {
          immutable = true;
          break;
        }
        continue;
      }
      if (h.kind != TokKind::kPunct) continue;
      if (h.text == "(") {
        function_like = true;
        break;
      }
      if (h.text == ";" || h.text == "=" || h.text == "{") break;
    }
    if (immutable || function_like) continue;
    out.push_back(
        {path, tok.line, "determinism-hazard",
         std::string(is_static ? "mutable static" : "namespace-scope "
                                                    "thread_local") +
             " state couples runs (and threads) together; make it const, "
             "pass it explicitly, or justify it with a suppression"});
  }
}

}  // namespace

// ------------------------------------------------------------- the catalog

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules{
      {"raw-thread",
       "std::thread/std::async outside common/parallel.*; all concurrency "
       "goes through pran::ThreadPool"},
      {"raw-rng",
       "rand()/std::mt19937 outside common/rng.*; every draw comes from "
       "pran::Rng"},
      {"narrowing-cast",
       "static_cast to a sub-32-bit integer; use narrow<>/narrow_cast<> "
       "from common/narrow.hpp"},
      {"check-message",
       "PRAN_REQUIRE/PRAN_CHECK without a non-empty message"},
      {"unit-param",
       "double parameter named *_db/*_dbm/*_bits/*_us in a public header; "
       "use the strong types from common/units.hpp"},
      {"fault-bypass",
       "Executor fault mutators called outside src/faults/; faults flow "
       "through faults::FaultInjector"},
      {"fault-switch-default",
       "switch over FaultKind, RungKind or MigrationState with a default "
       "label defeats -Werror=switch exhaustiveness"},
      {"adhoc-timing",
       "std::chrono or printf-family in library code; measure through "
       "telemetry"},
      {"raw-intrinsics",
       "x86 SIMD intrinsics outside src/coding/simd/; call through the "
       "dispatch tables"},
      {"metric-name",
       "telemetry metric literal is not dotted lowercase subsystem.metric, "
       "or a family label key is outside the allowlist"},
      {"determinism-hazard",
       "mutable static / namespace-scope thread_local state, "
       "std::random_device or time() — breaks thread-count invariance and "
       "run reproducibility"},
      {"layering",
       "#include crosses the module DAG in tools/lint/layers.txt backwards "
       "or reaches a module-private header"},
      {"include-cycle", "headers include each other in a cycle"},
      {"orphan-header",
       "header under src/ never included by any TU, tool, bench or test"},
      {"bad-suppression",
       "malformed pran-lint suppression (unknown rule or missing reason)"},
  };
  return kRules;
}

bool known_rule(const std::string& id) {
  const auto& rules = rule_catalog();
  return std::any_of(rules.begin(), rules.end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

void run_file_rules(const std::string& path, const TokenStream& toks,
                    std::vector<Finding>& out) {
  const Toks& t = toks.tokens;
  rule_raw_thread(path, t, out);
  rule_raw_rng(path, t, out);
  rule_narrowing_cast(path, t, out);
  rule_check_message(path, t, out);
  rule_unit_param(path, t, out);
  rule_fault_bypass(path, t, out);
  rule_fault_switch_default(path, t, out);
  rule_adhoc_timing(path, t, out);
  rule_raw_intrinsics(path, t, out);
  rule_metric_name(path, t, out);
  rule_determinism_hazard(path, t, out);
}

}  // namespace pran::lint
