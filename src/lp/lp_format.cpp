#include "lp/lp_format.hpp"

#include <cmath>
#include <sstream>

#include "common/check.hpp"

#include "common/narrow.hpp"

namespace pran::lp {
namespace {

bool lp_name_char(char c) {
  return std::isalnum(narrow_cast<unsigned char>(c)) || c == '_' || c == '.';
}

std::string sanitise(const std::string& name, int index) {
  std::string out;
  for (char c : name) out += lp_name_char(c) ? c : '_';
  if (out.empty() || std::isdigit(narrow_cast<unsigned char>(out[0]))) {
    // Appended piece by piece: GCC 12's -Wrestrict misfires on
    // `const char* + std::string&&` in optimised builds.
    std::string prefixed = "x";
    prefixed += std::to_string(index);
    prefixed += '_';
    prefixed += out;
    return prefixed;
  }
  return out;
}

void append_expr(std::ostringstream& os, const LinearExpr& expr) {
  bool first = true;
  for (const auto& [v, c] : expr.terms()) {
    if (c == 0.0) continue;
    if (first) {
      if (c < 0.0) os << "- ";
    } else {
      os << (c < 0.0 ? " - " : " + ");
    }
    const double mag = std::abs(c);
    if (mag != 1.0) os << mag << " ";
    os << "v" << v.index;
    first = false;
  }
  if (first) os << "0 v0";  // LP format forbids empty expressions
}

}  // namespace

LpExport write_lp_format(const Model& model) {
  PRAN_REQUIRE(model.num_variables() > 0, "model has no variables");
  LpExport out;

  // Unique sanitised names, then rewrite expression dumps from vN
  // placeholders — simplest way to keep append_expr allocation-free.
  std::vector<std::string> names;
  names.reserve(model.variables().size());
  std::map<std::string, int> used;
  for (int i = 0; i < model.num_variables(); ++i) {
    std::string base = sanitise(
        model.variables()[static_cast<std::size_t>(i)].name, i);
    auto [it, inserted] = used.emplace(base, i);
    if (!inserted) {
      base += '_';
      base += std::to_string(i);
      used.emplace(base, i);
    }
    names.push_back(base);
    out.name_to_index[base] = i;
  }
  auto rewrite = [&](std::string text) {
    // Replace placeholders vN with sanitised names, longest index first is
    // unnecessary since we delimit scan by non-digit char.
    std::string result;
    for (std::size_t i = 0; i < text.size();) {
      if (text[i] == 'v' && i + 1 < text.size() &&
          std::isdigit(narrow_cast<unsigned char>(text[i + 1]))) {
        std::size_t j = i + 1;
        while (j < text.size() &&
               std::isdigit(narrow_cast<unsigned char>(text[j])))
          ++j;
        const int idx = std::stoi(text.substr(i + 1, j - i - 1));
        result += names[static_cast<std::size_t>(idx)];
        i = j;
      } else {
        result += text[i++];
      }
    }
    return result;
  };

  std::ostringstream os;
  os << (model.sense() == Sense::kMinimize ? "Minimize" : "Maximize")
     << "\n obj: ";
  {
    std::ostringstream expr;
    append_expr(expr, model.objective());
    os << rewrite(expr.str());
    // LP format has no objective constant; emit as a comment.
    if (model.objective().constant() != 0.0)
      os << "\n\\ objective constant: " << model.objective().constant();
  }
  os << "\nSubject To\n";
  int row = 0;
  for (const auto& ci : model.constraints()) {
    std::ostringstream expr;
    append_expr(expr, ci.constraint.lhs);
    os << " c" << row++ << ": " << rewrite(expr.str());
    switch (ci.constraint.relation) {
      case Relation::kLessEqual:
        os << " <= ";
        break;
      case Relation::kGreaterEqual:
        os << " >= ";
        break;
      case Relation::kEqual:
        os << " = ";
        break;
    }
    os << ci.constraint.rhs << "\n";
  }

  os << "Bounds\n";
  for (int i = 0; i < model.num_variables(); ++i) {
    const auto& v = model.variables()[static_cast<std::size_t>(i)];
    if (v.type == VarType::kBinary) continue;  // implied by Binaries
    os << " " << v.lower << " <= " << names[static_cast<std::size_t>(i)];
    if (std::isfinite(v.upper)) os << " <= " << v.upper;
    os << "\n";
  }

  std::ostringstream generals, binaries;
  for (int i = 0; i < model.num_variables(); ++i) {
    const auto& v = model.variables()[static_cast<std::size_t>(i)];
    if (v.type == VarType::kInteger)
      generals << " " << names[static_cast<std::size_t>(i)] << "\n";
    else if (v.type == VarType::kBinary)
      binaries << " " << names[static_cast<std::size_t>(i)] << "\n";
  }
  if (!generals.str().empty()) os << "Generals\n" << generals.str();
  if (!binaries.str().empty()) os << "Binaries\n" << binaries.str();
  os << "End\n";

  out.text = os.str();
  return out;
}

}  // namespace pran::lp
