// Tests for the LP-format exporter.

#include <gtest/gtest.h>

#include "lp/lp_format.hpp"

namespace pran::lp {
namespace {

Model sample_model() {
  Model m;
  const auto x = m.add_binary("x_c0 s1");  // space must be sanitised
  const auto y = m.add_integer("y", 0, 7);
  const auto z = m.add_continuous("z", 1.0, kInfinity);
  m.add_constraint("cap", 2.0 * LinearExpr(x) + 3.0 * LinearExpr(y) -
                              LinearExpr(z) <=
                          10.0);
  m.add_constraint("eq", LinearExpr(y) + LinearExpr(z) == 5.0);
  m.set_objective(Sense::kMaximize,
                  4.0 * LinearExpr(x) + LinearExpr(y) - 0.5 * LinearExpr(z));
  return m;
}

TEST(LpFormat, ContainsAllSections) {
  const auto exported = write_lp_format(sample_model());
  const std::string& text = exported.text;
  EXPECT_NE(text.find("Maximize"), std::string::npos);
  EXPECT_NE(text.find("Subject To"), std::string::npos);
  EXPECT_NE(text.find("Bounds"), std::string::npos);
  EXPECT_NE(text.find("Generals"), std::string::npos);
  EXPECT_NE(text.find("Binaries"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

TEST(LpFormat, SanitisesNamesAndMapsBack) {
  const auto exported = write_lp_format(sample_model());
  EXPECT_EQ(exported.text.find("x_c0 s1"), std::string::npos);
  EXPECT_NE(exported.text.find("x_c0_s1"), std::string::npos);
  ASSERT_EQ(exported.name_to_index.size(), 3u);
  EXPECT_EQ(exported.name_to_index.at("x_c0_s1"), 0);
  EXPECT_EQ(exported.name_to_index.at("y"), 1);
}

TEST(LpFormat, PrefixesDigitLeadingNamesAndDeduplicates) {
  Model m;
  (void)m.add_binary("7up");  // LP names may not start with a digit
  (void)m.add_binary("a b");
  (void)m.add_binary("a_b");  // collides with the sanitised "a b"
  m.set_objective(Sense::kMaximize, LinearExpr(Variable{0}));
  const auto exported = write_lp_format(m);
  ASSERT_EQ(exported.name_to_index.size(), 3u);
  EXPECT_EQ(exported.name_to_index.at("x0_7up"), 0);
  EXPECT_EQ(exported.name_to_index.at("a_b"), 1);
  EXPECT_EQ(exported.name_to_index.at("a_b_2"), 2);
}

TEST(LpFormat, EmitsRelationsAndCoefficients) {
  const auto exported = write_lp_format(sample_model());
  EXPECT_NE(exported.text.find("<= 10"), std::string::npos);
  EXPECT_NE(exported.text.find("= 5"), std::string::npos);
  EXPECT_NE(exported.text.find("2 x_c0_s1"), std::string::npos);
  EXPECT_NE(exported.text.find("- z"), std::string::npos);
}

TEST(LpFormat, InfiniteUpperBoundOmitted) {
  const auto exported = write_lp_format(sample_model());
  // z has no finite upper bound: its Bounds line ends at the name.
  EXPECT_NE(exported.text.find("1 <= z\n"), std::string::npos);
}

}  // namespace
}  // namespace pran::lp
