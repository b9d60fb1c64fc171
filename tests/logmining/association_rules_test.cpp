#include "logmining/association_rules.h"

#include <gtest/gtest.h>

namespace prord::logmining {
namespace {

Session txn(std::vector<trace::FileId> pages) {
  Session s;
  s.pages = std::move(pages);
  return s;
}

TEST(Apriori, FindsObviousRule) {
  AprioriOptions opt;
  opt.min_support = 0.3;
  opt.min_confidence = 0.6;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions;
  for (int i = 0; i < 10; ++i) sessions.push_back(txn({1, 2}));
  for (int i = 0; i < 3; ++i) sessions.push_back(txn({3}));
  m.train(sessions);
  ASSERT_FALSE(m.rules().empty());
  bool found = false;
  for (const auto& r : m.rules())
    if (r.antecedent == std::vector<trace::FileId>{1} && r.consequent == 2)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Apriori, SupportThresholdPrunes) {
  AprioriOptions opt;
  opt.min_support = 0.5;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions;
  for (int i = 0; i < 10; ++i) sessions.push_back(txn({1, 2}));
  sessions.push_back(txn({8, 9}));  // support 1/11 < 0.5
  m.train(sessions);
  for (const auto& r : m.rules()) {
    EXPECT_NE(r.consequent, 8u);
    EXPECT_NE(r.consequent, 9u);
  }
}

TEST(Apriori, ConfidenceComputedCorrectly) {
  AprioriOptions opt;
  opt.min_support = 0.1;
  opt.min_confidence = 0.1;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions;
  for (int i = 0; i < 8; ++i) sessions.push_back(txn({1, 2}));
  for (int i = 0; i < 2; ++i) sessions.push_back(txn({1, 3}));
  m.train(sessions);
  for (const auto& r : m.rules()) {
    if (r.antecedent == std::vector<trace::FileId>{1} && r.consequent == 2) {
      EXPECT_NEAR(r.confidence, 0.8, 1e-9);
    }
    if (r.antecedent == std::vector<trace::FileId>{1} && r.consequent == 3) {
      EXPECT_NEAR(r.confidence, 0.2, 1e-9);
    }
  }
}

TEST(Apriori, MinesTripleItemsets) {
  AprioriOptions opt;
  opt.min_support = 0.5;
  opt.min_confidence = 0.5;
  opt.max_itemset = 3;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions;
  for (int i = 0; i < 10; ++i) sessions.push_back(txn({1, 2, 3}));
  m.train(sessions);
  ASSERT_GE(m.level_sizes().size(), 3u);
  EXPECT_EQ(m.level_sizes()[0], 3u);  // {1},{2},{3}
  EXPECT_EQ(m.level_sizes()[1], 3u);  // {1,2},{1,3},{2,3}
  EXPECT_EQ(m.level_sizes()[2], 1u);  // {1,2,3}
  bool pair_rule = false;
  for (const auto& r : m.rules())
    if (r.antecedent.size() == 2) pair_rule = true;
  EXPECT_TRUE(pair_rule);
}

TEST(Apriori, DuplicatePageViewsCollapse) {
  AprioriOptions opt;
  opt.min_support = 0.9;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions{txn({1, 1, 1, 2})};
  m.train(sessions);
  // Support of {1} must be 1.0 (one transaction), not 3.
  ASSERT_FALSE(m.level_sizes().empty());
  EXPECT_EQ(m.level_sizes()[0], 2u);
}

TEST(Apriori, PredictFiresMatchingRule) {
  AprioriOptions opt;
  opt.min_support = 0.2;
  opt.min_confidence = 0.5;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions;
  for (int i = 0; i < 10; ++i) sessions.push_back(txn({1, 2, 5}));
  m.train(sessions);
  const auto pred =
      m.predict(std::vector<trace::FileId>{1, 2}, 0.5);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->page, 5u);
}

TEST(Apriori, PredictSkipsAlreadyVisited) {
  AprioriOptions opt;
  opt.min_support = 0.2;
  opt.min_confidence = 0.5;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions;
  for (int i = 0; i < 10; ++i) sessions.push_back(txn({1, 2}));
  m.train(sessions);
  // Context already contains 2, the only possible consequent.
  EXPECT_FALSE(m.predict(std::vector<trace::FileId>{1, 2}, 0.1).has_value());
}

TEST(Apriori, EmptyTrainingNoRules) {
  AssociationRuleMiner m;
  m.train({});
  EXPECT_TRUE(m.rules().empty());
  EXPECT_FALSE(m.predict(std::vector<trace::FileId>{1}, 0.0).has_value());
}

TEST(Apriori, RejectsBadOptions) {
  AprioriOptions bad;
  bad.min_support = 0.0;
  EXPECT_THROW(AssociationRuleMiner{bad}, std::invalid_argument);
  bad = {};
  bad.min_confidence = 1.5;
  EXPECT_THROW(AssociationRuleMiner{bad}, std::invalid_argument);
  bad = {};
  bad.max_itemset = 1;
  EXPECT_THROW(AssociationRuleMiner{bad}, std::invalid_argument);
}

TEST(Apriori, RulesSortedByConfidence) {
  AprioriOptions opt;
  opt.min_support = 0.05;
  opt.min_confidence = 0.05;
  AssociationRuleMiner m(opt);
  std::vector<Session> sessions;
  for (int i = 0; i < 9; ++i) sessions.push_back(txn({1, 2}));
  for (int i = 0; i < 1; ++i) sessions.push_back(txn({1, 3}));
  m.train(sessions);
  for (std::size_t i = 1; i < m.rules().size(); ++i)
    EXPECT_GE(m.rules()[i - 1].confidence, m.rules()[i].confidence);
}

}  // namespace
}  // namespace prord::logmining
