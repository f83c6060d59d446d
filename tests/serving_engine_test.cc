#include "serving/score_engine.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/multi_domain_nmcdr.h"
#include "core/nmcdr_model.h"
#include "serving/ab_test.h"
#include "serving/model_snapshot.h"
#include "tests/test_util.h"

namespace nmcdr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// One trained two-domain NMCDR model plus its frozen snapshot, shared by
/// every test in this file (training once keeps the suite fast).
struct PairFixture {
  std::unique_ptr<ExperimentData> data;
  std::unique_ptr<NmcdrModel> model;
  ModelSnapshot snapshot;
};

PairFixture& Pair() {
  static PairFixture* fixture = [] {
    // NMCDR_LINT_ALLOW(naked-new): leaked on purpose — the fixture must
    // survive until the last test and dodge static-destruction order.
    auto* f = new PairFixture;
    f->data = testing_util::TinyData();
    NmcdrConfig config;
    config.hidden_dim = 8;
    f->model = std::make_unique<NmcdrModel>(f->data->View(), config, 1, 5e-3f);
    testing_util::TrainLossTrend(f->model.get(), *f->data, 20);
    EXPECT_TRUE(ModelSnapshot::FreezePair(f->model.get(),
                                          f->data->scenario(), &f->snapshot));
    return f;
  }();
  return *fixture;
}

DomainSide SideOf(int d) { return d == 0 ? DomainSide::kZ : DomainSide::kZbar; }

std::vector<int> AllItems(const ModelSnapshot& snapshot, int d) {
  std::vector<int> items(snapshot.domain(d).frozen.num_items());
  for (size_t i = 0; i < items.size(); ++i) items[i] = static_cast<int>(i);
  return items;
}

/// Trainer-path reference scores: the full autograd Score() for one user
/// against every given item.
std::vector<float> TrainerScores(NmcdrModel* model, int d, int user,
                                 const std::vector<int>& items) {
  const std::vector<int> users(items.size(), user);
  return model->Score(SideOf(d), users, items);
}

/// Reference ranking: full sort under the shared total order.
std::vector<std::pair<float, int>> BruteForceRank(
    const std::vector<float>& scores, const std::vector<int>& items) {
  std::vector<std::pair<float, int>> ranked;
  for (size_t i = 0; i < items.size(); ++i) {
    ranked.emplace_back(scores[i], items[i]);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<float, int>& a, const std::pair<float, int>& b) {
              return RanksBefore(a.first, a.second, b.first, b.second);
            });
  return ranked;
}

TEST(ModelSnapshotTest, FreezeRejectsUnsupportedModel) {
  PairFixture& f = Pair();
  testing_util::PolicyModel policy(
      "policy", [](DomainSide, int, int) { return 0.f; });
  ModelSnapshot snapshot;
  EXPECT_FALSE(
      ModelSnapshot::FreezePair(&policy, f.data->scenario(), &snapshot));
}

TEST(ModelSnapshotTest, FrozenScoreBitEqualsTrainerScore) {
  PairFixture& f = Pair();
  for (int d = 0; d < 2; ++d) {
    const FrozenDomainState& frozen = f.snapshot.domain(d).frozen;
    const std::vector<int> users = {0, 1, 2, 3, 5, 0};
    const std::vector<int> items = {3, 2, 1, 0, 7, 3};
    EXPECT_EQ(frozen.Score(users, items),
              f.model->Score(SideOf(d), users, items))
        << "domain " << d;
  }
}

TEST(ModelSnapshotTest, SaveLoadRoundTripIsBitExact) {
  PairFixture& f = Pair();
  const std::string path = TempPath("pair.snapshot");
  ASSERT_TRUE(f.snapshot.Save(path));
  ModelSnapshot loaded;
  ASSERT_TRUE(ModelSnapshot::Load(path, &loaded));
  EXPECT_TRUE(f.snapshot.Equals(loaded));

  // The loaded snapshot serves identical recommendations.
  ScoreEngine original(&f.snapshot);
  ScoreEngine restored(&loaded);
  RecRequest request;
  request.user = 3;
  request.k = 5;
  const Recommendation a = original.TopK(request);
  const Recommendation b = restored.TopK(request);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.scores, b.scores);
}

TEST(ModelSnapshotTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("bad_magic.snapshot");
  std::ofstream(path, std::ios::binary) << "NOTASNAP garbage bytes";
  ModelSnapshot snapshot;
  EXPECT_FALSE(ModelSnapshot::Load(path, &snapshot));
}

TEST(ModelSnapshotTest, LoadRejectsTruncatedFile) {
  PairFixture& f = Pair();
  const std::string path = TempPath("truncated.snapshot");
  ASSERT_TRUE(f.snapshot.Save(path));
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << contents.substr(0, contents.size() / 2);
  ModelSnapshot snapshot;
  EXPECT_FALSE(ModelSnapshot::Load(path, &snapshot));
}

TEST(ModelSnapshotTest, ResolveUserFollowsIdentityLinks) {
  PairFixture& f = Pair();
  const CdrScenario& scenario = f.data->scenario();
  int linked = -1, unlinked = -1;
  for (int v = 0; v < scenario.zbar.num_users; ++v) {
    if (scenario.zbar_to_z[v] >= 0 && linked < 0) linked = v;
    if (scenario.zbar_to_z[v] < 0 && unlinked < 0) unlinked = v;
  }
  ASSERT_GE(linked, 0);
  ASSERT_GE(unlinked, 0);
  EXPECT_EQ(f.snapshot.ResolveUser(1, linked, 0), scenario.zbar_to_z[linked]);
  EXPECT_EQ(f.snapshot.ResolveUser(1, unlinked, 0), -1);
  EXPECT_EQ(f.snapshot.ResolveUser(0, 4, 0), 4);  // same-domain identity
}

TEST(ScoreEngineTest, ExactModeBitEqualsTrainerScores) {
  PairFixture& f = Pair();
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kExact, 16});
  for (int d = 0; d < 2; ++d) {
    const std::vector<int> items = AllItems(f.snapshot, d);
    for (int user : {0, 7, 19}) {
      EXPECT_EQ(engine.ScoreCandidates(d, user, items),
                TrainerScores(f.model.get(), d, user, items))
          << "domain " << d << " user " << user;
    }
  }
}

TEST(ScoreEngineTest, FastModeTracksExactScoresClosely) {
  PairFixture& f = Pair();
  ScoreEngine exact(&f.snapshot, {ScoreEngine::Mode::kExact, 256});
  ScoreEngine fast(&f.snapshot, {ScoreEngine::Mode::kFast, 256});
  for (int d = 0; d < 2; ++d) {
    const std::vector<int> items = AllItems(f.snapshot, d);
    const std::vector<float> a = exact.ScoreCandidates(d, 2, items);
    const std::vector<float> b = fast.ScoreCandidates(d, 2, items);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      // Only first-layer summation rounding may differ.
      EXPECT_NEAR(a[i], b[i], 1e-4f) << "domain " << d << " item " << i;
    }
  }
}

TEST(ScoreEngineTest, TopKMatchesBruteForceTrainerRankingOnEveryDomain) {
  // The acceptance property: heap-based retrieval over the frozen
  // snapshot reproduces the full-autograd brute-force ranking exactly.
  PairFixture& f = Pair();
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kExact, 32});
  for (int d = 0; d < 2; ++d) {
    const std::vector<int> items = AllItems(f.snapshot, d);
    for (int user : {0, 3, 11, 24}) {
      const auto ranked = BruteForceRank(
          TrainerScores(f.model.get(), d, user, items), items);
      RecRequest request;
      request.target_domain = request.user_domain = d;
      request.user = user;
      request.k = 10;
      const Recommendation rec = engine.TopK(request);
      ASSERT_EQ(rec.items.size(), 10u);
      EXPECT_FALSE(rec.cold_start);
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(rec.items[i], ranked[i].second)
            << "domain " << d << " user " << user << " rank " << i;
        EXPECT_EQ(rec.scores[i], ranked[i].first);
      }
    }
  }
}

TEST(ScoreEngineTest, TopKRespectsExclusionSet) {
  PairFixture& f = Pair();
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kExact, 32});
  RecRequest request;
  request.user = 6;
  request.k = 5;
  const Recommendation unfiltered = engine.TopK(request);
  // Exclude the current top-3: the tail of the old ranking must shift up.
  request.exclude = {unfiltered.items[0], unfiltered.items[1],
                     unfiltered.items[2]};
  const Recommendation filtered = engine.TopK(request);
  ASSERT_EQ(filtered.items.size(), 5u);
  for (int item : request.exclude) {
    EXPECT_EQ(std::count(filtered.items.begin(), filtered.items.end(), item),
              0);
  }
  EXPECT_EQ(filtered.items[0], unfiltered.items[3]);
  EXPECT_EQ(filtered.items[1], unfiltered.items[4]);
}

TEST(ScoreEngineTest, KLargerThanCatalogReturnsFullRanking) {
  PairFixture& f = Pair();
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kExact, 32});
  RecRequest request;
  request.user = 1;
  request.k = 10000;
  const Recommendation rec = engine.TopK(request);
  EXPECT_EQ(static_cast<int>(rec.items.size()),
            f.snapshot.domain(0).frozen.num_items());
  for (size_t i = 1; i < rec.items.size(); ++i) {
    EXPECT_TRUE(RanksBefore(rec.scores[i - 1], rec.items[i - 1],
                            rec.scores[i], rec.items[i]));
  }
}

TEST(ScoreEngineTest, ColdStartUserServedThroughTargetDomainHead) {
  PairFixture& f = Pair();
  const CdrScenario& scenario = f.data->scenario();
  int unlinked = -1;
  for (int v = 0; v < scenario.zbar.num_users; ++v) {
    if (scenario.zbar_to_z[v] < 0) {
      unlinked = v;
      break;
    }
  }
  ASSERT_GE(unlinked, 0);
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kExact, 32});
  RecRequest request;
  request.target_domain = 0;
  request.user_domain = 1;
  request.user = unlinked;
  request.k = 5;
  const Recommendation rec = engine.TopK(request);
  EXPECT_TRUE(rec.cold_start);
  ASSERT_EQ(rec.items.size(), 5u);
  for (float s : rec.scores) EXPECT_TRUE(std::isfinite(s));
  EXPECT_GE(engine.counters().cold_start_requests, 1);
}

TEST(ScoreEngineTest, LinkedCrossDomainRequestEqualsNativeRequest) {
  PairFixture& f = Pair();
  const CdrScenario& scenario = f.data->scenario();
  int linked = -1;
  for (int v = 0; v < scenario.zbar.num_users; ++v) {
    if (scenario.zbar_to_z[v] >= 0) {
      linked = v;
      break;
    }
  }
  ASSERT_GE(linked, 0);
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kExact, 32});
  RecRequest cross;
  cross.target_domain = 0;
  cross.user_domain = 1;
  cross.user = linked;
  cross.k = 5;
  RecRequest native = cross;
  native.user_domain = 0;
  native.user = scenario.zbar_to_z[linked];
  const Recommendation a = engine.TopK(cross);
  const Recommendation b = engine.TopK(native);
  EXPECT_FALSE(a.cold_start);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.scores, b.scores);
}

TEST(ScoreEngineTest, CountersTrackUsage) {
  PairFixture& f = Pair();
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kFast, 32});
  const std::vector<int> candidates = {0, 1, 2, 3, 4};
  engine.ScoreCandidates(0, 0, candidates);
  RecRequest request;
  request.user = 0;
  request.k = 3;
  engine.TopK(request);
  const ScoreEngine::Counters counters = engine.counters();
  EXPECT_EQ(counters.requests, 2);
  EXPECT_EQ(counters.pairs_scored,
            5 + f.snapshot.domain(0).frozen.num_items());
}

TEST(ScoreEngineTest, TopKBatchMatchesIndividualRequests) {
  PairFixture& f = Pair();
  ScoreEngine engine(&f.snapshot, {ScoreEngine::Mode::kFast, 64});
  std::vector<RecRequest> requests;
  for (int i = 0; i < 6; ++i) {
    RecRequest request;
    request.target_domain = request.user_domain = i % 2;
    request.user = i * 3;
    request.k = 4;
    requests.push_back(request);
  }
  const std::vector<Recommendation> batch = engine.TopKBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Recommendation single = engine.TopK(requests[i]);
    EXPECT_EQ(batch[i].items, single.items);
    EXPECT_EQ(batch[i].scores, single.scores);
  }
}

/// A 3-domain ServingWorld frozen through the multi-domain model: the
/// engine must agree with brute force on every domain of the world.
TEST(ScoreEngineTest, MultiDomainTopKMatchesBruteForceOnEveryDomain) {
  std::vector<ServingWorld::DomainSpec> specs(3);
  specs[0].data = {"A", 0, 22, 4.0, 0.9};
  specs[1].data = {"B", 0, 18, 3.0, 0.9};
  specs[2].data = {"C", 0, 20, 3.5, 0.9};
  ServingWorld world(specs, /*num_persons=*/220,
                     /*membership_prob=*/{0.7, 0.4, 0.5},
                     /*latent_dim=*/6, /*preference_sharpness=*/4.0, 11);
  MultiDomainView view;
  view.num_persons = 220;
  std::vector<std::unique_ptr<InteractionGraph>> graphs;
  for (int d = 0; d < 3; ++d) {
    const DomainData& data = world.domain(d);
    graphs.push_back(std::make_unique<InteractionGraph>(
        data.num_users, data.num_items, data.interactions));
    view.domains.push_back(&data);
    view.train_graphs.push_back(graphs.back().get());
    std::vector<int> to_person(data.num_users);
    for (int u = 0; u < data.num_users; ++u) {
      to_person[u] = world.PersonOfUser(d, u);
    }
    view.user_to_person.push_back(std::move(to_person));
  }
  view.CheckConsistency();

  NmcdrConfig config;
  config.hidden_dim = 8;
  config.mlp_hidden = {16};
  MultiDomainNmcdrModel model(view, config, 1, 1e-3f);
  ModelSnapshot snapshot;
  ASSERT_TRUE(ModelSnapshot::FreezeMultiDomain(&model, view, &snapshot));
  ASSERT_EQ(snapshot.num_domains(), 3);

  ScoreEngine engine(&snapshot, {ScoreEngine::Mode::kExact, 16});
  for (int d = 0; d < 3; ++d) {
    const std::vector<int> items = AllItems(snapshot, d);
    for (int user : {0, 2, 5}) {
      const std::vector<int> users(items.size(), user);
      const auto ranked =
          BruteForceRank(model.Score(d, users, items), items);
      RecRequest request;
      request.target_domain = request.user_domain = d;
      request.user = user;
      request.k = 8;
      const Recommendation rec = engine.TopK(request);
      ASSERT_EQ(rec.items.size(), 8u);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(rec.items[i], ranked[i].second)
            << "domain " << d << " user " << user << " rank " << i;
        EXPECT_EQ(rec.scores[i], ranked[i].first);
      }
    }
  }

  // Person links from the world survive the freeze.
  for (int u = 0; u < world.NumUsers(0); ++u) {
    const int person = world.PersonOfUser(0, u);
    EXPECT_EQ(snapshot.ResolveUser(0, u, 1), world.UserOfPerson(1, person));
  }
}

}  // namespace
}  // namespace nmcdr
