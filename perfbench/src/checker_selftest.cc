// checker_selftest: shows that the top-K reference checker accepts the
// serving path's answers and catches every kind of wrong answer, by
// planting each kind into otherwise-correct answers.

#include <algorithm>
#include <functional>
#include <numeric>

#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "topk_check.h"
#include "workloads.h"

namespace perfbench {

using nmcdr::ModelSnapshot;
using nmcdr::Recommendation;
using nmcdr::RecRequest;

namespace {

/// The exact top-k by reference score (RanksBefore order).
Recommendation ReferenceAnswer(const RecRequest& r,
                               const std::vector<float>& reference,
                               bool cold) {
  std::vector<int> order(reference.size());
  std::iota(order.begin(), order.end(), 0);
  order.erase(std::remove_if(order.begin(), order.end(),
                             [&r](int i) {
                               return std::find(r.exclude.begin(),
                                                r.exclude.end(),
                                                i) != r.exclude.end();
                             }),
              order.end());
  std::sort(order.begin(), order.end(), [&reference](int a, int b) {
    return nmcdr::RanksBefore(reference[a], a, reference[b], b);
  });
  Recommendation rec;
  rec.cold_start = cold;
  for (int i = 0; i < r.k; ++i) {
    rec.items.push_back(order[i]);
    rec.scores.push_back(reference[order[i]]);
  }
  return rec;
}

struct Plant {
  const char* kind;
  std::function<void(const RecRequest&, const std::vector<float>&,
                     Recommendation*)>
      apply;
};

}  // namespace

void RunCheckerSelfTest(const RunArgs& args, Report* report) {
  nmcdr::SyntheticSnapshotSpec spec;
  spec.users_per_domain = 600;
  spec.items_per_domain = 700;
  spec.seed = args.seed;
  const ModelSnapshot snapshot = ModelSnapshot::MakeSynthetic(spec);
  const nmcdr::ScoreEngine engine(&snapshot);
  const nmcdr::cluster::ShardedSnapshot sharded(
      snapshot, nmcdr::cluster::ShardLayout::Uniform(snapshot, 3));
  const std::vector<RecRequest> requests = MakeRequests(snapshot, 16, args.seed);

  const std::vector<Plant> plants = {
      {"count", [](const RecRequest&, const std::vector<float>&,
                   Recommendation* a) {
         a->items.pop_back();
         a->scores.pop_back();
       }},
      {"cold_start", [](const RecRequest&, const std::vector<float>&,
                        Recommendation* a) { a->cold_start = !a->cold_start; }},
      {"range", [](const RecRequest&, const std::vector<float>& ref,
                   Recommendation* a) {
         a->items.back() = static_cast<int>(ref.size());
       }},
      {"duplicate", [](const RecRequest&, const std::vector<float>&,
                       Recommendation* a) {
         a->items[1] = a->items[0];
         a->scores[1] = a->scores[0];
       }},
      {"excluded", [](const RecRequest& r, const std::vector<float>& ref,
                      Recommendation* a) {
         a->items.back() = r.exclude[0];
         a->scores.back() = std::min(ref[r.exclude[0]], a->scores.back());
       }},
      {"order", [](const RecRequest&, const std::vector<float>&,
                   Recommendation* a) {
         std::swap(a->items[0], a->items[1]);
         std::swap(a->scores[0], a->scores[1]);
       }},
      {"score", [](const RecRequest&, const std::vector<float>&,
                   Recommendation* a) { a->scores.back() -= 0.05f; }},
      {"missed", [](const RecRequest& r, const std::vector<float>& ref,
                    Recommendation* a) {
         // Skip the best item: ranks 2..k+1 with their exact scores.
         RecRequest longer = r;
         longer.k = r.k + 1;
         const Recommendation full = ReferenceAnswer(longer, ref, a->cold_start);
         a->items.assign(full.items.begin() + 1, full.items.end());
         a->scores.assign(full.scores.begin() + 1, full.scores.end());
       }},
  };

  int64_t cases = 0, wrong = 0, cold_requests = 0;
  for (const RecRequest& r : requests) {
    bool cold = false;
    const std::vector<float> reference = ReferenceScores(snapshot, r, &cold);
    cold_requests += cold ? 1 : 0;
    // The serving path's answers and the exact reference answer pass.
    const Recommendation right = ReferenceAnswer(r, reference, cold);
    for (const Recommendation& answer :
         {engine.TopK(r), sharded.TopK(r), right}) {
      ++cases;
      const std::string fault = CheckTopK(snapshot, r, answer, reference, cold);
      if (!fault.empty()) {
        ++wrong;
        report->Fail("checker rejected a right answer: " + fault);
      }
    }
    for (const Plant& plant : plants) {
      Recommendation planted = right;
      plant.apply(r, reference, &planted);
      ++cases;
      const std::string fault = CheckTopK(snapshot, r, planted, reference, cold);
      if (fault.rfind(plant.kind, 0) != 0) {
        ++wrong;
        report->Fail(std::string("planted '") + plant.kind +
                     "' fault reported as '" + fault + "'");
      }
    }
  }
  if (cold_requests == 0) report->Fail("no cold-start request in the self-test");
  report->Phase("selftest.cases", cases, wrong);
  report->Note("selftest", std::to_string(plants.size()) +
                               " planted fault kinds x " +
                               std::to_string(requests.size()) + " requests (" +
                               std::to_string(cold_requests) + " cold-start)");
  report->Metric("selftest_cases", static_cast<double>(cases), "count");
}

}  // namespace perfbench
