// Workload `train`: synth-lastfm, traditional split, KUCNet K=30 L=3 trained
// for a fixed number of BPR epochs, evaluated with the all-ranking protocol,
// then asked for top-20 lists for the test users in a closed loop. It is the
// only workload that runs backward passes, Adam and the negative sampler.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "common.h"
#include "eval/evaluator.h"
#include "ppr/ppr.h"
#include "tensor/adam.h"
#include "tensor/tape.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kbench {
namespace {

using kucnet::Kucnet;
using kucnet::PprTable;

/// Epochs trained in every run; fixed so the evaluation is deterministic.
constexpr int kEpochs = 12;
/// Share of --seconds spent on ranking requests after training.
constexpr double kRankingShare = 0.4;
constexpr int kBackwardProbes = 40;

struct TrainStack {
  explicit TrainStack(const Dataset& dataset) : ckg(dataset.BuildCkg()) {}
  kucnet::Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
};

/// Times Tape::Backward of BuildLoss and one Adam step for test users. Runs
/// last: the Adam step moves the model's weights.
void ProbeTraining(Run& run, Kucnet& model, const Dataset& dataset) {
  const std::vector<std::vector<int64_t>> train_items = dataset.TrainItemsByUser();
  std::vector<double> backward_us, adam_us;
  kucnet::Adam adam{kucnet::AdamOptions()};
  for (int64_t user = 0; user < dataset.num_users &&
                         static_cast<int>(backward_us.size()) < kBackwardProbes;
       ++user) {
    const std::vector<int64_t>& positives = train_items[user];
    if (positives.empty()) continue;
    std::vector<int64_t> pos(positives.begin(),
                             positives.begin() + std::min<size_t>(4, positives.size()));
    std::vector<int64_t> neg;
    for (int64_t item = 0; item < dataset.num_items && neg.size() < pos.size(); ++item) {
      if (!std::binary_search(positives.begin(), positives.end(), item)) {
        neg.push_back(item);
      }
    }
    kucnet::Tape tape;
    const kucnet::Var loss = model.BuildLoss(tape, user, pos, neg);
    if (!loss.valid()) continue;
    int64_t start = NowMicros();
    tape.Backward(loss);
    backward_us.push_back(static_cast<double>(NowMicros() - start));
    start = NowMicros();
    adam.Step(model.Params());
    adam_us.push_back(static_cast<double>(NowMicros() - start));
  }
  run.SetLayer("tensor.backward_us", Quantile(backward_us, 0.5));
  run.SetLayer("tensor.adam_step_us", Quantile(adam_us, 0.5));
}

}  // namespace

void RunTrain(Run& run) {
  const uint64_t seed = run.args().seed;
  const Dataset dataset = MakeSynthLastFm(kucnet::SplitKind::kTraditional);

  std::vector<double> setup_seconds, ppr_seconds;
  std::unique_ptr<TrainStack> stack = SetUpRepeatedly<TrainStack>(
      [&]() {
        auto s = std::make_unique<TrainStack>(dataset);
        const int64_t start = NowMicros();
        s->ppr = PprTable::Compute(s->ckg, kucnet::PprTableOptions(),
                                   &kucnet::GlobalPool());
        ppr_seconds.push_back(static_cast<double>(NowMicros() - start) * 1e-6);
        kucnet::KucnetOptions options;
        options.sample_k = 30;
        options.depth = 3;
        s->model = std::make_unique<Kucnet>(&dataset, &s->ckg, &s->ppr, options);
        return s;
      },
      &setup_seconds);
  Kucnet& model = *stack->model;
  SpanRecorder* spans = run.spans();

  // Epochs and ranking requests run on this thread alone (the shared pool
  // is serial), and the thread is moved to the next CPU for every epoch and
  // every ranking stretch. A core whose hyperthread sibling a neighbour
  // keeps busy runs this memory-bound code up to 50% slower with no time
  // stolen at all, and an unpinned thread stays on one core for the whole
  // run; rotating lets the fastest epoch and the best ranking stretch find
  // the quietest core.
  kucnet::Rng rng(seed);
  std::vector<double> epoch_seconds;
  bool losses_finite = true;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    PinCallingThread(epoch);
    const int64_t span = spans ? spans->Begin("train.epoch", epoch, -1) : -1;
    const int64_t start = NowMicros();
    losses_finite = losses_finite && std::isfinite(model.TrainEpoch(rng));
    epoch_seconds.push_back(static_cast<double>(NowMicros() - start) * 1e-6);
    if (spans) spans->End(span);
  }
  run.Gate("train.losses_finite", losses_finite);
  run.CountAttempted(kEpochs);

  int64_t span = spans ? spans->Begin("eval.evaluate", -1, -1) : -1;
  const kucnet::EvalResult eval = kucnet::EvaluateRanking(model, dataset);
  if (spans) spans->End(span);
  run.Gate("eval.metrics_in_range",
           eval.num_users > 0 && eval.recall >= 0 && eval.recall <= 1 &&
               eval.ndcg >= 0 && eval.ndcg <= 1);

  // Ranking requests: each test user's top-20 under the evaluator's masking.
  // Repeated lists for one user must be identical (inference is
  // deterministic).
  const std::vector<int64_t> test_users = dataset.TestUsers();
  std::vector<double> ranking_us;
  std::map<int64_t, std::vector<int64_t>> first_list;
  int64_t changed = 0, empty = 0;
  const int64_t ranking_start = NowMicros();
  const auto ranking_micros = static_cast<int64_t>(kRankingShare * run.args().seconds * 1e6);
  int stretch = -1;
  for (int64_t k = 0; NowMicros() - ranking_start < ranking_micros; ++k) {
    const auto now_stretch = static_cast<int>((NowMicros() - ranking_start) *
                                              kQuantileWindows / ranking_micros);
    if (now_stretch != stretch) PinCallingThread(stretch = now_stretch);
    const int64_t user = test_users[static_cast<size_t>(k) % test_users.size()];
    span = spans ? spans->Begin("eval.rank_request", k, -1) : -1;
    const int64_t start = NowMicros();
    std::vector<int64_t> list = kucnet::RecommendTopN(model, dataset, user, kTopN);
    ranking_us.push_back(static_cast<double>(NowMicros() - start));
    if (spans) spans->End(span);
    if (list.empty()) ++empty;
    const auto [it, inserted] = first_list.emplace(user, list);
    if (!inserted && it->second != list) ++changed;
  }
  PinCallingThread(-1);
  run.Gate("rank.nonempty", empty == 0, std::to_string(empty) + " empty lists");
  run.Gate("rank.deterministic", changed == 0,
           std::to_string(changed) + " lists changed between repeats");
  run.CountAttempted(static_cast<int64_t>(ranking_us.size()));
  run.CountFailed(empty);

  int64_t trained_users = 0;
  for (const auto& items : dataset.TrainItemsByUser()) trained_users += !items.empty();
  const double epoch_median = Quantile(epoch_seconds, 0.5);
  const Summary ranking = Summarize(ranking_us);
  run.Detail("phase.train",
             JsonObject({{"epochs", JsonNumber(kEpochs)},
                         {"epoch_s", JsonSummary(Summarize(epoch_seconds))},
                         {"trained_users", JsonNumber(static_cast<double>(trained_users))},
                         {"recall_at_20", JsonNumber(eval.recall)},
                         {"ndcg_at_20", JsonNumber(eval.ndcg)},
                         {"eval_users", JsonNumber(static_cast<double>(eval.num_users))},
                         {"evaluate_s", JsonNumber(eval.seconds)}}));
  run.Detail("phase.ranking", JsonObject({{"latency_us", JsonSummary(ranking)}}));
  run.Detail("setup_s_samples", JsonSummary(Summarize(setup_seconds)));

  run.SetEndToEnd("setup_s", Quantile(setup_seconds, 0.5));
  run.SetEndToEnd("p50_us", ranking.best_window_p50);
  // Users per second of the fastest epoch: every epoch does the same work,
  // and host contention only ever slows one (as for the best-window
  // latencies).
  const double epoch_fastest = *std::min_element(epoch_seconds.begin(), epoch_seconds.end());
  run.SetEndToEnd("goodput_rps",
                  epoch_fastest > 0 ? static_cast<double>(trained_users) / epoch_fastest : 0);
  run.SetEndToEnd("peak_rss_mb", PeakRssMb());

  if (!run.traced()) return;
  run.SetLayer("train.epoch_s", epoch_median);
  run.SetLayer("eval.recall_at_20", eval.recall);
  run.SetLayer("eval.ndcg_at_20", eval.ndcg);
  run.SetLayer("eval.evaluate_s", eval.seconds);
  run.SetLayer("ppr.table_build_s", Quantile(ppr_seconds, 0.5));
  ProbeTraining(run, model, dataset);
  FinishTrace(run, static_cast<int64_t>(ranking_us.size()));
}

}  // namespace kbench
