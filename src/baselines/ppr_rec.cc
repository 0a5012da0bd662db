#include "baselines/ppr_rec.h"

#include "util/logging.h"

namespace kucnet {

PprRec::PprRec(const Dataset* dataset, const Ckg* ckg, const PprTable* ppr)
    : dataset_(dataset), ckg_(ckg), ppr_(ppr) {
  KUC_CHECK(dataset != nullptr);
  KUC_CHECK(ckg != nullptr);
  KUC_CHECK(ppr != nullptr);
}

double PprRec::TrainEpoch(Rng& rng) {
  (void)rng;
  return 0.0;
}

std::vector<double> PprRec::ScoreItems(int64_t user) const {
  std::vector<double> scores(dataset_->num_items);
  ppr_->ScoreFn(user).ReadRange(ckg_->ItemNode(0), scores);
  return scores;
}

}  // namespace kucnet
