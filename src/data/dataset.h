#ifndef KUCNET_DATA_DATASET_H_
#define KUCNET_DATA_DATASET_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/ckg.h"
#include "util/rng.h"

/// \file
/// Datasets and train/test splits for the paper's three evaluation settings:
/// traditional (Sec. V-B), new-item (Sec. V-C) and new-user (Sec. V-D).

namespace kucnet {

/// Unsplit data: the user-item interaction log plus the KG.
struct RawData {
  std::string name;
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_kg_nodes = 0;      ///< includes the items (ids [0, num_items))
  int64_t num_kg_relations = 0;
  std::vector<std::array<int64_t, 2>> interactions;  ///< (user, item)
  std::vector<std::array<int64_t, 3>> kg;            ///< (head, rel, tail)
  std::vector<std::array<int64_t, 3>> user_kg;       ///< (user, rel, user)
};

/// Which evaluation scenario a split models.
enum class SplitKind {
  kTraditional,  ///< test items all appear in training (Sec. V-B)
  kNewItem,      ///< test items have no training interactions (Sec. V-C)
  kNewUser,      ///< test users have no training interactions (Sec. V-D)
  kTemporal,     ///< arrival-order prefix trains, suffix streams (PR 8)
};

/// A train/test split over a RawData. The KG is never split: side
/// information is always fully known (as in the paper).
struct Dataset {
  std::string name;
  SplitKind kind = SplitKind::kTraditional;
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_kg_nodes = 0;
  int64_t num_kg_relations = 0;
  std::vector<std::array<int64_t, 2>> train;
  std::vector<std::array<int64_t, 2>> test;
  std::vector<std::array<int64_t, 3>> kg;
  std::vector<std::array<int64_t, 3>> user_kg;

  /// CKG over the *training* interactions plus the full KG — the graph every
  /// model is allowed to see. Aborts like Ckg::Build, for the same reason:
  /// member initializers (in benchmark/ too) need an expression.
  Ckg BuildCkg() const;

  /// Training items per user (sorted).
  std::vector<std::vector<int64_t>> TrainItemsByUser() const;

  /// Test items per user (sorted).
  std::vector<std::vector<int64_t>> TestItemsByUser() const;

  /// Users with at least one test interaction.
  std::vector<int64_t> TestUsers() const;

  /// Human-readable one-line summary (Table II style).
  std::string Summary() const;
};

/// Per-user holdout: each user's interactions are split `test_fraction`
/// to test; items seen only in test are dropped from test so that
/// I_test ⊆ I_train, as in Sec. V-B.
Dataset TraditionalSplit(const RawData& raw, double test_fraction, Rng& rng);

/// Holds out `item_fraction` of items: all their interactions move to test
/// and none remain in training, so I_test ∩ I_train = ∅ (Sec. V-C). The held
/// out items stay in the KG — models may only find them through it.
Dataset NewItemSplit(const RawData& raw, double item_fraction, Rng& rng);

/// Holds out `user_fraction` of users: all their interactions move to test
/// (Sec. V-D). Held-out users keep their user-side KG edges.
Dataset NewUserSplit(const RawData& raw, double user_fraction, Rng& rng);

/// Arrival-order split for the streaming setting: interactions are visited
/// in `arrival_order` (a permutation of indices into `raw.interactions`;
/// empty = log order), duplicates keep only their first arrival, and the
/// first `train_fraction` of the deduplicated sequence becomes training.
/// The suffix becomes `test` *in arrival order* (deliberately not sorted):
/// it doubles as the replay stream for StreamingCkg, so a temporal
/// dataset's test rows are exactly the updates a server would receive live.
Dataset TemporalSplit(const RawData& raw,
                      const std::vector<int64_t>& arrival_order,
                      double train_fraction);

}  // namespace kucnet

#endif  // KUCNET_DATA_DATASET_H_
